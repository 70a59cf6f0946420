"""Wiener path generation and pathwise evaluation of weight expressions.

Paths live on a uniform grid over [0, h].  Color 0 is the time grid; each
stochastic color is an independent one-dimensional Wiener path, sampled by
dyadic midpoint refinement so that the same seed at step counts N and 2N
produces bit-identical values on the shared grid points.  Monte-Carlo
helpers derive one seed per (master seed, path index), so results do not
depend on evaluation order.  Each path and color draws its normals in one
call; the midpoint levels and the quadrature run over chunks of paths, with
the same elementwise operations and sequential sums as one path at a time,
so chunked results equal per-path ones bit for bit.

Evaluation of an integral atom walks the grid once: color 0 uses the
trapezoidal rule in time, stochastic colors use left-endpoint sums for the
Ito interpretation and trapezoidal integrand averaging for Stratonovich.
Only integrals need the whole grid: the top-level factors of a monomial
multiply on the endpoint column alone, with the same elementwise
operations, so the value equals the last column of the full profile.

``MCStats.of`` is the one sample-statistics reduction (mean, unbiased
variance, standard error) for the Monte-Carlo weight moments here and the
strong errors of :func:`sbseries.sim.ms_order_estimate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sbseries.expr import IntAtom, Mono, WeightExpr


class PathError(Exception):
    pass


class ColorMissing(PathError):
    """The expression references a Wiener color the path does not carry."""


class PathTooShort(PathError):
    """The path does not span the requested horizon."""


ITO = "ito"
STRATONOVICH = "stratonovich"


def normalize_interpretation(name: str) -> str:
    low = name.lower()
    if low in (ITO, "i"):
        return ITO
    if low in (STRATONOVICH, "strat", "s"):
        return STRATONOVICH
    raise ValueError(f"unknown interpretation {name!r}")


@dataclass(frozen=True)
class PathGrid:
    """Cumulative driver values on a uniform grid: row 0 holds the times
    t_k, row m the Wiener value W_m(t_k)."""

    h: float
    n_steps: int
    values: np.ndarray  # shape (M + 1, n_steps + 1)

    @property
    def n_colors(self) -> int:
        return self.values.shape[0] - 1

    @property
    def times(self) -> np.ndarray:
        return self.values[0]

    def wiener(self, m: int) -> np.ndarray:
        if not 1 <= m <= self.n_colors:
            raise ColorMissing(f"path carries colors 1..{self.n_colors}, not {m}")
        return self.values[m]

    def restrict(self, h_sub: float) -> "PathGrid":
        """The sub-path over [0, h_sub]; h_sub must lie on the grid."""
        dt = self.h / self.n_steps
        k = int(round(h_sub / dt))
        if k < 1 or abs(k * dt - h_sub) > 1e-12 * max(1.0, self.h):
            raise PathTooShort(f"horizon {h_sub} not on the grid of {self}")
        if k > self.n_steps:
            raise PathTooShort(f"path spans [0, {self.h}], requested {h_sub}")
        return PathGrid(h_sub, k, self.values[:, :k + 1].copy())


def _seed_tuple(seed) -> tuple:
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


# Paths per batch: 8 to 16 measured fastest, 64 slower (its arrays outgrow L2).
_CHUNK = 8


def _check_grid(h: float, n_steps: int) -> None:
    if n_steps < 1 or not (math.isfinite(h) and h > 0):
        raise ValueError(f"need a finite positive horizon and a step, got h={h}, N={n_steps}")


def sample_path(h: float, n_steps: int, n_colors: int, seed) -> PathGrid:
    """Draw one path on the uniform grid with ``n_steps`` steps.

    Power-of-two step counts are built by dyadic midpoint refinement, so a
    2N-step path restricted to the N-step grid equals the N-step path for
    the same seed.  Other step counts fall back to sequential increments
    (deterministic, but without the refinement guarantee).
    """
    base = _seed_tuple(seed)
    values = np.empty((n_colors + 1, n_steps + 1))
    _sample_wiener_rows(values[1:], h, [base + (m,) for m in range(1, n_colors + 1)])
    values[0] = np.linspace(0.0, h, n_steps + 1)  # the last time is h exactly
    return PathGrid(h, n_steps, values)


def _sample_wiener_rows(out: np.ndarray, h: float, seeds) -> None:
    """Fill ``out`` (P, N + 1) with Wiener paths over [0, h], row i drawn
    from ``SeedSequence(seeds[i])``.  Levy construction for power-of-two N:
    the endpoint first, then per level all midpoints left to right; coarse
    levels come first in the stream, so a refinement reproduces the coarse
    grid exactly."""
    n_steps = out.shape[1] - 1
    _check_grid(h, n_steps)
    for start in range(0, len(seeds), _CHUNK):
        w = out[start:start + _CHUNK]
        zc = np.empty((len(w), n_steps))
        for row, seed in zip(zc, seeds[start:start + _CHUNK]):
            np.random.default_rng(np.random.SeedSequence(seed)).standard_normal(out=row)
        w[:, 0] = 0.0
        if n_steps & (n_steps - 1) == 0:
            w[:, n_steps] = np.sqrt(h) * zc[:, 0]
            span, pos = n_steps, 1
            while span > 1:
                # 0.5 * (left + right) + scale * z, computed in place
                half, count = span // 2, n_steps // span
                mids, z = w[:, half::span], zc[:, pos:pos + count]
                np.add(w[:, :n_steps - half:span], w[:, span::span], out=mids)
                mids *= 0.5
                z *= np.sqrt((span / n_steps) * h / 4.0)
                mids += z
                span, pos = half, pos + count
        else:
            w[:, 1:] = np.cumsum(np.sqrt(h / n_steps) * zc, axis=1)


# ---------------------------------------------------------------------------
# Quadrature evaluation
# ---------------------------------------------------------------------------


def eval_weight(expr: WeightExpr, path: PathGrid, interp: str = STRATONOVICH) -> float:
    """Value of the expression over the path's full horizon."""
    interp = normalize_interpretation(interp)
    missing = {m for m in expr.colors() if m > path.n_colors}
    if missing:
        raise ColorMissing(f"path carries {path.n_colors} colors, "
                           f"expression needs {sorted(missing)}")
    return _eval_rows(expr, path.times, path.values[1:, None, :], interp)[0]


def _eval_rows(expr: WeightExpr, times: np.ndarray, w: np.ndarray,
               interp: str) -> np.ndarray:
    """Values of the expression on the paths ``w`` (M, P, N + 1), color m in
    ``w[m - 1]``, over the time grid ``times`` (N + 1,).

    Only the integrals need the whole grid; the top-level factors of each
    monomial multiply on the last column alone, as (P, 1) arrays (numpy's
    elementwise ``**`` gives the same bits at any array length, its scalar
    ``**`` does not)."""
    total = np.zeros(w.shape[1])
    for coeff, mono in expr.terms:
        atoms = [_atom_profile(atom, times, w, interp)[:, -1:] for atom, _ in mono.ints]
        total += float(coeff) * _product(mono, times[-1:], w[..., -1:], atoms)[:, 0]
    return total


def _mono_profile(mono: Mono, times: np.ndarray, w: np.ndarray,
                  interp: str) -> np.ndarray:
    """Values of the monomial as a function of the upper limit, on the grid,
    one row per path, in a new array.  Integrals are evaluated first, so a
    nesting holds one array per level."""
    atoms = [_atom_profile(atom, times, w, interp) for atom, _ in mono.ints]
    return _product(mono, times, w, atoms)


def _product(mono: Mono, times: np.ndarray, w: np.ndarray, atoms) -> np.ndarray:
    """The monomial's factors multiplied in order, on the columns of ``times``
    and ``w``, with ``atoms`` the profiles of its integrals there."""
    out = np.ones(w.shape[1:])
    if mono.hpow:
        out *= times ** mono.hpow
    for m, p in mono.dws:
        out *= w[m - 1] if p == 1 else w[m - 1] ** p
    for a, (_, p) in zip(atoms, mono.ints):
        out *= a if p == 1 else a ** p
    return out


def _atom_profile(atom: IntAtom, times: np.ndarray, w: np.ndarray,
                  interp: str) -> np.ndarray:
    f = _mono_profile(atom.integrand, times, w, interp)
    driver = w[atom.color - 1] if atom.color else times
    step = driver[..., 1:] - driver[..., :-1]
    # in place, in the order of 0.5 * (f[:-1] + f[1:]) * step (fewer page faults)
    if atom.color and interp == ITO and not atom.integrand.is_deterministic:
        incr = f[:, :-1] * step
    else:
        # the calculi agree for deterministic integrands, so both use
        # the better trapezoidal average there (bitwise identical)
        incr = f[:, :-1] + f[:, 1:]
        incr *= 0.5
        incr *= step
    f[:, 0] = 0.0  # f is spent: it takes the running sums
    np.cumsum(incr, axis=1, out=f[:, 1:])
    return f


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCStats:
    """Sample statistics of one evaluated quantity."""

    count: int
    mean: float
    variance: float

    @classmethod
    def of(cls, values: np.ndarray) -> "MCStats":
        """Mean and unbiased variance of the samples, each a numpy pairwise
        sum in index order (zero variance for a single sample)."""
        n = len(values)
        mean = float(np.sum(values) / n)
        variance = float(np.sum((values - mean) ** 2) / (n - 1)) if n > 1 else 0.0
        return cls(n, mean, variance)

    @property
    def stderr(self) -> float:
        return float(np.sqrt(self.variance / self.count))


def mc_moments(expr: WeightExpr, h: float, n_steps: int, n_paths: int,
               interp: str = STRATONOVICH, seed=0) -> MCStats:
    """Average the expression over independent paths.

    Per-path seeds are (seed, path index), so the estimate is independent
    of evaluation order; the reduction is numpy's pairwise summation in
    index order, hence bit-reproducible.
    """
    _check_grid(h, n_steps)
    if n_paths < 1:
        raise ValueError("need at least one path")
    interp = normalize_interpretation(interp)
    n_colors = max(expr.colors(), default=0)
    base = _seed_tuple(seed)
    times = np.linspace(0.0, h, n_steps + 1)
    w = np.empty((n_colors, _CHUNK, n_steps + 1))
    values = np.empty(n_paths)
    for start in range(0, n_paths, _CHUNK):
        idx = range(start, min(start + _CHUNK, n_paths))
        for m in range(1, n_colors + 1):
            _sample_wiener_rows(w[m - 1, :len(idx)], h, [base + (i, m) for i in idx])
        values[idx.start:idx.stop] = _eval_rows(expr, times, w[:, :len(idx)], interp)
    return MCStats.of(values)
