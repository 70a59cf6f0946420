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

Each call builds its chunk-sized scratch arrays once and reuses them for
every chunk: the sampler keeps one normals buffer, one row of per-normal
scales (all refinement levels are scaled by one multiply) and one contiguous
buffer for a level's midpoints; the evaluator one profile array per integral
nesting depth, one increment array and each color's Wiener steps, computed
once per chunk however many integrals use them.  Fresh chunk-sized arrays
would be handed back to the OS and faulted in again for every chunk.

What does not depend on the path is computed once per call, with the same
operations in the same order, so no bit changes: each row's seed tuple
becomes its ``SeedSequence`` entropy words directly, as numpy would coerce
the tuple; the powers of the times, and the trapezoid row of each integrand
that is a power of s, are made once per evaluator instead of once per row
and chunk.

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

from sbseries.expr import (
    ITO,
    STRATONOVICH,
    IntAtom,
    Mono,
    WeightExpr,
    normalize_interpretation,
)


class PathError(ValueError):
    pass


class ColorMissing(PathError):
    """The expression references a Wiener color the path does not carry."""


class PathTooShort(PathError):
    """The path does not span the requested horizon."""


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
        k = int(round(h_sub / dt)) if math.isfinite(h_sub) else 0
        if k < 1 or abs(k * dt - h_sub) > 1e-12 * max(1.0, self.h):
            raise PathTooShort(f"horizon {h_sub} not on the grid of "
                               f"h={self.h}, n_steps={self.n_steps}")
        if k > self.n_steps:
            raise PathTooShort(f"path spans [0, {self.h}], requested {h_sub}")
        return PathGrid(h_sub, k, self.values[:, :k + 1].copy())


def _seed_tuple(seed) -> tuple:
    base = (int(seed),) if isinstance(seed, (int, np.integer)) else tuple(map(int, seed))
    if any(s < 0 for s in base):
        raise ValueError(f"a seed must be non-negative, got {seed}")
    return base


def _seed_words(seed: tuple) -> np.ndarray:
    """The entropy words ``SeedSequence`` makes of a tuple of non-negative
    ints: each int's little-endian 32-bit words, concatenated (0 gives one
    word).  Passed as a uint32 array, they skip numpy's per-int coercion."""
    return np.array([s >> k & 0xFFFFFFFF for s in seed
                     for k in range(0, s.bit_length() or 1, 32)], np.uint32)


# Paths per chunk.  With the per-call workspace, 8 and 16 took the same time
# on the two `weights mc` benchmark jobs, 4 and 32 took 5-7% longer.
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
    from ``SeedSequence(seeds[i])``, ``_CHUNK`` rows at a time through one
    sampler."""
    sampler = _WienerSampler(h, out.shape[1] - 1, min(len(seeds), _CHUNK))
    for start in range(0, len(seeds), _CHUNK):
        sampler.draw(out[start:start + _CHUNK], seeds[start:start + _CHUNK])


class _WienerSampler:
    """Draws Wiener rows over [0, h] with ``n_steps`` steps, up to ``rows``
    per draw, into the caller's arrays; the normals buffer, the scale of
    each normal and a contiguous buffer for one level's midpoints are built
    once.

    Levy construction for power-of-two N: the endpoint first, then per level
    all midpoints left to right; coarse levels come first in the stream, so a
    refinement reproduces the coarse grid exactly."""

    def __init__(self, h: float, n_steps: int, rows: int):
        _check_grid(h, n_steps)
        self.normals = np.empty((rows, n_steps))
        self.dyadic = n_steps & (n_steps - 1) == 0
        # (midpoint offset, span, first normal, count) per refinement level
        self.levels = []
        if self.dyadic:
            self.midpoints = np.empty((rows, n_steps // 2))
            self.scale = np.empty(n_steps)
            self.scale[0] = np.sqrt(h)
            span, pos = n_steps, 1
            while span > 1:
                count = n_steps // span
                self.levels.append((span // 2, span, pos, count))
                self.scale[pos:pos + count] = np.sqrt((span / n_steps) * h / 4.0)
                span, pos = span // 2, pos + count
        else:
            self.scale = np.full(n_steps, np.sqrt(h / n_steps))

    def draw(self, out: np.ndarray, seeds) -> None:
        """Fill ``out`` (P, N + 1), P <= rows, row i from ``seeds[i]``."""
        z = self.normals[:len(seeds)]
        for row, seed in zip(z, seeds):
            entropy = np.random.SeedSequence(_seed_words(seed))
            np.random.default_rng(entropy).standard_normal(out=row)
        z *= self.scale
        out[:, 0] = 0.0
        if not self.dyadic:
            np.cumsum(z, axis=1, out=out[:, 1:])
            return
        n_steps = out.shape[1] - 1
        out[:, n_steps] = z[:, 0]
        for half, span, pos, count in self.levels:
            # 0.5 * (left + right) + scale * z, computed contiguously (the
            # strided columns of ``out`` are a third slower) and copied in
            mids = self.midpoints[:len(seeds), :count]
            np.add(out[:, :n_steps - half:span], out[:, span::span], out=mids)
            mids *= 0.5
            mids += z[:, pos:pos + count]
            out[:, half::span] = mids


# ---------------------------------------------------------------------------
# Quadrature evaluation
# ---------------------------------------------------------------------------


def eval_weight(expr: WeightExpr, path: PathGrid, interp: str = STRATONOVICH) -> float:
    """Value of the expression over the path's full horizon."""
    return eval_weights([expr], path, interp)[0]


def eval_weights(exprs, path: PathGrid, interp: str = STRATONOVICH) -> list[float]:
    """Values of the expressions over the path's full horizon, each equal
    to its :func:`eval_weight` bit for bit, evaluated in one workspace: an
    integral at the top level of several terms is integrated once."""
    interp = normalize_interpretation(interp)
    missing = {m for expr in exprs for m in expr.colors() if m > path.n_colors}
    if missing:
        raise ColorMissing(f"path carries {path.n_colors} colors, "
                           f"expression needs {sorted(missing)}")
    w = path.values[1:, None, :]
    return [value[0] for value in _Workspace(path.times, 1, interp).eval(exprs, w)]


class _Workspace:
    """Scratch arrays for evaluating expressions on chunks of up to ``rows``
    paths over one time grid, each allocated on first use and reused for
    every later chunk: one profile array per integral nesting depth, one
    increment array, arrays for powers of driver values, and each color's
    Wiener steps, computed once per chunk.  What no path changes is computed
    once per workspace: the time steps, each power of the times and each
    trapezoid row of a deterministic integrand."""

    def __init__(self, times: np.ndarray, rows: int, interp: str):
        self.times, self.rows, self.interp = times, rows, interp
        self._arrays, self._dt, self._powers, self._trapezoids = {}, None, {}, {}

    def _scratch(self, key, n_cols: int) -> np.ndarray:
        """This chunk's rows of the (rows, n_cols) scratch array ``key``."""
        a = self._arrays.get(key)
        if a is None:
            a = self._arrays[key] = np.empty((self.rows, n_cols))
        return a[:self.p]

    def eval(self, exprs, w: np.ndarray) -> list[np.ndarray]:
        """Values of each expression on the chunk ``w`` (M, P, N + 1), P <= rows.

        Only the integrals need the whole grid; the top-level factors of each
        monomial multiply on the last column alone, as (P, 1) arrays (numpy's
        elementwise ``**`` gives the same bits at any array length, its
        scalar ``**`` does not).  The endpoint values of a top-level integral
        are computed once per chunk and kept as a copy, since the profile
        array is reused and the product takes powers in place."""
        self.w, self.p, self.steps = w, w.shape[1], {}
        ends: dict[IntAtom, np.ndarray] = {}
        end = self._scratch("end", 1)

        def atom_end(atom: IntAtom) -> np.ndarray:
            value = ends.get(atom)
            if value is None:
                value = ends[atom] = self._atom_profile(atom, 0)[:, -1:].copy()
            out = self._scratch("end atom", 1)
            np.copyto(out, value)
            return out

        values = []
        for expr in exprs:
            total = np.zeros(self.p)
            for coeff, mono in expr.terms:
                _product(mono, end, lambda k: self._time_power(k, True), w[..., -1:],
                         lambda: self._scratch("end power", 1), atom_end)
                total += float(coeff) * end[:, 0]
            values.append(total)
        return values

    def _atom_profile(self, atom: IntAtom, depth: int) -> np.ndarray:
        """The integral as a function of its upper limit, one row per path,
        in the profile array of ``depth`` (its integrand's first); nested
        integrals use the deeper ones.  An integrand that is one atom is
        that atom's profile, in the same array, summed again in place.  A
        deterministic integrand s^k has the same trapezoid row on every
        path, which multiplies the driver steps with the same bits."""
        n_points = len(self.times)
        mono = atom.integrand
        incr = self._scratch("increments", n_points - 1)
        if mono.is_deterministic:
            # the calculi agree for deterministic integrands, so both use
            # the better trapezoidal average there (bitwise identical)
            f = self._scratch(("profile", depth), n_points)
            np.multiply(self._trapezoid(mono.hpow), self._step(atom.color), out=incr)
        else:
            if not mono.hpow and not mono.dws and len(mono.ints) == 1 and mono.ints[0][1] == 1:
                # the product would be 1.0 * profile, the same bits
                f = self._atom_profile(mono.ints[0][0], depth)
            else:
                f = self._scratch(("profile", depth), n_points)
                _product(mono, f, lambda k: self._time_power(k, False), self.w,
                         lambda: self._scratch("power", n_points),
                         lambda inner: self._atom_profile(inner, depth + 1))
            step = self._step(atom.color)
            # in place, in the order of 0.5 * (f[:-1] + f[1:]) * step
            if atom.color and self.interp == ITO:
                np.multiply(f[:, :-1], step, out=incr)
            else:
                np.add(f[:, :-1], f[:, 1:], out=incr)
                incr *= 0.5
                incr *= step
        f[:, 0] = 0.0  # f is spent: it takes the running sums
        np.cumsum(incr, axis=1, out=f[:, 1:])
        return f

    def _time_power(self, k: int, end: bool) -> np.ndarray:
        """times ** k on the grid, or on its last column, computed once."""
        p = self._powers.get((k, end))
        if p is None:
            p = self._powers[k, end] = (self.times[-1:] if end else self.times) ** k
        return p

    def _trapezoid(self, k: int) -> np.ndarray:
        """(p[:-1] + p[1:]) * 0.5 for p = times ** k, computed once."""
        row = self._trapezoids.get(k)
        if row is None:
            p = self._time_power(k, False)
            row = self._trapezoids[k] = (p[:-1] + p[1:]) * 0.5
        return row

    def _step(self, color: int) -> np.ndarray:
        """The steps of the driver: the time steps, or the Wiener steps of
        the color on this chunk, computed once per chunk."""
        if not color:
            if self._dt is None:
                self._dt = self.times[1:] - self.times[:-1]
            return self._dt
        step = self.steps.get(color)
        if step is None:
            w = self.w[color - 1]
            step = self.steps[color] = np.subtract(
                w[:, 1:], w[:, :-1], out=self._scratch(("steps", color), w.shape[1] - 1))
        return step


def _product(mono: Mono, out: np.ndarray, time_power, w: np.ndarray,
             power, atom_profile) -> None:
    """Multiply the monomial's factors into ``out`` in order, on the columns
    of ``w``.  ``time_power(k)`` returns the times to the power k on those
    columns, read-only; ``power()`` returns scratch of the shape of ``out``
    for powers of ``w``; ``atom_profile(atom)`` returns an integral's values
    on those columns in scratch the product may overwrite, and is called
    only after the factors before it are in ``out``.  A product with a time
    power starts from a copy of it, the bits of ones times it."""
    if mono.hpow:
        np.copyto(out, time_power(mono.hpow))
    else:
        out.fill(1.0)
    for m, p in mono.dws:
        if p == 1:
            out *= w[m - 1]
        else:
            a = power()
            np.copyto(a, w[m - 1])
            a **= p
            out *= a
    for atom, p in mono.ints:
        a = atom_profile(atom)
        if p != 1:
            a **= p
        out *= a


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
    rows = min(n_paths, _CHUNK)
    times = np.linspace(0.0, h, n_steps + 1)
    w = np.empty((n_colors, rows, n_steps + 1))
    sampler = _WienerSampler(h, n_steps, rows)
    workspace = _Workspace(times, rows, interp)
    values = np.empty(n_paths)
    for start in range(0, n_paths, rows):
        idx = range(start, min(start + rows, n_paths))
        for m in range(1, n_colors + 1):
            sampler.draw(w[m - 1, :len(idx)], [base + (i, m) for i in idx])
        values[idx.start:idx.stop] = workspace.eval([expr], w[:, :len(idx)])[0]
    return MCStats.of(values)
