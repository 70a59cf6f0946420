"""Time stepping of semi-linear test SDEs with the exponential midpoint
rule, fine-grid reference solutions, and empirical mean-square convergence
order estimation.

Every function here solves the Stratonovich equation driven by one Wiener
process, ``dx = (A(t) x + g_0(x, t)) dt + g_1(x, t) o dW_1``: it reads ``g_0``,
``g_1`` (zero on a problem with no noise color) and the color-1 path only.
``integrate_erk``, ``reference_solution`` and ``ms_order_estimate`` raise
ValueError on a problem that is not semi-linear, is read in the Ito sense or
has more than one noise color, before any step is taken or any path is drawn.

The stepper evaluates the three operator exponentials of the method per
step: the integral of the linear part over each sub-interval is computed
by Simpson quadrature (exact for the polynomial fixtures) and exponentiated
by scaling-and-squaring.  The exponentials depend only on (t, h), never on
the path, so one ladder of step sizes shares them across all Monte-Carlo
paths.  The linear part A is evaluated once per distinct float time: the
three Simpson rules of a step share their nodes, and the Heun reference
reuses its corrector's A(t + dt) as the next step's A(t) when the two
times are the same float.  The implicit stage takes its half step and half
increment once per solve, not once per iteration, grouped as Python groups
them inline, so the iterates keep their bits.  State arrays may carry a
trailing batch axis; coefficient functions of the built-in problems
broadcast over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from sbseries.elementary import SDEProblem
from sbseries.expr import STRATONOVICH, normalize_interpretation
from sbseries.paths import MCStats, PathGrid, _sample_wiener_rows, _seed_tuple
from sbseries.trees import SimulationError


class StageDivergence(SimulationError):
    """The implicit stage iteration failed to contract; the step size is
    too large for the problem."""


@dataclass(frozen=True)
class ConvergenceReport:
    """Root-mean-square strong errors over a dyadic step ladder and the
    fitted order."""

    h_values: tuple[float, ...]
    rms_errors: tuple[float, ...]
    stderrs: tuple[float, ...]
    slope: float

    def rows(self) -> list[tuple[float, float, float]]:
        return list(zip(self.h_values, self.rms_errors, self.stderrs))


def midpoint_step_operators(problem: SDEProblem, t: float, h: float):
    """(stage, back, full) exponentials for one step from t to t + h.

    The three Simpson rules share nodes; A is evaluated once per distinct
    float time among them."""
    values = {}

    def A(s):
        if s not in values:
            values[s] = problem.a_derivative(0, s)
        return values[s]

    def simpson(a, b):
        return (b - a) / 6.0 * (A(a) + 4.0 * A(0.5 * (a + b)) + A(b))

    stage = expm(simpson(t, t + 0.5 * h))
    back = expm(simpson(t + 0.5 * h, t + h))
    full = expm(simpson(t, t + h))
    return stage, back, full


def _fields(problem: SDEProblem):
    """The drift field g_0 and the noise field g_1, which is zero on a
    problem with no noise color."""
    return problem.g[0], problem.g[1] if problem.model.M else _zero_field


def _zero_field(x, t):
    return np.zeros_like(x)


_STAGE_TOL = 1e-12
_STAGE_MAX_ITER = 100


def _solve_stage(problem: SDEProblem, sx: np.ndarray, tm: float, h: float,
                 dw) -> np.ndarray:
    """Damped fixed-point solve of the implicit midpoint stage.  The half
    step and the half increment are taken once: Python groups the inline
    ``0.5 * dw * g`` as ``(0.5 * dw) * g``, so the iterates are the same."""
    g0, g1 = _fields(problem)
    half_h, half_dw = 0.5 * h, 0.5 * dw
    damping = 1.0
    state = sx
    prev_delta = np.inf
    stalls = 0
    for _ in range(_STAGE_MAX_ITER):
        proposal = sx + half_h * g0(state, tm) + half_dw * g1(state, tm)
        new = state + damping * (proposal - state)
        delta = float(np.abs(new - state).max())
        state = new
        if delta <= _STAGE_TOL * (1.0 + float(np.abs(state).max())):
            return state
        if delta > prev_delta:
            stalls += 1
            if stalls >= 3:
                if damping <= 0.26:
                    raise StageDivergence(
                        f"stage iteration diverged at t={tm - 0.5 * h}, h={h}")
                damping *= 0.5
                stalls = 0
        prev_delta = delta
    raise StageDivergence(f"stage iteration did not converge at t={tm - 0.5 * h}")


def exponential_midpoint_step(problem: SDEProblem, t: float, h: float,
                              x: np.ndarray, dw) -> np.ndarray:
    """One step of the exponential midpoint rule from state ``x`` at time
    ``t`` with increment ``dw`` over the step."""
    stage_op, back_op, full_op = midpoint_step_operators(problem, t, h)
    tm = t + 0.5 * h
    stage = _solve_stage(problem, stage_op @ x, tm, h, dw)
    g0, g1 = _fields(problem)
    return full_op @ x + back_op @ (h * g0(stage, tm) + dw * g1(stage, tm))


def _require_supported(problem: SDEProblem) -> None:
    """Raise ValueError unless the problem is semi-linear, Stratonovich and
    has at most one noise color, the equation every function here solves."""
    if not problem.is_semilinear or problem.model.M > 1 \
            or normalize_interpretation(problem.interpretation) != STRATONOVICH:
        raise ValueError(f"{problem.name}: time stepping needs a semi-linear "
                         "Stratonovich problem with at most one noise color")


def _driving_values(problem: SDEProblem, path, step: float, n_steps: int):
    """Color-1 Wiener values at the step boundaries (a path's row thinned to
    them, or an array that holds them already), and the initial state for
    them: (d,) for one row, (d, P) for a batch of P rows."""
    _require_supported(problem)
    if isinstance(path, PathGrid):
        per_step = int(round(path.n_steps * step / path.h))
        if per_step < 1 or abs(per_step * path.h / path.n_steps - step) > 1e-12 \
                or per_step * n_steps > path.n_steps:
            raise SimulationError(f"path grid does not resolve {n_steps} steps of {step}")
        path = path.wiener(1)[::per_step]
    elif path.shape[-1] < n_steps + 1:
        raise SimulationError(f"{path.shape[-1]} Wiener values do not span {n_steps} steps")
    x0 = problem.x0_state
    return path, x0.copy() if path.ndim == 1 else np.repeat(x0[:, None], len(path), axis=1)


def integrate_erk(problem: SDEProblem, h: float, n_steps: int, path) -> np.ndarray:
    """Trajectory of the method over n_steps of size h along the path.

    ``path`` is a PathGrid resolving every step boundary, or the Wiener
    values at the step boundaries, shaped (n_steps + 1,) or (P, n_steps + 1).
    Returns an array of shape (n_steps + 1, d), or (n_steps + 1, d, P).
    """
    w, x = _driving_values(problem, path, h, n_steps)
    t0 = problem.t0
    out = np.empty((n_steps + 1,) + x.shape)
    out[0] = x
    for k in range(n_steps):
        dw = w[..., k + 1] - w[..., k]
        x = exponential_midpoint_step(problem, t0 + k * h, h, x, dw)
        out[k + 1] = x
    return out


def reference_solution(problem: SDEProblem, T: float, n_fine: int, path) -> np.ndarray:
    """Proxy-exact endpoint state, (d,) or (d, P), along a path given as
    for ``integrate_erk``, by the Heun predictor-corrector, which converges
    to the Stratonovich solution."""
    dt = T / n_fine
    w, x = _driving_values(problem, path, dt, n_fine)
    t0 = problem.t0
    g0, g1 = _fields(problem)

    def drift(a, x, t):
        return a @ x + g0(x, t)

    # the corrector's A(t + dt) is the next step's A(t) whenever the two
    # float times are equal
    t_end, a_end = None, None
    for k in range(n_fine):
        t = t0 + k * dt
        a = a_end if t == t_end else problem.a_derivative(0, t)
        dw = w[..., k + 1] - w[..., k]
        f, g = drift(a, x, t), g1(x, t)
        pred = x + dt * f + dw * g
        t_end = t + dt
        a_end = problem.a_derivative(0, t_end)
        x = x + 0.5 * dt * (f + drift(a_end, pred, t_end)) \
            + 0.5 * dw * (g + g1(pred, t_end))
    return x


def ms_order_estimate(problem: SDEProblem, h_values, n_paths: int, T: float,
                      seed, n_fine: int = 4096) -> ConvergenceReport:
    """Empirical mean-square order: RMS endpoint error over shared Brownian
    paths per step size, and the least-squares slope in log2-log2 scale.

    Path p is seeded (seed, p) as in ``sample_path``.  Implementation is
    batched over paths (state arrays with a trailing path axis); the
    per-path results equal the one-path-at-a-time ones because every
    operator in a step is linear in the batch axis.
    """
    _require_supported(problem)
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"need a finite positive horizon, got T={T}")
    h_values = list(h_values)
    if n_paths < 1 or len(h_values) < 2:
        raise ValueError("a slope needs at least one path and two step sizes")
    if any(h2 >= h1 for h1, h2 in zip(h_values, h_values[1:])):
        raise ValueError("step sizes must be strictly decreasing")
    for h in h_values:
        if not h > 0 or abs(round(T / h) - T / h) > 1e-9 or int(round(T / h)) < 1:
            raise ValueError(f"step {h} does not divide the horizon {T}")
        if n_fine % int(round(T / h)) != 0:
            raise ValueError(f"fine grid does not refine step {h}")
    base = _seed_tuple(seed)
    w = np.empty((n_paths, n_fine + 1))
    _sample_wiener_rows(w, T, [base + (idx, 1) for idx in range(n_paths)])
    x_ref = reference_solution(problem, T, n_fine, w)
    # free the fine grid before the trajectories: keep the points steps land on
    stride = math.gcd(*(n_fine // int(round(T / h)) for h in h_values))
    w = w[:, ::stride].copy()

    rms, stderrs = [], []
    for h in h_values:
        steps = int(round(T / h))
        x = integrate_erk(problem, h, steps, w[:, ::n_fine // steps // stride])[-1]
        err_sq = MCStats.of(np.sum((x - x_ref) ** 2, axis=0))
        rms.append(np.sqrt(err_sq.mean))
        stderrs.append(0.5 * err_sq.stderr / rms[-1] if rms[-1] > 0 else 0.0)
    slope = float(np.polyfit(np.log2(h_values), np.log2(rms), 1)[0])
    return ConvergenceReport(tuple(float(h) for h in h_values),
                             tuple(rms), tuple(stderrs), slope)
