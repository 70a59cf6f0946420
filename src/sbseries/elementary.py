"""Numerical evaluation of elementary differentials and truncated B-series
for concrete SDE problems.

Problems come in two flavors sharing one class:

* partitioned -- coefficient functions indexed by (partition, variant,
  color) acting on the tuple of state blocks; used with the general tree
  family.
* semi-linear -- a linear part ``A(t)`` plus coefficient functions
  ``g_m(x, t)``; the state is the x-block with time as a second block of
  length one; used with the semi-linear tree family.

Only a semi-linear problem has a time block, so only there does the time
leaf evaluate (to the block's one entry, 1).  No problem has blocks for the
Wiener leaves ``W1 .. Wl`` of the non-autonomous family: like a label with
no coefficient, they raise ModelMismatch.

Bracket nodes and A-nodes differentiate their coefficient, ``g_m(x, t)``
or ``A(t)``, through one ``derivative`` function, ``fn, x, directions ->
array``.  Its default, :func:`sbseries.jets.derivative`, passes truncated
Taylor jets through the coefficient functions as they are written: exact
up to rounding, at any order.  The parameter is a seam for the tests,
which pass a central-difference oracle in its place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from sbseries import jets
from sbseries import trees as T
from sbseries.expr import normalize_interpretation
from sbseries.paths import PathGrid, eval_weights
from sbseries.series import BSeries
from sbseries.trees import (
    ALabel,
    EmptyLabel,
    GeneralLabel,
    GLabel,
    ModelMismatch,
    SemiLinear,
    TLabel,
    Tree,
    TreeModel,
    a_node_children,
    alpha,
)


@dataclass
class SDEProblem:
    """A concrete SDE test problem.

    ``dims`` are the per-partition state dimensions and ``x0`` the flat
    initial state (blocks concatenated in partition order; for the
    semi-linear flavor the last block is the initial time).
    """

    name: str
    model: TreeModel
    dims: tuple[int, ...]
    x0: np.ndarray
    interpretation: str = "stratonovich"
    # partitioned flavor
    coeffs: dict = field(default_factory=dict)
    # semi-linear flavor
    A: Callable | None = None
    g: dict = field(default_factory=dict)
    # eval_bseries's differentials at the last state it saw: (the state's
    # bytes and the coefficients, a private copy of the state, tree ->
    # differential)
    _differentials: tuple = field(default=(None, None, None), init=False,
                                  repr=False, compare=False)

    def __post_init__(self):
        normalize_interpretation(self.interpretation)  # kept as spelled, if known
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.x0.shape != (sum(self.dims),):
            raise ValueError("x0 must be the flat concatenation of the blocks")

    @property
    def is_semilinear(self) -> bool:
        return isinstance(self.model, SemiLinear)

    @property
    def dim(self) -> int:
        """Dimension of the x-block of a semi-linear problem."""
        return self.dims[0]

    @property
    def t0(self) -> float:
        if not self.is_semilinear:
            raise ValueError("t0 is defined for semi-linear problems")
        return float(self.x0[-1])

    @property
    def x0_state(self) -> np.ndarray:
        """x-block of the initial state of a semi-linear problem."""
        return self.x0[:self.dim]

    def blocks(self, x: np.ndarray) -> list[np.ndarray]:
        out, off = [], 0
        for d in self.dims:
            out.append(x[off:off + d])
            off += d
        return out

    def block_offset(self, q: int) -> int:
        return sum(self.dims[:q - 1])

    def coefficient(self, q: int, v: int, m: int) -> Callable:
        """Coefficient as a function of the flat state, an array or a jet."""
        if self.is_semilinear:
            if (q, v) != (1, 1) or m not in self.g:
                raise ModelMismatch(f"no coefficient ({q},{v},{m}) on {self.name}")
            gm = self.g[m]
            return lambda x: gm(x[:self.dim], x[self.dim])
        fn = self.coeffs.get((q, v, m))
        if fn is None:
            raise ModelMismatch(f"no coefficient ({q},{v},{m}) on {self.name}")
        return lambda x: fn(*self.blocks(x))

    def a_derivative(self, k: int, t: float,
                     derivative: Callable = jets.derivative) -> np.ndarray:
        """k-th time derivative of A at t (0 = A itself), taken by
        ``derivative``."""
        if self.A is None:
            raise ModelMismatch(f"{self.name} has no linear part")
        if k == 0:
            return np.asarray(self.A(t), dtype=float)
        return derivative(lambda s: self.A(s[0]), np.array([t], dtype=float),
                          [np.ones(1)] * k)


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------


def _directional_derivative(problem: SDEProblem, q: int, v: int, m: int,
                            x: np.ndarray, directions,
                            derivative: Callable = jets.derivative) -> np.ndarray:
    """Mixed derivative of the (q, v, m) coefficient along the given
    (partition, vector) directions, taken by ``derivative`` (the
    coefficient's value for none)."""
    fn = problem.coefficient(q, v, m)
    if not directions:
        return np.asarray(fn(x), dtype=float)
    flat_dirs = []
    for part, vec in directions:
        u = np.zeros_like(problem.x0)
        off = problem.block_offset(part)
        vec = np.asarray(vec, dtype=float)
        u[off:off + vec.size] = vec
        flat_dirs.append(u)
    return derivative(fn, x, flat_dirs)


# ---------------------------------------------------------------------------
# Elementary differentials
# ---------------------------------------------------------------------------


def value_partition(label) -> int:
    """Partition of the space a node's elementary differential lives in: the
    label's own, except that the time leaf's value is the time block, the
    second block of a semi-linear problem (the only problems it evaluates
    on)."""
    return 2 if isinstance(label, TLabel) else label.partition


def eval_elementary(problem: SDEProblem, tau: Tree, x: np.ndarray | None = None,
                    derivative: Callable = jets.derivative) -> np.ndarray:
    """The elementary differential of ``tau`` at the flat state ``x``;
    bracket nodes and A-nodes differentiate their coefficient by
    ``derivative``."""
    if x is None:
        x = problem.x0
    return _elementary(problem, tau, np.asarray(x, dtype=float), derivative, {})


def _elementary(problem: SDEProblem, tau: Tree, x: np.ndarray, derivative: Callable,
                memo: dict) -> np.ndarray:
    """``eval_elementary`` with ``memo`` holding the differentials already
    evaluated at ``x`` in this call, one per distinct subtree."""
    value = memo.get(tau)
    if value is None:
        value = memo[tau] = _elementary_node(problem, tau, x, derivative, memo)
    return value


def _elementary_node(problem: SDEProblem, tau: Tree, x: np.ndarray,
                     derivative: Callable, memo: dict) -> np.ndarray:
    label = tau.label
    if isinstance(label, EmptyLabel):
        return problem.blocks(x)[label.q - 1]
    if isinstance(label, TLabel) and problem.is_semilinear:
        return np.ones(1)
    if isinstance(label, ALabel):
        if not problem.is_semilinear:
            raise ModelMismatch(f"{problem.name} has no linear part")
        t = float(x[problem.dim])
        times, other = a_node_children(tau.children)
        if other is None:
            target = x[:problem.dim]
        else:
            target = _elementary(problem, other, x, derivative, memo)
        return problem.a_derivative(len(times), t, derivative) @ target
    if isinstance(label, GLabel):
        q, v, m = 1, 1, label.m
    elif isinstance(label, GeneralLabel):
        if problem.is_semilinear:
            raise ModelMismatch(f"{problem.name} is semi-linear")
        q, v, m = label.q, label.v, label.m
    else:
        raise ModelMismatch(f"cannot evaluate {label!r}")
    directions = [(value_partition(c.label),
                   _elementary(problem, c, x, derivative, memo))
                  for c in tau.children]
    return _directional_derivative(problem, q, v, m, x, directions, derivative)


def eval_bseries(problem: SDEProblem, series: BSeries, x: np.ndarray,
                 h: float, path: PathGrid) -> np.ndarray:
    """Evaluate the truncated series at state ``x`` over one step of size
    ``h``, reading the weight randomness from ``path`` (which must span at
    least [0, h] on its grid) in the problem's interpretation.

    The elementary differentials depend on neither the path nor ``h``, so
    the problem keeps those of the last state it was evaluated at, keyed by
    the state's bytes and the coefficient functions and computed from a
    private copy of the state: a call at the same state reuses them, the
    caller may change its array in place afterwards, and a reassigned
    ``A``, ``g`` or ``coeffs`` entry is seen.  A kept differential has the
    bits it would have if it were computed again, so the result does not
    depend on what was kept."""
    interp = problem.interpretation
    step_path = path.restrict(h)
    x = np.asarray(x, dtype=float)
    key = (x.tobytes(), problem.A, *problem.g.items(), *problem.coeffs.items())
    if problem._differentials[0] != key:
        problem._differentials = (key, x.copy(), {})
    _, state, memo = problem._differentials
    trees = series.trees()
    # one workspace for every weight; a zero weight evaluates to 0.0
    weights = eval_weights([series.empty_weight] + [series.weight(t) for t in trees],
                           step_path, interp)
    out = weights[0] * x
    for tree, weight in zip(trees, weights[1:]):
        scale = float(alpha(tree)) * weight
        if scale == 0.0:
            continue
        part = value_partition(tree.label)
        off = problem.block_offset(part)
        value = _elementary(problem, tree, state, jets.derivative, memo)
        out[off:off + value.size] += scale * value
    return out


# ---------------------------------------------------------------------------
# Built-in problems
# ---------------------------------------------------------------------------


def _langevin_alpha(t):
    return 1.0 + 0.25 * t * t


def _semilinear(name: str, x0: list, t0: float, A: Callable, g: list) -> SDEProblem:
    """The semi-linear problem dx = (A(t) x + g[0](x, t)) dt + sum_m g[m](x, t) dW_m,
    m = 1..len(g) - 1, started from ``x0`` at time ``t0``."""
    return SDEProblem(name, SemiLinear(len(g) - 1), (len(x0), 1), np.array(x0 + [t0]),
                      A=A, g=dict(enumerate(g)))


def _make_langevin_partitioned(name: str, v_dependent: bool) -> SDEProblem:
    def noise_velocity_factor(v):
        return 1.0 + 0.125 * v * v if v_dependent else 1.0

    coeffs = {
        (1, 1, 0): lambda x1, x2: np.array([0.0, -np.sin(x1[0]) * (1.0 + x2[0])]),
        (1, 2, 0): lambda x1, x2: np.array([x1[1], -_langevin_alpha(x2[0]) * x1[1]]),
        (1, 1, 1): lambda x1, x2: np.array(
            [0.0, 0.2 * np.cos(x1[0]) * noise_velocity_factor(x1[1])
             * (1.0 + 0.5 * x2[0])]),
        (2, 1, 0): lambda x1, x2: np.array([1.0]),
    }
    return SDEProblem(name, T.langevin_model(), (2, 1), np.array([0.5, 0.3, 0.4]),
                      coeffs=coeffs)


def _make_langevin_semilinear() -> SDEProblem:
    def A(t):
        return np.array([[0.0, 1.0], [0.0, -_langevin_alpha(t)]])

    # the position row of both coefficients is zero: fill the velocity row
    # of a zero array (np.zeros_like on a numpy scalar costs most of a call)
    # of the input's dtype, so that it can hold jets
    def velocity_row(r, value):
        out = np.zeros((2,) + np.shape(r), dtype=np.asarray(r).dtype)
        out[1] = value
        return out

    def g0(x, t):
        return velocity_row(x[0], -np.sin(x[0]) * (1.0 + t))

    def g1(x, t):
        return velocity_row(x[0], 0.2 * np.cos(x[0]) * (1.0 + 0.5 * t))

    return _semilinear("langevin", [0.5, 0.3], 0.4, A, [g0, g1])


def _make_noncommutative() -> SDEProblem:
    def A(t):
        return np.array([[0.0, 1.0 + 0.5 * t],
                         [-1.0 + 0.125 * t * t, -0.5 - 0.25 * t]])

    def g0(x, t):
        return np.array([0.3 * np.sin(x[1]),
                         0.2 * np.cos(x[0]) * (1.0 + 0.25 * t)])

    def g1(x, t):
        return np.array([0.15 * np.cos(x[0]),
                         0.1 * np.sin(x[0] + x[1]) * (1.0 + 0.125 * t)])

    return _semilinear("noncomm-2x2", [0.6, 0.4], 0.0, A, [g0, g1])


def _make_scalar_semilinear() -> SDEProblem:
    A = lambda t: np.array([[-0.5 - 0.25 * t]])

    def g0(x, t):
        return 0.4 * np.sin(x) * (1.0 + t / 3.0)

    def g1(x, t):
        return 0.25 * np.cos(x) * (1.0 + 0.2 * t)

    return _semilinear("scalar-semilinear", [0.8], 0.0, A, [g0, g1])


_REGISTRY: dict[str, Callable[[], SDEProblem]] = {
    "langevin": _make_langevin_semilinear,
    "langevin-partitioned": lambda: _make_langevin_partitioned(
        "langevin-partitioned", v_dependent=False),
    "langevin-vdep": lambda: _make_langevin_partitioned(
        "langevin-vdep", v_dependent=True),
    "noncomm-2x2": _make_noncommutative,
    "scalar-semilinear": _make_scalar_semilinear,
}


def problem_names() -> list[str]:
    return sorted(_REGISTRY)


def get_problem(name: str) -> SDEProblem:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown problem {name!r}; known: {problem_names()}")
    return factory()
