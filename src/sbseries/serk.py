"""Exponential Runge-Kutta methods on semi-linear SDEs: coefficient series
over the linear-part trees, the stage/solution weight recursion, and
per-tree order-condition residuals.

Method coefficients are operator functions of the linear part; each one is
represented by its expansion over the A-trees (trees with no coefficient
nodes), stored as the raw expansion coefficient of each elementary
differential exactly as the operator series reads.  The numerical weights
follow the recursion: on A-trees the stage/solution weights are the
coefficient-series entries; a tree containing coefficient nodes splits
uniquely into an A-tree prefix and a coefficient-rooted remainder, whose
children recurse through the stages.  The split is found by walking down
the A-chain: every A-node keeps its time leaves in the prefix and passes
to its one other child, until a coefficient node roots the remainder.

A residual that is not symbolically zero can still vanish pathwise; the
probe (:func:`residuals_are_pathwise_zero`) decides that on fixed probe
paths, for all rows of a residual table in one pass over the paths.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from fractions import Fraction
from typing import TYPE_CHECKING

from sbseries import expr as ex
from sbseries.expr import WeightExpr, normalize_interpretation, parse_expr
from sbseries.memo import cached, collector_paused
from sbseries.series import BSeries, exact_weight
from sbseries.trees import (
    ALabel,
    DEFAULT_ENUMERATION_CAP,
    EMPTY,
    GLabel,
    HalfInt,
    SemiLinear,
    TLabel,
    T_LEAF,
    Tree,
    TreeError,
    a_node_children,
    enumerate_trees,
    format_tree,
    parse_tree,
    rho,
    rho2,
    tree_key,
)

if TYPE_CHECKING:
    from sbseries.paths import PathGrid


class NoAdmissibleSplit(TreeError):
    """No decomposition with an A-tree prefix and a coefficient-rooted
    remainder exists for a tree that needs one."""


class CapUnsupported(TreeError):
    """An order bound exceeds the cap to which a method's coefficient
    expansions are carried."""


def is_a_tree(tree: Tree) -> bool:
    """Member of the A-tree subset: no coefficient (g) nodes anywhere.
    The empty tree qualifies."""
    if tree.is_empty:
        return True
    if isinstance(tree.label, GLabel):
        return False
    return all(is_a_tree(c) for c in tree.children)


def semilinear_trees(M: int, rho_max: HalfInt,
                     cap: int = DEFAULT_ENUMERATION_CAP) -> list[Tree]:
    """All semi-linear trees up to the order bound (excluding the bare
    time leaf, which is child-only)."""
    return enumerate_trees(SemiLinear(M), rho_max, cap)


# ---------------------------------------------------------------------------
# Method specification
# ---------------------------------------------------------------------------


class ERKMethodSpec:
    """Stage count, abscissae, and coefficient series of one method.

    ``Z0[i]`` propagates the state into stage i, ``Z[m][i][j]`` weights
    ``g_m`` of stage j inside stage i, ``z0`` propagates the state into the
    step output, and ``z[m][i]`` weights ``g_m`` of stage i in the output.
    All are B-series over the A-trees whose values are polynomials in h and
    the increments.  The constructor checks their shapes.
    """

    def __init__(self, name: str, stages: int, c: tuple[Fraction, ...], n_colors: int,
                 cap: HalfInt, Z0: tuple[BSeries, ...],
                 Z: dict[int, tuple[tuple[BSeries, ...], ...]], z0: BSeries,
                 z: dict[int, tuple[BSeries, ...]], interpretation: str = "stratonovich"):
        self.name, self.stages, self.c, self.n_colors, self.cap = name, stages, c, n_colors, cap
        self.Z0, self.Z, self.z0, self.z = Z0, Z, z0, z
        self.interpretation = interpretation
        if not isinstance(self.name, str):
            raise ValueError(f"a method name must be a string, got {self.name!r}")
        n = self.stages
        if n < 1:
            raise ValueError(f"a method needs at least one stage, got {n}")
        normalize_interpretation(self.interpretation)  # kept as spelled, if known
        if self.n_colors < 0:
            raise ValueError(f"a method needs colors >= 0, got {self.n_colors}")
        if len(self.c) != n or len(self.Z0) != n:
            raise ValueError(f"c and Z0 must hold {n} entries each")
        colors = set(range(self.n_colors + 1))
        if set(self.Z) != colors or set(self.z) != colors:
            raise ValueError(f"Z and z must be keyed by the colors 0..{self.n_colors}")
        for m in sorted(colors):
            if len(self.Z[m]) != n or any(len(row) != n for row in self.Z[m]):
                raise ValueError(f"Z[{m}] must be {n} rows of {n} series")
            if len(self.z[m]) != n:
                raise ValueError(f"z[{m}] must hold {n} series")
        for i, series in enumerate(self.Z0):
            if series.empty_weight != ex.ONE:
                raise ValueError(f"Z0[{i}] must have empty weight 1")
        if self.z0.empty_weight != ex.ONE:
            raise ValueError("z0 must have empty weight 1")
        for series in self._all_series():
            for tree in series.weights:
                if not is_a_tree(tree):
                    raise ValueError(f"coefficient key {tree} is not an A-tree")

    def _all_series(self):
        yield from self.Z0
        yield self.z0
        for m in range(self.n_colors + 1):
            for row in self.Z[m]:
                yield from row
            yield from self.z[m]


class OrderResidual(namedtuple("OrderResidual", "tree exact_weight numeric_weight "
                                                 "residual tree_order")):
    """Exact vs numerical weight of one tree, their difference and the
    tree's order."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Stage/solution weight recursion
# ---------------------------------------------------------------------------


def _admissible_split(tau: Tree) -> tuple[Tree, Tree]:
    """The unique (prefix, remainder) split with an A-tree prefix and a
    coefficient-rooted remainder: a g-rooted tree splits as (empty, tau),
    an A-node keeps its time leaves and recurses into its other child."""
    if isinstance(tau.label, GLabel):
        return EMPTY, tau
    if not isinstance(tau.label, ALabel):
        raise NoAdmissibleSplit(f"no A-tree/coefficient split for {tau}")
    times, other = a_node_children(tau.children)
    if other is None:
        raise NoAdmissibleSplit(f"no A-tree/coefficient split for {tau}")
    theta, delta = _admissible_split(other)
    kept = times if theta.is_empty else times + (theta,)
    return Tree(tau.label, tuple(sorted(kept, key=tree_key))), delta


class _WeightComputer:
    """Memoized stage and solution weights of one method."""

    def __init__(self, method: ERKMethodSpec):
        self.method = method
        self.memo: dict[tuple[int | None, Tree], WeightExpr] = {}

    def weight(self, i: int | None, tau: Tree) -> WeightExpr:
        """Stage-i weight of tau, or its solution weight when i is None."""
        key = (i, tau)
        if key not in self.memo:
            self.memo[key] = self._weight(i, tau)
        return self.memo[key]

    def _weight(self, i: int | None, tau: Tree) -> WeightExpr:
        m = self.method
        if isinstance(tau.label, TLabel) and tau.is_leaf:
            return ex.H if i is None else ex.H.scaled(m.c[i])
        if is_a_tree(tau):
            return self._coefficient(m.z0 if i is None else m.Z0[i], tau)
        # sum over stages j of the row's coefficient at theta times the
        # stage-j weights of delta's children; once a factor is zero the
        # later children's weights are not computed
        theta, delta = _admissible_split(tau)
        row = m.z[delta.label.m] if i is None else m.Z[delta.label.m][i]
        acc: dict[ex.Mono, tuple[int, int]] = {}
        for j in range(m.stages):
            factors = [self._coefficient(row[j], theta)]
            for child in delta.children:
                if factors[-1].is_zero:
                    break
                factors.append(self.weight(j, child))
            ex.accumulate(acc, factors)
        return ex.from_acc(acc)

    def _coefficient(self, series: BSeries, tau: Tree) -> WeightExpr:
        """A coefficient series' entry at tau.  Above the series' cap the
        truncated series holds no entry, and reading 0 there would describe
        the truncation, not the method."""
        if not tau.is_empty and rho2(tau) > series.order_cap.twice:
            raise CapUnsupported(f"coefficient at {tau} (order {rho(tau)}) exceeds the "
                                 f"cap {series.order_cap} of method {self.method.name!r}")
        return series.weight(tau)


def _require_within_cap(method: ERKMethodSpec, rho_max: HalfInt) -> None:
    if rho_max > method.cap:
        raise CapUnsupported(f"order {rho_max} exceeds the cap {method.cap} "
                             f"of method {method.name!r}")


def erk_weight_at(method: ERKMethodSpec, tau: Tree) -> WeightExpr:
    """Solution weight of a single tree (point query; no enumeration)."""
    return _WeightComputer(method).weight(None, tau)


def erk_weights(method: ERKMethodSpec, rho_max: HalfInt) -> tuple[BSeries, list[BSeries]]:
    """Solution and stage weight series over all trees up to the bound.

    Both carry the adjoined time-leaf key (solution h, stage c_i h).
    Raises :class:`CapUnsupported` beyond the method's coefficient cap.
    """
    _require_within_cap(method, rho_max)
    comp = _WeightComputer(method)
    model = SemiLinear(method.n_colors)
    solution_weights: dict[Tree, WeightExpr] = {T_LEAF: ex.H}
    stage_weights: list[dict[Tree, WeightExpr]] = [
        {T_LEAF: ex.H.scaled(method.c[i])} for i in range(method.stages)]
    targets = [(None, solution_weights)] + list(enumerate(stage_weights))
    for tau in semilinear_trees(method.n_colors, rho_max):
        for i, weights in targets:
            w = comp.weight(i, tau)
            if not w.is_zero:
                weights[tau] = w
    solution = BSeries(model, rho_max, solution_weights, ex.ONE)
    stages = [BSeries(model, rho_max, sw, ex.ONE) for sw in stage_weights]
    return solution, stages


def _residual(comp: _WeightComputer, tau: Tree) -> OrderResidual:
    exact, numeric = exact_weight(tau), comp.weight(None, tau)
    return OrderResidual(tau, exact, numeric, exact - numeric, rho(tau))


def residual_at(method: ERKMethodSpec, tau: Tree) -> OrderResidual:
    return _residual(_WeightComputer(method), tau)


@collector_paused()
def order_residuals(method: ERKMethodSpec, rho_max: HalfInt) -> list[OrderResidual]:
    """Exact-minus-numerical weights for every tree up to the bound,
    in (order, canonical) order, with the cyclic collector paused.  Raises
    :class:`CapUnsupported` beyond the method's coefficient cap."""
    _require_within_cap(method, rho_max)
    comp = _WeightComputer(method)
    return [_residual(comp, tau)
            for tau in semilinear_trees(method.n_colors, rho_max)]


# ---------------------------------------------------------------------------
# Operator expansions and the built-in midpoint rule
# ---------------------------------------------------------------------------


def exp_integral_series(lo: Fraction, hi: Fraction, order: int) -> dict[Tree, WeightExpr]:
    """A-tree weights of exp of the integral of the linear part over
    [lo*h, hi*h], expanded to total order ``order`` in h.

    The integral of the Taylor expansion is the letter sum X = sum_k c_k a_k
    with c_k = (hi^{k+1} - lo^{k+1}) / (k+1)!, letter a_k (the k-th time
    derivative of the linear part) carrying h^{k+1}.  In exp(X) = sum_n X^n / n!
    a word a_{k_1} ... a_{k_n} occurs only in X^n, with the coefficient
    c_{k_1} ... c_{k_n} / n! and the order sum_i (k_i + 1).  Words map to
    A-tree chains: the innermost letter acts on the state first, a letter
    with k time arguments is an A-node with k time-leaf children, which come
    before the node's other child in canonical order.  Distinct words give
    distinct chains, so every chain is stored once.
    """
    letters = [Fraction(hi ** (k + 1) - lo ** (k + 1), 1) / math.factorial(k + 1)
               for k in range(order)]
    weights: dict[Tree, WeightExpr] = {}
    _add_chains(weights, letters, None, 0, 1, 1, 0)
    return weights


def _add_chains(weights: dict[Tree, WeightExpr], letters: list[Fraction], inner: Tree | None,
                length: int, num: int, den: int, used: int) -> None:
    # prepend one letter as the new root of the chain below it; the product
    # of the letters so far is num/den.  A module-level function: a nested
    # recursive one would be a reference cycle.
    for k, c in enumerate(letters[:len(letters) - used]):
        chain = Tree(ALabel(), (T_LEAF,) * k + ((inner,) if inner is not None else ()))
        n, d = num * c.numerator, den * c.denominator
        weights[chain] = ex.h_power(used + k + 1,
                                    Fraction(n, d * math.factorial(length + 1)))
        _add_chains(weights, letters, chain, length + 1, n, d, used + k + 1)


def builtin_exponential_midpoint() -> ERKMethodSpec:
    """The one-stage exponential midpoint rule with abscissa one half;
    coefficient expansions carried to total order three in h, hence the
    order cap of 7/2."""
    cap = HalfInt(7)
    model = SemiLinear(1)
    order = 3
    front = exp_integral_series(Fraction(0), Fraction(1, 2), order)   # into the stage
    back = exp_integral_series(Fraction(1, 2), Fraction(1), order - 1)  # stage to output
    full = exp_integral_series(Fraction(0), Fraction(1), order)       # whole step
    z1_0 = {t: w * ex.H for t, w in back.items()}
    z1_1 = {t: w * ex.dw(1) for t, w in back.items()}
    return ERKMethodSpec(
        name="exponential-midpoint",
        stages=1,
        c=(Fraction(1, 2),),
        n_colors=1,
        cap=cap,
        Z0=(BSeries(model, cap, front),),
        Z={0: ((BSeries(model, cap, {}, ex.H.scaled(Fraction(1, 2))),),),
           1: ((BSeries(model, cap, {}, ex.dw(1).scaled(Fraction(1, 2))),),)},
        z0=BSeries(model, cap, full),
        z={0: (BSeries(model, cap, z1_0, ex.H),),
           1: (BSeries(model, cap, z1_1, ex.dw(1)),)},
    )


# ---------------------------------------------------------------------------
# JSON method-spec files
# ---------------------------------------------------------------------------


def _series_to_json(series: BSeries) -> dict:
    out = {"empty": str(series.empty_weight)}
    out["trees"] = {format_tree(t): str(w) for t, w in
                    sorted(series.weights.items(), key=lambda tw: tree_key(tw[0]))}
    return out


def _series_from_json(data: dict, model, cap) -> BSeries:
    weights = {parse_tree(ts, model): parse_expr(ws)
               for ts, ws in data.get("trees", {}).items()}
    return BSeries(model, cap, weights, parse_expr(data.get("empty", "0")))


def method_to_json(method: ERKMethodSpec) -> str:
    payload = {
        "name": method.name,
        "stages": method.stages,
        "c": [str(ci) for ci in method.c],
        "colors": method.n_colors,
        "cap": str(method.cap),
        "interpretation": method.interpretation,
        "Z0": [_series_to_json(s) for s in method.Z0],
        "Z": {str(m): [[_series_to_json(s) for s in row] for row in method.Z[m]]
              for m in range(method.n_colors + 1)},
        "z0": _series_to_json(method.z0),
        "z": {str(m): [_series_to_json(s) for s in method.z[m]]
              for m in range(method.n_colors + 1)},
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _int_field(value, what: str) -> int:
    """``int(value)``; a value that is not an integer raises ValueError
    naming ``what``, the place in the method file it was read from."""
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"malformed method file: {what} is not an integer: {value!r}") from None


def method_from_json(text: str) -> ERKMethodSpec:
    """The method of a JSON document; a document of the wrong shape, with
    a required field missing or with an integer field or color key that is
    not an integer raises ValueError naming the field.  The number of color
    keys of ``Z`` and ``z`` is checked against ``colors`` before any series
    is read."""
    data = json.loads(text)
    try:
        cap = HalfInt.parse(data["cap"])
        colors = _int_field(data["colors"], "field 'colors'")
        # before any series is read: its trees intern a label per color
        if len(data["Z"]) != colors + 1 or len(data["z"]) != colors + 1:
            raise ValueError(f"Z and z must be keyed by the colors 0..{colors}")
        model = SemiLinear(colors)
        return ERKMethodSpec(
            name=data.get("name", "unnamed"),
            stages=_int_field(data["stages"], "field 'stages'"),
            c=tuple(Fraction(ci) for ci in data["c"]),
            n_colors=colors,
            cap=cap,
            Z0=tuple(_series_from_json(s, model, cap) for s in data["Z0"]),
            Z={_int_field(m, "a color key of field 'Z'"):
               tuple(tuple(_series_from_json(s, model, cap) for s in row) for row in rows)
               for m, rows in data["Z"].items()},
            z0=_series_from_json(data["z0"], model, cap),
            z={_int_field(m, "a color key of field 'z'"):
               tuple(_series_from_json(s, model, cap) for s in row)
               for m, row in data["z"].items()},
            interpretation=data.get("interpretation", "stratonovich"),
        )
    except KeyError as err:
        raise ValueError(f"malformed method file: missing field {err}") from err
    except (TypeError, AttributeError, ZeroDivisionError) as err:
        raise ValueError(f"malformed method file: {err}") from err


def resolve_method(spec: str) -> ERKMethodSpec:
    """CLI helper: ``builtin:midpoint`` / ``midpoint`` or a JSON file path."""
    if spec in ("builtin:midpoint", "midpoint"):
        return builtin_exponential_midpoint()
    with open(spec, "r", encoding="utf-8") as fh:
        return method_from_json(fh.read())


_PROBE_PATHS = 8
_PROBE_SEED = 2026
_PROBE_H = 0.5
_PROBE_STEPS = 64
_PROBE_TOL = 1e-10


@cached
def _probe_paths(n_colors: int) -> tuple[PathGrid, ...]:
    """The fixed probe paths with ``n_colors`` drivers, drawn once per
    process; their arrays are read-only, as every probe shares them."""
    from sbseries.paths import sample_path

    paths = tuple(sample_path(_PROBE_H, _PROBE_STEPS, n_colors, (_PROBE_SEED, k))
                  for k in range(_PROBE_PATHS))
    for path in paths:
        path.values.flags.writeable = False
    return paths


def residuals_are_pathwise_zero(residuals, interp: str = "stratonovich") -> list[bool]:
    """Certify, for each residual, that it vanishes as a random variable
    under the given interpretation by evaluating it on a fixed set of probe
    paths: True where no probe value exceeds the tolerance in magnitude.

    Symbolically distinct weights can agree pathwise (the quadrature rules
    reproduce the relevant calculus identities exactly on any grid), so a
    zero certificate here is machine-precision, not statistical: genuinely
    nonzero residuals of the orders treated here sit many orders of
    magnitude above the tolerance at h = 1/2.

    A symbolic zero is certified as it is.  The others are read on the
    probe paths with as many drivers as their highest color (at least one),
    one group per driver count: path by path, the residuals of a group not
    yet decided are evaluated in one :func:`sbseries.paths.eval_weights`
    workspace, and those whose value exceeds the tolerance drop out, until
    none are left or every path has been read.
    """
    from sbseries.paths import eval_weights

    out = [r.is_zero for r in residuals]
    groups: dict[int, list[int]] = {}  # driver count -> residual indices
    for k, r in enumerate(residuals):
        if not out[k]:
            groups.setdefault(max(r.colors() | {1}), []).append(k)
    for colors, undecided in groups.items():
        for path in _probe_paths(colors):
            values = eval_weights([residuals[k] for k in undecided], path, interp)
            undecided = [k for k, v in zip(undecided, values) if not abs(v) > _PROBE_TOL]
            if not undecided:
                break
        for k in undecided:
            out[k] = True
    return out


def residual_is_pathwise_zero(residual: WeightExpr, interp: str = "stratonovich") -> bool:
    """:func:`residuals_are_pathwise_zero` of one residual."""
    return residuals_are_pathwise_zero([residual], interp)[0]
