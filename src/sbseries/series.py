"""B-series as tree-indexed weight maps, and the operations on them:
exact-solution weights, composition, the derivative product, and the
function-of-a-series expansion.

Composition and the derivative product are one decomposition sum over
different pair sets (all subtree/remainder pairs, or the single-remainder
ones).  The sum reads each operand weight once per call, in the folded form
(numerator, denominator, monomial) of :func:`sbseries.expr.fold`, so a row
whose factors all have one term, as every exact-series weight has,
multiplies on ints.  The function expansion walks the same multisets of
trees as :func:`sbseries.trees.enumerate_trees`.

A B-series here is the data (model, order cap, weight map); the series it
denotes is the sum over trees of alpha(tree) * weight(tree) * elementary
differential.  The combinatorial alpha is never folded into the stored
weights.  Missing keys mean weight zero.  For the vertically split models
the child-only time/Wiener leaves carry weights too (they are needed as
remainder lookups in the composition sums); they are stored under their
leaf keys but are not members of the enumerated tree families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from sbseries import expr as ex
from sbseries.expr import WeightExpr
from sbseries.forest_ops import _st_table
from sbseries.memo import cached, collector_paused
from sbseries.trees import (
    FLabel,
    HalfInt,
    ModelMismatch,
    Tree,
    TreeError,
    TreeModel,
    _weighted_multisets,
    enumerate_trees,
    rho2,
    tree_key,
)


class EmptyWeightNotOne(TreeError):
    """An operation requires the empty-tree weight to be identically 1."""


class EmptyWeightNotZero(TreeError):
    """An operation requires the empty-tree weight to be identically 0."""


@dataclass
class BSeries:
    """Finite tree-indexed weight map, truncated at ``order_cap``.

    Treat instances as immutable after construction; they are shared
    freely and hashed weights are cached on the trees.
    """

    model: TreeModel
    order_cap: HalfInt
    weights: dict[Tree, WeightExpr] = field(default_factory=dict)
    empty_weight: WeightExpr = ex.ONE

    def weight(self, tree: Tree) -> WeightExpr:
        if tree.is_empty:
            return self.empty_weight
        return self.weights.get(tree, ex.ZERO)

    def trees(self) -> list[Tree]:
        return sorted(self.weights, key=tree_key)


def identity_weights(model: TreeModel, order_cap: HalfInt) -> BSeries:
    """Weights of the identity map: 1 at the empty tree, 0 elsewhere."""
    return BSeries(model, order_cap, {}, ex.ONE)


# ---------------------------------------------------------------------------
# Exact solution weights
# ---------------------------------------------------------------------------


@cached
def exact_weight(tree: Tree) -> WeightExpr:
    """Weight of a single tree in the exact-flow expansion: leaves map to
    the driver value over the step, brackets to the integral of the product
    of their children's weights against the root's driver."""
    if tree.is_empty:
        return ex.ONE
    color = tree.label.color
    if tree.is_leaf:
        return ex.H if color == 0 else ex.dw(color)
    return ex.integral(color, [exact_weight(c) for c in tree.children])


def exact_solution_series(model: TreeModel, order_cap: HalfInt) -> BSeries:
    """Exact-flow weights for every model tree up to the cap, plus the
    adjoined time/Wiener leaf keys of the vertical models."""
    weights: dict[Tree, WeightExpr] = {}
    for tree in enumerate_trees(model, order_cap):
        weights[tree] = exact_weight(tree)
    for leaf_tree in model.adjoined_leaves():
        weights[leaf_tree] = exact_weight(leaf_tree)
    return BSeries(model, order_cap, weights, ex.ONE)


# ---------------------------------------------------------------------------
# Composition and derivative product
# ---------------------------------------------------------------------------


def _require_same_model(a: BSeries, b: BSeries) -> None:
    if a.model != b.model:
        raise ModelMismatch(f"{a.model} vs {b.model}")


def _series_domain(a: BSeries, b: BSeries, cap: HalfInt) -> list[Tree]:
    """All model trees up to the cap (the operands may be sparse), the
    adjoined leaf keys, and any stored keys within the cap."""
    domain = set(enumerate_trees(a.model, cap))
    domain.update(a.model.adjoined_leaves())
    domain.update(t for t in a.weights if rho2(t) <= cap.twice)
    domain.update(t for t in b.weights if rho2(t) <= cap.twice)
    return sorted(domain, key=tree_key)


def compose(phi_x: BSeries, phi_y: BSeries) -> BSeries:
    """Weights of the series of ``phi_y`` evaluated along the map of
    ``phi_x``: for every tree, sum over decompositions (theta, omega) of
    gamma * phi_y(theta) * product of phi_x over omega.

    Requires phi_x(empty) = 1.  The output cap is the smaller of the two.
    """
    _require_same_model(phi_x, phi_y)
    if phi_x.empty_weight != ex.ONE:
        raise EmptyWeightNotOne("composition requires phi_x(empty) = 1")
    return _decomposition_sum(phi_x, phi_y, _st_table, phi_y.empty_weight)


def derivative_product(phi_x: BSeries, phi_y: BSeries) -> BSeries:
    """Weights of the derivative of the ``phi_y`` series applied to the
    ``phi_x`` series: sum over single-remainder decompositions of
    gamma * phi_y(theta) * phi_x(delta).  Requires phi_x(empty) = 0;
    the result's empty weight is 0."""
    _require_same_model(phi_x, phi_y)
    if not phi_x.empty_weight.is_zero:
        raise EmptyWeightNotZero("derivative product requires phi_x(empty) = 0")
    return _decomposition_sum(phi_x, phi_y,
                              lambda tau: [r for r in _st_table(tau) if len(r[1]) == 1],
                              ex.ZERO)


class _Folds(dict):
    """The weights of one series by tree, each read and folded once
    (:func:`sbseries.expr.fold`: None for a zero or several-term weight)."""

    def __init__(self, series: BSeries):
        self.weight = series.weight

    def __missing__(self, tree: Tree):
        return self.setdefault(tree, ex.fold(self.weight(tree)))


@collector_paused()
def _decomposition_sum(phi_x: BSeries, phi_y: BSeries,
                       pairs: Callable[[Tree], Iterable[tuple[Tree, tuple[Tree, ...], int]]],
                       empty_weight: WeightExpr) -> BSeries:
    """For every tree up to the smaller cap, the sum over the rows
    (theta, omega, gamma) of ``pairs(tree)`` of gamma * phi_y(theta) *
    product of phi_x over omega; runs with the cyclic collector paused.

    Each operand's weights are read and folded once per call (once in all
    when ``phi_x is phi_y``), and a row whose factors all have one term
    multiplies as ints through :func:`sbseries.expr.add_folded`; a row with
    a zero or several-term factor goes through :func:`sbseries.expr.accumulate`."""
    cap = min(phi_x.order_cap, phi_y.order_cap)
    xs = _Folds(phi_x)
    ys = xs if phi_y is phi_x else _Folds(phi_y)
    out: dict[Tree, WeightExpr] = {}
    for tree in _series_domain(phi_x, phi_y, cap):
        acc: dict[ex.Mono, tuple[int, int]] = {}
        for theta, omega, g in pairs(tree):
            folds = [ys[theta], *map(xs.__getitem__, omega)]
            if None not in folds:
                ex.add_folded(acc, folds, g)
            else:
                ex.accumulate(acc, [phi_y.weight(theta), *map(phi_x.weight, omega)], g)
        total = ex.from_acc(acc)
        if not total.is_zero:
            out[tree] = total
    return BSeries(phi_x.model, cap, out, empty_weight)


# ---------------------------------------------------------------------------
# Function of a B-series
# ---------------------------------------------------------------------------


def function_series(phi: BSeries, order_cap: HalfInt) -> BSeries:
    """Expansion trees of a smooth function evaluated along the series.

    Keys are f-rooted trees [tau_1, .., tau_k]_f over the model's family
    (the bare f-root is the constant term).  The stored weight of a key is
    the product of phi over its children; the combinatorial coefficient
    beta is exactly :func:`sbseries.trees.alpha` extended to the f-root,
    so callers pair ``alpha(u) * series.weight(u)`` as usual.  The grading
    of an f-rooted tree is the sum of its children's orders.
    """
    if phi.empty_weight != ex.ONE:
        raise EmptyWeightNotOne("function expansion requires phi(empty) = 1")
    pool = sorted((t for t in phi.weights if rho2(t) <= order_cap.twice),
                  key=tree_key)
    weights: dict[Tree, WeightExpr] = {}
    for budget in range(order_cap.twice + 1):
        for children in _weighted_multisets(pool, budget):
            acc: dict[ex.Mono, tuple[int, int]] = {}
            ex.accumulate(acc, [phi.weight(child) for child in children])
            value = ex.from_acc(acc)
            if not value.is_zero:
                weights[Tree(FLabel(), children)] = value
    return BSeries(phi.model, order_cap, weights, ex.ZERO)
