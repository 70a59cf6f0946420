"""Subtree/remainder decompositions of rooted trees and the multiplicity
coefficient gamma that weights them in the composition law.

A decomposition of tau is a pair (theta, omega): theta is a rooted prefix
of tau (possibly the empty tree) and omega is the multiset of the maximal
subtrees cut away.  Equivalently, mark every node of tau "kept" or "cut"
such that kept nodes form a rooted prefix; omega collects the subtrees
rooted at the topmost cut nodes.  gamma(tau, theta, omega) is the number
of distinct markings producing (theta, omega) when equal children of a
node are distinguished by position.

Remainder storage convention: omega holds the cut subtrees only.  For a
single node the full-retention pair is stored as (node, {empty}) exactly
as the base case of the recursion is written; for bracket trees full
retention has an empty remainder.  The empty-tree entries carry no weight
in any downstream sum (composition multiplies by phi(empty) = 1, the
derivative product by phi(empty) = 0).

The table of each tree is built once and cached.  Composition and the
derivative product only sum over it, so its rows are in no particular
order; :func:`subtree_pairs` presents them sorted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from sbseries.memo import cached
from sbseries.trees import (
    Tree,
    TreeError,
    empty_tree,
    tree_key,
)


class PairNotInST(TreeError):
    """The supplied pair is not a decomposition of the given tree."""


@dataclass(frozen=True)
class SubtreePair:
    """One decomposition (theta, omega) with its multiplicity gamma.

    ``remainder`` is a canonically sorted tuple (a multiset); it contains
    an empty tree only in the single-node base case.
    """

    subtree: Tree
    remainder: tuple[Tree, ...]
    coefficient: Fraction


@cached
def _st_table(tau: Tree) -> tuple[tuple[Tree, tuple[Tree, ...], int], ...]:
    """All (theta, omega, gamma) for tau, gamma accumulated over markings.

    The rows are in no particular order, since every caller sums over them
    (:func:`subtree_pairs` sorts them for display); each omega is sorted by
    :func:`tree_key`, so a product over omega multiplies in a fixed order."""
    if tau.is_empty:
        return ((tau, (tau,), 1),)
    root_empty = empty_tree(tau.label.partition)
    if tau.is_leaf:
        return ((root_empty, (tau,), 1), (tau, (root_empty,), 1))
    acc: dict[tuple[Tree, tuple[Tree, ...]], int] = {(root_empty, (tau,)): 1}
    for choice in product(*[_st_table(c) for c in tau.children]):
        kept, omega, g = [], [], 1
        for th, om, gc in choice:
            if not th.is_empty:
                kept.append(th)
            for t in om:
                if not t.is_empty:
                    omega.append(t)
            g *= gc
        # children and kept prefixes are canonical: sorting them suffices
        if len(kept) > 1:
            kept.sort(key=tree_key)
        if len(omega) > 1:
            omega.sort(key=tree_key)
        key = (Tree(tau.label, tuple(kept)), tuple(omega))
        acc[key] = acc.get(key, 0) + g
    return tuple([(theta, omega, g) for (theta, omega), g in acc.items()])


def subtree_pairs(tau: Tree) -> list[SubtreePair]:
    """The full decomposition set ST(tau), duplicates merged with gamma
    accumulated.  Includes (empty, {tau}) and the full-retention pair.

    Bracket trees list their pairs by (theta, omega) in :func:`tree_key`
    order; a single node lists the two base-case pairs as written."""
    if tau.is_empty:
        raise ValueError("ST is defined for non-empty trees")
    rows = _st_table(tau)
    if not tau.is_leaf:
        rows = sorted(rows, key=lambda r: (tree_key(r[0]), tuple(map(tree_key, r[1]))))
    return [SubtreePair(theta, omega, Fraction(g)) for theta, omega, g in rows]


def split_pairs(tau: Tree) -> list[SubtreePair]:
    """The pairs of ST(tau) whose remainder is a single tree.

    For a single node this keeps both base-case pairs (the remainder
    {empty} counts as one element); for bracket trees the full-retention
    pair has an empty remainder and is excluded.
    """
    return [p for p in subtree_pairs(tau) if len(p.remainder) == 1]


def gamma(tau: Tree, pair: SubtreePair) -> Fraction:
    """Multiplicity of the decomposition ``pair`` of ``tau``.

    Raises :class:`PairNotInST` when (subtree, remainder) is not a
    decomposition of tau.
    """
    target = (pair.subtree, pair.remainder)
    for theta, omega, g in _st_table(tau):
        if (theta, omega) == target:
            return Fraction(g)
    raise PairNotInST(f"{pair.subtree} with remainder {pair.remainder} "
                      f"does not decompose {tau}")
