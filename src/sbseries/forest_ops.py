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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

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

    def __str__(self) -> str:
        rem = ",".join(str(t) for t in self.remainder)
        return f"({self.subtree}, {{{rem}}}) * {self.coefficient}"


@lru_cache(maxsize=None)
def _st_table(tau: Tree) -> tuple[tuple[Tree, tuple[Tree, ...], int], ...]:
    """All (theta, omega, gamma) for tau, gamma accumulated over markings."""
    if tau.is_empty:
        return ((tau, (tau,), 1),)
    root_empty = empty_tree(tau.label.partition)
    if tau.is_leaf:
        return ((root_empty, (tau,), 1), (tau, (root_empty,), 1))
    acc: dict[tuple[Tree, tuple[Tree, ...]], int] = {}
    child_tables = [_st_table(c) for c in tau.children]
    for choice in product(*child_tables):
        # children and kept prefixes are canonical: sorting them suffices
        kept = [th for th, _, _ in choice if not th.is_empty]
        theta = Tree(tau.label, tuple(sorted(kept, key=tree_key)))
        omega = tuple(sorted((t for _, om, _ in choice for t in om if not t.is_empty),
                             key=tree_key))
        key = (theta, omega)
        acc[key] = acc.get(key, 0) + math.prod(g for _, _, g in choice)
    acc[(root_empty, (tau,))] = acc.get((root_empty, (tau,)), 0) + 1
    items = sorted(acc.items(), key=lambda kv: (tree_key(kv[0][0]),
                                                tuple(tree_key(t) for t in kv[0][1])))
    return tuple((theta, omega, g) for (theta, omega), g in items)


def subtree_pairs(tau: Tree) -> list[SubtreePair]:
    """The full decomposition set ST(tau), duplicates merged with gamma
    accumulated.  Includes (empty, {tau}) and the full-retention pair."""
    if tau.is_empty:
        raise ValueError("ST is defined for non-empty trees")
    return [SubtreePair(theta, omega, Fraction(g))
            for theta, omega, g in _st_table(tau)]


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
