"""Shaped, colored rooted trees: canonical forms, enumeration, and the
combinatorial coefficients attached to them.

Three tree families are supported, selected by a model object:

* ``GeneralPartitioned(Q, M, nu)`` -- nodes carry a partition index q, a
  variant index v and a color m (m = 0 deterministic, m > 0 one Wiener
  channel each).  Children of a node may be any trees of the family.
* ``NonAutonomous(M, l, nu)`` -- the vertically split family with extra
  time/Wiener leaves ``W0 .. Wl`` that may appear only as children.
* ``SemiLinear(M)`` -- nodes are ``g``-nodes (one per color), a single
  linear node ``A`` and the time leaf ``t``.  An ``A``-node may have at
  most one child that is not the time leaf.

Trees are immutable and hash-consed: each distinct (label, children) pair
is built once and looked up in the intern table of its root label, so
equality of trees is object identity, and the hash is the identity hash
that goes with it.  Nothing promises an iteration order for a set of
trees: code that emits trees sorts them by :func:`tree_key`.  The tables
hold weak references: a tree that nothing else references is freed and
leaves its table.  Node labels are interned as well, one object per
distinct label, and each label holds every fact about itself, set once
when it is interned: its order key, color, partition and bracket token,
and the intern table of its trees.

A census, the trees of a model up to an order, is counted before it is
built: :func:`count_trees` gives its size per order without building a
tree, so :func:`iter_trees` refuses a census over its cap before the
first tree.  It then yields the trees one by one and keeps only those
below the top order, the ones that later trees take as children.

All operations expect canonical trees (children sorted by the total order
below) and :func:`canonicalize` produces them.
Tree order ``rho`` is a half-integer: deterministic nodes count 1,
stochastic nodes 1/2, and the empty tree has order 1 by convention.
"""

from __future__ import annotations

import re
import weakref
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

from sbseries.memo import Interned, cached


class TreeError(ValueError):
    """Base class for tree construction/validation errors."""


class ModelMismatch(TreeError):
    """Trees, series or problems of different tree models were combined."""


class InvalidLabel(TreeError):
    """A node label violates the dimensions of the active tree model."""


class SemiLinearArity(TreeError):
    """An A-node has more than one child that is not the time leaf."""


class CapExceeded(TreeError):
    """Enumeration would produce more trees than the configured safety cap."""


class ParseError(TreeError):
    """A tree string does not conform to the bracket grammar."""


class SimulationError(Exception):
    """A numerical computation failed (non-finite moments, a diverging
    stage iteration).  It lives here, beside the other error bases, so that
    handling it imports neither numpy nor scipy; ``sbseries.sim`` raises and
    re-exports it."""


# ---------------------------------------------------------------------------
# Half-integers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class HalfInt:
    """Exact half-integer, stored as twice its value."""

    twice: int

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Accepts '3', '3.5', '7/2'."""
        text = text.strip()
        if "/" in text:
            num, den = text.split("/")
            if int(den) == 0:
                raise ValueError(f"zero denominator in {text!r}")
            frac = Fraction(int(num), int(den))
        else:
            frac = Fraction(text)
        if frac.denominator not in (1, 2):
            raise ValueError(f"not a half-integer: {text!r}")
        return cls(2 * frac.numerator // frac.denominator)

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


# ---------------------------------------------------------------------------
# Node labels
# ---------------------------------------------------------------------------


class _Label(Interned):
    """Base of the node labels, which are interned (see
    :class:`sbseries.memo.Interned`): equality is identity.

    Every fact about a label is set once, by ``_derive``:

    * ``key`` -- its place in the total order: the class ``rank``, then the
      field values, padded to four entries;
    * ``color`` -- the driving process of the node, 0 when deterministic;
    * ``partition`` -- the partition index of the space its value lives in;
    * ``text`` -- its bracket token, None where the grammar has none;
    * ``trees`` -- the intern table of the trees it roots (children tuple ->
      weak reference to the tree), the callback that drops the entry of a
      tree that died, the label's own share of 2*rho and the class of its
      trees.

    Each class declares its ``rank`` and ``_facts()``, which returns the
    color, the partition and the text.
    """

    __slots__ = ("key", "color", "partition", "text", "trees")
    rank: int  # the order of the label classes in ``key``

    def _derive(self) -> None:
        init = object.__setattr__
        values = [getattr(self, name) for name in self.__slots__]
        init(self, "key", (self.rank, *values, 0, 0, 0)[:4])
        color, partition, text = self._facts()
        init(self, "color", color)
        init(self, "partition", partition)
        init(self, "text", text)
        table: dict[tuple[Tree, ...], _Ref] = {}

        def forget(ref: _Ref) -> None:
            held = table.pop(ref.key, None)
            if held is not ref and held is not None:
                # a new tree held the key before this callback ran
                table[ref.key] = held

        kind = _EmptyTree if type(self) is EmptyLabel else Tree
        init(self, "trees", (table, forget, 2 if color == 0 else 1, kind))


class GeneralLabel(_Label):
    """Node of shape (q, v) and color m in the general partitioned family."""

    __slots__ = ("q", "v", "m")
    rank = 5

    def __new__(cls, q: int, v: int, m: int) -> "GeneralLabel":
        return cls._intern((q, v, m))

    def _facts(self):
        return self.m, self.q, f"g({self.q},{self.v},{self.m})"


class WLabel(_Label):
    """Wiener leaf W_i of the non-autonomous family (i >= 1; W_0 is TLabel)."""

    __slots__ = ("i",)
    rank = 2

    def __new__(cls, i: int) -> "WLabel":
        return cls._intern((i,))

    def _facts(self):
        return self.i, 1, f"W{self.i}"


class TLabel(_Label):
    """The time leaf (alias of W_0); child-only in its families."""

    __slots__ = ()
    rank = 1

    def _facts(self):
        return 0, 1, "t"


class ALabel(_Label):
    """The linear-part node of the semi-linear family."""

    __slots__ = ()
    rank = 3

    def _facts(self):
        return 0, 1, "A"


# the bracket grammar writes a g-node's color as one digit
MAX_G_COLOR = 9


class GLabel(_Label):
    """Coefficient-function node of color m in the semi-linear family."""

    __slots__ = ("m",)
    rank = 4

    def __new__(cls, m: int) -> "GLabel":
        return cls._intern((m,))

    def _facts(self):
        return self.m, 1, str(self.m) if self.m <= MAX_G_COLOR else None


class FLabel(_Label):
    """Root marker of function-expansion trees."""

    __slots__ = ()
    rank = 6

    def _facts(self):
        return 0, 1, "f"


class EmptyLabel(_Label):
    """The empty tree of partition q (a root-only placeholder)."""

    __slots__ = ("q",)
    rank = 0

    def __new__(cls, q: int = 1) -> "EmptyLabel":
        return cls._intern((q,))

    def _facts(self):
        return 0, self.q, "()" if self.q == 1 else f"(){self.q}"


NodeLabel = GeneralLabel | WLabel | TLabel | ALabel | GLabel | FLabel | EmptyLabel


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


class Tree:
    """Rooted tree; children are held as an ordered tuple.

    Trees are hash-consed: ``Tree(label, children)`` returns the live tree
    with an equal label and the same children objects when there is one,
    so equality is identity and two canonical trees are the same object
    exactly when they represent the same multiset-tree; the hash is the
    identity hash.  Only ``rho2`` is computed at construction; the order
    key, the bracket text and the symmetry factor are computed on first
    use.  The intern table holds weak references, so a tree nothing else
    holds is freed.  Setting an attribute raises; copies and unpickled
    trees are the interned tree.
    """

    __slots__ = ("label", "children", "_rho2", "_key", "_text", "_sigma",
                 "__weakref__")
    is_empty = False  # True on the trees of EmptyLabel, which are _EmptyTree

    def __new__(cls, label: NodeLabel, children: tuple["Tree", ...] = ()) -> "Tree":
        table, forget, own, kind = label.trees
        ref = table.get(children)
        tree = ref() if ref is not None else None
        if tree is None:
            tree = object.__new__(kind)
            _set_label(tree, label)
            _set_children(tree, children)
            _set_rho2(tree, own + sum(map(_rho2_of, children)))
            _set_key(tree, None)
            _set_text(tree, None)
            _set_sigma(tree, None)
            ref = table[children] = _Ref(tree, forget)
            ref.key = children
        return tree

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Tree is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Tree, (self.label, self.children)

    def __repr__(self) -> str:
        return f"Tree(label={self.label!r}, children={self.children!r})"

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __str__(self) -> str:
        return format_tree(self)


# the slot setters, which skip the attribute lookup of object.__setattr__
(_set_label, _set_children, _set_rho2, _set_key, _set_text,
 _set_sigma) = (getattr(Tree, name).__set__ for name in Tree.__slots__[:-1])
_rho2_of = attrgetter("_rho2")


class _EmptyTree(Tree):
    """The class of the empty trees, so that ``is_empty`` is a class
    attribute read with no per-tree slot."""

    __slots__ = ()
    is_empty = True


class _Ref(weakref.ref):
    """Weak reference from an intern table to a tree, keyed by its children
    (``weakref.KeyedRef`` has a Python-level constructor, about 1 us more
    per tree built)."""

    __slots__ = ("key",)


EMPTY = Tree(EmptyLabel(1))


def empty_tree(q: int = 1) -> Tree:
    return Tree(EmptyLabel(q))


T_LEAF = Tree(TLabel())


def tree_key(tree: Tree):
    """Total order key: (2*rho, root label, child keys), cached on the tree."""
    k = tree._key
    if k is None:
        k = (tree._rho2, tree.label.key, tuple(map(tree_key, tree.children)))
        _set_key(tree, k)
    return k


def a_node_children(children: tuple[Tree, ...]) -> tuple[tuple[Tree, ...], Tree | None]:
    """An A-node's time-leaf children and its one other child (None if it
    has none); raises :class:`SemiLinearArity` on a second other child."""
    times: list[Tree] = []
    others: list[Tree] = []
    for child in children:
        (times if isinstance(child.label, TLabel) else others).append(child)
    if len(others) > 1:
        raise SemiLinearArity(
            f"A-node with {len(others)} children outside the time family")
    return tuple(times), others[0] if others else None


# W_0, the other spelling of the time leaf t: canonical trees spell it t
_W0 = WLabel(0)


def canonicalize(tree: Tree, model: "TreeModel | None" = None) -> Tree:
    """Canonical form: children canonicalized and sorted at every node.
    ``tree`` may also be any node with ``label`` and ``children``.

    Idempotent and invariant under child permutations.  Validates the
    A-node arity rule always, and that every label is one of
    :func:`model_labels` when ``model`` is given.
    """
    return _canonical(tree, model, _label_and_children)


_label_and_children = attrgetter("label", "children")


def _canonical(node, model, parts) -> Tree:
    """The canonical tree of ``node``, whose label and child nodes are
    ``parts(node)``: the step of :func:`canonicalize` and of the parser's
    build pass, so both check in the same order."""
    label, nodes = parts(node)
    if label is _W0:
        label = T_LEAF.label
    if not nodes:
        out = Tree(label)
    elif isinstance(label, EmptyLabel):
        raise InvalidLabel("the empty tree cannot have children")
    else:
        children = [_canonical(c, model, parts) for c in nodes]
        if len(children) > 1:
            children.sort(key=tree_key)
        children = tuple(children)
        for child in children:
            if child.is_empty:
                raise InvalidLabel("the empty tree cannot appear as a child")
        if isinstance(label, ALabel):
            a_node_children(children)
        if isinstance(label, (TLabel, WLabel)) and children:
            raise InvalidLabel(f"{label!r} is leaf-only")
        out = Tree(label, children)
    if model is not None and label not in model_labels(model):
        raise InvalidLabel(f"{label!r} is not a label of {model}")
    return out


def rho2(tree: Tree) -> int:
    """Twice the tree order, set when the tree is built."""
    return tree._rho2


def rho(tree: Tree) -> HalfInt:
    """Tree order: node contributions 1 (color 0) or 1/2 (color > 0),
    summed over all nodes; rho of the empty tree is 1 by convention."""
    return HalfInt(tree._rho2)


def symmetry(tree: Tree) -> int:
    """Symmetry factor sigma: the product over nodes of rep! for each run
    of ``rep`` equal children, cached on the tree.

    One pass over the (sorted) children: the k-th child of a run of equal
    children contributes its own sigma times k."""
    sigma = tree._sigma
    if sigma is None:
        sigma, prev, rep = 1, None, 0
        for child in tree.children:
            rep = rep + 1 if child is prev else 1
            prev = child
            sigma *= symmetry(child) * rep
        _set_sigma(tree, sigma)
    return sigma


def alpha(tree: Tree) -> Fraction:
    """Combinatorial coefficient 1/sigma: the product over nodes of inverse
    factorials of the multiplicities of equal child subtrees."""
    return Fraction(1, symmetry(tree))


# ---------------------------------------------------------------------------
# Tree models
# ---------------------------------------------------------------------------


DEFAULT_ENUMERATION_CAP = 1_000_000


@dataclass(frozen=True)
class GeneralPartitioned:
    """Q partitions, M diffusion colors, nu[(m, q)] variants per (color, partition)."""

    Q: int
    M: int
    nu: tuple[tuple[tuple[int, int], int], ...]  # ((m, q) -> count) as items

    @classmethod
    def from_table(cls, Q: int, M: int, table: dict[tuple[int, int], int]) -> "GeneralPartitioned":
        items = tuple(sorted(((m, q), int(c)) for (m, q), c in table.items()))
        return cls(Q, M, items)

    def variants(self, m: int, q: int) -> int:
        for key, count in self.nu:
            if key == (m, q):
                return count
        return 0

    def node_labels(self) -> list[NodeLabel]:
        out: list[NodeLabel] = []
        for m in range(self.M + 1):
            for q in range(1, self.Q + 1):
                for v in range(1, self.variants(m, q) + 1):
                    out.append(GeneralLabel(q, v, m))
        return out

    def adjoined_leaves(self) -> list[Tree]:
        return []


@dataclass(frozen=True)
class NonAutonomous:
    """Vertically split family with time/Wiener leaves W_0 .. W_l."""

    M: int
    l: int
    nu: tuple[int, ...]  # variants per color m = 0..M

    @classmethod
    def from_table(cls, M: int, l: int, variants: dict[int, int]) -> "NonAutonomous":
        return cls(M, l, tuple(int(variants.get(m, 0)) for m in range(M + 1)))

    def variants_of(self, m: int) -> int:
        return self.nu[m] if 0 <= m <= self.M else 0

    def node_labels(self) -> list[NodeLabel]:
        return [GeneralLabel(1, v, m)
                for m in range(self.M + 1)
                for v in range(1, self.variants_of(m) + 1)]

    def adjoined_leaves(self) -> list[Tree]:
        return [T_LEAF] + [Tree(WLabel(i)) for i in range(1, self.l + 1)]


@dataclass(frozen=True)
class SemiLinear:
    """Semi-linear family: g-nodes of color 0..M, the A-node, the time leaf."""

    M: int

    def node_labels(self) -> list[NodeLabel]:
        return [GLabel(m) for m in range(self.M + 1)] + [ALabel()]

    def adjoined_leaves(self) -> list[Tree]:
        return [T_LEAF]


TreeModel = GeneralPartitioned | NonAutonomous | SemiLinear


def langevin_model() -> GeneralPartitioned:
    """The two-partition model of the Langevin test problem: partition 1 is
    the (position, velocity) pair with two deterministic variants and one
    stochastic one, partition 2 is time."""
    return GeneralPartitioned.from_table(
        Q=2, M=1, table={(0, 1): 2, (1, 1): 1, (0, 2): 1, (1, 2): 0})


@cached
def model_labels(model: TreeModel) -> frozenset[NodeLabel]:
    """Every label a tree of the model may carry: the node labels, the
    adjoined leaves and the empty tree of each partition."""
    partitions = model.Q if isinstance(model, GeneralPartitioned) else 1
    return frozenset([*model.node_labels(),
                      *(leaf.label for leaf in model.adjoined_leaves()),
                      *(EmptyLabel(q) for q in range(1, partitions + 1))])


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def count_trees(model: TreeModel, rho_max: HalfInt, cap: int | None = None) -> list[int]:
    """The number of trees :func:`iter_trees` yields at each 2*rho from 0 to
    ``rho_max.twice``, counted without building one.  The list ends early,
    at the half-order where the running total passes ``cap``.

    At half-order b, a label of weight w roots one tree per multiset of pool
    items whose weights sum to b - w: the coefficient M(b - w) of the Euler
    transform prod_k (1 - x^k)^(-c_k), where c_k counts the pool items of
    weight k, and n M(n) = sum_j s(j) M(n - j) with s(j) = sum_{d | j} d c_d
    (Otter 1948; Butcher 2008, ch. 3).  An A-node's children are time
    leaves and at most one other item, so its count is one sum."""
    labels = model.node_labels()  # a label's own share of 2*rho is trees[2]
    roots = Counter(lb.trees[2] for lb in labels if not isinstance(lb, ALabel))
    a_nodes = len(labels) - roots.total()
    leaves = Counter(leaf._rho2 for leaf in model.adjoined_leaves())
    # per weight: trees, pool items, divisor sums s and multisets M
    counts, items, s, m = [0], [0], [0], [1]
    for b in range(1, rho_max.twice + 1):
        n = sum(k * m[b - w] for w, k in roots.items() if w <= b)
        # an A-node and the time leaf weigh 2: the children of an A-node are
        # time leaves and one pool item of the remaining parity, the time
        # leaf itself standing for time leaves alone, or none at b == 2
        if b >= 2:
            n += a_nodes * (sum(items[b - 2::-2]) + (b == 2))
        counts.append(n)
        items.append(n + leaves[b])
        s.append(sum(d * items[d] for d in range(1, b + 1) if b % d == 0))
        m.append(sum(s[j] * m[b - j] for j in range(1, b + 1)) // b)
        if cap is not None and sum(counts) > cap:
            break
    return counts


def iter_trees(model: TreeModel, rho_max: HalfInt, cap: int = DEFAULT_ENUMERATION_CAP):
    """The trees of :func:`enumerate_trees`, in its order, as a generator.

    The census is counted first (:func:`count_trees`), so
    :class:`CapExceeded` is raised by this call, before any tree is built.
    Trees of the top order are yielded and never held, as no tree of the
    census has one as a child: a caller that drops each tree keeps only the
    lower orders alive."""
    if sum(count_trees(model, rho_max, cap)) > cap:
        raise CapExceeded(f"more than {cap} trees below order {rho_max}")
    return _built_trees(model, rho_max.twice)


def enumerate_trees(model: TreeModel, rho_max: HalfInt,
                    cap: int = DEFAULT_ENUMERATION_CAP) -> list[Tree]:
    """All distinct canonical trees of the model with rho <= rho_max,
    excluding the empty tree and the child-only time/Wiener leaves,
    in ``tree_key`` order: by rho, then root label, then children.
    The list of :func:`iter_trees`.

    Raises :class:`CapExceeded`, before any tree is built, if more than
    ``cap`` trees would be produced.
    """
    return list(iter_trees(model, rho_max, cap))


def _built_trees(model: TreeModel, budget: int):
    """The trees with 2*rho <= budget, built in ``tree_key`` order, with no
    sorting.  Half-order ``b`` takes the node labels in the order of their
    ``key``, and for each label the child tuples in the order
    :func:`_weighted_multisets` yields them: lexicographic in their
    positions in the pool of child candidates.  The pool is in ``tree_key``
    order, because each half-order appends its adjoined leaves (t and W_i,
    whose labels sort before every node label) and then its trees.  So
    positions compare as keys do, and as two child tuples of equal weight
    are never prefixes of one another, their positions compare as their key
    tuples do.  The trees of the top order join no pool."""
    leaves = [Tree(label) for label in sorted(model.node_labels(), key=lambda lb: lb.key)]
    adjoined = sorted(model.adjoined_leaves(), key=lambda leaf: leaf.label.key)
    pool: list[Tree] = []  # child candidates, in tree_key order
    for b in range(1, budget + 1):
        pool += [leaf for leaf in adjoined if rho2(leaf) == b]
        for leaf in leaves:
            label, rem = leaf.label, b - rho2(leaf)
            if rem < 0:
                continue
            if isinstance(label, ALabel):
                combos = _a_node_multisets(pool, rem)
            else:
                combos = _weighted_multisets(pool, rem)
            for combo in combos:
                tree = Tree(label, combo)
                # it outweighs every budget of this order, whose multisets
                # stop before it in the pool
                if b < budget:
                    pool.append(tree)
                yield tree


def _weighted_multisets(pool: list[Tree], budget: int):
    """Nondecreasing tuples over ``pool`` whose 2*rho weights sum to budget
    (budget 0 yields the empty tuple), in lexicographic order of the
    positions in ``pool``.

    The pool is sorted by weight, so iteration can stop at the first item
    that no longer fits."""
    return _multisets_from(pool, 0, budget, [])


def _a_node_multisets(pool: list[Tree], budget: int):
    """The child tuples of an A-node: those of :func:`_weighted_multisets`
    that :func:`a_node_children` accepts (time leaves and at most one other
    child), in the same order, and no others built.  Sorted by position,
    the other child comes first in its tuple when it stands ahead of the
    time leaf in ``pool`` and last when it stands behind it, so the tuples
    come in the order of the other child's position, the tuple of time
    leaves alone in the time leaf's place."""
    if budget == 0:
        yield ()
    t_weight = T_LEAF._rho2
    behind = False  # past the time leaf in the pool
    for tree in pool:
        w = tree._rho2
        if w > budget:
            break
        if tree is T_LEAF:
            behind = True
            if budget % w == 0:
                yield (T_LEAF,) * (budget // w)
            continue
        times, odd = divmod(budget - w, t_weight)
        if not odd:
            yield (T_LEAF,) * times + (tree,) if behind else (tree,) + (T_LEAF,) * times


def _multisets_from(pool: list[Tree], start: int, remaining: int, acc: list[Tree]):
    # a module-level function: a nested recursive one would be a reference
    # cycle holding ``pool``, and with it every tree, until a full collection
    if remaining == 0:
        yield tuple(acc)
        return
    for i in range(start, len(pool)):
        tree = pool[i]
        w = tree._rho2
        if w > remaining:
            break
        acc.append(tree)
        yield from _multisets_from(pool, i, remaining - w, acc)
        acc.pop()


# ---------------------------------------------------------------------------
# Bracket serialization
# ---------------------------------------------------------------------------


def format_tree(tree: Tree) -> str:
    """Bit-exact ASCII bracket form: ``tree := leaf | "[" tree ("," tree)* "]" leaf``,
    cached on the tree."""
    text = tree._text
    if text is None:
        token = tree.label.text
        if token is None:
            raise ValueError(f"single-digit grammar: g-node color must be <= {MAX_G_COLOR}")
        inner = ",".join(map(format_tree, tree.children))
        text = f"[{inner}]{token}" if inner else token
        _set_text(tree, text)
    return text


# one label token of the bracket grammar; digits are ASCII only
_TOKEN_RE = re.compile(r"g\([0-9]+,[0-9]+,[0-9]+\)|W[0-9]+|\(\)[0-9]*|[tAf0-9]")
_FIXED_LABELS = {"t": TLabel(), "A": ALabel(), "f": FLabel()}
_TOKEN_LABELS: dict[str, NodeLabel] = {}  # token in its formatted spelling -> label
# the error at a character no token starts with: (offset, message)
_TOKEN_ERRORS = {"g": (0, "malformed g(q,v,m) label"), "W": (1, "W-label needs an index"),
                 "(": (0, "malformed empty-tree token")}


def _token_label(token: str) -> NodeLabel:
    """The label of a token.  Tokens spelled as the label's ``text`` are
    cached."""
    label = _TOKEN_LABELS.get(token)
    if label is None:
        head = token[0]
        if head == "g":
            label = GeneralLabel(*map(int, token[2:-1].split(",")))
        elif head == "W":
            label = WLabel(int(token[1:]))
        elif head == "(":
            label = EmptyLabel(int(token[2:]) if len(token) > 2 else 1)
        else:
            label = _FIXED_LABELS.get(head) or GLabel(int(head))
        if label.text == token:
            _TOKEN_LABELS[token] = label
    return label


def _syntax_error(text: str, pos: int, msg: str):
    raise ParseError(f"{msg} at position {pos} in {text!r}")


def _read(text: str) -> tuple:
    """The whole bracket text as nested ``(label, children)`` tuples, read
    without recursion; a syntax error raises :class:`ParseError` with its
    position."""
    stack: list[list[tuple]] = []  # the children read so far, per open bracket
    pos = 0
    while True:
        while text.startswith("[", pos):
            stack.append([])
            pos += 1
        children = ()
        while True:  # a label, which closes the node of its bracket
            token = _TOKEN_RE.match(text, pos)
            if token is None:
                ch = text[pos:pos + 1]
                msg = f"unexpected character {ch!r}" if ch else "unexpected end of input"
                shift, msg = _TOKEN_ERRORS.get(ch, (0, msg))
                _syntax_error(text, pos + shift, msg)
            pos = token.end()
            node = (_token_label(token.group()), children)
            if not stack:
                if pos != len(text):
                    _syntax_error(text, pos, "trailing input")
                return node
            stack[-1].append(node)
            if text.startswith(",", pos):
                pos += 1
                break
            if not text.startswith("]", pos):
                _syntax_error(text, pos, "expected ']'")
            children = tuple(stack.pop())
            pos += 1


def parse_tree(text: str, model: TreeModel | None = None) -> Tree:
    """Parse the bracket grammar and return the canonical tree: the whole
    text is read first, then each canonical tree is built once."""
    # a read node is its own (label, children) pair: ``tuple`` returns it
    return _canonical(_read(text.strip()), model, tuple)
