"""Canonical forms, interning, enumeration, and combinatorial coefficients."""

import copy
import gc
import itertools
import math
import pickle
import random
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import label_facts, oracle_parse_tree, sorted_enumeration, validate_tree

from sbseries import expr as E
from sbseries import trees as T
from sbseries.trees import (
    CapExceeded,
    HalfInt,
    InvalidLabel,
    SemiLinearArity,
    Tree,
    alpha,
    canonicalize,
    enumerate_trees,
    format_tree,
    parse_tree,
    rho,
    tree_key,
)

EX2 = "[[[g(2,1,0),g(2,1,0)]g(1,2,0),g(1,1,0)]g(1,1,1),g(2,1,0)]g(1,2,0)"
EX4 = "[[[t,t]A,0]1,t]A"

# Models checked against the sorting enumeration, at every cap 1/2 .. 4.
# In the last three, model.node_labels() is not in label key order.
ORACLE_MODELS = [
    T.SemiLinear(1),
    T.SemiLinear(2),
    T.langevin_model(),
    T.NonAutonomous.from_table(M=1, l=1, variants={0: 1, 1: 1}),
    T.NonAutonomous.from_table(M=1, l=2, variants={0: 2, 1: 1}),
    T.GeneralPartitioned.from_table(Q=2, M=1, table={(0, 1): 1, (1, 1): 1, (0, 2): 1}),
]
ORACLE_IDS = ["semilinear-1", "semilinear-2", "langevin", "nonautonomous-l1",
              "nonautonomous-l2", "general"]


def shuffled(tree: Tree, rng: random.Random) -> Tree:
    kids = [shuffled(c, rng) for c in tree.children]
    rng.shuffle(kids)
    return Tree(tree.label, tuple(kids))


class TestHalfInt:
    def test_parse_forms(self):
        assert HalfInt.parse("3") == HalfInt(6)
        assert HalfInt.parse("3.5") == HalfInt(7)
        assert HalfInt.parse("7/2") == HalfInt(7)
        assert str(HalfInt(13)) == "13/2"
        assert str(HalfInt(6)) == "3"

    def test_rejects_non_half(self):
        with pytest.raises(ValueError):
            HalfInt.parse("1/3")


class TestCanonicalize:
    def test_child_permutation_invariance(self):
        base = parse_tree("[t,[[t,t]A]1]A")
        rng = random.Random(7)
        for _ in range(1000):
            assert canonicalize(shuffled(base, rng)) == base

    def test_idempotence_random_trees(self):
        model = T.langevin_model()
        rng = random.Random(11)
        pool = enumerate_trees(model, HalfInt(6))
        for _ in range(1000):
            raw = shuffled(rng.choice(pool), rng)
            once = canonicalize(raw)
            assert canonicalize(once) == once

    def test_multiset_equality_example(self):
        a = parse_tree("[t,[t]A]A")
        b = parse_tree("[[t]A,t]A")
        assert a == b

    def test_w0_alias_collapses_to_t(self):
        assert parse_tree("W0") == parse_tree("t")
        assert parse_tree("[W0,t]A") == parse_tree("[t,t]A")

    def test_semilinear_arity_error(self):
        with pytest.raises(SemiLinearArity):
            parse_tree("[0,1]A")

    def test_empty_tree_never_a_child(self):
        with pytest.raises(InvalidLabel):
            canonicalize(Tree(T.ALabel(), (T.EMPTY,)))

    def test_model_dimension_check(self):
        model = T.langevin_model()
        with pytest.raises(InvalidLabel):
            parse_tree("g(3,1,0)", model)
        with pytest.raises(InvalidLabel):
            parse_tree("g(2,1,1)", model)  # nu_{1,2} = 0


def _raw_semilinear_trees():
    """Strategy: raw trees of the semi-linear family, children in any order
    and the time leaf spelled ``t`` or ``W0``."""
    time_leaf = st.sampled_from([T.T_LEAF, Tree(T.WLabel(0))])
    g_label = st.sampled_from([T.GLabel(0), T.GLabel(1)])

    def grow(kids):
        g_node = st.tuples(g_label, st.lists(st.one_of(kids, time_leaf),
                                             min_size=1, max_size=3))
        a_node = st.tuples(st.just(T.ALabel()),
                           st.tuples(st.lists(time_leaf, max_size=2),
                                     st.lists(kids, max_size=1)).map(lambda p: p[0] + p[1]))
        return st.one_of(g_node, a_node).map(
            lambda lc: Tree(lc[0], tuple(lc[1])))

    leaves = st.one_of(g_label.map(Tree), st.just(Tree(T.ALabel())))
    return st.recursive(leaves, grow, max_leaves=8)


RAW_SEMILINEAR_TREES = _raw_semilinear_trees()


def _respelled(tree: Tree, rng: random.Random) -> Tree:
    """The same multiset-tree: children shuffled, time leaves re-spelled."""
    if isinstance(tree.label, (T.TLabel, T.WLabel)):
        return Tree(rng.choice([T.TLabel(), T.WLabel(0)]))
    kids = [_respelled(c, rng) for c in tree.children]
    rng.shuffle(kids)
    return Tree(tree.label, tuple(kids))


class TestInterning:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_identity_iff_equal_key_iff_equal_text(self, data):
        raw = data.draw(RAW_SEMILINEAR_TREES)
        if data.draw(st.booleans()):
            other = _respelled(raw, data.draw(st.randoms(use_true_random=False)))
        else:
            other = data.draw(RAW_SEMILINEAR_TREES)
        a, b = canonicalize(raw), canonicalize(other)
        same = a is b
        assert same == (tree_key(a) == tree_key(b))
        assert same == (format_tree(a) == format_tree(b))
        assert (a == b) == same

    def test_copies_are_the_interned_tree(self):
        tree = parse_tree(EX2)
        assert copy.copy(tree) is tree
        assert copy.deepcopy(tree) is tree
        assert copy.deepcopy([tree, tree]) == [tree, tree]
        assert pickle.loads(pickle.dumps(tree)) is tree

    def test_setting_an_attribute_raises(self):
        tree = parse_tree(EX4)
        for name in ("label", "children", "_hash", "_key", "other"):
            with pytest.raises(AttributeError):
                setattr(tree, name, None)
        with pytest.raises(AttributeError):
            del tree.label
        assert format_tree(tree) == "[t,[0,[t,t]A]1]A"

    def test_repr_is_unchanged(self):
        assert repr(parse_tree("[t]A")) == (
            "Tree(label=ALabel(), children=(Tree(label=TLabel(), children=()),))")

    def test_unreferenced_tree_leaves_the_table(self):
        label = T.GeneralLabel(9, 8, 7)
        children = (Tree(T.GLabel(3)), T.T_LEAF)
        tree = Tree(label, children)
        table = label.trees[0]
        assert table[children]() is tree
        ref = weakref.ref(tree)
        del tree
        gc.collect()
        assert ref() is None
        assert children not in table
        rebuilt = Tree(label, children)
        assert table[children]() is rebuilt

    def test_late_forget_keeps_the_newer_entry(self):
        label = T.GeneralLabel(9, 8, 6)
        table, forget = label.trees[:2]
        children = (T.T_LEAF,)
        old = Tree(label, children)
        stale = T._Ref(old)
        stale.key = children
        del old
        gc.collect()
        assert children not in table
        new = Tree(label, children)
        held = table[children]
        forget(stale)  # the callback of a tree that died before ``new`` was built
        assert table[children] is held and held() is new
        del new, held
        gc.collect()
        assert children not in table
        forget(stale)  # its key is already gone
        assert children not in table


# every label class with field values and the dataclass repr it keeps
LABEL_CASES = [
    (lambda: T.GeneralLabel(1, 2, 0), (1, 2, 0), "GeneralLabel(q=1, v=2, m=0)"),
    (lambda: T.WLabel(2), (2,), "WLabel(i=2)"),
    (lambda: T.TLabel(), (), "TLabel()"),
    (lambda: T.ALabel(), (), "ALabel()"),
    (lambda: T.GLabel(1), (1,), "GLabel(m=1)"),
    (lambda: T.FLabel(), (), "FLabel()"),
    (lambda: T.EmptyLabel(2), (2,), "EmptyLabel(q=2)"),
]
LABEL_IDS = ["general", "w", "t", "a", "g", "f", "empty"]
# the expression types share the labels' interning base, so the generic
# label tests take a monomial and an integral atom as well
INTERNED_CASES = LABEL_CASES + [
    (lambda: E.Mono(1, ((2, 1),)), (1, ((2, 1),), ()), "Mono(hpow=1, dws=((2, 1),), ints=())"),
    (lambda: E.IntAtom(1, E.Mono(2)), (1, E.Mono(2)),
     "IntAtom(color=1, integrand=Mono(hpow=2, dws=(), ints=()))"),
]
INTERNED_IDS = LABEL_IDS + ["mono", "int-atom"]


class TestLabels:
    @pytest.mark.parametrize("make,fields,text", INTERNED_CASES, ids=INTERNED_IDS)
    def test_equal_labels_are_one_object(self, make, fields, text):
        assert make() is make()
        assert make() == make()

    def test_empty_label_default_is_partition_one(self):
        assert T.EmptyLabel() is T.EmptyLabel(1)
        assert T.EmptyLabel(q=1) is T.EmptyLabel(1)

    def test_labels_of_different_classes_differ(self):
        assert T.GLabel(1) != T.WLabel(1)
        assert T.TLabel() != T.ALabel()
        assert T.GLabel(1) != T.GLabel(2)
        assert len({T.GLabel(1), T.WLabel(1), T.TLabel(), T.ALabel(), T.FLabel()}) == 5

    @pytest.mark.parametrize("make,fields,text", INTERNED_CASES, ids=INTERNED_IDS)
    def test_copies_are_the_interned_label(self, make, fields, text):
        label = make()
        assert pickle.loads(pickle.dumps(label)) is label
        assert copy.copy(label) is label
        assert copy.deepcopy(label) is label

    @pytest.mark.parametrize("make,fields,text", INTERNED_CASES, ids=INTERNED_IDS)
    def test_setting_an_attribute_raises(self, make, fields, text):
        label = make()
        for name in (*label.__slots__, "_key", "_hash", "other"):
            with pytest.raises(AttributeError):
                setattr(label, name, 0)
            with pytest.raises(AttributeError):
                delattr(label, name)

    @pytest.mark.parametrize("make,fields,text", INTERNED_CASES, ids=INTERNED_IDS)
    def test_repr_is_unchanged(self, make, fields, text):
        assert repr(make()) == text

    def test_facts_match_the_class_by_class_oracle(self):
        labels = {make() for make, _, _ in LABEL_CASES}
        for model in ORACLE_MODELS:
            labels |= T.model_labels(model)
        # 9 is the last g-node color the grammar writes, 10 the first it cannot
        for label in [*labels, T.GLabel(9), T.GLabel(10)]:
            assert (label.key, label.color, label.partition, label.text) == label_facts(label)
            for name in ("key", "color", "partition", "text", "trees"):
                with pytest.raises(AttributeError):
                    setattr(label, name, None)
        with pytest.raises(ValueError, match=r"^single-digit grammar: g-node color must be <= 9$"):
            format_tree(Tree(T.GLabel(10)))

    def test_parsed_and_enumerated_labels_are_the_interned_ones(self):
        def labels(tree):
            yield tree.label
            for child in tree.children:
                yield from labels(child)

        trees = [parse_tree("[[t,W1]g(1,1,0),3,[W0]A]f"), parse_tree("()2"),
                 *enumerate_trees(T.SemiLinear(2), HalfInt(2))]
        for tree in trees:
            for label in labels(tree):
                fields = (getattr(label, name) for name in label.__slots__)
                assert label is type(label)(*fields)


class TestRho:
    def test_reference_tree_order(self):
        assert rho(parse_tree(EX2)) == HalfInt(13)
        assert rho(parse_tree(EX4)) == HalfInt(13)

    def test_leaf_cases(self):
        assert rho(parse_tree("g(1,1,0)")) == HalfInt(2)
        assert rho(parse_tree("g(1,1,1)")) == HalfInt(1)
        assert rho(parse_tree("t")) == HalfInt(2)
        assert rho(parse_tree("A")) == HalfInt(2)
        assert rho(parse_tree("W2")) == HalfInt(1)

    def test_bracket_additivity(self):
        assert rho(parse_tree("[t]A")) == HalfInt(4)
        for tree in enumerate_trees(T.SemiLinear(1), HalfInt(5)):
            if tree.children:
                own = 2 if tree.label.color == 0 else 1
                assert rho(tree).twice == own + sum(rho(c).twice for c in tree.children)

    def test_empty_tree_order_is_one_as_printed(self):
        assert rho(T.EMPTY) == HalfInt(2)


def brute_alpha(tree: Tree) -> Fraction:
    """Independent oracle: the share of child orderings that are distinct,
    counted by explicit permutation enumeration, accumulated over nodes."""
    import itertools
    import math

    if tree.is_leaf:
        return Fraction(1)
    kids = list(tree.children)
    perms = {tuple(kids[i] for i in p)
             for p in itertools.permutations(range(len(kids)))}
    value = Fraction(len(perms), math.factorial(len(kids)))
    for child in kids:
        value *= brute_alpha(child)
    return value


def fraction_alpha(tree: Tree) -> Fraction:
    """Oracle for alpha: a product of Fractions, one inverse factorial per
    run of equal children."""
    if tree.is_empty or tree.is_leaf:
        return Fraction(1)
    out = Fraction(1)
    for _, group in itertools.groupby(tree.children):
        rep = 0
        for child in group:
            rep += 1
            out *= fraction_alpha(child)
        out /= Fraction(math.factorial(rep))
    return out


class TestAlpha:
    def test_reference_tree_coefficient(self):
        assert alpha(parse_tree(EX2)) == Fraction(1, 2)
        assert alpha(parse_tree(EX4)) == Fraction(1, 2)

    def test_single_node(self):
        assert alpha(parse_tree("g(1,1,0)")) == 1
        assert alpha(parse_tree("1")) == 1
        assert alpha(T.EMPTY) == 1

    def test_repeated_children_halve(self):
        assert alpha(parse_tree("[t,t]A")) == Fraction(1, 2)
        assert alpha(parse_tree("[1,1,1]1")) == Fraction(1, 6)

    @pytest.mark.parametrize("model,cap", [
        (T.SemiLinear(1), HalfInt(8)),
        (T.langevin_model(), HalfInt(7)),
        (T.NonAutonomous.from_table(M=1, l=1, variants={0: 1, 1: 1}), HalfInt(6)),
        (T.SemiLinear(2), HalfInt(7)),
        (T.NonAutonomous.from_table(M=1, l=2, variants={0: 2, 1: 1}), HalfInt(7)),
        (T.GeneralPartitioned.from_table(Q=2, M=1, table={(0, 1): 1, (1, 1): 1, (0, 2): 1}),
         HalfInt(7)),
    ], ids=["semilinear", "langevin", "nonautonomous", "semilinear-2", "nonautonomous-l2",
            "general"])
    def test_symmetry_factor_matches_fraction_recursion(self, model, cap):
        for tree in enumerate_trees(model, cap):
            assert alpha(tree) == fraction_alpha(tree) == Fraction(1, T.symmetry(tree))

    def test_against_multiset_count_oracle(self):
        for tree in enumerate_trees(T.SemiLinear(1), HalfInt(6)):
            got = alpha(tree)
            assert got == brute_alpha(tree)
            assert 0 < got <= 1


def brute_force_trees(model, rho_max: HalfInt) -> set:
    """Generate-all-then-filter oracle: grow every tree shape by repeatedly
    attaching one node, then keep the valid ones within the order bound."""
    labels = model.node_labels()
    adjoined = [t.label for t in model.adjoined_leaves()]
    seeds = [canonicalize(Tree(lab)) for lab in labels]
    out = {t for t in seeds if rho(t) <= rho_max}
    frontier = set(out)
    while frontier:
        new = set()
        for tree in frontier:
            for lab in labels + adjoined:
                for grown in attach_everywhere(tree, Tree(lab)):
                    try:
                        grown = canonicalize(grown, model)
                    except (InvalidLabel, SemiLinearArity):
                        continue
                    if rho(grown) <= rho_max and grown not in out:
                        new.add(grown)
        out |= new
        frontier = new
    # members of T exclude the child-only leaves
    return {t for t in out if not isinstance(t.label, (T.TLabel, T.WLabel))}


def attach_everywhere(tree: Tree, leaf_tree: Tree):
    if not isinstance(tree.label, (T.TLabel, T.WLabel)):
        yield Tree(tree.label, tree.children + (leaf_tree,))
    for i, child in enumerate(tree.children):
        for grown in attach_everywhere(child, leaf_tree):
            yield Tree(tree.label, tree.children[:i] + (grown,) + tree.children[i + 1:])


class TestEnumeration:
    def test_semilinear_half_order(self):
        got = enumerate_trees(T.SemiLinear(1), HalfInt(1))
        assert [format_tree(t) for t in got] == ["1"]

    def test_semilinear_order_one(self):
        got = enumerate_trees(T.SemiLinear(1), HalfInt(2))
        assert {format_tree(t) for t in got} == {"1", "0", "A", "[1]1"}

    def test_no_duplicates_and_sorted(self):
        got = enumerate_trees(T.langevin_model(), HalfInt(6))
        assert len(got) == len(set(got))
        keys = [tree_key(t) for t in got]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("model", ORACLE_MODELS, ids=ORACLE_IDS)
    def test_equals_sorting_enumeration_element_for_element(self, model):
        for cap in map(HalfInt, range(1, 9)):
            assert enumerate_trees(model, cap) == sorted_enumeration(model, cap)

    @pytest.mark.parametrize("model", [T.SemiLinear(1), T.SemiLinear(2)],
                             ids=["semilinear", "semilinear-2"])
    def test_a_node_children_are_the_accepted_multisets(self, model):
        # the pool of child candidates at half-order 2*4: the time leaf and
        # every tree with 2*rho <= 7, in tree_key order
        pool = sorted([T.T_LEAF, *enumerate_trees(model, HalfInt(7))], key=tree_key)
        for budget in range(0, 8):
            accepted = []
            for combo in T._weighted_multisets(pool, budget):
                try:
                    T.a_node_children(combo)
                except SemiLinearArity:
                    continue
                accepted.append(combo)
            assert list(T._a_node_multisets(pool, budget)) == accepted

    @pytest.mark.parametrize("model", [
        T.SemiLinear(1),
        T.langevin_model(),
        T.NonAutonomous.from_table(M=1, l=1, variants={0: 1, 1: 1}),
    ], ids=["semilinear", "langevin", "nonautonomous"])
    def test_matches_brute_force_oracle(self, model):
        cap = HalfInt(6)
        fast = set(enumerate_trees(model, cap))
        slow = brute_force_trees(model, cap)
        assert fast == slow

    def test_example_tree_is_a_member_at_its_order(self):
        # The full enumeration at order 13/2 exceeds the safety cap (the
        # model genuinely has > 10^6 trees there), so membership is checked
        # through validity + order, with completeness covered above.
        model = T.langevin_model()
        ex2 = parse_tree(EX2, model)
        validate_tree(ex2, model)  # raises unless ex2 is a member
        assert rho(ex2) <= HalfInt(13)
        with pytest.raises(CapExceeded):
            enumerate_trees(model, HalfInt(13))

    def test_cap_exceeded_is_loud(self):
        with pytest.raises(CapExceeded):
            enumerate_trees(T.SemiLinear(1), HalfInt(12), cap=100)

    def test_cap_is_reached_before_memory_follows_the_bound(self):
        # levels are allocated as the enumeration reaches them, so a huge
        # order bound costs nothing before the cap trips
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded):
                enumerate_trees(T.SemiLinear(1), HalfInt(2_000_000), cap=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20

    @pytest.mark.parametrize("model", ORACLE_MODELS, ids=ORACLE_IDS)
    def test_count_equals_the_enumeration_per_order(self, model):
        cap = HalfInt(8)
        sizes = [0] * (cap.twice + 1)
        for tree in enumerate_trees(model, cap):
            sizes[T.rho2(tree)] += 1
        assert T.count_trees(model, cap) == sizes

    def test_count_of_one_label_is_the_rooted_tree_numbers(self):
        # OEIS A000081 at orders 1..8
        model = T.GeneralPartitioned.from_table(Q=1, M=0, table={(0, 1): 1})
        counts = T.count_trees(model, HalfInt(16))
        assert counts[2::2] == [1, 1, 2, 4, 9, 20, 48, 115]
        assert counts[1::2] == [0] * 8

    def test_count_stops_once_the_total_passes_the_cap(self):
        counts = T.count_trees(T.SemiLinear(1), HalfInt(2_000_000), cap=10)
        assert counts == [0, 1, 3, 7]

    def test_count_builds_no_tree(self, monkeypatch):
        def build(cls, *args):
            raise AssertionError("a tree was built")

        model = T.langevin_model()
        monkeypatch.setattr(T.Tree, "__new__", build)
        assert sum(T.count_trees(model, HalfInt(13))) == 6_112_224

    def test_cap_is_checked_before_any_tree_is_built(self, monkeypatch):
        built = []
        monkeypatch.setattr(T, "_built_trees", lambda *args: built.append(args))
        with pytest.raises(CapExceeded, match="more than 1000000 trees below order 13/2"):
            T.iter_trees(T.SemiLinear(1), HalfInt(13))
        assert built == []

    def test_cap_admits_a_census_of_its_size(self):
        model, order = T.SemiLinear(1), HalfInt(5)
        assert len(enumerate_trees(model, order, cap=95)) == 95
        with pytest.raises(CapExceeded):
            enumerate_trees(model, order, cap=94)

    def test_time_leaf_with_children_is_not_a_member(self):
        # [[0]t]A: the time leaf is leaf-only
        raw = Tree(T.ALabel(), (Tree(T.TLabel(), (Tree(T.GLabel(0)),)),))
        with pytest.raises(T.TreeError):
            validate_tree(raw, T.SemiLinear(1))

    def test_every_member_satisfies_model_predicate(self):
        model = T.SemiLinear(2)
        for tree in enumerate_trees(model, HalfInt(5)):
            validate_tree(tree, model)


# The bracket alphabet with label starts, ASCII and non-ASCII digits and
# whole labels, so that both valid and broken trees come up.
PARSE_TOKENS = ["[", "]", ",", "(", ")", "g(", "W", "()", "t", "A", "f", " ",
                "0", "1", "2", "7", "\u0661", "\uff13", "g(1,1,0)", "g(2,1,0)",
                "g(1,2,1)", "W1", "W0", "[t,t]A"]


class TestSerialization:
    @pytest.mark.parametrize("model,cap", [
        (T.SemiLinear(1), HalfInt(5)),
        (T.langevin_model(), HalfInt(6)),
    ], ids=["semilinear", "langevin"])
    def test_round_trip(self, model, cap):
        for tree in enumerate_trees(model, cap):
            assert parse_tree(format_tree(tree)) == tree

    def test_unsorted_string_parses_to_canonical(self):
        tree = parse_tree(EX4)
        assert format_tree(tree) == "[t,[0,[t,t]A]1]A"
        assert parse_tree(format_tree(tree)) == tree

    @pytest.mark.parametrize("text, pos", [("[1]", 3), ("[1,", 3), ("[", 1), ("", 0)])
    def test_end_of_input_is_named(self, text, pos):
        want = f"unexpected end of input at position {pos} in {text!r}"
        for parse in (parse_tree, oracle_parse_tree):
            with pytest.raises(T.ParseError) as err:
                parse(text)
            assert str(err.value) == want

    @given(st.text(max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_parser_never_crashes_unexpectedly(self, text):
        try:
            parse_tree(text)
        except (T.ParseError, InvalidLabel, SemiLinearArity):
            pass

    @given(text=st.lists(st.sampled_from(PARSE_TOKENS), max_size=16).map("".join),
           model=st.sampled_from([None, T.SemiLinear(1), T.langevin_model()]))
    @settings(max_examples=400, deadline=None)
    def test_equals_recursive_descent_parser(self, text, model):
        try:
            want = oracle_parse_tree(text, model)
        except Exception as err:
            with pytest.raises(Exception) as got:
                parse_tree(text, model)
            assert (type(got.value), str(got.value)) == (type(err), str(err))
        else:
            assert parse_tree(text, model) is want


# The per-model label checks that model_labels replaced, kept as an oracle.
def _general_partitioned_check(model, label):
    if isinstance(label, T.EmptyLabel):
        if not 1 <= label.q <= model.Q:
            raise InvalidLabel(f"empty-tree partition {label.q} out of range")
        return
    if not isinstance(label, T.GeneralLabel):
        raise InvalidLabel(f"{label!r} is not a general-partitioned label")
    if not (1 <= label.q <= model.Q and 0 <= label.m <= model.M
            and 1 <= label.v <= model.variants(label.m, label.q)):
        raise InvalidLabel(f"label {label!r} out of model range")


def _nonautonomous_check(model, label):
    if isinstance(label, T.EmptyLabel):
        if label.q != 1:
            raise InvalidLabel("vertical model has a single empty tree")
        return
    if isinstance(label, T.TLabel):
        return
    if isinstance(label, T.WLabel):
        if not 1 <= label.i <= model.l:
            raise InvalidLabel(f"W-index {label.i} out of range")
        return
    if not isinstance(label, T.GeneralLabel) or label.q != 1:
        raise InvalidLabel(f"{label!r} is not a non-autonomous label")
    if not (0 <= label.m <= model.M and 1 <= label.v <= model.variants_of(label.m)):
        raise InvalidLabel(f"label {label!r} out of model range")


def _semilinear_check(model, label):
    if isinstance(label, (T.EmptyLabel, T.TLabel, T.ALabel)):
        if isinstance(label, T.EmptyLabel) and label.q != 1:
            raise InvalidLabel("semi-linear model has a single empty tree")
        return
    if isinstance(label, T.GLabel):
        if not 0 <= label.m <= model.M:
            raise InvalidLabel(f"g-node color {label.m} out of range")
        return
    raise InvalidLabel(f"{label!r} is not a semi-linear label")


def _oracle_accepts(model, label) -> bool:
    check = {T.GeneralPartitioned: _general_partitioned_check,
             T.NonAutonomous: _nonautonomous_check,
             T.SemiLinear: _semilinear_check}[type(model)]
    try:
        check(model, label)
    except InvalidLabel:
        return False
    return True


LABEL_GRID = (
    [T.GeneralLabel(q, v, m) for q in range(4) for v in range(4) for m in range(4)]
    + [T.GLabel(m) for m in range(-1, 4)]
    + [T.WLabel(i) for i in range(4)]
    + [T.EmptyLabel(q) for q in range(4)]
    + [T.TLabel(), T.ALabel(), T.FLabel()]
)


class TestModelLabels:
    @pytest.mark.parametrize("model", [
        T.SemiLinear(1),
        T.SemiLinear(2),
        T.langevin_model(),
        T.NonAutonomous.from_table(M=1, l=1, variants={0: 1, 1: 1}),
        T.NonAutonomous.from_table(M=2, l=2, variants={0: 2, 1: 0, 2: 1}),
        T.GeneralPartitioned.from_table(Q=2, M=1, table={(0, 1): 1, (1, 1): 0,
                                                         (0, 2): 2}),
    ], ids=["semilinear", "semilinear-2", "langevin", "nonautonomous",
            "nonautonomous-zero-variant", "general-zero-variant"])
    def test_membership_matches_per_model_checks(self, model):
        for label in LABEL_GRID:
            assert (label in T.model_labels(model)) == _oracle_accepts(model, label), label


@pytest.mark.parametrize("text", ["[t]()", "[1,0]()"])
def test_empty_tree_with_children_is_invalid(text):
    with pytest.raises(InvalidLabel, match=r"^the empty tree cannot have children$") as info:
        parse_tree(text)
    assert type(info.value) is InvalidLabel
