"""Decompositions ST/SP and the multiplicity coefficient gamma."""

from fractions import Fraction

import pytest
from oracles import fraction_from_acc, fraction_product

from sbseries import expr as E
from sbseries import trees as T
from sbseries.forest_ops import PairNotInST, SubtreePair, gamma, split_pairs, subtree_pairs
from sbseries.series import BSeries, compose, derivative_product, exact_solution_series
from sbseries.serk import builtin_exponential_midpoint, erk_weights, order_residuals
from sbseries.trees import (
    HalfInt,
    Tree,
    canonicalize,
    empty_tree,
    enumerate_trees,
    parse_tree,
    rho,
    tree_key,
)

EX2 = "[[[g(2,1,0),g(2,1,0)]g(1,2,0),g(1,1,0)]g(1,1,1),g(2,1,0)]g(1,2,0)"

MODELS = pytest.mark.parametrize("model", [
    T.SemiLinear(1),
    T.langevin_model(),
    T.NonAutonomous.from_table(M=1, l=1, variants={0: 1, 1: 1}),
], ids=["semilinear", "langevin", "nonautonomous"])


def marking_decompositions(tau: Tree):
    """Independent oracle: enumerate every keep/cut marking of the nodes
    (children distinguished by position) and emit its (theta, omega) with
    multiplicity one per marking.  The coefficient of a merged pair must
    equal the number of markings producing it."""
    if tau.is_leaf:
        yield empty_tree(tau.label.partition), (tau,)
        yield tau, ()
        return
    yield empty_tree(tau.label.partition), (tau,)

    def child_options(child: Tree):
        if child.is_leaf:
            yield None, (child,)   # cut
            yield child, ()        # kept
            return
        yield None, (child,)
        grids = [list(child_options(c)) for c in child.children]
        for combo in _product(grids):
            kept = tuple(c for c, _ in combo if c is not None)
            rem = tuple(t for _, ts in combo for t in ts)
            yield canonicalize(Tree(child.label, kept)), rem

    grids = [list(child_options(c)) for c in tau.children]
    for combo in _product(grids):
        kept = tuple(c for c, _ in combo if c is not None)
        rem = tuple(t for _, ts in combo for t in ts)
        yield canonicalize(Tree(tau.label, kept)), tuple(sorted(rem, key=tree_key))


def _product(grids):
    if not grids:
        yield ()
        return
    for head in grids[0]:
        for tail in _product(grids[1:]):
            yield (head,) + tail


def counted_markings(tau: Tree) -> dict:
    counts: dict = {}
    for theta, rem in marking_decompositions(tau):
        rem = tuple(sorted((t for t in rem), key=tree_key))
        counts[(theta, rem)] = counts.get((theta, rem), 0) + 1
    return counts


def canonicalizing_st_table(tau: Tree) -> list:
    """Oracle: the decomposition table built by re-canonicalizing every
    joined prefix (theta) instead of sorting canonical kept prefixes."""
    root_empty = empty_tree(tau.label.partition)
    if tau.is_leaf:
        return [(root_empty, (tau,), 1), (tau, (root_empty,), 1)]
    acc: dict = {}
    for choice in _product([canonicalizing_st_table(c) for c in tau.children]):
        kept = tuple(th for th, _, _ in choice if not th.is_empty)
        theta = canonicalize(Tree(tau.label, kept))
        omega = tuple(sorted((t for _, om, _ in choice for t in om if not t.is_empty),
                             key=tree_key))
        g = 1
        for _, _, gc in choice:
            g *= gc
        acc[(theta, omega)] = acc.get((theta, omega), 0) + g
    acc[(root_empty, (tau,))] = acc.get((root_empty, (tau,)), 0) + 1
    items = sorted(acc.items(), key=lambda kv: (tree_key(kv[0][0]),
                                                tuple(tree_key(t) for t in kv[0][1])))
    return [(theta, omega, g) for (theta, omega), g in items]


def oracle_decomposition_sum(phi_x: BSeries, phi_y: BSeries, single: bool,
                             trees=None) -> dict:
    """For every tree of ``trees`` (by default every stored tree of phi_x),
    the sum over the rows (theta, omega, g) of :func:`canonicalizing_st_table`
    (only those with one remainder tree when ``single``) of g * phi_y(theta)
    * product of phi_x over omega, expanded by the ``Fraction`` oracle; zero
    sums are left out."""
    out = {}
    for tau in phi_x.weights if trees is None else trees:
        total: dict = {}
        for theta, omega, g in canonicalizing_st_table(tau):
            if single and len(omega) != 1:
                continue
            factors = [phi_y.weight(theta)] + [phi_x.weight(delta) for delta in omega]
            for c, mono in fraction_product(factors, g).terms:
                total[mono] = total.get(mono, 0) + c
        weight = fraction_from_acc(total)
        if not weight.is_zero:
            out[tau] = weight
    return out


class TestSubtreePairs:
    @MODELS
    def test_sorted_prefix_join_matches_canonicalize(self, model):
        for tau in enumerate_trees(model, HalfInt(6)):
            got = [(p.subtree, p.remainder, p.coefficient) for p in subtree_pairs(tau)]
            assert got == canonicalizing_st_table(tau), str(tau)


    def test_leaf_base_case_as_printed(self):
        leaf = parse_tree("g(2,1,0)")
        pairs = subtree_pairs(leaf)
        assert len(pairs) == 2
        assert pairs[0].subtree == empty_tree(2)
        assert pairs[0].remainder == (leaf,)
        assert pairs[1].subtree == leaf
        assert pairs[1].remainder == (empty_tree(2),)
        assert all(p.coefficient == 1 for p in pairs)

    def test_single_child_bracket(self):
        tau = parse_tree("[g(2,1,0)]g(1,2,0)")
        pairs = {(p.subtree, p.remainder): p.coefficient for p in subtree_pairs(tau)}
        assert pairs == {
            (empty_tree(1), (tau,)): 1,
            (parse_tree("g(1,2,0)"), (parse_tree("g(2,1,0)"),)): 1,
            (tau, ()): 1,
        }

    def test_example_tree_sizes(self):
        tau = parse_tree(EX2)
        assert len(subtree_pairs(tau)) == 19
        assert len(split_pairs(tau)) == 6

    @pytest.mark.parametrize("model", [T.SemiLinear(1), T.langevin_model()],
                             ids=["semilinear", "langevin"])
    def test_matches_marking_oracle(self, model):
        for tau in enumerate_trees(model, HalfInt(6)):
            got = {(p.subtree, p.remainder): p.coefficient for p in subtree_pairs(tau)}
            want = counted_markings(tau)
            # the oracle pads nothing: align the leaf base-case remainder
            if tau.is_leaf:
                want = {(th, rem if rem else (empty_tree(tau.label.partition),)): c
                        for (th, rem), c in want.items()}
            assert got == {k: Fraction(v) for k, v in want.items()}

    def test_reconstruction_node_balance(self):
        # every decomposition splits the node multiset of tau exactly
        for tau in enumerate_trees(T.langevin_model(), HalfInt(6)):
            for p in subtree_pairs(tau):
                kept = 0 if p.subtree.is_empty else rho(p.subtree).twice
                cut = sum(rho(t).twice for t in p.remainder if not t.is_empty)
                assert kept + cut == rho(tau).twice


class TestSplitPairs:
    def test_example_three_listing(self):
        tau = parse_tree(EX2)
        a, b = parse_tree("g(2,1,0)"), parse_tree("g(1,1,0)")
        c11 = parse_tree("[g(2,1,0),g(2,1,0)]g(1,2,0)")
        c1 = parse_tree("[[g(2,1,0),g(2,1,0)]g(1,2,0),g(1,1,0)]g(1,1,1)")
        got = {(p.subtree, p.remainder): p.coefficient for p in split_pairs(tau)}
        want = {
            (empty_tree(1), (tau,)): Fraction(1),
            (parse_tree("[g(2,1,0)]g(1,2,0)"), (c1,)): Fraction(1),
            (canonicalize(Tree(tau.label, (c1,))), (a,)): Fraction(1),
            (parse_tree("[g(2,1,0),[g(1,1,0)]g(1,1,1)]g(1,2,0)"), (c11,)): Fraction(1),
            (parse_tree("[g(2,1,0),[g(1,1,0),[g(2,1,0)]g(1,2,0)]g(1,1,1)]g(1,2,0)"),
             (a,)): Fraction(2),
            (parse_tree("[g(2,1,0),[[g(2,1,0),g(2,1,0)]g(1,2,0)]g(1,1,1)]g(1,2,0)"),
             (b,)): Fraction(1),
        }
        assert got == want

    def test_single_node_keeps_both_pairs(self):
        leaf = parse_tree("1")
        pairs = split_pairs(leaf)
        assert len(pairs) == 2
        assert {p.subtree for p in pairs} == {empty_tree(1), leaf}

    def test_subset_of_subtree_pairs(self):
        for tau in enumerate_trees(T.SemiLinear(1), HalfInt(5)):
            st = {(p.subtree, p.remainder) for p in subtree_pairs(tau)}
            for p in split_pairs(tau):
                assert (p.subtree, p.remainder) in st
                assert len(p.remainder) == 1


class TestDecompositionSums:
    """The series operations sum the unordered table: any row order gives
    the sums over the sorted oracle table."""

    @MODELS
    def test_compose_equals_the_oracle_table_sum(self, model):
        phi = exact_solution_series(model, HalfInt(6))
        assert compose(phi, phi).weights == oracle_decomposition_sum(phi, phi, False)

    @MODELS
    def test_derivative_product_equals_the_oracle_table_sum(self, model):
        phi = exact_solution_series(model, HalfInt(6))
        incr = BSeries(model, phi.order_cap, dict(phi.weights), E.ZERO)
        assert (derivative_product(incr, phi).weights
                == oracle_decomposition_sum(incr, phi, True))

    @pytest.fixture(scope="class")
    def stage(self):
        # the midpoint rule's stage weights plus its residuals, exact minus
        # numerical weights: 80 of the 96 weights have several terms
        method, cap = builtin_exponential_midpoint(), HalfInt(5)
        _, (stage,) = erk_weights(method, cap)
        weights = dict(stage.weights)
        for r in order_residuals(method, cap):
            weights[r.tree] = stage.weight(r.tree) + r.residual
        assert (sum(len(w.terms) > 1 for w in weights.values()), len(weights)) == (80, 96)
        return BSeries(stage.model, cap, weights)

    @staticmethod
    def domain(model, cap):
        return enumerate_trees(model, cap) + list(model.adjoined_leaves())

    def test_several_term_operands_equal_the_oracle_table_sum(self, stage):
        # one fold table when phi_x is phi_y, two when not, either operand
        # with several-term weights
        phi = exact_solution_series(stage.model, stage.order_cap)
        trees = self.domain(stage.model, stage.order_cap)
        for x, y in [(stage, stage), (stage, phi), (phi, stage)]:
            assert compose(x, y).weights == oracle_decomposition_sum(x, y, False, trees)
            incr = BSeries(x.model, x.order_cap, dict(x.weights), E.ZERO)
            assert (derivative_product(incr, y).weights
                    == oracle_decomposition_sum(incr, y, True, trees))

    def test_stored_zero_weights_equal_the_oracle_table_sum(self, stage):
        # a stored ZERO is a zero factor, in either operand
        model, cap = stage.model, HalfInt(4)
        phi = exact_solution_series(model, cap)
        zeroed = BSeries(model, cap, {t: E.ZERO if k % 3 == 0 else w
                                      for k, (t, w) in enumerate(phi.weights.items())})
        assert sum(w.is_zero for w in zeroed.weights.values()) > 10
        trees = self.domain(model, cap)
        for x, y in [(zeroed, zeroed), (zeroed, phi), (phi, zeroed)]:
            assert compose(x, y).weights == oracle_decomposition_sum(x, y, False, trees)

    def test_single_node_rows_read_the_empty_weights(self):
        # a single node's rows are (empty, {node}) and (node, {empty}):
        # compose reads phi_x(empty) = 1 and the derivative product
        # phi_x(empty) = 0; phi_y(empty) has two terms
        model = T.SemiLinear(1)
        cap = HalfInt(2)
        leaf, t_leaf = parse_tree("1"), model.adjoined_leaves()[0]
        y = BSeries(model, cap, {leaf: E.dw(1).scaled(3)}, E.ONE + E.H)
        x_weights = {leaf: E.H.scaled(2), t_leaf: E.H}
        x = BSeries(model, cap, x_weights)
        composed = compose(x, y).weights
        assert composed[leaf] == (E.ONE + E.H) * E.H.scaled(2) + E.dw(1).scaled(3)
        assert composed[t_leaf] == (E.ONE + E.H) * E.H
        incr = BSeries(model, cap, x_weights, E.ZERO)
        product = derivative_product(incr, y).weights
        assert product[leaf] == (E.ONE + E.H) * E.H.scaled(2)
        trees = [leaf, t_leaf]
        assert {t: composed[t] for t in trees} == oracle_decomposition_sum(x, y, False, trees)
        assert ({t: product[t] for t in trees}
                == oracle_decomposition_sum(incr, y, True, trees))


class TestGamma:
    @MODELS
    def test_gamma_is_the_coefficient_of_every_row(self, model):
        for tau in enumerate_trees(model, HalfInt(6)):
            for pair in subtree_pairs(tau):
                assert gamma(tau, pair) == pair.coefficient, (str(tau), str(pair))

    def test_empty_identity(self):
        pair = SubtreePair(empty_tree(1), (parse_tree("1"),), Fraction(1))
        assert gamma(parse_tree("1"), pair) == 1

    def test_empty_tree_is_its_own_decomposition(self):
        pair = SubtreePair(T.EMPTY, (T.EMPTY,), Fraction(1))
        assert gamma(T.EMPTY, pair) == 1

    def test_full_and_root_cut_are_one(self):
        for tau in enumerate_trees(T.langevin_model(), HalfInt(6)):
            pairs = {(p.subtree, p.remainder): p.coefficient for p in subtree_pairs(tau)}
            root_cut = (empty_tree(tau.label.partition), (tau,))
            assert pairs[root_cut] == 1
            full = (tau, (empty_tree(tau.label.partition),) if tau.is_leaf else ())
            assert pairs[full] == 1

    def test_symmetric_cut_counts_positions(self):
        tau = parse_tree("[t,t]A")
        sub = parse_tree("[t]A")
        pair = next(p for p in subtree_pairs(tau) if p.subtree == sub)
        assert pair.coefficient == 2

    def test_not_in_st_raises(self):
        tau = parse_tree("[1]1")
        bogus = SubtreePair(parse_tree("0"), (parse_tree("1"),), Fraction(1))
        with pytest.raises(PairNotInST):
            gamma(tau, bogus)

    def test_coefficients_positive(self):
        for tau in enumerate_trees(T.SemiLinear(1), HalfInt(5)):
            assert all(p.coefficient > 0 for p in subtree_pairs(tau))


@pytest.mark.parametrize("pairs", [subtree_pairs, split_pairs])
def test_pairs_of_the_empty_tree_raise(pairs):
    with pytest.raises(ValueError, match=r"^ST is defined for non-empty trees$") as info:
        pairs(empty_tree())
    assert type(info.value) is ValueError
