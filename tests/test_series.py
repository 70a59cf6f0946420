"""Weight expressions and B-series operations."""

import hashlib
import math
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    fraction_accumulate,
    fraction_from_acc,
    fraction_integral,
    fraction_product,
    oracle_atom_key,
    oracle_mono_key,
    oracle_mono_mul,
    rational_hpoly,
)
from test_imports import run_python

from sbseries import expr as E
from sbseries import memo
from sbseries import trees as T
from sbseries.expr import ExprParseError, parse_expr
from sbseries.series import (
    BSeries,
    EmptyWeightNotOne,
    EmptyWeightNotZero,
    compose,
    derivative_product,
    exact_solution_series,
    exact_weight,
    function_series,
    identity_weights,
)
from sbseries.trees import HalfInt, ModelMismatch, Tree, alpha, enumerate_trees, parse_tree

EX2 = "[[[g(2,1,0),g(2,1,0)]g(1,2,0),g(1,1,0)]g(1,1,1),g(2,1,0)]g(1,2,0)"


class TestExprNormalization:
    def test_int0_of_one_is_h(self):
        assert E.integral(0, [E.ONE]) == E.H

    def test_intm_of_one_is_increment(self):
        assert E.integral(1, [E.ONE]) == E.dw(1)

    def test_deterministic_chain_reduces(self):
        expr = E.integral(0, [E.integral(0, [E.integral(0, [E.ONE])])])
        assert expr == E.h_power(3, Fraction(1, 6))

    def test_deterministic_product_reduces(self):
        # int_0^h s * s^2 ds = h^4/4
        expr = E.integral(0, [E.H, E.h_power(2)])
        assert expr == E.h_power(4, Fraction(1, 4))

    def test_sum_distribution(self):
        f = E.H + E.rational(1)
        assert E.integral(0, [f]) == E.h_power(2, Fraction(1, 2)) + E.H

    def test_zero_terms_dropped(self):
        assert (E.H - E.H).is_zero
        assert E.integral(0, [E.ZERO]).is_zero

    def test_merging_like_atoms(self):
        a = E.integral(1, [E.H])
        assert a + a == a.scaled(Fraction(2))

    def test_stochastic_integrand_kept_symbolic(self):
        expr = E.integral(1, [E.dw(1)])
        assert str(expr) == "Int1[dW1]"
        assert not expr.is_deterministic

    def test_text_round_trip(self):
        samples = [
            "1/3*Int0[Int1[s^4],s]",
            "3/8*h^2*dW1",
            "Int1[dW1] - 1/2*dW1^2 + h",
            "dW2^3",
            "Int0[dW1,s^2]^2",
        ]
        for text in samples:
            assert str(parse_expr(text)) == text
            assert parse_expr(text + " ") == parse_expr(text)  # trailing blank

    def test_parse_rejects_garbage(self):
        for bad in ["h +", "Int1[", "dW", "1//2", "q"]:
            with pytest.raises(ExprParseError):
                parse_expr(bad)

    def test_parenthesized_group_distributes(self):
        assert parse_expr("2*(h+dW1)") == parse_expr("2*dW1 + 2*h")


def _exprs():
    atoms = st.sampled_from([
        E.ONE, E.H, E.h_power(2), E.dw(1), E.dw(2),
        E.rational(Fraction(-2, 3)),
        E.integral(1, [E.H]),
        E.integral(0, [E.dw(1)]),
        E.integral(1, [E.integral(1, [E.ONE])]),
    ])

    def combine(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: ab[0] + ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] * ab[1]),
            children.map(lambda e: e.scaled(Fraction(3, 2))),
        )

    return st.recursive(atoms, combine, max_leaves=6)


class TestExprAlgebraProperties:
    @given(_exprs(), _exprs())
    @settings(max_examples=150, deadline=None)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(_exprs(), _exprs(), _exprs())
    @settings(max_examples=100, deadline=None)
    def test_associativity_and_distribution(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(_exprs())
    @settings(max_examples=100, deadline=None)
    def test_units_and_cancellation(self, a):
        assert a + E.ZERO == a
        assert a * E.ONE == a
        assert (a - a).is_zero

    @given(_exprs(), _exprs())
    @settings(max_examples=150, deadline=None)
    def test_difference_is_the_sum_with_the_negation(self, a, b):
        got = a - b
        assert got == a + (-b)
        assert _normalized_fractions(got)
        assert (got + b) == a

    @given(_exprs(), _exprs())
    @settings(max_examples=100, deadline=None)
    def test_integral_linearity(self, a, b):
        assert E.integral(1, [a + b]) == E.integral(1, [a]) + E.integral(1, [b])

    @given(_exprs())
    @settings(max_examples=80, deadline=None)
    def test_display_round_trip(self, a):
        assert parse_expr(str(a)) == a

    @given(_exprs(), st.integers(min_value=0, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_power_by_squaring_is_the_repeated_product(self, a, n):
        product = E.ONE
        for _ in range(n):
            product = product * a
        assert a ** n == product

    def test_huge_power_is_fast(self):
        # squaring needs ~27 products for this exponent, not 10^8
        assert parse_expr("h^99999999") == E.h_power(99999999)

    @pytest.mark.parametrize("apply", [
        lambda a: a + 1, lambda a: a - 1, lambda a: a * 1.5,
    ], ids=["add", "sub", "mul"])
    def test_non_expression_operand_raises_type_error(self, apply):
        with pytest.raises(TypeError):
            apply(E.H)


def _fold_sum(products) -> E.WeightExpr:
    """The sum written as the repeated-addition fold the accumulator replaces."""
    total = E.ZERO
    for scale, factors in products:
        term = E.ONE
        for f in factors:
            term = term * f
        total = total + term.scaled(scale)
    return total


_scales = st.fractions(min_value=-3, max_value=3, max_denominator=4)


class TestAccumulator:
    @given(st.lists(st.tuples(_scales, st.lists(_exprs(), max_size=3)),
                    max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_normalize_once_equals_fold(self, products):
        acc = {}
        for scale, factors in products:
            E.accumulate(acc, factors, scale)
        got = E.from_acc(acc)
        want = _fold_sum(products)
        assert got.terms == want.terms
        assert E.format_expr(got) == E.format_expr(want)

    def test_product_past_the_pair_bound_raises_and_adds_nothing(self, monkeypatch):
        # 2 + 4 pairs form (h+dW1)*(h+dW2); times h forms 4 more
        monkeypatch.setattr(E, "MAX_TERM_PAIRS", 6)
        a, b = E.H + E.dw(1), E.H + E.dw(2)
        acc = {}
        E.accumulate(acc, [a, b])
        assert E.from_acc(acc) == a * b
        with pytest.raises(E.ExprError, match=r"^product too large to expand: more than 6 term pairs$"):
            E.accumulate(acc, [a, b, E.H])
        assert E.from_acc(acc) == a * b

    def test_huge_many_term_power_raises_at_once(self):
        # (h+dW1+dW2)^160 has 13,041 terms; squaring up to it would form
        # millions of term pairs
        start = time.perf_counter()
        with pytest.raises(E.ExprError, match=r"more than 200,000 term pairs"):
            parse_expr("(h+dW1+dW2)^160")
        assert time.perf_counter() - start < 1.0

    def test_long_chain_of_many_term_factors_raises_at_once(self):
        # each product of 150 factors (h+dW1+dW2) forms under 200,000
        # pairs, but the chain would expand to 11,476 terms, which took
        # 20 s; the bound stops it after about 0.3 s (1.4 s under a line
        # tracer)
        start = time.perf_counter()
        with pytest.raises(E.ExprError, match=r"^expression too large to expand: "
                                              r"more than 50,000 term pairs$"):
            parse_expr("*".join(["(h+dW1+dW2)"] * 150))
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("text, pairs", [
        ("(h+dW1)*(h+dW2)*h", 2 * 2 + 4),
        ("(h+dW1)^3", 2 + 2 * 2 + 3 * 2),  # 1 * base, base * base, out * base
        ("Int1[h+dW1, h+dW2, dW1]*h", 2 * 2 + 4 + 4),
        ("h*h*dW1^9*Int1[s]^2 + (h+dW1)*2", 2),  # one-term products count nothing
    ], ids=["product", "power", "integrand", "one-term"])
    def test_parse_counts_the_pairs_of_its_products(self, monkeypatch, text, pairs):
        want = parse_expr(text)
        monkeypatch.setattr(E, "MAX_PARSE_PAIRS", pairs)
        assert parse_expr(text) == want
        monkeypatch.setattr(E, "MAX_PARSE_PAIRS", pairs - 1)
        with pytest.raises(E.ExprError, match=f"more than {pairs - 1} term pairs$"):
            parse_expr(text)

    def test_zero_factor_adds_nothing(self):
        acc = {}
        E.accumulate(acc, (E.H, E.ZERO, E.dw(1)))
        assert not acc
        assert E.from_acc(acc) == E.ZERO

    @given(st.one_of(st.integers(-4, 4), _scales),
           st.lists(st.one_of(st.just(E.ZERO), _exprs(),
                              st.tuples(_exprs(), _exprs()).map(lambda ab: ab[0] + ab[1])),
                    max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_product_equals_the_fraction_product(self, scale, factors):
        # zero, one-term and many-term factors: the one-pass fold over
        # one-term factors and the term-by-term expansion
        acc = {}
        E.accumulate(acc, factors, scale)
        assert E.from_acc(acc).terms == fraction_product(factors, scale).terms

    @pytest.mark.parametrize("factors", [
        (E.integral(1, [E.H]), E.dw(2), E.ZERO),
        (E.H + E.dw(1), E.integral(0, [E.dw(2)]), E.ZERO),
    ], ids=["one-term", "many-term"])
    def test_zero_factor_multiplies_no_monomial(self, factors):
        before = E.mono_mul.cache_info()
        E.accumulate({}, factors, Fraction(3, 2))
        assert E.mono_mul.cache_info() == before


def _normalized_fractions(expr: E.WeightExpr) -> bool:
    return all(type(c) is Fraction and c.denominator > 0
               and math.gcd(c.numerator, c.denominator) == 1 for c, _ in expr.terms)


class TestIntPairAccumulator:
    """The integer-pair accumulator against the Fraction one it replaced."""

    @given(st.lists(st.tuples(st.one_of(st.integers(-4, 4), _scales),
                              st.lists(_exprs(), max_size=3)), max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_fraction_accumulator(self, products):
        acc, want = {}, {}
        for scale, factors in products:
            E.accumulate(acc, factors, scale)
            fraction_accumulate(want, factors, scale)
        got = E.from_acc(acc)
        assert got.terms == fraction_from_acc(want).terms
        assert _normalized_fractions(got)

    @given(st.integers(0, 2), st.lists(_exprs(), max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_integral_equals_the_fraction_integral(self, color, factors):
        got = E.integral(color, factors)
        assert got.terms == fraction_integral(color, factors).terms
        assert _normalized_fractions(got)

    def test_exact_cancellation_drops_the_term(self):
        acc = {}
        E.accumulate(acc, [E.H + E.dw(1)], Fraction(2, 3))
        E.accumulate(acc, [E.H], Fraction(-2, 3))
        E.accumulate(acc, [E.dw(2)], 3)
        E.accumulate(acc, [E.dw(2)], -3)
        assert E.from_acc(acc) == E.dw(1).scaled(Fraction(2, 3))
        assert E.H.scaled(0) == E.ZERO

    def test_unequal_denominators_sum_over_their_lcm(self):
        acc = {}
        E.accumulate(acc, [E.rational(Fraction(1, 7919)), E.rational(Fraction(1, 7907))])
        E.accumulate(acc, [E.rational(Fraction(1, 7883))])
        assert acc[E.ONE_MONO][1] == 7919 * 7907 * 7883
        got = E.from_acc(acc)
        assert got == E.rational(Fraction(1, 7919 * 7907) + Fraction(1, 7883))
        assert _normalized_fractions(got)
        acc = {}
        E.accumulate(acc, [E.H], Fraction(1, 6))
        E.accumulate(acc, [E.H], Fraction(-1, 10))
        assert acc[E.H.terms[0][1]] == (2, 30)
        assert E.from_acc(acc).terms == ((Fraction(1, 15), E.H.terms[0][1]),)


class TestValueTypes:
    def _atom(self):
        return E.IntAtom(1, E.Mono(2, ((1, 1),)))

    def test_fresh_equal_instances_are_equal_and_hash_alike(self):
        # interned: an equal instance built afresh is the same object
        a = E.Mono(1, ((2, 1),), ((self._atom(), 2),))
        b = E.Mono(1, ((2, 1),), ((self._atom(), 2),))
        assert a is b
        assert a == b and hash(a) == hash(b)
        assert self._atom() == self._atom()
        assert hash(self._atom()) == hash(self._atom())
        assert a != E.Mono(1, ((2, 1),), ((self._atom(), 1),))
        assert self._atom() != E.IntAtom(0, E.Mono(2, ((1, 1),)))

    def test_weights_compare_by_value_and_only_with_weights(self):
        # not interned: equal weights built apart are equal objects
        a, b = E.parse_expr("1/2*h + dW1"), E.parse_expr("dW1 + 1/2*h")
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a != E.parse_expr("1/2*h") and E.ZERO != ()
        assert E.ONE != 1


# Uncached oracle: the text of a monomial computed from scratch on every
# call (the sort key and product oracles are in oracles.py).
def _format_mono(mono: E.Mono, depth: int) -> list[str]:
    var = "h" if depth == 0 else "s"
    parts: list[str] = []
    if depth == 0:
        if mono.hpow:
            parts.append(var if mono.hpow == 1 else f"{var}^{mono.hpow}")
        parts.extend(_format_dws(mono))
        parts.extend(_format_ints(mono, depth))
    else:
        # integrand factor lists read innermost-integral first, time power last
        parts.extend(_format_ints(mono, depth))
        parts.extend(_format_dws(mono))
        if mono.hpow:
            parts.append(var if mono.hpow == 1 else f"{var}^{mono.hpow}")
    return parts


def _format_dws(mono: E.Mono) -> list[str]:
    return [f"dW{m}" if p == 1 else f"dW{m}^{p}" for m, p in mono.dws]


def _format_ints(mono: E.Mono, depth: int) -> list[str]:
    out = []
    for atom, p in mono.ints:
        inner = ",".join(_format_mono(atom.integrand, depth + 1)) or "1"
        body = f"Int{atom.color}[{inner}]"
        out.append(body if p == 1 else f"{body}^{p}")
    return out


def _oracle_format_expr(expr: E.WeightExpr) -> str:
    if expr.is_zero:
        return "0"
    pieces = []
    for i, (coeff, mono) in enumerate(expr.terms):
        sign = "-" if coeff < 0 else "+"
        mag = -coeff if coeff < 0 else coeff
        factors = _format_mono(mono, 0)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if i == 0:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


def _monos(depth: int = 3):
    """Normalized-shape monomials whose integrals nest at most ``depth`` deep."""
    dws = st.dictionaries(st.integers(1, 2), st.integers(1, 3), max_size=2)
    if depth == 0:
        ints = st.just({})
    else:
        atoms = st.builds(E.IntAtom, st.integers(0, 2), _monos(depth - 1))
        ints = st.dictionaries(atoms, st.integers(1, 2), max_size=2)
    return st.builds(
        lambda hpow, d, i: E.Mono(
            hpow, tuple(sorted(d.items())),
            tuple(sorted(i.items(), key=lambda ap: oracle_atom_key(ap[0])))),
        st.integers(0, 3), dws, ints)


def _fresh(mono: E.Mono) -> E.Mono:
    """An equal monomial built from new instances all the way down."""
    return E.Mono(mono.hpow, tuple(mono.dws),
                  tuple((E.IntAtom(a.color, _fresh(a.integrand)), p) for a, p in mono.ints))


class TestExprCaches:
    @given(_monos())
    @settings(max_examples=150, deadline=None)
    def test_stored_keys_equal_the_oracle(self, mono):
        assert mono._key == oracle_mono_key(mono)
        assert _fresh(mono)._key == mono._key
        for atom, _ in mono.ints:
            assert atom._key == oracle_atom_key(atom)

    @given(_monos(), _monos())
    @settings(max_examples=150, deadline=None)
    def test_memoized_product_equals_the_oracle(self, a, b):
        got = E.mono_mul(a, b)
        want = oracle_mono_mul(a, b)
        assert got == want and hash(got) == hash(want)
        assert (got.hpow, got.dws, got.ints) == (want.hpow, want.dws, want.ints)
        assert got._key == oracle_mono_key(want)
        assert E.mono_mul(a, b) is got
        assert E.mono_mul(_fresh(a), _fresh(b)) is got

    @given(st.lists(st.tuples(_scales, _monos()), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_cached_text_equals_the_oracle(self, terms):
        acc = {}
        for c, mono in terms:
            E.accumulate(acc, [E.WeightExpr(((Fraction(1), mono),))], c)
        expr = E.from_acc(acc)
        assert E.format_expr(expr) == _oracle_format_expr(expr)
        for _, mono in expr.terms:
            text = E._mono_text(mono, False)
            assert E._mono_text(mono, False) is text
            assert E._mono_text(_fresh(mono), False) is text

    def test_compose_product_misses(self):
        # 19,202 products of 1,079 distinct pairs: a change that defeats
        # the memo, or multiplies other monomials, fails here
        phi = exact_solution_series(T.SemiLinear(1), HalfInt(7))
        memo.clear()
        compose(phi, phi)
        info = E.mono_mul.cache_info()
        assert info.misses == 1079
        assert info.hits > 10 * info.misses


    def test_exact_series_integral_misses(self):
        # 967 integrals of 322 distinct (color, integrand) pairs: a change
        # that defeats the memo, or integrates other monomials, fails here
        memo.clear()
        exact_solution_series(T.SemiLinear(1), HalfInt(7))
        info = E._integral_mono.cache_info()
        assert info.misses == 322
        assert info.hits > info.misses
        assert E.integral(1, [E.H]).terms[0][1] is E.integral(1, [E.H]).terms[0][1]


class TestExactWeights:
    def test_leaf_weights(self):
        assert exact_weight(parse_tree("1")) == E.dw(1)
        assert exact_weight(parse_tree("0")) == E.H
        assert exact_weight(parse_tree("A")) == E.H
        assert exact_weight(parse_tree("t")) == E.H
        assert exact_weight(parse_tree("g(1,1,2)")) == E.dw(2)

    def test_empty_tree_weight_is_one(self):
        assert exact_weight(T.EMPTY) == E.ONE
        assert exact_weight(T.empty_tree(2)) == E.ONE

    def test_example_tree_weight(self):
        phi = exact_weight(parse_tree(EX2))
        assert str(phi) == "1/3*Int0[Int1[s^4],s]"
        assert phi == parse_expr("1/3*Int0[Int1[s^4],s]")

    def test_deterministic_chain(self):
        assert exact_weight(parse_tree("[[0]0]0")) == E.h_power(3, Fraction(1, 6))

    def test_series_includes_adjoined_time_leaf(self):
        series = exact_solution_series(T.SemiLinear(1), HalfInt(2))
        assert series.weight(parse_tree("t")) == E.H
        assert series.weight(T.EMPTY) == E.ONE

    def test_missing_key_is_zero(self):
        series = exact_solution_series(T.SemiLinear(1), HalfInt(2))
        deep = parse_tree("[[[1]1]1]1")
        assert series.weight(deep).is_zero


class TestComposeIdentities:
    @pytest.mark.parametrize("model", [
        T.SemiLinear(1),
        T.langevin_model(),
        T.NonAutonomous.from_table(M=1, l=1, variants={0: 1, 1: 1}),
    ], ids=["semilinear", "langevin", "nonautonomous"])
    def test_identity_laws_exhaustive(self, model):
        cap = HalfInt(6)
        phi = exact_solution_series(model, cap)
        ident = identity_weights(model, cap)
        left = compose(ident, phi)
        right = compose(phi, ident)
        for tree in enumerate_trees(model, cap):
            assert left.weight(tree) == phi.weight(tree), str(tree)
            assert right.weight(tree) == phi.weight(tree), str(tree)
        assert left.empty_weight == E.ONE
        assert right.empty_weight == E.ONE

    def test_empty_weight_hypothesis_enforced(self):
        model = T.SemiLinear(1)
        phi = exact_solution_series(model, HalfInt(2))
        bad = BSeries(model, HalfInt(2), dict(phi.weights), E.ZERO)
        with pytest.raises(EmptyWeightNotOne):
            compose(bad, phi)

    def test_cap_monotonicity(self):
        model = T.SemiLinear(1)
        phi2 = exact_solution_series(model, HalfInt(4))
        phi3 = exact_solution_series(model, HalfInt(6))
        c2 = compose(phi2, phi2)
        c3 = compose(phi3, phi3)
        for tree in enumerate_trees(model, HalfInt(4)):
            assert c2.weight(tree) == c3.weight(tree), str(tree)


def euler_series(model, cap) -> BSeries:
    """One explicit Euler step of size h as a weight map: h on every single
    node, zero deeper."""
    weights = {}
    for tree in enumerate_trees(model, cap):
        if tree.is_leaf:
            weights[tree] = E.H
    return BSeries(model, cap, weights, E.ONE)


def rk_composite_weight(tree: Tree, a, b, step_scale: Fraction) -> E.WeightExpr:
    """Classical elementary-weight recursion for a Runge-Kutta tableau,
    scaled to step H = step_scale * h: the stage derivative weight of a
    bracket is the product over children of A-weighted child weights, and
    the tree weight is b dotted with the stage weights, times H^n."""

    def stage(i: int, t: Tree) -> Fraction:
        out = Fraction(1)
        for child in t.children:
            out *= sum((a[i][j] * stage(j, child) for j in range(len(b))),
                       Fraction(0))
        return out

    n = _node_count(tree)
    total = sum((b[i] * stage(i, tree) for i in range(len(b))), Fraction(0))
    return E.h_power(n, total * step_scale ** n)


def _node_count(tree: Tree) -> int:
    return 1 + sum(_node_count(c) for c in tree.children)


class TestDeterministicSubalgebra:
    def test_euler_composed_with_euler_matches_butcher_product(self):
        # two h-steps of explicit Euler == one 2h-step of the RK scheme
        # with stages at 0 and 1/2 and equal weights 1/2
        model = T.GeneralPartitioned.from_table(Q=1, M=0, table={(0, 1): 1})
        cap = HalfInt(6)
        eul = euler_series(model, cap)
        composite = compose(eul, eul)
        a = [[Fraction(0), Fraction(0)], [Fraction(1, 2), Fraction(0)]]
        b = [Fraction(1, 2), Fraction(1, 2)]
        for tree in enumerate_trees(model, cap):
            want = rk_composite_weight(tree, a, b, Fraction(2))
            assert composite.weight(tree) == want, str(tree)

    def test_exact_flow_self_composition_doubles_step(self):
        # deterministic restriction: exact(h) after exact(h) = exact(2h)
        model = T.GeneralPartitioned.from_table(Q=1, M=0, table={(0, 1): 1})
        cap = HalfInt(8)
        phi = exact_solution_series(model, cap)
        comp = compose(phi, phi)
        for tree in enumerate_trees(model, cap):
            doubled = {p: c * Fraction(2) ** p
                       for p, c in rational_hpoly(phi.weight(tree)).items()}
            assert rational_hpoly(comp.weight(tree)) == doubled, str(tree)


class TestDerivativeProduct:
    def test_zero_at_empty(self):
        model = T.SemiLinear(1)
        phi = exact_solution_series(model, HalfInt(4))
        incr = BSeries(model, HalfInt(4), dict(phi.weights), E.ZERO)
        out = derivative_product(incr, phi)
        assert out.empty_weight.is_zero

    def test_single_node_value(self):
        model = T.SemiLinear(1)
        phi = exact_solution_series(model, HalfInt(4))
        incr = BSeries(model, HalfInt(4), dict(phi.weights), E.ZERO)
        out = derivative_product(incr, phi)
        # SP of a single node: only the root-cut pair survives phi_x(empty)=0
        leaf = parse_tree("1")
        assert out.weight(leaf) == phi.empty_weight * incr.weight(leaf)

    def test_requires_zero_empty_weight(self):
        model = T.SemiLinear(1)
        phi = exact_solution_series(model, HalfInt(4))
        with pytest.raises(EmptyWeightNotZero):
            derivative_product(phi, phi)


class TestFunctionSeries:
    def test_constant_term(self):
        model = T.SemiLinear(1)
        phi = exact_solution_series(model, HalfInt(4))
        fs = function_series(phi, HalfInt(4))
        f_root = Tree(T.FLabel())
        assert fs.weight(f_root) == E.ONE
        assert alpha(f_root) == 1

    def test_single_child_collapses_to_input(self):
        model = T.SemiLinear(1)
        phi = exact_solution_series(model, HalfInt(4))
        fs = function_series(phi, HalfInt(4))
        for tree in enumerate_trees(model, HalfInt(4)):
            u = Tree(T.FLabel(), (tree,))
            assert fs.weight(u) == phi.weight(tree)
            assert alpha(u) == alpha(tree)

    def test_beta_of_repeated_children(self):
        u = Tree(T.FLabel(), (parse_tree("1"), parse_tree("1")))
        assert alpha(u) == Fraction(1, 2)

    def test_psi_is_product_of_weights(self):
        model = T.SemiLinear(1)
        phi = exact_solution_series(model, HalfInt(4))
        fs = function_series(phi, HalfInt(4))
        t1, t2 = parse_tree("1"), parse_tree("0")
        u = T.canonicalize(Tree(T.FLabel(), (t1, t2)))
        assert fs.weight(u) == phi.weight(t1) * phi.weight(t2)

    def test_requires_unit_empty_weight(self):
        model = T.SemiLinear(1)
        phi = exact_solution_series(model, HalfInt(4))
        bad = BSeries(model, HalfInt(4), dict(phi.weights), E.ZERO)
        with pytest.raises(EmptyWeightNotOne):
            function_series(bad, HalfInt(4))


def _series_digest(series: BSeries) -> str:
    text = "".join(f"{T.format_tree(t)},{series.weight(t)}\n" for t in series.trees())
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedSeries:
    """Digests of whole weight maps, recorded before the multiset walk and
    the decomposition sum were shared between the series operations."""

    @pytest.mark.parametrize("model, cap, n_keys, digest", [
        (T.SemiLinear(1), HalfInt(5), 196,
         "2782b64daecbf55a122d4f3c8b47419464f142abd49056545f25e94b7c0e0db8"),
        (T.langevin_model(), HalfInt(4), 71,
         "0548d9c08a7ddfa870a7806e238f9de1671e6337003f51da81c33fdd380b58fc"),
    ], ids=["semilinear", "langevin"])
    def test_function_series_digest(self, model, cap, n_keys, digest):
        fs = function_series(exact_solution_series(model, cap), cap)
        assert len(fs.trees()) == n_keys
        assert _series_digest(fs) == digest

    def test_derivative_product_digest(self):
        model = T.NonAutonomous.from_table(M=1, l=1, variants={0: 1, 1: 1})
        phi = exact_solution_series(model, HalfInt(6))
        incr = BSeries(phi.model, phi.order_cap, phi.weights, E.ZERO)
        out = derivative_product(incr, phi)
        assert len(out.weights) == 465
        assert _series_digest(out) == (
            "cad72caf1538ecbd406a3988f765b4e54c6c95f9d346caee8d3d7fbfc13da8b7")


# Prints a digest of each weight map, taken in the map's own order, for
# compose on two models and the derivative product.  Trees hash by identity,
# so a set of trees iterates in an order set by where the trees live in
# memory; with SHIFT the interpreter first builds and keeps 2,670 unrelated
# trees, which moves every tree built after them.
_LAYOUT_DIGESTS = """
import hashlib
from sbseries import expr as E, trees as T
from sbseries.series import BSeries, compose, derivative_product, exact_solution_series

kept = T.enumerate_trees(T.SemiLinear(3), T.HalfInt(5)) if SHIFT else []
cap = T.HalfInt(6)
semilinear = exact_solution_series(T.SemiLinear(1), cap)
langevin = exact_solution_series(T.langevin_model(), cap)
increment = BSeries(semilinear.model, cap, dict(semilinear.weights), E.ZERO)
for out in (compose(semilinear, semilinear), compose(langevin, langevin),
            derivative_product(increment, semilinear)):
    text = "".join(f"{T.format_tree(t)},{w}\\n" for t, w in out.weights.items())
    print(len(out.weights), hashlib.sha256(text.encode()).hexdigest())
"""


def test_outputs_do_not_depend_on_where_trees_live():
    plain = run_python("SHIFT = False\n" + _LAYOUT_DIGESTS)
    shifted = run_python("SHIFT = True\n" + _LAYOUT_DIGESTS)
    assert len(plain.splitlines()) == 3
    assert shifted == plain


@pytest.mark.parametrize("operation", [compose, derivative_product])
def test_series_of_different_models_do_not_combine(operation):
    a = identity_weights(T.SemiLinear(1), HalfInt(1))
    b = identity_weights(T.SemiLinear(2), HalfInt(1))
    with pytest.raises(ModelMismatch,
                       match=r"^SemiLinear\(M=1\) vs SemiLinear\(M=2\)$") as info:
        operation(a, b)
    assert type(info.value) is ModelMismatch


@pytest.mark.parametrize("call, error, message", [
    (lambda: E.H ** -1, E.ExprError, "negative powers are not defined"),
    (lambda: E.integral(-1, [E.H]), E.ExprError, "invalid color -1"),
    (lambda: parse_expr("(h]"), ExprParseError, "expected ')'"),
    (lambda: parse_expr("Int1 h"), ExprParseError, "expected '[' after Int"),
    (lambda: parse_expr("Int1[h)"), ExprParseError, "expected ']'"),
    (lambda: parse_expr("dW1 dW1"), ExprParseError, "trailing tokens from 'dW1'"),
    (lambda: parse_expr("dW1)"), ExprParseError, "trailing tokens from ')'"),
], ids=["negative-power", "negative-color", "unclosed-group", "int-without-bracket",
        "unclosed-int", "trailing-term", "trailing-bracket"])
def test_expression_error_class_and_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error
