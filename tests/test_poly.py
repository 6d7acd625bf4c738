"""Polynomial layer: exact arithmetic, orders, leading data.

Arithmetic is cross-checked against sympy as an independent
implementation; order comparators are cross-checked against
from-scratch key functions written directly from the textbook
definitions.
"""
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import s_term_parts
from multirees.poly import (
    Mono,
    MonomialOrder,
    Poly,
    UniverseMismatch,
    VarUniverse,
    ZeroPolynomial,
    default_t_precedence,
    leading,
    mono_text,
)


def is_s_monomial_type(p, order):
    """True when the leading coefficient is a unit times an s-monomial."""
    if p.is_zero():
        return False
    lc, _ = leading(p, order)
    return s_term_parts(lc) is not None


@pytest.fixture(scope="module")
def uni():
    # immutable inventory; safe to share across tests and hypothesis examples
    return VarUniverse(
        s_names=("s1", "s2", "s3"),
        t_names=("t1",),
        T_names=("A", "B", "C"),
    )


def _to_sympy(p, symmap):
    acc = sympy.Integer(0)
    for mono, coeff in p.terms:
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for vid, e in mono.exps:
            term *= symmap[vid] ** e
        acc += term
    return sympy.expand(acc)


def _random_poly(uni, rng, nterms=4, maxexp=3):
    pairs = []
    ids = uni.s_ids + uni.T_ids
    for _ in range(nterms):
        mono = Mono(
            tuple(
                (v, rng.draw(st.integers(min_value=0, max_value=maxexp)))
                for v in ids
                if rng.draw(st.booleans())
            )
        )
        coeff = rng.draw(st.integers(min_value=-5, max_value=5))
        pairs.append((mono, coeff))
    return uni.from_terms(pairs)


# sparse monomials: a few variable ids out of six, exponents 1-4
monos = st.dictionaries(st.integers(0, 5), st.integers(1, 4), max_size=4).map(lambda d: Mono(tuple(d.items())))


class TestMono:
    def test_duplicate_variable_rejected(self):
        with pytest.raises(ValueError):
            Mono(((1, 2), (1, 3)))

    def test_zero_exponents_dropped(self):
        assert Mono(((1, 0), (2, 3))).exps == ((2, 3),)

    def test_mul_div_roundtrip(self):
        a = Mono(((0, 1), (2, 4)))
        b = Mono(((0, 2), (1, 1)))
        assert a.mul(b).div(b) == a

    def test_divides_lcm_gcd(self):
        a = Mono(((0, 2), (1, 1)))
        b = Mono(((0, 1), (2, 3)))
        assert not a.divides(b)
        assert a.gcd(b) == Mono(((0, 1),))
        assert a.lcm(b) == Mono(((0, 2), (1, 1), (2, 3)))
        assert a.divides(a.lcm(b))
        assert a.gcd(b).divides(a)

    @settings(max_examples=100, deadline=None)
    @given(a=monos, b=monos)
    def test_lcm_gcd_product_identity(self, a, b):
        assert a.lcm(b).mul(a.gcd(b)) == a.mul(b)
        assert a.divides(a.lcm(b)) and b.divides(a.lcm(b))
        assert a.gcd(b).divides(a)

    @settings(max_examples=100, deadline=None)
    @given(a=monos, b=monos)
    def test_div_inverts_mul(self, a, b):
        assert a.mul(b).div(b) == a

    def test_restrict_drop_partition(self):
        m = Mono(((0, 1), (1, 2), (5, 1)))
        assert m.restrict({0, 5}).mul(m.drop({0, 5})) == m

    def test_squarefree(self):
        assert Mono(((0, 1), (3, 1))).is_squarefree()
        assert not Mono(((0, 2),)).is_squarefree()


class TestPolyArithmetic:
    def test_universe_mismatch(self, uni):
        other = VarUniverse(T_names=("A",))
        with pytest.raises(UniverseMismatch):
            uni.poly_var("A") + other.poly_var("A")

    def test_constants_collapse(self, uni):
        assert uni.const(0).is_zero()
        assert (uni.const(3) - 3).is_zero()
        assert uni.one() + (-1) == uni.zero()

    def test_cancellation(self, uni):
        a = uni.poly_var("A")
        assert (a - a).is_zero()
        assert ((a + 1) * (a - 1) - (a * a - 1)).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_ring_ops_match_sympy(self, uni, data):
        syms = {vid: sympy.Symbol(name) for vid, name in enumerate(uni.names)}
        p = _random_poly(uni, data)
        q = _random_poly(uni, data)
        r = _random_poly(uni, data)
        got = p * (q + r) - p * q
        expect = sympy.expand(
            _to_sympy(p, syms) * (_to_sympy(q, syms) + _to_sympy(r, syms))
            - _to_sympy(p, syms) * _to_sympy(q, syms)
        )
        assert _to_sympy(got, syms) - expect == 0

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_substitute_matches_sympy(self, uni, data):
        syms = {vid: sympy.Symbol(name) for vid, name in enumerate(uni.names)}
        p = _random_poly(uni, data)
        img = _random_poly(uni, data, nterms=2, maxexp=1)
        vid = uni.vid("A")
        got = p.substitute({vid: img})
        expect = _to_sympy(p, syms).subs(syms[vid], _to_sympy(img, syms))
        assert _to_sympy(got, syms) - sympy.expand(expect) == 0

    @pytest.mark.parametrize("c", [1, Fraction(1, 2)])
    def test_number_minus_poly(self, uni, c):
        p = uni.poly_var("s1") * uni.poly_var("A") - 2 * uni.poly_var("A") ** 2
        assert c - p == -(p - c)

    def test_pow(self, uni):
        a = uni.poly_var("A") + 1
        assert a ** 3 == a * a * a
        with pytest.raises(ValueError):
            a ** -1

    def test_term_mul(self, uni):
        p = uni.poly_var("A") + uni.poly_var("B")
        m = Mono(((uni.vid("s1"), 2),))
        assert p.term_mul(Fraction(3, 2), m) == uni.term(Fraction(3, 2), m) * p


class TestOrders:
    # independent comparator written straight from the definitions
    @staticmethod
    def _ref_key(kind, exps):
        if kind == "lex":
            return tuple(exps)
        if kind == "grlex":
            return (sum(exps),) + tuple(exps)
        return (sum(exps),) + tuple(-e for e in reversed(tuple(exps)))

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(("lex", "grlex", "grevlex")),
        e1=st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3),
        e2=st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3),
    )
    def test_matches_reference(self, kind, e1, e2):
        uni = VarUniverse(T_names=("A", "B", "C"))
        order = MonomialOrder(uni, kind)
        m1 = Mono(tuple(zip(uni.T_ids, e1)))
        m2 = Mono(tuple(zip(uni.T_ids, e2)))
        assert (order.key(m1) > order.key(m2)) == (
            self._ref_key(kind, e1) > self._ref_key(kind, e2)
        )

    def test_grevlex_classic_tiebreak(self):
        # same degree: the monomial with less of the last variable wins
        uni = VarUniverse(T_names=("A", "B", "C"))
        order = MonomialOrder(uni, "grevlex")
        a, b, c = (uni.poly_var(n).terms[0][0] for n in ("A", "B", "C"))
        assert order.key(a.mul(b)) > order.key(c.mul(c))
        assert order.key(b.mul(b)) > order.key(a.mul(c))

    def test_precedence_must_be_permutation(self, uni):
        with pytest.raises(ValueError):
            MonomialOrder(uni, "lex", tvars=uni.T_ids[:-1])
        with pytest.raises(ValueError):
            MonomialOrder(uni, "nope")

    def test_only_T_block_counts(self, uni):
        order = MonomialOrder(uni, "lex")
        sA = Mono(((uni.vid("s1"), 5), (uni.vid("A"), 1)))
        bare_B = Mono(((uni.vid("B"), 1),))
        # A > B regardless of the huge s-exponent on the other side
        assert order.key(sA.restrict(uni.T_idset)) == order.key(sA)
        assert order.key(sA) > order.key(bare_B)

    def test_default_precedence_plain_listed_order(self, uni):
        assert default_t_precedence(uni) == uni.T_ids

    def test_default_precedence_concentration_first(self):
        # ranked variables: (block, spread); lower spread outranks, ties
        # keep the listed order
        uni = VarUniverse(
            T_names=("T22", "T21", "T20", "T11", "T10", "T00"),
            T_rank=[(1, 1), (1, 2), (1, 1), (1, 2), (1, 2), (1, 1)],
        )
        names = [uni.name(v) for v in default_t_precedence(uni)]
        assert names == ["T22", "T20", "T00", "T21", "T11", "T10"]


class TestLeading:
    def test_zero_poly_raises(self, uni):
        with pytest.raises(ZeroPolynomial):
            leading(uni.zero(), MonomialOrder(uni, "lex"))

    def test_leading_groups_full_coefficient(self, uni):
        s1 = uni.poly_var("s1")
        s2 = uni.poly_var("s2")
        A = uni.poly_var("A")
        B = uni.poly_var("B")
        p = s1 * A + s2 * A - B * B
        lc, lm = leading(p, MonomialOrder(uni, "lex"))
        assert lm == Mono(((uni.vid("A"), 1),))
        assert lc == s1 + s2

    def test_s_term_parts(self, uni):
        s1 = uni.poly_var("s1")
        parts = s_term_parts(2 * s1)
        assert parts == (Fraction(2), Mono(((uni.vid("s1"), 1),)))
        assert s_term_parts(s1 + 1) is None
        # t-block symbols are not sequence data
        assert s_term_parts(uni.poly_var("t1")) is None

    def test_s_monomial_type(self, uni):
        order = MonomialOrder(uni, "lex")
        s1, s2 = uni.poly_var("s1"), uni.poly_var("s2")
        A, B = uni.poly_var("A"), uni.poly_var("B")
        assert is_s_monomial_type(s1 * A - s2 * B, order)
        assert not is_s_monomial_type((s1 + s2) * A - B, order)
        assert not is_s_monomial_type(uni.zero(), order)

    def test_zz_units_only(self):
        uni = VarUniverse(s_names=("s1",), T_names=("A",), domain="ZZ")
        assert s_term_parts(2 * uni.poly_var("s1")) is None
        assert s_term_parts(-uni.poly_var("s1")) is not None


class TestRender:
    @pytest.mark.parametrize("kind", ["lex", "grlex", "grevlex"])
    def test_order_repr(self, uni, kind):
        order = MonomialOrder(uni, kind, uni.T_ids[::-1])
        assert repr(order) == "MonomialOrder(%s[C>B>A])" % kind

    def test_render_and_mono_text(self, uni):
        p = uni.poly_var("A") * uni.poly_var("s1") - 2 * uni.poly_var("B") ** 2
        assert p.render() == "-2*B^2 + s1*A"
        assert mono_text(p.terms[0][0], uni) in ("s1*A", "B^2")
        assert mono_text(Mono(()), uni) == "1"
