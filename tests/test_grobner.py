"""S-pair certification layer.

Every certificate must replay exactly (target = sum of quotient times
reducer plus remainder); reductions over the coefficient ring divide the
whole leading coefficient, never term by term.  A known non-basis under
a hostile precedence exercises the honest INCONCLUSIVE path.

``buchberger_check`` certifies a minimal basis and skips coprime pairs;
``all_pairs_ok`` below, which reduces every S-pair of the whole family,
is the reference it must agree with.  ``verify`` certifies the full
family F through its single-cycle members F1; on specs where F has
multi-cycle unions, the all-pairs verdict on F is the reference for the
verdict on F1.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import desk_scale_specs
from multirees.cli import _report_json
from multirees.grobner import (
    DEFAULT_MAX_STEPS,
    INCONCLUSIVE,
    REDUCED_TO_ZERO,
    BuchbergerReport,
    _lead_divides,
    _lead_parts,
    _reduce,
    buchberger_check,
    default_order_suite,
    s_poly,
    top_reduce,
    universal_gb_check,
)
from multirees.poly import GuardExceeded, MonomialOrder, VarUniverse, leading
from multirees.quasimat import generic_matrix, ibin_generators
from multirees.rees import FULL, SINGLE, ReesSpec, build_presentation, defining_generators
from multirees.sseq import SeqSpec


def all_pairs_ok(gens, order):
    """Reference verdict: every S-pair of the whole family top-reduces to
    zero over the whole family, with no basis selection and no criterion."""
    lead = [_lead_parts(g, order) for g in gens]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            s = s_poly(gens[i], gens[j], order)
            if s.is_zero():
                continue
            if _reduce(s, gens, lead, order, DEFAULT_MAX_STEPS).status != REDUCED_TO_ZERO:
                return False
    return True


def spread_first_lex(u):
    """Lex with the spread variable of each block first, a precedence
    under which the full family of a power-two block is no basis."""
    return MonomialOrder(u, "lex", tvars=tuple(sorted(u.T_ids, key=lambda v: u.vars[v].key[2], reverse=True)))


def small_desk_families(max_generators):
    out = []
    for spec in desk_scale_specs():
        pres = build_presentation(spec)
        gens = [g.poly for g in defining_generators(pres, FULL)]
        if gens and len(gens) <= max_generators:
            out.append((pres.universe, gens))
    return out


SMALL_DESK = small_desk_families(40)


def union_families(n, rows):
    """(universe, F, F1) as polynomial lists for generic power-1 blocks."""
    spec = ReesSpec(seq=SeqSpec(n=n), blocks=tuple((r, 1) for r in rows))
    pres = build_presentation(spec)
    single = [g.poly for g in defining_generators(pres, SINGLE)]
    return pres.universe, [g.poly for g in defining_generators(pres, FULL)], single


def union_sample(count=12, max_generators=26, seed=4):
    """Seeded specs with n = 4 or 5 whose full family has multi-cycle
    unions and at most ``max_generators`` members."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice((4, 5))
        rows = [rng.sample(range(1, n + 1), rng.choice((2, 3))) for _ in range(rng.choice((2, 3, 4)))]
        u, full, single = union_families(n, rows)
        if len(single) < len(full) <= max_generators:
            out.append((u, full, single))
    return out


def assert_unions_have_proper_divisors(full, single, order):
    """Every member of F outside F1 has a lead that some lead of F1
    divides, both s-part and T-part, without being equal to it."""
    lead = [_lead_parts(g, order) for g in single]
    in_single = set(single)
    for g in full:
        if g in in_single:
            continue
        lg = _lead_parts(g, order)
        assert any(_lead_divides(lf, lg) and not _lead_divides(lg, lf) for lf in lead), g.render()


@pytest.fixture(scope="module")
def unions():
    return union_sample()


@pytest.fixture(scope="module")
def twocol():
    # generic 2x3: full matrix of distinct symbols, 2x2 minors are the
    # classical determinantal ideal with a well-known basis property
    qm, uni = generic_matrix(2, 3)
    gens = [b.to_poly(uni) for b in ibin_generators(qm)]
    return qm, uni, gens


class TestSPoly:
    def test_leading_terms_cancel(self, twocol):
        _, uni, gens = twocol
        order = MonomialOrder(uni, "lex")
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                s = s_poly(gens[i], gens[j], order)
                if s.is_zero():
                    continue
                _, lm = leading(s, order)
                lcm = leading(gens[i], order)[1].lcm(leading(gens[j], order)[1])
                assert order.greater(lcm, lm)

    def test_includes_coefficient_lcm(self):
        # leading coefficients s1^2 and s1*s2 must scale to lcm s1^2*s2
        uni = VarUniverse(s_names=("s1", "s2"), T_names=("A", "B", "C"))
        s1, s2 = uni.poly_var("s1"), uni.poly_var("s2")
        A, B, C = uni.poly_var("A"), uni.poly_var("B"), uni.poly_var("C")
        order = MonomialOrder(uni, "lex")
        f = s1 * s1 * A - B
        g = s1 * s2 * A - C
        s = s_poly(f, g, order)
        assert s == s1 * C - s2 * B
        # no fractional or negative exponents appear
        assert all(e > 0 for m, _ in s.terms for _, e in m.exps)

    def test_rejects_non_s_monomial_type(self):
        uni = VarUniverse(s_names=("s1", "s2"), T_names=("A", "B"))
        s1, s2 = uni.poly_var("s1"), uni.poly_var("s2")
        A, B = uni.poly_var("A"), uni.poly_var("B")
        order = MonomialOrder(uni, "lex")
        with pytest.raises(ValueError):
            s_poly((s1 + s2) * A - B, s1 * A - B, order)


class TestTopReduce:
    def test_certificate_replays(self, twocol):
        _, uni, gens = twocol
        order = MonomialOrder(uni, "lex")
        target = gens[0] * uni.poly_var("a11") - gens[1] * uni.poly_var("a23")
        cert = top_reduce(target, gens, order)
        assert cert.status == REDUCED_TO_ZERO
        assert cert.verify()

    def test_divides_whole_coefficient(self):
        # reducer s1*A cannot touch a target whose A-coefficient is s1+s2
        uni = VarUniverse(s_names=("s1", "s2"), T_names=("A", "B"))
        s1, s2 = uni.poly_var("s1"), uni.poly_var("s2")
        A, B = uni.poly_var("A"), uni.poly_var("B")
        order = MonomialOrder(uni, "lex")
        target = (s1 + s2) * A
        cert = top_reduce(target, [s1 * A - B], order)
        assert cert.status == INCONCLUSIVE
        assert cert.remainder == target
        assert cert.verify()

    def test_strategies_agree_on_zero(self, twocol):
        _, uni, gens = twocol
        order = MonomialOrder(uni, "grevlex")
        target = gens[2] * gens[0].universe.poly_var("a12")
        cert = top_reduce(target, gens, order)
        assert cert.status == REDUCED_TO_ZERO
        assert cert.verify()

    def test_step_guard(self):
        uni = VarUniverse(s_names=("s1",), T_names=("A", "B"))
        s1, A, B = uni.poly_var("s1"), uni.poly_var("A"), uni.poly_var("B")
        order = MonomialOrder(uni, "lex")
        # reducing A^6 by A - B takes six steps
        with pytest.raises(GuardExceeded):
            top_reduce(A ** 6, [A - B], order, max_steps=3)


class TestBuchberger:
    def test_generic_minors_certify(self, twocol):
        _, uni, gens = twocol
        for kind in ("lex", "grlex", "grevlex"):
            rep = buchberger_check(gens, MonomialOrder(uni, kind))
            assert rep.ok
            assert rep.verify_certificates()

    def test_empty_and_zero_generators_rejected(self, twocol):
        _, uni, gens = twocol
        order = MonomialOrder(uni, "lex")
        with pytest.raises(ValueError):
            buchberger_check([], order)
        with pytest.raises(ValueError):
            buchberger_check(gens + [uni.zero()], order)

    def test_honest_inconclusive_on_hostile_precedence(self):
        # one block of amplitude two: under a precedence that puts the
        # spread variable first, the binary family leaves a chain relation
        # with a degree-two coefficient stuck (it is in the ideal, but no
        # leading term divides it), so the check must stay inconclusive
        spec = ReesSpec(seq=SeqSpec(n=2), blocks=(((1, 2), 2),))
        pres = build_presentation(spec)
        gens = [g.poly for g in defining_generators(pres, FULL)]
        u = pres.universe
        rep = buchberger_check(gens, spread_first_lex(u))
        assert not rep.ok
        assert rep.verify_certificates()  # stuck certificates still replay
        assert "INCONCLUSIVE" in rep.summary()
        canonical = buchberger_check(gens, MonomialOrder(u, "lex"))
        assert canonical.ok

    def test_summary_text(self, twocol):
        _, uni, gens = twocol
        rep = buchberger_check(gens, MonomialOrder(uni, "lex"))
        assert "CERTIFIED" in rep.summary()

    def test_product_criterion_certificate_replays(self):
        # leads 2*s1*A and s2*B share neither an s-symbol nor a T-variable;
        # the quotients carry 1/(u_f*u_g) = 1/2
        uni = VarUniverse(s_names=("s1", "s2"), T_names=("A", "B", "C", "D"))
        s1, s2 = uni.poly_var("s1"), uni.poly_var("s2")
        A, B, C, D = (uni.poly_var(v) for v in "ABCD")
        f = 2 * s1 * A - s2 * C
        g = s2 * B - 3 * s1 * D
        rep = buchberger_check([f, g], MonomialOrder(uni, "lex"))
        (pr,) = rep.pairs
        assert pr.criterion == "product" and rep.product_criterion == 1
        assert pr.cert.status == REDUCED_TO_ZERO and pr.cert.steps == 0
        assert pr.cert.remainder.is_zero()
        assert pr.cert.target == s_poly(f, g, MonomialOrder(uni, "lex"))
        tail_f, tail_g = -s2 * C, -3 * s1 * D
        assert pr.cert.quotients == {0: tail_g * Fraction(-1, 2), 1: tail_f * Fraction(1, 2)}
        assert pr.cert.verify()
        assert rep.ok

    def test_equal_leads_keep_lower_index(self):
        uni = VarUniverse(s_names=("s1",), T_names=("A", "B", "C"))
        A, B, C = (uni.poly_var(v) for v in "ABC")
        rep = buchberger_check([A - C, A - B, A * B - C], MonomialOrder(uni, "lex"))
        assert rep.basis == (0,)
        assert [m.k for m in rep.members] == [1, 2]
        assert rep.pairs == []
        # A - B reduces to C - B, which no lead in the basis divides
        assert not rep.ok
        assert rep.verify_certificates()

    def test_stuck_member_is_named(self):
        uni = VarUniverse(s_names=("s1",), T_names=("A", "B", "C", "D"))
        A, B, C, D = (uni.poly_var(v) for v in "ABCD")
        order = MonomialOrder(uni, "lex")
        rep = buchberger_check([A - B, A * C - D], order)
        assert rep.basis == (0,) and rep.pairs == []
        (member,) = rep.members
        assert member.cert.status == INCONCLUSIVE
        assert member.cert.remainder == B * C - D
        assert not rep.ok and rep.failures == [member]
        assert rep.verify_certificates()
        assert "stuck member 2" in rep.summary()
        payload = _report_json(rep)
        assert payload["ok"] is False
        assert payload["stuck"] == [{"member": 2, "remainder": (B * C - D).render()}]

    def test_stuck_pair_is_named(self):
        # leads A*B and A*D share A; the S-pair B*C - C*D has a lead that
        # neither divides.  Summary and JSON both count generators from 1.
        uni = VarUniverse(s_names=("s1",), T_names=("A", "B", "C", "D"))
        A, B, C, D = (uni.poly_var(v) for v in "ABCD")
        rep = buchberger_check([A * B - C, A * D - C], MonomialOrder(uni, "lex"))
        (pair,) = rep.pairs
        assert (pair.i, pair.j) == (0, 1) and pair.cert.status == INCONCLUSIVE
        assert pair.cert.remainder == B * C - C * D
        assert not rep.ok and rep.failures == [pair]
        assert "stuck pair (1, 2)" in rep.summary()
        assert _report_json(rep)["stuck"] == [{"i": 1, "j": 2, "remainder": (B * C - C * D).render()}]


class TestAllPairsReference:
    def test_desk_specs_agree(self):
        # 175 desk-scale specs; under spread-first lex most are inconclusive,
        # so both verdicts are compared
        assert len(SMALL_DESK) == 175
        verdicts = set()
        for u, gens in SMALL_DESK:
            for order in (MonomialOrder(u, "lex"), MonomialOrder(u, "grevlex"), spread_first_lex(u)):
                rep = buchberger_check(gens, order)
                assert rep.ok == all_pairs_ok(gens, order)
                assert rep.verify_certificates()
                verdicts.add(rep.ok)
        assert verdicts == {True, False}

    @settings(max_examples=60, deadline=None)
    @given(
        index=st.integers(0, len(SMALL_DESK) - 1),
        seed=st.integers(0, 1000),
        pick=st.integers(0, 3),
    )
    def test_order_suite_agrees(self, index, seed, pick):
        u, gens = SMALL_DESK[index]
        order = default_order_suite(u, seeds=(seed,))[pick]
        rep = buchberger_check(gens, order)
        assert rep.ok == all_pairs_ok(gens, order)
        assert rep.verify_certificates()


class TestSingleCycleFamily:
    def test_sample_has_unions(self, unions):
        assert len(unions) == 12
        assert {len(u.s_ids) for u, _, _ in unions} == {4, 5}
        for _, full, single in unions:
            assert set(single) < set(full)

    def test_union_leads_have_proper_divisors(self, unions):
        for u, full, single in unions:
            for order in default_order_suite(u):
                assert_unions_have_proper_divisors(full, single, order)

    @settings(max_examples=50, deadline=None)
    @given(
        spec=st.integers(4, 5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.sets(st.integers(1, n), min_size=2, max_size=3), min_size=2, max_size=4),
            )
        ),
        seed=st.integers(0, 1000),
        pick=st.integers(0, 3),
    )
    def test_union_leads_have_proper_divisors_drawn(self, spec, seed, pick):
        n, rows = spec
        u, full, single = union_families(n, [sorted(r) for r in rows])
        if full:
            assert_unions_have_proper_divisors(full, single, default_order_suite(u, seeds=(seed,))[pick])

    def test_all_pairs_on_full_agrees_with_single(self, unions):
        for u, full, single in unions:
            for kind in ("lex", "grevlex"):
                order = MonomialOrder(u, kind)
                rep = buchberger_check(single, order)
                assert rep.ok == all_pairs_ok(full, order)
                assert rep.verify_certificates()


class TestOrderSuite:
    def test_deterministic_and_well_formed(self, twocol):
        _, uni, _ = twocol
        a = default_order_suite(uni)
        b = default_order_suite(uni)
        assert [o.describe() for o in a] == [o.describe() for o in b]
        assert len(a) == 10
        kinds = {o.kind for o in a}
        assert kinds == {"lex", "grevlex"}
        for o in a:
            assert sorted(o.tvars) == sorted(uni.T_ids)

    def test_universal_check_aggregates(self, twocol):
        _, uni, gens = twocol
        rep = universal_gb_check(gens, default_order_suite(uni, seeds=(1, 2)))
        assert rep.ok
        assert "universal" in rep.summary()
