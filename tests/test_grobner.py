"""S-pair certification layer.

Every certificate must replay exactly (target = sum of quotient times
reducer plus remainder); reductions over the coefficient ring divide the
whole leading coefficient, never term by term.  A known non-basis under
a hostile precedence exercises the honest INCONCLUSIVE path.

``buchberger_check`` certifies a minimal basis and skips coprime pairs;
``all_pairs_ok`` below, which reduces every S-pair of the whole family,
is the reference its verdict must agree with.  It runs on pure
differences held as two packed monomials; ``reference_buchberger_check``
below is the same pair loop on ``Poly``, for any polynomial of
s-monomial type, and its report must equal the packed one field for
field on the binomials that the packed check accepts.  The entry points
``s_poly`` and ``top_reduce`` run the same packed steps on one pair or
one target, and ``reference_s_poly`` and ``reference_top_reduce`` are
their ``Poly`` references.  Each reference also takes ``Generator``s,
through their ``poly``.
``verify`` certifies the full family F through its single-cycle members
F1; on specs where F has multi-cycle unions, the all-pairs verdict on F
is the reference for the verdict on F1.
"""
import json
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import desk_scale_specs, gb_heavy_specs
from multirees import grobner, poly
from multirees.cli import _groebner, _report, main
from multirees.grobner import (
    INCONCLUSIVE,
    REDUCED_TO_ZERO,
    BuchbergerReport,
    MemberResult,
    PairResult,
    buchberger_check,
    default_order_suite,
    s_poly,
    top_reduce,
)
from helpers import generic_matrix, ibin_generators, s_term_parts, small_specs
from multirees.poly import (
    GuardExceeded,
    Mono,
    MonomialOrder,
    Poly,
    UniverseMismatch,
    VarUniverse,
    ZeroPolynomial,
    leading,
)
from multirees.quasimat import Binomial
from multirees.rees import FULL, SINGLE, ReesSpec, build_presentation, defining_generators, spec_to_dict
from multirees.sseq import SeqSpec


@dataclass
class ReferenceCert:
    """The fields of ``grobner.ReductionCert``, held as ``Poly`` from the
    start: target == sum(quotients[i] * reducers[i]) + remainder."""

    target: Poly
    reducers: tuple
    order: MonomialOrder
    quotients: dict
    remainder: Poly
    status: str
    steps: int

    def verify(self):
        acc = self.remainder
        for idx, q in self.quotients.items():
            acc = acc + q * self.reducers[idx]
        return acc == self.target


def _lead_parts(p, order):
    """(unit, s-monomial, T-monomial) of an s-monomial-type polynomial."""
    lc, lm = leading(p, order)
    parts = s_term_parts(lc)
    if parts is None:
        raise ValueError(
            "polynomial is not of s-monomial type under %s: leading coefficient %s" % (order.describe(), lc.render())
        )
    unit, smono = parts
    return unit, smono, lm


def _s_pair(f, g, lead_f, lead_g):
    """``reference_s_poly`` of f and g from their ``_lead_parts``."""
    (uf, df, mf), (ug, dg, mg) = lead_f, lead_g
    M = mf.lcm(mg)
    D = df.lcm(dg)
    left = f.term_mul(Fraction(1, 1) / uf, D.div(df).mul(M.div(mf)))
    right = g.term_mul(Fraction(1, 1) / ug, D.div(dg).mul(M.div(mg)))
    return left - right


def _reduce(p, reducers, lead, order):
    """``reference_top_reduce`` against ``lead``, the ``_lead_parts`` of
    each reducer; each step uses the first reducer that applies, and the
    step guard is ``grobner.DEFAULT_MAX_STEPS`` when the reduction runs."""
    quotients = {}
    work = p
    steps = 0
    while not work.is_zero():
        lc, lm = leading(work, order)
        for chosen, (_, dg, mg) in enumerate(lead):
            if mg.divides(lm) and all(dg.divides(m) for m, _ in lc.terms):
                break
        else:
            return ReferenceCert(p, reducers, order, quotients, work, INCONCLUSIVE, steps)
        ug, dg, mg = lead[chosen]
        shift = lm.div(mg)
        u = p.universe
        q = Poly(u, tuple((m.div(dg).mul(shift), c / ug) for m, c in lc.terms))
        work = work - q * reducers[chosen]
        quotients[chosen] = quotients.get(chosen, u.zero()) + q
        steps += 1
        if steps > grobner.DEFAULT_MAX_STEPS:
            raise GuardExceeded("top-reduction exceeded %d steps" % grobner.DEFAULT_MAX_STEPS)
    return ReferenceCert(p, reducers, order, quotients, work, REDUCED_TO_ZERO, steps)


def _poly(g):
    """A ``Generator``'s ``poly``, or the polynomial ``g``."""
    return getattr(g, "poly", g)


def reference_s_poly(f, g, order):
    """``s_poly`` on ``Poly``."""
    f, g = _poly(f), _poly(g)
    return _s_pair(f, g, _lead_parts(f, order), _lead_parts(g, order))


def reference_top_reduce(p, reducers, order):
    """``top_reduce`` on ``Poly``."""
    reducers = tuple(map(_poly, reducers))
    return _reduce(_poly(p), reducers, [_lead_parts(g, order) for g in reducers], order)


def _lead_divides(a, b):
    """Whether lead ``a`` divides lead ``b``: both the s-parts and the
    T-parts divide."""
    return a[1].divides(b[1]) and a[2].divides(b[2])


def _minimal_basis(lead):
    """Indices of the leads that no other lead divides; of equal leads,
    only the lowest index."""
    return [
        k
        for k, lk in enumerate(lead)
        if not any(
            j != k and _lead_divides(lj, lk) and (j < k or not _lead_divides(lk, lj))
            for j, lj in enumerate(lead)
        )
    ]


def _coprime(a, b):
    return a[1].gcd(b[1]).is_one() and a[2].gcd(b[2]).is_one()


def _product_cert(s, a, b, reducers, lead, order):
    """Certificate of S(f, g) = (f'*g - g'*f)/(u_f*u_g) for reducers ``a``
    and ``b``, where f' and g' are f and g without their leading terms;
    as for a reduction, a reducer without a quotient term has no
    quotient."""
    f, g = reducers[a], reducers[b]
    uf, df, mf = lead[a]
    ug, dg, mg = lead[b]
    u = f.universe
    scale = Fraction(1, 1) / (uf * ug)
    tail_f = f - u.term(uf, df.mul(mf))
    tail_g = g - u.term(ug, dg.mul(mg))
    quotients = {k: q for k, q in ((a, tail_g * -scale), (b, tail_f * scale)) if not q.is_zero()}
    return ReferenceCert(s, reducers, order, quotients, u.zero(), REDUCED_TO_ZERO, 0)


def reference_buchberger_check(generators, order):
    """``buchberger_check`` on ``Poly``: the same minimal basis, pairs,
    criterion and first-applicable-reducer rule, with every certificate
    built as it goes."""
    gens = tuple(map(_poly, generators))
    if not gens:
        raise ValueError("no generators")
    if any(g.is_zero() for g in gens):
        raise ValueError("zero generator")
    lead = [_lead_parts(g, order) for g in gens]
    basis = _minimal_basis(lead)
    reducers = tuple(gens[k] for k in basis)
    table = [lead[k] for k in basis]
    report = BuchbergerReport(order=order, generators=gens, basis=tuple(basis))
    for a, i in enumerate(basis):
        for b in range(a + 1, len(basis)):
            j = basis[b]
            s = _s_pair(gens[i], gens[j], lead[i], lead[j])
            if not s.is_zero() and _coprime(lead[i], lead[j]):
                cert = _product_cert(s, a, b, reducers, table, order)
                report.pairs.append(PairResult(i, j, False, cert, criterion="product"))
            else:
                report.pairs.append(PairResult(i, j, s.is_zero(), _reduce(s, reducers, table, order)))
    in_basis = set(basis)
    for k, g in enumerate(gens):
        if k not in in_basis:
            report.members.append(MemberResult(k, _reduce(g, reducers, table, order)))
    return report


def assert_same_cert(got, want):
    assert (got.status, got.steps) == (want.status, want.steps)
    assert tuple(map(_poly, got.reducers)) == want.reducers and got.order is want.order
    assert got.target == want.target
    assert got.remainder == want.remainder
    assert list(got.quotients.items()) == list(want.quotients.items())


def assert_same_report(rep, ref):
    """Every field of the packed report equals the reference's."""
    assert rep.order is ref.order and tuple(map(_poly, rep.generators)) == ref.generators
    assert rep.basis == ref.basis
    assert [(p.i, p.j, p.spair_zero, p.criterion) for p in rep.pairs] == [
        (p.i, p.j, p.spair_zero, p.criterion) for p in ref.pairs
    ]
    for got, want in zip(rep.pairs, ref.pairs):
        assert_same_cert(got.cert, want.cert)
    assert [m.k for m in rep.members] == [m.k for m in ref.members]
    for got, want in zip(rep.members, ref.members):
        assert_same_cert(got.cert, want.cert)
    assert _report(rep, "text") == _report(ref, "text")
    assert _report(rep, "json") == _report(ref, "json")


def assert_same_poly(got, want):
    assert got == want


# each packed entry point -> (its reference on Poly, the comparison)
REFERENCES = {
    buchberger_check: (reference_buchberger_check, assert_same_report),
    s_poly: (reference_s_poly, assert_same_poly),
    top_reduce: (reference_top_reduce, assert_same_cert),
}


def check_against_reference(*args, entry=buchberger_check):
    """``entry(*args)`` equals its reference field for field, or both
    raise an error of the same type and message; returns the packed
    result, or None on an error."""
    reference, assert_same = REFERENCES[entry]
    try:
        want = reference(*args)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            entry(*args)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return None
    got = entry(*args)
    assert_same(got, want)
    return got


def all_pairs_ok(gens, order):
    """Reference verdict: every S-pair of the whole family top-reduces to
    zero over the whole family, with no basis selection and no criterion."""
    lead = [_lead_parts(g, order) for g in gens]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            s = _s_pair(gens[i], gens[j], lead[i], lead[j])
            if s.is_zero():
                continue
            if _reduce(s, gens, lead, order).status != REDUCED_TO_ZERO:
                return False
    return True


def spread_first_lex(pres):
    """Lex with the spread variable of each block first, a precedence
    under which the full family of a power-two block is no basis."""
    u = pres.universe
    spread = {v: len(e) - e.count(0) for v, (_, e) in pres.var_block.items()}
    return MonomialOrder(u, "lex", tvars=tuple(sorted(u.T_ids, key=spread.get, reverse=True)))


def small_desk_families(max_generators):
    out = []
    for spec in desk_scale_specs():
        pres = build_presentation(spec)
        gens = [g.poly for g in defining_generators(pres, FULL)]
        if gens and len(gens) <= max_generators:
            out.append((pres, gens))
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
                assert order.key(lcm) > order.key(lm)

    def test_includes_coefficient_lcm(self):
        # leading coefficients s1^2 and s1*s2 must scale to lcm s1^2*s2
        uni = VarUniverse(s_names=("s1", "s2"), T_names=("A", "B", "C"))
        s1, s2 = uni.poly_var("s1"), uni.poly_var("s2")
        A, B, C = uni.poly_var("A"), uni.poly_var("B"), uni.poly_var("C")
        order = MonomialOrder(uni, "lex")
        f = s1 * s1 * A - s2 * s2 * B
        g = s1 * s2 * A - s2 * s2 * C
        s = check_against_reference(f, g, order, entry=s_poly)
        assert s == s1 * s2 * s2 * C - s2 * s2 * s2 * B
        # no fractional or negative exponents appear
        assert all(e > 0 for m, _ in s.terms for _, e in m.exps)

    def test_rejects_non_s_monomial_type(self):
        uni = VarUniverse(s_names=("s1", "s2"), T_names=("A", "B"))
        s1, s2 = uni.poly_var("s1"), uni.poly_var("s2")
        A, B = uni.poly_var("A"), uni.poly_var("B")
        order = MonomialOrder(uni, "lex")
        # three terms: no pure difference
        with pytest.raises(ValueError, match="not a Generator or a difference of two monomials"):
            s_poly((s1 + s2) * A - s1 * B, s1 * A - s2 * B, order)
        # a pure difference whose leading coefficient s1 - s2 is no s-monomial
        with pytest.raises(ValueError, match="not of s-monomial type"):
            s_poly(s1 * A - s2 * A, s1 * A - s2 * B, order)
        assert check_against_reference(s1 * A - s2 * A, s1 * A - s2 * B, order, entry=s_poly) is None


class TestTopReduce:
    def test_certificate_replays(self, twocol):
        _, uni, gens = twocol
        order = MonomialOrder(uni, "lex")
        target = s_poly(gens[0], gens[2], order) * uni.poly_var("a11")
        cert = check_against_reference(target, gens, order, entry=top_reduce)
        assert (cert.status, cert.steps) == (REDUCED_TO_ZERO, 3)
        assert cert.verify()

    def test_divides_whole_coefficient(self):
        # the leading coefficient of s1*B - s2*B is s1 - s2: reducer
        # s1*B - s2*C cannot touch it, since s1 does not divide s2
        uni = VarUniverse(s_names=("s1", "s2"), T_names=("A", "B", "C"))
        s1, s2 = uni.poly_var("s1"), uni.poly_var("s2")
        B, C = uni.poly_var("B"), uni.poly_var("C")
        order = MonomialOrder(uni, "lex")
        target = s1 * B - s2 * B
        cert = check_against_reference(target, [s1 * B - s2 * C], order, entry=top_reduce)
        assert (cert.status, cert.steps) == (INCONCLUSIVE, 0)
        assert cert.remainder == target and cert.quotients == {}
        assert cert.verify()

    def test_strategies_agree_on_zero(self, twocol):
        _, uni, gens = twocol
        order = MonomialOrder(uni, "grevlex")
        target = gens[2] * gens[0].universe.poly_var("a12")
        cert = top_reduce(target, gens, order)
        assert cert.status == REDUCED_TO_ZERO
        assert cert.verify()

    def test_step_guard(self, monkeypatch):
        uni = VarUniverse(s_names=("s1",), T_names=("A", "B"))
        A, B = uni.poly_var("A"), uni.poly_var("B")
        order = MonomialOrder(uni, "lex")
        # reducing A^6 - B^6 by A - B takes six steps: a guard of six lets
        # them run, and one of five stops the sixth
        monkeypatch.setattr(grobner, "DEFAULT_MAX_STEPS", 6)
        assert top_reduce(A ** 6 - B ** 6, [A - B], order).steps == 6
        monkeypatch.setattr(grobner, "DEFAULT_MAX_STEPS", 5)
        with pytest.raises(GuardExceeded, match="exceeded 5 steps"):
            top_reduce(A ** 6 - B ** 6, [A - B], order)


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
        with pytest.raises(ValueError, match="zero generator"):
            buchberger_check(gens + [uni.zero()], order)
        assert check_against_reference(gens[:1] + [uni.zero()] + gens[1:], order) is None

    def test_honest_inconclusive_on_hostile_precedence(self):
        # one block of amplitude two: under a precedence that puts the
        # spread variable first, the binary family leaves a chain relation
        # with a degree-two coefficient stuck (it is in the ideal, but no
        # leading term divides it), so the check must stay inconclusive
        spec = ReesSpec(seq=SeqSpec(n=2), blocks=(((1, 2), 2),))
        pres = build_presentation(spec)
        gens = [g.poly for g in defining_generators(pres, FULL)]
        u = pres.universe
        rep = buchberger_check(gens, spread_first_lex(pres))
        assert not rep.ok
        assert rep.verify_certificates()  # stuck certificates still replay
        assert "INCONCLUSIVE" in _report(rep, "text")[0]
        canonical = buchberger_check(gens, MonomialOrder(u, "lex"))
        assert canonical.ok

    def test_summary_text(self, twocol):
        _, uni, gens = twocol
        rep = buchberger_check(gens, MonomialOrder(uni, "lex"))
        assert "CERTIFIED" in _report(rep, "text")[0]

    def test_product_criterion_certificate_replays(self):
        # leads s1*A and -s2*B share neither an s-symbol nor a T-variable;
        # S(f, g) = u_f*T_g*f - u_g*T_f*g, with units u_f = 1 and u_g = -1
        uni = VarUniverse(s_names=("s1", "s2"), T_names=("A", "B", "C", "D"))
        s1, s2 = uni.poly_var("s1"), uni.poly_var("s2")
        A, B, C, D = (uni.poly_var(v) for v in "ABCD")
        f = s1 * A - s2 * C
        g = s1 * D - s2 * B
        rep = check_against_reference([f, g], MonomialOrder(uni, "lex"))
        (pr,) = rep.pairs
        assert pr.criterion == "product" and rep.product_criterion == 1
        assert pr.cert.status == REDUCED_TO_ZERO and pr.cert.steps == 0
        assert pr.cert.remainder.is_zero()
        assert pr.cert.target == s_poly(f, g, MonomialOrder(uni, "lex")) == s1 * s1 * A * D - s2 * s2 * B * C
        assert pr.cert.quotients == {0: s1 * D, 1: s2 * C}
        assert pr.cert.verify()
        assert rep.ok

    def test_lead_group_step(self):
        # the S-pair of pair (1, 2) is s1*s3*B - s2*s3*B, whose two terms
        # share the leading T-part B: the step by B - D moves both terms,
        # to s1*s3*D - s2*s3*D, where nothing applies.  Pairs (1, 3) and
        # (2, 3) have coprime leads.
        uni = VarUniverse(s_names=("s1", "s2", "s3"), T_names=("A", "B", "D"))
        s1, s2, s3, A, B, D = (uni.poly_var(v) for v in ("s1", "s2", "s3", "A", "B", "D"))
        order = MonomialOrder(uni, "lex")
        f, g = s1 * A - s3 * B, s2 * A - s3 * B
        rep = check_against_reference([f, g, B - D], order)
        assert rep.basis == (0, 1, 2) and rep.members == []
        assert [(pr.i, pr.j, pr.criterion, pr.cert.status, pr.cert.steps) for pr in rep.pairs] == [
            (0, 1, None, INCONCLUSIVE, 1),
            (0, 2, "product", REDUCED_TO_ZERO, 0),
            (1, 2, "product", REDUCED_TO_ZERO, 0),
        ]
        stuck = rep.pairs[0].cert
        assert stuck.target == s1 * s3 * B - s2 * s3 * B
        assert stuck.quotients == {2: s1 * s3 - s2 * s3} and stuck.remainder == s1 * s3 * D - s2 * s3 * D
        assert [pr.cert.remainder.is_zero() for pr in rep.pairs] == [False, True, True]
        assert rep.verify_certificates()
        assert _report(rep, "text")[1:] == ["  stuck pair (1, 2): remainder leading term (-s2*s3 + s1*s3) * D"]
        # the entry points take the same step
        assert check_against_reference(f, g, order, entry=s_poly) == s1 * s3 * B - s2 * s3 * B
        cert = check_against_reference(s1 * s3 * B - s2 * s3 * B, [B - D], order, entry=top_reduce)
        assert (cert.status, cert.steps, cert.remainder) == (INCONCLUSIVE, 1, s1 * s3 * D - s2 * s3 * D)

    @pytest.mark.parametrize("kind", ["lex", "grevlex"])
    def test_zero_s_pair_reduces_in_no_steps(self, kind):
        # s2*(s1*A - s1*B) - s1*(s2*A - s2*B) = 0: the pair takes the
        # reduction path and leaves a 0-step certificate of 0 = 0
        uni = VarUniverse(s_names=("s1", "s2"), T_names=("A", "B"))
        s1, s2, A, B = (uni.poly_var(v) for v in ("s1", "s2", "A", "B"))
        rep = check_against_reference([s1 * A - s1 * B, s2 * A - s2 * B], MonomialOrder(uni, kind))
        assert rep.basis == (0, 1) and rep.members == []
        (pr,) = rep.pairs
        assert pr.spair_zero and pr.criterion is None and pr.ok
        assert (pr.cert.status, pr.cert.steps) == (REDUCED_TO_ZERO, 0)
        assert pr.cert.target.is_zero() and pr.cert.remainder.is_zero()
        assert pr.cert.quotients == {} and pr.cert.verify()
        assert rep.ok and rep.product_criterion == 0 and rep.verify_certificates()

    @pytest.mark.parametrize("kind", ["grlex", "grevlex"])
    def test_fields_hold_twice_the_degree(self, kind):
        # the S-pair of pair (1, 2) is B*C*G^3 - E*F*H^3, of T-degree 5, so
        # the degree field needs the value bits for 2*3; in fewer, the guard
        # would hide that the lead G of G - H divides B*C*G^3
        uni = VarUniverse(s_names=("s1",), T_names=tuple("ABCEFGH"))
        A, B, C, E, F, G, H = (uni.poly_var(v) for v in "ABCEFGH")
        rep = check_against_reference([A * B * C - H ** 3, A * E * F - G ** 3, G - H], MonomialOrder(uni, kind))
        stuck = rep.pairs[0].cert
        assert stuck.target == B * C * G ** 3 - E * F * H ** 3
        assert (stuck.status, stuck.steps, stuck.remainder) == (INCONCLUSIVE, 3, B * C * H ** 3 - E * F * H ** 3)

    def test_equal_leads_keep_lower_index(self):
        uni = VarUniverse(s_names=("s1",), T_names=("A", "B", "C"))
        A, B, C = (uni.poly_var(v) for v in "ABC")
        rep = check_against_reference([A - C, A - B, A * B - C * C], MonomialOrder(uni, "lex"))
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
        rep = check_against_reference([A - B, A * C - D * D], order)
        assert rep.basis == (0,) and rep.pairs == []
        (member,) = rep.members
        assert member.cert.status == INCONCLUSIVE
        assert member.cert.remainder == B * C - D * D
        assert not rep.ok and rep.failures == [member]
        assert rep.verify_certificates()
        assert _report(rep, "text")[1:] == ["  stuck member 2: remainder leading term (1) * B*C"]
        payload = _report(rep, "json")
        assert payload["ok"] is False
        assert payload["stuck"] == [{"member": 2, "remainder": (B * C - D * D).render()}]

    def test_stuck_pair_is_named(self):
        # leads A*B and A*D share A; the S-pair B*C^2 - C^2*D has a lead
        # that neither divides.  Text and JSON both count generators from 1.
        uni = VarUniverse(s_names=("s1",), T_names=("A", "B", "C", "D"))
        A, B, C, D = (uni.poly_var(v) for v in "ABCD")
        rep = check_against_reference([A * B - C * C, A * D - C * C], MonomialOrder(uni, "lex"))
        (pair,) = rep.pairs
        assert (pair.i, pair.j) == (0, 1) and pair.cert.status == INCONCLUSIVE
        assert pair.cert.remainder == B * C * C - C * C * D
        assert not rep.ok and rep.failures == [pair]
        assert _report(rep, "text")[1:] == ["  stuck pair (1, 2): remainder leading term (1) * B*C^2"]
        assert _report(rep, "json")["stuck"] == [{"i": 1, "j": 2, "remainder": (B * C * C - C * C * D).render()}]


class TestAllPairsReference:
    def test_desk_specs_agree(self):
        # 175 desk-scale specs; under spread-first lex most are inconclusive,
        # so both verdicts are compared
        assert len(SMALL_DESK) == 175
        verdicts = set()
        for pres, gens in SMALL_DESK:
            u = pres.universe
            for order in (MonomialOrder(u, "lex"), MonomialOrder(u, "grevlex"), spread_first_lex(pres)):
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
        pres, gens = SMALL_DESK[index]
        order = default_order_suite(pres.universe, seeds=(seed,))[pick]
        rep = buchberger_check(gens, order)
        assert rep.ok == all_pairs_ok(gens, order)
        assert rep.verify_certificates()


# the paper's five-ideal example
PAPER = ReesSpec(
    seq=SeqSpec(n=4, names=("p1", "p2", "x", "y")),
    blocks=(((1, 2), 1), ((1, 3), 1), ((2, 3), 1), ((1, 4), 1), ((2, 4), 1)),
)

# generators with s-, x- and T-variables; a random monomial draws its
# exponents in this order, with the x-variable in one of eight, so that
# most families have leads of s-monomial type
RANDOM_UNIVERSES = {
    domain: VarUniverse(s_names=("s1", "s2"), x_names=("x1",), T_names=("A", "B", "C", "D"), domain=domain)
    for domain in ("QQ", "ZZ")
}


def random_monomial():
    small = st.integers(0, 2)
    return st.tuples(small, small, st.sampled_from((0,) * 7 + (1,)), small, small, small, small)


def homogeneous_pair():
    """Two different exponent tuples of one degree: the second permutes
    the s- and T-exponents of the first, across the two blocks, within
    each, or the T-exponents alone, and keeps its x-exponent.  Exponents
    are small, so that drawn generators often share a lead or a tail."""
    s, t = (0, 1), (3, 4, 5, 6)
    first = st.tuples(
        *[st.integers(0, 1)] * 2, st.sampled_from((0,) * 7 + (1,)), *[st.sampled_from((0, 0, 0, 1, 1, 2))] * 4
    )
    within = st.tuples(st.permutations(s), st.permutations(t)).map(lambda p: tuple(p[0]) + tuple(p[1]))
    perms = st.one_of(st.permutations(s + t), within, st.permutations(t).map(lambda p: s + tuple(p)))

    def second(first, perm):
        out = list(first)
        for dst, src in zip(s + t, perm):
            out[dst] = first[src]
        return first, tuple(out)

    return st.tuples(first, perms).map(lambda d: second(*d)).filter(lambda pair: pair[0] != pair[1])


def random_binomial(u, coefficients, monomials):
    """The polynomial c1*m1 + c2*m2 of two drawn coefficients and two
    drawn exponent tuples over ``u``."""
    return u.from_terms([(Mono(zip(range(len(u.names)), e)), c) for c, e in zip(coefficients, monomials)])


# the pure differences m1 - m2 and -m1 + m2, and coefficient pairs that
# make no pure difference
PURE = st.sampled_from(((1, -1), (-1, 1)))
OTHER = st.tuples(*[st.sampled_from((1, -1, 2, -3, Fraction(1, 2)))] * 2).filter(lambda c: c not in ((1, -1), (-1, 1)))


# a family of up to five homogeneous pure differences under a drawn order
RANDOM_FAMILY = dict(
    domain=st.sampled_from(("QQ", "QQ", "ZZ")),
    binomials=st.lists(st.tuples(PURE, homogeneous_pair()), min_size=1, max_size=5),
    kind=st.sampled_from(("lex", "grlex", "grevlex")),
    precedence=st.permutations(range(4)),
)


def random_family(domain, binomials, kind, precedence):
    """(generators, order) of one ``RANDOM_FAMILY`` draw."""
    u = RANDOM_UNIVERSES[domain]
    return [random_binomial(u, *b) for b in binomials], MonomialOrder(u, kind, [u.T_ids[k] for k in precedence])


# desk families in the entry-point sample: 3,186 calls, none on the 13
# families of 37 generators, each of which costs more than the whole sample
ENTRY_SAMPLE = 30


class TestPackedAgainstReference:
    """The packed check's report, certificate by certificate, against
    ``reference_buchberger_check``."""

    def test_desk_specs(self):
        for pres, gens in SMALL_DESK:
            u = pres.universe
            for order in (MonomialOrder(u, "lex"), MonomialOrder(u, "grevlex"), spread_first_lex(pres)):
                check_against_reference(gens, order)

    def test_gb_heavy_shapes(self):
        for spec in gb_heavy_specs():
            pres = build_presentation(spec)
            gens = [g.poly for g in defining_generators(pres, SINGLE)]
            for kind in ("lex", "grevlex"):
                assert check_against_reference(gens, MonomialOrder(pres.universe, kind)).ok

    @settings(max_examples=300, deadline=None)
    @given(**RANDOM_FAMILY)
    def test_random_binomials(self, domain, binomials, kind, precedence):
        # homogeneous pure differences, some of them of no s-monomial type
        check_against_reference(*random_family(domain, binomials, kind, precedence))

    def test_random_binomials_reach_every_path(self):
        # a derandomized sample of the same draws meets every path of the
        # packed check: a lead-group step leaves two quotient terms
        seen = set()

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(**RANDOM_FAMILY)
        def sample(domain, binomials, kind, precedence):
            try:
                rep = buchberger_check(*random_family(domain, binomials, kind, precedence))
            except ValueError as exc:
                seen.add("not of s-monomial type" if "s-monomial type" in str(exc) else str(exc))
                return
            seen.update(pr.criterion for pr in rep.pairs if pr.criterion)
            seen.update("zero S-pair" for pr in rep.pairs if pr.spair_zero)
            seen.update(r.cert.status for r in rep.pairs + rep.members)
            reduced = [r.cert for r in rep.pairs + rep.members if getattr(r, "criterion", None) is None]
            seen.update("lead-group step" for c in reduced if len(c._record) > c.steps)

        sample()
        assert seen == {
            "not of s-monomial type",
            "product",
            "zero S-pair",
            REDUCED_TO_ZERO,
            INCONCLUSIVE,
            "lead-group step",
        }

    @settings(max_examples=100, deadline=None)
    @given(
        domain=st.sampled_from(("QQ", "ZZ")),
        binomials=st.lists(st.tuples(PURE, homogeneous_pair()), max_size=3),
        other=st.tuples(OTHER, st.tuples(random_monomial(), random_monomial())),
        at=st.integers(0, 3),
        kind=st.sampled_from(("lex", "grlex", "grevlex")),
    )
    def test_other_coefficients_rejected(self, domain, binomials, other, at, kind):
        # any other coefficients give one term or a non-unit: no entry
        # point takes such a polynomial, wherever it stands
        u = RANDOM_UNIVERSES[domain]
        bad = random_binomial(u, *other)
        gens = [random_binomial(u, *b) for b in binomials]
        gens.insert(min(at, len(gens)), bad)
        order = MonomialOrder(u, kind)
        for entry, args in [
            (buchberger_check, (gens, order)),
            (s_poly, (bad, bad, order)),
            (top_reduce, (bad, [u.poly_var("A") - u.poly_var("B")], order)),
            (top_reduce, (u.poly_var("A") - u.poly_var("B"), [bad], order)),
        ]:
            with pytest.raises(ValueError):
                entry(*args)

    def test_entry_points_on_desk_sample(self):
        # s_poly on every pair of a seeded sample of desk families, and
        # top_reduce of every nonzero S-pair over the whole family; under
        # spread-first lex some reductions stick
        calls = 0
        statuses = set()
        for pres, gens in random.Random(3).sample(SMALL_DESK, ENTRY_SAMPLE):
            u = pres.universe
            for order in (MonomialOrder(u, "lex"), MonomialOrder(u, "grevlex"), spread_first_lex(pres)):
                for i in range(len(gens)):
                    for j in range(i + 1, len(gens)):
                        s = check_against_reference(gens[i], gens[j], order, entry=s_poly)
                        calls += 1
                        if s:
                            statuses.add(check_against_reference(s, gens, order, entry=top_reduce).status)
                            calls += 1
        assert calls == 3186 and statuses == {REDUCED_TO_ZERO, INCONCLUSIVE}

    def test_entry_point_errors(self, monkeypatch):
        u = VarUniverse(s_names=("s1", "s2"), T_names=("A", "B"))
        s1, s2, A, B = (u.poly_var(v) for v in ("s1", "s2", "A", "B"))
        order = MonomialOrder(u, "lex")
        cases = [
            (s_poly, (u.zero(), A - B, order), ZeroPolynomial),
            (s_poly, (A - B, u.zero(), order), ZeroPolynomial),
            (top_reduce, (A * B - B * B, [A - B, u.zero()], order), ZeroPolynomial),
            (s_poly, (s1 * A - s2 * B, s1 * A - s2 * A, order), ValueError),
            (top_reduce, (A * B - B * B, [s1 * A - s2 * A], order), ValueError),
        ]
        for entry, args, error in cases:
            with pytest.raises(error):
                entry(*args)
            assert check_against_reference(*args, entry=entry) is None
        # the reference takes any polynomial of s-monomial type; the packed
        # entry points take no polynomial but a pure difference, and no
        # bare Binomial, which has no universe
        bare = Binomial(Mono(((2, 1),)), Mono(((3, 1),)), (), ())
        for entry, args in [
            (s_poly, (s1 * A - s2 * B, (s1 + s2) * A - s1 * B, order)),
            (top_reduce, (A, [A - B], order)),
            (top_reduce, (A * B - B * B, [(s1 + s2) * A - s1 * B], order)),
            (buchberger_check, ([A - B, 2 * A - B], order)),
            (buchberger_check, ([A - B, bare], order)),
            (s_poly, (A - B, bare, order)),
        ]:
            with pytest.raises(ValueError, match="not a Generator or a difference of two monomials"):
                entry(*args)
        # a zero target reduces to zero in no steps
        assert check_against_reference(u.zero(), [A - B], order, entry=top_reduce).steps == 0
        # reducing A^6 - B^6 by A - B takes six steps, past a guard of three
        monkeypatch.setattr(grobner, "DEFAULT_MAX_STEPS", 3)
        with pytest.raises(GuardExceeded):
            top_reduce(A ** 6 - B ** 6, [A - B], order)
        assert check_against_reference(A ** 6 - B ** 6, [A - B], order, entry=top_reduce) is None

    def test_step_guard(self, monkeypatch):
        # the member A^6 - B^6 reduces over A - B in six steps
        u = VarUniverse(s_names=("s1",), T_names=("A", "B"))
        A, B = u.poly_var("A"), u.poly_var("B")
        monkeypatch.setattr(grobner, "DEFAULT_MAX_STEPS", 3)
        check_against_reference([A - B, A ** 6 - B ** 6], MonomialOrder(u, "lex"))
        with pytest.raises(GuardExceeded):
            buchberger_check([A - B, A ** 6 - B ** 6], MonomialOrder(u, "lex"))


class TestHomogeneity:
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_inhomogeneous_binomial_rejected(self, at):
        # s1*A - B has terms of degrees 2 and 1: no entry point takes it as
        # a generator or a reducer, wherever it stands
        u = VarUniverse(s_names=("s1", "s2"), T_names=("A", "B", "C"))
        s1, s2, A, B, C = (u.poly_var(v) for v in ("s1", "s2", "A", "B", "C"))
        order = MonomialOrder(u, "lex")
        bad = s1 * A - B
        gens = [A - B, B - C]
        gens.insert(at, bad)
        message = "binomial is not homogeneous: its terms have degrees 2 and 1"
        for entry, args in [
            (buchberger_check, (gens, order)),
            (top_reduce, (A * A - B * C, gens, order)),
            (s_poly, tuple(gens[at : at + 2] if at < 2 else gens[1:]) + (order,)),
        ]:
            with pytest.raises(ValueError, match=message):
                entry(*args)
        # after a zero generator and a universe mismatch, before a lead of
        # no s-monomial type
        with pytest.raises(ValueError, match="zero generator"):
            buchberger_check([bad, u.zero()], order)
        with pytest.raises(UniverseMismatch):
            buchberger_check([bad], MonomialOrder(VarUniverse(s_names=("s1", "s2"), T_names=("A", "B", "C")), "lex"))
        with pytest.raises(ValueError, match=message):
            buchberger_check([s1 * A - s2 * A, bad], order)

    def test_inhomogeneous_target_taken(self):
        # a target's terms keep their degrees, 6 and 1, so it never reduces
        # to zero; the fields hold the target's degree too
        u = VarUniverse(s_names=("s1",), T_names=("A", "B", "C"))
        A, B, C = (u.poly_var(v) for v in "ABC")
        cert = check_against_reference(A ** 6 - B, [A - C], MonomialOrder(u, "lex"), entry=top_reduce)
        assert (cert.status, cert.steps, cert.remainder) == (INCONCLUSIVE, 6, C ** 6 - B)
        assert cert.verify()


class TestUniverses:
    def test_order_from_another_universe(self):
        u = VarUniverse(s_names=("s1",), T_names=("A", "B", "C"))
        u3 = VarUniverse(s_names=("s1",), T_names=("P", "Q", "R"))
        A, B, C = (u.poly_var(v) for v in "ABC")
        with pytest.raises(UniverseMismatch):
            buchberger_check([A - B, B - C], MonomialOrder(u3, "lex"))

    def test_entry_points_check_the_universe(self):
        u = VarUniverse(s_names=("s1",), T_names=("A", "B", "C"))
        v = VarUniverse(s_names=("s1",), T_names=("A", "B", "C"))
        u3 = VarUniverse(s_names=("s1",), T_names=("P", "Q", "R"))
        A, B, C = (u.poly_var(x) for x in "ABC")
        with pytest.raises(UniverseMismatch):
            s_poly(A - B, B - C, MonomialOrder(u3, "lex"))
        with pytest.raises(UniverseMismatch):
            top_reduce(A * B - C ** 2, [A - B, B - C], MonomialOrder(u3, "lex"))
        with pytest.raises(UniverseMismatch):
            top_reduce(A * B - C ** 2, [A - B, v.poly_var("B") - v.poly_var("C")], MonomialOrder(u, "lex"))
        with pytest.raises(UniverseMismatch):
            s_poly(A - B, v.poly_var("B") - v.poly_var("C"), MonomialOrder(u, "lex"))

    def test_generators_from_two_universes(self):
        u = VarUniverse(s_names=("s1",), T_names=("A", "B", "C"))
        v = VarUniverse(s_names=("s1",), T_names=("A", "B", "C"))
        with pytest.raises(UniverseMismatch):
            buchberger_check([u.poly_var("A") - u.poly_var("B"), v.poly_var("B") - v.poly_var("C")], MonomialOrder(u, "lex"))


def test_hot_path_builds_no_poly(monkeypatch, tmp_path, capsys):
    # the check takes Generators, whose binomials it packs as they are:
    # neither the check nor verify and groebner in JSON build a polynomial
    heavy = gb_heavy_specs()[0]
    pres = build_presentation(heavy)
    gens = defining_generators(pres, SINGLE)
    paths = []
    for name, spec in (("paper", PAPER), ("heavy", heavy)):
        paths.append(tmp_path / (name + ".json"))
        paths[-1].write_text(json.dumps(spec_to_dict(spec)))

    def arithmetic(*args, **kwargs):
        raise AssertionError("Poly arithmetic on the Buchberger path")

    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "term_mul"):
        monkeypatch.setattr(Poly, name, arithmetic)
    monkeypatch.setattr(poly, "leading", arithmetic)
    monkeypatch.setattr(grobner, "leading", arithmetic)
    built = []
    for owner, name in ((Binomial, "to_poly"), (VarUniverse, "from_terms")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, real=real, name=name: built.append(name) or real(*args))
    rep = buchberger_check(gens, MonomialOrder(pres.universe, "grevlex"))
    assert rep.ok and any(pr.cert.steps for pr in rep.pairs)
    for path in paths:
        for command in ("verify", "groebner"):
            assert main([command, str(path), "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out)["ok"] is True
    assert built == []
    monkeypatch.undo()
    # a stuck case builds its certificates when they are read, and they replay
    hostile = build_presentation(ReesSpec(seq=SeqSpec(n=2), blocks=(((1, 2), 2),)))
    rep = buchberger_check(defining_generators(hostile, FULL), spread_first_lex(hostile))
    certs = [r.cert for r in rep.pairs + rep.members]
    assert certs and not any({"target", "quotients", "remainder"} & set(vars(c)) for c in certs)
    assert rep.failures and all(not r.cert.remainder.is_zero() for r in rep.failures)
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

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(spec=small_specs(max_n=5, max_blocks=4))
    def test_full_and_single_agree_drawn(self, spec):
        # the lemma of buchberger_check: the check gives F's verdict on F1
        # and keeps the same basis; at most 22 matrix entries keep F under
        # a thousand generators.  F1 enters as Generators, as verify passes
        # it, and its report equals the reference's.
        pres = build_presentation(spec)
        assume(len(pres.matrix.entries) <= 22)
        full = [g.poly for g in defining_generators(pres, FULL)]
        single = defining_generators(pres, SINGLE)
        assume(full)
        for kind in ("lex", "grevlex"):
            order = MonomialOrder(pres.universe, kind)
            rep_full, rep_single = buchberger_check(full, order), check_against_reference(single, order)
            assert rep_full.ok == rep_single.ok and rep_single.verify_certificates()
            assert {full[k] for k in rep_full.basis} == {single[k].poly for k in rep_single.basis}


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
        suite = default_order_suite(uni, seeds=(1, 2))
        results = [_groebner(gens, order, "text") for order in suite]
        assert all(ok for ok, _ in results)
        assert [out[0].split(":")[0] for _, out in results] == ["groebner check under " + o.describe() for o in suite]
