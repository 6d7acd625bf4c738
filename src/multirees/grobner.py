"""Buchberger-style certification over a coefficient ring.

Leading coefficients here are polynomials in the sequence symbols, not
field elements.  Everything below is restricted to polynomials of
s-monomial type (leading coefficient = unit times an s-monomial), for
which S-pairs and top-reduction stay exact:

* the S-pair of f and g clears both leading terms after scaling by the
  lcm of the two leading s-monomials as well as the lcm of the leading
  T-monomials;
* a reduction step divides the full leading coefficient of the target by
  the reducer's leading s-monomial, so it applies only when that
  s-monomial divides every term of the coefficient.

``buchberger_check`` certifies a family through its subset of
generators with divisibility-minimal leads: it checks the S-pairs of
that subset only, skips a pair with coprime s-parts and coprime T-parts
by Buchberger's product criterion, and reduces every other generator
over the subset.

Reduction is top-reduction only and can get stuck; a stuck state is
reported as INCONCLUSIVE, never as a disproof.  All certificates carry
the multipliers needed to replay the claimed identity exactly.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .poly import (
    GuardExceeded,
    MonomialOrder,
    Poly,
    default_t_precedence,
    leading,
    mono_text,
    s_term_parts,
)

REDUCED_TO_ZERO = "REDUCED_TO_ZERO"
INCONCLUSIVE = "INCONCLUSIVE"

DEFAULT_MAX_STEPS = 10000


def _lead_parts(p, order):
    """(unit, s-monomial, T-monomial) of an s-monomial-type polynomial."""
    lc, lm = leading(p, order)
    parts = s_term_parts(lc)
    if parts is None:
        raise ValueError(
            "polynomial is not of s-monomial type under %s: leading coefficient %s"
            % (order.describe(), lc.render())
        )
    unit, smono = parts
    return unit, smono, lm


def s_poly(f, g, order):
    """The S-pair of two s-monomial-type polynomials.

    Scaled so that it is a genuine polynomial: with leading terms
    u_f*d_f*m_f and u_g*d_g*m_g, this is

        (D/d_f)(1/u_f)(M/m_f)*f - (D/d_g)(1/u_g)(M/m_g)*g

    for D = lcm(d_f, d_g) and M = lcm(m_f, m_g); both leading terms land
    on D*M and cancel.
    """
    if f.universe is not g.universe:
        raise ValueError("S-pair across universes")
    return _s_pair(f, g, _lead_parts(f, order), _lead_parts(g, order))


def _s_pair(f, g, lead_f, lead_g):
    """``s_poly`` of f and g from their ``_lead_parts``."""
    (uf, df, mf), (ug, dg, mg) = lead_f, lead_g
    M = mf.lcm(mg)
    D = df.lcm(dg)
    left = f.term_mul(Fraction(1, 1) / uf, D.div(df).mul(M.div(mf)))
    right = g.term_mul(Fraction(1, 1) / ug, D.div(dg).mul(M.div(mg)))
    return left - right


@dataclass
class ReductionCert:
    """Replayable record of a top-reduction run.

    ``quotients`` maps reducer index -> multiplier polynomial, so that
        target == sum(quotients[i] * reducers[i]) + remainder.
    """

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


def top_reduce(p, reducers, order, max_steps=DEFAULT_MAX_STEPS):
    """Top-reduce ``p`` by s-monomial-type ``reducers``; never inspects
    trailing terms of ``p``, so a nonzero remainder means only that no
    leading-term step applies (INCONCLUSIVE)."""
    reducers = tuple(reducers)
    lead = [_lead_parts(g, order) for g in reducers]
    return _reduce(p, reducers, lead, order, max_steps)


def _reduce(p, reducers, lead, order, max_steps):
    """``top_reduce`` against ``lead``, the ``_lead_parts`` of each reducer;
    each step uses the first reducer that applies."""
    quotients = {}
    work = p
    steps = 0
    while not work.is_zero():
        lc, lm = leading(work, order)
        for chosen, (_, dg, mg) in enumerate(lead):
            if mg.divides(lm) and all(dg.divides(m) for m, _ in lc.terms):
                break
        else:
            return ReductionCert(p, reducers, order, quotients, work, INCONCLUSIVE, steps)
        ug, dg, mg = lead[chosen]
        shift = lm.div(mg)
        u = p.universe
        q = Poly(u, tuple((m.div(dg).mul(shift), c / ug) for m, c in lc.terms))
        work = work - q * reducers[chosen]
        quotients[chosen] = quotients.get(chosen, u.zero()) + q
        steps += 1
        if steps > max_steps:
            raise GuardExceeded("top-reduction exceeded %d steps" % max_steps)
    return ReductionCert(p, reducers, order, quotients, work, REDUCED_TO_ZERO, steps)


@dataclass
class PairResult:
    """One S-pair of the basis, by generator index.  ``criterion`` names
    the criterion that certified the pair without reducing it."""

    i: int
    j: int
    spair_zero: bool
    cert: ReductionCert | None
    criterion: str | None = None

    @property
    def ok(self):
        return self.spair_zero or self.cert.status == REDUCED_TO_ZERO

    @property
    def label(self):
        return "pair (%d, %d)" % (self.i + 1, self.j + 1)


@dataclass
class MemberResult:
    """A generator left out of the basis, reduced over the basis."""

    k: int
    cert: ReductionCert

    @property
    def ok(self):
        return self.cert.status == REDUCED_TO_ZERO

    @property
    def label(self):
        return "member %d" % (self.k + 1)


@dataclass
class BuchbergerReport:
    order: MonomialOrder
    generators: tuple
    basis: tuple = ()
    pairs: list = field(default_factory=list)
    members: list = field(default_factory=list)

    @property
    def ok(self):
        return all(pr.ok for pr in self.pairs) and all(m.ok for m in self.members)

    @property
    def failures(self):
        """Stuck pairs, then stuck members."""
        return [r for r in self.pairs + self.members if not r.ok]

    @property
    def product_criterion(self):
        return sum(1 for pr in self.pairs if pr.criterion == "product")

    def verify_certificates(self):
        return all(r.cert.verify() for r in self.pairs + self.members if r.cert is not None)

    def summary(self):
        verdict = "CERTIFIED" if self.ok else "INCONCLUSIVE"
        lines = [
            "groebner check under %s: %s (%d generators, %d in the basis, %d pairs, "
            "%d by the product criterion, %d stuck)"
            % (
                self.order.describe(),
                verdict,
                len(self.generators),
                len(self.basis),
                len(self.pairs),
                self.product_criterion,
                len(self.failures),
            )
        ]
        for r in self.failures:
            lc, lm = leading(r.cert.remainder, self.order)
            lines.append(
                "  stuck %s: remainder leading term (%s) * %s"
                % (r.label, lc.render(), mono_text(lm, self.order.universe))
            )
        return "\n".join(lines)


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
    and ``b``, where f' and g' are f and g without their leading terms.

    Every term of f'*g lies below lm(f)*lm(g) = M, and so does every term
    of g'*f; the identity is a representation of the S-pair below its lcm,
    which is all that Buchberger's criterion asks of a pair."""
    f, g = reducers[a], reducers[b]
    uf, df, mf = lead[a]
    ug, dg, mg = lead[b]
    u = f.universe
    scale = Fraction(1, 1) / (uf * ug)
    tail_f = f - u.term(uf, df.mul(mf))
    tail_g = g - u.term(ug, dg.mul(mg))
    quotients = {a: tail_g * -scale, b: tail_f * scale}
    return ReductionCert(s, reducers, order, quotients, u.zero(), REDUCED_TO_ZERO, 0)


def buchberger_check(generators, order):
    """Certify ``generators`` (the family F) as a Groebner basis of the
    ideal it generates under ``order``.

    The check works on the subset G of generators whose leads are minimal
    under divisibility (``_minimal_basis``).  Every S-pair of G must
    top-reduce to zero over G, except that a pair whose s-parts and
    T-parts are both coprime is certified by Buchberger's product
    criterion, with the identity of ``_product_cert`` as its certificate.
    Every generator outside G (a member) must top-reduce to zero over G.

    Why this decides what the check over all pairs of F decides:

    * Suppose G passes and every member reduces to zero over G.  Then G
      is a basis, F and G generate the same ideal, and F contains G, so
      F is a basis too.
    * Suppose instead that F is a basis.  Every lead of F is divisible by
      a lead of G, so any top-reduction step over F also works over G.
      For a family of binomials, the S-pairs of G and the members are
      binomials of the ideal, and a step by a binomial leaves one.  Its
      leading coefficient is a single s-term unless both of its terms
      share one T-monomial m, that is, unless it is c*m for a coefficient
      c.  When the ideal is prime, contains no T-monomial and meets the
      coefficient ring only in zero, as for generic sequences, c*m in the
      ideal forces c = 0.  A single-term lead lies in the leading-term
      ideal of F, so a lead of F, and with it one of G, divides it.
      Hence G reduces every S-pair of G and every member to zero.

    The two checks therefore agree both ways.  Where the conditions of
    the second argument fail, either check may stick; a stuck pair or
    member is reported as INCONCLUSIVE, never as a disproof.  Every
    certificate replays.

    ``verify`` passes F1, the single-cycle binary quasi-minors, instead
    of the full binary family F, and the verdict is F's.  A union of
    vertex-disjoint cycles with matchings c_i, d_i has the quasi-minor
    prod(c_i) - prod(d_i).  The order is multiplicative on T-parts, so
    if prod(c_i) leads, some cycle has T(c_i) > T(d_i), and that cycle's
    lead c_i divides the union's lead in the s-part and, properly, in the
    T-part: no union is ever in G.  And c1*c2 - d1*d2 =
    c2*(c1 - d1) + d1*(c2 - d2) puts the union in the ideal of its
    cycles.  So F is a Groebner basis exactly when F1 is.
    """
    gens = tuple(generators)
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
            if s.is_zero():
                report.pairs.append(PairResult(i, j, True, None))
            elif _coprime(lead[i], lead[j]):
                cert = _product_cert(s, a, b, reducers, table, order)
                report.pairs.append(PairResult(i, j, False, cert, criterion="product"))
            else:
                cert = _reduce(s, reducers, table, order, DEFAULT_MAX_STEPS)
                report.pairs.append(PairResult(i, j, False, cert))
    in_basis = set(basis)
    for k, g in enumerate(gens):
        if k not in in_basis:
            report.members.append(MemberResult(k, _reduce(g, reducers, table, order, DEFAULT_MAX_STEPS)))
    return report


@dataclass
class UniversalReport:
    reports: list

    @property
    def ok(self):
        return all(r.ok for r in self.reports)

    def summary(self):
        lines = ["universal groebner check over %d orders: %s" % (len(self.reports), "CERTIFIED" if self.ok else "INCONCLUSIVE")]
        lines.extend("  " + r.summary().splitlines()[0] for r in self.reports)
        return "\n".join(lines)


def universal_gb_check(generators, orders):
    return UniversalReport([buchberger_check(generators, o) for o in orders])


def default_order_suite(universe, seeds=(1, 2, 3, 4)):
    """Deterministic spread of orders: for lex and then grevlex, the
    canonical precedence plus one seeded shuffle per seed."""
    base = list(default_t_precedence(universe))
    suite = []
    for kind in ("lex", "grevlex"):
        suite.append(MonomialOrder(universe, kind, tuple(base)))
        for seed in seeds:
            perm = list(base)
            random.Random(seed).shuffle(perm)
            suite.append(MonomialOrder(universe, kind, tuple(perm)))
    return suite
