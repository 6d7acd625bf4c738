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

STRATEGIES = ("first", "minlm")

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
    uf, df, mf = _lead_parts(f, order)
    ug, dg, mg = _lead_parts(g, order)
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


def top_reduce(p, reducers, order, strategy="first", max_steps=DEFAULT_MAX_STEPS):
    """Top-reduce ``p`` by s-monomial-type ``reducers``; never inspects
    trailing terms of ``p``, so a nonzero remainder means only that no
    leading-term step applies (INCONCLUSIVE)."""
    reducers = tuple(reducers)
    lead = [_lead_parts(g, order) for g in reducers]
    return _reduce(p, reducers, lead, order, strategy, max_steps)


def _reduce(p, reducers, lead, order, strategy, max_steps):
    """``top_reduce`` against ``lead``, the ``_lead_parts`` of each reducer."""
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy %r" % (strategy,))
    quotients = {}
    work = p
    steps = 0
    while not work.is_zero():
        lc, lm = leading(work, order)
        chosen = None
        for idx, (ug, dg, mg) in enumerate(lead):
            if not mg.divides(lm):
                continue
            if not all(dg.divides(m) for m, _ in lc.terms):
                continue
            if strategy == "first":
                chosen = idx
                break
            key = (order.key(mg), idx)
            if chosen is None or key < best_key:
                chosen, best_key = idx, key
        if chosen is None:
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
    i: int
    j: int
    spair_zero: bool
    cert: ReductionCert | None

    @property
    def ok(self):
        return self.spair_zero or self.cert.status == REDUCED_TO_ZERO


@dataclass
class BuchbergerReport:
    order: MonomialOrder
    generators: tuple
    pairs: list = field(default_factory=list)
    strategy: str = "first"

    @property
    def ok(self):
        return all(pr.ok for pr in self.pairs)

    @property
    def failures(self):
        return [pr for pr in self.pairs if not pr.ok]

    def verify_certificates(self):
        return all(pr.cert.verify() for pr in self.pairs if pr.cert is not None)

    def summary(self):
        verdict = "CERTIFIED" if self.ok else "INCONCLUSIVE"
        lines = [
            "groebner check under %s: %s (%d generators, %d pairs, %d stuck)"
            % (self.order.describe(), verdict, len(self.generators), len(self.pairs), len(self.failures))
        ]
        for pr in self.failures:
            lc, lm = leading(pr.cert.remainder, self.order)
            lines.append(
                "  stuck pair (%d, %d): remainder leading term (%s) * %s"
                % (pr.i, pr.j, lc.render(), mono_text(lm, self.order.universe))
            )
        return "\n".join(lines)


def buchberger_check(generators, order, strategy="first", max_steps=DEFAULT_MAX_STEPS):
    """Check every S-pair of ``generators`` top-reduces to zero.

    A fully reduced run certifies the list is a Groebner basis of the
    ideal it generates under ``order``; stuck pairs leave the question
    open.  No pair-skipping criteria are applied.
    """
    gens = tuple(generators)
    if not gens:
        raise ValueError("no generators")
    if any(g.is_zero() for g in gens):
        raise ValueError("zero generator")
    lead = [_lead_parts(g, order) for g in gens]
    report = BuchbergerReport(order=order, generators=gens, strategy=strategy)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            s = s_poly(gens[i], gens[j], order)
            if s.is_zero():
                report.pairs.append(PairResult(i, j, True, None))
            else:
                cert = _reduce(s, gens, lead, order, strategy, max_steps)
                report.pairs.append(PairResult(i, j, False, cert))
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


def universal_gb_check(generators, orders, strategy="first", max_steps=DEFAULT_MAX_STEPS):
    return UniversalReport(
        [buchberger_check(generators, o, strategy=strategy, max_steps=max_steps) for o in orders]
    )


def default_order_suite(universe, kinds=("lex", "grevlex"), seeds=(1, 2, 3, 4)):
    """Deterministic spread of orders: for each kind, the canonical
    precedence plus one seeded shuffle per seed."""
    base = list(default_t_precedence(universe))
    suite = []
    for kind in kinds:
        suite.append(MonomialOrder(universe, kind, tuple(base)))
        for seed in seeds:
            perm = list(base)
            random.Random(seed).shuffle(perm)
            suite.append(MonomialOrder(universe, kind, tuple(perm)))
    return suite
