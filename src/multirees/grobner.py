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
over the subset.  Every pair and member gets a ``ReductionCert``; a zero
S-pair takes the general path and reduces to zero in 0 steps.

It runs on packed monomials: each monomial is one int with a guarded
field per variable, laid out so that the order key is read off the int,
and a divisibility test or an lcm is a few int operations
(``_Ring``); a polynomial enters as one (unit, lead, polynomial)
``entry``.  A certificate keeps its quotient terms as data, (reducer
index, packed shift, coefficient), from a reduction's steps or from the
product identity, and builds its target, quotients and remainder as
``Poly`` only when they are read.  ``s_poly`` and ``top_reduce`` run the
same packed steps on one pair or one target; the same steps on ``Poly``,
the reference that all three are compared with, live in the tests.

Reduction is top-reduction only and can get stuck; a stuck state is
reported as INCONCLUSIVE, never as a disproof.  All certificates carry
the multipliers needed to replay the claimed identity exactly.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .poly import (
    GuardExceeded,
    MonomialOrder,
    Packing,
    UniverseMismatch,
    default_t_precedence,
    leading,
)

REDUCED_TO_ZERO = "REDUCED_TO_ZERO"
INCONCLUSIVE = "INCONCLUSIVE"

DEFAULT_MAX_STEPS = 10000


class ReductionCert:
    """Replayable record of a top-reduction run over ``reducers``.

    ``quotients`` maps reducer index -> multiplier polynomial, so that
        target == sum(quotients[i] * reducers[i]) + remainder.
    ``target``, ``quotients`` and ``remainder`` are built as ``Poly`` on
    first read, through ``ring``, from the packed target and remainder
    and the ``record``, a list of (reducer index, packed shift,
    coefficient) quotient terms."""

    def __init__(self, ring, target, reducers, status, steps, record, remainder):
        self.ring = ring
        self.reducers = reducers
        self.order = ring.order
        self.status = status
        self.steps = steps
        self._target = target
        self._record = record
        self._remainder = remainder

    @cached_property
    def target(self):
        return self.ring.poly(self._target)

    @cached_property
    def remainder(self):
        return self.ring.poly(self._remainder)

    @cached_property
    def quotients(self):
        terms = {}
        for idx, shift, c in self._record:
            q = terms.setdefault(idx, {})
            q[shift] = q.get(shift, 0) + c
        return {idx: self.ring.poly(q) for idx, q in terms.items()}

    def verify(self):
        acc = self.remainder
        for idx, q in self.quotients.items():
            acc = acc + q * self.reducers[idx]
        return acc == self.target


@dataclass
class PairResult:
    """One S-pair of the basis, by generator index.  ``criterion`` names
    the criterion that certified the pair without reducing it; a zero
    S-pair reduces to zero in 0 steps."""

    i: int
    j: int
    spair_zero: bool
    cert: ReductionCert
    criterion: str | None = None

    @property
    def ok(self):
        return self.cert.status == REDUCED_TO_ZERO

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
        return all(r.cert.verify() for r in self.pairs + self.members)


class _Overflow(Exception):
    """A packed field outgrew its width."""


def _div(c, u):
    """c / u exactly: a sign flip for a unit +-1, a ``Fraction`` otherwise."""
    if u == 1:
        return c
    if u == -1:
        return -c
    return Fraction(c) / u


class _Ring:
    """The packed monomials of one check under one order.

    Every variable of the universe has a field of ``width`` bits, whose
    top bit is a guard that every stored monomial keeps clear.  The
    coefficient variables (s, x and t blocks) take the low fields in id
    order, s first, and the T-variables the fields above them, laid out so
    that the T-part read as an int orders like ``order.key``: the highest
    precedence on top for lex and grlex, the lowest on top for grevlex.
    Graded orders add one field on top that holds the T-degree.  The order
    key of a monomial is then its T-part for lex and grlex, and for
    grevlex the degree minus the T-fields.

    The sum of two stored monomials cannot carry past a guard, so a guard
    set after a product means that a field overflowed (``_Overflow``).  A
    monomial a divides b when ``(b - a) & guard == 0``, and ``lcm`` takes
    the per-field max without a loop over fields (SWAR; Bachmann and
    Schoenemann, ISSAC 1998).  A polynomial is a dict
    {packed monomial: coefficient}, with integer coefficients where they
    are integers.
    """

    def __init__(self, order, width):
        u = order.universe
        self.universe = u
        self.order = order
        self.width = width
        coef = [v.vid for v in u.vars if v.block != "T"]
        tfields = order.tvars if order.kind == "grevlex" else order.tvars[::-1]
        self.layout = Packing(coef + list(tfields), width)
        tshift = self.tshift = len(coef) * width
        self.graded = order.kind != "lex"
        self.dshift = len(u.vars) * width
        ones = ((1 << ((len(u.vars) + self.graded) * width)) - 1) // ((1 << width) - 1)
        self.guard = ones << (width - 1)
        variables = (1 << self.dshift) - 1
        self.var_guard = self.guard & variables
        self.var_ones = ones & variables
        self.non_s = ((1 << tshift) - 1) >> (len(u.s_ids) * width) << (len(u.s_ids) * width)
        if order.kind == "grevlex":
            low = (1 << (len(tfields) * width)) - 1
            self.key = lambda m: (m >> tshift) - 2 * (m >> tshift & low)
        else:
            self.key = tshift.__rrshift__

    def pack(self, p):
        pack, tset = self.layout.pack, self.universe.T_idset
        out = {}
        for mono, c in p.terms:
            m = pack(mono.exps)
            if self.graded:
                m += sum(e for v, e in mono.exps if v in tset) << self.dshift
            out[m] = c.numerator if c.denominator == 1 else c
        return out

    def poly(self, packed):
        unpack = self.layout.unpack
        return self.universe.from_terms((unpack(m), c) for m, c in packed.items())

    def lead_group(self, p):
        """The monomials of ``p`` with the leading T-part."""
        tshift = self.tshift
        top = max(p, key=self.key) >> tshift
        return [m for m in p if m >> tshift == top]

    def entry(self, g):
        """(unit, packed lead monomial, packed polynomial) of ``g``, whose
        leading term is a unit times an s-monomial times a T-monomial.
        Otherwise ValueError, or ``leading``'s ZeroPolynomial when ``g``
        is zero."""
        p = self.pack(g)
        group = self.lead_group(p) if p else ()
        if len(group) == 1:
            m = group[0]
            c = p[m]
            if not m & self.non_s and (self.universe.domain != "ZZ" or abs(c) == 1):
                return c, m, p
        lc, _ = leading(g, self.order)
        raise ValueError(
            "polynomial is not of s-monomial type under %s: leading coefficient %s" % (self.order.describe(), lc.render())
        )

    def _ge(self, a, b):
        """The value bits of each field where a's field is at least b's."""
        ge = ((a | self.guard) - b) & self.guard
        return ge - (ge >> (self.width - 1))

    def lcm(self, a, b):
        mask = self._ge(a, b)
        out = (a & mask) | (b & ~mask)
        if self.graded:
            # the degree field takes the sum of the T-fields: 2**width = 1
            # modulo 2**width - 1, and the sum is below it
            out &= (1 << self.dshift) - 1
            degree = (out >> self.tshift) % ((1 << self.width) - 1)
            if degree >> (self.width - 1):
                raise _Overflow
            out |= degree << self.dshift
        return out

    def gcd(self, a, b):
        mask = self._ge(a, b)
        return (b & mask) | (a & ~mask)

    def support(self, m):
        """The guards of the nonzero variable fields of ``m``."""
        return ((m | self.var_guard) - self.var_ones) & self.var_guard

    def s_pair(self, entry_f, entry_g):
        """``s_poly`` of the packed f and g from their ``entry``s."""
        (uf, mf, f), (ug, mg, g) = entry_f, entry_g
        top = self.lcm(mf, mg)
        guard = self.guard
        out = {}
        for m, c in f.items():
            m += top - mf
            if m & guard:
                raise _Overflow
            out[m] = _div(c, uf)
        for m, c in g.items():
            m += top - mg
            if m & guard:
                raise _Overflow
            c = out.get(m, 0) - _div(c, ug)
            if c:
                out[m] = c
            else:
                del out[m]
        return out

    def certify(self, target, entries, reducers):
        """The certificate of ``reduce`` on the packed ``target`` over the
        ``entry``s of ``reducers``."""
        work = dict(target)
        return ReductionCert(self, target, reducers, *self.reduce(work, entries), work)

    def reduce(self, work, reducers):
        """``top_reduce`` of the packed polynomial ``work``, in place, over
        ``reducers``, a list of ``entry``s: each step divides the whole
        leading coefficient by the first reducer whose lead divides each of
        its terms.  Returns (status,
        steps, record) with one (reducer index, packed shift, coefficient)
        per quotient term; GuardExceeded past ``DEFAULT_MAX_STEPS`` steps,
        read when the reduction runs."""
        guard = self.guard
        record = []
        steps = 0
        while work:
            group = self.lead_group(work)
            low = group[0]
            for m in group[1:]:
                low = self.gcd(low, m)
            for chosen, (ug, lg, g) in enumerate(reducers):
                if not (low - lg) & guard:
                    break
            else:
                return INCONCLUSIVE, steps, record
            for shift, q in [(m - lg, _div(work[m], ug)) for m in group]:
                record.append((chosen, shift, q))
                for m, c in g.items():
                    m += shift
                    if m & guard:
                        raise _Overflow
                    c = work.get(m, 0) - q * c
                    if c:
                        work[m] = c
                    else:
                        del work[m]
            steps += 1
            if steps > DEFAULT_MAX_STEPS:
                raise GuardExceeded("top-reduction exceeded %d steps" % DEFAULT_MAX_STEPS)
        return REDUCED_TO_ZERO, steps, record


def _product_record(table, a, b):
    """Quotient terms of S(f, g) = (f'*g - g'*f)/(u_f*u_g) for the
    ``entry``s f = ``table[a]`` and g = ``table[b]``, where f' and g' are
    f and g without their leading terms.

    Every term of f'*g lies below lm(f)*lm(g) = M, and so does every term
    of g'*f; the identity is a representation of the S-pair below its lcm,
    which is all that Buchberger's criterion asks of a pair."""
    (uf, mf, f), (ug, mg, g) = table[a], table[b]
    unit = uf * ug
    return [(a, m, _div(-c, unit)) for m, c in g.items() if m != mg] + [
        (b, m, _div(c, unit)) for m, c in f.items() if m != mf
    ]


def _run(gens, order, width):
    """``buchberger_check`` with fields of ``width`` bits; ``_Overflow``
    if they are too narrow."""
    ring = _Ring(order, width)
    entries = [ring.entry(g) for g in gens]
    # a divisor packs to a smaller int, or to the same int when the leads
    # are equal; so in this order a lead meets every lead that divides it
    # first, and of equal leads the lowest index
    basis = []
    for k in sorted(range(len(gens)), key=lambda k: (entries[k][1], k)):
        m = entries[k][1]
        if all((m - entries[j][1]) & ring.guard for j in basis):
            basis.append(k)
    basis.sort()
    table = [entries[k] for k in basis]
    basis_polys = tuple(gens[k] for k in basis)
    support = [ring.support(m) for _, m, _ in table]
    report = BuchbergerReport(order=order, generators=gens, basis=tuple(basis))
    for a, i in enumerate(basis):
        for b in range(a + 1, len(basis)):
            s = ring.s_pair(table[a], table[b])
            if s and not support[a] & support[b]:
                cert = ReductionCert(ring, s, basis_polys, REDUCED_TO_ZERO, 0, _product_record(table, a, b), {})
                report.pairs.append(PairResult(i, basis[b], False, cert, criterion="product"))
            else:
                report.pairs.append(PairResult(i, basis[b], not s, ring.certify(s, table, basis_polys)))
    in_basis = set(basis)
    for k, (_, _, p) in enumerate(entries):
        if k not in in_basis:
            report.members.append(MemberResult(k, ring.certify(p, table, basis_polys)))
    return report


def buchberger_check(generators, order):
    """Certify ``generators`` (the family F) as a Groebner basis of the
    ideal it generates under ``order``.

    The check works on the subset G of generators whose leads are minimal
    under divisibility; of equal leads, G keeps the lowest index.  Every
    S-pair of G must top-reduce to zero over G, except that a nonzero
    S-pair whose s-parts and T-parts are both coprime is certified by
    Buchberger's product criterion, with the quotient terms of
    ``_product_record``'s identity stored as its certificate.  A zero
    S-pair is not a special case: it reduces to zero in 0 steps, and its
    ``spair_zero`` is set.  Every generator outside G (a member) must
    top-reduce to zero over G.  Pairs run in index order, then the
    members.

    The work runs on packed monomials (``_Ring``), from fields that hold
    twice the largest degree of a generator term.  When a field
    overflows, the check starts again at double width (``_widened``,
    which ``s_poly`` and ``top_reduce`` share); what it computes depends
    only on the input, so the run that completes is exact.  The
    certificates record their steps and build their polynomials when
    read.  Generators and order must share one universe
    (UniverseMismatch otherwise).

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
    return _widened(gens, order, lambda width: _run(gens, order, width))


def s_poly(f, g, order):
    """The S-pair of two s-monomial-type polynomials.

    Scaled so that it is a genuine polynomial: with leading terms
    u_f*d_f*m_f and u_g*d_g*m_g, this is

        (D/d_f)(1/u_f)(M/m_f)*f - (D/d_g)(1/u_g)(M/m_g)*g

    for D = lcm(d_f, d_g) and M = lcm(m_f, m_g); both leading terms land
    on D*M and cancel.
    """

    def run(width):
        ring = _Ring(order, width)
        return ring.poly(ring.s_pair(ring.entry(f), ring.entry(g)))

    return _widened((f, g), order, run)


def top_reduce(p, reducers, order):
    """Top-reduce ``p`` by s-monomial-type ``reducers`` (``_Ring.reduce``);
    never inspects trailing terms of ``p``, so a nonzero remainder means
    only that no leading-term step applies (INCONCLUSIVE)."""
    reducers = tuple(reducers)

    def run(width):
        ring = _Ring(order, width)
        return ring.certify(ring.pack(p), [ring.entry(g) for g in reducers], reducers)

    return _widened((p,) + reducers, order, run)


def _widened(polys, order, run):
    """``run(width)`` with fields that hold twice the largest degree of a
    term of ``polys``, run again at double width while a field overflows.
    What a run computes depends only on its input, so the run that
    completes is exact.  UniverseMismatch unless ``polys`` and ``order``
    share one universe."""
    if any(p.universe is not order.universe for p in polys):
        raise UniverseMismatch("polynomials over a different universe than the order")
    width = (2 * max((m.degree() for p in polys for m, _ in p.terms), default=0) + 1).bit_length() + 1
    while True:
        try:
            return run(width)
        except _Overflow:
            width *= 2


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
