"""Buchberger-style certification of pure-difference binomials.

The inputs are pure differences x^A - x^B: ``rees.Generator``s, whose
binomials enter packed as they are, and ``Poly``s of two terms with
coefficients +1 and -1; anything else is a ValueError.  Leading
coefficients are polynomials in the sequence symbols, not field
elements, and a binomial must be of s-monomial type: its terms have
different T-parts, and the leading one is an s-monomial times a
T-monomial.  Then S-pairs and top-reduction stay exact, and all they
form are pure differences (``buchberger_check`` says why):

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
and a divisibility test or an lcm is a few int operations (``_Ring``).
A binomial is two such ints: a generator enters once as a (unit, lead,
tail) ``entry``, unit*(lead - tail), and every S-pair, target and
remainder is a (plus, minus) pair, plus - minus, which is zero when the
two ints are equal.  A certificate keeps its quotient terms as data,
(reducer index, packed shift, +-1), from a reduction's steps or from
the product identity, and builds its target, quotients and remainder
as ``Poly`` only when they are read.  ``s_poly`` and ``top_reduce`` run
the same packed steps on one pair or one target; the same steps on
``Poly``, the reference that all three are compared with, live in the
tests.

Reduction is top-reduction only and can get stuck; a stuck state is
reported as INCONCLUSIVE, never as a disproof.  All certificates carry
the multipliers needed to replay the claimed identity exactly.
"""
from __future__ import annotations

import random
from functools import cached_property

from .poly import (
    GuardExceeded,
    MonomialOrder,
    Packing,
    Poly,
    UniverseMismatch,
    ZeroPolynomial,
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
    first read, through ``ring``, from the packed (plus, minus) target
    and remainder and the ``record``, a list of (reducer index, packed
    shift, +-1) quotient terms."""

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
        return self.ring.difference(self._target)

    @cached_property
    def remainder(self):
        return self.ring.difference(self._remainder)

    @cached_property
    def quotients(self):
        terms = {}
        for idx, shift, c in self._record:
            q = terms.setdefault(idx, {})
            q[shift] = q.get(shift, 0) + c
        return {idx: self.ring.poly(q.items()) for idx, q in terms.items()}

    def verify(self):
        acc = self.remainder
        for idx, q in self.quotients.items():
            acc = acc + q * getattr(self.reducers[idx], "poly", self.reducers[idx])
        return acc == self.target


class PairResult:
    """One S-pair of the basis, by generator index.  ``criterion`` names
    the criterion that certified the pair without reducing it; a zero
    S-pair reduces to zero in 0 steps."""

    __slots__ = ("i", "j", "spair_zero", "cert", "criterion")

    def __init__(self, i, j, spair_zero, cert, criterion=None):
        self.i, self.j, self.spair_zero, self.cert, self.criterion = i, j, spair_zero, cert, criterion

    @property
    def ok(self):
        return self.cert.status == REDUCED_TO_ZERO

    @property
    def label(self):
        return "pair (%d, %d)" % (self.i + 1, self.j + 1)


class MemberResult:
    """A generator left out of the basis, reduced over the basis."""

    __slots__ = ("k", "cert")

    def __init__(self, k, cert):
        self.k, self.cert = k, cert

    @property
    def ok(self):
        return self.cert.status == REDUCED_TO_ZERO

    @property
    def label(self):
        return "member %d" % (self.k + 1)


class BuchbergerReport:
    """The ``PairResult`` of each S-pair of ``basis`` and the
    ``MemberResult`` of each other generator, filled in by the check."""

    __slots__ = ("order", "generators", "basis", "pairs", "members")

    def __init__(self, order, generators, basis=()):
        self.order, self.generators, self.basis, self.pairs, self.members = order, generators, basis, [], []

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
    grevlex the degree minus the T-fields; two monomials have equal keys
    exactly when they have equal T-parts.

    The sum of two stored monomials cannot carry past a guard, so a guard
    set after a product means that a field overflowed (``_Overflow``).  A
    monomial a divides b when ``(b - a) & guard == 0``, and ``lcm`` takes
    the per-field max without a loop over fields (SWAR; Bachmann and
    Schoenemann, ISSAC 1998).  ``_widened`` sizes the fields for twice the
    largest degree of an input term, so the lcm of two input leads and an
    S-pair always fit; only reduction steps can overflow.
    """

    def __init__(self, order, width):
        u = order.universe
        self.universe = u
        self.order = order
        self.width = width
        coef = [vid for vid in range(len(u.names)) if vid not in u.T_idset]
        tfields = order.tvars if order.kind == "grevlex" else order.tvars[::-1]
        self.layout = Packing(coef + list(tfields), width)
        tshift = self.tshift = len(coef) * width
        self.graded = order.kind != "lex"
        self.dshift = len(u.names) * width
        ones = ((1 << ((len(u.names) + self.graded) * width)) - 1) // ((1 << width) - 1)
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

    def pack(self, mono):
        m = self.layout.pack(mono.exps)
        if self.graded:
            tset = self.universe.T_idset
            m += sum(e for v, e in mono.exps if v in tset) << self.dshift
        return m

    def poly(self, terms):
        """The ``Poly`` of (packed monomial, coefficient) ``terms``."""
        unpack = self.layout.unpack
        return self.universe.from_terms((unpack(m), c) for m, c in terms)

    def difference(self, pair):
        """The ``Poly`` plus - minus of a packed (plus, minus) pair."""
        return self.poly(zip(pair, (1, -1)))

    def entry(self, binomial):
        """(unit, packed lead, packed tail) of the (plus, minus) ``Mono``s
        of a binomial: plus - minus == unit*(lead - tail), whose lead is an
        s-monomial times a T-monomial.  Otherwise ValueError, or
        ZeroPolynomial for the zero binomial ()."""
        if not binomial:
            raise ZeroPolynomial("zero polynomial has no leading term")
        plus, minus = map(self.pack, binomial)
        kp, km = self.key(plus), self.key(minus)
        unit, lead, tail = (1, plus, minus) if kp > km else (-1, minus, plus)
        if kp != km and not lead & self.non_s:
            return unit, lead, tail
        lc, _ = leading(self.difference((plus, minus)), self.order)
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
            # modulo 2**width - 1, and the sum is below it.  It needs no
            # overflow test: ``_widened`` sizes a field for twice the largest
            # term degree, and an lcm is only taken of two input leads
            out &= (1 << self.dshift) - 1
            out |= (out >> self.tshift) % ((1 << self.width) - 1) << self.dshift
        return out

    def gcd(self, a, b):
        mask = self._ge(a, b)
        return (b & mask) | (a & ~mask)

    def support(self, m):
        """The guards of the nonzero variable fields of ``m``."""
        return ((m | self.var_guard) - self.var_ones) & self.var_guard

    def s_pair(self, entry_f, entry_g):
        """``s_poly`` of the ``entry``s f and g, as a (plus, minus) pair."""
        (_, lf, tf), (_, lg, tg) = entry_f, entry_g
        top = self.lcm(lf, lg)
        return top - lg + tg, top - lf + tf

    def certify(self, target, entries, reducers):
        """The certificate of ``reduce`` on the packed (plus, minus)
        ``target`` over the ``entry``s of ``reducers``."""
        return ReductionCert(self, target, reducers, *self.reduce(target, entries))

    def reduce(self, target, reducers):
        """``top_reduce`` of the packed (plus, minus) ``target`` over
        ``reducers``, a list of ``entry``s.  The work is sign*(a - b) with
        a leading.  A step takes the first reducer whose lead divides a and
        moves a by the reducer's tail less its lead; when a and b share the
        leading T-part, the lead must divide their gcd, and b moves too.
        Returns (status, steps, record, remainder) with one (reducer
        index, packed shift, +-1) per quotient term; GuardExceeded past
        ``DEFAULT_MAX_STEPS`` steps, read when the reduction runs."""
        guard, key = self.guard, self.key
        record = []
        steps = 0
        sign = 1
        a, b = target
        while a != b:
            ka, kb = key(a), key(b)
            if ka < kb:
                a, b, sign = b, a, -sign
            low = self.gcd(a, b) if ka == kb else a
            for chosen, (unit, lead, tail) in enumerate(reducers):
                if not (low - lead) & guard:
                    break
            else:
                return INCONCLUSIVE, steps, record, (a, b) if sign > 0 else (b, a)
            c = sign * unit
            record.append((chosen, a - lead, c))
            a += tail - lead
            if ka == kb:
                record.append((chosen, b - lead, -c))
                b += tail - lead
            if (a | b) & guard:
                raise _Overflow
            steps += 1
            if steps > DEFAULT_MAX_STEPS:
                raise GuardExceeded("top-reduction exceeded %d steps" % DEFAULT_MAX_STEPS)
        return REDUCED_TO_ZERO, steps, record, (a, b)


def _run(gens, binomials, order, width):
    """``buchberger_check`` with fields of ``width`` bits; ``_Overflow``
    if they are too narrow."""
    ring = _Ring(order, width)
    entries = [ring.entry(b) for b in binomials]
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
            if s[0] != s[1] and not support[a] & support[b]:
                # S(f, g) = u_f*T_g*f - u_g*T_f*g, below lm(f)*lm(g), which
                # is all that Buchberger's criterion asks of a pair
                (uf, _, tf), (ug, _, tg) = table[a], table[b]
                cert = ReductionCert(ring, s, basis_polys, REDUCED_TO_ZERO, 0, [(a, tg, uf), (b, tf, -ug)], (0, 0))
                report.pairs.append(PairResult(i, basis[b], False, cert, criterion="product"))
            else:
                report.pairs.append(PairResult(i, basis[b], s[0] == s[1], ring.certify(s, table, basis_polys)))
    in_basis = set(basis)
    for k, (unit, lead, tail) in enumerate(entries):
        if k not in in_basis:
            target = (lead, tail) if unit > 0 else (tail, lead)
            report.members.append(MemberResult(k, ring.certify(target, table, basis_polys)))
    return report


def buchberger_check(generators, order):
    """Certify ``generators`` (the family F) as a Groebner basis of the
    ideal it generates under ``order``.

    The check works on the subset G of generators whose leads are minimal
    under divisibility; of equal leads, G keeps the lowest index.  Every
    S-pair of G must top-reduce to zero over G, except that a nonzero
    S-pair whose s-parts and T-parts are both coprime is certified by
    Buchberger's product criterion, with the quotient terms of its
    identity S(f, g) = u_f*T_g*f - u_g*T_f*g stored as its certificate.
    A zero S-pair is not a special case: it reduces to zero in 0 steps,
    and its ``spair_zero`` is set.  Every generator outside G (a member)
    must top-reduce to zero over G.  Pairs run in index order, then the
    members.

    The work runs on packed monomials (``_Ring``), from fields that hold
    twice the largest degree of a generator term.  When a field
    overflows, the check starts again at double width (``_widened``,
    which ``s_poly`` and ``top_reduce`` share); what it computes depends
    only on the input, so the run that completes is exact.  The
    certificates record their steps and build their polynomials when
    read.  Generators and order must share one universe
    (UniverseMismatch otherwise).

    Why the packed steps are exact.  Write a generator as u*(L - T), with
    a unit u = +-1 and L leading.  With M = lcm(L_f, L_g), the S-pair
    u_f*(M/L_f)*f - u_g*(M/L_g)*g is (M/L_g)*T_g - (M/L_f)*T_f: a pure
    difference, or zero when its two terms are equal.  A step on
    +-(a - b), a leading, takes the first reducer g whose lead divides
    a and replaces a by (a/L_g)*T_g: a pure difference again, or zero.
    When a and b share the leading T-part, the leading coefficient is
    their difference; L_g must divide gcd(a, b), and the step replaces
    both terms, each times T_g/L_g, so they keep their common T-part and
    the difference is never zero.  No coefficient other than +-1
    arises, no polynomial has more than two terms, and a quotient term
    is (reducer index, shift, +-1).

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
    binomials = [_binomial(g) for g in gens]
    if not all(binomials):
        raise ValueError("zero generator")
    return _widened(gens, binomials, order, lambda width: _run(gens, binomials, order, width))


def s_poly(f, g, order):
    """The S-pair of two binomials of s-monomial type, scaled so that it
    is a genuine polynomial: with leading terms u_f*d_f*m_f and
    u_g*d_g*m_g, (D/d_f)(1/u_f)(M/m_f)*f - (D/d_g)(1/u_g)(M/m_g)*g for
    D = lcm(d_f, d_g) and M = lcm(m_f, m_g); both leading terms land on
    D*M and cancel."""
    binomials = [_binomial(f), _binomial(g)]

    def run(width):
        ring = _Ring(order, width)
        return ring.difference(ring.s_pair(*map(ring.entry, binomials)))

    return _widened((f, g), binomials, order, run)


def top_reduce(p, reducers, order):
    """Top-reduce ``p``, a binomial or zero, by binomials of s-monomial
    type (``_Ring.reduce``); never inspects the trailing term of ``p``,
    so a nonzero remainder means only that no leading-term step applies
    (INCONCLUSIVE)."""
    reducers = tuple(reducers)
    target, *binomials = map(_binomial, (p,) + reducers)

    def run(width):
        ring = _Ring(order, width)
        return ring.certify(tuple(map(ring.pack, target)) or (0, 0), [ring.entry(b) for b in binomials], reducers)

    return _widened((p,) + reducers, [target] + binomials, order, run)


def _binomial(p):
    """The (plus, minus) ``Mono``s of a ``Generator``'s binomial, or of a
    ``Poly`` plus - minus; () for the zero ``Poly``.  ValueError for
    anything else, a bare ``Binomial`` too: it has no universe."""
    if isinstance(p, Poly):
        if [c for _, c in p.terms] in ([], [1, -1], [-1, 1]):
            return tuple(m for m, _ in sorted(p.terms, key=lambda t: -t[1]))
    elif hasattr(p, "binomial"):
        return p.binomial.plus, p.binomial.minus
    raise ValueError("not a Generator or a difference of two monomials: %r" % (p,))


def _widened(polys, binomials, order, run):
    """``run(width)`` with fields that hold twice the largest degree of a
    term of ``binomials``, those of ``polys``, run again at double width
    while a field overflows.  What a run computes depends only on its
    input, so the run that completes is exact.  UniverseMismatch unless
    ``polys`` and ``order`` share one universe."""
    if any(p.universe is not order.universe for p in polys):
        raise UniverseMismatch("polynomials over a different universe than the order")
    width = (2 * max((m.degree() for b in binomials for m in b), default=0) + 1).bit_length() + 1
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
