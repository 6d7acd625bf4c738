"""Exact sparse multivariate polynomials over a blocked variable universe.

Variables live in four blocks: ``s`` (the fixed weak regular sequence),
``x`` (ambient ring variables, concrete mode), ``t`` (target grading
symbols) and ``T`` (presentation variables).  Monomial orders compare the
T-block only; every other symbol is coefficient data, so the leading
coefficient of a polynomial is itself a polynomial in the s-block (and
x-block in concrete mode).

Coefficients are exact rationals; in ZZ mode they stay integer-valued and
the only units are +-1.
"""
from __future__ import annotations

import json
from fractions import Fraction

ORDER_KINDS = ("lex", "grlex", "grevlex")


class UniverseMismatch(ValueError):
    """Operands belong to different variable universes."""


class ZeroPolynomial(ValueError):
    """Leading-term data requested from the zero polynomial."""


class GuardExceeded(ValueError):
    """A hard enumeration guard was exceeded."""


class CapExceeded(ValueError):
    """A configurable size cap was exceeded."""


class SpecError(ValueError):
    """Invalid problem specification."""


def spec_field(value, kind, what):
    """``value`` when it has type ``kind``, a type or a tuple of types
    named by its first; a bool is no int, and nothing is converted, so 1.5
    or "2" where an integer belongs is a SpecError."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if isinstance(value, bool) is not (bool in kinds) or not isinstance(value, kinds):
        raise SpecError("%s must be of type %s, got %s" % (what, kinds[0].__name__, json.dumps(value, default=repr)))
    return value


class Mono:
    """A monomial: sorted tuple of (variable id, exponent), exponent != 0.

    The empty tuple is the monomial 1.  Exponents may go negative only
    through explicit division; ring arithmetic never produces them.
    """

    __slots__ = ("exps",)

    def __init__(self, exps=()):
        pairs = tuple(sorted((v, e) for v, e in exps if e != 0))
        seen = set()
        for v, _ in pairs:
            if v in seen:
                raise ValueError("duplicate variable id %d" % v)
            seen.add(v)
        self.exps = pairs

    @classmethod
    def _raw(cls, pairs):
        m = cls.__new__(cls)
        m.exps = pairs
        return m

    def exp(self, vid):
        for v, e in self.exps:
            if v == vid:
                return e
        return 0

    def is_one(self):
        return not self.exps

    def degree(self):
        return sum(e for _, e in self.exps)

    def mul(self, other):
        out = dict(self.exps)
        for v, e in other.exps:
            ne = out.get(v, 0) + e
            if ne:
                out[v] = ne
            else:
                del out[v]
        return Mono._raw(tuple(sorted(out.items())))

    __mul__ = mul

    def div(self, other):
        """Quotient monomial; exponents may come out negative."""
        out = dict(self.exps)
        for v, e in other.exps:
            ne = out.get(v, 0) - e
            if ne:
                out[v] = ne
            else:
                del out[v]
        return Mono._raw(tuple(sorted(out.items())))

    def divides(self, other):
        oth = dict(other.exps)
        return all(e <= oth.get(v, 0) for v, e in self.exps)

    def lcm(self, other):
        out = dict(self.exps)
        for v, e in other.exps:
            if out.get(v, 0) < e:
                out[v] = e
        return Mono._raw(tuple(sorted(out.items())))

    def gcd(self, other):
        oth = dict(other.exps)
        out = [(v, min(e, oth[v])) for v, e in self.exps if v in oth]
        return Mono._raw(tuple((v, e) for v, e in out if e))

    def restrict(self, ids):
        return Mono._raw(tuple((v, e) for v, e in self.exps if v in ids))

    def drop(self, ids):
        return Mono._raw(tuple((v, e) for v, e in self.exps if v not in ids))

    def is_squarefree(self):
        return all(e <= 1 for _, e in self.exps)

    def __eq__(self, other):
        return isinstance(other, Mono) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        return "Mono(%r)" % (self.exps,)


MONO_ONE = Mono(())


class Packing:
    """A layout of monomials in Python ints: the variables ``coords``, the
    first in the lowest field, each in a field of ``width`` bits.

    Packing is additive, so a product of monomials is the sum of their
    ints, as long as no exponent reaches 2**width.  The caller sizes the
    width, or keeps the top bit of every field clear as a guard and tests
    it after each sum."""

    __slots__ = ("coords", "width", "shift")

    def __init__(self, coords, width):
        self.coords = tuple(coords)
        self.width = width
        self.shift = {v: k * width for k, v in enumerate(self.coords)}

    def pack(self, exps):
        """The int of the (variable id, exponent) pairs ``exps``, such as
        ``Mono.exps``."""
        shift = self.shift
        return sum(e << shift[v] for v, e in exps)

    def unpack(self, packed):
        """The ``Mono`` of the fields of ``coords``; bits above them are
        ignored."""
        width = self.width
        mask = (1 << width) - 1
        return Mono(tuple((v, packed >> (k * width) & mask) for k, v in enumerate(self.coords)))


class VarUniverse:
    """Immutable inventory of variables; polynomials are bound to one.

    A variable is an id and a name.  Ids are assigned in block order s, x,
    t, T, so the id order doubles as the global symbol order used for sign
    normalization (s-symbols below all T-symbols).  ``T_precedence`` is
    the canonical precedence of the T-block: its ids sorted by the rank
    that ``T_rank`` gives each, in listed order, ties broken by id; with
    no ranks, the listed order.
    """

    def __init__(self, s_names=(), x_names=(), t_names=(), T_names=(), T_rank=None, domain="QQ"):
        if domain not in ("QQ", "ZZ"):
            raise ValueError("domain must be QQ or ZZ")
        self.domain = domain
        self.names = ()
        ids = []
        for names in (s_names, x_names, t_names, T_names):
            start = len(self.names)
            self.names += tuple(names)
            ids.append(tuple(range(start, len(self.names))))
        self.s_ids, self.x_ids, self.t_ids, self.T_ids = ids
        self._ids = {name: vid for vid, name in enumerate(self.names)}
        if len(self._ids) != len(self.names):
            dups = sorted({name for vid, name in enumerate(self.names) if self._ids[name] != vid})
            raise ValueError("duplicate variable names: %s" % ", ".join(dups))
        self.s_idset = frozenset(self.s_ids)
        self.T_idset = frozenset(self.T_ids)
        self.T_precedence = self.T_ids if T_rank is None else tuple(vid for _, vid in sorted(zip(T_rank, self.T_ids)))

    def vid(self, name):
        return self._ids[name]

    def name(self, vid):
        return self.names[vid]

    # --- polynomial constructors -------------------------------------

    def zero(self):
        return Poly(self, ())

    def one(self):
        return self.const(1)

    def const(self, c):
        c = Fraction(c)
        if c == 0:
            return Poly(self, ())
        return Poly(self, ((MONO_ONE, c),))

    def poly_var(self, name_or_vid, exp=1):
        vid = name_or_vid if isinstance(name_or_vid, int) else self.vid(name_or_vid)
        return Poly(self, ((Mono(((vid, exp),)), Fraction(1)),))

    def term(self, coeff, mono):
        coeff = Fraction(coeff)
        if coeff == 0:
            return Poly(self, ())
        return Poly(self, ((mono, coeff),))

    def from_terms(self, pairs):
        acc = {}
        for mono, coeff in pairs:
            c = acc.get(mono, Fraction(0)) + Fraction(coeff)
            if c:
                acc[mono] = c
            else:
                acc.pop(mono, None)
        return Poly._make(self, acc)


class Poly:
    """Immutable sparse polynomial with canonically sorted term storage."""

    __slots__ = ("universe", "terms")

    def __init__(self, universe, terms):
        self.universe = universe
        self.terms = tuple(sorted(terms, key=lambda t: t[0].exps))

    @classmethod
    def _make(cls, universe, tmap):
        p = cls.__new__(cls)
        p.universe = universe
        p.terms = tuple(sorted(tmap.items(), key=lambda t: t[0].exps))
        return p

    def _check(self, other):
        if self.universe is not other.universe:
            raise UniverseMismatch("polynomials from different universes")

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.universe.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.universe is other.universe and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.universe), self.terms))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.universe.const(other)
        self._check(other)
        acc = dict(self.terms)
        for mono, coeff in other.terms:
            c = acc.get(mono, Fraction(0)) + coeff
            if c:
                acc[mono] = c
            else:
                del acc[mono]
        return Poly._make(self.universe, acc)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.universe, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.universe.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if other == 0:
                return self.universe.zero()
            return Poly(self.universe, tuple((m, c * other) for m, c in self.terms))
        self._check(other)
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = m1.mul(m2)
                c = acc.get(m, Fraction(0)) + c1 * c2
                if c:
                    acc[m] = c
                else:
                    del acc[m]
        return Poly._make(self.universe, acc)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = self.universe.one()
        for _ in range(n):
            out = out * self
        return out

    def term_mul(self, coeff, mono):
        """Multiply by a single term; cheaper than building a Poly first."""
        coeff = Fraction(coeff)
        if coeff == 0:
            return self.universe.zero()
        return Poly(self.universe, tuple((m.mul(mono), c * coeff) for m, c in self.terms))

    def substitute(self, images):
        """Replace variables by polynomials; ids absent from the map stay."""
        u = self.universe
        out = u.zero()
        for mono, coeff in self.terms:
            acc = u.const(coeff)
            rest = []
            for vid, e in mono.exps:
                img = images.get(vid)
                if img is None:
                    rest.append((vid, e))
                else:
                    acc = acc * img ** e
            if rest:
                acc = acc.term_mul(1, Mono._raw(tuple(rest)))
            out = out + acc
        return out

    def render(self):
        """Deterministic human-readable form, the largest ``Mono.exps``
        first."""
        if self.is_zero():
            return "0"
        parts = []
        for mono, coeff in reversed(self.terms):
            c = abs(coeff)
            if mono.is_one():
                frag = str(c)
            elif c == 1:
                frag = mono_text(mono, self.universe)
            else:
                frag = "%s*%s" % (c, mono_text(mono, self.universe))
            parts.append(" %s %s" % ("-" if coeff < 0 else "+", frag))
        text = "".join(parts)
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def __repr__(self):
        return "Poly(%s)" % self.render()


class MonomialOrder:
    """A T-block monomial order: lex/grlex/grevlex over a variable precedence.

    ``tvars`` lists T-variable ids from highest to lowest precedence; only
    T-block exponents take part in comparisons.
    """

    __slots__ = ("kind", "tvars", "universe")

    def __init__(self, universe, kind, tvars=None):
        if kind not in ORDER_KINDS:
            raise ValueError("unknown order kind %r" % (kind,))
        if tvars is None:
            tvars = default_t_precedence(universe)
        tvars = tuple(tvars)
        if sorted(tvars) != sorted(universe.T_ids):
            raise ValueError("precedence must be a permutation of the T-block")
        self.kind = kind
        self.tvars = tvars
        self.universe = universe

    def key(self, mono):
        exps = tuple(mono.exp(v) for v in self.tvars)
        if self.kind == "lex":
            return exps
        deg = sum(exps)
        if self.kind == "grlex":
            return (deg,) + exps
        return (deg,) + tuple(-e for e in reversed(exps))

    def describe(self):
        u = self.universe
        return "%s[%s]" % (self.kind, ">".join(u.name(v) for v in self.tvars))

    def __repr__(self):
        return "MonomialOrder(%s)" % self.describe()


def mono_text(mono, universe):
    """Deterministic text for one monomial."""
    if mono.is_one():
        return "1"
    names = universe.name
    return "*".join(
        names(v) if e == 1 else "%s^%d" % (names(v), e) for v, e in mono.exps
    )


def default_t_precedence(universe):
    """``universe.T_precedence``, ranked by its builder (``rees.Presentation``)."""
    return universe.T_precedence


def leading(p, order):
    """Leading data of ``p``: (lc, lm) with lm the order-maximal T-monomial
    and lc its full coefficient, a polynomial in the s/x-block."""
    if p.is_zero():
        raise ZeroPolynomial("zero polynomial has no leading term")
    u = p.universe
    tset = u.T_idset
    groups = {}
    for mono, coeff in p.terms:
        groups.setdefault(mono.restrict(tset), []).append((mono, coeff))
    lm = max(groups, key=order.key)
    lc = {}
    for mono, coeff in groups[lm]:
        lc[mono.drop(tset)] = coeff
    return Poly._make(u, lc), lm
