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

BLOCKS = ("s", "x", "t", "T")
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
    """``value`` when it has type ``kind``; a bool is no int, and nothing
    is converted, so 1.5 or "2" where an integer belongs is a SpecError."""
    if isinstance(value, bool) is not (kind is bool) or not isinstance(value, kind):
        raise SpecError("%s must be of type %s, got %s" % (what, kind.__name__, json.dumps(value, default=repr)))
    return value


class Var:
    __slots__ = ("vid", "name", "block", "key", "cas_name")

    def __init__(self, vid, name, block, key=None):
        if block not in BLOCKS:
            raise ValueError("unknown block %r" % (block,))
        self.vid = vid
        self.name = name
        self.block = block
        self.key = key
        # plain identifier usable in CAS exports
        self.cas_name = name.replace("[", "_").replace("]", "").replace(";", "_").replace(",", "_")

    def __repr__(self):
        return "Var(%d, %r, %r)" % (self.vid, self.name, self.block)


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

    def support(self):
        return tuple(v for v, _ in self.exps)

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

    Ids are assigned in block order s, x, t, T, so the id order doubles as
    the global symbol order used for sign normalization (s-symbols below
    all T-symbols).
    """

    def __init__(self, s_names=(), x_names=(), t_names=(), T_names=(), T_keys=None, domain="QQ"):
        if domain not in ("QQ", "ZZ"):
            raise ValueError("domain must be QQ or ZZ")
        self.domain = domain
        vars_ = []
        for i, nm in enumerate(s_names):
            vars_.append(Var(len(vars_), nm, "s", i + 1))
        for i, nm in enumerate(x_names):
            vars_.append(Var(len(vars_), nm, "x", i + 1))
        for i, nm in enumerate(t_names):
            vars_.append(Var(len(vars_), nm, "t", i + 1))
        if T_keys is None:
            T_keys = [None] * len(T_names)
        for nm, key in zip(T_names, T_keys):
            vars_.append(Var(len(vars_), nm, "T", key))
        self.vars = tuple(vars_)
        names = [v.name for v in vars_]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self._by_name = {v.name: v for v in vars_}
        self.s_ids = tuple(v.vid for v in vars_ if v.block == "s")
        self.x_ids = tuple(v.vid for v in vars_ if v.block == "x")
        self.t_ids = tuple(v.vid for v in vars_ if v.block == "t")
        self.T_ids = tuple(v.vid for v in vars_ if v.block == "T")
        self.s_idset = frozenset(self.s_ids)
        self.T_idset = frozenset(self.T_ids)

    def vid(self, name):
        return self._by_name[name].vid

    def name(self, vid):
        return self.vars[vid].name

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
        names = self.universe.name
        parts = []
        for mono, coeff in reversed(self.terms):
            factors = []
            for vid, e in mono.exps:
                nm = names(vid)
                factors.append(nm if e == 1 else "%s^%d" % (nm, e))
            body = "*".join(factors)
            if not body:
                frag = str(abs(coeff))
            elif abs(coeff) == 1:
                frag = body
            else:
                frag = "%s*%s" % (abs(coeff), body)
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, frag))
        first_sign, first = parts[0]
        text = ("-" if first_sign == "-" else "") + first
        for sign, frag in parts[1:]:
            text += " %s %s" % (sign, frag)
        return text

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
    """Canonical precedence: blocks in listed order; inside a block,
    variables whose value concentrates on fewer sequence symbols come
    first, ties broken by the larger ladder of the exponent vector.
    (Concentration first is what keeps graded-reverse-lex leading
    monomials squarefree: the variable shared by both columns of a 2x2
    block minor is the spread one, and it must rank below the
    concentrated pair.)  Plain T-variables keep their listed order."""
    keyed = []
    for pos, vid in enumerate(universe.T_ids):
        key = universe.vars[vid].key
        if isinstance(key, tuple) and len(key) == 3 and isinstance(key[1], tuple):
            l, ladder, spread = key
            keyed.append(((0, l, spread, tuple(-j for j in ladder)), pos, vid))
        else:
            keyed.append(((1, 0, 0, ()), pos, vid))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return tuple(vid for _, _, vid in keyed)


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
