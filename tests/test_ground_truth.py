"""The defining ideal by elimination, in sympy, as ground truth in every
degree.

The kernel L of T[l;e] -> s^e * t_l is the implicitization of the map:
the ideal of the differences T[l;e] - s^e * t_l, one per presentation
variable read straight from the spec, has a lex Groebner basis with the
t-symbols first whose members free of t are a Groebner basis of L (Cox,
Little and O'Shea, "Ideals, Varieties, and Algorithms", ch. 3).  Equal
reduced grevlex bases mean equal ideals, so the restricted family
generates L exactly when its reduced basis is L's.  Nothing here comes
from ``multirees.oracle`` or ``multirees.grobner``: the package gives
only the emitted binomials and the (block, exponent vector) of each
presentation variable, which must be the spec's.

The lead ideal that ``buchberger_check`` certifies for F1 is checked the
same way: the check gives only its verdict and the basis it selects, and
the leads of that basis must generate the initial ideal of sympy's lex
basis, with the T-variables first and then the sequence symbols.
"""
from itertools import combinations_with_replacement
from math import prod

import pytest
import sympy

from conftest import desk_scale_specs, gb_heavy_specs
from multirees.grobner import buchberger_check
from multirees.poly import MonomialOrder
from multirees.rees import RESTRICTED, SINGLE, ReesSpec, build_presentation, defining_generators
from multirees.sseq import SeqSpec

PAPER = ReesSpec(
    seq=SeqSpec(n=4, names=("p1", "p2", "x", "y")),
    blocks=(((1, 2), 1), ((1, 3), 1), ((2, 3), 1), ((1, 4), 1), ((2, 4), 1)),
)


def elimination_kernel(spec):
    """(L's members, the symbol of each presentation variable by (block,
    exponent vector), the sequence symbols) from the spec alone."""
    n = spec.seq.n
    s = sympy.symbols(["s_%d" % k for k in range(1, n + 1)])
    t = sympy.symbols(["t_%d" % l for l in range(1, spec.r + 1)])
    T = {}
    for l, (rows, power) in enumerate(spec.blocks, start=1):
        for combo in combinations_with_replacement(rows, power):
            e = tuple(combo.count(k) for k in range(1, n + 1))
            T[l, e] = sympy.Symbol("T_%d_%s" % (l, "_".join(map(str, e))))
    relations = [T[l, e] - prod(x**k for x, k in zip(s, e)) * t[l - 1] for l, e in T]
    basis = sympy.groebner(relations, *t, *T.values(), *s, order="lex")
    return [g for g in basis.exprs if not g.free_symbols & set(t)], T, s


def family_exprs(pres, gens, T, s):
    """The binomials of ``gens`` over the symbols of ``elimination_kernel``."""
    assert set(pres.var_block.values()) == set(T)
    u = pres.universe
    symbol = {vid: T[key] for vid, key in pres.var_block.items()}
    symbol.update(zip(u.s_ids, s))

    def expr(mono):
        return prod(symbol[v] ** e for v, e in mono.exps)

    return [expr(g.binomial.plus) - expr(g.binomial.minus) for g in gens]


def reduced_grevlex(polys, gens):
    return sympy.groebner(polys, *gens, order="grevlex").exprs if polys else []


def generates_the_kernel(spec, drop=None):
    """Whether the restricted family, less its generator ``drop`` (from 1),
    has L's reduced grevlex basis."""
    members, T, s = elimination_kernel(spec)
    pres = build_presentation(spec)
    gens = defining_generators(pres, RESTRICTED)
    if drop is not None:
        gens = gens[: drop - 1] + gens[drop:]
    ring = [*T.values(), *s]
    return reduced_grevlex(family_exprs(pres, gens, T, s), ring) == reduced_grevlex(members, ring)


def cheap_desk_specs():
    """The desk-scale specs less the n = 3 two-block specs with a block of
    power 2, whose eliminations take most of the time of the whole set."""
    return [
        spec
        for spec in desk_scale_specs()
        if not (spec.seq.n == 3 and spec.r == 2 and max(power for _, power in spec.blocks) == 2)
    ]


class TestRestrictedFamilyIsTheKernel:
    def test_desk_specs(self):
        specs = cheap_desk_specs()
        assert len(specs) == 111
        assert [k for k, spec in enumerate(specs) if not generates_the_kernel(spec)] == []

    @pytest.mark.parametrize("spec", gb_heavy_specs() + [PAPER], ids=["gb0", "gb1", "gb2", "gb3", "paper"])
    def test_large_specs(self, spec):
        assert generates_the_kernel(spec)

    @pytest.mark.parametrize("drop", [1, 8])
    def test_a_dropped_member_is_caught(self, drop):
        assert not generates_the_kernel(PAPER, drop)


def minimal(monomials):
    """The minimal generators of the monomial ideal of exponent tuples."""
    mons = set(monomials)
    return {m for m in mons if not any(d != m and all(a <= b for a, b in zip(d, m)) for d in mons)}


def certified_leads(spec, precedence=None):
    """(the check's report on F1 under lex with T-precedence ``precedence``,
    the minimal generators of its basis's leads, those of sympy's lex
    initial ideal), as exponent tuples over the T-variables in precedence
    order and then the sequence symbols: sympy's lex over that ring
    compares T-parts first, as the check does."""
    pres = build_presentation(spec)
    u = pres.universe
    order = MonomialOrder(u, "lex", precedence)
    gens = defining_generators(pres, SINGLE)
    ring = list(order.tvars) + list(u.s_ids)
    symbol = {vid: sympy.Symbol("v%d" % vid) for vid in ring}

    def vector(mono):
        exps = dict(mono.exps)
        assert set(exps) <= set(ring)
        return tuple(exps.get(v, 0) for v in ring)

    def expr(mono):
        return prod(symbol[v] ** e for v, e in mono.exps)

    rep = buchberger_check(gens, order)
    ours = minimal(max(vector(gens[k].binomial.plus), vector(gens[k].binomial.minus)) for k in rep.basis)
    exprs = [expr(g.binomial.plus) - expr(g.binomial.minus) for g in gens]
    basis = sympy.groebner(exprs, *(symbol[v] for v in ring), order="lex")
    return rep, ours, minimal(p.monoms(order="lex")[0] for p in basis.polys)


class TestCertifiedLeadIdeal:
    def test_desk_and_gb_heavy_specs(self):
        # every spec with a nonempty F1 is certified under canonical lex,
        # with the initial ideal sympy finds
        checked = 0
        for spec in desk_scale_specs() + gb_heavy_specs():
            if defining_generators(build_presentation(spec), SINGLE):
                rep, ours, theirs = certified_leads(spec)
                assert rep.ok and ours == theirs
                checked += 1
        assert checked == 194

    def test_inconclusive_on_hostile_precedence(self):
        # one block of power 2 under lex with its spread variable first:
        # the check sticks, and the initial ideal has one more minimal
        # generator than its basis's leads, a T-variable times s2^2
        spec = ReesSpec(seq=SeqSpec(n=2), blocks=(((1, 2), 2),))
        pres = build_presentation(spec)
        spread = {v: len(e) - e.count(0) for v, (_, e) in pres.var_block.items()}
        rep, ours, theirs = certified_leads(spec, sorted(pres.universe.T_ids, key=spread.get, reverse=True))
        assert not rep.ok
        assert len(ours) == 3 and len(theirs) == 4 and ours < theirs
        (extra,) = theirs - ours
        *t_part, s1, s2 = extra
        assert sorted(t_part) == [0] * (len(t_part) - 1) + [1] and (s1, s2) == (0, 2)
