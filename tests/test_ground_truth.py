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
"""
from itertools import combinations_with_replacement
from math import prod

import pytest
import sympy

from conftest import desk_scale_specs, gb_heavy_specs
from multirees.rees import RESTRICTED, ReesSpec, build_presentation, defining_generators
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
