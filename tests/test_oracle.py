"""Degree-bounded kernel oracle.

The oracle is itself a checking device, so these tests lean on a second,
fully independent implementation: sympy's exact nullspace for kernel
dimensions, raw exponent-vector enumeration for degree pieces, and exact
rational row reduction (``Echelon``, checked against sympy's rank) as the
reference for the oracle's fiber-connectivity spans.  The sweep's packed
exponent vectors are compared, field for field, with the same sweep on
``Mono``s (``reference_source_monomials``, ``reference_kernel_piece``),
and so are the entry points ``source_monomials`` and ``kernel_piece``,
which unpack one piece of the sweep.  A deliberately
broken family (one generator dropped) must be caught with a concrete
witness polynomial that really lies in the kernel.
"""
from fractions import Fraction
from itertools import combinations_with_replacement, product
from random import Random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import desk_scale_specs, gb_heavy_specs
from helpers import Components, dense, monomial_syzygy_kernel, small_specs, syzygy_span_compare
import multirees.oracle
from multirees.cli import _oracle_text, _piece
from multirees.oracle import (
    DEFAULT_PIECE_CAP,
    ImageData,
    KernelPiece,
    _Sweep,
    default_degrees,
    kernel_piece,
    oracle_check,
    source_monomials,
    span_compare,
)
from multirees.poly import CapExceeded, GuardExceeded, Mono, SpecError, UniverseMismatch
from multirees.quasimat import Binomial
from multirees.rees import FULL, RESTRICTED, ReesSpec, build_presentation, defining_generators, spec_from_dict
from multirees.sseq import SeqSpec, syzygy_generators


@pytest.fixture(scope="module")
def paper():
    seq = SeqSpec(n=4, names=("p1", "p2", "x", "y"))
    spec = ReesSpec(
        seq=seq,
        blocks=(((1, 2), 1), ((1, 3), 1), ((2, 3), 1), ((1, 4), 1), ((2, 4), 1)),
    )
    return build_presentation(spec)


@pytest.fixture(scope="module")
def small():
    # two symbols, one block of power two: tiny enough for brute force
    spec = ReesSpec(seq=SeqSpec(n=2), blocks=(((1, 2), 2),))
    return build_presentation(spec)


class MonoImage:
    """The presentation map on ``Mono``s and ``Poly``s, the reference for
    the oracle's packed imaging: each T-variable's image, coefficient and
    weight worked out from the presentation, a monomial imaged variable by
    variable, and a formal generator evaluated by ``Poly.substitute``."""

    def __init__(self, pres):
        self.pres = pres
        u = pres.universe
        seq = pres.spec.seq
        if seq.mode == "generic":
            self.ambient_ids = u.s_ids
            base = {u.s_ids[i]: ((u.s_ids[i], 1),) for i in range(seq.n)}
            coeffs = {u.s_ids[i]: 1 for i in range(seq.n)}
        else:
            self.ambient_ids = u.x_ids
            base, coeffs = {}, {}
            for i, (c, mexp) in enumerate(seq.concrete_monomial_values()):
                base[u.s_ids[i]] = tuple((u.vid(xn), e) for xn, e in sorted(mexp.items()))
                coeffs[u.s_ids[i]] = c
        self.t_weight, self.t_image, self.t_coeff = {}, {}, {}
        for vid, (l, s_exps) in pres.var_block.items():
            acc = {}
            coeff = 1
            for i, e in enumerate(s_exps):
                if not e:
                    continue
                svid = u.s_ids[i]
                coeff *= coeffs[svid] ** e
                for xv, xe in base[svid]:
                    acc[xv] = acc.get(xv, 0) + xe * e
            acc[u.t_ids[l - 1]] = 1
            self.t_image[vid] = tuple(sorted(acc.items()))
            self.t_coeff[vid] = coeff
            self.t_weight[vid] = sum(e for v, e in self.t_image[vid] if v != u.t_ids[l - 1])
        self.ring_ids = u.T_idset | set(self.ambient_ids)

    def image(self, mono):
        """(coefficient, image monomial) of a source monomial."""
        acc = {}
        coeff = 1
        for vid, e in mono.exps:
            img = self.t_image.get(vid)
            if img is None:
                acc[vid] = acc.get(vid, 0) + e
            else:
                coeff *= self.t_coeff[vid] ** e
                for v, xe in img:
                    acc[v] = acc.get(v, 0) + xe * e
        return coeff, Mono(tuple(acc.items()))

    def degree(self, mono):
        """(block degree tuple, ambient weight) of a source monomial."""
        tvec = [0] * self.pres.spec.r
        weight = 0
        for vid, e in mono.exps:
            info = self.pres.var_block.get(vid)
            if info is None:
                weight += e
            else:
                tvec[info[0] - 1] += e
                weight += self.t_weight[vid] * e
        return tuple(tvec), weight

    def poly_degree(self, p):
        degs = {self.degree(m) for m, _ in p.terms}
        if len(degs) != 1:
            raise ValueError("polynomial is not homogeneous for the oracle grading")
        return degs.pop()

    def evaluate(self, p):
        """A formal generator over the ambient ring the oracle enumerates:
        in concrete mode sequence symbols become their values."""
        if self.pres.spec.seq.mode == "concrete":
            return p.substitute(self.pres.s_values())
        return p

    def moves(self, p, pack):
        """What the sweep files for the one two-term polynomial ``p``, each
        term evaluated on its own: {} when the two meet and cancel, {degree:
        [(m_a, m_b)]} for a kernel binomial, each term packed by ``pack``
        and the pair sorted, or the message of the ValueError for anything
        else."""
        u = self.pres.universe
        terms = [self.evaluate(u.term(c, m)).terms[0] for m, c in p.terms]
        if any(v not in self.ring_ids for m, _ in terms for v, _ in m.exps):
            return "generator %s leaves the enumerated presentation ring" % p.render()
        (ma, a), (mb, b) = terms
        (ca, ia), (cb, ib) = self.image(ma), self.image(mb)
        if ia != ib or a * ca + b * cb:
            return "generator %s does not map to zero" % p.render()
        if ma == mb:
            return {}
        return {self.poly_degree(u.from_terms(terms)): [tuple(sorted((pack(ma.exps), pack(mb.exps))))]}


class Echelon:
    """Incremental exact row echelon over the rationals, sparse rows: the
    reference the oracle's union-find spans are compared against."""

    def __init__(self):
        self.pivots = {}

    def _reduce(self, vec):
        v = {c: Fraction(x) for c, x in vec.items() if x}
        while v:
            c = min(v)
            row = self.pivots.get(c)
            if row is None:
                return v, c
            coef = v.pop(c)
            for cc, val in row.items():
                if cc == c:
                    continue
                nv = v.get(cc, Fraction(0)) - coef * val
                if nv:
                    v[cc] = nv
                else:
                    v.pop(cc, None)
        return v, None

    def insert(self, vec):
        """Add a vector; True if it enlarged the span."""
        v, c = self._reduce(vec)
        if c is None:
            return False
        lead = v[c]
        self.pivots[c] = {cc: val / lead for cc, val in v.items()}
        return True

    def residual(self, vec):
        """The reduced form of ``vec``; empty means it lies in the span."""
        v, _ = self._reduce(vec)
        return v

    @property
    def rank(self):
        return len(self.pivots)


def reference_source_monomials(pres, tvec, weight, cap=None, data=None):
    """``source_monomials`` on ``Mono``s: every block's monomials by
    ``combinations_with_replacement``, their product, then each ambient
    monomial of the weight left.  ``data``, the presentation's
    ``MonoImage``, is built when not given."""
    data = data or MonoImage(pres)
    if len(tvec) != pres.spec.r or any(d < 0 for d in tvec):
        raise ValueError("block degree tuple must list %d nonnegative entries" % pres.spec.r)
    parts = [list(combinations_with_replacement(bd.vids.values(), d)) for bd, d in zip(pres.blocks, tvec)]
    out = []
    for combo in product(*parts):
        tpairs = {}
        base_weight = 0
        for piece in combo:
            for vid in piece:
                tpairs[vid] = tpairs.get(vid, 0) + 1
                base_weight += data.t_weight[vid]
        rest = weight - base_weight
        if rest < 0:
            continue
        for amb in combinations_with_replacement(data.ambient_ids, rest):
            pairs = dict(tpairs)
            for vid in amb:
                pairs[vid] = pairs.get(vid, 0) + 1
            out.append(Mono(tuple(pairs.items())))
            if cap is not None and len(out) > cap:
                raise CapExceeded("degree piece %r/%d exceeds the cap of %d monomials" % (tvec, weight, cap))
    return out


def fiber_basis(data, monos):
    """Kernel basis of the map on a list of monomials, one fiber at a
    time, fibers sorted by their image's ``Mono.exps``: each fiber with k
    members gives k - 1 differences, its first member against the rest."""
    fibers = {}
    for i, m in enumerate(monos):
        coeff, img = data.image(m)
        fibers.setdefault(img, []).append((i, coeff))
    basis = []
    for img in sorted(fibers, key=lambda m: m.exps):
        group = fibers[img]
        if len(group) < 2:
            continue
        i0, c0 = group[0]
        for i, c in group[1:]:
            basis.append({i0: c, i: -c0})
    return basis


def reference_kernel_piece(pres, tvec, weight, cap=DEFAULT_PIECE_CAP, data=None):
    """``kernel_piece`` on ``Mono``s."""
    data = data or MonoImage(pres)
    monos = reference_source_monomials(pres, tvec, weight, cap, data)
    return KernelPiece(tuple(tvec), weight, monos, fiber_basis(data, monos))


def echelon_span(pres, generators, tvec, weight, data):
    """Reference span of the generator multiples in one piece: every
    multiple enumerated from its own multiplier monomials and row-reduced.
    Returns the echelon, the number of multiples and the kernel piece."""
    piece = reference_kernel_piece(pres, tvec, weight, data=data)
    index = {m: i for i, m in enumerate(piece.monomials)}
    ech = Echelon()
    multiples = 0
    for g in generators:
        p = data.evaluate(g.poly)
        gt, gw = data.poly_degree(p)
        dt = tuple(a - b for a, b in zip(tvec, gt))
        if min(dt) < 0 or weight < gw:
            continue
        for mult in reference_source_monomials(pres, dt, weight - gw, data=data):
            ech.insert({index[m.mul(mult)]: c for m, c in p.terms})
            multiples += 1
    return ech, multiples, piece


def vector_to_poly(piece, universe, vec):
    """The polynomial of a kernel basis vector {monomial index: coefficient}
    of ``piece``."""
    return universe.from_terms([(piece.monomials[i], c) for i, c in vec.items()])


def mono_reference(pres, generators, piece, data):
    """The sweep's report fields for one piece, computed on ``Mono``s from
    ``reference_kernel_piece``: every multiple q*m_a, q*m_b formed by
    ``Mono.mul`` over the quotient piece from
    ``reference_source_monomials``, fibers from ``MonoImage.image``, and
    the first basis binomial across two components as witness."""
    tvec, weight = piece.tvec, piece.weight
    index = {m: i for i, m in enumerate(piece.monomials)}
    comps = Components()
    span_dim = multiples = 0
    for g in generators:
        p = data.evaluate(g.poly)
        if p.is_zero():
            continue
        gt, gw = data.poly_degree(p)
        dt = tuple(a - b for a, b in zip(tvec, gt))
        if min(dt) < 0 or weight < gw:
            continue
        (ma, _), (mb, _) = p.terms
        for q in reference_source_monomials(pres, dt, weight - gw, data=data):
            multiples += 1
            span_dim += comps.join(index[q.mul(ma)], index[q.mul(mb)])
    witness = None
    if span_dim < len(piece.basis):
        vec = next(v for v in piece.basis if len({comps.find(i) for i in v}) == 2)
        witness = vector_to_poly(piece, pres.universe, vec)
    return (len(piece.monomials), len(piece.basis), span_dim, multiples, witness is None, witness)


def assert_sweep_matches_mono_reference(pres, generators, degrees):
    """Every report field of one ``oracle_check`` sweep, and every field of
    ``kernel_piece`` on each of its pieces, equals the ``Mono`` reference,
    and every witness maps to zero; returns the reports.  A reference
    piece without kernel has no multiple and spans nothing, which is why
    the sweep returns such a piece before it walks its plan."""
    data = MonoImage(pres)
    reports = oracle_check(pres, generators, degrees=degrees).reports
    assert [(r.tvec, r.weight) for r in reports] == [(tuple(t), w) for t, w in degrees]
    for rep in reports:
        piece = reference_kernel_piece(pres, rep.tvec, rep.weight, data=data)
        got = kernel_piece(pres, rep.tvec, rep.weight)
        assert (got.tvec, got.weight, got.monomials, got.basis) == (piece.tvec, piece.weight, piece.monomials, piece.basis)
        want = mono_reference(pres, generators, piece, data)
        if not want[1]:
            assert want[2:4] == (0, 0)
        assert (rep.piece_size, rep.kernel_dim, rep.span_dim, rep.multiples, rep.ok, rep.witness) == want
        if rep.witness is not None:
            assert pres.phi(rep.witness).is_zero()
    return reports


def brute_source_monomials(pres, data, tvec, weight):
    """Independent enumeration: all exponent vectors over the presentation
    variables plus ambient symbols, filtered by the oracle grading."""
    u = pres.universe
    f_vids = u.T_ids
    amb = list(data.ambient_ids)
    t_total = sum(tvec)
    out = set()
    for t_exps in product(range(t_total + 1), repeat=len(f_vids)):
        if sum(t_exps) != t_total:
            continue
        for a_exps in product(range(weight + 1), repeat=len(amb)):
            pairs = [(v, e) for v, e in zip(f_vids, t_exps) if e]
            pairs += [(v, e) for v, e in zip(amb, a_exps) if e]
            m = Mono(tuple(pairs))
            if data.degree(m) == (tuple(tvec), weight):
                out.add(m)
    return out


def sympy_kernel_dim(data, monos):
    """Kernel dimension of the presentation map on a monomial list, via an
    exact sympy nullspace — no fiber shortcut."""
    targets = {}
    cols = []
    for m in monos:
        coeff, img = data.image(m)
        targets.setdefault(img, len(targets))
        cols.append((targets[img], coeff))
    mat = sympy.zeros(len(targets), len(monos))
    for j, (row, coeff) in enumerate(cols):
        mat[row, j] = coeff
    return len(mat.nullspace())


class TestImageData:
    def test_generic_variable_image(self, paper):
        u = paper.universe
        vid = u.vid("T[1;110]")
        # js (0,1,1) gives step exponents (0,1,0,0) over p1,p2,x,y, then t_1
        expected = ((u.vid("p2"), 1), (u.t_ids[0], 1))
        assert ImageData(paper).table[vid] == (1, expected, 1)
        assert MonoImage(paper).image(Mono(((vid, 1),))) == (1, Mono(expected))
        # an ambient symbol maps to itself, and nothing else has an entry
        assert ImageData(paper).table[u.vid("p1")] == (1, ((u.vid("p1"), 1),), 1)
        assert set(ImageData(paper).table) == set(u.T_ids) | set(u.s_ids)

    @pytest.mark.parametrize("kind", [None, 0, 1, 2])
    def test_table_matches_the_reference(self, kind):
        # every T-variable's entry is its reference image, coefficient and
        # weight; in concrete mode a sequence symbol's entry is its value
        for k, spec in enumerate(desk_scale_specs()[::7]):
            pres = build_presentation(spec if kind is None else concrete_variant(spec, kind))
            table, ref = ImageData(pres).table, MonoImage(pres)
            u = pres.universe
            for vid in u.T_ids:
                assert table[vid] == (ref.t_coeff[vid], ref.t_image[vid], ref.t_weight[vid])
            for v in ref.ambient_ids:
                assert table[v] == (1, ((v, 1),), 1)
            if kind is not None:
                for svid, value in pres.s_values().items():
                    ((mono, coeff),) = value.terms
                    assert table[svid] == (coeff, mono.exps, mono.degree())
            assert len(table) == len(u.T_ids) + len(ref.ambient_ids) + (0 if kind is None else len(u.s_ids))

    def test_image_is_multiplicative(self, paper):
        data = MonoImage(paper)
        u = paper.universe
        a = Mono(((u.vid("T[1;110]"), 1),))
        b = Mono(((u.vid("T[2;100]"), 2), (u.vid("p1"), 1)))
        ca, ia = data.image(a)
        cb, ib = data.image(b)
        cab, iab = data.image(a.mul(b))
        assert cab == ca * cb
        assert iab == ia.mul(ib)

    def test_degree_splits_blocks_and_weight(self, paper):
        data = MonoImage(paper)
        u = paper.universe
        m = Mono(((u.vid("T[1;110]"), 1), (u.vid("T[3;100]"), 2), (u.vid("p1"), 3)))
        tvec, weight = data.degree(m)
        assert tvec == (1, 0, 2, 0, 0)
        # each power-one variable weighs 1, plus three ambient symbols
        assert weight == 1 + 2 + 3

    def test_poly_degree_rejects_mixed(self, paper):
        data = MonoImage(paper)
        u = paper.universe
        p = u.poly_var("T[1;110]") + u.poly_var("p1")
        with pytest.raises(ValueError):
            data.poly_degree(p)

    def test_generator_images_vanish(self, paper):
        data = MonoImage(paper)
        for g in defining_generators(paper, RESTRICTED):
            images = {}
            for m, c in g.poly.terms:
                coeff, img = data.image(m)
                images[img] = images.get(img, 0) + c * coeff
            assert all(v == 0 for v in images.values())

    def test_concrete_values_carry_coefficients(self):
        seq = SeqSpec(
            n=3,
            mode="concrete",
            x_names=("x",),
            concrete_terms=(((2, {}),), ((3, {}),), ((1, {"x": 1}),)),
        )
        spec = ReesSpec(seq=seq, blocks=(((1, 2), 1), ((2, 3), 1)))
        pres = build_presentation(spec)
        table = ImageData(pres).table
        u = pres.universe
        # the variable of s1 picks up symbol 1's value 2, and weighs 0
        vid = pres.blocks[0].vids[(1, 0, 0)]
        assert table[vid] == (2, ((u.t_ids[0], 1),), 0)
        assert table[u.s_ids[0]] == (2, (), 0)
        assert table[u.s_ids[2]] == (1, ((u.vid("x"), 1),), 1)

    def test_non_monomial_concrete_value_rejected(self):
        seq = SeqSpec(
            n=2,
            mode="concrete",
            x_names=("x", "y"),
            concrete_terms=(((1, {"x": 1}), (1, {"y": 1})), ((1, {"y": 1}),)),
        )
        spec = ReesSpec(seq=seq, blocks=(((1, 2), 1),))
        pres = build_presentation(spec)
        with pytest.raises(SpecError):
            ImageData(pres)


class TestSourceMonomials:
    def test_matches_brute_force(self, small):
        data = MonoImage(small)
        for tvec in [(0,), (1,), (2,)]:
            for weight in range(0, 5):
                got = source_monomials(small, tvec, weight)
                assert len(set(got)) == len(got)
                assert set(got) == brute_source_monomials(small, data, tvec, weight)

    def test_matches_brute_force_two_blocks(self, paper):
        data = MonoImage(paper)
        # the all-zero T-vector is the ambient-only quotient piece of a
        # T-degree-one generator
        for tvec in [(1, 0, 0, 1, 0), (0, 1, 1, 0, 0), (0, 0, 0, 0, 0)]:
            got = source_monomials(paper, tvec, 2)
            assert set(got) == brute_source_monomials(paper, data, tvec, 2)

    def test_degree_validation(self, small):
        with pytest.raises(ValueError):
            source_monomials(small, (1, 1), 2)
        with pytest.raises(ValueError):
            source_monomials(small, (-1,), 2)

    def test_cap_enforced(self, paper):
        with pytest.raises(CapExceeded):
            source_monomials(paper, (1, 1, 1, 0, 0), 4, cap=3)

    @pytest.mark.parametrize(
        "tvec, weight, cap",
        [((1, 1), 2, None), ((-1, 0, 0, 0, 0), 2, None), ((1, 1, 1, 0, 0), 4, 3), ((1, 1, 1, 0, 0), 4, 0)],
    )
    def test_errors_match_the_reference(self, paper, tvec, weight, cap):
        for entry, reference in ((source_monomials, reference_source_monomials), (kernel_piece, reference_kernel_piece)):
            with pytest.raises(ValueError) as want:
                reference(paper, tvec, weight, cap)
            with pytest.raises(ValueError) as got:
                entry(paper, tvec, weight, cap)
            assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


class TestKernelPiece:
    def test_dim_matches_sympy_nullspace(self, small):
        data = MonoImage(small)
        for tvec in [(1,), (2,), (3,)]:
            for weight in range(0, 7):
                piece = kernel_piece(small, tvec, weight)
                assert len(piece.basis) == sympy_kernel_dim(data, piece.monomials)

    def test_dim_matches_sympy_on_paper_example(self, paper):
        data = MonoImage(paper)
        for tvec, weight in [((1, 1, 0, 0, 0), 2), ((1, 0, 1, 1, 0), 3), ((2, 0, 0, 0, 0), 2)]:
            piece = kernel_piece(paper, tvec, weight)
            assert len(piece.basis) == sympy_kernel_dim(data, piece.monomials)

    def test_basis_vectors_map_to_zero(self, paper):
        data = MonoImage(paper)
        piece = kernel_piece(paper, (1, 1, 1, 0, 0), 3)
        assert piece.basis
        for vec in piece.basis:
            images = {}
            for i, c in vec.items():
                coeff, img = data.image(piece.monomials[i])
                images[img] = images.get(img, 0) + c * coeff
            assert all(v == 0 for v in images.values())


class TestEchelon:
    def test_rank_and_membership(self):
        ech = Echelon()
        assert ech.insert({0: Fraction(1), 1: Fraction(2)})
        assert ech.insert({1: Fraction(1)})
        # dependent on the first two
        assert not ech.insert({0: Fraction(3), 1: Fraction(1)})
        assert ech.rank == 2
        assert ech.residual({0: Fraction(5)}) == {}
        assert ech.residual({2: Fraction(1)}) != {}

    def test_matches_sympy_rank_on_random_matrices(self):
        rng = Random(7)
        for _ in range(20):
            rows = [
                {j: rng.randint(-2, 2) for j in range(5) if rng.random() < 0.6}
                for _ in range(6)
            ]
            ech = Echelon()
            for row in rows:
                ech.insert(row)
            mat = sympy.Matrix([[row.get(j, 0) for j in range(5)] for row in rows])
            assert ech.rank == mat.rank()


def sweep_of_one(pres, generators, tvec, weight):
    """``span_compare`` through ``oracle_check``: a sweep of one piece."""
    (report,) = oracle_check(pres, generators, degrees=[(tvec, weight)]).reports
    return report


class TestSpanCompare:
    def test_restricted_family_spans(self, paper):
        gens = defining_generators(paper, RESTRICTED)
        report = span_compare(paper, gens, (1, 1, 0, 1, 0), 3)
        assert report.ok
        assert report.kernel_dim == report.span_dim or report.span_dim >= report.kernel_dim

    def test_dropped_generator_is_caught(self, paper):
        gens = defining_generators(paper, RESTRICTED)
        cycles = [g for g in gens if g.kind == "multiblock-cycle"]
        broken = [g for g in gens if g is not cycles[0]]
        report = oracle_check(paper, broken, t_cap=3, ambient_cap=4)
        assert not report.ok
        bad = report.failures[0]
        assert bad.witness is not None
        witness = bad.witness
        assert not witness.is_zero()
        # the witness is a kernel basis vector of the missed piece, and it
        # genuinely lies in the kernel of the presentation map
        piece = kernel_piece(paper, bad.tvec, bad.weight)
        assert witness in [vector_to_poly(piece, paper.universe, v) for v in piece.basis]
        assert len(witness.terms) == 2
        assert paper.phi(witness).is_zero()

    def test_witness_outside_broken_span(self, paper):
        gens = defining_generators(paper, RESTRICTED)
        cycles = [g for g in gens if g.kind == "multiblock-cycle"]
        broken = [g for g in gens if g is not cycles[0]]
        report = oracle_check(paper, broken, t_cap=3, ambient_cap=4)
        bad = report.failures[0]
        # the full family still covers the missed piece
        again = span_compare(paper, gens, bad.tvec, bad.weight)
        assert again.ok

    def test_stray_variable_rejected(self, paper):
        u = paper.universe
        # t3 is a target symbol, not part of the presentation ring the
        # oracle enumerates
        p = u.poly_var("t3") - u.poly_var("T[3;100]")
        for compare in (span_compare, sweep_of_one):
            with pytest.raises(ValueError, match="leaves the enumerated presentation ring"):
                compare(paper, [p], (0, 0, 1, 0, 0), 1)

    @pytest.mark.parametrize(
        "terms, message",
        [
            # a trinomial: the kernel generator p1*T[1;110] - p2*T[1;111]
            # plus a third term
            ([(1, "p1", "T[1;110]"), (-1, "p2", "T[1;111]"), (1, "p1", "T[1;111]")], "not a binomial"),
            # a binomial whose images differ
            ([(1, "p1", "T[1;110]"), (-1, "p1", "T[1;111]")], "does not map to zero"),
            # a binomial whose images agree but whose coefficients do not cancel
            ([(2, "p1", "T[1;110]"), (-1, "p2", "T[1;111]")], "does not map to zero"),
        ],
    )
    def test_generator_outside_kernel_binomials_rejected(self, paper, terms, message):
        u = paper.universe
        p = sum((c * u.poly_var(s) * u.poly_var(t) for c, s, t in terms), u.zero())
        for compare in (span_compare, sweep_of_one):
            with pytest.raises(ValueError, match=message):
                compare(paper, [p], (1, 0, 0, 0, 0), 2)


def sweep_verdicts_match_echelon(pres, families):
    """Each family's ``oracle_check`` over the default sweep cut to
    T-degree 3 and ambient weight 5 against ``echelon_span``, piece by
    piece; returns the verdicts seen."""
    data = MonoImage(pres)
    degrees = default_degrees(pres, t_cap=3, ambient_cap=5)
    verdicts = set()
    for gens in families:
        # one sweep per family, so the pieces share its memo
        reports = oracle_check(pres, gens, degrees=degrees).reports
        assert len(reports) == len(degrees)
        for (tvec, weight), rep in zip(degrees, reports):
            ech, multiples, piece = echelon_span(pres, gens, tvec, weight, data)
            outside = [v for v in piece.basis if ech.residual(v)]
            assert (rep.ok, rep.span_dim, rep.kernel_dim, rep.multiples, rep.piece_size) == (
                not outside,
                ech.rank,
                len(piece.basis),
                multiples,
                len(piece.monomials),
            )
            if outside:
                # the witness is the first basis vector outside the span
                assert rep.witness == vector_to_poly(piece, pres.universe, outside[0])
            verdicts.add(rep.ok)
    return verdicts


def drop_one(gens, k):
    drop = k % len(gens) if gens else 0
    return gens[:drop] + gens[drop + 1:]


class TestConnectivityMatchesEchelon:
    def test_desk_specs_agree(self):
        # every desk-scale spec, with its restricted family, its full family
        # and its restricted family less one generator, so both verdicts
        # occur
        verdicts = set()
        for k, spec in enumerate(desk_scale_specs()):
            pres = build_presentation(spec)
            restricted = defining_generators(pres, RESTRICTED)
            families = [restricted, defining_generators(pres, FULL), drop_one(restricted, k)]
            verdicts |= sweep_verdicts_match_echelon(pres, families)
        assert verdicts == {True, False}

    def test_concrete_specs_agree(self):
        # a quarter of the desk-scale shapes, each with concrete values of
        # one kind in turn: squarefree attested values (distinct variables,
        # one a product of two), one prime constant, and constants only
        # over an empty ambient list
        verdicts = set()
        for k, spec in enumerate(desk_scale_specs()[::4]):
            pres = build_presentation(concrete_variant(spec, k % 3))
            restricted = defining_generators(pres, RESTRICTED)
            verdicts |= sweep_verdicts_match_echelon(pres, [restricted, drop_one(restricted, k)])
        assert verdicts == {True, False}

    @settings(max_examples=60, deadline=None)
    @given(
        exps=st.integers(1, 3).flatmap(
            lambda n: st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=4)
        ),
        max_degree=st.integers(0, 6),
    )
    def test_syzygy_span_matches_echelon(self, exps, max_degree):
        gens = [dense(e) for e in exps]
        n = len(exps[0])
        reports = syzygy_span_compare(gens, n, max_degree)
        assert [r.degree for r in reports] == list(range(max_degree + 1))
        for rep in reports:
            ech = Echelon()
            for vec in syzygy_generators(gens):
                entries = [(slot,) + entry for slot, entry in enumerate(vec) if entry is not None]
                slot, _, mono = entries[0]
                rest = rep.degree - mono.degree() - gens[slot].degree()
                for mult in _all_exps(rest, n) if rest >= 0 else ():
                    ech.insert({(k, m.mul(dense(mult))): c for k, c, m in entries})
            assert rep.span_dim == ech.rank


PRIMES = (2, 3, 5)


def concrete_variant(spec, kind):
    """``spec`` with concrete monomial values.  Kind 0: squarefree
    attested values, distinct variables with one value a product of two;
    kind 1: one value a prime constant, the others distinct variables;
    kind 2: prime constants only, over an empty ambient list."""
    n = spec.seq.n
    names = ("x", "y", "z", "u")
    special = len(spec.blocks) % n
    values, used = [], []
    for i in range(n):
        if kind == 2 or (kind == 1 and i == special):
            values.append(((PRIMES[i], {}),))
            continue
        vars_ = names[len(used) : len(used) + (2 if i == special else 1)]
        used += vars_
        values.append(((1, {x: 1 for x in vars_}),))
    seq = SeqSpec(n=n, mode="concrete", x_names=tuple(used), concrete_terms=tuple(values))
    return ReesSpec(seq=seq, blocks=spec.blocks)


# constant values give T-variables weight 0, so the T-degree of a piece
# exceeds its ambient weight
CONSTANT_SPEC = {
    "sequence": {
        "mode": "concrete",
        "n": 3,
        "ambient": ["x"],
        "values": [[[2, {}]], [[3, {}]], [[1, {"x": 1}]]],
    },
    "blocks": [{"rows": [1, 2], "power": 1}, {"rows": [1, 2, 3], "power": 1}],
}


# values of degrees 3, 1 and 0 give the T-variables of one block weights
# from 0 to 6
MIXED_DEGREE_SPEC = {
    "sequence": {
        "mode": "concrete",
        "n": 3,
        "ambient": ["x", "y"],
        "values": [[[1, {"x": 3}]], [[1, {"y": 1}]], [[2, {}]]],
    },
    "blocks": [{"rows": [1, 2], "power": 1}, {"rows": [1, 2, 3], "power": 2}],
}


class TestPackedSweep:
    """The sweep's packed exponent vectors against the ``Mono`` path."""

    def test_weight_zero_variables_widen_the_field(self):
        # T-degree up to 4 at ambient weight 0: a field sized from the
        # weight alone would merge distinct monomials
        pres = build_presentation(spec_from_dict(CONSTANT_SPEC))
        gens = defining_generators(pres, RESTRICTED)
        degrees = default_degrees(pres, t_cap=4, ambient_cap=0)
        assert max(sum(t) for t, _ in degrees) == 4 and max(w for _, w in degrees) == 0
        assert all(r.ok for r in assert_sweep_matches_mono_reference(pres, gens, degrees))
        missed = [r for r in assert_sweep_matches_mono_reference(pres, gens[1:], degrees) if not r.ok]
        assert len(missed) == 4

    @pytest.mark.parametrize("weight", [7, 8, 15, 16])
    def test_weights_around_powers_of_two(self, weight):
        # the largest ambient weight sets the field width: 3, 4, 4 and 5 bits
        pres = build_presentation(ReesSpec(seq=SeqSpec(n=3), blocks=(((1, 2, 3), 1),)))
        gens = defining_generators(pres, RESTRICTED)
        degrees = default_degrees(pres, t_cap=2, ambient_cap=weight)
        assert max(w for _, w in degrees) == weight
        for family in (gens, gens[1:]):
            assert_sweep_matches_mono_reference(pres, family, degrees)

    @pytest.mark.parametrize(
        "spec, degrees",
        [
            (
                ReesSpec(seq=SeqSpec(n=3), blocks=(((1, 2, 3), 2), ((1, 2), 1))),
                [((2, 0), 1), ((2, 0), 3), ((1, 1), 1), ((1, 1), 3), ((0, 2), 2), ((2, 1), 3), ((1, 0), 2)],
            ),
            (
                spec_from_dict(MIXED_DEGREE_SPEC),
                [((2, 0), 1), ((0, 2), 1), ((0, 2), 0), ((1, 1), 2), ((1, 0), 3), ((0, 1), 3), ((1, 2), 3)],
            ),
        ],
        ids=["generic", "mixed_degree"],
    )
    def test_t_parts_above_the_width_stay_heavy(self, spec, degrees):
        # degrees listed below their block degree's base weight size the
        # field for the light pieces alone, so the heaviest T-parts have an
        # image coordinate above it; that carry may only raise the weight
        # they are read at, which keeps them out of every piece
        pres = build_presentation(spec)
        data = MonoImage(pres)
        for family in ([], defining_generators(pres, RESTRICTED)):
            assert_sweep_matches_mono_reference(pres, family, degrees)
        for tvec, weight in degrees:
            assert source_monomials(pres, tvec, weight) == reference_source_monomials(pres, tvec, weight, data=data)
        sweep = _Sweep(pres, [], ImageData(pres), DEFAULT_PIECE_CAP, degrees)
        for tvec, weight in degrees:
            sweep.piece(tvec, weight)
        carried = 0
        for tw, ts in (run for runs in sweep.runs.values() for run in runs):
            for t in ts:
                mono = sweep.src.unpack(t)
                true = data.degree(mono)[1]
                assert tw >= true
                if (sweep.img.unpack(t >> sweep.ishift), tw) != (data.image(mono)[1], true):
                    carried += 1
                    assert true > max(w for _, w in degrees)
        assert carried

    @settings(max_examples=40, deadline=None)
    @given(spec=small_specs())
    def test_pieces_decode_to_source_monomials(self, spec):
        pres = build_presentation(spec)
        data = MonoImage(pres)
        degrees = default_degrees(pres, t_cap=2, ambient_cap=4)
        sweep = _Sweep(pres, [], ImageData(pres), DEFAULT_PIECE_CAP, degrees)
        for tvec, weight in degrees:
            piece = sweep.piece(tvec, weight)
            monos = reference_source_monomials(pres, tvec, weight, data=data)
            assert [sweep.src.unpack(m) for m in piece] == monos
            assert source_monomials(pres, tvec, weight) == monos
            assert [sweep.img.unpack(m >> sweep.ishift) for m in piece] == [data.image(m)[1] for m in monos]
            assert {m >> sweep.wshift for m in piece} <= {weight}
        gens = defining_generators(pres, RESTRICTED)
        assert_sweep_matches_mono_reference(pres, gens[1:], degrees)

    def test_desk_sample(self):
        # a seeded sample of desk-scale specs, each with its restricted
        # family less one generator, so that witnesses occur
        pieces = missed = no_kernel = 0
        for k, spec in enumerate(Random(5).sample(desk_scale_specs(), 120)):
            pres = build_presentation(spec)
            family = drop_one(defining_generators(pres, RESTRICTED), k)
            reports = assert_sweep_matches_mono_reference(pres, family, default_degrees(pres, t_cap=3, ambient_cap=5))
            pieces += len(reports)
            missed += sum(not r.ok for r in reports)
            no_kernel += sum(not r.kernel_dim for r in reports)
        # many pieces have no kernel: the sweep walks no plan for them,
        # and the reference found no multiple in any of them
        assert pieces > 2000 and missed > 100 and no_kernel > 1000

    def test_weight_runs_keep_the_product_order(self):
        # concrete values of different degrees give the T-parts of one
        # block degree different weights, so a block degree splits into
        # several runs; the pieces must still list the T-parts in
        # ``itertools.product`` order, as the reference does
        specs = [spec_from_dict(CONSTANT_SPEC)]
        specs += [concrete_variant(spec, kind) for spec in Random(3).sample(desk_scale_specs(), 10) for kind in range(3)]
        most_runs = missed = 0
        for k, spec in enumerate(specs):
            pres = build_presentation(spec)
            data = MonoImage(pres)
            degrees = default_degrees(pres, t_cap=3, ambient_cap=5)
            sweep = _Sweep(pres, [], ImageData(pres), DEFAULT_PIECE_CAP, degrees)
            for tvec, weight in degrees:
                piece = sweep.piece(tvec, weight)
                assert [sweep.src.unpack(m) for m in piece] == reference_source_monomials(pres, tvec, weight, data=data)
            most_runs = max([most_runs] + [len(runs) for runs in sweep.runs.values()])
            family = drop_one(defining_generators(pres, RESTRICTED), k)
            missed += sum(not r.ok for r in assert_sweep_matches_mono_reference(pres, family, degrees))
        assert most_runs >= 3 and missed > 0

    def test_gb_heavy_shapes(self):
        # the benchmark's largest pieces (84 monomials on average, up to
        # 420), where the union-find follows long chains: the default
        # sweep of each shape, with its restricted family and with one
        # generator dropped
        pieces = missed = no_kernel = 0
        for k, spec in enumerate(gb_heavy_specs()):
            pres = build_presentation(spec)
            gens = defining_generators(pres, RESTRICTED)
            for family in (gens, drop_one(gens, k)):
                reports = assert_sweep_matches_mono_reference(pres, family, default_degrees(pres))
                pieces += len(reports)
                missed += sum(not r.ok for r in reports)
                no_kernel += sum(not r.kernel_dim for r in reports)
        assert (pieces, missed, no_kernel) == (388, 44, 60)

    def test_cap_stops_before_the_whole_t_part_product(self, monkeypatch):
        # 45 monomials of degree 8 per block, so 2,025 T-parts of weight
        # 16, each with one monomial in the piece: the cap of 100 is hit
        # at the 101st T-part, and the product stops there
        built = []

        def counted(*tables):
            for combo in product(*tables):
                built.append(combo)
                yield combo

        monkeypatch.setattr(multirees.oracle, "product", counted)
        pres = build_presentation(ReesSpec(seq=SeqSpec(n=3), blocks=(((1, 2, 3), 1), ((1, 2, 3), 1))))
        sweep = _Sweep(pres, [], ImageData(pres), 100, [((8, 8), 16)])
        for _ in range(2):
            built.clear()
            with pytest.raises(CapExceeded, match=r"degree piece \(8, 8\)/16 exceeds the cap of 100"):
                sweep.piece((8, 8), 16)
            assert len(built) == 101
        built.clear()
        assert len(source_monomials(pres, (8, 8), 16)) == 2025
        assert len(built) == 2025

    def test_sweep_leaves_the_mono_path(self, paper, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep called an entry point of one piece")

        monkeypatch.setattr(multirees.oracle, "source_monomials", refuse)
        monkeypatch.setattr(multirees.oracle, "kernel_piece", refuse)
        gens = defining_generators(paper, RESTRICTED)
        assert oracle_check(paper, gens, t_cap=3, ambient_cap=4).ok
        broken = oracle_check(paper, gens[1:], t_cap=3, ambient_cap=4)
        assert broken.failures
        assert all(paper.phi(r.witness).is_zero() for r in broken.failures)


class TestOracleCheck:
    def test_paper_example_both_families(self, paper):
        for family in (RESTRICTED, FULL):
            gens = defining_generators(paper, family)
            report = oracle_check(paper, gens, t_cap=2, ambient_cap=3)
            assert report.ok, _oracle_text(report, report.failures)

    def test_default_degrees_respect_caps(self, small):
        degrees = default_degrees(small, t_cap=2, ambient_cap=5)
        assert degrees
        for tvec, weight in degrees:
            assert 1 <= sum(tvec) <= 2
            assert weight <= 5
        # block of power two: one T variable needs ambient weight two
        assert min(w for t, w in degrees if t == (1,)) == 2

    @pytest.mark.parametrize(
        "spec",
        [
            # every block variable weighs 1: ambient cap 5 admits totals to 5
            ReesSpec(seq=SeqSpec(n=3), blocks=(((1, 2), 1), ((1, 3), 1), ((2, 3), 1))),
            # lightest weight 2: ambient cap 8 admits totals to 4
            ReesSpec(seq=SeqSpec(n=2), blocks=(((1, 2), 2),)),
            # a block weighing 2 beside one weighing 1
            ReesSpec(seq=SeqSpec(n=3), blocks=(((1, 2, 3), 2), ((1, 3), 1))),
            # a constant value weighs 0: no total can be ruled out
            ReesSpec(
                seq=SeqSpec(n=2, mode="concrete", x_names=("x",), concrete_terms=(((1, {"x": 1}),), ((2, {}),))),
                blocks=(((2,), 1), ((1, 2), 1)),
            ),
        ],
        ids=["triangle", "power2", "mixed", "weight0"],
    )
    def test_degrees_stop_above_the_ambient_cap(self, spec, monkeypatch):
        # a block degree tuple summing to `total` weighs at least `total`
        # times the lightest block weight; the totals stop at the first one
        # past the ambient cap, and the list is the one that every total
        # up to the T-degree cap gives
        pres = build_presentation(spec)
        weights = ImageData(pres).min_block_weight
        ambient_cap = 3 * max(power for _, power in spec.blocks) + 2
        t_cap = 12
        expected = [
            (tvec, weight)
            for total in range(1, t_cap + 1)
            for tvec in product(range(total + 1), repeat=spec.r)
            if sum(tvec) == total
            for weight in range(sum(d * w for d, w in zip(tvec, weights)), ambient_cap + 1)
        ]
        totals = []
        compositions = multirees.oracle._compositions

        def counted(total, parts):
            if parts == spec.r:
                totals.append(total)
            return compositions(total, parts)

        monkeypatch.setattr(multirees.oracle, "_compositions", counted)
        assert default_degrees(pres, t_cap=t_cap) == expected
        last = t_cap if min(weights) == 0 else ambient_cap // min(weights)
        assert totals == list(range(1, last + 1))
        if min(weights):
            # a huge T-degree cap visits no more totals, and lists the same
            totals.clear()
            assert default_degrees(pres, t_cap=400) == expected
            assert totals == list(range(1, last + 1))

    def test_degree_guard_counts_tuples_and_pieces(self, monkeypatch):
        # a constant value weighs 0, so every T-degree total is visited;
        # the power-2 block on row 1 weighs 2, so the tuples with more than
        # 8 // 2 of its variables list no piece, and still count
        seq = SeqSpec(n=2, mode="concrete", x_names=("x",), concrete_terms=(((1, {"x": 1}),), ((2, {}),)))
        pres = build_presentation(ReesSpec(seq=seq, blocks=(((2,), 1), ((1,), 2))))
        assert ImageData(pres).min_block_weight == [0, 2]
        degrees = default_degrees(pres, t_cap=12)
        visited = sum(total + 1 for total in range(1, 13))
        assert visited > len({tvec for tvec, _ in degrees})
        monkeypatch.setattr(multirees.oracle, "MAX_DEGREES", visited + len(degrees))
        assert default_degrees(pres, t_cap=12) == degrees
        monkeypatch.setattr(multirees.oracle, "MAX_DEGREES", visited + len(degrees) - 1)
        with pytest.raises(GuardExceeded, match="hard guard of %d" % (visited + len(degrees) - 1)):
            default_degrees(pres, t_cap=12)

    def test_summary_mentions_every_piece(self, small):
        gens = defining_generators(small, RESTRICTED)
        report = oracle_check(small, gens, t_cap=2, ambient_cap=4)
        assert report.ok
        lines = _oracle_text(report, report.reports)
        assert lines[0] == "kernel oracle over %d graded pieces: ok" % len(report.reports)
        assert lines[1:] == ["  " + _piece(r, "text") for r in report.reports]
        assert all(line.startswith("  degrees t=") for line in lines[1:])

    def test_concrete_mode_end_to_end(self):
        seq = SeqSpec(
            n=3,
            mode="concrete",
            x_names=("x", "y"),
            concrete_terms=(((1, {"x": 1}),), ((1, {"y": 1}),), ((2, {}),)),
        )
        spec = ReesSpec(seq=seq, blocks=(((1, 2), 1), ((2, 3), 1)))
        pres = build_presentation(spec)
        gens = defining_generators(pres, RESTRICTED)
        report = oracle_check(pres, gens, t_cap=2, ambient_cap=4)
        assert report.ok, _oracle_text(report, report.failures)

    def test_piece_cap_propagates(self, paper):
        gens = defining_generators(paper, RESTRICTED)
        with pytest.raises(CapExceeded):
            oracle_check(paper, gens, t_cap=3, ambient_cap=4, cap=5)
        # a piece over the cap is reported even after pieces within it
        piece = ((1, 1, 1, 0, 0), 4)
        size = len(source_monomials(paper, *piece))
        fits = oracle_check(paper, gens, degrees=[((1, 0, 0, 0, 0), 1), piece], cap=size)
        assert fits.reports[-1].piece_size == size
        with pytest.raises(CapExceeded, match="exceeds the cap of %d" % (size - 1)):
            oracle_check(paper, gens, degrees=[((1, 0, 0, 0, 0), 1), piece], cap=size - 1)
        # the first piece is enumerated before the generators are checked
        u = paper.universe
        stray = u.poly_var("t3") - u.poly_var("T[3;100]")
        with pytest.raises(CapExceeded):
            oracle_check(paper, gens + [stray], degrees=[piece], cap=size - 1)

    def test_repeated_generators_change_only_the_multiples(self, paper):
        # each link stays inside one fiber, so once every fiber is one
        # component the sweep stops joining: a family with every generator
        # twice has the same spans and witnesses, and twice the multiples
        gens = defining_generators(paper, RESTRICTED)
        degrees = default_degrees(paper, t_cap=3, ambient_cap=4)

        def fields(r):
            return (r.tvec, r.weight, r.piece_size, r.kernel_dim, r.span_dim, r.ok, r.witness)

        for family in (gens, gens[1:]):
            once = oracle_check(paper, family, degrees=degrees).reports
            twice = assert_sweep_matches_mono_reference(paper, family + family, degrees)
            assert [fields(r) for r in twice] == [fields(r) for r in once]
            assert [r.multiples for r in twice] == [2 * r.multiples for r in once]
            assert any(r.span_dim for r in once)
        assert any(not r.ok for r in once)

    def test_no_degrees_no_pieces(self, paper):
        gens = defining_generators(paper, RESTRICTED)
        report = oracle_check(paper, gens, degrees=[])
        assert report.reports == [] and report.ok


def poly(universe, *terms):
    """The polynomial of the terms (coefficient, variable name, ...), a
    name repeated for a power."""
    out = universe.zero()
    for c, *names in terms:
        term = universe.const(c)
        for name in names:
            term = term * universe.poly_var(name)
        out = out + term
    return out


def report_fields(reports):
    return [(r.tvec, r.weight, r.piece_size, r.kernel_dim, r.span_dim, r.multiples, r.ok) for r in reports]


# s1 = s2 = x: two distinct terms can meet once the values are put in
SAME_VALUE_SPEC = {
    "sequence": {"mode": "concrete", "n": 2, "ambient": ["x"], "values": [[[1, {"x": 1}]], [[1, {"x": 1}]]]},
    "blocks": [{"rows": [1, 2]}],
}


# the reports these generators gave when the oracle evaluated each
# generator by ``Poly.substitute`` and checked it on ``Mono``s
GENERIC_ABOVE = [((1, 0, 0, 0, 0), 1, 2, 0, 0, 0, True)]
WEIGHT_ZERO_ABOVE = [((1, 0), 0, 2, 1, 1, 1, True), ((0, 1), 0, 2, 1, 1, 1, True)]


class HasPoly:
    """An object with a ``.poly``, which is not a generator."""

    def __init__(self, poly):
        self.poly = poly


class TestGeneratorIntake:
    """Generators enter the sweep as written, two terms each, packed as
    piece monomials are: the skip and the checks read the packed terms,
    and the field is wide enough for every generator term."""

    def test_builds_no_poly(self, paper, monkeypatch):
        concrete = build_presentation(spec_from_dict(CONSTANT_SPEC))
        cases = [(paper, {}), (concrete, {"t_cap": 2})]
        want = [report_fields(oracle_check(p, defining_generators(p, RESTRICTED), **kw).reports) for p, kw in cases]

        def to_poly(self, universe):
            raise AssertionError("a Poly was built")

        monkeypatch.setattr(Binomial, "to_poly", to_poly)
        for (pres, kw), reports in zip(cases, want):
            got = oracle_check(pres, defining_generators(pres, RESTRICTED), **kw)
            assert got.ok and report_fields(got.reports) == reports

    @pytest.mark.parametrize("spec", [SAME_VALUE_SPEC, CONSTANT_SPEC, "paper"], ids=["same_value", "constant", "paper"])
    def test_matches_the_reference(self, spec, paper):
        # random polynomials over every symbol of the universe, and random
        # multiples of the restricted generators, one sweep each with no
        # piece, so the generator alone sizes the field
        pres = paper if spec == "paper" else build_presentation(spec_from_dict(spec))
        u = pres.universe
        ref = MonoImage(pres)
        gens = [g.poly for g in defining_generators(pres, RESTRICTED)]
        rng = Random(29)

        def monomial():
            return Mono((v, rng.randint(1, 2)) for v in rng.sample(range(len(u.names)), rng.randint(0, 3)))

        outcomes = set()
        for _ in range(400):
            if rng.random() < 0.4:
                p = rng.choice(gens) * u.term(rng.choice((-2, 1, 3)), monomial())
            else:
                p = u.from_terms((monomial(), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(1, 3)))
            if len(p.terms) != 2:
                with pytest.raises(ValueError, match="is not a binomial"):
                    _Sweep(pres, [p], ImageData(pres), DEFAULT_PIECE_CAP, [])
                outcomes.add("binomial")
                continue
            sweep = _Sweep(pres, [p], ImageData(pres), DEFAULT_PIECE_CAP, [])
            source = (1 << sweep.ishift) - 1
            try:
                got = {degree: [tuple(sorted(m & source for m in pair)) for pair in pairs] for degree, pairs in sweep.moves.items()}
            except ValueError as exc:
                got = str(exc)
            else:
                # above its source, each term carries the reference's image
                # and weight, the same for both
                for ma, mb in (pair for pairs in sweep.moves.values() for pair in pairs):
                    mono = sweep.src.unpack(ma)
                    assert ma >> sweep.ishift == mb >> sweep.ishift
                    assert sweep.img.unpack(ma >> sweep.ishift) == ref.image(mono)[1]
                    assert ma >> sweep.wshift == ref.degree(mono)[1]
            want = ref.moves(p, sweep.src.pack)
            assert got == want, p
            outcomes.add(want.split(" ")[-1] if isinstance(want, str) else bool(want))
        assert outcomes >= {True, "ring", "binomial", "zero"}

    def test_generic_generator_above_every_piece(self, paper):
        # the piece alone sizes the field at one bit, where p1^3*t1 and
        # p1*p2*t1 pack alike
        u = paper.universe
        gens = defining_generators(paper, RESTRICTED)
        degrees = [((1, 0, 0, 0, 0), 1)]
        outside = poly(u, (1, "p1", "p1", "T[1;111]"), (-1, "p1", "T[1;110]"))
        with pytest.raises(ValueError) as err:
            oracle_check(paper, gens + [outside], degrees=degrees)
        assert str(err.value) == "generator p1^2*T[1;111] - p1*T[1;110] does not map to zero"
        inside = poly(u, (1, "p1", "p1", "p2", "T[1;111]"), (-1, "p1", "p1", "p1", "T[1;110]"))
        reports = oracle_check(paper, gens + [inside], degrees=degrees).reports
        assert report_fields(reports) == GENERIC_ABOVE

    def test_weight_zero_generator_above_every_piece(self):
        # T-variables of weight 0: the pieces alone size the field at one
        # bit, where t1^2 packs as t2, so 4*t1^2 and 2*2*t2 would agree
        pres = build_presentation(spec_from_dict(CONSTANT_SPEC))
        u = pres.universe
        gens = defining_generators(pres, RESTRICTED)
        degrees = [((1, 0), 0), ((0, 1), 0)]
        outside = poly(u, (1, "T[1;11]", "T[1;11]"), (-2, "T[2;11]"))
        with pytest.raises(ValueError) as err:
            oracle_check(pres, gens + [outside], degrees=degrees)
        assert str(err.value) == "generator -2*T[2;11] + T[1;11]^2 does not map to zero"
        inside = poly(u, (9, "T[1;11]", "T[1;11]"), (-4, "T[1;10]", "T[1;10]"))
        reports = oracle_check(pres, gens + [inside], degrees=degrees).reports
        assert report_fields(reports) == report_fields(oracle_check(pres, gens, degrees=degrees).reports)
        assert report_fields(reports) == WEIGHT_ZERO_ABOVE

    def test_terms_that_meet_after_evaluation(self):
        pres = build_presentation(spec_from_dict(SAME_VALUE_SPEC))
        u = pres.universe
        gens = defining_generators(pres, RESTRICTED)
        want = report_fields(oracle_check(pres, gens).reports)
        # s1*T - s2*T evaluates to zero and is skipped
        cancel = poly(u, (1, "s1", "T[1;1]"), (-1, "s2", "T[1;1]"))
        assert report_fields(oracle_check(pres, gens + [cancel]).reports) == want
        # s1*T + s2*T evaluates to one term, which does not vanish
        with pytest.raises(ValueError) as err:
            oracle_check(pres, gens + [poly(u, (1, "s1", "T[1;1]"), (1, "s2", "T[1;1]"))])
        assert str(err.value) == "generator s2*T[1;1] + s1*T[1;1] does not map to zero"
        # three terms are no binomial, though two of them meet
        merged = poly(u, (1, "s1", "T[1;1]"), (1, "s2", "T[1;1]"), (-2, "x", "T[1;0]"))
        with pytest.raises(ValueError) as err:
            oracle_check(pres, gens + [merged])
        assert str(err.value) == "generator %r is not a binomial: no Generator and no Poly of two terms" % merged

    def test_foreign_symbols(self):
        # t1 is no variable of the enumerated ring: a generator that uses
        # it is rejected, even where the evaluated generator is zero
        pres = build_presentation(spec_from_dict(SAME_VALUE_SPEC))
        u = pres.universe
        gens = defining_generators(pres, RESTRICTED)
        for p in (
            poly(u, (1, "s1", "t1"), (-1, "s2", "t1")),
            poly(u, (1, "s1", "t1", "T[1;1]"), (-1, "s2", "t1", "T[1;1]")),
            poly(u, (1, "s1", "t1"), (1, "s2", "t1")),
            poly(u, (1, "t1", "T[1;1]"), (-1, "t1", "T[1;0]")),
            poly(u, (1, "s1", "T[1;1]"), (-1, "x", "t1")),
        ):
            with pytest.raises(ValueError) as err:
                oracle_check(pres, gens + [p])
            assert str(err.value) == "generator %s leaves the enumerated presentation ring" % p.render()

    @pytest.mark.parametrize("shape", ["one_term", "three_terms", "zero", "has_poly", "binomial"])
    def test_rejected_shapes(self, paper, shape):
        # only a Generator or a Poly of two terms enters, and the message
        # names what was given; the shape is read before any piece
        u = paper.universe
        (g, *_) = defining_generators(paper, RESTRICTED)
        given = {
            "one_term": poly(u, (1, "p1", "T[1;110]")),
            "three_terms": g.poly + poly(u, (1, "p1", "T[1;111]")),
            "zero": u.zero(),
            "has_poly": HasPoly(g.poly),
            "binomial": g.binomial,
        }[shape]
        message = "generator %r is not a binomial: no Generator and no Poly of two terms" % (given,)
        for check in (
            lambda: oracle_check(paper, [g, given]),
            lambda: span_compare(paper, [given], (1, 0, 0, 0, 0), 2),
            lambda: oracle_check(paper, [given], degrees=[((1, 0, 0, 0, 0), 2)], cap=1),
        ):
            with pytest.raises(ValueError) as err:
                check()
            assert str(err.value) == message

    def test_other_universe(self):
        # A: one block on rows 1-3; B: the blocks {1,2} and {2,3}; B's
        # generators read by id in A's table would be other polynomials
        seq = SeqSpec(n=3)
        pa = build_presentation(ReesSpec(seq=seq, blocks=(((1, 2, 3), 1),)))
        pb = build_presentation(ReesSpec(seq=seq, blocks=(((1, 2), 1), ((2, 3), 1))))
        gens = defining_generators(pb, RESTRICTED)
        for family in (gens, [g.poly for g in gens]):
            with pytest.raises(UniverseMismatch):
                oracle_check(pa, family, t_cap=2)
            with pytest.raises(UniverseMismatch):
                span_compare(pa, family[:1], (1,), 1)
        assert oracle_check(pb, gens, t_cap=2).ok


def count_image_data(monkeypatch):
    """The presentations of the ``ImageData`` that the oracle module
    builds from now on, one entry per construction."""
    built = []

    class Counted(ImageData):
        def __init__(self, pres):
            built.append(pres)
            super().__init__(pres)

    monkeypatch.setattr(multirees.oracle, "ImageData", Counted)
    return built


class TestOneImageTable:
    """Every entry point builds the table of its own presentation, once."""

    def test_oracle_check_builds_one(self, paper, monkeypatch):
        built = count_image_data(monkeypatch)
        assert oracle_check(paper, defining_generators(paper, RESTRICTED)).ok
        assert built == [paper]
        pres = build_presentation(spec_from_dict(CONSTANT_SPEC))
        assert oracle_check(pres, defining_generators(pres, RESTRICTED), t_cap=2).ok
        assert built == [paper, pres]

    def test_one_piece_entry_points_build_one_each(self, paper, monkeypatch):
        built = count_image_data(monkeypatch)
        gens = defining_generators(paper, RESTRICTED)
        calls = [
            lambda: source_monomials(paper, (1, 1, 0, 0, 0), 2),
            lambda: kernel_piece(paper, (1, 1, 0, 0, 0), 2),
            lambda: default_degrees(paper),
            lambda: span_compare(paper, gens, (1, 1, 0, 0, 0), 2),
        ]
        for k, call in enumerate(calls, 1):
            call()
            assert built == [paper] * k


def brute_syzygy_kernel_dim(gens, n, degree):
    """Kernel dimension over the rationals of the map sending a slot
    monomial m over variables 0..n-1 at slot i to m * gens[i], by sympy
    nullspace."""
    cols = []
    targets = {}
    for i, g in enumerate(gens):
        rest = degree - g.degree()
        if rest < 0:
            continue
        for exps in _all_exps(rest, n):
            target = g.mul(dense(exps))
            targets.setdefault(target, len(targets))
            cols.append(targets[target])
    if not cols:
        return 0
    mat = sympy.zeros(len(targets), len(cols))
    for j, row in enumerate(cols):
        mat[row, j] = 1
    return len(mat.nullspace())


def _all_exps(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _all_exps(total - first, parts - 1):
            yield (first,) + rest


class TestMonomialSyzygies:
    def test_kernel_dim_matches_sympy(self):
        rng = Random(11)
        for _ in range(10):
            n = rng.randint(2, 3)
            m = rng.randint(2, 4)
            gens = [
                dense(tuple(rng.randint(0, 2) for _ in range(n))) for _ in range(m)
            ]
            for degree in range(0, 6):
                got = len(monomial_syzygy_kernel(gens, n, degree))
                assert got == brute_syzygy_kernel_dim(gens, n, degree)

    def test_kernel_vectors_map_to_zero(self):
        gens = [dense((2, 0, 1)), dense((1, 1, 0)), dense((0, 2, 1))]
        for degree in range(0, 7):
            for vec in monomial_syzygy_kernel(gens, 3, degree):
                images = {}
                for (slot, mult), c in vec.items():
                    t = gens[slot].mul(mult)
                    images[t] = images.get(t, 0) + c
                assert all(v == 0 for v in images.values())

    def test_two_variable_dims(self):
        gens = [dense((1, 0)), dense((0, 1))]
        dims = [len(monomial_syzygy_kernel(gens, 2, d)) for d in range(5)]
        assert dims == [0, 0, 1, 2, 3]

    def test_duplicate_generators_syzygy(self):
        g = dense((1, 1))
        kernel = monomial_syzygy_kernel([g, g], 2, 2)
        assert len(kernel) == 1
        (vec,) = kernel
        assert set(vec.values()) == {1, -1}

    def test_pairwise_span_certifies(self):
        rng = Random(23)
        for _ in range(8):
            n = rng.randint(2, 3)
            m = rng.randint(2, 4)
            gens = [
                dense(tuple(rng.randint(0, 2) for _ in range(n))) for _ in range(m)
            ]
            reports = syzygy_span_compare(gens, n, 8)
            assert all(r.ok for r in reports), [r.line() for r in reports]

    def test_report_lines_readable(self):
        gens = [dense((1, 0)), dense((0, 1))]
        reports = syzygy_span_compare(gens, 2, 3)
        assert [r.degree for r in reports] == [0, 1, 2, 3]
        assert all("ok" in r.line() for r in reports)

    def test_pairwise_vectors_lie_in_kernel(self):
        gens = [dense((2, 1)), dense((1, 2)), dense((3, 0))]
        for vec in syzygy_generators(gens):
            images = {}
            for slot, entry in enumerate(vec):
                if entry is None:
                    continue
                sign, mono = entry
                t = gens[slot].mul(mono)
                images[t] = images.get(t, 0) + sign
            assert all(v == 0 for v in images.values())
