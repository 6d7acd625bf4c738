"""Quasi-matrices, binary subquasi-matrices, quasi-determinants, rewriting.

Oracles: binary subquasi-matrices are re-derived by filtering all entry
subsets on the degree condition; quasi-determinant lists are re-derived
by brute force over unordered pairs of disjoint matchings covering the
cells.  Both agree exactly with the structured enumeration.
"""
import random
from itertools import combinations

import pytest

from conftest import desk_scale_specs
from helpers import (
    assert_binary_union,
    expand_combination,
    generic_matrix,
    ibin_generators,
    is_full,
    rewrite_as_two_minors,
    union_cells,
    union_rows_cols,
)
from multirees.poly import GuardExceeded, Mono
from multirees.quasimat import (
    Binomial,
    QuasiMatrix,
    _entry_graph_cycles,
    binary_subquasi_enumerate,
    quasi_determinants,
)
from multirees.rees import build_presentation


def brute_binary_cell_sets(qm, max_size=12):
    """All entry subsets in which every touched row/column has degree 2."""
    cells = sorted(qm.entries)
    out = set()
    for k in range(4, len(cells) + 1, 2):
        for sub in combinations(cells, k):
            rdeg, cdeg = {}, {}
            for r, c in sub:
                rdeg[r] = rdeg.get(r, 0) + 1
                cdeg[c] = cdeg.get(c, 0) + 1
            if any(d != 2 for d in rdeg.values()) or any(d != 2 for d in cdeg.values()):
                continue
            if len(rdeg) + len(cdeg) <= max_size:
                out.add(frozenset(sub))
    return out


def brute_quasi_determinants(qm, cells):
    """Distinct sign-normalized differences of two disjoint matchings
    partitioning ``cells``, each matching covering every touched row and
    column exactly once."""
    cells = sorted(cells)
    rows = sorted({r for r, _ in cells})
    cols = sorted({c for _, c in cells})
    half = len(cells) // 2
    found = set()
    for m1 in combinations(cells, half):
        m2 = tuple(c for c in cells if c not in m1)

        def is_matching(m):
            return (
                sorted({r for r, _ in m}) == rows
                and sorted({c for _, c in m}) == cols
                and len({r for r, _ in m}) == len(m)
                and len({c for _, c in m}) == len(m)
            )

        if not is_matching(m1) or not is_matching(m2):
            continue
        bino = Binomial.from_matchings(qm, m1, m2)
        if not bino.is_zero():
            found.add(bino.key())
    return found


class TestQuasiMatrix:
    def test_entry_bounds(self):
        with pytest.raises(ValueError):
            QuasiMatrix(2, 2, {(2, 0): 1})

    def test_cells_and_fullness(self):
        qm = QuasiMatrix(2, 2, {(0, 0): 1, (1, 1): 2})
        assert sorted(qm.entries) == [(0, 0), (1, 1)]
        assert not is_full(qm)

    def test_pretty(self):
        qm, uni = generic_matrix(2, 2)
        text = qm.pretty(uni.name, ["r1", "r2"], ["c1", "c2"])
        assert "a11" in text and "a22" in text
        assert text.splitlines()[0].split() == ["c1", "c2"]
        assert [line.split()[0] for line in text.splitlines()[1:]] == ["r1", "r2"]


GENERIC_SHAPES = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]


def seeded_sparse_matrices():
    rng = random.Random(11)
    for _ in range(20):
        nr, nc = rng.randint(2, 4), rng.randint(2, 4)
        pattern = [
            (r, c) for r in range(nr) for c in range(nc) if rng.random() < 0.7
        ]
        if pattern:
            yield generic_matrix(nr, nc, pattern=pattern)[0]


def repeated_entry_matrices():
    """Matrices whose entries repeat variables, at most 4x5."""
    yield QuasiMatrix(3, 3, {(r, c): 0 for r in range(3) for c in range(3)})
    yield QuasiMatrix(3, 4, {(r, c): (r + c) % 2 for r in range(3) for c in range(4) if (r, c) != (1, 2)})
    yield QuasiMatrix(4, 5, {(r, c): (r * c) % 3 for r in range(4) for c in range(5)})


def reference_unions(qm, max_size):
    """Every tuple of pairwise vertex-disjoint walk indices whose lengths
    sum to at most ``max_size``, sorted; sorted order is the depth-first
    pre-order of the union search.  A cycle uses at least two rows and
    two columns, which bounds the tuple length."""
    walks = _entry_graph_cycles(qm, max_size)
    verts = [{("r", r) for r, _ in w} | {("c", c) for _, c in w} for w in walks]
    out = []
    for k in range(1, min(qm.n_rows, qm.n_cols) // 2 + 1):
        for idx in combinations(range(len(walks)), k):
            if sum(len(walks[i]) for i in idx) > max_size:
                continue
            if all(not verts[i] & verts[j] for i, j in combinations(idx, 2)):
                out.append(idx)
    return [tuple(walks[i] for i in idx) for idx in sorted(out)]


class TestBinaryEnumeration:
    @pytest.mark.parametrize("shape", GENERIC_SHAPES)
    def test_matches_subset_filter_oracle(self, shape):
        qm, _ = generic_matrix(*shape)
        got = {union_cells(u) for u in binary_subquasi_enumerate(qm)}
        assert got == brute_binary_cell_sets(qm)

    def test_matches_oracle_on_sparse_patterns(self):
        for qm in seeded_sparse_matrices():
            got = {union_cells(u) for u in binary_subquasi_enumerate(qm)}
            assert got == brute_binary_cell_sets(qm)

    def test_binary_cycles_are_the_single_cycle_unions(self):
        # the walks the generating families are read off, in their order
        shapes = [generic_matrix(*shape)[0] for shape in GENERIC_SHAPES]
        for qm in shapes + list(seeded_sparse_matrices()):
            for max_size in (4, 12):
                want = [u for u in binary_subquasi_enumerate(qm, max_size) if len(u) == 1]
                assert [(walk,) for walk in _entry_graph_cycles(qm, max_size)] == want

    def test_unions_in_reference_order(self):
        # the memo hands out the uncached search's walks, one object per cap
        shapes = [generic_matrix(*shape)[0] for shape in GENERIC_SHAPES]
        desk = [build_presentation(spec).matrix for spec in desk_scale_specs()]
        for qm in shapes + list(seeded_sparse_matrices()) + list(repeated_entry_matrices()) + desk:
            for max_size in range(4, 13):
                got = binary_subquasi_enumerate(qm, max_size)
                assert got == reference_unions(qm, max_size)
                for union in got:
                    assert_binary_union(qm, union)
                walks = qm.cycle_walks(max_size)
                assert walks == _entry_graph_cycles(qm, max_size) and qm.cycle_walks(max_size) is walks

    def test_walks_come_shortest_first(self):
        qm, _ = generic_matrix(4, 4)
        lengths = [len(w) for w in _entry_graph_cycles(qm, 12)]
        assert lengths == sorted(lengths) and lengths[0] == 4 and lengths[-1] == 8

    def test_full_3x3_has_six_spanning_binaries(self):
        qm, _ = generic_matrix(3, 3)
        spanning = [u for u in binary_subquasi_enumerate(qm) if sum(map(len, union_rows_cols(u))) == 6]
        assert len(spanning) == 6

    def test_size_cap_respected(self):
        qm, _ = generic_matrix(4, 4)
        small = binary_subquasi_enumerate(qm, max_size=4)
        assert small and all(sum(map(len, union_rows_cols(u))) <= 4 for u in small)

    def test_guard(self):
        qm, _ = generic_matrix(2, 2)
        with pytest.raises(GuardExceeded):
            binary_subquasi_enumerate(qm, max_size=13)
        with pytest.raises(GuardExceeded):
            _entry_graph_cycles(qm, 13)
        # a failed search is never memoized, so it fails on every call
        for _ in range(2):
            with pytest.raises(GuardExceeded):
                qm.cycle_walks(13)

    def test_cycle_shape_validation(self):
        qm, _ = generic_matrix(2, 2)
        cells = [(0, 0), (0, 1), (1, 1), (1, 0)]
        assert_binary_union(qm, (cells,))  # proper walk order
        with pytest.raises(AssertionError):
            assert_binary_union(qm, ((cells[0], cells[2], cells[1], cells[3]),))  # crossed order
        with pytest.raises(AssertionError):
            assert_binary_union(qm, (cells, cells))  # overlap
        with pytest.raises(AssertionError):
            assert_binary_union(qm, (cells[:3],))  # odd length


class TestQuasiDeterminants:
    def test_two_by_two(self):
        qm, uni = generic_matrix(2, 2)
        gens = ibin_generators(qm)
        assert len(gens) == 1
        a11, a12, a21, a22 = (uni.poly_var(n) for n in ("a11", "a12", "a21", "a22"))
        assert gens[0].to_poly(uni) in (a11 * a22 - a12 * a21, a12 * a21 - a11 * a22)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 3), (2, 4), (3, 4), (4, 4)])
    def test_counts_match_brute_force(self, shape):
        qm, _ = generic_matrix(*shape)
        for union in binary_subquasi_enumerate(qm, max_size=8):
            got = {b.key() for b in quasi_determinants(qm, union)}
            assert got == brute_quasi_determinants(qm, union_cells(union))
            # 2^(c-1) when no product collision collapses a pair
            assert len(got) == 2 ** (len(union) - 1)

    def test_sign_normalization(self):
        qm, uni = generic_matrix(2, 2)
        cells = sorted(qm.entries)
        b1 = Binomial.from_matchings(qm, (cells[0], cells[3]), (cells[1], cells[2]))
        b2 = Binomial.from_matchings(qm, (cells[1], cells[2]), (cells[0], cells[3]))
        assert b1 == b2
        assert b1.plus.exps < b1.minus.exps

    def test_zero_difference_dropped(self):
        # one variable everywhere: both matchings give the same product
        uni_qm = QuasiMatrix(2, 2, {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0})
        assert quasi_determinants(uni_qm, (((0, 0), (0, 1), (1, 1), (1, 0)),)) == []


class TestRewriter:
    def test_requires_full_matrix(self):
        qm, uni = generic_matrix(2, 2, pattern=[(0, 0), (0, 1), (1, 0)])
        other, _ = generic_matrix(2, 2)
        delta = ibin_generators(other)[0]
        with pytest.raises(ValueError):
            rewrite_as_two_minors(delta, qm, uni)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)])
    def test_certificates_exact(self, shape):
        qm, uni = generic_matrix(*shape)
        for delta in ibin_generators(qm):
            pairs = rewrite_as_two_minors(delta, qm, uni)
            assert expand_combination(pairs, uni) == delta.to_poly(uni)
            # every right factor is a genuine 2x2 minor: a 4-term balanced binomial
            for _, minor in pairs:
                assert len(minor.terms) == 2
                assert all(m.degree() == 2 for m, _ in minor.terms)

    def test_six_cycle_splits_into_two_minors(self):
        qm, uni = generic_matrix(3, 3)
        six = [
            b
            for b in ibin_generators(qm)
            if len({r for r, _ in b.plus_cells}) == 3
        ]
        assert six
        for delta in six:
            pairs = rewrite_as_two_minors(delta, qm, uni)
            assert len(pairs) == 2


class TestGenericMatrix:
    def test_pattern_bounds(self):
        with pytest.raises(ValueError):
            generic_matrix(2, 2, pattern=[(2, 2)])

    def test_s_column(self):
        qm, uni = generic_matrix(3, 2, with_s_column=True)
        assert qm.n_cols == 3
        assert [uni.name(qm.entries[(r, 0)]) for r in range(3)] == ["s1", "s2", "s3"]
        assert uni.vars[qm.entries[(0, 1)]].block == "T"
        assert uni.vars[qm.entries[(0, 0)]].block == "s"

    def test_binary_minors_through_s_column(self):
        qm, uni = generic_matrix(2, 1, with_s_column=True)
        gens = ibin_generators(qm)
        assert len(gens) == 1
        s1, s2 = uni.poly_var("s1"), uni.poly_var("s2")
        a11, a21 = uni.poly_var("a11"), uni.poly_var("a21")
        assert gens[0].to_poly(uni) in (s1 * a21 - s2 * a11, s2 * a11 - s1 * a21)
