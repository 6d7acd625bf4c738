"""Presentation builder: index tuples, matrix layout, generating families.

The five-ideal height-two example is frozen in full (matrix layout and
the complete restricted family) from an independently validated run;
combinatorial counts are checked against closed forms, and the shift
identity that drives the sequence-linear relations is property-tested.
"""
import json
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import desk_scale_specs, emission_specs
from multirees.poly import SpecError, mono_text
from multirees.quasimat import Binomial, _entry_graph_cycles
from multirees.rees import (
    FULL,
    RESTRICTED,
    SINGLE,
    IndexTuple,
    ReesSpec,
    _family,
    _restricted_items,
    _size_cap,
    build_presentation,
    defining_generators,
    enumerate_column_tuples,
    enumerate_index_tuples,
    normality_report,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
    spec_to_json,
)
from multirees.sseq import SeqSpec, SMonomial


@pytest.fixture(scope="module")
def paper():
    seq = SeqSpec(n=4, names=("p1", "p2", "x", "y"))
    spec = ReesSpec(
        seq=seq,
        blocks=(((1, 2), 1), ((1, 3), 1), ((2, 3), 1), ((1, 4), 1), ((2, 4), 1)),
    )
    return build_presentation(spec)


class TestIndexTuple:
    def test_display_reverses_internal_order(self):
        it = IndexTuple(4, 1, (0, 1, 1))
        assert it.display() == (1, 1, 0)
        assert it.display_str() == "110"

    def test_display_str_commas_for_large_amplitude(self):
        it = IndexTuple(2, 11, (10,))
        assert it.display_str() == "10"
        it2 = IndexTuple(3, 11, (3, 10))
        assert it2.display_str() == "10,3"

    def test_s_exponents_sum_to_amplitude(self):
        it = IndexTuple(4, 3, (1, 2, 2))
        assert it.s_exponents() == (1, 1, 0, 1)
        assert sum(it.s_exponents()) == 3

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            IndexTuple(3, 2, (2, 1))
        with pytest.raises(ValueError):
            IndexTuple(3, 2, (0, 3))

    def test_shift_raises_tail(self):
        it = IndexTuple(4, 2, (0, 1, 1))
        assert it.shift(1).js == (1, 2, 2)
        assert it.shift(3).js == (0, 1, 2)
        assert it.shift(4).js == it.js
        with pytest.raises(ValueError):
            it.shift(0)
        with pytest.raises(ValueError):
            # shifting a non-column tuple would push a component past the cap
            IndexTuple(2, 1, (1,)).shift(1)

    def test_counts_closed_form(self):
        for n in range(1, 7):
            for a in range(1, 6):
                assert len(enumerate_index_tuples(n, a)) == comb(a + n - 1, n - 1)
                assert len(enumerate_column_tuples(n, a)) == comb(a + n - 2, n - 1)

    def test_enumeration_order_display_descending(self):
        tuples = enumerate_index_tuples(3, 2)
        displays = [it.display() for it in tuples]
        assert displays == sorted(displays, reverse=True)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_shift_identity(self, data):
        # s_u * s^(j shifted at w) == s_w * s^(j shifted at u)
        n = data.draw(st.integers(min_value=2, max_value=5))
        a = data.draw(st.integers(min_value=1, max_value=4))
        # column tuples only: shifting must stay under the amplitude cap
        js = tuple(
            sorted(
                data.draw(
                    st.lists(
                        st.integers(min_value=0, max_value=a - 1),
                        min_size=n - 1,
                        max_size=n - 1,
                    )
                )
            )
        )
        it = IndexTuple(n, a, js)
        u = data.draw(st.integers(min_value=1, max_value=n))
        w = data.draw(st.integers(min_value=1, max_value=n))
        su = SMonomial.gen(n, u)
        sw = SMonomial.gen(n, w)
        left = su.mul(SMonomial(it.shift(w).s_exponents()))
        right = sw.mul(SMonomial(it.shift(u).s_exponents()))
        assert left == right

    def test_column_set_is_positive_last_exponent(self):
        for it in enumerate_index_tuples(3, 2):
            assert it.in_column_set() == (it.s_exponents()[-1] >= 1)


class TestSpecValidation:
    def test_blocks_required(self):
        with pytest.raises(SpecError):
            ReesSpec(seq=SeqSpec(n=2), blocks=())

    def test_row_bounds(self):
        with pytest.raises(SpecError):
            ReesSpec(seq=SeqSpec(n=2), blocks=(((1, 3), 1),))
        with pytest.raises(SpecError):
            ReesSpec(seq=SeqSpec(n=2), blocks=(((0,), 1),))

    def test_power_positive(self):
        with pytest.raises(SpecError):
            ReesSpec(seq=SeqSpec(n=2), blocks=(((1, 2), 0),))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ReesSpec(seq=SeqSpec(n=2), blocks=(((1, 2), 1.5),)),
            lambda: ReesSpec(seq=SeqSpec(n=2), blocks=(((1, 2), True),)),
            lambda: ReesSpec(seq=SeqSpec(n=2), blocks=(((1, 2), "2"),)),
            lambda: ReesSpec(seq=SeqSpec(n=2), blocks=(((1.9, 2), 1),)),
            lambda: ReesSpec(seq=SeqSpec(n=2), blocks=(((True, 2), 1),)),
            lambda: ReesSpec(seq=SeqSpec(n=2), blocks=((2, 1),)),
            lambda: SeqSpec(n=2.7),
            lambda: SeqSpec(n=True),
            lambda: SeqSpec(n="2"),
            lambda: SeqSpec(n=1, mode="concrete", x_names=("x",), concrete_terms=(((1.5, {"x": 1}),),)),
            lambda: SeqSpec(n=1, mode="concrete", x_names=("x",), concrete_terms=(((1, {"x": 1.0}),),)),
            lambda: SeqSpec(n=2, names=(1, 2)),
            lambda: SeqSpec(n=2, names=("a", None)),
            lambda: SeqSpec(n=1, x_names=(b"x",)),
        ],
    )
    def test_non_integer_field_is_spec_error(self, make):
        # library callers get the same boundary as JSON input: no truncation
        with pytest.raises(SpecError):
            make()

    def test_rows_deduplicated_sorted(self):
        spec = ReesSpec(seq=SeqSpec(n=3), blocks=(((3, 1, 3), 1),))
        assert spec.blocks == (((1, 3), 1),)

    def test_lint_notes(self):
        spec = ReesSpec(seq=SeqSpec(n=2), blocks=(((1,), 1), ((1, 2), 1), ((1, 2), 1)))
        notes = spec.lint()
        assert any("single sequence element" in s for s in notes)
        assert any("identical" in s for s in notes)

    def test_json_roundtrip(self, paper):
        spec = paper.spec
        again = spec_from_json(spec_to_json(spec))
        assert again == spec

    def test_json_roundtrip_concrete(self):
        seq = SeqSpec(
            n=2,
            mode="concrete",
            x_names=("x", "y"),
            concrete_terms=(((1, {"x": 1}),), ((1, {"y": 2}),)),
            assume_weak_regular=True,
        )
        spec = ReesSpec(seq=seq, blocks=(((1, 2), 2),))
        again = spec_from_dict(json.loads(spec_to_json(spec)))
        assert again == spec

    def test_unknown_keys_rejected(self):
        good = {"sequence": {"mode": "generic", "n": 2}, "blocks": [{"rows": [1, 2], "power": 1}]}
        spec_from_dict(good)
        for broken in (
            {**good, "extra": 1},
            {"sequence": {**good["sequence"], "oops": 1}, "blocks": good["blocks"]},
            {"sequence": good["sequence"], "blocks": [{"rows": [1], "power": 1, "x": 2}]},
        ):
            with pytest.raises(SpecError):
                spec_from_dict(broken)

    def test_domain_follows_mode(self, paper):
        assert paper.spec.domain == "QQ"
        seq = SeqSpec(n=1, mode="concrete", x_names=("x",), concrete_terms=(((1, {"x": 1}),),))
        assert ReesSpec(seq=seq, blocks=(((1,), 1),)).domain == "ZZ"


class TestPaperExample:
    MATRIX = (
        "    s   [1;000]   [2;000]   [3;000]   [4;000]   [5;000]\n"
        "p1  p1  T[1;111]  T[2;111]  .         T[4;111]  .\n"
        "p2  p2  T[1;110]  .         T[3;110]  .         T[5;110]\n"
        "x   x   .         T[2;100]  T[3;100]  .         .\n"
        "y   y   .         .         .         T[4;000]  T[5;000]"
    )

    # (kind, blocks, size, label, text) in emission order
    RESTRICTED_FAMILY = [
        ("seq-linear", (1,), 1, "rows (1,2) of column [1;000] against the sequence column", "p1*T[1;110] - p2*T[1;111]"),
        ("seq-linear", (2,), 1, "rows (1,3) of column [2;000] against the sequence column", "p1*T[2;100] - x*T[2;111]"),
        ("seq-linear", (3,), 1, "rows (2,3) of column [3;000] against the sequence column", "p2*T[3;100] - x*T[3;110]"),
        ("seq-linear", (4,), 1, "rows (1,4) of column [4;000] against the sequence column", "p1*T[4;000] - y*T[4;111]"),
        ("seq-linear", (5,), 1, "rows (2,4) of column [5;000] against the sequence column", "p2*T[5;000] - y*T[5;110]"),
        (
            "multiblock-cycle", (1, 2, 3), 3, "cycle through rows (1, 2, 3) cols ('[1;000]', '[2;000]', '[3;000]')",
            "T[1;111]*T[2;100]*T[3;110] - T[1;110]*T[2;111]*T[3;100]",
        ),
        (
            "multiblock-cycle", (1, 4, 5), 3, "cycle through rows (1, 2, 4) cols ('[1;000]', '[4;000]', '[5;000]')",
            "T[1;111]*T[4;000]*T[5;110] - T[1;110]*T[4;111]*T[5;000]",
        ),
        (
            "multiblock-cycle", (2, 3, 4, 5), 4,
            "cycle through rows (1, 2, 3, 4) cols ('[2;000]', '[3;000]', '[4;000]', '[5;000]')",
            "T[2;111]*T[3;100]*T[4;000]*T[5;110] - T[2;100]*T[3;110]*T[4;111]*T[5;000]",
        ),
    ]

    GENERATORS = {row[-1] for row in RESTRICTED_FAMILY}

    # a power-2 block on all three rows and a row pair: every kind.  Three
    # block-2x2 minors repeat earlier ones and are dropped, so the labels
    # that survive pin the emission order.
    POWER_TWO_FAMILY = [
        ("seq-linear", (1,), 1, "rows (1,2) of column [1;11] against the sequence column", "s1*T[1;21] - s2*T[1;22]"),
        ("seq-linear", (1,), 1, "rows (1,3) of column [1;11] against the sequence column", "s1*T[1;11] - s3*T[1;22]"),
        ("seq-linear", (1,), 1, "rows (2,3) of column [1;11] against the sequence column", "s2*T[1;11] - s3*T[1;21]"),
        ("seq-linear", (1,), 1, "rows (1,2) of column [1;10] against the sequence column", "s1*T[1;20] - s2*T[1;21]"),
        ("seq-linear", (1,), 1, "rows (1,3) of column [1;10] against the sequence column", "s1*T[1;10] - s3*T[1;21]"),
        ("seq-linear", (1,), 1, "rows (2,3) of column [1;10] against the sequence column", "s2*T[1;10] - s3*T[1;20]"),
        ("seq-linear", (1,), 1, "rows (1,2) of column [1;00] against the sequence column", "s1*T[1;10] - s2*T[1;11]"),
        ("seq-linear", (1,), 1, "rows (1,3) of column [1;00] against the sequence column", "s1*T[1;00] - s3*T[1;11]"),
        ("seq-linear", (1,), 1, "rows (2,3) of column [1;00] against the sequence column", "s2*T[1;00] - s3*T[1;10]"),
        ("seq-linear", (2,), 1, "rows (1,2) of column [2;00] against the sequence column", "s1*T[2;10] - s2*T[2;11]"),
        ("block-2x2", (1,), 2, "rows (1,2) cols [1;11],[1;10]", "T[1;22]*T[1;20] - T[1;21]^2"),
        ("block-2x2", (1,), 2, "rows (1,3) cols [1;11],[1;10]", "T[1;22]*T[1;10] - T[1;21]*T[1;11]"),
        ("block-2x2", (1,), 2, "rows (2,3) cols [1;11],[1;10]", "T[1;21]*T[1;10] - T[1;20]*T[1;11]"),
        ("block-2x2", (1,), 2, "rows (1,3) cols [1;11],[1;00]", "T[1;22]*T[1;00] - T[1;11]^2"),
        ("block-2x2", (1,), 2, "rows (2,3) cols [1;11],[1;00]", "T[1;21]*T[1;00] - T[1;11]*T[1;10]"),
        ("block-2x2", (1,), 2, "rows (2,3) cols [1;10],[1;00]", "T[1;20]*T[1;00] - T[1;10]^2"),
        ("multiblock-cycle", (1, 2), 2, "cycle through rows (1, 2) cols ('[1;11]', '[2;00]')", "T[1;22]*T[2;10] - T[1;21]*T[2;11]"),
        ("multiblock-cycle", (1, 2), 2, "cycle through rows (1, 2) cols ('[1;10]', '[2;00]')", "T[1;21]*T[2;10] - T[1;20]*T[2;11]"),
        ("multiblock-cycle", (1, 2), 2, "cycle through rows (1, 2) cols ('[1;00]', '[2;00]')", "T[1;11]*T[2;10] - T[1;10]*T[2;11]"),
    ]

    @staticmethod
    def _texts(pres, family):
        u = pres.universe
        return {
            "%s - %s" % (mono_text(g.binomial.plus, u), mono_text(g.binomial.minus, u))
            for g in defining_generators(pres, family)
        }

    def test_matrix_layout_frozen(self, paper):
        assert paper.pretty_matrix() == self.MATRIX

    def test_restricted_family_frozen(self, paper):
        power_two = build_presentation(ReesSpec(seq=SeqSpec(n=3), blocks=(((1, 2, 3), 2), ((1, 2), 1))))
        for pres, want in ((paper, self.RESTRICTED_FAMILY), (power_two, self.POWER_TWO_FAMILY)):
            u = pres.universe
            got = [
                (g.kind, g.blocks, g.size, g.label, "%s - %s" % (mono_text(g.binomial.plus, u), mono_text(g.binomial.minus, u)))
                for g in defining_generators(pres, RESTRICTED)
            ]
            assert got == want

    def test_kind_breakdown(self, paper):
        gens = defining_generators(paper, RESTRICTED)
        kinds = sorted(g.kind for g in gens)
        assert kinds.count("seq-linear") == 5
        assert kinds.count("multiblock-cycle") == 3
        assert kinds.count("block-2x2") == 0

    def test_full_family_contains_restricted(self, paper):
        full = self._texts(paper, FULL)
        assert self.GENERATORS <= full
        assert len(full) == 22

    def test_phi_kills_both_families(self, paper):
        for family in (RESTRICTED, FULL):
            for g in defining_generators(paper, family):
                assert paper.phi(g.poly).is_zero()

    def test_phi_images(self, paper):
        u = paper.universe
        img = paper.phi_images()[u.vid("T[3;110]")]
        # block 3 covers rows 2 and 3; this variable's value is s2 * t3
        assert img.render() == "p2*t3"

    def test_selected_columns_have_support_inside_block(self, paper):
        for bd in paper.blocks:
            k1 = bd.rows[0]
            for it in bd.tuples:
                selected = it in bd.columns
                if not it.in_column_set():
                    # top component already at the cap: not shiftable, never a column
                    assert not selected
                    continue
                inside = set(it.shift(k1).support()) <= set(bd.rows)
                assert selected == inside

    def test_presentation_ring_membership(self, paper):
        # T[3;111] is s1 * t3, and s1 lies outside block 3's rows {2, 3}:
        # the universe has no such variable
        with pytest.raises(KeyError):
            paper.universe.vid("T[3;111]")


def _every_row_set(n, size):
    """One power-1 block per ``size``-row subset of n rows."""
    return ReesSpec(seq=SeqSpec(n=n), blocks=tuple((rows, 1) for rows in combinations(range(1, n + 1), size)))


UNIVERSE_SPECS = {
    "concrete-monomials": ReesSpec(
        seq=SeqSpec(
            n=3,
            mode="concrete",
            x_names=("x", "y", "z"),
            concrete_terms=(((1, {"x": 1, "y": 1}),), ((1, {"z": 1}),), ((3, {"x": 1}),)),
        ),
        blocks=(((1, 2), 2), ((2, 3), 1)),
    ),
    "concrete-constant": ReesSpec(
        seq=SeqSpec(
            n=3, mode="concrete", x_names=("x",), concrete_terms=(((2, {}),), ((3, {}),), ((1, {"x": 1}),))
        ),
        blocks=(((1, 2), 1), ((2, 3), 1)),
    ),
    "concrete-binomial": ReesSpec(
        seq=SeqSpec(
            n=2, mode="concrete", x_names=("x", "y"), concrete_terms=(((1, {"x": 1}), (1, {"y": 1})), ((1, {"y": 1}),))
        ),
        blocks=(((1,), 2), ((1, 2), 1)),
    ),
    "n5-three-row": _every_row_set(5, 3),
    "n6-two-row": _every_row_set(6, 2),
    "n5-two-row": _every_row_set(5, 2),
    "power-3": ReesSpec(seq=SeqSpec(n=4), blocks=(((1, 2, 4), 3), ((2, 3), 1))),
}


class TestUniverse:
    """The T-block of the universe is the presentation ring, one variable
    per power product of a block's own rows, and each is a matrix entry:
    a ring monomial m with s_k in its support is the row-k entry of the
    column labelled m / s_k * s_n."""

    @staticmethod
    def assert_universe_is_the_ring(pres):
        u = pres.universe
        assert set(pres.matrix.entries.values()) == set(u.s_ids) | set(u.T_ids)
        for bd in pres.blocks:
            ring = [it for it in bd.tuples if set(it.support()) <= set(bd.rows)]
            assert [pres.var_block[v] for v in bd.vids.values()] == [(bd.index, it) for it in ring]

    def test_desk_scale_specs(self):
        specs = desk_scale_specs()
        assert len(specs) == 258
        for spec in specs:
            self.assert_universe_is_the_ring(build_presentation(spec))

    @pytest.mark.parametrize("name", sorted(UNIVERSE_SPECS))
    def test_other_shapes(self, name):
        self.assert_universe_is_the_ring(build_presentation(UNIVERSE_SPECS[name]))

    def test_ring_sizes(self, paper):
        # five two-row blocks at power 1 over n = 4: two variables each
        assert len(paper.universe.T_ids) == 10
        assert len(build_presentation(UNIVERSE_SPECS["n6-two-row"]).universe.T_ids) == 30
        # block 1: the 15 cubes in three symbols; block 2: s2 and s3
        assert len(build_presentation(UNIVERSE_SPECS["power-3"]).universe.T_ids) == 10 + 2


class TestFamilies:
    def test_single_block_power_two(self):
        spec = ReesSpec(seq=SeqSpec(n=2), blocks=(((1, 2), 2),))
        pres = build_presentation(spec)
        u = pres.universe
        texts = {
            "%s - %s" % (mono_text(g.binomial.plus, u), mono_text(g.binomial.minus, u))
            for g in defining_generators(pres, RESTRICTED)
        }
        assert texts == {
            "s1*T[1;1] - s2*T[1;2]",
            "s1*T[1;0] - s2*T[1;1]",
            "T[1;2]*T[1;0] - T[1;1]^2",
        }

    def test_restricted_excludes_multicycle_unions(self):
        # two-cycle unions are sums of single-cycle multiples; they appear
        # in the full family only
        spec = ReesSpec(
            seq=SeqSpec(n=4, names=("p1", "p2", "x", "y")),
            blocks=(((1, 2), 1), ((1, 3), 1), ((2, 3), 1), ((1, 4), 1), ((2, 4), 1)),
        )
        pres = build_presentation(spec)
        u = pres.universe

        def mixes_seq_and_blocks(g):
            support = set()
            for term in (g.binomial.plus, g.binomial.minus):
                support.update(v for v, _ in term.exps)
            return bool(support & u.s_idset) and len(g.blocks) >= 2

        restricted = defining_generators(pres, RESTRICTED)
        assert all(g.kind != "binary" for g in restricted)
        # restricted members either pair a sequence element with a single
        # block, or run a cycle through several blocks without sequence
        # elements; the full family also has cycles through the value column
        # spanning several blocks at once
        assert not any(mixes_seq_and_blocks(g) for g in restricted)
        full = defining_generators(pres, FULL)
        assert any(mixes_seq_and_blocks(g) for g in full)

    def test_degenerate_singleton_block(self):
        spec = ReesSpec(seq=SeqSpec(n=2), blocks=(((1,), 1),))
        pres = build_presentation(spec)
        assert defining_generators(pres, RESTRICTED) == []
        assert defining_generators(pres, FULL) == []
        report = normality_report(pres, defining_generators(pres, RESTRICTED))
        assert report.verdict == "NORMAL_CM"
        assert any("no relations" in note for note in report.notes)

    def test_max_minor_size_validation(self, ):
        spec = ReesSpec(seq=SeqSpec(n=2), blocks=(((1, 2), 1),))
        pres = build_presentation(spec)
        with pytest.raises(ValueError):
            defining_generators(pres, RESTRICTED, max_minor_size=1)
        with pytest.raises(ValueError):
            defining_generators(pres, "other")

    def test_generators_are_honest_kernel_elements(self):
        # a couple of random-ish small specs, both families
        for blocks in ((((1, 2), 2), ((2, 3), 1)), (((1, 2, 3), 2),)):
            spec = ReesSpec(seq=SeqSpec(n=3), blocks=blocks)
            pres = build_presentation(spec)
            for family in (RESTRICTED, FULL):
                for g in defining_generators(pres, family):
                    assert paper_is_zero(pres, g.poly)


def _fields(gens):
    return [
        (g.binomial.key(), g.binomial.plus_cells, g.binomial.minus_cells, g.kind, g.blocks, g.size, g.label)
        for g in gens
    ]


def reference_restricted_items(pres, walks):
    """The restricted family's items as three lists in three loops: the
    reference for ``rees._restricted_items``, which sorts them in one."""
    seq_linear, block_2x2, multiblock = [], [], []
    for walk in walks:
        rows = tuple(sorted(r for r, _ in walk[0::2]))
        cols = tuple(sorted(c for _, c in walk[0::2]))
        if cols[0] == 0:
            if len(cols) == 2:
                seq_linear.append((cols, rows, walk))
            continue
        blocks_ = [pres.col_blocks[c][0] for c in cols]
        if len(set(blocks_)) == len(cols):
            multiblock.append((blocks_, rows, cols, walk))
        elif len(cols) == 2:
            block_2x2.append((cols, rows, walk))
    E = pres.matrix
    label = pres.col_labels
    for (_, c), (ku, kw), walk in sorted(seq_linear):
        yield (
            Binomial.from_matchings(E, walk[0::2], walk[1::2]),
            "seq-linear",
            pres.col_blocks[c][:1],
            1,
            "rows (%d,%d) of column %s against the sequence column" % (ku + 1, kw + 1, label[c]),
        )
    for (ca, cb), (ku, kw), walk in sorted(block_2x2):
        yield (
            Binomial.from_matchings(E, walk[0::2], walk[1::2]),
            "block-2x2",
            pres.col_blocks[ca][:1],
            2,
            "rows (%d,%d) cols %s,%s" % (ku + 1, kw + 1, label[ca], label[cb]),
        )
    for blocks_, rows, cols, walk in multiblock:
        yield (
            Binomial.from_matchings(E, walk[0::2], walk[1::2]),
            "multiblock-cycle",
            blocks_,
            len(cols),
            "cycle through rows %s cols %s" % (tuple(r + 1 for r in rows), tuple(label[c] for c in cols)),
        )


def test_restricted_items_match_the_reference():
    for spec in emission_specs():
        pres = build_presentation(spec)
        walks = _entry_graph_cycles(pres.matrix, _size_cap(pres, RESTRICTED, None))
        got = _fields(_family(pres, _restricted_items(pres, walks)))
        assert got == _fields(_family(pres, reference_restricted_items(pres, walks)))
        assert got == _fields(defining_generators(pres, RESTRICTED))


class TestSingleCycleFamilies:
    def test_desk_specs(self):
        # n <= 3 leaves no room for a union of two cycles, so F1 is F
        for spec in desk_scale_specs():
            pres = build_presentation(spec)
            assert _fields(defining_generators(pres, SINGLE)) == _fields(defining_generators(pres, FULL))

    def test_unions_left_out_in_order(self):
        spec = ReesSpec(seq=SeqSpec(n=4), blocks=(((2, 3), 1), ((1, 2, 3), 1), ((1, 3, 4), 1)))
        pres = build_presentation(spec)
        single = defining_generators(pres, SINGLE)
        full = defining_generators(pres, FULL)
        keys = {g.binomial.key() for g in single}
        assert {g.binomial.key() for g in defining_generators(pres, RESTRICTED)} <= keys
        assert _fields(single) == [f for f in _fields(full) if f[0] in keys]
        assert len(single) < len(full)

    def test_arguments_checked(self):
        pres = build_presentation(ReesSpec(seq=SeqSpec(n=2), blocks=(((1, 2), 1),)))
        with pytest.raises(ValueError):
            defining_generators(pres, SINGLE, max_minor_size=1)
        with pytest.raises(ValueError):
            defining_generators(pres, "other")


def paper_is_zero(pres, p):
    return pres.phi(p).is_zero()


class TestNormalityReport:
    def test_generic_suite_verdict(self):
        spec = ReesSpec(seq=SeqSpec(n=3), blocks=(((1, 2, 3), 2), ((1, 2), 1)))
        pres = build_presentation(spec)
        rep = normality_report(pres, defining_generators(pres))
        assert rep.verdict == "NORMAL_CM"
        assert rep.structural_ok
        assert all(rep.symbol_results.values())

    def test_concrete_unattested_is_indeterminate(self):
        seq = SeqSpec(
            n=2,
            mode="concrete",
            x_names=("x",),
            concrete_terms=(((1, {"x": 1}),), ((1, {"x": 2}),)),
        )
        spec = ReesSpec(seq=seq, blocks=(((1, 2), 1),))
        pres = build_presentation(spec)
        rep = normality_report(pres, defining_generators(pres))
        assert not rep.hypothesis_ok
        assert rep.verdict == "INDETERMINATE"

    def test_concrete_squarefree_values_attest(self):
        seq = SeqSpec(
            n=2,
            mode="concrete",
            x_names=("x", "y"),
            concrete_terms=(((1, {"x": 1}),), ((1, {"y": 1}),)),
        )
        spec = ReesSpec(seq=seq, blocks=(((1, 2), 1),))
        pres = build_presentation(spec)
        rep = normality_report(pres, defining_generators(pres))
        assert rep.hypothesis_ok
        assert rep.verdict == "NORMAL_CM"

    def test_zero_exponent_is_no_support(self):
        # x*y^0 is the value x: disjoint from y, and identical to x
        def spec(*values):
            seq = SeqSpec(
                n=2, mode="concrete", x_names=("x", "y"), concrete_terms=tuple(((1, m),) for m in values)
            )
            return ReesSpec(seq=seq, blocks=(((1, 2), 1),))

        pres = build_presentation(spec({"x": 1, "y": 0}, {"y": 1}))
        rep = normality_report(pres, defining_generators(pres))
        assert rep.hypothesis_ok
        assert rep.verdict == "NORMAL_CM"
        assert spec_to_dict(pres.spec)["sequence"]["values"][0] == [[1, {"x": 1}]]
        assert "s1 and s2 have identical values" in spec({"x": 1, "y": 0}, {"x": 1}).lint()

    def test_summary_lines(self):
        spec = ReesSpec(seq=SeqSpec(n=2), blocks=(((1, 2), 1),))
        pres = build_presentation(spec)
        text = normality_report(pres, defining_generators(pres)).summary()
        assert "verdict: NORMAL_CM" in text
        assert "structural squarefreeness" in text
