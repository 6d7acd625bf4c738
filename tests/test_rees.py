"""Presentation builder: variables and columns, matrix layout,
generating families.

The five-ideal height-two example is frozen in full (matrix layout and
the complete restricted family) from an independently validated run;
the layout of the desk-scale specs and of ``UNIVERSE_SPECS`` is checked
against the paper's construction from ladders and their shifts
(``helpers.ladder_layout``).
"""
import json
import time
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import desk_scale_specs, emission_specs, gb_heavy_specs
from helpers import ladder_layout, reference_precedence
from multirees.cli import _normality
from multirees.poly import GuardExceeded, Mono, MonomialOrder, SpecError, default_t_precedence, leading, mono_text
from multirees.quasimat import Binomial, _entry_graph_cycles
from multirees.rees import (
    FULL,
    RESTRICTED,
    SINGLE,
    Generator,
    NormalityReport,
    ReesSpec,
    _family,
    _ladder,
    _restricted_items,
    _size_cap,
    build_presentation,
    defining_generators,
    normality_report,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
)
from multirees.sseq import MAX_VARIABLES, SeqSpec


def spec_to_json(spec):
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=False)


@pytest.fixture(scope="module")
def paper():
    seq = SeqSpec(n=4, names=("p1", "p2", "x", "y"))
    spec = ReesSpec(
        seq=seq,
        blocks=(((1, 2), 1), ((1, 3), 1), ((2, 3), 1), ((1, 4), 1), ((2, 4), 1)),
    )
    return build_presentation(spec)


def _full_block(n, a):
    """One block on all n rows at power a: every ladder is a variable."""
    return build_presentation(ReesSpec(seq=SeqSpec(n=n), blocks=((tuple(range(1, n + 1)), a),)))


def _by_name(pres):
    u = pres.universe
    return {u.name(v): v for v in u.T_ids}


class TestIndexTuple:
    """The ladders j_1 <= ... <= j_(n-1) that name the variables, read off
    a presentation: shown highest first, s^j = prod s_i^(j_i - j_(i-1))
    with j_0 = 0 and j_n = a, and the shift at k raises every j_i, i >= k."""

    def test_display_reverses_internal_order(self):
        pres = _full_block(4, 1)
        vid = _by_name(pres)["T[1;110]"]
        # the ladder (0, 1, 1) shows as 110 and stands for s2
        assert _ladder(pres.var_block[vid][1]) == (1, 1, 0)
        assert pres.var_block[vid] == (1, (0, 1, 0, 0))

    def test_s_exponents_sum_to_amplitude(self):
        pres = _full_block(4, 3)
        # the ladder (1, 2, 2) is s1 s2 s4
        assert pres.var_block[_by_name(pres)["T[1;221]"]] == (1, (1, 1, 0, 1))
        assert all(sum(e) == 3 for _, e in pres.var_block.values())

    def test_shift_raises_tail(self):
        pres = _full_block(4, 2)
        c = pres.col_labels.index("[1;110]")
        names = {k: pres.universe.name(v) for (k, col), v in pres.matrix.entries.items() if col == c}
        # the ladder (0, 1, 1) shifted at 1, 3 and 4
        assert names[0] == "T[1;221]"
        assert names[2] == "T[1;210]"
        assert names[3] == "T[1;110]"
        # the ladder (1,) at power 1 has its top at the cap: not shiftable,
        # so not a column
        assert "[1;1]" not in _full_block(2, 1).col_labels

    def test_counts_closed_form(self):
        for n in range(1, 7):
            for a in range(1, 6):
                (bd,) = _full_block(n, a).blocks
                assert len(bd.vids) == comb(a + n - 1, n - 1)
                assert len(bd.columns) == comb(a + n - 2, n - 1)

    def test_enumeration_order_display_descending(self):
        pres = _full_block(3, 2)
        displays = [_ladder(pres.var_block[v][1]) for v in pres.universe.T_ids]
        assert displays == sorted(displays, reverse=True)

    def test_column_set_is_positive_last_exponent(self):
        pres = _full_block(3, 2)
        labels = set(pres.col_labels)
        for vid, (_, e) in pres.var_block.items():
            assert (pres.universe.name(vid)[1:] in labels) == (e[-1] >= 1)


# JSON sequence keys and the SeqSpec fields they fill
SEQUENCE_FIELDS = {
    "n": "n",
    "mode": "mode",
    "names": "names",
    "ambient": "x_names",
    "values": "concrete_terms",
    "assume_weak_regular": "assume_weak_regular",
}


@st.composite
def sequence_objects(draw):
    """JSON ``sequence`` objects, half of them concrete with n values of
    the right shape, the rest with any keys and broken value shapes:
    pair-list monomials, three-item terms, non-list values and terms,
    float or string exponents and coefficients, values in generic mode."""
    monomial = st.dictionaries(st.sampled_from(("x", "y")), st.integers(0, 2), max_size=2)
    term = st.tuples(st.sampled_from((-1, 1, 2, 3)), monomial).map(list)
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        values = st.lists(st.lists(term, min_size=1, max_size=2), min_size=n, max_size=n)
        return {"mode": "concrete", "n": n, "ambient": ["x", "y"], "values": draw(values)}
    odd_exponent = st.dictionaries(st.just("x"), st.sampled_from((1.0, -1, "1")), min_size=1)
    broken_term = st.one_of(
        st.tuples(st.integers(-1, 2), monomial.map(lambda m: [[k, e] for k, e in m.items()])).map(list),
        st.tuples(st.integers(1, 2), monomial, st.integers(0, 1)).map(list),
        st.tuples(st.sampled_from((1.0, True, "1")), monomial).map(list),
        st.tuples(st.integers(1, 2), odd_exponent).map(list),
        st.sampled_from((None, 2, "ab")),
    )
    value = st.one_of(st.lists(st.one_of(term, broken_term), max_size=2), st.sampled_from((None, 0, "ab", {})))
    seq = {
        "n": draw(st.one_of(st.integers(1, 3), st.sampled_from((0, 1.5, True, "2")))),
        "mode": draw(st.sampled_from(("generic", "concrete", "concrete", "other"))),
        "values": draw(st.one_of(st.lists(value, min_size=1, max_size=3), st.sampled_from((None, 0, "", {}, "ab")))),
    }
    optional = {
        "names": st.lists(st.sampled_from(("a", "b", 1)), max_size=3),
        "ambient": st.lists(st.sampled_from(("x", "y", "z")), max_size=2, unique=True),
        "assume_weak_regular": st.sampled_from((True, False, "no")),
    }
    for key, strategy in optional.items():
        if draw(st.booleans()):
            seq[key] = draw(strategy)
    return seq


def _outcome(make):
    try:
        return make()
    except SpecError as exc:
        return "SpecError: %s" % exc


class TestSpecValidation:
    @settings(max_examples=300, deadline=None)
    @given(seq=sequence_objects())
    @example(seq={"n": 1, "mode": "concrete", "ambient": ["x", "y"], "values": [[[2, {"x": 1, "y": 0}]]]})
    @example(seq={"n": 1, "mode": "concrete", "ambient": ["x"], "values": [[[2, [["x", 1]]]]]})
    @example(seq={"n": 1, "values": [5]})
    def test_json_reader_and_library_agree(self, seq):
        # SeqSpec reads the values, and spec_from_dict passes them through:
        # both paths raise the same SpecError, or build equal specs
        from_json = _outcome(lambda: spec_from_dict({"sequence": seq, "blocks": [{"rows": [1]}]}).seq)
        direct = _outcome(lambda: SeqSpec(**{SEQUENCE_FIELDS[k]: v for k, v in seq.items()}))
        assert from_json == direct

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

    @pytest.mark.parametrize(
        "make, sequence",
        [
            (
                lambda: SeqSpec(
                    n=2,
                    mode="concrete",
                    x_names=("x",),
                    concrete_terms=(((1, {"x": 1}),), ((1, {"x": 2}),)),
                    assume_weak_regular="no",
                ),
                {
                    "n": 2,
                    "mode": "concrete",
                    "ambient": ["x"],
                    "values": [[[1, {"x": 1}]], [[1, {"x": 2}]]],
                    "assume_weak_regular": "no",
                },
            ),
            (lambda: SeqSpec(n=2, names="ab"), {"n": 2, "names": "ab"}),
            (lambda: SeqSpec(n=2, x_names="xy"), {"n": 2, "ambient": "xy"}),
            (
                lambda: SeqSpec(n=1, mode="concrete", x_names=("x",), concrete_terms=(5,)),
                {"n": 1, "mode": "concrete", "ambient": ["x"], "values": [5]},
            ),
            (
                lambda: SeqSpec(n=1, mode="concrete", x_names=("x",), concrete_terms=(((2, [("x", 1)]),),)),
                {"n": 1, "mode": "concrete", "ambient": ["x"], "values": [[[2, [["x", 1]]]]]},
            ),
            (lambda: SeqSpec(n=1, concrete_terms=0), {"n": 1, "values": 0}),
            (lambda: SeqSpec(n=1, concrete_terms=None), {"n": 1, "values": None}),
            (lambda: SeqSpec(n=1, concrete_terms=""), {"n": 1, "values": ""}),
            (lambda: SeqSpec(n=1, concrete_terms={}), {"n": 1, "values": {}}),
        ],
        ids=[
            "attestation-not-bool",
            "names-a-string",
            "ambient-a-string",
            "value-not-a-list",
            "monomial-a-pair-list",
            "generic-values-0",
            "generic-values-None",
            "generic-values-empty-string",
            "generic-values-empty-object",
        ],
    )
    def test_library_fields_checked_like_json(self, make, sequence):
        # SeqSpec is the boundary both paths pass: a library caller gets
        # the SpecError, with the message, that the JSON spec gets; no
        # string is split into names, and "no" attests nothing
        with pytest.raises(SpecError) as library:
            make()
        with pytest.raises(SpecError) as from_json:
            spec_from_dict({"sequence": sequence, "blocks": [{"rows": [1]}]})
        assert str(library.value) == str(from_json.value)

    def test_variable_guard_boundary(self):
        # n plus comb(|K_l| + a_l - 1, a_l) per block, counted before any
        # name is built: a spec within the guard builds, past it raises
        power = max(a for a in range(1, MAX_VARIABLES) if 3 + comb(a + 2, 2) <= MAX_VARIABLES)
        pair, single = ((1, 2), 1), ((1,), 1)  # two variables, one
        for n, within, past in [
            (MAX_VARIABLES - 2, (pair,), (pair, single)),
            (2, (pair,) * (MAX_VARIABLES // 2 - 1), (pair,) * (MAX_VARIABLES // 2 - 1) + (single,)),
            (3, (((1, 2, 3), power),), (((1, 2, 3), power + 1),)),
        ]:
            ReesSpec(seq=SeqSpec(n=n), blocks=within)
            with pytest.raises(GuardExceeded, match="hard guard of %d" % MAX_VARIABLES):
                ReesSpec(seq=SeqSpec(n=n), blocks=past)
        SeqSpec(n=MAX_VARIABLES)
        with pytest.raises(GuardExceeded, match="hard guard of %d" % MAX_VARIABLES):
            SeqSpec(n=MAX_VARIABLES + 1)

    def test_huge_power_is_counted_without_its_binomial(self):
        # comb(1000 + 10**4000 - 1, 999) has millions of digits and takes
        # seconds; the count stops at the guard instead
        rows = tuple(range(1, 1001))
        start = time.perf_counter()
        with pytest.raises(GuardExceeded):
            ReesSpec(seq=SeqSpec(n=1000), blocks=((rows, 10**4000),))
        assert time.perf_counter() - start < 1

    def test_rows_deduplicated_sorted(self):
        spec = ReesSpec(seq=SeqSpec(n=3), blocks=(((3, 1, 3), 1),))
        assert spec.blocks == (((1, 3), 1),)

    def test_repr(self):
        seq = SeqSpec(n=2)
        assert repr(ReesSpec(seq=seq, blocks=(((2, 1), 1),))) == "ReesSpec(seq=%r, blocks=(((1, 2), 1),))" % (seq,)

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
        # a column is a degree-(a-1) exponent vector u with support inside
        # the block's rows, and u + unit_k is a variable for each row k
        for pres in (paper, build_presentation(UNIVERSE_SPECS["power-3"])):
            n = pres.spec.seq.n
            for bd in pres.blocks:
                want = [u for u in _exponent_vectors(n, bd.power - 1) if _support(u) <= set(bd.rows)]
                assert sorted(bd.columns) == sorted(want)
                for u in bd.columns:
                    for k in bd.rows:
                        assert u[:k - 1] + (u[k - 1] + 1,) + u[k:] in bd.vids

    def test_presentation_ring_membership(self, paper):
        # T[3;111] is s1 * t3, and s1 lies outside block 3's rows {2, 3}:
        # the universe has no such variable
        with pytest.raises(KeyError):
            paper.universe.vid("T[3;111]")


def _exponent_vectors(n, degree):
    return [e for e in product(range(degree + 1), repeat=n) if sum(e) == degree]


def _support(e):
    """1-based positions with a positive exponent."""
    return {i + 1 for i, x in enumerate(e) if x}


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
    # names separate the ladder's entries by commas beyond power 9
    "power-10": ReesSpec(seq=SeqSpec(n=3), blocks=(((1, 2, 3), 10),)),
    "power-11": ReesSpec(seq=SeqSpec(n=4), blocks=(((1, 3, 4), 11), ((2, 3), 9))),
    "power-12": ReesSpec(seq=SeqSpec(n=2), blocks=(((1, 2), 12), ((2,), 10))),
}


def layout(pres):
    """What ``helpers.ladder_layout`` builds, read off a presentation."""
    u = pres.universe
    return (
        [u.name(v) for v in u.T_ids],
        [(l, _ladder(e), len(e) - e.count(0)) for l, e in map(pres.var_block.get, u.T_ids)],
        {cell: u.name(v) for cell, v in pres.matrix.entries.items()},
        pres.col_labels,
        {u.name(v): image for v, image in pres.var_block.items()},
    )


class TestUniverse:
    """The T-block of the universe is the presentation ring, one variable
    per power product of a block's own rows, and each is a matrix entry:
    a ring monomial m with s_k in its support is the row-k entry of the
    column of m / s_k.  Names, keys, entries, column labels and variable
    blocks agree with the paper's construction from ladders and shifts."""

    @staticmethod
    def assert_universe_is_the_ring(pres):
        u = pres.universe
        assert set(pres.matrix.entries.values()) == set(u.s_ids) | set(u.T_ids)
        for bd in pres.blocks:
            ring = [e for e in _exponent_vectors(pres.spec.seq.n, bd.power) if _support(e) <= set(bd.rows)]
            assert sorted(bd.vids) == sorted(ring)
            assert list(bd.vids.values()) == sorted(bd.vids.values())
            assert [pres.var_block[v] for v in bd.vids.values()] == [(bd.index, e) for e in bd.vids]
        assert layout(pres) == ladder_layout(pres.spec)

    def test_desk_scale_specs(self):
        specs = desk_scale_specs()
        assert len(specs) == 258
        for spec in specs:
            self.assert_universe_is_the_ring(build_presentation(spec))

    @pytest.mark.parametrize("name", sorted(UNIVERSE_SPECS))
    def test_other_shapes(self, name):
        self.assert_universe_is_the_ring(build_presentation(UNIVERSE_SPECS[name]))

    def test_commas_from_power_ten(self):
        names, _, _, labels, _ = layout(build_presentation(UNIVERSE_SPECS["power-11"]))
        # s1^3 s3^7 s4 at power 11 has the ladder (10, 3, 3); s2^9 at power 9
        # has (9, 9, 0), its digits run together
        assert "T[1;10,3,3]" in names and "[1;10,3,3]" in labels
        assert "T[2;990]" in names and "[2;880]" in labels

    def test_sequence_linear_identity(self):
        # rows k and w of a block column u hold T[u*s_k] and T[u*s_w], so
        # s_k * T[u*s_w] and s_w * T[u*s_k] have one value
        for spec in desk_scale_specs() + list(UNIVERSE_SPECS.values()):
            pres = build_presentation(spec)
            u = pres.universe
            images = pres.phi_images()
            column = {}
            for (k, c), vid in pres.matrix.entries.items():
                if c:
                    column.setdefault(c, []).append((u.poly_var(spec.seq.names[k]), images[vid]))
            for cells in column.values():
                for (sk, vk), (sw, vw) in combinations(cells, 2):
                    assert (sk * vw - sw * vk).is_zero()

    def test_ring_sizes(self, paper):
        # five two-row blocks at power 1 over n = 4: two variables each
        assert len(paper.universe.T_ids) == 10
        assert len(build_presentation(UNIVERSE_SPECS["n6-two-row"]).universe.T_ids) == 30
        # block 1: the 15 cubes in three symbols; block 2: s2 and s3
        assert len(build_presentation(UNIVERSE_SPECS["power-3"]).universe.T_ids) == 10 + 2


class TestPrecedence:
    """The canonical precedence that ``Presentation`` ranks, (block,
    spread) with ties by id, is the key rule of
    ``helpers.reference_precedence``: inside a block the ids run largest
    ladder first."""

    @staticmethod
    def assert_precedence_is_the_reference(pres):
        u = pres.universe
        assert u.T_precedence == reference_precedence(pres)
        assert default_t_precedence(u) == u.T_precedence == MonomialOrder(u, "grevlex").tvars

    def test_desk_scale_specs(self):
        specs = desk_scale_specs()
        assert len(specs) == 258
        for spec in specs:
            self.assert_precedence_is_the_reference(build_presentation(spec))

    def test_gb_heavy_shapes(self):
        for spec in gb_heavy_specs():
            self.assert_precedence_is_the_reference(build_presentation(spec))

    @pytest.mark.parametrize("name", sorted(UNIVERSE_SPECS))
    def test_other_shapes(self, name):
        # the power-3 to power-12 and concrete specs, and the three wide shapes
        self.assert_precedence_is_the_reference(build_presentation(UNIVERSE_SPECS[name]))

    def test_paper_example(self, paper):
        self.assert_precedence_is_the_reference(paper)


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
            tuple(sorted(blocks_)),
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


def reference_symbol_results(rep):
    """The symbol-level leads by ``leading`` on each generator's ``Poly``:
    the reference for ``NormalityReport.symbol_results``, which reads them
    off the binomials."""
    out = {}
    for kind in ("lex", "grevlex"):
        order = MonomialOrder(rep.universe, kind)
        leads = (leading(g.poly, order) for g in rep.generators)
        out[order.describe()] = all(
            lm.is_squarefree() and (len(lc.terms) != 1 or lc.terms[0][0].is_squarefree()) for lc, lm in leads
        )
    return out


def _one_generator_report(rep, g):
    return NormalityReport(rep.verdict, rep.structural_ok, rep.hypothesis_ok, rep.notes, [g], rep.universe)


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

    def test_symbol_results_match_the_reference(self):
        # every generator on its own, in both families of the emission
        # specs and the gb_heavy shapes: 528 families
        families = bad = 0
        for spec in emission_specs() + gb_heavy_specs():
            pres = build_presentation(spec)
            for family in (RESTRICTED, FULL):
                families += 1
                rep = normality_report(pres, defining_generators(pres, family))
                assert rep.symbol_results == reference_symbol_results(rep)
                for g in rep.generators:
                    one = _one_generator_report(rep, g)
                    got = one.symbol_results
                    assert got == reference_symbol_results(one), g.label
                    bad += not all(got.values())
        assert families == 528 and bad > 0

    def test_tied_T_parts_test_the_T_part_alone(self):
        # no emitted generator has terms with equal T-parts, but a library
        # caller's may: the leading coefficient then has two terms, and
        # only the T-part must be squarefree
        pres = build_presentation(ReesSpec(seq=SeqSpec(n=2), blocks=(((1, 2), 1),)))
        u = pres.universe
        (s1, s2), T = u.s_ids, u.T_ids[0]
        rep = normality_report(pres, defining_generators(pres))
        for plus, minus, squarefree in [
            (((s1, 2), (T, 1)), ((s2, 1), (T, 1)), True),
            (((s1, 1), (T, 2)), ((s2, 1), (T, 2)), False),
        ]:
            g = Generator(Binomial(Mono(plus), Mono(minus), (), ()), "binary", (1,), 2, "tied", u)
            one = _one_generator_report(rep, g)
            assert set(one.symbol_results.values()) == {squarefree}
            assert one.symbol_results == reference_symbol_results(one)

    def test_summary_lines(self):
        spec = ReesSpec(seq=SeqSpec(n=2), blocks=(((1, 2), 1),))
        pres = build_presentation(spec)
        text = "\n".join(_normality(normality_report(pres, defining_generators(pres)), "text"))
        assert "verdict: NORMAL_CM" in text
        assert "structural squarefreeness" in text
