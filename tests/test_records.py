"""The package's records are plain classes.

Importing the command line loads neither ``dataclasses`` nor ``inspect``;
the two specs compare by value, after their normalisation, and differ
when any one of their fields does; every record takes the arguments its
callers pass, and no two records share a mutable default.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multirees
from multirees.grobner import REDUCED_TO_ZERO, BuchbergerReport, MemberResult, PairResult, buchberger_check
from multirees.oracle import KernelPiece, OracleReport, SpanReport, oracle_check
from multirees.poly import Mono, MonomialOrder
from multirees.rees import (
    RESTRICTED,
    BlockData,
    Generator,
    NormalityReport,
    ReesSpec,
    build_presentation,
    defining_generators,
    normality_report,
)
from multirees.sseq import SeqSpec, TaylorComplex, taylor_complex


def _modules_after(code):
    src = str(Path(multirees.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # against a bare interpreter in the same environment, so that what
    # site start-up imports does not count
    added = _modules_after("import multirees.cli") - _modules_after("pass")
    assert "multirees.cli" in added
    assert added & {"dataclasses", "inspect"} == set()


CONCRETE = dict(
    n=2,
    mode="concrete",
    names=("a", "b"),
    x_names=("x", "y"),
    concrete_terms=(((1, {"x": 1}),), ((1, {"y": 1}),)),
    assume_weak_regular=False,
)
BLOCKS = (((1, 2), 1), ((2,), 2))


class TestSpecEquality:
    def test_equal_inputs_compare_equal(self):
        assert SeqSpec(**CONCRETE) == SeqSpec(**CONCRETE)
        assert not SeqSpec(**CONCRETE) != SeqSpec(**CONCRETE)
        assert ReesSpec(seq=SeqSpec(**CONCRETE), blocks=BLOCKS) == ReesSpec(seq=SeqSpec(**CONCRETE), blocks=BLOCKS)

    def test_equal_after_normalisation(self):
        # names and values as lists, a zero exponent, rows unsorted and repeated
        listed = dict(
            CONCRETE,
            names=["a", "b"],
            x_names=["x", "y"],
            concrete_terms=[[[1, {"x": 1, "y": 0}]], [[1, {"y": 1}]]],
        )
        assert SeqSpec(**listed) == SeqSpec(**CONCRETE)
        assert SeqSpec(n=2, names=["s1", "s2"]) == SeqSpec(n=2)
        messy = (([2, 1, 2], 1), ((2, 2), 2))
        assert ReesSpec(seq=SeqSpec(**listed), blocks=messy) == ReesSpec(seq=SeqSpec(**CONCRETE), blocks=BLOCKS)

    @pytest.mark.parametrize(
        "change",
        [
            dict(n=3, names=("a", "b", "c"), concrete_terms=CONCRETE["concrete_terms"] + (((1, {"x": 2}),),)),
            dict(mode="generic", x_names=(), concrete_terms=()),
            dict(names=("a", "c")),
            dict(x_names=("x", "y", "z")),
            dict(concrete_terms=(((1, {"x": 1}),), ((2, {"y": 1}),))),
            dict(assume_weak_regular=True),
        ],
        ids=["n", "mode", "names", "ambient", "values", "attestation"],
    )
    def test_one_sequence_change_compares_unequal(self, change):
        assert SeqSpec(**dict(CONCRETE, **change)) != SeqSpec(**CONCRETE)
        assert ReesSpec(seq=SeqSpec(**dict(CONCRETE, **change)), blocks=BLOCKS) != ReesSpec(
            seq=SeqSpec(**CONCRETE), blocks=BLOCKS
        )

    @pytest.mark.parametrize(
        "blocks",
        [(((1,), 1), ((2,), 2)), (((1, 2), 2), ((2,), 2)), (((2,), 2), ((1, 2), 1)), BLOCKS[:1]],
        ids=["rows", "power", "order", "count"],
    )
    def test_one_block_change_compares_unequal(self, blocks):
        assert ReesSpec(seq=SeqSpec(**CONCRETE), blocks=blocks) != ReesSpec(seq=SeqSpec(**CONCRETE), blocks=BLOCKS)

    @pytest.mark.parametrize("cls, spec", [(SeqSpec, SeqSpec(**CONCRETE)), (ReesSpec, ReesSpec(SeqSpec(n=2), BLOCKS))])
    def test_every_field_is_compared(self, cls, spec):
        # one field of a copy replaced, past the validation
        for name in cls.__slots__:
            other = cls.__new__(cls)
            for k in cls.__slots__:
                setattr(other, k, getattr(spec, k))
            assert other == spec
            setattr(other, name, object())
            assert other != spec, name

    def test_other_types_compare_unequal(self):
        assert SeqSpec(n=2) != {"n": 2}
        assert ReesSpec(SeqSpec(n=2), BLOCKS) != SeqSpec(n=2)


@pytest.fixture(scope="module")
def small():
    pres = build_presentation(ReesSpec(seq=SeqSpec(n=3), blocks=(((1, 2, 3), 1),)))
    return pres, defining_generators(pres, RESTRICTED)


class TestConstructors:
    def test_check_records(self, small):
        pres, gens = small
        order = MonomialOrder(pres.universe, "grevlex")
        polys = tuple(g.poly for g in gens)
        report = BuchbergerReport(order=order, generators=polys, basis=(0, 1))
        assert (report.order, report.generators, report.basis, report.pairs, report.members) == (
            order, polys, (0, 1), [], []
        )
        assert BuchbergerReport(order, polys).basis == ()
        cert = buchberger_check(list(polys), order).pairs[0].cert
        pair = PairResult(0, 1, False, cert, criterion="product")
        assert (pair.i, pair.j, pair.spair_zero, pair.cert, pair.criterion) == (0, 1, False, cert, "product")
        assert PairResult(0, 1, True, cert).criterion is None
        member = MemberResult(2, cert)
        assert (member.k, member.cert, member.ok, member.label) == (2, cert, cert.status == REDUCED_TO_ZERO, "member 3")

    def test_oracle_records(self):
        piece = KernelPiece((1,), 2, ["m"], [{0: 1}])
        assert (piece.tvec, piece.weight, piece.monomials, piece.basis) == ((1,), 2, ["m"], [{0: 1}])
        fields = dict(tvec=(1,), weight=2, piece_size=5, kernel_dim=3, span_dim=3, multiples=4, ok=True)
        span = SpanReport(**fields)
        assert [getattr(span, k) for k in fields] == list(fields.values())
        assert span.witness is None
        assert SpanReport(**fields, witness="w").witness == "w"
        assert OracleReport([span]).reports == [span] and OracleReport([span]).ok

    def test_presentation_records(self, small):
        pres, gens = small
        block = BlockData(index=1, rows=(1, 2), power=1, columns=[(0, 0, 0)])
        assert (block.index, block.rows, block.power, block.columns, block.vids) == (1, (1, 2), 1, [(0, 0, 0)], {})
        g = gens[0]
        copy = Generator(g.binomial, g.kind, g.blocks, g.size, g.label, pres.universe)
        assert [getattr(copy, k) for k in ("binomial", "kind", "blocks", "size", "label")] == [
            g.binomial, g.kind, g.blocks, g.size, g.label
        ]
        assert copy.poly == g.poly
        norm = normality_report(pres, gens)
        again = NormalityReport(
            verdict=norm.verdict,
            structural_ok=norm.structural_ok,
            hypothesis_ok=norm.hypothesis_ok,
            notes=norm.notes,
            generators=gens,
            universe=pres.universe,
        )
        assert again.symbol_results == norm.symbol_results

    def test_taylor_complex(self):
        gens = (Mono(((0, 1),)), Mono(((1, 1),)))
        complex_ = TaylorComplex(generators=gens)
        assert complex_.generators == gens and complex_.verify()
        assert taylor_complex(list(gens)).generators == gens

    def test_no_shared_mutable_default(self):
        blocks = [BlockData(index=l, rows=(1,), power=1, columns=[]) for l in (1, 2)]
        blocks[0].vids[(1,)] = 0
        assert blocks[1].vids == {}
        reports = [BuchbergerReport(order=None, generators=(), basis=()) for _ in range(2)]
        reports[0].pairs.append("pair")
        reports[0].members.append("member")
        assert (reports[1].pairs, reports[1].members) == ([], [])
        gens = (Mono(((0, 1),)), Mono(((1, 1),)))
        complexes = [TaylorComplex(generators=gens) for _ in range(2)]
        complexes[0].lcm_of((0, 1))
        assert complexes[1]._lcms == {}
        # a presentation's blocks get their own maps too
        assert len({id(bd.vids) for bd in build_presentation(ReesSpec(SeqSpec(n=2), BLOCKS)).blocks}) == 2

    def test_records_are_slotted(self, small):
        pres, gens = small
        report = oracle_check(pres, gens, t_cap=1, ambient_cap=1)
        records = [report, report.reports[0], gens[0], pres.blocks[0], pres.spec, pres.spec.seq]
        records.append(normality_report(pres, gens))
        records.append(buchberger_check([g.poly for g in gens], MonomialOrder(pres.universe, "lex")))
        cert = records[-1].pairs[0].cert
        records += [records[-1].pairs[0], MemberResult(0, cert), KernelPiece((1,), 1, [], []), TaylorComplex(())]
        assert [type(r).__name__ for r in records if hasattr(r, "__dict__")] == []
