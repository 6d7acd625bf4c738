"""The benchmark's tracer wraps functions by (module, name) from outside
the program (``perfbench/tracing.py``, ``TARGETS``) and counts work from
the values they return (``COUNTERS``).  A rename or deletion in ``src/``
that drops one of those names, or a change to a returned type that a
counter reads, would break ``perfbench/run.py --trace 1``; these tests
catch it in the tier-1 run.  The tracer's Buchberger and oracle counts
on the gb_heavy shapes, and the emission counts on wide_emit's n = 6
shape, are pinned, so a change that does more or less S-pair, oracle or
emission work fails here.
"""
import contextlib
import importlib
import importlib.util
import io
import json
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

from conftest import gb_heavy_specs
from multirees.cli import main
from multirees.grobner import buchberger_check
from multirees.oracle import oracle_check
from multirees.poly import MonomialOrder
from multirees.quasimat import binary_subquasi_enumerate, quasi_determinants
from multirees.rees import FULL, RESTRICTED, SINGLE, ReesSpec, build_presentation, defining_generators, spec_to_dict
from multirees.sseq import SeqSpec

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracing_targets_resolve():
    tracing = load_tracing()
    assert tracing.TARGETS
    for modname, names in tracing.TARGETS.items():
        module = importlib.import_module(modname)
        for name in names:
            assert callable(getattr(module, name, None)), "%s.%s" % (modname, name)


# the paper's five-ideal example
PAPER = ReesSpec(
    seq=SeqSpec(n=4, names=("p1", "p2", "x", "y")),
    blocks=(((1, 2), 1), ((1, 3), 1), ((2, 3), 1), ((1, 4), 1), ((2, 4), 1)),
)


def test_counters_read_their_targets_values():
    tracing = load_tracing()
    pres = build_presentation(PAPER)
    restricted = defining_generators(pres, RESTRICTED)
    full = defining_generators(pres, FULL)
    unions = binary_subquasi_enumerate(pres.matrix, max_size=8)
    binomials = quasi_determinants(pres.matrix, max(unions, key=len))
    gb = buchberger_check([g.poly for g in full], MonomialOrder(pres.universe, "lex"))
    oracle = oracle_check(pres, restricted, t_cap=2, ambient_cap=4)
    returned = {
        "rees.defining_generators": (restricted, full),
        "quasimat.binary_subquasi_enumerate": (unions,),
        "quasimat.quasi_determinants": (binomials,),
        "grobner.buchberger_check": (gb,),
        "oracle.oracle_check": (oracle,),
    }
    assert set(returned) == set(tracing.COUNTERS)
    counts = Counter()
    for name, values in returned.items():
        for value in values:
            tracing.COUNTERS[name](counts, value)
    reduced = [pr for pr in gb.pairs if not pr.spair_zero]
    assert (len(restricted), len(full)) == (8, 22)
    assert binomials and reduced and oracle.reports
    assert counts == Counter(
        {
            "rees.defining_generators.calls": 2,
            "rees.generators_emitted": 8 + 22,
            "quasimat.kept": 3 + 22,  # the multiblock cycles, and every binary minor
            "quasimat.cycle_unions": len(unions),
            "quasimat.quasi_determinants": len(binomials),
            "grobner.pairs": len(gb.pairs),
            "grobner.pairs_reduced": len(reduced),
            "grobner.reduction_steps": sum(pr.cert.steps for pr in reduced),
            "grobner.stuck": len(gb.failures),
            "oracle.pieces": len(oracle.reports),
            "oracle.piece_monomials": sum(r.piece_size for r in oracle.reports),
            "oracle.multiples": sum(r.multiples for r in oracle.reports),
            "oracle.span_rank": sum(r.span_dim for r in oracle.reports),
        }
    )


@pytest.fixture()
def paper_file(tmp_path):
    path = tmp_path / "paper.json"
    path.write_text(json.dumps(spec_to_dict(PAPER)))
    return str(path)


@pytest.mark.parametrize("family", [RESTRICTED, FULL])
def test_tracer_sees_both_verify_families(paper_file, family):
    # verify emits the requested family and F1 through defining_generators;
    # only F enumerates unions, through the rees module global the tracer wraps
    tracing = load_tracing()
    pres = build_presentation(PAPER)
    expected = len(defining_generators(pres, family)) + len(defining_generators(pres, SINGLE))
    unions = len(binary_subquasi_enumerate(pres.matrix, max_size=8)) if family == FULL else 0
    with tracing.installed(tracing.Tracer()) as tracer, contextlib.redirect_stdout(io.StringIO()):
        code = main(["verify", paper_file, "--family", family, "--t-degree-cap", "1"])
    assert code == 0
    assert tracer.counts["rees.defining_generators.calls"] == 2
    assert tracer.counts["rees.generators_emitted"] == expected
    assert tracer.counts["quasimat.cycle_unions"] == unions


def test_single_is_no_cli_family(paper_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", paper_file, "--family", SINGLE])
    assert exc.value.code == 2
    assert "invalid choice: 'single'" in capsys.readouterr().err


def test_gb_heavy_work_counts(tmp_path):
    # the S-pair work behind the four gb_heavy verdicts, as measured on
    # the Poly implementation that the packed check replaced, and the
    # oracle's pieces, monomials, multiples and span rank
    tracing = load_tracing()
    with tracing.installed(tracing.Tracer()) as tracer, contextlib.redirect_stdout(io.StringIO()):
        for k, spec in enumerate(gb_heavy_specs()):
            path = tmp_path / ("h%d.json" % k)
            path.write_text(json.dumps(spec_to_dict(spec)))
            assert main(["verify", str(path), "--format", "json"]) == 0
    expected = {
        "grobner.pairs": 1100,
        "grobner.pairs_reduced": 1100,
        "grobner.reduction_steps": 618,
        "grobner.stuck": 0,
        "oracle.pieces": 194,
        "oracle.piece_monomials": 16379,
        "oracle.multiples": 24699,
        "oracle.span_rank": 11955,
    }
    assert {name: tracer.counts[name] for name in expected} == expected


def test_wide_emit_work_counts(tmp_path):
    # the unions, quasi-determinants and generators behind wide_emit's
    # n = 6 shape (every row pair a block at power one), with the blocks
    # in lexicographic order, under both families
    tracing = load_tracing()
    spec = ReesSpec(seq=SeqSpec(n=6), blocks=tuple((rows, 1) for rows in combinations(range(1, 7), 2)))
    path = tmp_path / "w.json"
    path.write_text(json.dumps(spec_to_dict(spec)))
    names = ("quasimat.cycle_unions", "quasimat.quasi_determinants", "rees.generators_emitted")
    counts = {}
    for family in (FULL, RESTRICTED):
        with tracing.installed(tracing.Tracer()) as tracer, contextlib.redirect_stdout(io.StringIO()):
            assert main(["generators", str(path), "--family", family, "--format", "json"]) == 0
        counts[family] = tuple(tracer.counts[name] for name in names)
    assert counts == {FULL: (1347, 1522, 1522), RESTRICTED: (0, 0, 212)}
    unions = binary_subquasi_enumerate(build_presentation(spec).matrix, max_size=12)
    assert len(unions) == 1347 and sum(1 for u in unions if len(u) == 2) == 175
