"""Command line interface, run in-process through main(argv).

Covers every subcommand, all three output formats, and each exit code:
0 certified, 1 failed check (demonstrated by dropping a generator) or
stdout closed early, 2 bad spec, 3 enumeration cap exceeded.
"""
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import multirees
import multirees.cli
from conftest import emission_specs
from multirees.cli import _block_monomials, _terms_json, _write_json, build_parser, main
from multirees.poly import MonomialOrder, leading, mono_text
from multirees.quasimat import Binomial, _entry_graph_cycles
from multirees.rees import (
    FULL,
    RESTRICTED,
    ReesSpec,
    build_presentation,
    defining_generators,
    spec_from_dict,
    spec_to_dict,
)
from multirees.sseq import SeqSpec, SMonomial, taylor_complex

PAPER_SPEC = {
    "sequence": {"mode": "generic", "n": 4, "names": ["p1", "p2", "x", "y"]},
    "blocks": [
        {"rows": [1, 2], "power": 1},
        {"rows": [1, 3], "power": 1},
        {"rows": [2, 3], "power": 1},
        {"rows": [1, 4], "power": 1},
        {"rows": [2, 4], "power": 1},
    ],
}

SMALL_SPEC = {
    "sequence": {"mode": "generic", "n": 2},
    "blocks": [{"rows": [1, 2], "power": 2}],
}

# block 1 leaves out row 3, block 2 row 1
PARTIAL_SPEC = {
    "sequence": {"mode": "generic", "n": 3},
    "blocks": [{"rows": [1, 2], "power": 1}, {"rows": [2, 3], "power": 2}],
}

# monomial values that are not the sequence symbols themselves, and blocks
# that leave out rows
CONCRETE_TAYLOR_SPEC = {
    "sequence": {
        "mode": "concrete",
        "n": 3,
        "ambient": ["x", "y", "z"],
        "values": [[[1, {"x": 1, "y": 1}]], [[1, {"z": 2}]], [[3, {"x": 1}]]],
    },
    "blocks": [{"rows": [1, 2], "power": 2}, {"rows": [2, 3], "power": 1}, {"rows": [3], "power": 3}],
}

CONCRETE_SPEC = {
    "sequence": {
        "mode": "concrete",
        "n": 3,
        "ambient": ["x", "y"],
        "values": [[[1, {"x": 1}]], [[1, {"y": 1}]], [[2, {}]]],
    },
    "blocks": [{"rows": [1, 2], "power": 1}, {"rows": [2, 3], "power": 1}],
}


@pytest.fixture()
def spec_file(tmp_path):
    def write(payload, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def poly_from_text(universe, text):
    """A polynomial from its rendered text (``Poly.render``)."""
    total = universe.zero()
    for chunk in text.replace(" - ", " + -").split(" + "):
        sign = -1 if chunk.startswith("-") else 1
        term = universe.const(sign)
        for factor in chunk.lstrip("-").split("*"):
            if factor.isdigit():
                term = term * int(factor)
                continue
            name, _, exp = factor.partition("^")
            term = term * universe.poly_var(name, int(exp) if exp else 1)
        total = total + term
    return total


class TestGenerators:
    def test_text_listing(self, spec_file, capsys):
        path = spec_file(PAPER_SPEC)
        assert main(["generators", path]) == 0
        out = capsys.readouterr().out
        assert "8 generators (family=restricted)" in out
        assert "p1*T[1;110] - p2*T[1;111]" in out

    def test_show_matrix_and_phi(self, spec_file, capsys):
        path = spec_file(PAPER_SPEC)
        assert main(["generators", path, "--show-matrix", "--show-phi"]) == 0
        out = capsys.readouterr().out
        assert "T[1;111]" in out
        assert "phi(T[1;111]) = p1*t1" in out

    def test_json_payload(self, spec_file, capsys):
        path = spec_file(PAPER_SPEC)
        code, payload = run_json(capsys, ["generators", path, "--format", "json"])
        assert code == 0
        assert payload["count"] == 8
        assert payload["family"] == "restricted"
        assert len(payload["generators"]) == 8
        kinds = {g["kind"] for g in payload["generators"]}
        assert kinds == {"seq-linear", "multiblock-cycle"}
        # matrix block: rows are the sequence symbols, column 0 the values
        assert payload["matrix"]["rows"] == ["p1", "p2", "x", "y"]
        assert len(payload["matrix"]["columns"]) == 6

    def test_json_full_family(self, spec_file, capsys):
        path = spec_file(PAPER_SPEC)
        code, payload = run_json(
            capsys, ["generators", path, "--format", "json", "--family", "full"]
        )
        assert code == 0
        assert payload["count"] == 22

    @pytest.mark.parametrize("argv", [["--format", "json"], ["--format", "json", "--family", "full"], []])
    def test_listing_builds_no_poly(self, spec_file, capsys, monkeypatch, argv):
        # the listing reads each binomial; a generator's Poly waits for a reader
        def to_poly(self, universe):
            raise AssertionError("a Poly was built")

        monkeypatch.setattr(Binomial, "to_poly", to_poly)
        assert main(["generators", spec_file(PAPER_SPEC)] + argv) == 0

    def test_json_terms_are_the_poly_terms(self):
        for spec in emission_specs():
            pres = build_presentation(spec)
            u = pres.universe
            for family in (RESTRICTED, FULL):
                for g in defining_generators(pres, family):
                    want = [[str(c), {u.name(v): e for v, e in m.exps}] for m, c in g.poly.terms]
                    assert _terms_json(g, u) == want

    def test_cas_script(self, spec_file, capsys):
        path = spec_file(PAPER_SPEC)
        assert main(["generators", path, "--format", "cas"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("-- presentation ring")
        assert "R = QQ[" in out
        assert "I = ideal(" in out
        # CAS names avoid brackets
        assert "T[" not in out.split("\n", 1)[1]

    def test_degenerate_spec_has_zero_ideal(self, spec_file, capsys):
        path = spec_file({"sequence": {"n": 2}, "blocks": [{"rows": [1], "power": 1}]})
        assert main(["generators", path, "--format", "cas"]) == 0
        assert "I = ideal(0_R)" in capsys.readouterr().out


class TestGroebner:
    def test_default_full_family_certifies(self, spec_file, capsys):
        path = spec_file(PAPER_SPEC)
        assert main(["groebner", path]) == 0
        out = capsys.readouterr().out
        assert "CERTIFIED (22 generators" in out

    def test_json_single_order(self, spec_file, capsys):
        path = spec_file(SMALL_SPEC)
        code, payload = run_json(
            capsys, ["groebner", path, "--format", "json", "--order", "grevlex"]
        )
        assert code == 0
        assert payload["ok"] is True
        assert payload["universal"] is False
        assert payload["orders"][0]["stuck"] == []

    def test_restricted_family_is_not_a_basis(self, spec_file, capsys):
        path = spec_file(PAPER_SPEC)
        code = main(["groebner", path, "--family", "restricted"])
        assert code == 1
        out = capsys.readouterr().out
        assert "stuck" in out or "INCONCLUSIVE" in out

    def test_universal_mode(self, spec_file, capsys):
        path = spec_file(PAPER_SPEC)
        code, payload = run_json(
            capsys, ["groebner", path, "--format", "json", "--universal", "--seed", "3"]
        )
        assert code == 0
        assert payload["universal"] is True
        assert payload["seed"] == 3
        assert len(payload["orders"]) == 10
        assert all(o["ok"] for o in payload["orders"])


class TestOracle:
    def test_certifies_restricted_family(self, spec_file, capsys):
        path = spec_file(PAPER_SPEC)
        code = main(["oracle", path, "--t-degree-cap", "2", "--s-degree-cap", "3"])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_dropped_generator_detected_with_witness(self, spec_file, capsys):
        # generator 6 is a three-block cycle: its absence shows up in the
        # T-degree-3 pieces covered by the cap below
        path = spec_file(PAPER_SPEC)
        code, payload = run_json(
            capsys,
            [
                "oracle",
                path,
                "--format",
                "json",
                "--drop-generator",
                "6",
                "--t-degree-cap",
                "3",
                "--s-degree-cap",
                "4",
            ],
        )
        assert code == 1
        assert payload["ok"] is False
        assert payload["dropped"] == [6]
        misses = [p for p in payload["pieces"] if not p["ok"]]
        assert misses and all(p["witness"] for p in misses)

    def test_drop_unknown_index_is_spec_error(self, spec_file, capsys):
        path = spec_file(PAPER_SPEC)
        code = main(["oracle", path, "--drop-generator", "99"])
        assert code == 2
        assert "spec error" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_drop_selection_is_sorted_and_unique(self, spec_file, capsys, fmt):
        path = spec_file(PAPER_SPEC)
        argv = ["oracle", path, "--format", fmt, "--t-degree-cap", "1"]
        drops = ["--drop-generator", "6", "--drop-generator", "6", "--drop-generator", "2"]
        assert main(argv + drops) == 1
        out = capsys.readouterr().out
        if fmt == "json":
            assert json.loads(out)["dropped"] == [2, 6]
        else:
            assert out.startswith("dropped generators: g2, g6\n")
        drops = ["--drop-generator", "99", "--drop-generator", "1", "--drop-generator", "0"]
        assert main(argv + drops) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().endswith("no generator with index 0, 99")

    def test_piece_cap_exceeded(self, spec_file, capsys):
        path = spec_file(PAPER_SPEC)
        code = main(["oracle", path, "--piece-cap", "3"])
        assert code == 3
        assert "cap exceeded" in capsys.readouterr().err

    def test_concrete_spec(self, spec_file, capsys):
        path = spec_file(CONCRETE_SPEC)
        code = main(["oracle", path, "--t-degree-cap", "2", "--s-degree-cap", "4"])
        assert code == 0


class TestVerify:
    def test_paper_example_passes(self, spec_file, capsys):
        path = spec_file(PAPER_SPEC)
        code = main(["verify", path, "--t-degree-cap", "2", "--s-degree-cap", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        # the example's 22 binary quasi-minors are all single cycles
        assert "full binary family runs on its single-cycle members F1 (22 members)" in out
        # the basis is the 10 generators with minimal leads; 29 of its 45
        # pairs have coprime leads and skip reduction
        counts = "CERTIFIED (22 generators, 10 in the basis, 45 pairs, 29 by the product criterion, 0 stuck)"
        assert out.count(counts) == 2

    def test_json_shape(self, spec_file, capsys):
        # the second spec's blocks leave out rows, so the orders range over
        # the presentation ring, whose variables are all matrix entries
        for spec in (SMALL_SPEC, PARTIAL_SPEC):
            path = spec_file(spec)
            code, payload = run_json(
                capsys,
                ["verify", path, "--format", "json", "--t-degree-cap", "2", "--s-degree-cap", "5"],
            )
            assert code == 0
            assert payload["ok"] is True
            assert payload["groebner"]["family"] == "full"
            assert len(payload["groebner"]["reports"]) == 2
            _, emitted = run_json(capsys, ["generators", path, "--format", "json"])
            entries = {e["name"] for e in emitted["matrix"]["entries"]}
            for rep, kind in zip(payload["groebner"]["reports"], ("lex", "grevlex")):
                assert rep["ok"] is True and rep["stuck"] == []
                assert 0 < rep["basis"] and 0 <= rep["product_criterion"] <= rep["pairs"]
                assert rep["order"].startswith(kind + "[") and rep["order"].endswith("]")
                names = rep["order"][len(kind) + 1 : -1].split(">")
                assert len(set(names)) == len(names) and set(names) <= entries
            assert payload["oracle"]["ok"] is True
            assert payload["normality"]["verdict"] == "NORMAL_CM"

    def test_full_family(self, spec_file, capsys):
        path = spec_file(PAPER_SPEC)
        caps = ["--t-degree-cap", "2", "--s-degree-cap", "3"]
        assert main(["verify", path, "--family", "full"] + caps) == 0
        assert "overall: PASS" in capsys.readouterr().out
        code, full = run_json(capsys, ["verify", path, "--family", "full", "--format", "json"] + caps)
        assert code == 0 and full["ok"] is True
        assert full["family"] == "full" and full["generators"] == 22
        _, default = run_json(capsys, ["verify", path, "--format", "json"] + caps)
        assert [r["pairs"] for r in full["groebner"]["reports"]] == [
            r["pairs"] for r in default["groebner"]["reports"]
        ]

    def test_failures_name_piece_and_witness(self, spec_file, capsys):
        # with quasi-minors of size 2 only, the multiblock cycles are
        # missing, so the oracle misses pieces; the JSON names each one as
        # `oracle --format json` does, with a witness in the kernel
        path = spec_file(PAPER_SPEC)
        argv = [path, "--format", "json", "--max-minor-size", "2"]
        code, payload = run_json(capsys, ["verify"] + argv)
        assert code == 1
        assert payload["ok"] is False and payload["oracle"]["ok"] is False
        failures = payload["oracle"]["failures"]
        _, oracle = run_json(capsys, ["oracle"] + argv)
        assert failures and failures == [p for p in oracle["pieces"] if not p["ok"]]
        pres = build_presentation(spec_from_dict(PAPER_SPEC))
        for piece in failures:
            assert set(piece) == {
                "t_degrees", "ambient_degree", "piece_size", "kernel_dim", "span_dim", "ok", "witness"
            }
            assert piece["span_dim"] < piece["kernel_dim"]
            witness = poly_from_text(pres.universe, piece["witness"])
            assert witness.render() == piece["witness"] and len(witness.terms) == 2
            assert pres.phi(witness).is_zero()

    def test_degenerate_spec_verifies(self, spec_file, capsys):
        path = spec_file({"sequence": {"n": 2}, "blocks": [{"rows": [1], "power": 1}]})
        code, payload = run_json(
            capsys, ["verify", path, "--format", "json", "--t-degree-cap", "1"]
        )
        assert code == 0
        assert payload["generators"] == 0


def text_and_json(capsys, argv):
    """(exit code, text lines, JSON payload) of one command, run in both
    formats, which must agree on the exit code."""
    code = main(argv)
    lines = capsys.readouterr().out.splitlines()
    json_code, payload = run_json(capsys, argv + ["--format", "json"])
    assert json_code == code
    return code, lines, payload


def stuck_labels(report):
    """The labels of a JSON report's stuck pairs and members."""
    return [
        "member %d" % s["member"] if "member" in s else "pair (%d, %d)" % (s["i"], s["j"]) for s in report["stuck"]
    ]


def stuck_lines(lines, indent):
    """The labels of the stuck lines at ``indent`` after each head line
    of a Buchberger report, one list per head."""
    out = []
    for line in lines:
        if line.lstrip().startswith("groebner check under "):
            out.append([])
        elif line.startswith(indent + "stuck "):
            out[-1].append(line[len(indent + "stuck ") :].split(":")[0])
    return out


WITNESS = "witness (maps to zero, outside the family span): "


class TestFailingText:
    """On a failing spec the text names each stuck pair or member and each
    witness that the JSON names, in the same order."""

    def test_groebner(self, spec_file, capsys):
        path = spec_file(PAPER_SPEC)
        code, lines, payload = text_and_json(capsys, ["groebner", path, "--family", "restricted"])
        assert code == 1
        (report,) = payload["orders"]
        assert stuck_labels(report) and stuck_lines(lines, "  ") == [stuck_labels(report)]
        # each text line shows the leading term of the remainder the JSON lists
        u = build_presentation(spec_from_dict(PAPER_SPEC)).universe
        order = MonomialOrder(u, "lex")
        assert report["order"] == order.describe()
        for line, stuck in zip(lines[1:], report["stuck"]):
            lc, lm = leading(poly_from_text(u, stuck["remainder"]), order)
            assert line.endswith(": remainder leading term (%s) * %s" % (lc.render(), mono_text(lm, u)))

    def test_groebner_universal(self, spec_file, capsys):
        path = spec_file(PAPER_SPEC)
        code, lines, payload = text_and_json(capsys, ["groebner", path, "--family", "restricted", "--universal"])
        assert code == 1
        assert lines[1] == "universal groebner check over 10 orders: INCONCLUSIVE"
        heads = [line for line in lines if line.startswith("  groebner check under ")]
        assert [h.split(": ")[0][len("  groebner check under ") :] for h in heads] == [
            r["order"] for r in payload["orders"]
        ]
        assert stuck_lines(lines, "    ") == [stuck_labels(r) for r in payload["orders"]]
        assert sum(map(len, stuck_lines(lines, "    "))) > 0

    def test_oracle(self, spec_file, capsys):
        path = spec_file(PAPER_SPEC)
        code, lines, payload = text_and_json(capsys, ["oracle", path, "--max-minor-size", "2"])
        assert code == 1
        missed = [p for p in payload["pieces"] if not p["ok"]]
        assert lines[0] == "kernel oracle over %d graded pieces: %d MISSED" % (len(payload["pieces"]), len(missed))
        assert [line[len(WITNESS) :] for line in lines if line.startswith(WITNESS)] == [p["witness"] for p in missed]

    def test_verify(self, spec_file, capsys):
        path = spec_file(PAPER_SPEC)
        code, lines, payload = text_and_json(capsys, ["verify", path, "--max-minor-size", "2"])
        assert code == 1 and lines[-1] == "overall: FAIL"
        failures = payload["oracle"]["failures"]
        assert len(failures) == 6
        assert "kernel oracle over %d graded pieces: 6 MISSED" % payload["oracle"]["pieces"] in lines
        assert sum(line.endswith("[MISSED]") for line in lines) == 6
        assert [line[len(WITNESS) :] for line in lines if line.startswith(WITNESS)] == [p["witness"] for p in failures]
        reports = payload["groebner"]["reports"]
        assert stuck_lines(lines, "  ") == [stuck_labels(r) for r in reports]
        assert all(stuck_labels(r) for r in reports)


class TestVerifyRendersWhatItPrints:
    def test_json_computes_no_symbol_level_lead(self, spec_file, capsys, monkeypatch):
        # the symbol-level leads of the squarefreeness report show only in
        # the text, so the JSON never computes them
        calls = []

        def counted(p, order):
            calls.append(order.kind)
            return leading(p, order)

        monkeypatch.setattr("multirees.rees.leading", counted)
        path = spec_file(PAPER_SPEC)
        caps = ["--t-degree-cap", "2", "--s-degree-cap", "3"]
        code, payload = run_json(capsys, ["verify", path, "--format", "json"] + caps)
        assert code == 0 and payload["normality"]["verdict"] == "NORMAL_CM"
        assert calls == []
        assert main(["verify", path] + caps) == 0
        assert "symbol-level squarefree leading terms under lex[" in capsys.readouterr().out
        assert set(calls) == {"lex", "grevlex"}

    @pytest.mark.parametrize("argv, missed", [(["--t-degree-cap", "2"], 0), (["--max-minor-size", "2"], 6)])
    def test_text_renders_missed_pieces_only(self, spec_file, capsys, monkeypatch, argv, missed):
        rendered = []
        piece = multirees.cli._piece

        def counted(r, fmt):
            rendered.append(r.ok)
            return piece(r, fmt)

        monkeypatch.setattr("multirees.cli._piece", counted)
        main(["verify", spec_file(PAPER_SPEC)] + argv)
        assert "overall: %s" % ("FAIL" if missed else "PASS") in capsys.readouterr().out
        assert rendered == [False] * missed


@pytest.mark.parametrize("family", [RESTRICTED, FULL])
@pytest.mark.parametrize("command", ["generators", "groebner", "oracle", "verify"])
def test_one_cycle_search(spec_file, monkeypatch, command, family):
    # F, F1 and the restricted family all read the matrix's one search;
    # the restricted family is no Groebner basis of the paper example
    caps = []

    def counted(qm, max_vertices):
        caps.append(max_vertices)
        return _entry_graph_cycles(qm, max_vertices)

    monkeypatch.setattr("multirees.quasimat._entry_graph_cycles", counted)
    # the patch sees every search only while no other module binds the function
    others = [m for m in sys.modules if m.startswith("multirees") and m != "multirees.quasimat"]
    assert [m for m in others if hasattr(sys.modules[m], "_entry_graph_cycles")] == []
    argv = [command, spec_file(PAPER_SPEC), "--family", family, "--format", "json"]
    if command in ("oracle", "verify"):
        argv += ["--t-degree-cap", "1"]
    assert main(argv) == (1 if (command, family) == ("groebner", RESTRICTED) else 0)
    assert caps == [8]


def concrete_value_exponents(spec, exps):
    """Exponents over the ambient variables of the product of the concrete
    values raised to ``exps`` (one exponent per sequence element)."""
    ambient = spec["sequence"]["ambient"]
    out = [0] * len(ambient)
    for e, value in zip(exps, spec["sequence"]["values"]):
        ((_, mono),) = value
        for name, k in mono.items():
            out[ambient.index(name)] += e * k
    return tuple(out)


class TestTaylor:
    def test_text_report(self, spec_file, capsys):
        path = spec_file(PAPER_SPEC)
        assert main(["taylor", path]) == 0
        out = capsys.readouterr().out
        # five blocks, each with two generators: ranks 1 2 1
        assert out.count("ranks 1 2 1") == 5
        assert "d.d=0 ok" in out

    def test_json_report(self, spec_file, capsys):
        path = spec_file(SMALL_SPEC)
        code, payload = run_json(capsys, ["taylor", path, "--format", "json"])
        assert code == 0
        assert payload["ok"] is True
        (row,) = payload["blocks"]
        assert row["generators"] == 3
        assert row["ranks"] == [1, 3, 3, 1]
        assert row["pairwise_syzygies"] == 3

    def test_concrete_values(self, spec_file, capsys):
        # each block's monomials are the values of its variables over the
        # ambient variables: the degree-a power products of its own rows
        path = spec_file(CONCRETE_TAYLOR_SPEC)
        pres = build_presentation(spec_from_dict(CONCRETE_TAYLOR_SPEC))
        got = _block_monomials(pres)
        code, payload = run_json(capsys, ["taylor", path, "--format", "json"])
        assert code == 0
        n = CONCRETE_TAYLOR_SPEC["sequence"]["n"]
        blocks = CONCRETE_TAYLOR_SPEC["blocks"]
        assert len(got) == len(payload["blocks"]) == len(blocks)
        for block, monos, row in zip(blocks, got, payload["blocks"]):
            power, rows = block["power"], block["rows"]
            expected = [
                concrete_value_exponents(CONCRETE_TAYLOR_SPEC, [combo.count(k) for k in range(1, n + 1)])
                for combo in combinations_with_replacement(rows, power)
            ]
            assert sorted(m.exps for m in monos) == sorted(expected)
            tc = taylor_complex([SMonomial(e) for e in expected])
            assert row["generators"] == tc.m == len(expected)
            assert row["ranks"] == [tc.rank(p) for p in range(tc.m + 1)]

    def test_non_monomial_values_are_spec_error(self, spec_file, capsys):
        spec = json.loads(json.dumps(CONCRETE_TAYLOR_SPEC))
        spec["sequence"]["values"][1] = [[1, {"x": 1}], [1, {"z": 1}]]
        assert main(["taylor", spec_file(spec), "--format", "json"]) == 2
        assert capsys.readouterr().err == (
            "spec error: the complex report needs monomial sequence values in concrete mode\n"
        )


class TestErrors:
    def test_missing_file(self, capsys):
        code = main(["generators", "/nonexistent/spec.json"])
        assert code == 2
        assert "spec error" in capsys.readouterr().err

    def test_unknown_key_rejected(self, spec_file, capsys):
        path = spec_file({"sequence": {"n": 2}, "blocks": [], "extra": 1})
        code = main(["generators", path])
        assert code == 2
        assert "unknown top-level keys" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["generators", str(path)])
        assert code == 2

    def test_bad_block_row(self, spec_file, capsys):
        path = spec_file({"sequence": {"n": 2}, "blocks": [{"rows": [1, 5], "power": 1}]})
        code = main(["generators", path])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["generators", "--max-minor-size", "1"],
            ["verify", "--max-minor-size", "0"],
            ["verify", "--t-degree-cap", "0"],
            ["verify", "--t-degree-cap", "-1"],
            ["oracle", "--s-degree-cap", "-1"],
            ["oracle", "--piece-cap", "0"],
            ["verify", "--piece-cap", "two"],
        ],
    )
    def test_numeric_option_out_of_range(self, spec_file, capsys, argv):
        path = spec_file(PAPER_SPEC)
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + [path] + argv[1:])
        assert exc.value.code == 2
        assert "error: argument" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["groebner", "oracle", "verify", "taylor"])
    def test_cas_format_only_for_generators(self, spec_file, capsys, command):
        path = spec_file(PAPER_SPEC)
        with pytest.raises(SystemExit) as exc:
            main([command, path, "--format", "cas"])
        assert exc.value.code == 2
        assert "error: argument --format: invalid choice: 'cas'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["oracle", "verify"])
    def test_caps_leaving_no_piece(self, spec_file, capsys, command):
        # a zero ambient cap is below the weight of every graded piece
        path = spec_file(PAPER_SPEC)
        assert main([command, path, "--s-degree-cap", "0"]) == 2
        assert "no graded piece" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sequence, block",
        [
            ({"n": 2}, {"rows": [1, 2], "power": "x"}),
            ({"n": "two"}, {"rows": [1, 2]}),
            ({"n": 2}, {"rows": 5}),
            ({"n": 2}, {"rows": ["a"]}),
            ({"n": 2, "names": 5}, {"rows": [1, 2]}),
            ({"n": 2}, {"rows": [1, 2], "power": 1.5}),
            ({"n": 2.7}, {"rows": [1, 2]}),
            ({"n": 2}, {"rows": [1, 2], "power": True}),
        ],
    )
    def test_malformed_field_is_spec_error(self, spec_file, capsys, sequence, block):
        path = spec_file({"sequence": sequence, "blocks": [block]})
        code = main(["generators", path])
        assert code == 2
        assert "spec error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generators", "groebner", "oracle", "verify", "taylor"])
    def test_negative_exponent_is_spec_error(self, spec_file, capsys, command):
        path = spec_file(NEGATIVE_EXPONENT_SPEC)
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "spec error: s1 has a negative exponent; values must be polynomials\n"

    def test_stdin_spec(self, spec_file, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(SMALL_SPEC)))
        code = main(["generators", "-"])
        assert code == 0
        assert "generators (family=restricted)" in capsys.readouterr().out


NEGATIVE_EXPONENT_SPEC = {
    "sequence": {"mode": "concrete", "n": 2, "ambient": ["x", "y"], "values": [[[1, {"x": -1}]], [[1, {"y": 1}]]]},
    "blocks": [{"rows": [1, 2], "power": 1}],
}


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_reuse_carries_no_state(self, spec_file, capsys):
        # a repeatable option must not leak into the next request
        path = spec_file(SMALL_SPEC)
        build_parser.cache_clear()
        alone = (main(["oracle", path]), capsys.readouterr())
        assert alone[0] == 0
        assert main(["oracle", path, "--drop-generator", "1"]) == 1
        assert "dropped generators: g1" in capsys.readouterr().out
        assert (main(["oracle", path]), capsys.readouterr()) == alone


# names that clash with each other and with the t, T and ambient names
NAME_POOL = ("s1", "s2", "x", "y", "t1", "T")


@st.composite
def contract_specs(draw):
    """Generic and concrete specs with n <= 3.  One in four may break
    the spec rules: negative exponents, zero coefficients, clashing
    names, rows out of range, power 0."""
    n = draw(st.integers(1, 3))
    wild = draw(st.integers(0, 3)) == 0
    seq = {"mode": draw(st.sampled_from(("generic", "concrete"))), "n": n}
    if wild and draw(st.booleans()):
        seq["names"] = draw(st.lists(st.sampled_from(NAME_POOL), min_size=n, max_size=n))
    if seq["mode"] == "concrete":
        if wild:
            ambient = draw(st.lists(st.sampled_from(NAME_POOL[2:]), max_size=2, unique=True))
            monomial = st.dictionaries(st.sampled_from(ambient or ["x"]), st.integers(-2, 3), max_size=2)
            term = st.tuples(st.sampled_from((-2, -1, 0, 1, 3)), monomial).map(list)
        else:
            ambient = draw(st.lists(st.sampled_from(("x", "y")), min_size=1, max_size=2, unique=True))
            monomial = st.dictionaries(st.sampled_from(ambient), st.integers(1, 3), min_size=1)
            term = st.tuples(st.sampled_from((-2, -1, 1, 3)), monomial).map(list)
        seq["ambient"] = ambient
        seq["values"] = draw(st.lists(st.lists(term, min_size=1, max_size=1 + wild), min_size=n, max_size=n))
    rows = st.integers(0, n + 1) if wild else st.integers(1, n)
    block = st.fixed_dictionaries(
        {"rows": st.lists(rows, min_size=1, max_size=n, unique=True), "power": st.integers(0 if wild else 1, 2)}
    )
    return {"sequence": seq, "blocks": draw(st.lists(block, min_size=1, max_size=2))}


CONTRACT_OPTIONS = {
    "generators": (
        [],
        ["--family", "full", "--max-minor-size", "2"],
        ["--format", "json"],
        ["--format", "cas", "--family", "full"],
        ["--show-matrix", "--show-phi"],
    ),
    "groebner": ([], ["--universal"], ["--family", "restricted", "--format", "json"]),
    "oracle": (
        ["--t-degree-cap", "1"],
        ["--t-degree-cap", "2", "--s-degree-cap", "2"],
        ["--t-degree-cap", "2", "--piece-cap", "3"],
        ["--t-degree-cap", "1", "--s-degree-cap", "0"],
        ["--t-degree-cap", "1", "--drop-generator", "1", "--format", "json"],
    ),
    "verify": (
        ["--t-degree-cap", "1"],
        ["--t-degree-cap", "2", "--s-degree-cap", "2", "--format", "json"],
        ["--t-degree-cap", "2", "--piece-cap", "3"],
        ["--t-degree-cap", "1", "--family", "full", "--max-minor-size", "2"],
    ),
    "taylor": ([], ["--format", "json"]),
}


@settings(max_examples=40, deadline=None)
@given(
    spec=contract_specs(),
    argv=st.sampled_from(sorted(CONTRACT_OPTIONS)).flatmap(
        lambda command: st.tuples(st.just(command), st.sampled_from(CONTRACT_OPTIONS[command]))
    ),
)
@example(spec=NEGATIVE_EXPONENT_SPEC, argv=("verify", ["--t-degree-cap", "1"]))
@example(spec=NEGATIVE_EXPONENT_SPEC, argv=("taylor", []))
def test_every_spec_maps_to_an_exit_code(tmp_path_factory, spec, argv):
    # 0 certified, 1 failed, 2 bad spec, 3 cap: never a traceback
    path = tmp_path_factory.mktemp("contract") / "spec.json"
    path.write_text(json.dumps(spec))
    command, opts = argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path)] + opts)
    assert code in (0, 1, 2, 3), (code, err.getvalue())


@pytest.mark.parametrize("command", sorted(CONTRACT_OPTIONS))
@pytest.mark.parametrize(
    "raw",
    [b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000],
    ids=["not-utf8", "deeply-nested"],
)
def test_unreadable_spec_maps_to_exit_two(tmp_path, capsys, command, raw):
    path = tmp_path / "spec.json"
    path.write_bytes(raw)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("spec error: ")


def test_python_dash_m(spec_file):
    # ``python -m multirees`` from a checkout, with src/ on the path
    src = str(Path(multirees.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "multirees", "verify", spec_file(SMALL_SPEC), "--t-degree-cap", "1"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "overall: PASS" in proc.stdout


def test_stdout_closed_mid_stream_exits_one_without_traceback(spec_file):
    # the reader takes the first 4 KB of a 157 KB document and closes the
    # pipe while the child is still writing
    src = str(Path(multirees.__file__).resolve().parent.parent)
    path = spec_file(spec_to_dict(emission_specs()[-1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "multirees", "generators", path, "--family", "full", "--format", "json"],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert len(proc.stdout.read(4096)) == 4096
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_closed_stdout_exits_one_without_traceback(spec_file):
    # the read end of the pipe is closed before the child writes, as when
    # ``| head`` has already exited
    src = str(Path(multirees.__file__).resolve().parent.parent)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "multirees", "generators", spec_file(PAPER_SPEC), "--family", "full", "--format", "json"],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr


class TestJsonWriter:
    """``_write_json`` writes the bytes of ``json.dumps(value, indent=2)``,
    and every ``--format json`` command goes through it."""

    @staticmethod
    def written(value):
        buf = io.StringIO()
        _write_json(value, buf.write)
        return buf.getvalue()

    @classmethod
    def lazy(cls, value):
        """``value`` with every list swapped for a generator expression."""
        if type(value) is list:
            return (cls.lazy(item) for item in value)
        if type(value) is tuple:
            return tuple(cls.lazy(item) for item in value)
        if type(value) is dict:
            return {key: cls.lazy(item) for key, item in value.items()}
        return value

    leaves = st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64) | st.text()
    values = st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=30,
    )

    @settings(max_examples=200, deadline=None)
    @given(value=values)
    @example(value={"quote\"": "back\\slash", "ctrl": "\x00\x01\x1f\b\f\n\r\t", "del": "\x7f"})
    @example(value=["\u2028\u2029", "caf\u00e9 \u03b1\u2260\u03b2", "\U0001d53d astral", "\ud800 lone"])
    @example(value={"": [], "a": {}, "b": [[], {}, [[]]], "c": {"d": {}}})
    @example(value=(1, "a", (None, True, False), [(), -(2**70)]))
    @example(value=[-1, 0, 2**64, -(2**64) - 1])
    @example(value=[])
    @example(value=[[[]], {"a": [[], [1]]}, ([],)])
    def test_bytes_equal_json_dumps(self, value):
        # a generator is written as the list it yields
        expected = json.dumps(value, indent=2)
        assert self.written(value) == expected
        assert self.written(self.lazy(value)) == expected

    # json.dumps renders 1.5, {1: 2}, {True: 1} and subclasses of int and
    # str (as "1.5", {"1": 2}, {"true": 1}); the writer refuses them on
    # purpose, so that a new type in a payload fails here instead of
    # rendering differently.  Fraction and set fail in json.dumps too.
    class Label(str):
        pass

    class Count(int):
        pass

    @pytest.mark.parametrize(
        "value",
        [
            1.5, Fraction(1, 2), {1}, {1: 2}, {True: 1}, Label("a"), Count(1), {Label("a"): 1}, {"k": [1, 1.5]},
            iter([1]), map(int, "1"), (x for x in [1, 1.5]),
        ],
        ids=[
            "float", "fraction", "set", "int-key", "bool-key",
            "str-subclass", "int-subclass", "str-subclass-key", "nested-float",
            "list-iterator", "map", "float-in-generator",
        ],
    )
    def test_unknown_types_raise(self, value):
        with pytest.raises(TypeError):
            _write_json(value, io.StringIO().write)

    @pytest.mark.parametrize("family", [RESTRICTED, FULL])
    def test_generators_on_emission_specs(self, spec_file, capsys, family):
        for i, spec in enumerate(emission_specs()):
            path = spec_file(spec_to_dict(spec), "s%d.json" % i)
            self.assert_reference_bytes(capsys, ["generators", path, "--family", family])

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify"],
            ["oracle"],
            ["oracle", "--drop-generator", "1"],
            ["groebner"],
            ["groebner", "--universal"],
            ["taylor"],
        ],
        ids=" ".join,
    )
    def test_commands_on_a_sample(self, spec_file, capsys, argv):
        specs = random.Random(14).sample(emission_specs(), 30)
        for i, spec in enumerate(specs):
            path = spec_file(spec_to_dict(spec), "s%d.json" % i)
            self.assert_reference_bytes(capsys, argv[:1] + [path] + argv[1:])

    @staticmethod
    def assert_reference_bytes(capsys, argv):
        code = main(argv + ["--format", "json"])
        captured = capsys.readouterr()
        if code == 2:
            # a spec with no generator to drop
            assert captured.out == "" and "no generator with index 1" in captured.err
        else:
            assert code in (0, 1) and captured.err == ""
            assert captured.out == json.dumps(json.loads(captured.out), indent=2) + "\n", argv

    def test_output_is_streamed(self, spec_file, monkeypatch):
        # a document joined before it is written would hold all of it in
        # memory at once; the writer hands stdout one small chunk at a time
        chunks = []
        path = spec_file(spec_to_dict(emission_specs()[-1]))
        monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=chunks.append, flush=lambda: None))
        assert main(["generators", path, "--family", "full", "--format", "json"]) == 0
        out = "".join(chunks)
        assert len(out) > 100_000 and len(chunks) > 1000
        assert max(map(len, chunks)) <= len(out) // 100
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_guard_leaves_stdout_empty(self, spec_file, capsys):
        # the generator records render as they are written, but emission
        # and its guard finish before the first byte
        path = spec_file(spec_to_dict(emission_specs()[-1]))
        assert main(["generators", path, "--family", "full", "--format", "json", "--max-minor-size", "7"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "cap exceeded" in captured.err

    def test_emission_memory(self, spec_file, monkeypatch):
        # wide_emit's n = 6 shape, fifteen 2-row blocks: cells kept as
        # tuples, shared exponent pairs and records rendered as they are
        # written hold the traced peak, the output buffer included, to
        # 5.4 MB; building every record before the first write, with cells
        # as frozensets, took it to 12.0 MB
        blocks = tuple((rows, 1) for rows in combinations(range(1, 7), 2))
        path = spec_file(spec_to_dict(ReesSpec(seq=SeqSpec(n=6), blocks=blocks)))
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        tracemalloc.start()
        try:
            assert main(["generators", path, "--family", "full", "--format", "json"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8_000_000
