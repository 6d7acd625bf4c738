"""Command line interface, run in-process through main(argv).

Covers every subcommand, all three output formats, and each exit code:
0 certified, 1 failed check (demonstrated by dropping a generator) or
stdout closed early, 2 bad spec, 3 enumeration cap exceeded.
"""
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations, combinations_with_replacement
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import multirees
import multirees.cli
from conftest import desk_scale_specs, emission_specs, gb_heavy_specs
from multirees.cli import _CAS, _block_monomials, _records, build_parser, main
from multirees.oracle import MAX_DEGREES, ImageData
from multirees.poly import Mono, MonomialOrder, leading, mono_text
from multirees.quasimat import MAX_CYCLES, Binomial, _entry_graph_cycles, binary_subquasi_enumerate
from multirees.rees import (
    FULL,
    RESTRICTED,
    NormalityReport,
    ReesSpec,
    build_presentation,
    defining_generators,
    spec_from_dict,
    spec_to_dict,
)
from multirees.sseq import MAX_VARIABLES, SeqSpec, syzygy_generators, taylor_complex

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

    @staticmethod
    def records(spec, family):
        """(generator, its rendered record, the text ``json.dumps`` gives
        for its record at the depth of the ``generators`` array), for
        each generator of ``family``."""
        pres = build_presentation(spec)
        u = pres.universe
        gens = defining_generators(pres, family)
        for i, (g, text) in enumerate(zip(gens, _records(gens, u), strict=True), 1):
            b = g.binomial
            record = {
                "index": i,
                "kind": g.kind,
                "blocks": list(g.blocks),
                "columns_used": g.size,
                "label": g.label,
                "text": "%s - %s" % (mono_text(b.plus, u), mono_text(b.minus, u)),
                "terms": [[c, {u.name(v): e for v, e in m.exps}] for c, m in (("1", b.plus), ("-1", b.minus))],
            }
            yield g, text, json.dumps(record, indent=2).replace("\n", "\n    ")

    @pytest.mark.parametrize("family", [RESTRICTED, FULL])
    def test_records_are_json_dumps(self, family):
        for spec in emission_specs():
            for _, text, want in self.records(spec, family):
                assert text == want

    def test_json_terms_are_the_poly_terms(self):
        # Binomial keeps the smaller exponents on plus, the term Poly sorts first
        for spec in emission_specs():
            u = build_presentation(spec).universe
            for family in (RESTRICTED, FULL):
                for g, text, _ in self.records(spec, family):
                    want = [[str(c), {u.name(v): e for v, e in m.exps}] for m, c in g.poly.terms]
                    assert json.loads(text)["terms"] == want

    # names that JSON escapes, or that only ASCII escapes spell
    ODD_NAMES = ['q"uote', "back\\slash", "ctrl\x00\x1f\b\f\n\r\t\x7f", "sep\u2028\u2029", "caf\u00e9 \u03b1", "\U0001d53d", "\ud800"]

    @pytest.mark.parametrize(
        "spec",
        [
            {"sequence": {"n": 4, "names": ODD_NAMES[:4]}, "blocks": [{"rows": [1, 2], "power": 1}, {"rows": [2, 3, 4], "power": 2}]},
            {
                "sequence": {
                    "mode": "concrete",
                    "n": 3,
                    "names": ODD_NAMES[4:],
                    "ambient": ODD_NAMES[:3],
                    "values": [[[1, {ODD_NAMES[0]: 1}]], [[1, {ODD_NAMES[1]: 1, ODD_NAMES[2]: 2}]], [[5, {}]]],
                },
                "blocks": [{"rows": [1, 2], "power": 1}, {"rows": [2, 3], "power": 1}, {"rows": [1, 3], "power": 1}],
            },
        ],
        ids=["generic", "concrete"],
    )
    @pytest.mark.parametrize("family", [RESTRICTED, FULL])
    def test_records_escape_names(self, spec_file, capsys, spec, family):
        texts = []
        for _, text, want in self.records(spec_from_dict(spec), family):
            assert text == want
            texts.append(json.loads(text)["text"])
        assert all(any(name in t for t in texts) for name in spec["sequence"]["names"])
        assert main(["generators", spec_file(spec), "--format", "json", "--family", family]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_cas_script(self, spec_file, capsys):
        path = spec_file(PAPER_SPEC)
        assert main(["generators", path, "--format", "cas"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("-- presentation ring")
        assert "R = QQ[" in out
        assert "I = ideal(" in out
        # CAS names avoid brackets
        assert "T[" not in out.split("\n", 1)[1]

    @pytest.mark.parametrize("family", [RESTRICTED, FULL])
    def test_cas_ideal_is_the_family(self, spec_file, capsys, family):
        # each entry, read back by sympy over the CAS names, is its
        # generator's polynomial, the negative term first
        pres = build_presentation(spec_from_dict(PAPER_SPEC))
        gens = defining_generators(pres, family)
        assert main(["generators", spec_file(PAPER_SPEC), "--format", "cas", "--family", family]) == 0
        body = capsys.readouterr().out.split("I = ideal(\n  ", 1)[1].rsplit("\n)", 1)[0]
        entries = body.split(",\n  ")
        names = [name.translate(_CAS) for name in pres.universe.names]
        syms = {name: sympy.Symbol(name) for name in names}
        by_vid = [syms[name] for name in names]
        assert len(entries) == len(gens)
        for text, g in zip(entries, gens):
            expected = sum(int(c) * sympy.Mul(*[by_vid[v] ** e for v, e in m.exps]) for m, c in g.poly.terms)
            assert text.startswith("-") and " + " in text
            assert sympy.parse_expr(text.replace("^", "**"), local_dict=syms) == expected

    @pytest.mark.parametrize(
        "names, bad, digests",
        [
            (
                ["T_1_1", "T_1_0"],
                'variable "T[1;1]" has the CAS name "T_1_1"',
                (
                    "e7c20f87942c73ffaa208374d7ec5061063f3fa3f6875f863d28e6638266171e",
                    "0d7b20546fbc5146e475f38f8f10d51660e22a1fa136ec9e01ef89dad5e5ec30",
                ),
            ),
            (
                ["a b", "c-d"],
                'variable "a b" has the CAS name "a b"',
                (
                    "49064a6e6bbc5f434634fc4e1e6b09c6e6f09a955f51f99ee2914edef5a7edcd",
                    "0e1b84cbf293fb1895e6bbc7dc25a214dc79aecb0f54cbdbfd6f6dcf57bc2fd2",
                ),
            ),
        ],
        ids=["clash", "not-an-identifier"],
    )
    def test_cas_names_must_be_distinct_identifiers(self, spec_file, capsys, names, bad, digests):
        # T[1;1] and the sequence name T_1_1 would print one CAS symbol, and
        # "a b" none; cas exits 2 naming the first bad variable of the
        # ring, while JSON and text print the names as they are (sha256 of
        # their stdout, pinned before cas checked its names)
        path = spec_file({"sequence": {"n": 2, "names": names}, "blocks": [{"rows": [1, 2]}]})
        assert main(["generators", path, "--format", "cas"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "spec error: %s, which is not a distinct ASCII identifier\n" % bad
        for fmt, digest in zip(("json", "text"), digests):
            assert main(["generators", path, "--format", fmt]) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

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

    @pytest.mark.parametrize("spec, drop", [(PAPER_SPEC, "6"), (CONCRETE_SPEC, "1")])
    def test_builds_no_poly(self, spec_file, capsys, monkeypatch, spec, drop):
        # the oracle reads each generator's binomial; only a witness is a Poly
        path = spec_file(spec)
        argv = ["oracle", path, "--drop-generator", drop, "--format", "json"]
        want = main(argv), capsys.readouterr()

        def to_poly(self, universe):
            raise AssertionError("a Poly was built")

        monkeypatch.setattr(Binomial, "to_poly", to_poly)
        code, payload = main(argv), capsys.readouterr()
        assert (code, payload) == want
        assert code == 1 and not json.loads(payload.out)["ok"]


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
        symbol_results = NormalityReport.symbol_results

        def counted(rep):
            calls.append(rep)
            return symbol_results.fget(rep)

        monkeypatch.setattr(NormalityReport, "symbol_results", property(counted))
        path = spec_file(PAPER_SPEC)
        caps = ["--t-degree-cap", "2", "--s-degree-cap", "3"]
        code, payload = run_json(capsys, ["verify", path, "--format", "json"] + caps)
        assert code == 0 and payload["normality"]["verdict"] == "NORMAL_CM"
        assert calls == []
        assert main(["verify", path] + caps) == 0
        assert "symbol-level squarefree leading terms under lex[" in capsys.readouterr().out
        assert len(calls) == 1

    @pytest.mark.parametrize("index", range(3), ids=["paper", "gb_heavy-0", "concrete"])
    def test_text_builds_no_polynomial_for_the_leads(self, spec_file, capsys, monkeypatch, index):
        # the symbol-level leads are read off each generator's binomial:
        # a passing text verify builds no Poly of a generator and groups
        # no polynomial by its leading T-part
        spec = [PAPER_SPEC, spec_to_dict(gb_heavy_specs()[0]), CONCRETE_SPEC][index]
        calls = []

        def spy(name, fn):
            def counted(*args):
                calls.append(name)
                return fn(*args)

            return counted

        monkeypatch.setattr(Binomial, "to_poly", spy("to_poly", Binomial.to_poly))
        for module in (multirees.poly, multirees.rees, multirees.grobner, multirees.cli):
            if hasattr(module, "leading"):
                monkeypatch.setattr(module, "leading", spy("leading", module.leading))
        assert main(["verify", spec_file(spec), "--t-degree-cap", "2"]) == 0
        assert "symbol-level squarefree leading terms under grevlex[" in capsys.readouterr().out
        assert calls == []

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
                Mono(
                    zip(
                        pres.universe.x_ids,
                        concrete_value_exponents(CONCRETE_TAYLOR_SPEC, [combo.count(k) for k in range(1, n + 1)]),
                    )
                )
                for combo in combinations_with_replacement(rows, power)
            ]
            assert sorted(m.exps for m in monos) == sorted(m.exps for m in expected)
            tc = taylor_complex(expected)
            assert row["generators"] == tc.m == len(expected)
            assert row["ranks"] == [tc.rank(p) for p in range(tc.m + 1)]

    def test_pairwise_syzygies_counted(self, spec_file, capsys):
        # the report counts one syzygy per pair of a block's monomials
        # without building them: as many as ``syzygy_generators`` builds
        for spec in desk_scale_specs():
            code, payload = run_json(capsys, ["taylor", spec_file(spec_to_dict(spec)), "--format", "json"])
            assert code == 0
            got = [row["pairwise_syzygies"] for row in payload["blocks"]]
            assert got == [len(syzygy_generators(monos)) for monos in _block_monomials(build_presentation(spec))]

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
        "spec, caps",
        [
            # a constant value weighs 0, so no T-degree total is ruled out
            (
                {
                    "sequence": {"mode": "concrete", "n": 2, "ambient": ["x"], "values": [[[1, {"x": 1}]], [[3, {}]]]},
                    "blocks": [{"rows": [2], "power": 1}],
                },
                {"--t-degree-cap": 100_000},
            ),
            ({"sequence": {"n": 2}, "blocks": [{"rows": [1, 2], "power": 1}]}, {"--s-degree-cap": 10**9}),
        ],
        ids=["weight-0-block", "huge-ambient-cap"],
    )
    @pytest.mark.parametrize("command", ["oracle", "verify"])
    def test_degree_list_over_the_guard(self, spec_file, capsys, spec, caps, command):
        # one block: a tuple per T-degree total up to its cap (default 3),
        # with a piece per weight from its own up to the ambient cap
        # (default 3 * power + 2); the list is counted, never built
        (weight,) = ImageData(build_presentation(spec_from_dict(spec))).min_block_weight
        t_cap, ambient_cap = caps.get("--t-degree-cap", 3), caps.get("--s-degree-cap", 5)
        size = sum(1 + max(0, ambient_cap + 1 - total * weight) for total in range(1, t_cap + 1))
        assert size > MAX_DEGREES
        argv = [command, spec_file(spec)] + [str(x) for item in caps.items() for x in item]
        start = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == "" and "hard guard of %d" % MAX_DEGREES in captured.err

    @pytest.mark.parametrize(
        "n, rows, power",
        [(10**9, [1, 2], 1), (10**6, [1, 2], 1), (3, [1, 2, 3], 400), (2, [1, 2], 200_000)],
        ids=["n-1e9", "n-1e6", "power-400-on-3-rows", "power-200000"],
    )
    @pytest.mark.parametrize("command", ["generators", "groebner", "oracle", "verify", "taylor"])
    def test_spec_over_the_variable_guard(self, spec_file, capsys, n, rows, power, command):
        # n sequence symbols and comb(|K| + a - 1, a) T-variables, counted
        # from the closed form; the spec is refused before a name is built
        size = n + comb(len(rows) + power - 1, power)
        assert size > MAX_VARIABLES
        path = spec_file({"sequence": {"n": n}, "blocks": [{"rows": rows, "power": power}]})
        start = time.perf_counter()
        assert main([command, path]) == 3
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == "" and "hard guard of %d variables" % MAX_VARIABLES in captured.err

    @pytest.mark.parametrize(
        "blocks",
        [
            [([1, 2, 3, 4, 5, 6], 2)],
            [([1, 2, 3, 4, 5, 6], 3)],
            [(list(rows), 1) for rows in combinations(range(1, 7), 3)],
        ],
        ids=["power-2-on-6-rows", "power-3-on-6-rows", "twenty-3-row-blocks"],
    )
    @pytest.mark.parametrize("command", ["generators", "verify"])
    def test_cycle_search_over_the_guard(self, spec_file, capsys, blocks, command):
        # far below the variable guard, yet the first and last have 526,155
        # and 591,228 cycle walks, and the middle one more; the search
        # stops at the guard
        spec = {"sequence": {"n": 6}, "blocks": [{"rows": rows, "power": power} for rows, power in blocks]}
        start = time.perf_counter()
        assert main([command, spec_file(spec)]) == 3
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == "" and "hard guard of %d walks" % MAX_CYCLES in captured.err

    def test_cycle_unions_over_the_guard(self, spec_file, capsys, monkeypatch):
        # n = 6 with all fifteen 2-row blocks has 1,172 cycle walks and
        # 1,347 unions of them; only the full family enumerates unions
        spec = {"sequence": {"n": 6}, "blocks": [{"rows": list(rows)} for rows in combinations(range(1, 7), 2)]}
        path = spec_file(spec)
        matrix = build_presentation(spec_from_dict(spec)).matrix
        assert len(matrix.cycle_walks(12)) == 1_172 and len(binary_subquasi_enumerate(matrix, 12)) == 1_347
        monkeypatch.setattr("multirees.quasimat.MAX_CYCLES", 1_200)
        assert main(["generators", path, "--family", FULL]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "cycle unions exceed the hard guard of 1200" in captured.err
        assert main(["generators", path, "--family", RESTRICTED]) == 0

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

    @pytest.mark.parametrize(
        "sequence, blocks, message",
        [
            ({"n": 1, "names": ["t1"]}, 1, "duplicate variable names: t1; t1 is a reserved grading symbol"),
            ({"n": 2, "names": ["t2", "t1"]}, 2, "duplicate variable names: t1, t2; t1 ... t2 are reserved grading symbols"),
            (
                {"n": 2, "mode": "concrete", "ambient": ["t2", "y"], "values": [[[1, {"t2": 1}]], [[1, {"y": 1}]]]},
                2,
                "duplicate variable names: t2; t1 ... t2 are reserved grading symbols",
            ),
            ({"n": 2, "names": ["a", "a"]}, 1, "duplicate variable names: a"),
        ],
    )
    def test_naming_conflict_names_the_names(self, spec_file, capsys, sequence, blocks, message):
        path = spec_file({"sequence": sequence, "blocks": [{"rows": [k + 1]} for k in range(blocks)]})
        assert main(["generators", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "spec error: variable naming conflict: %s\n" % message

    def test_stdin_spec(self, spec_file, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(json.dumps(SMALL_SPEC).encode())))
        code = main(["generators", "-"])
        assert code == 0
        assert "generators (family=restricted)" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["generators", "verify"])
    def test_stdin_spec_is_strict_utf8(self, tmp_path, capsys, monkeypatch, command):
        # the byte 0xff in a sequence name: stdin and a file give one error
        data = b'{"sequence": {"n": 1, "names": ["s\xff"]}, "blocks": [{"rows": [1]}]}'
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        assert main([command, str(path)]) == 2
        from_file = capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert main([command, "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == from_file.out == ""
        assert captured.err == from_file.err
        assert "spec error: cannot read spec file: 'utf-8' codec can't decode byte 0xff in position 34: invalid start byte\n" == captured.err

    def test_stdin_newlines_read_as_in_a_file(self, tmp_path, capsys, monkeypatch):
        # a malformed spec with CRLF line ends names one position either way
        data = b'{\r\n"sequence": {"n": 1}\r\n"blocks": []}'
        path = tmp_path / "crlf.json"
        path.write_bytes(data)
        assert main(["generators", str(path)]) == 2
        from_file = capsys.readouterr().err
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert main(["generators", "-"]) == 2
        assert capsys.readouterr().err == from_file == "spec error: invalid JSON: Expecting ',' delimiter: line 3 column 1 (char 23)\n"


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
    names, rows out of range, power 0, and broken value shapes
    (pair-list monomials, three-item terms, a value that is no list,
    float exponents, values in generic mode)."""
    n = draw(st.integers(1, 3))
    wild = draw(st.integers(0, 3)) == 0
    seq = {"mode": draw(st.sampled_from(("generic", "concrete"))), "n": n}
    if wild and draw(st.booleans()):
        seq["names"] = draw(st.lists(st.sampled_from(NAME_POOL), min_size=n, max_size=n))
    if seq["mode"] == "concrete" or (wild and draw(st.booleans())):
        if wild:
            ambient = draw(st.lists(st.sampled_from(NAME_POOL[2:]), max_size=2, unique=True))
            monomial = st.dictionaries(st.sampled_from(ambient or ["x"]), st.integers(-2, 3), max_size=2)
            float_exponent = st.dictionaries(st.sampled_from(ambient or ["x"]), st.just(1.0), min_size=1)
            term = st.one_of(
                st.tuples(st.sampled_from((-2, -1, 0, 1, 3)), monomial).map(list),
                st.tuples(st.just(1), monomial.map(lambda m: [[x, e] for x, e in m.items()])).map(list),
                st.tuples(st.just(1), monomial, st.just(0)).map(list),
                st.tuples(st.just(1), float_exponent).map(list),
            )
            value = st.one_of(st.lists(term, min_size=1, max_size=2), st.sampled_from((5, None)))
        else:
            ambient = draw(st.lists(st.sampled_from(("x", "y")), min_size=1, max_size=2, unique=True))
            monomial = st.dictionaries(st.sampled_from(ambient), st.integers(1, 3), min_size=1)
            value = st.lists(st.tuples(st.sampled_from((-2, -1, 1, 3)), monomial).map(list), min_size=1, max_size=1)
        seq["ambient"] = ambient
        seq["values"] = draw(st.lists(value, min_size=n, max_size=n))
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
    [
        b"\xff\xfe{}",
        b"[" * 100000 + b"]" * 100000,
        # json.loads refuses an integer of over 4,300 digits with a plain
        # ValueError; json.dumps cannot write one, so the text is raw
        b'{"sequence": {"n": ' + b"1" * 5000 + b'}, "blocks": [{"rows": [1]}]}',
    ],
    ids=["not-utf8", "deeply-nested", "5000-digit-integer"],
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
    """Every ``--format json`` document has the bytes of
    ``json.dumps(payload, indent=2)``; ``generators`` writes its records
    one at a time after the head of its document."""

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
        # a document joined before it is written would hold every record in
        # memory at once; generators writes the head of its document through
        # the records' "[", then one small chunk per record
        chunks = []
        path = spec_file(spec_to_dict(emission_specs()[-1]))
        monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=chunks.append, flush=lambda: None))
        assert main(["generators", path, "--family", "full", "--format", "json"]) == 0
        out = "".join(chunks)
        opening = '\n  "generators": ['
        assert chunks[0] == out[: out.index(opening) + len(opening)] and '"index"' not in chunks[0]
        assert len(out) > 100_000 and len(chunks) >= json.loads(out)["count"]
        assert max(map(len, chunks[1:])) <= len(out) // 100
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
        # tuples, shared exponent pairs, the head of the document written
        # from json.dumps and each record rendered as one write when it is
        # reached hold the traced peak, the output buffer included, to
        # 3.1 MB; a write per key and value took it to 5.6 MB, and building
        # every record before the first write, with cells as frozensets,
        # to 12.0 MB
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


# sha256 of the stdout of ``generators`` on n with every k-row block at
# power 1, blocks in ``combinations`` order: restricted and full JSON and
# CAS, taken before the row-by-row cycle search and the per-support union
# data went in, so the emission order and every byte stay pinned
WIDE_DIGESTS = {
    (5, 3): (
        "176fefeff11d89a2874bfd9b93c021894bae40aeea6276133f9ed8d33f9c5283",
        "4fcc3823dfb0b5d96d6e1ea7fa790e5dfb0c0c0390d1a2e7c25359be148bb777",
        "a3cc5e90bbec6deccd4f344195b7501efa6cfd25df8367b11943d96ade809bd1",
        "9af9e87a4cbec381efcb2999a198d6d33f6c3e8a4e989155957a991a50719d21",
    ),
    (6, 2): (
        "dc0c5929e2234f4204a0a14d1111442c908affb3a5f586147f7e0c85a0a1b356",
        "318ee9f8aba666faa20f6d273d5969ffeae6daf37862e075692caa0d7d19368b",
        "f6dbc7d7cad9fc1f18084f0367985a544bdb99944831adcd909e9a674798cbf7",
        "3469b39b1619622fd217d4b0d82394e021cc7107712ed433a99ea8abf1ad6aee",
    ),
    (5, 2): (
        "c7a3733fa7285149ee70157289236bb77041e4042adf5d730f767c63ed14cd50",
        "68ded46098e98a43559276c6dda369ab3ea7fed7db28ccd835a577ab05644aa0",
        "51f60800ea625bf6ab5e99d29e8954096d9544a04ed787ddc2ec6476aa93e6b3",
        "280517a2058fef516f663f4906faf156ef0487e5c56c6a6c71d46d0425f12ed7",
    ),
}


@pytest.mark.parametrize("shape", sorted(WIDE_DIGESTS), ids="n={0[0]},k={0[1]}".format)
def test_wide_shapes_print_the_pinned_bytes(spec_file, capsys, shape):
    n, k = shape
    path = spec_file({
        "sequence": {"mode": "generic", "n": n},
        "blocks": [{"rows": list(rows), "power": 1} for rows in combinations(range(1, n + 1), k)],
    })
    got = []
    for fmt in ("json", "cas"):
        for family in (RESTRICTED, FULL):
            assert main(["generators", path, "--format", fmt, "--family", family]) == 0
            got.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert tuple(got) == WIDE_DIGESTS[shape]


# (exit code, sha256 of stdout) of ``groebner --universal --format json``
# and of ``verify`` (text) on the paper's example and the gb_heavy shapes.
# Both spell out the canonical precedence; pinned while each variable
# still carried it as a key, so the ranks that ``Presentation`` gives
# keep every byte
PRECEDENCE_DIGESTS = [
    (
        (0, "c3ed3bda45b3571a7da3f7f847c3d0bd1a14269d64a157fb22483fa9da7c49ae"),
        (0, "cf54df0e71b541d1caebbaaf519f7bd83b504066426007ad91b90ab3c112792e"),
    ),
    (
        (1, "1f2276d2aea96d3c766ed40adb3d265ae4d00f46d57699c816f9eb34b4af4869"),
        (0, "3b4095f5792af77cbbf093c6d074d48f148e4482a7090a61c5d72e3dd0705867"),
    ),
    (
        (1, "263e10ab787e1ceca0dbb8a0c0365b361872784923aab09cf58f929a78bdb733"),
        (0, "c5746c1e3bedef718a77f3ece528cd28d07b2baae4243c0e9c5e05d682cd7a90"),
    ),
    (
        (1, "492c5011dbd3fb867bba62f58219c72b3c0f867fc47cb418a914be01e4a8e510"),
        (0, "a9b1ecd51309c474705f1a9fc4bee7de6864cde658631f8c17037c4cd64b0624"),
    ),
    (
        (1, "827a5ebed5f8a8c8a667023a7f4c5454a258dac5d0d997a221e6922147bd1835"),
        (0, "1e39aead3e93740c02e1877411fbce2a492958b0584603da478b8184881a4478"),
    ),
]


@pytest.mark.parametrize("index", range(5), ids=["paper"] + ["gb_heavy-%d" % i for i in range(4)])
def test_canonical_precedence_prints_the_pinned_bytes(spec_file, capsys, index):
    spec = PAPER_SPEC if index == 0 else spec_to_dict(gb_heavy_specs()[index - 1])
    path = spec_file(spec)
    got = []
    for argv in (["groebner", path, "--universal", "--format", "json"], ["verify", path]):
        code = main(argv)
        got.append((code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()))
    assert tuple(got) == PRECEDENCE_DIGESTS[index]
