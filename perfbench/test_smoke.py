"""Smoke test of the benchmark on cut-down workloads.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_smoke.py

Each workload keeps only its first few requests (the cheap ones for
gb_heavy and wide_emit), so the whole file runs in well under a minute.
"""
import contextlib
import io
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7
KEEP = {"desk_verify": slice(None, None, 8), "gb_heavy": slice(3, 4), "wide_emit": slice(1, 3)}
COUNTS = (
    "grobner.pairs",
    "grobner.reduction_steps",
    "oracle.multiples",
    "quasimat.cycle_unions",
    "rees.generators_emitted",
)


@pytest.fixture(autouse=True)
def small_workloads(monkeypatch):
    monkeypatch.chdir(ROOT)
    for name, keep in KEEP.items():
        full = workloads.WORKLOADS[name]
        monkeypatch.setitem(workloads.WORKLOADS, name, lambda rng, full=full, keep=keep: full(rng)[keep])


def run_cli(workload, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace)]) == 0
    return json.loads(buf.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_printed_with_its_unit(workload, trace):
    result = run_cli(workload, trace)
    wanted = run.load_benchmark()["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


DOMINANT = {"desk_verify": ("oracle",), "gb_heavy": ("grobner",), "wide_emit": ("quasimat", "rees", "cli")}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_is_deterministic_and_covered(workload):
    first_session, first, _ = run.measure(workload, SEED, 0.1, trace=True)
    second_session, second, _ = run.measure(workload, SEED, 0.1, trace=True)
    assert first_session.first_output == second_session.first_output
    assert {c: first[c] for c in COUNTS} == {c: second[c] for c in COUNTS}
    assert first["trace.child_cover"] > 0.5
    shares = {k.split(".", 1)[1]: v for k, v in first.items() if k.startswith("share.")}
    assert sum(shares[layer] for layer in DOMINANT[workload]) > 0.5


def test_wrong_expected_verdict_is_counted(monkeypatch):
    full = workloads.WORKLOADS["desk_verify"]

    def wrong(rng):
        reqs = full(rng)
        reqs[0] = workloads.Request(reqs[0].rid, reqs[0].kind, reqs[0].spec, workloads.INDETERMINATE)
        return reqs

    monkeypatch.setitem(workloads.WORKLOADS, "desk_verify", wrong)
    session, _, _ = run.measure("desk_verify", SEED, 0.1, trace=False)
    assert session.failed == 1
    assert "expected INDETERMINATE" in session.failures[0]


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run.measure("desk_verify", SEED, 0.1, trace=False)
    assert exc.value.code not in (0, None)
