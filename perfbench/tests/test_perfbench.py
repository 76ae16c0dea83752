"""Tests of the benchmark itself, on tiny workloads.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import gc
import json
import math
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

import bench  # noqa: E402
import make_goldens  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def names(kind: str) -> set[str]:
    return {m["name"] for m in SPEC[kind]}


def tiny_workloads():
    return [
        bench.SweepWorkload("grid", ("K3/K3",), (20,), (Fraction(1, 4), Fraction(3, 2)), trials=2),
        bench.CatalogWorkload("catalog", ("K3/K3",), bound=4),
        bench.OracleWorkload("oracle", samples=2),
    ]


def golden_of(wl) -> dict:
    return make_goldens.golden_for(wl)


@pytest.mark.parametrize("wl", tiny_workloads(), ids=lambda wl: wl.name)
def test_untraced_run_reports_every_end_to_end_metric(wl):
    result = bench.run(wl, seed=7, seconds=0, trace=False, golden=golden_of(wl))
    assert result["correct"], result["notes"]
    assert set(result["metrics"]) == names("end_to_end")
    assert all(v > 0 for v in result["metrics"].values())
    # a failed op counts as infinitely slow, which tiny runs can put on a percentile
    assert all(
        math.isfinite(v)
        for k, v in result["metrics"].items()
        if not (k.startswith("op_ms.") and result["failed"])
    )
    assert result["attempted"] >= 1


def test_oracle_counts_k40_40_as_a_failed_op():
    wl = bench.OracleWorkload("oracle", samples=2)
    golden = golden_of(wl)
    assert golden["known_failures"] == ["K40,40"]
    result = bench.run(wl, seed=7, seconds=0, trace=False, golden=golden)
    assert result["correct"], result["notes"]
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert result["metrics"]["ok_frac"] == pytest.approx(2 / 3)
    assert any("K40,40: RecursionError" in note for note in result["notes"])


@pytest.mark.parametrize("wl", tiny_workloads(), ids=lambda wl: wl.name)
def test_traced_run_reports_per_layer_metrics_and_restores_functions(wl):
    golden = golden_of(wl)
    before = tracing.package_bindings()
    result = bench.run(wl, seed=7, seconds=0, trace=True, golden=golden)
    after = tracing.package_bindings()
    assert result["correct"], result["notes"]
    assert set(result["metrics"]) == names("per_layer")
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_tracer_restores_functions_when_the_traced_code_raises():
    before = tracing.package_bindings()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer({}).installed():
            assert bench.harness.run_trial is not before[("asymcolor.harness", "run_trial")]
            1 / 0
    after = tracing.package_bindings()
    assert all(after[k] is v for k, v in before.items())


def test_self_time_excludes_child_spans():
    wl = bench.SweepWorkload("grid", ("K3/K3",), (20,), (Fraction(1, 4),), trials=1)
    wl.setup()
    tracer = tracing.Tracer(bench.roles(wl))
    with tracer.installed():
        wl.run_pass(random.Random(0))
    own = tracer.self_times()
    inclusive = {}
    for i in range(len(tracer.span_start)):
        name = tracer.names[tracer.span_name[i]]
        inclusive[name] = inclusive.get(name, 0.0) + tracer.span_end[i] - tracer.span_start[i]
    assert 0 < own["harness.run_trial"] < inclusive["harness.run_trial"]
    assert sum(own.values()) == pytest.approx(inclusive["families.enumerate_blockers"]
                                              + inclusive["harness.run_trial"])


def test_forced_golden_mismatch_fails_the_run():
    wl = bench.OracleWorkload("oracle", samples=2)
    golden = golden_of(wl)
    golden["output"]["gnp20-b2-t0"] = "invalid"
    result = bench.run(wl, seed=7, seconds=0, trace=False, golden=golden)
    assert not result["correct"]
    assert any("gnp20-b2-t0" in note and "differs from golden" in note for note in result["notes"])


def test_a_trial_that_raises_fails_the_run(monkeypatch):
    wl = bench.SweepWorkload("grid", ("K3/K3",), (20,), (Fraction(1, 4),), trials=3)
    golden = golden_of(wl)
    run_trial = bench.harness.run_trial
    calls = []

    def second_trial_raises(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("forced")
        return run_trial(*args, **kwargs)

    monkeypatch.setattr(bench.harness, "run_trial", second_trial_raises)
    result = bench.run(wl, seed=7, seconds=0, trace=False, golden=golden)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert any("grid K3/K3: no output" in note for note in result["notes"])


def test_a_sweep_that_raises_outside_a_trial_fails_the_run(monkeypatch):
    wl = bench.SweepWorkload("grid", ("K3/K3",), (20,), (Fraction(1, 4),), trials=2)
    golden = golden_of(wl)

    def catalog_raises(*args, **kwargs):
        raise RuntimeError("forced")

    # sweep's own binding only; the workload's set-up uses families'
    monkeypatch.setattr(bench.harness, "enumerate_blockers", catalog_raises)
    result = bench.run(wl, seed=7, seconds=0, trace=False, golden=golden)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert any("grid K3/K3: no output" in note for note in result["notes"])


def test_an_output_missing_from_a_pass_is_a_problem_unless_a_known_failure():
    golden = {"output": {"a": 1, "b": 2}, "known_failures": ["b"]}
    assert bench.golden_problems("w", {"a": 1}, golden) == []
    assert bench.golden_problems("w", {"b": 2}, golden) == ["w a: no output, golden is 1"]
    assert bench.golden_problems("w", {"a": 1, "b": 3}, golden) == [
        "w b: output 3 differs from golden 2"
    ]


def test_the_reference_runs_no_garbage_collection():
    collections = []

    def record(phase, info):
        collections.append(phase)

    threshold = gc.get_threshold()
    gc.set_threshold(1)
    gc.callbacks.append(record)
    try:
        speed.time_reference()
    finally:
        gc.callbacks.remove(record)
        gc.set_threshold(*threshold)
    assert collections == []
    assert gc.isenabled()


def _checkout(tmp_path: Path, with_sources: bool) -> Path:
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _run_cli(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=checkout,
        capture_output=True, text=True, timeout=170,
    )


def test_cli_fails_on_a_golden_mismatch(tmp_path):
    checkout = _checkout(tmp_path, with_sources=True)
    goldens_file = checkout / "perfbench" / "goldens.json"
    goldens = json.loads(goldens_file.read_text())
    goldens["oracle"]["output"]["gnp20-b2-t4"] = "valid"
    goldens_file.write_text(json.dumps(goldens))
    proc = _run_cli(checkout, "--workload", "oracle", "--seed", "3", "--seconds", "1")
    assert proc.returncode == 1, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is False
    assert {m["name"] for m in SPEC["end_to_end"]} == set(last["metrics"])


def test_cli_without_sources_fails_without_a_result(tmp_path):
    checkout = _checkout(tmp_path, with_sources=False)
    proc = _run_cli(checkout, "--workload", "grid", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
