"""Smoke tests of the benchmark itself, at the tiny size.

    python3 -m pytest perfbench/smoke.py -q

They are not collected by the package's own test run (the file name does
not match ``test_*.py``), because they start benchmark subprocesses.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import run
import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_NAMES = [name for name, _ in run.COUNT_METRICS]


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def tiny(workload: str, trace: int, seed: int = 7) -> dict:
    code, lines = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.3",
                        "--trace", str(trace), "--size", "tiny")
    assert code == 0, lines[-5:]
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = tiny(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_runs_report_every_layer_metric_and_repeat_counts(workload):
    first = tiny(workload, trace=1)
    second = tiny(workload, trace=1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: v["unit"] for name, v in first["metrics"].items()} == expected
    assert first["correct"] and second["correct"]
    for name in COUNT_NAMES:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["trace.coverage"]["value"] > 0.5


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_wrong_expected_value_counts_as_failed(monkeypatch):
    monkeypatch.setitem(workloads.FIXTURE_INDEX, "A8:4|4/8", 2)
    bench_run = run.Run("index_cli", "tiny", seed=0, seconds=0.0)
    bench_run.setup()
    bench_run.one_pass(lambda _: None, traced=False)
    assert bench_run.failed >= 1
    assert any("A8:4|4/8" in failure for failure in bench_run.failures)


def test_malformed_output_counts_as_failed(monkeypatch):
    bench_run = run.Run("index_cli", "tiny", seed=0, seconds=0.0)
    bench_run.setup()

    def garbled(argv):
        print("{not json")
        return 0

    monkeypatch.setattr(bench_run.sw.cli, "main", garbled)
    result = bench_run.one_pass(lambda _: None, traced=False)
    index_calls = len(workloads.INDEX_CLI_SPECS["tiny"])
    assert sum("checking the output raised" in f for f in result.failures) == index_calls
    assert bench_run.failed == result.attempted


def test_host_speed_factor_uses_every_calibration_of_the_step():
    speed = calibrate.HostSpeed()
    speed.times = [0.02, 0.04, 0.06]
    assert speed.factor(0, 2) == pytest.approx(calibrate.REFERENCE_S / 0.04)
    assert speed.factor(1, 2) == pytest.approx(calibrate.REFERENCE_S / 0.05)


def test_every_latency_and_set_up_gets_a_reference_time():
    bench_run = run.Run("spectrum", "tiny", seed=0, seconds=0.0)
    bench_run.setup()
    result = bench_run.one_pass(lambda _: None, traced=False)
    assert len(result.ref_latencies) == len(result.latencies) == result.attempted
    assert result.factor > 0 and all(x >= 0 for x in result.ref_latencies)
    assert len(bench_run.setup_times) == len(bench_run.setup_raw) == 1
    assert len(bench_run.speed.times) >= 3  # before and after set-up, after the pass


def test_wrong_reference_digest_fails_the_whole_pass():
    bench_run = run.Run("spectrum", "tiny", seed=0, seconds=0.0)
    bench_run.setup()
    bench_run.reference = "0" * 64
    result = bench_run.one_pass(lambda _: None, traced=False)
    assert bench_run.failed == result.attempted > 0


def test_tracer_replaces_every_alias_and_restores():
    bench_run = run.Run("classify_bulk", "tiny", seed=0, seconds=0.0)
    bench_run.setup()
    formulas = sys.modules["seaweeds.formulas"]
    original = formulas.meander_tail
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert getattr(formulas.meander_tail, tracing.MARKER) == "meander.tail"
        assert getattr(sys.modules["seaweeds"].tail, tracing.MARKER) == "meander.tail"
        with pytest.raises(RuntimeError):
            bench_run.one_pass(lambda _: None, traced=False)
    finally:
        tracer.restore()
    assert formulas.meander_tail is original
    assert tracing.wrapped_objects() == []


def test_without_the_package_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "index_cli", "--seed", "0", "--seconds", "1", "--trace", "0",
                        cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
