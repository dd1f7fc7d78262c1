"""Tests of the benchmark harness itself (not of maccoop).

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
os.environ.setdefault("MACCOOP_BACKEND", "numpy")
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import maccoop  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def last_json(stdout: str) -> dict:
    return json.loads([line for line in stdout.splitlines() if line.strip()][-1])


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


# ---------------------------------------------------------------------------
# metric names and units


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_names_and_units_match_benchmark_json():
    ops = worker.Ops(2)
    for slot, seconds in [(0, 0.5), (0, 0.7)] + [(1, 0.2)] * 20:
        ops.probes.append(worker.REFERENCE_PROBE_S)
        ops.durations[slot].append(seconds)
        ops.timeline.append((slot, seconds, len(ops.probes) - 1))
    ops.probes.append(worker.REFERENCE_PROBE_S)
    metrics, _ = worker.e2e_metrics(ops, 100.0)
    assert metrics["ops_per_s"][0] == pytest.approx(2 / 0.8)  # per-input medians
    assert metrics["op_s.p50"][0] == pytest.approx(0.4)
    units = {name: unit for name, (_, unit) in metrics.items()}
    units["setup_s"] = "s"  # added by run.py from the set-up samples
    assert units == declared("end_to_end")


def test_per_layer_names_and_units_match_benchmark_json():
    units = {name: unit for name, (_, unit) in tracer.Tracer().metrics(0.0).items()}
    assert units == declared("per_layer")


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(trace):
    proc = bench("--workload", "snr_sweep", "--seed", "3", "--seconds", "0.5",
                 "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared(kind)


# ---------------------------------------------------------------------------
# the correctness gate


def test_failed_warmup_check_is_never_timed(monkeypatch):
    monkeypatch.setattr(workloads.SnrSweep, "warmup", lambda self: ["forced failure"])

    def never(*args, **kwargs):
        raise AssertionError("timed a run whose correctness gate failed")

    monkeypatch.setattr(worker, "timed_loop", never)
    monkeypatch.setattr(worker, "traced_run", never)
    args = types.SimpleNamespace(workload="snr_sweep", seed=1, seconds=1.0, trace=0,
                                 setup_only=False)
    result = worker.run(args)
    assert result["failed"] == 1 and result["metrics"] == {}
    assert result["problems"] == ["forced failure"]


def test_run_reports_gate_failure_as_incorrect(monkeypatch, capsys):
    refused = {"ready": 0.0, "attempted": 1, "failed": 1, "problems": ["x"], "metrics": {}}
    monkeypatch.setattr(run, "spawn", lambda argv, deadline: (0.1, refused))
    code = run.main(["--workload", "snr_sweep", "--seed", "1", "--seconds", "1"])
    out = last_json(capsys.readouterr().out)
    assert code != 0
    assert out == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_wrong_answers_count_as_failed_ops(monkeypatch):
    wl = workloads.SnrSweep(1)
    ops = worker.timed_loop(wl, 0.0)
    monkeypatch.setattr(workloads.SnrSweep, "validate",
                        lambda self, i, result: ["wrong"] if i == 0 else [])
    problems = worker.check(wl, ops, 1, workloads.DEFAULT_SEED)
    assert set(problems) == {0}
    assert worker.failed_ops(ops, problems) == len(ops.durations[0]) == 1


def test_default_seed_is_compared_with_pinned_reference(monkeypatch):
    wl = workloads.SnrSweep(workloads.DEFAULT_SEED)
    ops = worker.timed_loop(wl, 0.0)
    assert worker.check(wl, ops, workloads.DEFAULT_SEED, workloads.DEFAULT_SEED) == {}
    monkeypatch.setattr(workloads.SnrSweep, "pin",
                        lambda self, i, points: {"status": "moved"})
    problems = worker.check(wl, ops, workloads.DEFAULT_SEED, workloads.DEFAULT_SEED)
    assert len(problems) == len(wl.inputs)


def test_tail_has_ten_ops_beyond_it():
    durations = [float(i) for i in range(1, 41)]
    value, p = worker.tail(durations)
    assert p == 75 and value == 30.0
    assert sum(d > value for d in durations) >= 10


# ---------------------------------------------------------------------------
# seeds


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_changes_inputs_but_not_count_or_sizes(name):
    a = workloads.WORKLOADS[name](0)
    b = workloads.WORKLOADS[name](1)
    assert len(a.inputs) == len(b.inputs) > 1
    assert a.sizes() == b.sizes()
    assert a.sizes() == workloads.WORKLOADS[name](0).sizes()

    def fingerprints(wl):
        if name == "snr_sweep":
            return [spec.snr_grid_db for spec, _ in wl.inputs]
        scenarios = wl.scenarios.values() if name == "cli_pipeline" else wl.inputs
        return [maccoop.fingerprint(s) for s in scenarios]

    assert fingerprints(a) == fingerprints(workloads.WORKLOADS[name](0))
    assert all(x != y for x, y in zip(fingerprints(a), fingerprints(b)))


# ---------------------------------------------------------------------------
# tracing hygiene


def maccoop_bindings() -> dict[tuple[str, str], object]:
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "maccoop" or name.startswith("maccoop.")
            for attr, value in vars(module).items() if callable(value)}


def test_restore_puts_back_every_binding():
    before = maccoop_bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tracer.leftover_wrappers()
        # names bound by ``from .model import enumerate_partitions`` are wrapped too
        assert maccoop.cores.enumerate_partitions is not before[("maccoop.cores",
                                                                 "enumerate_partitions")]
        scenario = maccoop.symmetric_scenario(3)
        with tr.op(1):
            maccoop.cores.check_core(scenario, "rational")
    finally:
        tr.restore()
    assert tracer.leftover_wrappers() == []
    after = maccoop_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    metrics = tr.metrics(0.0)
    assert metrics["cores.demand_vector.calls"][0] == 1.0
    assert metrics["model.enumerate_partitions.items"][0] > 0
    assert metrics["trace.coverage"][0] > 0.9


def test_missing_function_is_reported_absent():
    gone = tracer.Target("kernels.removed_kernel", "maccoop._kernels", "removed_kernel")
    tr = tracer.Tracer(tracer.TARGETS + (gone,))
    tr.install()
    tr.restore()
    assert tr.absent == ["kernels.removed_kernel"]
    metrics = tr.metrics(0.0)
    assert metrics["kernels.removed_kernel.calls"] == (0.0, "count/op")
    assert metrics["trace.absent"][0] == 1.0


def test_kernels_are_not_wrapped_under_a_compiled_backend(monkeypatch):
    monkeypatch.setattr(maccoop, "BACKEND", "numba")
    original = maccoop._kernels.waterfill
    tr = tracer.Tracer()
    tr.install()
    try:
        assert maccoop._kernels.waterfill is original
    finally:
        tr.restore()
    assert sorted(tr.untraced) == sorted(t.name for t in tracer.TARGETS
                                         if t.module == "maccoop._kernels")


# ---------------------------------------------------------------------------
# the contract's failure mode


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "snr_sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
