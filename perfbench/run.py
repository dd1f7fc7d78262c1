"""maccoop benchmark: one workload, measured from a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each measurement runs in its own
worker process (``worker.py``), which imports maccoop from ``src``.
With ``--trace 0`` the run reports the end-to-end metrics; set-up is
timed in two extra fresh processes as well and ``setup_s`` is the
median of the three.  With ``--trace 1`` it reports per-layer metrics
from a traced run.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print the same numbers for people, with the environment they
were measured in.  Workloads, metrics and their bounds are listed in
``BENCHMARK.json`` and explained in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REFERENCE_PROBE_S, speed_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 3
SETUP_PROBES = 7
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def spawn(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Run the worker; return its set-up time at reference speed and its result.

    Set-up time runs from just before the process starts to the moment
    the worker is ready to time.  It is scaled like the op times, by the
    median of speed probes taken just before the start.
    """
    budget = deadline - time.monotonic()
    if budget <= 0:
        raise BenchError("out of time before starting a worker")
    probe = statistics.median(speed_probe() for _ in range(SETUP_PROBES))
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *argv], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=budget)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {budget:.0f} s") from exc
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    result = json.loads(lines[-1])
    return (result["ready"] - started) * REFERENCE_PROBE_S / probe, result


def measure(args) -> tuple[dict, dict, list[float]]:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup_s, probe = spawn(common + ["--setup-only"], deadline)
            if probe["failed"]:
                return probe, {}, []
            setups.append(setup_s)
    setup_s, result = spawn(common + ["--seconds", str(args.seconds),
                                      "--trace", str(int(args.trace))], deadline)
    setups.append(setup_s)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    if metrics and not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return result, metrics, setups


def report(args, result: dict, metrics: dict, setups: list[float]) -> None:
    env = result.get("env", {})
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {int(args.trace)}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    notes = result.get("notes", {})
    attempted, failed = result["attempted"], result["failed"]
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:.6g} {metric['unit']}")
    if not args.trace and metrics:
        print(f"  {'failed_ratio':<44} {failed / max(attempted, 1):.6g} 1"
              f"  ({failed} of {attempted} ops)")
        raw = notes["raw"]
        print(f"  op_s.tail is p{notes['tail_percentile']} of {notes['ops_timed']} timed ops;"
              f" ops_per_s and op_s.p50 weigh each of the {notes['pool']} inputs"
              f" by its median op time")
        print(f"  op times are scaled to a {notes['reference_probe_s'] * 1e3:g} ms speed probe"
              f" (this run's median probe: {notes['probe_s'] * 1e3:.3f} ms); unscaled:"
              f" ops_per_s {raw['ops_per_s']:.6g}, op_s.p50 {raw['op_s.p50']:.6g},"
              f" op_s.tail {raw['op_s.tail']:.6g}, completed {raw['completed_per_s']:.6g} op/s")
        print("  setup_s is the median of " + ", ".join(f"{s:.4f}" for s in setups))
    if args.trace and notes:
        shares = sorted(notes["layer_shares"].items(), key=lambda kv: -kv[1])
        print("  self time by layer: "
              + ", ".join(f"{layer} {share:.1%}" for layer, share in shares))
        top = sorted(notes["self_s"].items(), key=lambda kv: -kv[1])[:6]
        print("  largest self times (s/op): "
              + ", ".join(f"{name} {s:.4g}" for name, s in top))
        print(f"  absent functions: {notes['absent'] or 'none'};"
              f" untraced: {notes['untraced'] or 'none'}")
    for problem in result.get("problems", []):
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "maccoop" / "__init__.py").is_file():
        print(f"error: no maccoop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, metrics, setups = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(args, result, metrics, setups)
    correct = result["failed"] == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
