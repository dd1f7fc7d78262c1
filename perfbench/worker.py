"""One workload in a fresh process: set-up, timed or traced ops, checks.

``run.py`` starts this script once per measurement and reads the JSON
object it prints as its last stdout line.  The process pins the numpy
backend and one BLAS thread in its own environment before numpy is
imported, imports maccoop from the checkout's ``src`` directory, and
refuses to time anything when the warm-up verdict fails its check.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
PINNED_ENV = {"MACCOOP_BACKEND": "numpy", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TAIL_BEYOND = 10
MAX_REPORTED_PROBLEMS = 10
#: Probe size, and the probe time that defines the reference machine speed.
PROBE_LOOPS = 60_000
REFERENCE_PROBE_S = 0.006
PROBE_WINDOW = 5  # probes on each side of an op that set its scale


def env_record() -> dict:
    import numpy
    import scipy

    import maccoop

    def blas_version(module) -> str:
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return "unknown"

    try:
        import numba  # noqa: F401
        numba_state = "present"
    except ImportError:
        numba_state = "absent"
    cores = len(os.sched_getaffinity(0))
    return {
        "nproc": os.cpu_count(), "affinity": cores,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy), "backend": maccoop.BACKEND,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "note": f"{maccoop.BACKEND} path, numba {numba_state}, {cores} cores",
    }


def speed_probe() -> float:
    """Wall time of a fixed integer loop in the interpreter.

    The loop calls nothing in maccoop and allocates nothing the garbage
    collector tracks, so only the machine's speed at that moment moves
    it.  On a shared host that speed drifts by tens of percent over tens
    of seconds; a probe before every op measures the drift the ops saw.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


class Ops:
    """Outcome of a series of ops: durations per input slot, failures."""

    def __init__(self, n: int, first: dict | None = None):
        self.durations: list[list[float]] = [[] for _ in range(n)]
        self.first = {} if first is None else first
        self.compared: set[int] = set()
        self.failures: list[tuple[int, str]] = []
        self.raised = 0
        self.attempted = 0
        self.probes: list[float] = []
        # successful ops in order: input slot, seconds, index of the probe before it
        self.timeline: list[tuple[int, float, int]] = []

    def execute(self, wl, i: int, tracer=None) -> None:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                raw = wl.run(i)
            else:
                with tracer.op(self.attempted):
                    raw = wl.run(i)
        except Exception as exc:  # the op failed; count it and go on
            self.raised += 1
            self.failures.append((i, f"{type(exc).__name__}: {exc}"))
            return
        elapsed = time.perf_counter() - t0
        self.durations[i].append(elapsed)
        self.timeline.append((i, elapsed, len(self.probes) - 1))
        result = wl.record(i, raw)
        if i not in self.first:
            self.first[i] = result
            return
        self.compared.add(i)
        if not wl.same(self.first[i], result):
            self.failures.append((i, "result differs from the first run of this input"))

    def all_durations(self) -> list[float]:
        return [d for slot in self.durations for d in slot]


def timed_loop(wl, seconds: float) -> Ops:
    """Closed loop, one caller: cycle the pool for ``seconds``, at least one pass."""
    n = len(wl.inputs)
    ops = Ops(n)
    start = time.perf_counter()
    while ops.attempted < n or time.perf_counter() - start < seconds:
        ops.probes.append(speed_probe())
        ops.execute(wl, ops.attempted % n)
    ops.probes.append(speed_probe())
    return ops


def check(wl, ops: Ops, seed: int, default_seed: int) -> dict[int, list[str]]:
    """Problems per input slot (-1: the whole run): repeats, evidence, reference."""
    # every input runs at least twice, so every answer is compared once;
    # these extra runs are checks, not timed ops
    for i in sorted(set(ops.first) - ops.compared):
        extra = Ops(len(ops.durations), first=ops.first)
        extra.execute(wl, i)
        ops.failures += extra.failures
        ops.compared |= extra.compared
    problems: dict[int, list[str]] = {}
    for i, msg in ops.failures:
        problems.setdefault(i, []).append(msg)
    for i, result in sorted(ops.first.items()):
        found = wl.validate(i, result)
        if found:
            problems.setdefault(i, []).extend(found)
    if seed == default_seed:
        from workloads import load_reference, reference_problems

        reference = load_reference(wl.name)
        if reference is None:
            problems.setdefault(-1, []).append(f"no pinned reference for {wl.name}")
        else:
            for i, result in sorted(ops.first.items()):
                found = reference_problems(reference[i], wl.pin(i, result))
                if found:
                    problems.setdefault(i, []).extend(found)
    return {i: sorted(set(p)) for i, p in problems.items()}


def failed_ops(ops: Ops, problems: dict[int, list[str]]) -> int:
    """Ops that raised, plus every timed op of an input whose answer failed a check."""
    if -1 in problems:
        return ops.attempted
    return ops.raised + sum(len(ops.durations[i]) for i in problems)


def tail(durations: list[float]) -> tuple[float, int]:
    """Highest integer percentile with at least ten ops beyond it (nearest rank)."""
    n = len(durations)
    p = max(0, (100 * (n - TAIL_BEYOND)) // n) if n else 0
    ordered = sorted(durations)
    rank = max(1, math.ceil(p * n / 100))
    return ordered[rank - 1], p


def scaled_durations(ops: Ops) -> list[list[float]]:
    """Op times per input slot, scaled to the reference machine speed.

    Each op time is multiplied by REFERENCE_PROBE_S over the median of
    the speed probes taken around it, so it reads as seconds on a machine
    where the probe takes exactly REFERENCE_PROBE_S.
    """
    out: list[list[float]] = [[] for _ in ops.durations]
    for slot, seconds, k in ops.timeline:
        near = ops.probes[max(0, k - PROBE_WINDOW): k + PROBE_WINDOW + 2]
        out[slot].append(seconds * REFERENCE_PROBE_S / statistics.median(near))
    return out


def e2e_metrics(ops: Ops, peak_rss_mb: float) -> tuple[dict, dict]:
    """Throughput, median and tail op time at reference speed, and memory.

    ``ops_per_s`` and ``op_s.p50`` weigh every input of the pool once
    (the median of its op times), so a pass cut short at the deadline
    cannot change the mix; the tail is taken over all timed ops.
    """

    def figures(per_slot: list[list[float]]) -> tuple[float, float, float, int]:
        medians = [statistics.median(slot) for slot in per_slot if slot]
        tail_s, tail_p = tail([d for slot in per_slot for d in slot])
        return len(medians) / sum(medians), statistics.median(medians), tail_s, tail_p

    ops_per_s, p50, tail_s, tail_p = figures(scaled_durations(ops))
    raw_ops_per_s, raw_p50, raw_tail, _ = figures(ops.durations)
    metrics = {
        "ops_per_s": (ops_per_s, "op/s"),
        "op_s.p50": (p50, "s"),
        "op_s.tail": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    notes = {"tail_percentile": tail_p, "ops_timed": len(ops.timeline),
             "pool": len(ops.durations), "probe_s": statistics.median(ops.probes),
             "reference_probe_s": REFERENCE_PROBE_S,
             "raw": {"ops_per_s": raw_ops_per_s, "op_s.p50": raw_p50, "op_s.tail": raw_tail,
                     "completed_per_s": len(ops.timeline) / sum(ops.all_durations())}}
    return metrics, notes


def traced_run(wl, seconds: float):
    """Whole passes of the pool under the tracer, then the same ops untraced."""
    from tracer import Tracer, leftover_wrappers

    n = len(wl.inputs)
    tracer = Tracer()
    ops = Ops(n)
    passes = 0
    start = time.perf_counter()
    tracer.install()
    try:
        while passes == 0 or time.perf_counter() - start < seconds / 2:
            for i in range(n):
                ops.execute(wl, i, tracer)
            passes += 1
    finally:
        tracer.restore()
    leftovers = leftover_wrappers()
    plain = Ops(n, first=ops.first)
    for _ in range(passes):
        for i in range(n):
            plain.execute(wl, i)
    traced_s = sum(ops.all_durations())
    plain_s = sum(plain.all_durations())
    ops.failures += plain.failures
    ops.compared |= plain.compared
    ops.failures += [(-1, f"wrapper left after restore: {name}") for name in leftovers]
    overhead = traced_s / plain_s - 1.0 if plain_s else 0.0
    return tracer, ops, overhead


def setup(name: str, seed: int, workdir: Path):
    """Import, input generation, scenario files and one checked warm-up verdict."""
    import maccoop

    if Path(maccoop.__file__).resolve().parent != ROOT / "src" / "maccoop":
        raise SystemExit(f"maccoop imported from {maccoop.__file__}, not this checkout")
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[name](seed)
    workdir.mkdir(parents=True, exist_ok=True)
    wl.prepare(workdir)
    return wl, wl.warmup()


def run(args) -> dict:
    from workloads import DEFAULT_SEED

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        wl, gate = setup(args.workload, args.seed, workdir)
        out = {"ready": time.monotonic(), "env": env_record()}
        if gate:
            # refuse to time a program whose answers already fail the check
            return {**out, "attempted": 1, "failed": 1, "problems": gate, "metrics": {}}
        if args.setup_only:
            return {**out, "attempted": 0, "failed": 0, "problems": [], "metrics": {}}
        if args.trace:
            tracer, ops, overhead = traced_run(wl, args.seconds)
            metrics = tracer.metrics(overhead)
            WORK.mkdir(exist_ok=True)
            tracer.write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.csv")
            notes = {"absent": tracer.absent, "untraced": tracer.untraced,
                     "spans_dropped": tracer.dropped, "layer_shares": tracer.layer_shares(),
                     "self_s": {n: s.self_s / max(tracer.stats["op"].calls, 1)
                                for n, s in tracer.stats.items()}}
        else:
            ops = timed_loop(wl, args.seconds)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics, notes = e2e_metrics(ops, peak)
        problems = check(wl, ops, args.seed, DEFAULT_SEED)
        flat = [f"input {i}: {p}" for i, ps in sorted(problems.items()) for p in ps]
        return {**out, "attempted": ops.attempted, "failed": failed_ops(ops, problems),
                "problems": flat[:MAX_REPORTED_PROBLEMS], "metrics": metrics, "notes": notes}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    os.environ.update(PINNED_ENV)  # before numpy is imported in this process
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", dest="setup_only")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
