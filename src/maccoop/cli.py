"""Command line interface.

Each subcommand maps onto one library operation and emits CSV tables
plus a structured JSON summary with a fixed key set.  Identical
invocations (same inputs, seed, version) produce byte-identical files
and stdout; wall-clock timings go to stderr only so the summary's
``timings`` key is always null in files.

Exit codes: 0 success, 1 user error (bad flags or inputs), 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import io
from .analysis import (
    SweepSpec,
    approx_ratio,
    classify_externalities,
    snr_boundary,
    verify_superadditivity,
)
from .cores import (
    LP_TOL,
    ExpectationModel,
    _demands_and_grand,
    check_core_from_demands,
    core_region_3user,
    least_core,
)
from .equilibrium import utility_table
from .errors import InvalidArgument, MacCoopError, NumericalFailure
from .model import bell_number, enumerate_partitions

LN2 = math.log(2.0)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we want 1
        raise _UsageError(message)


def _member_names(k: int) -> list[str]:
    """Entry ``mask`` lists the members of coalition ``mask``, ascending and space separated."""
    names = [""]
    for mask in range(1, 1 << k):
        rest = mask & (mask - 1)  # all but the lowest member
        lowest = str((mask ^ rest).bit_length())
        names.append(f"{lowest} {names[rest]}" if rest else lowest)
    return names


def _blocks_str(partition) -> str:
    return "|".join(" ".join(map(str, b.members)) for b in partition.blocks)


class _Emitter:
    """Collects tables and the summary; writes files under --out."""

    def __init__(self, args):
        self.args = args
        self.out = Path(args.out)
        self.unit = "bits" if args.bits else "nats"
        self.summary = {
            "command": args.command,
            "verdict": None,
            "epsilon_star": None,
            "allocation": None,
            "certificate": None,
            "data": {},
            "timings": None,
        }

    def conv(self, nats: float) -> float:
        return nats / LN2 if self.args.bits else nats

    def table(self, name: str, columns, rows, scenario=None, **extra):
        meta = io.table_meta(
            scenario,
            seed=self.args.seed,
            unit=self.unit,
            **extra,
        )
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / name
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            io.write_table(fh, columns, rows, meta)

    def finish(self) -> int:
        self.out.mkdir(parents=True, exist_ok=True)
        text = json.dumps(self.summary, indent=2) + "\n"
        with open(self.out / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        sys.stdout.write(text)
        return 0


# ---------------------------------------------------------------------------
# subcommands


def _cmd_partitions(args) -> int:
    if args.count_only:
        print(bell_number(args.k))
        return 0
    em = _Emitter(args)
    rows = [
        (i, ",".join(map(str, p.rgs)), _blocks_str(p), len(p))
        for i, p in enumerate(enumerate_partitions(args.k))
    ]
    em.table("partitions.csv", ["index", "rgs", "blocks", "n_blocks"], rows, k=args.k)
    em.summary["data"] = {"k": args.k, "count": len(rows)}
    return em.finish()


def _cmd_utilities(args) -> int:
    scenario = io.load_scenario(args.scenario)
    em = _Emitter(args)
    table = utility_table(scenario)
    # table rows come in lexicographic RGS order; each row's blocks go by mask
    keys = [",".join(map(str, rgs)) for rgs in table.rgs.tolist()]
    row_of = np.repeat(np.arange(len(keys)), table.counts)
    order = np.lexsort((table.masks, row_of))
    names = _member_names(scenario.k)
    rows = [(keys[row], mask, names[mask], em.conv(value))
            for row, mask, value in zip(row_of[order].tolist(), table.masks[order].tolist(),
                                        table.values[order].tolist())]
    em.table("utilities.csv", ["rgs", "coalition_mask", "members", f"utility_{em.unit}"],
             rows, scenario)
    em.summary["data"] = {"fingerprint": table.fingerprint, "entries": len(table)}
    return em.finish()


def _cmd_core(args) -> int:
    scenario = io.load_scenario(args.scenario)
    em = _Emitter(args)
    model = ExpectationModel(args.model)
    demands, v_k = _demands_and_grand(scenario, model, None)
    result = check_core_from_demands(demands, v_k, scenario.k)
    names = _member_names(scenario.k)
    em.table("demands.csv", ["coalition_mask", "members", f"demand_{em.unit}"],
             [(m, names[m], em.conv(d)) for m, d in sorted(demands.items())],
             scenario, model=model.value, grand_value=em.conv(v_k))
    em.summary["verdict"] = result.verdict
    em.summary["data"] = {"model": model.value, "grand_value": em.conv(v_k),
                          "min_slack": result.slack}
    if result.nonempty:
        em.summary["allocation"] = [em.conv(x) for x in result.allocation]
    else:
        cert = result.certificate
        em.table(
            "certificate.csv",
            ["coalition_mask", "members", "weight"],
            [(m, names[m], w) for m, w in sorted(cert.weights.items())],
            scenario, model=model.value, margin=em.conv(cert.margin),
        )
        em.summary["certificate"] = {
            "weights": {str(m): w for m, w in sorted(cert.weights.items())},
            "margin": em.conv(cert.margin),
        }
    return em.finish()


def _cmd_least_core(args) -> int:
    scenario = io.load_scenario(args.scenario)
    em = _Emitter(args)
    model = ExpectationModel(args.model)
    result = least_core(scenario, model)
    em.summary["verdict"] = "nonempty" if result.epsilon_star <= LP_TOL else "empty"
    em.summary["epsilon_star"] = em.conv(result.epsilon_star)
    em.summary["allocation"] = [em.conv(x) for x in result.allocation]
    em.summary["data"] = {"model": model.value}
    em.table("least_core.csv", ["user", f"allocation_{em.unit}"],
             [(i + 1, em.conv(x)) for i, x in enumerate(result.allocation)],
             scenario, model=model.value, epsilon_star=em.conv(result.epsilon_star))
    return em.finish()


def _cmd_region(args) -> int:
    scenario = io.load_scenario(args.scenario)
    em = _Emitter(args)
    model = ExpectationModel(args.model)
    vertices = core_region_3user(scenario, model)
    rows = [
        (i, em.conv(x1), em.conv(x2), em.conv(x3))
        for i, (x1, x2, x3) in enumerate(vertices)
    ]
    em.table("region.csv", ["index", "x1", "x2", "x3"], rows, scenario, model=model.value)
    em.summary["verdict"] = "nonempty" if vertices else "empty"
    em.summary["data"] = {"model": model.value, "n_vertices": len(vertices)}
    return em.finish()


def _cmd_sweep(args) -> int:
    em = _Emitter(args)
    model = ExpectationModel(args.model)
    bounds = (args.snr_min, args.snr_max, args.snr_step)
    if not (all(map(math.isfinite, bounds)) and args.snr_step > 0):
        raise InvalidArgument("--snr-min, --snr-max and --snr-step must be finite, "
                              "and --snr-step > 0")
    grid = tuple(
        float(x) for x in np.arange(args.snr_min, args.snr_max + 0.5 * args.snr_step,
                                    args.snr_step)
    )
    spec = SweepSpec(tuple(range(args.k_min, args.k_max + 1)), grid)
    points = snr_boundary(spec, model)
    rows = [
        (p.k, p.status, "" if p.threshold_db is None else p.threshold_db,
         ";".join(v for v in p.grid_verdicts))
        for p in points
    ]
    em.table("boundary.csv", ["k", "status", "threshold_db", "grid_verdicts"], rows,
             model=model.value, snr_min=args.snr_min, snr_max=args.snr_max,
             snr_step=args.snr_step)
    em.summary["data"] = {
        "model": model.value,
        "thresholds": {str(p.k): p.threshold_db for p in points},
    }
    return em.finish()


def _cmd_externalities(args) -> int:
    scenario = io.load_scenario(args.scenario)
    em = _Emitter(args)
    verdict = classify_externalities(scenario, args.trials, args.seed)
    names = _member_names(scenario.k)
    rows = [
        (",".join(map(str, w.before.rgs)), ",".join(map(str, w.after.rgs)),
         names[w.coalition.mask], em.conv(w.value_before), em.conv(w.value_after),
         em.conv(w.value_after - w.value_before))
        for w in verdict.witnesses
    ]
    em.table("externalities.csv",
             ["rgs_before", "rgs_after", "external_members",
              f"value_before_{em.unit}", f"value_after_{em.unit}", "delta"],
             rows, scenario, trials=args.trials)
    em.summary["verdict"] = verdict.classification
    em.summary["data"] = {"trials": args.trials, "witnesses": len(verdict.witnesses)}
    return em.finish()


def _cmd_properties(args) -> int:
    scenario = io.load_scenario(args.scenario)
    em = _Emitter(args)
    report = verify_superadditivity(scenario, args.trials, args.seed)
    rows = [
        ("merge_superadditivity", report.trials_run, report.skipped,
         "pass" if report.counterexample is None else "fail"),
        ("cohesiveness", "all_partitions", report.skipped,
         "pass" if report.cohesive else "fail"),
    ]
    em.table("properties.csv", ["check", "trials", "skipped", "result"], rows,
             scenario, trials=args.trials,
             cohesiveness_worst=report.cohesiveness_worst)
    em.summary["verdict"] = "pass" if report.passed else "fail"
    em.summary["data"] = {
        "trials": report.trials_run,
        "skipped": report.skipped,
        "cohesiveness_worst": report.cohesiveness_worst,
    }
    return em.finish()


def _cmd_ratio(args) -> int:
    scenario = io.load_scenario(args.scenario)
    em = _Emitter(args)
    try:
        snrs = [float(s) for s in args.snr.split(",") if s.strip()]
    except ValueError:
        snrs = []
    if not snrs or not all(map(math.isfinite, snrs)):
        raise InvalidArgument("--snr needs a comma-separated list of finite dB values")
    curve = approx_ratio(scenario, snrs)
    rows = [
        (p.snr_db, p.size, em.conv(p.approx), em.conv(p.exact), p.ratio)
        for p in curve.points
    ]
    em.table("ratio.csv",
             ["snr_db", "size", f"approx_{em.unit}", f"exact_{em.unit}", "ratio"],
             rows, scenario)
    em.summary["data"] = {
        "monotonicity_violations": [list(v) for v in curve.monotonicity_violations],
    }
    return em.finish()


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="maccoop", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="output directory (default: cwd)")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--bits", action="store_true",
                        help="display utilities in bits (presentation only)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("partitions", parents=[common])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count-only", action="store_true", dest="count_only")
    p.set_defaults(fn=_cmd_partitions)

    for name, fn in (("utilities", _cmd_utilities),):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--scenario", required=True)
        p.set_defaults(fn=fn)

    for name, fn in (("core", _cmd_core), ("least-core", _cmd_least_core),
                     ("region", _cmd_region)):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--scenario", required=True)
        p.add_argument("--model", required=True,
                       choices=[m.value for m in ExpectationModel])
        p.set_defaults(fn=fn)

    p = sub.add_parser("sweep", parents=[common])
    p.add_argument("--k-min", type=int, default=2, dest="k_min")
    p.add_argument("--k-max", type=int, default=4, dest="k_max")
    p.add_argument("--snr-min", type=float, default=-30.0, dest="snr_min")
    p.add_argument("--snr-max", type=float, default=10.0, dest="snr_max")
    p.add_argument("--snr-step", type=float, default=5.0, dest="snr_step")
    p.add_argument("--model", default="rational",
                   choices=[m.value for m in ExpectationModel])
    p.set_defaults(fn=_cmd_sweep)

    for name, fn in (("externalities", _cmd_externalities),
                     ("properties", _cmd_properties)):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--scenario", required=True)
        p.add_argument("--trials", type=int, default=100)
        p.set_defaults(fn=fn)

    p = sub.add_parser("ratio", parents=[common])
    p.add_argument("--scenario", required=True)
    p.add_argument("--snr", default="0,10,20,30,40,50,60",
                   help="comma-separated SNR list in dB")
    p.set_defaults(fn=_cmd_ratio)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    t0 = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        code = args.fn(args)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except InvalidArgument as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MacCoopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"elapsed: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
