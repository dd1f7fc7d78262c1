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
import functools
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
    _lp_of,
    core_region_3user,
    least_core,
)
from .equilibrium import _label_masks, utility_table
from .errors import InvalidArgument, MacCoopError, NumericalFailure
from .model import bell_number, block_counts, rgs_matrix

LN2 = math.log(2.0)

#: Most SNR grid points a sweep takes (10 000 points span 100 dB at 0.01 dB).
SWEEP_MAX_POINTS = 10_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we want 1
        raise _UsageError(message)


def _member_names(k: int) -> np.ndarray:
    """Entry ``mask`` lists the members of coalition ``mask``, ascending and space separated."""
    names = [""]
    for mask in range(1, 1 << k):
        rest = mask & (mask - 1)  # all but the lowest member
        lowest = str((mask ^ rest).bit_length())
        names.append(f"{lowest} {names[rest]}" if rest else lowest)
    return np.array(names)


def _joined(words: np.ndarray, index: np.ndarray, sep: str) -> np.ndarray:
    """Row r joins ``words[index[r, j]]`` over columns j by ``sep``, skipping empty words
    after the first column: one string add per column."""
    tails = np.char.add(sep, words)
    tails[words == ""] = ""
    out = words[index[:, 0]]
    for col in index.T[1:]:
        out = np.char.add(out, tails[col])
    return out


def _rgs_keys(rgs: np.ndarray) -> np.ndarray:
    """Each RGS row's labels joined by commas."""
    return _joined(np.array([str(j) for j in range(rgs.shape[1])]), rgs, ",")


def _by_mask(values: dict) -> tuple[np.ndarray, np.ndarray]:
    """A mask-keyed dict as ascending masks and their float values."""
    masks = sorted(values)
    return (np.array(masks, dtype=np.int64),
            np.array([values[m] for m in masks], dtype=np.float64))


class _SlicedColumn:
    """A table column built a slice of rows at a time, as the writer asks for it."""

    def __init__(self, n: int, cells):
        self.n = n
        self.cells = cells

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, rows: slice):
        return self.cells(rows)


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

    def conv(self, nats):
        """Nats to the display unit; a float or a float64 array."""
        return nats / LN2 if self.args.bits else nats

    def table(self, name: str, header, columns, scenario=None, **extra):
        meta = io.table_meta(
            scenario,
            seed=self.args.seed,
            unit=self.unit,
            **extra,
        )
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / name
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            io.write_table(fh, header, columns, meta)

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
    rgs = rgs_matrix(args.k)
    masks = _label_masks(rgs)  # label order, 0 past the last block
    names = _member_names(args.k)
    n = len(rgs)
    em.table("partitions.csv", ["index", "rgs", "blocks", "n_blocks"],
             [np.arange(n), _SlicedColumn(n, lambda rows: _rgs_keys(rgs[rows])),
              _SlicedColumn(n, lambda rows: _joined(names, masks[rows], "|")),
              block_counts(rgs)], k=args.k)
    em.summary["data"] = {"k": args.k, "count": n}
    return em.finish()


def _cmd_utilities(args) -> int:
    scenario = io.load_scenario(args.scenario)
    em = _Emitter(args)
    table = utility_table(scenario)
    # table rows come in lexicographic RGS order; each row's blocks go by mask
    row_of = np.repeat(np.arange(len(table.rgs)), table.counts)
    order = np.lexsort((table.masks, row_of))
    masks = table.masks[order]
    keys, names, n = _rgs_keys(table.rgs), _member_names(scenario.k), len(masks)
    em.table("utilities.csv", ["rgs", "coalition_mask", "members", f"utility_{em.unit}"],
             [_SlicedColumn(n, lambda rows: keys[row_of[rows]]), masks,
              _SlicedColumn(n, lambda rows: names[masks[rows]]),
              em.conv(table.values[order])], scenario)
    em.summary["data"] = {"fingerprint": table.fingerprint, "entries": len(table)}
    return em.finish()


def _cmd_core(args) -> int:
    scenario = io.load_scenario(args.scenario)
    em = _Emitter(args)
    model = ExpectationModel(args.model)
    d, v_k, table = _demands_and_grand(scenario, model, None)
    result, _ = _lp_of(table).check(d, v_k)
    names = _member_names(scenario.k)
    masks = np.arange(1, len(d) + 1)
    em.table("demands.csv", ["coalition_mask", "members", f"demand_{em.unit}"],
             [masks, names[masks], em.conv(d)],
             scenario, model=model.value, grand_value=em.conv(v_k))
    em.summary["verdict"] = result.verdict
    em.summary["data"] = {"model": model.value, "grand_value": em.conv(v_k),
                          "min_slack": em.conv(result.slack)}
    if result.nonempty:
        em.summary["allocation"] = [em.conv(x) for x in result.allocation]
    else:
        cert = result.certificate
        masks, weights = _by_mask(cert.weights)
        em.table("certificate.csv", ["coalition_mask", "members", "weight"],
                 [masks, names[masks], weights],
                 scenario, model=model.value, margin=em.conv(cert.margin))
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
    allocation = np.asarray(result.allocation, dtype=np.float64)
    em.table("least_core.csv", ["user", f"allocation_{em.unit}"],
             [np.arange(1, len(allocation) + 1), em.conv(allocation)],
             scenario, model=model.value, epsilon_star=em.conv(result.epsilon_star))
    return em.finish()


def _cmd_region(args) -> int:
    scenario = io.load_scenario(args.scenario)
    em = _Emitter(args)
    model = ExpectationModel(args.model)
    vertices = core_region_3user(scenario, model)
    xs = em.conv(np.array(vertices, dtype=np.float64).reshape(-1, 3))
    em.table("region.csv", ["index", "x1", "x2", "x3"],
             [np.arange(len(xs)), xs[:, 0], xs[:, 1], xs[:, 2]], scenario, model=model.value)
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
    stop = args.snr_max + 0.5 * args.snr_step
    # np.arange makes ceil(span / step) points, at most the cap exactly when
    # span / step is; asked before it allocates (an overflowing span fails too)
    if not (stop - args.snr_min) / args.snr_step <= SWEEP_MAX_POINTS:
        raise InvalidArgument(f"the SNR grid would hold more than {SWEEP_MAX_POINTS} points")
    grid = tuple(float(x) for x in np.arange(args.snr_min, stop, args.snr_step))
    spec = SweepSpec(tuple(range(args.k_min, args.k_max + 1)), grid)
    points = snr_boundary(spec, model)
    em.table("boundary.csv", ["k", "status", "threshold_db", "grid_verdicts"],
             [[p.k for p in points], [p.status for p in points],
              ["" if p.threshold_db is None else p.threshold_db for p in points],
              [";".join(p.grid_verdicts) for p in points]],
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
    before, after = verdict.values_before, verdict.values_after
    em.table("externalities.csv",
             ["rgs_before", "rgs_after", "external_members",
              f"value_before_{em.unit}", f"value_after_{em.unit}", "delta"],
             [_rgs_keys(verdict.rgs_before), _rgs_keys(verdict.rgs_after),
              _member_names(scenario.k)[verdict.masks], em.conv(before), em.conv(after),
              em.conv(after - before)],
             scenario, trials=args.trials)
    em.summary["verdict"] = verdict.classification
    em.summary["data"] = {"trials": args.trials, "witnesses": len(before)}
    return em.finish()


def _cmd_properties(args) -> int:
    scenario = io.load_scenario(args.scenario)
    em = _Emitter(args)
    report = verify_superadditivity(scenario, args.trials, args.seed)
    worst = em.conv(report.cohesiveness_worst)
    em.table("properties.csv", ["check", "trials", "skipped", "result"],
             [["merge_superadditivity", "cohesiveness"],
              [report.trials_run, "all_partitions"],
              [report.skipped, report.skipped],
              ["pass" if report.counterexample is None else "fail",
               "pass" if report.cohesive else "fail"]],
             scenario, trials=args.trials, cohesiveness_worst=worst)
    em.summary["verdict"] = "pass" if report.passed else "fail"
    em.summary["data"] = {
        "trials": report.trials_run,
        "skipped": report.skipped,
        "cohesiveness_worst": worst,
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
    points = curve.points
    em.table("ratio.csv",
             ["snr_db", "size", f"approx_{em.unit}", f"exact_{em.unit}", "ratio"],
             [np.array([p.snr_db for p in points], dtype=np.float64),
              np.array([p.size for p in points], dtype=np.int64),
              em.conv(np.array([p.approx for p in points], dtype=np.float64)),
              em.conv(np.array([p.exact for p in points], dtype=np.float64)),
              np.array([p.ratio for p in points], dtype=np.float64)],
             scenario)
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

    p = sub.add_parser("utilities", parents=[common])
    p.add_argument("--scenario", required=True)

    for name in ("core", "least-core", "region"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--scenario", required=True)
        p.add_argument("--model", required=True,
                       choices=[m.value for m in ExpectationModel])

    p = sub.add_parser("sweep", parents=[common])
    p.add_argument("--k-min", type=int, default=2, dest="k_min")
    p.add_argument("--k-max", type=int, default=4, dest="k_max")
    p.add_argument("--snr-min", type=float, default=-30.0, dest="snr_min")
    p.add_argument("--snr-max", type=float, default=10.0, dest="snr_max")
    p.add_argument("--snr-step", type=float, default=5.0, dest="snr_step")
    p.add_argument("--model", default="rational",
                   choices=[m.value for m in ExpectationModel])

    for name in ("externalities", "properties"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--scenario", required=True)
        p.add_argument("--trials", type=int, default=100)

    p = sub.add_parser("ratio", parents=[common])
    p.add_argument("--scenario", required=True)
    p.add_argument("--snr", default="0,10,20,30,40,50,60",
                   help="comma-separated SNR list in dB")
    return parser


#: The parser, built on first use and then shared by every call: it is
#: configuration only, and parsing keeps nothing of a call in it.
_parser = functools.cache(_build_parser)


def _command(name: str):
    """The function of subcommand ``name``: this module's ``_cmd_<name>``, dashes
    read as underscores, looked up when it is called."""
    return globals()["_cmd_" + name.replace("-", "_")]


def main(argv=None) -> int:
    parser = _parser()
    t0 = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        code = _command(args.command)(args)
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
