"""The benchmark's workloads: seeded inputs, one operation, and its checks.

Every workload builds a fixed-size pool of inputs from the seed (the
seed changes values, never the pool length or any input's size) and the
timed loop cycles through that pool.  The package keeps no state between
calls, so repeating an input repeats the full work, and every repeat
must give the same answer as the first run of that input.

Calls into maccoop go through module attributes (``cores.check_core``,
not a name bound at import) so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io as _stdio
import json
import math
import shutil
from pathlib import Path

import numpy as np

from maccoop import analysis, capacity, cli, cores, equilibrium, io, model

DEFAULT_SEED = 0
MODELS = tuple(cores.ExpectationModel)
TOL = 1e-9
REFERENCE = Path(__file__).with_name("reference_seed0.json")


# ---------------------------------------------------------------------------
# seeded game generation


def _rng(seed: int, slot: int) -> np.random.Generator:
    return np.random.default_rng([seed, slot])


def random_game(rng, *, k: int, m: int, receiver: str, power: str,
                antennas: tuple[int, ...]) -> model.Scenario:
    """Gaussian channels, budgets in [0.5, 2] W or caps in [0.25, 1] W,
    N0 log-uniform over +-10 dB, uniformly random SIC base order."""
    users = []
    for uid, nt in enumerate(antennas, start=1):
        channel = rng.normal(size=(m, nt))
        if power == "sum":
            budget = model.SumPower(float(rng.uniform(0.5, 2.0)))
        else:
            budget = model.PerAntenna(tuple(float(c) for c in rng.uniform(0.25, 1.0, size=nt)))
        users.append(model.UserSpec(uid, nt, channel, budget))
    noise = float(10.0 ** rng.uniform(-1.0, 1.0))
    if receiver == "sic":
        rx = model.SicFixed(tuple(int(u) + 1 for u in rng.permutation(k)))
    elif receiver == "sud":
        rx = model.Sud()
    else:
        rx = model.SicTimeShare()
    return model.Scenario(tuple(users), m, noise, rx)


def alternating(k: int, wide: bool) -> tuple[int, ...]:
    """Transmit antennas per user: 1, 2, 1, 2, ... when ``wide``, else all 1."""
    return tuple(1 + (u % 2) if wide else 1 for u in range(k))


def scenario_size(s: model.Scenario) -> dict:
    return {"k": s.k, "m": s.rx_antennas, "antennas": [u.antennas for u in s.users],
            "receiver": type(s.receiver).__name__, "power": s.power_mode}


# ---------------------------------------------------------------------------
# evidence checks shared by the library workloads


def evidence_problems(result, demands: dict[int, float], v_k: float, k: int) -> list[str]:
    """A witness meets every demand and sums to v(K); a certificate validates."""
    if result.nonempty:
        x = np.asarray(result.allocation, dtype=float)
        scale = max(1.0, abs(v_k))
        if abs(float(x.sum()) - v_k) > TOL * scale:
            return [f"witness sums to {x.sum()!r}, grand value is {v_k!r}"]
        short = [m for m, d in demands.items()
                 if sum(x[i] for i in range(k) if m >> i & 1) < d - TOL * scale]
        return [f"witness misses the demand of coalition mask {short[0]}"] if short else []
    if result.certificate is None:
        return ["empty verdict without a certificate"]
    try:
        cores.validate_certificate(result.certificate, demands, v_k, k)
    except cores.NumericalFailure as exc:
        return [f"certificate rejected: {exc}"]
    return []


def same_core_result(a, b) -> bool:
    if a.verdict != b.verdict or a.slack != b.slack:
        return False
    if a.nonempty:
        return np.array_equal(a.allocation, b.allocation)
    return a.certificate == b.certificate


def single_antenna_problems(scenario, table, rng, samples: int = 64) -> list[str]:
    """Sampled table entries against capacity.single_antenna_utilities."""
    keys = sorted(table.entries)
    for row in rng.choice(len(keys), size=min(samples, len(keys)), replace=False):
        part = model.Partition.from_rgs(keys[row])
        values = table.entries[keys[row]]
        for block in part.blocks:
            if isinstance(scenario.receiver, model.SicFixed):
                order = model.induced_order(part, scenario.receiver.base_order)
            else:  # under SUD a block's utility is that of being decoded first
                order = (block,) + tuple(b for b in part.blocks if b != block)
            want = capacity.single_antenna_utilities(scenario, part, order)[block.mask]
            if abs(values[block.mask] - want) > TOL * max(1.0, abs(want)):
                return [f"table entry {keys[row]}/{block.mask} = {values[block.mask]!r}, "
                        f"closed form gives {want!r}"]
    return []


# ---------------------------------------------------------------------------
# workloads


class GameWorkload:
    """Op: ``utility_table`` then ``check_core`` under all four models."""

    name = ""
    slots: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = [random_game(_rng(seed, i), **spec) for i, spec in enumerate(self.slots)]

    def prepare(self, workdir: Path) -> None:
        pass

    def warmup(self) -> list[str]:
        """One verdict on a small game of the first slot's kind, checked."""
        spec = dict(self.slots[0], k=4)
        spec["antennas"] = spec["antennas"][:4]
        scenario = random_game(_rng(self.seed, 999), **spec)
        table = equilibrium.utility_table(scenario)
        result = cores.check_core(scenario, MODELS[0], table=table)
        demands = cores.demand_vector(scenario, MODELS[0], table=table)
        return evidence_problems(result, demands, cores.grand_value(scenario, table=table), 4)

    def run(self, i: int):
        scenario = self.inputs[i]
        table = equilibrium.utility_table(scenario)
        return tuple(cores.check_core(scenario, m, table=table) for m in MODELS)

    def record(self, i: int, raw):
        return raw

    def same(self, a, b) -> bool:
        return all(same_core_result(x, y) for x, y in zip(a, b))

    def validate(self, i: int, results) -> list[str]:
        scenario = self.inputs[i]
        table = equilibrium.utility_table(scenario)
        problems = []
        if scenario.rx_antennas == 1:
            problems += single_antenna_problems(scenario, table, _rng(self.seed, 1000 + i))
        v_k = cores.grand_value(scenario, table=table)
        for m, result in zip(MODELS, results):
            demands = cores.demand_vector(scenario, m, table=table)
            problems += [f"{m.value}: {p}" for p in
                         evidence_problems(result, demands, v_k, scenario.k)]
        return problems

    def pin(self, i: int, results) -> dict:
        scenario = self.inputs[i]
        return {"grand_value": cores.grand_value(scenario),
                "verdicts": [r.verdict for r in results]}

    def sizes(self) -> list:
        return [scenario_size(s) for s in self.inputs]


class CoreLargeK(GameWorkload):
    name = "core_large_k"
    slots = tuple(
        {"k": 8, "m": 1, "receiver": rx, "power": pw, "antennas": alternating(8, pw != "sum")}
        for rx, pw in (("sic", "sum"), ("sud", "per_antenna"),
                       ("sud", "sum"), ("sic", "per_antenna"))
    )


class MimoEquilibria(GameWorkload):
    name = "mimo_equilibria"
    slots = tuple(
        {"k": k, "m": 2, "receiver": rx, "power": "sum", "antennas": alternating(k, True)}
        for rx, k in (("sud", 4), ("sic", 6), ("timeshare", 5), ("sud", 3), ("sic", 5),
                      ("timeshare", 4), ("sud", 4), ("sic", 6), ("timeshare", 5))
    )


class SnrSweep:
    """Op: one ``snr_boundary`` call for one K under one model."""

    name = "snr_sweep"
    k_values = (2, 3, 4, 5, 6)
    span_db = 40.0
    step_db = 5.0
    resolution_db = 0.01

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = []
        n = len(self.k_values)
        for i in range(n * len(MODELS)):
            # each K meets each model once; neighbouring ops differ in both
            k = self.k_values[i % n]
            m = MODELS[(i % n + i // n) % len(MODELS)]
            low = -25.0 + float(_rng(seed, i).uniform(0.0, self.step_db))
            grid = tuple(low + self.step_db * j
                         for j in range(int(self.span_db / self.step_db) + 1))
            self.inputs.append((analysis.SweepSpec((k,), grid), m))

    def prepare(self, workdir: Path) -> None:
        pass

    def _verdict(self, k: int, db: float, m) -> list[str] | str:
        scenario = analysis.symmetric_scenario(k, analysis.snr_db_to_noise(db))
        table = equilibrium.utility_table(scenario)
        result = cores.check_core(scenario, m, table=table)
        problems = evidence_problems(result, cores.demand_vector(scenario, m, table=table),
                                     cores.grand_value(scenario, table=table), k)
        return problems or result.verdict

    def warmup(self) -> list[str]:
        out = self._verdict(4, 0.0, MODELS[0])
        return out if isinstance(out, list) else []

    def run(self, i: int):
        spec, m = self.inputs[i]
        return analysis.snr_boundary(spec, m, resolution_db=self.resolution_db)

    def record(self, i: int, raw):
        return raw

    def same(self, a, b) -> bool:
        return a == b

    def validate(self, i: int, points) -> list[str]:
        spec, m = self.inputs[i]
        (point,) = points
        grid = spec.snr_grid_db
        flips = [(grid[j], grid[j + 1]) for j in range(len(grid) - 1)
                 if point.grid_verdicts[j] != point.grid_verdicts[j + 1]]
        if tuple(flips) != point.transitions and point.status != "outside_grid":
            return [f"transitions {point.transitions} do not match grid verdicts"]
        if point.status == "outside_grid":
            if flips:
                return ["boundary reported outside a grid whose verdicts flip"]
            checks = [(grid[0], point.grid_verdicts[0]), (grid[-1], point.grid_verdicts[-1])]
        elif point.status == "found":
            lo, hi = flips[0]
            thr = point.threshold_db
            if not lo <= thr <= hi:
                return [f"threshold {thr} outside its bracket {flips[0]}"]
            res = self.resolution_db
            checks = [(thr - res, "nonempty"), (thr + res, "empty")]
        else:
            return [f"unexpected boundary status {point.status}"]
        problems = []
        for db, want in checks:
            got = self._verdict(spec.k_values[0], db, m)
            if isinstance(got, list):
                problems += [f"K={spec.k_values[0]} at {db} dB: {p}" for p in got]
            elif got != want:
                problems.append(f"K={spec.k_values[0]} at {db} dB is {got}, expected {want}")
        return problems

    def pin(self, i: int, points) -> dict:
        (point,) = points
        return {"status": point.status, "threshold_db": point.threshold_db,
                "grid_verdicts": list(point.grid_verdicts)}

    def sizes(self) -> list:
        return [{"k": spec.k_values, "grid_points": len(spec.snr_grid_db), "model": m.value}
                for spec, m in self.inputs]


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))[1:]


class CliPipeline:
    """Op: one in-process ``maccoop.cli.main(argv)`` call."""

    name = "cli_pipeline"
    # (subcommand, scenario file, extra flags).  Five cheap calls, two of
    # 0.15-0.3 s on the single-antenna game, two SUD calls whose cost
    # depends on the channel, three heavy single-antenna calls: the
    # median then falls on the two middle calls and the tail among the
    # heavy ones, both of which cost the same for every seed.
    commands = (
        ("utilities", "sic8", ()),
        ("core", "sud5-1", ("--model", "rational")),
        ("ratio", "ts3", ("--snr", "0,10,20,30,40,50,60")),
        ("core", "sic8", ("--model", "rational")),
        ("core", "sic8", ("--model", "merging")),
        ("least-core", "ts3", ("--model", "cautious")),
        ("properties", "sic8", ("--trials", "200")),
        ("externalities", "sic8", ("--trials", "400")),
        ("least-core", "sic8", ("--model", "merging")),
        ("properties", "sud5-2", ("--trials", "30")),
        ("least-core", "sic8", ("--model", "cautious")),
        ("core", "ts3", ("--model", "singleton")),
    )

    def __init__(self, seed: int):
        self.seed = seed
        rng = _rng(seed, 0)
        self.scenarios = {
            "sic8": random_game(rng, k=8, m=1, receiver="sic", power="per_antenna",
                                antennas=alternating(8, True)),
            # ratio needs identical users: one gain, one budget, one noise
            "ts3": analysis.symmetric_scenario(
                3, float(10.0 ** rng.uniform(-1.0, 1.0)), model.SicTimeShare(),
                power=float(rng.uniform(0.5, 2.0)), gain=float(rng.uniform(0.5, 2.0))),
        }
        # one SUD game per command: the damped fixed point's cost depends
        # on the channel, and independent games average that out
        for n in (1, 2):
            self.scenarios[f"sud5-{n}"] = random_game(
                rng, k=5, m=2, receiver="sud", power="sum", antennas=alternating(5, True))
        self.inputs = [(cmd, scen, flags) for cmd, scen, flags in self.commands]
        self.workdir: Path | None = None

    def prepare(self, workdir: Path) -> None:
        self.workdir = workdir
        for name, scenario in self.scenarios.items():
            io.save_scenario(scenario, workdir / f"{name}.json")

    def _argv(self, cmd, scen, flags, out: Path) -> list[str]:
        return [cmd, "--scenario", str(self.workdir / f"{scen}.json"), *flags,
                "--seed", str(self.seed), "--out", str(out)]

    def _call(self, argv: list[str]) -> tuple[int, str]:
        stdout, stderr = _stdio.StringIO(), _stdio.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stdout.getvalue()

    def _out(self, i: int) -> Path:
        return self.workdir / "out" / str(i)

    def warmup(self) -> list[str]:
        out = self.workdir / "out" / "warmup"
        code, stdout = self._call(["core", "--scenario", str(self.workdir / "ts3.json"),
                                   "--model", "rational", "--out", str(out)])
        if code != 0:
            return [f"warm-up core exited with {code}"]
        return self._core_problems(out, json.loads(stdout), self.scenarios["ts3"].k)

    def run(self, i: int):
        out = self._out(i)
        shutil.rmtree(out, ignore_errors=True)
        return self._call(self._argv(*self.inputs[i], out))

    def record(self, i: int, raw):
        """Exit code plus digests of stdout and every file written."""
        code, stdout = raw
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(self._out(i).iterdir())} if self._out(i).is_dir() else {}
        return code, hashlib.sha256(stdout.encode()).hexdigest(), files

    def same(self, a, b) -> bool:
        return a == b

    def _core_problems(self, out: Path, summary: dict, k: int) -> list[str]:
        """Check the summary's witness or certificate against demands.csv.

        The CSV rounds demands to 12 significant digits, far inside TOL.
        """
        demands = {int(r[0]): float(r[2]) for r in _csv_rows(out / "demands.csv")}
        if summary["verdict"] == "nonempty":
            result = cores.CoreResult("nonempty", np.array(summary["allocation"]), None, None)
        else:
            cert = summary["certificate"]
            weights = {int(m): w for m, w in cert["weights"].items()}
            result = cores.CoreResult("empty", None,
                                      cores.BalancedCertificate(weights, cert["margin"]), None)
        return evidence_problems(result, demands, summary["data"]["grand_value"], k)

    def validate(self, i: int, result) -> list[str]:
        code, _, files = result
        cmd, scen, _ = self.inputs[i]
        if code != 0:
            return [f"{cmd} exited with {code}"]
        out = self._out(i)
        summary = json.loads((out / "summary.json").read_text())
        problems = [] if summary["timings"] is None else ["summary timings is not null"]
        if "summary.json" not in files or len(files) < 2:
            problems.append(f"{cmd} wrote {sorted(files)}")
        scenario = self.scenarios[scen]
        if cmd == "core":
            problems += self._core_problems(out, summary, scenario.k)
        if cmd == "utilities" and scenario.rx_antennas == 1:
            entries: dict = {}
            for rgs, mask, _, value in _csv_rows(out / "utilities.csv"):
                rgs_key = tuple(int(x) for x in rgs.split(","))
                entries.setdefault(rgs_key, {})[int(mask)] = float(value)
            table = equilibrium.UtilityTable(scenario.k, "", entries)
            problems += single_antenna_problems(scenario, table, _rng(self.seed, 1000 + i))
        return problems

    def pin(self, i: int, result) -> dict:
        summary = json.loads((self._out(i) / "summary.json").read_text())
        return {"verdict": summary["verdict"],
                "grand_value": summary["data"].get("grand_value")}

    def sizes(self) -> list:
        return [{"command": cmd, **scenario_size(self.scenarios[scen]), "flags": list(flags)}
                for cmd, scen, flags in self.inputs]


WORKLOADS = {w.name: w for w in (CoreLargeK, MimoEquilibria, SnrSweep, CliPipeline)}


def load_reference(name: str) -> list | None:
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(name)


def reference_problems(expected: dict, got: dict) -> list[str]:
    problems = []
    for key, want in expected.items():
        have = got.get(key)
        if isinstance(want, float) and isinstance(have, float):
            if not math.isclose(have, want, rel_tol=TOL, abs_tol=TOL):
                problems.append(f"{key} = {have!r}, reference {want!r}")
        elif have != want:
            problems.append(f"{key} = {have!r}, reference {want!r}")
    return problems
