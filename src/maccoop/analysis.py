"""Property verifiers and figure-reproduction sweeps.

Randomized checks (merge super-additivity, externality signs) sample
partitions with a seeded generator so every run is reproducible; sweep
outputs are ordered by (K, SNR).  SNR is defined as 1/N0 and quoted in
dB via 10*log10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .capacity import timeshare_highsnr_utility
from .cores import CORE_MAX_USERS, ExpectationModel, check_core, grand_value
from .equilibrium import _single_rx_fast_path, ne_timeshare, ne_utilities, utility_table
from .errors import InvalidArgument, NonConvergence
from .model import (
    Coalition,
    Partition,
    Scenario,
    SicFixed,
    SicTimeShare,
    SumPower,
    UserSpec,
    enumerate_partitions,
)


def snr_db_to_noise(snr_db: float) -> float:
    return 10.0 ** (-snr_db / 10.0)


def symmetric_scenario(k: int, n0: float = 1.0, receiver=None, power: float = 1.0,
                       gain: float = 1.0) -> Scenario:
    """Identical single-antenna users: unit-style gain and power budget."""
    if receiver is None:
        receiver = SicFixed(tuple(range(1, k + 1)))
    users = tuple(
        UserSpec(i + 1, 1, np.array([[gain]]), SumPower(power)) for i in range(k)
    )
    return Scenario(users, 1, n0, receiver)


# ---------------------------------------------------------------------------
# sampled properties


@dataclass(frozen=True)
class MergeSample:
    before: Partition
    after: Partition
    merged: Coalition
    merged_value: float
    parts_total: float


@dataclass(frozen=True)
class SuperadditivityReport:
    passed: bool
    trials_run: int
    skipped: int
    counterexample: MergeSample | None
    cohesive: bool
    cohesiveness_worst: float  # max over partitions of (total utility - v(K))


@dataclass(frozen=True)
class ExternalityWitness:
    before: Partition
    after: Partition
    coalition: Coalition
    value_before: float
    value_after: float


@dataclass(frozen=True)
class ExternalityVerdict:
    classification: str  # "negative" | "positive" | "mixed"
    witnesses: tuple[ExternalityWitness, ...]


def _random_partition(rng: np.random.Generator, k: int, min_blocks: int) -> Partition:
    for _ in range(1000):
        labels = [0]
        top = 0
        for _ in range(k - 1):
            lab = int(rng.integers(0, top + 2))
            labels.append(lab)
            top = max(top, lab)
        part = Partition.from_rgs(labels)
        if len(part) >= min_blocks:
            return part
    raise InvalidArgument(f"cannot sample a partition of {k} with {min_blocks}+ blocks")


class _ValueCache:
    """Equilibrium values per partition: ``known`` rows or lazy solves; stalls become skips."""

    def __init__(self, scenario: Scenario, known: dict | None = None):
        self.scenario = scenario
        self._cache: dict[tuple[int, ...], dict[int, float] | None] = known or {}

    def get(self, partition: Partition) -> dict[int, float] | None:
        key = partition.rgs
        if key not in self._cache:
            try:
                self._cache[key] = ne_utilities(self.scenario, partition)
            except NonConvergence:
                self._cache[key] = None
        return self._cache[key]


def verify_superadditivity(
    scenario: Scenario,
    trials: int,
    seed: int,
    *,
    tol: float = 1e-8,
) -> SuperadditivityReport:
    """Sampled merge super-additivity plus exhaustive cohesiveness.

    Each trial samples a partition and a random sub-collection of its
    blocks, merges them, and checks that the merged block's equilibrium
    utility is at least the sum of the parts' (within ``tol``).
    Cohesiveness (no partition's total utility beats the grand
    coalition's) is checked over every partition, not sampled.
    """
    if trials < 1:
        raise InvalidArgument("trials must be >= 1")
    rng = np.random.default_rng(seed)
    # every partition is visited, so one closed-form table beats a solve each
    table = utility_table(scenario) if _single_rx_fast_path(scenario) else None
    cache = _ValueCache(scenario, table.entries if table is not None else None)
    k = scenario.k
    skipped = 0
    counterexample = None
    passed = True
    for _ in range(trials):
        if k < 2:
            break
        before = _random_partition(rng, k, 2)
        n = len(before)
        r = int(rng.integers(2, n + 1))
        chosen = rng.choice(n, size=r, replace=False)
        chosen_masks = [before.blocks[i].mask for i in chosen]
        merged_mask = 0
        for m in chosen_masks:
            merged_mask |= m
        keep = [b for b in before.blocks if b.mask not in chosen_masks]
        after = Partition(k, tuple(keep) + (Coalition(merged_mask),))
        vals_before = cache.get(before)
        vals_after = cache.get(after)
        if vals_before is None or vals_after is None:
            skipped += 1
            continue
        parts_total = sum(vals_before[m] for m in chosen_masks)
        merged_value = vals_after[merged_mask]
        if merged_value < parts_total - tol:
            passed = False
            if counterexample is None:
                counterexample = MergeSample(before, after, Coalition(merged_mask),
                                             merged_value, parts_total)
    v_k = grand_value(scenario, table=table)
    worst = -math.inf
    cohesive = True
    for part in enumerate_partitions(k):
        vals = cache.get(part)
        if vals is None:
            skipped += 1
            continue
        gap = sum(vals.values()) - v_k
        worst = max(worst, gap)
        if gap > tol:
            cohesive = False
    return SuperadditivityReport(passed and cohesive, trials, skipped,
                                 counterexample, cohesive, worst)


def classify_externalities(
    scenario: Scenario,
    trials: int,
    seed: int,
    *,
    tol: float = 1e-9,
) -> ExternalityVerdict:
    """Sign of outsider utility changes across sampled two-block mergers.

    Samples partitions with at least three blocks, merges two, and
    compares every remaining block's equilibrium utility before and
    after.  "mixed" requires a strict witness of each sign; with no
    strict positive witness the game is classified "negative".
    """
    if trials < 1:
        raise InvalidArgument("trials must be >= 1")
    if scenario.k < 3:
        raise InvalidArgument("externalities need at least 3 users")
    rng = np.random.default_rng(seed)
    cache = _ValueCache(scenario)
    witnesses: list[ExternalityWitness] = []
    has_pos = False
    has_neg = False
    for _ in range(trials):
        before = _random_partition(rng, scenario.k, 3)
        i, j = rng.choice(len(before), size=2, replace=False)
        merged = Coalition(before.blocks[i].mask | before.blocks[j].mask)
        externals = [b for idx, b in enumerate(before.blocks) if idx not in (i, j)]
        after = Partition(scenario.k, tuple(externals) + (merged,))
        vals_before = cache.get(before)
        vals_after = cache.get(after)
        if vals_before is None or vals_after is None:
            continue
        for ext in externals:
            vb = vals_before[ext.mask]
            va = vals_after[ext.mask]
            witnesses.append(ExternalityWitness(before, after, ext, vb, va))
            if va > vb + tol:
                has_pos = True
            elif va < vb - tol:
                has_neg = True
    if has_pos and has_neg:
        kind = "mixed"
    elif has_pos:
        kind = "positive"
    else:
        kind = "negative"
    return ExternalityVerdict(kind, tuple(witnesses))


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepSpec:
    """Symmetric-template sweep: which K values, which SNR grid (dB)."""

    k_values: tuple[int, ...]
    snr_grid_db: tuple[float, ...]

    def __post_init__(self):
        grid = tuple(float(x) for x in self.snr_grid_db)
        if len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidArgument("SNR grid must be strictly increasing, length >= 2")
        ks = tuple(int(k) for k in self.k_values)
        if any(k < 2 or k > CORE_MAX_USERS for k in ks):
            raise InvalidArgument(f"boundary sweeps need 2 <= K <= {CORE_MAX_USERS}")
        object.__setattr__(self, "snr_grid_db", grid)
        object.__setattr__(self, "k_values", ks)


@dataclass(frozen=True)
class BoundaryPoint:
    k: int
    status: str  # "found" | "outside_grid" | "multiple"
    threshold_db: float | None
    #: verdicts on the requested grid, "nonempty"/"empty" per point
    grid_verdicts: tuple[str, ...]
    #: all (last-nonempty, first-empty) flip brackets found on the grid
    transitions: tuple[tuple[float, float], ...] = field(default=())


def _symmetric_verdict(k: int, snr_db: float, model: ExpectationModel,
                       tol_lp: float) -> str:
    scenario = symmetric_scenario(k, snr_db_to_noise(snr_db))
    table = utility_table(scenario)
    return check_core(scenario, model, tol_lp=tol_lp, table=table).verdict


def snr_boundary(spec: SweepSpec, model: ExpectationModel, *,
                 tol_lp: float = 1e-9, resolution_db: float = 0.01) -> list[BoundaryPoint]:
    """Empty/nonempty core boundary vs SNR for symmetric fixed-order games.

    For each K the grid verdicts are computed first; a single
    nonempty-to-empty flip is bisected to ``resolution_db`` and reported
    as the threshold (the largest SNR still nonempty, within
    resolution).  Multiple flips are reported verbatim, and a grid with
    no flip reports the boundary as outside the grid.
    """
    out: list[BoundaryPoint] = []
    for k in spec.k_values:
        verdicts = tuple(
            _symmetric_verdict(k, db, model, tol_lp) for db in spec.snr_grid_db
        )
        flips = [
            (spec.snr_grid_db[i], spec.snr_grid_db[i + 1])
            for i in range(len(verdicts) - 1)
            if verdicts[i] != verdicts[i + 1]
        ]
        monotone = all(
            a == "nonempty" and b == "empty"
            for (a, b) in zip(verdicts, verdicts[1:])
            if a != b
        )
        if not flips:
            out.append(BoundaryPoint(k, "outside_grid", None, verdicts))
            continue
        if len(flips) > 1 or not monotone:
            out.append(BoundaryPoint(k, "multiple", None, verdicts, tuple(flips)))
            continue
        lo, hi = flips[0]
        while hi - lo > resolution_db:
            mid = 0.5 * (lo + hi)
            if _symmetric_verdict(k, mid, model, tol_lp) == "nonempty":
                lo = mid
            else:
                hi = mid
        out.append(BoundaryPoint(k, "found", 0.5 * (lo + hi), verdicts, tuple(flips)))
    return out


@dataclass(frozen=True)
class RatioPoint:
    snr_db: float
    size: int
    approx: float
    exact: float

    @property
    def ratio(self) -> float:
        return self.approx / self.exact if self.exact else 1.0


@dataclass(frozen=True)
class RatioCurve:
    points: tuple[RatioPoint, ...]
    #: grid points above 20 dB where |1 - ratio| failed to shrink
    monotonicity_violations: tuple[tuple[int, float], ...]


def _require_symmetric_timeshare(scenario: Scenario) -> None:
    if not isinstance(scenario.receiver, SicTimeShare) or scenario.receiver.weights is not None:
        raise InvalidArgument("ratio curves require the uniform time-share receiver")
    first = scenario.users[0]
    for u in scenario.users[1:]:
        same = (
            u.antennas == first.antennas
            and np.array_equal(u.channel, first.channel)
            and u.power == first.power
        )
        if not same:
            raise InvalidArgument("ratio curves require identical (symmetric) users")


def approx_ratio(scenario: Scenario, snr_list_db: Sequence[float]) -> RatioCurve:
    """Dominant-term vs exact time-shared utility, per coalition size.

    For size s the coalition {1..s} deviates against the merged
    complement; "exact" is the time-shared equilibrium utility of that
    two-block game and "approx" keeps only the interference-free term
    weighted by s/K.  For the grand coalition the two coincide, so its
    ratio is exactly one.  Whether |1 - ratio| shrinks along the grid
    above 20 dB is reported, not enforced.
    """
    _require_symmetric_timeshare(scenario)
    k = scenario.k
    points: list[RatioPoint] = []
    for snr_db in snr_list_db:
        at_noise = scenario.with_noise(snr_db_to_noise(float(snr_db)))
        for size in range(1, k + 1):
            coalition = Coalition.from_members(range(1, size + 1))
            if size == k:
                partition = Partition.grand(k)
            else:
                complement = Coalition.from_members(range(size + 1, k + 1))
                partition = Partition(k, (coalition, complement))
            exact = ne_timeshare(at_noise, partition)[coalition.mask]
            approx = timeshare_highsnr_utility(at_noise, coalition)
            points.append(RatioPoint(float(snr_db), size, approx, exact))
    violations: list[tuple[int, float]] = []
    for size in range(1, k + 1):
        series = [p for p in points if p.size == size]
        for prev, cur in zip(series, series[1:]):
            if cur.snr_db <= 20.0:
                continue
            if abs(1.0 - cur.ratio) > abs(1.0 - prev.ratio) + 1e-12:
                violations.append((size, cur.snr_db))
    return RatioCurve(tuple(points), tuple(violations))
