"""Property verifiers and figure-reproduction sweeps.

Randomized checks (merge super-additivity, externality signs) sample
partitions with a seeded generator so every run is reproducible; sweep
outputs are ordered by (K, SNR).  SNR is defined as 1/N0 and quoted in
dB via 10*log10.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .capacity import timeshare_highsnr_utility
from . import _kernels
from .cores import (CORE_MAX_USERS, ExpectationModel, _CoreLp, _expectation_model, _model_rows,
                    _read_index, grand_value)
from .equilibrium import (
    _closed_form_layout,
    _every_partition,
    _require_mask_bits,
    _table_and_stalls,
    _table_of,
    require_uniform_timeshare,
)
from .errors import InvalidArgument
from .model import (
    Coalition,
    Partition,
    Scenario,
    SicFixed,
    SicTimeShare,
    SumPower,
    UserSpec,
    _grand_power,
)


#: Margin a merged block may fall short of its parts' total (and a
#: partition's total may exceed the grand coalition's) and still pass.
SUPERADDITIVITY_TOL = 1e-8
#: Smallest outsider utility change that counts as an externality.
EXTERNALITY_TOL = 1e-9


def snr_db_to_noise(snr_db: float) -> float:
    return 10.0 ** (-snr_db / 10.0)


def _outside_float_range(snr_db: float, power: float) -> bool:
    """True unless N0 = 10^(-SNR/10) is a finite positive float and power/N0 is finite.

    Given a game's :func:`_grand_power`, its largest power-to-noise ratio
    (the grand coalition's), every utility of the game at this SNR is
    finite exactly when this is False.
    """
    try:
        n0 = snr_db_to_noise(snr_db)
    except OverflowError:
        return True
    return not (0.0 < n0 < math.inf and power / n0 < math.inf)


def _require_float_range(snr_list_db, power: float, what: str) -> None:
    """Raise InvalidArgument at the first SNR (dB) outside :func:`_outside_float_range`
    for a grand-coalition power P = ``power``, which ``what`` names."""
    outside = next((db for db in snr_list_db if _outside_float_range(db, power)), None)
    if outside is not None:
        raise InvalidArgument(f"SNR {outside!r} dB is out of range: N0 = 10^(-SNR/10) "
                              f"must be a finite positive float with P/N0 finite for "
                              f"{what}")


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


@dataclass(frozen=True, eq=False)
class ExternalityVerdict:
    """The externality audit's classification and its witnesses, one per array row.

    Witness i is the outsider block ``masks[i]`` of the partition with
    restricted growth string ``rgs_before[i]``, worth ``values_before[i]``
    nats there and ``values_after[i]`` in ``rgs_after[i]``, the partition
    after the merger.  :attr:`witnesses` lists them as
    :class:`ExternalityWitness` objects, built on first read.  Two
    verdicts are equal when their classifications and arrays are.
    """

    classification: str  # "negative" | "positive" | "mixed"
    rgs_before: np.ndarray  # (witnesses, K) int8
    rgs_after: np.ndarray  # (witnesses, K) int8
    masks: np.ndarray  # (witnesses,) int16
    values_before: np.ndarray  # (witnesses,) float64
    values_after: np.ndarray  # (witnesses,) float64

    @functools.cached_property
    def witnesses(self) -> tuple[ExternalityWitness, ...]:
        return tuple(
            ExternalityWitness(Partition.from_rgs(b), Partition.from_rgs(a), Coalition(m), vb, va)
            for b, a, m, vb, va in zip(self.rgs_before.tolist(), self.rgs_after.tolist(),
                                       self.masks.tolist(), self.values_before.tolist(),
                                       self.values_after.tolist()))

    def __eq__(self, other):
        if not isinstance(other, ExternalityVerdict):
            return NotImplemented
        return self.classification == other.classification and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)[1:])


def _seeded(seed: int) -> np.random.Generator:
    """The audits' generator; numpy seeds it from a nonnegative integer only."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidArgument(f"seed must be a nonnegative integer, got {seed!r}")
    return np.random.default_rng(seed)


def _require_trials(trials: int) -> None:
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise InvalidArgument(f"trials must be an integer >= 1, got {trials!r}")


#: Superadditivity trials drawn and then read as arrays at a time, so the
#: audit's memory does not grow with the trial count.
TRIAL_CHUNK = 4096


def _random_labels(rng: np.random.Generator, k: int, min_blocks: int) -> tuple[list[int], int]:
    """A random partition's restricted growth string and its block count.

    User 1 takes label 0 and each later user one of the labels in use or
    the next new one, uniformly (``rng.integers(0, top + 2)``).  A string
    of fewer than ``min_blocks`` blocks is drawn again, up to 1000 times.
    """
    integers = rng.integers
    for _ in range(1000):
        labels = [0]
        top = 0
        for _ in range(k - 1):
            lab = int(integers(0, top + 2))
            labels.append(lab)
            if lab > top:
                top = lab
        if top >= min_blocks - 1:
            return labels, top + 1
    raise InvalidArgument(f"cannot sample a partition of {k} with {min_blocks}+ blocks")


def _packed_keys(rgs: np.ndarray) -> np.ndarray:
    """Each RGS row as one int64, 4 bits per label, the first user's highest.

    Keys order as their rows do lexicographically, so the keys of
    :func:`rgs_matrix` come sorted.  K <= 15 labels fit in 60 bits.
    """
    keys = np.zeros(len(rgs), dtype=np.int64)
    for col in rgs.T:
        keys = keys << 4 | col
    return keys


def _merged(rgs: np.ndarray, chosen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each RGS row with its ``chosen`` labels merged into one block.

    ``chosen`` holds a row's merged labels, padded with -1.  Returns the
    merged rows and ``relabel``, where label l of row r becomes
    ``relabel[r, l]``.  The merged block takes the lowest chosen label,
    whose first member is the merged block's first; every other label
    drops by the number of merged-away labels below it.  So the merged
    rows stay restricted growth strings, labels in order of first
    appearance.
    """
    rows, k = rgs.shape
    taken = np.where(chosen >= 0, chosen, k)  # padding lands in a spare column k
    low = taken.min(axis=1)
    gone = np.zeros((rows, k + 1), dtype=bool)
    np.put_along_axis(gone, taken, True, axis=1)
    gone = gone[:, :k]
    gone[np.arange(rows), low] = False
    relabel = np.where(gone, low[:, None], np.arange(k) - np.cumsum(gone, axis=1))
    return np.take_along_axis(relabel, rgs.astype(np.intp), axis=1).astype(np.int8), relabel


def verify_superadditivity(
    scenario: Scenario,
    trials: int,
    seed: int,
) -> SuperadditivityReport:
    """Sampled merge super-additivity plus exhaustive cohesiveness.

    Each trial samples a partition (:func:`_random_labels`) and a random
    sub-collection of its blocks (``rng.integers(2, n + 1)`` blocks,
    ``rng.choice(n, size=r, replace=False)``), merges them, and checks
    that the merged block's equilibrium utility is at least the sum of
    the parts' (within ``SUPERADDITIVITY_TOL``), added left to right in
    the order drawn.  Cohesiveness (no partition's total utility beats
    the grand coalition's) is checked over every partition, not sampled,
    from the row totals of one table of every partition.  A partition
    whose solve stalls is skipped: each trial that meets one and each
    such partition counts in ``skipped``.  One user has no partition of
    two blocks, so no trial runs.

    Trials are drawn ``TRIAL_CHUNK`` at a time as int8 label rows; each
    chunk's partitions are found in the table by packed key
    (:func:`_packed_keys`) and their values read by label.  The
    counterexample is the first failing trial's.
    """
    _require_trials(trials)
    require_uniform_timeshare(scenario, "superadditivity audits")
    rng = _seeded(seed)
    k = scenario.k
    table, stalled = _table_and_stalls(scenario, _every_partition(scenario))
    if 0 in stalled:  # row 0 is the grand partition, whose value every check needs
        raise stalled[0]
    stalls = np.zeros(len(table.rgs), dtype=bool)
    stalls[list(stalled)] = True
    keys = _packed_keys(table.rgs)  # sorted: rgs_matrix is in lexicographic order
    offsets, values = table.offsets, table.values
    skipped = len(stalled)
    counterexample = None
    trials_run = trials if k > 1 else 0
    for start in range(0, trials_run, TRIAL_CHUNK):
        size = min(TRIAL_CHUNK, trials_run - start)
        before = np.empty((size, k), dtype=np.int8)
        chosen = np.full((size, k), -1, dtype=np.int64)  # merged labels in draw order
        for t in range(size):
            labels, n = _random_labels(rng, k, 2)
            r = int(rng.integers(2, n + 1))
            before[t] = labels
            chosen[t, :r] = rng.choice(n, size=r, replace=False)
        after, relabel = _merged(before, chosen)
        row_b = np.searchsorted(keys, _packed_keys(before))
        row_a = np.searchsorted(keys, _packed_keys(after))
        run = ~(stalls[row_b] | stalls[row_a])
        skipped += size - int(run.sum())
        first_b = offsets[row_b]
        parts_total = np.zeros(size)
        for col in chosen.T:
            np.add(parts_total, values[first_b + np.maximum(col, 0)], out=parts_total,
                   where=col >= 0)
        merged_entry = offsets[row_a] + relabel[np.arange(size), chosen[:, 0]]
        merged_value = values[merged_entry]
        failed = np.flatnonzero(run & (merged_value < parts_total - SUPERADDITIVITY_TOL))
        if failed.size and counterexample is None:
            t = failed[0]
            counterexample = MergeSample(
                Partition.from_rgs(before[t].tolist()), Partition.from_rgs(after[t].tolist()),
                Coalition(int(table.masks[merged_entry[t]])), float(merged_value[t]),
                float(parts_total[t]))
    gaps = np.delete(table.totals, list(stalled)) - grand_value(scenario, table=table)
    worst = float(np.fmax.reduce(gaps, initial=-math.inf))
    cohesive = not (gaps > SUPERADDITIVITY_TOL).any()
    return SuperadditivityReport(counterexample is None and cohesive, trials_run, skipped,
                                 counterexample, cohesive, worst)


def classify_externalities(
    scenario: Scenario,
    trials: int,
    seed: int,
) -> ExternalityVerdict:
    """Sign of outsider utility changes across sampled two-block mergers.

    Samples partitions with at least three blocks (:func:`_random_labels`),
    merges two (``rng.choice(n, size=2, replace=False)``), and compares
    every remaining block's equilibrium utility before and after.
    "mixed" requires a strict witness of each sign; with no strict
    positive witness the game is classified "negative".  Values come
    from one table of just the sampled partitions, in order of first
    appearance (a full table would cost seconds at K=12); a merger whose
    partitions include one whose solve stalls is skipped.  The draws are
    held as int8 label rows and the witnesses come back as arrays
    (:class:`ExternalityVerdict`), in trial order and, within a trial,
    in label order.
    """
    _require_trials(trials)
    k = scenario.k
    if k < 3:
        raise InvalidArgument("externalities need at least 3 users")
    require_uniform_timeshare(scenario, "externality audits", fewest=2)
    _require_mask_bits(k)  # before any draw: the keys hold 15 labels
    rng = _seeded(seed)
    before = np.empty((trials, k), dtype=np.int8)
    pairs = np.empty((trials, 2), dtype=np.int64)
    counts = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        labels, n = _random_labels(rng, k, 3)
        before[t] = labels
        counts[t] = n
        pairs[t] = rng.choice(n, size=2, replace=False)
    after, relabel = _merged(before, pairs)
    both = np.stack((before, after), axis=1).reshape(-1, k)  # before_0, after_0, before_1, ...
    _, first, inverse = np.unique(_packed_keys(both), return_index=True, return_inverse=True)
    order = np.argsort(first)
    table, stalled = _table_and_stalls(scenario, both[first[order]])
    row_of = np.empty_like(order)
    row_of[order] = np.arange(len(order))
    rows = row_of[inverse].reshape(-1, 2)
    stalls = np.zeros(len(table.rgs), dtype=bool)
    stalls[list(stalled)] = True
    labels = np.arange(k)
    outsider = ((labels < counts[:, None]) & (labels != pairs[:, :1]) & (labels != pairs[:, 1:])
                & ~stalls[rows].any(axis=1)[:, None])
    trial, label = np.nonzero(outsider)  # trial order, then label order
    at_before = table.offsets[rows[trial, 0]] + label
    at_after = table.offsets[rows[trial, 1]] + relabel[trial, label]
    value_before, value_after = table.values[at_before], table.values[at_after]
    has_pos = bool((value_after > value_before + EXTERNALITY_TOL).any())
    has_neg = bool((value_after < value_before - EXTERNALITY_TOL).any())
    if has_pos and has_neg:
        kind = "mixed"
    elif has_pos:
        kind = "positive"
    else:
        kind = "negative"
    return ExternalityVerdict(kind, before[trial], after[trial], table.masks[at_before],
                              value_before, value_after)


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepSpec:
    """Symmetric-template sweep: which K values, which SNR grid (dB).

    Every grid point must keep the largest K's utilities finite
    (:func:`_outside_float_range` of the symmetric game's grand-coalition
    power K^2); N0 is monotone in SNR, so bisection points between grid
    points do too.
    """

    k_values: tuple[int, ...]
    snr_grid_db: tuple[float, ...]

    def __post_init__(self):
        grid = tuple(float(x) for x in self.snr_grid_db)
        # non-finite points are rejected before any comparison, which NaN would pass
        if (len(grid) < 2 or not all(map(math.isfinite, grid))
                or any(b <= a for a, b in zip(grid, grid[1:]))):
            raise InvalidArgument("SNR grid must be finite, strictly increasing, length >= 2")
        ks = tuple(int(k) for k in self.k_values)
        if not ks or any(k < 2 or k > CORE_MAX_USERS for k in ks):
            raise InvalidArgument(f"boundary sweeps need one or more K, each "
                                  f"2 <= K <= {CORE_MAX_USERS}, got {ks}")
        k_max = max(ks)
        # the symmetric game's _grand_power, without building it
        _require_float_range(grid, float(k_max * k_max),
                             f"the grand coalition's P = K^2 at K = {k_max}")
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


def _symmetric_verdicts(k: int, model: ExpectationModel) -> Callable[[float], str]:
    """Core verdict of the symmetric K-user fixed-order game as a function of SNR (dB).

    Only the utilities depend on SNR.  Once per K: the closed-form layout
    (:func:`equilibrium._closed_form_layout`) of the model's rows
    (:func:`cores._model_rows`: merging rows for merging, rational and
    cautious, singleton rows for singleton, then the grand row), the one
    block entry each proper coalition's demand and v(N) read, and the
    core LPs.  A point then takes one log pass over those entries'
    powers and one LP check, which starts from the previous point's
    optimal basis.  Every verdict is ``check_core``'s on
    ``utility_table``, with its witness or certificate validated.
    """
    model = _expectation_model(model)
    scenario = symmetric_scenario(k)
    layout = _closed_form_layout(scenario, _model_rows(scenario, model, grand=True))
    read = _read_index(k, layout.counts, layout.masks, model)
    power, heard = layout.power[read], layout.heard[read]
    lp = _CoreLp(k)
    basis = lp.singletons

    def verdict(snr_db: float) -> str:
        nonlocal basis
        values = _kernels.single_rx_values(power, heard, snr_db_to_noise(snr_db))
        result, basis = lp.check(values[:-1], float(values[-1]), basis)
        return result.verdict

    return verdict


def snr_boundary(spec: SweepSpec, model: ExpectationModel, *,
                 resolution_db: float = 0.01) -> list[BoundaryPoint]:
    """Empty/nonempty core boundary vs SNR for symmetric fixed-order games.

    For each K the grid verdicts are computed first; a single
    nonempty-to-empty flip is bisected to ``resolution_db`` and reported
    as the threshold (the largest SNR still nonempty, within
    resolution).  Multiple flips are reported verbatim, and a grid with
    no flip reports the boundary as outside the grid.  Each K builds the
    layout of its model's rows and its core LPs once
    (:func:`_symmetric_verdicts`); every grid and bisection point then
    evaluates only the utilities it reads, and its LPs start from the
    previous point's optimal basis.
    """
    if not (math.isfinite(resolution_db) and resolution_db > 0.0):
        raise InvalidArgument(f"resolution_db must be finite and > 0, got {resolution_db}")
    out: list[BoundaryPoint] = []
    for k in spec.k_values:
        verdict_at = _symmetric_verdicts(k, model)
        verdicts = tuple(verdict_at(db) for db in spec.snr_grid_db)
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
            if not lo < mid < hi:  # adjacent doubles: no finer bracket exists
                break
            if verdict_at(mid) == "nonempty":
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
    above 20 dB is reported, not enforced.  An SNR at which N0 or the
    grand coalition's power-to-noise ratio leaves float range
    (:func:`_outside_float_range`) raises InvalidArgument before any
    table is built.
    """
    _require_symmetric_timeshare(scenario)
    snr_list_db = [float(db) for db in snr_list_db]
    power = _grand_power(scenario)
    _require_float_range(snr_list_db, power, f"the grand coalition's received power P = {power!r}")
    k = scenario.k
    # row s - 1 is {1..s} (label 0) against its complement, row K - 1 the grand partition
    rows = (np.arange(k)[None, :] > np.arange(k)[:, None]).astype(np.int8)
    points: list[RatioPoint] = []
    for snr_db in snr_list_db:
        at_noise = scenario.with_noise(snr_db_to_noise(snr_db))
        table = _table_of(at_noise, rows)
        exact = table.values[table.offsets[:-1]].tolist()
        for size in range(1, k + 1):
            coalition = Coalition.from_members(range(1, size + 1))
            approx = timeshare_highsnr_utility(at_noise, coalition)
            points.append(RatioPoint(snr_db, size, approx, exact[size - 1]))
    violations: list[tuple[int, float]] = []
    for size in range(1, k + 1):
        series = [p for p in points if p.size == size]
        for prev, cur in zip(series, series[1:]):
            if cur.snr_db <= 20.0:
                continue
            if abs(1.0 - cur.ratio) > abs(1.0 - prev.ratio) + 1e-12:
                violations.append((size, cur.snr_db))
    return RatioCurve(tuple(points), tuple(violations))
