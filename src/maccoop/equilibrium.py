"""Equilibria of the non-cooperative game between coalitions of a partition.

Three receivers are supported.  With fixed-order successive cancellation
a coalition's rate depends only on later-decoded blocks, so a single
backward sweep is an exact equilibrium and the equilibrium utilities are
unique for a given decoding order.  Single-user decoding couples every
block to every other; Gauss-Seidel iterative waterfilling on the game's
potential (Yu et al., IEEE T-IT 2004) finds an equilibrium
(non-convergence is surfaced, never hidden).
Time sharing averages the fixed-order game over the partition's block
decoding orders, and fixed order is the plan of one order, weight 1.

Because a cancelled block sees only the blocks decoded after it, its
solve depends only on its decoding suffix (itself and the ordered blocks
after it).  The cancellation receivers collect the distinct suffixes of
every order they need, across partitions for a table, and solve each
once; values are bitwise those of one backward sweep per order.  A
single-user-decoding table sweeps all its partitions in lockstep, one
block position at a time, and each partition keeps the iterates of its
own solve bit for bit.  A single partition's equilibrium is the one-row
call of the same route.

Utility tables collect the equilibrium value of every coalition of every
partition and are the substrate for the core computations.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from .capacity import (
    PA_MAX_ITER,
    SOLVER_TOL,
    CovarianceProfile,
    block_budget,
    block_caps,
    validate_profile,
)
from .errors import InvalidArgument, NonConvergence, NumericalFailure
from .io import fingerprint as scenario_fingerprint
from .model import (
    MAX_USERS,
    RGS_CHUNK_ROWS,
    Coalition,
    Partition,
    Scenario,
    SicFixed,
    SicTimeShare,
    Sud,
    block_counts,
    coalition_channel,
    rgs_matrix,
)

#: Utility tolerance and sweep cap for iterative waterfilling.
SUD_TOL = 1e-9
SUD_MAX_ROUNDS = 10_000

_TIMESHARE_MAX_ORDERS = 5040  # 7!


@dataclass(frozen=True)
class DscReport:
    """Per-coalition diagonal-concavity products C_n and their total."""

    values: tuple[float, ...]
    total: float


class UtilityTable:
    """Equilibrium utility of every coalition of a set of partitions, as flat arrays.

    Row r is the partition with restricted growth string ``rgs[r]``.  Its
    blocks are entries ``offsets[r]:offsets[r + 1]`` of ``masks`` (the
    coalition bitmask) and ``values`` (the utility in nats), in label
    order (as ``Partition.blocks``) for every route.  ``totals[r]`` adds
    row r's values left to right in that order; it is computed from
    ``values`` on each read (one ``bincount``; the rational demand read and
    the cohesiveness audit read it once per table), so values written into
    ``values`` in place are in it.  ``offsets``, ``entry_rows`` and
    ``mask_index`` depend on the rows and masks alone: ``entry_rows`` and
    ``mask_index`` hold each entry's row and mask as intp indices, the
    demand reads' group-by keys.  These three are built on first read,
    since most readers need none of them; at K=10, a full table's 562 595
    entries take 4.5 MB in each of ``entry_rows`` and ``mask_index``.
    ``fingerprint`` identifies the scenario the table was built from,
    making cached tables auditable, and :meth:`built_for` tells whether a
    scenario's core computations may read the table.

    ``UtilityTable(k, fingerprint, entries)`` converts a dict keyed by
    restricted growth string whose values map mask to utility;
    :attr:`entries` is that view of any table, a snapshot taken on first
    access: values written into ``values`` later are not in it.
    Given a :class:`Scenario` instead of a fingerprint string, a table
    computes :func:`io.fingerprint` of it when ``fingerprint`` is first
    read.

    ``core_lp`` is the table's core LP (``cores._TableLp`` of K), None
    until a core computation is first handed the table; from then on it
    lives as long as the table.  Its rows and stored bases depend on K
    alone, never on the table's values; its decisions are keyed by the
    bytes of the demands read, so new values are decided afresh.
    """

    def __init__(self, k: int, fingerprint: str | Scenario,
                 entries: dict[tuple[int, ...], dict[int, float]]):
        rows = entries.values()
        self._setup(k, fingerprint, np.array(list(entries), dtype=np.int8).reshape(-1, k),
                    [len(row) for row in rows], [m for row in rows for m in row],
                    [v for row in rows for v in row.values()])

    @classmethod
    def from_arrays(cls, k: int, fingerprint: str | Scenario, rgs: np.ndarray, counts, masks,
                    values) -> "UtilityTable":
        """A table from RGS rows, each row's block count, and its blocks in row order."""
        table = cls.__new__(cls)
        table._setup(k, fingerprint, rgs, counts, masks, values)
        return table

    def _setup(self, k, fingerprint, rgs, counts, masks, values) -> None:
        self.k = k
        if isinstance(fingerprint, Scenario):
            self._scenario = fingerprint
        else:
            self._scenario = None
            self.fingerprint = fingerprint
        self.rgs = rgs
        self.counts = np.asarray(counts, dtype=np.int64)  # blocks per row
        self.masks = np.asarray(masks, dtype=np.int16)  # k <= 15 bits
        self.values = np.asarray(values, dtype=np.float64)
        self.core_lp = None

    @functools.cached_property
    def offsets(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.counts)))

    @property
    def totals(self) -> np.ndarray:
        # computed on each read, so it follows values written in place;
        # bincount adds each weight into its zeroed bin in input order, so a
        # row's total is 0.0 + v_0 + v_1 + ... left to right, as Python floats add
        return np.bincount(self.entry_rows, weights=self.values,
                           minlength=len(self.rgs)).astype(np.float64)

    @functools.cached_property
    def entry_rows(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.rgs)), self.counts)

    @functools.cached_property
    def mask_index(self) -> np.ndarray:
        return self.masks.astype(np.intp)

    @functools.cached_property
    def fingerprint(self) -> str:
        return scenario_fingerprint(self._scenario)

    def built_for(self, scenario: Scenario) -> bool:
        """Whether the table can be ``scenario``'s.

        K must match.  ``with_noise`` keeps the users tuple, so a table
        a route built for the same users compares noise, receiver and
        receive antennas directly, and one built for other users objects
        compares fingerprints.  A table made from a fingerprint string
        is taken at its word: hand-made and loaded tables carry any label.
        """
        own = self._scenario
        if self.k != scenario.k:
            return False
        if own is None:
            return True
        if own.users is not scenario.users:
            return self.fingerprint == scenario_fingerprint(scenario)
        return (own.noise == scenario.noise and own.receiver == scenario.receiver
                and own.rx_antennas == scenario.rx_antennas)

    @functools.cached_property
    def entries(self) -> dict[tuple[int, ...], dict[int, float]]:
        bounds = self.offsets.tolist()
        masks, values = self.masks.tolist(), self.values.tolist()
        return {tuple(key): dict(zip(masks[a:b], values[a:b]))
                for key, a, b in zip(self.rgs.tolist(), bounds, bounds[1:])}

    @functools.cached_property
    def _row_of(self) -> dict[tuple[int, ...], int]:
        return {tuple(key): row for row, key in enumerate(self.rgs.tolist())}

    def partition_values(self, partition: Partition) -> dict[int, float]:
        row = self._row_of[partition.rgs]
        a, b = self.offsets[row:row + 2].tolist()
        return dict(zip(self.masks[a:b].tolist(), self.values[a:b].tolist()))

    def value(self, partition: Partition, coalition: Coalition) -> float:
        return self.partition_values(partition)[coalition.mask]

    def __len__(self) -> int:
        return len(self.values)


# ---------------------------------------------------------------------------
# kernel inputs


def _block_inputs(scenario: Scenario, blocks: Sequence[Coalition],
                  init: CovarianceProfile | None):
    """Each block's kernel channel, budget or cap vector, start covariance and basis.

    Under antenna caps a block keeps its channel H, since the caps belong
    to its physical antennas, and its basis is None.  Under a pooled
    budget its channel is the m x m equivalent channel E of H = E Omega^T
    (:func:`_kernels.equivalent_channels`, one call per transmit width),
    its basis is Omega, and its covariances are E's, Q_E = Omega^T Q Omega;
    :func:`_covariances` maps them back.
    """
    hs = [coalition_channel(scenario, b) for b in blocks]
    by_mask = None if init is None else dict(zip((b.mask for b in init.partition.blocks),
                                                 init.matrices))
    if scenario.power_mode != "sum":
        limits = [block_caps(scenario, b) for b in blocks]
        starts = ([np.diag(c) for c in limits] if by_mask is None
                  else [by_mask[b.mask] for b in blocks])
        return hs, limits, starts, [None] * len(blocks)
    m = scenario.rx_antennas
    chan = np.empty((len(blocks), m, m))
    bases = [None] * len(blocks)
    by_width: dict[int, list[int]] = {}
    for i, h in enumerate(hs):
        by_width.setdefault(h.shape[1], []).append(i)
    for idx in by_width.values():
        chan[idx], omegas = _kernels.equivalent_channels(np.stack([hs[i] for i in idx]))
        for i, omega in zip(idx, omegas):
            bases[i] = omega
    limits = [block_budget(scenario, b) for b in blocks]
    starts = (np.zeros_like(chan) if by_mask is None else
              [_kernels.sym(o.T @ by_mask[b.mask] @ o) for b, o in zip(blocks, bases)])
    return chan, limits, starts, bases


def _covariances(qs, bases) -> list[np.ndarray]:
    """Kernel covariances in their blocks' transmit-antenna coordinates,
    Q = Omega Q_E Omega^T (a block without a basis keeps its own)."""
    return [q if o is None else _kernels.sym(o @ q @ o.T) for q, o in zip(qs, bases)]


# ---------------------------------------------------------------------------
# equilibria


def _solved(route: Callable, scenario: Scenario, rgs: np.ndarray, **options):
    """``route(scenario, rgs, **options)`` of a table route, failing as a
    :class:`NumericalFailure` that names a partition.

    A kernel's factorization failure (a noise covariance lost
    definiteness, as at very high SNR) re-runs the route one row at a
    time, and the first row that fails alone names it.
    """
    try:
        return route(scenario, rgs, **options)
    except np.linalg.LinAlgError as exc:
        if len(rgs) == 1:
            raise NumericalFailure(f"linear algebra failed on partition "
                                   f"{Partition.from_rgs(rgs[0].tolist())}: {exc}") from exc
        for row in range(len(rgs)):  # the first row whose own solve fails names it
            _solved(route, scenario, rgs[row:row + 1], **options)
        raise NumericalFailure(f"linear algebra failed while solving a table: {exc}") from exc


def _pa_stall(partition: Partition) -> NonConvergence:
    return NonConvergence(f"per-antenna solver stalled while decoding partition {partition}",
                          diagnostics={"partition": partition.rgs})


def _sud_stall(partition: Partition, qs, utils, rounds, delta) -> NonConvergence:
    """A stalled sweep's error, carrying its last iterate as ``best``."""
    profile = CovarianceProfile(partition, tuple(qs))
    utilities = {b.mask: float(u) for b, u in zip(partition.blocks, utils)}
    return NonConvergence(
        f"iterative waterfilling did not settle on partition {partition} "
        f"(last utility change {delta:.3e} after {rounds} sweeps)",
        best=(profile, utilities),
        diagnostics={"rounds": int(rounds), "last_delta": float(delta),
                     "partition": partition.rgs},
    )


def _require_size(scenario: Scenario, partition: Partition) -> None:
    if partition.k != scenario.k:
        raise InvalidArgument(
            f"partition of {partition.k} users given for a scenario of {scenario.k} users"
        )


def _solve_orders(scenario: Scenario, masks: list[list[int]],
                  orders: Sequence[Sequence[tuple[int, ...]]], *,
                  init: CovarianceProfile | None = None, covariances: bool = False):
    """Cancellation equilibria of decoding orders, each distinct suffix solved once.

    Row i has block masks ``masks[i]`` (label order); ``orders[i]`` lists
    its decoding orders as tuples of block labels, first decoded first.
    A block's rate depends only on the blocks decoded after it, so every
    order that ends alike shares those solves (:func:`_kernels.sic_backward`).

    Returns (qs, rates, sids, stalled): each suffix's head covariance
    (None unless ``covariances``) and rate, per row a list whose entry
    [o][j] is the suffix block j heads in order o, and the rows whose
    orders need a stalled per-antenna solve.
    """
    block_of: dict[int, int] = {}  # mask -> block index
    suffix_of: dict[tuple[int, int], int] = {}  # (block, tail suffix) -> suffix
    heads: list[int] = []
    tails: list[int] = []
    sids = []
    for row_masks, row_orders in zip(masks, orders):
        row_blocks = [block_of.setdefault(mask, len(block_of)) for mask in row_masks]
        ids = []
        for order in row_orders:
            order_ids = [0] * len(order)
            tail = -1
            for label in reversed(order):
                key = (row_blocks[label], tail)
                sid = suffix_of.get(key)
                if sid is None:
                    sid = suffix_of[key] = len(heads)
                    heads.append(key[0])
                    tails.append(tail)
                order_ids[label] = tail = sid
            ids.append(order_ids)
        sids.append(ids)
    blocks = [Coalition(mask) for mask in block_of]
    hs, limits, starts, bases = _block_inputs(scenario, blocks, init)
    qs, rates, ok = _kernels.sic_backward(
        scenario.noise, hs, limits, starts, heads, tails, SOLVER_TOL, PA_MAX_ITER
    )
    qs = _covariances(qs, [bases[b] for b in heads]) if covariances else None
    stalled = [] if all(ok) else [
        row for row, ids in enumerate(sids)
        if not all(ok[sid] for order_ids in ids for sid in order_ids)
    ]
    return qs, rates, sids, stalled


def _one_row(route: Callable, scenario: Scenario, partition: Partition, **options):
    """A partition's equilibrium as the one-row call of a table route.

    Returns (profile, utilities): the :class:`CovarianceProfile` (None
    for time sharing) and each block's utility keyed by mask, both in
    label order (as ``partition.blocks``), the order of a route's row.
    """
    _require_size(scenario, partition)
    masks, values, qs, stalled = _solved(route, scenario,
                                         np.array([partition.rgs], dtype=np.int8), **options)
    if stalled:
        raise stalled[0]
    profile = None if qs is None else CovarianceProfile(partition, tuple(qs))
    return profile, dict(zip(masks, values.tolist()))


def ne_sic(
    scenario: Scenario,
    partition: Partition,
    *,
    init: CovarianceProfile | None = None,
) -> tuple[CovarianceProfile, dict[int, float]]:
    """Equilibrium of the fixed-order cancellation game.

    The receiver's base order induces the block decoding order (latest
    member rule).  The last-decoded block optimizes against noise alone
    and each earlier block against the interference of all later blocks;
    because rates depend only on later blocks this single backward pass
    is an exact equilibrium.  ``init`` seeds the per-antenna solver and
    must not change the resulting utilities (they are unique).  The
    solve is the partition's row of a cancellation table
    (:func:`_cancellation_blocks`), its one decoding order weighted 1;
    utilities come in label order, as ``partition.blocks``.
    """
    if not isinstance(scenario.receiver, SicFixed):
        raise InvalidArgument("ne_sic requires a fixed-order cancellation receiver")
    return _one_row(_cancellation_blocks, scenario, partition, init=init, covariances=True)


def ne_sud(
    scenario: Scenario,
    partition: Partition,
    *,
    init: CovarianceProfile | None = None,
    max_rounds: int = SUD_MAX_ROUNDS,
) -> tuple[CovarianceProfile, dict[int, float]]:
    """Equilibrium of the single-user-decoding game.

    Gauss-Seidel iterative waterfilling (Yu, Rhee, Boyd & Cioffi, IEEE
    T-IT 2004) on the potential log det(N0 I + sum_j H_j Q_j H_j^T): each
    sweep lets every block in turn best respond to the others' current
    interference.  Stops when the largest utility change in a sweep drops
    below ``SUD_TOL``; raises :class:`NonConvergence` (with the last
    iterate and its diagnostics) after ``max_rounds`` sweeps.  The solve
    is the partition's row of a single-user-decoding table
    (:func:`_sud_blocks`).
    """
    if not isinstance(scenario.receiver, Sud):
        raise InvalidArgument("ne_sud requires a single-user-decoding receiver")
    return _one_row(_sud_blocks, scenario, partition, init=init, max_rounds=max_rounds,
                    covariances=True)


def _order_count(n: int) -> int:
    """n!, the decoding orders of n blocks; raises past ``_TIMESHARE_MAX_ORDERS``."""
    n_orders = math.factorial(n)
    if n_orders > _TIMESHARE_MAX_ORDERS:
        raise InvalidArgument(
            f"{n} blocks give {n_orders} decoding orders; the cap is {_TIMESHARE_MAX_ORDERS}"
        )
    return n_orders


def _timeshare_orders(receiver: SicTimeShare,
                      n: int) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Weights and label tuples of the nonzero-weight decoding orders of n blocks.

    Orders are the n! permutations in lexicographic order, capped at
    ``_TIMESHARE_MAX_ORDERS``; weights are uniform unless the receiver
    lists one per order.
    """
    n_orders = _order_count(n)
    if receiver.weights is None:
        weights = (1.0 / n_orders,) * n_orders
    elif len(receiver.weights) != n_orders:
        raise InvalidArgument(
            f"{len(receiver.weights)} weights supplied for {n_orders} decoding orders"
        )
    else:
        weights = receiver.weights
    kept = [(w, p) for w, p in zip(weights, itertools.permutations(range(n))) if w != 0.0]
    return np.array([w for w, _ in kept]), [p for _, p in kept]


def ne_timeshare(scenario: Scenario, partition: Partition) -> dict[int, float]:
    """Average equilibrium utilities over the partition's decoding orders.

    Solves the fixed-order game for each of the N! orders of the
    partition's blocks (lexicographic in canonical block index) with a
    nonzero weight, sharing the solves of orders that end alike, and
    returns the weight-averaged utility per block (the exact time-shared
    value, not the high-SNR approximation): its time-share table row.
    """
    if not isinstance(scenario.receiver, SicTimeShare):
        raise InvalidArgument("ne_timeshare requires the time-sharing receiver")
    return _one_row(_cancellation_blocks, scenario, partition)[1]


def ne_utilities(scenario: Scenario, partition: Partition) -> dict[int, float]:
    """Equilibrium utilities under the scenario's receiver model."""
    receiver = scenario.receiver
    if isinstance(receiver, SicFixed):
        return ne_sic(scenario, partition)[1]
    if isinstance(receiver, Sud):
        return ne_sud(scenario, partition)[1]
    return ne_timeshare(scenario, partition)


# ---------------------------------------------------------------------------
# uniqueness diagnostics


def _utility_gradients(
    scenario: Scenario, partition: Partition, profile: CovarianceProfile
) -> list[np.ndarray]:
    """Gradient of each block's utility in its own covariance, by receiver."""
    receiver = scenario.receiver
    blocks = partition.blocks
    channels = [coalition_channel(scenario, b) for b in blocks]
    grams = [h @ q @ h.T for h, q in zip(channels, profile.matrices)]
    eye = scenario.noise * np.eye(scenario.rx_antennas)

    def sic_grads(order_idx: Sequence[int]) -> list[np.ndarray]:
        grads: list[np.ndarray | None] = [None] * len(blocks)
        undecoded = eye.copy()
        for pos in reversed(order_idx):
            undecoded += grams[pos]
            h = channels[pos]
            grads[pos] = h.T @ np.linalg.solve(undecoded, h)
        return grads  # type: ignore[return-value]

    if isinstance(receiver, Sud):
        total = eye + sum(grams)
        return [h.T @ np.linalg.solve(total, h) for h in channels]
    if isinstance(receiver, SicFixed):
        return sic_grads(np.argsort(_slot_of(receiver)[[b.mask for b in blocks]]).tolist())
    weights, orders = _timeshare_orders(receiver, len(blocks))
    acc = [np.zeros((h.shape[1], h.shape[1])) for h in channels]
    for w, perm in zip(weights.tolist(), orders):
        for i, g in enumerate(sic_grads(perm)):
            acc[i] += w * g
    return acc


def dsc_diagnostic(
    scenario: Scenario,
    partition: Partition,
    profile_a: CovarianceProfile,
    profile_b: CovarianceProfile,
) -> DscReport:
    """Diagonal-strict-concavity products between two feasible profiles.

    C_n = tr[(QA_n - QB_n)(grad v_n at B - grad v_n at A)] with the
    receiver-appropriate utility gradient.  The total C is nonnegative
    for any two feasible profiles, and every C_n vanishes when both
    profiles are equilibria of the fixed-order game.
    """
    _require_size(scenario, partition)
    if profile_a.partition.rgs != partition.rgs or profile_b.partition.rgs != partition.rgs:
        raise InvalidArgument("profiles must belong to the given partition")
    validate_profile(scenario, profile_a)
    validate_profile(scenario, profile_b)
    grads_a = _utility_gradients(scenario, partition, profile_a)
    grads_b = _utility_gradients(scenario, partition, profile_b)
    values = []
    for qa, qb, ga, gb in zip(profile_a.matrices, profile_b.matrices, grads_a, grads_b):
        values.append(float(np.trace((qa - qb) @ (gb - ga))))
    return DscReport(tuple(values), float(sum(values)))


# ---------------------------------------------------------------------------
# utility tables


def _power_of(scenario: Scenario) -> np.ndarray:
    """Each coalition's received power at one receive antenna, indexed by mask: (sum of
    member gains^2)(sum of member budgets) under pooled budgets, (sum of member
    |h| sqrt(cap) amplitudes)^2 under antenna caps."""
    users = scenario.users
    if scenario.power_mode == "sum":
        gain2 = np.array([float(np.sum(u.channel ** 2)) for u in users])
        budget = np.array([u.power.total for u in users], dtype=np.float64)
        return _kernels.mask_table(np.add, gain2, 0.0) * _kernels.mask_table(np.add, budget, 0.0)
    amp = _kernels.mask_table(np.add, np.array(
        [float(np.abs(u.channel[0]) @ np.sqrt(np.asarray(u.power.caps))) for u in users]), 0.0)
    return amp * amp


def _slot_of(receiver: SicFixed) -> np.ndarray:
    """Each coalition's decoding slot, indexed by mask, as int8.

    Blocks decode at their latest member's base position; the empty mask
    (a label with no member) gets K and sorts last.
    """
    out = _kernels.mask_table(np.maximum, np.argsort(receiver.base_order).astype(np.int8), 0)
    out[0] = len(receiver.base_order)
    return out


def _closed_form_applies(scenario: Scenario) -> bool:
    """Whether ``scenario``'s tables come from the one-receive-antenna closed form.

    It applies to one receive antenna with fixed-order cancellation or
    single-user decoding, under pooled budgets or antenna caps.  On this
    class a block's received power is superadditive in its members, which
    is also what lets every expectation model's core read the merging
    rows (:func:`cores._model_rows`).
    """
    return scenario.rx_antennas == 1 and isinstance(scenario.receiver, (SicFixed, Sud))


@dataclass(frozen=True, eq=False)
class _ClosedFormLayout:
    """The noise-free part of a closed-form table: RGS rows, blocks per row, and
    every block's mask (label order), received power and heard power."""

    rgs: np.ndarray
    counts: np.ndarray
    masks: np.ndarray
    power: np.ndarray
    heard: np.ndarray

    def values(self, n0: float) -> np.ndarray:
        """Every block's utility at noise level ``n0``, in one elementwise pass over
        chunks of ``RGS_CHUNK_ROWS`` entries, so its temporaries stay chunk-sized."""
        out = np.empty(len(self.power))
        for start in range(0, len(out), RGS_CHUNK_ROWS):
            at = slice(start, start + RGS_CHUNK_ROWS)
            _kernels.single_rx_values(self.power[at], self.heard[at], n0, out=out[at])
        return out


def _closed_form_layout(scenario: Scenario, rgs=None) -> _ClosedFormLayout | None:
    """The closed-form layout of RGS rows ``rgs`` (default: every partition), or None
    when :func:`_closed_form_applies` does not.

    Each chunk of ``RGS_CHUNK_ROWS`` rows gets its block masks once, which
    read :func:`_power_of` and :func:`_slot_of` for the noise-free layout
    of its blocks (:func:`_kernels.single_rx_layout`), written into arrays
    allocated once for the whole table.  A row's values depend on that
    row alone, so any subset of rows holds them bitwise as the full
    table does.
    """
    if not _closed_form_applies(scenario):
        return None
    k = scenario.k
    rgs = rgs_matrix(k) if rgs is None else rgs
    _require_mask_bits(k)  # before any 2^K table
    power_of = _power_of(scenario)
    receiver = scenario.receiver
    slot_of = _slot_of(receiver) if isinstance(receiver, SicFixed) else None
    counts = block_counts(rgs)
    n = int(counts.sum())
    masks, power, heard = np.empty(n, dtype=np.int16), np.empty(n), np.empty(n)
    end = 0
    for start in range(0, len(rgs), RGS_CHUNK_ROWS):
        stop = start + RGS_CHUNK_ROWS
        begin, end = end, end + int(counts[start:stop].sum())
        _kernels.single_rx_layout(_label_masks(rgs[start:stop]), power_of, slot_of,
                                  out=(masks[begin:end], power[begin:end], heard[begin:end]))
    return _ClosedFormLayout(rgs, counts, masks, power, heard)


def _closed_form_tables(scenario: Scenario, rgs=None) -> Callable[[float], UtilityTable] | None:
    """Closed-form tables of RGS rows ``rgs`` (default: every partition) at any N0, or None.

    Only the utilities depend on N0: the layout (:func:`_closed_form_layout`)
    is built once, and the returned function gives the table of
    ``scenario.with_noise(n0)``.
    """
    layout = _closed_form_layout(scenario, rgs)
    if layout is None:
        return None

    def closed(n0: float) -> UtilityTable:
        return UtilityTable.from_arrays(scenario.k, scenario.with_noise(n0), layout.rgs,
                                        layout.counts, layout.masks, layout.values(n0))

    return closed


def _require_mask_bits(k: int) -> None:
    if k > 15:  # coalition masks are int16
        raise InvalidArgument(f"coalition masks hold games of at most 15 users, not {k}")


def _label_masks(rgs: np.ndarray) -> np.ndarray:
    """Block masks of RGS rows: (rows, k) int16, column j for label j, 0 past the last block.

    User u's bit goes to flat entry row * k + label, one intp index per row and user.
    """
    rows, k = rgs.shape
    _require_mask_bits(k)  # every table's masks come from here
    masks = np.zeros((rows, k), dtype=np.int16)
    flat = masks.reshape(-1)
    first = np.arange(0, rows * k, k)  # each row's label-0 entry
    for u in range(k):
        flat[first + rgs[:, u]] |= np.int16(1 << u)
    return masks


def _cancellation_blocks(scenario: Scenario, rgs: np.ndarray, *,
                         init: CovarianceProfile | None = None, covariances: bool = False):
    """Every row's cancellation block masks and utilities (label order), and its stalls.

    A row's plan is its weighted decoding orders: for fixed order the one
    order by latest member's slot, weight 1; for time sharing those of its
    block count (:func:`_timeshare_orders`).  Each distinct decoding
    suffix is solved once, and a block's utility adds its weighted rates
    over the orders in order (a fixed-order block's is its rate, bit for
    bit).  Returns (masks, values, qs, stalled): ``qs`` lists each
    fixed-order block's covariance if ``covariances`` (else None), and
    ``stalled`` maps each row whose orders need a stalled per-antenna
    solve to the :class:`NonConvergence` naming it.
    """
    receiver = scenario.receiver
    fixed = isinstance(receiver, SicFixed)
    counts = block_counts(rgs).tolist()
    # block counts in row order, before any solve: a misfit weight
    # vector or an order cap fails on its first row
    plans = {n: (np.ones(1), None) if fixed else _timeshare_orders(receiver, n)
             for n in dict.fromkeys(counts)}
    label_masks = _label_masks(rgs)
    if fixed:
        # blocks decode at their latest member's slot, as in the closed form
        slots = np.argsort(_slot_of(receiver)[label_masks], axis=1)
        orders = [[tuple(row[:n])] for row, n in zip(slots.tolist(), counts)]
    else:
        orders = [plans[n][1] for n in counts]
    masks = [row[:n] for row, n in zip(label_masks.tolist(), counts)]
    covariances = covariances and fixed
    qs, rates, sids, stalled_rows = _solve_orders(scenario, masks, orders, init=init,
                                                  covariances=covariances)
    stalled = {row: _pa_stall(Partition.from_rgs(rgs[row].tolist())) for row in stalled_rows}
    # the rows of one block count average their orders at once, adding them in order
    counts = np.array(counts)
    starts = np.cumsum(counts) - counts
    values = np.empty(counts.sum())
    for n, (weights, _) in plans.items():
        rows = np.flatnonzero(counts == n)
        per_order = rates[np.array([sids[r] for r in rows])]  # (rows, orders, blocks)
        acc = np.cumsum(weights[:, None] * per_order, axis=1)[:, -1]
        values[starts[rows, None] + np.arange(n)] = acc
    qs = [qs[sid] for (ids,) in sids for sid in ids] if covariances else None
    return [m for row in masks for m in row], values, qs, stalled


def _sud_blocks(scenario: Scenario, rgs: np.ndarray, *,
                init: CovarianceProfile | None = None, max_rounds: int | None = None,
                covariances: bool = False):
    """Every row's single-user-decoding block masks and utilities (label order), and its stalls.

    All rows sweep in lockstep (:func:`_kernels.sud_lockstep`), at most
    ``max_rounds`` sweeps each (``SUD_MAX_ROUNDS`` when None), each row
    with the iterates it has when solved alone.  Returns (masks, values,
    qs, stalled): ``qs`` lists each block's covariance if ``covariances``
    (else None), and ``stalled`` maps each row whose sweeps did not settle to the
    :class:`NonConvergence` naming it; such a row's values are its last
    iterate's.
    """
    counts = block_counts(rgs)
    masks = _label_masks(rgs)[np.arange(rgs.shape[1]) < counts[:, None]]
    distinct, blocks = np.unique(masks, return_inverse=True)
    hs, limits, starts, bases = _block_inputs(
        scenario, [Coalition(m) for m in distinct.tolist()], init)
    qs, utils, rounds, converged, delta = _kernels.sud_lockstep(
        scenario.noise, hs, limits, starts, blocks, counts, SUD_TOL,
        SUD_MAX_ROUNDS if max_rounds is None else max_rounds, SOLVER_TOL, PA_MAX_ITER,
    )

    def physical(at):
        return _covariances(qs[at], [bases[b] for b in blocks[at].tolist()])

    offsets = np.cumsum(counts) - counts
    stalled = {}
    for row in np.flatnonzero(~converged).tolist():
        at = slice(offsets[row], offsets[row] + counts[row])
        stalled[row] = _sud_stall(Partition.from_rgs(rgs[row].tolist()), physical(at),
                                  utils[at], rounds[row], delta[row])
    return masks.tolist(), utils, physical(slice(None)) if covariances else None, stalled


def require_uniform_timeshare(scenario: Scenario, what: str = "tables and core checks",
                              fewest: int = 1) -> None:
    """Reject a weighted time-share receiver where several block counts occur.

    Its n! weights fit the partitions of one block count only, and
    ``what`` meets partitions of ``fewest``..K blocks.
    """
    receiver = scenario.receiver
    if isinstance(receiver, SicTimeShare) and receiver.weights is not None:
        raise InvalidArgument(
            f"{what} meet partitions of {fewest}..{scenario.k} blocks, so they "
            f"need uniform time-share weights ({len(receiver.weights)} weights given)"
        )


def _every_partition(scenario: Scenario) -> np.ndarray:
    """``rgs_matrix(K)``, the rows of a table of every partition, once its caps pass.

    Every block count 1..K occurs, so a time-share game meets the order
    cap (:func:`_order_count`) at the count its first row over the cap
    would, but before the B_K rows are built.  Past ``MAX_USERS`` the
    user cap (:func:`rgs_matrix`) speaks first.
    """
    if isinstance(scenario.receiver, SicTimeShare) and scenario.k <= MAX_USERS:
        for n in range(1, scenario.k + 1):
            _order_count(n)
    return rgs_matrix(scenario.k)


def utility_table(scenario: Scenario) -> UtilityTable:
    """Equilibrium utilities for every coalition of every partition.

    Partitions are enumerated in restricted-growth order
    (:func:`_every_partition`, whose caps raise before any row is built)
    and their values come from :func:`_table_of`.
    """
    require_uniform_timeshare(scenario)
    return _table_of(scenario, _every_partition(scenario))


def _table_of(scenario: Scenario, rgs: np.ndarray) -> UtilityTable:
    """The table of the partitions with int8 RGS rows ``rgs``, in that order (none: empty).

    Every value is what the partition's own game gives
    (``ne_utilities``), bit for bit, whatever else the table holds,
    except in the closed-form tables of one receive antenna (fixed-order
    cancellation and single-user decoding, :func:`_closed_form_tables`),
    which round differently: within 1e-11 relative, plus 1e-14 nats for
    a utility near zero (the log of a ratio near one).  Their heard power
    holds no noise, so N0 is never rounded away, and it is a sum of other
    blocks' powers, never a total less the block's own, so a fixed-order
    table equals :func:`maccoop.capacity.single_antenna_utilities`, the
    later blocks added in the same order.  Cancellation tables
    solve each distinct decoding suffix once for all the rows and orders
    that share it; single-user decoding with several receive antennas
    sweeps every row in lockstep (:func:`_sud_blocks`).  Solver failures
    and stalls name the first row in table order that has one.
    """
    table, stalled = _table_and_stalls(scenario, rgs)
    if stalled:
        raise stalled[min(stalled)]
    return table


def _table_and_stalls(scenario: Scenario, rgs: np.ndarray):
    """:func:`_table_of`, but a row whose solve stalls keeps its last iterate's values.

    Returns (table, stalled): ``stalled`` maps each such row to the
    :class:`NonConvergence` its own solve raises.  Factorization failures
    still raise.
    """
    closed = _closed_form_tables(scenario, rgs)
    if closed is not None:
        return closed(scenario.noise), {}
    masks, values, stalled = [], [], {}
    if len(rgs):  # the solvers need at least one block
        route = _sud_blocks if isinstance(scenario.receiver, Sud) else _cancellation_blocks
        masks, values, _, stalled = _solved(route, scenario, rgs)
    table = UtilityTable.from_arrays(scenario.k, scenario, rgs, block_counts(rgs), masks,
                                     values)
    return table, stalled
