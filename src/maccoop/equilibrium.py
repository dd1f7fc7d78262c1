"""Equilibria of the non-cooperative game between coalitions of a partition.

Three receivers are supported.  With fixed-order successive cancellation
a coalition's rate depends only on later-decoded blocks, so a single
backward sweep is an exact equilibrium and the equilibrium utilities are
unique for a given decoding order.  Single-user decoding couples every
block to every other; Gauss-Seidel iterative waterfilling on the game's
potential (Yu et al., IEEE T-IT 2004) finds an equilibrium
(non-convergence is surfaced, never hidden).
Time sharing averages the fixed-order game over the partition's block
decoding orders.

Because a cancelled block sees only the blocks decoded after it, its
solve depends only on its decoding suffix (itself and the ordered blocks
after it).  The cancellation receivers collect the distinct suffixes of
every order they need, across partitions for a table, and solve each
once; values are bitwise those of one backward sweep per order.

Utility tables collect the equilibrium value of every coalition of every
partition and are the substrate for the core computations.
"""

from __future__ import annotations

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
from .errors import InvalidArgument, NonConvergence
from .io import fingerprint
from .model import (
    MAX_USERS,
    RGS_CHUNK_ROWS,
    Coalition,
    Partition,
    Scenario,
    SicFixed,
    SicTimeShare,
    Sud,
    coalition_channel,
    enumerate_partitions,
    induced_order,
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


@dataclass(frozen=True)
class UtilityTable:
    """Equilibrium utility of every coalition of every partition.

    Keys are (restricted growth string, coalition mask); values are in
    nats.  ``fingerprint`` identifies the scenario the table was built
    from, making cached tables auditable.
    """

    k: int
    fingerprint: str
    entries: dict[tuple[int, ...], dict[int, float]]

    def value(self, partition: Partition, coalition: Coalition) -> float:
        return self.entries[partition.rgs][coalition.mask]

    def partition_values(self, partition: Partition) -> dict[int, float]:
        return self.entries[partition.rgs]

    def __len__(self) -> int:
        return sum(len(v) for v in self.entries.values())


# ---------------------------------------------------------------------------
# kernel inputs


def _block_inputs(scenario: Scenario, blocks: Sequence[Coalition],
                  init: CovarianceProfile | None):
    """Channel, budget or cap vector, and start covariance of each block."""
    hs = [coalition_channel(scenario, b) for b in blocks]
    if scenario.power_mode == "sum":
        limits = [block_budget(scenario, b) for b in blocks]
        starts = [np.zeros((h.shape[1], h.shape[1])) for h in hs]
    else:
        limits = [block_caps(scenario, b) for b in blocks]
        starts = [np.diag(c) for c in limits]
    if init is not None:
        by_mask = {b.mask: q for b, q in zip(init.partition.blocks, init.matrices)}
        starts = [by_mask[b.mask] for b in blocks]
    return hs, limits, starts


# ---------------------------------------------------------------------------
# equilibria


def _require_size(scenario: Scenario, partition: Partition) -> None:
    if partition.k != scenario.k:
        raise InvalidArgument(
            f"partition of {partition.k} users given for a scenario of {scenario.k} users"
        )


def _solve_orders(scenario: Scenario, partition_at: Callable[[int], Partition],
                  masks: list[list[int]], orders: Sequence[Sequence[tuple[int, ...]]], *,
                  init: CovarianceProfile | None = None):
    """Cancellation equilibria of decoding orders, each distinct suffix solved once.

    Row i is the partition ``partition_at(i)`` with block masks
    ``masks[i]`` (label order); ``orders[i]`` lists its decoding orders as
    tuples of block labels, first decoded first.  A block's rate depends
    only on the blocks decoded after it, so every order that ends alike
    shares those solves (:func:`_kernels.sic_backward`).

    Returns (qs, rates, sids): each suffix's head covariance and rate,
    and per row a list whose entry [o][j] is the suffix block j heads in
    order o.  Raises :class:`NonConvergence` naming the first row whose
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
    hs, limits, starts = _block_inputs(scenario, blocks, init)
    qs, rates, ok = _kernels.sic_backward(
        scenario.noise, hs, limits, starts, heads, tails, SOLVER_TOL, PA_MAX_ITER
    )
    if not all(ok):
        for row, ids in enumerate(sids):
            if not all(ok[sid] for order_ids in ids for sid in order_ids):
                partition = partition_at(row)
                raise NonConvergence(
                    f"per-antenna solver stalled while decoding partition {partition}",
                    diagnostics={"partition": partition.rgs},
                )
    return qs, rates, sids


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
    must not change the resulting utilities (they are unique).
    """
    if not isinstance(scenario.receiver, SicFixed):
        raise InvalidArgument("ne_sic requires a fixed-order cancellation receiver")
    _require_size(scenario, partition)
    blocks = partition.blocks
    label = {b.mask: j for j, b in enumerate(blocks)}
    order = tuple(label[b.mask] for b in induced_order(partition, scenario.receiver.base_order))
    qs, rates, ((ids,),) = _solve_orders(
        scenario, lambda _: partition, [[b.mask for b in blocks]], [[order]], init=init
    )
    profile = CovarianceProfile(partition, tuple(qs[s] for s in ids))
    values = rates.tolist()
    utilities = {blocks[j].mask: values[ids[j]] for j in order}
    return profile, utilities


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
    iterate and its diagnostics) after ``max_rounds`` sweeps.
    """
    if not isinstance(scenario.receiver, Sud):
        raise InvalidArgument("ne_sud requires a single-user-decoding receiver")
    _require_size(scenario, partition)
    blocks = partition.blocks
    hs, limits, starts = _block_inputs(scenario, blocks, init)
    qs, utils, rounds, converged, delta = _kernels.sud_fixed_point(
        scenario.noise, hs, limits, starts, SUD_TOL, max_rounds, SOLVER_TOL, PA_MAX_ITER,
    )
    profile = CovarianceProfile(partition, tuple(qs))
    utilities = {b.mask: float(u) for b, u in zip(blocks, utils)}
    if not converged:
        raise NonConvergence(
            f"iterative waterfilling did not settle on partition {partition} "
            f"(last utility change {delta:.3e} after {rounds} sweeps)",
            best=(profile, utilities),
            diagnostics={"rounds": int(rounds), "last_delta": float(delta),
                         "partition": partition.rgs},
        )
    return profile, utilities


def _timeshare_orders(receiver: SicTimeShare,
                      n: int) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Weights and label tuples of the nonzero-weight decoding orders of n blocks.

    Orders are the n! permutations in lexicographic order, capped at
    ``_TIMESHARE_MAX_ORDERS``; weights are uniform unless the receiver
    lists one per order.
    """
    n_orders = math.factorial(n)
    if n_orders > _TIMESHARE_MAX_ORDERS:
        raise InvalidArgument(
            f"{n} blocks give {n_orders} decoding orders; the cap is {_TIMESHARE_MAX_ORDERS}"
        )
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


def _time_shared(masks: Sequence[int], weights: np.ndarray,
                 values: np.ndarray) -> dict[int, float]:
    """Weight-average per-order block utilities (orders x blocks).

    A cumulative sum adds the orders one at a time, in order, as a loop
    over the orders would.
    """
    acc = np.cumsum(weights[:, None] * values, axis=0)[-1]
    return dict(zip(masks, acc.tolist()))


def ne_timeshare(scenario: Scenario, partition: Partition) -> dict[int, float]:
    """Average equilibrium utilities over the partition's decoding orders.

    Solves the fixed-order game for each of the N! orders of the
    partition's blocks (lexicographic in canonical block index) that has
    a nonzero weight, sharing the solves of orders that end alike, and
    returns the weight-averaged utility per block: the exact time-shared
    value, not the high-SNR approximation.
    """
    if not isinstance(scenario.receiver, SicTimeShare):
        raise InvalidArgument("ne_timeshare requires the time-sharing receiver")
    _require_size(scenario, partition)
    weights, orders = _timeshare_orders(scenario.receiver, len(partition))
    masks = [b.mask for b in partition.blocks]
    _, rates, (ids,) = _solve_orders(scenario, lambda _: partition, [masks], [orders])
    return _time_shared(masks, weights, rates[ids])


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
        order = induced_order(partition, receiver.base_order)
        index = {b.mask: i for i, b in enumerate(blocks)}
        return sic_grads([index[b.mask] for b in order])
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


def _single_rx_fast_path(scenario: Scenario) -> Callable[[np.ndarray], np.ndarray] | None:
    """Whole-table closed form for one receive antenna, when applicable."""
    if scenario.rx_antennas != 1 or isinstance(scenario.receiver, SicTimeShare):
        return None
    k = scenario.k
    gain2 = np.array([float(np.sum(u.channel ** 2)) for u in scenario.users])
    if scenario.power_mode == "sum":
        mode = 0
        p_sum = np.array([u.power.total for u in scenario.users])
        amp = np.zeros(k)
    else:
        mode = 1
        p_sum = np.zeros(k)
        amp = np.array(
            [float(np.abs(u.channel[0]) @ np.sqrt(np.asarray(u.power.caps)))
             for u in scenario.users]
        )
    if isinstance(scenario.receiver, SicFixed):
        slot = np.zeros(k)
        for pos, user in enumerate(scenario.receiver.base_order):
            slot[user - 1] = float(pos)
        return lambda rgs_mat: _kernels.single_rx_table_numpy(
            rgs_mat, slot, gain2, p_sum, amp, mode, scenario.noise)
    return lambda rgs_mat: _kernels.single_rx_sud_table(
        rgs_mat, gain2, p_sum, amp, mode, scenario.noise)


def _label_masks(rgs: np.ndarray) -> np.ndarray:
    """Block masks of RGS rows: (rows, k), column j for label j, 0 past the last block."""
    k = rgs.shape[1]
    onehot = rgs[:, :, None] == np.arange(k)  # (row, user, label)
    # user bits fit int16 for k <= 12, keeping the product a quarter the size
    return (onehot * (1 << np.arange(k, dtype=np.int16))[:, None]).sum(axis=1)


def _induced_labels(rgs: np.ndarray, base_order: Sequence[int]) -> list[tuple[int, ...]]:
    """Each row's fixed-order decoding order as block labels (latest member rule)."""
    k = rgs.shape[1]
    slot = np.empty(k, dtype=np.int8)
    slot[np.asarray(base_order) - 1] = np.arange(k)
    onehot = rgs[:, :, None] == np.arange(k)
    last = np.where(onehot, slot[None, :, None], np.int8(-1)).max(axis=1)
    last[last < 0] = k  # empty labels sort last
    counts = (rgs.max(axis=1) + 1).tolist()
    return [tuple(o[:n]) for o, n in zip(np.argsort(last, axis=1).tolist(), counts)]


def _fill_closed_form(entries, fast, rgs: np.ndarray) -> None:
    """Add one chunk of RGS rows to ``entries``, block masks in label order."""
    values = fast(rgs)
    counts = rgs.max(axis=1) + 1
    for key, row_masks, row_values, n in zip(
        rgs.tolist(), _label_masks(rgs).tolist(), values.tolist(), counts.tolist()
    ):
        entries[tuple(key)] = dict(zip(row_masks[:n], row_values[:n]))


def _fill_cancellation(entries, scenario: Scenario, rgs: np.ndarray) -> None:
    """Add every row's fixed-order or time-shared utilities, each distinct suffix solved once.

    Fixed-order rows list their blocks in decoding order, time-shared
    rows in label order.
    """
    receiver = scenario.receiver
    counts = (rgs.max(axis=1) + 1).tolist()
    masks = [row[:n] for row, n in zip(_label_masks(rgs).tolist(), counts)]
    if isinstance(receiver, SicFixed):
        orders = [[order] for order in _induced_labels(rgs, receiver.base_order)]
    else:
        # block counts in row order: a misfit weight vector fails on its first row
        plans = {n: _timeshare_orders(receiver, n) for n in dict.fromkeys(counts)}
        orders = [plans[n][1] for n in counts]
    keys = [tuple(row) for row in rgs.tolist()]
    _, rates, sids = _solve_orders(scenario, lambda row: Partition.from_rgs(keys[row]),
                                   masks, orders)
    if isinstance(receiver, SicFixed):
        values = rates.tolist()
        for key, row_masks, (order,), (ids,) in zip(keys, masks, orders, sids):
            entries[key] = {row_masks[j]: values[ids[j]] for j in order}
        return
    for key, row_masks, n, ids in zip(keys, masks, counts, sids):
        entries[key] = _time_shared(row_masks, plans[n][0], rates[ids])


def utility_table(scenario: Scenario) -> UtilityTable:
    """Equilibrium utilities for every coalition of every partition.

    Deterministic given the scenario: partitions are enumerated in
    restricted-growth order and every value is what the partition's own
    game gives (``ne_utilities``), bit for bit, whatever else the table
    holds.  Cancellation tables solve each distinct decoding suffix once
    for all the partitions and orders that share it.  Solver failures are
    re-raised annotated with the first partition that needs the failed
    solve.
    """
    k = scenario.k
    if isinstance(scenario.receiver, SicTimeShare):
        if math.factorial(k) > _TIMESHARE_MAX_ORDERS:
            raise InvalidArgument(
                f"time-share tables are capped at {_TIMESHARE_MAX_ORDERS} decoding orders "
                f"(the singleton partition of {k} users has {math.factorial(k)})"
            )
    elif k > MAX_USERS:
        raise InvalidArgument(f"utility tables are capped at {MAX_USERS} users")

    entries: dict[tuple[int, ...], dict[int, float]] = {}
    fast = _single_rx_fast_path(scenario)
    if fast is not None:
        # chunked so the vectorized paths never materialize huge one-hot
        # tensors (B_12 partitions x 12 users x 12 labels)
        rgs = rgs_matrix(k)
        for start in range(0, len(rgs), RGS_CHUNK_ROWS):
            _fill_closed_form(entries, fast, rgs[start:start + RGS_CHUNK_ROWS])
    elif isinstance(scenario.receiver, Sud):
        for part in enumerate_partitions(k):
            entries[part.rgs] = ne_utilities(scenario, part)
    else:
        _fill_cancellation(entries, scenario, rgs_matrix(k))
    return UtilityTable(k, fingerprint(scenario), entries)
