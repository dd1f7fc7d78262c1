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

#: Stationarity tolerance handed to the capped-ascent solver.
SOLVER_TOL = 1e-8

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


def _sic_with_order(
    scenario: Scenario,
    partition: Partition,
    decode_order: Sequence[Coalition],
    init: CovarianceProfile | None = None,
    solver_tol: float = SOLVER_TOL,
) -> tuple[CovarianceProfile, dict[int, float]]:
    hs, limits, starts = _block_inputs(scenario, decode_order, init)
    qs, utils, ok = _kernels.sic_backward(
        scenario.noise, hs, limits, starts, solver_tol, PA_MAX_ITER
    )
    if not ok:
        raise NonConvergence(
            f"per-antenna solver stalled while decoding partition {partition}",
            diagnostics={"partition": partition.rgs},
        )
    by_mask = {b.mask: q for b, q in zip(decode_order, qs)}
    profile = CovarianceProfile(partition, tuple(by_mask[b.mask] for b in partition.blocks))
    utilities = {b.mask: float(u) for b, u in zip(decode_order, utils)}
    return profile, utilities


def ne_sic(
    scenario: Scenario,
    partition: Partition,
    *,
    init: CovarianceProfile | None = None,
    solver_tol: float = SOLVER_TOL,
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
    order = induced_order(partition, scenario.receiver.base_order)
    return _sic_with_order(scenario, partition, order, init, solver_tol)


def ne_sud(
    scenario: Scenario,
    partition: Partition,
    *,
    init: CovarianceProfile | None = None,
    max_rounds: int = SUD_MAX_ROUNDS,
    solver_tol: float = SOLVER_TOL,
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
    blocks = partition.blocks
    hs, limits, starts = _block_inputs(scenario, blocks, init)
    qs, utils, rounds, converged, delta = _kernels.sud_fixed_point(
        scenario.noise, hs, limits, starts, SUD_TOL, max_rounds,
        solver_tol, PA_MAX_ITER,
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


def _order_weights(receiver: SicTimeShare, n: int) -> tuple[float, ...]:
    """Weights of the n! block decoding orders: capped, uniform by default."""
    n_orders = math.factorial(n)
    if n_orders > _TIMESHARE_MAX_ORDERS:
        raise InvalidArgument(
            f"{n} blocks give {n_orders} decoding orders; the cap is {_TIMESHARE_MAX_ORDERS}"
        )
    if receiver.weights is None:
        return (1.0 / n_orders,) * n_orders
    if len(receiver.weights) != n_orders:
        raise InvalidArgument(
            f"{len(receiver.weights)} weights supplied for {n_orders} decoding orders"
        )
    return receiver.weights


def ne_timeshare(scenario: Scenario, partition: Partition,
                 *, solver_tol: float = SOLVER_TOL) -> dict[int, float]:
    """Average equilibrium utilities over the partition's decoding orders.

    Runs the fixed-order game for each of the N! orders of the
    partition's blocks (lexicographic in canonical block index) and
    returns the weight-averaged utility per block: the exact time-shared
    value, not the high-SNR approximation.
    """
    if not isinstance(scenario.receiver, SicTimeShare):
        raise InvalidArgument("ne_timeshare requires the time-sharing receiver")
    weights = _order_weights(scenario.receiver, len(partition))
    acc = {b.mask: 0.0 for b in partition.blocks}
    for w, order in zip(weights, itertools.permutations(partition.blocks)):
        if w == 0.0:
            continue
        _, utils = _sic_with_order(scenario, partition, order, None, solver_tol)
        for mask, v in utils.items():
            acc[mask] += w * v
    return acc


def ne_utilities(scenario: Scenario, partition: Partition,
                 *, solver_tol: float = SOLVER_TOL) -> dict[int, float]:
    """Equilibrium utilities under the scenario's receiver model."""
    receiver = scenario.receiver
    if isinstance(receiver, SicFixed):
        return ne_sic(scenario, partition, solver_tol=solver_tol)[1]
    if isinstance(receiver, Sud):
        return ne_sud(scenario, partition, solver_tol=solver_tol)[1]
    return ne_timeshare(scenario, partition, solver_tol=solver_tol)


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
    weights = _order_weights(receiver, len(blocks))
    acc = [np.zeros((h.shape[1], h.shape[1])) for h in channels]
    for w, perm in zip(weights, itertools.permutations(range(len(blocks)))):
        if w == 0.0:
            continue
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


def _fill_closed_form(entries, fast, rgs: np.ndarray) -> None:
    """Add one chunk of RGS rows to ``entries``, block masks in label order."""
    k = rgs.shape[1]
    values = fast(rgs)
    onehot = rgs[:, :, None] == np.arange(k)  # (row, user, label)
    # user bits fit int16 for k <= 12, keeping the product a quarter the size
    masks = (onehot * (1 << np.arange(k, dtype=np.int16))[:, None]).sum(axis=1)
    counts = rgs.max(axis=1) + 1
    for key, row_masks, row_values, n in zip(
        rgs.tolist(), masks.tolist(), values.tolist(), counts.tolist()
    ):
        entries[tuple(key)] = dict(zip(row_masks[:n], row_values[:n]))


def utility_table(scenario: Scenario, *, solver_tol: float = SOLVER_TOL) -> UtilityTable:
    """Equilibrium utilities for every coalition of every partition.

    Deterministic given the scenario: partitions are enumerated in
    restricted-growth order and each partition's game is independent, so
    results do not depend on evaluation order.  Solver failures are
    re-raised annotated with the offending partition.
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
        return UtilityTable(k, fingerprint(scenario), entries)

    for part in enumerate_partitions(k):
        entries[part.rgs] = ne_utilities(scenario, part, solver_tol=solver_tol)
    return UtilityTable(k, fingerprint(scenario), entries)
