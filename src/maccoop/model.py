"""Users, channels, coalitions, partitions, and decoding orders.

Everything here is immutable after construction and all functions are
pure, so values can be shared freely between threads.

Users are identified by 1-based ids.  A coalition is a bitmask over the
user set (bit ``k - 1`` set means user ``k`` is a member), a partition
is a tuple of pairwise-disjoint coalitions covering all users, stored in
canonical order (sorted by smallest member).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import InvalidArgument

MAX_USERS = 12

#: Bell numbers B_1..B_12: number of partitions of a K-element set.
BELL_NUMBERS = (1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597)


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_USERS:
        raise InvalidArgument(f"k must be in 1..{MAX_USERS}, got {k}")


def bell_number(k: int) -> int:
    _check_k(k)
    return BELL_NUMBERS[k - 1]


# ---------------------------------------------------------------------------
# power constraints


@dataclass(frozen=True)
class SumPower:
    """Total transmit power budget (watts) shared across a user's antennas."""

    total: float

    def __post_init__(self):
        if not 0.0 <= self.total < math.inf:
            raise InvalidArgument(f"sum power must be finite and >= 0, got {self.total}")


@dataclass(frozen=True)
class PerAntenna:
    """Individual power cap (watts) for each transmit antenna."""

    caps: tuple[float, ...]

    def __post_init__(self):
        caps = tuple(float(c) for c in self.caps)
        if not caps or any(not 0.0 <= c < math.inf for c in caps):
            raise InvalidArgument(f"per-antenna caps must be finite and nonnegative, got {caps}")
        object.__setattr__(self, "caps", caps)


PowerConstraint = Union[SumPower, PerAntenna]


# ---------------------------------------------------------------------------
# receiver models


@dataclass(frozen=True)
class Sud:
    """Single user decoding: every coalition is decoded under full interference."""


@dataclass(frozen=True)
class SicFixed:
    """Successive cancellation with a fixed base decoding order over users.

    ``base_order`` is a permutation of 1..K; position in the tuple is the
    decoding slot.  Coalitions inherit the slot of their latest-decoded
    member (see :func:`induced_order`).
    """

    base_order: tuple[int, ...]

    def __post_init__(self):
        order = tuple(int(u) for u in self.base_order)
        if sorted(order) != list(range(1, len(order) + 1)):
            raise InvalidArgument(f"base_order must be a permutation of 1..K, got {order}")
        object.__setattr__(self, "base_order", order)


@dataclass(frozen=True)
class SicTimeShare:
    """Successive cancellation, time sharing across block decoding orders.

    ``weights`` is a probability vector over the N! decoding orders of
    whatever partition is being evaluated, listed in lexicographic order
    of block-index permutations.  ``None`` means uniform.
    """

    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.weights is None:
            return
        w = tuple(float(x) for x in self.weights)
        if any(not 0.0 <= x < math.inf for x in w):
            raise InvalidArgument("time-share weights must be finite and nonnegative")
        if abs(sum(w) - 1.0) > 1e-12:
            raise InvalidArgument(f"time-share weights must sum to 1, got {sum(w)!r}")
        object.__setattr__(self, "weights", w)


ReceiverModel = Union[Sud, SicFixed, SicTimeShare]


# ---------------------------------------------------------------------------
# coalitions and partitions


@dataclass(frozen=True, order=True)
class Coalition:
    """Nonempty set of users stored as a bitmask (bit k-1 <-> user k)."""

    mask: int

    def __post_init__(self):
        if self.mask <= 0:
            raise InvalidArgument("coalition must be nonempty")

    @staticmethod
    def from_members(members: Iterable[int]) -> "Coalition":
        mask = 0
        for u in members:
            if u < 1:
                raise InvalidArgument(f"user ids are 1-based, got {u}")
            mask |= 1 << (u - 1)
        return Coalition(mask)

    @property
    def members(self) -> tuple[int, ...]:
        out = []
        m, u = self.mask, 1
        while m:
            if m & 1:
                out.append(u)
            m >>= 1
            u += 1
        return tuple(out)

    def __contains__(self, user: int) -> bool:
        return bool(self.mask >> (user - 1) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.members)) + "}"


@dataclass(frozen=True)
class Partition:
    """Disjoint coalitions covering users 1..k, sorted by smallest member."""

    k: int
    blocks: tuple[Coalition, ...]

    def __post_init__(self):
        union = 0
        for b in self.blocks:
            if union & b.mask:
                raise InvalidArgument("partition blocks must be pairwise disjoint")
            union |= b.mask
        if union != (1 << self.k) - 1:
            raise InvalidArgument(f"partition blocks must cover users 1..{self.k}")
        ordered = tuple(sorted(self.blocks, key=lambda b: b.mask & -b.mask))
        object.__setattr__(self, "blocks", ordered)

    @staticmethod
    def from_blocks(k: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        return Partition(k, tuple(Coalition.from_members(b) for b in blocks))

    @staticmethod
    def from_rgs(rgs: Sequence[int]) -> "Partition":
        """Build from a restricted growth string (0-based block labels)."""
        k = len(rgs)
        nblocks = max(rgs) + 1
        masks = [0] * nblocks
        for user, label in enumerate(rgs, start=1):
            masks[label] |= 1 << (user - 1)
        return Partition(k, tuple(Coalition(m) for m in masks))

    @staticmethod
    def singletons(k: int) -> "Partition":
        return Partition(k, tuple(Coalition(1 << i) for i in range(k)))

    @staticmethod
    def grand(k: int) -> "Partition":
        return Partition(k, (Coalition((1 << k) - 1),))

    @functools.cached_property
    def rgs(self) -> tuple[int, ...]:
        """Restricted growth string; block labels follow first appearance.

        Computed on first read and kept in the instance ``__dict__``, which
        a frozen dataclass without slots still has."""
        labels = [0] * self.k
        for idx, block in enumerate(self.blocks):
            m = block.mask
            while m:
                low = m & -m
                labels[low.bit_length() - 1] = idx
                m ^= low
        return tuple(labels)

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[Coalition]:
        return iter(self.blocks)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.blocks)


def rgs_matrix(k: int) -> np.ndarray:
    """Restricted growth strings of every partition of 1..k, one per row.

    Returns a (B_k, k) int8 array in lexicographic order; row entry u-1
    is the block label of user u, labels numbered by first appearance.
    Built one column at a time into the finished array: the prefixes of
    one more user are those before it, each repeated once for every label
    in 0..max+1, and a prefix's last label fills the rows that complete
    it, whose number depends only on its largest label and the columns
    left.
    """
    _check_k(k)
    # ways[r, m]: completions of a prefix whose largest label is m by r more labels
    ways = np.ones((k, k + 1), dtype=np.intp)
    for r in range(1, k):
        ways[r, :k] = np.arange(1, k + 1) * ways[r - 1, :k] + ways[r - 1, 1:]
    rgs = np.zeros((BELL_NUMBERS[k - 1], k), dtype=np.int8)
    top = np.zeros(1, dtype=np.intp)  # largest label of each prefix
    for t in range(1, k):
        choices = top + 2
        starts = np.cumsum(choices) - choices
        label = np.arange(starts[-1] + choices[-1]) - np.repeat(starts, choices)
        top = np.maximum(np.repeat(top, choices), label)
        rgs[:, t] = np.repeat(label.astype(np.int8), ways[k - 1 - t].take(top))
    return rgs


def block_counts(rgs: np.ndarray) -> np.ndarray:
    """Blocks per RGS row, its largest label plus one: ``rgs.max(axis=1) + 1``, int8
    like the labels, from one elementwise maximum per column."""
    top = rgs[:, 0].copy()
    for u in range(1, rgs.shape[1]):
        np.maximum(top, rgs[:, u], out=top)
    top += 1
    return top


#: Rows of :func:`rgs_matrix` handled at a time (as Partitions here, as block masks
#: and layout arrays in the closed-form tables), so no caller holds B_12 rows of them.
RGS_CHUNK_ROWS = 100_000


def enumerate_partitions(k: int) -> Iterator[Partition]:
    """Yield all partitions of 1..k in lexicographic restricted-growth order.

    The count equals the Bell number B_k; k is capped at 12 to keep the
    enumeration (and anything built on it) desk-scale.
    """
    rgs = rgs_matrix(k)
    for start in range(0, len(rgs), RGS_CHUNK_ROWS):
        for row in rgs[start:start + RGS_CHUNK_ROWS].tolist():
            yield Partition.from_rgs(row)


# ---------------------------------------------------------------------------
# scenario


@dataclass(frozen=True, eq=False)
class UserSpec:
    """One transmitter: id, antenna count, channel matrix, power constraint.

    ``channel`` has shape (M, antennas) where M is the receiver antenna
    count; entries are real dimensionless gains.
    """

    id: int
    antennas: int
    channel: np.ndarray
    power: PowerConstraint

    def __post_init__(self):
        if self.id < 1:
            raise InvalidArgument(f"user ids are 1-based, got {self.id}")
        if self.antennas < 1:
            raise InvalidArgument(f"user {self.id}: antennas must be >= 1")
        ch = np.ascontiguousarray(np.asarray(self.channel, dtype=np.float64))
        if ch.ndim != 2 or ch.shape[1] != self.antennas:
            raise InvalidArgument(
                f"user {self.id}: channel must be (M, {self.antennas}), got {ch.shape}"
            )
        if not np.all(np.isfinite(ch)):
            raise InvalidArgument(f"user {self.id}: channel entries must be finite")
        if isinstance(self.power, PerAntenna) and len(self.power.caps) != self.antennas:
            raise InvalidArgument(
                f"user {self.id}: {len(self.power.caps)} per-antenna caps "
                f"for {self.antennas} antennas"
            )
        ch.setflags(write=False)
        object.__setattr__(self, "channel", ch)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A full game instance: users, receiver antennas, noise, receiver model."""

    users: tuple[UserSpec, ...]
    rx_antennas: int
    noise: float
    receiver: ReceiverModel

    def __post_init__(self):
        if not self.users:
            raise InvalidArgument("scenario needs at least one user")
        if self.rx_antennas < 1:
            raise InvalidArgument("rx_antennas must be >= 1")
        if not 0.0 < self.noise < math.inf:
            raise InvalidArgument(f"noise N0 must be finite and > 0, got {self.noise}")
        users = tuple(self.users)
        ids = [u.id for u in users]
        if ids != list(range(1, len(users) + 1)):
            raise InvalidArgument(f"user ids must be exactly 1..K in order, got {ids}")
        for u in users:
            if u.channel.shape[0] != self.rx_antennas:
                raise InvalidArgument(
                    f"user {u.id}: channel has {u.channel.shape[0]} rows, "
                    f"receiver has {self.rx_antennas} antennas"
                )
        modes = {type(u.power) for u in users}
        if len(modes) > 1:
            # mixed budgets would need a hybrid trace/diagonal constraint set
            # that none of the solvers target; reject upfront
            raise InvalidArgument("all users must share one power-constraint mode")
        if isinstance(self.receiver, SicFixed) and len(self.receiver.base_order) != len(users):
            raise InvalidArgument("base_order length must equal the number of users")
        object.__setattr__(self, "users", users)

    @property
    def k(self) -> int:
        return len(self.users)

    @property
    def power_mode(self) -> str:
        return "sum" if isinstance(self.users[0].power, SumPower) else "per_antenna"

    def user(self, user_id: int) -> UserSpec:
        return self.users[user_id - 1]

    def with_noise(self, n0: float) -> "Scenario":
        return replace(self, noise=float(n0))

    def with_receiver(self, receiver: ReceiverModel) -> "Scenario":
        return replace(self, receiver=receiver)


# ---------------------------------------------------------------------------
# operations


def induced_order(partition: Partition, base_order: Sequence[int]) -> tuple[Coalition, ...]:
    """Decoding order of a partition's blocks under a user-level base order.

    A merged coalition inherits the slot of its latest-decoded member, so
    blocks are decoded in increasing order of max base-order position over
    their members.  The result lists every block exactly once.
    """
    base = tuple(int(u) for u in base_order)
    if sorted(base) != list(range(1, partition.k + 1)):
        raise InvalidArgument(f"base_order must be a permutation of 1..{partition.k}")
    slot = {user: pos for pos, user in enumerate(base)}
    return tuple(sorted(partition.blocks, key=lambda b: max(slot[u] for u in b)))


def coalition_channel(scenario: Scenario, coalition: Coalition) -> np.ndarray:
    """Effective channel of a coalition: member matrices stacked column-wise.

    Members are stacked in ascending id order, giving an
    M x (sum of member antenna counts) matrix H with
    H H^T = sum of the members' G_k G_k^T.
    """
    if coalition.mask >= (1 << scenario.k):
        raise InvalidArgument(f"coalition {coalition} has members beyond user {scenario.k}")
    return np.concatenate([scenario.user(u).channel for u in coalition], axis=1)


def _grand_power(scenario: Scenario) -> float:
    """The grand coalition's largest received power, summed over receive antennas.

    Under pooled budgets it is (sum of squared channel entries)(sum of
    budgets), under antenna caps the sum over receive antennas of (sum of
    |channel entry| sqrt(cap))^2: with one receive antenna exactly the
    closed form's grand-coalition power, K^2 for the unit gains and
    budgets of :func:`maccoop.analysis.symmetric_scenario`, and with more
    an upper bound on the trace of any received covariance.
    """
    channel = np.hstack([u.channel for u in scenario.users])
    if scenario.power_mode == "sum":
        return float(np.sum(channel ** 2)) * sum(u.power.total for u in scenario.users)
    root = np.sqrt(np.concatenate([u.power.caps for u in scenario.users]))
    return float(np.sum((np.abs(channel) @ root) ** 2))
