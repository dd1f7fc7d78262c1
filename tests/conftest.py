"""Shared builders for test scenarios and feasible covariance profiles."""

import numpy as np
import pytest

from maccoop.capacity import CovarianceProfile, block_budget, block_caps
from maccoop.model import (
    PerAntenna,
    Scenario,
    SicFixed,
    Sud,
    SumPower,
    UserSpec,
)


def symmetric(k, n0, receiver, power=1.0, gain=1.0):
    users = tuple(UserSpec(i + 1, 1, np.array([[gain]]), SumPower(power)) for i in range(k))
    return Scenario(users, 1, n0, receiver)


def rank_one_sud_160db():
    """Three users on one direction (1, 1) of a 2-antenna receiver, unit budgets,
    N0 = 1e-16, single-user decoding: N0 I plus any block's received covariance
    rounds to a singular matrix, so the grand partition's potential log det
    cannot be formed, and no closed form applies."""
    users = tuple(UserSpec(i + 1, 1, np.array([[1.0], [1.0]]), SumPower(1.0)) for i in range(3))
    return Scenario(users, 2, 1e-16, Sud())


def random_scenario(rng, *, k=None, m=None, mode="sum", receiver=None, n0=1.0,
                    max_k=4, max_m=3, max_antennas=2):
    """Seeded random game instance used across property and acceptance tests."""
    k = int(rng.integers(2, max_k + 1)) if k is None else k
    m = int(rng.integers(1, max_m + 1)) if m is None else m
    users = []
    for uid in range(1, k + 1):
        n_t = int(rng.integers(1, max_antennas + 1))
        channel = rng.normal(size=(m, n_t))
        if mode == "sum":
            power = SumPower(float(rng.uniform(0.5, 2.0)))
        else:
            power = PerAntenna(tuple(rng.uniform(0.5, 2.0, size=n_t)))
        users.append(UserSpec(uid, n_t, channel, power))
    if receiver is None:
        receiver = SicFixed(tuple(range(1, k + 1)))
    return Scenario(tuple(users), m, n0, receiver)


def random_feasible_profile(rng, scenario, partition):
    """A uniformly messy feasible covariance profile for the partition."""
    mats = []
    for block in partition.blocks:
        width = sum(scenario.user(u).antennas for u in block)
        a = rng.normal(size=(width, width))
        q = a @ a.T
        if scenario.power_mode == "sum":
            budget = block_budget(scenario, block)
            tr = np.trace(q)
            if tr > 0:
                q *= rng.uniform(0.1, 1.0) * budget / tr
        else:
            caps = block_caps(scenario, block)
            d = np.diag(q)
            scale = np.min(np.where(d > 0, caps / np.maximum(d, 1e-300), np.inf))
            q *= min(1.0, scale) * rng.uniform(0.1, 1.0)
        mats.append(q)
    return CovarianceProfile(partition, tuple(mats))


@pytest.fixture
def rng():
    """A fresh generator per test, so its draws do not depend on test order."""
    return np.random.default_rng(20240811)
