"""Achievable-rate computations for coalitions of transmitters.

Public wrappers around the numeric kernels: argument validation lives
here, the hot loops live in :mod:`maccoop._kernels`.  All rates are in
nats (natural logarithm); every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import InvalidArgument, InvalidCovariance, NonConvergence, NumericalFailure
from .model import (
    Coalition,
    Partition,
    Scenario,
    SicTimeShare,
    coalition_channel,
)

PSD_TOL = 1e-10
POWER_TOL = 1e-9

#: Duality gap (nats) at which per-antenna solves stop, and their Newton step cap.
SOLVER_TOL = 1e-10
PA_MAX_ITER = 100


def _as_psd(name: str, a, n: int | None = None) -> np.ndarray:
    mat = np.asarray(a, dtype=np.float64)
    if mat.ndim == 0:
        mat = mat.reshape(1, 1)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidCovariance(f"{name} must be a square matrix, got shape {mat.shape}")
    if n is not None and mat.shape[0] != n:
        raise InvalidCovariance(f"{name} must be {n}x{n}, got {mat.shape}")
    if not np.allclose(mat, mat.T, atol=1e-8, rtol=0.0):
        raise InvalidCovariance(f"{name} must be symmetric")
    evals = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    scale = max(1.0, float(abs(evals).max(initial=0.0)))
    if evals.min(initial=0.0) < -PSD_TOL * scale:
        raise InvalidCovariance(f"{name} is not PSD (min eigenvalue {evals.min():.3e})")
    return 0.5 * (mat + mat.T)


def _channel_matrix(h) -> np.ndarray:
    mat = np.asarray(h, dtype=np.float64)
    if mat.ndim == 1:
        mat = mat.reshape(1, -1)
    if mat.ndim != 2:
        raise InvalidArgument(f"channel must be a matrix, got ndim={mat.ndim}")
    return np.ascontiguousarray(mat)


# ---------------------------------------------------------------------------
# strategy profiles


@dataclass(frozen=True)
class CovarianceProfile:
    """Transmit covariances for every block of a partition.

    ``matrices[i]`` belongs to ``partition.blocks[i]`` and has the
    block's total antenna count on each side.
    """

    partition: Partition
    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.matrices) != len(self.partition.blocks):
            raise InvalidArgument("one covariance matrix per partition block required")
        mats = []
        for block, q in zip(self.partition.blocks, self.matrices):
            arr = np.asarray(q, dtype=np.float64)
            arr.setflags(write=False)
            mats.append(arr)
        object.__setattr__(self, "matrices", tuple(mats))


def block_budget(scenario: Scenario, coalition: Coalition) -> float:
    """Pooled trace budget of a coalition (sum-power scenarios)."""
    return float(sum(scenario.user(u).power.total for u in coalition))


def block_caps(scenario: Scenario, coalition: Coalition) -> np.ndarray:
    """Stacked per-antenna caps of a coalition, ascending member id."""
    return np.array([c for u in coalition for c in scenario.user(u).power.caps])


def validate_profile(scenario: Scenario, profile: CovarianceProfile) -> None:
    """Raise InvalidCovariance unless every block matrix is PSD and feasible."""
    for block, q in zip(profile.partition.blocks, profile.matrices):
        width = sum(scenario.user(u).antennas for u in block)
        mat = _as_psd(f"Q{block}", q, width)
        if scenario.power_mode == "sum":
            budget = block_budget(scenario, block)
            if np.trace(mat) > budget + POWER_TOL:
                raise InvalidCovariance(
                    f"trace(Q{block}) = {np.trace(mat):.12g} exceeds budget {budget:.12g}"
                )
        else:
            caps = block_caps(scenario, block)
            if np.any(np.diag(mat) > caps + POWER_TOL):
                raise InvalidCovariance(f"diag(Q{block}) exceeds per-antenna caps")


# ---------------------------------------------------------------------------
# rate primitives


def logdet_rate(n0: float, h, q, j=None) -> float:
    """Achievable rate log det(N0 I + H Q H^T + J) - log det(N0 I + J).

    ``j`` is the interference covariance seen while decoding; ``None``
    means interference-free.  Natural logarithm, so the result is in
    nats, and it is always >= 0.
    """
    if not n0 > 0.0:
        raise InvalidArgument(f"N0 must be > 0, got {n0}")
    mat = _channel_matrix(h)
    m, w = mat.shape
    qm = _as_psd("Q", q, w)
    jm = np.zeros((m, m)) if j is None else _as_psd("J", j, m)
    return float(_kernels.logdet_ratio(float(n0), mat, qm, jm))


def waterfill(h, noise_cov, p_total: float) -> tuple[np.ndarray, float]:
    """Optimal covariance and rate under a total power budget.

    Maximizes ``log det(noise_cov + H Q H^T) - log det(noise_cov)``
    subject to tr(Q) <= p_total, Q PSD, by waterfilling over the
    whitened channel's eigenmodes.  Ties between equal modes are broken
    by ascending mode index, so the output is deterministic.
    """
    if not p_total >= 0.0:
        raise InvalidArgument(f"power budget must be >= 0, got {p_total}")
    mat = _channel_matrix(h)
    noise = _as_psd("noise_cov", noise_cov, mat.shape[0])
    evals = np.linalg.eigvalsh(noise)
    if evals.min() < 1e-12 * max(evals.max(), 1e-300):
        raise NumericalFailure(
            f"noise covariance is numerically singular (eigenvalues {evals})"
        )
    q, rate = _kernels.waterfill(mat, noise, float(p_total))
    return q, float(rate)


def maximize_per_antenna(
    h,
    noise_cov,
    p,
    *,
    q0=None,
    tol: float = SOLVER_TOL,
    max_iter: int = PA_MAX_ITER,
) -> tuple[np.ndarray, float]:
    """Optimal covariance and rate under per-antenna power caps.

    Damped Newton on the Lagrange dual over the antenna prices (see
    :func:`maccoop._kernels.pa_maximize`).  Each iterate gives a feasible
    Q (PSD, diag(Q) <= p) and a dual upper bound on the optimal rate; the
    solve stops once their gap is at most ``tol`` nats.  Hitting
    ``max_iter`` Newton steps first, or a line search that cannot
    descend, raises :class:`NonConvergence` carrying the last feasible
    iterate and its gap.

    ``q0`` optionally seeds the starting prices (useful for multi-start
    checks); the default start is diag(p).
    """
    mat = _channel_matrix(h)
    m, w = mat.shape
    caps = np.asarray(p, dtype=np.float64).reshape(-1)
    if caps.shape[0] != w or np.any(caps < 0.0):
        raise InvalidArgument(f"need {w} nonnegative per-antenna caps, got {caps}")
    noise = _as_psd("noise_cov", noise_cov, m)
    if q0 is None:
        start = np.diag(caps)
    else:
        start = _as_psd("q0", q0, w)
    q, rate, gap, iters, conv = _kernels.pa_maximize(
        mat, noise, caps, start, float(tol), int(max_iter)
    )
    if not conv:
        raise NonConvergence(
            f"per-antenna solve stopped at duality gap {gap:.3e} after {iters} Newton steps",
            best=(q, float(rate)),
            diagnostics={"gap": float(gap), "iterations": int(iters)},
        )
    return q, float(rate)


def interference_free_rate(scenario: Scenario, coalition: Coalition) -> tuple[np.ndarray, float]:
    """A coalition's maximum rate against receiver noise alone."""
    h = coalition_channel(scenario, coalition)
    noise = scenario.noise * np.eye(scenario.rx_antennas)
    if scenario.power_mode == "sum":
        return waterfill(h, noise, block_budget(scenario, coalition))
    return maximize_per_antenna(h, noise, block_caps(scenario, coalition))


# ---------------------------------------------------------------------------
# single receive antenna closed forms


def _received_power(scenario: Scenario, coalition: Coalition) -> float:
    """Closed-form received signal power of a coalition when M = 1."""
    if scenario.power_mode == "sum":
        gain2 = sum(float(np.sum(scenario.user(u).channel ** 2)) for u in coalition)
        return gain2 * block_budget(scenario, coalition)
    amp = 0.0
    for u in coalition:
        user = scenario.user(u)
        amp += float(np.abs(user.channel[0]) @ np.sqrt(np.asarray(user.power.caps)))
    return amp * amp


def single_antenna_utilities(
    scenario: Scenario, partition: Partition, order: Sequence[Coalition]
) -> dict[int, float]:
    """Exact equilibrium utilities for a single receive antenna.

    ``order`` lists the partition's blocks in decoding order.  With one
    receive antenna, beamforming is optimal and each block's utility is
    the log ratio of cumulative undecoded received power: under a pooled
    budget the block's power is (sum of member gain^2)(sum of member
    budgets); under antenna caps it is (sum of |h| sqrt(cap))^2.

    Returns a map from coalition mask to utility in nats.
    """
    if scenario.rx_antennas != 1:
        raise InvalidArgument("closed forms require a single receive antenna")
    if sorted(b.mask for b in order) != sorted(b.mask for b in partition.blocks):
        raise InvalidArgument("order must list exactly the partition's blocks")
    powers = [_received_power(scenario, block) for block in order]
    out: dict[int, float] = {}
    undecoded = 0.0
    for block, p in zip(reversed(order), reversed(powers)):
        out[block.mask] = float(np.log((scenario.noise + undecoded + p) / (scenario.noise + undecoded)))
        undecoded += p
    return out


# ---------------------------------------------------------------------------
# SNR-regime approximations


def low_snr_utility(h, p_total: float, n0: float) -> float:
    """Noise-dominated utility: sigma_max(H)^2 P / N0.

    All power rides the dominant eigenmode in this regime, and the
    value is independent of any interference.
    """
    if not n0 > 0.0:
        raise InvalidArgument(f"N0 must be > 0, got {n0}")
    if not p_total >= 0.0:
        raise InvalidArgument(f"power must be >= 0, got {p_total}")
    mat = _channel_matrix(h)
    smax = float(np.linalg.svd(mat, compute_uv=False)[0]) if mat.size else 0.0
    return smax * smax * p_total / n0


def timeshare_highsnr_utility(scenario: Scenario, coalition: Coalition) -> float:
    """Dominant-term utility under uniform time sharing of decoding orders.

    Keeps only the unbounded interference-free term: |S|/K times the
    coalition's interference-free maximum rate.  Defined only for the
    uniform time-share receiver.
    """
    if not isinstance(scenario.receiver, SicTimeShare) or scenario.receiver.weights is not None:
        raise InvalidArgument("approximation defined only for uniform time sharing")
    _, rate = interference_free_rate(scenario, coalition)
    return len(coalition) / scenario.k * rate
