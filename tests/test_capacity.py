import numpy as np
import pytest

from maccoop import _kernels
from maccoop.capacity import (
    PA_MAX_ITER,
    SOLVER_TOL,
    interference_free_rate,
    logdet_rate,
    low_snr_utility,
    maximize_per_antenna,
    single_antenna_utilities,
    timeshare_highsnr_utility,
    waterfill,
)
from maccoop.errors import (
    InvalidArgument,
    InvalidCovariance,
    NonConvergence,
    NumericalFailure,
)
from maccoop.model import (
    Coalition,
    Partition,
    PerAntenna,
    Scenario,
    SicTimeShare,
    Sud,
    SumPower,
    UserSpec,
    induced_order,
)

from conftest import symmetric


def det_cofactor(a):
    """Determinant by cofactor expansion: an oracle independent of lapack."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * det_cofactor(minor)
    return total


class TestLogdetRate:
    def test_scalar_no_interference(self):
        assert logdet_rate(1.0, [[1.0]], [[1.0]]) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_scalar_with_interference(self):
        got = logdet_rate(1.0, [[1.0]], [[1.0]], [[1.0]])
        assert got == pytest.approx(np.log(1.5), abs=1e-12)

    def test_against_cofactor_oracle(self, rng):
        for _ in range(50):
            h = rng.normal(size=(2, 2))
            a = rng.normal(size=(2, 2))
            q = a @ a.T
            b = rng.normal(size=(2, 2))
            j = b @ b.T
            n0 = float(rng.uniform(0.1, 2.0))
            eye = n0 * np.eye(2)
            expected = np.log(det_cofactor(eye + h @ q @ h.T + j) / det_cofactor(eye + j))
            assert logdet_rate(n0, h, q, j) == pytest.approx(expected, abs=1e-10)

    def test_nonnegative_and_zero_iff_silent(self, rng):
        h = rng.normal(size=(2, 3))
        a = rng.normal(size=(3, 3))
        q = a @ a.T
        assert logdet_rate(1.0, h, q) > 0.0
        assert logdet_rate(1.0, h, np.zeros((3, 3))) == 0.0

    def test_rejects_non_psd(self):
        with pytest.raises(InvalidCovariance):
            logdet_rate(1.0, [[1.0]], [[-0.5]])
        with pytest.raises(InvalidCovariance):
            logdet_rate(1.0, np.ones((2, 2)), np.eye(2), [[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_bad_noise(self):
        with pytest.raises(InvalidArgument):
            logdet_rate(0.0, [[1.0]], [[1.0]])


class TestWaterfill:
    def test_two_mode_hand_kkt(self):
        # water level mu = 1.125 splits one watt as (0.875, 0.125)
        q, rate = waterfill(np.diag([2.0, 1.0]), np.eye(2), 1.0)
        np.testing.assert_allclose(np.diag(q), [0.875, 0.125], atol=1e-9)
        assert rate == pytest.approx(np.log(4.5) + np.log(1.125), abs=1e-9)

    def test_rank_one_gets_everything(self):
        h = np.array([[3.0], [4.0]])  # single column, norm 5
        q, rate = waterfill(h, np.eye(2), 2.0)
        assert q[0, 0] == pytest.approx(2.0, abs=1e-9)
        assert rate == pytest.approx(np.log(1.0 + 25.0 * 2.0), abs=1e-9)

    def test_symmetric_split(self):
        q, rate = waterfill(np.eye(2), np.eye(2), 2.0)
        np.testing.assert_allclose(np.diag(q), [1.0, 1.0], atol=1e-9)
        assert rate == pytest.approx(2.0 * np.log(2.0), abs=1e-9)

    def test_complementary_slackness(self, rng):
        for _ in range(25):
            m, w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            h = rng.normal(size=(m, w))
            p = float(rng.uniform(0.2, 3.0))
            q, _ = waterfill(h, np.eye(m), p)
            evals = np.linalg.eigvalsh(q)
            white_gains = np.linalg.svd(h, compute_uv=False) ** 2
            # active modes share one water level; inactive modes have
            # inverse gain above it
            active = [(lam, g) for lam, g in zip(sorted(evals, reverse=True), white_gains)
                      if lam > 1e-12]
            if active:
                levels = [lam + 1.0 / g for lam, g in active]
                assert max(levels) - min(levels) < 1e-8
                mu = levels[0]
                for g in white_gains[len(active):]:
                    if g > 1e-12:
                        assert 1.0 / g >= mu - 1e-8
            assert np.trace(q) <= p + 1e-9

    def test_beats_random_feasible(self, rng):
        h = rng.normal(size=(3, 3))
        noise = np.eye(3)
        p = 2.0
        _, rate = waterfill(h, noise, p)
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            q = a @ a.T
            q *= p / np.trace(q)
            rival = logdet_rate(1.0, h, q)
            assert rate >= rival - 1e-10

    def test_whitened_against_colored_noise(self, rng):
        # waterfilling against a non-identity noise covariance must beat
        # random feasible covariances evaluated by the raw determinant ratio
        h = rng.normal(size=(2, 2))
        a = rng.normal(size=(2, 2))
        noise = a @ a.T + 0.5 * np.eye(2)
        q, rate = waterfill(h, noise, 1.5)
        s, ld1 = np.linalg.slogdet(noise + h @ q @ h.T)
        _, ld0 = np.linalg.slogdet(noise)
        assert rate == pytest.approx(ld1 - ld0, abs=1e-9)

    def test_singular_noise_rejected(self):
        with pytest.raises(NumericalFailure):
            waterfill(np.eye(2), np.diag([1.0, 0.0]), 1.0)

    def test_zero_power(self):
        q, rate = waterfill(np.eye(2), np.eye(2), 0.0)
        assert rate == 0.0
        np.testing.assert_array_equal(q, np.zeros((2, 2)))


class TestWaterfillStack:
    @staticmethod
    def hexes(a):
        return [float(x).hex() for x in np.ravel(a).tolist()]

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("w", [1, 2, 3, 4, 5])
    def test_rows_equal_scalar_calls_bitwise(self, m, w):
        # 140 rows per shape, 2100 in all: plain, a zero column, rank one,
        # an all-zero channel, budgets 1e-6..1e2 and a few budgets <= 0
        gen = np.random.default_rng([41, m, w])
        rows = 140
        h = gen.normal(size=(rows, m, w))
        for i in range(rows):
            if i % 4 == 1:
                h[i][:, gen.integers(w)] = 0.0
            elif i % 4 == 2:
                h[i] = np.outer(gen.normal(size=m), gen.normal(size=w))
            elif i % 4 == 3 and i % 3 == 0:
                h[i] = 0.0
        a = gen.normal(size=(rows, m, m))
        noise = a @ a.swapaxes(1, 2) + gen.uniform(0.01, 3.0, size=(rows, 1, 1)) * np.eye(m)
        p = 10.0 ** gen.uniform(-6.0, 2.0, size=rows)
        p[::29] = 0.0
        p[7] = -0.5
        q, rate = _kernels.waterfill_stack(h, noise, p)
        assert q.shape == (rows, w, w) and rate.shape == (rows,)
        for i in range(rows):
            q1, r1 = _kernels.waterfill(h[i], noise[i], p[i])
            assert self.hexes(q[i]) == self.hexes(q1), i
            assert float(rate[i]).hex() == float(r1).hex(), i


def grid_search_max_rate(h, noise, caps, coarse=101, fine_step=1e-3, span=0.02):
    """Independent per-antenna oracle: two-stage grid over (q11, q22, q12).

    The objective is concave on the (convex) feasible set, so a coarse
    global grid localizes the maximum and a fine local grid pins it.
    """

    def rates(q11, q22, q12):
        # 2x2 determinant ratio, vectorized over q12
        s11 = noise[0, 0] + h[0, 0] ** 2 * q11 + h[0, 1] ** 2 * q22 \
            + 2 * h[0, 0] * h[0, 1] * q12
        s22 = noise[1, 1] + h[1, 0] ** 2 * q11 + h[1, 1] ** 2 * q22 \
            + 2 * h[1, 0] * h[1, 1] * q12
        s12 = noise[0, 1] + h[0, 0] * h[1, 0] * q11 + h[0, 1] * h[1, 1] * q22 \
            + (h[0, 0] * h[1, 1] + h[0, 1] * h[1, 0]) * q12
        det_noise = noise[0, 0] * noise[1, 1] - noise[0, 1] ** 2
        return np.log((s11 * s22 - s12 ** 2) / det_noise)

    def stage(g1, g2, g12):
        best = (-np.inf, 0.0, 0.0, 0.0)
        for q11 in g1:
            for q22 in g2:
                lim = np.sqrt(q11 * q22)
                q12 = g12[np.abs(g12) <= lim]
                if q12.size == 0:
                    continue
                vals = rates(q11, q22, q12)
                i = int(np.argmax(vals))
                if vals[i] > best[0]:
                    best = (float(vals[i]), q11, q22, float(q12[i]))
        return best

    lim = float(np.sqrt(caps[0] * caps[1]))
    best = stage(np.linspace(0, caps[0], coarse), np.linspace(0, caps[1], coarse),
                 np.linspace(-lim, lim, 2 * coarse - 1))
    _, q11, q22, q12 = best
    local = stage(
        np.arange(max(0, q11 - span), min(caps[0], q11 + span) + fine_step / 2, fine_step),
        np.arange(max(0, q22 - span), min(caps[1], q22 + span) + fine_step / 2, fine_step),
        np.arange(max(-lim, q12 - span), min(lim, q12 + span) + fine_step / 2, fine_step),
    )
    return max(best[0], local[0])


def project_capped(q, caps):
    """q scaled by one factor so that diag(q) <= caps: a feasible sample."""
    d = np.diag(q)
    on = d > 0.0
    return q * min(1.0, np.min(caps[on] / d[on])) if on.any() else q


class TestMaximizePerAntenna:
    def test_single_rx_beamforming(self):
        q, rate = maximize_per_antenna([[1.0, 1.0]], [[1.0]], (1.0, 1.0))
        assert rate == pytest.approx(np.log(5.0), abs=1e-12)
        np.testing.assert_allclose(q, np.ones((2, 2)), atol=1e-12)

    def test_single_antenna_user(self):
        q, rate = maximize_per_antenna([[2.0]], [[1.0]], (0.5,))
        assert q[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert rate == pytest.approx(np.log(1.0 + 4.0 * 0.5), abs=1e-12)

    def test_sign_matched_beam(self):
        _, rate = maximize_per_antenna([[1.0, -2.0]], [[1.0]], (1.0, 1.0))
        assert rate == pytest.approx(np.log(1.0 + 9.0), abs=1e-12)

    def test_against_grid_oracle(self, rng):
        for _ in range(5):
            h = rng.normal(size=(2, 2))
            caps = rng.uniform(0.3, 1.0, size=2)
            _, rate = maximize_per_antenna(h, np.eye(2), caps, tol=1e-8)
            oracle = grid_search_max_rate(h, np.eye(2), caps)
            assert rate == pytest.approx(oracle, abs=1e-4)
            assert rate >= oracle - 1e-6  # never below a feasible sample

    def test_feasibility_of_output(self, rng):
        h = rng.normal(size=(2, 3))
        caps = np.array([0.5, 1.0, 0.25])
        q, _ = maximize_per_antenna(h, np.eye(2), caps, tol=1e-8)
        assert np.all(np.diag(q) <= caps + 1e-9)
        assert np.linalg.eigvalsh(q).min() >= -1e-9

    def test_nonconvergence_carries_best(self):
        # Newton needs 4 steps here (gaps 0.28, 5e-3, 1e-6, 1e-13, 9e-16)
        h = [[1.0, 0.5, -0.3], [0.2, -1.0, 0.8]]
        with pytest.raises(NonConvergence) as exc:
            maximize_per_antenna(h, np.eye(2), (1.0, 0.5, 0.25), tol=1e-14, max_iter=2)
        q, rate = exc.value.best
        assert rate > 0.0
        assert exc.value.diagnostics["gap"] > 1e-14

    def test_negative_caps_rejected(self):
        with pytest.raises(InvalidArgument):
            maximize_per_antenna(np.eye(2), np.eye(2), (-1.0, 1.0))

    def test_zero_cap_and_zero_column_switch_antennas_off(self):
        # antenna 1 has no power and antenna 3 no channel: only [.5, -1] transmits
        h = [[1.0, 0.5, 0.0], [0.3, -1.0, 0.0]]
        q, rate = maximize_per_antenna(h, np.eye(2), (0.0, 1.0, 0.5))
        assert rate == pytest.approx(np.log(2.25), abs=1e-12)
        np.testing.assert_allclose(q, np.diag([0.0, 1.0, 0.0]), atol=1e-12)

    def test_extreme_snr_converges(self):
        # 70 dB with column gains 0.03-7.5: the gap must be read off a
        # well-scaled log det ratio, not log det(I + W Q W^T) itself
        h = np.array([[0.06, 7.5, 0.09], [0.03, -2.7, -0.04]])
        caps = np.array([0.3, 45.0, 0.008])
        *_, gap, _, ok = _kernels.pa_maximize(h, 1e-7 * np.eye(2), caps, np.diag(caps),
                                              SOLVER_TOL, PA_MAX_ITER)
        assert ok and gap <= SOLVER_TOL
        # -60 dB: modes sit near the unit water level; uniform price rescaling
        # keeps Newton steps from emptying the waterfill
        rng = np.random.default_rng(5)
        for _ in range(200):
            m, w = int(rng.integers(2, 4)), int(rng.integers(2, 6))
            h = rng.normal(size=(m, w))
            caps = rng.uniform(0.1, 2.0, size=w)
            *_, gap, _, ok = _kernels.pa_maximize(h, 1e6 * np.eye(m), caps, np.diag(caps),
                                                  SOLVER_TOL, PA_MAX_ITER)
            assert ok and gap <= SOLVER_TOL

    def test_dual_gap_certifies_random_draws(self):
        """Converged, feasible, gap in [0, SOLVER_TOL], and rate + gap above
        the rate of random feasible covariances (weak duality)."""
        rng = np.random.default_rng(909)
        for _ in range(240):
            m, w = int(rng.integers(2, 4)), int(rng.integers(2, 6))
            h = rng.normal(size=(m, w))
            caps = rng.uniform(0.1, 2.0, size=w)
            if rng.random() < 0.1:
                off = int(rng.integers(w))
                if rng.random() < 0.5:
                    caps[off] = 0.0
                else:
                    h[:, off] = 0.0
            noise = rng.uniform(0.1, 3.0) * np.eye(m)
            if rng.random() < 0.5:  # interference from other blocks
                a = rng.normal(size=(m, m))
                noise += a @ a.T
            b = rng.normal(size=(w, w))
            q0 = project_capped(b @ b.T, caps)
            q, rate, gap, _, ok = _kernels.pa_maximize(h, noise, caps, q0,
                                                       SOLVER_TOL, PA_MAX_ITER)
            assert ok
            assert 0.0 <= gap <= SOLVER_TOL
            assert np.all(np.diag(q) <= caps)
            assert np.linalg.eigvalsh(q).min() >= -1e-12
            base = np.linalg.slogdet(noise)[1]
            for _ in range(10):
                f = rng.normal(size=(w, int(rng.integers(1, w + 1))))
                sample = project_capped(f @ f.T, caps)
                got = np.linalg.slogdet(noise + h @ sample @ h.T)[1] - base
                assert got <= rate + gap + 1e-12


class TestSingleAntennaUtilities:
    def test_two_user_closed_form(self):
        s = symmetric(2, 1.0, Sud())
        part = Partition.singletons(2)
        order = (Coalition(1), Coalition(2))
        utils = single_antenna_utilities(s, part, order)
        assert utils[1] == pytest.approx(np.log(1.5), abs=1e-12)
        assert utils[2] == pytest.approx(np.log(2.0), abs=1e-12)

    def test_three_symmetric_per_antenna_grand(self):
        users = tuple(
            UserSpec(i + 1, 1, np.array([[1.0]]), PerAntenna((1.0,))) for i in range(3)
        )
        s = Scenario(users, 1, 0.5, Sud())
        part = Partition.grand(3)
        utils = single_antenna_utilities(s, part, part.blocks)
        assert utils[0b111] == pytest.approx(np.log(19.0), abs=1e-12)

    def test_sum_equals_per_antenna_for_singletons(self, rng):
        # per-user: |h| sqrt(p) squared equals |h|^2 p, so the two budget
        # modes agree on any all-singleton partition
        k = 3
        h = rng.normal(size=k)
        p = rng.uniform(0.2, 2.0, size=k)
        sp = Scenario(
            tuple(UserSpec(i + 1, 1, np.array([[h[i]]]), SumPower(float(p[i])))
                  for i in range(k)),
            1, 1.0, Sud(),
        )
        pa = Scenario(
            tuple(UserSpec(i + 1, 1, np.array([[h[i]]]), PerAntenna((float(p[i]),)))
                  for i in range(k)),
            1, 1.0, Sud(),
        )
        part = Partition.singletons(k)
        order = induced_order(part, (1, 2, 3))
        u_sp = single_antenna_utilities(sp, part, order)
        u_pa = single_antenna_utilities(pa, part, order)
        for mask in u_sp:
            assert u_sp[mask] == pytest.approx(u_pa[mask], abs=1e-12)

    def test_telescoping_sum(self, rng):
        k = 4
        h = rng.normal(size=k)
        p = rng.uniform(0.2, 2.0, size=k)
        s = Scenario(
            tuple(UserSpec(i + 1, 1, np.array([[h[i]]]), SumPower(float(p[i])))
                  for i in range(k)),
            1, 0.7, Sud(),
        )
        part = Partition.from_blocks(k, [[1, 3], [2], [4]])
        order = induced_order(part, (4, 2, 3, 1))
        utils = single_antenna_utilities(s, part, order)
        total_power = (h[0] ** 2 + h[2] ** 2) * (p[0] + p[2]) + h[1] ** 2 * p[1] \
            + h[3] ** 2 * p[3]
        assert sum(utils.values()) == pytest.approx(
            np.log(1.0 + total_power / 0.7), abs=1e-12
        )

    def test_requires_single_rx_antenna(self):
        users = (UserSpec(1, 1, np.ones((2, 1)), SumPower(1.0)),)
        s = Scenario(users, 2, 1.0, Sud())
        with pytest.raises(InvalidArgument):
            single_antenna_utilities(s, Partition.grand(1), (Coalition(1),))


class TestLowSnr:
    def test_identity_channel(self):
        assert low_snr_utility(np.eye(2), 1.0, 100.0) == pytest.approx(0.01, abs=1e-15)

    def test_rank_one_is_norm_squared(self, rng):
        h = rng.normal(size=(3, 1))
        expect = float(np.sum(h ** 2)) * 0.5 / 2.0
        assert low_snr_utility(h, 0.5, 2.0) == pytest.approx(expect, rel=1e-12)

    def test_stacking_inequality(self, rng):
        for _ in range(20):
            h1 = rng.normal(size=(2, 2))
            h2 = rng.normal(size=(2, 1))
            s = low_snr_utility(np.hstack([h1, h2]), 1.0, 1.0)
            s1 = low_snr_utility(h1, 1.0, 1.0)
            s2 = low_snr_utility(h2, 1.0, 1.0)
            assert max(s1, s2) - 1e-12 <= s <= s1 + s2 + 1e-12

    def test_agrees_with_exact_rate_when_tiny(self, rng):
        for _ in range(10):
            h = rng.normal(size=(2, 2))
            n0 = 1e4
            p = 1.0
            approx = low_snr_utility(h, p, n0)
            if approx > 0.01:
                continue
            _, exact = waterfill(h, n0 * np.eye(2), p)
            assert abs(approx - exact) <= 0.05 * exact


class TestTimeshareApprox:
    def _scenario(self):
        return symmetric(3, 0.5, SicTimeShare())

    def test_grand_coalition_full_rate(self):
        s = self._scenario()
        grand = Coalition.from_members([1, 2, 3])
        _, rate = interference_free_rate(s, grand)
        assert timeshare_highsnr_utility(s, grand) == pytest.approx(rate, rel=1e-12)
        assert rate == pytest.approx(np.log(19.0), abs=1e-12)

    def test_singleton_third_of_rate(self):
        s = self._scenario()
        got = timeshare_highsnr_utility(s, Coalition(1))
        assert got == pytest.approx(np.log(3.0) / 3.0, abs=1e-12)

    def test_rejects_non_uniform_weights(self):
        s = symmetric(2, 1.0, SicTimeShare((0.3, 0.7)))
        with pytest.raises(InvalidArgument):
            timeshare_highsnr_utility(s, Coalition(1))
