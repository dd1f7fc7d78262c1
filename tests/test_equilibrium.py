import itertools
import math

import numpy as np
import pytest

from maccoop import _kernels
from maccoop.capacity import (
    PA_MAX_ITER,
    block_budget,
    block_caps,
    interference_free_rate,
    maximize_per_antenna,
    validate_profile,
)
from maccoop.equilibrium import (
    SOLVER_TOL,
    _single_rx_fast_path,
    dsc_diagnostic,
    ne_sic,
    ne_sud,
    ne_timeshare,
    ne_utilities,
    utility_table,
)
from maccoop.errors import InvalidArgument, NonConvergence
from maccoop.model import (
    Coalition,
    Partition,
    PerAntenna,
    Scenario,
    SicFixed,
    SicTimeShare,
    Sud,
    SumPower,
    UserSpec,
    coalition_channel,
    enumerate_partitions,
    induced_order,
)
from maccoop.capacity import single_antenna_utilities

from conftest import random_feasible_profile, random_scenario, symmetric


def per_antenna_mimo(order=(3, 2, 1)):
    """3 single-antenna users, 2 receive antennas, per-antenna caps."""
    channels = [[1.17119, -0.1941], [-2.1384, -0.8396], [1.3546, -1.0722]]
    users = tuple(
        UserSpec(i + 1, 1, np.array(h).reshape(2, 1), PerAntenna((1.0,)))
        for i, h in enumerate(channels)
    )
    return Scenario(users, 2, 1.0, SicFixed(order))


class TestNeSic:
    def test_two_symmetric_users(self):
        s = symmetric(2, 1.0, SicFixed((1, 2)))
        profile, utils = ne_sic(s, Partition.singletons(2))
        assert utils[1] == pytest.approx(np.log(1.5), abs=1e-12)
        assert utils[2] == pytest.approx(np.log(2.0), abs=1e-12)
        # both users transmit at full power
        for q in profile.matrices:
            assert q[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_grand_coalition_is_interference_free(self, rng):
        s = random_scenario(rng, k=3, receiver=SicFixed((1, 2, 3)))
        part = Partition.grand(3)
        _, utils = ne_sic(s, part)
        _, rate = interference_free_rate(s, Coalition.from_members([1, 2, 3]))
        assert utils[0b111] == pytest.approx(rate, abs=1e-9)

    def test_wrong_receiver(self):
        s = symmetric(2, 1.0, Sud())
        with pytest.raises(InvalidArgument):
            ne_sic(s, Partition.singletons(2))

    def test_matches_closed_form_all_partitions(self, rng):
        # MIMO machinery agrees with the single-antenna closed forms
        for _ in range(5):
            s = random_scenario(rng, m=1, receiver=None)
            for part in enumerate_partitions(s.k):
                _, utils = ne_sic(s, part)
                order = induced_order(part, s.receiver.base_order)
                expected = single_antenna_utilities(s, part, order)
                for mask, v in expected.items():
                    assert utils[mask] == pytest.approx(v, abs=1e-9)

    def test_utilities_telescope_for_single_rx(self, rng):
        # total equilibrium rate of any partition equals the log of one
        # plus total received power over noise (the ratios telescope)
        s = random_scenario(rng, k=4, m=1)
        for part in enumerate_partitions(4):
            _, utils = ne_sic(s, part)
            received = 0.0
            for block in part.blocks:
                gain2 = sum(float(np.sum(s.user(u).channel ** 2)) for u in block)
                received += gain2 * sum(s.user(u).power.total for u in block)
            assert sum(utils.values()) == pytest.approx(
                np.log(1.0 + received / s.noise), abs=1e-9
            )

    def test_multistart_unique_utilities(self, rng):
        s = per_antenna_mimo()
        part = Partition.from_blocks(3, [[1, 2], [3]])
        baseline = None
        for _ in range(5):
            init = random_feasible_profile(rng, s, part)
            _, utils = ne_sic(s, part, init=init)
            if baseline is None:
                baseline = utils
            for mask in baseline:
                assert utils[mask] == pytest.approx(baseline[mask], abs=1e-6)


class TestNeSud:
    def test_two_symmetric_users(self):
        # full power is dominant; both decoded under the other's interference
        s = symmetric(2, 1.0, Sud())
        _, utils = ne_sud(s, Partition.singletons(2))
        assert utils[1] == pytest.approx(np.log(1.5), abs=1e-9)
        assert utils[2] == pytest.approx(np.log(1.5), abs=1e-9)

    def test_single_block_interference_free(self, rng):
        s = random_scenario(rng, k=3, receiver=Sud())
        _, utils = ne_sud(s, Partition.grand(3))
        _, rate = interference_free_rate(s, Coalition.from_members([1, 2, 3]))
        assert utils[0b111] == pytest.approx(rate, abs=1e-9)

    def test_aggregate_covariance_unique(self, rng):
        s = random_scenario(rng, k=3, m=2, receiver=Sud())
        part = Partition.singletons(3)
        aggregates = []
        for _ in range(3):
            init = random_feasible_profile(rng, s, part)
            profile, _ = ne_sud(s, part, init=init)
            agg = np.zeros((2, 2))
            for block, q in zip(part.blocks, profile.matrices):
                h = np.hstack([s.user(u).channel for u in block])
                agg += h @ q @ h.T
            aggregates.append(agg)
        for other in aggregates[1:]:
            np.testing.assert_allclose(aggregates[0], other, atol=1e-5)

    def test_fixed_point_is_best_response(self, rng):
        from maccoop.capacity import block_budget, waterfill
        from maccoop.model import coalition_channel

        s = random_scenario(rng, k=3, m=2, receiver=Sud())
        part = Partition.from_blocks(3, [[1, 2], [3]])
        profile, utils = ne_sud(s, part)
        # re-optimizing any single block one more time gains nothing
        for i, block in enumerate(part.blocks):
            h = coalition_channel(s, block)
            noise = s.noise * np.eye(s.rx_antennas)
            for j, other in enumerate(part.blocks):
                if j != i:
                    hj = coalition_channel(s, other)
                    noise = noise + hj @ profile.matrices[j] @ hj.T
            _, best = waterfill(h, noise, block_budget(s, block))
            assert best - utils[block.mask] < 1e-7

    def test_sweeps_settle_within_a_few_rounds(self):
        # sequential best responses need no step factor: a lone block's
        # first sweep is its exact best response and the second confirms it
        games = [(random_scenario(np.random.default_rng(seed), k=3, m=2, receiver=Sud()),
                  Partition.grand(3), 2) for seed in range(20)]
        gen = np.random.default_rng(3)
        users = (UserSpec(1, 2, gen.normal(size=(2, 2)), SumPower(1.0)),
                 UserSpec(2, 1, gen.normal(size=(2, 1)), SumPower(2.0)))
        games.append((Scenario(users, 2, 1.0, Sud()), Partition.singletons(2), 5))
        for s, part, max_rounds in games:
            _, utils = ne_sud(s, part, max_rounds=max_rounds)
            assert sorted(utils) == sorted(b.mask for b in part.blocks)

    def test_extrapolated_sweeps_reach_the_plain_fixed_point(self, monkeypatch):
        # two 3-antenna users on 2 receive antennas whose plain sweeps
        # converge slowly (36 sweeps); the geometric jump cuts that to 12
        gen = np.random.default_rng(63)
        users = tuple(UserSpec(u, 3, gen.normal(size=(2, 3)),
                               SumPower(float(gen.uniform(0.5, 2.5)))) for u in (1, 2))
        s = Scenario(users, 2, float(gen.uniform(0.1, 1.0)), Sud())
        part = Partition.singletons(2)
        hs = [coalition_channel(s, b) for b in part.blocks]
        budgets = [block_budget(s, b) for b in part.blocks]

        def solve(tol):
            return _kernels.sud_fixed_point(s.noise, hs, budgets, [np.zeros((3, 3))] * 2,
                                            tol, 10_000, SOLVER_TOL, PA_MAX_ITER)

        _, fast, fast_rounds, fast_ok, _ = solve(1e-9)
        monkeypatch.setattr(_kernels, "SUD_RATIO_MAX", 0.0)  # plain sweeps only
        _, plain, plain_rounds, plain_ok, _ = solve(1e-9)
        _, exact, _, _, _ = solve(1e-13)
        assert fast_ok and plain_ok
        assert fast_rounds <= plain_rounds // 2
        np.testing.assert_allclose(fast, exact, rtol=0, atol=1e-8)
        np.testing.assert_allclose(plain, exact, rtol=0, atol=1e-8)

    def test_extrapolation_stays_feasible(self):
        # the jump would drive the second mode negative: it is clipped and
        # the trace of the current iterate restored
        q = np.diag([1.5, 0.5])
        (jumped,) = _kernels._extrapolate([q], [np.diag([0.1, -0.1])], 0.9)
        np.testing.assert_allclose(jumped, np.diag([2.0, 0.0]), rtol=0, atol=1e-12)

    def test_nonconvergence_carries_last_iterate(self):
        gen = np.random.default_rng(3)
        users = (UserSpec(1, 2, gen.normal(size=(2, 2)), SumPower(1.0)),
                 UserSpec(2, 1, gen.normal(size=(2, 1)), SumPower(2.0)))
        s = Scenario(users, 2, 1.0, Sud())
        part = Partition.singletons(2)
        with pytest.raises(NonConvergence) as err:
            ne_sud(s, part, max_rounds=1)
        assert err.value.diagnostics["rounds"] == 1
        assert np.isfinite(err.value.diagnostics["last_delta"])
        profile, utils = err.value.best
        assert profile.partition.rgs == part.rgs
        assert [q.shape for q in profile.matrices] == [(2, 2), (1, 1)]
        validate_profile(s, profile)
        assert sorted(utils) == sorted(b.mask for b in part.blocks)

    def test_wrong_receiver(self):
        s = symmetric(2, 1.0, SicFixed((1, 2)))
        with pytest.raises(InvalidArgument):
            ne_sud(s, Partition.singletons(2))


class TestNeTimeshare:
    def test_three_user_hand_average(self):
        s = symmetric(3, 0.5, SicTimeShare())
        part = Partition.from_blocks(3, [[1], [2, 3]])
        utils = ne_timeshare(s, part)
        assert utils[0b001] == pytest.approx((np.log(11 / 9) + np.log(3)) / 2, abs=1e-12)
        assert utils[0b110] == pytest.approx((np.log(9) + np.log(11 / 3)) / 2, abs=1e-12)

    def test_degenerate_weight_equals_fixed_order(self):
        s3 = symmetric(3, 0.5, SicTimeShare((1.0, 0.0)))
        part = Partition.from_blocks(3, [[1], [2, 3]])
        utils = ne_timeshare(s3, part)
        # the first lexicographic order decodes block {1} first, which the
        # base order (1,2,3) induces as well
        fixed = symmetric(3, 0.5, SicFixed((1, 2, 3)))
        _, expected = ne_sic(fixed, part)
        for mask in utils:
            assert utils[mask] == pytest.approx(expected[mask], abs=1e-12)

    def test_symmetric_blocks_equal_utilities(self):
        s = symmetric(4, 1.0, SicTimeShare())
        part = Partition.from_blocks(4, [[1, 2], [3, 4]])
        utils = ne_timeshare(s, part)
        assert utils[0b0011] == pytest.approx(utils[0b1100], abs=1e-12)

    def test_weights_length_guard(self):
        s = symmetric(3, 1.0, SicTimeShare((0.5, 0.5)))
        part = Partition.singletons(3)
        with pytest.raises(InvalidArgument):
            ne_timeshare(s, part)  # 6 orders, 2 weights
        # the gradient average behind dsc_diagnostic checks the same length
        profile = random_feasible_profile(np.random.default_rng(12), s, part)
        with pytest.raises(InvalidArgument, match="2 weights supplied for 6"):
            dsc_diagnostic(s, part, profile, profile)

    def test_factorial_guard(self):
        s = symmetric(8, 1.0, SicTimeShare())
        with pytest.raises(InvalidArgument):
            ne_timeshare(s, Partition.singletons(8))


class TestDsc:
    def test_identical_profiles_vanish(self):
        s = symmetric(2, 1.0, SicFixed((1, 2)))
        part = Partition.singletons(2)
        profile, _ = ne_sic(s, part)
        rep = dsc_diagnostic(s, part, profile, profile)
        assert rep.values == (0.0, 0.0)
        assert rep.total == 0.0

    @pytest.mark.parametrize("receiver", ["sic", "sud"])
    def test_total_nonnegative_for_feasible_pairs(self, rng, receiver):
        for _ in range(60):
            if receiver == "sic":
                s = random_scenario(rng, receiver=None)
            else:
                s = random_scenario(rng, receiver=Sud())
            parts = list(enumerate_partitions(s.k))
            part = parts[int(rng.integers(0, len(parts)))]
            a = random_feasible_profile(rng, s, part)
            b = random_feasible_profile(rng, s, part)
            rep = dsc_diagnostic(s, part, a, b)
            assert rep.total >= -1e-9

    def test_symmetric_in_argument_order(self, rng):
        s = random_scenario(rng, k=3, receiver=None)
        part = Partition.from_blocks(3, [[1, 2], [3]])
        a = random_feasible_profile(rng, s, part)
        b = random_feasible_profile(rng, s, part)
        fwd = dsc_diagnostic(s, part, a, b)
        back = dsc_diagnostic(s, part, b, a)
        assert fwd.total == pytest.approx(back.total, abs=1e-10)

    def test_equilibria_have_zero_components(self, rng):
        s = per_antenna_mimo()
        part = Partition.from_blocks(3, [[1, 2], [3]])
        prof1, _ = ne_sic(s, part, init=random_feasible_profile(rng, s, part))
        prof2, _ = ne_sic(s, part, init=random_feasible_profile(rng, s, part))
        rep = dsc_diagnostic(s, part, prof1, prof2)
        for c in rep.values:
            assert abs(c) <= 1e-6

    def test_timeshare_degenerate_weight_equals_fixed_order(self):
        # single-antenna users on two receive antennas, so block {1} is one
        # column wide while M = 2; the first lexicographic order decodes {1}
        # first, as the base order (1, 2, 3) does
        fixed = per_antenna_mimo(order=(1, 2, 3))
        shared = Scenario(fixed.users, 2, fixed.noise, SicTimeShare((1.0, 0.0)))
        part = Partition.from_blocks(3, [[1], [2, 3]])
        local = np.random.default_rng(11)
        a = random_feasible_profile(local, fixed, part)
        b = random_feasible_profile(local, fixed, part)
        assert dsc_diagnostic(shared, part, a, b) == dsc_diagnostic(fixed, part, a, b)


class TestPartitionSize:
    @pytest.mark.parametrize("receiver, solve", [
        (SicFixed((1, 2, 3)), ne_sic),
        (Sud(), ne_sud),
        (SicTimeShare(), ne_timeshare),
    ], ids=["sic", "sud", "timeshare"])
    def test_partition_of_other_size_is_rejected(self, receiver, solve):
        s = symmetric(3, 1.0, receiver)
        part = Partition.singletons(2)
        with pytest.raises(InvalidArgument, match="partition of 2 users .* 3 users"):
            solve(s, part)
        profile = random_feasible_profile(np.random.default_rng(5), s, part)
        with pytest.raises(InvalidArgument, match="partition of 2 users .* 3 users"):
            dsc_diagnostic(s, part, profile, profile)


class TestUtilityTable:
    def test_counts_for_three_users(self):
        s = symmetric(3, 1.0, SicFixed((1, 2, 3)))
        table = utility_table(s)
        assert len(table.entries) == 5
        assert len(table) == 10

    def test_fast_path_matches_generic(self, rng):
        # closed-form whole-table path vs per-partition solvers, under a
        # pooled budget and under per-antenna caps (drawn from a local
        # generator so the shared stream other tests read is unchanged)
        caps_rng = np.random.default_rng(7)
        for receiver in (SicFixed((2, 1, 3)), Sud()):
            for s in (random_scenario(rng, k=3, m=1, receiver=receiver),
                      random_scenario(caps_rng, k=3, m=1, mode="caps", receiver=receiver)):
                table = utility_table(s)
                for part in enumerate_partitions(3):
                    direct = ne_utilities(s, part)
                    for mask, v in direct.items():
                        assert table.value(part, Coalition(mask)) == pytest.approx(v, abs=1e-9)

    @staticmethod
    def reference_table(s):
        """Closed-form entries built one Partition at a time, as a dict of dicts."""
        parts = list(enumerate_partitions(s.k))
        values = _single_rx_fast_path(s)(np.array([p.rgs for p in parts], dtype=np.int64))
        return {
            p.rgs: {b.mask: float(values[row, j]) for j, b in enumerate(p.blocks)}
            for row, p in enumerate(parts)
        }

    @pytest.mark.parametrize("mode", ["sum", "caps"])
    @pytest.mark.parametrize("receiver", [SicFixed((4, 2, 6, 1, 5, 3)), Sud()])
    def test_closed_form_bitwise_equals_partition_reference(self, receiver, mode):
        s = random_scenario(np.random.default_rng(11), k=6, m=1, mode=mode, receiver=receiver)
        ref = self.reference_table(s)
        table = utility_table(s)
        assert list(table.entries) == list(ref)
        for key, row in ref.items():
            got = table.entries[key]
            assert list(got) == list(row)
            assert [v.hex() for v in got.values()] == [v.hex() for v in row.values()]

    @pytest.mark.parametrize("receiver", [SicFixed((3, 1, 4, 2, 5)), Sud()])
    def test_closed_form_builds_no_partition(self, monkeypatch, receiver):
        s = random_scenario(np.random.default_rng(12), k=5, m=1, receiver=receiver)
        ref = self.reference_table(s)

        def forbidden(*args, **kwargs):
            raise AssertionError("closed-form table built a Partition")

        monkeypatch.setattr(Partition, "from_rgs", staticmethod(forbidden))
        monkeypatch.setattr(Partition, "__post_init__", forbidden)
        assert utility_table(s).entries == ref

    @pytest.mark.parametrize("receiver", [SicFixed((2, 3, 1)), Sud(), SicTimeShare()])
    def test_per_antenna_two_antenna_users(self, receiver):
        # merged blocks have 4 or 6 transmit antennas on 2 receive antennas
        gen = np.random.default_rng(29)
        users = tuple(UserSpec(u, 2, gen.normal(size=(2, 2)),
                               PerAntenna(tuple(gen.uniform(0.25, 1.0, size=2))))
                      for u in (1, 2, 3))
        s = Scenario(users, 2, 0.5, receiver)
        table = utility_table(s)
        grand = table.value(Partition.grand(3), Coalition(0b111))
        for part in enumerate_partitions(3):
            values = table.partition_values(part)
            assert sum(values.values()) <= grand + 1e-9
            for block in part.blocks:
                assert 0.0 <= values[block.mask] <= interference_free_rate(s, block)[1] + 1e-9
            if isinstance(receiver, Sud):
                # every block best responds to the others' interference
                profile, utils = ne_sud(s, part)
                noise = s.noise * np.eye(2)
                grams = [coalition_channel(s, b) @ q @ coalition_channel(s, b).T
                         for b, q in zip(part.blocks, profile.matrices)]
                for j, block in enumerate(part.blocks):
                    others = noise + sum(grams) - grams[j]
                    best = maximize_per_antenna(coalition_channel(s, block), others,
                                                block_caps(s, block))[1]
                    assert utils[block.mask] == pytest.approx(best, abs=1e-8)
            elif isinstance(receiver, SicFixed):
                init = random_feasible_profile(gen, s, part)  # any start, same answer
                for mask, v in ne_sic(s, part, init=init)[1].items():
                    assert v == pytest.approx(values[mask], abs=1e-9)
            else:
                assert values == pytest.approx(reference_utilities(s, part), abs=1e-12)

    def test_cohesive(self, rng):
        s = random_scenario(rng, k=3, m=2, receiver=Sud())
        table = utility_table(s)
        grand = table.value(Partition.grand(3), Coalition(0b111))
        for part in enumerate_partitions(3):
            assert sum(table.partition_values(part).values()) <= grand + 1e-8

    def test_fingerprint_changes_with_noise(self):
        s = symmetric(3, 1.0, SicFixed((1, 2, 3)))
        assert utility_table(s).fingerprint != utility_table(s.with_noise(2.0)).fingerprint

    def test_timeshare_guard(self):
        s = symmetric(8, 1.0, SicTimeShare())
        with pytest.raises(InvalidArgument):
            utility_table(s)

    def test_timeshare_guard_names_the_cap(self):
        s = symmetric(8, 1.0, SicTimeShare())
        with pytest.raises(InvalidArgument, match="5040"):
            utility_table(s)

    def test_timeshare_at_the_cap(self):
        # K=7: the singleton partition has 7! = 5040 orders, the cap itself
        s = symmetric(7, 0.1, SicTimeShare())
        table = utility_table(s)
        assert len(table.entries) == 877
        parts = list(enumerate_partitions(7))
        for row in np.random.default_rng(5).choice(len(parts), size=6, replace=False):
            direct = ne_timeshare(s, parts[row])
            got = table.partition_values(parts[row])
            assert list(got) == list(direct)
            assert [v.hex() for v in got.values()] == [v.hex() for v in direct.values()]


def chain_utilities(s, partition, order):
    """One backward sweep of ``block_response`` along ``order`` (block labels)."""
    noise = s.noise * np.eye(s.rx_antennas)
    jmat = np.zeros((s.rx_antennas, s.rx_antennas))
    out = {}
    for label in reversed(order):
        block = partition.blocks[label]
        h = coalition_channel(s, block)
        if s.power_mode == "sum":
            limit, q0 = block_budget(s, block), None
        else:
            limit = block_caps(s, block)
            q0 = np.diag(limit)
        q, rate, ok = _kernels.block_response(h, noise + jmat, limit, q0, SOLVER_TOL, PA_MAX_ITER)
        assert ok
        jmat = _kernels.sym(jmat + h @ q @ h.T)
        out[block.mask] = float(rate)
    return dict(reversed(out.items()))  # decoding order, as ne_sic lists it


def reference_utilities(s, partition):
    """Per-order reference: fixed order, or the weighted sum over every order in turn."""
    receiver = s.receiver
    blocks = partition.blocks
    if isinstance(receiver, SicFixed):
        order = induced_order(partition, receiver.base_order)
        return chain_utilities(s, partition, [blocks.index(b) for b in order])
    n = len(blocks)
    weights = receiver.weights or (1.0 / math.factorial(n),) * math.factorial(n)
    acc = {b.mask: 0.0 for b in blocks}
    for w, order in zip(weights, itertools.permutations(range(n))):
        if w == 0.0:
            continue
        for mask, v in chain_utilities(s, partition, order).items():
            acc[mask] += w * v
    return acc


def hexes(row):
    return [(mask, v.hex()) for mask, v in row.items()]


class TestCancellationSharing:
    """Suffix-shared cancellation solves against per-order ``block_response`` chains."""

    @staticmethod
    def pooled(receiver, seed=3):
        return random_scenario(np.random.default_rng(seed), k=5, m=2, receiver=receiver)

    @staticmethod
    def count_suffixes(monkeypatch):
        counts = []
        original = _kernels.sic_backward

        def counting(n0, hs, limits, q0s, heads, tails, pa_tol, pa_iter):
            counts.append(len(heads))
            return original(n0, hs, limits, q0s, heads, tails, pa_tol, pa_iter)

        monkeypatch.setattr(_kernels, "sic_backward", counting)
        return counts

    @pytest.mark.parametrize("receiver", [SicFixed((4, 2, 5, 1, 3)), SicTimeShare()])
    def test_pooled_table_bitwise_equals_reference(self, receiver):
        s = self.pooled(receiver)
        table = utility_table(s)
        parts = list(enumerate_partitions(5))
        assert list(table.entries) == [p.rgs for p in parts]
        for part in parts:
            assert hexes(table.partition_values(part)) == hexes(reference_utilities(s, part))

    @pytest.mark.parametrize("receiver", [SicFixed((2, 3, 1)), SicTimeShare()])
    def test_per_antenna_table_bitwise_equals_reference(self, receiver):
        s = Scenario(per_antenna_mimo().users, 2, 1.0, receiver)
        table = utility_table(s)
        for part in enumerate_partitions(3):
            assert hexes(table.partition_values(part)) == hexes(reference_utilities(s, part))

    def test_single_partition_routes_bitwise_equal_reference(self):
        weights = (0.5, 0.0, 0.125, 0.0, 0.375, 0.0)
        s = self.pooled(SicTimeShare(weights), seed=4)
        fixed = self.pooled(SicFixed((5, 1, 4, 2, 3)), seed=4)
        for part in enumerate_partitions(5):
            if len(part) == 3:
                assert hexes(ne_timeshare(s, part)) == hexes(reference_utilities(s, part))
            assert hexes(ne_sic(fixed, part)[1]) == hexes(reference_utilities(fixed, part))

    @pytest.mark.parametrize("receiver", [SicFixed((3, 1, 4, 2)), SicTimeShare()])
    def test_table_builds_no_partition(self, monkeypatch, receiver):
        s = random_scenario(np.random.default_rng(6), k=4, m=2, receiver=receiver)
        ref = {p.rgs: reference_utilities(s, p) for p in enumerate_partitions(4)}

        def forbidden(*args, **kwargs):
            raise AssertionError("cancellation table built a Partition")

        monkeypatch.setattr(Partition, "from_rgs", staticmethod(forbidden))
        monkeypatch.setattr(Partition, "__post_init__", forbidden)
        assert utility_table(s).entries == ref

    def test_timeshare_table_solves_each_suffix_once(self, monkeypatch):
        counts = self.count_suffixes(monkeypatch)
        utility_table(self.pooled(SicTimeShare()))
        # sequences of disjoint blocks over 5 users: sum_j C(5, j) Fubini(j)
        assert counts == [1081]

    def test_zero_weight_orders_are_never_solved(self, monkeypatch):
        counts = self.count_suffixes(monkeypatch)
        # only orders (0, 1, 2) and (2, 1, 0): suffixes (2), (1,2), (0,1,2), (0), (1,0), (2,1,0)
        s = self.pooled(SicTimeShare((0.25, 0.0, 0.0, 0.0, 0.0, 0.75)))
        ne_timeshare(s, Partition.from_blocks(5, [[1, 4], [2], [3, 5]]))
        assert counts == [6]

    def test_stalled_solve_names_first_partition_that_needs_it(self, monkeypatch):
        s = per_antenna_mimo(order=(1, 2, 3))
        h3 = s.user(3).channel
        original = _kernels.pa_maximize

        def stall_on_user3_last(h, noise_cov, caps, q0, tol, max_iter):
            q, rate, resid, it, conv = original(h, noise_cov, caps, q0, tol, max_iter)
            if np.array_equal(h, h3) and np.array_equal(noise_cov, np.eye(2)):
                conv = False
            return q, rate, resid, it, conv

        monkeypatch.setattr(_kernels, "pa_maximize", stall_on_user3_last)
        # {3} decoded last, against noise alone: first needed by {1,2}{3}, not {1,2,3}
        with pytest.raises(NonConvergence, match=r"partition \{1,2\}\{3\}") as err:
            utility_table(s)
        assert err.value.diagnostics == {"partition": (0, 0, 1)}
        ne_sic(s, Partition.grand(3))
        with pytest.raises(NonConvergence, match=r"\{1\}\{2\}\{3\}"):
            ne_sic(s, Partition.singletons(3))
