import functools
import itertools
import math
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maccoop import _kernels, equilibrium, io
from maccoop.capacity import (
    PA_MAX_ITER,
    block_budget,
    block_caps,
    interference_free_rate,
    maximize_per_antenna,
    validate_profile,
)
from maccoop.cores import ExpectationModel, check_core
from maccoop.equilibrium import (
    SOLVER_TOL,
    UtilityTable,
    _closed_form_tables,
    _power_of,
    _slot_of,
    dsc_diagnostic,
    ne_sic,
    ne_sud,
    ne_timeshare,
    ne_utilities,
    utility_table,
)
from maccoop.errors import InvalidArgument, NonConvergence, NumericalFailure
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
    rgs_matrix,
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
        hs, budgets, starts, _ = equilibrium._block_inputs(s, part.blocks, None)

        def solve(tol):
            return _kernels.sud_fixed_point(s.noise, hs, budgets, starts, tol, 10_000,
                                            SOLVER_TOL, PA_MAX_ITER)

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
        (jumped,) = _kernels._extrapolate(q[None], np.diag([0.1, -0.1])[None], 0.9)
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

    @pytest.mark.parametrize("n0", [1e-12, 1e-9, 1e-6])
    def test_a_weak_block_beside_a_strong_one_is_not_lost(self, n0):
        # user 2 adds diag(1e-10, 0) to user 1's noise; a running total less
        # user 1's own term loses it to cancellation (2.2e-5 nats at 1e-12)
        users = (UserSpec(1, 2, np.eye(2), SumPower(1.0)),
                 UserSpec(2, 1, np.array([[1e-5], [0.0]]), SumPower(1.0)))
        _, utils = ne_sud(Scenario(users, 2, n0, Sud()), Partition.singletons(2))
        mu = (1.0 + 2.0 * n0 + 1e-10) / 2.0
        exact = math.log(mu / (n0 + 1e-10)) + math.log(mu / n0)
        assert utils[0b01] == pytest.approx(exact, rel=1e-12, abs=0.0)


    @pytest.mark.parametrize("mode", ["sum", "caps"])
    def test_is_the_one_row_lockstep_solve(self, monkeypatch, mode):
        # bitwise the block-by-block oracle, covariances and stalls included,
        # without a sud_fixed_point call
        def forbidden(*args):
            raise AssertionError("sud_fixed_point called")

        monkeypatch.setattr(_kernels, "sud_fixed_point", forbidden)
        gen = np.random.default_rng(21)
        s = random_scenario(gen, k=4, m=2, mode=mode, receiver=Sud())
        for part in enumerate_partitions(4):
            for init in (None, random_feasible_profile(gen, s, part)):
                hs, limits, starts, bases = equilibrium._block_inputs(s, part.blocks, init)
                for max_rounds in (1, equilibrium.SUD_MAX_ROUNDS):
                    qs, utils, _, converged, _ = reference_sud_fixed_point(
                        s.noise, hs, limits, starts, equilibrium.SUD_TOL, max_rounds,
                        SOLVER_TOL, PA_MAX_ITER)
                    qs = equilibrium._covariances(qs, bases)
                    assert converged == (max_rounds > 1)
                    if converged:
                        profile, got = ne_sud(s, part, init=init, max_rounds=max_rounds)
                    else:  # one sweep never settles
                        with pytest.raises(NonConvergence) as err:
                            ne_sud(s, part, init=init, max_rounds=max_rounds)
                        profile, got = err.value.best
                    assert profile.partition == part
                    assert ([array_hexes(q) for q in profile.matrices]
                            == [array_hexes(q) for q in qs])
                    assert [(mask, u.hex()) for mask, u in got.items()] == [
                        (b.mask, u.hex()) for b, u in zip(part.blocks, utils.tolist())]


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

    def test_weighted_receiver_fits_one_block_count(self):
        s = symmetric(3, 0.5, SicTimeShare((0.5, 0.0, 0.25, 0.0, 0.25, 0.0)))
        with pytest.raises(InvalidArgument, match="partitions of 1..3 blocks"):
            utility_table(s)
        # partitions of three blocks have the six orders the weights list
        utils = ne_timeshare(s, Partition.singletons(3))
        assert set(utils) == {0b001, 0b010, 0b100}

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
        masks = np.array([[b.mask for b in p.blocks] + [0] * (s.k - len(p)) for p in parts],
                         dtype=np.int16)
        slot_of = _slot_of(s.receiver) if isinstance(s.receiver, SicFixed) else None
        blocks, power, heard = _kernels.single_rx_layout(masks, _power_of(s), slot_of)
        assert blocks.tobytes() == masks[masks != 0].tobytes()
        values = iter(_kernels.single_rx_values(power, heard, s.noise).tolist())
        return {p.rgs: {b.mask: next(values) for b in p.blocks} for p in parts}

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

    @staticmethod
    def row_items(table):
        return [(key, [(mask, v.hex()) for mask, v in row.items()])
                for key, row in table.entries.items()]

    @pytest.mark.parametrize("receiver", [SicFixed((3, 1, 4, 2)), SicTimeShare(), Sud()])
    def test_dict_round_trip_keeps_rows_and_their_order(self, receiver):
        s = random_scenario(np.random.default_rng(8), k=4, m=2, receiver=receiver)
        table = utility_table(s)
        for part in enumerate_partitions(4):  # label order, whatever the receiver
            assert list(table.partition_values(part)) == [b.mask for b in part.blocks]
        again = UtilityTable(4, table.fingerprint, table.entries)
        assert self.row_items(again) == self.row_items(table)
        for name in ("rgs", "offsets", "masks", "values", "totals"):
            assert getattr(again, name).tobytes() == getattr(table, name).tobytes()
        assert len(again) == len(table) == sum(len(row) for row in table.entries.values())

    def test_totals_add_each_row_left_to_right(self):
        # rows of 8 or more blocks are where a pairwise sum would reorder the adds
        s = random_scenario(np.random.default_rng(9), k=9, m=1, receiver=SicFixed(
            (5, 2, 9, 1, 7, 3, 8, 4, 6)))
        table = utility_table(s)
        want = [functools.reduce(operator.add, row.values(), 0.0).hex()
                for row in table.entries.values()]
        assert [t.hex() for t in table.totals.tolist()] == want
        assert table.counts.max() == 9

    @staticmethod
    def reference_totals(table):
        """Row totals by one masked add per block position, left to right."""
        totals = np.zeros(len(table.rgs))
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(int(table.counts.max(initial=0))):
                rows = np.flatnonzero(table.counts > j)
                totals[rows] += table.values[table.offsets[rows] + j]
        return totals

    @pytest.mark.parametrize("route", ["closed-sic", "closed-sud", "sic", "sud", "ts"])
    def test_totals_equal_the_per_position_adds(self, route):
        # every route's table, then the same rows with nan, +-inf and signed
        # zeros planted: float.hex equal to one masked add per block position
        gen = np.random.default_rng([17, len(route)])
        k, m = (8, 1) if route.startswith("closed") else (5, 2)
        receiver = {"sic": SicFixed(tuple(int(u) + 1 for u in gen.permutation(k))),
                    "sud": Sud(), "ts": SicTimeShare()}[route.split("-")[-1]]
        table = utility_table(random_scenario(gen, k=k, m=m, receiver=receiver))
        values = table.values.copy()
        picks = gen.choice(len(values), size=(6, len(values) // 7), replace=False)
        for pick, special in zip(picks, (np.nan, np.inf, -np.inf, 0.0, -0.0, -1e308)):
            values[pick] = special
        planted = UtilityTable.from_arrays(k, "planted", table.rgs, table.counts, table.masks,
                                           values)
        for t in (table, planted):
            want = [x.hex() for x in self.reference_totals(t).tolist()]
            assert [x.hex() for x in t.totals.tolist()] == want
        assert np.isnan(planted.totals).any() and np.isinf(planted.totals).any()

    def test_failed_factorization_names_the_first_failing_partition(self, monkeypatch):
        # a factorization fails wherever a block of two users is decoded
        s = symmetric(3, 1.0, SicTimeShare())
        original = _kernels.sic_backward

        def failing(n0, hs, limits, q0s, heads, tails, pa_tol, pa_iter):
            if any(limits[b] == 2.0 for b in heads):  # the budget of two users
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return original(n0, hs, limits, q0s, heads, tails, pa_tol, pa_iter)

        monkeypatch.setattr(_kernels, "sic_backward", failing)
        with pytest.raises(NumericalFailure, match=r"partition \{1,2\}\{3\}"):
            utility_table(s)
        with pytest.raises(NumericalFailure, match=r"partition \{1,2\}\{3\}"):
            ne_timeshare(s, Partition.from_rgs((0, 0, 1)))

    def test_failed_fixed_order_factorization_names_the_first_failing_row(self, monkeypatch):
        # the batched call fails wherever block {1,2} is decoded; the table and
        # each row's own ne_sic name the first row in table order that holds it
        s = Scenario(per_antenna_mimo().users, 2, 1.0, SicFixed((2, 3, 1)))
        original = _kernels.sic_backward

        def failing(n0, hs, limits, q0s, heads, tails, pa_tol, pa_iter):
            if any(np.array_equal(hs[b], coalition_channel(s, Coalition(0b011))) for b in heads):
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return original(n0, hs, limits, q0s, heads, tails, pa_tol, pa_iter)

        monkeypatch.setattr(_kernels, "sic_backward", failing)
        with pytest.raises(NumericalFailure, match=r"partition \{1,2\}\{3\}: Matrix"):
            utility_table(s)
        rows = np.array([[0, 1, 1], [0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=np.int8)
        with pytest.raises(NumericalFailure, match=r"partition \{1,2\}\{3\}"):
            equilibrium._table_of(s, rows)
        with pytest.raises(NumericalFailure, match=r"partition \{1,2\}\{3\}"):
            ne_sic(s, Partition.from_rgs((0, 0, 1)))
        assert equilibrium._table_of(s, rows[[0, 1, 3]]).entries == {
            p: ne_sic(s, Partition.from_rgs(p))[1] for p in [(0, 1, 1), (0, 0, 0), (0, 1, 0)]}

    def test_fingerprint_changes_with_noise(self):
        s = symmetric(3, 1.0, SicFixed((1, 2, 3)))
        assert utility_table(s).fingerprint != utility_table(s.with_noise(2.0)).fingerprint

    @pytest.mark.parametrize("m, receiver", [(1, SicFixed((2, 4, 1, 3))), (2, SicTimeShare()),
                                             (2, Sud())])
    def test_fingerprint_computed_on_first_read(self, monkeypatch, m, receiver):
        s = random_scenario(np.random.default_rng(13), k=4, m=m, receiver=receiver)

        def forbidden(scenario):
            raise AssertionError("scenario serialized while building a table")

        with monkeypatch.context() as patch:
            patch.setattr(io, "serialize_scenario", forbidden)
            table = utility_table(s)
        assert table.fingerprint == io.fingerprint(s)
        assert UtilityTable(4, "given", table.entries).fingerprint == "given"

    def test_row_index_matches_the_scan(self):
        s = random_scenario(np.random.default_rng(14), k=6, m=1, receiver=SicFixed(
            (6, 2, 4, 1, 5, 3)))
        table = utility_table(s)
        for key in table.rgs:
            (hit,) = np.flatnonzero((table.rgs == key).all(axis=1))
            a, b = table.offsets[hit], table.offsets[hit + 1]
            scanned = dict(zip(table.masks[a:b].tolist(), table.values[a:b].tolist()))
            assert hexes(table.partition_values(Partition.from_rgs(key.tolist()))) == hexes(scanned)
        with pytest.raises(KeyError):
            table.partition_values(Partition.from_rgs((0, 1, 0, 1, 2)))
        partial = UtilityTable(3, "partial", {(0, 0, 0): {0b111: 1.0}, (0, 1, 1): {1: 0.5, 6: 0.5}})
        assert partial.partition_values(Partition.from_rgs((0, 1, 1))) == {1: 0.5, 6: 0.5}
        with pytest.raises(KeyError):
            partial.partition_values(Partition.from_rgs((0, 0, 1)))

    @pytest.mark.parametrize("mode", ["sum", "caps"])
    @pytest.mark.parametrize("receiver", ["sic", "sud"])
    def test_closed_form_within_documented_bound_of_partition_solves(self, receiver, mode):
        # the closed forms round differently from the per-partition solves:
        # at most 1e-11 relative, plus 1e-14 nats where a SUD utility is
        # near zero and (n0 + total) - power cancels
        for k in range(2, 9):
            for seed in range(3):
                gen = np.random.default_rng([seed, k])
                rx = SicFixed(tuple(int(u) + 1 for u in gen.permutation(k))) \
                    if receiver == "sic" else Sud()
                s = random_scenario(gen, k=k, m=1, mode=mode, receiver=rx,
                                    n0=float(10.0 ** gen.uniform(-1.0, 1.0)))
                table = utility_table(s)
                rows = gen.choice(len(table.rgs), size=min(len(table.rgs), 40), replace=False)
                for row in rows:
                    part = Partition.from_rgs(table.rgs[row].tolist())
                    got = table.partition_values(part)
                    for mask, want in ne_utilities(s, part).items():
                        assert abs(got[mask] - want) <= 1e-11 * abs(want) + 1e-14

    @pytest.mark.parametrize("receiver", ["sic", "sud"])
    def test_symmetric_closed_form_exact_at_every_snr(self, receiver):
        # heard power holds no noise, so N0 is never rounded away: v(N) is
        # log1p(K^2 / N0) and a lone user hearing h gives log1p(1 / (N0 + h))
        for k in range(2, 11):
            rx = SicFixed(tuple(range(1, k + 1))) if receiver == "sic" else Sud()
            tables = _closed_form_tables(symmetric(k, 1.0, rx))
            heard = np.arange(k - 1.0, -1.0, -1.0) if receiver == "sic" else np.full(k, k - 1.0)
            for db in range(0, 201, 10):
                n0 = 10.0 ** (-db / 10.0)
                table = tables(n0)
                want = math.log1p(k * k / n0)
                assert table.masks[0] == (1 << k) - 1
                assert abs(table.values[0] - want) <= 1e-14 * want
                alone = slice(table.offsets[-2], table.offsets[-1])
                assert table.masks[alone].tolist() == [1 << u for u in range(k)]
                want = np.log1p(1.0 / (n0 + heard))
                assert np.all(np.abs(table.values[alone] - want) <= 1e-14 * want)

    def test_sud_block_beside_a_weak_one_hears_it_exactly(self):
        # heard power is a prefix plus a suffix sum over the other blocks, so the
        # strong block's 1e-10 neighbour is not lost in (row total - own)
        n0 = 1e-12
        users = (UserSpec(1, 1, np.array([[1.0]]), SumPower(1.0)),
                 UserSpec(2, 1, np.array([[1e-5]]), SumPower(1.0)))
        got = utility_table(Scenario(users, 1, n0, Sud())).partition_values(
            Partition.from_rgs((0, 1)))[0b01]
        want = math.log1p(1.0 / (n0 + 1e-5 ** 2))
        assert abs(got - want) <= 1e-15 * want

    #: one-antenna near-far games (budgets, N0): fixed-order cancellation in
    #: identity order, unit gains, so a weak block decodes after a strong one
    NEAR_FAR = [((1e6, 1e-6), 1e-12), ((1e8, 1e-8, 1e-8), 1e-12),
                ((1e6, 1.0, 1e-6, 1e-6), 1e-10)]

    @staticmethod
    def near_far(budgets, n0):
        users = tuple(UserSpec(u + 1, 1, np.array([[1.0]]), SumPower(b))
                      for u, b in enumerate(budgets))
        return Scenario(users, 1, n0, SicFixed(tuple(range(1, len(users) + 1))))

    @pytest.mark.parametrize("budgets, n0", NEAR_FAR)
    def test_sic_block_after_a_strong_one_hears_the_later_blocks_exactly(self, budgets, n0):
        # heard power is the sum of the blocks decoded later, never a running
        # total less the block's own power, which rounds a weak later block away
        s = self.near_far(budgets, n0)
        table = utility_table(s)
        masks, values, _, stalled = equilibrium._solved(equilibrium._cancellation_blocks, s,
                                                        table.rgs)
        assert not stalled and np.array_equal(masks, table.masks)
        assert np.all(np.abs(table.values - values) <= 1e-14 * np.abs(values))
        if s.k == 3:  # the rational core LP reads the same demands off either table
            solved = UtilityTable.from_arrays(s.k, s, table.rgs, table.counts, masks, values)
            got, want = (check_core(s, ExpectationModel.RATIONAL, table=t).slack
                         for t in (table, solved))
            assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("mode", ["sum", "caps"])
    def test_sic_table_is_the_scalar_closed_form(self, mode):
        # the table adds each block's later blocks in the order the scalar closed
        # form does, last decoded first; the powers can still differ in their last
        # bits, because Python 3.12+ compensates the sum() in block_budget and
        # _received_power, so the bound is 4 ulps rather than bit equality
        for k in range(2, 9):
            gen = np.random.default_rng([29, k, mode == "sum"])
            rx = SicFixed(tuple(int(u) + 1 for u in gen.permutation(k)))
            s = random_scenario(gen, k=k, m=1, mode=mode, receiver=rx,
                                n0=float(10.0 ** gen.uniform(-2.0, 2.0)))
            table = utility_table(s)
            want = np.empty_like(table.values)
            for row, rgs in enumerate(table.rgs.tolist()):
                part = Partition.from_rgs(rgs)
                scalar = single_antenna_utilities(s, part, induced_order(part, rx.base_order))
                a, b = table.offsets[row], table.offsets[row + 1]
                want[a:b] = [scalar[m] for m in table.masks[a:b].tolist()]
            assert np.all(np.abs(table.values - want) <= 4 * np.spacing(np.abs(want)))

    @staticmethod
    def onehot_block_powers(rgs, gain2, p_sum, amp, mode):
        """Each label's received power from a (rows, user, label) one-hot tensor: the oracle."""
        onehot = rgs[:, :, None] == np.arange(rgs.shape[1])[None, None, :]
        if mode == 0:
            return (np.einsum("buj,u->bj", onehot, gain2)
                    * np.einsum("buj,u->bj", onehot, p_sum))
        a = np.einsum("buj,u->bj", onehot, amp)
        return a * a

    @pytest.mark.parametrize("mode", [0, 1])
    def test_block_powers_bitwise_equal_one_hot_oracle(self, mode):
        for k in range(1, 11):
            for rgs in (rgs_matrix(k), rgs_matrix(k)[:0]):  # every partition, and no row
                masks = equilibrium._label_masks(rgs)
                for seed in range(2):
                    gen = np.random.default_rng([k, seed, mode])
                    gain2, p_sum, amp = 10.0 ** gen.uniform(-3.0, 3.0, size=(3, k))
                    if mode == 0:
                        power_of = (_kernels.mask_table(np.add, gain2, 0.0)
                                    * _kernels.mask_table(np.add, p_sum, 0.0))
                    else:
                        a = _kernels.mask_table(np.add, amp, 0.0)
                        power_of = a * a
                    got = _kernels.single_rx_layout(masks, power_of, None)[1]
                    want = self.onehot_block_powers(rgs, gain2, p_sum, amp, mode)[masks != 0]
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode", ["sum", "caps"])
    def test_fixed_order_tables_bitwise_equal_utility_table(self, monkeypatch, mode):
        # layouts built in chunks of 7 rows still give the one-piece table,
        # for fixed-order cancellation and single-user decoding alike
        monkeypatch.setattr(equilibrium, "RGS_CHUNK_ROWS", 7)
        for k, receiver in itertools.product(range(2, 8), ("sic", "sud")):
            gen = np.random.default_rng([15, k])
            s = random_scenario(gen, k=k, m=1, mode=mode, receiver=SicFixed(
                tuple(int(u) + 1 for u in gen.permutation(k))) if receiver == "sic" else Sud())
            tables = _closed_form_tables(s)
            for n0 in 10.0 ** gen.uniform(-4.0, 4.0, size=3):
                got = tables(float(n0))
                with monkeypatch.context() as patch:
                    patch.setattr(equilibrium, "RGS_CHUNK_ROWS", 100_000)
                    want = utility_table(s.with_noise(float(n0)))
                for name in ("rgs", "counts", "offsets", "masks", "values", "totals"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                assert got.fingerprint == want.fingerprint

    def test_timeshare_guard(self):
        s = symmetric(8, 1.0, SicTimeShare())
        with pytest.raises(InvalidArgument):
            utility_table(s)

    @pytest.mark.parametrize("k, message", [
        (8, "8 blocks give 40320 decoding orders; the cap is 5040"),
        (11, "8 blocks give 40320 decoding orders; the cap is 5040"),
        (12, "8 blocks give 40320 decoding orders; the cap is 5040"),
        (13, "k must be in 1..12, got 13"),
    ])
    def test_timeshare_guard_names_the_cap(self, k, message):
        # the caps raise before any of the B_K rows is built
        s = symmetric(k, 1.0, SicTimeShare())
        tracemalloc.start()
        try:
            with pytest.raises(InvalidArgument) as err:
                utility_table(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == message
        assert peak < 1 << 20

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


def reference_block_powers(rgs_mat, gain2, p_sum, amp, mode):
    """Each block label's received power from one fancy-indexed add per user, in user order."""
    rows, k = rgs_mat.shape
    every = np.arange(rows)

    def label_sums(weight):
        out = np.zeros((rows, k))
        for u in range(k):
            out[every, rgs_mat[:, u]] += weight[u]
        return out

    if mode == 0:
        return label_sums(gain2) * label_sums(p_sum)
    a = label_sums(amp)
    return a * a


def reference_label_slots(rgs_mat, slot):
    """Each block label's latest member's slot (int8), K for a label with no member."""
    rows, k = rgs_mat.shape
    out = np.full((rows, k), k, dtype=np.int8)
    every = np.arange(rows)
    for u in np.argsort(slot):
        out[every, rgs_mat[:, u]] = slot[u]
    return out


def reference_layout(rgs_mat, slot, gain2, p_sum, amp, mode):
    """(power, heard, decoding order) of RGS rows from the per-user loops above.

    Each block hears the exclusive suffix sum of the blocks after it, added
    last first: in label order under single-user decoding, which also hears
    the exclusive prefix sum, and in decoding order under cancellation.
    """
    power = reference_block_powers(rgs_mat, gain2, p_sum, amp, mode)
    if slot is None:
        heard = np.zeros_like(power)
        np.cumsum(power[:, :-1], axis=1, out=heard[:, 1:])
        heard[:, :-1] += np.cumsum(power[:, :0:-1], axis=1)[:, ::-1]
        return power, heard, None
    order = np.argsort(reference_label_slots(rgs_mat, slot), axis=1)
    power_sorted = np.take_along_axis(power, order, axis=1)
    heard_sorted = np.zeros_like(power_sorted)
    heard_sorted[:, :-1] = np.cumsum(power_sorted[:, :0:-1], axis=1)[:, ::-1]
    heard = np.empty_like(heard_sorted)
    np.put_along_axis(heard, order, heard_sorted, axis=1)
    return power, heard, order


def spread_scenario(gen, k, mode, receiver):
    """A one-antenna game whose gains, budgets and caps span 1e-3..1e3."""
    users = []
    for uid in range(1, k + 1):
        n_t = int(gen.integers(1, 3))
        channel = gen.choice([-1.0, 1.0], size=(1, n_t)) * 10.0 ** gen.uniform(-1.5, 1.5, (1, n_t))
        power = (SumPower(float(10.0 ** gen.uniform(-3.0, 3.0))) if mode == "sum"
                 else PerAntenna(tuple(10.0 ** gen.uniform(-3.0, 3.0, size=n_t))))
        users.append(UserSpec(uid, n_t, channel, power))
    return Scenario(tuple(users), 1, 1.0, receiver)


class TestMaskTables:
    @settings(deadline=None)
    @given(st.integers(0, 15).flatmap(lambda k: st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=k, max_size=k)))
    def test_mask_table_folds_members_in_ascending_order(self, values):
        k = len(values)
        # numpy and Python disagree on which of 0.0 and -0.0 is the max, so
        # the max table reads the values with -0.0 as 0.0
        unsigned = [v + 0.0 for v in values]
        with np.errstate(over="ignore", invalid="ignore"):  # Python floats overflow quietly
            sums = _kernels.mask_table(np.add, np.array(values, dtype=np.float64), 0.0)
        maxes = _kernels.mask_table(np.maximum, np.array(unsigned, dtype=np.float64), -math.inf)
        assert len(sums) == len(maxes) == 1 << k
        members = [[u for u in range(k) if m >> u & 1] for m in range(1 << k)]
        assert [x.hex() for x in sums.tolist()] == [
            sum([values[u] for u in row], 0.0).hex() for row in members]
        assert [x.hex() for x in maxes.tolist()] == [
            max([unsigned[u] for u in row], default=-math.inf).hex() for row in members]

    @pytest.mark.parametrize("mode", ["sum", "caps"])
    @pytest.mark.parametrize("receiver", ["sic", "sud"])
    def test_layout_bitwise_equals_per_user_loops(self, receiver, mode):
        for k in range(1, 11):
            gen = np.random.default_rng([19, k, mode == "sum", receiver == "sic"])
            rx = SicFixed(tuple(int(u) + 1 for u in gen.permutation(k))) if receiver == "sic" \
                else Sud()
            s = spread_scenario(gen, k, mode, rx)
            # the per-user weights the loops read, as the closed form used to
            gain2 = np.array([float(np.sum(u.channel ** 2)) for u in s.users])
            if mode == "sum":
                p_sum, amp, code = np.array([u.power.total for u in s.users]), np.zeros(k), 0
            else:
                p_sum, code = np.zeros(k), 1
                amp = np.array([float(np.abs(u.channel[0]) @ np.sqrt(np.asarray(u.power.caps)))
                                for u in s.users])
            slot = None
            if receiver == "sic":
                slot = np.empty(k, dtype=np.int8)
                slot[np.asarray(rx.base_order) - 1] = np.arange(k)
            slot_of = _slot_of(rx) if receiver == "sic" else None
            rgs = rgs_matrix(k)
            subsets = [rgs] + [rgs[gen.permutation(len(rgs))[:int(gen.integers(1, len(rgs) + 1))]]
                               for _ in range(3)] + [rgs[:0]]
            for rows in subsets:
                masks = equilibrium._label_masks(rows)
                blocks, power, heard = _kernels.single_rx_layout(masks, _power_of(s), slot_of)
                ref_power, ref_heard, ref_order = reference_layout(rows, slot, gain2, p_sum,
                                                                   amp, code)
                # every block entry, row by row in label order
                exists = masks != 0
                assert blocks.tobytes() == masks[exists].tobytes()
                assert power.tobytes() == ref_power[exists].tobytes()
                assert heard.tobytes() == ref_heard[exists].tobytes()
                if receiver == "sic":
                    slots = slot_of[masks]
                    assert slots.tobytes() == reference_label_slots(rows, slot).tobytes()
                    assert np.array_equal(np.argsort(slots, axis=1), ref_order)


def chain_utilities(s, partition, order):
    """One backward sweep of ``block_response`` along ``order`` (block labels), on
    each block's kernel channel (its equivalent channel under a pooled budget)."""
    noise = s.noise * np.eye(s.rx_antennas)
    jmat = np.zeros((s.rx_antennas, s.rx_antennas))
    out = {}
    for label in reversed(order):
        block = partition.blocks[label]
        (h,), (limit,), (q0,), _ = equilibrium._block_inputs(s, [block], None)
        q, rate, ok = _kernels.block_response(h, noise + jmat, limit, q0, SOLVER_TOL, PA_MAX_ITER)
        assert ok
        jmat = _kernels.sym(jmat + h @ q @ h.T)
        out[block.mask] = float(rate)
    return {b.mask: out[b.mask] for b in partition.blocks}  # label order, as every route


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

    @pytest.mark.parametrize("mode", ["sum", "caps"])
    def test_ne_sic_is_one_backward_sweep(self, monkeypatch, mode):
        counts = self.count_suffixes(monkeypatch)
        s = random_scenario(np.random.default_rng(5), k=5, m=2, mode=mode,
                            receiver=SicFixed((4, 2, 5, 1, 3)))
        for part in enumerate_partitions(5):
            counts.clear()
            profile, got = ne_sic(s, part)
            assert counts == [len(part)]
            assert hexes(got) == hexes(reference_utilities(s, part))
            assert profile.partition == part
            validate_profile(s, profile)

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


class TestLabelOrder:
    """Every route lists a row's blocks in label order, as ``Partition.blocks``."""

    @pytest.mark.parametrize("mode", ["sum", "caps"])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("receiver", ["sic", "sud", "ts"])
    def test_every_route_lists_blocks_in_label_order(self, receiver, m, mode):
        # m=1: the closed forms, and time sharing's cancellation route; m=2: the
        # lockstep SUD sweep and both cancellation receivers
        k = 4
        gen = np.random.default_rng([20, m, mode == "sum", len(receiver)])
        rx = {"sic": SicFixed(tuple(int(u) + 1 for u in gen.permutation(k))), "sud": Sud(),
              "ts": SicTimeShare()}[receiver]
        s = random_scenario(gen, k=k, m=m, mode=mode, receiver=rx)
        table = utility_table(s)
        labels = equilibrium._label_masks(table.rgs)
        assert table.masks.tobytes() == labels[labels != 0].tobytes()
        if receiver != "sic":
            return
        for part in enumerate_partitions(k):
            profile, got = ne_sic(s, part)
            assert list(got) == [b.mask for b in part.blocks]
            assert profile.partition == part
            validate_profile(s, profile)
            # each block's own covariance, read in decoding order, gives its utility
            jmat = np.zeros((m, m))
            for block in reversed(induced_order(part, rx.base_order)):
                h = coalition_channel(s, block)
                q = profile.matrices[part.blocks.index(block)]
                assert _kernels.logdet_ratio(s.noise, h, q, jmat) == pytest.approx(
                    got[block.mask], rel=1e-9, abs=1e-12)
                jmat = jmat + h @ q @ h.T


def reference_sud_fixed_point(n0, hs, limits, q0s, tol, max_rounds, pa_tol, pa_iter):
    """One partition's Gauss-Seidel sweeps written out block by block, with the
    leave-one-out sums and extrapolation of :func:`_kernels.sud_lockstep`: the
    oracle its rows must equal bitwise.  Block i hears N0 I plus the grams
    before it (added from the first) plus those after it (added from the last)."""
    n = len(hs)
    qs = list(q0s)
    grams = [_kernels.sym(h @ q @ h.T) for h, q in zip(hs, qs)]
    eye = n0 * np.eye(hs[0].shape[0])
    zero = np.zeros_like(eye)

    def after(grams):
        out = [zero] * n
        for i in range(n - 2, -1, -1):
            out[i] = grams[i + 1] if i == n - 2 else out[i + 1] + grams[i + 1]
        return out

    suffix = after(grams)
    utils = np.zeros(len(hs))
    prev = np.full(len(hs), -1.0)
    delta = np.inf
    converged = False
    rounds = 0
    pooled = not isinstance(limits[0], np.ndarray)
    last_size = last_ratio = 0.0
    for rounds in range(1, max_rounds + 1):
        ok_all = True
        before = list(qs)
        prefix = zero
        for i, (h, limit) in enumerate(zip(hs, limits)):
            q, _, conv = _kernels.block_response(h, eye + (prefix + suffix[i]), limit, qs[i],
                                                 pa_tol, pa_iter)
            ok_all = ok_all and conv
            gram = _kernels.sym(h @ q @ h.T)
            prefix = prefix + gram
            qs[i], grams[i] = q, gram
        suffix = after(grams)
        running = list(itertools.accumulate(grams))
        others = [(zero if i == 0 else running[i - 1]) + suffix[i] for i in range(n)]
        _, ld1 = np.linalg.slogdet(eye + running[-1])
        _, ld0 = np.linalg.slogdet(eye + np.stack(others))
        utils = np.maximum(ld1 - ld0, 0.0)
        delta = np.abs(utils - prev).max()
        prev = utils
        if rounds > 1 and delta < tol and ok_all:
            converged = True
            break
        if not pooled:
            continue
        steps = np.stack(qs) - np.stack(before)
        size = np.sqrt(np.cumsum((steps * steps).ravel())[-1])
        ratio = size / last_size if last_size > 0.0 else 0.0
        last_size = size
        if (0.0 < ratio < _kernels.SUD_RATIO_MAX and last_ratio > 0.0
                and abs(ratio - last_ratio) < _kernels.SUD_RATIO_AGREE * ratio):
            jumped = list(_kernels._extrapolate(np.stack(qs), steps, ratio))
            jumped_grams = [_kernels.sym(h @ q @ h.T) for h, q in zip(hs, jumped)]
            if np.linalg.slogdet(eye + list(itertools.accumulate(jumped_grams))[-1])[1] >= ld1:
                qs, grams = jumped, jumped_grams
                suffix = after(grams)
            last_size = ratio = 0.0
        last_ratio = ratio
    return qs, utils, rounds, converged, delta


def array_hexes(a):
    return [x.hex() for x in np.ravel(a).tolist()]


def sud_rows(s, rgs):
    """Per-block inputs, block ids and block counts of RGS rows, as the table builds them."""
    counts = rgs.max(axis=1) + 1
    masks = equilibrium._label_masks(rgs)[np.arange(s.k) < counts[:, None]]
    distinct, blocks = np.unique(masks, return_inverse=True)
    hs, limits, starts, _ = equilibrium._block_inputs(
        s, [Coalition(m) for m in distinct.tolist()], None)
    return hs, limits, starts, blocks, counts


class TestSudLockstep:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("mode", ["sum", "caps"])
    @pytest.mark.parametrize("m", [2, 3])
    def test_rows_equal_their_one_row_solve(self, m, mode, k):
        # rows of one lockstep call against sud_fixed_point and the
        # block-by-block oracle on their blocks alone; one sweep leaves every row stalled
        s = random_scenario(np.random.default_rng(100 * m + k), k=k, m=m, mode=mode,
                            receiver=Sud())
        hs, limits, starts, blocks, counts = sud_rows(s, rgs_matrix(k)[::{6: 6}.get(k, 1)])
        offsets = np.cumsum(counts) - counts
        checked = range(0, len(counts), {5: 5, 6: 6}.get(k, 1))
        for max_rounds in (1, equilibrium.SUD_MAX_ROUNDS):
            qs, utils, rounds, converged, delta = _kernels.sud_lockstep(
                s.noise, hs, limits, starts, blocks, counts, equilibrium.SUD_TOL, max_rounds,
                SOLVER_TOL, PA_MAX_ITER)
            assert len(qs) == len(utils) == counts.sum()
            assert converged.any() == (max_rounds > 1)
            for row in checked:
                ids = blocks[offsets[row]:offsets[row] + counts[row]].tolist()
                args = (s.noise, [hs[b] for b in ids], [limits[b] for b in ids],
                        [starts[b] for b in ids], equilibrium.SUD_TOL, max_rounds,
                        SOLVER_TOL, PA_MAX_ITER)
                at = slice(offsets[row], offsets[row] + counts[row])
                got = ([array_hexes(q) for q in qs[at]], array_hexes(utils[at]), int(rounds[row]),
                       bool(converged[row]), float(delta[row]).hex())
                for solve in (_kernels.sud_fixed_point, reference_sud_fixed_point):
                    q1, u1, r1, c1, d1 = solve(*args)
                    assert got == ([array_hexes(q) for q in q1], array_hexes(u1), r1, c1,
                                   float(d1).hex()), (row, solve.__name__)

    @pytest.mark.parametrize("mode, seed, rounds", [("sum", 1, 4), ("caps", 0, 3)])
    def test_table_stall_names_the_first_stalled_row(self, monkeypatch, mode, seed, rounds):
        s = random_scenario(np.random.default_rng(seed), k=4, m=2, mode=mode, receiver=Sud())
        first = None
        for row in rgs_matrix(4).tolist():
            try:
                ne_sud(s, Partition.from_rgs(row), max_rounds=rounds)
            except NonConvergence as exc:
                first = first or exc
        assert first is not None and first.diagnostics["partition"] != (0, 1, 2, 3)
        monkeypatch.setattr(equilibrium, "SUD_MAX_ROUNDS", rounds)
        with pytest.raises(NonConvergence) as err:
            utility_table(s)
        assert str(err.value) == str(first)
        assert err.value.diagnostics == first.diagnostics
        (profile, utils), (want_profile, want_utils) = err.value.best, first.best
        assert profile.partition == want_profile.partition
        assert ([array_hexes(q) for q in profile.matrices]
                == [array_hexes(q) for q in want_profile.matrices])
        assert {m: u.hex() for m, u in utils.items()} == {m: u.hex()
                                                         for m, u in want_utils.items()}

    @staticmethod
    def count_pooled_calls(monkeypatch):
        """Stack sizes of every ``waterfill_stack`` call; a scalar ``waterfill`` call fails."""
        calls = []
        original = _kernels.waterfill_stack

        def counted(h, noise, p):
            calls.append(len(p))
            return original(h, noise, p)

        def forbidden(*args):
            raise AssertionError("a table route called the scalar waterfill")

        monkeypatch.setattr(_kernels, "waterfill_stack", counted)
        monkeypatch.setattr(_kernels, "waterfill", forbidden)
        return calls

    def test_pooled_table_makes_one_call_per_sweep_and_block_position(self, monkeypatch):
        calls = self.count_pooled_calls(monkeypatch)
        sweeps = []
        original = _kernels.sud_lockstep

        def recorded(*args):
            out = original(*args)
            sweeps.append((np.asarray(args[5]), out[2]))
            return out

        monkeypatch.setattr(_kernels, "sud_lockstep", recorded)
        utility_table(random_scenario(np.random.default_rng(12), k=5, m=2, receiver=Sud()))
        ((counts, rounds),) = sweeps
        # sweep t visits the block positions of the rows still sweeping
        bound = sum(int(counts[rounds >= t].max()) for t in range(1, int(rounds.max()) + 1))
        assert 0 < len(calls) <= bound
        assert sum(calls) == int(counts @ rounds)  # every row's blocks, every sweep

    @pytest.mark.parametrize("receiver", [SicFixed((4, 2, 5, 1, 3)), SicTimeShare()])
    def test_cancellation_table_makes_one_call_per_suffix_length(self, monkeypatch, receiver):
        calls = self.count_pooled_calls(monkeypatch)
        utility_table(random_scenario(np.random.default_rng(13), k=5, m=2, receiver=receiver))
        if isinstance(receiver, SicTimeShare):
            assert len(calls) == 5 and sum(calls) == 1081  # suffixes of 1..5 blocks
        else:
            assert len(calls) == 5

    def test_one_antenna_timeshare_table_calls_no_scalar_waterfill(self, monkeypatch):
        calls = self.count_pooled_calls(monkeypatch)
        utility_table(random_scenario(np.random.default_rng(14), k=4, m=1,
                                      receiver=SicTimeShare()))
        assert len(calls) == 4

    def test_table_runs_one_lockstep_solve(self, monkeypatch):
        s = random_scenario(np.random.default_rng(4), k=4, m=2, receiver=Sud())
        calls = []
        original = _kernels.sud_lockstep

        def counted(*args):
            calls.append(len(args[5]))
            return original(*args)

        monkeypatch.setattr(_kernels, "sud_lockstep", counted)
        monkeypatch.setattr(_kernels, "sud_fixed_point", None)
        utility_table(s)
        assert calls == [15]
