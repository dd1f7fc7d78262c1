import functools
import math

import numpy as np
import pytest

from maccoop import _kernels, analysis, cores, equilibrium, model
from maccoop.analysis import (
    SweepSpec,
    approx_ratio,
    classify_externalities,
    snr_boundary,
    snr_db_to_noise,
    symmetric_scenario,
    verify_superadditivity,
)
from maccoop.cores import CORE_MAX_USERS, ExpectationModel, check_core
from maccoop.equilibrium import ne_sic, utility_table
from maccoop.errors import InvalidArgument, NonConvergence
from maccoop.model import (
    Coalition,
    Partition,
    PerAntenna,
    Scenario,
    SicFixed,
    SicTimeShare,
    Sud,
    UserSpec,
    rgs_matrix,
)

import audit_reference
from conftest import random_scenario


class TestSuperadditivity:
    def test_symmetric_sic_holds(self):
        report = verify_superadditivity(symmetric_scenario(4), 100, seed=7)
        assert report.passed
        assert report.counterexample is None
        assert report.cohesive
        assert report.cohesiveness_worst <= 1e-8

    def test_single_rx_reads_one_closed_form_table(self, monkeypatch):
        # every partition comes from the closed-form table; none is solved alone
        def no_solve(*args, **kwargs):
            raise AssertionError("per-partition solve")

        monkeypatch.setattr(equilibrium, "ne_utilities", no_solve)
        report = verify_superadditivity(symmetric_scenario(5), 100, seed=7)
        assert report.passed and report.cohesive and report.skipped == 0

    def test_random_sud_holds(self, rng):
        s = random_scenario(rng, k=3, m=2, receiver=Sud())
        report = verify_superadditivity(s, 100, seed=3)
        assert report.passed

    def test_two_user_closed_form(self):
        # v({1,2}) = ln5 >= ln1.5 + ln2 <=> 5 >= 3
        s = symmetric_scenario(2)
        report = verify_superadditivity(s, 10, seed=0)
        assert report.passed
        _, merged = ne_sic(s, Partition.grand(2))
        _, parts = ne_sic(s, Partition.singletons(2))
        assert merged[0b11] >= parts[0b01] + parts[0b10] - 1e-12
        assert merged[0b11] == pytest.approx(np.log(5.0), abs=1e-12)

    def test_one_user_runs_no_trial(self):
        # one user has no partition of two blocks to merge
        report = verify_superadditivity(symmetric_scenario(1), 50, seed=0)
        assert report.trials_run == 0
        assert report.passed and report.cohesive

    def test_trials_guard(self):
        with pytest.raises(InvalidArgument):
            verify_superadditivity(symmetric_scenario(3), 0, seed=0)

    def test_cohesiveness_reads_the_table_row_totals(self, monkeypatch):
        s = random_scenario(np.random.default_rng(21), k=6, m=1, mode="caps", receiver=Sud())
        table = utility_table(s)
        v_k = table.entries[(0,) * 6][0b111111]
        want = max(sum(row.values()) - v_k for row in table.entries.values())

        def no_enumeration(*args, **kwargs):
            raise AssertionError("partitions enumerated one by one")

        monkeypatch.setattr(model, "enumerate_partitions", no_enumeration)
        report = verify_superadditivity(s, 50, seed=2)
        assert report.cohesiveness_worst.hex() == want.hex()
        assert report.cohesive and report.skipped == 0


def stalled_sud_game(monkeypatch, mode, seed, rounds):
    """A K=4, M=2 SUD game whose sweeps stop after ``rounds``, and the RGS of
    each partition whose own solve (``ne_sud``) then stalls."""
    s = random_scenario(np.random.default_rng(seed), k=4, m=2, mode=mode, receiver=Sud())
    stalled = set()
    for row in rgs_matrix(4).tolist():
        try:
            equilibrium.ne_sud(s, Partition.from_rgs(row), max_rounds=rounds)
        except NonConvergence:
            stalled.add(tuple(row))
    assert 0 < len(stalled) < 14 and (0, 0, 0, 0) not in stalled
    monkeypatch.setattr(equilibrium, "SUD_MAX_ROUNDS", rounds)
    return s, stalled


@pytest.mark.parametrize("mode, seed, rounds", [("sum", 1, 4), ("caps", 0, 3)])
class TestStalledPartitions:
    # the trials' partitions are drawn here as each audit draws them

    def test_superadditivity_skips_each_stalled_trial_and_partition(self, monkeypatch, mode,
                                                                    seed, rounds):
        s, stalled = stalled_sud_game(monkeypatch, mode, seed, rounds)
        rng = np.random.default_rng(5)
        skipped = len(stalled)
        for _ in range(60):
            before = Partition.from_rgs(analysis._random_labels(rng, 4, 2)[0])
            chosen = rng.choice(len(before), size=int(rng.integers(2, len(before) + 1)),
                                replace=False)
            merged = Coalition(sum(before.blocks[i].mask for i in chosen))
            after = Partition(4, tuple(b for i, b in enumerate(before.blocks)
                                       if i not in chosen) + (merged,))
            skipped += before.rgs in stalled or after.rgs in stalled
        report = verify_superadditivity(s, 60, seed=5)
        assert report.skipped == skipped

    def test_externalities_skip_each_stalled_merger(self, monkeypatch, mode, seed, rounds):
        s, stalled = stalled_sud_game(monkeypatch, mode, seed, rounds)
        rng = np.random.default_rng(6)
        witnesses = 0
        for _ in range(40):
            before = Partition.from_rgs(analysis._random_labels(rng, 4, 3)[0])
            i, j = rng.choice(len(before), size=2, replace=False)
            merged = Coalition(before.blocks[i].mask | before.blocks[j].mask)
            after = Partition(4, tuple(b for n, b in enumerate(before.blocks)
                                       if n not in (i, j)) + (merged,))
            if before.rgs not in stalled and after.rgs not in stalled:
                witnesses += len(before) - 2
        verdict = classify_externalities(s, 40, seed=6)
        assert len(verdict.witnesses) == witnesses > 0

    def test_stalled_grand_partition_raises(self, monkeypatch, mode, seed, rounds):
        s, _ = stalled_sud_game(monkeypatch, mode, seed, rounds)
        monkeypatch.setattr(equilibrium, "SUD_MAX_ROUNDS", 1)  # every row stalls
        with pytest.raises(NonConvergence, match=r"partition \{1,2,3,4\}"):
            verify_superadditivity(s, 10, seed=0)


def report_fields(report):
    """A superadditivity report with every float as its hex string."""
    ce = report.counterexample
    return (report.passed, report.trials_run, report.skipped, report.cohesive,
            report.cohesiveness_worst.hex(),
            None if ce is None else (ce.before, ce.after, ce.merged, ce.merged_value.hex(),
                                     ce.parts_total.hex()))


def witness_fields(witnesses):
    return [(w.before, w.after, w.coalition, w.value_before.hex(), w.value_after.hex())
            for w in witnesses]


def assert_audits_replay(s, trials, seeds):
    """Both audits equal the Partition-object ones, bit for bit, on ``seeds``."""
    for seed in seeds:
        assert (report_fields(verify_superadditivity(s, trials, seed))
                == report_fields(audit_reference.verify_superadditivity(s, trials, seed)))
        verdict = classify_externalities(s, trials, seed)
        kind, witnesses = audit_reference.classify_externalities(s, trials, seed)
        assert verdict.classification == kind
        assert witness_fields(verdict.witnesses) == witness_fields(witnesses)


class TestAuditsReplayThePartitionObjectAudits:
    # the same generator calls in the same order give the same draws, values and witnesses

    @pytest.mark.parametrize("game_seed", [0, 1])
    def test_per_antenna_single_rx_k8(self, game_seed):
        # the shape of the CLI benchmark's K=8 game: one receive antenna, antenna caps
        rng = np.random.default_rng(game_seed)
        s = random_scenario(rng, k=8, m=1, mode="caps",
                            receiver=SicFixed(tuple(int(u) for u in rng.permutation(8) + 1)))
        assert_audits_replay(s, 200, [0, 1, 2])

    @pytest.mark.parametrize("mode, seed, rounds", [("sum", 1, 4), ("caps", 0, 3)])
    def test_stalled_sud_games(self, monkeypatch, mode, seed, rounds):
        s, _ = stalled_sud_game(monkeypatch, mode, seed, rounds)
        assert verify_superadditivity(s, 60, 5).skipped > 0
        assert_audits_replay(s, 60, [5, 6])

    @pytest.mark.parametrize("k, m", [(3, 1), (4, 1), (3, 2), (4, 2)])
    def test_uniform_timeshare(self, k, m):
        s = random_scenario(np.random.default_rng(40 + k + m), k=k, m=m, receiver=SicTimeShare())
        assert_audits_replay(s, 50, [0, 3])

    def test_first_counterexample(self, monkeypatch):
        # a negative tolerance fails every merger whose gain is under 0.05 nats
        monkeypatch.setattr(analysis, "SUPERADDITIVITY_TOL", -0.05)
        s = random_scenario(np.random.default_rng(3), k=6, m=1, mode="caps", receiver=Sud())
        report = verify_superadditivity(s, 100, 4)
        assert report.counterexample is not None and not report.passed
        assert report_fields(report) == report_fields(
            audit_reference.verify_superadditivity(s, 100, 4))

    def test_parts_add_in_the_order_drawn(self, monkeypatch):
        # every trial fails, so each seed's counterexample is its first trial, and
        # the bits of a sum of three or more parts depend on the order they add in
        monkeypatch.setattr(analysis, "SUPERADDITIVITY_TOL", -math.inf)
        s = random_scenario(np.random.default_rng(8), k=7, m=1, mode="caps", receiver=Sud())
        for seed in range(40):
            report = verify_superadditivity(s, 1, seed)
            assert report_fields(report) == report_fields(
                audit_reference.verify_superadditivity(s, 1, seed))

    def test_trial_chunks_do_not_change_the_report(self, monkeypatch):
        monkeypatch.setattr(analysis, "SUPERADDITIVITY_TOL", -0.05)
        s = random_scenario(np.random.default_rng(3), k=6, m=1, mode="caps", receiver=Sud())
        want = report_fields(audit_reference.verify_superadditivity(s, 100, 4))
        for chunk in (1, 7, 100):
            monkeypatch.setattr(analysis, "TRIAL_CHUNK", chunk)
            assert report_fields(verify_superadditivity(s, 100, 4)) == want

    def test_witness_columns(self):
        s = random_scenario(np.random.default_rng(5), k=5, m=2, receiver=Sud())
        verdict = classify_externalities(s, 40, 1)
        n = len(verdict.witnesses)
        assert n > 0 and verdict.rgs_before.shape == verdict.rgs_after.shape == (n, 5)
        assert verdict.rgs_before.dtype == verdict.rgs_after.dtype == np.int8
        assert verdict.masks.tolist() == [w.coalition.mask for w in verdict.witnesses]
        assert verdict == classify_externalities(s, 40, 1)
        assert verdict != classify_externalities(s, 40, 2)


@pytest.mark.parametrize("audit", [verify_superadditivity, classify_externalities])
def test_weighted_timeshare_audits_rejected_before_any_solve(audit, monkeypatch):
    s = symmetric_scenario(3, 1.0, SicTimeShare((0.5, 0.0, 0.25, 0.0, 0.25, 0.0)))

    def no_solve(*args, **kwargs):
        raise AssertionError("equilibrium solved")

    monkeypatch.setattr(equilibrium, "_solve_orders", no_solve)
    with pytest.raises(InvalidArgument, match="audits meet .* uniform time-share weights"):
        audit(s, 5, seed=0)


@pytest.mark.parametrize("seed", [-1, -(2 ** 70), 1.5, "0", None])
@pytest.mark.parametrize("audit", [verify_superadditivity, classify_externalities])
def test_audits_reject_a_seed_that_is_not_a_nonnegative_integer(audit, seed):
    # numpy's own ValueError or TypeError used to escape
    with pytest.raises(InvalidArgument, match="seed must be a nonnegative integer"):
        audit(symmetric_scenario(3), 5, seed)


@pytest.mark.parametrize("trials", [1.5, 2.5, 3.0, "3", None])
@pytest.mark.parametrize("audit", [verify_superadditivity, classify_externalities])
def test_audits_reject_a_trial_count_that_is_not_an_integer(audit, trials):
    # range() used to raise a bare TypeError
    with pytest.raises(InvalidArgument, match="trials must be an integer >= 1"):
        audit(symmetric_scenario(3), trials, 0)


@pytest.mark.parametrize("audit", [verify_superadditivity, classify_externalities])
def test_audits_take_numpy_integer_seeds(audit):
    assert audit(symmetric_scenario(3), 5, np.int64(7)) == audit(symmetric_scenario(3), 5, 7)


@pytest.mark.parametrize("audit", [verify_superadditivity, classify_externalities])
def test_audits_take_numpy_integer_trials(audit):
    assert audit(symmetric_scenario(3), np.int64(5), 7) == audit(symmetric_scenario(3), 5, 7)


class TestExternalities:
    def test_single_rx_negative(self):
        verdict = classify_externalities(symmetric_scenario(4), 50, seed=11)
        assert verdict.classification == "negative"
        for w in verdict.witnesses:
            assert w.value_after <= w.value_before + 1e-9

    def test_single_rx_negative_random_gains(self, rng):
        s = random_scenario(rng, k=4, m=1)
        verdict = classify_externalities(s, 50, seed=5)
        assert verdict.classification == "negative"

    def test_needs_three_users(self):
        with pytest.raises(InvalidArgument):
            classify_externalities(symmetric_scenario(2), 10, seed=0)

    @pytest.mark.parametrize("receiver", [None, Sud()])
    def test_sixteen_users_raise_invalid_argument(self, receiver):
        # coalition masks are int16; numpy's OverflowError used to escape here
        with pytest.raises(InvalidArgument, match="at most 15 users"):
            classify_externalities(symmetric_scenario(16, 1.0, receiver), 5, seed=0)

    @pytest.mark.parametrize("m, receiver", [
        (1, SicFixed((3, 1, 4, 2))), (1, Sud()), (2, SicFixed((3, 1, 4, 2))), (2, Sud()),
        (2, SicTimeShare()),
    ])
    def test_witness_values_are_table_rows(self, rng, m, receiver):
        # the oracle: the closed-form table with one receive antenna, else each
        # partition's own solve
        s = random_scenario(rng, k=4, m=m, receiver=receiver)
        verdict = classify_externalities(s, 30, seed=2)
        assert verdict.witnesses
        if m == 1:
            values = utility_table(s).partition_values
        else:
            values = functools.partial(equilibrium.ne_utilities, s)
        for w in verdict.witnesses:
            assert w.value_before.hex() == values(w.before)[w.coalition.mask].hex()
            assert w.value_after.hex() == values(w.after)[w.coalition.mask].hex()

    @staticmethod
    def _paper_instance(channels):
        users = tuple(
            UserSpec(i + 1, 1, np.array(h).reshape(2, 1), PerAntenna((1.0,)))
            for i, h in enumerate(channels)
        )
        return Scenario(users, 2, 1.0, SicFixed((3, 2, 1)))

    def test_multi_antenna_positive_witness(self):
        # documented 2-antenna instance where merging {1,2} helps user 3
        s = self._paper_instance(
            [[1.17119, -0.1941], [-2.1384, -0.8396], [1.3546, -1.0722]]
        )
        _, before = ne_sic(s, Partition.singletons(3))
        _, after = ne_sic(s, Partition.from_blocks(3, [[1, 2], [3]]))
        assert before[0b100] < after[0b100]

    def test_multi_antenna_negative_witness(self):
        s = self._paper_instance(
            [[-1.5771, 0.5080], [0.2820, 0.0335], [-1.3337, 1.1275]]
        )
        _, before = ne_sic(s, Partition.singletons(3))
        _, after = ne_sic(s, Partition.from_blocks(3, [[1, 2], [3]]))
        assert before[0b100] > after[0b100]

    def test_multi_antenna_mixed_classification(self):
        # in the second instance, merging {2,3} helps outsider {1} while
        # merging {1,2} hurts outsider {3}: both signs in one game
        s = self._paper_instance(
            [[-1.5771, 0.5080], [0.2820, 0.0335], [-1.3337, 1.1275]]
        )
        verdict = classify_externalities(s, 40, seed=1)
        assert verdict.classification == "mixed"


class TestSnrBoundary:
    def test_k4_bracket(self):
        spec = SweepSpec((4,), (-30.0, -20.0, -10.0, 0.0))
        (point,) = snr_boundary(spec, ExpectationModel.RATIONAL)
        assert point.grid_verdicts[0] == "nonempty"
        assert point.grid_verdicts[-1] == "empty"
        assert point.status == "found"
        assert -30.0 < point.threshold_db < 0.0

    def test_threshold_resolution(self):
        spec = SweepSpec((4,), (-5.0, 0.0))
        (point,) = snr_boundary(spec, ExpectationModel.RATIONAL, resolution_db=0.01)
        # verdicts flip within one resolution step of the threshold
        lo = point.threshold_db - 0.01
        hi = point.threshold_db + 0.01
        from maccoop.analysis import _symmetric_verdicts

        assert _symmetric_verdicts(4, ExpectationModel.RATIONAL)(lo) == "nonempty"
        assert _symmetric_verdicts(4, ExpectationModel.RATIONAL)(hi) == "empty"

    def test_unknown_model_is_an_invalid_argument(self):
        with pytest.raises(InvalidArgument, match="unknown expectation model 'bogus'"):
            snr_boundary(SweepSpec((3,), (-5.0, 0.0)), "bogus")

    @pytest.mark.parametrize("resolution", [0.0, -0.01, float("nan"), float("inf")])
    def test_resolution_must_be_finite_and_positive(self, monkeypatch, resolution):
        def no_verdicts(*args):
            raise AssertionError("verdicts computed before the resolution was checked")

        monkeypatch.setattr(analysis, "_symmetric_verdicts", no_verdicts)
        spec = SweepSpec((4,), tuple(np.arange(-30.0, 10.1, 5.0)))
        with pytest.raises(InvalidArgument, match="resolution_db must be finite and > 0"):
            snr_boundary(spec, ExpectationModel.RATIONAL, resolution_db=resolution)

    def test_a_resolution_below_the_double_spacing_ends_at_adjacent_doubles(self, monkeypatch):
        calls = []
        real = analysis._symmetric_verdicts

        def counted(k, model):
            verdict = real(k, model)

            def at(snr_db):
                calls.append(snr_db)
                assert len(calls) < 200, "the bisection did not stop"
                return verdict(snr_db)

            return at

        monkeypatch.setattr(analysis, "_symmetric_verdicts", counted)
        spec = SweepSpec((4,), (-5.0, 0.0))
        (fine,) = snr_boundary(spec, ExpectationModel.RATIONAL, resolution_db=1e-300)
        (coarse,) = snr_boundary(spec, ExpectationModel.RATIONAL)
        assert fine.status == coarse.status == "found"
        assert abs(fine.threshold_db - coarse.threshold_db) <= 0.01

    def test_no_transition_reported(self):
        spec = SweepSpec((4,), (-40.0, -35.0, -30.0))
        (point,) = snr_boundary(spec, ExpectationModel.RATIONAL)
        assert point.status == "outside_grid"
        assert point.threshold_db is None

    def test_k_values_must_not_be_empty(self):
        with pytest.raises(InvalidArgument, match="one or more K"):
            SweepSpec((), (-10.0, 0.0))

    def test_grid_must_increase(self):
        with pytest.raises(InvalidArgument):
            SweepSpec((4,), (0.0, 0.0, 1.0))

    @pytest.mark.parametrize("grid", [
        (0.0, float("nan"), 5.0), (float("nan"), 1.0), (0.0, float("inf")),
        (float("-inf"), 0.0), (0.0, 5.0, float("nan")),
    ])
    def test_grid_must_be_finite(self, grid):
        with pytest.raises(InvalidArgument, match="finite"):
            SweepSpec((2,), grid)

    @pytest.mark.parametrize("ks, grid, first", [
        # N0 is a positive subnormal from about 3080 dB on, and 2^2/N0 overflows
        ((2,), tuple(np.arange(3050.0, 3101.0, 5.0)), 3080.0),
        # N0 = 10^-325 rounds to 0
        ((2,), (3000.0, 3250.0), 3250.0),
        # 10.0 ** 320 raised OverflowError out of snr_db_to_noise
        ((2,), (-3200.0, -3150.0), -3200.0),
        # the largest K decides: 10^2/N0 overflows from 3062.6 dB, 2^2/N0 from 3076.6 dB
        ((2, 10), (3060.0, 3065.0), 3065.0),
    ], ids=["subnormal-n0", "n0-underflows", "n0-overflows", "largest-k-decides"])
    def test_a_grid_point_outside_float_range_raises_before_any_verdict(
            self, ks, grid, first, monkeypatch):
        def no_verdict(*args):
            raise AssertionError("a verdict was computed")

        monkeypatch.setattr(analysis, "_symmetric_verdicts", no_verdict)
        with pytest.raises(InvalidArgument, match=rf"SNR {first!r} dB is out of range: "
                                                  rf"N0 = 10\^\(-SNR/10\).* K = {max(ks)}$"):
            snr_boundary(SweepSpec(ks, grid), ExpectationModel.RATIONAL)

    @pytest.mark.parametrize("model", list(ExpectationModel))
    def test_grids_inside_float_range_still_sweep(self, model):
        # the 3000-3050 dB grid is inside the range, and so is K=2 at 3065 dB
        for ks, grid in (((2,), tuple(np.arange(3000.0, 3051.0, 5.0))),
                         ((2,), (3060.0, 3065.0)), ((3,), (-3080.0, -3075.0))):
            for point in snr_boundary(SweepSpec(ks, grid), model):
                assert len(point.grid_verdicts) == len(grid)

    @pytest.mark.parametrize("model", list(ExpectationModel))
    def test_every_point_equals_a_per_point_oracle(self, model, monkeypatch):
        # at every grid and bisection point the LP gets the demands and v(N) that
        # demand_vector and grand_value read from utility_table, bit for bit, and
        # its verdict is check_core's on that table
        points, checks, oracle_at = [], [], {}
        make_verdicts, check = analysis._symmetric_verdicts, cores._CoreLp.check

        def recording_verdicts(k, m):
            verdict = make_verdicts(k, m)

            def at(snr_db):
                points.append((k, snr_db_to_noise(snr_db)))
                return verdict(snr_db)

            return at

        def recording_check(lp, d, v_k, start=None):
            result, basis = check(lp, d, v_k, start)
            checks.append(([x.hex() for x in d.tolist()], float(v_k).hex(), result.verdict))
            return result, basis

        def oracle(k, n0):
            if (k, n0) not in oracle_at:
                s = symmetric_scenario(k, n0)
                table = utility_table(s)
                demands = cores.demand_vector(s, model, table=table)
                oracle_at[k, n0] = ([x.hex() for x in demands.values()],
                                    cores.grand_value(s, table=table).hex(),
                                    check_core(s, model, table=table).verdict)
            return oracle_at[k, n0]

        spec = SweepSpec(tuple(range(2, 9)), (-20.0, -5.0, 10.0, 25.0))
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "_symmetric_verdicts", recording_verdicts)
            patch.setattr(cores._CoreLp, "check", recording_check)
            got = snr_boundary(spec, model, resolution_db=0.1)
        assert sum(p.status == "found" for p in got) == 5
        assert len(points) == len(checks) == 7 * 4 + 5 * 8  # 8 bisection steps each
        for (k, n0), seen in zip(points, checks):
            assert seen == oracle(k, n0)
        # the whole sweep again, deciding every point by the oracle
        monkeypatch.setattr(analysis, "_symmetric_verdicts",
                            lambda k, m: lambda db: oracle(k, snr_db_to_noise(db))[2])
        assert snr_boundary(spec, model, resolution_db=0.1) == got

    @pytest.mark.parametrize("model", list(ExpectationModel))
    def test_a_sweep_builds_one_scenario_and_no_table_per_k(self, model, monkeypatch):
        scenarios, tables = [], []
        post_init, setup = Scenario.__post_init__, equilibrium.UtilityTable._setup
        monkeypatch.setattr(Scenario, "__post_init__",
                            lambda s: scenarios.append(s.k) or post_init(s))
        monkeypatch.setattr(equilibrium.UtilityTable, "_setup",
                            lambda t, k, *args: tables.append(k) or setup(t, k, *args))
        spec = SweepSpec((2, 4, 6), (-20.0, -5.0, 10.0, 25.0))
        got = snr_boundary(spec, model, resolution_db=0.01)
        assert sum(len(p.grid_verdicts) for p in got) == 12
        assert sorted(scenarios) == [2, 4, 6]
        assert tables == []

    def test_k_above_core_cap_rejected_before_any_table(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a utility table was built")

        monkeypatch.setattr(analysis, "_closed_form_layout", forbidden)
        with pytest.raises(InvalidArgument, match=f"K <= {CORE_MAX_USERS}"):
            snr_boundary(SweepSpec((3, CORE_MAX_USERS + 1), (-10.0, 0.0)),
                         ExpectationModel.RATIONAL)


class TestApproxRatio:
    def test_grand_coalition_ratio_is_one(self):
        s = symmetric_scenario(3, receiver=SicTimeShare())
        curve = approx_ratio(s, [0.0, 30.0, 60.0])
        for p in curve.points:
            if p.size == 3:
                assert p.ratio == pytest.approx(1.0, abs=1e-12)

    def test_values_match_hand_forms(self):
        # singleton vs merged pair: exact utility averages the two block
        # orders; the approximation keeps s/K of the lone-decoding term
        s = symmetric_scenario(3, receiver=SicTimeShare())
        curve = approx_ratio(s, [60.0])
        n0 = snr_db_to_noise(60.0)
        by_size = {p.size: p for p in curve.points}
        exact1 = 0.5 * (np.log((n0 + 5) / (n0 + 4)) + np.log((n0 + 1) / n0))
        assert by_size[1].exact == pytest.approx(exact1, rel=1e-12)
        assert by_size[1].approx == pytest.approx(np.log(1 + 1 / n0) / 3, rel=1e-12)
        exact2 = 0.5 * (np.log((n0 + 5) / (n0 + 1)) + np.log((n0 + 4) / n0))
        assert by_size[2].exact == pytest.approx(exact2, rel=1e-12)

    def test_exact_values_are_each_partitions_own(self, monkeypatch):
        # one table of the K rows per SNR: one suffix solve call each
        s = symmetric_scenario(4, 0.5, SicTimeShare(), power=1.3, gain=0.7)
        calls = []
        original = _kernels.sic_backward

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(_kernels, "sic_backward", counted)
        curve = approx_ratio(s, [0.0, 30.0])
        assert len(calls) == 2
        monkeypatch.setattr(_kernels, "sic_backward", original)
        for p in curve.points:
            at = s.with_noise(snr_db_to_noise(p.snr_db))
            coalition = Coalition.from_members(range(1, p.size + 1))
            rest = Coalition.from_members(range(p.size + 1, 5)) if p.size < 4 else None
            partition = Partition(4, (coalition, rest) if rest else (coalition,))
            assert p.exact.hex() == equilibrium.ne_timeshare(at, partition)[coalition.mask].hex()

    def test_violations_reported_not_raised(self):
        s = symmetric_scenario(3, receiver=SicTimeShare())
        curve = approx_ratio(s, [30.0, 50.0])
        assert isinstance(curve.monotonicity_violations, tuple)

    def test_requires_uniform_timeshare(self):
        with pytest.raises(InvalidArgument):
            approx_ratio(symmetric_scenario(3), [10.0])

    def test_requires_symmetry(self):
        users = (
            UserSpec(1, 1, np.array([[1.0]]), PerAntenna((1.0,))),
            UserSpec(2, 1, np.array([[2.0]]), PerAntenna((1.0,))),
        )
        s = Scenario(users, 1, 1.0, SicTimeShare())
        with pytest.raises(InvalidArgument):
            approx_ratio(s, [10.0])

    @pytest.mark.parametrize("snr", [-3200.0, 3100.0], ids=["n0-overflows", "p-over-n0-overflows"])
    def test_snr_outside_float_range_raises_before_any_table(self, snr, monkeypatch):
        # -3200 dB raised OverflowError out of snr_db_to_noise, and at 3100 dB every
        # utility rounded to 0 and each ratio read 1; the grand coalition's power is
        # (3 x 0.49)(3 x 1.3), not the unit game's K^2
        def no_table(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(analysis, "_table_of", no_table)
        s = symmetric_scenario(3, receiver=SicTimeShare(), power=1.3, gain=0.7)
        with pytest.raises(InvalidArgument, match=rf"SNR {snr!r} dB is out of range: .* received "
                                                  rf"power P = 5\.733$"):
            approx_ratio(s, [0.0, snr])

    def test_extreme_snr_inside_float_range_runs(self):
        # P/N0 = 9 x 10^307 is still finite at 3070 dB
        curve = approx_ratio(symmetric_scenario(3, receiver=SicTimeShare()), [3070.0])
        assert [p.size for p in curve.points] == [1, 2, 3]
        assert all(0.0 < p.approx < math.inf and 0.0 < p.exact < math.inf for p in curve.points)

    @pytest.mark.parametrize("power, gain, mode", [(1.0, 1.0, "sum"), (1.3, 0.7, "sum"),
                                                  (0.8, -1.5, "caps")])
    def test_grand_power_is_the_closed_forms(self, power, gain, mode):
        # one receive antenna: the one-antenna closed form's power of the grand coalition
        s = symmetric_scenario(4, power=power, gain=gain)
        if mode == "caps":
            s = Scenario(tuple(UserSpec(u.id, 1, u.channel, PerAntenna((power,)))
                               for u in s.users), 1, 1.0, s.receiver)
        assert analysis._grand_power(s) == pytest.approx(
            equilibrium._power_of(s)[-1], rel=1e-15)
