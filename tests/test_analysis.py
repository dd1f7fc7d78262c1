import numpy as np
import pytest

from maccoop import analysis
from maccoop.analysis import (
    SweepSpec,
    approx_ratio,
    classify_externalities,
    snr_boundary,
    snr_db_to_noise,
    symmetric_scenario,
    verify_superadditivity,
)
from maccoop.cores import CORE_MAX_USERS, ExpectationModel
from maccoop.equilibrium import ne_sic
from maccoop.errors import InvalidArgument
from maccoop.model import (
    Partition,
    PerAntenna,
    Scenario,
    SicFixed,
    SicTimeShare,
    Sud,
    UserSpec,
)

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

        monkeypatch.setattr(analysis, "ne_utilities", no_solve)
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

    def test_trials_guard(self):
        with pytest.raises(InvalidArgument):
            verify_superadditivity(symmetric_scenario(3), 0, seed=0)


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
        from maccoop.analysis import _symmetric_verdict

        assert _symmetric_verdict(4, lo, ExpectationModel.RATIONAL, 1e-9) == "nonempty"
        assert _symmetric_verdict(4, hi, ExpectationModel.RATIONAL, 1e-9) == "empty"

    def test_no_transition_reported(self):
        spec = SweepSpec((4,), (-40.0, -35.0, -30.0))
        (point,) = snr_boundary(spec, ExpectationModel.RATIONAL)
        assert point.status == "outside_grid"
        assert point.threshold_db is None

    def test_grid_must_increase(self):
        with pytest.raises(InvalidArgument):
            SweepSpec((4,), (0.0, 0.0, 1.0))

    def test_k_above_core_cap_rejected_before_any_table(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a utility table was built")

        monkeypatch.setattr(analysis, "utility_table", forbidden)
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
