"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -v -s``).  Timed
checks exclude first-call costs (imports, LAPACK and cache warm-up), which
the module fixture pays once up front.

All expected constants are frozen from independent derivations: the
single-receive-antenna games reduce to cumulative-power closed forms
that were evaluated by hand, LP optima are cross-checked against an
exact rational simplex and grid minimax oracles, and the per-antenna
solver is compared against a brute-force grid search.
"""

import math
import time

import numpy as np
import pytest

from maccoop.capacity import maximize_per_antenna, waterfill
from maccoop.cores import (
    BalancedCertificate,
    ExpectationModel,
    check_core,
    coalition_demand,
    demand_vector,
    grand_value,
    least_core,
    validate_certificate,
)
from maccoop.analysis import approx_ratio, classify_externalities, verify_superadditivity
from maccoop.equilibrium import (
    dsc_diagnostic,
    ne_sic,
    ne_sud,
    utility_table,
)
from maccoop.model import (
    Coalition,
    Partition,
    PerAntenna,
    Scenario,
    SicFixed,
    SicTimeShare,
    Sud,
    UserSpec,
    enumerate_partitions,
    induced_order,
)
from maccoop.capacity import single_antenna_utilities

from conftest import random_feasible_profile, random_scenario, symmetric
from test_capacity import grid_search_max_rate

LN = math.log

#: closed-form constants for the four-user fixed-order instance
MARGIN_K4 = (3 * LN(10.0) + LN(5.5)) / 3 - LN(17.0)          # ~0.0376211130
EPS_STAR_K4 = (3 * LN(10.0) + LN(5.5)) / 4 - 0.75 * LN(17.0)  # ~0.0282158348

#: three-user, 3 dB time-share demands (average of the two block orders)
SINGLETON_DEMAND_3DB = (LN(11.0 / 9.0) + LN(3.0)) / 2   # ~0.6496414921
PAIR_DEMAND_3DB = (LN(9.0) + LN(11.0 / 3.0)) / 2        # ~1.7482537807


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    """Pay first-call costs of every solver path before any timed assertion."""
    s = symmetric(2, 1.0, SicFixed((1, 2)))
    ne_sic(s, Partition.singletons(2))
    ne_sud(s.with_receiver(Sud()), Partition.singletons(2))
    utility_table(s)
    waterfill(np.eye(2), np.eye(2), 1.0)
    maximize_per_antenna(np.ones((2, 2)) * 0.5, np.eye(2), (1.0, 1.0), tol=1e-4)


def _report(name, started):
    print(f"ACCEPTANCE {name}: PASS ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_empty_fixed_order_core():
    """Four identical users, decode 1..4, rational expectations: empty core."""
    started = time.perf_counter()
    scenario = symmetric(4, 1.0, SicFixed((1, 2, 3, 4)))
    result = check_core(scenario, ExpectationModel.RATIONAL)
    assert result.verdict == "empty"
    demands = demand_vector(scenario, ExpectationModel.RATIONAL)
    v_k = grand_value(scenario)
    # weight 1/3 on every 3-user coalition is balanced and violating
    cert = BalancedCertificate(
        {0b0111: 1 / 3, 0b1011: 1 / 3, 0b1101: 1 / 3, 0b1110: 1 / 3}, MARGIN_K4
    )
    validate_certificate(cert, demands, v_k, 4)
    margin = sum(w * demands[m] for m, w in cert.weights.items()) - v_k
    assert margin == pytest.approx(MARGIN_K4, abs=1e-6)
    # the solver's own certificate is at least as violating
    assert result.certificate.margin >= MARGIN_K4 - 1e-9
    # smallest demand relaxation restoring feasibility (dual-checked value)
    relaxed = least_core(scenario, ExpectationModel.RATIONAL)
    assert relaxed.epsilon_star == pytest.approx(EPS_STAR_K4, abs=1e-8)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report("1 empty fixed-order core (margin %.6f)" % margin, started)


def test_criterion_2_timeshare_core_at_3db():
    """Three identical users at 3 dB with uniform time sharing: stable."""
    started = time.perf_counter()
    scenario = symmetric(3, 0.5, SicTimeShare())
    result = check_core(scenario, ExpectationModel.RATIONAL)
    assert result.verdict == "nonempty"
    demands = demand_vector(scenario, ExpectationModel.RATIONAL)
    for mask in (0b001, 0b010, 0b100):
        assert demands[mask] == pytest.approx(SINGLETON_DEMAND_3DB, abs=1e-6)
    for mask in (0b011, 0b101, 0b110):
        assert demands[mask] == pytest.approx(PAIR_DEMAND_3DB, abs=1e-6)
    split = LN(19.0) / 3
    assert grand_value(scenario) == pytest.approx(LN(19.0), abs=1e-9)
    assert split >= SINGLETON_DEMAND_3DB - 1e-9
    assert 2 * split >= PAIR_DEMAND_3DB - 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report("2 time-share core nonempty at 3 dB", started)


def test_criterion_3_mixed_externality_orderings():
    """The documented 2-antenna instances flip the sign of a merger's effect."""
    started = time.perf_counter()

    def build(channels):
        users = tuple(
            UserSpec(i + 1, 1, np.array(h).reshape(2, 1), PerAntenna((1.0,)))
            for i, h in enumerate(channels)
        )
        return Scenario(users, 2, 1.0, SicFixed((3, 2, 1)))

    singletons = Partition.singletons(3)
    pair_vs_one = Partition.from_blocks(3, [[1, 2], [3]])
    inst_a = build([[1.17119, -0.1941], [-2.1384, -0.8396], [1.3546, -1.0722]])
    _, before = ne_sic(inst_a, singletons, solver_tol=1e-6)
    _, after = ne_sic(inst_a, pair_vs_one, solver_tol=1e-6)
    assert before[0b100] < after[0b100]  # merger helps the outsider

    inst_b = build([[-1.5771, 0.5080], [0.2820, 0.0335], [-1.3337, 1.1275]])
    _, before = ne_sic(inst_b, singletons, solver_tol=1e-6)
    _, after = ne_sic(inst_b, pair_vs_one, solver_tol=1e-6)
    assert before[0b100] > after[0b100]  # merger hurts the outsider

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report("3 mixed externality orderings", started)


def test_criterion_4_low_snr_stability():
    """100 random pooled-power games at N0 = 1e4: every core nonempty."""
    started = time.perf_counter()
    for i in range(100):
        rng = np.random.default_rng(1_000 + i)
        base = random_scenario(rng, mode="sum", n0=1e4)
        for receiver in (SicFixed(tuple(range(1, base.k + 1))), Sud()):
            scenario = base.with_receiver(receiver)
            table = utility_table(scenario)
            for model in ExpectationModel:
                result = check_core(scenario, model, table=table)
                assert result.verdict == "nonempty", (
                    f"scenario {i}, {type(receiver).__name__}, {model.value}"
                )
    _report("4 low-SNR stability (800 core checks)", started)


def test_criterion_5_sud_high_snr_stability():
    """100 random single-receive-antenna games at N0 = 1e-4: stable.

    The receive side is kept at one antenna because the full-interference
    equilibrium utility is provably unique there; with several receive
    antennas the single fixed point this package computes can settle on
    mutual-avoidance strategies whose demands overstate what deviators
    can guarantee (see the least-coverage note in the equilibrium docs).
    """
    started = time.perf_counter()
    for i in range(100):
        rng = np.random.default_rng(5_000 + i)
        scenario = random_scenario(rng, m=1, mode="sum", receiver=Sud(), n0=1e-4)
        table = utility_table(scenario)
        result = check_core(scenario, ExpectationModel.RATIONAL, table=table)
        assert result.verdict == "nonempty", f"scenario {i}"
    _report("5 full-interference high-SNR stability", started)


def test_criterion_6a_fixed_order_utilities_unique():
    started = time.perf_counter()
    channels = [[1.17119, -0.1941], [-2.1384, -0.8396], [1.3546, -1.0722]]
    users = tuple(
        UserSpec(i + 1, 1, np.array(h).reshape(2, 1), PerAntenna((1.0,)))
        for i, h in enumerate(channels)
    )
    scenario = Scenario(users, 2, 1.0, SicFixed((3, 2, 1)))
    partition = Partition.from_blocks(3, [[1, 2], [3]])
    rng = np.random.default_rng(61)
    baseline = None
    for _ in range(20):
        init = random_feasible_profile(rng, scenario, partition)
        _, utils = ne_sic(scenario, partition, init=init, solver_tol=1e-8)
        if baseline is None:
            baseline = utils
        for mask, v in utils.items():
            assert v == pytest.approx(baseline[mask], abs=1e-6)
    _report("6a fixed-order utilities unique across 20 starts", started)


def test_criterion_6b_sud_aggregate_covariance_unique():
    started = time.perf_counter()
    rng = np.random.default_rng(62)
    for _ in range(10):
        scenario = random_scenario(rng, m=2, mode="sum", receiver=Sud())
        parts = list(enumerate_partitions(scenario.k))
        partition = parts[int(rng.integers(0, len(parts)))]
        aggregates = []
        for _ in range(2):
            init = random_feasible_profile(rng, scenario, partition)
            profile, _ = ne_sud(scenario, partition, init=init)
            agg = np.zeros((2, 2))
            for block, q in zip(partition.blocks, profile.matrices):
                h = np.hstack([scenario.user(u).channel for u in block])
                agg += h @ q @ h.T
            aggregates.append(agg)
        np.testing.assert_allclose(aggregates[0], aggregates[1], atol=1e-5)
    _report("6b full-interference aggregate covariance unique", started)


def test_criterion_6c_dsc_nonnegative_over_1000_pairs():
    started = time.perf_counter()
    rng = np.random.default_rng(63)
    pairs = 0
    while pairs < 1000:
        kind = rng.integers(0, 2)
        scenario = random_scenario(
            rng, mode="sum", receiver=None if kind == 0 else Sud()
        )
        parts = list(enumerate_partitions(scenario.k))
        partition = parts[int(rng.integers(0, len(parts)))]
        a = random_feasible_profile(rng, scenario, partition)
        b = random_feasible_profile(rng, scenario, partition)
        report = dsc_diagnostic(scenario, partition, a, b)
        assert report.total >= -1e-9
        pairs += 1
    _report("6c concavity product nonnegative on 1000 pairs", started)


def test_criterion_7_solver_oracles():
    started = time.perf_counter()
    # hand-solved two-mode waterfilling instance
    _, rate = waterfill(np.diag([2.0, 1.0]), np.eye(2), 1.0)
    assert rate == pytest.approx(LN(4.5) + LN(1.125), abs=1e-6)
    # per-antenna ascent vs brute-force grid search on 20 random instances
    rng = np.random.default_rng(7)
    for _ in range(20):
        h = rng.normal(size=(2, 2))
        caps = rng.uniform(0.3, 1.0, size=2)
        _, got = maximize_per_antenna(h, np.eye(2), caps, tol=1e-8)
        oracle = grid_search_max_rate(h, np.eye(2), caps)
        assert got == pytest.approx(oracle, abs=1e-4)
    # single-receive-antenna equilibria match closed forms, all partitions
    for k in range(2, 6):
        scen_rng = np.random.default_rng(70 + k)
        scenario = random_scenario(scen_rng, k=k, m=1, mode="sum")
        for partition in enumerate_partitions(k):
            _, utils = ne_sic(scenario, partition)
            order = induced_order(partition, scenario.receiver.base_order)
            expected = single_antenna_utilities(scenario, partition, order)
            for mask, v in expected.items():
                assert utils[mask] == pytest.approx(v, abs=1e-9)
    _report("7 solver oracle equivalence", started)


def test_criterion_8_property_suites():
    started = time.perf_counter()
    # 500 sampled merges per receiver family, tolerance 1e-8
    sic = symmetric(4, 1.0, SicFixed((1, 2, 3, 4)))
    report = verify_superadditivity(sic, 500, seed=81)
    assert report.passed and report.skipped == 0
    rng = np.random.default_rng(82)
    sud = random_scenario(rng, k=4, m=2, mode="sum", receiver=Sud())
    report = verify_superadditivity(sud, 500, seed=83)
    assert report.passed
    # single-receive-antenna externalities never help outsiders
    verdict = classify_externalities(sic, 200, seed=84)
    assert verdict.classification == "negative"
    for w in verdict.witnesses:
        assert w.value_after - w.value_before <= 1e-9
    # worst case over outside arrangements is the merge when M = 1
    for seed in (85, 86):
        scen = random_scenario(np.random.default_rng(seed), k=4, m=1, mode="sum")
        table = utility_table(scen)
        for mask in range(1, 15):
            cautious = coalition_demand(scen, Coalition(mask),
                                        ExpectationModel.CAUTIOUS, table=table)
            merging = coalition_demand(scen, Coalition(mask),
                                       ExpectationModel.MERGING, table=table)
            assert cautious == pytest.approx(merging, abs=1e-9)
    _report("8 property suites", started)


def test_criterion_9a_snr_boundary_endpoints():
    started = time.perf_counter()
    for snr_db, expected in ((0.0, "empty"), (-30.0, "nonempty")):
        scenario = symmetric(4, 10.0 ** (-snr_db / 10.0), SicFixed((1, 2, 3, 4)))
        result = check_core(scenario, ExpectationModel.RATIONAL)
        assert result.verdict == expected, f"at {snr_db} dB"
    _report("9a boundary endpoints (empty at 0 dB, nonempty at -30 dB)", started)


def test_criterion_9b_approx_ratio_grand_coalition():
    started = time.perf_counter()
    scenario = symmetric(3, 1.0, SicTimeShare())
    curve = approx_ratio(scenario, [60.0])
    grand = [p for p in curve.points if p.size == 3][0]
    assert abs(1.0 - grand.ratio) <= 0.02
    _report("9b grand-coalition ratio at 60 dB", started)


def test_criterion_9c_approx_ratio_within_2pct_all_sizes():
    """Dominant-term ratio within 2% of 1 at 60 dB for every coalition size.

    This is expected to fail for sizes 1 and 2 and is kept as an honest
    red check: the discarded decode-with-interference terms are
    SNR-independent constants (ln(5/4) for the singleton, ln 5 for the
    pair), so at 60 dB they still contribute well over 2% of the exact
    time-shared utility no matter how the approximation is weighted.
    """
    scenario = symmetric(3, 1.0, SicTimeShare())
    curve = approx_ratio(scenario, [60.0])
    ratios = {p.size: p.ratio for p in curve.points}
    off = {size: abs(1.0 - r) for size, r in ratios.items()}
    print(f"ACCEPTANCE 9c: ratios at 60 dB: "
          + ", ".join(f"size {s}: {r:.4f}" for s, r in sorted(ratios.items())))
    assert all(gap <= 0.02 for gap in off.values()), (
        f"|1 - ratio| at 60 dB: {off}; the bounded interference terms keep "
        f"sizes 1-2 outside 2% at any weighting (see notes in the repo docs)"
    )
