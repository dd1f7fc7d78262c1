import functools
import importlib.util
import itertools
import math
import operator
import os
import pickle
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import maccoop
from maccoop import analysis, cli, io

from maccoop._exact_lp import exact_lp_max
from maccoop.cores import (
    CORE_MAX_USERS,
    BalancedCertificate,
    _fixed_arrangements,
    _model_rows,
    _model_table,
    _PIVOT_TOL,
    _dual_simplex,
    _incidence,
    _singleton_rows,
    _CoreLp,
    _TableLp,
    _demands_and_grand,
    ExpectationModel,
    balancedness_certificate,
    check_core,
    check_core_from_demands,
    coalition_demand,
    core_region_3user,
    demand_vector,
    grand_value,
    least_core,
    least_core_from_demands,
    region_from_demands,
    validate_certificate,
)
from maccoop.equilibrium import UtilityTable, ne_sic, ne_sud, ne_utilities, utility_table
from maccoop.errors import InvalidArgument, NumericalFailure
from maccoop.model import (Coalition, Partition, Scenario, SicFixed, SicTimeShare, Sud, UserSpec,
                           enumerate_partitions, rgs_matrix)

from conftest import random_scenario, rank_one_sud_160db, symmetric

LN = math.log
ALL_MODELS = list(ExpectationModel)


def k4_fixed_sic():
    """Four identical users, unit gain and power, N0 = 1, decode 1..4."""
    return symmetric(4, 1.0, SicFixed((1, 2, 3, 4)))


def k3_timeshare_3db():
    return symmetric(3, 0.5, SicTimeShare())


def hand_k3_table(*, apart, own_apart=0.25, own_merged=0.5, reverse=False):
    """A K=3 table whose only designed entries are user 1's two outside arrangements:
    {2, 3} merged (worth 1.5) and {2}, {3} apart (worth ``apart``)."""
    rows = [
        ((0, 0, 0), {0b111: 3.0}),
        ((0, 0, 1), {0b011: 2.0, 0b100: 0.5}),
        ((0, 1, 0), {0b101: 2.0, 0b010: 0.5}),
        ((0, 1, 1), {0b001: own_merged, 0b110: 1.5}),
        ((0, 1, 2), {0b001: own_apart, 0b010: apart[0], 0b100: apart[1]}),
    ]
    return UtilityTable(3, "hand-built", dict(rows[::-1] if reverse else rows))


def fixed_arrangement_loop(k, mask, model):
    """RGS of S = ``mask`` facing one merged outside block, or outsiders alone, one
    user at a time: the oracle of ``_fixed_arrangements``."""
    inside = [mask >> u & 1 for u in range(k)]
    if model is ExpectationModel.MERGING:
        return tuple(int(side != inside[0]) for side in inside)
    labels, s_label, fresh = [], None, 0
    for member in inside:
        if member and s_label is not None:
            labels.append(s_label)
        else:
            if member:
                s_label = fresh
            labels.append(fresh)
            fresh += 1
    return tuple(labels)


def dict_demands(table, model):
    """The dict-of-dicts demand reduction, one Python pass per row: the oracle.

    Merging and singleton read their partition's row by restricted growth
    string.  Rational and cautious scan every row; a row total adds its
    values left to right in row order (what ``sum`` does up to Python 3.11).
    """
    grand = (1 << table.k) - 1
    if model in (ExpectationModel.MERGING, ExpectationModel.SINGLETON):
        return {mask: table.entries[fixed_arrangement_loop(table.k, mask, model)][mask]
                for mask in range(1, grand)}
    rows = [(functools.reduce(operator.add, values.values(), 0.0), values)
            for values in table.entries.values()]
    floor = dict.fromkeys(range(1, grand), -math.inf)
    if model is ExpectationModel.RATIONAL:
        best = floor.copy()
        for total, values in rows:
            for mask, own in values.items():
                if mask != grand and total - own > best[mask]:
                    best[mask] = total - own
        floor = {mask: b - 1e-12 * max(1.0, abs(b)) for mask, b in best.items()}
    demand = dict.fromkeys(range(1, grand), math.inf)
    for total, values in rows:
        for mask, own in values.items():
            if mask != grand and own < demand[mask] and total - own >= floor[mask]:
                demand[mask] = own
    return demand


def hexes(demands):
    return [(mask, d.hex()) for mask, d in demands.items()]


@pytest.fixture(scope="module")
def bench_workloads():
    """The benchmark's workload module: its seeded games are inputs for the oracle test."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def k10_game():
    """The symmetric K=10 fixed-order SIC game at 0 dB, its table built once."""
    s = symmetric(10, 1.0, SicFixed(tuple(range(1, 11))))
    table = utility_table(s)
    return s, table, grand_value(s, table=table)


class TestDemands:
    def test_k4_closed_form_demands(self):
        # hand-evaluated from the cumulative-power closed forms with the
        # latest-member decoding rule and merged outsiders
        s = k4_fixed_sic()
        table = utility_table(s)
        d = demand_vector(s, ExpectationModel.RATIONAL, table=table)
        assert d[0b1110] == pytest.approx(LN(10.0), abs=1e-12)
        assert d[0b0111] == pytest.approx(LN(5.5), abs=1e-12)
        assert d[0b0001] == pytest.approx(LN(1.1), abs=1e-12)
        assert d[0b1000] == pytest.approx(LN(2.0), abs=1e-12)
        assert d[0b0011] == pytest.approx(LN(1.8), abs=1e-12)
        assert d[0b1100] == pytest.approx(LN(5.0), abs=1e-12)

    def test_merging_matches_two_block_game(self):
        s = k4_fixed_sic()
        got = coalition_demand(s, Coalition.from_members([2, 3, 4]), ExpectationModel.MERGING)
        # outsider {1} decoded first under the latest-member rule
        assert got == pytest.approx(LN(10.0), abs=1e-12)

    @staticmethod
    def fixed_arrangement(k, mask, model):
        """The merging or singleton partition around S = ``mask``, block by block."""
        s = Coalition(mask)
        outside = [u for u in range(1, k + 1) if u not in s]
        if model is ExpectationModel.MERGING:
            return Partition(k, (s, Coalition.from_members(outside)))
        return Partition(k, (s,) + tuple(Coalition.from_members([u]) for u in outside))

    @pytest.mark.parametrize("k", range(2, 9))
    def test_fixed_arrangements_read_their_table_row(self, k):
        # every (partition, block) holds a distinct value, so a wrong row shows
        s = symmetric(k, 1.0, SicFixed(tuple(range(1, k + 1))))
        table = UtilityTable(k, "distinct", {
            p.rgs: {b.mask: float(row * k + j) for j, b in enumerate(p.blocks)}
            for row, p in enumerate(enumerate_partitions(k))
        })
        for model in (ExpectationModel.MERGING, ExpectationModel.SINGLETON):
            for mask in range(1, (1 << k) - 1):
                expected = table.value(self.fixed_arrangement(k, mask, model), Coalition(mask))
                assert coalition_demand(s, Coalition(mask), model, table=table) == expected

    def test_fixed_arrangements_without_table_solve_that_partition(self):
        s = random_scenario(np.random.default_rng(13), k=4, m=2, receiver=Sud())
        for model in (ExpectationModel.MERGING, ExpectationModel.SINGLETON):
            for mask in range(1, 15):
                part = self.fixed_arrangement(4, mask, model)
                assert coalition_demand(s, Coalition(mask), model) == ne_utilities(s, part)[mask]

    @pytest.mark.parametrize("k", range(2, 7))
    @pytest.mark.parametrize("m, mode, receiver", [
        (1, "sum", "sic"), (1, "sum", "sud"), (1, "per_antenna", "sic"),
        (1, "per_antenna", "sud"), (2, "sum", "sic"), (2, "sum", "sud"), (2, "sum", "ts"),
    ])
    def test_fixed_models_without_table_equal_the_full_table(self, k, m, mode, receiver):
        # the rows a fixed model reads hold the full table's values, bit for bit
        gen = np.random.default_rng([k, m, len(mode), len(receiver)])
        rx = {"sic": SicFixed(tuple(int(u) + 1 for u in gen.permutation(k))),
              "sud": Sud(), "ts": SicTimeShare()}[receiver]
        s = random_scenario(gen, k=k, m=m, mode=mode, receiver=rx,
                            n0=float(10.0 ** gen.uniform(-1.0, 1.0)))
        table = utility_table(s)
        assert grand_value(s).hex() == grand_value(s, table=table).hex()
        for model in (ExpectationModel.MERGING, ExpectationModel.SINGLETON):
            want = demand_vector(s, model, table=table)
            assert hexes(demand_vector(s, model)) == hexes(want)
            for mask, demand in want.items():
                got = coalition_demand(s, Coalition(mask), model)
                assert got.hex() == coalition_demand(s, Coalition(mask), model,
                                                     table=table).hex() == demand.hex()

    @pytest.mark.parametrize("receiver", [SicFixed((1,)), Sud(), SicTimeShare()])
    @pytest.mark.parametrize("m", [1, 2])
    def test_one_user_has_no_fixed_demands(self, receiver, m, rng):
        s = random_scenario(rng, k=1, m=m, receiver=receiver)
        for model in (ExpectationModel.MERGING, ExpectationModel.SINGLETON):
            assert demand_vector(s, model) == {}

    @pytest.mark.parametrize("k", range(2, 16))
    def test_fixed_arrangements_equal_the_user_loop(self, k):
        masks = range(1, (1 << k) - 1)
        for model in (ExpectationModel.MERGING, ExpectationModel.SINGLETON):
            got = _fixed_arrangements(k, masks, model)
            assert got.dtype == np.int8
            assert [tuple(row) for row in got.tolist()] == [
                fixed_arrangement_loop(k, mask, model) for mask in masks]

    @pytest.mark.parametrize("k", range(1, 8))
    def test_model_table_keeps_each_arrangement_where_its_first_mask_put_it(self, k):
        s = symmetric(k, 1.0, SicFixed(tuple(range(1, k + 1))))
        for model in (ExpectationModel.MERGING, ExpectationModel.SINGLETON):
            want = list(dict.fromkeys(fixed_arrangement_loop(k, mask, model)
                                      for mask in range(1, (1 << k) - 1)))
            for grand in (False, True):
                rows = _model_table(s, model, grand=grand).rgs
                assert rows.dtype == np.int8
                assert [tuple(r) for r in rows.tolist()] == want + [(0,) * k] * grand

    def test_two_users_all_models_coincide(self):
        s = symmetric(2, 1.0, SicFixed((1, 2)))
        demands = [coalition_demand(s, Coalition(1), m) for m in ALL_MODELS]
        assert max(demands) - min(demands) < 1e-12

    def test_cautious_below_rational_below_best_case(self, rng):
        for _ in range(3):
            s = random_scenario(rng, k=3, m=1)
            table = utility_table(s)
            for mask in range(1, 7):
                cautious = coalition_demand(s, Coalition(mask),
                                            ExpectationModel.CAUTIOUS, table=table)
                rational = coalition_demand(s, Coalition(mask),
                                            ExpectationModel.RATIONAL, table=table)
                best_case = max(
                    values[mask]
                    for values in table.entries.values()
                    if mask in values
                )
                assert cautious <= rational + 1e-12 <= best_case + 2e-12

    @pytest.mark.parametrize("reverse", [False, True])
    def test_rational_tie_breaks_to_smaller_own_value(self, reverse):
        # user 1's outsiders merged or apart both total 1.5; own values 0.5 and 0.25
        table = hand_k3_table(apart=(0.75, 0.75), reverse=reverse)
        s = symmetric(3, 1.0, SicFixed((1, 2, 3)))
        assert coalition_demand(s, Coalition(1), ExpectationModel.RATIONAL,
                                table=table) == 0.25

    @pytest.mark.parametrize("reverse", [False, True])
    def test_rational_follows_larger_outsider_total(self, reverse):
        # apart, the outsiders total 1.5 + 1e-9 (beyond the 1e-12 tie band)
        # and leave user 1 the larger own value
        table = hand_k3_table(apart=(0.75, 0.75 + 1e-9), own_apart=0.5, own_merged=0.25,
                              reverse=reverse)
        s = symmetric(3, 1.0, SicFixed((1, 2, 3)))
        assert coalition_demand(s, Coalition(1), ExpectationModel.RATIONAL,
                                table=table) == 0.5
        assert coalition_demand(s, Coalition(1), ExpectationModel.CAUTIOUS,
                                table=table) == 0.25

    def test_rejects_grand_coalition(self):
        s = k4_fixed_sic()
        with pytest.raises(InvalidArgument):
            coalition_demand(s, Coalition(0b1111), ExpectationModel.MERGING)


class TestTableDemands:
    """The group-by over the flat table against the dict-loop oracle, bit for bit."""

    @pytest.mark.parametrize("workload", ["core_large_k", "mimo_equilibria"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_games_bitwise_equal_oracle(self, bench_workloads, workload, seed):
        for s in bench_workloads.WORKLOADS[workload](seed).inputs:
            table = utility_table(s)
            for model in ALL_MODELS:
                got = demand_vector(s, model, table=table)
                assert list(got) == list(range(1, (1 << s.k) - 1))
                assert hexes(got) == hexes(dict_demands(table, model))

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("own", [(0.25, 0.5), (0.0, -0.0), (-0.0, 0.0)])
    @pytest.mark.parametrize("apart", [(0.75, 0.75), (0.75, 0.75 + 1e-9), (0.5, 0.25)])
    def test_hand_tables_bitwise_equal_oracle(self, apart, own, reverse):
        # equal own values of opposite sign: the first in table order is kept
        table = hand_k3_table(apart=apart, own_apart=own[0], own_merged=own[1], reverse=reverse)
        s = symmetric(3, 1.0, SicFixed((1, 2, 3)))
        for model in ALL_MODELS:
            assert hexes(demand_vector(s, model, table=table)) == \
                hexes(dict_demands(table, model))

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("apart_best", [False, True])
    @pytest.mark.parametrize("gap, tied", [(0.9e-12, True), (1.1e-12, False)])
    def test_outsider_near_ties_at_the_band_edge(self, gap, tied, apart_best, reverse):
        # user 1's outsiders total 1.5 merged; apart they total 1.5 -+ gap * 1.5.
        # The better arrangement leaves user 1 own value 0.5, the other 0.25:
        # inside the 1e-12 band both count and the smaller own value wins.
        delta = gap * 1.5 if apart_best else -gap * 1.5
        table = hand_k3_table(apart=(0.75, 0.75 + delta), reverse=reverse,
                              own_apart=0.5 if apart_best else 0.25,
                              own_merged=0.25 if apart_best else 0.5)
        s = symmetric(3, 1.0, SicFixed((1, 2, 3)))
        got = demand_vector(s, ExpectationModel.RATIONAL, table=table)
        assert got[0b001] == (0.25 if tied else 0.5)
        assert hexes(got) == hexes(dict_demands(table, ExpectationModel.RATIONAL))

    def test_grand_value_and_fixed_arrangements_need_no_rgs_lookup(self, monkeypatch):
        s = symmetric(6, 1.0, SicFixed(tuple(range(1, 7))))
        table = utility_table(s)
        want = {model: dict_demands(table, model)
                for model in (ExpectationModel.MERGING, ExpectationModel.SINGLETON)}
        grand = table.entries[(0,) * 6][0b111111]

        def no_lookup(*args, **kwargs):
            raise AssertionError("table row looked up by restricted growth string")

        monkeypatch.setattr(UtilityTable, "partition_values", no_lookup)
        monkeypatch.setattr(UtilityTable, "entries", property(no_lookup))
        assert grand_value(s, table=table).hex() == grand.hex()
        for model, demands in want.items():
            assert hexes(demand_vector(s, model, table=table)) == hexes(demands)


class TestTableOfTheGame:
    """A table given to a core computation must be the scenario's and hold the rows it reads."""

    @staticmethod
    def calls(s, table, model=ExpectationModel.RATIONAL):
        out = [functools.partial(check_core, s, model, table=table),
               functools.partial(least_core, s, model, table=table),
               functools.partial(demand_vector, s, model, table=table),
               functools.partial(coalition_demand, s, Coalition(0b011), model, table=table),
               functools.partial(grand_value, s, table=table)]
        if s.k == 3:
            out.append(functools.partial(core_region_3user, s, model, table=table))
        return out

    def test_table_of_another_k_is_rejected(self):
        # a K=3 game read its first 3 users' coalitions from a K=4 table: slack
        # 0.4729 instead of 0.0959, v(N) 1.7047 instead of 2.3026
        s4 = k4_fixed_sic()
        s3 = Scenario(s4.users[:3], 1, 1.0, SicFixed((1, 2, 3)))
        assert check_core(s3, ExpectationModel.RATIONAL).slack == pytest.approx(0.0959, abs=1e-4)
        for s, other in ((s3, s4), (s4, s3)):
            for model in ALL_MODELS:
                for call in self.calls(s, utility_table(other), model):
                    with pytest.raises(InvalidArgument, match="another game"):
                        call()

    def test_table_at_another_noise_or_receiver_is_rejected(self):
        s = k4_fixed_sic().with_noise(0.01)
        own = check_core(s, ExpectationModel.MERGING, table=utility_table(s))
        assert own.slack == pytest.approx(-0.1422, abs=1e-4)
        others = [s.with_noise(1.0), s.with_receiver(SicFixed((4, 3, 2, 1))),
                  s.with_receiver(Sud()), s.with_receiver(SicTimeShare())]
        for other in others:
            for model in ALL_MODELS:
                for call in self.calls(s, utility_table(other), model):
                    with pytest.raises(InvalidArgument, match="another game"):
                        call()

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_tables_of_an_equal_game_are_read(self, model):
        # other users objects of the same content compare fingerprints; a table
        # made from a fingerprint string is taken at its word
        s = k4_fixed_sic().with_noise(0.5)
        twin = io.parse_scenario(io.serialize_scenario(s))
        assert twin.users is not s.users
        table = utility_table(twin)
        want = check_core(s, model)
        for given in (table, UtilityTable(4, "label", table.entries)):
            got = check_core(s, model, table=given)
            assert (got.verdict, got.slack) == (want.verdict, want.slack)
            assert grand_value(s, table=given) == grand_value(s)
        moved = Scenario(tuple(UserSpec(u.id, 1, 2.0 * u.channel, u.power) for u in s.users),
                         1, 0.5, s.receiver)
        with pytest.raises(InvalidArgument, match="another game"):
            check_core(moved, model, table=table)

    def test_missing_rows_are_rejected(self):
        s = k4_fixed_sic()
        entries = utility_table(s).entries
        no_grand = UtilityTable(4, "no grand", {key: row for key, row in entries.items()
                                                if len(row) > 1})
        for call in (functools.partial(check_core, s, ExpectationModel.RATIONAL),
                     functools.partial(least_core, s, ExpectationModel.RATIONAL),
                     functools.partial(grand_value, s)):
            with pytest.raises(InvalidArgument, match="no grand-coalition row"):
                call(table=no_grand)
        # without the rows where {4} is alone, the first coalition left without a row
        # is {1,2,3}, whose one arrangement is {1,2,3}{4}, and {1} under singleton
        no_4 = UtilityTable(4, "no {4}", {key: row for key, row in entries.items()
                                          if 0b1000 not in row})
        first = {"rational": 7, "cautious": 7, "merging": 7, "singleton": 1}
        for model in ALL_MODELS:
            message = f"no row the {model.value} model reads for coalition mask {first[model]}$"
            for call in (demand_vector, check_core, least_core):
                with pytest.raises(InvalidArgument, match=message):
                    call(s, model, table=no_4)
        # the one arrangement merging reads for {1,2} is {1,2}{3,4}
        no_merged = UtilityTable(4, "no {1,2}{3,4}", {key: row for key, row in entries.items()
                                                      if key != (0, 0, 1, 1)})
        with pytest.raises(InvalidArgument, match="merging model reads for coalition mask 3"):
            coalition_demand(s, Coalition(0b0011), ExpectationModel.MERGING, table=no_merged)
        # cautious still finds {1,2} in other rows
        assert coalition_demand(s, Coalition(0b0011), ExpectationModel.CAUTIOUS,
                                table=no_merged) == min(row[0b0011] for row in
                                                        no_merged.entries.values()
                                                        if 0b0011 in row)


class TestCheckCore:
    def test_k4_rational_core_is_empty(self):
        s = k4_fixed_sic()
        result = check_core(s, ExpectationModel.RATIONAL)
        assert result.verdict == "empty"
        assert result.allocation is None
        cert = result.certificate
        validate_certificate(
            cert, demand_vector(s, ExpectationModel.RATIONAL), grand_value(s), 4
        )
        # the triples collection violates by (3 ln10 + ln5.5)/3 - ln17
        expected_margin = (3 * LN(10.0) + LN(5.5)) / 3 - LN(17.0)
        assert cert.margin >= expected_margin - 1e-9

    def test_k3_timeshare_nonempty_with_equal_split(self):
        s = k3_timeshare_3db()
        result = check_core(s, ExpectationModel.RATIONAL)
        assert result.verdict == "nonempty"
        assert result.certificate is None
        np.testing.assert_allclose(result.allocation.sum(), LN(19.0), atol=1e-9)
        d = demand_vector(s, ExpectationModel.RATIONAL)
        for mask, dem in d.items():
            got = sum(result.allocation[i] for i in range(3) if mask >> i & 1)
            assert got >= dem - 1e-9

    def test_two_user_superadditive_nonempty(self):
        s = symmetric(2, 1.0, SicFixed((1, 2)))
        result = check_core(s, ExpectationModel.RATIONAL)
        assert result.verdict == "nonempty"
        # the textbook witness (v({1}), v(K) - v({1})) is feasible too
        d = demand_vector(s, ExpectationModel.RATIONAL)
        v_k = grand_value(s)
        x = (d[1], v_k - d[1])
        assert x[1] >= d[2] - 1e-12

    def test_exactly_one_of_witness_certificate(self, rng):
        for _ in range(4):
            s = random_scenario(rng, k=3, m=1)
            res = check_core(s, ExpectationModel.MERGING)
            assert (res.allocation is None) != (res.certificate is None)

    def test_verdict_invariant_to_constraint_order(self, rng):
        s = k4_fixed_sic()
        demands = demand_vector(s, ExpectationModel.RATIONAL)
        v_k = grand_value(s)
        items = list(demands.items())
        rng.shuffle(items)
        shuffled = dict(items)
        a = check_core_from_demands(demands, v_k, 4)
        b = check_core_from_demands(shuffled, v_k, 4)
        assert a.verdict == b.verdict
        assert a.slack == pytest.approx(b.slack, abs=1e-12)

    def test_degenerate_single_point_core(self):
        # additive demands pin the unique allocation; its slack t = 0 is
        # inside the LP tolerance, so the point core is nonempty
        demands = {0b01: 1.0, 0b10: 1.0}
        res = check_core_from_demands(demands, 2.0, 2)
        assert res.verdict == "nonempty"
        np.testing.assert_allclose(res.allocation, [1.0, 1.0], atol=1e-9)

    def test_barely_infeasible_flips_to_empty(self):
        eps = 1e-6
        demands = {0b01: 1.0 + eps, 0b10: 1.0}
        res = check_core_from_demands(demands, 2.0, 2)
        assert res.verdict == "empty"
        assert res.certificate.margin == pytest.approx(eps, rel=1e-3)

    def test_k_cap(self):
        s = symmetric(11, 1.0, SicFixed(tuple(range(1, 12))))
        with pytest.raises(InvalidArgument):
            check_core(s, ExpectationModel.MERGING)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_one_user_is_rejected(self, model):
        s = symmetric(1, 1.0, SicFixed((1,)))
        for call in (check_core, least_core):
            with pytest.raises(InvalidArgument, match="at least 2 users"):
                call(s, model)
        for call in (check_core_from_demands, least_core_from_demands):
            with pytest.raises(InvalidArgument, match="at least 2 users"):
                call({}, 1.0, 1)

    @pytest.mark.parametrize("k", range(2, 11))
    def test_additive_demands_terminate_at_the_equal_split(self, k, monkeypatch):
        # every row is tight at x = 1: the most degenerate vertex there is.
        # The float LP alone decides it (K=2 is test_degenerate_single_point_core's game).
        def no_exact_lp(*args, **kwargs):
            raise AssertionError("exact LP called")

        for name, module in list(sys.modules.items()):
            if name.startswith("maccoop") and hasattr(module, "exact_lp_max"):
                monkeypatch.setattr(module, "exact_lp_max", no_exact_lp)
        demands = {m: float(bin(m).count("1")) for m in range(1, (1 << k) - 1)}
        res = check_core_from_demands(demands, float(k), k)
        assert res.verdict == "nonempty"
        assert res.slack == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(res.allocation, np.ones(k), atol=1e-12)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_non_finite_grand_value_is_a_numerical_failure(self, model):
        # hand-made tables whose grand entry is inf or NaN; every other entry is finite
        s = symmetric(3, 1.0, Sud())
        for bad in (math.inf, math.nan):
            table = UtilityTable(3, "fp", {
                (0, 0, 0): {0b111: bad},
                (0, 0, 1): {0b011: 1.0, 0b100: 0.5},
                (0, 1, 0): {0b101: 1.0, 0b010: 0.5},
                (0, 1, 1): {0b001: 0.5, 0b110: 1.0},
                (0, 1, 2): {0b001: 0.4, 0b010: 0.4, 0b100: 0.4},
            })
            v_k = grand_value(s, table=table)
            assert v_k == math.inf if bad == math.inf else math.isnan(v_k)
            for call in (check_core, least_core, core_region_3user):
                with pytest.raises(NumericalFailure, match="not finite"):
                    call(s, model, table=table)

    @pytest.mark.parametrize("model", [ExpectationModel.RATIONAL, ExpectationModel.CAUTIOUS])
    def test_table_models_read_grand_value_from_their_table(self, model, monkeypatch):
        # at 160 dB the grand partition's SUD sweep cannot factor n0 + 9 - 9,
        # but the closed-form table the demands come from holds v(N) as well
        s = symmetric(3, 1e-16, Sud())
        want = check_core(s, model, table=utility_table(s))

        def no_solve(*args, **kwargs):
            raise AssertionError("per-partition solve")

        monkeypatch.setattr(maccoop.equilibrium, "ne_utilities", no_solve)
        got = check_core(s, model)
        assert got.verdict == want.verdict == "nonempty"
        assert got.slack == want.slack == pytest.approx(12.7897, abs=1e-4)
        assert got.allocation.tobytes() == want.allocation.tobytes()
        assert least_core(s, model).epsilon_star == -got.slack
        assert len(core_region_3user(s, model)) == 6

    @pytest.mark.parametrize("model", [ExpectationModel.MERGING, ExpectationModel.SINGLETON])
    def test_fixed_models_at_160_db_read_the_closed_form(self, model):
        # the per-partition SUD sweep of the grand partition cannot factor
        # n0 + 9 - 9; the fixed arrangements' closed-form rows hold v(N)
        s = symmetric(3, 1e-16, Sud())
        want = check_core(s, model, table=utility_table(s))
        got = check_core(s, model)
        assert got.verdict == want.verdict == "nonempty"
        assert got.slack == want.slack
        assert got.allocation.tobytes() == want.allocation.tobytes()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_demand_is_a_numerical_failure(self, bad):
        demands = {0b001: 0.5, 0b010: 0.5, 0b011: 1.0, 0b100: bad, 0b101: 1.0, 0b110: 1.0}
        for call in (check_core_from_demands, least_core_from_demands,
                     lambda demands, v_k, k: region_from_demands(demands, v_k)):
            with pytest.raises(NumericalFailure, match="mask 4 is not finite"):
                call(demands, 2.0, 3)

    @pytest.mark.parametrize("kind", [int, np.int64, Fraction])
    def test_integer_demands_give_the_float_verdict(self, kind):
        # an int64 vector used to fail the LP's float64 gather with a bare TypeError
        cases = [({1: 0, 2: 0}, 1, 2), ({m: 1 for m in range(1, 7)}, 2, 3),
                 ({m: bin(m).count("1") for m in range(1, 15)}, 4, 4),
                 ({1: 1, 2: 1}, 1, 2)]
        for demands, v_k, k in cases:
            exact = {m: kind(d) for m, d in demands.items()}
            floats = {m: float(d) for m, d in demands.items()}
            assert same_core_result(check_core_from_demands(exact, kind(v_k), k),
                                    check_core_from_demands(floats, float(v_k), k))
            got = least_core_from_demands(exact, kind(v_k), k)
            want = least_core_from_demands(floats, float(v_k), k)
            assert got.epsilon_star.hex() == want.epsilon_star.hex()
            assert got.allocation.tobytes() == want.allocation.tobytes()
            if k == 3:
                assert region_from_demands(exact, v_k) == region_from_demands(floats, v_k)

    @pytest.mark.parametrize("bad", ["0.5", 0.5j, None, [0.5]])
    def test_demand_that_is_no_real_number_is_an_invalid_argument(self, bad):
        demands = {0b001: 0.5, 0b010: 0.5, 0b011: 1.0, 0b100: 0.5, 0b101: bad, 0b110: 1.0}
        for call in (check_core_from_demands, least_core_from_demands,
                     lambda demands, v_k, k: region_from_demands(demands, v_k)):
            with pytest.raises(InvalidArgument, match="mask 5 is not a real number"):
                call(demands, 2.0, 3)

    @pytest.mark.parametrize("k", [2.0, 3.5, "3", None])
    def test_user_count_that_is_no_integer_is_an_invalid_argument(self, k):
        demands = {m: 0.5 for m in range(1, 7)}
        for call in (check_core_from_demands, least_core_from_demands):
            with pytest.raises(InvalidArgument, match="number of users must be an integer"):
                call(demands, 2.0, k)
        # numpy integers are integers
        assert check_core_from_demands(demands, 2.0, np.int64(3)).nonempty

    @pytest.mark.parametrize("call", [check_core_from_demands, least_core_from_demands])
    def test_dict_short_of_k_raises_before_anything_of_size_two_to_the_k(self, call):
        # K=16 has 65 534 proper coalitions: nothing of that size (LP rows, a
        # set of masks) may be built before the dict is checked
        tracemalloc.start()
        try:
            with pytest.raises(InvalidArgument, match="must cover every proper nonempty"):
                call({}, 1.0, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(InvalidArgument, match="number of users must be an integer"):
            call({}, 1.0, 16.0)
        # the right size with a mask missing is short too
        wrong = {m: 0.5 for m in range(0, 6)}
        with pytest.raises(InvalidArgument, match="must cover every proper nonempty"):
            call(wrong, 2.0, 3)

    def test_nan_witness_fails_post_validation(self, monkeypatch):
        monkeypatch.setattr(maccoop.cores._CoreLp, "slack",
                            lambda self, d, v_k, start: (np.array([math.nan, 1.0]), 0.0, [0]))
        with pytest.raises(NumericalFailure, match="witness"):
            check_core_from_demands({0b01: 0.5, 0b10: 0.5}, 2.0, 2)

    @pytest.mark.parametrize("model, first", [(ExpectationModel.MERGING, r"\{1\}\{2,3\}"),
                                              (ExpectationModel.SINGLETON, r"\{1\}\{2\}\{3\}")])
    def test_failed_factorization_names_the_partition(self, model, first):
        # every SUD sweep meets a singular N0 I + received covariance; the
        # first of the model's rows names it
        s = rank_one_sud_160db()
        with pytest.raises(NumericalFailure, match=rf"partition {first}: Matrix"):
            check_core(s, model)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_weighted_timeshare_rejected_before_any_solve(self, model, monkeypatch):
        s = symmetric(3, 0.5, SicTimeShare((0.5, 0.0, 0.25, 0.0, 0.25, 0.0)))

        def no_solve(*args, **kwargs):
            raise AssertionError("equilibrium solved")

        monkeypatch.setattr(maccoop.equilibrium, "_solve_orders", no_solve)
        for call in (check_core, least_core, core_region_3user):
            with pytest.raises(InvalidArgument, match="uniform time-share weights"):
                call(s, model)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_k10_symmetric_game_terminates_with_validated_evidence(self, model, k10_game):
        s, table, v_k = k10_game
        demands = demand_vector(s, model, table=table)
        result = check_core_from_demands(demands, v_k, 10)
        if result.nonempty:
            worst = min(sum(result.allocation[i] for i in range(10) if m >> i & 1) - d
                        for m, d in demands.items())
            assert worst == pytest.approx(result.slack, abs=1e-9)
            assert worst >= -1e-9
        else:
            validate_certificate(result.certificate, demands, v_k, 10)

    @pytest.mark.parametrize("seed, scenario", [
        (1, k4_fixed_sic()),
        (2, k3_timeshare_3db()),
        (3, symmetric(5, 0.1, SicFixed((3, 1, 5, 2, 4)))),
    ])
    def test_evidence_bitwise_invariant_to_demand_order(self, seed, scenario):
        rng = np.random.default_rng(seed)
        v_k = grand_value(scenario)
        for model in ALL_MODELS:
            demands = demand_vector(scenario, model)
            items = list(demands.items())
            rng.shuffle(items)
            a = check_core_from_demands(demands, v_k, scenario.k)
            b = check_core_from_demands(dict(items), v_k, scenario.k)
            assert a.slack.hex() == b.slack.hex()
            if a.nonempty:
                assert a.allocation.tobytes() == b.allocation.tobytes()
            else:
                assert list(a.certificate.weights.items()) == list(b.certificate.weights.items())
                assert a.certificate.margin.hex() == b.certificate.margin.hex()

    @pytest.mark.parametrize("model", [ExpectationModel.RATIONAL, ExpectationModel.CAUTIOUS])
    def test_k10_verdict_validates(self, model, k10_game):
        # K=10 is the core cap; every model must reach a validated verdict there
        s, table, v_k = k10_game
        result = check_core(s, model, table=table)
        assert result.verdict == "empty"
        assert result.allocation is None
        validate_certificate(result.certificate, demand_vector(s, model, table=table),
                             v_k, 10)

    @pytest.mark.parametrize("mask", [0, 0b11, 0b100])
    def test_certificate_on_no_proper_coalition_is_a_numerical_failure(self, mask):
        # each certificate is balanced, in [0, 1] and consistent with its margin,
        # but puts weight on the empty set, the grand coalition or a third user
        weights = {0b01: 1.0, 0b10: 1.0, mask: 0.5} if mask != 0b11 else {mask: 1.0}
        demands = dict.fromkeys(weights, 1.0) | {mask: 2.0}
        margin = sum(w * demands[m] for m, w in weights.items()) - 1.0
        with pytest.raises(NumericalFailure, match=f"mask {mask}, not a proper coalition"):
            validate_certificate(BalancedCertificate(weights, margin), demands, 1.0, 2)

    def test_verdicts_build_no_demand_dict(self, tmp_path, capsys, monkeypatch):
        # the demands go from the table read to the LP as one vector: the dict
        # views and the dict-taking entry points are for outside callers only
        games = {"sud3": random_scenario(np.random.default_rng(28), k=3, m=1, receiver=Sud()),
                 "sic4": k4_fixed_sic()}
        for name, s in games.items():
            io.save_scenario(s, tmp_path / f"{name}.cfg")

        def answers():
            out = []
            for name, s in games.items():
                for table in (None, utility_table(s)):
                    for model in ALL_MODELS:
                        out.append(pickle.dumps(check_core(s, model, table=table)))
                        out.append(pickle.dumps(least_core(s, model, table=table)))
                        if s.k == 3:
                            out.append(pickle.dumps(core_region_3user(s, model, table=table)))
                for command in ("core", "region") if s.k == 3 else ("core",):
                    where = tmp_path / f"{name}-{command}"
                    assert cli.main([command, "--scenario", str(tmp_path / f"{name}.cfg"),
                                     "--model", "rational", "--out", str(where)]) == 0
                    out.append(capsys.readouterr().out.encode())
                    out += [(path.name, path.read_bytes()) for path in sorted(where.iterdir())]
            return out

        want = answers()

        def no_dict(*args, **kwargs):
            raise AssertionError("demand dict on the verdict path")

        for helper in ("demand_vector", "grand_value", "_demand_array",
                       "check_core_from_demands"):
            monkeypatch.setattr(maccoop.cores, helper, no_dict)
        assert answers() == want


class TestSizeCaps:
    def test_core_cap_binds_every_core_computation(self):
        s = symmetric(CORE_MAX_USERS + 1, 1.0, SicFixed(tuple(range(1, CORE_MAX_USERS + 2))))
        for model in ALL_MODELS:
            for call in (check_core, least_core):
                with pytest.raises(InvalidArgument, match=f"capped at {CORE_MAX_USERS} users"):
                    call(s, model)

    @pytest.mark.parametrize("receiver", [SicFixed(tuple(range(16, 0, -1))), Sud(),
                                          SicTimeShare()])
    def test_sixteen_users_raise_invalid_argument(self, receiver):
        # coalition masks are int16; numpy's OverflowError used to escape here
        s = symmetric(16, 1.0, receiver)
        with pytest.raises(InvalidArgument, match="at most 15 users"):
            grand_value(s)
        with pytest.raises(InvalidArgument, match="at most 15 users"):
            coalition_demand(s, Coalition(0b101), ExpectationModel.MERGING)
        with pytest.raises(InvalidArgument, match="at most 15 users"):
            demand_vector(s, ExpectationModel.MERGING)
        for model in (ExpectationModel.RATIONAL, ExpectationModel.CAUTIOUS,
                      ExpectationModel.SINGLETON):
            with pytest.raises(InvalidArgument):
                demand_vector(s, model)
            with pytest.raises(InvalidArgument):
                coalition_demand(s, Coalition(0b101), model)


    @pytest.mark.parametrize("receiver", ["sic", "sud"])
    @pytest.mark.parametrize("k", [16, 20])
    def test_mask_cap_raises_before_any_row_or_table(self, k, receiver):
        # neither the 2^K - 2 fixed arrangements nor a 2^K per-coalition
        # table is built before the cap speaks
        s = symmetric(k, 1.0, SicFixed(tuple(range(k, 0, -1))) if receiver == "sic" else Sud())
        calls = [
            functools.partial(demand_vector, s, ExpectationModel.MERGING),
            functools.partial(demand_vector, s, ExpectationModel.SINGLETON),
            functools.partial(coalition_demand, s, Coalition(0b101), ExpectationModel.MERGING),
            functools.partial(coalition_demand, s, Coalition(0b101), ExpectationModel.SINGLETON),
            functools.partial(grand_value, s),
            functools.partial(ne_sic if receiver == "sic" else ne_sud, s, Partition.grand(k)),
        ]
        for call in calls:
            tracemalloc.start()
            try:
                with pytest.raises(InvalidArgument,
                                   match=f"at most 15 users, not {k}"):
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, call


class TestModelNames:
    ENTRY_POINTS = {
        "check_core": check_core,
        "least_core": least_core,
        "balancedness_certificate": balancedness_certificate,
        "demand_vector": demand_vector,
        "coalition_demand": lambda s, model: coalition_demand(s, Coalition(0b001), model),
        "core_region_3user": core_region_3user,
    }

    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    def test_unknown_model_is_an_invalid_argument(self, name):
        # the enum's own ValueError used to escape
        with pytest.raises(InvalidArgument,
                           match="unknown expectation model 'bogus'; expected one of "
                                 "rational, merging, cautious, singleton"):
            self.ENTRY_POINTS[name](symmetric(3, 1.0, SicFixed((1, 2, 3))), "bogus")

    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    def test_model_names_are_accepted(self, name):
        s = symmetric(3, 1.0, SicFixed((1, 2, 3)))
        call = self.ENTRY_POINTS[name]
        assert repr(call(s, "cautious")) == repr(call(s, ExpectationModel.CAUTIOUS))


class TestAgainstExactLp:
    def _exact_slack(self, demands, v_k, k):
        grid = 10**12

        def fr(x):
            return Fraction(round(x * grid), grid)

        a_ub, b_ub = [], []
        for mask in sorted(demands):
            row = [Fraction(-1) if mask >> i & 1 else Fraction(0) for i in range(k)]
            row.append(Fraction(1))
            a_ub.append(row)
            b_ub.append(-fr(demands[mask]))
        c = [Fraction(0)] * k + [Fraction(1)]
        a_eq = [[Fraction(1)] * k + [Fraction(0)]]
        status, value, _ = exact_lp_max(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=[fr(v_k)])
        assert status == "optimal"
        return float(value)

    @staticmethod
    def _exact_balanced_value(demands, k):
        """max sum lambda_S d_S over balanced weights, lambda >= 0 as rows."""
        grid = 10**12
        masks = sorted(demands)
        n = len(masks)
        c = [Fraction(round(demands[m] * grid), grid) for m in masks]
        a_ub = [[Fraction(-1) if j == r else Fraction(0) for j in range(n)] for r in range(n)]
        a_eq = [[Fraction(m >> i & 1) for m in masks] for i in range(k)]
        status, value, _ = exact_lp_max(c, a_ub=a_ub, b_ub=[0] * n, a_eq=a_eq, b_eq=[1] * k)
        assert status == "optimal"
        return float(value)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_slack_and_certificate_match_exact_lps(self, k):
        rng = np.random.default_rng(100 + k)
        demands = {m: float(rng.uniform(0.0, 1.0)) for m in range(1, (1 << k) - 1)}
        v_k = float(rng.uniform(0.5, 2.0))
        res = check_core_from_demands(demands, v_k, k)
        assert res.slack == pytest.approx(self._exact_slack(demands, v_k, k), abs=1e-9)
        best = self._exact_balanced_value(demands, k)
        weights, value = _CoreLp(k).balanced(np.array([demands[m] for m in sorted(demands)]))
        assert value == pytest.approx(best, abs=1e-9)
        if k > 2:  # from three users on these demands leave the core empty
            assert res.verdict == "empty"
            assert res.certificate.weights == weights
            assert res.certificate.margin == pytest.approx(best - v_k, rel=1e-9, abs=1e-9)

    def test_float_lp_matches_exact_on_random_games(self, rng):
        for _ in range(10):
            k = int(rng.integers(2, 5))
            demands = {m: float(rng.uniform(0.0, 1.0)) for m in range(1, (1 << k) - 1)}
            v_k = float(rng.uniform(0.5, 2.0))
            res = least_core_from_demands(demands, v_k, k)
            exact = self._exact_slack(demands, v_k, k)
            assert -res.epsilon_star == pytest.approx(exact, abs=1e-9)


def reference_dual_simplex(c, g, d, basis, a_eq, b_eq):
    """The pivot loop that inverted the basis matrix at every pivot, with
    numpy's vector ratio test: the bits ``_dual_simplex`` must reproduce."""
    n_eq = len(b_eq)
    basis = sorted(basis)
    tol = 1e-12 * max(1.0, float(np.abs(d).max(initial=0.0)),
                      float(np.abs(b_eq).max(initial=0.0)))
    a_b = np.vstack([a_eq, g[basis]])
    rhs = np.concatenate([b_eq, d[basis]])
    seen = set()
    bland = False
    while True:
        key = tuple(basis)
        if key in seen:
            if bland:
                raise NumericalFailure("core LP cycled under Bland's rule")
            bland = True
            seen.clear()
        seen.add(key)
        inv = np.linalg.inv(a_b)
        z = inv @ rhs
        y = (c @ inv)[n_eq:]
        residual = g @ z - d
        violated = np.flatnonzero(residual < -tol)
        if not len(violated):
            return z, basis, y
        enter = int(violated[0] if bland else np.argmin(residual))
        w = (g[enter] @ inv)[n_eq:]
        candidates = np.flatnonzero(w > _PIVOT_TOL)
        if not len(candidates):
            raise NumericalFailure("core LP ratio test found no leaving row")
        ratios = np.maximum(y[candidates], 0.0) / w[candidates]
        ties = candidates[ratios <= ratios.min() + 1e-12]
        basis[ties[0]] = enter
        basis.sort()
        a_b[n_eq:] = g[basis]
        rhs[n_eq:] = d[basis]


def dict_store_dual_simplex(c: np.ndarray, g: np.ndarray, d: np.ndarray, basis: list[int],
                            a_eq: np.ndarray, b_eq: np.ndarray,
                            inverses: dict[tuple[int, ...], tuple] | None = None):
    """The pivot loop that kept each basis's inverse, multipliers and multiplier
    list in a plain dict and ran its ratio test over (ratio, row) tuples,
    verbatim: the bits ``_dual_simplex`` must reproduce, pivot for pivot."""
    n_eq = len(b_eq)
    basis = sorted(basis)
    tol = 1e-12 * max(1.0, float(np.abs(d).max(initial=0.0)),
                      max(map(abs, b_eq.tolist()), default=0.0))
    if inverses is None:
        inverses = {}
    rhs = np.empty(n_eq + len(basis))
    rhs[:n_eq] = b_eq
    basic_rhs = rhs[n_eq:]
    residual = np.empty(len(g))
    seen: set[tuple[int, ...]] = set()
    bland = False
    while True:
        key = tuple(basis)
        if key in seen:
            if bland:
                raise NumericalFailure("core LP cycled under Bland's rule")
            bland = True
            seen.clear()
        seen.add(key)
        stored = inverses.get(key)
        if stored is None:
            try:
                inv = np.linalg.inv(np.concatenate((a_eq, g.take(basis, axis=0))))
            except np.linalg.LinAlgError:
                raise NumericalFailure("core LP basis is singular") from None
            y = (c @ inv)[n_eq:]
            stored = inverses[key] = (inv, y, y.tolist())
        inv, y, y_list = stored
        d.take(basis, out=basic_rhs)
        z = inv @ rhs
        np.matmul(g, z, out=residual)
        residual -= d
        enter = int(residual.argmin())
        if not residual[enter] < -tol:
            return z, basis, y.copy()
        if bland:
            enter = int(np.flatnonzero(residual < -tol)[0])
        # ratio test over at most K + 1 floats: lowest row of the smallest ratios
        w = (g[enter] @ inv)[n_eq:].tolist()
        ratios = [(max(y_s, 0.0) / w_s, s) for s, (y_s, w_s) in enumerate(zip(y_list, w))
                  if w_s > _PIVOT_TOL]
        if not ratios:
            raise NumericalFailure("core LP ratio test found no leaving row")
        band = min(r for r, _ in ratios) + 1e-12
        basis[next(s for r, s in ratios if r <= band)] = enter
        basis.sort()


class TestDualSimplex:
    def test_beale_cycling_example_reaches_the_optimum(self):
        # Beale's LP (1955): min cost.x s.t. A x = b, x >= 0 cycles under the
        # largest-violation rule from the basis {x1, x2, x3}.  Posed as the
        # multipliers of max b.z s.t. A^T z >= -cost, the first repeated
        # basis hands over to Bland's rule, which ends at x = (3/4, 0, 0, 1, 0, 1, 0).
        a = np.array([[1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
                      [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
                      [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]])
        b = np.array([0.0, 0.0, 1.0])
        cost = np.array([0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0])
        z, basis, y = _dual_simplex(b, a.T.copy(), -cost, [0, 1, 2],
                                    np.empty((0, 3)), np.empty(0))
        x = np.zeros(7)
        x[basis] = y
        np.testing.assert_allclose(x, [0.75, 0, 0, 1, 0, 1, 0], atol=1e-12)
        assert b @ z == pytest.approx(1.25, abs=1e-12)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_warm_start_from_the_previous_optimal_basis(self, k, monkeypatch):
        # a chain of perturbed demands that crosses the empty/nonempty boundary:
        # each solve starts from the basis the last one ended on
        gen = np.random.default_rng(400 + k)
        lp = _CoreLp(k)
        size = lp.incidence.sum(axis=1)
        v_k = 1.0 + k / 10
        base = v_k * size / k
        verdicts, basis = [], None
        for shift in (-0.04, -0.03, 0.02, 0.03, -0.035, 0.01, -0.02, 0.04):
            base = base + gen.normal(scale=0.002, size=size.size)
            d = base + shift + gen.normal(scale=0.004, size=size.size)
            demands = dict(zip(range(1, (1 << k) - 1), d.tolist()))
            cold = check_core_from_demands(demands, v_k, k)
            warm, basis = lp.check(d, v_k, basis)
            verdicts.append(warm.verdict)
            assert warm.verdict == cold.verdict
            assert warm.slack == pytest.approx(cold.slack, abs=1e-12)
            if warm.nonempty:
                assert (lp.incidence @ warm.allocation - d).min() >= warm.slack - 1e-12
                assert warm.allocation.sum() == pytest.approx(v_k, abs=1e-12)
            else:
                validate_certificate(warm.certificate, demands, v_k, k)
                assert warm.certificate.margin == pytest.approx(cold.certificate.margin,
                                                                abs=1e-12)
            # the balanced LP alone, from the slack LP's optimal basis at every step
            assert lp.balanced(d, basis)[1] == pytest.approx(_CoreLp(k).balanced(d)[1],
                                                             abs=1e-12)
        assert {"empty", "nonempty"} <= set(verdicts)

    @pytest.mark.parametrize("k", [3, 6, 10])
    def test_certificate_check_reads_only_the_weighted_demands(self, k, monkeypatch):
        # an empty verdict's validation gets the demands of the certificate's own
        # masks, as the full dict holds them, and no 2^K dict is built
        seen = []
        validate = maccoop.cores.validate_certificate

        def recorded(cert, demands, v_k, k):
            seen.append((cert, demands))
            validate(cert, demands, v_k, k)

        monkeypatch.setattr(maccoop.cores, "validate_certificate", recorded)
        gen = np.random.default_rng(900 + k)
        lp = _CoreLp(k)
        size = lp.incidence.sum(axis=1)
        v_k = 1.0 + k / 10
        for shift in (0.02, 0.03, 0.05):
            d = v_k * size / k + shift + gen.normal(scale=0.004, size=size.size)
            result, basis = lp.check(d, v_k)
            assert result.verdict == "empty"
            cert, demands = seen[-1]
            assert cert is result.certificate and set(demands) == set(cert.weights)
            full = dict(zip(range(1, (1 << k) - 1), d.tolist()))
            assert [demands[m].hex() for m in cert.weights] == [full[m].hex() for m in cert.weights]
            validate(cert, full, v_k, k)
        assert len(seen) == 3

        inversions = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inversions.append(a) or inv(a))
        lp.slack(d, v_k)
        lp.balanced(d, basis)
        # both LPs retrace the last verdict's paths, whose bases they inverted before
        assert len(inversions) == 0

    @staticmethod
    def empty_demands(k, gen, grid):
        """Demands around the equal split, so about half the cores are empty; on a
        half-integer grid when ``grid``, so ties and degenerate pivots abound."""
        size = _incidence(range(1, (1 << k) - 1), k).sum(axis=1)
        d = size + gen.uniform(-0.6, 0.4, size=size.size) * (1 + size % 2)
        return (np.round(2 * d) / 2 if grid else d), float(k)

    @pytest.mark.parametrize("grid", [False, True])
    @pytest.mark.parametrize("k", range(2, 9))
    def test_slack_basis_is_a_dual_feasible_certificate_start(self, k, grid):
        # at the slack optimum sum y = 1 and every user's covering weight is
        # mu' > 0, so the basic incidence rows are nonsingular and y / mu' is a
        # balanced collection: a dual feasible start for the certificate LP
        gen = np.random.default_rng([k, grid])
        lp = _CoreLp(k)
        empty = 0
        for _ in range(40 if k < 8 else 10):
            d, v_k = self.empty_demands(k, gen, grid)
            z, basis, y = _dual_simplex(lp.c, lp.g, d, _singleton_rows(k), lp.a_eq,
                                        np.array([v_k]))
            if z[k] >= -1e-9:
                continue
            empty += 1
            rows = lp.incidence[basis]
            assert round(abs(np.linalg.det(rows))) >= 1
            cover = rows.T @ y
            assert cover.mean() >= 1.0 / k - 1e-12
            lam = y / cover.mean()
            assert lam.min() >= -1e-12
            np.testing.assert_allclose(rows.T @ lam, 1.0, rtol=0, atol=1e-12)
        assert empty >= (5 if k < 8 else 2)

    @pytest.mark.parametrize("k", range(3, 9))
    def test_certificate_equals_a_cold_balanced_solve(self, k):
        # unstructured demands have one optimal basis, and the basis is kept in
        # row order, so the start cannot show in the certificate's bits
        gen = np.random.default_rng(700 + k)
        lp = _CoreLp(k)
        for _ in range(20):
            d, v_k = gen.uniform(0.0, 1.0, size=(1 << k) - 2), float(gen.uniform(0.5, 2.0))
            res, _ = lp.check(d, v_k)
            if res.nonempty:
                continue
            weights, value = _CoreLp(k).balanced(d)
            assert res.certificate.weights == weights
            assert res.certificate.margin == float(value - v_k)

    def test_certificate_lp_starts_where_the_slack_lp_stopped(self, bench_workloads,
                                                               monkeypatch):
        # over the benchmark's K=8 empty verdicts the certificate LP needs far
        # fewer basis inversions than a cold start from the singleton basis
        inversions = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inversions.append(a) or inv(a))

        def count(solve, *args):
            before = len(inversions)
            solve(*args)
            return len(inversions) - before

        warm = cold = empty = 0
        for seed in range(3):
            for s in bench_workloads.CoreLargeK(seed).inputs:
                table = utility_table(s)
                v_k = grand_value(s, table=table)
                for model in ALL_MODELS:
                    d = np.array(list(demand_vector(s, model, table=table).values()))
                    if _CoreLp(s.k).slack(d, v_k)[1] >= -1e-9:
                        continue
                    empty += 1
                    warm += count(_CoreLp(s.k).check, d, v_k) - count(_CoreLp(s.k).slack,
                                                                      d, v_k)
                    cold += count(_CoreLp(s.k).balanced, d)
        assert empty >= 10
        assert warm < 0.6 * cold

    @pytest.mark.parametrize("grid", [False, True])
    @pytest.mark.parametrize("k", range(2, 11))
    def test_stored_inverses_give_the_bits_of_a_fresh_solve(self, k, grid, monkeypatch):
        # along a random walk of demands, on a half-integer grid when ``grid``
        # (ties, degenerate pivots, repeated demands), every solve of one warm
        # _CoreLp equals a solve from its start basis without stored inverses
        # and the loop that inverted every basis it met, byte for byte
        solves = hits = 0

        def compared(c, g, d, basis, a_eq, b_eq, bases):
            nonlocal solves, hits
            solves += 1
            hits += tuple(sorted(basis)) in bases
            got = _dual_simplex(c, g, d, basis, a_eq, b_eq, bases)
            for want in (_dual_simplex(c, g, d, basis, a_eq, b_eq),
                         reference_dual_simplex(c, g, d, basis, a_eq, b_eq)):
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1] == want[1]
                assert got[2].tobytes() == want[2].tobytes()
            return got

        monkeypatch.setattr(maccoop.cores, "_dual_simplex", compared)
        gen = np.random.default_rng([k, grid, 21])
        lp = _CoreLp(k)
        walk, v_k = self.empty_demands(k, gen, False)
        verdicts, basis = set(), None
        for step in range(16 if k < 9 else 8):
            # two steps below the equal split, two above: the walk crosses the boundary
            walk = walk + gen.normal(scale=0.05, size=walk.size)
            d = walk + (-1.0 if step % 4 < 2 else 1.0)
            if grid:
                d = np.round(2 * d) / 2
            result, basis = lp.check(d, v_k, basis)
            verdicts.add(result.verdict)
            lp.balanced(d, basis)
        assert verdicts == {"empty", "nonempty"}
        assert hits >= solves // 3

    @pytest.mark.parametrize("k", [3, 5])
    def test_any_order_of_the_start_basis_gives_the_same_bits(self, k):
        gen = np.random.default_rng(900 + k)
        lp = _CoreLp(k)
        start = _singleton_rows(k)
        for _ in range(5):
            d, v_k = self.empty_demands(k, gen, False)
            runs = [_dual_simplex(lp.c, lp.g, d, list(gen.permutation(start)), lp.a_eq,
                                  np.array([v_k])) for _ in range(6)]
            for z, basis, y in runs[1:]:
                assert z.tobytes() == runs[0][0].tobytes()
                assert basis == runs[0][1]
                assert y.tobytes() == runs[0][2].tobytes()


    @pytest.mark.parametrize("k", [3, 6])
    def test_returned_arrays_share_nothing_with_the_stored_bases(self, k):
        # z, y and a witness written over after each solve: the next solves of the
        # same _CoreLp, which meet the same stored bases, still equal those of a
        # fresh _CoreLp given the same demands, and of solves without stored bases,
        # byte for byte
        gen = np.random.default_rng(800 + k)
        lp, twin = _CoreLp(k), _CoreLp(k)
        chain = [(d + shift, v_k) for shift in (-1.0, -1.0, 0.0, 0.0, -1.0, 0.0)
                 for d, v_k in [self.empty_demands(k, gen, False)]]
        verdicts = set()
        for d, v_k in chain + chain:
            (got, basis), (want, _) = lp.check(d, v_k), twin.check(d, v_k)
            assert same_core_result(got, want)
            verdicts.add(got.verdict)
            if got.nonempty:
                got.allocation[:] = np.nan
            for start in (basis, _singleton_rows(k)):
                z, _, y = _dual_simplex(lp.c, lp.g, d, start, lp.a_eq, np.array([v_k]),
                                        lp.slack_bases)
                fresh = _dual_simplex(lp.c, lp.g, d, start, lp.a_eq, np.array([v_k]))
                assert z.tobytes() == fresh[0].tobytes() and y.tobytes() == fresh[2].tobytes()
                z[:] = np.nan
                y[:] = np.nan
            args = (np.ones(k), lp.cover, d, basis, np.empty((0, k)), np.empty(0))
            _, _, y = _dual_simplex(*args, lp.balanced_bases)
            assert y.tobytes() == _dual_simplex(*args)[2].tobytes()
            y[:] = np.nan
            assert lp.balanced(d) == twin.balanced(d)
        assert verdicts == {"empty", "nonempty"}


def assert_same_solve(got, want):
    """(z, basis, y) of two dual simplex runs equal byte for byte."""
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1] == want[1]
    assert got[2].tobytes() == want[2].tobytes()


def order_games(workloads):
    """Benchmark games: the one-antenna K=8 closed-form games of seeds 2-4
    (fixed-order SIC and SUD, pooled budgets and antenna caps; empty and
    nonempty cores), then three pooled M=2 games of seed 1 (SUD K=4, whose
    rational and merging cores are empty and the other two not, time share
    K=4 and SIC K=6).  On six of the K=8 games the slack LP has more than one
    optimal basis, and a start from another verdict's optimal basis ends on
    another witness."""
    mimo = workloads.MimoEquilibria(1).inputs
    return [s for seed in (2, 3, 4) for s in workloads.CoreLargeK(seed).inputs] + [
        mimo[0], mimo[5], mimo[7]]


class TestSharedTableLp:
    """A table's one core LP: every answer is bitwise a fresh LP's, and the
    verdicts read from one table invert each basis they meet once."""

    @pytest.mark.parametrize("k", range(2, 11))
    def test_pivot_loop_is_bitwise_the_dict_store_loop_on_symmetric_games(self, k):
        # symmetric games tie every coalition of one size, so pivots meet
        # degenerate steps and tied ratios; one LP's stores serve every solve
        lp = _CoreLp(k)
        warm = lp.singletons
        for model in ALL_MODELS:
            for db in range(-30, 61, 10):
                s = analysis.symmetric_scenario(k, analysis.snr_db_to_noise(db))
                d, v_k, _ = _demands_and_grand(s, model, None)
                b_eq = np.array([v_k])
                for start in (lp.singletons, warm):
                    got = _dual_simplex(lp.c, lp.g, d, start, lp.a_eq, b_eq, lp.slack_bases)
                    assert_same_solve(got, dict_store_dual_simplex(lp.c, lp.g, d, start,
                                                                   lp.a_eq, b_eq))
                warm = got[1]
                cert = (lp.ones, lp.cover, d, warm, lp.no_eq, lp.no_rhs)
                assert_same_solve(_dual_simplex(*cert, lp.balanced_bases),
                                  dict_store_dual_simplex(*cert))

    @pytest.mark.parametrize("grid", [False, True])
    @pytest.mark.parametrize("k", range(2, 11))
    def test_pivot_loop_is_bitwise_the_dict_store_loop_on_random_demands(self, k, grid):
        # seeded demands around the equal split, on a half-integer grid when
        # ``grid``: from the singleton basis, from the previous optimal basis, and
        # the certificate LP from the slack LP's optimal basis
        gen = np.random.default_rng([30, k, grid])
        lp = _CoreLp(k)
        warm = lp.singletons
        for _ in range(12 if k < 9 else 4):
            d, v_k = TestDualSimplex.empty_demands(k, gen, grid)
            b_eq = np.array([v_k])
            cold = _dual_simplex(lp.c, lp.g, d, lp.singletons, lp.a_eq, b_eq, lp.slack_bases)
            assert_same_solve(cold, dict_store_dual_simplex(lp.c, lp.g, d, lp.singletons,
                                                            lp.a_eq, b_eq))
            got = _dual_simplex(lp.c, lp.g, d, warm, lp.a_eq, b_eq, lp.slack_bases)
            assert_same_solve(got, dict_store_dual_simplex(lp.c, lp.g, d, warm, lp.a_eq, b_eq))
            warm = got[1]
            cert = (lp.ones, lp.cover, d, cold[1], lp.no_eq, lp.no_rhs)
            assert_same_solve(_dual_simplex(*cert, lp.balanced_bases),
                              dict_store_dual_simplex(*cert))

    @pytest.mark.parametrize("game", range(15))
    def test_answers_do_not_depend_on_verdict_order(self, bench_workloads, game, monkeypatch):
        # one table takes the four verdicts in all 24 orders, a least core and a
        # certificate interleaved at moving positions; every answer equals the
        # same call on a freshly built table, byte for byte, and each distinct
        # demand vector runs each LP once, whichever model reads it first
        s = order_games(bench_workloads)[game]
        fresh_check = {m: check_core(s, m, table=utility_table(s)) for m in ALL_MODELS}
        fresh_least = {m: least_core(s, m, table=utility_table(s)) for m in ALL_MODELS}
        read = {m: _demands_and_grand(s, m, utility_table(s))[:2] for m in ALL_MODELS}
        inputs = {m: d.tobytes() + np.float64(v_k).tobytes() for m, (d, v_k) in read.items()}
        table = utility_table(s)
        solves = []
        solve = maccoop.cores._dual_simplex

        def recorded(c, g, d, basis, a_eq, b_eq, bases):
            solves.append((len(b_eq), d.tobytes() + b_eq.tobytes()))
            return solve(c, g, d, basis, a_eq, b_eq, bases)

        monkeypatch.setattr(maccoop.cores, "_dual_simplex", recorded)
        for i, order in enumerate(itertools.permutations(ALL_MODELS)):
            calls = [("check", m) for m in order]
            calls.insert(i % 5, ("least", ALL_MODELS[i % 4]))
            calls.insert((i + 2) % 6, ("certificate", ALL_MODELS[(i + 1) % 4]))
            for kind, m in calls:
                if kind == "check":
                    got = check_core(s, m, table=table)
                    assert same_core_result(got, fresh_check[m]), (order, m)
                elif kind == "certificate":
                    got, want = balancedness_certificate(s, m, table=table), fresh_check[m]
                    assert (got is None) == want.nonempty
                    if got is not None:
                        assert [(k, w.hex()) for k, w in got.weights.items()] == [
                            (k, w.hex()) for k, w in want.certificate.weights.items()]
                        assert got.margin.hex() == want.certificate.margin.hex()
                else:
                    got, want = least_core(s, m, table=table), fresh_least[m]
                    assert got.epsilon_star.hex() == want.epsilon_star.hex()
                    assert got.allocation.tobytes() == want.allocation.tobytes()
        slack = [key for lp, key in solves if lp == 1]
        certificate = [key for lp, key in solves if lp == 0]
        assert sorted(slack) == sorted(set(inputs.values()))
        empty = {inputs[m][:-8] for m in ALL_MODELS if not fresh_check[m].nonempty}
        assert sorted(certificate) == sorted(empty)
        assert table.core_lp.slack_bases
        assert set(table.core_lp.decided) == set(inputs.values())
        if s.rx_antennas == 1:
            # one-antenna rational, merging and cautious demands are one vector
            assert len(set(inputs.values())) <= 2

    def test_merging_and_cautious_run_no_lp_after_rational_on_one_antenna_tables(
            self, bench_workloads, monkeypatch):
        # each verdict reads its own model's demands; equal bytes then run no LP
        solves, reads = [], []
        solve, read = maccoop.cores._dual_simplex, maccoop.cores._read_demands
        monkeypatch.setattr(maccoop.cores, "_dual_simplex",
                            lambda *args: solves.append(args) or solve(*args))
        monkeypatch.setattr(maccoop.cores, "_read_demands",
                            lambda *args: reads.append(args[2]) or read(*args))
        games = [s for s in order_games(bench_workloads) if s.rx_antennas == 1]
        assert len(games) == 12
        for s in games:
            table = utility_table(s)
            ran, nonempty = {}, {}
            for model in ALL_MODELS:
                before = len(solves)
                nonempty[model] = check_core(s, model, table=table).nonempty
                ran[model] = len(solves) - before
                assert reads[-1] is model
            assert ran[ExpectationModel.RATIONAL] == (1 if nonempty[ExpectationModel.RATIONAL]
                                                      else 2)
            assert ran[ExpectationModel.MERGING] == ran[ExpectationModel.CAUTIOUS] == 0
            assert ran[ExpectationModel.SINGLETON] >= 1

    def test_in_place_value_edits_solve_again(self, bench_workloads):
        # the key is the demands' bytes, so new values are decided afresh, also
        # after a rational read, which reads the row totals; the pooled SIC K=6
        # game (last) joins every third game
        games = order_games(bench_workloads)
        for first in (ExpectationModel.MERGING, ExpectationModel.RATIONAL):
            for s in games[::3] + games[-1:]:
                table = utility_table(s)
                before = check_core(s, first, table=table)
                decided = len(table.core_lp.decided)
                table.values *= np.random.default_rng(31).uniform(0.5, 1.5, size=len(table))
                fresh = UtilityTable.from_arrays(s.k, s, table.rgs, table.counts, table.masks,
                                                 table.values.copy())
                for model in ALL_MODELS:
                    got = check_core(s, model, table=table)
                    assert same_core_result(got, check_core(s, model, table=fresh)), model
                    got = least_core(s, model, table=table)
                    want = least_core(s, model, table=fresh)
                    assert got.epsilon_star.hex() == want.epsilon_star.hex()
                    assert got.allocation.tobytes() == want.allocation.tobytes()
                assert not same_core_result(before, check_core(s, first, table=table))
                assert len(table.core_lp.decided) == len(fresh.core_lp.decided) + decided

    def test_zero_sign_and_one_ulp_solve_apart(self, monkeypatch):
        # equal by == or one ulp apart, different by bytes: each input is its own
        # decision, solved once however often it is asked
        lp = _TableLp(3)
        slack_solves = []
        solve = maccoop.cores._dual_simplex

        def recorded(c, g, d, basis, a_eq, b_eq, bases):
            if bases is lp.slack_bases:
                slack_solves.append(d.tobytes())
            return solve(c, g, d, basis, a_eq, b_eq, bases)

        monkeypatch.setattr(maccoop.cores, "_dual_simplex", recorded)
        d, v_k = np.array([0.0, 0.5, 1.0, 0.5, 1.0, 1.25]), 2.0
        negative_zero, ulp = d.copy(), d.copy()
        negative_zero[0] = -0.0
        ulp[5] = np.nextafter(1.25, 2.0)
        assert (negative_zero == d).all()
        inputs = [(d, v_k), (negative_zero, v_k), (ulp, v_k), (d, np.nextafter(v_k, 3.0)),
                  (d, np.nextafter(v_k, 1.0))]
        for _ in range(3):
            for demands, grand in inputs:
                result, _ = lp.check(demands, grand)
                assert same_core_result(result, _CoreLp(3).check(demands, grand)[0])
                x, t, _ = lp.slack(demands, grand)
                assert x.tobytes() == result.allocation.tobytes() and t == result.slack
        assert len(slack_solves) == len(lp.decided) == len(inputs)

    def test_returned_objects_are_the_callers_own(self, bench_workloads):
        # writing over a returned allocation, weights dict or basis changes no
        # later answer from the same table
        for s in order_games(bench_workloads)[::2]:
            table = utility_table(s)
            for model in ALL_MODELS:
                fresh = utility_table(s)
                want = check_core(s, model, table=fresh)
                want_least = least_core(s, model, table=fresh)
                for _ in range(2):
                    got = check_core(s, model, table=table)
                    assert same_core_result(got, want), model
                    least = least_core(s, model, table=table)
                    assert least.epsilon_star.hex() == want_least.epsilon_star.hex()
                    assert least.allocation.tobytes() == want_least.allocation.tobytes()
                    cert = balancedness_certificate(s, model, table=table)
                    least.allocation[:] = np.nan
                    if got.nonempty:
                        got.allocation[:] = np.nan
                    else:
                        got.certificate.weights.clear()
                        cert.weights[1] = 2.0
                d, v_k, _ = _demands_and_grand(s, model, table)
                _, basis = table.core_lp.check(d, v_k)
                basis.reverse()
                basis.append(-1)
                assert same_core_result(check_core(s, model, table=table), want)

    def test_nan_demand_raises_on_every_call(self):
        # a non-finite input is never stored: every call raises
        table = UtilityTable(3, "fp", {
            (0, 0, 0): {0b111: 3.0},
            (0, 0, 1): {0b011: 1.0, 0b100: math.nan},
            (0, 1, 0): {0b101: 1.0, 0b010: 0.5},
            (0, 1, 1): {0b001: 0.5, 0b110: 1.0},
            (0, 1, 2): {0b001: 0.4, 0b010: 0.4, 0b100: math.nan},
        })
        s = symmetric(3, 1.0, Sud())
        for model in (ExpectationModel.MERGING, ExpectationModel.SINGLETON):
            for _ in range(3):
                for call in (check_core, least_core, balancedness_certificate):
                    with pytest.raises(NumericalFailure, match="mask 4 is not finite"):
                        call(s, model, table=table)
        assert table.core_lp.decided == {}
        lp = _TableLp(3)
        d = np.array([0.5, 0.5, 1.0, math.nan, 1.0, 1.0])
        for _ in range(3):
            for call in (lp.check, lp.slack):
                with pytest.raises(NumericalFailure, match="mask 4 is not finite"):
                    call(d, 2.0)
        assert lp.decided == {}

    def test_sweeps_and_dict_calls_store_nothing(self, monkeypatch):
        # only a table's LP keeps decisions: a sweep's and a dict call's are plain
        # core LPs, which solve without storing any
        made = []

        class Recorded(_CoreLp):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(analysis, "_CoreLp", Recorded)
        monkeypatch.setattr(maccoop.cores, "_CoreLp", Recorded)
        monkeypatch.setattr(maccoop.cores, "_TableLp", None)  # building one would raise
        for model in ALL_MODELS:
            analysis.snr_boundary(analysis.SweepSpec((3, 4), (-10.0, 0.0, 10.0, 20.0)), model)
        assert len(made) == 8
        demands = {m: 0.3 * bin(m).count("1") for m in range(1, 7)}
        check_core_from_demands(demands, 1.0, 3)
        least_core_from_demands(demands, 1.0, 3)
        assert len(made) == 10
        for lp in made:
            assert lp.slack_bases and vars(lp).keys() == vars(_CoreLp(lp.k)).keys()

    def test_one_table_inverts_each_basis_it_meets_once(self, bench_workloads, monkeypatch):
        # on a seeded K=8 fixed-order SIC table the merging and cautious demands
        # are the rational ones, so after the rational verdict they invert
        # nothing; the four verdicts invert exactly the distinct bases that
        # their solves meet, as the dict-store loop finds them one solve at a time
        s = bench_workloads.CoreLargeK(0).inputs[0]
        assert isinstance(s.receiver, SicFixed) and s.k == 8 and s.power_mode == "sum"
        table = utility_table(s)
        inversions, solves = [], []
        inv, solve = np.linalg.inv, maccoop.cores._dual_simplex

        def recorded(c, g, d, basis, a_eq, b_eq, bases):
            solves.append((c, g, d, list(basis), a_eq, b_eq))
            return solve(c, g, d, basis, a_eq, b_eq, bases)

        monkeypatch.setattr(np.linalg, "inv", lambda a: inversions.append(a) or inv(a))
        monkeypatch.setattr(maccoop.cores, "_dual_simplex", recorded)
        after = []
        for model in ALL_MODELS:
            result = check_core(s, model, table=table)
            after.append(len(inversions))
            if model is ExpectationModel.RATIONAL:
                assert result.verdict == "empty"  # the certificate LP runs too
        rational, merging, cautious, singleton = after
        assert rational > 0 and merging == cautious == rational
        met: dict[int, set] = {}
        for c, g, d, basis, a_eq, b_eq in solves:
            store: dict = {}
            dict_store_dual_simplex(c, g, d, basis, a_eq, b_eq, store)
            met.setdefault(len(b_eq), set()).update(store)
        assert sorted(met) == [0, 1]  # both LPs ran
        assert singleton == len(met[0]) + len(met[1])
        assert singleton == len(table.core_lp.slack_bases) + len(table.core_lp.balanced_bases)


class TestLpInputs:
    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    def test_incidence_matches_membership_loop(self, k):
        masks = list(range(1, (1 << k) - 1)) or [1]
        loop = np.zeros((len(masks), k))
        for r, mask in enumerate(masks):
            for i in range(k):
                if mask >> i & 1:
                    loop[r, i] = 1.0
        got = _incidence(masks, k)
        np.testing.assert_array_equal(got, loop)
        # negated before the float cast: no -0.0 entries
        neg = np.zeros((len(masks), k))
        neg[:, :] = -got
        assert not np.signbit(neg[loop == 0.0]).any()


class TestLeastCore:
    def test_nonempty_core_epsilon_nonpositive(self):
        s = k3_timeshare_3db()
        res = least_core(s, ExpectationModel.RATIONAL)
        assert res.epsilon_star <= 1e-9

    def test_k4_value_against_dual_and_grid(self):
        s = k4_fixed_sic()
        res = least_core(s, ExpectationModel.RATIONAL)
        # dual optimum: weight 1/4 on the four 3-coalitions
        expected = (3 * LN(10.0) + LN(5.5)) / 4 - 0.75 * LN(17.0)
        assert res.epsilon_star == pytest.approx(expected, abs=1e-8)
        # independent oracle: symmetric 1-D minimax grid (users 1..3 are
        # interchangeable, and minimax of a convex function admits a
        # symmetric optimum)
        demands = demand_vector(s, ExpectationModel.RATIONAL)
        v_k = grand_value(s)
        best = np.inf
        for share in np.arange(0.0, v_k / 3, 1e-3):
            x = np.array([share, share, share, v_k - 3 * share])
            worst = max(
                d - sum(x[i] for i in range(4) if m >> i & 1)
                for m, d in demands.items()
            )
            best = min(best, worst)
        assert res.epsilon_star == pytest.approx(best, abs=2e-3)

    def test_epsilon_decreasing_in_grand_value(self):
        s = k4_fixed_sic()
        demands = demand_vector(s, ExpectationModel.RATIONAL)
        v_k = grand_value(s)
        eps = [least_core_from_demands(demands, v, 4).epsilon_star
               for v in (v_k, v_k + 0.1, v_k + 0.5)]
        assert eps[0] >= eps[1] >= eps[2]

    def test_symmetric_optimum_exists(self):
        s = k4_fixed_sic()
        res = least_core(s, ExpectationModel.RATIONAL)
        demands = demand_vector(s, ExpectationModel.RATIONAL)
        v_k = grand_value(s)
        x = res.allocation
        sym = np.array([(x[0] + x[1] + x[2]) / 3] * 3 + [x[3]])
        worst = max(
            d - sum(sym[i] for i in range(4) if m >> i & 1) for m, d in demands.items()
        )
        assert worst <= res.epsilon_star + 1e-9


class TestCertificate:
    def test_returns_none_when_nonempty(self):
        assert balancedness_certificate(k3_timeshare_3db(), ExpectationModel.RATIONAL) is None

    def test_k4_triples_certificate_validates(self):
        s = k4_fixed_sic()
        demands = demand_vector(s, ExpectationModel.RATIONAL)
        v_k = grand_value(s)
        margin = (3 * LN(10.0) + LN(5.5)) / 3 - LN(17.0)
        cert = BalancedCertificate(
            {0b0111: 1 / 3, 0b1011: 1 / 3, 0b1101: 1 / 3, 0b1110: 1 / 3}, margin
        )
        validate_certificate(cert, demands, v_k, 4)

    def test_returned_weights_balanced(self):
        s = k4_fixed_sic()
        cert = balancedness_certificate(s, ExpectationModel.RATIONAL)
        for i in range(4):
            cover = sum(w for m, w in cert.weights.items() if m >> i & 1)
            assert cover == pytest.approx(1.0, abs=1e-9)


class TestRegion:
    def test_timeshare_3db_polygon_contains_equal_split(self):
        s = k3_timeshare_3db()
        vertices = core_region_3user(s, ExpectationModel.RATIONAL)
        assert len(vertices) >= 3
        split = LN(19.0) / 3
        # the equal split satisfies every demand, hence lies in the hull
        d = demand_vector(s, ExpectationModel.RATIONAL)
        for mask, dem in d.items():
            assert split * bin(mask).count("1") >= dem - 1e-9
        # vertices lie on the efficiency plane, counterclockwise
        for x1, x2, x3 in vertices:
            assert x1 + x2 + x3 == pytest.approx(LN(19.0), abs=1e-9)
        area2 = 0.0
        for (a1, a2, _), (b1, b2, _) in zip(vertices, vertices[1:] + vertices[:1]):
            area2 += a1 * b2 - b1 * a2
        assert area2 > 0.0

    def test_vertices_sit_on_two_constraints(self):
        s = k3_timeshare_3db()
        d = demand_vector(s, ExpectationModel.RATIONAL)
        v_k = grand_value(s)
        for x1, x2, x3 in core_region_3user(s, ExpectationModel.RATIONAL):
            x = (x1, x2, x3)
            active = 0
            for mask, dem in d.items():
                got = sum(x[i] for i in range(3) if mask >> i & 1)
                if abs(got - dem) <= 1e-8:
                    active += 1
            assert active >= 2

    def test_empty_region(self):
        demands = {m: 10.0 for m in range(1, 7)}
        assert region_from_demands(demands, 1.0) == []

    def test_point_region(self):
        demands = {0b001: 1.0, 0b010: 1.0, 0b100: 1.0,
                   0b011: 2.0, 0b101: 2.0, 0b110: 2.0}
        vertices = region_from_demands(demands, 3.0)
        assert len(vertices) == 1
        np.testing.assert_allclose(vertices[0], [1.0, 1.0, 1.0], atol=1e-9)

    def test_requires_three_users(self):
        with pytest.raises(InvalidArgument):
            core_region_3user(k4_fixed_sic(), ExpectationModel.RATIONAL)


class TestModelRelations:
    def test_single_rx_cautious_equals_merging(self, rng):
        # merged outsiders maximize undecoded interference when the
        # receiver has one antenna, so the worst case is the merge
        for _ in range(3):
            s = random_scenario(rng, k=3, m=1)
            table = utility_table(s)
            for mask in range(1, 7):
                c = coalition_demand(s, Coalition(mask), ExpectationModel.CAUTIOUS,
                                     table=table)
                m = coalition_demand(s, Coalition(mask), ExpectationModel.MERGING,
                                     table=table)
                assert c == pytest.approx(m, abs=1e-9)

    def test_singleton_region_inside_merging_region(self, rng):
        # with one receive antenna, merged outsiders are the worst case,
        # so singleton-expectation demands dominate merging demands and
        # every vertex of the tighter region satisfies the looser one
        for _ in range(3):
            s = random_scenario(rng, k=3, m=1)
            table = utility_table(s)
            d_single = demand_vector(s, ExpectationModel.SINGLETON, table=table)
            d_merge = demand_vector(s, ExpectationModel.MERGING, table=table)
            v_k = grand_value(s, table=table)
            for x in region_from_demands(d_single, v_k):
                for mask, dem in d_merge.items():
                    got = sum(x[i] for i in range(3) if mask >> i & 1)
                    assert got >= dem - 1e-9

    def test_rational_equals_merging_by_superadditivity(self, rng):
        for _ in range(3):
            s = random_scenario(rng, k=4, m=2, receiver=Sud())
            table = utility_table(s)
            for mask in (0b0001, 0b0110, 0b1010):
                r = coalition_demand(s, Coalition(mask), ExpectationModel.RATIONAL,
                                     table=table)
                m = coalition_demand(s, Coalition(mask), ExpectationModel.MERGING,
                                     table=table)
                assert r == pytest.approx(m, abs=1e-7)


def same_core_result(a, b):
    """Verdict, slack, witness and certificate equal bit for bit."""
    def bits(r):
        cert = r.certificate
        return (r.verdict, r.slack.hex(),
                None if r.allocation is None else r.allocation.tobytes(),
                None if cert is None else (sorted((m, w.hex()) for m, w in cert.weights.items()),
                                           cert.margin.hex()))
    return bits(a) == bits(b)


#: The SNRs (dB) of the merging-row gate.
GATE_DB = (-20.0, 0.0, 20.0, 40.0, 60.0)
TABLE_MODELS = (ExpectationModel.RATIONAL, ExpectationModel.CAUTIOUS)


def gate_game(k, receiver, mode):
    """A seeded one-antenna game: fixed-order SIC in a random decoding order, or SUD."""
    gen = np.random.default_rng([22, k, len(receiver), len(mode)])
    rx = SicFixed(tuple(int(u) + 1 for u in gen.permutation(k))) if receiver == "sic" else Sud()
    return random_scenario(gen, k=k, m=1, mode=mode, receiver=rx)


def merging_row_differences(s):
    """Where a one-antenna game's rational and cautious cores, read from the merging
    rows as they are without a table, differ from those read from every partition,
    at each ``GATE_DB`` SNR: demands compared by float.hex, and core results."""
    every = maccoop.equilibrium._closed_form_tables(s)  # utility_table's table at any N0
    out = []
    for db in GATE_DB:
        at = s.with_noise(10.0 ** (-db / 10.0))
        table = every(at.noise)
        for model in TABLE_MODELS:
            got, want = demand_vector(at, model), demand_vector(at, model, table=table)
            out += [f"{model.value} demand of mask {mask} at {db} dB"
                    for mask in want if got[mask].hex() != want[mask].hex()]
            if not same_core_result(check_core(at, model), check_core(at, model, table=table)):
                out.append(f"{model.value} core at {db} dB")
    return out


class TestMergingRowsDecideRationalAndCautious:
    """With one receive antenna, fixed-order SIC or SUD, pooled budgets or antenna caps,
    rational and cautious demands are the merging demands (cores._model_rows proves it),
    so their cores read the 2^(K-1) merging rows instead of all B_K partitions."""

    @pytest.mark.parametrize("k", range(2, 11))
    @pytest.mark.parametrize("receiver", ["sic", "sud"])
    @pytest.mark.parametrize("mode", ["sum", "per_antenna"])
    def test_merging_rows_give_the_full_table_demands_and_cores(self, k, receiver, mode):
        s = gate_game(k, receiver, mode)
        for model in TABLE_MODELS:
            assert len(_model_table(s, model, grand=True).rgs) == 1 << (k - 1)
        assert merging_row_differences(s) == []

    @pytest.mark.parametrize("receiver", ["sic", "sud"])
    @pytest.mark.parametrize("mode", ["sum", "per_antenna"])
    def test_a_block_power_that_is_not_superadditive_fails_the_gate(self, receiver, mode,
                                                                    monkeypatch):
        # the largest member's power: merged outsiders no longer carry the most power
        power_of = maccoop.equilibrium._power_of

        def largest_member(scenario):
            alone = power_of(scenario)[1 << np.arange(scenario.k)]
            return maccoop._kernels.mask_table(np.maximum, alone, 0.0)

        monkeypatch.setattr(maccoop.equilibrium, "_power_of", largest_member)
        assert any("demand" in d for d in merging_row_differences(gate_game(4, receiver, mode)))

    @pytest.mark.parametrize("k", range(2, 6))
    @pytest.mark.parametrize("m, receiver", [(1, SicTimeShare()), (2, Sud()), (2, "sic"),
                                             (2, SicTimeShare())])
    def test_games_off_the_class_read_every_partition(self, k, m, receiver):
        gen = np.random.default_rng([k, m])
        rx = SicFixed(tuple(range(k, 0, -1))) if receiver == "sic" else receiver
        s = random_scenario(gen, k=k, m=m, receiver=rx)
        for model in TABLE_MODELS:
            for grand in (False, True):
                rows = _model_table(s, model, grand=grand).rgs
                assert rows.tobytes() == rgs_matrix(k).tobytes()


def unique_model_rows(k, model):
    """The model rows as np.unique built them: every proper mask's fixed arrangement,
    then the distinct rows, each where its first mask put it."""
    rows = _fixed_arrangements(k, range(1, (1 << k) - 1), model)
    return rows[np.sort(np.unique(rows, axis=0, return_index=True)[1])]


class TestModelRows:
    @pytest.mark.parametrize("k", range(2, 16))
    @pytest.mark.parametrize("model", [ExpectationModel.MERGING, ExpectationModel.SINGLETON])
    def test_fixed_model_rows_equal_the_unique_rows(self, k, model):
        s = symmetric(k, 1.0, SicFixed(tuple(range(k, 0, -1))))
        want = unique_model_rows(k, model)
        assert len(want) == ((1 << (k - 1)) - 1 if model is ExpectationModel.MERGING
                             else (1 << k) - k - 1)
        rows = _model_rows(s, model, grand=False)
        assert rows.dtype == want.dtype and rows.tobytes() == want.tobytes()
        with_grand = _model_rows(s, model, grand=True)
        assert with_grand.tobytes() == np.vstack((want, np.zeros((1, k), np.int8))).tobytes()

    @pytest.mark.parametrize("k", range(2, 16))
    @pytest.mark.parametrize("model", TABLE_MODELS)
    def test_closed_form_rational_and_cautious_rows_equal_the_unique_merging_rows(self, k,
                                                                                   model):
        want = unique_model_rows(k, ExpectationModel.MERGING)
        for rx in (SicFixed(tuple(range(1, k + 1))), Sud()):
            rows = _model_rows(symmetric(k, 1.0, rx), model, grand=False)
            assert rows.dtype == want.dtype and rows.tobytes() == want.tobytes()


def test_import_loads_no_scipy():
    code = "import sys, maccoop; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = Path(maccoop.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
