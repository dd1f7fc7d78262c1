import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maccoop.errors import InvalidArgument
from maccoop.model import (
    BELL_NUMBERS,
    Coalition,
    Partition,
    PerAntenna,
    Scenario,
    SicFixed,
    SicTimeShare,
    Sud,
    SumPower,
    UserSpec,
    bell_number,
    block_counts,
    coalition_channel,
    enumerate_partitions,
    induced_order,
    rgs_matrix,
)

from conftest import symmetric


class TestEnumeration:
    @pytest.mark.parametrize("k", range(1, 10))
    def test_count_is_bell_number(self, k):
        assert sum(1 for _ in enumerate_partitions(k)) == BELL_NUMBERS[k - 1]

    def test_k1_single_partition(self):
        (only,) = enumerate_partitions(1)
        assert only.blocks == (Coalition(1),)

    def test_lexicographic_rgs_order_and_uniqueness(self):
        seen = [p.rgs for p in enumerate_partitions(4)]
        assert seen == sorted(seen)
        assert len(seen) == len(set(seen)) == 15

    @pytest.mark.parametrize("k", [0, 13, -1])
    def test_out_of_range(self, k):
        with pytest.raises(InvalidArgument):
            list(enumerate_partitions(k))

    @given(st.integers(min_value=1, max_value=7))
    @settings(max_examples=20, deadline=None)
    def test_blocks_disjoint_and_cover(self, k):
        for part in enumerate_partitions(k):
            union = 0
            for block in part.blocks:
                assert union & block.mask == 0
                union |= block.mask
            assert union == (1 << k) - 1
            # canonical order: ascending smallest member
            smallest = [b.mask & -b.mask for b in part.blocks]
            assert smallest == sorted(smallest)


def reference_rgs_matrix(k):
    """Restricted growth strings built one user at a time: each row is repeated once for
    every label in 0..max+1, and that label is stacked on as the new column."""
    rgs = np.zeros((1, 1), dtype=np.int8)
    top = np.zeros(1, dtype=np.int8)  # largest label in each row
    for _ in range(1, k):
        choices = top.astype(np.int64) + 2
        starts = np.cumsum(choices) - choices
        label = (np.arange(starts[-1] + choices[-1])
                 - np.repeat(starts, choices)).astype(np.int8)
        rgs = np.column_stack((np.repeat(rgs, choices, axis=0), label))
        top = np.maximum(np.repeat(top, choices), label)
    return rgs


class TestRgsMatrix:
    @pytest.mark.parametrize("k", range(1, 12))
    def test_bitwise_equals_row_repeating_construction(self, k):
        got, want = rgs_matrix(k), reference_rgs_matrix(k)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", range(1, 11))
    def test_block_counts_are_the_largest_label_plus_one(self, k):
        rgs = rgs_matrix(k)
        for rows in (rgs, rgs[::-3], rgs[:0], np.asfortranarray(rgs)):
            got, want = block_counts(rows), rows.max(axis=1) + 1
            assert got.dtype == want.dtype == np.int8
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", range(1, 11))
    def test_rows_are_every_restricted_growth_string_in_lex_order(self, k):
        mat = rgs_matrix(k)
        assert mat.shape == (BELL_NUMBERS[k - 1], k)
        assert mat.dtype == np.int8
        # B_k valid strings in strictly increasing order are exactly all of them
        wide = mat.astype(np.int64)
        assert np.all(wide[:, 0] == 0)
        prefix_max = np.maximum.accumulate(wide, axis=1)
        assert np.all(wide[:, 1:] <= prefix_max[:, :-1] + 1)
        assert np.all(np.diff(wide @ (16 ** np.arange(k - 1, -1, -1))) > 0)
        assert mat.tolist() == [list(p.rgs) for p in enumerate_partitions(k)]

    @pytest.mark.parametrize("k", [0, 13, -1])
    def test_out_of_range(self, k):
        with pytest.raises(InvalidArgument):
            rgs_matrix(k)


class TestPartitionRgs:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_label_is_index_of_the_block_holding_the_user(self, k):
        for part in enumerate_partitions(k):
            expected = tuple(
                next(i for i, b in enumerate(part.blocks) if u in b) for u in range(1, k + 1)
            )
            assert part.rgs == expected

    def test_blocks_given_out_of_order(self):
        part = Partition.from_blocks(5, [[4], [2, 5], [1, 3]])
        assert part.rgs == (0, 1, 0, 2, 1)

    def test_rgs_is_computed_once_and_leaves_equality_alone(self):
        part = Partition.from_blocks(5, [[4], [2, 5], [1, 3]])
        assert part.rgs is part.rgs
        again = Partition.from_rgs((0, 1, 0, 2, 1))
        assert part == again and hash(part) == hash(again)
        with pytest.raises(AttributeError):
            part.k = 4


class TestInducedOrder:
    def test_merge_moves_to_latest_slot(self):
        # decoding order for {{1,3},{2},{4}} under base (1,2,3,4):
        # block {1,3} inherits member 3's slot, so {2} goes first
        part = Partition.from_blocks(4, [[1, 3], [2], [4]])
        order = induced_order(part, (1, 2, 3, 4))
        assert [b.members for b in order] == [(2,), (1, 3), (4,)]

    def test_grand_coalition(self):
        part = Partition.grand(3)
        assert induced_order(part, (2, 3, 1)) == part.blocks

    def test_singletons_follow_base_order(self):
        part = Partition.singletons(3)
        order = induced_order(part, (3, 1, 2))
        assert [b.members for b in order] == [(3,), (1,), (2,)]

    def test_not_a_permutation(self):
        with pytest.raises(InvalidArgument):
            induced_order(Partition.singletons(3), (1, 1, 2))

    @given(st.integers(min_value=2, max_value=6), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_total_order(self, k, rnd):
        parts = list(enumerate_partitions(k))
        part = rnd.choice(parts)
        base = list(range(1, k + 1))
        rnd.shuffle(base)
        order = induced_order(part, base)
        assert sorted(b.mask for b in order) == sorted(b.mask for b in part.blocks)
        assert len(order) == len(part.blocks)


class TestCoalitionChannel:
    def test_singleton_passthrough(self):
        s = symmetric(2, 1.0, Sud())
        np.testing.assert_array_equal(
            coalition_channel(s, Coalition.from_members([2])), s.user(2).channel
        )

    def test_scalar_stacking(self):
        s = symmetric(2, 1.0, Sud())
        np.testing.assert_array_equal(
            coalition_channel(s, Coalition.from_members([1, 2])), [[1.0, 1.0]]
        )

    def test_gram_identity(self, rng):
        users = []
        for uid in range(1, 4):
            n_t = int(rng.integers(1, 3))
            users.append(UserSpec(uid, n_t, rng.normal(size=(2, n_t)), SumPower(1.0)))
        s = Scenario(tuple(users), 2, 1.0, Sud())
        h = coalition_channel(s, Coalition.from_members([1, 2, 3]))
        gram = sum(u.channel @ u.channel.T for u in users)
        np.testing.assert_allclose(h @ h.T, gram, atol=1e-12)

    def test_member_outside_scenario(self):
        s = symmetric(2, 1.0, Sud())
        with pytest.raises(InvalidArgument):
            coalition_channel(s, Coalition.from_members([3]))


class TestValidation:
    def test_channel_rows_must_match_rx(self):
        user = UserSpec(1, 1, np.ones((2, 1)), SumPower(1.0))
        with pytest.raises(InvalidArgument):
            Scenario((user,), 1, 1.0, Sud())

    def test_ids_must_be_contiguous(self):
        u2 = UserSpec(2, 1, np.ones((1, 1)), SumPower(1.0))
        with pytest.raises(InvalidArgument):
            Scenario((u2,), 1, 1.0, Sud())

    def test_negative_power_rejected(self):
        with pytest.raises(InvalidArgument):
            SumPower(-0.5)
        with pytest.raises(InvalidArgument):
            PerAntenna((1.0, -1.0))

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_inputs_rejected(self, bad):
        user = UserSpec(1, 1, np.ones((1, 1)), SumPower(1.0))
        with pytest.raises(InvalidArgument, match="noise N0 must be finite"):
            Scenario((user,), 1, bad, Sud())
        with pytest.raises(InvalidArgument, match="sum power must be finite"):
            SumPower(bad)
        with pytest.raises(InvalidArgument, match="caps must be finite"):
            PerAntenna((1.0, bad))
        with pytest.raises(InvalidArgument, match="weights must be finite"):
            SicTimeShare((bad, 1.0))

    def test_per_antenna_length(self):
        with pytest.raises(InvalidArgument):
            UserSpec(1, 2, np.ones((1, 2)), PerAntenna((1.0,)))

    def test_noise_positive(self):
        user = UserSpec(1, 1, np.ones((1, 1)), SumPower(1.0))
        with pytest.raises(InvalidArgument):
            Scenario((user,), 1, 0.0, Sud())

    def test_mixed_power_modes_rejected(self):
        users = (
            UserSpec(1, 1, np.ones((1, 1)), SumPower(1.0)),
            UserSpec(2, 1, np.ones((1, 1)), PerAntenna((1.0,))),
        )
        with pytest.raises(InvalidArgument):
            Scenario(users, 1, 1.0, Sud())

    def test_base_order_permutation(self):
        with pytest.raises(InvalidArgument):
            SicFixed((1, 3))

    def test_timeshare_weights(self):
        with pytest.raises(InvalidArgument):
            SicTimeShare((0.5, 0.6))
        with pytest.raises(InvalidArgument):
            SicTimeShare((-0.1, 1.1))
        assert SicTimeShare((0.25, 0.75)).weights == (0.25, 0.75)

    def test_empty_coalition(self):
        with pytest.raises(InvalidArgument):
            Coalition(0)

    def test_coalition_members_round_trip(self):
        c = Coalition.from_members([4, 1])
        assert c.members == (1, 4)
        assert 1 in c and 4 in c and 2 not in c
        assert len(c) == 2

    def test_partition_must_cover(self):
        with pytest.raises(InvalidArgument):
            Partition.from_blocks(3, [[1], [2]])
        with pytest.raises(InvalidArgument):
            Partition.from_blocks(2, [[1], [1, 2]])

    def test_bell_number_helper(self):
        assert bell_number(4) == 15
        with pytest.raises(InvalidArgument):
            bell_number(13)
