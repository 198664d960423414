"""Policy behaviour, from scripted single traces up to property checks."""

import csv
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_engine
from fragsim.cli import main
from fragsim.config import parse_policy_token, resolve_run
from fragsim.engine import SimConfig, _forward_fill, run
from fragsim.fixtures import reference_topology
from fragsim.policies import (
    FnaParams,
    FnaPolicy,
    NnaPolicy,
    OptimalPolicy,
    PolicySpec,
    ThresholdPolicy,
    alternation_score,
    build_policy,
    membership_high,
    membership_medium,
    oscillation_inhibition,
)
from fragsim.topology import build_topology, complete_topology
from fragsim.workload import Block, WorkloadSpec


def hops(topo):
    """The topology's next-hop table as the lists nna and fna route with."""
    return topo.next_hop_matrix.tolist()


def decide(policy, owners, fragments, requesters):
    """``decide_block`` on one block, read as the engine reads it.

    The engine finds each event's owner, and each fragment's owner after
    the block, from the moves with one forward fill, and tags every local
    access ``local``. The owners after the block replace ``owners``, as
    in the engine. Returns per access (owner before, dest or -1, reason,
    inhibition), the inhibition ``None`` where no evaluation ran.
    """
    fragments = np.array(fragments, dtype=np.intp)
    block = Block(np.arange(fragments.size), fragments, np.array(requesters, dtype=np.intp), len(owners))
    carried = list(owners)
    moves, dests, codes, inhibitions = policy.decide_block(block, owners)
    assert owners == carried, "decide_block only reads owners"
    assert (inhibitions is None) == (policy.name != "fna")
    owner_at, after = _forward_fill(block, moves, dests, owners)
    owners[:] = after.tolist()
    order = block.by_fragment[0]
    moves = order[moves]  # in access positions
    assert not np.any(owner_at[moves] == dests), "a move never targets the current owner"
    reasons = policy.reasons + ("local",)
    code_at = np.empty_like(codes)
    code_at[order] = codes
    code_at[block.requesters == owner_at] = len(reasons) - 1
    dest_at = np.full(fragments.size, -1)
    dest_at[moves] = dests
    inhibition_at = [None] * fragments.size
    if inhibitions is not None:
        for i, inhibition in zip(order.tolist(), inhibitions.tolist()):
            inhibition_at[i] = None if np.isnan(inhibition) else inhibition
    return list(zip(owner_at.tolist(), dest_at.tolist(), [reasons[c] for c in code_at.tolist()], inhibition_at))


def block_trace(policy, initial_owner, requesters):
    """Feed one fragment's requester sequence through ``decide_block`` as one block.

    Returns the owner sequence, and per access the destination (-1 for a
    stay), the reason and the inhibition.
    """
    owners = [initial_owner]
    rows = decide(policy, owners, [0] * len(requesters), requesters)
    per_access = [dest for _, dest, _, _ in rows]
    trail = [initial_owner] + [dest for dest in per_access if dest >= 0]
    assert owners == trail[-1:]
    return trail, per_access, [reason for _, _, reason, _ in rows], [inhibition for *_, inhibition in rows]


def drive_block(policy, initial_owner, requesters):
    """``block_trace`` without the inhibitions."""
    return block_trace(policy, initial_owner, requesters)[:3]


class TestOptimal:
    def test_first_remote_access_wins_fresh_counters(self):
        policy = OptimalPolicy(1, 3)
        owners, dests, _ = drive_block(policy, 0, [2])
        assert dests[0] == 2
        assert owners == [0, 2]

    def test_strict_dominance_required(self):
        policy = OptimalPolicy(1, 2)
        # owner banks 4 accesses; challenger ties at 4, moves on the 5th
        _, dests, _ = drive_block(policy, 0, [0, 0, 0, 0, 1, 1, 1, 1, 1])
        moves = [d for d in dests if d >= 0]
        assert len(moves) == 1
        assert dests[-1] >= 0, "only the access that breaks the tie migrates"
        assert policy.counters[0].tolist() == [4, 5]

    def test_local_access_never_moves(self):
        policy = OptimalPolicy(1, 4)
        _, dests, reasons = drive_block(policy, 1, [1])
        assert dests == [-1]
        assert reasons == ["local"]
        assert policy.counters[0][1] == 1, "local accesses still count"

    def test_counters_travel_with_fragment(self):
        policy = OptimalPolicy(1, 3)
        owners, _, _ = drive_block(policy, 0, [1, 2, 2])
        # after moving to 1 the old row keeps informing decisions
        assert owners == [0, 1, 2]
        assert policy.counters[0].tolist() == [0, 1, 2]

    @given(
        num_sites=st.integers(2, 5),
        requesters=st.lists(st.integers(0, 4), min_size=1, max_size=120),
    )
    @settings(max_examples=80)
    def test_owner_counter_is_weak_row_max(self, num_sites, requesters):
        # one block per access, so the counters can be read after each event
        requesters = [r % num_sites for r in requesters]
        policy = OptimalPolicy(1, num_sites)
        owner = 0
        for requester in requesters:
            before = policy.counters[0].tolist()
            _, (dest,), _ = drive_block(policy, owner, [requester])
            after = policy.counters[0].tolist()
            expected_moved = requester != owner and after[requester] > before[owner]
            assert (dest >= 0) == expected_moved
            if dest >= 0:
                owner = dest
            assert after[owner] == max(after)


def threshold_by_access(t, owners, counts, fragments, requesters):
    """The threshold rule one access at a time: each event's (owner before, dest or -1, reason)."""
    rows = []
    for f, requester in zip(fragments, requesters):
        owner = owners[f]
        if requester == owner:
            counts[f] = 0
            rows.append((owner, -1, "local"))
        elif counts[f] + 1 > t:
            counts[f] = 0
            owners[f] = requester
            rows.append((owner, requester, "threshold-exceeded"))
        else:
            counts[f] += 1
            rows.append((owner, -1, "below-threshold"))
    return rows


def block_rows(policy, owners, fragments, requesters):
    """``decide_block`` on one block, as the rows ``threshold_by_access`` gives."""
    return [row[:3] for row in decide(policy, owners, fragments, requesters)]


class TestThreshold:
    def test_local_access_resets_counter(self):
        policy = ThresholdPolicy(1, t=3)
        drive_block(policy, 0, [1, 1, 1])
        assert policy.counts[0] == 3
        drive_block(policy, 0, [0])
        assert policy.counts[0] == 0

    def test_migration_on_exceeding_t(self):
        policy = ThresholdPolicy(1, t=3)
        owners, dests, reasons = drive_block(policy, 0, [1, 2, 1, 2])
        assert [d >= 0 for d in dests] == [False, False, False, True]
        assert reasons == ["below-threshold"] * 3 + ["threshold-exceeded"]
        assert owners == [0, 2], "fragment jumps to the requester that broke the threshold"
        assert policy.counts[0] == 0

    def test_t_zero_chases_every_remote_access(self):
        policy = ThresholdPolicy(1, t=0)
        seq = [3, 1, 1, 2, 0]
        owners, _, _ = drive_block(policy, 0, seq)
        assert owners == [0, 3, 1, 2, 0]

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            PolicySpec("threshold", t=-1)

    @given(
        t=st.integers(0, 4),
        requesters=st.lists(st.integers(0, 3), min_size=1, max_size=150),
    )
    @settings(max_examples=80)
    def test_counter_stays_within_bounds_and_t0_tracks_last_requester(self, t, requesters):
        # one block per access, so the count is carried from block to block
        policy = ThresholdPolicy(1, t=t)
        owner = 0
        consecutive = 0
        for requester in requesters:
            _, (dest,), _ = drive_block(policy, owner, [requester])
            if requester == owner:
                consecutive = 0
            else:
                consecutive += 1
                if consecutive > t:
                    assert dest == requester
                    consecutive = 0
                else:
                    assert dest == -1
            if dest >= 0:
                owner = dest
            assert 0 <= policy.counts[0] <= t
        if t == 0:
            assert owner == requesters[-1]


class TestThresholdBlock:
    def test_move_on_the_last_event_of_a_block(self):
        policy = ThresholdPolicy(1, t=2)
        owners, dests, reasons = drive_block(policy, 0, [0, 1, 2, 1])
        assert dests == [-1, -1, -1, 1]
        assert reasons == ["local", "below-threshold", "below-threshold", "threshold-exceeded"]
        assert owners == [0, 1] and policy.counts == [0]
        # the new owner's next access is local, a remote one counts from zero
        assert block_rows(policy, [1], [0, 0], [1, 0]) == [(1, -1, "local"), (1, -1, "below-threshold")]
        assert policy.counts == [1]

    def test_carried_count_reaches_t_before_the_owner_occurs(self):
        policy = ThresholdPolicy(1, t=3)
        drive_block(policy, 0, [1, 2])
        assert policy.counts == [2]
        owners, dests, reasons = drive_block(policy, 0, [2, 1, 0, 0])
        assert dests == [-1, 1, -1, -1]
        assert reasons == ["below-threshold", "threshold-exceeded", "below-threshold", "below-threshold"]
        assert owners == [0, 1] and policy.counts == [2]

    def test_owners_first_occurrence_resets_a_carried_count(self):
        policy = ThresholdPolicy(1, t=3)
        drive_block(policy, 0, [1, 2])
        # without the reset at the local access, the third event would move
        owners, dests, reasons = drive_block(policy, 0, [0, 1, 1, 1, 2, 0])
        assert dests == [-1, -1, -1, -1, 2, -1]
        assert reasons == ["local"] + ["below-threshold"] * 3 + ["threshold-exceeded", "below-threshold"]
        assert owners == [0, 2] and policy.counts == [1]

    def test_t_larger_than_the_block(self):
        policy = ThresholdPolicy(1, t=5000)
        for _ in range(3):
            assert drive_block(policy, 0, [1, 2] * 50)[0] == [0]
        assert policy.counts == [300]
        owners, dests, _ = drive_block(policy, 0, [1, 2] * 3000)
        # 4 701 more remote accesses pass t; after the move, 1 occurs again at 5 998
        assert owners == [0, 1] and dests.index(1) == 4700
        assert policy.counts == [1]

    def test_t_beyond_a_machine_integer(self):
        policy = ThresholdPolicy(1, t=10**30)
        owners, dests, _ = drive_block(policy, 0, [1, 2] * 3000)
        assert owners == [0] and dests == [-1] * 6000
        assert policy.counts == [6000]

    def test_interleaved_fragments_match_the_rule_by_access(self):
        rng = random.Random(41)
        policy = ThresholdPolicy(3, t=2)
        owners, counts = [0, 1, 2], [0, 0, 0]
        expected_owners, expected_counts = list(owners), list(counts)
        for size in (1, 7, 40, 0, 300):
            fragments = [rng.choice([0, 1, 1, 2, 2, 2]) for _ in range(size)]
            requesters = [rng.choice([0, 0, 1, 2, 3]) for _ in range(size)]
            expected = threshold_by_access(2, expected_owners, expected_counts, fragments, requesters)
            assert block_rows(policy, owners, fragments, requesters) == expected
            assert owners == expected_owners and policy.counts == expected_counts

    def test_interleaved_fragments_total_migration_cost_per_move(self):
        # Three fragments moving on a weighted graph: the engine's total,
        # summed per block, must equal a per-move sum in access order.
        topo = build_topology(4, [(0, 1, 0.3), (1, 2, 1.7), (2, 3, 0.1), (0, 3, 2.9)])
        cfg = SimConfig(
            topology=topo,
            sizes=[0.5, 2.5, 4.0],
            initial_owners=[0, 1, 2],
            policy=PolicySpec("threshold", t=1),
            workload=WorkloadSpec.symmetric(3, 4, 0.4, hot=1),
            rate=0.7,
            seed=5,
            num_steps=3000,
            per_hop_latency=0.7,
        )
        lines = []
        metrics = run(cfg, lines.append)
        dist = topo.distance_matrix.tolist()
        total, moves = 0.0, 0
        for row in csv.DictReader(lines):
            if row["decision"] == "move":
                total += cfg.sizes[int(row["fragment"])] * dist[int(row["owner_before"])][int(row["dest"])] * 0.7
                moves += 1
        assert moves == metrics.migrations > 1000
        assert repr(metrics.migration_hop_cost) == repr(total)


class TestNna:
    def test_moves_one_hop_toward_dominating_site(self):
        # path 0-1-2: requester 2 dominates, fragment hops to 1 first
        topo = build_topology(3, [(0, 1), (1, 2)])
        policy = NnaPolicy(1, hops(topo))
        owners, dests, reasons = drive_block(policy, 0, [2, 2])
        assert dests[0] == 1
        assert reasons[0] == "toward:2"
        assert owners == [0, 1, 2]

    def test_walkthrough_on_reference_topology(self):
        # fragment starts at A(0); all traffic comes from E(4), G(6),
        # H(7), I(8), so it walks A -> C -> B -> G whatever the order
        policy = NnaPolicy(1, hops(reference_topology()))
        rng = random.Random(3)
        requesters = [rng.choice([4, 6, 7, 8]) for _ in range(60)]
        owners, _, _ = drive_block(policy, 0, requesters)
        assert owners[:4] == [0, 2, 1, 6]

    def test_argmax_tie_breaks_to_lowest_site(self):
        policy = NnaPolicy(1, hops(complete_topology(4)))
        policy.counters[0] = [0, 5, 5, 4]
        _, dests, reasons = drive_block(policy, 0, [3])
        # requester 3 climbs to 5 too: three sites tied at the top, the
        # lowest-numbered one is chosen as the walk target
        assert dests == [1]
        assert reasons == ["toward:1"]

    def test_threshold_trigger_counts_remote_accesses(self):
        topo = build_topology(3, [(0, 1), (1, 2)])
        policy = NnaPolicy(1, hops(topo), trigger="threshold", t=2)
        owners, dests, _ = drive_block(policy, 0, [2, 2, 2, 2])
        assert [d >= 0 for d in dests] == [False, False, True, False]
        # after the move to 1, remote count restarts; 4th access is 1 of 3
        assert owners == [0, 1]
        assert policy.remote_since_move[0] == 1

    def test_threshold_trigger_requires_t(self):
        with pytest.raises(ValueError):
            PolicySpec("nna", trigger="threshold")

    def test_unknown_trigger_rejected(self):
        with pytest.raises(ValueError):
            PolicySpec("nna", trigger="sometimes")

    def test_at_target_stays_put(self):
        topo = build_topology(3, [(0, 1), (1, 2)])
        policy = NnaPolicy(1, hops(topo), trigger="threshold", t=0)
        policy.counters[0] = [0, 10, 0]  # owner already holds the max
        _, dests, reasons = drive_block(policy, 1, [2])
        assert dests == [-1]
        assert reasons == ["at-target"]

    @given(
        requesters=st.lists(st.integers(0, 8), min_size=1, max_size=200),
    )
    @settings(max_examples=60)
    def test_every_move_is_one_hop_toward_the_argmax(self, requesters):
        topo = reference_topology()
        links = {(a, b) for a, b, _ in topo.links} | {(b, a) for a, b, _ in topo.links}
        policy = NnaPolicy(1, hops(topo))
        owner = 0
        for requester in requesters:  # one block per access, so the counters can be read after each event
            _, (dest,), (reason,) = drive_block(policy, owner, [requester])
            if dest >= 0:
                target = int(reason.split(":")[1])
                assert (owner, dest) in links
                assert dest == topo.next_hop_matrix[owner][target]
                assert policy.counters[0][target] == max(policy.counters[0])
                owner = dest


class TestFuzzyPieces:
    def test_membership_shapes(self):
        assert membership_medium(0.0) == 0.0
        assert membership_medium(0.5) == 1.0
        assert membership_medium(1.0) == 0.0
        assert membership_medium(0.25) == 0.5
        assert membership_high(0.5) == 0.0
        assert membership_high(0.75) == 0.5
        assert membership_high(1.0) == 1.0

    def test_alternation_score_patterns(self):
        assert alternation_score([]) == 0.0
        assert alternation_score([1, 2]) == 0.0
        assert alternation_score([1, 2, 1, 2, 1]) == 1.0
        assert alternation_score([1, 2, 3, 4]) == 0.0
        assert alternation_score([5, 5, 5, 5]) == 0.0, "repeats are not ping-pong"
        assert alternation_score([1, 2, 1, 1]) == 0.5

    def test_inhibition_rule_base(self):
        assert oscillation_inhibition(1.0, 1.0) == 1.0
        assert oscillation_inhibition(0.0, 0.0) == 0.0
        assert oscillation_inhibition(1.0, 0.0) == 0.0
        assert oscillation_inhibition(0.0, 1.0) == 0.0
        assert oscillation_inhibition(1.0, 0.5) == 1.0, "high churn with medium alternation fires"
        assert oscillation_inhibition(0.75, 0.75) == 0.5
        assert oscillation_inhibition(0.3, 1.0) == pytest.approx(0.6)

    @given(x=st.floats(0, 1), y=st.floats(0, 1))
    @settings(max_examples=100)
    def test_inhibition_bounded_and_monotone_pieces(self, x, y):
        value = oscillation_inhibition(x, y)
        assert 0.0 <= value <= 1.0
        # fully calm history can never inhibit
        if y == 0.0 and x <= 0.5:
            assert value == 0.0


class TestFna:
    def test_decay_and_bump(self):
        policy = FnaPolicy(1, hops(complete_topology(3)), FnaParams(window=100))
        block_trace(policy, 0, [1, 2])
        assert policy.vectors[0].tolist() == pytest.approx([0.0, 0.95, 1.0])

    def test_moves_one_hop_toward_best_scoring_site(self):
        topo = build_topology(3, [(0, 1), (1, 2)])
        policy = FnaPolicy(1, hops(topo), FnaParams(window=1))
        _, dests, reasons, _ = block_trace(policy, 0, [2])
        assert dests == [1]
        assert reasons == ["toward:2"]
        assert list(policy._history[0]) == [1], "the move is recorded in the history"

    def test_local_access_always_stays(self):
        topo = build_topology(3, [(0, 1), (1, 2)])
        policy = FnaPolicy(1, hops(topo), FnaParams(window=1))
        policy.vectors[0] = [0.0, 0.0, 50.0]  # evaluation wants to leave
        _, dests, reasons, inhibitions = block_trace(policy, 0, [0])
        assert dests == [-1]
        assert reasons == ["local"]
        assert inhibitions[0] is not None, "the evaluation still ran"

    def test_small_gap_blocks_the_move(self):
        topo = build_topology(2, [(0, 1)])
        policy = FnaPolicy(1, hops(topo), FnaParams(window=2, min_gap=0.05))
        # scores 0.95 vs 1.0: gap just over 0.025, below min_gap
        _, dests, reasons, _ = block_trace(policy, 0, [0, 1])
        assert dests[1] == -1
        assert reasons[1] == "gap-below-min"

    def test_inhibited_when_history_is_ping_pong_and_scores_churn(self):
        topo = build_topology(3, [(0, 1), (1, 2)])
        policy = FnaPolicy(1, hops(topo), FnaParams(window=1))
        policy._history[0].extend([1, 2, 1, 2, 1, 2])  # plant a perfect alternation
        _, dests, reasons, inhibitions = block_trace(policy, 0, [2])
        assert dests == [-1]
        assert reasons == ["inhibited"]
        assert inhibitions[0] == pytest.approx(1.0)

    def test_between_windows_nothing_happens(self):
        policy = FnaPolicy(1, hops(complete_topology(3)), FnaParams(window=5))
        _, dests, reasons, inhibitions = block_trace(policy, 0, [2] * 4)
        assert dests == [-1] * 4
        assert reasons == ["no-eval"] * 4
        assert inhibitions == [None] * 4
        assert block_trace(policy, 0, [2])[1][0] >= 0, "fifth event completes the window"

    def test_history_is_bounded(self):
        # on the path 0-1-...-10 with every access from site 10, each
        # evaluation takes one more hop; only the last four are kept
        path = build_topology(11, [(k, k + 1) for k in range(10)])
        policy = FnaPolicy(1, hops(path), FnaParams(window=1, history=4))
        owners, _, _, _ = block_trace(policy, 0, [10] * 10)
        assert owners == list(range(11))
        assert list(policy._history[0]) == [7, 8, 9, 10]

    def test_param_validation(self):
        with pytest.raises(ValueError):
            FnaParams(window=0)
        with pytest.raises(ValueError):
            FnaParams(decay=1.0)
        with pytest.raises(ValueError):
            FnaParams(decay=0.0)
        with pytest.raises(ValueError):
            FnaParams(history=0)
        with pytest.raises(ValueError, match=r"window must lie in \[1, 2\*\*63\), got 9223372036854775808"):
            FnaParams(window=2**63)
        with pytest.raises(ValueError, match=r"history must lie in \[1, 2\*\*63\)"):
            FnaParams(history=10**30)
        with pytest.raises(ValueError):
            FnaParams(inhibition_cutoff=1.5)
        with pytest.raises(ValueError):
            FnaParams(min_gap=-0.1)

    @pytest.mark.parametrize("field", ["decay", "inhibition_cutoff", "min_gap"])
    def test_nan_fails_every_float_bound(self, field):
        with pytest.raises(ValueError, match=field):
            FnaParams(**{field: float("nan")})


def fna_by_access(reference, owners, fragments, requesters):
    """The same rows from ``reference_engine``'s per-access ``fna``, applying its moves to ``owners``."""
    rows = []
    for f, requester in zip(fragments, requesters):
        owner = owners[f]
        dest, reason, inhibition = reference.decide(f, requester, owner)
        rows.append((owner, dest, reason, inhibition))
        if dest >= 0:
            owners[f] = dest
    return rows


class TestFnaBlock:
    """The block rule of ``fna`` against the per-access rule, block by block."""

    def check_blocks(self, topo, params, owners, blocks):
        """Run ``blocks`` of (fragments, requesters) through both rules; every row and the state must agree."""
        policy = FnaPolicy(len(owners), hops(topo), params)
        reference = reference_engine.Policy(PolicySpec("fna", fna=params), len(owners), topo.n, hops(topo))
        expected_owners = list(owners)
        all_rows = []
        for fragments, requesters in blocks:
            expected = fna_by_access(reference, expected_owners, fragments, requesters)
            rows = decide(policy, owners, fragments, requesters)
            assert [repr(row) for row in rows] == [repr(row) for row in expected]
            assert owners == expected_owners
            assert policy.vectors.tolist() == reference.v
            assert policy._since_eval.tolist() == reference.since
            assert [list(h) for h in policy._history] == [list(h) for h in reference.history]
            all_rows += rows
        return all_rows

    def test_evaluation_at_a_fragments_first_event(self):
        # window 3: two events in the first block carry since_eval = 2, so the
        # second block's first event evaluates, and so does its fourth
        topo = build_topology(3, [(0, 1), (1, 2)])
        policy = FnaPolicy(1, hops(topo), FnaParams(window=3))
        block_trace(policy, 0, [2, 2])
        assert policy._since_eval.tolist() == [2]
        rows = self.check_blocks(topo, FnaParams(window=3), [0], [([0, 0], [2, 2]), ([0] * 5, [2] * 5)])
        assert [reason for _, _, reason, _ in rows] == ["no-eval"] * 2 + ["toward:2", "no-eval", "no-eval", "toward:2", "local"]
        assert [owner for owner, _, _, _ in rows] == [0, 0, 0, 1, 1, 1, 2]

    def test_move_at_a_fragments_last_event_leaves_the_next_fragment_its_owner(self):
        # fragment 0's only event moves it; fragment 1, grouped right after
        # it, must keep its own owner 2 and stay local
        topo = build_topology(3, [(0, 1), (1, 2)])
        rows = self.check_blocks(topo, FnaParams(window=1), [0, 2], [([1, 0, 1], [2, 2, 2])])
        assert rows == [(2, -1, "local", 0.0), (0, 1, "toward:2", 0.0), (2, -1, "local", 0.0)]

    def test_fragment_with_no_event_in_a_block(self):
        topo = reference_topology()
        rng = random.Random(3)
        blocks = []
        for size in (30, 25, 40):
            fragments = [rng.choice([0, 2]) for _ in range(size)]
            blocks.append((fragments, [rng.choice([6, 6, 7, 2]) for _ in range(size)]))
        blocks.append(([0, 1, 2] * 10, [6, 7, 6] * 10))  # fragment 1 resumes with its scores untouched
        rows = self.check_blocks(topo, FnaParams(window=2), [0, 3, 5], blocks)
        assert rows[95 + 1] == (3, -1, "no-eval", None), "fragment 1's first event, its count still at 0"
        assert [] == decide(FnaPolicy(3, hops(topo)), [0, 3, 5], [], []), "an empty block decides nothing"

    @pytest.mark.parametrize("window, history", [(1, 1), (1, 6), (4, 1)])
    def test_window_one_and_history_one(self, window, history):
        topo = reference_topology()
        rng = random.Random(window * 10 + history)
        blocks = []
        for size in (1, 7, 40, 0, 300):
            fragments = [rng.choice([0, 1, 1, 2]) for _ in range(size)]
            blocks.append((fragments, [rng.choice([6, 6, 7, 7, 0, 4]) for _ in range(size)]))
        params = FnaParams(window=window, history=history, min_gap=0.01, inhibition_cutoff=0.2)
        rows = self.check_blocks(topo, params, [0, 4, 8], blocks)
        reasons = {reason.split(":")[0] for _, _, reason, _ in rows}
        assert {"toward", "local"} <= reasons
        if window > 1:
            assert "no-eval" in reasons
        if history > 2:
            assert "inhibited" in reasons

    def test_interleaved_fragments_match_the_rule_by_access(self):
        topo = reference_topology()
        rng = random.Random(7)
        blocks = []
        for size in (1, 7, 40, 0, 300, 500):
            fragments = [rng.choice(range(6)) for _ in range(size)]
            blocks.append((fragments, [rng.choice([6, 6, 6, 7, 7, 2, 0]) for _ in range(size)]))
        params = FnaParams(window=5, decay=0.8, min_gap=0.1, inhibition_cutoff=0.3)
        rows = self.check_blocks(topo, params, [0, 1, 2, 3, 4, 5], blocks)
        reasons = {reason.split(":")[0] for _, _, reason, _ in rows}
        assert reasons == {"no-eval", "local", "toward", "at-target", "gap-below-min", "inhibited"}


SCORES = st.floats(min_value=0.0, allow_nan=False).map(abs)  # non-negative, +0.0, subnormals and inf included


class TestFnaExactness:
    """The float identities the block rule of ``fna`` relies on."""

    @given(
        shape=st.tuples(st.integers(1, 3), st.sampled_from([1, 8, 9, 16, 128, 129, 300]) | st.integers(1, 300)),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_row_sums_are_each_rows_np_sum(self, shape, data):
        table = data.draw(arrays(np.float64, shape, elements=st.floats(0.0, 1e6), fill=st.nothing()))
        picked = table[np.arange(shape[0])[::-1]]  # rows gathered by fancy indexing, as the rule takes them
        for array in (table, picked):
            expected = np.array([np.sum(row) for row in array])
            assert array.sum(axis=1).tobytes() == expected.tobytes()

    @given(st.lists(SCORES, min_size=1, max_size=50))
    @settings(max_examples=200)
    def test_times_one_plus_zero_leave_a_score_unchanged(self, scores):
        scores += [0.0, 5e-324, 2.2250738585072009e-308, 1.0, 1e308]  # +0.0, the least and greatest subnormals
        v = np.array(scores)
        out = np.empty_like(v)
        np.multiply(v, np.ones_like(v), out)
        assert out.tobytes() == v.tobytes()
        np.add(np.zeros_like(v), out, out)
        assert out.tobytes() == v.tobytes()
        assert [x * 1.0 + 0.0 for x in scores] == scores
        assert all(str(x * 1.0 + 0.0) == str(x) for x in scores)


class TestDecideBlockContract:
    """What the engine relies on from every policy's ``decide_block``."""

    @pytest.mark.parametrize(
        "spec",
        [
            PolicySpec("optimal"),
            PolicySpec("threshold", t=2),
            PolicySpec("nna"),
            PolicySpec("nna", trigger="threshold", t=1),
            PolicySpec("fna", fna=FnaParams(window=2)),
        ],
        ids=["optimal", "threshold", "nna", "nna-threshold", "fna"],
    )
    def test_moves_codes_and_owners(self, spec):
        topo = reference_topology()
        rng = np.random.default_rng(11)
        num_fragments = 4
        policy = build_policy(spec, num_fragments, hops(topo))
        owners = rng.integers(0, topo.n, num_fragments).tolist()
        moved = 0
        for size in (300, 1, 0, 500, 200, 401):
            fragments = rng.integers(0, num_fragments, size)
            hot = (fragments * 2 + size) % topo.n  # each block moves every fragment's hot site
            requesters = np.where(rng.random(size) < 0.6, hot, rng.integers(0, topo.n, size))
            block = Block(np.arange(size), fragments, requesters, num_fragments)
            carried = list(owners)
            moves, dests, codes, _ = policy.decide_block(block, owners)
            assert owners == carried, "decide_block leaves owners as it found them"
            assert codes.shape == (size,)
            assert np.all((0 <= codes) & (codes < len(policy.reasons)))
            assert np.all(np.diff(moves) > 0), "moves strictly ascend"
            order, bounds = block.by_fragment
            owner_at, after = _forward_fill(block, moves, dests, owners)
            at = order[moves]
            assert not np.any(requesters[at] == owner_at[at]), "no move falls on a local access"
            moving = np.searchsorted(bounds, moves, side="right") - 1  # each move's fragment
            for f in range(num_fragments):
                mine = dests[moving == f]
                assert after[f] == (mine[-1] if mine.size else carried[f])
            owners = after.tolist()
            moved += moves.size
        assert moved > 0

    def test_no_reason_table_holds_local(self):
        table = hops(reference_topology())
        for spec in (PolicySpec("optimal"), PolicySpec("threshold", t=0), PolicySpec("nna"), PolicySpec("fna")):
            assert "local" not in build_policy(spec, 1, table).reasons


class TestBuildPolicy:
    def test_builds_each_kind(self):
        table = hops(complete_topology(3))
        assert isinstance(build_policy(PolicySpec("optimal"), 1, table), OptimalPolicy)
        assert isinstance(build_policy(PolicySpec("threshold", t=2), 1, table), ThresholdPolicy)
        nna = build_policy(PolicySpec("nna"), 1, table)
        assert isinstance(nna, NnaPolicy) and nna.next_hop is table
        fna = build_policy(PolicySpec("fna"), 1, table)
        assert isinstance(fna, FnaPolicy) and fna.next_hop is table

    def test_threshold_needs_t(self):
        with pytest.raises(ValueError):
            build_policy(PolicySpec("threshold"), 1, hops(complete_topology(3)))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_policy(PolicySpec("greedy"), 1, hops(complete_topology(3)))


class TestPolicySpec:
    """One set of parameter rules, met at every entry point.

    A policy reaches the engine as a ``PolicySpec`` built in Python, as a
    config ``policy`` block, or as a ``compare --policies`` token; each
    token must mean exactly its config block, and each invalid
    combination must be refused by all three.
    """

    RUN_DOC = {
        "topology": {"n": 3, "links": [[0, 1], [1, 2], [0, 2]]},
        "workload": {"x_s": 0.5},
        "num_steps": 50,
    }

    @pytest.mark.parametrize(
        "token, block",
        [
            ("optimal", {"name": "optimal"}),
            ("threshold:3", {"name": "threshold", "t": 3}),
            ("nna", {"name": "nna"}),
            ("nna:dominance", {"name": "nna", "trigger": "dominance"}),
            ("nna:threshold:2", {"name": "nna", "trigger": "threshold", "t": 2}),
            ("fna", {"name": "fna"}),
        ],
    )
    def test_token_equals_its_config_block(self, token, block):
        from_block = resolve_run(dict(self.RUN_DOC, policy=block), ".").sim.policy
        assert parse_policy_token(token) == from_block
        assert resolve_run(self.RUN_DOC, ".", policy_override=parse_policy_token(token)).sim.policy == from_block

    # An invalid config block, which doubles as PolicySpec's keyword
    # arguments, and the token that says the same, or None where the token
    # grammar cannot say it.
    INVALID = {
        "t-on-optimal": ({"name": "optimal", "t": 3}, "optimal:3"),
        "t-on-fna": ({"name": "fna", "t": 3}, "fna:3"),
        "t-on-dominance-nna": ({"name": "nna", "t": 5}, "nna:5"),
        "t-on-explicit-dominance-nna": ({"name": "nna", "trigger": "dominance", "t": 5}, "nna:dominance:5"),
        "counter-cap-on-threshold": ({"name": "threshold", "t": 2, "counter_cap": 3}, None),
        "counter-cap-on-fna": ({"name": "fna", "counter_cap": 3}, None),
        "counter-cap-beyond-int64-optimal": ({"name": "optimal", "counter_cap": 2**63}, None),
        "counter-cap-beyond-int64-nna": ({"name": "nna", "counter_cap": 10**30}, None),
        "trigger-on-optimal": ({"name": "optimal", "trigger": "threshold"}, "optimal:threshold"),
        "trigger-on-threshold": ({"name": "threshold", "t": 2, "trigger": "threshold"}, "threshold:threshold:2"),
        "trigger-on-fna": ({"name": "fna", "trigger": "threshold"}, "fna:threshold"),
        "negative-t-threshold": ({"name": "threshold", "t": -1}, "threshold:-1"),
        "negative-t-nna": ({"name": "nna", "trigger": "threshold", "t": -2}, "nna:threshold:-2"),
    }

    @pytest.mark.parametrize("case", list(INVALID))
    def test_invalid_combination_rejected_everywhere(self, case, tmp_path, capsys):
        block, token = self.INVALID[case]
        with pytest.raises(ValueError):
            PolicySpec(**block)

        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(dict(self.RUN_DOC, policy=block)))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "config.policy" in capsys.readouterr().err

        if token is not None:
            cfg.write_text(json.dumps(self.RUN_DOC))
            out = tmp_path / "compare"
            assert main(["compare", "--config", str(cfg), "--policies", f"nna,{token}", "--out", str(out)]) == 2
            assert "--policies" in capsys.readouterr().err
            assert not out.exists()

    def test_fna_params_only_on_fna(self):
        with pytest.raises(ValueError):
            PolicySpec("optimal", fna=FnaParams(window=3))
        assert PolicySpec("fna", fna=FnaParams(window=3)).fna.window == 3
