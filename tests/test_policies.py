"""Policy behaviour, from scripted single traces up to property checks."""

import csv
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragsim.cli import main
from fragsim.config import parse_policy_token, resolve_run
from fragsim.engine import SimConfig, run
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
from fragsim.workload import WorkloadSpec


def hops(topo):
    """The topology's next-hop table as the lists nna and fna route with."""
    return topo.next_hop_matrix.tolist()


def drive(policy, initial_owner, requesters, fragment=0):
    """Feed a requester sequence through a policy, applying its moves.

    Returns the owner sequence, and per access the destination (-1 for a
    stay) and the policy's reason.
    """
    owner = initial_owner
    owners = [owner]
    dests = []
    reasons = []
    for requester in requesters:
        dest = policy.decide(fragment, requester, owner)
        dests.append(dest)
        reasons.append(policy.reason)
        if dest >= 0:
            assert dest != owner, "a move never targets the current owner"
            owner = dest
            owners.append(owner)
    return owners, dests, reasons


class TestOptimal:
    def test_first_remote_access_wins_fresh_counters(self):
        policy = OptimalPolicy(1, 3)
        owners, dests, _ = drive(policy, 0, [2])
        assert dests[0] == 2
        assert owners == [0, 2]

    def test_strict_dominance_required(self):
        policy = OptimalPolicy(1, 2)
        # owner banks 4 accesses; challenger ties at 4, moves on the 5th
        _, dests, _ = drive(policy, 0, [0, 0, 0, 0, 1, 1, 1, 1, 1])
        moves = [d for d in dests if d >= 0]
        assert len(moves) == 1
        assert dests[-1] >= 0, "only the access that breaks the tie migrates"
        assert policy.counters[0] == [4, 5]

    def test_local_access_never_moves(self):
        policy = OptimalPolicy(1, 4)
        assert policy.decide(0, 1, 1) == -1
        assert policy.reason == "local"
        assert policy.counters[0][1] == 1, "local accesses still count"

    def test_counters_travel_with_fragment(self):
        policy = OptimalPolicy(1, 3)
        owners, _, _ = drive(policy, 0, [1, 2, 2])
        # after moving to 1 the old row keeps informing decisions
        assert owners == [0, 1, 2]
        assert policy.counters[0] == [0, 1, 2]

    @given(
        num_sites=st.integers(2, 5),
        requesters=st.lists(st.integers(0, 4), min_size=1, max_size=120),
    )
    @settings(max_examples=80, deadline=None)
    def test_owner_counter_is_weak_row_max(self, num_sites, requesters):
        requesters = [r % num_sites for r in requesters]
        policy = OptimalPolicy(1, num_sites)
        owner = 0
        for requester in requesters:
            before = list(policy.counters[0])
            dest = policy.decide(0, requester, owner)
            after = list(policy.counters[0])
            expected_moved = requester != owner and after[requester] > before[owner]
            assert (dest >= 0) == expected_moved
            if dest >= 0:
                owner = dest
            assert after[owner] == max(after)


def drive_block(policy, initial_owner, requesters):
    """``drive`` for one block of one fragment through ``decide_block``."""
    owners = [initial_owner]
    fragments = np.zeros(len(requesters), dtype=np.intp)
    owner_at, moves, dests, reasons, _ = policy.decide_block(fragments, np.array(requesters, dtype=np.intp), owners, True)
    assert not np.any(owner_at[moves] == dests), "a move never targets the current owner"
    per_access = [-1] * len(requesters)
    for i, dest in zip(moves.tolist(), dests.tolist()):
        per_access[i] = dest
    trail = [initial_owner] + dests.tolist()
    assert owners == trail[-1:]
    return trail, per_access, reasons


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
    owner_at, moves, dests, reasons, inhibitions = policy.decide_block(
        np.array(fragments, dtype=np.intp), np.array(requesters, dtype=np.intp), owners, True
    )
    assert inhibitions is None
    per_access = [-1] * len(requesters)
    for i, dest in zip(moves.tolist(), dests.tolist()):
        per_access[i] = dest
    return list(zip(owner_at.tolist(), per_access, reasons))


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
    @settings(max_examples=80, deadline=None)
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
            workload=WorkloadSpec.symmetric(3, 4, 0.4, hot=1, rate=0.7, seed=5),
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
        owners, dests, reasons = drive(policy, 0, [2, 2])
        assert dests[0] == 1
        assert reasons[0] == "toward:2"
        assert owners == [0, 1, 2]

    def test_walkthrough_on_reference_topology(self):
        # fragment starts at A(0); all traffic comes from E(4), G(6),
        # H(7), I(8), so it walks A -> C -> B -> G whatever the order
        policy = NnaPolicy(1, hops(reference_topology()))
        rng = random.Random(3)
        requesters = [rng.choice([4, 6, 7, 8]) for _ in range(60)]
        owners, _, _ = drive(policy, 0, requesters)
        assert owners[:4] == [0, 2, 1, 6]

    def test_argmax_tie_breaks_to_lowest_site(self):
        policy = NnaPolicy(1, hops(complete_topology(4)))
        policy.counters[0] = [0, 5, 5, 4]
        dest = policy.decide(0, 3, 0)
        # requester 3 climbs to 5 too: three sites tied at the top, the
        # lowest-numbered one is chosen as the walk target
        assert dest == 1
        assert policy.reason == "toward:1"

    def test_threshold_trigger_counts_remote_accesses(self):
        topo = build_topology(3, [(0, 1), (1, 2)])
        policy = NnaPolicy(1, hops(topo), trigger="threshold", t=2)
        owners, dests, _ = drive(policy, 0, [2, 2, 2, 2])
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
        assert policy.decide(0, 2, 1) == -1
        assert policy.reason == "at-target"

    @given(
        requesters=st.lists(st.integers(0, 8), min_size=1, max_size=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_move_is_one_hop_toward_the_argmax(self, requesters):
        topo = reference_topology()
        links = {(ln.a, ln.b) for ln in topo.links} | {(ln.b, ln.a) for ln in topo.links}
        policy = NnaPolicy(1, hops(topo))
        owner = 0
        for requester in requesters:
            dest = policy.decide(0, requester, owner)
            if dest >= 0:
                target = int(policy.reason.split(":")[1])
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
    @settings(max_examples=100, deadline=None)
    def test_inhibition_bounded_and_monotone_pieces(self, x, y):
        value = oscillation_inhibition(x, y)
        assert 0.0 <= value <= 1.0
        # fully calm history can never inhibit
        if y == 0.0 and x <= 0.5:
            assert value == 0.0


class TestFna:
    def test_decay_and_bump(self):
        policy = FnaPolicy(1, hops(complete_topology(3)), FnaParams(window=100))
        policy.decide(0, 1, 0)
        policy.decide(0, 2, 0)
        assert policy.vectors[0] == pytest.approx([0.0, 0.95, 1.0])

    def test_moves_one_hop_toward_best_scoring_site(self):
        topo = build_topology(3, [(0, 1), (1, 2)])
        policy = FnaPolicy(1, hops(topo), FnaParams(window=1))
        assert policy.decide(0, 2, 0) == 1
        assert policy.reason == "toward:2"
        assert list(policy._history[0]) == [1], "the move is recorded in the history"

    def test_local_access_always_stays(self):
        topo = build_topology(3, [(0, 1), (1, 2)])
        policy = FnaPolicy(1, hops(topo), FnaParams(window=1))
        policy.vectors[0] = [0.0, 0.0, 50.0]  # evaluation wants to leave
        assert policy.decide(0, 0, 0) == -1
        assert policy.reason == "local"
        assert policy.inhibition is not None, "the evaluation still ran"

    def test_small_gap_blocks_the_move(self):
        topo = build_topology(2, [(0, 1)])
        policy = FnaPolicy(1, hops(topo), FnaParams(window=2, min_gap=0.05))
        policy.decide(0, 0, 0)
        # scores 0.95 vs 1.0: gap just over 0.025, below min_gap
        assert policy.decide(0, 1, 0) == -1
        assert policy.reason == "gap-below-min"

    def test_inhibited_when_history_is_ping_pong_and_scores_churn(self):
        topo = build_topology(3, [(0, 1), (1, 2)])
        policy = FnaPolicy(1, hops(topo), FnaParams(window=1))
        policy._history[0].extend([1, 2, 1, 2, 1, 2])  # plant a perfect alternation
        assert policy.decide(0, 2, 0) == -1
        assert policy.reason == "inhibited"
        assert policy.inhibition == pytest.approx(1.0)

    def test_between_windows_nothing_happens(self):
        policy = FnaPolicy(1, hops(complete_topology(3)), FnaParams(window=5))
        for _ in range(4):
            assert policy.decide(0, 2, 0) == -1
            assert policy.reason == "no-eval"
            assert policy.inhibition is None
        assert policy.decide(0, 2, 0) >= 0, "fifth event completes the window"

    def test_history_is_bounded(self):
        # on the path 0-1-...-10 with every access from site 10, each
        # evaluation takes one more hop; only the last four are kept
        path = build_topology(11, [(k, k + 1) for k in range(10)])
        policy = FnaPolicy(1, hops(path), FnaParams(window=1, history=4))
        owners, _, _ = drive(policy, 0, [10] * 10)
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
        with pytest.raises(ValueError):
            FnaParams(inhibition_cutoff=1.5)
        with pytest.raises(ValueError):
            FnaParams(min_gap=-0.1)
        with pytest.raises(ValueError):
            FnaParams(eps=0.0)

    @pytest.mark.parametrize("field", ["decay", "inhibition_cutoff", "min_gap", "eps"])
    def test_nan_fails_every_float_bound(self, field):
        with pytest.raises(ValueError, match=field):
            FnaParams(**{field: float("nan")})


class TestBuildPolicy:
    def test_builds_each_kind(self):
        table = hops(complete_topology(3))
        assert isinstance(build_policy(PolicySpec("optimal"), 1, 3, table), OptimalPolicy)
        assert isinstance(build_policy(PolicySpec("threshold", t=2), 1, 3, table), ThresholdPolicy)
        nna = build_policy(PolicySpec("nna"), 1, 3, table)
        assert isinstance(nna, NnaPolicy) and nna.next_hop is table
        fna = build_policy(PolicySpec("fna"), 1, 3, table)
        assert isinstance(fna, FnaPolicy) and fna.next_hop is table

    def test_threshold_needs_t(self):
        with pytest.raises(ValueError):
            build_policy(PolicySpec("threshold"), 1, 3, hops(complete_topology(3)))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_policy(PolicySpec("greedy"), 1, 3, hops(complete_topology(3)))


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
