import math
import random
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_engine
from fragsim import workload
from fragsim.workload import (
    NO_NEXT,
    Block,
    EventStream,
    Oscillation,
    WorkloadSpec,
    symmetric_spec,
)


def draw_events(spec, num_steps, fragment=0, rate=1.0, seed=0):
    """Requesters of the events one fragment emits over ``num_steps`` steps."""
    out = []
    for block in EventStream(spec, rate, seed).blocks(num_steps):
        out += block.requesters[block.fragments == fragment].tolist()
    return out


class TestSymmetricSpec:
    def test_two_level_shape(self):
        vec = symmetric_spec(5, 0.28)
        assert vec[0] == pytest.approx(0.28)
        assert np.allclose(vec[1:], 0.18)
        assert vec.sum() == pytest.approx(1.0)

    def test_uniform_point(self):
        assert np.allclose(symmetric_spec(5, 0.2), 0.2)

    def test_hot_site_placement(self):
        vec = symmetric_spec(4, 0.7, hot=2)
        assert vec[2] == pytest.approx(0.7)
        assert vec[0] == pytest.approx(0.1)

    def test_extremes(self):
        assert np.allclose(symmetric_spec(2, 1.0), [1.0, 0.0])
        assert np.allclose(symmetric_spec(3, 0.0), [0.0, 0.5, 0.5])

    def test_validation(self):
        with pytest.raises(ValueError, match="need at least two sites, got n=1"):
            symmetric_spec(1, 0.5)
        with pytest.raises(ValueError, match=r"x_s must lie in \[0, 1\], got 1.2"):
            symmetric_spec(5, 1.2)
        with pytest.raises(ValueError, match=r"x_s must lie in \[0, 1\], got -0.1"):
            symmetric_spec(5, -0.1)
        with pytest.raises(ValueError, match="hot site 9 out of range for n=5"):
            symmetric_spec(5, 0.5, hot=9)


class TestWorkloadSpecValidation:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError, match=r"probs row 0 sums to .*0\.9.*, expected 1"):
            WorkloadSpec(np.array([[0.5, 0.4]]))

    def test_entries_must_be_non_negative(self):
        with pytest.raises(ValueError, match="probs entries must be non-negative"):
            WorkloadSpec(np.array([[1.5, -0.5]]))

    def test_rate_bounds(self):
        # the rate is the stream's, not the distribution's
        spec = WorkloadSpec(np.array([[1.0]]))
        with pytest.raises(ValueError, match=r"rate must lie in \(0, 1\], got 0.0"):
            EventStream(spec, 0.0, 0)
        with pytest.raises(ValueError, match=r"rate must lie in \(0, 1\], got 1.5"):
            EventStream(spec, 1.5, 0)

    def test_seed_bounds(self):
        # random.Random seeds with abs(seed): -1 would draw the stream of 1
        spec = WorkloadSpec(np.array([[1.0]]))
        with pytest.raises(ValueError, match=r"seed must be an integer >= 0, got -1"):
            EventStream(spec, 1.0, -1)
        with pytest.raises(ValueError, match=r"seed must be an integer >= 0, got True"):
            EventStream(spec, 1.0, True)
        EventStream(spec, 1.0, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="probs row 0 sums to .*, expected 1"):
            WorkloadSpec(np.array([[bad, 1.0]]))

    def test_zero_mass_in_the_swapped_phase(self):
        # all mass is on the one active site, until the oscillation moves it away
        with pytest.raises(ValueError, match="fragment 0 has zero probability mass on the active sites"):
            WorkloadSpec(np.array([[1.0, 0.0]]), active=(0,), oscillation=Oscillation(0, 1, 10))

    def test_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match=r"probs must be 2-D \(fragments x sites\)"):
            WorkloadSpec(np.array([1.0]))

    def test_empty_active_set(self):
        with pytest.raises(ValueError, match="active site set is empty"):
            WorkloadSpec(np.array([[0.5, 0.5]]), active=())

    def test_active_out_of_range(self):
        with pytest.raises(ValueError, match=r"active sites \(0, 5\) out of range for n=2"):
            WorkloadSpec(np.array([[0.5, 0.5]]), active=(0, 5))

    def test_oscillation_site_range(self):
        with pytest.raises(ValueError, match=r"oscillation sites \(0, 7\) out of range for n=2"):
            WorkloadSpec(np.array([[0.5, 0.5]]), oscillation=Oscillation(0, 7, 10))

    def test_oscillation_validation(self):
        with pytest.raises(ValueError, match="oscillation sites must differ"):
            Oscillation(1, 1, 10)
        with pytest.raises(ValueError, match="oscillation period must be >= 1, got 0"):
            Oscillation(0, 1, 0)
        with pytest.raises(ValueError, match=r"oscillation period must be below 2\*\*63, got 9223372036854775808"):
            Oscillation(0, 1, 2**63)

    def test_symmetric_constructor(self):
        spec = WorkloadSpec.symmetric(3, 5, 0.28)
        assert spec.num_fragments == 3
        assert spec.num_sites == 5
        assert np.allclose(spec.probs[2], symmetric_spec(5, 0.28))


class TestSamplingTables:
    @given(
        rows=st.lists(
            st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=12, max_size=12).filter(any),
            min_size=1,
            max_size=3,
        ),
        active=st.one_of(st.none(), st.sets(st.integers(0, 11), min_size=1)),
        oscillate=st.booleans(),
    )
    @settings(max_examples=200)
    def test_tables_are_running_sums_left_to_right(self, rows, active, oscillate):
        # With 12 sites, a pairwise sum of 9 or more masses takes another path than accumulate.
        probs = np.array(rows)
        probs /= probs.sum(axis=1, keepdims=True)
        sites = sorted(active) if active is not None else list(range(12))
        osc = Oscillation(1, 10, 5) if oscillate else None
        phases = [probs] + ([probs[:, [0, 10, 2, 3, 4, 5, 6, 7, 8, 9, 1, 11]]] if oscillate else [])
        try:
            spec = WorkloadSpec(probs, active=None if active is None else tuple(active), oscillation=osc)
        except ValueError as exc:
            assert "zero probability mass on the active sites" in str(exc)
            assert any(not table[:, sites].any(axis=1).all() for table in phases)
            return
        assert spec.sites.tolist() == sites
        assert spec.table.shape == (len(phases), len(rows), len(sites))
        for table, phase in zip(spec.table, phases):
            for f in range(len(rows)):
                assert table[f].tolist() == list(accumulate(float(phase[f, s]) for s in sites))


class TestEventStream:
    def test_block_draws_replay_random(self):
        # getrandbits fills its integer with 32-bit outputs least significant
        # word first; the block draws rely on that order
        stream = EventStream(WorkloadSpec(np.array([[1.0]])), 1.0, 31)
        reference = random.Random(31)
        for count in (1, 4096, 3):
            assert stream._draws(count).tolist() == [reference.random() for _ in range(count)]
        assert stream._rng.random() == reference.random(), "generator left in step"

    def test_deterministic_requester(self):
        spec = WorkloadSpec(np.array([[0.0, 1.0, 0.0]]))
        events = draw_events(spec, 50, seed=5)
        assert len(events) == 50
        assert all(r == 1 for r in events)

    def test_same_seed_same_stream(self):
        spec = WorkloadSpec.symmetric(1, 5, 0.28)
        a = draw_events(spec, 2000, seed=77)
        b = draw_events(spec, 2000, seed=77)
        assert a == b

    def test_different_seeds_differ(self):
        spec = WorkloadSpec.symmetric(1, 5, 0.5)
        a = draw_events(spec, 200, seed=1)
        b = draw_events(spec, 200, seed=2)
        assert a != b

    def test_rate_thins_the_stream(self):
        events = draw_events(WorkloadSpec(np.array([[1.0]])), 10_000, rate=0.3, seed=11)
        sigma = math.sqrt(10_000 * 0.3 * 0.7)
        assert abs(len(events) - 3000) <= 4 * sigma

    def test_empirical_frequencies_match_probabilities(self):
        events = draw_events(WorkloadSpec.symmetric(1, 5, 0.28), 20_000, seed=123)
        hot = sum(1 for r in events if r == 0)
        sigma = math.sqrt(20_000 * 0.28 * 0.72)
        assert abs(hot - 20_000 * 0.28) <= 4 * sigma

    def test_active_set_restricts_and_renormalizes(self):
        spec = WorkloadSpec(np.array([[0.1, 0.2, 0.3, 0.4]]), active=(1, 3))
        events = draw_events(spec, 20_000, seed=21)
        assert set(events) == {1, 3}
        # ratios 0.2 : 0.4 renormalise to 1/3 : 2/3
        freq1 = sum(1 for r in events if r == 1) / len(events)
        sigma = math.sqrt((1 / 3) * (2 / 3) / len(events))
        assert abs(freq1 - 1 / 3) <= 4 * sigma

    def test_zero_mass_on_active_sites(self):
        with pytest.raises(ValueError, match="fragment 0 has zero probability mass on the active sites"):
            spec = WorkloadSpec(np.array([[1.0, 0.0]]), active=(1,))
            EventStream(spec, 1.0, 0)

    def test_oscillation_swaps_in_exact_blocks(self):
        spec = WorkloadSpec(np.array([[1.0, 0.0]]), oscillation=Oscillation(0, 1, period=5))
        expected = ([0] * 5 + [1] * 5) * 3
        assert draw_events(spec, 30, seed=4) == expected

    def test_oscillation_period_counts_emitted_events_not_steps(self):
        # with rate 0.5 the phase boundary still falls after 5 events
        spec = WorkloadSpec(np.array([[1.0, 0.0]]), oscillation=Oscillation(0, 1, period=5))
        requesters = draw_events(spec, 200, rate=0.5, seed=4)[:20]
        assert requesters == [0] * 5 + [1] * 5 + [0] * 5 + [1] * 5

    def test_oscillation_preserves_total_mass(self):
        spec = WorkloadSpec.symmetric(1, 9, 0.8, hot=6, oscillation=Oscillation(6, 7, 50))
        events = draw_events(spec, 5000, seed=8)
        # sites 6 and 7 together hold 0.8 + 0.025 of the mass in every phase
        both = sum(1 for r in events if r in (6, 7))
        p = 0.8 + (1 - 0.8) / 8
        sigma = math.sqrt(len(events) * p * (1 - p))
        assert abs(both - len(events) * p) <= 4 * sigma

    @pytest.mark.parametrize("block", [1, 2])
    def test_blocks_without_a_miss_match_the_reference(self, monkeypatch, block):
        # At rate 0.95 most blocks of one or two trials draw no miss and skip
        # the search for trial starts; the blocks that miss carry draws over
        # into them. Three fragments put a block's first trial on each.
        spec = WorkloadSpec.symmetric(3, 5, 0.4, oscillation=Oscillation(0, 2, 3))
        monkeypatch.setattr(workload, "BLOCK_TRIALS", block)
        blocks = list(EventStream(spec, 0.95, 7).blocks(400))
        every_trial_emits = sum(b.fragments.size == block for b in blocks)
        assert every_trial_emits > 0.8 * len(blocks) and every_trial_emits < len(blocks)
        events = []
        for b in blocks:
            events += zip(b.steps.tolist(), b.fragments.tolist(), b.requesters.tolist())
        assert events == list(reference_engine.events(spec, 0.95, 7, 400))

    def test_many_unequal_fragments_match_the_reference(self):
        # 240 fragments fill a block of trials every 17 steps or so; a period
        # of 3 emitted events flips phases within blocks and across them, and
        # with 5 active sites the halving search probes past a row's end.
        r = random.Random(11)
        rows = [[r.random() if r.random() < 0.7 else 0.0 for _ in range(9)] for _ in range(240)]
        for row in rows:
            row[0] += 0.01  # every row keeps mass on the active sites in both phases
        probs = np.array(rows)
        probs /= probs.sum(axis=1, keepdims=True)
        spec = WorkloadSpec(probs, active=(0, 2, 3, 5, 8), oscillation=Oscillation(2, 7, 3))
        blocks = list(EventStream(spec, 0.7, 5).blocks(120))
        assert len(blocks) >= 3
        events = []
        for b in blocks:
            events += zip(b.steps.tolist(), b.fragments.tolist(), b.requesters.tolist())
        assert events == list(reference_engine.events(spec, 0.7, 5, 120))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_streams_are_reproducible_for_any_seed(self, seed):
        spec = WorkloadSpec.symmetric(1, 4, 0.4)
        assert draw_events(spec, 300, rate=0.7, seed=seed) == draw_events(spec, 300, rate=0.7, seed=seed)


class TestBlockIndex:
    @given(
        num_fragments=st.integers(1, 4),
        events=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6)), max_size=60),
    )
    @settings(max_examples=150)
    def test_matches_a_scan(self, num_fragments, events):
        fragments = [f % num_fragments for f, _ in events]
        requesters = [r for _, r in events]
        m = len(events)
        block = Block(np.zeros(m, dtype=np.intp), np.array(fragments, dtype=np.intp), np.array(requesters, dtype=np.intp), num_fragments)
        order, bounds = block.by_fragment
        for f in range(num_fragments):
            assert order[bounds[f] : bounds[f + 1]].tolist() == [i for i in range(m) if fragments[i] == f]
        index = block.index
        pairs = [(fragments[i], requesters[i]) for i in order.tolist()]  # by grouped position
        assert index.requesters.tolist() == [r for _, r in pairs]
        assert index.by_site.tolist() == sorted(range(m), key=lambda p: (pairs[p], p))
        for p, gap in zip(index.by_site.tolist(), index.gaps.tolist()):
            later = [q for q in range(p + 1, m) if pairs[q] == pairs[p]]
            assert gap == (later[0] - p if later else NO_NEXT)
        assert index.width == max(requesters, default=0) + 1
        for f in range(num_fragments):
            for s in range(index.width):
                at = [p for p in range(m) if pairs[p] == (f, s)]
                assert index.first[f * index.width + s] == (at[0] if at else m)
                assert index.last[f * index.width + s] == (at[-1] if at else -1)
