import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragsim.workload import (
    EmptyActiveSetError,
    EventStream,
    InvalidProbabilityError,
    Oscillation,
    WorkloadSpec,
    symmetric_spec,
)


def draw_events(spec, num_steps, fragment=0):
    """Requesters of the events one fragment emits over ``num_steps`` trials."""
    stream = EventStream(spec)
    out = []
    for _ in range(num_steps):
        requester = stream.next_event(fragment)
        if requester is not None:
            out.append(requester)
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
        with pytest.raises(InvalidProbabilityError):
            symmetric_spec(1, 0.5)
        with pytest.raises(InvalidProbabilityError):
            symmetric_spec(5, 1.2)
        with pytest.raises(InvalidProbabilityError):
            symmetric_spec(5, -0.1)
        with pytest.raises(InvalidProbabilityError):
            symmetric_spec(5, 0.5, hot=9)


class TestWorkloadSpecValidation:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(InvalidProbabilityError):
            WorkloadSpec(np.array([[0.5, 0.4]]))

    def test_entries_must_be_non_negative(self):
        with pytest.raises(InvalidProbabilityError):
            WorkloadSpec(np.array([[1.5, -0.5]]))

    def test_rate_bounds(self):
        with pytest.raises(InvalidProbabilityError):
            WorkloadSpec(np.array([[1.0]]), rate=0.0)
        with pytest.raises(InvalidProbabilityError):
            WorkloadSpec(np.array([[1.0]]), rate=1.5)

    def test_must_be_two_dimensional(self):
        with pytest.raises(InvalidProbabilityError):
            WorkloadSpec(np.array([1.0]))

    def test_empty_active_set(self):
        with pytest.raises(EmptyActiveSetError):
            WorkloadSpec(np.array([[0.5, 0.5]]), active=())

    def test_active_out_of_range(self):
        with pytest.raises(InvalidProbabilityError):
            WorkloadSpec(np.array([[0.5, 0.5]]), active=(0, 5))

    def test_oscillation_site_range(self):
        with pytest.raises(InvalidProbabilityError):
            WorkloadSpec(np.array([[0.5, 0.5]]), oscillation=Oscillation(0, 7, 10))

    def test_oscillation_validation(self):
        with pytest.raises(InvalidProbabilityError):
            Oscillation(1, 1, 10)
        with pytest.raises(InvalidProbabilityError):
            Oscillation(0, 1, 0)

    def test_symmetric_constructor(self):
        spec = WorkloadSpec.symmetric(3, 5, 0.28, seed=9)
        assert spec.num_fragments == 3
        assert spec.num_sites == 5
        assert np.allclose(spec.probs[2], symmetric_spec(5, 0.28))


class TestEventStream:
    def test_deterministic_requester(self):
        spec = WorkloadSpec(np.array([[0.0, 1.0, 0.0]]), seed=5)
        events = draw_events(spec, 50)
        assert len(events) == 50
        assert all(r == 1 for r in events)

    def test_same_seed_same_stream(self):
        spec = WorkloadSpec.symmetric(1, 5, 0.28, seed=77)
        a = draw_events(spec, 2000)
        b = draw_events(spec, 2000)
        assert a == b

    def test_different_seeds_differ(self):
        a = draw_events(WorkloadSpec.symmetric(1, 5, 0.5, seed=1), 200)
        b = draw_events(WorkloadSpec.symmetric(1, 5, 0.5, seed=2), 200)
        assert a != b

    def test_rate_thins_the_stream(self):
        spec = WorkloadSpec(np.array([[1.0]]), rate=0.3, seed=11)
        events = draw_events(spec, 10_000)
        sigma = math.sqrt(10_000 * 0.3 * 0.7)
        assert abs(len(events) - 3000) <= 4 * sigma

    def test_empirical_frequencies_match_probabilities(self):
        spec = WorkloadSpec.symmetric(1, 5, 0.28, seed=123)
        events = draw_events(spec, 20_000)
        hot = sum(1 for r in events if r == 0)
        sigma = math.sqrt(20_000 * 0.28 * 0.72)
        assert abs(hot - 20_000 * 0.28) <= 4 * sigma

    def test_active_set_restricts_and_renormalizes(self):
        spec = WorkloadSpec(np.array([[0.1, 0.2, 0.3, 0.4]]), active=(1, 3), seed=21)
        events = draw_events(spec, 20_000)
        assert set(events) == {1, 3}
        # ratios 0.2 : 0.4 renormalise to 1/3 : 2/3
        freq1 = sum(1 for r in events if r == 1) / len(events)
        sigma = math.sqrt((1 / 3) * (2 / 3) / len(events))
        assert abs(freq1 - 1 / 3) <= 4 * sigma

    def test_zero_mass_on_active_sites(self):
        spec = WorkloadSpec(np.array([[1.0, 0.0]]), active=(1,))
        with pytest.raises(EmptyActiveSetError):
            EventStream(spec)

    def test_oscillation_swaps_in_exact_blocks(self):
        spec = WorkloadSpec(
            np.array([[1.0, 0.0]]),
            oscillation=Oscillation(0, 1, period=5),
            seed=4,
        )
        expected = ([0] * 5 + [1] * 5) * 3
        assert draw_events(spec, 30) == expected

    def test_oscillation_period_counts_emitted_events_not_steps(self):
        # with rate 0.5 the phase boundary still falls after 5 events
        spec = WorkloadSpec(
            np.array([[1.0, 0.0]]),
            rate=0.5,
            oscillation=Oscillation(0, 1, period=5),
            seed=4,
        )
        requesters = draw_events(spec, 200)[:20]
        assert requesters == [0] * 5 + [1] * 5 + [0] * 5 + [1] * 5

    def test_oscillation_preserves_total_mass(self):
        spec = WorkloadSpec.symmetric(
            1, 9, 0.8, hot=6, seed=8, oscillation=Oscillation(6, 7, 50)
        )
        events = draw_events(spec, 5000)
        # sites 6 and 7 together hold 0.8 + 0.025 of the mass in every phase
        both = sum(1 for r in events if r in (6, 7))
        p = 0.8 + (1 - 0.8) / 8
        sigma = math.sqrt(len(events) * p * (1 - p))
        assert abs(both - len(events) * p) <= 4 * sigma

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_streams_are_reproducible_for_any_seed(self, seed):
        spec = WorkloadSpec.symmetric(1, 4, 0.4, rate=0.7, seed=seed)
        assert draw_events(spec, 300) == draw_events(spec, 300)
