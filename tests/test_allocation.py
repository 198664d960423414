"""Per-fragment allocation state: fragment sizes and saturating counters."""

import pytest

from fragsim.engine import Fragment
from fragsim.policies import OptimalPolicy


class TestFragment:
    def test_defaults(self):
        frag = Fragment(0)
        assert frag.size == 1.0

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            Fragment(0, 0.0)
        with pytest.raises(ValueError):
            Fragment(1, -2.0)


class TestCounterCap:
    def test_saturates_instead_of_growing(self):
        policy = OptimalPolicy(1, 3, counter_cap=10)
        for _ in range(25):
            policy.decide(0, 0, 0)
        assert policy.counters[0][0] == 10

    def test_cap_blocks_dominance_forever(self):
        # Once the owner's counter sits at the cap, a challenger can tie
        # it but never strictly exceed it, so the fragment stops moving
        # no matter how one-sided the workload becomes. This is the
        # saturation anomaly the cap option exists to demonstrate.
        policy = OptimalPolicy(1, 2, counter_cap=5)
        for _ in range(5):
            assert policy.decide(0, 0, 0) == -1
        for _ in range(100):
            assert policy.decide(0, 1, 0) == -1
            if policy.counters[0][1] == 5:
                assert policy.counters[0][0] == 5, "both stuck at the cap"
        # without a cap the very same sequence migrates as soon as the
        # challenger passes the owner's five accesses
        unbounded = OptimalPolicy(1, 2)
        for _ in range(5):
            unbounded.decide(0, 0, 0)
        moved_at = None
        for k in range(100):
            if unbounded.decide(0, 1, 0) >= 0:
                moved_at = k
                break
        assert moved_at == 5, "sixth remote access exceeds five local ones"
