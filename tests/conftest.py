"""Shared test settings: hypothesis examples run without a per-example deadline.

Simulation examples vary widely in size, so a per-example time limit
would fail on a slow or busy machine rather than on wrong results.
"""

from hypothesis import settings

settings.register_profile("fragsim", deadline=None)
settings.load_profile("fragsim")
