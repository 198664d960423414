"""Deterministic simulator and analysis toolkit for dynamic fragment
allocation in non-replicated distributed databases.

The package splits into a small set of composable layers: site graphs
with precomputed routing (:mod:`~fragsim.topology`), the four migration
policies (:mod:`~fragsim.policies`), reproducible access streams
(:mod:`~fragsim.workload`), the simulation loop and its fragments
(:mod:`~fragsim.engine`), the analytical steady-state model
(:mod:`~fragsim.oracle`), and a JSON config layer plus CLI on top.
"""

from .config import parse_policy_token
from .engine import DecisionRecord, Fragment, SimConfig, SimMetrics, estimate_os, run
from .fixtures import reference_topology, reference_topology_dict, site_name, write_fixtures
from .oracle import (
    ChainParams,
    StationaryResult,
    brute_force_stationary,
    owner_access_probability,
    threshold_stationary,
)
from .policies import (
    FnaParams,
    FnaPolicy,
    NnaPolicy,
    OptimalPolicy,
    PolicySpec,
    ThresholdPolicy,
    build_policy,
)
from .topology import Link, Topology, build_topology, complete_topology, load_topology, save_topology
from .workload import EventStream, Oscillation, WorkloadSpec, symmetric_spec

__version__ = "0.1.0"

__all__ = [
    "ChainParams",
    "DecisionRecord",
    "EventStream",
    "FnaParams",
    "FnaPolicy",
    "Fragment",
    "Link",
    "NnaPolicy",
    "OptimalPolicy",
    "Oscillation",
    "PolicySpec",
    "SimConfig",
    "SimMetrics",
    "StationaryResult",
    "ThresholdPolicy",
    "Topology",
    "WorkloadSpec",
    "brute_force_stationary",
    "build_policy",
    "build_topology",
    "complete_topology",
    "estimate_os",
    "load_topology",
    "owner_access_probability",
    "parse_policy_token",
    "reference_topology",
    "reference_topology_dict",
    "run",
    "save_topology",
    "site_name",
    "symmetric_spec",
    "threshold_stationary",
    "write_fixtures",
]
