"""Deterministic simulator and analysis toolkit for dynamic fragment
allocation in non-replicated distributed databases.

The package splits into a small set of composable layers: site graphs
with precomputed routing (:mod:`~fragsim.topology`), the four migration
policies (:mod:`~fragsim.policies`), reproducible access streams
(:mod:`~fragsim.workload`), the simulation loop (:mod:`~fragsim.engine`),
the analytical steady-state model (:mod:`~fragsim.oracle`), and a JSON
config layer plus CLI on top.
"""

from .config import parse_policy_token
from .engine import SimConfig, SimMetrics, run
from .fixtures import reference_topology, reference_topology_dict, site_name
from .oracle import ChainParams, brute_force_stationary, threshold_stationary
from .policies import PolicySpec, build_policy
from .topology import build_topology, complete_topology
from .workload import Oscillation, WorkloadSpec

__version__ = "0.1.0"

__all__ = [
    "ChainParams",
    "Oscillation",
    "PolicySpec",
    "SimConfig",
    "SimMetrics",
    "WorkloadSpec",
    "brute_force_stationary",
    "build_policy",
    "build_topology",
    "complete_topology",
    "parse_policy_token",
    "reference_topology",
    "reference_topology_dict",
    "run",
    "site_name",
    "threshold_stationary",
]
