"""Two roads to the same number.

The simulator estimates designated-site residency by counting where the
fragment actually sat across a million accesses; the lumped chain (and,
for small cases, a brute-force chain over every (owner, counter) pair)
computes the same quantity exactly. This script runs all three on a few
configurations and lines the answers up.
"""

from fragsim import (
    ChainParams,
    PolicySpec,
    SimConfig,
    WorkloadSpec,
    brute_force_stationary,
    complete_topology,
    run,
    threshold_stationary,
)

print("   n   x_s    t    simulated     lumped       brute")
for n, x_s, t in [(3, 0.5, 2), (5, 0.28, 3), (5, 0.12, 4), (6, 0.4, 1)]:
    cfg = SimConfig(
        topology=complete_topology(n),
        sizes=[1.0],
        initial_owners=[0],
        policy=PolicySpec("threshold", t=t),
        workload=WorkloadSpec.symmetric(1, n, x_s, hot=0, seed=42),
        num_steps=1_000_000,
        designated=0,
    )
    o_hat = run(cfg).o_s_hat
    params = ChainParams(n=n, x_s=x_s, t=t)
    lumped = threshold_stationary(params).o_s
    brute = brute_force_stationary(params).o_s
    print(f"   {n}   {x_s:.2f}   {t}    {o_hat:.6f}    {lumped:.6f}   {brute:.6f}")

print()
print("The two chains agree to machine precision; the simulation wobbles")
print("around them with ~1/sqrt(accesses) noise.")
