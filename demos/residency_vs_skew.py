"""How often does the fragment sit at its designated site?

One fragment on a complete 5-site network, one site holding a share x_s
of the accesses, the rest spread evenly. With threshold t=0 the fragment
chases every requester, so designated-site residency lands exactly on
x_s (the slope-1 line). Larger thresholds bend the curve toward 0 or 1
depending on which side of 1/n the skew sits.

The chain oracle gives the exact steady-state value next to each
simulated estimate.
"""

from fragsim import (
    ChainParams,
    PolicySpec,
    SimConfig,
    WorkloadSpec,
    complete_topology,
    run,
    threshold_stationary,
)

N = 5
STEPS = 200_000

print(f"{N} sites, complete network, {STEPS} accesses per point")
print()
print("  x_s     t=0 sim / exact      t=3 sim / exact      t=10 sim / exact")
for k in range(1, 10):
    x_s = round(0.1 * k, 1)
    cells = []
    for t in (0, 3, 10):
        cfg = SimConfig(
            topology=complete_topology(N),
            sizes=[1.0],
            initial_owners=[0],
            policy=PolicySpec("threshold", t=t),
            workload=WorkloadSpec.symmetric(1, N, x_s, hot=0),
            num_steps=STEPS,
            seed=k,
            designated=0,
        )
        o_hat = run(cfg).o_s_hat
        o_exact = threshold_stationary(ChainParams(n=N, x_s=x_s, t=t)).o_s
        cells.append(f"{o_hat:.3f} / {o_exact:.3f}")
    print(f"  {x_s:.1f}   " + "      ".join(cells))

print()
print("t=0 reads back the skew itself; t=10 pushes residency toward an")
print("all-or-nothing split around the x_s = 1/n = 0.2 symmetry point.")
