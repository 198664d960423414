"""Watch a fragment walk home one hop at a time.

Nine sites A..I in the bundled reference network, a fragment parked at
A, and all accesses coming from the far cluster {E, G, H, I}. The
nearest-neighbour policy never teleports: each migration is a single
hop along a shortest path toward whichever site currently leads the
access count, so the fragment drifts A -> C -> B -> G and afterwards
only shuffles between the hub G and its leaves as the lead changes.
"""

import csv

from fragsim import (
    PolicySpec,
    SimConfig,
    WorkloadSpec,
    reference_topology,
    run,
    site_name,
)

topo = reference_topology()
probs = [[0.0] * 9]
for site in (4, 6, 7, 8):
    probs[0][site] = 0.25

cfg = SimConfig(
    topology=topo,
    sizes=[1.0],
    initial_owners=[0],
    policy=PolicySpec("nna"),
    workload=WorkloadSpec(probs=probs),
    num_steps=200,
    seed=7,
    designated=6,
)
log = []  # the decision log, one CSV line per access
metrics = run(cfg, log.append)

print("accesses concentrated on {E, G, H, I}, fragment starts at A")
print()
for row in csv.DictReader(log):
    if row["decision"] != "move":
        continue
    target = row["trigger_reason"].split(":", 1)[1]
    print(
        f"  step {int(row['step']):>3}: {site_name(int(row['owner_before']))} -> {site_name(int(row['dest']))}"
        f"   (heading for {site_name(int(target))}, request came from {site_name(int(row['requester']))})"
    )

final = metrics.final_owners[0]
print()
print(f"final owner: {site_name(final)}   residency at G: {metrics.o_s_hat:.2f}")
print(f"{metrics.migrations} one-hop migrations, {metrics.accesses_total} accesses")
