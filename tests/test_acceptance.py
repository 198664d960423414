"""Acceptance checklist: one test per headline behaviour of the package.

Run with ``pytest tests/test_acceptance.py -v -s``. Every test prints a
single ``[acceptance NN] PASS/FAIL label: detail`` line before asserting,
so a full run reads as a checklist. The numbered tests cover the core
claims (residency laws, oracle agreement, policy properties, determinism);
the trailing ``s*`` tests pin qualitative directions of the bundled sweep
experiments. Everything is seeded, so results are stable across reruns.
"""

import csv
import json
import random
import statistics
import time

import numpy as np

from fragsim.cli import main
from fragsim.config import resolve_run
from fragsim.engine import SimConfig, _forward_fill, run
from fragsim.fixtures import reference_topology, site_name, write_fixtures
from fragsim.oracle import ChainParams, brute_force_stationary, threshold_stationary
from fragsim.policies import PolicySpec, build_policy
from fragsim.topology import build_topology, complete_topology
from fragsim.workload import Block, Oscillation, WorkloadSpec


def _report(tag, label, ok, detail) -> None:
    print(f"[acceptance {tag}] {'PASS' if ok else 'FAIL'} {label}: {detail}")


def _threshold_run(n, x_s, t, num_steps, seed):
    cfg = SimConfig(
        topology=complete_topology(n),
        sizes=[1.0],
        initial_owners=[0],
        policy=PolicySpec("threshold", t=t),
        workload=WorkloadSpec.symmetric(1, n, x_s, hot=0),
        num_steps=num_steps,
        seed=seed,
        designated=0,
    )
    return run(cfg)


def _random_connected_topology(rng, n, weighted=False):
    """Random spanning tree plus a few extra links; returns (topology, links)."""
    weights = (0.5, 1.0, 2.0) if weighted else (1.0,)
    links = []
    seen = set()
    for b in range(1, n):
        a = rng.randrange(b)
        links.append([a, b, rng.choice(weights)])
        seen.add((a, b))
    for _ in range(rng.randrange(n)):
        a, b = rng.randrange(n), rng.randrange(n)
        key = (min(a, b), max(a, b))
        if a == b or key in seen:
            continue
        seen.add(key)
        links.append([key[0], key[1], rng.choice(weights)])
    return build_topology(n, links), links


def test_01_residency_tracks_skew_at_t0():
    # t=0 hands the fragment to every requester, so designated-site
    # residency equals the designated site's access share.
    worst = 0.0
    for k, x_s in enumerate(round(0.1 * i, 1) for i in range(1, 10)):
        metrics = _threshold_run(5, x_s, 0, 200_000, seed=100 + k)
        worst = max(worst, abs(metrics.o_s_hat - x_s))
    ok = worst <= 0.02
    _report("01", "residency-tracks-skew", ok,
            f"n=5 t=0, x_s 0.1..0.9 at 2e5 accesses: max |o_s_hat - x_s| = {worst:.4f} (tol 0.02)")
    assert ok, f"max deviation {worst:.4f} exceeds 0.02"


def test_02_residency_constant_at_uniform_skew():
    # x_s = 1/n makes every site statistically identical, so the threshold
    # value cannot matter: residency stays at 0.2 for any t.
    worst = 0.0
    for k, t in enumerate((0, 1, 3, 5, 10)):
        metrics = _threshold_run(5, 0.2, t, 400_000, seed=200 + k)
        worst = max(worst, abs(metrics.o_s_hat - 0.2))
    ok = worst <= 0.02
    _report("02", "residency-constant-at-symmetry", ok,
            f"n=5 x_s=0.2, t in {{0,1,3,5,10}} at 4e5 accesses: max |o_s_hat - 0.2| = {worst:.4f} (tol 0.02)")
    assert ok, f"max deviation {worst:.4f} exceeds 0.02"


def test_03_residency_converges_monotonically_in_t():
    started = time.perf_counter()
    curves = {
        x_s: [threshold_stationary(ChainParams(n=5, x_s=x_s, t=t)).o_s for t in range(31)]
        for x_s in (0.12, 0.16, 0.24, 0.28)
    }
    elapsed = time.perf_counter() - started

    monotone_ok = all(
        a <= b + 1e-12 for x_s in (0.24, 0.28) for a, b in zip(curves[x_s], curves[x_s][1:])
    ) and all(
        a >= b - 1e-12 for x_s in (0.12, 0.16) for a, b in zip(curves[x_s], curves[x_s][1:])
    )
    low_end = curves[0.12][30]
    high_end = curves[0.28][30]
    ok = monotone_ok and elapsed < 1.0 and low_end <= 0.05 and high_end >= 0.95
    _report("03", "convergence-directions", ok,
            f"monotone={monotone_ok}, o_s(0.12,30)={low_end:.6f} (<=0.05), "
            f"o_s(0.28,30)={high_end:.6f} (>=0.95), {elapsed:.2f}s")
    assert monotone_ok, "o_s(t) is not monotone in t at fixed x_s"
    assert elapsed < 1.0, f"oracle curves took {elapsed:.2f}s"
    assert low_end <= 0.05, f"o_s(0.12, 30) = {low_end:.6f} > 0.05"
    assert high_end >= 0.95, f"o_s(0.28, 30) = {high_end:.6f} < 0.95"


def test_04_simulation_agrees_with_oracle():
    worst = 0.0
    worst_cell = None
    idx = 0
    for n in (3, 5, 8):
        for x_s in (0.1, 1.0 / n, 0.4):
            for t in (0, 2, 5):
                metrics = _threshold_run(n, x_s, t, 1_000_000, seed=400 + idx)
                oracle = threshold_stationary(ChainParams(n=n, x_s=x_s, t=t)).o_s
                diff = abs(metrics.o_s_hat - oracle)
                if diff > worst:
                    worst, worst_cell = diff, (n, round(x_s, 4), t)
                idx += 1
    ok = worst <= 0.01
    _report("04", "oracle-simulation-agreement", ok,
            f"27-cell grid at 1e6 accesses: max |o_s_hat - o_s| = {worst:.5f} at {worst_cell} (tol 0.01)")
    assert ok, f"max deviation {worst:.5f} at {worst_cell} exceeds 0.01"


def test_05_lumped_chain_matches_brute_force():
    worst = 0.0
    pairs = 0
    for n in range(2, 7):
        for t in range(5):
            for x_s in (round(0.1 * i, 1) for i in range(11)):
                params = ChainParams(n=n, x_s=x_s, t=t)
                diff = abs(threshold_stationary(params).o_s - brute_force_stationary(params).o_s)
                worst = max(worst, diff)
                pairs += 1
    ok = worst <= 1e-9
    _report("05", "lumped-equals-brute-force", ok,
            f"{pairs} (n,t,x_s) chains: max |lumped - brute| = {worst:.2e} (tol 1e-9)")
    assert ok, f"max oracle disagreement {worst:.2e} exceeds 1e-9"


def test_06_optimal_owner_holds_counter_row_max():
    # Drive the counter policy in blocks of 4 096 events and check every
    # event against an independent tally: the owner's count must be the
    # row maximum after every event, and a migration must happen exactly
    # when the requester's count strictly exceeds the owner's.
    rng = random.Random(606)
    events = 0
    moves = 0
    violation = None
    for _ in range(10):
        n = rng.randint(3, 8)
        topo, _ = _random_connected_topology(rng, n)
        policy = build_policy(PolicySpec("optimal"), 1, topo.next_hop_matrix.tolist())
        owner = rng.randrange(n)
        owners = [owner]
        shadow = [0] * n
        hot = rng.randrange(n)
        trace = []
        for step in range(100_000):
            if step % 2_000 == 0:
                hot = rng.randrange(n)
            trace.append(hot if rng.random() < 0.5 else rng.randrange(n))
        decided = []  # each event's destination, -1 for a stay
        for first in range(0, len(trace), 4096):
            requesters = np.array(trace[first : first + 4096])
            steps = np.arange(first, first + requesters.size)
            block = Block(steps, np.zeros_like(steps), requesters, 1)
            at, dests, _, _ = policy.decide_block(block, owners)
            owners = _forward_fill(block, at, dests, owners)[1].tolist()
            block_dests = [-1] * requesters.size
            for i, dest in zip(at.tolist(), dests.tolist()):
                block_dests[i] = dest
            decided += block_dests
        for req, dest in zip(trace, decided):
            shadow[req] += 1
            dominant = req != owner and shadow[req] > shadow[owner]
            if (dest >= 0) != dominant or (dest >= 0 and dest != req):
                violation = f"event {events}: move={dest >= 0} dest={dest} dominant={dominant}"
                break
            if dest >= 0:
                owner = dest
                moves += 1
            if shadow[owner] != max(shadow):
                violation = f"event {events}: owner count {shadow[owner]} < max {max(shadow)}"
                break
            events += 1
        if violation:
            break
    ok = violation is None and events == 1_000_000
    _report("06", "optimal-ownership-property", ok,
            violation or f"{events} events, {moves} migrations across 10 random topologies, 0 violations")
    assert ok, violation or f"only {events} events checked"


def test_07_walkthrough_trace_starts_a_c_b_g(tmp_path):
    write_fixtures(tmp_path)
    doc = json.loads((tmp_path / "walkthrough.json").read_text())
    setup = resolve_run(doc, tmp_path)
    lines = []
    run(setup.sim, lines.append)
    moves = [(int(r["owner_before"]), int(r["dest"])) for r in csv.DictReader(lines) if r["decision"] == "move"]
    got = [site_name(moves[0][0])] + [site_name(d) for _, d in moves[:3]] if len(moves) >= 3 else []
    ok = moves[:3] == [(0, 2), (2, 1), (1, 6)]
    _report("07", "walkthrough-first-hops", ok,
            f"migration trace begins {'->'.join(got) if got else moves}")
    assert ok, f"expected moves [(0,2),(2,1),(1,6)], got {moves[:3]}"


def test_08_nna_moves_one_hop_toward_argmax():
    # Replay each decision log against an independent access tally: every
    # logged migration must go to a neighbour of the old owner that lies on
    # a shortest path toward the argmax site claimed by the decision, and
    # that claim must match the tally's (lowest-id) argmax.
    rng = random.Random(808)
    events = 0
    moves = 0
    violation = None
    for ti in range(20):
        n = rng.randint(4, 8)
        topo, links = _random_connected_topology(rng, n, weighted=ti % 2 == 1)
        edge = {}
        for a, b, w in links:
            edge[a, b] = edge[b, a] = w
        site_a, site_b = rng.sample(range(n), 2)
        cfg = SimConfig(
            topology=topo,
            sizes=[1.0],
            initial_owners=[rng.randrange(n)],
            policy=PolicySpec("nna"),
            workload=WorkloadSpec.symmetric(1, n, 0.6, hot=site_a, oscillation=Oscillation(site_a, site_b, 500)),
            num_steps=5_000,
            seed=1_000 + ti,
            designated=site_a,
        )
        lines = []
        run(cfg, lines.append)
        dist = topo.distance_matrix
        shadow = [0] * n
        for row in csv.DictReader(lines):
            shadow[int(row["requester"])] += 1
            events += 1
            if row["decision"] != "move":
                continue
            moves += 1
            target = int(row["trigger_reason"].split(":", 1)[1])
            o, d = int(row["owner_before"]), int(row["dest"])
            if shadow.index(max(shadow)) != target:
                violation = f"topology {ti}: claimed argmax {target}, tally argmax {shadow.index(max(shadow))}"
                break
            if (o, d) not in edge or abs(dist[o][target] - (edge[o, d] + dist[d][target])) > 1e-9:
                violation = f"topology {ti}: move {o}->{d} is not one shortest-path hop toward {target}"
                break
        if violation:
            break
    ok = violation is None and events == 100_000 and moves > 50
    _report("08", "nna-hop-law", ok,
            violation or f"{moves} migrations over {events} events / 20 topologies all one hop toward argmax")
    assert ok, violation or f"events={events}, moves={moves}"


def test_09_fna_migrates_less_under_oscillation():
    # Ten fragments, each with hot mass flipping between the adjacent sites
    # G and H every 50 events; aggregate migration counts decide each trial.
    topo = reference_topology()
    wins = 0
    losses = []
    for seed in range(100):
        counts = {}
        for name in ("nna", "fna"):
            cfg = SimConfig(
                topology=topo,
                sizes=[1.0] * 10,
                initial_owners=[0] * 10,
                policy=PolicySpec(name),
                workload=WorkloadSpec.symmetric(10, 9, 0.8, hot=6, oscillation=Oscillation(6, 7, 50)),
                num_steps=10_000,
                seed=seed,
                designated=6,
            )
            counts[name] = run(cfg).migrations
        if counts["fna"] < counts["nna"]:
            wins += 1
        else:
            losses.append((seed, counts["nna"], counts["fna"]))
    ok = wins >= 95
    _report("09", "fna-oscillation-economy", ok,
            f"fna.migrations < nna.migrations in {wins}/100 seeded 1e5-event trials (need >= 95)"
            + (f"; losses {losses}" if losses else ""))
    assert ok, f"only {wins}/100 trials; losses {losses}"


def test_10_reruns_are_byte_identical(tmp_path):
    fx = tmp_path / "fx"
    write_fixtures(fx)
    sweep_doc = {
        "topology": {"n": 5, "links": [[a, b, 1.0] for a in range(5) for b in range(a + 1, 5)]},
        "policy": {"name": "threshold", "t": 1},
        "workload": {"x_s": 0.3},
        "num_steps": 2_000,
        "seed": 3,
        "sweep": {"axis": "x_s", "values": [0.2, 0.5], "replications": 2},
    }
    (fx / "small_sweep.json").write_text(json.dumps(sweep_doc))

    commands = {
        "run": ["run", "--config", str(fx / "walkthrough.json"), "--log-decisions"],
        "sweep": ["sweep", "--config", str(fx / "small_sweep.json")],
        "oracle": ["oracle", "--n", "5", "--x-s", "0.2,0.28", "--t", "0,3"],
        "compare": ["compare", "--config", str(fx / "oscillation_compare.json"), "--policies", "nna,fna"],
        "fixtures": ["fixtures"],
    }
    compared = 0
    mismatch = None
    for name, argv in commands.items():
        out_a = tmp_path / name / "a"
        out_b = tmp_path / name / "b"
        for out in (out_a, out_b):
            out.mkdir(parents=True)
            assert main(argv + ["--out", str(out)]) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        if files_a != files_b:
            mismatch = f"{name}: file sets differ {files_a} vs {files_b}"
            break
        for fname in files_a:
            if (out_a / fname).read_bytes() != (out_b / fname).read_bytes():
                mismatch = f"{name}/{fname}: bytes differ between reruns"
                break
            compared += 1
        if mismatch:
            break
    ok = mismatch is None
    _report("10", "determinism", ok,
            mismatch or f"{compared} output files byte-identical across reruns of {len(commands)} commands")
    assert ok, mismatch


def _sweep_means(tmp_path, name, doc, column):
    """Run a sweep config through the CLI and return mean(column) per axis value."""
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / name
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    import csv

    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    means = {}
    for row in rows:
        means.setdefault(float(row["axis_value"]), []).append(float(row[column]))
    return [statistics.mean(means[v]) for v in sorted(means)]


def _fig3_doc(policy, workload, sweep):
    from fragsim.fixtures import reference_topology_dict

    return {
        "topology": reference_topology_dict(),
        "policy": policy,
        "workload": workload,
        "num_steps": 20_000,
        "seed": 5,
        "sweep": sweep,
    }


def test_s1_larger_fragments_move_slower(tmp_path):
    sweep = {"axis": "fragment_size", "values": [0.5, 2, 8], "replications": 2}
    workload = {"x_s": 0.6, "hot": 6}
    results = {
        name: _sweep_means(tmp_path, name, _fig3_doc({"name": name}, workload, sweep), "avg_move_time")
        for name in ("nna", "fna")
    }
    ok = all(a < b for curve in results.values() for a, b in zip(curve, curve[1:]))
    _report("s1", "fragment-size-direction", ok,
            f"avg_move_time rises with size 0.5->2->8: nna={results['nna']}, fna={results['fna']}")
    assert ok, f"avg_move_time not increasing in fragment size: {results}"


def test_s2_higher_rate_costs_more(tmp_path):
    sweep = {"axis": "rate", "values": [0.25, 0.5, 1.0], "replications": 2}
    curve = _sweep_means(tmp_path, "rate", _fig3_doc({"name": "nna"}, {"x_s": 0.6, "hot": 6}, sweep),
                         "response_cost")
    ok = all(a < b for a, b in zip(curve, curve[1:]))
    _report("s2", "query-rate-direction", ok,
            f"total response_cost rises with rate 0.25->0.5->1.0: {[round(c, 1) for c in curve]}")
    assert ok, f"response_cost not increasing in rate: {curve}"


def test_s3_more_active_sites_cost_more(tmp_path):
    # Uniform workload on a complete network: with k active sites the owner
    # serves 1/k of the traffic locally, so response cost grows with k.
    doc = {
        "topology": {"n": 9, "links": [[a, b, 1.0] for a in range(9) for b in range(a + 1, 9)]},
        "policy": {"name": "threshold", "t": 0},
        "workload": {"x_s": 1 / 9},
        "num_steps": 20_000,
        "seed": 5,
        "sweep": {"axis": "active_count", "values": [2, 5, 8], "replications": 2},
    }
    curve = _sweep_means(tmp_path, "active", doc, "response_cost")
    ok = all(a < b for a, b in zip(curve, curve[1:]))
    _report("s3", "active-sites-direction", ok,
            f"total response_cost rises with active sites 2->5->8: {[round(c, 1) for c in curve]}")
    assert ok, f"response_cost not increasing in active_count: {curve}"
