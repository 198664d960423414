"""No input reaches exit 1: mutated bundled documents exit 0, 2 or 3.

Hypothesis mutates the bundled run and sweep documents, and the
topology file ``fig3.json`` of the walkthrough run, with type swaps, huge
and negative ints, ``NaN`` and ``Infinity``, missing and extra keys,
wrong nesting and bytes that are not UTF-8, and runs ``cli.main`` on each.
Some overflows happen only once a simulation runs, so a document that
resolves is run too, with ``num_steps`` and ``replications`` clamped to
``STEPS`` and ``REPLICATIONS``: a huge but valid count is a long run, not
an error. The clamp comes after resolving, so the bounds that resolving
checks still meet every huge count.

Each example runs under an alarm and a soft address-space limit of this
process, so an input that would run for minutes or allocate gigabytes
fails the test at once, as a ``Hang`` or as the ``MemoryError`` that
``main`` reports with exit 1.
"""

import contextlib
import copy
import io
import json
import math
import resource
import signal
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragsim.cli import main
from fragsim.config import load_config, resolve_run, resolve_sweep
from fragsim.fixtures import write_fixtures

STEPS = 200
REPLICATIONS = 2
SECONDS = 30  # per example; a clamped document runs in well under one
HEADROOM = 1 << 30  # bytes of address space an example may add

pytestmark = pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="bounds memory through Linux's /proc")

HUGE = [2**61, 2**63, 10**20, 10**30, 10**400]
EXTREMES = [*HUGE, *(-h for h in HUGE), math.nan, math.inf, -math.inf]
SCALARS = [None, True, False, -1, 0, 1, 2, 3, 7, 12, *EXTREMES, 0.0, 0.5, 1e-300, 1e300]
SCALARS += ["", "nna", "fna", "optimal", "threshold", "dominance", "t", "x_s", "fig3.json", "missing.json"]
VALUES = st.sampled_from(SCALARS + [list, dict]).map(lambda v: v() if v in (list, dict) else v)
KEYS = st.sampled_from(
    "topology n links policy name t trigger counter_cap window decay history workload x_s hot probs rate active"
    " oscillation site_a site_b period fragments count size sizes initial_owners num_steps designated seed"
    " migration_blocking sweep axis values replications output metrics spare".split()
)
NOT_UTF8 = st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"] + [b""] * 28)  # b"": none inserted


class Hang(BaseException):
    """An example ran past ``SECONDS``; ``main`` does not catch it."""


def _hang(signum, frame):
    raise Hang(f"still running after {SECONDS} s")


@contextlib.contextmanager
def _bounded():
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    used = int(Path("/proc/self/statm").read_text().split()[0]) * resource.getpagesize()
    limit = used + HEADROOM if hard == resource.RLIM_INFINITY else min(used + HEADROOM, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _paths(node, path=()):
    """Every path into ``node``, entering only the first and last entries of a list, so long lists do not crowd out keys."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    else:
        ends = sorted({0, len(node) - 1}) if isinstance(node, list) and node else []
        items = [(i, node[i]) for i in ends]
    for key, child in items:
        yield from _paths(child, path + (key,))


def _mutate(draw, doc) -> None:
    """Apply one mutation to ``doc`` in place."""
    paths = list(_paths(doc))  # paths[0], (), is the document itself
    kind = draw(st.sampled_from(["swap", "extreme", "extreme", "delete", "add", "nest", "unnest"]))
    if kind == "add":
        objects = [node for node in (_at(doc, p) for p in paths) if isinstance(node, dict)]
        draw(st.sampled_from(objects))[draw(KEYS)] = draw(VALUES)
        return
    if kind == "extreme":  # aim at the numbers, where the overflows are
        paths = [p for p in paths if type(_at(doc, p)) in (int, float)] or paths
    paths = [p for p in paths if p]
    if not paths:  # a document mutated down to {} has no key left to change
        return
    path = draw(st.sampled_from(paths))
    parent, key = _at(doc, path[:-1]), path[-1]
    value = parent[key]
    if kind == "extreme":
        parent[key] = draw(st.sampled_from(EXTREMES))
    elif kind == "swap":
        parent[key] = draw(VALUES)
    elif kind == "delete":
        del parent[key]
    elif kind == "nest":
        parent[key] = draw(st.sampled_from([[value], {"value": value}]))
    elif isinstance(value, (dict, list)) and value:
        parent[key] = next(iter(value.values())) if isinstance(value, dict) else value[0]


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _resolve(command, config) -> None:
    doc = load_config(config)
    (resolve_run if command == "run" else resolve_sweep)(doc, config.parent)


@pytest.fixture(scope="module")
def bundled(tmp_path_factory):
    """The bundled documents' directory and each document's name, command and contents.

    ``fig3.json`` comes under the command ``run``, as the topology file of the walkthrough run.
    """
    root = tmp_path_factory.mktemp("bundled")
    docs = [(path.name, json.loads(path.read_text())) for path in write_fixtures(root)]
    return root, [(name, "sweep" if "sweep" in doc else "run", doc) for name, doc in docs]


@settings(max_examples=500)
@given(data=st.data())
def test_mutated_documents_never_exit_1(bundled, data):
    root, documents = bundled
    command = data.draw(st.sampled_from(["run", "sweep"]))
    name, doc = data.draw(st.sampled_from([(name, doc) for name, of, doc in documents if of == command]))
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data.draw, doc)
    raw = json.dumps(doc).encode()  # NaN and Infinity come out as the bare words
    at = data.draw(st.integers(0, len(raw)))
    raw = raw[:at] + data.draw(NOT_UTF8) + raw[at:]
    if name == "fig3.json":  # the walkthrough run, on the mutated topology file
        (root / "mutated_fig3.json").write_bytes(raw)
        walkthrough = next(doc for name, _, doc in documents if name == "walkthrough.json")
        raw = json.dumps({**walkthrough, "topology": "mutated_fig3.json"}).encode()
    config = root / "mutated.json"
    config.write_bytes(raw)
    err = io.StringIO()
    quiet = contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)
    with tempfile.TemporaryDirectory() as out, _bounded(), quiet[0], quiet[1]:
        try:
            _resolve(command, config)
        except Exception:
            pass  # main reports it, with its exit code
        else:
            doc = json.loads(raw)
            doc["num_steps"] = min(doc["num_steps"], STEPS)
            if command == "sweep":
                doc["sweep"]["replications"] = min(doc["sweep"].get("replications", 1), REPLICATIONS)
            config.write_text(json.dumps(doc))
        code = main([command, "--config", str(config), "--out", out])
    assert code in (0, 2, 3), f"exit {code}: {err.getvalue()} on {raw!r}"


# Inputs that would build an unbounded list, topology or sweep, or reach numpy or C unchecked:
# (document, path, value, exit code, key the message names). Each runs bounded, since unchecked
# it would allocate gigabytes or run for minutes.
NAMED = {
    "fragment-count-beyond-an-index": ("walkthrough.json", ["fragments"], {"count": 10**20}, 2, "config.fragments.count"),
    "fragment-count-beyond-memory": ("walkthrough.json", ["fragments"], {"count": 10**9}, 2, "config.fragments.count"),
    "sizes-beyond-the-bound": ("walkthrough.json", ["fragments"], {"count": 1001, "sizes": [1.0] * 1001}, 2, "config.fragments.count"),
    "sites": ("walkthrough.json", ["topology"], {"n": 10**6, "links": [[0, 1]]}, 3, "topology.n"),
    "sweep-cells": ("residency_vs_t_xs028.json", ["sweep", "replications"], 10**12, 2, "config.sweep"),
    "fna-window": ("walkthrough.json", ["policy"], {"name": "fna", "window": 10**30}, 2, "window"),
    "fna-history": ("walkthrough.json", ["policy"], {"name": "fna", "history": 10**30}, 2, "history"),
    "weight-beyond-a-float": ("walkthrough.json", ["topology"], {"n": 2, "links": [[0, 1, 10**400]]}, 3, "topology.links[0][2]"),
}


@pytest.mark.parametrize("case", list(NAMED))
def test_named_inputs_exit_with_their_key(bundled, tmp_path, capsys, case):
    name, path, value, expected, key = NAMED[case]
    root, _ = bundled
    doc = json.loads((root / name).read_text())
    _at(doc, path[:-1])[path[-1]] = value
    config = root / f"{case}.json"
    config.write_text(json.dumps(doc))
    with _bounded():
        code = main(["sweep" if "sweep" in doc else "run", "--config", str(config), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == expected, err
    assert err.startswith("error: ") and key in err
