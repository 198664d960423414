"""Golden output digests: the CLI's CSVs on the bundled configs, byte for byte.

Every CSV written by ``run`` (with and without ``--log-decisions``),
``compare`` (four policies, logged, at rate 1 and 0.5) and ``sweep`` (each
bundled sweep, shortened to ``SWEEP_STEPS`` steps) is hashed and compared
with ``tests/golden/digests.json``. A change that alters any of these
bytes has to say why, for example a change in float summation order.

Print the digests of the current code with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from fragsim.cli import main
from fragsim.fixtures import write_fixtures

DIGESTS = Path(__file__).parent / "golden" / "digests.json"
SWEEP_STEPS = 2_000
SWEEP_CONFIGS = (
    "residency_vs_xs_t0.json",
    "residency_vs_xs_t3.json",
    "residency_vs_xs_t10.json",
    "residency_vs_t_xs028.json",
    "residency_vs_t_xs012.json",
)
COMPARE_POLICIES = "optimal,threshold:3,nna,fna"


def _edited(src: Path, name: str, edit) -> Path:
    doc = json.loads(src.read_text())
    edit(doc)
    dest = src.with_name(name)
    dest.write_text(json.dumps(doc, indent=2) + "\n")
    return dest


def produce(root: Path) -> dict:
    """Run every golden case under ``root``; return {case/file.csv: sha256}."""
    fixtures = root / "fixtures"
    write_fixtures(fixtures)
    walkthrough = fixtures / "walkthrough.json"
    compare = fixtures / "oscillation_compare.json"
    half_rate = _edited(compare, "oscillation_compare_rate05.json", lambda d: d["workload"].update(rate=0.5))
    cases = {
        "run": ["run", "--config", str(walkthrough)],
        "run_logged": ["run", "--config", str(walkthrough), "--log-decisions"],
        "compare_rate1": ["compare", "--config", str(compare), "--policies", COMPARE_POLICIES, "--log-decisions"],
        "compare_rate05": ["compare", "--config", str(half_rate), "--policies", COMPARE_POLICIES, "--log-decisions"],
    }
    for name in SWEEP_CONFIGS:
        config = _edited(fixtures / name, name, lambda d: d.update(num_steps=SWEEP_STEPS))
        cases[f"sweep_{name[:-len('.json')]}"] = ["sweep", "--config", str(config)]
    digests = {}
    for case, argv in cases.items():
        out = root / case
        code = main(argv + ["--out", str(out)])
        if code != 0:
            raise RuntimeError(f"{case}: fragsim {argv[0]} exited with {code}")
        for path in sorted(out.glob("*.csv")):
            digests[f"{case}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_outputs_match_golden_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text())
    got = produce(tmp_path)
    assert sorted(got) == sorted(expected), "the set of CSV files changed"
    changed = [name for name in expected if got[name] != expected[name]]
    assert not changed, f"bytes changed in {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        digests = produce(Path(tmp))
    print(json.dumps(digests, indent=1, sort_keys=True))
