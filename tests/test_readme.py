"""Every ```python block of README.md runs against the current package,
and every ```json run document in it resolves as a config."""

import json
import re
from pathlib import Path

import pytest

from fragsim.config import resolve_run
from fragsim.fixtures import write_fixtures

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
RUN_DOCS = [
    doc
    for doc in (json.loads(text) for text in re.findall(r"^```json\n(.*?)^```", README.read_text(), flags=re.M | re.S))
    if "topology" in doc
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_has_run_documents():
    assert RUN_DOCS


@pytest.mark.parametrize("index", range(len(RUN_DOCS)))
def test_run_document_resolves(index, tmp_path):
    # relative paths in the documents, such as "fig3.json", name the bundled fixtures
    write_fixtures(tmp_path)
    setup = resolve_run(RUN_DOCS[index], tmp_path)
    assert setup.sim.num_steps == RUN_DOCS[index]["num_steps"]
