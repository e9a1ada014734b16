"""The golden-digest file covers exactly the registered experiments.

``tools/golden.py --check`` (CI experiments-smoke) re-runs every
experiment and compares its report digest with
``tests/golden/experiments.json``.  These tests simulate nothing: they
pin the file's coverage and the comparison that names what moved.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import golden  # noqa: E402
from repro.experiments import REGISTRY  # noqa: E402


def test_file_names_exactly_the_registry():
    document = golden.load()
    assert list(document["experiments"]) == list(REGISTRY)
    assert (document["scale"], document["seed"]) == (golden.SCALE,
                                                     golden.SEED)
    assert sorted(document["exports"]) == [
        f"{golden.EXPORT_EXPERIMENT}.flows.jsonl",
        f"{golden.EXPORT_EXPERIMENT}.metrics.jsonl"]


def test_a_one_byte_mutant_is_named():
    document = golden.load()
    actual = {section: dict(document[section])
              for section in ("experiments", "exports")}
    assert golden.moved(document, actual) == []
    mutant = "fig9 report, one byte changed"
    actual["experiments"]["fig9"] = golden.sha256(mutant.encode())
    actual["exports"]["fig2.flows.jsonl"] = golden.sha256(b"x")
    assert golden.moved(document, actual) == ["fig9", "fig2.flows.jsonl"]
    del actual["experiments"]["table1"]
    assert golden.moved(document, actual)[0] == "table1"
