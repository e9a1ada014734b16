#!/usr/bin/env python
"""Golden digests of every paper experiment's small-scale output.

The 17 registered experiments' reports are the behaviour spec of this
repository.  This script runs each of them at ``SMALL`` scale, seed 0,
and digests ``result.report()``.  It also digests fig2's ``--flows`` and
``--metrics`` exports (JSON Lines), which go through ``repro.obs.flows``
and ``repro.obs.metrics``.  The digests live in
``tests/golden/experiments.json``; a digest may only change in a commit
whose CHANGES.md entry says why.

Usage::

    PYTHONPATH=src python tools/golden.py --write [--cache-dir DIR]
    PYTHONPATH=src python tools/golden.py --check [--cache-dir DIR]

``--cache-dir`` reads (and fills) a session cache, so a check after a
cold ``repro experiment all --scale small`` over the same directory
simulates nothing.  ``--check`` exits 1 and names every experiment or
export whose digest moved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

GOLDEN_PATH = (Path(__file__).resolve().parent.parent
               / "tests" / "golden" / "experiments.json")

#: The run every digest is taken at.
SCALE = "small"
SEED = 0

#: Worker processes per experiment; the digests do not depend on it.
JOBS = 2

#: The experiment whose campaign exports are digested too.
EXPORT_EXPERIMENT = "fig2"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compute(cache_dir: Optional[str] = None) -> Dict[str, Dict[str, str]]:
    """Run the experiments and digest their reports and fig2's exports."""
    from repro.experiments import REGISTRY, SCALES
    from repro.obs import CampaignCollector
    from repro.runner import engine_options

    scale = SCALES[SCALE]
    experiments: Dict[str, str] = {}
    exports: Dict[str, str] = {}
    for name, spec in REGISTRY.items():
        collector = (CampaignCollector() if name == EXPORT_EXPERIMENT
                     else None)
        with engine_options(observer=collector):
            result = spec.run(scale, seed=SEED, jobs=JOBS, cache=cache_dir)
        experiments[name] = sha256(result.report().encode())
        print(f"{name:<20} {experiments[name][:16]}", file=sys.stderr)
        if collector is not None:
            with tempfile.TemporaryDirectory() as tmp:
                for kind, write in (("flows", collector.write_flows),
                                    ("metrics", collector.write_metrics)):
                    path = Path(tmp) / f"{name}.{kind}.jsonl"
                    write(path)
                    exports[path.name] = sha256(path.read_bytes())
    return {"experiments": experiments, "exports": exports}


def moved(expected: Dict[str, Dict[str, str]],
          actual: Dict[str, Dict[str, str]]) -> List[str]:
    """Names whose digest differs, is missing or is new, in file order."""
    names: List[str] = []
    for section in ("experiments", "exports"):
        want = expected.get(section, {})
        got = actual.get(section, {})
        for name in list(want) + [n for n in got if n not in want]:
            if want.get(name) != got.get(name):
                names.append(name)
    return names


def load(path: Path = GOLDEN_PATH) -> Dict:
    return json.loads(path.read_text())


def dump(digests: Dict[str, Dict[str, str]], path: Path = GOLDEN_PATH
         ) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {"scale": SCALE, "seed": SEED, **digests}
    path.write_text(json.dumps(document, indent=2) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="regenerate tests/golden/experiments.json")
    mode.add_argument("--check", action="store_true",
                      help="exit 1 if any digest moved")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="session cache to read and fill")
    args = parser.parse_args(argv)

    actual = compute(args.cache_dir)
    if args.write:
        dump(actual)
        print(f"wrote {GOLDEN_PATH}")
        return 0
    changed = moved(load(), actual)
    if changed:
        print("golden digests moved: " + ", ".join(changed))
        return 1
    print(f"golden digests match ({len(actual['experiments'])} experiments, "
          f"{len(actual['exports'])} exports)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
