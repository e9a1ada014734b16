"""The repository benchmark: one workload per invocation, in fresh processes.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Workloads, metrics and bounds are declared
in ``BENCHMARK.json``; the design is recorded in ``perfbench/README.md``.

``--trace 0`` times the workload: two set-up-only processes and one
measuring process, each fresh, so set-up time and peak RSS belong to this
workload alone; ``setup_s`` is the median of the three set-ups.  ``--trace
1`` runs one round untraced and one traced in a fresh process and reports
the per-layer metrics.  Every run checks the workload's outputs.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
SETUP_SAMPLES = 3
#: Every run ends within this many seconds, or fails.
TIME_LIMIT_S = 170.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child(args: argparse.Namespace, mode: str, workdir: Path,
           deadline: float) -> Dict[str, Any]:
    """Run one fresh child process and return its JSON result.

    The child leads its own process group, so a child that overruns the
    deadline is killed together with its pool workers.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--mode", mode, "--workdir", str(workdir)],
        cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{mode} process overran the time limit")
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _provenance(args: argparse.Namespace) -> Dict[str, Any]:
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, timeout=60).stdout.strip()
    git = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True, timeout=10) \
        if (ROOT / ".git").exists() else None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version or "missing",
            "git_sha": git.stdout.strip() if git and git.returncode == 0
            else "nogit",
            "workload": args.workload, "seed": args.seed, "jobs": 2,
            "seconds": args.seconds, "trace": args.trace}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").exists():
        return _fail(f"no program sources at {SRC / 'repro'}")
    if not spec_path.exists():
        return _fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    print("perfbench " + json.dumps(_provenance(args)))
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=ROOT / ".perfbench_work"))
    try:
        if args.trace:
            result = _child(args, "trace", workdir / "trace", deadline)
            values = result["metrics"]
            dominant = result["dominant"]
            print(f"perfbench {args.workload} dominant layer "
                  f"{dominant['layer']} ({dominant['share']:.0%} of traced "
                  f"wall), chosen to stress {dominant['stresses']}")
            if dominant["layer"] not in dominant["stresses"]:
                print(f"perfbench WARNING {args.workload} no longer spends "
                      f"most of its time in {dominant['stresses']}")
        else:
            setups: List[float] = [
                _child(args, "setup", workdir / f"setup{i}",
                       deadline)["setup_s"]
                for i in range(SETUP_SAMPLES - 1)]
            result = _child(args, "measure", workdir / "measure", deadline)
            setups.append(result["setup_s"])
            values = dict(result, setup_s=statistics.median(setups))
            print(f"perfbench setup_s samples {setups} (raw "
                  f"{result['setup_raw_s']:.4g} s in the measuring process);"
                  f" rounds at reference speed {result['round_s']};"
                  f" {result['reference_passes']} reference passes;"
                  f" raw units_per_s {result['units_per_s_raw']:.6g};"
                  f" pin {json.dumps(result['pin'])}")
    except (RuntimeError, ValueError) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        return _fail(f"metrics not produced: {missing}")
    for problem in result["problems"]:
        print(f"perfbench CHECK FAILED {problem}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"perfbench {args.workload} error_rate {failed / attempted:.6g} "
          f"({failed} of {attempted} units)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, metric in metrics.items():
        print(f"perfbench {args.workload} {name} {metric['value']:.6g} "
              f"{metric['unit']}")
    print(json.dumps({"correct": not result["problems"] and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
