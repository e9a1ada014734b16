"""One workload in one fresh process; ``run.py`` starts it.

    python3 perfbench/child.py --workload NAME --seed N --seconds S \\
        --mode setup|measure|trace --workdir DIR

``setup`` times set-up only.  ``measure`` sets up, repeats rounds for
``--seconds`` and checks every round's outputs.  Set-up and every piece
of a round are bracketed by passes of the reference computation, and
their times are reported at the reference speed (see ``reference.py``).
``trace`` sets up, runs one round untraced and the same round traced, and
reports the per-layer metrics.  The last line of standard output is one
JSON object.
"""

import time

from reference import Pacer, Piece, reference_s, speed

reference_s()  # warm-up pass
_REF_BEFORE = reference_s()
_STARTED = time.perf_counter()  # before the program's imports: set-up

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    JOBS,
    WORKLOADS,
    Round,
    Workload,
    load_pins,
)


def _cpu_s() -> float:
    """User+sys CPU seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of the largest of this process and its reaped children."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def _check(workload: Workload, rounds: List[Round]) -> List[str]:
    """Problems with the rounds' outputs: rounds must repeat exactly, and
    at the default seed must match the pins."""
    first = rounds[0]
    problems = [f"{workload.name}: round {i} differs from round 0"
                for i, r in enumerate(rounds[1:], 1)
                if r.outputs != first.outputs]
    problems += workload.self_check(first)
    if workload.seed == DEFAULT_SEED:
        expected = load_pins().get(workload.name)
        actual = workload.pin(first.outputs)
        if expected is None:
            problems.append(f"{workload.name}: no pin recorded")
        elif actual != expected:
            problems.append(f"{workload.name}: output pin mismatch "
                            f"(got {actual}, want {expected})")
    return problems


def _midmean(values: List[float]) -> float:
    """Mean of the middle half: the median's robustness to a few outliers,
    with less noise than the median when there are many values."""
    values = sorted(values)
    k = max(1, len(values) // 4) if len(values) >= 3 else 0
    middle = values[k:len(values) - k]
    return sum(middle) / len(middle)


def _typical_round(pieces: List[List[Piece]], field: str) -> float:
    """Sum over a round's pieces of each piece's mid-mean over the rounds."""
    return sum(_midmean([getattr(p, field) for p in same])
               for same in zip(*pieces))


def _failed_units(rounds: List[Round], problems: List[str]) -> int:
    """Failed units, plus every unit of a run whose outputs are wrong."""
    if problems:
        return sum(r.units for r in rounds)
    return sum(r.failed for r in rounds)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace"))
    parser.add_argument("--workdir", required=True, type=Path)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    setup_raw = time.perf_counter() - _STARTED
    setup_speed = speed([_REF_BEFORE, reference_s()])
    out: Dict[str, Any] = {"setup_s": setup_raw * setup_speed,
                           "setup_raw_s": setup_raw}

    if args.mode == "measure":
        # Every piece of a round is scaled by the reference passes on
        # either side of it, so the host's drift does not move the rates.
        # A round repeats the same pieces, so each piece's mid-mean over
        # the rounds is taken before they are summed: a few seconds of
        # interference do not move the rates either.
        rounds: List[Round] = []
        pieces: List[List[Piece]] = []
        pacer = Pacer(_cpu_s, width=workload.width)
        workload.pace = pacer.split
        try:
            start = time.perf_counter()
            while time.perf_counter() - start < args.seconds:
                round_ = workload.run_round()
                pacer.split()
                pieces.append(pacer.take())
                if rounds:
                    # keep one round's results, so memory does not grow
                    # with the number of rounds the machine's speed allows
                    round_.results = []
                else:
                    # the allocator keeps memory that later rounds free, so
                    # the high-water mark after more rounds would depend on
                    # how many rounds the machine's speed allows
                    peak_rss = _peak_rss_mb()
                rounds.append(round_)
        finally:
            pacer.close()
        problems = _check(workload, rounds)
        units = rounds[0].units
        out.update(
            attempted=sum(r.units for r in rounds),
            failed=_failed_units(rounds, problems), problems=problems,
            pin=workload.pin(rounds[0].outputs),
            round_s=[sum(p.wall for p in round_) for round_ in pieces],
            reference_passes=pacer.passes,
            units_per_s_raw=units / _typical_round(pieces, "raw"),
            units_per_s=units / _typical_round(pieces, "wall"),
            cpu_ms_per_unit=1e3 * _typical_round(pieces, "cpu") / units,
            peak_rss_mb=peak_rss)
    elif args.mode == "trace":
        from tracing import LAYERS, trace_round

        # the first round absorbs one-off warm-up (pool start, lazy
        # imports), so the overhead compares the traced round with the
        # untraced round that follows it
        first = workload.run_round()
        traced, metrics = trace_round(
            workload.run_round, profile=args.workload == "session_core",
            jobs=JOBS)
        start = time.perf_counter()
        plain = workload.run_round()
        untraced = time.perf_counter() - start
        metrics["trace.overhead"] = metrics["trace.wall_s"] / untraced
        # Monte-Carlo sessions, as model_validation reports them
        metrics["model.sessions"] = (traced.units
                                     if args.workload == "model_sharded"
                                     else 0)
        ranked = sorted(LAYERS, key=lambda layer: -metrics[f"{layer}.self_s"])
        out["dominant"] = {
            "layer": ranked[0], "stresses": list(workload.stresses),
            "share": metrics[f"{ranked[0]}.self_s"] / metrics["trace.wall_s"]}
        rounds = [first, traced, plain]
        problems = _check(workload, rounds)
        out.update(attempted=sum(r.units for r in rounds),
                   failed=_failed_units(rounds, problems),
                   problems=problems, metrics=metrics)

    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
