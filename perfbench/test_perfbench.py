"""Tests of the benchmark itself, at reduced size.

    PYTHONPATH=src python3 -m pytest perfbench -q

* work counters repeat exactly between two traced runs;
* a traced round produces the same outputs as an untraced one;
* layer self times plus ``other.self_s`` add up to the traced wall time;
* the entry points are restored after a traced round;
* the pacer scales each piece by the passes around it and stops its
  helper processes.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import workloads  # noqa: E402
from repro.experiments import Scale  # noqa: E402
from repro.runner import pool  # noqa: E402
from tracing import LAYERS, trace_round  # noqa: E402

#: Work counters: deterministic for a given seed and size.
WORK_COUNTERS = (
    "simnet.events", "simnet.ff_jumps", "simnet.ff_refusals",
    "simnet.ff_skipped_s", "tcp.segments_sent", "tcp.retransmits",
    "streaming.requests", "streaming.rebuffers", "pcap.packets",
    "analysis.packets", "runner.units", "runner.cache_hits",
    "runner.cache_misses", "runner.retries", "runner.quarantined",
)


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload to a few seconds."""
    monkeypatch.setattr(workloads, "SESSION_REPLICAS", 1)
    monkeypatch.setattr(workloads, "SESSION_MIX", tuple(
        entry[:-1] + (10.0,) for entry in workloads.SESSION_MIX))
    monkeypatch.setattr(workloads, "CAMPAIGN_SESSIONS", 8)
    monkeypatch.setattr(workloads, "FIGURE_SCALE", Scale(
        name="perfbench-test", sessions_per_cell=1, capture_duration=30.0,
        catalog_scale=0.02, mc_horizon=6000.0))
    monkeypatch.setattr(workloads, "MODEL_SESSIONS", 2000)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counters_repeat_and_outputs_match(name, small, tmp_path):
    workload = workloads.WORKLOADS[name](3, tmp_path)
    workload.setup()
    plain = workload.run_round()
    profile = name == "session_core"
    first, metrics = trace_round(workload.run_round, profile=profile, jobs=2)
    second, again = trace_round(workload.run_round, profile=profile, jobs=2)

    assert first.outputs == plain.outputs == second.outputs
    assert first.failed == second.failed == 0
    counters = {key: metrics[key] for key in WORK_COUNTERS}
    assert counters == {key: again[key] for key in WORK_COUNTERS}
    assert any(counters.values())

    attributed = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert attributed + metrics["other.self_s"] == pytest.approx(
        metrics["trace.wall_s"])
    assert metrics["other.self_s"] < 0.2 * metrics["trace.wall_s"]


def test_entry_points_are_restored(small, tmp_path):
    original = pool.run_sessions
    workload = workloads.WORKLOADS["campaign_cold"](0, tmp_path)
    workload.setup()
    trace_round(workload.run_round, profile=False, jobs=2)
    assert pool.run_sessions is original
    assert workloads.run_sessions is original


@pytest.mark.parametrize("width", [1, 2])
def test_pacer_scales_pieces_and_stops_helpers(width, monkeypatch):
    passes = iter([0.2, 0.2, 0.05])
    if width == 1:
        monkeypatch.setattr(reference, "reference_s", lambda: next(passes))
    clock = iter([0.0, 1.0, 1.0, 4.0, 4.0])
    pacer = reference.Pacer(lambda: next(clock), width=width)
    helpers = list(pacer._helpers)
    assert len(helpers) == (width if width > 1 else 0)
    pacer.split()
    pacer.split()
    pieces = pacer.take()
    pacer.close()
    assert len(pieces) == 2 and pacer.take() == []
    assert all(proc.poll() is not None for proc in helpers)
    for piece in pieces:
        assert piece.raw >= 0 and piece.wall >= 0
    if width == 1:
        # slow passes (0.2 s against 0.1 s) halve the CPU second of piece
        # one; a slow and a fast pass around piece two scale 3 s by 0.8
        assert pieces[0].cpu == pytest.approx(0.5)
        assert pieces[1].cpu == pytest.approx(3.0 * 0.1 / 0.125)
