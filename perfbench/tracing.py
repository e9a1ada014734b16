"""Per-layer attribution for the traced run.

Three sources, combined by :func:`trace_round`:

* the program's own telemetry recorder (``repro.telemetry.recording``),
  whose work counters and worker-side spans ride back to the driver on
  every result;
* span wrappers installed around the layers' public entry points for the
  length of the traced round and restored after it.  In the driver they
  time into a :class:`SpanTracer`; in a forked pool worker they record into
  the worker's ambient recorder, so the engine carries them back;
* for ``session_core``, where per-call wrappers would swamp the per-packet
  layers, a cProfile run whose self time is split by ``src/repro/<layer>/``.

Layer self times are driver wall time: a span's duration minus the time
its child spans cover.  They plus ``other.self_s`` sum to the traced wall
time.  Work done in pool workers shows as ``runner.unit_sim_s`` and
``runner.worker_busy`` instead.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pickle
import pstats
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

import repro
from repro.simnet.scheduler import EventScheduler
from repro.telemetry import current_recorder, recording

#: The ``src/repro`` packages, which are the layers.
REPRO_ROOT = Path(repro.__file__).resolve().parent
LAYERS = tuple(sorted(p.name for p in REPRO_ROOT.iterdir()
                      if (p / "__init__.py").exists()))

#: Public entry points wrapped in the traced run, as (module, attribute)
#: with ``Class.member`` for methods and properties.  Each counts toward
#: the layer (package) it lives in.
ENTRY_POINTS = (
    ("repro.experiments", "ExperimentSpec.run"),
    ("repro.runner.pool", "run_sessions"),
    ("repro.runner.pool", "run_tasks"),
    ("repro.runner.sharding", "run_shards"),
    ("repro.runner.cache", "ResultCache.get"),
    ("repro.runner.cache", "ResultCache.put"),
    ("repro.runner.journal", "CampaignJournal.done"),
    ("repro.pcap.capture", "TraceCapture.records"),
    ("repro.analysis.session_analysis", "analyze_session"),
    ("repro.analysis.session_analysis", "analyze_records"),
    ("repro.analysis.flowtable", "build_download_trace"),
    ("repro.analysis.onoff", "detect_onoff"),
    ("repro.analysis.phases", "split_phases"),
    ("repro.analysis.classify", "classify_onoff"),
    ("repro.analysis.accumulation", "estimate_session_rate"),
    ("repro.analysis.ackclock", "ackclock_samples"),
    ("repro.model.montecarlo", "simulate_aggregate"),
    ("repro.model.montecarlo", "simulate_aggregate_moments"),
    ("repro.model.montecarlo", "simulate_wasted_bandwidth"),
    ("repro.workloads.datasets", "make_dataset"),
    ("repro.workloads.catalog", "generate_youtube_catalog"),
    ("repro.workloads.catalog", "generate_netflix_catalog"),
)

#: Metrics that report one entry point's inclusive time.
INCLUSIVE = {
    "runner.cache_get_s": "repro.runner.cache:ResultCache.get",
    "runner.cache_put_s": "repro.runner.cache:ResultCache.put",
    "pcap.records_s": "repro.pcap.capture:TraceCapture.records",
    "analysis.flowtable_s": "repro.analysis.flowtable:build_download_trace",
    "analysis.onoff_s": "repro.analysis.onoff:detect_onoff",
    "analysis.ackclock_s": "repro.analysis.ackclock:ackclock_samples",
    "analysis.rate_s": "repro.analysis.accumulation:estimate_session_rate",
}

#: Work counters, by the telemetry counter they read.
COUNTERS = {
    "simnet.events": "scheduler.events",
    "simnet.ff_jumps": "perfbench.ff_jumps",
    "simnet.ff_refusals": "perfbench.ff_refusals",
    "simnet.ff_skipped_s": "perfbench.ff_skipped_s",
    "tcp.segments_sent": "tcp.segments_sent",
    "tcp.retransmits": "tcp.retransmits",
    "streaming.requests": "player.requests",
    "streaming.rebuffers": "player.rebuffers",
    "pcap.packets": "pcap.packets",
    "analysis.packets": "analysis.packets",
    "runner.units": "engine.units",
    "runner.cache_hits": "engine.cache_hits",
    "runner.cache_misses": "engine.cache_misses",
    "runner.retries": "engine.retries",
    "runner.quarantined": "engine.quarantined",
    "runner.cache_bytes": "cache.bytes_written",
}

#: The engine merges each unit's worker-side telemetry under one of these
#: spans, so a worker span directly below one is one unit's run.
_ENGINE_SPANS = ("engine.run_sessions", "engine.run_tasks")
_ENGINE_CALLS = ("repro.runner.pool:run_sessions",
                 "repro.runner.pool:run_tasks")


def _is_unit_span(path: str) -> bool:
    """A unit's worker-side run: a ``session`` span or an entry-point span
    (named ``module:attr``) merged directly below an engine span."""
    *parents, name = path.split("/")
    return (bool(parents) and parents[-1] in _ENGINE_SPANS
            and (name == "session" or ":" in name))


def layer_of(module: str) -> str:
    """The layer of a ``repro.<layer>...`` module name."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[1] in LAYERS else "other"


class SpanTracer:
    """Driver-side spans: per-layer self time and per-name total time."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.layer_self: Dict[str, float] = defaultdict(float)
        self.total: Dict[str, float] = defaultdict(float)
        self.engine_wall = 0.0      # wall time inside outermost engine calls
        self.returned: List[Any] = []   # what those calls returned
        self._covered: List[float] = []  # child time, one per open span
        self._engine_depth = 0

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        tracer = self
        engine_call = name in _ENGINE_CALLS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                # a forked pool worker: record into the worker's recorder,
                # which the engine carries back on the unit's result
                rec = current_recorder()
                if not rec.enabled:
                    return fn(*args, **kwargs)
                with rec.span(name):
                    return fn(*args, **kwargs)
            outermost = engine_call and tracer._engine_depth == 0
            tracer._engine_depth += engine_call
            tracer._covered.append(0.0)
            start = time.perf_counter()
            try:
                value = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                tracer._engine_depth -= engine_call
                tracer.layer_self[layer] += duration - tracer._covered.pop()
                tracer.total[name] += duration
                if tracer._covered:
                    tracer._covered[-1] += duration
            if outermost:
                tracer.engine_wall += duration
                tracer.returned.extend(value)
            return value

        return traced


def _counting_run_until(original: Callable) -> Callable:
    """``EventScheduler.run_until`` that adds the scheduler's own
    fast-forward tallies to the ambient recorder as counters."""

    @functools.wraps(original)
    def run_until(self, t, max_events=None):
        jumps = self.fast_forward_jumps
        refusals = self.fast_forward_refusals
        skipped = self.fast_forwarded_s
        try:
            return original(self, t, max_events=max_events)
        finally:
            rec = current_recorder()
            if rec.enabled:
                rec.inc("perfbench.ff_jumps", self.fast_forward_jumps - jumps)
                rec.inc("perfbench.ff_refusals",
                        self.fast_forward_refusals - refusals)
                rec.inc("perfbench.ff_skipped_s",
                        self.fast_forwarded_s - skipped)

    return run_until


@contextmanager
def installed(tracer: SpanTracer) -> Iterator[None]:
    """Wrap every entry point and the scheduler's ``run_until``; restore
    all of them on exit."""
    saved: List[Tuple[Any, str, Any]] = []

    def replace(owner: Any, member: str, value: Any) -> None:
        saved.append((owner, member, vars(owner)[member]))
        setattr(owner, member, value)

    try:
        for module_name, attr in ENTRY_POINTS:
            owner: Any = __import__(module_name, fromlist=["_"])
            *classes, member = attr.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = vars(owner)[member]
            name, layer = f"{module_name}:{attr}", layer_of(module_name)
            if isinstance(original, property):
                replace(owner, member,
                        property(tracer.wrap(original.fget, name, layer)))
            elif classes:
                replace(owner, member, tracer.wrap(original, name, layer))
            else:
                # callers import functions by name: rebind every alias
                wrapped = tracer.wrap(original, name, layer)
                for module in list(sys.modules.values()):
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            replace(module, alias, wrapped)
        replace(EventScheduler, "run_until",
                _counting_run_until(EventScheduler.run_until))
        yield
    finally:
        for owner, member, value in reversed(saved):
            setattr(owner, member, value)


# -- the module-grouped profile ---------------------------------------------------

def _file_layer(filename: str) -> str:
    """Layer of a source file under ``src/repro/<layer>/``, or ``""``."""
    try:
        rel = Path(filename).resolve().relative_to(REPRO_ROOT)
    except (ValueError, OSError):
        return ""
    return rel.parts[0] if len(rel.parts) > 1 else "other"


def profile_layer_self(profile: cProfile.Profile) -> Dict[str, float]:
    """Self time per layer from a profile.

    A function in ``src/repro/<layer>/`` is that layer's.  Anything else
    (builtins, the standard library, numpy) is charged to its callers'
    layers in proportion to the time it spent for each caller, so a
    ``heapq.heappush`` from the scheduler counts as simnet.
    """
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    shares: Dict[Any, Dict[str, float]] = {}

    def share(func: Any, visiting: frozenset) -> Dict[str, float]:
        if func in shares:
            return shares[func]
        own = _file_layer(func[0])
        if own:
            result = {own: 1.0}
        else:
            callers = stats[func][4] if func in stats else {}
            weights = {c: edge[2] for c, edge in callers.items()
                       if c not in visiting}
            total = sum(weights.values())
            if not total:
                weights = {c: edge[1] for c, edge in callers.items()
                           if c not in visiting}
                total = sum(weights.values())
            result = defaultdict(float)
            if not total:
                result["other"] = 1.0
            for caller, weight in weights.items():
                for layer, part in share(caller, visiting | {func}).items():
                    result[layer] += part * weight / total
            result = dict(result)
        shares[func] = result
        return result

    layer_self: Dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        for layer, part in share(func, frozenset()).items():
            layer_self[layer] += tottime * part
    return layer_self


# -- the traced round -------------------------------------------------------------

def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def trace_round(run_round: Callable[[], Any], *, profile: bool,
                jobs: int) -> Tuple[Any, Dict[str, float]]:
    """Run one round traced; return the round and its per-layer metrics
    (without ``trace.overhead``, which needs the untraced wall)."""
    tracer = SpanTracer()
    profiler = cProfile.Profile() if profile else None
    with recording() as rec, installed(tracer):
        start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            round_ = run_round()
        finally:
            if profiler is not None:
                profiler.disable()
            wall = time.perf_counter() - start

    layer_self = (profile_layer_self(profiler) if profiler is not None
                  else tracer.layer_self)
    metrics: Dict[str, float] = {}
    named = 0.0
    for layer in LAYERS:
        value = layer_self.get(layer, 0.0)
        metrics[f"{layer}.self_s"] = value
        named += value
    metrics["other.self_s"] = wall - named
    metrics["trace.wall_s"] = wall

    for metric, counter in COUNTERS.items():
        metrics[metric] = rec.counters.get(counter, 0)
    for metric, name in INCLUSIVE.items():
        metrics[metric] = tracer.total.get(name, 0.0)

    jumps, refusals = metrics["simnet.ff_jumps"], metrics["simnet.ff_refusals"]
    metrics["simnet.ff_engaged"] = (jumps / (jumps + refusals)
                                    if jumps + refusals else 0.0)
    sent = metrics["tcp.segments_sent"]
    metrics["tcp.retx_ratio"] = metrics["tcp.retransmits"] / sent if sent else 0.0

    # each unit's worker-side run, carried back on its result's telemetry
    unit_s = [span.duration for span in rec.spans
              if _is_unit_span(span.path)]
    units = metrics["runner.units"]
    capacity = tracer.engine_wall * jobs
    metrics["runner.unit_sim_s.p50"] = _percentile(unit_s, 50)
    metrics["runner.unit_sim_s.p95"] = _percentile(unit_s, 95)
    metrics["runner.worker_busy"] = sum(unit_s) / capacity if capacity else 0.0
    metrics["runner.overhead_s_per_unit"] = (
        (capacity - sum(unit_s)) / len(unit_s) if unit_s else 0.0)
    # outside the timed region: pickled size of what the engine returned
    metrics["runner.result_bytes"] = (
        statistics.fmean(len(pickle.dumps(r)) for r in tracer.returned)
        if tracer.returned and units else 0.0)
    return round_, metrics
