"""The session-execution engine: fan-out, memoization, determinism.

Every experiment in this repository reduces to a batch of *independent*
``run_session(video, config)`` calls — independent because each session
builds a private network whose RNG streams derive from ``config.seed``
(see :func:`repro.simnet.rng.derive_seed`), never from shared state.  The
engine exploits exactly that:

* ``run_sessions(plans)`` executes a batch over ``jobs`` supervised
  worker processes (:func:`~repro.runner.supervise.run_supervised`) and
  returns results **in plan order** — completion-order results are
  reassembled by input index, so the output is byte-identical to a
  serial run regardless of worker scheduling.
* With a :class:`~repro.runner.cache.ResultCache`, each plan is first
  looked up by content fingerprint (video + config + code version); only
  misses are simulated, and their results are stored for the next run.
* ``run_tasks(fn, argslist)`` is the same machinery for coarser units
  (e.g. a whole concurrent-session cohort, or a Monte-Carlo run) that are
  not shaped like a single session.

Experiments do not thread ``jobs``/``cache`` through their signatures;
the CLI (or a test) installs them ambiently::

    with engine_options(jobs=4, cache="~/.cache/repro"):
        spec.run(scale, seed=0)     # every run_sessions() inside fans out

Telemetry follows the same ambient pattern (:mod:`repro.telemetry`):
inside a ``recording()`` scope the engine times its phases, counts cache
hits/misses, and merges each session's recorded snapshot back **in plan
order**, so ``jobs=N`` telemetry equals ``jobs=1`` telemetry just as the
results do.  Recording state never enters a cache fingerprint.
"""

from __future__ import annotations

import contextvars
import dataclasses
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple, Union

from ..telemetry import NullRecorder, Recorder, SessionTelemetry, current_recorder, use_recorder
from .cache import ResultCache
from .fingerprint import plan_fingerprint, task_fingerprint
from .journal import CampaignJournal
from .supervise import (
    CHAOS_ENV,
    CampaignAborted,
    FailedUnit,
    FailureReport,
    RetryBudget,
    SupervisionPolicy,
    UnitFailure,
    chaos_hook,
    chaos_mark_done,
    run_supervised,
)

__all__ = [
    "CacheLike",
    "CompositeRunObserver",
    "EngineOptions",
    "NULL_OBSERVER",
    "NullRunObserver",
    "RunStats",
    "SessionPlan",
    "current_options",
    "engine_options",
    "merge_options",
    "run_sessions",
    "run_tasks",
]


class NullRunObserver:
    """The disabled run observer: every callback is a no-op.

    Observers are the engine's outward-facing hook — live progress
    reporting and result collection (:mod:`repro.obs`) both plug in
    here.  The pattern mirrors :class:`~repro.telemetry.NullRecorder`:
    the ambient default is this disabled instance, call sites guard with
    a single ``if observer.enabled:`` check, and the observing path can
    never change what the engine computes — observers see results, they
    do not produce them, so outputs stay byte-identical for any worker
    count and cache keys never include observer state.
    """

    enabled = False

    def batch_started(self, units: int, cache_hits: int) -> None:
        """A ``run_sessions``/``run_tasks`` batch began (after cache lookup)."""

    def unit_started(self, index: int, label: str, worker: str) -> None:
        """A unit was handed to a supervised worker (health monitoring
        only: the :class:`~repro.obs.health.HealthMonitor` forwards it)."""

    def unit_finished(self, value: Any) -> None:
        """One simulated unit completed (cache misses only, completion order)."""

    def unit_failed(self, failure: UnitFailure) -> None:
        """A supervised unit's attempt failed; ``failure.final`` marks
        the attempt that quarantined it (only fires under supervision)."""

    def worker_beat(self, lane: Any) -> None:
        """A worker heartbeat arrived; ``lane`` is the live
        :class:`~repro.obs.health.WorkerLane` (health monitoring only)."""

    def worker_suspect(self, suspicion: Any) -> None:
        """Health monitoring flagged a :class:`~repro.obs.health.Suspicion`
        (missed-beat, straggler, worker-lost).  Report-only: supervision
        retry behavior never consults it."""

    def batch_finished(self, values: Sequence[Any]) -> None:
        """A batch returned; ``values`` holds every result in plan order."""


#: The process-wide disabled observer (ambient default).
NULL_OBSERVER = NullRunObserver()


class CompositeRunObserver(NullRunObserver):
    """Fan every engine callback out to several observers.

    ``enabled`` is true when any member is enabled, so a composite of
    disabled observers still costs a single guard check.
    """

    def __init__(self, *observers: NullRunObserver) -> None:
        self.observers = tuple(o for o in observers if o is not None)
        self.enabled = any(o.enabled for o in self.observers)

    def batch_started(self, units: int, cache_hits: int) -> None:
        for observer in self.observers:
            if observer.enabled:
                observer.batch_started(units, cache_hits)

    def unit_started(self, index: int, label: str, worker: str) -> None:
        for observer in self.observers:
            if observer.enabled:
                observer.unit_started(index, label, worker)

    def unit_finished(self, value: Any) -> None:
        for observer in self.observers:
            if observer.enabled:
                observer.unit_finished(value)

    def unit_failed(self, failure: UnitFailure) -> None:
        for observer in self.observers:
            if observer.enabled:
                observer.unit_failed(failure)

    def worker_beat(self, lane: Any) -> None:
        for observer in self.observers:
            if observer.enabled:
                observer.worker_beat(lane)

    def worker_suspect(self, suspicion: Any) -> None:
        for observer in self.observers:
            if observer.enabled:
                observer.worker_suspect(suspicion)

    def batch_finished(self, values: Sequence[Any]) -> None:
        for observer in self.observers:
            if observer.enabled:
                observer.batch_finished(values)


@dataclass(frozen=True)
class SessionPlan:
    """One unit of work for the engine: stream ``video`` under ``config``.

    Both fields are plain dataclasses, so a plan pickles to a worker and
    fingerprints into a cache key.
    """

    video: Any
    config: Any

    @property
    def key(self) -> str:
        return plan_fingerprint(self.video, self.config)


@dataclass
class RunStats:
    """Counters the engine accumulates while an experiment runs."""

    sessions: int = 0        # units requested (sessions + coarse tasks)
    cache_hits: int = 0
    cache_misses: int = 0    # units actually simulated
    retries: int = 0         # failed attempts that were re-run (supervision)
    failed: int = 0          # units quarantined after exhausting retries

    def add(self, requested: int, hits: int) -> None:
        self.sessions += requested
        self.cache_hits += hits
        self.cache_misses += requested - hits


@dataclass
class EngineOptions:
    """Ambient engine configuration (see :func:`engine_options`).

    ``supervision``/``journal``/``failures`` form the durability layer:
    a :class:`~repro.runner.supervise.SupervisionPolicy` sets the
    deadlines, retries and quarantine of supervised worker processes
    (and sends even ``jobs=1`` batches through them), a
    :class:`~repro.runner.journal.CampaignJournal` receives one
    outcome event (``done``/``retried``/``quarantined``) as each unit
    settles, and a
    :class:`~repro.runner.supervise.FailureReport` accumulates whatever
    was quarantined.  ``sharding`` is the campaign-scaling layer: a
    :class:`~repro.runner.sharding.Sharding` policy that sharding-aware
    call sites (:func:`~repro.runner.sharding.run_shards`, the
    ``model_validation`` experiment) consult to split one campaign into
    deterministic, individually-cached shards.  ``health`` is the
    observability side-channel: a
    :class:`~repro.obs.health.HealthMonitor` that receives worker
    heartbeats and unit lifecycle notifications from the supervised
    path — report-only, never part of a cache fingerprint (typed
    ``Any`` because the runner must not import ``repro.obs``, which
    imports the runner).  ``dist`` is the horizontal-scaling layer: a
    :class:`~repro.runner.dist.DistPolicy` that re-routes
    :func:`~repro.runner.sharding.run_shards` batches through the
    lease-based shard queue and its worker fleet instead of the local
    workers (typed ``Any`` to keep the ``dist`` subpackage a lazy import).
    Everything defaults to off/None — the engine then behaves exactly
    as it always has.
    """

    jobs: int = 1
    cache: Optional[ResultCache] = None
    stats: Optional[RunStats] = None
    observer: NullRunObserver = NULL_OBSERVER
    supervision: Optional[SupervisionPolicy] = None
    journal: Optional[CampaignJournal] = None
    failures: Optional[FailureReport] = None
    sharding: Optional[Any] = None  # repro.runner.sharding.Sharding
    health: Optional[Any] = None    # repro.obs.health.HealthMonitor
    dist: Optional[Any] = None      # repro.runner.dist.DistPolicy


_OPTIONS: contextvars.ContextVar[EngineOptions] = contextvars.ContextVar(
    "repro-engine-options", default=EngineOptions()
)

CacheLike = Union[ResultCache, str, Path, None]


def _as_cache(cache: CacheLike) -> Optional[ResultCache]:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


#: Per-field override normalizers applied by :func:`merge_options`.
_NORMALIZE = {
    "jobs": lambda jobs: max(1, int(jobs)),
    "cache": _as_cache,
}

_FIELD_NAMES = frozenset(f.name for f in dataclasses.fields(EngineOptions))


def merge_options(base: EngineOptions, overrides: dict) -> EngineOptions:
    """A new :class:`EngineOptions` = ``base`` with non-``None`` overrides.

    One ``dataclasses.replace`` call instead of a per-field
    ``base.x if x is None else x`` ladder: adding an engine option is
    now one dataclass field (plus, where needed, one ``_NORMALIZE``
    entry), and every caller — :func:`engine_options`, tests, the CLI —
    inherits it without edits.  ``None`` always means "keep the
    surrounding value", which is what makes nested scopes compose.
    """
    unknown = set(overrides) - _FIELD_NAMES
    if unknown:
        raise TypeError(
            f"unknown engine option(s): {', '.join(sorted(unknown))}; "
            f"know {', '.join(sorted(_FIELD_NAMES))}"
        )
    changes = {
        name: _NORMALIZE.get(name, lambda v: v)(value)
        for name, value in overrides.items()
        if value is not None
    }
    return dataclasses.replace(base, **changes)


def current_options() -> EngineOptions:
    """The engine options in effect for this context."""
    return _OPTIONS.get()


@contextmanager
def engine_options(**overrides):
    """Override the ambient engine options within a ``with`` block.

    Keywords are the :class:`EngineOptions` fields — ``jobs``, ``cache``
    (a :class:`ResultCache`, a path, or ``None``), ``stats``,
    ``observer``, ``supervision``, ``journal``, ``failures``,
    ``sharding``, ``health``, ``dist``.  ``None`` keeps the surrounding value, so nested
    scopes compose: a test can pin ``jobs=1`` around an experiment the
    CLI configured with ``jobs=8``.
    """
    base = _OPTIONS.get()
    options = merge_options(base, overrides)
    token = _OPTIONS.set(options)
    try:
        yield options
    finally:
        _OPTIONS.reset(token)


# -- workers ------------------------------------------------------------------
# Module-level functions: picklable by reference under both fork and spawn.
# Each payload carries an explicit ``record`` flag because the ambient
# recorder is a contextvar: a forked worker would inherit it, a spawned
# worker would not, and telemetry must not depend on the start method.

def _call_plan(payload: Tuple[SessionPlan, bool]):
    plan, record = payload
    from ..streaming import run_session

    # chaos hooks ($REPRO_CHAOS): deterministic fault injection for the
    # durability tests and the chaos-smoke CI job; one dict lookup when off
    chaos = CHAOS_ENV in os.environ
    if chaos:
        chaos_hook(plan.key)
    if record:
        # run_session sees an enabled ambient recorder and attaches its
        # per-session snapshot to the result, which travels back to the
        # parent through the ordinary pickle round-trip.
        with use_recorder(Recorder()):
            result = run_session(plan.video, plan.config)
    else:
        result = run_session(plan.video, plan.config)
    if chaos:
        chaos_mark_done(plan.key)
    return result


@dataclass
class _TaskEnvelope:
    """A task result plus the telemetry its worker recorded.

    ``run_tasks`` results are arbitrary objects with nowhere to attach a
    snapshot, so recorded runs wrap them; the engine unwraps and merges
    before returning.  Envelopes may land in the result cache — a later
    telemetry-off run unwraps them the same way.
    """

    value: Any
    telemetry: Optional[SessionTelemetry] = None


def _call_task(payload: Tuple[Callable[..., Any], tuple, bool]):
    fn, args, record = payload
    if record:
        rec = Recorder()
        with use_recorder(rec):
            value = fn(*args)
        return _TaskEnvelope(value, rec.snapshot())
    return fn(*args)


#: The policy of a parallel batch that asked for none: one attempt, no
#: deadline, and a failing unit aborts the batch once it settles.
_UNSUPERVISED = SupervisionPolicy(retry=RetryBudget(max_attempts=1))

#: An executor runs a batch's cache misses and reports each unit as it
#: settles.  Every executor has :func:`~repro.runner.supervise.run_supervised`'s
#: shape: ``execute(worker, items, *, jobs, policy, describe, keys,
#: on_done, on_failure, health) -> (results, quarantined, retries)``,
#: calling ``on_done(index, value, worker, run_s)`` and
#: ``on_failure(failure)`` with batch-local indices.
Executor = Callable[..., Tuple[List[Any], List[UnitFailure], int]]


def _run_inline(worker: Callable[[Any], Any], items: Sequence[Any], *,
                on_done: Callable[..., None], **_unused: Any
                ) -> Tuple[List[Any], List[UnitFailure], int]:
    """The in-process executor: ``worker`` over ``items``, in input order.

    The reference path for ``jobs=1`` and single-unit batches: no worker
    process, no pickle round-trip, and the first exception propagates.
    It needs none of the supervised executor's other arguments.
    """
    results = []
    for index, item in enumerate(items):
        started = time.perf_counter()
        result = worker(item)
        on_done(index, result, None, time.perf_counter() - started)
        results.append(result)
    return results, [], 0


def _run_cached(worker: Callable[[Any], Any], items: Sequence[Any],
                keys: Optional[List[str]], options: EngineOptions,
                rec: NullRecorder,
                describe: Optional[Callable[[int], str]] = None,
                on_result: Optional[Callable[[Any], None]] = None,
                execute: Optional[Executor] = None) -> List[Any]:
    """Cache-lookup, execute, persist: the engine's one batch pipeline.

    Cache hits settle first.  The misses go to one executor: the given
    ``execute`` (the distributed coordinator), else inline when there is
    no supervision policy and ``jobs=1`` or a single miss, else
    :func:`~repro.runner.supervise.run_supervised` (with
    :data:`_UNSUPERVISED` standing in for a missing policy).  Whatever
    the executor, this function alone does the bookkeeping: each unit
    is persisted (cache + journal) and reported (observer, failure
    report) *as it settles*, so a campaign killed mid-batch keeps
    everything already simulated; stats, telemetry counters and the
    abort rule apply once the batch has settled.  An ``execute``
    executor's workers put each result in the shared cache before
    reporting it, so it is not written again here.

    ``on_result`` receives every result **in plan order** as the
    settled plan-order prefix grows — not in completion order, which is
    what keeps an order-dependent reduction identical on every executor.
    """
    cache, journal, observer = options.cache, options.journal, options.observer
    failures, health = options.failures, options.health
    total = len(items)
    results: List[Any] = [None] * total
    settled = [False] * total
    pending = list(range(total))
    if cache is not None and keys is not None:
        pending = []
        for i, key in enumerate(keys):
            hit = cache.get(key)
            if hit is None:
                pending.append(i)
            else:
                results[i] = hit
                settled[i] = True
                if journal is not None:
                    journal.done(key, cached=True)  # skipped on resume
    hits = total - len(pending)
    if observer.enabled:
        observer.batch_started(total, hits)
    if health is not None:
        health.attach(observer)
        health.batch_started(total, hits)
    if rec.enabled:
        rec.inc("engine.units", total)
        rec.inc("engine.cache_hits", hits)
        rec.inc("engine.cache_misses", len(pending))

    cursor = 0  # next plan index to hand to on_result

    def commit() -> None:
        nonlocal cursor
        while cursor < total and settled[cursor]:
            on_result(results[cursor])
            cursor += 1

    def settle(i: int, value: Any) -> None:
        results[i] = value
        settled[i] = True
        if on_result is not None:
            commit()

    write_back = execute is None

    def on_done(local_index: int, value: Any, worker_id: Optional[str],
                run_s: Optional[float], **fields: Any) -> None:
        # ``fields``: executor-specific journal attribution (a shard label)
        i = pending[local_index]
        if keys is not None:
            if cache is not None and write_back:
                cache.put(keys[i], value)
            if journal is not None:
                journal.done(keys[i], unit=local_index, worker=worker_id,
                             latency_s=(None if run_s is None
                                        else round(run_s, 6)),
                             **fields)
        if observer.enabled:
            observer.unit_finished(value)
        settle(i, value)

    def on_failure(failure: UnitFailure) -> None:
        if journal is not None and failure.key is not None:
            # batch-local ``unit``, like the health monitor's ``started``
            record = (journal.quarantined if failure.final
                      else journal.retried)
            record(failure.key, failure.error, failure.attempts,
                   unit=failure.index, label=failure.label,
                   worker=failure.worker, kind=failure.kind)
        # remap the executor's batch-local index to the plan index
        failure.index = pending[failure.index]
        if failure.final and failures is not None:
            failures.add(failure)
        if observer.enabled:
            observer.unit_failed(failure)
        if failure.final:
            settle(failure.index, FailedUnit(failure))

    supervision = options.supervision
    if execute is None:
        execute = (_run_inline if supervision is None
                   and (options.jobs <= 1 or len(pending) <= 1)
                   else run_supervised)
    policy = supervision or _UNSUPERVISED
    if on_result is not None:
        commit()  # the cached prefix flows before anything executes
    with rec.span("engine.execute"):
        _, quarantined, retries = execute(
            worker, [items[i] for i in pending], jobs=options.jobs,
            policy=policy,
            describe=((lambda li: describe(pending[li]))
                      if describe is not None else None),
            keys=[keys[i] for i in pending] if keys is not None else None,
            on_done=on_done, on_failure=on_failure, health=health)
    if options.stats is not None:
        options.stats.add(total, hits)
        options.stats.retries += retries
        options.stats.failed += len(quarantined)
    if failures is not None:
        failures.retries += retries
    if rec.enabled and supervision is not None:
        # a batch without a policy never retries; its counters stay
        # those of the inline path, so jobs=N telemetry equals jobs=1
        rec.inc("engine.retries", retries)
        rec.inc("engine.quarantined", len(quarantined))
    if quarantined and not policy.degrade:
        # the ambient report (when installed) already holds the batch's
        # quarantines via on_failure; raise with it so callers see one
        # accumulated account, not a per-batch fragment
        report = failures
        if report is None:
            report = FailureReport()
            report.retries = retries
            for failure in quarantined:
                report.add(failure)
        raise CampaignAborted(report)
    return results


def _batch_options(jobs: Optional[int], cache: CacheLike,
                   stats: Optional[RunStats]) -> EngineOptions:
    """The ambient options with one batch's explicit overrides."""
    return merge_options(_OPTIONS.get(),
                         {"jobs": jobs, "cache": cache, "stats": stats})


PlanLike = Union[SessionPlan, Tuple[Any, Any]]


def run_sessions(plans: Iterable[PlanLike], *, jobs: Optional[int] = None,
                 cache: CacheLike = None,
                 stats: Optional[RunStats] = None) -> List[Any]:
    """Execute a batch of session plans; results come back in plan order.

    ``plans`` holds :class:`SessionPlan` objects or ``(video, config)``
    tuples.  ``jobs``/``cache``/``stats`` default to the ambient
    :func:`engine_options`; experiments normally pass none of them.
    """
    options = _batch_options(jobs, cache, stats)
    normalized = [p if isinstance(p, SessionPlan) else SessionPlan(*p)
                  for p in plans]
    keys = None
    if options.cache is not None or options.journal is not None:
        # The cache key is (video, config, code version) only — whether
        # telemetry is recording never changes what a session computes,
        # so it must not change where its result lives.
        keys = [plan.key for plan in normalized]
    rec = current_recorder()
    payloads = [(plan, rec.enabled) for plan in normalized]

    def describe(i: int) -> str:
        plan = normalized[i]
        video = getattr(plan.video, "video_id", None) or "session"
        seed = getattr(plan.config, "seed", "?")
        return f"{video} seed={seed}"

    with rec.span("engine.run_sessions"):
        rec.gauge("engine.jobs", options.jobs)
        results = _run_cached(_call_plan, payloads, keys, options, rec,
                              describe)
        if rec.enabled:
            # Merge per-session telemetry in *plan order* — the results
            # list is already plan-ordered, so merged counters and event
            # logs are identical for any worker count.  Cache hits replay
            # whatever telemetry they were computed with (possibly none).
            for result in results:
                telemetry = getattr(result, "telemetry", None)
                if telemetry is not None:
                    rec.merge(telemetry)
    if options.observer.enabled:
        options.observer.batch_finished(results)
    return results


def run_tasks(fn: Callable[..., Any], argslist: Iterable[tuple], *,
              jobs: Optional[int] = None, cache: CacheLike = None,
              stats: Optional[RunStats] = None,
              keys: Optional[List[str]] = None) -> List[Any]:
    """Execute ``fn(*args)`` for each args tuple, in order.

    ``fn`` must be a module-level function (picklable by reference) and
    deterministic in its arguments — the cache key is (function name,
    args, code version), exactly parallel to the session path.  A caller
    that already owns a content-addressing scheme (the shard engine's
    shard fingerprints) passes explicit ``keys``, one per args tuple;
    the caller then guarantees the key covers everything the task result
    depends on.
    """
    return _run_tasks(fn, argslist, _batch_options(jobs, cache, stats), keys)


def _run_tasks(fn: Callable[..., Any], argslist: Iterable[tuple],
               options: EngineOptions, keys: Optional[List[str]],
               on_result: Optional[Callable[[Any], None]] = None,
               execute: Optional[Executor] = None,
               labels: Optional[Sequence[str]] = None) -> List[Any]:
    """:func:`run_tasks` with the pipeline's streaming hook and executor
    seam exposed (the shard engine's entry point; see :func:`_run_cached`).

    ``labels`` names each unit in ``started``/``retried``/``quarantined``
    events and failure reports; by default a unit is named after ``fn``
    and its clipped arguments."""
    rec = current_recorder()
    items = [(fn, tuple(args), rec.enabled) for args in argslist]
    if keys is not None:
        keys = list(keys)
        if len(keys) != len(items):
            raise ValueError(
                f"run_tasks got {len(items)} tasks but {len(keys)} keys")
    elif options.cache is not None or options.journal is not None:
        # Keyed on (function, args, code version); the record flag is
        # deliberately excluded, like everything telemetry-related.
        keys = [task_fingerprint(fn, args) for _fn, args, _record in items]

    def describe(i: int) -> str:
        if labels is not None:
            return labels[i]
        _fn, args, _record = items[i]
        rendered = repr(args)
        if len(rendered) > 60:
            rendered = rendered[:57] + "..."
        return f"{fn.__name__}{rendered}"

    def unwrap(result: Any) -> Any:
        return result.value if isinstance(result, _TaskEnvelope) else result

    emit = None
    if on_result is not None:
        def emit(result: Any) -> None:
            on_result(unwrap(result))

    with rec.span("engine.run_tasks"):
        rec.gauge("engine.jobs", options.jobs)
        results = _run_cached(_call_task, items, keys, options, rec,
                              describe, emit, execute)
        if rec.enabled:
            for result in results:
                if isinstance(result, _TaskEnvelope) \
                        and result.telemetry is not None:
                    rec.merge(result.telemetry)
    unwrapped = [unwrap(result) for result in results]
    if options.observer.enabled:
        options.observer.batch_finished(unwrapped)
    return unwrapped
