"""Worker supervision: the engine's parallel executor and fault boundary.

Every parallel batch the engine runs goes through :func:`run_supervised`.
Long campaigns cannot assume a perfect world — a single stuck session
or a worker OOM-killed by the OS used to stall or abort the whole run —
so this module is the engine's fault boundary:

* every unit runs in a *supervised worker process* with a wall-clock
  deadline; a worker that exceeds it is killed and respawned;
* a unit whose worker crashed, hung, or raised is retried with
  exponential backoff under a :class:`RetryBudget`;
* a unit that keeps failing (``max_attempts`` exhausted, or the
  campaign-wide retry budget drained) is **quarantined** — recorded as a
  :class:`UnitFailure` and replaced by a :class:`FailedUnit` placeholder
  instead of aborting the campaign;
* everything that went wrong comes back as a :class:`FailureReport`
  (unit keys, exception tracebacks, retry counts) so partial results
  degrade *loudly*, never silently.

The policy is ambient (``EngineOptions.supervision``).  A parallel
batch without one runs under a one-attempt, no-deadline policy, so a
failing unit raises :class:`CampaignAborted` once the batch settles;
``jobs=1`` and single-unit batches without a policy run inline, where
the first exception propagates.

The module also hosts the chaos hooks (``$REPRO_CHAOS``) used by the
chaos-smoke CI job and the durability tests to inject worker crashes,
poison units, and campaign kills deterministically.
"""

from __future__ import annotations

import hashlib
import heapq
import multiprocessing
import os
import sys
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Deque, List, Optional, Sequence, Tuple

__all__ = [
    "CampaignAborted",
    "ChaosError",
    "FailedUnit",
    "FailureReport",
    "RetryBudget",
    "SupervisionPolicy",
    "UnitFailure",
    "run_supervised",
]


@dataclass(frozen=True)
class RetryBudget:
    """How hard to try before declaring a unit poisoned.

    ``max_attempts`` bounds per-unit attempts (1 = no retry); ``total``
    optionally bounds *retries across the whole campaign* so a sweep of
    correlated failures cannot multiply the runtime unboundedly.  The
    delay before attempt ``n+1`` is ``min(cap, base * 2**(n-1))``
    seconds — exponential backoff, deterministic (no jitter), and
    ``base=0`` disables waiting entirely (the test default).
    """

    max_attempts: int = 3
    total: Optional[int] = None
    backoff_base: float = 0.5
    backoff_cap: float = 30.0

    def delay(self, attempt: int) -> float:
        """Seconds to wait before retrying after failed attempt ``attempt``."""
        if self.backoff_base <= 0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))


@dataclass(frozen=True)
class SupervisionPolicy:
    """Ambient fault-tolerance configuration for the engine.

    ``unit_timeout`` is the per-unit wall-clock deadline in seconds
    (``None`` = no deadline); ``retry`` governs attempts and backoff;
    ``degrade`` chooses what happens when quarantined units remain at
    the end of a batch: ``True`` returns :class:`FailedUnit`
    placeholders in their result slots, ``False`` (the default) raises
    :class:`CampaignAborted` *after* the batch finishes — completed
    units are already persisted, so a resumed campaign never repeats
    them.
    """

    unit_timeout: Optional[float] = None
    retry: RetryBudget = field(default_factory=RetryBudget)
    degrade: bool = False


@dataclass
class UnitFailure:
    """One unit's terminal (or transient) failure, fully attributed."""

    index: int                 # position in the batch (plan order)
    label: str                 # human-readable unit description
    key: Optional[str]         # cache fingerprint, when the batch has one
    kind: str                  # "exception" | "crash" | "timeout"
    error: str                 # repr of the exception / crash description
    traceback: str = ""        # worker-side traceback, when one exists
    attempts: int = 1          # attempts consumed so far
    final: bool = False        # True once the unit is quarantined
    worker: Optional[str] = None  # supervised worker lane ("w0", ...)

    def record(self) -> dict:
        """The failure as a flat export record (see ``FAILURE_FIELDS``)."""
        return {
            "unit": self.index,
            "label": self.label,
            "key": self.key,
            "kind": self.kind,
            "error": self.error,
            "attempts": self.attempts,
            "final": self.final,
            "worker": self.worker,
            "traceback": self.traceback,
        }


@dataclass(frozen=True)
class FailedUnit:
    """Placeholder occupying a quarantined unit's result slot.

    Only appears under ``SupervisionPolicy(degrade=True)``; consumers
    that tolerate partial campaigns filter these out (the campaign
    collector does), consumers that cannot will fail loudly on the
    placeholder instead of silently computing over missing sessions.
    """

    failure: UnitFailure


class FailureReport:
    """Everything that went wrong in a campaign, in plan order.

    Accumulated ambiently (``EngineOptions.failures``) across every
    batch an experiment runs, surfaced by the CLI as a table and by the
    campaign collector as an export.  ``ok`` is ``True`` when the
    campaign lost nothing.
    """

    def __init__(self) -> None:
        self.failures: List[UnitFailure] = []
        self.retries: int = 0

    @property
    def ok(self) -> bool:
        """``True`` when no unit was quarantined."""
        return not self.failures

    def add(self, failure: UnitFailure) -> None:
        """Record one quarantined unit."""
        self.failures.append(failure)

    def records(self) -> List[dict]:
        """Flat export records, one per quarantined unit."""
        return [f.record() for f in self.failures]

    def format(self) -> str:
        """A human-readable failure table for the CLI."""
        if self.ok:
            return "no failures"
        lines = [f"{len(self.failures)} unit(s) quarantined "
                 f"({self.retries} retries spent):"]
        for f in self.failures:
            key = f" key={f.key[:12]}" if f.key else ""
            lines.append(f"  [{f.kind}] {f.label}{key} "
                         f"after {f.attempts} attempt(s): {f.error}")
        return "\n".join(lines)


class CampaignAborted(RuntimeError):
    """A batch finished with quarantined units and ``degrade`` is off.

    Raised *after* the batch completes, with every completed unit
    already persisted to the cache/journal — ``repro experiment
    --resume`` (or simply rerunning against the same cache) re-simulates
    only what is missing.  ``report`` carries the full
    :class:`FailureReport`.
    """

    def __init__(self, report: FailureReport) -> None:
        super().__init__(report.format())
        self.report = report


# -- chaos hooks --------------------------------------------------------------
# Deterministic fault injection for the chaos-smoke CI job and the
# durability tests.  $REPRO_CHAOS selects a mode:
#
#   crash[:rate]      selected units hard-kill their worker (os._exit)
#                     on the first attempt; a marker file in
#                     $REPRO_CHAOS_DIR makes the retry succeed
#   poison[:rate]     selected units raise ChaosError on every attempt,
#                     driving the quarantine path
#   kill-after:<n>    the whole process exits (code 130, like SIGINT)
#                     once n units have completed — simulates a campaign
#                     killed mid-run, for resume testing
#
# Units are selected by hashing their cache key, so the same units
# misbehave on every run and under any --jobs value.

CHAOS_ENV = "REPRO_CHAOS"
CHAOS_DIR_ENV = "REPRO_CHAOS_DIR"

#: Process exit code used by crash-mode chaos (mimics SIGKILL's 128+9).
CHAOS_CRASH_EXIT = 137
#: Process exit code used by kill-after chaos (mimics SIGINT's 128+2).
CHAOS_KILL_EXIT = 130


class ChaosError(RuntimeError):
    """The failure injected by poison-mode chaos."""


def _chaos_selected(key: str, rate: float) -> bool:
    digest = hashlib.sha256(f"chaos:{key}".encode()).digest()
    return digest[0] / 256.0 < rate


def _chaos_dir() -> Optional[str]:
    root = os.environ.get(CHAOS_DIR_ENV)
    if root:
        os.makedirs(root, exist_ok=True)
    return root


def _chaos_marker(root: str, key: str, suffix: str) -> str:
    # shard chaos keys contain "/" ("...:1/4"): flatten so the marker
    # stays a single file directly under $REPRO_CHAOS_DIR
    safe = key.replace(os.sep, "_").replace("/", "_")
    return os.path.join(root, f"{safe}.{suffix}")


def chaos_hook(key: str) -> None:
    """Entry-side chaos: maybe crash or poison the unit ``key``.

    Called by the engine's worker functions before simulating, only when
    ``$REPRO_CHAOS`` is set (the env check lives at the call site so the
    common path costs one dict lookup).
    """
    spec = os.environ.get(CHAOS_ENV, "")
    mode, _, arg = spec.partition(":")
    if mode == "crash":
        rate = float(arg) if arg else 0.5
        root = _chaos_dir()
        if root is None or not _chaos_selected(key, rate):
            return
        marker = _chaos_marker(root, key, "crashed")
        if not os.path.exists(marker):
            with open(marker, "w"):
                pass
            os._exit(CHAOS_CRASH_EXIT)
    elif mode == "poison":
        rate = float(arg) if arg else 0.5
        if _chaos_selected(key, rate):
            raise ChaosError(f"poison unit {key[:12]}")
    elif mode == "kill-after":
        threshold = int(arg)
        root = _chaos_dir()
        if root is not None:
            done = sum(1 for name in os.listdir(root)
                       if name.endswith(".done"))
            if done >= threshold:
                os._exit(CHAOS_KILL_EXIT)


def chaos_mark_done(key: str) -> None:
    """Exit-side chaos bookkeeping: count a completed unit for kill-after."""
    if not os.environ.get(CHAOS_ENV, "").startswith("kill-after"):
        return
    root = _chaos_dir()
    if root is not None:
        with open(_chaos_marker(root, key, "done"), "w"):
            pass


# -- the supervisor -----------------------------------------------------------

#: Units a worker holds at once: the one it runs plus one queued behind
#: it, so a worker starts its next unit without a round trip to the
#: supervisor.
_DEPTH = 2

#: A unit is queued behind a running one only if its pickled message is
#: this small: a message larger than the pipe buffer would block the
#: supervisor in ``send`` until the worker finished its running unit,
#: and with it every deadline check.
_AHEAD_BYTES = 16 * 1024


def _context():
    # fork starts in milliseconds and inherits sys.path; spawn is the
    # portable fallback (macOS/Windows default)
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _worker_rss_kb() -> int:
    """Peak RSS of this worker process, in kB (0 where unsupported)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS
    return peak // 1024 if sys.platform == "darwin" else peak


def _beat_emitter(beats, interval: float, counter) -> None:
    """Daemon loop inside a supervised worker: one heartbeat per period.

    Each beat is ``(units_done, rss_kb)`` — liveness plus progress plus
    memory, the whole wire format.  Runs on a daemon thread so a wedged
    unit on the main thread is exactly what *stops* the beats: silence
    is the signal.  (A wedge that holds the GIL stops them too — either
    way the parent sees missed beats.)
    """
    while True:
        time.sleep(interval)
        try:
            beats.send((counter[0], _worker_rss_kb()))
        except Exception:  # parent gone / pipe closed: nothing to tell
            return


def _supervised_worker_main(worker: Callable[[Any], Any], inbox, outbox,
                            beats=None, beat_interval: float = 1.0) -> None:
    """Loop of one supervised worker process: run units until told to stop.

    Units arrive on ``inbox`` and are run in arrival order.  Results and
    exceptions both travel back through ``outbox``; an abrupt death
    (crash, kill, chaos) is detected by the supervisor through the
    process sentinel instead.  When health monitoring is on, ``beats``
    is a dedicated pipe fed by a daemon heartbeat thread — separate from
    ``outbox`` so a torn result pickle can never corrupt the liveness
    channel (or vice versa).
    """
    counter = [0]  # units completed, shared with the heartbeat thread
    if beats is not None:
        try:
            beats.send((0, _worker_rss_kb()))  # birth beat: alive before work
        except Exception:
            pass
        threading.Thread(target=_beat_emitter,
                         args=(beats, beat_interval, counter),
                         daemon=True).start()
    while True:
        try:
            message = inbox.recv()
        except EOFError:  # the supervisor is gone
            return
        if message is None:
            return
        index, item = message
        try:
            value = worker(item)
        except BaseException as exc:  # noqa: BLE001 — attribute, don't die
            outbox.send((index, "err", f"{type(exc).__name__}: {exc}",
                         traceback.format_exc()))
        else:
            try:
                outbox.send((index, "ok", value))
                counter[0] += 1
            except Exception as exc:  # unpicklable result
                outbox.send((index, "err",
                             f"result not picklable: {exc!r}",
                             traceback.format_exc()))


class _Worker:
    """Supervisor-side handle for one worker process.

    Each worker owns private one-way pipes: units in, results out, and
    heartbeats out when health monitoring asked for them.  The
    supervisor closes its copies of the worker's ends right after the
    start, so a dead worker reads as end-of-file, and a process killed
    mid-write can only tear *its own* result pipe, which the supervisor
    discards when it respawns the worker.
    """

    def __init__(self, context, target,
                 beat_interval: Optional[float] = None) -> None:
        inbox, self.inbox = context.Pipe(duplex=False)
        self.results, outbox = context.Pipe(duplex=False)
        args = (target, inbox, outbox)
        child_ends = [inbox, outbox]
        self.beats = None
        if beat_interval is not None:
            self.beats, beats = context.Pipe(duplex=False)
            args = args + (beats, beat_interval)
            child_ends.append(beats)
        self.process = context.Process(
            target=_supervised_worker_main, args=args, daemon=True)
        self.process.start()
        for end in child_ends:
            end.close()
        self.units: Deque[int] = deque()  # running unit first, then queued
        self.started_at: float = 0.0      # when the running unit started

    def send(self, message: bytes) -> bool:
        """Queue one pickled unit; ``False`` when the worker is gone."""
        try:
            self.inbox.send_bytes(message)
        except OSError:
            return False
        return True

    def kill(self) -> None:
        """Terminate the process, escalating to SIGKILL if it lingers."""
        self.process.terminate()
        self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=1.0)

    def stop(self) -> None:
        """Ask the process to exit cleanly; kill it if it does not."""
        if self.process.exitcode is not None:
            return
        try:
            self.inbox.send(None)
        except OSError:
            pass
        self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.kill()


def run_supervised(
    worker: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    jobs: int,
    policy: SupervisionPolicy,
    describe: Optional[Callable[[int], str]] = None,
    keys: Optional[Sequence[Optional[str]]] = None,
    on_done: Optional[Callable[[int, Any, str, float], None]] = None,
    on_failure: Optional[Callable[[UnitFailure], None]] = None,
    health: Optional[Any] = None,
) -> Tuple[List[Any], List[UnitFailure], int]:
    """Run ``worker`` over ``items`` under supervision.

    Returns ``(results, quarantined, retries)``: results in input order
    with :class:`FailedUnit` placeholders for quarantined units, the
    final :class:`UnitFailure` list (empty on a clean run), and the
    number of retries spent.  ``on_done(index, value, lane, run_s)``
    fires in *completion order* as units finish (the persistence hook),
    naming the worker lane (``w0``, ...) and the unit's run time;
    ``on_failure(failure)`` fires on every failed attempt, with
    ``failure.final`` set on the quarantining one.

    ``health`` (a :class:`~repro.obs.health.HealthMonitor`, duck-typed
    because the runner never imports ``repro.obs``) turns on the
    heartbeat channel: each worker gains a dedicated beat pipe and a
    daemon emitter thread, and the supervisor drains beats and notifies
    the monitor of every start / completion / failure / death.  Every
    monitor call is report-only — retry and quarantine decisions are
    identical with ``health=None``.

    Every unit — even under ``jobs=1`` — runs in a child process, which
    is what makes crash containment and deadline kills possible at all.
    The supervisor never polls: it blocks on the workers' result pipes,
    process sentinels and heartbeat pipes until the nearest unit
    deadline, backoff expiry or heartbeat check.  Each worker holds one
    unit queued behind its running one; a queued unit's deadline starts
    when its predecessor's result arrives, and a worker that crashes or
    times out hands its queued unit back uncharged.
    """
    total = len(items)
    results: List[Any] = [None] * total
    if total == 0:
        return results, [], 0
    describe = describe or (lambda i: f"unit {i}")
    context = _context()
    budget = policy.retry
    retries_left = budget.total if budget.total is not None else None

    attempts = [0] * total
    remaining = total
    quarantined: List[UnitFailure] = []
    retries_spent = 0
    # heap of (eligible_at, index): units waiting for a worker / backoff
    ready: List[Tuple[float, int]] = [(0.0, i) for i in range(total)]
    beat_interval = (getattr(health, "beat_interval", 1.0)
                     if health is not None else None)
    workers = [_Worker(context, worker, beat_interval)
               for _ in range(max(1, min(jobs, total)))]
    lanes = [f"w{slot}" for slot in range(len(workers))]
    if health is not None:
        for slot, handle in enumerate(workers):
            health.worker_started(lanes[slot], handle.process.pid)

    def _start(slot: int, index: int, now: float) -> None:
        """``index`` became the running unit of worker ``slot``."""
        workers[slot].started_at = now
        if health is not None:
            health.unit_started(lanes[slot], index, describe(index),
                                keys[index] if keys is not None else None)

    def _dispatch(now: float) -> None:
        # fill idle workers first, then queue one unit behind each
        for depth in range(_DEPTH):
            for slot, handle in enumerate(workers):
                if len(handle.units) != depth:
                    continue
                if not ready or ready[0][0] > now:
                    return
                eligible, index = ready[0]
                message = ForkingPickler.dumps((index, items[index]))
                if depth and len(message) > _AHEAD_BYTES:
                    return  # waits for a worker to go idle
                heapq.heappop(ready)
                if not handle.send(message):
                    # dead worker: its sentinel settles it next round
                    heapq.heappush(ready, (eligible, index))
                    continue
                handle.units.append(index)
                if depth == 0:
                    _start(slot, index, now)

    def _timeout(now: float) -> Optional[float]:
        waits = []
        if policy.unit_timeout is not None:
            waits.extend(handle.started_at + policy.unit_timeout - now
                         for handle in workers if handle.units)
        # a backoff expiry only matters while some worker can take the
        # unit: counting it with every worker full would busy-spin
        if (ready and ready[0][0] > now
                and any(len(handle.units) < _DEPTH for handle in workers)):
            waits.append(ready[0][0] - now)
        if beat_interval is not None:
            waits.append(beat_interval)
        return max(0.0, min(waits)) if waits else None

    def _quarantine(failure: UnitFailure) -> None:
        nonlocal remaining
        failure.final = True
        quarantined.append(failure)
        results[failure.index] = FailedUnit(failure)
        remaining -= 1
        if on_failure is not None:
            on_failure(failure)

    def _failed_attempt(index: int, kind: str, error: str, tb: str,
                        lane: Optional[str] = None) -> None:
        nonlocal retries_spent, retries_left
        attempts[index] += 1
        failure = UnitFailure(
            index=index, label=describe(index),
            key=keys[index] if keys is not None else None,
            kind=kind, error=error, traceback=tb,
            attempts=attempts[index], worker=lane)
        out_of_budget = retries_left is not None and retries_left <= 0
        terminal = attempts[index] >= budget.max_attempts or out_of_budget
        if health is not None:
            # notified before on_failure: the caller's hook may remap
            # failure.index to plan coordinates, the monitor's lanes
            # speak batch-local ones
            failure.final = terminal
            health.unit_failed(failure)
        if terminal:
            _quarantine(failure)
            return
        if on_failure is not None:
            on_failure(failure)
        retries_spent += 1
        if retries_left is not None:
            retries_left -= 1
        eligible = time.monotonic() + budget.delay(attempts[index])
        heapq.heappush(ready, (eligible, index))

    def _settle(slot: int, kind: str, error: str) -> None:
        """A worker died or blew its deadline: respawn it, charge its
        running unit, and hand its queued unit back uncharged."""
        handle = workers[slot]
        running = handle.units.popleft() if handle.units else None
        for index in handle.units:
            heapq.heappush(ready, (0.0, index))
        if health is not None:
            health.worker_lost(lanes[slot], handle.process.pid, kind, error,
                               running)
        workers[slot] = _Worker(context, worker, beat_interval)
        if health is not None:
            health.worker_started(lanes[slot], workers[slot].process.pid)
        if running is not None:
            _failed_attempt(running, kind, error, "", lane=lanes[slot])

    def _drain_results(slot: int) -> bool:
        """Settle every result waiting on worker ``slot``'s pipe;
        ``False`` when the pipe reached end-of-file (the worker died)."""
        nonlocal remaining
        handle = workers[slot]
        while handle.results.poll():
            try:
                index, status, *payload = handle.results.recv()
            except (EOFError, OSError):
                return False
            except Exception as exc:
                # a torn pickle from a dying writer: the pipe is
                # unusable — treat as a crash of the running unit
                handle.kill()
                _settle(slot, "crash", f"result pipe corrupted: {exc!r}")
                return True
            handle.units.popleft()
            # the queued unit's deadline runs from the result's arrival,
            # but it is started only once the finished unit is settled:
            # the monitor's lane still describes the finished unit
            now = time.monotonic()
            if status == "ok":
                remaining -= 1
                results[index] = payload[0]
                if health is not None:
                    health.unit_finished(lanes[slot], index)
                if on_done is not None:
                    on_done(index, payload[0], lanes[slot],
                            now - handle.started_at)
            else:
                _failed_attempt(index, "exception", *payload,
                                lane=lanes[slot])
            if handle.units:
                _start(slot, handle.units[0], now)
        return True

    def _drain_beats(slot: int) -> None:
        handle = workers[slot]
        try:
            while handle.beats.poll():
                units_done, rss_kb = handle.beats.recv()
                health.beat(lanes[slot], handle.process.pid, units_done,
                            rss_kb)
        except Exception:
            pass  # torn beat from a dying worker: drop it

    try:
        while remaining:
            _dispatch(time.monotonic())
            waitables = {}
            for slot, handle in enumerate(workers):
                waitables[handle.results] = slot
                waitables[handle.process.sentinel] = slot
                if handle.beats is not None:
                    waitables[handle.beats] = slot
            woken = set(wait(list(waitables), _timeout(time.monotonic())))
            for slot in sorted({waitables[w] for w in woken}):
                handle = workers[slot]
                if handle.beats is not None and handle.beats in woken:
                    _drain_beats(slot)
                # results first: a worker may finish a unit, then die
                alive = _drain_results(slot)
                if workers[slot] is not handle:
                    continue  # settled while draining
                if not alive or handle.process.sentinel in woken:
                    handle.process.join(timeout=1.0)
                    if handle.process.is_alive():
                        handle.kill()
                    _settle(slot, "crash", "worker died with exit code "
                            f"{handle.process.exitcode}" if handle.units
                            else "worker died idle")
            if policy.unit_timeout is not None:
                now = time.monotonic()
                for slot, handle in enumerate(workers):
                    if (handle.units
                            and now - handle.started_at > policy.unit_timeout):
                        handle.kill()
                        _settle(slot, "timeout", "deadline exceeded "
                                f"({policy.unit_timeout:.1f}s)")
            if health is not None:
                health.poll()
    finally:
        for handle in workers:
            handle.stop()
        if health is not None:
            health.finish()
    return results, quarantined, retries_spent
