"""The distributed coordinator: the engine's out-of-process executor.

``repro experiment --distributed`` swaps the shard engine's *executor*
and nothing else.  :func:`~repro.runner.sharding.run_shards` hands its
batch to the engine's one pipeline, which looks every shard up in the
shared :class:`~repro.runner.sharding.ShardStore` (a resumed campaign
re-simulates nothing) and passes the misses to a :class:`Coordinator`
instead of the local executors.  The coordinator has
:func:`~repro.runner.supervise.run_supervised`'s shape and does only
what is specific to the fabric:

1. **Publish** — the pending shards go to the
   :class:`~repro.runner.dist.queue.FileShardQueue` in plan order.
2. **Elastic local workers** — ``workers=N`` spawns N ``repro worker
   --drain`` subprocesses over the same queue and store; a worker that
   dies is respawned (budgeted), and externally-started workers on
   other hosts drain the same queue concurrently.
3. **Land** — a shard settles once its done marker exists: the
   artifact the worker stored is read back and reported through
   ``on_done``, attributed to the worker and its run time from the
   marker.  A failure marker becomes a final
   :class:`~repro.runner.supervise.UnitFailure` through ``on_failure``.
4. **Watch leases** — lease state is synthesized into worker lanes for
   the ``worker_beat`` observer hook (so ``repro dash`` renders a
   distributed campaign with no code of its own), and a lease that
   moves from an expired holder is journaled as ``re-leased``.

Everything else — cache prefill, the ``done``/``quarantined`` journal
outcomes, the failure report, stats, telemetry counters, the abort
rule, observer and health-monitor calls, and the plan-order prefix that
streams to ``on_result`` — is the pipeline's, shared with the inline
and supervised executors.  The journal gains only the fabric's own
events: ``dist-published``, ``re-leased`` and ``worker-exit``.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..pool import EngineOptions
from ..supervise import FailedUnit, UnitFailure
from .queue import FileShardQueue

__all__ = [
    "Coordinator",
    "DistPolicy",
    "DistWorkerLane",
]


@dataclass(frozen=True)
class DistPolicy:
    """The distributed-execution policy (``EngineOptions.dist``).

    ``queue`` is the shared queue directory; ``workers`` is how many
    local drain-mode workers the coordinator spawns — zero means the
    fleet is entirely external (other terminals, other hosts).
    ``max_attempts``/``unit_timeout`` are forwarded to each spawned
    worker's supervised pool.  ``respawns`` bounds elastic worker
    replacement so a deterministically-crashing fleet terminates.
    """

    queue: str
    workers: int = 0
    ttl: float = 30.0
    poll: float = 0.1
    max_attempts: int = 1
    unit_timeout: Optional[float] = None
    respawns: int = 8

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.ttl <= 0:
            raise ValueError(f"lease ttl must be > 0, got {self.ttl}")


@dataclass
class DistWorkerLane:
    """A worker lane synthesized from queue lease state.

    Duck-typed to :class:`~repro.obs.health.WorkerLane` — exactly the
    attributes the dashboard and health reporters read — so the obs
    layer renders distributed workers without importing this module.
    """

    worker: str
    pid: int = 0
    alive: bool = True
    missing: bool = False
    straggling: bool = False
    rss_kb: int = 0
    units_done: int = 0
    rate: float = 0.0
    unit: Optional[int] = None
    label: str = ""
    unit_started_at: Optional[float] = None
    last_beat: float = field(default_factory=time.monotonic)

    def beat_age(self, now: float) -> float:
        return max(0.0, now - self.last_beat)


def _worker_command(policy: DistPolicy, cache_root, index: int) -> List[str]:
    command = [sys.executable, "-m", "repro", "worker",
               "--queue-dir", str(policy.queue),
               "--cache-dir", str(cache_root),
               "--lease-ttl", str(policy.ttl),
               "--worker-id", f"local-w{index}", "--drain"]
    if policy.max_attempts > 1:
        command += ["--max-attempts", str(policy.max_attempts)]
    if policy.unit_timeout is not None:
        command += ["--unit-timeout", str(policy.unit_timeout)]
    return command


def _worker_env() -> dict:
    # spawned workers must import this package even when it was never
    # pip-installed (the repo's own PYTHONPATH=src discipline)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[3])
    path = env.get("PYTHONPATH", "")
    if src not in path.split(os.pathsep):
        env["PYTHONPATH"] = f"{src}{os.pathsep}{path}" if path else src
    return env


class _LocalFleet:
    """The coordinator's elastic local workers: spawn, respawn, reap."""

    def __init__(self, policy: DistPolicy, cache_root, journal=None) -> None:
        self.policy = policy
        self.cache_root = cache_root
        self.journal = journal
        self.procs: Dict[int, subprocess.Popen] = {}
        self.respawned = 0
        self._env = _worker_env() if policy.workers else None

    def start(self) -> None:
        for index in range(self.policy.workers):
            self._spawn(index)

    def _spawn(self, index: int) -> None:
        self.procs[index] = subprocess.Popen(
            _worker_command(self.policy, self.cache_root, index),
            env=self._env, stdout=subprocess.DEVNULL)

    def tend(self, work_remains: bool) -> None:
        """Reap exits; while work remains, respawn crashed workers —
        the *elastic* half of the fabric — within the respawn budget."""
        for index, proc in list(self.procs.items()):
            code = proc.poll()
            if code is None:
                continue
            del self.procs[index]
            if self.journal is not None:
                self.journal.event("worker-exit", worker=f"local-w{index}",
                                   pid=proc.pid, code=code)
            if code != 0 and work_remains:
                if self.respawned >= self.policy.respawns:
                    raise RuntimeError(
                        f"distributed workers crashed {self.respawned + 1} "
                        f"times (respawn budget {self.policy.respawns}); "
                        f"giving up — see the queue's failed/ markers")
                self.respawned += 1
                self._spawn(index)

    def stop(self) -> None:
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + 5.0
        for proc in self.procs.values():
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs.clear()


class Coordinator:
    """The distributed executor for one shard batch (see module doc).

    Built by :func:`~repro.runner.sharding.run_shards` from the batch's
    engine options (``dist`` policy, the shard store as ``cache``,
    journal, observer) and the plan's shard ``keys``; then called by
    the pipeline with the pending units.
    """

    def __init__(self, options: EngineOptions,
                 keys: Sequence[str]) -> None:
        if options.cache is None:
            raise RuntimeError(
                "distributed runs need a shared artifact store: pass "
                "--cache-dir (or engine_options(cache=...)) so workers and "
                "the coordinator see the same ShardStore")
        self.policy: DistPolicy = options.dist
        self.store = options.cache
        self.journal = options.journal
        self.observer = options.observer
        self.plan_index = {key: i for i, key in enumerate(keys)}
        self.queue = FileShardQueue(os.path.expanduser(self.policy.queue),
                                    ttl=self.policy.ttl)

    def __call__(self, worker: Callable[[Any], Any], items: Sequence[Any],
                 *, keys: Sequence[str], on_done: Callable[..., None],
                 on_failure: Callable[[UnitFailure], None],
                 describe: Callable[[int], str],
                 health: Optional[Any] = None, **_unused: Any
                 ) -> Tuple[List[Any], List[UnitFailure], int]:
        """Publish ``items``, then settle each as its marker appears.

        ``items`` are the pipeline's task units, each wrapping one
        shard payload ``(fn, spec, args)``; the queue carries only the
        payload, which is what a worker executes.  ``describe`` gives
        each unit's shard label, as on the local executors.  ``worker``
        and the local pool's ``jobs``/``policy`` are not used: remote
        workers bring their own supervision.
        """
        policy, queue, journal = self.policy, self.queue, self.journal
        observer = self.observer
        payloads = [item[1][0] for item in items]
        labels = [describe(j) for j in range(len(items))]
        published = 0
        for key, payload in zip(keys, payloads):
            data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            published += queue.publish(key, data)
        if journal is not None:
            journal.event("dist-published", shards=len(items),
                          new=published,
                          cache_hits=len(self.plan_index) - len(items),
                          queue=str(policy.queue), workers=policy.workers,
                          ttl=policy.ttl)
        results: List[Any] = [None] * len(items)
        quarantined: List[UnitFailure] = []
        if not items:
            return results, quarantined, 0

        local_index = {key: j for j, key in enumerate(keys)}
        done_by: Dict[str, int] = {}     # worker -> shards landed
        released: set = set()            # keys already journaled as re-leased

        def re_leased(key: str, worker: Optional[str],
                      previous: str) -> None:
            if journal is None or key in released:
                return
            released.add(key)
            j = local_index.get(key)
            journal.event("re-leased", worker=worker, previous=previous,
                          unit=self.plan_index.get(key),
                          shard=labels[j] if j is not None else None)

        def land(j: int) -> bool:
            # a worker stores the artifact before it writes the done
            # marker; landing waits for the marker, so the journal's
            # done event always carries the marker's attribution
            if not queue.is_done(keys[j]):
                return False
            artifact = self.store.get(keys[j])
            if artifact is None:
                return False
            record = queue.done_record(keys[j])
            worker_id = record.get("worker")
            done_by[worker_id or "?"] = done_by.get(worker_id or "?", 0) + 1
            # the done marker is the authoritative re-lease record:
            # watch_leases only sees transitions that straddle an idle
            # poll, but a stolen lease always names its dead holder here
            if record.get("previous"):
                re_leased(keys[j], worker_id, record["previous"])
            results[j] = artifact
            on_done(j, artifact, worker_id, record.get("wall_s"),
                    shard=labels[j])
            return True

        def fail(j: int, record: dict) -> None:
            failure = UnitFailure(
                index=j, label=labels[j], key=keys[j], kind="shard-failed",
                error=record.get("error", "worker reported failure"),
                attempts=int(record.get("attempts", 1)), final=True,
                worker=record.get("worker"))
            results[j] = FailedUnit(failure)
            quarantined.append(failure)
            on_failure(failure)

        lanes: Dict[str, DistWorkerLane] = {}
        holder: Dict[str, str] = {}      # key -> worker last seen leasing it
        started = time.monotonic()

        def watch_leases() -> None:
            now = time.monotonic()
            for lease in queue.leases():
                previous = holder.get(lease.key)
                if previous is not None and previous != lease.worker:
                    # an expired holder's shard moved: the re-lease is
                    # the fabric's whole fault-tolerance story
                    re_leased(lease.key, lease.worker, previous)
                holder[lease.key] = lease.worker
                lane = lanes.get(lease.worker)
                if lane is None:
                    lane = lanes[lease.worker] = DistWorkerLane(
                        worker=lease.worker)
                lane.pid = lease.pid
                lane.last_beat = now - min(lease.age_s, policy.ttl)
                lane.missing = lease.age_s > policy.ttl
                j = local_index.get(lease.key)
                lane.unit = self.plan_index.get(lease.key)
                lane.label = labels[j] if j is not None else lease.key[:12]
                lane.unit_started_at = now - lease.age_s
            elapsed = max(now - started, 1e-9)
            for worker_id, lane in lanes.items():
                lane.units_done = done_by.get(worker_id, 0)
                lane.rate = lane.units_done / elapsed
                if observer.enabled:
                    observer.worker_beat(lane)

        # the root workers receive is the *cache* root, not the shard
        # namespace under it — ShardStore(cache_root) re-derives the latter
        cache_root = self.store.root.parent
        fleet = _LocalFleet(policy, cache_root, journal=journal)
        waiting_notice = (None if policy.workers
                          else time.monotonic() + max(5.0, policy.ttl))
        unsettled = list(range(len(items)))
        try:
            fleet.start()
            while unsettled:
                failed = queue.failures()
                remaining = []
                for j in unsettled:
                    if land(j):
                        continue
                    record = failed.get(keys[j])
                    if record is not None:
                        fail(j, record)
                    else:
                        remaining.append(j)
                progressed = len(remaining) < len(unsettled)
                unsettled = remaining
                if progressed:
                    continue
                fleet.tend(work_remains=True)
                watch_leases()
                if health is not None:
                    health.poll()
                if waiting_notice is not None \
                        and time.monotonic() > waiting_notice:
                    waiting_notice = None
                    print(f"coordinator: waiting for workers on "
                          f"{policy.queue} — start some with: repro worker "
                          f"--queue-dir {policy.queue} --cache-dir "
                          f"{cache_root}", file=sys.stderr)
                time.sleep(policy.poll)
        finally:
            fleet.stop()
            if health is not None:
                health.finish()
        return results, quarantined, 0
