"""The campaign journal: one append-only event log per campaign.

The content-addressed :class:`~repro.runner.cache.ResultCache` already
makes completed work durable — what it cannot say is *how a campaign
went*: which units finished, on which worker and how fast, which failed
transiently, which were quarantined as poison, and whether a run that
stopped was complete or killed halfway.  The journal is that record:

* one JSONL file per campaign,
  ``<cache_root>/ledger/<experiment>-<fingerprint>.jsonl``, named by a
  campaign fingerprint that is stable across code versions (so
  ``repro experiment --resume`` finds it after a crash *and* after a
  fix to the code that crashed);
* the first line is a schema-versioned header; every later line is one
  sequence-numbered, wall-clock-stamped event, appended and flushed as
  it happens, so a campaign killed at any instant loses at most the
  in-flight units::

      {"schema": "repro-ledger/v1", "meta": {"experiment": "fig2", ...}}
      {"seq": 0, "ts": 1754554000.21, "event": "campaign-started", ...}
      {"seq": 1, "ts": 1754554000.30, "event": "done", "key": "9f...",
       "unit": 0, "worker": "w0", "latency_s": 0.071}

* unit outcomes — ``done`` / ``retried`` / ``quarantined`` — always
  carry the unit's cache ``key``; the engine appends each exactly once
  (a cache hit replayed on resume is skipped, and a hit in a fresh log
  is marked ``"cached": true``).  The resume view (:meth:`status`,
  :meth:`counts`) folds them last-status-wins per key;
* every other event kind is context for ``repro report``:
  ``campaign-started`` / ``campaign-finished`` (CLI), ``scheduled`` /
  ``started`` / ``suspect`` / ``heartbeat-summary`` (the health
  monitor), ``merged`` (the shard reduction), ``dist-published`` /
  ``re-leased`` / ``worker-exit`` (the distributed coordinator);
* the loader (:func:`read_journal`) is torn-line tolerant — a partial
  final line (the write the kill interrupted) is skipped, never fatal.

The journal never gates execution: results always come from the cache
or a fresh simulation, so a stale or deleted journal can cost duplicate
work but can never corrupt a result.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .fingerprint import fingerprint

__all__ = [
    "CampaignJournal",
    "JOURNAL_SCHEMA",
    "campaign_fingerprint",
    "journal_path",
    "list_journals",
    "read_journal",
]

#: Schema identifier stamped into (and required of) every journal file.
JOURNAL_SCHEMA = "repro-ledger/v1"

#: Subdirectory of a cache root where campaign journals live.
JOURNAL_DIRNAME = "ledger"

#: The unit-outcome events the resume view folds.
OUTCOMES = ("done", "retried", "quarantined")


def campaign_fingerprint(experiment: str, scale: str, seed: int) -> str:
    """A stable identity for one campaign: (experiment, scale, seed).

    Deliberately excludes ``code_version`` and ``jobs``: a resumed
    campaign must find its journal after a code fix or with a different
    worker count.  Unit *results* still refuse to cross code versions —
    their cache keys embed ``code_version`` — so resuming across a code
    change simply re-simulates everything, correctly.
    """
    return fingerprint("campaign", experiment, scale, seed)[:16]


def journal_path(cache_root, experiment: str, scale: str, seed: int) -> Path:
    """Where the journal of one (experiment, scale, seed) campaign lives."""
    fp = campaign_fingerprint(experiment, scale, seed)
    return Path(cache_root) / JOURNAL_DIRNAME / f"{experiment}-{fp}.jsonl"


def read_journal(path) -> Tuple[dict, List[dict]]:
    """Parse one journal file into ``(meta, events)``.

    Torn-line tolerant (a killed writer's partial final line is skipped)
    and schema-checked: a file whose header names a different schema
    raises ``ValueError`` rather than being misread silently.
    """
    meta: dict = {}
    events: List[dict] = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            try:
                record = json.loads(line)
            except ValueError:
                continue  # blank, or the torn final line of a killed writer
            if "schema" in record:
                if record["schema"] != JOURNAL_SCHEMA:
                    raise ValueError(
                        f"{path}: journal schema {record['schema']!r}, "
                        f"expected {JOURNAL_SCHEMA!r}")
                meta = record.get("meta", {})
            elif "event" in record:
                events.append(record)
    return meta, events


def _outcomes(events: Iterable[dict]) -> Dict[str, dict]:
    """Each unit's latest outcome event, by key (last status wins)."""
    latest: Dict[str, dict] = {}
    for event in events:
        if event["event"] in OUTCOMES and event.get("key"):
            latest[event["key"]] = event
    return latest


def _counts(latest: Dict[str, dict]) -> Dict[str, int]:
    counts = dict.fromkeys(OUTCOMES, 0)
    for event in latest.values():
        counts[event["event"]] += 1
    return counts


class CampaignJournal:
    """Append-only JSONL event log for one campaign.

    Usage::

        journal = CampaignJournal.for_campaign(cache.root, "fig2",
                                               "small", seed=0)
        journal.done(key, unit=3, worker="w1", latency_s=0.2)
        journal.quarantined(key, "boom", 3)
        journal.event("merged", shard=0, of=4)
        journal.counts()                       # {"done": 41, ...}

    ``fresh=True`` discards any previous log; otherwise an existing one
    is resumed (its torn tail terminated, its ``seq`` continued).
    ``clock`` stamps ``ts`` and is injectable for deterministic tests.
    """

    def __init__(self, path, meta: Optional[dict] = None,
                 fresh: bool = False,
                 clock: Callable[[], float] = time.time) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.clock = clock
        self.meta: dict = dict(meta or {})
        self.entries: Dict[str, dict] = {}
        self._seq = 0
        if fresh and self.path.exists():
            self.path.unlink()
        existed = self.path.exists() and self.path.stat().st_size > 0
        if existed:
            self.meta, events = read_journal(self.path)
            self.entries = _outcomes(events)
            self._seq = events[-1].get("seq", -1) + 1 if events else 0
        self._file = open(self.path, "a", encoding="utf-8")
        if existed:
            # a killed writer can leave a torn, newline-less final line;
            # left as-is the next append would glue onto it and corrupt
            # *both* records, so terminate it now (the loader skips it)
            with open(self.path, "rb") as f:
                f.seek(-1, os.SEEK_END)
                if f.read(1) != b"\n":
                    self._write("\n")
        else:
            self._write(json.dumps({"schema": JOURNAL_SCHEMA,
                                    "meta": self.meta}) + "\n")

    @classmethod
    def for_campaign(cls, cache_root, experiment: str, scale: str,
                     seed: int, *, fresh: bool = False) -> "CampaignJournal":
        """The journal for one campaign under a cache root."""
        meta = {"experiment": experiment, "scale": scale, "seed": seed}
        return cls(journal_path(cache_root, experiment, scale, seed),
                   meta=meta, fresh=fresh)

    def _write(self, text: str) -> None:
        self._file.write(text)
        self._file.flush()

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- recording -----------------------------------------------------------

    def event(self, event: str, **fields: Any) -> dict:
        """Append one event (``None``-valued fields dropped); returns it."""
        record: Dict[str, Any] = {"seq": self._seq,
                                  "ts": round(self.clock(), 3),
                                  "event": event}
        record.update((k, v) for k, v in fields.items() if v is not None)
        self._seq += 1
        self._write(json.dumps(record) + "\n")
        return record

    def _outcome(self, event: str, key: str, attempts: int,
                 fields: dict) -> None:
        latest = self.entries.get(key)
        if (latest is not None and latest["event"] == event
                and latest.get("attempts", 0) == attempts):
            return  # idempotent: cache hits of already-done units
        self.entries[key] = self.event(event, key=key,
                                       attempts=attempts or None, **fields)

    def done(self, key: str, attempts: int = 0, **fields: Any) -> None:
        """Mark one unit complete (its result is in the cache).

        ``fields`` add what the executor knows: ``unit``, ``worker``,
        ``latency_s``, or ``cached=True`` for a cache-hit replay.
        """
        self._outcome("done", key, attempts, fields)

    def retried(self, key: str, error: str, attempts: int,
                **fields: Any) -> None:
        """Mark one failed attempt (the unit will be retried)."""
        self._outcome("retried", key, attempts, dict(fields, error=error))

    def quarantined(self, key: str, error: str, attempts: int,
                    **fields: Any) -> None:
        """Mark one unit poisoned: retries exhausted, excluded from results."""
        self._outcome("quarantined", key, attempts,
                      dict(fields, error=error))

    # -- queries -------------------------------------------------------------

    def status(self, key: str) -> Optional[str]:
        """The unit's latest outcome, or ``None`` when never journaled."""
        latest = self.entries.get(key)
        return latest["event"] if latest is not None else None

    def counts(self) -> Dict[str, int]:
        """Units per latest outcome: done / retried / quarantined."""
        return _counts(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def list_journals(cache_root) -> List[dict]:
    """Summaries of every campaign journal under ``cache_root``.

    Returns one dict per journal — metadata plus outcome counts and the
    file's mtime — sorted by experiment name then path, for the
    ``repro list`` campaign table.  Files of another schema are skipped.
    """
    root = Path(cache_root) / JOURNAL_DIRNAME
    if not root.is_dir():
        return []
    summaries = []
    for path in sorted(root.glob("*.jsonl")):
        try:
            meta, events = read_journal(path)
        except ValueError:
            continue
        latest = _outcomes(events)
        summaries.append({
            "path": str(path),
            "experiment": meta.get("experiment", path.stem),
            "scale": meta.get("scale", "?"),
            "seed": meta.get("seed", "?"),
            "units": len(latest),
            **_counts(latest),
            "updated": os.path.getmtime(path),
        })
    summaries.sort(key=lambda s: (s["experiment"], s["path"]))
    return summaries
