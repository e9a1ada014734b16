"""The four benchmark workloads.

Each workload is a closed batch: one *round* submits all of its units at
once and waits for them, and the timed phase repeats rounds until the run
length is spent.  A round always does the same work for a given seed, so
its outputs can be compared round against round, against a warm rerun and,
at the default seed, against the pins in ``pins.json``.

* ``session_core`` -- serial in-process ``run_session`` calls over a fixed
  mix of the paper's three streaming strategies.  The packet core (tcp,
  simnet, pcap) does nearly all the work; no engine, no analysis.
* ``campaign_cold`` -- short 12 s sessions over the four network profiles
  through ``run_sessions`` with ``jobs=2``, a fresh ``ResultCache`` and
  ``CampaignJournal`` and the supervised executor.  Per-unit engine cost
  (dispatch, supervisor poll, result pickling, cache put, journal append)
  is a large share of the wall time.
* ``figures_warm`` -- ``ExperimentSpec.run`` for fig3, fig4 and fig5
  against a cache warmed during set-up.  Nothing is simulated: the time
  goes to cache reads, ``TraceCapture.records`` and the analysis pipeline.
* ``model_sharded`` -- ``model_validation`` under ``Sharding(shard_size=
  250)`` with ``jobs=2`` and a fresh cache: numpy Monte-Carlo shards and
  the streaming shard reduction, thousands of tiny units.

``--seed`` makes the per-session seeds of ``session_core`` and
``campaign_cold`` and the experiment seed of ``model_sharded``.  The
figure campaign of ``figures_warm`` is fixed: its experiment seed picks
the videos, and the analysis cost of one figure campaign varies about 2x
between experiment seeds, far beyond any usable bound, so the seed is not
passed to it.  Every workload checks its outputs at every seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.experiments import Scale, SMALL, get_experiment
from repro.runner import (
    CampaignJournal,
    FailedUnit,
    ResultCache,
    RunStats,
    SessionPlan,
    Sharding,
    SupervisionPolicy,
    engine_options,
    run_sessions,
)
from repro.simnet.profiles import ACADEMIC, HOME, RESEARCH, RESIDENCE
from repro.simnet.rng import derive_seed
from repro.streaming import Application, Service
from repro.streaming.apps import Container
from repro.streaming.session import SessionConfig, run_session
from repro.telemetry import current_recorder
from repro.workloads import MBPS, Video
from repro.workloads.catalog import generate_netflix_catalog

#: Worker processes for the parallel workloads: nproc of the 2-vCPU
#: machine the baseline was recorded on.
JOBS = 2

#: The seed the pins in ``pins.json`` were recorded at.
DEFAULT_SEED = 0

PINS_PATH = Path(__file__).with_name("pins.json")


def digest(value: Any) -> str:
    """Short stable digest of a JSON-able value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Round:
    """What one round did: units attempted, units failed, outputs that
    must repeat exactly for the same seed, and results a self-check
    needs."""

    units: int
    failed: int
    outputs: Any
    results: List[Any] = field(default_factory=list)


class Workload:
    """One workload: ``setup`` makes the inputs (and warms caches),
    ``run_round`` does one closed batch, ``pin`` and ``self_check`` say
    what its outputs must be."""

    name = ""
    #: The layers this workload was chosen to stress; the traced run
    #: warns when none of them dominates the trace any more.
    stresses: tuple = ()
    #: Processes a round keeps busy at once: the timed run measures the
    #: machine's speed on that many CPUs (``reference.Pacer``).
    width = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self._scratch = 0
        #: Called between independent pieces of a round; the timed run
        #: sets it to run a reference pass there (``reference.Pacer``).
        self.pace: Callable[[], None] = lambda: None

    def fresh_dir(self) -> Path:
        """A new empty directory under the run's work directory."""
        self._scratch += 1
        path = self.workdir / f"{self.name}-{self._scratch}"
        path.mkdir(parents=True)
        return path

    def setup(self) -> None:
        """Generate inputs; warm caches where the workload reads them."""

    def run_round(self) -> Round:
        raise NotImplementedError

    def pin(self, outputs: Any) -> Any:
        """The part of a round's outputs recorded in ``pins.json``."""
        return digest(outputs)

    def self_check(self, first: Round) -> List[str]:
        """Extra consistency checks run once, outside the timed phase."""
        return []


# -- session_core ---------------------------------------------------------------

#: (tag, profile, service, application, container, video, capture seconds)
_NETFLIX_VIDEO = generate_netflix_catalog("NetflixBench", 1, seed=0)[0]
SESSION_MIX = (
    # long ON-OFF cycles on the lossy, bursty Residence access link
    ("long-onoff-residence", RESIDENCE, Service.YOUTUBE, Application.FIREFOX,
     None, Video("core-flv", 600.0, 2 * MBPS, "360p", "flv"), 60.0),
    # no ON-OFF: bulk webm download in Firefox on the fast Research link
    ("bulk-webm-research", RESEARCH, Service.YOUTUBE, Application.FIREFOX,
     None, Video("core-webm", 120.0, 2 * MBPS, "360p", "webm"), 30.0),
    # Chrome HTML5: long ON-OFF cycles on Home
    ("chrome-html5-home", HOME, Service.YOUTUBE, Application.CHROME,
     Container.HTML5, Video("core-html5", 600.0, 2 * MBPS, "360p", "webm"),
     60.0),
    # Netflix on iOS: short ON-OFF over many connections on Academic
    ("netflix-ios-academic", ACADEMIC, Service.NETFLIX, Application.IOS,
     None, _NETFLIX_VIDEO, 60.0),
)
SESSION_REPLICAS = 2


class SessionCore(Workload):
    name = "session_core"
    stresses = ("tcp", "simnet")

    def setup(self) -> None:
        self.plans = [
            (video, SessionConfig(
                profile=profile, service=service, application=application,
                container=container, capture_duration=capture,
                seed=derive_seed(self.seed, f"{tag}:{replica}")))
            for replica in range(SESSION_REPLICAS)
            for tag, profile, service, application, container, video, capture
            in SESSION_MIX
        ]

    def run_round(self) -> Round:
        results = []
        for i, (video, config) in enumerate(self.plans):
            if i:
                self.pace()
            results.append(run_session(video, config))
        # without the engine nobody else merges the per-session telemetry
        rec = current_recorder()
        for result in results:
            if result.telemetry is not None:
                rec.merge(result.telemetry)
        return Round(
            units=len(results),
            failed=sum(1 for r in results if r.failed),
            outputs=[[len(r.capture), r.downloaded] for r in results],
            results=results)

    def pin(self, outputs: Any) -> Any:
        return outputs  # per-session packets and bytes

    def self_check(self, first: Round) -> List[str]:
        problems = []
        for (video, _config), result in zip(self.plans, first.results):
            if result.downloaded <= 0 or len(result.capture) == 0:
                problems.append(f"{video.video_id}: nothing streamed")
        return problems


# -- campaign_cold --------------------------------------------------------------

CAMPAIGN_PROFILES = (RESEARCH, RESIDENCE, ACADEMIC, HOME)
CAMPAIGN_SESSIONS = 48
CAMPAIGN_CAPTURE_S = 12.0
_CAMPAIGN_RATES = (0.5 * MBPS, 1 * MBPS, 1.5 * MBPS, 2 * MBPS)


class CampaignCold(Workload):
    name = "campaign_cold"
    stresses = ("runner",)
    width = JOBS

    def setup(self) -> None:
        self.plans = [
            SessionPlan(
                Video(f"cold-{i:03d}", 300.0, _CAMPAIGN_RATES[i // 4 % 4],
                      "360p", "flv"),
                SessionConfig(
                    profile=CAMPAIGN_PROFILES[i % 4],
                    service=Service.YOUTUBE,
                    application=Application.FIREFOX,
                    capture_duration=CAMPAIGN_CAPTURE_S,
                    seed=derive_seed(self.seed, f"cold:{i}")))
            for i in range(CAMPAIGN_SESSIONS)
        ]
        self.last_cache: Optional[Path] = None

    def _campaign(self, cache_dir: Path, fresh: bool) -> Round:
        stats = RunStats()
        journal = CampaignJournal(cache_dir / "journal.jsonl", fresh=fresh)
        try:
            with engine_options(journal=journal,
                                supervision=SupervisionPolicy()):
                results = run_sessions(self.plans, jobs=JOBS,
                                       cache=ResultCache(cache_dir / "cache"),
                                       stats=stats)
        finally:
            journal.close()
        failed = sum(1 for r in results
                     if isinstance(r, FailedUnit) or r.failed)
        outputs = [[len(r.capture), r.downloaded] if not
                   isinstance(r, FailedUnit) else None for r in results]
        return Round(units=len(results), failed=failed, outputs=outputs)

    def run_round(self) -> Round:
        self.last_cache = self.fresh_dir()
        return self._campaign(self.last_cache, fresh=True)

    def self_check(self, first: Round) -> List[str]:
        # a warm rerun over the last round's cache reads back every unit
        warm = self._campaign(self.last_cache, fresh=False)
        if warm.outputs != first.outputs:
            return ["campaign_cold: warm rerun differs from cold run"]
        return []


# -- figures_warm ---------------------------------------------------------------

FIGURES = ("fig3", "fig4", "fig5")
FIGURE_SCALE = Scale(name="perfbench", sessions_per_cell=1,
                     capture_duration=60.0, catalog_scale=0.02,
                     mc_horizon=6000.0)
FIGURE_SEED = 0


class FiguresWarm(Workload):
    name = "figures_warm"
    stresses = ("analysis",)

    def _figures(self) -> Round:
        units = failed = 0
        reports = []
        for i, name in enumerate(FIGURES):
            if i:
                self.pace()
            stats = RunStats()
            result = get_experiment(name).run(
                FIGURE_SCALE, seed=FIGURE_SEED, jobs=JOBS, cache=self.cache,
                stats=stats)
            reports.append(result.report())
            units += stats.sessions
            failed += stats.failed
        return Round(units=units, failed=failed, outputs=reports)

    def setup(self) -> None:
        self.cache = ResultCache(self.fresh_dir())
        self.cold = self._figures()

    def run_round(self) -> Round:
        before = len(self.cache)
        round_ = self._figures()
        # a warm round must read every session from the cache
        if len(self.cache) != before:
            round_.failed = round_.units
        return round_

    def pin(self, outputs: Any) -> Any:
        return {name: digest(text) for name, text in zip(FIGURES, outputs)}

    def self_check(self, first: Round) -> List[str]:
        if first.outputs != self.cold.outputs:
            return ["figures_warm: warm reports differ from cold reports"]
        return []


# -- model_sharded --------------------------------------------------------------

MODEL_SESSIONS = 20_000
MODEL_SHARD_SIZE = 250


class ModelSharded(Workload):
    name = "model_sharded"
    stresses = ("runner", "model")
    width = JOBS

    def _model(self, cache_dir: Path) -> Round:
        stats = RunStats()
        result = get_experiment("model_validation").run(
            SMALL, seed=self.seed, jobs=JOBS, cache=ResultCache(cache_dir),
            stats=stats,
            sharding=Sharding(sessions=MODEL_SESSIONS,
                              shard_size=MODEL_SHARD_SIZE))
        moments = [[row.strategy, row.sessions, repr(row.empirical_mean),
                    repr(row.empirical_var)] for row in result.moment_rows]
        return Round(units=result.campaign_sessions, failed=stats.failed,
                     outputs=moments)

    def run_round(self) -> Round:
        self.last_cache = self.fresh_dir()
        return self._model(self.last_cache)

    def self_check(self, first: Round) -> List[str]:
        problems = []
        if len(first.outputs) != 3:
            problems.append("model_sharded: a strategy lost its shards")
        # a warm rerun merges the stored shard artifacts to the same moments
        if self._model(self.last_cache).outputs != first.outputs:
            problems.append("model_sharded: warm rerun differs from cold run")
        return problems


WORKLOADS: Dict[str, Callable[[int, Path], Workload]] = {
    cls.name: cls for cls in (SessionCore, CampaignCold, FiguresWarm,
                              ModelSharded)
}


def load_pins() -> Dict[str, Any]:
    return json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
