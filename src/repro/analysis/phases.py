"""Buffering-phase / steady-state split (Figure 1's two phases).

The paper measures the buffering amount as the bytes downloaded before the
*start of the first OFF period* and notes this heuristic is sensitive to
packet loss (Section 5.1.1: the Residence and Academic networks show
smaller apparent buffering because retransmission timeouts insert early
idle gaps).  We implement exactly that heuristic — warts and all — plus an
alternative rate-knee detector used by the ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .onoff import OnOffProfile


@dataclass
class PhaseSplit:
    """Outcome of the phase analysis of one download."""

    buffering_end: Optional[float]      # None: no steady state observed
    buffering_bytes: int
    steady_bytes: int
    steady_duration: float
    total_bytes: int

    @property
    def has_steady_state(self) -> bool:
        return self.buffering_end is not None and self.steady_duration > 0

    @property
    def steady_rate_bps(self) -> float:
        """Average download rate in the steady state."""
        if not self.has_steady_state:
            return 0.0
        return self.steady_bytes * 8 / self.steady_duration

    def accumulation_ratio(self, encoding_rate_bps: float) -> Optional[float]:
        """Steady-state rate over encoding rate (Section 2's k)."""
        if not self.has_steady_state or encoding_rate_bps <= 0:
            return None
        return self.steady_rate_bps / encoding_rate_bps

    def buffering_playback_seconds(self, encoding_rate_bps: float) -> Optional[float]:
        """Buffering amount expressed as playback time (Figure 3(a))."""
        if encoding_rate_bps <= 0:
            return None
        return self.buffering_bytes * 8 / encoding_rate_bps


def split_phases(
    onoff: OnOffProfile,
    *,
    stream_end: Optional[float] = None,
) -> PhaseSplit:
    """Split a download into buffering and steady-state phases.

    The buffering phase ends at the start of the first OFF period (the
    paper's heuristic).  A download with no OFF period has no steady state:
    everything is buffering (the no ON-OFF strategy).
    """
    total = sum(p.bytes for p in onoff.on_periods)
    if not onoff.off_periods or not onoff.on_periods:
        return PhaseSplit(
            buffering_end=None,
            buffering_bytes=total,
            steady_bytes=0,
            steady_duration=0.0,
            total_bytes=total,
        )
    boundary = onoff.off_periods[0].start
    buffering = sum(p.bytes for p in onoff.on_periods if p.end <= boundary)
    steady = total - buffering
    end = stream_end if stream_end is not None else onoff.on_periods[-1].end
    return PhaseSplit(
        buffering_end=boundary,
        buffering_bytes=buffering,
        steady_bytes=steady,
        steady_duration=max(0.0, end - boundary),
        total_bytes=total,
    )


def split_phases_rate_knee(
    times: Sequence[float],
    advances: Sequence[int],
    *,
    window: float = 2.0,
    drop_ratio: float = 0.5,
) -> Optional[float]:
    """Alternative buffering-end detector: the first time the windowed
    download rate falls below ``drop_ratio`` times the initial rate.

    ``times``/``advances`` are a trace's event columns.  Used by the
    phase-detector ablation; returns the knee time or ``None``.
    """
    if not times:
        return None
    start = times[0]
    # initial rate over the first window
    first_bytes = sum(b for t, b in zip(times, advances)
                      if t <= start + window)
    if first_bytes == 0:
        return None
    initial_rate = first_bytes / window
    t_cursor = start + window
    idx = 0
    n = len(times)
    # only evaluate complete windows: the ragged tail after the last event
    # is the end of the transfer, not a rate knee
    while t_cursor + window <= times[-1]:
        lo, hi = t_cursor, t_cursor + window
        moved = 0
        while idx < n and times[idx] < lo:
            idx += 1
        j = idx
        while j < n and times[j] < hi:
            moved += advances[j]
            j += 1
        if moved / window < drop_ratio * initial_rate:
            return t_cursor
        t_cursor = hi
    return None
