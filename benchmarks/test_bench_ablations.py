"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. ON/OFF idle-gap threshold sensitivity (0.05 - 1.0 s);
2. loss-rate sweep: how loss merges/splits Flash blocks;
3. encoding-rate estimation: FLV header vs Content-Length vs ground truth;
4. buffering-phase detector: first-OFF heuristic vs rate-knee.
"""

import pytest

from repro.analysis import (
    analyze_session,
    median,
    split_phases_rate_knee,
)
from repro.experiments.common import MB
from repro.simnet import RESEARCH, RESIDENCE
from repro.streaming import (
    Application,
    Container,
    Service,
    SessionConfig,
    run_session,
)
from repro.workloads import MBPS, Video

KB = 1024

FLASH_VIDEO = Video(
    video_id="abl-flash", duration=500.0, encoding_rate_bps=1.0 * MBPS,
    resolution="360p", container="flv",
)
WEBM_VIDEO = Video(
    video_id="abl-webm", duration=400.0, encoding_rate_bps=2.0 * MBPS,
    resolution="360p", container="webm",
)


def flash_session(profile=RESEARCH, seed=1, duration=120.0, **kw):
    config = SessionConfig(
        profile=profile, service=Service.YOUTUBE,
        application=Application.FIREFOX, container=Container.FLASH,
        capture_duration=duration, seed=seed, **kw)
    return run_session(FLASH_VIDEO, config)


def test_bench_ablation_gap_threshold(benchmark, show):
    """Block detection is stable across a wide band of gap thresholds.

    Flash cycles at 1 Mbps have ~0.4 s OFF periods: thresholds well below
    that measure the same 64 kB blocks; a threshold above the OFF duration
    sees no cycles at all (strategy collapses to bulk).
    """
    result = benchmark.pedantic(lambda: flash_session(), rounds=1,
                                iterations=1)
    lines = ["Ablation — ON/OFF gap-threshold sensitivity (1 Mbps Flash)"]
    medians = {}
    for threshold in (0.05, 0.1, 0.15, 0.25, 0.35, 0.6, 1.0):
        analysis = analyze_session(result, gap_threshold=threshold)
        blocks = analysis.block_sizes
        medians[threshold] = median(blocks) if blocks else 0
        lines.append(
            f"  threshold={threshold:4.2f}s  cycles={len(blocks):4d}  "
            f"median block={medians[threshold] / KB:6.0f} kB  "
            f"strategy={analysis.strategy}")
    show("\n".join(lines))
    for threshold in (0.05, 0.1, 0.15, 0.25, 0.35):
        assert medians[threshold] == pytest.approx(64 * KB, rel=0.1), threshold
    # thresholds beyond the OFF duration cannot see the cycles
    assert medians[1.0] == 0


def test_bench_ablation_loss_sweep(benchmark, show):
    """Loss both splits (RTO inside a block) and merges (retransmission in
    the gap) Flash blocks, exactly as Section 5.1.1 describes."""

    def sweep():
        rows = []
        for loss in (0.0, 0.002, 0.005, 0.01, 0.02):
            profile = RESIDENCE.with_loss(loss)
            result = flash_session(profile=profile, seed=3, duration=150.0)
            analysis = analyze_session(result)
            blocks = analysis.block_sizes
            small = sum(1 for b in blocks if b < 56 * KB)
            large = sum(1 for b in blocks if b > 72 * KB)
            rows.append((loss, len(blocks), small, large,
                         analysis.retransmission_rate))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["Ablation — loss sweep (Flash blocks, Residence bandwidth)"]
    for loss, cycles, small, large, retx in rows:
        lines.append(
            f"  loss={loss:5.3f}  cycles={cycles:4d}  split(<56k)={small:3d}  "
            f"merged(>72k)={large:3d}  retx={retx:.2%}")
    show("\n".join(lines))
    clean = rows[0]
    lossy = rows[-1]
    assert clean[2] == 0 and clean[3] == 0  # no split/merged blocks clean
    assert lossy[2] + lossy[3] > 0          # loss perturbs block sizes
    assert lossy[4] > clean[4]              # retransmissions actually rose


def test_bench_ablation_rate_estimation(benchmark, show):
    """FLV header recovery is exact; Content-Length/duration estimation is
    exact only when the full video is announced (the webM artifact)."""

    def run_all():
        flash = flash_session(seed=5)
        config = SessionConfig(
            profile=RESEARCH, service=Service.YOUTUBE,
            application=Application.INTERNET_EXPLORER,
            container=Container.HTML5, capture_duration=120.0, seed=5)
        webm = run_session(WEBM_VIDEO, config)
        return analyze_session(flash), analyze_session(webm)

    flash_analysis, webm_analysis = benchmark.pedantic(run_all, rounds=1,
                                                       iterations=1)
    show(
        "Ablation — encoding-rate estimation\n"
        f"  Flash: method={flash_analysis.rate_estimate.method}  "
        f"estimated={flash_analysis.encoding_rate_bps / 1e6:.3f} Mbps  "
        f"truth={FLASH_VIDEO.encoding_rate_bps / 1e6:.3f} Mbps\n"
        f"  webM : method={webm_analysis.rate_estimate.method}  "
        f"estimated={webm_analysis.encoding_rate_bps / 1e6:.3f} Mbps  "
        f"truth={WEBM_VIDEO.encoding_rate_bps / 1e6:.3f} Mbps"
    )
    assert flash_analysis.rate_estimate.method == "flv-header"
    assert flash_analysis.encoding_rate_bps == pytest.approx(
        FLASH_VIDEO.encoding_rate_bps)
    assert webm_analysis.rate_estimate.method == "content-length"
    assert webm_analysis.encoding_rate_bps == pytest.approx(
        WEBM_VIDEO.encoding_rate_bps, rel=0.01)


def test_bench_ablation_phase_detector(benchmark, show):
    """First-OFF heuristic vs rate-knee detection of the buffering end.

    On a clean path the two agree; the first-OFF heuristic is the paper's
    and inherits its loss sensitivity."""
    result = benchmark.pedantic(lambda: flash_session(seed=7), rounds=1,
                                iterations=1)
    analysis = analyze_session(result)
    knee = split_phases_rate_knee(analysis.trace.event_times,
                                  analysis.trace.event_advances)
    first_off = analysis.phases.buffering_end
    show(
        "Ablation — buffering-phase detectors (clean path)\n"
        f"  first-OFF boundary: {first_off:.2f} s\n"
        f"  rate-knee boundary: {knee:.2f} s"
    )
    assert first_off is not None and knee is not None
    assert knee == pytest.approx(first_off, abs=3.0)
