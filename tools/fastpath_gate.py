#!/usr/bin/env python
"""The CI fast-path gate: long-ON/OFF A/B, byte-identical and >= 2x.

Runs the gate workload (a receive-window-throttled 2 Mbps stream on the
clean 100 Mbps Research profile, the paper's long ON/OFF cycle shape)
with every analytic fast-path layer on, then off — fast-forward and the
packet-train path (batched and vectorized delivery) together — and fails
unless

* the two legs export **byte-identical** results (MD5 over packet
  records, flow records, metric samples and QoE), and
* the all-on leg is at least ``--min-speedup`` (default 2x) faster.

Legs are interleaved and the minimum wall time per leg is compared, so
one noisy-neighbour incident on a shared runner cannot produce a bogus
pass or fail.  The toggles are flipped in-process (the same module
switches the equivalence suite uses), so both legs share one import and
one warmed-up interpreter.

Usage::

    PYTHONPATH=src python tools/fastpath_gate.py [--rounds 3]
                                                 [--min-speedup 2.0]
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time


def run_leg(fast: bool):
    """One gate-workload session with the fast-path stack on or off."""
    import repro.simnet.link as link_mod
    import repro.simnet.scheduler as sched_mod
    from repro.obs.flows import flow_records
    from repro.obs.metrics import metric_samples
    from repro.simnet.profiles import RESEARCH
    from repro.streaming import Application, Service
    from repro.streaming.session import SessionConfig, run_session
    from repro.workloads import MBPS, Video

    old = (sched_mod.FAST_FORWARD, link_mod.BATCH_DELIVERIES)
    sched_mod.FAST_FORWARD = fast
    link_mod.BATCH_DELIVERIES = fast
    try:
        video = Video(video_id="gate", duration=900.0,
                      encoding_rate_bps=2 * MBPS,
                      resolution="360p", container="flv")
        config = SessionConfig(profile=RESEARCH, service=Service.YOUTUBE,
                               application=Application.FIREFOX,
                               capture_duration=180.0, seed=7)
        started = time.perf_counter()
        result = run_session(video, config)
        wall = time.perf_counter() - started
    finally:
        (sched_mod.FAST_FORWARD, link_mod.BATCH_DELIVERIES) = old

    records = [
        (r.timestamp, r.src_ip, r.src_port, r.dst_ip, r.dst_port, r.seq,
         r.ack, r.flags, r.payload_len, r.window, r.wire_len, r.payload)
        for r in result.records
    ]
    exports = (records, result.downloaded, result.stall_events,
               result.playback_position_s, result.connections_opened,
               flow_records(result, "s"), metric_samples(result, "s"))
    digest = hashlib.md5(repr(exports).encode("utf-8")).hexdigest()
    return wall, digest, len(result.capture), result.downloaded


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3,
                        help="interleaved rounds per leg (default 3)")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required min(off)/min(on) ratio (default 2.0)")
    args = parser.parse_args(argv)

    fast_walls, slow_walls = [], []
    digests = set()
    for i in range(args.rounds):
        for fast, walls in ((True, fast_walls), (False, slow_walls)):
            wall, digest, packets, downloaded = run_leg(fast)
            walls.append(wall)
            digests.add(digest)
            leg = "fast-path on " if fast else "fast-path off"
            print(f"round {i + 1}/{args.rounds}  {leg}  {wall:7.3f}s  "
                  f"{packets} packets  {downloaded} bytes  md5 {digest[:12]}")

    if len(digests) != 1:
        print(f"FAIL: legs exported {len(digests)} distinct digests — "
              "the fast path changed results", file=sys.stderr)
        return 1

    speedup = min(slow_walls) / min(fast_walls)
    print(f"byte-identical exports; speedup {speedup:.2f}x "
          f"(min {min(fast_walls):.3f}s on vs {min(slow_walls):.3f}s off, "
          f"best of {args.rounds})")
    if speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x < required "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
