#!/usr/bin/env python3
"""The pcap workflow: capture, write, re-read, re-analyze.

The analysis pipeline was built to run on tcpdump output, so it consumes
libpcap files — including ones produced by this simulator byte-for-byte.
This example streams a session, writes the capture as a real pcap file,
parses it back through the full Ethernet/IPv4/TCP stack (checksums,
32-bit sequence wrap, window scaling), and shows that the analysis of the
re-parsed trace is identical.  To analyze *re-collected real traces*,
point ``columns_from_pcap`` at your own capture.

Run:  python examples/pcap_workflow.py
"""

import os
import tempfile

from repro.analysis import analyze_records, analyze_session
from repro.pcap import columns_from_pcap
from repro.simnet import CLIENT_IP, RESEARCH, SERVER_IP
from repro.streaming import (
    Application,
    Container,
    Service,
    SessionConfig,
    run_session,
)
from repro.workloads import MBPS, Video


def main() -> None:
    video = Video(video_id="pcapdemo", duration=240.0,
                  encoding_rate_bps=0.8 * MBPS, resolution="360p",
                  container="flv")
    config = SessionConfig(
        profile=RESEARCH, service=Service.YOUTUBE,
        application=Application.CHROME, container=Container.FLASH,
        capture_duration=60.0, seed=3,
    )
    result = run_session(video, config)

    path = os.path.join(tempfile.gettempdir(), "repro_session.pcap")
    n = result.capture.write_pcap(path)
    size = os.path.getsize(path)
    print(f"wrote {n} packets ({size / 1e6:.1f} MB) to {path}")

    # the round trip: parse the pcap bytes back and re-run the pipeline
    packets = columns_from_pcap(path)
    from_pcap = analyze_records(packets, CLIENT_IP, SERVER_IP,
                                duration=video.duration)
    direct = analyze_session(result)

    print("\n                      direct capture    re-parsed pcap")
    print(f"strategy            : {str(direct.strategy):>14s}    "
          f"{str(from_pcap.strategy):>14s}")
    print(f"buffering bytes     : {direct.buffering_bytes:>14d}    "
          f"{from_pcap.buffering_bytes:>14d}")
    print(f"steady-state blocks : {len(direct.block_sizes):>14d}    "
          f"{len(from_pcap.block_sizes):>14d}")
    print(f"accumulation ratio  : {direct.accumulation_ratio:>14.3f}    "
          f"{from_pcap.accumulation_ratio:>14.3f}")
    print(f"recovered rate      : "
          f"{direct.encoding_rate_bps / 1e6:>10.3f} Mbps    "
          f"{from_pcap.encoding_rate_bps / 1e6:>10.3f} Mbps "
          f"({from_pcap.rate_estimate.method})")

    assert direct.strategy == from_pcap.strategy
    assert direct.buffering_bytes == from_pcap.buffering_bytes
    assert direct.block_sizes == from_pcap.block_sizes
    print("\nround trip exact: the pipeline runs unchanged on pcap input.")
    os.unlink(path)


if __name__ == "__main__":
    main()
