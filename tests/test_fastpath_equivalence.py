"""The fast-path optimizations must be invisible in results.

PR 5 rebuilt the hot path (tuple heap entries, packet-train batching,
pooled segments, columnar capture); PR 8 added the analytic OFF-period
fast-forward and the vectorized packet-train path.  All of it lives under
one invariant: **byte-identical results**.  These tests run full sessions
across eight scenarios — every access profile, every ON/OFF strategy
family, both services, lossy links, and scripted faults — with each
optimization layer (fast-forward, the packet-train path) toggled
independently, and assert the MD5 digest over every export — packet
records, flow records, metric samples, QoE — is identical to the
everything-off reference run.
"""

import hashlib

import pytest

import repro.simnet.link as link_mod
import repro.simnet.scheduler as sched_mod
from repro.obs.flows import flow_records
from repro.obs.metrics import metric_samples
from repro.simnet.faults import FaultSchedule
from repro.simnet.profiles import ACADEMIC, HOME, RESEARCH, RESIDENCE
from repro.streaming import Application, Service
from repro.streaming.session import SessionConfig, run_session
from repro.tcp.connection import TcpConnection
from repro.tcp.constants import ACK, header_overhead
from repro.tcp.segment import TcpSegment
from repro.workloads import MBPS, Video, generate_netflix_catalog

# The eight equivalence scenarios.  Together they cover every access
# profile, loss model (Bernoulli, bursty Gilbert-Elliott, near-clean),
# every ON/OFF strategy family (short-block Flash, bulk no-ON/OFF,
# client-throttled long-block), both services (Netflix on iOS: many
# short connections, window-update heavy) and scripted faults (link
# outage + bandwidth degradation over a lossy link).  YouTube scenarios
# stream a 2 Mbps, 120 s video in their ``container``; a scenario may
# name its own ``service`` and ``video`` instead.
SCENARIOS = {
    "residence-short-onoff": dict(
        profile=RESIDENCE, seed=7, container="flv", app=Application.FIREFOX),
    "academic-bursty-loss": dict(
        profile=ACADEMIC, seed=3, container="flv", app=Application.FIREFOX),
    "home-light-loss": dict(
        profile=HOME, seed=11, container="flv", app=Application.FIREFOX),
    "research-clean": dict(
        profile=RESEARCH, seed=7, container="flv", app=Application.FIREFOX),
    "bulk-no-onoff": dict(
        profile=RESEARCH, seed=5, container="webm", app=Application.FIREFOX),
    "throttled-long-onoff": dict(
        profile=RESEARCH, seed=9, container="webm", app=Application.CHROME),
    "faults-outage-degrade": dict(
        profile=RESIDENCE, seed=13, container="flv", app=Application.FIREFOX,
        faults=FaultSchedule().outage(8.0, 3.0).degrade(15.0, 6.0, 0.4)),
    "netflix-ios-academic": dict(
        profile=ACADEMIC, seed=17, app=Application.IOS,
        service=Service.NETFLIX,
        video=generate_netflix_catalog("Equiv", 1, seed=0)[0]),
}

# (fast_forward, batching) — the everything-off pair is the reference;
# each optimization is also dropped individually so a digest mismatch
# pins the offending layer.
TOGGLES = {
    "all-on": (True, True),
    "no-fast-forward": (False, True),
    "no-trains": (True, False),
    "all-off": (False, False),
}


def _run(scenario: dict, *, fast_forward: bool, batching: bool):
    """One short session with each fast-path layer forced on or off."""
    old = (sched_mod.FAST_FORWARD, link_mod.BATCH_DELIVERIES)
    sched_mod.FAST_FORWARD = fast_forward
    link_mod.BATCH_DELIVERIES = batching
    try:
        video = scenario.get("video") or Video(
            video_id="equiv", duration=120.0, encoding_rate_bps=2 * MBPS,
            resolution="360p", container=scenario["container"])
        config = SessionConfig(profile=scenario["profile"],
                               service=scenario.get("service",
                                                    Service.YOUTUBE),
                               application=scenario["app"],
                               capture_duration=30.0,
                               seed=scenario["seed"],
                               faults=scenario.get("faults"))
        return run_session(video, config)
    finally:
        (sched_mod.FAST_FORWARD, link_mod.BATCH_DELIVERIES) = old


def _record_tuples(result):
    return [
        (r.timestamp, r.src_ip, r.src_port, r.dst_ip, r.dst_port, r.seq,
         r.ack, r.flags, r.payload_len, r.window, r.wire_len, r.payload)
        for r in result.records
    ]


def _exports(result):
    """Everything a run exports, as one comparable structure."""
    fault_times = ([(e.time, e.kind, e.detail)
                    for e in result.fault_log.entries]
                   if result.fault_log is not None else [])
    return (
        _record_tuples(result),
        result.downloaded,
        result.stall_events,
        result.playback_position_s,
        result.connections_opened,
        flow_records(result, "s"),
        metric_samples(result, "s"),
        fault_times,
    )


def _digest(exports) -> str:
    """MD5 over the full export surface of one run."""
    return hashlib.md5(repr(exports).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_exports_byte_identical_across_fastpath_toggles(name):
    """The non-negotiable contract: for each scenario, every toggle
    combination hashes to the same MD5 as the everything-off reference."""
    scenario = SCENARIOS[name]
    reference = _exports(_run(scenario, fast_forward=False,
                              batching=False))
    ref_digest = _digest(reference)
    for label, (ff, batch) in TOGGLES.items():
        if label == "all-off":
            continue
        got = _exports(_run(scenario, fast_forward=ff, batching=batch))
        if _digest(got) != ref_digest:
            # digest differs: diff the structured exports for a real
            # failure message instead of two opaque hashes
            assert got == reference, f"{name}/{label} diverged from all-off"
            pytest.fail(f"{name}/{label}: digest mismatch with equal "
                        "exports (repr instability)")


def _spy_fast_paths(monkeypatch):
    """Record every inline-path verdict as ``(kind, tag, handled)``.

    The links look ``_fast_pure_ack`` / ``_fast_inorder_data`` up on the
    connection, so wrapping the class attributes sees every call.  The
    tag is read before the call: the receiving connection's local port
    for an ACK; for data, the PullPlayer's phase, or ``None`` for a job
    without its own reader.
    """
    calls = []
    fast_ack = TcpConnection._fast_pure_ack
    fast_data = TcpConnection._fast_inorder_data

    def spy_ack(conn, seg):
        port = conn.local_port
        handled = fast_ack(conn, seg)
        calls.append(("ack", port, bool(handled)))
        return handled

    def spy_data(conn, seg):
        job = conn._job
        reader = None if job is None else job.on_data
        phase = None if reader is None else (
            "buffering" if reader.__self__._buffering else "throttled")
        handled = fast_data(conn, seg)
        calls.append(("data", phase, bool(handled)))
        return handled

    monkeypatch.setattr(TcpConnection, "_fast_pure_ack", spy_ack)
    monkeypatch.setattr(TcpConnection, "_fast_inorder_data", spy_data)
    return calls


def _inline_share(calls, kind, tag):
    verdicts = [handled for k, t, handled in calls if k == kind and t == tag]
    assert verdicts, (kind, tag)
    return sum(verdicts) / len(verdicts)


def test_fastpath_actually_engaged(monkeypatch):
    """Guard against the fast path silently disabling itself: the lossy
    Residence scenario must really stream, and the inline receive paths
    must carry the paper's bulk and client-throttled strategies.

    Measured shares: the bulk server handles 58% of its pure ACKs inline
    (the rest are duplicate ACKs and recovery, which stay generic), and
    the PullPlayer 99.9% of its data segments while buffering greedily.
    """
    result = _run(SCENARIOS["residence-short-onoff"], fast_forward=True,
                  batching=True)
    assert len(result.capture) > 10_000  # the run really streamed

    calls = _spy_fast_paths(monkeypatch)
    _run(SCENARIOS["bulk-no-onoff"], fast_forward=True, batching=True)
    # the server queues the whole file, then closes: its ACKs arrive in
    # FIN_WAIT_1 with the FIN still unsent
    assert _inline_share(calls, "ack", 80) > 0.45

    calls.clear()
    _run(SCENARIOS["throttled-long-onoff"], fast_forward=True,
         batching=True)
    assert _inline_share(calls, "data", "buffering") > 0.95


def test_fault_scenario_actually_faulted():
    """The faults scenario must arm and fire its outage + degradation
    inside the captured window, or it proves nothing."""
    result = _run(SCENARIOS["faults-outage-degrade"], fast_forward=True,
                  batching=True)
    assert result.fault_log is not None
    kinds = {e.kind for e in result.fault_log.entries}
    assert "outage-start" in kinds
    assert "degrade-start" in kinds


class TestSegmentPool:
    def _acquire(self, **kw):
        defaults = dict(seq=100, ack=5, flags=ACK, window=65535,
                        payload_len=1460, sent_at=1.5)
        defaults.update(kw)
        return TcpSegment.acquire("10.0.0.1", 5000, "10.0.0.2", 80, **defaults)

    def test_release_then_acquire_reuses_the_object(self):
        TcpSegment._pool.clear()
        seg = self._acquire()
        assert seg.poolable
        seg.release()
        seg2 = self._acquire(seq=999, payload_len=0, sent_at=2.5)
        assert seg2 is seg
        assert seg2.seq == 999
        assert seg2.payload_len == 0
        assert seg2.sent_at == 2.5
        assert seg2.wire_size == header_overhead(ACK)

    def test_acquired_segment_matches_constructed_segment(self):
        TcpSegment._pool.clear()
        fresh = TcpSegment("10.0.0.1", 5000, "10.0.0.2", 80, seq=100, ack=5,
                           flags=ACK, window=65535, payload_len=1460,
                           sent_at=1.5)
        pooled = self._acquire()
        for field in ("src_ip", "src_port", "dst_ip", "dst_port", "seq",
                      "ack", "flags", "window", "payload_len", "payload",
                      "wire_size", "sent_at", "retransmission"):
            assert getattr(pooled, field) == getattr(fresh, field), field

    def test_pool_is_bounded(self):
        TcpSegment._pool.clear()
        segs = [self._acquire() for _ in range(TcpSegment._POOL_LIMIT + 50)]
        for seg in segs:
            seg.release()
        assert len(TcpSegment._pool) == TcpSegment._POOL_LIMIT


class TestColumnarCapture:
    """The columnar TraceCapture materializes records lazily and caches."""

    def _seg(self, i, payload=None):
        plen = len(payload) if payload is not None else 1460
        return TcpSegment("10.0.0.2", 80, "10.0.0.1", 5000, seq=i * 1460,
                         ack=1, flags=ACK, window=65535, payload_len=plen,
                         payload=payload, sent_at=float(i))

    def test_records_match_tapped_segments(self):
        from repro.pcap.capture import TraceCapture, record_from_segment
        cap = TraceCapture(name="t")
        segs = [self._seg(0), self._seg(1, b"HTTP/1.1 200 OK\r\n\r\n"),
                self._seg(2)]
        for i, seg in enumerate(segs):
            cap.tap(float(i), seg)
        assert len(cap) == 3
        expected = [record_from_segment(float(i), s)
                    for i, s in enumerate(segs)]
        assert cap.records == expected

    def test_views_are_derived_never_stored(self):
        """``columns()``/``records`` are derived per call: they see every
        packet tapped so far and add nothing to the pickled capture."""
        import pickle

        from repro.pcap.capture import TraceCapture
        cap = TraceCapture(name="t")
        cap.tap(0.0, self._seg(0))
        pickled = len(pickle.dumps(cap))
        first = cap.records
        assert len(cap.columns()) == len(first) == 1
        assert len(pickle.dumps(cap)) == pickled
        cap.tap(1.0, self._seg(1))
        second = cap.records
        assert len(second) == 2
        assert second[0] == first[0]

    def test_real_payloads_are_sparse(self):
        from repro.pcap.capture import TraceCapture
        cap = TraceCapture(name="t")
        cap.tap(0.0, self._seg(0))                       # virtual body
        cap.tap(1.0, self._seg(1, b"abc"))               # real bytes
        assert cap._payloads == {1: b"abc"}
        recs = cap.records
        assert recs[0].payload is None
        assert recs[1].payload == b"abc"

    def test_columns_survive_segment_pooling(self):
        """The tap copies fields out, so recycling the segment afterwards
        must not disturb what was captured."""
        from repro.pcap.capture import TraceCapture
        TcpSegment._pool.clear()
        cap = TraceCapture(name="t")
        seg = TcpSegment.acquire("10.0.0.2", 80, "10.0.0.1", 5000, seq=42,
                                 ack=7, flags=ACK, window=1000,
                                 payload_len=1460, sent_at=0.0)
        cap.tap(0.0, seg)
        seg.release()
        TcpSegment.acquire("10.0.0.2", 80, "10.0.0.1", 5000, seq=999,
                           ack=999, flags=ACK, window=9, payload_len=1,
                           sent_at=9.0)
        rec = cap.records[0]
        assert rec.seq == 42
        assert rec.ack == 7
        assert rec.payload_len == 1460
