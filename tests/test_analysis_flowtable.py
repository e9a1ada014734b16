"""Unit tests for flow reconstruction from synthetic packet records."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    AckClockSample,
    FlowData,
    ackclock_samples,
    build_download_trace,
    detect_onoff,
    estimate_encoding_rate,
    estimate_session_rate,
    first_rtt_bytes,
)
from repro.http import build_flv_header, build_webm_header
from repro.pcap import PacketRecord
from repro.tcp import ACK, PSH, SYN
from repro.tcp.seqspace import SequenceUnwrapper, wrap

CLIENT = "10.0.0.1"
SERVER = "192.0.2.1"


def rec(t, *, src=SERVER, sport=80, dst=CLIENT, dport=50000, seq=0, ack=0,
        flags=ACK, payload_len=0, window=65535, payload=None):
    return PacketRecord(
        timestamp=t, src_ip=src, src_port=sport, dst_ip=dst, dst_port=dport,
        seq=wrap(seq), ack=wrap(ack), flags=flags, payload_len=payload_len,
        window=window, wire_len=54 + payload_len, payload=payload,
    )


def handshake(t0=0.0, rtt=0.02, dport=50000):
    return [
        rec(t0, src=CLIENT, sport=dport, dst=SERVER, dport=80, flags=SYN,
            seq=0),
        rec(t0 + rtt, flags=SYN | ACK, seq=0, dport=dport),
        rec(t0 + rtt + 0.001, src=CLIENT, sport=dport, dst=SERVER, dport=80,
            flags=ACK, seq=1),
    ]


def data_stream(t0, seqs_lens, base_seq=1, dport=50000, payloads=None):
    out = []
    for i, (offset, length) in enumerate(seqs_lens):
        payload = payloads[i] if payloads else None
        out.append(rec(t0 + i * 0.001, seq=base_seq + offset,
                       payload_len=length, flags=ACK | PSH, payload=payload,
                       dport=dport))
    return out


class TestFlowConstruction:
    def test_handshake_rtt_measured(self):
        trace = build_download_trace(handshake(rtt=0.025), CLIENT, SERVER)
        assert trace.flow_count == 1
        flow = trace.main_flow()
        assert flow.handshake_rtt == pytest.approx(0.025)
        assert trace.median_handshake_rtt() == pytest.approx(0.025)

    def test_unique_bytes_counted_once(self):
        records = handshake() + data_stream(
            1.0, [(0, 1000), (1000, 1000), (1000, 1000)])  # one dup
        trace = build_download_trace(records, CLIENT, SERVER)
        assert trace.total_bytes == 2000
        assert trace.total_payload_bytes == 3000

    def test_retransmission_detection_by_regression(self):
        # hole-filler arriving after later data counts as a retransmission
        records = handshake() + data_stream(
            1.0, [(0, 1000), (2000, 1000), (1000, 1000)])
        trace = build_download_trace(records, CLIENT, SERVER)
        flow = trace.main_flow()
        assert flow.retransmitted_bytes == 1000
        assert trace.retransmission_rate == pytest.approx(1000 / 3000)

    def test_in_order_stream_has_no_retransmissions(self):
        records = handshake() + data_stream(
            1.0, [(i * 1000, 1000) for i in range(10)])
        trace = build_download_trace(records, CLIENT, SERVER)
        assert trace.retransmission_rate == 0.0

    def test_retransmission_rate_zero_packets(self):
        # a handshake-only flow carries no data: the rate must be a
        # clean 0.0, not a division error
        trace = build_download_trace(handshake(), CLIENT, SERVER)
        flow = trace.main_flow()
        assert flow.total_payload_bytes == 0
        assert flow.packet_count == 0
        assert flow.retransmission_rate == 0.0
        assert trace.retransmission_rate == 0.0

    def test_packet_count_counts_retransmissions(self):
        records = handshake() + data_stream(
            1.0, [(0, 1000), (1000, 1000), (1000, 1000)])  # one dup
        trace = build_download_trace(records, CLIENT, SERVER)
        assert trace.main_flow().packet_count == 3
        assert trace.packet_count == 3

    def test_sequence_wrap_handled(self):
        base = (1 << 32) - 1500  # data crosses the 32-bit boundary
        records = handshake() + data_stream(
            1.0, [(0, 1000), (1000, 1000), (2000, 1000)], base_seq=base)
        trace = build_download_trace(records, CLIENT, SERVER)
        assert trace.total_bytes == 3000

    def test_multiple_flows_aggregate(self):
        records = (handshake(dport=50000) + handshake(dport=50001)
                   + data_stream(1.0, [(0, 500)], dport=50000)
                   + data_stream(2.0, [(0, 700)], dport=50001))
        trace = build_download_trace(records, CLIENT, SERVER)
        assert trace.flow_count == 2
        assert trace.total_bytes == 1200
        assert trace.main_flow().unique_bytes == 700

    def test_window_series_from_client_acks(self):
        records = handshake() + [
            rec(1.0, src=CLIENT, sport=50000, dst=SERVER, dport=80,
                flags=ACK, seq=1, window=30000),
            rec(2.0, src=CLIENT, sport=50000, dst=SERVER, dport=80,
                flags=ACK, seq=1, window=0),
        ]
        trace = build_download_trace(records, CLIENT, SERVER)
        # the handshake ACK plus the two explicit ones
        assert trace.window_series.values[-2:] == [30000.0, 0.0]

    def test_cumulative_series_monotone(self):
        records = handshake() + data_stream(
            1.0, [(0, 1000), (1000, 1000), (500, 800)])
        trace = build_download_trace(records, CLIENT, SERVER)
        series = trace.cumulative_series()
        assert series.values == sorted(series.values)
        assert series.values[-1] == trace.total_bytes

    def test_download_rate(self):
        records = handshake() + data_stream(1.0, [(0, 1000)]) + data_stream(
            2.0, [(1000, 1000)])
        trace = build_download_trace(records, CLIENT, SERVER)
        span = trace.last_data_time - trace.first_data_time
        assert trace.download_rate_bps() == pytest.approx(2000 * 8 / span)

    def test_unrelated_traffic_ignored(self):
        stray = rec(0.5, src="203.0.113.9", dst=CLIENT, payload_len=999)
        trace = build_download_trace(handshake() + [stray], CLIENT, SERVER)
        assert trace.total_bytes == 0

    def test_empty_trace(self):
        trace = build_download_trace([], CLIENT, SERVER)
        assert trace.total_bytes == 0
        assert trace.first_data_time is None
        assert trace.download_rate_bps() == 0.0
        with pytest.raises(ValueError):
            trace.main_flow()


class TestHeadCapture:
    def make_http_records(self, header_blob):
        head = (b"HTTP/1.1 200 OK\r\nContent-Length: 1000000\r\n\r\n")
        first = head + header_blob
        return handshake() + data_stream(
            1.0, [(0, len(first)), (len(first), 1460)],
            payloads=[first, None])

    def test_flv_rate_from_header(self):
        records = self.make_http_records(build_flv_header(750_000.0, 240.0))
        trace = build_download_trace(records, CLIENT, SERVER)
        estimate = estimate_session_rate(trace, duration=240.0)
        assert estimate.method == "flv-header"
        assert estimate.rate_bps == pytest.approx(750_000.0)
        assert estimate.container == "flv"

    def test_webm_falls_back_to_content_length(self):
        records = self.make_http_records(build_webm_header(240.0))
        trace = build_download_trace(records, CLIENT, SERVER)
        estimate = estimate_session_rate(trace, duration=200.0)
        assert estimate.method == "content-length"
        assert estimate.rate_bps == pytest.approx(1_000_000 * 8 / 200.0)
        assert estimate.content_length == 1_000_000

    def test_webm_without_duration_fails(self):
        records = self.make_http_records(build_webm_header(240.0))
        trace = build_download_trace(records, CLIENT, SERVER)
        estimate = estimate_session_rate(trace, duration=None)
        assert not estimate.ok
        assert estimate.method == "none"

    def test_garbage_head_yields_no_estimate(self):
        records = handshake() + data_stream(
            1.0, [(0, 100)], payloads=[b"\x00" * 100])
        trace = build_download_trace(records, CLIENT, SERVER)
        assert not estimate_session_rate(trace, duration=100.0).ok

    def test_head_capture_survives_out_of_order_arrival(self):
        head = b"HTTP/1.1 200 OK\r\nContent-Length: 500\r\n\r\n"
        blob = head + build_flv_header(500_000.0, 100.0)
        records = handshake() + data_stream(
            1.0, [(len(blob), 1000), (0, len(blob))],
            payloads=[None, blob])
        trace = build_download_trace(records, CLIENT, SERVER)
        # head arrived late: capture missed it (position-gated), so the
        # estimator reports no rate rather than garbage
        estimate = estimate_session_rate(trace, duration=100.0)
        assert estimate.method in ("none", "flv-header")


class TestAckClock:
    def cycle_records(self, rtt=0.02, block=8, gap=1.0, cycles=3):
        """Blocks of `block` segments separated by `gap` seconds."""
        records = handshake(rtt=rtt)
        t = 1.0
        offset = 0
        for _ in range(cycles):
            for i in range(block):
                records.append(rec(t + i * 0.001, seq=1 + offset,
                                   payload_len=1000))
                offset += 1000
            t += gap
        return records

    def test_whole_block_within_first_rtt(self):
        trace = build_download_trace(self.cycle_records(), CLIENT, SERVER)
        samples = ackclock_samples(trace)
        # first ON period skipped (buffering); 2 steady cycles measured
        assert len(samples) == 2
        assert all(s == 8000 for s in samples)

    def test_slow_block_exceeds_first_rtt(self):
        records = handshake(rtt=0.02)
        t, offset = 1.0, 0
        for cycle in range(3):
            for i in range(10):
                records.append(rec(t + i * 0.01, seq=1 + offset,
                                   payload_len=1000))
                offset += 1000
            t += 1.0
        trace = build_download_trace(records, CLIENT, SERVER)
        samples = ackclock_samples(trace)
        assert all(s == 3000 for s in samples)  # 20 ms at 1 pkt / 10 ms

    def test_no_rtt_estimate_no_samples(self):
        records = self.cycle_records()[3:]  # drop the handshake
        trace = build_download_trace(records, CLIENT, SERVER)
        assert ackclock_samples(trace) == []

    def test_include_connection_starts(self):
        trace = build_download_trace(self.cycle_records(), CLIENT, SERVER)
        with_starts = ackclock_samples(trace, include_connection_starts=True)
        without = ackclock_samples(trace)
        assert len(with_starts) == len(without) + 1

    def test_first_rtt_bytes_details(self):
        trace = build_download_trace(self.cycle_records(), CLIENT, SERVER)
        samples = first_rtt_bytes(trace.main_flow())
        assert all(isinstance(s, AckClockSample) for s in samples)
        assert all(s.rtt == pytest.approx(0.02) for s in samples)


# -- first_rtt_bytes against the per-period scan it replaced ------------------

#: Dyadic steps keep every sum exact, so ``start + rtt`` lands exactly on
#: later event times and both window ends see ties.
_GAPS = st.sampled_from([0.0, 0.0, 1 / 64, 1 / 32, 3 / 64, 0.25, 0.5, 1.0])
_RTTS = st.sampled_from([0.0, 1 / 64, 1 / 32, 3 / 64, 0.25, 0.5])


def _scan_first_rtt_bytes(flow, *, rtt, gap_threshold, min_on_bytes,
                          skip_first):
    """The O(periods x events) reference: sum every event of the flow
    once per ON period."""
    effective_rtt = rtt if rtt is not None else flow.handshake_rtt
    if effective_rtt is None or not flow.event_times:
        return []
    onoff = detect_onoff(flow.event_times, flow.event_advances,
                         gap_threshold=gap_threshold,
                         min_on_bytes=min_on_bytes)
    periods = onoff.on_periods[1:] if skip_first else onoff.on_periods
    events = list(zip(flow.event_times, flow.event_advances))
    return [
        AckClockSample(
            period.start,
            sum(advance for t, advance in events
                if period.start <= t <= period.start + effective_rtt),
            effective_rtt)
        for period in periods
    ]


class TestFirstRttBytesDifferential:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(gaps=st.lists(_GAPS, max_size=60),
           advances=st.lists(st.sampled_from([0, 0, 1, 1460, 5000]),
                             min_size=60, max_size=60),
           rtt=st.one_of(st.none(), _RTTS),
           handshake_rtt=st.one_of(st.none(), _RTTS),
           min_on_bytes=st.sampled_from([0, 1, 4096]),
           skip_first=st.booleans())
    def test_matches_per_period_scan(self, gaps, advances, rtt,
                                     handshake_rtt, min_on_bytes,
                                     skip_first):
        flow = FlowData(key=(SERVER, 80, CLIENT, 50000))
        flow.handshake_rtt = handshake_rtt
        t = 1.0
        for gap, advance in zip(gaps, advances):
            t += gap
            flow.event_times.append(t)
            flow.event_advances.append(advance)
        kwargs = dict(rtt=rtt, gap_threshold=0.15,
                      min_on_bytes=min_on_bytes, skip_first=skip_first)
        assert first_rtt_bytes(flow, **kwargs) == \
            _scan_first_rtt_bytes(flow, **kwargs)


# -- build_download_trace against the per-record loop it replaced ------------

def _loop_trace(records, client_ip, server_ip):
    """The reference: the per-record flow-table loop, over time-ordered
    records.  Returns per-flow state dicts (in table order), the
    aggregate events and the window samples."""
    flows, events, windows = {}, [], []
    for r in records:
        down = r.src_ip == server_ip and r.dst_ip == client_ip
        if down:
            key = (r.src_ip, r.src_port, r.dst_ip, r.dst_port)
        elif r.src_ip == client_ip and r.dst_ip == server_ip:
            key = (r.dst_ip, r.dst_port, r.src_ip, r.src_port)
        else:
            continue
        f = flows.setdefault(key, dict(
            syn=None, synack=None, rtt=None, unwrapper=SequenceUnwrapper(),
            base=None, max_seen=0, unique=0, total=0, retx=0,
            head=bytearray(), expect=0, events=[]))
        if r.flags & SYN:
            if not down and f["syn"] is None:
                f["syn"] = r.timestamp
            elif down and f["synack"] is None:
                f["synack"] = r.timestamp
                if f["syn"] is not None:
                    f["rtt"] = f["synack"] - f["syn"]
            continue
        if down and r.payload_len > 0:
            seq = f["unwrapper"].unwrap(r.seq)
            if f["base"] is None:
                f["base"] = seq
            rel = seq - f["base"]
            end = rel + r.payload_len
            advance = max(end - f["max_seen"], 0)
            if rel < f["max_seen"]:
                f["retx"] += r.payload_len
            if (r.payload is not None and rel == f["expect"]
                    and len(f["head"]) < FlowData.HEAD_CAPTURE_LIMIT):
                f["head"].extend(r.payload)
                f["expect"] = rel + r.payload_len
            f["max_seen"] = max(f["max_seen"], end)
            f["unique"] += advance
            f["total"] += r.payload_len
            f["events"].append((r.timestamp, advance))
            events.append((r.timestamp, advance))
        elif not down and r.flags & ACK:
            windows.append((r.timestamp, float(r.window)))
    return flows, events, windows


@st.composite
def _packet_streams(draw):
    """Time-ordered records over a few connections (plus unrelated
    traffic): wrapping sequence numbers, retransmissions and reordering,
    SYNs in either order, sparse real payloads."""
    bases = draw(st.lists(st.one_of(st.integers(0, (1 << 32) - 1),
                                    st.integers((1 << 32) - 5000,
                                                (1 << 32) - 1)),
                          min_size=3, max_size=3))
    steps = draw(st.lists(st.tuples(
        st.integers(0, 3),                          # connection; 3: other
        st.sampled_from(["data", "data", "data", "ack", "syn", "synack"]),
        st.integers(-3, 4),                         # segment offset step
        st.sampled_from([1, 100, 1460]),
        st.sampled_from([0.0, 0.0, 0.001, 0.2]),    # time gap
        st.booleans()),                             # real payload
        max_size=80))
    records, t, cursor = [], 0.0, [0, 0, 0, 0]
    for conn, kind, step, length, gap, real in steps:
        t += gap
        dport = 50000 + conn
        server = SERVER if conn < 3 else "198.51.100.7"
        if kind == "syn":
            records.append(rec(t, src=CLIENT, sport=dport, dst=server,
                               dport=80, flags=SYN))
        elif kind == "synack":
            records.append(rec(t, src=server, dport=dport, flags=SYN | ACK,
                               payload_len=length if real else 0))
        elif kind == "ack":
            records.append(rec(t, src=CLIENT, sport=dport, dst=server,
                               dport=80, flags=ACK, window=length * 640))
        else:
            cursor[conn] = max(0, cursor[conn] + step)
            seq = bases[conn % 3] + cursor[conn] * 1460
            records.append(rec(
                t, src=server, dport=dport, seq=seq, flags=ACK | PSH,
                payload_len=length,
                payload=bytes([conn]) * length if real else None))
    # hand them over out of time order: the view sorts the rows, while
    # its flow table keeps the order of first appearance in the input
    return draw(st.permutations(records))


class TestBuildDownloadTraceDifferential:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(shuffled=_packet_streams())
    def test_matches_per_record_loop(self, shuffled):
        trace = build_download_trace(shuffled, CLIENT, SERVER)
        records = sorted(shuffled, key=lambda r: r.timestamp)
        flows, events, windows = _loop_trace(records, CLIENT, SERVER)
        assert list(trace.flows) == list(flows)
        for key, want in flows.items():
            got = trace.flows[key]
            assert list(zip(got.event_times, got.event_advances)) \
                == want["events"]
            assert (got.unique_bytes, got.total_payload_bytes,
                    got.retransmitted_bytes) == (want["unique"],
                                                 want["total"], want["retx"])
            assert bytes(got.head_bytes) == bytes(want["head"])
            assert (got.syn_time, got.synack_time, got.handshake_rtt) == (
                want["syn"], want["synack"], want["rtt"])
            assert got.max_seq_seen == want["max_seen"]
            assert got.base_seq == want["base"]
        assert list(zip(trace.event_times, trace.event_advances)) == events
        assert list(trace.window_series) == windows
        if records:
            assert (trace.capture_start, trace.capture_end) == (
                records[0].timestamp, records[-1].timestamp)
