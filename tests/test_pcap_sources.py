"""One analysis input, whatever the source.

A capture's :class:`~repro.pcap.capture.PacketColumns` view taken straight
from :class:`~repro.pcap.capture.TraceCapture` and the views parsed back
from its classic-pcap and pcapng files must reconstruct the same
:class:`~repro.analysis.flowtable.DownloadTrace` and the same session
analysis.  Two things differ by construction and are compared as such:

* pcap timestamps carry microseconds, so times (and the handshake RTTs
  derived from them) agree to within a microsecond;
* simulated video bodies are virtual and go on the wire zero-filled, so
  the files are written with a header-sized snaplen (``tcpdump -s 256``):
  the HTTP heads and container metadata survive, the bodies do not, and
  the in-order leading bytes (``head_bytes``) match exactly.
"""

import pytest

from repro.analysis import analyze_records, build_download_trace
from repro.pcap import (
    PcapngWriter,
    PcapWriter,
    columns_from_pcap,
    records_from_pcap,
    segment_to_frame,
)
from repro.simnet import ACADEMIC, CLIENT_IP, RESIDENCE, SERVER_IP
from repro.streaming import (
    Application,
    Container,
    Service,
    SessionConfig,
    run_session,
)
from repro.tcp import ACK, TcpSegment
from repro.workloads import MBPS, Video
from repro.workloads.catalog import generate_netflix_catalog

#: Keeps every header and HTTP/metadata payload, truncates video bodies.
HEAD_SNAPLEN = 256

#: Half a microsecond of rounding per timestamp, on either side.
TIME_ABS = 1e-6


def _sessions():
    flash = Video("equiv-flash", 240.0, 0.8 * MBPS, "360p", "flv")
    netflix = generate_netflix_catalog("NetflixEquiv", 1, seed=0)[0]
    return {
        # lossy: retransmissions and late hole-fillers in the trace
        "flash-residence": (flash, SessionConfig(
            profile=RESIDENCE, service=Service.YOUTUBE,
            application=Application.FIREFOX, container=Container.FLASH,
            capture_duration=40.0, seed=3)),
        # many short connections, each with its own handshake
        "netflix-ios": (netflix, SessionConfig(
            profile=ACADEMIC, service=Service.NETFLIX,
            application=Application.IOS, capture_duration=40.0, seed=3)),
    }


@pytest.fixture(scope="module", params=sorted(_sessions()))
def session(request, tmp_path_factory):
    video, config = _sessions()[request.param]
    result = run_session(video, config)
    root = tmp_path_factory.mktemp(request.param)
    classic = str(root / "s.pcap")
    result.capture.write_pcap(classic, snaplen=HEAD_SNAPLEN)
    ng = str(root / "s.pcapng")
    with open(ng, "wb") as f:
        writer = PcapngWriter(f, snaplen=HEAD_SNAPLEN)
        for t, seg in result.capture.iter_segments():
            writer.write_packet(t, segment_to_frame(seg))
    return result, {"pcap": classic, "pcapng": ng}


def _assert_same_trace(direct, parsed):
    assert list(parsed.flows) == list(direct.flows)
    for key, a in direct.flows.items():
        b = parsed.flows[key]
        assert list(b.event_advances) == list(a.event_advances)
        assert list(b.event_times) == pytest.approx(list(a.event_times),
                                                    abs=TIME_ABS)
        assert (b.unique_bytes, b.retransmitted_bytes,
                b.total_payload_bytes) == (a.unique_bytes,
                                           a.retransmitted_bytes,
                                           a.total_payload_bytes)
        assert bytes(b.head_bytes) == bytes(a.head_bytes)
        assert (b.handshake_rtt is None) == (a.handshake_rtt is None)
        if a.handshake_rtt is not None:
            assert b.handshake_rtt == pytest.approx(a.handshake_rtt,
                                                    abs=2 * TIME_ABS)
    assert list(parsed.event_advances) == list(direct.event_advances)
    assert list(parsed.event_times) == pytest.approx(
        list(direct.event_times), abs=TIME_ABS)
    assert parsed.window_series.values == direct.window_series.values
    assert parsed.window_series.times == pytest.approx(
        direct.window_series.times, abs=TIME_ABS)


def _assert_same_analysis(direct, parsed):
    assert parsed.strategy == direct.strategy
    assert parsed.block_sizes == direct.block_sizes
    assert parsed.buffering_bytes == direct.buffering_bytes
    assert parsed.ackclock == direct.ackclock
    assert ([p.bytes for p in parsed.onoff.on_periods]
            == [p.bytes for p in direct.onoff.on_periods])
    assert parsed.rate_estimate.method == direct.rate_estimate.method
    assert parsed.encoding_rate_bps == pytest.approx(
        direct.encoding_rate_bps)


@pytest.mark.parametrize("fmt", ["pcap", "pcapng"])
def test_file_views_rebuild_the_direct_trace(session, fmt):
    result, paths = session
    direct = build_download_trace(result.capture.columns(), CLIENT_IP,
                                  SERVER_IP)
    assert direct.retransmission_rate > 0 or len(direct.flows) > 1
    for packets in (columns_from_pcap(paths[fmt]),
                    records_from_pcap(paths[fmt])):
        _assert_same_trace(direct,
                           build_download_trace(packets, CLIENT_IP, SERVER_IP))


@pytest.mark.parametrize("fmt", ["pcap", "pcapng"])
def test_file_views_give_the_same_analysis(session, fmt):
    result, paths = session
    duration = result.video.duration
    direct = analyze_records(result.capture.columns(), CLIENT_IP, SERVER_IP,
                             duration=duration)
    parsed = analyze_records(columns_from_pcap(paths[fmt]), CLIENT_IP,
                             SERVER_IP, duration=duration)
    _assert_same_analysis(direct, parsed)


def test_full_snaplen_heads_start_with_the_direct_heads(session, tmp_path):
    """Without truncation the zero-filled bodies extend each head."""
    result, _paths = session
    path = str(tmp_path / "full.pcap")
    result.capture.write_pcap(path)
    direct = build_download_trace(result.capture.columns(), CLIENT_IP,
                                  SERVER_IP)
    full = build_download_trace(columns_from_pcap(path), CLIENT_IP, SERVER_IP)
    for key, flow in direct.flows.items():
        assert bytes(full.flows[key].head_bytes).startswith(
            bytes(flow.head_bytes))


def test_out_of_order_frames_are_read_in_timestamp_order(tmp_path):
    """Rows are ordered by timestamp, file order breaking ties."""
    stamps = [3.0, 1.0, 2.0, 1.0, 0.5]
    path = str(tmp_path / "shuffled.pcap")
    with open(path, "wb") as f:
        writer = PcapWriter(f)
        for i, t in enumerate(stamps):
            seg = TcpSegment(SERVER_IP, 80, CLIENT_IP, 50000, seq=i * 1000,
                             ack=1, flags=ACK, window=65535,
                             payload_len=1000)
            writer.write_packet(t, segment_to_frame(seg))
    packets = columns_from_pcap(path)
    assert packets.t.tolist() == [0.5, 1.0, 1.0, 2.0, 3.0]
    assert packets.seq.tolist() == [4000, 1000, 3000, 2000, 0]
    assert [r.seq for r in records_from_pcap(path)] == packets.seq.tolist()
    trace = build_download_trace(packets, CLIENT_IP, SERVER_IP)
    assert list(trace.event_times) == [0.5, 1.0, 1.0, 2.0, 3.0]
    # the first row in time order is the flow's base: the packets before
    # it in sequence space arrived later, as retransmissions would
    assert list(trace.event_advances) == [1000, 0, 0, 0, 0]


def test_full_snaplen_many_flow_payloads_go_to_their_own_flows(tmp_path):
    """A full-snaplen trace holds a payload on every data row; each row's
    bytes must land in the head of its own flow, however interleaved."""
    nflows, per, size = 40, 5, 100
    path = str(tmp_path / "interleaved.pcap")
    with open(path, "wb") as f:
        writer = PcapWriter(f)
        for k in range(per):
            for i in range(nflows):
                seg = TcpSegment(SERVER_IP, 80, CLIENT_IP, 40000 + i,
                                 seq=1000 + k * size, ack=1, flags=ACK,
                                 window=65535, payload_len=size,
                                 payload=bytes([i]) * size)
                writer.write_packet((k * nflows + i) * 1e-3,
                                    segment_to_frame(seg))
    trace = build_download_trace(columns_from_pcap(path), CLIENT_IP,
                                 SERVER_IP)
    assert len(trace.flows) == nflows
    for (_src, _sport, _dst, dport), flow in trace.flows.items():
        assert bytes(flow.head_bytes) == bytes([dport - 40000]) * size * per
