"""Flow tracking and download-trace reconstruction from packet columns.

The analysis views a streaming session the way the paper's tooling viewed a
tcpdump capture: a set of TCP flows between a client and the streaming
server.  :func:`build_download_trace` reconstructs, from a capture's
:class:`~repro.pcap.capture.PacketColumns` view (simulated or parsed from
a pcap),

* the *arrival events* of new (unique) downstream payload bytes — the
  cumulative download curve of Figures 2(a), 6(a), 7(a), 10;
* per-packet *activity* timestamps (retransmissions included), which drive
  ON/OFF detection;
* the client's advertised receive-window evolution (Figures 2(b), 6(a));
* per-flow handshake RTTs (needed by the ACK-clock analysis of Figure 9);
* the in-order leading payload bytes of each flow, from which HTTP response
  heads and container metadata are re-parsed.

It is one batch pass over the columns.  Each flow id of the view is
classified once as downstream (server → client), upstream or other; the
per-packet work is then numpy masks and, per downstream flow, a
vectorized sequence unwrap, running maximum and unique-byte advance.
Sequence numbers are 32-bit wire values; each flow unwraps them
independently, so the pipeline works on real pcap input too.

Both the per-flow and the aggregate events are held as two parallel
columns, :attr:`~_EventColumns.event_times` (``array('d')``) and
:attr:`~_EventColumns.event_advances` (``array('q')``), which
:func:`~repro.analysis.onoff.detect_onoff` and the ACK-clock metric read
directly.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Dict, List, Optional

import numpy as np

from ..pcap.capture import FlowKey, PacketInput, as_columns
from ..simnet.monitor import TimeSeries
from ..tcp.constants import ACK as F_ACK
from ..tcp.constants import SYN as F_SYN
from ..tcp.seqspace import HALF_MOD, SEQ_MOD

#: Direction codes of a view's flow ids, relative to (client, server).
_OTHER, _DOWN, _UP = 0, 1, 2


class _EventColumns:
    """Columnar (time, unique-byte advance) event log shared by flow and
    aggregate views: one row per downstream data packet, in time order."""

    __slots__ = ("event_times", "event_advances")

    def __init__(self) -> None:
        #: Data-packet timestamps (retransmissions included).
        self.event_times = array("d")
        #: New unique bytes each data packet moved (0 for a retransmission).
        self.event_advances = array("q")

    @property
    def packet_count(self) -> int:
        """Downstream data packets seen (retransmissions included)."""
        return len(self.event_times)


class FlowData(_EventColumns):
    """Downstream state of one TCP flow (server -> client direction)."""

    __slots__ = (
        "key",
        "syn_time",
        "synack_time",
        "handshake_rtt",
        "first_data_time",
        "last_data_time",
        "base_seq",
        "max_seq_seen",
        "unique_bytes",
        "total_payload_bytes",
        "retransmitted_bytes",
        "head_bytes",
    )

    HEAD_CAPTURE_LIMIT = 8192

    def __init__(self, key: FlowKey) -> None:
        super().__init__()
        self.key = key
        self.syn_time: Optional[float] = None
        self.synack_time: Optional[float] = None
        self.handshake_rtt: Optional[float] = None
        self.first_data_time: Optional[float] = None
        self.last_data_time: Optional[float] = None
        self.base_seq: Optional[int] = None   # wire seq of first payload byte
        self.max_seq_seen = 0                 # highest unwrapped end-seq (relative)
        self.unique_bytes = 0
        self.total_payload_bytes = 0
        self.retransmitted_bytes = 0
        self.head_bytes = bytearray()

    def on_data_packets(self, times: np.ndarray, seqs: np.ndarray,
                        plens: np.ndarray,
                        payloads: Dict[int, bytes]) -> np.ndarray:
        """Account all of the flow's downstream data packets, given as
        columns in time order; returns each packet's unique-byte advance.

        Called once per flow.  ``seqs`` are 32-bit wire values;
        ``payloads`` maps a position in the columns to that packet's real
        payload bytes.
        """
        # unwrap: each step is the signed distance on the 32-bit circle
        # from the previous packet's sequence number (seq_diff)
        step = np.diff(seqs) % SEQ_MOD
        step[step > HALF_MOD] -= SEQ_MOD
        rel = np.zeros(len(seqs), dtype=np.int64)
        np.cumsum(step, out=rel[1:])
        end = rel + plens
        # highest end-sequence seen before each packet (0 before any; the
        # first packet ends above 0, so the running maximum stays >= 0)
        seen = np.zeros(len(seqs), dtype=np.int64)
        np.maximum.accumulate(end[:-1], out=seen[1:])
        advance = np.maximum(end - seen, 0)
        # client-side retransmission detection by sequence regression (what
        # tstat-style tools do): a data packet starting below the highest
        # sequence already seen is a retransmission — either a duplicate or
        # a late hole-filler whose original was lost upstream of the capture
        self.retransmitted_bytes = int(plens[rel < seen].sum())
        self.base_seq = int(seqs[0])
        self.max_seq_seen = max(int(seen[-1]), int(end[-1]))
        self.unique_bytes = int(advance.sum())
        self.total_payload_bytes = int(plens.sum())
        self.first_data_time = float(times[0])
        self.last_data_time = float(times[-1])
        self.event_times.frombytes(times.tobytes())
        self.event_advances.frombytes(advance.tobytes())
        # the in-order leading bytes, for HTTP/container parsing
        expect = 0
        for pos in sorted(payloads):
            if len(self.head_bytes) >= self.HEAD_CAPTURE_LIMIT:
                break
            if int(rel[pos]) == expect:
                self.head_bytes.extend(payloads[pos])
                expect = int(end[pos])
        return advance

    @property
    def retransmission_rate(self) -> float:
        if self.total_payload_bytes == 0:
            return 0.0
        return self.retransmitted_bytes / self.total_payload_bytes


class DownloadTrace(_EventColumns):
    """Aggregate download view of one capture (all flows combined)."""

    __slots__ = (
        "client_ip",
        "server_ip",
        "flows",
        "window_series",
        "capture_start",
        "capture_end",
    )

    def __init__(
        self,
        client_ip: str,
        server_ip: str,
        flows: Dict[FlowKey, FlowData],
        window_series: TimeSeries,
        capture_start: float,
        capture_end: float,
    ) -> None:
        super().__init__()
        self.client_ip = client_ip
        self.server_ip = server_ip
        self.flows = flows
        self.window_series = window_series
        self.capture_start = capture_start
        self.capture_end = capture_end

    @property
    def total_bytes(self) -> int:
        return sum(f.unique_bytes for f in self.flows.values())

    @property
    def total_payload_bytes(self) -> int:
        return sum(f.total_payload_bytes for f in self.flows.values())

    @property
    def retransmission_rate(self) -> float:
        payload = self.total_payload_bytes
        if payload == 0:
            return 0.0
        retx = sum(f.retransmitted_bytes for f in self.flows.values())
        return retx / payload

    @property
    def flow_count(self) -> int:
        return len(self.flows)

    @property
    def first_data_time(self) -> Optional[float]:
        times = [f.first_data_time for f in self.flows.values()
                 if f.first_data_time is not None]
        return min(times) if times else None

    @property
    def last_data_time(self) -> Optional[float]:
        times = [f.last_data_time for f in self.flows.values()
                 if f.last_data_time is not None]
        return max(times) if times else None

    def cumulative_series(self) -> TimeSeries:
        """The download-amount-vs-time curve (Figure 2(a) style)."""
        return TimeSeries.from_columns(
            "download-amount",
            self.event_times,
            map(float, accumulate(self.event_advances)),
        )

    def median_handshake_rtt(self) -> Optional[float]:
        rtts = sorted(
            f.handshake_rtt for f in self.flows.values()
            if f.handshake_rtt is not None
        )
        if not rtts:
            return None
        return rtts[len(rtts) // 2]

    def main_flow(self) -> FlowData:
        """The flow that carried the most unique bytes."""
        if not self.flows:
            raise ValueError("trace has no flows")
        return max(self.flows.values(), key=lambda f: f.unique_bytes)

    def download_rate_bps(self) -> float:
        """Average download rate over the active span."""
        first, last = self.first_data_time, self.last_data_time
        if first is None or last is None or last <= first:
            return 0.0
        return self.total_bytes * 8 / (last - first)


def _payloads_by_flow(payloads: Dict[int, bytes], data_rows: np.ndarray,
                      data_fids: np.ndarray, by_flow: np.ndarray,
                      bounds: np.ndarray) -> Dict[int, Dict[int, bytes]]:
    """The real payloads of the data rows, as ``{flow id: {position in
    the flow's data rows: payload}}``, in one pass over the payloads.

    ``by_flow`` orders ``data_rows`` by flow (stably) and ``bounds`` are
    the starts of its groups after the first.
    """
    if not payloads or not len(data_rows):
        return {}
    # each data row's position within its flow's group
    starts = np.concatenate(([0], bounds))
    sizes = np.diff(np.append(starts, len(by_flow)))
    pos = np.empty(len(by_flow), dtype=np.int64)
    pos[by_flow] = np.arange(len(by_flow)) - np.repeat(starts, sizes)
    held_rows = np.array(sorted(payloads), dtype=np.int64)
    at = np.searchsorted(data_rows, held_rows).clip(max=len(data_rows) - 1)
    at = at[data_rows[at] == held_rows]
    held: Dict[int, Dict[int, bytes]] = {}
    for fid, p, row in zip(data_fids[at].tolist(), pos[at].tolist(),
                           data_rows[at].tolist()):
        held.setdefault(fid, {})[p] = payloads[row]
    return held


def build_download_trace(
    packets: PacketInput,
    client_ip: str,
    server_ip: str,
) -> DownloadTrace:
    """Reconstruct the aggregate download trace of one capture.

    ``packets`` is a capture's :class:`~repro.pcap.capture.PacketColumns`
    view; a :class:`~repro.pcap.capture.PacketRecord` sequence is
    converted to one first.
    """
    cols = as_columns(packets)
    flows: Dict[FlowKey, FlowData] = {}
    n = len(cols)
    trace = DownloadTrace(
        client_ip=client_ip,
        server_ip=server_ip,
        flows=flows,
        window_series=TimeSeries("recv-window"),
        capture_start=float(cols.t[0]) if n else 0.0,
        capture_end=float(cols.t[-1]) if n else 0.0,
    )
    if not n:
        return trace

    # classify each flow id once; both directions of a connection share
    # one FlowData keyed server -> client
    direction = np.zeros(len(cols.flows), dtype=np.int8)
    keys: List[Optional[FlowKey]] = []
    for fid, (src, sport, dst, dport) in enumerate(cols.flows):
        if src == server_ip and dst == client_ip:
            direction[fid] = _DOWN
            keys.append((src, sport, dst, dport))
        elif src == client_ip and dst == server_ip:
            direction[fid] = _UP
            keys.append((dst, dport, src, sport))
        else:
            keys.append(None)
    # flows enter the table in order of their first packet, either way
    fids, first_rows = np.unique(cols.flow, return_index=True)
    for row, fid in sorted(zip(first_rows.tolist(), fids.tolist())):
        key = keys[fid]
        if key is not None and key not in flows:
            flows[key] = FlowData(key=key)

    side = direction[cols.flow]
    syn = (cols.flags & F_SYN) != 0

    # handshakes: the first client SYN, then the first server SYN-ACK
    for row in np.flatnonzero(syn & (side != _OTHER)).tolist():
        fid = int(cols.flow[row])
        flow = flows[keys[fid]]
        t = float(cols.t[row])
        if direction[fid] == _UP:
            if flow.syn_time is None:
                flow.syn_time = t
        elif flow.synack_time is None:
            flow.synack_time = t
            if flow.syn_time is not None:
                flow.handshake_rtt = t - flow.syn_time

    # downstream data packets, one flow at a time
    data_rows = np.flatnonzero((side == _DOWN) & ~syn & (cols.plen > 0))
    data_fids = cols.flow[data_rows]
    by_flow = np.argsort(data_fids, kind="stable")
    bounds = np.flatnonzero(np.diff(data_fids[by_flow])) + 1
    groups = np.split(by_flow, bounds) if len(by_flow) else []
    advances = np.empty(len(data_rows), dtype=np.int64)
    held = _payloads_by_flow(cols.payloads, data_rows, data_fids, by_flow,
                             bounds)
    for group in groups:
        rows = data_rows[group]
        fid = int(cols.flow[rows[0]])
        advances[group] = flows[keys[fid]].on_data_packets(
            cols.t[rows], cols.seq[rows], cols.plen[rows], held.get(fid, {}))
    trace.event_times.frombytes(cols.t[data_rows].tobytes())
    trace.event_advances.frombytes(advances.tobytes())

    # the client's advertised window, from every upstream ACK
    acks = (side == _UP) & ~syn & ((cols.flags & F_ACK) != 0)
    trace.window_series = TimeSeries.from_columns(
        "recv-window", cols.t[acks].tolist(),
        cols.window[acks].astype(np.float64).tolist())
    return trace
