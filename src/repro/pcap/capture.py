"""Capturing simulated traffic, tcpdump-style, and the analysis input.

:class:`TraceCapture` attaches to links/paths as a tap and records every
segment (including ones later lost downstream, as a sender-side tcpdump
would) into columnar buffers.

The analysis consumes one representation of a capture, whatever its
source: :class:`PacketColumns`, a time-ordered, wire-quantized columnar
view.  Rows are ordered by timestamp, capture (file) order breaking
ties; sequence and ack numbers are 32-bit wire values; windows are
quantized exactly as the wire's scaled 16-bit field would carry them.
Two sources produce it:

* :meth:`TraceCapture.columns` — straight from the tap's buffers;
* :func:`columns_from_pcap` — from a classic libpcap or pcapng file,
  such as :meth:`TraceCapture.write_pcap` writes (real header
  serialization: checksums, 32-bit sequence wrap, window scaling) or a
  re-collected real trace.

Both views are derived on demand and never stored on the capture.
:class:`PacketRecord` objects are materialized from a view only for
callers that want per-packet objects (:attr:`TraceCapture.records`,
:func:`records_from_pcap`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..tcp.constants import ACK as F_ACK
from ..tcp.constants import FIN as F_FIN
from ..tcp.constants import SYN as F_SYN
from ..tcp.constants import header_overhead
from ..tcp.segment import TcpSegment
from ..tcp.seqspace import wrap
from . import ethernet, ipv4, tcpwire
from .pcapfile import DEFAULT_SNAPLEN, PcapReader, PcapWriter

#: Window-scale shift advertised on SYNs; 65535 << 7 ≈ 8 MB max window.
WSCALE_SHIFT = 7


@dataclass
class PacketRecord:
    """One captured TCP segment, as the analysis pipeline sees it."""

    timestamp: float
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    seq: int                 # wrapped 32-bit wire value
    ack: int                 # wrapped 32-bit wire value
    flags: int
    payload_len: int
    window: int              # bytes, after window-scale reconstruction
    wire_len: int
    payload: Optional[bytes] = None

    @property
    def is_syn(self) -> bool:
        return bool(self.flags & F_SYN)

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & F_FIN)

    @property
    def is_ack(self) -> bool:
        return bool(self.flags & F_ACK)

    def flow_key(self) -> Tuple[str, int, str, int]:
        return (self.src_ip, self.src_port, self.dst_ip, self.dst_port)


def _scaled_window_field(window: int, is_syn: bool) -> int:
    """The 16-bit window field value for a byte window."""
    if is_syn:
        return min(window, 0xFFFF)
    return min(window >> WSCALE_SHIFT, 0xFFFF)


def _window_from_field(field: int, is_syn: bool) -> int:
    if is_syn:
        return field
    return field << WSCALE_SHIFT


def record_from_segment(timestamp: float, seg: TcpSegment,
                        keep_payload: bool = True) -> PacketRecord:
    """Convert a simulated segment to a :class:`PacketRecord`.

    The advertised window is quantized exactly as the wire's scaled 16-bit
    field would, so fast-path records equal pcap-round-trip records.
    """
    field = _scaled_window_field(seg.window, seg.is_syn)
    return PacketRecord(
        timestamp=timestamp,
        src_ip=seg.src_ip,
        src_port=seg.src_port,
        dst_ip=seg.dst_ip,
        dst_port=seg.dst_port,
        seq=wrap(seg.seq),
        ack=wrap(seg.ack),
        flags=seg.flags,
        payload_len=seg.payload_len,
        window=_window_from_field(field, seg.is_syn),
        wire_len=seg.wire_size,
        payload=seg.payload if keep_payload else None,
    )


def segment_to_frame(seg: TcpSegment) -> bytes:
    """Serialize a simulated segment into real Ethernet/IPv4/TCP bytes."""
    is_syn = seg.is_syn
    tcp_bytes = tcpwire.pack(
        seg.src_ip,
        seg.dst_ip,
        seg.src_port,
        seg.dst_port,
        seq=wrap(seg.seq),
        ack=wrap(seg.ack),
        flags=seg.flags,
        window=_scaled_window_field(seg.window, is_syn),
        payload=seg.materialized_payload(),
        mss=1460 if is_syn else None,
        wscale=WSCALE_SHIFT if is_syn else None,
    )
    ip_bytes = ipv4.pack(seg.src_ip, seg.dst_ip, tcp_bytes)
    return ethernet.pack(
        ethernet.mac_from_ip(seg.dst_ip),
        ethernet.mac_from_ip(seg.src_ip),
        ip_bytes,
    )


FlowKey = Tuple[str, int, str, int]  # (src_ip, src_port, dst_ip, dst_port)


def time_order(t: np.ndarray) -> np.ndarray:
    """The row order of a capture: indices sorted by timestamp, capture
    order breaking ties (a stable sort)."""
    return np.argsort(t, kind="stable")


class PacketColumns:
    """One capture as time-ordered, wire-quantized columns.

    Row ``i`` is the ``i``-th packet by timestamp, capture order breaking
    ties.  Every column is a numpy array of one value per row:

    * ``t`` — capture timestamp (float64 seconds);
    * ``flow`` — index into ``flows``, the directed 4-tuples
      ``(src_ip, src_port, dst_ip, dst_port)`` in order of appearance;
    * ``seq``, ``ack`` — 32-bit wire values;
    * ``flags``, ``plen`` (payload length), ``wire_len`` (frame bytes);
    * ``window`` — the advertised window in bytes, quantized as the
      wire's scaled 16-bit field.

    ``payloads`` maps a row to its real payload bytes; it is sparse for
    simulated captures, whose video bodies are virtual.
    """

    __slots__ = ("flows", "t", "flow", "seq", "ack", "flags", "plen",
                 "window", "wire_len", "payloads")

    def __init__(self, flows: List[FlowKey], t, flow, seq, ack, flags, plen,
                 window, wire_len, payloads: Dict[int, bytes]) -> None:
        self.flows = flows
        self.t = np.asarray(t, dtype=np.float64)
        self.flow = np.asarray(flow, dtype=np.int32)
        self.seq = np.asarray(seq, dtype=np.int64)
        self.ack = np.asarray(ack, dtype=np.int64)
        self.flags = np.asarray(flags, dtype=np.int32)
        self.plen = np.asarray(plen, dtype=np.int64)
        self.window = np.asarray(window, dtype=np.int64)
        self.wire_len = np.asarray(wire_len, dtype=np.int64)
        self.payloads = payloads
        if len(self.t) > 1 and (self.t[1:] < self.t[:-1]).any():
            self._sort()

    def _sort(self) -> None:
        """Reorder rows into :func:`time_order`."""
        order = time_order(self.t)
        for name in ("t", "flow", "seq", "ack", "flags", "plen", "window",
                     "wire_len"):
            setattr(self, name, getattr(self, name)[order])
        if self.payloads:
            row = np.empty_like(order)
            row[order] = np.arange(len(order))
            self.payloads = {int(row[i]): payload
                             for i, payload in self.payloads.items()}

    @classmethod
    def from_records(cls, records: Iterable[PacketRecord]) -> "PacketColumns":
        """The view of a :class:`PacketRecord` sequence (rows sorted by
        timestamp, record order on ties)."""
        rows = _Rows()
        for r in records:
            rows.add((r.src_ip, r.src_port, r.dst_ip, r.dst_port),
                     r.timestamp, r.seq, r.ack, r.flags, r.payload_len,
                     r.window, r.wire_len, r.payload)
        return rows.view()

    def __len__(self) -> int:
        return len(self.t)

    def records(self) -> List[PacketRecord]:
        """One :class:`PacketRecord` per row, in row order."""
        table = self.flows
        payload_get = self.payloads.get
        # Bypass the dataclass __init__ (keyword processing dominates when
        # materializing tens of thousands of records): build the instance
        # dict directly.
        new = PacketRecord.__new__
        cls = PacketRecord
        out = []
        append = out.append
        rows = zip(self.t.tolist(), self.flow.tolist(), self.seq.tolist(),
                   self.ack.tolist(), self.flags.tolist(), self.plen.tolist(),
                   self.window.tolist(), self.wire_len.tolist())
        for i, (t, fid, seq, ack, flags, plen, window, wire_len) in \
                enumerate(rows):
            src_ip, src_port, dst_ip, dst_port = table[fid]
            rec = new(cls)
            rec.__dict__ = {
                "timestamp": t,
                "src_ip": src_ip,
                "src_port": src_port,
                "dst_ip": dst_ip,
                "dst_port": dst_port,
                "seq": seq,
                "ack": ack,
                "flags": flags,
                "payload_len": plen,
                "window": window,
                "wire_len": wire_len,
                "payload": payload_get(i),
            }
            append(rec)
        return out


class _Rows:
    """Packets collected in input order, for one :class:`PacketColumns`
    view (which sorts them)."""

    def __init__(self) -> None:
        self.flows: List[FlowKey] = []
        self._index: Dict[FlowKey, int] = {}
        self.columns: Tuple[List, ...] = ([], [], [], [], [], [], [], [])
        self.payloads: Dict[int, bytes] = {}

    def add(self, key: FlowKey, t: float, seq: int, ack: int, flags: int,
            plen: int, window: int, wire_len: int,
            payload: Optional[bytes]) -> None:
        fid = self._index.get(key)
        if fid is None:
            fid = self._index[key] = len(self.flows)
            self.flows.append(key)
        ts, fids, seqs, acks, flagcol, plens, windows, wire_lens = \
            self.columns
        if payload is not None:
            self.payloads[len(ts)] = payload
        ts.append(t)
        fids.append(fid)
        seqs.append(seq)
        acks.append(ack)
        flagcol.append(flags)
        plens.append(plen)
        windows.append(window)
        wire_lens.append(wire_len)

    def view(self) -> PacketColumns:
        return PacketColumns(self.flows, *self.columns, self.payloads)


#: What the analysis entry points accept: the columnar view, or records.
PacketInput = Union[PacketColumns, Sequence[PacketRecord]]


def as_columns(packets: PacketInput) -> PacketColumns:
    """``packets`` as a :class:`PacketColumns` view; a record sequence is
    converted once."""
    if isinstance(packets, PacketColumns):
        return packets
    return PacketColumns.from_records(packets)


class TraceCapture:
    """A sniffer recording per-segment fields into columnar buffers.

    The tap copies each segment's scalar fields into parallel ``array``
    columns instead of retaining the segment object — one append per
    field, no per-packet Python object.  That keeps multi-megabyte
    sessions allocation-lean (and lets the TCP layer pool segments: once
    the tap has copied the fields, nothing holds a reference).  Real
    payloads (HTTP heads, container metadata) are kept in a sparse dict
    keyed by capture index; virtual video-body payloads store nothing.

    :meth:`columns` derives the analysis view from these buffers on
    each call; :attr:`records` materializes :class:`PacketRecord`
    objects from it.  Neither is stored: a capture pickles its whole
    ``__dict__`` into worker IPC and the result cache.
    """

    def __init__(self, name: str = "capture", keep_payload: bool = True) -> None:
        self.name = name
        self.keep_payload = keep_payload
        self._t = array("d")           # capture timestamps
        self._flow = array("i")        # index into _flow_table
        self._seq = array("q")         # unwrapped sequence numbers
        self._ack = array("q")         # unwrapped ack numbers
        self._flags = array("i")
        self._plen = array("i")        # payload lengths
        self._window = array("q")      # raw byte windows (pre-quantization)
        self._payloads: Dict[int, bytes] = {}   # capture index -> real payload
        self._flow_table: List[Tuple[str, int, str, int]] = []
        self._flow_index: Dict[Tuple[str, int, str, int], int] = {}
        self._stopped = False
        # The tap runs once per captured packet; prebinding the column
        # append methods keeps it to one call per field.
        self._t_append = self._t.append
        self._flow_append = self._flow.append
        self._seq_append = self._seq.append
        self._ack_append = self._ack.append
        self._flags_append = self._flags.append
        self._plen_append = self._plen.append
        self._window_append = self._window.append

    # -- tap interface ------------------------------------------------------

    def tap(self, timestamp: float, segment: TcpSegment) -> None:
        """Link-tap callback; ignores packets after :meth:`stop`."""
        if self._stopped:
            return
        key = (segment.src_ip, segment.src_port,
               segment.dst_ip, segment.dst_port)
        idx = self._flow_index.get(key)
        if idx is None:
            idx = self._flow_index[key] = len(self._flow_table)
            self._flow_table.append(key)
        payload = segment.payload
        if payload is not None:
            self._payloads[len(self._t)] = payload
        self._t_append(timestamp)
        self._flow_append(idx)
        self._seq_append(segment.seq)
        self._ack_append(segment.ack)
        self._flags_append(segment.flags)
        self._plen_append(segment.payload_len)
        self._window_append(segment.window)

    def attach(self, *links) -> "TraceCapture":
        """Attach to any number of links or paths; returns self.

        Paths are tapped from the *client's* vantage point (endpoint b):
        downstream packets are stamped on arrival and lost ones never
        appear, exactly like a tcpdump on the measurement machine.
        Plain links are tapped at the sender side.
        """
        for link in links:
            if hasattr(link, "add_client_side_tap"):
                link.add_client_side_tap(self.tap)
            else:
                link.add_tap(self.tap)
        return self

    def stop(self) -> None:
        """Stop recording (the 180-second capture cutoff of Section 4.2)."""
        self._stopped = True

    # -- access -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._t)

    def columns(self) -> PacketColumns:
        """The capture as a :class:`PacketColumns` view (a new one on
        each call): sequence and ack numbers wrapped to 32 bits, windows
        quantized exactly as the wire's scaled 16-bit field would."""
        flags = np.frombuffer(self._flags, dtype=np.int32)
        plen = np.frombuffer(self._plen, dtype=np.int32)
        raw = np.frombuffer(self._window, dtype=np.int64)
        syn = (flags & F_SYN) != 0
        window = np.where(
            syn, np.minimum(raw, 0xFFFF),
            np.minimum(raw >> WSCALE_SHIFT, 0xFFFF) << WSCALE_SHIFT)
        # header_overhead() is a flags-only branch: SYNs carry options
        wire_len = np.where(syn, header_overhead(F_SYN),
                            header_overhead(0)) + plen
        return PacketColumns(
            list(self._flow_table),
            np.frombuffer(self._t, dtype=np.float64).copy(),
            np.frombuffer(self._flow, dtype=np.int32).copy(),
            np.frombuffer(self._seq, dtype=np.int64) & 0xFFFFFFFF,
            np.frombuffer(self._ack, dtype=np.int64) & 0xFFFFFFFF,
            flags.copy(), plen.astype(np.int64), window, wire_len,
            dict(self._payloads) if self.keep_payload else {})

    @property
    def records(self) -> List[PacketRecord]:
        """All captured segments as analysis records, in the
        :meth:`columns` row order (timestamp, capture order on ties)."""
        return self.columns().records()

    def iter_segments(self):
        """Yield ``(timestamp, TcpSegment)`` in record order.

        Segments are *reconstructed* from the columns (the originals are
        not retained); pcap writers use this to serialize real frames.
        """
        table = self._flow_table
        ts = np.frombuffer(self._t, dtype=np.float64)
        for i in time_order(ts).tolist():
            src_ip, src_port, dst_ip, dst_port = table[self._flow[i]]
            yield self._t[i], TcpSegment(
                src_ip, src_port, dst_ip, dst_port,
                seq=self._seq[i], ack=self._ack[i], flags=self._flags[i],
                window=self._window[i], payload_len=self._plen[i],
                payload=self._payloads.get(i),
            )

    def write_pcap(self, path: str, snaplen: int = DEFAULT_SNAPLEN) -> int:
        """Serialize the capture to a libpcap file; returns packet count."""
        with open(path, "wb") as f:
            writer = PcapWriter(f, snaplen=snaplen)
            for timestamp, seg in self.iter_segments():
                writer.write_packet(timestamp, segment_to_frame(seg))
            return writer.packets_written


def columns_from_pcap(path: str, *, verify_checksums: bool = True
                      ) -> PacketColumns:
    """Parse a capture file into a :class:`PacketColumns` view.

    Both classic libpcap (tcpdump/windump) and pcapng (Wireshark/dumpcap)
    are accepted — the format is sniffed from the first block.  Window-
    scale shifts are learned from each direction's SYN, as any tcpdump-
    based analysis must.  Truncated (snaplen-limited) payloads are still
    accounted at their original length.  Rows are ordered by timestamp,
    file order breaking ties, so a trace whose frames were written out of
    time order reads as if they had not been.
    """
    from .pcapng import PcapngReader, is_pcapng

    rows = _Rows()
    with open(path, "rb") as f:
        reader = PcapngReader(f) if is_pcapng(path) else PcapReader(f)
        scales: Dict[FlowKey, int] = {}
        for timestamp, frame, orig_len in reader:
            _dst, _src, ethertype, ip_payload = ethernet.unpack(frame)
            if ethertype != ethernet.ETHERTYPE_IPV4:
                continue
            truncated = orig_len > len(frame)
            src_ip, dst_ip, proto, tcp_bytes = ipv4.unpack(
                ip_payload, verify_checksum=verify_checksums and not truncated
            )
            if proto != ipv4.PROTO_TCP:
                continue
            wire = tcpwire.unpack(
                src_ip, dst_ip, tcp_bytes,
                verify_checksum=verify_checksums and not truncated,
            )
            key = (src_ip, wire.src_port, dst_ip, wire.dst_port)
            if wire.flags & tcpwire.SYN:
                scales[key] = wire.wscale or 0
            shift = scales.get(key, WSCALE_SHIFT)
            # payload length on the wire (before snaplen truncation):
            # orig_len - ethernet - ip header - tcp data offset
            tcp_header_len = len(tcp_bytes) - len(wire.payload)
            payload_len = orig_len - ethernet.HEADER_LEN - ipv4.HEADER_LEN - tcp_header_len
            rows.add(key, timestamp, wire.seq, wire.ack, wire.flags,
                     payload_len, wire.scaled_window(shift), orig_len,
                     wire.payload if not truncated else None)
    return rows.view()


def records_from_pcap(path: str, *, verify_checksums: bool = True
                      ) -> List[PacketRecord]:
    """Parse a capture file into :class:`PacketRecord` objects, in the
    row order of :func:`columns_from_pcap`."""
    return columns_from_pcap(path, verify_checksums=verify_checksums).records()
