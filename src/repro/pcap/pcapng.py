"""Minimal pcapng (pcap-next-generation) reader.

The paper's tooling consumed classic libpcap files (tcpdump/windump), but a
*re-collected* trace in 2026 most likely comes out of Wireshark/dumpcap as
pcapng.  This module reads the subset needed to feed the analysis pipeline:

* Section Header Blocks (SHB) — byte order, section boundaries;
* Interface Description Blocks (IDB) — link type and timestamp resolution;
* Enhanced Packet Blocks (EPB) — the packets;
* Simple Packet Blocks (SPB) — accepted, stamped at 0 (no timestamps);
* all other block types are skipped.

Writing stays classic pcap (:mod:`repro.pcap.pcapfile`): universally read,
and the simulator has no use for pcapng's extra metadata.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterator, List, Optional, Tuple

from .pcapfile import PcapError

SHB_TYPE = 0x0A0D0D0A
IDB_TYPE = 0x00000001
SPB_TYPE = 0x00000003
EPB_TYPE = 0x00000006
BYTE_ORDER_MAGIC = 0x1A2B3C4D

OPT_ENDOFOPT = 0
OPT_IF_TSRESOL = 9


@dataclass
class _Interface:
    link_type: int
    ticks_per_second: float


class PcapngReader:
    """Iterate ``(timestamp, captured_bytes, original_length)`` records.

    Matches :class:`~repro.pcap.pcapfile.PcapReader`'s iteration contract,
    so :func:`repro.pcap.capture.records_from_pcap` can consume either
    format transparently.
    """

    def __init__(self, fileobj: BinaryIO) -> None:
        self._file = fileobj
        self._endian = "<"
        self._interfaces: List[_Interface] = []
        self.linktype: Optional[int] = None
        self.snaplen = 0
        header = fileobj.read(12)
        if len(header) < 12:
            raise PcapError("truncated pcapng section header")
        (block_type,) = struct.unpack("<I", header[:4])
        if block_type != SHB_TYPE:
            raise PcapError(f"not a pcapng file (first block 0x{block_type:08x})")
        (magic,) = struct.unpack("<I", header[8:12])
        if magic == BYTE_ORDER_MAGIC:
            self._endian = "<"
        elif magic == struct.unpack("<I", struct.pack(">I", BYTE_ORDER_MAGIC))[0]:
            self._endian = ">"
        else:
            raise PcapError(f"bad pcapng byte-order magic 0x{magic:08x}")
        (total_length,) = struct.unpack(self._endian + "I", header[4:8])
        # consume the rest of the SHB
        self._read_exact(total_length - 12)

    def _read_exact(self, n: int) -> bytes:
        data = self._file.read(n)
        if len(data) < n:
            raise PcapError("truncated pcapng block")
        return data

    def _parse_idb(self, body: bytes) -> None:
        if len(body) < 8:
            raise PcapError("truncated interface description block")
        link_type, _reserved, snaplen = struct.unpack(
            self._endian + "HHI", body[:8])
        ticks = 1e6  # default: microsecond resolution
        options = body[8:]
        i = 0
        while i + 4 <= len(options):
            code, length = struct.unpack(self._endian + "HH",
                                         options[i:i + 4])
            if code == OPT_ENDOFOPT:
                break
            value = options[i + 4:i + 4 + length]
            if code == OPT_IF_TSRESOL and length >= 1:
                resol = value[0]
                if resol & 0x80:
                    ticks = float(2 ** (resol & 0x7F))
                else:
                    ticks = float(10 ** resol)
            i += 4 + length + (-length % 4)
        self._interfaces.append(_Interface(link_type, ticks))
        if self.linktype is None:
            self.linktype = link_type
            self.snaplen = snaplen

    def __iter__(self) -> Iterator[Tuple[float, bytes, int]]:
        while True:
            head = self._file.read(8)
            if not head:
                return
            if len(head) < 8:
                raise PcapError("truncated pcapng block header")
            block_type, total_length = struct.unpack(self._endian + "II", head)
            if total_length < 12 or total_length % 4:
                raise PcapError(f"bad pcapng block length {total_length}")
            body = self._read_exact(total_length - 12)
            trailer = self._read_exact(4)
            (trailer_length,) = struct.unpack(self._endian + "I", trailer)
            if trailer_length != total_length:
                raise PcapError("pcapng block length trailer mismatch")
            if block_type == IDB_TYPE:
                self._parse_idb(body)
            elif block_type == EPB_TYPE:
                yield self._parse_epb(body)
            elif block_type == SPB_TYPE:
                yield self._parse_spb(body)
            elif block_type == SHB_TYPE:
                # a new section: interfaces reset
                self._interfaces.clear()
            # anything else (name resolution, statistics, ...) is skipped

    def _parse_epb(self, body: bytes) -> Tuple[float, bytes, int]:
        if len(body) < 20:
            raise PcapError("truncated enhanced packet block")
        iface_id, ts_high, ts_low, captured, original = struct.unpack(
            self._endian + "IIIII", body[:20])
        if iface_id >= len(self._interfaces):
            raise PcapError(f"EPB references unknown interface {iface_id}")
        data = body[20:20 + captured]
        if len(data) < captured:
            raise PcapError("enhanced packet block shorter than captured length")
        ticks = self._interfaces[iface_id].ticks_per_second
        timestamp = ((ts_high << 32) | ts_low) / ticks
        return timestamp, data, original

    def _parse_spb(self, body: bytes) -> Tuple[float, bytes, int]:
        if len(body) < 4:
            raise PcapError("truncated simple packet block")
        (original,) = struct.unpack(self._endian + "I", body[:4])
        data = body[4:4 + min(original, len(body) - 4)]
        return 0.0, data, original


def is_pcapng(path: str) -> bool:
    """Sniff whether the file at ``path`` is pcapng (vs classic pcap)."""
    with open(path, "rb") as f:
        head = f.read(4)
    if len(head) < 4:
        return False
    return struct.unpack("<I", head)[0] == SHB_TYPE


class PcapngWriter:
    """Write a minimal, valid pcapng stream (one section, one interface).

    Exists mainly so the reader can be tested against real bytes and so
    captures can be handed to pcapng-only tooling.
    """

    def __init__(self, fileobj: BinaryIO, linktype: int = 1,
                 snaplen: int = 65535) -> None:
        self._file = fileobj
        self.snaplen = snaplen
        self.packets_written = 0
        # SHB: type, length, magic, version 1.0, section length -1, trailer
        shb = struct.pack("<IIIHHq", SHB_TYPE, 28, BYTE_ORDER_MAGIC, 1, 0, -1)
        self._file.write(shb + struct.pack("<I", 28))
        # IDB: linktype, reserved, snaplen, no options
        idb = struct.pack("<IIHHI", IDB_TYPE, 20, linktype, 0, snaplen)
        self._file.write(idb + struct.pack("<I", 20))

    def write_packet(self, timestamp: float, frame: bytes) -> None:
        """Append one frame, truncated to ``snaplen`` like tcpdump ``-s``
        (the block keeps the original length)."""
        ticks = int(round(timestamp * 1e6))
        data = frame[:self.snaplen]
        captured = len(data)
        pad = -captured % 4
        total = 32 + captured + pad
        self._file.write(struct.pack(
            "<IIIIIII", EPB_TYPE, total, 0,
            (ticks >> 32) & 0xFFFFFFFF, ticks & 0xFFFFFFFF,
            captured, len(frame)))
        self._file.write(data + b"\x00" * pad)
        self._file.write(struct.pack("<I", total))
        self.packets_written += 1
