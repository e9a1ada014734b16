"""Receive-side buffering: in-order queue, out-of-order store, window math.

The receive buffer is where the paper's client-side throttling lives: a
player that stops reading lets the buffer fill, the advertised window
shrinks to zero, and the server stalls — exactly the receive-window
oscillation of Figures 2(b) and 6(a).

``window = capacity - unread_in_order - out_of_order_held``; reading frees
space and re-opens the window.

Out-of-order segments are held by start offset, with a min-heap of those
starts beside them: a hole that is still open costs one comparison per
arrival, and each segment the hole-fill releases costs one heap pop.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Deque, Dict, List, Optional, Tuple


class ReceiveBuffer:
    """Reassembly buffer for one connection."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.capacity = capacity
        self.rcv_nxt = 0                 # next expected stream offset
        self._inorder: Deque[Tuple[int, Optional[bytes]]] = deque()
        self._unread = 0                 # bytes readable by the application
        self._ooo: Dict[int, Tuple[int, Optional[bytes]]] = {}
        self._ooo_starts: List[int] = []  # min-heap of the keys of _ooo
        self._ooo_bytes = 0
        self.total_delivered = 0         # in-order bytes ever made readable
        self._right_edge = capacity      # highest promised rcv_nxt + window

    def set_rcv_nxt(self, offset: int) -> None:
        """Initialize the expected offset (after SYN consumes one number)."""
        self.rcv_nxt = offset
        self._right_edge = offset + self.capacity

    # -- window -------------------------------------------------------------

    @property
    def unread(self) -> int:
        return self._unread

    @property
    def ooo_bytes(self) -> int:
        return self._ooo_bytes

    @property
    def window(self) -> int:
        """Advertisable receive window in bytes.

        RFC 793 forbids moving the window's right edge (``rcv_nxt +
        window``) leftwards: data the peer was already promised space for
        must remain acceptable even as out-of-order bytes accumulate.  The
        raw free space is therefore clamped so the right edge is monotone.
        """
        raw = max(0, self.capacity - self._unread - self._ooo_bytes)
        if self.rcv_nxt + raw > self._right_edge:
            self._right_edge = self.rcv_nxt + raw
        return self._right_edge - self.rcv_nxt

    # -- segment arrival ----------------------------------------------------

    def offer(self, seq: int, length: int, payload: Optional[bytes]) -> int:
        """Offer segment data ``[seq, seq+length)`` to the buffer.

        Returns the number of *new in-order* bytes made readable (possibly
        including drained out-of-order data).  Data beyond the window is
        dropped; duplicates and overlaps are trimmed.
        """
        if length == 0:
            return 0
        rcv_nxt = self.rcv_nxt
        end = seq + length
        if end <= rcv_nxt:
            return 0  # complete duplicate
        # window right edge, inlining the ``window`` property (this runs
        # once per delivered data segment)
        raw = self.capacity - self._unread - self._ooo_bytes
        window_end = rcv_nxt + raw
        if window_end > self._right_edge:
            self._right_edge = window_end
        else:
            window_end = self._right_edge
        if seq >= window_end:
            return 0  # entirely beyond the advertised window
        # trim to window
        if end > window_end:
            if payload is not None:
                payload = payload[: window_end - seq]
            end = window_end
            length = end - seq
        if seq > rcv_nxt:
            self._store_ooo(seq, length, payload)
            return 0
        # overlaps rcv_nxt: trim the stale prefix
        if seq < rcv_nxt:
            skip = rcv_nxt - seq
            if payload is not None:
                payload = payload[skip:]
            seq = rcv_nxt
            length = end - seq
        delivered = self._append_inorder(length, payload)
        if self._ooo:
            delivered += self._drain_ooo()
        return delivered

    def _append_inorder(self, length: int, payload: Optional[bytes]) -> int:
        self._inorder.append((length, payload))
        self._unread += length
        self.rcv_nxt += length
        self.total_delivered += length
        return length

    def _store_ooo(self, seq: int, length: int, payload: Optional[bytes]) -> None:
        existing = self._ooo.get(seq)
        if existing is None:
            heappush(self._ooo_starts, seq)
        elif existing[0] >= length:
            return  # duplicate out-of-order segment
        else:
            self._ooo_bytes -= existing[0]
        self._ooo[seq] = (length, payload)
        self._ooo_bytes += length

    def _drain_ooo(self) -> int:
        """Move now-contiguous out-of-order segments into the in-order queue.

        Held segments leave in start order.  While the lowest start is at
        or below ``rcv_nxt`` that segment either covers ``rcv_nxt`` (its
        new tail is delivered) or ends at or below it (stale, dropped);
        a lowest start beyond ``rcv_nxt`` means the hole is still open.
        """
        ooo = self._ooo
        starts = self._ooo_starts
        delivered = 0
        while starts and starts[0] <= self.rcv_nxt:
            seq = heappop(starts)
            length, payload = ooo.pop(seq)
            self._ooo_bytes -= length
            end = seq + length
            rcv_nxt = self.rcv_nxt
            if end <= rcv_nxt:
                continue  # stale
            if seq < rcv_nxt:
                if payload is not None:
                    payload = payload[rcv_nxt - seq:]
                length = end - rcv_nxt
            delivered += self._append_inorder(length, payload)
        return delivered

    @property
    def has_gap(self) -> bool:
        """True when out-of-order data is being held (a hole exists)."""
        return bool(self._ooo)

    # -- application reads --------------------------------------------------

    def read(self, max_bytes: int) -> bytes:
        """Read up to ``max_bytes`` as real bytes (virtual regions zero-fill)."""
        parts: List[bytes] = []
        remaining = max_bytes
        while remaining > 0 and self._inorder:
            length, payload = self._inorder[0]
            take = min(length, remaining)
            if payload is None:
                parts.append(bytes(take))
            else:
                parts.append(payload[:take])
            if take == length:
                self._inorder.popleft()
            else:
                rest = None if payload is None else payload[take:]
                self._inorder[0] = (length - take, rest)
            self._unread -= take
            remaining -= take
        return b"".join(parts)

    def read_discard(self, max_bytes: int) -> int:
        """Consume up to ``max_bytes`` without materializing content."""
        consumed = 0
        remaining = max_bytes
        while remaining > 0 and self._inorder:
            length, payload = self._inorder[0]
            take = min(length, remaining)
            if take == length:
                self._inorder.popleft()
            else:
                rest = None if payload is None else payload[take:]
                self._inorder[0] = (length - take, rest)
            self._unread -= take
            remaining -= take
            consumed += take
        return consumed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReceiveBuffer(rcv_nxt={self.rcv_nxt}, unread={self._unread}, "
            f"ooo={self._ooo_bytes}, window={self.window})"
        )
