"""Tests for the receive buffer: reassembly, windows, right-edge rule."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp import ReceiveBuffer


class TestInOrderDelivery:
    def test_sequential_segments(self):
        buf = ReceiveBuffer(1000)
        assert buf.offer(0, 100, b"a" * 100) == 100
        assert buf.offer(100, 100, b"b" * 100) == 100
        assert buf.rcv_nxt == 200
        assert buf.unread == 200

    def test_read_returns_bytes_in_order(self):
        buf = ReceiveBuffer(1000)
        buf.offer(0, 3, b"abc")
        buf.offer(3, 3, b"def")
        assert buf.read(4) == b"abcd"
        assert buf.read(10) == b"ef"

    def test_virtual_payload_reads_as_zeros(self):
        buf = ReceiveBuffer(1000)
        buf.offer(0, 5, None)
        assert buf.read(5) == b"\x00" * 5

    def test_read_discard_counts_without_materializing(self):
        buf = ReceiveBuffer(1000)
        buf.offer(0, 500, None)
        assert buf.read_discard(200) == 200
        assert buf.unread == 300

    def test_zero_length_offer(self):
        buf = ReceiveBuffer(1000)
        assert buf.offer(0, 0, b"") == 0

    def test_duplicate_segment_ignored(self):
        buf = ReceiveBuffer(1000)
        buf.offer(0, 100, None)
        assert buf.offer(0, 100, None) == 0
        assert buf.rcv_nxt == 100

    def test_partial_overlap_trims_stale_prefix(self):
        buf = ReceiveBuffer(1000)
        buf.offer(0, 100, b"x" * 100)
        delivered = buf.offer(50, 100, b"y" * 100)
        assert delivered == 50
        assert buf.rcv_nxt == 150
        assert buf.read(150) == b"x" * 100 + b"y" * 50


class TestOutOfOrder:
    def test_gap_holds_data(self):
        buf = ReceiveBuffer(1000)
        assert buf.offer(100, 100, None) == 0
        assert buf.has_gap
        assert buf.ooo_bytes == 100
        assert buf.rcv_nxt == 0

    def test_gap_fill_drains_held_data(self):
        buf = ReceiveBuffer(1000)
        buf.offer(100, 100, b"B" * 100)
        delivered = buf.offer(0, 100, b"A" * 100)
        assert delivered == 200
        assert not buf.has_gap
        assert buf.read(200) == b"A" * 100 + b"B" * 100

    def test_multiple_holes_drain_progressively(self):
        buf = ReceiveBuffer(10000)
        buf.offer(200, 100, None)
        buf.offer(400, 100, None)
        assert buf.offer(0, 200, None) == 300  # drains first held block
        assert buf.rcv_nxt == 300
        assert buf.offer(300, 100, None) == 200
        assert buf.rcv_nxt == 500

    def test_duplicate_ooo_not_double_counted(self):
        buf = ReceiveBuffer(1000)
        buf.offer(100, 100, None)
        buf.offer(100, 100, None)
        assert buf.ooo_bytes == 100

    def test_ooo_overlapping_delivery_point_trimmed_on_drain(self):
        buf = ReceiveBuffer(1000)
        buf.offer(50, 100, b"B" * 100)   # held
        buf.offer(0, 100, b"A" * 100)    # fills through 100; held chunk
        # overlaps [50,150): only [100,150) is new
        assert buf.rcv_nxt == 150
        assert buf.read(150) == b"A" * 100 + b"B" * 50


class TestWindow:
    def test_initial_window_is_capacity(self):
        assert ReceiveBuffer(4096).window == 4096

    def test_unread_data_shrinks_window(self):
        buf = ReceiveBuffer(1000)
        buf.offer(0, 400, None)
        assert buf.window == 600

    def test_reading_restores_window(self):
        buf = ReceiveBuffer(1000)
        buf.offer(0, 400, None)
        buf.read_discard(400)
        assert buf.window == 1000

    def test_window_zero_when_full(self):
        buf = ReceiveBuffer(1000)
        buf.offer(0, 1000, None)
        assert buf.window == 0

    def test_right_edge_never_retreats(self):
        """RFC 793: out-of-order data must not revoke promised space."""
        buf = ReceiveBuffer(1000)
        # gap at [0, 100); peer was promised the full 1000 bytes
        for seq in range(100, 1000, 100):
            assert buf.offer(seq, 100, None) == 0
        # all promised bytes were held, none rejected
        assert buf.ooo_bytes == 900
        # the hole itself must still be acceptable
        assert buf.offer(0, 100, None) == 1000

    def test_offer_beyond_right_edge_rejected(self):
        buf = ReceiveBuffer(1000)
        assert buf.offer(1000, 100, None) == 0
        assert buf.ooo_bytes == 0

    def test_offer_straddling_right_edge_trimmed(self):
        buf = ReceiveBuffer(1000)
        delivered = buf.offer(0, 1200, None)
        assert delivered == 1000
        assert buf.rcv_nxt == 1000

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ReceiveBuffer(0)


class TestTotals:
    def test_total_delivered_accumulates(self):
        buf = ReceiveBuffer(1000)
        buf.offer(0, 100, None)
        buf.read_discard(100)
        buf.offer(100, 200, None)
        assert buf.total_delivered == 300


# -- property-based reassembly test -------------------------------------------


@st.composite
def segment_plan(draw):
    """A shuffled segmentation of a contiguous byte stream."""
    total = draw(st.integers(min_value=1, max_value=400))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=max(1, total - 1)),
                max_size=8,
                unique=True,
            )
        )
    )
    cuts = [0] + [c for c in cuts if c < total] + [total]
    segments = [(cuts[i], cuts[i + 1] - cuts[i]) for i in range(len(cuts) - 1)]
    order = draw(st.permutations(segments))
    return total, list(order)


class TestReassemblyProperties:
    @settings(max_examples=200)
    @given(segment_plan())
    def test_any_arrival_order_reassembles_exactly(self, plan):
        total, segments = plan
        payload = bytes(range(256)) * (total // 256 + 1)
        buf = ReceiveBuffer(4096)
        for seq, length in segments:
            buf.offer(seq, length, payload[seq : seq + length])
            # re-offer duplicates to exercise dedup paths
            buf.offer(seq, length, payload[seq : seq + length])
        assert buf.rcv_nxt == total
        assert not buf.has_gap
        assert buf.read(total) == payload[:total]

    @settings(max_examples=100)
    @given(segment_plan())
    def test_conservation_no_bytes_invented(self, plan):
        total, segments = plan
        buf = ReceiveBuffer(4096)
        delivered = 0
        for seq, length in segments:
            delivered += buf.offer(seq, length, None)
        assert delivered == total
        assert buf.unread == total


# -- differential test against the dict-scan reassembly -----------------------


class _DictScanBuffer(ReceiveBuffer):
    """Oracle: the reassembly the min-start heap replaced.

    Held segments live in one dict, and every drain scans it in insertion
    order for a segment covering ``rcv_nxt`` or lying wholly below it.
    """

    def _store_ooo(self, seq, length, payload):
        existing = self._ooo.get(seq)
        if existing is not None and existing[0] >= length:
            return  # duplicate out-of-order segment
        if existing is not None:
            self._ooo_bytes -= existing[0]
        self._ooo[seq] = (length, payload)
        self._ooo_bytes += length

    def _drain_ooo(self):
        delivered = 0
        while self._ooo:
            # find a stored segment covering rcv_nxt
            hit = None
            for seq, (length, payload) in self._ooo.items():
                if seq <= self.rcv_nxt < seq + length:
                    hit = seq
                    break
                if seq + length <= self.rcv_nxt:
                    hit = seq  # fully stale; discard below
                    break
            if hit is None:
                break
            length, payload = self._ooo.pop(hit)
            self._ooo_bytes -= length
            end = hit + length
            if end <= self.rcv_nxt:
                continue  # stale
            if hit < self.rcv_nxt:
                skip = self.rcv_nxt - hit
                if payload is not None:
                    payload = payload[skip:]
                length = end - self.rcv_nxt
            delivered += self._append_inorder(length, payload)
        return delivered


def _stream_bytes(start, end):
    """The stream's content: real bytes in every third 256-byte block,
    zeros (virtual body) elsewhere."""
    return bytes(
        (i * 131) % 251 + 1 if (i // 256) % 3 == 0 else 0
        for i in range(start, end)
    )


def _payload(seq, length, virtual):
    """What a sender's ``StreamBuffer.read_range`` hands the segment:
    ``None`` only when the whole range is virtual."""
    content = _stream_bytes(seq, seq + length)
    if virtual and not any(content):
        return None
    return content


# Offsets are drawn relative to the oracle's rcv_nxt when the step runs, so
# every sequence mixes stale, overlapping, in-order, held and beyond-window
# segments.  "Free" segments have arbitrary starts and lengths; "aligned"
# ones sit on a 100-byte grid, like MSS-sized segments, so they abut
# exactly and collide on duplicate starts.
_offer = st.one_of(
    st.tuples(st.just("free"), st.integers(-300, 900), st.integers(1, 300),
              st.booleans()),
    st.tuples(st.just("aligned"), st.integers(-3, 8), st.integers(1, 3),
              st.booleans()),
)
_read = st.tuples(st.sampled_from(["read", "read_discard"]),
                  st.integers(0, 900))


def _segment(step, rcv_nxt):
    """``(seq, length)`` of an offer step, given the current rcv_nxt."""
    mode, a, b, _virtual = step
    if mode == "free":
        return max(0, rcv_nxt + a), b
    return 100 * max(0, rcv_nxt // 100 + a), 100 * b


class TestDifferentialAgainstDictScan:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(capacity=st.integers(100, 2000),
           steps=st.lists(st.one_of(_offer, _offer, _offer, _read),
                          min_size=10, max_size=120))
    def test_matches_dict_scan_reassembly(self, capacity, steps):
        buf = ReceiveBuffer(capacity)
        oracle = _DictScanBuffer(capacity)
        for step in steps:
            if step[0] in ("free", "aligned"):
                seq, length = _segment(step, oracle.rcv_nxt)
                payload = _payload(seq, length, step[3])
                assert (buf.offer(seq, length, payload)
                        == oracle.offer(seq, length, payload)), step
            else:
                op, n = step
                assert (getattr(buf, op)(n)
                        == getattr(oracle, op)(n)), step
            assert buf.rcv_nxt == oracle.rcv_nxt
            assert buf.window == oracle.window
            assert buf.ooo_bytes == oracle.ooo_bytes
            assert buf.unread == oracle.unread
            assert buf.total_delivered == oracle.total_delivered
            assert buf.has_gap == oracle.has_gap
        # everything still readable comes out identical too
        assert buf.read(buf.unread) == oracle.read(oracle.unread)
