"""Directed link with finite rate, propagation delay and a drop-tail buffer.

The link models the access bottleneck of the paper's four measurement
networks.  A packet handed to :meth:`Link.transmit`:

1. is dropped if the (virtual) transmit queue already holds more than
   ``buffer_bytes``;
2. otherwise waits for the transmitter to become free, is serialized at
   ``rate_bps``, may be dropped by the configured :class:`LossModel`, and is
   finally delivered ``prop_delay`` seconds after serialization finishes.

The queue is *virtual*: instead of an explicit FIFO we track the time at
which the transmitter becomes idle, ``_busy_until``.  While the rate has
not changed since the oldest queued packet was enqueued, the backlog in
bytes at time ``t`` is exactly ``(busy_until - t) * rate / 8``; a small
per-packet deque prices the backlog at each packet's *enqueue-time* rate
when a mid-flight :meth:`set_rate` would otherwise misprice it.

Packet-train batching
---------------------

Back-to-back deliveries of an uninterrupted train are held in a deque
and only the head occupies the scheduler heap; each delivery posts the
next entry with a sequence number *reserved at transmit time*
(:meth:`EventScheduler.reserve_seq`), so the heap pops in bit-identical
order to scheduling every delivery individually — results stay
byte-identical while the heap stays shallow.  Loss models compose with
batching because drop decisions are made at transmit time in both
paths: a dropped packet simply never joins the train, consuming neither
a scheduler event nor a sequence number, exactly like the unbatched
path.  Fault injectors flip ``up``/``rate`` but never touch scheduled
deliveries, so they are safe with batching too.  The module-level
:data:`BATCH_DELIVERIES` switch turns the fast path off globally, which
the equivalence tests use to prove the two paths agree.

Vectorized packet trains
------------------------

Two further fast paths build on the train, both on whenever
:data:`BATCH_DELIVERIES` is and both covered by the same byte-identity
equivalence suite:

* **Burst enqueue** — :meth:`Link.transmit_train` accepts a whole burst
  of equal-size segments and computes their serialization finish times
  in one loop (the same left-to-right float recurrence as the scalar
  path, so the results are bit-equal).  Loss draws stay per-packet
  scalar calls so the RNG stream is untouched, and any burst that could
  hit the drop-tail check or a mixed-rate queue falls back to
  per-packet :meth:`transmit`.
* **Batched delivery** — :meth:`Link._deliver_train` processes a prefix
  of the train under a single scheduler event instead of re-posting one
  event per packet.  The batch stops strictly before the earliest *live
  cancellable* event in the heap (timers, monitor ticks, pacing pushes —
  their callbacks may observe state the batch mutates) and before the
  ``run_until`` horizon; plain tuple events are exclusively link
  deliveries, whose processing commutes with the batch.  Each delivery
  inside the batch runs at its exact reserved ``(time, seq)`` with the
  clock pinned to its timestamp, so captures and protocol state are
  byte-identical to one-event-per-packet stepping.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from .errors import ConfigurationError
from .loss import LossModel, NoLoss
from .scheduler import EventScheduler, _HANDLE

# A wire packet is anything exposing its on-the-wire size in bytes.
DeliverFn = Callable[[Any], None]
TapFn = Callable[[float, Any], None]

#: Global default for the packet-train fast paths: train delivery, burst
#: enqueue and batched delivery.  Tests flip this to prove trained and
#: scalar runs are byte-identical, and the CI fast-path gate disables it
#: (``REPRO_BATCH_DELIVERIES=0``) to time the scalar event-per-packet
#: reference path; there is no reason to disable it otherwise.
BATCH_DELIVERIES = os.environ.get("REPRO_BATCH_DELIVERIES", "1").lower() not in (
    "0", "false", "off")


class LinkStats:
    """Counters kept by each link."""

    __slots__ = (
        "packets_in",
        "packets_delivered",
        "packets_lost",
        "packets_dropped_queue",
        "packets_blackholed",
        "bytes_delivered",
    )

    def __init__(self) -> None:
        self.packets_in = 0
        self.packets_delivered = 0
        self.packets_lost = 0
        self.packets_dropped_queue = 0
        self.packets_blackholed = 0
        self.bytes_delivered = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinkStats({self.as_dict()!r})"


class Link:
    """One direction of a network path."""

    def __init__(
        self,
        scheduler: EventScheduler,
        rate_bps: float,
        prop_delay: float,
        *,
        buffer_bytes: int = 256 * 1024,
        loss_model: Optional[LossModel] = None,
        name: str = "link",
    ) -> None:
        if rate_bps <= 0:
            raise ConfigurationError(f"rate_bps must be positive, got {rate_bps!r}")
        if prop_delay < 0:
            raise ConfigurationError(f"prop_delay must be >= 0, got {prop_delay!r}")
        if buffer_bytes <= 0:
            raise ConfigurationError(f"buffer_bytes must be positive, got {buffer_bytes!r}")
        self.scheduler = scheduler
        self.rate_bps = float(rate_bps)
        self.base_rate_bps = float(rate_bps)
        self.prop_delay = float(prop_delay)
        self.buffer_bytes = int(buffer_bytes)
        self.loss_model = loss_model if loss_model is not None else NoLoss()
        self.name = name
        self.deliver: Optional[DeliverFn] = None
        self.stats = LinkStats()
        self.up = True
        self._busy_until = 0.0
        self._taps: List[TapFn] = []
        self._delivery_taps: List[TapFn] = []
        # Per-packet backlog accounting: (finish_time, size, rate, epoch).
        # The epoch stamps which set_rate() generation a packet was
        # enqueued under, so backlog_bytes() knows when the closed-form
        # virtual-queue formula is still exact.
        self._queue: Deque[Tuple[float, int, float, int]] = deque()
        self._queued_bytes = 0
        self._rate_epoch = 0
        # Delivery train: (deliver_at, reserved_seq, packet).  Only the
        # head entry occupies the scheduler heap.
        self._train: Deque[Tuple[float, int, Any]] = deque()
        self._batch = BATCH_DELIVERIES
        # True while _deliver_train() is draining the train: a transmit
        # re-entering this link then must not post a head event (the
        # batch posts exactly one for whatever remains when it ends).
        self._in_batch = False
        # Monomorphic receiver cache for the inline fast paths: the last
        # flow key seen and its connection's _fast_inorder_data /
        # _fast_pure_ack (None when the receiver has no fast path).  A
        # stale entry is harmless — the fast paths' own guards reject
        # closed connections and the generic demux then takes over.
        self._fast_key = None
        self._fast_data_fn = None
        self._fast_ack_fn = None
        self._fast_conn = None
        scheduler.add_quiescence_probe(self.quiescent)

    # -- fault state --------------------------------------------------------

    def set_up(self, up: bool) -> None:
        """Bring the link up or down.  A down link blackholes every packet
        handed to it (link outage / flap): the sender learns nothing, which
        is exactly what TCP sees when a last-mile link dies."""
        self.up = bool(up)

    def set_rate(self, rate_bps: float) -> None:
        """Change the serialization rate (temporary bandwidth degradation)."""
        if rate_bps <= 0:
            raise ConfigurationError(f"rate_bps must be positive, got {rate_bps!r}")
        self.rate_bps = float(rate_bps)
        self._rate_epoch += 1

    def reset(self) -> None:
        """Restore fault-free initial state for reuse across runs.

        Clears the loss model's internal state (burst position, packet
        index), brings the link back up, restores the nominal rate and
        abandons any in-flight delivery train (its pending scheduler
        event, if any, belongs to the previous run's scheduler), so
        repeated sessions on one topology see identical loss processes.
        """
        self.loss_model.reset()
        self.up = True
        self.rate_bps = self.base_rate_bps
        self._rate_epoch += 1
        self._train.clear()
        self._in_batch = False
        self._fast_key = None
        self._fast_data_fn = None
        self._fast_ack_fn = None
        self._fast_conn = None

    # -- wiring -------------------------------------------------------------

    def connect(self, deliver: DeliverFn) -> None:
        """Set the far-end delivery callback."""
        self.deliver = deliver

    def add_tap(self, tap: TapFn) -> None:
        """Register a sender-side sniffer: ``tap(send_time, packet)`` fires
        for every packet that survives the queue, including ones later lost
        downstream (what a capture box at the transmitter sees)."""
        self._taps.append(tap)

    def add_delivery_tap(self, tap: TapFn) -> None:
        """Register a receiver-side sniffer: ``tap(arrival_time, packet)``
        fires only for packets actually delivered (what tcpdump at the far
        end of the link sees — lost packets never appear)."""
        self._delivery_taps.append(tap)

    # -- quiescence ---------------------------------------------------------

    def quiescent(self, until: float) -> bool:
        """Quiescence probe for the scheduler's OFF-period fast-forward.

        The link is provably idle only when no delivery train is pending
        and the transmitter has finished serializing: a packet in flight
        means the window ``(now, until)`` is not an OFF period, so the
        fast-forward must refuse it (its delivery event still fires at
        the exact scheduled time either way — refusal costs nothing but
        the accounting).
        """
        if self._train:
            return False
        return self._busy_until <= self.scheduler.clock._now

    # -- queue state --------------------------------------------------------

    def backlog_bytes(self, now: Optional[float] = None) -> float:
        """Bytes currently queued (including the packet in serialization).

        Each queued packet is priced at the rate in force when it was
        *enqueued*: after a mid-flight :meth:`set_rate` degradation the
        already-queued bytes do not shrink just because the conversion
        factor changed.  When the rate has not changed since the oldest
        queued packet, this reduces to the exact closed-form
        ``(busy_until - t) * rate / 8``.
        """
        t = self.scheduler.clock.now() if now is None else now
        queue = self._queue
        while queue and queue[0][0] <= t:
            self._queued_bytes -= queue.popleft()[1]
        if not queue:
            return 0.0
        head_finish, head_size, head_rate, head_epoch = queue[0]
        if head_epoch == self._rate_epoch:
            # Rate unchanged since the oldest queued packet: use the
            # historical closed-form arithmetic (bit-for-bit).
            return max(0.0, self._busy_until - t) * self.rate_bps / 8.0
        # Mixed-rate queue: whole bytes of every queued packet, minus the
        # part of the head already serialized at the head's own rate.
        backlog = float(self._queued_bytes)
        head_start = head_finish - head_size * 8.0 / head_rate
        if t > head_start:
            backlog -= (t - head_start) * head_rate / 8.0
        return max(0.0, backlog)

    def serialization_delay(self, size_bytes: int) -> float:
        return size_bytes * 8.0 / self.rate_bps

    # -- transmission -------------------------------------------------------

    def transmit(self, packet: Any) -> bool:
        """Enqueue ``packet`` for transmission.

        Returns ``True`` if accepted, ``False`` if dropped at the queue.
        ``packet`` must expose ``wire_size`` (bytes on the wire).
        """
        if self.deliver is None:
            raise ConfigurationError(f"link {self.name!r} has no delivery callback")
        scheduler = self.scheduler
        now = scheduler.clock._now
        stats = self.stats
        stats.packets_in += 1
        if not self.up:
            stats.packets_blackholed += 1
            return True  # swallowed by the outage; the sender cannot tell
        size = packet.wire_size
        # drop-tail check, inlining backlog_bytes() (one call per packet)
        queue = self._queue
        while queue and queue[0][0] <= now:
            self._queued_bytes -= queue.popleft()[1]
        if queue:
            head = queue[0]
            if head[3] == self._rate_epoch:
                backlog = max(0.0, self._busy_until - now) * self.rate_bps / 8.0
            else:
                backlog = float(self._queued_bytes)
                head_start = head[0] - head[1] * 8.0 / head[2]
                if now > head_start:
                    backlog -= (now - head_start) * head[2] / 8.0
                backlog = max(0.0, backlog)
            if backlog + size > self.buffer_bytes:
                stats.packets_dropped_queue += 1
                return False
        elif size > self.buffer_bytes:
            stats.packets_dropped_queue += 1
            return False
        busy = self._busy_until
        start = busy if busy > now else now
        rate = self.rate_bps
        finish = start + size * 8.0 / rate
        self._busy_until = finish
        queue.append((finish, size, rate, self._rate_epoch))
        self._queued_bytes += size
        if self._taps:
            send_time = finish  # moment the last bit leaves the sender
            for tap in self._taps:
                tap(send_time, packet)
        if self._batch:
            # Drop decisions are made here, at transmit time, exactly as
            # the unbatched path does — RNG draw order, the drop set and
            # the surviving packets' reserved seqs are all unchanged.
            loss_model = self.loss_model
            if type(loss_model) is not NoLoss and loss_model.should_drop():
                stats.packets_lost += 1
                return True  # consumed link capacity, vanished downstream
            # Reserve the delivery's tie-break seq now, but only keep the
            # train's head in the scheduler heap.
            train = self._train
            train.append((finish + self.prop_delay, scheduler.reserve_seq(), packet))
            if len(train) == 1 and not self._in_batch:
                scheduler.post(train[0][0], train[0][1], self._deliver_next)
            return True
        if self.loss_model.should_drop():
            stats.packets_lost += 1
            return True  # consumed link capacity, then vanished downstream
        scheduler.call_at(finish + self.prop_delay, self._deliver, packet)
        return True

    def transmit_train(self, packets: List[Any]) -> None:
        """Enqueue a burst of equal-size packets in one pass.

        Byte-identical to calling :meth:`transmit` once per packet: the
        serialization finish times follow the same float recurrence,
        loss draws stay per-packet scalar calls in the same RNG order,
        and sequence numbers are reserved packet by packet.  Bursts that
        could differ from the scalar path — drop-tail pressure, a
        mixed-rate queue after ``set_rate``, a down link — fall back to
        per-packet :meth:`transmit`.  Part of the train path: only valid
        on a link with batching on.
        """
        n = len(packets)
        if n == 0:
            return
        if self.deliver is None:
            raise ConfigurationError(f"link {self.name!r} has no delivery callback")
        scheduler = self.scheduler
        now = scheduler.clock._now
        stats = self.stats
        if not self.up:
            stats.packets_in += n
            stats.packets_blackholed += n
            return
        size = packets[0].wire_size
        queue = self._queue
        while queue and queue[0][0] <= now:
            self._queued_bytes -= queue.popleft()[1]
        rate = self.rate_bps
        busy = self._busy_until
        start = busy if busy > now else now
        delta = size * 8.0 / rate
        # The backlog the drop-tail check sees is largest just before the
        # final packet; if even that fits (at the uniform current rate),
        # no per-packet drop decision can differ from the scalar path.
        worst = (start + (n - 1) * delta - now) * rate / 8.0
        if (
            (queue and queue[0][3] != self._rate_epoch)
            or worst + size > self.buffer_bytes
        ):
            for packet in packets:
                self.transmit(packet)
            return
        stats.packets_in += n
        finish_list = []
        f = start
        for _ in range(n):
            f = f + delta
            finish_list.append(f)
        self._busy_until = finish_list[-1]
        self._queued_bytes += size * n
        epoch = self._rate_epoch
        qappend = queue.append
        taps = self._taps
        loss_model = self.loss_model
        draw = None if type(loss_model) is NoLoss else loss_model.should_drop
        train = self._train
        tappend = train.append
        reserve = scheduler.reserve_seq
        prop = self.prop_delay
        for i in range(n):
            packet = packets[i]
            finish = finish_list[i]
            qappend((finish, size, rate, epoch))
            if taps:
                for tap in taps:
                    tap(finish, packet)
            if draw is not None and draw():
                stats.packets_lost += 1
                continue
            tappend((finish + prop, reserve(), packet))
            if len(train) == 1 and not self._in_batch:
                scheduler.post(train[0][0], train[0][1], self._deliver_next)

    def _resolve_fast(self, packet: Any) -> None:
        """(Re)fill the monomorphic receiver cache for ``packet``'s flow.

        Resolves the registered handler exactly like
        :meth:`Host.deliver_segment` and caches the owning connection's
        ``_fast_inorder_data`` / ``_fast_pure_ack`` (or ``None`` for
        receivers without them).
        """
        key = (packet.dst_port, packet.src_ip, packet.src_port)
        conns = getattr(getattr(self.deliver, "__self__", None),
                        "_connections", None)
        conn = None
        data_fn = None
        ack_fn = None
        if conns is not None:
            handler = conns.get(key)
            if handler is None:
                # Flow not registered (yet) — a SYN racing its
                # connection's registration, say.  Don't cache the
                # negative: the very next packet may find it.
                self._fast_key = None
                self._fast_data_fn = None
                self._fast_ack_fn = None
                self._fast_conn = None
                return
            conn = getattr(handler, "__self__", None)
            data_fn = getattr(conn, "_fast_inorder_data", None)
            ack_fn = getattr(conn, "_fast_pure_ack", None)
        self._fast_key = key
        self._fast_data_fn = data_fn
        self._fast_ack_fn = ack_fn
        self._fast_conn = conn

    def _deliver_next(self) -> None:
        """Deliver the train's head and re-post the next reserved entry.

        The body of :meth:`_deliver` is inlined here — this runs once per
        delivered packet on the loss-free fast path.  Multi-entry trains
        are drained in one event by :meth:`_deliver_train`, and even
        single deliveries try the receiver's inline in-order fast path —
        pure inlining of the demux + receive chain, with no event
        reordering involved.
        """
        train = self._train
        if len(train) > 1:
            self._deliver_train()
            return
        _t, _seq, packet = train.popleft()
        if train:
            nxt = train[0]
            self.scheduler.post(nxt[0], nxt[1], self._deliver_next)
        stats = self.stats
        stats.packets_delivered += 1
        stats.bytes_delivered += packet.wire_size
        if self._delivery_taps:
            now = self.scheduler.clock._now
            for tap in self._delivery_taps:
                tap(now, packet)
        # duck-typed: only TCP-segment-shaped packets (flow 4-tuple plus
        # payload length) can take the inline receive path
        try:
            key = (packet.dst_port, packet.src_ip, packet.src_port)
            plen = packet.payload_len
        except AttributeError:
            key = None
        if key is not None:
            if key != self._fast_key:
                self._resolve_fast(packet)
            fn = self._fast_data_fn if plen else self._fast_ack_fn
            if fn is not None and fn(packet):
                packet.release()
                return
        self.deliver(packet)
        # The receiver is done with the segment (processing is synchronous
        # and the columnar taps copy fields out); pooled segments can be
        # recycled for the sender's next build.
        if getattr(packet, "poolable", False):
            packet.release()

    def _deliver_train(self) -> None:
        """Deliver a train prefix under the single already-fired head event.

        Each entry runs at its exact reserved ``(time, seq)`` with the
        clock pinned to its timestamp, so everything it computes or
        records is bit-equal to one-event-per-packet stepping.  The
        batch must stop strictly before the earliest *live cancellable*
        heap event — timers, monitor ticks and pacing pushes may observe
        state (player bytes, delivery counters) the batch mutates —
        and before the ``run_until`` horizon.  Plain tuple events are
        exclusively link-delivery posts, whose processing commutes with
        the batch: the segments they carry were fully built at transmit
        time and the states they touch are disjoint.  Delayed-ACK timers
        armed *by* the batch tighten the bound as they appear; a
        delivery that needs the generic receive path ends the batch (its
        processing may arm arbitrary timers).  Afterwards the clock is
        restored to the head event's time: the remaining heap events
        re-pin it as they fire, and restoring keeps it below every
        remaining entry so strict-monotonic stepping stays valid.
        """
        scheduler = self.scheduler
        train = self._train
        t0 = train[0][0]
        bound_t = scheduler._horizon
        if bound_t < t0:
            bound_t = t0
        bound_seq = float("inf")  # horizon bound is time-only
        for entry in scheduler._heap:
            if entry[3] is _HANDLE and entry[2].callback is not None:
                if entry[0] < bound_t or (
                    entry[0] == bound_t and entry[1] < bound_seq
                ):
                    bound_t = entry[0]
                    bound_seq = entry[1]
        clock = scheduler.clock
        stats = self.stats
        taps = self._delivery_taps
        tap1 = taps[0] if len(taps) == 1 else None
        deliver = self.deliver
        # Flow key and fast fns unpacked into locals: the loop below runs
        # once per delivered packet, and comparing fields beats building
        # a tuple per packet.  Delivery counters accumulate in locals and
        # flush after the batch — nothing inside a batch reads link stats.
        key = self._fast_key
        key0, key1, key2 = key if key is not None else (None, None, None)
        data_fn = self._fast_data_fn
        ack_fn = self._fast_ack_fn
        n_delivered = 0
        n_bytes = 0
        self._in_batch = True
        try:
            while True:
                t, _seq, packet = train.popleft()
                clock._now = t
                n_delivered += 1
                n_bytes += packet.wire_size
                if tap1 is not None:
                    tap1(t, packet)
                elif taps:
                    for tap in taps:
                        tap(t, packet)
                try:
                    dst_port = packet.dst_port
                    src_ip = packet.src_ip
                    src_port = packet.src_port
                    plen = packet.payload_len
                except AttributeError:
                    # not TCP-segment-shaped: no inline path for it
                    deliver(packet)
                    if getattr(packet, "poolable", False):
                        packet.release()
                    break
                if (dst_port != key0 or src_ip != key1
                        or src_port != key2):
                    self._resolve_fast(packet)
                    key = self._fast_key
                    key0, key1, key2 = key if key is not None else (
                        None, None, None)
                    data_fn = self._fast_data_fn
                    ack_fn = self._fast_ack_fn
                fn = data_fn if plen else ack_fn
                if fn is None:
                    handled = 0
                else:
                    handled = fn(packet)
                if not handled:
                    deliver(packet)
                    if getattr(packet, "poolable", False):
                        packet.release()
                    break  # generic processing may have armed arbitrary timers
                packet.release()
                if handled == 2:
                    # A timer armed *by* the fast delivery tightens the
                    # bound: the data path can arm only the delayed-ACK
                    # timer, the pure-ACK path only the retransmit and
                    # persist timers (via the _try_send it triggers).
                    conn = self._fast_conn
                    if plen:
                        timers = (conn._delack_timer,)
                    else:
                        timers = (conn._rexmit_timer, conn._persist_timer)
                    for timer in timers:
                        if timer is not None and timer.callback is not None:
                            if timer.time < bound_t or (
                                timer.time == bound_t and timer.seq < bound_seq
                            ):
                                bound_t = timer.time
                                bound_seq = timer.seq
                if not train:
                    break
                nxt = train[0]
                if nxt[0] > bound_t or (nxt[0] == bound_t and nxt[1] >= bound_seq):
                    break
        finally:
            self._in_batch = False
            stats.packets_delivered += n_delivered
            stats.bytes_delivered += n_bytes
        if train:
            nxt = train[0]
            scheduler.post(nxt[0], nxt[1], self._deliver_next)
        clock._now = t0

    def _deliver(self, packet: Any) -> None:
        stats = self.stats
        stats.packets_delivered += 1
        stats.bytes_delivered += int(packet.wire_size)
        if self._delivery_taps:
            now = self.scheduler.clock.now()
            for tap in self._delivery_taps:
                tap(now, packet)
        self.deliver(packet)
        if getattr(packet, "poolable", False):
            packet.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link(name={self.name!r}, rate={self.rate_bps / 1e6:.1f}Mbps, "
            f"delay={self.prop_delay * 1e3:.1f}ms)"
        )
