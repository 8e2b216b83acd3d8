"""Cache nodes as real networked servers: one TCP wire stack, both ends.

The paper deploys cache nodes as standalone servers that application servers
reach over a gigabit LAN.  This module provides that topology for the
reproduction, as one stack:

* :class:`CacheServerProcess` serves one :class:`CacheServer` over TCP from
  one ``selectors`` loop thread, and nothing else: sockets are
  non-blocking, and every frame is served in the event that read it, in
  arrival order.  No op holds the loop for long, because the ones that walk
  the store serve one bounded page per frame
  (:data:`repro.cache.server.SCAN_PAGE_KEYS`) and a batch frame carries at
  most :data:`repro.comm.wire.MAX_BATCH_ITEMS` items.  Per-connection backpressure
  bounds the requests in flight: a connection that reaches
  ``max_queued_per_connection`` stops being read until its replies drain.
* :class:`SocketTransport` is the client.  Any number of threads share one
  connection per node, each RPC under its own ``request_id``; a caller that
  finds the connection's *read lease* free reads its own reply off the
  socket, and the others wait on their slots while the lease holder reads
  for them.

The same server runs on a thread of this process (``transport="socket"``)
or in a child process (``transport="socket-process"``, see
:mod:`repro.cache.procnode`).

Wire protocol
-------------
A connection opens with one version byte (:data:`repro.comm.wire.WIRE_VERSION`);
the node closes a connection that opens with anything else.  Every frame
then carries a struct-packed ``(request_id, opcode, length)`` header
(``!QBI``); the opcode names the operation on requests and carries
``OP_OK``/``OP_ERR`` on responses.  Every body, request or reply, of every
op, has the one binary format of :mod:`repro.comm.wire` — a request's is
its argument tuple (:func:`repro.comm.wire.encode_binary_args`), a reply's
its result (:func:`repro.comm.wire.encode_binary_mux_frame`, and
:func:`repro.comm.wire.encode_lookup_reply` for ``multi_lookup``).  The
decoder builds only the shapes the format names: no bytes a peer sends can
make the node call anything.  Cached values are arbitrary Python objects
that must round-trip exactly, so they are pickled — once, by
:class:`SocketTransport`, into a :class:`~repro.cache.entry.ValueBlob` that
the server stores and returns without ever loading it.  Only the client
unpickles, and only the values it stored itself.  No path concatenates a
header onto a payload: frames are written as buffer vectors with
``sendmsg`` gather I/O (:func:`repro.comm.wire.send_buffers`), or as one
buffer whose header was packed into room left in front of the body.

``CacheServerProcess(simulated_latency_seconds=...)`` models the LAN round
trip of the paper's gigabit testbed by *delaying the response* on a timer
heap inside the loop, so a thousand in-flight modelled round trips cost
zero threads.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import select
import selectors
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.entry import CacheEntry, EntryRecord, LookupRequest, LookupResult, ValueBlob
from repro.cache.server import CacheServer, CacheServerStats
from repro.comm import wire
from repro.comm.multicast import InvalidationMessage
from repro.comm.wire import (
    OP_ERR,
    OP_OK,
    OPCODES,
    WIRE_VERSION,
    FrameAssembler,
    ResponseSlot,
)
from repro.comm.transport import CacheNodeUnreachableError, CacheTransportError
from repro.db.invalidation import InvalidationTag
from repro.interval import Interval

__all__ = [
    "CacheServerProcess",
    "SocketTransport",
    "DEFAULT_MAX_QUEUED_PER_CONNECTION",
]

#: Per-connection backpressure bound: a connection with this many requests
#: in flight stops being read until responses drain.
DEFAULT_MAX_QUEUED_PER_CONNECTION = 32

#: How much either end asks the kernel for per ``recv``.  ``recv`` allocates
#: its result at this size before shrinking it to what arrived, and from
#: 128 KiB up glibc may serve that with ``mmap``: the node's 256 KiB reads
#: cost it an mmap, an mremap, a munmap and a page fault per request (25 us
#: of an 85 us round trip, measured).  A larger frame just takes more reads.
_RECV_SIZE = 64 * 1024

_pack_header = wire.MUX_HEADER.pack


def _set_nodelay(sock: socket.socket) -> None:
    """Disable Nagle's algorithm (frames are tiny; latency matters)."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - non-TCP sockets in exotic setups
        pass


# ----------------------------------------------------------------------
# Server side
# ----------------------------------------------------------------------
def _serves(method: str):
    """An operation served by the :class:`CacheServer` method of that name.

    The method is looked up per request, not bound here: tests stall a
    live node by wrapping a method on its server object.
    """

    def serve(server: CacheServer, *args: object) -> object:
        return getattr(server, method)(*args)

    return serve


def _serve_invalidate_tags(server: CacheServer, batch: Sequence[tuple]) -> int:
    """The wire-delivered invalidation stream: ``(timestamp, tags)`` pairs.

    This is how out-of-process nodes subscribe to the InvalidationBus — the
    bus cannot call into another address space, so the guard ships the
    stream here instead.  Applied in order; returns the batch size.
    """
    for timestamp, tags in batch:
        server.process_invalidation(
            InvalidationMessage(timestamp=timestamp, tags=tuple(tags))
        )
    return len(batch)


_MULTI_LOOKUP = OPCODES["multi_lookup"]

#: What serves each opcode but ``multi_lookup`` (see
#: :meth:`CacheServerProcess._execute`), as ``serve(server, *args)``.
_SERVE_OPCODE = {
    OPCODES[op]: _serves(op)
    for op in (
        "put", "probe", "evict_stale", "reset_stats",
        "extract_entries", "install_entries", "discard_keys",
        "note_timestamp", "key_digest", "keys_in_range",
    )
}
_SERVE_OPCODE.update({
    # Two results cross as plain shapes the client rebuilds: the counters as
    # the fields of one consistent snapshot, each stored version as a tuple
    # of the CacheEntry fields, in order.
    OPCODES["stats"]: lambda server: dataclasses.asdict(server.stats_snapshot()),
    OPCODES["versions_of"]: lambda server, key: [
        (e.key, e.value, e.interval, e.tags, e.size)
        for e in server.versions_of(key)
    ],
    OPCODES["watermark"]: lambda server: server.last_invalidation_timestamp,
    OPCODES["ping"]: lambda server: server.name,
    OPCODES["invalidate_tags"]: _serve_invalidate_tags,
})


class _Connection:
    """Per-connection state of the node's event loop."""

    __slots__ = (
        "sock", "assembler", "pending", "outgoing", "in_flight", "paused", "closed",
        "want_write",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        #: Refuses the connection unless its first byte is the version byte.
        self.assembler = FrameAssembler(hello=WIRE_VERSION)
        #: Parsed frames parked behind the backpressure bound; empty while
        #: the connection is under it.
        self.pending: list = []
        #: Responses (each the list of its frame's buffers) not yet fully
        #: written: those the socket would not take, and held ones whose
        #: timer fired, waiting for this loop iteration's flush.  Replies to
        #: a read normally leave without ever being queued here.
        self.outgoing: list = []
        #: Requests served off this connection whose responses have not
        #: been fully written yet — the quantity backpressure bounds.
        self.in_flight = 0
        self.paused = False
        self.closed = False
        self.want_write = False


class CacheServerProcess:
    """One cache node served over TCP by one event-loop thread.

    Wraps a :class:`CacheServer` and exposes it at a TCP endpoint.  The
    wrapped server object remains reachable via :attr:`server` for tests and
    introspection, but live traffic goes through the socket.

    One thread owns the selector and does all of the node's work: it
    accepts, reads, cuts frames, serves them and writes the replies.  Every
    frame is answered **in the event that read it**, in arrival order:
    a read that brings one frame, with nothing parked, queued or held on
    its connection, is served and answered in ``_read`` itself; any other
    goes to ``_dispatch``, which executes each frame as the parser hands it
    over and writes all their replies with one ``sendmsg`` before the loop
    goes back to ``select``.  A frame that walks the store is one bounded page
    (:data:`repro.cache.server.SCAN_PAGE_KEYS` keys at most, whatever limit
    it asks for), and a batch of more than
    :data:`repro.comm.wire.MAX_BATCH_ITEMS` items is refused before it is
    decoded, so no frame holds the loop for long, and a node's replies
    come out in an order the thread scheduler cannot change.  Modelled
    latency is a timer heap inside the loop: a delayed response occupies no
    thread while it "travels".  Held responses, and whatever a full socket
    refused, wait in ``connection.outgoing`` for the loop's next flush,
    where every whole response a connection has waiting rides one
    ``sendmsg`` gather.

    Backpressure: when a connection's ``in_flight`` reaches
    ``max_queued_per_connection``, further frames are parked and its read
    interest is dropped — the kernel socket buffer then fills and the
    client's sends stall, which is TCP doing the flow control — and reading
    resumes once the backlog drains below the bound.  At a bound of 1 the
    node reads nothing more from a connection until its reply has drained.

    Counters, exact once :meth:`shutdown` has joined the loop:
    ``sendmsg_calls``, ``backpressure_pauses``, and
    ``max_in_flight_per_connection`` (the most requests any one connection
    had in flight at once).
    """

    #: Most buffers handed to one ``sendmsg`` (the kernel's limit is 1024).
    _MAX_GATHER = 256

    #: Longest error message a reply carries (an exception's text can quote
    #: a whole request body).
    _MAX_ERROR_CHARS = 4096

    def __init__(
        self,
        server: CacheServer,
        host: str = "127.0.0.1",
        port: int = 0,
        simulated_latency_seconds: float = 0.0,
        max_queued_per_connection: int = DEFAULT_MAX_QUEUED_PER_CONNECTION,
    ) -> None:
        if max_queued_per_connection < 1:
            raise ValueError("max_queued_per_connection must be positive")
        self.server = server
        self.simulated_latency_seconds = simulated_latency_seconds
        self._max_queued = max_queued_per_connection
        self._listener = socket.create_server((host, port))
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._running = True
        #: Connections given held responses since the last flush.
        self._dirty: set = set()
        self.sendmsg_calls = 0
        self.backpressure_pauses = 0
        self.max_in_flight_per_connection = 0
        self._selector = selectors.DefaultSelector()
        self._listener.setblocking(False)
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        #: Written once, by :meth:`shutdown`, to wake the loop from ``select``.
        self._wake_recv, self._wake_send = socket.socketpair()
        self._selector.register(self._wake_recv, selectors.EVENT_READ, None)
        #: (deliver_at, seq, connection, responses) — modelled-latency timers.
        self._timers: list = []
        self._timer_seq = itertools.count()
        self._thread = threading.Thread(
            target=self._run, name=f"cache-loop-{server.name}", daemon=True
        )
        self._thread.start()

    @property
    def running(self) -> bool:
        """True until :meth:`shutdown` is called."""
        return self._running

    # -- loop ------------------------------------------------------------
    def _run(self) -> None:
        try:
            while self._running:
                if self._dirty:
                    self._flush_dirty()
                if self._timers:
                    remaining = self._timers[0][0] - time.monotonic()
                    if remaining <= 0.0:
                        self._fire_timers()
                        continue
                    if remaining < 0.002:
                        # epoll rounds its timeout up to whole milliseconds,
                        # which would stretch a sub-millisecond modelled RTT
                        # to 1 ms+: poll for I/O, then park briefly.
                        events = self._selector.select(0)
                        if not events:
                            time.sleep(min(remaining, 2.5e-4))
                            continue
                    else:
                        events = self._selector.select(remaining)
                else:
                    events = self._selector.select(None)
                for key, mask in events:
                    connection = key.data
                    if connection is None:
                        # The listener, or the wakeup: the loop's own test
                        # of ``_running`` is all a wakeup needs.
                        if key.fileobj is self._listener:
                            self._accept()
                        continue
                    if mask & selectors.EVENT_WRITE:
                        self._drain(connection)
                    if mask & selectors.EVENT_READ and not connection.closed:
                        self._read(connection)
        finally:
            self._teardown()

    def _accept(self) -> None:
        while True:
            try:
                sock, _peer = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            _set_nodelay(sock)
            sock.setblocking(False)
            self._selector.register(sock, selectors.EVENT_READ, _Connection(sock))

    def _fire_timers(self) -> None:
        now = time.monotonic()
        while self._timers and self._timers[0][0] <= now:
            _at, _seq, connection, responses = heapq.heappop(self._timers)
            connection.outgoing.extend(responses)
            self._dirty.add(connection)

    # -- per-connection I/O ---------------------------------------------
    def _read(self, connection: _Connection) -> None:
        try:
            data = connection.sock.recv(_RECV_SIZE)
            # No data is EOF; a wrong version byte or an oversized header
            # cannot be resynced.
            frames = connection.assembler.feed(data) if data else None
        except (BlockingIOError, InterruptedError):
            return
        except (OSError, ValueError):
            frames = None
        if frames is None:
            self._close_connection(connection)
        elif (
            len(frames) == 1
            and not connection.pending
            and not connection.outgoing
            and connection.in_flight < self._max_queued
            and not self.simulated_latency_seconds
        ):
            # One frame with nothing parked, queued or held ahead of it: it
            # is served and its reply written here, with one ``sendmsg``.
            # Anything else takes _dispatch, _respond and _flush.
            in_flight = connection.in_flight + 1
            if in_flight > self.max_in_flight_per_connection:
                self.max_in_flight_per_connection = in_flight
            response = self._execute(*frames[0])
            try:
                sent = connection.sock.sendmsg(response)
                self.sendmsg_calls += 1
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError:
                self._close_connection(connection)
                return
            if sent < sum(map(len, response)):
                # The socket took part of it: the rest waits for EVENT_WRITE,
                # and a connection now at the bound stops being read.
                _drop_sent(response, sent)
                connection.outgoing.append(response)
                connection.in_flight = in_flight
                connection.want_write = True
                if in_flight >= self._max_queued:
                    connection.paused = True
                    self.backpressure_pauses += 1
                self._update_interest(connection)
        elif frames:
            self._dispatch(connection, frames)

    def _dispatch(self, connection: _Connection, frames: list) -> None:
        """Serve ``frames`` behind any parked ones, up to the backpressure bound.

        Each frame is served on this thread, in arrival order, and the
        replies are written together, at once.  Frames beyond the bound are
        parked in ``connection.pending`` and the connection stops being
        read; a flush that completes responses re-enters here, so the
        backlog drains in arrival order as capacity frees up.
        """
        if connection.pending:
            frames, connection.pending = connection.pending + frames, []
        replies: list = []
        for index, (request_id, opcode, body) in enumerate(frames):
            if connection.in_flight >= self._max_queued:
                # At the bound: writing the replies so far usually frees it.
                if replies:
                    self._respond(connection, replies)
                    replies = []
                if connection.in_flight >= self._max_queued or connection.closed:
                    connection.pending = frames[index:]
                    break
            connection.in_flight += 1
            if connection.in_flight > self.max_in_flight_per_connection:
                self.max_in_flight_per_connection = connection.in_flight
            replies.append(self._execute(request_id, opcode, body))
        if replies:
            self._respond(connection, replies)
        should_pause = bool(connection.pending) or connection.in_flight >= self._max_queued
        if should_pause != connection.paused and not connection.closed:
            connection.paused = should_pause
            if should_pause:
                self.backpressure_pauses += 1
            self._update_interest(connection)

    def _execute(self, request_id: int, opcode: int, body: bytes) -> List[wire.Buffer]:
        """Serve one request; returns the response frame buffers.

        ``multi_lookup``, the op of every cacheable call, goes straight to
        the server's method, looked up per request (tests wrap it), and its
        reply is one buffer.  Never raises: a request that does not decode,
        names no operation, fails in the server or has a result the format
        cannot carry is answered ``OP_ERR`` with a message short enough to
        always encode.
        """
        try:
            if opcode == _MULTI_LOOKUP:
                results = self.server.multi_lookup(*wire.decode_binary_args(opcode, body))
                return [wire.encode_lookup_reply(request_id, results)]
            serve = _SERVE_OPCODE.get(opcode)
            if serve is None:
                raise ValueError(f"unknown cache operation opcode {opcode}")
            result = serve(self.server, *wire.decode_binary_args(opcode, body))
            return wire.encode_binary_mux_frame(request_id, OP_OK, result)
        except Exception as exc:  # server must survive bad requests
            message = f"{type(exc).__name__}: {exc}"[: self._MAX_ERROR_CHARS]
            return wire.encode_binary_mux_frame(request_id, OP_ERR, message)

    def _respond(self, connection: _Connection, responses: list) -> None:
        """Write served responses now, or hold them for the modelled RTT."""
        latency = self.simulated_latency_seconds
        if latency > 0.0:
            heapq.heappush(
                self._timers,
                (time.monotonic() + latency, next(self._timer_seq), connection, responses),
            )
        else:
            self._flush(connection, responses)

    def _flush_dirty(self) -> None:
        """Flush every connection given held responses since the last flush.

        Runs at the top of the loop body whenever the set is not empty,
        which every ``continue`` path re-enters — no response can sit
        unflushed across a ``select``.  Completing responses can unpark
        frames, whose replies are written at once, not marked dirty.
        """
        dirty, self._dirty = self._dirty, set()
        for connection in dirty:
            self._drain(connection)

    def _drain(self, connection: _Connection) -> None:
        """Flush queued output, then serve what its completion unparked."""
        self._flush(connection)
        if (connection.pending or connection.paused) and not connection.closed:
            self._dispatch(connection, [])

    def _flush(self, connection: _Connection, fresh: Optional[list] = None) -> None:
        """Write queued responses, then ``fresh`` ones, while the socket takes them.

        Every whole response waiting rides one ``sendmsg`` gather.
        ``connection.outgoing`` is touched only to keep what the socket
        refused: replies handed in as ``fresh`` with nothing queued ahead of
        them — the request path — go from the caller's list to the kernel.
        """
        if connection.closed:
            return
        queue = connection.outgoing
        if fresh:
            if queue:
                queue.extend(fresh)
            else:
                queue = fresh
        done = 0
        try:
            while done < len(queue):
                batch = queue[done:]
                if len(batch) == 1:
                    views = batch[0]
                else:
                    views = [view for response in batch for view in response]
                sent = connection.sock.sendmsg(views[: self._MAX_GATHER])
                self.sendmsg_calls += 1
                for response in batch:
                    size = sum(map(len, response))
                    if sent < size:
                        _drop_sent(response, sent)  # the tail stays at the head
                        break
                    sent -= size
                    done += 1
        except (BlockingIOError, InterruptedError):
            pass  # the socket is full; EVENT_WRITE resumes
        except OSError:
            self._close_connection(connection)
            return
        connection.in_flight -= done
        connection.outgoing = queue[done:] if done else queue
        if bool(connection.outgoing) != connection.want_write:
            connection.want_write = not connection.want_write
            self._update_interest(connection)

    def _update_interest(self, connection: _Connection) -> None:
        events = 0
        if not connection.paused:
            events |= selectors.EVENT_READ
        if connection.want_write:
            events |= selectors.EVENT_WRITE
        try:
            if events:
                self._selector.modify(connection.sock, events, connection)
            else:
                # Fully quiescent (paused, nothing to write): deregister
                # until a response completion changes the picture.
                self._selector.unregister(connection.sock)
        except (KeyError, ValueError):
            if events:
                try:
                    self._selector.register(connection.sock, events, connection)
                except (KeyError, ValueError, OSError):
                    pass
        except OSError:
            self._close_connection(connection)

    def _close_connection(self, connection: _Connection) -> None:
        if connection.closed:
            return
        connection.closed = True
        try:
            self._selector.unregister(connection.sock)
        except (KeyError, ValueError, OSError):
            pass
        _close_quietly(connection.sock)
        connection.outgoing.clear()
        connection.pending.clear()

    # -- lifecycle -------------------------------------------------------
    def shutdown(self) -> None:
        """Stop serving: close the listener and every connection, join the loop.

        Idempotent, and safe to call while requests are in flight.
        """
        if not self._running:
            return
        self._running = False
        try:
            self._wake_send.send(b"\x00")
        except OSError:
            pass  # the loop already exited, closing it
        self._thread.join(timeout=5.0)

    def _teardown(self) -> None:
        """Loop-thread exit path: close every socket and the selector."""
        self._flush_dirty()  # best-effort: drain held responses first
        for key in list(self._selector.get_map().values()):
            if isinstance(key.data, _Connection):
                self._close_connection(key.data)
            else:
                try:
                    self._selector.unregister(key.fileobj)
                except (KeyError, ValueError):
                    pass
        _close_quietly(self._listener)
        for sock in (self._wake_recv, self._wake_send):
            try:
                sock.close()
            except OSError:
                pass
        self._selector.close()

    def __enter__(self) -> "CacheServerProcess":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        host, port = self.address
        return f"CacheServerProcess({self.server.name!r} @ {host}:{port})"


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------
class _MuxConnection:
    """One client connection: many RPCs in flight, one socket.

    Callers register a :class:`ResponseSlot` under a fresh ``request_id``
    and write their frame (sends serialized by a per-connection lock).
    Responses are read with one ``recv`` into the connection's
    :class:`FrameAssembler` and demultiplexed by ``request_id``: a caller
    that has sent and finds the *read lease* free takes it and reads frames
    off the socket itself, resolving every slot it sees, until its own
    response lands — a single caller never waits on anything but ``recv``
    and pays for no rendezvous.  (Nobody holds the lease while sending: a
    sender can block, and the node may be unable to read until someone
    drains its replies.)  A caller that finds the lease held follows: it
    blocks on its slot while the holder reads for it.  Releasing the lease
    kicks one waiting follower (without settling its slot) to take over,
    so the lease is never orphaned while requests are outstanding.

    Every request is encoded with the one binary codec of
    :mod:`repro.comm.wire`; a request it cannot carry raises at the sender
    and is never registered as in flight.

    Any I/O failure — including a caller's wait timing out — poisons the
    whole connection: every pending slot fails with
    :class:`CacheNodeUnreachableError` and the owner dials a fresh
    connection on the next call (a stream that lost a response can never
    be trusted again).
    """

    def __init__(self, sock: socket.socket, label: str, timeout: Optional[float]) -> None:
        self._sock = sock
        self._label = label
        self._timeout = timeout
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._pending: Dict[int, ResponseSlot] = {}
        self._ids = itertools.count(1)
        self._dead: Optional[BaseException] = None
        #: True while some caller is reading the socket (guarded by _lock).
        self._lease_held = False
        #: Cuts responses out of what ``recv`` returns; used only by the
        #: lease holder.
        self._frames = FrameAssembler()
        sock.sendall(bytes([WIRE_VERSION]))
        # The socket blocks from here on (an idle connection is fine, and a
        # timeout set for one caller's read would also govern — or, flipped
        # mid-call, fail with EAGAIN — another caller's concurrent send).
        # Caller timeouts are enforced on the slot wait; a leased reader
        # waits for readability under its own deadline.
        sock.settimeout(None)
        self._readable = select.poll()
        self._readable.register(sock, select.POLLIN)

    @property
    def dead(self) -> bool:
        return self._dead is not None

    def call(self, op: str, args: tuple) -> Tuple[bool, object]:
        """One RPC: returns ``(ok, value_or_error_message)``."""
        opcode = OPCODES.get(op)
        if opcode is None:
            # Fail fast, naming the op — no point paying a round trip for a
            # request the server can only reject.
            raise CacheTransportError(
                f"cache node {self._label}: unknown cache operation {op!r}"
            )
        # This call's absolute deadline: its own RPC timeout.
        deadline = None if self._timeout is None else time.monotonic() + self._timeout
        # Encoded before a slot is registered: a request the codec refuses
        # was never in flight.
        body = wire.encode_binary_args(opcode, args)
        slot = ResponseSlot()
        with self._lock:
            if self._dead is not None:
                raise CacheNodeUnreachableError(
                    f"connection to {self._label} is dead: {self._dead}",
                    node=self._label,
                    op=op,
                )
            request_id = next(self._ids)
            header = _pack_header(request_id, opcode, len(body))
            self._pending[request_id] = slot
        wire.WIRE_COUNTERS.frames_encoded += 1
        try:
            with self._send_lock:
                wire.send_buffers(self._sock, (header, body))
        except BaseException as exc:
            # Half a frame may be out; nothing sent after it would be framed.
            self.fail(exc)
            if not isinstance(exc, OSError):
                raise
            raise CacheNodeUnreachableError(
                f"cache node {self._label} unreachable: {exc}",
                node=self._label,
                op=op,
            ) from exc
        # A caller that finds the lease free reads its own reply.  It asks
        # only now: a caller still queued for the send lock or blocked in
        # ``send`` reads nothing, and holding the lease there would keep
        # every other caller's reply in the kernel buffer — for good, if the
        # node is itself blocked sending one of them.
        with self._lock:
            leader = not (self._lease_held or slot.settled)
            if leader:
                self._lease_held = True
        if leader or (not slot.settled and self._await_leased(slot, deadline, op)):
            # Holding the read lease: read, decode and settle frames until
            # this caller's own slot settles.  Frames for *other* requests
            # are settled along the way (their callers wake directly off
            # this thread's ``recv``).  The deadline is enforced by waiting
            # for the socket to be readable before each read.
            try:
                while not slot.settled:
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0 or not self._readable.poll(remaining * 1000.0):
                            break
                    data = self._sock.recv(_RECV_SIZE)
                    if not data:
                        raise ConnectionError("connection closed by peer")
                    for reply_id, status, reply in self._frames.feed(data):
                        value = wire.decode_binary_body(reply)
                        with self._lock:
                            waiter = self._pending.pop(reply_id, None)
                        if waiter is not None:
                            waiter.resolve((status == OP_OK, value))
            except BaseException as exc:  # noqa: BLE001 - fanned out to callers
                self.fail(exc)
            finally:
                # Free the lease and kick one waiting caller to take it
                # over: without the kick a follower could block on its slot
                # with no one reading the socket, its response in the kernel
                # buffer until its timeout.  That waiter kicks on in turn.
                # A slot nobody waits on yet is passed over: its caller is
                # still sending, and looks at the lease itself once done.
                with self._lock:
                    self._lease_held = False
                    if self._pending:
                        for pending in self._pending.values():
                            if not pending.settled and pending.kick():
                                break
            if not slot.settled:
                # The deadline passed mid-wait; the stream may hold a
                # half-read frame and can no longer be trusted.
                self._timeout_poison(op=op)
        if slot.error is not None:
            raise CacheNodeUnreachableError(
                f"cache node {self._label} unreachable: {slot.error}",
                node=self._label,
                op=op,
            ) from slot.error
        return slot.value  # type: ignore[return-value]

    # -- read lease ------------------------------------------------------
    def _await_leased(
        self, slot: ResponseSlot, deadline: Optional[float], op: Optional[str] = None
    ) -> bool:
        """Follow whoever holds the lease: False once ``slot`` settles, True
        once this caller has taken the lease over (it then reads in
        :meth:`call`).

        Entered only by a caller that found the lease held.  It blocks on
        its slot; woken without a result it was *kicked* (the lease was
        released before its response arrived), so it takes the lease if it
        is still free, else goes back to waiting.
        """
        while True:
            with self._lock:
                # Re-arm *before* the settled check: a resolve landing
                # after the clear sets the event again, so the check-then-
                # wait sequence can never lose that wakeup.
                slot.clear()
                if slot.settled:
                    return False
                if self._dead is not None:
                    slot.fail(self._dead)
                    return False
                if not self._lease_held:
                    self._lease_held = True
                    return True
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                self._timeout_poison(op=op)
            slot.wait(remaining)
            # Woken — settled, failed, or merely kicked: the loop top
            # distinguishes the three under the lock.

    def _timeout_poison(self, op: Optional[str] = None) -> None:
        exc = CacheNodeUnreachableError(
            f"cache node {self._label} timed out after {self._timeout}s",
            node=self._label,
            op=op,
        )
        self.fail(exc)
        raise exc

    def fail(self, exc: BaseException) -> None:
        """Poison the connection: close it and fail every pending slot."""
        with self._lock:
            if self._dead is not None:
                return
            self._dead = exc
            pending = list(self._pending.values())
            self._pending.clear()
        _close_quietly(self._sock)
        for slot in pending:
            slot.fail(exc)

    def close(self) -> None:
        self.fail(CacheNodeUnreachableError(f"connection to {self._label} closed"))


class SocketTransport:
    """Client to one networked cache node.

    Implements :class:`repro.comm.transport.CacheTransport` over one
    connection (:class:`_MuxConnection`): every client thread's RPC goes out
    at once under its own ``request_id`` and its reply is routed back by it,
    so in-flight concurrency never costs a socket per thread.

    Thread safety: any number of threads may issue RPCs on one transport.
    A connection that suffers any I/O failure (or a response timeout) is
    discarded, never reused, and the failure surfaces as
    :class:`CacheNodeUnreachableError`; the next call dials afresh.
    ``timeout_seconds`` bounds dialling and each RPC, so a hung node
    cannot strand a worker thread.
    :meth:`close` is idempotent.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        name: Optional[str] = None,
        timeout_seconds: float = 30.0,
    ) -> None:
        self.address = address
        self.timeout_seconds = timeout_seconds
        #: Guards the connection and the closed flag (never held during I/O).
        self._lock = threading.Lock()
        self._connection: Optional[_MuxConnection] = None
        self._closed = False
        #: RPCs issued per operation name (mirrors InProcessTransport's
        #: counter, so wire-op-cost tests pin the same numbers under every
        #: transport kind).  Guarded by ``_count_lock``: ``_call`` runs
        #: concurrently from many client threads.
        self.op_counts: dict = {}
        self._count_lock = threading.Lock()
        # Eager first dial: verify the endpoint now (the cluster relies on
        # construction failing fast for an unreachable node) and learn (or
        # verify) the node's name from the server itself.
        self._mux_connection()
        self.name = name or self._call("ping")

    # ------------------------------------------------------------------
    def _dial(self) -> socket.socket:
        label = getattr(self, "name", None) or str(self.address)
        try:
            sock = socket.create_connection(self.address, timeout=self.timeout_seconds)
        except OSError as exc:
            raise CacheNodeUnreachableError(
                f"cache node at {self.address} unreachable: {exc}",
                node=label,
            ) from exc
        _set_nodelay(sock)
        return sock

    def _mux_connection(self) -> _MuxConnection:
        """The live connection, dialling one if there is none."""
        with self._lock:
            if self._closed:
                raise CacheNodeUnreachableError(f"transport to {self.address} is closed")
            connection = self._connection
            if connection is not None and not connection.dead:
                return connection
        # Dial outside the lock; first thread to store the fresh connection
        # wins, any race loser's dial is closed again.
        fresh = _MuxConnection(
            self._dial(), label=f"{getattr(self, 'name', None) or self.address}",
            timeout=self.timeout_seconds,
        )
        with self._lock:
            if self._closed:
                fresh.close()
                raise CacheNodeUnreachableError(f"transport to {self.address} is closed")
            current = self._connection
            if current is not None and not current.dead:
                fresh.close()
                return current
            self._connection = fresh
            return fresh

    def _call(self, op: str, *args: object) -> object:
        with self._count_lock:
            self.op_counts[op] = self.op_counts.get(op, 0) + 1
        # The live connection is read without the lock: a call that races
        # close() fails on the closed connection as it would after it.
        connection = self._connection
        if connection is None or connection._dead is not None:
            connection = self._mux_connection()
        ok, value = connection.call(op, args)
        if not ok:
            raise CacheTransportError(
                f"cache node {getattr(self, 'name', None) or self.address}: {value}"
            )
        return value

    # -- cache operations ----------------------------------------------
    # This is the client end of the wire, the only place a cached value is
    # pickled (on the way in) or unpickled (on the way out): the node keeps
    # and returns ValueBlob bytes.  A record that carries no blob (a miss,
    # or an entry someone put on a thread-hosted node's server directly)
    # passes through as it is.
    def _batches(self, op: str, items: list) -> list:
        """``op`` over ``items`` in frames of at most ``wire.MAX_BATCH_ITEMS``
        (one frame when empty); the results, one per frame.  The node serves
        a connection's frames in order, so the slices apply in order, but a
        batch split in two is not atomic against an invalidation between."""
        step = wire.MAX_BATCH_ITEMS
        if len(items) <= step:
            return [self._call(op, items)]
        return [self._call(op, items[i : i + step]) for i in range(0, len(items), step)]

    def multi_lookup(self, requests: Sequence[LookupRequest]) -> List[LookupResult]:
        if len(requests) <= wire.MAX_BATCH_ITEMS:
            results = self._call("multi_lookup", list(requests))
        else:
            parts = self._batches("multi_lookup", list(requests))
            results = [result for part in parts for result in part]
        for result in results:
            value = result.value
            if type(value) is ValueBlob:
                result.value = value.unpack()
        return results

    def put(
        self,
        key: str,
        value: object,
        interval: Interval,
        tags: Tuple[InvalidationTag, ...] = (),
    ) -> bool:
        return self._call("put", key, ValueBlob.pack(value), interval, tags)

    def probe(self, key: str, lo: int, hi: int) -> bool:
        return self._call("probe", key, lo, hi)

    def evict_stale(self, oldest_useful_timestamp: int) -> int:
        return self._call("evict_stale", oldest_useful_timestamp)

    def stats(self) -> CacheServerStats:
        return CacheServerStats(**self._call("stats"))

    def reset_stats(self) -> None:
        self._call("reset_stats")

    # -- key migration --------------------------------------------------
    def extract_entries(
        self, cursor: Optional[str] = None, limit: int = 64
    ) -> Tuple[List[EntryRecord], Optional[str]]:
        records, next_cursor = self._call("extract_entries", cursor, limit)
        for record in records:
            _unpack_value(record)
        return records, next_cursor

    def install_entries(self, records: Sequence[EntryRecord]) -> int:
        return sum(
            self._batches(
                "install_entries",
                [
                    EntryRecord(r.key, ValueBlob.pack(r.value), r.interval, r.tags)
                    for r in records
                ],
            )
        )

    def discard_keys(self, keys: Sequence[str]) -> int:
        return sum(self._batches("discard_keys", list(keys)))

    def keys(self) -> List[str]:
        """Every stored key, sorted: the full-circle ``keys_in_range`` walk,
        one page per frame."""
        keys, cursor = self.keys_in_range([(0, 0)])
        while cursor is not None:
            page, cursor = self.keys_in_range([(0, 0)], cursor)
            keys += page
        return keys

    def watermark(self) -> int:
        return self._call("watermark")

    def versions_of(self, key: str) -> List[CacheEntry]:
        return [_unpack_value(CacheEntry(*fields)) for fields in self._call("versions_of", key)]

    # -- anti-entropy planning -----------------------------------------
    def key_digest(
        self, arcs, cursor: Optional[str] = None
    ) -> Tuple[List[Tuple[int, int, int]], Optional[str]]:
        digests, next_cursor = self._call("key_digest", [tuple(arc) for arc in arcs], cursor)
        return digests, next_cursor

    def keys_in_range(self, arcs, cursor: Optional[str] = None) -> Tuple[List[str], Optional[str]]:
        keys, next_cursor = self._call("keys_in_range", [tuple(arc) for arc in arcs], cursor)
        return keys, next_cursor

    # -- invalidation stream -------------------------------------------
    # Both entry points send ``invalidate_tags``, the one op that carries
    # the stream, and neither calls the other: a tracer wrapping both under
    # one span name must see each delivery once.  Messages are normalized to
    # (timestamp, tags) pairs; tags are hot-path binary values (_T_TAG).
    def process_invalidation(self, message: InvalidationMessage) -> None:
        self._call("invalidate_tags", [(message.timestamp, tuple(message.tags))])

    def process_invalidations(self, messages: Sequence[InvalidationMessage]) -> None:
        self._batches(
            "invalidate_tags",
            [(message.timestamp, tuple(message.tags)) for message in messages],
        )

    def note_timestamp(self, timestamp: int) -> None:
        self._call("note_timestamp", timestamp)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Close the connection; idempotent.

        Calls in flight fail with :class:`CacheNodeUnreachableError`, and
        so does every later call.
        """
        with self._lock:
            self._closed = True
            connection, self._connection = self._connection, None
        if connection is not None:
            connection.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        host, port = self.address
        return f"SocketTransport({self.name!r} @ {host}:{port})"


def _unpack_value(record):
    """Unpickle, in place, the blob a just-decoded record carries.

    ``record`` is a LookupResult, EntryRecord or CacheEntry fresh off the
    wire, so nothing else holds it; ``EntryRecord`` is frozen, hence the
    ``object.__setattr__``.
    """
    value = record.value
    if type(value) is ValueBlob:
        object.__setattr__(record, "value", value.unpack())
    return record


def _drop_sent(response: list, sent: int) -> None:
    """Cut the first ``sent`` bytes, fewer than it holds, off a response's
    buffers, in place."""
    while sent >= len(response[0]):
        sent -= len(response.pop(0))
    if sent:
        response[0] = memoryview(response[0])[sent:]


def _close_quietly(sock: socket.socket) -> None:
    # shutdown() wakes any thread blocked in recv() on this socket — a bare
    # close() does not reliably do so — so teardown never waits on a reader.
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # never connected, or the peer already went away
    try:
        sock.close()
    except OSError:  # pragma: no cover - close never raises on Linux
        pass
