"""Cache nodes as real networked servers (TCP, framed wire protocol).

The paper deploys cache nodes as standalone servers that application servers
reach over a gigabit LAN.  This module provides that topology for the
reproduction:

* :class:`CacheServerProcess` serves one :class:`CacheServer` over TCP, with
  a choice of two engines.  ``style="threaded"`` (the default) dedicates one
  handler thread to each accepted connection — simple, debuggable, and how
  the server has always run.  ``style="eventloop"`` serves *every*
  connection from one ``selectors``-based loop thread: sockets are
  non-blocking, the request path is answered in the event that read it,
  maintenance ops are dispatched to a small worker pool, and responses are
  written back **as they finish** — a slow ``extract_entries`` never
  head-of-line blocks a ``lookup`` pipelined on the same connection.  Per-connection
  backpressure bounds the number of requests in flight: a connection that
  exceeds ``max_queued_per_connection`` stops being read until its backlog
  drains, so one firehose client cannot swamp the worker pool.
* :class:`SocketTransport` is the client side, in two generations.  The
  *pooled* mode (``pipelined=False``) keeps up to ``pool_size`` legacy
  one-request-in-flight connections.  The *pipelined* mode
  (``pipelined=True``) multiplexes any number of outstanding RPCs over
  ``mux_connections`` (default 1) sockets: each caller registers a
  per-request :class:`repro.comm.wire.ResponseSlot`, one reader thread per
  connection demultiplexes responses by ``request_id``, and the socket
  count stays constant no matter how many client threads share the
  transport.

Both engines of the server accept both client generations on the same port:
the framing is detected from the first byte of each connection (see
:mod:`repro.comm.wire`).

Wire protocol
-------------
Legacy frames are a 4-byte big-endian length plus a pickled payload; a
request payload decodes to ``(op, args)`` and a response to ``("ok", value)``
or ``("err", message)``.  Multiplexed frames carry a struct-packed
``(request_id, opcode, length)`` header (``!QBI``); the opcode names the
operation numerically on requests and carries ``OP_OK``/``OP_ERR`` on
responses, whose body is the bare result (or error string).  Cached values
are arbitrary Python objects that must round-trip exactly, so they are
pickled (protocol 5) — once, by :class:`SocketTransport`, into a
:class:`~repro.cache.entry.ValueBlob` that the server stores and returns
without ever loading it; only the transport unpickles.  Both endpoints of
the simulated deployment are trusted, the standard caveat for pickle-based
RPC.  No path concatenates a
header onto a payload: frames are written as buffer vectors with ``sendmsg``
gather I/O (:func:`repro.comm.wire.send_buffers`).

``CacheServerProcess(simulated_latency_seconds=...)`` models the LAN round
trip of the paper's gigabit testbed.  The threaded engine sleeps in the
handler thread before serving (concurrent connections overlap their modelled
latency, one thread each); the event-loop engine instead *delays the
response* on a timer wheel inside the loop, so a thousand in-flight modelled
round trips cost zero threads — the same modelling decision an asynchronous
server would force in production.
"""

from __future__ import annotations

import heapq
import itertools
import pickle
import select
import selectors
import socket
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.cache.entry import EntryRecord, LookupRequest, LookupResult, ValueBlob
from repro.cache.server import CacheServer, CacheServerStats
from repro.comm import wire
from repro.comm.multicast import InvalidationMessage
from repro.comm.wire import (
    BINARY_ACK,
    BINARY_NAK,
    BINARY_OPCODES,
    LEGACY_HEADER,
    MAX_FRAME_BYTES,
    MUX_HEADER,
    MUX_MAGIC,
    MUX_MAGIC_BINARY,
    OP_ERR,
    OP_OK,
    OPCODES,
    OPCODE_MASK,
    FLAG_BIN,
    FLAG_OOB,
    FrameAssembler,
    ResponseSlot,
    recv_exactly,
)
from repro.comm.transport import current_deadline, remaining_deadline
from repro.db.invalidation import InvalidationTag
from repro.interval import Interval

__all__ = [
    "CacheServerProcess",
    "SocketTransport",
    "CacheTransportError",
    "CacheNodeUnreachableError",
    "CacheNodeConnectError",
    "CacheNodeTimeoutError",
    "CacheNodeStreamPoisonedError",
    "WireCodecMismatchError",
    "DEFAULT_POOL_SIZE",
    "DEFAULT_WORKER_THREADS",
    "DEFAULT_MAX_QUEUED_PER_CONNECTION",
    "SERVER_STYLES",
]

#: Frame header of the legacy protocol (kept under its historical name; the
#: multiplexed header lives in :mod:`repro.comm.wire`).
_HEADER = LEGACY_HEADER

#: Default size of a pooled :class:`SocketTransport` connection pool: how
#: many legacy one-in-flight RPCs one application server keeps going to one
#: cache node.  Ignored in pipelined mode, where one socket multiplexes.
DEFAULT_POOL_SIZE = 4

#: Worker threads of the event-loop engine's dispatch pool.
DEFAULT_WORKER_THREADS = 4

#: Per-connection backpressure bound of the event-loop engine: a connection
#: with this many requests in flight stops being read until responses drain.
DEFAULT_MAX_QUEUED_PER_CONNECTION = 32

#: Supported values of ``CacheServerProcess(style=...)``.
SERVER_STYLES = ("threaded", "eventloop")

#: How much either end asks the kernel for per ``recv``.  ``recv`` allocates
#: its result at this size before shrinking it to what arrived, and from
#: 128 KiB up glibc may serve that with ``mmap``: the node's 256 KiB reads
#: cost it an mmap, an mremap, a munmap and a page fault per request (25 us
#: of an 85 us round trip, measured).  A larger frame just takes more reads.
_RECV_SIZE = 64 * 1024

#: The multi-lookup opcode gets the reusable-scratch encode path on the
#: pipelined binary client (see :class:`repro.comm.wire.EncodeScratch`).
_MULTI_LOOKUP_OPCODE = OPCODES["multi_lookup"]


def _set_nodelay(sock: socket.socket) -> None:
    """Disable Nagle's algorithm (frames are tiny; latency matters)."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - non-TCP sockets in exotic setups
        pass


class CacheTransportError(RuntimeError):
    """A cache RPC failed (connection lost or server-side error)."""


class CacheNodeUnreachableError(CacheTransportError):
    """The node could not be reached at all (connection-level I/O failure).

    Distinguished from a server-side error response so failure-aware routing
    (:class:`repro.cache.cluster.CacheCluster`) degrades only on genuine
    connectivity loss, never on an application-level error that would
    otherwise be masked.

    The common base of a small taxonomy — :class:`CacheNodeConnectError`,
    :class:`CacheNodeTimeoutError`, :class:`CacheNodeStreamPoisonedError` —
    so retry decisions and health accounting can branch on *how* the node
    was unreachable without string-matching messages.  Every instance
    carries ``node`` (the node name or address label, when known) and
    ``op`` (the operation in flight, when there was one).
    """

    def __init__(
        self,
        message: str,
        *,
        node: Optional[str] = None,
        op: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.node = node
        self.op = op


class CacheNodeConnectError(CacheNodeUnreachableError):
    """Dialling the node failed outright (refused, unresolvable, no route).

    The cheapest failure mode: no request was ever sent, so a retry risks
    nothing, and a refused connect returns in microseconds — the signature
    of a crashed process whose port is gone.
    """


class CacheNodeTimeoutError(CacheNodeUnreachableError):
    """The node accepted the connection but a wait ran out of time.

    Raised both for a per-attempt RPC timeout and for a propagated per-op
    deadline (:func:`repro.comm.transport.deadline_scope`) expiring before
    the attempt could start.  Unlike a connect failure, time already spent
    is gone — retry logic must check the remaining deadline budget.
    """


class CacheNodeStreamPoisonedError(CacheNodeUnreachableError):
    """The connection died mid-stream with requests outstanding.

    The request/response stream can no longer be trusted (a response may
    have been half-read, or may land after the caller stopped waiting), so
    the whole connection was poisoned and every pending call failed.  The
    request *may have executed* server-side: safe to retry only for
    idempotent operations.
    """


class WireCodecMismatchError(CacheTransportError):
    """The two endpoints do not speak the same wire body codec.

    Raised when a binary-codec client dials a server that answers the
    codec handshake with :data:`repro.comm.wire.BINARY_NAK` (or not at
    all — a server predating the handshake closes or stalls, which the
    client treats the same way).  Deliberately *not* a
    :class:`CacheNodeUnreachableError`: the node is reachable, the
    deployment is misconfigured, and failure-aware routing must not paper
    over that by degrading lookups.
    """


def _classify_unreachable(
    message: str,
    cause: BaseException,
    *,
    node: Optional[str] = None,
    op: Optional[str] = None,
) -> CacheNodeUnreachableError:
    """Wrap a connection-level failure in the matching taxonomy class.

    A cause that already carries a taxonomy (a poisoning exception fanned
    out to every pending slot) keeps its class, so the caller that timed
    out and the callers it poisoned report consistently; a bare socket
    timeout becomes :class:`CacheNodeTimeoutError`; anything else is a
    mid-stream loss, :class:`CacheNodeStreamPoisonedError`.
    """
    if isinstance(cause, CacheNodeUnreachableError):
        cls = type(cause)
    elif isinstance(cause, socket.timeout):
        cls = CacheNodeTimeoutError
    else:
        cls = CacheNodeStreamPoisonedError
    return cls(message, node=node, op=op)


# ----------------------------------------------------------------------
# Legacy framing helpers (shared by both endpoints)
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, payload: object) -> None:
    """Serialize ``payload`` and write it as one legacy frame.

    The header and body go out as two gathered buffers (``sendmsg``), never
    concatenated — the old ``header + data`` copied every payload twice.
    """
    wire.send_buffers(sock, wire.encode_legacy_frame(payload))


def recv_frame(sock: socket.socket) -> object:
    """Read one legacy frame and deserialize its payload.

    Raises :class:`ConnectionError` on EOF (orderly shutdown of the peer).
    """
    header = recv_exactly(sock, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise CacheTransportError(f"oversized frame: {length} bytes")
    return pickle.loads(recv_exactly(sock, length))


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
    stream here instead.  Applied in order; returns the batch size so the
    flush path can account delivered messages.
    """
    for timestamp, tags in batch:
        server.process_invalidation(
            InvalidationMessage(timestamp=timestamp, tags=tuple(tags))
        )
    return len(batch)


#: What serves each operation, as ``serve(server, *args)``, by the name a
#: legacy frame carries and by the opcode a multiplexed one does.
_SERVE_OP = {
    op: _serves(op)
    for op in (
        "lookup", "multi_lookup", "put", "probe", "was_ever_stored",
        "evict_stale", "clear", "reset_stats", "extract_entries",
        "install_entries", "discard_keys", "keys", "note_timestamp",
        "versions_of", "key_digest", "keys_in_range",
    )
}
_SERVE_OP.update(
    # A locked snapshot, so the client sees a stable copy of the counters
    # even while other handler threads mutate them.
    stats=_serves("stats_snapshot"),
    gossip=_serves("gossip_exchange"),
    watermark=lambda server: server.last_invalidation_timestamp,
    ping=lambda server: server.name,
    invalidate_tags=_serve_invalidate_tags,
)
_SERVE_OPCODE = {OPCODES[op]: serve for op, serve in _SERVE_OP.items()}


class CacheServerProcess:
    """One cache node served over TCP in its own thread(s).

    Wraps a :class:`CacheServer` and exposes it at a TCP endpoint.  Dispatch
    takes no process-level lock — concurrent requests are synchronized by
    the :class:`CacheServer`'s own reentrant lock, so the socket path has
    exactly the same thread-safety contract as in-process callers.  The
    wrapped server object remains reachable via :attr:`server` for tests and
    introspection, but live traffic goes through the socket.

    ``style`` selects the serving engine (see the module docstring):
    ``"threaded"`` is one handler thread per connection; ``"eventloop"`` is
    one selector loop plus a ``worker_threads``-wide dispatch pool, with
    out-of-order response completion and per-connection backpressure
    (``max_queued_per_connection``).  Both speak both wire framings.
    """

    def __init__(
        self,
        server: CacheServer,
        host: str = "127.0.0.1",
        port: int = 0,
        simulated_latency_seconds: float = 0.0,
        style: str = "threaded",
        worker_threads: int = DEFAULT_WORKER_THREADS,
        max_queued_per_connection: int = DEFAULT_MAX_QUEUED_PER_CONNECTION,
        wire_codec: Optional[str] = None,
        write_coalescing: bool = True,
    ) -> None:
        if style not in SERVER_STYLES:
            raise ValueError(f"unknown server style {style!r}; expected one of {SERVER_STYLES}")
        if worker_threads < 1:
            raise ValueError("worker_threads must be positive")
        if max_queued_per_connection < 1:
            raise ValueError("max_queued_per_connection must be positive")
        self.server = server
        self.style = style
        #: "binary" (the default): this server answers the binary-codec
        #: handshake with ACK and serves both codecs.  "pickle": a
        #: pickle-only server — binary-codec clients are NAKed at the
        #: handshake (the mixed-version deployment the fail-fast test pins).
        self.wire_codec = wire.resolve_wire_codec(wire_codec)
        self.simulated_latency_seconds = simulated_latency_seconds
        self._listener = socket.create_server((host, port))
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._running = True
        self._engine: Optional[_EventLoopEngine] = None
        if style == "eventloop":
            self._engine = _EventLoopEngine(
                self, self._listener, worker_threads, max_queued_per_connection,
                write_coalescing,
            )
            return
        #: Guards the connection/handler registries (mutated by the accept
        #: loop, read by shutdown).
        self._registry_lock = threading.Lock()
        self._connections: List[socket.socket] = []
        self._handler_threads: List[threading.Thread] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"cache-node-{server.name}", daemon=True
        )
        self._accept_thread.start()

    @property
    def running(self) -> bool:
        """True until :meth:`shutdown` completes."""
        return self._running

    @property
    def backpressure_pauses(self) -> int:
        """Times the event-loop engine paused reading a connection (0 when threaded)."""
        return self._engine.backpressure_pauses if self._engine is not None else 0

    @property
    def max_in_flight_per_connection(self) -> int:
        """High-water mark of queued requests on any one connection (event loop)."""
        return self._engine.max_in_flight if self._engine is not None else 0

    @property
    def sendmsg_calls(self) -> int:
        """``sendmsg`` syscalls issued by the event-loop engine (0 when threaded).

        The write-coalescing benchmark compares this against the response
        count: with coalescing on, one readiness event writes every drained
        response of a connection in one gather.
        """
        return self._engine.sendmsg_calls if self._engine is not None else 0

    # ------------------------------------------------------------------
    # Threaded engine
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while self._running:
            try:
                connection, _peer = self._listener.accept()
            except OSError:
                return  # listener closed: shutting down
            _set_nodelay(connection)
            handler = threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name=f"cache-conn-{self.server.name}",
                daemon=True,
            )
            with self._registry_lock:
                if not self._running:
                    # shutdown() ran between accept() and registration; it
                    # will not see this socket, so close it here.
                    _close_quietly(connection)
                    continue
                self._connections.append(connection)
                self._handler_threads.append(handler)
                # Started under the lock: shutdown() snapshots this list
                # under the same lock and joins every thread in it, and
                # joining a thread that was never started raises.
                handler.start()

    def _serve_connection(self, connection: socket.socket) -> None:
        try:
            # The first byte tells the two client generations apart: the
            # multiplexed protocol opens with MUX_MAGIC, which can never
            # begin a sane legacy length header.
            try:
                first = connection.recv(1)
            except OSError:
                return
            if not first:
                return
            if first[0] == MUX_MAGIC_BINARY:
                # Binary-codec handshake: the client will not send a frame
                # until it sees the ACK, and a pickle-only server NAKs so
                # the client fails fast instead of mis-decoding.
                try:
                    if self.wire_codec != "binary":
                        connection.send(bytes([BINARY_NAK]))
                        return
                    connection.send(bytes([BINARY_ACK]))
                except OSError:
                    return
                self._serve_mux_connection(connection)
            elif first[0] == MUX_MAGIC:
                self._serve_mux_connection(connection)
            else:
                self._serve_legacy_connection(connection, first)
        finally:
            _close_quietly(connection)
            # Drop this connection from the registries so a client pool
            # dropping and re-dialling connections (timeouts, failures)
            # cannot grow them without bound over the process lifetime.
            with self._registry_lock:
                if connection in self._connections:
                    self._connections.remove(connection)
                current = threading.current_thread()
                if current in self._handler_threads:
                    self._handler_threads.remove(current)

    def _serve_legacy_connection(
        self, connection: socket.socket, prefix: Optional[bytes]
    ) -> None:
        while self._running:
            try:
                if prefix is not None:
                    header = prefix + recv_exactly(connection, _HEADER.size - len(prefix))
                    prefix = None
                else:
                    header = recv_exactly(connection, _HEADER.size)
                (length,) = _HEADER.unpack(header)
                if length > MAX_FRAME_BYTES:
                    return  # corrupt frame header: the stream cannot resync
                body = recv_exactly(connection, length)
            except (ConnectionError, OSError):
                return  # client went away or shutdown closed the socket
            try:
                request = pickle.loads(body)
            except Exception as exc:
                # Undecodable payload; the frame was consumed in full, so
                # the stream is still in sync — report and keep serving.
                try:
                    send_frame(connection, ("err", f"bad request frame: {exc}"))
                except OSError:
                    return
                continue
            if self.simulated_latency_seconds > 0.0:
                # Lock-free by construction: concurrent requests overlap
                # their modelled network time like real round trips.
                time.sleep(self.simulated_latency_seconds)
            try:
                op, args = request
                result = self._dispatch(op, args)
                response = ("ok", result)
            except Exception as exc:  # server must survive bad requests
                response = ("err", f"{type(exc).__name__}: {exc}")
            try:
                send_frame(connection, response)
            except OSError:
                return

    def _serve_mux_connection(self, connection: socket.socket) -> None:
        """Multiplexed framing on the threaded engine.

        Requests are served in arrival order on this connection (the
        event-loop engine is the one that completes out of order); the
        response still carries the request id, so a pipelined client works
        against either engine.
        """
        while self._running:
            try:
                header = recv_exactly(connection, MUX_HEADER.size)
                request_id, opcode, length = MUX_HEADER.unpack(header)
                if length > MAX_FRAME_BYTES:
                    return
                body = recv_exactly(connection, length)
            except (ConnectionError, OSError):
                return
            if self.simulated_latency_seconds > 0.0:
                time.sleep(self.simulated_latency_seconds)
            buffers = self._execute_mux(request_id, opcode, body)
            try:
                wire.send_buffers(connection, buffers)
            except OSError:
                return

    # ------------------------------------------------------------------
    # Dispatch (shared by both engines)
    # ------------------------------------------------------------------
    def _execute_mux(
        self, request_id: int, opcode: int, body: bytes
    ) -> List[wire.Buffer]:
        """Serve one multiplexed request; returns the response frame buffers.

        The response uses the request's codec (``FLAG_BIN`` on the opcode):
        the server keeps no per-connection codec state, so binary and pickle
        frames can interleave freely on one connection — which is exactly
        what a binary client does, pickling only the maintenance ops.
        """
        binary = opcode & FLAG_BIN
        try:
            serve = _SERVE_OPCODE.get(opcode & OPCODE_MASK)
            if serve is None:
                raise ValueError(f"unknown cache operation opcode {opcode & OPCODE_MASK}")
            if binary:
                result = serve(self.server, *wire.decode_binary_args(opcode & OPCODE_MASK, body))
                return wire.encode_binary_mux_frame(request_id, OP_OK, result)
            result = serve(self.server, *wire.decode_body(opcode & FLAG_OOB, body))
            return wire.encode_mux_frame(request_id, OP_OK, result)
        except Exception as exc:  # server must survive bad requests
            message = f"{type(exc).__name__}: {exc}"
            if binary:
                return wire.encode_binary_mux_frame(request_id, OP_ERR, message)
            return wire.encode_mux_frame(request_id, OP_ERR, message)

    def _execute_legacy(
        self, _request_id: Optional[int], _opcode: int, body: bytes
    ) -> List[wire.Buffer]:
        """Serve one legacy request (event-loop path); returns frame buffers.

        Takes the same arguments as :meth:`_execute_mux` (a legacy frame
        has no id or opcode, and the parser says so) so the engine calls
        either through one name.
        """
        try:
            request = pickle.loads(body)
        except Exception as exc:
            return wire.encode_legacy_frame(("err", f"bad request frame: {exc}"))
        try:
            op, args = request
            result = self._dispatch(op, args)
            response = ("ok", result)
        except Exception as exc:
            response = ("err", f"{type(exc).__name__}: {exc}")
        return wire.encode_legacy_frame(response)

    def _dispatch(self, op: str, args: tuple) -> object:
        """Serve an operation named by a legacy frame."""
        serve = _SERVE_OP.get(op)
        if serve is None:
            raise ValueError(f"unknown cache operation {op!r}")
        return serve(self.server, *args)

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop serving: close the listener and every connection, join threads.

        Idempotent, and safe to call while handler threads are mid-request:
        closing a connection wakes its handler out of ``recv``.
        """
        if self._engine is not None:
            if self._running:
                self._running = False
                self._engine.shutdown()
            return
        with self._registry_lock:
            if not self._running:
                return
            self._running = False
            connections = list(self._connections)
            handlers = list(self._handler_threads)
        _close_quietly(self._listener)
        for connection in connections:
            _close_quietly(connection)
        for handler in handlers:
            handler.join(timeout=2.0)
        self._accept_thread.join(timeout=2.0)

    def __enter__(self) -> "CacheServerProcess":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        host, port = self.address
        return f"CacheServerProcess({self.server.name!r} @ {host}:{port}, {self.style})"


# ----------------------------------------------------------------------
# Event-loop engine
# ----------------------------------------------------------------------
class _EventLoopConnection:
    """Per-connection state of the event-loop engine."""

    __slots__ = (
        "sock",
        "assembler",
        "pending",
        "outgoing",
        "in_flight",
        "paused",
        "closed",
        "want_write",
        "greeted",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.assembler = FrameAssembler()
        #: True once the codec handshake reply (if any) has been sent; the
        #: binary-codec client blocks on the ACK before its first frame.
        self.greeted = False
        #: Parsed frames parked behind the backpressure bound; empty while
        #: the connection is under it.
        self.pending: list = []
        #: Responses (each the list of its frame's buffers) not yet fully
        #: written: those the socket would not take, and completions
        #: waiting for this loop iteration's flush.  Replies to a read
        #: normally leave without ever being queued here.
        self.outgoing: list = []
        #: Requests dispatched off this connection whose responses have not
        #: been fully written yet — the quantity backpressure bounds.
        self.in_flight = 0
        self.paused = False
        self.closed = False
        self.want_write = False


class _EventLoopEngine:
    """A ``selectors`` loop serving every connection of one cache node.

    One thread owns the selector: it accepts, reads, cuts frames, and
    writes responses.  The request path is answered **in the event that
    read it**: ``_read`` executes each frame as the parser hands it over
    and writes all their replies with one ``sendmsg`` before the loop goes
    back to ``select``.  Everything else is the overflow route, entered
    only when it is needed.  Maintenance ops are dispatched on a small
    :class:`ThreadPoolExecutor` and their responses come back to the loop
    through a thread-safe outbox plus a socketpair wakeup, so responses are
    written strictly by the loop thread, in completion order — **not**
    arrival order.  Modelled latency is a timer heap inside the loop: a
    delayed response occupies no thread while it "travels".  Both kinds of
    late response, and whatever a full socket refused, wait in
    ``connection.outgoing`` for the loop's next flush.

    Backpressure: when a connection's :attr:`_EventLoopConnection.in_flight`
    reaches ``max_queued_per_connection``, further frames are parked and
    its read interest is dropped — the kernel socket buffer then fills and
    the client's sends stall, which is TCP doing the flow control — and
    reading resumes once the backlog drains below the bound.
    """

    #: Operations dispatched to the worker pool instead of running inline
    #: on the loop thread.  The request path (lookups, puts, probes, the
    #: invalidation stream) is microseconds of lock-synchronized work
    #: (measured medians inside the server on the RUBiS bidding mix: a
    #: lookup batch 13 us, a put 8 us, one invalidation message 12 us,
    #: all index-driven) — a pool handoff costs more than the op — so it
    #: normally runs inline, reactor style.  Maintenance ops can touch the whole store (an
    #: eviction sweep scans everything under the server lock), so they go
    #: to the pool — and while any is in flight the request path detours to
    #: the pool too (see ``_dispatch``), so the loop thread never
    #: queues on a lock a whole-store scan is holding.  This split is what
    #: lets a fast lookup overtake a slow extract pipelined on the same
    #: connection.
    _POOLED_OPS = frozenset(
        {"extract_entries", "install_entries", "discard_keys", "keys", "clear",
         "evict_stale", "key_digest", "keys_in_range"}
    )
    _POOLED_OPCODES = frozenset(OPCODES[op] for op in _POOLED_OPS)

    #: Most buffers handed to one ``sendmsg`` (the kernel's limit is 1024).
    _MAX_GATHER = 256

    def __init__(
        self,
        process: CacheServerProcess,
        listener: socket.socket,
        worker_threads: int,
        max_queued_per_connection: int,
        write_coalescing: bool = True,
    ) -> None:
        self._process = process
        self._listener = listener
        self._max_queued = max_queued_per_connection
        #: With coalescing on, every whole response a connection has
        #: waiting — the replies to all the frames of one read; the pool
        #: completions and fired timers of one loop iteration — rides one
        #: ``sendmsg`` gather instead of one syscall each.
        self._coalesce = write_coalescing
        #: Connections given late responses since the last flush.  Touched
        #: only by the loop thread (workers post via the outbox), so no
        #: lock is needed.
        self._dirty: set = set()
        self.sendmsg_calls = 0
        self._selector = selectors.DefaultSelector()
        listener.setblocking(False)
        self._selector.register(listener, selectors.EVENT_READ, None)
        #: Loop wakeup channel: workers write one byte after posting to the
        #: outbox; the loop drains it and the outbox together.
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._selector.register(self._wake_recv, selectors.EVENT_READ, None)
        self._outbox_lock = threading.Lock()
        self._outbox: deque = deque()  # (connection, response_buffers)
        #: (deliver_at, seq, connection, responses) — modelled-latency timers.
        self._timers: list = []
        self._timer_seq = itertools.count()
        self._pool = ThreadPoolExecutor(
            max_workers=worker_threads,
            thread_name_prefix=f"cache-worker-{process.server.name}",
        )
        #: Maintenance ops currently on the pool.  While nonzero, the
        #: request path detours to the pool as well: a whole-store op may
        #: be holding the CacheServer lock, and the loop thread must never
        #: wait on it (a blocked reactor stalls *every* connection).
        self._pooled_active = 0
        self._pooled_lock = threading.Lock()
        self.backpressure_pauses = 0
        self.max_in_flight = 0
        self._thread = threading.Thread(
            target=self._run, name=f"cache-loop-{process.server.name}", daemon=True
        )
        self._thread.start()

    # -- loop ------------------------------------------------------------
    def _run(self) -> None:
        try:
            while self._process._running:
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
                        if key.fileobj is self._listener:
                            self._accept()
                        else:
                            self._drain_wakeups()
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
            connection = _EventLoopConnection(sock)
            self._selector.register(sock, selectors.EVENT_READ, connection)

    def _drain_wakeups(self) -> None:
        try:
            while self._wake_recv.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            return
        while True:
            with self._outbox_lock:
                if not self._outbox:
                    return
                connection, buffers = self._outbox.popleft()
            self._respond(connection, [buffers])

    def _wake(self) -> None:
        try:
            self._wake_send.send(b"\x00")
        except (BlockingIOError, InterruptedError):
            pass  # a wakeup is already pending; that is enough
        except OSError:
            pass  # shutting down

    def _fire_timers(self) -> None:
        now = time.monotonic()
        while self._timers and self._timers[0][0] <= now:
            _at, _seq, connection, responses = heapq.heappop(self._timers)
            self._flush_later(connection, responses)

    # -- per-connection I/O ---------------------------------------------
    def _read(self, connection: _EventLoopConnection) -> None:
        try:
            data = connection.sock.recv(_RECV_SIZE)
            # No data is EOF; an oversized/corrupt header cannot be resynced.
            frames = connection.assembler.feed(data) if data else None
        except (BlockingIOError, InterruptedError):
            return
        except (OSError, ValueError):
            frames = None
        if frames is None:
            self._close_connection(connection)
            return
        if not connection.greeted and connection.assembler.codec is not None:
            connection.greeted = True
            if connection.assembler.codec == "binary":
                # ACK (or NAK) the binary-codec handshake before serving:
                # the client sends no frames until it hears back, so this
                # one blocking byte cannot stall behind request traffic.
                reply = (
                    BINARY_ACK
                    if self._process.wire_codec == "binary"
                    else BINARY_NAK
                )
                try:
                    connection.sock.send(bytes([reply]))
                except OSError:
                    self._close_connection(connection)
                    return
                if reply == BINARY_NAK:
                    self._close_connection(connection)
                    return
        if frames:
            self._dispatch(connection, frames)

    def _dispatch(self, connection: _EventLoopConnection, frames: list) -> None:
        """Serve ``frames`` behind any parked ones, up to the backpressure bound.

        The request path runs inline on the loop thread (the op is cheaper
        than a pool handoff) and its replies are written together, at once;
        maintenance ops and oversized payloads go to
        the worker pool so they cannot stall the reactor, and while one is
        in flight the request path follows it there (it may be holding the
        server lock; the loop must stay free to read, write, and accept) —
        that split is what lets a fast lookup overtake a slow extract on
        one connection.
        Frames beyond the bound are parked in ``connection.pending`` and the
        connection stops being read; a flush that completes responses
        re-enters here, so the backlog drains in arrival order as capacity
        frees up.
        """
        if connection.pending:
            frames, connection.pending = connection.pending + frames, []
        mode = connection.assembler.mode
        process = self._process
        execute = process._execute_mux if mode == "mux" else process._execute_legacy
        replies: list = []
        for index, (request_id, opcode, body) in enumerate(frames):
            if connection.in_flight >= self._max_queued:
                # At the bound: writing the replies so far usually frees it.
                if replies:
                    self._respond(connection, replies, now=True)
                    replies = []
                if connection.in_flight >= self._max_queued or connection.closed:
                    connection.pending = frames[index:]
                    break
            connection.in_flight += 1
            if connection.in_flight > self.max_in_flight:
                self.max_in_flight = connection.in_flight
            pooled_op = self._should_pool(mode, opcode, body)
            if pooled_op or self._pooled_active:
                # Inline-class ops also detour to the pool while any
                # maintenance op is in flight: it may hold the server lock,
                # and the loop must never block on it.
                if pooled_op:
                    with self._pooled_lock:
                        self._pooled_active += 1
                self._pool.submit(
                    self._work, connection, execute, request_id, opcode, body, pooled_op
                )
            else:
                replies.append(execute(request_id, opcode, body))
        if replies:
            self._respond(connection, replies, now=True)
        should_pause = bool(connection.pending) or connection.in_flight >= self._max_queued
        if should_pause != connection.paused and not connection.closed:
            connection.paused = should_pause
            if should_pause:
                self.backpressure_pauses += 1
            self._update_interest(connection)

    #: Bodies above this size are decoded and served on the pool regardless
    #: of op (a huge install/put payload must not stall the loop).
    _INLINE_BODY_LIMIT = 64 * 1024

    #: Op-name byte tags used to sniff pooled ops out of a legacy frame
    #: (the mux header names the op; a legacy frame buries it in pickle —
    #: the tuple's first element, always within the first few dozen bytes).
    _LEGACY_POOL_TAGS = tuple(op.encode() for op in sorted(_POOLED_OPS))

    def _should_pool(self, mode: str, opcode: int, body: bytes) -> bool:
        if len(body) > self._INLINE_BODY_LIMIT:
            return True
        if mode == "mux":
            return (opcode & OPCODE_MASK) in self._POOLED_OPCODES
        head = body[:64]
        return any(tag in head for tag in self._LEGACY_POOL_TAGS)

    def _work(
        self,
        connection: _EventLoopConnection,
        execute,
        request_id: Optional[int],
        opcode: int,
        body: bytes,
        tracked: bool = False,
    ) -> None:
        """Worker-pool entry: serve one request, post the response."""
        try:
            buffers = execute(request_id, opcode, body)
            with self._outbox_lock:
                self._outbox.append((connection, buffers))
            self._wake()
        finally:
            if tracked:
                with self._pooled_lock:
                    self._pooled_active -= 1

    def _respond(
        self, connection: _EventLoopConnection, responses: list, now: bool = False
    ) -> None:
        """Route completed responses: deliver, or hold for the modelled RTT.

        ``now`` marks the replies to the read in progress, which are written
        before the loop does anything else; a response that completed
        elsewhere joins this loop iteration's flush.
        """
        latency = self._process.simulated_latency_seconds
        if latency > 0.0:
            heapq.heappush(
                self._timers,
                (time.monotonic() + latency, next(self._timer_seq), connection, responses),
            )
        elif now:
            self._flush(connection, responses)
        else:
            self._flush_later(connection, responses)

    def _flush_later(self, connection: _EventLoopConnection, responses: list) -> None:
        connection.outgoing.extend(responses)
        self._dirty.add(connection)

    def _flush_dirty(self) -> None:
        """Flush every connection given late responses since the last flush.

        Runs at the top of the loop body whenever the set is not empty,
        which every ``continue`` path re-enters — no response can sit
        unflushed across a ``select``.  Completing responses can unpark
        frames, whose replies are written at once, not marked dirty.
        """
        dirty, self._dirty = self._dirty, set()
        for connection in dirty:
            self._drain(connection)

    def _drain(self, connection: _EventLoopConnection) -> None:
        """Flush queued output, then serve what its completion unparked."""
        self._flush(connection)
        if (connection.pending or connection.paused) and not connection.closed:
            self._dispatch(connection, [])

    def _flush(self, connection: _EventLoopConnection, fresh: Optional[list] = None) -> None:
        """Write queued responses, then ``fresh`` ones, while the socket takes them.

        With coalescing every whole response waiting rides one ``sendmsg``
        gather; without it each gets its own.  ``connection.outgoing`` is
        touched only to keep what the socket refused: replies handed in as
        ``fresh`` with nothing queued ahead of them — the request path —
        go from the caller's list to the kernel.
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
                batch = queue[done:] if self._coalesce else queue[done : done + 1]
                if len(batch) == 1:
                    views = batch[0]
                else:
                    views = [view for response in batch for view in response]
                sent = connection.sock.sendmsg(views[: self._MAX_GATHER])
                self.sendmsg_calls += 1
                for response in batch:
                    size = sum(map(len, response))
                    if sent < size:
                        # A partial write: keep the unsent tail at the head.
                        while sent >= len(response[0]):
                            sent -= len(response.pop(0))
                        if sent:
                            response[0] = memoryview(response[0])[sent:]
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

    def _update_interest(self, connection: _EventLoopConnection) -> None:
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

    def _close_connection(self, connection: _EventLoopConnection) -> None:
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
        """Stop the loop (called with ``process._running`` already False)."""
        self._wake()
        self._thread.join(timeout=5.0)
        self._pool.shutdown(wait=True)

    def _teardown(self) -> None:
        """Loop-thread exit path: close every socket and the selector."""
        self._flush_dirty()  # best-effort: drain coalesced responses first
        for key in list(self._selector.get_map().values()):
            fileobj = key.fileobj
            if isinstance(key.data, _EventLoopConnection):
                self._close_connection(key.data)
            else:
                try:
                    self._selector.unregister(fileobj)
                except (KeyError, ValueError):
                    pass
        _close_quietly(self._listener)
        for sock in (self._wake_recv, self._wake_send):
            try:
                sock.close()
            except OSError:
                pass
        self._selector.close()


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------
class _MuxConnection:
    """One multiplexed client connection: many RPCs in flight, one socket.

    Callers register a :class:`ResponseSlot` under a fresh ``request_id``
    and write their frame (sends serialized by a per-connection lock).
    Responses are read with one ``recv`` into the connection's
    :class:`FrameAssembler` and demultiplexed by ``request_id`` in one of
    two ways:

    * ``read_lease=True`` (the default): a caller that has sent and finds
      the *read lease* free takes it and reads frames off the socket
      itself, resolving every slot it sees, until its own response lands —
      a single caller never waits on anything but ``recv`` and pays for no
      rendezvous.  (Nobody holds the lease while sending: a sender can
      block, and the node may be unable to read until someone drains its
      replies.)  A caller that finds the lease held follows:
      it blocks on its slot while the holder reads for it.  Releasing the
      lease kicks one waiting follower (without settling its slot) to take
      over, so the lease is never orphaned while requests are outstanding.
    * ``read_lease=False``: the PR-5 arrangement — a dedicated reader
      thread owns ``recv`` and callers only send and block on their slot.

    ``codec="binary"`` performs the binary-codec handshake on construction
    (send :data:`MUX_MAGIC_BINARY`, require :data:`BINARY_ACK` back) and
    then encodes hot ops (:data:`repro.comm.wire.BINARY_OPS`) with the
    compact binary codec; everything else stays pickled.  A server that
    NAKs, closes, or stalls at the handshake raises
    :class:`WireCodecMismatchError` — fail fast, never mis-decode.

    Any I/O failure — including a caller's wait timing out — poisons the
    whole connection: every pending slot fails with
    :class:`CacheNodeUnreachableError` and the owner dials a fresh
    connection on the next call (a stream that lost a response can never
    be trusted again, exactly like the pooled transport's discipline).
    """

    def __init__(
        self,
        sock: socket.socket,
        label: str,
        timeout: Optional[float],
        codec: str = "pickle",
        read_lease: bool = True,
    ) -> None:
        self._sock = sock
        self._label = label
        self._timeout = timeout
        self._binary = codec == "binary"
        self._read_lease = read_lease
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        #: Reusable encode buffer for the multi-lookup batch path (binary
        #: codec only).  Shared per connection: encode + send + view
        #: release all happen under ``_send_lock``.
        self.scratch = wire.EncodeScratch() if self._binary else None
        self._pending: Dict[int, ResponseSlot] = {}
        self._ids = itertools.count(1)
        self._dead: Optional[BaseException] = None
        #: True while some caller is reading the socket (guarded by _lock).
        self._lease_held = False
        hello = bytes([MUX_MAGIC_BINARY if self._binary else MUX_MAGIC])
        #: Cuts responses out of what ``recv`` returns; used only by the
        #: current reader (lease holder or reader thread).  Primed with the
        #: hello byte: responses come back in the framing it asks for.
        self._frames = FrameAssembler()
        self._frames.feed(hello)
        if self._binary:
            # Handshake under the dial timeout (still set on the socket): a
            # pickle-only server NAKs; a server predating the handshake
            # closes or stalls (it reads 0xA8 as a legacy length byte and
            # waits for a header that never comes) — every one of those is
            # a codec mismatch, reported as such instead of a hang.
            try:
                sock.sendall(hello)
                reply = recv_exactly(sock, 1)
            except (ConnectionError, OSError) as exc:
                _close_quietly(sock)
                raise WireCodecMismatchError(
                    f"cache node {label} did not complete the binary-codec "
                    f"handshake ({exc}); it is likely a pickle-only server — "
                    f"use wire_codec='pickle' to talk to it"
                ) from exc
            if reply[0] != BINARY_ACK:
                _close_quietly(sock)
                raise WireCodecMismatchError(
                    f"cache node {label} refused the binary wire codec "
                    f"(handshake reply 0x{reply[0]:02x}); use "
                    f"wire_codec='pickle' to talk to this server"
                )
        else:
            sock.sendall(hello)
        # The socket blocks from here on (an idle connection is fine, and a
        # timeout set for one caller's read would also govern — or, flipped
        # mid-call, fail with EAGAIN — another caller's concurrent send).
        # Caller timeouts are enforced on the slot wait; a leased reader
        # waits for readability under its own deadline.
        sock.settimeout(None)
        self._readable = select.poll()
        self._readable.register(sock, select.POLLIN)
        self._reader: Optional[threading.Thread] = None
        if not read_lease:
            self._reader = threading.Thread(
                target=self._read_loop, name=f"mux-reader-{label}", daemon=True
            )
            self._reader.start()

    @property
    def dead(self) -> bool:
        return self._dead is not None

    def call(self, op: str, args: tuple) -> Tuple[bool, object]:
        """One RPC: returns ``(ok, value_or_error_message)``."""
        opcode = OPCODES.get(op)
        if opcode is None:
            # Fail fast, naming the op — no point paying a round trip for a
            # request the server can only reject.  Same error class and
            # message shape as the server-side rejection of the legacy path.
            raise CacheTransportError(
                f"cache node {self._label}: unknown cache operation {op!r}"
            )
        # This call's absolute deadline: the per-attempt timeout capped by
        # the propagated per-op deadline scope (whichever expires first).
        now = time.monotonic()
        deadline = None if self._timeout is None else now + self._timeout
        scoped = current_deadline()
        if scoped is not None:
            if scoped <= now:
                # The op's deadline budget is already spent (dial, earlier
                # retries, or earlier replicas consumed it): fail before any
                # I/O.  The connection itself is fine — no poisoning.
                raise CacheNodeTimeoutError(
                    f"cache node {self._label}: deadline expired before {op!r}",
                    node=self._label,
                    op=op,
                )
            if deadline is None or scoped < deadline:
                deadline = scoped
        slot = ResponseSlot()
        with self._lock:
            if self._dead is not None:
                raise _classify_unreachable(
                    f"connection to {self._label} is dead: {self._dead}",
                    self._dead,
                    node=self._label,
                    op=op,
                )
            request_id = next(self._ids)
            self._pending[request_id] = slot
        on_wire = False  # True once part of the frame may have been written
        try:
            if self._binary and opcode == _MULTI_LOOKUP_OPCODE:
                # Batch requests encode into the connection's reusable
                # scratch buffer instead of a fresh bytearray per call.
                # Encode must happen under the send lock: the scratch is
                # shared, and the memoryview handed to sendmsg must be
                # released before the next request appends (a live export
                # blocks the bytearray resize).
                with self._send_lock:
                    header, body = self.scratch.encode_request_frame(
                        request_id, opcode, args
                    )
                    try:
                        on_wire = True
                        wire.send_buffers(self._sock, (header, body))
                    finally:
                        body.release()
            else:
                if self._binary and opcode in BINARY_OPCODES:
                    buffers = wire.encode_binary_request_frame(request_id, opcode, args)
                else:
                    buffers = wire.encode_mux_frame(request_id, opcode, args)
                with self._send_lock:
                    on_wire = True
                    wire.send_buffers(self._sock, buffers)
        except BaseException as exc:
            if not on_wire:
                # The request would not encode, so no reply will come: a
                # slot left registered would absorb every lease hand-off
                # meant for a caller that is really waiting.
                with self._lock:
                    self._pending.pop(request_id, None)
                raise
            # Half a frame may be out; nothing sent after it would be framed.
            self.fail(exc)
            if not isinstance(exc, OSError):
                raise
            raise CacheNodeStreamPoisonedError(
                f"cache node {self._label} unreachable: {exc}",
                node=self._label,
                op=op,
            ) from exc
        if self._read_lease:
            # A caller that finds the lease free reads its own reply.  It
            # asks only now: a caller still queued for the send lock or
            # blocked in ``send`` reads nothing, and holding the lease there
            # would keep every other caller's reply in the kernel buffer —
            # for good, if the node is itself blocked sending one of them.
            with self._lock:
                leader = not (self._lease_held or slot.settled)
                if leader:
                    self._lease_held = True
            if leader:
                try:
                    self._read_as_leader(slot, deadline)
                finally:
                    self._release_lease()
                if not slot.settled:
                    # The leader only returns unsettled when its deadline
                    # passed mid-wait; the stream may hold a half-read frame
                    # and can no longer be trusted.
                    self._timeout_poison(op=op)
            elif not slot.settled:
                self._await_leased(slot, deadline, op=op)
        elif not slot.wait(None if deadline is None else deadline - time.monotonic()):
            # The response stream is now untrustworthy (the reply may land
            # after we stop waiting): poison the connection.
            self._timeout_poison(op=op)
        if slot.error is not None:
            raise _classify_unreachable(
                f"cache node {self._label} unreachable: {slot.error}",
                slot.error,
                node=self._label,
                op=op,
            ) from slot.error
        return slot.value  # type: ignore[return-value]

    # -- read lease ------------------------------------------------------
    def _await_leased(
        self, slot: ResponseSlot, deadline: Optional[float], op: Optional[str] = None
    ) -> None:
        """Follow whoever holds the lease until ``slot`` settles.

        Entered only by a caller that found the lease held.  It blocks on
        its slot; woken without a result it was *kicked* (the lease was
        released before its response arrived), so it takes the lease if it
        is still free and reads for itself, else goes back to waiting.
        """
        while True:
            with self._lock:
                # Re-arm *before* the settled check: a resolve landing
                # after the clear sets the event again, so the check-then-
                # wait sequence can never lose that wakeup.
                slot.clear()
                if slot.settled:
                    return
                if self._dead is not None:
                    slot.fail(self._dead)
                    return
                leader = not self._lease_held
                if leader:
                    self._lease_held = True
            if leader:
                try:
                    self._read_as_leader(slot, deadline)
                finally:
                    self._release_lease()
                if slot.settled:
                    return
                self._timeout_poison(op=op)  # deadline passed mid-read
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                self._timeout_poison(op=op)
            slot.wait(remaining)
            # Woken — settled, failed, or merely kicked: the loop top
            # distinguishes the three under the lock.

    def _read_as_leader(self, slot: ResponseSlot, deadline: Optional[float]) -> None:
        """Read and resolve frames until ``slot`` settles or ``deadline``.

        Frames for *other* requests are resolved along the way (their
        callers wake directly off this thread's ``recv``).  A deadline is
        enforced by waiting for the socket to be readable before each read;
        hitting it returns with the slot unsettled and the caller poisons
        the connection.  Any other failure poisons it here.
        """
        try:
            while not slot.settled:
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._readable.poll(remaining * 1000.0):
                        return  # deadline hit mid-read; the caller poisons
                self._read_frames()
        except BaseException as exc:  # noqa: BLE001 - fanned out to callers
            self.fail(exc)

    def _release_lease(self) -> None:
        """Free the lease and kick one waiting caller to contend for it.

        Without the kick a follower could block on its slot with no one
        reading the socket — its response would sit in the kernel buffer
        until its timeout.  Kicking exactly one waiter keeps the handoff
        cheap; that waiter re-kicks when it releases in turn.  A slot
        nobody waits on yet is passed over: its caller is still sending,
        and will look at the lease itself once that is done.
        """
        with self._lock:
            self._lease_held = False
            for pending in self._pending.values():
                if not pending.settled and pending.kick():
                    return

    def _timeout_poison(self, op: Optional[str] = None) -> None:
        exc = CacheNodeTimeoutError(
            f"cache node {self._label} timed out after {self._timeout}s",
            node=self._label,
            op=op,
        )
        self.fail(exc)
        raise exc

    # -- frame resolution (leader and reader thread) ---------------------
    def _read_frames(self) -> None:
        """One ``recv``: settle the slot of every response it completed."""
        data = self._sock.recv(_RECV_SIZE)
        if not data:
            raise ConnectionError("connection closed by peer")
        for request_id, opcode, body in self._frames.feed(data):
            if opcode & FLAG_BIN:
                value = wire.decode_binary_body(body)
            else:
                value = wire.decode_body(opcode & FLAG_OOB, body)
            with self._lock:
                slot = self._pending.pop(request_id, None)
            if slot is not None:
                slot.resolve((opcode & OPCODE_MASK == OP_OK, value))

    def _read_loop(self) -> None:
        try:
            while True:
                self._read_frames()
        except BaseException as exc:  # noqa: BLE001 - fanned out to callers
            self.fail(exc)

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
    """Framed-protocol client to one networked cache node.

    Implements :class:`repro.comm.transport.CacheTransport` in one of two
    modes.  **Pooled** (``pipelined=False``): up to ``pool_size`` persistent
    legacy connections, each carrying one outstanding request at a time —
    ``pool_size`` client threads proceed in parallel, further threads wait
    for a connection to come free.  **Pipelined** (``pipelined=True``): the
    multiplexed framing over ``mux_connections`` (default 1) sockets; every
    client thread's RPC goes out immediately with its own ``request_id``
    and a per-connection reader thread routes responses back, so in-flight
    concurrency no longer costs a socket per thread.

    Thread safety: fully thread-safe in both modes; any number of threads
    may issue RPCs on one transport.  A connection that suffers any I/O
    failure (or a response timeout) is discarded, never reused, and the
    failure surfaces as :class:`CacheNodeUnreachableError`.
    ``connect_timeout_seconds`` bounds dialling and ``timeout_seconds``
    bounds each RPC, so a hung node cannot strand a worker thread.
    :meth:`close` is idempotent.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        name: Optional[str] = None,
        timeout_seconds: float = 30.0,
        connect_timeout_seconds: float = 5.0,
        pool_size: int = DEFAULT_POOL_SIZE,
        pipelined: bool = False,
        mux_connections: int = 1,
        wire_codec: Optional[str] = None,
        mux_read_lease: bool = True,
    ) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be positive")
        if mux_connections < 1:
            raise ValueError("mux_connections must be positive")
        self.address = address
        self.pool_size = pool_size
        self.pipelined = pipelined
        self.mux_connections = mux_connections
        #: Body codec for the hot ops on the pipelined path ("binary" by
        #: default, negotiated at dial time).  The pooled/legacy framing
        #: has no codec byte, so it stays pickle regardless.
        self.wire_codec = wire.resolve_wire_codec(wire_codec)
        self.mux_read_lease = mux_read_lease
        self.timeout_seconds = timeout_seconds
        self.connect_timeout_seconds = connect_timeout_seconds
        #: Guards the idle list / mux slots and the closed flag (never held
        #: during I/O).
        self._lock = threading.Lock()
        #: Bounds in-flight RPCs in pooled mode: one permit per connection.
        self._slots = threading.BoundedSemaphore(pool_size)
        self._idle: List[socket.socket] = []
        self._mux: List[Optional[_MuxConnection]] = [None] * mux_connections
        self._mux_rr = itertools.count()
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
        if pipelined:
            self._mux_connection(0)
        else:
            self._checkin(self._dial())
        self.name = name or self._call("ping")

    # ------------------------------------------------------------------
    def _dial(self) -> socket.socket:
        label = getattr(self, "name", None) or str(self.address)
        connect_timeout = self.connect_timeout_seconds
        remaining = remaining_deadline()
        if remaining is not None:
            # Dialling draws on the same per-op budget as the RPC itself.
            if remaining <= 0:
                raise CacheNodeTimeoutError(
                    f"cache node at {self.address}: deadline expired before dial",
                    node=label,
                )
            if connect_timeout is not None:
                connect_timeout = min(connect_timeout, remaining)
            else:
                connect_timeout = remaining
        try:
            sock = socket.create_connection(self.address, timeout=connect_timeout)
        except socket.timeout as exc:
            raise CacheNodeTimeoutError(
                f"cache node at {self.address} timed out connecting: {exc}",
                node=label,
            ) from exc
        except OSError as exc:
            raise CacheNodeConnectError(
                f"cache node at {self.address} unreachable: {exc}",
                node=label,
            ) from exc
        _set_nodelay(sock)
        sock.settimeout(self.timeout_seconds)
        return sock

    # -- pipelined mode --------------------------------------------------
    def _mux_connection(self, index: Optional[int] = None) -> _MuxConnection:
        """The live mux connection for this call, dialling if necessary."""
        if index is None:
            index = next(self._mux_rr) % self.mux_connections
        with self._lock:
            if self._closed:
                raise CacheNodeUnreachableError(f"transport to {self.address} is closed")
            connection = self._mux[index]
            if connection is not None and not connection.dead:
                return connection
        # Dial outside the lock; first thread to store the fresh connection
        # wins, any race loser's dial is closed again.
        fresh = _MuxConnection(
            self._dial(), label=f"{getattr(self, 'name', None) or self.address}",
            timeout=self.timeout_seconds,
            codec=self.wire_codec if self.pipelined else "pickle",
            read_lease=self.mux_read_lease,
        )
        with self._lock:
            if self._closed:
                fresh.close()
                raise CacheNodeUnreachableError(f"transport to {self.address} is closed")
            current = self._mux[index]
            if current is not None and not current.dead:
                fresh.close()
                return current
            self._mux[index] = fresh
            return fresh

    @property
    def scratch_allocations(self) -> int:
        """Encode-scratch buffers ever allocated across live mux connections.

        1 per binary mux connection in the steady state; the codec
        microbenchmark pins that the multi-lookup batch path does not
        allocate a fresh buffer per request.
        """
        with self._lock:
            connections = list(self._mux)
        return sum(
            connection.scratch.allocations
            for connection in connections
            if connection is not None and connection.scratch is not None
        )

    # -- pooled mode -----------------------------------------------------
    @property
    def pooled_connections(self) -> int:
        """Connections now idle in the pool (0 in pipelined mode).

        The pool dials another connection only while every one it holds is
        carrying an RPC, so on a quiet transport that has lost none to a
        failure this is the most RPCs it ever had in flight at once — the
        count the concurrency benchmark reads to show round trips really
        overlapped.
        """
        with self._lock:
            return len(self._idle)

    def _checkout(self) -> socket.socket:
        """An idle pooled connection, or a freshly dialled one."""
        with self._lock:
            if self._closed:
                raise CacheNodeUnreachableError(
                    f"transport to {self.address} is closed"
                )
            if self._idle:
                return self._idle.pop()
        return self._dial()

    def _checkin(self, sock: socket.socket) -> None:
        with self._lock:
            if not self._closed:
                self._idle.append(sock)
                return
        _close_quietly(sock)  # closed while this call was in flight

    def _call(self, op: str, *args: object) -> object:
        with self._count_lock:
            self.op_counts[op] = self.op_counts.get(op, 0) + 1
        if self.pipelined:
            ok, value = self._mux_connection().call(op, args)
            if not ok:
                raise CacheTransportError(
                    f"cache node {getattr(self, 'name', None) or self.address}: {value}"
                )
            return value
        remaining = remaining_deadline()
        if remaining is not None and remaining <= 0:
            raise CacheNodeTimeoutError(
                f"cache node at {self.address}: deadline expired before {op!r}",
                node=getattr(self, "name", None) or str(self.address),
                op=op,
            )
        with self._slots:
            sock = self._checkout()
            deadline_capped = False
            try:
                remaining = remaining_deadline()
                if remaining is not None and remaining < self.timeout_seconds:
                    # Cap this attempt's read timeout by the per-op budget;
                    # restored below before the socket re-enters the pool.
                    sock.settimeout(max(remaining, 0.001))
                    deadline_capped = True
                send_frame(sock, (op, args))
                response = recv_frame(sock)
            except socket.timeout as exc:
                _close_quietly(sock)
                raise CacheNodeTimeoutError(
                    f"cache node at {self.address} timed out on {op!r}: {exc}",
                    node=getattr(self, "name", None) or str(self.address),
                    op=op,
                ) from exc
            except (ConnectionError, OSError) as exc:
                # Includes mid-stream resets: the connection's request/
                # response stream can no longer be trusted, so drop it; the
                # pool re-dials on the next call.
                _close_quietly(sock)
                raise CacheNodeStreamPoisonedError(
                    f"cache node at {self.address} unreachable: {exc}",
                    node=getattr(self, "name", None) or str(self.address),
                    op=op,
                ) from exc
            except BaseException:
                # Anything else (oversized frame, undecodable payload): the
                # stream may be desynchronized and the fd must not leak —
                # close rather than pool it, then let the error propagate.
                _close_quietly(sock)
                raise
            if deadline_capped:
                sock.settimeout(self.timeout_seconds)
            self._checkin(sock)
        status, value = response
        if status != "ok":
            raise CacheTransportError(f"cache node {self.name or self.address}: {value}")
        return value

    # -- cache operations ----------------------------------------------
    # This is the client end of the wire, the only place a cached value is
    # pickled (on the way in) or unpickled (on the way out): the node keeps
    # and returns ValueBlob bytes.  A record that carries no blob (a miss,
    # or an entry someone put on a thread-hosted node's server directly)
    # passes through as it is.
    def lookup(self, key: str, lo: int, hi: int) -> LookupResult:
        return _unpack_value(self._call("lookup", key, lo, hi))

    def multi_lookup(self, requests: Sequence[LookupRequest]) -> List[LookupResult]:
        results = self._call("multi_lookup", list(requests))
        for result in results:
            _unpack_value(result)
        return results

    def put(
        self,
        key: str,
        value: object,
        interval: Interval,
        tags: FrozenSet[InvalidationTag] = frozenset(),
    ) -> bool:
        return self._call("put", key, ValueBlob.pack(value), interval, tags)

    def probe(self, key: str, lo: int, hi: int) -> bool:
        return self._call("probe", key, lo, hi)

    def was_ever_stored(self, key: str) -> bool:
        return self._call("was_ever_stored", key)

    def evict_stale(self, oldest_useful_timestamp: int) -> int:
        return self._call("evict_stale", oldest_useful_timestamp)

    def clear(self) -> None:
        self._call("clear")

    def stats(self) -> CacheServerStats:
        return self._call("stats")

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
        return self._call(
            "install_entries",
            [
                EntryRecord(r.key, ValueBlob.pack(r.value), r.interval, r.tags)
                for r in records
            ],
        )

    def discard_keys(self, keys: Sequence[str]) -> int:
        return self._call("discard_keys", list(keys))

    def keys(self) -> List[str]:
        return self._call("keys")

    def watermark(self) -> int:
        return self._call("watermark")

    def versions_of(self, key: str) -> list:
        return [_unpack_value(entry) for entry in self._call("versions_of", key)]

    # -- autonomous cluster plane ---------------------------------------
    def gossip(self, digest: dict) -> dict:
        return self._call("gossip", dict(digest))

    def key_digest(self, arcs) -> List[Tuple[int, int, int]]:
        return self._call("key_digest", [tuple(arc) for arc in arcs])

    def keys_in_range(self, arcs) -> List[str]:
        return self._call("keys_in_range", [tuple(arc) for arc in arcs])

    # -- invalidation stream -------------------------------------------
    # Both entry points send ``invalidate_tags``, the one op that carries
    # the stream, and neither calls the other: a tracer wrapping both under
    # one span name must see each delivery once.  Messages are normalized to
    # (timestamp, tags) pairs so both body codecs carry the identical
    # payload: tags are hot-path binary values (_T_TAG), and the pickle path
    # round-trips the same tuples.
    def process_invalidation(self, message: InvalidationMessage) -> None:
        self._call("invalidate_tags", [(message.timestamp, tuple(message.tags))])

    def process_invalidations(self, messages: Sequence[InvalidationMessage]) -> None:
        self._call(
            "invalidate_tags",
            [(message.timestamp, tuple(message.tags)) for message in messages],
        )

    def note_timestamp(self, timestamp: int) -> None:
        self._call("note_timestamp", timestamp)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Close every connection; idempotent.

        Pooled calls already in flight finish their round trip (their
        connection is closed when they check it back in); pipelined calls
        in flight fail with :class:`CacheNodeUnreachableError`.  New calls
        fail immediately.
        """
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
            mux, self._mux = list(self._mux), [None] * self.mux_connections
        for sock in idle:
            _close_quietly(sock)
        for connection in mux:
            if connection is not None:
                connection.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        host, port = self.address
        mode = "pipelined" if self.pipelined else f"pooled[{self.pool_size}]"
        return f"SocketTransport({self.name!r} @ {host}:{port}, {mode})"


def _unpack_value(record):
    """Unpickle, in place, the blob a just-decoded record carries.

    ``record`` is a LookupResult, EntryRecord or CacheEntry fresh off the
    wire, so nothing else holds it; two of the three are frozen, hence the
    ``object.__setattr__``.
    """
    value = record.value
    if type(value) is ValueBlob:
        object.__setattr__(record, "value", value.unpack())
    return record


def _close_quietly(sock: socket.socket) -> None:
    # shutdown() wakes any thread blocked in recv() on this socket — a bare
    # close() does not reliably do so — so graceful teardown doesn't hang
    # waiting on handler threads.
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # never connected, or the peer already went away
    try:
        sock.close()
    except OSError:  # pragma: no cover - close never raises on Linux
        pass
