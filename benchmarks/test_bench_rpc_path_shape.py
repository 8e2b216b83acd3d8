"""An RPC costs the round trip.

One cache RPC from a single caller is one request frame written, one
response frame read, and — at the node — one reply written in the event
that read the request.  Asserted as *shape*, by counting (deterministic, no
clock): the client's socket calls, rendezvous objects and call events per
RPC under ``sys.setprofile``, the node's ``sendmsg`` counter and the call
events on its loop thread per RPC.  The microseconds are printed beside a
bare ping-pong floor, never asserted.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import sys
import threading
import time
from collections import Counter


from repro.cache.entry import LookupRequest, ValueBlob
from repro.cache.netserver import CacheServerProcess, SocketTransport
from repro.cache.procnode import CacheNodeHost
from repro.cache.server import CacheServer
from repro.comm import wire
from repro.db.invalidation import InvalidationTag
from repro.interval import Interval
from tests.helpers import recv_exactly

RPCS = 1000
REQUESTS = [LookupRequest("k", 1, 5, 1)]

#: Call events (``'call'`` + ``'c_call'``, CPython 3.11) on the client per
#: hit ``multi_lookup``, from ``SocketTransport.multi_lookup`` down to the
#: socket and back, codec included.  The commit before the wire path was
#: collapsed measured 128 with this same test (143 on a request with more in
#: it); the collapsed path measured 82, and one pass through the client
#: call, with ``multi_lookup``'s body written without the generic walk,
#: measured 63; with a tag a named tuple (hashed in C, built in C by the
#: decoder), 61; and 59 once the call no longer reads a per-op deadline
#: scope.  The bound is the count plus 25 % headroom, as in
#: test_bench_lookup_path_shape.py.
CALL_EVENTS_PER_RPC_MEASURED = 59
CALL_EVENTS_PER_RPC_BOUND = CALL_EVENTS_PER_RPC_MEASURED * 1.25

#: Call events, counted the same way, on a thread-hosted node's loop thread
#: per hit ``multi_lookup`` from one caller: ``select`` handing over the
#: request, its decode, the lookup, the reply's encode and its ``sendmsg``.
#: Serving each frame through the dispatch/respond/flush route measured 91;
#: serving a lone frame in place, with the one-buffer lookup reply, 68.
NODE_CALL_EVENTS_PER_RPC_MEASURED = 68
NODE_CALL_EVENTS_PER_RPC_BOUND = NODE_CALL_EVENTS_PER_RPC_MEASURED * 1.25


def _transport(address):
    return SocketTransport(address)


VALUE = {"row": list(range(10))}
TAGS = frozenset({InvalidationTag("items", "id", 7)})


def _store_the_hit(transport):
    transport.put("k", VALUE, Interval(1, None), TAGS)
    (result,) = transport.multi_lookup(REQUESTS)
    assert result.hit


def _hit(transport):
    for _ in range(RPCS):
        (result,) = transport.multi_lookup(REQUESTS)
        assert result.hit


def test_one_rpc_is_one_send_and_one_receive_on_the_client():
    host = CacheNodeHost("shape", capacity_bytes=8 * 1024 * 1024)
    transport = _transport(host.address)
    python_calls: Counter = Counter()
    c_calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            python_calls[frame.f_code] += 1
        elif event == "c_call":
            c_calls[getattr(arg, "__qualname__", repr(arg))] += 1

    try:
        _store_the_hit(transport)
        sys.setprofile(profile)
        try:
            _hit(transport)
        finally:
            sys.setprofile(None)
    finally:
        transport.close()
        host.shutdown()
    calls = {name: count for name, count in c_calls.items() if name.startswith("socket.")}
    sends = sum(count for name, count in calls.items() if "send" in name)
    receives = sum(count for name, count in calls.items() if "recv" in name)
    assert calls["socket.sendmsg"] == sends == RPCS, calls
    assert calls["socket.recv"] == receives == RPCS, calls
    # A caller that reads its own reply builds nothing to wait on.
    for rendezvous in (threading.Event, threading.Condition):
        assert python_calls[rendezvous.__init__.__code__] == 0, rendezvous
    assert c_calls["allocate_lock"] == 0
    events = (sum(python_calls.values()) + sum(c_calls.values())) / RPCS
    print(f"\nclient call events per hit RPC: {events:.1f}")
    assert events <= CALL_EVENTS_PER_RPC_BOUND, (
        f"{events:.1f} call events per RPC; measured {CALL_EVENTS_PER_RPC_MEASURED} "
        "when this bound was set:\n" + _call_events_report(python_calls, c_calls, RPCS)
    )


def _node():
    server = CacheServer(name="shape", capacity_bytes=8 * 1024 * 1024)
    return CacheServerProcess(server)


def _call_events_report(python_calls, c_calls, rpcs):
    return "\n".join(
        f"  {count / rpcs:5.1f}  {code.co_filename.rsplit('/', 1)[-1]}:{code.co_name}"
        for code, count in python_calls.most_common()
    ) + "\n" + "\n".join(f"  {count / rpcs:5.1f}  {name}" for name, count in c_calls.most_common())


def _settled(process, at_least):
    """The node's ``sendmsg`` count, once it has caught up with ``at_least``.

    The loop thread bumps the counter after the syscall, which a client can
    outrun by one reply; it never counts a ``sendmsg`` that did not happen.
    """
    deadline = time.monotonic() + 5.0
    while process.sendmsg_calls < at_least and time.monotonic() < deadline:
        time.sleep(0.001)
    return process.sendmsg_calls


def test_the_node_writes_each_reply_in_the_event_that_read_the_request():
    python_calls: Counter = Counter()
    c_calls: Counter = Counter()
    recording = [False]

    def profile(frame, event, arg):
        if recording[0]:
            if event == "call":
                python_calls[frame.f_code] += 1
            elif event == "c_call":
                c_calls[getattr(arg, "__qualname__", repr(arg))] += 1

    # Installed for threads started from here: the node's loop thread only.
    threading.setprofile(profile)
    try:
        process = _node()
    finally:
        threading.setprofile(None)
    with process:
        transport = _transport(process.address)
        try:
            _store_the_hit(transport)
            before = _settled(process, sum(transport.op_counts.values()))
            assert before == sum(transport.op_counts.values())
            recording[0] = True
            _hit(transport)
            assert _settled(process, before + RPCS) == before + RPCS
            recording[0] = False
        finally:
            transport.close()
    assert process.sendmsg_calls == before + RPCS  # exact: the loop is joined
    assert process.backpressure_pauses == 0
    assert process.max_in_flight_per_connection == 1
    events = (sum(python_calls.values()) + sum(c_calls.values())) / RPCS
    print(f"\nnode loop call events per hit RPC: {events:.1f}")
    assert events <= NODE_CALL_EVENTS_PER_RPC_BOUND, (
        f"{events:.1f} call events per RPC on the node; measured "
        f"{NODE_CALL_EVENTS_PER_RPC_MEASURED} when this bound was set:\n"
        + _call_events_report(python_calls, c_calls, RPCS)
    )


def test_a_burst_read_in_one_event_is_answered_in_one_gather():
    burst = 32
    stream = bytearray([wire.WIRE_VERSION])
    for request_id in range(burst):
        for buffer in wire.encode_binary_mux_frame(request_id, wire.OPCODES["ping"], ()):
            stream += buffer
    with _node() as process:
        sock = socket.create_connection(process.address, timeout=10)
        try:
            sock.sendall(stream)  # one segment: one readable event at the node
            replied = set()
            for _ in range(burst):
                request_id, opcode, length = wire.MUX_HEADER.unpack(
                    recv_exactly(sock, wire.MUX_HEADER.size)
                )
                assert opcode == wire.OP_OK
                assert wire.decode_binary_body(recv_exactly(sock, length)) == "shape"
                replied.add(request_id)
            assert replied == set(range(burst))
        finally:
            sock.close()
    assert process.sendmsg_calls == 1
    assert process.max_in_flight_per_connection == burst


# ----------------------------------------------------------------------
# Printed, not asserted: microseconds beside the floor
# ----------------------------------------------------------------------
def _echo(listener):  # pragma: no cover - runs in the child process
    connection, _ = listener.accept()
    connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    while True:
        data = connection.recv(4096)
        if not data:
            return
        connection.sendall(data)


def _fastest_batch_us(action, batches=60, size=250):
    """Microseconds per call in the fastest batch: what the path costs when
    nobody else has the CPU, which is the only repeatable figure on a
    shared machine."""
    best = float("inf")
    for _ in range(batches):
        started = time.perf_counter()
        for _ in range(size):
            action()
        best = min(best, (time.perf_counter() - started) / size * 1e6)
    return best


def test_print_microseconds_per_rpc_beside_the_ping_pong_floor():
    """Where one hit RPC's time goes (README "What an RPC costs").

    The whole: a hit ``multi_lookup`` against a process-hosted node.  The
    parts that are not plumbing, each replayed alone: 64 bytes there and
    back between two bare Python sockets (the floor), the codec's four
    steps plus the value's unpickling, and the node's lookup.  Both socket
    pairs share one CPU, as the trusted benchmark's processes do.
    """
    pinned = hasattr(os, "sched_setaffinity")
    cpu = min(os.sched_getaffinity(0)) if pinned else None
    before = os.sched_getaffinity(0) if pinned else None
    context = multiprocessing.get_context("fork")
    listener = socket.create_server(("127.0.0.1", 0))
    try:
        if pinned:
            os.sched_setaffinity(0, {cpu})  # inherited by both children
        echo = context.Process(target=_echo, args=(listener,), daemon=True)
        echo.start()
        peer = socket.create_connection(listener.getsockname()[:2], timeout=10)
        peer.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        payload = b"x" * 64

        def ping_pong():
            peer.sendall(payload)
            assert len(peer.recv(4096)) == 64

        try:
            floor = _fastest_batch_us(ping_pong)
        finally:
            peer.close()
            echo.join(timeout=5)
            if echo.is_alive():
                echo.kill()
        host = CacheNodeHost("shape", capacity_bytes=8 * 1024 * 1024)
        transport = _transport(host.address)
        try:
            _store_the_hit(transport)
            rpc = _fastest_batch_us(lambda: transport.multi_lookup(REQUESTS))
        finally:
            transport.close()
            host.shutdown()

        server = CacheServer(name="shape", capacity_bytes=8 * 1024 * 1024)
        server.put("k", ValueBlob.pack(VALUE), Interval(1, None), TAGS)  # as a socket node holds it
        opcode = wire.OPCODES["multi_lookup"]
        request = bytes(wire.encode_binary_args(opcode, (REQUESTS,)))
        response = bytes(wire.encode_binary_body(server.multi_lookup(REQUESTS)))

        def codec():
            wire.encode_binary_args(opcode, (REQUESTS,))
            (requests,) = wire.decode_binary_args(opcode, request)
            (result,) = wire.decode_binary_body(response)
            wire.encode_binary_body([result])
            result.value.unpack()

        coded = _fastest_batch_us(codec)
        looked_up = _fastest_batch_us(lambda: server.multi_lookup(REQUESTS))
    finally:
        listener.close()
        if pinned:
            os.sched_setaffinity(0, before)
    print(
        f"\none hit multi_lookup, process-hosted node: {rpc:6.1f} us"
        f"\n  bare 64-byte TCP ping-pong (the floor):  {floor:6.1f} us"
        f"\n  codec, four steps + value unpickle:      {coded:6.1f} us"
        f"\n  the node's lookup:                       {looked_up:6.1f} us"
        f"\n  everything else (plumbing):              {rpc - floor - coded - looked_up:6.1f} us"
        f"\n(fastest batch of 250; both ends on {'CPU %d' % cpu if pinned else 'any CPU'})"
    )
    assert min(rpc, floor, coded, looked_up) > 0
