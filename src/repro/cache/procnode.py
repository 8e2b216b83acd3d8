"""Out-of-process cache nodes: one OS process per node.

Thread-hosted "networked" nodes (:class:`repro.cache.netserver.CacheServerProcess`)
share the coordinator's interpreter and its GIL.  :class:`CacheNodeHost`
spawns the node as its **own OS process** running the same event-loop
serving engine in an interpreter of its own.  :func:`start_node`, which the
cluster imports only for a networked node, starts and dials either kind.

Design notes:

* **Spawn-safe entry point.**  :func:`_node_main` is a module-level
  function whose arguments are all picklable (node name, bind address,
  capacity, serving limits), so the host works under every
  multiprocessing start method.  ``fork`` is preferred when available — a forked node is serving in single-digit
  milliseconds, where ``spawn`` pays a full interpreter start.
* **Readiness handshake over a pipe.**  The child builds its
  :class:`~repro.cache.server.CacheServer` +
  :class:`~repro.cache.netserver.CacheServerProcess` and reports
  ``("ready", address)`` — or ``("error", message)`` — before the parent's
  constructor returns, so a node that fails to bind or crashes on import
  surfaces as a constructor exception, never a hung dial.
* **Invalidation delivery.**  The in-process
  :class:`~repro.comm.multicast.InvalidationBus` cannot call into another
  address space; out-of-process nodes receive the invalidation stream
  over the wire instead (the ``invalidate_tags`` op — see
  :meth:`repro.cache.netserver.SocketTransport.process_invalidations`).
* **Supervision.**  The parent end exposes ``running`` / ``exitcode``;
  a dead child makes every RPC fail with
  :class:`~repro.comm.transport.CacheNodeUnreachableError`, which feeds
  the cluster's existing suspect → evict path.  :meth:`shutdown`
  escalates graceful pipe shutdown → ``terminate()`` → ``kill()`` and
  always reaps the child — no zombies, and the node's port dies with the
  process.  :meth:`kill` (SIGKILL, no warning) exists for crash tests.
* **CPUs.**  The child runs on the CPUs of the process that spawned it:
  pin the parent (``os.sched_setaffinity``) and its nodes inherit the
  same set.
"""

from __future__ import annotations

import multiprocessing
import sys
from typing import Optional, Tuple

from repro.cache.netserver import DEFAULT_MAX_QUEUED_PER_CONNECTION
from repro.cache.netserver import CacheServerProcess, SocketTransport
from repro.cache.server import CacheServer
from repro.comm.transport import CacheNodeUnreachableError

__all__ = ["CacheNodeHost", "preferred_start_method", "start_node"]

#: How long the parent waits for the child's readiness message before
#: declaring the node unreachable and reaping it.
DEFAULT_READY_TIMEOUT_SECONDS = 30.0


def preferred_start_method() -> str:
    """The multiprocessing start method node hosts use by default.

    ``fork`` where the platform offers it (fast enough to start nodes in
    tests by the dozen), otherwise ``spawn``.  The entry point is
    spawn-safe either way.
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _node_main(
    parent_conn,
    conn,
    name: str,
    host: str,
    port: int,
    capacity_bytes: int,
    simulated_latency_seconds: float,
    max_queued_per_connection: int,
) -> None:
    """Child entry point: serve one cache node until told to stop.

    Module-level and fully picklable-argument so it survives ``spawn``.
    The main thread parks on the control pipe; the node runs on its one
    event-loop thread.  EOF on the pipe (the parent died without
    calling :meth:`CacheNodeHost.shutdown`) counts as a shutdown order, so
    an orphaned node exits instead of squatting on its port forever.
    """
    # Under fork the child inherits the parent's end of the pipe too; close
    # it so EOF detection works (otherwise this process itself holds the
    # write end open and recv() below could never see EOF).
    if parent_conn is not None:
        try:
            parent_conn.close()
        except OSError:
            pass
    try:
        server = CacheServer(name=name, capacity_bytes=capacity_bytes)
        process = CacheServerProcess(
            server,
            host=host,
            port=port,
            simulated_latency_seconds=simulated_latency_seconds,
            max_queued_per_connection=max_queued_per_connection,
        )
    except BaseException as exc:  # noqa: BLE001 - reported over the pipe
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass
        sys.exit(1)
    try:
        conn.send(("ready", process.address))
        try:
            conn.recv()  # blocks until the shutdown order (or parent EOF)
        except (EOFError, OSError):
            pass  # parent died: treat as shutdown
    finally:
        process.shutdown()
        try:
            conn.close()
        except OSError:
            pass
    sys.exit(0)


class CacheNodeHost:
    """One cache node hosted in its own OS process.

    Duck-types the lifecycle surface of
    :class:`~repro.cache.netserver.CacheServerProcess` that the cluster
    uses (``address``, ``running``, ``shutdown()``, context manager), plus
    process-only surface: ``pid``, ``exitcode``, and :meth:`kill` for
    crash testing.  The wrapped :class:`CacheServer` lives in the child,
    so :attr:`server` is ``None`` — callers introspect the node over the
    wire (``stats``/``keys``/...) like any remote deployment would.
    """

    #: No in-process server object to reach into (it lives in the child).
    server = None

    def __init__(
        self,
        name: str,
        host: str = "127.0.0.1",
        port: int = 0,
        capacity_bytes: int = 64 * 1024 * 1024,
        simulated_latency_seconds: float = 0.0,
        max_queued_per_connection: int = DEFAULT_MAX_QUEUED_PER_CONNECTION,
    ) -> None:
        self.name = name
        context = multiprocessing.get_context(preferred_start_method())
        self._conn, child_conn = context.Pipe()
        # Under spawn the parent's end is not inherited, so the child gets
        # None for it; under fork it must close its inherited copy.
        inherited_parent_end = self._conn if context.get_start_method() == "fork" else None
        self._proc = context.Process(
            target=_node_main,
            args=(
                inherited_parent_end,
                child_conn,
                name,
                host,
                port,
                capacity_bytes,
                simulated_latency_seconds,
                max_queued_per_connection,
            ),
            name=f"cache-node-{name}",
            daemon=True,  # a crashed coordinator must not leave nodes behind
        )
        self._shutdown = False
        self._final_exitcode: Optional[int] = None
        self._proc.start()
        self._pid = self._proc.pid
        child_conn.close()  # the child's end lives in the child now
        self.address: Tuple[str, int] = self._await_ready(DEFAULT_READY_TIMEOUT_SECONDS)

    def _await_ready(self, timeout: float) -> Tuple[str, int]:
        try:
            if not self._conn.poll(timeout):
                raise CacheNodeUnreachableError(
                    f"cache node process {self.name!r} (pid {self._proc.pid}) "
                    f"sent no readiness handshake within {timeout}s"
                )
            message = self._conn.recv()
        except CacheNodeUnreachableError:
            self._abort()
            raise
        except (EOFError, OSError) as exc:
            self._abort()
            raise CacheNodeUnreachableError(
                f"cache node process {self.name!r} died before becoming ready "
                f"(exit code {self.exitcode}): {exc}"
            ) from exc
        if message[0] != "ready":
            self._abort()
            raise CacheNodeUnreachableError(
                f"cache node process {self.name!r} failed to start: {message[1]}"
            )
        return tuple(message[1])

    def _abort(self) -> None:
        """Startup failed: make sure the child is dead, then reap it."""
        self._shutdown = True
        self._proc.join(timeout=1.0)  # a failed child normally exits itself
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join(timeout=5.0)
        self._reap()

    # ------------------------------------------------------------------
    @property
    def pid(self) -> Optional[int]:
        return self._pid

    @property
    def exitcode(self) -> Optional[int]:
        """The child's exit code (None while it is still running).

        0 is a graceful shutdown; negative N means signal N (e.g. -9 after
        :meth:`kill`).  Still readable after :meth:`shutdown` reaps the
        process object.
        """
        if self._final_exitcode is not None:
            return self._final_exitcode
        try:
            return self._proc.exitcode
        except ValueError:  # pragma: no cover - reaped without a code
            return self._final_exitcode

    @property
    def running(self) -> bool:
        """True while the child process is alive and not shut down."""
        if self._shutdown:
            return False
        try:
            return self._proc.is_alive()
        except ValueError:  # pragma: no cover - already reaped
            return False

    # ------------------------------------------------------------------
    def kill(self) -> None:
        """SIGKILL the child (crash injection for lifecycle tests).

        Does *not* mark the host as shut down: the supervision path is
        expected to notice the dead node (RPC failures → suspect → evict)
        and :meth:`shutdown` still reaps the corpse afterwards.
        """
        self._proc.kill()
        self._proc.join(timeout=5.0)

    def shutdown(self) -> None:
        """Stop and reap the node; idempotent.

        Escalation ladder: a shutdown order over the pipe (the child exits
        gracefully, closing its listener), then ``terminate()`` (SIGTERM),
        then ``kill()`` (SIGKILL) — each with a bounded join, so this
        never hangs and never leaves a zombie or a bound port behind.
        """
        if self._shutdown:
            return
        self._shutdown = True
        try:
            self._conn.send(("shutdown",))
        except (OSError, ValueError, BrokenPipeError):
            pass  # child already dead (or pipe torn down): escalate below
        self._proc.join(timeout=5.0)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=2.0)
        if self._proc.is_alive():  # pragma: no cover - SIGTERM ignored
            self._proc.kill()
            self._proc.join(timeout=2.0)
        self._reap()

    def _reap(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass
        if self._proc.is_alive():  # pragma: no cover - defensive
            return
        self._proc.join(timeout=0.0)
        self._final_exitcode = self._proc.exitcode
        try:
            self._proc.close()  # releases the Process object's resources
        except ValueError:  # pragma: no cover - still alive (defensive above)
            pass

    def __enter__(self) -> "CacheNodeHost":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        host, port = self.address
        state = "up" if self.running else f"exit={self.exitcode}"
        return f"CacheNodeHost({self.name!r} @ {host}:{port}, pid={self.pid}, {state})"


def start_node(
    kind: str,
    name: str,
    capacity_bytes: int,
    address: Optional[Tuple[str, int]] = None,
    simulated_latency_seconds: float = 0.0,
    timeout_seconds: float = 30.0,
) -> Tuple[Optional[CacheServer], Optional[object], SocketTransport]:
    """Start one networked cache node and dial it: ``(server, host, transport)``,
    ``host`` a :class:`~repro.cache.netserver.CacheServerProcess` or a
    :class:`CacheNodeHost`.

    ``kind`` is ``"socket"`` (a local :class:`CacheServer` served from a
    thread) or ``"socket-process"`` (a child process: no local server).
    Given ``address`` the node runs elsewhere and is only dialled.  A node
    reads no clock, so none crosses to it.  If the first dial fails, the
    node just started is stopped before the error propagates.
    """
    server = host = None
    if address is None:
        if kind == "socket-process":
            host = CacheNodeHost(
                name, capacity_bytes=capacity_bytes,
                simulated_latency_seconds=simulated_latency_seconds,
            )
        else:
            server = CacheServer(name=name, capacity_bytes=capacity_bytes)
            host = CacheServerProcess(server, simulated_latency_seconds=simulated_latency_seconds)
        address = host.address
    try:
        transport = SocketTransport(address, name=name, timeout_seconds=timeout_seconds)
    except BaseException:
        if host is not None:
            host.shutdown()
        raise
    return server, host, transport
