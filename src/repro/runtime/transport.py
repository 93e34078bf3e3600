"""Pluggable live transports: one interface, loopback and real TCP.

A transport moves wire frames between named endpoints (overlay node
ids, plus short-lived string addresses during joins).  Both flavours
share the same contract:

* ``bind(addr, handler, host=...)`` registers an endpoint; ``handler``
  is an async callable receiving each delivered :class:`Frame`;
* ``send(src, dst, frame)`` is fire-and-forget: it returns once the
  frame is *in flight* (True) or known undeliverable (False);
* **payload encoding** -- ``encoding="packed"`` selects the struct
  fast path of :mod:`repro.runtime.wire` for hot frame kinds (JSON
  stays the automatic fallback for everything else), ``"json"`` keeps
  every payload as JSON; both decode to identical payload dicts;
* **latency shaping** -- when built with a
  :class:`~repro.netsim.distance.DistanceOracle` and a
  ``latency_scale``, each frame is delayed by the one-way latency
  between the endpoints' physical hosts, so a live run reproduces the
  transit-stub RTT matrix at any chosen time dilation;
* **fault injection** -- an armed
  :class:`~repro.netsim.faults.FaultInjector` decides per-frame
  drops (message loss, partitions, crashed hosts) from the same
  deterministic plans the simulator uses.

:class:`LoopbackTransport` stays in-process (frames still round-trip
through the binary codec, so the wire format is exercised on every
test) and is deterministic and fast; unshaped frames are delivered
inline from ``send`` rather than through a spawned task, so the hot
path costs a codec round-trip and a mailbox put -- no scheduler hop.
:class:`TcpTransport` runs one server per endpoint on localhost and
speaks the length-prefixed protocol over real sockets; endpoints may
live in different processes as long as they share the address book.
Its socket plane, :class:`SocketTransport` (shared with the sharded
runtime's peering links), runs on ``asyncio.Protocol``: no task per
received frame, and one write per destination per loop turn.
"""

from __future__ import annotations

import asyncio
import sys
import types

from repro.runtime.wire import (
    Frame,
    FrameDecoder,
    ProtocolError,
    encode_frame,
    roundtrip_payload,
)


class TransportError(Exception):
    """An endpoint could not be reached (unbound, closed, refused)."""


class Transport:
    """Shared plumbing: endpoint registry, encoding, shaping, faults."""

    #: short name used by :func:`make_transport` and reports
    kind = "base"

    def __init__(
        self, oracle=None, latency_scale: float = 0.0, faults=None,
        encoding: str = "json",
    ):
        if encoding not in ("json", "packed"):
            raise ValueError(
                f"unknown wire encoding {encoding!r} (want 'json' or 'packed')"
            )
        #: :class:`DistanceOracle` driving per-frame delays (or None)
        self.oracle = oracle
        #: wall seconds of delay per simulated millisecond of one-way
        #: latency; 0 disables shaping entirely
        self.latency_scale = float(latency_scale)
        #: armed :class:`FaultInjector` deciding drops (or None)
        self.faults = faults
        #: payload encoding: "json" or "packed" (struct fast path)
        self.encoding = encoding
        self._packed = encoding == "packed"
        #: addr -> physical host id, for shaping and fault decisions
        self.hosts: dict = {}
        self.sent = 0
        self.dropped = 0
        self.delivered = 0
        #: frames refused because a destination's outbox was full
        self.backpressure_drops = 0
        #: delivered frames whose handler raised
        self.handler_errors = 0
        self._tasks: set = set()
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Prepare shared machinery (no-op for both built-ins)."""

    async def bind(self, addr, handler, host: int = None) -> None:
        raise NotImplementedError

    async def unbind(self, addr) -> None:
        raise NotImplementedError

    async def close(self) -> None:
        self._closed = True
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()

    def counters(self) -> dict:
        """Frame-accounting totals, in the shape stats aggregation merges.

        Subclasses with extra planes (the sharded runtime's
        :class:`~repro.runtime.shard.PeeringTransport`) override this
        with their own breakdown; the keys stay summable numbers.
        """
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "backpressure_drops": self.backpressure_drops,
            "handler_errors": self.handler_errors,
        }

    # -- shaping and faults ------------------------------------------------

    def delay_for(self, src, dst) -> float:
        """Wall seconds this frame spends 'on the wire'."""
        if self.oracle is None or self.latency_scale <= 0.0:
            return 0.0
        src_host = self.hosts.get(src)
        dst_host = self.hosts.get(dst)
        if src_host is None or dst_host is None or src_host == dst_host:
            return 0.0
        return float(self.oracle.distance(src_host, dst_host)) * self.latency_scale

    def drops(self, src, dst) -> bool:
        """Would the armed fault plan drop this frame?"""
        if self.faults is None or not self.faults.armed:
            return False
        src_host = self.hosts.get(src)
        dst_host = self.hosts.get(dst)
        if src_host is None or dst_host is None:
            return False
        return not self.faults.deliver(src_host, dst_host)

    def _spawn(self, coroutine) -> None:
        task = asyncio.get_running_loop().create_task(coroutine)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def send(self, src, dst, frame: Frame) -> bool:
        raise NotImplementedError


class LoopbackTransport(Transport):
    """In-process delivery through the codec: fast and deterministic."""

    kind = "loopback"

    def __init__(
        self, oracle=None, latency_scale: float = 0.0, faults=None,
        encoding: str = "json",
    ):
        super().__init__(oracle, latency_scale, faults, encoding)
        self._handlers: dict = {}

    async def bind(self, addr, handler, host: int = None) -> None:
        if addr in self._handlers:
            raise TransportError(f"address {addr!r} already bound")
        self._handlers[addr] = handler
        if host is not None:
            self.hosts[addr] = int(host)

    async def unbind(self, addr) -> None:
        self._handlers.pop(addr, None)
        self.hosts.pop(addr, None)

    async def send(self, src, dst, frame: Frame) -> bool:
        if self._closed:
            raise TransportError("transport is closed")
        self.sent += 1
        # round-trip the payload through the codec so loopback runs
        # carry exactly what TCP would decode (the fixed 16-byte
        # header needs no such fidelity check per frame)
        frame = Frame(
            frame.kind,
            frame.request_id,
            roundtrip_payload(frame.kind, frame.payload, self._packed),
        )
        if self.drops(src, dst):
            self.dropped += 1
            return False
        handler = self._handlers.get(dst)
        if handler is None:
            self.dropped += 1
            return False
        delay = self.delay_for(src, dst)
        if delay <= 0.0:
            # unshaped fast path: deliver inline -- the handler only
            # enqueues (mailbox put / future resolution), so this never
            # blocks and saves a task spawn plus a scheduler round-trip
            # per frame
            self.delivered += 1
            await handler(frame)
            return True
        self._spawn(self._deliver(dst, frame, delay))
        return True

    async def _deliver(self, dst, frame: Frame, delay: float) -> None:
        if delay > 0.0:
            await asyncio.sleep(delay)
        handler = self._handlers.get(dst)
        if handler is None:  # unbound while the frame was in flight
            self.dropped += 1
            return
        self.delivered += 1
        await handler(frame)


if sys.version_info >= (3, 12):

    def _start(coro):
        """Run ``coro`` on an eager task; return the task if it suspended."""
        loop = asyncio.get_running_loop()
        task = asyncio.Task(coro, loop=loop, eager_start=True)
        if not task.done():
            return task
        task.result()  # re-raise what the handler raised
        return None

else:

    def _start(coro):
        """Step ``coro`` outside any task; finish it on one if it suspends.

        Before 3.12 there are no eager tasks, so that first step runs
        with no current task: a handler must not need one (as
        ``asyncio.timeout`` does) before it first suspends.
        """
        try:
            waiting = coro.send(None)
        except StopIteration:
            return None
        return asyncio.ensure_future(_resume(coro, waiting))

    @types.coroutine
    def _resume(coro, waiting):
        """Re-yield the first step's ``waiting``, then forward every step."""
        while True:
            try:
                value = yield waiting
            except BaseException as exc:
                step, value = coro.throw, exc
            else:
                step = coro.send
            try:
                waiting = step(value)
            except StopIteration:
                return


class _Inbound(asyncio.Protocol):
    """One accepted connection: decode each chunk, start handlers in order.

    ``deliver(item)`` turns a decoded item into its handler's coroutine
    (None: skip it), started eagerly by :func:`_start`.  A handler that
    suspends does not hold up later frames -- the reply it awaits may
    ride this very connection -- but ``MAX_SUSPENDED`` unfinished ones
    pause reading, so slow handlers backpressure their sender.  A
    raising handler counts ``handler_errors``; the stream goes on.
    """

    #: unfinished handlers a connection holds before it pauses reading
    MAX_SUSPENDED = 64

    def __init__(self, plane, decoder, deliver):
        self.plane = plane
        self.decoder = decoder
        self.deliver = deliver
        self.transport = None
        self.suspended = 0

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.plane._readers.add(transport)

    def connection_lost(self, exc) -> None:
        self.plane._readers.discard(self.transport)

    def data_received(self, data) -> None:
        try:
            items = self.decoder.feed(data)
        except ProtocolError:
            # a poisoned byte stream (bad magic, corrupt length, junk
            # payload) kills only this connection -- the endpoint stays
            # bound, and the peer's next connection gets a fresh decoder
            self.plane.dropped += 1
            self.transport.close()
            return
        plane = self.plane
        for item in items:
            coro = self.deliver(item)
            if coro is None:
                continue
            plane.delivered += 1
            try:
                rest = _start(coro)
            except Exception as exc:
                self._failed(exc)
                continue
            if rest is not None:
                plane._tasks.add(rest)
                rest.add_done_callback(self._finished)
                self.suspended += 1
                if self.suspended == self.MAX_SUSPENDED:
                    self.transport.pause_reading()

    def _finished(self, task) -> None:
        """A suspended handler is done: count its error, maybe read on."""
        self.plane._tasks.discard(task)
        self.suspended -= 1
        if self.suspended == self.MAX_SUSPENDED - 1:
            if not self.transport.is_closing():
                self.transport.resume_reading()
        if not task.cancelled() and task.exception() is not None:
            self._failed(task.exception())

    def _failed(self, exc: Exception) -> None:
        """Count and report (with its traceback) a handler that raised."""
        self.plane.handler_errors += 1
        asyncio.get_running_loop().call_exception_handler(
            {"message": "frame handler raised", "exception": exc, "protocol": self}
        )


class _Outbound(asyncio.Protocol):
    """Client end of one cached connection: tracks write backpressure."""

    def __init__(self, plane, key):
        self.plane = plane
        self.key = key
        #: the socket buffer is past its high-water mark: hold frames
        self.paused = False

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self.plane._wake()

    def connection_lost(self, exc) -> None:
        plane = self.plane
        writer = plane._writers.get(self.key)
        if writer is not None and writer.get_protocol() is self:
            del plane._writers[self.key]
        if self.key in plane._outbox:
            plane._wake()  # reconnect for the queued frames, or drop them


class SocketTransport(Transport):
    """The TCP plane shared by the socket transports: links, outboxes, flush.

    Subclasses fill the address book ``endpoints`` (destination key ->
    ``(host, port)``) and listen through :meth:`_listen`.  ``_enqueue``
    queues encoded bytes; one ``call_soon`` flush per loop turn writes
    each ready key's batch with one ``transport.write``.  A connecting
    or paused (``pause_writing``) link holds its queue; past
    ``outbox_cap`` frames a send is refused (``backpressure_drops``).
    """

    def __init__(
        self,
        oracle=None,
        latency_scale: float = 0.0,
        faults=None,
        encoding: str = "json",
        interface: str = "127.0.0.1",
        outbox_cap: int = 8192,
    ):
        super().__init__(oracle, latency_scale, faults, encoding)
        if outbox_cap is not None and outbox_cap < 1:
            raise ValueError("outbox_cap must be >= 1 (or None for unbounded)")
        self.interface = interface
        #: per-destination outbox cap in frames (None: unbounded)
        self.outbox_cap = outbox_cap
        #: address book: destination key -> (host, port)
        self.endpoints: dict = {}
        #: local key -> listening server
        self._servers: dict = {}
        #: key -> ``asyncio.Transport`` of the cached outbound connection
        self._writers: dict = {}
        #: accepted inbound connections
        self._readers: set = set()
        #: key -> encoded frames awaiting the next flush
        self._outbox: dict = {}
        #: keys with a connect in flight
        self._connecting: set = set()
        self._flush_handle = None

    async def _listen(self, key, deliver, envelope=None) -> int:
        """Serve ``key``, feeding each frame to ``deliver``; return the port."""
        server = await asyncio.get_running_loop().create_server(
            lambda: _Inbound(self, FrameDecoder(envelope), deliver),
            self.interface,
            0,
        )
        self._servers[key] = server
        return server.sockets[0].getsockname()[1]

    def _discard_writer(self, key) -> None:
        """Drop (and actually close) the cached connection to ``key``."""
        writer = self._writers.pop(key, None)
        if writer is not None:
            writer.close()

    def _enqueue(self, key, data: bytes, cap) -> bool:
        """Queue ``data`` for ``key``'s next flush; refuse past ``cap``."""
        if self._closed:  # a shaped frame whose timer outlived close()
            self.dropped += 1
            return False
        batch = self._outbox.get(key)
        if batch is None:
            self._outbox[key] = [data]
            self._wake()
        elif cap is not None and len(batch) >= cap:
            # the link is behind by a full cap: refuse the frame
            # instead of queueing unbounded sender-side memory
            self.backpressure_drops += 1
            self.dropped += 1
            return False
        else:
            batch.append(data)
        return True

    def _wake(self) -> None:
        if self._flush_handle is None and not self._closed:
            self._flush_handle = asyncio.get_running_loop().call_soon(self._flush)

    def _flush(self) -> None:
        """One write per ready destination; open links for the rest."""
        self._flush_handle = None
        for key in list(self._outbox):
            writer = self._writers.get(key)
            if writer is None or writer.is_closing():
                if key not in self.endpoints:  # unbound: its queue drops
                    self.dropped += len(self._outbox.pop(key))
                elif key not in self._connecting:
                    self._connecting.add(key)
                    self._spawn(self._connect(key, self.endpoints[key]))
            elif not writer.get_protocol().paused:
                writer.write(b"".join(self._outbox.pop(key)))

    async def _connect(self, key, endpoint) -> None:
        """Open the link to ``key`` once; its frames queue meanwhile."""
        try:
            writer, _ = await asyncio.get_running_loop().create_connection(
                lambda: _Outbound(self, key), *endpoint
            )
        except OSError:
            self.dropped += len(self._outbox.pop(key, ()))
            return
        finally:
            self._connecting.discard(key)
        if self.endpoints.get(key) != endpoint:
            # rebound or unbound while connecting: the socket is stale,
            # so reconnect (or drop the queue) on the next flush
            writer.close()
        else:
            self._writers[key] = writer  # replaces only a closing one
        self._wake()

    async def close(self) -> None:
        await super().close()
        self._outbox.clear()  # a flush still due finds nothing to write
        servers = list(self._servers.values())
        for closable in [*self._writers.values(), *self._readers, *servers]:
            closable.close()
        self._writers.clear()
        self._servers.clear()
        self.endpoints.clear()
        await asyncio.gather(
            *(server.wait_closed() for server in servers),
            return_exceptions=True,
        )


class TcpTransport(SocketTransport):
    """Real sockets: one localhost ``asyncio`` server per endpoint."""

    kind = "tcp"

    async def bind(self, addr, handler, host: int = None) -> None:
        if addr in self._servers:
            raise TransportError(f"address {addr!r} already bound")
        self.endpoints[addr] = (self.interface, await self._listen(addr, handler))
        if host is not None:
            self.hosts[addr] = int(host)
        # a rebind hands the address a fresh port, so a cached writer
        # still points at the old (dying) endpoint and would black-hole
        # every frame until it noticed the close -- invalidate eagerly
        self._discard_writer(addr)

    async def unbind(self, addr) -> None:
        server = self._servers.pop(addr, None)
        self.endpoints.pop(addr, None)
        self.hosts.pop(addr, None)
        self._discard_writer(addr)
        if server is not None:
            server.close()
            await server.wait_closed()

    async def send(self, src, dst, frame: Frame) -> bool:
        if self._closed:
            raise TransportError("transport is closed")
        self.sent += 1
        if self.drops(src, dst) or dst not in self.endpoints:
            self.dropped += 1
            return False
        data = encode_frame(frame, packed=self._packed)
        delay = self.delay_for(src, dst)
        if delay > 0.0:
            # shaped frames keep their individual departure times
            asyncio.get_running_loop().call_later(
                delay, self._enqueue, dst, data, None
            )
            return True
        return self._enqueue(dst, data, self.outbox_cap)


def make_transport(kind: str, **kwargs) -> Transport:
    """Build a transport by name (``"loopback"`` or ``"tcp"``)."""
    if kind == "loopback":
        return LoopbackTransport(**kwargs)
    if kind == "tcp":
        return TcpTransport(**kwargs)
    raise ValueError(f"unknown transport {kind!r} (want 'loopback' or 'tcp')")
