"""Transport abstraction for the async runtime.

A :class:`Transport` moves :class:`~repro.net.codec.Frame` objects between
node endpoints.  The runner never cares how: :class:`LocalBus` ferries
frames through in-process asyncio queues without copying (built for massive
in-process fan-out), :class:`~repro.net.tcp.TcpTransport` ships
length-prefixed JSON over real localhost sockets, and
:class:`FlakyTransport` wraps any transport with injected transient send
failures so the retry/backoff path is testable deterministically.

Contract:

* :meth:`Transport.open` is called once with the full node set before any
  traffic; :meth:`Transport.close` releases every resource;
* :meth:`Transport.send` delivers one frame to its destination's inbox and
  returns the number of bytes that crossed the wire (0 when unmeasured);
  transient failures raise :class:`~repro.exceptions.TransportError` — the
  runner retries those with bounded backoff inside the round deadline;
* :meth:`Transport.recv` returns the next frame addressed to a node,
  waiting until one arrives (the runner bounds the wait with the round
  deadline — that timeout *is* the paper's "detectable absence").
"""

from __future__ import annotations

import asyncio
import random
from abc import ABC, abstractmethod
from typing import Callable, Dict, Hashable, Optional, Sequence

from repro.exceptions import TransportError
from repro.net.codec import Frame, encode_frame
from repro.net.metrics import NetMetrics

NodeId = Hashable


class Transport(ABC):
    """Moves frames between the endpoints of one protocol run."""

    #: Human-readable transport name (shown in metrics).
    name = "abstract"

    #: True when the transport's observable behaviour depends on the order
    #: send() calls are issued (seeded chaos / probabilistic failure draws).
    #: The runner then serializes a round's batch sends instead of firing
    #: them concurrently, so one seed keeps producing one draw sequence.
    ordered_sends = False

    @abstractmethod
    async def open(self, nodes: Sequence[NodeId]) -> None:
        """Provision an endpoint (inbox) for every node in *nodes*."""

    @abstractmethod
    async def send(self, frame: Frame) -> int:
        """Deliver *frame* to its destination endpoint; return wire bytes."""

    @abstractmethod
    async def recv(self, node: NodeId) -> Frame:
        """Next frame addressed to *node* (waits until one arrives)."""

    @abstractmethod
    async def close(self) -> None:
        """Tear down endpoints and release all resources."""

    def attach_metrics(self, metrics: NetMetrics) -> None:
        """Offer a metrics recorder to the transport (optional seam).

        The runner attaches its :class:`~repro.net.metrics.NetMetrics`
        before opening the transport; transports that observe events the
        runner cannot see (poisoned byte streams, injected chaos) record
        them here.  Wrapping transports must forward the call.  The default
        is a no-op.
        """

    def attach_tracer(self, tracer) -> None:
        """Offer a span tracer to the transport (optional seam).

        Mirrors :meth:`attach_metrics`: the runner attaches its
        :class:`~repro.trace.Tracer` before opening the transport, and
        layers that do causally interesting work the runner cannot see —
        chaos injections, supervision healing, demuxing — record spans
        and span events there.  Wrapping transports must forward the
        call.  The default is a no-op; tracing is strictly observational
        and must never change transport behaviour.
        """

    def round_opened(
        self, round_no: int, deadline: float, instance=None
    ) -> None:
        """Runner notification: *round_no* just opened; it closes at
        *deadline* (loop time).

        Timing seam for transports whose behaviour depends on round
        boundaries — the schedule explorer's
        :class:`~repro.explore.transport.ExploredTransport` uses it to
        place delayed deliveries exactly before or after the deadline the
        runner will actually enforce, instead of re-deriving it.
        *instance* carries the runner's multiplexing identity (None for
        single-instance runs): round numbers are per instance, so a
        shared transport under a :class:`~repro.serve.mux.InstanceMux`
        needs it to attribute the boundary.  Wrapping transports must
        forward the call down their stack.  The default is a no-op; the
        notification is purely informational and must not raise.
        """

    async def send_corrupted(self, frame: Frame, rng: random.Random) -> int:
        """Deliver a corrupted rendition of *frame* to its destination.

        Chaos seam.  A corrupted frame is by definition undecodable, so the
        default realization — appropriate for object-passing transports
        with no byte layer — is to lose the frame entirely: the receiver
        observes absence, exactly what a discarded undecodable frame
        amounts to.  Byte transports override this to put genuinely
        mangled bytes on the wire (:meth:`TcpTransport.send_corrupted`),
        exercising the receive-side decode-error path for real.
        """
        return 0

    def reset_connections(self, node: Optional[NodeId] = None) -> int:
        """Hard-reset any pooled connections touching *node* (all if None).

        Fault seam for the chaos layer's ``--kill-links`` mode.  Returns
        the number of connections severed.  Transports without connection
        state (object-passing buses) have nothing to sever — the default
        returns 0 — while socket transports override this to abort pooled
        writers so the next send on each link must re-dial.
        """
        return 0

    async def restart_endpoint(self, node: NodeId) -> None:
        """Crash-restart *node*'s endpoint (fault seam, optional).

        Models a process restart: queued-but-unconsumed inbound frames are
        lost and the endpoint comes back fresh (socket transports also
        move to a new port).  Transports that cannot express a restart
        raise :class:`~repro.exceptions.TransportError`; wrappers forward
        down their stack.
        """
        raise TransportError(
            f"{self.name} transport cannot restart endpoint {node!r}"
        )

    async def __aenter__(self) -> "Transport":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


class LocalBus(Transport):
    """In-process transport over per-node asyncio queues.

    Frames are delivered by reference — the payload object the sender hands
    over is the object the receiver gets; delivery never serializes.  By
    default :meth:`send` does no codec work and reports 0 bytes (the
    "unmeasured" case of the :class:`Transport` contract);
    ``measure_bytes=True`` runs the codec once per frame purely to size
    it, for reports that compare wire sizes (``repro bench``).
    """

    name = "local"

    def __init__(self, measure_bytes: bool = False) -> None:
        self.measure_bytes = measure_bytes
        self._inboxes: Dict[NodeId, "asyncio.Queue[Frame]"] = {}

    async def open(self, nodes: Sequence[NodeId]) -> None:
        self._inboxes = {node: asyncio.Queue() for node in nodes}

    async def send(self, frame: Frame) -> int:
        inbox = self._inboxes.get(frame.destination)
        if inbox is None:
            raise TransportError(
                f"no endpoint for destination {frame.destination!r}"
            )
        nbytes = len(encode_frame(frame)) if self.measure_bytes else 0
        inbox.put_nowait(frame)
        return nbytes

    async def recv(self, node: NodeId) -> Frame:
        inbox = self._inboxes.get(node)
        if inbox is None:
            raise TransportError(f"no endpoint for node {node!r}")
        return await inbox.get()

    async def restart_endpoint(self, node: NodeId) -> None:
        """Crash-restart: queued-but-undelivered frames for *node* are lost."""
        if node not in self._inboxes:
            raise TransportError(f"no endpoint for node {node!r}")
        self._inboxes[node] = asyncio.Queue()

    async def close(self) -> None:
        self._inboxes = {}


class FlakyTransport(Transport):
    """Wraps a transport with deterministic transient send failures.

    Two failure modes, both fully reproducible:

    * **count-based** (default): the first *failures* send attempts of
      every matching ``(source, destination, kind)`` link raise
      :class:`~repro.exceptions.TransportError`; later attempts pass
      through.  With ``failures`` below the runner's retry budget this
      exercises the backoff path without changing any outcome; with
      ``failures`` effectively infinite it turns a link (or a node's whole
      output, via *match*) into an omission fault.
    * **probabilistic** (``failure_probability > 0``): each matching send
      attempt independently fails with the given probability, drawn from
      the injected ``rng`` — never the global RNG, so the same seed
      reproduces the same failure pattern byte for byte.
    """

    def __init__(
        self,
        inner: Transport,
        failures: int = 1,
        match: Optional[Callable[[Frame], bool]] = None,
        failure_probability: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if failures < 0:
            raise ValueError(f"failures must be >= 0, got {failures}")
        if not 0.0 <= failure_probability <= 1.0:
            raise ValueError(
                f"failure_probability must be in [0, 1], "
                f"got {failure_probability}"
            )
        self.inner = inner
        self.failures = failures
        self.match = match
        self.failure_probability = failure_probability
        self.rng = rng if rng is not None else random.Random(0)
        self.injected_failures = 0
        self._attempts: Dict[tuple, int] = {}

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"flaky+{self.inner.name}"

    @property
    def ordered_sends(self) -> bool:  # type: ignore[override]
        # Probabilistic failures draw from one RNG: concurrent sends would
        # make the draw order (hence the failure pattern) racy.
        return self.failure_probability > 0.0 or self.inner.ordered_sends

    def attach_metrics(self, metrics: NetMetrics) -> None:
        self.inner.attach_metrics(metrics)

    def attach_tracer(self, tracer) -> None:
        self.inner.attach_tracer(tracer)

    def round_opened(
        self, round_no: int, deadline: float, instance=None
    ) -> None:
        self.inner.round_opened(round_no, deadline, instance)

    async def open(self, nodes: Sequence[NodeId]) -> None:
        await self.inner.open(nodes)

    def _should_fail(self, frame: Frame) -> bool:
        if self.failure_probability > 0.0:
            return self.rng.random() < self.failure_probability
        key = (frame.source, frame.destination, frame.kind)
        seen = self._attempts.get(key, 0)
        if seen < self.failures:
            self._attempts[key] = seen + 1
            return True
        return False

    async def send(self, frame: Frame) -> int:
        if (self.match is None or self.match(frame)) and self._should_fail(frame):
            self.injected_failures += 1
            raise TransportError(
                f"injected transient failure #{self.injected_failures} on "
                f"{frame.source!r} -> {frame.destination!r}"
            )
        return await self.inner.send(frame)

    async def send_corrupted(self, frame: Frame, rng: random.Random) -> int:
        return await self.inner.send_corrupted(frame, rng)

    async def recv(self, node: NodeId) -> Frame:
        return await self.inner.recv(node)

    def reset_connections(self, node: Optional[NodeId] = None) -> int:
        return self.inner.reset_connections(node)

    async def restart_endpoint(self, node: NodeId) -> None:
        await self.inner.restart_endpoint(node)

    async def close(self) -> None:
        await self.inner.close()
