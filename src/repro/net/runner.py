"""Async round runner: drives BYZ over a real transport, deadline by deadline.

:class:`AsyncRoundRunner` executes one
:class:`~repro.core.protocol.ProtocolSession` — the exact same
:class:`~repro.core.protocol.AgreementProcess` state machines the
synchronous engine steps — but moves every message through a
:class:`~repro.net.transport.Transport` and closes each round with a real
deadline instead of a lock-step barrier:

1. processes step in deterministic order and emit their round's messages;
2. fault adapters may drop/corrupt them (same interception contract as the
   sync engine, same behaviour objects);
3. surviving frames go out over the transport; transient transport errors
   are retried with bounded exponential backoff, *capped by the round
   deadline* so flaky wires can delay but never reorder rounds;
4. every node then emits an end-of-round marker to every peer;
5. each node collects its inbox until it holds markers from all peers or
   the deadline expires.  Whatever did not arrive is simply absent — the
   protocol's ingest resolves each expected-but-missing relay path to
   ``V_d``, which is model assumption (b) ("the absence of a message can be
   detected") realized by an actual timeout over an actual wire.

Wire modes: by default the runner runs **batched** — steps 3 and 4
collapse into one ``BATCH`` frame per directed link per round (all of the
link's DATA messages plus the end-of-round marker), and the per-link
batches go out concurrently via :func:`asyncio.gather` (per-link ordering
is trivially preserved: one frame per link per round).  Collection then
waits only on the protocol's *expected* sources for the round
(:meth:`~repro.core.protocol.ProtocolSession.expected_sources`) instead of
on every peer's marker, so structurally silent links carry nothing at all.
A batch that fails to send is one link's absence — its receiver resolves
the missing paths to ``V_d`` exactly as with per-message losses.
``batching=False`` keeps the original one-frame-per-message path
(sequential sends, full marker mesh); both modes share one wire format
and are pinned decision-identical by the equivalence suite.  Transports
whose behaviour depends on send order (seeded chaos, probabilistic
flakiness — ``Transport.ordered_sends``) get their batches sent
sequentially so same-seed runs stay byte-for-byte reproducible.

Determinism: inboxes are sorted with the synchronous engine's delivery
order before stepping, so for every scenario in which no honest frame
misses its deadline the decisions, classification verdicts and
substitution counts are identical between the two runtimes — the
equivalence suite in ``tests/net`` pins this down.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence, Set

from repro.core.behavior import BehaviorMap
from repro.core.byz import AgreementResult
from repro.core.protocol import ProtocolSession
from repro.core.spec import DegradableSpec
from repro.core.values import Value
from repro.exceptions import SimulationError, TransportError
from repro.net.adapters import AsyncFaultAdapter, behavior_adapters, lift_injectors
from repro.net.codec import BATCH, DATA, MARK, Frame
# The runner encodes nothing itself.  ``encode_frame`` stays bound here
# because perfbench's traced run counts accounting encodes at this
# module's binding, and must find it to report zero.
from repro.net.codec import encode_frame  # noqa: F401
from repro.net.metrics import NetMetrics
from repro.net.transport import LocalBus, Transport
from repro.sim.engine import FaultInjector
from repro.sim.messages import Message
from repro.sim.trace import EventKind, EventTrace, TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.net.chaos.accounting import ChaosLog
    from repro.net.chaos.policy import ChaosPolicy
    from repro.net.supervision import HeartbeatPolicy
    from repro.obs.events import EventBus
    from repro.trace import Span, Tracer

NodeId = Hashable


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transient transport errors.

    ``max_attempts`` counts total tries (first send included).  Waits start
    at ``base_delay`` and multiply by ``multiplier`` up to ``max_delay``;
    every wait is additionally clipped to the time remaining before the
    round deadline, so retrying can never leak a message into a later
    round.  Exhausted retries turn the message into a *loss* — receivers
    observe absence and substitute ``V_d`` — rather than an error, keeping
    agreement semantics intact under arbitrarily bad wires.
    """

    max_attempts: int = 4
    base_delay: float = 0.02
    multiplier: float = 2.0
    max_delay: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")


@dataclass
class NetRunOutcome:
    """Everything one async run produced: the verdict and the wire story."""

    result: AgreementResult
    metrics: NetMetrics
    #: Chaos event log, present when the run was executed under a
    #: :class:`~repro.net.chaos.policy.ChaosPolicy` (None otherwise).
    chaos: Optional["ChaosLog"] = None
    #: Canonical execution trace (protocol + wire events), present unless
    #: the run was started with ``record_trace=False``.  Feed it to
    #: :mod:`repro.verify` for offline conformance checking.
    trace: Optional[EventTrace] = None

    @property
    def decisions(self) -> Dict[NodeId, Value]:
        return self.result.decisions


class AsyncRoundRunner:
    """Round-by-round protocol driver over an async transport."""

    def __init__(
        self,
        session: ProtocolSession,
        transport: Optional[Transport] = None,
        adapters: Optional[Sequence[AsyncFaultAdapter]] = None,
        round_timeout: float = 5.0,
        retry: Optional[RetryPolicy] = None,
        metrics: Optional[NetMetrics] = None,
        batching: bool = True,
        record_trace: bool = True,
        instance_id: Optional[Hashable] = None,
        events: Optional["EventBus"] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        if round_timeout <= 0:
            raise ValueError(f"round_timeout must be > 0, got {round_timeout}")
        self.session = session
        self.transport = transport if transport is not None else LocalBus()
        self.adapters: List[AsyncFaultAdapter] = list(adapters or [])
        self.round_timeout = round_timeout
        self.retry = retry or RetryPolicy()
        self.batching = batching
        #: Multiplexing identity: set when this runner drives one instance
        #: of a :mod:`repro.serve` service.  Every outgoing frame carries it
        #: (version-2 envelope) and every trace event is stamped with it so
        #: service traces can be demultiplexed offline.  ``None`` keeps the
        #: legacy single-instance wire format and trace shape.
        self.instance_id = instance_id
        self.metrics = metrics or NetMetrics(transport=self.transport.name)
        if not self.metrics.transport:
            self.metrics.transport = self.transport.name
        if events is not None:
            self.metrics.attach_bus(events)
        # Let the transport stack record what only it can see (decode
        # errors, injected chaos) into the same recorder.
        self.transport.attach_metrics(self.metrics)
        #: Optional span tracer (:mod:`repro.trace`).  Purely
        #: observational: recording draws zero RNG and never awaits, so a
        #: same-seed run is identical with it attached or not — the
        #: tracing-determinism suite pins this.
        self.tracer = tracer
        if tracer is not None:
            self.transport.attach_tracer(tracer)
        self._round_span: Optional["Span"] = None
        #: Canonical execution trace: protocol events are logged by the
        #: processes themselves (via :meth:`ProtocolSession.attach_trace`),
        #: wire events by this runner.  Same schema as the synchronous
        #: engine's trace, extended with the wire-level kinds.
        self.trace: Optional[EventTrace] = (
            EventTrace(instance=instance_id) if record_trace else None
        )
        session.attach_trace(self.trace)
        # Same deterministic stepping order as the synchronous engine.
        self._order: List[NodeId] = sorted(session.nodes, key=lambda n: str(n))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    async def run(self) -> AgreementResult:
        """Run the protocol to completion and return the agreement result."""
        loop = asyncio.get_running_loop()
        session = self.session
        await self.transport.open(list(session.nodes))
        executed = 0
        emitted_total = 0
        try:
            inboxes: Dict[NodeId, List[Message]] = {n: [] for n in self._order}
            for round_no in range(1, session.total_rounds + 1):
                if session.all_decided() and not any(inboxes.values()):
                    break
                self.metrics.round(round_no)
                self.metrics.publish(
                    "round_started",
                    round=round_no,
                    instance=(
                        None
                        if self.instance_id is None
                        else str(self.instance_id)
                    ),
                )
                self._record_expected(round_no)
                if self.tracer is not None:
                    self._round_span = self.tracer.begin(
                        "round",
                        "runner",
                        parent=self.tracer.scope_parent(self.instance_id),
                        instance=self.instance_id,
                        round_no=round_no,
                    )
                outgoing = self._step_processes(round_no, inboxes)
                emitted_total += len(outgoing)
                survivors = self._apply_adapters(round_no, outgoing)
                round_started = loop.time()
                deadline = round_started + self.round_timeout
                self.transport.round_opened(
                    round_no, deadline, self.instance_id
                )
                if self.batching:
                    expected = await self._send_round_batched(
                        round_no, survivors, deadline
                    )
                else:
                    for message in survivors:
                        frame = Frame(
                            kind=DATA,
                            round_no=round_no,
                            source=message.source,
                            destination=message.destination,
                            message=message,
                            sent_at=loop.time(),
                            instance=self.instance_id,
                        )
                        await self._send_with_retry(frame, round_no, deadline)
                    await self._send_markers(round_no, deadline)
                    expected = {
                        node: {n for n in self._order if n != node}
                        for node in self._order
                    }
                collected = await asyncio.gather(
                    *(
                        self._collect(node, round_no, deadline, expected[node])
                        for node in self._order
                    )
                )
                inboxes = dict(zip(self._order, collected))
                self.metrics.record_round_duration(
                    round_no, loop.time() - round_started
                )
                if self.tracer is not None and self._round_span is not None:
                    self.tracer.end(
                        self._round_span, messages=len(survivors)
                    )
                    self._round_span = None
                self.metrics.publish(
                    "round_closed",
                    round=round_no,
                    messages=len(survivors),
                    instance=(
                        None
                        if self.instance_id is None
                        else str(self.instance_id)
                    ),
                )
                executed += 1
        finally:
            await self.transport.close()
        self.metrics.substitutions = session.substitutions
        return session.collect_result(messages=emitted_total, rounds=executed)

    # ------------------------------------------------------------------
    # Round phases
    # ------------------------------------------------------------------
    def _record_expected(self, round_no: int) -> None:
        """Publish each node's structural wait-set for this round.

        This is the oracle's seam for telling *structural* silence (a link
        the round schedule leaves empty) apart from *losses* (chaos drops,
        deadline misses): anything a node expected here but never filed is
        an absence that must show up as a ``defaulted`` substitution.
        """
        for node in self._order:
            sources = tuple(
                sorted(self.session.expected_sources(round_no, node), key=str)
            )
            if not sources:
                continue
            self.metrics.record_expected(round_no, node, sources)
            if self.trace is not None:
                self.trace.record(
                    TraceEvent(
                        round_no=round_no,
                        kind=EventKind.EXPECTED,
                        source=node,
                        destination=None,
                        payload=sources,
                    )
                )

    def _step_processes(
        self, round_no: int, inboxes: Dict[NodeId, List[Message]]
    ) -> List[Message]:
        outgoing: List[Message] = []
        for node in self._order:
            process = self.session.process_map[node]
            inbox = sorted(
                inboxes[node],
                key=lambda m: (str(m.destination), str(m.source), str(m.payload)),
            )
            if self.trace is not None:
                # Delivery is logged at the round that *consumes* the
                # message — the synchronous engine's convention — so the
                # two runtimes produce comparable protocol-level traces.
                for message in inbox:
                    self.trace.record_message(
                        round_no, EventKind.DELIVERED, message
                    )
            for message in process.step(round_no, inbox):
                if message.source != node:
                    raise SimulationError(
                        f"process {node!r} attempted to forge source "
                        f"{message.source!r}"
                    )
                if message.destination == message.source:
                    raise SimulationError(
                        f"node {node!r} attempted to message itself"
                    )
                if message.destination not in self.session.process_map:
                    raise SimulationError(
                        f"message to unknown node {message.destination!r}"
                    )
                outgoing.append(message)
        return outgoing

    def _apply_adapters(
        self, round_no: int, outgoing: Sequence[Message]
    ) -> List[Message]:
        all_survivors: List[Message] = []
        for original in outgoing:
            if self.trace is not None:
                self.trace.record_message(round_no, EventKind.SENT, original)
            survivors = [original]
            for adapter in self.adapters:
                next_wave: List[Message] = []
                for message in survivors:
                    for replacement in adapter.intercept(round_no, message):
                        if replacement.source != original.source:
                            raise SimulationError(
                                f"adapter {type(adapter).__name__} attempted "
                                f"to forge source {replacement.source!r} on a "
                                f"message from {original.source!r}"
                            )
                        if (
                            replacement.payload != message.payload
                            and self.trace is not None
                        ):
                            self.trace.record_message(
                                round_no,
                                EventKind.CORRUPTED,
                                replacement,
                                note=f"by {type(adapter).__name__}",
                            )
                        next_wave.append(replacement)
                survivors = next_wave
            if not survivors:
                self.metrics.record_drop(round_no)
                if self.trace is not None:
                    self.trace.record_message(
                        round_no, EventKind.DROPPED, original
                    )
            all_survivors.extend(survivors)
        return all_survivors

    async def _send_round_batched(
        self, round_no: int, survivors: Sequence[Message], deadline: float
    ) -> Dict[NodeId, Set[NodeId]]:
        """Coalesce the round into one BATCH frame per directed link.

        Groups *survivors* by ``(source, destination)`` (send order
        preserved inside each batch), folds the end-of-round marker into
        the batch's ``mark`` flag (cleared when an adapter mutes the
        source's markers, so receivers still ride out the deadline for
        wire-crashed nodes), and skips links that carry no data *and* are
        not expected by the protocol's round schedule — structurally
        silent links cost zero frames.  Batches go out concurrently via
        ``asyncio.gather`` unless the transport demands ordered sends
        (seeded chaos), in which case they are sent sequentially in
        deterministic link order.

        Returns each node's pending-source set for collection: the sources
        it should wait on before closing the round early.
        """
        loop = asyncio.get_running_loop()
        groups: Dict[tuple, List[Message]] = {}
        for message in survivors:
            key = (message.source, message.destination)
            groups.setdefault(key, []).append(message)
        expected: Dict[NodeId, Set[NodeId]] = {
            node: set(self.session.expected_sources(round_no, node))
            for node in self._order
        }
        frames: List[Frame] = []
        for source in self._order:
            muted = any(
                a.mutes_marker(round_no, source) for a in self.adapters
            )
            for destination in self._order:
                if destination == source:
                    continue
                messages = groups.get((source, destination), ())
                if not messages and (muted or source not in expected[destination]):
                    continue
                frame = Frame(
                    kind=BATCH,
                    round_no=round_no,
                    source=source,
                    destination=destination,
                    messages=tuple(messages),
                    mark=not muted,
                    sent_at=loop.time(),
                    instance=self.instance_id,
                )
                frames.append(frame)
                if self.trace is not None:
                    self.trace.record(
                        TraceEvent(
                            round_no=round_no,
                            kind=EventKind.COALESCED,
                            source=source,
                            destination=destination,
                            payload=None,
                            meta={
                                "messages": len(frame.messages),
                                "mark": frame.mark,
                            },
                        )
                    )
        if self.transport.ordered_sends:
            for frame in frames:
                await self._send_with_retry(frame, round_no, deadline)
        elif frames:
            await asyncio.gather(
                *(
                    self._send_with_retry(frame, round_no, deadline)
                    for frame in frames
                )
            )
        return expected

    async def _send_markers(self, round_no: int, deadline: float) -> None:
        loop = asyncio.get_running_loop()
        for source in self._order:
            if any(a.mutes_marker(round_no, source) for a in self.adapters):
                continue
            for destination in self._order:
                if destination == source:
                    continue
                frame = Frame(
                    kind=MARK,
                    round_no=round_no,
                    source=source,
                    destination=destination,
                    sent_at=loop.time(),
                    instance=self.instance_id,
                )
                await self._send_with_retry(frame, round_no, deadline)

    async def _send_with_retry(
        self, frame: Frame, round_no: int, deadline: float
    ) -> bool:
        """Send one frame, retrying transient errors within the deadline.

        Returns True on success; False means the frame is lost (recorded as
        a send failure, observed by the receiver as absence).  The deadline
        is checked before *and after* every backoff sleep: a sleep that
        consumes the rest of the round converts the send into a recorded
        loss instead of firing a retry attempt into a later round (which
        would break the "retrying never leaks a message across rounds"
        invariant on slow wires).
        """
        loop = asyncio.get_running_loop()
        span = None
        if self.tracer is not None:
            span = self.tracer.begin(
                "send",
                "runner",
                parent=(
                    self._round_span.span_id
                    if self._round_span is not None
                    else None
                ),
                instance=self.instance_id,
                round_no=round_no,
                source=frame.source,
                destination=frame.destination,
                kind=frame.kind,
            )
            # Trace context rides the wire: every layer the frame passes
            # through downstream charges its work to this send span.
            frame = replace(frame, trace=span.span_id)
        delay = self.retry.base_delay
        attempt = 0
        for attempt in range(1, self.retry.max_attempts + 1):
            try:
                nbytes = await self.transport.send(frame)
            except TransportError:
                if attempt >= self.retry.max_attempts:
                    break
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                self.metrics.record_retry(round_no)
                if span is not None:
                    self.tracer.event(
                        span, "retry", attempt=attempt, backoff=delay
                    )
                await asyncio.sleep(min(delay, remaining))
                if deadline - loop.time() <= 0:
                    break
                delay = min(delay * self.retry.multiplier, self.retry.max_delay)
                continue
            if frame.kind == DATA:
                self.metrics.record_send(round_no, nbytes)
            elif frame.kind == MARK:
                self.metrics.record_mark(round_no)
            elif frame.kind == BATCH:
                self.metrics.record_batch(
                    round_no, len(frame.messages), nbytes
                )
            self._trace_frame(EventKind.FRAME_SENT, round_no, frame)
            if span is not None:
                self.tracer.end(span, ok=True, attempts=attempt)
            return True
        self.metrics.record_send_failure(round_no)
        if span is not None:
            self.tracer.end(span, ok=False, attempts=attempt)
        return False

    def _trace_frame(
        self,
        kind: EventKind,
        round_no: int,
        frame: Frame,
        note: str = "",
        extra_meta: Optional[dict] = None,
    ) -> None:
        if self.trace is None:
            return
        meta: dict = {"frame": frame.kind}
        if frame.kind == BATCH:
            meta["messages"] = len(frame.messages)
            meta["mark"] = frame.mark
        if extra_meta:
            meta.update(extra_meta)
        self.trace.record(
            TraceEvent(
                round_no=round_no,
                kind=kind,
                source=frame.source,
                destination=frame.destination,
                payload=None,
                note=note,
                meta=meta,
            )
        )

    async def _collect(
        self,
        node: NodeId,
        round_no: int,
        deadline: float,
        pending: Set[NodeId],
    ) -> List[Message]:
        """Drain *node*'s inbox until *pending* resolves or the deadline.

        *pending* is the set of sources whose end-of-round signal (MARK
        frame, or a BATCH frame's ``mark`` flag) closes the round early:
        every peer on the unbatched path, only the protocol's expected
        sources on the batched one.  A source that never resolves is
        recorded as a timeout; any of its frames that were still in flight
        stay undelivered for this round, and the protocol resolves the
        corresponding expected paths to ``V_d`` — the real-wire
        realization of assumption (b).  Frames from other rounds — stale
        DATA, stale BATCH, *and stale MARK* — are metered as late frames,
        so chaos-induced lateness shows up in campaign reports whichever
        frame kind it hit.
        """
        loop = asyncio.get_running_loop()
        span = None
        if self.tracer is not None:
            span = self.tracer.begin(
                "collect",
                "runner",
                parent=(
                    self._round_span.span_id
                    if self._round_span is not None
                    else None
                ),
                instance=self.instance_id,
                round_no=round_no,
                destination=node,
                waiting=len(pending),
            )
        inbox: List[Message] = []
        # One deadline timer per collect, not one wait_for per frame: at
        # the deadline it cancels this task out of its pending recv (a
        # gather child, so only this node's collect).  A cancellation
        # the timer did not cause is the caller's and propagates.
        task = asyncio.current_task()
        expired = False

        def expire() -> None:
            nonlocal expired
            expired = True
            task.cancel()

        timer = loop.call_at(deadline, expire)
        try:
            # Deadline reached: stop even if frames are still queued.
            while pending and loop.time() < deadline:
                try:
                    frame = await self.transport.recv(node)
                except asyncio.CancelledError:
                    if not expired:
                        raise
                    break
                if frame.round_no != round_no:
                    self.metrics.record_late(round_no)
                    self._trace_frame(
                        EventKind.LATE_FRAME,
                        round_no,
                        frame,
                        extra_meta={"frame_round": frame.round_no},
                    )
                    continue
                self._trace_frame(EventKind.FRAME_RECV, round_no, frame)
                if frame.kind == MARK:
                    pending.discard(frame.source)
                elif frame.kind == BATCH:
                    latency = max(0.0, loop.time() - frame.sent_at)
                    for message in frame.messages:
                        inbox.append(message)
                        self.metrics.record_latency(round_no, latency)
                    if frame.mark:
                        pending.discard(frame.source)
                elif frame.message is not None:
                    inbox.append(frame.message)
                    self.metrics.record_latency(
                        round_no, max(0.0, loop.time() - frame.sent_at)
                    )
                else:
                    self.metrics.record_late(round_no)
        finally:
            timer.cancel()
        for peer in sorted(pending, key=str):
            self.metrics.record_timeout(round_no, node, peer)
            if span is not None:
                self.tracer.event(
                    span, "timeout", peer=str(peer), node=str(node)
                )
            if self.trace is not None:
                self.trace.record(
                    TraceEvent(
                        round_no=round_no,
                        kind=EventKind.TIMEOUT,
                        source=peer,
                        destination=node,
                        payload=None,
                        note="peer unresolved at round deadline",
                    )
                )
        if span is not None:
            self.tracer.end(span, delivered=len(inbox), unresolved=len(pending))
        return inbox


# ----------------------------------------------------------------------
# High-level entry point
# ----------------------------------------------------------------------
async def run_agreement_async(
    spec: DegradableSpec,
    nodes: Sequence[NodeId],
    sender: NodeId,
    sender_value: Value,
    behaviors: Optional[BehaviorMap] = None,
    transport: Optional[Transport] = None,
    adapters: Optional[Sequence[AsyncFaultAdapter]] = None,
    extra_injectors: Optional[Sequence[FaultInjector]] = None,
    round_timeout: float = 5.0,
    retry: Optional[RetryPolicy] = None,
    chaos: Optional["ChaosPolicy"] = None,
    chaos_rng: Optional[random.Random] = None,
    batching: bool = True,
    record_trace: bool = True,
    supervise: bool = False,
    heartbeat: Optional["HeartbeatPolicy"] = None,
    supervision_rng: Optional[random.Random] = None,
    events: Optional["EventBus"] = None,
    tracer: Optional["Tracer"] = None,
) -> NetRunOutcome:
    """Run one m/u-degradable agreement over an async transport.

    The async counterpart of
    :func:`repro.core.protocol.execute_degradable_protocol`: same
    parameters, same behaviour objects, same result shape — plus the
    :class:`~repro.net.metrics.NetMetrics` recorder for the wire story.
    Defaults to :class:`~repro.net.transport.LocalBus` and the batched
    wire path (one frame per directed link per round); ``batching=False``
    selects the legacy one-frame-per-message path.  The two are
    decision-identical — only the wire story differs.

    With *chaos* set, the transport is wrapped in a
    :class:`~repro.net.chaos.transport.ChaosTransport` applying that
    policy; every draw comes from *chaos_rng* (default:
    ``random.Random(chaos.seed)``) and the outcome carries the full
    :class:`~repro.net.chaos.accounting.ChaosLog` for fault accounting.

    With ``supervise=True`` the stack is additionally wrapped in a
    :class:`~repro.net.supervision.SupervisedTransport` *above* chaos, so
    injected connection resets and endpoint restarts are healed by real
    re-dials while unhealable outages degrade into metered absences.
    Passing a :class:`~repro.net.supervision.HeartbeatPolicy` as
    *heartbeat* also arms the PING/PONG failure detector.

    *events* attaches a :class:`~repro.obs.events.EventBus` to the
    recorder: round/link lifecycle events are published as they happen.
    Publication draws zero RNG and never enters the determinism
    fingerprint — same-seed runs are identical with it on or off.

    *tracer* attaches a :class:`~repro.trace.Tracer` to the runner and
    the whole transport stack: round/collect/send spans, supervision
    heal spans, chaos injection events and demux spans are recorded with
    deterministic ids.  Same invariant as *events*: observing a run
    never changes it.
    """
    stack: List[AsyncFaultAdapter] = []
    if behaviors:
        stack.extend(behavior_adapters(behaviors))
    if extra_injectors:
        stack.extend(lift_injectors(extra_injectors))
    if adapters:
        stack.extend(adapters)
    base_transport = transport if transport is not None else LocalBus()
    chaos_log = None
    if chaos is not None:
        # Imported lazily: repro.net.chaos.campaign imports this module.
        from repro.net.chaos.transport import ChaosTransport

        base_transport = ChaosTransport(base_transport, chaos, rng=chaos_rng)
        chaos_log = base_transport.log
    if supervise or heartbeat is not None:
        from repro.net.supervision import SupervisedTransport

        seed = chaos.seed if chaos is not None else 0
        base_transport = SupervisedTransport(
            base_transport,
            heartbeat=heartbeat,
            rng=(
                supervision_rng
                if supervision_rng is not None
                else random.Random(seed)
            ),
        )
    session = ProtocolSession.byz(spec, nodes, sender, sender_value)
    runner = AsyncRoundRunner(
        session,
        transport=base_transport,
        adapters=stack,
        round_timeout=round_timeout,
        retry=retry,
        batching=batching,
        record_trace=record_trace,
        events=events,
        tracer=tracer,
    )
    result = await runner.run()
    return NetRunOutcome(
        result=result,
        metrics=runner.metrics,
        chaos=chaos_log,
        trace=runner.trace,
    )
