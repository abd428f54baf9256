"""Per-round accounting for the async runtime.

:class:`NetMetrics` records, per engine round: message and byte counts,
delivery latencies, adapter drops, retries, send failures, late frames and
deadline timeouts — plus the run-wide count of ``V_d`` substitutions the
protocol performed for absent messages.  The recorder is surfaced through
:class:`~repro.net.runner.NetRunOutcome` so experiments and the CLI can
print it next to the agreement verdict.

Injected chaos (:mod:`repro.net.chaos`) is accounted separately from
organic wire trouble: ``chaos_*`` counters record what the chaos layer
*did* (dropped/duplicated/reordered/corrupted frames, partition rounds,
crash events), while ``retries``/``timeouts``/``send_failures`` keep
recording what the runtime *observed*.  ``decode_errors`` counts poisoned
byte streams a transport discarded (one per dropped connection).
:meth:`counters` flattens every integer counter into one dict — the
fingerprint the determinism suite compares across same-seed runs.

Latency percentiles use nearest-rank on the pooled sample; with the whole
runtime in one OS process, the send/receive timestamps share one monotonic
clock, so the numbers are genuine one-way frame latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Tuple

from repro.obs.stats import percentiles

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.events import EventBus

NodeId = Hashable

Link = Tuple[str, str]


@dataclass
class LinkMetrics:
    """Per-directed-link supervision counters (:mod:`repro.net.supervision`).

    A link entry exists only once something happened on the link — lazily
    created by the first recorded event — so clean runs carry no link
    noise.  Wall-clock-dependent fields (outage seconds, heartbeat RTTs)
    are kept for operators but excluded from the determinism fingerprint;
    only event *counts* whose triggers are seeded (reconnects, dedups) are
    fingerprinted.
    """

    #: Times the link's connection was re-established after it had already
    #: carried traffic (first-ever dials are not reconnects).
    reconnects: int = 0
    #: Inbound frames dropped as replays of an already-seen sequence number.
    deduped: int = 0
    #: Send attempts the transport failed with a connection-level error.
    errors: int = 0
    #: Outage windows the supervisor rode out (healed or abandoned).
    outages: int = 0
    #: Total wall-clock seconds spent inside those outage windows.
    outage_seconds: float = 0.0
    #: Sends short-circuited to a metered loss because the circuit was open.
    fast_fails: int = 0
    #: Heartbeat probes sent on the link while it sat idle.
    heartbeats: int = 0
    #: Heartbeat echoes received (samples in :attr:`heartbeat_rtts`).
    pongs: int = 0
    #: Current failure-detector verdict: ``alive`` / ``suspect`` / ``dead``.
    state: str = "alive"
    #: Number of state-machine transitions the detector performed.
    state_changes: int = 0
    #: Round-trip times of answered heartbeats (seconds).
    heartbeat_rtts: List[float] = field(default_factory=list)


@dataclass
class RoundMetrics:
    """Counters for a single engine round."""

    round_no: int
    #: Protocol messages handed to the transport (post-adapter survivors).
    #: In batched mode each BATCH frame contributes its coalesced message
    #: count, so this stays comparable across wire modes.
    messages_sent: int = 0
    #: Bytes on the wire for those messages (0 for unmeasured transports).
    bytes_sent: int = 0
    #: Wire frames the runner successfully sent (DATA + MARK + BATCH).
    frames_sent: int = 0
    #: BATCH frames among those (0 on the unbatched path).
    frames_batched: int = 0
    #: Wall-clock seconds from first send to the end of collection.
    duration: float = 0.0
    #: Messages removed by fault adapters before reaching the transport.
    dropped: int = 0
    #: Transport send attempts that were retried after a transient error.
    retries: int = 0
    #: Messages abandoned after retries were exhausted (observed as absence).
    send_failures: int = 0
    #: (receiver, peer) pairs whose end-of-round marker missed the deadline.
    timeouts: int = 0
    #: Data frames that arrived after their round had already closed.
    late_frames: int = 0
    #: Frames the chaos layer deliberately lost (incl. partition/crash).
    chaos_drops: int = 0
    #: Frames the chaos layer delivered twice.
    chaos_dups: int = 0
    #: Frames the chaos layer held back for delayed redelivery.
    chaos_reorders: int = 0
    #: Frames the chaos layer corrupted in flight.
    chaos_corruptions: int = 0
    #: One-way delivery latencies (seconds) of data frames this round.
    latencies: List[float] = field(default_factory=list)
    #: Per-node structural wait-sets: the sources each node's round can,
    #: by the protocol's round schedule, receive data from.  Published so
    #: offline checkers can tell structural silence from losses.
    expected_sources: Dict[NodeId, Tuple[NodeId, ...]] = field(
        default_factory=dict
    )


class NetMetrics:
    """Run-wide metrics recorder for one async agreement execution."""

    def __init__(self, transport: str = "") -> None:
        self.transport = transport
        self.rounds: Dict[int, RoundMetrics] = {}
        #: ``V_d`` substitutions performed by the protocol (assumption (b)).
        self.substitutions = 0
        #: Poisoned byte streams a transport discarded (one per connection).
        self.decode_errors = 0
        #: Engine rounds during which at least one partition was severed.
        self.partition_rounds = 0
        #: Node crash onsets the chaos layer executed.
        self.crash_events = 0
        #: Per-instance counter snapshots for multiplexed service runs
        #: (:mod:`repro.serve`): instance id → the *instance's own*
        #: flattened counters, folded in by :meth:`record_instance` when
        #: the instance decides.  Single-agreement runs leave this empty.
        self.instances: Dict[str, Dict[str, int]] = {}
        #: Frames the service demux routed to a retired (already decided
        #: and garbage-collected) or never-registered instance.
        self.stray_frames = 0
        #: Per-directed-link supervision counters, lazily created by the
        #: first recorded link event (:mod:`repro.net.supervision`).
        self.links: Dict[Link, LinkMetrics] = {}
        #: Service instances the gateway watchdog cancelled for exceeding
        #: their round-deadline envelope.
        self.watchdog_cancellations = 0
        #: Node endpoints that were killed and restarted mid-run.
        self.endpoint_restarts = 0
        #: Scheduled hard-resets of pooled connections the chaos layer
        #: (or an operator) executed.
        self.link_resets = 0
        #: Optional observability event bus (:mod:`repro.obs.events`).
        #: Recording methods that mark lifecycle transitions publish to it
        #: via :meth:`publish`; with no bus attached every publish is a
        #: no-op, so an unobserved run pays one ``None`` check per event.
        self.bus: Optional["EventBus"] = None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_bus(self, bus: Optional["EventBus"]) -> None:
        """Attach (or detach, with ``None``) an observability event bus.

        Events are operator signal only: publication draws zero RNG and
        nothing event-derived may enter :meth:`counters` — attaching a
        bus must never change a same-seed run's fingerprint.
        """
        self.bus = bus

    def publish(self, kind: str, **data: object) -> None:
        """Publish one observability event if a bus is attached."""
        bus = self.bus
        if bus is not None:
            bus.publish(kind, **data)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def round(self, round_no: int) -> RoundMetrics:
        if round_no not in self.rounds:
            self.rounds[round_no] = RoundMetrics(round_no=round_no)
        return self.rounds[round_no]

    def record_send(self, round_no: int, nbytes: int) -> None:
        entry = self.round(round_no)
        entry.messages_sent += 1
        entry.bytes_sent += nbytes
        entry.frames_sent += 1

    def record_mark(self, round_no: int) -> None:
        self.round(round_no).frames_sent += 1

    def record_batch(self, round_no: int, n_messages: int, nbytes: int) -> None:
        """One BATCH frame sent.

        What batching saves on the wire is the batched-vs-unbatched byte
        comparison ``repro bench`` reports, not a per-frame estimate.
        """
        entry = self.round(round_no)
        entry.messages_sent += n_messages
        entry.bytes_sent += nbytes
        entry.frames_sent += 1
        entry.frames_batched += 1

    def record_round_duration(self, round_no: int, seconds: float) -> None:
        self.round(round_no).duration = seconds

    def record_drop(self, round_no: int) -> None:
        self.round(round_no).dropped += 1

    def record_retry(self, round_no: int) -> None:
        self.round(round_no).retries += 1

    def record_send_failure(self, round_no: int) -> None:
        self.round(round_no).send_failures += 1

    def record_timeout(self, round_no: int, receiver: NodeId, peer: NodeId) -> None:
        self.round(round_no).timeouts += 1

    def record_expected(
        self, round_no: int, node: NodeId, sources: Tuple[NodeId, ...]
    ) -> None:
        self.round(round_no).expected_sources[node] = tuple(sources)

    def record_late(self, round_no: int) -> None:
        self.round(round_no).late_frames += 1

    def record_latency(self, round_no: int, seconds: float) -> None:
        self.round(round_no).latencies.append(seconds)

    def record_chaos_drop(self, round_no: int) -> None:
        self.round(round_no).chaos_drops += 1

    def record_chaos_dup(self, round_no: int) -> None:
        self.round(round_no).chaos_dups += 1

    def record_chaos_reorder(self, round_no: int) -> None:
        self.round(round_no).chaos_reorders += 1

    def record_chaos_corruption(self, round_no: int) -> None:
        self.round(round_no).chaos_corruptions += 1

    def record_decode_error(self) -> None:
        self.decode_errors += 1

    def record_stray_frame(self) -> None:
        self.stray_frames += 1
        self.publish("stray_frame", total=self.stray_frames)

    def record_instance(
        self, instance_id: Hashable, counters: Dict[str, int]
    ) -> None:
        """Fold one decided instance's counter fingerprint into this run.

        Called by the service gateway when an instance completes; the key
        is stringified so arbitrary hashable instance ids serialize
        stably.  Because :meth:`counters` emits these sub-counters sorted
        by key, the aggregate fingerprint is insensitive to instance
        *completion order* — two same-seed service runs fingerprint
        identically even though the event loop interleaves them freely.
        """
        self.instances[str(instance_id)] = dict(counters)

    def record_partition_round(self) -> None:
        self.partition_rounds += 1

    def record_crash_event(self) -> None:
        self.crash_events += 1

    # ------------------------------------------------------------------
    # Link supervision (repro.net.supervision)
    # ------------------------------------------------------------------
    def link(self, source: NodeId, destination: NodeId) -> LinkMetrics:
        """The (lazily created) counter entry for one directed link."""
        key = (str(source), str(destination))
        if key not in self.links:
            self.links[key] = LinkMetrics()
        return self.links[key]

    def record_reconnect(self, source: NodeId, destination: NodeId) -> None:
        self.link(source, destination).reconnects += 1
        self.publish(
            "link_reconnect", source=str(source), destination=str(destination)
        )

    def record_dedup(self, source: NodeId, destination: NodeId) -> None:
        self.link(source, destination).deduped += 1

    def record_link_error(self, source: NodeId, destination: NodeId) -> None:
        self.link(source, destination).errors += 1

    def record_outage(
        self, source: NodeId, destination: NodeId, seconds: float
    ) -> None:
        entry = self.link(source, destination)
        entry.outages += 1
        entry.outage_seconds += max(0.0, seconds)

    def record_fast_fail(self, source: NodeId, destination: NodeId) -> None:
        self.link(source, destination).fast_fails += 1

    def record_heartbeat(self, source: NodeId, destination: NodeId) -> None:
        self.link(source, destination).heartbeats += 1

    def record_heartbeat_rtt(
        self, source: NodeId, destination: NodeId, seconds: float
    ) -> None:
        entry = self.link(source, destination)
        entry.pongs += 1
        entry.heartbeat_rtts.append(max(0.0, seconds))

    def record_link_state(
        self, source: NodeId, destination: NodeId, state: str
    ) -> None:
        entry = self.link(source, destination)
        if entry.state != state:
            previous = entry.state
            entry.state = state
            entry.state_changes += 1
            self.publish(
                "link_state",
                source=str(source),
                destination=str(destination),
                state=state,
                previous=previous,
            )

    def record_watchdog_cancellation(self) -> None:
        self.watchdog_cancellations += 1
        self.publish(
            "watchdog_cancellation", total=self.watchdog_cancellations
        )

    def record_endpoint_restart(self) -> None:
        self.endpoint_restarts += 1
        self.publish("endpoint_restart", total=self.endpoint_restarts)

    def record_link_reset(self) -> None:
        self.link_resets += 1

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_messages(self) -> int:
        return sum(r.messages_sent for r in self.rounds.values())

    @property
    def total_bytes(self) -> int:
        return sum(r.bytes_sent for r in self.rounds.values())

    @property
    def total_frames(self) -> int:
        """Wire frames successfully sent — the batching win shows here."""
        return sum(r.frames_sent for r in self.rounds.values())

    @property
    def total_frames_batched(self) -> int:
        return sum(r.frames_batched for r in self.rounds.values())

    def round_durations(self) -> List[float]:
        """Per-round wall-clock durations, in round order (seconds)."""
        return [self.rounds[r].duration for r in sorted(self.rounds)]

    @property
    def total_timeouts(self) -> int:
        return sum(r.timeouts for r in self.rounds.values())

    @property
    def total_retries(self) -> int:
        return sum(r.retries for r in self.rounds.values())

    @property
    def total_send_failures(self) -> int:
        return sum(r.send_failures for r in self.rounds.values())

    @property
    def total_dropped(self) -> int:
        return sum(r.dropped for r in self.rounds.values())

    @property
    def total_chaos_drops(self) -> int:
        return sum(r.chaos_drops for r in self.rounds.values())

    @property
    def total_chaos_dups(self) -> int:
        return sum(r.chaos_dups for r in self.rounds.values())

    @property
    def total_chaos_reorders(self) -> int:
        return sum(r.chaos_reorders for r in self.rounds.values())

    @property
    def total_chaos_corruptions(self) -> int:
        return sum(r.chaos_corruptions for r in self.rounds.values())

    @property
    def total_reconnects(self) -> int:
        return sum(link.reconnects for link in self.links.values())

    @property
    def total_deduped(self) -> int:
        return sum(link.deduped for link in self.links.values())

    @property
    def total_outages(self) -> int:
        return sum(link.outages for link in self.links.values())

    @property
    def total_fast_fails(self) -> int:
        return sum(link.fast_fails for link in self.links.values())

    @property
    def total_heartbeats(self) -> int:
        return sum(link.heartbeats for link in self.links.values())

    def dead_links(self) -> List[Link]:
        """Directed links currently judged dead by the failure detector."""
        return sorted(
            key for key, link in self.links.items() if link.state == "dead"
        )

    @property
    def total_chaos_events(self) -> int:
        """Every chaos perturbation this run: frame-level plus crashes."""
        return (
            self.total_chaos_drops
            + self.total_chaos_dups
            + self.total_chaos_reorders
            + self.total_chaos_corruptions
            + self.crash_events
        )

    def counters(self) -> Dict[str, int]:
        """Every integer counter, flattened — the determinism fingerprint.

        Deliberately excludes wall-clock-dependent values: latency samples
        (only their count is included, as ``delivered``) and byte counts
        (frame encodings embed the float ``sent_at`` timestamp, whose JSON
        width varies run to run).  Two same-seed runs of a deterministic
        scenario must produce equal dicts; the chaos determinism suite
        pins exactly that.

        Every value is audited to be an ``int`` before the dict is
        returned: a wall-clock-derived float (``outage_seconds``,
        heartbeat RTTs, round durations) silently folded in — e.g. via a
        :meth:`record_instance` sub-counter — would make same-seed
        fingerprints diverge in a maximally confusing way, so the leak
        fails loudly at the source instead.
        """
        out: Dict[str, int] = {
            "substitutions": self.substitutions,
            "decode_errors": self.decode_errors,
            "partition_rounds": self.partition_rounds,
            "crash_events": self.crash_events,
            "stray_frames": self.stray_frames,
            "watchdog_cancellations": self.watchdog_cancellations,
            "endpoint_restarts": self.endpoint_restarts,
            "link_resets": self.link_resets,
        }
        # Link counters: only seeded-deterministic event counts, and only
        # for links where those events happened — a heartbeat-created entry
        # with zero reconnects/dedups must not perturb the fingerprint
        # (heartbeat cadence is wall-clock-driven).
        for (source, destination) in sorted(self.links):
            entry = self.links[(source, destination)]
            prefix = f"link.{source}.{destination}."
            if entry.reconnects:
                out[prefix + "reconnects"] = entry.reconnects
            if entry.deduped:
                out[prefix + "deduped"] = entry.deduped
        for instance_id in sorted(self.instances):
            for key, value in sorted(self.instances[instance_id].items()):
                out[f"inst.{instance_id}.{key}"] = value
        for round_no in sorted(self.rounds):
            entry = self.rounds[round_no]
            prefix = f"r{round_no}."
            out[prefix + "messages_sent"] = entry.messages_sent
            out[prefix + "frames_sent"] = entry.frames_sent
            out[prefix + "frames_batched"] = entry.frames_batched
            out[prefix + "dropped"] = entry.dropped
            out[prefix + "retries"] = entry.retries
            out[prefix + "send_failures"] = entry.send_failures
            out[prefix + "timeouts"] = entry.timeouts
            out[prefix + "late_frames"] = entry.late_frames
            out[prefix + "chaos_drops"] = entry.chaos_drops
            out[prefix + "chaos_dups"] = entry.chaos_dups
            out[prefix + "chaos_reorders"] = entry.chaos_reorders
            out[prefix + "chaos_corruptions"] = entry.chaos_corruptions
            out[prefix + "delivered"] = len(entry.latencies)
            out[prefix + "expected_links"] = sum(
                len(sources) for sources in entry.expected_sources.values()
            )
        for key, value in out.items():
            if type(value) is not int:
                raise TypeError(
                    f"fingerprint counter {key!r} is {value!r} "
                    f"({type(value).__name__}); only ints may enter the "
                    f"determinism fingerprint — wall-clock leakage?"
                )
        return out

    def latency_percentiles(self) -> Dict[str, float]:
        """Pooled one-way latency percentiles, nearest-rank, in seconds.

        Delegates to :func:`repro.obs.stats.percentiles` — the one
        canonical nearest-rank implementation shared with the bench
        harness and the load generator.
        """
        pooled: List[float] = []
        for entry in self.rounds.values():
            pooled.extend(entry.latencies)
        return percentiles(pooled, {"p50": 0.50, "p90": 0.90, "p99": 0.99})

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Plain-text per-round table plus the run summary."""
        headers = (
            "round", "msgs", "frames", "bytes",
            "dropped", "retries", "timeouts", "late",
        )
        rows: List[Tuple[str, ...]] = [headers]
        for round_no in sorted(self.rounds):
            entry = self.rounds[round_no]
            rows.append(
                (
                    str(entry.round_no),
                    str(entry.messages_sent),
                    str(entry.frames_sent),
                    str(entry.bytes_sent),
                    str(entry.dropped),
                    str(entry.retries),
                    str(entry.timeouts),
                    str(entry.late_frames),
                )
            )
        widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
        lines = []
        for idx, row in enumerate(rows):
            lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
            if idx == 0:
                lines.append("  ".join("-" * w for w in widths))
        pct = self.latency_percentiles()
        lines.append("")
        lines.append(
            f"transport={self.transport or 'unknown'}  "
            f"messages={self.total_messages}  frames={self.total_frames}  "
            f"bytes={self.total_bytes}  "
            f"V_d substitutions={self.substitutions}"
        )
        if self.total_frames_batched:
            lines.append(
                f"batching: {self.total_frames_batched} batch frame(s)"
            )
        if self.instances:
            inst_frames = sum(
                sum(v for k, v in c.items() if k.endswith(".frames_sent"))
                for c in self.instances.values()
            )
            inst_messages = sum(
                sum(v for k, v in c.items() if k.endswith(".messages_sent"))
                for c in self.instances.values()
            )
            lines.append(
                f"multiplexing: {len(self.instances)} instance(s) folded in  "
                f"frames={inst_frames}  messages={inst_messages}"
                + (f"  stray_frames={self.stray_frames}"
                   if self.stray_frames else "")
            )
        if self.links or self.endpoint_restarts or self.link_resets:
            dead = self.dead_links()
            lines.append(
                f"supervision: reconnects={self.total_reconnects}  "
                f"deduped={self.total_deduped}  "
                f"outages={self.total_outages}  "
                f"fast_fails={self.total_fast_fails}  "
                f"heartbeats={self.total_heartbeats}  "
                f"link_resets={self.link_resets}  "
                f"endpoint_restarts={self.endpoint_restarts}"
                + (
                    "  dead="
                    + ",".join(f"{s}->{d}" for s, d in dead)
                    if dead
                    else ""
                )
            )
        if self.watchdog_cancellations:
            lines.append(
                f"watchdog: {self.watchdog_cancellations} instance(s) "
                f"cancelled past their round-deadline envelope"
            )
        if self.total_chaos_events or self.partition_rounds or self.decode_errors:
            lines.append(
                f"chaos: drops={self.total_chaos_drops}  "
                f"dups={self.total_chaos_dups}  "
                f"reorders={self.total_chaos_reorders}  "
                f"corruptions={self.total_chaos_corruptions}  "
                f"partition_rounds={self.partition_rounds}  "
                f"crashes={self.crash_events}  "
                f"decode_errors={self.decode_errors}"
            )
        lines.append(
            "latency p50={:.6f}s p90={:.6f}s p99={:.6f}s".format(
                pct["p50"], pct["p90"], pct["p99"]
            )
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"NetMetrics(transport={self.transport!r}, "
            f"rounds={len(self.rounds)}, messages={self.total_messages}, "
            f"timeouts={self.total_timeouts})"
        )
