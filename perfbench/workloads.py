"""The benchmark's workloads: seeded inputs, the closed-loop generator and the
correctness gate.

Everything here talks to the program through its public API only
(``AgreementService``, ``explore``, ``execute_degradable_protocol``,
``verify_record``).  Inputs are a pure function of ``(workload, seed)``;
the program never sees the seed, only the generated instances.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.behavior import ConstantLiar, LieAboutSender, TwoFacedBehavior
from repro.core.protocol import execute_degradable_protocol
from repro.core.spec import DegradableSpec
from repro.exceptions import AdmissionError
from repro.explore import ExploreConfig, explore
from repro.net.transport import LocalBus
from repro.serve import AgreementService, record_service_run
from repro.verify import demux_record, verify_record

VALUES = ("attack", "retreat", "hold", "regroup")

#: Byzantine behaviour kinds a generated instance may carry.  None of them
#: withholds a message, so no round deadline ever fires and no run
#: measures a sleep.
FAULT_KINDS = ("constant", "two-faced", "lie-about-sender")

#: Admission attempts before a submit counts as dropped.
SUBMIT_ATTEMPTS = 50


@dataclass(frozen=True)
class ServeShape:
    """One serve workload: protocol size, transport stack and traffic mix."""

    m: int
    u: int
    n_nodes: int
    transport: str  # "local" | "tcp"
    clients: int
    max_inflight: int
    queue_limit: int
    events: bool
    record_trace: bool
    supervise: bool
    #: Probability of 0, 1, 2, ... Byzantine nodes in one instance.
    fault_mix: Tuple[float, ...]
    #: Client k submits its first instance ``k * stagger_s`` after the
    #: start, about one loaded latency over all clients: started together,
    #: the clients would run in lock-step waves.
    stagger_s: float
    #: ``peak_rss_mb`` is read when this many instances have decided: the
    #: service keeps every outcome, so memory grows with the instance
    #: count and a fixed count keeps the figure independent of speed.
    rss_instances: int
    #: Latency percentiles are taken per slice of this many seconds of
    #: the measured time (about a hundred decisions or more each), and
    #: reported as their mean over the slices.
    window_s: float

    @property
    def spec(self) -> DegradableSpec:
        return DegradableSpec(m=self.m, u=self.u, n_nodes=self.n_nodes)

    @property
    def nodes(self) -> List[str]:
        return [f"n{i}" for i in range(self.n_nodes)]


@dataclass(frozen=True)
class ExploreShape:
    """The explorer workload: one bounded DFS over a fixed instance."""

    depth_bound: int
    budget: int
    #: Exact results of one ``explore`` call on this commit's protocol;
    #: the sender value varies with the seed, the shape of the search
    #: does not.
    executions: int
    unique_fingerprints: int
    decision_points: int


WORKLOADS = {
    # The paper's running example (m,u,N) = (1,2,5) on the in-process bus,
    # with the observability bus attached as `repro serve --metrics-port`
    # runs it: loads the gateway queue, the mux, runner task churn,
    # NetMetrics/EventBus instrumentation and LocalBus byte-count encodes.
    "serve-125-local": ServeShape(
        m=1, u=2, n_nodes=5, transport="local", clients=32,
        max_inflight=16, queue_limit=16, events=True, record_trace=False,
        supervise=False, fault_mix=(0.8, 0.1, 0.1), stagger_s=0.003,
        rss_instances=2000, window_s=1.0,
    ),
    # (2,2,7) over real sockets under supervision: every frame is packed,
    # written, read and decoded, EIG trees are depth 3 with disagreeing
    # ballots, supervision stamps and dedups every frame and the trace
    # recorder is on.  The EventBus and the gateway queue are idle.
    "serve-227-tcp": ServeShape(
        m=2, u=2, n_nodes=7, transport="tcp", clients=16,
        max_inflight=16, queue_limit=16, events=False, record_trace=True,
        supervise=True, fault_mix=(0.5, 0.25, 0.25), stagger_s=0.03,
        rss_instances=250, window_s=3.0,
    ),
    # The explorer on the virtual clock: ExploredTransport, fingerprinting
    # and the conformance oracle, no wire codec at all.
    "explore-125": ExploreShape(
        depth_bound=3, budget=400, executions=400,
        unique_fingerprints=116, decision_points=6400,
    ),
}


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Item:
    """One generated agreement instance.

    *faults* is ``((node, kind, argument), ...)``: hashable, so equal
    inputs share one reference computation in the correctness gate.
    """

    sender: str
    value: str
    faults: Tuple[Tuple[str, str, object], ...]

    def behaviors(self) -> Optional[dict]:
        if not self.faults:
            return None
        out = {}
        for node, kind, argument in self.faults:
            if kind == "constant":
                out[node] = ConstantLiar(argument)
            elif kind == "two-faced":
                out[node] = TwoFacedBehavior(dict(argument))
            else:
                out[node] = LieAboutSender(argument, top_sender=self.sender)
        return out

    @property
    def faulty(self) -> frozenset:
        return frozenset(node for node, _, _ in self.faults)


class Plan:
    """The seeded instance stream of one serve workload, made on demand."""

    def __init__(self, shape: ServeShape, seed: int) -> None:
        self.shape = shape
        self._rng = random.Random(f"{shape.transport}:{shape.n_nodes}:{seed}")
        self._items: List[Item] = []

    def __getitem__(self, index: int) -> Item:
        while len(self._items) <= index:
            self._items.append(self._draw())
        return self._items[index]

    def _draw(self) -> Item:
        rng = self._rng
        nodes = self.shape.nodes
        sender = rng.choice(nodes)
        value = rng.choice(VALUES)
        f = rng.choices(
            range(len(self.shape.fault_mix)), weights=self.shape.fault_mix
        )[0]
        faults = []
        for node in sorted(rng.sample(nodes, f)):
            kind = rng.choice(FAULT_KINDS)
            if kind == "two-faced":
                argument = tuple(
                    (dest, rng.choice(VALUES)) for dest in nodes if dest != node
                )
            else:
                argument = rng.choice(VALUES)
            faults.append((node, kind, argument))
        return Item(sender=sender, value=value, faults=tuple(faults))


def explore_config(seed: int) -> ExploreConfig:
    """The explored instance: the default (1,2,5) config, seeded value."""
    return ExploreConfig(sender_value=random.Random(seed).choice(VALUES))


# ----------------------------------------------------------------------
# Service lifecycle and the closed-loop generator
# ----------------------------------------------------------------------
def make_service(shape: ServeShape) -> AgreementService:
    if shape.transport == "tcp":
        from repro.net.tcp import TcpTransport

        transport = TcpTransport()
    else:
        transport = LocalBus()
    events = None
    if shape.events:
        from repro.obs import EventBus

        events = EventBus()
    return AgreementService(
        shape.spec,
        shape.nodes,
        transport=transport,
        max_inflight=shape.max_inflight,
        queue_limit=shape.queue_limit,
        record_trace=shape.record_trace,
        supervise=shape.supervise,
        events=events,
    )


@dataclass
class Sample:
    instance_id: str
    #: Generator clock (``time.perf_counter``): before ``submit`` and
    #: after ``decision()`` returned.  Admission retries fall inside.
    started: float
    finished: float


@dataclass
class LoadResult:
    samples: List[Sample]
    dropped: int
    #: Instance id → generated input, for every instance submitted.
    items: Dict[str, Item]


async def closed_loop(
    service: AgreementService,
    plan: Plan,
    first: int,
    stop_at: Optional[float] = None,
    count: Optional[int] = None,
    on_sample: Optional[Callable[[int], None]] = None,
) -> LoadResult:
    """Run the shape's closed-loop clients from plan index *first*.

    Each client submits its next instance only after the previous one
    decided.  Clients stop taking new work once ``time.perf_counter()``
    passes *stop_at*, or once *count* instances have been taken; work
    already taken always finishes.  *on_sample* is called with the number
    of instances decided so far, after each decision.
    """
    clients, stagger = plan.shape.clients, plan.shape.stagger_s
    samples: List[Sample] = []
    items: Dict[str, Item] = {}
    dropped = 0
    next_index = first

    def take() -> Optional[int]:
        nonlocal next_index
        if count is not None and next_index >= first + count:
            return None
        if stop_at is not None and time.perf_counter() >= stop_at:
            return None
        index = next_index
        next_index += 1
        return index

    async def client(k: int) -> None:
        nonlocal dropped
        await asyncio.sleep(k * stagger)
        while True:
            index = take()
            if index is None:
                return
            item = plan[index]
            instance_id = f"w{index:06d}"
            started = time.perf_counter()
            for _ in range(SUBMIT_ATTEMPTS):
                try:
                    service.submit(
                        item.sender,
                        item.value,
                        behaviors=item.behaviors(),
                        instance_id=instance_id,
                    )
                    break
                except AdmissionError as exc:
                    await asyncio.sleep(max(0.001, exc.retry_after))
            else:
                dropped += 1
                continue
            items[instance_id] = item
            await service.decision(instance_id)
            samples.append(
                Sample(instance_id, started, time.perf_counter())
            )
            if on_sample is not None:
                on_sample(len(samples))

    await asyncio.gather(*(client(k) for k in range(clients)))
    return LoadResult(samples=samples, dropped=dropped, items=items)


# ----------------------------------------------------------------------
# Correctness gate (runs outside every timed window)
# ----------------------------------------------------------------------
class Reference:
    """Synchronous-engine decisions, cached per distinct input."""

    def __init__(self, shape: ServeShape) -> None:
        self.shape = shape
        self._cache: Dict[Item, dict] = {}

    def decisions(self, item: Item) -> dict:
        if item not in self._cache:
            result, _ = execute_degradable_protocol(
                self.shape.spec,
                self.shape.nodes,
                item.sender,
                item.value,
                behaviors=item.behaviors(),
                record_trace=False,
            )
            self._cache[item] = dict(result.decisions)
        return self._cache[item]


def check_service(
    service: AgreementService,
    items: Dict[str, Item],
    reference: Reference,
) -> List[str]:
    """Every way the service's answers can be wrong, one line each.

    Each decision must equal the synchronous engine's *with that
    instance's behaviours*; the outcome's fault set and tier must be the
    ones the inputs select and the tier's contract must hold; no instance
    may be watchdogged.  With trace recording on, the demuxed service
    record must pass the conformance oracle instance by instance.
    """
    spec = reference.shape.spec
    failures: List[str] = []
    for instance_id, item in sorted(items.items()):
        outcome = service.outcomes.get(instance_id)
        if outcome is None:
            failures.append(f"{instance_id}: no outcome")
            continue
        if outcome.watchdogged:
            failures.append(f"{instance_id}: watchdog fired")
        if outcome.decisions != reference.decisions(item):
            failures.append(f"{instance_id}: diverges from the sync engine")
        if outcome.afflicted != item.faulty:
            failures.append(f"{instance_id}: wrong fault set")
        if outcome.tier != spec.guarantee_for(len(item.faulty)):
            failures.append(f"{instance_id}: wrong tier {outcome.tier}")
        if not outcome.report.satisfied:
            failures.append(f"{instance_id}: contract not satisfied")
    if reference.shape.record_trace and items:
        for instance_id, sub in demux_record(record_service_run(service)).items():
            report = verify_record(sub)
            if not report.ok:
                failures.append(
                    f"{instance_id}: oracle {','.join(report.codes)}"
                )
    return failures


def check_explore(report, shape: ExploreShape) -> List[str]:
    failures = [f"violation: {v.token}" for v in report.violations]
    for name in ("executions", "unique_fingerprints", "decision_points"):
        got, want = getattr(report, name), getattr(shape, name)
        if got != want:
            failures.append(f"explore {name} = {got}, expected {want}")
    return failures


def run_explore(
    config: ExploreConfig, shape: ExploreShape, budget: Optional[int] = None
):
    return explore(
        config,
        depth_bound=shape.depth_bound,
        budget=shape.budget if budget is None else budget,
        stop_at_first=False,
    )
