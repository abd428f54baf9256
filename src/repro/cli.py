"""Command-line interface: ``python -m repro <command>``.

Exposes the library's main entry points for interactive exploration:

* ``table``        — the Section 2 minimum-node table;
* ``tradeoff``     — maximal (m, u) configurations for a node budget;
* ``run``          — execute one agreement instance with chosen faults;
* ``scenarios``    — the Theorem 2 triple at / below the node bound;
* ``connectivity`` — the Theorem 3 pair at / below the connectivity bound;
* ``reliability``  — correct/safe/unsafe probabilities for a design;
* ``complexity``   — cost comparison for surviving u faults;
* ``search``       — exhaustive adversary search for 1/u instances;
* ``mission``      — fly the Figure 1(b) channel system with transient faults;
* ``net``          — run one agreement over the asyncio runtime (in-process
  bus or real TCP sockets) and print the wire metrics;
* ``bench``        — benchmark the wire path: batched vs unbatched frame
  counts, bytes and round latencies across an (m, u, N) x transport grid,
  gated on the two modes staying decision-identical;
* ``chaos``        — soak the runtime under seeded network chaos (loss,
  duplication, reordering, corruption, partitions, crashes) and assert the
  paper's D.1–D.4 guarantee tiers against the chaos actually injected;
* ``serve``        — run a multi-instance agreement service: N node
  daemons over one shared transport pair per link, many concurrent
  agreement instances multiplexed on it, per-instance verdicts and
  aggregate wire metrics;
* ``load``         — drive the service with a seeded open-/closed-loop
  client load generator; reports latency percentiles and throughput and
  writes ``BENCH_serve.json``, gated on every decision matching the
  synchronous reference engine;
* ``stats``        — render a one-shot observability snapshot from a
  recorded artifact (``BENCH_serve.json``, ``BENCH_net.json``, or a
  trace record); ``--prom`` emits Prometheus text exposition so recorded
  runs scrape into the same dashboards as live ones
  (``serve``/``load`` gain ``--metrics-port`` for the live endpoint);
* ``trace``        — record a causal span trace of one seeded run
  (``net`` single instance or ``serve`` multi-instance, optionally under
  chaos / the kill-links soak), export it as lossless span JSONL plus a
  Perfetto-loadable Chrome trace, and print the per-round critical path
  ("round 3 dominated by retry backoff on link S->p2"); span ids derive
  from the seed and logical coordinates only, so same-seed traces are
  bit-identical and tracing never perturbs the run it observes;
* ``verify``       — audit a recorded trace offline: re-derive every
  fault-free node's vote tree from the recorded deliveries and check vote
  arithmetic, round structure, absence→V_d accounting and the D.1–D.4
  tier; multi-instance service traces are demultiplexed automatically;
* ``fuzz``         — differential fuzzing: sample small instances ×
  behaviours × chaos seeds, run each over sync / local-bus / tcp ×
  batched / unbatched, and feed every trace through the verify oracle
  plus cross-mode decision equivalence;
* ``explore``      — deterministic schedule-space exploration: run the
  real async runner on a virtual clock, enumerate per-frame
  delivery/drop/stall/defer decisions to a deviation bound with
  partial-order pruning, judge every execution with the verify oracle,
  and shrink any violation to a minimal replayable schedule token.

Every command prints plain text; exit status is 0 on success, 1 when an
executed check fails (e.g. a violated agreement contract), 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.exceptions import ReproError


def _add_spec_arguments(
    parser, m_default: Optional[int] = None, u_default: Optional[int] = None
) -> None:
    """The ``(m, u, N)`` cluster every protocol-executing verb shares.

    With no defaults the pair is required (``repro run``); verbs with a
    canonical running-example default pass ``m_default``/``u_default``.
    ``-n`` always defaults to the paper's minimum, ``2m + u + 1``.
    """
    required = m_default is None and u_default is None
    parser.add_argument("-m", type=int, default=m_default, required=required,
                        help="Byzantine fault bound m")
    parser.add_argument("-u", type=int, default=u_default, required=required,
                        help="degraded fault bound u (m <= u)")
    parser.add_argument("-n", "--nodes", type=int, default=None,
                        help="node count (default 2m+u+1)")


def _add_wire_arguments(
    parser,
    timeout: float,
    transports: bool = True,
    batch_flag: bool = True,
) -> None:
    """The wire-mode cluster shared by net/chaos/bench/serve/load.

    Every verb gets ``--timeout``; *transports* adds the local/tcp choice
    (bench sweeps both itself) and *batch_flag* the legacy-wire-path
    switch (chaos always runs the batched path it soaks).
    """
    if transports:
        parser.add_argument(
            "--transport", default="local", choices=["local", "tcp"],
            help="in-process asyncio bus or real localhost sockets")
    parser.add_argument("--timeout", type=float, default=timeout,
                        help="per-round deadline in seconds")
    if batch_flag:
        parser.add_argument(
            "--no-batch", action="store_true",
            help="use the legacy one-frame-per-message wire path "
                 "instead of per-link batches")


def _add_seed_argument(parser, default: int, help_text: str) -> None:
    parser.add_argument("--seed", type=int, default=default, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Degradable agreement (Vaidya, ICDCS 1993) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table", help="Section 2 minimum-node table")

    p = sub.add_parser("tradeoff", help="maximal (m,u) configs for a node budget")
    p.add_argument("nodes", type=int)

    p = sub.add_parser("run", help="execute one agreement instance")
    _add_spec_arguments(p)
    p.add_argument("--value", default="alpha", help="sender's value")
    p.add_argument("--faulty", default="",
                   help="comma-separated faulty node ids (S, p1, p2, ...)")
    p.add_argument("--adversary", default="lie",
                   choices=["lie", "silent", "constant", "two-faced"])
    p.add_argument("--verbose", action="store_true",
                   help="narrate the full execution (messages and ballots)")
    p.add_argument("--trace", default="",
                   help="record the execution to this JSONL file "
                        "(auditable with 'repro verify')")

    p = sub.add_parser(
        "net", help="run one agreement over the async runtime (LocalBus/TCP)"
    )
    _add_spec_arguments(p, m_default=1, u_default=2)
    _add_wire_arguments(p, timeout=2.0)
    p.add_argument("--value", default="alpha", help="sender's value")
    p.add_argument("--faulty", default="",
                   help="comma-separated faulty node ids (S, p1, p2, ...)")
    p.add_argument("--adversary", default="lie",
                   choices=["lie", "silent", "constant", "two-faced", "crash"],
                   help="'crash' mutes nodes at the wire level, forcing real "
                        "round-deadline timeouts")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the synchronous-engine cross-check")
    p.add_argument("--trace", default="",
                   help="record the execution to this JSONL file "
                        "(auditable with 'repro verify')")

    p = sub.add_parser(
        "serve",
        help="run a multi-instance agreement service over one shared "
             "transport and print per-instance verdicts",
    )
    _add_spec_arguments(p, m_default=1, u_default=2)
    _add_wire_arguments(p, timeout=2.0)
    _add_seed_argument(p, 0, "seeds the instance value draw")
    p.add_argument("--instances", type=int, default=8,
                   help="concurrent agreement instances to submit")
    p.add_argument("--max-inflight", type=int, default=16,
                   help="instances allowed to run concurrently")
    p.add_argument("--queue-limit", type=int, default=64,
                   help="admitted instances allowed to wait behind them")
    p.add_argument("--chaos", default="", metavar="SEVERITY",
                   help="wrap the shared transport in seeded chaos "
                        "(light/heavy/partition/crash); each instance is "
                        "judged against its own charged fault set")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the synchronous-engine decision cross-check "
                        "(skipped automatically under chaos)")
    p.add_argument("--trace", default="",
                   help="record the whole service run to this JSONL file "
                        "(repro verify demultiplexes it)")
    p.add_argument("--metrics-port", type=int, default=None,
                   metavar="PORT",
                   help="serve /metrics + /healthz + /events on this port "
                        "for the duration of the run (0 = ephemeral; the "
                        "bound endpoint is printed on stdout)")
    p.add_argument("--metrics-linger", type=float, default=0.0,
                   metavar="SECONDS",
                   help="keep the metrics endpoint up this long after the "
                        "instances finish (scrape window for external "
                        "collectors and the CI gate)")

    p = sub.add_parser(
        "load",
        help="drive the agreement service with a seeded client load "
             "generator and write BENCH_serve.json",
    )
    _add_spec_arguments(p, m_default=1, u_default=2)
    _add_wire_arguments(p, timeout=5.0, batch_flag=True)
    _add_seed_argument(p, 20260808, "seeds arrivals and value draws")
    p.add_argument("--instances", type=int, default=64,
                   help="total agreement instances to push through")
    p.add_argument("--mode", default="closed", choices=["open", "closed"],
                   help="open loop (exponential arrivals at --rate) or "
                        "closed loop (--concurrency clients, one "
                        "outstanding instance each)")
    p.add_argument("--rate", type=float, default=200.0,
                   help="open loop: mean arrivals per second")
    p.add_argument("--concurrency", type=int, default=8,
                   help="closed loop: synthetic clients")
    p.add_argument("--max-inflight", type=int, default=16,
                   help="instances allowed to run concurrently")
    p.add_argument("--queue-limit", type=int, default=64,
                   help="admitted instances allowed to wait behind them")
    p.add_argument("--quick", action="store_true",
                   help="small workload (the CI gate)")
    p.add_argument("--out", default="BENCH_serve.json",
                   help="write the JSON report here ('' to skip)")
    p.add_argument("--metrics-port", type=int, default=None,
                   metavar="PORT",
                   help="serve /metrics during the run (0 = ephemeral), "
                        "self-scrape it mid-run, and embed the sample in "
                        "the report")

    p = sub.add_parser(
        "trace",
        help="record a causal span trace of one seeded run and render "
             "its per-round critical path (exports span JSONL + "
             "Perfetto-loadable JSON)",
    )
    _add_spec_arguments(p, m_default=1, u_default=2)
    _add_wire_arguments(p, timeout=0.5)
    _add_seed_argument(
        p, 0, "seeds chaos, supervision backoff and every span id"
    )
    p.add_argument("--mode", default="net", choices=["net", "serve"],
                   help="net: one traced agreement instance; serve: a "
                        "traced multi-instance service run")
    p.add_argument("--value", default="alpha", help="sender's value")
    p.add_argument("--instances", type=int, default=4,
                   help="serve mode: concurrent agreement instances")
    p.add_argument("--chaos", default="", metavar="SEVERITY",
                   help="run under seeded chaos "
                        "(light/heavy/partition/crash)")
    p.add_argument("--kill-links", action="store_true",
                   help="net mode: the self-healing soak — hard-reset "
                        "every connection at each relay round and "
                        "crash-restart one seeded victim's endpoint, "
                        "under a reconnecting supervisor (implies "
                        "'light' chaos unless --chaos says otherwise)")
    p.add_argument("--spans", default="TRACE_spans.jsonl",
                   help="write the lossless span log here ('' to skip)")
    p.add_argument("--perfetto", default="TRACE_perfetto.json",
                   help="write the Chrome-trace-event JSON here — open "
                        "it at https://ui.perfetto.dev ('' to skip)")
    p.add_argument("--record", default="",
                   help="also record the repro.verify trace here and "
                        "cross-check its TIMEOUT records against the "
                        "span-side deadline ride-outs")

    p = sub.add_parser(
        "stats",
        help="render a one-shot observability snapshot from a recorded "
             "artifact (BENCH_serve.json / BENCH_net.json / trace JSONL)",
    )
    p.add_argument("artifact", metavar="FILE",
                   help="artifact to snapshot")
    p.add_argument("--prom", action="store_true",
                   help="emit Prometheus text exposition instead of the "
                        "human-readable table")

    p = sub.add_parser(
        "bench",
        help="benchmark the wire path: batched vs unbatched frame counts, "
             "bytes and round latencies, with an equivalence gate",
    )
    p.add_argument("--quick", action="store_true",
                   help="small grid / fewer repeats (the CI gate)")
    p.add_argument("--repeats", type=int, default=3,
                   help="runs per grid cell; round latencies pool across them")
    p.add_argument("--out", default="BENCH_net.json",
                   help="write the JSON report here ('' to skip)")
    p.add_argument("--baseline", default="",
                   help="compare against a previous BENCH_net.json; a "
                        "batched frame-count increase fails the run")
    _add_wire_arguments(p, timeout=5.0, transports=False, batch_flag=False)

    p = sub.add_parser(
        "chaos",
        help="soak the async runtime under seeded network chaos",
    )
    _add_seed_argument(p, 0, "campaign seed; every trial seed derives from it")
    p.add_argument("--severity", default="light",
                   choices=["light", "heavy", "partition", "crash", "all"],
                   help="chaos preset to sweep ('all' runs every preset)")
    p.add_argument("--trials", type=int, default=10,
                   help="trials per severity preset")
    _add_wire_arguments(p, timeout=0.25, batch_flag=False)
    p.add_argument("--report", default="",
                   help="write the full JSON campaign report here")
    p.add_argument("--kill-links", action="store_true",
                   help="soak the self-healing layer: hard-reset every TCP "
                        "connection at each relay round and crash-restart "
                        "one node's endpoint mid-run, under a reconnecting "
                        "supervisor; the campaign runs twice with the same "
                        "seed and the wire fingerprints (reconnect counters "
                        "included) must be identical")
    p.add_argument("--replay", default="",
                   help="replay one trial from a failure's replay token "
                        "(overrides every other option)")

    p = sub.add_parser(
        "verify", help="audit a recorded trace against the conformance oracle"
    )
    p.add_argument("traces", nargs="+", metavar="TRACE",
                   help="trace files written by 'repro run/net --trace'")
    p.add_argument("--quiet", action="store_true",
                   help="only print failures")

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing across sync/local/tcp x batched/unbatched",
    )
    p.add_argument("--quick", action="store_true",
                   help="small example budget (the CI gate)")
    _add_seed_argument(p, 0, "fuzzing seed; fully determines the sampled cases")
    p.add_argument("--examples", type=int, default=None,
                   help="example budget (default 20, or 6 with --quick)")
    p.add_argument("--transport", default="all",
                   choices=["local", "tcp", "all"],
                   help="net transports to fuzz (default: both)")
    p.add_argument("--no-chaos", action="store_true",
                   help="sample only chaos-free cases")
    p.add_argument("--replay", default="",
                   help="replay one case from a failure's replay token "
                        "(overrides sampling options)")

    p = sub.add_parser(
        "explore",
        help="deterministic schedule-space exploration on a virtual clock",
    )
    _add_spec_arguments(p, m_default=1, u_default=2)
    p.add_argument("--value", default="alpha", help="the sender's value")
    p.add_argument("--faulty", default="",
                   help="comma-separated node:kind behaviour faults "
                        "(kinds: lie, silent, constant, two-faced)")
    p.add_argument("--depth", type=int, default=2,
                   help="max non-default schedule choices per execution")
    p.add_argument("--budget", type=int, default=200,
                   help="max executions before the campaign stops")
    p.add_argument("--keep-going", action="store_true",
                   help="enumerate every violation instead of stopping "
                        "at the first")
    _add_wire_arguments(p, timeout=1.0, transports=False)
    p.add_argument("--supervise", action="store_true",
                   help="explore through the self-healing supervision layer")
    p.add_argument("--inject-vote-bug", type=int, default=0, metavar="OFFSET",
                   help="skew every resolver's vote threshold by OFFSET "
                        "(test hook: the explorer must catch the violation)")
    p.add_argument("--replay", default="",
                   help="re-execute one schedule from a violation's replay "
                        "token (overrides every other option)")
    p.add_argument("--smoke", action="store_true",
                   help="fixed quick campaign for the CI gate: correct "
                        "config must pass, seeded vote bug must be caught")
    p.add_argument("--bench", action="store_true",
                   help="full benchmark campaign; writes the artifact "
                        "named by --out")
    p.add_argument("--out", default="",
                   help="benchmark artifact path "
                        "(default BENCH_explore.json with --bench)")

    p = sub.add_parser("scenarios", help="Theorem 2 triple at and below the bound")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-u", type=int, required=True)

    p = sub.add_parser("connectivity", help="Theorem 3 pair at and below the bound")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-u", type=int, required=True)

    p = sub.add_parser("reliability", help="correct/safe/unsafe probabilities")
    p.add_argument("nodes", type=int)
    p.add_argument("-p", "--p-node", type=float, default=0.03)

    p = sub.add_parser("complexity", help="cost of surviving u faults")
    p.add_argument("-u", type=int, required=True)

    p = sub.add_parser("search", help="exhaustive adversary search (m=1)")
    p.add_argument("-u", type=int, required=True)
    p.add_argument("--below", action="store_true",
                   help="search one node below the bound instead")

    p = sub.add_parser("mission", help="fly the Figure 1(b) channel system")
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("-p", "--fault-probability", type=float, default=0.05)
    _add_seed_argument(p, 0, "seeds the transient-fault draw")

    p = sub.add_parser(
        "report", help="regenerate every table/figure into one markdown report"
    )
    p.add_argument("-o", "--out", default="",
                   help="write the report here (default: stdout)")
    p.add_argument("--no-battery", action="store_true",
                   help="skip the experiment battery header")

    p = sub.add_parser(
        "clocksync", help="evaluate the degradable clock-sync conjecture"
    )
    p.add_argument("-m", type=int, default=1)
    p.add_argument("-u", type=int, default=2)
    p.add_argument("-n", "--nodes", type=int, default=None)

    p = sub.add_parser(
        "suite", help="run a scenario suite (built-in golden set by default)"
    )
    p.add_argument("path", nargs="?", default="",
                   help="JSON scenario-suite file; omit for the reference suite")
    p.add_argument("--save", default="",
                   help="write the reference suite JSON to this path and exit")

    p = sub.add_parser(
        "experiments", help="run the quick experiment battery (E1..E9)"
    )
    p.add_argument("--only", default="",
                   help="comma-separated experiment ids (default: all)")
    p.add_argument("--out", default="",
                   help="write JSON results to this path")

    return parser


def _cmd_table(args) -> int:
    from repro.analysis.tables import section2_min_nodes_table

    print(section2_min_nodes_table())
    return 0


def _cmd_tradeoff(args) -> int:
    from repro.analysis.tables import seven_node_tradeoff_table

    print(seven_node_tradeoff_table(args.nodes))
    return 0


def _build_instance(args):
    """Shared (spec, nodes, faulty, behaviors) setup for run/net commands.

    Returns ``None`` (after printing to stderr) when a faulty id is unknown.
    The ``crash`` adversary maps to no behaviour — the caller realizes it at
    the transport level (omission injector / wire mute).
    """
    from repro.core import (
        BehaviorMap, ConstantLiar, DegradableSpec, LieAboutSender,
        SilentBehavior, TwoFacedBehavior,
    )

    n = args.nodes if args.nodes is not None else 2 * args.m + args.u + 1
    spec = DegradableSpec(m=args.m, u=args.u, n_nodes=n)
    nodes = ["S"] + [f"p{k}" for k in range(1, n)]
    faulty = {f for f in args.faulty.split(",") if f}
    unknown = faulty - set(nodes)
    if unknown:
        print(f"unknown node ids: {sorted(unknown)}", file=sys.stderr)
        return None
    adversary = getattr(args, "adversary", "lie")
    behaviors: BehaviorMap = {}
    for node in faulty:
        if adversary == "lie":
            behaviors[node] = LieAboutSender("forged", "S")
        elif adversary == "silent":
            behaviors[node] = SilentBehavior()
        elif adversary == "constant":
            behaviors[node] = ConstantLiar("forged")
        elif adversary == "two-faced":
            behaviors[node] = TwoFacedBehavior(
                {p: ("x" if i % 2 else "y") for i, p in enumerate(nodes)}
            )
        # "crash" intentionally adds no behaviour.
    return spec, nodes, faulty, behaviors


def _cmd_run(args) -> int:
    from repro.core import classify, run_degradable_agreement

    instance = _build_instance(args)
    if instance is None:
        return 2
    spec, nodes, faulty, behaviors = instance
    if args.verbose:
        from repro.core.narrate import narrate_execution

        print(narrate_execution(
            spec, nodes, "S", args.value, behaviors, faulty=faulty
        ))
        result = run_degradable_agreement(spec, nodes, "S", args.value, behaviors)
        report = classify(result, faulty, spec)
        return 0 if report.satisfied else 1
    if args.trace:
        from repro.core.protocol import execute_degradable_protocol
        from repro.verify import record_sync_run

        result, engine = execute_degradable_protocol(
            spec, nodes, "S", args.value, behaviors
        )
        record_sync_run(
            spec, nodes, "S", args.value, faulty, engine
        ).save(args.trace)
        print(f"trace recorded to {args.trace}")
    else:
        result = run_degradable_agreement(
            spec, nodes, "S", args.value, behaviors
        )
    report = classify(result, faulty, spec)
    print(f"{spec}; f={len(faulty)} ({report.regime} regime)")
    for node in nodes[1:]:
        marker = "x" if node in faulty else " "
        print(f"  [{marker}] {node} -> {result.decisions[node]!r}")
    print(f"shape: {report.shape.value}")
    if report.satisfied:
        print("contract: SATISFIED")
        return 0
    print("contract: VIOLATED")
    for violation in report.violations:
        print(f"  !! {violation}")
    return 1


def _cmd_net(args) -> int:
    import asyncio

    from repro.core import classify, execute_degradable_protocol
    from repro.net import (
        LocalBus,
        MuteAdapter,
        TcpTransport,
        run_agreement_async,
    )
    from repro.sim.faults import OmissionInjector

    if args.timeout <= 0:
        print(f"error: --timeout must be > 0, got {args.timeout}",
              file=sys.stderr)
        return 2
    instance = _build_instance(args)
    if instance is None:
        return 2
    spec, nodes, faulty, behaviors = instance
    crashed = faulty if args.adversary == "crash" else set()
    transport = TcpTransport() if args.transport == "tcp" else LocalBus()
    adapters = [MuteAdapter(crashed)] if crashed else []
    outcome = asyncio.run(
        run_agreement_async(
            spec, nodes, "S", args.value,
            behaviors=behaviors,
            transport=transport,
            adapters=adapters,
            round_timeout=args.timeout,
            batching=not args.no_batch,
        )
    )
    result = outcome.result
    if args.trace:
        from repro.verify import record_net_outcome

        record_net_outcome(
            spec, nodes, "S", args.value, faulty, outcome,
            batched=not args.no_batch,
        ).save(args.trace)
        print(f"trace recorded to {args.trace}")
    report = classify(result, faulty, spec)
    print(f"{spec}; f={len(faulty)} ({report.regime} regime) "
          f"over transport '{outcome.metrics.transport}'")
    for node in nodes[1:]:
        marker = "x" if node in faulty else " "
        print(f"  [{marker}] {node} -> {result.decisions[node]!r}")
    print(f"shape: {report.shape.value}")
    print()
    print(outcome.metrics.render())
    ok = report.satisfied
    if not args.no_verify:
        extra = [OmissionInjector.from_sources(crashed)] if crashed else None
        sync_result, _ = execute_degradable_protocol(
            spec, nodes, "S", args.value, behaviors, extra_injectors=extra
        )
        matches = sync_result.decisions == result.decisions
        print()
        print("synchronous-engine cross-check: "
              + ("decisions identical" if matches else "MISMATCH"))
        if not matches:
            for node, value in sorted(sync_result.decisions.items()):
                if result.decisions.get(node) != value:
                    print(f"  {node}: sync={value!r} "
                          f"async={result.decisions.get(node)!r}")
        ok = ok and matches
    if ok:
        print("contract: SATISFIED")
        return 0
    print("contract: VIOLATED")
    for violation in report.violations:
        print(f"  !! {violation}")
    return 1


def _cmd_serve(args) -> int:
    import asyncio
    import random as random_module

    from repro.core import DegradableSpec, execute_degradable_protocol
    from repro.net import LocalBus, TcpTransport
    from repro.serve import AgreementService, record_service_run
    from repro.serve.load import VALUES

    if args.timeout <= 0:
        print(f"error: --timeout must be > 0, got {args.timeout}",
              file=sys.stderr)
        return 2
    if args.instances < 1:
        print(f"error: --instances must be >= 1, got {args.instances}",
              file=sys.stderr)
        return 2
    n = args.nodes if args.nodes is not None else 2 * args.m + args.u + 1
    spec = DegradableSpec(m=args.m, u=args.u, n_nodes=n)
    nodes = ["S"] + [f"p{k}" for k in range(1, n)]
    chaos = None
    chaos_rng = None
    if args.chaos:
        from repro.net.chaos import make_policy

        chaos_rng = random_module.Random(args.seed)
        chaos = make_policy(args.chaos, spec, nodes, chaos_rng, seed=args.seed)
    rng = random_module.Random(args.seed)
    plan = [
        (nodes[i % len(nodes)], rng.choice(VALUES))
        for i in range(args.instances)
    ]

    events = None
    if args.metrics_port is not None:
        from repro.obs import EventBus

        events = EventBus()

    async def run_service():
        service = AgreementService(
            spec,
            nodes,
            transport=TcpTransport() if args.transport == "tcp" else LocalBus(),
            chaos=chaos,
            chaos_rng=chaos_rng,
            max_inflight=args.max_inflight,
            queue_limit=args.queue_limit,
            round_timeout=args.timeout,
            batching=not args.no_batch,
            events=events,
        )
        obs_server = None
        if args.metrics_port is not None:
            from repro.obs import ObsServer, metrics_registry

            obs_server = ObsServer(
                lambda: metrics_registry(
                    service.aggregate_metrics, service=service, bus=events
                ),
                health=lambda: {
                    # Override the default "ok" once any instance was
                    # watchdog-cancelled: still HTTP 200 (the process is
                    # alive and scrapable), but probes see the distinction.
                    "status": (
                        "degraded"
                        if service.aggregate_metrics.watchdog_cancellations
                        else "ok"
                    ),
                    "instances_done": len(service.outcomes),
                    "inflight": service.inflight,
                    "queue_depth": service.queue_depth,
                    "watchdogged":
                        service.aggregate_metrics.watchdog_cancellations,
                },
                bus=events,
                port=args.metrics_port,
            )
            await obs_server.start()
            # External scrapers (and the CI gate) parse this line; keep
            # it first and flushed so they see it before the run ends.
            print(f"metrics: {obs_server.url}/metrics", flush=True)
        try:
            async with service:
                iids = [
                    service.submit(sender, value) for sender, value in plan
                ]
                decided = [await service.decision(iid) for iid in iids]
                if obs_server is not None and args.metrics_linger > 0:
                    await asyncio.sleep(args.metrics_linger)
            return service, decided
        finally:
            if obs_server is not None:
                await obs_server.close()

    service, outcomes = asyncio.run(run_service())
    print(f"{spec}; {len(outcomes)} instance(s) multiplexed over one "
          f"'{service.aggregate_metrics.transport}' transport"
          + (f" under '{args.chaos}' chaos" if args.chaos else ""))
    for outcome in outcomes:
        status = "ok " if outcome.ok else "FAIL"
        print(f"  [{status}] {outcome.instance_id}  sender={outcome.sender} "
              f"value={outcome.sender_value!r}  tier={outcome.tier} "
              f"f_eff={len(outcome.afflicted)}  "
              f"latency={outcome.latency * 1000:.1f}ms")
    print()
    print(service.aggregate_metrics.render())
    ok = all(outcome.ok for outcome in outcomes)
    if not args.no_verify and chaos is None:
        mismatches = 0
        for outcome in outcomes:
            reference, _ = execute_degradable_protocol(
                spec, nodes, outcome.sender, outcome.sender_value,
                record_trace=False,
            )
            if reference.decisions != outcome.decisions:
                mismatches += 1
                print(f"  !! {outcome.instance_id}: decisions diverge from "
                      f"the synchronous engine")
        print()
        print("synchronous-engine cross-check: "
              + ("decisions identical" if not mismatches
                 else f"{mismatches} instance(s) MISMATCH"))
        ok = ok and not mismatches
    if args.trace:
        record_service_run(service).save(args.trace)
        print(f"service trace recorded to {args.trace}")
    if ok:
        print("service: ALL INSTANCES SATISFIED THEIR TIER")
        return 0
    print("service: CONTRACT VIOLATED")
    return 1


def _cmd_load(args) -> int:
    import asyncio

    from repro.serve import LoadConfig, run_load

    if args.timeout <= 0:
        print(f"error: --timeout must be > 0, got {args.timeout}",
              file=sys.stderr)
        return 2
    instances = args.instances
    concurrency = args.concurrency
    if args.quick:
        instances = min(instances, 32)
        concurrency = min(concurrency, 8)
    n = args.nodes if args.nodes is not None else 2 * args.m + args.u + 1
    config = LoadConfig(
        m=args.m,
        u=args.u,
        n_nodes=n,
        instances=instances,
        mode=args.mode,
        rate=args.rate,
        concurrency=concurrency,
        seed=args.seed,
        transport=args.transport,
        batching=not args.no_batch,
        max_inflight=args.max_inflight,
        queue_limit=args.queue_limit,
        round_timeout=args.timeout,
        metrics_port=args.metrics_port,
    )
    print(f"load: {config.mode} loop, {config.instances} instance(s), "
          f"(m={config.m}, u={config.u}, N={config.n_nodes}) over "
          f"'{config.transport}', seed={config.seed}")
    # The announce hook surfaces the *bound* metrics endpoint the moment
    # it exists (--metrics-port 0 picks an ephemeral port), so scrapers
    # and the CI gate parse this line instead of racing on a fixed port.
    report = asyncio.run(run_load(
        config, announce=lambda line: print(f"  {line}", flush=True)
    ))
    latency = report.latencies
    print(f"  done={report.instances_done}  "
          f"throughput={report.throughput:.1f}/s  "
          f"rejections={report.rejections}  "
          f"dropped={report.dropped_submits}")
    print(f"  latency p50={latency['p50'] * 1000:.1f}ms  "
          f"p95={latency['p95'] * 1000:.1f}ms  "
          f"p99={latency['p99'] * 1000:.1f}ms  "
          f"max={latency['max'] * 1000:.1f}ms")
    if report.metrics_sample:
        print(f"  metrics: {report.metrics_sample['samples']} sample(s) "
              f"self-scraped mid-run from "
              f"{report.metrics_sample['endpoint']}")
    if report.divergences:
        print(f"  !! {len(report.divergences)} instance(s) diverged from "
              f"the synchronous engine: {report.divergences[:5]}")
    if args.out:
        report.save(args.out)
        print(f"  report written to {args.out}")
    if report.ok:
        print("load: PASSED (all decisions match the synchronous engine)")
        return 0
    print("load: FAILED")
    return 1


def _cmd_trace(args) -> int:
    import asyncio
    import random as random_module
    from dataclasses import replace as dc_replace

    from repro.core import DegradableSpec
    from repro.net import LocalBus, TcpTransport, run_agreement_async
    from repro.trace import (
        Tracer,
        critical_paths,
        cross_link,
        summary_lines,
        validate_spans,
        write_perfetto,
        write_spans,
    )

    if args.timeout <= 0:
        print(f"error: --timeout must be > 0, got {args.timeout}",
              file=sys.stderr)
        return 2
    if args.mode == "serve" and args.kill_links:
        print("error: --kill-links is a net-mode soak "
              "(the service runs its own supervision)", file=sys.stderr)
        return 2
    if args.instances < 1:
        print(f"error: --instances must be >= 1, got {args.instances}",
              file=sys.stderr)
        return 2
    n = args.nodes if args.nodes is not None else 2 * args.m + args.u + 1
    spec = DegradableSpec(m=args.m, u=args.u, n_nodes=n)
    nodes = ["S"] + [f"p{k}" for k in range(1, n)]
    severity = args.chaos or ("light" if args.kill_links else "")
    tracer = Tracer(seed=args.seed)

    if args.mode == "net":
        base = TcpTransport() if args.transport == "tcp" else LocalBus()
        transport = base
        chaos_transport = None
        if severity:
            from repro.net.chaos import (
                ChaosTransport,
                EndpointRestart,
                make_policy,
            )

            # Same construction as the chaos campaign's kill-links trial:
            # one RNG drives victim selection and every per-frame draw, so
            # a (seed, severity) pair here reproduces that schedule.
            rng = random_module.Random(args.seed)
            policy = make_policy(severity, spec, nodes, rng, seed=args.seed)
            if args.kill_links:
                receivers = [node for node in nodes if node != "S"]
                victim = receivers[rng.randrange(len(receivers))]
                policy = dc_replace(
                    policy,
                    link_resets=tuple(range(2, spec.rounds + 1)),
                    restarts=(EndpointRestart(node=victim, at_round=2),),
                )
            chaos_transport = ChaosTransport(base, policy, rng=rng)
            transport = chaos_transport
        outcome = asyncio.run(
            run_agreement_async(
                spec,
                nodes,
                "S",
                args.value,
                transport=transport,
                round_timeout=args.timeout,
                batching=not args.no_batch,
                supervise=args.kill_links,
                supervision_rng=(
                    random_module.Random(args.seed)
                    if args.kill_links else None
                ),
                tracer=tracer,
            )
        )
        afflicted = (
            set(chaos_transport.log.afflicted) if chaos_transport else set()
        )
        trace_events = outcome.trace.events if outcome.trace else ()
        print(f"{spec}; traced net run, seed={args.seed}"
              + (f", '{severity}' chaos" if severity else "")
              + (", kill-links soak" if args.kill_links else ""))
        if afflicted:
            from repro.net.chaos import tier_for

            print(f"  f_eff={len(afflicted)} "
                  f"afflicted={sorted(str(a) for a in afflicted)} "
                  f"tier={tier_for(spec, len(afflicted))}")
        for node in nodes[1:]:
            print(f"  {node} -> {outcome.result.decisions[node]!r}")
        if args.record:
            from repro.verify import record_net_outcome

            record_net_outcome(
                spec, nodes, "S", args.value, frozenset(afflicted),
                outcome, batched=not args.no_batch,
            ).save(args.record)
            print(f"  verify trace recorded to {args.record}")
    else:
        from repro.serve import AgreementService, record_service_run
        from repro.serve.load import VALUES

        chaos = None
        chaos_rng = None
        if severity:
            from repro.net.chaos import make_policy

            chaos_rng = random_module.Random(args.seed)
            chaos = make_policy(
                severity, spec, nodes, chaos_rng, seed=args.seed
            )
        rng = random_module.Random(args.seed)
        plan = [
            (nodes[i % len(nodes)], rng.choice(VALUES))
            for i in range(args.instances)
        ]

        async def run_service():
            service = AgreementService(
                spec,
                nodes,
                transport=(
                    TcpTransport() if args.transport == "tcp" else LocalBus()
                ),
                chaos=chaos,
                chaos_rng=chaos_rng,
                round_timeout=args.timeout,
                batching=not args.no_batch,
                tracer=tracer,
            )
            async with service:
                iids = [
                    service.submit(sender, value) for sender, value in plan
                ]
                decided = [await service.decision(iid) for iid in iids]
            return service, decided

        service, outcomes = asyncio.run(run_service())
        print(f"{spec}; traced service run, seed={args.seed}, "
              f"{len(outcomes)} instance(s)"
              + (f", '{severity}' chaos" if severity else ""))
        for outcome in outcomes:
            status = "ok " if outcome.ok else "FAIL"
            print(f"  [{status}] {outcome.instance_id}  "
                  f"sender={outcome.sender} tier={outcome.tier}  "
                  f"latency={outcome.latency * 1000:.1f}ms")
        record = record_service_run(service)
        trace_events = record.trace.events
        if args.record:
            record.save(args.record)
            print(f"  verify trace recorded to {args.record}")

    abandoned = tracer.close_open()
    spans = tracer.spans
    print()
    print(f"spans: {len(spans)} recorded, trace id {tracer.trace_id}"
          + (f", {abandoned} closed at export (cancelled mid-run)"
             if abandoned else ""))
    problems = validate_spans(spans)
    if args.spans:
        write_spans(args.spans, spans, tracer=tracer)
        print(f"  span log written to {args.spans}")
    if args.perfetto:
        write_perfetto(args.perfetto, spans, tracer=tracer)
        print(f"  perfetto trace written to {args.perfetto} "
              f"(open at https://ui.perfetto.dev)")

    paths = critical_paths(spans)
    print()
    print("critical path:")
    for line in summary_lines(paths):
        print(f"  {line}")
    degraded = [p for p in paths if p.degraded]
    if degraded:
        print(f"  {len(degraded)} degraded round(s): deadline ride-outs "
              f"substituted V_d per assumption (b)")

    discrepancies = cross_link(paths, trace_events)
    print()
    if discrepancies:
        print("span/verify cross-check: MISMATCH")
        for item in discrepancies:
            print(f"  !! {item}")
    else:
        print("span/verify cross-check: consistent (every span-side "
              "ride-out matches a TIMEOUT trace record)")
    if problems:
        print("span validation: FAILED")
        for item in problems:
            print(f"  !! {item}")
        return 1
    return 0 if not discrepancies else 1


def _cmd_stats(args) -> int:
    from repro.obs import render_snapshot

    try:
        text, ok = render_snapshot(args.artifact, prom=args.prom)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    from repro.net.bench import (
        compare_to_baseline,
        load_report,
        render_report,
        run_bench,
        save_report,
    )

    if args.repeats < 1:
        print(f"error: --repeats must be >= 1, got {args.repeats}",
              file=sys.stderr)
        return 2
    if args.timeout <= 0:
        print(f"error: --timeout must be > 0, got {args.timeout}",
              file=sys.stderr)
        return 2
    print(f"bench: grid={'quick' if args.quick else 'full'} "
          f"repeats={args.repeats} timeout={args.timeout}s")
    report = run_bench(
        quick=args.quick, repeats=args.repeats, timeout=args.timeout
    )
    print()
    print(render_report(report))
    ok = bool(report["equivalent"])
    headline = report.get("headline")
    if headline is not None and not headline["met"]:
        ok = False
    if args.baseline:
        try:
            baseline = load_report(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {args.baseline!r}: {exc}",
                  file=sys.stderr)
            return 2
        base_ok, text = compare_to_baseline(report, baseline)
        print()
        print(text)
        ok = ok and base_ok
    if args.out:
        save_report(report, args.out)
        print()
        print(f"report written to {args.out}")
    return 0 if ok else 1


def _cmd_chaos(args) -> int:
    from repro.net.chaos import (
        SEVERITIES,
        parse_replay,
        run_campaign_sync,
        run_trial_sync,
    )

    if args.replay:
        config = parse_replay(args.replay)
        result = run_trial_sync(config)
        print(f"replay {config.replay_token}")
        print(f"  tier={result.tier} f_eff={result.f_eff} "
              f"afflicted={result.afflicted}")
        print(f"  shape={result.shape} substitutions={result.substitutions} "
              f"timeouts={result.timeouts}")
        print(f"  chaos={result.chaos_counts}")
        for node, value in sorted(result.decisions.items()):
            print(f"    {node} -> {value}")
        if not result.checked:
            print("verdict: RECORD-ONLY (f_eff > u; the paper promises "
                  "nothing here)")
            return 0
        if result.passed:
            print("verdict: PASSED")
            return 0
        print("verdict: FAILED")
        for violation in result.violations:
            print(f"  !! {violation}")
        return 1

    if args.trials <= 0:
        print(f"error: --trials must be > 0, got {args.trials}",
              file=sys.stderr)
        return 2
    if args.timeout <= 0:
        print(f"error: --timeout must be > 0, got {args.timeout}",
              file=sys.stderr)
        return 2
    severities = list(SEVERITIES) if args.severity == "all" else [args.severity]

    def progress(result) -> None:
        status = ("FAIL" if result.failed
                  else "ok" if result.checked else "rec")
        print(f"  [{status}] {result.config.replay_token} "
              f"tier={result.tier} f_eff={result.f_eff}")

    print(f"chaos campaign: seed={args.seed} transport={args.transport} "
          f"severities={','.join(severities)} trials/severity={args.trials}"
          + (" kill-links soak" if args.kill_links else ""))
    report = run_campaign_sync(
        args.seed,
        severities,
        args.trials,
        transport=args.transport,
        timeout=args.timeout,
        progress=progress,
        kill_links=args.kill_links,
    )
    print()
    if args.kill_links:
        # The soak gate's determinism half: the same seeded campaign,
        # re-run, must reproduce every trial's decisions and its full wire
        # fingerprint — reconnect and restart counters included — or the
        # self-healing layer leaked wall-clock state into the run.
        reconnects = sum(t.reconnects for t in report.trials)
        restarts = sum(t.endpoint_restarts for t in report.trials)
        print(f"  self-healing: {reconnects} reconnect(s), "
              f"{restarts} endpoint restart(s) across "
              f"{len(report.trials)} trial(s)")
        rerun = run_campaign_sync(
            args.seed,
            severities,
            args.trials,
            transport=args.transport,
            timeout=args.timeout,
            kill_links=True,
        )
        mismatches = []
        for first, second in zip(report.trials, rerun.trials):
            if first.decisions != second.decisions:
                mismatches.append(
                    f"{first.config.replay_token}: decisions diverged"
                )
            elif first.fingerprint != second.fingerprint:
                diff = sorted(
                    set(first.fingerprint.items())
                    ^ set(second.fingerprint.items())
                )
                mismatches.append(
                    f"{first.config.replay_token}: fingerprint diverged "
                    f"({diff[:6]})"
                )
        if mismatches:
            print("  !! same-seed re-run NOT reproducible:")
            for line in mismatches:
                print(f"     {line}")
            print("campaign FAILED (kill-links determinism)")
            return 1
        print(f"  same-seed re-run: all {len(report.trials)} trial "
              f"fingerprint(s) and decisions identical")
    for tier, entry in report.tier_summary().items():
        if tier == "none":
            print(f"  tier {tier:<9}: {entry['trials']} trial(s) recorded "
                  f"(no guarantee asserted)")
        else:
            print(f"  tier {tier:<9}: {entry['passed']}/{entry['trials']} "
                  f"passed (rate {entry['pass_rate']:.2f})")
    totals = report.chaos_totals()
    if totals:
        print("  chaos totals: "
              + " ".join(f"{k}={v}" for k, v in sorted(totals.items())))
    if args.report:
        report.save(args.report)
        print(f"  report written to {args.report}")
    if report.ok:
        print(f"campaign PASSED ({len(report.trials)} trials, "
              f"0 checked-tier violations)")
        return 0
    print(f"campaign FAILED ({len(report.failures)} checked-tier "
          f"violation(s)); replay each with:")
    for trial in report.failures:
        print(f'  python -m repro chaos --replay "{trial.config.replay_token}"')
    return 1


def _cmd_scenarios(args) -> int:
    from repro.analysis.lowerbounds import run_scenario_triple

    below = run_scenario_triple(args.m, args.u, 2 * args.m + args.u)
    above = run_scenario_triple(args.m, args.u, 2 * args.m + args.u + 1)
    print(below.summary())
    print(above.summary())
    ok = (not below.all_satisfied) and above.all_satisfied
    print(
        "Theorem 2 witnessed: breaks below the bound, holds at it."
        if ok
        else "UNEXPECTED: Theorem 2 pattern not observed"
    )
    return 0 if ok else 1


def _cmd_connectivity(args) -> int:
    from repro.analysis.lowerbounds import connectivity_scenarios

    at = connectivity_scenarios(args.m, args.u, args.m + args.u + 1)
    below = connectivity_scenarios(args.m, args.u, args.m + args.u)
    print(f"connectivity {at.connectivity}: "
          f"{'holds' if at.both_satisfied else 'BREAKS'}")
    print(f"connectivity {below.connectivity}: "
          f"{'breaks' if not below.both_satisfied else 'HOLDS (unexpected)'}")
    ok = at.both_satisfied and not below.both_satisfied
    return 0 if ok else 1


def _cmd_reliability(args) -> int:
    from repro.analysis import compare_configurations, log_bar_chart
    from repro.analysis.tables import render_table

    points = compare_configurations(args.nodes, args.p_node)
    rows = [
        [f"{p.m}/{p.u}", p.n_nodes, p.p_correct, p.p_safe_degraded, p.p_unsafe]
        for p in points
    ]
    print(render_table(
        ["config", "nodes", "P(correct)", "P(safe degraded)", "P(unsafe)"],
        rows,
        title=f"{args.nodes} nodes, per-node fault probability {args.p_node}",
    ))
    print("\nP(unsafe), log scale:")
    print(log_bar_chart([(f"{p.m}/{p.u}", p.p_unsafe) for p in points]))
    return 0


def _cmd_complexity(args) -> int:
    from repro.analysis import byz_complexity, log_bar_chart, om_complexity
    from repro.analysis.tables import render_table

    rows = []
    om = om_complexity(args.u)
    rows.append(["OM", om.n_nodes, om.rounds, om.messages])
    for m in range(1, args.u + 1):
        point = byz_complexity(m, args.u)
        rows.append([f"BYZ(m={m})", point.n_nodes, point.rounds, point.messages])
    print(render_table(
        ["algorithm", "nodes", "rounds", "messages"],
        rows,
        title=f"Cost of surviving u={args.u} faults safely",
    ))
    print("\nmessages, log scale:")
    print(log_bar_chart([(str(r[0]), float(r[3])) for r in rows], floor=1.0))
    return 0


def _cmd_search(args) -> int:
    from repro.analysis.adversary_search import exhaustive_search

    n = 2 + args.u + (0 if args.below else 1)
    result = exhaustive_search(args.u, n, stop_at_first=args.below)
    print(f"1/{args.u}-degradable at N={n}: "
          f"{result.profiles_checked} adversary profiles checked")
    if result.contract_unbreakable:
        print("no violating adversary exists over the 3-symbol domain")
        return 0 if not args.below else 1
    witness = result.violations[0]
    print(f"violation found: faulty={witness.faulty}")
    for violation in witness.report.violations:
        print(f"  {violation}")
    return 1 if not args.below else 0


def _cmd_mission(args) -> int:
    from repro.analysis import bar_chart
    from repro.channels import DegradableChannelSystem, MissionSimulator

    system = DegradableChannelSystem(m=1, u=2, computation=lambda v: v * 2)
    sim = MissionSimulator(
        system,
        fault_probability=args.fault_probability,
        seed=args.seed,
    )
    stats = sim.run(args.steps, sender_value=21)
    print(bar_chart([
        ("forward", stats.forward),
        ("recovered", stats.recovered),
        ("safe stops", stats.safe_stops),
        ("unsafe", stats.unsafe),
    ], width=40))
    print(f"availability {stats.availability:.3f}, safety {stats.safety:.3f}")
    return 0 if stats.unsafe == 0 else 1


def _cmd_report(args) -> int:
    from repro.analysis.report import generate_report, write_report

    if args.out:
        write_report(args.out, include_battery=not args.no_battery)
        print(f"report written to {args.out}")
    else:
        print(generate_report(include_battery=not args.no_battery))
    return 0


def _cmd_clocksync(args) -> int:
    from repro.clocksync.evaluation import evaluate_conjecture
    from repro.core import DegradableSpec

    n = args.nodes if args.nodes is not None else 2 * args.m + args.u + 2
    spec = DegradableSpec(m=args.m, u=args.u, n_nodes=n)
    evaluation = evaluate_conjecture(spec)
    print(evaluation.render())
    return 0 if evaluation.all_hold else 1


def _cmd_suite(args) -> int:
    from repro.analysis.scenario import ScenarioSuite, reference_suite

    if args.save:
        reference_suite().save(args.save)
        print(f"reference suite written to {args.save}")
        return 0
    suite = ScenarioSuite.load(args.path) if args.path else reference_suite()
    runs = suite.run()
    for run in runs:
        status = "PASS" if run.ok else "FAIL"
        print(f"[{status}] {run.scenario.name}: shape={run.report.shape.value}")
        for violation in run.report.violations:
            print(f"    !! {violation}")
        for node, actual in run.mismatches.items():
            print(f"    golden mismatch at {node}: got {actual!r}")
    failures = [r for r in runs if not r.ok]
    print(f"{len(runs) - len(failures)}/{len(runs)} scenarios passed")
    return 0 if not failures else 1


def _cmd_verify(args) -> int:
    from repro.verify import RunRecord, demux_record, verify_record

    failures = 0
    for path in args.traces:
        record = RunRecord.load(path)
        # A multi-instance service record is split into one auditable
        # record per agreement instance; single-instance records (stamped
        # or legacy) pass through unchanged.
        sub_records = demux_record(record)
        for instance_id, sub in sorted(
            sub_records.items(), key=lambda kv: str(kv[0])
        ):
            label = path if instance_id is None else f"{path}[{instance_id}]"
            report = verify_record(sub)
            if report.ok:
                if not args.quiet:
                    print(f"{label}: OK ({report.render().splitlines()[0]})")
            else:
                failures += 1
                print(f"{label}: FAILED")
                print(report.render())
        if len(sub_records) > 1 and not args.quiet:
            print(f"{path}: demultiplexed {len(sub_records)} instance(s)")
    if failures:
        print(f"{failures} trace(s)/instance(s) failed conformance")
        return 1
    if not args.quiet:
        print(f"{len(args.traces)}/{len(args.traces)} trace(s) conformant")
    return 0


def _cmd_fuzz(args) -> int:
    from repro.verify.fuzz import parse_case_token, run_case, run_fuzz

    transports = (
        ("local", "tcp") if args.transport == "all" else (args.transport,)
    )
    if args.replay:
        case = parse_case_token(args.replay)
        outcome = run_case(case, transports=transports)
        print(outcome.render())
        return 0 if outcome.ok else 1
    examples = args.examples
    if examples is None:
        examples = 6 if args.quick else 20
    report = run_fuzz(
        seed=args.seed,
        max_examples=examples,
        transports=transports,
        allow_chaos=not args.no_chaos,
        on_case=None if args.quick else (lambda o: print(o.render())),
    )
    print(report.render())
    return 0 if report.ok else 1


def _cmd_explore(args) -> int:
    from repro.explore import ExploreConfig, explore, run_token
    from repro.explore.bench import (
        DEFAULT_OUT,
        render_bench,
        run_bench,
        write_bench,
    )

    if args.replay:
        outcome = run_token(args.replay)
        print(outcome.render())
        return 0 if outcome.ok else 1

    if args.smoke or args.bench:
        # One fixed, seedless campaign: the correct running example must
        # explore clean AND the seeded vote bug must be found and shrunk
        # — a gate that can fail in both directions.
        payload = run_bench(quick=args.smoke and not args.bench)
        print(render_bench(payload))
        out = args.out or (DEFAULT_OUT if args.bench else "")
        if out:
            write_bench(out, payload)
            print(f"results written to {out}")
        return 0 if payload["ok"] else 1

    faults = []
    for item in (f for f in args.faulty.split(",") if f):
        node, _, kind = item.partition(":")
        faults.append((node, kind or "lie"))
    config = ExploreConfig(
        m=args.m,
        u=args.u,
        n_nodes=args.nodes if args.nodes else 2 * args.m + args.u + 1,
        sender_value=args.value,
        faults=tuple(faults),
        round_timeout=args.timeout,
        batching=not args.no_batch,
        supervise=args.supervise,
        vote_offset=args.inject_vote_bug,
    )
    config.behaviors()  # surface unknown nodes/kinds as a usage error
    report = explore(
        config,
        depth_bound=args.depth,
        budget=args.budget,
        stop_at_first=not args.keep_going,
    )
    print(report.render())
    return 0 if report.ok else 1


def _cmd_experiments(args) -> int:
    from repro.analysis.runner import run_experiments, summarize, write_results

    only = [e for e in args.only.split(",") if e] or None
    results = run_experiments(only)
    print(summarize(results))
    if args.out:
        write_results(results, args.out)
        print(f"results written to {args.out}")
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "table": _cmd_table,
    "tradeoff": _cmd_tradeoff,
    "run": _cmd_run,
    "net": _cmd_net,
    "serve": _cmd_serve,
    "load": _cmd_load,
    "trace": _cmd_trace,
    "stats": _cmd_stats,
    "bench": _cmd_bench,
    "chaos": _cmd_chaos,
    "verify": _cmd_verify,
    "fuzz": _cmd_fuzz,
    "explore": _cmd_explore,
    "scenarios": _cmd_scenarios,
    "connectivity": _cmd_connectivity,
    "reliability": _cmd_reliability,
    "complexity": _cmd_complexity,
    "search": _cmd_search,
    "mission": _cmd_mission,
    "report": _cmd_report,
    "clocksync": _cmd_clocksync,
    "suite": _cmd_suite,
    "experiments": _cmd_experiments,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer closed early (e.g. `repro stats --prom | head`);
        # swap stdout for devnull so the interpreter's flush-at-exit does not
        # raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
