"""One benchmark for the agreement service and the schedule explorer.

    python3 perfbench/run.py --workload serve-125-local --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the same seeded work twice, untraced and with every
layer wrapped (see ``layers.py``), checks that tracing changed no decision
and no counter, and reports the per-layer metrics.  Every run ends with
the correctness gate, outside the timed window; the last line of standard
output is one JSON object, and any failure makes the exit code 1.
See ``README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"

#: Work counters that read the same on every run and seed of one commit;
#: ``compare.py`` checks them for equality, not for spread.
EXACT_COUNTERS = (
    "codec.encodes_per_frame",
    "transport.frames_per_instance",
    "eig.resolve_calls_per_instance",
    "explore.decision_points_per_schedule",
    "explore.unique_fingerprints",
)

#: Fresh-interpreter set-ups per ``--trace 0`` run; ``setup_s`` is their
#: median.
SETUP_PROBES = 3
SETUP_TIMEOUT_S = 60
#: Serve: closed-loop seconds run before the measured window opens.
WARMUP_S = 1.5
#: Serve: instances each service runs before a traced/untraced phase.
TRACE_WARMUP_INSTANCES = 64
#: Explorer: budget of the warm-up call before anything is timed.
EXPLORE_WARMUP_BUDGET = 50


def percentile(values, q):
    """Nearest-rank percentile of *values* (``0 < q <= 1``)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def count_failed(failures):
    """Failed operations: lines name their instance before the colon."""
    return len({line.split(":")[0] for line in failures})


# ----------------------------------------------------------------------
# setup_s
# ----------------------------------------------------------------------
def measure_setup(workload: str, seed: int) -> float:
    """Median spawn-to-ready time of fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"),
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = probe.stdout.readline()
            ready = time.perf_counter() - started
            probe.stdout.read()
            code = probe.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if probe.poll() is None:
                probe.kill()
                probe.wait()
            probe.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(ready)
    return statistics.median(times)


# ----------------------------------------------------------------------
# End-to-end run (--trace 0)
# ----------------------------------------------------------------------
def latency_metrics(windows, seconds, count):
    """Throughput over the whole measured time; latency percentiles per
    window of it, each reported as the mean over the windows.

    The host's speed shifts every few seconds, so one run's latencies mix
    a fast and a slow mode.  A percentile of the pooled samples (or the
    median of the windows' percentiles) jumps between the modes as their
    shares shift from run to run; the mean of the windows' percentiles
    moves in proportion to the shares, as throughput does.
    """
    windows = [w for w in windows if w]

    def per_window(q):
        return statistics.fmean(percentile(w, q) for w in windows) * 1e3

    return {
        "throughput_ips": metric(count / seconds, "1/s"),
        "latency_p50_ms": metric(per_window(0.50), "ms"),
        "latency_p90_ms": metric(per_window(0.90), "ms"),
    }


def time_windows(samples, opens, seconds, window_s):
    """Latencies of *samples* grouped by the *window_s* slice of the
    measured time they finished in; a last partial slice joins the one
    before it."""
    count = max(1, int(seconds // window_s))
    windows = [[] for _ in range(count)]
    for s in samples:
        index = min(count - 1, int((s.finished - opens) // window_s))
        windows[index].append(s.finished - s.started)
    return windows


def serve_end_to_end(w, shape, seed, seconds):
    plan = w.Plan(shape, seed)
    loop = asyncio.new_event_loop()
    try:
        service = w.make_service(shape)
        loop.run_until_complete(service.start())
        rss = []

        def on_sample(decided):
            if decided == shape.rss_instances:
                rss.append(peak_rss_mb())

        opens = time.perf_counter() + WARMUP_S
        closes = opens + seconds
        load = loop.run_until_complete(
            w.closed_loop(service, plan, 0, stop_at=closes,
                          on_sample=on_sample)
        )
        rss.append(peak_rss_mb())
        loop.run_until_complete(service.close())
    finally:
        loop.close()
    window = [s for s in load.samples if opens <= s.finished <= closes]
    if not window:
        raise RuntimeError("no instance decided inside the measured window")
    metrics = latency_metrics(
        time_windows(window, opens, seconds, shape.window_s), seconds,
        len(window),
    )
    metrics["peak_rss_mb"] = metric(rss[0], "MB")
    failures = w.check_service(service, load.items, w.Reference(shape))
    failed = count_failed(failures) + load.dropped
    return metrics, len(load.items) + load.dropped, failed, failures


class ScheduleClock:
    """Timing-only shim on the explorer's per-schedule call.

    Two clock reads per schedule; also keeps each schedule's fingerprint
    so traced and untraced explorations can be compared.
    """

    def __init__(self, explorer_module) -> None:
        self.module = explorer_module
        self.original = explorer_module.run_schedule
        self.latencies = []
        self.fingerprints = []

    def __enter__(self):
        original = self.original

        def run_schedule(*args, **kwargs):
            started = time.perf_counter()
            outcome = original(*args, **kwargs)
            self.latencies.append(time.perf_counter() - started)
            self.fingerprints.append(outcome.fingerprint)
            return outcome

        self.module.run_schedule = run_schedule
        return self

    def __exit__(self, *exc_info):
        self.module.run_schedule = self.original


def explore_end_to_end(w, shape, seed, seconds):
    import repro.explore.explorer as explorer_module

    config = w.explore_config(seed)
    w.run_explore(config, shape, budget=EXPLORE_WARMUP_BUDGET)
    reports, windows = [], []
    with ScheduleClock(explorer_module) as clock:
        started = time.perf_counter()
        while not reports or time.perf_counter() - started < seconds:
            first = len(clock.latencies)
            reports.append(w.run_explore(config, shape))
            windows.append(clock.latencies[first:])
        elapsed = time.perf_counter() - started
    rss = peak_rss_mb()
    executions = sum(r.executions for r in reports)
    metrics = latency_metrics(windows, elapsed, executions)
    metrics["peak_rss_mb"] = metric(rss, "MB")
    failures = [f for r in reports for f in w.check_explore(r, shape)]
    return metrics, executions, len(failures), failures


# ----------------------------------------------------------------------
# Traced run (--trace 1)
# ----------------------------------------------------------------------
def install_layers(tracer, hooks):
    """Wrap each layer's public functions and the bindings made of them."""
    import repro.explore.clock as clock_module
    import repro.explore.explorer as explorer_module
    import repro.net.runner as runner_module
    import repro.net.tcp as tcp_module
    import repro.net.transport as transport_module
    import repro.serve.gateway as gateway_module
    import repro.verify.oracle as oracle_module
    from repro.core.eig import EIGTree
    from repro.core.protocol import AgreementProcess
    from repro.explore.transport import ExploredTransport
    from repro.net.codec import FrameDecoder
    from repro.net.metrics import NetMetrics
    from repro.net.supervision import SupervisedTransport
    from repro.obs.events import EventBus
    from repro.serve.mux import InstanceChannel
    from repro.sim.trace import EventTrace
    from repro.verify.record import RunRecord

    from layers import count_wait_for, counting_task_factory

    # Codec: the runner's batch-savings and LocalBus's byte-count encodes
    # are accounting; the TCP pack is the wire encode.
    tracer.wrap(runner_module, "encode_frame", "codec.encode.accounting")
    tracer.wrap(transport_module, "encode_frame", "codec.encode.accounting")
    tracer.wrap(tcp_module, "pack_frame", "codec.encode.wire")

    # TCP reader tasks outlive the warm-up, so their decoders already
    # exist: wrap the class, which tcp.py's binding refers to.
    tracer.wrap(FrameDecoder, "feed_tolerant", "codec.decode")

    def sent(args, nbytes):
        tracer.layer("transport.send").tally += nbytes

    for cls in (transport_module.LocalBus, tcp_module.TcpTransport,
                ExploredTransport):
        tracer.wrap(cls, "send", "transport.send", after=sent)
    tracer.wrap(InstanceChannel, "send", "mux.send")
    tracer.wrap(SupervisedTransport, "send", "supervision.send")

    # Runner: wall time per run, rounds, timeouts, queue wait.
    def run_entered(args):
        runner = args[0]
        hooks.run_started[id(runner)] = time.perf_counter()
        submitted = hooks.submitted.pop(runner.instance_id, None)
        if submitted is not None:
            hooks.queue_waits.append(hooks.run_started[id(runner)] - submitted)

    def run_done(args, result):
        runner = args[0]
        hooks.run_walls.append(
            time.perf_counter() - hooks.run_started.pop(id(runner))
        )
        hooks.rounds += result.stats.rounds
        hooks.timeouts += runner.metrics.total_timeouts

    tracer.wrap(runner_module.AsyncRoundRunner, "run", "runner.run",
                before=run_entered, after=run_done)
    count_wait_for(tracer, "repro.net.runner", "runner.wait_for")

    def submitted(args, instance_id):
        hooks.submitted[instance_id] = time.perf_counter()

    tracer.wrap(gateway_module.AgreementService, "submit", "gateway.submit",
                after=submitted)

    # Protocol core.
    tracer.wrap(AgreementProcess, "step", "protocol.step")
    tracer.wrap(EIGTree, "resolve", "eig.resolve")
    tracer.wrap(gateway_module, "classify", "conditions.classify")
    tracer.wrap(oracle_module, "classify", "conditions.classify")

    # Instrumentation channels.
    for name, value in list(vars(NetMetrics).items()):
        if callable(value) and not name.startswith("_"):
            tracer.wrap(NetMetrics, name, "metrics")
    tracer.wrap(EventBus, "publish", "obs.publish")
    tracer.wrap(EventTrace, "record", "sim_trace.record")
    tracer.wrap(EventTrace, "record_message", "sim_trace.record_message")

    # Explorer and oracle.
    tracer.wrap(explorer_module, "run_on_virtual_clock", "explore.virtual_loop")
    tracer.wrap(explorer_module, "verify_record", "verify.oracle")
    tracer.wrap(RunRecord, "fingerprint", "verify.fingerprint")
    tasks = tracer.layer("loop.tasks")

    class CountingLoop(clock_module.VirtualClockLoop):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.set_task_factory(counting_task_factory(tasks))

    tracer.replace(clock_module, "VirtualClockLoop", CountingLoop)


class Hooks:
    """What the wrappers record besides calls and self time."""

    def __init__(self) -> None:
        self.submitted = {}
        self.run_started = {}
        self.queue_waits = []
        self.run_walls = []
        self.rounds = 0
        self.timeouts = 0


def serve_phase(w, shape, plan, count, loop, selector, seconds=None,
                tracer=None, hooks=None):
    """Warm a fresh service up, then run one (optionally traced) phase.

    Returns the service, the phase's load result, its wall time, the
    loop's idle time during it and the ``NetMetrics.counters()`` the phase
    added.  Only the phase is compared between traced and untraced runs:
    the warm-up is untraced in both and dials the TCP links, where two
    concurrent first sends on one link both dial and the later dial counts
    as a reconnect, whatever the tracing.
    """
    from layers import counting_task_factory

    service = w.make_service(shape)
    loop.run_until_complete(service.start())
    warm = loop.run_until_complete(
        w.closed_loop(service, plan, 0, count=TRACE_WARMUP_INSTANCES)
    )
    idle_before = selector.idle_s
    counters_before = service.aggregate_metrics.counters()
    if tracer is not None:
        install_layers(tracer, hooks)
        loop.set_task_factory(counting_task_factory(tracer.layer("loop.tasks")))
    try:
        started = time.perf_counter()
        load = loop.run_until_complete(
            w.closed_loop(service, plan, TRACE_WARMUP_INSTANCES,
                          stop_at=None if seconds is None else started + seconds,
                          count=count)
        )
        wall = time.perf_counter() - started
    finally:
        if tracer is not None:
            loop.set_task_factory(None)
            tracer.restore()
    idle = selector.idle_s - idle_before
    loop.run_until_complete(service.close())
    added = {
        key: value - counters_before.get(key, 0)
        for key, value in service.aggregate_metrics.counters().items()
        if value != counters_before.get(key, 0)
    }
    load.items.update(warm.items)
    load.dropped += warm.dropped
    return service, load, wall, idle, added


def serve_traced(w, shape, seed, seconds):
    from layers import TimingSelector, Tracer

    plan = w.Plan(shape, seed)
    tracer, hooks = Tracer(), Hooks()
    selector = TimingSelector()
    loop = asyncio.SelectorEventLoop(selector)
    try:
        traced, traced_load, traced_wall, idle, traced_counters = serve_phase(
            w, shape, plan, None, loop, selector,
            seconds=seconds / 2, tracer=tracer, hooks=hooks,
        )
        instances = len(traced_load.samples)
        plain, plain_load, plain_wall, _, plain_counters = serve_phase(
            w, shape, plan, instances, loop, selector
        )
    finally:
        loop.close()

    reference = w.Reference(shape)
    traced_failures = w.check_service(traced, traced_load.items, reference)
    plain_failures = w.check_service(plain, plain_load.items, reference)
    changed = []
    for instance_id in sorted(traced_load.items):
        a = traced.outcomes.get(instance_id)
        b = plain.outcomes.get(instance_id)
        if a is None or b is None or a.decisions != b.decisions:
            changed.append(f"{instance_id}: traced decisions differ")
    if traced_counters != plain_counters:
        changed.append("counters: traced NetMetrics fingerprint differs")
    failures = traced_failures + plain_failures + changed
    attempted = (len(traced_load.items) + len(plain_load.items)
                 + traced_load.dropped + plain_load.dropped)
    failed = (count_failed(traced_failures) + count_failed(plain_failures)
              + count_failed(changed) + traced_load.dropped
              + plain_load.dropped)

    metrics = layer_metrics(tracer, hooks, instances, traced_wall, idle)
    metrics.update({
        "gateway.queue_wait_ms_p50": metric(
            percentile(hooks.queue_waits, 0.5) * 1e3, "ms"),
        "gateway.rejections": metric(traced.rejected_submits, "count"),
        "explore.decision_points_per_schedule": metric(0, "count"),
        "explore.pruning_ratio": metric(0.0, "frac"),
        "explore.unique_fingerprints": metric(0, "count"),
        "trace_overhead_frac": metric(traced_wall / plain_wall - 1, "frac"),
        "failed_frac": metric(failed / attempted, "frac"),
    })
    return metrics, attempted, failed, failures


def explore_traced(w, shape, seed, seconds):
    import repro.explore.explorer as explorer_module
    from layers import Tracer

    config = w.explore_config(seed)
    w.run_explore(config, shape, budget=EXPLORE_WARMUP_BUDGET)
    tracer, hooks = Tracer(), Hooks()
    traced_reports = []
    with ScheduleClock(explorer_module) as traced_clock:
        install_layers(tracer, hooks)
        try:
            started = time.perf_counter()
            while (not traced_reports
                   or time.perf_counter() - started < seconds / 2):
                traced_reports.append(w.run_explore(config, shape))
            traced_wall = time.perf_counter() - started
        finally:
            tracer.restore()
    plain_reports = []
    with ScheduleClock(explorer_module) as plain_clock:
        started = time.perf_counter()
        for _ in traced_reports:
            plain_reports.append(w.run_explore(config, shape))
        plain_wall = time.perf_counter() - started

    failures = [f for r in traced_reports + plain_reports
                for f in w.check_explore(r, shape)]
    if traced_clock.fingerprints != plain_clock.fingerprints:
        failures.append("fingerprints: traced exploration differs")
    schedules = sum(r.executions for r in traced_reports)
    attempted = 2 * schedules
    failed = len(failures)
    report = traced_reports[0]

    metrics = layer_metrics(tracer, hooks, schedules, traced_wall, 0.0)
    metrics.update({
        "gateway.queue_wait_ms_p50": metric(0.0, "ms"),
        "gateway.rejections": metric(0, "count"),
        "explore.decision_points_per_schedule": metric(
            report.decision_points / report.executions, "count"),
        "explore.pruning_ratio": metric(report.pruning_ratio, "frac"),
        "explore.unique_fingerprints": metric(
            report.unique_fingerprints, "count"),
        "trace_overhead_frac": metric(traced_wall / plain_wall - 1, "frac"),
        "failed_frac": metric(failed / attempted, "frac"),
    })
    return metrics, attempted, failed, failures


def layer_metrics(tracer, hooks, instances, wall, idle):
    """Per-instance counts and self times of every wrapped layer."""
    layer = tracer.layer

    def per(value):
        return value / instances

    frames = layer("transport.send").calls
    encodes = (layer("codec.encode.accounting").calls
               + layer("codec.encode.wire").calls)
    trace_ms = (layer("sim_trace.record").self_ms
                + layer("sim_trace.record_message").self_ms)
    unattributed_ms = (wall - idle) * 1e3 - tracer.attributed_ms()
    return {
        "codec.encodes_per_frame": metric(
            encodes / frames if frames else 0.0, "count"),
        "codec.encode_ms_per_instance": metric(per(
            layer("codec.encode.accounting").self_ms
            + layer("codec.encode.wire").self_ms), "ms"),
        "codec.decode_ms_per_instance": metric(
            per(layer("codec.decode").self_ms), "ms"),
        "codec.bytes_per_instance": metric(
            per(layer("transport.send").tally), "bytes"),
        "transport.frames_per_instance": metric(per(frames), "count"),
        "transport.send_ms_per_instance": metric(
            per(layer("transport.send").self_ms), "ms"),
        "mux.send_ms_per_instance": metric(
            per(layer("mux.send").self_ms), "ms"),
        "supervision.send_ms_per_instance": metric(
            per(layer("supervision.send").self_ms), "ms"),
        "runner.run_ms_p50": metric(
            percentile(hooks.run_walls, 0.5) * 1e3, "ms"),
        "runner.self_ms_per_instance": metric(
            per(layer("runner.run").self_ms), "ms"),
        "runner.rounds_per_instance": metric(per(hooks.rounds), "count"),
        "runner.timeouts_per_instance": metric(per(hooks.timeouts), "count"),
        "runner.tasks_per_round": metric(
            layer("loop.tasks").calls / hooks.rounds, "count"),
        "runner.wait_for_per_round": metric(
            layer("runner.wait_for").calls / hooks.rounds, "count"),
        "runner.loop_idle_frac": metric(idle / wall, "frac"),
        "asyncio.other_ms_per_instance": metric(per(unattributed_ms), "ms"),
        "protocol.steps_per_instance": metric(
            per(layer("protocol.step").calls), "count"),
        "protocol.step_ms_per_instance": metric(
            per(layer("protocol.step").self_ms), "ms"),
        "eig.resolve_calls_per_instance": metric(
            per(layer("eig.resolve").calls), "count"),
        "eig.resolve_ms_per_instance": metric(
            per(layer("eig.resolve").self_ms), "ms"),
        "conditions.classify_ms_per_instance": metric(
            per(layer("conditions.classify").self_ms), "ms"),
        "metrics.calls_per_instance": metric(
            per(layer("metrics").calls), "count"),
        "metrics.ms_per_instance": metric(
            per(layer("metrics").self_ms), "ms"),
        "obs.publish_per_instance": metric(
            per(layer("obs.publish").calls), "count"),
        "obs.publish_ms_per_instance": metric(
            per(layer("obs.publish").self_ms), "ms"),
        "sim_trace.records_per_instance": metric(
            per(layer("sim_trace.record").calls), "count"),
        "sim_trace.record_ms_per_instance": metric(per(trace_ms), "ms"),
        "explore.virtual_loop_ms_per_schedule": metric(
            per(layer("explore.virtual_loop").self_ms), "ms"),
        "verify.fingerprint_ms_per_schedule": metric(
            per(layer("verify.fingerprint").self_ms), "ms"),
        "verify.oracle_ms_per_schedule": metric(
            per(layer("verify.oracle").self_ms), "ms"),
    }


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads as w

    shape = w.WORKLOADS.get(args.workload)
    if shape is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(w.WORKLOADS)}")
    serve = isinstance(shape, w.ServeShape)
    if args.trace:
        run = serve_traced if serve else explore_traced
        metrics, attempted, failed, failures = run(
            w, shape, args.seed, args.seconds)
    else:
        run = serve_end_to_end if serve else explore_end_to_end
        metrics, attempted, failed, failures = run(
            w, shape, args.seed, args.seconds)
        metrics["setup_s"] = metric(measure_setup(args.workload, args.seed), "s")
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"]
                for m in json.loads(SPEC.read_text())[section]}
    produced = {name: m["unit"] for name, m in metrics.items()}
    if produced != declared:
        raise RuntimeError(f"metrics differ from {SPEC.name} {section}: "
                           f"{sorted(set(produced.items()) ^ set(declared.items()))}")
    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} attempted={attempted} "
          f"failed={failed} failed_frac={failed / attempted:.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
