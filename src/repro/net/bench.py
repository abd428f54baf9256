"""``python -m repro bench`` — wire-path performance harness.

Sweeps a grid of (m, u, N) agreement instances across transports
(:class:`~repro.net.transport.LocalBus`, :class:`~repro.net.tcp.TcpTransport`)
and wire modes (batched / unbatched), measuring what each run put on the
wire — frames, bytes, messages — and how long each round took
(p50/p95 over the pooled per-round durations of all repeats).

Two jobs, one harness:

* **Performance report**: the batching win is a frame-count story.  One
  BATCH frame per directed link per round replaces one frame per message
  plus a full N·(N-1) end-of-round marker mesh, and the protocol's round
  schedule silences links that structurally carry nothing.  For the
  headline configuration (m=2, u=2, N=7 over TCP) the reduction is
  required to be at least 3x; the report records it.
* **Equivalence gate**: for every grid point the batched and unbatched
  runs must produce identical decisions, identical ``V_d`` substitution
  counts and an identical D.1–D.4 classification.  ``repro bench`` exits
  non-zero when any pair diverges — CI runs ``--quick`` exactly for this.

The JSON report (schema ``repro.bench.net/v1``) is written to
``BENCH_net.json`` by default.  Frame and message counts are
deterministic for the scenarios benched here, so ``--baseline`` performs
a hard comparison on them (a frame-count increase fails the run); byte
counts and latencies vary run to run (frame encodings embed wall-clock
timestamps) and are reported informationally.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.behavior import BehaviorMap, LieAboutSender
from repro.core.conditions import classify
from repro.core.spec import DegradableSpec
from repro.net.runner import run_agreement_async
from repro.net.tcp import TcpTransport
from repro.net.transport import LocalBus, Transport
from repro.obs.stats import percentile

SCHEMA = "repro.bench.net/v1"

#: (m, u, N) grid for the full sweep; every point runs on both transports.
FULL_GRID: Tuple[Tuple[int, int, int], ...] = ((1, 1, 4), (1, 2, 5), (2, 2, 7))

#: Quick sweep (CI): each point runs on one designated transport.  The
#: (2, 2, 7, tcp) point stays in — it is the acceptance headline.
QUICK_GRID: Tuple[Tuple[int, int, int, str], ...] = (
    (1, 2, 5, "local"),
    (2, 2, 7, "tcp"),
)

#: Fault scenarios benched per grid point: a fault-free run and one
#: Byzantine liar within the m budget (frame counts are deterministic in
#: both, which is what makes the harness a gate and not just a report).
SCENARIOS: Tuple[str, ...] = ("clean", "liar")

MODES: Tuple[str, ...] = ("batched", "unbatched")

VALUE = "engage"

#: The acceptance headline: minimum batched-vs-unbatched frame reduction
#: for the (m=2, u=2, N=7) configuration over TCP.
HEADLINE_POINT = (2, 2, 7, "tcp")
HEADLINE_MIN_REDUCTION = 3.0


def _make_transport(name: str) -> Transport:
    if name == "tcp":
        return TcpTransport()
    if name == "local":
        # The one caller that wants wire sizes from the in-process bus.
        return LocalBus(measure_bytes=True)
    raise ValueError(f"unknown transport {name!r}")


def _scenario_behaviors(scenario: str, nodes: Sequence[str]) -> BehaviorMap:
    if scenario == "clean":
        return {}
    if scenario == "liar":
        return {"p1": LieAboutSender("forged", "S")}
    raise ValueError(f"unknown scenario {scenario!r}")


def _fingerprint(result, faulty, spec) -> Dict[str, object]:
    """The decision/substitution/verdict triple the equivalence gate pins."""
    report = classify(result, faulty, spec)
    return {
        "decisions": {
            str(node): repr(value)
            for node, value in sorted(result.decisions.items(), key=lambda kv: str(kv[0]))
        },
        "substitutions": result.stats.substitutions,
        "regime": report.regime,
        "shape": report.shape.value,
        "satisfied": report.satisfied,
    }


# The one shared nearest-rank implementation (repro.obs.stats); kept
# under the historical local name the tests and report code use.
_percentile = percentile


async def _run_case(
    m: int,
    u: int,
    n: int,
    transport: str,
    scenario: str,
    mode: str,
    repeats: int,
    timeout: float,
) -> Dict[str, object]:
    """Run one grid cell *repeats* times; return its report entry."""
    spec = DegradableSpec(m=m, u=u, n_nodes=n)
    nodes = ["S"] + [f"p{k}" for k in range(1, n)]
    behaviors = _scenario_behaviors(scenario, nodes)
    faulty = frozenset(behaviors)

    durations: List[float] = []
    fingerprint: Optional[Dict[str, object]] = None
    frames = frames_batched = nbytes = messages = 0
    timeouts = retries = 0
    for _ in range(max(1, repeats)):
        outcome = await run_agreement_async(
            spec,
            nodes,
            "S",
            VALUE,
            behaviors=dict(behaviors),
            transport=_make_transport(transport),
            round_timeout=timeout,
            batching=(mode == "batched"),
        )
        metrics = outcome.metrics
        durations.extend(metrics.round_durations())
        # Wire counts are deterministic for these scenarios; keep the
        # last repeat's (and let the gate catch cross-mode divergence).
        frames = metrics.total_frames
        frames_batched = metrics.total_frames_batched
        nbytes = metrics.total_bytes
        messages = metrics.total_messages
        timeouts = metrics.total_timeouts
        retries = metrics.total_retries
        fingerprint = _fingerprint(outcome.result, faulty, spec)

    return {
        "m": m,
        "u": u,
        "n": n,
        "transport": transport,
        "scenario": scenario,
        "mode": mode,
        "frames": frames,
        "frames_batched": frames_batched,
        "bytes": nbytes,
        "messages": messages,
        "timeouts": timeouts,
        "retries": retries,
        "round_latency_p50": _percentile(durations, 0.50),
        "round_latency_p95": _percentile(durations, 0.95),
        "fingerprint": fingerprint,
    }


def _grid(quick: bool) -> List[Tuple[int, int, int, str]]:
    if quick:
        return list(QUICK_GRID)
    return [
        (m, u, n, transport)
        for (m, u, n) in FULL_GRID
        for transport in ("local", "tcp")
    ]


async def _run_bench_async(
    quick: bool, repeats: int, timeout: float
) -> Dict[str, object]:
    cases: List[Dict[str, object]] = []
    comparisons: List[Dict[str, object]] = []
    for (m, u, n, transport) in _grid(quick):
        for scenario in SCENARIOS:
            by_mode: Dict[str, Dict[str, object]] = {}
            for mode in MODES:
                entry = await _run_case(
                    m, u, n, transport, scenario, mode, repeats, timeout
                )
                by_mode[mode] = entry
                cases.append(entry)
            batched, unbatched = by_mode["batched"], by_mode["unbatched"]
            equivalent = batched["fingerprint"] == unbatched["fingerprint"]
            reduction = (
                unbatched["frames"] / batched["frames"]
                if batched["frames"]
                else 0.0
            )
            comparisons.append(
                {
                    "m": m,
                    "u": u,
                    "n": n,
                    "transport": transport,
                    "scenario": scenario,
                    "frames_unbatched": unbatched["frames"],
                    "frames_batched": batched["frames"],
                    "frame_reduction": round(reduction, 3),
                    "bytes_unbatched": unbatched["bytes"],
                    "bytes_batched": batched["bytes"],
                    "p50_unbatched": unbatched["round_latency_p50"],
                    "p50_batched": batched["round_latency_p50"],
                    "p95_unbatched": unbatched["round_latency_p95"],
                    "p95_batched": batched["round_latency_p95"],
                    "equivalent": equivalent,
                }
            )
    headline = None
    for comparison in comparisons:
        key = (
            comparison["m"],
            comparison["u"],
            comparison["n"],
            comparison["transport"],
        )
        if key == HEADLINE_POINT and comparison["scenario"] == "clean":
            headline = {
                "m": comparison["m"],
                "u": comparison["u"],
                "n": comparison["n"],
                "transport": comparison["transport"],
                "frame_reduction": comparison["frame_reduction"],
                "required_min": HEADLINE_MIN_REDUCTION,
                "met": comparison["frame_reduction"] >= HEADLINE_MIN_REDUCTION,
            }
    return {
        "schema": SCHEMA,
        "quick": quick,
        "repeats": repeats,
        "round_timeout": timeout,
        "cases": cases,
        "comparisons": comparisons,
        "equivalent": all(c["equivalent"] for c in comparisons),
        "headline": headline,
    }


def run_bench(
    quick: bool = False, repeats: int = 3, timeout: float = 5.0
) -> Dict[str, object]:
    """Run the sweep and return the ``repro.bench.net/v1`` report dict."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if timeout <= 0:
        raise ValueError(f"timeout must be > 0, got {timeout}")
    return asyncio.run(_run_bench_async(quick, repeats, timeout))


def render_report(report: Dict[str, object]) -> str:
    """Plain-text comparison table plus the headline and gate verdicts."""
    headers = (
        "config", "wire", "scenario", "frames u->b", "reduct",
        "p50 u/b (ms)", "equal",
    )
    rows: List[Tuple[str, ...]] = [headers]
    for c in report["comparisons"]:
        rows.append(
            (
                f"m={c['m']} u={c['u']} N={c['n']}",
                str(c["transport"]),
                str(c["scenario"]),
                f"{c['frames_unbatched']} -> {c['frames_batched']}",
                f"{c['frame_reduction']:.2f}x",
                f"{c['p50_unbatched'] * 1e3:.2f}/{c['p50_batched'] * 1e3:.2f}",
                "yes" if c["equivalent"] else "NO",
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    headline = report.get("headline")
    if headline:
        verdict = "met" if headline["met"] else "NOT MET"
        lines.append("")
        lines.append(
            f"headline m={headline['m']} u={headline['u']} "
            f"N={headline['n']} over {headline['transport']}: "
            f"{headline['frame_reduction']:.2f}x frame reduction "
            f"(>= {headline['required_min']:.1f}x required: {verdict})"
        )
    lines.append("")
    lines.append(
        "equivalence gate: "
        + ("PASSED (batched == unbatched everywhere)"
           if report["equivalent"]
           else "FAILED (wire modes diverged)")
    )
    return "\n".join(lines)


def compare_to_baseline(
    report: Dict[str, object], baseline: Dict[str, object]
) -> Tuple[bool, str]:
    """Compare *report* against a previous run's JSON.

    Frame counts are deterministic, so a batched-mode frame increase on
    any shared grid cell is a hard regression (returns ``ok=False``).
    Latency deltas are printed for information only — wall-clock noise is
    not a gate.
    """
    if baseline.get("schema") != SCHEMA:
        return False, (
            f"baseline schema {baseline.get('schema')!r} != {SCHEMA!r}; "
            "refusing to compare"
        )
    key = lambda c: (c["m"], c["u"], c["n"], c["transport"], c["scenario"])
    base_by_key = {key(c): c for c in baseline.get("comparisons", [])}
    lines: List[str] = []
    ok = True
    shared = 0
    for current in report["comparisons"]:
        previous = base_by_key.get(key(current))
        if previous is None:
            continue
        shared += 1
        label = (
            f"m={current['m']} u={current['u']} N={current['n']} "
            f"{current['transport']}/{current['scenario']}"
        )
        frame_delta = current["frames_batched"] - previous["frames_batched"]
        if frame_delta > 0:
            ok = False
            lines.append(
                f"  REGRESSION {label}: batched frames "
                f"{previous['frames_batched']} -> {current['frames_batched']}"
            )
        elif frame_delta < 0:
            lines.append(
                f"  improved {label}: batched frames "
                f"{previous['frames_batched']} -> {current['frames_batched']}"
            )
        p50_prev = previous.get("p50_batched", 0.0) or 0.0
        p50_now = current["p50_batched"]
        if p50_prev > 0:
            lines.append(
                f"  info {label}: batched p50 "
                f"{p50_prev * 1e3:.2f}ms -> {p50_now * 1e3:.2f}ms"
            )
    if shared == 0:
        return False, "baseline shares no grid cells with this run"
    header = (
        f"baseline: {shared} shared cell(s), "
        + ("no frame regressions" if ok else "FRAME REGRESSION(S) found")
    )
    return ok, "\n".join([header] + lines)


def save_report(report: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
