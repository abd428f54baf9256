#!/usr/bin/env bash
# Full CI gate: tests, benchmarks, examples, CLI battery.
# Runs straight from a checkout — no editable install required.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:${PYTHONPATH}}"

echo "== unit / property / integration tests (tier 1) =="
python -m pytest -x -q

echo "== cold start (lazy verb imports, stdlib confidence bound) =="
# --help must run without the analysis verbs or networkx loaded (pinned by
# tests/test_cold_start.py); report reaches the Clopper-Pearson bound
# through summarize_confidence.
python -m repro --help > /dev/null
python -m repro report > /dev/null

echo "== line-coverage floor (core + verify) =="
# pytest-cov is an optional extra; the floor is enforced wherever it is
# installed and skipped (loudly) where it is not, so a bare checkout
# still runs the rest of CI.
if python -c "import pytest_cov" 2> /dev/null; then
    python -m pytest -q -p pytest_cov \
        --cov=repro.core --cov=repro.verify \
        --cov-report=term-missing:skip-covered --cov-fail-under=85 \
        tests/core tests/verify
else
    echo "  pytest-cov not installed; coverage floor skipped"
fi

echo "== experiment benchmarks =="
python -m pytest benchmarks/ --benchmark-only

echo "== examples =="
for example in examples/*.py; do
    echo "  -> ${example}"
    python "${example}" > /dev/null
done

echo "== CLI experiment battery =="
python -m repro experiments
python -m repro suite
python -m repro net --transport local
python -m repro net --transport tcp
python -m repro net --transport tcp --no-batch

echo "== wire-path bench (batched/unbatched equivalence gate) =="
# Fails if the two wire modes diverge in decisions/substitutions/verdicts
# anywhere on the quick grid, or the N=7 TCP frame reduction drops below 3x.
timeout 300 python -m repro bench --quick --out BENCH_net.json

echo "== chaos soak (seeded, replayable) =="
timeout 300 python -m repro chaos --severity light --trials 5 --seed 7

echo "== self-healing soak (reconnect + crash-restart under chaos) =="
# Hard-resets every TCP connection at relay-round onsets and
# crash-restarts one node's endpoint mid-run, under the reconnecting
# supervisor; runs the campaign twice with the same seed and fails
# unless decisions and wire fingerprints (reconnect counters included)
# are identical.
timeout 300 python -m repro chaos --kill-links --severity light --trials 4 --seed 7 --transport tcp --timeout 0.5

echo "== trace conformance (golden trace + differential fuzz) =="
python -m repro verify examples/traces/golden_m1u2.jsonl
timeout 300 python -m repro fuzz --quick --seed 7

echo "== schedule explorer (bounded DFS + shrink gate, archives BENCH_explore.json) =="
# Seedless and deterministic: correct (1,2,5) must explore clean to the
# bench depth, the seeded vote bug must be found and shrunk, and the
# artifact records schedules/sec and the pruning ratio.
timeout 300 python -m repro explore --bench --out BENCH_explore.json

echo "== agreement service (multiplexed instances + load gate) =="
# serve cross-checks every decision against the synchronous engine;
# load fails on any divergence or dropped submit.  Both share one
# transport pair per link across all instances.
timeout 300 python -m repro serve --instances 32 --max-inflight 32 --seed 7
timeout 300 python -m repro serve --instances 8 --chaos light --seed 5 --timeout 0.5
timeout 300 python -m repro load --instances 64 --seed 7 --metrics-port 0 --out BENCH_serve.json

echo "== observability gate (live scrape + traced kill-links smoke) =="
# Starts repro serve --metrics-port, scrapes the endpoint while live,
# and fails on any malformed exposition line or unhealthy /healthz.
# Then runs repro trace --kill-links on a known-degraded seed and fails
# unless the span JSONL validates, the Perfetto JSON parses with every
# parent resolving, and the summary names a degraded round.
# The stats verb then re-renders the archived load report (with its
# embedded mid-run sample) as exposition, exercising the offline path.
timeout 180 python scripts/obs_gate.py
timeout 60 python -m repro stats BENCH_serve.json --prom > /dev/null
timeout 60 python -m repro stats BENCH_net.json > /dev/null

echo "== perfbench traced smoke (correctness gate + traced-vs-untraced check) =="
# Each traced run fails on any wrong decision, on any decision or
# counters() difference between its untraced and traced phases, and on
# explore-125 on any deviation from the explorer's exact counters.
for workload in serve-125-local serve-227-tcp explore-125; do
    timeout 300 python3 perfbench/run.py --workload "${workload}" \
        --seed 7 --seconds 4 --trace 1 > /dev/null
done

echo "== slow suite (full fuzz budget) =="
timeout 600 python -m pytest -q -m slow

echo "CI green."
