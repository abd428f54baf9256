"""Observing a run never changes it.

The tentpole invariant of ``repro.obs``: event publication draws zero
RNG and nothing wall-clock-derived reaches the determinism fingerprint,
so a same-seed chaos run produces identical decisions and
:meth:`NetMetrics.counters` fingerprints with the observability layer
attached or absent — and every fingerprint value is a plain ``int``.
"""

import asyncio
import random

import pytest

from repro.core.spec import DegradableSpec
from repro.net import LocalBus, run_agreement_async
from repro.net.chaos import ChaosPolicy
from repro.net.metrics import NetMetrics
from repro.obs.events import EventBus

from tests.conftest import node_names

SPEC = DegradableSpec(m=1, u=2, n_nodes=5)

NOISY = ChaosPolicy(
    drop_probability=0.12,
    duplicate_probability=0.10,
    reorder_probability=0.10,
    corrupt_probability=0.08,
    latency_probability=0.2,
    latency=(0.0002, 0.001),
)


def chaos_run(seed, events=None):
    outcome = asyncio.run(
        run_agreement_async(
            SPEC,
            node_names(5),
            "S",
            "engage",
            transport=LocalBus(),
            round_timeout=0.5,
            chaos=NOISY,
            chaos_rng=random.Random(seed),
            supervise=True,
            supervision_rng=random.Random(seed),
            events=events,
        )
    )
    return outcome


class TestObservedEqualsUnobserved:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_chaos_run_fingerprints_identical_on_vs_off(self, seed):
        bus = EventBus()
        observed = chaos_run(seed, events=bus)
        unobserved = chaos_run(seed)
        assert observed.result.decisions == unobserved.result.decisions
        assert observed.metrics.counters() == unobserved.metrics.counters()
        assert observed.chaos.counts() == unobserved.chaos.counts()
        # ...and the observed run actually observed something.
        assert bus.counts["round_started"] >= 1

    def test_subscriber_exceptions_do_not_perturb_the_run(self):
        bus = EventBus()

        def broken(event):
            raise RuntimeError("observer bug")

        bus.subscribe(broken)
        observed = chaos_run(7, events=bus)
        baseline = chaos_run(7)
        assert bus.subscriber_errors == bus.total_events > 0
        assert observed.result.decisions == baseline.result.decisions
        assert observed.metrics.counters() == baseline.metrics.counters()

    def test_service_fingerprints_identical_on_vs_off(self):
        from repro.serve import AgreementService

        def service_run(events=None):
            async def scenario():
                async with AgreementService(
                    SPEC,
                    node_names(5),
                    round_timeout=2.0,
                    record_trace=False,
                    events=events,
                ) as service:
                    iids = [
                        service.submit("S", "attack"),
                        service.submit("p1", "retreat"),
                        service.submit("p2", "hold"),
                    ]
                    outcomes = [
                        await service.decision(iid) for iid in iids
                    ]
                    return (
                        [dict(o.decisions) for o in outcomes],
                        service.aggregate_metrics.counters(),
                    )

            return asyncio.run(scenario())

        bus = EventBus()
        observed = service_run(events=bus)
        unobserved = service_run()
        assert observed == unobserved
        assert bus.counts["instance_decided"] == 3
        assert bus.counts["service_started"] == 1


class TestFingerprintIsAllInts:
    def test_loaded_recorder_fingerprint_is_all_ints(self):
        # Exercise every counter family, including the wall-clock-adjacent
        # ones (outages, latencies, durations, folded instances) that must
        # contribute counts — never seconds — to the fingerprint.
        metrics = NetMetrics(transport="audit")
        metrics.record_batch(1, 4, 400)
        metrics.record_latency(1, 0.004)
        metrics.record_round_duration(1, 0.25)
        metrics.record_timeout(1, "p1", "p2")
        metrics.substitutions = 1
        metrics.record_reconnect("S", "p1")
        metrics.record_dedup("S", "p1")
        metrics.record_outage("S", "p1", 1.5)
        metrics.record_heartbeat_rtt("S", "p1", 0.01)
        metrics.record_link_state("S", "p1", "suspect")
        metrics.record_watchdog_cancellation()
        metrics.record_endpoint_restart()
        metrics.record_instance("i0", {"messages": 3, "frames": 2})
        counters = metrics.counters()
        assert counters  # non-trivial
        for key, value in counters.items():
            assert type(value) is int, (key, value)

    def test_chaos_outcome_fingerprint_is_all_ints(self):
        counters = chaos_run(5).metrics.counters()
        for key, value in counters.items():
            assert type(value) is int, (key, value)

    def test_float_leak_fails_loudly(self):
        metrics = NetMetrics()
        # Simulate the exact leak the audit exists for: a wall-clock
        # float smuggled in through an instance fold.
        metrics.record_instance("i9", {"outage_seconds": 1.5})
        with pytest.raises(TypeError, match="determinism fingerprint"):
            metrics.counters()

    def test_bool_is_not_an_acceptable_counter(self):
        metrics = NetMetrics()
        metrics.record_instance("i9", {"satisfied": True})
        with pytest.raises(TypeError, match="determinism fingerprint"):
            metrics.counters()
