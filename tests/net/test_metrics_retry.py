"""NetMetrics contents and the bounded retry-with-backoff path."""

import asyncio

import pytest

from repro.core.protocol import ProtocolSession, execute_degradable_protocol
from repro.core.spec import DegradableSpec
from repro.exceptions import TransportError
from repro.net import (
    DATA,
    MARK,
    FlakyTransport,
    Frame,
    LocalBus,
    NetMetrics,
    RetryPolicy,
    Transport,
    run_agreement_async,
)
from repro.net.runner import AsyncRoundRunner
from repro.sim.faults import OmissionInjector

from tests.conftest import node_names

VALUE = "engage"
FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=0.001, max_delay=0.004)


def _run(spec, nodes, transport, **kwargs):
    return asyncio.run(
        run_agreement_async(spec, nodes, "S", VALUE, transport=transport, **kwargs)
    )


class TestRetryPolicy:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_transient_failures_are_absorbed(self, spec_1_2):
        """Failures below the retry budget change nothing but the metrics."""
        nodes = node_names(5)
        flaky = FlakyTransport(LocalBus(), failures=2)
        outcome = _run(spec_1_2, nodes, flaky, retry=FAST_RETRY)
        sync_result, _ = execute_degradable_protocol(spec_1_2, nodes, "S", VALUE)
        assert outcome.result.decisions == sync_result.decisions
        assert outcome.metrics.total_retries > 0
        assert outcome.metrics.total_send_failures == 0
        assert flaky.injected_failures > 0

    def test_exhausted_retries_become_message_loss(self, spec_1_2):
        """A permanently failing link degrades to omission, never to error."""
        nodes = node_names(5)
        flaky = FlakyTransport(
            LocalBus(),
            failures=10 ** 9,
            match=lambda f: f.source == "S"
            and f.destination == "p1"
            and f.kind in ("data", "batch"),
        )
        outcome = _run(
            spec_1_2, nodes, flaky, retry=FAST_RETRY, round_timeout=0.4
        )
        sync_result, _ = execute_degradable_protocol(
            spec_1_2, nodes, "S", VALUE,
            extra_injectors=[OmissionInjector.for_links({("S", "p1")})],
        )
        assert outcome.result.decisions == sync_result.decisions
        assert outcome.metrics.total_send_failures > 0
        assert outcome.result.stats.substitutions == (
            sync_result.stats.substitutions
        )


class _AlwaysFailing(Transport):
    """Counts send attempts; every one raises a transient error."""

    name = "always-failing"

    def __init__(self):
        self.attempts = 0

    async def open(self, nodes):
        pass

    async def send(self, frame):
        self.attempts += 1
        raise TransportError("permanently flaky")

    async def recv(self, node):
        raise AssertionError("recv must not be reached in this test")

    async def close(self):
        pass


class TestRetryDeadlineClipping:
    """Regression: a backoff sleep that eats the round must not be
    followed by another send attempt — the deadline is re-checked after
    the sleep, and an expired deadline converts the send into a recorded
    loss (the receiver's absence) instead of a retry leaking into the
    next round."""

    def test_backoff_sleep_cannot_cross_the_deadline(self, monkeypatch):
        spec = DegradableSpec(m=1, u=2, n_nodes=5)
        nodes = node_names(5)
        transport = _AlwaysFailing()
        clock = {"now": 100.0}

        async def fake_sleep(delay):
            # Fake clock: sleeping advances time instantly and exactly.
            clock["now"] += delay

        async def scenario():
            loop = asyncio.get_running_loop()
            monkeypatch.setattr(loop, "time", lambda: clock["now"])
            monkeypatch.setattr(
                "repro.net.runner.asyncio.sleep", fake_sleep
            )
            session = ProtocolSession.byz(spec, nodes, "S", VALUE)
            runner = AsyncRoundRunner(
                session,
                transport=transport,
                # base_delay far beyond the deadline: the (clipped) first
                # backoff sleep lands exactly on the deadline.
                retry=RetryPolicy(
                    max_attempts=5, base_delay=10.0, max_delay=10.0
                ),
                round_timeout=1.0,
            )
            frame = Frame(
                kind=DATA,
                round_no=1,
                source="S",
                destination="p1",
                sent_at=clock["now"],
            )
            deadline = clock["now"] + 1.0
            delivered = await runner._send_with_retry(frame, 1, deadline)
            return delivered, runner.metrics

        delivered, metrics = asyncio.run(scenario())
        assert not delivered
        # Exactly one attempt: the sleep consumed the round, and the
        # post-sleep deadline check suppressed the second attempt (the
        # old code fired it after the deadline).
        assert transport.attempts == 1
        assert metrics.total_retries == 1
        assert metrics.total_send_failures == 1

    def test_retry_within_deadline_still_fires(self, monkeypatch):
        """The re-check only suppresses attempts *past* the deadline."""
        spec = DegradableSpec(m=1, u=2, n_nodes=5)
        nodes = node_names(5)
        transport = _AlwaysFailing()
        clock = {"now": 0.0}

        async def fake_sleep(delay):
            clock["now"] += delay

        async def scenario():
            loop = asyncio.get_running_loop()
            monkeypatch.setattr(loop, "time", lambda: clock["now"])
            monkeypatch.setattr(
                "repro.net.runner.asyncio.sleep", fake_sleep
            )
            session = ProtocolSession.byz(spec, nodes, "S", VALUE)
            runner = AsyncRoundRunner(
                session,
                transport=transport,
                retry=RetryPolicy(
                    max_attempts=3, base_delay=0.01, max_delay=0.01
                ),
                round_timeout=1.0,
            )
            frame = Frame(
                kind=DATA,
                round_no=1,
                source="S",
                destination="p1",
                sent_at=clock["now"],
            )
            delivered = await runner._send_with_retry(
                frame, 1, clock["now"] + 1.0
            )
            return delivered, runner.metrics

        delivered, metrics = asyncio.run(scenario())
        assert not delivered
        assert transport.attempts == 3       # full budget, deadline roomy
        assert metrics.total_retries == 2    # attempts 2 and 3 were retries
        assert metrics.total_send_failures == 1


class _MarkDelayer(Transport):
    """Holds one round-1 MARK and replays it during round 2.

    Reproduces chaos-induced marker lateness deterministically: the
    receiver rides out the round-1 deadline (the marker never came), and
    the stale MARK surfaces mid round 2, where it must be *metered* as a
    late frame — not silently swallowed, and certainly not allowed to
    resolve a round-2 wait.
    """

    name = "mark-delayer"

    def __init__(self, inner, source, destination):
        self.inner = inner
        self.source = source
        self.destination = destination
        self.held = None

    def attach_metrics(self, metrics):
        self.inner.attach_metrics(metrics)

    async def open(self, nodes):
        await self.inner.open(nodes)

    async def send(self, frame):
        if (
            frame.kind == MARK
            and frame.round_no == 1
            and frame.source == self.source
            and frame.destination == self.destination
        ):
            self.held = frame
            return 0
        if (
            self.held is not None
            and frame.round_no == 2
            and frame.destination == self.destination
        ):
            held, self.held = self.held, None
            await self.inner.send(held)
        return await self.inner.send(frame)

    async def recv(self, node):
        return await self.inner.recv(node)

    async def close(self):
        await self.inner.close()


class TestStaleMarkMetering:
    def test_stale_mark_is_metered_not_swallowed(self, spec_1_2):
        """Regression: a MARK from an already-closed round is recorded as
        a late frame (the old collector dropped it without a trace) and
        does not count toward the round it straggled into."""
        nodes = node_names(5)
        transport = _MarkDelayer(LocalBus(), "S", "p1")
        outcome = asyncio.run(
            run_agreement_async(
                spec_1_2, nodes, "S", VALUE,
                transport=transport,
                round_timeout=0.3,
                batching=False,   # the legacy path has standalone MARKs
            )
        )
        # p1 rode out round 1 without S's marker...
        assert outcome.metrics.rounds[1].timeouts >= 1
        # ...and the stale marker was metered when it surfaced in round 2.
        assert outcome.metrics.rounds[2].late_frames >= 1
        # The data all arrived; only the marker was late — decisions are
        # exactly the clean run's.
        sync_result, _ = execute_degradable_protocol(
            spec_1_2, nodes, "S", VALUE
        )
        assert outcome.result.decisions == sync_result.decisions
        # late_frames is part of the determinism fingerprint.
        assert "r2.late_frames" in outcome.metrics.counters()


class TestNetMetrics:
    def test_per_round_counters_cover_every_round(self, spec_1_2):
        nodes = node_names(5)
        outcome = _run(spec_1_2, nodes, LocalBus())
        # spec.rounds waves + the final decide round, all present.
        assert sorted(outcome.metrics.rounds) == [1, 2, 3]
        assert outcome.metrics.rounds[1].messages_sent == 4
        assert outcome.metrics.rounds[2].messages_sent == 12
        assert outcome.metrics.rounds[3].messages_sent == 0

    def test_bytes_and_latencies_recorded(self, spec_1_2):
        nodes = node_names(5)
        outcome = _run(spec_1_2, nodes, LocalBus(measure_bytes=True))
        assert outcome.metrics.total_bytes > 0
        pct = outcome.metrics.latency_percentiles()
        assert 0.0 <= pct["p50"] <= pct["p99"]

    def test_substitutions_mirror_result_stats(self):
        spec = DegradableSpec(m=1, u=2, n_nodes=5)
        nodes = node_names(5)
        outcome = _run(
            spec, nodes, LocalBus(),
            extra_injectors=[OmissionInjector.from_sources({"p1"})],
        )
        assert outcome.metrics.substitutions == (
            outcome.result.stats.substitutions
        )
        assert outcome.metrics.substitutions > 0

    def test_render_produces_table_and_summary(self, spec_1_2):
        nodes = node_names(5)
        outcome = _run(spec_1_2, nodes, LocalBus())
        text = outcome.metrics.render()
        assert "round" in text and "msgs" in text
        assert "transport=local" in text
        assert "latency p50=" in text

    def test_empty_metrics_render(self):
        metrics = NetMetrics(transport="local")
        text = metrics.render()
        assert "transport=local" in text
        assert metrics.latency_percentiles() == {
            "p50": 0.0, "p90": 0.0, "p99": 0.0,
        }
