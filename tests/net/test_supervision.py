"""Self-healing links: backoff, dedup, heartbeats, and kill-links soaks.

Covers the supervision layer bottom-up: :class:`BackoffPolicy` schedules,
receive-side sequence dedup (replay suppression that survives chaos
reordering), the heartbeat ``alive → suspect → dead`` state machine with
its circuit breaker, transparent healing of transient send failures under
a full protocol run, and the acceptance soak — a seeded chaos campaign
that hard-resets every TCP connection and crash-restarts a node mid-run,
twice, asserting identical decisions and wire fingerprints.
"""

import asyncio
import random
from dataclasses import replace

import pytest

from repro.core.protocol import execute_degradable_protocol
from repro.core.spec import DegradableSpec
from repro.exceptions import ConfigurationError
from repro.net.codec import DATA, PING, Frame
from repro.net.metrics import NetMetrics
from repro.net.runner import run_agreement_async
from repro.net.supervision import (
    ALIVE,
    DEAD,
    SUSPECT,
    BackoffPolicy,
    HeartbeatPolicy,
    SupervisedTransport,
)
from repro.net.transport import FlakyTransport, LocalBus
from repro.sim.messages import Message, RelayPayload

NODES = ["S", "p1", "p2"]


def data_frame(source="S", destination="p1", value="engage", round_no=1):
    message = Message(
        source=source,
        destination=destination,
        payload=RelayPayload(path=(source,), value=value),
        round_sent=round_no,
        tag="byz",
    )
    return Frame(
        kind=DATA, round_no=round_no, source=source, destination=destination,
        message=message,
    )


class TestBackoffPolicy:
    def test_exponential_growth_capped(self):
        policy = BackoffPolicy(
            max_attempts=6, base_delay=0.01, multiplier=2.0,
            max_delay=0.05, jitter=0.0,
        )
        rng = random.Random(0)
        delays = [policy.delay(k, rng) for k in range(1, 7)]
        assert delays[:3] == [0.01, 0.02, 0.04]
        assert delays[3:] == [0.05, 0.05, 0.05]  # capped

    def test_jitter_stretches_within_bounds(self):
        policy = BackoffPolicy(
            max_attempts=4, base_delay=0.1, multiplier=1.0,
            max_delay=0.1, jitter=0.5,
        )
        rng = random.Random(7)
        for _ in range(50):
            d = policy.delay(1, rng)
            assert 0.1 <= d <= 0.1 * 1.5

    def test_jitter_is_seed_deterministic(self):
        policy = BackoffPolicy()
        a = [policy.delay(k, random.Random(3)) for k in range(1, 5)]
        b = [policy.delay(k, random.Random(3)) for k in range(1, 5)]
        assert a == b

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BackoffPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            BackoffPolicy(base_delay=0.5, max_delay=0.1)
        with pytest.raises(ConfigurationError):
            BackoffPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            BackoffPolicy(jitter=1.5)

    def test_heartbeat_validation(self):
        with pytest.raises(ConfigurationError):
            HeartbeatPolicy(interval=0.0)
        with pytest.raises(ConfigurationError):
            HeartbeatPolicy(suspect_after=0)
        with pytest.raises(ConfigurationError):
            HeartbeatPolicy(suspect_after=3, dead_after=3)


class TestSequenceDedup:
    def test_replayed_frame_delivered_once(self):
        async def scenario():
            bus = LocalBus()
            sup = SupervisedTransport(bus, rng=random.Random(0))
            metrics = NetMetrics(transport=sup.name)
            sup.attach_metrics(metrics)
            await sup.open(NODES)
            try:
                await sup.send(data_frame(value="a"))
                # A reconnect-era retransmission: the same stamped frame
                # reaches the inner transport a second time.
                stamped = replace(data_frame(value="a"), seq=1)
                await bus.send(stamped)
                await sup.send(data_frame(value="b", round_no=1))

                first = await asyncio.wait_for(sup.recv("p1"), timeout=5.0)
                second = await asyncio.wait_for(sup.recv("p1"), timeout=5.0)
            finally:
                await sup.close()
            return first, second, metrics

        first, second, metrics = asyncio.run(scenario())
        assert first.message.payload.value == "a"
        # The replay was swallowed, not delivered as the second frame.
        assert second.message.payload.value == "b"
        assert metrics.link("S", "p1").deduped == 1

    def test_out_of_order_new_seq_is_not_a_replay(self):
        async def scenario():
            bus = LocalBus()
            sup = SupervisedTransport(bus, rng=random.Random(0))
            await sup.open(NODES)
            try:
                # Chaos reordering: seq 5 arrives before seq 3.  Both are
                # new; a high-water-mark dedup would drop the second.
                await bus.send(replace(data_frame(value="late5"), seq=5))
                await bus.send(replace(data_frame(value="late3"), seq=3))
                got = [
                    await asyncio.wait_for(sup.recv("p1"), timeout=5.0)
                    for _ in range(2)
                ]
            finally:
                await sup.close()
            return [f.message.payload.value for f in got]

        assert asyncio.run(scenario()) == ["late5", "late3"]

    def test_seen_window_is_pruned(self):
        async def scenario():
            bus = LocalBus()
            sup = SupervisedTransport(bus, rng=random.Random(0), dedup_window=8)
            await sup.open(NODES)
            try:
                for seq in range(1, 30):
                    await bus.send(replace(data_frame(), seq=seq))
                    await asyncio.wait_for(sup.recv("p1"), timeout=5.0)
                state = sup.link("S", "p1")
                assert len(state.seen) <= 8 + 1
                assert state.high_seq == 29
            finally:
                await sup.close()

        asyncio.run(scenario())

    def test_unstamped_frames_bypass_dedup(self):
        async def scenario():
            bus = LocalBus()
            sup = SupervisedTransport(bus, rng=random.Random(0))
            await sup.open(NODES)
            try:
                # Legacy/unsupervised peers send seq-less frames; two
                # identical ones must both deliver (dup chaos is counted
                # elsewhere, not silently eaten here).
                await bus.send(data_frame(value="x"))
                await bus.send(data_frame(value="x"))
                got = [
                    await asyncio.wait_for(sup.recv("p1"), timeout=5.0)
                    for _ in range(2)
                ]
            finally:
                await sup.close()
            return len(got)

        assert asyncio.run(scenario()) == 2


class TestHeartbeatFailureDetector:
    def test_misses_walk_alive_suspect_dead_and_recover(self):
        async def scenario():
            bus = LocalBus()
            sup = SupervisedTransport(
                bus,
                heartbeat=HeartbeatPolicy(
                    interval=10.0, suspect_after=2, dead_after=4
                ),
                rng=random.Random(0),
            )
            metrics = NetMetrics(transport=sup.name)
            sup.attach_metrics(metrics)
            await sup.open(NODES)
            try:
                link = ("S", "p1")
                state = sup.link(*link)
                assert state.state == ALIVE
                sup._note_miss(link, state)
                assert state.state == ALIVE
                sup._note_miss(link, state)
                assert state.state == SUSPECT
                sup._note_miss(link, state)
                sup._note_miss(link, state)
                assert state.state == DEAD
                sup._note_alive(link, state)
                assert state.state == ALIVE and state.misses == 0
            finally:
                await sup.close()
            return metrics

        metrics = asyncio.run(scenario())
        # alive -> suspect -> dead -> alive: three recorded transitions.
        assert metrics.link("S", "p1").state_changes == 3
        assert metrics.link("S", "p1").state == ALIVE

    def test_dead_link_circuit_breaker_fast_fails_sends(self):
        async def scenario():
            blocked = {"on": True}
            bus = LocalBus(measure_bytes=True)
            flaky = FlakyTransport(
                bus,
                failures=10**9,
                match=lambda f: blocked["on"] and f.destination == "p1",
            )
            sup = SupervisedTransport(
                flaky,
                backoff=BackoffPolicy(max_attempts=2, base_delay=0.001,
                                      max_delay=0.001, jitter=0.0),
                heartbeat=HeartbeatPolicy(
                    interval=0.02, suspect_after=1, dead_after=2
                ),
                rng=random.Random(0),
            )
            metrics = NetMetrics(transport=sup.name)
            sup.attach_metrics(metrics)
            await sup.open(NODES)
            # Consumers keep PING/PONG flowing for the healthy links.
            consumers = [
                asyncio.ensure_future(self._drain(sup, node))
                for node in NODES
            ]
            try:
                await self._wait_for_state(sup, ("S", "p1"), DEAD)
                # Circuit open: the send neither dials nor retries.
                nbytes = await sup.send(data_frame())
                assert nbytes == 0
                assert metrics.link("S", "p1").fast_fails >= 1
                assert metrics.total_send_failures >= 1

                # The peer comes back; one answered probe closes the circuit.
                blocked["on"] = False
                await self._wait_for_state(sup, ("S", "p1"), ALIVE)
                assert await sup.send(data_frame(value="healed")) > 0
            finally:
                for task in consumers:
                    task.cancel()
                await asyncio.gather(*consumers, return_exceptions=True)
                await sup.close()
            return metrics

        metrics = asyncio.run(scenario())
        assert metrics.total_heartbeats > 0
        assert metrics.link("S", "p1").outages >= 0  # metered, not raised

    @staticmethod
    async def _drain(sup, node):
        try:
            while True:
                await sup.recv(node)
        except asyncio.CancelledError:
            pass

    @staticmethod
    async def _wait_for_state(sup, link, state, timeout=5.0):
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while sup.link_states().get(link) != state:
            if loop.time() > deadline:
                raise AssertionError(
                    f"link {link} never reached {state!r}: "
                    f"{sup.link_states()}"
                )
            await asyncio.sleep(0.01)


class TestTransparentHealing:
    def test_transient_send_failures_healed_below_the_runner(self, spec_1_2):
        """The supervisor absorbs flaky sends: the runner sees zero retries
        and decides exactly what the synchronous engine does."""
        nodes = ["S", "p1", "p2", "p3", "p4"]

        async def scenario():
            flaky = FlakyTransport(
                LocalBus(), failures=2, match=lambda f: f.kind == DATA
            )
            return await run_agreement_async(
                spec_1_2, nodes, "S", "engage",
                transport=flaky, round_timeout=5.0, supervise=True,
                supervision_rng=random.Random(0),
            )

        outcome = asyncio.run(scenario())
        reference, _ = execute_degradable_protocol(
            spec_1_2, nodes, "S", "engage", record_trace=False
        )
        assert outcome.decisions == reference.decisions
        assert outcome.metrics.total_retries == 0
        assert outcome.metrics.total_send_failures == 0

    def test_exhausted_retries_become_metered_absence(self, spec_1_2):
        """An unhealable link is an omission fault, not an exception: the
        verdict degrades exactly as the paper's model says."""
        nodes = ["S", "p1", "p2", "p3", "p4"]

        async def scenario():
            flaky = FlakyTransport(
                LocalBus(),
                failures=10**9,
                match=lambda f: f.destination == "p1" and f.kind != PING,
            )
            return await run_agreement_async(
                spec_1_2, nodes, "S", "engage",
                transport=flaky, round_timeout=0.3, supervise=True,
                supervision_rng=random.Random(0),
            )

        outcome = asyncio.run(scenario())
        # p1 heard nothing and resolved V_d everywhere it needed to; the
        # other receivers still agree on the sender's value.
        assert outcome.metrics.total_send_failures > 0
        for node in ("p2", "p3", "p4"):
            assert outcome.decisions[node] == "engage"


class TestKillLinksSoak:
    def test_restart_trial_is_deterministic_on_localbus(self):
        from repro.net.chaos.campaign import TrialConfig, run_trial_sync

        config = TrialConfig(
            m=1, u=2, n_nodes=5, severity="light", transport="local",
            seed=2024, timeout=0.5, kill_links=True,
        )
        first = run_trial_sync(config)
        second = run_trial_sync(config)
        assert first.endpoint_restarts == 1
        assert first.decisions == second.decisions
        assert first.fingerprint == second.fingerprint
        assert not first.failed and not second.failed

    def test_replay_token_round_trips_kill_links(self):
        from repro.net.chaos.campaign import TrialConfig, parse_replay

        config = TrialConfig(
            m=1, u=2, n_nodes=5, severity="light", transport="local",
            seed=9, timeout=0.5, kill_links=True,
        )
        assert parse_replay(config.replay_token) == config
        plain = TrialConfig(
            m=1, u=2, n_nodes=5, severity="light", transport="local",
            seed=9, timeout=0.5,
        )
        assert "kill_links" not in plain.replay_token
        assert parse_replay(plain.replay_token) == plain

    @pytest.mark.timeout(300)
    def test_tcp_reset_and_restart_soak(self):
        """Acceptance gate: a deep spec over real TCP, every connection
        hard-reset at each relay round and one endpoint crash-restarted
        mid-run — completes, satisfies its tier, actually reconnects, and
        reproduces its full wire fingerprint on a same-seed re-run."""
        from repro.net.chaos.campaign import TrialConfig, run_trial_sync

        config = TrialConfig(
            m=2, u=3, n_nodes=8, severity="light", transport="tcp",
            seed=2108511367, timeout=0.5, kill_links=True,
        )
        first = run_trial_sync(config)
        second = run_trial_sync(config)
        assert not first.failed, first.violations
        assert first.reconnects > 0  # relay links genuinely re-dialed
        assert first.endpoint_restarts == 1
        assert first.decisions == second.decisions
        assert first.fingerprint == second.fingerprint
        for key in first.fingerprint:
            if key.startswith("link.") and key.endswith(".reconnects"):
                break
        else:
            raise AssertionError(
                "fingerprint carries no reconnect counters: "
                f"{sorted(first.fingerprint)}"
            )
