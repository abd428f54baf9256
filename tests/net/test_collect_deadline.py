"""The collect's round deadline, pinned on the virtual clock.

Each node's collect runs under one deadline timer.  These tests pin what
that timer must and must not do: a frame that is only queued once the
deadline has passed is absence in its round (a TIMEOUT now, a late frame
in the next round), whether it arrives while the collect waits or was
already queued before the collect looked; and a cancellation from
outside the runner, such as the service watchdog's, propagates instead
of being taken for a round timeout.
"""

import asyncio

import pytest

from repro.core.protocol import ProtocolSession
from repro.core.spec import DegradableSpec
from repro.explore.clock import run_on_virtual_clock
from repro.net import Frame, LocalBus, Transport
from repro.net.adapters import MuteAdapter
from repro.net.runner import AsyncRoundRunner
from repro.sim.trace import EventKind

from tests.conftest import node_names

VALUE = "engage"
NODES = node_names(5)
ROUND_TIMEOUT = 1.0


class _SlowLink(Transport):
    """LocalBus on which chosen frames reach their receiver late.

    *delays* maps ``(round_no, source, destination)`` to a delay.
    ``blocking=True`` makes the send itself take that long (the round's
    collects start only after it, with every frame already queued);
    otherwise the send returns at once and the frame lands that much
    later, while the receiver's collect waits.
    """

    name = "slow-link"

    def __init__(self, delays, blocking: bool) -> None:
        self.inner = LocalBus()
        self.delays = delays
        self.blocking = blocking

    async def open(self, nodes):
        await self.inner.open(nodes)

    async def send(self, frame: Frame) -> int:
        delay = self.delays.get(
            (frame.round_no, frame.source, frame.destination)
        )
        if delay is not None:
            if self.blocking:
                await asyncio.sleep(delay)
            else:
                loop = asyncio.get_running_loop()
                loop.call_later(
                    delay, lambda: loop.create_task(self.inner.send(frame))
                )
                return 0
        return await self.inner.send(frame)

    async def recv(self, node):
        return await self.inner.recv(node)

    async def close(self):
        await self.inner.close()


def _runner(transport, adapters=()):
    session = ProtocolSession.byz(
        DegradableSpec(m=1, u=2, n_nodes=5), NODES, "S", VALUE
    )
    return AsyncRoundRunner(
        session,
        transport=transport,
        adapters=list(adapters),
        round_timeout=ROUND_TIMEOUT,
    )


def _events(runner, kind, round_no):
    return [
        e for e in runner.trace.events
        if e.kind is kind and e.round_no == round_no
    ]


def _timed_out_links(runner, round_no):
    return {
        (e.source, e.destination)
        for e in _events(runner, EventKind.TIMEOUT, round_no)
    }


def _late_from_round_1(runner):
    return {
        (e.source, e.destination)
        for e in _events(runner, EventKind.LATE_FRAME, 2)
        if e.meta["frame_round"] == 1
    }


class TestDeadline:
    def test_frame_arriving_after_deadline_is_late(self):
        # S's round-1 frame lands mid round 2, which p1 spends waiting
        # for p2's equally slow round-2 frame.
        slow = 1.5 * ROUND_TIMEOUT
        runner = _runner(
            _SlowLink({(1, "S", "p1"): slow, (2, "p2", "p1"): slow},
                      blocking=False)
        )
        run_on_virtual_clock(runner.run())
        assert _timed_out_links(runner, 1) == {("S", "p1")}
        assert _late_from_round_1(runner) == {("S", "p1")}
        assert runner.metrics.rounds[2].late_frames == 1

    def test_frame_queued_after_deadline_is_not_consumed(self):
        runner = _runner(
            _SlowLink({(1, "S", "p1"): 1.5 * ROUND_TIMEOUT}, blocking=True)
        )
        run_on_virtual_clock(runner.run())
        # Every round-1 frame from S sat queued when the collects started,
        # already past the deadline: none was consumed in round 1.
        receivers = {("S", node) for node in NODES if node != "S"}
        assert _timed_out_links(runner, 1) == receivers
        assert _events(runner, EventKind.FRAME_RECV, 1) == []
        assert _late_from_round_1(runner) == receivers


class TestOuterCancellation:
    def _muted_runner(self):
        # S is silent, so every collect waits for it until the deadline.
        return _runner(LocalBus(), adapters=[MuteAdapter({"S"})])

    def test_cancel_mid_collect_propagates(self):
        runner = self._muted_runner()

        async def cancel_mid_collect():
            task = asyncio.ensure_future(runner.run())
            await asyncio.sleep(ROUND_TIMEOUT / 2)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            return asyncio.get_running_loop().time()

        stopped = run_on_virtual_clock(cancel_mid_collect(), start_time=0.0)
        assert stopped == pytest.approx(ROUND_TIMEOUT / 2)
        assert runner.metrics.total_timeouts == 0
        assert _events(runner, EventKind.TIMEOUT, 1) == []

    def test_watchdog_wait_for_times_out_not_the_round(self):
        runner = self._muted_runner()

        async def watchdog():
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(runner.run(), timeout=ROUND_TIMEOUT / 2)

        run_on_virtual_clock(watchdog())
        assert runner.metrics.total_timeouts == 0
        assert 2 not in runner.metrics.rounds
