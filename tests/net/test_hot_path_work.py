"""Work counters of one agreement run: codec encodes and loop tasks.

Deterministic counts, so they are pinned exactly rather than timed.  One
batched (m,u,N) = (2,2,7) run puts 66 frames on the wire over 4 rounds.
Encodes are counted at every binding of ``encode_frame`` (the codec's
own, which ``pack_frame`` calls, and the runner's and transport's
module bindings); tasks through a counting loop task factory.
"""

import asyncio

import pytest

import repro.net.codec as codec_module
import repro.net.runner as runner_module
import repro.net.transport as transport_module
from repro.core.spec import DegradableSpec
from repro.net import LocalBus, TcpTransport, run_agreement_async

from tests.conftest import node_names

VALUE = "engage"
NODES = node_names(7)
FRAMES = 66
ROUNDS = 4


@pytest.fixture
def encodes(monkeypatch):
    """Count every ``encode_frame`` call, whichever binding it goes through."""
    calls = []
    original = codec_module.encode_frame

    def counting(frame):
        calls.append(frame.kind)
        return original(frame)

    for module in (codec_module, runner_module, transport_module):
        monkeypatch.setattr(module, "encode_frame", counting)
    return calls


def _run(transport):
    """One (2,2,7) run; returns the outcome and the tasks it created."""

    async def counted():
        loop = asyncio.get_running_loop()
        tasks = []

        def factory(loop, coro, **kwargs):
            tasks.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        loop.set_task_factory(factory)
        try:
            outcome = await run_agreement_async(
                DegradableSpec(m=2, u=2, n_nodes=7),
                NODES,
                "S",
                VALUE,
                transport=transport,
                record_trace=False,
            )
        finally:
            loop.set_task_factory(None)
        return outcome, len(tasks)

    return asyncio.run(counted())


class TestHotPathWork:
    def test_local_bus_encodes_nothing(self, encodes):
        outcome, _ = _run(LocalBus())
        assert outcome.metrics.total_frames == FRAMES
        assert encodes == []
        assert outcome.metrics.total_bytes == 0

    def test_local_bus_tasks_bounded_by_frames_and_collects(self, encodes):
        outcome, tasks = _run(LocalBus())
        assert outcome.metrics.total_frames == FRAMES
        assert outcome.result.stats.rounds == ROUNDS
        # One send task per frame plus one collect task per node-round;
        # a receive-side task per frame would exceed this.
        assert tasks <= FRAMES + len(NODES) * ROUNDS

    def test_tcp_encodes_each_frame_exactly_once(self, encodes):
        outcome, _ = _run(TcpTransport())
        assert outcome.metrics.total_frames == FRAMES
        assert len(encodes) == FRAMES
        assert outcome.metrics.total_bytes > 0

    def test_measured_local_bus_encodes_each_frame_once(self, encodes):
        outcome, _ = _run(LocalBus(measure_bytes=True))
        assert len(encodes) == FRAMES
        assert outcome.metrics.total_bytes > 0
