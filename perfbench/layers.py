"""Per-layer accounting for the traced run, installed from outside the program.

:class:`Tracer` wraps the public functions of each layer (and the module
bindings that ``from``-imports made of them) with counters and
``perf_counter_ns`` timers, and restores every original on exit.  Timing
is *self time*: a wrapped call's duration minus the part of it its
wrapped children took, so the layers' times are disjoint and add up.

Coroutines are timed step by step: the wrapper drives the wrapped
coroutine itself and times each ``send``/``throw`` into it.  A step runs
without interruption, so one synchronous stack of open spans is exact
even with many tasks interleaving on the loop, and a coroutine suspended
on a future is charged nothing for the wait.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import selectors
import sys
import types
from time import perf_counter, perf_counter_ns
from typing import Callable, Dict, List, Optional


class Layer:
    """Calls, self time and free-form tallies of one wrapped function."""

    __slots__ = ("calls", "self_ns", "tally")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.tally = 0

    @property
    def self_ms(self) -> float:
        return self.self_ns / 1e6


class _Stack:
    """Open spans of the running step: each entry collects child time."""

    def __init__(self) -> None:
        self.frames: List[List[int]] = []

    def close(self, layer: Layer, frame: List[int], elapsed: int) -> None:
        self.frames.pop()
        layer.self_ns += elapsed - frame[0]
        if self.frames:
            self.frames[-1][0] += elapsed


@types.coroutine
def _drive(coro, layer: Layer, stack: _Stack):
    """Run *coro* to completion, charging only its own steps to *layer*."""
    value, error = None, None
    try:
        while True:
            frame = [0]
            stack.frames.append(frame)
            started = perf_counter_ns()
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                stack.close(layer, frame, perf_counter_ns() - started)
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                raise
            except BaseException as exc:  # handed on to the wrapped coroutine
                value, error = None, exc
    finally:
        coro.close()


class TimingSelector(selectors.DefaultSelector):
    """The loop's default selector, timing how long the loop sat idle."""

    def __init__(self) -> None:
        super().__init__()
        self.idle_s = 0.0

    def select(self, timeout=None):
        started = perf_counter()
        try:
            return super().select(timeout)
        finally:
            self.idle_s += perf_counter() - started


class Tracer:
    """Install wrappers with :meth:`wrap`; :meth:`restore` undoes all."""

    def __init__(self) -> None:
        self.layers: Dict[str, Layer] = {}
        self._stack = _Stack()
        self._undo: List[Callable[[], None]] = []

    def layer(self, name: str) -> Layer:
        return self.layers.setdefault(name, Layer())

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a counting, self-timing wrapper.

        *before* is called with the call's arguments, *after* with the
        arguments and the result (both outside the timed span).
        """
        if isinstance(owner, type):  # the class's own function, not a bound one
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        layer = self.layer(name)
        stack = self._stack
        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                layer.calls += 1
                if before is not None:
                    before(args)
                result = await _drive(original(*args, **kwargs), layer, stack)
                if after is not None:
                    after(args, result)
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                layer.calls += 1
                if before is not None:
                    before(args)
                frame = [0]
                stack.frames.append(frame)
                started = perf_counter_ns()
                try:
                    result = original(*args, **kwargs)
                finally:
                    stack.close(layer, frame, perf_counter_ns() - started)
                if after is not None:
                    after(args, result)
                return result

        self.replace(owner, attr, wrapper)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to *value* until :meth:`restore`."""
        original = getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def attributed_ms(self) -> float:
        return sum(layer.self_ms for layer in self.layers.values())


def count_wait_for(tracer: Tracer, module: str, name: str) -> None:
    """Count ``asyncio.wait_for`` calls made from *module*'s own code."""
    layer = tracer.layer(name)
    original = asyncio.wait_for

    def wait_for(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == module:
            layer.calls += 1
        return original(*args, **kwargs)

    tracer.replace(asyncio, "wait_for", wait_for)


def counting_task_factory(layer: Layer):
    """A loop task factory that counts every task the loop creates."""

    def factory(loop, coro, **kwargs):
        layer.calls += 1
        return asyncio.Task(coro, loop=loop, **kwargs)

    return factory
