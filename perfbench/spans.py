"""Timing wrappers installed around the public functions of repro's layers.

A :class:`SpanRecorder` replaces a function or method on its owner (module
or class) with a wrapper that records one span per call and puts the
original back on :meth:`SpanRecorder.restore`.  Nothing in ``src/`` knows
about it.

Synchronous wrappers keep a stack, so a span's *self* time is its duration
minus the time covered by spans nested inside it.  Coroutine wrappers stay
off the stack (their awaits interleave with other requests) and record wall
time only.  Spans are kept in memory as plain tuples and aggregated after
the measured window closes.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Any, Callable, Iterable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float  # time.monotonic() at entry: comparable across processes
    duration: float
    self_time: float
    depth: int  # enclosing spans at entry; -1 for coroutine spans
    tag: Any  # optional value computed after the call (see SpanRecorder.wrap)


class SpanRecorder:
    """Install wrappers, collect spans, restore the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        tag: Callable[[tuple], Any] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``tag(args)`` runs after the call returns, outside the span, and
        its value is stored on the span (e.g. the batch size of a flush).
        """
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        spans, stack, clock = self.spans, self._stack, time.monotonic

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                start = clock()
                try:
                    return await original(*args, **kwargs)
                finally:
                    duration = clock() - start
                    spans.append(Span(name, start, duration, duration, -1, None))

        else:

            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    duration = clock() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += duration
                    spans.append(
                        Span(
                            name, start, duration, duration - frame[0],
                            len(stack), tag(args) if tag is not None else None,
                        )
                    )

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def within(spans: Iterable[Span], start: float, end: float) -> list[Span]:
    """Spans that began inside ``[start, end]``."""
    return [span for span in spans if start <= span.start <= end]


def layer_table(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, total ``seconds`` and ``self_s``."""
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "seconds": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["seconds"] += span.duration
        row["self_s"] += span.self_time
    return table


def top_level_seconds(spans: Iterable[Span]) -> float:
    """Time covered by spans with no enclosing span."""
    return sum(span.duration for span in spans if span.depth == 0)


def layer_metrics(
    table: dict[str, dict[str, float]], names: Iterable[str]
) -> dict[str, float]:
    """``<layer>.self_s`` and ``<layer>.calls`` for each layer in ``names``.

    A layer the workload never called reports zero, which is what the
    benchmark predicts for layers a workload does not use.
    """
    metrics: dict[str, float] = {}
    for name in names:
        row = table.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.self_s"] = row["self_s"]
        metrics[f"{name}.calls"] = row["calls"]
    return metrics
