"""In-memory span recorder that wraps the package's public calls.

The benchmark never records spans inside ``src/``: during a traced
window it replaces selected functions and methods with thin wrappers
that open a span around the original call, and it puts the originals
back when the window closes.  Spans carry a parent link taken from a
context variable, so they nest across ``await`` points, asyncio tasks
and ``asyncio.to_thread`` calls (all of which copy the context).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import time
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "union_seconds"]


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    t0: float
    t1: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


def union_seconds(spans) -> float:
    """Seconds covered by the union of the spans' intervals."""
    total = 0.0
    end = float("-inf")
    for s in sorted(spans, key=lambda s: s.t0):
        if s.t1 <= end:
            continue
        total += s.t1 - max(s.t0, end)
        end = s.t1
    return total


class Tracer:
    """Records spans while installed; :meth:`uninstall` restores every
    wrapped attribute.

    ``wrap(owner, attr, name)`` replaces ``owner.attr`` (a module
    function or a method defined on a class) by a wrapper that records a
    span called ``name``.  An exception closes the span with
    ``attrs["error"]`` set to the exception's type name.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> tuple[Span, contextvars.Token]:
        parent = self._current.get()
        span = Span(next(self._ids), parent.id if parent else None, name,
                    time.perf_counter())
        return span, self._current.set(span)

    def _close(self, span: Span, token: contextvars.Token) -> None:
        span.t1 = time.perf_counter()
        self._current.reset(token)
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        span, token = self._open(name)
        try:
            yield span
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            self._close(span, token)

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return await original(*args, **kwargs)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def tree(self) -> dict[int | None, list[Span]]:
        """Children of every span id (``None`` holds the roots)."""
        kids: dict[int | None, list[Span]] = {}
        for s in self.spans:
            kids.setdefault(s.parent, []).append(s)
        return kids

    @staticmethod
    def descendants(kids: dict, span: Span, name: str) -> list[Span]:
        """The outermost spans called ``name`` below ``span`` (a same-named
        span nested in another is not counted twice)."""
        out: list[Span] = []
        stack = list(kids.get(span.id, ()))
        while stack:
            s = stack.pop()
            if s.name == name:
                out.append(s)
            else:
                stack.extend(kids.get(s.id, ()))
        return out
