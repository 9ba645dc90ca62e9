"""Layer tracing from outside the program.

The benchmark adds no span to the library.  Instead :class:`Tracer`
replaces public functions and methods with timing wrappers for the
duration of a traced run, builds a span tree keyed by call path
(``service.pump>incremental.recheck>graph.region``), and restores the
originals afterwards.  Wrappers go on the attribute the *caller* looks
up: ``core.incremental`` imports ``seed_expansion`` by name, so the
region expansion is wrapped there, not in ``graph.builders``.

Per-event calls (``add_click``, ``DetectionService.submit``) are never
wrapped, because a wrapper per event distorts the timing: they are timed
at the batch boundary that contains them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

SEP = ">"


@dataclass
class SpanStat:
    """Accumulated calls of one call path."""

    total: float = 0.0
    calls: int = 0
    child: float = 0.0
    durations: list = field(default_factory=list)

    @property
    def self_time(self) -> float:
        return self.total - self.child


class _Frame:
    __slots__ = ("path", "child")

    def __init__(self, path: str):
        self.path = path
        self.child = 0.0


class Tracer:
    """Collects a span tree from wrapped callables, across threads."""

    def __init__(self) -> None:
        self.spans: dict[str, SpanStat] = {}
        self.values: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[Callable[[], None]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, path: str, elapsed: float, child: float) -> None:
        with self._lock:
            stat = self.spans.get(path)
            if stat is None:
                stat = self.spans[path] = SpanStat()
            stat.total += elapsed
            stat.calls += 1
            stat.child += child
            stat.durations.append(elapsed)

    def add(self, name: str, amount: float) -> None:
        """Accumulate a named value (edge counts, bytes) beside the spans."""
        with self._lock:
            self.values[name] = self.values.get(name, 0.0) + amount

    def peak(self, name: str, value: float) -> None:
        """Keep the largest ``value`` seen under ``name``."""
        with self._lock:
            self.values[name] = max(self.values.get(name, value), value)

    def timed(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` wrapped as span ``name``.

        ``after(result, args, kwargs)`` runs once the span has closed; its
        own time is charged to the parent as a child, so measuring work
        never lands in a parent's untraced remainder.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = _Frame(name if parent is None else parent.path + SEP + name)
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                tracer.record(frame.path, elapsed, frame.child)
            if parent is not None:
                parent.child += elapsed
            if after is not None:
                hook_started = time.perf_counter()
                after(result, args, kwargs)
                if parent is not None:
                    parent.child += time.perf_counter() - hook_started
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installing ----------------------------------------------------
    def wrap(self, owner, attr: str, name: str, after: Callable | None = None) -> None:
        """Replace ``owner.attr`` (function, method, classmethod or property)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.timed(name, original.__func__, after))
        elif isinstance(original, property):
            replacement = property(self.timed(name, original.fget, after), original.fset)
        else:
            replacement = self.timed(name, original, after)
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- export --------------------------------------------------------
    def dump(self) -> dict:
        """Plain-JSON form, read back with :func:`load` (for server processes)."""
        with self._lock:
            return {
                "spans": {
                    path: [stat.total, stat.calls, stat.child, list(stat.durations)]
                    for path, stat in self.spans.items()
                },
                "values": dict(self.values),
            }


def load(payload: dict) -> "dict[str, SpanStat]":
    return {
        path: SpanStat(total, calls, child, list(durations))
        for path, (total, calls, child, durations) in payload["spans"].items()
    }


# ----------------------------------------------------------------------
# Arithmetic over a span tree
# ----------------------------------------------------------------------
def _leaf(path: str) -> str:
    return path.rsplit(SEP, 1)[-1]


def _outermost(tree: dict, name: str):
    """Paths ending in ``name`` with no ``name`` above them (no double count)."""
    for path, stat in tree.items():
        parts = path.split(SEP)
        if parts[-1] == name and name not in parts[:-1]:
            yield path, stat


def busy(tree: dict, name: str) -> float:
    """Wall seconds spent inside layer ``name``, nested calls counted once."""
    return sum(stat.total for _, stat in _outermost(tree, name))


def calls(tree: dict, name: str) -> int:
    return sum(stat.calls for path, stat in tree.items() if _leaf(path) == name)


def self_time(tree: dict, name: str) -> float:
    """Seconds inside ``name`` and outside any traced child of it."""
    return sum(stat.self_time for path, stat in tree.items() if _leaf(path) == name)


def durations(tree: dict, name: str) -> list:
    found = []
    for _, stat in _outermost(tree, name):
        found.extend(stat.durations)
    return found


def children(tree: dict, path: str) -> dict:
    prefix = path + SEP
    return {
        other: stat
        for other, stat in tree.items()
        if other.startswith(prefix) and SEP not in other[len(prefix):]
    }


def rows(tree: dict) -> list:
    """Table rows ``(depth, label, calls, busy, self)`` in tree order.

    Every span with traced children is followed by an ``(untraced)`` row:
    the parent's time that no child accounts for (its self time).
    """
    out = []

    def visit(path: str, depth: int) -> None:
        stat = tree[path]
        out.append((depth, _leaf(path), stat.calls, stat.total, stat.self_time))
        kids = children(tree, path)
        for child in sorted(kids, key=lambda other: -kids[other].total):
            visit(child, depth + 1)
        if kids:
            out.append((depth + 1, "(untraced)", None, stat.self_time, stat.self_time))

    for root in sorted((p for p in tree if SEP not in p), key=lambda p: -tree[p].total):
        visit(root, 0)
    return out


def render(tree: dict) -> str:
    lines = [f"{'layer':<48} {'calls':>7} {'busy s':>9} {'self s':>9}"]
    for depth, label, count, total, own in rows(tree):
        calls_text = "" if count is None else str(count)
        lines.append(
            f"{'  ' * depth + label:<48} {calls_text:>7} {total:>9.3f} {own:>9.3f}"
        )
    return "\n".join(lines)
