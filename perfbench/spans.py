"""Spans, operation accounting and linear-algebra call counters.

Spans are recorded from the benchmark's own code around calls into the
library; the library itself is not instrumented. Every span, every CLI
subcommand and every output check counts as one attempted operation.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


class BenchFailure(Exception):
    """A timed call or CLI subcommand failed; the iteration cannot go on."""


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


@dataclass
class Recorder:
    """Keeps spans in memory and counts attempted and failed operations."""

    run_id: str
    spans: list[Span] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, op: bool = True):
        """Time the enclosed block; an exception inside counts as a failure
        when the span is an operation."""
        parent = self._stack[-1] if self._stack else None
        s = Span(id=len(self.spans), name=name, parent=parent, start=time.perf_counter())
        self.spans.append(s)
        self._stack.append(s.id)
        if op:
            self.attempted += 1
        try:
            yield s
        except Exception as exc:
            if op and not getattr(exc, "counted", False):
                self.failed += 1
                self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
                exc.counted = True
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check {name} failed {detail}".rstrip())
        return ok

    def fail(self, exc: Exception) -> None:
        """Record an exception unless an operation has counted it already."""
        if not getattr(exc, "counted", False):
            self.failed += 1
            self.failures.append(f"{type(exc).__name__}: {exc}")

    def durations(self, start: int, end: int | None = None) -> dict[str, float]:
        """Seconds per span name, summed over the spans recorded between
        indices ``start`` and ``end``."""
        out: dict[str, float] = {}
        for s in self.spans[start:end]:
            out[s.name] = out.get(s.name, 0.0) + s.seconds
        return out

    def to_json(self) -> list[dict]:
        return [
            {
                "run": self.run_id,
                "id": s.id,
                "name": s.name,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
            }
            for s in self.spans
        ]


class LinalgCounter:
    """Counts calls to ``numpy.linalg.cholesky`` and ``numpy.linalg.inv``
    while installed. The library looks both up at call time, so replacing
    the module attributes sees every call it makes."""

    NAMES = ("cholesky", "inv")

    def __init__(self, linalg) -> None:
        self._linalg = linalg
        self._orig: dict = {}
        self.counts = dict.fromkeys(self.NAMES, 0)

    def reset(self) -> None:
        self.counts = dict.fromkeys(self.NAMES, 0)

    def __enter__(self) -> "LinalgCounter":
        for name in self.NAMES:
            orig = getattr(self._linalg, name)
            self._orig[name] = orig

            def counted(*args, _orig=orig, _name=name, **kwargs):
                self.counts[_name] += 1
                return _orig(*args, **kwargs)

            setattr(self._linalg, name, counted)
        return self

    def __exit__(self, *exc) -> None:
        for name, orig in self._orig.items():
            setattr(self._linalg, name, orig)
        self._orig.clear()
