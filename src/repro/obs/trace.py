"""Nested span timing for the placement hot path.

A :class:`Span` is a context manager timing one stage; spans nest via a
context variable, so any code can open ``span("rap.ilp")`` without
threading an object through every call.  A span is a pair of events:
``span.begin`` (``name``, ``id``, ``parent``) on entry and ``span.end``
(``id``, ``duration_s``, ``status``, ``error``, final ``attrs``) on
exit, emitted through :func:`repro.obs.events.emit_event`.  The span
tree of a run is a fold over those events
(:func:`repro.obs.recorder.fold_events`); its plain-dict form is what
:func:`render_span_tree`, the Chrome trace and ``SweepJobResult.spans``
take.
"""

from __future__ import annotations

import itertools
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.obs.events import emit_event

_ACTIVE_SPAN: ContextVar["Span | None"] = ContextVar(
    "repro_active_span", default=None
)

#: Span ids, unique within a process (the fold keys spans by pid + id).
_SPAN_IDS = itertools.count(1)


@dataclass
class Span:
    """One timed stage; use as a context manager."""

    name: str
    attrs: dict[str, Any] = field(default_factory=dict)
    duration_s: float = 0.0
    status: str = "open"  # "open" while running, then "ok" | "error"
    error: str | None = None

    _t0: float | None = field(default=None, repr=False, compare=False)
    _id: int = field(default=0, repr=False, compare=False)
    _token: Any = field(default=None, repr=False, compare=False)

    def __enter__(self) -> "Span":
        self._t0 = time.perf_counter()
        self._id = next(_SPAN_IDS)
        parent = _ACTIVE_SPAN.get()
        self._token = _ACTIVE_SPAN.set(self)
        emit_event(
            "span.begin",
            name=self.name,
            id=self._id,
            parent=parent._id if parent is not None else None,
        )
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.duration_s = self.elapsed()
        self.status = "ok" if exc_type is None else "error"
        if exc is not None:
            self.error = f"{type(exc).__name__}: {exc}"
        if self._token is not None:
            _ACTIVE_SPAN.reset(self._token)
        emit_event(
            "span.end",
            name=self.name,
            id=self._id,
            duration_s=self.duration_s,
            status=self.status,
            error=self.error,
            attrs=dict(self.attrs),
        )
        # Drop context references so finished spans pickle cleanly.
        self._token = None
        self._t0 = None

    def elapsed(self) -> float:
        """Seconds since the span was entered (== duration once closed).

        Usable *inside* the span for time-limit checks, replacing ad-hoc
        ``perf_counter`` deltas next to the telemetry ones.
        """
        if self._t0 is None:
            return self.duration_s
        return time.perf_counter() - self._t0

    def annotate(self, **attrs: Any) -> "Span":
        """Attach key/value attributes (chainable); they travel on
        ``span.end``, so annotate before the span closes."""
        self.attrs.update(attrs)
        return self


def span(name: str, **attrs: Any) -> Span:
    """Open a span under the currently active one: the instrumentation
    entry point (``with span("rap.ilp"): ...``)."""
    return Span(name=name, attrs=attrs)


def current_span() -> Span | None:
    return _ACTIVE_SPAN.get()


def _span_roots(spans: Mapping | Sequence[Mapping]) -> list[Mapping]:
    """Root span dicts of a spans payload (``{"spans": [...]}``, the
    run record's ``spans`` section), one span dict, or a list of them."""
    if isinstance(spans, Mapping):
        return list(spans["spans"]) if "spans" in spans else [spans]
    return list(spans)


def render_span_tree(
    spans: Mapping | Sequence[Mapping], min_duration_s: float = 0.0
) -> str:
    """ASCII tree of span dicts and their descendants with durations.

    Accepts a spans payload, one span dict or a list of them;
    ``min_duration_s`` prunes sub-trees faster than the threshold.
    """
    lines: list[str] = []

    def emit(node: Mapping, prefix: str, is_last: bool, is_root: bool) -> None:
        connector = "" if is_root else ("└─ " if is_last else "├─ ")
        status = node.get("status", "ok")
        flag = "" if status in ("ok", "open") else f"  [{status}]"
        lines.append(
            f"{prefix}{connector}{node['name']}  "
            f"{node.get('duration_s', 0.0) * 1e3:.1f}ms{flag}"
        )
        shown = [
            c for c in node.get("children", ())
            if c.get("duration_s", 0.0) >= min_duration_s
        ]
        child_prefix = prefix if is_root else prefix + ("   " if is_last else "│  ")
        for i, child in enumerate(shown):
            emit(child, child_prefix, i == len(shown) - 1, False)

    for root in _span_roots(spans):
        emit(root, "", True, True)
    return "\n".join(lines)
