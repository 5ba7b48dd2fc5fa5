"""``repro top``: a live TTY view over the event bus.

:class:`LiveView` subscribes to an :class:`~repro.obs.events.EventBus`
and repaints a compact dashboard — current stage path, pool health,
convergence sparkline, last QoR snapshot and sweep progress — after
every drain round.  The same :class:`LiveStatus` /
:func:`format_event` machinery backs ``repro tail``, so headless runs
replay through the identical renderer.

While a view is painting, the managed ``repro`` logging handler is
redirected into an in-memory buffer (its last lines render as a pane of
the dashboard), so ``-v`` diagnostics and ANSI cursor movement never
interleave garbage on the TTY; ``close()`` restores the handler and
replays the buffered lines.  See
:func:`repro.obs.logconfig.redirect_managed_stream`.
"""

from __future__ import annotations

import io
import sys
import time
from collections import deque
from typing import IO, Any, Mapping

from repro.obs.logconfig import redirect_managed_stream

#: Unicode eighth-blocks, lowest to highest.
_SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: Envelope keys excluded from generic payload rendering.
_ENVELOPE = ("t", "pid", "src", "seq", "type")

#: Preferred convergence columns, most interesting first.
_CONV_PRIORITY = ("hpwl", "objective", "primal", "dual", "inertia", "gap")


def sparkline(values: list[float], width: int = 24) -> str:
    """Render the last ``width`` values as a unicode sparkline."""
    tail = [float(v) for v in values[-width:]]
    if not tail:
        return ""
    lo, hi = min(tail), max(tail)
    if hi - lo <= 0:
        return _SPARK_CHARS[0] * len(tail)
    span = hi - lo
    return "".join(
        _SPARK_CHARS[
            min(len(_SPARK_CHARS) - 1, int((v - lo) / span * len(_SPARK_CHARS)))
        ]
        for v in tail
    )


def _fmt_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, (list, tuple)):
        return f"[{len(value)}]"
    if isinstance(value, Mapping):
        return "{" + ",".join(
            f"{k}={_fmt_value(v)}" for k, v in list(value.items())[:4]
        ) + "}"
    return str(value)


def format_event(event: Mapping, t0: float | None = None) -> str:
    """One pretty line per event (the ``repro tail`` row format)."""
    t = float(event.get("t", 0.0))
    rel = t - t0 if t0 is not None else 0.0
    payload = ", ".join(
        f"{k}={_fmt_value(v)}"
        for k, v in event.items()
        if k not in _ENVELOPE
    )
    return (
        f"{rel:9.3f}s  {str(event.get('type', '?')):<16} "
        f"pid={event.get('pid', '?'):<8} {payload}"
    )


class LiveStatus:
    """Aggregated run state: what the dashboard knows right now."""

    def __init__(self, conv_window: int = 48) -> None:
        self.t0: float | None = None
        self.last_t: float | None = None
        self.n_events = 0
        self.counts: dict[str, int] = {}
        self.stage_stacks: dict[str, list[str]] = {}
        self.last_src: str | None = None
        self.run_name: str | None = None
        self.pool = {
            "started": 0, "done": 0, "kills": 0,
            "respawns": 0, "retries": 0, "inline": 0,
        }
        self.convergence: dict[str, deque] = {}
        self.conv_window = conv_window
        self.last_qor: tuple[str, dict] | None = None
        self.sweep: dict | None = None

    # -- ingestion ---------------------------------------------------------

    def apply(self, event: Mapping) -> None:
        self.n_events += 1
        t = event.get("t")
        if isinstance(t, (int, float)):
            if self.t0 is None:
                self.t0 = float(t)
            self.last_t = float(t)
        type_ = str(event.get("type", "?"))
        self.counts[type_] = self.counts.get(type_, 0) + 1
        src = str(event.get("src", "?"))

        if type_ == "run.begin":
            self.run_name = str(event.get("name", ""))
        elif type_ == "span.begin":
            self.stage_stacks.setdefault(src, []).append(
                str(event.get("name", "?"))
            )
            self.last_src = src
        elif type_ == "span.end":
            stack = self.stage_stacks.get(src)
            if stack and stack[-1] == event.get("name"):
                stack.pop()
            self.last_src = src
        elif type_ == "pool.task_start":
            self.pool["started"] += 1
        elif type_ == "pool.task_done":
            self.pool["done"] += 1
        elif type_ == "pool.kill":
            self.pool["kills"] += 1
        elif type_ == "pool.respawn":
            self.pool["respawns"] += 1
        elif type_ == "pool.retry":
            self.pool["retries"] += 1
        elif type_ == "pool.inline":
            self.pool["inline"] += 1
        elif type_ == "convergence":
            values = event.get("values")
            if isinstance(values, Mapping) and values:
                series = str(event.get("series", "?"))
                column = next(
                    (c for c in _CONV_PRIORITY if c in values),
                    next(iter(values)),
                )
                try:
                    value = float(values[column])
                except (TypeError, ValueError):
                    return
                self.convergence.setdefault(
                    series, deque(maxlen=self.conv_window)
                ).append(value)
        elif type_ == "qor":
            metrics = event.get("metrics")
            if isinstance(metrics, Mapping):
                self.last_qor = (str(event.get("stage", "?")), dict(metrics))
        elif type_ == "sweep.job":
            self.sweep = {
                k: event.get(k)
                for k in ("testcase", "flow", "status", "done", "total")
            }

    def current_stage(self) -> str:
        """Deepest open span path of the most recently active source."""
        sources = [self.last_src] if self.last_src else []
        sources += [s for s in self.stage_stacks if s not in sources]
        for src in sources:
            stack = self.stage_stacks.get(src) or []
            if stack:
                return " > ".join(stack)
        return "(idle)"

    # -- rendering ---------------------------------------------------------

    def render_lines(self, width: int = 78) -> list[str]:
        elapsed = (
            0.0
            if self.t0 is None or self.last_t is None
            else self.last_t - self.t0
        )
        name = f" {self.run_name}" if self.run_name else ""
        lines = [
            f"repro live{name} · {elapsed:.1f}s · {self.n_events} events",
            f"stage : {self.current_stage()}"[:width],
        ]
        pool = self.pool
        if any(pool.values()):
            lines.append(
                "pool  : "
                f"started {pool['started']}  done {pool['done']}  "
                f"kills {pool['kills']}  respawns {pool['respawns']}  "
                f"retries {pool['retries']}  inline {pool['inline']}"
            )
        if self.last_qor is not None:
            stage, metrics = self.last_qor
            body = "  ".join(
                f"{k}={_fmt_value(v)}" for k, v in list(metrics.items())[:4]
            )
            lines.append(f"qor   : {stage}  {body}"[:width])
        for series, values in list(self.convergence.items())[-3:]:
            vals = list(values)
            lines.append(
                f"conv  : {series:<20} {sparkline(vals)} {vals[-1]:.4g}"[:width]
            )
        if self.sweep is not None:
            sw = self.sweep
            lines.append(
                f"sweep : {sw.get('done')}/{sw.get('total')} "
                f"{sw.get('testcase')} flow{sw.get('flow')} {sw.get('status')}"
            )
        return lines


class LiveView:
    """Event-bus consumer painting a :class:`LiveStatus` dashboard.

    Subscribe it to a bus::

        view = LiveView()
        bus.subscribe(view)
        with bus.attach():
            run_flow(...)

    On a TTY the dashboard repaints in place (cursor-up + clear); on a
    plain stream nothing paints until ``close()``, which prints the
    final frame once — so piping ``--live`` output stays readable.
    """

    def __init__(
        self,
        stream: IO[str] | None = None,
        repaint_interval_s: float = 0.25,
        status: LiveStatus | None = None,
        redirect_logs: bool = True,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.repaint_interval_s = repaint_interval_s
        self.status = status or LiveStatus()
        self._last_paint = 0.0
        self._painted_lines = 0
        self._dirty = False
        self._closed = False
        self._log_buffer: io.StringIO | None = None
        self._restore_logs = None
        self.log_tail: deque[str] = deque(maxlen=4)
        if redirect_logs:
            self._log_buffer = io.StringIO()
            self._restore_logs = redirect_managed_stream(self._log_buffer)

    def _is_tty(self) -> bool:
        isatty = getattr(self.stream, "isatty", None)
        try:
            return bool(isatty()) if isatty is not None else False
        except (OSError, ValueError):  # pragma: no cover - closed stream
            return False

    def __call__(self, event: dict) -> None:
        self.status.apply(event)
        self._dirty = True

    def _drain_log_buffer(self) -> None:
        if self._log_buffer is None:
            return
        text = self._log_buffer.getvalue()
        if not text:
            return
        self._log_buffer.seek(0)
        self._log_buffer.truncate()
        for line in text.splitlines():
            if line.strip():
                self.log_tail.append(line)

    def render_lines(self, width: int = 78) -> list[str]:
        self._drain_log_buffer()
        lines = self.status.render_lines(width=width)
        for line in self.log_tail:
            lines.append(f"log   : {line}"[:width])
        return lines

    def paint(self) -> None:
        lines = self.render_lines()
        if self._is_tty() and self._painted_lines:
            # Cursor up over the previous frame, then clear to end.
            self.stream.write(f"\x1b[{self._painted_lines}A\x1b[J")
        self.stream.write("\n".join(lines) + "\n")
        self.stream.flush()
        self._painted_lines = len(lines)
        self._dirty = False

    def tick(self, now: float) -> None:
        if not self._dirty:
            return
        if not self._is_tty():
            return  # plain stream: one final frame at close()
        if now - self._last_paint >= self.repaint_interval_s:
            self._last_paint = now
            self.paint()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.paint()
        if self._restore_logs is not None:
            self._restore_logs()
            self._restore_logs = None
        if self._log_buffer is not None:
            leftover = self._log_buffer.getvalue()
            self._log_buffer = None
            if leftover.strip():
                self.stream.write(leftover)
                self.stream.flush()
