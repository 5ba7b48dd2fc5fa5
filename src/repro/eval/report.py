"""Plain-text table rendering for the experiment harness.

The benchmark entry points print rows shaped like the paper's tables so a
reader can compare against the published numbers line by line.
"""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Monospace table with right-aligned numeric columns."""
    texts = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in texts)) if texts else len(h)
        for i, h in enumerate(headers)
    ]
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in texts:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


#: Row-assignment backends whose answer is heuristic even when they are
#: the requested primary (no proven optimum to compare against).
_HEURISTIC_BACKENDS = frozenset({"lagrangian", "baseline"})


def provenance_label(provenance: object) -> str:
    """Mode cell for Table IV-style flow rows.

    Flags non-exact rows so degraded results are never silently mixed
    with exact ones: ``exact(highs)``, ``heuristic(baseline)``, or
    ``degraded(bnb)`` (a fallback rung or relaxation produced the row).
    Accepts any object with ``backend`` / ``degraded`` attributes
    (duck-typed so reporting has no import-order dependency on the flow
    layer); returns ``"-"`` for unconstrained rows.
    """
    backend = getattr(provenance, "backend", None)
    if backend is None:
        return "-"
    if getattr(provenance, "degraded", False):
        return f"degraded({backend})"
    if backend in _HEURISTIC_BACKENDS:
        return f"heuristic({backend})"
    return f"exact({backend})"


def format_provenance(provenance: object) -> str:
    """Multi-line provenance report for CLI output and logs.

    One line per rung attempt plus a header with the summary, the
    relaxations applied and the budget spent.
    """
    lines = [f"provenance: {provenance.summary()}"]
    budget = getattr(provenance, "budget_s", None)
    spent = getattr(provenance, "budget_spent_s", 0.0)
    if budget is not None:
        lines.append(f"  budget: {spent:.3f}s of {budget:g}s")
    for a in getattr(provenance, "attempts", ()):
        outcome = "ok" if a.ok else f"FAILED [{a.error_type}: {a.error}]"
        suffix = f" (relaxation: {a.relaxation})" if a.relaxation else ""
        lines.append(
            f"  {a.stage} attempt {a.attempt}: {outcome} "
            f"in {a.runtime_s:.3f}s{suffix}"
        )
    return "\n".join(lines)


_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def _sparkline(values: Sequence[float], width: int = 24) -> str:
    """Unicode block sparkline of a numeric series.

    Long series are downsampled to ``width`` buckets (bucket mean); a
    constant series renders at the lowest block so flat lines are visually
    distinct from trends.
    """
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if len(vals) > width:
        step = len(vals) / width
        vals = [
            sum(chunk) / len(chunk)
            for chunk in (
                vals[int(i * step): max(int((i + 1) * step), int(i * step) + 1)]
                for i in range(width)
            )
        ]
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        return _SPARK_BLOCKS[0] * len(vals)
    scale = (len(_SPARK_BLOCKS) - 1) / (hi - lo)
    return "".join(
        _SPARK_BLOCKS[int(round((v - lo) * scale))] for v in vals
    )


def _flatten_span_dicts(
    nodes: Sequence[dict], depth: int = 0
) -> list[tuple[int, dict]]:
    out: list[tuple[int, dict]] = []
    for node in nodes:
        out.append((depth, node))
        out.extend(_flatten_span_dicts(node.get("children", ()), depth + 1))
    return out


def _markdown_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(v) for v in row) + " |")
    return "\n".join(lines)


def render_run_report(record: dict, top_n_spans: int = 8) -> str:
    """Markdown run report for a flight-recorder ``run_record`` dict.

    Sections: run header, per-stage QoR table, convergence-series
    summaries with sparklines, provenance/metadata, event counter
    totals, and the top-N slowest spans.
    Tolerates partial records (missing spans/metrics sections).
    """
    lines = [f"# Run report: {record.get('name', 'run')}", ""]
    schema = record.get("schema")
    if schema:
        lines.append(f"- schema: `{schema}`")
    config = record.get("config") or {}
    for key in sorted(config):
        lines.append(f"- config.{key}: {_fmt(config[key])}")
    meta = record.get("meta") or {}
    provenance_text = meta.get("provenance")
    for key in sorted(meta):
        if key == "provenance":
            continue
        lines.append(f"- {key}: {_fmt(meta[key])}")
    lines.append("")

    qor = record.get("qor") or []
    if qor:
        columns: list[str] = []
        for snap in qor:
            for key in snap.get("metrics", {}):
                if key not in columns:
                    columns.append(key)
        rows = [
            [snap.get("stage", "?")]
            + [snap.get("metrics", {}).get(c, "") for c in columns]
            for snap in qor
        ]
        lines += ["## QoR by stage", "",
                  _markdown_table(["stage"] + columns, rows), ""]

    convergence = record.get("convergence") or {}
    if convergence:
        lines += ["## Convergence", ""]
        for name in sorted(convergence):
            series = convergence[name]
            points = series.get("points", [])
            lines.append(f"### {name} ({len(points)} points)")
            lines.append("")
            columns = sorted({k for p in points for k in p})
            for column in columns:
                vals = [p[column] for p in points if column in p]
                if not vals:
                    continue
                lines.append(
                    f"- `{column}`: {_sparkline(vals)} "
                    f"first={_fmt(float(vals[0]))} last={_fmt(float(vals[-1]))} "
                    f"min={_fmt(min(float(v) for v in vals))} "
                    f"max={_fmt(max(float(v) for v in vals))}"
                )
            lines.append("")

    if provenance_text:
        lines += ["## Provenance", "", "```", str(provenance_text), "```", ""]

    spans_payload = record.get("spans") or {}
    flat = _flatten_span_dicts(spans_payload.get("spans", ()))

    counters = (record.get("metrics") or {}).get("counters") or {}
    if counters:
        rows = [[name, float(counters[name])] for name in sorted(counters)]
        lines += [
            "## Metrics totals", "",
            _markdown_table(["counter", "total"], rows), "",
        ]

    if flat:
        ranked = sorted(
            flat, key=lambda item: item[1].get("duration_s", 0.0), reverse=True
        )[:top_n_spans]
        rows = [
            [node.get("name", "?"), float(node.get("duration_s", 0.0)) * 1e3,
             depth, node.get("status", "ok")]
            for depth, node in ranked
        ]
        lines += [f"## Slowest spans (top {len(rows)})", "",
                  _markdown_table(["span", "ms", "depth", "status"], rows), ""]
    return "\n".join(lines).rstrip() + "\n"


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.001:
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


def rank_correlation_matches(
    first: dict[int, float], second: dict[int, float]
) -> tuple[int, int]:
    """Count pairwise order agreements between two metric dicts.

    The paper's footnote 5 checks how often the HPWL ordering of two flows
    matches their routed-wirelength ordering (147/156 there).  Returns
    (matches, comparisons) over all key pairs present in both dicts.
    """
    keys = sorted(set(first) & set(second))
    matches = 0
    comparisons = 0
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            da = first[a] - first[b]
            db = second[a] - second[b]
            comparisons += 1
            if da == 0 or db == 0:
                matches += 1 if da == db else 0
            elif (da > 0) == (db > 0):
                matches += 1
    return matches, comparisons
