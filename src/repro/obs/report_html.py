"""Self-contained HTML run report: ``repro report <run_dir>``.

One file, stdlib only, zero external assets — every style rule is an
inline ``<style>`` block and every chart is inline SVG, so the report
can be attached to a CI run or mailed around and still render offline.

Charts follow the house data-viz rules: each chart carries exactly one
y-axis (precision/recall share the [0, 1] scale on one chart; merge
counts get their own chart rather than a second axis), series colors
come from the validated categorical palette in fixed slot order with
light/dark variants behind CSS custom properties, every multi-series
chart has a legend plus direct end-of-line labels, and every chart is
backed by a plain table so no value is readable only through color.
Point markers carry ``<title>`` tooltips (the HTML-native hover layer
a static file can ship).
"""

from __future__ import annotations

import html
import json
from pathlib import Path

from .manifest import load_run_dir
from .schemas import trace_process_names

__all__ = ["render_report", "write_report"]

#: most lanes drawn in the utilization strip; iterate-heavy runs fork
#: a child per chunk and hundreds of two-span rows help nobody.
_MAX_LANES = 16

#: validated categorical palette (slots 1-3 pass all-pairs in both
#: modes): blue, orange, aqua; light / dark steps of the same hues.
_STYLE = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
}
@media (prefers-color-scheme: dark) {
  :root:not([data-theme="light"]) {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
  }
}
:root[data-theme="dark"] {
  color-scheme: dark;
  --surface-1: #1a1a19; --page: #0d0d0d;
  --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #898781;
  --grid: #2c2c2a; --baseline: #383835;
  --border: rgba(255,255,255,0.10);
  --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page); color: var(--text-primary);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif; font-size: 14px;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
.subtitle { color: var(--text-secondary); margin-bottom: 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 132px;
}
.tile .value { font-size: 22px; font-weight: 600; }
.tile .label { color: var(--text-muted); font-size: 12px; margin-top: 2px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px; margin-top: 8px;
}
table { border-collapse: collapse; width: 100%; }
th, td {
  text-align: left; padding: 5px 10px; border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
th { color: var(--text-muted); font-weight: 500; font-size: 12px; }
td.num, th.num { text-align: right; }
.legend { display: flex; gap: 16px; margin: 4px 0 8px; font-size: 12px;
  color: var(--text-secondary); }
.legend .swatch {
  display: inline-block; width: 10px; height: 10px; border-radius: 2px;
  margin-right: 5px; vertical-align: -1px;
}
.note { color: var(--text-muted); font-size: 12px; }
svg text { font-family: inherit; }
details summary { cursor: pointer; color: var(--text-secondary); font-size: 12px;
  margin-top: 8px; }
"""

_CHART_W, _CHART_H = 640, 220
_PAD_L, _PAD_R, _PAD_T, _PAD_B = 46, 70, 12, 26


def _esc(value) -> str:
    return html.escape(str(value), quote=True)


def _scale(value, lo, hi, out_lo, out_hi):
    if hi == lo:
        return (out_lo + out_hi) / 2.0
    return out_lo + (value - lo) * (out_hi - out_lo) / (hi - lo)


def _line_chart(samples, series, *, y_max=None, y_fmt="{:.2f}"):
    """Inline-SVG line chart; *series* is ``[(label, css_var, key)]``.

    One y-axis per chart by construction — callers split measures of
    different scale into separate charts.
    """
    xs = [sample["recomputations"] for sample in samples]
    x_lo, x_hi = min(xs), max(xs)
    values = [sample[key] for _, _, key in series for sample in samples]
    top = y_max if y_max is not None else (max(values) or 1)
    plot_r = _CHART_W - _PAD_R
    plot_b = _CHART_H - _PAD_B

    parts = [
        f'<svg viewBox="0 0 {_CHART_W} {_CHART_H}" role="img" '
        f'style="width:100%;max-width:{_CHART_W}px;height:auto;display:block">'
    ]
    # hairline grid + y labels at 0 / mid / top
    for fraction in (0.0, 0.5, 1.0):
        y = _scale(fraction * top, 0, top, plot_b, _PAD_T)
        parts.append(
            f'<line x1="{_PAD_L}" y1="{y:.1f}" x2="{plot_r}" y2="{y:.1f}" '
            f'stroke="var(--grid)" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_PAD_L - 6}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-size="11" fill="var(--text-muted)">'
            f"{_esc(y_fmt.format(fraction * top))}</text>"
        )
    # baseline + x extent labels
    parts.append(
        f'<line x1="{_PAD_L}" y1="{plot_b}" x2="{plot_r}" y2="{plot_b}" '
        f'stroke="var(--baseline)" stroke-width="1"/>'
    )
    for x_value, anchor in ((x_lo, "start"), (x_hi, "end")):
        x = _scale(x_value, x_lo, x_hi, _PAD_L, plot_r)
        parts.append(
            f'<text x="{x:.1f}" y="{_CHART_H - 8}" text-anchor="{anchor}" '
            f'font-size="11" fill="var(--text-muted)">{x_value:,}</text>'
        )
    # 2px polylines with >=4px hoverable markers and direct end labels
    for label, css_var, key in series:
        points = [
            (
                _scale(sample["recomputations"], x_lo, x_hi, _PAD_L, plot_r),
                _scale(sample[key], 0, top, plot_b, _PAD_T),
            )
            for sample in samples
        ]
        path = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="var({css_var})" '
            f'stroke-width="2" stroke-linejoin="round"/>'
        )
        for (x, y), sample in zip(points, samples):
            tooltip = (
                f"{label} {y_fmt.format(sample[key])} at "
                f"{sample['recomputations']:,} recomputations"
            )
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="var({css_var})" '
                f'stroke="var(--surface-1)" stroke-width="2">'
                f"<title>{_esc(tooltip)}</title></circle>"
            )
        end_x, end_y = points[-1]
        parts.append(
            f'<text x="{end_x + 8:.1f}" y="{end_y + 4:.1f}" font-size="11" '
            f'fill="var(--text-secondary)">{_esc(label)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _legend(series) -> str:
    items = "".join(
        f'<span><span class="swatch" style="background:var({css_var})"></span>'
        f"{_esc(label)}</span>"
        for label, css_var, _ in series
    )
    return f'<div class="legend">{items}</div>'


def _convergence_table(samples) -> str:
    rows = "".join(
        f"<tr><td class='num'>{s['recomputations']:,}</td>"
        f"<td class='num'>{s['merges']:,}</td>"
        f"<td class='num'>{s['queued']:,}</td>"
        f"<td class='num'>{s['precision']:.4f}</td>"
        f"<td class='num'>{s['recall']:.4f}</td></tr>"
        for s in samples
    )
    return (
        "<details><summary>Data table</summary><table>"
        "<tr><th class='num'>recomputations</th><th class='num'>merges</th>"
        "<th class='num'>queued</th><th class='num'>precision</th>"
        "<th class='num'>recall</th></tr>"
        f"{rows}</table></details>"
    )


def _convergence_section(samples) -> str:
    if len(samples) < 2:
        return (
            '<div class="card"><p class="note">Fewer than two convergence '
            "samples were recorded (short run or sampling disabled); no "
            "curve to draw.</p>"
            + (_convergence_table(samples) if samples else "")
            + "</div>"
        )
    quality_series = [
        ("precision", "--series-1", "precision"),
        ("recall", "--series-2", "recall"),
    ]
    merge_series = [("merges", "--series-3", "merges")]
    return (
        '<div class="card">'
        + _legend(quality_series)
        + _line_chart(samples, quality_series, y_max=1.0)
        + '<p class="note">Precision / recall vs gold, sampled by recomputation '
        "count. Merge volume is charted separately below (one axis per chart)."
        "</p>"
        + _line_chart(
            samples, merge_series, y_fmt="{:,.0f}"
        )
        + '<p class="note">Cumulative merge decisions over the same samples.</p>'
        + _convergence_table(samples)
        + "</div>"
    )


def _waterfall(phase_seconds: dict) -> str:
    phases = [(name, float(seconds)) for name, seconds in phase_seconds.items()]
    if not phases:
        return '<div class="card"><p class="note">No phase timings recorded (run without <code>--trace</code>).</p></div>'
    total = sum(seconds for _, seconds in phases) or 1.0
    bar_h, gap, label_w = 22, 8, 110
    width = 640
    height = len(phases) * (bar_h + gap) + 24
    plot_w = width - label_w - 90
    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'style="width:100%;max-width:{width}px;height:auto;display:block">'
    ]
    offset = 0.0
    for index, (name, seconds) in enumerate(phases):
        y = index * (bar_h + gap) + 8
        x = label_w + plot_w * (offset / total)
        bar_w = max(plot_w * (seconds / total), 2)
        parts.append(
            f'<text x="{label_w - 8}" y="{y + bar_h - 7}" text-anchor="end" '
            f'font-size="12" fill="var(--text-secondary)">{_esc(name)}</text>'
        )
        parts.append(
            f'<rect x="{x:.1f}" y="{y}" width="{bar_w:.1f}" height="{bar_h}" '
            f'rx="4" fill="var(--series-1)">'
            f"<title>{_esc(name)}: {seconds:.3f}s</title></rect>"
        )
        parts.append(
            f'<text x="{x + bar_w + 6:.1f}" y="{y + bar_h - 7}" font-size="11" '
            f'fill="var(--text-muted)">{seconds:.3f}s</text>'
        )
        offset += seconds
    parts.append("</svg>")
    return (
        '<div class="card">'
        + "".join(parts)
        + '<p class="note">Each phase starts where the previous ended '
        "(waterfall); bar length is wall-clock share.</p></div>"
    )


def _lane_rows(trace: dict) -> list[dict]:
    """Per-pid span intervals + busy time from a Chrome trace object."""
    names = trace_process_names(trace)
    spans_by_pid: dict = {}
    for event in trace.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        spans_by_pid.setdefault(event["pid"], []).append(
            (float(event["ts"]), float(event["dur"]))
        )
    lanes = []
    for pid, spans in spans_by_pid.items():
        busy = sum(duration for _, duration in spans)
        lanes.append(
            {
                "pid": pid,
                "name": names.get(pid, f"pid {pid}"),
                "spans": sorted(spans),
                "busy_us": busy,
            }
        )
    # engine lane first (it owns the earliest span), then busiest workers.
    lanes.sort(key=lambda lane: (-lane["busy_us"], lane["pid"]))
    return lanes


def _lanes_section(trace: dict | None) -> str:
    if trace is None:
        return (
            '<div class="card"><p class="note">No trace recorded for this run '
            "— worker-lane strip unavailable. Re-run with <code>--trace</code> "
            "(or <code>--run-dir</code>, which records one by default).</p></div>"
        )
    lanes = _lane_rows(trace)
    if not lanes:
        return (
            '<div class="card"><p class="note">The trace holds no timed spans '
            "— nothing to draw.</p></div>"
        )
    t_lo = min(span[0] for lane in lanes for span in lane["spans"])
    t_hi = max(span[0] + span[1] for lane in lanes for span in lane["spans"])
    total_us = (t_hi - t_lo) or 1.0
    shown = lanes[:_MAX_LANES]
    bar_h, gap, label_w = 16, 6, 190
    width = 640
    height = len(shown) * (bar_h + gap) + 18
    plot_w = width - label_w - 70
    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'style="width:100%;max-width:{width}px;height:auto;display:block">'
    ]
    for index, lane in enumerate(shown):
        y = index * (bar_h + gap) + 6
        utilization = lane["busy_us"] / total_us
        label = f"{lane['name']} · {lane['pid']}"
        parts.append(
            f'<text x="{label_w - 8}" y="{y + bar_h - 4}" text-anchor="end" '
            f'font-size="11" fill="var(--text-secondary)">{_esc(label)}</text>'
        )
        # faint track for the run's full extent, busy segments on top
        parts.append(
            f'<rect x="{label_w}" y="{y}" width="{plot_w}" height="{bar_h}" '
            f'rx="3" fill="var(--grid)"/>'
        )
        color = "--series-1" if index == 0 else "--series-2"
        for start, duration in lane["spans"]:
            x = label_w + plot_w * ((start - t_lo) / total_us)
            seg_w = max(plot_w * (duration / total_us), 1.0)
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{seg_w:.1f}" '
                f'height="{bar_h}" rx="2" fill="var({color})">'
                f"<title>{_esc(lane['name'])}: {duration / 1e6:.4f}s at "
                f"+{(start - t_lo) / 1e6:.4f}s</title></rect>"
            )
        parts.append(
            f'<text x="{label_w + plot_w + 6}" y="{y + bar_h - 4}" '
            f'font-size="11" fill="var(--text-muted)">{utilization:.0%}</text>'
        )
    parts.append("</svg>")
    rows = "".join(
        f"<tr><td>{_esc(lane['name'])}</td><td class='num'>{lane['pid']}</td>"
        f"<td class='num'>{len(lane['spans']):,}</td>"
        f"<td class='num'>{lane['busy_us'] / 1e6:.4f}</td>"
        f"<td class='num'>{lane['busy_us'] / total_us:.1%}</td></tr>"
        for lane in lanes
    )
    hidden = len(lanes) - len(shown)
    hidden_note = (
        f" {hidden} additional lane{'s' if hidden != 1 else ''} are in the "
        "table but not drawn." if hidden > 0 else ""
    )
    return (
        '<div class="card">'
        + "".join(parts)
        + '<p class="note">One row per OS process (pid) in the trace; filled '
        "segments are recorded spans, the percentage is busy time over the "
        f"traced extent.{_esc(hidden_note)}</p>"
        "<details><summary>Data table</summary><table>"
        "<tr><th>lane</th><th class='num'>pid</th><th class='num'>spans</th>"
        "<th class='num'>busy s</th><th class='num'>utilization</th></tr>"
        f"{rows}</table></details></div>"
    )


def _hotspots_section(hotspots: dict | None) -> str:
    if not hotspots:
        return (
            '<div class="card"><p class="note">No hotspot attribution in this '
            "manifest (recorded by runs from this version onward); nothing to "
            "rank.</p></div>"
        )
    parts = ['<div class="card">']
    skew = hotspots.get("skew") or {}
    if skew:
        skew_rows = "".join(
            f"<tr><td>{_esc(class_name)}</td>"
            f"<td class='num'>{entry['blocks']:,}</td>"
            f"<td class='num'>{entry['gini']:.4f}</td>"
            f"<td>{_esc(entry['max_block'])}</td>"
            f"<td class='num'>{entry['max_block_size']:,}</td>"
            f"<td class='num'>{entry['max_pair_share']:.1%}</td>"
            f"<td class='num'>{entry['oversized']:,}</td></tr>"
            for class_name, entry in sorted(skew.items())
        )
        parts.append(
            "<table><tr><th>class</th><th class='num'>blocks</th>"
            "<th class='num'>Gini</th><th>largest block</th>"
            "<th class='num'>refs</th><th class='num'>pair share</th>"
            "<th class='num'>oversized</th></tr>"
            + skew_rows
            + '</table><p class="note">Blocking skew per class: Gini over '
            "block sizes and the largest block's share of all candidate "
            "pairs.</p>"
        )
    block_rows = "".join(
        f"<tr><td><code>{_esc(entry['block'])}</code></td>"
        f"<td class='num'>{entry['candidate_pairs']:,.0f}</td>"
        f"<td class='num'>{entry['max_error']:,.0f}</td></tr>"
        for entry in hotspots.get("top_blocks") or []
    )
    if block_rows:
        parts.append(
            "<table><tr><th>block</th><th class='num'>candidate pairs</th>"
            "<th class='num'>max error</th></tr>" + block_rows + "</table>"
        )
    pair_rows = "".join(
        f"<tr><td>{_esc(entry['pair'])}</td>"
        f"<td class='num'>{entry['seconds']:.4f}</td>"
        f"<td class='num'>{entry['recomputations']:,}</td></tr>"
        for entry in hotspots.get("top_pairs") or []
    )
    if pair_rows:
        parts.append(
            "<table><tr><th>pair</th><th class='num'>seconds</th>"
            "<th class='num'>recomputations</th></tr>"
            + pair_rows
            + '</table><p class="note">Heaviest reference pairs by attributed '
            "recompute wall time (Space-Saving sketch; counts are upper "
            "bounds within the stated error).</p>"
        )
    if len(parts) == 1:
        parts.append(
            '<p class="note">The sketch recorded no blocks or pairs '
            "(empty run).</p>"
        )
    parts.append("</div>")
    return "".join(parts)


def _quality_table(quality: dict) -> str:
    if not quality:
        return '<div class="card"><p class="note">No gold standard — quality table unavailable.</p></div>'
    rows = []
    for class_name in sorted(quality):
        scores = quality[class_name]
        pw, b3 = scores["pairwise"], scores["bcubed"]
        rows.append(
            f"<tr><td>{_esc(class_name)}</td>"
            f"<td class='num'>{pw['precision']:.3f}</td>"
            f"<td class='num'>{pw['recall']:.3f}</td>"
            f"<td class='num'>{pw['f1']:.3f}</td>"
            f"<td class='num'>{b3['precision']:.3f}</td>"
            f"<td class='num'>{b3['recall']:.3f}</td>"
            f"<td class='num'>{b3['f1']:.3f}</td>"
            f"<td class='num'>{scores['partitions']:,}</td></tr>"
        )
    return (
        '<div class="card"><table>'
        "<tr><th>class</th><th class='num'>pair P</th><th class='num'>pair R</th>"
        "<th class='num'>pair F1</th><th class='num'>B³ P</th>"
        "<th class='num'>B³ R</th><th class='num'>B³ F1</th>"
        "<th class='num'>partitions</th></tr>"
        + "".join(rows)
        + "</table></div>"
    )


def _contested_table(decisions) -> str:
    if not decisions:
        return (
            '<div class="card"><p class="note">No provenance log found for this '
            "run — contested-decision table unavailable. Re-run with "
            "<code>--run-dir</code> (provenance is recorded by default) or "
            "<code>--provenance</code>.</p></div>"
        )
    by_pair: dict = {}
    for record in decisions:
        by_pair.setdefault(record.pair, []).append(record)
    contested = []
    for pair, records in by_pair.items():
        final = records[-1]
        margin = abs(final.score - final.threshold)
        contested.append((margin, -len(records), pair, final))
    contested.sort(key=lambda item: (item[0], item[1], item[2]))
    rows = []
    for margin, negative_count, pair, final in contested[:15]:
        channels = ", ".join(
            f"{name}={value:.3f}" for name, value in sorted(final.channels.items())
        )
        rows.append(
            f"<tr><td>{_esc(pair[0])} &harr; {_esc(pair[1])}</td>"
            f"<td>{_esc(final.class_name)}</td>"
            f"<td>{_esc(final.decision)}</td>"
            f"<td class='num'>{final.score:.4f}</td>"
            f"<td class='num'>{final.threshold:.2f}</td>"
            f"<td class='num'>{margin:.4f}</td>"
            f"<td class='num'>{-negative_count}</td>"
            f"<td>{_esc(final.trigger)}</td>"
            f"<td class='num'>{_esc(channels)}</td></tr>"
        )
    return (
        '<div class="card"><table>'
        "<tr><th>pair</th><th>class</th><th>final decision</th>"
        "<th class='num'>score</th><th class='num'>threshold</th>"
        "<th class='num'>margin</th><th class='num'>decisions</th>"
        "<th>trigger</th><th class='num'>channels</th></tr>"
        + "".join(rows)
        + '</table><p class="note">Pairs ranked by how close their final score '
        "sat to the merge threshold (smallest margin first), then by how often "
        "the engine revisited them.</p></div>"
    )


def _tiles(manifest: dict) -> str:
    run = manifest["run"]
    counters = manifest["counters"]
    execution = manifest["execution"]
    partition = manifest["partition"]
    tiles = [
        ("references", f"{run['references']:,}"),
        ("partitions", f"{sum(partition['per_class'].values()):,}"),
        ("merges", f"{counters['merges']:,}"),
        ("non-merges", f"{counters['non_merges']:,}"),
        ("recomputations", f"{counters['recomputations']:,}"),
        ("build", f"{execution['build_seconds']:.2f}s"),
        ("iterate", f"{execution['iterate_seconds']:.2f}s"),
        ("quarantined", f"{run['quarantined']:,}"),
    ]
    rates = execution.get("cache_hit_rates") or {}
    memo = rates.get("pair_memo")
    if memo is not None:
        tiles.append(("pair-memo hits", f"{memo:.1%}"))
    return '<div class="tiles">' + "".join(
        f'<div class="tile"><div class="value">{_esc(value)}</div>'
        f'<div class="label">{_esc(label)}</div></div>'
        for label, value in tiles
    ) + "</div>"


def render_report(
    manifest: dict,
    decisions=None,
    *,
    trace=None,
) -> str:
    """The full HTML document for one run manifest.

    *trace* is an optional parsed Chrome trace object (for the
    worker-lane strip); every section renders an explicit "not
    recorded" placeholder when its artifact is absent rather than
    vanishing.
    """
    run = manifest["run"]
    status = "completed" if run["completed"] else f"degraded ({run.get('stop_reason')})"
    degradations = manifest.get("degradations", [])
    degradation_html = ""
    if degradations:
        items = "".join(
            f"<li><code>{_esc(event.get('kind'))}</code> "
            f"{_esc(event.get('detail', ''))}</li>"
            for event in degradations
        )
        degradation_html = (
            f'<h2>Degradations</h2><div class="card"><ul>{items}</ul></div>'
        )
    subtitle = (
        f"dataset <strong>{_esc(run['dataset'])}</strong> · algorithm "
        f"{_esc(run['algorithm'])} · {status} · partition digest "
        f"<code>{_esc(manifest['partition']['digest'][:19])}…</code>"
    )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>repro run report · {_esc(run['dataset'])}</title>
<style>{_STYLE}</style>
</head>
<body>
<h1>Run report · {_esc(run['dataset'])}</h1>
<p class="subtitle">{subtitle}</p>
{_tiles(manifest)}
<h2>Quality vs gold</h2>
{_quality_table(manifest.get('quality', {}))}
<h2>Convergence</h2>
{_convergence_section(manifest.get('convergence', []))}
<h2>Phase timings</h2>
{_waterfall(manifest['execution'].get('phase_seconds') or {
    'build': manifest['execution']['build_seconds'],
    'iterate': manifest['execution']['iterate_seconds'],
})}
<h2>Worker lanes</h2>
{_lanes_section(trace)}
<h2>Workload hotspots</h2>
{_hotspots_section(manifest['execution'].get('hotspots'))}
<h2>Most-contested merge decisions</h2>
{_contested_table(decisions)}
{degradation_html}
<p class="note">Generated from <code>run.json</code> (manifest v{manifest['manifest_version']}).
Config fingerprint and full counters: <code>{_esc(json.dumps(manifest['counters'], sort_keys=True))}</code></p>
</body>
</html>
"""


def write_report(run_dir: str | Path, output: str | Path | None = None) -> Path:
    """Render ``<run_dir>/run.json`` (+ provenance, when recorded) to a
    single HTML file; returns the output path. Raises
    :class:`~repro.obs.manifest.RunDirError` for a missing or torn
    manifest."""
    from .provenance import ProvenanceLog

    run = load_run_dir(run_dir)
    manifest = run.manifest
    decisions = None
    provenance_path = run.artifact("provenance")
    if provenance_path is not None:
        decisions = ProvenanceLog.from_jsonl(provenance_path).records
    trace = None
    trace_path = run.artifact("trace")
    if trace_path is not None:
        trace = json.loads(trace_path.read_text())
    output = Path(output) if output is not None else run.path / "report.html"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(render_report(manifest, decisions, trace=trace))
    return output
