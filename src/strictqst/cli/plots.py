"""Self-contained SVG rendering, a pure function of the tabulated data.

No plotting library: a handful of polylines, tick marks, and text labels
are enough for the infidelity curves, the robustness scaling line, and the
onset table.
"""

from __future__ import annotations

import math

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _log_ticks(lo: float, hi: float) -> list[float]:
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0**e for e in range(lo_e, hi_e + 1)]


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    e = math.log10(abs(v))
    if abs(e - round(e)) < 1e-9:
        return f"1e{int(round(e))}"
    return f"{v:g}"


def line_plot(
    series: dict[str, list[tuple[float, float]]],
    x_label: str,
    y_label: str,
    title: str = "",
    log_x: bool = False,
) -> str:
    """Render named (x, y) series as an SVG line chart on a logarithmic y
    axis (and x axis with log_x).

    Nonpositive values on a logarithmic axis are clipped to the smallest
    positive value present.
    """
    pts = [p for s in series.values() for p in s]
    if not pts:
        raise ValueError("nothing to plot")
    floor_x = min((x for x, _ in pts if x > 0), default=1.0)
    floor_y = min((y for _, y in pts if y > 0), default=1.0)
    xs = [max(x, floor_x) if log_x else x for x, _ in pts]
    ys = [max(y, floor_y) for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_lo == x_hi:
        x_hi = x_lo + 1
    if y_lo == y_hi:
        y_hi = y_lo * 10

    def sx(x):
        x = max(x, floor_x) if log_x else x
        if log_x:
            t = (math.log10(x) - math.log10(x_lo)) / (math.log10(x_hi) - math.log10(x_lo))
        else:
            t = (x - x_lo) / (x_hi - x_lo)
        return _ML + t * (_W - _ML - _MR)

    def sy(y):
        y = max(y, floor_y)
        t = (math.log10(y) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo))
        return _H - _MB - t * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="18" text-anchor="middle" font-size="14">{title}</text>',
    ]
    # axes
    parts.append(
        f'<path d="M {_ML} {_MT} V {_H - _MB} H {_W - _MR}" fill="none" stroke="black"/>'
    )
    x_ticks = _log_ticks(x_lo, x_hi) if log_x else sorted({round(x) for x in xs})
    for xt in x_ticks:
        if not (x_lo <= xt <= x_hi or log_x):
            continue
        px = sx(xt)
        parts.append(f'<line x1="{px:.1f}" y1="{_H - _MB}" x2="{px:.1f}" y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{_H - _MB + 18}" text-anchor="middle">{_fmt(float(xt))}</text>')
    for yt in _log_ticks(y_lo, y_hi):
        if not (y_lo / 1.001 <= yt <= y_hi * 1.001):
            continue
        py = sy(yt)
        parts.append(f'<line x1="{_ML - 5}" y1="{py:.1f}" x2="{_ML}" y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py + 4:.1f}" text-anchor="end">{_fmt(yt)}</text>')
        parts.append(
            f'<line x1="{_ML}" y1="{py:.1f}" x2="{_W - _MR}" y2="{py:.1f}" stroke="#dddddd" stroke-width="0.5"/>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 12}" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2})">{y_label}</text>'
    )
    # series
    for i, (name, data) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in sorted(data))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in data:
            parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="2.5" fill="{color}"/>')
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_W - 170}" y1="{ly - 4}" x2="{_W - 146}" y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_W - 140}" y="{ly}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def onset_table_svg(rows: list[dict]) -> str:
    """Render onset-sweep cells as a small SVG table."""
    header = ["dim", "rank", "basis_type", "onset", "n_states"]
    cell_w, cell_h = 90, 24
    width = cell_w * len(header) + 40
    height = cell_h * (len(rows) + 1) + 60
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">Strict-completeness onset</text>',
    ]
    for j, name in enumerate(header):
        parts.append(
            f'<text x="{40 + j * cell_w + cell_w / 2}" y="{48}" text-anchor="middle" '
            f'font-weight="bold">{name}</text>'
        )
    for i, row in enumerate(rows):
        y = 48 + (i + 1) * cell_h
        for j, name in enumerate(header):
            val = row.get(name)
            parts.append(
                f'<text x="{40 + j * cell_w + cell_w / 2}" y="{y}" text-anchor="middle">'
                f'{"-" if val is None else val}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
