"""Deterministic SVG scatter plots of fronts in criterion space.

Fixed 800x600 canvas, linear axes auto-scaled to the data with a 5% margin,
one marker shape per method. No timestamps or generated ids, so byte-identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import html
import math

from .pareto import Front

WIDTH, HEIGHT = 800, 600
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 90, 30, 40, 60
X_LABEL, Y_LABEL = "Ra (um)", "MRR (mm^3/min)"

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_MARKERS = ("circle", "square", "triangle", "diamond", "cross")


def _nice_step(span: float) -> float:
    raw = span / 5.0
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0):
        if raw <= mult * power:
            return mult * power
    return 10.0 * power


def _ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    ticks = []
    value = math.ceil(lo / step) * step
    while value <= hi + step * 1e-9:
        ticks.append(0.0 if abs(value) < step * 1e-9 else value)
        value += step
    return ticks


def _axis(values: list[float]) -> tuple[float, float, list[float]]:
    """(lo, hi, ticks) of an axis over ``values``: their range with a 5% margin,
    ticked at a 1-2-5 step. Where floats cannot hold that axis, because its span
    passes the largest float or is too few units in the last place to step
    through, it is the bare range of ``values``, ticked at its ends."""
    lo, hi = min(values), max(values)
    pad = max(0.5, abs(lo) * 0.05) if hi == lo else (hi - lo) * 0.05
    a, b = lo - pad, hi + pad
    if math.isfinite(b - a) and b - a > 2.0 ** 20 * math.ulp(max(abs(a), abs(b))):
        return a, b, _ticks(a, b)
    return lo, hi, sorted({lo, hi})


def _labels(ticks: list[float]) -> list[str]:
    """Tick labels at 6 significant digits, or at the fewest more that tell the
    ticks apart; 17 digits tell any two floats apart."""
    for digits in range(6, 18):
        labels = [f"{tick:.{digits}g}" for tick in ticks]
        if len(set(labels)) == len(labels):
            break
    return labels


def _fraction(v: float, lo: float, hi: float) -> float:
    """Where ``v`` lies on [lo, hi], from 0 to 1. A span past the largest float is
    taken a quarter at a time."""
    if hi == lo:
        return 0.5
    if math.isinf(hi - lo):
        return (v / 4.0 - lo / 4.0) / (hi / 4.0 - lo / 4.0)
    return (v - lo) / (hi - lo)


def _marker(shape: str, cx: float, cy: float, color: str) -> str:
    r = 5.0
    if shape == "circle":
        return f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:.1f}" fill="{color}"/>'
    if shape == "square":
        return (
            f'<rect x="{cx - r:.2f}" y="{cy - r:.2f}" width="{2 * r:.1f}" '
            f'height="{2 * r:.1f}" fill="{color}"/>'
        )
    if shape == "triangle":
        pts = f"{cx:.2f},{cy - r:.2f} {cx - r:.2f},{cy + r:.2f} {cx + r:.2f},{cy + r:.2f}"
        return f'<polygon points="{pts}" fill="{color}"/>'
    if shape == "diamond":
        pts = f"{cx:.2f},{cy - r:.2f} {cx + r:.2f},{cy:.2f} {cx:.2f},{cy + r:.2f} {cx - r:.2f},{cy:.2f}"
        return f'<polygon points="{pts}" fill="{color}"/>'
    return (
        f'<path d="M {cx - r:.2f} {cy - r:.2f} L {cx + r:.2f} {cy + r:.2f} '
        f'M {cx - r:.2f} {cy + r:.2f} L {cx + r:.2f} {cy - r:.2f}" '
        f'stroke="{color}" stroke-width="2.5" fill="none"/>'
    )


def front_svg(front: Front, title: str = "") -> str:
    """Render every point of ``front`` as an SVG scatter, grouped by method."""
    points = front.points
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{html.escape(title)}</text>'
        )
    if points:
        x_lo, x_hi, x_ticks = _axis([p.responses[0] for p in points])
        y_lo, y_hi, y_ticks = _axis([p.responses[1] for p in points])

        def sx(v: float) -> float:
            return MARGIN_LEFT + _fraction(v, x_lo, x_hi) * plot_w

        def sy(v: float) -> float:
            return HEIGHT - MARGIN_BOTTOM - _fraction(v, y_lo, y_hi) * plot_h

        for tick, label in zip(x_ticks, _labels(x_ticks)):
            px = sx(tick)
            parts.append(
                f'<line x1="{px:.2f}" y1="{HEIGHT - MARGIN_BOTTOM}" x2="{px:.2f}" '
                f'y2="{HEIGHT - MARGIN_BOTTOM + 6}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{px:.2f}" y="{HEIGHT - MARGIN_BOTTOM + 22}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="12">{label}</text>'
            )
        for tick, label in zip(y_ticks, _labels(y_ticks)):
            py = sy(tick)
            parts.append(
                f'<line x1="{MARGIN_LEFT - 6}" y1="{py:.2f}" x2="{MARGIN_LEFT}" '
                f'y2="{py:.2f}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{MARGIN_LEFT - 10}" y="{py + 4:.2f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="12">{label}</text>'
            )

        methods: list[str] = []
        for p in points:
            if p.method not in methods:
                methods.append(p.method)
        style = {
            m: (_PALETTE[i % len(_PALETTE)], _MARKERS[i % len(_MARKERS)])
            for i, m in enumerate(methods)
        }
        for p in points:
            color, shape = style[p.method]
            parts.append(_marker(shape, sx(p.responses[0]), sy(p.responses[1]), color))
        for i, m in enumerate(methods):
            color, shape = style[m]
            ly = MARGIN_TOP + 14 + 20 * i
            lx = WIDTH - MARGIN_RIGHT - 170
            parts.append(_marker(shape, lx, ly - 4, color))
            parts.append(f'<text x="{lx + 12}" y="{ly}" font-family="sans-serif" '
                         f'font-size="12">{html.escape(m)}</text>')

    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{HEIGHT - MARGIN_BOTTOM}" x2="{WIDTH - MARGIN_RIGHT}" '
        f'y2="{HEIGHT - MARGIN_BOTTOM}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{HEIGHT - MARGIN_BOTTOM}" stroke="black"/>'
    )
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.0f}" y="{HEIGHT - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{X_LABEL}</text>'
    )
    parts.append(
        f'<text x="20" y="{MARGIN_TOP + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 20 {MARGIN_TOP + plot_h / 2:.0f})">{Y_LABEL}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
