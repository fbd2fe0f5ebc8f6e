"""SVG rendering of instances and matchings (presentation only)."""
from __future__ import annotations

import xml.etree.ElementTree as ET
from fractions import Fraction

from rectmatch.geometry import Color, PointSet, rect_from_pair
from rectmatch.matching import Matching

_FILL = {Color.RED: "#c0392b", Color.BLUE: "#2962a8"}
_MIXED = "#7d3c98"
_WIDTH = 640


def render_svg(s: PointSet, matching: Matching | None = None) -> str:
    """An SVG drawing of the points (red/blue dots) and, optionally, the
    rectangles of a matching, stroked in the color of their two defining
    points, or purple when the colors differ.  The y axis is flipped into
    screen coordinates.  A pad surrounds the points on every side, and no
    dot's radius exceeds it, so every dot lies on the canvas."""
    if len(s) == 0:
        xmin = ymin = Fraction(0)
        xmax = ymax = Fraction(1)
    else:
        xmin = min(p.x for p in s)
        xmax = max(p.x for p in s)
        ymin = min(p.y for p in s)
        ymax = max(p.y for p in s)
    span = max(xmax - xmin, ymax - ymin, Fraction(1))
    pad = span / 20
    scale = Fraction(_WIDTH) / (span + 2 * pad)

    def sx(x) -> float:
        return float((x - xmin + pad) * scale)

    def sy(y) -> float:
        # screen y grows downward
        return float((ymax - y + pad) * scale)

    height = float((ymax - ymin + 2 * pad) * scale)
    root = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width=str(_WIDTH),
        height=f"{height:.2f}",
        viewBox=f"0 0 {_WIDTH} {height:.2f}",
    )
    root.append(ET.Comment(" y axis flipped: screen_y = (ymax - y + pad) * scale "))
    if matching is not None:
        for i, j in matching.pairs:
            r = rect_from_pair(s, i, j)
            p, q = s[r.a], s[r.b]
            x1, x2 = min(p.x, q.x), max(p.x, q.x)
            y1, y2 = min(p.y, q.y), max(p.y, q.y)
            stroke = _FILL[p.color] if p.color is q.color else _MIXED
            ET.SubElement(
                root, "rect",
                x=f"{sx(x1):.2f}", y=f"{sy(y2):.2f}",
                width=f"{max(sx(x2) - sx(x1), 1.0):.2f}",
                height=f"{max(sy(y1) - sy(y2), 1.0):.2f}",
                fill="none", stroke=stroke, **{"stroke-width": "1.5"},
            )
    radius = min(max(2.0, float(scale) * 0.18), float(pad * scale))
    for p in s:
        ET.SubElement(
            root, "circle",
            cx=f"{sx(p.x):.2f}", cy=f"{sy(p.y):.2f}",
            r=f"{radius:.2f}", fill=_FILL[p.color],
        )
    return ET.tostring(root, encoding="unicode") + "\n"
