"""Planar geometry for two-colored point sets.

Points carry exact `fractions.Fraction` coordinates, so input, output and
`perturb` never round.  Every predicate on rectangles compares coordinates
by order only, so inside the solver a rectangle is a box of integer ranks:
each `PointSet` ranks its x and y coordinates once, and a `Rect`'s bounds
are the ranks of its two defining points' coordinates.  Rectangles are
*closed* boxes, so a point on the boundary counts as contained.
`intersection_kinds` classifies a whole family with an x-sweep that visits
only the pairs whose projections overlap; `classify_intersection` runs the
same rule on one pair.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

Coord = Fraction


class Color(Enum):
    RED = "R"
    BLUE = "B"


class RectKind(Enum):
    SEGMENT = "segment"
    BOX = "box"


class IntersectionKind(Enum):
    DISJOINT = "disjoint"
    PIERCING = "piercing"
    CORNER = "corner"
    POINT = "point"
    SIDE = "side"


@dataclass(frozen=True)
class ColoredPoint:
    x: Coord
    y: Coord
    color: Color

    def pos(self) -> tuple[Coord, Coord]:
        return (self.x, self.y)


def point(x, y, color: Color | str) -> ColoredPoint:
    if isinstance(color, str):
        color = Color(color)
    return ColoredPoint(Fraction(x), Fraction(y), color)


@dataclass(frozen=True)
class PointSet:
    """An ordered list of distinct colored points; indices are stable identities."""

    points: tuple[ColoredPoint, ...]

    def __post_init__(self):
        # Keyed like `_dense_ranks`, by the terms of each coordinate in
        # lowest terms, so that no `Fraction` is hashed.
        seen = set()
        for p in self.points:
            x, y = p.x, p.y
            key = (x.numerator, x.denominator, y.numerator, y.denominator)
            if key in seen:
                raise ValueError(f"duplicate point at ({p.x}, {p.y})")
            seen.add(key)

    @classmethod
    def from_tuples(cls, triples: Iterable[tuple]) -> "PointSet":
        """Build from (x, y, color) triples; color may be a Color or 'R'/'B'."""
        return cls(tuple(point(x, y, c) for x, y, c in triples))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[ColoredPoint]:
        return iter(self.points)

    def __getitem__(self, i: int) -> ColoredPoint:
        return self.points[i]

    @cached_property
    def _ranks(self) -> tuple[list[int], list[int]]:
        """Per point index, the dense rank of its x and of its y coordinate."""
        return (_dense_ranks([p.x for p in self.points]),
                _dense_ranks([p.y for p in self.points]))

    @cached_property
    def _rank_grid(self) -> "_Grid":
        return _Grid(*self._ranks)

    def count(self, color: Color) -> int:
        return sum(1 for p in self.points if p.color is color)


def _dense_ranks(values: list[Coord]) -> list[int]:
    """The rank of each value among the distinct values.

    Each value is keyed by `(numerator, denominator)`, which `Fraction`
    keeps in lowest terms with a positive denominator, so equal values get
    equal keys without `Fraction.__hash__`; only the distinct keys are
    sorted by value.  When they share one denominator, as integers do, the
    keys' own order is the value order, and the sort compares no
    `Fraction`s."""
    keys = [(v.numerator, v.denominator) for v in values]
    value = dict(zip(keys, values))
    if len({den for _, den in value}) == 1:
        distinct = sorted(value)
    else:
        distinct = sorted(value, key=value.__getitem__)
    rank = {k: r for r, k in enumerate(distinct)}
    return [rank[k] for k in keys]


class Rect(NamedTuple):
    """The closed minimum enclosing axis-aligned rectangle of points a and b
    of a point set.  Its bounds are integer ranks of the set's coordinates
    (`PointSet._ranks`); the exact coordinates are those of `s[a]` and
    `s[b]`."""

    xmin: int
    xmax: int
    ymin: int
    ymax: int
    a: int
    b: int

    @property
    def key(self) -> tuple[int, int]:
        """Canonical defining-index pair."""
        return (self.a, self.b) if self.a < self.b else (self.b, self.a)

    @property
    def kind(self) -> RectKind:
        """A segment iff the box has zero width or zero height."""
        flat = self.xmin == self.xmax or self.ymin == self.ymax
        return RectKind.SEGMENT if flat else RectKind.BOX


def _rect(xr: list[int], yr: list[int], i: int, j: int) -> Rect:
    """The rectangle spanned by points i and j, given the x and y ranks of
    their point set (`PointSet._ranks`)."""
    xa, xb, ya, yb = xr[i], xr[j], yr[i], yr[j]
    return Rect(
        xa if xa < xb else xb, xb if xa < xb else xa,
        ya if ya < yb else yb, yb if ya < yb else ya,
        i, j,
    )


def rect_from_pair(s: PointSet, i: int, j: int) -> Rect:
    """The rectangle spanned by points i and j of s."""
    if i == j:
        raise ValueError("a rectangle needs two distinct defining points")
    if not (0 <= i < len(s) and 0 <= j < len(s)):
        raise ValueError(f"point index out of range: ({i}, {j})")
    return _rect(*s._ranks, i, j)


class _Grid:
    """The points of a set by column and by row, for queries on closed
    boxes of zero width or zero height."""

    def __init__(self, xs: Sequence, ys: Sequence):
        self.columns: dict = defaultdict(list)
        self.rows: dict = defaultdict(list)
        for x, y in zip(xs, ys):
            self.columns[x].append(y)
            self.rows[y].append(x)
        for line in (*self.columns.values(), *self.rows.values()):
            line.sort()

    def occupied(self, x1, x2, y1, y2) -> bool:
        """True iff a point lies in [x1, x2] x [y1, y2], where x1 == x2 or
        y1 == y2."""
        if x1 == x2:
            line, lo, hi = self.columns.get(x1), y1, y2
        else:
            line, lo, hi = self.rows.get(y1), x1, x2
        if not line:
            return False
        k = bisect_left(line, lo)
        return k < len(line) and line[k] <= hi


def pierces(r1, r2) -> bool:
    """True iff r2 pierces r1: r1's x-projection contains r2's, and r2's
    y-projection contains r1's.  Containment is non-strict, so equal
    projections qualify.  Works on any boxes with `xmin`, `xmax`, `ymin`
    and `ymax` in one ordered coordinate system."""
    return (
        r1.xmin <= r2.xmin
        and r2.xmax <= r1.xmax
        and r2.ymin <= r1.ymin
        and r1.ymax <= r2.ymax
    )


def _strict_corners(r1, r2) -> list:
    """The distinct corners of r2 strictly inside r1."""
    corners = {
        (r2.xmin, r2.ymin),
        (r2.xmin, r2.ymax),
        (r2.xmax, r2.ymin),
        (r2.xmax, r2.ymax),
    }
    return [
        (x, y) for x, y in corners
        if r1.xmin < x < r1.xmax and r1.ymin < y < r1.ymax
    ]


def _meet(r1, r2, grid: _Grid) -> IntersectionKind:
    """The classification rule of `classify_intersection`, on two boxes in
    any ordered coordinates and the grid of the point set in the same
    coordinates.  The boxes are read by position, as (xmin, xmax, ymin,
    ymax, ...), and the piercing test is `pierces` both ways, inlined."""
    ax1, ax2, ay1, ay2 = r1[0], r1[1], r1[2], r1[3]
    bx1, bx2, by1, by2 = r2[0], r2[1], r2[2], r2[3]
    lox = ax1 if ax1 > bx1 else bx1
    hix = ax2 if ax2 < bx2 else bx2
    if lox > hix:
        return IntersectionKind.DISJOINT
    loy = ay1 if ay1 > by1 else by1
    hiy = ay2 if ay2 < by2 else by2
    if loy > hiy:
        return IntersectionKind.DISJOINT
    if (ax1 <= bx1 and bx2 <= ax2 and by1 <= ay1 and ay2 <= by2) or (
            bx1 <= ax1 and ax2 <= bx2 and ay1 <= by1 and by2 <= ay2):
        return IntersectionKind.PIERCING
    if lox == hix or loy == hiy:
        # Zero-area overlap: a point or a boundary segment.
        if not grid.occupied(lox, hix, loy, hiy):
            return IntersectionKind.DISJOINT
        if lox == hix and loy == hiy:
            return IntersectionKind.POINT
        return IntersectionKind.SIDE
    in_1 = _strict_corners(r1, r2)
    in_2 = _strict_corners(r2, r1)
    if len(in_1) == 1 and len(in_2) == 1:
        (x1, y1), (x2, y2) = in_1[0], in_2[0]
        if not grid.occupied(x1, x1, y1, y1) and not grid.occupied(x2, x2, y2, y2):
            return IntersectionKind.CORNER
    return IntersectionKind.SIDE


def classify_intersection(s: PointSet, r1: Rect, r2: Rect) -> IntersectionKind:
    """Total, symmetric classification of how two closed rectangles of s
    meet, decided on their rank boxes and the rank grid of s.

    Order of checks: disjoint, piercing (by projection containment, either
    direction), point (the overlap is a single point that belongs to s),
    corner (each rectangle has exactly one corner of the other strictly
    inside it, neither corner a point of s), and side for everything else.

    Two boundary conventions matter downstream and are fixed here.  First,
    piercing is decided before the degenerate-overlap cases: two rectangles
    that cross, or degenerate ones sharing a defining point while one's
    projections contain the other's, behave for every algorithm in this
    package like a piercing pair.  Second, a bare boundary touch - an
    overlap of zero area containing no point of s and with no projection
    containment - counts as disjoint: such rectangles can coexist in a
    strong matching, and treating the touch as a conflict would break the
    exactness of the per-corner candidate families on inputs with repeated
    coordinates.
    """
    return _meet(r1, r2, s._rank_grid)


def intersection_kinds(
    s: PointSet, rects: Sequence[Rect]
) -> dict[tuple[int, int], IntersectionKind]:
    """`classify_intersection` of every intersecting pair (u, v), u < v, of
    rectangles of s, keys in sorted order; a pair that is absent is disjoint.
    Only the pairs that `_overlapping` reports are classified."""
    grid = s._rank_grid
    DISJOINT = IntersectionKind.DISJOINT
    found = []
    for u, v in _overlapping(rects):
        kind = _meet(rects[u], rects[v], grid)
        if kind is not DISJOINT:
            found.append(((u, v) if u < v else (v, u), kind))
    found.sort(key=itemgetter(0))
    return dict(found)


def _overlapping(rects: Sequence[Rect]) -> Iterator[tuple[int, int]]:
    """The index pairs of the boxes of `rects` whose x and y projections both
    overlap, each pair once and in no set order: the only pairs that `_meet`
    can find to meet.

    A sweep in order of `xmin` pairs each box with the later ones up to the
    first that starts right of its `xmax`, and skips those whose y-ranges
    are disjoint.
    """
    order = sorted(range(len(rects)), key=lambda u: rects[u][0])
    starts = [rects[u][0] for u in order]
    for pos, u in enumerate(order):
        _, xmax, ymin, ymax, _, _ = rects[u]
        for v in order[pos + 1:bisect_right(starts, xmax, pos + 1)]:
            rv = rects[v]
            if rv[2] <= ymax and rv[3] >= ymin:
                yield u, v


def empty_pairs(s: PointSet) -> list[tuple[int, int]]:
    """All index pairs {i, j} whose rectangle contains no third point of s.

    Directional sweep on coordinate ranks: points are scanned in (x, y)
    order and, for each anchor, later points are admitted while they beat
    the lowest blocker seen above the anchor line (resp. highest below).
    The output is that of the quadratic pair filter.  The scan of an anchor
    stops early only at a point level with it; otherwise it runs to the
    last point, so the cost stays quadratic: on the 17 calls of one
    `reduction` benchmark round it takes 2.69M steps for 86.9k pairs.  An
    exit once the blockers sit on the rows next to the anchor's
    (`min_up == py + 1 and max_down == py - 1`) was tried there and made
    no measurable difference.
    """
    xr, yr = s._ranks
    order = sorted(range(len(s)), key=lambda k: (xr[k], yr[k]))
    out: list[tuple[int, int]] = []
    n = len(order)
    for pos in range(n):
        i = order[pos]
        py = yr[i]
        min_up: int | None = None
        max_down: int | None = None
        if pos > 0:
            k = order[pos - 1]
            # The nearest same-column point below the anchor precedes it in
            # the sort order yet blocks every box hanging below the anchor.
            if xr[k] == xr[i]:
                max_down = yr[k]
        for pos2 in range(pos + 1, n):
            j = order[pos2]
            qy = yr[j]
            if qy >= py:
                if min_up is None or qy < min_up:
                    out.append((i, j) if i < j else (j, i))
                    min_up = qy
                    if qy == py:
                        # A point level with the anchor blocks both sides.
                        break
            else:
                if max_down is None or qy > max_down:
                    # A point in q's own column between q and the anchor line
                    # sorts after q; its column successor is the lowest such.
                    blocked = False
                    if pos2 + 1 < n:
                        k = order[pos2 + 1]
                        if xr[k] == xr[j] and yr[k] <= py:
                            blocked = True
                    if not blocked:
                        out.append((i, j) if i < j else (j, i))
                    max_down = qy
    out.sort()
    return out


def _color_pairs(s: PointSet, same: bool) -> list[tuple[int, int]]:
    """The empty pairs of s whose two points have the same color (`same`)
    or different colors."""
    return [
        (i, j) for i, j in empty_pairs(s)
        if (s[i].color is s[j].color) == same
    ]


def candidate_monochromatic(s: PointSet) -> list[Rect]:
    """All empty rectangles over same-colored pairs of s."""
    xr, yr = s._ranks
    return [_rect(xr, yr, i, j) for i, j in _color_pairs(s, True)]


def candidate_bichromatic(s: PointSet) -> list[Rect]:
    """All empty rectangles over differently-colored pairs of s."""
    xr, yr = s._ranks
    return [_rect(xr, yr, i, j) for i, j in _color_pairs(s, False)]


def perturb(s: PointSet, n: int) -> PointSet:
    """Shear an integer point set in [0..n]^2 into general position.

    Each point (x, y) moves to (x + (x+y)/(2n+1), y + (x+y)/(2n+1)).  The
    shift is below 1, preserves colors and indices, and makes all x and all
    y coordinates pairwise distinct.
    """
    d = 2 * n + 1
    moved = []
    for p in s:
        if p.x.denominator != 1 or p.y.denominator != 1:
            raise ValueError(f"perturb needs integer coordinates, got ({p.x}, {p.y})")
        if not (0 <= p.x <= n and 0 <= p.y <= n):
            raise ValueError(f"point ({p.x}, {p.y}) outside [0..{n}]^2")
        shift = Fraction(int(p.x) + int(p.y), d)
        moved.append(ColoredPoint(p.x + shift, p.y + shift, p.color))
    return PointSet(tuple(moved))


def is_general_position(s: PointSet) -> bool:
    """True iff all x coordinates are distinct and all y coordinates are distinct."""
    xs = {p.x for p in s}
    ys = {p.y for p in s}
    return len(xs) == len(s) and len(ys) == len(s)


# ---------------------------------------------------------------------------
# Point file format: one `x y color` per line, rationals written num/den,
# '#' starts a comment.  Round-trips bit-exactly.

def dump_points(s: PointSet) -> str:
    lines = [f"{p.x} {p.y} {p.color.value}" for p in s]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_points(text: str) -> PointSet:
    pts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'x y color', got {raw!r}")
        x, y, c = parts
        if c not in ("R", "B"):
            raise ValueError(f"line {lineno}: color must be R or B, got {c!r}")
        try:
            x, y = Fraction(x), Fraction(y)
        except (ValueError, ZeroDivisionError):
            raise ValueError(
                f"line {lineno}: coordinates must be integers or num/den "
                f"with den != 0, got {raw!r}"
            ) from None
        pts.append(point(x, y, c))
    return PointSet(tuple(pts))


def _json_field(obj, key: str, kind: type, where: str):
    """`obj[key]` of a parsed JSON document, checked to be a `kind`.  A
    missing key or a value of another shape raises a one-line ValueError
    that names the field, with `where` naming `obj`."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{where} is missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        raise ValueError(f"{where} key {key!r} must be a {kind.__name__}, "
                         f"got {type(value).__name__}")
    return value


def load_points(path) -> PointSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_points(fh.read())


def save_points(s: PointSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_points(s))
