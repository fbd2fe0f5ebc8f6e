"""Planar geometry for two-colored point sets.

Points carry exact `fractions.Fraction` coordinates, so input, output and
`perturb` never round.  Every predicate on rectangles compares coordinates
by order only, so inside the solver a rectangle is a box of integer ranks:
each `PointSet` ranks its x and y coordinates once, and a `Rect`'s bounds
are the ranks of its two defining points' coordinates.  Rectangles are
*closed* boxes, so a point on the boundary counts as contained.
Which boxes of a family overlap, pierce one another or meet at a corner is
read off bitmasks of its members: one prefix mask per rank over each of
the four bounds, the boxes whose bound is below that rank, and their
complements (`_bound_masks`, `_dominance`).  `_dominance` also states
the rule by which two empty rectangles meet, the one rule by which the
exact oracle decides conflicts.  `_meet` names the kind of any meeting,
with the point grid: `classify_intersection` runs it on one pair,
`intersection_kinds` on the pairs that the masks report to overlap.
The candidate rectangles are those of the empty pairs, the pairs of points
whose box holds no third point.  `empty_pairs` finds them in one sweep over
the points in (x, y) order, which jumps to each next point through a
min-segment tree over the y ranks, in O((n + k) log n) for k pairs; it
tries the next few points one by one before it asks the tree (`_PROBE`).
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, groupby
from operator import itemgetter, or_
from typing import Iterable, Iterator, NamedTuple, Sequence

Coord = Fraction


class Color(Enum):
    RED = "R"
    BLUE = "B"


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

    Each value is keyed by `as_integer_ratio()`, its numerator and
    denominator in lowest terms with a positive denominator, so equal
    values get equal keys without `Fraction.__hash__`; only the distinct
    keys are sorted by value, and no `Fraction` is compared.  When they
    share one denominator, as integers do, the keys' own order is the
    value order.  Otherwise they are sorted by the float `num / den`:
    `int / int` rounds correctly, and rounding never reverses two values,
    so only a run of keys with equal floats needs an exact sort.  A
    quotient beyond the float range raises `OverflowError`, and then the
    whole sort is exact."""
    keys = [v.as_integer_ratio() for v in values]
    distinct = set(keys)
    if len({den for _, den in distinct}) == 1:
        order = sorted(distinct)
    else:
        try:
            quotient = {k: k[0] / k[1] for k in distinct}
        except OverflowError:
            order = sorted(distinct, key=_exact)
        else:
            order = sorted(quotient, key=quotient.__getitem__)
            if len(set(quotient.values())) < len(quotient):
                order = [k for _, run in groupby(order, quotient.__getitem__)
                         for k in sorted(run, key=_exact)]
    rank = {k: r for r, k in enumerate(order)}
    return [rank[k] for k in keys]


def _exact(key: tuple[int, int]) -> Fraction:
    return Fraction(*key)


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


def _rect(xr: list[int], yr: list[int], i: int, j: int) -> Rect:
    """The rectangle spanned by points i and j, given the x and y ranks of
    their point set (`PointSet._ranks`)."""
    xa, xb, ya, yb = xr[i], xr[j], yr[i], yr[j]
    # The tuple that `Rect.__new__` builds, without its Python-level call.
    return tuple.__new__(Rect, (
        xa if xa < xb else xb, xb if xa < xb else xa,
        ya if ya < yb else yb, yb if ya < yb else ya,
        i, j,
    ))


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
            line, lo, hi = self.columns.get(x1, ()), y1, y2
        else:
            line, lo, hi = self.rows.get(y1, ()), x1, x2
        k = bisect_left(line, lo)
        return k < len(line) and line[k] <= hi


def _meet(r1, r2, grid: _Grid) -> IntersectionKind:
    """The classification rule of `classify_intersection`, on two boxes in
    any ordered coordinates and the grid of the point set in the same
    coordinates.  The boxes are read by position, as (xmin, xmax, ymin,
    ymax, ...).  Box 2 pierces box 1 when box 1's x-projection contains
    box 2's and box 2's y-projection contains box 1's, containment
    non-strict; the piercing test runs it both ways.  A positive-area
    overlap is a corner meeting when no projection of one box contains the
    other's and neither inner corner (the corner of each box strictly
    inside the other) is a point of the set, else a side meeting."""
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
    if (ax1 != bx1 and ax2 != bx2 and (ax1 < bx1) == (ax2 < bx2)
            and ay1 != by1 and ay2 != by2 and (ay1 < by1) == (ay2 < by2)):
        # The inner corners are the overlap's lower left and upper right
        # when one box starts before the other in both x and y, else its
        # upper left and lower right.
        y1, y2 = (loy, hiy) if (ax1 < bx1) == (ay1 < by1) else (hiy, loy)
        if not grid.occupied(lox, lox, y1, y1) and not grid.occupied(hix, hix, y2, y2):
            return IntersectionKind.CORNER
    return IntersectionKind.SIDE


def classify_intersection(s: PointSet, r1: Rect, r2: Rect) -> IntersectionKind:
    """Total, symmetric classification of how two closed rectangles of s
    meet, decided on their rank boxes and the rank grid of s.

    Order of checks: disjoint, piercing (by projection containment, either
    direction), point (the overlap is a single point that belongs to s),
    corner (no projection contains the other's, so each rectangle has one
    corner of the other strictly inside it, neither a point of s), and
    side for everything else.

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
    rectangles of s, keys in sorted order; a pair that is absent is
    disjoint.  `_meet` classifies each pair whose boxes overlap, piercing
    pairs included: the boxes whose projections both overlap u's are read
    off four masks of `_bound_masks`, as in `_dominance`."""
    grid = s._rank_grid
    DISJOINT = IntersectionKind.DISJOINT
    out = {}
    x1lt, x2lt, y1lt, y2lt = _bound_masks(rects)
    for u, ru in enumerate(rects):
        x1, x2, y1, y2, _, _ = ru
        overlap = x1lt[x2 + 1] & y1lt[y2 + 1] & ~(x2lt[x1] | y2lt[y1])
        for k in _bits(overlap >> (u + 1)):
            v = u + 1 + k
            kind = _meet(ru, rects[v], grid)
            if kind is not DISJOINT:
                out[(u, v)] = kind
    return out


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of `mask`, in ascending order."""
    digits = bin(mask)[:1:-1]
    k = digits.find("1")
    while k >= 0:
        yield k
        k = digits.find("1", k + 1)


def _bound_masks(rects: Sequence[Rect]) -> list[list[int]]:
    """For each bound of the rank boxes `rects`, in the order xmin, xmax,
    ymin, ymax: per rank r up to one past the largest bound, the bitmask of
    the boxes whose bound is below r.  So the boxes whose bound is at most
    r are entry r + 1, and those whose bound is at least r are the
    complement of entry r."""
    size = 1 + max(max(map(itemgetter(b), rects), default=-1) for b in (1, 3))
    buckets = [[0] * size for _ in range(4)]
    x1s, x2s, y1s, y2s = buckets
    bit = 1
    for x1, x2, y1, y2, _, _ in rects:
        x1s[x1] |= bit
        x2s[x2] |= bit
        y1s[y1] |= bit
        y2s[y2] |= bit
        bit <<= 1
    return [list(accumulate(b, or_, initial=0)) for b in buckets]


def _dominance(rects: Sequence[Rect]) -> Iterator[tuple[int, int, int, int]]:
    """Per rank box u of `rects` in order: u, the bitmask of the boxes that
    pierce u, that of the boxes that u pierces (both hold u itself), and
    that of the boxes that meet u at a corner.

    Piercing is coordinate-wise `<=` on the rank tuple (xmin, -xmax, -ymin,
    ymax), so each mask is two masks of `_bound_masks`, for the two bounds
    that must be at most u's, less two more, for the two that must be at
    least u's.  Two boxes pierce one another exactly when they are
    equal.  The corner mask is the boxes that overlap u with positive area,
    read at the ranks next to u's bounds, less the comparable ones and the
    boxes of zero width or height.

    The rule of empty rectangles, by which the exact oracle decides every
    conflict: two empty rectangles meet (`_meet` does not call them
    DISJOINT) exactly when they share a defining point, are comparable, or
    overlap with positive area.  It holds because a point of the set on
    the closed box of an empty rectangle is one of its defining points: a
    point in a zero-area overlap defines both boxes, and two boxes that
    overlap with positive area and are not comparable each hold one corner
    of the other strictly inside, with no point there, which `_meet` calls
    CORNER and the corner mask holds.

    A corollary: an empty rectangle whose rank box spans at most one rank
    along each axis meets another empty rectangle only when the two share
    a defining point.  A box that overlaps it with positive area, pierces
    it or is pierced by it holds, on one axis, one of its end ranks and,
    on the other, all of its range, so one of its two defining points,
    which sit at opposite corners.  `matching._ChosenIndex` answers for
    such boxes from a count of the chosen boxes at each point."""
    x1lt, x2lt, y1lt, y2lt = _bound_masks(rects)
    flat = sum(1 << k for k, r in enumerate(rects) if r[0] == r[1] or r[2] == r[3])
    for u, (x1, x2, y1, y2, _, _) in enumerate(rects):
        above = x2lt[x2 + 1] & y1lt[y1 + 1] & ~(x1lt[x1] | y2lt[y2])
        below = x1lt[x1 + 1] & y2lt[y2 + 1] & ~(x2lt[x2] | y1lt[y1])
        corner = (x1lt[x2] & y1lt[y2] & ~(x2lt[x1 + 1] | y2lt[y1 + 1]
                                          | above | below | flat)
                  ) if x1 < x2 and y1 < y2 else 0
        yield u, above, below, corner


# `empty_pairs` tests this many later points one by one before it asks its
# tree.  They hold the next point in the window for 58 % of the lookups on
# the `approx-random` inputs, 84 % on the `oracle-exact` ones and 50 % on a
# `reduction` round.  Without the probe the sweep took 1.34-1.42 times as
# long on the first two and 1.24-1.29 times on the third.
_PROBE = 4


def empty_pairs(s: PointSet) -> list[tuple[int, int]]:
    """All index pairs {i, j}, i < j, whose rectangle contains no third
    point of s, in sorted order.

    The points are taken in (x, y) order of their ranks, and each anchor is
    paired with some of the points after it, in that order.  A window
    holds the y ranks that a later point may still have.  It starts as
    every rank, or every rank above the nearest point below the anchor in
    its own column, which sorts before the anchor.  Each point found in the
    window shrinks it: a point above the anchor line removes its rank and
    those above, a point below removes its rank and those below, and a
    point on the line ends the anchor's turn.  A point found in the window
    is paired with the anchor, unless it lies below the line and the next
    point in its own column lies no higher than the line: that point sorts
    after it, yet lies in the pair's box.

    The anchors are taken from the last point back, so the points after
    the anchor are those already seen.  A min-segment tree over y ranks
    holds, per rank, the least position of a point seen there.  Each new
    point has the least position seen so far, so it overwrites its leaf and
    every ancestor.  The least position over the window's ranks is the next
    point in the window: every point skipped on the way lies outside the
    window, and the window only shrinks.  The next `_PROBE` points are
    tried one by one before the tree is asked.  A point below the anchor
    line that is not paired is followed in its column by others up to the
    line, which are not paired either, except the highest: a bisection
    finds it.  So every step finds a pair or ends the anchor's turn, and
    the whole costs O((n + k) log n) for k pairs.
    """
    xr, yr = s._ranks
    order = sorted(range(len(s)), key=lambda k: (xr[k], yr[k]))
    xs = [xr[k] for k in order]
    ys = [yr[k] for k in order]
    n = len(order)
    out: list[tuple[int, int]] = []
    if n < 2:
        return out
    top = max(ys) + 1
    size = 1 << (top - 1).bit_length()
    tree = [n] * (2 * size)
    xs.append(-1)  # the last point has no column successor
    for pos in range(n - 1, -1, -1):
        i, py = order[pos], ys[pos]
        lo = ys[pos - 1] + 1 if pos and xs[pos - 1] == xs[pos] else 0
        hi = top
        q = pos + 1
        while True:
            # q: the next position whose y lies in [lo, hi), or n if none.
            end = q + _PROBE
            if end > n:
                end = n
            while q < end:
                qy = ys[q]
                if lo <= qy < hi:
                    break
                q += 1
            else:
                if q == n:
                    break
                l, r, q = lo + size, hi + size, n
                while l < r:
                    if l & 1:
                        if tree[l] < q:
                            q = tree[l]
                        l += 1
                    if r & 1:
                        r -= 1
                        if tree[r] < q:
                            q = tree[r]
                    l >>= 1
                    r >>= 1
                if q == n:
                    break
                qy = ys[q]
            if qy < py and xs[q + 1] == xs[q] and ys[q + 1] <= py:
                # Of q and the points above it in its column up to the
                # anchor line, only the highest can be paired: go to it.
                q = bisect_right(ys, py, q, bisect_right(xs, xs[q], q, n)) - 1
                qy = ys[q]
            j = order[q]
            out.append((i, j) if i < j else (j, i))
            if qy >= py:
                if qy == py:
                    break
                hi = qy
            else:
                lo = qy + 1
            q += 1
        k = py + size
        while k:
            tree[k] = pos
            k >>= 1
    out.sort()
    return out


def _color_pairs(s: PointSet, same: bool) -> list[tuple[int, int]]:
    """The empty pairs of s whose two points have the same color (`same`)
    or different colors."""
    colors = [p.color for p in s.points]
    return [
        (i, j) for i, j in empty_pairs(s)
        if (colors[i] is colors[j]) == same
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
