"""Instance generators: random sets, forced-matching gadgets, and the
compiler from planar one-in-three formulas to point sets.

The compiled construction places one rectangle of boundary points per
variable and a three-legged comb per clause, then surrounds everything with
red points so that two blue points can be matched exactly when they span one
of the designated axis-aligned segments.  Variable boundaries admit exactly
two perfect matchings (a 0- and a 1-assignment); each comb completes
perfectly exactly when one of its three literals is satisfied.

`monochromatize` and `bichromatize` are one recoloring with two inputs: the
blue colors (all blue, or one red end per designated segment) and the
cluster that replaces each blocker (the 12-point blocking gadget, or an
8-point two-colored cluster), scaled from the cluster's own extent.
"""
from __future__ import annotations

import json
import reprlib
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Sequence

from rectmatch.errors import ContractError
from rectmatch.geometry import (
    Color,
    ColoredPoint,
    PointSet,
    _json_field,
    perturb,
)

# ---------------------------------------------------------------------------
# Random instances

def random_instance(n: int, grid_n: int, red_fraction: float, seed: int) -> PointSet:
    """n distinct uniform points on [0..grid_n]^2 with independent colors."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if grid_n < 0:
        raise ValueError(f"grid_n must be non-negative, got {grid_n}")
    cells = (grid_n + 1) ** 2
    if n > cells:
        raise ValueError(f"cannot place {n} distinct points on a {grid_n + 1}^2 grid")
    if not 0 <= red_fraction <= 1:
        raise ValueError("red_fraction must be in [0, 1]")
    rng = Random(seed)
    chosen = rng.sample(range(cells), n)
    pts = []
    for cell in chosen:
        x, y = divmod(cell, grid_n + 1)
        color = Color.RED if rng.random() < red_fraction else Color.BLUE
        pts.append((x, y, color))
    return PointSet.from_tuples(pts)


# ---------------------------------------------------------------------------
# Blocking gadget: 12 one-colored points whose perfect matching collapses if
# any of the four outer points goes missing.

_BLOCKER_OUTER = ((0, 0), (5, 0), (5, 5), (0, 5))
_BLOCKER_INNER = ((1, 3), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 2))


def blocking_gadget() -> PointSet:
    """The 12-point blocker, all blue: the four outer points first, then the
    eight inner ones.  The recolorings shrink and move copies of it."""
    return PointSet.from_tuples(
        (x, y, Color.BLUE) for x, y in _BLOCKER_OUTER + _BLOCKER_INNER)


# ---------------------------------------------------------------------------
# Variable gadget

def variable_gadget(degree: int, origin: tuple[int, int] = (0, 0)):
    """Boundary points of a height-4, width-6*degree rectangle at spacing 2,
    numbered clockwise from the top-left corner, plus the consecutive-pair
    segments.  Returns (points, segments) with 0-based local indices; point
    k of the 1-based clockwise numbering is points[k-1]."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    x0, y0 = origin
    w = 6 * degree
    pts: list[tuple[int, int]] = []
    for x in range(0, w + 1, 2):                      # top, left to right
        pts.append((x0 + x, y0 + 4))
    for y in (2, 0):                                  # right side, downward
        pts.append((x0 + w, y0 + y))
    for x in range(w - 2, -1, -2):                    # bottom, right to left
        pts.append((x0 + x, y0))
    pts.append((x0, y0 + 2))                          # left side
    assert len(pts) == 6 * degree + 4
    n = len(pts)
    segments = [(i, (i + 1) % n) for i in range(n)]
    return pts, segments


# ---------------------------------------------------------------------------
# Clause gadget

@dataclass(frozen=True)
class LegAnchor:
    """Attachment of one clause leg: the anchor is a variable boundary point
    on the top edge y = 4 (side 'above') or the bottom edge y = 0 ('below')
    of the height-4 variable rectangle that the compiler builds."""

    x: int
    y: int
    number: int
    positive: bool
    side: str

    def __post_init__(self):
        if self.side not in ("above", "below"):
            raise ValueError(f"side must be 'above' or 'below', got {self.side!r}")
        edge = 4 if self.side == "above" else 0
        if self.y != edge:
            raise ValueError(
                f"an anchor {self.side} lies on the edge y = {edge}, got y = {self.y}")
        if (self.number % 2 == 0) != self.positive:
            raise ValueError(
                f"anchor number {self.number} has the wrong parity for a "
                f"{'positive' if self.positive else 'negated'} literal"
            )


# Comb template, relative to anchor columns (a1 < a2 < a3) and rows measured
# away from the variable edge.  Row -1 holds the three points inside each
# leg's overlap box; rows 2/4/6 (plus the nesting offset) hold the six wall
# tops and the three spine points.  The staggered wall heights and the plug
# point S1 realize the one-in-three completion rule; S2/S3 close whichever
# side the plug leaves open.
_COMB_NAMES = (
    "L1", "M1", "R1", "L2", "M2", "R2", "L3", "M3", "R3",
    "WL1", "WR1", "WL2", "WR2", "WL3", "WR3", "S1", "S2", "S3",
)

_COMB_SEGMENTS = (
    ("L1", "M1"), ("M1", "R1"), ("L2", "M2"), ("M2", "R2"),
    ("L3", "M3"), ("M3", "R3"),
    ("L1", "WL1"), ("R1", "WR1"), ("L2", "WL2"), ("R2", "WR2"),
    ("L3", "WL3"), ("R3", "WR3"),
    ("WL1", "WR2"), ("WR2", "WL3"),
    ("WR1", "WL2"), ("WR3", "S1"),
    ("WR1", "S2"),
    ("S1", "S3"),
    ("S2", "S3"),
)


def _comb_template(a1: int, a2: int, a3: int, lift: int) -> dict[str, tuple[int, int]]:
    """Template coordinates as (x, signed row relative to the variable edge);
    `lift` shifts the spine rows upward for nesting.

    Tops paired by the satisfied-literal completions sit on the high row so
    their connecting segments pass above every simultaneously used leg
    vertical; the unsatisfied-side tops, the plug point S1, and its partner
    segments stay low, and the S2-S3 closer runs above everything.
    """
    low, high, top = 2 + lift, 4 + lift, 6 + lift
    return {
        "L1": (a1 - 1, -1), "M1": (a1, -1), "R1": (a1 + 1, -1),
        "L2": (a2 - 1, -1), "M2": (a2, -1), "R2": (a2 + 1, -1),
        "L3": (a3 - 1, -1), "M3": (a3, -1), "R3": (a3 + 1, -1),
        "WL1": (a1 - 1, high), "WR1": (a1 + 1, low),
        "WL2": (a2 - 1, low), "WR2": (a2 + 1, high),
        "WL3": (a3 - 1, high), "WR3": (a3 + 1, low),
        "S1": (a3 + 2, low), "S2": (a1 + 1, top), "S3": (a3 + 2, top),
    }


def clause_gadget(anchors: Sequence[LegAnchor], level: int = 0):
    """Points and segments of one clause comb attached at three anchors.

    Anchors must be on the same side, in increasing x order, at least 4
    apart.  Returns (points, segments) with local indices; `level` raises
    the spine rows by 6 per nesting depth.  For 'below' clauses the whole
    template is rotated half a turn so the same completion logic applies to
    the mirrored blocking behavior of bottom-edge anchors.
    """
    if len(anchors) != 3:
        raise ValueError("a clause needs exactly three anchors")
    sides = {a.side for a in anchors}
    if len(sides) != 1:
        raise ValueError("anchors of one clause must share a side")
    side = anchors[0].side
    edge_y = anchors[0].y
    xs = [a.x for a in anchors]
    if not (xs[0] < xs[1] < xs[2]):
        raise ValueError("anchors must be in increasing x order")
    if xs[1] - xs[0] < 4 or xs[2] - xs[1] < 4:
        raise ValueError("anchors must be at least 4 apart")
    lift = 6 * level
    if side == "above":
        template = _comb_template(xs[0], xs[1], xs[2], lift)
        placed = {
            name: (x, edge_y + rel) for name, (x, rel) in template.items()
        }
    else:
        c = xs[0] + xs[2]
        template = _comb_template(c - xs[2], c - xs[1], c - xs[0], lift)
        placed = {
            name: (c - x, edge_y - rel) for name, (x, rel) in template.items()
        }
    pts = [placed[name] for name in _COMB_NAMES]
    index = {name: i for i, name in enumerate(_COMB_NAMES)}
    segments = [(index[u], index[v]) for u, v in _COMB_SEGMENTS]
    return pts, segments


# ---------------------------------------------------------------------------
# Red fill

@dataclass(frozen=True)
class GadgetInstance:
    """A generated instance: the full colored point set (blues first, then
    the red fill), the designated blue segment pairs, and how it was made."""

    points: PointSet
    allowed_segments: tuple[tuple[int, int], ...]
    provenance: dict

    @property
    def blue_count(self) -> int:
        return self.provenance["blueCount"]


def _lattice_gaps(pts: Sequence[tuple[int, int]], segments, k: int):
    """The points of the step-k lattice in the bounding box of `pts`, x-major,
    that are off the step-2k lattice and on no designated segment (index
    pairs into `pts`, axis-aligned as `build_gadget` checks)."""
    on_segment = set()
    for i, j in segments:
        (x1, y1), (x2, y2) = sorted((pts[i], pts[j]))
        on_segment.update(
            (x, y) for x in range(x1, x2 + 1) for y in range(y1, y2 + 1))
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    return [
        (x, y)
        for x in range(min(xs), max(xs) + 1, k)
        for y in range(min(ys), max(ys) + 1, k)
        if (x % (2 * k) or y % (2 * k)) and (x, y) not in on_segment
    ]


def red_fill(blues: Sequence[tuple[int, int]], segments: Sequence[tuple[int, int]]):
    """Surround a blue layout with red points so that exactly the designated
    segments survive as matchable blue pairs.

    Steps: scale blues by 2; put a red on every grid point of the blue
    bounding box having an odd coordinate and lying on no designated
    segment; scale everything by 2 again; add a copy of the reds shifted one
    unit down (giving every red a vertical partner).  Returns the list of
    scaled blues followed by the sorted reds.
    """
    for x, y in blues:
        if not (isinstance(x, int) and isinstance(y, int)):
            raise ValueError("red_fill needs integer blue coordinates")
    if not blues:
        return [], []
    scaled = [(2 * x, 2 * y) for x, y in blues]
    reds = _lattice_gaps(scaled, segments, 1)
    blues4 = [(2 * x, 2 * y) for x, y in scaled]
    reds4 = [(2 * x, 2 * y) for x, y in reds]
    reds4 += [(x, y - 1) for x, y in reds4]
    reds4.sort()
    return blues4, reds4


def build_gadget(
    blues: Sequence[tuple[int, int]],
    segments: Sequence[tuple[int, int]],
    provenance: dict | None = None,
) -> GadgetInstance:
    """Apply the red fill to a blue layout and normalize to the grid
    [0..N]^2, shifting by multiples of 4 so blue coordinates stay congruent
    to 0 mod 4.  Blues keep their indices and come first.  The first
    designated segment that is not axis-aligned or holds a blue besides its
    ends raises a ValueError naming it and the least such blue."""
    segments = tuple(
        (i, j) if i < j else (j, i) for i, j in segments
    )
    # Each row and column of blues, as sorted (coordinate along it, index).
    rows, cols = {}, {}
    for k, (x, y) in enumerate(blues):
        rows.setdefault(y, []).append((x, k))
        cols.setdefault(x, []).append((y, k))
    for line in (*rows.values(), *cols.values()):
        line.sort()
    for i, j in segments:
        (x1, y1), (x2, y2) = sorted((blues[i], blues[j]))
        if x1 != x2 and y1 != y2:
            raise ValueError(f"designated segment {(i, j)} is not axis-aligned")
        line, lo, hi = (rows[y1], x1, x2) if y1 == y2 else (cols[x1], y1, y2)
        on = [k for _, k in line[bisect_left(line, (lo, -1)):
                                 bisect_right(line, (hi, len(blues)))]
              if k != i and k != j]
        if on:
            raise ValueError(
                f"designated segment {(i, j)} passes through blue point {min(on)}"
            )
    blues4, reds4 = red_fill(blues, segments)
    all_pts = list(blues4) + list(reds4)
    if all_pts:
        min_x = min(x for x, _ in all_pts)
        min_y = min(y for _, y in all_pts)
        shift_x = -4 * (min_x // 4)  # ceil to a multiple of 4, keeps >= 0
        shift_y = -4 * (min_y // 4)
    else:
        shift_x = shift_y = 0
    pts = [(x + shift_x, y + shift_y, Color.BLUE) for x, y in blues4]
    pts += [(x + shift_x, y + shift_y, Color.RED) for x, y in reds4]
    n = max((max(x, y) for x, y, _ in pts), default=0)
    # The coordinates are integers: one `Fraction` per distinct value,
    # shared by its points, in place of parsing each point.
    frac = {v: Fraction(v) for v in {v for x, y, _ in pts for v in (x, y)}}
    points = PointSet(tuple(ColoredPoint(frac[x], frac[y], c) for x, y, c in pts))
    prov = dict(provenance or {})
    prov.update({
        "blueCount": len(blues4),
        "gridN": n,
        "shift": [shift_x, shift_y],
    })
    return GadgetInstance(points, segments, prov)


# ---------------------------------------------------------------------------
# Formulas and layouts

@dataclass(frozen=True)
class Literal:
    var: str
    negated: bool


@dataclass(frozen=True)
class Clause:
    literals: tuple[Literal, Literal, Literal]
    side: str


@dataclass(frozen=True)
class Formula:
    variables: tuple[str, ...]
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        order = {v: k for k, v in enumerate(self.variables)}
        if len(order) != len(self.variables):
            raise ValueError("duplicate variable names")
        for c in self.clauses:
            names = [lit.var for lit in c.literals]
            if len(names) != 3:
                raise ValueError(
                    f"clause {names} needs exactly three literals, got {len(names)}")
            if len(set(names)) != 3:
                raise ValueError(f"clause {names} repeats a variable")
            for v in names:
                if v not in order:
                    raise ValueError(f"clause uses unknown variable {v!r}")
            if c.side not in ("above", "below"):
                raise ValueError(f"bad side {c.side!r}")


def formula_from_dict(d: dict) -> Formula:
    """Read a formula from its JSON form; a missing key or a value of the
    wrong shape raises a one-line ValueError that names the field, and a
    variable that is not a name is echoed through `reprlib.repr`, which
    caps its length."""
    clauses = []
    for k, c in enumerate(_json_field(d, "clauses", list, "formula")):
        where = f"formula clauses[{k}]"
        lits = []
        for m, lit in enumerate(_json_field(c, "literals", list, where)):
            at = f"{where}.literals[{m}]"
            lits.append(Literal(_json_field(lit, "var", str, at),
                                _json_field(lit, "neg", bool, at)))
        side = _json_field(c, "side", str, where) if "side" in c else "above"
        clauses.append(Clause(tuple(lits), side))
    variables = _json_field(d, "variables", list, "formula")
    for v in variables:
        if not isinstance(v, str):
            raise ValueError(f"formula key 'variables' must hold names, "
                             f"got {reprlib.repr(v)}")
    return Formula(tuple(variables), tuple(clauses))


def formula_to_dict(f: Formula) -> dict:
    return {
        "variables": list(f.variables),
        "clauses": [
            {
                "literals": [{"var": l.var, "neg": l.negated} for l in c.literals],
                "side": c.side,
            }
            for c in f.clauses
        ],
    }


def eval_one_in_three(f: Formula, assignment: dict[str, bool]) -> bool:
    for c in f.clauses:
        sat = sum(
            1 for l in c.literals if assignment[l.var] != l.negated
        )
        if sat != 1:
            return False
    return True


def one_in_three_satisfiable(f: Formula) -> bool:
    n = len(f.variables)
    for bits in range(1 << n):
        assignment = {v: bool((bits >> k) & 1) for k, v in enumerate(f.variables)}
        if eval_one_in_three(f, assignment):
            return True
    return False


@dataclass(frozen=True)
class CombLayout:
    """How the combs are drawn: each clause's nesting level, and for each
    (variable, side) the clauses whose legs land there, left to right."""

    levels: dict
    slot_order: dict


def build_layout(f: Formula) -> CombLayout:
    """Derive and validate the comb layout for a formula.

    Same-side clause spans (leftmost to rightmost variable) must be
    disjoint, share only an endpoint variable, or nest properly with no leg
    of the outer clause strictly inside the inner span; anything else is a
    crossing, and a ValueError names two clauses that cross.  A clause's
    level is one more than the highest level nested inside it, 0 if none.

    Nested spans are well-parenthesised, so one stack pass per side, over
    the spans by (left end, -right end), does the check and finds each
    clause's parent: the span still open once those ending by its left end
    close.  Every span around it is on the stack, so checking the parent
    alone suffices, and only the parent's middle leg can be inside.
    """
    order = {v: k for k, v in enumerate(f.variables)}
    legs = [sorted(order[lit.var] for lit in c.literals) for c in f.clauses]
    parent = {}
    levels = dict.fromkeys(range(len(f.clauses)), 0)
    for side in ("above", "below"):
        visit = sorted((ci for ci, c in enumerate(f.clauses) if c.side == side),
                       key=lambda ci: (legs[ci][0], -legs[ci][2]))
        stack: list[int] = []
        for ci in visit:
            left, _, right = legs[ci]
            while stack and legs[stack[-1]][2] <= left:
                stack.pop()
            if stack:
                outer = stack[-1]
                if legs[outer][2] < right:
                    raise ValueError(f"clauses {min(outer, ci)} and "
                                     f"{max(outer, ci)} cross on side {side!r}")
                if left < legs[outer][1] < right:
                    raise ValueError(
                        f"clauses {outer} and {ci} cross: leg of clause "
                        f"{outer} lands strictly inside the nested span"
                    )
                parent[ci] = outer
            stack.append(ci)
        # A clause is visited after its parent, so walking the visit order
        # backwards sets each level before it is passed up.
        for ci in reversed(visit):
            if ci in parent:
                levels[parent[ci]] = max(levels[parent[ci]], levels[ci] + 1)

    # Left-to-right leg order on each (variable, side): the combs ending
    # there, innermost first; the one passing through (nesting admits at
    # most one); the combs starting there, outermost first.
    slot_order = {(v, side): [] for v in f.variables for side in ("above", "below")}
    for ci, c in enumerate(f.clauses):
        for lit in c.literals:
            slot_order[(lit.var, c.side)].append(ci)
    for (v, _), cis in slot_order.items():
        vi = order[v]
        cis.sort(key=lambda ci: (0, -legs[ci][0]) if legs[ci][2] == vi
                 else (2, -legs[ci][2]) if legs[ci][0] == vi else (1, 0))
    return CombLayout(levels, slot_order)


# ---------------------------------------------------------------------------
# The compiler

VARIABLE_GAP = 6


def compile_planar_1in3(f: Formula) -> GadgetInstance:
    """Compile a formula into a two-colored instance whose perfect
    monochromatic matchings correspond to accepting assignments.  The combs
    go where `build_layout` puts them, which rejects a crossing layout.
    Each leg attaches at a boundary point of its variable whose clockwise
    number is even exactly for a positive literal."""
    layout = build_layout(f)
    order = {v: k for k, v in enumerate(f.variables)}
    uses = Counter(lit.var for c in f.clauses for lit in c.literals)
    degrees = {v: max(1, uses[v]) for v in f.variables}
    x_offsets = {}
    x = 0
    for v in f.variables:
        x_offsets[v] = x
        x += 6 * degrees[v] + VARIABLE_GAP

    blues: list[tuple[int, int]] = []
    segments: list[tuple[int, int]] = []
    var_meta = {}
    for v in f.variables:
        pts, segs = variable_gadget(degrees[v], origin=(x_offsets[v], 0))
        base = len(blues)
        var_meta[v] = {"start": base, "count": len(pts), "degree": degrees[v]}
        blues.extend(pts)
        segments.extend((base + i, base + j) for i, j in segs)

    # Anchor allocation: per (variable, side), leg slots left to right in
    # layout order.  Slot j takes offset a = 6j+2 or 6j+4, whichever point's
    # clockwise number has the literal's parity (even exactly for a positive
    # literal).  The two numbers differ by one, so exactly one fits, and a
    # degree-d variable has at most d slots a side, so 6j+4 <= 6d-2.
    anchor_of: dict[tuple[int, str], LegAnchor] = {}
    for (v, side), clause_ids in layout.slot_order.items():
        d = degrees[v]
        for j, ci in enumerate(clause_ids):
            lit = next(l for l in f.clauses[ci].literals if l.var == v)
            for a in (6 * j + 2, 6 * j + 4):
                num = (a // 2 + 1 if side == "above"
                       else 3 * d + 3 + (6 * d - a) // 2)
                if (num % 2 == 0) != lit.negated:
                    break
            y = 4 if side == "above" else 0
            anchor_of[(ci, v)] = LegAnchor(
                x_offsets[v] + a, y, num, not lit.negated, side
            )

    clause_meta = []
    for ci, c in enumerate(f.clauses):
        lits = sorted(c.literals, key=lambda l: order[l.var])
        anchors = [anchor_of[(ci, l.var)] for l in lits]
        pts, segs = clause_gadget(anchors, level=layout.levels[ci])
        base = len(blues)
        blues.extend(pts)
        segments.extend((base + i, base + j) for i, j in segs)
        clause_meta.append({
            "start": base,
            "count": len(pts),
            "side": c.side,
            "level": layout.levels[ci],
            "anchors": [
                {"var": l.var, "x": a.x, "y": a.y, "number": a.number,
                 "positive": a.positive}
                for l, a in zip(lits, anchors)
            ],
        })

    g = build_gadget(
        blues, segments,
        provenance={
            "recipe": "planar-one-in-three",
            "formula": formula_to_dict(f),
            "variables": var_meta,
            "clauses": clause_meta,
        },
    )
    n = g.provenance["gridN"]
    size = sum(degrees.values()) + len(f.clauses) + len(f.variables)
    if n > 200 * max(1, size):
        raise ContractError(f"grid bound {n} exceeds the linear budget for size {size}")
    return g


# ---------------------------------------------------------------------------
# Recoloring transformations

_BI_CLUSTER = (
    (0, 0, "B"), (1, 6, "B"), (2, 2, "R"), (3, 3, "R"),
    (4, 4, "R"), (5, 5, "R"), (6, 1, "B"), (7, 7, "B"),
)


def _cluster_delta(n: int) -> Fraction:
    # Distinct sheared coordinates differ by at least 1/(2n+1); a cluster of
    # half this diameter can never collide with, or escape past, its
    # neighborhood.
    return Fraction(1, 3 * (2 * n + 1))


def _replace_blockers(
    g: GadgetInstance, colors: Sequence[Color], cluster: PointSet
) -> PointSet:
    """Color the blues by `colors`, shear them and the blockers into general
    position, then replace each blocker with a copy of `cluster` shrunk
    about its bounding-box center to half of `_cluster_delta` across."""
    blues = [(int(p.x), int(p.y)) for p in g.points.points[: g.blue_count]]
    # The blockers keep every non-designated blue pair unmatchable once the
    # red fill is stripped.
    greens = _lattice_gaps(blues, g.allowed_segments, 2)
    staged = PointSet.from_tuples(
        [(x, y, c) for (x, y), c in zip(blues, colors)]
        + [(x, y, Color.BLUE) for x, y in greens]
    )
    n = max(max(x, y) for x, y in blues + greens)
    sheared = perturb(staged, n)
    xs = [p.x for p in cluster]
    ys = [p.y for p in cluster]
    cx, cy = (min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2
    scale = _cluster_delta(n) / (2 * max(max(xs) - min(xs), max(ys) - min(ys)))
    out = list(sheared.points[: len(blues)])
    for gp in sheared.points[len(blues):]:
        for p in cluster:
            out.append(ColoredPoint(
                gp.x + scale * (p.x - cx), gp.y + scale * (p.y - cy), p.color
            ))
    return PointSet(tuple(out))


def monochromatize(g: GadgetInstance) -> PointSet:
    """One-colored instance with the same perfect-matching answer: shear the
    blues and blockers into general position, then replace each blocker with
    a shrunken copy of the 12-point blocking gadget."""
    return _replace_blockers(g, [Color.BLUE] * g.blue_count, blocking_gadget())


def recolor_for_bichromatic(g: GadgetInstance) -> list[Color]:
    """Two-color the designated-segment graph so every segment gets exactly
    one red endpoint; components are colored from their least index."""
    nb = g.blue_count
    adj: list[list[int]] = [[] for _ in range(nb)]
    for i, j in g.allowed_segments:
        adj[i].append(j)
        adj[j].append(i)
    colors: list[Color | None] = [None] * nb
    for start in range(nb):
        if colors[start] is not None:
            continue
        colors[start] = Color.BLUE
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if colors[v] is None:
                    colors[v] = (
                        Color.RED if colors[u] is Color.BLUE else Color.BLUE
                    )
                    stack.append(v)
                elif colors[v] is colors[u]:
                    raise ContractError(
                        f"designated segments contain an odd cycle through "
                        f"points {u} and {v}; cannot recolor one endpoint each"
                    )
    return colors  # type: ignore[return-value]


def bichromatize(g: GadgetInstance) -> PointSet:
    """Two-colored general-position instance with the same perfect-matching
    answer under the bichromatic rule: recolor one endpoint of every
    designated segment red, shear, and replace each blocker with the
    eight-point two-colored cluster (two internal perfect matchings, reds
    enclosed on all sides)."""
    return _replace_blockers(
        g, recolor_for_bichromatic(g), PointSet.from_tuples(_BI_CLUSTER)
    )


# ---------------------------------------------------------------------------
# Sidecar serialization

def sidecar_to_dict(g: GadgetInstance) -> dict:
    return {
        "allowedSegments": [list(p) for p in g.allowed_segments],
        "provenance": g.provenance,
    }


def sidecar_to_json(g: GadgetInstance) -> str:
    return json.dumps(sidecar_to_dict(g), indent=2, sort_keys=True) + "\n"
