"""Maximum strong matchings with rectangles: 1/4-approximations and oracles.

A strong matching is a set of pairwise-disjoint empty rectangles, each
spanned by two input points.  Both 1/4-approximations run one driver: split
the candidates into corner families by the color of the defining point in
the bottom-left or bottom-right corner, solve each family's independent
set, and match the largest.  The two differ only in data: same-colored or
mixed candidates, two families or four, and the per-family solver.  A
monochromatic family is solved to within a half (its piercing+corner
structure exactly, then a two-coloring of the leftover point contacts), a
bichromatic one exactly.

The exact oracles `brute_force_max_matching`, `decide_perfect` and
`count_perfect_matchings` are one depth-first search with three objectives
(max, decide, count).  Its stack is explicit, so the search has no depth
limit: inputs of thousands of points are bounded only by the size guard.
The search runs on the candidates' `Rect`s, whose bounds are ranks, and
decides conflicts with the rule that classifies intersections everywhere
else (`geometry._meet`).  A search that can choose at most a few dozen
boxes works out once which candidates meet which, as one bitmask per
candidate, so a conflict test is one bit test.  A larger one buckets the
chosen boxes by cell of the rank grid, so a conflict test reads only the
boxes near the query.  The maximum search also prunes with the free points
that still have a feasible partner; the search stays exponential in the
worst case.
"""
from __future__ import annotations

import json
import os
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from rectmatch.errors import GuardError
from rectmatch.geometry import (
    Color,
    IntersectionKind,
    PointSet,
    Rect,
    _color_pairs,
    _json_field,
    _meet,
    _overlapping,
    _rect,
    candidate_bichromatic,
    candidate_monochromatic,
    empty_pairs,
    intersection_kinds,
    rect_from_pair,
)
from rectmatch.independent_set import (
    IndependentSet,
    RectFamily,
    build_graph,
    corner_elimination,
    forest_two_color,
    max_antichain,
    piercing_order,
)

ORACLE_GUARD_ENV = "RECTMATCH_ORACLE_GUARD"
DEFAULT_ORACLE_GUARD = 16


class MatchMode(Enum):
    MONO = "monochromatic"
    BI = "bichromatic"


@dataclass(frozen=True)
class Matching:
    pairs: tuple[tuple[int, int], ...]
    mode: MatchMode

    def __post_init__(self):
        canon = tuple(sorted((min(i, j), max(i, j)) for i, j in self.pairs))
        object.__setattr__(self, "pairs", canon)
        used = [i for p in canon for i in p]
        if len(used) != len(set(used)):
            raise ValueError("a point appears in more than one pair")

    def __len__(self) -> int:
        return len(self.pairs)

    def covers(self, n: int) -> bool:
        return 2 * len(self.pairs) == n


@dataclass
class SolveReport:
    matching: Matching
    algorithm: str
    candidate_count: int
    family_sizes: tuple[int, ...]
    optimal_size: int | None = None
    ratio: Fraction | None = None


def oracle_guard(default: int = DEFAULT_ORACLE_GUARD) -> int:
    """Oracle point-count guard; the environment variable overrides."""
    value = os.environ.get(ORACLE_GUARD_ENV)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        raise ValueError(
            f"{ORACLE_GUARD_ENV} must be an integer, not {value!r}"
        ) from None


# ---------------------------------------------------------------------------
# Family splits

def _defining_at(s: PointSet, r: Rect, x: int, y: int) -> Color | None:
    """Color of a defining point of r at rank position (x, y), if any."""
    xr, yr = s._ranks
    for idx in (r.a, r.b):
        if xr[idx] == x and yr[idx] == y:
            return s[idx].color
    return None


# The corner families as sets of (corner, color): a rectangle joins every
# family that holds the color of one of its bottom corners' defining points.
_BL, _BR = 0, 1
_MONO_FAMILIES = (
    {(_BL, Color.BLUE), (_BR, Color.RED)},
    {(_BR, Color.BLUE), (_BL, Color.RED)},
)
_BI_FAMILIES = (
    {(_BL, Color.BLUE)}, {(_BL, Color.RED)}, {(_BR, Color.BLUE)}, {(_BR, Color.RED)},
)


def _split(f: RectFamily, families) -> tuple[RectFamily, ...]:
    """One family per entry of `families`, each in the order of `f.rects`."""
    out: tuple[list[Rect], ...] = tuple([] for _ in families)
    for r in f.rects:
        corners = {
            (_BL, _defining_at(f.base, r, r.xmin, r.ymin)),
            (_BR, _defining_at(f.base, r, r.xmax, r.ymin)),
        }
        for rs, family in zip(out, families):
            if corners & family:
                rs.append(r)
    return tuple(RectFamily(f.base, tuple(rs)) for rs in out)


def split_families_mono(f: RectFamily) -> tuple[RectFamily, ...]:
    """Split same-color candidates: the first family takes blue rectangles
    with a defining point in the bottom-left corner and red ones with a
    defining point in the bottom-right corner; the second the mirror
    orientation.  Degenerate segments satisfy both corner descriptions, so
    they land in both families."""
    return _split(f, _MONO_FAMILIES)


def split_families_bi(f: RectFamily) -> tuple[RectFamily, ...]:
    """Split mixed candidates four ways by the color of the defining point in
    the bottom-left / bottom-right corner; segments may satisfy several."""
    return _split(f, _BI_FAMILIES)


# ---------------------------------------------------------------------------
# Approximation pipeline

def exact_independent_rects(fam: RectFamily) -> IndependentSet:
    """Exact maximum piercing+corner-independent subfamily: eliminate corner
    pairs, then take a maximum antichain of the piercing order.  Member
    indices refer to `fam.rects`."""
    reduced = corner_elimination(fam)
    dag = piercing_order(reduced)
    anti = max_antichain(dag)
    back = {r.key: i for i, r in enumerate(fam.rects)}
    members = frozenset(back[reduced.rects[i].key] for i in anti.members)
    return IndependentSet(members)


def half_approx_family(fam: RectFamily) -> IndependentSet:
    """At least half of the family's maximum independent set, genuinely
    pairwise disjoint: solve the piercing+corner structure exactly, then
    two-color the remaining contact graph and keep the larger class."""
    anti = exact_independent_rects(fam)
    chosen = sorted(anti.members)
    g = build_graph(fam.restrict(chosen))
    side_a, side_b = forest_two_color(g)
    side = side_a if len(side_a) >= len(side_b) else side_b
    members = frozenset(chosen[i] for i in side)
    return IndependentSet(members)


def _best_family(
    candidates: RectFamily, fams, solve, mode: MatchMode
) -> SolveReport:
    """Solve each family with `solve` and match the rectangles of the
    largest independent set; a later family wins only if strictly larger."""
    best: list[Rect] = []
    best_size = -1
    for fam in fams:
        members = solve(fam).members
        if len(members) > best_size:
            best_size = len(members)
            best = [fam.rects[i] for i in sorted(members)]
    matching = Matching(tuple(r.key for r in best), mode)
    return SolveReport(matching, "quarter_approx", len(candidates),
                       tuple(len(fam) for fam in fams))


def approx_mmrm(s: PointSet) -> SolveReport:
    """Monochromatic matching of size at least a quarter of the optimum;
    each of the two corner families is solved to within a half."""
    f = RectFamily(s, tuple(candidate_monochromatic(s)))
    return _best_family(f, split_families_mono(f), half_approx_family, MatchMode.MONO)


def approx_mbrm(s: PointSet) -> SolveReport:
    """Bichromatic matching of size at least a quarter of the optimum; each
    of the four corner families is solved exactly."""
    f = RectFamily(s, tuple(candidate_bichromatic(s)))
    return _best_family(f, split_families_bi(f), exact_independent_rects, MatchMode.BI)


def with_oracle(s: PointSet, report: SolveReport, *, guard: int | None = None) -> SolveReport:
    """Attach the exact optimum and the achieved ratio when the instance is
    small enough for the oracle."""
    mode = report.matching.mode
    opt = brute_force_max_matching(s, mode, max_points=guard)
    report.optimal_size = len(opt)
    if report.optimal_size:
        report.ratio = Fraction(len(report.matching), report.optimal_size)
    return report


# ---------------------------------------------------------------------------
# Exact oracle

# A search that can choose more boxes than this indexes them; a smaller one
# keeps them as a bitmask over the candidates, whose pairwise conflicts cost
# less to work out once than a large search's index costs to keep up to date.
_INDEX_FROM = 32
# A chosen box spanning more cells than this along either axis is wide.
_WIDE_CELLS = 4
# The cell side is the median extent of about this many candidate boxes.
_SAMPLE = 256


def _search_space(s: PointSet, mode: MatchMode, capacity: int, allowed_pairs=None):
    """The candidate pairs of a mode, as each point's partners in ascending
    order, each with the index of the pair's `Rect` among the candidates,
    and an empty container for at most `capacity` chosen candidates.
    `allowed_pairs`, when given, keeps only those pairs.

    The container is a `_ChosenMask` when `capacity` is at most
    `_INDEX_FROM`, else a `_ChosenIndex` over the rank grid whose cell side
    is the median extent of about `_SAMPLE` candidate boxes, taken evenly
    from the pairs in order.  Both decide conflicts with `geometry._meet`
    on the rank grid, the rule that `classify_intersection` and
    `intersection_kinds` run."""
    pairs = _color_pairs(s, mode is MatchMode.MONO)
    if allowed_pairs is not None:
        keep = {(min(i, j), max(i, j)) for i, j in allowed_pairs}
        pairs = [p for p in pairs if p in keep]
    xr, yr = s._ranks
    rects = [_rect(xr, yr, i, j) for i, j in pairs]
    # The pairs come sorted, so each point's partners come in ascending order.
    partners = [[] for _ in range(len(s))]
    for k, (i, j) in enumerate(pairs):
        partners[i].append((j, k))
        partners[j].append((i, k))
    grid = s._rank_grid
    if capacity <= _INDEX_FROM:
        return partners, _ChosenMask(grid, rects)
    sample = sorted(max(abs(xr[i] - xr[j]), abs(yr[i] - yr[j]))
                    for i, j in pairs[::len(pairs) // _SAMPLE + 1])
    side = max(1, sample[len(sample) // 2]) if sample else 1
    return partners, _ChosenIndex(grid, rects, side)


class _ChosenMask:
    """The chosen candidates of a small search, as the bitmask `blocked` of
    the candidates that meet one of them.  Bit v of `conf[u]` is set iff
    candidates u and v meet.  Two candidates that share a defining point
    meet, as `_meet` would find: the point lies in both boxes.  So their
    bits come from the points' incidence masks, and `_meet` decides only
    the pairs that `_overlapping` reports whose bit is not set yet.
    `append` saves `blocked` before it ORs in the new candidate's mask, so
    `pop` restores it last in, first out."""

    __slots__ = ("conf", "blocked", "saved")

    def __init__(self, grid, rects: Sequence[Rect]):
        incident: defaultdict[int, int] = defaultdict(int)
        for k, r in enumerate(rects):
            incident[r.a] |= 1 << k
            incident[r.b] |= 1 << k
        conf = [incident[r.a] | incident[r.b] for r in rects]
        DISJOINT = IntersectionKind.DISJOINT
        for u, v in _overlapping(rects):
            if not conf[u] >> v & 1 and _meet(rects[u], rects[v], grid) is not DISJOINT:
                conf[u] |= 1 << v
                conf[v] |= 1 << u
        self.conf = conf
        self.blocked = 0
        self.saved: list[int] = []

    def append(self, k: int) -> None:
        self.saved.append(self.blocked)
        self.blocked |= self.conf[k]

    def pop(self) -> None:
        self.blocked = self.saved.pop()

    def conflicts(self, k: int) -> int:
        """Nonzero iff candidate k meets one of the chosen candidates."""
        return self.blocked >> k & 1


class _ChosenIndex:
    """The chosen candidates of a large search, bucketed by the square cells
    of side `side` on the rank grid that their boxes overlap.  A box that
    spans more than `_WIDE_CELLS` cells along an axis goes to the `wide`
    list instead.  `append` and `pop` work last in, first out, so a popped
    box is the last one in each of its buckets.  `conflicts` tests the
    boxes in the cells of the query box and the wide ones, or every chosen
    box when that is fewer; `_meet` decides each one."""

    __slots__ = ("grid", "rects", "side", "cells", "wide", "boxes", "held")

    def __init__(self, grid, rects: Sequence[Rect], side: int):
        self.grid = grid
        self.rects = rects
        self.side = side
        self.cells: defaultdict[tuple[int, int], list] = defaultdict(list)
        self.wide: list = []
        self.boxes: list = []  # in push order
        self.held: list[list[list]] = []  # the buckets of each box

    def append(self, k: int) -> None:
        box = self.rects[k]
        c = self.side
        cx1, cx2, cy1, cy2 = box[0] // c, box[1] // c, box[2] // c, box[3] // c
        if cx2 - cx1 >= _WIDE_CELLS or cy2 - cy1 >= _WIDE_CELLS:
            held = [self.wide]
        else:
            cells = self.cells
            held = [cells[cx, cy] for cx in range(cx1, cx2 + 1)
                    for cy in range(cy1, cy2 + 1)]
        for bucket in held:
            bucket.append(box)
        self.boxes.append(box)
        self.held.append(held)

    def pop(self) -> None:
        self.boxes.pop()
        for bucket in self.held.pop():
            bucket.pop()

    def conflicts(self, k: int) -> bool:
        """True iff candidate k meets one of the chosen candidates."""
        box = self.rects[k]
        x1, x2, y1, y2, _, _ = box
        c = self.side
        cx1, cx2, cy1, cy2 = x1 // c, x2 // c, y1 // c, y2 // c
        if (cx2 - cx1 + 1) * (cy2 - cy1 + 1) >= len(self.boxes):
            buckets = (self.boxes,)
        else:
            get = self.cells.get
            buckets = [get((cx, cy), ()) for cx in range(cx1, cx2 + 1)
                       for cy in range(cy1, cy2 + 1)]
            buckets.append(self.wide)
        grid = self.grid
        for bucket in buckets:
            for b in bucket:
                if b[0] > x2 or b[1] < x1 or b[2] > y2 or b[3] < y1:
                    continue
                if _meet(box, b, grid) is not IntersectionKind.DISJOINT:
                    return True
        return False


def _search(
    s: PointSet,
    mode: MatchMode,
    objective: str,
    max_points: int | None,
    forced_pairs: Sequence[tuple[int, int]] = (),
    allowed_pairs: Sequence[tuple[int, int]] | None = None,
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Depth-first pairing search behind the three oracles.

    `objective` is "max", "decide" or "count".  Returns the number of leaves
    reached and, for "max", the pairs of the best one.  The lowest free
    point is paired with each partner in ascending order, then left
    unmatched.  A counting bound, matched pairs plus half the free points,
    prunes every branch that cannot beat the incumbent size: "max" starts
    it at -1 and raises it at each leaf.  "decide" and "count" fix it at
    n/2 - 1, so only perfect matchings reach a leaf; "decide" stops at the
    first.

    "max" also bounds each child by the free points that still have a
    feasible partner (`beats_best`): an unused one whose box conflicts with
    no chosen box.  Both bounds are upper bounds on every completion, so no
    ancestor of the first optimal leaf is pruned, and the first optimum
    found, the lexicographically least pair set, is the one kept.  The
    stack is explicit, so the depth of the search is not limited by
    Python's recursion limit.

    The chosen candidates live in the container `_search_space` picks
    once per search from n // 2, the most boxes the search can choose: a
    `_ChosenMask` up to `_INDEX_FROM`, a `_ChosenIndex` beyond.  The
    partner lists name each candidate by its index, which both containers
    take.  Both push and pop in step with the stack and give the same
    conflict answers, so the choice changes only the time taken.
    """
    limit = max_points if max_points is not None else oracle_guard()
    n = len(s)
    if n > limit:
        raise GuardError(
            f"{n} points exceeds the oracle guard of {limit}; raise "
            f"max_points or set {ORACLE_GUARD_ENV}"
        )
    maximize = objective == "max"
    if not maximize and (
        n % 2 or (mode is MatchMode.BI and s.count(Color.RED) != s.count(Color.BLUE))
    ):
        return 0, ()
    partners_of, chosen = _search_space(s, mode, n // 2, allowed_pairs)
    conflicts = chosen.conflicts
    used = [False] * n
    forced: list[tuple[int, int]] = []
    for i, j in forced_pairs:
        key = (min(i, j), max(i, j))
        k = None
        if 0 <= key[0] and key[1] < n:
            k = next((c for q, c in partners_of[key[0]] if q == key[1]), None)
        if k is None:
            problem = "is not a candidate pair"
        elif used[key[0]] or used[key[1]]:
            problem = "reuses a point"
        elif conflicts(k):
            problem = "conflicts with another forced pair"
        else:
            used[key[0]] = used[key[1]] = True
            chosen.append(k)
            forced.append(key)
            continue
        if maximize:
            raise ValueError(f"forced pair {key} {problem}")
        return 0, ()

    best = -1 if maximize else n // 2 - 1
    leaves = 0
    best_pairs: tuple[tuple[int, int], ...] = ()
    is_red = [p.color is Color.RED for p in s]
    mono = mode is MatchMode.MONO

    def beats_best(lo: int, matched: int, free: int) -> bool:
        """Can a completion over the `free` unused points from `lo` up beat
        `best`?  It can match only points with a feasible partner: an unused
        one whose box conflicts with no chosen box.  A mono pair takes two
        points of one color, a bi pair one of each.  The scan stops once
        the count so far beats `best`, or once even counting every point
        left as feasible could not."""
        if matched > best:
            return True
        reds = blues = 0
        for p in range(lo, n):
            if used[p]:
                continue
            if matched + (reds + blues + free) // 2 <= best:
                return False
            free -= 1
            for q, k in partners_of[p]:
                if not used[q] and not conflicts(k):
                    if is_red[p]:
                        reds += 1
                    else:
                        blues += 1
                    if matched + (reds // 2 + blues // 2 if mono
                                  else min(reds, blues)) > best:
                        return True
                    break
        return False

    # A frame is [point, its partner iterator (None once the point has been
    # left unmatched), matched, free, the partner it is paired with or -1].
    # `free` counts the points neither processed nor paired yet.
    stack: list[list] = []
    lowest, matched, free = 0, len(forced), n - 2 * len(forced)
    while True:
        # Enter the node (lowest, matched, free), whose bound has passed.
        i = lowest
        while i < n and used[i]:
            i += 1
        if i < n:
            used[i] = True
            stack.append([i, iter(partners_of[i]), matched, free, -1])
        else:
            leaves += 1
            if maximize:  # the bound let only a better matching get here
                best = matched
                best_pairs = tuple(forced + [(f[0], f[4]) for f in stack if f[4] >= 0])
            elif objective == "decide":
                return leaves, ()
        # Move to the next child of the deepest frame that has one left.
        while stack:
            frame = stack[-1]
            i, partners, matched, free, j = frame
            if j >= 0:
                used[j] = False
                chosen.pop()
                frame[4] = -1
            if partners is not None:
                if matched + free // 2 > best:
                    for j, k in partners:
                        if used[j] or conflicts(k):
                            continue
                        used[j] = True
                        chosen.append(k)
                        if not maximize or beats_best(i + 1, matched + 1, free - 2):
                            break
                        used[j] = False
                        chosen.pop()
                    else:
                        j = -1
                    if j >= 0:
                        frame[4] = j
                        lowest, matched, free = i + 1, matched + 1, free - 2
                        break
                frame[1] = None
                if matched + (free - 1) // 2 > best and (
                    not maximize or beats_best(i + 1, matched, free - 1)
                ):
                    lowest, free = i + 1, free - 1
                    break
            used[i] = False
            stack.pop()
        else:
            return leaves, best_pairs


def brute_force_max_matching(
    s: PointSet,
    mode: MatchMode,
    *,
    max_points: int | None = None,
    forced_pairs: Sequence[tuple[int, int]] = (),
) -> Matching:
    """Exact maximum strong matching: the lexicographically least pair set
    among all maxima.

    `forced_pairs` pre-commits pairs (they count toward the result); a
    forced pair that is no candidate, conflicts or reuses a point raises
    ValueError.  Refuses instances larger than the guard (default 16,
    overridable via the RECTMATCH_ORACLE_GUARD environment variable or
    `max_points`) with GuardError.
    """
    return Matching(_search(s, mode, "max", max_points, forced_pairs)[1], mode)


def decide_perfect(
    s: PointSet,
    mode: MatchMode,
    *,
    max_points: int | None = None,
    forced_pairs: Sequence[tuple[int, int]] = (),
) -> bool:
    """Is there a perfect strong matching covering every point (and every
    forced pair)?  Parity and, for the bichromatic mode, color counts are
    checked first; the same size guard as the maximum oracle applies."""
    return _search(s, mode, "decide", max_points, forced_pairs)[0] > 0


def count_perfect_matchings(
    s: PointSet,
    mode: MatchMode,
    *,
    max_points: int | None = None,
    allowed_pairs: Sequence[tuple[int, int]] | None = None,
) -> int:
    """Number of distinct perfect strong matchings (guarded like the other
    oracles).  `allowed_pairs` restricts the usable pairs, for counting the
    matchings of a sub-structure whose blocking context lives elsewhere."""
    return _search(s, mode, "count", max_points, allowed_pairs=allowed_pairs)[0]


# ---------------------------------------------------------------------------
# Verification and serialization

@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    witnesses: tuple

    def __str__(self) -> str:
        flag = "pass" if self.ok else "FAIL"
        extra = f" {list(self.witnesses)}" if self.witnesses else ""
        return f"{self.name}: {flag}{extra}"


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[Check, ...]
    perfect: bool

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __str__(self) -> str:
        lines = [str(c) for c in self.checks]
        lines.append(f"perfect: {'yes' if self.perfect else 'no'}")
        return "\n".join(lines)


def verify_matching(s: PointSet, m: Matching) -> VerificationReport:
    """Check a claimed matching: pair validity and candidacy, the color rule
    of its mode, pairwise disjointness of the spanned rectangles, and report
    whether it is perfect.  Failures are recorded with witnesses, never
    raised.

    Disjointness is decided by `intersection_kinds` on the rectangles of
    the valid pairs."""
    bad_index = tuple(
        (i, j) for i, j in m.pairs
        if not (0 <= i < len(s) and 0 <= j < len(s) and i != j)
    )
    bad = set(bad_index)
    valid_pairs = [p for p in m.pairs if p not in bad]
    empty = set(empty_pairs(s))
    not_candidates = tuple(p for p in valid_pairs if p not in empty)
    candidacy = Check(
        "pairs_are_candidates", not bad_index and not not_candidates,
        bad_index + not_candidates,
    )

    same = m.mode is MatchMode.MONO
    bad_color = tuple(
        (i, j) for i, j in valid_pairs
        if (s[i].color is s[j].color) != same
    )
    color = Check("color_rule", not bad_color, bad_color)

    rects = [rect_from_pair(s, i, j) for i, j in valid_pairs]
    overlaps = tuple((valid_pairs[a], valid_pairs[b])
                     for a, b in intersection_kinds(s, rects))
    disjoint = Check("rects_pairwise_disjoint", not overlaps, overlaps)

    return VerificationReport(
        (candidacy, color, disjoint), perfect=m.covers(len(s))
    )


def report_to_dict(report: SolveReport) -> dict:
    return {
        "mode": report.matching.mode.value,
        "algorithm": report.algorithm,
        "pairs": [list(p) for p in report.matching.pairs],
        "size": len(report.matching),
        "optimal": report.optimal_size,
        "candidateCount": report.candidate_count,
        "familySizes": list(report.family_sizes),
    }


def report_to_json(report: SolveReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def matching_from_dict(d: dict) -> Matching:
    """Read a matching from its JSON form; a missing key or a value of the
    wrong shape raises a one-line ValueError that names the field."""
    mode = _json_field(d, "mode", str, "matching")
    pairs = _json_field(d, "pairs", list, "matching")
    for p in pairs:
        if not (isinstance(p, list) and len(p) == 2
                and all(type(i) is int for i in p)):
            raise ValueError(
                f"matching key 'pairs' must hold [i, j] pairs of point "
                f"indices, got {p!r}")
    return Matching(tuple(map(tuple, pairs)), MatchMode(mode))
