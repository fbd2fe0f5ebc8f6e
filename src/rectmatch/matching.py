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
The maximum search branches on the lowest free point.  Decide and count,
where every point must be matched, branch first on a point with fewer
than two unused partners, which fails or has one child.
The search runs on the candidates' `Rect`s, whose bounds are ranks.  The
candidates are empty rectangles, so it decides conflicts by the rule of
empty rectangles that `geometry._dominance` states.  A search that can
choose at most a few dozen boxes works out once which candidates meet
which, as one bitmask per candidate read off masks, so a conflict test is
one bit test.  A larger one counts the chosen boxes at each point, which
settles a shared defining point and every test of a box one rank wide:
such a box meets no other empty rectangle but at its points.  It buckets
the longer chosen boxes by cell of the rank grid, so a test of a longer
box applies the rest of the rule to the boxes near it only, and it builds
a longer candidate's `Rect` the first time a test or a choice needs it.
The maximum search also prunes with the free points that still have a
feasible partner.  A small search keeps every candidate of a chosen or
unmatched point in its blocked mask, so that test is one AND per free
point.  The search stays exponential in the worst case.
"""
from __future__ import annotations

import json
import reprlib
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from rectmatch.errors import GuardError
from rectmatch.geometry import (
    Color,
    PointSet,
    Rect,
    _color_pairs,
    _dominance,
    _json_field,
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
            for i, j in canon:
                if i == j:
                    raise ValueError(f"pair [{i}, {j}] repeats point {i}")
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


# ---------------------------------------------------------------------------
# Family splits

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
    """One family per entry of `families`, each in the order of `f.rects`.
    A defining point on a rectangle's bottom rank is in its bottom-left
    corner if on its left rank, and bottom-right if on its right rank.

    Each rectangle gets a 4-bit code of the (corner, color) pairs of its
    defining points, bit `2 * corner + red`, and joins the families that a
    16-entry table, derived from `families`, lists for that code."""
    xr, yr = f.base._ranks
    red = [int(p.color is Color.RED) for p in f.base.points]
    table = [
        tuple(k for k, family in enumerate(families)
              if any(code >> (2 * corner + (color is Color.RED)) & 1
                     for corner, color in family))
        for code in range(16)
    ]
    out: tuple[list[int], ...] = tuple([] for _ in families)
    for k, (x1, x2, y1, _, a, b) in enumerate(f.rects):
        code = 0
        if yr[a] == y1:
            if xr[a] == x1:
                code = 1 << red[a]
            if xr[a] == x2:
                code |= 4 << red[a]
        if yr[b] == y1:
            if xr[b] == x1:
                code |= 1 << red[b]
            if xr[b] == x2:
                code |= 4 << red[b]
        for family in table[code]:
            out[family].append(k)
    return tuple(f.restrict(indices) for indices in out)


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
    dag = piercing_order(corner_elimination(fam))
    anti = max_antichain(dag)
    # The order that corner elimination hands on sits at the members' bit
    # positions in `fam`, which are their indices there.
    return IndependentSet(frozenset(dag.positions[i] for i in anti.members))


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
    order, each with the index of the pair among the candidates, and an
    empty container for at most `capacity` chosen candidates.
    `allowed_pairs`, when given, keeps only those pairs.

    The container is a `_ChosenMask` when `capacity` is at most
    `_INDEX_FROM`, else a `_ChosenIndex` whose cell side is the median
    extent of about `_SAMPLE` candidate boxes, taken evenly from the pairs
    in order.  A `_ChosenMask` works out every candidate's `Rect` up front,
    a `_ChosenIndex` builds only those longer than one rank, each the first
    time it is needed.  Both decide conflicts by the rule of empty
    rectangles (`geometry._dominance`), from the boxes and their defining
    points alone."""
    pairs = _color_pairs(s, mode is MatchMode.MONO)
    if allowed_pairs is not None:
        keep = {(min(i, j), max(i, j)) for i, j in allowed_pairs}
        pairs = [p for p in pairs if p in keep]
    xr, yr = s._ranks
    # The pairs come sorted, so each point's partners come in ascending order.
    partners = [[] for _ in range(len(s))]
    for k, (i, j) in enumerate(pairs):
        partners[i].append((j, k))
        partners[j].append((i, k))
    if capacity <= _INDEX_FROM:
        rects = [_rect(xr, yr, i, j) for i, j in pairs]
        return partners, _ChosenMask(rects, len(s))
    sample = sorted(max(abs(xr[i] - xr[j]), abs(yr[i] - yr[j]))
                    for i, j in pairs[::len(pairs) // _SAMPLE + 1])
    side = max(1, sample[len(sample) // 2]) if sample else 1
    return partners, _ChosenIndex(s._ranks, pairs, side)


class _ChosenMask:
    """The chosen candidates of a small search, as the bitmask `blocked` of
    the candidates that meet one of them or have a point left unmatched.
    The candidates are empty rectangles of a set of `points` points.  Bit k
    of `incident[p]` is set iff point p defines candidate k, and bit v of
    `conf[u]` iff candidates u and v meet: by the rule of empty rectangles
    (`geometry._dominance`), u's points' incidence masks ORed with its
    comparable and corner masks.  So with `leave` every candidate of a
    used point is in `blocked`.  `append` and `leave` save `blocked` before
    they OR in a mask, so `pop` restores it last in, first out."""

    __slots__ = ("conf", "incident", "blocked", "saved")

    def __init__(self, rects: Sequence[Rect], points: int):
        incident = [0] * points
        for k, r in enumerate(rects):
            incident[r.a] |= 1 << k
            incident[r.b] |= 1 << k
        self.conf = [incident[r.a] | incident[r.b] | above | below | corner
                     for r, (_, above, below, corner) in zip(rects, _dominance(rects))]
        self.incident = incident
        self.blocked = 0
        self.saved: list[int] = []

    def append(self, k: int) -> None:
        self.saved.append(self.blocked)
        self.blocked |= self.conf[k]

    def leave(self, p: int) -> None:
        """Point p stays unmatched: none of its candidates can be chosen."""
        self.saved.append(self.blocked)
        self.blocked |= self.incident[p]

    def pop(self) -> None:
        self.blocked = self.saved.pop()

    def conflicts(self, k: int) -> int:
        """Nonzero iff candidate k meets one of the chosen candidates."""
        return self.blocked >> k & 1


class _ChosenIndex:
    """The chosen candidates of a large search: a count of chosen boxes per
    defining point, and the boxes longer than one rank bucketed by the
    square cells of side `side` on the rank grid that they overlap.
    Candidate k is the pair `pairs[k]` of points whose x and y ranks are
    `ranks`; its `Rect` is built the first time `append` or `conflicts`
    needs it, since a search touches only some of the candidates.  A box
    that spans more than `_WIDE_CELLS` cells along an axis goes to the
    `wide` list instead.  `append`, `leave` and `pop` work last in, first
    out, so a popped box is the last one in each of its buckets; `leave`
    holds no box.

    A box of one rank, whose span along each axis is at most one rank,
    meets no other empty rectangle unless the two share a defining point.
    Say an empty box r meets such a box k: they overlap with positive
    area, or one pierces the other.  On one axis r's range then covers
    k's range or lies inside it, and on the other it covers it.  k's range
    spans at most one rank, so either way r's range holds one of k's end
    ranks on the first axis and all of k's range on the second.  k's
    defining points sit at opposite corners, so r holds one of them, and r
    is empty only if that point is one of its own.  So `conflicts` answers
    from the count when it can: True if one of k's points is counted,
    False if k spans one rank.  Else it tests the bucketed boxes in the
    cells of k and the wide ones, or every bucketed box when that is
    fewer, by the rest of the rule of empty rectangles
    (`geometry._dominance`)."""

    __slots__ = ("ranks", "pairs", "rects", "side", "count", "cells", "wide",
                 "boxes", "held")

    def __init__(self, ranks: tuple[list[int], list[int]],
                 pairs: Sequence[tuple[int, int]], side: int):
        self.ranks = ranks
        self.pairs = pairs
        self.rects: list[Rect | None] = [None] * len(pairs)
        self.side = side
        self.count = [0] * len(ranks[0])  # chosen boxes per defining point
        self.cells: defaultdict[tuple[int, int], list] = defaultdict(list)
        self.wide: list = []
        self.boxes: list = []  # the bucketed boxes, in push order
        self.held: list = []  # per push: its points and its box's buckets

    def _build(self, k: int) -> Rect:
        """Candidate k's `Rect`, built and kept."""
        i, j = self.pairs[k]
        box = self.rects[k] = _rect(*self.ranks, i, j)
        return box

    def append(self, k: int) -> None:
        i, j = self.pairs[k]
        count = self.count
        count[i] += 1
        count[j] += 1
        xr, yr = self.ranks
        if -2 < xr[i] - xr[j] < 2 and -2 < yr[i] - yr[j] < 2:
            self.held.append((i, j, ()))
            return
        box = self.rects[k] or self._build(k)
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
        self.held.append((i, j, held))

    def leave(self, p: int) -> None:
        self.held.append(None)

    def pop(self) -> None:
        pushed = self.held.pop()
        if pushed is not None:
            i, j, held = pushed
            self.count[i] -= 1
            self.count[j] -= 1
            if held:
                self.boxes.pop()
                for bucket in held:
                    bucket.pop()

    def conflicts(self, k: int) -> bool:
        """True iff candidate k meets one of the chosen candidates.  Past
        the count, a bucketed box that passes a test of the closed boxes
        meets k iff they overlap with positive area or one of the two
        pierces the other."""
        i, j = self.pairs[k]
        if self.count[i] or self.count[j]:
            return True
        box = self.rects[k]
        if box is None:  # only a box longer than one rank is ever built
            xr, yr = self.ranks
            if -2 < xr[i] - xr[j] < 2 and -2 < yr[i] - yr[j] < 2:
                return False
            box = self._build(k)
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
        for bucket in buckets:
            for r in bucket:
                if r[0] > x2 or r[1] < x1 or r[2] > y2 or r[3] < y1:
                    continue
                rx1, rx2, ry1, ry2, _, _ = r
                if ((x1 if x1 > rx1 else rx1) < (x2 if x2 < rx2 else rx2)
                        and (y1 if y1 > ry1 else ry1) < (y2 if y2 < ry2 else ry2)
                        or x1 <= rx1 and rx2 <= x2 and ry1 <= y1 and y2 <= ry2
                        or rx1 <= x1 and x2 <= rx2 and y1 <= ry1 and ry2 <= y2):
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
    reached and, for "max", the pairs of the best one.  A node's branch
    point is paired with each partner in ascending order, then left
    unmatched.  A counting bound, matched pairs plus half the free points,
    prunes every branch that cannot beat the incumbent size: "max" starts
    it at -1 and raises it at each leaf.  "decide" and "count" fix it at
    n/2 - 1, so only perfect matchings reach a leaf and no point is left
    unmatched; "decide" stops at the first.

    "max" branches on the lowest free point, which makes its first
    optimum the lexicographically least.  Where every point must be
    matched, any free point will do, so "decide" and "count" branch first
    on a forced one, with fewer than two unused partners: with none it
    fails its node at once, with one it has one child.  `options` counts
    each point's unused partners; `take` and `release` keep it as points
    are used and freed, and `take` stacks on `scarce` each free point
    whose count falls below 2.  At a node the first still-free point
    popped from `scarce` is the branch point, else the lowest free one.
    Stale entries only change the order, never the answer.  "max" updates
    no count past the forced pairs.

    "max" also bounds each child by the free points that still have a
    feasible partner (`beats_best`): an unused one whose box conflicts with
    no chosen box.  A point left unmatched is pushed on the container with
    `leave`, so a `_ChosenMask` answers that with one AND per free point.
    Both bounds are upper bounds on every completion, so no ancestor of
    the first optimal leaf is pruned, and the first optimum found, the
    lexicographically least pair set, is the one kept.  The stack is
    explicit, so the depth of the search is not limited by Python's
    recursion limit.

    The chosen candidates live in the container `_search_space` picks
    once per search from n // 2, the most boxes the search can choose: a
    `_ChosenMask` up to `_INDEX_FROM`, a `_ChosenIndex` beyond.  The
    partner lists name each candidate by its index, which both containers
    take.  Both push and pop in step with the stack and give the same
    conflict and feasibility answers, so the choice changes only the time
    taken.  Most boxes of a compiled formula span one rank, and a
    `_ChosenIndex` answers for those from its count of chosen boxes per
    point, with no box built or bucketed.
    """
    limit = max_points if max_points is not None else DEFAULT_ORACLE_GUARD
    n = len(s)
    if n > limit:
        raise GuardError(
            f"{n} points exceeds the oracle guard of {limit}; raise "
            "max_points or --guard"
        )
    maximize = objective == "max"
    perfect = not maximize  # decide and count: every point must be matched
    if perfect and (
        n % 2 or (mode is MatchMode.BI and s.count(Color.RED) != s.count(Color.BLUE))
    ):
        return 0, ()
    partners_of, chosen = _search_space(s, mode, n // 2, allowed_pairs)
    conflicts = chosen.conflicts
    used = [False] * n
    options = [len(partners) for partners in partners_of]
    scarce = [p for p in range(n - 1, -1, -1) if options[p] < 2]

    def take(p: int) -> None:
        used[p] = True
        for q, _ in partners_of[p]:
            options[q] -= 1
            if options[q] < 2 and not used[q]:
                scarce.append(q)

    def release(p: int) -> None:
        used[p] = False
        for q, _ in partners_of[p]:
            options[q] += 1

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
            take(key[0])
            take(key[1])
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
    incident = chosen.incident if isinstance(chosen, _ChosenMask) else None

    def beats_best(lo: int, matched: int, free: int) -> bool:
        """Can a completion over the `free` unused points from `lo` up beat
        `best`?  It can match only points with a feasible partner: an unused
        one whose box conflicts with no chosen box.  A mono pair takes two
        points of one color, a bi pair one of each.  The scan stops once
        the count so far beats `best`, or once so many points lack a
        feasible partner that the rest could not.  A `_ChosenMask` holds
        every candidate of a used point in `blocked`, so a point has a
        feasible partner iff one of its candidates is not blocked: one AND.
        Under a `_ChosenIndex` the point's partners are walked."""
        need = best - matched
        if need < 0:
            return True
        # How many free points may lack a feasible partner before even
        # pairing all the others could not beat `best`.
        spare = free - 2 * need - 2
        reds = blues = 0
        live = ~chosen.blocked if incident is not None else 0
        for p in range(lo, n):
            if used[p]:
                continue
            if incident is not None:
                feasible = incident[p] & live
            else:
                feasible = any(not used[q] and not conflicts(k)
                               for q, k in partners_of[p])
            if not feasible:
                spare -= 1
                if spare < 0:
                    return False
                continue
            if is_red[p]:
                reds += 1
            else:
                blues += 1
            pairs = (reds // 2 + blues // 2 if mono
                     else reds if reds < blues else blues)
            if pairs > need:
                return True
        return False

    # A frame is [point, its partner iterator (None once the point has been
    # left unmatched), matched, free, the partner it is paired with or -1,
    # where its children start to look for the lowest free point].  `free`
    # counts the points neither processed nor paired yet.  A point left
    # unmatched is pushed on `chosen` with `leave` while its child is
    # searched, and popped with its frame.
    stack: list[list] = []
    lowest, matched, free = 0, len(forced), n - 2 * len(forced)
    while True:
        # Enter the node (lowest, matched, free), whose bound has passed.
        i = lowest
        while i < n and used[i]:
            i += 1
        if i < n:
            low = i + 1
            if perfect:
                while scarce:
                    p = scarce.pop()
                    if not used[p]:
                        i, low = p, i
                        break
                take(i)
            else:
                used[i] = True
            stack.append([i, iter(partners_of[i]), matched, free, -1, low])
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
            i, partners, matched, free, j, low = frame
            if j >= 0:
                if perfect:
                    release(j)
                else:
                    used[j] = False
                chosen.pop()
                frame[4] = -1
            if partners is not None:
                if matched + free // 2 > best:
                    for j, k in partners:
                        if used[j] or conflicts(k):
                            continue
                        chosen.append(k)
                        if perfect:
                            take(j)
                            break
                        used[j] = True
                        if beats_best(low, matched + 1, free - 2):
                            break
                        used[j] = False
                        chosen.pop()
                    else:
                        j = -1
                    if j >= 0:
                        frame[4] = j
                        lowest, matched, free = low, matched + 1, free - 2
                        break
                frame[1] = None
                if matched + (free - 1) // 2 > best:
                    chosen.leave(i)
                    if perfect or beats_best(low, matched, free - 1):
                        lowest, free = low, free - 1
                        break
                    chosen.pop()
            else:
                chosen.pop()
            if perfect:
                release(i)
            else:
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
    `max_points` to raise it) with GuardError.
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
    raised.  A pair (i, j) has i < j, as `Matching` keeps it, so it is
    valid when i >= 0 and j < len(s); a matching with an invalid pair is
    not perfect.

    Disjointness is decided by `intersection_kinds` on the rectangles of
    the valid pairs."""
    bad_index = tuple((i, j) for i, j in m.pairs if i < 0 or j >= len(s))
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

    return VerificationReport((candidacy, color, disjoint),
                              perfect=not bad_index and m.covers(len(s)))


def matching_to_dict(m: Matching, algorithm: str) -> dict:
    return {"mode": m.mode.value, "algorithm": algorithm,
            "pairs": [list(p) for p in m.pairs], "size": len(m)}


def report_to_dict(report: SolveReport) -> dict:
    return {
        **matching_to_dict(report.matching, report.algorithm),
        "optimal": report.optimal_size,
        "candidateCount": report.candidate_count,
        "familySizes": list(report.family_sizes),
    }


def report_to_json(report: SolveReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def matching_from_dict(d: dict) -> Matching:
    """Read a matching from its JSON form; a missing key or a value of the
    wrong shape raises a one-line ValueError that names the field and
    echoes the value through `reprlib.repr`, which caps its length."""
    mode = _json_field(d, "mode", str, "matching")
    pairs = _json_field(d, "pairs", list, "matching")
    for p in pairs:
        if not (isinstance(p, list) and len(p) == 2
                and all(type(i) is int for i in p)):
            raise ValueError(
                f"matching key 'pairs' must hold [i, j] pairs of point "
                f"indices, got {reprlib.repr(p)}")
    if mode not in {m.value for m in MatchMode}:
        raise ValueError(f"matching key 'mode' must be 'monochromatic' or "
                         f"'bichromatic', got {mode!r}")
    return Matching(tuple(map(tuple, pairs)), MatchMode(mode))
