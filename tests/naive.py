"""Quadratic and exhaustive reference implementations that the tests compare
the package against, and small helpers only the tests need.  The references
work on the points' exact `Fraction` coordinates, except these ten:
`meet_naive` names the kind of a meeting by the corners of each box that
lie strictly inside the other, on boxes in any ordered coordinates, so it
checks `_meet` on rank boxes as well as on exact ones; `empty_pairs_scan`
checks `empty_pairs` on sets too large for the cubic `empty_pairs_naive`,
`conflicts_naive` checks the oracle's containers of chosen rank boxes,
`complete_witness_naive` checks corner elimination's completeness test and
`complete_witness` one corner pair at a time, `pairwise_kinds_naive`
classifies the non-piercing pairs of any family, where `pairwise_kinds`
takes only antichains, `exact_independent_naive` checks
`exact_independent_rects` in three separate stages, from the corner
survivors of `survivors_naive`, `antichain_by_kuhn` checks `max_antichain`
on a given order, `split_naive` checks the family split one set of corners
per rectangle, and `layout_naive` checks `build_layout` one clause pair at
a time."""
from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from rectmatch.errors import ContractError, GuardError
from rectmatch.gadgets import Formula, GadgetInstance
from rectmatch.geometry import (
    Color,
    IntersectionKind,
    PointSet,
    Rect,
    _Grid,
    _bits,
    _dominance,
    classify_intersection,
    intersection_kinds,
    rect_from_pair,
)
from rectmatch.independent_set import (
    IndependentSet,
    IntersectionGraph,
    PiercingDag,
    RectFamily,
    _crossing_keys,
    _left_right,
    max_antichain,
)
from rectmatch.matching import _BL, _BR


class ExactBox(NamedTuple):
    """The rectangle of two points of a set in their exact coordinates."""

    xmin: object
    xmax: object
    ymin: object
    ymax: object


def exact_box(s: PointSet, i: int, j: int) -> ExactBox:
    p, q = s[i], s[j]
    return ExactBox(min(p.x, q.x), max(p.x, q.x), min(p.y, q.y), max(p.y, q.y))


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


def is_general_position(s: PointSet) -> bool:
    """True iff all x coordinates are distinct and all y coordinates are distinct."""
    xs = {p.x for p in s}
    ys = {p.y for p in s}
    return len(xs) == len(s) and len(ys) == len(s)


def exact_grid(s: PointSet) -> _Grid:
    return _Grid([p.x for p in s], [p.y for p in s])


def meet_naive(r1, r2, grid: _Grid) -> IntersectionKind:
    """The kind of the meeting of two closed boxes, read by position as
    (xmin, xmax, ymin, ymax, ...), given the grid of the point set in the
    same coordinates.  In order: disjoint; piercing, when one box's
    x-projection contains the other's and the other's y-projection
    contains the first's; a zero-area overlap is disjoint when it holds no
    point of the set, else a point or a side; then corner, when each box
    has exactly one of its distinct corners strictly inside the other and
    neither corner is a point of the set; side otherwise."""
    ax1, ax2, ay1, ay2 = r1[:4]
    bx1, bx2, by1, by2 = r2[:4]
    lox, hix = max(ax1, bx1), min(ax2, bx2)
    loy, hiy = max(ay1, by1), min(ay2, by2)
    if lox > hix or loy > hiy:
        return IntersectionKind.DISJOINT
    if (ax1 <= bx1 and bx2 <= ax2 and by1 <= ay1 and ay2 <= by2) or (
            bx1 <= ax1 and ax2 <= bx2 and ay1 <= by1 and by2 <= ay2):
        return IntersectionKind.PIERCING
    if lox == hix or loy == hiy:
        if not grid.occupied(lox, hix, loy, hiy):
            return IntersectionKind.DISJOINT
        if lox == hix and loy == hiy:
            return IntersectionKind.POINT
        return IntersectionKind.SIDE

    def inside(outer, corners):
        x1, x2, y1, y2 = outer
        return [(x, y) for x, y in corners if x1 < x < x2 and y1 < y < y2]

    in_1 = inside((ax1, ax2, ay1, ay2), {(x, y) for x in (bx1, bx2) for y in (by1, by2)})
    in_2 = inside((bx1, bx2, by1, by2), {(x, y) for x in (ax1, ax2) for y in (ay1, ay2)})
    if len(in_1) == 1 and len(in_2) == 1 and not any(
            grid.occupied(x, x, y, y) for x, y in in_1 + in_2):
        return IntersectionKind.CORNER
    return IntersectionKind.SIDE


def classify_exact(s: PointSet, r1: tuple[int, int], r2: tuple[int, int]) -> IntersectionKind:
    """The kind of the rectangles of the index pairs r1 and r2 of s, by
    `meet_naive` on their exact `Fraction` boxes and the exact grid of s."""
    return meet_naive(exact_box(s, *r1), exact_box(s, *r2), exact_grid(s))


def empty_pairs_naive(s: PointSet) -> list[tuple[int, int]]:
    """Every pair tested against every third point, on the exact
    coordinates: O(n^3)."""
    out = []
    n = len(s)
    for i in range(n):
        for j in range(i + 1, n):
            b = exact_box(s, i, j)
            if not any(
                b.xmin <= s[k].x <= b.xmax and b.ymin <= s[k].y <= b.ymax
                for k in range(n) if k != i and k != j
            ):
                out.append((i, j))
    return out


def empty_pairs_scan(s: PointSet) -> list[tuple[int, int]]:
    """`empty_pairs` of s by the same window rule, each anchor stepping
    through every later point in (x, y) order of the ranks until one level
    with it; its window is the y ranks [lo, hi).  It takes O(n^2) steps,
    so it is the reference on sets too large for `empty_pairs_naive`."""
    xr, yr = s._ranks
    order = sorted(range(len(s)), key=lambda k: (xr[k], yr[k]))
    xs = [xr[k] for k in order]
    ys = [yr[k] for k in order]
    n = len(order)
    out: list[tuple[int, int]] = []
    if n < 2:
        return out
    top = max(ys) + 1
    xs.append(-1)  # the last point has no column successor
    for pos in range(n):
        i, py = order[pos], ys[pos]
        lo = ys[pos - 1] + 1 if pos and xs[pos - 1] == xs[pos] else 0
        hi = top
        for q in range(pos + 1, n):
            qy = ys[q]
            if qy >= py:
                if qy < hi:
                    j = order[q]
                    out.append((i, j) if i < j else (j, i))
                    if qy == py:
                        break
                    hi = qy
            elif qy >= lo:
                if xs[q + 1] != xs[q] or ys[q + 1] > py:
                    j = order[q]
                    out.append((i, j) if i < j else (j, i))
                lo = qy + 1
    out.sort()
    return out


def square_symmetries(s: PointSet) -> list[PointSet]:
    """s under each of the eight symmetries of the square, the maps
    (x, y) -> (+-x, +-y) and (x, y) -> (+-y, +-x), the identity first."""
    return [
        PointSet.from_tuples(
            ((sx * p.y, sy * p.x) if swap else (sx * p.x, sy * p.y)) + (p.color,)
            for p in s)
        for swap in (False, True) for sx in (1, -1) for sy in (1, -1)
    ]


def recolored(s: PointSet) -> PointSet:
    """s with red and blue swapped."""
    swap = {Color.RED: Color.BLUE, Color.BLUE: Color.RED}
    return PointSet.from_tuples((p.x, p.y, swap[p.color]) for p in s)


def checked_family(base: PointSet, rects: Iterable[Rect]) -> RectFamily:
    """The family of `rects` over `base`, after checking that each member
    contains no third point of `base`.  The first member that does raises
    ValueError naming it and the lowest such point, at its exact
    coordinates."""
    rects = tuple(rects)
    xr, yr = base._ranks
    for r in rects:
        k = next((k for k in range(len(base)) if k != r.a and k != r.b
                  and r.xmin <= xr[k] <= r.xmax and r.ymin <= yr[k] <= r.ymax),
                 None)
        if k is not None:
            p = base[k]
            raise ValueError(
                f"rect {r.key} is not empty: contains point {k} at ({p.x}, {p.y})"
            )
    return RectFamily(base, rects)


def split_naive(f: RectFamily, families) -> tuple[RectFamily, ...]:
    """The split of `matching._split`, by its rule stated per rectangle: the
    set of (corner, color) of its defining points in a bottom corner, where
    a point on the bottom rank is bottom-left on the left rank and
    bottom-right on the right rank, and every family that the set meets."""
    xr, yr = f.base._ranks
    out: tuple[list[int], ...] = tuple([] for _ in families)
    for k, r in enumerate(f.rects):
        corners = {
            (corner, f.base[idx].color)
            for idx in (r.a, r.b) if yr[idx] == r.ymin
            for corner, x in ((_BL, r.xmin), (_BR, r.xmax)) if xr[idx] == x
        }
        for indices, family in zip(out, families):
            if corners & family:
                indices.append(k)
    return tuple(f.restrict(indices) for indices in out)


def matching_sizes_naive(
    s: PointSet,
    same_color: bool,
    forced_pairs: Sequence[tuple[int, int]] = (),
    allowed_pairs: Sequence[tuple[int, int]] | None = None,
) -> tuple[int, int]:
    """(maximum size, number of perfect matchings) of the strong matchings
    of s, by enumerating every set of candidate pairs that is vertex-disjoint
    and pairwise `DISJOINT` by `classify_intersection`.

    Only the sets that hold every pair of `forced_pairs` count, and when
    `allowed_pairs` is given, only its pairs are candidates; a pair is
    taken in either order.  When no set counts, the maximum is -1: so it
    is when the forced pairs name a point twice, even as one pair given
    twice or a pair of one point."""
    if len({i for p in forced_pairs for i in p}) != 2 * len(forced_pairs):
        return -1, 0
    forced = {(min(i, j), max(i, j)) for i, j in forced_pairs}
    pairs = [
        (i, j) for i, j in empty_pairs_naive(s)
        if (s[i].color is s[j].color) == same_color
    ]
    if allowed_pairs is not None:
        allowed = {(min(i, j), max(i, j)) for i, j in allowed_pairs}
        pairs = [p for p in pairs if p in allowed]
    rects = [rect_from_pair(s, i, j) for i, j in pairs]
    n = len(s)
    best, perfect = -1, 0

    def extend(start: int, used: frozenset, chosen: list) -> None:
        nonlocal best, perfect
        if forced <= {pairs[k] for k in chosen}:
            best = max(best, len(chosen))
            perfect += 2 * len(chosen) == n
        for k in range(start, len(pairs)):
            i, j = pairs[k]
            if i in used or j in used:
                continue
            if any(classify_intersection(s, rects[k], rects[c])
                   is not IntersectionKind.DISJOINT for c in chosen):
                continue
            extend(k + 1, used | {i, j}, chosen + [k])

    extend(0, frozenset(), [])
    return best, perfect


def dense_ranks_naive(values: list) -> list[int]:
    """The rank of each value among the distinct values, through a set and
    a dict of the values themselves."""
    rank = {v: k for k, v in enumerate(sorted(set(values)))}
    return [rank[v] for v in values]


def conflicts_naive(box, chosen, grid) -> bool:
    """True iff `meet_naive` finds that box meets one of the chosen rank
    boxes: the answer that the oracle's conflict test must give on empty
    boxes, as a scan over every chosen box."""
    return any(meet_naive(box, b, grid) is not IntersectionKind.DISJOINT for b in chosen)


def complete_witness_naive(f: RectFamily):
    """`complete_witness` as a walk over the corner pairs (u, v), u < v, of
    the family's corner masks in order: the first that lacks one of its
    crossing rectangles, with the missing key, or None."""
    keys = f.keys()
    ends = _left_right(f)
    for u, mask in enumerate(f._corners):
        for k in _bits(mask >> (u + 1)):
            v = u + 1 + k
            k1, k2 = _crossing_keys(ends[u], ends[v])
            if k1 not in keys or k2 not in keys:
                return (u, v), k1 if k1 not in keys else k2
    return None


def pairwise_kinds_naive(f: RectFamily) -> dict[tuple[int, int], IntersectionKind]:
    """The kind of every intersecting pair (u, v), u < v, of members of f
    that do not pierce one another, keys in sorted order: the corner, point
    and side pairs of `intersection_kinds`.  On an antichain with no corner
    pair, `pairwise_kinds` must give the same."""
    return {uv: kind for uv, kind in intersection_kinds(f.base, f.rects).items()
            if kind is not IntersectionKind.PIERCING}


def survivors_naive(f: RectFamily) -> list[int]:
    """The members that corner elimination keeps, ascending: the members
    visited in key order, each kept unless its corner mask, read off the
    whole family's corner masks, meets the survivors so far."""
    corners = f._corners
    keys = [r.key for r in f.rects]
    kept = 0
    for u in sorted(range(len(keys)), key=keys.__getitem__):
        if not corners[u] & kept:
            kept |= 1 << u
    return list(_bits(kept))


def exact_independent_naive(f: RectFamily) -> frozenset[int]:
    """`matching.exact_independent_rects` of a complete family in three
    separate stages: the survivors of corner elimination
    (`survivors_naive`); a second `_dominance` pass over the survivors,
    numbered 0 ... k-1, for the piercing order; and the chain cover
    (`max_antichain`) of that order, mapped back to indices of f."""
    survivors = survivors_naive(f)
    above = tuple(m ^ (1 << u) for u, m, _, _ in _dominance([f.rects[i] for i in survivors]))
    anti = max_antichain(PiercingDag(len(survivors), above))
    return frozenset(survivors[i] for i in anti.members)


def gpc_subgraph(g: IntersectionGraph) -> IntersectionGraph:
    """Keep only piercing and corner edges."""
    kept = tuple(
        e for e in g.edges
        if e[2] in (IntersectionKind.PIERCING, IntersectionKind.CORNER)
    )
    return IntersectionGraph(g.n, kept)


def gpc_alpha(f: RectFamily) -> tuple[int, int]:
    """The independence number of f's piercing+corner conflict graph, whose
    edges are the piercing and corner pairs of `intersection_kinds`, and
    the number of its piercing edges."""
    kinds = intersection_kinds(f.base, f.rects)
    g = gpc_subgraph(IntersectionGraph(len(f.rects), tuple(
        (u, v, k) for (u, v), k in kinds.items())))
    alpha = len(mis_of_graph(g.n, [(u, v) for u, v, _ in g.edges]).members)
    return alpha, sum(k is IntersectionKind.PIERCING for _, _, k in g.edges)


def dump_edges(g: IntersectionGraph) -> str:
    """Debug dump: one `i j KIND` line per edge."""
    return "".join(f"{u} {v} {k.name}\n" for u, v, k in g.edges)


def dag_from_arcs(n: int, arcs: Iterable[tuple[int, int]]) -> PiercingDag:
    """The `PiercingDag` on n elements whose arcs u -> v are `arcs`."""
    above = [0] * n
    for u, v in arcs:
        above[u] |= 1 << v
    return PiercingDag(n, tuple(above))


def kuhn_matching(n: int, adj: Sequence[Sequence[int]]) -> dict[int, int]:
    """Maximum bipartite matching (left u -> right v) by augmenting paths.

    Each augmenting search is a depth-first walk from one left vertex over
    the right vertices not yet seen in that search.  Its stack is explicit,
    so a path may be longer than Python's recursion limit."""
    match_right: dict[int, int] = {}
    match_left: dict[int, int] = {}
    for root in range(n):
        if not adj[root]:
            continue
        v = adj[root][0]
        if v not in match_right:  # most searches end at their first step
            match_right[v] = root
            match_left[root] = v
            continue
        seen: set[int] = set()
        # The walk is at left vertex u with its edges `it` left to try; each
        # stack entry is an ancestor, its edges left and the right vertex
        # through which the walk left it.
        u, it = root, iter(adj[root])
        stack: list[tuple] = []
        while True:
            for v in it:
                if v not in seen:
                    break
            else:
                if not stack:
                    break
                u, it, _ = stack.pop()
                continue
            seen.add(v)
            w = match_right.get(v)
            if w is None:
                match_right[v] = u
                match_left[u] = v
                for x, _, y in stack:
                    match_right[y] = x
                    match_left[x] = y
                break
            stack.append((u, it, v))
            u, it = w, iter(adj[w])
    return match_left


def antichain_by_kuhn(d: PiercingDag) -> frozenset[int]:
    """The antichain that `max_antichain` reads off a maximum matching of
    the split order, with the matching found by `kuhn_matching` on the
    sorted arcs and the alternating reachability walked over sets."""
    n = d.n
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(d.arcs):
        adj[u].append(v)
    match_left = kuhn_matching(n, adj)
    match_right = {v: u for u, v in match_left.items()}
    reach_left = {u for u in range(n) if u not in match_left}
    reach_right: set[int] = set()
    frontier = list(reach_left)
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if v in reach_right or match_left.get(u) == v:
                continue
            reach_right.add(v)
            w = match_right.get(v)
            if w is not None and w not in reach_left:
                reach_left.add(w)
                frontier.append(w)
    return frozenset(reach_left - reach_right)


def order_violation(d: PiercingDag) -> tuple | None:
    """A witness that the arcs of `d` are not a transitively closed strict
    partial order, or None: `("cycle", u, v)` for arcs u -> v and v -> u,
    or `("not transitive", u, v, w)` for arcs u -> v -> w without u -> w."""
    out = [0] * d.n  # bitmask of successors
    for u, v in d.arcs:
        out[u] |= 1 << v
    for u in range(d.n):
        rest = out[u]
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if (out[v] >> u) & 1:
                return ("cycle", u, v)
            missing = out[v] & ~out[u] & ~(1 << u)
            if missing:
                return ("not transitive", u, v, (missing & -missing).bit_length() - 1)
    return None


def _greedy_independent(n: int, adj_mask: list[int]) -> int:
    taken = 0
    forbidden = 0
    for v in sorted(range(n), key=lambda x: bin(adj_mask[x]).count("1")):
        if not (forbidden >> v) & 1:
            taken |= 1 << v
            forbidden |= adj_mask[v] | (1 << v)
    return taken


def mis_of_graph(n: int, conflict_pairs: Iterable[tuple[int, int]]) -> IndependentSet:
    """Exact maximum independent set of an arbitrary conflict graph by
    branch and bound (greedy seed, popcount bound, max-degree pivot)."""
    adj = [0] * n
    for u, v in conflict_pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    seed = _greedy_independent(n, adj)
    best_mask = seed
    best_size = bin(seed).count("1")

    def popcount(x: int) -> int:
        return bin(x).count("1")

    def expand(cand: int, cur_mask: int, cur_size: int) -> None:
        nonlocal best_mask, best_size
        if cur_size + popcount(cand) <= best_size:
            return
        if cand == 0:
            best_mask, best_size = cur_mask, cur_size
            return
        # Pivot on the candidate with most candidate-neighbours.
        pivot, pivot_deg = -1, -1
        rest = cand
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            deg = popcount(adj[v] & cand)
            if deg > pivot_deg:
                pivot, pivot_deg = v, deg
        bit = 1 << pivot
        expand(cand & ~bit & ~adj[pivot], cur_mask | bit, cur_size + 1)
        expand(cand & ~bit, cur_mask, cur_size)

    expand((1 << n) - 1, 0, 0)
    members = frozenset(v for v in range(n) if (best_mask >> v) & 1)
    return IndependentSet(members)


def brute_force_mis(
    f: RectFamily, *, max_rects: int = 32, force: bool = False
) -> IndependentSet:
    """Exact maximum independent set of the full intersection graph, where
    every non-disjoint pair conflicts.  Guarded: refuses families larger
    than `max_rects` unless `force` is set."""
    if len(f.rects) > max_rects and not force:
        raise GuardError(
            f"{len(f.rects)} rectangles exceeds the oracle guard of "
            f"{max_rects}; pass force=True to run anyway"
        )
    m = len(f.rects)
    conflicts = [
        (u, v) for u in range(m) for v in range(u + 1, m)
        if classify_intersection(f.base, f.rects[u], f.rects[v])
        is not IntersectionKind.DISJOINT
    ]
    result = mis_of_graph(m, conflicts)
    conflict_set = set(conflicts)
    for u in result.members:
        for v in result.members:
            if u < v and (u, v) in conflict_set:
                raise ContractError(f"oracle output not independent: {u}, {v}")
    return result


def comb_conflict(f: Formula, ca: int, cb: int) -> bool:
    """The pairwise layout rule: True iff the combs of two clauses on one
    side cannot both be drawn.  They can when their variable spans are
    disjoint, share one endpoint variable without nesting, or nest with no
    leg of the outer clause strictly inside the inner span.  Equal spans
    nest both ways, so each has its middle leg inside the other."""
    order = {v: k for k, v in enumerate(f.variables)}
    legs = {ci: {order[lit.var] for lit in f.clauses[ci].literals} for ci in (ca, cb)}
    (l1, r1), (l2, r2) = ((min(legs[ci]), max(legs[ci])) for ci in (ca, cb))
    if l1 <= l2 and r2 <= r1 or l2 <= l1 and r1 <= r2:
        outer, (li, ri) = (ca, (l2, r2)) if l1 <= l2 and r2 <= r1 else (cb, (l1, r1))
        return any(li < v < ri for v in legs[outer])
    return max(l1, l2) < min(r1, r2)


def layout_naive(f: Formula) -> tuple[dict, dict]:
    """`build_layout`'s levels and slot order by the pairwise rule.  Raises
    ValueError at the first same-side pair, in clause order and above
    first, for which `comb_conflict` holds.  A clause's level is one more
    than the highest level of a same-side span strictly inside its own,
    found by visiting the spans by width."""
    order = {v: k for k, v in enumerate(f.variables)}
    spans = {}
    for ci, c in enumerate(f.clauses):
        idxs = sorted(order[lit.var] for lit in c.literals)
        spans[ci] = (idxs[0], idxs[-1])
    by_side = {side: [ci for ci, c in enumerate(f.clauses) if c.side == side]
               for side in ("above", "below")}
    for side, cis in by_side.items():
        for a_pos, ca in enumerate(cis):
            for cb in cis[a_pos + 1:]:
                if comb_conflict(f, ca, cb):
                    raise ValueError(f"clauses {ca} and {cb} cross on side {side!r}")
    levels = {}
    for ci in sorted(spans, key=lambda ci: spans[ci][1] - spans[ci][0]):
        l, r = spans[ci]
        levels[ci] = 1 + max((
            levels[cj] for cj in by_side[f.clauses[ci].side]
            if l <= spans[cj][0] and spans[cj][1] <= r and spans[cj] != spans[ci]
        ), default=-1)
    slot_order = {}
    for v, vi in order.items():
        for side in ("above", "below"):
            incident = [ci for ci in by_side[side]
                        if any(lit.var == v for lit in f.clauses[ci].literals)]
            right_enders = sorted(
                (ci for ci in incident if spans[ci][1] == vi),
                key=lambda ci: -spans[ci][0])
            middles = [ci for ci in incident if spans[ci][0] < vi < spans[ci][1]]
            left_enders = sorted(
                (ci for ci in incident if spans[ci][0] == vi),
                key=lambda ci: -spans[ci][1])
            if len(middles) > 1:
                raise ValueError(f"clauses {middles} both pass through {v!r}")
            slot_order[(v, side)] = right_enders + middles + left_enders
    return levels, slot_order


# ---------------------------------------------------------------------------
# Known matchings of the gadgets, which the hardness tests force or look for.

def blue_points(g: GadgetInstance) -> PointSet:
    """The blue points of g, which come before its red fill."""
    return PointSet(g.points.points[: g.blue_count])


def variable_matching_pairs(degree: int, assignment: bool) -> list[tuple[int, int]]:
    """Local index pairs of the gadget's two perfect matchings: the
    1-matching pairs point i with i+1 for odd i (1-based), the 0-matching
    for even i, indices cyclic."""
    n = 6 * degree + 4
    if assignment:
        return [(i, i + 1) for i in range(0, n, 2)]
    return [(i, i + 1) for i in range(1, n - 1, 2)] + [(n - 1, 0)]


def forced_variable_pairs(g: GadgetInstance, assignment: dict[str, bool]):
    """Global index pairs pinning every variable boundary to its 0- or
    1-matching under the given assignment (for clause truth-table tests)."""
    pairs = []
    for v, meta in g.provenance["variables"].items():
        base, deg = meta["start"], meta["degree"]
        for i, j in variable_matching_pairs(deg, assignment[v]):
            pairs.append((base + i, base + j))
    return pairs


def red_vertical_pairs(g: GadgetInstance) -> list[tuple[int, int]]:
    """The index pairs of the fill's vertical red matching: every odd-row
    red is the one-unit-down copy of the red directly above it."""
    pos = {(p.x, p.y): i for i, p in enumerate(g.points)}
    pairs = []
    for i, p in enumerate(g.points):
        if p.color is Color.RED and p.y % 2 == 1:
            j = pos[(p.x, p.y + 1)]
            pairs.append((min(i, j), max(i, j)))
    return sorted(pairs)
