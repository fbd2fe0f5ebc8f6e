"""Quadratic and exhaustive reference implementations that the tests compare
the package against, and small helpers only the tests need.  The references
work on the points' exact `Fraction` coordinates, except `conflicts_naive`,
which checks the oracle's containers of chosen rank boxes."""
from __future__ import annotations

from typing import Iterable, NamedTuple

from rectmatch.errors import ContractError, GuardError
from rectmatch.geometry import (
    IntersectionKind,
    PointSet,
    _Grid,
    _meet,
    classify_intersection,
    rect_from_pair,
)
from rectmatch.independent_set import (
    IndependentSet,
    IntersectionGraph,
    PiercingDag,
    RectFamily,
)


class ExactBox(NamedTuple):
    """The rectangle of two points of a set in their exact coordinates."""

    xmin: object
    xmax: object
    ymin: object
    ymax: object


def exact_box(s: PointSet, i: int, j: int) -> ExactBox:
    p, q = s[i], s[j]
    return ExactBox(min(p.x, q.x), max(p.x, q.x), min(p.y, q.y), max(p.y, q.y))


def exact_grid(s: PointSet) -> _Grid:
    return _Grid([p.x for p in s], [p.y for p in s])


def classify_exact(s: PointSet, r1: tuple[int, int], r2: tuple[int, int]) -> IntersectionKind:
    """The kind of the rectangles of the index pairs r1 and r2 of s, by
    `_meet` on their exact `Fraction` boxes and the exact grid of s."""
    return _meet(exact_box(s, *r1), exact_box(s, *r2), exact_grid(s))


def empty_pairs_naive(s: PointSet) -> list[tuple[int, int]]:
    """Reference quadratic-pairs filter on the exact coordinates; used to
    cross-check the sweep."""
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


def matching_sizes_naive(s: PointSet, same_color: bool) -> tuple[int, int]:
    """(maximum size, number of perfect matchings) of the strong matchings
    of s, by enumerating every set of candidate pairs that is vertex-disjoint
    and pairwise `DISJOINT` by `classify_intersection`."""
    pairs = [
        (i, j) for i, j in empty_pairs_naive(s)
        if (s[i].color is s[j].color) == same_color
    ]
    rects = [rect_from_pair(s, i, j) for i, j in pairs]
    n = len(s)
    best, perfect = 0, 0

    def extend(start: int, used: frozenset, chosen: list) -> None:
        nonlocal best, perfect
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
    """True iff `_meet` finds that box meets one of the chosen rank boxes:
    the oracle's conflict test as a scan over every chosen box."""
    return any(_meet(box, b, grid) is not IntersectionKind.DISJOINT for b in chosen)


def gpc_subgraph(g: IntersectionGraph) -> IntersectionGraph:
    """Keep only piercing and corner edges."""
    kept = tuple(
        e for e in g.edges
        if e[2] in (IntersectionKind.PIERCING, IntersectionKind.CORNER)
    )
    return IntersectionGraph(g.n, kept)


def dump_edges(g: IntersectionGraph) -> str:
    """Debug dump: one `i j KIND` line per edge."""
    return "".join(f"{u} {v} {k.name}\n" for u, v, k in g.edges)


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
