"""Independent sets in families of empty rectangles.

A rectangle family lives over a base point set; every member must contain
exactly its two defining points.  The conflict structure splits by
intersection kind: piercing and corner conflicts form the subgraph that can
be solved exactly (corner pairs are eliminated one rectangle at a time, the
piercing leftovers form a strict partial order whose maximum antichain is
computed by minimum chain cover), while point contacts are handled later by
a two-coloring of what remains.  The exact independent-set oracle that
checks these stages is test-side, in `tests/naive.py`.

Each family's intersection structure is built once, by an x-sweep over the
members' rank boxes that reports only the intersecting pairs.  It is
kept on the family, and the sub-families that `RectFamily.restrict` makes
(the survivors of corner elimination, the chosen antichain) inherit it, so
the completeness check, corner elimination, the piercing order and the
contact graph all read one structure and nothing is classified twice.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from rectmatch.errors import ContractError
from rectmatch.geometry import (
    IntersectionKind,
    PointSet,
    Rect,
    empty_pairs,
    intersection_kinds,
    pierces,
)


@dataclass(frozen=True)
class RectFamily:
    base: PointSet
    rects: tuple[Rect, ...]

    def __post_init__(self):
        keys = set()
        for r in self.rects:
            if r.key in keys:
                raise ValueError(f"duplicate rectangle {r.key}")
            keys.add(r.key)

    @classmethod
    def checked(cls, base: PointSet, rects: Iterable[Rect]) -> "RectFamily":
        """Build a family, verifying each member contains only its two points."""
        rects = tuple(rects)
        empty = set(empty_pairs(base))
        xr, yr = base._ranks
        for r in rects:
            if r.key in empty:
                continue
            k = next(k for k in range(len(base)) if k != r.a and k != r.b
                     and r.xmin <= xr[k] <= r.xmax and r.ymin <= yr[k] <= r.ymax)
            p = base[k]
            raise ValueError(
                f"rect {r.key} is not empty: contains point {k} at ({p.x}, {p.y})"
            )
        return cls(base, rects)

    def __len__(self) -> int:
        return len(self.rects)

    def keys(self) -> frozenset[tuple[int, int]]:
        return frozenset(r.key for r in self.rects)

    @cached_property
    def _kinds(self) -> dict[tuple[int, int], IntersectionKind]:
        """`pairwise_kinds(self)`, computed once per family."""
        return pairwise_kinds(self)

    def restrict(self, indices: Sequence[int]) -> "RectFamily":
        """The sub-family of the members at the ascending `indices`.  Once
        this family's intersection kinds are known, the sub-family inherits
        them instead of classifying its pairs again."""
        sub = RectFamily(self.base, tuple(self.rects[i] for i in indices))
        if "_kinds" in self.__dict__:
            new = {old: k for k, old in enumerate(indices)}
            sub.__dict__["_kinds"] = {
                (new[u], new[v]): kind for (u, v), kind in self._kinds.items()
                if u in new and v in new
            }
        return sub


@dataclass(frozen=True)
class IntersectionGraph:
    n: int
    edges: tuple[tuple[int, int, IntersectionKind], ...]

    def adjacency(self) -> list[set[int]]:
        adj = [set() for _ in range(self.n)]
        for u, v, _ in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


@dataclass(frozen=True)
class PiercingDag:
    """Arcs u -> v mean rectangle v pierces rectangle u; transitive and
    acyclic by construction (see `piercing_order`)."""

    n: int
    arcs: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class IndependentSet:
    members: frozenset[int]


def pairwise_kinds(f: RectFamily) -> dict[tuple[int, int], IntersectionKind]:
    """The kind of every intersecting pair (u, v), u < v, of members, keys in
    sorted order; a pair that is absent is disjoint."""
    return intersection_kinds(f.base, f.rects)


def build_graph(f: RectFamily) -> IntersectionGraph:
    edges = tuple((u, v, kind) for (u, v), kind in f._kinds.items())
    return IntersectionGraph(len(f.rects), edges)


def _crossing_keys(f: RectFamily, u: int, v: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """For a corner-intersecting pair, the defining pairs of the two
    rectangles that cross through the shared region: left point of one with
    right point of the other."""
    xr, yr = f.base._ranks

    def left_right(r: Rect) -> tuple[int, int]:
        if (xr[r.a], yr[r.a]) <= (xr[r.b], yr[r.b]):
            return r.a, r.b
        return r.b, r.a

    l1, r1 = left_right(f.rects[u])
    l2, r2 = left_right(f.rects[v])
    k1 = (l1, r2) if l1 < r2 else (r2, l1)
    k2 = (l2, r1) if l2 < r1 else (r1, l2)
    return k1, k2


def complete_witness(f: RectFamily) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """A corner pair missing one of its crossing rectangles, or None."""
    keys = f.keys()
    for (u, v), kind in f._kinds.items():
        if kind is IntersectionKind.CORNER:
            k1, k2 = _crossing_keys(f, u, v)
            if k1 not in keys or k2 not in keys:
                missing = k1 if k1 not in keys else k2
                return (u, v), missing
    return None


def verify_complete(f: RectFamily) -> bool:
    """True iff every corner-intersecting pair has both of its crossing
    rectangles present in the family."""
    return complete_witness(f) is None


def corner_elimination(f: RectFamily) -> RectFamily:
    """Discard one rectangle of each corner-intersecting pair until none
    remain, preserving the maximum independent set of the piercing+corner
    subgraph.  Requires a complete family.

    Deterministic rule: corner pairs are processed in lexicographic order of
    their defining-index pairs, and the rectangle whose defining pair is
    lexicographically larger is the one dropped.  A drop only kills pairs,
    so one pass over the pairs in that order, skipping those already dead,
    drops what rescanning for the least live pair after each drop would.
    """
    kinds = f._kinds
    witness = complete_witness(f)
    if witness is not None:
        (u, v), missing = witness
        raise ContractError(
            f"family is not complete: corner pair {f.rects[u].key} / "
            f"{f.rects[v].key} lacks crossing rectangle {missing}"
        )
    keys = [r.key for r in f.rects]
    corner_pairs = sorted(
        (min(keys[u], keys[v]), max(keys[u], keys[v]), u, v)
        for (u, v), kind in kinds.items() if kind is IntersectionKind.CORNER
    )
    alive = [True] * len(f.rects)
    for _, _, u, v in corner_pairs:
        if alive[u] and alive[v]:
            alive[u if keys[u] > keys[v] else v] = False
    return f.restrict([i for i, live in enumerate(alive) if live])


def piercing_order(f: RectFamily) -> PiercingDag:
    """Orient the piercing pairs of a corner-free family: an arc u -> v
    records that rectangle v pierces rectangle u.  `pierces(u, v)` is
    coordinate-wise `<=` on the rank tuple (xmin, -xmax, -ymin, ymax), so
    the order is transitive and acyclic by construction; only equal boxes
    pierce both ways, and distinct empty rectangles never have them.  A
    corner pair or equal boxes raise a ContractError with the pair.
    """
    rects = f.rects
    arcs = []
    for (u, v), kind in f._kinds.items():
        if kind is IntersectionKind.CORNER:
            raise ContractError(
                f"piercing_order requires a corner-free family; pair "
                f"{rects[u].key} / {rects[v].key} has a corner intersection"
            )
        if kind is not IntersectionKind.PIERCING:
            continue
        if rects[u][:4] == rects[v][:4]:
            raise ContractError(
                f"mutual piercing between {rects[u].key} and {rects[v].key}"
            )
        arcs.append((u, v) if pierces(rects[u], rects[v]) else (v, u))
    return PiercingDag(len(rects), frozenset(arcs))


def _kuhn_matching(n: int, adj: Sequence[Sequence[int]]) -> dict[int, int]:
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


def max_antichain(d: PiercingDag) -> IndependentSet:
    """A maximum antichain of the piercing order.

    Split every element into a left and a right copy, connect u_left to
    v_right for each arc u -> v, and take a maximum matching: the order's
    minimum chain cover has size n minus the matching, and by the chain
    decomposition that is also the maximum antichain size.  The antichain
    itself falls out of the matching's minimum vertex cover: keep the
    elements with neither copy covered.
    """
    n = d.n
    arcs = sorted(d.arcs)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        adj[u].append(v)
    match_left = _kuhn_matching(n, adj)
    match_right = {v: u for u, v in match_left.items()}

    # Alternating reachability from unmatched left copies.
    reach_left = {u for u in range(n) if u not in match_left}
    reach_right: set[int] = set()
    frontier = list(reach_left)
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if v in reach_right:
                continue
            if match_left.get(u) == v:
                continue
            reach_right.add(v)
            w = match_right.get(v)
            if w is not None and w not in reach_left:
                reach_left.add(w)
                frontier.append(w)

    # Vertex cover is (L \ reach_left) + (R ∩ reach_right); an element is in
    # the antichain iff neither of its copies is covered.
    members = frozenset(
        x for x in range(n)
        if (x in reach_left or x not in match_left) and x not in reach_right
    )
    if len(members) != n - len(match_left):
        raise ContractError(
            f"chain cover identity failed: antichain {len(members)}, "
            f"matching {len(match_left)}, n {n}"
        )
    for u, v in arcs:
        if u in members and v in members:
            raise ContractError(f"antichain members {u}, {v} are comparable")
    return IndependentSet(members)


def forest_two_color(g: IntersectionGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Proper 2-coloring of an acyclic graph: (even layer, odd layer) per
    BFS from each component's least vertex.  A cycle contradicts the
    structural guarantee of the callers and raises with the cycle."""
    adj = g.adjacency()
    color: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        parent[start] = None
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in sorted(adj[u]):
                if v not in color:
                    color[v] = 1 - color[u]
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v and parent.get(v) != u:
                    cycle = _reconstruct_cycle(u, v, parent)
                    raise ContractError(
                        f"conflict graph contains a cycle: {cycle}"
                    )
    side_a = tuple(v for v in range(g.n) if color.get(v, 0) == 0)
    side_b = tuple(v for v in range(g.n) if color.get(v) == 1)
    return side_a, side_b


def _reconstruct_cycle(u: int, v: int, parent: dict[int, int | None]) -> list[int]:
    def path_to_root(x: int) -> list[int]:
        out = [x]
        while parent.get(out[-1]) is not None:
            out.append(parent[out[-1]])
        return out

    pu, pv = path_to_root(u), path_to_root(v)
    common = set(pu) & set(pv)
    cut_u = next(i for i, x in enumerate(pu) if x in common)
    cut_v = next(i for i, x in enumerate(pv) if x in common)
    return pu[: cut_u + 1] + pv[:cut_v][::-1]
