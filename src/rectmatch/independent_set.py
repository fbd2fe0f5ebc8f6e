"""Independent sets in families of empty rectangles.

A rectangle family lives over a base point set; every member must contain
exactly its two defining points.  The conflict structure splits by
intersection kind: piercing and corner conflicts form the subgraph that can
be solved exactly (corner pairs are eliminated one rectangle at a time, the
piercing leftovers form a strict partial order whose maximum antichain is
computed by minimum chain cover), while point contacts are handled later by
a two-coloring of what remains.  The exact independent-set oracle that
checks these stages is test-side, in `tests/naive.py`.

Piercing is a dominance order on the members' rank boxes, and on empty
rectangles a corner pair is a pair that overlaps with positive area and is
not comparable.  So neither is listed pair by pair: bitmasks of the
members, prefix masks over each bound of the boxes and their
complements (`geometry._dominance`), give every member the members that
pierce it, that it pierces, that overlap it and that meet it at a corner.  Corner
elimination walks a family once, in one `_dominance` pass in key order:
each member's corner mask is tested against the survivors so far and
folded into the completeness check, with no step per corner pair, and
then dropped, so no family's corner masks are kept.  Each survivor keeps
its piercing mask, and the survivors' piercing order is those masks cut
to the survivors, at their bit positions in the family.  `piercing_order`
hands that order on without a second pass, and the chain cover runs on
its bitmasks without renumbering them.  On any other family the piercing
order makes its own pass and checks it for corners there.  No pair is
classified: the chosen antichain has no comparable or corner pair, so its
contact graph is its pairs that share a defining point (`pairwise_kinds`).
"""
from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from rectmatch.errors import ContractError
from rectmatch.geometry import (
    IntersectionKind,
    PointSet,
    Rect,
    _bits,
    _dominance,
)


@dataclass(frozen=True)
class RectFamily:
    base: PointSet
    rects: tuple[Rect, ...]

    def __post_init__(self):
        rects = self.rects
        keys = {(a, b) if a < b else (b, a) for _, _, _, _, a, b in rects}
        if len(keys) < len(rects):
            seen = set()
            for r in rects:
                if r.key in seen:
                    raise ValueError(f"duplicate rectangle {r.key}")
                seen.add(r.key)

    def __len__(self) -> int:
        return len(self.rects)

    def keys(self) -> frozenset[tuple[int, int]]:
        return frozenset(r.key for r in self.rects)

    @property
    def _corners(self) -> list[int]:
        """Per member, the bitmask of the members that meet it at a corner
        (`geometry._dominance`), computed on each read and never kept: only
        `complete_witness` walks it, to name the witness of a failed check."""
        return [corner for _, _, _, corner in _dominance(self.rects)]

    def restrict(self, indices: Sequence[int]) -> "RectFamily":
        """The sub-family of the members at the ascending `indices`.  It
        cannot hold a duplicate, so it skips the check of `__post_init__`."""
        sub = object.__new__(RectFamily)
        sub.__dict__.update(base=self.base, rects=tuple(self.rects[i] for i in indices))
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
    """The piercing order of n elements as bitmasks (see `piercing_order`).
    Element u sits at bit `positions[u]`, ascending in u, and bit
    `positions[v]` of `above[u]` records that element v pierces element u.
    Built directly, the positions are 0 ... n-1.  `corner_elimination`
    hands its survivors on at their indices in the family it reduced, so
    their masks are never renumbered.  The order is transitive and acyclic
    by construction."""

    n: int
    above: tuple[int, ...]
    positions: Sequence[int] | None = None

    def __post_init__(self):
        if self.positions is None:
            object.__setattr__(self, "positions", range(self.n))

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """The pairs (u, v) such that v pierces u."""
        element = {p: v for v, p in enumerate(self.positions)}
        return frozenset((u, element[p]) for u, m in enumerate(self.above)
                         for p in _bits(m))


@dataclass(frozen=True)
class IndependentSet:
    members: frozenset[int]


def pairwise_kinds(f: RectFamily) -> dict[tuple[int, int], IntersectionKind]:
    """The kind of every intersecting pair (u, v), u < v, keys in sorted
    order, of members that must be an antichain of empty rectangles with no
    corner pair, as in `half_approx_family`.  By the rule of empty
    rectangles (`geometry._dominance`) two such members meet exactly when
    they share a defining point, and only on their boundaries: in that one
    point (POINT) or along a side (SIDE)."""
    rects = f.rects
    incident = defaultdict(list)  # per defining point, its members
    for u, r in enumerate(rects):
        incident[r.a].append(u)
        incident[r.b].append(u)
    kinds = {}
    for u, v in sorted(uv for members in incident.values() for uv in combinations(members, 2)):
        (ux1, ux2, uy1, uy2, _, _), (vx1, vx2, vy1, vy2, _, _) = rects[u], rects[v]
        one = max(ux1, vx1) == min(ux2, vx2) and max(uy1, vy1) == min(uy2, vy2)
        kinds[u, v] = IntersectionKind.POINT if one else IntersectionKind.SIDE
    return kinds


def build_graph(f: RectFamily) -> IntersectionGraph:
    """The contact graph of an antichain of the piercing order with no
    corner pair: its point and side pairs with their kinds, in sorted
    order (`pairwise_kinds`)."""
    return IntersectionGraph(len(f.rects), tuple(
        (u, v, kind) for (u, v), kind in pairwise_kinds(f).items()))


def _left_right(f: RectFamily) -> list[tuple[int, int]]:
    """Per member, its defining points, the one of lesser (x, y) rank first."""
    xr, yr = f.base._ranks
    return [(a, b) if (xr[a], yr[a]) <= (xr[b], yr[b]) else (b, a)
            for _, _, _, _, a, b in f.rects]


def _crossing_keys(ends_u, ends_v) -> tuple[tuple[int, int], tuple[int, int]]:
    """For a corner-intersecting pair, given each one's left and right
    defining points (`_left_right`), the defining pairs of the two
    rectangles that cross through the shared region: left point of one with
    right point of the other."""
    (l1, r1), (l2, r2) = ends_u, ends_v
    k1 = (l1, r2) if l1 < r2 else (r2, l1)
    k2 = (l2, r1) if l2 < r1 else (r1, l2)
    return k1, k2


def _uncrossed(f: RectFamily, met: dict[int, int]) -> dict[int, int]:
    """Per left point p of `met` (`_left_right`), the members v of `met[p]`
    such that the rectangle of p and v's right point is not a member of
    f; only the left points with such a v are listed.

    `met[p]` holds the members that meet a member of left point p at a
    corner.  The corner masks are symmetric, so the family is complete iff
    for each corner pair (u, v), in either order, the rectangle of u's left
    point and v's right point is a member (`_crossing_keys`), that is, iff
    the result is empty.  A member met at a corner has positive width, so
    its right point is its defining point of greater x rank.  Only the
    defining points are read: whether p runs to right(v) does not depend on
    which end of that rectangle p is.  So the test is one mask per left point."""
    if not met:
        return {}
    xr = f.base._ranks[0]
    rects = f.rects
    right: dict[int, int] = {}  # per right point, the members met at a corner
    met_any = 0
    for m in met.values():
        met_any |= m
    for v in _bits(met_any):
        x1, _, _, _, a, b = rects[v]
        q = b if xr[a] == x1 else a
        right[q] = right.get(q, 0) | 1 << v
    crossed = dict.fromkeys(met, 0)
    for _, _, _, _, a, b in rects:
        if a in crossed and b in right:
            crossed[a] |= right[b]
        if b in crossed and a in right:
            crossed[b] |= right[a]
    return {p: m & ~crossed[p] for p, m in met.items() if m & ~crossed[p]}


def complete_witness(f: RectFamily) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """The first corner pair (u, v), u < v, in the walk over the corner
    masks in order, that lacks one of its crossing rectangles
    (`_crossing_keys`), with the missing key, or None.  `corner_elimination`
    makes the completeness test in its own pass and calls this only to
    name the witness of a family that fails it."""
    keys = f.keys()
    ends = _left_right(f)
    for u, mask in enumerate(f._corners):
        for k in _bits(mask >> (u + 1)):
            v = u + 1 + k
            k1, k2 = _crossing_keys(ends[u], ends[v])
            if k1 not in keys or k2 not in keys:
                return (u, v), k1 if k1 not in keys else k2
    return None


def _eliminate(f: RectFamily, rows):
    """Corner elimination's visit of the `_dominance` rows of f, in the
    order given: the bitmask of the survivors, the mask of the members
    that pierce each survivor, by survivor, `met` for `_uncrossed`, and
    whether a survivor has an equal box.  None when the members met at a
    corner come out of key order."""
    rects = f.rects
    xr = f.base._ranks[0]
    met: dict[int, int] = {}
    last = (-1, -1)  # the key of the last member met at a corner
    kept = 0
    pierced = {}
    twins = False
    for u, above, below, corner in rows:
        if corner:
            x1, _, _, _, a, b = rects[u]
            key = (a, b) if a < b else (b, a)
            if key < last:
                return None
            last = key
            p = a if xr[a] == x1 else b  # the left point; the box has width
            met[p] = met.get(p, 0) | corner
            if corner & kept:
                continue
        bit = 1 << u
        kept |= bit
        pierced[u] = above
        if above & below != bit:
            twins = True
    return kept, pierced, met, twins


def corner_elimination(f: RectFamily) -> RectFamily:
    """Discard one rectangle of each corner-intersecting pair until none
    remain, preserving the maximum independent set of the piercing+corner
    subgraph.  Requires a complete family.

    Deterministic rule: corner pairs are processed in lexicographic order of
    their defining-index pairs, and the rectangle whose defining pair is
    lexicographically larger is the one dropped.  A pair (k, K) comes after
    every pair that could drop k, so k is alive then exactly when it
    survives: a member survives exactly when no survivor with a smaller key
    meets it at a corner.  So the members are visited in key order, and
    each is kept unless its corner mask meets the survivors so far.

    One `_dominance` pass makes the visit, streamed in index order: only
    the members met at a corner are compared, so only their keys must be
    in order, and the solver's families are in key order (`empty_pairs` is
    sorted, and `restrict` keeps the order).  A family whose members met
    at a corner are not has its rows sorted by key and visited again.
    Each corner mask is dropped once it is tested against the survivors
    and ORed into its left point's entry of `met`; after the pass,
    `_uncrossed` tests `met` against the crossing rectangles, the one
    completeness test, and a family that fails raises a ContractError with
    the witness that `complete_witness` finds by walking its corner pairs.

    Each survivor keeps the mask of the members that pierce it.  The
    returned family carries the survivors' piercing order, those masks cut
    to the survivors, at the survivors' bit positions in f, for
    `piercing_order` to read in place of a second pass.  A family in which
    two survivors have equal boxes, which no two empty rectangles have,
    carries none, and `piercing_order` rejects it.
    """
    rects = f.rects
    visit = _eliminate(f, _dominance(rects))
    if visit is None:
        keys = [(a, b) if a < b else (b, a) for _, _, _, _, a, b in rects]
        visit = _eliminate(f, sorted(_dominance(rects), key=lambda row: keys[row[0]]))
    kept, pierced, met, twins = visit
    if _uncrossed(f, met):
        (u, v), missing = complete_witness(f)
        raise ContractError(
            f"family is not complete: corner pair {rects[u].key} / "
            f"{rects[v].key} lacks crossing rectangle {missing}"
        )
    positions = sorted(pierced)
    reduced = f.restrict(positions)
    if not twins or len({r[:4] for r in reduced.rects}) == len(positions):
        reduced.__dict__["_order"] = PiercingDag(len(positions), tuple(
            (pierced[u] & kept) ^ (1 << u) for u in positions), positions)
    return reduced


def piercing_order(f: RectFamily) -> PiercingDag:
    """The piercing order of a corner-free family: bit v of `above[u]`
    records that rectangle v pierces rectangle u.  Piercing is
    coordinate-wise `<=` on the rank tuple (xmin, -xmax, -ymin, ymax), so
    the order is transitive and acyclic by construction; only equal boxes
    pierce both ways, and distinct empty rectangles never have them.  A
    corner pair, read off the corner masks of the same `_dominance` pass,
    or equal boxes raise a ContractError with the first such pair.

    A family that `corner_elimination` returned carries its order, at the
    members' bit positions in the family it reduced, and that order is
    returned with no pass.
    """
    dag = f.__dict__.get("_order")
    if dag is not None:
        return dag
    rects = f.rects
    above = []
    for u, m, below, corner in _dominance(rects):
        if corner:
            v = (corner & -corner).bit_length() - 1
            raise ContractError(
                f"piercing_order requires a corner-free family; pair "
                f"{rects[u].key} / {rects[v].key} has a corner intersection"
            )
        twins = (m & below) ^ (1 << u)
        if twins:
            v = (twins & -twins).bit_length() - 1
            raise ContractError(
                f"mutual piercing between {rects[u].key} and {rects[v].key}"
            )
        above.append(m ^ (1 << u))
    return PiercingDag(len(rects), tuple(above))


def _layers(above: Sequence[int], positions: Sequence[int], match_right: list[int],
            roots: list[int], free: int) -> tuple[list[int], int]:
    """Breadth-first search from the left copies `roots` along alternating
    paths: unmatched arcs to right copies, matched ones back.  Returns the
    bitmask of the right copies first reached from each layer of left
    copies and the bitmask of the left copies reached, both at the
    elements' `positions`.  The search stops at the first layer that
    reaches a right copy in `free`, and that layer keeps only those."""
    unseen = (1 << len(match_right)) - 1
    layers = []
    reached = 0
    while roots:
        found = 0
        for u in roots:
            reached |= 1 << positions[u]
            m = above[u] & unseen
            if m:
                unseen ^= m
                found |= m
        if found & free:
            layers.append(found & free)
            break
        layers.append(found)
        roots = [match_right[v] for v in _bits(found)]
    return layers, reached


def max_antichain(d: PiercingDag) -> IndependentSet:
    """A maximum antichain of the piercing order.

    Split every element into a left and a right copy, connect u_left to
    v_right for each arc u -> v, and take a maximum matching: the order's
    minimum chain cover has size n minus the matching, and by the chain
    decomposition that is also the maximum antichain size.  The matching
    is Hopcroft and Karp's (1973) on the bitmasks of `d.above`: a greedy
    first match, then phases of a breadth-first search that layers the
    alternating paths from the free left copies and a depth-first search
    along the layers that augments vertex-disjoint shortest paths.  Both
    searches keep explicit stacks, and each phase visits a right copy at
    most once.  The greedy match starts from the top: it visits the left
    copies in ascending number of elements above them, ties in index
    order, a linear extension read from the top, and gives each the lowest
    free right copy above it.  The elements near the top have few right
    copies to take, so they take them before the elements below use them
    up, and fewer phases are left to run.

    A right copy is named by its element's bit position in `d.above`, so
    the masks of an order that `corner_elimination` handed on are used
    as they are.  The free right copies and the unseen ones start as every
    bit up to the highest position: the bits of no element are never in
    a mask, so they are never read.

    The antichain is the set of elements whose left copy the alternating
    paths from the free left copies reach and whose right copy they do
    not: the elements with neither copy in the minimum vertex cover.  That
    set is the same for every maximum matching (Dulmage and Mendelsohn).
    Only its members are mapped back from bit positions to elements.
    """
    n, above, positions = d.n, d.above, d.positions
    width = positions[-1] + 1 if n else 0
    match_left, match_right = [-1] * n, [-1] * width
    free = (1 << width) - 1  # right copies not matched
    degree = [m.bit_count() for m in above]
    for u in sorted(range(n), key=degree.__getitem__):
        m = above[u] & free
        if m:
            low = m & -m
            free ^= low
            v = low.bit_length() - 1
            match_left[u], match_right[v] = v, u
    while True:
        roots = [u for u in range(n) if match_left[u] < 0]
        layers, reach_left = _layers(above, positions, match_right, roots, free)
        if not layers or not layers[-1] & free:
            break
        for root in roots:
            # `path` holds the left copies of the walk, `via[i]` the right
            # copy that joins path[i] to path[i + 1].
            path, via = [root], []
            while path:
                m = above[path[-1]] & layers[len(path) - 1]
                if not m:
                    path.pop()
                    if via:
                        via.pop()
                    continue
                low = m & -m
                layers[len(path) - 1] ^= low
                v = low.bit_length() - 1
                via.append(v)
                if match_right[v] < 0:
                    free ^= low
                    for x, y in zip(path, via):
                        match_left[x], match_right[y] = y, x
                    break
                path.append(match_right[v])
    reach_right = 0
    for m in layers:
        reach_right |= m
    members = reach_left & ~reach_right
    size = members.bit_count()
    matched = n - match_left.count(-1)
    if size != n - matched:
        raise ContractError(
            f"chain cover identity failed: antichain {size}, "
            f"matching {matched}, n {n}"
        )
    chosen = [bisect_left(positions, p) for p in _bits(members)]
    for u in chosen:
        clash = above[u] & members
        if clash:
            v = bisect_left(positions, (clash & -clash).bit_length() - 1)
            raise ContractError(f"antichain members {u}, {v} are comparable")
    return IndependentSet(frozenset(chosen))


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
