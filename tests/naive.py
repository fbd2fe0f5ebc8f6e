"""Quadratic and exhaustive reference implementations that the tests compare
the package against, and small helpers only the tests need.  The references
work on the exact `Fraction` rectangles, not on rank boxes."""
from __future__ import annotations

from rectmatch.geometry import (
    IntersectionKind,
    PointSet,
    contains_point,
    rect_from_pair,
    rects_conflict,
)
from rectmatch.independent_set import IntersectionGraph


def empty_pairs_naive(s: PointSet) -> list[tuple[int, int]]:
    """Reference quadratic-pairs filter; used to cross-check the sweep."""
    out = []
    n = len(s)
    for i in range(n):
        for j in range(i + 1, n):
            r = rect_from_pair(s, i, j)
            if not any(
                contains_point(r, s[k]) for k in range(n) if k != i and k != j
            ):
                out.append((i, j))
    return out


def matching_sizes_naive(s: PointSet, same_color: bool) -> tuple[int, int]:
    """(maximum size, number of perfect matchings) of the strong matchings
    of s, by enumerating every set of candidate pairs that is vertex-disjoint
    and pairwise free of `rects_conflict`."""
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
            if any(rects_conflict(s, rects[k], rects[c]) for c in chosen):
                continue
            extend(k + 1, used | {i, j}, chosen + [k])

    extend(0, frozenset(), [])
    return best, perfect


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
