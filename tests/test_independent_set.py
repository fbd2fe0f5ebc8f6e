import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectmatch.errors import ContractError, GuardError
from rectmatch.geometry import (
    IntersectionKind,
    PointSet,
    classify_intersection,
    empty_pairs,
    perturb,
    pierces,
    rect_from_pair,
)
from rectmatch.independent_set import (
    IntersectionGraph,
    PiercingDag,
    RectFamily,
    build_graph,
    corner_elimination,
    forest_two_color,
    max_antichain,
    pairwise_kinds,
    piercing_order,
    verify_complete,
)

from naive import (
    brute_force_mis,
    classify_exact,
    dump_edges,
    exact_box,
    gpc_subgraph,
    mis_of_graph,
    order_violation,
)

K = IntersectionKind


def ps(*triples):
    return PointSet.from_tuples(triples)


def family(s, pairs):
    return RectFamily.checked(s, tuple(rect_from_pair(s, i, j) for i, j in pairs))


def all_empty_family(s):
    return family(s, empty_pairs(s))


def random_points(rng, n, grid):
    pts = set()
    while len(pts) < n:
        pts.add((rng.randrange(grid), rng.randrange(grid)))
    return PointSet.from_tuples(
        (x, y, "R" if rng.random() < 0.5 else "B") for x, y in sorted(pts)
    )


def close_under_crossings(s, pair_keys, cap=40):
    """Repeatedly add the crossing rectangles of corner pairs."""
    from rectmatch.independent_set import _crossing_keys

    keys = set(pair_keys)
    while True:
        fam = family(s, sorted(keys))
        kinds = pairwise_kinds(fam)
        added = False
        for (u, v), k in kinds.items():
            if k is K.CORNER:
                for kk in _crossing_keys(fam, u, v):
                    if kk not in keys:
                        keys.add(kk)
                        added = True
        if not added:
            return family(s, sorted(keys))
        if len(keys) > cap:
            return None


# A four-rectangle configuration: two corner-intersecting boxes plus both of
# their crossings.
CROSS_POINTS = [
    (0, 3, "B"), (4, 7, "B"),      # upper-left box
    (2, 0, "B"), (6, 5, "B"),      # lower-right box, corner intersection
]
CROSS_PAIRS = [(0, 1), (2, 3), (0, 3), (2, 1)]


class TestChecked:
    def test_non_empty_rectangle_rejected_with_its_point(self):
        # Rect (0, 1) holds point 2 on its right side and point 4 inside;
        # the witness is the lowest index, at its exact coordinates.
        s = ps((0, 0, "B"), (4, 4, "B"), (4, Fraction(3, 2), "R"), (6, 6, "B"),
               (1, 1, "R"))
        with pytest.raises(ValueError, match=re.escape(
                "rect (0, 1) is not empty: contains point 2 at (4, 3/2)")):
            RectFamily.checked(s, [rect_from_pair(s, 1, 3), rect_from_pair(s, 1, 0)])

    def test_duplicate_rectangle_rejected(self):
        s = ps((0, 0, "B"), (1, 1, "B"))
        r = rect_from_pair(s, 1, 0)
        with pytest.raises(ValueError, match=re.escape("duplicate rectangle (0, 1)")):
            RectFamily(s, (r, r))

    def test_restrict_equals_the_sub_family(self):
        """`restrict` skips the duplicate check, yet builds the family that
        the constructor would."""
        f = family(ps(*CROSS_POINTS), CROSS_PAIRS)
        sub = f.restrict([0, 2, 3])
        assert sub == RectFamily(f.base, (f.rects[0], f.rects[2], f.rects[3]))
        assert len(sub) == 3 and sub.keys() == {(0, 1), (0, 3), (1, 2)}


class TestBuildGraph:
    def test_disjoint(self):
        s = ps((0, 0, "B"), (1, 1, "B"), (5, 5, "B"), (6, 6, "B"))
        g = build_graph(all_empty_family(s))
        disjoint_pairs = [(u, v) for u, v, k in g.edges]
        f = family(s, [(0, 1), (2, 3)])
        assert build_graph(f).edges == ()

    def test_piercing_edge(self):
        s = ps((0, 1, "B"), (5, 3, "B"), (2, 0, "B"), (3, 4, "B"))
        f = family(s, [(0, 1), (2, 3)])
        g = build_graph(f)
        assert g.edges == ((0, 1, K.PIERCING),)

    def test_pairwise_disjoint_family_mis(self):
        s = ps(*[(4 * i, 4 * i + 1, "B") for i in range(4)],
               *[(4 * i + 1, 4 * i, "B") for i in range(4)])
        f = family(s, [(i, i + 4) for i in range(4)])
        g = build_graph(f)
        assert g.edges == ()
        assert len(brute_force_mis(f).members) == 4

    def test_dump_edges(self):
        s = ps((0, 1, "B"), (5, 3, "B"), (2, 0, "B"), (3, 4, "B"))
        g = build_graph(family(s, [(0, 1), (2, 3)]))
        assert dump_edges(g) == "0 1 PIERCING\n"


class TestGpcSubgraph:
    def test_filters_kinds(self):
        g = IntersectionGraph(4, (
            (0, 1, K.PIERCING), (1, 2, K.SIDE), (2, 3, K.CORNER), (0, 3, K.POINT),
        ))
        kept = gpc_subgraph(g)
        assert {e[2] for e in kept.edges} == {K.PIERCING, K.CORNER}

    def test_idempotent(self):
        g = IntersectionGraph(3, ((0, 1, K.PIERCING), (1, 2, K.POINT)))
        assert gpc_subgraph(gpc_subgraph(g)) == gpc_subgraph(g)


class TestVerifyComplete:
    def test_no_corner_pairs_vacuous(self):
        s = ps((0, 0, "B"), (1, 1, "B"), (5, 5, "B"), (6, 6, "B"))
        assert verify_complete(family(s, [(0, 1), (2, 3)]))

    def test_crossing_configuration(self):
        s = ps(*CROSS_POINTS)
        assert verify_complete(family(s, CROSS_PAIRS))

    def test_missing_crossing_detected(self):
        s = ps(*CROSS_POINTS)
        assert not verify_complete(family(s, CROSS_PAIRS[:3]))
        assert not verify_complete(family(s, [(0, 1), (2, 3)]))


class TestCornerElimination:
    def test_fixed_point_without_corners(self):
        s = ps((0, 0, "B"), (1, 1, "B"), (5, 5, "B"), (6, 6, "B"))
        f = family(s, [(0, 1), (2, 3)])
        assert corner_elimination(f).keys() == f.keys()

    def test_incomplete_rejected(self):
        s = ps(*CROSS_POINTS)
        with pytest.raises(ContractError):
            corner_elimination(family(s, [(0, 1), (2, 3)]))

    def test_crossing_configuration_alpha_preserved(self):
        s = ps(*CROSS_POINTS)
        f = family(s, CROSS_PAIRS)
        out = corner_elimination(f)
        assert not any(
            k is K.CORNER for k in pairwise_kinds(out).values()
        )
        assert _gpc_alpha(out) == _gpc_alpha(f)

    def test_random_complete_families_alpha_preserved(self):
        rng = random.Random(11)
        done = 0
        while done < 30:
            s = random_points(rng, rng.randrange(5, 9), 8)
            pairs = empty_pairs(s)
            if not pairs:
                continue
            chosen = rng.sample(pairs, min(len(pairs), rng.randrange(2, 7)))
            f = close_under_crossings(s, chosen, cap=18)
            if f is None or len(f) > 18:
                continue
            done += 1
            before = _gpc_alpha(f)
            steps = _replay_drops(f)
            for step_fam in steps:
                assert _gpc_alpha(step_fam) == before
            out = corner_elimination(f)
            assert _gpc_alpha(out) == before
            assert steps[-1].keys() == out.keys()


def _replay_drops(f):
    """The family before and after each drop of the documented rule: corner
    pairs in order of their defining keys, the larger key of a pair whose
    rectangles are both alive dropped."""
    keys = [r.key for r in f.rects]
    pairs = sorted(
        tuple(sorted((keys[u], keys[v])))
        for (u, v), k in pairwise_kinds(f).items() if k is K.CORNER
    )
    alive = set(keys)
    steps = [f]
    for low, high in pairs:
        if low in alive and high in alive:
            alive.discard(high)
            steps.append(RectFamily(f.base, tuple(
                r for r in f.rects if r.key in alive)))
    return steps


def _gpc_alpha(f):
    g = gpc_subgraph(build_graph(f))
    return len(mis_of_graph(g.n, [(u, v) for u, v, _ in g.edges]).members)


class TestPiercingOrder:
    def test_nested_chain_transitive(self):
        # r1 horizontal-ish wide, r2 inside it taller, r3 inside r2 taller still.
        s = ps((0, 2, "B"), (9, 3, "B"), (2, 1, "B"), (7, 4, "B"), (4, 0, "B"), (5, 5, "B"))
        f = family(s, [(0, 1), (2, 3), (4, 5)])
        dag = piercing_order(f)
        assert dag.arcs == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_disjoint_no_arcs(self):
        s = ps((0, 0, "B"), (1, 1, "B"), (5, 5, "B"), (6, 6, "B"))
        assert piercing_order(family(s, [(0, 1), (2, 3)])).arcs == frozenset()

    def test_corner_pair_rejected(self):
        s = ps(*CROSS_POINTS)
        with pytest.raises(ContractError):
            piercing_order(family(s, [(0, 1), (2, 3)]))

    def test_random_corner_free_families_pass(self):
        rng = random.Random(5)
        done = 0
        while done < 40:
            s = random_points(rng, rng.randrange(4, 9), 7)
            pairs = empty_pairs(s)
            if not pairs:
                continue
            f = family(s, pairs)
            kinds = pairwise_kinds(f)
            if any(k is K.CORNER for k in kinds.values()):
                continue
            assert order_violation(piercing_order(f)) is None
            done += 1


class TestMaxAntichain:
    def test_chain_of_three(self):
        from rectmatch.independent_set import PiercingDag

        d = PiercingDag(3, frozenset({(0, 1), (1, 2), (0, 2)}))
        assert len(max_antichain(d).members) == 1

    def test_antichain_untouched(self):
        from rectmatch.independent_set import PiercingDag

        d = PiercingDag(4, frozenset())
        assert len(max_antichain(d).members) == 4

    def test_augmenting_path_deeper_than_the_recursion_limit(self):
        # Height 2: k -> n+k and k -> n+k+1 for k < n, then 2n+1 -> n.  The
        # first n left vertices take n+k each; the last one's only augmenting
        # path shifts all of them: n+1 steps, beyond the default recursion
        # limit of 1000.
        from rectmatch.independent_set import PiercingDag

        n = 1100
        arcs = {(k, n + k) for k in range(n)}
        arcs |= {(k, n + k + 1) for k in range(n)} | {(2 * n + 1, n)}
        d = PiercingDag(2 * n + 2, frozenset(arcs))
        assert len(max_antichain(d).members) == n + 1

    def test_matches_oracle_on_random_piercing_families(self):
        rng = random.Random(23)
        done = 0
        while done < 40:
            s = random_points(rng, rng.randrange(4, 10), 8)
            pairs = empty_pairs(s)
            if not pairs or len(pairs) > 20:
                continue
            f = family(s, pairs)
            kinds = pairwise_kinds(f)
            if any(k not in (K.PIERCING, K.DISJOINT) for k in kinds.values()):
                continue
            done += 1
            d = piercing_order(f)
            assert len(max_antichain(d).members) == len(brute_force_mis(f).members)


class TestBruteForceMis:
    def test_two_disjoint(self):
        s = ps((0, 0, "B"), (1, 1, "B"), (5, 5, "B"), (6, 6, "B"))
        assert len(brute_force_mis(family(s, [(0, 1), (2, 3)])).members) == 2

    def test_common_point_clique(self):
        # Four crossing bars, all containing (5, 5) in their interior.
        s = ps((0, 4, "B"), (10, 6, "B"), (4, 0, "B"), (6, 10, "B"),
               (1, 3, "B"), (9, 7, "B"), (3, 1, "B"), (7, 9, "B"))
        f = family(s, [(0, 1), (2, 3), (4, 5), (6, 7)])
        assert len(brute_force_mis(f).members) == 1

    def test_guard(self):
        s = ps(*[(i, i, "B") for i in range(0, 68, 2)], *[(i, i, "B") for i in range(1, 68, 2)])
        pairs = [(i, i + 34) for i in range(33)]
        f = family(s, pairs)
        with pytest.raises(GuardError):
            brute_force_mis(f)
        assert len(brute_force_mis(f, force=True).members) == 33

    def test_members_pairwise_disjoint(self):
        rng = random.Random(9)
        for _ in range(20):
            s = random_points(rng, 8, 8)
            pairs = empty_pairs(s)
            if not pairs:
                continue
            f = family(s, pairs[:16])
            result = brute_force_mis(f)
            members = sorted(result.members)
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    k = classify_intersection(s, f.rects[u], f.rects[v])
                    assert k is K.DISJOINT


class TestForestTwoColor:
    def test_edgeless(self):
        g = IntersectionGraph(5, ())
        a, b = forest_two_color(g)
        assert len(a) == 5 and len(b) == 0

    def test_path_of_five(self):
        g = IntersectionGraph(5, tuple((i, i + 1, K.POINT) for i in range(4)))
        a, b = forest_two_color(g)
        assert sorted(map(len, (a, b))) == [2, 3]

    def test_star(self):
        g = IntersectionGraph(5, tuple((0, i, K.POINT) for i in range(1, 5)))
        a, b = forest_two_color(g)
        assert sorted(map(len, (a, b))) == [1, 4]

    def test_proper_coloring(self):
        g = IntersectionGraph(6, ((0, 1, K.POINT), (1, 2, K.POINT), (3, 4, K.POINT)))
        a, b = forest_two_color(g)
        sa, sb = set(a), set(b)
        for u, v, _ in g.edges:
            assert (u in sa) != (v in sa)

    def test_cycle_detected(self):
        g = IntersectionGraph(3, ((0, 1, K.POINT), (1, 2, K.POINT), (0, 2, K.POINT)))
        with pytest.raises(ContractError):
            forest_two_color(g)


class TestDilworthIdentity:
    def test_random_dags(self):
        rng = random.Random(31)
        done = 0
        while done < 30:
            s = random_points(rng, rng.randrange(4, 10), 8)
            pairs = empty_pairs(s)
            if not pairs:
                continue
            f = family(s, pairs)
            kinds = pairwise_kinds(f)
            if any(k is K.CORNER for k in kinds.values()):
                continue
            d = piercing_order(f)
            anti = max_antichain(d)  # raises internally if the identity fails
            assert len(anti.members) >= 1
            done += 1


# Point sets for the sparse-kinds properties: each draws colors at random.
@st.composite
def repeated_grid(draw):
    """Few distinct x and y values, so coordinates repeat."""
    coords = draw(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                          min_size=2, max_size=9))
    return [(x, y, draw(st.sampled_from("RB"))) for x, y in sorted(coords)]


@st.composite
def perturbed(draw):
    """Rational coordinates in general position."""
    pts = draw(repeated_grid())
    return list((p.x, p.y, p.color) for p in perturb(PointSet.from_tuples(pts), 4))


@st.composite
def collinear_runs(draw):
    """Points on two vertical and two horizontal lines."""
    coords = draw(st.sets(st.one_of(
        st.tuples(st.sampled_from([2, 5]), st.integers(0, 8)),
        st.tuples(st.integers(0, 8), st.sampled_from([1, 6])),
    ), min_size=2, max_size=10))
    return [(x, y, draw(st.sampled_from("RB"))) for x, y in sorted(coords)]


def all_pairs_family(s, segments_only=False):
    """Every pair's rectangle, empty or not; optionally only the segments."""
    n = len(s)
    return RectFamily(s, tuple(
        rect_from_pair(s, i, j) for i in range(n) for j in range(i + 1, n)
        if not segments_only or s[i].x == s[j].x or s[i].y == s[j].y
    ))


def dense_kinds(f):
    """Every pair classified one at a time, disjoint ones dropped."""
    m = len(f.rects)
    out = {}
    for u in range(m):
        for v in range(u + 1, m):
            k = classify_intersection(f.base, f.rects[u], f.rects[v])
            if k is not K.DISJOINT:
                out[(u, v)] = k
    return out


@given(st.one_of(repeated_grid(), perturbed(), collinear_runs()))
@settings(max_examples=200, deadline=None)
def test_rank_classification_equals_exact(pts):
    """`classify_intersection` on rank `Rect`s gives the kind of the exact
    `Fraction` rectangles, for every pair of rectangles of the set, empty
    or not."""
    f = all_pairs_family(PointSet.from_tuples(pts))
    for u, ru in enumerate(f.rects):
        for rv in f.rects[u + 1:]:
            assert classify_intersection(f.base, ru, rv) is classify_exact(
                f.base, ru.key, rv.key)


class TestSparseKinds:
    """`pairwise_kinds` sweeps rank boxes; it must agree with classifying
    every pair one at a time, which agrees with the exact `Fraction`
    rectangles (`test_rank_classification_equals_exact`), and a restricted
    family must inherit exactly the kinds it would compute itself."""

    @given(st.one_of(repeated_grid(), perturbed(), collinear_runs()),
           st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_equals_dense_classification(self, pts, segments_only, rnd):
        f = all_pairs_family(PointSet.from_tuples(pts), segments_only)
        kinds = pairwise_kinds(f)
        assert kinds == dense_kinds(f)
        assert list(kinds) == sorted(kinds)
        build_graph(f)  # keeps the kinds on f
        keep = sorted(rnd.sample(range(len(f)), rnd.randrange(len(f) + 1)))
        sub = f.restrict(keep)
        assert build_graph(sub).edges == tuple(
            (u, v, k) for (u, v), k in pairwise_kinds(sub).items())

    def test_missing_pair_means_disjoint(self):
        s = ps((0, 0, "B"), (1, 1, "B"), (5, 5, "B"), (6, 6, "B"))
        assert pairwise_kinds(family(s, [(0, 1), (2, 3)])) == {}


class TestDominanceOrder:
    """Piercing is coordinate-wise `<=` on (xmin, -xmax, -ymin, ymax), so
    oriented by `pierces` the piercing pairs of any empty-pair family form a
    strict partial order: the reason `piercing_order` does not verify one."""

    @given(st.one_of(repeated_grid(), perturbed(), collinear_runs()))
    @settings(max_examples=300, deadline=None)
    def test_piercing_pairs_orient_into_a_strict_order(self, pts):
        f = all_empty_family(PointSet.from_tuples(pts))
        kinds = pairwise_kinds(f)
        arcs = set()
        for (u, v), k in kinds.items():
            if k is not K.PIERCING:
                continue
            a, b = exact_box(f.base, *f.rects[u].key), exact_box(f.base, *f.rects[v].key)
            assert a != b
            arcs.add((u, v) if pierces(a, b) else (v, u))
        assert order_violation(PiercingDag(len(f), frozenset(arcs))) is None
        if K.CORNER not in kinds.values():
            assert piercing_order(f).arcs == arcs
