import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rectmatch.geometry as geometry
import rectmatch.independent_set as independent_set
from rectmatch.errors import ContractError, GuardError
from rectmatch.gadgets import (
    bichromatize,
    build_gadget,
    monochromatize,
    random_instance,
    variable_gadget,
)
from rectmatch.geometry import (
    IntersectionKind,
    PointSet,
    _bits,
    candidate_bichromatic,
    candidate_monochromatic,
    classify_intersection,
    empty_pairs,
    intersection_kinds,
    rect_from_pair,
)
from rectmatch.independent_set import (
    IntersectionGraph,
    PiercingDag,
    RectFamily,
    _crossing_keys,
    _left_right,
    build_graph,
    complete_witness,
    corner_elimination,
    forest_two_color,
    max_antichain,
    pairwise_kinds,
    piercing_order,
)
from rectmatch.matching import (
    approx_mbrm,
    approx_mmrm,
    exact_independent_rects,
    half_approx_family,
    split_families_bi,
    split_families_mono,
)

from naive import (
    antichain_by_kuhn,
    brute_force_mis,
    checked_family,
    classify_exact,
    complete_witness_naive,
    dag_from_arcs,
    dump_edges,
    exact_box,
    exact_independent_naive,
    gpc_alpha,
    gpc_subgraph,
    order_violation,
    pairwise_kinds_naive,
    pierces,
    survivors_naive,
)
from strategies import collinear_runs, perturbed, repeated_grid

K = IntersectionKind


def ps(*triples):
    return PointSet.from_tuples(triples)


def family(s, pairs):
    return checked_family(s, tuple(rect_from_pair(s, i, j) for i, j in pairs))


def all_empty_family(s):
    return family(s, empty_pairs(s))


def random_points(rng, n, grid):
    if n > grid * grid:
        raise ValueError(f"cannot place {n} distinct points on a {grid}^2 grid")
    pts = set()
    while len(pts) < n:
        pts.add((rng.randrange(grid), rng.randrange(grid)))
    return PointSet.from_tuples(
        (x, y, "R" if rng.random() < 0.5 else "B") for x, y in sorted(pts)
    )


def test_random_points_refuses_more_points_than_cells():
    assert len(random_points(random.Random(0), 25, 5)) == 25
    with pytest.raises(ValueError, match="26 distinct points on a 5"):
        random_points(random.Random(0), 26, 5)


def close_under_crossings(s, pair_keys, cap=40):
    """Repeatedly add the crossing rectangles of corner pairs."""
    keys = set(pair_keys)
    while True:
        fam = family(s, sorted(keys))
        kinds = pairwise_kinds_naive(fam)
        ends = _left_right(fam)
        added = False
        for (u, v), k in kinds.items():
            if k is K.CORNER:
                for kk in _crossing_keys(ends[u], ends[v]):
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

# The one-coloured recolouring of a degree-1 variable gadget: 754 points,
# whose empty-pair family has 1040 corner pairs.
GADGET_POINTS = [(p.x, p.y, p.color) for p in monochromatize(
    build_gadget(*variable_gadget(1), {"recipe": "variable"}))]


class TestChecked:
    def test_non_empty_rectangle_rejected_with_its_point(self):
        # Rect (0, 1) holds point 2 on its right side and point 4 inside;
        # the witness is the lowest index, at its exact coordinates.
        s = ps((0, 0, "B"), (4, 4, "B"), (4, Fraction(3, 2), "R"), (6, 6, "B"),
               (1, 1, "R"))
        with pytest.raises(ValueError, match=re.escape(
                "rect (0, 1) is not empty: contains point 2 at (4, 3/2)")):
            checked_family(s, [rect_from_pair(s, 1, 3), rect_from_pair(s, 1, 0)])

    def test_duplicate_rectangle_rejected(self):
        s = ps((0, 0, "B"), (1, 1, "B"))
        r = rect_from_pair(s, 1, 0)
        with pytest.raises(ValueError, match=re.escape("duplicate rectangle (0, 1)")):
            RectFamily(s, (r, r))
        # The same pair in both orientations is one rectangle.
        with pytest.raises(ValueError, match=re.escape("duplicate rectangle (0, 1)")):
            RectFamily(s, (r, rect_from_pair(s, 0, 1)))

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
        """A piercing pair is no contact: the contact graph leaves it out,
        and only `intersection_kinds` lists it."""
        s = ps((0, 1, "B"), (5, 3, "B"), (2, 0, "B"), (3, 4, "B"))
        f = family(s, [(0, 1), (2, 3)])
        assert build_graph(f).edges == ()
        assert intersection_kinds(s, f.rects) == {(0, 1): K.PIERCING}

    def test_pairwise_disjoint_family_mis(self):
        s = ps(*[(4 * i, 4 * i + 1, "B") for i in range(4)],
               *[(4 * i + 1, 4 * i, "B") for i in range(4)])
        f = family(s, [(i, i + 4) for i in range(4)])
        g = build_graph(f)
        assert g.edges == ()
        assert len(brute_force_mis(f).members) == 4

    def test_dump_edges(self):
        # Two boxes meeting at their shared defining point; then a corner
        # pair with both of its crossings, where every other pair pierces.
        # That family is no antichain, so the reference classifies it.
        s = ps((0, 0, "B"), (2, 2, "B"), (4, 4, "B"))
        g = build_graph(family(s, [(0, 1), (1, 2)]))
        assert dump_edges(g) == "0 1 POINT\n"
        g = IntersectionGraph(4, tuple((u, v, k) for (u, v), k in pairwise_kinds_naive(
            family(ps(*CROSS_POINTS), CROSS_PAIRS)).items()))
        assert dump_edges(g) == "0 1 CORNER\n"


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


def assert_elimination_names_the_walk(g):
    """Corner elimination raises exactly when the walk over the corner pairs
    (`naive.complete_witness_naive`) finds a witness, and its message
    names that pair and the missing key."""
    witness = complete_witness_naive(g)
    if witness is None:
        corner_elimination(g)
        return
    (u, v), missing = witness
    with pytest.raises(ContractError, match=re.escape(
            f"family is not complete: corner pair {g.rects[u].key} / "
            f"{g.rects[v].key} lacks crossing rectangle {missing}") + "$"):
        corner_elimination(g)


class TestVerifyComplete:
    def test_no_corner_pairs_vacuous(self):
        s = ps((0, 0, "B"), (1, 1, "B"), (5, 5, "B"), (6, 6, "B"))
        assert complete_witness(family(s, [(0, 1), (2, 3)])) is None

    def test_crossing_configuration(self):
        s = ps(*CROSS_POINTS)
        assert complete_witness(family(s, CROSS_PAIRS)) is None

    def test_missing_crossing_detected(self):
        # The witness is the corner pair of members 0 and 1 and the key of
        # the first crossing rectangle it lacks.
        s = ps(*CROSS_POINTS)
        assert complete_witness(family(s, CROSS_PAIRS[:3])) == ((0, 1), (1, 2))
        assert complete_witness(family(s, [(0, 1), (2, 3)])) == ((0, 1), (0, 3))

    @given(st.one_of(repeated_grid(), perturbed(), collinear_runs()),
           st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_pair_walk(self, pts, rnd):
        """On the empty-pair family, and on it less about a third of its
        members, the witness is that of the walk over every corner pair, and
        corner elimination's own completeness test agrees with that walk."""
        f = all_empty_family(PointSet.from_tuples(pts))
        sub = f.restrict([k for k in range(len(f)) if rnd.random() >= 0.3])
        for g in (f, sub):
            assert complete_witness(g) == complete_witness_naive(g)
            assert_elimination_names_the_walk(g)

    def test_equals_the_pair_walk_on_random_sets(self):
        """As above on random sets of up to 23 points, which have more
        corner pairs: some sub-families lack crossings of several pairs,
        and the witness is still the first of them."""
        rng = random.Random(5)
        incomplete = 0
        for _ in range(300):
            f = all_empty_family(random_points(rng, rng.randrange(4, 24), 12))
            sub = f.restrict([k for k in range(len(f)) if rng.random() >= 0.3])
            witness = complete_witness(sub)
            assert witness == complete_witness_naive(sub)
            assert_elimination_names_the_walk(sub)
            incomplete += witness is not None
        assert incomplete >= 30

    @pytest.mark.parametrize("pick", [0, -1])
    def test_large_incomplete_family_raises(self, pick):
        """The monochromatized degree-1 gadget's empty-pair family is
        complete.  Without the crossing rectangle (left of v, right of u)
        of its first or last corner pair (u, v), the witness is that of the
        pair walk, and corner elimination refuses the family with it."""
        f = all_empty_family(ps(*GADGET_POINTS))
        assert complete_witness(f) is None
        assert_elimination_names_the_walk(f)
        pairs = [(u, v) for u, m in enumerate(f._corners) for v in _bits(m) if u < v]
        assert len(pairs) == 1040
        u, v = pairs[pick]
        ends = _left_right(f)
        _, missing = _crossing_keys(ends[u], ends[v])
        sub = f.restrict([k for k, r in enumerate(f.rects) if r.key != missing])
        assert len(sub) == len(f) - 1
        witness = complete_witness(sub)
        assert witness is not None and witness == complete_witness_naive(sub)
        assert witness[1] == missing
        assert_elimination_names_the_walk(sub)


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
            k is K.CORNER for k in pairwise_kinds_naive(out).values()
        )
        assert gpc_alpha(out)[0] == gpc_alpha(f)[0]

    def test_random_complete_families_alpha_preserved(self):
        rng = random.Random(11)
        done = piercing = 0
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
            before, arcs = gpc_alpha(f)
            piercing += arcs > 0
            steps = _replay_drops(f)
            for step_fam in steps:
                assert gpc_alpha(step_fam)[0] == before
            out = corner_elimination(f)
            assert gpc_alpha(out)[0] == before
            assert steps[-1].keys() == out.keys()
        # The conflict graphs checked hold piercing edges, not only corners.
        assert piercing > 0


def _replay_drops(f):
    """The family before and after each drop of the documented rule: corner
    pairs in order of their defining keys, the larger key of a pair whose
    rectangles are both alive dropped."""
    keys = [r.key for r in f.rects]
    pairs = sorted(
        tuple(sorted((keys[u], keys[v])))
        for (u, v), k in pairwise_kinds_naive(f).items() if k is K.CORNER
    )
    alive = set(keys)
    steps = [f]
    for low, high in pairs:
        if low in alive and high in alive:
            alive.discard(high)
            steps.append(RectFamily(f.base, tuple(
                r for r in f.rects if r.key in alive)))
    return steps


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
        with pytest.raises(ContractError, match=re.escape(
                "piercing_order requires a corner-free family; pair "
                "(0, 1) / (2, 3) has a corner intersection")):
            piercing_order(family(s, [(0, 1), (2, 3)]))

    def test_equal_boxes_rejected(self):
        # The diagonals of one square span the same box, which no empty
        # rectangle can; the first such pair is reported.
        s = ps((0, 0, "B"), (1, 1, "B"), (0, 1, "B"), (1, 0, "B"), (5, 5, "R"), (6, 6, "R"))
        f = RectFamily(s, tuple(rect_from_pair(s, i, j) for i, j in [(4, 5), (0, 1), (2, 3)]))
        with pytest.raises(ContractError, match=re.escape(
                "mutual piercing between (0, 1) and (2, 3)")):
            piercing_order(f)

    def test_random_corner_free_families_pass(self):
        rng = random.Random(5)
        done = 0
        while done < 40:
            s = random_points(rng, rng.randrange(4, 9), 7)
            pairs = empty_pairs(s)
            if not pairs:
                continue
            f = family(s, pairs)
            kinds = pairwise_kinds_naive(f)
            if any(k is K.CORNER for k in kinds.values()):
                continue
            assert order_violation(piercing_order(f)) is None
            done += 1


class TestMaxAntichain:
    def test_chain_of_three(self):
        d = dag_from_arcs(3, {(0, 1), (1, 2), (0, 2)})
        assert len(max_antichain(d).members) == 1

    def test_antichain_untouched(self):
        d = dag_from_arcs(4, ())
        assert len(max_antichain(d).members) == 4

    def test_augmenting_path_deeper_than_the_recursion_limit(self):
        # Height 2: k -> n+k and k -> n+k+1 for k < n, then 2n+1 -> n and
        # 2n+1 -> n+1.  Every left vertex with arcs has two, so the greedy
        # match visits them in index order: the first n take n+k each, and
        # both partners of 2n+1 are taken.  Its only augmenting path shifts
        # all of them: n+1 steps, beyond the default recursion limit of 1000.
        n = 1100
        arcs = {(k, n + k) for k in range(n)}
        arcs |= {(k, n + k + 1) for k in range(n)} | {(2 * n + 1, n), (2 * n + 1, n + 1)}
        d = dag_from_arcs(2 * n + 2, arcs)
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
            kinds = intersection_kinds(f.base, f.rects)
            if any(k not in (K.PIERCING, K.DISJOINT) for k in kinds.values()):
                continue
            done += 1
            d = piercing_order(f)
            assert len(max_antichain(d).members) == len(brute_force_mis(f).members)

    @given(st.lists(st.tuples(*[st.integers(0, 3)] * 4), unique=True, max_size=24))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_kuhn_reference(self, tuples):
        """On a random dominance order of distinct integer 4-tuples, ties in
        each coordinate included, the antichain is the one that the Kuhn
        reference reads off its own maximum matching."""
        arcs = {(u, v) for u, a in enumerate(tuples) for v, b in enumerate(tuples)
                if u != v and all(x <= y for x, y in zip(a, b))}
        d = dag_from_arcs(len(tuples), arcs)
        assert max_antichain(d).members == antichain_by_kuhn(d)

    @given(st.lists(st.tuples(*[st.integers(0, 3)] * 4), unique=True, max_size=24),
           st.integers(1, 4), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_positions_only_name_the_bits(self, tuples, step, offset):
        """The same order with its elements at spread-out bit positions, as
        corner elimination hands them on, has the same arcs and the same
        antichain."""
        arcs = {(u, v) for u, a in enumerate(tuples) for v, b in enumerate(tuples)
                if u != v and all(x <= y for x, y in zip(a, b))}
        d = dag_from_arcs(len(tuples), arcs)
        positions = tuple(offset + step * u for u in range(len(tuples)))
        spread = PiercingDag(d.n, tuple(
            sum(1 << positions[v] for v in _bits(m)) for m in d.above), positions)
        assert spread.arcs == d.arcs == arcs
        assert max_antichain(spread).members == max_antichain(d).members


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
            kinds = pairwise_kinds_naive(f)
            if any(k is K.CORNER for k in kinds.values()):
                continue
            d = piercing_order(f)
            anti = max_antichain(d)  # raises internally if the identity fails
            assert len(anti.members) >= 1
            done += 1


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


def non_piercing(kinds):
    return {p: k for p, k in kinds.items() if k is not K.PIERCING}


class TestSparseKinds:
    """`intersection_kinds` classifies only the pairs that overlap; less its
    piercing pairs (`naive.pairwise_kinds_naive`) it must agree with
    classifying every pair one at a time, which agrees with the exact
    `Fraction` rectangles (`test_rank_classification_equals_exact`).  A
    restricted family must have exactly the kinds of its members.
    `pairwise_kinds` reads the contacts of an antichain with no corner
    pair off its shared defining points, and must give the kinds of
    `intersection_kinds` on every antichain that the solver chooses."""

    @given(st.one_of(repeated_grid(), perturbed(), collinear_runs()),
           st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_equals_dense_classification(self, pts, segments_only, rnd):
        f = all_pairs_family(PointSet.from_tuples(pts), segments_only)
        dense = dense_kinds(f)
        assert intersection_kinds(f.base, f.rects) == dense
        kinds = pairwise_kinds_naive(f)
        assert kinds == non_piercing(dense)
        assert list(kinds) == sorted(kinds)
        keep = sorted(rnd.sample(range(len(f)), rnd.randrange(len(f) + 1)))
        sub = f.restrict(keep)
        assert list(pairwise_kinds_naive(sub).items()) == [
            ((i, j), kinds[keep[i], keep[j]]) for i, j in combinations(range(len(keep)), 2)
            if (keep[i], keep[j]) in kinds]

    @given(st.one_of(repeated_grid(), perturbed(), collinear_runs()))
    @settings(max_examples=300, deadline=None)
    def test_antichain_contacts_are_the_shared_points(self, pts):
        antichain_contacts(PointSet.from_tuples(pts))

    def test_antichain_contacts_on_random_sets(self):
        """Random sets of 20-400 points on grids of n/4, n and 4n.  These
        antichains hold point contacts only, as all of the solver's did in
        every set tried: the side contacts are checked on the family of
        `test_point_and_side_contacts`."""
        rng = random.Random(43)
        seen = Counter()
        for n in (20, 60, 150, 400):
            for grid in (max(5, n // 4), n, 4 * n):
                for _ in range(2):
                    seen += antichain_contacts(random_points(rng, n, grid))
        assert seen[K.POINT] > 0

    @pytest.mark.parametrize("recolor", [monochromatize, bichromatize])
    def test_antichain_contacts_on_a_recoloured_gadget(self, recolor):
        s = recolor(build_gadget(*variable_gadget(1), {"recipe": "variable"}))
        assert antichain_contacts(s)[K.POINT] > 0

    @given(st.one_of(repeated_grid(), perturbed(), collinear_runs()))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_references(self, pts):
        """On the empty-pair family, and on its corner elimination when it
        is complete: the kinds are `intersection_kinds` less its piercing
        pairs, and the piercing order's arcs are those piercing pairs,
        oriented by `pierces` on the exact boxes."""
        f = all_empty_family(PointSet.from_tuples(pts))
        fams = [f, corner_elimination(f)] if complete_witness(f) is None else [f]
        for g in fams:
            kinds = intersection_kinds(g.base, g.rects)
            assert pairwise_kinds_naive(g) == non_piercing(kinds)
            if K.CORNER in kinds.values():
                continue
            arcs = set()
            for (u, v), k in kinds.items():
                if k is K.PIERCING:
                    a = exact_box(g.base, *g.rects[u].key)
                    b = exact_box(g.base, *g.rects[v].key)
                    arcs.add((u, v) if pierces(a, b) else (v, u))
            assert piercing_order(g).arcs == arcs

    @given(st.one_of(repeated_grid(), perturbed(), collinear_runs()))
    @example(GADGET_POINTS)
    @settings(max_examples=300, deadline=None)
    def test_corner_masks_are_the_corner_pairs(self, pts):
        """On the empty-pair family, the corner masks of `_dominance` hold
        exactly the pairs that `intersection_kinds` calls CORNER."""
        f = all_empty_family(PointSet.from_tuples(pts))
        want = [0] * len(f)
        for (u, v), k in intersection_kinds(f.base, f.rects).items():
            if k is K.CORNER:
                want[u] |= 1 << v
                want[v] |= 1 << u
        assert f._corners == want

    def test_point_and_side_contacts(self):
        """Empty rectangles, no two comparable: three with point 0 at their
        lower left, upper left and upper right, and one with the first's
        upper right point 1 at its lower left.  The pairs come in sorted
        order, though point 1's pair is found after point 0's."""
        f = family(ps((0, 2, "B"), (3, 4, "B"), (2, 0, "B"), (-1, 1, "B"), (5, 6, "B")),
                   [(0, 1), (0, 2), (0, 3), (1, 4)])
        want = {(0, 1): K.SIDE, (0, 2): K.POINT, (0, 3): K.POINT, (1, 2): K.SIDE}
        kinds = pairwise_kinds(f)
        assert list(kinds.items()) == list(want.items())
        assert kinds == intersection_kinds(f.base, f.rects)

    def test_missing_pair_means_disjoint(self):
        s = ps((0, 0, "B"), (1, 1, "B"), (5, 5, "B"), (6, 6, "B"))
        assert pairwise_kinds(family(s, [(0, 1), (2, 3)])) == {}


def antichain_contacts(s) -> Counter:
    """Check that, on the antichain that `exact_independent_rects` picks
    from each monochromatic family of s, `pairwise_kinds` is
    `intersection_kinds`, in sorted order, and the contact graph's edges
    are those pairs.  Returns the count of each kind found."""
    seen = Counter()
    for fam in split_families_mono(RectFamily(s, tuple(candidate_monochromatic(s)))):
        a = fam.restrict(sorted(exact_independent_rects(fam).members))
        kinds = pairwise_kinds(a)
        assert kinds == intersection_kinds(a.base, a.rects)
        assert list(kinds) == sorted(kinds)
        assert build_graph(a).edges == tuple((u, v, k) for (u, v), k in kinds.items())
        seen.update(kinds.values())
    return seen


def test_solver_classifies_no_pair(monkeypatch):
    """Both approximations read the contacts off shared defining points:
    they never call `geometry._meet` and never build the point grid."""
    calls = []
    real = geometry._meet
    monkeypatch.setattr(geometry, "_meet", lambda *args: calls.append(args) or real(*args))
    for s in (random_instance(200, 800, 0.5, seed=1),
              bichromatize(build_gadget(*variable_gadget(1), {"recipe": "variable"}))):
        approx_mmrm(s)
        approx_mbrm(s)
        assert "_rank_grid" not in s.__dict__
    assert calls == []
    # The patch is live: a classification goes through it.
    r = rect_from_pair(s, 0, 1)
    classify_intersection(s, r, r)
    assert len(calls) == 1


class TestDominanceOrder:
    """Piercing is coordinate-wise `<=` on (xmin, -xmax, -ymin, ymax), so
    oriented by `pierces` the piercing pairs of any empty-pair family form a
    strict partial order: the reason `piercing_order` does not verify one."""

    @given(st.one_of(repeated_grid(), perturbed(), collinear_runs()))
    @settings(max_examples=300, deadline=None)
    def test_piercing_pairs_orient_into_a_strict_order(self, pts):
        f = all_empty_family(PointSet.from_tuples(pts))
        arcs = set()
        for (u, v), k in intersection_kinds(f.base, f.rects).items():
            if k is not K.PIERCING:
                continue
            a, b = exact_box(f.base, *f.rects[u].key), exact_box(f.base, *f.rects[v].key)
            assert a != b
            arcs.add((u, v) if pierces(a, b) else (v, u))
        assert order_violation(dag_from_arcs(len(f), arcs)) is None


def solver_families(s):
    """The corner families that the two approximations solve on s."""
    return (split_families_mono(RectFamily(s, tuple(candidate_monochromatic(s))))
            + split_families_bi(RectFamily(s, tuple(candidate_bichromatic(s)))))


def count_dominance(monkeypatch) -> list[int]:
    """Record the size of every `_dominance` call that `independent_set`
    makes from now on."""
    calls = []
    real = independent_set._dominance

    def counted(rects):
        calls.append(len(rects))
        return real(rects)
    monkeypatch.setattr(independent_set, "_dominance", counted)
    return calls


class TestOnePass:
    """Corner elimination visits each family in one `_dominance` pass and
    hands the survivors' piercing masks on, at their bit positions in the
    family, to the piercing order and the chain cover.  The answers must be
    those of the three separate stages (`naive.exact_independent_naive`)."""

    @given(st.one_of(repeated_grid(), perturbed(), collinear_runs()))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_three_stages(self, pts):
        for fam in solver_families(PointSet.from_tuples(pts)):
            assert exact_independent_rects(fam).members == exact_independent_naive(fam)

    def test_equals_the_three_stages_on_random_sets(self):
        rng = random.Random(41)
        dropped = 0
        for _ in range(40):
            s = random_points(rng, rng.randrange(10, 60), 40)
            for fam in solver_families(s):
                assert exact_independent_rects(fam).members == exact_independent_naive(fam)
                dropped += len(survivors_naive(fam)) < len(fam)
        assert dropped >= 20

    @pytest.mark.parametrize("recolor", [monochromatize, bichromatize])
    def test_equals_the_three_stages_on_a_recoloured_gadget(self, recolor):
        s = recolor(build_gadget(*variable_gadget(1), {"recipe": "variable"}))
        for fam in solver_families(s):
            assert exact_independent_rects(fam).members == exact_independent_naive(fam)

    def test_one_dominance_pass_per_family(self, monkeypatch):
        """Each family of the solver's path is walked once, and neither its
        corner masks nor an order stay on it."""
        calls = count_dominance(monkeypatch)
        s = random_instance(60, 240, 0.5, seed=1)
        for fam in solver_families(s):
            before = len(calls)
            half_approx_family(fam)
            exact_independent_rects(fam)
            assert calls[before:] == [len(fam), len(fam)]
            assert "_corners" not in fam.__dict__ and "_order" not in fam.__dict__
        for solve in (approx_mmrm, approx_mbrm):
            del calls[:]
            sizes = solve(s).family_sizes
            assert calls == list(sizes)

    def test_out_of_key_order_keeps_the_survivors(self, monkeypatch):
        """A family whose members met at a corner are in key order streams in
        one pass, though other members are not; one whose members met at a
        corner are not is visited again in key order.  Both keep the
        survivors of the key-order rule, in index order, and their orders
        are those of a fresh pass over the survivors."""
        calls = count_dominance(monkeypatch)
        rng = random.Random(3)
        revisited = 0
        for _ in range(40):
            s = random_points(rng, rng.randrange(8, 30), 20)
            f = all_empty_family(s)
            loose = [u for u, m in enumerate(f._corners) if not m]
            moved = dict(zip(loose, rng.sample(loose, len(loose))))
            shuffled = list(range(len(f)))
            rng.shuffle(shuffled)
            streamed = [moved.get(u, u) for u in range(len(f))]
            for order in (streamed, shuffled):
                g = RectFamily(s, tuple(f.rects[i] for i in order))
                want = survivors_naive(g)
                del calls[:]
                out = corner_elimination(g)
                if order is streamed:
                    assert calls == [len(g)]
                revisited += len(calls) == 2
                assert out.rects == tuple(g.rects[i] for i in want)
                assert piercing_order(out).arcs == piercing_order(g.restrict(want)).arcs
                assert exact_independent_rects(g).members == exact_independent_naive(g)
        assert revisited >= 20

    @pytest.mark.parametrize("pairs, text", [
        ([(0, 1), (2, 3), (0, 3)], "(0, 1) / (2, 3) lacks crossing rectangle (1, 2)"),
        ([(0, 3), (2, 3), (0, 1)], "(2, 3) / (0, 1) lacks crossing rectangle (1, 2)"),
        ([(2, 3), (0, 1)], "(2, 3) / (0, 1) lacks crossing rectangle (1, 2)"),
    ])
    def test_incomplete_family_keeps_its_error(self, pairs, text):
        """In key order or not, an incomplete family raises with the
        witness of `complete_witness`, word for word."""
        s = ps(*CROSS_POINTS)
        f = RectFamily(s, tuple(rect_from_pair(s, i, j) for i, j in pairs))
        with pytest.raises(ContractError, match=re.escape(
                f"family is not complete: corner pair {text}") + "$"):
            corner_elimination(f)

    def test_large_incomplete_family_out_of_key_order(self):
        """The degree-1 gadget's family less one crossing rectangle, with its
        members reversed, raises with the witness of the pair walk."""
        f = all_empty_family(ps(*GADGET_POINTS))
        u, v = next((u, v) for u, m in enumerate(f._corners) for v in _bits(m) if u < v)
        ends = _left_right(f)
        _, missing = _crossing_keys(ends[u], ends[v])
        g = RectFamily(f.base, tuple(r for r in reversed(f.rects) if r.key != missing))
        (u, v), lacked = complete_witness_naive(g)
        assert lacked == missing
        with pytest.raises(ContractError, match=re.escape(
                f"family is not complete: corner pair {g.rects[u].key} / "
                f"{g.rects[v].key} lacks crossing rectangle {missing}") + "$"):
            corner_elimination(g)

    def test_equal_boxes_survive_and_are_rejected(self):
        """Two members with equal boxes both survive corner elimination, and
        the piercing order of the survivors names them as before."""
        s = ps((0, 0, "B"), (1, 1, "B"), (0, 1, "B"), (1, 0, "B"), (5, 5, "R"), (6, 6, "R"))
        f = RectFamily(s, tuple(rect_from_pair(s, i, j) for i, j in [(4, 5), (0, 1), (2, 3)]))
        out = corner_elimination(f)
        assert out.rects == f.rects
        with pytest.raises(ContractError, match=re.escape(
                "mutual piercing between (0, 1) and (2, 3)")):
            piercing_order(out)
