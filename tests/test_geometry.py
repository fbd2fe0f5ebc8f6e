import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rectmatch.gadgets import (
    bichromatize,
    build_gadget,
    compile_planar_1in3,
    formula_from_dict,
    monochromatize,
    variable_gadget,
)
from rectmatch.gadgets import random_instance as gadget_random_instance
from rectmatch.geometry import (
    Color,
    IntersectionKind,
    PointSet,
    Rect,
    _dense_ranks,
    _meet,
    candidate_bichromatic,
    candidate_monochromatic,
    classify_intersection,
    dump_points,
    empty_pairs,
    parse_points,
    perturb,
    point,
    rect_from_pair,
)

from naive import (
    classify_exact,
    dense_ranks_naive,
    empty_pairs_naive,
    empty_pairs_scan,
    exact_box,
    is_general_position,
    meet_naive,
    pierces,
    square_symmetries,
)
from strategies import collinear_runs, perturbed, repeated_grid


def ps(*triples):
    return PointSet.from_tuples(triples)


def rect(s, i, j):
    return rect_from_pair(s, i, j)


def contains(s, r, k) -> bool:
    """Closed containment of point k of s in r, on ranks: boundary points
    count."""
    xr, yr = s._ranks
    return r.xmin <= xr[k] <= r.xmax and r.ymin <= yr[k] <= r.ymax


class TestRectFromPair:
    def test_diagonal_box(self):
        s = ps((0, 0, "B"), (5, 5, "B"))
        r = rect(s, 0, 1)
        assert (r.xmin, r.xmax, r.ymin, r.ymax) == (0, 1, 0, 1)
        assert exact_box(s, r.a, r.b) == (0, 5, 0, 5)

    def test_aligned_pair_is_segment(self):
        s = ps((0, 0, "B"), (3, 0, "B"))
        r = rect(s, 0, 1)
        assert (r.xmin, r.xmax, r.ymin, r.ymax) == (0, 1, 0, 0)
        assert exact_box(s, r.a, r.b) == (0, 3, 0, 0)

    def test_antidiagonal_same_bounds(self):
        s = ps((5, 0, "R"), (0, 5, "R"))
        r = rect(s, 0, 1)
        assert (r.xmin, r.xmax, r.ymin, r.ymax) == (0, 1, 0, 1)
        assert exact_box(s, r.a, r.b) == (0, 5, 0, 5)
        assert (r.a, r.b, r.key) == (0, 1, (0, 1))
        assert rect(s, 1, 0).key == (0, 1)

    def test_equal_indices_rejected(self):
        s = ps((0, 0, "B"), (1, 1, "B"))
        with pytest.raises(ValueError):
            rect(s, 1, 1)
        with pytest.raises(ValueError):
            rect(s, 0, 2)


class TestContainment:
    def test_boundary_inclusive(self):
        s = ps((0, 0, "B"), (5, 5, "B"), (5, 3, "R"), (6, 3, "R"))
        r = rect(s, 0, 1)
        assert contains(s, r, 2)
        assert not contains(s, r, 3)

    def test_degenerate_rect(self):
        s = ps((0, 0, "B"), (3, 0, "B"), (2, 0, "R"), (2, Fraction(1, 100), "R"))
        r = rect(s, 0, 1)
        assert (r.xmin, r.xmax, r.ymin, r.ymax) == (0, 2, 0, 0)
        assert contains(s, r, 2)
        assert not contains(s, r, 3)


def mk_rect(xmin, xmax, ymin, ymax) -> Rect:
    return Rect(xmin, xmax, ymin, ymax, 0, 1)


class TestPierces:
    def test_classic_cross(self):
        r1 = mk_rect(0, 4, 0, 2)
        r2 = mk_rect(1, 3, -1, 3)
        assert pierces(r1, r2)
        assert not pierces(r2, r1)

    def test_disjoint_projections(self):
        assert not pierces(mk_rect(0, 4, 0, 2), mk_rect(5, 6, 0, 2))

    def test_equal_projections_pierce(self):
        r = mk_rect(0, 4, 0, 2)
        assert pierces(r, mk_rect(0, 4, 0, 2))


class TestClassify:
    def test_piercing(self):
        s = ps((0, 0, "B"), (4, 2, "B"), (1, -1, "B"), (3, 3, "B"))
        r1, r2 = rect(s, 0, 1), rect(s, 2, 3)
        assert classify_intersection(s, r1, r2) is IntersectionKind.PIERCING

    def test_point_at_shared_corner(self):
        s = ps((0, 0, "B"), (2, 2, "B"), (4, 4, "B"))
        r1, r2 = rect(s, 0, 1), rect(s, 1, 2)
        assert classify_intersection(s, r1, r2) is IntersectionKind.POINT

    def test_corner(self):
        # [0,3]x[1,4] against [2,5]x[0,3]: the mutually contained corners
        # (2,3) and (3,1) are not points of s.
        s = ps((0, 1, "B"), (3, 4, "B"), (2, 0, "B"), (5, 3, "B"))
        r1, r2 = rect(s, 0, 1), rect(s, 2, 3)
        assert classify_intersection(s, r1, r2) is IntersectionKind.CORNER

    def test_disjoint(self):
        s = ps((0, 0, "B"), (1, 1, "B"), (5, 5, "B"), (6, 6, "B"))
        assert classify_intersection(s, rect(s, 0, 1), rect(s, 2, 3)) is IntersectionKind.DISJOINT

    def test_side(self):
        # Overlapping boxes where two corners of one sit inside the other.
        s = ps((0, 0, "B"), (4, 4, "B"), (2, -1, "B"), (3, 2, "B"))
        r1, r2 = rect(s, 0, 1), rect(s, 2, 3)
        assert classify_intersection(s, r1, r2) is IntersectionKind.SIDE

    def test_shared_endpoint_segments_pierce(self):
        # A vertical and a horizontal segment sharing their low endpoint: the
        # projection containments hold, so the pair counts as piercing.
        s = ps((0, 0, "B"), (0, 2, "R"), (3, 0, "R"))
        v, h = rect(s, 0, 1), rect(s, 0, 2)
        assert pierces(h, v)
        assert classify_intersection(s, v, h) is IntersectionKind.PIERCING

    def test_symmetry_and_totality_random(self):
        import random

        rng = random.Random(7)
        for _ in range(200):
            pts = set()
            while len(pts) < 6:
                pts.add((rng.randrange(6), rng.randrange(6)))
            s = PointSet.from_tuples(
                (x, y, "R" if rng.random() < 0.5 else "B") for x, y in pts
            )
            idx = list(range(6))
            rng.shuffle(idx)
            r1 = rect(s, idx[0], idx[1])
            r2 = rect(s, idx[2], idx[3])
            k12 = classify_intersection(s, r1, r2)
            k21 = classify_intersection(s, r2, r1)
            assert k12 is k21
            assert isinstance(k12, IntersectionKind)


@st.composite
def grid_cells(draw):
    """2 to 10 distinct cells of a g x g grid, 2 <= g <= 7."""
    g = draw(st.integers(2, 7))
    cells = draw(st.sets(st.tuples(st.integers(0, g - 1), st.integers(0, g - 1)),
                         min_size=2, max_size=10))
    return sorted(cells)


# The boxes [0, 2] x [0, 2] of (0, 2) and (2, 0) and [1, 3] x [1, 3] of
# (1, 3) and (3, 1) meet at a corner: each holds one corner of the other,
# (1, 1) and (2, 2), and neither is a point.  With (4, 4) the pairs of
# boxes of these cells are of every kind.
EVERY_KIND = [(0, 2), (1, 3), (2, 0), (3, 1), (4, 4)]


def _box_pairs(cells):
    """Every ordered pair of the boxes spanned by two of the cells, each
    with the rank grid of the cells."""
    s = PointSet.from_tuples((x, y, "B") for x, y in cells)
    n = len(s)
    rects = [rect(s, i, j) for i in range(n) for j in range(i + 1, n)]
    return [(r1, r2, s._rank_grid) for r1 in rects for r2 in rects]


class TestMeet:
    """`_meet` decides a corner meeting on the two projections; the
    reference `meet_naive` lists the corners of each box inside the
    other."""

    @given(grid_cells())
    @example(EVERY_KIND)
    @settings(max_examples=150, deadline=None)
    def test_equals_the_corner_lists(self, cells):
        """On every pair of boxes spanned by two points, flat and equal
        ones too, `_meet` gives `meet_naive`'s kind, on `Rect`s and on
        plain 4-tuples of their bounds."""
        for r1, r2, grid in _box_pairs(cells):
            want = meet_naive(r1, r2, grid)
            assert _meet(r1, r2, grid) is want
            assert _meet(r1[:4], r2[:4], grid) is want

    def test_the_example_has_every_kind(self):
        kinds = {meet_naive(*pair) for pair in _box_pairs(EVERY_KIND)}
        assert kinds == set(IntersectionKind)


class TestCandidates:
    def test_single_blue_pair(self):
        s = ps((0, 0, "B"), (1, 1, "B"))
        assert [r.key for r in candidate_monochromatic(s)] == [(0, 1)]

    def test_blocking_point(self):
        s = ps((0, 0, "B"), (2, 2, "B"), (1, 1, "R"))
        assert candidate_monochromatic(s) == []

    def test_collinear_consecutive(self):
        s = ps((0, 0, "B"), (1, 0, "B"), (2, 0, "B"), (3, 0, "B"))
        keys = sorted(r.key for r in candidate_monochromatic(s))
        assert keys == [(0, 1), (1, 2), (2, 3)]

    def test_bichromatic_basic(self):
        s = ps((0, 0, "B"), (1, 1, "R"))
        assert [r.key for r in candidate_bichromatic(s)] == [(0, 1)]
        s2 = ps((0, 0, "B"), (1, 1, "B"))
        assert candidate_bichromatic(s2) == []

    def test_bichromatic_emptiness_filter(self):
        s = ps((0, 0, "R"), (3, 3, "B"), (1, 1, "B"))
        keys = sorted(r.key for r in candidate_bichromatic(s))
        assert keys == [(0, 2)]

    def test_candidates_contain_exactly_their_points(self):
        import random

        rng = random.Random(3)
        for _ in range(50):
            pts = set()
            while len(pts) < 9:
                pts.add((rng.randrange(8), rng.randrange(8)))
            s = PointSet.from_tuples(
                (x, y, "R" if rng.random() < 0.4 else "B") for x, y in pts
            )
            for r in candidate_monochromatic(s) + candidate_bichromatic(s):
                b = exact_box(s, r.a, r.b)
                inside = [k for k, p in enumerate(s)
                          if b.xmin <= p.x <= b.xmax and b.ymin <= p.y <= b.ymax]
                assert sorted(inside) == sorted([r.a, r.b])
                assert [k for k in range(len(s)) if contains(s, r, k)] == inside

    @given(st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=2, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_sweep_matches_naive(self, coords):
        s = PointSet.from_tuples((x, y, "B") for x, y in sorted(coords))
        assert empty_pairs(s) == empty_pairs_naive(s)

    @given(st.one_of(repeated_grid(), perturbed(), collinear_runs()))
    @settings(max_examples=200, deadline=None)
    def test_sweep_matches_naive_on_harsh_sets(self, pts):
        s = PointSet.from_tuples(pts)
        want = empty_pairs_naive(s)
        assert empty_pairs(s) == want
        assert empty_pairs_scan(s) == want


def _one_clause_formula():
    return compile_planar_1in3(formula_from_dict({
        "variables": ["u", "v", "w"],
        "clauses": [{"literals": [{"var": v, "neg": neg} for v, neg in
                                  (("u", False), ("v", True), ("w", False))]}],
    })).points


def _variable_gadget_2():
    return build_gadget(*variable_gadget(2), {"recipe": "variable"})


def _line(axis):
    return PointSet.from_tuples((k, 7, "B") if axis == "row" else (7, k, "B")
                                for k in range(600))


def _staircase_beside_a_column():
    """Each step of the staircase sees the whole column below it, where
    only the top point pairs with it."""
    return PointSet.from_tuples(
        [(k - 300, 400 + k, "B") for k in range(300)]
        + [(1, y, "R") for y in range(300)])


@pytest.mark.parametrize("make", [
    _one_clause_formula,
    lambda: monochromatize(_variable_gadget_2()),
    lambda: bichromatize(_variable_gadget_2()),
    lambda: gadget_random_instance(600, 60, 0.5, seed=5),
    lambda: _line("row"),
    lambda: _line("column"),
    _staircase_beside_a_column,
], ids=["one-clause", "mono-variable-2", "bi-variable-2", "random-600-on-60",
        "row-600", "column-600", "staircase-beside-a-column"])
def test_sweep_equals_the_scan_above_the_crossover(make):
    """On sets of 600 to 1608 points, with rational coordinates, repeated
    coordinates and collinear runs, `empty_pairs` finds the pairs of the
    quadratic scan."""
    s = make()
    assert empty_pairs(s) == empty_pairs_scan(s)


@given(st.one_of(repeated_grid(), perturbed(), collinear_runs()))
@example([(p.x, p.y, p.color)
          for p in gadget_random_instance(400, 40, 0.5, seed=1)])
@settings(max_examples=100, deadline=None)
def test_empty_pairs_invariant_under_the_square_symmetries(pts):
    """Each symmetry of the square maps closed boxes onto closed boxes, so
    the empty pairs stay the same index pairs, though the sweep meets the
    points in another order and applies its column rules on other sides."""
    s = PointSet.from_tuples(pts)
    want = empty_pairs(s)
    for t in square_symmetries(s):
        assert empty_pairs(t) == want


@given(st.one_of(repeated_grid(), perturbed(), collinear_runs()))
@example([(p.x, p.y, p.color) for p in monochromatize(
    build_gadget(*variable_gadget(1), {"recipe": "variable"}))])
@example([(p.x, p.y, p.color) for p in bichromatize(
    build_gadget(*variable_gadget(1), {"recipe": "variable"}))])
@settings(max_examples=200, deadline=None)
def test_one_rank_empty_rectangles_meet_only_at_their_points(pts):
    """An empty rectangle whose rank box spans at most one rank along each
    axis is DISJOINT, on the exact boxes, from every empty rectangle with
    other defining points: the corollary in the `_dominance` docstring.
    Only pairs whose closed rank boxes overlap are classified; ranks keep
    the order of the coordinates, so the others are disjoint."""
    s = PointSet.from_tuples(pts)
    rects = [rect(s, i, j) for i, j in empty_pairs(s)]
    for k in rects:
        if k.xmax - k.xmin > 1 or k.ymax - k.ymin > 1:
            continue
        for r in rects:
            if ({r.a, r.b} & {k.a, k.b} or r.xmin > k.xmax or r.xmax < k.xmin
                    or r.ymin > k.ymax or r.ymax < k.ymin):
                continue
            assert classify_exact(s, k.key, r.key) is IntersectionKind.DISJOINT, \
                (k.key, r.key)


class TestPerturb:
    def test_zero_fixed(self):
        out = perturb(ps((0, 0, "B")), 5)[0]
        assert (out.x, out.y) == (0, 0)

    def test_direct_substitution(self):
        s = ps((5, 5, "B"))
        out = perturb(s, 5)[0]
        assert (out.x, out.y) == (5 + Fraction(10, 11), 5 + Fraction(10, 11))

    def test_two_point_example(self):
        s = ps((0, 1, "B"), (1, 0, "B"))
        out = perturb(s, 1)
        assert (out[0].x, out[0].y) == (Fraction(1, 3), Fraction(4, 3))
        assert (out[1].x, out[1].y) == (Fraction(4, 3), Fraction(1, 3))
        assert out[0].x != out[1].x and out[0].y != out[1].y

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            perturb(ps((0, 6, "B")), 5)
        with pytest.raises(ValueError):
            perturb(PointSet.from_tuples([(Fraction(1, 2), 0, "B")]), 5)

    @given(st.sets(st.tuples(st.integers(0, 10), st.integers(0, 10)), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_always_general_position(self, coords):
        s = PointSet.from_tuples((x, y, "B") for x, y in sorted(coords))
        assert is_general_position(perturb(s, 10))

    def test_preserves_colors(self):
        s = ps((0, 0, "R"), (1, 2, "B"))
        out = perturb(s, 2)
        assert [p.color for p in out] == [Color.RED, Color.BLUE]


class TestGeneralPosition:
    def test_examples(self):
        assert is_general_position(ps((0, 0, "B"), (1, 1, "B")))
        assert not is_general_position(ps((0, 0, "B"), (0, 1, "B")))


class TestCandidateFamilyProperties:
    @given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                   min_size=4, max_size=10),
           st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_point_contact_is_a_shared_defining_point(self, coords, rnd):
        coords = sorted(coords)
        s = PointSet.from_tuples(
            (x, y, "R" if rnd.random() < 0.5 else "B") for x, y in coords
        )
        rects = [rect_from_pair(s, i, j) for i, j in empty_pairs(s)]
        for a in range(len(rects)):
            for b in range(a + 1, len(rects)):
                r1, r2 = rects[a], rects[b]
                if classify_intersection(s, r1, r2) is IntersectionKind.POINT:
                    b1, b2 = exact_box(s, r1.a, r1.b), exact_box(s, r2.a, r2.b)
                    lox = max(b1.xmin, b2.xmin)
                    loy = max(b1.ymin, b2.ymin)
                    shared = {(lox, loy)}
                    defining_1 = {(s[r1.a].x, s[r1.a].y), (s[r1.b].x, s[r1.b].y)}
                    defining_2 = {(s[r2.a].x, s[r2.a].y), (s[r2.b].x, s[r2.b].y)}
                    assert shared <= defining_1 and shared <= defining_2

    @given(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                   min_size=4, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_classification_total_and_symmetric(self, coords):
        coords = sorted(coords)
        s = PointSet.from_tuples((x, y, "B") for x, y in coords)
        n = len(s)
        rects = [rect_from_pair(s, i, j) for i in range(n) for j in range(i + 1, n)]
        for a in range(min(len(rects), 12)):
            for b in range(a + 1, min(len(rects), 12)):
                k1 = classify_intersection(s, rects[a], rects[b])
                k2 = classify_intersection(s, rects[b], rects[a])
                assert k1 is k2
                assert isinstance(k1, IntersectionKind)


# Mostly a few fixed values, so x and y coordinates repeat, and otherwise
# any rational: negative, fractional and with large terms.
_file_coords = st.one_of(
    st.sampled_from([Fraction(0), Fraction(-3), Fraction(10, 11), Fraction(-7, 2)]),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6),
)


@st.composite
def repeated_fractions(draw):
    """Negative and rational values, some of them repeated, in any order."""
    values = draw(st.lists(
        st.fractions(min_value=-6, max_value=6, max_denominator=7), max_size=30))
    if values:
        values += draw(st.lists(st.sampled_from(values), max_size=10))
    return draw(st.permutations(values))


# Values whose floats collide: a few anchors, each moved by as little as
# 10**-20, and anchors past the float range.
_TINY = Fraction(1, 10 ** 18)
_HUGE = Fraction(10 ** 400, 3)


@st.composite
def close_fractions(draw):
    """Negative and rational values, many of them equal as floats but not
    as values, some repeated and some beyond the float range."""
    anchor = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 3), _HUGE, -_HUGE])
    offset = st.builds(Fraction, st.integers(-3, 3),
                       st.sampled_from([1, 7, 10 ** 17, 3 * 10 ** 18, 10 ** 20]))
    values = draw(st.lists(st.builds(lambda a, d: a + d, anchor, offset), max_size=20))
    if values:
        values += draw(st.lists(st.sampled_from(values), max_size=5))
    return draw(st.permutations(values))


class TestDenseRanks:
    @given(repeated_fractions())
    @example([Fraction(-1, 2), Fraction(2, -4), Fraction(0), Fraction(-0, 5)])
    @example([Fraction(3), Fraction(-2), Fraction(3), Fraction(0)])
    @example([Fraction(1, 3), Fraction(-2, 3), Fraction(1, 3), Fraction(-4, 3)])
    @settings(max_examples=200, deadline=None)
    def test_equals_the_ranks_of_a_value_dict(self, values):
        assert _dense_ranks(values) == dense_ranks_naive(values)

    @pytest.mark.parametrize("values", [
        [1 + _TINY, Fraction(1), 1 - _TINY, Fraction(1, 3), 1 + 2 * _TINY, Fraction(1)],
        [-1 + _TINY, Fraction(-1), -1 - _TINY, Fraction(-1, 3), -1 - _TINY],
        [_HUGE, Fraction(1, 2), -_HUGE, _HUGE + Fraction(1, 3), Fraction(-5, 7)],
        [_HUGE, _HUGE - _TINY, Fraction(0), _HUGE],
    ], ids=["equal-floats", "negative-equal-floats", "past-float-range",
            "past-float-range-equal"])
    def test_equals_an_exact_sort(self, values):
        assert _dense_ranks(values) == dense_ranks_naive(values)

    @given(close_fractions())
    @settings(max_examples=200, deadline=None)
    def test_equals_an_exact_sort_on_close_values(self, values):
        assert _dense_ranks(values) == dense_ranks_naive(values)

    def test_compares_no_fraction_on_a_recoloured_gadget(self, monkeypatch):
        """The rational coordinates of a recoloured gadget are ranked by
        their floats, which differ, so no `Fraction` is compared."""
        s = bichromatize(build_gadget(*variable_gadget(1), {"recipe": "variable"}))
        xs, ys = [p.x for p in s], [p.y for p in s]
        assert len({x.denominator for x in xs}) > 1
        compared = []
        for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
            def spy(self, other, _real=getattr(Fraction, name)):
                compared.append(other)
                return _real(self, other)

            monkeypatch.setattr(Fraction, name, spy)
        ranks = (_dense_ranks(xs), _dense_ranks(ys))
        monkeypatch.undo()
        assert compared == []
        assert ranks == (dense_ranks_naive(xs), dense_ranks_naive(ys))


class TestPointFile:
    @given(st.lists(
        st.tuples(_file_coords, _file_coords, st.sampled_from("RB")),
        max_size=12, unique_by=lambda p: p[:2],
    ))
    @example([])
    @example([(0, 0, "R"), (Fraction(10, 11), 5, "B"),
              (Fraction(-3, 7), Fraction(1, 2), "B")])
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, triples):
        s = PointSet.from_tuples(triples)
        text = dump_points(s)
        again = parse_points(text)
        assert again == s
        assert dump_points(again) == text

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\n0 0 R\n1/2 3 B  # trailing\n"
        s = parse_points(text)
        assert len(s) == 2
        assert s[1].x == Fraction(1, 2)

    def test_bad_color(self):
        with pytest.raises(ValueError):
            parse_points("0 0 G\n")

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            parse_points("0 0 R\n0 0 B\n")

    def test_two_field_line(self):
        with pytest.raises(ValueError, match=re.escape(
                "line 2: expected 'x y color', got '1 1'")):
            parse_points("0 0 B\n1 1\n")
