import hashlib
import re
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rectmatch.errors import ContractError
from rectmatch.geometry import (
    Color,
    PointSet,
    candidate_monochromatic,
    dump_points,
    empty_pairs,
    perturb,
)
from rectmatch.matching import (
    MatchMode,
    brute_force_max_matching,
    count_perfect_matchings,
    decide_perfect,
)
from rectmatch.gadgets import (
    Clause,
    Formula,
    LegAnchor,
    Literal,
    blocking_gadget,
    build_gadget,
    build_layout,
    clause_gadget,
    compile_planar_1in3,
    eval_one_in_three,
    formula_from_dict,
    formula_to_dict,
    monochromatize,
    bichromatize,
    one_in_three_satisfiable,
    random_instance,
    sidecar_to_dict,
    variable_gadget,
)

from naive import (
    blue_points,
    comb_conflict,
    forced_variable_pairs,
    is_general_position,
    layout_naive,
    red_vertical_pairs,
    variable_matching_pairs,
)

BIG = 10 ** 7


def formula(vars, *clauses):
    return formula_from_dict({
        "variables": list(vars),
        "clauses": [
            {"literals": [{"var": v, "neg": bool(n)} for v, n in lits], "side": side}
            for lits, side in clauses
        ],
    })


class TestRandomInstance:
    def test_empty(self):
        assert len(random_instance(0, 5, 0.5, seed=1)) == 0

    def test_deterministic(self):
        a = random_instance(9, 10, 0.3, seed=42)
        b = random_instance(9, 10, 0.3, seed=42)
        assert a == b
        c = random_instance(9, 10, 0.3, seed=43)
        assert a != c

    def test_full_grid(self):
        s = random_instance(16, 3, 0.5, seed=7)
        assert len(s) == 16

    def test_infeasible(self):
        with pytest.raises(ValueError):
            random_instance(17, 3, 0.5, seed=7)

    @pytest.mark.parametrize("n, grid_n, message", [
        (-3, 4, "n must be non-negative, got -3"),
        (1, -2, "grid_n must be non-negative, got -2"),
    ])
    def test_negative_size_rejected(self, n, grid_n, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            random_instance(n, grid_n, 0.5, seed=0)


class TestBlockingGadget:
    def test_exact_coordinates(self):
        s = blocking_gadget()
        coords = {(int(p.x), int(p.y)) for p in s}
        assert coords == {
            (0, 0), (5, 0), (5, 5), (0, 5),
            (1, 3), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 2),
        }
        assert all(p.color is Color.BLUE for p in s)

    def test_perfect(self):
        assert decide_perfect(blocking_gadget(), MatchMode.MONO)

    def test_perfect_matching_count(self):
        # Counted with the lowest free point as every branch point; the
        # order of the branch points must not change the count.
        assert count_perfect_matchings(blocking_gadget(), MatchMode.MONO) == 16

    def test_oracle_finds_six_pairs(self):
        m = brute_force_max_matching(blocking_gadget(), MatchMode.MONO)
        assert len(m) == 6

    def test_all_outer_subset_removals_imperfect(self):
        s = blocking_gadget()
        outer = list(range(4))
        removed_count = 0
        for r in range(1, 5):
            for drop in combinations(outer, r):
                kept = tuple(
                    p for i, p in enumerate(s) if i not in set(drop)
                )
                assert not decide_perfect(PointSet(kept), MatchMode.MONO)
                removed_count += 1
        assert removed_count == 15


class TestVariableGadget:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_point_count(self, d):
        pts, segs = variable_gadget(d)
        assert len(pts) == 4 + 6 * d
        assert len(segs) == len(pts)

    def test_numbering_starts_top_left(self):
        pts, _ = variable_gadget(1)
        assert pts[0] == (0, 4)
        assert pts[1] == (2, 4)
        assert pts[-1] == (0, 2)

    def test_spacing(self):
        pts, segs = variable_gadget(2)
        for i, j in segs:
            (x1, y1), (x2, y2) = pts[i], pts[j]
            assert abs(x1 - x2) + abs(y1 - y2) == 2

    @pytest.mark.parametrize("d", [1, 2])
    def test_exactly_two_perfect_matchings_after_fill(self, d):
        # Matchings of the boundary points using the pairs that survive the
        # red fill (exactly the consecutive-pair segments).
        pts, segs = variable_gadget(d)
        g = build_gadget(pts, segs, {"recipe": "variable", "degree": d})
        assert count_perfect_matchings(
            blue_points(g), MatchMode.MONO, max_points=BIG,
            allowed_pairs=g.allowed_segments,
        ) == 2

    def test_the_two_matchings_are_the_cyclic_ones(self):
        pts, segs = variable_gadget(1)
        g = build_gadget(pts, segs, {"recipe": "variable"})
        for assignment in (True, False):
            forced = variable_matching_pairs(1, assignment)
            assert decide_perfect(g.points, MatchMode.MONO, max_points=BIG,
                                  forced_pairs=forced)


class TestRedFill:
    def fill_variable(self):
        pts, segs = variable_gadget(1)
        return build_gadget(pts, segs, {"recipe": "variable"})

    def test_candidates_equal_designated_segments(self):
        g = self.fill_variable()
        nb = g.blue_count
        blue_pairs = sorted(
            r.key for r in candidate_monochromatic(g.points)
            if r.key[0] < nb and r.key[1] < nb
        )
        assert blue_pairs == sorted(g.allowed_segments)

    def test_single_segment_survives(self):
        g = build_gadget([(0, 0), (0, 1), (1, 0), (2, 1)], [(0, 1)], {})
        nb = g.blue_count
        blue_pairs = [
            r.key for r in candidate_monochromatic(g.points)
            if r.key[0] < nb and r.key[1] < nb
        ]
        assert blue_pairs == [(0, 1)]

    def test_red_vertical_matching(self):
        g = self.fill_variable()
        pairs = red_vertical_pairs(g)
        reds = [i for i, p in enumerate(g.points) if p.color is Color.RED]
        assert sorted(i for pair in pairs for i in pair) == reds
        # the vertical red pairing coexists with a full blue matching
        forced = pairs + variable_matching_pairs(1, True)
        assert decide_perfect(
            g.points, MatchMode.MONO, max_points=BIG, forced_pairs=forced
        )

    def test_reds_alone_perfect(self):
        g = self.fill_variable()
        reds = PointSet(tuple(p for p in g.points if p.color is Color.RED))
        assert decide_perfect(reds, MatchMode.MONO, max_points=BIG)

    @pytest.mark.parametrize("blues, segments, message", [
        ([(0, 0), (2, 2)], [(0, 1)],
         "designated segment (0, 1) is not axis-aligned"),
        # Two segments break the rule: the first one in order is named, and
        # of the blues on it the least index, not the first along it.
        ([(0, 0), (4, 0), (3, 0), (1, 0), (0, 2), (5, 7)], [(1, 0), (4, 5)],
         "designated segment (0, 1) passes through blue point 2"),
        ([(0, 0), (0, 4), (5, 5), (0, 4)], [(0, 1)],
         "designated segment (0, 1) passes through blue point 3"),
        ([(0, 4), (0, 0), (0, 0)], [(0, 1)],
         "designated segment (0, 1) passes through blue point 2"),
    ], ids=["diagonal", "blue-inside", "duplicate-high-end", "duplicate-low-end"])
    def test_bad_segment_rejected(self, blues, segments, message):
        with pytest.raises(ValueError) as excinfo:
            build_gadget(blues, segments, {})
        assert str(excinfo.value) == message

    def test_empty_layout(self):
        g = build_gadget([], [])
        assert len(g.points) == 0 and g.allowed_segments == ()
        assert g.provenance == {"blueCount": 0, "gridN": 0, "shift": [0, 0]}

    def test_non_integer_rejected(self):
        from fractions import Fraction
        with pytest.raises(ValueError):
            from rectmatch.gadgets import red_fill
            red_fill([(Fraction(1, 2), 0)], [])


class TestClauseGadget:
    def test_anchor_validation(self):
        with pytest.raises(ValueError):
            LegAnchor(2, 4, number=3, positive=True, side="above")
        LegAnchor(2, 4, number=2, positive=True, side="above")
        with pytest.raises(ValueError):
            clause_gadget([
                LegAnchor(2, 4, 2, True, "above"),
                LegAnchor(4, 4, 3, False, "above"),
                LegAnchor(8, 4, 5, False, "above"),
            ])  # middle anchor only 2 away

    def test_point_and_segment_counts(self):
        anchors = [
            LegAnchor(2, 4, 2, True, "above"),
            LegAnchor(10, 4, 2, True, "above"),
            LegAnchor(20, 4, 2, True, "above"),
        ]
        pts, segs = clause_gadget(anchors)
        assert len(pts) == 18
        assert len(set(pts)) == 18
        assert len(segs) == 19


def truth_table_holds(g, f, names):
    for bits in range(8):
        asg = {names[k]: bool((bits >> k) & 1) for k in range(3)}
        forced = forced_variable_pairs(g, asg)
        got = decide_perfect(
            g.points, MatchMode.MONO, max_points=BIG, forced_pairs=forced
        )
        want = eval_one_in_three(f, asg)
        if got != want:
            return False, asg
    return True, None


class TestClauseTruthTable:
    def test_all_positive_above(self):
        f = formula("uvw", ([("u", 0), ("v", 0), ("w", 0)], "above"))
        g = compile_planar_1in3(f)
        ok, bad = truth_table_holds(g, f, "uvw")
        assert ok, bad

    def test_mixed_signs_below(self):
        f = formula("uvw", ([("u", 1), ("v", 0), ("w", 1)], "below"))
        g = compile_planar_1in3(f)
        ok, bad = truth_table_holds(g, f, "uvw")
        assert ok, bad


class TestTwoClauseComposition:
    def test_truth_table_over_both_clauses(self):
        # Nested same-side pair; forcing all four variables must reproduce
        # the one-in-three evaluation of the whole formula.
        f = formula("uvwx",
                    ([("u", 0), ("v", 1), ("x", 0)], "above"),
                    ([("v", 0), ("w", 0), ("x", 1)], "above"))
        g = compile_planar_1in3(f)
        names = "uvwx"
        for bits in range(16):
            asg = {names[k]: bool((bits >> k) & 1) for k in range(4)}
            got = decide_perfect(
                g.points, MatchMode.MONO, max_points=BIG,
                forced_pairs=forced_variable_pairs(g, asg),
            )
            assert got == eval_one_in_three(f, asg), asg

    def test_nested_below_side(self):
        f = formula("uvwx",
                    ([("u", 1), ("v", 0), ("x", 1)], "below"),
                    ([("v", 1), ("w", 1), ("x", 0)], "below"))
        g = compile_planar_1in3(f)
        assert decide_perfect(g.points, MatchMode.MONO, max_points=BIG) \
            == one_in_three_satisfiable(f)


class TestCompile:
    def test_single_clause_satisfiable(self):
        f = formula("uvw", ([("u", 0), ("v", 0), ("w", 0)], "above"))
        g = compile_planar_1in3(f)
        assert decide_perfect(g.points, MatchMode.MONO, max_points=BIG)

    def test_crossing_layout_rejected(self):
        f = formula("uvwx",
                    ([("u", 0), ("v", 0), ("w", 0)], "above"),
                    ([("v", 0), ("w", 0), ("x", 0)], "above"))
        with pytest.raises(ValueError, match="cross"):
            compile_planar_1in3(f)

    def test_unsat_two_clause(self):
        f = formula("uvw",
                    ([("u", 0), ("v", 0), ("w", 0)], "above"),
                    ([("u", 1), ("v", 1), ("w", 1)], "below"))
        assert not one_in_three_satisfiable(f)
        g = compile_planar_1in3(f)
        assert not decide_perfect(g.points, MatchMode.MONO, max_points=BIG)

    def test_grid_bound_reported(self):
        f = formula("uvw", ([("u", 0), ("v", 0), ("w", 0)], "above"))
        g = compile_planar_1in3(f)
        n = g.provenance["gridN"]
        assert all(0 <= p.x <= n and 0 <= p.y <= n for p in g.points)

    def test_formula_round_trip(self):
        f = formula("uvw", ([("u", 0), ("v", 1), ("w", 0)], "below"))
        assert formula_from_dict(formula_to_dict(f)) == f

    def test_sidecar_shape(self):
        pts, segs = variable_gadget(1)
        g = build_gadget(pts, segs, {"recipe": "variable"})
        d = sidecar_to_dict(g)
        assert set(d) == {"allowedSegments", "provenance"}
        assert d["provenance"]["blueCount"] == 10


class TestPerturbOnGadgets:
    def test_matchable_structure_preserved(self):
        # The shear keeps the blue pair relation identical and the red
        # vertical pairs matchable; blocked blue pairs stay blocked.
        pts, segs = variable_gadget(1)
        g = build_gadget(pts, segs, {"recipe": "variable"})
        n = g.provenance["gridN"]
        s, sp = g.points, perturb(g.points, n)

        def blue_pairs(ps):
            return {
                (i, j) for i, j in empty_pairs(ps)
                if ps[i].color is Color.BLUE and ps[j].color is Color.BLUE
            }

        assert blue_pairs(s) == blue_pairs(sp) == set(g.allowed_segments)
        assert set(red_vertical_pairs(g)) <= set(empty_pairs(sp))

    def test_general_position_after(self):
        pts, segs = variable_gadget(2)
        g = build_gadget(pts, segs, {"recipe": "variable"})
        assert is_general_position(perturb(g.points, g.provenance["gridN"]))


MICRO_BLUES = [(0, 0), (0, 1), (1, 0), (1, 1)]
MICRO_SEGS = [(0, 1), (2, 3)]


class TestMonochromatize:
    def micro(self):
        return build_gadget(MICRO_BLUES, MICRO_SEGS, {"recipe": "micro"})

    def test_single_cluster_alone_perfect(self):
        g = self.micro()
        mono = monochromatize(g)
        nb = g.blue_count
        cluster = PointSet(mono.points[nb:nb + 12])
        assert decide_perfect(cluster, MatchMode.MONO)

    def test_all_one_color(self):
        mono = monochromatize(self.micro())
        assert all(p.color is Color.BLUE for p in mono)

    def test_perfectness_preserved(self):
        g = self.micro()
        assert decide_perfect(g.points, MatchMode.MONO, max_points=BIG)
        mono = monochromatize(g)
        assert decide_perfect(mono, MatchMode.MONO, max_points=BIG)

    def test_imperfectness_preserved(self):
        g = build_gadget(
            MICRO_BLUES + [(3, 0), (3, 1), (0, 3)],
            MICRO_SEGS + [(4, 5)],
            {"recipe": "micro-odd"},
        )
        assert not decide_perfect(g.points, MatchMode.MONO, max_points=BIG)
        assert not decide_perfect(monochromatize(g), MatchMode.MONO, max_points=BIG)

    def test_desk_scale_variable_gadget(self):
        pts, segs = variable_gadget(1)
        g = build_gadget(pts, segs, {"recipe": "variable"})
        mono = monochromatize(g)
        assert decide_perfect(mono, MatchMode.MONO, max_points=BIG)

    def test_escapes_only_via_outer_points(self):
        g = self.micro()
        mono = monochromatize(g)
        nb = g.blue_count
        for i, j in empty_pairs(mono):
            oi = -1 if i < nb else (i - nb) // 12
            oj = -1 if j < nb else (j - nb) // 12
            if oi == oj:
                continue
            for k, o in ((i, oi), (j, oj)):
                if o >= 0:
                    assert (k - nb) % 12 <= 3


class TestBichromatize:
    def micro(self):
        return build_gadget(MICRO_BLUES, MICRO_SEGS, {"recipe": "micro"})

    def test_cluster_alone(self):
        g = self.micro()
        bi = bichromatize(g)
        nb = g.blue_count
        cluster = PointSet(bi.points[nb:nb + 8])
        assert count_perfect_matchings(cluster, MatchMode.BI) == 2

    def test_general_position(self):
        assert is_general_position(bichromatize(self.micro()))

    def test_each_segment_gets_one_red(self):
        g = self.micro()
        bi = bichromatize(g)
        for i, j in g.allowed_segments:
            assert {bi[i].color, bi[j].color} == {Color.RED, Color.BLUE}

    def test_perfectness_preserved(self):
        g = self.micro()
        assert decide_perfect(bichromatize(g), MatchMode.BI, max_points=BIG)

    def test_odd_cycle_rejected(self):
        # A five-cycle of segments cannot give each one a single red end.
        g = build_gadget([(0, 0), (4, 0), (8, 0), (8, 4), (0, 4)],
                         [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        with pytest.raises(ContractError, match="odd cycle"):
            bichromatize(g)

    def test_imperfectness_preserved(self):
        g = build_gadget(
            MICRO_BLUES + [(3, 0), (3, 1), (0, 3)],
            MICRO_SEGS + [(4, 5)],
            {"recipe": "micro-odd"},
        )
        assert not decide_perfect(bichromatize(g), MatchMode.BI, max_points=BIG)

    def test_desk_scale_variable_gadget(self):
        pts, segs = variable_gadget(1)
        g = build_gadget(pts, segs, {"recipe": "variable"})
        assert decide_perfect(bichromatize(g), MatchMode.BI, max_points=BIG)

    def test_cluster_reds_never_reach_outside(self):
        g = self.micro()
        bi = bichromatize(g)
        nb = g.blue_count
        for i, j in empty_pairs(bi):
            oi = -1 if i < nb else (i - nb) // 8
            oj = -1 if j < nb else (j - nb) // 8
            if oi == oj:
                continue
            for k, o in ((i, oi), (j, oj)):
                if o >= 0:
                    assert bi[k].color is Color.BLUE


class TestLayoutValidation:
    def test_two_middles_rejected(self):
        f = formula("uvwxy",
                    ([("u", 0), ("w", 0), ("y", 0)], "above"),
                    ([("u", 1), ("w", 1), ("y", 1)], "above"))
        with pytest.raises(ValueError):
            build_layout(f)

    def test_nested_ok(self):
        f = formula("uvwx",
                    ([("u", 0), ("v", 1), ("x", 0)], "above"),
                    ([("v", 0), ("w", 0), ("x", 1)], "above"))
        layout = build_layout(f)
        assert layout.levels[0] == 1 and layout.levels[1] == 0

    def test_opposite_sides_never_cross(self):
        f = formula("uvw",
                    ([("u", 0), ("v", 0), ("w", 0)], "above"),
                    ([("u", 1), ("v", 1), ("w", 1)], "below"))
        build_layout(f)

    @pytest.mark.parametrize("f, levels", [
        (formula("uvwx",
                 ([("u", 0), ("v", 1), ("x", 0)], "below"),
                 ([("v", 1), ("w", 1), ("x", 0)], "below")),
         {0: 1, 1: 0}),
        (formula("uvw",
                 ([("u", 0), ("v", 0), ("w", 0)], "above"),
                 ([("u", 1), ("v", 1), ("w", 1)], "below")),
         {0: 0, 1: 0}),
        (formula("abcdefg",
                 ([("a", 0), ("b", 0), ("d", 0)], "above"),
                 ([("d", 0), ("e", 0), ("g", 0)], "above"),
                 ([("a", 0), ("c", 0), ("g", 0)], "below")),
         {0: 0, 1: 0, 2: 0}),
        (formula("abcdefghij",
                 ([("a", 0), ("b", 0), ("j", 0)], "above"),
                 ([("b", 0), ("c", 0), ("e", 0)], "above"),
                 ([("c", 0), ("d", 0), ("e", 0)], "above"),
                 ([("f", 0), ("g", 0), ("i", 0)], "above"),
                 ([("a", 1), ("e", 0), ("j", 1)], "below")),
         {0: 2, 1: 1, 2: 0, 3: 0, 4: 0}),
    ], ids=["nested-below", "opposite", "side-by-side", "tree"])
    def test_levels(self, f, levels):
        # Pinned from the recursive level computation this one replaced.
        assert build_layout(f).levels == levels

    def test_nesting_deeper_than_the_recursion_limit(self):
        # Clause i is (v_i, v_{i+1}, v_{N-i}), N = 2k+2: each clause nests
        # inside the one before.  k = 1001 is one more than CPython's
        # default recursion limit.
        k = 1001
        n = 2 * k + 2
        names = [f"v{i}" for i in range(n + 1)]
        f = formula(names, *(
            ([(names[i], 0), (names[i + 1], 0), (names[n - i], 0)], "above")
            for i in range(k)
        ))
        layout = build_layout(f)
        assert layout.levels == {i: k - 1 - i for i in range(k)}


@st.composite
def small_formulas(draw, max_variables=10, max_clauses=5):
    """3-10 variables and 1-5 clauses on random sides with random signs."""
    names = [f"v{i}" for i in range(draw(st.integers(3, max_variables)))]
    triple = st.lists(st.sampled_from(names), min_size=3, max_size=3, unique=True)
    clauses = draw(st.lists(st.tuples(
        triple, st.lists(st.booleans(), min_size=3, max_size=3),
        st.sampled_from(["above", "below"]),
    ), min_size=1, max_size=max_clauses))
    return formula(names, *((list(zip(vs, negs)), side) for vs, negs, side in clauses))


@given(small_formulas())
@settings(max_examples=400, deadline=None)
def test_layout_equals_the_pairwise_rule(f):
    # The pairwise rule may meet a different conflicting pair first, so a
    # rejection is checked by the pair it names, not by its message.
    try:
        expected = layout_naive(f)
    except ValueError:
        expected = None
    try:
        layout = build_layout(f)
    except ValueError as e:
        assert expected is None
        a, b = map(int, re.match(r"clauses (\d+) and (\d+) cross", str(e)).groups())
        assert f.clauses[a].side == f.clauses[b].side
        assert comb_conflict(f, a, b)
    else:
        assert (layout.levels, layout.slot_order) == expected


@given(small_formulas(max_variables=6, max_clauses=3))
@settings(max_examples=40, deadline=None)
def test_anchors_keep_the_parity_rule(f):
    """On every formula `build_layout` accepts, the compiler finds an
    anchor for each leg: slot j of a variable's side sits at offset 6j+2
    or 6j+4, at most 6*degree-2, on the boundary point with the sidecar's
    clockwise number, and that number is even exactly for a positive
    literal."""
    try:
        layout = build_layout(f)
    except ValueError:
        assume(False)
    g = compile_planar_1in3(f)
    shift_x = g.provenance["shift"][0]
    for ci, c in enumerate(g.provenance["clauses"]):
        for a in c["anchors"]:
            var = g.provenance["variables"][a["var"]]
            x0 = (g.points[var["start"]].x - shift_x) / 4
            j = layout.slot_order[(a["var"], c["side"])].index(ci)
            assert a["x"] - x0 in (6 * j + 2, 6 * j + 4)
            assert a["x"] - x0 <= 6 * var["degree"] - 2
            boundary, _ = variable_gadget(var["degree"], origin=(x0, 0))
            assert boundary[a["number"] - 1] == (a["x"], a["y"])
            assert (a["number"] % 2 == 0) == a["positive"]


def _anchor(x, side="above", y=4):
    return LegAnchor(x, y, 2, True, side)


def _clause(names, side="above"):
    return Clause(tuple(Literal(v, False) for v in names), side)


@pytest.mark.parametrize("build, message", [
    (lambda: Formula(("u", "u", "v"), ()), "duplicate variable names"),
    (lambda: Formula(("u", "v", "w"), (_clause("uuv"),)),
     "clause ['u', 'u', 'v'] repeats a variable"),
    (lambda: Formula(("u", "v"), (_clause("uv"),)),
     "clause ['u', 'v'] needs exactly three literals, got 2"),
    (lambda: Formula(("u", "v", "w", "x"), (_clause("uvwx"),)),
     "clause ['u', 'v', 'w', 'x'] needs exactly three literals, got 4"),
    (lambda: Formula(("u", "v", "w"), (_clause("uvx"),)),
     "clause uses unknown variable 'x'"),
    (lambda: Formula(("u", "v", "w"), (_clause("uvw", "left"),)),
     "bad side 'left'"),
    (lambda: clause_gadget([_anchor(2), _anchor(10)]),
     "a clause needs exactly three anchors"),
    (lambda: clause_gadget([_anchor(2), _anchor(10), _anchor(20, "below", y=0)]),
     "anchors of one clause must share a side"),
    (lambda: clause_gadget([_anchor(2), _anchor(10), _anchor(20, y=0)]),
     "an anchor above lies on the edge y = 4, got y = 0"),
    (lambda: clause_gadget([_anchor(10), _anchor(2), _anchor(20)]),
     "anchors must be in increasing x order"),
    (lambda: variable_gadget(0), "degree must be at least 1"),
    (lambda: random_instance(4, 5, 1.5, seed=0), "red_fraction must be in [0, 1]"),
    (lambda: _anchor(2, "left"), "side must be 'above' or 'below', got 'left'"),
    (lambda: formula_from_dict({"variables": ["u", 1], "clauses": []}),
     "formula key 'variables' must hold names, got 1"),
], ids=["duplicate-name", "repeated-variable", "two-literals", "four-literals",
        "unknown-variable", "bad-side",
        "two-anchors", "mixed-sides", "two-edge-lines", "x-out-of-order",
        "degree-0", "red-fraction", "anchor-side", "variable-not-a-name"])
def test_validation_message(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def _recolor_inputs():
    gadgets = {
        f"variable{d}": build_gadget(*variable_gadget(d), {"recipe": "variable"})
        for d in (1, 2, 3)
    }
    gadgets["clause-above"] = compile_planar_1in3(
        formula("uvw", ([("u", 0), ("v", 0), ("w", 0)], "above")))
    gadgets["clause-below"] = compile_planar_1in3(
        formula("uvw", ([("u", 1), ("v", 0), ("w", 1)], "below")))
    return gadgets


# sha256 of `dump_points` of each recoloring, recorded before the two
# recolorings were merged into one routine.
RECOLOR_DIGESTS = {
    ("variable1", "mono"): "9f0a265054028fbb02c9e03838891c2d4b08c4e4b1914b6a2f3fc9aad66324df",
    ("variable1", "bi"): "2780cc870d97478c5ff55d045a34d58252a32db217211db0f316731593fa87bd",
    ("variable2", "mono"): "9796ab450cc761cc88889961089fb73faadd57f66cd4ef5c996ea23176738fea",
    ("variable2", "bi"): "879fccea465b3ccba917bc26f9b19f21ff05d7cb684909aeb539c7590a8b048c",
    ("variable3", "mono"): "bd5fc8eff16637064261f9635307998af6aa97f8c8fa426d187d5f0caffa0502",
    ("variable3", "bi"): "74bbb6a0f9daeec335718fc52337697d999eff2fe7cac56b8cf8dd7f830a28e4",
    ("clause-above", "mono"): "faec6133fcfd89c069a6da3774243151bb47a90f3f7904755dded96094f629a8",
    ("clause-above", "bi"): "26c25eade35a4bbaf05d0bb5feb36e22ae13fa9835ebba9c8ed6a40ce067d088",
    ("clause-below", "mono"): "ce8c94704ea1c941ea40020ad31a88dbf387338ef6dfd5b99c2f16fe42670f9c",
    ("clause-below", "bi"): "515b87ab633d156e1d5d8339e02815acc80fc7884bcc6540040df4748930bd8a",
}


def test_recolored_points_are_pinned():
    for name, g in _recolor_inputs().items():
        for mode, recolor in (("mono", monochromatize), ("bi", bichromatize)):
            text = dump_points(recolor(g))
            got = hashlib.sha256(text.encode()).hexdigest()
            assert got == RECOLOR_DIGESTS[(name, mode)], (name, mode)
