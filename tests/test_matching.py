import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rectmatch.matching as matching_module
from rectmatch.errors import GuardError
from rectmatch.gadgets import (
    bichromatize,
    build_gadget,
    compile_planar_1in3,
    formula_from_dict,
    monochromatize,
    one_in_three_satisfiable,
    random_instance as gadget_random_instance,
    variable_gadget,
)
from rectmatch.geometry import (
    Color,
    IntersectionKind,
    PointSet,
    Rect,
    _Grid,
    candidate_bichromatic,
    candidate_monochromatic,
    classify_intersection,
    empty_pairs,
    intersection_kinds,
    perturb,
    rect_from_pair,
)
from rectmatch.independent_set import (
    RectFamily,
    complete_witness,
)
from rectmatch.matching import (
    MatchMode,
    Matching,
    brute_force_max_matching,
    count_perfect_matchings,
    decide_perfect,
    half_approx_family,
    approx_mbrm,
    approx_mmrm,
    matching_from_dict,
    report_to_dict,
    report_to_json,
    split_families_bi,
    split_families_mono,
    verify_matching,
    with_oracle,
)

from naive import (
    brute_force_mis,
    conflicts_naive,
    matching_sizes_naive,
    pairwise_kinds_naive,
    recolored,
    split_naive,
    square_symmetries,
)
from strategies import collinear_runs, perturbed, repeated_grid

K = IntersectionKind


def ps(*triples):
    return PointSet.from_tuples(triples)


def random_instance(rng, n, grid=20, red=0.5):
    if n > (grid + 1) ** 2:
        raise ValueError(f"cannot place {n} distinct points on a {grid + 1}^2 grid")
    pts = set()
    while len(pts) < n:
        pts.add((rng.randrange(grid + 1), rng.randrange(grid + 1)))
    return PointSet.from_tuples(
        (x, y, "R" if rng.random() < red else "B") for x, y in sorted(pts)
    )


def test_random_instance_refuses_more_points_than_cells():
    assert len(random_instance(random.Random(0), 16, grid=3)) == 16
    with pytest.raises(ValueError, match="17 distinct points on a 4"):
        random_instance(random.Random(0), 17, grid=3)


class TestSplitMono:
    def test_blue_bottom_left(self):
        s = ps((0, 0, "B"), (1, 1, "B"))
        f = RectFamily(s, tuple(candidate_monochromatic(s)))
        f1, f2 = split_families_mono(f)
        assert len(f1) == 1 and len(f2) == 0

    def test_red_bottom_right(self):
        s = ps((0, 1, "R"), (1, 0, "R"))
        f = RectFamily(s, tuple(candidate_monochromatic(s)))
        f1, f2 = split_families_mono(f)
        assert len(f1) == 1 and len(f2) == 0

    def test_horizontal_segment_in_both(self):
        s = ps((0, 0, "B"), (3, 0, "B"))
        f = RectFamily(s, tuple(candidate_monochromatic(s)))
        f1, f2 = split_families_mono(f)
        assert len(f1) == 1 and len(f2) == 1

    def test_coverage(self):
        rng = random.Random(2)
        for _ in range(30):
            s = random_instance(rng, 10, grid=12)
            f = RectFamily(s, tuple(candidate_monochromatic(s)))
            f1, f2 = split_families_mono(f)
            assert f1.keys() | f2.keys() == f.keys()


class TestSplitBi:
    def test_blue_bl(self):
        s = ps((0, 0, "B"), (1, 1, "R"))
        f = RectFamily(s, tuple(candidate_bichromatic(s)))
        fams = split_families_bi(f)
        assert [len(x) for x in fams] == [1, 0, 0, 0]

    def test_blue_br(self):
        s = ps((0, 1, "R"), (1, 0, "B"))
        f = RectFamily(s, tuple(candidate_bichromatic(s)))
        fams = split_families_bi(f)
        assert [len(x) for x in fams] == [0, 0, 1, 0]

    def test_vertical_segment_two_families(self):
        s = ps((0, 0, "B"), (0, 2, "R"))
        f = RectFamily(s, tuple(candidate_bichromatic(s)))
        fams = split_families_bi(f)
        assert sum(1 for x in fams if len(x)) >= 2

    def test_coverage(self):
        rng = random.Random(3)
        for _ in range(30):
            s = random_instance(rng, 10, grid=12)
            f = RectFamily(s, tuple(candidate_bichromatic(s)))
            fams = split_families_bi(f)
            union = frozenset().union(*(x.keys() for x in fams))
            assert union == f.keys()


def assert_split_equals_the_set_rule(s):
    """Both splits of the candidates of s equal `split_naive`, member for
    member and in order."""
    for candidates, split, families in (
            (candidate_monochromatic, split_families_mono, matching_module._MONO_FAMILIES),
            (candidate_bichromatic, split_families_bi, matching_module._BI_FAMILIES)):
        f = RectFamily(s, tuple(candidates(s)))
        got, want = split(f), split_naive(f, families)
        assert [g.rects for g in got] == [w.rects for w in want]


@given(st.one_of(repeated_grid(), perturbed(), collinear_runs()))
@settings(max_examples=300, deadline=None)
def test_split_equals_the_set_rule(pts):
    """Both splits put each candidate in the families that `split_naive`
    does, on repeated, rational and collinear points."""
    assert_split_equals_the_set_rule(PointSet.from_tuples(pts))


@pytest.mark.parametrize("recolor", [monochromatize, bichromatize])
def test_split_equals_the_set_rule_on_a_recoloured_gadget(recolor):
    """The same on both recolourings of the degree-1 variable gadget, whose
    degenerate segments land in two families."""
    s = recolor(build_gadget(*variable_gadget(1), {"recipe": "variable"}))
    assert_split_equals_the_set_rule(s)


class TestFamilyStructure:
    """Structural guarantees of the split families on random instances."""

    def test_mono_family_invariants(self):
        rng = random.Random(17)
        for _ in range(40):
            s = random_instance(rng, rng.randrange(4, 11), grid=10)
            f = RectFamily(s, tuple(candidate_monochromatic(s)))
            for fam in split_families_mono(f):
                assert complete_witness(fam) is None
                for (u, v), k in pairwise_kinds_naive(fam).items():
                    cu, cv = s[fam.rects[u].a].color, s[fam.rects[v].a].color
                    if cu is not cv and k is not K.DISJOINT:
                        assert k is K.PIERCING
                    if cu is cv:
                        assert k is not K.SIDE

    def test_bi_family_invariants(self):
        rng = random.Random(19)
        for _ in range(40):
            s = random_instance(rng, rng.randrange(4, 11), grid=10)
            f = RectFamily(s, tuple(candidate_bichromatic(s)))
            for fam in split_families_bi(f):
                assert complete_witness(fam) is None
                for k in pairwise_kinds_naive(fam).values():
                    assert k in (K.DISJOINT, K.PIERCING, K.CORNER)


class TestHalfApprox:
    def test_disjoint_family_kept_whole(self):
        s = ps((0, 0, "B"), (1, 1, "B"), (5, 5, "B"), (6, 6, "B"))
        f = RectFamily(s, tuple(candidate_monochromatic(s)))
        f1, _ = split_families_mono(f)
        assert len(half_approx_family(f1).members) == 2

    def test_shared_point_forces_choice(self):
        s = ps((0, 0, "B"), (2, 2, "B"), (4, 4, "B"))
        f = RectFamily(s, tuple(candidate_monochromatic(s)))
        f1, _ = split_families_mono(f)
        assert len(f1) == 2
        assert len(half_approx_family(f1).members) == 1

    def test_half_bound_against_oracle(self):
        rng = random.Random(29)
        checked = 0
        for _ in range(60):
            s = random_instance(rng, rng.randrange(4, 11), grid=10)
            f = RectFamily(s, tuple(candidate_monochromatic(s)))
            for fam in split_families_mono(f):
                if not 0 < len(fam) <= 20:
                    continue
                opt = len(brute_force_mis(fam).members)
                got = len(half_approx_family(fam).members)
                assert got >= math.ceil(opt / 2)
                checked += 1
        assert checked > 20

    def test_output_genuinely_independent(self):
        rng = random.Random(31)
        for _ in range(30):
            s = random_instance(rng, 9, grid=9)
            f = RectFamily(s, tuple(candidate_monochromatic(s)))
            for fam in split_families_mono(f):
                ind = half_approx_family(fam)
                members = sorted(ind.members)
                assert intersection_kinds(s, [fam.rects[i] for i in members]) == {}


class TestApproxMmrm:
    def test_single_red_pair(self):
        r = approx_mmrm(ps((0, 0, "R"), (1, 1, "R")))
        assert r.matching.pairs == ((0, 1),)

    def test_four_collinear(self):
        s = ps((0, 0, "B"), (1, 0, "B"), (2, 0, "B"), (3, 0, "B"))
        r = approx_mmrm(s)
        opt = brute_force_max_matching(s, MatchMode.MONO)
        assert len(opt) == 2
        assert len(r.matching) == 2

    def test_empty_and_single_color(self):
        assert len(approx_mmrm(PointSet(())).matching) == 0
        assert len(approx_mmrm(ps((0, 0, "R"), (1, 1, "B"))).matching) == 0

    def test_quarter_bound_random(self):
        rng = random.Random(41)
        for _ in range(60):
            s = random_instance(rng, rng.randrange(2, 13), grid=20)
            r = approx_mmrm(s)
            opt = brute_force_max_matching(s, MatchMode.MONO)
            assert len(r.matching) >= math.ceil(len(opt) / 4)
            rep = verify_matching(s, r.matching)
            assert rep.ok


class TestApproxMbrm:
    def test_single_mixed_pair(self):
        r = approx_mbrm(ps((0, 0, "R"), (1, 1, "B")))
        assert r.matching.pairs == ((0, 1),)

    def test_alternating_diagonal(self):
        s = ps((0, 0, "R"), (1, 1, "B"), (2, 2, "R"), (3, 3, "B"))
        r = approx_mbrm(s)
        assert len(r.matching) == 2

    def test_quarter_bound_random(self):
        rng = random.Random(43)
        for _ in range(60):
            s = random_instance(rng, rng.randrange(2, 13), grid=20)
            r = approx_mbrm(s)
            opt = brute_force_max_matching(s, MatchMode.BI)
            assert len(r.matching) >= math.ceil(len(opt) / 4)
            assert verify_matching(s, r.matching).ok

    def test_family_solves_are_exact(self):
        rng = random.Random(47)
        from rectmatch.matching import exact_independent_rects

        for _ in range(40):
            s = random_instance(rng, rng.randrange(4, 11), grid=10)
            f = RectFamily(s, tuple(candidate_bichromatic(s)))
            for fam in split_families_bi(f):
                if len(fam) > 24:
                    continue
                exact = len(exact_independent_rects(fam).members)
                oracle = len(brute_force_mis(fam, max_rects=40).members)
                assert exact == oracle


class TestOracle:
    def test_mono_pair(self):
        s = ps((0, 0, "B"), (1, 1, "B"))
        assert len(brute_force_max_matching(s, MatchMode.MONO)) == 1
        assert len(brute_force_max_matching(s, MatchMode.BI)) == 0

    def test_guard(self):
        s = PointSet.from_tuples([(i, i, "B") for i in range(17)])
        with pytest.raises(GuardError):
            brute_force_max_matching(s, MatchMode.MONO)
        assert len(brute_force_max_matching(s, MatchMode.MONO, max_points=17)) == 8

    def test_canonical_choice(self):
        # Two disjoint optimal matchings; lexicographically least pair set wins.
        s = ps((0, 0, "B"), (0, 1, "B"), (1, 0, "B"), (1, 1, "B"))
        m = brute_force_max_matching(s, MatchMode.MONO)
        assert m.pairs == ((0, 1), (2, 3))

    def test_forced_pairs(self):
        s = ps((0, 0, "B"), (0, 1, "B"), (1, 0, "B"), (1, 1, "B"))
        m = brute_force_max_matching(s, MatchMode.MONO, forced_pairs=[(0, 2)])
        assert (0, 2) in m.pairs and len(m) == 2

    ROW = ((0, 0, "B"), (1, 0, "B"), (2, 0, "B"), (3, 0, "B"))
    # A horizontal and a vertical segment crossing at (1, 1), which is no
    # input point; without forced pairs the set has a perfect matching.
    CROSS = ((0, 1, "B"), (2, 1, "B"), (1, 0, "B"), (1, 2, "B"))

    @pytest.mark.parametrize("points, forced, problem", [
        (ROW, [(0, 2)], "is not a candidate pair"),
        # The two segments touch at the input point (1, 0): the shared
        # point is the problem to report, not the contact.
        (ROW, [(0, 1), (1, 2)], "reuses a point"),
        (CROSS, [(0, 1), (2, 3)], "conflicts with another forced pair"),
    ])
    def test_forced_pair_errors(self, points, forced, problem):
        s = ps(*points)
        assert decide_perfect(s, MatchMode.MONO)
        with pytest.raises(ValueError, match=problem):
            brute_force_max_matching(s, MatchMode.MONO, forced_pairs=forced)
        assert not decide_perfect(s, MatchMode.MONO, forced_pairs=forced)

    def test_decide_perfect_parity(self):
        s = ps((0, 0, "B"), (1, 1, "B"), (2, 2, "B"))
        assert not decide_perfect(s, MatchMode.MONO)

    def test_decide_perfect_color_counts(self):
        s = ps((0, 0, "R"), (1, 1, "R"), (2, 2, "B"), (3, 3, "R"))
        assert not decide_perfect(s, MatchMode.BI)

    def test_decide_perfect_matches_oracle(self):
        rng = random.Random(53)
        for _ in range(80):
            s = random_instance(rng, rng.randrange(2, 11), grid=8)
            for mode in MatchMode:
                expect = brute_force_max_matching(s, mode).covers(len(s))
                assert decide_perfect(s, mode) == expect
                assert (count_perfect_matchings(s, mode) > 0) == expect

    def test_long_row_needs_no_recursion(self):
        # One pair per search level: 1200 levels, beyond the default
        # recursion limit.  The only perfect matching pairs neighbours.
        n = 2400
        s = PointSet.from_tuples((x, 0, "B") for x in range(n))
        neighbours = tuple((i, i + 1) for i in range(0, n, 2))
        m = brute_force_max_matching(s, MatchMode.MONO, max_points=n)
        assert m.pairs == neighbours
        rep = verify_matching(s, m)
        assert rep.ok and rep.perfect
        assert count_perfect_matchings(s, MatchMode.MONO, max_points=n) == 1
        assert decide_perfect(s, MatchMode.MONO, max_points=n)

    # sha256 of the maximum's pairs (first 16 hex digits) on
    # `gadgets.random_instance(n, n, 0.5, seed)`, recorded before the
    # feasible-partner bound: (mode, n, seed, forced pairs, size, digest).
    PINNED = [
        ("mono", 18, 1, (), 7, "14125d88ca159658"),
        ("bi", 18, 1, (), 6, "2ddf1919f7d5409b"),
        ("mono", 18, 2, (), 8, "06a4110bf2601265"),
        ("bi", 18, 2, (), 7, "2da766b756166c84"),
        ("mono", 20, 1, (), 8, "86030c736d28c786"),
        ("bi", 20, 1, (), 6, "7cdd5581ece60e1e"),
        ("mono", 20, 2, (), 9, "8b8f45c3f923fed0"),
        ("bi", 20, 2, (), 8, "fc9a5e6a17793996"),
        ("mono", 22, 1, (), 10, "77ec28640b215955"),
        ("bi", 22, 1, (), 7, "d6a751c0a76fdd60"),
        ("mono", 22, 2, (), 10, "c337c69210649450"),
        ("bi", 22, 2, (), 10, "19c62bde4f28f2ff"),
        ("mono", 24, 1, (), 11, "fe1e8653b9236fa1"),
        ("bi", 24, 1, (), 6, "5acc5f5b8835af1a"),
        ("mono", 24, 2, (), 10, "c30a840efa2aa343"),
        ("bi", 24, 2, (), 11, "6914687e6a255a05"),
        ("mono", 26, 1, (), 11, "5816ba6973306c04"),
        ("bi", 26, 1, (), 6, "4296a75c20c2922d"),
        ("mono", 26, 2, (), 12, "e4a111cd29d3965f"),
        ("bi", 26, 2, (), 10, "cf19d627ae838e69"),
        ("mono", 28, 1, (), 12, "8049f3ec0639dc7d"),
        ("bi", 28, 1, (), 8, "6f58a4213297cb76"),
        ("mono", 28, 2, (), 12, "27e81252e6291719"),
        ("bi", 28, 2, (), 14, "3fee19a859439ef8"),
        ("mono", 30, 1, (), 13, "f604c168e6d2c4b1"),
        ("bi", 30, 1, (), 11, "fb3c6379ccf775f9"),
        ("mono", 30, 2, (), 15, "79f0fcd3fa69f591"),
        ("bi", 30, 2, (), 12, "712cc6cbd874e5cd"),
        ("mono", 20, 7, ((5, 19),), 9, "a43b60bf5a1b0c13"),
        ("bi", 36, 1, (), 11, "fdf9ac8ec853f8fc"),
        ("bi", 36, 3, (), 15, "fdeb94d59012c85a"),
        ("mono", 36, 1, (), 16, "6d157ee0b666dbeb"),
        ("mono", 40, 1, (), 19, "f52cb9cb89d8af18"),
    ]

    @pytest.mark.parametrize(
        "mode, n, seed, forced, size, digest", PINNED,
        ids=[f"{c[0]}-n{c[1]}-seed{c[2]}{'-forced' if c[3] else ''}" for c in PINNED])
    def test_pinned_optimum(self, mode, n, seed, forced, size, digest):
        """The same lexicographically least maximum as the plain counting
        bound found."""
        s = gadget_random_instance(n, n, 0.5, seed=seed)
        m = brute_force_max_matching(
            s, MatchMode.MONO if mode == "mono" else MatchMode.BI,
            max_points=n, forced_pairs=forced)
        text = json.dumps([list(p) for p in m.pairs])
        assert len(m) == size
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_with_oracle_ratio(self):
        s = ps((0, 0, "R"), (1, 1, "R"))
        rep = with_oracle(s, approx_mmrm(s))
        assert rep.optimal_size == 1 and rep.ratio == 1


@pytest.fixture
def built(monkeypatch):
    """The `_ChosenMask`s and `_ChosenIndex`es that the oracle builds while
    the test runs, by class name."""
    built = {"_ChosenMask": [], "_ChosenIndex": []}
    for name, found in built.items():
        class Recorded(getattr(matching_module, name)):
            __slots__ = ()

            def __init__(self, *args, _found=found):
                super().__init__(*args)
                _found.append(self)

        monkeypatch.setattr(matching_module, name, Recorded)
    return built


def _counted(monkeypatch, cls, name):
    """A one-item list that counts the calls of method `name` of `cls`
    while the test runs."""
    calls = [0]
    method = getattr(cls, name)

    def counted(self, *args):
        calls[0] += 1
        return method(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


class TestChosenIndex:
    """Searches that can choose more than `_INDEX_FROM` boxes run on the
    index of chosen boxes, smaller ones on the bitmask."""

    CLAUSE = {
        "variables": ["u", "v", "w"],
        "clauses": [{"literals": [
            {"var": "u", "neg": False},
            {"var": "v", "neg": True},
            {"var": "w", "neg": False},
        ]}],
    }

    def test_compiled_clause(self, built):
        f = formula_from_dict(self.CLAUSE)
        s = compile_planar_1in3(f).points
        assert len(s) // 2 > matching_module._INDEX_FROM
        assert decide_perfect(s, MatchMode.MONO, max_points=len(s)) \
            == one_in_three_satisfiable(f)
        assert len(built["_ChosenIndex"]) == 1

    def test_compiled_clause_builds_few_boxes(self, monkeypatch):
        """Most boxes that the compiled clause's search chooses or tests
        span one rank, and the index neither builds nor buckets those: at
        most a tenth of the pushes build a `Rect` (810 of 814 did when
        every box touched was built)."""
        s = compile_planar_1in3(formula_from_dict(self.CLAUSE)).points
        pushes = _counted(monkeypatch, matching_module._ChosenIndex, "append")
        builds = _counted(monkeypatch, matching_module._ChosenIndex, "_build")
        decide_perfect(s, MatchMode.MONO, max_points=len(s))
        assert pushes[0] > matching_module._INDEX_FROM
        assert builds[0] <= pushes[0] // 10

    def test_search_builds_no_point_grid(self):
        """The index decides conflicts from the boxes and their defining
        points alone, so a large search never builds the rank grid."""
        s = compile_planar_1in3(formula_from_dict(self.CLAUSE)).points
        assert len(s) // 2 > matching_module._INDEX_FROM
        decide_perfect(s, MatchMode.MONO, max_points=len(s))
        assert "_rank_grid" not in s.__dict__

    @pytest.mark.parametrize("axis", ["row", "column"])
    def test_collinear_run_pairs_neighbours(self, built, monkeypatch, axis):
        """Each candidate of a collinear run joins two neighbours, so it
        spans one rank, and the index builds no `Rect` at all."""
        n = 300
        line = [(k, 7) if axis == "row" else (7, k) for k in range(n)]
        s = PointSet.from_tuples((x, y, "R") for x, y in line)
        assert n // 2 > matching_module._INDEX_FROM
        builds = _counted(monkeypatch, matching_module._ChosenIndex, "_build")
        m = brute_force_max_matching(s, MatchMode.MONO, max_points=n)
        assert m.pairs == tuple((k, k + 1) for k in range(0, n, 2))
        assert len(built["_ChosenIndex"]) == 1
        assert builds[0] == 0

    def test_variable_gadget_search_branches_on_forced_points(self, monkeypatch):
        """Decide branches first on a free point with fewer than two unused
        partners, so each twelve-point blocker of the monochromatized
        variable gadget is matched in a few pushes.  Branching on the
        lowest free point alone, the search pushed 10,022 boxes."""
        s = monochromatize(build_gadget(*variable_gadget(1), {"recipe": "variable"}))
        assert len(s) // 2 > matching_module._INDEX_FROM
        pushes = _counted(monkeypatch, matching_module._ChosenIndex, "append")
        assert decide_perfect(s, MatchMode.MONO, max_points=len(s))
        assert len(s) // 2 <= pushes[0] <= 2000

    def test_small_search_keeps_a_bitmask(self, built):
        s = gadget_random_instance(24, 24, 0.5, seed=1)
        brute_force_max_matching(s, MatchMode.MONO, max_points=24)
        assert len(built["_ChosenMask"]) == 1
        assert built["_ChosenIndex"] == []


class TestVerifyMatching:
    def test_approx_output_passes(self):
        rng = random.Random(59)
        s = random_instance(rng, 10)
        rep = verify_matching(s, approx_mmrm(s).matching)
        assert rep.ok

    def test_overlapping_rects_flagged(self):
        s = ps((0, 0, "B"), (3, 3, "B"), (1, 1, "B"), (2, 2, "B"))
        m = Matching(((0, 3), (1, 2)), MatchMode.MONO)
        rep = verify_matching(s, m)
        names = {c.name: c for c in rep.checks}
        assert not names["rects_pairwise_disjoint"].ok
        assert names["rects_pairwise_disjoint"].witnesses

        # [0,1]x[0,2] and [1,3]x[1,3] share the segment x=1, 1<=y<=2.
        # With no input point on it the touch is allowed...
        s = ps((0, 2, "B"), (1, 0, "B"), (1, 3, "B"), (3, 1, "B"))
        rep = verify_matching(s, Matching(((0, 1), (2, 3)), MatchMode.MONO))
        assert rep.ok
        # ...and with the input point (1, 1) on it the two conflict.
        s = ps((0, 2, "B"), (1, 0, "B"), (1, 1, "B"), (3, 3, "B"))
        rep = verify_matching(s, Matching(((0, 1), (2, 3)), MatchMode.MONO))
        names = {c.name: c for c in rep.checks}
        assert names["rects_pairwise_disjoint"].witnesses == (((0, 1), (2, 3)),)

    def test_overlap_witnesses_match_all_pairs_scan(self):
        rng = random.Random(61)
        flagged = 0
        for _ in range(80):
            n = rng.randrange(6, 13)
            pts = set()
            while len(pts) < n:
                pts.add((rng.randrange(6), rng.randrange(6)))
            s = ps(*((x, y, "B") for x, y in sorted(pts)))
            idx = list(range(n))
            rng.shuffle(idx)
            m = Matching(tuple(zip(idx[::2], idx[1::2])), MatchMode.MONO)
            rects = [rect_from_pair(s, i, j) for i, j in m.pairs]
            want = tuple(
                (m.pairs[a], m.pairs[b])
                for a in range(len(rects)) for b in range(a + 1, len(rects))
                if classify_intersection(s, rects[a], rects[b]) is not K.DISJOINT
            )
            names = {c.name: c for c in verify_matching(s, m).checks}
            assert names["rects_pairwise_disjoint"].witnesses == want
            flagged += bool(want)
        assert flagged > 20

    def test_color_rule_flagged(self):
        s = ps((0, 0, "B"), (1, 1, "R"), (5, 5, "B"), (6, 6, "B"))
        m = Matching(((0, 1), (2, 3)), MatchMode.MONO)
        rep = verify_matching(s, m)
        names = {c.name: c for c in rep.checks}
        assert not names["color_rule"].ok

    @pytest.mark.parametrize("pair", [(0, 5), (-1, 1)])
    def test_out_of_range_pair_is_not_perfect(self, pair):
        """A pair that names no point fails the candidacy check, and the
        matching is not perfect, though it has as many pairs as a perfect
        one."""
        s = ps((0, 0, "R"), (1, 1, "R"))
        rep = verify_matching(s, Matching((pair,), MatchMode.MONO))
        names = {c.name: c for c in rep.checks}
        assert names["pairs_are_candidates"].witnesses == (pair,)
        assert not rep.perfect
        assert str(rep).endswith("perfect: no")

    def test_point_reuse_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Matching(((0, 1), (1, 2)), MatchMode.MONO)


class TestReportJson:
    def test_stable_shape(self):
        s = ps((0, 0, "R"), (1, 1, "B"))
        rep = approx_mbrm(s)
        d = report_to_dict(rep)
        assert list(d.keys()) == [
            "mode", "algorithm", "pairs", "size", "optimal",
            "candidateCount", "familySizes",
        ]
        assert d["pairs"] == [[0, 1]]
        text = report_to_json(rep)
        assert text.endswith("\n")
        assert matching_from_dict(d).pairs == rep.matching.pairs

    def test_triple_pair_rejected(self):
        with pytest.raises(ValueError, match=r"^matching key 'pairs' must hold "
                           r"\[i, j\] pairs of point indices, got \[0, 1, 2\]$"):
            matching_from_dict({"mode": "monochromatic", "pairs": [[0, 1, 2]]})

    def test_deterministic(self):
        s = ps((0, 0, "R"), (1, 1, "B"), (2, 0, "B"), (4, 4, "R"))
        assert report_to_json(approx_mbrm(s)) == report_to_json(approx_mbrm(s))

    @pytest.mark.parametrize("n, grid, solve, digest", [
        (400, 1600, approx_mmrm, "6864d4295083f6b4"),
        (400, 1600, approx_mbrm, "cd2e9e23652f4f1a"),
        (1600, 6400, approx_mmrm, "537115c799686853"),
        (1600, 6400, approx_mbrm, "32bfe0d2bcc84535"),
        (200, 30, approx_mmrm, "5ef83ec67cca3d4c"),
        (200, 30, approx_mbrm, "b65eaad54b881a86"),
    ])
    def test_pinned_output(self, n, grid, solve, digest):
        """The approximations' reports on three seeded instances, two sparse
        and one with many repeated coordinates, are byte for byte those
        recorded when the chain cover still ran Kuhn's algorithm (n=400
        and n=200), or while its greedy first match still ran in index
        order (n=1600, where the matching still augments after it)."""
        text = report_to_json(solve(gadget_random_instance(n, grid, 0.5, seed=1)))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("degree, recolor, solve, digest", [
        pytest.param(degree, recolor, solve, digest, id="-".join(
            [recolor.__name__, solve.__name__, digest] + [f"d{degree}"] * (degree > 1)))
        for degree, recolor, solve, digest in [
            (1, monochromatize, approx_mmrm, "cab4f301f704acb7"),
            (1, monochromatize, approx_mbrm, "02416620e4b94713"),
            (1, bichromatize, approx_mmrm, "b916a5e1429e14ff"),
            (1, bichromatize, approx_mbrm, "970aeb114793f13a"),
            (2, monochromatize, approx_mmrm, "c3ebea0367401bf9"),
            (2, monochromatize, approx_mbrm, "02416620e4b94713"),
            (2, bichromatize, approx_mmrm, "c0c09eb464b4b6c3"),
            (2, bichromatize, approx_mbrm, "a72c12bd1830e716"),
        ]])
    def test_pinned_output_on_a_recoloured_gadget(self, degree, recolor, solve, digest):
        """The approximations' reports on both recolourings of the degree-1
        and degree-2 variable gadgets (754 and 506 points, 1552 and 1040
        points, with many corner pairs) are byte for byte those recorded
        while every family's non-piercing pairs were still classified in
        full (degree 1), or while every corner pair was still walked in the
        completeness check (degree 2).  A monochromatized gadget has one
        colour, so its bichromatic report is empty, the same at both
        degrees."""
        g = build_gadget(*variable_gadget(degree), {"recipe": "variable"})
        text = report_to_json(solve(recolor(g)))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@st.composite
def solver_inputs(draw, side=6, min_size=2, max_size=14):
    """Small two-colored sets on [0..side]^2 with repeated coordinates, or
    perturbed into rational general position."""
    coords = draw(st.sets(st.tuples(st.integers(0, side), st.integers(0, side)),
                          min_size=min_size, max_size=max_size))
    s = PointSet.from_tuples(
        (x, y, draw(st.sampled_from("RB"))) for x, y in sorted(coords))
    return perturb(s, side) if draw(st.booleans()) else s


@given(solver_inputs(side=8, min_size=12, max_size=32))
@settings(max_examples=150, deadline=None)
def test_quarter_bound_against_the_oracle(s):
    """Both approximations give valid matchings of at least a quarter of
    the exact optimum, on up to 32 points."""
    for mode, solver in ((MatchMode.MONO, approx_mmrm), (MatchMode.BI, approx_mbrm)):
        m = solver(s).matching
        assert verify_matching(s, m).ok
        opt = brute_force_max_matching(s, mode, max_points=len(s))
        assert len(m) >= math.ceil(len(opt) / 4)


def recoordinatised(s):
    """s under the strictly increasing maps x -> x^3 + x, y -> 2y + 1/3."""
    third = Fraction(1, 3)
    return PointSet.from_tuples(
        (p.x ** 3 + p.x, 2 * p.y + third, p.color) for p in s)


@given(solver_inputs())
@settings(max_examples=100, deadline=None)
def test_solvers_invariant_under_monotone_recoordinatisation(s):
    """Only the order of coordinates matters: x -> x^3 + x and
    y -> 2y + 1/3 leave both approximations' pairs unchanged."""
    t = recoordinatised(s)
    assert approx_mmrm(t).matching.pairs == approx_mmrm(s).matching.pairs
    assert approx_mbrm(t).matching.pairs == approx_mbrm(s).matching.pairs


@given(solver_inputs(max_size=12))
@settings(max_examples=100, deadline=None)
def test_oracle_invariant_under_the_square_symmetries(s):
    """The maximum matching's size in both modes and the count of perfect
    matchings stay the same under the eight symmetries of the square, with
    and without the colors swapped; each reorders the coordinates, so the
    oracle meets other tie-breaks."""
    def answers(u):
        return [(len(brute_force_max_matching(u, mode)),
                 count_perfect_matchings(u, mode)) for mode in MatchMode]
    want = answers(s)
    for t in square_symmetries(s):
        assert answers(t) == want
        assert answers(recolored(t)) == want


def _outcome(call):
    try:
        return call()
    except ValueError as e:
        return str(e)


@given(solver_inputs(), st.data())
@settings(max_examples=60, deadline=None)
def test_oracle_invariant_under_monotone_recoordinatisation(s, data):
    """The three oracle objectives give the same answers, and `max` the same
    pairs, after x -> x^3 + x and y -> 2y + 1/3, with forced pairs (which
    may be invalid) and with a restricted set of allowed pairs."""
    t = recoordinatised(s)
    for mode in MatchMode:
        same = mode is MatchMode.MONO
        pairs = [(i, j) for i, j in empty_pairs(s)
                 if (s[i].color is s[j].color) == same]
        forced, allowed = [], None
        if pairs:
            forced = data.draw(st.lists(st.sampled_from(pairs), max_size=2))
            allowed = data.draw(st.none() | st.lists(st.sampled_from(pairs), unique=True))
        answers = [
            [
                _outcome(lambda: brute_force_max_matching(u, mode, forced_pairs=forced).pairs),
                decide_perfect(u, mode, forced_pairs=forced),
                count_perfect_matchings(u, mode, allowed_pairs=allowed),
            ]
            for u in (s, t)
        ]
        assert answers[0] == answers[1]


@st.composite
def oracle_inputs(draw):
    """At most eight two-colored points on a 5 x 5 grid, so x and y repeat;
    optionally with a collinear run along a row or a column, and optionally
    perturbed into rational general position."""
    coords = draw(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                          min_size=1, max_size=8))
    run = set()
    if draw(st.booleans()):
        at, length = draw(st.integers(0, 4)), draw(st.integers(3, 5))
        lo = draw(st.integers(0, 5 - length))
        run = {(lo + k, at) for k in range(length)}
        if draw(st.booleans()):
            run = {(y, x) for x, y in run}
    coords = run | set(sorted(coords - run)[:8 - len(run)])
    s = PointSet.from_tuples(
        (x, y, draw(st.sampled_from("RB"))) for x, y in sorted(coords))
    return perturb(s, 4) if draw(st.booleans()) else s


@given(oracle_inputs())
# Random draws seldom hit a contact that changes an answer, so two that do
# are always run: rectangles touching along x = 1 away from every input
# point, which may coexist, and two segments crossing at (1, 1), which may not.
@example(ps((0, 2, "B"), (1, 0, "B"), (1, 3, "B"), (3, 1, "B")))
@example(ps((0, 1, "B"), (2, 1, "B"), (1, 0, "B"), (1, 2, "B")))
@settings(max_examples=200, deadline=None)
def test_oracle_matches_subset_enumeration(s):
    """The oracle's maximum, its decision and its count of perfect
    matchings equal those of enumerating every conflict-free set of
    candidate pairs with `classify_intersection`."""
    for mode in MatchMode:
        best, perfect = matching_sizes_naive(s, mode is MatchMode.MONO)
        assert len(brute_force_max_matching(s, mode)) == best
        assert decide_perfect(s, mode) == (2 * best == len(s))
        assert count_perfect_matchings(s, mode) == perfect


@st.composite
def oracle_inputs_with_pairs(draw):
    """`oracle_inputs` with a list of forced pairs and one of allowed
    pairs, each drawn among its empty pairs, in either order, and among
    any pairs of its points, so that some are no candidate of a mode,
    repeat a point or meet."""
    s = draw(oracle_inputs())
    point = st.integers(0, len(s) - 1)
    pair = st.tuples(point, point)
    empty = empty_pairs(s)
    if empty:
        pick = st.sampled_from(empty)
        pair = st.one_of(pick, pick.map(lambda p: p[::-1]), pair)
    return s, draw(st.lists(pair, max_size=3)), draw(st.lists(pair, max_size=12))


@given(oracle_inputs_with_pairs())
# Two segments crossing at (1, 1), which is no input point: forced
# together they leave no perfect matching, and of the allowed pairs only
# (0, 2) and (1, 3) form one.
@example((ps(*TestOracle.CROSS), [(0, 1), (3, 2)], [(0, 1), (2, 3), (0, 2), (3, 1)]))
@settings(max_examples=200, deadline=None)
def test_forced_and_allowed_pairs_match_subset_enumeration(case):
    """`decide_perfect` with forced pairs and `count_perfect_matchings`
    with allowed pairs give the answers of enumerating the conflict-free
    sets of candidate pairs that hold every forced pair, or that use only
    allowed ones."""
    s, forced, allowed = case
    for mode in MatchMode:
        same = mode is MatchMode.MONO
        _, perfect = matching_sizes_naive(s, same, forced_pairs=forced)
        assert decide_perfect(s, mode, forced_pairs=forced) == (perfect > 0)
        _, perfect = matching_sizes_naive(s, same, allowed_pairs=allowed)
        assert count_perfect_matchings(s, mode, allowed_pairs=allowed) == perfect


@st.composite
def box_operations(draw):
    """A rank grid of 2 x 2 up to 8 x 8 with points on it, candidate boxes
    that are empty in those points, a cell side, and a sequence of pushes,
    leaves, pops and queries of the candidates; a leave names the
    candidate where the test starts to look for a point to leave.
    The boxes are drawn among zero-width and zero-height segments, boxes
    with shared coordinates and boxes spanning the whole grid.  As in the
    oracle, each box is spanned by two distinct points at opposite
    corners, and boxes with a corner in common share the point there.  The
    drawn boxes that hold a third point are dropped."""
    g = draw(st.integers(2, 8))
    coord = st.integers(0, g - 1)
    points = draw(st.lists(st.tuples(coord, coord), max_size=20))
    at = {p: k for k, p in enumerate(points)}

    def corner(x, y):
        if (x, y) not in at:
            at[x, y] = len(points)
            points.append((x, y))
        return at[x, y]

    def box():
        x1, x2 = sorted((draw(coord), draw(coord)))
        y1, y2 = sorted((draw(coord), draw(coord)))
        shape = draw(st.sampled_from(["box", "box", "flat-x", "flat-y", "whole"]))
        if shape == "flat-x":
            x2 = x1
        elif shape == "flat-y":
            y2 = y1
        elif shape == "whole":
            x1, x2, y1, y2 = 0, g - 1, 0, g - 1
        return Rect(x1, x2, y1, y2, corner(x1, y1), corner(x2, y2))

    drawn = [box() for _ in range(draw(st.integers(1, 30)))]
    xs, ys = [x for x, _ in points], [y for _, y in points]
    rects = [r for r in drawn if r.a != r.b and not any(
        p != r.a and p != r.b and r.xmin <= xs[p] <= r.xmax and r.ymin <= ys[p] <= r.ymax
        for p in range(len(points)))]
    assume(rects)
    pick = st.integers(0, len(rects) - 1)
    # A few leaves come first, while nothing is blocked.  A query reads the
    # cells only when they are fewer than the chosen boxes, so most
    # sequences go on with a run of pushes.
    ops = [("leave", draw(pick)) for _ in range(draw(st.integers(0, 3)))]
    ops += [("push", draw(pick)) for _ in range(draw(st.integers(0, 30)))]
    ops += [(op, draw(pick)) for op in draw(st.lists(
        st.sampled_from(["push", "leave", "query", "query", "pop"]), max_size=40))]
    return (xs, ys), rects, draw(st.integers(1, 4)), ops


@given(box_operations())
# Pairs of empty boxes, the first chosen and the second queried.  Two that
# meet at a corner: a conflict.  On the next three, the rule of empty
# rectangles differs from a test of the closed boxes.
@example((([0, 3, 1, 4], [2, 5, 0, 3]),
          [Rect(0, 3, 2, 5, 0, 1), Rect(1, 4, 0, 3, 2, 3)], 1, [("push", 0), ("query", 1)]))
# Two that touch along x = 1, with no point there: no conflict.
@example((([0, 1, 1, 2], [1, 3, 0, 2]),
          [Rect(0, 1, 1, 3, 0, 1), Rect(1, 2, 0, 2, 2, 3)], 1, [("push", 0), ("query", 1)]))
# Two that share the defining point (1, 1) and overlap only there: a conflict.
@example((([0, 1, 2], [0, 1, 2]),
          [Rect(0, 1, 0, 1, 0, 1), Rect(1, 2, 1, 2, 1, 2)], 1, [("push", 0), ("query", 1)]))
# Two segments crossing at (1, 1), which is no point of the set: comparable,
# so a conflict.
@example((([1, 1, 0, 2], [0, 2, 1, 1]),
          [Rect(1, 1, 0, 2, 0, 1), Rect(0, 2, 1, 1, 2, 3)], 1, [("push", 0), ("query", 1)]))
# A box of one rank, chosen, and a longer box that shares only the defining
# point (1, 1) with it: a conflict, though the index buckets no box.
@example((([0, 1, 3], [0, 1, 3]),
          [Rect(0, 1, 0, 1, 0, 1), Rect(1, 3, 1, 3, 1, 2)], 1, [("push", 0), ("query", 1)]))
@settings(max_examples=300, deadline=None)
def test_chosen_index_answers_as_the_scan(case):
    """Both containers of chosen candidates, built over the same empty
    boxes, as the oracle builds them, and run under any last-in-first-out
    sequence of pushes, leaves and pops, answer every conflict query as
    `meet_naive` over all chosen boxes does.  The bitmask also blocks each
    candidate of a point left unmatched.  A leave takes, when there is
    one, a point of a candidate that nothing blocks yet, and every
    candidate of that point is queried right after it, so that only the
    leave can block them in the bitmask."""
    ranks, rects, side, ops = case
    grid = _Grid(*ranks)
    chosen = []  # the chosen boxes, and the points left unmatched
    mask = matching_module._ChosenMask(rects, len(ranks[0]))
    index = matching_module._ChosenIndex(ranks, [(r.a, r.b) for r in rects], side)

    def blocked(k):
        """`conflicts_naive` of candidate k, and whether one of its points
        is left unmatched."""
        boxes = [c for c in chosen if isinstance(c, Rect)]
        left = {c for c in chosen if not isinstance(c, Rect)}
        return conflicts_naive(rects[k], boxes, grid), rects[k].a in left or rects[k].b in left

    def check(k):
        want, left = blocked(k)
        assert index.conflicts(k) == want
        assert bool(mask.conflicts(k)) == (want or left)

    for op, k in ops:
        if op == "push":
            chosen.append(rects[k])
            mask.append(k)
            index.append(k)
        elif op == "leave":
            n = len(rects)
            k = next((c for c in ((k + d) % n for d in range(n))
                      if not any(blocked(c))), k)
            p = rects[k].a
            chosen.append(p)
            mask.leave(p)
            index.leave(p)
            for c, r in enumerate(rects):
                if p in (r.a, r.b):
                    check(c)
        elif op == "pop" and chosen:
            chosen.pop()
            mask.pop()
            index.pop()
        else:
            check(k)


@given(st.one_of(repeated_grid(), perturbed(), collinear_runs()))
@example([(p.x, p.y, p.color) for p in monochromatize(
    build_gadget(*variable_gadget(1), {"recipe": "variable"}))])
@settings(max_examples=300, deadline=None)
def test_chosen_mask_holds_every_conflict(pts):
    """The candidates of either mode are empty rectangles.  On them, bit v
    of a candidate's conflict mask is set iff candidate v shares one of its
    points or `_meet` finds that the two meet, as `intersection_kinds`
    reports every meeting pair."""
    s = PointSet.from_tuples(pts)
    for rects in (candidate_monochromatic(s), candidate_bichromatic(s)):
        incident = [0] * len(s)
        for v, b in enumerate(rects):
            incident[b.a] |= 1 << v
            incident[b.b] |= 1 << v
        want = [incident[r.a] | incident[r.b] for r in rects]
        for u, v in intersection_kinds(s, rects):
            want[u] |= 1 << v
            want[v] |= 1 << u
        assert matching_module._ChosenMask(rects, len(s)).conf == want


@given(st.one_of(repeated_grid(), perturbed(), collinear_runs()),
       st.sampled_from(MatchMode), st.data())
@settings(max_examples=200, deadline=None)
def test_feasible_counter_equals_the_scan(pts, mode, data):
    """Over a mode's empty pairs, as the maximum search builds it, the
    bitmask's lane count gives the numbers of red and of blue points from
    each index up with a candidate that is not blocked, as a scan of each
    point's incidence mask does, after each step of any last-in-first-out
    sequence of pushes, leaves and pops."""
    s = PointSet.from_tuples(pts)
    _, mask = matching_module._search_space(s, mode, 1)
    red = [p.color is Color.RED for p in s]
    count = mask.feasible_counter(red)
    candidate = st.integers(0, len(mask.conf) - 1) if mask.conf else st.nothing()
    step = st.one_of(st.tuples(st.just("push"), candidate),
                     st.tuples(st.just("leave"), st.integers(0, len(s) - 1)),
                     st.tuples(st.just("pop"), st.none()))

    def check():
        live = [bool(incident & ~mask.blocked) for incident in mask.incident]
        for lo in range(len(s) + 1):
            assert count(lo) == (sum(f and r for f, r in zip(live[lo:], red[lo:])),
                                 sum(f and not r for f, r in zip(live[lo:], red[lo:])))

    check()
    for op, arg in data.draw(st.lists(step, max_size=16)):
        if op == "push":
            mask.append(arg)
        elif op == "leave":
            mask.leave(arg)
        elif mask.saved:
            mask.pop()
        check()


def _searches_by_container(s, mode, runs):
    """`_search`'s outcome and its number of pushes for each of `runs`
    (objective, forced pairs, allowed pairs): one list with the chosen
    boxes in a bitmask, one with `_INDEX_FROM` at 0, in the index."""
    by_container = []
    for index_from in (matching_module._INDEX_FROM, 0):
        pushes = [0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matching_module, "_INDEX_FROM", index_from)
            for cls in (matching_module._ChosenMask, matching_module._ChosenIndex):
                def append(self, k, _append=cls.append):
                    pushes[0] += 1
                    _append(self, k)

                mp.setattr(cls, "append", append)
            outcomes = []
            for objective, forced_pairs, allowed_pairs in runs:
                pushes[0] = 0
                outcome = _outcome(lambda: matching_module._search(
                    s, mode, objective, len(s), forced_pairs, allowed_pairs))
                outcomes.append((outcome, pushes[0]))
        by_container.append(outcomes)
    return by_container


@given(solver_inputs(max_size=12), st.data())
@settings(max_examples=60, deadline=None)
def test_bitmask_and_index_searches_agree(s, data):
    """`_search` reaches the same leaves, returns the same pairs and pushes
    as many boxes whether it keeps the chosen boxes as a bitmask or in the
    index: for every objective, with forced pairs (which may be invalid)
    and with a restricted set of allowed pairs.  Equal pushes mean that
    both bound each node alike: a looser but valid bound on either would
    leave the leaves and pairs as they are, but visit more nodes."""
    for mode in MatchMode:
        same = mode is MatchMode.MONO
        pairs = [(i, j) for i, j in empty_pairs(s)
                 if (s[i].color is s[j].color) == same]
        forced, allowed = [], None
        if pairs:
            forced = data.draw(st.lists(st.sampled_from(pairs), max_size=2))
            allowed = data.draw(st.none() | st.lists(st.sampled_from(pairs), unique=True))
        runs = [(objective, forced_pairs, allowed_pairs)
                for objective in ("max", "decide", "count")
                for forced_pairs, allowed_pairs in (((), None), (forced, allowed))]
        masked, indexed = _searches_by_container(s, mode, runs)
        assert masked == indexed


@pytest.mark.parametrize("mode, n, seed", [
    (MatchMode.MONO, 20, 11), (MatchMode.MONO, 22, 7), (MatchMode.MONO, 24, 3),
    (MatchMode.BI, 20, 2), (MatchMode.BI, 22, 0), (MatchMode.BI, 24, 8),
])
def test_dense_max_searches_agree_on_nodes(mode, n, seed):
    """On dense instances, where the feasible-partner bound prunes after a
    point is left unmatched, the bitmask and the index reach the same
    leaves and pairs with as many pushes."""
    s = gadget_random_instance(n, n, 0.5, seed=seed)
    masked, indexed = _searches_by_container(s, mode, [("max", (), None)])
    assert masked == indexed
