import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rectmatch.matching as matching_module
from rectmatch.errors import GuardError
from rectmatch.gadgets import (
    compile_planar_1in3,
    formula_from_dict,
    one_in_three_satisfiable,
    random_instance as gadget_random_instance,
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
    perturb,
    rect_from_pair,
)
from rectmatch.independent_set import (
    RectFamily,
    build_graph,
    pairwise_kinds,
    verify_complete,
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

from naive import brute_force_mis, conflicts_naive, matching_sizes_naive

K = IntersectionKind


def ps(*triples):
    return PointSet.from_tuples(triples)


def random_instance(rng, n, grid=20, red=0.5):
    pts = set()
    while len(pts) < n:
        pts.add((rng.randrange(grid + 1), rng.randrange(grid + 1)))
    return PointSet.from_tuples(
        (x, y, "R" if rng.random() < red else "B") for x, y in sorted(pts)
    )


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


class TestFamilyStructure:
    """Structural guarantees of the split families on random instances."""

    def test_mono_family_invariants(self):
        rng = random.Random(17)
        for _ in range(40):
            s = random_instance(rng, rng.randrange(4, 11), grid=10)
            f = RectFamily(s, tuple(candidate_monochromatic(s)))
            for fam in split_families_mono(f):
                assert verify_complete(fam)
                for (u, v), k in pairwise_kinds(fam).items():
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
                assert verify_complete(fam)
                for k in pairwise_kinds(fam).values():
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
                sub = RectFamily(s, tuple(fam.rects[i] for i in members))
                assert build_graph(sub).edges == ()


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

    def test_env_guard(self, monkeypatch):
        s = PointSet.from_tuples([(i, i, "B") for i in range(17)])
        monkeypatch.setenv("RECTMATCH_ORACLE_GUARD", "20")
        assert len(brute_force_max_matching(s, MatchMode.MONO)) == 8

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


class TestChosenIndex:
    """Searches that can choose more than `_INDEX_FROM` boxes run on the
    index of chosen boxes, smaller ones on the bitmask."""

    def test_compiled_clause(self, built):
        f = formula_from_dict({
            "variables": ["u", "v", "w"],
            "clauses": [{"literals": [
                {"var": "u", "neg": False},
                {"var": "v", "neg": True},
                {"var": "w", "neg": False},
            ]}],
        })
        s = compile_planar_1in3(f).points
        assert len(s) // 2 > matching_module._INDEX_FROM
        assert decide_perfect(s, MatchMode.MONO, max_points=len(s)) \
            == one_in_three_satisfiable(f)
        assert len(built["_ChosenIndex"]) == 1

    @pytest.mark.parametrize("axis", ["row", "column"])
    def test_collinear_run_pairs_neighbours(self, built, axis):
        n = 300
        line = [(k, 7) if axis == "row" else (7, k) for k in range(n)]
        s = PointSet.from_tuples((x, y, "R") for x, y in line)
        assert n // 2 > matching_module._INDEX_FROM
        m = brute_force_max_matching(s, MatchMode.MONO, max_points=n)
        assert m.pairs == tuple((k, k + 1) for k in range(0, n, 2))
        assert len(built["_ChosenIndex"]) == 1

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

    def test_deterministic(self):
        s = ps((0, 0, "R"), (1, 1, "B"), (2, 0, "B"), (4, 4, "R"))
        assert report_to_json(approx_mbrm(s)) == report_to_json(approx_mbrm(s))


@st.composite
def solver_inputs(draw, side=6, min_size=2, max_size=14):
    """Small two-colored sets on [0..side]^2 with repeated coordinates, or
    perturbed into rational general position."""
    coords = draw(st.sets(st.tuples(st.integers(0, side), st.integers(0, side)),
                          min_size=min_size, max_size=max_size))
    s = PointSet.from_tuples(
        (x, y, draw(st.sampled_from("RB"))) for x, y in sorted(coords))
    return perturb(s, side) if draw(st.booleans()) else s


@given(solver_inputs(side=8, min_size=12, max_size=24))
@settings(max_examples=150, deadline=None)
def test_quarter_bound_against_the_oracle(s):
    """Both approximations give valid matchings of at least a quarter of
    the exact optimum, on up to 24 points."""
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
def box_operations(draw):
    """A rank grid of up to 8 x 8 with points on it, candidate boxes, a cell
    side, and a sequence of pushes, pops and queries of the candidates.
    The boxes include zero-width and zero-height segments, boxes with
    shared coordinates and boxes spanning the whole grid.  As in the
    oracle, each box is spanned by two points at opposite corners, and
    boxes with a corner in common share the point there."""
    g = draw(st.integers(1, 8))
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

    rects = [box() for _ in range(draw(st.integers(1, 30)))]
    grid = _Grid([x for x, _ in points], [y for _, y in points])
    pick = st.integers(0, len(rects) - 1)
    # A query reads the cells only when they are fewer than the chosen
    # boxes, so most sequences start with a run of pushes.
    ops = [("push", draw(pick)) for _ in range(draw(st.integers(0, 30)))]
    ops += [(op, draw(pick)) for op in draw(st.lists(
        st.sampled_from(["push", "query", "query", "pop"]), max_size=40))]
    return grid, rects, draw(st.integers(1, 4)), ops


@given(box_operations())
@settings(max_examples=300, deadline=None)
def test_chosen_index_answers_as_the_scan(case):
    """Under any last-in-first-out sequence of pushes and pops, the bitmask
    and the index give every conflict query the answer of `_meet` over all
    chosen boxes."""
    grid, rects, side, ops = case
    chosen = []
    mask = matching_module._ChosenMask(grid, rects)
    index = matching_module._ChosenIndex(grid, rects, side)
    for op, k in ops:
        if op == "push":
            chosen.append(rects[k])
            mask.append(k)
            index.append(k)
        elif op == "pop" and chosen:
            chosen.pop()
            mask.pop()
            index.pop()
        else:
            want = conflicts_naive(rects[k], chosen, grid)
            assert bool(mask.conflicts(k)) == want
            assert index.conflicts(k) == want


@given(solver_inputs(max_size=12), st.data())
@settings(max_examples=60, deadline=None)
def test_bitmask_and_index_searches_agree(s, data):
    """`_search` reaches the same leaves and returns the same pairs whether
    it keeps the chosen boxes as a bitmask or, with `_INDEX_FROM` at 0, in
    the index: for every objective, with forced pairs (which may be
    invalid) and with a restricted set of allowed pairs."""
    for mode in MatchMode:
        same = mode is MatchMode.MONO
        pairs = [(i, j) for i, j in empty_pairs(s)
                 if (s[i].color is s[j].color) == same]
        forced, allowed = [], None
        if pairs:
            forced = data.draw(st.lists(st.sampled_from(pairs), max_size=2))
            allowed = data.draw(st.none() | st.lists(st.sampled_from(pairs), unique=True))

        def answers():
            return [
                _outcome(lambda: matching_module._search(
                    s, mode, objective, len(s), forced_pairs, allowed_pairs))
                for objective in ("max", "decide", "count")
                for forced_pairs, allowed_pairs in (((), None), (forced, allowed))
            ]

        masked = answers()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matching_module, "_INDEX_FROM", 0)
            indexed = answers()
        assert masked == indexed
