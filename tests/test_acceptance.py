"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`."""
import math
import random
import time
from itertools import combinations

import pytest

from rectmatch.errors import ContractError
from rectmatch.geometry import (
    Color,
    IntersectionKind,
    PointSet,
    candidate_bichromatic,
    candidate_monochromatic,
    empty_pairs,
    perturb,
)
from rectmatch.independent_set import (
    RectFamily,
    complete_witness,
    corner_elimination,
    piercing_order,
    _crossing_keys,
    _left_right,
)
from rectmatch.matching import (
    MatchMode,
    approx_mbrm,
    approx_mmrm,
    brute_force_max_matching,
    decide_perfect,
    exact_independent_rects,
    half_approx_family,
    split_families_bi,
    split_families_mono,
    verify_matching,
)
from rectmatch.gadgets import (
    blocking_gadget,
    build_gadget,
    compile_planar_1in3,
    eval_one_in_three,
    formula_from_dict,
    one_in_three_satisfiable,
    random_instance,
    variable_gadget,
)

from naive import (
    brute_force_mis,
    forced_variable_pairs,
    gpc_alpha,
    is_general_position,
    order_violation,
    pairwise_kinds_naive,
    red_vertical_pairs,
)

K = IntersectionKind
BIG = 10 ** 7

CORPUS_SIZE = 200
CORPUS_GRID = 20
CORPUS_MAX_N = 14


@pytest.fixture(scope="module")
def corpus():
    instances = []
    for seed in range(CORPUS_SIZE):
        rng = random.Random(1_000 + seed)
        n = rng.randrange(2, CORPUS_MAX_N + 1)
        instances.append(
            (seed, random_instance(n, CORPUS_GRID, 0.5, seed=1_000 + seed))
        )
    return instances


def test_criterion_1_quarter_approximation(corpus):
    """Both approximations reach at least a quarter of the exact optimum on
    every corpus instance, within the runtime budget."""
    start = time.time()
    violations = []
    for seed, s in corpus:
        for mode, solver in ((MatchMode.MONO, approx_mmrm), (MatchMode.BI, approx_mbrm)):
            report = solver(s)
            opt = brute_force_max_matching(s, mode, max_points=CORPUS_MAX_N)
            if len(report.matching) < math.ceil(len(opt) / 4):
                violations.append((seed, mode, len(report.matching), len(opt)))
            rep = verify_matching(s, report.matching)
            if not rep.ok:
                violations.append((seed, mode, "verify", rep))
    elapsed = time.time() - start
    assert not violations, violations[:5]
    assert elapsed < 120, f"runtime {elapsed:.1f}s exceeds the two-minute budget"
    print(f"\n[PASS] criterion 1: quarter bound on {2 * len(corpus)} solves, "
          f"0 violations, {elapsed:.1f}s")


def test_criterion_2_half_bound_per_family(corpus):
    """Each monochromatic half solved to at least half its own optimum
    (families over 20 rectangles skipped per the stated cap)."""
    checked = skipped = 0
    violations = []
    for seed, s in corpus:
        f = RectFamily(s, tuple(candidate_monochromatic(s)))
        for fam in split_families_mono(f):
            if len(fam) > 20:
                skipped += 1
                continue
            if len(fam) == 0:
                continue
            opt = len(brute_force_mis(fam).members)
            got = len(half_approx_family(fam).members)
            checked += 1
            if got < math.ceil(opt / 2):
                violations.append((seed, got, opt))
    assert not violations, violations[:5]
    assert checked >= 100
    print(f"\n[PASS] criterion 2: half bound on {checked} families "
          f"({skipped} over the 20-rect cap), 0 violations")


def test_criterion_3_bichromatic_exactness(corpus):
    """Every bichromatic corner family solves exactly, and all of its
    intersecting pairs are piercing or corner."""
    families = 0
    for seed, s in corpus:
        f = RectFamily(s, tuple(candidate_bichromatic(s)))
        for fam in split_families_bi(f):
            for (u, v), kind in pairwise_kinds_naive(fam).items():
                assert kind in (K.DISJOINT, K.PIERCING, K.CORNER), (
                    seed, fam.rects[u].key, fam.rects[v].key, kind
                )
            exact = len(exact_independent_rects(fam).members)
            oracle = len(brute_force_mis(fam, force=True).members)
            assert exact == oracle, (seed, exact, oracle)
            families += 1
    print(f"\n[PASS] criterion 3: exact solves on {families} bichromatic "
          f"families, all conflicts piercing/corner")


def _corner_motif(rng):
    """Two corner-intersecting boxes (plus noise off to the side)."""
    dx, dy = rng.randrange(3), rng.randrange(3)
    pts = {(dx + 0, dy + 3), (dx + 4, dy + 7), (dx + 2, dy + 0), (dx + 6, dy + 5)}
    while len(pts) < 6 + rng.randrange(3):
        pts.add((rng.randrange(10, 16), rng.randrange(12)))
    return pts


def _random_complete_family(rng, cap=18):
    from rectmatch.geometry import classify_intersection, rect_from_pair

    while True:
        if rng.random() < 0.5:
            pts = _corner_motif(rng)
        else:
            n = rng.randrange(6, 11)
            pts = set()
            while len(pts) < n:
                pts.add((rng.randrange(11), rng.randrange(11)))
        s = PointSet.from_tuples(
            (x, y, "R" if rng.random() < 0.5 else "B") for x, y in sorted(pts)
        )
        pairs = empty_pairs(s)
        if not pairs:
            continue
        rects = {p: rect_from_pair(s, *p) for p in pairs}
        # Seed with a corner-intersecting pair when one exists, so most
        # generated families exercise the elimination nontrivially.
        keys = set()
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        for a_pos in range(len(shuffled)):
            for b_pos in range(a_pos + 1, len(shuffled)):
                pa, pb = shuffled[a_pos], shuffled[b_pos]
                if classify_intersection(s, rects[pa], rects[pb]) is K.CORNER:
                    keys = {pa, pb}
                    break
            if keys:
                break
        keys |= set(rng.sample(pairs, min(len(pairs), rng.randrange(2, 6))))
        grown = True
        while grown:
            fam = RectFamily(s, tuple(rects.get(p) or rect_from_pair(s, *p)
                                      for p in sorted(keys)))
            grown = False
            ends = _left_right(fam)
            for (u, v), kind in pairwise_kinds_naive(fam).items():
                if kind is K.CORNER:
                    for kk in _crossing_keys(ends[u], ends[v]):
                        if kk not in keys:
                            keys.add(kk)
                            grown = True
            if len(keys) > cap:
                break
        if len(keys) > cap:
            continue
        return fam


def test_criterion_4_corner_elimination_sound():
    """On 100 generated complete families, eliminating corner pairs keeps
    the piercing+corner independence number exactly."""
    rng = random.Random(77)
    with_corners = with_piercing = 0
    for trial in range(100):
        fam = _random_complete_family(rng)
        assert complete_witness(fam) is None
        before, arcs = gpc_alpha(fam)
        with_piercing += arcs > 0
        out = corner_elimination(fam)
        after, _ = gpc_alpha(out)
        assert before == after, (trial, before, after)
        assert not any(
            k is K.CORNER for k in pairwise_kinds_naive(out).values()
        )
        if len(out) < len(fam):
            with_corners += 1
    # The conflict graphs checked hold piercing edges, not only corners.
    assert with_piercing > 0
    print(f"\n[PASS] criterion 4: independence number preserved on 100 "
          f"complete families ({with_corners} nontrivial)")


def test_criterion_5_blocking_gadget():
    """The 12-point blocker matches perfectly; removing any nonempty subset
    of its four outer points kills every perfect matching."""
    s = blocking_gadget()
    assert decide_perfect(s, MatchMode.MONO)
    removals = 0
    for r in range(1, 5):
        for drop in combinations(range(4), r):
            kept = PointSet(tuple(p for i, p in enumerate(s) if i not in set(drop)))
            assert not decide_perfect(kept, MatchMode.MONO), drop
            removals += 1
    assert removals == 15
    print("\n[PASS] criterion 5: blocking gadget perfect; all 15 outer-point "
          "removals imperfect")


def test_criterion_6_clause_truth_table():
    """A compiled single clause completes perfectly exactly under the eight
    assignments satisfying one literal."""
    start = time.time()
    f = formula_from_dict({
        "variables": ["u", "v", "w"],
        "clauses": [{
            "literals": [
                {"var": "u", "neg": False},
                {"var": "v", "neg": True},
                {"var": "w", "neg": False},
            ],
            "side": "above",
        }],
    })
    g = compile_planar_1in3(f)
    for bits in range(8):
        asg = {v: bool((bits >> k) & 1) for k, v in enumerate("uvw")}
        got = decide_perfect(
            g.points, MatchMode.MONO, max_points=BIG,
            forced_pairs=forced_variable_pairs(g, asg),
        )
        want = eval_one_in_three(f, asg)
        assert got == want, (asg, got, want)
    elapsed = time.time() - start
    assert elapsed < 60
    print(f"\n[PASS] criterion 6: clause truth table exact over all 8 "
          f"assignments ({elapsed:.1f}s)")


def _fml(variables, *clauses):
    return formula_from_dict({
        "variables": list(variables),
        "clauses": [
            {"literals": [{"var": v, "neg": bool(n)} for v, n in lits],
             "side": side}
            for lits, side in clauses
        ],
    })


def _formula_suite():
    suite = []
    for bits in range(8):
        signs = [(v, (bits >> k) & 1) for k, v in enumerate("uvw")]
        suite.append(_fml("uvw", (signs, "above")))
    suite.append(_fml("uvw", ([("u", 1), ("v", 0), ("w", 1)], "below")))
    suite.append(_fml("uvw", ([("u", 0), ("v", 0), ("w", 0)], "below")))
    # two clauses: opposite sides (same span), one-in-three unsatisfiable
    suite.append(_fml("uvw",
                      ([("u", 0), ("v", 0), ("w", 0)], "above"),
                      ([("u", 1), ("v", 1), ("w", 1)], "below")))
    # two clauses: nested same side
    suite.append(_fml("uvwx",
                      ([("u", 0), ("v", 1), ("x", 0)], "above"),
                      ([("v", 0), ("w", 0), ("x", 1)], "above")))
    # two clauses: opposite sides, different spans
    suite.append(_fml("uvwx",
                      ([("u", 0), ("v", 0), ("w", 0)], "above"),
                      ([("v", 1), ("w", 0), ("x", 0)], "below")))
    # another unsatisfiable pair
    suite.append(_fml("uvwx",
                      ([("u", 0), ("v", 0), ("w", 1)], "above"),
                      ([("u", 1), ("v", 1), ("w", 0)], "below")))
    return suite


def test_criterion_7_end_to_end_reduction():
    """Compiled instances decide exactly like exhaustive one-in-three
    evaluation across the bounded formula suite (every single-clause sign
    pattern plus nested, disjoint, and unsatisfiable two-clause shapes)."""
    start = time.time()
    results = []
    for f in _formula_suite():
        g = compile_planar_1in3(f)
        want = one_in_three_satisfiable(f)
        got = decide_perfect(g.points, MatchMode.MONO, max_points=BIG)
        assert got == want, (f, got, want)
        results.append(want)
    elapsed = time.time() - start
    print(f"\n[PASS] criterion 7: {len(results)} compiled formulas "
          f"({results.count(True)} satisfiable, {results.count(False)} not) "
          f"all decided correctly ({elapsed:.1f}s)")


def _perturb_corpus():
    instances = []
    rng = random.Random(909)
    # random small designated-segment layouts
    while len(instances) < 44:
        n = rng.randrange(4, 9)
        pts = set()
        while len(pts) < n:
            pts.add((rng.randrange(7), rng.randrange(7)))
        pts = sorted(pts)
        aligned = [
            (i, j)
            for i in range(n) for j in range(i + 1, n)
            if (pts[i][0] == pts[j][0]) != (pts[i][1] == pts[j][1])
            and not any(
                k != i and k != j
                and min(pts[i][0], pts[j][0]) <= pts[k][0] <= max(pts[i][0], pts[j][0])
                and min(pts[i][1], pts[j][1]) <= pts[k][1] <= max(pts[i][1], pts[j][1])
                for k in range(n)
            )
        ]
        if not aligned:
            continue
        chosen = rng.sample(aligned, rng.randrange(1, min(4, len(aligned)) + 1))
        used = [i for p in chosen for i in p]
        if len(used) != len(set(used)):
            continue
        instances.append(build_gadget(pts, chosen, {"recipe": "random-layout"}))
    for d in (1, 2, 3, 4):
        p, segs = variable_gadget(d)
        instances.append(build_gadget(p, segs, {"recipe": "variable"}))
    instances.append(compile_planar_1in3(
        _fml("uvw", ([("u", 0), ("v", 0), ("w", 0)], "above"))))
    instances.append(compile_planar_1in3(
        _fml("uvw", ([("u", 1), ("v", 1), ("w", 1)], "below"))))
    return instances


def test_criterion_8_perturbation():
    """Shearing a generated instance yields general position and preserves
    the matchable structure: identical blue candidate pairs, red verticals
    still matchable."""
    instances = _perturb_corpus()
    assert len(instances) == 50
    for g in instances:
        s = g.points
        n = g.provenance["gridN"]
        sheared = perturb(s, n)
        assert is_general_position(sheared)

        def blue_pairs(ps):
            return {
                (i, j) for i, j in empty_pairs(ps)
                if ps[i].color is Color.BLUE and ps[j].color is Color.BLUE
            }

        before = blue_pairs(s)
        after = blue_pairs(sheared)
        assert before == after == set(g.allowed_segments)
        assert set(red_vertical_pairs(g)) <= set(empty_pairs(sheared))
    print(f"\n[PASS] criterion 8: general position and matchable-pair "
          f"preservation on {len(instances)} sheared instances")


def test_criterion_9_comparability_contract(corpus):
    """The piercing orientation is a transitively closed strict partial
    order, checked by the reference checker on the returned arcs of every
    family the matchers build from the corpus."""
    orders = 0
    for seed, s in corpus:
        fams = list(split_families_mono(
            RectFamily(s, tuple(candidate_monochromatic(s)))))
        fams += list(split_families_bi(
            RectFamily(s, tuple(candidate_bichromatic(s)))))
        for fam in fams:
            dag = piercing_order(corner_elimination(fam))
            assert order_violation(dag) is None
            orders += 1
    rng = random.Random(55)
    for _ in range(100):
        fam = _random_complete_family(rng)
        dag = piercing_order(corner_elimination(fam))
        assert order_violation(dag) is None
        orders += 1
    print(f"\n[PASS] criterion 9: piercing order verified transitive and "
          f"acyclic on {orders} families, 0 contract errors")
