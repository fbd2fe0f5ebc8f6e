"""Strong rectangle matchings of two-colored planar point sets.

A strong matching pairs input points with pairwise-disjoint axis-aligned
rectangles, each containing exactly its two points.  The package provides
exact rational geometry, the candidate-rectangle machinery, quarter-factor
approximation solvers for the monochromatic and bichromatic maximum matching
problems, exact brute-force oracles for small instances, and generators for
the forced-matching instances used to study the problems' hardness.
"""

from rectmatch.geometry import (
    Color,
    ColoredPoint,
    IntersectionKind,
    PointSet,
    Rect,
    candidate_bichromatic,
    candidate_monochromatic,
    classify_intersection,
    load_points,
    perturb,
    rect_from_pair,
)
from rectmatch.independent_set import (
    IndependentSet,
    IntersectionGraph,
    PiercingDag,
    RectFamily,
    build_graph,
    corner_elimination,
    forest_two_color,
    max_antichain,
    piercing_order,
)
from rectmatch.matching import (
    MatchMode,
    Matching,
    SolveReport,
    approx_mbrm,
    approx_mmrm,
    brute_force_max_matching,
    decide_perfect,
    half_approx_family,
    split_families_bi,
    split_families_mono,
    verify_matching,
)
from rectmatch.gadgets import (
    Formula,
    GadgetInstance,
    bichromatize,
    blocking_gadget,
    build_gadget,
    clause_gadget,
    compile_planar_1in3,
    monochromatize,
    random_instance,
    red_fill,
    variable_gadget,
)

__all__ = [
    "Color", "ColoredPoint", "IntersectionKind", "PointSet", "Rect",
    "candidate_bichromatic", "candidate_monochromatic",
    "classify_intersection", "load_points", "perturb", "rect_from_pair",
    "IndependentSet", "IntersectionGraph", "PiercingDag", "RectFamily",
    "build_graph", "corner_elimination", "forest_two_color",
    "max_antichain", "piercing_order",
    "MatchMode", "Matching", "SolveReport", "approx_mbrm", "approx_mmrm",
    "brute_force_max_matching", "decide_perfect", "half_approx_family",
    "split_families_bi", "split_families_mono", "verify_matching",
    "Formula", "GadgetInstance", "bichromatize", "blocking_gadget",
    "build_gadget", "clause_gadget", "compile_planar_1in3",
    "monochromatize", "random_instance", "red_fill", "variable_gadget",
]
