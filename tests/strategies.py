"""Hypothesis strategies for harsh point sets, shared by the test modules:
repeated coordinates, rational coordinates in general position, and
collinear runs.  Each draws its colors at random and returns sorted
(x, y, color) triples for `PointSet.from_tuples`."""
from __future__ import annotations

from hypothesis import strategies as st

from rectmatch.geometry import PointSet, perturb


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
