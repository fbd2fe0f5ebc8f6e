"""The three benchmark workloads: their inputs, operations and checks.

Each workload builds its inputs from the run's seed as *rounds*: lists of
operations whose mix of sizes and difficulty is the same for every seed,
so a run's figures do not hinge on which instances the seed drew.  A run
cycles through its rounds.  An operation is one call into the package on
one instance; its result is checked afterwards, outside the timed call.

- ``approx-random``: ``approx_mmrm`` and ``approx_mbrm`` on random instances,
  n = 100 to 300 on a 4n grid.  Almost all time is in ``independent_set``.
- ``oracle-exact``: ``brute_force_max_matching`` on dense random instances
  (n = 24 to 30 on an n grid) in both modes, plus a 2400-point collinear
  row.  All time is in the oracle's search; ``independent_set`` never runs.
- ``reduction``: ``decide_perfect`` on compiled one-in-three formulas of 1.6k
  to 5.3k points and on recoloured variable gadgets: the oracle again, but
  deciding large, sparse, structured inputs with rational coordinates.

Answers that cannot be derived at run time (approximate matchings, the
optima of random instances) come from fixed instance pools recorded in
``reference.json`` by ``record.py``; the seed chooses from the pools.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

import rectmatch.gadgets as gadgets
import rectmatch.matching as matching
from rectmatch.geometry import PointSet

from formulas import formula_set

REFERENCE = Path(__file__).with_name("reference.json")
NO_GUARD = 10 ** 7
MODES = {"mono": matching.MatchMode.MONO, "bi": matching.MatchMode.BI}

# approx-random: one instance per size per round, solved in both modes.
# Repeated sizes make wide classes of similar calls, so the median and the
# tail each fall inside a class rather than between two; the sizes lean
# small so that a 20-second run holds over 40 calls.  Each size's pool is
# sorted by a recorded work count and cut into APPROX_STRATA strata; the
# seed picks one instance per stratum, and the strata are staggered across
# sizes so that every round mixes easy and hard instances.
APPROX_SIZES = (100, 100, 100, 150, 150, 200, 300)
APPROX_STRATA = 3
APPROX_STRATUM = 3

# oracle-exact: (mode, n) slots on an n grid.  Search time is so
# heavy-tailed that a seeded draw from a larger pool moved a run's total by
# about 10 %, so every round runs the whole pool and the seed only sets the
# order.  Larger sizes would not fit a round: at bi n=28 one instance takes
# from 0.01 s to 10 s (one 3.3 GHz x86 core, CPython 3.11).
ORACLE_SLOTS = (("mono", 26), ("mono", 28), ("mono", 30), ("bi", 24), ("bi", 26))
ORACLE_POOL = 18
COLLINEAR_N = 2400

# reduction: variable gadgets decided after recolouring (kind, degree).
GADGET_OPS = (("mono", 1), ("bi", 1), ("bi", 2))


class CheckFailed(Exception):
    """An operation returned a wrong answer."""


@dataclass
class Op:
    """One timed call: `call(points)` returns the answer, `check(points,
    answer)` raises CheckFailed when it is wrong."""

    name: str
    points: PointSet
    call: Callable
    check: Callable


@dataclass
class Workload:
    # The percentile reported as op_s.tail: the highest that leaves at least
    # ten operations beyond it in a 20-second run at baseline.
    tail_pct: int
    rounds: list[list[Op]]


def approx_instance(slot: int, k: int) -> PointSet:
    n = APPROX_SIZES[slot]
    return gadgets.random_instance(n, 4 * n, 0.5, seed=100_000 + 1_000 * slot + k)


def oracle_instance(slot: int, k: int) -> PointSet:
    n = ORACLE_SLOTS[slot][1]
    return gadgets.random_instance(n, n, 0.5, seed=200_000 + 1_000 * slot + k)


def collinear_row() -> PointSet:
    return PointSet.from_tuples((x, 0, "B") for x in range(COLLINEAR_N))


def digest(m: matching.Matching) -> str:
    """Short stable fingerprint of a matching's pair set."""
    text = json.dumps([list(p) for p in m.pairs], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _make(tracer, span: str, fn, *args):
    """Build one input, as a `gadgets.*` span when tracing."""
    if tracer is None:
        return fn(*args)
    with tracer.span(span):
        out = fn(*args)
    tracer.count("gadgets.points", len(getattr(out, "points", out)))
    return out


def _solver(mode: str):
    return matching.approx_mmrm if mode == "mono" else matching.approx_mbrm


def _verified(points, m: matching.Matching) -> None:
    rep = matching.verify_matching(points, m)
    _require(rep.ok, f"verify_matching failed: {rep}")


# ---------------------------------------------------------------------------
# approx-random

def _approx_op(mode: str, name: str, s: PointSet, want: str) -> Op:
    def check(points, m):
        _verified(points, m)
        got = digest(m)
        _require(got == want, f"digest {got} differs from the reference {want}")

    return Op(name, s, call=lambda points: _solver(mode)(points).matching, check=check)


def build_approx(seed: int, ref: dict, tracer=None) -> Workload:
    rng = Random(seed)
    picks = [[rng.choice(stratum) for stratum in strata]
             for strata in ref["approx"]["strata"]]
    rounds = []
    for r in range(APPROX_STRATA):
        ops = []
        for slot, n in enumerate(APPROX_SIZES):
            k = picks[slot][(r + slot) % APPROX_STRATA]
            s = _make(tracer, "gadgets.random_instance", approx_instance, slot, k)
            for mode in ("mono", "bi"):
                want = ref["approx"][mode][slot][k]
                ops.append(_approx_op(mode, f"{mode}/n{n}/s{slot}k{k}", s, want))
        rng.shuffle(ops)
        rounds.append(ops)
    return Workload(75, rounds)       # 3 rounds, 42 ops: 10 beyond p75


# ---------------------------------------------------------------------------
# oracle-exact

def _max_matching(mode: str):
    def call(points):
        return matching.brute_force_max_matching(
            points, MODES[mode], max_points=NO_GUARD)
    return call


def _oracle_op(mode: str, name: str, s: PointSet, opt: int, want: str) -> Op:
    approx: list[int] = []      # the approximation's size, found once

    def check(points, m):
        _require(len(m) == opt, f"optimum {len(m)}, recorded {opt}")
        _verified(points, m)
        # The search keeps the lexicographically least of the maxima.
        _require(digest(m) == want, "not the recorded maximum matching")
        if not approx:
            approx.append(len(_solver(mode)(points).matching))
        _require(approx[0] >= math.ceil(opt / 4),
                 f"approximation {approx[0]} below a quarter of {opt}")

    return Op(name, s, call=_max_matching(mode), check=check)


def _collinear_op(s: PointSet) -> Op:
    # The lexicographically least maximum matching of a one-colour row pairs
    # neighbours, which is a complete check.  The approximation check is
    # left out here: it would classify 2.9 million rectangle pairs.
    want = tuple((i, i + 1) for i in range(0, COLLINEAR_N, 2))

    def check(points, m):
        _require(m.pairs == want, "the row is not matched to neighbours")

    return Op(f"mono/n{COLLINEAR_N}/row", s, call=_max_matching("mono"), check=check)


def build_oracle(seed: int, ref: dict, tracer=None) -> Workload:
    ops = [_collinear_op(collinear_row())]
    for slot, (mode, n) in enumerate(ORACLE_SLOTS):
        for k in range(ORACLE_POOL):
            s = _make(tracer, "gadgets.random_instance", oracle_instance, slot, k)
            ops.append(_oracle_op(mode, f"{mode}/n{n}/s{slot}k{k}", s,
                                  ref["oracle"]["opt"][slot][k],
                                  ref["oracle"]["digest"][slot][k]))
    Random(seed).shuffle(ops)
    return Workload(96, [ops])        # 3-4 rounds, 273-364 ops: 10-14 beyond p96


# ---------------------------------------------------------------------------
# reduction

def _decide_op(name: str, mode: str, s: PointSet, want: bool) -> Op:
    def call(points):
        return matching.decide_perfect(points, MODES[mode], max_points=NO_GUARD)

    def check(points, got):
        _require(got is want, f"decide_perfect gave {got}, expected {want}")

    return Op(name, s, call=call, check=check)


def _variable_gadget(degree: int):
    pts, segs = gadgets.variable_gadget(degree)
    return gadgets.build_gadget(pts, segs, {"recipe": "variable"})


def build_reduction(seed: int, ref: dict, tracer=None) -> Workload:
    ops = []
    for name, f in formula_set():
        g = _make(tracer, "gadgets.compile", gadgets.compile_planar_1in3, f)
        ops.append(_decide_op(f"mono/{name}", "mono", g.points,
                              gadgets.one_in_three_satisfiable(f)))
    for kind, degree in GADGET_OPS:
        g = _make(tracer, "gadgets.compile", _variable_gadget, degree)
        recolor = gadgets.monochromatize if kind == "mono" else gadgets.bichromatize
        s = _make(tracer, "gadgets.recolor", recolor, g)
        # A variable gadget has exactly two perfect matchings, and both
        # recolourings keep the perfect-matching answer.
        ops.append(_decide_op(f"{kind}/variable{degree}", kind, s, True))
    Random(seed).shuffle(ops)
    return Workload(80, [ops])        # 3 rounds, 51 ops: 10 beyond p80


BUILDERS = {
    "approx-random": build_approx,
    "oracle-exact": build_oracle,
    "reduction": build_reduction,
}
