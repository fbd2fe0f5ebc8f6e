"""The benchmark's own planar one-in-three formula set.

Fourteen shapes: all eight sign patterns of one clause above the variable
row, two clauses below it, and four two-clause layouts (opposite sides over
the same span, nested on one side, opposite sides over different spans, and
a second unsatisfiable pair).  Compiled, they give 1.6k to 5.3k points, so
deciding them exercises the exact oracle on large, sparse, structured input.
"""
from __future__ import annotations

from rectmatch.gadgets import Formula, formula_from_dict


def _formula(variables: str, *clauses) -> Formula:
    return formula_from_dict({
        "variables": list(variables),
        "clauses": [
            {"literals": [{"var": v, "neg": bool(neg)} for v, neg in lits],
             "side": side}
            for lits, side in clauses
        ],
    })


def formula_set() -> list[tuple[str, Formula]]:
    """(name, formula) for each of the fourteen shapes, in a fixed order."""
    out = []
    for bits in range(8):
        signs = [(v, (bits >> k) & 1) for k, v in enumerate("uvw")]
        out.append((f"one-above-{bits}", _formula("uvw", (signs, "above"))))
    out.append(("one-below-5", _formula(
        "uvw", ([("u", 1), ("v", 0), ("w", 1)], "below"))))
    out.append(("one-below-0", _formula(
        "uvw", ([("u", 0), ("v", 0), ("w", 0)], "below"))))
    out.append(("two-opposite-same-span", _formula(
        "uvw",
        ([("u", 0), ("v", 0), ("w", 0)], "above"),
        ([("u", 1), ("v", 1), ("w", 1)], "below"))))
    out.append(("two-nested-above", _formula(
        "uvwx",
        ([("u", 0), ("v", 1), ("x", 0)], "above"),
        ([("v", 0), ("w", 0), ("x", 1)], "above"))))
    out.append(("two-opposite-shifted", _formula(
        "uvwx",
        ([("u", 0), ("v", 0), ("w", 0)], "above"),
        ([("v", 1), ("w", 0), ("x", 0)], "below"))))
    out.append(("two-opposite-unsat", _formula(
        "uvwx",
        ([("u", 0), ("v", 0), ("w", 1)], "above"),
        ([("u", 1), ("v", 1), ("w", 0)], "below"))))
    return out
