"""Command-line front end.

Verbs: gen, solve, verify, oracle, compile-sat, bench, render.  Exit codes:
0 success, 1 domain failure (failed verification, imperfect when deciding,
a bad input or a run out of memory, each reported on one `error:` line),
2 usage error.  Output is deterministic for fixed inputs and seeds.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from rectmatch import gadgets
from rectmatch.errors import ContractError, GuardError
from rectmatch.geometry import load_points, dump_points
from rectmatch.matching import (
    MatchMode,
    approx_mbrm,
    approx_mmrm,
    brute_force_max_matching,
    decide_perfect,
    matching_from_dict,
    matching_to_dict,
    report_to_json,
    verify_matching,
    with_oracle,
)
from rectmatch.svg_render import render_svg


def _mode(text: str) -> MatchMode:
    return MatchMode.MONO if text == "mono" else MatchMode.BI


def _approx(s, mode: MatchMode):
    return approx_mmrm(s) if mode is MatchMode.MONO else approx_mbrm(s)


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_gen(args) -> int:
    sidecar = None
    if args.random is not None:
        n, grid, red_fraction = args.random
        try:
            n, grid, red_fraction = int(n), int(grid), float(red_fraction)
        except ValueError:
            print("gen: --random takes N GRID REDFRAC: two integers and a "
                  "number, e.g. 10 40 0.5", file=sys.stderr)
            return 2
        s = gadgets.random_instance(n, grid, red_fraction, args.seed)
    elif args.blocking:
        s = gadgets.blocking_gadget()
    elif args.variable is not None:
        pts, segs = gadgets.variable_gadget(args.variable)
        g = gadgets.build_gadget(
            pts, segs, {"recipe": "variable", "degree": args.variable}
        )
        s = g.points
        sidecar = gadgets.sidecar_to_json(g)
    elif args.clause is not None:
        signs = args.clause.split(",")
        if len(signs) != 3 or any(t not in ("+", "-") for t in signs):
            print("gen: --clause takes three comma-separated signs, "
                  "each + or -, e.g. +,+,-", file=sys.stderr)
            return 2
        names = ["u", "v", "w"]
        f = gadgets.Formula(
            tuple(names),
            (gadgets.Clause(
                tuple(gadgets.Literal(v, t == "-") for v, t in zip(names, signs)),
                "below" if args.below else "above",
            ),),
        )
        g = gadgets.compile_planar_1in3(f)
        s = g.points
        sidecar = gadgets.sidecar_to_json(g)
    else:
        print("gen: choose one of --random/--blocking/--variable/--clause",
              file=sys.stderr)
        return 2
    _write(args.out, dump_points(s))
    if sidecar is not None and args.sidecar:
        _write(args.sidecar, sidecar)
    return 0


def cmd_solve(args) -> int:
    s = load_points(args.points)
    report = _approx(s, _mode(args.mode))
    if args.with_oracle:
        try:
            with_oracle(s, report, guard=args.guard)
        except GuardError as e:
            print(f"oracle skipped: {e}", file=sys.stderr)
    _write(args.out, report_to_json(report))
    return 0


def _load_json(path: str):
    """The JSON document in the file at `path`; one nested too deeply for
    the parser raises a ValueError that names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def cmd_verify(args) -> int:
    s = load_points(args.points)
    report = verify_matching(s, matching_from_dict(_load_json(args.matching)))
    print(report)
    return 0 if report.ok else 1


def cmd_oracle(args) -> int:
    s = load_points(args.points)
    mode = _mode(args.mode)
    try:
        if args.perfect:
            ok = decide_perfect(s, mode, max_points=args.guard)
            _write(args.out, "true\n" if ok else "false\n")
            return 0 if ok else 1
        m = brute_force_max_matching(s, mode, max_points=args.guard)
    except GuardError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 1
    _write(args.out, json.dumps(matching_to_dict(m, "brute_force"), indent=2) + "\n")
    return 0


def cmd_compile_sat(args) -> int:
    f = gadgets.formula_from_dict(_load_json(args.formula))
    g = gadgets.compile_planar_1in3(f)
    _write(args.out, dump_points(g.points))
    _write(args.sidecar, gadgets.sidecar_to_json(g))
    print(f"grid N = {g.provenance['gridN']}, points = {len(g.points)}",
          file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    if args.trials < 0:
        print(f"bench: --trials takes a count of 0 or more, got {args.trials}",
              file=sys.stderr)
        return 2
    modes = [args.mode] if args.mode in ("mono", "bi") else ["mono", "bi"]
    rows = []
    for t in range(args.trials):
        seed = args.seed + t
        s = gadgets.random_instance(args.n, args.grid, args.red_fraction, seed)
        for mode_name in modes:
            report = _approx(s, _mode(mode_name))
            try:
                with_oracle(s, report, guard=args.guard)
            except GuardError:
                pass
            # csv writes None as an empty field, so a refused oracle leaves
            # `opt` blank, as it leaves `ratio`.
            rows.append([
                seed, len(s), mode_name, report.candidate_count,
                len(report.matching), report.optimal_size,
                "" if report.ratio is None else f"{float(report.ratio):.4f}",
            ])
    rows.sort(key=lambda r: (r[0], r[2]))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["seed", "n", "mode", "candidates", "approx", "opt", "ratio"])
    writer.writerows(rows)
    _write(args.out, buf.getvalue())
    return 0


def cmd_render(args) -> int:
    s = load_points(args.points)
    matching = matching_from_dict(_load_json(args.matching)) if args.matching else None
    _write(args.out, render_svg(s, matching))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rectmatch",
        description="Strong rectangle matchings of two-colored point sets",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("gen", help="generate an instance point file")
    g.add_argument("--random", nargs=3, metavar=("N", "GRID", "REDFRAC"))
    g.add_argument("--blocking", action="store_true")
    g.add_argument("--variable", type=int, metavar="DEGREE")
    g.add_argument("--clause", metavar="SIGNS", help="e.g. +,+,- for (u v not-w)")
    g.add_argument("--below", action="store_true")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="-")
    g.add_argument("--sidecar")
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="run the 1/4-approximation")
    s.add_argument("points")
    s.add_argument("--mode", choices=("mono", "bi"), required=True)
    s.add_argument("--with-oracle", action="store_true")
    s.add_argument("--guard", type=int)
    s.add_argument("--out", default="-")
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify", help="check a matching file against a point file")
    v.add_argument("points")
    v.add_argument("--matching", required=True)
    v.set_defaults(func=cmd_verify)

    o = sub.add_parser("oracle", help="exact brute-force matching")
    o.add_argument("points")
    o.add_argument("--mode", choices=("mono", "bi"), required=True)
    o.add_argument("--perfect", action="store_true")
    o.add_argument("--guard", type=int)
    o.add_argument("--out", default="-")
    o.set_defaults(func=cmd_oracle)

    c = sub.add_parser("compile-sat", help="compile a formula JSON to an instance")
    c.add_argument("--formula", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--sidecar", required=True)
    c.set_defaults(func=cmd_compile_sat)

    b = sub.add_parser("bench", help="random-instance approximation benchmark")
    b.add_argument("--trials", type=int, required=True)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--grid", type=int, default=20)
    b.add_argument("--red-fraction", type=float, default=0.5)
    b.add_argument("--mode", choices=("mono", "bi", "both"), default="both")
    b.add_argument("--guard", type=int)
    b.add_argument("--out", default="-")
    b.set_defaults(func=cmd_bench)

    r = sub.add_parser("render", help="emit an SVG drawing")
    r.add_argument("points")
    r.add_argument("--matching")
    r.add_argument("--out", default="-")
    r.set_defaults(func=cmd_render)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ContractError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory: the input is too large for this command",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
