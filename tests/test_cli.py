import json
import random
from fractions import Fraction

import pytest

from rectmatch.cli import main
from rectmatch.gadgets import compile_planar_1in3, formula_from_dict, sidecar_to_json
from rectmatch.geometry import PointSet, dump_points, load_points
from rectmatch.svg_render import render_svg


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_random_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.pts", tmp_path / "b.pts"
        assert run(capsys, "gen", "--random", "8", "10", "0.5", "--seed", "3",
                   "--out", str(a))[0] == 0
        assert run(capsys, "gen", "--random", "8", "10", "0.5", "--seed", "3",
                   "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_blocking(self, tmp_path, capsys):
        out = tmp_path / "blocking.pts"
        assert run(capsys, "gen", "--blocking", "--out", str(out))[0] == 0
        assert len(load_points(out)) == 12

    def test_variable_with_sidecar(self, tmp_path, capsys):
        out, side = tmp_path / "v.pts", tmp_path / "v.json"
        code, _, _ = run(capsys, "gen", "--variable", "1",
                         "--out", str(out), "--sidecar", str(side))
        assert code == 0
        meta = json.loads(side.read_text())
        assert meta["provenance"]["blueCount"] == 10
        assert len(meta["allowedSegments"]) == 10

    @pytest.mark.parametrize("signs, side", [("+,+,-", "above"), ("-,-,-", "below")])
    def test_clause_with_sidecar(self, tmp_path, capsys, signs, side):
        out, sidecar = tmp_path / "c.pts", tmp_path / "c.json"
        below = ["--below"] if side == "below" else []
        code, _, _ = run(capsys, "gen", f"--clause={signs}", *below,
                         "--out", str(out), "--sidecar", str(sidecar))
        assert code == 0
        g = compile_planar_1in3(formula_from_dict({
            "variables": ["u", "v", "w"],
            "clauses": [{"literals": [{"var": v, "neg": t == "-"}
                                      for v, t in zip("uvw", signs.split(","))],
                         "side": side}],
        }))
        assert out.read_text() == dump_points(g.points)
        assert sidecar.read_text() == sidecar_to_json(g)

    def test_missing_choice(self, capsys):
        assert run(capsys, "gen")[0] == 2

    @pytest.mark.parametrize("n, grid, message", [
        ("-3", "4", "error: n must be non-negative, got -3"),
        ("1", "-2", "error: grid_n must be non-negative, got -2"),
    ])
    def test_random_negative_size_rejected(self, tmp_path, capsys, n, grid, message):
        code, _, err = run(capsys, "gen", "--random", n, grid, "0.5",
                           "--out", str(tmp_path / "p.pts"))
        assert code == 1
        assert err.strip() == message

    @pytest.mark.parametrize("n, grid, red", [("x", "10", "0.5"), ("10", "1.5", "0.5"),
                                              ("10", "10", "half")])
    def test_random_non_numeric_rejected(self, capsys, n, grid, red):
        code, out, err = run(capsys, "gen", "--random", n, grid, red)
        assert code == 2
        assert out == "" and "--random" in err and "N GRID REDFRAC" in err

    def test_bad_clause_signs(self, capsys):
        code, out, err = run(capsys, "gen", "--clause", "+,+")
        assert code == 2
        assert out == "" and "--clause" in err and "+,+,-" in err


class TestSolveVerifyOracle:
    @pytest.fixture
    def instance(self, tmp_path, capsys):
        path = tmp_path / "inst.pts"
        run(capsys, "gen", "--random", "10", "12", "0.5", "--seed", "11",
            "--out", str(path))
        return path

    def test_solve_bi_small(self, tmp_path, capsys):
        pts = tmp_path / "two.pts"
        pts.write_text("0 0 R\n1 1 B\n")
        code, out, _ = run(capsys, "solve", str(pts), "--mode", "bi")
        assert code == 0
        data = json.loads(out)
        assert data["size"] == 1
        assert data["mode"] == "bichromatic"

    def test_solve_verify_round_trip(self, instance, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "solve", str(instance), "--mode", "mono",
                         "--with-oracle", "--out", str(report_path))
        assert code == 0
        data = json.loads(report_path.read_text())
        assert data["optimal"] is not None
        code, out, _ = run(capsys, "verify", str(instance),
                           "--matching", str(report_path))
        assert code == 0
        assert "pass" in out

    def test_solve_oracle_skipped_above_guard(self, tmp_path, capsys):
        pts = tmp_path / "big.pts"
        pts.write_text("".join(f"{i} {i} B\n" for i in range(20)))
        code, out, err = run(capsys, "solve", str(pts), "--mode", "mono",
                             "--with-oracle")
        assert code == 0
        assert err.startswith("oracle skipped: 20 points exceeds")
        assert json.loads(out)["optimal"] is None

    def test_verify_bad_matching(self, tmp_path, capsys):
        pts = tmp_path / "p.pts"
        pts.write_text("0 0 B\n3 3 B\n1 1 B\n2 2 B\n")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "mode": "monochromatic", "pairs": [[0, 3], [1, 2]],
        }))
        code, out, _ = run(capsys, "verify", str(pts), "--matching", str(bad))
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("pair", [[0, 5], [-1, 1]])
    def test_verify_out_of_range_pair_not_perfect(self, tmp_path, capsys, pair):
        pts = tmp_path / "p.pts"
        pts.write_text("0 0 R\n1 1 R\n")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mode": "monochromatic", "pairs": [pair]}))
        code, out, _ = run(capsys, "verify", str(pts), "--matching", str(bad))
        assert code == 1
        assert out.splitlines()[-1] == "perfect: no"

    def test_solve_bad_coordinate(self, tmp_path, capsys):
        pts = tmp_path / "bad.pts"
        pts.write_text("0 0 R\n1/0 2 B\n")
        code, out, err = run(capsys, "solve", str(pts), "--mode", "bi")
        assert code == 1
        assert out == "" and err.startswith("error: line 2:") and "1/0" in err

    def test_solve_out_of_memory(self, tmp_path, capsys, monkeypatch):
        """A solve that runs out of memory, as the bichromatized two-clause
        formulas do, exits 1 with one `error:` line and no traceback."""
        def exhausted(s):
            raise MemoryError

        monkeypatch.setattr("rectmatch.cli.approx_mmrm", exhausted)
        pts = tmp_path / "two.pts"
        pts.write_text("0 0 R\n1 1 R\n")
        code, out, err = run(capsys, "solve", str(pts), "--mode", "mono")
        assert code == 1
        assert out == "" and err.startswith("error: out of memory")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_verify_matching_without_mode(self, tmp_path, capsys):
        pts = tmp_path / "p.pts"
        pts.write_text("0 0 B\n1 1 B\n")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"pairs": [[0, 1]]}))
        code, _, err = run(capsys, "verify", str(pts), "--matching", str(bad))
        assert code == 1
        assert err.startswith("error:") and "'mode'" in err

    @pytest.mark.parametrize("doc, field", [
        ({"mode": "monochromatic", "pairs": 5}, "'pairs'"),
        ([[0, 1]], "matching must be a JSON object"),
        ({"mode": "foo", "pairs": [[0, 1]]},
         "key 'mode' must be 'monochromatic' or 'bichromatic', got 'foo'"),
        ({"mode": "monochromatic", "pairs": [[0, 0]]},
         "pair [0, 0] repeats point 0"),
    ], ids=["pairs-not-a-list", "document-not-an-object", "unknown-mode",
            "self-pair"])
    def test_verify_malformed_matching(self, tmp_path, capsys, doc, field):
        pts = tmp_path / "p.pts"
        pts.write_text("0 0 B\n1 1 B\n")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", str(pts), "--matching", str(bad))
        assert code == 1
        assert err.startswith("error:") and field in err
        assert len(err.splitlines()) == 1

    def test_oracle_perfect_blocking(self, tmp_path, capsys):
        out = tmp_path / "blocking.pts"
        run(capsys, "gen", "--blocking", "--out", str(out))
        code, text, _ = run(capsys, "oracle", str(out), "--mode", "mono",
                            "--perfect")
        assert code == 0
        assert text.strip() == "true"

    def test_oracle_imperfect_exits_1(self, tmp_path, capsys):
        pts = tmp_path / "odd.pts"
        pts.write_text("0 0 B\n1 1 B\n2 2 B\n")
        code, text, _ = run(capsys, "oracle", str(pts), "--mode", "mono",
                            "--perfect")
        assert code == 1
        assert text == "false\n"

    def test_oracle_perfect_writes_out(self, tmp_path, capsys):
        pts, ans = tmp_path / "blocking.pts", tmp_path / "ans.txt"
        run(capsys, "gen", "--blocking", "--out", str(pts))
        code, text, _ = run(capsys, "oracle", str(pts), "--mode", "mono",
                            "--perfect", "--out", str(ans))
        assert code == 0
        assert text == "" and ans.read_text() == "true\n"

    @pytest.mark.parametrize("verb", ["verify", "render"])
    def test_deeply_nested_matching(self, tmp_path, capsys, verb):
        pts = tmp_path / "p.pts"
        pts.write_text("0 0 B\n1 1 B\n")
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        code, _, err = run(capsys, verb, str(pts), "--matching", str(deep))
        assert code == 1
        assert err == f"error: {deep}: JSON nested too deeply\n"

    def test_nested_pair_is_a_short_error(self, tmp_path, capsys):
        """A `pairs` entry nested 900 deep parses, and its error line echoes
        a capped repr of it, not all 1,800 brackets."""
        pts = tmp_path / "p.pts"
        pts.write_text("0 0 B\n1 1 B\n")
        bad = tmp_path / "bad.json"
        bad.write_text('{"mode": "monochromatic", "pairs": ['
                       + "[" * 900 + "]" * 900 + "]}")
        code, _, err = run(capsys, "verify", str(pts), "--matching", str(bad))
        assert code == 1
        assert err.startswith("error: matching key 'pairs' must hold [i, j] pairs")
        assert len(err.splitlines()) == 1 and len(err) <= 200

    def test_oracle_guard_refusal(self, tmp_path, capsys):
        pts = tmp_path / "big.pts"
        pts.write_text("".join(f"{i} {i} B\n" for i in range(20)))
        code, _, err = run(capsys, "oracle", str(pts), "--mode", "mono")
        assert code == 1
        assert "refused" in err

    def test_oracle_guard_flag(self, tmp_path, capsys):
        pts = tmp_path / "big.pts"
        pts.write_text("".join(f"{i} {i} B\n" for i in range(20)))
        code, out, _ = run(capsys, "oracle", str(pts), "--mode", "mono",
                           "--guard", "24")
        assert code == 0
        assert json.loads(out)["size"] == 10


class TestCompileSat:
    def test_compile(self, tmp_path, capsys):
        formula = tmp_path / "f.json"
        formula.write_text(json.dumps({
            "variables": ["u", "v", "w"],
            "clauses": [{
                "literals": [
                    {"var": "u", "neg": False},
                    {"var": "v", "neg": False},
                    {"var": "w", "neg": False},
                ],
                "side": "above",
            }],
        }))
        pts, side = tmp_path / "inst.pts", tmp_path / "inst.json"
        code, _, err = run(capsys, "compile-sat", "--formula", str(formula),
                           "--out", str(pts), "--sidecar", str(side))
        assert code == 0
        assert "grid N" in err
        s = load_points(pts)
        meta = json.loads(side.read_text())
        assert meta["provenance"]["blueCount"] == 48
        assert len(s) > 1000


    def test_formula_without_clauses(self, tmp_path, capsys):
        formula = tmp_path / "f.json"
        formula.write_text(json.dumps({"variables": ["u"]}))
        pts, side = tmp_path / "inst.pts", tmp_path / "inst.json"
        code, _, err = run(capsys, "compile-sat", "--formula", str(formula),
                           "--out", str(pts), "--sidecar", str(side))
        assert code == 1
        assert err.startswith("error:") and "'clauses'" in err
        assert not pts.exists()

    def test_deeply_nested_formula(self, tmp_path, capsys):
        formula = tmp_path / "f.json"
        formula.write_text('{"variables": ["u"], "clauses": '
                           + "[" * 100000 + "]" * 100000 + "}")
        pts, side = tmp_path / "inst.pts", tmp_path / "inst.json"
        code, _, err = run(capsys, "compile-sat", "--formula", str(formula),
                           "--out", str(pts), "--sidecar", str(side))
        assert code == 1
        assert err == f"error: {formula}: JSON nested too deeply\n"
        assert not pts.exists()

    def test_nested_variable_is_a_short_error(self, tmp_path, capsys):
        """A variable nested 900 deep parses, and its error line echoes a
        capped repr of it, not all 1,800 brackets."""
        formula = tmp_path / "f.json"
        formula.write_text('{"variables": [' + "[" * 900 + "]" * 900
                           + '], "clauses": []}')
        pts, side = tmp_path / "inst.pts", tmp_path / "inst.json"
        code, _, err = run(capsys, "compile-sat", "--formula", str(formula),
                           "--out", str(pts), "--sidecar", str(side))
        assert code == 1
        assert err.startswith("error: formula key 'variables' must hold names")
        assert len(err.splitlines()) == 1 and len(err) <= 200
        assert not pts.exists()

    def test_formula_with_string_literals(self, tmp_path, capsys):
        formula = tmp_path / "f.json"
        formula.write_text(json.dumps({
            "variables": ["u", "v", "w"],
            "clauses": [{"literals": ["u", "v", "w"]}],
        }))
        pts, side = tmp_path / "inst.pts", tmp_path / "inst.json"
        code, _, err = run(capsys, "compile-sat", "--formula", str(formula),
                           "--out", str(pts), "--sidecar", str(side))
        assert code == 1
        assert err.startswith("error:") and "clauses[0].literals[0]" in err
        assert len(err.splitlines()) == 1
        assert not pts.exists()


class TestBench:
    def test_csv_schema_and_ratio(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, _, _ = run(capsys, "bench", "--trials", "5", "--n", "8",
                         "--seed", "100", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "seed,n,mode,candidates,approx,opt,ratio"
        assert len(lines) == 1 + 5 * 2
        for line in lines[1:]:
            parts = line.split(",")
            if parts[5] and int(parts[5]) > 0:
                assert float(parts[6]) >= 0.25

    def test_guard_zero_leaves_oracle_columns_blank(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, _, _ = run(capsys, "bench", "--trials", "1", "--n", "8",
                         "--guard", "0", "--out", str(out))
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            assert row.split(",")[5:] == ["", ""]

    def test_negative_n_rejected(self, tmp_path, capsys):
        code, _, err = run(capsys, "bench", "--n", "-1", "--trials", "1",
                           "--out", str(tmp_path / "bench.csv"))
        assert code == 1
        assert err.strip() == "error: n must be non-negative, got -1"

    def test_negative_trials_rejected(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, _, err = run(capsys, "bench", "--trials", "-1", "--n", "8",
                           "--out", str(out))
        assert code == 2
        assert err.startswith("bench: --trials") and not out.exists()

    def test_zero_trials_writes_the_header(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, _, _ = run(capsys, "bench", "--trials", "0", "--n", "8",
                         "--out", str(out))
        assert code == 0
        assert out.read_text().splitlines() == ["seed,n,mode,candidates,approx,opt,ratio"]

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "bench", "--trials", "3", "--n", "7", "--seed", "5",
            "--out", str(a))
        run(capsys, "bench", "--trials", "3", "--n", "7", "--seed", "5",
            "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestRender:
    def test_well_formed_svg(self, tmp_path, capsys):
        pts = tmp_path / "p.pts"
        pts.write_text("0 0 R\n2 3 B\n5 1 B\n")
        out = tmp_path / "p.svg"
        code, _, _ = run(capsys, "render", str(pts), "--out", str(out))
        assert code == 0
        import xml.etree.ElementTree as ET

        text = out.read_text()
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        assert len(root.findall(".//{http://www.w3.org/2000/svg}circle")) == 3
        assert "y axis flipped" in text

    def test_with_matching(self, tmp_path, capsys):
        pts = tmp_path / "p.pts"
        pts.write_text("0 0 R\n1 1 B\n")
        rep = tmp_path / "rep.json"
        run(capsys, "solve", str(pts), "--mode", "bi", "--out", str(rep))
        out = tmp_path / "p.svg"
        code, _, _ = run(capsys, "render", str(pts), "--matching", str(rep),
                         "--out", str(out))
        assert code == 0
        assert "rect" in out.read_text()

    @pytest.mark.parametrize("triples", [
        [(0, 0, "R")],
        [(x, 3, "B") for x in range(5)],
        [(Fraction(1, 3), y, "R") for y in range(4)],
        [(0, 0, "B"), (10, 10, "R")],
        [(x, y, "RB"[x % 2]) for x, y in zip(random.Random(3).sample(range(50), 30),
                                             random.Random(4).sample(range(50), 30))],
    ], ids=["one-point", "row", "column", "diagonal", "random"])
    def test_every_dot_inside_the_view_box(self, triples):
        """A pad surrounds the points on every side, and no dot is wider
        than the pad, so each `<circle>` lies inside the `viewBox`, the
        lowest and the highest row included.  The attributes are written
        to two decimals, so each may be off by half a hundredth."""
        import xml.etree.ElementTree as ET

        root = ET.fromstring(render_svg(PointSet.from_tuples(triples)))
        _, _, width, height = map(float, root.get("viewBox").split())
        circles = root.findall("{http://www.w3.org/2000/svg}circle")
        assert len(circles) == len(triples)
        for c in circles:
            cx, cy, r = (float(c.get(k)) for k in ("cx", "cy", "r"))
            assert -0.01 <= cx - r and cx + r <= width + 0.01
            assert -0.01 <= cy - r and cy + r <= height + 0.01

    def test_empty_set(self):
        import xml.etree.ElementTree as ET

        root = ET.fromstring(render_svg(PointSet(())))
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert root.findall(".//{http://www.w3.org/2000/svg}circle") == []

    def test_rects_drawn_at_exact_coordinates(self, tmp_path, capsys):
        """Rational points with a red-red, a mixed and a blue-blue segment
        rectangle: each `<rect>` sits at its two points' exact coordinates,
        a segment is drawn one pixel thick, and the stroke is the points'
        color, purple when they differ."""
        pts = tmp_path / "p.pts"
        pts.write_text("0 0 R\n3/2 5/2 R\n7/2 1/3 B\n5 9/4 R\n1/2 4 B\n3 4 B\n")
        rep = tmp_path / "m.json"
        rep.write_text(json.dumps(
            {"mode": "monochromatic", "pairs": [[1, 0], [2, 3], [5, 4]]}))
        out = tmp_path / "p.svg"
        code, _, _ = run(capsys, "render", str(pts), "--matching", str(rep),
                         "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert text.startswith(
            '<svg xmlns="http://www.w3.org/2000/svg" width="640" '
            'height="523.64" viewBox="0 0 640 523.64">')
        rects = [line.split(" />")[0] for line in text.split("<rect ")[1:]]
        assert rects == [
            'x="29.09" y="203.64" width="174.55" height="290.91" fill="none" '
            'stroke="#c0392b" stroke-width="1.5"',
            'x="436.36" y="232.73" width="174.55" height="223.03" fill="none" '
            'stroke="#7d3c98" stroke-width="1.5"',
            'x="87.27" y="29.09" width="290.91" height="1.00" fill="none" '
            'stroke="#2962a8" stroke-width="1.5"',
        ]
