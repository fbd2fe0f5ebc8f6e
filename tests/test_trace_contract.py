"""The contract between the package and the benchmark's span tracer
(`perfbench/spans.py`): every traced stage still exists under its name,
tracing leaves the answers unchanged, and every count hook fires.  The
tracer is imported read-only from `perfbench/`."""
import sys
from pathlib import Path

import rectmatch.matching as matching
from rectmatch.gadgets import compile_planar_1in3, formula_from_dict, random_instance

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402


def test_every_stage_resolves_in_its_module():
    for fname, (module, _, _) in spans.STAGES.items():
        assert callable(getattr(module, fname, None)), (module.__name__, fname)


def test_traced_run_keeps_the_pairs_and_fires_every_hook(monkeypatch):
    fired = set()
    for fname, (module, span, hook) in list(spans.STAGES.items()):
        if hook is not None:
            def counted(tracer, parent, args, out, hook=hook, fname=fname):
                fired.add(fname)
                hook(tracer, parent, args, out)
            monkeypatch.setitem(spans.STAGES, fname, (module, span, counted))

    s = random_instance(60, 240, 0.5, seed=1)
    small = random_instance(12, 48, 0.5, seed=1)

    def solve():
        # Through the module, as the benchmark calls them, so that the
        # instrumented bindings are the ones called.
        return (matching.approx_mmrm(s).matching.pairs,
                matching.approx_mbrm(s).matching.pairs,
                matching.brute_force_max_matching(small, matching.MatchMode.BI).pairs)

    untraced = solve()
    tracer = spans.Tracer()
    with tracer.instrument():
        traced = solve()
    assert traced == untraced

    hooked = {n for n, (_, _, hook) in spans.STAGES.items() if hook is not None}
    # `decide_perfect` shares its hook with the max oracle, which ran.
    assert fired == hooked - {"decide_perfect"}
    assert tracer.counts["independent_set.piercing_arcs"] > 0
    assert tracer.counts["independent_set.antichain_size"] > 0
    assert tracer.counts["matching.oracle.mode_pairs"] > 0
    names = {span[0] for span in tracer.spans}
    assert "independent_set.piercing_order" in names


def test_traced_decide_on_a_compiled_formula(monkeypatch):
    """`decide_perfect` on a compiled formula runs the indexed search; traced,
    it gives the untraced answer and fires the oracle's count hook."""
    fired = []
    module, span, hook = spans.STAGES["decide_perfect"]

    def counted(tracer, parent, args, out):
        fired.append(out)
        hook(tracer, parent, args, out)
    monkeypatch.setitem(spans.STAGES, "decide_perfect", (module, span, counted))

    f = formula_from_dict({
        "variables": ["u", "v", "w"],
        "clauses": [{"literals": [{"var": v, "neg": False} for v in "uvw"]}],
    })
    s = compile_planar_1in3(f).points
    assert len(s) // 2 > matching._INDEX_FROM

    def decide():
        return matching.decide_perfect(s, matching.MatchMode.MONO, max_points=len(s))

    untraced = decide()
    tracer = spans.Tracer()
    with tracer.instrument():
        traced = decide()
    assert traced == untraced
    assert fired == [untraced]
    assert tracer.counts["matching.oracle.mode_pairs"] > 0
