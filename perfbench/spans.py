"""Span tracing from outside the package.

While `Tracer.instrument()` is active, the package's stage functions are
replaced, in every module that binds them, by wrappers that record a span
(name, start, end, parent, op id) and a few counts read off the result.
The package itself is not changed; nested calls, such as the intersection
kinds computed inside corner elimination, get their own child spans, so
each stage's self time excludes its children.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import rectmatch.geometry as geometry
import rectmatch.independent_set as independent_set
import rectmatch.matching as matching

MODULES = (geometry, independent_set, matching)
DISJOINT = geometry.IntersectionKind.DISJOINT
CORNER = geometry.IntersectionKind.CORNER


def _count_empty_pairs(tracer, parent, args, out):
    tracer.count("geometry.empty_pairs", len(out))
    tracer.last_empty_pairs = (args[0], out)


def _count_kinds(tracer, parent, args, out):
    kinds = Counter(out.values())
    tracer.count("independent_set.pairs_classified", len(out))
    tracer.count("independent_set.pairs_intersecting", len(out) - kinds[DISJOINT])
    # Corner elimination classifies its family once for the completeness
    # check and once directly; the direct call is the one it eliminates from.
    if parent == "independent_set.corner_elimination":
        tracer.count("independent_set.corner_pairs", kinds[CORNER])


def _count_oracle(tracer, parent, args, out):
    s, mode = args[0], args[1]
    seen = tracer.last_empty_pairs
    if seen is not None and seen[0] is s:
        same = mode is matching.MatchMode.MONO
        tracer.count("matching.oracle.mode_pairs", sum(
            1 for i, j in seen[1] if (s[i].color is s[j].color) == same))


def _count(metric, measure=len):
    return lambda tracer, parent, args, out: tracer.count(metric, measure(out))


def _count_dropped(tracer, parent, args, out):
    tracer.count("independent_set.rects_dropped", len(args[0]) - len(out))


# function name -> (defining module, span name, count hook or None)
STAGES = {
    "empty_pairs": (geometry, "geometry.empty_pairs", _count_empty_pairs),
    "candidate_monochromatic": (geometry, "geometry.candidates",
                                _count("geometry.candidates")),
    "candidate_bichromatic": (geometry, "geometry.candidates",
                              _count("geometry.candidates")),
    "pairwise_kinds": (independent_set, "independent_set.pairwise_kinds", _count_kinds),
    "complete_witness": (independent_set, "independent_set.verify_complete", None),
    "corner_elimination": (independent_set, "independent_set.corner_elimination",
                           _count_dropped),
    "piercing_order": (independent_set, "independent_set.piercing_order",
                       _count("independent_set.piercing_arcs", lambda d: len(d.arcs))),
    "max_antichain": (independent_set, "independent_set.max_antichain",
                      _count("independent_set.antichain_size", lambda a: len(a.members))),
    "build_graph": (independent_set, "independent_set.build_graph",
                    _count("independent_set.contact_edges", lambda g: len(g.edges))),
    "forest_two_color": (independent_set, "independent_set.forest_two_color", None),
    "split_families_mono": (matching, "matching.split",
                            _count("matching.family_rects", lambda fs: sum(map(len, fs)))),
    "split_families_bi": (matching, "matching.split",
                          _count("matching.family_rects", lambda fs: sum(map(len, fs)))),
    "brute_force_max_matching": (matching, "matching.oracle", _count_oracle),
    "decide_perfect": (matching, "matching.oracle", _count_oracle),
    "verify_matching": (matching, "matching.verify", None),
}


class Tracer:
    """Spans and counts of one run, kept in memory until `write`."""

    def __init__(self):
        # Each span: [name, start, end, parent index, op id, child time].
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | str | None = None
        self.last_empty_pairs = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, perf_counter(), None, parent, self.op, 0.0]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield self
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent][5] += rec[2] - rec[1]

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            parent = self.spans[self._stack[-1]][0] if self._stack else None
            with self.span(name):
                out = fn(*args, **kwargs)
            if hook is not None:
                # Counting is tracing work: give it its own span so the
                # enclosing stage's self time does not include it.
                with self.span("trace.count"):
                    hook(self, parent, args, out)
            return out
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def instrument(self, names=None):
        """Replace the named stage functions (default: all but the verifier)
        in every package module that binds them; restore them on exit."""
        if names is None:
            names = [n for n in STAGES if n != "verify_matching"]
        wrappers = {}
        for fname in names:
            # A stage missing from its module is an error, not a zero.
            module, span, hook = STAGES[fname]
            fn = getattr(module, fname)
            wrappers[id(fn)] = self._wrap(fn, span, hook)
        saved = []
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, w)
        try:
            yield self
        finally:
            for mod, attr, value in saved:
                setattr(mod, attr, value)

    def self_times(self, spans=None) -> dict[str, float]:
        """Self time summed per span name: duration minus child spans."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _, child in (spans if spans is not None else self.spans):
            out[name] += (end - start) - child
        return out

    def write(self, path: Path, ops: list[str]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["name", "start", "end", "parent", "op", "child_s"],
            "ops": ops,
            "self_s": dict(sorted(self.self_times().items())),
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

