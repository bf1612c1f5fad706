"""Spans and counts recorded around calls into the semipolar modules.

The program itself is not edited: `instrument` replaces public functions and
methods of the already-imported `semipolar` modules with wrappers that record a
span (name, start, end, parent) or bump a counter at each call.  Spans of one
run share the tracer's `trace_id`, stay in memory as flat arrays and are
written out once, when the run ends.

Hot point-level calls (`Point` arithmetic, `Semiform.eval`, constructors) are
counted only: a span per call would cost more memory than the run itself.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from functools import cached_property


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def spanned(self, name: str, fn):
        """`fn` wrapped so every call records one span named `name` and adds
        one to the counter of the same name."""
        nid = self._name_id(name)
        counts = self.counts
        counts.setdefault(name, 0)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[name] += 1
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        """`fn` wrapped so every call adds one to the counter `name`."""
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span_table(self):
        """(names, name id per span, parent per span, start, end) as plain lists."""
        return (
            list(self.names),
            self.span_name.tolist(),
            self.span_parent.tolist(),
            self.span_start.tolist(),
            self.span_end.tolist(),
        )

    def write(self, path: str) -> None:
        """One JSON object; span times in integer microseconds from the first span."""
        names, nid, parent, start, end = self.span_table()
        t0 = start[0] if start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "trace_id": self.trace_id,
                    "names": names,
                    "spans": {
                        "name": nid,
                        "parent": parent,
                        "start_us": [round((t - t0) * 1e6) for t in start],
                        "end_us": [round((t - t0) * 1e6) for t in end],
                    },
                    "counts": self.counts,
                },
                fh,
                separators=(",", ":"),
            )


def span_times(names, nid, parent, start, end) -> dict[str, dict]:
    """Per span name: calls, total time and self time, in seconds.

    Total time sums only the outermost span of each name along a path, so a
    name nested in itself is not counted twice.  Self time is a span's duration
    minus the part of its interval that its direct children cover.
    """
    n = len(nid)
    children: list[list[int]] = [[] for _ in range(n)]
    for sid in range(n):
        if parent[sid] >= 0:
            children[parent[sid]].append(sid)
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    for sid in range(n):
        name = names[nid[sid]]
        rec = out[name]
        rec["calls"] += 1
        dur = end[sid] - start[sid]
        rec["self_s"] += dur - _covered(start[sid], end[sid], children[sid], start, end)
        anc = parent[sid]
        while anc >= 0 and nid[anc] != nid[sid]:
            anc = parent[anc]
        if anc < 0:
            rec["total_s"] += dur
    return out


def _covered(lo: float, hi: float, kids: list[int], start, end) -> float:
    """Length of the union of the child intervals, clipped to [lo, hi]."""
    covered = 0.0
    reach = lo
    for a, b in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
        if b <= reach:
            continue
        covered += b - max(a, reach)
        reach = b
    return covered


def _replace_function(orig, new) -> None:
    """Point every module-level reference to `orig` in the semipolar package at `new`."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "semipolar" or name.startswith("semipolar.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def instrument(tracer: Tracer) -> None:
    """Wrap the semipolar layers named in perfbench/README.md.

    Imports every semipolar module first, so module-level `from x import f`
    references are replaced as well as the defining module's attribute.
    """
    import semipolar.cli  # noqa: F401  (imports every layer)
    from semipolar import apsg, autos, cli, forms, gf, hyperbolic, linalg, metric, suites

    def span_function(module, attr: str, name: str) -> None:
        orig = getattr(module, attr)
        _replace_function(orig, tracer.spanned(name, orig))

    def count_function(module, attr: str, name: str) -> None:
        orig = getattr(module, attr)
        _replace_function(orig, tracer.counted(name, orig))

    # suites: one span per suite, through the registry that run_suite reads
    for name, fn in list(suites.SUITES.items()):
        suites.SUITES[name] = tracer.spanned(f"suite.{name}", fn)

    # apsg
    for meth in ("add", "sub", "scale", "neg"):
        setattr(apsg.Point, meth, tracer.counted("apsg.point_ops", getattr(apsg.Point, meth)))
    distinct_lines: set = set()
    line_init = apsg.AffLine.__init__

    def affline_init(self, *args, **kwargs):
        line_init(self, *args, **kwargs)
        distinct_lines.add((self.p, self.base, self.direction))
        tracer.counts["apsg.affline_distinct"] = len(distinct_lines)

    apsg.AffLine.__init__ = tracer.counted("apsg.affline_new", affline_init)
    tracer.counts.setdefault("apsg.affline_distinct", 0)
    _wrap_cached(tracer, apsg.SemipolarSpace, "singular_lines", "apsg.singular_lines")
    for meth, name in (
        ("maximal_singular_subspaces", "apsg.maximal_singular_subspaces"),
        ("zset", "apsg.zset"),
        ("is_affine_point_set", "apsg.is_affine_point_set"),
        ("neighborhood_intersection", "apsg.neighborhood_intersection"),
    ):
        setattr(apsg.SemipolarSpace, meth, tracer.spanned(name, getattr(apsg.SemipolarSpace, meth)))

    # forms
    span_function(forms, "verify_identities", "forms.verify_identities")
    span_function(forms, "check_semiform_axioms", "forms.check_semiform_axioms")
    table = tracer.spanned("forms.value_table", forms.Semiform.value_table)

    def value_table(self, *args, **kwargs):
        out = table(self, *args, **kwargs)
        tracer.add("forms.value_table_bytes", int(out.nbytes))
        return out

    forms.Semiform.value_table = value_table
    tracer.counts.setdefault("forms.value_table_bytes", 0)
    group_tables = forms.group_tables

    def counted_group_tables(*args, **kwargs):
        before = group_tables.cache_info().misses
        out = group_tables(*args, **kwargs)
        if group_tables.cache_info().misses > before:
            tracer.add("forms.group_tables_builds")
            tracer.add("forms.group_tables_bytes", sum(int(t.nbytes) for t in out))
        return out

    _replace_function(group_tables, counted_group_tables)
    tracer.counts.setdefault("forms.group_tables_builds", 0)
    tracer.counts.setdefault("forms.group_tables_bytes", 0)
    forms.Semiform.eval = tracer.counted("forms.eval_calls", forms.Semiform.eval)
    forms.AlternatingMap.eval = tracer.counted("forms.eval_calls", forms.AlternatingMap.eval)

    # linalg and gf
    span_function(linalg, "rref", "linalg.rref")
    span_function(linalg, "enumerate_subspaces", "linalg.enumerate_subspaces")
    linalg.Subspace.__new__ = staticmethod(
        tracer.counted("linalg.subspace_new", lambda cls, *a, **k: object.__new__(cls))
    )
    gf.GF.__init__ = tracer.counted("gf.field_new", gf.GF.__init__)

    # hyperbolic
    span_function(hyperbolic, "build_double", "hyperbolic.build")
    hyp = hyperbolic.HypPolarSpace
    hyp.lines = tracer.spanned("hyperbolic.lines", hyp.lines)
    maximal = tracer.spanned("hyperbolic.maximal_singulars", hyp.maximal_singulars)

    def maximal_singulars(self):
        # extension yield: maximals found per rref call the search spends
        before = tracer.counts["linalg.rref"]
        out = maximal(self)
        spent = tracer.counts["linalg.rref"] - before
        if spent:
            tracer.add("hyperbolic.maximal_found", len(out))
            tracer.add("hyperbolic.extension_rref_calls", spent)
        return out

    hyp.maximal_singulars = maximal_singulars
    tracer.counts.setdefault("hyperbolic.maximal_found", 0)
    tracer.counts.setdefault("hyperbolic.extension_rref_calls", 0)
    hyp.parity_classes = tracer.spanned("hyperbolic.parity_classes", hyp.parity_classes)
    span_function(hyperbolic, "reconstruct_deleted_subspace", "hyperbolic.reconstruct")

    # autos
    span_function(autos, "orbit_of", "autos.orbit_of")
    autos.PointMap.__init__ = tracer.counted("autos.point_map_new", autos.PointMap.__init__)

    # metric
    span_function(metric, "pair_report", "metric.pair_report")
    count_function(metric, "bisector_t", "metric.bisector_calls")
    count_function(metric, "bisector_m", "metric.bisector_calls")

    # cli: report writing, with the bytes the written report holds
    dump = tracer.spanned("cli.dump", cli._dump)

    def counted_dump(obj, path):
        dump(obj, path)
        if path:
            with open(path, "rb") as fh:
                tracer.add("cli.report_bytes", len(fh.read()))

    cli._dump = counted_dump
    tracer.counts.setdefault("cli.report_bytes", 0)


def _wrap_cached(tracer: Tracer, cls, attr: str, name: str) -> None:
    """Record a span for the first (computing) access of a cached_property."""
    prop = cls.__dict__[attr]
    wrapped = cached_property(tracer.spanned(name, prop.func))
    wrapped.__set_name__(cls, attr)
    setattr(cls, attr, wrapped)
