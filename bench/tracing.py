"""Per-layer tracing from outside the program.

`Tracer.install` replaces each traced function of orthograph with a wrapper,
on the defining module and on every orthograph module that imported the
name, so calls are caught where they are looked up.  Spans are
(name, start, end, parent) rows kept in memory and written once, at the end.
Counters that need no timing (field arithmetic, echelon inserts) only count.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, kind): "span" records a span; "count" only counts calls;
# "gen" times the steps of a generator and counts what it yields.
TRACED = [
    ("ortho", "find_orthogonal_rep", "span"),
    ("ortho", "has_local_rep", "span"),
    ("ortho", "local_orthogonality_dimension", "span"),
    ("ortho", "enumerate_orthogonal_reps", "gen"),
    ("ortho", "find_independent_rep", "span"),
    ("ortho", "rep_locality", "span"),
    ("ortho", "orthogonality_violations", "span"),
    ("ortho", "independence_violations", "span"),
    ("ortho", "orthogonality_dimension", "span"),
    ("ortho", "minrank", "span"),
    ("coloring", "locality_decision", "span"),
    ("coloring", "k_colorable", "span"),
    ("coloring", "max_clique", "span"),
    ("coloring", "chromatic_number", "span"),
    ("coloring", "local_chromatic_number", "span"),
    ("linalg", "EchelonBasis.add", "count"),
    ("linalg", "nullspace_basis", "span"),
    ("linalg", "solve_row", "span"),
    ("fields", "PrimeField.inner", "count"),
    ("fields", "PrimeField.mul", "count"),
    ("indexcoding", "representing_matrix", "span"),
    ("indexcoding", "build_code", "span"),
    ("indexcoding", "code_by_method", "span"),
    ("indexcoding", "compress_representation", "span"),
    ("indexcoding", "simulate", "span"),
    ("graphs", "complement", "span"),
    ("graphs", "read_dimacs", "span"),
    ("reduction", "build_g", "span"),
    ("reduction", "certify_gadget_lemma", "span"),
    ("cli", "main", "span"),
]

VERIFY = {"ortho.rep_locality", "ortho.orthogonality_violations", "ortho.independence_violations"}

# Metric name -> unit; reported for every workload, 0 where a layer is idle.
PER_LAYER = {
    "ortho.find_orthogonal_rep.calls": "count",
    "ortho.find_orthogonal_rep.refuted": "count",
    "ortho.find_orthogonal_rep.self_s": "s",
    "ortho.find_orthogonal_rep.refuted_s": "s",
    "ortho.has_local_rep.s": "s",
    "ortho.local_orthogonality_dimension.s": "s",
    "ortho.enumerate_orthogonal_reps.yielded": "count",
    "ortho.enumerate_orthogonal_reps.s": "s",
    "ortho.find_independent_rep.calls": "count",
    "ortho.find_independent_rep.refuted": "count",
    "ortho.find_independent_rep.self_s": "s",
    "ortho.verify_s": "s",
    "coloring.locality_decision.calls": "count",
    "coloring.locality_decision.refuted": "count",
    "coloring.locality_decision.self_s": "s",
    "coloring.k_colorable.calls": "count",
    "coloring.k_colorable.refuted": "count",
    "coloring.k_colorable.self_s": "s",
    "coloring.max_clique.calls": "count",
    "coloring.max_clique.s": "s",
    "linalg.EchelonBasis.add.calls": "count",
    "linalg.nullspace_basis.calls": "count",
    "linalg.nullspace_basis.s": "s",
    "linalg.solve_row.s": "s",
    "fields.PrimeField.inner.calls": "count",
    "fields.PrimeField.mul.calls": "count",
    "indexcoding.representing_matrix.s": "s",
    "indexcoding.build_code.s": "s",
    "indexcoding.compress_representation.attempts": "count",
    "indexcoding.compress_representation.s": "s",
    "indexcoding.simulate.s": "s",
    "indexcoding.decodes_per_s": "1/s",
    "graphs.complement.calls": "count",
    "graphs.complement.s": "s",
    "graphs.read_dimacs.s": "s",
    "reduction.build_g.s": "s",
    "reduction.certify_gadget_lemma.s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.gen_s: Counter = Counter()
        self.refuted: set[int] = set()  # span indices whose call returned None
        self.originals: list[tuple] = []
        self.t0 = time.perf_counter()

    # -- wrappers --------------------------------------------------------------

    def span(self, name: str, fn, args=(), kwargs=None):
        spans, stack = self.spans, self.stack
        idx = len(spans)
        row = [name, 0.0, 0.0, stack[-1] if stack else -1]
        spans.append(row)
        stack.append(idx)
        row[1] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            row[2] = time.perf_counter()
            stack.pop()
        if result is None:
            self.refuted.add(idx)
        elif name == "indexcoding.compress_representation":
            self.counts["indexcoding.compress_representation.attempts"] += result.attempts
        elif name == "indexcoding.simulate":
            self.counts["indexcoding.decodes"] += result.trials * args[0].n
        return result

    def _wrap(self, name: str, fn, kind: str):
        counts = self.counts
        if kind == "count":
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        elif kind == "gen":
            gen_s = self.gen_s

            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    start = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        gen_s[name] += time.perf_counter() - start
                        return
                    gen_s[name] += time.perf_counter() - start
                    counts[name + ".yielded"] += 1
                    yield item
        else:
            def wrapper(*args, **kwargs):
                return self.span(name, fn, args, kwargs)
        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap every traced name wherever an orthograph module holds it."""
        modules = {k: m for k, m in sys.modules.items() if k == "orthograph" or k.startswith("orthograph.")}
        for mod_name, attr, kind in TRACED:
            name = f"{mod_name}.{attr}"
            home = modules[f"orthograph.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self.originals.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, kind))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(name, orig, kind)
            for mod in modules.values():
                if getattr(mod, attr, None) is orig:
                    self.originals.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self.originals):
            setattr(owner, attr, orig)
        self.originals.clear()

    # -- per-pass figures --------------------------------------------------------

    def mark(self) -> tuple:
        return len(self.spans), Counter(self.counts), Counter(self.gen_s)

    def pass_figures(self, mark: tuple) -> dict:
        """Layer figures of the spans and counts recorded since `mark`."""
        first, counts0, gen0 = mark
        spans = self.spans
        counts = self.counts - counts0
        gen_s = self.gen_s - gen0
        n_calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        n_refuted: Counter = Counter()
        refuted_s: defaultdict = defaultdict(float)
        verify_s = 0.0
        for idx in range(first, len(spans)):
            name, start, end, parent = spans[idx]
            dur = end - start
            n_calls[name] += 1
            total[name] += dur
            self_s[name] += dur
            if parent >= 0:
                self_s[spans[parent][0]] -= dur
            if idx in self.refuted:
                n_refuted[name] += 1
                refuted_s[name] += dur
            if name in VERIFY:
                up = parent
                while up >= 0 and spans[up][0] not in VERIFY:
                    up = spans[up][3]
                if up < 0:
                    verify_s += dur
        simulate_s = total["indexcoding.simulate"]
        special = {
            "ortho.enumerate_orthogonal_reps.yielded": counts["ortho.enumerate_orthogonal_reps.yielded"],
            "ortho.enumerate_orthogonal_reps.s": gen_s["ortho.enumerate_orthogonal_reps"],
            "ortho.verify_s": verify_s,
            "indexcoding.compress_representation.attempts": counts["indexcoding.compress_representation.attempts"],
            "indexcoding.decodes_per_s": counts["indexcoding.decodes"] / simulate_s if simulate_s else 0.0,
            "cli.self_s": self_s["cli.main"],
        }
        out = {}
        for metric in PER_LAYER:
            layer, _, stat = metric.rpartition(".")
            if metric in special:
                out[metric] = special[metric]
            elif stat == "calls":
                out[metric] = n_calls[layer] or counts[layer]
            elif stat == "refuted":
                out[metric] = n_refuted[layer]
            elif stat == "self_s":
                out[metric] = self_s[layer]
            elif stat == "refuted_s":
                out[metric] = refuted_s[layer]
            elif stat == "s":
                out[metric] = total[layer]
        return out

    def write_spans(self, path) -> None:
        rows = [[name, round(s - self.t0, 7), round(e - self.t0, 7), parent] for name, s, e, parent in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)


def combine(passes: list[dict]) -> dict:
    """Counts from the first traced pass (they repeat exactly), seconds and
    rates as the median over passes."""
    out = {}
    for metric, unit in PER_LAYER.items():
        if metric == "trace.overhead_ratio":
            continue
        values = [p[metric] for p in passes]
        out[metric] = values[0] if unit == "count" else statistics.median(values)
    return out
