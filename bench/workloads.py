"""The benchmark workloads.

Each workload makes its inputs from the seed with the benchmark's own
generators (edge lists, clause lists), then, in `build`, turns them into the
program's objects through the program's own constructors; `build` is what
set-up time measures.  `ops` returns the fixed list of operations one pass
runs; each operation's output is checked by `checks`, which never uses the
program.
"""

from __future__ import annotations

import importlib
import itertools
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import checks

MODULES = ("fields", "linalg", "graphs", "coloring", "ortho", "reduction", "indexcoding", "cli")


class ProgramMissing(RuntimeError):
    """orthograph cannot be imported from the checkout's src directory."""


def import_program(root: Path) -> SimpleNamespace:
    """Import orthograph afresh from <root>/src and return its modules."""
    src = (root / "src").resolve()
    if not (src / "orthograph" / "__init__.py").is_file():
        raise ProgramMissing(f"no orthograph package under {src}")
    for name in [m for m in sys.modules if m == "orthograph" or m.startswith("orthograph.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    mods = {m: importlib.import_module(f"orthograph.{m}") for m in MODULES}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(src):
        raise ProgramMissing(f"orthograph was imported from {mods['cli'].__file__}, not {src}")
    return SimpleNamespace(**mods)


class OpFailed(RuntimeError):
    """The program reported failure (non-zero exit code)."""


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list]
    # Non-empty when this operation meets a known program fault: a rejected
    # answer then counts as a failed operation, not as a wrong benchmark.
    known_fault: str = ""
    # The certificate file the call writes and the check reads; it is deleted
    # before each call, so a check never reads an earlier call's output.
    cert: Path | None = None


def run_cli(prog, argv: list[str]) -> int:
    rc = prog.cli.main(argv)
    if rc:
        raise OpFailed(f"orthograph {' '.join(argv)} exited {rc}")
    return rc


def read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# -- the benchmark's own graph generators ---------------------------------------


def kneser_edges(n: int, k: int) -> tuple[int, list]:
    sets = list(itertools.combinations(range(n), k))
    return len(sets), [(i, j) for i, j in itertools.combinations(range(len(sets)), 2) if not set(sets[i]) & set(sets[j])]


def schrijver_edges(n: int, k: int) -> tuple[int, list]:
    sets = [s for s in itertools.combinations(range(n), k) if not any((x + 1) % n in s for x in s)]
    return len(sets), [(i, j) for i, j in itertools.combinations(range(len(sets)), 2) if not set(sets[i]) & set(sets[j])]


def cycle_edges(r: int) -> list:
    return [(i, (i + 1) % r) for i in range(r)]


def wheel_edges(k: int) -> list:
    return cycle_edges(k) + [(i, k) for i in range(k)]


def grotzsch_edges() -> list:
    """Mycielskian of C5: vertices 0-4 the cycle, 5-9 their shadows, 10 the apex."""
    edges = cycle_edges(5)
    edges += [(u, v + 5) for u, v in cycle_edges(5)] + [(v, u + 5) for u, v in cycle_edges(5)]
    return edges + [(i, 10) for i in range(5, 10)]


def pair_family(rng: random.Random) -> tuple[int, list]:
    ground = rng.randint(4, 7)
    pairs = list(itertools.combinations(range(ground), 2))
    return ground, rng.sample(pairs, rng.randint(3, min(10, len(pairs))))


def norm(edges) -> list:
    return sorted((min(u, v), max(u, v)) for u, v in edges)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.rng = random.Random(seed)

    def references(self) -> None:
        """Independent reference values, computed once per run, untimed."""

    def build(self, prog, workdir: Path) -> dict:
        raise NotImplementedError

    def ops(self, prog, built: dict, workdir: Path) -> list[Op]:
        raise NotImplementedError

    def input_errors(self, built: dict) -> list[str]:
        """The program's graphs must equal the benchmark's own edge lists."""
        errs = []
        for key, (n, edges) in self.graphs.items():
            g = built[key]
            if g.n != n or norm(g.edges()) != norm(edges):
                errs.append(f"{self.name}: program graph {key} differs from the benchmark's")
        return errs

    def pass_errors(self) -> list[str]:
        return []

    def write_dimacs(self, prog, graphs: dict, workdir: Path) -> dict:
        out = {}
        for key, g in graphs.items():
            path = workdir / f"{key}.dimacs"
            path.write_text(prog.graphs.write_dimacs(g))
            out[key] = g
            out[key + ".path"] = str(path)
        return out


# -- lod-sweep ----------------------------------------------------------------


def connected_atlas(max_n: int) -> list[tuple[int, list]]:
    """Connected graphs of the networkx graph atlas with 1..max_n vertices, in atlas order.

    This loads networkx; `atlas_graphs` calls it in a child interpreter."""
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for g in graph_atlas_g():
        n = g.number_of_nodes()
        if not 1 <= n <= max_n:
            continue
        edges = list(g.edges())
        if _connected(n, edges):
            out.append((n, edges))
    return out


def atlas_graphs(max_n: int, cache: Path) -> list[tuple[int, list]]:
    """`connected_atlas(max_n)`, computed in a child interpreter so that
    networkx never loads into the measured process.  The result is kept in
    `cache`, in the run's work directory, for the set-up probes."""
    if not cache.is_file():
        proc = subprocess.run([sys.executable, __file__, str(max_n)],
                              capture_output=True, text=True, timeout=120, check=True)
        cache.write_text(proc.stdout)
    return [(n, [tuple(e) for e in edges]) for n, edges in json.loads(cache.read_text())]


def _connected(n: int, edges: list) -> bool:
    adj = checks.adjacency(n, edges)
    seen = frontier = 1
    while frontier:
        v = frontier.bit_length() - 1
        frontier &= ~(1 << v)
        new = adj[v] & ~seen
        seen |= new
        frontier |= new
    return seen == (1 << n) - 1


class LodSweep(Workload):
    """Many short calls into ortho: has_local_rep on small graphs, where
    per-call set-up weighs as much as the search; a ladder of `solve
    od-local` calls that refute localities below the answer; and the gadget
    enumeration path."""

    name = "lod-sweep"
    BLOCK = 8  # one 7-vertex graph from each run of 8 consecutive atlas graphs
    GADGETS = [(2, False), (3, False), (5, False), (3, True), (5, True)]
    # (graph, field, dim cap, t for a topologically t-chromatic graph)
    LADDER = [
        ("schrijver-6-2", 2, 4, 4),
        ("grotzsch", 2, 4, 4),
        ("co-cycle-9", 2, 5, None),
        ("wheel-5", 3, 4, None),
        ("co-cycle-7", 3, 4, None),
        ("petersen", 3, None, None),
        ("petersen", 2, None, None),
    ]

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        atlas = atlas_graphs(7, workdir / "atlas-7.json")
        seven = [g for g in atlas if g[0] == 7]
        sample = [self.rng.choice(seven[i:i + self.BLOCK]) for i in range(0, len(seven), self.BLOCK)]
        self.sweep = {f"gf2-n7-{i}": g for i, g in enumerate(sample)}
        self.sweep.update({f"gf3-small-{i}": g for i, g in enumerate(g for g in atlas if g[0] <= 5)})
        self.ladder = {
            "schrijver-6-2": schrijver_edges(6, 2),
            "grotzsch": (11, grotzsch_edges()),
            "co-cycle-9": (9, checks.complement_edges(9, cycle_edges(9))),
            "wheel-5": (6, wheel_edges(5)),
            "co-cycle-7": (7, checks.complement_edges(7, cycle_edges(7))),
            "petersen": kneser_edges(5, 2),
        }
        self.graphs = {**self.sweep, **self.ladder}

    def references(self) -> None:
        """Bipartiteness of the sweep graphs; the gadget census; and (lower,
        upper) bounds on lod for the ladder: the clique number, 3 for an odd
        cycle and ceil(t/2)+1 below, the chromatic number above."""
        self.bipartite = {k: checks.is_bipartite(n, e) for k, (n, e) in self.sweep.items()}
        self.census = {(p, drop): checks.gadget_census(p, drop) for p, drop in self.GADGETS}
        self.bounds = {}
        for key, _, _, t in self.LADDER:
            n, edges = self.ladder[key]
            lower = max(checks.clique_number(n, edges), 2 if checks.is_bipartite(n, edges) else 3)
            if t is not None:
                lower = max(lower, -(-t // 2) + 1)
            self.bounds[key] = (lower, checks.chromatic_number(n, edges))

    def build(self, prog, workdir: Path) -> dict:
        gr = prog.graphs
        built = self.write_dimacs(prog, {
            "schrijver-6-2": gr.schrijver(6, 2),
            "grotzsch": gr.Graph(11, grotzsch_edges()),
            "co-cycle-9": gr.complement(gr.cycle_graph(9)),
            "wheel-5": gr.Graph(6, wheel_edges(5)),
            "co-cycle-7": gr.complement(gr.cycle_graph(7)),
            "petersen": gr.kneser(5, 2),
        }, workdir)
        built.update({k: gr.Graph(n, edges) for k, (n, edges) in self.sweep.items()})
        for p in (2, 3, 5):
            built[p] = prog.fields.PrimeField(p)
        return built

    def ops(self, prog, built: dict, workdir: Path) -> list[Op]:
        out = []
        for key, (n, _) in self.sweep.items():
            field = built[2 if key.startswith("gf2") else 3]
            want = self.bipartite[key]
            out.append(Op(
                f"has_local_rep {key} GF({field.p}) 2",
                lambda g=built[key], f=field: prog.ortho.has_local_rep(g, f, 2),
                lambda got, want=want: [] if got is want else [f"answered {got}, bipartite is {want}"],
                # has_local_rep only tries dimensions t >= ell, so a one-vertex
                # graph (lod 1) is refuted for ell = 2
                known_fault="has_local_rep ignores dimensions below ell" if n == 1 else "",
            ))
        for key, p, cap, _ in self.LADDER:
            cert = workdir / f"{key}.{p}.cert.json"
            argv = ["solve", "od-local", built[key + ".path"], "--field", str(p), "--json", "-o", str(cert)]
            if cap is not None:
                argv += ["--dim-cap", str(cap)]
            n, edges = self.ladder[key]
            lower, upper = self.bounds[key]
            out.append(Op(
                f"od-local {key} GF({p})",
                lambda argv=argv: run_cli(prog, argv),
                lambda _, cert=cert, n=n, edges=edges, p=p, lo=lower, hi=upper:
                    checks.od_local_errors(read_json(cert), n, edges, p, lo, hi),
                cert=cert,
            ))
        for p, drop in self.GADGETS:
            total, bad = self.census[(p, drop)]
            out.append(Op(
                f"certify_gadget_lemma GF({p}){' control' if drop else ''}",
                lambda f=built[p], drop=drop: prog.reduction.certify_gadget_lemma(f, drop_matching_edge=drop),
                lambda r, total=total, bad=bad, drop=drop: self._gadget_errors(r, total, bad, drop),
            ))
        return out

    @staticmethod
    def _gadget_errors(report, total: int, bad: int, drop: bool) -> list[str]:
        errs = []
        if (report.enumerated, report.counterexamples) != (total, bad):
            errs.append(f"gadget census {report.enumerated}/{report.counterexamples}, brute force {total}/{bad}")
        if (bad >= 1) != drop:
            errs.append(f"brute force found {bad} counterexamples (control={drop})")
        return errs


# -- chromatic ----------------------------------------------------------------


def random_3cnf(rng: random.Random, num_vars: int) -> list[tuple[int, ...]]:
    clauses = []
    for _ in range(round(4.3 * num_vars)):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return clauses


class Chromatic(Workload):
    """Chromatic and local chromatic numbers and the SAT reduction; never
    enters ortho."""

    name = "chromatic"
    KNESER = [(5, 2), (6, 2), (7, 2), (8, 2), (7, 3), (8, 3)]
    SCHRIJVER = [4, 5, 6, 7, 8]
    FAMILIES = 16
    CNF_VARS = range(6, 13)
    # Satisfiable and unsatisfiable formulas drawn for each variable count;
    # two of each keep the seed's effect on the total small.
    CNF_EACH = 2

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.graphs = {f"kneser-{n}-{k}": kneser_edges(n, k) for n, k in self.KNESER}
        self.graphs.update({f"schrijver-{n}-2": schrijver_edges(n, 2) for n in self.SCHRIJVER})
        self.t = {f"kneser-{n}-{k}": n - 2 * k + 2 for n, k in self.KNESER}
        self.t.update({f"schrijver-{n}-2": n - 2 for n in self.SCHRIJVER})
        self.families = [pair_family(self.rng) for _ in range(self.FAMILIES)]
        for i, (ground, pairs) in enumerate(self.families):
            ordered = sorted(pairs)
            self.graphs[f"pairs-{i}"] = (len(ordered), [
                (a, b) for a, b in itertools.combinations(range(len(ordered)), 2) if not set(ordered[a]) & set(ordered[b])
            ])
        self.cnfs = []
        for nv in self.CNF_VARS:
            found = {True: [], False: []}
            while min(map(len, found.values())) < self.CNF_EACH:
                clauses = random_3cnf(self.rng, nv)
                sat = checks.satisfiable(nv, clauses)
                if len(found[sat]) < self.CNF_EACH:
                    found[sat].append(clauses)
            self.cnfs += [(nv, clauses, sat) for sat in (True, False) for clauses in found[sat]]

    def references(self) -> None:
        """(lower, upper) bounds per parameter.  With t = n-2k+2:
        chi(K(n,k)) = chi(S(n,k)) = t, ceil(t/2)+1 <= chi_local <= t, and
        chi_local = chi on S(n,2) and on 2-set disjointness graphs."""
        self.bounds = {}
        for key, (n, edges) in self.graphs.items():
            if key in self.t:
                t = self.t[key]
                local_lo = t if key.startswith("schrijver") else -(-t // 2) + 1
                self.bounds[key] = {"chi": (t, t), "chi-local": (local_lo, t)}
            else:
                chi = checks.chromatic_number(n, edges)
                self.bounds[key] = {"chi": (chi, chi), "chi-local": (chi, chi)}

    def build(self, prog, workdir: Path) -> dict:
        gr = prog.graphs
        graphs = {f"kneser-{n}-{k}": gr.kneser(n, k) for n, k in self.KNESER}
        graphs.update({f"schrijver-{n}-2": gr.schrijver(n, 2) for n in self.SCHRIJVER})
        for i, (ground, pairs) in enumerate(self.families):
            graphs[f"pairs-{i}"] = gr.intersection_graph(gr.SetSystem(ground, tuple(frozenset(p) for p in pairs)))
        built = self.write_dimacs(prog, graphs, workdir)
        for i, (nv, clauses, _) in enumerate(self.cnfs):
            text = f"p cnf {nv} {len(clauses)}\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
            built[f"cnf-{i}"] = prog.reduction.parse_dimacs_cnf(text)
        return built

    def ops(self, prog, built: dict, workdir: Path) -> list[Op]:
        out = []
        for key, (n, edges) in self.graphs.items():
            for param in ("chi", "chi-local"):
                cert = workdir / f"{key}.{param}.json"
                argv = ["solve", param, built[key + ".path"], "--json", "-o", str(cert)]
                lo, hi = self.bounds[key][param]
                out.append(Op(
                    f"solve {param} {key}",
                    lambda argv=argv: run_cli(prog, argv),
                    lambda _, cert=cert, n=n, edges=edges, lo=lo, hi=hi:
                        checks.colouring_cert_errors(read_json(cert), n, edges, lo, hi),
                    cert=cert,
                ))
        for i, (nv, clauses, sat) in enumerate(self.cnfs):
            out.append(Op(
                f"k_colorable build_g cnf-{i} ({nv} vars, sat={sat})",
                lambda cnf=built[f"cnf-{i}"]: self._three_colour(prog, cnf),
                lambda res, nv=nv, m=len(clauses), sat=sat: self._reduction_errors(res, nv, m, sat),
            ))
        return out

    @staticmethod
    def _three_colour(prog, cnf):
        g = prog.reduction.build_g(cnf).graph
        return prog.coloring.k_colorable(g, 3), g

    @staticmethod
    def _reduction_errors(res, nv: int, m: int, sat: bool) -> list[str]:
        colours, g = res
        n = 3 + 2 * nv + 5 * m  # triangle, literal pairs, two OR gadgets per 3-clause
        if g.n != n:
            return [f"reduction graph has {g.n} vertices, expected {n}"]
        edges = [(u, v) for u in range(n) for v in range(u) if g.adj[u] >> v & 1]
        return checks.three_colouring_errors(colours, n, edges, sat)


# -- index-code ---------------------------------------------------------------


class IndexCode(Workload):
    """Index codes built and decoded in one CLI call; the only workload that
    loads indexcoding, linalg and find_independent_rep."""

    name = "index-code"
    SMALL_FIELDS = (2, 3, 5)
    METHODS = ("minrank", "local", "compress")
    WIDE = (31, ("local", "compress"), ("cycle-5", "cycle-7", "co-cycle-7"))
    TRIALS = 30

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.graphs = {
            "cycle-5": (5, cycle_edges(5)),
            "cycle-7": (7, cycle_edges(7)),
            "co-cycle-7": (7, checks.complement_edges(7, cycle_edges(7))),
            "petersen": kneser_edges(5, 2),
        }
        self.runs = [(g, p, m) for g in self.graphs for p in self.SMALL_FIELDS for m in self.METHODS]
        p, methods, graphs = self.WIDE
        self.runs += [(g, p, m) for g in graphs for m in methods]
        self.lengths: dict = {}

    def references(self) -> None:
        self.alpha = {k: checks.independence_number(n, e) for k, (n, e) in self.graphs.items()}
        self.co_local = {
            k: checks.local_chromatic_number(n, checks.complement_edges(n, e)) for k, (n, e) in self.graphs.items()
        }

    def build(self, prog, workdir: Path) -> dict:
        gr = prog.graphs
        return self.write_dimacs(prog, {
            "cycle-5": gr.cycle_graph(5),
            "cycle-7": gr.cycle_graph(7),
            "co-cycle-7": gr.complement(gr.cycle_graph(7)),
            "petersen": gr.kneser(5, 2),
        }, workdir)

    def ops(self, prog, built: dict, workdir: Path) -> list[Op]:
        out = []
        for key, p, method in self.runs:
            n, edges = self.graphs[key]
            cert = workdir / f"{key}.{p}.{method}.json"
            argv = ["index-code", built[key + ".path"], "--field", str(p), "--method", method,
                    "--seed", str(self.seed), "--simulate", str(self.TRIALS), "-o", str(cert)]
            out.append(Op(
                f"index-code {key} GF({p}) {method}",
                lambda argv=argv: run_cli(prog, argv),
                lambda _, run=(key, p, method), cert=cert, n=n, edges=edges: self._code_errors(run, read_json(cert), n, edges),
                cert=cert,
            ))
        return out

    def _code_errors(self, run: tuple, cert: dict, n: int, edges: list) -> list[str]:
        key, p, method = run
        self.lengths[run] = cert.get("length")
        errs = checks.index_code_errors(cert, n, edges, p, self.seed, self.TRIALS)
        length = cert.get("length")
        if not errs and length < self.alpha[key]:
            errs.append(f"length {length} below the independence number {self.alpha[key]}")
        bound = self.co_local[key] + checks.ceil_log(p, n)
        if not errs and method == "compress" and length > bound:
            errs.append(f"compress length {length} above locality + ceil(log_q n) = {bound}")
        return errs

    def pass_errors(self) -> list[str]:
        errs = []
        for key, p, method in self.runs:
            if method == "minrank":
                best = self.lengths.get((key, p, "minrank"))
                others = [self.lengths.get((key, p, m)) for m in self.METHODS[1:]]
                if best is not None and any(o is not None and o < best for o in others):
                    errs.append(f"{key} GF({p}): minrank length {best} above {others}")
        self.lengths.clear()
        return errs


WORKLOADS = {w.name: w for w in (LodSweep, Chromatic, IndexCode)}


if __name__ == "__main__":
    # The child interpreter of atlas_graphs.
    json.dump(connected_atlas(int(sys.argv[1])), sys.stdout)
