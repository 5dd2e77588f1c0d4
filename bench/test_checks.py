"""Negative controls for the benchmark's answer checks: each checker accepts
the program's real output and rejects a corrupted copy of it.

Run from the root of a checkout:  python3 -m pytest -q bench
"""

from __future__ import annotations

import copy
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def prog():
    return workloads.import_program(ROOT)


def cli_cert(prog, tmp_path, graph, command, options) -> dict:
    path = tmp_path / "g.dimacs"
    path.write_text(prog.graphs.write_dimacs(graph))
    out = tmp_path / "cert.json"
    assert prog.cli.main([*command, str(path), *options, "-o", str(out)]) == 0
    return json.loads(out.read_text())


def test_od_local_checker(prog, tmp_path):
    n, edges = workloads.kneser_edges(5, 2)
    cert = cli_cert(prog, tmp_path, prog.graphs.kneser(5, 2), ["solve", "od-local"], ["--field", "3", "--json"])
    assert checks.od_local_errors(cert, n, edges, 3, 3, 3) == []

    flipped = copy.deepcopy(cert)
    vec = flipped["witness"]["vectors"][0]
    vec[0] = (vec[0] + 1) % 3
    assert checks.od_local_errors(flipped, n, edges, 3, 3, 3)

    wrong = dict(cert, value=2)
    assert checks.od_local_errors(wrong, n, edges, 3, 2, 3)
    assert checks.od_local_errors(cert, n, edges, 3, 4, 5)  # outside the bounds


@pytest.mark.parametrize("param", ["chi", "chi-local"])
def test_colouring_checker(prog, tmp_path, param):
    n, edges = workloads.kneser_edges(5, 2)
    cert = cli_cert(prog, tmp_path, prog.graphs.kneser(5, 2), ["solve", param], ["--json"])
    assert checks.colouring_cert_errors(cert, n, edges, 3, 3) == []

    recoloured = copy.deepcopy(cert)
    u, v = edges[0]
    recoloured["witness"]["coloring"][v] = recoloured["witness"]["coloring"][u]
    assert checks.colouring_cert_errors(recoloured, n, edges, 3, 3)

    assert checks.colouring_cert_errors(dict(cert, value=4), n, edges, 3, 4)


def test_index_code_checker(prog, tmp_path):
    n, edges = 5, workloads.cycle_edges(5)
    cert = cli_cert(prog, tmp_path, prog.graphs.cycle_graph(5),
                    ["index-code"], ["--field", "3", "--method", "minrank", "--seed", "4", "--simulate", "10"])
    assert checks.index_code_errors(cert, n, edges, 3, 4, 10) == []

    changed = copy.deepcopy(cert)
    lam = changed["decodeCoeffs"][0]
    lam[0] = (lam[0] + 1) % 3
    assert checks.index_code_errors(changed, n, edges, 3, 4, 10)

    pattern = copy.deepcopy(cert)
    pattern["representingMatrix"][0][2] = 1  # vertices 0 and 2 are not adjacent in C5
    assert checks.index_code_errors(pattern, n, edges, 3, 4, 10)

    shorter = dict(cert, length=cert["length"] - 1)
    assert checks.index_code_errors(shorter, n, edges, 3, 4, 10)


def test_three_colouring_checker(prog):
    clauses = [(1, 2, 3), (-1, 2, -3)]
    cnf = prog.reduction.Cnf(3, tuple(clauses))
    g = prog.reduction.build_g(cnf).graph
    colours = prog.coloring.k_colorable(g, 3)
    edges = g.edges()
    assert checks.three_colouring_errors(colours, g.n, edges, True) == []
    assert checks.three_colouring_errors(colours, g.n, edges, False)

    u, v = edges[0]
    recoloured = list(colours)
    recoloured[v] = recoloured[u]
    assert checks.three_colouring_errors(recoloured, g.n, edges, True)


def test_satisfiable():
    assert checks.satisfiable(1, [(1,)])
    assert not checks.satisfiable(1, [(1,), (-1,)])
    assert not checks.satisfiable(2, [(1, 2), (-1, 2), (1, -2), (-1, -2)])
    assert checks.satisfiable(3, [(1, 2, 3), (-1, -2, -3)])


def test_gadget_checker(prog):
    report = prog.reduction.certify_gadget_lemma(prog.fields.PrimeField(3), drop_matching_edge=True)
    total, bad = checks.gadget_census(3, True)
    assert workloads.LodSweep._gadget_errors(report, total, bad, True) == []
    wrong = prog.reduction.GadgetReport(report.field, report.enumerated, 0, None)
    assert workloads.LodSweep._gadget_errors(wrong, total, bad, True)


def test_small_graph_references():
    n, edges = workloads.kneser_edges(5, 2)
    assert checks.chromatic_number(n, edges) == 3
    assert checks.clique_number(n, edges) == 2
    assert checks.independence_number(n, edges) == 4
    assert not checks.is_bipartite(n, edges)
    assert checks.is_bipartite(6, workloads.cycle_edges(6))
    assert checks.chromatic_number(11, workloads.grotzsch_edges()) == 4
    assert checks.local_chromatic_number(5, workloads.cycle_edges(5)) == 3
    assert checks.rank([[1, 2, 0], [2, 4, 0], [0, 0, 1]], 5) == 2


def test_trace_counts_repeat(prog, tmp_path):
    wl = workloads.LodSweep(0, tmp_path)
    wl.references()
    built = wl.build(prog, tmp_path)
    op = next(o for o in wl.ops(prog, built, tmp_path) if "wheel-5" in o.label)
    figures = []
    for _ in range(2):
        tracer = tracing.Tracer()
        mark = tracer.mark()
        tracer.install()
        try:
            assert op.check(tracer.span("op", op.call)) == []
        finally:
            tracer.uninstall()
        figures.append(tracer.pass_figures(mark))
    counts = [{k: f[k] for k, u in tracing.PER_LAYER.items() if u == "count"} for f in figures]
    assert counts[0] == counts[1]
    assert counts[0]["ortho.find_orthogonal_rep.calls"] > 0
    assert prog.ortho.find_orthogonal_rep.__name__ == "find_orthogonal_rep"
    assert not hasattr(prog.ortho.find_orthogonal_rep, "__wrapped__")


def test_runner_rejects_failed_operations(tmp_path):
    stale = tmp_path / "stale.json"
    stale.write_text("{}")  # as if left by an earlier call

    def exits_non_zero():
        raise workloads.OpFailed("orthograph exited 3")

    ops = [
        workloads.Op("exits", exits_non_zero, lambda _: []),
        workloads.Op("writes nothing", lambda: 0, lambda _: [] if workloads.read_json(stale) == {} else ["?"], cert=stale),
        workloads.Op("known fault", lambda: False, lambda got: [] if got else ["wrong"], known_fault="kept"),
        workloads.Op("passes", lambda: True, lambda got: [] if got else ["wrong"]),
    ]
    runner = run.Runner(SimpleNamespace(pass_errors=list), ops)
    _, latencies, _ = runner.one_pass()
    assert [x is None for x in latencies] == [True, True, True, False]
    assert runner.failed == 3
    assert [e.split(":")[0] for e in runner.errors] == ["exits", "writes nothing"]
