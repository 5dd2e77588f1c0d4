"""CNF-to-graph reduction: construction sizes, witness translation, and the
exhaustive gadget dichotomy."""

from __future__ import annotations

import pytest

from orthograph.coloring import chromatic_number, coloring_locality, k_colorable
from orthograph.fields import GF2, GF3, PrimeField
from orthograph.graphs import MAX_VERTICES, CapExceededError
from orthograph.ortho import coloring_to_rep, enumerate_orthogonal_reps, rep_locality
from orthograph.reduction import (
    Cnf,
    assignment_to_coloring,
    build_g,
    build_g_k,
    build_g_prime,
    certify_gadget_lemma,
    coloring_to_assignment,
    gadget_graph,
    parse_dimacs_cnf,
)


def test_cnf_validation():
    Cnf(2, ((1, -2),))
    with pytest.raises(ValueError):
        Cnf(2, ((),))
    with pytest.raises(ValueError):
        Cnf(2, ((1, -1),))
    with pytest.raises(ValueError):
        Cnf(2, ((3,),))


def test_parse_dimacs_cnf():
    cnf = parse_dimacs_cnf("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n")
    assert cnf.num_vars == 3
    assert cnf.clauses == ((1, -2), (2, 3))
    with pytest.raises(ValueError):
        parse_dimacs_cnf("p cnf 2 2\n1 0\n")  # header promises 2 clauses
    with pytest.raises(ValueError):
        parse_dimacs_cnf("1 2 0\n")


def test_build_g_vertex_count_formula():
    # 3 skeleton + 2 per variable + (3(r-1) - 1) per clause of width r
    assert build_g(Cnf(2, ((1, 2),))).graph.n == 9
    assert build_g(Cnf(3, ((1, 2, 3),))).graph.n == 14
    g = build_g(Cnf(4, ((1, -2), (3, 4, -1))))
    assert g.graph.n == 3 + 8 + 2 + 5


def test_build_g_skeleton_edges():
    g = build_g(Cnf(1, ((1, 1),)))
    w, t, f = 0, 1, 2
    assert g.graph.has_edge(w, t) and g.graph.has_edge(w, f) and g.graph.has_edge(t, f)
    p = g.vertex_with_role(("literal", 1, True))
    n = g.vertex_with_role(("literal", 1, False))
    assert g.graph.has_edge(p, n)
    assert g.graph.has_edge(w, p) and g.graph.has_edge(w, n)


def test_build_g_unit_clause_padding():
    # (x1) behaves as (x1 or x1): one OR gadget, both mids tied to the same literal
    g = build_g(Cnf(1, ((1,),)))
    assert g.graph.n == 3 + 2 + 2
    m1 = g.vertex_with_role(("or_mid", 0, 0, 0))
    m2 = g.vertex_with_role(("or_mid", 0, 0, 1))
    lit = g.vertex_with_role(("literal", 1, True))
    assert g.graph.has_edge(m1, lit) and g.graph.has_edge(m2, lit)
    assert g.graph.has_edge(m1, 1) and g.graph.has_edge(m2, 1)  # top is t


def test_build_g_prime_counts():
    gp = build_g_prime(Cnf(2, ((1, 2),)))
    assert gp.graph.n == 9 + 3 * 6 * 4


def test_h_gadget_has_nine_edges():
    h = gadget_graph()
    assert h.n == 6 and h.num_edges == 9
    assert gadget_graph(drop_matching_edge=True).num_edges == 8


def test_build_g_k_universal_vertices():
    cnf = Cnf(2, ((1, 2),))
    g4 = build_g_k(cnf, 4)
    assert g4.graph.n == 81 + 1
    extra = g4.vertex_with_role(("clique_extra", 0))
    assert g4.graph.degree(extra) == 81
    g5 = build_g_k(cnf, 5)
    assert g5.graph.n == 83
    with pytest.raises(ValueError):
        build_g_k(cnf, 3)


def test_satisfiable_formula_three_colors_g_and_g_prime():
    cnf = Cnf(2, ((1, 2),))
    assert chromatic_number(build_g(cnf).graph).value == 3
    colors = assignment_to_coloring(cnf, [True, False])
    gp = build_g_prime(cnf)
    assert len(set(colors)) == 3
    assert colors[1] == 1  # vertex t keeps the color named t


def test_coloring_witnesses_local_dimension_three():
    # a proper 3-coloring of G' induces a locality-<=3 representation over any field
    cnf = Cnf(2, ((1, 2),))
    colors = assignment_to_coloring(cnf, [True, True])
    gp = build_g_prime(cnf).graph
    for field in (GF2, GF3):
        rep = coloring_to_rep(gp, colors, field)
        assert rep_locality(gp, rep) <= 3


def test_unsatisfiable_formula_needs_four_colors():
    cnf = Cnf(1, ((1,), (-1,)))
    g = build_g(cnf).graph
    assert k_colorable(g, 3) is None
    assert chromatic_number(g).value == 4


def test_satisfiable_formula_four_colors_g_k():
    # the universal vertex of the k=4 stage takes a fresh fourth color
    cnf = Cnf(2, ((1, 2),))
    colors = assignment_to_coloring(cnf, [True, False]) + [3]
    gk = build_g_k(cnf, 4)
    coloring_locality(gk.graph, colors)  # raises if improper


def test_vertex_count_formula_on_random_formulas():
    import random

    rng = random.Random(11)
    for _ in range(100):
        num_vars = rng.randint(1, 5)
        clauses = []
        for _ in range(rng.randint(1, 5)):
            width = rng.randint(1, 3)
            vs = rng.sample(range(1, num_vars + 1), min(width, num_vars))
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        cnf = Cnf(num_vars, tuple(clauses))
        g = build_g(cnf)
        padded = [max(len(c), 2) for c in cnf.clauses]
        want = 3 + 2 * num_vars + sum(3 * (r - 1) - 1 for r in padded)
        assert g.graph.n == want
        gp = build_g_prime(cnf)
        assert gp.graph.n == want + 3 * (want - 3) * 4
        assert gp.graph.num_edges == g.graph.num_edges + 3 * (want - 3) * 9


def test_assignment_to_coloring_rejects_falsifying_assignment():
    with pytest.raises(ValueError, match="falsifies"):
        assignment_to_coloring(Cnf(1, ((1,),)), [False])


def test_round_trip_assignment_coloring_assignment():
    cnf = Cnf(3, ((1, -2), (2, 3), (-1, 3)))
    assignment = [True, True, True]
    colors = assignment_to_coloring(cnf, assignment)
    g = build_g(cnf)
    restricted = colors[: g.graph.n]
    back = coloring_to_assignment(cnf, restricted)
    for clause in cnf.clauses:
        assert any(back[abs(l) - 1] == (l > 0) for l in clause)


def test_restriction_of_g_prime_coloring_is_proper_on_g():
    cnf = Cnf(2, ((-1, 2),))
    colors = assignment_to_coloring(cnf, [False, False])
    g = build_g(cnf).graph
    # G is the subgraph of G' induced on its first g.n vertices
    full = (1 << g.n) - 1
    assert [row & full for row in build_g_prime(cnf).graph.adj[: g.n]] == list(g.adj)
    assert coloring_locality(g, colors[: g.n]) <= 3


def test_certify_gadget_lemma_both_fields():
    for field in (GF2, GF3):
        report = certify_gadget_lemma(field)
        assert report.counterexamples == 0
        assert report.enumerated > 0
        assert report.first_counterexample is None


def test_certify_gadget_lemma_negative_control():
    report = certify_gadget_lemma(GF3, drop_matching_edge=True)
    assert report.counterexamples >= 1
    assert report.first_counterexample is not None


@pytest.mark.parametrize(
    "p, drop, enumerated, counterexamples, first",
    [
        (2, False, 12, 0, None),
        (3, False, 48, 0, None),
        (5, False, 240, 0, None),
        (3, True, 120, 24, ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1), (0, 1, 0), (1, 0, 2))),
        (5, True, 1080, 360, ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1), (0, 1, 0), (1, 0, 4))),
        (7, False, 672, 0, None),
        (7, True, 4368, 1680, ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1), (0, 1, 0), (1, 0, 6))),
    ],
)
def test_gadget_census_is_pinned(p, drop, enumerated, counterexamples, first):
    # the first counterexample pins the enumeration order as well as the counts
    report = certify_gadget_lemma(PrimeField(p), drop_matching_edge=drop)
    assert (report.enumerated, report.counterexamples, report.first_counterexample) == (
        enumerated,
        counterexamples,
        first,
    )


def _materialised_census(field, drop):
    # the census as a walk over Representations, compared with field.inner
    enumerated = counterexamples = 0
    first = None
    for rep in enumerate_orthogonal_reps(gadget_graph(drop), field, 3):
        enumerated += 1
        u_i, u_j = rep.vectors[0], rep.vectors[3]
        if u_i == u_j or field.inner(u_i, u_j) == field.zero:
            continue
        counterexamples += 1
        if first is None:
            first = rep.vectors
    return enumerated, counterexamples, first


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("drop", [False, True])
def test_gadget_census_matches_materialised_representations(p, drop):
    field = PrimeField(p)
    report = certify_gadget_lemma(field, drop_matching_edge=drop)
    got = (report.enumerated, report.counterexamples, report.first_counterexample)
    assert got == _materialised_census(field, drop)


def test_vertex_count_is_checked_before_building():
    # a unit clause pads to length 2 (2 vertices), a 3-clause adds 5
    clauses = ((1,), (1, 2, 3))
    assert build_g(Cnf(2043, clauses)).graph.n == MAX_VERTICES == 4096
    with pytest.raises(CapExceededError, match="vertex count 4098 exceeds"):
        build_g(Cnf(2044, clauses))
    # a billion variables would take gigabytes to build; the count alone refutes it
    with pytest.raises(CapExceededError, match="vertex count 2000000005 exceeds"):
        build_g(Cnf(10**9, ((1, 2),)))
