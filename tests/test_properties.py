"""Inequalities between the graph parameters, and the locality decision
against the local orthogonality dimension, over GF(2) and GF(3): as
property tests over random graphs with at most 6 vertices (8 for the
coloring parameters alone), and over every atlas graph with at most 6
vertices.  The index codes of the three routes, over GF(2), GF(3) and
GF(5), round-trip and meet their length bounds on random graphs with at
most 6 vertices."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from networkx.generators.atlas import graph_atlas_g

from orthograph.coloring import chromatic_number, local_chromatic_number, max_clique
from orthograph.fields import GF2, GF3, PrimeField
from orthograph.graphs import Graph, complement
from orthograph.indexcoding import code_by_method, simulate
from orthograph.linalg import ceil_log
from orthograph.ortho import (
    coloring_to_rep,
    has_local_rep,
    local_orthogonality_dimension,
    minrank,
    orthogonality_dimension,
    rep_locality,
)

FIELDS = [GF2, GF3]


@st.composite
def graphs(draw, max_n: int = 6) -> Graph:
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=8))
def test_clique_below_local_chromatic_below_chromatic(g):
    omega = max_clique(g).value
    chi_local = local_chromatic_number(g)
    assert omega <= chi_local.value <= chromatic_number(g).value
    # the witness coloring's standard-basis representation has the same locality
    for field in FIELDS:
        assert rep_locality(g, coloring_to_rep(g, chi_local.witness, field)) == chi_local.value


@pytest.mark.parametrize("field", FIELDS, ids=["GF2", "GF3"])
@settings(max_examples=100, deadline=None)
@given(g=graphs())
def test_local_orthogonality_dimension_below_od_and_local_chromatic(field, g):
    lod = local_orthogonality_dimension(g, field)
    od = orthogonality_dimension(g, field).value
    assert lod.value <= od
    assert lod.value <= local_chromatic_number(g).value
    assert rep_locality(g, lod.witness) == lod.value


@pytest.mark.parametrize("field", FIELDS, ids=["GF2", "GF3"])
@settings(max_examples=100, deadline=None)
@given(g=graphs())
def test_local_rep_decision_matches_local_orthogonality_dimension(field, g):
    # the bipartition shortcut below ell = 3 and the search above it, against
    # the search-based solver at the same default cap
    lod = local_orthogonality_dimension(g, field).value
    for ell in (1, 2, 3):
        assert has_local_rep(g, field, ell) == (lod <= ell)


@pytest.mark.parametrize("field", FIELDS, ids=["GF2", "GF3"])
@settings(max_examples=100, deadline=None)
@given(g=graphs())
@example(g=Graph(7))  # the complement K7 needs t = 7
def test_minrank_below_od_of_complement(field, g):
    # an orthogonal representation of the complement is an independent one:
    # an anisotropic vector orthogonal to its neighbors' lies outside their span
    assert minrank(g, field).value <= orthogonality_dimension(complement(g), field).value


@pytest.mark.parametrize("field", FIELDS, ids=["GF2", "GF3"])
def test_minrank_below_local_od_of_complement_plus_log(field):
    # the paper's index-coding bound: a locality-l orthogonal representation
    # of the complement compresses to an independent one of dimension
    # l + ceil(log_q n)
    for nxg in graph_atlas_g():
        if nxg.number_of_nodes() > 6:
            break
        g = Graph(nxg.number_of_nodes(), list(nxg.edges()))
        bound = local_orthogonality_dimension(complement(g), field).value + ceil_log(field.size, g.n)
        assert minrank(g, field).value <= bound, g.edges()


@pytest.mark.parametrize("field", [GF2, GF3, PrimeField(5)], ids=["GF2", "GF3", "GF5"])
@settings(max_examples=100, deadline=None)
@given(g=graphs())
@example(g=Graph(1))  # the vertex has no non-neighbors, so its span S is empty
@example(g=Graph(4, [(0, 1), (0, 2), (0, 3)]))  # vertex 0 is isolated in the complement
def test_index_codes_round_trip_within_their_bounds(field, g):
    # minrank is optimal, and a locality-l representation of the complement
    # gives a code of length at most l + ceil(log_q n)
    lengths = {}
    for method in ("minrank", "local", "compress"):
        code = code_by_method(g, field, method, seed=0)
        assert simulate(code, 20, seed=0).failures == 0, method
        lengths[method] = code.length
    assert lengths["minrank"] == minrank(g, field).value
    assert lengths["minrank"] <= min(lengths["local"], lengths["compress"])
    bound = local_chromatic_number(complement(g)).value + ceil_log(field.size, g.n)
    assert max(lengths["local"], lengths["compress"]) <= bound
