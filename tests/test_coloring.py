"""Exact chromatic number, local chromatic number, and max clique."""

from __future__ import annotations

import hashlib
import json

import pytest
from networkx.generators.atlas import graph_atlas_g

from orthograph.coloring import (
    CapExceededError,
    ImproperColoringError,
    check_proper,
    chromatic_number,
    coloring_locality,
    greedy_coloring,
    is_proper,
    k_colorable,
    local_chromatic_number,
    local_lower_bound,
    locality_decision,
    max_clique,
    num_colors,
)
from orthograph.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    kneser,
    schrijver,
)


def test_check_proper_accepts_and_rejects():
    g = cycle_graph(4)
    check_proper(g, [0, 1, 0, 1])
    assert is_proper(g, [0, 1, 0, 1])
    assert not is_proper(g, [0, 0, 1, 1])
    with pytest.raises(ImproperColoringError):
        check_proper(g, [0, 1, 0])


def test_coloring_locality_values():
    g = cycle_graph(5)
    assert coloring_locality(g, [0, 1, 0, 1, 2]) == 3
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert coloring_locality(star, [0, 1, 1, 1]) == 2
    assert coloring_locality(star, [0, 1, 2, 1]) == 3  # wasteful but proper


def test_max_clique_known_graphs():
    assert max_clique(complete_graph(5)).value == 5
    assert max_clique(empty_graph(4)).value == 1
    assert max_clique(cycle_graph(5)).value == 2
    assert max_clique(kneser(5, 2)).value == 2
    res = max_clique(complete_graph(3))
    assert sorted(res.witness) == [0, 1, 2]


def test_max_clique_witness_is_a_clique():
    g = kneser(6, 2)
    res = max_clique(g)
    assert res.value == 3
    for i, u in enumerate(res.witness):
        for v in res.witness[i + 1:]:
            assert g.has_edge(u, v)


def test_greedy_coloring_is_proper():
    for g in (cycle_graph(7), kneser(5, 2), complete_graph(6)):
        check_proper(g, greedy_coloring(g))


def test_k_colorable_decision():
    c5 = cycle_graph(5)
    assert k_colorable(c5, 2) is None
    colors = k_colorable(c5, 3)
    assert colors is not None
    check_proper(c5, colors)
    assert num_colors(colors) <= 3
    assert k_colorable(empty_graph(3), 1) is not None
    assert k_colorable(complete_graph(3), 2) is None


def test_k_colorable_long_cycles_need_no_recursion():
    # one search frame per colored vertex, 1,000 deep
    c1000 = cycle_graph(1000)
    colors = k_colorable(c1000, 3)
    assert colors is not None
    check_proper(c1000, colors)
    assert colors[:4] == [0, 1, 0, 1]
    assert k_colorable(cycle_graph(1001), 2) is None
    assert num_colors(k_colorable(cycle_graph(1001), 3)) == 3


def test_k_colorable_colorings_are_pinned():
    # every answer on the atlas graphs with at most 6 vertices for k = 2, 3, 4,
    # in atlas order; the digest was taken from the recursive search
    out = []
    for nxg in graph_atlas_g():
        if nxg.number_of_nodes() > 6:
            break
        g = Graph(nxg.number_of_nodes(), list(nxg.edges()))
        for k in (2, 3, 4):
            colors = k_colorable(g, k)
            if colors is not None:
                check_proper(g, colors)
                assert num_colors(colors) <= k
            out.append(colors)
    assert len(out) == 627 and sum(c is None for c in out) == 197
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "f2621d951f768c96b07117b07aa5f9129207c9ea868e4702fd6a877d28524a90"
    assert k_colorable(cycle_graph(5), 3) == [0, 1, 0, 1, 2]


def test_chromatic_number_classics():
    assert chromatic_number(empty_graph(5)).value == 1
    assert chromatic_number(complete_graph(6)).value == 6
    assert chromatic_number(cycle_graph(6)).value == 2
    assert chromatic_number(cycle_graph(7)).value == 3
    res = chromatic_number(kneser(5, 2))
    assert res.value == 3
    check_proper(kneser(5, 2), res.witness)
    assert num_colors(res.witness) == 3


def test_chromatic_number_lower_bound_reasons():
    assert chromatic_number(complete_graph(4)).lower_bound_reason == "clique"
    assert chromatic_number(cycle_graph(5)).lower_bound_reason == "exhausted-search"


def test_chromatic_number_cap():
    with pytest.raises(CapExceededError):
        chromatic_number(empty_graph(10), cap=5)


def test_locality_decision_on_odd_cycle():
    c5 = cycle_graph(5)
    assert locality_decision(c5, 2) is None
    colors = locality_decision(c5, 3)
    assert colors is not None
    assert coloring_locality(c5, colors) <= 3


def test_locality_can_beat_color_count():
    # K(6,3) needs 2 colors but a coloring with locality 2 exists even
    # though the graph is a perfect matching plus isolated structure
    g = kneser(6, 3)
    colors = locality_decision(g, 2)
    assert colors is not None
    assert coloring_locality(g, colors) == 2


def test_local_lower_bound_reasons():
    assert local_lower_bound(empty_graph(3)) == (1, "bipartite-test")
    assert local_lower_bound(cycle_graph(4)) == (2, "bipartite-test")
    assert local_lower_bound(cycle_graph(5)) == (3, "odd-cycle")
    assert local_lower_bound(complete_graph(4)) == (4, "clique")


def test_local_chromatic_number_small_graphs():
    assert local_chromatic_number(empty_graph(4)).value == 1
    assert local_chromatic_number(cycle_graph(4)).value == 2
    assert local_chromatic_number(cycle_graph(5)).value == 3
    assert local_chromatic_number(complete_graph(4)).value == 4


def test_local_chromatic_number_witness_verifies():
    g = schrijver(6, 2)
    res = local_chromatic_number(g)
    assert res.value == 4
    assert coloring_locality(g, res.witness) == 4


def test_local_chromatic_below_chromatic():
    # the local chromatic number of the 9-vertex Schrijver graph S(6,2) is 4
    # while using possibly more colors; chi equals 4 here so compare on
    # K(6,3) where chi = 2 = chi_local but colorings may use many colors
    g = kneser(6, 3)
    res = local_chromatic_number(g)
    assert res.value == 2
    assert res.value <= chromatic_number(g).value


def test_local_chromatic_number_cap():
    with pytest.raises(CapExceededError):
        local_chromatic_number(empty_graph(9), cap=8)
