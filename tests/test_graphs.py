"""Graph type, generators, and DIMACS round trips."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from orthograph.graphs import (
    DimacsParseError,
    Graph,
    SetSystem,
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    intersection_graph,
    kneser,
    line_graph,
    read_dimacs,
    schrijver,
    write_dimacs,
)


def test_basic_graph_queries():
    g = Graph(4, [(0, 1), (1, 2)])
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.neighbors(1) == [0, 2]
    assert g.degree(1) == 2 and g.degree(3) == 0
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.num_edges == 2
    assert g.closed(1) == 0b0111


def test_graph_rejects_self_loops_and_out_of_range():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_connectivity_and_bipartition():
    assert cycle_graph(4).is_connected()
    assert not Graph(4, [(0, 1), (2, 3)]).is_connected()
    assert cycle_graph(4).bipartition() == [0, 1, 0, 1]
    assert cycle_graph(5).bipartition() is None
    assert empty_graph(0).is_connected()


def test_kneser_petersen_structure():
    g = kneser(5, 2)
    assert g.n == 10
    assert g.num_edges == 15
    assert all(g.degree(v) == 3 for v in range(10))
    # vertices are the 2-subsets in lexicographic order: vertex 0 = {0,1} is
    # disjoint from {2,3}, {2,4}, {3,4}, and vertex 9 = {3,4} from {0,1},
    # {0,2}, {1,2}
    assert g.neighbors(0) == [7, 8, 9]
    assert g.neighbors(9) == [0, 1, 4]


def test_kneser_perfect_matching_case():
    g = kneser(4, 2)
    assert g.n == 6
    assert all(g.degree(v) == 1 for v in range(6))


def test_kneser_rejects_bad_parameters():
    with pytest.raises(ValueError):
        kneser(3, 2)
    with pytest.raises(ValueError):
        kneser(4, 0)


def test_schrijver_vertex_counts():
    # number of stable k-subsets of a cycle: (n/(n-k)) * C(n-k, k)
    for n, k in [(4, 2), (5, 2), (6, 2), (7, 3)]:
        want = n * math.comb(n - k, k) // (n - k)
        assert schrijver(n, k).n == want


def test_schrijver_5_2_is_a_5_cycle():
    g = schrijver(5, 2)
    assert g.n == 5
    assert all(g.degree(v) == 2 for v in range(5))
    assert g.is_connected()
    assert g.bipartition() is None


def test_intersection_graph_and_set_system():
    fam = (frozenset({0, 1}), frozenset({2, 3}), frozenset({1, 2}))
    g = intersection_graph(SetSystem(4, fam))
    assert g.n == 3
    # members in lexicographic order {0,1}, {1,2}, {2,3}: only the first and
    # last are disjoint
    assert g.edges() == [(0, 2)]
    with pytest.raises(ValueError):
        SetSystem(4, (frozenset({0}), frozenset({0})))
    with pytest.raises(ValueError):
        SetSystem(2, (frozenset({5}),))


def test_complement_involution():
    g = kneser(5, 2)
    assert complement(complement(g)) == g
    assert complement(complete_graph(4)) == empty_graph(4)


def test_complement_matches_the_edge_list_definition():
    rng = random.Random(0)
    for n in (0, 1, 2, 3, 6, 11, 70):
        for _ in range(4):
            g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4])
            want = Graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2) if not g.has_edge(u, v)])
            assert complement(g) == want and hash(complement(g)) == hash(want)


def test_cycle_5_is_self_complementary():
    c5 = cycle_graph(5)
    h = complement(c5)
    assert h.num_edges == 5
    assert all(h.degree(v) == 2 for v in range(5))


def test_line_graph_of_triangle():
    lg = line_graph(cycle_graph(3))
    assert lg == complete_graph(3)


def test_schrijver_as_complement_of_line_graph():
    # S(n,2) is isomorphic to the complement of the line graph of the
    # complement of an n-cycle; compare invariant degree multisets
    for n in (5, 6, 7):
        a = schrijver(n, 2)
        b = complement(line_graph(complement(cycle_graph(n))))
        assert a.n == b.n
        assert sorted(a.degree(v) for v in range(a.n)) == sorted(
            b.degree(v) for v in range(b.n)
        )


def test_dimacs_round_trip_bit_exact():
    g = kneser(5, 2)
    text = write_dimacs(g)
    assert text.startswith("p edge 10 15\n")
    assert read_dimacs(text) == g
    assert write_dimacs(read_dimacs(text)) == text


def test_dimacs_tolerates_comments_and_duplicates():
    g = read_dimacs("c hello\np edge 3 2\ne 1 2\ne 1 2\ne 2 3\n")
    assert g.n == 3 and g.num_edges == 2


def test_dimacs_errors_carry_line_numbers():
    with pytest.raises(DimacsParseError, match="line 2"):
        read_dimacs("p edge 3 1\ne 1 4\n")
    with pytest.raises(DimacsParseError, match="line 1"):
        read_dimacs("e 1 2\n")
    with pytest.raises(DimacsParseError, match="line 2"):
        read_dimacs("p edge 3 1\ne 2 2\n")
    with pytest.raises(DimacsParseError):
        read_dimacs("")
