"""Orthogonal and independent representations and their exact parameters."""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import random
import time

import pytest
from networkx.generators.atlas import graph_atlas_g

from orthograph.coloring import CapExceededError, ParamResult, chromatic_number, local_chromatic_number, max_clique
from orthograph.fields import GF2, GF3, QQ, PrimeField
from orthograph.graphs import (
    Graph,
    _bits,
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    kneser,
)
from orthograph import ortho
from orthograph.linalg import MAX_POINTS, _span_table
from orthograph.ortho import (
    Representation,
    _orthogonal_walk,
    _search_order,
    coloring_to_rep,
    enumerate_orthogonal_reps,
    find_independent_rep,
    find_orthogonal_rep,
    has_local_rep,
    independence_violations,
    local_orthogonality_dimension,
    minrank,
    orthogonality_dimension,
    orthogonality_violations,
    rep_locality,
)
from orthograph.reduction import gadget_graph

GF5 = PrimeField(5)


def test_orthogonality_violation_reports():
    g = Graph(2, [(0, 1)])
    good = Representation(GF3, 2, ((1, 0), (0, 1)))
    assert orthogonality_violations(g, good) == []
    self_orth = Representation(GF2, 2, ((1, 1), (0, 1)))
    assert any("self-orthogonal" in m for m in orthogonality_violations(g, self_orth))
    not_orth = Representation(GF3, 2, ((1, 1), (1, 0)))
    assert any("not orthogonal" in m for m in orthogonality_violations(g, not_orth))


def test_rational_representation_verifies():
    g = cycle_graph(4)
    rep = Representation(QQ, 2, ((1, 0), (0, 1), (1, 0), (0, 1)))
    assert orthogonality_violations(g, rep) == []
    assert rep_locality(g, rep) == 2


def test_independence_violations():
    g = Graph(3, [(0, 1), (1, 2)])
    good = Representation(GF2, 2, ((1, 0), (0, 1), (1, 0)))
    assert independence_violations(g, good) == []
    bad = Representation(GF2, 2, ((1, 0), (1, 0), (0, 1)))
    assert len(independence_violations(g, bad)) == 2


def test_coloring_to_rep_matches_locality():
    g = cycle_graph(5)
    rep = coloring_to_rep(g, [0, 1, 0, 1, 2], GF2)
    assert orthogonality_violations(g, rep) == []
    assert rep.t == 3
    assert rep_locality(g, rep) == 3


def test_find_orthogonal_rep_needs_enough_dimensions():
    k3 = complete_graph(3)
    assert find_orthogonal_rep(k3, GF2, 2) is None
    rep = find_orthogonal_rep(k3, GF2, 3)
    assert rep is not None
    assert orthogonality_violations(k3, rep) == []


def test_find_orthogonal_rep_respects_locality_constraint():
    c5 = cycle_graph(5)
    assert find_orthogonal_rep(c5, GF2, 5, locality=2) is None
    rep = find_orthogonal_rep(c5, GF2, 3, locality=3)
    assert rep is not None
    assert rep_locality(c5, rep) <= 3


def test_find_orthogonal_rep_over_gf3():
    k3 = complete_graph(3)
    rep = find_orthogonal_rep(k3, GF3, 3)
    assert rep is not None
    assert orthogonality_violations(k3, rep) == []


def test_enumerate_orthogonal_reps_counts_scalar_classes():
    # single vertex in GF(2)^2: the only anisotropic vectors are 10 and 01
    reps = list(enumerate_orthogonal_reps(empty_graph(1), GF2, 2))
    assert len(reps) == 2
    # an edge in GF(3)^2: anisotropic projective points are (1,0),(0,1),(1,1),(1,2);
    # orthogonal pairs among them: (1,0)-(0,1) and (1,1)-(1,2), in both orders
    reps = list(enumerate_orthogonal_reps(Graph(2, [(0, 1)]), GF3, 2))
    assert len(reps) == 4


def test_orthogonality_dimension_values():
    assert orthogonality_dimension(complete_graph(4), GF2).value == 4
    assert orthogonality_dimension(empty_graph(3), GF2).value == 1
    assert orthogonality_dimension(cycle_graph(4), GF2).value == 2
    res = orthogonality_dimension(cycle_graph(5), GF2)
    assert res.value == 3
    assert res.lower_bound_reason == "exhausted-search"


def test_orthogonality_dimension_caps():
    # od 16 and od-local 12 vertices are solved; one more is refused.  od has
    # no dimension cap: K16 is solved at t = 16
    assert orthogonality_dimension(empty_graph(16), GF2).value == 1
    assert orthogonality_dimension(complete_graph(16), GF2).value == 16
    with pytest.raises(CapExceededError, match="orthogonality_dimension vertex cap 16 exceeded"):
        orthogonality_dimension(empty_graph(17), GF2)
    assert local_orthogonality_dimension(empty_graph(12), GF2).value == 1
    with pytest.raises(CapExceededError, match="local_orthogonality_dimension vertex cap 12 exceeded"):
        local_orthogonality_dimension(empty_graph(13), GF2)


def test_orthogonality_dimension_tops_out_at_the_greedy_coloring(monkeypatch):
    # the greedy coloring's standard basis is the top of the ladder, so a
    # clique as large as its color count settles od with no search, in any
    # field
    monkeypatch.setattr(ortho, "find_orthogonal_rep", None)
    res = orthogonality_dimension(complete_graph(7), GF2)
    assert (res.value, res.lower_bound_reason) == (7, "clique")
    assert orthogonality_violations(complete_graph(7), res.witness) == []
    start = time.perf_counter()
    res = orthogonality_dimension(complete_graph(5), PrimeField(31))
    assert time.perf_counter() - start < 0.5
    assert (res.value, res.lower_bound_reason) == (5, "clique")
    with pytest.raises(ValueError, match="finite prime field"):
        orthogonality_dimension(complete_graph(5), QQ)


def _od_searched_upward(g: Graph, field: PrimeField) -> ParamResult:
    """The orthogonality dimension by search alone: t from the clique number
    upward, with no cap, until F^t holds a representation."""
    lo = max_clique(g).value
    t = lo
    while (rep := find_orthogonal_rep(g, field, t)) is None:
        t += 1
    return ParamResult("od", t, rep, "clique" if t == lo else "exhausted-search")


@pytest.mark.parametrize("field", [GF2, GF3], ids=["GF2", "GF3"])
def test_orthogonality_dimension_matches_the_uncapped_search(field):
    # the greedy top changes witnesses only, never a value or a lower-bound
    # reason, on every atlas graph with 1-7 vertices
    for h in graph_atlas_g()[1:]:
        g = Graph(h.number_of_nodes(), list(h.edges()))
        want, got = _od_searched_upward(g, field), orthogonality_dimension(g, field)
        assert (got.value, got.lower_bound_reason) == (want.value, want.lower_bound_reason), g.edges()
        assert got.witness.t == got.value and orthogonality_violations(g, got.witness) == []


def test_local_orthogonality_dimension_cycles():
    res4 = local_orthogonality_dimension(cycle_graph(4), GF2)
    assert res4.value == 2 and res4.dim_cap == 4
    res5 = local_orthogonality_dimension(cycle_graph(5), GF2)
    assert res5.value == 3
    assert res5.lower_bound_reason == "odd-cycle"
    assert rep_locality(cycle_graph(5), res5.witness) == 3


@pytest.mark.parametrize("dim_cap, calls, witness_t", [(5, [3, 5, 4], 4), (4, [3, 4], 4)])
def test_local_orthogonality_dimension_walks_to_the_least_t(monkeypatch, dim_cap, calls, witness_t):
    # lod < od leaves t = ell without a witness: the search at dim_cap then
    # decides ell and the t between are walked for the least-t witness.  No
    # small graph has lod < od over GF(2), so C5 is refused at t = 3.
    real, tried = find_orthogonal_rep, []

    def refusing(g, field, t, locality=None):
        tried.append(t)
        return None if t == 3 else real(g, field, t, locality)

    monkeypatch.setattr(ortho, "find_orthogonal_rep", refusing)
    c5 = cycle_graph(5)
    res = local_orthogonality_dimension(c5, GF2, dim_cap=dim_cap)
    assert (res.value, res.witness.t, rep_locality(c5, res.witness), tried) == (3, witness_t, 3, calls)
    # the witness is the search's at t = 4: the walk's under dim_cap 5, and
    # under dim_cap 4, where no t lies between, the top's
    assert res.witness == real(c5, GF2, 4, locality=3)


def test_local_orthogonality_dimension_can_undershoot_ambient():
    # K4 minus an edge: locality 3 forced by the triangle, any field
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    res = local_orthogonality_dimension(g, GF2)
    assert res.value == 3


def test_has_local_rep_decision():
    assert has_local_rep(cycle_graph(4), GF2, 2)
    assert not has_local_rep(cycle_graph(5), GF2, 2)
    assert has_local_rep(cycle_graph(5), GF2, 3)


def test_has_local_rep_allows_dimensions_below_ell():
    # lod of a single vertex is 1 and of an edgeless pair is 1: both fit below ell
    assert has_local_rep(Graph(1), GF3, 2)
    assert has_local_rep(empty_graph(2), GF2, 3)


def test_has_local_rep_matches_the_search():
    # the bipartition shortcut against the search it skips, at every cap
    cases = mismatches = 0
    for field, max_n in ((GF2, 6), (GF3, 5), (GF5, 5)):
        for h in graph_atlas_g():
            if h.number_of_nodes() > max_n:
                break
            g = Graph(h.number_of_nodes(), list(h.edges()))
            for cap in range(1, max(g.n, 1) + 1):
                for ell in range(-1, 5):
                    want = find_orthogonal_rep(g, field, cap, locality=ell) is not None
                    mismatches += has_local_rep(g, field, ell, dim_cap=cap) != want
                    cases += 1
    assert (cases, mismatches) == (9792, 0)


def test_has_local_rep_decides_large_bipartite_questions():
    # the search would build a span table over F^n
    assert has_local_rep(cycle_graph(2000), GF3, 2)
    assert not has_local_rep(cycle_graph(2001), GF3, 2)
    assert has_local_rep(cycle_graph(3000), GF5, 7)


def test_has_local_rep_refuses_fields_without_a_size():
    with pytest.raises(ValueError, match="finite prime field"):
        has_local_rep(cycle_graph(4), QQ, 2)


def _brute_force_min_locality(g: Graph, p: int, t: int):
    """Least locality over every orthogonal representation of g in GF(p)^t, or
    None if there is none.  Tries every assignment of anisotropic vectors with
    leading coefficient 1 (scaling changes neither orthogonality nor rank)."""
    vecs = [
        v
        for v in itertools.product(range(p), repeat=t)
        if next((x for x in v if x), None) == 1 and sum(x * x for x in v) % p
    ]
    field = PrimeField(p)
    best = None
    for assignment in itertools.product(vecs, repeat=g.n):
        if any(sum(a * b for a, b in zip(assignment[u], assignment[v])) % p for u, v in g.edges()):
            continue
        loc = rep_locality(g, Representation(field, t, assignment))
        best = loc if best is None else min(best, loc)
    return best


@pytest.mark.parametrize("p, max_n", [(2, 5), (3, 4)])
def test_find_orthogonal_rep_agrees_with_brute_force(p, max_n):
    field = PrimeField(p)
    for nxg in graph_atlas_g():
        if nxg.number_of_nodes() > max_n:
            break
        g = Graph(nxg.number_of_nodes(), list(nxg.edges()))
        for t in range(4):
            best = _brute_force_min_locality(g, p, t)
            for ell in (None, 1, 2, 3):
                rep = find_orthogonal_rep(g, field, t, locality=ell)
                exists = best is not None and (ell is None or best <= ell)
                assert (rep is not None) == exists, (g.edges(), p, t, ell)
                if rep is not None:
                    assert orthogonality_violations(g, rep) == []
                    assert ell is None or rep_locality(g, rep) <= ell


def test_find_orthogonal_rep_witnesses_are_pinned():
    # every witness (or refutation) on the atlas graphs with at most 5
    # vertices, for t up to 5 over GF(2), 4 over GF(3) and 3 over GF(5), and
    # the order enumerate_orthogonal_reps yields in F^3 on the atlas graphs
    # with at most 4 vertices.  The digest was taken from the search that kept
    # GF(2) vectors as int bitmasks: GF(3) and GF(5) match it exactly, GF(2)
    # with each vector's coordinates reversed (its candidate order read
    # coordinate 0 as the least significant bit)
    atlas = [Graph(h.number_of_nodes(), list(h.edges())) for h in graph_atlas_g() if h.number_of_nodes() <= 5]
    out = []
    for p, max_t in ((2, 5), (3, 4), (5, 3)):
        for g in atlas:
            for t in range(1, max_t + 1):
                for ell in (None, 1, 2, 3):
                    rep = find_orthogonal_rep(g, PrimeField(p), t, locality=ell)
                    out.append(None if rep is None else [list(v) for v in rep.vectors])
    for p in (2, 3):
        for g in atlas:
            if g.n <= 4:
                reps = enumerate_orthogonal_reps(g, PrimeField(p), 3)
                out.append([[list(v) for v in rep.vectors] for rep in reps])
    assert len(out) == 2582
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "7e7e14d96a8139da99233d3a531921b76d9d3c1bcbbf8b3409cc5ed70e692ef3"


@pytest.mark.parametrize(
    "g, p, t, ell, calls",
    [
        (complete_graph(4), 3, 3, None, 10),
        (kneser(5, 2), 2, 3, 2, 5),
        (cycle_graph(5), 3, 4, 2, 27),
    ],
)
def test_stabiliser_symmetry_break_is_kept(g, p, t, ell, calls):
    # the search calls orth_mask once per vector it tries; with the column
    # classes applied at the first vertex only these refutations make 14, 8
    # and 84 calls, and with no symmetry rule 57, 22 and 672
    tab = _span_table(p, t)
    counted = []
    orth_mask = tab.orth_mask

    def counting(j):
        counted.append(j)
        return orth_mask(j)

    tab.orth_mask = counting  # the table is cached, so the wrapper must go again
    try:
        assert find_orthogonal_rep(g, PrimeField(p), t, locality=ell) is None
    finally:
        del tab.orth_mask
    assert len(counted) == calls


def test_class_masks_keep_every_decision():
    # the search with every point allowed at every node (no symmetry rule)
    # decides each case as the real search does, on the atlas graphs with at
    # most 5 vertices
    atlas = [Graph(h.number_of_nodes(), list(h.edges())) for h in graph_atlas_g() if h.number_of_nodes() <= 5]
    cases = [(g, ell) for g in atlas for ell in (None, 1, 2, 3)]
    for p, max_t in ((2, 5), (3, 4), (5, 3)):
        for t in range(1, max_t + 1):
            field, tab = PrimeField(p), _span_table(p, t)
            want = [find_orthogonal_rep(g, field, t, locality=ell) is not None for g, ell in cases]
            tab.class_mask = lambda k, every=(1 << tab.npts) - 1: every
            try:
                got = [find_orthogonal_rep(g, field, t, locality=ell) is not None for g, ell in cases]
            finally:
                del tab.class_mask
            assert got == want, (p, t)


def test_orthogonal_searches_need_no_recursion():
    # one search frame per assigned vertex, past the default recursion limit
    assert find_orthogonal_rep(cycle_graph(2000), GF2, 2, locality=2) is not None
    assert find_orthogonal_rep(cycle_graph(1999), GF2, 3, locality=2) is None
    path = Graph(1500, [(v, v + 1) for v in range(1499)])
    reps = list(enumerate_orthogonal_reps(path, GF2, 2))
    assert len(reps) == 2
    assert all(orthogonality_violations(path, rep) == [] for rep in reps)
    assert find_orthogonal_rep(path, GF2, 2) in reps
    rep = find_independent_rep(path, GF2, 2)
    assert rep is not None and independence_violations(path, rep) == []


def _recursive_search_order(g: Graph) -> list[int]:
    # the order before packed keys: a tuple key per unplaced vertex per step
    if g.n == 0:
        return []
    adj = g.adj
    deg = [a.bit_count() for a in adj]
    order = [max(range(g.n), key=lambda v: (deg[v], -v))]
    placed = 1 << order[0]
    unplaced = [v for v in range(g.n) if v != order[0]]
    while unplaced:
        nxt = max(unplaced, key=lambda v: ((adj[v] & placed).bit_count(), deg[v], -v))
        unplaced.remove(nxt)
        order.append(nxt)
        placed |= 1 << nxt
    return order


def _recursive_find_orthogonal_rep(g: Graph, p: int, t: int, locality=None):
    # the search before the explicit stack: one recursive call per vertex,
    # domains and spans copied per candidate, rank events narrowed by a helper
    tab = _span_table(p, t)
    n = g.n
    if n == 0:
        return ()
    if locality is not None and locality < 1:
        return None
    if locality is not None and locality >= t:
        locality = None
    order = _recursive_search_order(g)
    closed = [g.closed(v) for v in range(n)]
    rest = []
    unplaced = (1 << n) - 1
    for v in order:
        unplaced &= ~(1 << v)
        rest.append(unplaced)
    later_nbrs = [_bits(g.adj[v] & rest[i]) for i, v in enumerate(order)]
    span, rank, extend, orth_mask = tab.span, tab.rank, tab.extend, tab.orth_mask
    refine, class_mask = tab.refine, tab.class_mask
    chosen = [0] * n

    def narrow(dom, vertices, mask):
        for u in vertices:
            d = dom[u] & mask
            if not d:
                return False
            dom[u] = d
        return True

    def place(i, c, dom, spans):
        for w in _bits(closed[order[i]]):
            if rank[spans[w]] < locality:
                s = spans[w] = extend(spans[w], c)
                if rank[s] == locality and not narrow(dom, _bits(closed[w] & rest[i]), span[s]):
                    return False
        return True

    def rec(i, dom, spans, k):
        if i == n:
            return True
        v = order[i]
        for c in _bits(dom[v] & class_mask(k)):
            nd = dom[:]
            if not narrow(nd, later_nbrs[i], orth_mask(c)):
                continue
            ns = spans
            if spans is not None:
                ns = spans[:]
                if not place(i, c, nd, ns):
                    continue
            chosen[v] = c
            if rec(i + 1, nd, ns, refine(k, c)):
                return True
        return False

    spans = [0] * n if locality is not None else None
    if not rec(0, [tab.aniso] * n, spans, 0):
        return None
    return tuple(tab.point(c) for c in chosen)


def _recursive_orthogonal_walk(g: Graph, tab):
    # the walk before the single frame: one generator per vertex
    n = g.n
    earlier = [_bits(g.adj[v] & ((1 << v) - 1)) for v in range(n)]
    aniso, orth_mask = tab.aniso, tab.orth_mask
    chosen = [0] * (n - 1)

    def domain(v):
        dom = aniso
        for u in earlier[v]:
            dom &= orth_mask(chosen[u])
        return dom

    def rec(v):
        if v == n - 1:
            yield chosen, domain(v)
            return
        for c in _bits(domain(v)):
            chosen[v] = c
            yield from rec(v + 1)

    yield from rec(0)


def _random_graph(rng: random.Random, n: int) -> Graph:
    density = rng.uniform(0.05, 0.95)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])


def _traced(tab, search):
    """search() with the points it passes to tab.orth_mask, in call order."""
    points = []
    orth_mask = tab.orth_mask

    def recording(j):
        points.append(j)
        return orth_mask(j)

    tab.orth_mask = recording  # the table is cached, so the wrapper must go again
    try:
        return search(), points
    finally:
        del tab.orth_mask


def test_find_orthogonal_rep_explores_the_recursive_tree():
    # the same candidates tried in the same order, and the same witness, as
    # the recursive search, on the atlas graphs with at most 6 vertices and
    # on seeded random graphs with at most 9; a found witness's last vertex
    # is not placed, so the recursive search makes one call more
    atlas = [Graph(h.number_of_nodes(), list(h.edges())) for h in graph_atlas_g() if h.number_of_nodes() <= 6]
    rng = random.Random(16)
    cases = [(g, p, t) for p, max_t in ((2, 5), (3, 4), (5, 3)) for g in atlas for t in range(1, max_t + 1)]
    for p, t in ((2, 3), (2, 4), (3, 3), (3, 4), (5, 3)):
        cases += [(_random_graph(rng, rng.randint(7, 9)), p, t) for _ in range(40)]
    for g, p, t in cases:
        tab = _span_table(p, t)
        for ell in (None, 1, 2, 3):
            rep, got = _traced(tab, lambda: find_orthogonal_rep(g, PrimeField(p), t, locality=ell))
            want_rep, want = _traced(tab, lambda: _recursive_find_orthogonal_rep(g, p, t, ell))
            if want_rep is not None:
                want = want[:-1]  # the last vertex's first candidate always fits, unplaced
            assert got == want, (g.edges(), p, t, ell)
            assert (None if rep is None else rep.vectors) == want_rep, (g.edges(), p, t, ell)


def test_orthogonal_walk_matches_recursive_walk():
    # started at the singleton classes, in index order, the walk yields the
    # recursive walk's leaves whose last domain is nonempty, in its order
    atlas = [Graph(h.number_of_nodes(), list(h.edges())) for h in graph_atlas_g() if 1 <= h.number_of_nodes() <= 5]
    rng = random.Random(16)
    graphs = atlas + [_random_graph(rng, rng.randint(6, 7)) for _ in range(20)]
    for p, t in ((2, 3), (3, 3), (5, 2)):
        tab = _span_table(p, t)
        for g in graphs:
            walk = _orthogonal_walk(g, tab, range(g.n), k=tab.singletons)
            got = [(tuple(chosen[:-1]), last) for chosen, last in walk]
            want = [(tuple(chosen), last) for chosen, last in _recursive_orthogonal_walk(g, tab) if last]
            assert got == want, (g.edges(), p, t)


def test_gadget_walk_forward_checks():
    # over GF(5) a walk without forward checking makes 4,825 orth_mask calls
    # for 1,080 leaves, 840 of them with an empty last domain
    tab = _span_table(5, 3)
    g = gadget_graph()
    leaves, points = _traced(tab, lambda: sum(1 for _ in _orthogonal_walk(g, tab, range(g.n), k=tab.singletons)))
    assert (len(points), leaves) == (1945, 240)


def test_search_order_matches_recursive_order():
    graphs = [Graph(h.number_of_nodes(), list(h.edges())) for h in graph_atlas_g()]
    rng = random.Random(16)
    graphs += [_random_graph(rng, rng.randint(0, 40)) for _ in range(3000)]
    for g in graphs:
        assert _search_order(g) == _recursive_search_order(g), g.edges()


def test_find_independent_rep_dimension_threshold():
    # the complete graph needs n dimensions, one fewer never suffices
    k4 = complete_graph(4)
    assert find_independent_rep(k4, GF2, 3) is None
    rep = find_independent_rep(k4, GF2, 4)
    assert rep is not None
    assert independence_violations(k4, rep) == []


def test_find_independent_rep_edgeless_needs_one_dimension():
    rep = find_independent_rep(empty_graph(5), GF5, 1)
    assert rep is not None
    assert independence_violations(empty_graph(5), rep) == []


def _recursive_find_independent_rep(g: Graph, p: int, t: int):
    # the search before the candidate mask: one recursive call per vertex,
    # each candidate extends every neighbor's span, is checked against the
    # assigned neighbors, and is undone
    n = g.n
    if n == 0:
        return ()
    if t < 1:
        return None
    tab = _span_table(p, t)
    span, extend = tab.span, tab.extend
    order = _recursive_search_order(g)
    nbrs = [_bits(g.adj[v]) for v in range(n)]
    nbr_span = [0] * n
    chosen = [-1] * n

    def rec(i: int, rank: int) -> bool:
        if i == n:
            return True
        v = order[i]
        options = _bits(span[tab.standard(rank)] & ~span[nbr_span[v]])
        fresh = tab.unit(rank) if rank < t else None
        if fresh is not None:
            options.append(fresh)
        for c in options:
            saved = [nbr_span[u] for u in nbrs[v]]
            for u in nbrs[v]:
                nbr_span[u] = extend(nbr_span[u], c)
                if chosen[u] >= 0 and span[nbr_span[u]] >> chosen[u] & 1:
                    break
            else:
                chosen[v] = c
                if rec(i + 1, rank + (c == fresh)):
                    return True
                chosen[v] = -1
            for u, old in zip(nbrs[v], saved):
                nbr_span[u] = old
        return False

    if not rec(0, 0):
        return None
    return tuple(tab.point(c) for c in chosen)


def test_find_independent_rep_matches_recursive_search():
    # the same witness, or the same refutation, as the recursive search on
    # every atlas graph with at most 6 vertices over GF(2), GF(3) and GF(5)
    # for t = 0..n, and on seeded random graphs with 7 to 9 vertices
    atlas = [Graph(h.number_of_nodes(), list(h.edges())) for h in graph_atlas_g() if h.number_of_nodes() <= 6]
    cases = [(g, p, t) for p in (2, 3, 5) for g in atlas for t in range(g.n + 1)]
    rng = random.Random(18)
    for g in [_random_graph(rng, rng.randint(7, 9)) for _ in range(200)]:
        cases += [(g, p, t) for p in (2, 3) for t in range(1, 5)]
    assert len(cases) == 5728
    for g, p, t in cases:
        rep = find_independent_rep(g, PrimeField(p), t)
        want = _recursive_find_independent_rep(g, p, t)
        assert (None if rep is None else rep.vectors) == want, (g.edges(), p, t)


def _gf_rank(vectors, p: int) -> int:
    """Rank over GF(p) by plain elimination, independent of orthograph."""
    rows = [list(v) for v in vectors]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] % p:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def _brute_force_independent_rep_exists(g: Graph, p: int, t: int) -> bool:
    """Whether some assignment of vectors of GF(p)^t is an independent
    representation of g.  Tries every assignment of vectors with leading
    coefficient 1 (scaling a vector changes no span)."""
    if g.n == 0:
        return True
    vecs = [v for v in itertools.product(range(p), repeat=t) if next((x for x in v if x), None) == 1]
    nbrs = [[u for u in range(g.n) if g.has_edge(u, v)] for v in range(g.n)]

    @functools.lru_cache(maxsize=None)
    def outside(v: tuple, span: frozenset) -> bool:
        return _gf_rank(list(span) + [v], p) > _gf_rank(list(span), p)

    return any(
        all(outside(a[v], frozenset(a[u] for u in nbrs[v])) for v in range(g.n))
        for a in itertools.product(vecs, repeat=g.n)
    )


@pytest.mark.parametrize("p", [2, 3])
def test_find_independent_rep_agrees_with_brute_force(p):
    field = PrimeField(p)
    for nxg in graph_atlas_g():
        if nxg.number_of_nodes() > 4:
            break
        g = Graph(nxg.number_of_nodes(), list(nxg.edges()))
        for t in range(4):
            rep = find_independent_rep(g, field, t)
            assert (rep is not None) == _brute_force_independent_rep_exists(g, p, t), (g.edges(), p, t)
            if rep is not None:
                assert rep.t == t
                assert independence_violations(g, rep) == []


def test_find_independent_rep_witnesses_are_pinned():
    # every witness (or refutation) on the atlas graphs with at most 5
    # vertices, over GF(2), GF(3) and GF(5), for every t from 0 to n; the
    # digest was taken from the search that copied an echelon basis per node
    out = []
    for p in (2, 3, 5):
        for nxg in graph_atlas_g():
            if nxg.number_of_nodes() > 5:
                break
            g = Graph(nxg.number_of_nodes(), list(nxg.edges()))
            for t in range(g.n + 1):
                rep = find_independent_rep(g, PrimeField(p), t)
                out.append(None if rep is None else [list(v) for v in rep.vectors])
    assert len(out) == 852
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "d9c0f776dfbe238850925b358ce19aac4ffee981523940c09229fbce3b7cb2f3"


@pytest.mark.parametrize("p", [2, 3])
def test_find_independent_rep_skips_vectors_in_the_neighbor_span(p):
    # 7-vertex graphs whose first witness in F^3 depends on skipping the
    # vectors already in a vertex's neighbor span (graphs up to 6 vertices
    # never do); witnesses pinned from the echelon-basis search
    cases = [
        ([(1, 2), (1, 3), (1, 4), (1, 5), (2, 6), (3, 4), (5, 6)], "3122331"),
        ([(0, 1), (0, 4), (1, 4), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5)], "2323113"),
    ]
    e = {"1": (1, 0, 0), "2": (0, 1, 0), "3": (0, 0, 1)}
    for edges, pinned in cases:
        g = Graph(7, edges)
        assert find_independent_rep(g, PrimeField(p), 2) is None
        rep = find_independent_rep(g, PrimeField(p), 3)
        assert rep.vectors == tuple(e[x] for x in pinned)
        assert independence_violations(g, rep) == []


@pytest.mark.parametrize("p", [2, 3, 5])
def test_minrank_petersen_witness_is_pinned(p):
    res = minrank(kneser(5, 2), PrimeField(p))
    assert res.value == 5
    e = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    assert res.witness.vectors == (e[0], e[1], e[2], e[3], e[3], e[1], e[4], e[4], e[2], e[0])
    assert res.witness.t == 5
    assert independence_violations(complement(kneser(5, 2)), res.witness) == []


def test_minrank_baselines():
    assert minrank(complete_graph(4), GF2).value == 1
    assert minrank(empty_graph(4), GF2).value == 4
    assert minrank(complete_graph(4), GF5).value == 1


def test_minrank_c5_with_witness():
    res = minrank(cycle_graph(5), GF2)
    assert res.value == 3
    assert res.witness.t == 3
    assert independence_violations(complement(cycle_graph(5)), res.witness) == []


def test_minrank_petersen_gf2():
    # sandwiched between the independence-number bound and chromatic bound
    res = minrank(kneser(5, 2), GF2)
    assert 4 <= res.value <= 7


def test_minrank_cap():
    assert minrank(empty_graph(12), GF2).value == 12
    with pytest.raises(CapExceededError, match="minrank cap 12 exceeded"):
        minrank(empty_graph(13), GF2)


def test_minrank_starts_at_the_independence_number(monkeypatch):
    # alpha(g) is a clique of the complement, a lower bound on minrank
    calls = []

    def counted(h, field, t):
        calls.append(t)
        return find_independent_rep(h, field, t)

    monkeypatch.setattr(ortho, "find_independent_rep", counted)
    res = minrank(kneser(5, 2), GF2)  # alpha = 4, minrank = 5
    assert (res.value, res.lower_bound_reason, calls) == (5, "exhausted-search", [4, 5])
    assert minrank(complete_graph(4), GF2).lower_bound_reason == "clique"
    res = minrank(empty_graph(4), GF3)
    assert (res.value, res.lower_bound_reason) == (4, "clique")
    assert minrank(cycle_graph(5), GF2).lower_bound_reason == "exhausted-search"


@pytest.mark.parametrize("field", [GF2, GF3], ids=["GF2", "GF3"])
def test_the_ladder_answers_the_empty_graph(field):
    # the general path, no shortcut: the value is the analytic bound 0
    g = Graph(0)
    results = (
        chromatic_number(g),
        local_chromatic_number(g),
        orthogonality_dimension(g, field),
        local_orthogonality_dimension(g, field),
        minrank(g, field),
    )
    assert [(r.param, r.value, r.lower_bound_reason, r.dim_cap) for r in results] == [
        ("chi", 0, "clique", None),
        ("chi_local", 0, "bipartite-test", None),
        ("od", 0, "clique", None),
        ("od_local", 0, "bipartite-test", 1),
        ("minrank", 0, "clique", None),
    ]
    assert [r.witness for r in results] == [(), ()] + [Representation(field, 0, ())] * 3
    assert rep_locality(g, results[3].witness) == 0


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: orthogonality_dimension(Graph(0), QQ), "finite prime field", id="od-Q"),
    pytest.param(lambda: local_orthogonality_dimension(Graph(0), QQ), "finite prime field", id="od-local-Q"),
    pytest.param(lambda: minrank(Graph(0), QQ), "finite prime field", id="minrank-Q"),
    pytest.param(lambda: find_independent_rep(Graph(0), QQ, 1), "finite prime field", id="independent-Q"),
    pytest.param(lambda: find_independent_rep(cycle_graph(4), GF2, -1), "negative dimension -1", id="independent-t"),
    pytest.param(lambda: has_local_rep(cycle_graph(4), GF2, 3, dim_cap=-1), "negative dimension -1", id="bipartite-cap"),
    pytest.param(lambda: has_local_rep(cycle_graph(5), GF2, 3, dim_cap=-1), "negative dimension -1", id="search-cap"),
    pytest.param(lambda: local_orthogonality_dimension(Graph(0), GF2, dim_cap=-1), "negative dimension -1", id="od-local-cap"),
])
def test_every_vector_call_checks_its_field_and_dimension_first(call, message):
    # one rule, before any shortcut: the empty graph, a bipartite graph and
    # t < 1 are no exception
    with pytest.raises(ValueError, match=message):
        call()


def test_empty_graph_has_no_negative_locality():
    assert find_orthogonal_rep(Graph(0), GF2, 1, locality=-1) is None
    assert not has_local_rep(Graph(0), GF2, -1)
    assert find_orthogonal_rep(Graph(0), GF2, 1, locality=0) == Representation(GF2, 1, ())
    assert has_local_rep(Graph(0), GF2, 0)


def test_negative_dimensions_are_refused(monkeypatch):
    with pytest.raises(ValueError, match="negative dimension t = -1"):
        Representation(GF2, -1, ())
    with pytest.raises(ValueError, match="negative dimension"):
        find_orthogonal_rep(Graph(0), GF2, -1)
    with pytest.raises(ValueError, match="negative dimension"):
        find_independent_rep(Graph(0), GF2, -3)
    with pytest.raises(ValueError, match="negative dimension"):
        next(enumerate_orthogonal_reps(Graph(0), GF2, -2))
    # refused before any table is built
    monkeypatch.setattr("orthograph.linalg._SpanTable", None)
    with pytest.raises(ValueError, match=r"GF\(3\)\^-2 has a negative dimension"):
        _span_table(3, -2)
    assert Representation(GF2, 0, ()).t == 0


def test_span_tables_past_max_points_are_refused():
    assert MAX_POINTS == 2**20
    assert _span_table(2, 20).npts == 2**20 - 1
    assert _span_table(31, 5).npts == 954305  # minrank(Petersen, GF(31)) = 5 stays admitted
    for p, t in ((2, 21), (31, 6), (251, 4), (251, 10**9)):
        with pytest.raises(CapExceededError, match=f"GF\\({p}\\)\\^{t} has more than MAX_POINTS"):
            _span_table(p, t)
    # decided before any search, for any t
    with pytest.raises(CapExceededError):
        has_local_rep(kneser(5, 2), PrimeField(251), 3, dim_cap=10**9)
    with pytest.raises(CapExceededError):
        find_independent_rep(complete_graph(3), GF2, 10**9)
