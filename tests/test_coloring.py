"""Exact chromatic number, local chromatic number, and max clique."""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest
from networkx.generators.atlas import graph_atlas_g

from orthograph.coloring import (
    CapExceededError,
    ImproperColoringError,
    _ladder,
    check_proper,
    chromatic_number,
    coloring_locality,
    greedy_coloring,
    k_colorable,
    local_chromatic_number,
    local_lower_bound,
    locality_decision,
    max_clique,
    num_colors,
)
from orthograph.graphs import (
    MAX_VERTICES,
    Graph,
    _bits,
    complete_graph,
    cycle_graph,
    empty_graph,
    kneser,
    schrijver,
)
from orthograph.reduction import Cnf, build_g


def _atlas(max_n: int):
    for nxg in graph_atlas_g():
        if nxg.number_of_nodes() > max_n:
            return
        yield Graph(nxg.number_of_nodes(), list(nxg.edges()))


def _digest(out) -> str:
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


def test_check_proper_accepts_and_rejects():
    g = cycle_graph(4)
    check_proper(g, [0, 1, 0, 1])
    with pytest.raises(ImproperColoringError, match="share color"):
        check_proper(g, [0, 0, 1, 1])
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


def test_greedy_coloring_is_pinned():
    # DSATUR order: most neighbor colors, then highest degree, then lowest index
    out = []
    for g in _atlas(6):
        colors = greedy_coloring(g)
        check_proper(g, colors)
        out.append(colors)
    assert len(out) == 209
    assert _digest(out) == "5074452a33779261c4992ab9bd92ffc56ad77f9db626d637647a0d8ad363c37b"
    # the triangle's degree-3 vertex first, then vertex 2 (degree 2, lower index than 3)
    assert greedy_coloring(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 1)])) == [1, 0, 1, 2]


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
    # one search frame per colored vertex, past the default recursion limit,
    # up to the largest even and odd cycles Graph allows
    for n in (1000, MAX_VERTICES):
        g = cycle_graph(n)
        colors = k_colorable(g, 3)
        assert colors is not None
        check_proper(g, colors)
        assert colors[:4] == [0, 1, 0, 1]
    assert k_colorable(cycle_graph(1001), 2) is None
    assert k_colorable(cycle_graph(MAX_VERTICES - 1), 2) is None
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


def _random_3cnf(seed: int, num_vars: int) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    return [
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3))
        for _ in range(round(4.3 * num_vars))
    ]


def _satisfiable(num_vars: int, clauses) -> bool:
    return any(
        all(any((lit > 0) == a[abs(lit) - 1] for lit in c) for c in clauses)
        for a in itertools.product((False, True), repeat=num_vars)
    )


def test_reduction_graph_colorings_are_pinned():
    # 3-colorings of the 189- to 238-vertex reduction graphs of seeded 3-CNFs,
    # large sparse graphs on which every vertex's saturation changes often
    cases = [(8, 0, True), (8, 2, False), (9, 3, True), (9, 5, False),
             (10, 1, True), (10, 4, True), (10, 24, False)]
    out = []
    for num_vars, seed, sat in cases:
        clauses = _random_3cnf(seed, num_vars)
        assert _satisfiable(num_vars, clauses) == sat
        g = build_g(Cnf(num_vars, clauses)).graph
        assert g.n == 3 + 2 * num_vars + 5 * len(clauses)
        colors = k_colorable(g, 3)
        assert (colors is not None) == sat
        if colors is not None:
            check_proper(g, colors)
        greedy = greedy_coloring(g)
        check_proper(g, greedy)
        out.append([colors, greedy])
    assert _digest(out) == "689fa48fb0eaf2065611d5ca854259949d60cbe5b9d5490ed2778211007adaf5"


def _bucket_dsatur(g: Graph, k: int):
    # the search before saturation bit planes: one bucket per saturation s
    # of the uncolored vertices with s neighbor colors, as bits over ranks
    # by (-degree, index), updated neighbor by neighbor
    n = g.n
    if n == 0:
        return []
    if k <= 0:
        return None
    colors = [-1] * n
    sat = [0] * n
    nbrs = [[u for u in range(n) if a >> u & 1] for a in g.adj]
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    rank_bit = {v: 1 << r for r, v in enumerate(order)}
    bucket = [(1 << n) - 1] + [0] * min(k, g.degree(order[0]))
    used = 0
    stack = [[order[0], 1, 0, 0, None]]
    while stack:
        frame = stack[-1]
        v, limit, c, prev_used, touched = frame
        if touched is not None:
            for u in touched:
                s = sat[u].bit_count()
                bucket[s] ^= rank_bit[u]
                bucket[s - 1] |= rank_bit[u]
                sat[u] ^= 1 << c
            used = prev_used
            colors[v] = -1
            bucket[sat[v].bit_count()] |= rank_bit[v]
            c += 1
        while c < limit and sat[v] >> c & 1:
            c += 1
        if c >= limit:
            stack.pop()
            continue
        colors[v] = c
        bucket[sat[v].bit_count()] ^= rank_bit[v]
        frame[2:] = c, used, []
        used = max(used, c + 1)
        touched = frame[4]
        dead = False
        for u in nbrs[v]:
            if colors[u] < 0 and not (sat[u] >> c & 1):
                s = sat[u].bit_count()
                bucket[s] ^= rank_bit[u]
                bucket[s + 1] |= rank_bit[u]
                sat[u] |= 1 << c
                touched.append(u)
                dead = dead or s + 1 == k
        if dead:
            continue
        for b in reversed(bucket):
            if b:
                stack.append([order[(b & -b).bit_length() - 1], min(k, used + 1), 0, 0, None])
                break
        else:
            return colors.copy()
    return None


def test_dsatur_agrees_with_bucket_search():
    rng = random.Random(15)
    graphs = []
    for _ in range(300):
        n = rng.randint(1, 40)
        density = rng.uniform(0.05, 0.9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        graphs.append(Graph(n, edges))
    for seed in range(4):
        graphs.append(build_g(Cnf(5, _random_3cnf(seed, 5))).graph)
    for g in graphs:
        assert greedy_coloring(g) == _bucket_dsatur(g, g.n)
        for k in sorted({1, 2, 3, 4, 5, g.n}):
            assert k_colorable(g, k) == _bucket_dsatur(g, k)


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
    # DEFAULT_CHI_CAP and DEFAULT_CLIQUE_CAP, 64, refuse 65 vertices
    assert chromatic_number(empty_graph(64)).value == 1
    with pytest.raises(CapExceededError, match="chromatic_number cap 64 exceeded"):
        chromatic_number(empty_graph(65))
    assert max_clique(empty_graph(64)).value == 1
    with pytest.raises(CapExceededError, match="max_clique cap 64 exceeded"):
        max_clique(empty_graph(65))


def test_locality_decision_on_odd_cycle():
    c5 = cycle_graph(5)
    assert locality_decision(c5, 2) is None
    colors = locality_decision(c5, 3)
    assert colors is not None
    assert coloring_locality(c5, colors) <= 3


def test_locality_decision_long_cycles_need_no_recursion():
    # one search frame per colored vertex, past the default recursion limit,
    # up to the largest cycles Graph allows, on which a search that scans the
    # vertices at every node takes seconds
    for n in (1100, 1101, MAX_VERTICES):
        g = cycle_graph(n)
        colors = locality_decision(g, 3)
        assert colors is not None
        assert coloring_locality(g, colors) <= 3
    for n in (1101, MAX_VERTICES - 1):
        assert locality_decision(cycle_graph(n), 2) is None


def _proper(g: Graph, colors) -> bool:
    try:
        check_proper(g, colors)
    except ImproperColoringError:
        return False
    return True


def _brute_locality(g: Graph, ell: int) -> bool:
    # every coloring up to renaming colors: restricted growth strings
    colorings = [[]]
    for _ in range(g.n):
        colorings = [c + [x] for c in colorings for x in range(max(c, default=-1) + 2)]
    return any(_proper(g, c) and coloring_locality(g, c) <= ell for c in colorings)


def _locality_answers(graphs) -> list:
    # every answer for ell = 1..4, each checked; decisions on graphs with at
    # most 5 vertices also match brute force
    out = []
    for g in graphs:
        for ell in (1, 2, 3, 4):
            colors = locality_decision(g, ell)
            if colors is not None:
                assert coloring_locality(g, colors) <= ell
            if g.n <= 5:
                assert (colors is not None) == _brute_locality(g, ell)
            out.append(colors)
    return out


def test_locality_decision_answers_are_pinned():
    # the atlas graphs with at most 6 vertices, in atlas order
    out = _locality_answers(_atlas(6))
    assert len(out) == 836 and sum(c is None for c in out) == 399
    assert _digest(out) == "c89597a7991930d56ae4ed7e2a7ce6346016943b2178b6f533d6b37cfe8c1976"


def test_locality_decision_answers_on_seven_vertices_are_pinned():
    # the 1,044 atlas graphs with exactly 7 vertices, in atlas order; the
    # digest was taken from the search that scanned the vertices for its
    # branching vertex and pruned only at the first one without options
    out = _locality_answers(g for g in _atlas(7) if g.n == 7)
    assert len(out) == 4176 and sum(c is None for c in out) == 2435
    assert _digest(out) == "c04027cbbb8bf2181198158df6d2fcd8269a1c7833d0c3a087a83a4b3e07f00f"


def _closure_locality_decision(g: Graph, ell: int):
    # the search as it was before it became one flat loop: a node was a call
    # of the nested branch(), which returned True, None or a new frame; kept
    # here, without its palette limit, to check that the loop explores the
    # same tree
    n = g.n
    if n == 0:
        return []
    if ell < 1:
        return None
    closed = [g.closed(v) for v in range(n)]
    colors = [-1] * n
    uncolored = (1 << n) - 1
    near, blk, sat_cover, counts = [], [], 0, (0,) * ell.bit_length()

    def branch():
        if not uncolored:
            return True
        options = [uncolored & ~(taken | blocked) for taken, blocked in zip(near, blk)]
        options.append(uncolored & ~sat_cover)
        planes = []
        somewhere = 0
        for carry in options:
            somewhere |= carry
            for i, plane in enumerate(planes):
                if not carry:
                    break
                planes[i] = plane ^ carry
                carry &= plane
            if carry:
                planes.append(carry)
        if uncolored & ~somewhere:
            return None
        fewest = uncolored
        for plane in reversed(planes):
            if fewest & ~plane:
                fewest &= ~plane
        v = (fewest & -fewest).bit_length() - 1
        return [v, [c for c, m in enumerate(options) if m >> v & 1], 0, near, blk, sat_cover, counts]

    stack = []
    top = branch()
    while True:
        if top is True:
            return colors.copy()
        if top is not None:
            stack.append(top)
        if not stack:
            return None
        frame = stack[-1]
        v, options, k, near, blk, sat_cover, counts = frame
        if k == len(options):
            colors[v] = -1
            uncolored |= 1 << v
            stack.pop()
            top = None
            continue
        c = options[k]
        frame[2] = k + 1
        colors[v] = c
        uncolored &= ~(1 << v)
        near, blk = near.copy(), blk.copy()
        if c == len(near):
            near.append(0)
            blk.append(sat_cover)
        fresh = closed[v] & ~near[c]
        near[c] |= closed[v]
        carry, full, bumped = fresh, fresh, []
        for i, plane in enumerate(counts):
            plane, carry = plane ^ carry, plane & carry
            bumped.append(plane)
            full &= plane if ell >> i & 1 else ~plane
        counts = tuple(bumped)
        for w in _bits(full):
            sat_cover |= closed[w]
            for d, m in enumerate(near):
                if not m >> w & 1:
                    blk[d] |= closed[w]
        top = branch()


def test_locality_decision_matches_closure_search():
    # random graphs on 8 to 10 vertices, past the atlas, at several densities
    rng = random.Random(23)
    refuted = 0
    for trial in range(600):
        n = rng.randint(8, 10)
        p = (0.25, 0.45, 0.65)[trial % 3]
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        for ell in range(1, 6):
            colors = locality_decision(g, ell)
            assert colors == _closure_locality_decision(g, ell)
            refuted += colors is None
    assert refuted == 1558


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


def _local_chromatic_number_under_chi(g: Graph):
    """local_chromatic_number with the exact chromatic number's witness as
    the top of its ladder."""
    lb, reason = local_lower_bound(g)
    top = chromatic_number(g).witness
    return _ladder("chi_local", lb, coloring_locality(g, top), lambda ell: locality_decision(g, ell), reason, top)


def test_local_chromatic_number_matches_the_ladder_under_chi():
    # a greedy top in place of an optimal coloring keeps every value and
    # lower-bound reason, on every atlas graph with 1-7 vertices
    for g in _atlas(7):
        if g.n:
            want, got = _local_chromatic_number_under_chi(g), local_chromatic_number(g)
            assert (got.value, got.lower_bound_reason) == (want.value, want.lower_bound_reason), g.edges()
            assert coloring_locality(g, got.witness) == got.value


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


def test_local_chromatic_number_of_kneser_graphs():
    # chi_local = chi on K(8,3) (56 vertices) and K(9,3) (84 vertices)
    g = kneser(8, 3)
    res = local_chromatic_number(g)
    assert res.value == 4 and coloring_locality(g, res.witness) == 4
    # K(9,3) is past DEFAULT_CHI_LOCAL_CAP, so its decisions run directly:
    # an odd cycle bounds it below by 3, and 3 and 4 are refuted
    g = kneser(9, 3)
    assert g.bipartition() is None
    assert locality_decision(g, 3) is None and locality_decision(g, 4) is None
    assert coloring_locality(g, locality_decision(g, 5)) == 5


def test_local_chromatic_below_chromatic():
    # the local chromatic number of the 9-vertex Schrijver graph S(6,2) is 4
    # while using possibly more colors; chi equals 4 here so compare on
    # K(6,3) where chi = 2 = chi_local but colorings may use many colors
    g = kneser(6, 3)
    res = local_chromatic_number(g)
    assert res.value == 2
    assert res.value <= chromatic_number(g).value


def test_local_chromatic_number_cap():
    # DEFAULT_CHI_LOCAL_CAP, 56, refuses 57 vertices
    assert local_chromatic_number(empty_graph(56)).value == 1
    with pytest.raises(CapExceededError, match="local_chromatic_number cap 56 exceeded"):
        local_chromatic_number(empty_graph(57))
