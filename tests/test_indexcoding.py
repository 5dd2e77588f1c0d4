"""Linear index codes: representing matrices, encode/decode, the three
construction routes, and randomized compression."""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest

from orthograph.fields import GF2, PrimeField
from orthograph.graphs import Graph, complement, complete_graph, cycle_graph, empty_graph, kneser
from orthograph.indexcoding import (
    IndexCode,
    RepresentingPatternError,
    _smallest_combination,
    build_code,
    check_representing,
    code_by_method,
    code_from_coloring,
    code_from_local_coloring,
    compress_attempt,
    compress_representation,
    decode_one,
    encode,
    representing_matrix,
    simulate,
)
from orthograph.linalg import Matrix, rank, vandermonde
from orthograph.ortho import (
    Representation,
    coloring_to_rep,
    independence_violations,
    minrank,
)

GF5 = PrimeField(5)


def test_check_representing_pattern():
    g = cycle_graph(4)
    ok = Matrix(GF2, ((1, 1, 0, 1), (1, 1, 1, 0), (0, 1, 1, 1), (1, 0, 1, 1)))
    check_representing(g, ok)
    with pytest.raises(RepresentingPatternError, match="diagonal"):
        check_representing(g, Matrix(GF2, ((0, 1, 0, 1),) * 4))
    with pytest.raises(RepresentingPatternError, match="non-adjacent"):
        check_representing(g, Matrix(GF2, ((1, 1, 1, 1),) * 4))


def test_representing_matrix_complete_graph_rank_one():
    g = complete_graph(3)
    rep = Representation(GF5, 1, ((1,), (1,), (1,)), kind="independent")
    m = representing_matrix(g, rep)
    assert rank(m) == 1
    assert all(x != 0 for row in m.rows for x in row)


def test_representing_matrix_edgeless_identity():
    g = empty_graph(3)
    rep = Representation(GF2, 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), kind="independent")
    m = representing_matrix(g, rep)
    assert m.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_representing_matrix_rejects_invalid_rep():
    g = complete_graph(3)
    bad = Representation(GF2, 1, ((0,), (1,), (1,)), kind="independent")
    with pytest.raises(ValueError, match="independent"):
        representing_matrix(g, bad)


def test_c5_minrank_code_length_three():
    c5 = cycle_graph(5)
    m = representing_matrix(c5, minrank(c5, GF2).witness)
    assert rank(m) == 3
    code = build_code(c5, m)
    assert code.length == 3
    assert simulate(code, 100, seed=0).failures == 0


def test_complete_graph_sum_scheme():
    g = complete_graph(3)
    code = code_by_method(g, GF5, "minrank")
    assert code.length == 1
    x = (1, 2, 3)
    y = encode(code, x)
    assert len(y) == 1
    assert decode_one(code, 0, y, {1: 2, 2: 3}) == 1
    assert decode_one(code, 2, y, {0: 1, 1: 2}) == 3


def test_edgeless_graph_identity_code():
    g = empty_graph(3)
    code = code_by_method(g, GF2, "minrank")
    assert code.length == 3
    x = (1, 0, 1)
    y = encode(code, x)
    for i in range(3):
        assert decode_one(code, i, y, {}) == x[i]


def test_decode_requires_exact_side_information():
    g = cycle_graph(4)
    code = code_by_method(g, GF2, "minrank")
    y = encode(code, (1, 0, 1, 0))
    with pytest.raises(ValueError, match="side information"):
        decode_one(code, 0, y, {1: 0})  # vertex 0 also neighbors 3


def test_encode_rejects_wrong_length():
    code = code_by_method(complete_graph(3), GF2, "minrank")
    with pytest.raises(ValueError):
        encode(code, (1, 0))


def test_code_from_local_coloring_checks_hypothesis():
    g = empty_graph(3)  # complement is a triangle: closed neighborhoods need 3 colors
    with pytest.raises(ValueError, match="dependent"):
        code_from_local_coloring(g, [0, 1, 2], [(1, 0), (0, 1), (1, 1)], GF2)


def test_code_from_coloring_vandermonde_route():
    c5 = cycle_graph(5)
    code = code_from_coloring(c5, [0, 0, 1, 1, 2], GF5)  # proper on the complement
    assert code.length <= 3
    assert simulate(code, 50, seed=3).failures == 0


def test_code_from_coloring_small_field_greedy_route():
    # complement of C5 is C5 again; 3 color classes exceed GF(2), so the
    # greedy family route adds ceil(log2 5) = 3 dimensions at most
    c5 = cycle_graph(5)
    code = code_from_coloring(c5, [0, 0, 1, 1, 2], GF2)  # proper on the complement
    assert code.length <= 3 + 3
    assert simulate(code, 50, seed=4).failures == 0


def test_compress_representation_dimension_and_validity():
    c5 = cycle_graph(5)
    rep = coloring_to_rep(c5, [0, 1, 0, 1, 2], GF2)
    out = compress_representation(c5, rep, seed=0)
    assert out.rep.t == 3 + 3
    assert out.attempts >= 1
    assert independence_violations(c5, out.rep) == []


def test_compress_attempt_can_fail_and_retry():
    c5 = cycle_graph(5)
    rep = coloring_to_rep(c5, [0, 1, 0, 1, 2], GF2)
    outcomes = {compress_attempt(c5, rep, 6, seed) is not None for seed in range(40)}
    assert outcomes == {True, False}  # both outcomes occur across seeds


def test_random_map_sends_independent_pair_to_uniform_joint():
    # for linearly independent w1, w2 in GF(2)^3 and uniform A, the pair
    # (A w1, A w2) is uniform on GF(2)^3 x GF(2)^3; chi-squared over the
    # 64 cells with 2000 seeded samples stays under the 0.001 critical value
    from orthograph.linalg import random_matrix

    w1, w2 = (1, 0, 0), (0, 1, 0)
    counts = {}
    trials = 2000
    for seed in range(trials):
        a = random_matrix(3, 3, GF2, seed)
        key = (a.mul_vec(w1), a.mul_vec(w2))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 64
    expected = trials / 64
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert stat < 103.4, f"chi-squared statistic {stat} too large for df=63"


def test_simulate_zero_trials_and_corruption():
    c5 = cycle_graph(5)
    code = code_by_method(c5, GF2, "minrank")
    assert simulate(code, 0).trials == 0
    corrupted = IndexCode(
        code.field,
        code.graph,
        code.matrix,
        code.encode_matrix,
        tuple(tuple(1 - x for x in lam) for lam in code.decode_coeffs),
    )
    assert simulate(corrupted, 20, seed=0).failures > 0


def test_methods_agree_on_validity_and_minrank_is_best():
    g = cycle_graph(5)
    lengths = {}
    for method in ("minrank", "local", "compress"):
        code = code_by_method(g, GF5, method, seed=0)
        assert simulate(code, 30, seed=2).failures == 0
        lengths[method] = code.length
    assert lengths["minrank"] <= min(lengths.values())


def test_vandermonde_vectors_feed_local_coloring():
    c4 = cycle_graph(4)  # complement = two disjoint edges, 2-colorable locally 2
    colors = [0, 0, 1, 1]  # proper on the complement edges (0,2) and (1,3)
    vectors = vandermonde(2, 2, GF5)
    code = code_from_local_coloring(c4, colors, vectors, GF5)
    assert code.length <= 2
    assert simulate(code, 30, seed=5).failures == 0


def _scan_smallest_combination(p: int, basis, target):
    """Reference: scan all p^k coefficient vectors of span(basis) for the
    lexicographically smallest y with <y, target> != 0, or None."""
    best = None
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        y = tuple(sum(c * b[k] for c, b in zip(coeffs, basis)) % p for k in range(len(target)))
        if sum(a * b for a, b in zip(y, target)) % p and (best is None or y < best):
            best = y
    return best


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_smallest_combination_agrees_with_scan(p):
    rng = random.Random(p)
    field = PrimeField(p)
    raised = found = 0
    for _ in range(400):
        t = rng.randint(0, 5)
        k = rng.randint(0, 4 if p <= 3 else 3)
        # sparse entries make dependent bases and orthogonal targets common
        basis = [tuple(rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(t)) for _ in range(k)]
        target = tuple(rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(t))
        want = _scan_smallest_combination(p, basis, target)
        if want is None:
            raised += 1
            with pytest.raises(ValueError, match="no dual vector"):
                _smallest_combination(field, basis, target)
        else:
            found += 1
            assert _smallest_combination(field, basis, target) == want, (basis, target)
    assert raised > 50 and found > 50


def test_representing_matrix_of_star_over_gf31_is_pinned():
    # the complement of K3 + K1, where a scan over the 31^k nullspace
    # vectors takes seconds; the matrix is the one that scan picked
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    code = code_by_method(star, PrimeField(31), "compress", seed=0)
    assert code.matrix.rows == ((15, 15, 12, 29), (13, 13, 0, 0), (0, 0, 9, 0), (0, 0, 0, 4))
    assert code.encode_matrix.rows == ((15, 15, 12, 29), (13, 13, 0, 0), (0, 0, 9, 0))
    assert code.decode_coeffs == ((1, 0, 0), (0, 1, 0), (0, 0, 1), (29, 19, 13))
    assert simulate(code, 20, seed=1).failures == 0


GRAPHS = {"C5": cycle_graph(5), "C7": cycle_graph(7), "co-C7": complement(cycle_graph(7)), "Petersen": kneser(5, 2)}
# the graph, field and method of every code the index-code benchmark workload builds
PINNED_RUNS = [(g, p, m) for g in GRAPHS for p in (2, 3, 5) for m in ("minrank", "local", "compress")]
PINNED_RUNS += [(g, 31, m) for g in ("C5", "C7", "co-C7") for m in ("local", "compress")]


def test_index_codes_are_pinned():
    # one SHA-256 over each code's length, M, B, lambda and 30-trial report,
    # so a change to any code or to its simulation moves it
    h = hashlib.sha256()
    for name, p, method in PINNED_RUNS:
        code = code_by_method(GRAPHS[name], PrimeField(p), method, seed=5)
        r = simulate(code, 30, seed=5)
        rec = [name, p, method, code.length, code.matrix.rows, code.encode_matrix.rows, code.decode_coeffs,
               [r.trials, r.failures, r.length]]
        h.update(json.dumps(rec).encode() + b"\n")
    assert h.hexdigest() == "61ce01ce01a13d8f9542afe6826d47882eb7fbbb22b352fc73071f5fed149793"


def _decode_one_failures(code, trials, seed):
    """simulate's count, with every receiver decoded through decode_one."""
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        x = [rng.randrange(code.field.size) for _ in range(code.n)]
        y = encode(code, x)
        for i in range(code.n):
            side = {j: x[j] for j in code.graph.neighbors(i)}
            failures += decode_one(code, i, y, side) != x[i]
    return failures


def test_simulate_agrees_with_decode_one():
    rng = random.Random(11)
    for name, p, method in PINNED_RUNS[::2]:
        code = code_by_method(GRAPHS[name], PrimeField(p), method, seed=1)
        assert simulate(code, 30, seed=4).failures == _decode_one_failures(code, 30, 4) == 0
        # one lambda entry, then one off-diagonal M entry inside N(i), moved by +1
        i, k = rng.randrange(code.n), rng.randrange(code.length)
        lam = [list(c) for c in code.decode_coeffs]
        lam[i][k] = (lam[i][k] + 1) % p
        i = rng.randrange(code.n)
        j = rng.choice(code.graph.neighbors(i))
        m = [list(r) for r in code.matrix.rows]
        m[i][j] = (m[i][j] + 1) % p
        for bad in (
            IndexCode(code.field, code.graph, code.matrix, code.encode_matrix, tuple(map(tuple, lam))),
            IndexCode(code.field, code.graph, Matrix(code.field, tuple(map(tuple, m))), code.encode_matrix,
                      code.decode_coeffs),
        ):
            failures = simulate(bad, 30, seed=4).failures
            assert failures == _decode_one_failures(bad, 30, 4) > 0, (name, p, method)
