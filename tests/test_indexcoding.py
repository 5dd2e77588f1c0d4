"""Linear index codes: representing matrices, encode/decode, the three
construction routes, and randomized compression."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import types

import pytest

from orthograph.cli import main
from orthograph.fields import GF2, GF3, QQ, PrimeField
from orthograph.graphs import Graph, complement, complete_graph, cycle_graph, empty_graph, kneser, write_dimacs
from orthograph import indexcoding
from orthograph.indexcoding import (
    IndexCode,
    RepresentingPatternError,
    SimulationReport,
    _dual_vector,
    build_code,
    check_representing,
    code_by_method,
    compress_attempt,
    compress_representation,
    decode_one,
    encode,
    representing_matrix,
    simulate,
)
from orthograph.linalg import EchelonBasis, Matrix, nullspace_basis, rank
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
    rep = Representation(GF5, 1, ((1,), (1,), (1,)))
    m = representing_matrix(g, rep)
    assert rank(m) == 1
    assert all(x != 0 for row in m.rows for x in row)


def test_representing_matrix_edgeless_identity():
    g = empty_graph(3)
    rep = Representation(GF2, 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    m = representing_matrix(g, rep)
    assert m.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_representing_matrix_rejects_invalid_rep():
    g = complete_graph(3)
    bad = Representation(GF2, 1, ((0,), (1,), (1,)))
    with pytest.raises(ValueError, match="independent"):
        representing_matrix(g, bad)


def test_representing_matrix_names_every_dependent_vertex():
    # g's complement is C5 itself; vertices 0 and 1 are adjacent there and
    # share e1, so each vector lies in its neighbours' span, e1 and e2
    g = complement(cycle_graph(5))
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    rep = Representation(GF5, 3, (e1, e1, e2, e3, e2))
    bad = independence_violations(complement(g), rep)
    assert bad == [
        "vertex 0: vector lies in the span of its neighbors",
        "vertex 1: vector lies in the span of its neighbors",
    ]
    with pytest.raises(ValueError) as err:
        representing_matrix(g, rep)
    assert str(err.value) == "not an independent representation of the complement: " + "; ".join(bad)
    with pytest.raises(ValueError, match="representation covers 4 vertices, graph has 5"):
        representing_matrix(g, Representation(GF5, 3, (e1, e2, e3, e2)))


def _check_representing_per_entry(g, m):
    """Reference: the pattern check entry by entry, through has_edge and
    Matrix indexing."""
    if m.nrows != g.n or m.ncols != g.n:
        raise RepresentingPatternError(f"matrix is {m.nrows}x{m.ncols}, graph has {g.n} vertices")
    zero = m.field.zero
    for i in range(g.n):
        if m[i, i] == zero:
            raise RepresentingPatternError(f"zero diagonal entry at {i}")
        for j in range(g.n):
            if i != j and not g.has_edge(i, j) and m[i, j] != zero:
                raise RepresentingPatternError(f"nonzero entry at non-adjacent pair ({i},{j})")


def _pattern_message(check, g, m):
    try:
        check(g, m)
    except RepresentingPatternError as exc:
        return str(exc)
    return None


def test_check_representing_agrees_with_per_entry_check():
    rng = random.Random(3)
    outcomes = set()
    for _ in range(3000):
        n = rng.randint(0, 6)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u) if rng.random() < 0.5])
        # entries off the pattern are rarely nonzero, so many matrices pass
        ncols = n if rng.random() < 0.95 else rng.randint(0, 7)
        rows = tuple(
            tuple(
                rng.randrange(3) if i == j or (j < n and g.has_edge(i, j)) or rng.random() < 0.05 else 0
                for j in range(ncols)
            )
            for i in range(n)
        )
        m = Matrix(GF3, rows)
        want = _pattern_message(_check_representing_per_entry, g, m)
        assert _pattern_message(check_representing, g, m) == want, (g.adj, rows)
        outcomes.add(want.split(" ")[0] if want else None)
    assert outcomes == {None, "zero", "nonzero", "matrix"}


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


@pytest.mark.parametrize("i", [-1, 5])
def test_decode_refuses_receivers_out_of_range(i):
    # unchecked, receiver -1 would decode x_4 by negative indexing and 5 would raise IndexError
    code = code_by_method(cycle_graph(5), GF2, "minrank")
    y = encode(code, (1, 0, 1, 1, 0))
    with pytest.raises(ValueError, match=f"^receiver {i} out of range for n=5$"):
        decode_one(code, i, y, {3: 1, 0: 1})


def test_encode_rejects_wrong_length():
    code = code_by_method(complete_graph(3), GF2, "minrank")
    with pytest.raises(ValueError):
        encode(code, (1, 0))


def test_encode_rejects_narrow_broadcast_rows():
    # zipping each row with the message would drop x_4: (3, 2, 0), not (3, 2, 4)
    code = code_by_method(cycle_graph(5), GF5, "minrank")
    assert encode(code, [1, 2, 3, 4, 4]) == (3, 2, 4)
    narrow_b = Matrix(code.field, tuple(row[:-1] for row in code.encode_matrix.rows))
    narrow = IndexCode(code.field, code.graph, code.matrix, narrow_b, code.decode_coeffs)
    with pytest.raises(ValueError, match="^broadcast rows have 4 entries, graph has 5 vertices$"):
        encode(narrow, [1, 2, 3, 4, 4])


@pytest.mark.parametrize("g, length", [
    pytest.param(Graph(0), 0, id="no-vertices"),
    pytest.param(Graph(1), 1, id="one-vertex"),
    pytest.param(empty_graph(2), 2, id="empty-2"),
    pytest.param(complete_graph(2), 1, id="complete-2"),
])
@pytest.mark.parametrize("p", [2, 31])
@pytest.mark.parametrize("method", ["minrank", "local", "compress"])
def test_index_codes_on_tiny_graphs(tmp_path, capsys, g, length, p, method):
    code = code_by_method(g, PrimeField(p), method, seed=0)
    assert code.length == length
    assert simulate(code, 20, seed=1).failures == 0
    graph, cert = tmp_path / "g.dimacs", tmp_path / "c.json"
    graph.write_text(write_dimacs(g))
    argv = ["index-code", str(graph), "--field", str(p), "--method", method, "--simulate", "20", "-o", str(cert)]
    assert main(argv) == 0
    assert json.loads(cert.read_text())["length"] == length
    assert main(["verify", str(cert), str(graph)]) == 0
    assert capsys.readouterr().out == "verification ok\n"


def test_compress_representation_dimension_and_validity():
    c5 = cycle_graph(5)
    rep = coloring_to_rep(c5, [0, 1, 0, 1, 2], GF2)
    out = compress_representation(c5, rep, seed=0)
    assert out.rep.t == 3 + 3
    assert out.attempts >= 1
    assert independence_violations(c5, out.rep) == []
    broken = Representation(GF2, 3, ((0, 1, 0),) + rep.vectors[1:])  # edge (0,1) not orthogonal
    with pytest.raises(ValueError, match=r"^invalid orthogonal representation: edge \(0,1\): vectors not orthogonal$"):
        compress_representation(c5, broken, seed=0)


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
    short = IndexCode(code.field, code.graph, code.matrix, code.encode_matrix, code.decode_coeffs[:-1])
    with pytest.raises(ValueError, match="^4 rows of decode coefficients, graph has 5 vertices$"):
        simulate(short, 1)
    # a broadcast longer than n: every receiver ignores the repeated rows
    long_b = Matrix(code.field, code.encode_matrix.rows * 2)
    long = IndexCode(code.field, code.graph, code.matrix, long_b, tuple(lam + (0,) * 3 for lam in code.decode_coeffs))
    assert simulate(long, 20, seed=0).failures == _decode_one_failures(long, 20, 0) == 0
    narrow_b = Matrix(code.field, tuple(row[:-1] for row in code.encode_matrix.rows))
    narrow = IndexCode(code.field, code.graph, code.matrix, narrow_b, code.decode_coeffs)
    with pytest.raises(ValueError, match="^broadcast rows have 4 entries, graph has 5 vertices$"):
        simulate(narrow, 1)
    with pytest.raises(ValueError, match="^trials must be at least 0, got -3$"):
        simulate(code, -3)


def test_simulate_of_a_valid_code_draws_no_message(monkeypatch):
    class NoDraws:
        def __init__(self, seed):
            pass

        def randrange(self, q):
            raise AssertionError("simulate drew a message for a valid code")

    monkeypatch.setattr(indexcoding, "random", types.SimpleNamespace(Random=NoDraws))
    for g in (cycle_graph(5), kneser(5, 2)):
        for method in ("minrank", "local", "compress"):
            code = code_by_method(g, GF5, method, seed=0)
            assert simulate(code, 10**9, seed=0) == SimulationReport(10**9, 0, code.length)


def test_methods_agree_on_validity_and_minrank_is_best():
    g = cycle_graph(5)
    lengths = {}
    for method in ("minrank", "local", "compress"):
        code = code_by_method(g, GF5, method, seed=0)
        assert simulate(code, 30, seed=2).failures == 0
        lengths[method] = code.length
    assert lengths["minrank"] <= min(lengths.values())


def _scan_dual_vector(p: int, vectors, target):
    """Reference: scan F^t in lexicographic order for the first y orthogonal
    to every vector of vectors with <y, target> != 0, or None."""
    def dot(a, b):
        return sum(x * y for x, y in zip(a, b)) % p

    for y in itertools.product(range(p), repeat=len(target)):
        if dot(y, target) and not any(dot(y, v) for v in vectors):
            return y
    return None


def _sparse_vectors(rng, p, k, t):
    """k random vectors of F^t with sparse entries, so dependent sets and
    orthogonal targets are common."""
    return [tuple(rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(t)) for _ in range(k)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_smallest_combination_agrees_with_scan(p):
    rng = random.Random(p)
    field = PrimeField(p)
    missing = found = 0
    for _ in range(400):
        t = rng.randint(0, 5 if p <= 3 else 4)
        vectors = _sparse_vectors(rng, p, rng.randint(0, 4 if p <= 3 else 3), t)
        target = _sparse_vectors(rng, p, 1, t)[0]
        want = _scan_dual_vector(p, vectors, target)
        missing += want is None
        found += want is not None
        assert _dual_vector(field, vectors, target) == want, (vectors, target)
    assert missing > 50 and found > 50


def _two_elimination_dual_vector(field, vectors, target):
    """The dual vector by two eliminations: the last row of the reduced
    echelon basis of nullspace_basis(S), whose pivots ascend, with a
    nonzero inner product against target, or None."""
    t = len(target)
    null = nullspace_basis(Matrix(field, tuple(vectors))) if vectors else [
        tuple(field.one if k == j else field.zero for k in range(t)) for j in range(t)
    ]
    for row in reversed(EchelonBasis(field, t, null).rows):
        if field.inner(row, target):
            return row
    return None


@pytest.mark.parametrize("field", [GF2, GF3, GF5, PrimeField(7), QQ], ids=["GF2", "GF3", "GF5", "GF7", "Q"])
def test_dual_vector_matches_two_eliminations(field):
    rng = random.Random(str(field))
    p = field.size or 5  # over Q, entries from -2..2
    shift = 0 if field.size else 2
    empty = dependent = zero_width = missing = 0
    for _ in range(500):
        t = rng.randint(0, 7)
        k = rng.randint(0, t + 2)
        vectors = [tuple(x - shift for x in v) for v in _sparse_vectors(rng, p, k, t)]
        if vectors and rng.random() < 0.2:  # a combination of two of them makes S dependent
            a, b = rng.choice(vectors), rng.choice(vectors)
            vectors.append(tuple(x + 2 * y for x, y in zip(a, b)))
        target = tuple(x - shift for x in _sparse_vectors(rng, p, 1, t)[0])
        want = _two_elimination_dual_vector(field, vectors, target)
        assert _dual_vector(field, vectors, target) == want, (vectors, target)
        empty += not vectors
        dependent += len(vectors) > rank(Matrix(field, tuple(vectors)))
        zero_width += t == 0
        missing += want is None
    assert min(empty, dependent, zero_width, missing) > 10 and missing < 450


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
        # lambda moved by multiples of q through the API: only residues count
        for shift in (p, -p, p**30):
            lam = tuple(tuple(x + shift for x in c) for c in code.decode_coeffs)
            shifted = IndexCode(code.field, code.graph, code.matrix, code.encode_matrix, lam)
            assert simulate(shifted, 30, seed=4).failures == 0, (name, p, method, shift)
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
    # the last corrupted code above, at other trial counts
    for trials in (0, 1, 1025):
        assert simulate(bad, trials, seed=4).failures == _decode_one_failures(bad, trials, 4), trials
    # the largest entries at the largest field, where every receiver fails
    f = PrimeField(251)
    top = ((250,) * 64,) * 64
    every = IndexCode(f, complete_graph(64), Matrix(f, top), Matrix(f, top), top)
    assert simulate(every, 30, seed=4).failures == _decode_one_failures(every, 30, 4) > 0
