"""Self-contained verification battery: thirteen named checks covering the
solvers, constructions, and pipelines end to end.

Each check raises AssertionError with a diagnostic message on failure and
returns a one-line summary on success.  ``run_all`` prints one line per
check and reports overall success; the test suite runs the same functions
one per test so failures localize.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Callable

from .coloring import chromatic_number, local_chromatic_number
from .fields import GF2, GF3, PrimeField
from .graphs import (
    Graph,
    SetSystem,
    complete_graph,
    cycle_graph,
    empty_graph,
    intersection_graph,
    kneser,
    schrijver,
)
from .indexcoding import code_by_method, compress_attempt, compress_representation, simulate
from .linalg import EchelonBasis, Matrix, ceil_log, rank, schulman_vectors, vandermonde, verify_family
from .ortho import (
    coloring_to_rep,
    has_local_rep,
    independence_violations,
    local_orthogonality_dimension,
    minrank,
    rep_locality,
)
from .reduction import Cnf, assignment_to_coloring, build_g, certify_gadget_lemma
from .coloring import k_colorable

GF5 = PrimeField(5)


def check_kneser_chromatic() -> str:
    """chi(K(n,k)) = n - 2k + 2 at five parameter pairs, by exact solver."""
    results = []
    for n, k in [(4, 2), (5, 2), (6, 2), (6, 3), (7, 3)]:
        got = chromatic_number(kneser(n, k)).value
        want = n - 2 * k + 2
        assert got == want, f"chi(K({n},{k})) = {got}, expected {want}"
        results.append(f"K({n},{k})={got}")
    return "kneser chromatic law: " + " ".join(results)


def check_local_chromatic_kneser() -> str:
    """chi_local(K(6,3)) = 2 and chi_local(K(7,3)) = 3, exact."""
    for n, want in [(6, 2), (7, 3)]:
        got = local_chromatic_number(kneser(n, 3)).value
        assert got == want, f"chi_local(K({n},3)) = {got}, expected {want}"
    return "local chromatic of K(6,3)=2, K(7,3)=3"


def check_schrijver_local_equality() -> str:
    """chi_local(S(n,2)) = chi(S(n,2)) = n - 2 for n in 4..7, exact."""
    out = []
    for n in range(4, 8):
        g = schrijver(n, 2)
        chi = chromatic_number(g).value
        loc = local_chromatic_number(g).value
        assert chi == n - 2, f"chi(S({n},2)) = {chi}, expected {n - 2}"
        assert loc == chi, f"chi_local(S({n},2)) = {loc} != chi = {chi}"
        out.append(f"S({n},2)={chi}")
    return "schrijver local equality: " + " ".join(out)


def check_pair_system_local_equality() -> str:
    """chi_local = chi on the disjointness graphs of 30 random families of
    2-element sets over ground sets of size at most 7."""
    rng = random.Random(4)
    for trial in range(30):
        ground = rng.randint(4, 7)
        pairs = list(itertools.combinations(range(ground), 2))
        m = rng.randint(3, min(10, len(pairs)))
        family = tuple(frozenset(p) for p in rng.sample(pairs, m))
        g = intersection_graph(SetSystem(ground, family))
        chi = chromatic_number(g).value
        loc = local_chromatic_number(g).value
        assert loc == chi, (
            f"trial {trial}: ground={ground} family={sorted(map(sorted, family))}: "
            f"chi_local={loc} != chi={chi}"
        )
    return "chi_local = chi on 30 random 2-element-set disjointness graphs"


def _connected_atlas_graphs():
    from networkx.generators.atlas import graph_atlas_g

    for nxg in graph_atlas_g():
        n = nxg.number_of_nodes()
        if n < 1 or n > 7:
            continue
        g = Graph(n, list(nxg.edges()))
        if g.is_connected():
            yield g


def check_bipartite_local_dimension_two() -> str:
    """Over every connected graph with at most 7 vertices: bipartite iff the
    local orthogonality dimension over GF(2) is at most 2."""
    checked = 0
    for g in _connected_atlas_graphs():
        bip = g.bipartition()
        if bip is not None:
            rep = coloring_to_rep(g, bip, GF2)
            loc = rep_locality(g, rep)
            assert loc <= 2, f"bipartite graph {g.edges()} got locality {loc}"
        else:
            assert not has_local_rep(g, GF2, 2), (
                f"non-bipartite graph {g.edges()} admits a locality-2 representation"
            )
        checked += 1
    assert checked == 996, f"expected 996 connected graphs on <= 7 vertices, saw {checked}"
    return f"bipartite iff local dimension <= 2 on all {checked} connected graphs <= 7 vertices"


def check_petersen_local_dimension() -> str:
    """Local orthogonality dimension of K(5,2) over GF(2) is exactly 3 under
    the dimension cap, with the analytic lower bound meeting the witness."""
    g = kneser(5, 2)
    res = local_orthogonality_dimension(g, GF2)
    assert res.value == 3, f"got {res.value}, expected 3"
    assert res.dim_cap == g.n
    assert rep_locality(g, res.witness) == 3
    return f"local dimension of K(5,2) over GF(2) = 3 (lower bound: {res.lower_bound_reason})"


def check_schrijver_local_dimension() -> str:
    """Local orthogonality dimension of S(6,2) over GF(2) is exactly 4 = chi
    under the default dimension cap (n = 9): one above the paper's lower
    bound ceil(t/2)+1 = 3 for the topologically 4-chromatic S(6,2)."""
    g = schrijver(6, 2)
    res = local_orthogonality_dimension(g, GF2)
    chi = chromatic_number(g).value
    assert res.value == 4 == chi, f"lod(S(6,2)) = {res.value}, chi = {chi}, expected both 4"
    assert res.dim_cap == g.n
    assert rep_locality(g, res.witness) == 4
    return f"local dimension of S(6,2) over GF(2) = 4 = chi under dim cap {res.dim_cap}"


def check_gadget_lemma() -> str:
    """Exhaustive dichotomy check of the 6-vertex gadget over GF(2) and GF(3),
    plus a mutated-gadget negative control that must fail."""
    for f in (GF2, GF3):
        rep = certify_gadget_lemma(f)
        assert rep.counterexamples == 0, (
            f"GF({f.size}): {rep.counterexamples} counterexamples, first {rep.first_counterexample}"
        )
        assert rep.enumerated > 0
    control = certify_gadget_lemma(GF3, drop_matching_edge=True)
    assert control.counterexamples >= 1, "mutated gadget produced no counterexample"
    return (
        f"gadget dichotomy holds over GF(2) and GF(3); "
        f"negative control found {control.counterexamples} counterexamples"
    )


def _random_cnf(rng: random.Random) -> Cnf:
    num_vars = rng.randint(2, 4)
    clauses = []
    for _ in range(rng.randint(1, 4)):
        width = rng.choice([2, 3])
        variables = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        clause = tuple(v if rng.random() < 0.5 else -v for v in variables)
        clauses.append(clause)
    return Cnf(num_vars, tuple(clauses))


def _satisfiable(cnf: Cnf):
    for bits in itertools.product([False, True], repeat=cnf.num_vars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in cnf.clauses):
            return list(bits)
    return None


def check_reduction_equivalence() -> str:
    """20 random small CNFs: satisfiable iff the reduction graph is
    3-colorable; satisfiable cases also 3-color the extended graph."""
    rng = random.Random(8)
    sat_count = 0
    for trial in range(20):
        cnf = _random_cnf(rng)
        assignment = _satisfiable(cnf)
        g = build_g(cnf).graph
        colorable = k_colorable(g, 3) is not None
        assert colorable == (assignment is not None), (
            f"trial {trial}: cnf={cnf.clauses} satisfiable={assignment is not None} "
            f"but 3-colorable={colorable}"
        )
        if assignment is not None:
            assignment_to_coloring(cnf, assignment)  # verifies internally
            sat_count += 1
    return f"reduction equivalence on 20 random formulas ({sat_count} satisfiable)"


def check_vector_families() -> str:
    """100 random greedy-family instances succeed at dimension exactly
    l + ceil(log_q h) and verify; Vandermonde families pass exhaustive
    subset-independence for m <= 8."""
    rng = random.Random(9)
    for trial in range(100):
        field = PrimeField(rng.choice([2, 3, 5]))
        ell = rng.randint(1, 4)
        m = rng.randint(max(ell, 2), 6)
        sets = []
        for _ in range(rng.randint(1, 6)):
            size = rng.randint(1, ell)
            sets.append(set(rng.sample(range(m), min(size, m))))
        vectors = schulman_vectors(sets, m, ell, field)
        t = ell + ceil_log(field.size, len(sets))
        assert len(vectors[0]) == t, f"trial {trial}: dimension {len(vectors[0])} != {t}"
        assert verify_family(sets, vectors, field), f"trial {trial}: family fails verification"
    field = PrimeField(11)
    for m in range(2, 9):
        for ell in range(1, m + 1):
            vectors = vandermonde(m, ell, field)
            for subset in itertools.combinations(range(m), ell):
                basis = EchelonBasis(field, ell)
                for i in subset:
                    assert not basis.add(vectors[i]), (
                        f"vandermonde m={m} ell={ell}: dependent subset {subset}"
                    )
    return "greedy families exact-dimension x100; Vandermonde subsets exhaustive m<=8"


def check_compression_pipeline() -> str:
    """Random compression of a locality-3 representation of C5 over GF(2)
    gives a verified 6-dimensional independent representation, with the
    empirical acceptance rate near the 1 - 1/q bound."""
    c5 = cycle_graph(5)
    res = local_orthogonality_dimension(c5, GF2)
    assert res.value == 3, f"local dimension of C5 over GF(2) = {res.value}, expected 3"
    m = 3 + ceil_log(2, 5)
    assert m == 6
    out = compress_representation(c5, res.witness, seed=0)
    assert out.rep.t == 6
    assert not independence_violations(c5, out.rep)
    successes = sum(
        compress_attempt(c5, res.witness, m, seed) is not None for seed in range(200)
    )
    rate = successes / 200
    assert rate >= 0.35, f"acceptance rate {rate} below 0.35"
    return f"compression pipeline on C5/GF(2): dim 6, acceptance rate {rate:.2f}"


def check_index_coding_round_trip() -> str:
    """Codes from all three construction methods round-trip 100 random
    messages with zero decode failures on four graphs over GF(2) and GF(5);
    the complete-graph codes have length 1 and the exact method is never
    beaten."""
    graphs = {
        "complete4": complete_graph(4),
        "edgeless4": empty_graph(4),
        "C5": cycle_graph(5),
        "petersen": kneser(5, 2),
    }
    for fname, field in [("GF(2)", GF2), ("GF(5)", GF5)]:
        for gname, g in graphs.items():
            lengths = {}
            for method in ("minrank", "local", "compress"):
                code = code_by_method(g, field, method, seed=0)
                report = simulate(code, 100, seed=1)
                assert report.failures == 0, (
                    f"{gname}/{fname}/{method}: {report.failures} decode failures"
                )
                lengths[method] = code.length
            assert lengths["minrank"] <= min(lengths.values()), (
                f"{gname}/{fname}: exact length {lengths['minrank']} beaten by {lengths}"
            )
            if gname == "complete4":
                assert lengths["minrank"] == 1 and lengths["local"] == 1, (
                    f"complete-graph lengths {lengths}"
                )
    return "index codes round-trip on 4 graphs x 2 fields x 3 methods, zero failures"


def _c5_minrank_bruteforce_gf2() -> int:
    """Second oracle for minrank of C5 over GF(2): scan all representing
    matrices (unit diagonal, free entries only at the 10 adjacent positions)."""
    c5 = cycle_graph(5)
    positions = [(i, j) for i in range(5) for j in range(5) if i != j and c5.has_edge(i, j)]
    best = 5
    for bits in range(1 << len(positions)):
        rows = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
        for k, (i, j) in enumerate(positions):
            rows[i][j] = bits >> k & 1
        best = min(best, rank(Matrix(GF2, tuple(map(tuple, rows)))))
    return best


def check_minrank_oracles() -> str:
    """minrank baselines: 1 on complete graphs, n on edgeless graphs, and 3
    on C5 over GF(2) by two independent methods."""
    for n in (1, 3, 5):
        assert minrank(complete_graph(n), GF2).value == 1
        assert minrank(empty_graph(n), GF2).value == n
        assert minrank(complete_graph(n), GF5).value == 1
        assert minrank(empty_graph(n), GF5).value == n
    by_search = minrank(cycle_graph(5), GF2).value
    by_scan = _c5_minrank_bruteforce_gf2()
    assert by_search == 3, f"minrank search gave {by_search}, expected 3"
    assert by_scan == 3, f"matrix scan gave {by_scan}, expected 3"
    return "minrank oracles agree: complete=1, edgeless=n, C5/GF(2)=3 (search and matrix scan)"


CRITERIA: list[tuple[str, Callable[[], str]]] = [
    ("kneser-chromatic", check_kneser_chromatic),
    ("local-chromatic-kneser", check_local_chromatic_kneser),
    ("schrijver-local-equality", check_schrijver_local_equality),
    ("pair-system-local-equality", check_pair_system_local_equality),
    ("bipartite-local-dimension", check_bipartite_local_dimension_two),
    ("petersen-local-dimension", check_petersen_local_dimension),
    ("schrijver-local-dimension", check_schrijver_local_dimension),
    ("gadget-lemma", check_gadget_lemma),
    ("reduction-equivalence", check_reduction_equivalence),
    ("vector-families", check_vector_families),
    ("compression-pipeline", check_compression_pipeline),
    ("index-coding-round-trip", check_index_coding_round_trip),
    ("minrank-oracles", check_minrank_oracles),
]


def run_all(out=print) -> bool:
    """Run every check, print one line each, and return overall success."""
    ok = True
    for name, fn in CRITERIA:
        start = time.monotonic()
        try:
            summary = fn()
            out(f"PASS {name} ({time.monotonic() - start:.1f}s): {summary}")
        except AssertionError as exc:
            ok = False
            out(f"FAIL {name} ({time.monotonic() - start:.1f}s): {exc}")
    return ok
