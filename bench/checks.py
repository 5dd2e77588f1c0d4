"""Independent answer checks for the benchmark.

Nothing here imports orthograph.  Graphs are given as a vertex count and an
edge list made by the benchmark itself; vectors, matrices and colourings are
read from the program's outputs as plain integers.  Every checker returns a
list of error strings; an empty list means the output is accepted.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence


# -- graphs -------------------------------------------------------------------


def adjacency(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def complement_edges(n: int, edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    present = {frozenset(e) for e in edges}
    return [(u, v) for u in range(n) for v in range(u + 1, n) if frozenset((u, v)) not in present]


def is_bipartite(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    """Breadth-first two-colouring."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    side = [-1] * n
    for s in range(n):
        if side[s] >= 0:
            continue
        side[s] = 0
        queue = [s]
        for u in queue:
            for v in nbrs[u]:
                if side[v] < 0:
                    side[v] = 1 - side[u]
                    queue.append(v)
                elif side[v] == side[u]:
                    return False
    return True


def clique_number(n: int, edges: Iterable[tuple[int, int]]) -> int:
    """Largest clique, by extending cliques in increasing vertex order."""
    adj = adjacency(n, edges)
    best = 0

    def grow(size: int, cand: int) -> None:
        nonlocal best
        best = max(best, size)
        while cand and size + cand.bit_count() > best:
            v = cand.bit_length() - 1
            cand &= ~(1 << v)
            grow(size + 1, cand & adj[v])

    grow(0, (1 << n) - 1)
    return best


def independence_number(n: int, edges: Iterable[tuple[int, int]]) -> int:
    return clique_number(n, complement_edges(n, edges))


def _colourings(n: int, adj: list[int], max_colours: int):
    """Every proper colouring with colours numbered in order of first use."""
    colours = [-1] * n

    def rec(v: int, used: int):
        if v == n:
            yield colours
            return
        for c in range(min(used + 1, max_colours)):
            if any(colours[u] == c for u in range(v) if adj[v] >> u & 1):
                continue
            colours[v] = c
            yield from rec(v + 1, max(used, c + 1))
        colours[v] = -1

    yield from rec(0, 0)


def chromatic_number(n: int, edges: Iterable[tuple[int, int]]) -> int:
    adj = adjacency(n, edges)
    k = 0
    while n and next(_colourings(n, adj, k), None) is None:
        k += 1
    return k


def local_chromatic_number(n: int, edges: Iterable[tuple[int, int]]) -> int:
    """Minimum over all proper colourings of the largest number of colours on
    a closed neighbourhood (small graphs only: every colouring is visited)."""
    edges = list(edges)
    adj = adjacency(n, edges)
    if n == 0:
        return 0
    return min(locality(n, edges, c) for c in _colourings(n, adj, n))


def locality(n: int, edges: Iterable[tuple[int, int]], colours: Sequence[int]) -> int:
    adj = adjacency(n, edges)
    return max(len({colours[v]} | {colours[u] for u in range(n) if adj[v] >> u & 1}) for v in range(n))


def proper_errors(n: int, edges: Iterable[tuple[int, int]], colours) -> list[str]:
    if not isinstance(colours, list) or len(colours) != n or not all(isinstance(c, int) for c in colours):
        return [f"colouring is not a list of {n} integers"]
    return [f"edge ({u},{v}) is monochromatic" for u, v in edges if colours[u] == colours[v]]


# -- formulas -----------------------------------------------------------------


def satisfiable(num_vars: int, clauses: Sequence[Sequence[int]]) -> bool:
    """Truth table of all 2^num_vars assignments at once: bit a of a column is
    the value under assignment a."""
    size = 1 << num_vars
    full = (1 << size) - 1
    column = []
    for i in range(num_vars):
        block = ((1 << (1 << i)) - 1) << (1 << i)  # pattern 0^(2^i) 1^(2^i)
        col = 0
        for start in range(0, size, 2 << i):
            col |= block << start
        column.append(col & full)
    table = full
    for clause in clauses:
        sat = 0
        for lit in clause:
            col = column[abs(lit) - 1]
            sat |= col if lit > 0 else full ^ col
        table &= sat
    return table != 0


# -- GF(p) arithmetic -----------------------------------------------------------


def dot(x: Sequence[int], y: Sequence[int], p: int) -> int:
    return sum(a * b for a, b in zip(x, y)) % p


def rank(rows: Iterable[Sequence[int]], p: int) -> int:
    """Row rank over GF(p) by Gaussian elimination."""
    pivots: dict[int, list[int]] = {}
    for row in rows:
        r = [x % p for x in row]
        for col, prow in pivots.items():
            if r[col]:
                c = r[col]
                r = [(a - c * b) % p for a, b in zip(r, prow)]
        lead = next((j for j, x in enumerate(r) if x), None)
        if lead is not None:
            inv = pow(r[lead], p - 2, p)
            pivots[lead] = [x * inv % p for x in r]
    return len(pivots)


def ceil_log(q: int, n: int) -> int:
    s = 0
    while q**s < n:
        s += 1
    return s


def _int_matrix(rows, nrows: int | None, ncols: int, p: int, what: str) -> list[str]:
    if not isinstance(rows, list) or (nrows is not None and len(rows) != nrows):
        return [f"{what} does not have {nrows} rows"]
    for r in rows:
        if not isinstance(r, list) or len(r) != ncols:
            return [f"{what} row is not a list of {ncols} entries"]
        if not all(isinstance(x, int) and 0 <= x < p for x in r):
            return [f"{what} has an entry outside GF({p})"]
    return []


# -- output checkers ----------------------------------------------------------


def od_local_errors(cert: dict, n: int, edges: Sequence[tuple[int, int]], p: int, lower: int, upper: int) -> list[str]:
    """Local orthogonality dimension certificate: anisotropic vectors,
    orthogonal on edges, closed-neighbourhood ranks at most the value with
    one reaching it, and lower <= value <= upper."""
    value, field = cert.get("value"), cert.get("field")
    vectors = cert.get("witness", {}).get("vectors")
    t = cert.get("witness", {}).get("t")
    if field != str(p):
        return [f"field {field!r}, expected {p}"]
    if not isinstance(value, int) or not isinstance(t, int):
        return ["value or dimension is not an integer"]
    errs = _int_matrix(vectors, n, t, p, "witness")
    if errs:
        return errs
    errs += [f"vertex {v} is isotropic" for v in range(n) if dot(vectors[v], vectors[v], p) == 0]
    errs += [f"edge ({u},{v}) not orthogonal" for u, v in edges if dot(vectors[u], vectors[v], p)]
    adj = adjacency(n, edges)
    ranks = [rank([vectors[u] for u in range(n) if u == v or adj[v] >> u & 1], p) for v in range(n)]
    if n and max(ranks) != value:
        errs.append(f"largest closed-neighbourhood rank {max(ranks)} != value {value}")
    if not lower <= value <= upper:
        errs.append(f"value {value} outside [{lower}, {upper}]")
    return errs


def colouring_cert_errors(cert: dict, n: int, edges: Sequence[tuple[int, int]], lower: int, upper: int) -> list[str]:
    """chi or chi-local certificate: proper witness that reaches the claimed
    value (colours used, or largest closed-neighbourhood colour count), and
    lower <= value <= upper."""
    value, param = cert.get("value"), cert.get("param")
    colours = cert.get("witness", {}).get("coloring")
    errs = proper_errors(n, edges, colours)
    if errs:
        return errs
    reached = len(set(colours)) if param == "chi" else locality(n, edges, colours)
    if reached != value:
        errs.append(f"witness reaches {reached}, certificate claims {value}")
    if not isinstance(value, int) or not lower <= value <= upper:
        errs.append(f"value {value} outside [{lower}, {upper}]")
    return errs


def three_colouring_errors(colours, n: int, edges: Sequence[tuple[int, int]], sat: bool) -> list[str]:
    """k_colorable(G, 3) answer against truth-table satisfiability."""
    if (colours is not None) != sat:
        return [f"3-colourable={colours is not None} but satisfiable={sat}"]
    if colours is None:
        return []
    errs = proper_errors(n, edges, colours)
    if not errs and not set(colours) <= {0, 1, 2}:
        errs.append("colouring uses more than 3 colours")
    return errs


def index_code_errors(cert: dict, n: int, edges: Sequence[tuple[int, int]], p: int, seed: int, trials: int) -> list[str]:
    """Index code certificate: M has the representing pattern, the rows of B
    are independent, the decode coefficients rebuild M, and every receiver
    decodes seeded random messages with this module's arithmetic."""
    length = cert.get("length")
    if cert.get("field") != str(p) or not isinstance(length, int):
        return ["wrong field or non-integer length"]
    m, b, lam = cert.get("representingMatrix"), cert.get("encodeMatrix"), cert.get("decodeCoeffs")
    errs = _int_matrix(m, n, n, p, "M") + _int_matrix(b, length, n, p, "B") + _int_matrix(lam, n, length, p, "decode")
    if errs:
        return errs
    adj = adjacency(n, edges)
    for i in range(n):
        if m[i][i] == 0:
            errs.append(f"M[{i}][{i}] is zero")
        errs += [f"M[{i}][{j}] nonzero off the graph" for j in range(n) if j != i and not adj[i] >> j & 1 and m[i][j]]
    if rank(b, p) != length:
        errs.append("rows of B are dependent")
    for i in range(n):
        rebuilt = [sum(lam[i][k] * b[k][j] for k in range(length)) % p for j in range(n)]
        if rebuilt != m[i]:
            errs.append(f"decode coefficients of receiver {i} do not rebuild row {i} of M")
    if errs:
        return errs
    rng = random.Random(seed)
    for _ in range(trials):
        x = [rng.randrange(p) for _ in range(n)]
        y = [dot(row, x, p) for row in b]
        for i in range(n):
            side = sum(m[i][j] * x[j] for j in range(n) if adj[i] >> j & 1)
            got = (dot(lam[i], y, p) - side) * pow(m[i][i], p - 2, p) % p
            if got != x[i]:
                return [f"receiver {i} decoded {got}, message was {x[i]}"]
    sim = cert.get("simulation", {})
    if sim.get("failures") != 0 or sim.get("trials") != trials:
        errs.append(f"program's own simulation reported {sim}")
    return errs


# -- the six-vertex gadget ------------------------------------------------------

# Vertices i, a, b, j, d, c: two triangles joined by a perfect matching.
GADGET_EDGES = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 4), (1, 3), (2, 5)]


def gadget_census(p: int, drop_matching_edge: bool) -> tuple[int, int]:
    """(representations, counterexamples) of the gadget in GF(p)^3, one
    vector per scalar class, counted by brute force.  A counterexample has
    u_i and u_j neither orthogonal nor proportional."""
    edges = GADGET_EDGES[:-1] if drop_matching_edge else GADGET_EDGES
    adj = adjacency(6, edges)
    points = []
    for x in range(p):
        for y in range(p):
            for z in range(p):
                v = (x, y, z)
                if next((c for c in v if c), 0) == 1 and dot(v, v, p):
                    points.append(v)
    vecs: list[tuple] = []
    total = bad = 0

    def rec(v: int) -> None:
        nonlocal total, bad
        if v == 6:
            total += 1
            ui, uj = vecs[0], vecs[3]
            if dot(ui, uj, p) and rank([ui, uj], p) == 2:
                bad += 1
            return
        for w in points:
            if all(dot(w, vecs[u], p) == 0 for u in range(v) if adj[v] >> u & 1):
                vecs.append(w)
                rec(v + 1)
                vecs.pop()

    rec(0)
    return total, bad
