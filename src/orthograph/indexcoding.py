"""Linear index codes for a side-information graph G over a finite field.

A matrix M represents G when its diagonal is nonzero and M[i][j] = 0 for
distinct non-adjacent i, j.  Broadcasting the rank(M) independent rows of M
lets receiver i recover x_i from the broadcast plus the side information
{x_j : j adjacent to i}: each row M_i is a combination of the broadcast
rows, and its off-diagonal support lies inside N(i).

Three routes to a representing matrix are provided:
  * an exact minrank witness (optimal length),
  * a proper coloring of the complement combined with a generic vector
    family (Vandermonde when the field is large enough, else the greedy
    Schulman family, adding ceil(log_q n) dimensions),
  * randomized compression of an orthogonal representation with locality l
    down to l + ceil(log_q n) dimensions.

build_code solves every receiver's lambda_i against one elimination of
[B | I].  Each receiver's decode row (lambda_i, the pairs (j, M_ij) for j in
N(i), and M_ii^-1) is computed once per code, as IndexCode.decode_rows;
decode_one and simulate both decode from these rows through one helper, in
plain-int arithmetic, reading the message only at the receiver's
neighbours.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .coloring import check_proper, coloring_locality
from .fields import PrimeField
from .graphs import Graph, _bits, complement
from .linalg import (
    EchelonBasis,
    Matrix,
    ceil_log,
    nullspace_basis,
    random_matrix,
    schulman_vectors,
    solve_rows,
    vandermonde,
)
from .ortho import Representation, independence_violations, orthogonality_violations, rep_locality


class RepresentingPatternError(ValueError):
    """Matrix does not represent the side-information graph."""


class CompressionError(RuntimeError):
    """Every randomized compression attempt failed."""


def check_representing(g: Graph, m: Matrix) -> None:
    if m.nrows != g.n or m.ncols != g.n:
        raise RepresentingPatternError(f"matrix is {m.nrows}x{m.ncols}, graph has {g.n} vertices")
    zero = m.field.zero
    for i in range(g.n):
        if m[i, i] == zero:
            raise RepresentingPatternError(f"zero diagonal entry at {i}")
        for j in range(g.n):
            if i != j and not g.has_edge(i, j) and m[i, j] != zero:
                raise RepresentingPatternError(f"nonzero entry at non-adjacent pair ({i},{j})")


@dataclass(frozen=True)
class IndexCode:
    """Broadcast matrix B (length x n), representing matrix M, and per-receiver
    decoding coefficients lambda_i with lambda_i . B = M_i."""

    field: PrimeField
    graph: Graph
    matrix: Matrix
    encode_matrix: Matrix
    decode_coeffs: tuple

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def length(self) -> int:
        return self.encode_matrix.nrows

    @functools.cached_property
    def decode_rows(self) -> tuple:
        """Per receiver i: (lambda_i, ((j, M_ij) for j in N(i)), M_ii^-1)."""
        f, m = self.field, self.matrix
        if any(len(lam) != self.length for lam in self.decode_coeffs):
            raise ValueError(f"decode coefficients must have the code length {self.length}")
        return tuple(
            (self.decode_coeffs[i], tuple((j, m[i, j]) for j in _bits(self.graph.adj[i])), f.inv(m[i, i]))
            for i in range(self.n)
        )


def representing_matrix(g: Graph, rep: Representation) -> Matrix:
    """Representing matrix for g built from an independent representation of
    the complement of g.

    For each vertex i, y_i is the lexicographically smallest vector that is
    orthogonal to the vectors of i's non-neighbors and not orthogonal to
    u_i; then M[i][j] = <y_i, u_j>.  y_i is picked coordinate by coordinate
    inside the nullspace of the non-neighbors' vectors (see
    _smallest_combination), in time polynomial in t."""
    h = complement(g)
    bad = independence_violations(h, rep)
    if bad:
        raise ValueError("not an independent representation of the complement: " + "; ".join(bad))
    f = rep.field
    rows = []
    for i in range(g.n):
        nbr_vecs = [rep.vectors[u] for u in _bits(h.adj[i])]
        null = nullspace_basis(Matrix(f, tuple(nbr_vecs))) if nbr_vecs else [
            tuple(f.one if k == j else f.zero for k in range(rep.t)) for j in range(rep.t)
        ]
        y = _smallest_combination(f, null, rep.vectors[i])
        rows.append(tuple(f.inner(y, rep.vectors[j]) for j in range(g.n)))
    m = Matrix(f, tuple(rows))
    check_representing(g, m)
    return m


def _smallest_combination(field: PrimeField, basis: Sequence[tuple], target: tuple):
    """Lexicographically smallest vector in span(basis) with nonzero inner
    product against target.

    The vectors still on offer form an affine space a + W, starting from
    a = 0 and W = span(basis).  Coordinate k is fixed in turn: if some e in W
    has e[k] = 1, coordinate k is eliminated from a and from the rest of W
    with e, which leaves y[k] = 0 on offer; y[k] = 1 (a += e) is chosen only
    when every vector left would be orthogonal to target.  Without such an
    e, y[k] = a[k] is forced.  O(t^2 * len(basis)) steps, against the
    q^len(basis) vectors of span(basis)."""
    p = field.size
    a = [0] * len(target)
    a_dot = 0
    rows = [list(b) for b in basis]  # spans W; coordinates before k are zero
    dots = [sum(x * y for x, y in zip(r, target)) % p for r in rows]
    if not any(dots):
        raise ValueError("no dual vector exists; representation is not independent")
    for k in range(len(target)):
        j = next((j for j, r in enumerate(rows) if r[k] % p), None)
        if j is None:
            continue
        e, e_dot = rows.pop(j), dots.pop(j)
        inv = pow(e[k], p - 2, p)
        e = [x * inv % p for x in e]
        e_dot = e_dot * inv % p
        for i, r in enumerate(rows):
            c = r[k] % p
            if c:
                rows[i] = [(x - c * y) % p for x, y in zip(r, e)]
                dots[i] = (dots[i] - c * e_dot) % p
        c = a[k]
        if c:
            a = [(x - c * y) % p for x, y in zip(a, e)]
            a_dot = (a_dot - c * e_dot) % p
        if not a_dot and not any(dots):
            a = [(x + y) % p for x, y in zip(a, e)]
            a_dot = e_dot
    return tuple(a)


def build_code(g: Graph, m: Matrix) -> IndexCode:
    """Index code from a representing matrix: broadcast the first rank(M)
    linearly independent rows of M (deterministic elimination order), and
    solve every receiver's lambda_i against one elimination of [B | I]."""
    check_representing(g, m)
    f = m.field
    basis = EchelonBasis(f, g.n)
    b_rows = [row for row in m.rows if not basis.add(row)]
    coeffs = solve_rows(b_rows, m.rows, f)
    assert None not in coeffs  # rows of B span the row space of M
    return IndexCode(f, g, m, Matrix(f, tuple(b_rows)), tuple(coeffs))


def encode(code: IndexCode, x: Sequence) -> tuple:
    """Broadcast word y = B x for a message x in F^n."""
    if len(x) != code.n:
        raise ValueError(f"message length {len(x)} != n={code.n}")
    p = code.field.p
    return tuple(sum(b * xj for b, xj in zip(row, x)) % p for row in code.encode_matrix.rows)


def decode_one(code: IndexCode, i: int, y: Sequence, side_info: dict) -> object:
    """Recover x_i from the broadcast y and the side information
    {j: x_j for j in N(i)}."""
    if set(side_info) != set(_bits(code.graph.adj[i])):
        raise ValueError(f"side information must cover exactly the neighbors of {i}")
    if len(y) != code.length:
        raise ValueError(f"broadcast length {len(y)} != code length {code.length}")
    return _decode(code.field.p, code.decode_rows[i], y, side_info)


def _decode(p: int, row: tuple, y: Sequence, known) -> int:
    """x_i = (lambda_i . y - sum of M_ij x_j over j in N(i)) / M_ii, from a
    decode row of IndexCode.decode_rows; known is read only at N(i)."""
    lam, side, inv = row
    total = sum(a * b for a, b in zip(lam, y)) - sum(m * known[j] for j, m in side)  # = M_ii x_i
    return total * inv % p


# -- code constructions -------------------------------------------------------


def code_from_minrank_witness(g: Graph, rep: Representation) -> IndexCode:
    return build_code(g, representing_matrix(g, rep))


def code_from_local_coloring(g: Graph, colors: Sequence[int], vectors: Sequence[tuple], field: PrimeField) -> IndexCode:
    """Index code from a proper coloring of the complement of g plus a vector
    per color, provided the vectors indexed by every closed neighborhood (in
    the complement) are linearly independent.  Code length <= dim of the
    vectors."""
    h = complement(g)
    check_proper(h, colors)
    palette = sorted(set(colors))
    if len(vectors) < len(palette):
        raise ValueError(f"{len(palette)} colors but only {len(vectors)} vectors")
    index = {c: k for k, c in enumerate(palette)}
    t = len(vectors[0]) if vectors else 0  # no vectors: the graph has no vertices
    for v in range(h.n):
        basis = EchelonBasis(field, t)
        for u in _bits(h.closed(v)):
            basis.add(vectors[index[colors[u]]])
        wanted = {index[colors[u]] for u in _bits(h.closed(v))}
        if basis.dim != len(wanted):
            raise ValueError(f"closed-neighborhood vectors of vertex {v} are dependent")
    rep = Representation(
        field, t, tuple(vectors[index[colors[v]]] for v in range(h.n)), kind="independent"
    )
    return code_from_minrank_witness(g, rep)


def code_from_coloring(g: Graph, colors: Sequence[int], field: PrimeField) -> IndexCode:
    """Convenience route: Vandermonde vectors when the field has at least as
    many elements as colors, otherwise the Schulman family over the
    closed-neighborhood color sets of the complement."""
    h = complement(g)
    check_proper(h, colors)
    palette = sorted(set(colors))
    index = {c: k for k, c in enumerate(palette)}
    m = len(palette)
    ell = coloring_locality(h, colors)
    if field.size >= m:
        vectors = vandermonde(m, ell, field)
    else:
        sets = [{index[colors[u]] for u in _bits(h.closed(v))} for v in range(h.n)]
        vectors = schulman_vectors(sets, m, ell, field)
    return code_from_local_coloring(g, colors, vectors, field)


def code_by_method(g: Graph, field: PrimeField, method: str, seed: int = 0) -> IndexCode:
    """One-call code construction for a side-information graph.

    'minrank' solves for the optimal length; 'local' colors the complement
    with optimal locality and applies a generic vector family; 'compress'
    randomly compresses the coloring-induced orthogonal representation of
    the complement."""
    from .coloring import local_chromatic_number
    from .ortho import coloring_to_rep, minrank

    if method == "minrank":
        return code_from_minrank_witness(g, minrank(g, field).witness)
    if method == "local":
        colors = local_chromatic_number(complement(g)).witness
        return code_from_coloring(g, list(colors), field)
    if method == "compress":
        h = complement(g)
        colors = local_chromatic_number(h).witness
        rep = coloring_to_rep(h, list(colors), field)
        compressed = compress_representation(h, rep, seed=seed)
        return code_from_minrank_witness(g, compressed.rep)
    raise ValueError(f"unknown method {method!r}; expected minrank, local, or compress")


# -- randomized compression ---------------------------------------------------


@dataclass(frozen=True)
class CompressionResult:
    attempts: int
    rep: Representation  # independent, dimension locality + ceil(log_q n)


def compress_attempt(g: Graph, rep: Representation, m: int, seed: int) -> Optional[Representation]:
    """One compression trial: w_v -> A w_v for a seeded uniform A in F^(m x t);
    returns the image as an independent representation of g, or None."""
    a = random_matrix(m, rep.t, rep.field, seed)
    mapped = Representation(
        rep.field, m, tuple(a.mul_vec(v) for v in rep.vectors), kind="independent"
    )
    return mapped if not independence_violations(g, mapped) else None


def compress_representation(g: Graph, rep: Representation, seed: int = 0, retries: int = 64) -> CompressionResult:
    """Compress an orthogonal representation of g with locality l to an
    independent representation in dimension l + ceil(log_q n); each failed
    attempt (probability at most 1/q) reruns with the next derived seed."""
    bad = orthogonality_violations(g, rep)
    if bad:
        raise ValueError("invalid orthogonal representation: " + "; ".join(bad))
    ell = rep_locality(g, rep)
    m = ell + ceil_log(rep.field.size, g.n)
    for k in range(retries):
        mapped = compress_attempt(g, rep, m, seed + k)
        if mapped is not None:
            return CompressionResult(k + 1, mapped)
    raise CompressionError(f"compression failed {retries} times (probability <= q^-{retries})")


# -- simulation ---------------------------------------------------------------


@dataclass(frozen=True)
class SimulationReport:
    trials: int
    failures: int
    length: int


def simulate(code: IndexCode, trials: int, seed: int = 0) -> SimulationReport:
    """Round-trip uniformly random messages through encode/decode for every
    receiver; failures must be zero for a valid code."""
    rng = random.Random(seed)
    q = code.field.size
    rows = code.decode_rows
    failures = 0
    for _ in range(trials):
        x = [rng.randrange(q) for _ in range(code.n)]
        y = encode(code, x)
        # row i lists exactly N(i), so receiver i reads x only at its side information
        failures += sum(_decode(q, row, y, x) != xi for row, xi in zip(rows, x))
    return SimulationReport(trials, failures, code.length)
