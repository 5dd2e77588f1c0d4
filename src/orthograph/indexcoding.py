"""Linear index codes for a side-information graph G over a finite field.

A matrix M represents G when its diagonal is nonzero and M[i][j] = 0 for
distinct non-adjacent i, j.  Broadcasting the rank(M) independent rows of M
lets receiver i recover x_i from the broadcast plus the side information
{x_j : j adjacent to i}: each row M_i is a combination of the broadcast
rows, and its off-diagonal support lies inside N(i).

code_by_method has three routes, and each ends in an independent
representation of h = complement(G):
  * 'minrank': the exact minrank witness (optimal length);
  * 'local': a vector per color of an optimal local coloring of h, from a
    family in which every closed neighborhood's colors get independent
    vectors, with l the proven local chromatic number (Vandermonde when
    the field has at least as many elements as colors, else the greedy
    Schulman family, adding ceil(log_q n) dimensions);
  * 'compress': randomized compression of the orthogonal representation
    that coloring induces, down to l + ceil(log_q n) dimensions; each
    attempt is accepted by independence_violations.
All three share one tail: build_code(g, representing_matrix(g, rep)).

representing_matrix takes each y_i from one elimination, of the
coordinate-reversed vectors of i's non-neighbors: read back in original
coordinates, their nullspace basis is the reduced echelon basis of the
orthogonal complement, with descending pivots, so lexicographic order on
the complement is lexicographic order on the coefficient tuples taken by
ascending pivot, and the first row not orthogonal to u_i is the
lexicographically smallest choice.
On the minrank and local routes the same step is the only check that the
representation is independent; the compress route also checks each
attempt, as the acceptance test of its random step.
The standard form is nondegenerate, so (S^perp)^perp = S for every subspace
S: with S the span of i's non-neighbours' vectors, a y in S^perp with
<y, u_i> != 0 exists exactly when u_i lies outside S.  So the search for y
fails exactly at the vertices whose vector lies in the span of their
neighbours in the complement, and representing_matrix names all of them.

representing_matrix needs no pattern check of its own: y_i is orthogonal
to the vectors of i's non-neighbors and <y_i, u_i> != 0, so M has the
pattern by construction.  check_representing runs only in build_code,
which also takes matrices from elsewhere, and reads each row once: row i
may be nonzero only inside the mask adj[i] | 1 << i, and its diagonal must
be nonzero.

build_code solves every receiver's lambda_i against one elimination of
[B | I].  Each receiver's decode row (lambda_i, the neighbours j in N(i) in
ascending order, their entries M_ij in the same order, and M_ii^-1 mod q)
is computed once per code, as IndexCode.decode_rows.  decode_one decodes
one receiver from its row in plain-int arithmetic with
sum(map(operator.mul, ...)), reading the message only at the receiver's
neighbours.  IndexCode.residuals folds each decode row into the receiver's
residual row r_i, with decoded x_i = x_i + r_i . x mod q, once per code,
and is the one place that decides which receivers fail: simulate draws
messages only when some r_i is nonzero mod q, and the CLI's verify names
exactly the receivers with a nonzero r_i.
"""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .coloring import ParamResult, local_chromatic_number
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
from .ortho import Representation, coloring_to_rep, independence_violations, minrank, rep_locality


COMPRESSION_RETRIES = 64  # seeded attempts before compress_representation gives up


class RepresentingPatternError(ValueError):
    """Matrix does not represent the side-information graph."""


class CompressionError(RuntimeError):
    """Every randomized compression attempt failed."""


def check_representing(g: Graph, m: Matrix) -> None:
    if m.nrows != g.n or m.ncols != g.n:
        raise RepresentingPatternError(f"matrix is {m.nrows}x{m.ncols}, graph has {g.n} vertices")
    zero = m.field.zero
    for i, (row, nbrs) in enumerate(zip(m.rows, g.adj)):
        if row[i] == zero:
            raise RepresentingPatternError(f"zero diagonal entry at {i}")
        allowed = nbrs | 1 << i
        for j, x in enumerate(row):
            if x != zero and not allowed >> j & 1:
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
        """Per receiver i: (lambda_i, the neighbours j in N(i) in ascending
        order, their entries M_ij in the same order, M_ii^-1 mod q).  A code
        without one decode row of the code length per receiver, or whose
        broadcast rows do not have n entries, raises ValueError."""
        if len(self.decode_coeffs) != self.n:
            raise ValueError(f"{len(self.decode_coeffs)} rows of decode coefficients, graph has {self.n} vertices")
        if any(len(lam) != self.length for lam in self.decode_coeffs):
            raise ValueError(f"decode coefficients must have the code length {self.length}")
        self._check_width()
        out = []
        for i, (lam, row, nbrs) in enumerate(zip(self.decode_coeffs, self.matrix.rows, self.graph.adj, strict=True)):
            side = tuple(_bits(nbrs))
            out.append((lam, side, tuple(row[j] for j in side), self.field.inv(row[i])))
        return tuple(out)

    @functools.cached_property
    def residuals(self) -> dict:
        """Receiver i -> its residual row r_i mod q, for every receiver whose
        row is nonzero; an empty dict means every receiver decodes.

        Receiver i decodes M_ii^-1 (lambda_i . B x - sum_{j in N(i)} M_ij x_j),
        which is x_i + r_i . x mod q for
            r_i = M_ii^-1 (lambda_i B - sum_{j in N(i)} M_ij e_j) - e_i,
        so it decodes every message exactly when r_i = 0.  When M has the
        pattern of the graph (check_representing), its row is
        M_i = M_ii e_i + sum_{j in N(i)} M_ij e_j, so r_i = 0 exactly when
        lambda_i B = M_i: the failing receivers are those whose decode
        coefficients do not reconstruct their row of M, and no separate
        product is needed to find them.  The rows cost O(n^2 length) once
        per code; decode_rows' ValueErrors apply."""
        q, mul = self.field.size, operator.mul
        cols = tuple(zip(*self.encode_matrix.rows)) or ((),) * self.n
        out = {}
        for i, (lam, side, coeffs, inv) in enumerate(self.decode_rows):
            r = [sum(map(mul, lam, col)) for col in cols]  # lambda_i B
            for j, c in zip(side, coeffs):
                r[j] -= c
            r = [inv * x % q for x in r]
            r[i] = (r[i] - 1) % q
            if any(r):
                out[i] = r
        return out

    def _check_width(self) -> None:
        if self.length and self.encode_matrix.ncols != self.n:
            raise ValueError(f"broadcast rows have {self.encode_matrix.ncols} entries, graph has {self.n} vertices")


def representing_matrix(g: Graph, rep: Representation) -> Matrix:
    """Representing matrix for g built from an independent representation of
    the complement of g.

    For each vertex i, y_i is the lexicographically smallest vector that is
    orthogonal to the span S of i's non-neighbors' vectors and not
    orthogonal to u_i; then M[i][j] = <y_i, u_j>.  Each y_i costs one
    elimination (_dual_vector).  Reversing coordinates keeps inner products,
    so null(RS) = R null(S) for the reversal R: nullspace_basis of the
    reversed vectors, read back in original coordinates, is the reduced
    echelon basis of S^perp (which is unique), listed with descending
    pivots.  A vector of S^perp carries its coefficient on each row at that
    row's pivot, so lexicographic order on S^perp is lexicographic order on
    the coefficient tuples taken by ascending pivot, and y_i is the first
    listed row that is not orthogonal to u_i.  The cost is polynomial in t.

    The dual-vector step is also the independence check: since
    (S^perp)^perp = S, no y exists exactly when u_i lies in the span S of
    its non-neighbors' vectors.  The ValueError names every such vertex."""
    if len(rep.vectors) != g.n:
        raise ValueError(f"representation covers {len(rep.vectors)} vertices, graph has {g.n}")
    f = rep.field
    full = (1 << g.n) - 1
    rows, bad = [], []
    for i in range(g.n):
        y = _dual_vector(f, [rep.vectors[u] for u in _bits(full & ~g.closed(i))], rep.vectors[i])
        if y is None:
            bad.append(f"vertex {i}: vector lies in the span of its neighbors")
        else:
            rows.append(tuple(f.inner(y, u) for u in rep.vectors))
    if bad:
        raise ValueError("not an independent representation of the complement: " + "; ".join(bad))
    return Matrix(f, tuple(rows))


def _dual_vector(field: PrimeField, vectors: Sequence[tuple], target: tuple) -> Optional[tuple]:
    """Lexicographically smallest y orthogonal to every vector of
    vectors with <y, target> != 0, or None when target lies in their span.

    One elimination, of the coordinate-reversed vectors: nullspace_basis's
    vector for free column j has its last nonzero entry, a 1, at j and is
    zero at the other free columns, so reversed back the vectors are the
    reduced echelon rows of the orthogonal complement, with descending
    pivots; the first with a nonzero inner product is y."""
    flipped = [v[::-1] for v in vectors] or [(field.zero,) * len(target)]  # a zero row keeps the width
    backwards = target[::-1]
    for x in nullspace_basis(Matrix(field, tuple(flipped))):
        if field.inner(x, backwards):
            return x[::-1]
    return None


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
    """Broadcast word y = B x for a message x in F^n; broadcast rows
    without n entries raise ValueError."""
    if len(x) != code.n:
        raise ValueError(f"message length {len(x)} != n={code.n}")
    code._check_width()
    p = code.field.p
    return tuple(sum(map(operator.mul, row, x)) % p for row in code.encode_matrix.rows)


def decode_one(code: IndexCode, i: int, y: Sequence, side_info: dict) -> object:
    """Recover x_i from the broadcast y and the side information
    {j: x_j for j in N(i)}; a receiver outside range(n) raises ValueError."""
    if not 0 <= i < code.n:
        raise ValueError(f"receiver {i} out of range for n={code.n}")
    if set(side_info) != set(_bits(code.graph.adj[i])):
        raise ValueError(f"side information must cover exactly the neighbors of {i}")
    if len(y) != code.length:
        raise ValueError(f"broadcast length {len(y)} != code length {code.length}")
    return _decode(code.field.p, code.decode_rows[i], y, side_info)


def _decode(p: int, row: tuple, y: Sequence, known) -> int:
    """x_i = (lambda_i . y - sum of M_ij x_j over j in N(i)) / M_ii, from a
    decode row of IndexCode.decode_rows; known is read only at N(i)."""
    lam, side, coeffs, inv = row
    mul = operator.mul
    total = sum(map(mul, lam, y)) - sum(map(mul, coeffs, map(known.__getitem__, side)))  # = M_ii x_i
    return total * inv % p


# -- code constructions -------------------------------------------------------


def code_by_method(g: Graph, field: PrimeField, method: str, seed: int = 0) -> IndexCode:
    """One-call code construction for a side-information graph.

    Each route finds an independent representation of h = complement(g):
    'minrank' the optimal one; 'local' a vector family over an optimal
    local coloring of h; 'compress' a random compression of the
    orthogonal representation that coloring induces.  All three end in
    build_code(g, representing_matrix(g, rep))."""
    if method == "minrank":
        rep = minrank(g, field).witness
    elif method in ("local", "compress"):
        h = complement(g)
        chi_local = local_chromatic_number(h)
        if method == "local":
            rep = _family_rep(h, chi_local, field)
        else:
            rep = compress_representation(h, coloring_to_rep(h, chi_local.witness, field), seed=seed).rep
    else:
        raise ValueError(f"unknown method {method!r}; expected minrank, local, or compress")
    return build_code(g, representing_matrix(g, rep))


def _family_rep(h: Graph, chi_local: ParamResult, field: PrimeField) -> Representation:
    """Independent representation of h from its local chromatic witness,
    with l = chi_local.value: a vector per color from a family in which the
    colors of every closed neighborhood get independent vectors.  That is
    the Vandermonde family when the field has at least as many elements as
    colors, else the Schulman family over the closed neighborhoods' color
    sets, which adds ceil(log_q n) dimensions."""
    colors, ell = chi_local.witness, chi_local.value
    palette = sorted(set(colors))
    index = {c: k for k, c in enumerate(palette)}
    m = len(palette)
    if field.size >= m:
        vectors = vandermonde(m, ell, field)
    else:
        sets = [{index[colors[u]] for u in _bits(h.closed(v))} for v in range(h.n)]
        vectors = schulman_vectors(sets, m, ell, field)
    t = len(vectors[0]) if vectors else 0  # no colors: h has no vertices
    return Representation(field, t, tuple(vectors[index[c]] for c in colors))


# -- randomized compression ---------------------------------------------------


@dataclass(frozen=True)
class CompressionResult:
    attempts: int
    rep: Representation  # independent, dimension locality + ceil(log_q n)


def compress_attempt(g: Graph, rep: Representation, m: int, seed: int) -> Optional[Representation]:
    """One compression trial: w_v -> A w_v for a seeded uniform A in F^(m x t);
    returns the image as an independent representation of g, or None."""
    a = random_matrix(m, rep.t, rep.field, seed)
    mapped = Representation(rep.field, m, tuple(a.mul_vec(v) for v in rep.vectors))
    return mapped if not independence_violations(g, mapped) else None


def compress_representation(g: Graph, rep: Representation, seed: int = 0) -> CompressionResult:
    """Compress an orthogonal representation of g with locality l to an
    independent representation in dimension l + ceil(log_q n); each failed
    attempt (probability at most 1/q) reruns with the next derived seed, up
    to COMPRESSION_RETRIES attempts."""
    ell = rep_locality(g, rep)  # raises ValueError on an invalid representation
    m = ell + ceil_log(rep.field.size, g.n)
    for k in range(COMPRESSION_RETRIES):
        mapped = compress_attempt(g, rep, m, seed + k)
        if mapped is not None:
            return CompressionResult(k + 1, mapped)
    raise CompressionError(f"compression failed {COMPRESSION_RETRIES} times (probability <= q^-{COMPRESSION_RETRIES})")


# -- simulation ---------------------------------------------------------------


@dataclass(frozen=True)
class SimulationReport:
    trials: int
    failures: int
    length: int


def simulate(code: IndexCode, trials: int, seed: int = 0) -> SimulationReport:
    """Round-trip uniformly random messages through the code for every
    receiver; failures must be zero for a valid code.

    Receiver i fails in a trial exactly when r_i . x is nonzero mod q, for
    its residual row r_i (IndexCode.residuals, built once per code).
    Messages are drawn only when some r_i is nonzero mod q, trial by trial
    with one randrange(q) per entry, and each such receiver then costs O(n)
    per trial; a valid code draws nothing, whatever trials is."""
    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")
    q, n = code.field.size, code.n
    residuals = code.residuals.values()
    failures = 0
    if residuals:
        mul = operator.mul
        randrange = random.Random(seed).randrange
        qs = [q] * n
        for _ in range(trials):
            x = list(map(randrange, qs))
            failures += sum(sum(map(mul, r, x)) % q != 0 for r in residuals)
    return SimulationReport(trials, failures, code.length)
