"""Dense exact linear algebra over a field: rank, nullspace, echelon bases,
and the deterministic vector-family constructions (Vandermonde, greedy
Schulman families, seeded random matrices).

Vectors are tuples of canonical field values; matrices are tuples of row
tuples.  Gaussian elimination always pivots on the first nonzero entry in
scan order, so every result is deterministic across runs and platforms.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .fields import Field, PrimeField

Vector = tuple


class FieldTooSmallError(ValueError):
    """A construction needs more distinct field elements than the field has."""


def ceil_log(q: int, h: int) -> int:
    """Smallest s >= 0 with q**s >= h; 0 when h <= 1."""
    if h <= 1:
        return 0
    s = 0
    power = 1
    while power < h:
        power *= q
        s += 1
    return s


@dataclass(frozen=True)
class Matrix:
    """Immutable row-major matrix over a fixed field."""

    field: Field
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(self.field.element(x) for x in r) for r in self.rows))
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ValueError("ragged matrix rows")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def transpose(self) -> "Matrix":
        return Matrix(self.field, tuple(zip(*self.rows)) if self.rows else ())

    def mul_vec(self, x: Sequence) -> Vector:
        return tuple(self.field.inner(r, x) for r in self.rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]


class EchelonBasis:
    """Reduced row-echelon basis of a subspace, supporting membership tests
    and extension by one vector at a time.

    Rows have leading entry 1 in strictly increasing pivot columns, and every
    pivot column is zero in all other rows.
    """

    def __init__(self, field: Field, ncols: int, rows: Iterable[Sequence] = ()):
        self.field = field
        self.ncols = ncols
        self.rows: list[Vector] = []
        self.pivots: list[int] = []
        for r in rows:
            self.add(r)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: Sequence) -> Vector:
        """Residual of v after elimination against the basis; zero iff v is in the span."""
        if len(v) != self.ncols:
            raise ValueError(f"vector length {len(v)} != basis width {self.ncols}")
        f = self.field
        v = list(f.element(x) for x in v)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c != f.zero:
                for j in range(p, self.ncols):
                    v[j] = f.sub(v[j], f.mul(c, row[j]))
        return tuple(v)

    def contains(self, v: Sequence) -> bool:
        f = self.field
        return all(x == f.zero for x in self.reduce(v))

    def add(self, v: Sequence) -> bool:
        """Insert v if independent of the basis.  Returns True if v was
        already in the span (basis unchanged), False if it was inserted."""
        f = self.field
        res = list(self.reduce(v))
        pivot = next((j for j, x in enumerate(res) if x != f.zero), None)
        if pivot is None:
            return True
        c = f.inv(res[pivot])
        res = [f.mul(c, x) for x in res]
        # back-eliminate the new pivot from existing rows
        for k, row in enumerate(self.rows):
            c = row[pivot]
            if c != f.zero:
                self.rows[k] = tuple(f.sub(x, f.mul(c, y)) for x, y in zip(row, res))
        at = next((k for k, p in enumerate(self.pivots) if p > pivot), len(self.pivots))
        self.rows.insert(at, tuple(res))
        self.pivots.insert(at, pivot)
        return False


def rank(m: Matrix) -> int:
    """Row rank by Gaussian elimination, first-nonzero pivoting."""
    basis = EchelonBasis(m.field, m.ncols)
    for r in m.rows:
        basis.add(r)
    return basis.dim


def row_space(m: Matrix) -> EchelonBasis:
    basis = EchelonBasis(m.field, m.ncols)
    for r in m.rows:
        basis.add(r)
    return basis


def nullspace_basis(m: Matrix) -> list[Vector]:
    """Basis of {x : M x = 0}, one vector per free column, deterministic."""
    f = m.field
    reduced = row_space(m)
    n = m.ncols
    pivot_of = {p: row for row, p in zip(reduced.rows, reduced.pivots)}
    free_cols = [j for j in range(n) if j not in pivot_of]
    out = []
    for j in free_cols:
        x = [f.zero] * n
        x[j] = f.one
        for p, row in pivot_of.items():
            x[p] = f.neg(row[j])
        out.append(tuple(x))
    return out


def solve_row(basis_rows: Sequence[Sequence], target: Sequence, field: Field):
    """Coefficients lam with sum(lam_i * basis_rows[i]) == target, or None.

    Deterministic: eliminates with first-nonzero pivoting over the stacked
    system [rows | I]."""
    k = len(basis_rows)
    width = len(target)
    aug = EchelonBasis(field, width + k)
    zero = field.zero
    one = field.one
    for i, r in enumerate(basis_rows):
        tag = [zero] * k
        tag[i] = one
        aug.add(tuple(r) + tuple(tag))
    res = aug.reduce(tuple(target) + tuple([zero] * k))
    if any(x != zero for x in res[:width]):
        return None
    return tuple(field.neg(x) for x in res[width:])


def vandermonde(m: int, ell: int, field: PrimeField) -> list[Vector]:
    """m vectors (1, a, a^2, ..., a^(ell-1)) at the first m field elements.

    Every ell of them are linearly independent.  Requires |F| >= m (otherwise
    no such family exists in general) and ell <= m.
    """
    q = field.size
    if q is None:
        raise ValueError("vandermonde construction needs a finite field")
    if q < m:
        raise FieldTooSmallError(f"need {m} distinct evaluation points, GF({q}) has only {q}")
    if ell > m:
        raise ValueError(f"ell={ell} exceeds m={m}")
    out = []
    for a in range(m):
        out.append(tuple(pow(a, e, q) if e else 1 for e in range(ell)))
    return out


def all_vectors(field: PrimeField, t: int):
    """All of F^t in odometer order (last coordinate fastest)."""
    return itertools.product(range(field.size), repeat=t)


def schulman_vectors(sets: Sequence[Iterable[int]], m: int, ell: int, field: PrimeField) -> list[Vector]:
    """Greedy family u_0..u_{m-1} in F^t, t = ell + ceil(log_q h), such that
    for every given subset H of range(m) the vectors {u_i : i in H} are
    linearly independent.

    Each u_j is the lexicographically smallest nonzero vector of F^t outside
    span({u_i : i in H, i < j}) for every H containing j.  The counting bound
    h*q^(ell-1) < q^t guarantees the greedy choice never gets stuck.
    """
    q = field.size
    sets = [sorted(set(h)) for h in sets]
    for h in sets:
        if len(h) > ell:
            raise ValueError(f"constraint set of size {len(h)} exceeds ell={ell}")
        if h and (h[0] < 0 or h[-1] >= m):
            raise ValueError("constraint set element out of range")
    t = ell + ceil_log(q, len(sets))
    zero_vec = (field.zero,) * t
    out: list[Vector] = []
    for j in range(m):
        spans = []
        for h in sets:
            if j in h:
                b = EchelonBasis(field, t)
                for i in h:
                    if i < j:
                        b.add(out[i])
                spans.append(b)
        for cand in all_vectors(field, t):
            if cand == zero_vec:
                continue
            if all(not b.contains(cand) for b in spans):
                out.append(cand)
                break
        else:  # pragma: no cover - impossible by the counting bound
            raise RuntimeError("greedy choice failed; counting bound violated")
    return out


def verify_family(sets: Sequence[Iterable[int]], vectors: Sequence[Vector], field: Field) -> bool:
    """Check that for every given subset the indexed vectors are independent."""
    for h in sets:
        idx = sorted(set(h))
        b = EchelonBasis(field, len(vectors[0]) if vectors else 0)
        for i in idx:
            if b.add(vectors[i]):
                return False
    return True


def random_matrix(nrows: int, ncols: int, field: PrimeField, seed: int) -> Matrix:
    """Uniform i.i.d. entries from a seeded deterministic generator."""
    if field.size is None:
        raise ValueError("random matrices require a finite field")
    rng = random.Random(seed)
    return Matrix(field, tuple(tuple(rng.randrange(field.size) for _ in range(ncols)) for _ in range(nrows)))
