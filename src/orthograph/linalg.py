"""Dense exact linear algebra over a field: rank, nullspace, echelon bases,
the subspace table of F^t, and the deterministic vector-family
constructions (Vandermonde, greedy Schulman families, seeded random
matrices).

Vectors are tuples of canonical field values; matrices are tuples of row
tuples.  Gaussian elimination always pivots on the first nonzero entry in
scan order, so every result is deterministic across runs and platforms.

There are two elimination kernels, one per job.  EchelonBasis is exact over
any field, Q included: it verifies witnesses and builds codes
(build_code, nullspace_basis, solve_row, and the dual vectors of
indexcoding.representing_matrix).  Its row operations are one field call
per row (the fields' scale and sub_scaled), not one per entry; each call
binds the field's zero once, finds a residual's pivot with a plain loop,
and inserts a new row at its place by bisect on the pivots.
build_code solves every receiver against one [B | I] basis (solve_rows, of
which solve_row is the one-target case).  Its rows have ascending pivots,
so a vector of the span carries its coefficient on row i at pivot i: the
lexicographically smallest span vector with a nonzero inner product
against a target is the last row that has one
(indexcoding._smallest_combination).  That search is also
representing_matrix's only independence check: the standard form is
nondegenerate, so (S^perp)^perp = S, and a dual vector for u_i exists
exactly when u_i lies outside the span S of its non-neighbours' vectors.

_SpanTable numbers the projective points of GF(p)^t and interns subspaces
as bitmasks over them; every search over GF(p) runs on it, the greedy
Schulman family included.  _SpanTable._insert keeps its own plain-int
echelon step on point tuples: it runs once per subspace the search meets,
and routing it through EchelonBasis's field calls and list copies costs the
searches time and memory.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .fields import Field, PrimeField
from .graphs import CapExceededError

Vector = tuple
MAX_POINTS = 2**20  # the most points of F^t a span table may have


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
        element = self.field.element
        object.__setattr__(self, "rows", tuple(tuple(map(element, r)) for r in self.rows))
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ValueError("ragged matrix rows")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

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
        zero = f.zero
        v = f.scale(f.one, v)  # canonical copy
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c != zero:
                v = f.sub_scaled(v, c, row)  # row is zero before its pivot
        return tuple(v)

    def contains(self, v: Sequence) -> bool:
        zero = self.field.zero
        for x in self.reduce(v):
            if x != zero:
                return False
        return True

    def add(self, v: Sequence) -> bool:
        """Insert v if independent of the basis.  Returns True if v was
        already in the span (basis unchanged), False if it was inserted."""
        f = self.field
        zero = f.zero
        res = self.reduce(v)
        for pivot, lead in enumerate(res):
            if lead != zero:
                break
        else:
            return True
        res = tuple(f.scale(f.inv(lead), res))
        # back-eliminate the new pivot from existing rows
        rows = self.rows
        for k, row in enumerate(rows):
            c = row[pivot]
            if c != zero:
                rows[k] = tuple(f.sub_scaled(row, c, res))
        at = bisect.bisect(self.pivots, pivot)
        rows.insert(at, res)
        self.pivots.insert(at, pivot)
        return False


def rank(m: Matrix) -> int:
    """Row rank by Gaussian elimination, first-nonzero pivoting."""
    return EchelonBasis(m.field, m.ncols, m.rows).dim


def nullspace_basis(m: Matrix) -> list[Vector]:
    """Basis of {x : M x = 0}, one vector per free column, deterministic."""
    f = m.field
    reduced = EchelonBasis(m.field, m.ncols, m.rows)
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
    """Coefficients lam with sum(lam_i * basis_rows[i]) == target, or None;
    the one-target case of solve_rows."""
    return solve_rows(basis_rows, [target], field)[0]


def solve_rows(basis_rows: Sequence[Sequence], targets: Sequence[Sequence], field: Field) -> list:
    """solve_row for each of the targets, all of one length, against one
    elimination.

    Deterministic: eliminates with first-nonzero pivoting over the stacked
    system [rows | I] once, then reduces [target | 0] for each target."""
    if not targets:
        return []
    k = len(basis_rows)
    width = len(targets[0])
    aug = EchelonBasis(field, width + k)
    zero = field.zero
    one = field.one
    for i, r in enumerate(basis_rows):
        tag = [zero] * k
        tag[i] = one
        aug.add(tuple(r) + tuple(tag))
    out = []
    for target in targets:
        res = aug.reduce(tuple(target) + (zero,) * k)
        solved = not any(x != zero for x in res[:width])
        out.append(tuple(field.neg(x) for x in res[width:]) if solved else None)
    return out


# -- the subspace table -------------------------------------------------------


def _projective(v: tuple, p: int) -> tuple:
    """The multiple of a nonzero vector over GF(p) with leading coefficient 1."""
    scale = pow(next(x for x in v if x), p - 2, p)
    return tuple(scale * x % p for x in v)


def _floor(low: tuple, label: int, x: int, live: set) -> tuple:
    """low with class label's least value raised to x, and the classes
    without a column left reset to 0 (they constrain nothing)."""
    return tuple((x if k == label else v) if k in live else 0 for k, v in enumerate(low))


class _SpanTable:
    """The projective points of F^t, numbered in candidate order, with the
    subspaces the searches meet.

    Point j is the j-th vector with leading coefficient 1 in lexicographic
    order, so the points of the standard subspace span(e_1..e_r) come in the
    lexicographic order of their first r coordinates.  index and point
    convert by arithmetic, so no list of F^t is built.  A subspace is keyed
    by its reduced echelon rows and known by an id, 0 being the zero space;
    span[id] is the bitmask of its points, rank[id] its dimension, and
    extend(id, j) the id of the subspace spanned by it and point j, memoised
    per pair.  The points that point j adds are those of point(j) + span(id),
    one per vector of the old span, so a new mask is built by listing them.

    npts is the number of points, aniso the mask of the anisotropic ones,
    and orth_mask(j), built on first use, the mask of the anisotropic points
    orthogonal to point j.

    Column classes carry the symmetry breaking of the orthogonal search.  A
    class tuple gives each coordinate a class: two coordinates share one when
    they agree on every vector assigned so far, and class 0 holds the
    coordinates zero on all of them; the other classes are labelled 1, 2, ...
    in the order of their first coordinate, so one partition has one tuple.
    Class tuples are interned like subspaces: classes[k] is the tuple of id
    k, id 0 being the tuple before any assignment (all coordinates in class
    0), and refine(k, j) the id of the classes once point j is also
    assigned, memoised per pair.  class_mask(k), built on first use, is the
    mask of the points nondecreasing inside each class whose class-0 entries
    are at most p//2; a class tuple of singletons without class 0 allows
    every point.  singletons, interned on first use, is the id of that
    tuple, (1, 2, ..., t): refine maps it to itself, so a search started
    there breaks no symmetry.

    _span_table keeps the tables of the searches in ortho in a 16-entry LRU
    cache and refuses one of more than MAX_POINTS points before it is built;
    schulman_vectors builds its own, so it evicts none of them, and lists
    only spans of rank at most ell, so no bound applies there.
    Arithmetic is plain %, not PrimeField's: a table is cached across
    searches, so field-operation counts taken per search must not include
    its construction."""

    def __init__(self, p: int, t: int):
        self.p = p
        self.t = t
        self.keys: list = [()]
        self.ids = {(): 0}
        self.span = [0]
        self.rank = [0]
        self._ext: list = [{}]
        self._standard = [0]
        self._orth: dict = {}
        self.npts = (p**t - 1) // (p - 1)
        self.classes: list = [(0,) * t]
        self._class_ids = {self.classes[0]: 0}
        self._refine: list = [{}]
        self._class_mask: list = [None]

    def points(self):
        """The points in number order."""
        for lead in range(self.t - 1, -1, -1):
            head = (0,) * lead + (1,)
            for tail in itertools.product(range(self.p), repeat=self.t - 1 - lead):
                yield head + tail

    @functools.cached_property
    def aniso(self) -> int:
        p, m = self.p, 0
        for j, v in enumerate(self.points()):
            if sum(x * x for x in v) % p:
                m |= 1 << j
        return m

    def refine(self, k: int, j: int) -> int:
        nxt = self._refine[k].get(j)
        if nxt is None:
            labels = {(0, 0): 0}  # zero before and on point j: still class 0
            cls = tuple(labels.setdefault(pair, len(labels)) for pair in zip(self.classes[k], self.point(j)))
            nxt = self._refine[k][j] = self._intern_classes(cls)
        return nxt

    def _intern_classes(self, cls: tuple) -> int:
        k = self._class_ids.get(cls)
        if k is None:
            k = self._class_ids[cls] = len(self.classes)
            self.classes.append(cls)
            self._refine.append({})
            self._class_mask.append(None)
        return k

    @functools.cached_property
    def singletons(self) -> int:
        return self._intern_classes(tuple(range(1, self.t + 1)))

    def class_mask(self, k: int) -> int:
        m = self._class_mask[k]
        if m is None:
            m = self._class_mask[k] = self._build_class_mask(self.classes[k])
        return m

    def _build_class_mask(self, cls: tuple) -> int:
        """The points with their leading 1 at column lead are numbered from
        unit(lead) on, in the lexicographic order of their later entries, so
        the mask is laid out by shifts.  tails(c, low) is the mask, over the
        vectors of entries c..t-1 in lexicographic order, of those allowed
        when each class's next entry must be at least low[label] (the last
        entry it was given); it depends on nothing else, so it is memoised."""
        p, t = self.p, self.t
        top = [p // 2 if label == 0 else p - 1 for label in cls]
        live = [set(cls[c:]) for c in range(t + 1)]  # classes with a column at c or later

        @functools.lru_cache(maxsize=None)
        def tails(c: int, low: tuple) -> int:
            if c == t:
                return 1
            size, label, m = p ** (t - c - 1), cls[c], 0
            for x in range(low[label], top[c] + 1):
                m |= tails(c + 1, _floor(low, label, x, live[c + 1])) << x * size
            return m

        base = (0,) * (t + 1)  # labels run from 0 to at most t
        m = 0
        for lead in range(t):
            m |= tails(lead + 1, _floor(base, cls[lead], 1, live[lead + 1])) << self.unit(lead)
        return m

    def orth_mask(self, j: int) -> int:
        m = self._orth.get(j)
        if m is None:
            p, v, m = self.p, self.point(j), 0
            for k, u in enumerate(self.points()):
                if not sum(a * b for a, b in zip(u, v)) % p:
                    m |= 1 << k
            m = self._orth[j] = m & self.aniso
        return m

    def index(self, v: Sequence[int]) -> int:
        """Number of the point on the line through the nonzero vector v."""
        p = self.p
        lead = next(k for k, x in enumerate(v) if x)
        scale = pow(v[lead], p - 2, p)
        j = 0
        for x in v[lead + 1:]:
            j = j * p + x * scale % p
        return self.unit(lead) + j

    def unit(self, r: int) -> int:
        """Number of the point e_{r+1}, the first with its leading 1 at r.
        The points with a later leading 1 come before it, p^0 + p^1 + ...
        + p^(t-2-r) of them."""
        return (self.p ** (self.t - 1 - r) - 1) // (self.p - 1)

    def point(self, j: int) -> tuple:
        """The vector numbered j; the inverse of index."""
        p, lead, size = self.p, self.t - 1, 1
        while j >= size:
            j -= size
            lead -= 1
            size *= p
        tail = []
        for _ in range(self.t - 1 - lead):
            j, x = divmod(j, p)
            tail.append(x)
        return (0,) * lead + (1,) + tuple(reversed(tail))

    def standard(self, r: int) -> int:
        """Id of span(e_1..e_r), built on first use."""
        while len(self._standard) <= r:
            self._standard.append(self.extend(self._standard[-1], self.unit(len(self._standard) - 1)))
        return self._standard[r]

    def extend(self, key: int, j: int) -> int:
        nxt = self._ext[key].get(j)
        if nxt is None:
            nxt = self._ext[key][j] = key if self.span[key] >> j & 1 else self._insert(key, j)
        return nxt

    def _insert(self, key: int, j: int) -> int:
        """Id of span(key) + point j, for point j outside span(key)."""
        p = self.p
        old, vec = self.keys[key], self.point(j)
        v = list(vec)
        for row in old:
            c = v[row.index(1)]  # a reduced row's first nonzero is its pivot 1
            if c:
                v = [(x - c * y) % p for x, y in zip(v, row)]
        new = _projective(v, p)
        pivot = new.index(1)
        rows = [tuple((x - row[pivot] * y) % p for x, y in zip(row, new)) if row[pivot] else row for row in old]
        rows = tuple(sorted(rows + [new], reverse=True))  # pivots ascending
        nxt = self.ids.get(rows)
        if nxt is None:
            mask = self.span[key]
            for coeffs in itertools.product(range(p), repeat=len(old)):
                w = vec
                for c, row in zip(coeffs, old):
                    if c:
                        w = tuple((x + c * y) % p for x, y in zip(w, row))
                mask |= 1 << self.index(w)
            nxt = self.ids[rows] = len(self.keys)
            self.keys.append(rows)
            self.span.append(mask)
            self.rank.append(len(rows))
            self._ext.append({})
        return nxt


@functools.lru_cache(maxsize=16)
def _span_table(p: int, t: int) -> _SpanTable:
    # F^t has at least 2^t - 1 points, so p**t is only taken for small t
    if t > MAX_POINTS.bit_length() or (p**t - 1) // (p - 1) > MAX_POINTS:
        raise CapExceededError(f"GF({p})^{t} has more than MAX_POINTS = {MAX_POINTS} points")
    return _SpanTable(p, t)


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


def schulman_vectors(sets: Sequence[Iterable[int]], m: int, ell: int, field: PrimeField) -> list[Vector]:
    """Greedy family u_0..u_{m-1} in F^t, t = ell + ceil(log_q h), such that
    for every given subset H of range(m) the vectors {u_i : i in H} are
    linearly independent.

    Each u_j is the lexicographically smallest nonzero vector of F^t outside
    span({u_i : i in H, i < j}) for every H containing j: the lowest point
    of the span table outside those spans, since a line's smallest vector is
    its point and points are numbered in lexicographic order.  The counting
    bound h*q^(ell-1) < q^t guarantees the greedy choice never gets stuck.
    """
    q = field.size
    sets = [sorted(set(h)) for h in sets]
    for h in sets:
        if len(h) > ell:
            raise ValueError(f"constraint set of size {len(h)} exceeds ell={ell}")
        if h and (h[0] < 0 or h[-1] >= m):
            raise ValueError("constraint set element out of range")
    t = ell + ceil_log(q, len(sets))
    # uncached: in the LRU of _span_table it would evict the searches' tables
    tab = _SpanTable(q, t)
    chosen: list[int] = []
    for j in range(m):
        taken = 0
        for h in sets:
            if j in h:
                taken |= tab.span[functools.reduce(tab.extend, [chosen[i] for i in h if i < j], 0)]
        c = (~taken & (taken + 1)).bit_length() - 1  # the lowest point outside
        if c >= tab.npts:  # pragma: no cover - impossible by the counting bound
            raise RuntimeError("greedy choice failed; counting bound violated")
        chosen.append(c)
    return [tab.point(c) for c in chosen]


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
