"""Exact linear algebra and the deterministic vector-family constructions."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from orthograph.fields import GF2, GF3, QQ, PrimeField
from orthograph.linalg import (
    MAX_POINTS,
    EchelonBasis,
    FieldTooSmallError,
    Matrix,
    ceil_log,
    nullspace_basis,
    random_matrix,
    rank,
    schulman_vectors,
    solve_row,
    solve_rows,
    vandermonde,
    verify_family,
    _SpanTable,
)

GF5 = PrimeField(5)


def test_ceil_log():
    assert ceil_log(2, 1) == 0
    assert ceil_log(2, 2) == 1
    assert ceil_log(2, 5) == 3
    assert ceil_log(3, 9) == 2
    assert ceil_log(3, 10) == 3


def test_matrix_canonicalizes_entries():
    m = Matrix(GF3, ((4, -1), (0, 5)))
    assert m.rows == ((1, 2), (0, 2))
    assert m[0, 1] == 2


def test_matrix_rejects_ragged_rows():
    with pytest.raises(ValueError):
        Matrix(GF2, ((1, 0), (1,)))


def test_mul_vec():
    m = Matrix(GF5, ((1, 2), (3, 4), (0, 1)))
    assert m.mul_vec((1, 1)) == (3, 2, 1)


def test_rank_over_gf2_and_rationals():
    assert rank(Matrix(GF2, ((1, 0, 1), (0, 1, 1), (1, 1, 0)))) == 2
    assert rank(Matrix(QQ, ((1, 2), (2, 4)))) == 1
    assert rank(Matrix(QQ, ((1, 2), (2, 5)))) == 2


def test_echelon_basis_membership_and_dim():
    b = EchelonBasis(GF5, 3)
    assert b.add((1, 2, 3)) is False
    assert b.add((2, 4, 1)) is True  # 2 * (1,2,3) mod 5
    assert b.add((0, 0, 1)) is False
    assert b.dim == 2
    assert b.contains((0, 0, 0))
    assert b.contains((1, 2, 4))  # (1,2,3) + (0,0,1)
    assert not b.contains((0, 1, 0))


def test_echelon_basis_is_reduced():
    b = EchelonBasis(GF5, 3, [(2, 2, 0), (0, 3, 3)])
    for row, p in zip(b.rows, b.pivots):
        assert row[p] == 1
        for other, q in zip(b.rows, b.pivots):
            if q != p:
                assert other[p] == 0
    assert b.pivots == sorted(b.pivots)


def test_nullspace_basis_dimension_theorem():
    m = Matrix(GF3, ((1, 1, 0, 2), (0, 1, 1, 1)))
    null = nullspace_basis(m)
    assert len(null) == 4 - rank(m)
    for x in null:
        assert m.mul_vec(x) == (0, 0)


def test_solve_row_reconstructs_target():
    rows = [(1, 0, 1), (0, 1, 1)]
    lam = solve_row(rows, (1, 1, 2), GF3)
    assert lam is not None
    combo = [0, 0, 0]
    for c, r in zip(lam, rows):
        for j in range(3):
            combo[j] = (combo[j] + c * r[j]) % 3
    assert tuple(combo) == (1, 1, 2)
    assert solve_row(rows, (0, 0, 1), GF3) is None


def _rref(rows, ncols):
    """Reference reduced row-echelon form over Q: (rows, pivot columns)."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def test_rational_elimination_matches_reference():
    rng = random.Random(17)
    entry = lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 5)) if rng.random() < 0.7 else Fraction(0)
    unsolvable = 0
    for _ in range(150):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        rows = [tuple(entry() for _ in range(ncols)) for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.4:  # a dependent row
            c = entry()
            rows[-1] = tuple(a + c * b for a, b in zip(rows[0], rows[1]))
        m = Matrix(QQ, tuple(rows))
        ref, pivots = _rref(rows, ncols)
        assert rank(m) == len(pivots)
        want = []
        for j in (j for j in range(ncols) if j not in pivots):
            x = [Fraction(0)] * ncols
            x[j] = Fraction(1)
            for row, p in zip(ref, pivots):
                x[p] = -row[j]
            want.append(tuple(x))
        null = nullspace_basis(m)
        assert null == want and all(isinstance(x, Fraction) for v in null for x in v)
        # targets in the row space and, where one exists, outside it
        basis = _independent(rows, ncols)
        for target in (tuple(entry() for _ in range(ncols)), rows[0]):
            lam = solve_row(basis, target, QQ)
            inside = len(_rref(basis + [target], ncols)[1]) == len(basis)
            assert (lam is not None) == inside
            if lam is None:
                unsolvable += 1
                continue
            assert all(isinstance(c, Fraction) for c in lam)
            assert tuple(sum((c * r[k] for c, r in zip(lam, basis)), Fraction(0)) for k in range(ncols)) == target
            # independent rows: lambda is unique, so it is the reference's own solution
            ref_t, _ = _rref([list(col) + [t] for col, t in zip(zip(*basis), target)], len(basis) + 1)
            assert lam == tuple(row[-1] for row in ref_t)
    assert unsolvable > 20


def _independent(rows, ncols):
    """The rows that raise the reference rank, in order."""
    out = []
    for r in rows:
        if len(_rref(out + [r], ncols)[1]) > len(out):
            out.append(r)
    return out


class _EchelonReference:
    """The echelon kernel as first written: a generator for the pivot, a
    linear scan for the insertion point, and field.zero read per test."""

    def __init__(self, field, ncols):
        self.field, self.ncols, self.rows, self.pivots = field, ncols, [], []

    def reduce(self, v):
        f = self.field
        v = f.scale(f.one, v)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c != f.zero:
                v = f.sub_scaled(v, c, row)
        return tuple(v)

    def contains(self, v):
        f = self.field
        return all(x == f.zero for x in self.reduce(v))

    def add(self, v):
        f = self.field
        res = self.reduce(v)
        pivot = next((j for j, x in enumerate(res) if x != f.zero), None)
        if pivot is None:
            return True
        res = tuple(f.scale(f.inv(res[pivot]), res))
        for k, row in enumerate(self.rows):
            c = row[pivot]
            if c != f.zero:
                self.rows[k] = tuple(f.sub_scaled(row, c, res))
        at = next((k for k, p in enumerate(self.pivots) if p > pivot), len(self.pivots))
        self.rows.insert(at, res)
        self.pivots.insert(at, pivot)
        return False


@pytest.mark.parametrize("field", [GF2, GF3, GF5, PrimeField(7), QQ], ids=str)
def test_echelon_basis_agrees_with_reference(field):
    rng = random.Random(str(field))
    if field is QQ:
        entry = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    else:
        entry = lambda: rng.randrange(field.size)
    added = inserted = contained = 0
    for _ in range(300):
        ncols = rng.randint(0, 6)
        basis, ref, seen = EchelonBasis(field, ncols), _EchelonReference(field, ncols), []

        def vector():
            roll = rng.random()
            if roll < 0.15:
                return (0,) * ncols
            if roll < 0.4 and seen:  # a combination of earlier vectors
                v = [0] * ncols
                for w in rng.sample(seen, rng.randint(1, len(seen))):
                    c = entry()
                    v = [field.element(a + c * b) for a, b in zip(v, w)]
                return tuple(v)
            return tuple(entry() if rng.random() < 0.6 else 0 for _ in range(ncols))

        for _ in range(rng.randint(0, 8)):
            v = vector()
            seen.append(v)
            got = basis.add(v)
            assert got is ref.add(v), (v, ref.rows)
            assert (basis.rows, basis.pivots) == (ref.rows, ref.pivots)
            added += 1
            inserted += not got
            probe = vector()
            hit = basis.contains(probe)
            assert hit is ref.contains(probe)
            assert basis.reduce(probe) == ref.reduce(probe)
            contained += hit
    assert 0.2 * added < inserted < 0.8 * added
    assert 0.2 * added < contained < 0.8 * added


def test_solve_rows_is_solve_row_per_target():
    rng = random.Random(3)
    for p in (2, 5, 31):
        f = PrimeField(p)
        rows = [tuple(rng.randrange(p) for _ in range(5)) for _ in range(3)]
        targets = [tuple(rng.randrange(p) for _ in range(5)) for _ in range(6)] + rows
        assert solve_rows(rows, targets, f) == [solve_row(rows, t, f) for t in targets]
    assert solve_rows([(1, 0)], [], GF2) == []


def test_vandermonde_values_and_subset_independence():
    assert vandermonde(3, 2, GF5) == [(1, 0), (1, 1), (1, 2)]
    vecs = vandermonde(5, 3, GF5)
    for subset in itertools.combinations(range(5), 3):
        b = EchelonBasis(GF5, 3)
        for i in subset:
            assert not b.add(vecs[i])


def test_vandermonde_field_too_small():
    with pytest.raises(FieldTooSmallError):
        vandermonde(3, 2, GF2)


def test_schulman_vectors_frozen_example():
    # two overlapping pair constraints over GF(2): t = 2 + ceil(log2 2) = 3
    sets = [{0, 1}, {1, 2}]
    vecs = schulman_vectors(sets, 3, 2, GF2)
    assert vecs == [(0, 0, 1), (0, 1, 0), (0, 0, 1)]
    assert verify_family(sets, vecs, GF2)


def test_schulman_vectors_greedy_is_deterministic():
    sets = [{0, 2}, {1, 2}, {0, 1}]
    a = schulman_vectors(sets, 3, 2, GF3)
    b = schulman_vectors(sets, 3, 2, GF3)
    assert a == b
    assert verify_family(sets, a, GF3)


def _scan_schulman_vectors(sets, m, ell, field):
    """Reference: each u_j is the first nonzero vector of F^t in odometer order
    (last coordinate fastest) outside the span of u_i, i < j, for every set
    containing j, tested by one echelon basis per set."""
    t = ell + ceil_log(field.size, len(sets))
    out = []
    for j in range(m):
        spans = [EchelonBasis(field, t, [out[i] for i in h if i < j]) for h in sets if j in h]
        for cand in itertools.product(range(field.size), repeat=t):
            if any(cand) and not any(b.contains(cand) for b in spans):
                out.append(cand)
                break
    return out


@pytest.mark.parametrize("p, max_ell, max_sets", [(2, 4, 20), (3, 4, 81), (5, 3, 25), (7, 2, 49)])
def test_schulman_vectors_agree_with_scan(p, max_ell, max_sets):
    rng = random.Random(p)
    field = PrimeField(p)
    longest = 0
    for _ in range(250):
        ell = rng.randint(1, max_ell)
        m = rng.randint(1, 12)
        sets = [set(rng.sample(range(m), rng.randint(0, min(ell, m)))) for _ in range(rng.randint(0, max_sets))]
        vecs = schulman_vectors(sets, m, ell, field)
        assert vecs == _scan_schulman_vectors(sets, m, ell, field), (sets, m, ell)
        assert verify_family(sets, vecs, field)
        longest = max(longest, len(vecs[0]))
    assert longest == max_ell + ceil_log(p, max_sets)


@pytest.mark.parametrize("p, m", [(5, 8), (3, 11)])
def test_schulman_vectors_take_no_table_bound(p, m):
    # F^t has more than MAX_POINTS points, but only spans of rank < m are listed
    field = PrimeField(p)
    sets = [set(range(m))] * m
    vecs = schulman_vectors(sets, m, m, field)
    t = m + ceil_log(p, m)
    assert len(vecs[0]) == t and (p**t - 1) // (p - 1) > MAX_POINTS
    assert verify_family(sets, vecs, field)


def test_schulman_rejects_oversized_constraint():
    with pytest.raises(ValueError):
        schulman_vectors([{0, 1, 2}], 3, 2, GF2)


def test_verify_family_detects_dependence():
    assert not verify_family([{0, 1}], [(1, 0), (1, 0)], GF2)


def _allowed_points(p, t, vectors):
    """Reference: the numbers of the points (leading coefficient 1, in
    lexicographic order) that are nondecreasing on every set of coordinates
    where all the given vectors agree, with entries at most p//2 on the
    coordinates where all of them are zero."""
    cols = list(zip(*vectors)) if vectors else [()] * t
    points = [v for v in itertools.product(range(p), repeat=t) if next((x for x in v if x), None) == 1]
    return {
        j
        for j, u in enumerate(points)
        if all(u[a] <= u[b] for a, b in itertools.combinations(range(t), 2) if cols[a] == cols[b])
        and all(u[c] <= p // 2 for c in range(t) if not any(cols[c]))
    }


@pytest.mark.parametrize("p, t", [(2, 4), (3, 4), (5, 3), (7, 2)])
def test_class_masks_match_their_definition(p, t):
    # every class id the refinement reaches, and every refinement step from
    # it, against the allowed points of the vectors assigned along the way
    tab = _SpanTable(p, t)
    paths = {0: []}
    todo = [0]
    while todo:
        k = todo.pop()
        assert {j for j in range(tab.npts) if tab.class_mask(k) >> j & 1} == _allowed_points(p, t, paths[k])
        for j in range(tab.npts):
            nxt = tab.refine(k, j)
            path = paths[k] + [tab.point(j)]
            if nxt not in paths:
                paths[nxt] = path
                todo.append(nxt)
            assert {i for i in range(tab.npts) if tab.class_mask(nxt) >> i & 1} == _allowed_points(p, t, path)
    assert len(paths) == len(tab.classes)


def test_random_matrix_seeded_and_reproducible():
    a = random_matrix(3, 4, GF5, seed=7)
    b = random_matrix(3, 4, GF5, seed=7)
    c = random_matrix(3, 4, GF5, seed=8)
    assert a.rows == b.rows
    assert a.rows != c.rows
    assert all(0 <= x < 5 for row in a.rows for x in row)
