"""Orthogonal and independent representations of graphs: verification,
locality, and exact solvers for the orthogonality dimension, its local
variant, and minrank over prime fields.

An orthogonal representation assigns to each vertex a vector with nonzero
self inner product, orthogonal across every edge.  Its locality is the
maximum rank of the vectors on a closed neighborhood.  Searches enumerate
one representative per scalar class (scaling a vector by a nonzero field
element changes nothing), restrict to anisotropic vectors, and break the
coordinate-permutation symmetry on the first assigned vertex.

The candidates of F^t live in a table built once per (p, t) and kept in a
small LRU cache.  Sets of candidates are int bitmasks over the candidate
list, with orthogonality masks built per candidate on first use and span
masks memoised per echelon basis.  find_orthogonal_rep keeps a domain mask
per unassigned vertex: assigning a vector ANDs its orthogonality mask into
the domains of the unassigned neighbors, and a closed neighborhood whose
rank reaches the locality bound ANDs its span mask into the domains of its
unassigned vertices.  An empty domain backtracks at once (forward
checking).  Vertices follow a static order and each domain is walked in
candidate order, so pruning only cuts subtrees without a solution and the
first witness found does not depend on it.

find_independent_rep (the minrank search) uses a second table per (p, t).
It numbers the projective points of F^t in lexicographic order, by
arithmetic rather than by listing F^t, so the points with support in the
first r coordinates come in the order the normal form tries them.  Subspaces are interned by their reduced echelon rows, each with a
bitmask of its points and a memoised map from (subspace, point) to the
subspace the point extends it to.  Each vertex holds the id of the span of
its assigned neighbors' vectors, so testing that a vector avoids that span,
and that it does not pull an assigned neighbor's vector into the
neighbor's span, are bit tests; backtracking restores the old ids.

Rational vectors are accepted for verification only: they certify
statements over the reals exactly, but are never searched for.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .coloring import CapExceededError, ParamResult, check_proper, local_lower_bound, max_clique
from .fields import Field, PrimeField
from .graphs import Graph, _bits, complement
from .linalg import EchelonBasis

DEFAULT_OD_VERTEX_CAP = 16
DEFAULT_OD_DIM_CAP = 6
DEFAULT_LOCAL_OD_VERTEX_CAP = 12
DEFAULT_MINRANK_CAP = 12


@dataclass(frozen=True)
class Representation:
    """Vertex-to-vector assignment over a field; kind 'orthogonal' or 'independent'."""

    field: Field
    t: int
    vectors: tuple
    kind: str = "orthogonal"

    def __post_init__(self):
        object.__setattr__(
            self, "vectors", tuple(tuple(self.field.element(x) for x in v) for v in self.vectors)
        )
        for v in self.vectors:
            if len(v) != self.t:
                raise ValueError(f"vector of length {len(v)}, expected {self.t}")


@dataclass(frozen=True)
class LocalOdResult:
    """Exact-under-cap local orthogonality dimension with witness."""

    value: int
    witness: Representation
    dim_cap: int
    exact_under_cap: bool
    lower_bound_reason: str


# -- verification -------------------------------------------------------------


def orthogonality_violations(g: Graph, rep: Representation) -> list[str]:
    """Violation report for the orthogonal-representation conditions; empty means valid."""
    if len(rep.vectors) != g.n:
        raise ValueError(f"representation covers {len(rep.vectors)} vertices, graph has {g.n}")
    f = rep.field
    out = []
    for v in range(g.n):
        if f.inner(rep.vectors[v], rep.vectors[v]) == f.zero:
            out.append(f"vertex {v}: self-orthogonal vector")
    for u, v in g.edges():
        if f.inner(rep.vectors[u], rep.vectors[v]) != f.zero:
            out.append(f"edge ({u},{v}): vectors not orthogonal")
    return out


def independence_violations(g: Graph, rep: Representation) -> list[str]:
    """Violations of the independent-representation condition: each vector must
    lie outside the span of its neighbors' vectors."""
    if len(rep.vectors) != g.n:
        raise ValueError(f"representation covers {len(rep.vectors)} vertices, graph has {g.n}")
    f = rep.field
    out = []
    for v in range(g.n):
        basis = EchelonBasis(f, rep.t, (rep.vectors[u] for u in _bits(g.adj[v])))
        if basis.contains(rep.vectors[v]):
            out.append(f"vertex {v}: vector lies in the span of its neighbors")
    return out


def rep_locality(g: Graph, rep: Representation) -> int:
    """Maximum rank of the vectors on a closed neighborhood."""
    bad = orthogonality_violations(g, rep)
    if bad:
        raise ValueError("invalid orthogonal representation: " + "; ".join(bad))
    if g.n == 0:
        return 0
    best = 0
    for v in range(g.n):
        basis = EchelonBasis(rep.field, rep.t, (rep.vectors[u] for u in _bits(g.closed(v))))
        best = max(best, basis.dim)
    return best


def coloring_to_rep(g: Graph, colors: Sequence[int], field: Field) -> Representation:
    """Standard-basis representation induced by a proper coloring: color class i
    gets e_i.  Valid over every field; locality equals the coloring locality."""
    check_proper(g, colors)
    palette = sorted(set(colors))
    index = {c: i for i, c in enumerate(palette)}
    t = len(palette)
    f = field
    vecs = []
    for v in range(g.n):
        e = [f.zero] * t
        e[index[colors[v]]] = f.one
        vecs.append(tuple(e))
    return Representation(field, t, tuple(vecs))


# -- candidate tables ---------------------------------------------------------


class _Table:
    """The candidate vectors of F^t with the bitmasks the searches filter by.

    Bit j of a mask stands for cands[j], so ascending bit order is candidate
    order.  first_cands lists the candidate indices tried for the first
    vertex.  orth_mask(j) holds the candidates orthogonal to cands[j] and is
    built on first use; span_mask(basis) holds the candidates in the span of
    an echelon basis and is memoised per basis."""

    def __init__(self, t: int, cands: list, first_cands: list):
        self.t = t
        self.cands = cands
        self.index = {v: j for j, v in enumerate(cands)}
        self.first_cands = [self.index[v] for v in first_cands]
        self.full = (1 << len(cands)) - 1
        self._orth: list = [None] * len(cands)
        self._span: dict = {}

    def orth_mask(self, j: int) -> int:
        m = self._orth[j]
        if m is None:
            m = self._orth[j] = self._orth_mask(self.cands[j])
        return m

    def span_mask(self, basis: tuple) -> int:
        m = self._span.get(basis)
        if m is None:
            m = 0
            for v in self._span_vectors(basis):
                j = self.index.get(v)
                if j is not None:
                    m |= 1 << j
            self._span[basis] = m
        return m


def _projective(v: tuple, p: int) -> tuple:
    """The multiple of a nonzero vector over GF(p) with leading coefficient 1."""
    scale = pow(next(x for x in v if x), p - 2, p)
    return tuple(scale * x % p for x in v)


class _BitSpace(_Table):
    """GF(2)-specific backend: vectors are int bitmasks, rank via xor echelon."""

    def __init__(self, t: int):
        super().__init__(
            t,
            [v for v in range(1, 1 << t) if v.bit_count() & 1],
            # one representative per coordinate-permutation orbit: weight-w suffix blocks
            [(1 << w) - 1 for w in range(1, t + 1, 2)],
        )

    def _orth_mask(self, v: int) -> int:
        m = 0
        for j, u in enumerate(self.cands):
            if not (u & v).bit_count() & 1:
                m |= 1 << j
        return m

    @staticmethod
    def _span_vectors(basis: tuple) -> list:
        span = [0]
        for row in basis:
            span += [x ^ row for x in span]
        return span

    @staticmethod
    def reduce(basis: tuple, v: int) -> int:
        for row in basis:
            if v >> (row.bit_length() - 1) & 1:
                v ^= row
        return v

    @classmethod
    def extend(cls, basis: tuple, v: int) -> tuple:
        r = cls.reduce(basis, v)
        if r == 0:
            return basis
        out = list(basis)
        out.append(r)
        out.sort(key=int.bit_length, reverse=True)
        return tuple(out)

    def to_tuple(self, v: int) -> tuple:
        return tuple(v >> i & 1 for i in range(self.t))


class _TupleSpace(_Table):
    """Generic prime-field backend: vectors are tuples, echelon with leading-1 rows."""

    def __init__(self, p: int, t: int):
        self.p = p
        # plain modular arithmetic: the benchmark trace counts PrimeField
        # calls per search, and a cached table is built only once
        cands = [  # anisotropic, one representative per scalar class
            v
            for v in itertools.product(range(p), repeat=t)
            if next((x for x in v if x), 0) == 1 and sum(x * x for x in v) % p
        ]
        firsts = [v for v in itertools.combinations_with_replacement(range(p), t) if sum(x * x for x in v) % p]
        super().__init__(t, cands, list(dict.fromkeys(_projective(v, p) for v in firsts)))

    def _orth_mask(self, v: tuple) -> int:
        p = self.p
        m = 0
        for j, u in enumerate(self.cands):
            if not sum(a * b for a, b in zip(u, v)) % p:
                m |= 1 << j
        return m

    def _span_vectors(self, basis: tuple) -> list:
        p = self.p
        span = [(0,) * self.t]
        for row, _ in basis:
            span = [tuple((x + c * y) % p for x, y in zip(v, row)) for v in span for c in range(p)]
        return [_projective(v, p) for v in span if any(v)]

    def reduce(self, basis: tuple, v: tuple):
        p = self.p
        v = list(v)
        for row, pivot in basis:
            c = v[pivot]
            if c:
                for j in range(pivot, self.t):
                    v[j] = (v[j] - c * row[j]) % p
        return tuple(v)

    def extend(self, basis: tuple, v: tuple) -> tuple:
        r = self.reduce(basis, v)
        pivot = next((j for j, x in enumerate(r) if x), None)
        if pivot is None:
            return basis
        return basis + ((_projective(r, self.p), pivot),)

    def to_tuple(self, v: tuple) -> tuple:
        return v


@functools.lru_cache(maxsize=16)
def _table(p: int, t: int) -> _Table:
    return _BitSpace(t) if p == 2 else _TupleSpace(p, t)


def _space(field: PrimeField, t: int) -> _Table:
    if field.size is None:
        raise ValueError("searches require a finite prime field")
    return _table(field.size, t)


def _search_order(g: Graph) -> list[int]:
    """Static vertex order: start at max degree, then greedily maximize
    adjacency to already-ordered vertices (ties by degree, then index)."""
    if g.n == 0:
        return []
    order = [max(range(g.n), key=lambda v: (g.degree(v), -v))]
    placed = 1 << order[0]
    while len(order) < g.n:
        nxt = max(
            (v for v in range(g.n) if not placed >> v & 1),
            key=lambda v: ((g.adj[v] & placed).bit_count(), g.degree(v), -v),
        )
        order.append(nxt)
        placed |= 1 << nxt
    return order


def _narrow(dom: list, vertices, mask: int) -> bool:
    """AND mask into the domains of vertices, in place; False once one empties."""
    for u in vertices:
        d = dom[u] & mask
        if not d:
            return False
        dom[u] = d
    return True


def find_orthogonal_rep(
    g: Graph,
    field: PrimeField,
    t: int,
    locality: Optional[int] = None,
) -> Optional[Representation]:
    """Backtracking search for an orthogonal representation of g in F^t,
    optionally constrained to closed-neighborhood rank at most `locality`.
    Returns a witness or None after exhausting the (projectively reduced)
    space."""
    tab = _space(field, t)
    n = g.n
    if n == 0:
        return Representation(field, t, ())
    if locality is not None and locality < 1:
        return None
    if locality is not None and locality >= t:
        locality = None  # no rank in F^t exceeds t
    order = _search_order(g)
    closed = [g.closed(v) for v in range(n)]
    closed_bits = [_bits(c) for c in closed]
    # rest[i]: the vertices still unassigned once order[0..i] are
    rest = []
    unplaced = (1 << n) - 1
    for v in order:
        unplaced &= ~(1 << v)
        rest.append(unplaced)
    later_nbrs = [_bits(g.adj[v] & rest[i]) for i, v in enumerate(order)]
    cands, extend, orth_mask, span_mask = tab.cands, tab.extend, tab.orth_mask, tab.span_mask
    chosen = [0] * n

    def place(i: int, vec, dom: list, bases: list) -> bool:
        """Add vec to the bases of order[i]'s closed neighborhoods; a basis
        reaching `locality` confines its unassigned vertices to its span."""
        for w in closed_bits[order[i]]:
            if len(bases[w]) < locality:  # a full basis already holds vec
                b = bases[w] = extend(bases[w], vec)
                if len(b) == locality and not _narrow(dom, _bits(closed[w] & rest[i]), span_mask(b)):
                    return False
        return True

    def rec(i: int, dom: list, bases: Optional[list]) -> bool:
        if i == n:
            return True
        v = order[i]
        for c in tab.first_cands if i == 0 else _bits(dom[v]):
            nd = dom[:]
            if not _narrow(nd, later_nbrs[i], orth_mask(c)):
                continue
            nb = bases
            if bases is not None:
                nb = bases[:]
                if not place(i, cands[c], nd, nb):
                    continue
            chosen[v] = c
            if rec(i + 1, nd, nb):
                return True
        return False

    bases = [()] * n if locality is not None else None
    if not rec(0, [tab.full] * n, bases):
        return None
    return Representation(field, t, tuple(tab.to_tuple(cands[c]) for c in chosen))


def enumerate_orthogonal_reps(g: Graph, field: PrimeField, t: int):
    """Yield every orthogonal representation of g in F^t, one per scalar class
    of each vector (no further symmetry reduction)."""
    tab = _space(field, t)
    n = g.n
    earlier = [_bits(g.adj[v] & ((1 << v) - 1)) for v in range(n)]
    chosen = [0] * n

    def rec(v: int):
        if v == n:
            yield Representation(field, t, tuple(tab.to_tuple(tab.cands[c]) for c in chosen))
            return
        dom = tab.full
        for u in earlier[v]:
            dom &= tab.orth_mask(chosen[u])
        for c in _bits(dom):
            chosen[v] = c
            yield from rec(v + 1)

    yield from rec(0)


# -- parameters ---------------------------------------------------------------


def orthogonality_dimension(
    g: Graph,
    field: PrimeField,
    vertex_cap: int = DEFAULT_OD_VERTEX_CAP,
    dim_cap: int = DEFAULT_OD_DIM_CAP,
) -> ParamResult:
    """Exact orthogonality dimension: least t admitting a representation in F^t."""
    if g.n > vertex_cap:
        raise CapExceededError(f"orthogonality_dimension vertex cap {vertex_cap} exceeded (n={g.n})")
    if g.n == 0:
        return ParamResult("od", 0, (), "exhausted-search")
    omega = max_clique(g).value
    reason = "clique"
    for t in range(max(omega, 1), dim_cap + 1):
        rep = find_orthogonal_rep(g, field, t)
        if rep is not None:
            return ParamResult("od", t, rep.vectors, reason)
        reason = "exhausted-search"
    raise CapExceededError(f"no orthogonal representation within dimension cap {dim_cap}")


def local_orthogonality_dimension(
    g: Graph,
    field: PrimeField,
    dim_cap: Optional[int] = None,
    vertex_cap: int = DEFAULT_LOCAL_OD_VERTEX_CAP,
) -> LocalOdResult:
    """Exact-under-cap local orthogonality dimension: least achievable
    closed-neighborhood rank over representations in F^t, t <= dim_cap.

    Whether ambient dimension n always suffices for the optimum over a finite
    field is open, so results carry the cap honestly in exact_under_cap.
    """
    if g.n > vertex_cap:
        raise CapExceededError(f"local_orthogonality_dimension vertex cap {vertex_cap} exceeded (n={g.n})")
    if dim_cap is None:
        dim_cap = max(g.n, 1)
    lb, reason = local_lower_bound(g)
    if g.n == 0:
        return LocalOdResult(0, Representation(field, 0, ()), dim_cap, True, "bipartite-test")
    for ell in range(max(lb, 1), g.n + 1):
        for t in range(ell, dim_cap + 1):
            rep = find_orthogonal_rep(g, field, t, locality=ell)
            if rep is not None:
                return LocalOdResult(ell, rep, dim_cap, True, reason)
        reason = "exhausted-search"
    raise CapExceededError(f"no representation found with dimension cap {dim_cap}")


def has_local_rep(g: Graph, field: PrimeField, ell: int, dim_cap: Optional[int] = None) -> bool:
    """Decision: does g admit an orthogonal representation over F with
    locality <= ell in some dimension t <= dim_cap (default n)?

    One search at t = dim_cap decides it: padding with zero coordinates
    embeds a representation in F^t into F^dim_cap with the same inner
    products and ranks."""
    if dim_cap is None:
        dim_cap = max(g.n, 1)
    return find_orthogonal_rep(g, field, dim_cap, locality=ell) is not None


# -- minrank via independent representations ----------------------------------


class _SpanTable:
    """The projective points of F^t, numbered in the candidate order of
    find_independent_rep, with the subspaces its search meets.

    Point j is the j-th vector with leading coefficient 1 in lexicographic
    order, so the points of the standard subspace span(e_1..e_r) come in the
    lexicographic order of their first r coordinates.  index and point
    convert by arithmetic, so no list of F^t is built.  A subspace is keyed
    by its reduced echelon rows and known by an id; span[id] is the bitmask
    of its points, and extend(id, j) is the id of the subspace spanned by it
    and point j, memoised per pair.  The points that point j adds are those
    of point(j) + span(id), one per vector of the old span, so a new mask is
    built by listing them.  Arithmetic is plain %, as in _TupleSpace."""

    def __init__(self, p: int, t: int):
        self.p = p
        self.t = t
        self.keys: list = [()]
        self.ids = {(): 0}
        self.span = [0]
        self._ext: list = [{}]
        self._standard = [0]

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
            self._ext.append({})
        return nxt


@functools.lru_cache(maxsize=16)
def _span_table(p: int, t: int) -> _SpanTable:
    return _SpanTable(p, t)


def find_independent_rep(g: Graph, field: PrimeField, t: int) -> Optional[Representation]:
    """Backtracking search for a t-dimensional independent representation of g.

    Independence constraints are invariant under any invertible linear map and
    per-vertex scaling, so vectors are enumerated in a normal form: each new
    vector is either inside the span of the previously assigned ones (support
    in the first r coordinates, leading coefficient 1) or the fresh basis
    vector e_{r+1}.

    Each vertex carries the span of its assigned neighbors' vectors as a
    subspace id of the (p, t) span table, so both independence tests are bit
    tests and backtracking restores the old ids."""
    n = g.n
    if n == 0:
        return Representation(field, t, (), kind="independent")
    if t < 1:
        return None
    if field.size is None:
        raise ValueError("searches require a finite prime field")
    tab = _span_table(field.size, t)
    span, extend = tab.span, tab.extend
    order = _search_order(g)
    nbrs = [_bits(g.adj[v]) for v in range(n)]
    nbr_span = [0] * n  # subspace id of the span of each vertex's assigned neighbors
    chosen = [-1] * n  # point index per assigned vertex

    def rec(i: int, rank: int) -> bool:
        if i == n:
            return True
        v = order[i]
        options = _bits(span[tab.standard(rank)] & ~span[nbr_span[v]])
        fresh = tab.unit(rank) if rank < t else None
        if fresh is not None:
            options.append(fresh)  # never in the span of earlier vectors
        for c in options:
            saved = [nbr_span[u] for u in nbrs[v]]
            for u in nbrs[v]:
                nbr_span[u] = extend(nbr_span[u], c)
                # the new vector must not swallow an assigned neighbor
                if chosen[u] >= 0 and span[nbr_span[u]] >> chosen[u] & 1:
                    break
            else:
                chosen[v] = c
                if rec(i + 1, rank + (c == fresh)):
                    return True
                chosen[v] = -1
            for u, old in zip(nbrs[v], saved):
                nbr_span[u] = old
        return False

    if not rec(0, 0):
        return None
    return Representation(field, t, tuple(tab.point(c) for c in chosen), kind="independent")


def minrank(g: Graph, field: PrimeField, cap: int = DEFAULT_MINRANK_CAP) -> ParamResult:
    """Exact minrank of g over F: the least t for which the complement admits
    a t-dimensional independent representation.  The witness is that
    representation (feed it to indexcoding.representing_matrix for a matrix)."""
    if g.n > cap:
        raise CapExceededError(f"minrank cap {cap} exceeded (n={g.n})")
    if g.n == 0:
        return ParamResult("minrank", 0, (), "exhausted-search")
    h = complement(g)
    reason = "exhausted-search"
    for t in range(1, g.n + 1):
        rep = find_independent_rep(h, field, t)
        if rep is not None:
            return ParamResult("minrank", t, rep.vectors, reason if t > 1 else "exhausted-search")
    raise AssertionError("unreachable: standard basis is always an independent representation")
