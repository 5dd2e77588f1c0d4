"""Orthogonal and independent representations of graphs: verification,
locality, and exact solvers for the orthogonality dimension, its local
variant, and minrank over prime fields.  The three solvers return a
coloring.ParamResult whose witness is the Representation, with its field,
t and kind; only the local variant, exact only under its dimension cap,
sets dim_cap.

An orthogonal representation assigns to each vertex a vector with nonzero
self inner product, orthogonal across every edge.  Its locality is the
maximum rank of the vectors on a closed neighborhood.  Searches enumerate
one representative per scalar class (scaling a vector by a nonzero field
element changes nothing) and restrict to anisotropic vectors.

All searches over F^t share one span table per (p, t), kept in a small LRU
cache; linalg._SpanTable describes it.  A set of points is an int bitmask
over the table's point numbers, and ascending bit order is the order in
which candidates are tried.

find_orthogonal_rep keeps a domain mask per unassigned vertex, starting at
the anisotropic points.  Assigning a vector ANDs its orthogonality mask
into the domains of the unassigned neighbors.  Each closed neighborhood
holds the subspace id of its assigned vectors' span; once its rank reaches
the locality bound, its span mask is ANDed into the domains of its
unassigned vertices.  An empty domain backtracks at once (forward
checking).  Vertices follow a static order and each domain is walked in
point order, so forward checking only cuts subtrees without a solution and
the first witness found does not depend on it.

Symmetry is broken at every node by the stabiliser of the assigned prefix
(the stabiliser form of the lex-leader constraints of Crawford et al.,
"Symmetry-breaking predicates for search problems", KR 1996).  Coordinates
that agree on every assigned vector form a class, class 0 being those zero
on all of them.  Permuting the coordinates inside a class, and negating
those of class 0, fixes every assigned vector and keeps every inner
product and rank, so it maps a solution extending the prefix to another.
The next vector need only be tried in one form per orbit: a point that is
nondecreasing inside every class, with class-0 entries at most p//2.  Every
orbit has one.  Sorting a class puts its zeros first, so where the first
nonzero entry of the sorted vector falls depends only on which entries are
zero; scale the vector by the inverse of a nonzero entry in that column's
class, replace each class-0 entry x by min(x, p - x), and sort each class.
The leading entry is then the least nonzero value, 1.  The table's
class_mask of the current classes is ANDed into the next vertex's domain,
and refine gives the classes of the child node.  The rule cuts subtrees
that hold solutions, so it keeps every decision, though not necessarily
the witness an unreduced search would find first.

find_independent_rep (the minrank search) tries the points of
span(e_1..e_r) outside a vertex's neighbor span, then the fresh point
e_{r+1}.  Each vertex holds the subspace id of the span of its assigned
neighbors' vectors, so testing that a vector avoids that span, and that it
does not pull an assigned neighbor's vector into the neighbor's span, are
bit tests; backtracking restores the old ids.

Rational vectors are accepted for verification only: they certify
statements over the reals exactly, but are never searched for.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

from .coloring import CapExceededError, ParamResult, check_proper, local_lower_bound, max_clique
from .fields import Field, PrimeField
from .graphs import Graph, _bits, complement
from .linalg import EchelonBasis, _span_table, _SpanTable

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


def _space(field: PrimeField, t: int) -> _SpanTable:
    if field.size is None:
        raise ValueError("searches require a finite prime field")
    return _span_table(field.size, t)


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
    span, rank, extend, orth_mask = tab.span, tab.rank, tab.extend, tab.orth_mask
    refine, class_mask = tab.refine, tab.class_mask
    chosen = [0] * n

    def place(i: int, c: int, dom: list, spans: list) -> bool:
        """Add point c to the spans of order[i]'s closed neighborhoods; a span
        reaching rank `locality` confines its unassigned vertices to its points."""
        for w in closed_bits[order[i]]:
            if rank[spans[w]] < locality:  # a full span already holds c
                s = spans[w] = extend(spans[w], c)
                if rank[s] == locality and not _narrow(dom, _bits(closed[w] & rest[i]), span[s]):
                    return False
        return True

    def rec(i: int, dom: list, spans: Optional[list], k: int) -> bool:
        """Extend order[0..i-1], whose column classes have id k."""
        if i == n:
            return True
        v = order[i]
        for c in _bits(dom[v] & class_mask(k)):
            nd = dom[:]
            if not _narrow(nd, later_nbrs[i], orth_mask(c)):
                continue
            ns = spans
            if spans is not None:
                ns = spans[:]
                if not place(i, c, nd, ns):
                    continue
            chosen[v] = c
            if rec(i + 1, nd, ns, refine(k, c)):
                return True
        return False

    # spans[w]: subspace id of the span of w's closed neighborhood so far
    spans = [0] * n if locality is not None else None
    if not rec(0, [tab.aniso] * n, spans, 0):
        return None
    return Representation(field, t, tuple(tab.point(c) for c in chosen))


def enumerate_orthogonal_reps(g: Graph, field: PrimeField, t: int):
    """Yield every orthogonal representation of g in F^t, one per scalar class
    of each vector (no further symmetry reduction)."""
    tab = _space(field, t)
    n = g.n
    earlier = [_bits(g.adj[v] & ((1 << v) - 1)) for v in range(n)]
    chosen = [0] * n
    point = functools.lru_cache(maxsize=None)(tab.point)  # a point recurs in many yields

    def rec(v: int):
        if v == n:
            yield Representation(field, t, tuple(point(c) for c in chosen))
            return
        dom = tab.aniso
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
        return ParamResult("od", 0, Representation(field, 0, ()), "exhausted-search")
    omega = max_clique(g).value
    reason = "clique"
    for t in range(max(omega, 1), dim_cap + 1):
        rep = find_orthogonal_rep(g, field, t)
        if rep is not None:
            return ParamResult("od", t, rep, reason)
        reason = "exhausted-search"
    raise CapExceededError(f"no orthogonal representation within dimension cap {dim_cap}")


def local_orthogonality_dimension(
    g: Graph,
    field: PrimeField,
    dim_cap: Optional[int] = None,
    vertex_cap: int = DEFAULT_LOCAL_OD_VERTEX_CAP,
) -> ParamResult:
    """Exact-under-cap local orthogonality dimension: least achievable
    closed-neighborhood rank over representations in F^t, t <= dim_cap.

    Whether ambient dimension n always suffices for the optimum over a finite
    field is open, so the result carries the cap in its dim_cap.
    """
    if g.n > vertex_cap:
        raise CapExceededError(f"local_orthogonality_dimension vertex cap {vertex_cap} exceeded (n={g.n})")
    if dim_cap is None:
        dim_cap = max(g.n, 1)
    lb, reason = local_lower_bound(g)
    if g.n == 0:
        return ParamResult("od_local", 0, Representation(field, 0, ()), reason, dim_cap)
    for ell in range(max(lb, 1), min(g.n, dim_cap) + 1):
        # t = ell first; failing that, one search at dim_cap decides ell (as
        # in has_local_rep), and the t between are walked only once it
        # succeeds, for the least-t witness
        rep = find_orthogonal_rep(g, field, ell, locality=ell)
        top = None if rep is not None or ell == dim_cap else find_orthogonal_rep(g, field, dim_cap, locality=ell)
        if top is not None:
            reps = (find_orthogonal_rep(g, field, t, locality=ell) for t in range(ell + 1, dim_cap))
            rep = next((r for r in reps if r is not None), top)
        if rep is not None:
            return ParamResult("od_local", ell, rep, reason, dim_cap)
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
    tab = _space(field, t)
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
        return ParamResult("minrank", 0, Representation(field, 0, (), kind="independent"), "exhausted-search")
    h = complement(g)
    for t in range(1, g.n + 1):
        rep = find_independent_rep(h, field, t)
        if rep is not None:
            return ParamResult("minrank", t, rep, "exhausted-search")
    raise AssertionError("unreachable: standard basis is always an independent representation")
