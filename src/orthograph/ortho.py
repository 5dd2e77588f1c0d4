"""Orthogonal and independent representations of graphs: verification,
locality, and exact solvers for the orthogonality dimension, its local
variant, and minrank over prime fields.  The three solvers return a
coloring.ParamResult whose witness is the Representation, with its field
and t; only the local variant, exact only under its dimension cap, sets
dim_cap.

An orthogonal representation assigns to each vertex a vector with nonzero
self inner product, orthogonal across every edge.  Its locality is the
maximum rank of the vectors on a closed neighborhood.  Searches enumerate
one representative per scalar class (scaling a vector by a nonzero field
element changes nothing) and restrict to anisotropic vectors.

All searches over F^t share one span table per (p, t), kept in a small LRU
cache; linalg._SpanTable describes it.  A set of points is an int bitmask
over the table's point numbers, and ascending bit order is the order in
which candidates are tried.

Every orthogonal search is one loop, _orthogonal_walk.  It keeps a domain
mask per unassigned vertex, starting at the anisotropic points.  Assigning
a vector ANDs its orthogonality mask into the domains of the unassigned
neighbors.  Each closed neighborhood holds the subspace id of its assigned
vectors' span; once its rank reaches the locality bound, its span mask is
ANDed into the domains of its unassigned vertices.  An empty domain
backtracks at once (forward checking).  Vertices follow a given order and
each domain is walked in point order, so forward checking only cuts
subtrees without a solution and what is found, and in which order, does
not depend on it.  The loop runs over an explicit stack, a frame per
assigned vertex holding the points it has still to try, lowest first, and
the domains, spans and column classes before it; backtracking pops a
frame, so no state is undone.  It stops one vertex short: for each
assignment of the others that leaves every domain nonempty it yields the
last vertex's domain, any point of which completes a solution, since every
neighbor is assigned and every span at the bound has confined it already.

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

The loop has three callers.  find_orthogonal_rep runs it in the static
order of _search_order from class id 0, the classes before any
assignment, and completes its first yield with the lowest point of the
last domain.  enumerate_orthogonal_reps and the gadget census of
reduction.certify_gadget_lemma run it in index order from the table's
singletons id, which refine maps to itself and whose class mask allows
every point, so they break no symmetry and meet every orthogonal
representation: the census adds each last domain's popcount, and the
enumeration expands it in point order into one Representation per bit.
has_local_rep decides ell <= 2 and bipartite graphs from the
bipartition, so they never reach the walk.

find_independent_rep (the minrank search) runs on an explicit stack too.
The exchange property folds both independence tests into one candidate
mask per vertex, so no rejected candidate is undone.  No search recurses,
so path and cycle graphs of thousands of vertices run under Python's
recursion limit.

Rational vectors are accepted for verification only: they certify
statements over the reals exactly, but are never searched for.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

from .coloring import CapExceededError, ParamResult, _ladder, check_proper, greedy_coloring, local_lower_bound, max_clique
from .fields import Field, PrimeField
from .graphs import Graph, _bits, complement
from .linalg import EchelonBasis, _span_table, _SpanTable

DEFAULT_OD_VERTEX_CAP = 16
DEFAULT_LOCAL_OD_VERTEX_CAP = 12
DEFAULT_MINRANK_CAP = 12


@dataclass(frozen=True)
class Representation:
    """Vertex-to-vector assignment over a field."""

    field: Field
    t: int
    vectors: tuple

    def __post_init__(self):
        if self.t < 0:
            raise ValueError(f"negative dimension t = {self.t}")
        element = self.field.element
        object.__setattr__(self, "vectors", tuple(tuple(map(element, v)) for v in self.vectors))
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


def _dimension(field: PrimeField, t: Optional[int] = None, n: int = 0) -> int:
    """The input rule of every vector search and solver, checked before any
    shortcut: the field is a finite prime field, and the dimension t, or the
    dimension cap it stands for, is not negative.  Returns t, by default
    max(n, 1)."""
    if field.size is None:
        raise ValueError("searches require a finite prime field")
    if t is None:
        return max(n, 1)
    if t < 0:
        raise ValueError(f"negative dimension {t}")
    return t


def _space(field: PrimeField, t: int) -> _SpanTable:
    return _span_table(field.size, _dimension(field, t))


def _search_order(g: Graph) -> list[int]:
    """Static vertex order: start at max degree, then greedily maximize
    adjacency to already-ordered vertices (ties by degree, then index).

    key[v] packs (links to ordered vertices, degree, -v) into one int, -v
    stored as n - 1 - v; an ordered vertex's key is -1, below all others."""
    n, adj = g.n, g.adj
    b = n.bit_length()
    link = 1 << 2 * b
    key = [a.bit_count() << b | n - 1 - v for v, a in enumerate(adj)]
    order = []
    unplaced = (1 << n) - 1
    for _ in range(n):
        v = key.index(max(key))  # unplaced keys are distinct
        order.append(v)
        key[v] = -1
        unplaced ^= 1 << v
        for u in _bits(adj[v] & unplaced):
            key[u] += link
    return order


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
    if locality is not None and locality < min(n, 1):
        return None  # a vertex has rank 1, and no rank is negative
    if n == 0:
        return Representation(field, t, ())
    if locality is not None and locality >= t:
        locality = None  # no rank in F^t exceeds t
    order = _search_order(g)
    for chosen, last in _orthogonal_walk(g, tab, order, locality):
        chosen[order[-1]] = (last & -last).bit_length() - 1
        return Representation(field, t, tuple(map(tab.point, chosen)))
    return None


def _orthogonal_walk(g: Graph, tab: _SpanTable, order: Sequence[int], locality: Optional[int] = None, k: int = 0):
    """Yield (chosen, last) for every orthogonal assignment, in the table's
    space, of the vertices of g (n >= 1) but order[-1] that leaves every
    domain nonempty, taking the vertices in `order` and each domain in point
    order: chosen[v] is the point of vertex v, last the mask of the points
    order[-1] may take.  Closed neighborhoods have rank at most `locality`
    (below t, or None), and the column classes start at id k.  chosen is one
    list, overwritten between yields.

    A class mask never empties a nonempty domain: the stabiliser of the
    assigned vectors keeps every inner product and span of them, so each
    domain is a union of its orbits, and every orbit has a point in the
    mask.  So last is never 0."""
    # later[i]: the neighbors of order[i] after it in the order; events[i]:
    # (w, the vertices of w's closed neighborhood after order[i]) for each
    # closed neighborhood w holding order[i], w ascending, or nothing
    # without a locality bound
    n, adj = g.n, g.adj
    closed = [a | 1 << v for v, a in enumerate(adj)]
    later, events = [], []
    unplaced = (1 << n) - 1
    for v in order:
        unplaced ^= 1 << v
        later.append(_bits(adj[v] & unplaced))
        events.append([(w, closed[w] & unplaced) for w in _bits(closed[v])] if locality is not None else ())
    span, rank, extend, orth_mask = tab.span, tab.rank, tab.extend, tab.orth_mask
    refine, class_mask = tab.refine, tab.class_mask
    chosen = [0] * n
    end, top, free = order[-1], n - 2, tab.singletons
    # the frame of order[i]: cand, the candidates it has still to try, lowest
    # bit first; dom, a domain mask per vertex; spans (None without a
    # locality bound), the subspace id of the span of each closed
    # neighborhood so far; k, the id of the column classes of order[0..i-1],
    # and km, its class mask.  stack holds the frames of order[0..i-1].
    i = 0
    dom = [tab.aniso] * n
    spans = [0] * n if locality is not None else None
    km = class_mask(k)
    cand = dom[order[0]] & km
    if n == 1:  # order[0] is the last vertex
        if cand:
            yield chosen, cand
        return
    stack = []
    while True:
        if not cand:
            if not stack:
                return
            i -= 1
            cand, dom, spans, k, km = stack.pop()
            continue
        low = cand & -cand
        cand ^= low
        c = low.bit_length() - 1
        m = orth_mask(c)
        nd = dom[:]
        for u in later[i]:  # forward checking
            d = nd[u] & m
            if not d:
                break
            nd[u] = d
        else:
            ns = spans[:] if spans is not None else None
            for w, ahead in events[i]:
                # add c to w's span; a span reaching rank `locality` confines
                # its unassigned vertices to its points
                s = ns[w]
                if rank[s] < locality:  # a full span already holds c
                    s = ns[w] = extend(s, c)
                    if rank[s] == locality:
                        full = span[s]
                        while ahead:
                            bit = ahead & -ahead
                            u = bit.bit_length() - 1
                            d = nd[u] & full
                            if not d:
                                break
                            nd[u] = d
                            ahead ^= bit
                        if ahead:  # a domain emptied
                            break
            else:
                chosen[order[i]] = c
                nk = k if k == free else refine(k, c)  # refine fixes the singletons
                nm = km if nk == k else class_mask(nk)
                if i == top:  # the last vertex is never placed: yield its domain
                    yield chosen, nd[end] & nm
                    continue
                i += 1
                stack.append((cand, dom, spans, k, km))
                dom, spans, k, km = nd, ns, nk, nm
                cand = dom[order[i]] & km


def enumerate_orthogonal_reps(g: Graph, field: PrimeField, t: int):
    """Yield every orthogonal representation of g in F^t, one per scalar class
    of each vector (no further symmetry reduction)."""
    tab = _space(field, t)
    n = g.n
    if n == 0:
        yield Representation(field, t, ())
        return
    point = functools.lru_cache(maxsize=None)(tab.point)  # a point recurs in many yields
    for chosen, last in _orthogonal_walk(g, tab, range(n), k=tab.singletons):
        head = tuple(map(point, chosen[:-1]))
        for c in _bits(last):
            yield Representation(field, t, head + (point(c),))


# -- parameters ---------------------------------------------------------------


def orthogonality_dimension(g: Graph, field: PrimeField) -> ParamResult:
    """Exact orthogonality dimension: least t admitting a representation in
    F^t.  The ladder searches t upward from the clique number, and the
    greedy coloring's standard-basis representation (coloring_to_rep) stands
    at its top, t = its color count, since od <= chi over every field (Lovasz,
    "On the Shannon capacity of a graph", 1979).  When the clique number
    meets that count, the value is certified by the clique with no search."""
    if g.n > DEFAULT_OD_VERTEX_CAP:
        raise CapExceededError(f"orthogonality_dimension vertex cap {DEFAULT_OD_VERTEX_CAP} exceeded (n={g.n})")
    _dimension(field)  # the top alone would answer some graphs over Q
    top = coloring_to_rep(g, greedy_coloring(g), field)
    return _ladder("od", max_clique(g).value, top.t, lambda t: find_orthogonal_rep(g, field, t), "clique", top)


def local_orthogonality_dimension(g: Graph, field: PrimeField, dim_cap: Optional[int] = None) -> ParamResult:
    """Exact-under-cap local orthogonality dimension: least achievable
    closed-neighborhood rank over representations in F^t, t <= dim_cap.

    Whether ambient dimension n always suffices for the optimum over a finite
    field is open, so the result carries the cap in its dim_cap.
    """
    if g.n > DEFAULT_LOCAL_OD_VERTEX_CAP:
        raise CapExceededError(f"local_orthogonality_dimension vertex cap {DEFAULT_LOCAL_OD_VERTEX_CAP} exceeded (n={g.n})")
    dim_cap = _dimension(field, dim_cap, g.n)
    lb, reason = local_lower_bound(g)

    def decide(ell: int) -> Optional[Representation]:
        # t = ell first; failing that, one search at dim_cap decides ell
        # (zero padding embeds F^t in F^dim_cap), and the t between are
        # walked only once it succeeds, for the least-t witness
        rep = find_orthogonal_rep(g, field, ell, locality=ell)
        top = None if rep is not None or ell == dim_cap else find_orthogonal_rep(g, field, dim_cap, locality=ell)
        if top is not None:
            reps = (find_orthogonal_rep(g, field, t, locality=ell) for t in range(ell + 1, dim_cap))
            rep = next((r for r in reps if r is not None), top)
        return rep

    res = _ladder("od_local", lb, min(g.n, dim_cap) + 1, decide, reason, dim_cap=dim_cap)
    if res is None:
        raise CapExceededError(f"no representation found with dimension cap {dim_cap}")
    return res


def has_local_rep(g: Graph, field: PrimeField, ell: int, dim_cap: Optional[int] = None) -> bool:
    """Decision: does g admit an orthogonal representation over F with
    locality <= ell in some dimension t <= dim_cap (default max(n, 1))?

    Padding with zero coordinates embeds a representation in F^t into
    F^dim_cap with the same inner products and ranks, so one search at
    t = dim_cap decides it.  Bipartite graphs and ell <= 2 need none.

    A bipartite graph with n >= 1 has the representation coloring_to_rep
    builds from its bipartition: e_1 on one side and e_2 on the other, or
    e_1 alone with no edge.  It is valid over every field in dimension
    need, with locality need: 2, or 1 with no edge.  No representation
    does better, since an edge needs two orthogonal anisotropic vectors,
    which are independent.

    A non-bipartite graph has no representation of locality <= 2.  Let S
    be the span of N[v], of rank <= 2.  It holds u_v, and <u_v,u_v> != 0,
    so x -> <x,u_v> is nonzero on S, and its kernel in S has dimension
    <= 1: all neighbors of v are multiples of one vector.  Walking an odd
    cycle v_0 ... v_2k two steps at a time gives u_{v_2k} = c*u_{v_0} with
    c != 0; then the edge v_2k v_0 forces c<u_{v_0},u_{v_0}> = 0, a
    contradiction."""
    dim_cap = _dimension(field, dim_cap, g.n)
    if g.n:
        if g.bipartition() is not None:
            need = 2 if g.num_edges else 1
            return need <= ell and need <= dim_cap
        if ell <= 2:
            return False
    return find_orthogonal_rep(g, field, dim_cap, locality=ell) is not None


# -- minrank via independent representations ----------------------------------


def find_independent_rep(g: Graph, field: PrimeField, t: int) -> Optional[Representation]:
    """Backtracking search for a t-dimensional independent representation of g.

    Independence constraints are invariant under any invertible linear map and
    per-vertex scaling, so vectors are enumerated in a normal form: each new
    vector is either inside the span of the previously assigned ones (support
    in the first r coordinates, leading coefficient 1) or, last, the fresh
    basis vector e_{r+1}.

    Each vertex u carries S_u, the span of its assigned neighbors' vectors, as
    a subspace id of the (p, t) span table.  A candidate c for v must lie
    outside S_v and keep each assigned neighbor's vector x_u outside
    span(S_u + c).  For x_u and c outside S_u, x_u is in span(S_u + c)
    exactly when c is in span(S_u + x_u) (exchange), so v's candidates are
    one mask: span(e_1..e_r) less S_v and less span(S_u + x_u) \\ S_u per
    assigned neighbor u.  e_{r+1} is in none of these spans but numbered
    below them, so it rides on the bit npts, above every point."""
    tab = _space(field, t)
    n = g.n
    if n == 0:
        return Representation(field, t, ())
    if t < 1:
        return None
    span, extend, standard, unit = tab.span, tab.extend, tab.standard, tab.unit
    fresh = 1 << tab.npts
    order, adj = _search_order(g), g.adj
    earlier, placed = [], 0  # earlier[i]: the neighbors of order[i] before it
    for v in order:
        earlier.append(_bits(adj[v] & placed))
        placed |= 1 << v
    chosen = [0] * n
    # the frame of order[i]: cand, its candidates still to try, lowest bit
    # first; spans, the id of S_u per vertex u; r, the rank before it
    i, r, spans, stack = 0, 0, [0] * n, []
    cand = fresh  # nothing is assigned: e_1 is the only candidate
    while True:
        if not cand:
            if not stack:
                return None
            i -= 1
            cand, spans, r = stack.pop()
            continue
        low = cand & -cand
        cand ^= low
        stack.append((cand, spans, r))
        c = low.bit_length() - 1
        if low == fresh:
            c, r = unit(r), r + 1
        v = order[i]
        chosen[v] = c
        i += 1
        if i == n:
            return Representation(field, t, tuple(tab.point(j) for j in chosen))
        spans = spans[:]
        for u in _bits(adj[v]):
            spans[u] = extend(spans[u], c)
        bad = span[spans[order[i]]]
        for u in earlier[i]:
            bad |= span[extend(spans[u], chosen[u])] & ~span[spans[u]]
        cand = span[standard(r)] & ~bad | (fresh if r < t else 0)


def minrank(g: Graph, field: PrimeField) -> ParamResult:
    """Exact minrank of g over F: the least t for which the complement admits
    a t-dimensional independent representation.  The witness is that
    representation (feed it to indexcoding.representing_matrix for a matrix).
    t starts at alpha(g), a clique of the complement, whose vectors are
    independent (Bar-Yossef, Birk, Jayram and Kol, FOCS 2006)."""
    if g.n > DEFAULT_MINRANK_CAP:
        raise CapExceededError(f"minrank cap {DEFAULT_MINRANK_CAP} exceeded (n={g.n})")
    h = complement(g)
    res = _ladder("minrank", max_clique(h).value, g.n + 1, lambda t: find_independent_rep(h, field, t), "clique")
    if res is None:
        raise AssertionError("unreachable: standard basis is always an independent representation")
    return res
