"""Exact chromatic number, exact local chromatic number, and max-clique,
with witnesses that re-verify independently of the search path.

ParamResult is the result type of every exact solver in the package,
the vector parameters of ortho included.

The local chromatic number of a coloring is the maximum number of distinct
colors on a closed neighborhood.  No published algorithm exists for the
exact local chromatic number; the decision procedure here backtracks over
proper colorings with at most n colors, introduces a new color only as the
smallest unused index, and prunes on per-closed-neighborhood color counts.
Both backtracking searches update their state at each assignment and undo
it on backtrack, so no search node rescans the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import CapExceededError, Graph, _bits

DEFAULT_CHI_CAP = 64
DEFAULT_CHI_LOCAL_CAP = 56
DEFAULT_CLIQUE_CAP = 64


class ImproperColoringError(ValueError):
    """A claimed proper coloring has two adjacent vertices sharing a color."""


@dataclass(frozen=True)
class ParamResult:
    """Exact value of a graph parameter with a machine-checkable witness: a
    vertex tuple (clique), a color tuple (chi, chi_local), or an
    ortho.Representation (od, od_local, minrank).  dim_cap None means exact
    outright; an int means exact among representations in F^t, t <= dim_cap."""

    param: str
    value: int
    witness: object
    lower_bound_reason: str  # exhausted-search | clique | odd-cycle | bipartite-test | theorem-citation
    dim_cap: Optional[int] = None


def check_proper(g: Graph, colors: Sequence[int]) -> None:
    if len(colors) != g.n:
        raise ImproperColoringError(f"coloring length {len(colors)} != n={g.n}")
    for u, v in g.edges():
        if colors[u] == colors[v]:
            raise ImproperColoringError(f"adjacent vertices {u},{v} share color {colors[u]}")


def is_proper(g: Graph, colors: Sequence[int]) -> bool:
    try:
        check_proper(g, colors)
    except ImproperColoringError:
        return False
    return True


def coloring_locality(g: Graph, colors: Sequence[int]) -> int:
    """Maximum number of colors on a closed neighborhood; requires properness."""
    check_proper(g, colors)
    if g.n == 0:
        return 0
    return max(len({colors[u] for u in _bits(g.closed(v))}) for v in range(g.n))


def num_colors(colors: Sequence[int]) -> int:
    return len(set(colors))


# -- max clique ---------------------------------------------------------------


def max_clique(g: Graph, cap: int = DEFAULT_CLIQUE_CAP) -> ParamResult:
    """Exact maximum clique by branch and bound with a greedy coloring bound."""
    if g.n > cap:
        raise CapExceededError(f"max_clique cap {cap} exceeded (n={g.n})")
    if g.n == 0:
        return ParamResult("omega", 0, (), "exhausted-search")
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    best: list[int] = []

    def color_bound(cand: int, order_in: list[int]) -> list[tuple[int, int]]:
        # greedy coloring of the candidate set; returns (vertex, color-count-so-far)
        classes: list[int] = []  # bitmask per color class
        labeled = []
        for v in order_in:
            for ci, cmask in enumerate(classes):
                if not (cmask & g.adj[v]):
                    classes[ci] |= 1 << v
                    labeled.append((v, ci + 1))
                    break
            else:
                classes.append(1 << v)
                labeled.append((v, len(classes)))
        return labeled

    def expand(clique: list[int], cand: int) -> None:
        nonlocal best
        members = [v for v in order if cand >> v & 1]
        labeled = color_bound(cand, members)
        for v, bound in reversed(labeled):
            if len(clique) + bound <= len(best):
                return
            clique.append(v)
            sub = cand & g.adj[v]
            if sub:
                expand(clique, sub)
            elif len(clique) > len(best):
                best = list(clique)
            clique.pop()
            cand &= ~(1 << v)

    expand([], (1 << g.n) - 1)
    return ParamResult("omega", len(best), tuple(sorted(best)), "exhausted-search")


# -- chromatic number ---------------------------------------------------------


def greedy_coloring(g: Graph) -> list[int]:
    """DSATUR greedy; proper, not necessarily optimal.  It is the DSATUR
    search with n colors, which never backtracks."""
    return _dsatur(g, g.n)


def k_colorable(g: Graph, k: int) -> Optional[list[int]]:
    """Backtracking k-colorability decision with DSATUR branching and
    smallest-unused-index symmetry breaking; returns a coloring or None.
    Each branching pick costs O(k), from the saturation buckets of _dsatur."""
    return _dsatur(g, k)


def _dsatur(g: Graph, k: int) -> Optional[list[int]]:
    """The search behind k_colorable, on an explicit stack (no recursion
    limit).  Its branching vertex, with the most neighbor colors, then the
    highest degree, then the lowest index, is the lowest bit of the highest
    non-empty bucket[s]: the uncolored vertices with s neighbor colors, as
    bits over ranks by (-degree, index)."""
    n = g.n
    if n == 0:
        return []
    if k <= 0:
        return None
    colors = [-1] * n
    sat = [0] * n
    nbrs = [_bits(a) for a in g.adj]
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    rank_bit = {v: 1 << r for r, v in enumerate(order)}
    bucket = [(1 << n) - 1] + [0] * min(k, g.degree(order[0]))
    used = 0
    # one frame per colored vertex: [vertex, color limit, color tried,
    # `used` before it, neighbors whose saturation it set (None: no color on)]
    stack = [[order[0], 1, 0, 0, None]]
    while stack:
        frame = stack[-1]
        v, limit, c, prev_used, touched = frame
        if touched is not None:  # undo the color tried last, then try the next
            for u in touched:
                s = sat[u].bit_count()
                bucket[s] ^= rank_bit[u]
                bucket[s - 1] |= rank_bit[u]
                sat[u] ^= 1 << c
            used = prev_used
            colors[v] = -1
            bucket[sat[v].bit_count()] |= rank_bit[v]
            c += 1
        while c < limit and sat[v] >> c & 1:
            c += 1
        if c >= limit:
            stack.pop()
            continue
        colors[v] = c
        bucket[sat[v].bit_count()] ^= rank_bit[v]
        frame[2:] = c, used, []
        used = max(used, c + 1)
        touched = frame[4]
        dead = False
        for u in nbrs[v]:
            if colors[u] < 0 and not (sat[u] >> c & 1):
                s = sat[u].bit_count()
                bucket[s] ^= rank_bit[u]
                bucket[s + 1] |= rank_bit[u]
                sat[u] |= 1 << c
                touched.append(u)
                dead = dead or s + 1 == k  # all k colors hit u
        if dead:
            continue
        for b in reversed(bucket):
            if b:
                stack.append([order[(b & -b).bit_length() - 1], min(k, used + 1), 0, 0, None])
                break
        else:
            return colors.copy()
    return None


def chromatic_number(g: Graph, cap: int = DEFAULT_CHI_CAP) -> ParamResult:
    """Exact chromatic number; lower bound certified by exhausting
    (value-1)-colorability unless the clique bound already meets the value."""
    if g.n > cap:
        raise CapExceededError(f"chromatic_number cap {cap} exceeded (n={g.n})")
    if g.n == 0:
        return ParamResult("chi", 0, (), "exhausted-search")
    return _chromatic_number(g, max_clique(g, cap=cap).value)


def _chromatic_number(g: Graph, omega: int) -> ParamResult:
    """chromatic_number on a nonempty graph whose clique number is omega."""
    ub_witness = greedy_coloring(g)
    ub = num_colors(ub_witness)
    reason = "clique"
    for k in range(omega, ub):
        found = k_colorable(g, k)
        if found is not None:
            return ParamResult("chi", k, tuple(found), reason)
        reason = "exhausted-search"
    return ParamResult("chi", ub, tuple(ub_witness), reason if ub > omega else "clique")


# -- local chromatic number ---------------------------------------------------


def locality_decision(g: Graph, ell: int, max_colors: Optional[int] = None) -> Optional[list[int]]:
    """Proper coloring of g whose every closed neighborhood carries at most
    ell distinct colors, or None if none exists.

    Backtracking with most-constrained-vertex branching (the first vertex in
    index order with the fewest options).  Colors on saturated closed
    neighborhoods (already ell distinct colors) constrain every uncolored
    member to those colors, which is the main pruning device; a bitmask of
    the saturated neighborhoods lets each vertex read only its saturated
    ones.  Undoing a color clears exactly the bits its assignment set.  The
    search runs on an explicit stack, so it has no recursion limit."""
    n = g.n
    if n == 0:
        return []
    if ell < 1:
        return None
    if max_colors is None:
        max_colors = n  # any proper coloring can be assumed to use <= n colors
    closed = [g.closed(v) for v in range(n)]
    members = [_bits(m) for m in closed]
    nbrs = [_bits(a) for a in g.adj]
    colors = [-1] * n
    nbr_mask = [0] * n  # colors taken by assigned neighbors, for uncolored vertices
    seen_mask = [0] * n  # colors among assigned vertices of the closed neighborhood
    saturated = 0  # closed neighborhoods (by center) with at least ell colors
    used = 0

    def branch():
        """A frame for the most constrained uncolored vertex, True once every
        vertex is colored, or None when some vertex has no option left."""
        free = (1 << used) - 1
        any_new = used < max_colors
        best_v, best_cnt = None, n + 2
        for v in range(n):
            if colors[v] >= 0:
                continue
            mask = free & ~nbr_mask[v]
            full = closed[v] & saturated
            can_new = any_new and not full
            while full:
                w = full & -full
                full ^= w
                mask &= seen_mask[w.bit_length() - 1]
            cnt = mask.bit_count() + can_new
            if cnt < best_cnt:
                if cnt == 0:
                    return None
                best_v, best_mask, best_new, best_cnt = v, mask, can_new, cnt
                if cnt == 1:
                    break
        if best_v is None:
            return True
        options = _bits(best_mask)
        if best_new:
            options.append(used)
        return [best_v, options, 0, used, (), ()]

    # one frame per colored vertex: [vertex, its options, next option,
    # `used` before it, closed neighborhoods and neighbors the last option marked]
    stack: list = []
    top = branch()
    while True:
        if top is True:
            return colors.copy()
        if top is not None:
            stack.append(top)
        if not stack:
            return None
        frame = stack[-1]
        v, options, k, used, touched, hit = frame
        if colors[v] >= 0:  # undo the option tried last
            bit = 1 << colors[v]
            for w in touched:
                seen_mask[w] ^= bit
                if seen_mask[w].bit_count() < ell:
                    saturated &= ~(1 << w)
            for u in hit:
                nbr_mask[u] ^= bit
        if k == len(options):
            colors[v] = -1
            stack.pop()
            top = None
            continue
        c = options[k]
        frame[2] = k + 1
        bit = 1 << c
        colors[v] = c
        used = max(used, c + 1)
        ok, touched = True, []
        for w in members[v]:
            if not seen_mask[w] & bit:
                seen_mask[w] |= bit
                touched.append(w)
                if seen_mask[w].bit_count() >= ell:
                    saturated |= 1 << w
                    ok = ok and seen_mask[w].bit_count() == ell
        hit = [u for u in nbrs[v] if colors[u] < 0 and not nbr_mask[u] & bit]
        for u in hit:
            nbr_mask[u] |= bit
        frame[4:] = touched, hit
        top = branch() if ok else None


def local_lower_bound(g: Graph, omega: Optional[int] = None) -> tuple[int, str]:
    """Analytic lower bound on the local chromatic number (and on the local
    orthogonality dimension over every field): edge, odd cycle, clique."""
    if g.n == 0 or g.num_edges == 0:
        return (1 if g.n else 0), "bipartite-test"
    bound, reason = 2, "bipartite-test"
    if g.bipartition() is None:
        bound, reason = 3, "odd-cycle"
    if omega is None:
        omega = max_clique(g).value
    if omega > bound:
        bound, reason = omega, "clique"
    return bound, reason


def local_chromatic_number(g: Graph, cap: int = DEFAULT_CHI_LOCAL_CAP) -> ParamResult:
    """Exact local chromatic number with a witness coloring."""
    if g.n > cap:
        raise CapExceededError(f"local_chromatic_number cap {cap} exceeded (n={g.n})")
    if g.n == 0:
        return ParamResult("chi_local", 0, (), "exhausted-search")
    omega = max_clique(g, cap=max(cap, g.n)).value
    lb, reason = local_lower_bound(g, omega)
    chi = _chromatic_number(g, omega)
    ub_witness = list(chi.witness)
    ub = coloring_locality(g, ub_witness)
    for ell in range(lb, ub):
        found = locality_decision(g, ell)
        if found is not None:
            return ParamResult("chi_local", ell, tuple(found), reason)
        reason = "exhausted-search"
    return ParamResult("chi_local", ub, tuple(ub_witness), reason)
