"""Exact chromatic number, exact local chromatic number, and max-clique,
with witnesses that re-verify independently of the search path.

ParamResult is the result type of every exact solver in the package,
the vector parameters of ortho included, and _ladder builds it.

The local chromatic number of a coloring is the maximum number of distinct
colors on a closed neighborhood.  No published algorithm exists for the
exact local chromatic number; the decision procedure here backtracks over
proper colorings with at most n colors, introduces a new color only as the
smallest unused index, and prunes whenever some uncolored vertex has no
color left.  Both backtracking searches, this one and the DSATUR search
behind k_colorable, keep per color a mask of the vertices where that color
is forbidden.  They count per vertex, options here and neighbor colors in
DSATUR, as bit planes: one big int per bit of the count.  So a node costs a
few big-int operations per color or plane rather than a loop over the
vertices.  Each search frame keeps the masks as they were before its
vertex was colored, and backtracking restores them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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


def _ladder(param: str, lo: int, hi: int, decide: Callable, reason: str, top=None, dim_cap=None) -> Optional[ParamResult]:
    """The least value in lo..hi-1 at which decide finds a witness (a list
    becomes a tuple); past them, hi with the witness top, or None if top is
    None.  reason names the analytic lower bound lo and stands if lo is the
    value; above lo the refutations prove it: exhausted-search."""
    tries = ((value, decide(value)) for value in range(lo, hi))
    value, witness = next((tried for tried in tries if tried[1] is not None), (hi, top))
    if witness is None:
        return None
    witness = tuple(witness) if isinstance(witness, list) else witness
    return ParamResult(param, value, witness, reason if value == lo else "exhausted-search", dim_cap)


def check_proper(g: Graph, colors: Sequence[int]) -> None:
    if len(colors) != g.n:
        raise ImproperColoringError(f"coloring length {len(colors)} != n={g.n}")
    for u, v in g.edges():
        if colors[u] == colors[v]:
            raise ImproperColoringError(f"adjacent vertices {u},{v} share color {colors[u]}")


def coloring_locality(g: Graph, colors: Sequence[int]) -> int:
    """Maximum number of colors on a closed neighborhood; requires properness."""
    check_proper(g, colors)
    if g.n == 0:
        return 0
    return max(len({colors[u] for u in _bits(g.closed(v))}) for v in range(g.n))


def num_colors(colors: Sequence[int]) -> int:
    return len(set(colors))


# -- max clique ---------------------------------------------------------------


def max_clique(g: Graph) -> ParamResult:
    """Exact maximum clique by branch and bound with a greedy coloring bound."""
    if g.n > DEFAULT_CLIQUE_CAP:
        raise CapExceededError(f"max_clique cap {DEFAULT_CLIQUE_CAP} exceeded (n={g.n})")
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    best: list[int] = []

    def color_bound(order_in: list[int]) -> list[tuple[int, int]]:
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
        labeled = color_bound(members)
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
    Each branching pick filters the uncolored vertices through the
    saturation bit planes and the degree tiers of _dsatur, a few big-int
    operations per node."""
    return _dsatur(g, k)


def _dsatur(g: Graph, k: int) -> Optional[list[int]]:
    """The search behind k_colorable, on an explicit stack (no recursion
    limit).  near[c] is the set of vertices adjacent to a vertex colored c,
    so a vertex's saturation (its number of neighbor colors) is the number
    of masks near[c] that hold it.  The saturations of the uncolored
    vertices are kept as bit planes: coloring v with c ripple-adds the
    uncolored neighbors of v outside near[c] into them.  The branching
    vertex, with the most neighbor colors, then the highest degree, then
    the lowest index, is found by filtering the uncolored vertices through
    the planes from the top down, then through the degree tiers (one mask
    per distinct degree, highest first), and taking the lowest bit.  Once
    all k colors are used, a branch is dead when some uncolored vertex lies
    in every near[c].  Each frame keeps `used`, near[c] and the planes as
    they were before its vertex was colored, so undoing a color restores
    them."""
    n = g.n
    if n == 0:
        return []
    if k <= 0:
        return None
    adj = g.adj
    by_degree: dict[int, int] = {}
    for v, d in enumerate(map(int.bit_count, adj)):
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    tiers = [by_degree[d] for d in sorted(by_degree, reverse=True)]
    colors = [-1] * n
    uncolored = (1 << n) - 1
    near = [0] * min(k, n)  # a coloring needs at most n colors
    planes: list[int] = []  # bit i of each uncolored vertex's saturation
    used = 0
    # one frame per colored vertex: [vertex, color limit, color tried (-1:
    # none yet), and `used`, near[color tried] and planes before it]
    stack = [[(tiers[0] & -tiers[0]).bit_length() - 1, 1, -1, 0, 0, planes]]
    while stack:
        frame = stack[-1]
        v, limit, c, prev_used, prev_near, prev_planes = frame
        bit = 1 << v
        if c >= 0:  # undo the color tried last, then try the next
            used, near[c], planes = prev_used, prev_near, prev_planes
            uncolored |= bit
        c += 1
        while c < limit and near[c] & bit:
            c += 1
        if c >= limit:
            stack.pop()
            continue
        colors[v] = c
        frame[2:] = c, used, near[c], planes
        uncolored ^= bit
        if c == used:
            used += 1
        a = adj[v]
        carry = a & uncolored & ~near[c]  # neighbors that gain color c
        near[c] |= a
        bumped = []
        for plane in planes:
            bumped.append(plane ^ carry)
            carry &= plane
        if carry:
            bumped.append(carry)
        planes = bumped
        if used == k:
            full = uncolored
            for m in near:
                full &= m
            if full:  # all k colors hit some uncolored vertex
                continue
        if not uncolored:
            return colors.copy()
        best = uncolored
        for plane in reversed(planes):
            top = best & plane
            if top:
                best = top
        if best & (best - 1):
            for tier in tiers:
                top = best & tier
                if top:
                    best = top
                    break
        stack.append([(best & -best).bit_length() - 1, min(k, used + 1), -1, 0, 0, planes])
    return None


def chromatic_number(g: Graph) -> ParamResult:
    """Exact chromatic number: k-colorability is refuted upward from the clique
    number, up to the greedy coloring, the witness at the ladder's top."""
    if g.n > DEFAULT_CHI_CAP:
        raise CapExceededError(f"chromatic_number cap {DEFAULT_CHI_CAP} exceeded (n={g.n})")
    ub_witness = greedy_coloring(g)
    return _ladder("chi", max_clique(g).value, num_colors(ub_witness), lambda k: k_colorable(g, k), "clique", ub_witness)


# -- local chromatic number ---------------------------------------------------


def locality_decision(g: Graph, ell: int) -> Optional[list[int]]:
    """Proper coloring of g whose every closed neighborhood carries at most
    ell distinct colors, or None if none exists.

    Backtracking with most-constrained-vertex branching (the lowest-index
    vertex with the fewest options).  A closed neighborhood that carries ell
    colors is saturated: its uncolored members may take only those colors,
    which is the main pruning device.  The state is a few bitmasks over the
    vertices: per color c, near[c], the closed neighborhoods of the vertices
    colored c, and blk[c], the saturated closed neighborhoods that lack c;
    sat_cover, the union of the saturated neighborhoods; and, per center, the
    number of colors on its closed neighborhood as bit planes.  Closed
    neighborhoods are symmetric (u lies in N[w] exactly when w lies in N[u]),
    so near[c] is also the set of centers whose neighborhood carries c.

    The uncolored vertices that can take color c are those outside near[c]
    and blk[c]; a new color is open to those outside sat_cover.  Each node
    adds these masks into a bit-plane counter, a few big-int operations per
    color instead of a loop over the vertices.  It prunes when any uncolored
    vertex has no option left, and otherwise branches on the lowest-index
    vertex with the fewest options, trying its colors in increasing order
    with the new color last.  Options only shrink along a branch, so the
    prune loses no solution: the answer and the witness are those of a
    search that stops at the first vertex without options in index order.
    A saturated neighborhood's colors cannot change while its branch lives,
    so every mask only grows along a branch; each frame keeps the state as
    it was before its vertex was colored, and undoing a color restores it.
    The search runs on an explicit stack, one loop pass per node, so it has
    no recursion limit."""
    n = g.n
    if n == 0:
        return []
    if ell < 1:
        return None
    closed = [g.closed(v) for v in range(n)]
    colors = [-1] * n
    uncolored = (1 << n) - 1
    near: list[int] = []  # one mask per used color, so len(near) colors are used
    blk: list[int] = []
    sat_cover = 0
    # bit i of the number of colors on each closed neighborhood, by center;
    # no count exceeds ell
    counts = (0,) * ell.bit_length()
    # one frame per colored vertex: [vertex, its options, next option, and
    # near, blk, sat_cover and counts before it]
    stack: list = []
    while True:
        if not uncolored:
            return colors.copy()
        # per color, then the new one: the uncolored vertices that can take it
        able = [uncolored & ~(taken | blocked) for taken, blocked in zip(near, blk)]
        able.append(uncolored & ~sat_cover)
        planes: list[int] = []  # bit i of each vertex's option count
        somewhere = 0
        for carry in able:
            somewhere |= carry
            for i, plane in enumerate(planes):
                if not carry:
                    break
                planes[i] = plane ^ carry
                carry &= plane
            if carry:
                planes.append(carry)
        if not uncolored & ~somewhere:  # every vertex has an option: branch
            fewest = uncolored
            for plane in reversed(planes):
                if fewest & ~plane:
                    fewest &= ~plane
            v = (fewest & -fewest).bit_length() - 1
            stack.append([v, [c for c, m in enumerate(able) if m >> v & 1], 0, near, blk, sat_cover, counts])
        while stack and stack[-1][2] == len(stack[-1][1]):
            uncolored |= 1 << stack.pop()[0]
        if not stack:
            return None
        frame = stack[-1]
        # restoring the state before v undoes the option tried last
        v, options, k, near, blk, sat_cover, counts = frame
        c = options[k]
        frame[2] = k + 1
        colors[v] = c
        uncolored &= ~(1 << v)
        near, blk = near.copy(), blk.copy()
        if c == len(near):  # a new color: on no vertex, in no saturated neighborhood
            near.append(0)
            blk.append(sat_cover)
        fresh = closed[v] & ~near[c]  # centers whose neighborhoods gain color c
        near[c] |= closed[v]
        carry, full, bumped = fresh, fresh, []
        for i, plane in enumerate(counts):
            plane, carry = plane ^ carry, plane & carry
            bumped.append(plane)
            full &= plane if ell >> i & 1 else ~plane
        counts = tuple(bumped)
        for w in _bits(full):  # centers whose neighborhoods now carry ell colors
            sat_cover |= closed[w]
            for d, m in enumerate(near):
                if not m >> w & 1:
                    blk[d] |= closed[w]


def local_lower_bound(g: Graph) -> tuple[int, str]:
    """Analytic lower bound on the local chromatic number (and on the local
    orthogonality dimension over every field): edge, odd cycle, clique."""
    if g.n == 0 or g.num_edges == 0:
        return (1 if g.n else 0), "bipartite-test"
    bound, reason = 2, "bipartite-test"
    if g.bipartition() is None:
        bound, reason = 3, "odd-cycle"
    omega = max_clique(g).value
    if omega > bound:
        bound, reason = omega, "clique"
    return bound, reason


def local_chromatic_number(g: Graph) -> ParamResult:
    """Exact local chromatic number with a witness coloring.  The ladder
    decides locality upward from local_lower_bound, and the greedy coloring
    stands at its top: every proper coloring bounds the local chromatic
    number by its locality."""
    if g.n > DEFAULT_CHI_LOCAL_CAP:
        raise CapExceededError(f"local_chromatic_number cap {DEFAULT_CHI_LOCAL_CAP} exceeded (n={g.n})")
    lb, reason = local_lower_bound(g)
    ub_witness = greedy_coloring(g)
    ub = coloring_locality(g, ub_witness)
    return _ladder("chi_local", lb, ub, lambda ell: locality_decision(g, ell), reason, ub_witness)
