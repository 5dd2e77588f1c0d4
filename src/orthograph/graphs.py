"""Simple undirected graphs as bit rows, generators (Kneser, Schrijver,
disjointness graphs of set systems, line graphs, classics), and DIMACS
input-output.

Vertices of subset-based generators are ordered lexicographically on the
sorted subsets, so identical parameters always give byte-identical DIMACS
output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

MAX_VERTICES = 4096


class CapExceededError(ValueError):
    """Instance exceeds a configured size cap: MAX_VERTICES or an exact solver's."""


class DimacsParseError(ValueError):
    """Malformed DIMACS input; message carries the line number."""


class Graph:
    """Immutable simple undirected graph.

    ``adj[v]`` is an int bitmask of the neighbors of v; the diagonal is zero
    (no loops).
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
        if n > MAX_VERTICES:
            raise CapExceededError(f"vertex count {n} exceeds MAX_VERTICES = {MAX_VERTICES}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)

    # -- basic queries --------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        return _bits(self.adj[v])

    def closed(self, v: int) -> int:
        """Closed neighborhood of v as a bitmask."""
        return self.adj[v] | 1 << v

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.adj[u]) if u < v]

    @property
    def num_edges(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and other.n == self.n and other.adj == self.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"

    # -- traversals -----------------------------------------------------------

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = 1
        frontier = 1
        while frontier:
            v = frontier.bit_length() - 1
            frontier &= ~(1 << v)
            new = self.adj[v] & ~seen
            seen |= new
            frontier |= new
        return seen == (1 << self.n) - 1

    def bipartition(self) -> Optional[list[int]]:
        """Two-coloring with colors 0/1, or None if an odd cycle exists."""
        color = [-1] * self.n
        for s in range(self.n):
            if color[s] >= 0:
                continue
            color[s] = 0
            stack = [s]
            while stack:
                u = stack.pop()
                for v in _bits(self.adj[u]):
                    if color[v] < 0:
                        color[v] = 1 - color[u]
                        stack.append(v)
                    elif color[v] == color[u]:
                        return None
        return color


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        v = mask & -mask
        out.append(v.bit_length() - 1)
        mask ^= v
    return out


@dataclass(frozen=True)
class SetSystem:
    """A family of distinct subsets of range(ground_size)."""

    ground_size: int
    family: tuple[frozenset, ...]

    def __post_init__(self):
        fam = tuple(frozenset(s) for s in self.family)
        if len(set(fam)) != len(fam):
            raise ValueError("set system members must be distinct")
        for s in fam:
            for x in s:
                if not (0 <= x < self.ground_size):
                    raise ValueError(f"element {x} outside ground set of size {self.ground_size}")
        object.__setattr__(self, "family", fam)


# -- generators ---------------------------------------------------------------


def kneser(n: int, k: int) -> Graph:
    """k-subsets of an n-set, adjacent iff disjoint; lexicographic vertex order."""
    if k < 1 or n < 2 * k:
        raise ValueError(f"kneser({n},{k}) requires n >= 2k >= 2")
    subsets = [frozenset(c) for c in itertools.combinations(range(n), k)]
    return intersection_graph(SetSystem(n, tuple(subsets)))


def _stable_subsets(n: int, k: int) -> list[frozenset]:
    """k-subsets of range(n) with no two cyclically consecutive elements."""
    out = []
    for c in itertools.combinations(range(n), k):
        s = set(c)
        if any((i + 1) % n in s for i in s):
            continue
        out.append(frozenset(c))
    return out


def schrijver(n: int, k: int) -> Graph:
    """Induced subgraph of kneser(n,k) on the stable k-subsets."""
    if k < 1 or n < 2 * k:
        raise ValueError(f"schrijver({n},{k}) requires n >= 2k")
    return intersection_graph(SetSystem(n, tuple(_stable_subsets(n, k))))


def intersection_graph(system: SetSystem) -> Graph:
    """One vertex per member of the family, edge iff the members are disjoint."""
    fam = sorted(system.family, key=sorted)
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(len(fam)), 2)
        if not (fam[i] & fam[j])
    ]
    return Graph(len(fam), edges)


def complete_graph(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def empty_graph(n: int) -> Graph:
    return Graph(n)


def cycle_graph(r: int) -> Graph:
    if r < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(r, [(i, (i + 1) % r) for i in range(r)])


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    edges = [
        (u, v)
        for u in range(g.n)
        for v in _bits(full & ~g.adj[u] & ~(1 << u))
        if u < v
    ]
    return Graph(g.n, edges)


def line_graph(h: Graph) -> Graph:
    """Vertices are the edges of h; adjacent iff they share an endpoint."""
    he = h.edges()
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(len(he)), 2)
        if set(he[i]) & set(he[j])
    ]
    return Graph(len(he), edges)


# -- DIMACS ----------------------------------------------------------


def read_dimacs(text: str) -> Graph:
    """Parse DIMACS edge format: 'p edge n m' then 1-based 'e u v' lines.

    Duplicate edge lines are tolerated (idempotent); self-loops are rejected.
    """
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise DimacsParseError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise DimacsParseError(f"line {lineno}: expected 'p edge <n> <m>'")
            try:
                n = int(parts[2])
                int(parts[3])
            except ValueError:
                raise DimacsParseError(f"line {lineno}: non-integer counts") from None
            if n < 0:
                raise DimacsParseError(f"line {lineno}: negative vertex count {n}")
        elif parts[0] == "e":
            if n is None:
                raise DimacsParseError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise DimacsParseError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise DimacsParseError(f"line {lineno}: non-integer endpoints") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise DimacsParseError(f"line {lineno}: vertex out of range 1..{n}")
            if u == v:
                raise DimacsParseError(f"line {lineno}: self-loop at {u}")
            edges.append((u - 1, v - 1))
        else:
            raise DimacsParseError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise DimacsParseError("missing problem line")
    return Graph(n, edges)


def write_dimacs(g: Graph) -> str:
    """DIMACS edge format with edges in sorted order; round-trips read_dimacs."""
    edges = sorted(g.edges())
    lines = [f"p edge {g.n} {len(edges)}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in edges)
    return "\n".join(lines) + "\n"
