"""SAT-to-graph reduction pipeline for the hardness of deciding whether the
local orthogonality dimension is at most k.

From a CNF formula we build:
  * G  -- truth-assignment skeleton: a triangle {w,t,f}, a literal pair per
          variable (both adjacent to w), and per clause a chain of OR gadgets
          whose final top vertex is identified with t;
  * G' -- G plus an H gadget (two triangles joined by a matching) for every
          pair i in {w,t,f}, j outside it, forcing each vector to be either
          orthogonal or proportional to each of u_w, u_t, u_f;
  * G'' -- G' plus a complete graph on k-3 universal vertices (k >= 4).

Witness translation runs both ways: a satisfying assignment yields a proper
3-coloring of G', and a proper 3-coloring of G yields a satisfying
assignment.  The H-gadget dichotomy is certified exhaustively over small
fields by a census that counts every orthogonal representation in F^3 on
the span table's point numbers, and counts those that break it.

Unit clauses are padded by duplicating their literal, (x) -> (x or x); the
construction assumes clauses of width >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .coloring import check_proper
from .fields import PrimeField
from .graphs import MAX_VERTICES, CapExceededError, Graph
from .ortho import _orthogonal_walk, _space


class CnfParseError(ValueError):
    """Malformed DIMACS CNF input; message carries the line number where
    there is one."""


@dataclass(frozen=True)
class Cnf:
    """CNF formula; literals are nonzero ints, sign = polarity, 1-based variables."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        for c in self.clauses:
            if not c:
                raise ValueError("empty clause")
            for lit in c:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range for {self.num_vars} variables")
            if any(-lit in c for lit in c):
                raise ValueError(f"tautological clause {c}")


def parse_dimacs_cnf(text: str) -> Cnf:
    """Parse DIMACS CNF ('p cnf <vars> <clauses>', clauses 0-terminated).

    A file has one problem line.  A line starting with '%' ends the formula,
    as in the SATLIB benchmark files, which close with '%' and a lone '0'."""
    num_vars = None
    expected = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise CnfParseError(f"line {lineno}: duplicate problem line")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise CnfParseError(f"line {lineno}: expected 'p cnf <vars> <clauses>'")
            try:
                num_vars, expected = int(parts[2]), int(parts[3])
            except ValueError:
                raise CnfParseError(f"line {lineno}: non-integer counts") from None
            if num_vars < 0 or expected < 0:
                raise CnfParseError(f"line {lineno}: negative counts")
            continue
        if num_vars is None:
            raise CnfParseError(f"line {lineno}: clause before problem line")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise CnfParseError(f"line {lineno}: non-integer literal {tok!r}") from None
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if current:
        clauses.append(tuple(current))
    if num_vars is None:
        raise CnfParseError("missing problem line")
    if expected is not None and len(clauses) != expected:
        raise CnfParseError(f"header promises {expected} clauses, found {len(clauses)}")
    try:
        return Cnf(num_vars, tuple(clauses))
    except ValueError as exc:
        raise CnfParseError(str(exc)) from None


@dataclass(frozen=True)
class GadgetGraph:
    """Reduction output: the graph plus a total role map for its vertices."""

    graph: Graph
    roles: tuple[tuple, ...]

    def vertex_with_role(self, role: tuple) -> int:
        return self.roles.index(role)


def _padded_clauses(cnf: Cnf) -> list[tuple[int, ...]]:
    return [c if len(c) >= 2 else (c[0], c[0]) for c in cnf.clauses]


def build_g(cnf: Cnf) -> GadgetGraph:
    """First reduction stage.  Vertex numbering is deterministic: w=0, t=1,
    f=2, literal pairs by variable index, then OR-gadget vertices clause by
    clause (two middles then the top, top of the last gadget = t).  The
    vertex count is checked against MAX_VERTICES before anything is built,
    since num_vars comes from the input."""
    clauses = _padded_clauses(cnf)
    n = 3 + 2 * cnf.num_vars + sum(3 * len(c) - 4 for c in clauses)  # a clause of length L adds 3L - 4
    if n > MAX_VERTICES:
        raise CapExceededError(f"vertex count {n} exceeds MAX_VERTICES = {MAX_VERTICES}")
    roles: list[tuple] = [("w",), ("t",), ("f",)]
    edges: list[tuple[int, int]] = [(0, 1), (0, 2), (1, 2)]
    W, T = 0, 1
    lit_vertex: dict[int, int] = {}
    for i in range(1, cnf.num_vars + 1):
        pos = len(roles)
        roles.append(("literal", i, True))
        roles.append(("literal", i, False))
        lit_vertex[i] = pos
        lit_vertex[-i] = pos + 1
        edges += [(pos, pos + 1), (W, pos), (W, pos + 1)]
    for ci, clause in enumerate(clauses):
        base = lit_vertex[clause[0]]
        for gi in range(len(clause) - 1):
            other = lit_vertex[clause[gi + 1]]
            last = gi == len(clause) - 2
            m1 = len(roles)
            roles.append(("or_mid", ci, gi, 0))
            m2 = len(roles)
            roles.append(("or_mid", ci, gi, 1))
            if last:
                top = T
            else:
                top = len(roles)
                roles.append(("or_top", ci, gi))
                edges.append((W, top))
            edges += [(top, m1), (top, m2), (m1, m2), (m1, base), (m2, other)]
            base = top
    return GadgetGraph(Graph(len(roles), edges), tuple(roles))


_H_EDGE_PATTERN = [
    ("i", "a"), ("i", "b"), ("a", "b"),      # first triangle
    ("j", "d"), ("j", "c"), ("d", "c"),      # second triangle
    ("i", "d"), ("a", "j"), ("b", "c"),      # matching
]


def gadget_graph(drop_matching_edge: bool = False) -> Graph:
    """The standalone 6-vertex H gadget: vertices i,a,b,j,d,c in that order.
    With drop_matching_edge the b-c matching edge is removed (negative control)."""
    idx = {"i": 0, "a": 1, "b": 2, "j": 3, "d": 4, "c": 5}
    pattern = _H_EDGE_PATTERN[:-1] if drop_matching_edge else _H_EDGE_PATTERN
    return Graph(6, [(idx[x], idx[y]) for x, y in pattern])


def build_g_prime(cnf: Cnf) -> GadgetGraph:
    """Second stage: G plus an H gadget per (i in {w,t,f}, j outside),
    gadget blocks ordered by (i, j)."""
    g = build_g(cnf)
    roles = list(g.roles)
    edges = g.graph.edges()
    n0 = g.graph.n
    for i in range(3):
        for j in range(3, n0):
            a, b, d, c = range(len(roles), len(roles) + 4)
            roles += [("h", i, j, "a"), ("h", i, j, "b"), ("h", i, j, "d"), ("h", i, j, "c")]
            named = {"i": i, "j": j, "a": a, "b": b, "c": c, "d": d}
            edges += [(named[x], named[y]) for x, y in _H_EDGE_PATTERN]
    return GadgetGraph(Graph(len(roles), edges), tuple(roles))


def build_g_k(cnf: Cnf, k: int) -> GadgetGraph:
    """Third stage for k >= 4: G' plus a complete graph on k-3 vertices
    joined to every vertex of G'."""
    if k < 4:
        raise ValueError("build_g_k requires k >= 4; use build_g_prime for k = 3")
    gp = build_g_prime(cnf)
    roles = list(gp.roles)
    edges = gp.graph.edges()
    n0 = gp.graph.n
    extras = []
    for idx in range(k - 3):
        v = len(roles)
        roles.append(("clique_extra", idx))
        edges += [(u, v) for u in range(n0)]
        edges += [(u, v) for u in extras]
        extras.append(v)
    return GadgetGraph(Graph(len(roles), edges), tuple(roles))


# -- witness translation ------------------------------------------------------

W_COLOR, T_COLOR, F_COLOR = 0, 1, 2


def _check_assignment(cnf: Cnf, assignment: Sequence[bool]) -> None:
    if len(assignment) != cnf.num_vars:
        raise ValueError(f"assignment covers {len(assignment)} of {cnf.num_vars} variables")
    for clause in cnf.clauses:
        if not any(assignment[abs(l) - 1] == (l > 0) for l in clause):
            raise ValueError(f"assignment falsifies clause {clause}")


def assignment_to_coloring(cnf: Cnf, assignment: Sequence[bool]) -> list[int]:
    """Proper 3-coloring of build_g_prime(cnf) from a satisfying assignment,
    with colors 0=w, 1=t, 2=f.  Verified proper before returning."""
    _check_assignment(cnf, assignment)
    gp = build_g_prime(cnf)
    colors = [-1] * gp.graph.n
    colors[0], colors[1], colors[2] = W_COLOR, T_COLOR, F_COLOR
    role_at = {r: v for v, r in enumerate(gp.roles)}
    for i in range(1, cnf.num_vars + 1):
        val = assignment[i - 1]
        colors[role_at[("literal", i, True)]] = T_COLOR if val else F_COLOR
        colors[role_at[("literal", i, False)]] = F_COLOR if val else T_COLOR

    def lit_color(lit: int) -> int:
        return T_COLOR if assignment[abs(lit) - 1] == (lit > 0) else F_COLOR

    for ci, clause in enumerate(_padded_clauses(cnf)):
        base_color = lit_color(clause[0])
        for gi in range(len(clause) - 1):
            other_color = lit_color(clause[gi + 1])
            # top is colored t as soon as one base is true; mids take the rest
            top_color = T_COLOR if T_COLOR in (base_color, other_color) else F_COLOR
            rest = [c for c in (W_COLOR, T_COLOR, F_COLOR) if c != top_color]
            for m1c, m2c in (rest, rest[::-1]):
                if m1c != base_color and m2c != other_color:
                    break
            m1 = role_at[("or_mid", ci, gi, 0)]
            m2 = role_at[("or_mid", ci, gi, 1)]
            colors[m1], colors[m2] = m1c, m2c
            if gi < len(clause) - 2:
                colors[role_at[("or_top", ci, gi)]] = top_color
            base_color = top_color
    # H gadgets: same-color pair -> classes {i,j},{a,c},{b,d}; else {i,c},{a,d},{j,b}
    for v, role in enumerate(gp.roles):
        if role[0] != "h" or role[3] != "a":
            continue
        _, i, j, _ = role
        a, b = v, role_at[("h", i, j, "b")]
        d, c = role_at[("h", i, j, "d")], role_at[("h", i, j, "c")]
        ci_, cj = colors[i], colors[j]
        if ci_ == cj:
            s1, s2 = sorted(x for x in (W_COLOR, T_COLOR, F_COLOR) if x != ci_)
            colors[a], colors[c] = s1, s1
            colors[b], colors[d] = s2, s2
        else:
            third = next(x for x in (W_COLOR, T_COLOR, F_COLOR) if x not in (ci_, cj))
            colors[c] = ci_
            colors[a] = colors[d] = third
            colors[b] = cj
    check_proper(gp.graph, colors)
    return colors


def coloring_to_assignment(cnf: Cnf, colors: Sequence[int]) -> list[bool]:
    """Satisfying assignment read off a proper 3-coloring of build_g(cnf):
    literals colored like t become true.  Verified before returning."""
    g = build_g(cnf)
    check_proper(g.graph, colors)
    if len(set(colors)) > 3:
        raise ValueError("expected a coloring with at most 3 colors")
    t_color = colors[1]
    role_at = {r: v for v, r in enumerate(g.roles)}
    assignment = [
        colors[role_at[("literal", i, True)]] == t_color for i in range(1, cnf.num_vars + 1)
    ]
    _check_assignment(cnf, assignment)
    return assignment


# -- gadget lemma certification -----------------------------------------------


@dataclass(frozen=True)
class GadgetReport:
    field: str
    enumerated: int
    counterexamples: int
    first_counterexample: Optional[tuple]


def certify_gadget_lemma(field: PrimeField, drop_matching_edge: bool = False) -> GadgetReport:
    """Count the orthogonal representations of the H gadget in F^3, one per
    scalar class of each vector, and those whose endpoint vectors u_i, u_j
    are neither orthogonal nor proportional.

    The count runs on point numbers, on the loop of find_orthogonal_rep
    started at a class id that breaks no symmetry: every assignment of the
    first five vertices that leaves each domain nonempty adds the size of
    the last vertex's domain, and two points are proportional only when
    equal, since each has leading coefficient 1.  Vectors are built only
    for the first counterexample.

    With drop_matching_edge=True the weakened gadget is checked instead; it
    admits counterexamples, demonstrating the checker's sensitivity."""
    h = gadget_graph(drop_matching_edge)
    tab = _space(field, 3)
    enumerated = 0
    counterexamples = 0
    first = None
    for chosen, last in _orthogonal_walk(h, tab, range(h.n), k=tab.singletons):
        count = last.bit_count()
        enumerated += count
        c_i, c_j = chosen[0], chosen[3]
        if c_i == c_j or tab.orth_mask(c_i) >> c_j & 1:
            continue
        counterexamples += count
        if first is None:
            first = tuple(map(tab.point, chosen[:-1] + [(last & -last).bit_length() - 1]))
    return GadgetReport(field.name, enumerated, counterexamples, first)
