"""Simple undirected graphs with 1-based canonical indexing.

Vertices are numbered 1..n and edges are stored as ordered pairs (i, j)
with i < j.  Besides the basic representation the module builds the two
derived graphs used throughout the package: the line graph (one vertex
per edge, adjacency = shared endpoint) and the total graph (one vertex
per vertex *and* per edge, adjacency = "adjacent or incident"), together
with the label bookkeeping needed to map results on the derived graphs
back to the objects of the base graph.

Everything here is immutable after construction, so values can be shared
freely between threads and reused as dictionary keys.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property


class GraphParseError(ValueError):
    """A graph or certificate file/token could not be parsed."""


class DomainError(ValueError):
    """An operation was called outside its domain (bad n, isolated vertex, ...)."""


# ---------------------------------------------------------------------------
# Mixed objects: a vertex or a canonical edge of a base graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Vertex:
    """Vertex object v_i of a base graph."""

    i: int

    def __post_init__(self) -> None:
        if self.i < 1:
            raise DomainError(f"vertex index must be >= 1, got {self.i}")


@dataclass(frozen=True)
class Edge:
    """Edge object e_ij of a base graph, canonicalized so that i < j."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i == self.j:
            raise DomainError(f"self-loop edge ({self.i},{self.j}) is not allowed")
        if self.i > self.j:
            i, j = self.j, self.i
            object.__setattr__(self, "i", i)
            object.__setattr__(self, "j", j)
        if self.i < 1:
            raise DomainError(f"edge endpoints must be >= 1, got ({self.i},{self.j})")


ObjectId = Vertex | Edge


def object_key(obj: ObjectId) -> tuple[int, int, int]:
    """Sort key giving the canonical object order: vertices first, then edges (lex)."""
    if isinstance(obj, Vertex):
        return (0, obj.i, 0)
    return (1, obj.i, obj.j)


def format_object(obj: ObjectId) -> str:
    """Render an object as its token, e.g. ``v3`` or ``e3_4``."""
    if isinstance(obj, Vertex):
        return f"v{obj.i}"
    return f"e{obj.i}_{obj.j}"


_OBJECT_RE = re.compile(r"^(?:v(\d+)|e(\d+)_(\d+))$")


def parse_object(token: str) -> ObjectId:
    """Parse a ``v3`` / ``e3_4`` token back into an object.

    Anything that does not name a valid object, including a non-string or
    an out-of-range index such as ``v0`` or ``e2_2``, is a GraphParseError.
    """
    m = _OBJECT_RE.match(token.strip()) if isinstance(token, str) else None
    if not m:
        raise GraphParseError(f"bad object token: {token!r}")
    try:
        if m.group(1) is not None:
            return Vertex(int(m.group(1)))
        return Edge(int(m.group(2)), int(m.group(3)))
    except DomainError as exc:
        raise GraphParseError(f"bad object token {token!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n.

    ``edges`` may be given as any iterable of pairs; pairs are canonicalized
    to (min, max) and validated (no self-loops, endpoints within 1..n).
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise DomainError(f"vertex count must be >= 0, got {self.n}")
        canon = set()
        for pair in self.edges:
            i, j = pair
            if i == j:
                raise DomainError(f"self-loop ({i},{j}) is not allowed")
            if i > j:
                i, j = j, i
            if not (1 <= i < j <= self.n):
                raise DomainError(f"edge ({i},{j}) out of range for n={self.n}")
            canon.add((i, j))
        object.__setattr__(self, "edges", frozenset(canon))

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def adj(self) -> dict[int, frozenset[int]]:
        nbr: dict[int, set[int]] = {v: set() for v in self.vertices}
        for i, j in self.edges:
            nbr[i].add(j)
            nbr[j].add(i)
        return {v: frozenset(s) for v, s in nbr.items()}

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def min_degree(self) -> int:
        if self.n == 0:
            return 0
        return min(len(s) for s in self.adj.values())

    @property
    def max_degree(self) -> int:
        if self.n == 0:
            return 0
        return max(len(s) for s in self.adj.values())

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def cycle(n: int) -> Graph:
    """The cycle v_1 v_2 ... v_n v_1; the wrap edge is canonicalized as (1, n)."""
    if n < 3:
        raise DomainError(f"a cycle needs n >= 3 vertices, got {n}")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Graph(n, frozenset(edges))


def path(n: int) -> Graph:
    """The path v_1 v_2 ... v_n."""
    if n < 2:
        raise DomainError(f"a path needs n >= 2 vertices, got {n}")
    return Graph(n, frozenset((i, i + 1) for i in range(1, n)))


def induced_subgraph(g: Graph, keep: set[int] | frozenset[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``keep``.

    Returns the relabelled graph (vertices 1..len(keep)) together with the
    back-reference tuple mapping new index k to old vertex ``old[k-1]``.
    """
    keep = set(keep)
    bad = [v for v in keep if not (1 <= v <= g.n)]
    if bad:
        raise DomainError(f"vertices {sorted(bad)} out of range for n={g.n}")
    old = tuple(sorted(keep))
    new_of = {v: k + 1 for k, v in enumerate(old)}
    edges = [(new_of[i], new_of[j]) for (i, j) in g.edges if i in keep and j in keep]
    return Graph(len(old), frozenset(edges)), old


# ---------------------------------------------------------------------------
# Line graph and total graph
# ---------------------------------------------------------------------------


def line_graph(g: Graph) -> tuple[Graph, tuple[Edge, ...]]:
    """Line graph of g: one vertex per edge, adjacent when the edges share an endpoint.

    Returns the graph together with labels mapping line-graph vertex k to the
    edge object of g it represents (edges taken in lexicographic order).
    """
    edge_list = g.sorted_edges()
    index = {e: k + 1 for k, e in enumerate(edge_list)}
    incident: dict[int, list[int]] = {v: [] for v in g.vertices}
    for e in edge_list:
        incident[e[0]].append(index[e])
        incident[e[1]].append(index[e])
    line_edges = set()
    for v in g.vertices:
        ids = incident[v]
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                line_edges.add((min(ids[a], ids[b]), max(ids[a], ids[b])))
    labels = tuple(Edge(*e) for e in edge_list)
    return Graph(len(edge_list), frozenset(line_edges)), labels


@dataclass(frozen=True)
class TotalGraph:
    """Total graph of a base graph plus the vertex -> object bijection.

    Vertex ordering is deterministic: base vertices 1..n first, then edges in
    lexicographic (i, j) order, so certificates are reproducible byte for byte.
    """

    graph: Graph
    labels: tuple[ObjectId, ...]

    @cached_property
    def index(self) -> dict[ObjectId, int]:
        return {obj: k + 1 for k, obj in enumerate(self.labels)}

    def to_objects(self, vertex_ids) -> frozenset[ObjectId]:
        return frozenset(self.labels[v - 1] for v in vertex_ids)

    def to_vertex_ids(self, objects) -> frozenset[int]:
        return frozenset(self.index[o] for o in objects)


def total_graph(g: Graph) -> TotalGraph:
    """Total graph of g: objects are V union E, adjacent when adjacent or incident in g."""
    edge_list = g.sorted_edges()
    n, m = g.n, len(edge_list)
    eid = {e: n + k + 1 for k, e in enumerate(edge_list)}

    tedges: set[tuple[int, int]] = set(g.edges)
    incident: dict[int, list[int]] = {v: [] for v in g.vertices}
    for e in edge_list:
        k = eid[e]
        tedges.add((e[0], k))
        tedges.add((e[1], k))
        incident[e[0]].append(k)
        incident[e[1]].append(k)
    for v in g.vertices:
        ids = incident[v]
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                tedges.add((ids[a], ids[b]))

    labels = tuple(Vertex(i) for i in g.vertices) + tuple(Edge(*e) for e in edge_list)
    return TotalGraph(Graph(n + m, frozenset(tedges)), labels)


# ---------------------------------------------------------------------------
# Mixed universe built directly from the base graph
# ---------------------------------------------------------------------------
# These helpers define the "adjacent or incident" relation from first
# principles (vertex-vertex: edge of g; vertex-edge: endpoint; edge-edge:
# shared endpoint).  They deliberately do not go through total_graph(), so
# code built on them can serve as an independent cross-check of the
# reduction to the total graph.


def mixed_objects(g: Graph) -> tuple[ObjectId, ...]:
    """All objects of g in canonical order: vertices, then edges lexicographic."""
    return tuple(Vertex(i) for i in g.vertices) + tuple(Edge(*e) for e in g.sorted_edges())


def mixed_neighbors(g: Graph) -> dict[ObjectId, frozenset[ObjectId]]:
    """Neighbor map of the mixed universe under the adjacent-or-incident relation.

    Keys come in canonical object order.  Each object is built once and the
    same instance appears as a key and in every neighbor set, so set
    operations on the map match by identity instead of field comparison.
    """
    vertex = {v: Vertex(v) for v in g.vertices}
    edges = [Edge(*e) for e in g.sorted_edges()]
    incident: dict[int, list[Edge]] = {v: [] for v in g.vertices}
    for e in edges:
        incident[e.i].append(e)
        incident[e.j].append(e)

    nbrs: dict[ObjectId, frozenset[ObjectId]] = {}
    for v, obj in vertex.items():
        nbrs[obj] = frozenset([*(vertex[u] for u in g.adj[v]), *incident[v]])
    for e in edges:
        out = [vertex[e.i], vertex[e.j]]
        out += (o for o in incident[e.i] if o is not e)
        out += (o for o in incident[e.j] if o is not e)
        nbrs[e] = frozenset(out)
    return nbrs


# ---------------------------------------------------------------------------
# Serialization: edge-list text, DOT, label maps
# ---------------------------------------------------------------------------


def read_edge_list(text: str) -> Graph:
    """Parse the edge-list format: first line ``n m``, then m lines ``i j``.

    Indices are 1-based; pairs are canonicalized to i < j on read.  Duplicate
    edges (in either orientation), self-loops and out-of-range endpoints are
    rejected.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise GraphParseError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphParseError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphParseError(f"header must be two integers, got {lines[0]!r}") from exc
    if n < 0 or m < 0:
        raise GraphParseError(f"header values must be nonnegative, got {lines[0]!r}")
    if len(lines) - 1 != m:
        raise GraphParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    seen: set[tuple[int, int]] = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphParseError(f"edge line must be 'i j', got {ln!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphParseError(f"edge line must be two integers, got {ln!r}") from exc
        if i == j:
            raise GraphParseError(f"self-loop {ln!r} is not allowed")
        if i > j:
            i, j = j, i
        if not (1 <= i < j <= n):
            raise GraphParseError(f"edge ({i},{j}) out of range for n={n}")
        if (i, j) in seen:
            raise GraphParseError(f"duplicate edge ({i},{j})")
        seen.add((i, j))
    return Graph(n, frozenset(seen))


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{i} {j}" for i, j in g.sorted_edges())
    return "\n".join(lines) + "\n"


def to_dot(g: Graph, labels: tuple[ObjectId, ...] | None = None, name: str = "G") -> str:
    """DOT rendering; with ``labels`` the nodes carry object tokens (v3, e3_4)."""
    if labels is None:
        node = [f"v{i}" for i in g.vertices]
    else:
        node = [format_object(o) for o in labels]
    out = [f"graph {name} {{"]
    out.extend(f'  "{nm}";' for nm in node)
    out.extend(f'  "{node[i - 1]}" -- "{node[j - 1]}";' for i, j in g.sorted_edges())
    out.append("}")
    return "\n".join(out) + "\n"


def total_graph_to_dot(tg: TotalGraph) -> str:
    return to_dot(tg.graph, labels=tg.labels, name="T")


def labels_to_json(tg: TotalGraph) -> str:
    """JSON export of a total graph's vertex -> object label map."""
    data = {
        "order": tg.graph.n,
        "labels": {str(k + 1): format_object(obj) for k, obj in enumerate(tg.labels)},
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
