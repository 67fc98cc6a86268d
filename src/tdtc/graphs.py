"""Simple undirected graphs with 1-based canonical indexing.

Vertices are numbered 1..n and edges are stored as ordered pairs (i, j)
with i < j.  Besides the basic representation the module builds the two
derived graphs used throughout the package: the line graph (one vertex
per edge, adjacency = shared endpoint) and the total graph (one vertex
per vertex *and* per edge, adjacency = "adjacent or incident"), together
with the label bookkeeping needed to map results on the derived graphs
back to the objects of the base graph: ``Coloring``, the ordered partition
every coloring certificate uses, and ``coloring_to_total`` /
``coloring_from_total``, which carry one across the total graph's labels.

``quote_token`` and ``quote_list`` are the one place the package decides
how an error message shows a value it was given: a value by its first 40
characters and its length, a list by its first 10 members and the count
of the rest.  A ``GraphParseError`` or ``DomainError`` that repeats a
value from a file or a free-form argument shows it through one of them;
the one exception is the file path of ``cli``'s ``cannot read`` and
``cannot write`` messages.

Input from outside is validated once, where it enters, and data the
library built is not checked again.  ``Graph(n, edges)``, ``Vertex``,
``Edge``, ``parse_object`` and ``read_edge_list`` check everything they are
given.  ``cycle``, ``path``, ``induced_subgraph`` and ``total_graph`` build
edges canonical and in range, and ``read_edge_list`` has checked each one,
so they make their graphs through ``Graph._of``, which checks nothing;
``mixed_objects`` and ``mixed_neighbors`` build the objects of a graph,
valid by then, without the checks of ``Vertex`` and ``Edge``.

The mixed objects ``Vertex`` and ``Edge`` are tuple subclasses, ``(i,)``
and ``(i, j)``, so that sets and dicts of them hash and compare in C.

Everything here is immutable after construction, so values can be shared
freely between threads and reused as dictionary keys.
"""

from __future__ import annotations

import itertools
import json
import operator
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


# tuple's constructor under its own name: a ``__new__`` that calls
# ``__new__`` by name reads as recursion to the library's recursion check
_new_tuple = tuple.__new__


class Vertex(tuple):
    """Vertex object v_i of a base graph, laid out as the tuple ``(i,)``.

    The tuple gives the object its hash and equality, not its order:
    ``object_key`` is the only canonical order of mixed objects.  A plain
    tuple equal to an object is not one, and ``tdtc.verify`` rejects it as
    a member.
    """

    __slots__ = ()

    def __new__(cls, i: int) -> Vertex:
        if i < 1:
            raise DomainError(f"vertex index must be >= 1, got {quote_token(i)}")
        return _new_tuple(cls, (i,))

    i = property(operator.itemgetter(0), doc="The vertex index, >= 1.")

    def __repr__(self) -> str:
        return f"Vertex(i={self[0]})"

    def __getnewargs__(self) -> tuple[int]:
        # copy and pickle rebuild the object as cls.__new__(cls, *these)
        return tuple(self)


class Edge(tuple):
    """Edge object e_ij of a base graph, canonicalized so that i < j and
    laid out as the tuple ``(i, j)``.

    As for ``Vertex``, the tuple gives hash and equality only: order mixed
    objects by ``object_key``, which puts every vertex before every edge.
    """

    __slots__ = ()

    def __new__(cls, i: int, j: int) -> Edge:
        if i == j:
            raise DomainError(f"self-loop edge ({quote_token(i)},{quote_token(j)}) is not allowed")
        if i > j:
            i, j = j, i
        if i < 1:
            raise DomainError(f"edge endpoints must be >= 1, got ({quote_token(i)},{quote_token(j)})")
        return _new_tuple(cls, (i, j))

    i = property(operator.itemgetter(0), doc="The lower endpoint.")
    j = property(operator.itemgetter(1), doc="The higher endpoint.")

    def __repr__(self) -> str:
        return f"Edge(i={self[0]}, j={self[1]})"

    def __getnewargs__(self) -> tuple[int, int]:
        return tuple(self)


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


_OBJECT_RE = re.compile(r"(?:v([0-9]+)|e([0-9]+)_([0-9]+))")
_INT_RE = re.compile(r"[+-]?[0-9]+")
_ASCII_SPACE = "".join(c for c in map(chr, range(128)) if c.isspace())  # what str.strip() takes, in ASCII
_QUOTED_CHARS = 40
_QUOTED_MEMBERS = 10


def quote_token(token) -> str:
    """``repr(token)`` for an error message.  A string token longer than 40
    characters is quoted by its first 40 and its length, and the repr of a
    non-string, an int's digits for one, is cut the same way, so that one
    bad token cannot fill a screen."""
    if isinstance(token, str):
        head, size = repr(token[:_QUOTED_CHARS]), len(token)
    else:
        text = repr(token)
        head, size = text[:_QUOTED_CHARS], len(text)
    return head if size <= _QUOTED_CHARS else f"{head}... ({size} characters)"


def quote_list(items: list) -> str:
    """``str(items)`` for an error message, each member shown as
    ``quote_token`` shows it.  A list longer than 10 is shown by its first
    10 members and the count of the rest, so that a message stays short
    however many members are wrong."""
    shown = f"[{', '.join(map(quote_token, items[:_QUOTED_MEMBERS]))}]"
    rest = len(items) - _QUOTED_MEMBERS
    return shown if rest <= 0 else f"{shown} and {rest} more"


def parse_object(token: str) -> ObjectId:
    """Parse a ``v3`` / ``e3_4`` token back into an object.

    Anything that does not name a valid object, including a non-string or
    an out-of-range index such as ``v0`` or ``e2_2``, is a GraphParseError,
    and so is any character outside ASCII, a digit of another script too.
    """
    m = _OBJECT_RE.fullmatch(token.strip(_ASCII_SPACE)) if isinstance(token, str) else None
    if not m:
        raise GraphParseError(f"bad object token: {quote_token(token)}")
    try:
        if m.group(1) is not None:
            return Vertex(int(m.group(1)))
        return Edge(int(m.group(2)), int(m.group(3)))
    except ValueError as exc:  # a DomainError, or too many digits for int()
        raise GraphParseError(f"bad object token {quote_token(token)}: {exc}") from exc


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

    @classmethod
    def _of(cls, n: int, edges: frozenset[tuple[int, int]]) -> Graph:
        """The graph on ``edges`` as given: every pair already (i, j) with
        1 <= i < j <= n, as the library's own constructions build them."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        return g

    def __post_init__(self) -> None:
        if self.n < 0:
            raise DomainError(f"vertex count must be >= 0, got {quote_token(self.n)}")
        canon = set()
        for pair in self.edges:
            i, j = pair
            if i == j:
                raise DomainError(f"self-loop ({quote_token(i)},{quote_token(j)}) is not allowed")
            if i > j:
                i, j = j, i
            if not (1 <= i < j <= self.n):
                raise DomainError(f"edge ({quote_token(i)},{quote_token(j)}) out of range for n={quote_token(self.n)}")
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
        raise DomainError(f"a cycle needs n >= 3 vertices, got {quote_token(n)}")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Graph._of(n, frozenset(edges))


def path(n: int) -> Graph:
    """The path v_1 v_2 ... v_n."""
    if n < 2:
        raise DomainError(f"a path needs n >= 2 vertices, got {quote_token(n)}")
    return Graph._of(n, frozenset((i, i + 1) for i in range(1, n)))


def induced_subgraph(g: Graph, keep: set[int] | frozenset[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``keep``.

    Returns the relabelled graph (vertices 1..len(keep)) together with the
    back-reference tuple mapping new index k to old vertex ``old[k-1]``.
    """
    keep = set(keep)
    bad = [v for v in keep if not (1 <= v <= g.n)]
    if bad:
        raise DomainError(f"vertices {quote_list(sorted(bad))} out of range for n={quote_token(g.n)}")
    old = tuple(sorted(keep))
    new_of = {v: k + 1 for k, v in enumerate(old)}
    edges = [(new_of[i], new_of[j]) for (i, j) in g.edges if i in keep and j in keep]
    # new_of keeps the order of vertices, so each pair stays canonical
    return Graph._of(len(old), frozenset(edges)), old


# ---------------------------------------------------------------------------
# Colorings, line graph and total graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Coloring:
    """Ordered partition into disjoint nonempty color classes.

    Class members are plain 1-based vertex ids for vertex colorings, or
    ObjectId values for mixed (total) colorings.  Class order matters only
    for serialization and for reporting the lowest-index witness.
    """

    classes: tuple[frozenset, ...]

    def __post_init__(self) -> None:
        classes = tuple(frozenset(c) for c in self.classes)
        object.__setattr__(self, "classes", classes)
        seen: set = set()
        for k, cls in enumerate(classes):
            if not cls:
                raise DomainError(f"color class {k} is empty")
            if seen & cls:
                raise DomainError(f"color class {k} overlaps an earlier class")
            seen |= cls
        object.__setattr__(self, "_members", frozenset(seen))

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def members(self) -> frozenset:
        return self._members  # type: ignore[attr-defined]


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
    labels = mixed_objects(g)
    tedges: set[tuple[int, int]] = set(g.edges)
    incident: list[list[int]] = [[] for _ in range(g.n + 1)]
    # edge k > n comes after both its endpoints and incident lists grow in
    # k order, so every pair added here is canonical
    for k, (i, j) in enumerate(labels[g.n:], g.n + 1):
        tedges.add((i, k))
        tedges.add((j, k))
        incident[i].append(k)
        incident[j].append(k)
    for ids in incident:
        tedges.update(itertools.combinations(ids, 2))
    return TotalGraph(Graph._of(len(labels), frozenset(tedges)), labels)


def coloring_to_total(tg: TotalGraph, coloring: Coloring) -> Coloring:
    """Map a mixed-object coloring of the base graph onto the total graph's vertices."""
    return Coloring(tuple(tg.to_vertex_ids(cls) for cls in coloring.classes))


def coloring_from_total(tg: TotalGraph, coloring: Coloring) -> Coloring:
    """Map a coloring of the total graph's vertices back to mixed objects."""
    return Coloring(tuple(tg.to_objects(cls) for cls in coloring.classes))


def line_graph(g: Graph) -> tuple[Graph, tuple[Edge, ...]]:
    """Line graph of g: one vertex per edge, adjacent when the edges share an endpoint.

    It is the total graph restricted to its edge objects, so total_graph holds
    the one edge-edge construction.  Returns the graph together with labels
    mapping line-graph vertex k to the edge object of g it represents (edges
    taken in lexicographic order).
    """
    tg = total_graph(g)
    lg, _ = induced_subgraph(tg.graph, range(g.n + 1, g.n + g.m + 1))
    return lg, tg.labels[g.n:]


# ---------------------------------------------------------------------------
# Mixed universe built directly from the base graph
# ---------------------------------------------------------------------------
# These helpers define the "adjacent or incident" relation from first
# principles (vertex-vertex: edge of g; vertex-edge: endpoint; edge-edge:
# shared endpoint).  They deliberately do not go through total_graph(), so
# code built on them can serve as an independent cross-check of the
# reduction to the total graph.


def _vertices(g: Graph) -> list[Vertex]:
    """``Vertex(i)`` for i in 1..n, built in C: a valid graph's indices need no check."""
    return list(map(_new_tuple, itertools.repeat(Vertex), zip(g.vertices)))


def _edges(pairs: list[tuple[int, int]]) -> list[Edge]:
    """``Edge(i, j)`` for each canonical pair of a valid graph, built in C."""
    return list(map(_new_tuple, itertools.repeat(Edge), pairs))


def mixed_objects(g: Graph) -> tuple[ObjectId, ...]:
    """All objects of g in canonical order: vertices, then edges lexicographic."""
    return (*_vertices(g), *_edges(g.sorted_edges()))


def mixed_neighbors(g: Graph) -> dict[ObjectId, frozenset[ObjectId]]:
    """Neighbor map of the mixed universe under the adjacent-or-incident relation.

    Keys come in canonical object order.  Each object is built once and the
    same instance appears as a key and in every neighbor set.  Objects hash
    and compare as tuples, so set operations on the map run in C whether or
    not two equal objects are the same instance.  A vertex's set is built
    from its neighbours in ascending order and then its edges, an edge's
    from its endpoints and then the other edges at each endpoint, in that
    order, which fixes the sets' iteration order.
    """
    vertex = [None, *_vertices(g)]
    pairs = g.sorted_edges()
    edges = _edges(pairs)
    near: list[list[Vertex]] = [[] for _ in vertex]
    incident: list[list[Edge]] = [[] for _ in vertex]
    for (i, j), e in zip(pairs, edges):
        near[i].append(vertex[j])
        near[j].append(vertex[i])
        incident[i].append(e)
        incident[j].append(e)

    nbrs: dict[ObjectId, frozenset[ObjectId]] = {}
    for v in g.vertices:
        nbrs[vertex[v]] = frozenset([*near[v], *incident[v]])
    for (i, j), e in zip(pairs, edges):
        out = [vertex[i], vertex[j], *incident[i], *incident[j]]
        out.remove(e)  # from incident[i]
        out.remove(e)  # from incident[j]
        nbrs[e] = frozenset(out)
    return nbrs


# ---------------------------------------------------------------------------
# Serialization: edge-list text, DOT, label maps
# ---------------------------------------------------------------------------


def _ascii_int(field: str) -> int:
    """``int(field)`` for a sign and ASCII decimal digits alone: ``int``
    itself also reads ``1_0`` as 10 and other scripts' digits."""
    if not _INT_RE.fullmatch(field):
        raise ValueError(field)
    return int(field)


def read_edge_list(text: str) -> Graph:
    """Parse the edge-list format: first line ``n m``, then m lines ``i j``.

    Indices are 1-based integers in ASCII decimal digits; pairs are
    canonicalized to i < j on read.  Duplicate edges (in either
    orientation), self-loops and out-of-range endpoints are rejected.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise GraphParseError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphParseError(f"header must be 'n m', got {quote_token(lines[0])}")
    try:
        n, m = _ascii_int(head[0]), _ascii_int(head[1])
    except ValueError as exc:
        raise GraphParseError(f"header must be two integers, got {quote_token(lines[0])}") from exc
    if n < 0 or m < 0:
        raise GraphParseError(f"header values must be nonnegative, got {quote_token(lines[0])}")
    if len(lines) - 1 != m:
        raise GraphParseError(f"expected {quote_token(m)} edge lines, found {len(lines) - 1}")
    seen: set[tuple[int, int]] = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphParseError(f"edge line must be 'i j', got {quote_token(ln)}")
        try:
            i, j = _ascii_int(parts[0]), _ascii_int(parts[1])
        except ValueError as exc:
            raise GraphParseError(f"edge line must be two integers, got {quote_token(ln)}") from exc
        if i == j:
            raise GraphParseError(f"self-loop {quote_token(ln)} is not allowed")
        if i > j:
            i, j = j, i
        if not (1 <= i < j <= n):
            raise GraphParseError(f"edge ({quote_token(i)},{quote_token(j)}) out of range for n={quote_token(n)}")
        if (i, j) in seen:
            raise GraphParseError(f"duplicate edge ({quote_token(i)},{quote_token(j)})")
        seen.add((i, j))
    return Graph._of(n, frozenset(seen))


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{i} {j}" for i, j in g.sorted_edges())
    return "\n".join(lines) + "\n"


def to_dot(g: Graph, labels: tuple[ObjectId, ...] | None = None, name: str = "G") -> str:
    """DOT rendering; nodes carry the object tokens (v3, e3_4) of ``labels``,
    or without it the vertex tokens v1..vn."""
    if labels is None:
        labels = tuple(Vertex(i) for i in g.vertices)
    node = [format_object(o) for o in labels]
    out = [f"graph {name} {{"]
    out.extend(f'  "{nm}";' for nm in node)
    out.extend(f'  "{node[i - 1]}" -- "{node[j - 1]}";' for i, j in g.sorted_edges())
    out.append("}")
    return "\n".join(out) + "\n"


def labels_to_json(tg: TotalGraph) -> str:
    """JSON export of a total graph's vertex -> object label map."""
    data = {
        "order": tg.graph.n,
        "labels": {str(k + 1): format_object(obj) for k, obj in enumerate(tg.labels)},
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
