"""Simple undirected graphs with 1-based canonical indexing.

Vertices are numbered 1..n and edges are stored as ordered pairs (i, j)
with i < j.  Besides the basic representation the module builds the two
derived graphs used throughout the package, each returned with labels,
vertex k standing for the base object ``labels[k - 1]``: the line graph
(one vertex per edge, adjacency = shared endpoint) and the total graph
(one vertex per vertex *and* per edge, adjacency = "adjacent or
incident").  ``Coloring`` is the ordered partition every certificate uses.
The total graph's adjacency is built in one place, ``_total_neighbors``:
neighbour lists over the objects numbered from 0 in ``mixed_objects``
order, paired with those objects by ``_total_numbering``, on which
``total_graph``, ``line_graph``, the mixed solvers and
``closed_forms.tdtc_certificate`` (through ``solvers._dominator_coloring``)
build.  The checks of ``tdtc.verify`` read a universe through a
``Universe`` record instead: its objects in canonical order, a membership
test, the neighbour list of one object, its adjacent pairs and the length
of its widest neighbour list.  ``mixed_universe`` builds the record of
V union E from first principles, out of g's sorted edges and the edges at
each vertex, a separate route from ``_total_neighbors``;
``vertex_universe`` builds the vertices' from ``Graph.adj`` and g's edges.
``mixed_neighbors`` gives the mixed record as a map from each object to
the set of its neighbours.  No search or construction reads any of them.

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
given.  ``cycle``, ``path``, ``induced_subgraph`` and the total and line
graphs build edges canonical and in range, ``read_edge_list`` checks each
one, so they make their graphs through ``Graph._of``, which checks nothing;
``mixed_objects`` and ``mixed_universe`` build the objects of a graph,
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
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple


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
        if type(i) is not int:
            raise DomainError(f"vertex index must be an int, got {quote_token(i)}")
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
        if type(i) is not int or type(j) is not int:
            raise DomainError(f"edge endpoints must be ints, got ({quote_token(i)},{quote_token(j)})")
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
    bad token cannot fill a screen.  An int with too many digits for
    ``repr`` (``sys.get_int_max_str_digits()``) shows its sign and bit
    length, e.g. ``-<int of 16610 bits>``."""
    if isinstance(token, str):
        head, size = repr(token[:_QUOTED_CHARS]), len(token)
    else:
        try:
            text = repr(token)
        except ValueError:
            if not isinstance(token, int):
                raise
            text = f"{'-' * (token < 0)}<int of {token.bit_length()} bits>"
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
        if type(self.n) is not int:
            raise DomainError(f"vertex count must be an int, got {quote_token(self.n)}")
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

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def cycle(n: int) -> Graph:
    """The cycle v_1 v_2 ... v_n v_1; the wrap edge is canonicalized as (1, n)."""
    if type(n) is not int:
        raise DomainError(f"a cycle needs an int n, got {quote_token(n)}")
    if n < 3:
        raise DomainError(f"a cycle needs n >= 3 vertices, got {quote_token(n)}")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Graph._of(n, frozenset(edges))


def path(n: int) -> Graph:
    """The path v_1 v_2 ... v_n."""
    if type(n) is not int:
        raise DomainError(f"a path needs an int n, got {quote_token(n)}")
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


def _total_neighbors(n: int, edges) -> list[list[int]]:
    """The neighbour lists of the total graph of the graph on vertices 1..n
    with the canonical pairs ``edges`` in ascending order, indexed from 0 in
    ``mixed_objects`` order: vertex i is i - 1 and the k-th edge is n + k.
    Two objects are neighbours when adjacent or incident: the endpoints of
    an edge, an edge and each endpoint, two edges at one endpoint.  Each
    list holds each neighbour once, in no set order."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    incident: list[list[int]] = [[] for _ in range(n)]  # the edges at each vertex so far
    for k, (i, j) in enumerate(edges, n):
        a, b = i - 1, j - 1
        at_a, at_b = incident[a], incident[b]
        for e in at_a:
            nbrs[e].append(k)
        for e in at_b:
            nbrs[e].append(k)
        nbrs.append([a, b, *at_a, *at_b])
        at_a.append(k)
        at_b.append(k)
        nbrs[a].append(b)
        nbrs[b].append(a)
    for v, ks in enumerate(incident):
        nbrs[v] += ks
    return nbrs


def _total_numbering(g: Graph) -> tuple[list[list[int]], tuple[ObjectId, ...]]:
    """T(g)'s ``_total_neighbors`` lists and ``mixed_objects(g)``, object k numbered k."""
    labels = mixed_objects(g)
    return _total_neighbors(g.n, labels[g.n:]), labels


def _pairs_from(nbrs: list[list[int]], lo: int) -> frozenset[tuple[int, int]]:
    """The adjacent pairs (a, b), a < b, among ``nbrs[lo:]``, number lo + k - 1 as k."""
    return frozenset((a, b - lo + 1) for a, ns in enumerate(nbrs[lo:], 1) for b in ns if b - lo >= a)


def total_graph(g: Graph) -> tuple[Graph, tuple[ObjectId, ...]]:
    """Total graph of g: objects are V union E, adjacent when adjacent or incident in g.

    Returns the graph with its labels, vertex k standing for ``labels[k - 1]``:
    the objects of g in ``mixed_objects`` order, vertices before edges.
    """
    nbrs, labels = _total_numbering(g)
    return Graph._of(len(labels), _pairs_from(nbrs, 0)), labels


def line_graph(g: Graph) -> tuple[Graph, tuple[Edge, ...]]:
    """Line graph of g: one vertex per edge, adjacent when the edges share an endpoint.

    It is the total graph restricted to its edge objects, so _total_neighbors
    holds the one edge-edge construction.  Returns the graph together with
    labels mapping line-graph vertex k to the edge object of g it represents
    (edges taken in lexicographic order).
    """
    nbrs, labels = _total_numbering(g)
    return Graph._of(g.m, _pairs_from(nbrs, g.n)), labels[g.n:]


# ---------------------------------------------------------------------------
# Mixed universe built directly from the base graph
# ---------------------------------------------------------------------------
# These helpers define the "adjacent or incident" relation from first
# principles (vertex-vertex: edge of g; vertex-edge: endpoint; edge-edge:
# shared endpoint).  They deliberately do not go through
# _total_neighbors(), so code built on them can serve as an independent
# cross-check of the reduction to the total graph.


def _vertices(g: Graph) -> list[Vertex]:
    """``Vertex(i)`` for i in 1..n, built in C: a valid graph's indices need no check."""
    return list(map(_new_tuple, itertools.repeat(Vertex), zip(g.vertices)))


def _edges(pairs: list[tuple[int, int]]) -> list[Edge]:
    """``Edge(i, j)`` for each canonical pair of a valid graph, built in C."""
    return list(map(_new_tuple, itertools.repeat(Edge), pairs))


def mixed_objects(g: Graph) -> tuple[ObjectId, ...]:
    """All objects of g in canonical order: vertices, then edges lexicographic."""
    return (*_vertices(g), *_edges(g.sorted_edges()))


class Universe(NamedTuple):
    """A universe as the certificate checks read it.

    ``objects`` lists its members in canonical order.  ``outside(s)`` is
    its membership test, run on a whole frozenset at once: the list of the
    members of s that are not objects of the universe, in no set order.  A
    vertex id is an ``int`` (a bool or a float equal to one is not), and a
    mixed object a ``Vertex`` or ``Edge`` (a plain tuple equal to one is
    not).  ``around(x)`` lists the neighbours of the object x, each once.
    ``pairs()`` gives every adjacent pair (a, b) once, a before b in
    canonical order, in no set order; ``widest`` is the length of the
    longest ``around`` list.
    """

    objects: Sequence
    outside: Callable[[frozenset], list]
    around: Callable[[object], Iterable]
    pairs: Callable[[], Iterable[tuple]]
    widest: int


def vertex_universe(g: Graph) -> Universe:
    """The vertices 1..n of g: its ``adj`` sets around each, its edges as the pairs."""
    n, adj = g.n, g.adj
    return Universe(
        objects=g.vertices,
        outside=lambda s: [x for x in s if not (type(x) is int and 1 <= x <= n)],
        around=adj.__getitem__,
        pairs=lambda: g.edges,
        widest=max(map(len, adj.values()), default=0),
    )


def mixed_universe(g: Graph) -> Universe:
    """The objects V union E of g under the adjacent-or-incident relation.

    Each object is built once, and the same instance appears in
    ``objects`` and in every ``around`` list.  A vertex's list holds its
    neighbours in ascending order and then its edges, an edge's its
    endpoints and then the other edges at each endpoint, lower endpoint
    first.  The pairs are the edges' endpoints, each vertex with each of its
    edges, and each two edges at one vertex.
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
    objects = (*vertex[1:], *edges)

    def outside(s: frozenset) -> list:
        strays = s.difference(objects)
        # a tuple that is no Vertex or Edge hashes and compares equal to one;
        # types are tested once each, not per member
        kinds = [k for k in set(map(type, s)) if issubclass(k, tuple) and not issubclass(k, (Vertex, Edge))]
        return [*strays, *(x for x in s - strays if type(x) in kinds)] if kinds else list(strays)

    def around(x) -> list:
        if isinstance(x, Vertex):
            return [*near[x[0]], *incident[x[0]]]
        i, j = x
        out = [vertex[i], vertex[j], *incident[i], *incident[j]]
        out.remove(x)  # from incident[i]
        out.remove(x)  # from incident[j]
        return out

    def adjacent_pairs() -> Iterable[tuple]:
        lo = [vertex[i] for i, _ in pairs]
        hi = [vertex[j] for _, j in pairs]
        at_vertex = itertools.chain.from_iterable(map(itertools.combinations, incident, itertools.repeat(2)))
        return itertools.chain(zip(lo, hi), zip(lo, edges), zip(hi, edges), at_vertex)

    return Universe(
        objects=objects,
        outside=outside,
        around=around,
        pairs=adjacent_pairs,
        widest=2 * max(map(len, incident)),
    )


def mixed_neighbors(g: Graph) -> dict[ObjectId, frozenset[ObjectId]]:
    """Neighbor map of the mixed universe: each object of ``mixed_universe(g)``,
    in canonical order, to the set of its ``around`` list, built in that
    list's order, which fixes the sets' iteration order."""
    universe = mixed_universe(g)
    return {x: frozenset(universe.around(x)) for x in universe.objects}


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


def labels_to_json(labels: tuple[ObjectId, ...]) -> str:
    """JSON export of a derived graph's label map, vertex k -> ``labels[k - 1]``."""
    data = {
        "order": len(labels),
        "labels": {str(k): format_object(obj) for k, obj in enumerate(labels, 1)},
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
