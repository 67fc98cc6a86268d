"""Machine checks for every certificate kind the package produces.

A certificate is either an object set (independent set, total dominating
set) or a coloring (ordered partition into color classes).  The checks
here are definitional and independent of the solvers: a class totally
dominates an object exactly when the object is adjacent (or incident) to
every member of the class.  An object never witnesses its own class,
because nothing is adjacent to itself; in particular a singleton class is
never witnessed by its own member.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce

from .graphs import (
    DomainError,
    Edge,
    Graph,
    GraphParseError,
    TotalGraph,
    Vertex,
    format_object,
    induced_subgraph,
    mixed_neighbors,
    object_key,
    parse_object,
)

VERTEX_UNIVERSE = "vertices"
MIXED_UNIVERSE = "mixed"


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
class DominationReport:
    """Outcome of a dominator-coloring check.

    ``witnesses`` maps each dominated object to the lowest class index it
    totally dominates, iterating in canonical object order; objects with no
    such class are listed in ``undominated``, in the same order.  ``cn_sets[k]`` is the common neighborhood of class k:
    the objects adjacent (or incident) to every member of the class.
    """

    valid: bool
    proper: bool
    witnesses: dict
    undominated: tuple
    properness_violations: tuple
    cn_sets: tuple[frozenset, ...]


def _order(x):
    """Canonical order of either universe: vertex ids by value, mixed objects
    by ``object_key``.  Anything else sorts last by its text, so that an
    error message can list it."""
    if isinstance(x, (Vertex, Edge)):
        return object_key(x)
    if isinstance(x, int):
        return (0, x, 0)
    return (2, str(x), 0)


def _pair_order(pair: tuple):
    return _order(pair[0]), _order(pair[1])


# A universe is its neighbour map: ``Graph.adj`` for the vertices,
# ``mixed_neighbors(g)`` for V union E.  Both list their keys in canonical
# order, so the checks below serve either one unchanged.


def _members(neighbors: dict, s, complaint) -> frozenset:
    """``s`` as a frozenset; raises DomainError(complaint(outsiders)) when some
    member is not a key of ``neighbors``."""
    s = frozenset(s)
    outside = [x for x in s if x not in neighbors]
    if outside:
        raise DomainError(complaint(outside))
    return s


def _not_vertices(outside: list) -> str:
    return f"set members {sorted(map(str, outside))} are not vertices of the graph"


def _not_objects(outside: list) -> str:
    tokens = (format_object(o) if isinstance(o, (Vertex, Edge)) else str(o) for o in outside)
    return f"set members {sorted(tokens)} are not objects of the graph"


def _adjacent_pairs(neighbors: dict, cls: frozenset) -> list[tuple]:
    """Every adjacent pair (a, b) of members of ``cls`` with a before b, unsorted."""
    return [(a, b) for a in cls for b in neighbors[a] & cls if _order(a) < _order(b)]


def _properness_violations(neighbors: dict, coloring: Coloring) -> list[tuple]:
    """Every monochromatic adjacent pair (a, b, class) with a before b, in
    sorted order; raises DomainError unless the coloring covers the universe
    exactly."""
    members = coloring.members()
    if neighbors.keys() != members:
        missing = sorted(neighbors.keys() - members, key=_order)
        extra = sorted(members - neighbors.keys(), key=_order)
        raise DomainError(f"coloring does not cover the universe (missing={missing}, extra={extra})")
    # only same-class neighbours are visited, so sorting touches violations alone
    violations = [
        (a, b, k) for k, cls in enumerate(coloring.classes) for a, b in _adjacent_pairs(neighbors, cls)
    ]
    violations.sort(key=_pair_order)
    return violations


def _domination_report(neighbors: dict, coloring: Coloring) -> DominationReport:
    violations = _properness_violations(neighbors, coloring)
    cn_sets = tuple(
        reduce(frozenset.intersection, (neighbors[m] for m in cls))
        for cls in coloring.classes
    )

    # walking classes in index order, the first class recorded is the lowest
    first: dict = {}
    for k, cn in enumerate(cn_sets):
        for obj in cn:
            first.setdefault(obj, k)
    witnesses = {}
    undominated = []
    for obj in neighbors:
        k = first.get(obj)
        if k is None:
            undominated.append(obj)
        else:
            witnesses[obj] = k

    proper = not violations
    return DominationReport(
        valid=proper and not undominated,
        proper=proper,
        witnesses=witnesses,
        undominated=tuple(undominated),
        properness_violations=tuple(violations),
        cn_sets=cn_sets,
    )


def _first_violation(violations: list[tuple]) -> tuple[bool, tuple | None]:
    return (False, violations[0][:2]) if violations else (True, None)


def _uncovered(neighbors: dict, s, complaint) -> tuple[bool, tuple]:
    s = _members(neighbors, s, complaint)
    uncovered = tuple(obj for obj, nbrs in neighbors.items() if not (nbrs & s))
    return not uncovered, uncovered


def _first_adjacent_pair(neighbors: dict, s, complaint) -> tuple[bool, tuple | None]:
    pairs = _adjacent_pairs(neighbors, _members(neighbors, s, complaint))
    return (False, min(pairs, key=_pair_order)) if pairs else (True, None)


# ---------------------------------------------------------------------------
# Public checks, one line each over the vertex or the mixed universe
# ---------------------------------------------------------------------------


def is_proper_coloring(g: Graph, coloring: Coloring) -> tuple[bool, tuple[int, int] | None]:
    """True when no edge is monochromatic; also returns the first offending edge."""
    return _first_violation(_properness_violations(g.adj, coloring))


def is_proper_total_coloring(g: Graph, coloring: Coloring) -> tuple[bool, tuple | None]:
    """Properness over the mixed universe: adjacent-or-incident objects differ."""
    return _first_violation(_properness_violations(mixed_neighbors(g), coloring))


def common_neighborhood(g: Graph, cls) -> frozenset[int]:
    """Vertices adjacent to every member of ``cls``.

    Since no vertex is adjacent to itself, a member of ``cls`` never appears.
    The empty set has every vertex as a common neighbor.
    """
    cls = _members(g.adj, cls, lambda bad: f"vertices {sorted(bad, key=_order)} out of range for n={g.n}")
    if not cls:
        return frozenset(g.vertices)
    return reduce(frozenset.intersection, (g.adj[v] for v in cls))


def is_total_dominating_set(g: Graph, s) -> tuple[bool, tuple[int, ...]]:
    """True when every vertex has a neighbor in s; also returns the uncovered vertices."""
    return _uncovered(g.adj, s, _not_vertices)


def is_total_mixed_dominating_set(g: Graph, objects) -> tuple[bool, tuple]:
    """True when every object of g is adjacent or incident to a member of the set."""
    return _uncovered(mixed_neighbors(g), objects, _not_objects)


def is_independent_set(g: Graph, s) -> tuple[bool, tuple | None]:
    """True when no two members of s are adjacent; returns the first offending pair."""
    return _first_adjacent_pair(g.adj, s, _not_vertices)


def is_mixed_independent_set(g: Graph, objects) -> tuple[bool, tuple | None]:
    """True when no two objects are adjacent or incident in g."""
    return _first_adjacent_pair(mixed_neighbors(g), objects, _not_objects)


def is_tdc(g: Graph, coloring: Coloring) -> DominationReport:
    """Check a total dominator coloring of g: proper, and every vertex
    is adjacent to all of some color class."""
    return _domination_report(g.adj, coloring)


def is_tdtc(g: Graph, coloring: Coloring) -> DominationReport:
    """Check a total dominator total coloring of g over the mixed universe.

    The check runs directly on V union E with the adjacent-or-incident
    relation; it agrees with is_tdc on the total graph under the label
    bijection (the test suite cross-checks the two routes).
    """
    return _domination_report(mixed_neighbors(g), coloring)


# ---------------------------------------------------------------------------
# Constructive upper bound: dominating set + coloring of the remainder
# ---------------------------------------------------------------------------


def tdc_from_tds(g: Graph, s) -> Coloring:
    """Build a valid total dominator coloring from a total dominating set.

    Each member of s becomes a singleton class; the rest of the graph gets an
    optimal proper coloring, so the class count is exactly
    ``len(s) + chi(g - s)``.

    Every vertex has a neighbor in s, and that neighbor is a singleton
    class, so domination of the result never depends on self-witnessing;
    this holds for the members of s as well, which is why s must be a
    *total* dominating set.
    """
    s = frozenset(s)
    ok, uncovered = is_total_dominating_set(g, s)
    if not ok:
        raise DomainError(f"not a total dominating set, uncovered vertices: {list(uncovered)}")
    singletons = [frozenset([v]) for v in sorted(s)]
    rest = frozenset(g.vertices) - s
    if not rest:
        return Coloring(tuple(singletons))
    sub, old = induced_subgraph(g, rest)
    from .solvers import chromatic_number  # deferred: solvers imports this module

    sub_classes = chromatic_number(sub).certificate.classes
    mapped = [frozenset(old[v - 1] for v in cls) for cls in sub_classes]
    return Coloring(tuple(singletons) + tuple(mapped))


# ---------------------------------------------------------------------------
# Mapping between mixed colorings and total-graph colorings
# ---------------------------------------------------------------------------


def coloring_to_total(tg: TotalGraph, coloring: Coloring) -> Coloring:
    """Map a mixed-object coloring of the base graph onto the total graph's vertices."""
    return Coloring(tuple(frozenset(tg.index[o] for o in cls) for cls in coloring.classes))


def coloring_from_total(tg: TotalGraph, coloring: Coloring) -> Coloring:
    """Map a coloring of the total graph's vertices back to mixed objects."""
    return Coloring(tuple(frozenset(tg.labels[v - 1] for v in cls) for cls in coloring.classes))


# ---------------------------------------------------------------------------
# Certificate JSON
# ---------------------------------------------------------------------------
# Colorings:  {"universe": "vertices"|"mixed", "classes": [["v1","e2_3"], ...]}
# Object sets: {"universe": "vertices"|"mixed", "objects": ["v2","v3", ...]}
# An optional "provenance" string records how the certificate was obtained.


def _format_member(obj, mixed: bool) -> str:
    if mixed:
        return format_object(obj)
    return f"v{obj}"


def _parse_member(token: str, mixed: bool):
    obj = parse_object(token)
    if mixed:
        return obj
    if not isinstance(obj, Vertex):
        raise GraphParseError(f"vertex universe cannot contain {token!r}")
    return obj.i


def coloring_to_json(coloring: Coloring, universe: str, provenance: str | None = None) -> dict:
    mixed = universe == MIXED_UNIVERSE
    data = {
        "universe": universe,
        "classes": [[_format_member(o, mixed) for o in sorted(cls, key=_order)] for cls in coloring.classes],
    }
    if provenance is not None:
        data["provenance"] = provenance
    return data


def object_set_to_json(objects, universe: str, provenance: str | None = None) -> dict:
    mixed = universe == MIXED_UNIVERSE
    data = {
        "universe": universe,
        "objects": [_format_member(o, mixed) for o in sorted(objects, key=_order)],
    }
    if provenance is not None:
        data["provenance"] = provenance
    return data


def certificate_from_json(data) -> tuple[str, object]:
    """Decode a certificate dict; returns ("coloring", Coloring) or ("set", frozenset)."""
    if not isinstance(data, dict):
        raise GraphParseError("certificate must be a JSON object")
    universe = data.get("universe")
    if universe not in (VERTEX_UNIVERSE, MIXED_UNIVERSE):
        raise GraphParseError(f"bad universe: {universe!r}")
    mixed = universe == MIXED_UNIVERSE
    if ("classes" in data) == ("objects" in data):
        raise GraphParseError("certificate must have exactly one of 'classes' or 'objects'")
    if "classes" in data:
        raw = data["classes"]
        if not isinstance(raw, list) or not all(isinstance(c, list) for c in raw):
            raise GraphParseError("'classes' must be a list of lists")
        try:
            coloring = Coloring(tuple(frozenset(_parse_member(t, mixed) for t in c) for c in raw))
        except DomainError as exc:
            raise GraphParseError(f"bad coloring: {exc}") from exc
        return "coloring", coloring
    raw = data["objects"]
    if not isinstance(raw, list):
        raise GraphParseError("'objects' must be a list")
    return "set", frozenset(_parse_member(t, mixed) for t in raw)


def load_certificate(text: str) -> tuple[str, str, object]:
    """Parse certificate JSON text; returns (kind, universe, payload)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc}") from exc
    kind, payload = certificate_from_json(data)
    return kind, data["universe"], payload
