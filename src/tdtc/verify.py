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
    Graph,
    GraphParseError,
    TotalGraph,
    Vertex,
    format_object,
    induced_subgraph,
    mixed_neighbors,
    mixed_objects,
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


def _sort_objects(items, mixed: bool):
    return sorted(items, key=object_key) if mixed else sorted(items)


def _properness_violations(universe, neighbors, coloring: Coloring, mixed: bool) -> list[tuple]:
    """Every monochromatic adjacent pair (a, b, class) with a before b, in
    sorted order; raises DomainError unless the coloring covers the universe
    exactly."""
    universe_set = frozenset(universe)
    if coloring.members() != universe_set:
        missing = _sort_objects(universe_set - coloring.members(), mixed)
        extra = _sort_objects(coloring.members() - universe_set, mixed)
        raise DomainError(f"coloring does not cover the universe (missing={missing}, extra={extra})")

    # only same-class neighbours are visited, so sorting touches violations alone
    key = object_key if mixed else (lambda v: v)
    violations = [
        (a, b, k)
        for k, cls in enumerate(coloring.classes)
        for a in cls
        for b in neighbors[a] & cls
        if key(a) < key(b)
    ]
    violations.sort(key=lambda t: (key(t[0]), key(t[1])))
    return violations


def _domination_report(universe, neighbors, coloring: Coloring, mixed: bool) -> DominationReport:
    universe_set = frozenset(universe)
    violations = _properness_violations(universe_set, neighbors, coloring, mixed)
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
    for obj in _sort_objects(universe_set, mixed):
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


# ---------------------------------------------------------------------------
# Vertex-universe checks
# ---------------------------------------------------------------------------


def _first_violation(violations: list[tuple]) -> tuple[bool, tuple | None]:
    return (False, violations[0][:2]) if violations else (True, None)


def is_proper_coloring(g: Graph, coloring: Coloring) -> tuple[bool, tuple[int, int] | None]:
    """True when no edge is monochromatic; also returns the first offending edge."""
    return _first_violation(_properness_violations(g.vertices, g.adj, coloring, mixed=False))


def common_neighborhood(g: Graph, cls) -> frozenset[int]:
    """Vertices adjacent to every member of ``cls``.

    Since no vertex is adjacent to itself, a member of ``cls`` never appears.
    The empty set has every vertex as a common neighbor.
    """
    cls = frozenset(cls)
    bad = [v for v in cls if not (1 <= v <= g.n)]
    if bad:
        raise DomainError(f"vertices {sorted(bad)} out of range for n={g.n}")
    if not cls:
        return frozenset(g.vertices)
    return reduce(frozenset.intersection, (g.adj[v] for v in cls))


def _check_vertex_members(g: Graph, s) -> frozenset[int]:
    s = frozenset(s)
    bad = [v for v in s if not (isinstance(v, int) and 1 <= v <= g.n)]
    if bad:
        raise DomainError(f"set members {sorted(map(str, bad))} are not vertices of the graph")
    return s


def _check_object_members(g: Graph, objects) -> frozenset:
    objects = frozenset(objects)
    universe = frozenset(mixed_objects(g))
    bad = objects - universe
    if bad:
        raise DomainError(
            f"set members {sorted(map(format_object, bad))} are not objects of the graph"
        )
    return objects


def is_total_dominating_set(g: Graph, s) -> tuple[bool, tuple[int, ...]]:
    """True when every vertex has a neighbor in s; also returns the uncovered vertices."""
    s = _check_vertex_members(g, s)
    uncovered = tuple(v for v in g.vertices if not (g.adj[v] & s))
    return not uncovered, uncovered


def is_tdc(g: Graph, coloring: Coloring) -> DominationReport:
    """Check a total dominator coloring of g: proper, and every vertex
    is adjacent to all of some color class."""
    return _domination_report(g.vertices, g.adj, coloring, mixed=False)


def is_tdtc(g: Graph, coloring: Coloring) -> DominationReport:
    """Check a total dominator total coloring of g over the mixed universe.

    The check runs directly on V union E with the adjacent-or-incident
    relation; it agrees with is_tdc on the total graph under the label
    bijection (the test suite cross-checks the two routes).
    """
    return _domination_report(mixed_objects(g), mixed_neighbors(g), coloring, mixed=True)


def is_proper_total_coloring(g: Graph, coloring: Coloring) -> tuple[bool, tuple | None]:
    """Properness over the mixed universe: adjacent-or-incident objects differ."""
    return _first_violation(_properness_violations(mixed_objects(g), mixed_neighbors(g), coloring, mixed=True))


def is_independent_set(g: Graph, s) -> tuple[bool, tuple | None]:
    """True when no two members of s are adjacent; returns the first offending pair."""
    sset = _check_vertex_members(g, s)
    s = sorted(sset)
    for v in s:
        hit = g.adj[v] & sset
        for u in sorted(hit):
            if v < u:
                return False, (v, u)
    return True, None


def is_mixed_independent_set(g: Graph, objects) -> tuple[bool, tuple | None]:
    """True when no two objects are adjacent or incident in g."""
    oset = _check_object_members(g, objects)
    objs = sorted(oset, key=object_key)
    nbrs = mixed_neighbors(g)
    for o in objs:
        hit = nbrs[o] & oset
        for u in sorted(hit, key=object_key):
            if object_key(o) < object_key(u):
                return False, (o, u)
    return True, None


def is_total_mixed_dominating_set(g: Graph, objects) -> tuple[bool, tuple]:
    """True when every object of g is adjacent or incident to a member of the set."""
    oset = _check_object_members(g, objects)
    nbrs = mixed_neighbors(g)
    uncovered = tuple(o for o in mixed_objects(g) if not (nbrs[o] & oset))
    return not uncovered, uncovered


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
        "classes": [
            [_format_member(o, mixed) for o in _sort_objects(cls, mixed)]
            for cls in coloring.classes
        ],
    }
    if provenance is not None:
        data["provenance"] = provenance
    return data


def object_set_to_json(objects, universe: str, provenance: str | None = None) -> dict:
    mixed = universe == MIXED_UNIVERSE
    data = {
        "universe": universe,
        "objects": [_format_member(o, mixed) for o in _sort_objects(objects, mixed)],
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
