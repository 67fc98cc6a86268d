"""Machine checks for every certificate kind the package produces.

A certificate is either an object set (independent set, total dominating
set) or a coloring (ordered partition into color classes).  The checks
here are definitional and use no solver: a class totally dominates an
object exactly when the object is adjacent (or incident) to every member
of the class.  An object never witnesses its own class, because nothing
is adjacent to itself; in particular a singleton class is never witnessed
by its own member.  The checks use no solver and no search's neighbor
lists.  ``tdc_from_tds``, the one construction here, decides total
domination, then calls ``solvers._dominator_coloring``, which trusts it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, filterfalse

from .graphs import (
    Coloring,
    DomainError,
    Edge,
    Graph,
    GraphParseError,
    Universe,
    Vertex,
    format_object,
    mixed_universe,
    object_key,
    parse_object,
    quote_list,
    quote_token,
    vertex_universe,
)
from .solvers import _dominator_coloring, _neighbors

VERTEX_UNIVERSE = "vertices"
MIXED_UNIVERSE = "mixed"


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


# A universe is a ``graphs.Universe`` record: ``vertex_universe(g)`` for the
# vertices, ``mixed_universe(g)`` for V union E.  Each check below reads only
# the record, so it serves either universe unchanged.


def _members(universe: Universe, s, complaint) -> frozenset:
    """``s`` as a frozenset; raises DomainError(complaint(outsiders)) when some
    member is not an object of ``universe``."""
    s = frozenset(s)
    outside = universe.outside(s)
    if outside:
        raise DomainError(complaint(outside))
    return s


def _not_vertices(outside: list) -> str:
    return f"set members {quote_list(sorted(map(str, outside)))} are not vertices of the graph"


def _not_objects(outside: list) -> str:
    tokens = (format_object(o) if isinstance(o, (Vertex, Edge)) else str(o) for o in outside)
    return f"set members {quote_list(sorted(tokens))} are not objects of the graph"


def _properness_violations(universe: Universe, coloring: Coloring) -> list[tuple]:
    """Every monochromatic adjacent pair (a, b, class) with a before b, in
    sorted order; raises DomainError unless the coloring covers the universe
    exactly."""
    members = coloring.members()
    outside = universe.outside(members)
    if outside or len(members) != len(universe.objects):
        inside = members.difference(outside)
        missing = [x for x in universe.objects if x not in inside]
        extra = sorted(outside, key=_order)
        raise DomainError(
            f"coloring does not cover the universe (missing={quote_list(missing)}, extra={quote_list(extra)})"
        )
    color = {x: k for k, cls in enumerate(coloring.classes) for x in cls}
    violations = [(a, b, color[a]) for a, b in universe.pairs() if color[a] == color[b]]
    violations.sort(key=_pair_order)
    return violations


def _common_neighborhood(universe: Universe, cls: frozenset) -> frozenset:
    """The objects adjacent to every member of ``cls``.  Such an object has
    all of ``cls`` around it, so a class wider than the widest neighbourhood
    has none."""
    if len(cls) > universe.widest:
        return frozenset()
    lists = map(universe.around, cls)
    common = frozenset(next(lists))
    for nbrs in lists:
        if not common:
            break
        common = common.intersection(nbrs)
    return common


def _domination_report(universe: Universe, coloring: Coloring) -> DominationReport:
    violations = _properness_violations(universe, coloring)
    cn_sets = tuple(_common_neighborhood(universe, cls) for cls in coloring.classes)

    # walking classes in index order, the first class recorded is the lowest
    first: dict = {}
    for k, cn in enumerate(cn_sets):
        for obj in cn:
            first.setdefault(obj, k)
    witnesses = {}
    undominated = []
    for obj in universe.objects:
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


def _uncovered(universe: Universe, s, complaint) -> tuple[bool, tuple]:
    """The objects outside every member's neighbourhood, in canonical order."""
    covered = set(chain.from_iterable(map(universe.around, _members(universe, s, complaint))))
    uncovered = tuple(filterfalse(covered.__contains__, universe.objects))
    return not uncovered, uncovered


def _first_adjacent_pair(universe: Universe, s, complaint) -> tuple[bool, tuple | None]:
    s = _members(universe, s, complaint)
    pairs = [(a, b) for a in s for b in universe.around(a) if b in s and _order(a) < _order(b)]
    return (False, min(pairs, key=_pair_order)) if pairs else (True, None)


# ---------------------------------------------------------------------------
# Public checks, one line each over the vertex or the mixed universe
# ---------------------------------------------------------------------------


def is_proper_coloring(g: Graph, coloring: Coloring) -> tuple[bool, tuple[int, int] | None]:
    """True when no edge is monochromatic; also returns the first offending edge."""
    return _first_violation(_properness_violations(vertex_universe(g), coloring))


def is_proper_total_coloring(g: Graph, coloring: Coloring) -> tuple[bool, tuple | None]:
    """Properness over the mixed universe: adjacent-or-incident objects differ."""
    return _first_violation(_properness_violations(mixed_universe(g), coloring))


def is_total_dominating_set(g: Graph, s) -> tuple[bool, tuple[int, ...]]:
    """True when every vertex has a neighbor in s; also returns the uncovered vertices."""
    return _uncovered(vertex_universe(g), s, _not_vertices)


def is_total_mixed_dominating_set(g: Graph, objects) -> tuple[bool, tuple]:
    """True when every object of g is adjacent or incident to a member of the set."""
    return _uncovered(mixed_universe(g), objects, _not_objects)


def is_independent_set(g: Graph, s) -> tuple[bool, tuple | None]:
    """True when no two members of s are adjacent; returns the first offending pair."""
    return _first_adjacent_pair(vertex_universe(g), s, _not_vertices)


def is_mixed_independent_set(g: Graph, objects) -> tuple[bool, tuple | None]:
    """True when no two objects are adjacent or incident in g."""
    return _first_adjacent_pair(mixed_universe(g), objects, _not_objects)


def is_tdc(g: Graph, coloring: Coloring) -> DominationReport:
    """Check a total dominator coloring of g: proper, and every vertex
    is adjacent to all of some color class."""
    return _domination_report(vertex_universe(g), coloring)


def is_tdtc(g: Graph, coloring: Coloring) -> DominationReport:
    """Check a total dominator total coloring of g over the mixed universe.

    The check runs directly on V union E with the adjacent-or-incident
    relation; it agrees with is_tdc on the total graph under the label
    bijection (the test suite cross-checks the two routes).
    """
    return _domination_report(mixed_universe(g), coloring)


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

    Once ``is_total_dominating_set`` accepts s, ``_dominator_coloring``
    builds the coloring on g's neighbor lists, vertex v numbered v - 1.
    """
    s = frozenset(s)
    ok, uncovered = is_total_dominating_set(g, s)
    if not ok:
        raise DomainError(f"not a total dominating set, uncovered vertices: {quote_list(uncovered)}")
    return _dominator_coloring(_neighbors(g), g.vertices, s)


# ---------------------------------------------------------------------------
# Certificate JSON
# ---------------------------------------------------------------------------
# Colorings:  {"universe": "vertices"|"mixed", "classes": [["v1","e2_3"], ...]}
# Object sets: {"universe": "vertices"|"mixed", "objects": ["v2","v3", ...]}
# An optional "provenance" string records how the certificate was obtained.


def member_token(obj, universe: str) -> str:
    """The certificate token of a member of ``universe``: ``v2``/``e2_3`` for
    mixed objects, ``v2`` for vertex ids.  Raises DomainError for anything
    else, which would write a token that does not parse."""
    if universe == MIXED_UNIVERSE and isinstance(obj, (Vertex, Edge)):
        return format_object(obj)
    if universe == VERTEX_UNIVERSE and type(obj) is int and obj >= 1:
        return f"v{obj}"
    raise DomainError(f"{quote_token(obj)} is not a member of the {quote_token(universe)} universe")


def _parse_member(token: str, mixed: bool):
    obj = parse_object(token)
    if mixed:
        return obj
    if not isinstance(obj, Vertex):
        raise GraphParseError(f"vertex universe cannot contain {quote_token(token)}")
    return obj.i


def _parse_members(tokens: list, mixed: bool) -> frozenset:
    """The members named by ``tokens``; a token that names a member an
    earlier token named is a GraphParseError.  Tokens are compared after
    parsing, so ``"v1"`` and ``" v1"`` name the same member."""
    members = [_parse_member(t, mixed) for t in tokens]
    distinct = frozenset(members)
    if len(distinct) < len(members):
        seen = set()
        for token, obj in zip(tokens, members):
            if obj in seen:
                raise GraphParseError(f"repeated object {quote_token(token)}")
            seen.add(obj)
    return distinct


def _certificate_dict(universe: str, field: str, tokens: list, provenance: str | None) -> dict:
    data = {"universe": universe, field: tokens}
    if provenance is not None:
        data["provenance"] = provenance
    return data


def coloring_to_json(coloring: Coloring, universe: str, provenance: str | None = None) -> dict:
    classes = [[member_token(o, universe) for o in sorted(cls, key=_order)] for cls in coloring.classes]
    return _certificate_dict(universe, "classes", classes, provenance)


def object_set_to_json(objects, universe: str, provenance: str | None = None) -> dict:
    tokens = [member_token(o, universe) for o in sorted(objects, key=_order)]
    return _certificate_dict(universe, "objects", tokens, provenance)


def certificate_from_json(data) -> tuple[str, object]:
    """Decode a certificate dict; returns ("coloring", Coloring) or ("set", frozenset).

    Every object is listed once: a token repeated within ``objects`` or
    within one class is a GraphParseError, as is an object in two classes.
    """
    if not isinstance(data, dict):
        raise GraphParseError("certificate must be a JSON object")
    universe = data.get("universe")
    if universe not in (VERTEX_UNIVERSE, MIXED_UNIVERSE):
        raise GraphParseError(f"bad universe: {quote_token(universe)}")
    mixed = universe == MIXED_UNIVERSE
    if ("classes" in data) == ("objects" in data):
        raise GraphParseError("certificate must have exactly one of 'classes' or 'objects'")
    if "classes" in data:
        raw = data["classes"]
        if not isinstance(raw, list) or not all(isinstance(c, list) for c in raw):
            raise GraphParseError("'classes' must be a list of lists")
        try:
            coloring = Coloring(tuple(_parse_members(c, mixed) for c in raw))
        except DomainError as exc:
            raise GraphParseError(f"bad coloring: {exc}") from exc
        return "coloring", coloring
    raw = data["objects"]
    if not isinstance(raw, list):
        raise GraphParseError("'objects' must be a list")
    return "set", _parse_members(raw, mixed)


def _unique_keys(pairs: list) -> dict:
    """json ``object_pairs_hook``: a key given twice in one object is a
    GraphParseError, not a silent replacement of the first value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise GraphParseError(f"repeated key {quote_token(key)}")
        data[key] = value
    return data


def _parse_int(digits: str) -> int:
    """json ``parse_int``: an integer too long for ``int()`` (over 4,300
    digits by default) is a GraphParseError, not a plain ValueError."""
    try:
        return int(digits)
    except ValueError as exc:
        raise GraphParseError(f"invalid JSON: integer too long: {quote_token(digits)}") from exc


def load_certificate(text: str) -> tuple[str, str, object]:
    """Parse certificate JSON text; returns (kind, universe, payload)."""
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise GraphParseError("invalid JSON: nested too deeply") from exc
    kind, payload = certificate_from_json(data)
    return kind, data["universe"], payload
