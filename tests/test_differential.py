"""The library's smallest-last order and dominator-coloring reports against
the quadratic reference loops in ``oracles``: equal lists, equal dict item
order, on the total graphs of cycles and paths and on seeded random graphs
with random (often improper or undominated) colorings in both universes.
"""

import random
from itertools import combinations

import pytest

import tdtc as t
from oracles import degeneracy_order_scan, domination_report_scan
from tdtc import Coloring, Graph
from tdtc.solvers import _adj_masks, _degeneracy_order

FAMILY_SIZES = {
    "cycle": [*range(3, 60), 100, 301],
    "path": [*range(2, 60), 100, 301],
}


def _random_graphs(count: int, seed: int) -> list[Graph]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 12)
        p = rng.choice((0.15, 0.3, 0.5, 0.8))
        out.append(Graph(n, [pair for pair in combinations(range(1, n + 1), 2) if rng.random() < p]))
    return out


RANDOM_GRAPHS = _random_graphs(400, 20261018)


def _random_partition(rng: random.Random, objs) -> Coloring:
    k = rng.randint(1, len(objs))
    classes = [[] for _ in range(k)]
    for obj in objs:
        classes[rng.randrange(k)].append(obj)
    classes = [c for c in classes if c]
    rng.shuffle(classes)
    return Coloring(tuple(frozenset(c) for c in classes))


def _random_proper(rng: random.Random, objs, neighbors) -> Coloring:
    """First fit along a shuffled order: proper, but rarely dominating."""
    order = list(objs)
    rng.shuffle(order)
    classes: list[set] = []
    for obj in order:
        for cls in classes:
            if not (neighbors[obj] & cls):
                cls.add(obj)
                break
        else:
            classes.append({obj})
    return Coloring(tuple(frozenset(c) for c in classes))


def _colorings(rng: random.Random, objs, neighbors) -> list[Coloring]:
    return [_random_partition(rng, objs), _random_partition(rng, objs), _random_proper(rng, objs, neighbors)]


def _fields(report) -> dict:
    return {
        "valid": report.valid,
        "proper": report.proper,
        "witnesses": list(report.witnesses.items()),
        "undominated": report.undominated,
        "properness_violations": report.properness_violations,
        "cn_sets": report.cn_sets,
    }


def _check_vertex_universe(g: Graph, coloring: Coloring) -> dict:
    want = domination_report_scan(g.vertices, g.adj, coloring.classes, mixed=False)
    assert _fields(t.is_tdc(g, coloring)) == want
    first = want["properness_violations"][0][:2] if want["properness_violations"] else None
    assert t.is_proper_coloring(g, coloring) == (want["proper"], first)
    return want


def _check_mixed_universe(g: Graph, coloring: Coloring) -> dict:
    want = domination_report_scan(t.mixed_objects(g), t.mixed_neighbors(g), coloring.classes, mixed=True)
    assert _fields(t.is_tdtc(g, coloring)) == want
    first = want["properness_violations"][0][:2] if want["properness_violations"] else None
    assert t.is_proper_total_coloring(g, coloring) == (want["proper"], first)
    return want


@pytest.mark.parametrize("family", sorted(FAMILY_SIZES))
def test_degeneracy_order_matches_scan_on_families(family):
    for n in FAMILY_SIZES[family]:
        g = t.FamilyInstance(family, n).graph()
        for adj in (_adj_masks(g), _adj_masks(t.total_graph(g).graph)):
            assert _degeneracy_order(adj) == degeneracy_order_scan(adj), (family, n)


def test_degeneracy_order_matches_scan_on_random_graphs():
    assert _degeneracy_order([]) == degeneracy_order_scan([]) == []
    for idx, g in enumerate(RANDOM_GRAPHS):
        for adj in (_adj_masks(g), _adj_masks(t.total_graph(g).graph)):
            assert _degeneracy_order(adj) == degeneracy_order_scan(adj), idx


@pytest.mark.parametrize("family", sorted(FAMILY_SIZES))
def test_reports_match_scan_on_families(family):
    rng = random.Random(f"{family}-reports")
    for n in FAMILY_SIZES[family]:
        g = t.FamilyInstance(family, n).graph()
        tg = t.total_graph(g)
        cert = t.tdtc_certificate(family, n)
        assert _check_mixed_universe(g, cert)["valid"], (family, n)
        assert _check_vertex_universe(tg.graph, t.coloring_to_total(tg, cert))["valid"], (family, n)
        for coloring in _colorings(rng, t.mixed_objects(g), t.mixed_neighbors(g)):
            _check_mixed_universe(g, coloring)
        for coloring in _colorings(rng, list(g.vertices), g.adj):
            _check_vertex_universe(g, coloring)


def test_reports_match_scan_on_random_graphs():
    rng = random.Random(1018)
    seen = {"valid": 0, "improper": 0, "undominated": 0}
    for g in RANDOM_GRAPHS:
        reports = [_check_vertex_universe(g, c) for c in _colorings(rng, list(g.vertices), g.adj)]
        reports += [
            _check_mixed_universe(g, c)
            for c in _colorings(rng, t.mixed_objects(g), t.mixed_neighbors(g))
        ]
        for r in reports:
            seen["valid"] += r["valid"]
            seen["improper"] += not r["proper"]
            seen["undominated"] += bool(r["undominated"])
    # the corpus exercises every branch of the report, not only valid colorings
    assert min(seen.values()) >= 100, seen
