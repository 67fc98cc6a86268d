"""The library's smallest-last order, greedy total dominating set, greedy
independent set and dominator-coloring reports against the quadratic
reference loops in ``oracles``: equal lists, equal dict item order, on the
total graphs of cycles and paths and on seeded random graphs, the latter
with random (often improper or undominated) colorings in both universes.
The chromatic number against the k-coloring reference in ``oracles`` run
on each component: equal classes in class order, and no more search nodes;
and, when its budget runs out, the exact colorings of the components
already solved merged with the greedy colorings of the others.  The
level search, run on masks numbered by search position, against the same
reference level by level: the same classes once mapped back through the
order, and no coloring at the levels the reference refutes.  The total
domination search against its reference in ``oracles``, which keeps no
table of failed states: the same incumbent lists and no more nodes, and
under a budget a value no worse and a proof never lost; and against the
scan in ``oracles``, which finds each branch vertex by rescanning the
uncovered vertices: the same lists, node counts and proven flags.  The independent
set search against its reference in ``oracles``, which takes each
dominance reduction case by case: the same incumbent lists and the same
node counts, with and without a budget.  The four mixed solvers, which
search the total graph's neighbor lists, against their former route
through ``total_graph`` in ``oracles``: the same values, certificates,
node counts and proven flags under a budget.  Every certificate check
against its former body in ``oracles``, which ran on a neighbour map: the
same return values, report fields and witness order, and the same
exceptions and messages, on family, solver and mutated certificates.
"""

import json
import random
from itertools import combinations
from pathlib import Path

import pytest

import tdtc as t
from oracles import (
    chromatic_masks_reference,
    coloring_of_masks,
    FORMER_CHECKS,
    degeneracy_order_scan,
    domination_report_scan,
    greedy_clique_size_masks,
    greedy_color_classes_masks,
    greedy_independent_scan,
    greedy_tds_scan,
    kcolor_feasible_reference,
    label_index,
    masks_from_positions,
    mis_search_reference,
    mixed_solve_reference,
    mis_search_rescan,
    position_masks,
    relabel,
    tdc_from_tds_reference,
    tds_search_reference,
    tds_search_scan,
)
import tdtc.graphs
import tdtc.solvers
import tdtc.verify
from tdtc import Coloring, Edge, Graph, SearchBudget, induced_subgraph
from tdtc.solvers import (
    _bits,
    _components,
    _greedy_independent,
    _greedy_tds,
    _ktdc_feasible,
    _masks,
    _mis_search,
    _neighbors,
    _Search,
    _smallest_last,
    _solve,
    _tds_search,
)

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
        for h in (g, t.total_graph(g)[0]):
            assert _smallest_last(_neighbors(h)) == degeneracy_order_scan(_masks(_neighbors(h))), (family, n)


def test_degeneracy_order_matches_scan_on_random_graphs():
    assert _smallest_last([]) == degeneracy_order_scan([]) == []
    for idx, g in enumerate(RANDOM_GRAPHS):
        for h in (g, t.total_graph(g)[0]):
            assert _smallest_last(_neighbors(h)) == degeneracy_order_scan(_masks(_neighbors(h))), idx


def _induced_lists(g: Graph, old: tuple[int, ...], rng: random.Random) -> list[list[int]]:
    """The neighbor lists of the subgraph of g induced by the vertices
    ``old``, in ascending order, renumbered so that ``old[k]`` is k, each
    list in a shuffled order."""
    new = {v: k for k, v in enumerate(old)}
    lists = [[new[u] for u in g.adj[v] if u in new] for v in old]
    for ns in lists:
        rng.shuffle(ns)
    return lists


@pytest.mark.parametrize("seed", range(4))
def test_degeneracy_order_matches_scan_on_vertex_subsets(seed):
    """On an induced subgraph renumbered 0..k-1 in ascending order, as
    ``verify`` colors what a dominating set leaves, the order mapped back
    is the scan's on the whole graph's masks with every other vertex cut
    off, those dropped: renumbering in ascending order changes no tie, nor
    does the order within a neighbor list."""
    rng = random.Random(seed)
    graphs = [*RANDOM_GRAPHS[:100], *(t.total_graph(t.cycle(n))[0] for n in range(3, 40))]
    for idx, g in enumerate(graphs):
        old = tuple(v for v in g.vertices if rng.random() < 0.6)
        keep = sum(1 << (v - 1) for v in old)
        cut = [a & keep if keep >> v & 1 else 0 for v, a in enumerate(_masks(_neighbors(g)))]
        want = [v + 1 for v in degeneracy_order_scan(cut) if keep >> v & 1]
        assert [old[k] for k in _smallest_last(_induced_lists(g, old, rng))] == want, (seed, idx)


@pytest.mark.parametrize("family", sorted(FAMILY_SIZES))
def test_reports_match_scan_on_families(family):
    rng = random.Random(f"{family}-reports")
    for n in FAMILY_SIZES[family]:
        g = t.FamilyInstance(family, n).graph()
        tg, labels = t.total_graph(g)
        cert = t.tdtc_certificate(family, n)
        assert _check_mixed_universe(g, cert)["valid"], (family, n)
        assert _check_vertex_universe(tg, relabel(cert, label_index(labels)))["valid"], (family, n)
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


def _merged(colorings) -> Coloring:
    """Colorings of disjoint vertex sets merged class by class."""
    classes = [frozenset()] * max(len(c.classes) for c in colorings)
    for c in colorings:
        for idx, cls in enumerate(c.classes):
            classes[idx] |= cls
    return Coloring(tuple(classes))


def _assert_chromatic_matches_reference(graphs: list[Graph]) -> int:
    """Compare ``chromatic_number`` with the reference run on each
    component's induced subgraph, mapped back and merged class by class;
    returns the reference's total node count."""
    total = 0
    for idx, g in enumerate(graphs):
        search = _Search(None)
        parts = []
        for comp in _components(_neighbors(g)):
            sub, old = induced_subgraph(g, {v + 1 for v in comp})
            masks = chromatic_masks_reference(_masks(_neighbors(sub)), search)
            parts.append(Coloring(tuple(frozenset(old[v] for v in _bits(m)) for m in masks)))
        got = t.chromatic_number(g)
        assert got.proven_optimal and got.certificate == _merged(parts), idx
        assert got.nodes_explored <= search.nodes, (idx, got.nodes_explored, search.nodes)
        total += search.nodes
    return total


def test_chromatic_matches_reference_on_random_graphs():
    connected = [g for g in RANDOM_GRAPHS if len(_components(_neighbors(g))) == 1]
    assert len(connected) >= 100
    assert _assert_chromatic_matches_reference(connected) > 0


def test_chromatic_matches_reference_on_disconnected_graphs():
    """Each component is searched from its own greedy coloring and clique
    bound, so a triangle beside a bipartite component whose greedy
    coloring has 3 classes still gets a 2-class coloring there."""
    interleaved = Graph(9, [(1, 4), (4, 7), (1, 7), (2, 5), (5, 8), (3, 6)])
    bipartite = [(1, 6), (1, 8), (2, 6), (2, 7), (3, 4), (3, 8), (4, 5), (5, 8), (6, 9), (7, 9)]
    beside_triangle = Graph(12, bipartite + [(10, 11), (10, 12), (11, 12)])
    disconnected = [g for g in RANDOM_GRAPHS if len(_components(_neighbors(g))) > 1]
    assert len(disconnected) >= 100
    assert _assert_chromatic_matches_reference([interleaved, beside_triangle, *disconnected]) > 0


def test_chromatic_matches_reference_on_small_graphs(exhaustive_connected_upto5):
    assert _assert_chromatic_matches_reference(exhaustive_connected_upto5) > 0


def test_chromatic_matches_reference_on_family_total_graphs():
    graphs = [t.total_graph(t.cycle(n))[0] for n in range(3, 16)]
    graphs += [t.total_graph(t.path(n))[0] for n in range(2, 16)]
    assert _assert_chromatic_matches_reference(graphs) > 0


def test_level_search_on_positions_matches_reference(exhaustive_connected_upto5, random_corpus):
    """Each level from max(2, the greedy clique bound) up to the first
    feasible one, with every vertex needing a witness and with none: the
    level search on position masks along the smallest-last order refutes
    the levels the reference refutes, and at the first feasible level
    finds the reference's classes, class for class, once mapped back
    through the order.  Every graph of both corpora has an edge and
    minimum degree 1, so the first feasible level has exactly k classes."""
    levels = 0
    for idx, g in enumerate([*exhaustive_connected_upto5, *random_corpus]):
        adj = _masks(_neighbors(g))
        order = degeneracy_order_scan(adj)
        by_position = position_masks(adj, order)
        for need in ((1 << g.n) - 1, 0):
            for k in range(max(2, greedy_clique_size_masks(adj, order)), g.n + 1):
                want = kcolor_feasible_reference(adj, order, k, _Search(None), need)
                got = _ktdc_feasible(by_position, k, need, _Search(None))
                levels += 1
                if want is None:
                    assert got is None, (idx, need, k)
                    continue
                assert masks_from_positions(got, order) == want, (idx, need, k)
                break
            else:
                pytest.fail(f"graph {idx}: no feasible level up to {g.n}")
    assert levels >= 2500


def _greedy_coloring(g: Graph) -> Coloring:
    adj = _masks(_neighbors(g))
    return coloring_of_masks(greedy_color_classes_masks(adj, degeneracy_order_scan(adj)))


@pytest.mark.parametrize("max_nodes", [0, 3])
def test_exhausted_chromatic_returns_whole_graph_greedy(max_nodes):
    """A budget that runs out returns the smallest-last greedy coloring of
    the whole graph.  Four of these graphs run out at either budget; the
    others need no search node, so their exact coloring is that greedy one
    too."""
    two_triangles = Graph(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
    disconnected = [g for g in RANDOM_GRAPHS if len(_components(_neighbors(g))) > 1]
    assert len(disconnected) >= 100
    exhausted = 0
    for idx, g in enumerate([two_triangles, *disconnected]):
        got = t.chromatic_number(g, SearchBudget(max_nodes=max_nodes))
        assert got.certificate == _greedy_coloring(g), idx
        exhausted += not got.proven_optimal
    assert exhausted >= 4


# chi = 3, found in 15 nodes, below its smallest-last greedy coloring's 4 classes
SOLVED_BELOW_GREEDY = Graph(6, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 6), (3, 5), (4, 6), (5, 6)])
GROTZSCH = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
GROTZSCH += [(j, i + 5) for i in range(1, 6) for j in (i % 5 + 1, (i - 2) % 5 + 1)]
GROTZSCH += [(i, 11) for i in range(6, 11)]


@pytest.mark.parametrize("second, max_nodes, value", [
    (Graph(11, GROTZSCH), 50, 4),
    (t.cycle(51), 30, 3),
], ids=["grotzsch", "c51"])
def test_exhausted_chromatic_keeps_solved_components(second, max_nodes, value):
    """The first component is solved below its greedy count; the budget
    then runs out on the second, and the answer merges the first's exact
    coloring with the second's greedy one.  Beside the Grotzsch graph that
    is still 4 classes; beside C_51 (greedy 3) it is 3, the true chi."""
    first = t.chromatic_number(SOLVED_BELOW_GREEDY)
    assert first.value == 3 and len(_greedy_coloring(SOLVED_BELOW_GREEDY).classes) == 4
    g = Graph(6 + second.n, [*SOLVED_BELOW_GREEDY.edges, *((i + 6, j + 6) for i, j in second.edges)])
    shifted = Coloring(tuple(frozenset(v + 6 for v in cls) for cls in _greedy_coloring(second).classes))
    got = t.chromatic_number(g, SearchBudget(max_nodes=max_nodes))
    assert (got.value, got.nodes_explored, got.proven_optimal) == (value, max_nodes, False)
    assert got.certificate == _merged([first.certificate, shifted])


def _pool_graphs() -> list[Graph]:
    """The 300 random connected 7-vertex graphs of the benchmark's pool."""
    golden = json.loads((Path(__file__).resolve().parent.parent / "bench" / "golden.json").read_text())
    return [Graph(e["n"], [tuple(pair) for pair in e["edges"]]) for e in golden["random_pool"]]


POOL_GRAPHS = _pool_graphs()
TDS_GRAPHS = [
    *POOL_GRAPHS,
    *(t.total_graph(g)[0] for g in POOL_GRAPHS),
    *(g for g in RANDOM_GRAPHS if g.n and min(map(len, g.adj.values()), default=0) >= 1),
    *(t.total_graph(t.cycle(n))[0] for n in range(3, 21)),
    *(t.total_graph(t.path(n))[0] for n in range(2, 21)),
]


def _run(g: Graph, search, budget: SearchBudget | None = None):
    """The run of ``search`` on g, with its incumbent list as certificate."""
    return _solve(_masks(_neighbors(g)), g.vertices, budget, search, lambda labels, best: list(best))


def test_tds_search_matches_reference():
    fewer = 0
    for idx, g in enumerate(TDS_GRAPHS):
        got, want = _run(g, _tds_search), _run(g, tds_search_reference)
        assert got.proven_optimal and want.proven_optimal, idx
        assert got.certificate == want.certificate, idx
        assert got.nodes_explored <= want.nodes_explored, (idx, got.nodes_explored, want.nodes_explored)
        fewer += got.nodes_explored < want.nodes_explored
    assert len(TDS_GRAPHS) == 853 and fewer >= 40


@pytest.mark.parametrize("max_nodes", [3, 50])
def test_budgeted_tds_search_no_worse_than_reference(max_nodes):
    """The table only skips subtrees, so a budgeted run gets at least as far
    through the reference's search order: its incumbent is no larger and a
    proof the reference completes within the budget is never lost."""
    gained = 0
    for idx, g in enumerate(TDS_GRAPHS):
        budget = SearchBudget(max_nodes=max_nodes)
        got, want = _run(g, _tds_search, budget), _run(g, tds_search_reference, budget)
        assert got.value <= want.value, idx
        assert got.proven_optimal or not want.proven_optimal, idx
        gained += got.proven_optimal and not want.proven_optimal
    assert gained == (0 if max_nodes == 3 else 4)


def test_tds_search_with_tiny_table_matches_reference(monkeypatch):
    """A full table stops recording but keeps its entries: the incumbents
    stay the reference's, in no fewer nodes than with the whole table and no
    more than without one."""
    graphs = [t.total_graph(t.cycle(35))[0], *(t.total_graph(g)[0] for g in POOL_GRAPHS[:50])]
    whole = [_run(g, _tds_search) for g in graphs]
    monkeypatch.setattr("tdtc.solvers._TDS_MEMO_CAP", 4)
    capped = [_run(g, _tds_search) for g in graphs]
    for idx, (g, full_table, got) in enumerate(zip(graphs, whole, capped)):
        want = _run(g, tds_search_reference)
        assert got.proven_optimal and got.certificate == want.certificate == full_table.certificate, idx
        assert full_table.nodes_explored <= got.nodes_explored <= want.nodes_explored, idx
    # T(C_35): 4,973 nodes with the whole table, 116,178 without one
    assert whole[0].nodes_explored < capped[0].nodes_explored < 116_178


# T(C_n) and T(P_n) past the n <= 20 of TDS_GRAPHS; T(C_60) takes 178,029 nodes
FAMILY_TDS_GRAPHS = [
    t.total_graph(t.FamilyInstance(family, n).graph())[0] for family in ("cycle", "path") for n in range(21, 61)
]


@pytest.mark.parametrize("mode", [None, 3, 50, "tiny table"])
def test_tds_search_matches_scan(mode, monkeypatch, random_corpus, exhaustive_connected_upto5):
    """The bit planes pick the branch vertex the scan picks, so every run is
    the scan's: the same incumbent lists, node counts and proven flags,
    unbudgeted, under 3- and 50-node budgets, and with a 4-entry table.  The
    last runs under a 2,000-node budget: with a tiny table T(C_49) alone
    takes the table-free search's millions of nodes."""
    max_nodes = mode
    if mode == "tiny table":
        monkeypatch.setattr("tdtc.solvers._TDS_MEMO_CAP", 4)
        max_nodes = 2_000
    budget = None if max_nodes is None else SearchBudget(max_nodes=max_nodes)
    graphs = [*TDS_GRAPHS, *random_corpus, *exhaustive_connected_upto5, *FAMILY_TDS_GRAPHS]
    for idx, g in enumerate(graphs):
        got, want = _run(g, _tds_search, budget), _run(g, tds_search_scan, budget)
        assert (got.certificate, got.nodes_explored, got.proven_optimal) == (
            want.certificate, want.nodes_explored, want.proven_optimal), idx
    assert len(graphs) == 1904


def test_greedy_tds_matches_scan_on_corpora(random_corpus, exhaustive_connected_upto5):
    graphs = [*TDS_GRAPHS, *random_corpus, *exhaustive_connected_upto5]
    for idx, g in enumerate(graphs):
        adj = _masks(_neighbors(g))
        assert _greedy_tds(adj) == greedy_tds_scan(adj), idx


# every n up to 60, then a stride coprime to the period 7 of the formulas,
# since the scan is quadratic (about 13 s for every n up to 300)
@pytest.mark.parametrize("family", ["cycle", "path"])
def test_greedy_tds_matches_scan_on_family_total_graphs(family):
    for n in [*range(2, 61), *range(61, 300, 11), 300]:
        if family == "cycle" and n < 3:
            continue
        adj = _masks(_neighbors(t.total_graph(t.FamilyInstance(family, n).graph())[0]))
        assert _greedy_tds(adj) == greedy_tds_scan(adj), n


def test_greedy_independent_matches_scan(random_corpus, exhaustive_connected_upto5):
    """Equal pick lists, so the heap breaks ties on the lowest index exactly
    as the scan does; the total graphs of cycles and paths are all ties."""
    graphs = [
        *random_corpus,
        *exhaustive_connected_upto5,
        *(t.total_graph(t.cycle(n))[0] for n in range(3, 61)),
        *(t.total_graph(t.path(n))[0] for n in range(2, 61)),
    ]
    for idx, g in enumerate(graphs):
        adj = _masks(_neighbors(g))
        assert _greedy_independent(adj) == greedy_independent_scan(adj), idx


@pytest.mark.parametrize("max_nodes", [None, 3, 50])
def test_mis_search_matches_reference(max_nodes, random_corpus, exhaustive_connected_upto5):
    """One reduction rule takes the same vertices in the same order as the
    three cases it replaces, and its one scan takes them in the order of a
    rescan from the lowest free vertex after each take, so every run is
    the reference's and the rescan's, node for node."""
    graphs = [
        *random_corpus,
        *exhaustive_connected_upto5,
        *RANDOM_GRAPHS,
        *(t.total_graph(g)[0] for g in RANDOM_GRAPHS),
        *(t.total_graph(t.cycle(n))[0] for n in range(3, 26)),
        *(t.total_graph(t.path(n))[0] for n in range(2, 26)),
    ]
    budget = None if max_nodes is None else SearchBudget(max_nodes=max_nodes)
    for idx, g in enumerate(graphs):
        runs = [_run(g, search, budget) for search in (_mis_search, mis_search_reference, mis_search_rescan)]
        got, want, former = [(r.certificate, r.nodes_explored, r.proven_optimal) for r in runs]
        assert got == want == former, idx
    assert len(graphs) == 1818


@pytest.mark.parametrize("family, n", [("cycle", 200), ("path", 201), ("cycle", 500)])
def test_mis_search_matches_rescan_on_long_families(family, n):
    """On T(C_n) and T(P_n) the reductions take hundreds of vertices at a
    node, and the scan that resumes after each take makes the rescan's
    picks: the same set in the same few nodes."""
    g = t.total_graph(t.FamilyInstance(family, n).graph())[0]
    got, former = _run(g, _mis_search), _run(g, mis_search_rescan)
    assert (got.certificate, got.nodes_explored, got.proven_optimal) == (
        former.certificate, former.nodes_explored, former.proven_optimal)


# the runs of each mixed solver, of 990, left unproven by 3 and by 2,000 nodes
MIXED_UNPROVEN = {
    t.mixed_independence_number: (393, 0),
    t.total_mixed_domination_number: (575, 4),
    t.total_chromatic_number: (810, 17),
    t.tdtc_number: (962, 40),
}


@pytest.mark.parametrize("max_nodes", [3, 2000])
@pytest.mark.parametrize("solve", list(MIXED_UNPROVEN), ids=lambda solve: solve.__name__)
def test_mixed_solvers_match_total_graph_route(solve, max_nodes, random_corpus, exhaustive_connected_upto5):
    """Each mixed solver gives what its search gave on the graph of
    ``total_graph``: the same value, certificate, node count and proven
    flag, on the corpora, C_3..C_11 and P_2..P_11, under budgets that end
    some of the searches and not others."""
    graphs = [*random_corpus, *exhaustive_connected_upto5, *(t.cycle(n) for n in range(3, 12)),
              *(t.path(n) for n in range(2, 12))]
    budget = SearchBudget(max_nodes=max_nodes)
    unproven = 0
    for idx, g in enumerate(graphs):
        got, want = solve(g, budget), mixed_solve_reference(solve, g, budget)
        assert (got.value, got.certificate, got.nodes_explored, got.proven_optimal) == (
            want.value, want.certificate, want.nodes_explored, want.proven_optimal), idx
        unproven += not got.proven_optimal
    assert len(graphs) == 990
    assert unproven == MIXED_UNPROVEN[solve][max_nodes != 3]


def _tdc_from_tds_matches_reference(g: Graph, s: frozenset) -> tuple[bool, bool]:
    """Assert that ``tdc_from_tds`` gives the reference's coloring, class
    for class; returns whether g - s is disconnected and whether coloring
    it ran the level search."""
    got = t.tdc_from_tds(g, s)
    assert got.classes == tdc_from_tds_reference(g, s).classes, (g, s)
    sub, _ = induced_subgraph(g, frozenset(g.vertices) - s)
    return len(_components(_neighbors(sub))) > 1, t.chromatic_number(sub).nodes_explored > 0


@pytest.mark.parametrize("family", ["cycle", "path"])
def test_tdc_from_tds_matches_reference_on_family_total_graphs(family):
    """T(C_n) and T(P_n) less the minimum total mixed dominating set that
    ``tdtc_certificate`` colors the rest of, for every n up to 300; up to
    60, the coloring of that rest matches the bit-mask reference too."""
    remainders = []
    for n in range(3 if family == "cycle" else 2, 301):
        tg, labels = t.total_graph(t.FamilyInstance(family, n).graph())
        index = label_index(labels)
        s = frozenset(index[o] for o in t.min_tmds(family, n))
        _tdc_from_tds_matches_reference(tg, s)
        if n <= 60:
            remainders.append(induced_subgraph(tg, frozenset(tg.vertices) - s)[0])
    _assert_chromatic_matches_reference(remainders)


def _hub(g: Graph) -> tuple[Graph, frozenset]:
    """g with two new adjacent vertices, the first adjacent to every vertex
    of g, and those two as a total dominating set whose remainder is g."""
    a, b = g.n + 1, g.n + 2
    return Graph(g.n + 2, [*g.edges, (a, b), *((v, a) for v in g.vertices)]), frozenset({a, b})


def test_tdc_from_tds_matches_reference_on_corpora(random_corpus, exhaustive_connected_upto5):
    """From greedy and from minimum total dominating sets, on remainders
    that are connected and disconnected, colored greedily and by search;
    and on the Grotzsch graph and C_5 beside C_7, each the remainder of a
    hub, which search two levels and two components."""
    graphs = [*random_corpus, *exhaustive_connected_upto5,
              *(g for g in RANDOM_GRAPHS if g.n and min(map(len, g.adj.values()), default=0) >= 1)]
    seen = {"disconnected": 0, "searched": 0}
    for g in graphs:
        greedy = frozenset(v + 1 for v in _greedy_tds(_masks(_neighbors(g))))
        for s in (greedy, t.total_domination_number(g).certificate):
            disconnected, searched = _tdc_from_tds_matches_reference(g, s)
            seen["disconnected"] += disconnected
            seen["searched"] += searched
    assert len(graphs) == 1187 and seen["disconnected"] >= 1000 and seen["searched"] >= 10, seen
    c5_c7 = Graph(12, [*t.cycle(5).edges, *((i + 5, j + 5) for i, j in t.cycle(7).edges)])
    for g in (Graph(11, GROTZSCH), c5_c7):
        assert _tdc_from_tds_matches_reference(*_hub(g)) == (g is c5_c7, True)


# The set holding a string prints in an order that depends on the string
# hash seed, so its case gets a fixed id.
@pytest.mark.parametrize(
    "s",
    [{1}, {2}, {0, 2, 3}, pytest.param({"v2", 3}, id="{'v2', 3}"), {(2,), 3}, {2.0, 3}, {True, 2}],
    ids=str,
)
def test_tdc_from_tds_rejects_as_reference(s):
    """The same DomainError message for a set that leaves a vertex
    uncovered or holds a non-vertex, a bool or a float equal to a vertex
    id among them."""
    g = t.path(4)
    try:
        want = tdc_from_tds_reference(g, s)
    except t.DomainError as exc:
        with pytest.raises(t.DomainError) as info:
            t.tdc_from_tds(g, s)
        assert str(info.value) == str(exc)
    else:
        assert t.tdc_from_tds(g, s).classes == want.classes


# ---------------------------------------------------------------------------
# Certificate checks against their former neighbour-map bodies
# ---------------------------------------------------------------------------

# the checks of each certificate shape, by universe
CHECKS = {
    (True, "coloring"): (t.is_tdtc, t.is_proper_total_coloring),
    (True, "set"): (t.is_total_mixed_dominating_set, t.is_mixed_independent_set),
    (False, "coloring"): (t.is_tdc, t.is_proper_coloring),
    (False, "set"): (t.is_total_dominating_set, t.is_independent_set),
}


def _outcome(check, g: Graph, cert):
    """What ``check`` gives on cert: its value, a report as its fields, or
    the type and message of what it raised."""
    try:
        out = check(g, cert)
    except Exception as exc:  # any type: the two bodies must raise the same one
        return type(exc), str(exc)
    return _fields(out) if isinstance(out, t.DominationReport) else out


def _mutations(rng: random.Random, g: Graph, cert, mixed: bool) -> list:
    """``cert`` and its mutations: two classes merged, a class or a member
    dropped, a member of no universe added, and a member replaced by the
    plain tuple that equals it."""
    foreign = Edge(1, g.n + 1) if mixed else g.n + 1
    if isinstance(cert, Coloring):
        classes = list(cert.classes)
        k = rng.randrange(len(classes))
        x = rng.choice(sorted(classes[k], key=tdtc.verify._order))
        impostor = tuple(x) if mixed else (x,)
        out = [cert, Coloring((*classes, frozenset([foreign]))),
               Coloring((*classes[:k], classes[k] - {x} | {impostor}, *classes[k + 1:]))]
        if len(classes[k]) > 1:
            out.append(Coloring((*classes[:k], classes[k] - {x}, *classes[k + 1:])))
        if len(classes) > 1:
            a, b = rng.sample(range(len(classes)), 2)
            out.append(Coloring((classes[a] | classes[b], *(c for i, c in enumerate(classes) if i not in (a, b)))))
            out.append(Coloring((*classes[:k], *classes[k + 1:])))
        return out
    members = sorted(cert, key=tdtc.verify._order)
    x = rng.choice(members)
    return [cert, cert - {x}, cert | {foreign}, cert - {x} | {tuple(x) if mixed else (x,)}]


def _assert_checks_match_former(rng: random.Random, g: Graph, certs: list, mixed: bool, every: bool = True) -> int:
    """Assert that each check of each certificate's shape, on it and on its
    mutations, every one or one drawn at random, gives what its former body
    gives; returns the count of checks."""
    count = 0
    for cert in certs:
        shape = "coloring" if isinstance(cert, Coloring) else "set"
        cert, *mutated = _mutations(rng, g, cert, mixed)
        for c in [cert, *(mutated if every else [rng.choice(mutated)])]:
            for check in CHECKS[mixed, shape]:
                assert _outcome(check, g, c) == _outcome(FORMER_CHECKS[check], g, c), (check.__name__, g, c)
                count += 1
    return count


@pytest.mark.parametrize("family", ["cycle", "path"])
def test_checks_match_former_bodies_on_families(family):
    """The mixed certificates of C_n and P_n for n = 3..100 and 1000, and
    their images on the total graph in the vertex universe."""
    rng = random.Random(f"{family}-checks")
    for n in [*range(3, 101), 1000]:
        g = t.FamilyInstance(family, n).graph()
        certs = [t.tdtc_certificate(family, n), t.min_tmds(family, n), t.max_mixed_independent_set(family, n)]
        _assert_checks_match_former(rng, g, certs, mixed=True)
        if n <= 100:
            tg, labels = t.total_graph(g)
            index = label_index(labels)
            images = [relabel(certs[0], index), *(frozenset(map(index.__getitem__, s)) for s in certs[1:])]
            _assert_checks_match_former(rng, tg, images, mixed=False)


def test_checks_match_former_bodies_on_solver_certificates(random_corpus, exhaustive_connected_upto5):
    """The certificates of the eight solvers, each run to 500 nodes, on
    the corpora, each with one of its mutations."""
    rng = random.Random(1028)
    budget = SearchBudget(max_nodes=500)
    vertex_solvers = (t.chromatic_number, t.total_dominator_chromatic_number, t.total_domination_number,
                      t.independence_number)
    mixed_solvers = (t.total_chromatic_number, t.tdtc_number, t.total_mixed_domination_number,
                     t.mixed_independence_number)
    count = 0
    for g in [*random_corpus, *exhaustive_connected_upto5]:
        for solvers, mixed in ((vertex_solvers, False), (mixed_solvers, True)):
            certs = [solve(g, budget).certificate for solve in solvers]
            count += _assert_checks_match_former(rng, g, certs, mixed, every=False)
    assert count == 971 * 8 * 2 * 2, count


def _run_every_check(cases: list) -> list:
    """The outcome of every check of each (graph, certificate, universe)
    case's shape."""
    return [
        _outcome(check, g, cert)
        for g, cert, mixed in cases
        for check in CHECKS[mixed, "coloring" if isinstance(cert, Coloring) else "set"]
    ]


def test_checks_build_no_neighbor_map_of_another_route(monkeypatch):
    """No check builds ``mixed_neighbors`` or a search's neighbour lists:
    with each of them raising, every check gives what it gave before, on
    the certificates of C_12, in both universes, and on their mutations."""
    rng = random.Random(12)
    g = t.cycle(12)
    tg, labels = t.total_graph(g)
    index = label_index(labels)
    certs = [t.tdtc_certificate("cycle", 12), t.min_tmds("cycle", 12), t.max_mixed_independent_set("cycle", 12)]
    images = [relabel(certs[0], index), *(frozenset(map(index.__getitem__, s)) for s in certs[1:])]
    cases = [(g, c, True) for cert in certs for c in _mutations(rng, g, cert, True)]
    cases += [(tg, c, False) for cert in images for c in _mutations(rng, tg, cert, False)]
    want = _run_every_check(cases)

    def forbidden(*args):
        raise AssertionError("a check read another route's neighbour map")

    for module, name in ((tdtc.graphs, "mixed_neighbors"), (tdtc.graphs, "_total_neighbors"),
                         (tdtc.graphs, "_total_numbering"), (tdtc.solvers, "_neighbors"),
                         (tdtc.verify, "mixed_neighbors"), (tdtc.verify, "_neighbors")):
        monkeypatch.setattr(module, name, forbidden, raising=False)
    assert _run_every_check(cases) == want
