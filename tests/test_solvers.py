import ast
import inspect
import time
from itertools import combinations
from pathlib import Path

import pytest

import tdtc as t
import tdtc.cli as cli
from oracles import (
    brute_alpha,
    brute_chi,
    brute_chi_t_d,
    brute_gamma_t,
    coloring_of_masks,
    label_index,
    masks_from_positions,
    position_masks,
    relabel,
    tdc_incumbent_reference,
    tdc_masks_reference,
    total_mixed_domination_number_direct,
)
from tdtc import DomainError, Graph, SearchBudget
from tdtc.solvers import _greedy_tds, _ktdc_feasible, _masks, _neighbors, _Search, _smallest_last


def complete(n):
    return Graph(n, list(combinations(range(1, n + 1), 2)))


STAR_K13 = Graph(4, [(1, 2), (1, 3), (1, 4)])
PAW = Graph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
BULL = Graph(5, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5)])
TWO_TRIANGLES = Graph(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])

# greedy seeds that the search beats only a node before its budget runs out:
# alpha(G7) = 3 is found at node 4, gamma_t(G6) = 2 at node 6
G7 = Graph(7, [(1, 2), (1, 4), (1, 5), (1, 6), (2, 3), (2, 5), (2, 7), (3, 6), (3, 7), (4, 5), (4, 7), (5, 6)])
G6 = Graph(6, [(1, 2), (1, 5), (2, 3), (2, 4), (3, 4), (3, 5), (4, 6), (5, 6)])

# Mycielski graph of C_5: triangle-free (omega = 2) with chi = 4 and
# chi_t^d = 5, so the chi_t^d level search starts two levels below chi.
# Too large for SMALL_CORPUS, whose oracles enumerate its set partitions.
GROTZSCH = Graph(11, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
                 + [(j, i + 5) for i in range(1, 6) for j in (i % 5 + 1, (i - 2) % 5 + 1)]
                 + [(i, 11) for i in range(6, 11)])

SMALL_CORPUS = [
    t.path(2), t.path(3), t.path(4), t.path(5), t.path(6),
    t.cycle(3), t.cycle(4), t.cycle(5), t.cycle(6),
    complete(4), STAR_K13, PAW, BULL, TWO_TRIANGLES,
]


class TestIndependence:
    def test_cycle5(self):
        r = t.independence_number(t.cycle(5))
        assert r.value == 2 and r.proven_optimal
        assert t.is_independent_set(t.cycle(5), r.certificate)[0]

    def test_k4(self):
        assert t.independence_number(complete(4)).value == 1

    def test_total_of_cycle6(self):
        assert t.independence_number(t.total_graph(t.cycle(6))[0]).value == 4

    def test_edgeless_and_empty(self):
        assert t.independence_number(Graph(4, [])).value == 4
        assert t.independence_number(Graph(0, [])).value == 0


class TestChromatic:
    def test_odd_cycle(self):
        r = t.chromatic_number(t.cycle(5))
        assert r.value == 3
        assert t.is_proper_coloring(t.cycle(5), r.certificate)[0]

    def test_bipartite_path(self):
        assert t.chromatic_number(t.path(6)).value == 2

    def test_remainder_of_block_set_is_3_colorable(self):
        # removing the periodic dominating set from the total graph of C_7
        # leaves a 3-chromatic remainder
        tg, labels = t.total_graph(t.cycle(7))
        index = label_index(labels)
        s = {index[o] for o in t.min_tmds("cycle", 7)}
        sub, _ = t.induced_subgraph(tg, set(tg.vertices) - s)
        assert t.chromatic_number(sub).value == 3

    def test_disconnected(self):
        r = t.chromatic_number(TWO_TRIANGLES)
        assert r.value == 3
        assert t.is_proper_coloring(TWO_TRIANGLES, r.certificate)[0]

    def test_empty(self):
        assert t.chromatic_number(Graph(0, [])).value == 0
        assert t.chromatic_number(Graph(3, [])).value == 1


class TestTotalDomination:
    def test_p4(self):
        r = t.total_domination_number(t.path(4))
        assert r.value == 2 and r.certificate == frozenset({2, 3})

    def test_k3(self):
        assert t.total_domination_number(complete(3)).value == 2

    def test_total_of_cycle7(self):
        assert t.total_domination_number(t.total_graph(t.cycle(7))[0]).value == 4

    def test_isolated_vertex_rejected(self):
        with pytest.raises(DomainError):
            t.total_domination_number(Graph(3, [(1, 2)]))


DOMINATION_SOLVERS = [
    t.total_domination_number, t.total_dominator_chromatic_number, t.total_mixed_domination_number, t.tdtc_number,
]
OTHER_SOLVERS = [t.independence_number, t.chromatic_number, t.mixed_independence_number, t.total_chromatic_number]
# a vertex isolated: a huge header with no edges, and v5 beside two edges
ISOLATED = ["600000 0\n", "5 2\n1 2\n3 4\n"]
# a triangle, P_4 and C_5
NO_ISOLATED = ["3 3\n1 2\n1 3\n2 3\n", "4 3\n1 2\n2 3\n3 4\n", "5 5\n1 2\n2 3\n3 4\n4 5\n1 5\n"]


@pytest.mark.parametrize(
    "text,solve",
    [(text, solve) for solve in DOMINATION_SOLVERS for text in ISOLATED + NO_ISOLATED]
    # the edgeless header only for the solvers that reject it: the set
    # searches take time quadratic in n there, about 5 s at 160000 vertices
    + [(text, solve) for solve in OTHER_SOLVERS for text in ISOLATED[1:] + NO_ISOLATED],
)
def test_too_few_edges_fail_before_adjacency_is_built(text, solve):
    """No solver builds ``Graph.adj``, the map the checks in ``verify``
    read, whether it rejects the graph or solves it: the searches run on
    their own neighbor lists.  The domination solvers' minimum-degree check
    counts the vertices the edges cover, so it rejects an isolated vertex
    without that map, and a header with a huge n and no edges costs
    nothing."""
    g = t.read_edge_list(text)
    if solve in DOMINATION_SOLVERS and text in ISOLATED:
        with pytest.raises(DomainError, match="requires positive minimum degree"):
            solve(g)
    else:
        solve(g)
    assert "adj" not in vars(g)


def test_chromatic_number_of_many_isolated_vertices_takes_seconds():
    """Coloring one component costs work in its own size: on 2*10^5
    isolated vertices, 2*10^5 components, it ends in about a second, where
    an array over every vertex allocated per component takes over a
    minute."""
    g = t.read_edge_list("200000 0\n")
    start = time.perf_counter()
    result = t.chromatic_number(g)
    assert time.perf_counter() - start < 20
    assert (result.value, result.proven_optimal) == (1, True)
    assert result.certificate.classes == (frozenset(g.vertices),)


def _assert_pruning_sound(solve, g):
    """Pruning cuts only infeasible subtrees of the same search: the value
    and the certificate, class order included, match the oracle's search
    that checks witnesses on completed assignments only, and no node is
    added.  ``solve`` is total_dominator_chromatic_number, or tdtc_number,
    whose reference runs on the total graph."""
    got = solve(g)
    h, labels = t.total_graph(g) if solve is t.tdtc_number else (g, None)
    search = _Search(None)
    want = coloring_of_masks(tdc_masks_reference(_masks(_neighbors(h)), search))
    if labels is not None:
        want = relabel(want, dict(enumerate(labels, 1)))
    assert got.value == want.num_classes
    assert got.certificate == want
    assert got.nodes_explored <= search.nodes


class TestTotalDominatorChromatic:
    def test_k3(self):
        r = t.total_dominator_chromatic_number(complete(3))
        assert r.value == 3
        assert t.is_tdc(complete(3), r.certificate).valid

    def test_total_of_p4(self):
        tg, _ = t.total_graph(t.path(4))
        r = t.total_dominator_chromatic_number(tg)
        assert r.value == 4

    def test_total_of_c9(self):
        r = t.tdtc_number(t.cycle(9))
        assert r.value == 8
        assert t.is_tdtc(t.cycle(9), r.certificate).valid

    def test_isolated_vertex_rejected(self):
        with pytest.raises(DomainError):
            t.total_dominator_chromatic_number(Graph(2, []))

    @pytest.mark.parametrize("g", [t.path(3), t.path(4), t.cycle(4), t.cycle(5), PAW, TWO_TRIANGLES, GROTZSCH])
    def test_pruning_soundness(self, g):
        _assert_pruning_sound(t.total_dominator_chromatic_number, g)

    def test_pruning_soundness_on_corpora(self, exhaustive_connected_upto5, random_corpus):
        for g in [*exhaustive_connected_upto5, *random_corpus]:
            _assert_pruning_sound(t.total_dominator_chromatic_number, g)

    # the reference takes 1.0 s on C_7 and 8 s on P_8
    @pytest.mark.parametrize(
        "family,n", [("cycle", n) for n in range(3, 7)] + [("path", n) for n in range(2, 8)],
    )
    def test_pruning_soundness_tdtc_number(self, family, n):
        _assert_pruning_sound(t.tdtc_number, t.FamilyInstance(family, n).graph())

    def test_value_never_above_greedy_incumbent(self, exhaustive_connected_upto5, random_corpus):
        """The exact total dominating set only replaces the greedy incumbent
        when its coloring is smaller: a run with no nodes returns the greedy
        incumbent, and a full run never does worse."""
        for idx, g in enumerate([*exhaustive_connected_upto5, *random_corpus]):
            adj = _masks(_neighbors(g))
            greedy = len(tdc_incumbent_reference(adj, _greedy_tds(adj)))
            starved = t.total_dominator_chromatic_number(g, SearchBudget(max_nodes=0))
            assert starved.value == greedy and not starved.proven_optimal, idx
            assert t.is_tdc(g, starved.certificate).valid, idx
            assert t.total_dominator_chromatic_number(g).value <= greedy, idx

    def test_levels_are_monotone(self, exhaustive_connected_upto5):
        """The lemma in ``_ktdc_feasible``: splitting a class keeps a total
        dominator coloring valid, so every class count from chi_t^d up to
        |V| is feasible, and exhausting the level below an incumbent proves
        it."""
        for idx, g in enumerate(exhaustive_connected_upto5):
            order = _smallest_last(_neighbors(g))
            adj = position_masks(_masks(_neighbors(g)), order)
            for k in range(t.total_dominator_chromatic_number(g).value, g.n + 1):
                found = _ktdc_feasible(adj, k, (1 << g.n) - 1, _Search(None))
                assert found is not None and len(found) == k and all(found), (idx, k)
                assert t.is_tdc(g, coloring_of_masks(masks_from_positions(found, order))).valid, (idx, k)


class TestMixedInvariants:
    def test_alpha_mix_examples(self):
        assert t.mixed_independence_number(t.cycle(3)).value == 2
        assert t.mixed_independence_number(t.path(3)).value == 2
        assert t.mixed_independence_number(t.path(2)).value == 1

    def test_alpha_mix_equals_alpha_of_total_graph(self):
        for g in (t.path(5), t.cycle(6), STAR_K13):
            assert (
                t.mixed_independence_number(g).value
                == t.independence_number(t.total_graph(g)[0]).value
            )

    def test_alpha_mix_certificate_is_mixed_independent(self):
        r = t.mixed_independence_number(t.cycle(6))
        assert t.is_mixed_independent_set(t.cycle(6), r.certificate)[0]

    def test_gamma_tm_examples(self):
        assert t.total_mixed_domination_number(t.path(2)).value == 2
        assert t.total_mixed_domination_number(t.cycle(5)).value == 4
        assert t.total_mixed_domination_number(t.path(7)).value == 4

    def test_gamma_tm_certificate_is_tmds(self):
        r = t.total_mixed_domination_number(t.cycle(6))
        assert t.is_total_mixed_dominating_set(t.cycle(6), r.certificate)[0]

    def test_direct_oracle_examples(self):
        assert len(total_mixed_domination_number_direct(t.path(4))) == 2
        assert len(total_mixed_domination_number_direct(t.cycle(4))) == 3

    @pytest.mark.parametrize("g", SMALL_CORPUS)
    def test_direct_matches_reduction(self, g):
        if min(map(len, g.adj.values()), default=0) < 1:
            pytest.skip("needs positive minimum degree")
        direct = total_mixed_domination_number_direct(g)
        reduced = t.total_domination_number(t.total_graph(g)[0])
        assert len(direct) == reduced.value
        assert t.is_total_mixed_dominating_set(g, direct)[0]

    def test_total_chromatic_examples(self):
        assert t.total_chromatic_number(t.path(2)).value == 3
        # brute-force-derived value: the total graph of the triangle is the
        # octahedron, whose chromatic number is 3
        assert t.total_chromatic_number(t.cycle(3)).value == 3
        assert t.total_chromatic_number(t.path(4)).value == 3

    def test_total_chromatic_certificate(self):
        r = t.total_chromatic_number(t.cycle(4))
        ok, _ = t.is_proper_total_coloring(t.cycle(4), r.certificate)
        assert ok

    def test_tdtc_number_examples(self):
        assert t.tdtc_number(t.path(2)).value == 3
        assert t.tdtc_number(t.cycle(6)).value == 6
        assert t.tdtc_number(t.path(8)).value == 7

    def test_tdtc_certificate_is_mixed_coloring(self):
        r = t.tdtc_number(t.path(5))
        report = t.is_tdtc(t.path(5), r.certificate)
        assert report.valid and r.certificate.num_classes == r.value

    @pytest.mark.parametrize(
        "family,n", [("cycle", 10), ("path", 9), ("path", 10)],
    )
    def test_tdtc_number_past_small_case_bound(self, family, n):
        # slower instances than the defaults, still under a second each
        assert t.tdtc_number(t.FamilyInstance(family, n).graph()).value == t.chi_tt(family, n).value


class TestNodeCountGate:
    """Node counts are deterministic, so a ceiling catches a search that
    regresses on any machine.  The chi_tt_d ceilings are about twice the
    counts measured with the witness-capacity bound and the incumbent built
    from an exact total dominating set, whose search nodes they include.
    Without the bound C_10 took 464,504 nodes and P_11 184,158, and C_13
    ended unproven at 12 after 300,000; from the greedy incumbent alone C_10
    took 3,587 nodes, P_11 4,655, C_13 59,715 and P_18 3,046,451, while P_14
    ended unproven at 12 after 300,000 and P_19 unproven at 15 after
    3,000,000.  The first two PROVEN rows keep the ceilings set from those
    greedy-incumbent counts, which every later search must stay within; the
    rows after them hold C_10 and P_11 to the tighter ceilings measured with
    the exact incumbent.  The gamma_tm ceilings are about twice the counts
    measured with the table of failed states; without it C_35 took 116,178
    nodes and C_38 245,839, and C_49 ended unproven at 30 after 2,000,000."""

    # (family, n, measured nodes, ceiling)
    PROVEN = [
        ("cycle", 10, 3_587, 7_500),
        ("path", 11, 4_655, 9_500),
        ("cycle", 10, 3_426, 7_000),
        ("path", 11, 491, 1_000),
        ("path", 18, 5_246, 10_500),
        ("path", 19, 204_596, 410_000),  # about 0.3 s
    ]
    GAMMA_TM = [
        ("cycle", 35, 4_973, 10_000),
        ("cycle", 38, 10_137, 20_000),
        ("cycle", 70, 212_339, 425_000),  # about 0.5 s
    ]

    @pytest.mark.parametrize("family,n,measured,ceiling", PROVEN)
    def test_proven_within_ceiling(self, family, n, measured, ceiling):
        r = t.tdtc_number(t.FamilyInstance(family, n).graph())
        assert r.proven_optimal and r.value == t.chi_tt(family, n).value
        assert r.nodes_explored <= ceiling, f"{r.nodes_explored} nodes, {measured} measured"

    @pytest.mark.parametrize("family,n,measured,ceiling", GAMMA_TM)
    def test_gamma_tm_within_ceiling(self, family, n, measured, ceiling):
        r = t.total_mixed_domination_number(t.FamilyInstance(family, n).graph())
        assert r.proven_optimal and r.value == t.gamma_tm(family, n).value
        assert r.nodes_explored <= ceiling, f"{r.nodes_explored} nodes, {measured} measured"

    def test_c49_gamma_tm_proven_within_budget(self):
        # measured: 25,336 nodes
        r = t.total_mixed_domination_number(t.cycle(49), SearchBudget(max_nodes=50_000))
        assert r.proven_optimal and r.value == 28

    def test_c13_proven_within_frontier_budget(self):
        # measured: 57,613 nodes
        r = t.tdtc_number(t.cycle(13), SearchBudget(max_nodes=300_000))
        assert r.proven_optimal and r.value == 11

    def test_p14_proven_within_frontier_budget(self):
        # measured: 5,142 nodes
        r = t.tdtc_number(t.path(14), SearchBudget(max_nodes=300_000))
        assert r.proven_optimal and r.value == 11
        assert r.nodes_explored <= 10_500, f"{r.nodes_explored} nodes, 5,142 measured"

    def test_grotzsch_chi_within_ceiling(self):
        # measured: 170 nodes
        r = t.chromatic_number(GROTZSCH)
        assert r.proven_optimal and r.value == 4
        assert r.nodes_explored <= 340, f"{r.nodes_explored} nodes, 170 measured"

    def test_grotzsch_total_chi_within_ceiling(self):
        # measured: 145 nodes
        r = t.total_chromatic_number(GROTZSCH)
        assert r.proven_optimal and r.value == 6
        assert r.nodes_explored <= 300, f"{r.nodes_explored} nodes, 145 measured"

    def test_grotzsch_levels_below_chi_refuted_in_search(self):
        # measured: 62 nodes; 228 when an exact chromatic solve picked the
        # first level
        r = t.total_dominator_chromatic_number(GROTZSCH)
        assert r.proven_optimal and r.value == 5
        assert r.nodes_explored <= 120, f"{r.nodes_explored} nodes, 62 measured"


class TestAgainstBruteForce:
    @pytest.mark.parametrize("g", SMALL_CORPUS)
    def test_alpha(self, g):
        assert t.independence_number(g).value == brute_alpha(g)

    @pytest.mark.parametrize("g", SMALL_CORPUS)
    def test_chi(self, g):
        assert t.chromatic_number(g).value == brute_chi(g)

    @pytest.mark.parametrize("g", SMALL_CORPUS)
    def test_gamma_t(self, g):
        if min(map(len, g.adj.values()), default=0) < 1:
            pytest.skip("needs positive minimum degree")
        assert t.total_domination_number(g).value == brute_gamma_t(g)

    @pytest.mark.parametrize("g", SMALL_CORPUS)
    def test_chi_t_d(self, g):
        if min(map(len, g.adj.values()), default=0) < 1:
            pytest.skip("needs positive minimum degree")
        assert t.total_dominator_chromatic_number(g).value == brute_chi_t_d(g)

    def test_eight_vertex_instance(self):
        g = t.cycle(8)
        assert t.independence_number(g).value == brute_alpha(g)
        assert t.chromatic_number(g).value == brute_chi(g)
        assert t.total_domination_number(g).value == brute_gamma_t(g)
        assert t.total_dominator_chromatic_number(g).value == brute_chi_t_d(g)


class TestBoundsAndProperties:
    @pytest.mark.parametrize("g", [*SMALL_CORPUS, GROTZSCH])
    def test_sandwich_chi_below_chi_t_d(self, g):
        if min(map(len, g.adj.values()), default=0) < 1:
            pytest.skip("needs positive minimum degree")
        assert t.chromatic_number(g).value <= t.total_dominator_chromatic_number(g).value

    @pytest.mark.parametrize("g", SMALL_CORPUS)
    def test_upper_bound_tds_plus_chi(self, g):
        if min(map(len, g.adj.values()), default=0) < 1:
            pytest.skip("needs positive minimum degree")
        chi_t_d = t.total_dominator_chromatic_number(g).value
        assert chi_t_d <= t.total_domination_number(g).value + t.chromatic_number(g).value


class TestDeterminismAndBudget:
    @pytest.mark.parametrize(
        "solve",
        [
            t.independence_number,
            t.chromatic_number,
            t.total_domination_number,
            t.total_dominator_chromatic_number,
            t.total_mixed_domination_number,
            t.tdtc_number,
        ],
    )
    def test_repeat_runs_identical(self, solve):
        g = t.cycle(6)
        a, b = solve(g), solve(g)
        assert a.value == b.value
        assert a.certificate == b.certificate
        assert a.nodes_explored == b.nodes_explored

    def test_node_budget_flags_result(self):
        r = t.tdtc_number(t.cycle(9), budget=SearchBudget(max_nodes=5))
        assert not r.proven_optimal and r.nodes_explored == 5
        assert r.value >= 8  # true optimum; the flagged value is an upper bound
        assert t.is_tdtc(t.cycle(9), r.certificate).valid
        assert r.certificate.num_classes == r.value

    def test_budget_exhausted_alpha_certificate_still_verifies(self):
        g = t.total_graph(t.cycle(10))[0]
        r = t.independence_number(g, budget=SearchBudget(max_nodes=2))
        assert not r.proven_optimal
        assert t.is_independent_set(g, r.certificate)[0]

    def test_exhausted_alpha_returns_best_set_found(self):
        r = t.independence_number(G7, budget=SearchBudget(max_nodes=4))
        assert not r.proven_optimal and r.value == 3
        assert t.is_independent_set(G7, r.certificate) == (True, None)

    def test_exhausted_gamma_t_returns_best_set_found(self):
        r = t.total_domination_number(G6, budget=SearchBudget(max_nodes=6))
        assert not r.proven_optimal and r.value == 2
        assert t.is_total_dominating_set(G6, r.certificate) == (True, ())

    def test_budget_spent_in_gamma_t_search_returns_greedy_incumbent(self):
        # the exact total domination search of T(P_14) takes 108 nodes
        r = t.tdtc_number(t.path(14), budget=SearchBudget(max_nodes=50))
        assert not r.proven_optimal and r.nodes_explored == 50
        assert r.value == 12
        assert t.is_tdtc(t.path(14), r.certificate).valid

    def test_time_budget(self):
        r = t.tdtc_number(t.cycle(9), budget=SearchBudget(max_time=1e-9))
        assert not r.proven_optimal
        assert t.is_tdtc(t.cycle(9), r.certificate).valid

    @pytest.mark.parametrize(
        "field,value",
        [("max_nodes", -5), ("max_nodes", -1), ("max_time", -1.0), ("max_time", float("nan"))],
        ids=["nodes-5", "nodes-1", "time-1", "time-nan"],
    )
    def test_bad_budget_rejected(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be non-negative"):
            SearchBudget(**{field: value})

    def test_zero_and_unbounded_budgets_accepted(self):
        assert not t.chromatic_number(t.cycle(9), SearchBudget(max_nodes=0)).proven_optimal
        assert t.tdtc_number(t.cycle(5), SearchBudget(max_nodes=None, max_time=float("inf"))).proven_optimal

    def test_unbudgeted_results_proven(self):
        assert t.tdtc_number(t.path(5)).proven_optimal

    def test_nodes_and_elapsed_recorded(self):
        r = t.tdtc_number(t.cycle(5))
        assert r.nodes_explored > 0 and r.elapsed >= 0.0


def test_public_solvers_take_graph_and_budget_only():
    """Every solver the CLI dispatches to, and every other solver that tdtc
    exports, takes exactly (g, budget=None): how a search runs is not a
    caller's option."""
    exported = {f for f in vars(t).values() if inspect.isfunction(f) and f.__module__ == "tdtc.solvers"}
    assert len(exported) == 8
    positional = inspect.Parameter.POSITIONAL_OR_KEYWORD
    for solve in exported | {inv.solve for inv in cli.INVARIANTS.values()}:
        params = [(p.name, p.kind, p.default) for p in inspect.signature(solve).parameters.values()]
        assert params == [("g", positional, inspect.Parameter.empty), ("budget", positional, None)], solve.__name__


def _call_sites(hit) -> list[str]:
    """The scope (module, then enclosing functions, dotted) of each call in
    the library whose callee name ``hit(name, scope)`` accepts."""
    sites = []

    class Sites(ast.NodeVisitor):
        def __init__(self, module):
            self.scope = [module]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            func = node.func
            if hit(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None), self.scope):
                sites.append(".".join(self.scope))
            self.generic_visit(node)

    for path in sorted(Path(t.__file__).parent.glob("*.py")):
        Sites(path.stem).visit(ast.parse(path.read_text()))
    return sites


def test_invariant_result_built_only_in_solve():
    """Every solver's result comes out of one frame, ``solvers._solve``, so
    a field added to InvariantResult is filled in one place."""
    assert _call_sites(lambda name, scope: name == "InvariantResult") == ["solvers._solve"]


def test_solvers_never_build_the_total_graph():
    """The mixed solvers search the total graph's neighbor lists and map
    their answers through its labels: no library function builds bit masks
    from a graph's edge set, and only the export of ``--what total-graph``
    builds the total graph's edge set."""
    assert _call_sites(lambda name, scope: name == "_adj_masks") == []
    assert _call_sites(lambda name, scope: name == "total_graph") == ["cli.cmd_export"]


def test_no_recursion_in_library():
    """The searches run on explicit stacks: no function calls itself by
    name, so no depth of search needs a recursion limit, and nothing in the
    library changes the interpreter's."""
    assert _call_sites(lambda name, scope: name in (scope[-1], "setrecursionlimit")) == []


def test_imports_follow_the_layers():
    """Every import in the library sits at module top level, and each module
    imports only modules before it in graphs -> solvers -> verify ->
    closed_forms -> cli, with the package's ``__init__`` and ``__main__``
    after all of them, so the package has no import cycle."""
    layers = ("graphs", "solvers", "verify", "closed_forms", "cli", "__init__", "__main__")
    wrong = []
    for path in sorted(Path(t.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if node not in tree.body:
                wrong.append(f"{path.stem}:{node.lineno} imports below module top level")
            if isinstance(node, ast.ImportFrom) and node.level:
                below = layers[:layers.index(path.stem)]
                targets = [node.module] if node.module else [alias.name for alias in node.names]
                wrong += [f"{path.stem}:{node.lineno} imports {name}" for name in targets if name not in below]
    assert wrong == []


def test_no_self_check_vanishes_under_optimization():
    """The library holds no ``assert`` statement and reads no ``__debug__``:
    ``python -O`` drops asserts and makes ``__debug__`` false, so a check
    written either way would stop running there."""
    stripped = []
    for path in sorted(Path(t.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__"):
                stripped.append(f"{path.stem}:{node.lineno}")
    assert stripped == []


def test_no_message_repeats_a_raw_repr():
    """No f-string in a library ``raise`` uses ``!r``: a message shows a
    value it was given through ``graphs.quote_token`` or ``quote_list``,
    which bound its length, not through a repr as long as the input."""
    raw = []
    for path in sorted(Path(t.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                raw += [f"{path.stem}:{value.lineno}" for value in ast.walk(node)
                        if isinstance(value, ast.FormattedValue) and value.conversion == ord("r")]
    assert raw == []
