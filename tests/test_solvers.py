from itertools import combinations

import pytest

import tdtc as t
from oracles import brute_alpha, brute_chi, brute_chi_t_d, brute_gamma_t, total_mixed_domination_number_direct
from tdtc import Coloring, DomainError, Graph, SearchBudget


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
        assert t.independence_number(t.total_graph(t.cycle(6)).graph).value == 4

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
        tg = t.total_graph(t.cycle(7))
        s = tg.to_vertex_ids(t.min_tmds("cycle", 7))
        sub, _ = t.induced_subgraph(tg.graph, set(tg.graph.vertices) - s)
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
        assert t.total_domination_number(t.total_graph(t.cycle(7)).graph).value == 4

    def test_isolated_vertex_rejected(self):
        with pytest.raises(DomainError):
            t.total_domination_number(Graph(3, [(1, 2)]))


def _assert_pruning_sound(solve, g):
    """Pruning cuts only infeasible subtrees of the same search: the value
    and the certificate, class order included, match the search that checks
    completed assignments only, and no node is added."""
    pruned = solve(g, prune=True)
    plain = solve(g, prune=False)
    assert pruned.value == plain.value
    assert pruned.certificate == plain.certificate
    assert pruned.nodes_explored <= plain.nodes_explored


class TestTotalDominatorChromatic:
    def test_k3(self):
        r = t.total_dominator_chromatic_number(complete(3))
        assert r.value == 3
        assert t.is_tdc(complete(3), r.certificate).valid

    def test_total_of_p4(self):
        tg = t.total_graph(t.path(4))
        r = t.total_dominator_chromatic_number(tg.graph)
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

    # C_7 and P_8 take 1.2 s and 8 s with pruning off
    @pytest.mark.parametrize(
        "family,n", [("cycle", n) for n in range(3, 7)] + [("path", n) for n in range(2, 8)],
    )
    def test_pruning_soundness_tdtc_number(self, family, n):
        _assert_pruning_sound(t.tdtc_number, t.FamilyInstance(family, n).graph())


class TestMixedInvariants:
    def test_alpha_mix_examples(self):
        assert t.mixed_independence_number(t.cycle(3)).value == 2
        assert t.mixed_independence_number(t.path(3)).value == 2
        assert t.mixed_independence_number(t.path(2)).value == 1

    def test_alpha_mix_equals_alpha_of_total_graph(self):
        for g in (t.path(5), t.cycle(6), STAR_K13):
            assert (
                t.mixed_independence_number(g).value
                == t.independence_number(t.total_graph(g).graph).value
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
        if g.min_degree < 1:
            pytest.skip("needs positive minimum degree")
        direct = total_mixed_domination_number_direct(g)
        reduced = t.total_domination_number(t.total_graph(g).graph)
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
    regresses on any machine.  Each ceiling is about twice the count measured
    with the witness-capacity bound; without it C_10 took 464,504 nodes and
    P_11 184,158, and C_13 ended unproven at 12 after 300,000."""

    # (family, n, measured nodes, ceiling)
    PROVEN = [("cycle", 10, 3_587, 7_500), ("path", 11, 4_655, 9_500)]

    @pytest.mark.parametrize("family,n,measured,ceiling", PROVEN)
    def test_proven_within_ceiling(self, family, n, measured, ceiling):
        r = t.tdtc_number(t.FamilyInstance(family, n).graph())
        assert r.proven_optimal and r.value == t.chi_tt(family, n).value
        assert r.nodes_explored <= ceiling, f"{r.nodes_explored} nodes, {measured} measured"

    def test_c13_proven_within_frontier_budget(self):
        # measured: 59,715 nodes
        r = t.tdtc_number(t.cycle(13), SearchBudget(max_nodes=300_000))
        assert r.proven_optimal and r.value == 11

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
        if g.min_degree < 1:
            pytest.skip("needs positive minimum degree")
        assert t.total_domination_number(g).value == brute_gamma_t(g)

    @pytest.mark.parametrize("g", SMALL_CORPUS)
    def test_chi_t_d(self, g):
        if g.min_degree < 1:
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
        if g.min_degree < 1:
            pytest.skip("needs positive minimum degree")
        assert t.chromatic_number(g).value <= t.total_dominator_chromatic_number(g).value

    @pytest.mark.parametrize("g", SMALL_CORPUS)
    def test_upper_bound_tds_plus_chi(self, g):
        if g.min_degree < 1:
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
        g = t.total_graph(t.cycle(10)).graph
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

    def test_time_budget(self):
        r = t.tdtc_number(t.cycle(9), budget=SearchBudget(max_time=1e-9))
        assert not r.proven_optimal
        assert t.is_tdtc(t.cycle(9), r.certificate).valid

    def test_unbudgeted_results_proven(self):
        assert t.tdtc_number(t.path(5)).proven_optimal

    def test_nodes_and_elapsed_recorded(self):
        r = t.tdtc_number(t.cycle(5))
        assert r.nodes_explored > 0 and r.elapsed >= 0.0
