import json

import pytest

import tdtc as t
from oracles import objects_adjacent
from tdtc import DomainError, Edge, Graph, GraphParseError, Vertex


def complete(n):
    return Graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


STAR_K13 = Graph(4, [(1, 2), (1, 3), (1, 4)])


class TestFamilies:
    def test_cycle3_is_triangle(self):
        g = t.cycle(3)
        assert g.n == 3 and g.edges == frozenset({(1, 2), (2, 3), (1, 3)})

    def test_cycle5_two_regular(self):
        g = t.cycle(5)
        assert g.n == 5 and g.m == 5
        assert all(g.degree(v) == 2 for v in g.vertices)

    def test_cycle9_wrap_edge_canonical(self):
        assert (1, 9) in t.cycle(9).edges

    def test_path_basics(self):
        assert t.path(2).edges == frozenset({(1, 2)})
        assert t.path(4).m == 3
        g = t.path(7)
        assert g.min_degree == 1 and g.max_degree == 2

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_cycle_domain(self, n):
        with pytest.raises(DomainError):
            t.cycle(n)

    @pytest.mark.parametrize("n", [0, 1])
    def test_path_domain(self, n):
        with pytest.raises(DomainError):
            t.path(n)


class TestGraphType:
    def test_edge_canonicalization(self):
        g = Graph(3, [(2, 1), (3, 2)])
        assert g.edges == frozenset({(1, 2), (2, 3)})

    def test_rejects_self_loop(self):
        with pytest.raises(DomainError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            Graph(3, [(1, 4)])

    def test_adjacency(self):
        g = t.path(4)
        assert g.adj[2] == frozenset({1, 3})
        assert g.degree(1) == 1


class TestObjects:
    def test_edge_canonicalization_idempotent(self):
        assert Edge(4, 3) == Edge(3, 4)
        e = Edge(4, 3)
        assert (e.i, e.j) == (3, 4)

    def test_tokens_round_trip(self):
        for obj in (Vertex(3), Edge(3, 4), Edge(12, 1)):
            assert t.parse_object(t.format_object(obj)) == obj

    @pytest.mark.parametrize(
        "token", ["v", "e1", "e1_", "x3", "e2_2x", "v-1", "", "v0", "e2_2", "e0_3", None, 1, ["v1"]]
    )
    def test_bad_tokens(self, token):
        with pytest.raises(GraphParseError):
            t.parse_object(token)

    def test_object_order(self):
        objs = [Edge(1, 2), Vertex(5), Vertex(1), Edge(1, 9)]
        assert sorted(objs, key=t.object_key) == [Vertex(1), Vertex(5), Edge(1, 2), Edge(1, 9)]


class TestLineGraph:
    def test_line_of_path4_is_path3(self):
        lg, labels = t.line_graph(t.path(4))
        assert lg.edges == t.path(3).edges and lg.n == 3
        assert labels == (Edge(1, 2), Edge(2, 3), Edge(3, 4))

    def test_line_of_cycle5_is_a_5_cycle(self):
        lg, _ = t.line_graph(t.cycle(5))
        assert lg.n == 5 and lg.m == 5
        assert all(lg.degree(v) == 2 for v in lg.vertices)

    def test_line_of_star_is_triangle(self):
        # brute-force expectation: all three edges share the hub, so K_3
        lg, _ = t.line_graph(STAR_K13)
        assert lg.edges == complete(3).edges

    def test_line_of_edgeless(self):
        lg, labels = t.line_graph(Graph(3, []))
        assert lg.n == 0 and lg.m == 0 and labels == ()


class TestTotalGraph:
    def test_total_of_p2_is_k3(self):
        tg = t.total_graph(t.path(2))
        assert tg.graph.edges == complete(3).edges
        assert tg.labels == (Vertex(1), Vertex(2), Edge(1, 2))

    def test_total_of_c3_counts(self):
        tg = t.total_graph(t.cycle(3))
        assert tg.graph.n == 6 and tg.graph.m == 12
        assert all(tg.graph.degree(v) == 4 for v in tg.graph.vertices)

    @pytest.mark.parametrize("n", range(3, 12))
    def test_total_of_cycle_is_4_regular(self, n):
        tg = t.total_graph(t.cycle(n))
        assert all(tg.graph.degree(v) == 4 for v in tg.graph.vertices)

    @pytest.mark.parametrize(
        "g", [t.path(5), t.cycle(6), STAR_K13, complete(4), Graph(5, [(1, 2), (3, 4)])]
    )
    def test_order_size_and_degree_laws(self, g):
        tg = t.total_graph(g)
        lg, _ = t.line_graph(g)
        assert tg.graph.n == g.n + g.m
        assert tg.graph.m == 3 * g.m + lg.m
        for k, obj in enumerate(tg.labels, start=1):
            if isinstance(obj, Vertex):
                assert tg.graph.degree(k) == 2 * g.degree(obj.i)
            else:
                assert tg.graph.degree(k) == g.degree(obj.i) + g.degree(obj.j)

    @pytest.mark.parametrize("g", [t.path(5), t.cycle(6), STAR_K13])
    def test_contains_base_and_line_graph_as_induced(self, g):
        tg = t.total_graph(g)
        base_ids = {tg.index[Vertex(i)] for i in g.vertices}
        sub, old = t.induced_subgraph(tg.graph, base_ids)
        assert sub.edges == g.edges and old == tuple(g.vertices)

        lg, labels = t.line_graph(g)
        line_ids = {tg.index[e] for e in labels}
        sub, old = t.induced_subgraph(tg.graph, line_ids)
        remap = {tg.index[e]: k + 1 for k, e in enumerate(labels)}
        assert {(min(remap[old[i - 1]], remap[old[j - 1]]), max(remap[old[i - 1]], remap[old[j - 1]]))
                for i, j in sub.edges} == set(lg.edges)

    @pytest.mark.parametrize(
        "g",
        [
            t.path(6),
            t.cycle(7),
            STAR_K13,
            t.cycle(3),  # every pair of edges shares an endpoint, around the wrap
            Graph(4, [(1, 2), (2, 3)]),  # isolated vertex 4
            Graph(7, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (6, 7)]),  # two components
        ],
    )
    def test_mixed_neighbors_match_total_graph(self, g):
        tg = t.total_graph(g)
        mixed = t.mixed_neighbors(g)
        assert list(mixed) == list(t.mixed_objects(g))
        for obj, nbrs in mixed.items():
            assert tg.to_objects(tg.graph.adj[tg.index[obj]]) == nbrs
        # neighbor sets hold the key instances themselves
        key_of = {obj: obj for obj in mixed}
        assert all(key_of[u] is u for nbrs in mixed.values() for u in nbrs)

    def test_objects_adjacent_rules(self):
        nbrs = t.mixed_neighbors(t.cycle(4))
        assert Vertex(2) in nbrs[Vertex(1)]
        assert Vertex(3) not in nbrs[Vertex(1)]
        assert Edge(1, 4) in nbrs[Vertex(1)]
        assert Edge(2, 3) not in nbrs[Vertex(1)]
        assert Edge(2, 3) in nbrs[Edge(1, 2)]
        assert Edge(3, 4) not in nbrs[Edge(1, 2)]
        assert Edge(1, 2) not in nbrs[Edge(1, 2)]

    def test_objects_adjacent_oracle_matches_mixed_neighbors(self, random_corpus):
        for g in [t.cycle(4), STAR_K13, *random_corpus]:
            nbrs = t.mixed_neighbors(g)
            for a in nbrs:
                assert nbrs[a] == {b for b in nbrs if objects_adjacent(g, a, b)}, (g, a)


class TestInducedSubgraph:
    def test_cycle5_segment_is_path(self):
        sub, old = t.induced_subgraph(t.cycle(5), {1, 2, 3})
        assert sub.edges == frozenset({(1, 2), (2, 3)}) and old == (1, 2, 3)

    def test_identity(self):
        g = t.cycle(6)
        sub, old = t.induced_subgraph(g, set(g.vertices))
        assert sub == g and old == tuple(g.vertices)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            t.induced_subgraph(t.path(3), {1, 4})


class TestSerialization:
    def test_edge_list_round_trip(self):
        g = t.cycle(6)
        assert t.read_edge_list(t.write_edge_list(g)) == g

    def test_edge_list_reversed_pairs_canonicalized(self):
        g = t.read_edge_list("3 2\n2 1\n3 2\n")
        assert g.edges == frozenset({(1, 2), (2, 3)})

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "3\n",
            "3 2\n1 2\n",  # missing edge line
            "3 1\n1 1\n",  # self loop
            "3 1\n1 4\n",  # out of range
            "3 2\n1 2\n2 1\n",  # duplicate after canonicalization
            "x y\n",
            "3 1\n1 2 3\n",
        ],
    )
    def test_edge_list_errors(self, text):
        with pytest.raises(GraphParseError):
            t.read_edge_list(text)

    def test_dot_exports(self):
        dot = t.to_dot(t.path(3))
        assert '"v1" -- "v2";' in dot
        tdot = t.total_graph_to_dot(t.total_graph(t.path(3)))
        assert '"e2_3";' in tdot and '"v1" -- "e1_2";' in tdot

    def test_labels_json(self):
        tg = t.total_graph(t.path(3))
        data = json.loads(t.labels_to_json(tg))
        assert data["order"] == 5
        assert data["labels"]["4"] == "e1_2" and data["labels"]["1"] == "v1"
