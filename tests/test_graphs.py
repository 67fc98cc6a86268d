import copy
import json
import pickle
from itertools import combinations

import pytest

import tdtc as t
from oracles import mixed_neighbors_reference, objects_adjacent
from tdtc import DomainError, Edge, Graph, GraphParseError, SearchBudget, Vertex
from tdtc.graphs import quote_list


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

    def test_rejects_negative_order(self):
        with pytest.raises(DomainError):
            Graph(-1, ())

    def test_empty_graph_degrees(self):
        g = Graph(0, ())
        assert g.min_degree == g.max_degree == 0

    def test_adjacency(self):
        g = t.path(4)
        assert g.adj[2] == frozenset({1, 3})
        assert g.degree(1) == 1


HUGE = 10 ** 3000  # 3,001 digits
HUGE_QUOTED = f"1{'0' * 39}... (3001 characters)"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Graph(3, [(1, HUGE)]), f"edge (1,{HUGE_QUOTED}) out of range for n=3"),
        (lambda: Graph(-HUGE, ()), f"vertex count must be >= 0, got -1{'0' * 38}... (3002 characters)"),
        (lambda: Edge(HUGE, HUGE), f"self-loop edge ({HUGE_QUOTED},{HUGE_QUOTED}) is not allowed"),
        (lambda: Vertex(-HUGE), f"vertex index must be >= 1, got -1{'0' * 38}... (3002 characters)"),
        (lambda: t.induced_subgraph(t.cycle(300), range(301, 700)),
         f"vertices {list(range(301, 311))} and 389 more out of range for n=300"),
        (lambda: t.FamilyInstance("f" * 5000, 5), f"unknown family {'f' * 40!r}... (5000 characters)"),
        (lambda: SearchBudget(max_nodes=-HUGE),
         f"max_nodes must be non-negative, got -1{'0' * 38}... (3002 characters)"),
    ],
    ids=["graph-edge", "graph-order", "edge", "vertex", "induced-subgraph", "family", "budget"],
)
def test_long_values_in_messages_are_quoted(make, message):
    """A DomainError shows a long value by its head and length, and a long
    list by 10 members and the count of the rest; each once printed it whole."""
    with pytest.raises(DomainError) as info:
        make()
    assert str(info.value) == message


class TestObjects:
    def test_edge_canonicalization_idempotent(self):
        assert Edge(4, 3) == Edge(3, 4)
        e = Edge(4, 3)
        assert (e.i, e.j) == (3, 4)

    def test_tokens_round_trip(self):
        for obj in (Vertex(3), Edge(3, 4), Edge(12, 1)):
            assert t.parse_object(t.format_object(obj)) == obj

    @pytest.mark.parametrize(
        "token", ["v", "e1", "e1_", "x3", "e2_2x", "v-1", "", "v0", "e2_2", "e0_3", None, 1, ["v1"],
                  # indices are ASCII digits, and only ASCII spaces surround a token
                  "v\u0663", "e\u0661_\u0662", "v\uff13", "e1_\u0662", "\u3000v3"]
    )
    def test_bad_tokens(self, token):
        with pytest.raises(GraphParseError):
            t.parse_object(token)

    def test_object_order(self):
        objs = [Edge(1, 2), Vertex(5), Vertex(1), Edge(1, 9)]
        assert sorted(objs, key=t.object_key) == [Vertex(1), Vertex(5), Edge(1, 2), Edge(1, 9)]

    def test_long_token_is_quoted_by_its_head_and_length(self):
        token = "v" + "1" * 5000
        with pytest.raises(GraphParseError) as info:
            t.parse_object(token)
        assert str(info.value).startswith(
            "bad object token 'v111111111111111111111111111111111111111'... (5001 characters): ")
        with pytest.raises(GraphParseError) as info:
            t.parse_object("x" * 41)
        assert str(info.value) == f"bad object token: {'x' * 40!r}... (41 characters)"
        with pytest.raises(GraphParseError) as info:
            t.parse_object("x" * 40)
        assert str(info.value) == f"bad object token: {'x' * 40!r}"
        with pytest.raises(GraphParseError) as info:
            t.parse_object(["v1"] * 100)
        assert str(info.value) == "bad object token: ['v1', 'v1', 'v1', 'v1', 'v1', 'v1', 'v1... (600 characters)"

    def test_quote_list_shows_ten_members_each_quoted(self):
        """Up to 10 members print as ``str`` prints the list; beyond, the
        count of the rest follows, and each member is cut as ``quote_token``
        cuts it."""
        assert quote_list([1, "v2", Vertex(3)]) == str([1, "v2", Vertex(3)])
        assert quote_list(list(range(10))) == str(list(range(10)))
        assert quote_list(list(range(12))) == f"{list(range(10))} and 2 more"
        assert quote_list(["x" * 41]) == f"[{'x' * 40!r}... (41 characters)]"


class TestObjectContract:
    """Vertex and Edge are tuples underneath, yet they keep the repr,
    messages, named fields, immutability and copying of value objects."""

    def test_repr(self):
        assert repr(Vertex(3)) == "Vertex(i=3)"
        assert repr(Edge(4, 3)) == "Edge(i=3, j=4)"
        assert str([Vertex(1), Edge(1, 2)]) == "[Vertex(i=1), Edge(i=1, j=2)]"

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: Vertex(0), "vertex index must be >= 1, got 0"),
            (lambda: Edge(2, 2), "self-loop edge (2,2) is not allowed"),
            (lambda: Edge(0, 3), "edge endpoints must be >= 1, got (0,3)"),
            (lambda: Edge(3, 0), "edge endpoints must be >= 1, got (0,3)"),
        ],
        ids=["vertex-zero", "self-loop", "edge-zero", "edge-zero-reversed"],
    )
    def test_domain_messages(self, make, message):
        with pytest.raises(DomainError) as info:
            make()
        assert str(info.value) == message

    def test_fields_and_canonical_edge(self):
        assert Vertex(i=3) == Vertex(3) and Vertex(3).i == 3
        assert Edge(i=2, j=1) == Edge(1, 2) == Edge(2, 1)
        e = Edge(3, 1)
        assert e == Edge(1, 3) and (e.i, e.j) == (1, 3)
        assert Vertex(1) != Edge(1, 2)
        assert len({Vertex(1), Vertex(1), Edge(1, 2), Edge(2, 1)}) == 2

    @pytest.mark.parametrize("obj", [Vertex(3), Edge(1, 3)], ids=repr)
    def test_immutable(self, obj):
        with pytest.raises(AttributeError):
            obj.i = 2
        with pytest.raises(AttributeError):
            obj.other = 2

    @pytest.mark.parametrize("obj", [Vertex(3), Edge(1, 3)], ids=repr)
    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, *(lambda o, p=p: pickle.loads(pickle.dumps(o, p))
                                     for p in range(pickle.HIGHEST_PROTOCOL + 1))],
        ids=["copy", "deepcopy", *(f"pickle-{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1))],
    )
    def test_copy_and_pickle_round_trip(self, obj, clone):
        back = clone(obj)
        assert back == obj and type(back) is type(obj) and repr(back) == repr(obj)


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

    @pytest.mark.parametrize(
        "g", [t.path(5), t.cycle(6), STAR_K13, complete(4), Graph(5, [(1, 2), (3, 4)]), Graph(6, [(2, 5), (1, 5)])]
    )
    def test_edges_are_adjacent_when_they_share_an_endpoint(self, g):
        edges = g.sorted_edges()
        lg, labels = t.line_graph(g)
        assert lg.n == g.m and labels == tuple(Edge(*e) for e in edges)
        assert lg.edges == {(a + 1, b + 1) for a, b in combinations(range(g.m), 2) if set(edges[a]) & set(edges[b])}


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


def _assert_as_checked(h: Graph) -> None:
    """``h`` is the graph the checking constructor builds from its own data,
    and its edges are canonical, in-range pairs of ints."""
    assert h == Graph(h.n, h.edges)
    assert type(h.edges) is frozenset
    assert all(type(e) is tuple and type(e[0]) is int and type(e[1]) is int and 1 <= e[0] < e[1] <= h.n
               for e in h.edges)


class TestLibraryBuiltGraphs:
    """``cycle``, ``path``, ``total_graph``, ``induced_subgraph`` and
    ``read_edge_list`` build their graphs without the checks of
    ``Graph(n, edges)``, and ``mixed_objects``/``mixed_neighbors`` build
    objects without those of ``Vertex``/``Edge``: each result must be what
    the checking constructors give."""

    def test_families(self):
        for n in range(3, 301):
            _assert_as_checked(t.cycle(n))
        for n in range(2, 301):
            _assert_as_checked(t.path(n))

    def test_total_graphs_and_induced_subgraphs(self, random_corpus, exhaustive_connected_upto5):
        for g in [*random_corpus, *exhaustive_connected_upto5, Graph(4, [(1, 2), (2, 3)]), Graph(3, [])]:
            tg = t.total_graph(g)
            _assert_as_checked(tg.graph)
            parts = [(g, set(g.vertices)), (g, set(g.vertices[::2])), (g, set(g.vertices[1:])),
                     (tg.graph, set(g.vertices)), (tg.graph, set(range(g.n + 1, tg.graph.n + 1)))]
            for base, keep in parts:
                sub, old = t.induced_subgraph(base, keep)
                _assert_as_checked(sub)
                assert {(old[i - 1], old[j - 1]) for i, j in sub.edges} == {
                    (i, j) for i, j in base.edges if i in keep and j in keep}

    def test_read_edge_list(self, random_corpus):
        for g in random_corpus:
            reversed_text = "".join(f"{j} {i}\n" for i, j in g.sorted_edges()[::-1])
            for text in (t.write_edge_list(g), f"{g.n} {g.m}\n{reversed_text}"):
                h = t.read_edge_list(text)
                _assert_as_checked(h)
                assert h == g

    def test_mixed_objects(self, random_corpus):
        for g in [*random_corpus, t.cycle(40), t.path(41), Graph(3, []), Graph(0, [])]:
            got = t.mixed_objects(g)
            want = tuple(Vertex(i) for i in g.vertices) + tuple(Edge(i, j) for i, j in g.sorted_edges())
            assert got == want
            assert [type(o) for o in got] == [type(o) for o in want]

    def test_mixed_neighbors_match_former_body(self, random_corpus, exhaustive_connected_upto5):
        """Keys in the same order, sets with the same members, every member
        an exact ``Vertex`` or ``Edge``.  A set's iteration order may differ:
        no output reads it."""
        families = [*(t.cycle(n) for n in range(3, 60)), *(t.path(n) for n in range(2, 60))]
        for g in [*random_corpus, *exhaustive_connected_upto5, *families, Graph(4, [(1, 2), (2, 3)]), Graph(3, [])]:
            got, want = t.mixed_neighbors(g), mixed_neighbors_reference(g)
            assert list(got) == list(want)
            assert [type(k) for k in got] == [type(k) for k in want]
            for k, nbrs in got.items():
                assert nbrs == want[k]
                assert all(type(x) is (Vertex if len(x) == 1 else Edge) for x in nbrs)


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
            "-1 0\n",  # negative order
            "2 1\n1 x\n",  # non-integer endpoint
            # integers are ASCII decimal digits, which int() alone does not require
            "11 1\n1_0 2\n",
            "2 1\n\u0661 2\n",
            "2 1\n1 \uff12\n",
            "1_0 0\n",
            "\u0662 0\n",
            "2 \u0661\n1 2\n",
        ],
    )
    def test_edge_list_errors(self, text):
        with pytest.raises(GraphParseError):
            t.read_edge_list(text)

    def test_edge_list_signs_keep_their_handling(self):
        assert t.read_edge_list("+2 +1\n+1 2\n") == t.path(2)
        with pytest.raises(GraphParseError, match="nonnegative"):
            t.read_edge_list("-1 0\n")
        with pytest.raises(GraphParseError, match="out of range"):
            t.read_edge_list("2 1\n-1 2\n")

    def test_dot_exports(self):
        dot = t.to_dot(t.path(3))
        assert '"v1" -- "v2";' in dot
        tg = t.total_graph(t.path(3))
        tdot = t.to_dot(tg.graph, tg.labels, "T")
        assert '"e2_3";' in tdot and '"v1" -- "e1_2";' in tdot

    def test_labels_json(self):
        tg = t.total_graph(t.path(3))
        data = json.loads(t.labels_to_json(tg))
        assert data["order"] == 5
        assert data["labels"]["4"] == "e1_2" and data["labels"]["1"] == "v1"
