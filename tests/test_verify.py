import random

import pytest

import tdtc as t
from tdtc import Coloring, DomainError, Edge, GraphParseError, Graph, Vertex


def mk_coloring(*classes):
    return Coloring(tuple(frozenset(c) for c in classes))


def optimal_p4_coloring():
    # the optimal 4-class total coloring of the 4-path, over mixed objects
    return mk_coloring(
        {Vertex(2)}, {Vertex(3)}, {Edge(1, 2), Edge(3, 4)}, {Vertex(1), Edge(2, 3), Vertex(4)}
    )


class TestColoringType:
    def test_rejects_empty_class(self):
        with pytest.raises(DomainError):
            mk_coloring({1}, set())

    def test_rejects_overlap(self):
        with pytest.raises(DomainError):
            mk_coloring({1, 2}, {2, 3})


class TestProperColoring:
    def test_p2_two_classes(self):
        ok, violation = t.is_proper_coloring(t.path(2), mk_coloring({1}, {2}))
        assert ok and violation is None

    def test_p2_one_class(self):
        ok, violation = t.is_proper_coloring(t.path(2), mk_coloring({1, 2}))
        assert not ok and violation == (1, 2)

    def test_coverage_mismatch(self):
        with pytest.raises(DomainError):
            t.is_proper_coloring(t.path(3), mk_coloring({1}, {2}))

    def test_optimal_p4_coloring_is_proper_on_total_graph(self):
        tg = t.total_graph(t.path(4))
        mapped = t.coloring_to_total(tg, optimal_p4_coloring())
        ok, _ = t.is_proper_coloring(tg.graph, mapped)
        assert ok


class TestCommonNeighborhood:
    def test_singleton_is_open_neighborhood(self):
        assert t.common_neighborhood(t.path(3), {2}) == frozenset({1, 3})

    def test_far_vertices_share_nothing(self):
        assert t.common_neighborhood(t.path(5), {1, 5}) == frozenset()

    def test_empty_class_has_all(self):
        assert t.common_neighborhood(t.path(3), set()) == frozenset({1, 2, 3})

    def test_member_never_included(self):
        # a class member is not adjacent to itself, so it cannot appear
        g = t.cycle(3)
        assert 1 not in t.common_neighborhood(g, {1})
        assert t.common_neighborhood(g, {1, 2}) == frozenset({3})

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            t.common_neighborhood(t.path(3), {9})


class TestTotalDominatingSet:
    def test_p4_middle(self):
        ok, uncovered = t.is_total_dominating_set(t.path(4), {2, 3})
        assert ok and uncovered == ()

    def test_p4_single(self):
        ok, uncovered = t.is_total_dominating_set(t.path(4), {1})
        assert not ok and uncovered == (1, 3, 4)

    def test_tc7_block_set(self):
        tg = t.total_graph(t.cycle(7))
        s = tg.to_vertex_ids({Vertex(2), Vertex(3), Edge(5, 6), Edge(6, 7)})
        ok, uncovered = t.is_total_dominating_set(tg.graph, s)
        assert ok, uncovered


class TestTdc:
    def test_optimal_p4_coloring_valid_on_total_graph(self):
        tg = t.total_graph(t.path(4))
        report = t.is_tdc(tg.graph, t.coloring_to_total(tg, optimal_p4_coloring()))
        assert report.valid and report.proper and not report.undominated

    def test_proper_but_not_dominating(self):
        report = t.is_tdc(t.path(4), mk_coloring({1, 3}, {2, 4}))
        assert report.proper and not report.valid
        assert report.undominated  # e.g. vertex 1 is adjacent only to 2, not to all of {2,4}

    def test_no_self_domination(self):
        # vertex 1's only candidate class is its own singleton, which it cannot witness
        report = t.is_tdc(t.path(4), mk_coloring({1}, {2, 4}, {3}))
        assert not report.valid and 1 in report.undominated

    def test_witness_class_inside_neighborhood(self):
        g = t.cycle(5)
        coloring = mk_coloring({1}, {2}, {3}, {4}, {5})
        report = t.is_tdc(g, coloring)
        assert report.valid
        for v, k in report.witnesses.items():
            assert coloring.classes[k] <= g.adj[v]

    def test_cn_union_covers_universe_for_valid_tdc(self):
        tg = t.total_graph(t.cycle(9))
        coloring = t.coloring_to_total(tg, t.tdtc_certificate("cycle", 9))
        report = t.is_tdc(tg.graph, coloring)
        assert report.valid
        union = frozenset().union(*report.cn_sets)
        assert union == frozenset(tg.graph.vertices)

    def test_coverage_mismatch(self):
        with pytest.raises(DomainError):
            t.is_tdc(t.path(4), mk_coloring({1, 2}, {3}))


class TestTdtc:
    def test_optimal_p4_coloring(self):
        report = t.is_tdtc(t.path(4), optimal_p4_coloring())
        assert report.valid

    def test_p10_stored_coloring(self):
        report = t.is_tdtc(t.path(10), t.tdtc_certificate("path", 10))
        assert report.valid

    def test_c12_stored_coloring(self):
        cert = t.tdtc_certificate("cycle", 12)
        report = t.is_tdtc(t.cycle(12), cert)
        assert report.valid and cert.num_classes == 10

    def test_agrees_with_total_graph_route(self):
        rng = random.Random(7)
        for g in (t.path(4), t.path(5), t.cycle(4), t.cycle(5), Graph(4, [(1, 2), (1, 3), (1, 4)])):
            tg = t.total_graph(g)
            objs = list(t.mixed_objects(g))
            colorings = []
            if g == t.path(g.n):
                colorings.append(t.tdtc_certificate("path", g.n))
            # seeded random partitions, mostly invalid
            for _ in range(4):
                k = rng.randint(2, len(objs))
                buckets = [[] for _ in range(k)]
                for o in objs:
                    buckets[rng.randrange(k)].append(o)
                parts = [frozenset(b) for b in buckets if b]
                colorings.append(Coloring(tuple(parts)))
            for coloring in colorings:
                direct = t.is_tdtc(g, coloring)
                mapped = t.is_tdc(tg.graph, t.coloring_to_total(tg, coloring))
                assert direct.valid == mapped.valid
                assert direct.proper == mapped.proper
                got = {tg.index[o]: k for o, k in direct.witnesses.items()}
                assert got == mapped.witnesses

    def test_coverage_mismatch(self):
        with pytest.raises(DomainError):
            t.is_tdtc(t.path(3), mk_coloring({Vertex(1)}, {Vertex(2), Vertex(3)}))


class TestProperTotalColoring:
    def test_valid_three_coloring_of_p4(self):
        c = mk_coloring(
            {Vertex(1), Edge(2, 3)},
            {Edge(1, 2), Vertex(3)},
            {Vertex(2), Edge(3, 4)},
            {Vertex(4)},
        )
        ok, _ = t.is_proper_total_coloring(t.path(4), c)
        assert ok

    def test_invalid_when_incident_share_class(self):
        c = mk_coloring({Vertex(1), Edge(1, 2)}, {Vertex(2), Edge(2, 3)}, {Vertex(3), Vertex(4), Edge(3, 4)})
        ok, pair = t.is_proper_total_coloring(t.path(4), c)
        assert not ok and pair is not None


class TestIndependentSets:
    def test_vertex_independence(self):
        ok, pair = t.is_independent_set(t.cycle(5), {1, 3})
        assert ok and pair is None
        ok, pair = t.is_independent_set(t.cycle(5), {1, 2})
        assert not ok and pair == (1, 2)

    def test_mixed_independence(self):
        g = t.cycle(6)
        ok, _ = t.is_mixed_independent_set(g, {Vertex(1), Edge(2, 3), Vertex(4), Edge(5, 6)})
        assert ok
        ok, pair = t.is_mixed_independent_set(g, {Vertex(1), Edge(1, 2)})
        assert not ok and pair == (Vertex(1), Edge(1, 2))

    def test_mixed_domination(self):
        g = t.path(4)
        ok, uncovered = t.is_total_mixed_dominating_set(g, {Vertex(2), Vertex(3)})
        assert ok and uncovered == ()
        ok, uncovered = t.is_total_mixed_dominating_set(g, {Vertex(1)})
        assert not ok and Vertex(1) in uncovered


class TestMembersOutsideUniverse:
    """A member that is not in the checked universe, of whatever type, is a
    DomainError; for well-typed members the message is pinned."""

    INT_COLORING = mk_coloring({1, 2}, {3})
    VERTEX_COLORING = mk_coloring({Vertex(1), Vertex(2)}, {Vertex(3)})

    @pytest.mark.parametrize(
        "check",
        [
            lambda g: t.is_total_mixed_dominating_set(g, {5}),
            lambda g: t.is_mixed_independent_set(g, {5}),
            lambda g: t.is_tdtc(g, TestMembersOutsideUniverse.INT_COLORING),
            lambda g: t.is_proper_total_coloring(g, TestMembersOutsideUniverse.INT_COLORING),
            lambda g: t.is_tdc(g, TestMembersOutsideUniverse.VERTEX_COLORING),
            lambda g: t.is_proper_coloring(g, TestMembersOutsideUniverse.VERTEX_COLORING),
            lambda g: t.common_neighborhood(g, {"a"}),
            lambda g: t.common_neighborhood(g, {"a", 9, 10}),
            lambda g: t.is_total_dominating_set(g, {Vertex(1)}),
            lambda g: t.is_independent_set(g, {Vertex(1), 2}),
        ],
        ids=["tmds-int", "mixed-independent-int", "tdtc-ints", "proper-total-ints", "tdc-vertices",
             "proper-vertices", "common-neighborhood-str", "common-neighborhood-str-and-ints",
             "tds-vertex", "independent-vertex-and-int"],
    )
    def test_foreign_member_is_domain_error(self, check):
        with pytest.raises(DomainError):
            check(t.path(3))

    @pytest.mark.parametrize(
        "check,message",
        [
            (lambda g: t.is_total_dominating_set(g, {9, 10, 2}),
             "set members ['10', '9'] are not vertices of the graph"),
            (lambda g: t.is_independent_set(g, {4}), "set members ['4'] are not vertices of the graph"),
            (lambda g: t.is_total_mixed_dominating_set(g, {Vertex(9), Edge(1, 3), Vertex(2)}),
             "set members ['e1_3', 'v9'] are not objects of the graph"),
            (lambda g: t.is_mixed_independent_set(g, {Edge(3, 4)}),
             "set members ['e3_4'] are not objects of the graph"),
            (lambda g: t.common_neighborhood(g, {10, 9, 1}), "vertices [9, 10] out of range for n=3"),
            (lambda g: t.is_tdc(g, mk_coloring({1, 10}, {9})),
             "coloring does not cover the universe (missing=[2, 3], extra=[9, 10])"),
            (lambda g: t.is_tdtc(g, mk_coloring({Vertex(1), Vertex(9)}, {Edge(1, 2), Edge(7, 8)})),
             "coloring does not cover the universe (missing=[Vertex(i=2), Vertex(i=3), Edge(i=2, j=3)], "
             "extra=[Vertex(i=9), Edge(i=7, j=8)])"),
        ],
        ids=["tds", "independent", "tmds", "mixed-independent", "common-neighborhood", "tdc", "tdtc"],
    )
    def test_message(self, check, message):
        with pytest.raises(DomainError) as info:
            check(t.path(3))
        assert str(info.value) == message


class TestTdcFromTds:
    def test_p4_construction(self):
        coloring = t.tdc_from_tds(t.path(4), {2, 3})
        assert coloring.classes == (frozenset({2}), frozenset({3}), frozenset({1, 4}))
        assert t.is_tdc(t.path(4), coloring).valid

    def test_tc14_block_set_gives_eleven_classes(self):
        tg = t.total_graph(t.cycle(14))
        s = tg.to_vertex_ids(t.min_tmds("cycle", 14))
        coloring = t.tdc_from_tds(tg.graph, s)
        assert coloring.num_classes == 11
        assert t.is_tdc(tg.graph, coloring).valid

    def test_tp7_block_set_gives_seven_classes(self):
        tg = t.total_graph(t.path(7))
        s = tg.to_vertex_ids(t.min_tmds("path", 7))
        coloring = t.tdc_from_tds(tg.graph, s)
        assert coloring.num_classes == 7
        assert t.is_tdc(tg.graph, coloring).valid

    def test_class_count_is_tds_plus_chi_of_remainder(self):
        g = t.cycle(9)
        s = t.total_domination_number(g).certificate
        coloring = t.tdc_from_tds(g, s)
        rest = set(g.vertices) - set(s)
        sub, _ = t.induced_subgraph(g, rest)
        assert coloring.num_classes == len(s) + t.chromatic_number(sub).value

    def test_rejects_non_tds(self):
        with pytest.raises(DomainError):
            t.tdc_from_tds(t.path(4), {1})

    def test_whole_vertex_set(self):
        coloring = t.tdc_from_tds(t.path(3), {1, 2, 3})
        assert coloring.num_classes == 3 and t.is_tdc(t.path(3), coloring).valid


class TestCertificateJson:
    def test_coloring_round_trip_mixed(self):
        import json

        cert = t.tdtc_certificate("path", 5)
        data = t.coloring_to_json(cert, t.MIXED_UNIVERSE, provenance="stored-table")
        kind, universe, payload = t.load_certificate(json.dumps(data))
        assert kind == "coloring" and universe == t.MIXED_UNIVERSE
        assert payload == cert

    def test_set_round_trip_vertices(self):
        import json

        data = t.object_set_to_json({2, 3}, t.VERTEX_UNIVERSE)
        kind, universe, payload = t.load_certificate(json.dumps(data))
        assert kind == "set" and universe == t.VERTEX_UNIVERSE and payload == frozenset({2, 3})

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "{}",
            '{"universe": "nope", "classes": []}',
            '{"universe": "vertices"}',
            '{"universe": "vertices", "classes": [], "objects": []}',
            '{"universe": "vertices", "classes": [["e1_2"]]}',
            '{"universe": "mixed", "classes": [["v1"], ["v1"]]}',
            '{"universe": "mixed", "objects": "v1"}',
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(GraphParseError):
            t.load_certificate(text)
