import ast
from pathlib import Path

import pytest

import tdtc as t
import tdtc.solvers as solvers
from oracles import chi_tt_relative, label_index, tdtc_certificate_reference, verify_formula_consistency
from tdtc import DomainError, Edge, FamilyInstance, Vertex

# hand-expanded formula tables
GAMMA_TM_CYCLE = {3: 2, 4: 3, 5: 4, 6: 4, 7: 4, 8: 5, 9: 6, 10: 6, 11: 7, 12: 8, 13: 8, 14: 8}
GAMMA_TM_PATH = {2: 2, 3: 2, 4: 2, 5: 3, 6: 4, 7: 4, 8: 5, 9: 6, 10: 6, 11: 6, 12: 7, 13: 8, 14: 8}
CHI_TT_CYCLE = {3: 3, 4: 4, 5: 5, 6: 6, 7: 7, 8: 8, 9: 8, 10: 9, 11: 10, 12: 10, 13: 11, 14: 11, 19: 15}
CHI_TT_PATH = {2: 3, 3: 3, 4: 4, 5: 5, 6: 6, 7: 7, 8: 7, 9: 8, 10: 8, 11: 9, 12: 10, 13: 10, 16: 12}


class TestGammaTm:
    @pytest.mark.parametrize("n,want", sorted(GAMMA_TM_CYCLE.items()))
    def test_cycle_values(self, n, want):
        assert t.gamma_tm("cycle", n).value == want

    @pytest.mark.parametrize("n,want", sorted(GAMMA_TM_PATH.items()))
    def test_path_values(self, n, want):
        assert t.gamma_tm("path", n).value == want

    def test_domain(self):
        with pytest.raises(DomainError):
            t.gamma_tm("cycle", 2)
        with pytest.raises(DomainError):
            t.gamma_tm("path", 1)

    def test_forms_agree_on_initial_segment(self):
        assert verify_formula_consistency(10_000) == 2 * 10_000 - 3


class TestAlphaMix:
    def test_values(self):
        assert t.alpha_mix("cycle", 6).value == 4
        assert t.alpha_mix("path", 4).value == 3
        assert t.alpha_mix("path", 2).value == 1
        assert [t.alpha_mix("cycle", n).value for n in range(3, 9)] == [2, 2, 3, 4, 4, 5]


class TestChiTt:
    @pytest.mark.parametrize("n,want", sorted(CHI_TT_CYCLE.items()))
    def test_cycle_values(self, n, want):
        assert t.chi_tt("cycle", n).value == want

    @pytest.mark.parametrize("n,want", sorted(CHI_TT_PATH.items()))
    def test_path_values(self, n, want):
        assert t.chi_tt("path", n).value == want

    @pytest.mark.parametrize("family,lo", [("cycle", 3), ("path", 2)])
    def test_matches_form_relative_to_gamma_tm(self, family, lo):
        for n in range(lo, 10_001):
            assert t.chi_tt(family, n).value == chi_tt_relative(family, n), (family, n)

    def test_case_tags_identify_single_branch(self):
        assert t.chi_tt("cycle", 9).case_tag == "n == 9"
        assert t.chi_tt("cycle", 12).case_tag == "n >= 10, n % 7 != 5 or n == 12"
        assert t.chi_tt("cycle", 19).case_tag == "n >= 10, n % 7 == 5, n != 12"
        assert t.chi_tt("path", 10).case_tag == "n >= 10, n % 7 == 4 or n in (10, 13, 16)"
        assert t.gamma_tm("cycle", 12).case_tag == "n % 7 in (0, 5, 6)"


class TestMinTmds:
    def test_cycle7_block(self):
        assert t.min_tmds("cycle", 7) == frozenset({Vertex(2), Vertex(3), Edge(5, 6), Edge(6, 7)})

    def test_cycle8_block_plus_tail(self):
        assert t.min_tmds("cycle", 8) == frozenset(
            {Vertex(2), Vertex(3), Edge(5, 6), Edge(6, 7), Edge(7, 8)}
        )

    def test_path4_tail_only(self):
        assert t.min_tmds("path", 4) == frozenset({Vertex(2), Vertex(3)})

    @pytest.mark.parametrize("n", range(3, 60))
    def test_cycle_sets_are_minimum_dominating(self, n):
        s = t.min_tmds("cycle", n)
        assert len(s) == t.gamma_tm("cycle", n).value
        ok, uncovered = t.is_total_mixed_dominating_set(t.cycle(n), s)
        assert ok, (n, uncovered)

    @pytest.mark.parametrize("n", range(2, 60))
    def test_path_sets_are_minimum_dominating(self, n):
        s = t.min_tmds("path", n)
        assert len(s) == t.gamma_tm("path", n).value
        ok, uncovered = t.is_total_mixed_dominating_set(t.path(n), s)
        assert ok, (n, uncovered)


class TestMaxMixedIndependentSet:
    @pytest.mark.parametrize(
        "family,n,want",
        [
            ("cycle", 6, {Vertex(1), Edge(2, 3), Vertex(4), Edge(5, 6)}),
            ("path", 3, {Vertex(1), Edge(2, 3)}),
            # n = 1 (mod 3): v_7 would see v_1, so the vertices stop at v_4
            ("cycle", 7, {Vertex(1), Edge(2, 3), Vertex(4), Edge(5, 6)}),
            ("cycle", 8, {Vertex(1), Edge(2, 3), Vertex(4), Edge(5, 6), Vertex(7)}),
        ],
        ids=["cycle-6", "path-3", "cycle-7", "cycle-8"],
    )
    def test_exact_set(self, family, n, want):
        assert t.max_mixed_independent_set(family, n) == frozenset(want)

    def test_path4_has_three_objects(self):
        # brute-force-derived: the largest mixed independent set of the 4-path
        # has 3 objects
        s = t.max_mixed_independent_set("path", 4)
        assert len(s) == 3
        assert t.mixed_independence_number(t.path(4)).value == 3

    @pytest.mark.parametrize("family,lo", [("cycle", 3), ("path", 2)])
    def test_sets_are_maximum_independent(self, family, lo):
        for n in range(lo, 60):
            s = t.max_mixed_independent_set(family, n)
            g = FamilyInstance(family, n).graph()
            assert len(s) == t.alpha_mix(family, n).value, n
            ok, pair = t.is_mixed_independent_set(g, s)
            assert ok, (family, n, pair)


class TestTdtcCertificates:
    def test_cycle3_stored_partition(self):
        cert = t.tdtc_certificate("cycle", 3)
        assert cert.classes == (
            frozenset({Vertex(1), Edge(2, 3)}),
            frozenset({Vertex(3), Edge(1, 2)}),
            frozenset({Vertex(2), Edge(1, 3)}),
        )

    def test_path9_stored_has_eight_classes(self):
        cert = t.tdtc_certificate("path", 9)
        assert cert.num_classes == 8
        assert t.is_tdtc(t.path(9), cert).valid

    def test_cycle21_constructed_has_fifteen_classes(self):
        cert = t.tdtc_certificate("cycle", 21)
        assert cert.num_classes == 15 == t.chi_tt("cycle", 21).value
        assert t.is_tdtc(t.cycle(21), cert).valid

    def test_certificate_source(self):
        assert t.certificate_source("cycle", 3) == t.STORED_TABLE
        assert t.certificate_source("cycle", 7) == t.STORED_TABLE
        assert t.certificate_source("cycle", 10) == t.CONSTRUCTED
        assert t.certificate_source("cycle", 12) == t.STORED_TABLE
        assert t.certificate_source("path", 16) == t.STORED_TABLE
        assert t.certificate_source("path", 17) == t.CONSTRUCTED

    @pytest.mark.parametrize("family,lo", [("cycle", 3), ("path", 2)])
    def test_certificates_tight_up_to_60(self, family, lo):
        for n in range(lo, 61):
            cert = t.tdtc_certificate(family, n)
            g = FamilyInstance(family, n).graph()
            assert cert.num_classes == t.chi_tt(family, n).value, n
            assert t.is_tdtc(g, cert).valid, (family, n)

    @pytest.mark.parametrize("family,lo", [("cycle", 3), ("path", 2)])
    def test_remainder_of_dominating_set_is_3_chromatic_or_less(self, family, lo):
        for n in range(max(lo, 4), 40):
            g = FamilyInstance(family, n).graph()
            tg, labels = t.total_graph(g)
            index = label_index(labels)
            s = {index[o] for o in t.min_tmds(family, n)}
            rest = set(tg.vertices) - s
            sub, _ = t.induced_subgraph(tg, rest)
            assert t.chromatic_number(sub).value <= 3, (family, n)

    @pytest.mark.parametrize("family,lo", [("cycle", 3), ("path", 2)])
    def test_constructed_certificates_match_former_body(self, family, lo):
        """The certificate built on the total graph's neighbour lists equals,
        class for class, the one the former body built on the total graph's
        vertex ids and the former ``tdc_from_tds``."""
        constructed = [n for n in range(lo, 301) if t.certificate_source(family, n) == t.CONSTRUCTED]
        assert len(constructed) > 280
        for n in [*constructed, 1000, 1200]:
            assert t.tdtc_certificate(family, n).classes == tdtc_certificate_reference(family, n).classes, n

    @pytest.mark.parametrize("family,lo", [("cycle", 3), ("path", 2)])
    def test_constructed_certificates_need_no_level_search(self, family, lo, monkeypatch):
        """The rest of the dominating set is colored by first fit alone: its
        greedy coloring meets the clique bound, so no level of the exact
        coloring search runs."""
        def level_search(*args):
            raise AssertionError("tdtc_certificate ran a level search")

        monkeypatch.setattr(solvers, "_ktdc_feasible", level_search)
        for n in range(lo, 301):
            assert t.tdtc_certificate(family, n).num_classes == t.chi_tt(family, n).value, n

    def test_determinism(self):
        a = t.tdtc_certificate("cycle", 30)
        b = t.tdtc_certificate("cycle", 30)
        assert a == b


class TestFamilyInstance:
    def test_graphs(self):
        assert FamilyInstance("cycle", 5).graph() == t.cycle(5)
        assert FamilyInstance("path", 5).graph() == t.path(5)

    def test_domain(self):
        with pytest.raises(DomainError):
            FamilyInstance("cycle", 2)
        with pytest.raises(DomainError):
            FamilyInstance("path", 1)
        with pytest.raises(DomainError):
            FamilyInstance("tree", 5)


def test_library_has_no_assert_statements():
    # self-checks must survive python -O, which strips assert statements
    src = Path(t.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
