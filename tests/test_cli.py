import json

import pytest

import tdtc.cli as cli
from tdtc import Coloring, FamilyInstance, mixed_objects, read_edge_list


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


K3_EDGES = "3 3\n1 2\n1 3\n2 3\n"
# a node budget runs out just after the search beats the greedy seed
G7_EDGES = "7 12\n1 2\n1 4\n1 5\n1 6\n2 3\n2 5\n2 7\n3 6\n3 7\n4 5\n4 7\n5 6\n"
G6_EDGES = "6 8\n1 2\n1 5\n2 3\n2 4\n3 4\n3 5\n4 6\n5 6\n"
C5_OBJECTS = ["v1", "v2", "v3", "v4", "v5", "e1_2", "e2_3", "e3_4", "e4_5", "e1_5"]


@pytest.fixture()
def k3_file(tmp_path):
    f = tmp_path / "k3.edges"
    f.write_text(K3_EDGES)
    return str(f)


class TestCompute:
    def test_family_chi_tt_d_closed_form(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "path", "--n", "10", "--invariant", "chi_tt_d")
        assert code == 0
        assert "chi_tt_d(path(10)) = 8" in out
        assert "closed-form" in out

    def test_family_alpha_mix(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "cycle", "--n", "3", "--invariant", "alpha_mix")
        assert code == 0 and "alpha_mix(cycle(3)) = 2" in out

    def test_graph_file_gamma_t(self, capsys, k3_file):
        code, out, _ = run(capsys, "compute", "--graph", k3_file, "--invariant", "gamma_t")
        assert code == 0 and "= 2" in out

    def test_exact_forces_solver(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "cycle", "--n", "6",
                           "--invariant", "chi_tt_d", "--exact")
        assert code == 0
        assert "route: solver" in out and "= 6" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "path", "--n", "4",
                           "--invariant", "gamma_tm", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == 2 and data["certificate"]["universe"] == "mixed"

    def test_missing_graph_source(self, capsys):
        code, _, err = run(capsys, "compute", "--invariant", "alpha")
        assert code == 2 and "graph source" in err

    def test_conflicting_graph_sources(self, capsys, k3_file):
        code, _, _ = run(capsys, "compute", "--family", "path", "--n", "4",
                         "--graph", k3_file, "--invariant", "alpha")
        assert code == 2

    def test_parse_error_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.edges"
        f.write_text("oops\n")
        code, _, err = run(capsys, "compute", "--graph", str(f), "--invariant", "alpha")
        assert code == 2

    def test_domain_error_exit_3(self, capsys):
        code, _, _ = run(capsys, "compute", "--family", "cycle", "--n", "2", "--invariant", "alpha")
        assert code == 3

    def test_isolated_vertex_exit_3(self, capsys, tmp_path):
        f = tmp_path / "iso.edges"
        f.write_text("3 1\n1 2\n")
        code, _, _ = run(capsys, "compute", "--graph", str(f), "--invariant", "gamma_t")
        assert code == 3

    def test_failed_closed_form_certificate_exit_1(self, capsys, monkeypatch):
        def one_class(family, n):
            return Coloring((frozenset(mixed_objects(FamilyInstance(family, n).graph())),))

        record = cli.INVARIANTS["chi_tt_d"]
        monkeypatch.setitem(cli.INVARIANTS, "chi_tt_d", record._replace(construct=one_class))
        code, out, err = run(capsys, "compute", "--family", "cycle", "--n", "19", "--invariant", "chi_tt_d")
        assert code == 1 and out == ""
        assert err.startswith("closed-form certificate failed verification for cycle(19): improper: ")

    def test_budget_exhausted_exit_4(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "cycle", "--n", "9",
                           "--invariant", "chi_tt_d", "--exact", "--max-nodes", "10")
        assert code == 4 and "budget exhausted" in out

    @pytest.mark.parametrize(
        "flag,value",
        [("--max-nodes", "-5"), ("--max-time", "-1"), ("--max-time", "nan")],
        ids=["negative-nodes", "negative-time", "nan-time"],
    )
    def test_bad_budget_exit_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute", "--family", "cycle", "--n", "9", "--invariant", "chi_tt_d", "--exact",
                      flag, value])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.startswith("usage: ") and f"argument {flag}: must be non-negative" in captured.err

    def test_zero_node_budget_expands_no_node(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "cycle", "--n", "9", "--invariant", "chi",
                           "--exact", "--max-nodes", "0", "--format", "json")
        assert code == 4 and json.loads(out)["nodes_explored"] == 0

    @pytest.mark.parametrize(
        "edges,invariant,max_nodes,kind,value",
        [
            (G7_EDGES, "alpha", "4", "independent", 3),
            (G6_EDGES, "gamma_t", "6", "tds", 2),
        ],
        ids=["alpha", "gamma_t"],
    )
    def test_budget_exhausted_returns_best_found(self, capsys, tmp_path, edges, invariant, max_nodes, kind, value):
        graph, cert = tmp_path / "g.edges", tmp_path / "cert.json"
        graph.write_text(edges)
        code, out, _ = run(capsys, "compute", "--graph", str(graph), "--invariant", invariant,
                           "--max-nodes", max_nodes, "--out", str(cert))
        assert code == 4 and f"{invariant}({graph}) = {value}\n" in out
        assert len(json.loads(cert.read_text())["objects"]) == value
        code, out, _ = run(capsys, "verify", "--graph", str(graph), "--kind", kind, str(cert))
        assert code == 0, out

    @pytest.mark.parametrize(
        "invariant,kind",
        [
            ("alpha", "independent"),
            ("chi", "proper"),
            ("gamma_t", "tds"),
            ("chi_t_d", "tdc"),
            ("alpha_mix", "mixed-independent"),
            ("gamma_tm", "tmds"),
            ("chi_total", "proper"),
            ("chi_tt_d", "tdtc"),
        ],
    )
    def test_emitted_certificates_round_trip_through_verify(self, capsys, tmp_path, invariant, kind):
        cert = tmp_path / f"{invariant}.json"
        code, _, _ = run(capsys, "compute", "--family", "path", "--n", "4",
                         "--invariant", invariant, "--out", str(cert))
        assert code == 0
        code, out, _ = run(capsys, "verify", "--family", "path", "--n", "4",
                           "--kind", kind, str(cert))
        assert code == 0, out


class TestVerify:
    def test_valid_stored_coloring(self, capsys, tmp_path):
        code, _, _ = run(capsys, "export", "--family", "cycle", "--n", "9", "--what", "tdtc",
                         "--out", str(tmp_path / "c9.json"))
        assert code == 0
        code, out, _ = run(capsys, "verify", "--family", "cycle", "--n", "9",
                           "--kind", "tdtc", str(tmp_path / "c9.json"))
        assert code == 0 and "valid" in out

    def test_merged_classes_fail(self, capsys, tmp_path):
        data = json.loads((_export_tdtc(capsys, tmp_path, "cycle", 9)).read_text())
        merged = [data["classes"][0] + data["classes"][1]] + data["classes"][2:]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"universe": "mixed", "classes": merged}))
        code, out, _ = run(capsys, "verify", "--family", "cycle", "--n", "9", "--kind", "tdtc", str(bad))
        assert code == 1 and "INVALID" in out

    def test_truncated_json_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "trunc.json"
        bad.write_text('{"universe": "mixed", "classes": [["v1"')
        code, _, err = run(capsys, "verify", "--family", "cycle", "--n", "9", "--kind", "tdtc", str(bad))
        assert code == 2

    def test_kind_universe_mismatch_exit_2(self, capsys, tmp_path):
        f = tmp_path / "set.json"
        f.write_text(json.dumps({"universe": "vertices", "objects": ["v1", "v2"]}))
        code, _, _ = run(capsys, "verify", "--family", "path", "--n", "4", "--kind", "tmds", str(f))
        assert code == 2

    def test_kind_payload_mismatch_exit_2(self, capsys, tmp_path):
        f = tmp_path / "set.json"
        f.write_text(json.dumps({"universe": "vertices", "objects": ["v2", "v3"]}))
        code, _, _ = run(capsys, "verify", "--family", "path", "--n", "4", "--kind", "tdc", str(f))
        assert code == 2

    def test_invalid_tds_exit_1(self, capsys, tmp_path):
        f = tmp_path / "set.json"
        f.write_text(json.dumps({"universe": "vertices", "objects": ["v1"]}))
        code, out, _ = run(capsys, "verify", "--family", "path", "--n", "4", "--kind", "tds", str(f))
        assert code == 1 and "uncovered" in out

    @pytest.mark.parametrize(
        "kind, cert",
        [
            ("tdtc", {"universe": "mixed", "classes": [[1]]}),
            ("tmds", {"universe": "mixed", "objects": [None]}),
            ("tmds", {"universe": "mixed", "objects": ["v0"]}),
            ("tmds", {"universe": "mixed", "objects": ["e2_2"]}),
        ],
    )
    def test_malformed_token_exit_2(self, capsys, tmp_path, kind, cert):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(cert))
        code, out, err = run(capsys, "verify", "--family", "cycle", "--n", "5", "--kind", kind, str(f))
        assert code == 2 and out == "" and err.startswith("parse error: bad object token")

    @pytest.mark.parametrize(
        "kind, cert, detail",
        [
            pytest.param("tdtc", {"universe": "mixed", "classes": [C5_OBJECTS]},
                         "improper: v1 and v2 share class 0", id="tdtc-improper"),
            pytest.param("tdtc", {"universe": "mixed", "classes": [["v1", "v3", "e4_5"], ["v5", "e1_2", "e3_4"],
                                                                   ["v4", "e1_5", "e2_3"], ["v2"]]},
                         "object v2 dominates no color class", id="tdtc-undominated"),
            pytest.param("tdc", {"universe": "vertices", "classes": [["v1", "v2"], ["v3"], ["v4"], ["v5"]]},
                         "improper: v1 and v2 share class 0", id="tdc-improper"),
            pytest.param("proper", {"universe": "mixed", "classes": [C5_OBJECTS]},
                         "monochromatic adjacent pair: ('v1', 'v2')", id="proper-mixed"),
            pytest.param("proper", {"universe": "mixed", "classes": [["e1_2", "e2_3"], *[[o] for o in C5_OBJECTS[:5]],
                                                                     ["e3_4"], ["e4_5"], ["e1_5"]]},
                         "monochromatic adjacent pair: ('e1_2', 'e2_3')", id="proper-mixed-edges"),
            pytest.param("proper", {"universe": "vertices", "classes": [["v1", "v2"], ["v3"], ["v4"], ["v5"]]},
                         "monochromatic adjacent pair: ('v1', 'v2')", id="proper-vertices"),
            pytest.param("tmds", {"universe": "mixed", "objects": ["v1"]},
                         "uncovered objects: ['v1', 'v3', 'v4', 'e2_3', 'e3_4', 'e4_5']", id="tmds"),
            pytest.param("tds", {"universe": "vertices", "objects": ["v1"]},
                         "uncovered vertices: ['v1', 'v3', 'v4']", id="tds"),
            pytest.param("mixed-independent", {"universe": "mixed", "objects": ["v1", "e1_2"]},
                         "adjacent or incident pair in set: ('v1', 'e1_2')", id="mixed-independent"),
            pytest.param("independent", {"universe": "vertices", "objects": ["v1", "v2"]},
                         "adjacent pair in set: ('v1', 'v2')", id="independent"),
        ],
    )
    def test_invalid_detail_names_certificate_tokens(self, capsys, tmp_path, kind, cert, detail):
        f = tmp_path / "cert.json"
        f.write_text(json.dumps(cert))
        code, out, err = run(capsys, "verify", "--family", "cycle", "--n", "5", "--kind", kind, str(f))
        assert (code, out, err) == (1, f"INVALID {kind} certificate for cycle(5): {detail}\n", "")

    def test_coverage_mismatch_is_malformed_exit_2(self, capsys, tmp_path):
        f = tmp_path / "short.json"
        f.write_text(json.dumps({"universe": "vertices", "classes": [["v1"], ["v2"]]}))
        code, _, _ = run(capsys, "verify", "--family", "path", "--n", "4", "--kind", "tdc", str(f))
        assert code == 2


def _export_tdtc(capsys, tmp_path, family, n):
    target = tmp_path / f"{family}{n}.json"
    run(capsys, "export", "--family", family, "--n", str(n), "--what", "tdtc", "--out", str(target))
    return target


class TestSweep:
    def test_small_cycle_sweep_agrees(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "cycle", "--from", "3", "--to", "7",
                           "--exact-up-to", "6", "--certify")
        assert code == 0
        assert out.count("yes") == 5

    def test_csv_byte_stable(self, capsys):
        args = ("sweep", "--family", "path", "--from", "2", "--to", "10",
                "--invariant", "gamma_tm", "--exact-up-to", "6", "--certify", "--format", "csv")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        header = out1.splitlines()[0]
        assert header == "family,n,formula_value,solver_value,certificate_classes,agree,note"

    def test_solver_column_empty_beyond_exact_bound(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "path", "--from", "9", "--to", "10",
                           "--invariant", "alpha_mix", "--exact-up-to", "9", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].startswith("path,9,6,6,6,true")
        assert lines[2].startswith("path,10,7,,7,true")

    def test_disagreement_exits_1(self, capsys, monkeypatch):
        record = cli.INVARIANTS["chi_tt_d"]

        def wrong(family, n):
            fv = record.formula(family, n)
            return type(fv)(fv.value + 1, fv.case_tag)

        monkeypatch.setitem(cli.INVARIANTS, "chi_tt_d", record._replace(
            solve=lambda g, b=None: None, formula=wrong))  # the solver must not be called
        code, out, _ = run(capsys, "sweep", "--family", "cycle", "--from", "10", "--to", "10",
                           "--exact-up-to", "0")
        assert code == 1

    def test_empty_range_domain_error(self, capsys):
        code, _, _ = run(capsys, "sweep", "--family", "cycle", "--from", "9", "--to", "3")
        assert code == 3

    def test_budget_exhaustion_marks_row_and_continues(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "cycle", "--from", "8", "--to", "10",
                           "--exact-up-to", "9", "--max-nodes", "3", "--format", "csv")
        assert code == 0  # certificates still agree; exhausted solver rows are only noted
        lines = out.strip().splitlines()
        assert lines[1] == "cycle,8,8,,8,true,budget-exhausted"
        assert lines[2] == "cycle,9,8,,8,true,budget-exhausted"
        assert lines[3] == "cycle,10,9,,9,true,"


class TestRatio:
    def test_path_rows(self, capsys):
        code, out, _ = run(capsys, "ratio", "--family", "path", "--from", "4", "--to", "6",
                           "--format", "csv")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            parts = row.split(",")
            assert float(parts[4]) >= 1.0

    def test_cycle3_ratio(self, capsys):
        code, out, _ = run(capsys, "ratio", "--family", "cycle", "--from", "3", "--to", "3",
                           "--format", "csv")
        assert code == 0
        _, n, chi_tt, chi_t_d, ratio = out.strip().splitlines()[1].split(",")
        assert chi_tt == "3" and float(ratio) == pytest.approx(3 / int(chi_t_d))


class TestExport:
    def test_graph_edges_round_trip(self, capsys):
        code, out, _ = run(capsys, "export", "--family", "cycle", "--n", "5", "--what", "graph")
        assert code == 0
        g = read_edge_list(out)
        assert g.n == 5 and g.m == 5

    def test_total_graph_dot(self, capsys):
        code, out, _ = run(capsys, "export", "--family", "cycle", "--n", "4",
                           "--what", "total-graph", "--format", "dot")
        assert code == 0 and '"e1_2"' in out and '"v1" -- "e1_2";' in out

    def test_labels_json(self, capsys):
        code, out, _ = run(capsys, "export", "--family", "path", "--n", "3", "--what", "labels")
        assert code == 0
        data = json.loads(out)
        assert data["labels"]["5"] == "e2_3"

    def test_line_graph_edges(self, capsys):
        code, out, _ = run(capsys, "export", "--family", "path", "--n", "4", "--what", "line-graph")
        assert code == 0
        assert read_edge_list(out).edges == frozenset({(1, 2), (2, 3)})

    def test_tmds_certificate_verifies(self, capsys, tmp_path):
        target = tmp_path / "tmds.json"
        code, _, _ = run(capsys, "export", "--family", "cycle", "--n", "14", "--what", "tmds",
                         "--out", str(target))
        assert code == 0
        data = json.loads(target.read_text())
        assert data["universe"] == "mixed" and len(data["objects"]) == 8
        code, _, _ = run(capsys, "verify", "--family", "cycle", "--n", "14", "--kind", "tmds", str(target))
        assert code == 0

    def test_mis_certificate_verifies(self, capsys, tmp_path):
        target = tmp_path / "mis.json"
        run(capsys, "export", "--family", "path", "--n", "9", "--what", "mis", "--out", str(target))
        code, _, _ = run(capsys, "verify", "--family", "path", "--n", "9",
                         "--kind", "mixed-independent", str(target))
        assert code == 0

    def test_certificate_export_requires_family(self, capsys, k3_file):
        code, _, _ = run(capsys, "export", "--graph", k3_file, "--what", "tdtc")
        assert code == 3

    def test_provenance_recorded(self, capsys):
        code, out, _ = run(capsys, "export", "--family", "path", "--n", "13", "--what", "tdtc")
        assert code == 0 and json.loads(out)["provenance"] == "stored-table"
        code, out, _ = run(capsys, "export", "--family", "path", "--n", "14", "--what", "tdtc")
        assert code == 0 and json.loads(out)["provenance"] == "constructed-from-tds"
