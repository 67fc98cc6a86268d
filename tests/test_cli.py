import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import tdtc.cli as cli
from tdtc import Coloring, FamilyInstance, Vertex, mixed_objects, read_edge_list


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

    def test_exact_json_stdout_byte_stable(self, capsys):
        argv = ("compute", "--family", "cycle", "--n", "7", "--invariant", "chi_tt_d", "--exact", "--format", "json")
        first, second = run(capsys, *argv), run(capsys, *argv)
        assert first[0] == second[0] == 0 and first[1] == second[1]
        assert "elapsed" not in json.loads(first[1])
        assert first[2].startswith("elapsed: ")

    def test_json_stdout_parses_with_out(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        argv = ("compute", "--family", "cycle", "--n", "5", "--invariant", "chi_tt_d", "--out", str(cert))
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 0 and json.loads(out)["certificate"] == json.loads(cert.read_text())
        assert err == f"certificate written to {cert}\n"
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == (f"chi_tt_d(cycle(5)) = 5\n  route: closed-form [3 <= n <= 8]\n"
                       f"  certificate: coloring with 5 classes\ncertificate written to {cert}\n")

    def test_missing_graph_source(self, capsys):
        code, _, err = run(capsys, "compute", "--invariant", "alpha")
        assert code == 2 and "graph source" in err

    @pytest.mark.parametrize(
        "argv,detail",
        [
            (("--family", "cycle"), "--family requires --n"),
            (("--graph", "{missing}"), "cannot read {missing}: "),
        ],
        ids=["family-without-n", "missing-file"],
    )
    def test_unusable_graph_source_exit_2(self, capsys, tmp_path, argv, detail):
        missing = tmp_path / "missing.edges"
        code, out, err = run(capsys, "compute", *(a.format(missing=missing) for a in argv), "--invariant", "alpha")
        assert code == 2 and out == "" and err.startswith(f"parse error: {detail.format(missing=missing)}")

    def test_conflicting_graph_sources(self, capsys, k3_file):
        code, _, _ = run(capsys, "compute", "--family", "path", "--n", "4",
                         "--graph", k3_file, "--invariant", "alpha")
        assert code == 2

    def test_n_with_graph_exit_2(self, capsys, k3_file):
        """--n names a family instance, so beside --graph it is an error, not ignored."""
        code, out, err = run(capsys, "compute", "--graph", k3_file, "--n", "7", "--invariant", "gamma_t")
        assert (code, out, err) == (2, "", "parse error: give either --family/--n or --graph, not both\n")

    def test_parse_error_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.edges"
        f.write_text("oops\n")
        code, _, err = run(capsys, "compute", "--graph", str(f), "--invariant", "alpha")
        assert code == 2

    @pytest.mark.parametrize("argv, name, text, err", [
        (("compute", "--graph", "{f}", "--invariant", "chi_t_d"), "digits.edges", "2 1\n\u0661 2\n",
         "parse error: edge line must be two integers, got '\u0661 2'\n"),
        (("compute", "--graph", "{f}", "--invariant", "gamma_t"), "digits.edges", "1_0 0\n",
         "parse error: header must be two integers, got '1_0 0'\n"),
        (("verify", "--family", "cycle", "--n", "5", "--kind", "tds", "{f}"), "digits.json",
         '{"universe": "vertices", "objects": ["v\u0663", "v1"]}', "parse error: bad object token: 'v\u0663'\n"),
    ])
    def test_non_ascii_integers_exit_2(self, capsys, tmp_path, argv, name, text, err):
        """Integers in inputs are ASCII decimal digits: an Arabic-Indic one
        or an underscore, which ``int`` alone would read, is a parse error."""
        f = tmp_path / name
        f.write_text(text, encoding="utf-8")
        got = run(capsys, *(a.format(f=f) for a in argv))
        assert got == (2, "", err)

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

    def test_closed_form_size_mismatch_exit_1(self, capsys, monkeypatch):
        def every_object(family, n):
            return frozenset(mixed_objects(FamilyInstance(family, n).graph()))

        record = cli.INVARIANTS["gamma_tm"]
        monkeypatch.setitem(cli.INVARIANTS, "gamma_tm", record._replace(construct=every_object))
        code, out, err = run(capsys, "compute", "--family", "cycle", "--n", "5", "--invariant", "gamma_tm")
        assert (code, out) == (1, "")
        assert err == ("closed-form certificate failed verification for cycle(5): "
                       "certificate size 10, formula value 4\n")

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

    def test_every_invariant_names_a_kind_for_its_universe(self):
        """``verify --kind`` accepts what ``compute`` writes for each invariant."""
        for key, inv in cli.INVARIANTS.items():
            assert inv.universe in cli.KINDS[inv.kind].checks, key

    def test_deep_search_fits_any_recursion_limit(self, tmp_path):
        """The total domination search on T(P_600) holds about 400 vertices
        in its current set, and the independent set search on 300 disjoint
        copies of C_5 branches once per copy.  Neither nests a call per
        level, so under a recursion limit of 150 each run ends on its budget
        as it does under 10,000, and the limit is left as it was set."""
        graph = tmp_path / "c5x300.edges"
        edges = [(5 * c + i, 5 * c + i % 5 + 1) for c in range(300) for i in range(1, 6)]
        graph.write_text(f"1500 {len(edges)}\n" + "".join(f"{min(e)} {max(e)}\n" for e in edges))
        script = (
            "import sys\n"
            "sys.setrecursionlimit(int(sys.argv[1]))\n"
            "from tdtc import cli\n"
            "code = cli.main(sys.argv[2:])\n"
            "print(sys.getrecursionlimit())\n"
            "sys.exit(code)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        for argv in (["--family", "path", "--n", "600", "--invariant", "gamma_tm", "--exact"],
                     ["--graph", str(graph), "--invariant", "alpha"]):
            argv = ["compute", *argv, "--max-nodes", "3000", "--format", "json"]
            low, high = (subprocess.run([sys.executable, "-c", script, str(limit), *argv], capture_output=True,
                                        text=True, timeout=120, env=env) for limit in (150, 10_000))
            assert "Traceback" not in low.stderr + high.stderr
            assert low.returncode == high.returncode == 4
            result, _, kept = low.stdout.rstrip("\n").rpartition("\n")
            assert (kept, high.stdout) == ("150", f"{result}\n10000\n")
            assert json.loads(result)["nodes_explored"] == 3000


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--family", "cycle", "--n", "5", "--invariant", "chi_tt_d"),
        ("sweep", "--family", "cycle", "--from", "3", "--to", "5"),
        ("export", "--family", "cycle", "--n", "5", "--what", "tdtc"),
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_exit_2(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2 and out == "" and f"cannot write {target}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("option", ["--graph", "--out"])
@pytest.mark.parametrize("name", ["x" * 5000, "missing/x.json"])
def test_unusable_path_is_shown_once(capsys, tmp_path, option, name):
    """``cannot read PATH: reason`` and ``cannot write PATH: reason`` give
    the reason without the path that an ``OSError``'s text repeats."""
    target = str(tmp_path / name)
    if option == "--graph":
        argv = ("compute", "--graph", target, "--invariant", "gamma_t")
    else:
        argv = ("export", "--family", "cycle", "--n", "5", "--what", "tdtc", "--out", target)
    code, out, err = run(capsys, *argv)
    verb = "read" if option == "--graph" else "write"
    assert code == 2 and out == "" and err.startswith(f"parse error: cannot {verb} {target}: ")
    assert err.count(target) == 1 and len(err) < len(target) + 80


@pytest.mark.parametrize("subcommand", ["compute", "verify"])
def test_undecodable_file_exit_2(capsys, tmp_path, k3_file, subcommand):
    """A file that is not UTF-8 cannot be read: exit 2 with a parse error,
    not 1 (a failed verification) with a traceback."""
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe3 3\n1 2\n")
    if subcommand == "compute":
        argv = ("compute", "--graph", str(bad), "--invariant", "gamma_t")
    else:
        argv = ("verify", "--graph", k3_file, "--kind", "tds", str(bad))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith(f"parse error: cannot read {bad}: ")
    assert "Traceback" not in err


def test_files_are_utf8_under_any_locale(tmp_path):
    """Files are read and written as UTF-8, not in the locale's encoding:
    with default-encoding warnings made errors, reading a graph and writing
    and re-reading its certificate runs clean."""
    graph, cert = tmp_path / "k3.edges", tmp_path / "cert.json"
    graph.write_text(K3_EDGES, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for argv in (["compute", "--graph", str(graph), "--invariant", "gamma_t", "--out", str(cert)],
                 ["verify", "--graph", str(graph), "--kind", "tds", str(cert)]):
        proc = subprocess.run([sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                               "-m", "tdtc", *argv], capture_output=True, text=True, timeout=60, env=env)
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert proc.stdout == f"valid tds certificate for {graph}\n"


def test_repeated_main_calls_share_no_state(tmp_path):
    """One process that calls ``main`` for several subcommands, so that they
    share one parser, prints what a fresh process prints for each and exits
    with the same codes; the second compute runs without --format, so a
    default left over from the first would show.  Importing the module
    builds no parser."""
    argvs = [
        ["compute", "--family", "cycle", "--n", "7", "--invariant", "gamma_tm", "--format", "json"],
        ["sweep", "--family", "path", "--from", "2", "--to", "6", "--invariant", "gamma_tm", "--format", "csv"],
        ["export", "--family", "cycle", "--n", "5", "--what", "tdtc"],
        ["compute", "--family", "path", "--n", "6", "--invariant", "chi_tt_d"],
    ]
    script = (
        "import json, sys\n"
        "from tdtc import cli\n"
        "print(cli._parser.cache_info().currsize)\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    code = cli.main(argv)\n"
        "    print(f'--- exit {code}')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def python(*args):
        proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
        return proc.stdout

    fresh = "".join(python("-c", script, json.dumps([argv]))[2:] for argv in argvs)
    shared = python("-c", script, json.dumps(argvs))
    assert shared == "0\n" + fresh
    assert [line for line in shared.splitlines() if line.startswith("---")] == ["--- exit 0"] * 4


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
        f = tmp_path / "cert.json"
        for kind, cert, needed in [
            ("tmds", {"universe": "vertices", "objects": ["v1", "v2"]}, "mixed"),
            ("tds", {"universe": "mixed", "objects": ["v1", "v2"]}, "vertices"),
            ("tdtc", {"universe": "vertices", "classes": [["v1"]]}, "mixed"),
            ("tdc", {"universe": "mixed", "classes": [["v1"]]}, "vertices"),
        ]:
            f.write_text(json.dumps(cert))
            code, out, err = run(capsys, "verify", "--family", "path", "--n", "4", "--kind", kind, str(f))
            assert (code, out, err) == (2, "", f"parse error: kind {kind!r} needs universe {needed!r}\n"), kind

    @pytest.mark.parametrize(
        "kind, cert, token",
        [
            ("tmds", {"universe": "mixed", "objects": ["v2", "v2", "v3", "e5_6", "e6_7"]}, "v2"),
            ("tdtc", {"universe": "mixed", "classes": [["v1", " v1"], ["v2"]]}, " v1"),
        ],
        ids=["objects", "class"],
    )
    def test_repeated_token_exit_2(self, capsys, tmp_path, kind, cert, token):
        """A certificate that lists an object twice is malformed, not read as
        listing it once: the duplicated tmds below was reported valid."""
        f = tmp_path / "cert.json"
        f.write_text(json.dumps(cert))
        code, out, err = run(capsys, "verify", "--family", "path", "--n", "7", "--kind", kind, str(f))
        assert (code, out, err) == (2, "", f"parse error: repeated object {token!r}\n")

    @pytest.mark.parametrize(
        "text, err",
        [
            ('{"universe": "vertices", "objects": ["v1"], "objects": ["v1", "v2", "v3", "v4"]}',
             "parse error: repeated key 'objects'\n"),
            ("[" * 100000, "parse error: invalid JSON: nested too deeply\n"),
            (json.dumps({"universe": "vertices", "objects": ["v" + "1" * 5000]}),
             f"parse error: bad object token {'v' + '1' * 39!r}... (5001 characters): "),
            (json.dumps({"universe": "vertices", "objects": ["v" + "x" * 5000]}),
             f"parse error: bad object token: {'v' + 'x' * 39!r}... (5001 characters)\n"),
            ('{"universe": "vertices", "objects": [' + "1" * 5000 + "]}",
             f"parse error: invalid JSON: integer too long: {'1' * 40!r}... (5000 characters)\n"),
        ],
        ids=["repeated-key", "deep-nesting", "huge-token", "long-token", "huge-integer"],
    )
    def test_malformed_json_exit_2(self, capsys, tmp_path, text, err):
        """A repeated key once replaced the first ``objects`` (valid, exit 0);
        deep nesting, a token too long for int() and a JSON integer of more
        digits than int() converts ended in tracebacks.  A long token or
        integer is quoted by its first 40 characters and its length: the
        whole token made a 5 KB line."""
        f = tmp_path / "cert.json"
        f.write_text(text)
        code, out, got = run(capsys, "verify", "--family", "cycle", "--n", "5", "--kind", "tds", str(f))
        assert (code, out, got[:len(err)]) == (2, "", err)

    def test_kind_payload_mismatch_exit_2(self, capsys, tmp_path):
        f = tmp_path / "set.json"
        f.write_text(json.dumps({"universe": "vertices", "objects": ["v2", "v3"]}))
        code, _, err = run(capsys, "verify", "--family", "path", "--n", "4", "--kind", "tdc", str(f))
        assert code == 2 and "needs a coloring certificate, got an object set" in err
        f.write_text(json.dumps({"universe": "mixed", "classes": [["v1"]]}))
        code, _, err = run(capsys, "verify", "--family", "path", "--n", "4", "--kind", "tmds", str(f))
        assert code == 2 and "needs an object-set certificate, got a coloring" in err

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

    def test_coverage_mismatch_message_is_bounded(self, capsys, tmp_path):
        """C_300's certificate less its largest class: the parse error names
        10 of the 171 missing objects and counts the rest, in one short line."""
        cert = json.loads(_export_tdtc(capsys, tmp_path, "cycle", 300).read_text())
        cert["classes"].remove(max(cert["classes"], key=len))
        f = tmp_path / "short.json"
        f.write_text(json.dumps(cert))
        code, out, err = run(capsys, "verify", "--family", "cycle", "--n", "300", "--kind", "tdtc", str(f))
        assert (code, out) == (2, "")
        assert err.startswith("parse error: coloring does not cover the universe (missing=[Vertex(i=6), ")
        assert err.endswith(", Vertex(i=69)] and 161 more, extra=[])\n") and len(err) < 300


def _export_tdtc(capsys, tmp_path, family, n):
    target = tmp_path / f"{family}{n}.json"
    run(capsys, "export", "--family", family, "--n", str(n), "--what", "tdtc", "--out", str(target))
    return target


def _mask_elapsed(table: str) -> str:
    """A sweep text table with its elapsed column, the one that differs
    between identical runs, replaced by a fixed word."""
    return re.sub(r" +\d+\.\d{3}s  ", " elapsed  ", table)


class TestSweep:
    @pytest.mark.parametrize(
        "argv,want",
        [
            (("--family", "path", "--from", "2", "--to", "5", "--invariant", "gamma_tm", "--exact-up-to", "4",
              "--certify"),
             "family     n  formula  solver  cert  agree   elapsed  note\n"
             "path       2        2       2     2    yes elapsed  \n"
             "path       3        2       2     2    yes elapsed  \n"
             "path       4        2       2     2    yes elapsed  \n"
             "path       5        3       -     3    yes elapsed  \n"),
            (("--family", "cycle", "--from", "8", "--to", "10", "--exact-up-to", "9", "--max-nodes", "3"),
             "family     n  formula  solver  cert  agree   elapsed  note\n"
             "cycle      8        8       -     8    yes elapsed  budget-exhausted\n"
             "cycle      9        8       -     8    yes elapsed  budget-exhausted\n"
             "cycle     10        9       -     9    yes elapsed  \n"),
        ],
        ids=["solved", "budget-exhausted"],
    )
    def test_text_table(self, capsys, argv, want):
        code, out, err = run(capsys, "sweep", *argv)
        assert (code, _mask_elapsed(out), err) == (0, want, "")

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
        assert (code, _mask_elapsed(out).splitlines()[1]) == (1, "cycle     10       10       -     9     NO elapsed  ")

    def test_solver_disagreement_exits_1(self, capsys, monkeypatch):
        """A proven solver value other than the formula's fails the row even
        when the certificate checks and has the formula's size."""
        record = cli.INVARIANTS["gamma_tm"]
        proven_five = SimpleNamespace(value=5, proven_optimal=True)
        monkeypatch.setitem(cli.INVARIANTS, "gamma_tm", record._replace(solve=lambda g, b=None: proven_five))
        code, out, _ = run(capsys, "sweep", "--family", "path", "--from", "4", "--to", "5",
                           "--invariant", "gamma_tm", "--exact-up-to", "4", "--certify", "--format", "csv")
        assert (code, out) == (1, "family,n,formula_value,solver_value,certificate_classes,agree,note\n"
                                  "path,4,2,5,2,false,\npath,5,3,,3,true,\n")

    def test_unchecked_row_still_fails_a_bad_certificate(self, capsys, monkeypatch):
        """Without --certify a row's certificate is still checked: one of the
        formula's size that leaves v5 uncovered fails its row."""
        record = cli.INVARIANTS["gamma_tm"]
        monkeypatch.setitem(cli.INVARIANTS, "gamma_tm", record._replace(
            construct=lambda family, n: frozenset(map(Vertex, range(1, record.formula(family, n).value + 1)))))
        code, out, _ = run(capsys, "sweep", "--family", "path", "--from", "5", "--to", "5",
                           "--invariant", "gamma_tm", "--exact-up-to", "0", "--format", "csv")
        assert (code, out) == (1, "family,n,formula_value,solver_value,certificate_classes,agree,note\n"
                                  "path,5,3,,3,false,\n")

    def test_empty_range_domain_error(self, capsys):
        code, _, _ = run(capsys, "sweep", "--family", "cycle", "--from", "9", "--to", "3")
        assert code == 3

    def test_negative_exact_bound_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--family", "cycle", "--from", "3", "--to", "5", "--exact-up-to", "-1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "argument --exact-up-to: must be non-negative" in captured.err

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


    @pytest.mark.parametrize(
        "argv,want",
        [
            ((), "family     n  chi_tt_d  chi_t_d    ratio\n"
                 "path       4         4        3   1.3333\n"
                 "path       5         5        4   1.2500\n"),
            (("--max-nodes", "0"),
             "family     n  chi_tt_d  chi_t_d    ratio\n"
             "path       4         4        -  skipped\n"
             "path       5         5        -  skipped\n"),
            (("--max-nodes", "0", "--format", "csv"),
             "family,n,chi_tt_d,chi_t_d,ratio\npath,4,4,,skipped: budget exhausted\n"
             "path,5,5,,skipped: budget exhausted\n"),
        ],
        ids=["text", "text-exhausted", "csv-exhausted"],
    )
    def test_path_4_5_table(self, capsys, argv, want):
        assert run(capsys, "ratio", "--family", "path", "--from", "4", "--to", "5", *argv) == (0, want, "")

    def test_empty_range_exit_3(self, capsys):
        code, out, err = run(capsys, "ratio", "--family", "path", "--from", "6", "--to", "5")
        assert (code, out, err) == (3, "", "domain error: empty range 6..5\n")

    def test_failed_closed_form_certificate_exit_1(self, capsys, monkeypatch):
        """The chi_tt_d column is a checked closed-form value, as in ``compute``:
        a construction one class short of the formula fails the run."""
        record = cli.INVARIANTS["chi_tt_d"]

        def one_class_short(family, n):
            classes = record.construct(family, n).classes
            return Coloring((classes[0] | classes[1], *classes[2:]))

        monkeypatch.setitem(cli.INVARIANTS, "chi_tt_d", record._replace(construct=one_class_short))
        code, out, err = run(capsys, "ratio", "--family", "path", "--from", "4", "--to", "5")
        assert (code, out) == (1, "")
        assert err.startswith("closed-form certificate failed verification for path(4): ")


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

    @pytest.mark.parametrize(
        "what,fmt,want",
        [
            ("graph", "edges", "4 3\n1 2\n2 3\n3 4\n"),
            ("graph", "dot",
             'graph G {\n  "v1";\n  "v2";\n  "v3";\n  "v4";\n'
             '  "v1" -- "v2";\n  "v2" -- "v3";\n  "v3" -- "v4";\n}\n'),
            ("total-graph", "edges", "7 11\n1 2\n1 5\n2 3\n2 5\n2 6\n3 4\n3 6\n3 7\n4 7\n5 6\n6 7\n"),
            ("total-graph", "dot",
             'graph T {\n  "v1";\n  "v2";\n  "v3";\n  "v4";\n  "e1_2";\n  "e2_3";\n  "e3_4";\n'
             '  "v1" -- "v2";\n  "v1" -- "e1_2";\n  "v2" -- "v3";\n  "v2" -- "e1_2";\n  "v2" -- "e2_3";\n'
             '  "v3" -- "v4";\n  "v3" -- "e2_3";\n  "v3" -- "e3_4";\n  "v4" -- "e3_4";\n'
             '  "e1_2" -- "e2_3";\n  "e2_3" -- "e3_4";\n}\n'),
            ("line-graph", "edges", "3 2\n1 2\n2 3\n"),
            ("line-graph", "dot",
             'graph G {\n  "e1_2";\n  "e2_3";\n  "e3_4";\n  "e1_2" -- "e2_3";\n  "e2_3" -- "e3_4";\n}\n'),
        ],
    )
    def test_graph_exports_of_p4(self, capsys, what, fmt, want):
        assert run(capsys, "export", "--family", "path", "--n", "4", "--what", what, "--format", fmt) == (0, want, "")

    @pytest.mark.parametrize("what,fmt", [("tdtc", "edges"), ("labels", "dot")])
    def test_json_exports_reject_other_formats(self, capsys, what, fmt):
        code, out, err = run(capsys, "export", "--family", "path", "--n", "4", "--what", what, "--format", fmt)
        assert (code, out, err) == (3, "", f"domain error: --what {what} only supports --format json\n")

    @pytest.mark.parametrize("what", ["graph", "total-graph", "line-graph"])
    def test_graph_exports_reject_json(self, capsys, what):
        code, out, err = run(capsys, "export", "--family", "path", "--n", "4", "--what", what, "--format", "json")
        assert (code, out, err) == (3, "", f"domain error: --what {what} supports --format edges or dot\n")


NINES = "9" * 4000


@pytest.mark.parametrize(
    "argv, text, code, field, length, limit",
    [
        pytest.param(("verify", "--family", "cycle", "--n", "300", "--kind", "tds", "{f}"),
                     '{"universe": "vertices", "objects": ["v1"]}', 1, "uncovered vertices: ", " and 288 more",
                     200, id="uncovered-list"),
        pytest.param(("compute", "--invariant", "chi_tt_d", "--graph", "{f}"), "9" * 5000 + "\n",
                     2, "header must be 'n m'", "(5000 characters)", 200, id="header"),
        pytest.param(("compute", "--invariant", "chi_tt_d", "--graph", "{f}"), "3 1\n1 2 " + "x" * 5000 + "\n",
                     2, "edge line must be 'i j'", "(5004 characters)", 200, id="edge-line"),
        pytest.param(("compute", "--invariant", "chi_tt_d", "--graph", "{f}"), f"3 1\n1 {NINES}\n",
                     2, "edge (1,", "(4000 characters)) out of range", 200, id="endpoint"),
        pytest.param(("verify", "--family", "cycle", "--n", "5", "--kind", "tds", "{f}"),
                     '{"universe": "vertices", "%s": 1, "%s": 2}' % ("k" * 5000, "k" * 5000),
                     2, "repeated key", "(5000 characters)", 200, id="key"),
        pytest.param(("verify", "--family", "cycle", "--n", "5", "--kind", "tds", "{f}"),
                     '{"universe": "%s", "objects": []}' % ("u" * 5000), 2, "bad universe", "(5000 characters)",
                     200, id="universe"),
        pytest.param(("verify", "--family", "cycle", "--n", "5", "--kind", "tmds", "{f}"),
                     '{"universe": "mixed", "objects": ["e%s_%s"]}' % (NINES, NINES),
                     2, "self-loop edge", "(4000 characters)", 260, id="self-loop-token"),
        pytest.param(("compute", "--family", "cycle", "--n", f"-{NINES}", "--invariant", "chi_tt_d"), None,
                     3, "cycle requires n >= 3", "(4001 characters)", 200, id="order"),
        pytest.param(("sweep", "--family", "cycle", "--from", NINES, "--to", "5"), None,
                     3, "empty range", "(4000 characters)..5", 200, id="range"),
    ],
)
def test_long_input_message_is_bounded(capsys, tmp_path, argv, text, code, field, length, limit):
    """A message that repeats a long value from the input shows its head and
    its length, and a long list its first 10 members and the count of the
    rest: each of these once printed the whole value, 2 to 8 KB.  The
    self-loop token's message nests three quoted values (the token and the
    edge's two indices), so its bound is 260 bytes, not 200."""
    f = tmp_path / "input"
    if text is not None:
        f.write_text(text)
    got, out, err = run(capsys, *(a.format(f=f) for a in argv))
    message = out + err
    assert got == code and "" in (out, err)
    assert len(message.encode()) <= limit
    assert field in message and length in message


def test_module_entry_point():
    """``python -m tdtc`` runs the same front end as the ``tdtc`` script."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "tdtc", "compute", "--family", "cycle", "--n", "5",
                           "--invariant", "chi_tt_d"], capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("chi_tt_d(cycle(5)) = 5\n")
