"""The benchmark's workloads: the CLI operations of one repetition, and the
checks on their outputs.

Every operation is one ``tdtc.cli.main`` call.  Each repetition runs a
workload's whole operation list, in order, in a fresh interpreter (see
worker.py).  The checks run in the parent process, outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
from pathlib import Path

WORK_DIR = Path("bench") / ".work"

SWEEP_TO = 100
SWEEP_INVARIANTS = ("chi_tt_d", "gamma_tm", "alpha_mix")
FAMILIES = ("cycle", "path")

LARGE_N = (1000, 1200)
# --what of `tdtc export` and the matching --kind of `tdtc verify`
EXPORTS = (("tdtc", "tdtc"), ("tmds", "tmds"), ("mis", "mixed-independent"))

# (invariant, family, n, --max-nodes, frontier).  A frontier instance is not
# provable within its budget at the seed commit; it may end unproven (exit
# code 4) with a valid certificate whose value is at least the formula's.
FRONTIER_BUDGET = 300_000
EXACT_FAMILY = (
    ("chi_tt_d", "cycle", 10, None, False),
    ("chi_tt_d", "path", 11, None, False),
    ("gamma_tm", "cycle", 35, None, False),
    ("gamma_tm", "cycle", 38, None, False),
    ("chi_tt_d", "cycle", 13, FRONTIER_BUDGET, True),
    ("chi_tt_d", "path", 14, FRONTIER_BUDGET, True),
)

RANDOM_INVARIANTS = ("chi_tt_d", "chi_t_d", "gamma_tm")
# far above the most any pool graph needs under any labelling, so an
# unproven random instance is a regression, not bad luck
RANDOM_MAX_NODES = 2_000_000

WORKLOADS = ("sweep", "certify-large", "exact-family", "exact-random")


def cli_in_process(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of one ``tdtc.cli.main`` call in this process."""
    from tdtc.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Operation lists
# ---------------------------------------------------------------------------


def _op(argv: list[str], **check) -> dict:
    return {"argv": argv, "check": check}


def sweep_ops() -> list[dict]:
    return [
        _op(["sweep", "--family", family, "--from", "3", "--to", str(SWEEP_TO),
             "--invariant", inv, "--certify", "--format", "csv"],
            type="sweep", key=f"{inv}-{family}")
        for inv in SWEEP_INVARIANTS
        for family in FAMILIES
    ]


def certify_large_ops() -> list[dict]:
    ops = []
    for n in LARGE_N:
        for family in FAMILIES:
            for what, kind in EXPORTS:
                key = f"{family}-{n}-{what}"
                path = str(WORK_DIR / f"{key}.json")
                source = ["--family", family, "--n", str(n)]
                ops.append(_op(["export", *source, "--what", what, "--out", path],
                               type="export", key=key, file=path, family=family, n=n, kind=kind))
                ops.append(_op(["verify", *source, "--kind", kind, path], type="verify"))
    return ops


def exact_family_ops() -> list[dict]:
    ops = []
    for inv, family, n, max_nodes, frontier in EXACT_FAMILY:
        argv = ["compute", "--family", family, "--n", str(n), "--invariant", inv, "--exact", "--format", "json"]
        if max_nodes is not None:
            argv += ["--max-nodes", str(max_nodes)]
        ops.append(_op(argv, type="exact", key=f"{inv}-{family}-{n}", invariant=inv,
                       family=family, n=n, frontier=frontier))
    return ops


def relabelled_edge_list(n: int, edges: list[list[int]], rng: random.Random) -> str:
    """The graph under a random vertex relabelling, with edge lines and the
    endpoints within each line in random order."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    lines = []
    for i, j in edges:
        a, b = perm[i - 1], perm[j - 1]
        lines.append(f"{a} {b}" if rng.random() < 0.5 else f"{b} {a}")
    rng.shuffle(lines)
    return "\n".join([f"{n} {len(edges)}", *lines]) + "\n"


def exact_random_ops(pool: list[dict], seed: int) -> tuple[list[dict], dict[str, str]]:
    """Operations on the seed's relabelling of every pool graph, and the
    edge-list files they read (path -> text).

    The values are isomorphism invariants, so the values recorded for the
    pool check every seed; the labels, which steer the solvers' orderings,
    change with the seed.
    """
    rng = random.Random(seed)
    ops, files = [], {}
    for idx, entry in enumerate(pool):
        path = str(WORK_DIR / f"random-{idx:03d}.edges")
        files[path] = relabelled_edge_list(entry["n"], entry["edges"], rng)
        for inv in RANDOM_INVARIANTS:
            ops.append(_op(["compute", "--graph", path, "--invariant", inv, "--format", "json",
                            "--max-nodes", str(RANDOM_MAX_NODES)],
                           type="exact", key=f"random-{idx:03d}-{inv}", invariant=inv,
                           graph_file=path, expected=entry["values"][inv], frontier=False))
    return ops, files


def build(workload: str, seed: int, golden: dict) -> tuple[list[dict], dict[str, str]]:
    """(operations, input files to write) for one workload and seed."""
    if workload == "sweep":
        return sweep_ops(), {}
    if workload == "certify-large":
        return certify_large_ops(), {}
    if workload == "exact-family":
        ops = exact_family_ops()
        for op in ops:
            op["check"]["expected"] = golden["exact_family"][op["check"]["key"]]
        return ops, {}
    if workload == "exact-random":
        return exact_random_ops(golden["random_pool"], seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def canonical_output(op: dict, stdout: str) -> str:
    """Digest of an operation's output, for comparing runs byte for byte.

    ``compute --format json`` reports its own elapsed time, which is the one
    field that differs between identical runs, so it is left out.  Exports are
    judged by the file they write.
    """
    check = op["check"]
    if check["type"] == "export":
        try:
            return sha256(Path(check["file"]).read_bytes())
        except OSError:
            return "missing"
    if check["type"] == "exact":
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError:
            return sha256(stdout)
        payload.pop("elapsed", None)
        return sha256(json.dumps(payload, sort_keys=True))
    return sha256(stdout)


class Checker:
    """Judges operation outputs against the golden record and tdtc.verify.

    Verdicts are cached by output digest: identical outputs from later
    repetitions are judged once.
    """

    def __init__(self, golden: dict, files: dict[str, str]):
        from tdtc import closed_forms, graphs, verify

        self.golden = golden
        self.files = files
        self._cf, self._graphs, self._verify = closed_forms, graphs, verify
        self._cache: dict[tuple, tuple[bool, dict]] = {}

    def judge(self, ops: list[dict], outputs: list[list]) -> dict:
        """Check one repetition's [exit code, seconds, stdout] per operation;
        returns the output digests, the failed operations and the counts."""
        rep = {"digests": [], "failures": [], "cert_changed": 0, "unproven": 0}
        for op, (rc, _, stdout) in zip(ops, outputs):
            digest = canonical_output(op, stdout)
            ok, counts = self.check(op, rc, stdout, digest)
            rep["digests"].append(digest)
            for name, count in counts.items():
                rep[name] += count
            if not ok:
                rep["failures"].append(f"{' '.join(op['argv'])}: exit {rc}")
        return rep

    def check(self, op: dict, rc, stdout: str, digest: str) -> tuple[bool, dict]:
        """(passed, counts); counts may hold 'cert_changed' and 'unproven'."""
        exact = op["check"]["type"] == "exact"  # its stdout differs only in 'elapsed'
        key = (tuple(op["argv"]), rc, digest, None if exact else stdout)
        if key not in self._cache:
            self._cache[key] = self._judge(op["check"], rc, stdout, digest)
        return self._cache[key]

    def _judge(self, check: dict, rc, stdout: str, digest: str) -> tuple[bool, dict]:
        kind = check["type"]
        if kind == "sweep":
            rows = list(csv.DictReader(io.StringIO(stdout)))
            ok = (rc == 0 and digest == self.golden["sweep"][check["key"]]
                  and bool(rows) and all(r["agree"] == "true" for r in rows))
            return ok, {}
        if kind == "verify":
            return rc == 0 and stdout.startswith("valid "), {}
        if kind == "export":
            return self._judge_export(check, rc, stdout, digest)
        return self._judge_exact(check, rc, stdout)

    def _graph(self, check: dict):
        if "graph_file" in check:
            return self._graphs.read_edge_list(self.files[check["graph_file"]])
        return self._cf.FamilyInstance(check["family"], check["n"]).graph()

    def _certificate_ok(self, g, what: str, data, value: int) -> bool:
        """tdtc.verify's verdict on a certificate dict claiming ``value``;
        ``what`` is an invariant or a ``tdtc verify`` kind."""
        v = self._verify
        try:
            _, cert = v.certificate_from_json(data)
            if what in ("tdtc", "chi_tt_d"):
                ok = v.is_tdtc(g, cert).valid and cert.num_classes == value
            elif what == "chi_t_d":
                ok = v.is_tdc(g, cert).valid and cert.num_classes == value
            elif what in ("tmds", "gamma_tm"):
                ok = v.is_total_mixed_dominating_set(g, cert)[0] and len(cert) == value
            else:
                ok = v.is_mixed_independent_set(g, cert)[0] and len(cert) == value
        except (ValueError, AttributeError, TypeError):
            return False
        return ok

    def _judge_export(self, check: dict, rc, stdout: str, digest: str) -> tuple[bool, dict]:
        record = self.golden["certificates"][check["key"]]
        if rc != 0 or stdout != f"wrote {check['file']}\n" or digest == "missing":
            return False, {}
        if digest == record["sha256"]:
            return True, {}
        # a changed certificate passes if tdtc.verify accepts it at the same value
        try:
            data = json.loads(Path(check["file"]).read_text())
        except (OSError, json.JSONDecodeError):
            return False, {}
        ok = self._certificate_ok(self._graph(check), check["kind"], data, record["value"])
        return ok, {"cert_changed": 1} if ok else {}

    def _judge_exact(self, check: dict, rc, stdout: str) -> tuple[bool, dict]:
        try:
            payload = json.loads(stdout)
            value, proven, data = payload["value"], payload["proven_optimal"], payload["certificate"]
        except (json.JSONDecodeError, KeyError, TypeError):
            return False, {}
        if not self._certificate_ok(self._graph(check), check["invariant"], data, value):
            return False, {}
        expected = check["expected"]
        if proven:
            return rc == 0 and value == expected, {}
        # budget exhausted: allowed only on frontier instances, as an upper bound
        ok = check["frontier"] and rc == 4 and value >= expected
        return ok, {"unproven": 1} if ok else {}
