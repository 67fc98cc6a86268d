"""Record bench/golden.json: the reference outputs every benchmark run is
checked against.

Usage, from the root of a checkout:  python3 bench/record_golden.py

It records, at the checked-out commit:
- the SHA-256 of each ``sweep`` CSV;
- the SHA-256 and value of each ``certify-large`` certificate;
- the formula values of the ``exact-family`` instances;
- the pool of random connected graphs of ``exact-random``, with each graph's
  values, proven by the solvers.

Before recording, every sweep row must agree, every certificate must pass
``tdtc verify``, every non-frontier exact instance must be proven at its
formula value, and every pool value must be proven and unchanged under a
relabelling of the graph.  Re-record only when a change of output is meant
and explained.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
POOL_SEED = 1912_01402
# (vertices, edges, graphs): random connected graphs with maximum degree >= 3
POOL_SHAPE = ((7, 9, 300),)


def _random_connected(rng: random.Random, n: int, m: int) -> list[list[int]]:
    while True:
        edges = set()
        for v in range(2, n + 1):  # a random tree, then random extra edges
            u = rng.randrange(1, v)
            edges.add((u, v))
        others = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) not in edges]
        edges.update(rng.sample(others, m - (n - 1)))
        degree = [0] * (n + 1)
        for i, j in edges:
            degree[i] += 1
            degree[j] += 1
        if max(degree) >= 3:
            return [list(e) for e in sorted(edges)]


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"record_golden: {what}")


def record() -> dict:
    from tdtc import closed_forms as cf

    golden: dict = {"sweep": {}, "certificates": {}, "exact_family": {}, "random_pool": []}
    for op in workloads.sweep_ops():
        rc, out = workloads.cli_in_process(op["argv"])
        _require(rc == 0 and ",false," not in out, f"sweep disagrees: {op['argv']}")
        golden["sweep"][op["check"]["key"]] = workloads.sha256(out)

    formula = {"tdtc": cf.chi_tt, "tmds": cf.gamma_tm, "mis": cf.alpha_mix}
    ops = workloads.certify_large_ops()
    for export, verify in zip(ops[::2], ops[1::2]):
        check = export["check"]
        _require(workloads.cli_in_process(export["argv"])[0] == 0, f"export failed: {export['argv']}")
        rc, out = workloads.cli_in_process(verify["argv"])
        _require(rc == 0 and out.startswith("valid "), f"certificate rejected: {verify['argv']}")
        what = check["key"].rsplit("-", 1)[1]
        golden["certificates"][check["key"]] = {
            "sha256": workloads.sha256(Path(check["file"]).read_bytes()),
            "value": formula[what](check["family"], check["n"]).value,
        }

    invariants = {"chi_tt_d": cf.chi_tt, "gamma_tm": cf.gamma_tm}
    for op in workloads.exact_family_ops():
        check = op["check"]
        value = invariants[check["invariant"]](check["family"], check["n"]).value
        rc, out = workloads.cli_in_process(op["argv"])
        result = json.loads(out)
        if check["frontier"]:
            _require(rc == 4 and result["value"] >= value, f"frontier instance changed: {op['argv']}")
        else:
            _require(rc == 0 and result["value"] == value, f"not proven at the formula value: {op['argv']}")
        golden["exact_family"][check["key"]] = value

    rng = random.Random(POOL_SEED)
    relabel = random.Random(POOL_SEED + 1)
    path = workloads.WORK_DIR / "pool.edges"
    for n, m, count in POOL_SHAPE:
        for _ in range(count):
            edges = _random_connected(rng, n, m)
            values = {}
            for text in (workloads.relabelled_edge_list(n, edges, random.Random(0)),
                         workloads.relabelled_edge_list(n, edges, relabel)):
                path.write_text(text)
                for inv in workloads.RANDOM_INVARIANTS:
                    argv = ["compute", "--graph", str(path), "--invariant", inv, "--format", "json"]
                    rc, out = workloads.cli_in_process(argv)
                    value = json.loads(out)["value"]
                    _require(rc == 0 and values.setdefault(inv, value) == value,
                             f"pool graph {edges}: {inv} unproven or not invariant under relabelling")
            golden["random_pool"].append({"n": n, "edges": edges, "values": values})
    return golden


def main() -> int:
    root = Path.cwd()
    _require((root / "src" / "tdtc").is_dir(), "run from the root of a tdtc checkout")
    sys.path.insert(0, str(root / "src"))
    shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)
    workloads.WORK_DIR.mkdir(parents=True)
    try:
        golden = record()
    finally:
        shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    golden = {"commit": commit or None, "python": sys.version.split()[0], **golden}
    pool = golden.pop("random_pool")  # one graph per line
    head = json.dumps(golden, indent=1)[:-2]
    body = ",\n".join("  " + json.dumps(entry) for entry in pool)
    (BENCH_DIR / "golden.json").write_text(f'{head},\n "random_pool": [\n{body}\n ]\n}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
