"""Checks that the benchmark counts failures and reports every metric.

Usage, from the root of a checkout:  python3 bench/selfcheck.py

1. A certificate corrupted between export and verify (two objects of
   different classes swapped, so that a class holds two adjacent objects)
   fails both operations of the round trip.
2. A node budget too small to prove chi_tt_d(C_10) fails the operation.
3. A short run of each workload, untraced and traced, passes its checks and
   reports every metric BENCHMARK.json names, with its unit.

Prints one PASS/FAIL line per check; the exit code is the number of failures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent


def _run_in_process(ops: list[dict]) -> list[list]:
    """[exit code, seconds (unused), stdout] per operation, as a worker reports them."""
    return [[rc, 0.0, out] for rc, out in (workloads.cli_in_process(op["argv"]) for op in ops)]


def _failed_frac(checker: workloads.Checker, ops: list[dict], outputs: list[list]) -> float:
    return len(checker.judge(ops, outputs)["failures"]) / len(ops)


def _corrupt(path: Path, family: str, n: int) -> None:
    """Swap object x of one class with an object of the class holding a
    neighbour y of x, so that x and y share a class."""
    from tdtc import closed_forms, graphs

    data = json.loads(path.read_text())
    classes = [set(c) for c in data["classes"]]
    neighbors = graphs.mixed_neighbors(closed_forms.FamilyInstance(family, n).graph())
    x = min(classes[0])
    y = graphs.format_object(next(iter(neighbors[graphs.parse_object(x)])))
    b = next(i for i, c in enumerate(classes) if y in c)
    z = next((o for o in classes[b] if o != y), None)
    classes[0].remove(x)
    classes[b].add(x)
    if z is not None:
        classes[b].remove(z)
        classes[0].add(z)
    data["classes"] = [sorted(c) for c in classes if c]
    path.write_text(json.dumps(data, indent=2) + "\n")


def check_corrupted_certificate(golden: dict) -> bool:
    export, verify_op = workloads.certify_large_ops()[:2]
    checker = workloads.Checker(golden, {})
    clean = _failed_frac(checker, [export, verify_op],
                         _run_in_process([export]) + _run_in_process([verify_op]))
    outputs = _run_in_process([export])
    _corrupt(Path(export["check"]["file"]), export["check"]["family"], export["check"]["n"])
    outputs += _run_in_process([verify_op])
    corrupted = _failed_frac(checker, [export, verify_op], outputs)
    print(f"corrupted certificate: failed_frac {clean} clean, {corrupted} corrupted")
    return clean == 0 and corrupted == 1


def check_small_budget(golden: dict) -> bool:
    ops, _ = workloads.build("exact-family", 1, golden)
    op = next(o for o in ops if o["check"]["key"] == "chi_tt_d-cycle-10")
    starved = {"argv": op["argv"] + ["--max-nodes", "1000"], "check": op["check"]}
    checker = workloads.Checker(golden, {})
    clean = _failed_frac(checker, [op], _run_in_process([op]))
    budgeted = _failed_frac(checker, [starved], _run_in_process([starved]))
    print(f"budget too small for C_10: failed_frac {clean} unbudgeted, {budgeted} with 1000 nodes")
    return clean == 0 and budgeted == 1


def check_smoke_runs(root: Path) -> bool:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    ok = True
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"smoke {workload} --trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                ok = False
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            passed = result["correct"] and result["failed"] == 0 and got == expected
            print(f"smoke {workload} --trace {trace}: {'ok' if passed else 'WRONG'} "
                  f"({result['attempted']} operations, {len(got)} metrics)")
            ok = ok and passed
    return ok


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)
    workloads.WORK_DIR.mkdir(parents=True)
    try:
        results = {
            "corrupted certificate fails the round trip": check_corrupted_certificate(golden),
            "unprovable budget fails the operation": check_small_budget(golden),
        }
    finally:
        shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)
    results["smoke runs report every metric"] = check_smoke_runs(root)
    for name, passed in results.items():
        print(f"{'PASS' if passed else 'FAIL'}: {name}")
    return sum(not passed for passed in results.values())


if __name__ == "__main__":
    sys.exit(main())
