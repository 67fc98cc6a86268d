"""tdtc benchmark: one workload, measured for a fixed time.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Closed loop, one caller: repetitions run one after another, each in a fresh
interpreter that imports ``tdtc.cli`` and calls ``tdtc.cli.main`` once per
operation of the workload (see workloads.py).  Repetitions start until
``--seconds`` of repetition time has passed (at least MIN_REPS of them).
Every output is checked here, outside the timed region.

With ``--trace 0`` the result holds the end-to-end metrics:
- ``setup_s``: from starting an interpreter until ``import tdtc.cli``
  returns, the median of SETUP_SAMPLES_PER_REP samples per repetition;
- ``wall_s``: a typical repetition's operations, the sum over operations of
  each one's median time across repetitions;
- ``peak_rss_mb``: ``ru_maxrss`` of a repetition's process, the median.
Both times are calibrated to the machine's speed (see calibration.py); the
raw times are in the summary line.  With ``--trace 1`` traced and untraced
repetitions alternate, and the result holds the per-layer metrics of the
traced ones (see tracing.py) and the tracing overhead.

The last line of stdout is the result, ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the quartiles, repetition counts,
failures and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
MIN_REPS = 3  # per kind of repetition: untraced, and with --trace 1 also traced
SETUP_SAMPLES_PER_REP = 3
DEADLINE_S = 120  # no repetition starts later than this into the run
LIMIT_S = 160  # and none runs past this, so that a run ends within 180 s
COVERAGE_TOL = 0.02  # top-level spans must cover the traced wall time to within this share


def _quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def _typical_wall(reps: list[dict]) -> float:
    """Calibrated wall time of a typical repetition: the sum over operations
    of each operation's median calibrated time across the repetitions."""
    return sum(statistics.median(times) for times in zip(*(r["op_s"] for r in reps)))


def _unit(name: str) -> str:
    if name.endswith((".calls", ".nodes", ".rejected", ".cert_changed", ".unproven")):
        return "count"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_frac"):
        return "ratio"
    return "s"


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                             timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _setup_sample(env: dict) -> float:
    """Seconds from starting an interpreter until ``import tdtc.cli`` returns in it."""
    start = time.monotonic()
    out = subprocess.run([sys.executable, "-c", "import tdtc.cli, time; print(time.monotonic())"],
                         env=env, capture_output=True, text=True, timeout=30, check=True)
    return float(out.stdout) - start


def _repetition(env: dict, traced: bool, ops_path: Path, n_ops: int, timeout: float) -> tuple[dict, str | None]:
    """Run one repetition; returns (worker result, error or None)."""
    result_path = workloads.WORK_DIR / "result.json"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "1" if traced else "0", str(ops_path), str(result_path)]
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {}, f"repetition timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not result_path.exists():
        return {}, f"worker exited with {proc.returncode}: {proc.stderr[-500:]}"
    result = json.loads(result_path.read_text())
    if len(result["ops"]) != n_ops:
        return {}, "worker reported the wrong number of operations"
    return result, None


def run(workload: str, seed: int, seconds: float, trace: bool, golden: dict, root: Path) -> tuple[dict, dict]:
    ops, files = workloads.build(workload, seed, golden)
    for path, text in files.items():
        Path(path).write_text(text)
    ops_path = workloads.WORK_DIR / "ops.json"
    ops_path.write_text(json.dumps([op["argv"] for op in ops]))
    # children cache bytecode, as an installed package has it, inside the work
    # directory whatever the caller's environment says
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONPYCACHEPREFIX=str(root / workloads.WORK_DIR / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    checker = workloads.Checker(golden, files)

    _setup_sample(env)  # fills the bytecode cache; not counted
    setup: list[tuple[float, float]] = []
    reps, failures = [], []
    attempted = failed = 0
    start = time.monotonic()
    spent = 0.0
    while True:
        counts = {kind: sum(1 for r in reps if r["traced"] == kind) for kind in (False, True)}
        done = counts[False] >= MIN_REPS and (not trace or counts[True] >= MIN_REPS)
        if (done and spent >= seconds) or time.monotonic() - start > DEADLINE_S:
            break
        traced = trace and len(reps) % 2 == 0
        raw_setup = [] if trace else [_setup_sample(env) for _ in range(SETUP_SAMPLES_PER_REP)]
        began = time.monotonic()
        result, error = _repetition(env, traced, ops_path, len(ops), LIMIT_S - (began - start))
        spent += time.monotonic() - began
        attempted += len(ops)
        if error is not None:  # a crashed worker would crash again
            failed += len(ops)
            failures.append(error)
            break
        rep = checker.judge(ops, result["ops"])
        raw = [dt for _, dt, _ in result["ops"]]
        factors = calibration.op_factors(len(ops), result["refs"])
        ref = statistics.median(t for _, t in result["refs"])
        rep.update(traced=traced, op_s=[dt * f for dt, f in zip(raw, factors)],
                   raw_wall_s=sum(raw), ref_s=ref, peak_rss_mb=result["rss_kb"] / 1024)
        # the set-up samples ran just before this repetition, at its speed
        setup += [(t, t * calibration.REF_S / ref) for t in raw_setup]
        failed += len(rep["failures"])
        failures += rep["failures"]
        if traced:
            spans = result["spans"]
            rep["layers"] = tracing.layer_metrics(spans, factors)
            top = sum(s[tracing.END] - s[tracing.START] for s in spans if s[tracing.PARENT] < 0)
            rep["coverage"] = top / rep["raw_wall_s"]
        reps.append(rep)

    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    integrity_ok = True
    if plain:
        reference = plain[0]["digests"]
        for rep in traced_reps:
            mismatched = sum(a != b for a, b in zip(rep["digests"], reference))
            if mismatched:
                failed += mismatched
                failures.append(f"{mismatched} traced outputs differ from the untraced ones")
    for rep in traced_reps:
        if abs(rep["coverage"] - 1) > COVERAGE_TOL:
            integrity_ok = False
            failures.append(f"top-level spans cover {rep['coverage']:.4f} of the traced wall time")

    summary = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
               "ops_per_rep": len(ops), "reps": len(plain), "traced_reps": len(traced_reps),
               "failures": failures[:20]}
    metrics: dict[str, float] = {}
    if plain:
        summary["wall_s"] = _typical_wall(plain)
        for name in ("raw_wall_s", "ref_s", "peak_rss_mb", "cert_changed", "unproven"):
            summary[name] = _quartiles([r[name] for r in plain])
    if setup:
        summary["raw_setup_s"] = _quartiles([raw for raw, _ in setup])
        summary["setup_s"] = _quartiles([calibrated for _, calibrated in setup])
    if not trace and plain:
        metrics = {"setup_s": summary["setup_s"]["median"], "wall_s": summary["wall_s"],
                   "peak_rss_mb": summary["peak_rss_mb"]["median"]}
    elif trace and plain and traced_reps:
        for name in traced_reps[0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name] for r in traced_reps)
        summary["traced_wall_s"] = _typical_wall(traced_reps)
        summary["traced_raw_wall_s"] = _quartiles([r["raw_wall_s"] for r in traced_reps])
        metrics["closed_forms.cert_changed"] = summary["cert_changed"]["median"]
        metrics["solvers.unproven"] = summary["unproven"]["median"]
        metrics["trace.coverage_frac"] = statistics.median(r["coverage"] for r in traced_reps)
        metrics["trace.overhead_frac"] = summary["traced_wall_s"] / summary["wall_s"] - 1
    result = {
        "correct": failed == 0 and integrity_ok and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }
    return result, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # end the run on SIGTERM as on Ctrl-C: subprocess.run then kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "tdtc" / "cli.py").is_file():
        print("bench: run from the root of a tdtc checkout (src/tdtc not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # the checker verifies certificates with tdtc.verify
    golden = json.loads((BENCH_DIR / "golden.json").read_text())

    env = {"python": platform.python_version(), "implementation": platform.python_implementation(),
           "platform": platform.platform(), "nproc": len(os.sched_getaffinity(0)),
           "loadavg_before": os.getloadavg(), "commit": _git_commit(root)}
    shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)
    workloads.WORK_DIR.mkdir(parents=True)
    try:
        result, summary = run(args.workload, args.seed, args.seconds, bool(args.trace), golden, root)
    finally:
        shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()
    summary["env"] = env
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
