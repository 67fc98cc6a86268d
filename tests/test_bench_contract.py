"""The benchmark's tracer against the library: every function it wraps must
exist, and installing it must still yield a working, traced CLI.  The
library must also still give the benchmark's self-check the failure it
provokes, and the certificates and sweep tables the benchmark's golden
record pins, byte for byte.

``bench/`` is only read here; its modules are loaded without writing
bytecode next to them.
"""

import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tdtc.cli as cli

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _tracing() -> types.ModuleType:
    path = BENCH / "tracing.py"
    module = types.ModuleType("bench_tracing")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_traced_functions_exist():
    for module, fns in _tracing().TRACED.items():
        lib = importlib.import_module(f"tdtc.{module}")
        missing = [fn for fn in fns if not callable(getattr(lib, fn, None))]
        assert not missing, f"tdtc.{module} lacks {missing}"


_TRACED_RUN = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer, layer_metrics

tracer = Tracer()
cli = tracer.install()
tracer.op = 0
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for inv in ("chi_tt_d", "gamma_tm", "alpha_mix"):
        codes.append(cli.main(["sweep", "--family", "cycle", "--from", "3", "--to", "12",
                               "--invariant", inv, "--exact-up-to", "5", "--certify", "--format", "csv"]))
print(json.dumps({"codes": codes, "metrics": layer_metrics(tracer.spans, [1.0])}))
"""


def test_tracer_installs_and_traces_a_sweep():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _TRACED_RUN, str(BENCH)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    metrics = result["metrics"]
    assert metrics["cli.main.calls"] == 3
    for name in ("verify.is_tdtc", "verify.is_total_mixed_dominating_set", "verify.is_mixed_independent_set",
                 "closed_forms.tdtc_certificate", "solvers.tdtc_number"):
        assert metrics[f"{name}.calls"] > 0, name
    assert metrics["verify.rejected"] == 0
    assert metrics["solvers.nodes"] > 0


def test_selfcheck_budget_stays_too_small_for_c10():
    """``bench/selfcheck.py`` (about 90 s, so not run here) starves
    chi_tt_d(C_10) of nodes and expects the operation to fail; a search gain
    that proves C_10 within its 1,000 nodes must fail here first."""
    from tdtc import SearchBudget, cycle, tdtc_number

    assert not tdtc_number(cycle(10), SearchBudget(max_nodes=1000)).proven_optimal


GOLDEN = json.loads((BENCH / "golden.json").read_text())


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stdout(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("key", sorted(GOLDEN["sweep"]))
def test_sweep_tables_match_the_golden_record(key):
    """``sweep --certify --format csv`` over n = 3..100, as the benchmark
    runs it; the key is ``invariant-family``."""
    invariant, family = key.split("-")
    code, out = _stdout(["sweep", "--family", family, "--from", "3", "--to", "100",
                         "--invariant", invariant, "--certify", "--format", "csv"])
    assert code == 0 and _sha256(out.encode()) == GOLDEN["sweep"][key]


@pytest.mark.parametrize("key", sorted(GOLDEN["certificates"]))
def test_exported_certificates_match_the_golden_record(key, tmp_path):
    """``export --what tdtc|tmds|mis`` of C_n and P_n, n = 1000 and 1200;
    the key is ``family-n-what``."""
    family, n, what = key.split("-")
    target = tmp_path / "cert.json"
    code, out = _stdout(["export", "--family", family, "--n", n, "--what", what, "--out", str(target)])
    assert code == 0 and out == f"wrote {target}\n"
    assert _sha256(target.read_bytes()) == GOLDEN["certificates"][key]["sha256"]
