"""One repetition of a workload in a fresh interpreter.

Usage: python3 bench/worker.py TRACE OPS_JSON RESULT_JSON

Runs every operation listed in OPS_JSON (a list of argv lists) through
``tdtc.cli.main``, capturing stdout, and writes a JSON object to RESULT_JSON:
``ops`` ([exit code, seconds, stdout] per operation), ``refs`` (the
reference work's time, measured between operations; see calibration.py),
``rss_kb`` (``ru_maxrss`` of this process) and, with TRACE 1, ``spans``.
Python's path must reach ``src``.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def main(argv: list[str]) -> int:
    trace, ops_path, result_path = argv
    tracer = None
    if trace == "1":
        from tracing import Tracer

        tracer = Tracer()
        cli = tracer.install()
    else:
        import tdtc.cli as cli

    from calibration import REF_EVERY_S, reference_s

    with open(ops_path) as f:
        ops = json.load(f)
    results = []
    refs = [[-1, reference_s()]]
    last_ref = time.perf_counter()
    for i, op_argv in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(op_argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        except Exception:  # an escaped exception fails the operation, not the run
            rc = traceback.format_exc()
        results.append([rc, time.perf_counter() - start, out.getvalue()])
        if i == len(ops) - 1 or time.perf_counter() - last_ref >= REF_EVERY_S:
            refs.append([i, reference_s()])
            last_ref = time.perf_counter()

    payload = {"ops": results, "refs": refs, "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        payload["spans"] = tracer.spans
    with open(result_path, "w") as f:
        json.dump(payload, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
