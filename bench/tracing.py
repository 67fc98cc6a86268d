"""Spans around the calls into each tdtc module, and the per-layer metrics
made from them.

The worker of a traced repetition calls ``Tracer.install`` before anything
imports ``tdtc.cli``.  It wraps each function in ``TRACED`` at every module
namespace that binds it, so calls through ``from .x import f`` names and the
solver table ``cli._SOLVERS`` (filled when ``tdtc.cli`` is imported) are
traced too.  Spans stay in memory until the repetition ends.
"""

from __future__ import annotations

import functools
import sys
import time

CHECKS = ("is_tdtc", "is_total_mixed_dominating_set", "is_mixed_independent_set")
TRACED = {
    "graphs": ("total_graph", "mixed_neighbors", "mixed_objects", "induced_subgraph", "read_edge_list"),
    "closed_forms": ("tdtc_certificate", "min_tmds", "max_mixed_independent_set", "chi_tt", "gamma_tm",
                     "alpha_mix"),
    "verify": (*CHECKS, "tdc_from_tds", "load_certificate", "coloring_to_json", "object_set_to_json"),
    "solvers": ("chromatic_number", "tdtc_number", "total_dominator_chromatic_number",
                "total_mixed_domination_number", "total_domination_number", "mixed_independence_number",
                "independence_number"),
    "cli": ("main",),
}
NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns)
SOLVERS = frozenset(i for i, name in enumerate(NAMES) if name.startswith("solvers."))
CHECKERS = frozenset(NAMES.index(f"verify.{fn}") for fn in CHECKS)

# span fields, one list per span
FN, START, END, PARENT, OP, NODES, FLAG = range(7)


class Tracer:
    """Records spans [function id, start, end, parent span, operation, nodes,
    flag].  Nodes are a solver result's ``nodes_explored``; the flag marks an
    unproven solver result or a certificate the verifier rejected."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, fid: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [fid, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if fid in SOLVERS:
                span[NODES] = result.nodes_explored
                span[FLAG] = int(not result.proven_optimal)
            elif fid in CHECKERS:
                valid = result.valid if hasattr(result, "valid") else result[0]
                span[FLAG] = int(not valid)
            return result

        return traced

    def install(self):
        """Import tdtc, wrap the traced functions, then import and return tdtc.cli."""
        import tdtc  # imports every module but cli

        modules = [sys.modules[name] for name in sorted(sys.modules) if name == "tdtc" or name.startswith("tdtc.")]
        for fid, name in enumerate(NAMES):
            module, fn = name.split(".")
            if module == "cli":
                continue
            original = getattr(getattr(tdtc, module), fn)
            traced = self._wrap(fid, original)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    setattr(mod, attr, traced)
        import tdtc.cli

        tdtc.cli.main = self._wrap(NAMES.index("cli.main"), tdtc.cli.main)
        return tdtc.cli


def layer_metrics(spans: list[list], factors: list[float]) -> dict[str, float]:
    """Per-function calls, inclusive and self time, solver nodes, and the
    derived per-module figures of one traced repetition; a span's times are
    multiplied by its operation's calibration factor."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    out: dict[str, float] = {}
    for name in NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        if name.startswith("solvers."):
            out[f"{name}.nodes"] = 0
    modules = {name.split(".")[0]: 0.0 for name in NAMES}
    nodes = wasted = rejected = 0
    for i, span in enumerate(spans):
        name = NAMES[span[FN]]
        scale = factors[span[OP]]
        dur = (span[END] - span[START]) * scale
        self_s = dur - child[i] * scale
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += dur
        out[f"{name}.self_s"] += self_s
        modules[name.split(".")[0]] += self_s
        if span[FN] in SOLVERS:
            out[f"{name}.nodes"] += span[NODES]
            # a nested solver's nodes are already in its caller's count
            if span[PARENT] < 0 or spans[span[PARENT]][FN] not in SOLVERS:
                nodes += span[NODES]
                wasted += span[NODES] if span[FLAG] else 0
        elif span[FN] in CHECKERS:
            rejected += span[FLAG]
    for module, self_s in modules.items():
        out[f"{module}.self_s"] = self_s
    out["solvers.nodes"] = nodes
    out["solvers.nodes_per_s"] = nodes / modules["solvers"] if modules["solvers"] > 0 else 0.0
    out["solvers.wasted_nodes_frac"] = wasted / nodes if nodes else 0.0
    out["verify.rejected"] = rejected
    return out
