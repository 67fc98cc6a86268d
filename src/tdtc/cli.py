"""Command-line front end.

Subcommands: compute, verify, sweep, ratio, export.  All results go to
stdout; files are written only through --out.  ``compute --format json``
prints a solver's elapsed time and the --out notice on stderr, so its
stdout is the JSON alone and identical runs give identical stdout.  Exit
codes: 0 ok, 1 verification or agreement failure, 2 parse error or a file
that cannot be read or written, 3 domain error, 4 budget exhausted.

For cycle/path instances the formula-backed invariants (alpha_mix,
gamma_tm, chi_tt_d) are answered from the closed forms with a verified
certificate; --exact forces the solver instead.  Arbitrary graphs always
go through the solvers.

``INVARIANTS`` is the one place an invariant is defined, and ``KINDS`` the
one place a ``verify --kind`` is defined.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

from . import closed_forms as cf
from . import solvers, verify
from .graphs import (
    Coloring,
    DomainError,
    Graph,
    GraphParseError,
    labels_to_json,
    line_graph,
    quote_list,
    quote_token,
    read_edge_list,
    to_dot,
    total_graph,
    write_edge_list,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_BUDGET = 4


class Invariant(NamedTuple):
    """How the subcommands compute and check one invariant.

    The closed-form fields are set only for the invariants with cycle/path
    formulas: ``formula`` and ``construct`` take (family, n), ``export`` is
    the ``export --what`` name of the construction, and ``exact_up_to`` maps
    each family to the default ``sweep --exact-up-to``.
    """

    solve: Callable
    universe: str
    kind: str  # the `verify --kind` that checks its certificates
    formula: Callable | None = None
    construct: Callable | None = None
    export: str | None = None
    exact_up_to: dict | None = None
    provenance: Callable = lambda family, n: "closed-form"


class Kind(NamedTuple):
    """How ``verify --kind`` checks one kind of certificate.

    ``checks`` maps each universe the kind accepts to its check, and
    ``coloring`` tells a coloring certificate from an object set.  A
    dominator check returns a report; any other returns (ok, offending
    objects), and ``label`` says what is wrong: ``{0}`` and ``{1}`` take the
    quoted tokens of an offending pair, and ``{listed}`` the quoted list of
    the uncovered objects' tokens.
    """

    checks: dict
    label: str | None
    coloring: bool


_V, _M = verify.VERTEX_UNIVERSE, verify.MIXED_UNIVERSE
KINDS = {
    "proper": Kind({_V: verify.is_proper_coloring, _M: verify.is_proper_total_coloring},
                   "monochromatic adjacent pair: ({0}, {1})", coloring=True),
    "tds": Kind({_V: verify.is_total_dominating_set}, "uncovered vertices: {listed}", coloring=False),
    "tdc": Kind({_V: verify.is_tdc}, None, coloring=True),
    "tdtc": Kind({_M: verify.is_tdtc}, None, coloring=True),
    "tmds": Kind({_M: verify.is_total_mixed_dominating_set}, "uncovered objects: {listed}", coloring=False),
    "independent": Kind({_V: verify.is_independent_set}, "adjacent pair in set: ({0}, {1})", coloring=False),
    "mixed-independent": Kind({_M: verify.is_mixed_independent_set}, "adjacent or incident pair in set: ({0}, {1})",
                              coloring=False),
}

INVARIANTS = {
    "alpha": Invariant(solvers.independence_number, _V, "independent"),
    "chi": Invariant(solvers.chromatic_number, _V, "proper"),
    "gamma_t": Invariant(solvers.total_domination_number, _V, "tds"),
    "chi_t_d": Invariant(solvers.total_dominator_chromatic_number, _V, "tdc"),
    "alpha_mix": Invariant(solvers.mixed_independence_number, _M, "mixed-independent",
                           formula=cf.alpha_mix, construct=cf.max_mixed_independent_set, export="mis",
                           exact_up_to={cf.CYCLE: 25, cf.PATH: 25}),
    "gamma_tm": Invariant(solvers.total_mixed_domination_number, _M, "tmds",
                          formula=cf.gamma_tm, construct=cf.min_tmds, export="tmds",
                          exact_up_to={cf.CYCLE: 14, cf.PATH: 14}),
    "chi_total": Invariant(solvers.total_chromatic_number, _M, "proper"),
    "chi_tt_d": Invariant(solvers.tdtc_number, _M, "tdtc",
                          formula=cf.chi_tt, construct=cf.tdtc_certificate, export="tdtc",
                          exact_up_to={cf.CYCLE: 9, cf.PATH: 8}, provenance=cf.certificate_source),
}
FORMULA_INVARIANTS = tuple(key for key, inv in INVARIANTS.items() if inv.formula)
_EXPORTS = {inv.export: inv for inv in INVARIANTS.values() if inv.export}
# the formats of each ``export --what``; the first is the default
_EXPORT_FORMATS = {
    **dict.fromkeys(("graph", "total-graph", "line-graph"), ("edges", "dot")),
    **dict.fromkeys(("labels", *_EXPORTS), ("json",)),
}


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=(cf.CYCLE, cf.PATH), help="graph family")
    p.add_argument("--n", type=int, help="order of the family instance")
    p.add_argument("--graph", metavar="FILE", help="edge-list file (first line 'n m', then 'i j' lines)")


def _add_family_range(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=(cf.CYCLE, cf.PATH), required=True)
    p.add_argument("--from", dest="from_n", type=int, required=True)
    p.add_argument("--to", dest="to_n", type=int, required=True)


def _non_negative(kind):
    """argparse type: a number of the given kind that is neither negative nor NaN."""

    def parse(text: str):
        value = kind(text)
        if not value >= 0:  # also true for NaN
            raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value" message names the type
    return parse


def _add_budget(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-nodes", type=_non_negative(int), default=None, help="search node limit")
    p.add_argument("--max-time", type=_non_negative(float), default=None, help="search time limit in seconds")


def _budget(args) -> solvers.SearchBudget:
    return solvers.SearchBudget(max_nodes=args.max_nodes, max_time=args.max_time)


def _family_range(args) -> range:
    """The orders ``--from``..``--to``; an empty range is a domain error."""
    if args.from_n > args.to_n:
        raise DomainError(f"empty range {quote_token(args.from_n)}..{quote_token(args.to_n)}")
    return range(args.from_n, args.to_n + 1)


def _proven_value(inv: Invariant, g: Graph, budget) -> int | None:
    """The invariant of ``g`` if the solver proves it within the budget, else None."""
    result = inv.solve(g, budget)
    return result.value if result.proven_optimal else None


def _graph_source(args) -> tuple[Graph, str, tuple[str, int] | None]:
    """Resolve (--family, --n) or --graph into (graph, display name, family info)."""
    family, graph_file = args.family, args.graph
    if graph_file is not None and (family is not None or args.n is not None):
        raise GraphParseError("give either --family/--n or --graph, not both")
    if family is not None:
        if args.n is None:
            raise GraphParseError("--family requires --n")
        inst = cf.FamilyInstance(family, args.n)
        return inst.graph(), f"{family}({args.n})", (family, args.n)
    if graph_file is not None:
        text = _read_file(graph_file)
        return read_edge_list(text), graph_file, None
    raise GraphParseError("a graph source is required (--family/--n or --graph)")


def _reason(exc: Exception) -> str:
    """Why a file could not be read or written, without the path: an
    ``OSError``'s text repeats the path its message already shows."""
    return getattr(exc, "strerror", None) or str(exc)


def _read_file(path_str: str) -> str:
    try:
        return Path(path_str).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphParseError(f"cannot read {path_str}: {_reason(exc)}") from exc


def _write_file(path_str: str, text: str) -> None:
    try:
        Path(path_str).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise GraphParseError(f"cannot write {path_str}: {_reason(exc)}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        _write_file(out, text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def _size(certificate) -> int:
    return certificate.num_classes if isinstance(certificate, Coloring) else len(certificate)


def _certificate_json(universe: str, certificate, provenance: str | None = None) -> dict:
    if isinstance(certificate, Coloring):
        return verify.coloring_to_json(certificate, universe, provenance)
    return verify.object_set_to_json(certificate, universe, provenance)


def _cert_summary(certificate) -> str:
    if isinstance(certificate, Coloring):
        return f"coloring with {certificate.num_classes} classes"
    return f"object set with {len(certificate)} elements"


def _check(kind: str, universe: str, g: Graph, cert) -> str:
    """Check a certificate as ``verify --kind`` does; returns what is wrong,
    naming objects by their certificate tokens, or "" when nothing is."""

    def token(obj) -> str:
        return verify.member_token(obj, universe)

    spec = KINDS[kind]
    result = spec.checks[universe](g, cert)
    if isinstance(result, verify.DominationReport):
        if not result.proper:
            a, b, k = result.properness_violations[0]
            return f"improper: {token(a)} and {token(b)} share class {k}"
        if result.undominated:
            return f"object {token(result.undominated[0])} dominates no color class"
        return ""
    ok, bad = result
    if ok:
        return ""
    tokens = [token(o) for o in bad]
    return spec.label.format(*map(quote_token, tokens), listed=quote_list(tokens))


def _closed_form(inv: Invariant, family: str, n: int, g: Graph) -> tuple:
    """(formula value, certificate, what is wrong) of a family instance
    ``g``: the certificate is constructed, checked as its kind is, and its
    size compared with the formula value; what is wrong is "" when nothing
    is.  ``compute``, every ``sweep`` row and every ``ratio`` row report
    what this finds."""
    fv = inv.formula(family, n)
    cert = inv.construct(family, n)
    detail = _check(inv.kind, inv.universe, g, cert)
    if not detail and _size(cert) != fv.value:
        detail = f"certificate size {_size(cert)}, formula value {fv.value}"
    return fv, cert, detail


def _closed_form_failed(name: str, detail: str) -> int:
    print(f"closed-form certificate failed verification for {name}: {detail}", file=sys.stderr)
    return EXIT_FAIL


def cmd_compute(args) -> int:
    g, name, family_info = _graph_source(args)
    key = args.invariant
    inv = INVARIANTS[key]
    payload = {"invariant": key, "graph": name}
    elapsed = None
    if family_info is not None and inv.formula is not None and not args.exact:
        family, n = family_info
        fv, cert, detail = _closed_form(inv, family, n, g)
        if detail:
            return _closed_form_failed(name, detail)
        payload.update(value=fv.value, route="closed-form", case=fv.case_tag, proven_optimal=True,
                       certificate=_certificate_json(inv.universe, cert, inv.provenance(family, n)))
    else:
        result = inv.solve(g, _budget(args))
        cert, elapsed = result.certificate, result.elapsed
        payload.update(value=result.value, route="solver", proven_optimal=result.proven_optimal,
                       nodes_explored=result.nodes_explored, certificate=_certificate_json(inv.universe, cert))

    if args.out:  # before any output, so a failed write leaves stdout empty
        _write_file(args.out, json.dumps(payload["certificate"], indent=2) + "\n")
    if args.format == "json":
        # the one field that differs between identical runs stays off stdout
        print(json.dumps(payload, indent=2))
        if elapsed is not None:
            print(f"elapsed: {elapsed:.6f}s", file=sys.stderr)
    else:
        print(f"{key}({name}) = {payload['value']}")
        print(f"  route: {payload['route']}" + (f" [{payload['case']}]" if "case" in payload else ""))
        print(f"  certificate: {_cert_summary(cert)}")
        if elapsed is not None:
            flag = "yes" if payload["proven_optimal"] else "NO (budget exhausted; value is a bound)"
            print(f"  nodes: {payload['nodes_explored']}, elapsed: {elapsed:.3f}s, proven optimal: {flag}")
    if args.out:
        # json stdout carries the payload alone
        print(f"certificate written to {args.out}", file=sys.stderr if args.format == "json" else sys.stdout)
    return EXIT_OK if payload["proven_optimal"] else EXIT_BUDGET


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    g, name, _ = _graph_source(args)
    kind = args.kind
    spec = KINDS[kind]
    cert_kind, universe, payload = verify.load_certificate(_read_file(args.certificate))

    if spec.coloring and cert_kind != "coloring":
        raise GraphParseError(f"kind {quote_token(kind)} needs a coloring certificate, got an object set")
    if not spec.coloring and cert_kind != "set":
        raise GraphParseError(f"kind {quote_token(kind)} needs an object-set certificate, got a coloring")
    if universe not in spec.checks:
        (needed,) = spec.checks
        raise GraphParseError(f"kind {quote_token(kind)} needs universe {quote_token(needed)}")

    try:
        detail = _check(kind, universe, g, payload)
    except DomainError as exc:
        # a certificate that does not fit the graph is malformed for this use
        raise GraphParseError(str(exc)) from exc
    if not detail:
        print(f"valid {kind} certificate for {name}")
        return EXIT_OK
    print(f"INVALID {kind} certificate for {name}: {detail}")
    return EXIT_FAIL


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP_COLUMNS = ("family", "n", "formula_value", "solver_value", "certificate_classes", "agree", "note")


def _sweep_row(family: str, n: int, inv: Invariant, exact_up_to: int, budget) -> dict:
    start = time.perf_counter()
    g = cf.FamilyInstance(family, n).graph()
    fv, cert, detail = _closed_form(inv, family, n, g)
    ran = n <= exact_up_to
    solver_value = _proven_value(inv, g, budget) if ran else None
    return {
        "family": family,
        "n": n,
        "formula_value": fv.value,
        "solver_value": solver_value,
        "certificate_classes": _size(cert),
        "agree": not detail and solver_value in (None, fv.value),
        "note": "budget-exhausted" if ran and solver_value is None else "",
        "elapsed": time.perf_counter() - start,
    }


def _format_sweep_csv(rows: list[dict]) -> str:
    lines = [",".join(_SWEEP_COLUMNS)]
    for r in rows:
        solver = "" if r["solver_value"] is None else str(r["solver_value"])
        lines.append(
            f"{r['family']},{r['n']},{r['formula_value']},{solver},"
            f"{r['certificate_classes']},{'true' if r['agree'] else 'false'},{r['note']}"
        )
    return "\n".join(lines) + "\n"


def _format_sweep_text(rows: list[dict]) -> str:
    head = f"{'family':<7} {'n':>4} {'formula':>8} {'solver':>7} {'cert':>5} {'agree':>6} {'elapsed':>9}  note"
    lines = [head]
    for r in rows:
        solver = "-" if r["solver_value"] is None else str(r["solver_value"])
        lines.append(
            f"{r['family']:<7} {r['n']:>4} {r['formula_value']:>8} {solver:>7} "
            f"{r['certificate_classes']:>5} {('yes' if r['agree'] else 'NO'):>6} {r['elapsed']:>8.3f}s  {r['note']}"
        )
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    orders = _family_range(args)
    inv = INVARIANTS[args.invariant]
    exact_up_to = args.exact_up_to
    if exact_up_to is None:
        exact_up_to = inv.exact_up_to[args.family]
    budget = _budget(args)
    rows = [_sweep_row(args.family, n, inv, exact_up_to, budget) for n in orders]
    text = _format_sweep_csv(rows) if args.format == "csv" else _format_sweep_text(rows)
    _emit(text, args.out)
    return EXIT_OK if all(r["agree"] for r in rows) else EXIT_FAIL


# ---------------------------------------------------------------------------
# ratio
# ---------------------------------------------------------------------------


def cmd_ratio(args) -> int:
    orders = _family_range(args)
    budget = _budget(args)
    rows = []
    for n in orders:
        g = cf.FamilyInstance(args.family, n).graph()
        fv, _, detail = _closed_form(INVARIANTS["chi_tt_d"], args.family, n, g)
        if detail:
            return _closed_form_failed(f"{args.family}({n})", detail)
        rows.append((n, fv.value, _proven_value(INVARIANTS["chi_t_d"], g, budget)))
    if args.format == "csv":
        lines = ["family,n,chi_tt_d,chi_t_d,ratio"]
        for n, a, b in rows:
            if b is None:
                lines.append(f"{args.family},{n},{a},,skipped: budget exhausted")
            else:
                lines.append(f"{args.family},{n},{a},{b},{a / b:.4f}")
    else:
        lines = [f"{'family':<7} {'n':>4} {'chi_tt_d':>9} {'chi_t_d':>8} {'ratio':>8}"]
        for n, a, b in rows:
            if b is None:
                lines.append(f"{args.family:<7} {n:>4} {a:>9} {'-':>8} {'skipped':>8}")
            else:
                lines.append(f"{args.family:<7} {n:>4} {a:>9} {b:>8} {a / b:>8.4f}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def cmd_export(args) -> int:
    what = args.what
    formats = _EXPORT_FORMATS[what]
    fmt = args.format or formats[0]
    g, _, family_info = _graph_source(args)
    if what in _EXPORTS and family_info is None:
        raise DomainError(f"--what {what} needs a --family/--n instance")
    if fmt not in formats:
        supports = "only supports" if len(formats) == 1 else "supports"
        raise DomainError(f"--what {what} {supports} --format {' or '.join(formats)}")

    if what in _EXPORTS:
        inv = _EXPORTS[what]
        family, n = family_info
        data = _certificate_json(inv.universe, inv.construct(family, n), inv.provenance(family, n))
        _emit(json.dumps(data, indent=2) + "\n", args.out)
        return EXIT_OK
    if what == "labels":
        _emit(labels_to_json(total_graph(g)), args.out)
        return EXIT_OK

    name = "G"
    if what == "graph":
        graph, labels = g, None
    elif what == "total-graph":
        tg = total_graph(g)
        graph, labels, name = tg.graph, tg.labels, "T"
    else:  # line-graph
        graph, labels = line_graph(g)
    _emit(to_dot(graph, labels, name) if fmt == "dot" else write_edge_list(graph), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call: parsing leaves it unchanged, so
    a process that calls ``main`` many times builds it once."""
    parser = argparse.ArgumentParser(
        prog="tdtc",
        description="Exact domination-coloring invariants, closed-form certificates, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute an invariant of a graph or family instance")
    _add_graph_source(p)
    p.add_argument("--invariant", choices=INVARIANTS, required=True)
    p.add_argument("--exact", action="store_true",
                   help="force the solver even when a closed form applies")
    _add_budget(p)
    p.add_argument("--out", help="write the certificate JSON to this file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="verify a certificate file against a graph")
    _add_graph_source(p)
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("certificate", help="certificate JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="sweep a family range, cross-checking formulas")
    _add_family_range(p)
    p.add_argument("--invariant", choices=FORMULA_INVARIANTS, default="chi_tt_d")
    p.add_argument("--exact-up-to", type=_non_negative(int), default=None,
                   help="run the exact solver for n up to this bound")
    p.add_argument("--certify", action="store_true",
                   help="accepted for compatibility; every row's certificate is verified")
    _add_budget(p)
    p.add_argument("--out", help="write the table to this file")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ratio", help="tabulate chi_tt_d / chi_t_d over a family range")
    _add_family_range(p)
    _add_budget(p)
    p.add_argument("--out", help="write the table to this file")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("export", help="export graphs, label maps, or certificates")
    _add_graph_source(p)
    p.add_argument("--what", choices=_EXPORT_FORMATS, required=True)
    p.add_argument("--format", choices=("edges", "dot", "json"), default=None)
    p.add_argument("--out", help="write to this file")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
