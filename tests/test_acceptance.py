"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import random
import time

import tdtc as t
from oracles import (
    brute_alpha,
    brute_chi,
    brute_chi_t_d,
    brute_gamma_t,
    label_index,
    relabel,
    total_mixed_domination_number_direct,
    verify_formula_consistency,
)
from tdtc import Coloring
from tdtc.closed_forms import _STORED_CYCLE, _STORED_PATH


def _report(num: int, desc: str, failures: list, started: float) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:2d}] {desc}: {status} ({time.time() - started:.1f}s)")
    assert not failures, f"criterion {num}: {failures[:10]}"


def test_criterion_01_cycle_small_case_exactness():
    started = time.time()
    failures = []
    for n in range(3, 10):
        got = t.tdtc_number(t.cycle(n)).value
        want = t.chi_tt("cycle", n).value
        if got != want:
            failures.append((n, got, want))
    _report(1, "solver chi_tt_d on cycles 3..9 matches the formula", failures, started)


def test_criterion_02_path_small_case_exactness():
    started = time.time()
    failures = []
    for n in range(2, 9):
        got = t.tdtc_number(t.path(n)).value
        want = t.chi_tt("path", n).value
        if got != want:
            failures.append((n, got, want))
    _report(2, "solver chi_tt_d on paths 2..8 matches the formula", failures, started)


def test_criterion_03_gamma_tm_exactness():
    started = time.time()
    failures = []
    for n in range(3, 15):
        got = t.total_mixed_domination_number(t.cycle(n)).value
        if got != t.gamma_tm("cycle", n).value:
            failures.append(("cycle", n, got))
    for n in range(2, 15):
        got = t.total_mixed_domination_number(t.path(n)).value
        if got != t.gamma_tm("path", n).value:
            failures.append(("path", n, got))
    _report(3, "solver gamma_tm matches the formulas up to n=14", failures, started)


def test_criterion_04_alpha_mix_exactness():
    started = time.time()
    failures = []
    for n in range(3, 26):
        got = t.mixed_independence_number(t.cycle(n)).value
        if got != t.alpha_mix("cycle", n).value:
            failures.append(("cycle", n, got))
    for n in range(2, 26):
        got = t.mixed_independence_number(t.path(n)).value
        if got != t.alpha_mix("path", n).value:
            failures.append(("path", n, got))
    _report(4, "solver alpha_mix matches the formulas up to n=25", failures, started)


def test_criterion_05_certificate_tightness_to_300():
    started = time.time()
    failures = []
    for family, lo in (("cycle", 3), ("path", 2)):
        for n in range(lo, 301):
            g = t.FamilyInstance(family, n).graph()
            tg, labels = t.total_graph(g)

            cert = t.tdtc_certificate(family, n)
            if cert.num_classes != t.chi_tt(family, n).value or not t.is_tdtc(g, cert).valid:
                failures.append((family, n, "tdtc"))

            s = t.min_tmds(family, n)
            index = label_index(labels)
            ok, _ = t.is_total_dominating_set(tg, {index[o] for o in s})
            if not ok or len(s) != t.gamma_tm(family, n).value:
                failures.append((family, n, "tmds"))

            mis = t.max_mixed_independent_set(family, n)
            ok, _ = t.is_mixed_independent_set(g, mis)
            if not ok or len(mis) != t.alpha_mix(family, n).value:
                failures.append((family, n, "mis"))
    _report(5, "certificates tight for all n up to 300", failures, started)


def _corpus(exhaustive, randoms):
    return list(exhaustive) + list(randoms)


def test_criterion_06_reduction_identities(exhaustive_connected_upto5, random_corpus):
    started = time.time()
    failures = []
    rng = random.Random(99)
    for idx, g in enumerate(_corpus(exhaustive_connected_upto5, random_corpus)):
        tg, labels = t.total_graph(g)
        index = label_index(labels)
        direct = total_mixed_domination_number_direct(g)
        reduced = t.total_domination_number(tg)
        if len(direct) != reduced.value:
            failures.append((idx, "gamma", len(direct), reduced.value))
            continue

        # verifier-level identity: the direct mixed check agrees with the
        # total-graph check on valid and invalid colorings alike
        colorings = [
            relabel(t.tdc_from_tds(tg, reduced.certificate), dict(enumerate(labels, 1)))
        ]
        objs = list(t.mixed_objects(g))
        k = rng.randint(2, len(objs))
        buckets = [[] for _ in range(k)]
        for o in objs:
            buckets[rng.randrange(k)].append(o)
        colorings.append(Coloring(tuple(frozenset(b) for b in buckets if b)))
        for coloring in colorings:
            direct_rep = t.is_tdtc(g, coloring)
            mapped_rep = t.is_tdc(tg, relabel(coloring, index))
            if direct_rep.valid != mapped_rep.valid or (
                {index[o]: c for o, c in direct_rep.witnesses.items()} != mapped_rep.witnesses
            ):
                failures.append((idx, "verifier-agreement"))
                break
    _report(6, "direct mixed route matches the total-graph route on the corpus", failures, started)


def test_criterion_07_oracle_minimality(exhaustive_connected_upto5, random_corpus):
    started = time.time()
    failures = []
    for idx, g in enumerate(_corpus(exhaustive_connected_upto5, random_corpus)):
        if g.n > 7:
            continue
        if t.independence_number(g).value != brute_alpha(g):
            failures.append((idx, "alpha"))
        if t.chromatic_number(g).value != brute_chi(g):
            failures.append((idx, "chi"))
        if min(map(len, g.adj.values()), default=0) >= 1:
            if t.total_domination_number(g).value != brute_gamma_t(g):
                failures.append((idx, "gamma_t"))
            if t.total_dominator_chromatic_number(g).value != brute_chi_t_d(g):
                failures.append((idx, "chi_t_d"))
    _report(7, "brute-force enumeration reproduces solver values on <=7 vertices", failures, started)


def test_criterion_08_constructive_upper_bound(exhaustive_connected_upto5, random_corpus):
    started = time.time()
    failures = []
    for idx, g in enumerate(_corpus(exhaustive_connected_upto5, random_corpus)):
        if min(map(len, g.adj.values()), default=0) < 1:
            failures.append((idx, "corpus graph without min degree 1"))
            continue
        chi_t_d = t.total_dominator_chromatic_number(g).value
        gamma = t.total_domination_number(g)
        chi = t.chromatic_number(g).value
        if chi_t_d > gamma.value + chi:
            failures.append((idx, "bound", chi_t_d, gamma.value, chi))
            continue
        s = gamma.certificate
        built = t.tdc_from_tds(g, s)
        rest = set(g.vertices) - set(s)
        if rest:
            sub, _ = t.induced_subgraph(g, rest)
            chi_rest = t.chromatic_number(sub).value
        else:
            chi_rest = 0
        if built.num_classes != len(s) + chi_rest or not t.is_tdc(g, built).valid:
            failures.append((idx, "construction"))
    _report(8, "chi_t_d <= gamma_t + chi and the constructive coloring is tight", failures, started)


def test_criterion_09_formula_internal_consistency():
    started = time.time()
    count = verify_formula_consistency(10**6)
    elapsed = time.time() - started
    failures = [] if count == 2 * 10**6 - 3 and elapsed < 10.0 else [(count, elapsed)]
    _report(9, "the library's gamma_tm matches the printed closed form to 1e6", failures, started)


def test_criterion_10_stored_colorings():
    started = time.time()
    failures = []
    stored = [("cycle", n) for n in (3, 4, 9, 12)] + [
        ("path", n) for n in (3, 4, 5, 6, 8, 9, 10, 13, 16)
    ]
    scheme = [("cycle", n) for n in (5, 6, 7, 8)] + [("path", 2)]
    for family, n in stored + scheme:
        g = t.FamilyInstance(family, n).graph()
        cert = t.tdtc_certificate(family, n)
        report = t.is_tdtc(g, cert)
        want = t.chi_tt(family, n).value
        if not report.valid or cert.num_classes != want:
            failures.append((family, n, cert.num_classes, want))
    _report(10, "all stored optimal colorings verify at the stated class count", failures, started)


def test_criterion_11_certificate_scale_5000():
    started = time.time()
    failures = []
    for family in ("cycle", "path"):
        g = t.FamilyInstance(family, 5000).graph()
        cert = t.tdtc_certificate(family, 5000)
        if not t.is_tdtc(g, cert).valid or cert.num_classes != t.chi_tt(family, 5000).value:
            failures.append((family, cert.num_classes))
    elapsed = time.time() - started
    # near-linear construction and checking take about 1 s; the quadratic ones took about a minute
    if elapsed >= 10.0:
        failures.append(("elapsed", round(elapsed, 1)))
    _report(11, "chi_tt_d certificates of C_5000 and P_5000 built and checked in under 10 s", failures, started)


def test_criterion_12_stored_exceptions_proven_by_search():
    # P_16 is the costly one: about 1.6M nodes
    started = time.time()
    failures = []
    stored = [("cycle", n) for n in sorted(_STORED_CYCLE)] + [("path", n) for n in sorted(_STORED_PATH)]
    for family, n in stored:
        r = t.tdtc_number(t.FamilyInstance(family, n).graph())
        want = t.chi_tt(family, n).value
        if not r.proven_optimal or r.value != want:
            failures.append((family, n, r.value, r.proven_optimal, want))
    _report(12, "the solver proves chi_tt_d of every stored-table instance", failures, started)


def test_criterion_13_gamma_tm_exactness_to_30():
    started = time.time()
    failures = []
    for family, low in (("cycle", 3), ("path", 2)):
        for n in range(low, 31):
            r = t.total_mixed_domination_number(t.FamilyInstance(family, n).graph())
            if not r.proven_optimal or r.value != t.gamma_tm(family, n).value:
                failures.append((family, n, r.value, r.proven_optimal))
    _report(13, "solver gamma_tm proves the formulas up to n=30", failures, started)
