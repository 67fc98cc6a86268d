"""Exact, provably optimal solvers for the invariants used in this package.

All searches are deterministic: vertices are processed in fixed orders and
ties break toward the lowest index, so identical inputs always produce
identical certificates.  Each solver returns an InvariantResult whose
certificate re-verifies under the ``verify`` module.

Search strategies
-----------------
* independence_number: branch and bound with dominance reductions
  (degree 0/1 vertices and degree-2 vertices inside a triangle are taken
  greedily) and a greedy clique-cover upper bound.
* chromatic_number: per-component iterative deepening on the class count,
  between a greedy clique lower bound and a smallest-last greedy upper
  bound; within a level, backtracking in degeneracy order with first-use
  symmetry breaking.  The smallest-last order comes from a lazy-deletion
  heap on (degree, index), so ties break toward the lowest index.
* total_domination_number: branch on an uncovered vertex with the fewest
  remaining dominators, with candidate-exclusion so no subset is visited
  twice; a greedy cover seeds the incumbent and search below it proves
  optimality.
* total_dominator_chromatic_number: iterative deepening on the class
  count starting at max(2, chi); within a level, backtracking in
  degeneracy order with first-use symmetry breaking plus domination-aware
  pruning: for every class we maintain the set of vertices whose open
  neighborhood still contains the class, and a branch dies as soon as
  some vertex can witness neither an opened class nor any class that
  could still be opened among the unassigned objects ahead of it.  The
  neighborhood-containment bookkeeping subsumes the generic size bounds
  (a witnessed class fits inside an open neighborhood, hence has at most
  max-degree members and is independent).  A witness-capacity bound,
  the counting half of gamma_t <= chi_d^t <= gamma_t + chi, also kills
  a branch when the vertices no opened class can witness outnumber what
  the unopened classes can serve: each of those classes needs a member
  among the unassigned vertices, and witnesses only neighbors of it.

The mixed invariants reduce to the total graph.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

from .graphs import DomainError, Graph, total_graph
from .verify import Coloring, coloring_from_total


@dataclass(frozen=True)
class SearchBudget:
    """Limits for a solver run; absent fields mean unbounded."""

    max_nodes: int | None = None
    max_time: float | None = None  # seconds


@dataclass(frozen=True)
class InvariantResult:
    """Exact invariant value plus its machine-checkable certificate.

    When a budget ran out, ``proven_optimal`` is False and ``value`` is only
    the best bound witnessed by the certificate (an upper bound for
    minimization problems, a lower bound for independence numbers).
    """

    value: int
    certificate: object
    nodes_explored: int
    elapsed: float
    proven_optimal: bool


class _OutOfBudget(Exception):
    pass


class _Search:
    __slots__ = ("nodes", "max_nodes", "deadline")

    def __init__(self, budget: SearchBudget | None):
        self.nodes = 0
        self.max_nodes = budget.max_nodes if budget else None
        self.deadline = None
        if budget and budget.max_time is not None:
            self.deadline = time.perf_counter() + budget.max_time

    def tick(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _OutOfBudget
        if self.deadline is not None and (self.nodes & 0xFF) == 0:
            if time.perf_counter() > self.deadline:
                raise _OutOfBudget


def _require_min_degree_one(g: Graph, what: str) -> None:
    if g.n == 0 or g.min_degree < 1:
        raise DomainError(f"{what} requires positive minimum degree")


def _adj_masks(g: Graph) -> list[int]:
    adj = [0] * g.n
    for i, j in g.edges:
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)
    return adj


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _degeneracy_order(adj: list[int]) -> list[int]:
    """Smallest-last order: color/assign positions so that each vertex sees
    at most degeneracy-many already-processed neighbors.

    Repeatedly removes the live vertex with the lowest (degree, index).  The
    heap gets a new entry each time a degree drops and keeps the old ones;
    degrees only fall, so a vertex's current entry is its lowest and pops
    before its stale ones, which are skipped once the vertex is removed.
    """
    n = len(adj)
    deg = [a.bit_count() for a in adj]
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    removed = [False] * n
    removal = []
    while heap:
        _, v = heapq.heappop(heap)
        if removed[v]:
            continue
        removed[v] = True
        removal.append(v)
        for u in _bits(adj[v]):
            if not removed[u]:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    removal.reverse()
    return removal


def _greedy_clique(adj: list[int]) -> list[int]:
    best: list[int] = []
    n = len(adj)
    for seed in range(n):
        clique = [seed]
        cand = adj[seed]
        while cand:
            u = (cand & -cand).bit_length() - 1
            clique.append(u)
            cand &= adj[u]
        if len(clique) > len(best):
            best = clique
    return best


def _greedy_color_classes(adj: list[int], order: list[int]) -> list[int]:
    """First-fit along ``order``; returns class bitmasks."""
    classes: list[int] = []
    for v in order:
        for k, mask in enumerate(classes):
            if not (mask & adj[v]):
                classes[k] |= 1 << v
                break
        else:
            classes.append(1 << v)
    return classes


def _kcolor_feasible(adj: list[int], order: list[int], k: int, search: _Search) -> list[int] | None:
    """Backtracking k-coloring feasibility; returns class bitmasks or None.

    Classes are opened in first-use order, which removes color-permutation
    symmetry, so an exhausted run is a proof that no k-coloring exists.
    """
    n = len(order)
    if n == 0:
        return []
    class_masks = [0] * k
    chosen = [-1] * n
    used_before = [0] * n
    cand = [0] * n
    used = 0
    pos = 0
    cand[0] = 1
    while True:
        if cand[pos] == 0:
            pos -= 1
            if pos < 0:
                return None
            c = chosen[pos]
            class_masks[c] &= ~(1 << order[pos])
            used = used_before[pos]
            continue
        search.tick()
        low = cand[pos] & -cand[pos]
        cand[pos] ^= low
        c = low.bit_length() - 1
        v = order[pos]
        if class_masks[c] & adj[v]:
            continue
        chosen[pos] = c
        used_before[pos] = used
        class_masks[c] |= 1 << v
        if c == used:
            used += 1
        if pos == n - 1:
            return [m for m in class_masks if m]
        pos += 1
        cand[pos] = (1 << min(used + 1, k)) - 1


def _chromatic_masks(adj: list[int], search: _Search) -> tuple[int, list[int]]:
    """Exact chromatic number of a connected (or any) component, as bitmask classes."""
    n = len(adj)
    if n == 0:
        return 0, []
    if not any(adj):
        return 1, [(1 << n) - 1]
    order = _degeneracy_order(adj)
    greedy = _greedy_color_classes(adj, order)
    lower = max(2, len(_greedy_clique(adj)))
    for k in range(lower, len(greedy)):
        found = _kcolor_feasible(adj, order, k, search)
        if found is not None:
            return len(found), found
    return len(greedy), greedy


def _components(adj: list[int]) -> list[int]:
    n = len(adj)
    seen = 0
    comps = []
    for v in range(n):
        if seen >> v & 1:
            continue
        frontier = 1 << v
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            for u in _bits(frontier):
                nxt |= adj[u]
            frontier = nxt & ~comp
        comps.append(comp)
        seen |= comp
    return comps


def _chromatic(adj: list[int], search: _Search) -> tuple[int, Coloring]:
    """Exact chromatic number with certificate, solved per component.

    Each component is relabelled 0..size-1 in index order on the caller's
    masks; a component that is the whole graph keeps them as they are.
    """
    global_classes: list[set[int]] = []
    value = 0
    for comp in _components(adj):
        old = list(_bits(comp))
        sub_adj = adj
        if len(old) < len(adj):
            new = {v: k for k, v in enumerate(old)}
            sub_adj = [sum(1 << new[u] for u in _bits(adj[v])) for v in old]
        k, masks = _chromatic_masks(sub_adj, search)
        value = max(value, k)
        for idx, mask in enumerate(masks):
            if idx == len(global_classes):
                global_classes.append(set())
            global_classes[idx].update(old[v] + 1 for v in _bits(mask))
    return value, Coloring(tuple(frozenset(c) for c in global_classes))


# ---------------------------------------------------------------------------
# Independence number
# ---------------------------------------------------------------------------


def _greedy_independent(adj: list[int]) -> list[int]:
    n = len(adj)
    free = (1 << n) - 1
    out = []
    while free:
        v = min(_bits(free), key=lambda u: ((adj[u] & free).bit_count(), u))
        out.append(v)
        free &= ~(adj[v] | (1 << v))
    return out


def _clique_cover_count(adj: list[int], free: int) -> int:
    count = 0
    rem = free
    while rem:
        v = (rem & -rem).bit_length() - 1
        clique = 1 << v
        cand = adj[v] & rem
        while cand:
            u = (cand & -cand).bit_length() - 1
            clique |= 1 << u
            cand &= adj[u]
        rem &= ~clique
        count += 1
    return count


def _mis_search(adj: list[int], best: list[int], search: _Search) -> None:
    """Branch and bound that overwrites ``best`` with each larger independent
    set it finds, so the best set survives a budget running out."""
    n = len(adj)

    def rec(free: int, cur: list[int]) -> None:
        search.tick()
        # dominance reductions
        while free:
            picked = False
            for v in _bits(free):
                nb = adj[v] & free
                d = nb.bit_count()
                if d == 0:
                    cur.append(v)
                    free &= ~(1 << v)
                    picked = True
                    break
                if d == 1:
                    cur.append(v)
                    free &= ~(adj[v] | (1 << v))
                    picked = True
                    break
                if d == 2:
                    a = (nb & -nb).bit_length() - 1
                    b = (nb & (nb - 1)).bit_length() - 1
                    if adj[a] >> b & 1:
                        cur.append(v)
                        free &= ~(adj[v] | (1 << v))
                        picked = True
                        break
            if not picked:
                break
        if not free:
            if len(cur) > len(best):
                best[:] = cur
            return
        if len(cur) + free.bit_count() <= len(best):
            return
        if len(cur) + _clique_cover_count(adj, free) <= len(best):
            return
        v = max(_bits(free), key=lambda u: ((adj[u] & free).bit_count(), -u))
        rec(free & ~(adj[v] | (1 << v)), cur + [v])
        rec(free & ~(1 << v), list(cur))

    rec((1 << n) - 1, [])


def independence_number(g: Graph, budget: SearchBudget | None = None) -> InvariantResult:
    """Maximum independent set, exact."""
    start = time.perf_counter()
    search = _Search(budget)
    adj = _adj_masks(g)
    proven = True
    best = _greedy_independent(adj)
    try:
        _mis_search(adj, best, search)
    except _OutOfBudget:
        proven = False
    cert = frozenset(v + 1 for v in best)
    return InvariantResult(len(cert), cert, search.nodes, time.perf_counter() - start, proven)


# ---------------------------------------------------------------------------
# Chromatic number
# ---------------------------------------------------------------------------


def chromatic_number(g: Graph, budget: SearchBudget | None = None) -> InvariantResult:
    """Chromatic number with a proper-coloring certificate, exact.

    The class count below the reported value is exhausted by search (or
    excluded outright by a clique of the same size), so the value is proven.
    """
    start = time.perf_counter()
    search = _Search(budget)
    proven = True
    adj = _adj_masks(g)
    try:
        value, cert = _chromatic(adj, search)
    except _OutOfBudget:
        proven = False
        masks = _greedy_color_classes(adj, _degeneracy_order(adj))
        cert = Coloring(tuple(frozenset(v + 1 for v in _bits(m)) for m in masks))
        value = cert.num_classes
    return InvariantResult(value, cert, search.nodes, time.perf_counter() - start, proven)


# ---------------------------------------------------------------------------
# Total domination number
# ---------------------------------------------------------------------------


def _greedy_tds(adj: list[int]) -> list[int]:
    n = len(adj)
    full = (1 << n) - 1
    covered = 0
    out: list[int] = []
    while covered != full:
        v = max(range(n), key=lambda u: ((adj[u] & ~covered).bit_count(), -u))
        out.append(v)
        covered |= adj[v]
    return out


def _tds_search(adj: list[int], best: list[int], search: _Search) -> None:
    """Branch and bound that overwrites ``best`` with each smaller total
    dominating set it finds, so the best set survives a budget running out."""
    n = len(adj)
    full = (1 << n) - 1
    maxdeg = max(a.bit_count() for a in adj)

    def rec(cur: list[int], covered: int, excluded: int) -> None:
        search.tick()
        if covered == full:
            if len(cur) < len(best):
                best[:] = cur
            return
        uncovered = full & ~covered
        need = (uncovered.bit_count() + maxdeg - 1) // maxdeg
        if len(cur) + need >= len(best):
            return
        pick = -1
        options = 0
        options_count = n + 1
        for v in _bits(uncovered):
            opts = adj[v] & ~excluded
            cnt = opts.bit_count()
            if cnt == 0:
                return
            if cnt < options_count:
                pick, options, options_count = v, opts, cnt
        ex = excluded
        for u in _bits(options):
            rec(cur + [u], covered | adj[u], ex)
            ex |= 1 << u

    rec([], 0, 0)


def total_domination_number(g: Graph, budget: SearchBudget | None = None) -> InvariantResult:
    """Minimum total dominating set, exact; requires positive minimum degree."""
    _require_min_degree_one(g, "total domination")
    start = time.perf_counter()
    search = _Search(budget)
    adj = _adj_masks(g)
    best = _greedy_tds(adj)
    proven = True
    try:
        _tds_search(adj, best, search)
    except _OutOfBudget:
        proven = False
    cert = frozenset(v + 1 for v in best)
    return InvariantResult(len(cert), cert, search.nodes, time.perf_counter() - start, proven)


# ---------------------------------------------------------------------------
# Total dominator chromatic number
# ---------------------------------------------------------------------------


def _others_union(compat: list[int], used: int) -> list[int]:
    """For each class c < used, the OR of compat over the other opened
    classes; entry ``used`` is the OR over all of them, the others of a
    class about to be opened."""
    out = [0] * (used + 1)
    acc = 0
    for c in range(used):
        out[c] = acc
        acc |= compat[c]
    out[used] = acc
    acc = 0
    for c in range(used - 1, -1, -1):
        out[c] |= acc
        acc |= compat[c]
    return out


def _ktdc_feasible(
    adj: list[int],
    order: list[int],
    k: int,
    search: _Search,
    prune: bool = True,
) -> list[int] | None:
    """Feasibility of a total dominator coloring with exactly k classes.

    compat[c] tracks the vertices whose open neighborhood still contains
    class c; rescue[p] tracks the vertices with at least one neighbor
    among the objects not yet assigned at position p, i.e. the vertices a
    newly opened class could still come to serve.  others[p][c] is the OR
    of compat over the opened classes other than c when position p is
    entered, so each candidate class costs one OR instead of a loop.

    Witness-capacity bound: the vertices outside every opened class's
    compat must be witnessed by the m classes still unopened.  Each of
    those ends with a member u among the unassigned vertices, distinct for
    distinct classes, and witnesses only vertices of N(u).  So a branch
    dies when these vertices number more than m times the maximum degree,
    or more than the m largest counts of them inside N(u) over the
    unassigned u.  Both tests cut infeasible subtrees only and leave the
    search order alone, so the first coloring found does not change.

    With ``prune`` off only completed assignments are checked, which is
    slower but must find the same coloring (used by the pruning-soundness
    tests).
    """
    n = len(order)
    nv = len(adj)
    full = (1 << nv) - 1
    maxdeg = max(a.bit_count() for a in adj)
    ahead = [adj[u] for u in order]  # ahead[p:]: the unassigned vertices at position p

    suffix = 0
    rescue = [0] * (n + 1)
    for pos in range(n - 1, -1, -1):
        suffix |= 1 << order[pos]
        mask = 0
        for v in range(nv):
            if adj[v] & suffix:
                mask |= 1 << v
        rescue[pos] = mask

    class_masks = [0] * k
    compat = [full] * k
    chosen = [-1] * n
    used_before = [0] * n
    compat_before = [0] * n
    cand = [0] * n
    others: list[list[int]] = [[]] * n
    used = 0
    pos = 0
    cand[0] = 1
    others[0] = [0]
    while True:
        if cand[pos] == 0:
            pos -= 1
            if pos < 0:
                return None
            c = chosen[pos]
            class_masks[c] &= ~(1 << order[pos])
            compat[c] = compat_before[pos]
            used = used_before[pos]
            continue
        search.tick()
        low = cand[pos] & -cand[pos]
        cand[pos] ^= low
        c = low.bit_length() - 1
        v = order[pos]
        if class_masks[c] & adj[v]:
            continue
        new_used = used + 1 if c == used else used
        if k - new_used > n - pos - 1:
            continue
        new_compat = compat[c] & adj[v]
        last = pos == n - 1
        if prune or last:
            union = others[pos][c] | new_compat
            unopened = k - new_used
            if unopened:
                if union | rescue[pos + 1] != full:
                    continue
                open_ = full & ~union
                count = open_.bit_count()
                if count > unopened * maxdeg:
                    continue
                if open_:
                    loads = sorted([(a & open_).bit_count() for a in ahead[pos + 1:]])
                    if count > sum(loads[-unopened:]):
                        continue
            elif union != full:
                continue
        chosen[pos] = c
        used_before[pos] = used
        compat_before[pos] = compat[c]
        class_masks[c] |= 1 << v
        compat[c] = new_compat
        used = new_used
        if last:
            return list(class_masks)
        pos += 1
        cand[pos] = (1 << min(used + 1, k)) - 1
        others[pos] = _others_union(compat, used)


def total_dominator_chromatic_number(
    g: Graph,
    budget: SearchBudget | None = None,
    prune: bool = True,
) -> InvariantResult:
    """Minimum total dominator coloring, exact; requires positive minimum degree.

    Iterative deepening over the class count proves every level below the
    answer infeasible by exhaustion.  The initial incumbent (greedy total
    dominating set as singletons plus a greedy coloring of the rest) is
    returned when a budget runs out, and short-circuits the final level when
    every smaller count has already been refuted.
    """
    _require_min_degree_one(g, "total dominator coloring")
    start = time.perf_counter()
    search = _Search(budget)
    adj = _adj_masks(g)
    n = g.n
    order = _degeneracy_order(adj)

    tds = sorted(_greedy_tds(adj))
    tds_mask = 0
    for v in tds:
        tds_mask |= 1 << v
    rest_order = [v for v in order if not (tds_mask >> v & 1)]
    rest_classes = _greedy_color_classes(adj, rest_order)
    incumbent = [1 << v for v in tds] + rest_classes

    proven = True
    answer = incumbent
    try:
        chi_value, _ = _chromatic(adj, search)
        lower = max(2, chi_value)
        for k in range(lower, len(incumbent)):
            found = _ktdc_feasible(adj, order, k, search, prune=prune)
            if found is not None:
                answer = found
                break
    except _OutOfBudget:
        proven = False
    cert = Coloring(tuple(frozenset(v + 1 for v in _bits(m)) for m in answer))
    return InvariantResult(cert.num_classes, cert, search.nodes, time.perf_counter() - start, proven)


# ---------------------------------------------------------------------------
# Mixed invariants via the total graph
# ---------------------------------------------------------------------------


def _on_total_graph(g: Graph, solve, budget: SearchBudget | None, **kw) -> InvariantResult:
    """Run ``solve`` on the total graph of g and map its certificate back to
    the base graph's objects."""
    start = time.perf_counter()
    tg = total_graph(g)
    inner = solve(tg.graph, budget, **kw)
    cert = inner.certificate
    cert = coloring_from_total(tg, cert) if isinstance(cert, Coloring) else tg.to_objects(cert)
    return InvariantResult(inner.value, cert, inner.nodes_explored,
                           time.perf_counter() - start, inner.proven_optimal)


def mixed_independence_number(g: Graph, budget: SearchBudget | None = None) -> InvariantResult:
    """Mixed independence number: maximum independent set of the total graph,
    reported over the base graph's objects."""
    return _on_total_graph(g, independence_number, budget)


def total_mixed_domination_number(g: Graph, budget: SearchBudget | None = None) -> InvariantResult:
    """Total mixed domination number via the reduction to the total graph."""
    _require_min_degree_one(g, "total mixed domination")
    return _on_total_graph(g, total_domination_number, budget)


def total_chromatic_number(g: Graph, budget: SearchBudget | None = None) -> InvariantResult:
    """Total chromatic number: chromatic number of the total graph, with a
    proper total coloring over the base graph's objects as certificate."""
    return _on_total_graph(g, chromatic_number, budget)


def tdtc_number(g: Graph, budget: SearchBudget | None = None, prune: bool = True) -> InvariantResult:
    """Total dominator total chromatic number, via the total-graph reduction,
    with a mixed-object coloring as certificate."""
    _require_min_degree_one(g, "total dominator total coloring")
    return _on_total_graph(g, total_dominator_chromatic_number, budget, prune=prune)
