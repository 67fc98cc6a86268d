"""Exact, provably optimal solvers for the invariants used in this package.

All searches are deterministic: vertices are processed in fixed orders and
ties break toward the lowest index, so identical inputs always produce
identical certificates.  Each solver returns an InvariantResult whose
certificate re-verifies under the ``verify`` module.  Every solver runs its
search through ``_solve``; the function named below holds the strategy.

* independence_number: ``_mis_search``.
* chromatic_number: ``_chromatic``.
* total_domination_number: ``_tds_search``.
* total_dominator_chromatic_number: ``_tdc_search``.
* mixed_independence_number, total_chromatic_number,
  total_mixed_domination_number and tdtc_number: ``_mis_search``,
  ``_chromatic``, ``_tds_search`` and ``_tdc_search`` on the total graph,
  with the certificate mapped back to the base graph's objects.

Set searches (``_mis_search``, ``_tds_search``) run on ``_adj_masks``,
coloring searches (``_chromatic``, ``_tdc_search``) on ``_neighbors``;
only their level search ``_ktdc_feasible`` runs on masks, bit p for the
p-th vertex of a search order.  ``minimum_coloring`` is ``_chromatic``
without a budget, for ``verify.tdc_from_tds``.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

from .graphs import Coloring, DomainError, Graph, coloring_from_total, quote_token, total_graph


@dataclass(frozen=True)
class SearchBudget:
    """Limits for a solver run; absent fields mean unbounded."""

    max_nodes: int | None = None
    max_time: float | None = None  # seconds

    def __post_init__(self):
        for name in ("max_nodes", "max_time"):
            value = getattr(self, name)
            if value is not None and not value >= 0:  # also true for NaN
                raise DomainError(f"{name} must be non-negative, got {quote_token(value)}")


@dataclass(frozen=True)
class InvariantResult:
    """Exact invariant value plus its machine-checkable certificate.

    When a budget ran out, ``proven_optimal`` is False and ``value`` is only
    the best bound witnessed by the certificate (an upper bound for
    minimization problems, a lower bound for independence numbers).
    ``elapsed`` covers the ``_solve`` frame, the search and the certificate
    mapping; for a mixed invariant it leaves out building the total graph.
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
        """Count one node, or raise first if the budget is spent, so that an
        exhausted search reports exactly the nodes it expanded.  An absent
        limit stays None and is tested as such: infinite sentinels in its
        place would make every node compare an int with a float, and every
        256th read the clock with no deadline set, a slower tick."""
        if self.max_nodes is not None and self.nodes >= self.max_nodes:
            raise _OutOfBudget
        if self.deadline is not None and (self.nodes & 0xFF) == 0:
            if time.perf_counter() > self.deadline:
                raise _OutOfBudget
        self.nodes += 1


def _require_min_degree_one(g: Graph, what: str) -> None:
    # an edge covers two vertices, so fewer than n/2 edges leave one isolated:
    # that needs no adjacency, which a huge edgeless header would make costly
    if g.n == 0 or 2 * g.m < g.n or g.min_degree < 1:
        raise DomainError(f"{what} requires positive minimum degree")


def _adj_masks(g: Graph) -> list[int]:
    adj = [0] * g.n
    for i, j in g.edges:
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)
    return adj


def _neighbors(g: Graph) -> dict[int, list[int]]:
    """The neighbor lists of g, keyed by vertex from 0 in ascending order."""
    nbrs: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for i, j in g.edges:
        nbrs[i - 1].append(j - 1)
        nbrs[j - 1].append(i - 1)
    return nbrs


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _solve(g: Graph, budget: SearchBudget | None, adjacency, improve, certificate) -> InvariantResult:
    """Run the search ``improve(adjacency(g), best, search)``, which keeps
    its incumbent in the list ``best``, overwritten in place with each
    better one, so that ``best`` holds the incumbent whenever ``improve``
    returns or runs out of budget; that list is the answer, of size
    ``len(best)``, and ``certificate(best)`` its certificate.
    ``adjacency`` is ``_adj_masks`` for a set search and ``_neighbors``
    for a coloring search, as the head of this module says."""
    start = time.perf_counter()
    search = _Search(budget)
    best: list = []
    proven = True
    adj = adjacency(g)
    try:
        improve(adj, best, search)
    except _OutOfBudget:
        proven = False
    return InvariantResult(len(best), certificate(best), search.nodes, time.perf_counter() - start, proven)


def _vertex_set(best: list[int]) -> frozenset:
    return frozenset(v + 1 for v in best)


# ---------------------------------------------------------------------------
# Independence number
# ---------------------------------------------------------------------------


def _greedy_independent(adj: list[int]) -> list[int]:
    """Greedy independent set: repeatedly the free vertex with the fewest
    free neighbors, ties to the lowest index, which leaves the free set with
    its neighbors.  Each vertex keeps that count, lowered after a pick only
    for the neighbors of the vertices the pick removes, and picks pop from a
    lazy heap on (count, index): counts only fall, so an entry whose vertex
    has left or whose count is no longer current is skipped."""
    deg = [a.bit_count() for a in adj]
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    free = (1 << len(adj)) - 1
    out: list[int] = []
    while free:
        d, v = heapq.heappop(heap)
        if d != deg[v] or not free >> v & 1:
            continue
        out.append(v)
        gone = (adj[v] | 1 << v) & free
        free ^= gone
        touched = 0
        for w in _bits(gone):
            touched |= adj[w]
        for u in _bits(touched & free):
            deg[u] -= (adj[u] & gone).bit_count()
            heapq.heappush(heap, (deg[u], u))
    return out


def _clique_cover_count(adj: list[int], free: int) -> int:
    """The number of cliques in a greedy cover of ``free``: each grows from
    the lowest vertex left by adding, while any is left, the lowest vertex
    left that is adjacent to every member so far."""
    count = 0
    rem = free
    while rem:
        low = rem & -rem
        rem ^= low
        cand = adj[low.bit_length() - 1] & rem
        while cand:
            low = cand & -cand
            rem ^= low
            cand &= adj[low.bit_length() - 1]
        count += 1
    return count


def _mis_search(adj: list[int], best: list[int], search: _Search) -> None:
    """Branch and bound from a greedy independent set that overwrites
    ``best`` with each larger one it finds, depth first on an explicit
    stack of (free vertices, current set) nodes.  Each node pushes the
    branch that skips v, which keeps the node's own list, and then the one
    that takes v, which is searched first.  The one size bound, a greedy
    clique cover of the free vertices, never exceeds their count.  Before
    branching, a node takes, while any is left, the first free vertex of
    degree 0 or 1, or of degree 2 with adjacent neighbors: some maximum
    independent set of the free vertices contains it (a dominance
    reduction).  One ascending scan finds them all: ``todo`` holds the free
    vertices not yet scanned, and a take adds back the free neighbors of
    the vertices it removes, the only scanned ones whose free neighbors
    changed, so each take is the first such vertex a rescan from the lowest
    would find."""
    n = len(adj)
    best[:] = _greedy_independent(adj)
    stack = [((1 << n) - 1, [])]
    while stack:
        free, cur = stack.pop()
        search.tick()
        todo = free
        while todo:
            low = todo & -todo
            todo ^= low
            v = low.bit_length() - 1
            nb = adj[v] & free
            d = nb.bit_count()
            if d <= 1 or (d == 2 and adj[(nb & -nb).bit_length() - 1] & nb):
                cur.append(v)
                gone = nb | low
                free ^= gone
                for w in _bits(gone):
                    todo |= adj[w]
                todo &= free
        if not free:
            if len(cur) > len(best):
                best[:] = cur
            continue
        if len(cur) + _clique_cover_count(adj, free) <= len(best):
            continue
        v = max(_bits(free), key=lambda u: ((adj[u] & free).bit_count(), -u))
        stack.append((free & ~(1 << v), cur))
        stack.append((free & ~(adj[v] | (1 << v)), cur + [v]))


def independence_number(g: Graph, budget: SearchBudget | None = None) -> InvariantResult:
    """Maximum independent set, exact."""
    return _solve(g, budget, _adj_masks, _mis_search, _vertex_set)


# ---------------------------------------------------------------------------
# Chromatic number
# ---------------------------------------------------------------------------
# Coloring runs on neighbor lists ``nbrs``: a dict from each vertex, a
# non-negative int, to a list of its neighbors, in any order, with the keys
# in ascending order.  Only the level search needs bit masks, and
# ``_first_feasible_level`` builds them when it has a level to search.


def _coloring(classes: list[list[int]]) -> Coloring:
    return Coloring(tuple(frozenset(v + 1 for v in cls) for cls in classes))


def _smallest_last(nbrs: dict[int, list[int]]) -> list[int]:
    """Smallest-last order (Matula and Beck, J. ACM 30(3), 1983): each
    vertex has at most degeneracy-many neighbors before it.

    Repeatedly removes the live vertex with the lowest (degree, index) from
    a bucket queue over degrees, each bucket a heap of indices.  A removal
    pushes each live neighbor into the bucket one below its own and leaves
    the old entry, which is skipped when it comes up: degrees only fall, so
    an entry is current exactly when its vertex is live with that degree.
    The lowest nonempty bucket is never more than one below the last one.
    Each heap operation costs O(log V) whatever the graph's size, where a
    bucket held as a bit mask costs O(V) per removal.
    """
    deg = {v: len(ns) for v, ns in nbrs.items()}  # of the live vertices
    buckets: list[list[int]] = [[] for _ in range(max(deg.values(), default=0) + 1)]
    for v, d in deg.items():
        buckets[d].append(v)
    for bucket in buckets:
        heapq.heapify(bucket)
    removal = []
    d = 0
    while deg:
        bucket = buckets[d]
        while bucket and deg.get(bucket[0]) != d:
            heapq.heappop(bucket)
        if not bucket:
            d += 1
            continue
        v = heapq.heappop(bucket)
        removal.append(v)
        del deg[v]
        for u in nbrs[v]:
            e = deg.get(u)
            if e is not None:
                deg[u] = e - 1
                heapq.heappush(buckets[e - 1], u)
        if d:
            d -= 1
    removal.reverse()
    return removal


def _clique_bound(nbrs: dict[int, list[int]], vertices: list[int], cap: int) -> int:
    """The size of the largest clique grown from each of ``vertices`` in
    turn, or the first size that reaches ``cap``: a lower bound on the class
    count of any proper coloring of them.  The clique grown from v adds,
    while any is left, the lowest neighbor of v adjacent to every member so
    far."""
    most = 0
    for v in vertices:
        cand = sorted(nbrs[v])
        size = 1
        while cand:
            size += 1
            ns = nbrs[cand[0]]
            cand = [u for u in cand[1:] if u in ns]
        if size > most:
            most = size
            if most >= cap:
                break
    return most


def _greedy_color_classes(nbrs: dict[int, list[int]], order: list[int]) -> list[list[int]]:
    """First fit along ``order``: each vertex joins the lowest class that
    holds none of its neighbors."""
    color: dict[int, int] = {}
    classes: list[list[int]] = []
    for v in order:
        taken = {color.get(u) for u in nbrs[v]}
        k = 0
        while k in taken:
            k += 1
        if k == len(classes):
            classes.append([])
        classes[k].append(v)
        color[v] = k
    return classes


def _components(nbrs: dict[int, list[int]]) -> list[list[int]]:
    """The vertices of each connected component, found by a breadth-first
    search from its first vertex in ``nbrs``, the components in that order."""
    seen = set()
    comps = []
    for v in nbrs:
        if v in seen:
            continue
        seen.add(v)
        comp = [v]
        for u in comp:  # the list grows while it is read: the search's queue
            for w in nbrs[u]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
        comps.append(comp)
    return comps


def _chromatic(nbrs: dict[int, list[int]], best: list[list[int]], search: _Search) -> None:
    """Exact minimum proper coloring by the level search with no vertex
    needing a witness, one component at a time, below first fit along its
    slice of the whole graph's smallest-last order, which is its own: the
    bucket queue removes its vertices as it would alone.  ``best`` merges
    the components' colorings class by class, each greedy until its search
    ends: a spent budget keeps those solved.  The ``finally`` writes it on
    every exit; ``_solve`` reads it only then."""
    comps = _components(nbrs)
    slices: list[list[int]] = [[] for _ in comps]
    owner = {v: sub for comp, sub in zip(comps, slices) for v in comp}
    for v in _smallest_last(nbrs):
        owner[v].append(v)
    parts = [_greedy_color_classes(nbrs, sub) for sub in slices]

    def merged() -> list[list[int]]:
        out: list[list[int]] = []
        for classes in parts:
            out += [[] for _ in range(len(classes) - len(out))]
            for idx, cls in enumerate(classes):
                out[idx] += cls
        return out

    try:
        for sub, classes in zip(slices, parts):
            _first_feasible_level(nbrs, sub, False, classes, search)
    finally:  # also when the budget runs out; merging once keeps many components linear
        best[:] = merged()


def chromatic_number(g: Graph, budget: SearchBudget | None = None) -> InvariantResult:
    """Chromatic number with a proper-coloring certificate, exact.

    The class count below the reported value is exhausted by search (or
    excluded outright by a clique of the same size), so the value is proven.
    """
    return _solve(g, budget, _neighbors, _chromatic, _coloring)


def minimum_coloring(nbrs: dict[int, list[int]]) -> list[list[int]]:
    """The classes of a minimum proper coloring, exact and unbounded, of the
    graph given by the neighbor lists ``nbrs``, in the form the head of this
    section describes, as lists of its keys."""
    classes: list[list[int]] = []
    _chromatic(nbrs, classes, _Search(None))
    return classes


# ---------------------------------------------------------------------------
# Total domination number
# ---------------------------------------------------------------------------


def _greedy_tds(adj: list[int]) -> list[int]:
    """Greedy total dominating set: repeatedly the vertex with the most
    uncovered neighbors, ties to the lowest index.  Each vertex keeps that
    count, lowered after a pick only for the neighbors of the vertices the
    pick newly covers, and picks pop from a lazy heap on (-count, index):
    counts only fall, so an entry whose count is no longer current is
    skipped.  Requires positive minimum degree, so that an uncovered vertex
    always has a neighbor to pick."""
    gain = [a.bit_count() for a in adj]
    heap = [(-d, v) for v, d in enumerate(gain)]
    heapq.heapify(heap)
    covered = 0
    left = len(adj)
    out: list[int] = []
    while left:
        neg, v = heapq.heappop(heap)
        if -neg != gain[v]:
            continue
        out.append(v)
        new = adj[v] & ~covered
        covered |= new
        left += neg
        touched = 0
        for w in _bits(new):
            touched |= adj[w]
        for u in _bits(touched):
            gain[u] -= (adj[u] & new).bit_count()
            if gain[u]:
                heapq.heappush(heap, (-gain[u], u))
    return out


_TDS_MEMO_CAP = 1 << 18  # entries per search: about 21 MB at the ~80 B each measured on T(C_56)


def _tds_search(adj: list[int], best: list[int], search: _Search, seed: list[int] | None = None) -> None:
    """Branch and bound for a minimum total dominating set from ``seed``,
    by default the greedy set, that overwrites ``best`` with each smaller
    one it finds, depth first on an explicit stack.  ``seed`` lets
    ``_tdc_search``, which builds its first incumbent from the greedy set,
    pass that set in rather than have it computed twice.  A node is cut
    when its uncovered vertices outnumber what the room left below
    ``best`` covers at maximum degree; otherwise it branches on one
    uncovered vertex v, once for each option u (a neighbor of v not in
    ``excluded``), lowest first.  The branch through u excludes the options
    below u, whose branches come first, so no set is visited twice.  A
    branch (prefix, u, covered, excluded) is the node whose set ``cur`` is
    prefix + [u], built when it is popped, so pending branches share their
    parent's list; the root has u = -1 and the empty prefix.

    ``failed`` maps a set of uncovered vertices to a number r such that
    every vertex set covering it has at least r members.  A node whose
    ``room`` (the size of ``best`` less that of ``cur``) is at most the
    entry for its uncovered set is skipped.  Below its branches each node
    pushes a marker (uncovered, room, size of ``best``); popped once the
    branches have ended, it records the room if ``best`` did not shrink.
    That record is sound although the branches avoided ``excluded``: a
    vertex is excluded only once the branch that added it to a prefix of
    ``cur`` has ended, having searched every set through it that could beat
    ``best``; so any set X whose union with ``cur`` uses an excluded vertex
    gives a total dominating set no smaller than ``best``, hence
    |X| >= room.  Only subtrees holding no strict improvement are skipped
    and the order of the others is unchanged, so ``best`` takes the same
    lists as without the table, and ``search`` counts no more nodes.  The
    table stops growing at ``_TDS_MEMO_CAP`` entries; every entry kept is
    still true and the order of recording is fixed, so a full table leaves
    the search sound and deterministic, only slower.  This is the
    frontier-style nogood recording of Kawahara, Inoue, Iwashita and
    Minato (IEICE Trans. Fundamentals E100-A, 2017).

    Every uncovered vertex has an option outside ``excluded``: the root
    excludes nothing and the minimum degree is positive, and a branch
    excludes fewer than c vertices, c being the fewest options any
    uncovered vertex has at its parent.

    The branch vertex is the lowest uncovered vertex with the fewest
    options, |N(v) - excluded|.  Those counts are kept as ``width`` bit
    planes, the bit length of the maximum degree, plane b holding bit b of
    every vertex's count (the bitset bookkeeping of San Segundo, Matia,
    Rodriguez-Losada and Hernando, Computers & OR 2012).  The root's
    planes hold the degrees.  A branch carries its parent's planes and
    ``newly``, the vertices it excludes that the parent did not: the
    options left when it was pushed.  Once it passes the prune tests it
    copies the planes and, for each x in ``newly``, takes 1 from the count
    of each neighbor of x by a ripple borrow: starting from borrow = N(x),
    each plane flips where borrow is set, and borrow stays only where the
    plane had a 0.  Counts never go below 0, since x leaves each N(v) at
    most once.  The pick narrows the uncovered set from the top plane down,
    keeping those with a 0 in the plane whenever any has one: what is left
    are the uncovered vertices of least count, and the lowest of them is
    the vertex the ascending scan for a strictly smaller count finds.  So
    the search, its node counts and its lists are those of the scan, at
    ``width`` mask operations per pick and per newly excluded vertex, where
    the scan took one per uncovered vertex.
    """
    n = len(adj)
    best[:] = _greedy_tds(adj) if seed is None else seed
    full = (1 << n) - 1
    maxdeg = max(a.bit_count() for a in adj)
    width = maxdeg.bit_length()
    planes = [0] * width
    for v, a in enumerate(adj):
        for b in _bits(a.bit_count()):
            planes[b] |= 1 << v
    failed: dict[int, int] = {}
    stack: list[tuple] = [([], -1, 0, 0, planes, 0)]
    while stack:
        entry = stack.pop()
        if len(entry) == 3:
            uncovered, room, size = entry
            if len(best) == size and len(failed) < _TDS_MEMO_CAP:
                failed[uncovered] = room
            continue
        prefix, u, covered, excluded, planes, newly = entry
        search.tick()
        cur = prefix + [u] if u >= 0 else prefix
        if covered == full:
            if len(cur) < len(best):
                best[:] = cur
            continue
        uncovered = full & ~covered
        need = (uncovered.bit_count() + maxdeg - 1) // maxdeg
        room = len(best) - len(cur)
        if need >= room or failed.get(uncovered, 0) >= room:
            continue
        if newly:
            planes = planes[:]
            for x in _bits(newly):  # one option fewer for each neighbor of x
                borrow = adj[x]
                for b in range(width):
                    plane = planes[b]
                    planes[b] = plane ^ borrow
                    borrow &= ~plane
                    if not borrow:
                        break
        fewest = uncovered  # narrowed, from the top plane down, to the counts with a 0 there
        for plane in reversed(planes):
            zero = fewest & ~plane
            if zero:
                fewest = zero
        v = (fewest & -fewest).bit_length() - 1
        options = adj[v] & ~excluded
        stack.append((uncovered, room, len(best)))
        while options:  # from the highest option down, so the lowest is searched first
            u = options.bit_length() - 1
            options ^= 1 << u
            stack.append((cur, u, covered | adj[u], excluded | options, planes, options))


def total_domination_number(g: Graph, budget: SearchBudget | None = None) -> InvariantResult:
    """Minimum total dominating set, exact; requires positive minimum degree."""
    _require_min_degree_one(g, "total domination")
    return _solve(g, budget, _adj_masks, _tds_search, _vertex_set)


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


def _ktdc_feasible(adj: list[int], k: int, need: int, search: _Search) -> list[int] | None:
    """Feasibility of a proper coloring with exactly k classes in which
    every vertex of the bit mask ``need`` has a class inside its open
    neighborhood.  All vertices gives a total dominator coloring, none a
    plain proper coloring: every witness test below compares against
    ``need`` and passes trivially when it is empty.  Vertices are search
    positions: ``adj[p]`` is the neighborhood of the p-th vertex assigned,
    so ``adj[p + 1:]`` are those unassigned at p; classes are masks too.

    Classes are opened in first-use order, which removes color-permutation
    symmetry, so an exhausted run proves that no such coloring exists.  It
    also means that undoing a position empties its class exactly when that
    position opened it, so backtracking restores the class count from the
    class masks alone.

    Asking for exactly k classes loses nothing for k up to the number of
    vertices: splitting a class of a coloring with fewer classes keeps it
    proper, and any witness of the class witnesses each part.  So the
    first feasible level of an ascending search is the least class count.
    The branches the exact count cuts (too few positions left to open the
    remaining classes) complete only to colorings with fewer classes,
    which the lower levels or the clique bound under them rule out, so the
    first coloring found is the one a search for at most k classes finds.
    The cut stays for callers that ask for any other k: without it, a k
    above the least count could return a coloring with empty classes.

    compat[c] tracks the vertices of ``need`` whose open neighborhood
    still contains class c; rescue[p], the union of the neighborhoods of
    the vertices not yet assigned at position p, restricted to ``need``,
    holds the vertices a newly opened class could still come to serve.  A
    branch dies when a vertex of ``need`` is in no compat and outside
    rescue: it can witness neither an opened class nor one still to be
    opened.  A class that some vertex witnesses lies inside that vertex's
    open neighborhood, so this bookkeeping needs no separate bound on
    class size.  others[p][c] is the OR of compat over the opened classes
    other than c when position p is entered, so each candidate class costs
    one OR instead of a loop.

    Witness-capacity bound, the counting half of Kazemi's gamma_t <=
    chi_d^t <= gamma_t + chi (Trans. Comb. 2015): the vertices of ``need``
    outside every opened class's compat must be witnessed by the m classes
    still unopened.  Each of those ends with a member u among the
    unassigned vertices, distinct for distinct classes, and witnesses only
    vertices of N(u).  So a branch dies when these vertices number more
    than m times the maximum degree, or more than the m largest counts of
    them inside N(u) over the unassigned u.  The second test cuts every
    branch the first does; the first stays because it is cheap and ends
    branches before the sort the second needs.  Both cut infeasible
    subtrees only and leave the search order alone, so the first coloring
    found does not change.
    """
    n = len(adj)
    maxdeg = max(a.bit_count() for a in adj)

    rescue = [0] * (n + 1)
    for pos in range(n - 1, -1, -1):
        rescue[pos] = rescue[pos + 1] | (adj[pos] & need)

    class_masks = [0] * k
    compat = [need] * k
    chosen = [-1] * n
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
            class_masks[c] &= ~(1 << pos)
            compat[c] = compat_before[pos]
            if not class_masks[c]:
                used = c
            continue
        search.tick()
        low = cand[pos] & -cand[pos]
        cand[pos] ^= low
        c = low.bit_length() - 1
        if class_masks[c] & adj[pos]:
            continue
        new_used = used + 1 if c == used else used
        if k - new_used > n - pos - 1:
            continue
        new_compat = compat[c] & adj[pos]
        union = others[pos][c] | new_compat
        unopened = k - new_used
        if unopened:
            if union | rescue[pos + 1] != need:
                continue
            open_ = need & ~union
            count = open_.bit_count()
            if count > unopened * maxdeg:
                continue
            if open_:
                loads = sorted([(a & open_).bit_count() for a in adj[pos + 1:]])
                if count > sum(loads[-unopened:]):
                    continue
        elif union != need:
            continue
        chosen[pos] = c
        compat_before[pos] = compat[c]
        class_masks[c] |= 1 << pos
        compat[c] = new_compat
        used = new_used
        if pos == n - 1:
            return list(class_masks)
        pos += 1
        cand[pos] = (1 << min(used + 1, k)) - 1
        others[pos] = _others_union(compat, used)


def _first_feasible_level(nbrs: dict[int, list[int]], order: list[int], dominating: bool,
                          best: list[list[int]], search: _Search) -> None:
    """Overwrite ``best`` with the classes of the first feasible level of
    ``_ktdc_feasible`` on ``order``, every vertex needing a witness when
    ``dominating`` and none otherwise, tried in ascending order from the
    greedy clique bound up to one below ``len(best)``; ``best`` stays as it
    is when every such level is refuted.  The bound is 1 only when
    ``order`` spans no edge, and then ``best``, its greedy coloring, has one
    class.  The vertices of ``order`` must hold all their neighbors; the
    level search runs on their bit masks, bit p for ``order[p]``, which
    are built only when a level lies below ``len(best)``."""
    low = _clique_bound(nbrs, order, len(best))
    if low >= len(best):
        return
    at = {v: p for p, v in enumerate(order)}
    adj = [sum(1 << at[u] for u in nbrs[v]) for v in order]
    need = (1 << len(order)) - 1 if dominating else 0
    for k in range(low, len(best)):
        found = _ktdc_feasible(adj, k, need, search)
        if found is not None:
            best[:] = [[order[p] for p in _bits(mask)] for mask in found]
            return


def _tdc_search(nbrs: dict[int, list[int]], best: list[list[int]], search: _Search) -> None:
    """Minimum total dominator coloring by iterative deepening on the class
    count: ``_first_feasible_level`` with every vertex needing a witness,
    on the smallest-last order and below an incumbent, refutes each level
    from the greedy clique bound up to the answer by exhaustion.  The
    level search rejects improper colorings itself, so it refutes the
    levels below the chromatic number too and needs no chromatic-number
    solve.

    The incumbent is a total dominating set as singletons plus a greedy
    coloring of the other vertices in smallest-last order, the upper half
    of Kazemi's gamma_t <= chi_d^t <= gamma_t + chi.  It is built first
    from the greedy set, then from the minimum set ``_tds_search`` finds
    from it, which replaces it only with fewer classes, so a tie keeps the
    greedy coloring.  That search runs on ``search``, so its nodes count
    toward the budget; ``best`` holds the greedy incumbent before its first
    node.  Both sets are found on ``nbrs`` as bit masks, bit v for vertex v."""
    adj = [sum(1 << u for u in ns) for ns in nbrs.values()]
    order = _smallest_last(nbrs)

    def incumbent(tds: list[int]) -> list[list[int]]:
        in_tds = set(tds)
        return [[v] for v in sorted(tds)] + _greedy_color_classes(nbrs, [v for v in order if v not in in_tds])

    greedy = _greedy_tds(adj)
    best[:] = incumbent(greedy)
    tds: list[int] = []
    _tds_search(adj, tds, search, greedy)
    exact = incumbent(tds)
    if len(exact) < len(best):
        best[:] = exact
    _first_feasible_level(nbrs, order, True, best, search)


def total_dominator_chromatic_number(g: Graph, budget: SearchBudget | None = None) -> InvariantResult:
    """Minimum total dominator coloring, exact; requires positive minimum degree.

    Every class count below the reported value is refuted by search (or
    excluded outright by a clique of the same size), so the value is proven.
    """
    _require_min_degree_one(g, "total dominator coloring")
    return _solve(g, budget, _neighbors, _tdc_search, _coloring)


# ---------------------------------------------------------------------------
# Mixed invariants via the total graph
# ---------------------------------------------------------------------------


def mixed_independence_number(g: Graph, budget: SearchBudget | None = None) -> InvariantResult:
    """Mixed independence number: maximum independent set of the total graph,
    reported over the base graph's objects."""
    tg = total_graph(g)
    return _solve(tg.graph, budget, _adj_masks, _mis_search, lambda best: tg.to_objects(_vertex_set(best)))


def total_mixed_domination_number(g: Graph, budget: SearchBudget | None = None) -> InvariantResult:
    """Total mixed domination number via the reduction to the total graph."""
    _require_min_degree_one(g, "total mixed domination")
    tg = total_graph(g)
    return _solve(tg.graph, budget, _adj_masks, _tds_search, lambda best: tg.to_objects(_vertex_set(best)))


def total_chromatic_number(g: Graph, budget: SearchBudget | None = None) -> InvariantResult:
    """Total chromatic number: chromatic number of the total graph, with a
    proper total coloring over the base graph's objects as certificate."""
    tg = total_graph(g)
    return _solve(tg.graph, budget, _neighbors, _chromatic, lambda best: coloring_from_total(tg, _coloring(best)))


def tdtc_number(g: Graph, budget: SearchBudget | None = None) -> InvariantResult:
    """Total dominator total chromatic number, via the total-graph reduction,
    with a mixed-object coloring as certificate."""
    _require_min_degree_one(g, "total dominator total coloring")
    tg = total_graph(g)
    return _solve(tg.graph, budget, _neighbors, _tdc_search, lambda best: coloring_from_total(tg, _coloring(best)))
