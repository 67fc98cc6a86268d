"""Independent oracles: exhaustive enumeration over subsets and set
partitions, a direct search over mixed objects, the adjacent-or-incident
relation decided case by case, the alternate printed forms of the
cycle/path formulas, the plain quadratic forms of the library's ordering,
greedy total domination, greedy independent set and certificate-checking
loops, and a plain k-coloring backtracking.

These deliberately share no search machinery with the solvers and no case
split with the library's formulas; they are the ground truth the library is
checked against.  The one exception is the k-coloring reference, which
uses the library's smallest-last order (by the quadratic scan), greedy
clique bound and first-fit incumbents in their former bit-mask forms, and
its node counter, so that its classes and node counts compare one to one
with the library's level search, which runs its sparse parts on neighbor
lists.  Through its ``need`` mask, checked only on complete
assignments, it serves both the chromatic number (an empty mask) and the
total dominator chromatic number (every vertex), whose witness pruning it
checks; for the latter it starts, as the library does, from the smaller of
the incumbents built from a greedy and from a minimum total dominating set,
the minimum one found by the total domination reference on the same node
counter.  The total domination reference is another exception: the
library's branch and bound without its table of failed states, from the
same greedy seed and with the same node counter; and so is the total
domination scan, the library's search with its table, whose branch vertex
is found by rescanning the uncovered vertices where the library reads bit
planes of option counts, so that its lists and node counts equal the
library's.  So is the
independent set reference: the library's branch and bound with each of its
dominance reductions written out as its own case, so its lists and node
counts compare one to one with the library's single rule; beside it
stands the library's former body of that search, which rescanned the free
vertices from the lowest after every vertex a reduction took.  And the
former body of ``tdc_from_tds``: the induced subgraph of the vertices
outside the set, relabelled and colored by ``chromatic_number``; the
former body of ``mixed_neighbors``, which builds every object through the
checking ``Vertex``/``Edge`` constructors and reads vertex neighbours from
``Graph.adj``; the former body of ``total_graph``, which adds the total
graph's edges to a set as it finds them; the former body of
``tdtc_certificate``, which colors a total graph built that way on the
vertex ids of the objects in its labels; the former body of
``line_graph``, the total graph's subgraph induced by its edge objects;
the former route of the four mixed solvers, which ran their search on
such a total graph and mapped the answer back through its labels; and the
former bodies of the certificate checks, which ran on a universe given by
its neighbour map, ``Graph.adj`` or ``mixed_neighbors_reference(g)``, and
intersected a frozenset per member.
"""

from functools import reduce
from itertools import combinations

import tdtc.closed_forms as cf
import tdtc.solvers as solvers
import tdtc.verify as verify
from tdtc import (
    Coloring,
    DomainError,
    Edge,
    Graph,
    ObjectId,
    Vertex,
    chromatic_number,
    induced_subgraph,
    is_total_dominating_set,
    mixed_neighbors,
    mixed_objects,
    object_key,
)
from tdtc.graphs import quote_list
from tdtc.solvers import _bits, _clique_cover_count, _greedy_independent, _greedy_tds, _Search


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield part + [[first]]


def has_edge(g: Graph, i: int, j: int) -> bool:
    return (min(i, j), max(i, j)) in g.edges


def _independent(g: Graph, cls) -> bool:
    return all(not has_edge(g, a, b) for a, b in combinations(sorted(cls), 2))


def brute_alpha(g: Graph) -> int:
    best = 0
    verts = list(g.vertices)
    for size in range(g.n, 0, -1):
        if size <= best:
            break
        for cand in combinations(verts, size):
            if _independent(g, cand):
                best = size
                break
    return best


def brute_chi(g: Graph) -> int:
    if g.n == 0:
        return 0
    best = g.n
    for part in set_partitions(list(g.vertices)):
        if len(part) < best and all(_independent(g, cls) for cls in part):
            best = len(part)
    return best


def brute_gamma_t(g: Graph):
    """Minimum total dominating set size, or None if none exists."""
    verts = list(g.vertices)
    for size in range(1, g.n + 1):
        for cand in combinations(verts, size):
            sset = set(cand)
            if all(g.adj[v] & sset for v in verts):
                return size
    return None


def brute_chi_t_d(g: Graph):
    """Minimum total dominator coloring size by full partition enumeration.

    A vertex witnesses a class only when the class sits inside its open
    neighborhood, so a vertex never witnesses a class containing itself.
    """
    best = None
    for part in set_partitions(list(g.vertices)):
        if best is not None and len(part) >= best:
            continue
        if not all(_independent(g, cls) for cls in part):
            continue
        classes = [set(cls) for cls in part]
        if all(any(cls <= g.adj[v] for cls in classes) for v in g.vertices):
            best = len(part)
    return best


def objects_adjacent(g: Graph, a, b) -> bool:
    """True when the two distinct objects are adjacent or incident in g,
    decided case by case from the base graph."""
    if a == b:
        return False
    if isinstance(a, Vertex) and isinstance(b, Vertex):
        return has_edge(g, a.i, b.i)
    if isinstance(a, Edge) and isinstance(b, Edge):
        return len({a.i, a.j} & {b.i, b.j}) == 1
    v, e = (a, b) if isinstance(a, Vertex) else (b, a)
    return v.i in (e.i, e.j)


def total_mixed_domination_number_direct(g: Graph) -> frozenset:
    """A minimum total mixed dominating set, by iterative-deepening cover
    search over V union E.

    Independent of the total-graph reduction: the universe and the
    adjacent-or-incident relation come straight from the base graph.
    Requires positive minimum degree.
    """
    objs = mixed_objects(g)
    idx = {o: i for i, o in enumerate(objs)}
    nbr = [sum(1 << idx[u] for u in nset) for nset in (mixed_neighbors(g)[o] for o in objs)]
    full = (1 << len(objs)) - 1

    def dfs(cur, covered, excluded, limit):
        if covered == full:
            return cur
        if len(cur) == limit:
            return None
        uncovered = full & ~covered
        v = (uncovered & -uncovered).bit_length() - 1
        options = nbr[v] & ~excluded
        while options:
            low = options & -options
            u = low.bit_length() - 1
            hit = dfs(cur + [u], covered | nbr[u], excluded, limit)
            if hit is not None:
                return hit
            excluded |= low
            options ^= low
        return None

    for limit in range(1, len(objs) + 1):
        found = dfs([], 0, 0, limit)
        if found is not None:
            return frozenset(objs[i] for i in found)
    raise ValueError("no total mixed dominating set: a vertex is isolated")


def gamma_tm_closed(family: str, n: int) -> int:
    """The total mixed domination number in its printed closed form."""
    if family == cf.CYCLE:
        return -(-4 * n // 7) + (1 if n % 7 == 5 else 0)
    if n % 7 == 4:
        return (4 * n) // 7
    return -(-4 * n // 7)


def chi_tt_relative(family: str, n: int) -> int:
    """chi_tt in its printed form relative to gamma_tm: gamma_tm + 1, 2 or 3."""
    if family == cf.CYCLE:
        plus = 1 if n in (3, 4, 5) else 2 if n in (6, 9, 12) else 3
    else:
        plus = 1 if n in (2, 3) else 2 if n in (4, 5, 6, 8, 9, 10, 13, 16) else 3
    return cf.gamma_tm(family, n).value + plus


def verify_formula_consistency(max_n: int) -> int:
    """Compare the library's gamma_tm values with the closed form for every
    n up to ``max_n`` on both families; returns the number of comparisons."""
    count = 0
    for family, low in ((cf.CYCLE, 3), (cf.PATH, 2)):
        for n in range(low, max_n + 1):
            if cf._gamma_tm_case(family, n)[0] != gamma_tm_closed(family, n):
                raise AssertionError(f"{family} forms disagree at n={n}")
            count += 1
    return count


def greedy_tds_scan(adj: list[int]) -> list[int]:
    """Greedy total dominating set by rescanning every vertex for the most
    uncovered neighbors (ties to the lowest index) at each pick; O(V^2)
    mask operations."""
    n = len(adj)
    full = (1 << n) - 1
    covered = 0
    out: list[int] = []
    while covered != full:
        v = max(range(n), key=lambda u: ((adj[u] & ~covered).bit_count(), -u))
        out.append(v)
        covered |= adj[v]
    return out


def greedy_independent_scan(adj: list[int]) -> list[int]:
    """Greedy independent set by rescanning every free vertex for the fewest
    free neighbors (ties to the lowest index) at each pick; O(V^2) mask
    operations."""
    n = len(adj)
    free = (1 << n) - 1
    out = []
    while free:
        v = min(_bits(free), key=lambda u: ((adj[u] & free).bit_count(), u))
        out.append(v)
        free &= ~(adj[v] | (1 << v))
    return out


def degeneracy_order_scan(adj: list[int]) -> list[int]:
    """Smallest-last order by rescanning every live vertex for the lowest
    (degree, index) at each step; O(V^2)."""
    n = len(adj)
    alive = (1 << n) - 1
    deg = [adj[v].bit_count() for v in range(n)]
    removal = []
    for _ in range(n):
        v = min((deg[u], u) for u in range(n) if alive >> u & 1)[1]
        removal.append(v)
        alive &= ~(1 << v)
        live_nbrs = adj[v] & alive
        for u in range(n):
            if live_nbrs >> u & 1:
                deg[u] -= 1
    removal.reverse()
    return removal


def coloring_of_masks(masks: list[int]) -> Coloring:
    """The coloring whose classes are the bit masks ``masks``, bit v for
    vertex v + 1."""
    return Coloring(tuple(frozenset(v + 1 for v in _bits(m)) for m in masks))


def position_masks(adj: list[int], order: list[int]) -> list[int]:
    """The bit masks ``adj`` renumbered along ``order``: entry p is the
    neighborhood of ``order[p]``, bit q for ``order[q]``."""
    at = {v: p for p, v in enumerate(order)}
    return [sum(1 << at[u] for u in range(len(adj)) if adj[v] >> u & 1) for v in order]


def masks_from_positions(masks: list[int], order: list[int]) -> list[int]:
    """Masks over positions of ``order`` back as masks over its vertices."""
    return [sum(1 << order[p] for p in range(len(order)) if m >> p & 1) for m in masks]


def greedy_color_classes_masks(adj: list[int], order: list[int]) -> list[int]:
    """First fit along ``order`` on bit masks; returns class bitmasks."""
    classes: list[int] = []
    for v in order:
        for k, mask in enumerate(classes):
            if not (mask & adj[v]):
                classes[k] |= 1 << v
                break
        else:
            classes.append(1 << v)
    return classes


def greedy_clique_size_masks(adj: list[int], vertices: list[int]) -> int:
    """Size of the largest clique grown from each of ``vertices`` in turn,
    each by adding, while any is left, the lowest neighbor adjacent to
    every member so far; on bit masks, and with no cap."""
    most = 0
    for v in vertices:
        size, cand = 1, adj[v]
        while cand:
            size += 1
            cand &= adj[(cand & -cand).bit_length() - 1]
        most = max(most, size)
    return most


def domination_report_scan(universe, neighbors, classes, mixed: bool) -> dict:
    """The fields of a dominator-coloring report, computed by testing every
    neighbor pair (sorted) for a shared class and every object against
    every class's common neighborhood in turn.  ``classes`` must cover the
    universe exactly."""
    key = object_key if mixed else (lambda v: v)
    color_of = {obj: k for k, cls in enumerate(classes) for obj in cls}
    violations = []
    for obj in sorted(universe, key=key):
        for nb in sorted(neighbors[obj], key=key):
            if key(obj) < key(nb) and color_of[obj] == color_of[nb]:
                violations.append((obj, nb, color_of[obj]))

    cn_sets = []
    for cls in classes:
        common = set(universe)
        for m in cls:
            common &= neighbors[m]
        cn_sets.append(frozenset(common))

    witnesses = {}
    undominated = []
    for obj in sorted(universe, key=key):
        for k, cn in enumerate(cn_sets):
            if obj in cn:
                witnesses[obj] = k
                break
        else:
            undominated.append(obj)
    return {
        "valid": not violations and not undominated,
        "proper": not violations,
        "witnesses": list(witnesses.items()),
        "undominated": tuple(undominated),
        "properness_violations": tuple(violations),
        "cn_sets": tuple(cn_sets),
    }


def kcolor_feasible_reference(
    adj: list[int], order: list[int], k: int, search: _Search, need: int = 0,
) -> list[int] | None:
    """Backtracking coloring with at most k classes in which every vertex of
    the bit mask ``need`` has a class inside its open neighborhood; returns
    class bitmasks or None.  Classes are opened in first-use order, and each
    tried class counts one node, as in the library's level search.

    compat[c] keeps the vertices of ``need`` whose neighborhood still holds
    class c, but the witness condition is checked only at a complete
    assignment, so an empty ``need`` (a plain proper coloring) explores the
    same nodes as the search without it.
    """
    n = len(order)
    if n == 0:
        return []
    class_masks = [0] * k
    compat = [need] * k
    chosen = [-1] * n
    used_before = [0] * n
    compat_before = [0] * n
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
        chosen[pos] = c
        used_before[pos] = used
        compat_before[pos] = compat[c]
        class_masks[c] |= 1 << v
        compat[c] &= adj[v]
        if c == used:
            used += 1
        if pos < n - 1:
            pos += 1
            cand[pos] = (1 << min(used + 1, k)) - 1
            continue
        witnessed = 0
        for cls in compat[:used]:
            witnessed |= cls
        if witnessed == need:
            return [m for m in class_masks if m]
        class_masks[c] &= ~(1 << v)
        compat[c] = compat_before[pos]
        used = used_before[pos]


def level_search_reference(adj: list[int], incumbent: list[int], need: int, search: _Search) -> list[int]:
    """Classes of the first level, from the greedy clique bound (at least 2)
    up to one below the incumbent's class count, that
    ``kcolor_feasible_reference`` finds feasible along the smallest-last
    order, or ``incumbent`` when every such level is refuted."""
    order = degeneracy_order_scan(adj)
    for k in range(max(2, greedy_clique_size_masks(adj, order)), len(incumbent)):
        found = kcolor_feasible_reference(adj, order, k, search, need)
        if found is not None:
            return found
    return incumbent


def chromatic_masks_reference(adj: list[int], search: _Search) -> list[int]:
    """Minimum proper coloring of a nonempty connected graph as bitmask
    classes, below the smallest-last greedy coloring."""
    return level_search_reference(adj, greedy_color_classes_masks(adj, degeneracy_order_scan(adj)), 0, search)


def tdc_incumbent_reference(adj: list[int], tds: list[int]) -> list[int]:
    """The total dominator coloring built from the total dominating set
    ``tds``: its members as singletons in index order, then a greedy
    coloring of the other vertices in smallest-last order."""
    rest = greedy_color_classes_masks(adj, [v for v in degeneracy_order_scan(adj) if v not in tds])
    return [1 << v for v in sorted(tds)] + rest


def tdc_masks_reference(adj: list[int], search: _Search) -> list[int]:
    """Minimum total dominator coloring as bitmask classes, below the
    incumbent the library starts from: the coloring built from a greedy
    total dominating set, or the one built from a minimum set, found by
    ``tds_search_reference`` on the same node counter, when that has fewer
    classes."""
    incumbent = tdc_incumbent_reference(adj, _greedy_tds(adj))
    tds: list[int] = []
    tds_search_reference(adj, tds, search)
    exact = tdc_incumbent_reference(adj, tds)
    if len(exact) < len(incumbent):
        incumbent = exact
    return level_search_reference(adj, incumbent, (1 << len(adj)) - 1, search)


def tds_search_reference(adj: list[int], best: list[int], search: _Search) -> None:
    """Branch and bound from a greedy total dominating set that overwrites
    ``best`` with each smaller one it finds: the library's search without
    its failed-state table, so its lists and node counts bound the
    library's one to one."""
    n = len(adj)
    best[:] = _greedy_tds(adj)
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


def tds_search_scan(adj: list[int], best: list[int], search: _Search, seed: list[int] | None = None) -> None:
    """The library's total domination search, failed-state table and all,
    with the branch vertex found by rescanning every uncovered vertex for
    the fewest options outside ``excluded`` (ties to the lowest index) at
    each node: O(V) mask operations per node.  The table's cap is read from
    ``tdtc.solvers`` at each record, so a patched cap holds for both."""
    n = len(adj)
    best[:] = _greedy_tds(adj) if seed is None else seed
    full = (1 << n) - 1
    maxdeg = max(a.bit_count() for a in adj)
    failed: dict[int, int] = {}
    stack: list[tuple] = [([], -1, 0, 0)]
    while stack:
        entry = stack.pop()
        if len(entry) == 3:
            uncovered, room, size = entry
            if len(best) == size and len(failed) < solvers._TDS_MEMO_CAP:
                failed[uncovered] = room
            continue
        prefix, u, covered, excluded = entry
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
        options = 0
        options_count = n + 1
        for v in _bits(uncovered):
            opts = adj[v] & ~excluded
            cnt = opts.bit_count()
            if cnt < options_count:
                options, options_count = opts, cnt
        stack.append((uncovered, room, len(best)))
        while options:  # from the highest option down, so the lowest is searched first
            u = options.bit_length() - 1
            options ^= 1 << u
            stack.append((cur, u, covered | adj[u], excluded | options))


def mis_search_reference(adj: list[int], best: list[int], search: _Search) -> None:
    """Branch and bound from a greedy independent set that overwrites
    ``best`` with each larger one it finds: the library's search with the
    degree-0, degree-1 and triangle reductions taken case by case."""
    n = len(adj)
    best[:] = _greedy_independent(adj)

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


def mis_search_rescan(adj: list[int], best: list[int], search: _Search) -> None:
    """The library's independent set search as it was before its reduction
    scan resumed after each take: after every vertex a dominance reduction
    takes, the scan starts again from the lowest free vertex, O(V) mask
    steps per take."""
    n = len(adj)
    best[:] = _greedy_independent(adj)
    stack = [((1 << n) - 1, [])]
    while stack:
        free, cur = stack.pop()
        search.tick()
        while free:
            for v in _bits(free):
                nb = adj[v] & free
                d = nb.bit_count()
                if d <= 1 or (d == 2 and adj[(nb & -nb).bit_length() - 1] & nb):
                    cur.append(v)
                    free &= ~(adj[v] | (1 << v))
                    break
            else:
                break
        if not free:
            if len(cur) > len(best):
                best[:] = cur
            continue
        if len(cur) + _clique_cover_count(adj, free) <= len(best):
            continue
        v = max(_bits(free), key=lambda u: ((adj[u] & free).bit_count(), -u))
        stack.append((free & ~(1 << v), cur))
        stack.append((free & ~(adj[v] | (1 << v)), cur + [v]))


def tdc_from_tds_reference(g: Graph, s) -> Coloring:
    """The total dominator coloring of g built from the total dominating set
    s as the library built it before it colored the rest on neighbor lists:
    s checked by ``is_total_dominating_set``, its members as singletons in
    index order, then the classes ``chromatic_number`` gives the induced
    subgraph of the other vertices, relabelled 1..k in index order, mapped
    back."""
    s = frozenset(s)
    ok, uncovered = is_total_dominating_set(g, s)
    if not ok:
        raise DomainError(f"not a total dominating set, uncovered vertices: {list(uncovered)}")
    singletons = [frozenset([v]) for v in sorted(s)]
    sub, old = induced_subgraph(g, frozenset(g.vertices) - s)
    sub_classes = chromatic_number(sub).certificate.classes
    mapped = [frozenset(old[v - 1] for v in cls) for cls in sub_classes]
    return Coloring(tuple(singletons) + tuple(mapped))


def mixed_neighbors_reference(g: Graph) -> dict:
    """The former body of ``graphs.mixed_neighbors``: objects built by
    ``Vertex``/``Edge``, vertex neighbours read from ``g.adj``."""
    vertex = [None, *map(Vertex, g.vertices)]
    pairs = g.sorted_edges()
    edges = [Edge(i, j) for i, j in pairs]
    incident: list[list[Edge]] = [[] for _ in vertex]
    for (i, j), e in zip(pairs, edges):
        incident[i].append(e)
        incident[j].append(e)

    nbrs: dict = {}
    for v, nbr in g.adj.items():
        nbrs[vertex[v]] = frozenset([*map(vertex.__getitem__, nbr), *incident[v]])
    for (i, j), e in zip(pairs, edges):
        out = [vertex[i], vertex[j], *incident[i], *incident[j]]
        out.remove(e)  # from incident[i]
        out.remove(e)  # from incident[j]
        nbrs[e] = frozenset(out)
    return nbrs


def total_graph_reference(g: Graph) -> tuple[Graph, tuple[ObjectId, ...]]:
    """The former body of ``graphs.total_graph``: the edges of g, then each
    edge object joined to its endpoints and to every edge object listed at
    an endpoint before it, added to a set and checked by ``Graph``."""
    labels = mixed_objects(g)
    tedges = set(g.edges)
    incident: list[list[int]] = [[] for _ in range(g.n + 1)]
    for k, (i, j) in enumerate(labels[g.n:], g.n + 1):
        tedges.add((i, k))
        tedges.add((j, k))
        incident[i].append(k)
        incident[j].append(k)
    for ids in incident:
        tedges.update(combinations(ids, 2))
    return Graph(len(labels), tedges), labels


def label_index(labels) -> dict:
    """The vertex id k of each object ``labels[k - 1]`` of a derived graph."""
    return {o: k for k, o in enumerate(labels, 1)}


def relabel(coloring: Coloring, new) -> Coloring:
    """``coloring`` with each member x replaced by ``new[x]``, in class order:
    ``label_index(labels)`` maps objects to vertex ids, and
    ``dict(enumerate(labels, 1))`` maps vertex ids back to objects."""
    return Coloring(tuple(frozenset(map(new.__getitem__, cls)) for cls in coloring.classes))


def tdtc_certificate_reference(family: str, n: int) -> Coloring:
    """The former body of ``closed_forms.tdtc_certificate`` for an n it
    constructs: ``tdc_from_tds_reference`` on ``total_graph_reference``'s
    graph from the vertex ids of the minimum total mixed dominating set,
    the classes mapped back to objects through the labels."""
    inst = cf.FamilyInstance(family, n)
    tg, labels = total_graph_reference(inst.graph())
    index = label_index(labels)
    return relabel(tdc_from_tds_reference(tg, {index[o] for o in cf._tmds(inst)}), dict(enumerate(labels, 1)))


def line_graph_reference(g: Graph) -> tuple[Graph, tuple[Edge, ...]]:
    """The former body of ``graphs.line_graph``: the subgraph of the total
    graph induced by its edge objects, the total graph built by
    ``total_graph_reference``, which shares no code with the library's."""
    tg, labels = total_graph_reference(g)
    lg, _ = induced_subgraph(tg, range(g.n + 1, g.n + g.m + 1))
    return lg, labels[g.n:]


def adj_masks_reference(g: Graph) -> list[int]:
    """The former ``solvers._adj_masks``: g's bit masks, bit v - 1 for
    vertex v, read off its edges."""
    adj = [0] * g.n
    for i, j in g.edges:
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)
    return adj


def mixed_solve_reference(solve, g: Graph, budget=None):
    """The former route of the mixed solver ``solve``: the search it runs
    on the total graph, here ``total_graph_reference(g)``, on
    ``adj_masks_reference`` for a set search and on ``solvers._neighbors``
    for a coloring search, with the answer's vertex ids mapped back to
    objects through the labels.  Requires what ``solve`` requires of g."""
    search, is_set = {
        solvers.mixed_independence_number: (solvers._mis_search, True),
        solvers.total_mixed_domination_number: (solvers._tds_search, True),
        solvers.total_chromatic_number: (solvers._chromatic, False),
        solvers.tdtc_number: (solvers._tdc_search, False),
    }[solve]
    h, labels = total_graph_reference(g)
    back = dict(enumerate(labels, 1))
    if is_set:
        return solvers._solve(adj_masks_reference(h), h.vertices, budget, search,
                              lambda ids, best: frozenset(map(back.__getitem__, solvers._vertex_set(ids, best))))
    return solvers._solve(solvers._neighbors(h), h.vertices, budget, search,
                          lambda ids, best: relabel(solvers._coloring(ids, best), back))


def _impostors_former(s: frozenset) -> list:
    """The members of ``s`` that are tuples but not mixed objects."""
    kinds = [k for k in set(map(type, s)) if issubclass(k, tuple) and not issubclass(k, (Vertex, Edge))]
    return [x for x in s if type(x) in kinds] if kinds else []


def _members_former(neighbors, s, complaint) -> frozenset:
    s = frozenset(s)
    outside = [x for x in s if x not in neighbors]
    outside += (x for x in _impostors_former(s) if x in neighbors)
    if outside:
        raise DomainError(complaint(outside))
    return s


def _adjacent_pairs_former(neighbors: dict, cls: frozenset) -> list[tuple]:
    return [(a, b) for a in cls for b in neighbors[a] & cls if verify._order(a) < verify._order(b)]


def _properness_violations_former(neighbors: dict, coloring: Coloring) -> list[tuple]:
    members = coloring.members()
    impostors = _impostors_former(members)
    if impostors or neighbors.keys() != members:
        members = members.difference(impostors)
        missing = sorted(neighbors.keys() - members, key=verify._order)
        extra = sorted([*impostors, *(members - neighbors.keys())], key=verify._order)
        raise DomainError(
            f"coloring does not cover the universe (missing={quote_list(missing)}, extra={quote_list(extra)})"
        )
    violations = [
        (a, b, k) for k, cls in enumerate(coloring.classes) for a, b in _adjacent_pairs_former(neighbors, cls)
    ]
    violations.sort(key=verify._pair_order)
    return violations


def _domination_report_former(neighbors: dict, coloring: Coloring) -> verify.DominationReport:
    violations = _properness_violations_former(neighbors, coloring)
    cn_sets = tuple(reduce(frozenset.intersection, (neighbors[m] for m in cls)) for cls in coloring.classes)
    first: dict = {}
    for k, cn in enumerate(cn_sets):
        for obj in cn:
            first.setdefault(obj, k)
    witnesses = {}
    undominated = []
    for obj in neighbors:
        k = first.get(obj)
        if k is None:
            undominated.append(obj)
        else:
            witnesses[obj] = k
    proper = not violations
    return verify.DominationReport(
        valid=proper and not undominated,
        proper=proper,
        witnesses=witnesses,
        undominated=tuple(undominated),
        properness_violations=tuple(violations),
        cn_sets=cn_sets,
    )


def _proper_former(neighbors: dict, coloring: Coloring) -> tuple:
    violations = _properness_violations_former(neighbors, coloring)
    return (False, violations[0][:2]) if violations else (True, None)


def _uncovered_former(neighbors: dict, s, complaint) -> tuple:
    s = _members_former(neighbors, s, complaint)
    uncovered = tuple(obj for obj, nbrs in neighbors.items() if not (nbrs & s))
    return not uncovered, uncovered


def _first_adjacent_pair_former(neighbors: dict, s, complaint) -> tuple:
    pairs = _adjacent_pairs_former(neighbors, _members_former(neighbors, s, complaint))
    return (False, min(pairs, key=verify._pair_order)) if pairs else (True, None)


def _on_neighbor_map(core, mixed: bool, *complaint):
    """``core`` run on g's neighbour map: ``mixed_neighbors_reference(g)``
    for the mixed universe, ``g.adj`` for the vertices."""
    return lambda g, cert: core(mixed_neighbors_reference(g) if mixed else g.adj, cert, *complaint)


# the former body of each public check of ``tdtc.verify``
FORMER_CHECKS = {
    verify.is_proper_coloring: _on_neighbor_map(_proper_former, False),
    verify.is_proper_total_coloring: _on_neighbor_map(_proper_former, True),
    verify.is_tdc: _on_neighbor_map(_domination_report_former, False),
    verify.is_tdtc: _on_neighbor_map(_domination_report_former, True),
    verify.is_total_dominating_set: _on_neighbor_map(_uncovered_former, False, verify._not_vertices),
    verify.is_total_mixed_dominating_set: _on_neighbor_map(_uncovered_former, True, verify._not_objects),
    verify.is_independent_set: _on_neighbor_map(_first_adjacent_pair_former, False, verify._not_vertices),
    verify.is_mixed_independent_set: _on_neighbor_map(_first_adjacent_pair_former, True, verify._not_objects),
}
