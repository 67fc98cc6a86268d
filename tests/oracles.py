"""Independent oracles: exhaustive enumeration over subsets and set
partitions, a direct search over mixed objects, and the alternate printed
forms of the cycle/path formulas.

These deliberately share no search machinery with the solvers and no case
split with the library's formulas; they are the ground truth the library is
checked against.
"""

from itertools import combinations

import tdtc.closed_forms as cf
from tdtc import Graph, mixed_neighbors, mixed_objects


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


def _independent(g: Graph, cls) -> bool:
    return all(not g.has_edge(a, b) for a, b in combinations(sorted(cls), 2))


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
