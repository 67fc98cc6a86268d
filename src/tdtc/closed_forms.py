"""Closed forms and explicit constructions for cycles and paths.

Three invariants have exact formulas on these families: the total mixed
domination number (period-7 case split), the mixed independence number
(period 3), and the total dominator total chromatic number.  Each formula
and construction takes the family and the order n, and raises DomainError
through ``FamilyInstance`` for an order outside the family's domain.

The construction side produces matching certificates for every n:

* ``min_tmds`` - a total mixed dominating set of the formula's size,
  built from the periodic block {v_{7i+2}, v_{7i+3}, e_{(7i+5)(7i+6)},
  e_{(7i+6)(7i+7)}} plus a congruence-dependent tail at the high end.
* ``max_mixed_independent_set`` - a mixed independent set of the formula's
  size, taking every third vertex and every third edge.
* ``tdtc_certificate`` - an optimal total dominator total coloring.
  Small cases come from literal stored tables (the hand-built optima) or,
  for cycles on 5..8 vertices, from the rotation scheme that pairs v_i
  with e_{(i+1)(i+2)}; ``certificate_source`` labels both kinds of small
  case ``stored-table``.  All remaining n use the generic construction
  that turns the minimum dominating set into singleton classes and colors
  the rest exactly (three more classes), which meets the formula on
  exactly the n where the formula is dominating-number + 3.

Index arithmetic follows the 1-based constructions literally; cycle
indices reduce mod n into 1..n, so the wrap edge is Edge(1, n).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    Coloring,
    DomainError,
    Edge,
    Graph,
    ObjectId,
    Vertex,
    coloring_from_total,
    cycle,
    parse_object,
    path,
    total_graph,
)
from .verify import tdc_from_tds

CYCLE = "cycle"
PATH = "path"
STORED_TABLE = "stored-table"
CONSTRUCTED = "constructed-from-tds"


@dataclass(frozen=True)
class FamilyInstance:
    """A cycle or path of a given order."""

    family: str
    n: int

    def __post_init__(self) -> None:
        if self.family not in (CYCLE, PATH):
            raise DomainError(f"unknown family {self.family!r}")
        low = 3 if self.family == CYCLE else 2
        if self.n < low:
            raise DomainError(f"{self.family} requires n >= {low}, got {self.n}")

    def graph(self) -> Graph:
        return cycle(self.n) if self.family == CYCLE else path(self.n)


@dataclass(frozen=True)
class FormulaValue:
    """Formula output plus the case split branch that produced it."""

    value: int
    case_tag: str


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

# gamma_tm = 4 * ceil(n / 7) - deficit, by the residue class of n mod 7
_GAMMA_TM_CASES = {
    CYCLE: (((1,), 3), ((2, 3), 2), ((4,), 1), ((0, 5, 6), 0)),
    PATH: (((1,), 3), ((2, 3, 4), 2), ((5,), 1), ((0, 6), 0)),
}


def _gamma_tm_case(family: str, n: int) -> tuple[int, tuple[int, ...]]:
    """gamma_tm's value and the residues mod 7 of its case; no domain check."""
    r = n % 7
    for residues, deficit in _GAMMA_TM_CASES[family]:
        if r in residues:
            break
    return 4 * _ceil_div(n, 7) - deficit, residues


def gamma_tm(family: str, n: int) -> FormulaValue:
    """Total mixed domination number of the cycle or path of order n."""
    inst = FamilyInstance(family, n)
    value, residues = _gamma_tm_case(inst.family, n)
    tag = f"n % 7 == {residues[0]}" if len(residues) == 1 else f"n % 7 in {residues}"
    return FormulaValue(value, tag)


def alpha_mix(family: str, n: int) -> FormulaValue:
    """Mixed independence number: floor(2n/3) on cycles, ceil((2n-1)/3) on paths."""
    if FamilyInstance(family, n).family == CYCLE:
        return FormulaValue((2 * n) // 3, "n >= 3")
    return FormulaValue(_ceil_div(2 * n - 1, 3), "n >= 2")


def chi_tt(family: str, n: int) -> FormulaValue:
    """Total dominator total chromatic number of the cycle or path of order n."""
    if FamilyInstance(family, n).family == CYCLE:
        if n <= 8:
            return FormulaValue(n, "3 <= n <= 8")
        if n == 9:
            return FormulaValue(n - 1, "n == 9")
        if n % 7 == 5 and n != 12:
            return FormulaValue(_ceil_div(4 * n, 7) + 4, "n >= 10, n % 7 == 5, n != 12")
        return FormulaValue(_ceil_div(4 * n, 7) + 3, "n >= 10, n % 7 != 5 or n == 12")
    if n == 2:
        return FormulaValue(n + 1, "n == 2")
    if n <= 7:
        return FormulaValue(n, "3 <= n <= 7")
    if n <= 9:
        return FormulaValue(n - 1, "8 <= n <= 9")
    if n % 7 == 4 or n in (10, 13, 16):
        return FormulaValue((4 * n) // 7 + 3, "n >= 10, n % 7 == 4 or n in (10, 13, 16)")
    return FormulaValue(_ceil_div(4 * n, 7) + 3, "n >= 10, n % 7 != 4, n not in (10, 13, 16)")


# ---------------------------------------------------------------------------
# Minimum total mixed dominating sets
# ---------------------------------------------------------------------------


def _tmds(inst: FamilyInstance) -> list[ObjectId]:
    n, r = inst.n, inst.n % 7
    out: list[ObjectId] = []
    for i in range(n // 7):
        b = 7 * i
        out += [Vertex(b + 2), Vertex(b + 3), Edge(b + 5, b + 6), Edge(b + 6, b + 7)]
    if r == 1:
        out += [Edge(n - 1, n)]
    elif r in (2, 3):
        out += [Vertex(n - 1), Vertex(n)]
    elif r in (4, 5):
        # v_{n+2-r} .. v_n on a cycle; a path stops at v_{n-1}
        last = n if inst.family == CYCLE else n - 1
        out += [Vertex(i) for i in range(n + 2 - r, last + 1)]
    elif r == 6:
        out += [Vertex(n - 4), Vertex(n - 3), Edge(n - 2, n - 1), Edge(n - 1, n)]
    return out


def min_tmds(family: str, n: int) -> frozenset[ObjectId]:
    """A minimum total mixed dominating set of the cycle or path of order n."""
    return frozenset(_tmds(FamilyInstance(family, n)))


# ---------------------------------------------------------------------------
# Maximum mixed independent sets
# ---------------------------------------------------------------------------


def max_mixed_independent_set(family: str, n: int) -> frozenset[ObjectId]:
    """A maximum mixed independent set of the family instance."""
    inst = FamilyInstance(family, n)
    out: list[ObjectId] = []
    if inst.family == CYCLE:
        if n % 3 in (0, 1):
            for i in range(1, n // 3 + 1):
                out += [Vertex(3 * i - 2), Edge(3 * i - 1, 3 * i)]
        else:
            out += [Vertex(3 * i - 2) for i in range(1, _ceil_div(n, 3) + 1)]
            out += [Edge(3 * i - 1, 3 * i) for i in range(1, n // 3 + 1)]
    else:
        out += [Vertex(3 * i + 1) for i in range(_ceil_div(n, 3))]
        out += [Edge(3 * i + 2, 3 * i + 3) for i in range(n // 3)]
    return frozenset(out)


# ---------------------------------------------------------------------------
# Optimal total dominator total colorings
# ---------------------------------------------------------------------------

# Literal optimal colorings for the cases the general construction cannot
# reach (the n where the optimum is below dominating-number + 3).
_STORED_CYCLE: dict[int, list[list[str]]] = {
    3: [["v1", "e2_3"], ["v3", "e1_2"], ["v2", "e1_3"]],
    4: [["e1_2", "e3_4"], ["e2_3", "e1_4"], ["v1", "v3"], ["v2", "v4"]],
    9: [
        ["v1", "v6", "v8", "e2_3", "e4_5"],
        ["v7", "v9", "e1_2", "e3_4", "e5_6"],
        ["v2", "e1_9"],
        ["v3"],
        ["v4"],
        ["v5", "e6_7"],
        ["e7_8"],
        ["e8_9"],
    ],
    12: [
        ["v4", "v6", "v11", "e1_12", "e2_3", "e7_8", "e9_10"],
        ["v5", "v10", "v12", "e1_2", "e3_4", "e6_7", "e8_9"],
        ["v2"],
        ["v1", "v3"],
        ["e4_5"],
        ["e5_6"],
        ["v7", "v9"],
        ["v8"],
        ["e10_11"],
        ["e11_12"],
    ],
}

_STORED_PATH: dict[int, list[list[str]]] = {
    2: [["v1"], ["v2"], ["e1_2"]],
    3: [["v1", "e2_3"], ["v3", "e1_2"], ["v2"]],
    4: [["v2"], ["v3"], ["e1_2", "e3_4"], ["v1", "e2_3", "v4"]],
    5: [["v2"], ["v3"], ["v4"], ["v5", "e1_2", "e3_4"], ["v1", "e2_3", "e4_5"]],
    6: [["v2"], ["v3"], ["v4"], ["v5"], ["e1_2", "e3_4", "e5_6"], ["v1", "e2_3", "e4_5", "v6"]],
    8: [
        ["v1", "e2_3", "e4_5", "e6_7", "v8"],
        ["e1_2", "e3_4", "v5", "e7_8"],
        ["v4", "e5_6"],
        ["v3"],
        ["v2"],
        ["v6"],
        ["v7"],
    ],
    9: [
        ["v2"],
        ["v3"],
        ["e4_5"],
        ["e5_6"],
        ["v7"],
        ["v8"],
        ["v1", "v4", "v6", "v9", "e2_3", "e7_8"],
        ["e1_2", "e3_4", "e6_7", "e8_9", "v5"],
    ],
    10: [
        ["v1", "v4", "v6", "e2_3", "e7_8", "e9_10"],
        ["v5", "v7", "v10", "e1_2", "e3_4", "e8_9"],
        ["e4_5", "e6_7"],
        ["e5_6"],
        ["v2"],
        ["v3"],
        ["v8"],
        ["v9"],
    ],
    13: [
        ["v1", "v6", "v8", "v13", "e2_3", "e4_5", "e9_10", "e11_12"],
        ["v5", "v7", "v9", "e1_2", "e3_4", "e10_11", "e12_13"],
        ["v4", "e5_6"],
        ["v10", "e8_9"],
        ["v2"],
        ["v3"],
        ["e6_7"],
        ["e7_8"],
        ["v11"],
        ["v12"],
    ],
    16: [
        ["v1", "v4", "v6", "v11", "v13", "v16", "e2_3", "e7_8", "e9_10", "e14_15"],
        ["v5", "v7", "v10", "v12", "e1_2", "e3_4", "e8_9", "e13_14", "e15_16"],
        ["v2"],
        ["v3"],
        ["e4_5", "e6_7"],
        ["e5_6"],
        ["v8"],
        ["v9"],
        ["e10_11", "e12_13"],
        ["e11_12"],
        ["v14"],
        ["v15"],
    ],
}


def _table_coloring(table: list[list[str]]) -> Coloring:
    return Coloring(tuple(frozenset(parse_object(t) for t in cls) for cls in table))


def _cyc(p: int, n: int) -> int:
    return (p - 1) % n + 1


def _cycle_scheme(n: int) -> Coloring:
    # class i pairs v_i with the edge two steps ahead; optimal for 5 <= n <= 8
    classes = [
        frozenset({Vertex(i), Edge(_cyc(i + 1, n), _cyc(i + 2, n))})
        for i in range(1, n + 1)
    ]
    return Coloring(tuple(classes))


def _small_case(inst: FamilyInstance) -> Coloring | None:
    """The stored table's coloring, or the cycle scheme for 5 <= n <= 8;
    None for the instances whose coloring is constructed."""
    table = (_STORED_CYCLE if inst.family == CYCLE else _STORED_PATH).get(inst.n)
    if table is not None:
        return _table_coloring(table)
    if inst.family == CYCLE and 5 <= inst.n <= 8:
        return _cycle_scheme(inst.n)
    return None


def tdtc_certificate(family: str, n: int) -> Coloring:
    """An optimal total dominator total coloring of the cycle or path of order n."""
    inst = FamilyInstance(family, n)
    small = _small_case(inst)
    if small is not None:
        return small
    tg = total_graph(inst.graph())
    return coloring_from_total(tg, tdc_from_tds(tg.graph, tg.to_vertex_ids(_tmds(inst))))


def certificate_source(family: str, n: int) -> str:
    """How tdtc_certificate obtains its coloring for this instance:
    ``stored-table`` for every hand-built small case, a literal table and
    the cycle rotation scheme alike, else ``constructed-from-tds``."""
    return CONSTRUCTED if _small_case(FamilyInstance(family, n)) is None else STORED_TABLE
