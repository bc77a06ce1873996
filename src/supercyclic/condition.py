"""The neighborhood condition necessary for super-cyclicity, plus degree bounds.

The condition: for every A subset of X with |A| >= 3,

    |N^(A)| >= |A|   and   the induced graph on A union N^(A) is 2-connected,

where N^(A) is the super-neighborhood (Y-vertices with two neighbors in A).
Its 2-connectivity clause needs testing only on triples.  Lemma: if every
triple T passes, so does every A with |A| >= 4.  Proof: each y of
H = G[A union N^(A)] has two neighbors in A, and N^(T) lies in N^(A) for
T in A.  Delete any vertex v of H.  Two X-vertices left lie in a triple T
of A that avoids v, and G[T union N^(T)] - v is connected, so they stay
joined; every y left keeps a neighbor in A - v.  So H - v is connected.

The scan goes by size, so every triple is tested before any larger A, and
the first failure is always a size failure or a triple.  The ``full`` and
``kim`` modes therefore run the same scan and differ only in the label of
the report; ``tests/oracles.py`` keeps the literal every-A scan as the
referee.  A triple's test is a few mask operations on its three
neighborhoods, with no block search (see ``bigraph._triple_is_two_connected``).

Both the condition and ``min_deficiency`` run over one subset walk,
``_subsets``: ascending |A|, lexicographic within a size.  The condition
stops at the first failing A, so its witness is minimal in that order, and
``min_deficiency`` keeps the first A of least deficiency.  The walk does a
constant amount of work per subset: a triple's N^ comes from its three
neighborhoods, and a larger A's from the cover of its lex prefix
A - max(A), one size down, folded with one more neighborhood the way
``bigraph._cover`` folds.  ``cycles`` walks the same rows, ``_order``, for
its triples and for the single size of ``is_k_cyclic``; the cache holds a
bounded number of them.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterable, Iterator, NamedTuple

from .bigraph import (Bigraph, VertexSet, SIDE_X, _Record,
                      _triple_is_two_connected)
from .errors import InputError

MODES = ("full", "kim")


class ConditionReport(_Record):
    """Outcome of the neighborhood condition on one graph.

    At most one witness is set; the scan goes by ascending subset size and
    lexicographic order within a size, and stops at the first failure, so
    a witness is always a minimal failing subset in that order.
    """

    __slots__ = ("passed", "mode", "size_witness", "connectivity_witness")

    def __init__(self, passed: bool, mode: str,
                 size_witness: VertexSet | None = None,
                 connectivity_witness: VertexSet | None = None) -> None:
        if passed != (size_witness is None and connectivity_witness is None):
            raise InputError("passed iff no witness is set")
        self.passed = passed
        self.mode = mode
        self.size_witness = size_witness
        self.connectivity_witness = connectivity_witness

    def describe(self) -> str:
        if self.passed:
            return f"neighborhood condition: PASS [mode={self.mode}]"
        if self.size_witness is not None:
            a = self.size_witness
            return (f"neighborhood condition: FAIL [mode={self.mode}]; "
                    f"|N^({a})| < {len(a)}")
        a = self.connectivity_witness
        return (f"neighborhood condition: FAIL [mode={self.mode}]; "
                f"graph on {a} union N^({a}) is not 2-connected")


def check_condition(g: Bigraph, mode: str = "full") -> ConditionReport:
    """Test the neighborhood condition; vacuously true when |X| < 3.

    2-connectivity is tested on triples only, in either mode; ``mode`` just
    labels the report.  This decides the clause for every A: when the scan
    reaches an A with |A| >= 4, every triple T in A has passed, so
    G[T union N^(T)] is 2-connected, with N^(T) inside N^(A).  Deleting a
    vertex v from H = G[A union N^(A)] leaves any two X-vertices of A - v in
    a triple avoiding v (|A| >= 4 leaves a third), whose graph minus v is
    connected, and every y of H - v a neighbor in A - v.  So H is
    2-connected, and the first failure is a size failure or a triple.
    """
    if mode not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {mode!r}")
    failure = _first_failure(g.x_adj)
    if failure is None:
        return ConditionReport(True, mode)
    amask, size_fails = failure
    a = VertexSet(SIDE_X, amask)
    if size_fails:
        return ConditionReport(False, mode, size_witness=a)
    return ConditionReport(False, mode, connectivity_witness=a)


def _first_failure(x_adj: tuple[int, ...]) -> tuple[int, bool] | None:
    """The first A of the walk that fails the condition, as a mask, and
    whether it fails the size clause; None when every A passes."""
    for amask, twice in _subsets(x_adj):
        size = amask.bit_count()
        if twice.bit_count() < size:
            return amask, True
        if size == 3 and not _triple_is_two_connected(x_adj, amask, twice):
            return amask, False
    return None


def min_deficiency(g: Bigraph) -> tuple[int, VertexSet]:
    """min over A of |N^(A)| - |A|, with a subset attaining it.

    Ties break to the smallest subset, then lexicographically.  Negative
    means the size clause of the condition fails; 0 means the graph sits on
    its boundary.  Defined only for |X| >= 3.
    """
    if g.x_count < 3:
        raise InputError("deficiency is defined for graphs with |X| >= 3")

    def deficiency(pair: tuple[int, int]) -> int:
        amask, twice = pair
        return twice.bit_count() - amask.bit_count()

    # min keeps the first of equal keys, which is the earliest in walk order
    best = min(_subsets(g.x_adj), key=deficiency)
    return deficiency(best), VertexSet(SIDE_X, best[0])


#: the walk orders held, by (|X|, size): (A, x1, x2, x3) for triples,
#: (A, A - max(A), max(A)) above them.  An order longer than _ORDER_ROWS is
#: generated afresh by each walk, so an early stop builds none of it; a
#: shorter one is held, and the cache is emptied first if it would not fit.
_ORDERS: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
_ORDER_ROWS = 1 << 16


def _order(nx: int, size: int) -> Iterable[tuple[int, ...]]:
    order = _ORDERS.get((nx, size))
    if order is None and comb(nx, size) <= _ORDER_ROWS:
        if comb(nx, size) + sum(map(len, _ORDERS.values())) > _ORDER_ROWS:
            _ORDERS.clear()
        order = _ORDERS[nx, size] = tuple(_rows(nx, size))
    return _rows(nx, size) if order is None else order


def _rows(nx: int, size: int) -> Iterator[tuple[int, ...]]:
    if size == 3:
        for i, j, k in combinations(range(1, nx + 1), 3):
            yield 1 << i | 1 << j | 1 << k, i, j, k
        return
    for amask in map(sum, combinations([1 << i for i in range(1, nx + 1)],
                                       size)):
        x = amask.bit_length() - 1
        yield amask, amask ^ 1 << x, x


def _subsets(x_adj: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """Yield (A, N^(A)) as bitmasks for every A subset of X with |A| >= 3,
    by ascending size, then lexicographically within a size.

    A triple's cover comes from its three neighborhoods a, b, c: N^ is
    a&b | (a|b)&c and the Y-vertices seen once are a|b|c.  A larger A
    extends its lex prefix A - max(A), which the previous size has just
    walked, by the one neighborhood of max(A), as ``bigraph._cover`` folds.
    Only the covers of the previous size are kept, in a dict, so nothing
    of size 2^|X| is built ahead of the walk.
    """
    nx = len(x_adj) - 1
    covers: dict[int, tuple[int, int]] = {}
    for amask, i, j, k in _order(nx, 3):
        a, b, c = x_adj[i], x_adj[j], x_adj[k]
        ab = a | b
        twice = a & b | ab & c
        covers[amask] = ab | c, twice
        yield amask, twice
    for size in range(4, nx + 1):
        level: dict[int, tuple[int, int]] = {}
        for amask, rest, x in _order(nx, size):
            once, twice = covers[rest]
            nbr = x_adj[x]
            twice |= once & nbr
            level[amask] = once | nbr, twice
            yield amask, twice
        covers = level


class DegreeThresholds(NamedTuple):
    """Exact integer tests of the minimum-X-degree hypotheses.

    With n = |X|, m = |Y| and d the minimum X-side degree, the three bounds
    are d >= max(n, (m+2)/2), d >= max(n, (m+5)/3) and
    d >= max(n, (m+10)/4), decided as 2d >= m+2 and so on, never through
    floating point.
    """

    x_count: int
    y_count: int
    min_x_degree: int
    meets_half_bound: bool
    meets_third_bound: bool
    meets_quarter_bound: bool

    def describe(self) -> str:
        def mark(b: bool) -> str:
            return "yes" if b else "no"
        return (f"n={self.x_count} m={self.y_count} delta={self.min_x_degree}; "
                f"delta >= max(n,(m+2)/2): {mark(self.meets_half_bound)}; "
                f">= max(n,(m+5)/3): {mark(self.meets_third_bound)}; "
                f">= max(n,(m+10)/4): {mark(self.meets_quarter_bound)}")


def degree_hypothesis(g: Bigraph) -> DegreeThresholds:
    return _thresholds(g.x_count, g.y_count, g.min_x_degree)


def _thresholds(n: int, m: int, d: int) -> DegreeThresholds:
    """The three bounds for |X| = n, |Y| = m and minimum X-degree d."""
    return DegreeThresholds(
        x_count=n,
        y_count=m,
        min_x_degree=d,
        meets_half_bound=d >= n and 2 * d >= m + 2,
        meets_third_bound=d >= n and 3 * d >= m + 5,
        meets_quarter_bound=d >= n and 4 * d >= m + 10,
    )
