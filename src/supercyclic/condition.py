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
its triples and for the single size of ``is_k_cyclic``, and so does the
orderly walk's condition test for its triples; the cache holds a bounded
number of them.

Adding an edge never breaks an A that passes.  Proof: let the new edge be
xy.  N^(A) only grows, so the size clause still holds.  H = G[A union
N^(A)] changes only if x is in A: if y already had two neighbors in A, xy
is one more edge of H; if it had one, y joins H with two neighbors in A;
otherwise H is unchanged.  An edge added to a 2-connected graph, or a
vertex joined to two of its vertices, leaves it 2-connected.  So after an
added edge the first failing A comes no earlier than before, and a scan
may start its tests at the old witness (``_scan``'s ``after``), as the
hunt's repair does; after a deleted edge it starts over.
"""

from __future__ import annotations

from itertools import combinations, dropwhile
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

    2-connectivity is tested on triples only, in either mode, which decides
    it for every A (module docstring); ``mode`` just labels the report.
    """
    if mode not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {mode!r}")
    kind, amask = _scan(g.x_adj)
    if not kind:
        return ConditionReport(True, mode)
    witness = VertexSet(SIDE_X, amask)
    if kind == "size":
        return ConditionReport(False, mode, size_witness=witness)
    return ConditionReport(False, mode, connectivity_witness=witness)


def _scan(x_adj: tuple[int, ...], after: int = 0) -> tuple[str, int]:
    """The first A that fails, as (kind, A) with kind "size" or "triple",
    or ("", 0) if none does.

    A nonzero ``after`` is the witness of a scan made before one more edge
    was added: every A before it still passes (module docstring), so the
    tests start at it.
    """
    walk = _subsets(x_adj)
    if after:
        walk = dropwhile(lambda pair: pair[0] != after, walk)
    for amask, twice in walk:
        size = amask.bit_count()
        if twice.bit_count() < size:
            return "size", amask
        if size == 3 and not _triple_is_two_connected(x_adj, amask, twice):
            return "triple", amask
    return "", 0


def min_deficiency(g: Bigraph) -> tuple[int, VertexSet]:
    """min over A of |N^(A)| - |A|, with a subset attaining it.

    Ties break to the smallest subset, then lexicographically.  Negative
    means the size clause of the condition fails; 0 means the graph sits on
    its boundary.  Defined only for |X| >= 3.
    """
    if g.x_count < 3:
        raise InputError("deficiency is defined for graphs with |X| >= 3")

    walk = _subsets(g.x_adj)
    best, twice = next(walk)
    low = twice.bit_count() - 3
    for amask, twice in walk:
        d = twice.bit_count() - amask.bit_count()
        if d < low:  # strictly: a tie keeps the earliest in walk order
            low, best = d, amask
    return low, VertexSet(SIDE_X, best)


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
