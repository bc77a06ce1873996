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

A triple's clauses are counts (Hall's lemma).  For T = {x1 < x2 < x3} let
p = N(x1) & N(x2), q = N(x2) & N(x3) and r = N(x1) & N(x3).  Then N^(T) is
p | q | r, and the degree of x2 in H_T = G[T union N^(T)] is |p | q| (of
x1, |p | r|; of x3, |q | r|).  Lemma: H_T is 2-connected iff p, q and r
are non-empty and each union of two has at least two ys.  Proof: if p is
empty, every path from x1 to x2 runs through x3; if |p | q| = 1, x2 hangs
on one y.  Conversely, delete a vertex v.  If v is an X-vertex, the other
two share a y, and every y keeps a neighbor.  If v = y, a set empties only
if it was {y}, and two such sets would have a union of one y; so two of
p, q, r stay non-empty and join the three X-vertices.  So T passes both
clauses iff p, q, r meet Hall's condition (with |p | q | r| >= 3), i.e.
iff T carries a based cycle (``cycles`` docstring).

The scan goes by size, so every triple is tested before any larger A, and
the first failure is always a size failure or a triple.  The ``full`` and
``kim`` modes therefore run the same scan and differ only in the label of
the report; ``tests/oracles.py`` keeps the literal every-A scan as the
referee.

The scan runs on packed counts.  A level (``_Level``) of (|X|, size) holds
one 8-bit count per field of ``bigraph._condition_fields(|X|, size)``: a
row of fields per A, in lex order (``bitset.subset_masks``, which
``cycles`` follows too), |N^(A)| first.  A Y-column c, the mask of a y's
X-neighbors, serves the fields it counts toward, and ``served(c)``, the
level's ``self[c]``, holds a one in each of them; a graph's counts are the
sum of ``served`` over its columns.  ``served(c)`` is the ``twice`` mask of
``bigraph._cover`` over c's X-vertices, applied to per-x masks of the
fields whose scope holds x, with the fields that need an x kept only for
the x in c.  It is memoised by column.

Byte arithmetic.  A count is at most |Y| <= 64 and a threshold at most
|X| <= 64, so each field of ``counts + (guard - thresholds)``, with guard
128 in every field, stays in 64..191 and never carries: its guard bit is
set iff the count meets its threshold.  The lowest guard bit cleared is
the first failure.  Its field gives A, and its offset within a triple's
fields the kind: "size" at offset 0, "triple" after it.  Levels are built
lazily in size order and the scan stops at the first failing level, so a
large |X| whose first triple fails builds level 3 only.  A level of more
than ``LEVEL_CAP`` = 2^20 rows is refused unbuilt, with ``CapacityError``;
every level up to |X| = 22 fits.  A caller that edits one column keeps
the counts of the levels scanned so far (``_retally``), and each rescan
costs O(levels), with no walk.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, NamedTuple, Sequence

from .bigraph import (Bigraph, VertexSet, SIDE_X, _Record, _condition_fields,
                      _cover)
from .bitset import indices_of
from .errors import CapacityError, InputError

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
    kind, amask = _first_failure(g.x_count, g.y_adj, [])
    if not kind:
        return ConditionReport(True, mode)
    witness = VertexSet(SIDE_X, amask)
    if kind == "size":
        return ConditionReport(False, mode, size_witness=witness)
    return ConditionReport(False, mode, connectivity_witness=witness)


def _first_failure(nx: int, cols: Sequence[int],
                   tallies: list[list]) -> tuple[str, int]:
    """The first A that fails, as (kind, A) with kind "size" or "triple",
    or ("", 0) if none does.

    ``cols`` are the graph's Y-columns.  ``tallies`` holds [level, counts]
    for the levels 3, 4, ... scanned so far, and the scan appends one for
    each further level it reaches.
    """
    for size in range(3, nx + 1):
        if len(tallies) == size - 3:
            level = _level(nx, size)
            tallies.append([level, level.tally(cols)])
        level, counts = tallies[size - 3]
        failed = level.guards & ~(counts + level.bias)
        if failed:
            row, offset = divmod(((failed & -failed).bit_length() - 1) >> 3,
                                 level.stride)
            return "triple" if offset else "size", level.masks[row]
    return "", 0


def _retally(tallies: list[list], old: int, new: int) -> None:
    """Update the kept ``tallies`` of a graph whose Y-column ``old`` became
    ``new``: each level's counts gain served(new) - served(old)."""
    for tally in tallies:
        level = tally[0]
        tally[1] += level[new] - level[old]


def min_deficiency(g: Bigraph) -> tuple[int, VertexSet]:
    """min over A of |N^(A)| - |A|, with a subset attaining it.

    Ties break to the smallest subset, then lexicographically.  Negative
    means the size clause of the condition fails; 0 means the graph sits on
    its boundary.  Defined only for |X| >= 3.  Each level's |N^(A)| fields
    are every ``stride``-th byte of its counts.  It reads every level, so
    from |X| = 23 on (``LEVEL_CAP``) it raises ``CapacityError``.
    """
    nx = g.x_count
    if nx < 3:
        raise InputError("deficiency is defined for graphs with |X| >= 3")
    low = best = 0
    for size in range(3, nx + 1):
        level = _level(nx, size)
        stride = level.stride
        covers = level.tally(g.y_adj).to_bytes(
            len(level.masks) * stride, "little")[::stride]
        least = min(covers)
        if size == 3 or least - size < low:  # a tie keeps the earlier A
            low, best = least - size, level.masks[covers.index(least)]
    return low, VertexSet(SIDE_X, best)


#: the pack's levels held, by (|X|, size).  A level with more than
#: _LEVEL_ROWS rows is built for one call; a smaller one is held, and one
#: that would not fit empties the cache first.
_LEVELS: dict[tuple[int, int], "_Level"] = {}
_LEVEL_ROWS = 1 << 16
#: a level empties its memo of served columns past this many bytes of fields
_MEMO_BYTES = 1 << 20
#: the most rows (subsets A) one level may have; a larger one is refused
LEVEL_CAP = 1 << 20


def _level(nx: int, size: int) -> "_Level":
    level = _LEVELS.get((nx, size))
    if level is None:
        rows = comb(nx, size)
        if rows > LEVEL_CAP:
            raise CapacityError(f"condition levels are capped at LEVEL_CAP = "
                                f"{LEVEL_CAP} rows; |X| = {nx} needs C({nx}, "
                                f"{size}) = {rows}")
        level = _Level(nx, size)
        if rows <= _LEVEL_ROWS:
            if rows + sum(len(held.masks)
                          for held in _LEVELS.values()) > _LEVEL_ROWS:
                _LEVELS.clear()
            _LEVELS[nx, size] = level
    return level


_DIGITS = bytes.maketrans(b"01", b"\0\1")  # binary digits to bytes 0, 1


class _Level(dict):
    """The pack of one (|X|, size) (module docstring): ``self[c]`` is
    served(c), memoised by Y-column c.

    ``masks`` lists the level's A in lex order, ``stride`` is the number
    of fields per A, ``bias`` holds guard - threshold in each field and
    ``guards`` the guard bits.  ``_grow`` holds the per-x field masks,
    ``_degs`` those of the fields that need x, and ``_keep`` clears these.
    """

    __slots__ = ("masks", "stride", "bias", "guards", "_grow", "_degs",
                 "_keep", "_room")

    def __init__(self, nx: int, size: int) -> None:
        super().__init__()
        thresholds, scopes = bytearray(), []
        degs = [bytearray() for _ in range(nx + 1)]  # grown to x's last need
        for f, (t, scope, need) in enumerate(_condition_fields(nx, size)):
            thresholds.append(t)
            scopes.append(scope)
            if need:
                deg = degs[need.bit_length() - 1]
                deg += bytes(f - len(deg)) + b"\1"
        fields = len(scopes)
        self.stride = stride = fields // comb(nx, size)
        self.masks = tuple(scopes[::stride])
        # each scope as nx + 1 binary digits, bit x at offset nx - x
        digits = (f"{{:0{nx + 1}b}}" * fields).format(*scopes).encode()
        self._grow = tuple(
            int.from_bytes(digits[nx - x::nx + 1].translate(_DIGITS), "little")
            for x in range(nx + 1))
        self._degs = tuple(int.from_bytes(d, "little") for d in degs)
        self._keep = ~sum(self._degs)
        self.guards = int.from_bytes(b"\x80" * fields, "little")
        self.bias = self.guards - int.from_bytes(thresholds, "little")
        self._room = max(1, _MEMO_BYTES // fields)

    def tally(self, cols: Iterable[int]) -> int:
        """The counts of the graph with Y-columns ``cols``."""
        return sum(map(self.__getitem__, cols))

    def __missing__(self, col: int) -> int:
        if len(self) > self._room:
            self.clear()
        xs = indices_of(col)
        degs = 0
        for x in xs:
            degs |= self._degs[x]
        served = self[col] = _cover(self._grow, xs)[1] & (self._keep | degs)
        return served


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
