"""Based cycles and the cycle spectrum of a bigraph.

A cycle C is *based on* the X-subset A when V(C) intersected with X is
exactly A.  Through the incidence correspondence this captures Berge cycles
of a hypergraph with a prescribed base vertex set, which is why everything
in this module is phrased relative to the X side.

Every Y-vertex of a cycle based on A lies in the super-neighborhood N^(A).
The based-cycle DFS keeps one path, appended on descent and popped on
backtrack, and works on masks throughout: every loop over a set is a
low-bit loop (``low = m & -m; m ^= low``), with no generator.  It prunes
each node in one fold over the X-vertices left and the two ends of the
path: each X-vertex left needs two unused Y-neighbors, and the unused
Y-vertices with two neighbors in the fold must outnumber the X-vertices
left.  At the root the ends coincide and that test is |N^(A)| >= |A|, so
there is no separate pre-check.

``is_super_cyclic`` certifies its bases on masks, prefix by prefix, and
builds no ``VertexSet`` or ``BaseCycle`` for a base that has a cycle.  A
certificate is plain data, (A, xs, ys, used) with ``used`` the mask of the
ys.  The triples come in lex order, the condition's too, and are decided
in closed form.  Each larger base A = P + x is reached from the
certificate of its lex prefix P = A - max(A), with x from max(P) + 1 to
|X|, which is the lex order of its size.  If P's cycle runs x_i y_i x_{i+1}
and x has distinct neighbors y' of x_i and y'' of x_{i+1}, each unused or
y_i, then y' x y'' in place of y_i is a cycle based on A; only the bases
this insertion refuses reach the DFS.  Every skipped base has a real cycle,
so the first base without one, by size and then lex order, still meets the
DFS.  A certificate is built only for a base that a larger base extends,
one below the last size with max(A) < |X|; every other base is only tested.
``is_k_cyclic`` decides k = 3 by the same triple loop and runs the DFS on
each base for k >= 4.

Triples need no DFS.  A cycle x1 y1 x2 y2 x3 y3 is a system of distinct
representatives of p = N(x1) & N(x2), q = N(x2) & N(x3) and
r = N(x3) & N(x1), so ``_triple_cycle`` picks the ys in two nested low-bit
loops for ``_check_bases``.  It tries the two cyclic orders and the ys
ascending within each, which is the DFS's own order, so it returns the
cycle ``find_based_cycle`` returns.  Lemma: a triple T carries a based
cycle iff it passes the neighborhood condition, i.e. |N^(T)| >= 3 and
H_T = G[T + N^(T)] is 2-connected.  By Hall's theorem the representatives
exist iff p, q and r are non-empty, each union of two has at least two ys
and p | q | r has at least three.  That union is N^(T), and the rest is
the 2-connectivity of H_T (``condition`` docstring).
"""

from __future__ import annotations

from itertools import combinations

from .bigraph import (Bigraph, Hypergraph, VertexSet, SIDE_X, SIDE_Y,
                      incidence_graph, _Record, _adjacency_masks, _blocks,
                      _require_x_subset)
from .bitset import iter_bits
from .condition import _masks
from .errors import CapacityError, InputError
from .reports import CheckReport

#: longest_cycle_length refuses graphs with more cycle-eligible vertices
#: than this; the search is exact and exponential past the 2-connected blocks
ELIGIBLE_CAP = 24


class BaseCycle(_Record):
    """The cycle x_1 y_1 x_2 y_2 ... x_l y_l x_1, stored as two index tuples.

    ``ys[i]`` joins ``xs[i]`` to ``xs[i + 1]`` (wrapping), so the two tuples
    have equal length l >= 2 and are duplicate-free.
    """

    __slots__ = ("xs", "ys")

    def __init__(self, xs: tuple[int, ...], ys: tuple[int, ...]) -> None:
        l = len(xs)
        if l != len(ys) or l < 2:
            raise InputError("a cycle interleaves equally many xs and ys, "
                             "at least two of each")
        if len(set(xs)) != l or len(set(ys)) != l:
            raise InputError("cycle vertices must be distinct")
        self.xs = xs
        self.ys = ys

    @property
    def half_length(self) -> int:
        return len(self.xs)

    @property
    def length(self) -> int:
        return 2 * len(self.xs)

    @property
    def base(self) -> VertexSet:
        return VertexSet.of(SIDE_X, self.xs)

    @property
    def y_set(self) -> VertexSet:
        return VertexSet.of(SIDE_Y, self.ys)

    def sequence(self) -> tuple[tuple[str, int], ...]:
        """Vertices in traversal order, alternating sides."""
        out = []
        for x, y in zip(self.xs, self.ys):
            out.append((SIDE_X, x))
            out.append((SIDE_Y, y))
        return tuple(out)

    def reverse(self) -> "BaseCycle":
        """Same cycle walked the other way, anchored at the same x."""
        xs = (self.xs[0],) + tuple(reversed(self.xs[1:]))
        return BaseCycle(xs, self.ys[::-1])

    def validate_in(self, g: Bigraph) -> None:
        """Raise unless every claimed edge is present in ``g``."""
        l = self.half_length
        for i in range(l):
            for x in (self.xs[i], self.xs[(i + 1) % l]):
                if not g.has_edge(x, self.ys[i]):
                    raise InputError(
                        f"cycle edge (x{x}, y{self.ys[i]}) absent from graph")

    def __str__(self) -> str:
        return " ".join(f"{'x' if s == SIDE_X else 'y'}{i}"
                        for s, i in self.sequence())


def find_based_cycle(g: Bigraph, a: VertexSet) -> BaseCycle | None:
    """Find a cycle whose X-vertices are exactly ``a``, or None.

    Deterministic: the search anchors at min(a) and extends by ascending
    vertex index, so the returned cycle minimizes the interleaved index
    tuple (x_2, y_1, x_3, y_2, ...) among all cycles based on ``a``.  The
    DFS keeps one path in ``xs`` and ``ys``: a descent appends to both and
    clears its y from ``free``, the mask of unused ys, and a backtrack pops.
    Sets are walked low bit first with no generator, and each node's two
    prunes share one fold over the X-vertices left and the path's ends.
    """
    _require_x_subset(g, a)
    if len(a) < 3:
        raise InputError("based cycles are defined for |A| >= 3")
    x_adj = g.x_adj
    x1 = (a.mask & -a.mask).bit_length() - 1
    xs, ys = [x1], []

    def dfs(last: int, rem: int, free: int) -> bool:
        if not rem:
            close = x_adj[last] & x_adj[x1] & free
            if close:
                ys.append((close & -close).bit_length() - 1)
            return bool(close)
        # every x in rem needs two unused ys; the walk still to build needs
        # |rem| + 1 unused ys with two neighbors among rem and its two ends,
        # which are one vertex at the root: there, |N^(a)| >= |a|
        once = twice = 0
        m = rem | 1 << last | 1 << x1
        while m:
            low = m & -m
            m ^= low
            nbr = x_adj[low.bit_length() - 1] & free
            if low & rem and nbr.bit_count() < 2:
                return False
            twice |= once & nbr
            once |= nbr
        if twice.bit_count() <= rem.bit_count():
            return False
        here = x_adj[last] & free
        m = rem
        while m:
            low = m & -m
            m ^= low
            nxt = low.bit_length() - 1
            xs.append(nxt)
            both = here & x_adj[nxt]
            while both:
                y = both & -both
                both ^= y
                ys.append(y.bit_length() - 1)
                if dfs(nxt, rem ^ low, free ^ y):
                    return True
                ys.pop()
            xs.pop()
        return False

    if not dfs(x1, a.mask ^ 1 << x1, -1):
        return None
    return BaseCycle(tuple(xs), tuple(ys))


def _triple_cycle(x_adj: tuple[int, ...], x1: int, x2: int, x3: int
                  ) -> tuple[tuple[int, ...], tuple[int, ...], int] | None:
    """The least-interleaved cycle based on {x1 < x2 < x3} as (xs, ys,
    mask of ys), or None: the least y1 of N(x1) & N(x2), then y2 of
    N(x2) & N(x3) - y1, that leaves some y3 of N(x3) & N(x1) - {y1, y2},
    taking that least y3; then the same over (x1, x3, x2)."""
    n1, n2, n3 = x_adj[x1], x_adj[x2], x_adj[x3]
    for xs, p, q, r in (((x1, x2, x3), n1 & n2, n2 & n3, n3 & n1),
                        ((x1, x3, x2), n1 & n3, n3 & n2, n2 & n1)):
        while p:
            y1 = p & -p
            p ^= y1
            m = q & ~y1
            while m:
                y2 = m & -m
                m ^= y2
                close = r & ~(y1 | y2)
                if close:
                    y3 = close & -close
                    return xs, (y1.bit_length() - 1, y2.bit_length() - 1,
                                y3.bit_length() - 1), y1 | y2 | y3
    return None


def is_k_cyclic(g: Bigraph, k: int) -> CheckReport:
    """Does every k-subset of X carry a based cycle?

    Subsets are scanned in lexicographic order, so a failure witness is the
    lexicographically first k-subset without a based cycle.  Triples are
    decided in closed form; every larger base is one ``find_based_cycle``.
    """
    if not 3 <= k <= g.x_count:
        raise InputError(f"k must be in 3..|X|, got k={k} with |X|={g.x_count}")
    if k == 3:
        return _check_bases(g, "k_cyclic", 3, "k=3")
    for amask in _masks(g.x_count, k):
        if find_based_cycle(g, VertexSet(SIDE_X, amask)) is None:
            return _no_cycle("k_cyclic", amask)
    return CheckReport("k_cyclic", True, detail=f"k={k}")


def is_super_cyclic(g: Bigraph) -> CheckReport:
    """Does every X-subset of size >= 3 carry a based cycle?

    Vacuously true when |X| <= 2.  On failure the witness is minimal:
    smallest size first, lexicographically first within that size.  The
    triples are decided in closed form; a base A of size >= 4 is taken
    without search when x = max(A) fits into the cycle held for A - max(A)
    between consecutive x_i, x_{i+1}, through two distinct common neighbors
    that are off that cycle or equal to y_i.  That cycle is real, so only
    bases that carry a cycle are skipped, and the witness is the one a
    search of every base would give.
    """
    nx = g.x_count
    return _check_bases(g, "super_cyclic", nx,
                        "trivial: |X| <= 2" if nx <= 2 else "")


#: a held certificate: (A, xs, ys, used) for a cycle x_1 y_1 ... x_l y_l
#: based on exactly A, with ``used`` the mask of its ys
_Cert = tuple[int, tuple[int, ...], tuple[int, ...], int]


def _check_bases(g: Bigraph, check: str, last: int,
                 detail: str) -> CheckReport:
    """Pass iff every X-subset of size 3..``last`` carries a based cycle;
    the witness is the first one without, by size then lex order.

    The triples come in lex order and are decided by ``_triple_cycle``.
    Each larger size is one ``_grow`` over the certificates held for the
    size below, which lists its bases in the same order.  A size holds only
    the bases that some larger base extends: those below the last size
    with max(A) < |X|.
    """
    nx = g.x_count
    x_adj = g.x_adj
    held: list[_Cert] | None = [] if last > 3 else None
    for i, j, k in combinations(range(1, nx + 1), 3):
        cert = _triple_cycle(x_adj, i, j, k)
        if cert is None:
            return _no_cycle(check, 1 << i | 1 << j | 1 << k)
        if held is not None and k < nx:
            held.append((1 << i | 1 << j | 1 << k, *cert))
    for size in range(4, last + 1):
        grown: list[_Cert] | None = [] if size < last else None
        missing = _grow(g, held, grown)
        if missing:
            return _no_cycle(check, missing)
        held = grown
    return CheckReport(check, True, detail=detail)


def _grow(g: Bigraph, held: list[_Cert], grown: list[_Cert] | None) -> int:
    """Certify every base one size above the certificates ``held``, which
    list each base P with max(P) < |X| in lex order; return the mask of the
    first base without a based cycle, or 0.

    The bases P + x, for each P in turn and x from max(P) + 1 to |X|, come
    in lex order.  Each is first offered an insertion: at the first
    position i where it works, y_i is replaced by y' x y'' with y' in
    N(x_i) and y'' in N(x_{i+1}), both in N(x), distinct, and each either
    off the cycle or y_i itself, which holds iff both candidate sets are
    non-empty and their union has at least two bits.  A base no insertion
    takes goes to ``find_based_cycle``.  Unless ``grown`` is None, the
    certificate of each base with x < |X| is appended to it; no other
    cycle is built.
    """
    x_adj = g.x_adj
    nx = g.x_count
    for pmask, xs, ys, used in held:
        ends = xs[1:] + xs[:1]
        for x in range(pmask.bit_length(), nx + 1):
            nbr = x_adj[x]
            free = nbr & ~used
            # free is cleared when no position takes x; after a break, i, y,
            # p and q describe the position that does
            if free:
                for i, y in enumerate(ys):
                    here = free | nbr & 1 << y
                    p = x_adj[xs[i]] & here
                    q = x_adj[ends[i]] & here
                    if p and q and (p | q).bit_count() > 1:
                        break
                else:
                    free = 0
            if not free:
                amask = pmask | 1 << x
                found = find_based_cycle(g, VertexSet(SIDE_X, amask))
                if found is None:
                    return amask
                if grown is not None and x < nx:
                    grown.append((amask, found.xs, found.ys,
                                  sum(1 << y for y in found.ys)))
            elif grown is not None and x < nx:
                y2 = q & -q
                y1 = p & ~y2
                if not y1:
                    y1, y2 = y2, q ^ y2
                y1 &= -y1
                y2 &= -y2
                grown.append((pmask | 1 << x, xs[:i + 1] + (x,) + xs[i + 1:],
                              ys[:i] + (y1.bit_length() - 1,
                                        y2.bit_length() - 1) + ys[i + 1:],
                              used ^ 1 << y | y1 | y2))
    return 0


def _no_cycle(check: str, amask: int) -> CheckReport:
    a = VertexSet(SIDE_X, amask)
    return CheckReport(check, False, witness=a,
                       detail=f"no cycle based on {a}")


def is_super_pancyclic(h: Hypergraph) -> CheckReport:
    """Berge-cycle analogue for hypergraphs, via the incidence bigraph."""
    rep = is_super_cyclic(incidence_graph(h))
    detail = rep.detail and rep.detail.replace("cycle based on",
                                               "Berge cycle with base")
    return CheckReport("super_pancyclic", rep.passed, witness=rep.witness,
                       detail=detail)


def longest_cycle_length(g: Bigraph) -> int:
    """Exact longest cycle length (vertex count; 0 when the graph is a forest).

    Works block by block: only 2-connected blocks can hold cycles, and the
    exponential search never leaves one.  A block's cycles alternate sides,
    so none is longer than twice its smaller side, and the search stops at
    that bound.  Graphs whose cyclic blocks hold more than ELIGIBLE_CAP
    vertices in total are refused.
    """
    masks = _adjacency_masks(g)
    cyclic_blocks = [b for b in _blocks(masks) if len(b) >= 3]
    eligible = sum(len(b) for b in cyclic_blocks)
    if eligible > ELIGIBLE_CAP:
        raise CapacityError(
            f"{eligible} cycle-eligible vertices exceed the cap of "
            f"{ELIGIBLE_CAP}; the exact search would not finish at desk scale")
    best = 0
    for block in sorted(cyclic_blocks, key=len, reverse=True):
        if len(block) <= best:
            break
        best = _longest_cycle_in_block(masks, sum(1 << v for v in block),
                                       (1 << g.x_count) - 1, best)
    return best


def _longest_cycle_in_block(masks: list[int], block: int, x_side: int,
                            floor: int) -> int:
    """Longest cycle in the 2-connected block with vertex mask ``block``,
    given the whole graph's 0-based adjacency masks.

    Anchored DFS: for each anchor s ascending, search cycles whose least
    vertex is s using only block vertices >= s, pruning on the best length
    found so far (seeded with ``floor`` from larger blocks already
    searched).  A cycle alternates sides, so within the allowed vertices it
    is at most twice as long as the smaller side (``x_side`` masks the
    X-vertices); an anchor's search stops once ``best`` reaches that bound.
    """
    best = floor

    def dfs(v: int, visited: int, length: int) -> None:
        nonlocal best
        if length >= 4 and masks[v] >> anchor & 1 and length > best:
            best = length
        rest = allowed & ~visited
        if length + rest.bit_count() <= best or bound <= best:
            return
        for w in iter_bits(masks[v] & rest):
            dfs(w, visited | (1 << w), length + 1)

    for anchor in iter_bits(block):
        allowed = block >> anchor << anchor
        xs = (allowed & x_side).bit_count()
        bound = 2 * min(xs, allowed.bit_count() - xs)
        if bound < 4 or bound <= best:
            break
        dfs(anchor, 1 << anchor, 1)
    return best
