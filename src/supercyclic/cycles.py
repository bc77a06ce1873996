"""Based cycles and the cycle spectrum of a bigraph.

A cycle C is *based on* the X-subset A when V(C) intersected with X is
exactly A.  Through the incidence correspondence this captures Berge cycles
of a hypergraph with a prescribed base vertex set, which is why everything
in this module is phrased relative to the X side.
"""

from __future__ import annotations

from itertools import combinations
from dataclasses import dataclass

from .bigraph import (Bigraph, Hypergraph, VertexSet, SIDE_X, SIDE_Y,
                      incidence_graph, super_neighborhood, _blocks,
                      _local_adjacency, _require_x_subset)
from .bitset import bit, full_mask, iter_bits
from .errors import CapacityError, InputError
from .reports import CheckReport

#: longest_cycle_length refuses graphs with more cycle-eligible vertices
#: than this; the search is exact and exponential past the 2-connected blocks
ELIGIBLE_CAP = 24


@dataclass(frozen=True)
class BaseCycle:
    """The cycle x_1 y_1 x_2 y_2 ... x_l y_l x_1, stored as two index tuples.

    ``ys[i]`` joins ``xs[i]`` to ``xs[i + 1]`` (wrapping), so the two tuples
    have equal length l >= 2 and are duplicate-free.
    """

    xs: tuple[int, ...]
    ys: tuple[int, ...]

    def __post_init__(self) -> None:
        l = len(self.xs)
        if l != len(self.ys) or l < 2:
            raise InputError("a cycle interleaves equally many xs and ys, "
                             "at least two of each")
        if len(set(self.xs)) != l or len(set(self.ys)) != l:
            raise InputError("cycle vertices must be distinct")

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
    tuple (x_2, y_1, x_3, y_2, ...) among all cycles based on ``a``.
    """
    _require_x_subset(g, a)
    k = len(a)
    if k < 3:
        raise InputError("based cycles are defined for |A| >= 3")
    # every cycle y has two neighbors in the base, so it lies in N^(a)
    if len(super_neighborhood(g, a)) < k:
        return None

    x_adj = g.x_adj
    y_adj = g.y_adj
    ny = g.y_count
    x1 = a.members[0]

    def dfs(last: int, rem: int, used: int,
            order: list[int], ys: list[int]) -> tuple[list[int], list[int]] | None:
        if rem == 0:
            close = x_adj[last] & x_adj[x1] & ~used
            if close:
                y = (close & -close).bit_length() - 1
                return order, ys + [y]
            return None
        for r in iter_bits(rem):
            if (x_adj[r] & ~used).bit_count() < 2:
                return None
        # the walk still to build stays inside rem plus its two ends
        s_mask = rem | bit(last) | bit(x1)
        needed = rem.bit_count() + 1
        avail = 0
        for j in range(1, ny + 1):
            if not used >> j & 1 and (y_adj[j] & s_mask).bit_count() >= 2:
                avail += 1
                if avail >= needed:
                    break
        if avail < needed:
            return None
        for nxt in iter_bits(rem):
            pair = x_adj[last] & x_adj[nxt] & ~used
            for y in iter_bits(pair):
                hit = dfs(nxt, rem ^ bit(nxt), used | bit(y),
                          order + [nxt], ys + [y])
                if hit:
                    return hit
        return None

    hit = dfs(x1, a.mask ^ bit(x1), 0, [x1], [])
    if hit is None:
        return None
    order, ys = hit
    return BaseCycle(tuple(order), tuple(ys))


def is_k_cyclic(g: Bigraph, k: int) -> CheckReport:
    """Does every k-subset of X carry a based cycle?

    Subsets are scanned in lexicographic order, so a failure witness is the
    lexicographically first k-subset without a based cycle.
    """
    if not 3 <= k <= g.x_count:
        raise InputError(f"k must be in 3..|X|, got k={k} with |X|={g.x_count}")
    for combo in combinations(g.x_indices(), k):
        a = VertexSet.of(SIDE_X, combo)
        if find_based_cycle(g, a) is None:
            return CheckReport("k_cyclic", False, witness=a,
                               detail=f"no cycle based on {a}")
    return CheckReport("k_cyclic", True, detail=f"k={k}")


def is_super_cyclic(g: Bigraph) -> CheckReport:
    """Does every X-subset of size >= 3 carry a based cycle?

    Vacuously true when |X| <= 2.  On failure the witness is minimal:
    smallest size first, lexicographically first within that size.
    """
    nx = g.x_count
    if nx <= 2:
        return CheckReport("super_cyclic", True, detail="trivial: |X| <= 2")
    for size in range(3, nx + 1):
        for combo in combinations(g.x_indices(), size):
            a = VertexSet.of(SIDE_X, combo)
            if find_based_cycle(g, a) is None:
                return CheckReport("super_cyclic", False, witness=a,
                                   detail=f"no cycle based on {a}")
    return CheckReport("super_cyclic", True)


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
    exponential search never leaves one.  Graphs whose cyclic blocks hold
    more than ELIGIBLE_CAP vertices in total are refused.
    """
    adj = _local_adjacency(g, full_mask(g.x_count), full_mask(g.y_count))
    cyclic_blocks = [b for b in _blocks(adj) if len(b) >= 3]
    eligible = sum(len(b) for b in cyclic_blocks)
    if eligible > ELIGIBLE_CAP:
        raise CapacityError(
            f"{eligible} cycle-eligible vertices exceed the cap of "
            f"{ELIGIBLE_CAP}; the exact search would not finish at desk scale")
    best = 0
    for block in sorted(cyclic_blocks, key=len, reverse=True):
        if len(block) <= best:
            break
        local = {v: i for i, v in enumerate(block)}
        masks = [0] * len(block)
        for v in block:
            for w in adj[v]:
                if w in local:
                    masks[local[v]] |= 1 << local[w]
        got = _longest_cycle_in_block(masks, best)
        if got > best:
            best = got
    return best


def _longest_cycle_in_block(masks: list[int], floor: int) -> int:
    """Longest cycle in one 2-connected block given 0-based adjacency masks.

    Anchored DFS: for each anchor s ascending, search cycles whose least
    vertex is s using only vertices >= s, pruning on the best length found
    so far (seeded with ``floor`` from larger blocks already searched).
    """
    n = len(masks)
    best = floor

    def dfs(v: int, visited: int, length: int) -> None:
        nonlocal best
        if length >= 4 and masks[v] >> anchor & 1 and length > best:
            best = length
        rest = allowed & ~visited
        if length + rest.bit_count() <= best:
            return
        for w in iter_bits(masks[v] & rest):
            dfs(w, visited | (1 << w), length + 1)

    for anchor in range(n):
        if n - anchor < 4 or n - anchor <= best:
            break
        allowed = ((1 << n) - 1) & ~((1 << anchor) - 1)
        dfs(anchor, 1 << anchor, 1)
    return best
