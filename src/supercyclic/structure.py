"""Structure around a fixed based cycle: successors, crossings, fans.

Everything here takes an explicitly oriented cycle (a BaseCycle) and
produces certified combinatorial data: successor/predecessor maps along the
orientation, crossing pairs used in degree-sum bounds, and maximum fans
(internally disjoint paths from an off-cycle vertex to the cycle) certified
by a vertex cut of matching size.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .bigraph import Bigraph, SIDE_X, SIDE_Y
from .bitset import mask_of
from .cycles import BaseCycle
from .errors import InputError

Vertex = tuple[str, int]


class SuccessorMaps(NamedTuple):
    """Next/previous vertex of each side along the cycle's orientation.

    Keys are (side, index) pairs over the cycle's vertices.  x_plus maps a
    cycle vertex to the first X-vertex strictly ahead of it (for an
    X-vertex, that skips the Y-vertex in between); y_plus likewise for the
    Y side.  Reversing the cycle swaps plus and minus maps.
    """

    x_plus: dict[Vertex, int]
    x_minus: dict[Vertex, int]
    y_plus: dict[Vertex, int]
    y_minus: dict[Vertex, int]


def successor_maps(c: BaseCycle) -> SuccessorMaps:
    l = c.half_length
    xs, ys = c.xs, c.ys
    x_plus: dict[Vertex, int] = {}
    x_minus: dict[Vertex, int] = {}
    y_plus: dict[Vertex, int] = {}
    y_minus: dict[Vertex, int] = {}
    for i in range(l):
        vx: Vertex = (SIDE_X, xs[i])
        x_plus[vx] = xs[(i + 1) % l]
        x_minus[vx] = xs[(i - 1) % l]
        y_plus[vx] = ys[i]
        y_minus[vx] = ys[(i - 1) % l]
        vy: Vertex = (SIDE_Y, ys[i])
        x_plus[vy] = xs[(i + 1) % l]
        x_minus[vy] = xs[i]
        y_plus[vy] = ys[(i + 1) % l]
        y_minus[vy] = ys[(i - 1) % l]
    return SuccessorMaps(x_plus, x_minus, y_plus, y_minus)


class CrossingReport(NamedTuple):
    """X-vertices of the cycle at which the pair (u, v) crosses."""

    u: int
    v: int
    crossed_at: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.crossed_at)


def crossings(g: Bigraph, c: BaseCycle, u: int, v: int) -> CrossingReport:
    """Count the cycle X-vertices w at which u and v cross.

    With the cycle oriented, (u, v) crosses at w (w on the cycle, distinct
    from both) when either the cyclic order is u, w, v and u ~ y_plus(w),
    v ~ y_minus(w), or the cyclic order is u, v, w and u ~ y_minus(w),
    v ~ y_plus(w).  The report is symmetric in u and v, and reversing the
    cycle's orientation leaves it unchanged.
    """
    c.validate_in(g)
    pos = {x: i for i, x in enumerate(c.xs)}
    if u not in pos or v not in pos:
        raise InputError("both pair vertices must be X-vertices of the cycle")
    if u == v:
        raise InputError("crossing pairs must be distinct")
    l = c.half_length
    pu, pv = pos[u], pos[v]
    dv = (pv - pu) % l
    hits = []
    for w in c.xs:
        if w == u or w == v:
            continue
        dw = (pos[w] - pu) % l
        yp, ym = c.ys[pos[w]], c.ys[pos[w] - 1]
        if dw < dv:  # cyclic order u, w, v
            crossed = g.has_edge(u, yp) and g.has_edge(v, ym)
        else:  # cyclic order u, v, w
            crossed = g.has_edge(u, ym) and g.has_edge(v, yp)
        if crossed:
            hits.append(w)
    return CrossingReport(u, v, tuple(sorted(hits)))


def crossing_bound_holds(g: Bigraph, c: BaseCycle, u: int, v: int) -> bool:
    """d_C(u) + d_C(v) <= |V(C)|/2 + 2 + (number of crossings of u, v).

    Holds for every bipartite graph, any based cycle in it, and any pair of
    cycle X-vertices; exposed as a predicate so fuzzing can try to refute it.
    """
    rep = crossings(g, c, u, v)
    y_mask = mask_of(c.ys)
    du = (g.x_adj[u] & y_mask).bit_count()
    dv = (g.x_adj[v] & y_mask).bit_count()
    return du + dv <= c.half_length + 2 + rep.count


class Fan(NamedTuple):
    """Internally disjoint paths from ``root`` (off the cycle) to the cycle.

    Each path starts at the root, stays off the cycle internally, and stops
    at its first cycle vertex (the contact).  Contacts are pairwise
    distinct; the fan size equals the number of paths and is certified
    maximum by a minimum vertex cut of the same size.  |V(F)| is shrunk by
    a local shortcut pass but is not certified minimum.
    """

    root: int
    paths: tuple[tuple[Vertex, ...], ...]

    @property
    def size(self) -> int:
        return len(self.paths)

    @property
    def contacts(self) -> tuple[Vertex, ...]:
        return tuple(p[-1] for p in self.paths)

    @property
    def vertex_count(self) -> int:
        seen = {(SIDE_X, self.root)}
        for p in self.paths:
            seen.update(p)
        return len(seen)


def max_fan(g: Bigraph, x: int, c: BaseCycle) -> Fan:
    """Largest fan from x to the cycle, via unit-vertex-capacity max flow.

    The size equals the minimum number of vertices (excluding x) whose
    removal separates x from the cycle, so it is exact; ties among maximum
    fans are broken toward fewer total vertices only heuristically.
    """
    c.validate_in(g)
    if not 1 <= x <= g.x_count:
        raise InputError(f"no vertex x{x}")
    if x in c.xs:
        raise InputError("the fan root must lie off the cycle")
    on_cycle = {(SIDE_X, w) for w in c.xs} | {(SIDE_Y, w) for w in c.ys}
    root: Vertex = (SIDE_X, x)

    # unit vertex capacities by node splitting: a vertex v is entered at v
    # and left at ("out", v); cycle vertices lead only to the sink, so paths
    # stop at their first cycle contact.  Each node's arcs keep the order in
    # which they are added, which fixes the BFS and so the flow it finds.
    SRC, SINK = ("src", 0), ("sink", 0)
    arcs = [(v, ("out", v)) for v in
            [(SIDE_X, xi) for xi in g.x_indices()] +
            [(SIDE_Y, yj) for yj in g.y_indices()]
            if v != root and v not in on_cycle]
    arcs += [(w, SINK) for w in on_cycle]
    for xi, yj in sorted(g.edges()):
        a: Vertex = (SIDE_X, xi)
        b: Vertex = (SIDE_Y, yj)
        if a == root:
            arcs.append((SRC, b))
        else:  # a fan path never leaves a cycle vertex
            arcs += [(("out", u), w) for u, w in ((a, b), (b, a))
                     if u not in on_cycle]
    cap: dict[tuple, dict[tuple, int]] = {SRC: {}}
    for a, b in arcs:
        cap.setdefault(a, {})[b] = 1
        cap.setdefault(b, {})[a] = 0
    unit = set(arcs)

    while True:  # Edmonds-Karp: augment along shortest residual paths
        parent: dict[tuple, tuple] = {SRC: SRC}
        dq = deque([SRC])
        while dq and SINK not in parent:
            a = dq.popleft()
            for b, c_ in cap[a].items():
                if b not in parent and c_ > 0:
                    parent[b] = a
                    dq.append(b)
        if SINK not in parent:
            break
        node = SINK
        while node != SRC:
            prev = parent[node]
            cap[prev][node] -= 1
            cap[node][prev] += 1
            node = prev

    # the flow runs on the saturated unit arcs; every node but the source
    # sends at most one unit, so each path has exactly one way on
    paths: list[list[Vertex]] = []
    for node in sorted(b for b, c_ in cap[SRC].items() if not c_):
        trail = [root]
        while node != SINK:
            if node[0] != "out":
                trail.append(node)
            node = next(b for b, c_ in cap[node].items()
                        if not c_ and (node, b) in unit)
        paths.append(trail)

    _shrink_paths(g, paths)
    paths.sort(key=lambda p: (len(p), p[-1]))
    return Fan(x, tuple(tuple(p) for p in paths))


def _shrink_paths(g: Bigraph, paths: list[list[Vertex]]) -> None:
    """Shortcut interior detours in place; endpoints never move."""
    def adjacent(a: Vertex, b: Vertex) -> bool:
        if a[0] == b[0]:
            return False
        xi = a[1] if a[0] == SIDE_X else b[1]
        yj = b[1] if a[0] == SIDE_X else a[1]
        return g.has_edge(xi, yj)

    # one pass suffices: i jumps to its farthest neighbour on the path, and
    # later deletions only remove vertices, so none past p[i + 1] appears
    for p in paths:
        i = 0
        while i < len(p) - 2:
            j = len(p) - 1
            while j > i + 1 and not adjacent(p[i], p[j]):
                j -= 1
            del p[i + 1:j]
            i += 1
