"""Brute-force reference implementations for the test suite.

Everything here is written with explicit loops over flattened adjacency or
raw combinatorics, deliberately avoiding the bitmask machinery and search
strategies of the library under test.  ``cut_stream`` alone reads the
library's walk: it is the stream the referees check, not one of them.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from math import factorial
from typing import Iterable, Iterator

from supercyclic import (Bigraph, Hypergraph, Violation, check_condition,
                         degree_hypothesis, is_k_cyclic, is_super_cyclic,
                         min_deficiency)
from supercyclic.formats import serialize_bigraph
from supercyclic.generators import _graph, _tree, _walk
from supercyclic.verifier import _hunt_verdict


def flat_adjacency(g: Bigraph) -> tuple[int, list[set[int]]]:
    """0-based flattening: x_i -> i - 1, y_j -> x_count + j - 1."""
    n = g.x_count + g.y_count
    adj: list[set[int]] = [set() for _ in range(n)]
    for x, y in g.edges():
        u, v = x - 1, g.x_count + y - 1
        adj[u].add(v)
        adj[v].add(u)
    return n, adj


def cycle_survey(g: Bigraph) -> tuple[set[frozenset[int]], int]:
    """All X-sets that carry a simple cycle, plus the longest cycle length.

    Exhaustive path extension anchored at each vertex in turn; exponential,
    fine for the graph sizes the tests use.
    """
    n, adj = flat_adjacency(g)
    xsets: set[frozenset[int]] = set()
    best = 0

    def extend(path: list[int], visited: set[int], anchor: int) -> None:
        nonlocal best
        last = path[-1]
        for w in adj[last]:
            if w == anchor and len(path) >= 4:
                xsets.add(frozenset(v + 1 for v in path if v < g.x_count))
                if len(path) > best:
                    best = len(path)
            elif w > anchor and w not in visited:
                visited.add(w)
                path.append(w)
                extend(path, visited, anchor)
                path.pop()
                visited.remove(w)

    for s in range(n):
        extend([s], {s}, s)
    return xsets, best


def longest_cycle_bruteforce(g: Bigraph) -> int:
    return cycle_survey(g)[1]


def super_neighborhood_naive(g: Bigraph, subset: tuple[int, ...]) -> list[int]:
    out = []
    for y in range(1, g.y_count + 1):
        hits = sum(1 for x in subset if g.has_edge(x, y))
        if hits >= 2:
            out.append(y)
    return out


def _reach(adj, start: int, blocked: set[int]) -> set[int]:
    """Flat vertices reachable from ``start`` without entering ``blocked``."""
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen and w not in blocked:
                seen.add(w)
                stack.append(w)
    return seen


def is_two_connected_bruteforce(g: Bigraph, xs: Iterable[int] | None = None,
                                ys: Iterable[int] | None = None) -> bool:
    """2-connectivity of G[xs + ys] (the whole graph by default): at least
    three vertices, and deleting any one leaves the rest connected.  With
    three or more vertices that also makes G[xs + ys] itself connected."""
    xs = g.x_indices() if xs is None else xs
    ys = g.y_indices() if ys is None else ys
    adj = {v: set() for v in [x - 1 for x in xs] +
           [g.x_count + y - 1 for y in ys]}
    for x, y in g.edges():
        u, v = x - 1, g.x_count + y - 1
        if u in adj and v in adj:
            adj[u].add(v)
            adj[v].add(u)
    return len(adj) >= 3 and all(
        len(_reach(adj, min(adj.keys() - {v}), {v})) == len(adj) - 1
        for v in adj)


def cut_vertices_bruteforce(g: Bigraph) -> set[int]:
    """Flat vertices whose removal leaves more components than before."""
    n, adj = flat_adjacency(g)

    def components(blocked: set[int]) -> int:
        seen = set(blocked)
        count = 0
        for s in range(n):
            if s not in seen:
                count += 1
                seen |= _reach(adj, s, blocked)
        return count

    whole = components(set())
    return {v for v in range(n) if components({v}) > whole}


def first_condition_failure(g: Bigraph,
                            mode: str) -> tuple[str, tuple[int, ...]] | None:
    """The clause ("size" or "conn") and subset of the first A, by size and
    then lexicographically, on which the condition fails; None if it holds.
    In ``kim`` mode 2-connectivity is only asked of triples."""
    nx = g.x_count
    for size in range(3, nx + 1):
        for a in combinations(range(1, nx + 1), size):
            nh = super_neighborhood_naive(g, a)
            if len(nh) < size:
                return "size", a
            if mode == "kim" and size > 3:
                continue
            if not is_two_connected_bruteforce(g, a, nh):
                return "conn", a
    return None


def min_deficiency_bruteforce(g: Bigraph) -> tuple[int, tuple[int, ...]]:
    """Least |N^(A)| - |A| over |A| >= 3 and the first A attaining it, by
    size and then lexicographically."""
    nx = g.x_count
    return min(((len(super_neighborhood_naive(g, a)) - size, a)
                for size in range(3, nx + 1)
                for a in combinations(range(1, nx + 1), size)),
               key=lambda pair: pair[0])


def condition_bruteforce(g: Bigraph) -> bool:
    """The neighborhood condition evaluated straight from its statement."""
    return first_condition_failure(g, "full") is None


def condition_slacks(nx: int, ny_max: int,
                     cols: tuple[int, ...]) -> Iterator[int]:
    """The condition cut's slack fields at the graph with Y-columns
    ``cols`` (bit i is x_{i+1}), straight from their formulas, with
    ``ny_max - |Y|`` columns still to come: |N^(A)| + left - |A| for each A
    in X with |A| >= 3, and for each triple T and x in T, the neighbors of
    x in N^(T), plus left, less 2."""
    left = ny_max - len(cols)
    for size in range(3, nx + 1):
        for a in combinations([1 << x for x in range(nx)], size):
            amask = sum(a)
            nh = [c for c in cols if (c & amask).bit_count() >= 2]
            yield len(nh) + left - size
            if size == 3:
                for x in a:
                    yield sum(1 for c in nh if c & x) + left - 2


def least_based_cycle(g: Bigraph, base: tuple[int, ...]
                      ) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Among all cycles x_1 y_1 x_2 ... x_k y_k with {x_i} = base and
    x_1 = min(base), the (xs, ys) whose interleaved tuple
    (x_2, y_1, x_3, y_2, ..., x_k, y_{k-1}, y_k) is least; None when no
    cycle is based on ``base``.  Tries every order of the base and every
    choice of a common neighbor per consecutive pair."""
    x1, *rest = sorted(base)
    best = None
    for tail in permutations(rest):
        xs = (x1, *tail)
        k = len(xs)
        common = [[y for y in g.y_indices()
                   if g.has_edge(xs[i], y) and g.has_edge(xs[(i + 1) % k], y)]
                  for i in range(k)]
        for ys in product(*common):
            if len(set(ys)) < k:
                continue
            key = tuple(v for i in range(1, k) for v in (xs[i], ys[i - 1]))
            key += (ys[-1],)
            if best is None or key < best[0]:
                best = (key, xs, ys)
    return None if best is None else best[1:]


def insertion_exists(g: Bigraph, xs: tuple[int, ...], ys: tuple[int, ...],
                     x: int) -> bool:
    """Can the cycle x_1 y_1 ... x_l y_l take the X-vertex ``x`` by
    replacing some y_i with y' x y''?  Tries every position i and every
    ordered pair of distinct Y-vertices, each off the cycle or equal to
    y_i, with y' joining x_i to x and y'' joining x to x_{i+1}."""
    l = len(xs)
    for i in range(l):
        a, b = xs[i], xs[(i + 1) % l]
        allowed = [y for y in g.y_indices() if y not in ys or y == ys[i]]
        for y1 in allowed:
            for y2 in allowed:
                if (y1 != y2 and g.has_edge(a, y1) and g.has_edge(x, y1)
                        and g.has_edge(x, y2) and g.has_edge(b, y2)):
                    return True
    return False


def has_berge_cycle_with_base(h: Hypergraph, base: tuple[int, ...]) -> bool:
    """Distinct vertices v_1..v_l (= base), distinct edges e_1..e_l with
    v_i, v_{i+1} both in e_i; decided by trying every vertex order and
    backtracking over injective edge assignments."""
    base = tuple(sorted(base))
    l = len(base)
    if l < 2:
        return False
    edges = h.edges

    def assign(order: list[int], i: int, used: frozenset[int]) -> bool:
        if i == l:
            return True
        a, b = order[i], order[(i + 1) % l]
        for j, e in enumerate(edges):
            if j not in used and a in e and b in e:
                if assign(order, i + 1, used | {j}):
                    return True
        return False

    for perm in permutations(base[1:]):
        if assign([base[0], *perm], 0, frozenset()):
            return True
    return False


def min_vertex_cut_bruteforce(g: Bigraph, x: int,
                              cycle_vertices: set[tuple[str, int]]) -> int:
    """Fewest vertices (any but x) whose removal leaves no path from x to a
    surviving cycle vertex.  Ascending-size subset search."""
    n, adj = flat_adjacency(g)
    root = x - 1

    def flat(v: tuple[str, int]) -> int:
        side, i = v
        return i - 1 if side == "X" else g.x_count + i - 1

    targets = {flat(v) for v in cycle_vertices}
    others = [v for v in range(n) if v != root]
    for size in range(len(others) + 1):
        for removal in combinations(others, size):
            removed = set(removal)
            if not _reach(adj, root, removed) & (targets - removed):
                return size
    return len(others)


# -- isomorphism-class oracles ------------------------------------------------

def orbit_canonical(nx: int, cols: tuple[int, ...]) -> tuple[int, ...]:
    """Least column tuple over every row permutation and column permutation."""
    best: tuple[int, ...] | None = None
    for sigma in permutations(range(nx)):
        remapped = [sum(1 << sigma[i] for i in range(nx) if c >> i & 1)
                    for c in cols]
        for tau in permutations(remapped):
            if best is None or tau < best:
                best = tau
    return best if best is not None else ()


def orbit_representatives(nx: int, ny: int) -> set[tuple[int, ...]]:
    """Canonical forms of all nx-by-ny 0-1 matrices, one per class."""
    return {orbit_canonical(nx, cols)
            for cols in product(range(1 << nx), repeat=ny)}


def is_canonical_by_sorting(nx: int, cols: tuple[int, ...]) -> bool:
    """True iff no row permutation maps the nondecreasing column tuple to
    one that sorts smaller: every image is relabeled, sorted and compared."""
    for sigma in permutations(range(nx)):
        image = sorted(sum(1 << sigma[i] for i in range(nx) if c >> i & 1)
                       for c in cols)
        if tuple(image) < cols:
            return False
    return True


def orderly_columns(nx: int, ny_max: int) -> list[tuple[int, ...]]:
    """Every node of the orderly walk pruned by ``is_canonical_by_sorting``,
    in visiting order: depth first, columns appended in nondecreasing
    order, each node listed before its children."""
    out: list[tuple[int, ...]] = []

    def walk(cols: tuple[int, ...]) -> None:
        out.append(cols)
        if len(cols) == ny_max:
            return
        for c in range(cols[-1] if cols else 0, 1 << nx):
            if is_canonical_by_sorting(nx, cols + (c,)):
                walk(cols + (c,))

    walk(())
    return out


def canonicity_steps_bytewise(nx: int, ny_max: int) -> tuple[int, list[int]]:
    """Reference build of ``generators._canonicity_steps``: each column's
    subtrahend is one bytearray, and the bit of sigma.c's digit is set in
    sigma's ``width``-byte field one byte at a time."""
    ncols, digit = 1 << nx, ny_max.bit_length()
    width = digit * ncols // 8 + 1
    shift = [digit * (ncols - 1 - v) for v in range(ncols)]
    perms = list(permutations(range(nx)))
    fields = [bytearray(width * len(perms)) for _ in range(ncols)]
    for p, sigma in enumerate(perms):
        image = [0]
        for b in sigma:
            image += [v | 1 << b for v in image]
        for buf, v in zip(fields, image):
            bit = 8 * width * p + shift[v]
            buf[bit >> 3] |= 1 << (bit & 7)
    rep = int.from_bytes(b"\1".ljust(width, b"\0") * len(perms), "little")
    steps = [(rep << shift[c]) - int.from_bytes(buf, "little")
             for c, buf in enumerate(fields)]
    return rep << digit * ncols, steps


def bigraph_to_columns(g: Bigraph) -> tuple[int, ...]:
    return tuple(sum(1 << (x - 1) for x in range(1, g.x_count + 1)
                     if g.has_edge(x, y))
                 for y in range(1, g.y_count + 1))


def _perm_power(perm: tuple[int, ...], k: int) -> tuple[int, ...]:
    out = list(range(len(perm)))
    for _ in range(k):
        out = [perm[v] for v in out]
    return tuple(out)


def _cycle_lengths(perm: tuple[int, ...]) -> list[int]:
    seen = [False] * len(perm)
    lengths = []
    for s in range(len(perm)):
        if seen[s]:
            continue
        v, ln = s, 0
        while not seen[v]:
            seen[v] = True
            v = perm[v]
            ln += 1
        lengths.append(ln)
    return lengths


def random_cycle_instance(rng, max_l=4, max_extra_x=2, max_extra_y=3,
                          p=0.35):
    """A random bigraph, a cycle planted in it, and an off-cycle root.

    The planted cycle is x_1 y_1 ... x_l y_l; extra vertices and chord
    edges are sprinkled on top, so crossing and fan behavior varies.
    """
    from supercyclic import BaseCycle

    l = rng.randint(2, max_l)
    extra_x = rng.randint(1, max_extra_x)
    extra_y = rng.randint(0, max_extra_y)
    nx, ny = l + extra_x, l + extra_y
    edges = set()
    for i in range(l):
        edges.add((i + 1, i + 1))
        edges.add(((i + 1) % l + 1, i + 1))
    for x in range(1, nx + 1):
        for y in range(1, ny + 1):
            if (x, y) not in edges and rng.random() < p:
                edges.add((x, y))
    g = Bigraph(nx, ny, sorted(edges))
    c = BaseCycle(tuple(range(1, l + 1)), tuple(range(1, l + 1)))
    return g, c, rng.randint(l + 1, nx)


def burnside_class_count(nx: int, k: int) -> int:
    """Isomorphism classes of nx-by-k 0-1 matrices under row and column
    permutations, by Burnside's lemma: a (sigma, tau) pair fixes
    prod over column-cycles c of 2^(cycles of sigma^len(c)) matrices."""
    total = 0
    for sigma in permutations(range(nx)):
        fixed_cols = {c: 2 ** len(_cycle_lengths(_perm_power(sigma, c)))
                      for c in range(1, k + 1)}
        for tau in permutations(range(k)):
            prod = 1
            for ln in _cycle_lengths(tau):
                prod *= fixed_cols[ln]
            total += prod
    return total // (factorial(nx) * factorial(k))


# -- the cut stream -----------------------------------------------------------

def cut_stream(nx: int, ny_max: int, min_x_degree: int = 0,
               condition: bool = False) -> list[Bigraph]:
    """Every node the slack cuts of ``generators._tree(nx, ny_max,
    min_x_degree, condition)`` leave to the walk, as a graph, in its order:
    the classes ``enumerate_bigraphs`` and the campaigns' visitors decide
    with the node test."""
    tree = _tree(nx, ny_max, min_x_degree, condition)
    if tree is None:
        return []
    return list(_walk(tree, lambda cols, x_adj, slack, state:
                      (None, _graph(cols, x_adj))))


# -- the campaigns' per-graph referees ---------------------------------------
# Each decides one graph from scratch, with the library's public checks, as
# the campaigns did before they evaluated nodes of the walk; the node
# visitors must give the same (checked, violation) at every node.

def eval_k_cyclic(k: int, g: Bigraph) -> tuple[bool, Violation | None]:
    if not check_condition(g, "kim").passed:
        return False, None
    rep = is_k_cyclic(g, k)
    if rep.passed:
        return True, None
    return True, Violation("k_cyclic", serialize_bigraph(g),
                           str(rep.witness))


def eval_degree(g: Bigraph) -> tuple[bool, Violation | None]:
    if not degree_hypothesis(g).meets_quarter_bound:
        return False, None
    if not check_condition(g, "kim").passed:
        return False, None
    rep = is_super_cyclic(g)
    if rep.passed:
        return True, None
    return True, Violation("degree_theorem", serialize_bigraph(g),
                           str(rep.witness))


def eval_hunt_graph(g: Bigraph) -> tuple[bool, Violation | None]:
    if not check_condition(g, "kim").passed:
        return False, None
    return _hunt_verdict(g)


def repair_to_boundary_reference(g: Bigraph, rng) -> Bigraph | None:
    """The hunt's boundary repair on whole graphs: ``check_condition`` and,
    on a pass, ``min_deficiency`` at every step, and one new graph per edge
    changed.  ``verifier._repair_to_boundary`` must return the same graph
    and leave ``rng`` in the same state, so both draw from the same
    candidate lists in the same order."""
    if g.x_count < 3:
        return None
    last_good = None
    for _ in range(4 * g.x_count * max(1, g.y_count)):
        rep = check_condition(g, "kim")
        if rep.passed:
            if min_deficiency(g)[0] == 0:
                return g
            last_good = g
            edges = sorted(g.edges())
            heavy = [(x, y) for x, y in edges
                     if sum(g.has_edge(x, j) for j in g.y_indices()) > 2
                     and sum(g.has_edge(i, y) for i in g.x_indices()) > 2]
            pool = heavy or edges
            g = g.without_edge(*pool[rng.randrange(len(pool))])
        elif rep.size_witness is not None:
            a = rep.size_witness.members
            seen = [(j, sum(g.has_edge(x, j) for x in a))
                    for j in g.y_indices()]
            cands = [j for j, hits in seen if hits == 1] or \
                [j for j, hits in seen if hits == 0]
            if not cands:
                return last_good
            j = cands[rng.randrange(len(cands))]
            missing = [x for x in a if not g.has_edge(x, j)]
            g = g.with_edge(missing[rng.randrange(len(missing))], j)
        else:
            a = rep.connectivity_witness.members
            pairs = [(x, j) for x in a for j in super_neighborhood_naive(g, a)
                     if not g.has_edge(x, j)]
            g = g.with_edge(*pairs[rng.randrange(len(pairs))])
    return last_good
