"""Graph sources: the three-part extremal construction, exhaustive
enumeration of bigraphs up to isomorphism, and seeded random graphs.

The enumerator is orderly: a graph is the nondecreasing tuple of its
Y-columns (bitmasks of X-neighbors), canonical when no X-permutation sigma
maps it to a tuple that sorts smaller.  Prefixes of canonical tuples are
canonical, so the depth-first walk prunes the rest and emits each
isomorphism class once.

Sorted tuples compare like their column-count vectors read with value 0 as
the top digit, reversed: more copies of a smaller value sort first.  With
key(cols) that vector in ``ny_max.bit_length()``-bit digits, cols is
canonical iff no sigma.cols has a larger key.  Keys add over columns, so the
walk carries one int holding ``guard + key(cols) - key(sigma.cols)`` per
sigma, in byte-aligned fields with a guard bit above the top digit.  Keys
stay below the guard, so fields never borrow; a field loses its guard bit
iff sigma beats cols.  A child adds one precomputed int and is canonical iff
every guard bit survives, exactly as sorting decides: the stream is unchanged.

Cuts go in a second, small int, the slack pack, tested before the
canonicity add so that a child it rejects never touches the large pack.
Each field is ``digit + 1`` bits wide with a guard bit on top, where
``digit = ny_max.bit_length()``, and holds ``guard + ny_max - cut -
(columns so far that do not serve it)``: how many columns serve it, plus
the columns still to come, less its cut threshold.  A column that does not
serve a field subtracts one from it inside the same precomputed int, and a
child is cut when any guard bit is lost.  The fields (``_slack_fields``):

- with a minimum X-degree d, one per x, cut at d, served by the columns
  that contain x;
- with ``condition``, one per field of ``bigraph._condition_fields``, served
  by the columns that hold two vertices of its scope and all of its need:
  per A with |A| >= 3, |N^(A)| (threshold |A|); per triple T and x in T, the
  degree of x in H_T = G[T union N^(T)] (threshold 2); per pair of T, its
  common ys (threshold 1).  Each is cut at its threshold but a pair field,
  cut at 0: as m <= ny_max, it holds ``guard + ny_max - (m - count) >=
  guard``, so it never cuts, and the cut stream keeps its positions.

Why the cut is sound: a column either serves a field, adding one to its
count and using up one column to come, or does not and only uses one up,
so no field's slack ever grows down the tree.  At and below a node where a
field's slack is negative, every class has count < threshold, as no
columns to come are left there.  A degree field then leaves an x of
degree below d.  A size field gives |N^(A)| < |A|.  A triple field leaves
x with at most one neighbor in H_T, which has at least the three vertices
of T, so x is isolated or hangs on a cut vertex, H_T is not 2-connected,
and the neighborhood condition fails too.  Since slack never grows, every
ancestor of a node whose fields are all non-negative is walked, so the cut
walk reaches exactly the nodes of the full walk at which every field is
still non-negative, in the same order.

One walk, ``_walk``, serves every caller.  At each canonical node it calls
a visitor with the node's columns, its ``x_adj`` (the parent's with one bit
set per X-vertex of the new column), its slack pack and the state the
visitor returned at the parent; the visitor returns the node's state and
what the walk yields there.  ``enumerate_bigraphs``'s visitor builds each
graph that passes the node test; the campaigns in ``verifier`` evaluate
each node without building it unless a search needs it.  Two lemmas make
that cheap.

The node test, read from the pack (``_passes``).  At a node with |Y| = m, a
field cut at t holds ``guard + ny_max - t - (m - count)``: each of the m
columns so far either serves it, and is counted, or took one off.  The
test subtracts ``drops[m]``, ``ny_max - m`` in every field plus a lift of
1 in each pair field, which leaves guard + count - threshold in each.
Nothing borrows: a field cut at t > 0 holds at least guard at a walked
node, and ``ny_max - m < guard``; a pair field holds at least ``guard +
ny_max - m``.  So one subtraction and one mask clear a guard bit exactly
where a count falls short, and decide the degree floor and, as these are
the condition's fields (``condition`` docstring), the whole condition.

Inheritance.  A child adds one Y-vertex y to its parent and keeps X.  For
each A, N^(A) gains y when y has two neighbours in A and is unchanged
otherwise, so no size drops.  For a triple T, H_T = G[T union N^(T)]
either stays as it was or gains y with two neighbours in it; a 2-connected
graph stays 2-connected when a vertex with two neighbours in it is added
(delete y and H_T is left; delete any other v and H_T - v is connected,
with y still joined to it).  So a child of a node that passes the
condition passes it too.  The parent is a subgraph of the child on the
same X, so each cycle based on A in the parent is one in the child, and a
k-cyclic or super-cyclic parent has a k-cyclic or super-cyclic child.  A
child of a node that passed and was certified therefore gets the same
verdict with no work, at every depth below it.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from itertools import permutations
from math import factorial, prod
from operator import or_
from typing import Any, Callable, Iterator

from .bigraph import MAX_SIDE, Bigraph, _condition_fields
from .bitset import iter_bits
from .errors import CapacityError, InputError

#: enumeration caps: isomorphism classes explode combinatorially past these
ENUM_MAX_X = 6
ENUM_MAX_Y = 8


def construct_g3(n1: int, n2: int, n3: int, delta: int) -> Bigraph:
    """Three-part construction with minimum X-degree exactly ``delta``.

    X splits into parts of sizes n1 >= n2 >= n3 >= 1; Y consists of three
    groups of delta - 2 vertices, group k complete to part k, plus two
    vertices a and b adjacent to all of X.  A base picking one vertex per
    part has super-neighborhood {a, b} only, so such triples witness both
    the failure of the neighborhood condition and the absence of a based
    cycle; the longest cycle has 2(n1 + n2) vertices once delta >= n1 + 1.

    Y-layout: group 1 is y_1..y_{delta-2}, group 2 and 3 follow, then
    a = y_{3 delta - 5}, b = y_{3 delta - 4}.
    """
    if not n1 >= n2 >= n3 >= 1:
        raise InputError(f"part sizes must satisfy n1 >= n2 >= n3 >= 1, "
                         f"got ({n1}, {n2}, {n3})")
    if delta < 3:
        raise InputError(f"the construction needs delta >= 3, got {delta}")
    nx = n1 + n2 + n3
    d2 = delta - 2
    ny = 3 * d2 + 2
    if nx > MAX_SIDE or ny > MAX_SIDE:
        raise InputError(
            f"sizes ({nx}, {ny}) exceed the {MAX_SIDE}-vertex cap")
    part_of = [None] + [0] * n1 + [1] * n2 + [2] * n3  # 1-indexed
    edges = []
    for x in range(1, nx + 1):
        k = part_of[x]
        for y in range(k * d2 + 1, (k + 1) * d2 + 1):
            edges.append((x, y))
        edges.append((x, ny - 1))  # a
        edges.append((x, ny))      # b
    return Bigraph(nx, ny, edges)


def complete_bipartite(nx: int, ny: int) -> Bigraph:
    return Bigraph(nx, ny, ((x, y) for x in range(1, nx + 1)
                            for y in range(1, ny + 1)))


def enumerate_bigraphs(nx: int, ny_max: int, min_x_degree: int = 0,
                       condition: bool = False) -> Iterator[Bigraph]:
    """All bigraphs with |X| = nx and |Y| <= ny_max, one per isomorphism
    class (isomorphism respects the bipartition and may permute both sides),
    whose ``min_x_degree`` reaches the given one (an empty X has 0) and,
    with ``condition``, that pass the neighborhood condition.

    Deterministic order: depth-first by appending Y-columns in nondecreasing
    bitmask order, one graph per canonical node, smallest |Y| first along
    each branch.  The walk cuts every node below which no class
    meets the floor or the condition, and decides each node it walks by one
    test on its slack pack (module docstring), so it emits exactly the
    classes of the full stream that meet them, in the same order.
    """
    _check_sizes(nx, ny_max, min_x_degree)
    tree = _tree(nx, ny_max, min_x_degree, condition)
    if tree is None or nx == 0 < min_x_degree:
        return

    def visit(cols, x_adj, slack, state):
        if _passes(tree, len(cols), slack):
            return None, _graph(cols, x_adj)
        return None, None

    yield from (g for g in _walk(tree, visit) if g is not None)


class _Tree:
    """The tables of one walk: the canonicity pack's guard and per-column
    steps, the slack pack's guard, root and per-column spends, and per
    depth m what the node test subtracts and what each column c adds to
    ``x_adj`` as y_{m+1}."""

    __slots__ = ("nx", "ny_max", "guard", "steps", "slack_guard", "root",
                 "spends", "drops", "bits")

    def __init__(self, nx: int, ny_max: int,
                 fields: list[tuple[int, int, int, int]]) -> None:
        self.nx, self.ny_max = nx, ny_max
        self.guard, self.steps = _canonicity_steps(nx, ny_max)
        # each field: digit + 1 bits, guard bit on top (module docstring)
        width = ny_max.bit_length() + 1
        units = [1 << width * i for i in range(len(fields))]
        ones = sum(units)
        self.slack_guard = ones << width - 1
        self.root = self.slack_guard + sum(
            (ny_max - cut) * unit for (cut, *_), unit in zip(fields, units))
        lift = sum(lift * unit for (_, lift, *_), unit in zip(fields, units))
        self.drops = [ones * (ny_max - m) + lift for m in range(ny_max + 1)]
        # column c is the X-mask c << 1 (``_slack_fields``)
        self.spends = [-sum(unit for (_, _, scope, need), unit
                            in zip(fields, units)
                            if col & need != need
                            or scope and (col & scope).bit_count() < 2)
                       for col in range(0, 2 << nx, 2)]
        self.bits = [[tuple((c << 1 >> x & 1) << m + 1 for x in range(nx + 1))
                      for c in range(1 << nx)] for m in range(ny_max)]


class _Subtree(tuple):
    """A node handed on unvisited: (cols, pack, slack, x_adj, the state its
    parent's visit returned); ``_walk`` walks the subtree below it."""

    __slots__ = ()


@lru_cache(maxsize=2)
def _tree(nx: int, ny_max: int, min_x_degree: int = 0,
          condition: bool = False) -> _Tree | None:
    """The walk's tables, or None when the cuts cut the empty graph, and
    with it the whole tree, before any table is built.  Cached, so that a
    worker builds them once for all its shards."""
    fields = _slack_fields(nx, min_x_degree, condition)
    if any(cut > ny_max for cut, *_ in fields):
        return None
    return _Tree(nx, ny_max, fields)


def _walk(tree: _Tree,
          visit: Callable[[tuple[int, ...], tuple[int, ...], int, Any],
                          tuple[Any, Any]],
          node: _Subtree | None = None, split: int = 0) -> Iterator:
    """At each canonical node of the subtree at ``node`` (the whole tree by
    default), in preorder: call ``visit(cols, x_adj, slack, state)`` with
    the state its visit returned at the parent (None at the root), and
    yield the second item of the (state, item) that it returns.

    With ``split`` > 0 each node at that depth is yielded as a ``_Subtree``
    in its place, neither visited nor walked below.
    """
    ny_max, steps, guard = tree.ny_max, tree.steps, tree.guard
    spends, slack_guard, bits = tree.spends, tree.slack_guard, tree.bits
    ncols = len(steps)

    def walk(cols, pack, slack, x_adj, state):
        state, result = visit(cols, x_adj, slack, state)
        yield result
        m = len(cols)
        if m == ny_max:
            return
        row, hand_on = bits[m], m + 1 == split
        for c in range(cols[-1] if cols else 0, ncols):
            left = slack + spends[c]
            if left & slack_guard == slack_guard:
                child = pack + steps[c]
                if child & guard == guard:
                    adj = tuple(map(or_, x_adj, row[c]))
                    if hand_on:
                        yield _Subtree((cols + (c,), child, left, adj, state))
                    else:
                        yield from walk(cols + (c,), child, left, adj, state)

    if node is None:
        node = _Subtree(((), guard, tree.root, (0,) * (tree.nx + 1), None))
    return walk(*node)


def _passes(tree: _Tree, m: int, slack: int) -> bool:
    """The node test at a node with |Y| = m: every field of the slack pack
    meets its threshold (module docstring)."""
    guard = tree.slack_guard
    return slack - tree.drops[m] & guard == guard


def _graph(cols: tuple[int, ...], x_adj: tuple[int, ...]) -> Bigraph:
    """The graph whose y_j has X-neighbors ``cols[j - 1]`` (bit i is
    x_{i+1}), with ``x_adj`` its transpose as the walk carries it."""
    return Bigraph._of_masks(x_adj, (0,) + tuple(c << 1 for c in cols))


def expected_class_count(nx: int, ny_max: int) -> int:
    """How many classes ``enumerate_bigraphs(nx, ny_max)`` emits, by
    Burnside's lemma.

    A class with |Y| = k is a multiset of k columns up to Sym(X), and sigma
    fixes a multiset iff its multiplicities are constant on the cycles of
    sigma acting on the 2^nx columns; the fixed multisets of size k are the
    t^k coefficient of the product over those cycles c of 1 / (1 - t^|c|).
    That depends only on sigma's cycle type, so the sum runs over the
    partitions of nx, each weighted by the number of permutations of its
    type, and not over all nx! permutations.
    """
    _check_sizes(nx, ny_max)
    total = 0
    for parts in _partitions(nx, nx):
        sigma, start = [], 0
        for n in parts:
            sigma += range(start + 1, start + n)
            sigma.append(start)
            start += n
        series = [1] + [0] * ny_max  # power series in t, cut after t^ny_max
        seen = 0
        for v in range(1 << nx):
            if seen >> v & 1:
                continue
            length, w = 0, v
            while not seen >> w & 1:
                seen |= 1 << w
                length += 1
                w = sum(1 << sigma[i] for i in range(nx) if w >> i & 1)
            for k in range(length, ny_max + 1):
                series[k] += series[k - length]
        size = factorial(nx) // prod(factorial(m) * n ** m
                                     for n, m in Counter(parts).items())
        total += size * sum(series)
    return total // factorial(nx)


def _check_sizes(nx: int, ny_max: int, min_x_degree: int = 0) -> None:
    if nx < 0 or ny_max < 0:
        raise InputError("sizes must be nonnegative")
    if min_x_degree < 0:
        raise InputError(f"min_x_degree must be >= 0, got {min_x_degree}")
    if nx > ENUM_MAX_X or ny_max > ENUM_MAX_Y:
        raise CapacityError(
            f"enumeration caps are |X| <= {ENUM_MAX_X}, |Y| <= {ENUM_MAX_Y}; "
            f"got ({nx}, {ny_max})")


def _partitions(n: int, top: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n into parts of at most ``top``, largest first."""
    if n == 0:
        yield ()
    for first in range(min(n, top), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _canonicity_steps(nx: int, ny_max: int) -> tuple[int, list[int]]:
    """The guard bits, and per column c what appending c adds to the pack."""
    ncols, digit = 1 << nx, ny_max.bit_length()
    width = digit * ncols // 8 + 1
    shift = [digit * (ncols - 1 - v) for v in range(ncols)]
    images = []
    for sigma in permutations(range(nx)):
        image = [0]
        for b in sigma:
            image += [v | 1 << b for v in image]
        images.append(image)
    # sigma's field of c's subtrahend has one bit: the digit of sigma.c
    block = [(1 << s).to_bytes(width, "little") for s in shift]
    rep = int.from_bytes(b"\1".ljust(width, b"\0") * len(images), "little")
    steps = [(rep << shift[c]) - int.from_bytes(
                 b"".join(map(block.__getitem__, column)), "little")
             for c, column in enumerate(zip(*images))]
    return rep << digit * ncols, steps


def _slack_fields(nx: int, min_x_degree: int, condition: bool
                  ) -> list[tuple[int, int, int, int]]:
    """Each slack field as (cut, lift, scope, need): its cut threshold, what
    the node test adds to it, and, as in ``bigraph._condition_fields``, the
    columns that serve it; a degree field has no scope and needs its x."""
    fields = [(min_x_degree, 0, 0, 2 << x) for x in range(nx) if min_x_degree]
    if condition:
        for size in range(3, nx + 1):
            for threshold, scope, need in _condition_fields(nx, size):
                lift = threshold == 1  # a pair field (module docstring)
                fields.append((threshold - lift, lift, scope, need))
    return fields


def random_bigraph(nx: int, ny: int, min_x_degree: int = 0,
                   seed: int = 0) -> Bigraph:
    """Seeded uniform-ish bigraph: each edge with probability 1/2, then the
    lightest X-vertices are padded up to the requested minimum degree.

    Same (nx, ny, min_x_degree, seed) always yields the same graph.
    """
    if not 0 <= nx <= MAX_SIDE or not 0 <= ny <= MAX_SIDE:
        raise InputError(f"sizes must be in 0..{MAX_SIDE}")
    if min_x_degree < 0:
        raise InputError(f"min_x_degree must be >= 0, got {min_x_degree}")
    if min_x_degree > ny:
        raise InputError(f"min_x_degree={min_x_degree} is impossible "
                         f"with |Y|={ny}")
    rng = random.Random(seed)
    edges = []
    for x in range(1, nx + 1):
        row = rng.getrandbits(ny) << 1 if ny else 0
        missing = [y for y in range(1, ny + 1) if not row >> y & 1]
        while row.bit_count() < min_x_degree:
            row |= 1 << missing.pop(rng.randrange(len(missing)))
        edges += [(x, y) for y in iter_bits(row)]
    return Bigraph(nx, ny, edges)
