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
``digit = ny_max.bit_length()``, and holds ``guard + ny_max - threshold -
(columns so far that do not serve it)``: how many columns serve it, plus
the columns still to come, less its threshold.  A column that does not
serve a field subtracts one from it inside the same precomputed int, and a
child is cut when any guard bit is lost.  There are three kinds of field:

- with a minimum X-degree d, one per x, threshold d, served by the columns
  that contain x;
- with ``condition``, one per A in X with |A| >= 3, threshold |A|, served by
  the columns c with |c & A| >= 2: their count is |N^(A)|;
- with ``condition``, one per triple T and x in T, threshold 2, served by
  the columns that contain x and at least two vertices of T: their count
  is the degree of x in H_T = G[T union N^(T)].

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
walk emits exactly the nodes of the full walk at which every field is
still non-negative, in the same order.

One walk, ``_walk``, serves every caller.  At each canonical node it calls
a visitor with the node's columns, its ``x_adj`` (the parent's with one bit
set per X-vertex of the new column), its slack pack and the state the
visitor returned at the parent; the visitor returns the node's state and
what the walk yields there.  ``enumerate_bigraphs`` is the visitor that
builds each graph; the campaigns in ``verifier`` evaluate each node without
building it unless a search needs it.  Two lemmas make that cheap.

The condition, read from the pack (``_passes_condition``).  At a node with
|Y| = m, a field of threshold t holds ``guard + ny_max - t - (m - count)``:
each of the m columns so far either serves it, and is counted, or took one
off.  So the field less guard, less ``ny_max - m``, is count - t.  Every
field of a walked node holds at least guard, as the walk cuts on each, so
subtracting ``ny_max - m < guard`` from every size and triple-degree field
at once borrows from no neighbour, and it clears a field's guard bit
exactly when its count falls short: |N^(A)| < |A|, or x has fewer than two
neighbours in N^(T).  That one subtraction and one mask, with one more
test, decide the whole condition.  Lemma: a triple T passes it iff
|N^(T)| >= 3, each pair of T shares a y, and each x of T has at least two
neighbours in N^(T).  Proof: with p, q, r the common neighbours of the
pairs x1x2, x2x3, x1x3, T passes iff p, q, r are non-empty, each union of
two has at least two ys and p | q | r has at least three (``condition``
docstring); N^(T) is p | q | r, and the neighbours of x1 in it are p | r,
of x2 p | q, of x3 q | r.  When |X| >= 3 every pair of X lies in a
triple, so the triples all pass iff every pair of X shares a y and every
triple-degree field meets 2.  When |X| < 3 the condition is vacuous: there
are no condition fields, and no pair is tested.

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
from itertools import combinations, permutations
from math import factorial, prod
from operator import or_
from typing import Any, Callable, Iterator

from .bigraph import Bigraph
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
    if nx > 64 or ny > 64:
        raise InputError(f"sizes ({nx}, {ny}) exceed the 64-vertex cap")
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
    class (isomorphism respects the bipartition and may permute both sides).

    Deterministic order: depth-first by appending Y-columns in nondecreasing
    bitmask order, emitting a graph at every canonical node, smallest |Y|
    first along each branch.  With ``min_x_degree`` d > 0 the walk cuts
    every node where some x has degree plus columns left below d; with
    ``condition`` it also cuts every node below which every class fails the
    neighborhood condition (module docstring).  It skips only such classes,
    the graphs it emits keep the full stream's order, and callers still
    filter them as they need.
    """
    _check_sizes(nx, ny_max)
    tree = _tree(nx, ny_max, min_x_degree, condition)
    if tree is not None:
        yield from _walk(tree, _graph_at)


def _graph_at(cols: tuple[int, ...], x_adj: tuple[int, ...], slack: int,
              state: None) -> tuple[None, Bigraph]:
    return None, _graph(cols, x_adj)


def _condition_classes(nx: int, ny_max: int,
                       min_x_degree: int = 0) -> Iterator[Bigraph]:
    """The classes of ``enumerate_bigraphs(nx, ny_max, min_x_degree, True)``
    that pass the neighborhood condition, each decided at its node."""
    _check_sizes(nx, ny_max)
    tree = _tree(nx, ny_max, min_x_degree, True)
    if tree is None:
        return

    def visit(cols, x_adj, slack, state):
        if _passes_condition(tree, len(cols), x_adj, slack):
            return None, _graph(cols, x_adj)
        return None, None

    yield from (g for g in _walk(tree, visit) if g is not None)


class _Tree:
    """The tables of one walk: the canonicity pack's guard and per-column
    steps, the slack pack's guard, root and per-column spends, per depth m
    and column c what c adds to ``x_adj`` as y_{m+1}, and for the condition
    one unit in each condition field and the pairs of X that it tests."""

    __slots__ = ("nx", "ny_max", "guard", "steps", "slack_guard", "root",
                 "spends", "bits", "conditions", "pairs")

    def __init__(self, nx: int, ny_max: int,
                 fields: list[tuple[int, set[int], bool]]) -> None:
        self.nx, self.ny_max = nx, ny_max
        self.guard, self.steps = _canonicity_steps(nx, ny_max)
        # each field: digit + 1 bits, guard bit on top (module docstring)
        width = ny_max.bit_length() + 1
        units = [1 << width * i for i in range(len(fields))]
        self.slack_guard = sum(units) << width - 1
        self.root = self.slack_guard + sum(
            (ny_max - threshold) * unit
            for (threshold, _, _), unit in zip(fields, units))
        self.spends = [-sum(unit for (_, serves, _), unit in zip(fields, units)
                            if c not in serves) for c in range(1 << nx)]
        self.bits = [[tuple((c << 1 >> x & 1) << m + 1 for x in range(nx + 1))
                      for c in range(1 << nx)] for m in range(ny_max)]
        self.conditions = sum(unit for (_, _, condition), unit
                              in zip(fields, units) if condition)
        self.pairs = (tuple(combinations(range(1, nx + 1), 2))
                      if self.conditions else ())


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
    if any(threshold > ny_max for threshold, _, _ in fields):
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


def _passes_condition(tree: _Tree, m: int, x_adj: tuple[int, ...],
                      slack: int) -> bool:
    """The neighborhood condition at a node with |Y| = m of a walk with
    ``condition``: every condition field of the slack pack meets its
    threshold, and every pair of X shares a y (module docstring)."""
    conditions = tree.conditions
    guard = conditions << tree.ny_max.bit_length()
    if slack - conditions * (tree.ny_max - m) & guard != guard:
        return False
    for i, j in tree.pairs:
        if not x_adj[i] & x_adj[j]:
            return False
    return True


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


def _check_sizes(nx: int, ny_max: int) -> None:
    if nx < 0 or ny_max < 0:
        raise InputError("sizes must be nonnegative")
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
                  ) -> list[tuple[int, set[int], bool]]:
    """The threshold of each slack field, the columns that serve it, and
    whether it is a condition field: a size or a triple-degree field."""
    cols = range(1 << nx)
    bits = [1 << x for x in range(nx)]
    fields = []
    if min_x_degree > 0:
        fields += [(min_x_degree, {c for c in cols if c & x}, False)
                   for x in bits]
    if condition:
        for size in range(3, nx + 1):
            for a in map(sum, combinations(bits, size)):
                pairs = {c for c in cols if (c & a).bit_count() >= 2}
                fields.append((size, pairs, True))
                if size == 3:
                    fields += [(2, {c for c in pairs if c & x}, True)
                               for x in bits if a & x]
    return fields


def random_bigraph(nx: int, ny: int, min_x_degree: int = 0,
                   seed: int = 0) -> Bigraph:
    """Seeded uniform-ish bigraph: each edge with probability 1/2, then the
    lightest X-vertices are padded up to the requested minimum degree.

    Same (nx, ny, min_x_degree, seed) always yields the same graph.
    """
    if not 0 <= nx <= 64 or not 0 <= ny <= 64:
        raise InputError("sizes must be in 0..64")
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
