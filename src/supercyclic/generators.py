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
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, permutations
from math import factorial, prod
from typing import Iterator

from .bigraph import Bigraph
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
    fields = _slack_fields(nx, min_x_degree, condition)
    if any(threshold > ny_max for threshold, _ in fields):
        return  # the empty graph is cut, and with it the whole tree
    guard, steps = _canonicity_steps(nx, ny_max)
    slack_guard, root, spends = _slack_pack(nx, ny_max, fields)

    def walk(cols: tuple[int, ...], last: int, pack: int,
             slack: int) -> Iterator[Bigraph]:
        yield _bigraph_from_columns(nx, cols)
        if len(cols) == ny_max:
            return
        for c in range(last, len(steps)):
            left = slack + spends[c]
            if left & slack_guard == slack_guard:
                child = pack + steps[c]
                if child & guard == guard:
                    yield from walk(cols + (c,), c, child, left)

    yield from walk((), 0, guard, root)


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


def _slack_fields(nx: int, min_x_degree: int,
                  condition: bool) -> list[tuple[int, set[int]]]:
    """The threshold of each slack field and the columns that serve it."""
    cols = range(1 << nx)
    bits = [1 << x for x in range(nx)]
    fields = []
    if min_x_degree > 0:
        fields += [(min_x_degree, {c for c in cols if c & x}) for x in bits]
    if condition:
        for size in range(3, nx + 1):
            for a in map(sum, combinations(bits, size)):
                pairs = {c for c in cols if (c & a).bit_count() >= 2}
                fields.append((size, pairs))
                if size == 3:
                    fields += [(2, {c for c in pairs if c & x})
                               for x in bits if a & x]
    return fields


def _slack_pack(nx: int, ny_max: int, fields: list[tuple[int, set[int]]]
                ) -> tuple[int, int, list[int]]:
    """The guard bits, the root's pack, and per column c what appending c
    adds to the pack: minus one in each field that c does not serve."""
    width = ny_max.bit_length() + 1
    units = [1 << width * i for i in range(len(fields))]
    guard = sum(units) << width - 1
    pack = guard + sum((ny_max - threshold) * unit
                       for (threshold, _), unit in zip(fields, units))
    spends = [-sum(unit for (_, serves), unit in zip(fields, units)
                   if c not in serves) for c in range(1 << nx)]
    return guard, pack, spends


def _bigraph_from_columns(nx: int, cols: tuple[int, ...]) -> Bigraph:
    """The graph whose y_j has X-neighbors ``cols[j - 1]`` (bit i is x_{i+1}):
    ``y_adj`` is the columns shifted up one bit, ``x_adj`` their transpose."""
    x_adj = [0] * (nx + 1)
    for j, code in enumerate(cols, 1):
        while code:
            low = code & -code
            code ^= low
            x_adj[low.bit_length()] |= 1 << j
    return Bigraph._of_masks(tuple(x_adj), (0,) + tuple(c << 1 for c in cols))


def random_bigraph(nx: int, ny: int, min_x_degree: int = 0,
                   seed: int = 0) -> Bigraph:
    """Seeded uniform-ish bigraph: each edge with probability 1/2, then the
    lightest X-vertices are padded up to the requested minimum degree.

    Same (nx, ny, min_x_degree, seed) always yields the same graph.
    """
    if not 0 <= nx <= 64 or not 0 <= ny <= 64:
        raise InputError("sizes must be in 0..64")
    if min_x_degree > ny:
        raise InputError(f"min_x_degree={min_x_degree} is impossible "
                         f"with |Y|={ny}")
    rng = random.Random(seed)
    edges = []
    for x in range(1, nx + 1):
        mask = rng.getrandbits(ny) if ny else 0
        have = [y for y in range(1, ny + 1) if mask >> (y - 1) & 1]
        missing = [y for y in range(1, ny + 1) if not mask >> (y - 1) & 1]
        while len(have) < min_x_degree:
            pick = rng.randrange(len(missing))
            have.append(missing.pop(pick))
        edges.extend((x, y) for y in have)
    return Bigraph(nx, ny, edges)
