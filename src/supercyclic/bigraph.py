"""Core data model: bigraphs, hypergraphs, vertex subsets, neighborhoods.

A bigraph here is a bipartite graph whose bipartition (X, Y) is part of the
data: (X, Y) and (Y, X) versions of the same underlying graph are different
objects, and every notion downstream (based cycles, the neighborhood
condition, criticality) is stated relative to the X side.

Conventions:

* Vertices are 1-indexed on each side.  A subset of one side is an integer
  bitmask, bit ``i`` standing for vertex ``i`` (bit 0 unused).
* Both sides are capped at 64 vertices, which keeps every set operation a
  handful of machine words.  The cap is enforced at construction.
* ``Bigraph`` and ``Hypergraph`` are immutable.  "Mutators" such as
  ``with_edge`` return new graphs, so derived statistics can never go stale.
* The edge-list constructor is the one public, validating build.  The
  trusted mask-level ``Bigraph._of_masks`` has three callers:
  ``with_edge`` / ``without_edge``, flipping one bit per side after
  ``has_edge`` checks the range, the enumerator's ``generators._graph``,
  from the columns and the ``x_adj`` that its walk carries, and the hunt's
  repair, from the masks it has edited.
* A record is a ``typing.NamedTuple`` when it is plain data, and a
  ``__slots__`` class that checks its input in ``__init__`` when it
  validates; those compared by value subclass ``_Record``.

``_blocks`` is the one block (biconnected component) routine, on the whole
graph's ``_adjacency_masks``.  It serves only ``is_two_connected`` and
``cycles.longest_cycle_length``, which runs the based-cycle DFS within each
block, since a cycle lies in one.  The condition asks 2-connectivity
only of graphs induced on three X-vertices, which Hall's rule decides from
counts, with no block search (``condition`` docstring).

``_cover`` is the one computation of the super-neighborhood N^(A), the
Y-vertices with two neighbors in A: it folds A's X-neighborhoods into the
masks of the Y-vertices seen once and twice.  Criticality, the hunt's
repairs and the condition's pack call it, the pack over a Y-column's
X-vertices on per-x field masks.  The based-cycle DFS folds inline,
together with its degree prune.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .bitset import MAX_SIDE, full_mask, indices_of, iter_bits, mask_of
from .errors import InputError

SIDE_X = "X"
SIDE_Y = "Y"


class _Record:
    """Equality, hash and repr by the ``__slots__`` values, in order."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({args})"


class VertexSet(_Record):
    """A subset of one side's vertices, stored as a bitmask."""

    __slots__ = ("side", "mask")

    def __init__(self, side: str, mask: int = 0) -> None:
        if side not in (SIDE_X, SIDE_Y):
            raise InputError(f"side must be {SIDE_X!r} or {SIDE_Y!r}, got {side!r}")
        if mask < 0 or mask & 1:
            raise InputError("vertex masks are 1-indexed; bit 0 must be clear")
        self.side = side
        self.mask = mask

    @classmethod
    def of(cls, side: str, indices: Iterable[int]) -> "VertexSet":
        return cls(side, mask_of(indices))

    @property
    def members(self) -> tuple[int, ...]:
        return indices_of(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def __contains__(self, i: int) -> bool:
        return i >= 0 and bool(self.mask >> i & 1)

    def issubset(self, other: "VertexSet") -> bool:
        if self.side != other.side:
            raise InputError("cannot compare subsets of different sides")
        return self.mask & ~other.mask == 0

    def __str__(self) -> str:
        return f"{self.side}{{{','.join(map(str, self.members))}}}"


class InducedSubgraph(NamedTuple):
    """An induced subgraph plus the index remapping back into the host.

    ``x_map[i - 1]`` is the host X-index of the subgraph's x_i, and likewise
    for ``y_map``.
    """

    graph: "Bigraph"
    x_map: tuple[int, ...]
    y_map: tuple[int, ...]


class Bigraph:
    """Immutable bipartite graph with an ordered bipartition (X, Y)."""

    __slots__ = ("x_count", "y_count", "x_adj", "y_adj")

    def __init__(self, x_count: int, y_count: int,
                 edges: Iterable[tuple[int, int]] = ()) -> None:
        if not 0 <= x_count <= MAX_SIDE or not 0 <= y_count <= MAX_SIDE:
            raise InputError(f"side sizes must be in 0..{MAX_SIDE}, "
                             f"got ({x_count}, {y_count})")
        x_adj = [0] * (x_count + 1)
        y_adj = [0] * (y_count + 1)
        for x, y in edges:
            if not 1 <= x <= x_count or not 1 <= y <= y_count:
                raise InputError(f"edge ({x}, {y}) out of range for "
                                 f"({x_count}, {y_count})")
            x_adj[x] |= 1 << y
            y_adj[y] |= 1 << x
        self.x_count = x_count
        self.y_count = y_count
        self.x_adj = tuple(x_adj)
        self.y_adj = tuple(y_adj)

    @classmethod
    def _of_masks(cls, x_adj: tuple[int, ...],
                  y_adj: tuple[int, ...]) -> "Bigraph":
        """Unchecked build from in-range masks that transpose each other."""
        g = object.__new__(cls)
        g.x_count, g.y_count = len(x_adj) - 1, len(y_adj) - 1
        g.x_adj, g.y_adj = x_adj, y_adj
        return g

    # -- basic queries ----------------------------------------------------

    def x_indices(self) -> range:
        return range(1, self.x_count + 1)

    def y_indices(self) -> range:
        return range(1, self.y_count + 1)

    @property
    def x_full(self) -> VertexSet:
        return VertexSet(SIDE_X, full_mask(self.x_count))

    def neighbors_mask(self, side: str, i: int) -> int:
        """Bitmask of the neighbors of vertex ``i`` on side ``side``."""
        adj = self._adj(side)
        if not 1 <= i < len(adj):
            raise InputError(f"no vertex {i} on side {side}")
        return adj[i]

    def degree(self, side: str, i: int) -> int:
        return self.neighbors_mask(side, i).bit_count()

    def has_edge(self, x: int, y: int) -> bool:
        if not 1 <= x <= self.x_count or not 1 <= y <= self.y_count:
            raise InputError(f"edge ({x}, {y}) out of range")
        return bool(self.x_adj[x] >> y & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for x in self.x_indices():
            for y in iter_bits(self.x_adj[x]):
                yield (x, y)

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.x_adj)

    @property
    def min_x_degree(self) -> int:
        """Smallest X-side degree; 0 when X is empty."""
        if self.x_count == 0:
            return 0
        return min(m.bit_count() for m in self.x_adj[1:])

    @property
    def min_y_degree(self) -> int:
        if self.y_count == 0:
            return 0
        return min(m.bit_count() for m in self.y_adj[1:])

    # -- derived graphs ---------------------------------------------------

    def with_edge(self, x: int, y: int) -> "Bigraph":
        if self.has_edge(x, y):
            raise InputError(f"edge ({x}, {y}) already present")
        return self._flip(x, y)

    def without_edge(self, x: int, y: int) -> "Bigraph":
        if not self.has_edge(x, y):
            raise InputError(f"edge ({x}, {y}) not present")
        return self._flip(x, y)

    def _flip(self, x: int, y: int) -> "Bigraph":
        """The graph with edge (x, y) toggled; both must be in range."""
        xa, ya = self.x_adj, self.y_adj
        return Bigraph._of_masks(xa[:x] + (xa[x] ^ 1 << y,) + xa[x + 1:],
                                 ya[:y] + (ya[y] ^ 1 << x,) + ya[y + 1:])

    def induced(self, x_mask: int, y_mask: int) -> InducedSubgraph:
        """Induced subgraph on the given masks, vertices renumbered 1..k."""
        if x_mask & ~full_mask(self.x_count) or y_mask & ~full_mask(self.y_count):
            raise InputError("induced masks contain out-of-range vertices")
        x_map = indices_of(x_mask)
        y_map = indices_of(y_mask)
        y_new = {old: new for new, old in enumerate(y_map, start=1)}
        edges = []
        for new_x, old_x in enumerate(x_map, start=1):
            for old_y in iter_bits(self.x_adj[old_x] & y_mask):
                edges.append((new_x, y_new[old_y]))
        return InducedSubgraph(Bigraph(len(x_map), len(y_map), edges),
                               x_map, y_map)

    # -- dunder -----------------------------------------------------------

    def _adj(self, side: str) -> tuple[int, ...]:
        if side == SIDE_X:
            return self.x_adj
        if side == SIDE_Y:
            return self.y_adj
        raise InputError(f"unknown side {side!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bigraph):
            return NotImplemented
        return (self.x_count, self.y_count, self.x_adj) == \
               (other.x_count, other.y_count, other.x_adj)

    def __hash__(self) -> int:
        return hash((self.x_count, self.y_count, self.x_adj))

    def __repr__(self) -> str:
        return (f"Bigraph({self.x_count}, {self.y_count}, "
                f"{sorted(self.edges())!r})")


class Hypergraph(_Record):
    """Immutable hypergraph on 1-indexed vertices; edges may repeat or be empty."""

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int,
                 edges: Iterable[Iterable[int]] = ()) -> None:
        if not 0 <= vertex_count <= MAX_SIDE:
            raise InputError(f"vertex count must be in 0..{MAX_SIDE}")
        frozen = []
        for e in edges:
            fe = frozenset(e)
            for v in fe:
                if not 1 <= v <= vertex_count:
                    raise InputError(f"edge vertex {v} out of range")
            frozen.append(fe)
        self.vertex_count = vertex_count
        self.edges = tuple(frozen)

    def degree(self, v: int) -> int:
        if not 1 <= v <= self.vertex_count:
            raise InputError(f"no vertex {v}")
        return sum(1 for e in self.edges if v in e)

    def __repr__(self) -> str:
        return f"Hypergraph({self.vertex_count}, {[sorted(e) for e in self.edges]!r})"


# -- neighborhood machinery ------------------------------------------------

def super_neighborhood(g: Bigraph, a: VertexSet) -> VertexSet:
    """Y-vertices with at least two neighbors inside ``a`` (an X-subset)."""
    _require_x_subset(g, a)
    return VertexSet(SIDE_Y, _cover(g.x_adj, iter_bits(a.mask))[1])


def _cover(x_adj: tuple[int, ...], members: Iterable[int]) -> tuple[int, int]:
    """Masks of the Y-vertices adjacent to at least one (``once``) and to at
    least two (``twice``) of the X-vertices ``members``; ``twice`` is N^."""
    once = twice = 0
    for i in members:
        nbr = x_adj[i]
        twice |= once & nbr
        once |= nbr
    return once, twice


def induced_with_superneighborhood(g: Bigraph, a: VertexSet) -> InducedSubgraph:
    """Induced subgraph on ``a`` plus its super-neighborhood, with remapping."""
    nh = super_neighborhood(g, a)
    return g.induced(a.mask, nh.mask)


def reduce_to_superneighborhood(g: Bigraph) -> InducedSubgraph:
    """Drop exactly the Y-vertices of degree <= 1 (keeps X plus N^(X)).

    Cycle existence questions are unchanged by this reduction, and so is
    the neighborhood condition: every N^(A) lies among the Y-vertices of
    degree >= 2, and each G[A + N^(A)] is untouched.  The degree hypothesis
    can change, since |Y| and X-degrees may drop: callers that care about
    it must decide explicitly whether to test the host or the reduced graph.
    """
    return induced_with_superneighborhood(g, g.x_full)


def is_two_connected(g: Bigraph) -> bool:
    """True iff the whole graph is 2-connected (>= 3 vertices, no cutvertex):
    one block that holds every vertex."""
    n = g.x_count + g.y_count
    if n < 3:
        return False
    blocks = _blocks(_adjacency_masks(g))
    return len(blocks) == 1 and len(blocks[0]) == n


def _adjacency_masks(g: Bigraph) -> list[int]:
    """0-based adjacency masks of the whole graph, X-vertices first."""
    nx = g.x_count
    return [g.x_adj[x] >> 1 << nx for x in g.x_indices()] + \
        [g.y_adj[y] >> 1 for y in g.y_indices()]


def _blocks(masks: list[int]) -> list[list[int]]:
    """Vertex lists of the blocks of a simple graph on 0-based adjacency masks.

    Hopcroft-Tarjan lowpoint DFS, iterative, with a stack of vertices not yet
    assigned to a block.  When a child v finishes with low[v] >= disc[parent],
    the vertices pushed since v was discovered, plus the parent, form a block.
    The tree edge back to the parent is not skipped: it only lowers low[v] to
    disc[parent], which leaves that test unchanged.  A bridge is a block of
    two; an isolated vertex lies in no block.
    """
    n = len(masks)
    disc = [0] * n
    low = [0] * n
    timer = 1
    verts: list[int] = []
    blocks: list[list[int]] = []
    while timer <= n:  # some vertex is still undiscovered
        root = disc.index(0)
        disc[root] = low[root] = timer
        timer += 1
        # (vertex, parent, height of verts when it was discovered, edges left)
        stack = [(root, -1, 0, masks[root])]
        while stack:
            v, parent, height, m = stack[-1]
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                if disc[w]:
                    if disc[w] < low[v]:
                        low[v] = disc[w]
                else:
                    stack[-1] = v, parent, height, m
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, len(verts), masks[w]))
                    verts.append(w)
                    break
            else:
                stack.pop()
                if parent >= 0:
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] >= disc[parent]:
                        blocks.append(verts[height:] + [parent])
                        del verts[height:]
    return blocks


def _require_x_subset(g: Bigraph, a: VertexSet) -> None:
    if a.side != SIDE_X:
        raise InputError(f"expected an X-side subset, got side {a.side!r}")
    if a.mask & ~full_mask(g.x_count):
        raise InputError("subset contains vertices outside the graph")


# -- hypergraph correspondence ----------------------------------------------

def incidence_graph(h: Hypergraph) -> Bigraph:
    """Bigraph with X = vertices of ``h`` and Y = its edge slots.

    x_v is adjacent to y_j exactly when vertex v lies in the j-th edge.  A
    cycle based on A in the result corresponds to a Berge cycle of ``h``
    whose base vertex set is A, so cycle questions on hypergraphs reduce to
    based-cycle questions here.
    """
    edges = [(v, j) for j, e in enumerate(h.edges, start=1) for v in sorted(e)]
    return Bigraph(h.vertex_count, len(h.edges), edges)


def hypergraph_of(g: Bigraph) -> Hypergraph:
    """Inverse view of :func:`incidence_graph`: Y-vertices become edges."""
    return Hypergraph(g.x_count,
                      (indices_of(g.y_adj[j]) for j in g.y_indices()))
