import pickle
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from supercyclic import (
    BaseCycle,
    Bigraph,
    Hypergraph,
    InputError,
    VertexSet,
    check_condition,
    complete_bipartite,
    degree_hypothesis,
    hypergraph_of,
    incidence_graph,
    induced_with_superneighborhood,
    is_two_connected,
    reduce_to_superneighborhood,
    super_neighborhood,
)
from supercyclic.bigraph import SIDE_X, SIDE_Y, _adjacency_masks, _blocks
from supercyclic.bitset import full_mask

from oracles import (
    cut_vertices_bruteforce,
    flat_adjacency,
    has_berge_cycle_with_base,
    is_two_connected_bruteforce,
    super_neighborhood_naive,
)
from strategies import bigraphs, hypergraphs

C6 = Bigraph(3, 3, [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (1, 3)])
K33 = complete_bipartite(3, 3)


@pytest.mark.parametrize("make", [
    lambda: VertexSet.of(SIDE_X, [1, 3]),
    lambda: BaseCycle((1, 3, 2), (6, 5, 4)),
    lambda: check_condition(C6),
    lambda: check_condition(Bigraph(3, 2, [(1, 1), (2, 1), (3, 2)]), "kim"),
])
def test_records_compare_hash_and_pickle_by_value(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a
    assert repr(a) == repr(b) and repr(a).startswith(type(a).__name__ + "(")


def test_vertex_set_basics():
    a = VertexSet.of(SIDE_X, [3, 1, 2])
    assert len(a) == 3
    assert a.members == (1, 2, 3)
    assert 2 in a and 4 not in a
    assert str(a) == "X{1,2,3}"
    assert str(VertexSet(SIDE_Y, 0)) == "Y{}"
    assert VertexSet.of(SIDE_X, [1]).issubset(a)
    assert not a.issubset(VertexSet.of(SIDE_X, [1]))


def test_vertex_set_rejects_bad_input():
    with pytest.raises(InputError):
        VertexSet("Z", 0)
    with pytest.raises(InputError):
        VertexSet(SIDE_X, 1)  # bit 0 is reserved, vertices are 1-based
    with pytest.raises(InputError):
        VertexSet.of(SIDE_X, [0])
    # past the 64-vertex cap, not a mask of 65 or 10**21 bits
    for index in (65, 10**21):
        with pytest.raises(InputError, match="1..64"):
            VertexSet.of(SIDE_X, [1, index])


def test_construction_rejects_out_of_range_edges():
    with pytest.raises(InputError):
        Bigraph(2, 2, [(3, 1)])
    with pytest.raises(InputError):
        Bigraph(2, 2, [(1, 0)])
    with pytest.raises(InputError):
        Bigraph(-1, 2, [])
    with pytest.raises(InputError):
        Bigraph(65, 1, [])


def test_edge_views_agree():
    g = C6
    assert g.edge_count == 6
    assert g.degree(SIDE_X, 1) == 2
    assert g.degree(SIDE_Y, 2) == 2
    assert g.has_edge(1, 1) and not g.has_edge(1, 2)
    assert sorted(g.edges()) == [(1, 1), (1, 3), (2, 1), (2, 2), (3, 2), (3, 3)]


@given(bigraphs())
def test_adjacency_symmetric(g):
    for x in range(1, g.x_count + 1):
        for y in range(1, g.y_count + 1):
            assert bool(g.neighbors_mask(SIDE_X, x) >> y & 1) == \
                bool(g.neighbors_mask(SIDE_Y, y) >> x & 1)


@given(bigraphs())
def test_edges_roundtrip(g):
    assert Bigraph(g.x_count, g.y_count, g.edges()) == g


def test_with_and_without_edge():
    g = C6.with_edge(1, 2)
    assert g.has_edge(1, 2) and not C6.has_edge(1, 2)
    assert g.without_edge(1, 2) == C6
    with pytest.raises(InputError):
        C6.with_edge(1, 1)  # already present
    with pytest.raises(InputError):
        C6.without_edge(1, 2)  # absent


@given(bigraphs(max_x=5, max_y=5), st.data())
@settings(max_examples=150)
def test_edge_flips_equal_edge_list_rebuilds(g, data):
    # flips build from masks; __eq__ and hash read only x_adj
    x = data.draw(st.integers(-1, g.x_count + 1))
    y = data.draw(st.integers(-1, g.y_count + 1))
    if not (1 <= x <= g.x_count and 1 <= y <= g.y_count):
        for flip in (g.with_edge, g.without_edge):
            with pytest.raises(InputError):
                flip(x, y)
        return
    edges = set(g.edges())
    present = (x, y) in edges
    with pytest.raises(InputError):
        (g.with_edge if present else g.without_edge)(x, y)
    got = g.without_edge(x, y) if present else g.with_edge(x, y)
    want = Bigraph(g.x_count, g.y_count, edges ^ {(x, y)})
    assert (got.x_count, got.y_count, got.x_adj, got.y_adj) == \
        (want.x_count, want.y_count, want.x_adj, want.y_adj)
    assert type(got.x_adj) is tuple and type(got.y_adj) is tuple
    assert hash(got) == hash(want)


def test_min_degrees():
    assert C6.min_x_degree == 2
    assert C6.min_y_degree == 2
    assert Bigraph(2, 1, [(1, 1)]).min_x_degree == 0
    assert Bigraph(0, 3, []).min_x_degree == 0


def test_super_neighborhood_frozen_cases():
    # in C6 each y has exactly two neighbors, so pairs matter
    assert str(super_neighborhood(C6, VertexSet.of(SIDE_X, [1, 2]))) == "Y{1}"
    assert str(super_neighborhood(C6, VertexSet.of(SIDE_X, [1, 2, 3]))) == "Y{1,2,3}"
    assert str(super_neighborhood(K33, VertexSet.of(SIDE_X, [1, 2]))) == "Y{1,2,3}"
    assert str(super_neighborhood(C6, VertexSet.of(SIDE_X, [1]))) == "Y{}"
    assert str(super_neighborhood(C6, VertexSet(SIDE_X, 0))) == "Y{}"


def test_super_neighborhood_requires_x_side():
    with pytest.raises(InputError):
        super_neighborhood(C6, VertexSet.of(SIDE_Y, [1]))
    with pytest.raises(InputError):
        super_neighborhood(C6, VertexSet.of(SIDE_X, [4]))


@given(bigraphs(), st.data())
def test_super_neighborhood_matches_naive(g, data):
    xs = data.draw(st.sets(st.integers(1, max(g.x_count, 1))))
    xs = {x for x in xs if x <= g.x_count}
    got = super_neighborhood(g, VertexSet.of(SIDE_X, xs))
    assert got.members == tuple(super_neighborhood_naive(g, tuple(sorted(xs))))


@given(bigraphs(), st.data())
def test_super_neighborhood_monotone(g, data):
    if g.x_count == 0:
        return
    b = data.draw(st.sets(st.integers(1, g.x_count)))
    a = {x for x in b if data.draw(st.booleans())}
    na = super_neighborhood(g, VertexSet.of(SIDE_X, a))
    nb = super_neighborhood(g, VertexSet.of(SIDE_X, b))
    assert na.issubset(nb)


def test_two_connected_frozen_cases():
    assert is_two_connected(C6)
    assert is_two_connected(K33)
    assert not is_two_connected(Bigraph(2, 2, [(1, 1), (2, 1), (2, 2)]))
    assert not is_two_connected(Bigraph(1, 3, [(1, 1), (1, 2), (1, 3)]))
    assert not is_two_connected(Bigraph(1, 1, [(1, 1)]))
    assert not is_two_connected(Bigraph(0, 0, []))
    # disconnected: two C4 components
    two_c4 = Bigraph(4, 4, [(1, 1), (2, 1), (1, 2), (2, 2),
                            (3, 3), (4, 3), (3, 4), (4, 4)])
    assert not is_two_connected(two_c4)
    # two C4 blocks sharing the cut vertex x1
    hinged = Bigraph(3, 4, [(1, 1), (2, 1), (1, 2), (2, 2),
                            (1, 3), (3, 3), (1, 4), (3, 4)])
    assert not is_two_connected(hinged)


@given(bigraphs(max_x=4, max_y=4))
def test_two_connected_matches_bruteforce(g):
    assert is_two_connected(g) == is_two_connected_bruteforce(g)


@given(bigraphs(max_x=5, max_y=5))
def test_blocks_partition_edges_into_two_connected_pieces(g):
    n, adj = flat_adjacency(g)
    blocks = _blocks([sum(1 << w for w in a) for a in adj])
    # every edge lies inside exactly one block
    for x, y in g.edges():
        u, v = x - 1, g.x_count + y - 1
        assert sum(u in b and v in b for b in blocks) == 1
    for b in blocks:
        assert len(set(b)) == len(b) >= 2
        if len(b) >= 3:
            xs = [v + 1 for v in b if v < g.x_count]
            ys = [v - g.x_count + 1 for v in b if v >= g.x_count]
            assert is_two_connected_bruteforce(g, xs, ys)
    # the cut vertices are exactly the vertices shared by two blocks
    shared = {v for v in range(n) if sum(v in b for b in blocks) >= 2}
    assert shared == cut_vertices_bruteforce(g)


def _hall(a, b, c):
    """Hall's rule for the triple with Y-neighborhoods a, b, c, as the
    condition's pack decides it: the three pairwise intersections are
    non-empty and each union of two has at least two ys.  The walk's
    ``generators._passes`` decides it in another form, refereed
    against this one below."""
    p, q, r = a & b, b & c, a & c
    return bool(p and q and r) and min((p | q).bit_count(),
                                       (q | r).bit_count(),
                                       (p | r).bit_count()) >= 2


def test_triple_rule_matches_blocks_on_all_81_count_vectors():
    # (n_ab, n_ac, n_bc, n_abc), each capped at 2: the Y-vertices seen by
    # exactly that pair, or by all three, of X = {x1, x2, x3}
    connected = 0
    for counts in product(range(3), repeat=4):
        neighbors = [(1, 2)] * counts[0] + [(1, 3)] * counts[1] + \
            [(2, 3)] * counts[2] + [(1, 2, 3)] * counts[3]
        g = Bigraph(3, len(neighbors), [(x, y) for y, xs in
                                        enumerate(neighbors, start=1)
                                        for x in xs])
        assert super_neighborhood(g, g.x_full).mask == full_mask(g.y_count)
        blocks = _blocks(_adjacency_masks(g))
        by_dfs = len(blocks) == 1 and len(blocks[0]) == 3 + g.y_count
        assert _hall(*g.x_adj[1:]) == by_dfs, counts
        # the walk's form: every pair shares a y, and each x has at least
        # two neighbors in N^(T)
        a, b, c = g.x_adj[1:]
        nh = a & b | b & c | a & c
        assert (bool(a & b and b & c and a & c) and
                min((x & nh).bit_count() for x in (a, b, c)) >= 2) == \
            _hall(a, b, c), counts
        # the pack's seven fields: |N^(T)| >= 3, then the rule's six
        assert check_condition(g).passed == (by_dfs and g.y_count >= 3), \
            counts
        connected += by_dfs
    assert connected == 55


@settings(max_examples=60)
@given(bigraphs(min_x=3, max_x=6, max_y=6))
def test_triple_rule_matches_bruteforce_on_every_y_mask(g):
    # G[T + Y'] for every Y': 2-connected iff each y of Y' has two
    # neighbors in T and the rule holds on the neighborhoods cut to Y'; the
    # pack on that graph, whose N^ is then Y', agrees
    for xs in combinations(g.x_indices(), 3):
        a, b, c = (g.x_adj[x] for x in xs)
        nh = a & b | (a | b) & c
        for ym in range(0, full_mask(g.y_count) + 1, 2):
            ys = [y for y in g.y_indices() if ym >> y & 1]
            two = is_two_connected_bruteforce(g, xs, ys)
            inside = ym & ~nh == 0
            assert (inside and _hall(a & ym, b & ym, c & ym)) == two
            if inside:
                h = g.induced(sum(1 << x for x in xs), ym).graph
                assert check_condition(h).passed == (two and len(ys) >= 3)


def test_induced_remaps_indices():
    sub = C6.induced(0b0110, 0b0110)  # keep x1,x2 and y1,y2
    assert sub.x_map == (1, 2) and sub.y_map == (1, 2)
    assert sorted(sub.graph.edges()) == [(1, 1), (2, 1), (2, 2)]
    empty = C6.induced(0, 0)
    assert empty.graph.x_count == 0 and empty.graph.y_count == 0


def test_induced_with_superneighborhood():
    sub = induced_with_superneighborhood(K33, VertexSet.of(SIDE_X, [1, 2]))
    assert sub.x_map == (1, 2) and sub.y_map == (1, 2, 3)
    assert sub.graph == complete_bipartite(2, 3)
    whole = induced_with_superneighborhood(C6, VertexSet.of(SIDE_X, [1, 2, 3]))
    assert whole.graph == C6


def test_reduce_to_superneighborhood_drops_thin_ys():
    g = Bigraph(2, 3, [(1, 1), (2, 1), (1, 2), (1, 3), (2, 3)])
    red = reduce_to_superneighborhood(g)
    assert red.y_map == (1, 3)  # y2 has a single neighbor
    assert red.graph == complete_bipartite(2, 2)


@given(bigraphs(min_x=3, max_x=6, max_y=7))
@settings(max_examples=200)
def test_reduction_keeps_the_condition(g):
    reduced = reduce_to_superneighborhood(g).graph
    for mode in ("full", "kim"):
        assert check_condition(reduced, mode) == check_condition(g, mode)


def test_reduction_can_change_the_degree_hypothesis():
    # K(3, 3) plus a pendant y on x2 and on x3: m drops from 5 to 3
    g = Bigraph(3, 5, list(complete_bipartite(3, 3).edges()) +
                [(2, 4), (3, 5)])
    reduced = reduce_to_superneighborhood(g).graph
    assert reduced == complete_bipartite(3, 3)
    assert not degree_hypothesis(g).meets_half_bound
    assert degree_hypothesis(reduced).meets_half_bound


def test_incidence_graph_frozen():
    tri = Hypergraph(3, [{1, 2}, {2, 3}, {1, 3}])
    inc = incidence_graph(tri)
    assert inc.x_count == 3 and inc.y_count == 3
    assert sorted(inc.edges()) == [(1, 1), (1, 3), (2, 1), (2, 2), (3, 2), (3, 3)]
    # empty edge becomes an isolated y vertex
    inc2 = incidence_graph(Hypergraph(2, [set(), {1, 2}]))
    assert inc2.degree(SIDE_Y, 1) == 0 and inc2.degree(SIDE_Y, 2) == 2


def test_hypergraph_validation():
    with pytest.raises(InputError):
        Hypergraph(2, [{3}])
    with pytest.raises(InputError):
        Hypergraph(-1, [])
    h = Hypergraph(3, [{2, 1}, {3}])
    assert h.edges == (frozenset({1, 2}), frozenset({3}))


@given(hypergraphs())
def test_incidence_roundtrip(h):
    assert hypergraph_of(incidence_graph(h)) == h


@given(hypergraphs(min_v=2, max_v=4, max_e=4), st.data())
def test_incidence_carries_berge_cycles(h, data):
    # a Berge cycle with base A exists iff A is the X-set of a cycle in
    # the incidence graph
    from oracles import cycle_survey
    base = data.draw(st.sets(st.integers(1, h.vertex_count), min_size=2))
    xsets, _ = cycle_survey(incidence_graph(h))
    assert has_berge_cycle_with_base(h, tuple(base)) == (frozenset(base) in xsets)
