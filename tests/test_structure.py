import random
from hashlib import sha256
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from supercyclic import (
    BaseCycle,
    Bigraph,
    InputError,
    VertexSet,
    complete_bipartite,
    crossing_bound_holds,
    crossings,
    enumerate_bigraphs,
    find_based_cycle,
    max_fan,
    random_bigraph,
    successor_maps,
)
from supercyclic.bigraph import SIDE_X, SIDE_Y
from supercyclic.structure import _shrink_paths

from oracles import min_vertex_cut_bruteforce, random_cycle_instance
from strategies import base_cycles_with_graph

K33 = complete_bipartite(3, 3)
C4 = BaseCycle((1, 2), (1, 2))
HEX = BaseCycle((1, 2, 3), (1, 2, 3))


def test_successor_maps_frozen():
    m = successor_maps(HEX)
    assert (m.x_plus[(SIDE_X, 1)], m.x_minus[(SIDE_X, 1)]) == (2, 3)
    assert (m.y_plus[(SIDE_X, 1)], m.y_minus[(SIDE_X, 1)]) == (1, 3)
    assert (m.x_plus[(SIDE_Y, 1)], m.x_minus[(SIDE_Y, 1)]) == (2, 1)
    assert (m.y_plus[(SIDE_Y, 1)], m.y_minus[(SIDE_Y, 1)]) == (2, 3)


@given(st.permutations(range(1, 6)), st.permutations(range(1, 6)),
       st.integers(2, 5))
def test_reversal_swaps_successors(xs, ys, l):
    c = BaseCycle(tuple(xs[:l]), tuple(ys[:l]))
    m = successor_maps(c)
    r = successor_maps(c.reverse())
    assert r.x_plus == m.x_minus and r.x_minus == m.x_plus
    assert r.y_plus == m.y_minus and r.y_minus == m.y_plus


def test_crossings_frozen_plain_ring():
    ring = Bigraph(3, 3, [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (1, 3)])
    rep = crossings(ring, HEX, 1, 2)
    assert rep.crossed_at == () and rep.count == 0
    assert crossing_bound_holds(ring, HEX, 1, 2)


def test_crossings_frozen_k33():
    rep = crossings(K33, HEX, 1, 2)
    assert rep.crossed_at == (3,)
    assert crossings(K33, HEX, 2, 1).crossed_at == (3,)
    # d_C(1) + d_C(2) = 6 <= 3 + 2 + 1: tight
    assert crossing_bound_holds(K33, HEX, 1, 2)


def test_crossings_frozen_chorded_eight_ring():
    c8 = BaseCycle((1, 2, 3, 4), (1, 2, 3, 4))
    g = Bigraph(4, 4, [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3),
                       (4, 4), (1, 4), (1, 2), (3, 1)])
    rep = crossings(g, c8, 1, 3)
    assert rep.crossed_at == (2,)
    # the report ignores orientation and argument order
    assert crossings(g, c8.reverse(), 1, 3).crossed_at == (2,)
    assert crossings(g, c8, 3, 1).crossed_at == (2,)
    assert crossing_bound_holds(g, c8, 1, 3)


def test_crossings_input_errors():
    with pytest.raises(InputError):
        crossings(K33, HEX, 1, 1)
    with pytest.raises(InputError):
        crossings(K33, C4, 1, 3)  # x3 not on this cycle
    with pytest.raises(InputError):
        crossings(complete_bipartite(2, 2), HEX, 1, 2)  # cycle not in graph


@given(base_cycles_with_graph(min_l=2, max_l=4, max_extra=2), st.data())
@settings(max_examples=200)
def test_crossing_symmetry_and_bound(pair, data):
    g, c = pair
    u = data.draw(st.sampled_from(c.xs))
    v = data.draw(st.sampled_from([x for x in c.xs if x != u]))
    a = crossings(g, c, u, v)
    b = crossings(g, c, v, u)
    assert a.crossed_at == b.crossed_at
    assert crossings(g, c.reverse(), u, v).crossed_at == a.crossed_at
    assert crossing_bound_holds(g, c, u, v)


def test_max_fan_frozen_k33():
    f = max_fan(K33, 3, C4)
    assert f.size == 3
    assert f.paths == (((SIDE_X, 3), (SIDE_Y, 1)),
                       ((SIDE_X, 3), (SIDE_Y, 2)),
                       ((SIDE_X, 3), (SIDE_Y, 3), (SIDE_X, 1)))
    assert f.contacts == ((SIDE_Y, 1), (SIDE_Y, 2), (SIDE_X, 1))
    assert f.vertex_count == 5


def test_max_fan_disconnected_root():
    g = Bigraph(4, 3, list(K33.edges()))
    f = max_fan(g, 4, C4)
    assert f.size == 0 and f.paths == () and f.vertex_count == 1


def test_max_fan_single_path():
    g = Bigraph(4, 3, list(K33.edges()) + [(4, 3)])
    f = max_fan(g, 4, C4)
    assert f.paths == (((SIDE_X, 4), (SIDE_Y, 3), (SIDE_X, 1)),)


def test_max_fan_shrinks_detours():
    # x3 can reach the ring through y3-x4-y4 or directly via y4; the fan
    # keeps the two-edge route
    g = Bigraph(4, 4, [(1, 1), (2, 1), (1, 2), (2, 2),
                       (3, 3), (4, 3), (4, 4), (1, 4), (3, 4)])
    f = max_fan(g, 3, C4)
    assert f.paths == (((SIDE_X, 3), (SIDE_Y, 4), (SIDE_X, 1)),)
    assert f.vertex_count == 3


def test_max_fan_frozen_corpus_digest():
    # every fan of every class of (4, <=5) and (5, <=3) and of 300 seeded
    # random graphs: up to five based cycles per base size, found in lex
    # order, each with every off-cycle root; the digest was taken before
    # max_fan lost its flow ledger, so it pins the augmenting order too
    rng = random.Random(13)
    graphs = [*enumerate_bigraphs(4, 5), *enumerate_bigraphs(5, 3),
              *(random_bigraph(rng.randint(5, 7), rng.randint(3, 7),
                               rng.randint(0, 3), i) for i in range(300))]
    h = sha256()
    count = 0
    for g in graphs:
        for size in range(3, g.x_count):
            found = (find_based_cycle(g, VertexSet.of(SIDE_X, a))
                     for a in combinations(g.x_indices(), size))
            for c in [c for c in found if c][:5]:
                for root in g.x_indices():
                    if root not in c.xs:
                        h.update(repr(max_fan(g, root, c)).encode())
                        count += 1
    assert count == 7758
    assert h.hexdigest() == ("9f619c776ed789ddece4dbfc92ff6e7d"
                             "6a367891cc881ec5c8c59fd0ef4cebdc")


@given(st.integers(1, 10), st.sets(st.tuples(st.integers(1, 5),
                                            st.integers(1, 5))))
@settings(max_examples=200)
def test_shrink_paths_one_pass_leaves_no_shortcut(n, chords):
    # the path x1 y1 x2 y2 ... on its first n vertices, plus random chords
    path = [((SIDE_X, SIDE_Y)[i % 2], i // 2 + 1) for i in range(n)]
    edges = {(i // 2 + 1 + i % 2, i // 2 + 1) for i in range(n - 1)}
    g = Bigraph(5, 5, sorted(edges | chords))

    def adjacent(a, b):
        return a[0] != b[0] and g.has_edge(*(a[1], b[1]) if a[0] == SIDE_X
                                           else (b[1], a[1]))

    paths = [list(path)]
    _shrink_paths(g, paths)
    p = paths[0]
    assert p[0] == path[0] and p[-1] == path[-1]
    rest = iter(path)
    assert all(v in rest for v in p)  # a subsequence of the path
    assert all(adjacent(a, b) for a, b in zip(p, p[1:]))
    for i, v in enumerate(p):
        assert not any(adjacent(v, w) for w in p[i + 2:])


def test_max_fan_input_errors():
    with pytest.raises(InputError):
        max_fan(K33, 1, C4)  # root on the cycle
    with pytest.raises(InputError):
        max_fan(K33, 9, C4)
    with pytest.raises(InputError):
        max_fan(complete_bipartite(2, 2).without_edge(1, 1), 1, C4)


def assert_valid_fan(g, c, root, fan):
    on_cycle = {(SIDE_X, w) for w in c.xs} | {(SIDE_Y, w) for w in c.ys}
    interior_seen = set()
    contacts = set()
    for p in fan.paths:
        assert p[0] == (SIDE_X, root)
        assert p[-1] in on_cycle
        for a, b in zip(p, p[1:]):
            assert a[0] != b[0]
            xi = a[1] if a[0] == SIDE_X else b[1]
            yj = b[1] if a[0] == SIDE_X else a[1]
            assert g.has_edge(xi, yj)
        middle = p[1:-1]
        assert all(v not in on_cycle for v in middle)
        for v in middle:
            assert v not in interior_seen  # internally disjoint
            interior_seen.add(v)
        assert p[-1] not in contacts
        contacts.add(p[-1])


def test_fan_size_matches_min_cut_bruteforce():
    rng = random.Random(501)
    for _ in range(100):
        g, c, root = random_cycle_instance(rng)
        fan = max_fan(g, root, c)
        assert_valid_fan(g, c, root, fan)
        cyc = {(SIDE_X, w) for w in c.xs} | {(SIDE_Y, w) for w in c.ys}
        assert fan.size == min_vertex_cut_bruteforce(g, root, cyc)
