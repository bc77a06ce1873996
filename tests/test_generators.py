import random
from collections import Counter
from hashlib import sha256

import pytest

from supercyclic import (
    Bigraph,
    CapacityError,
    InputError,
    check_condition,
    complete_bipartite,
    construct_g3,
    enumerate_bigraphs,
    expected_class_count,
    find_based_cycle,
    longest_cycle_length,
    random_bigraph,
    super_neighborhood,
    VertexSet,
)
from supercyclic.bigraph import SIDE_X
from supercyclic.formats import serialize_bigraph
from supercyclic import generators
from supercyclic.generators import _canonicity_steps

from oracles import (
    bigraph_to_columns,
    burnside_class_count,
    canonicity_steps_bytewise,
    condition_bruteforce,
    condition_slacks,
    cut_stream,
    orbit_canonical,
    orbit_representatives,
    orderly_columns,
    super_neighborhood_naive,
)


def test_construct_g3_shape():
    g = construct_g3(2, 2, 1, 4)
    assert g.x_count == 5 and g.y_count == 8
    # every X-degree is exactly delta
    assert {g.degree(SIDE_X, x) for x in range(1, 6)} == {4}
    # a and b are complete to X
    assert g.degree("Y", 7) == 5 and g.degree("Y", 8) == 5
    # group vertices touch only their part
    assert g.neighbors_mask("Y", 1) == 0b00110  # part 1 = {x1, x2}


def test_construct_g3_defeats_the_condition():
    for args in [(1, 1, 1, 3), (2, 1, 1, 3), (2, 2, 2, 5), (3, 2, 1, 4)]:
        g = construct_g3(*args)
        rep = check_condition(g)
        assert not rep.passed
        # one vertex per part has super-neighborhood {a, b} only
        n1, n2, n3, _ = args
        triple = VertexSet.of(SIDE_X, [1, n1 + 1, n1 + n2 + 1])
        assert len(super_neighborhood(g, triple)) == 2
        assert find_based_cycle(g, triple) is None


def test_construct_g3_longest_cycle():
    # 2(n1 + n2) once delta is comfortable
    assert longest_cycle_length(construct_g3(2, 1, 1, 3)) == 6
    assert longest_cycle_length(construct_g3(2, 2, 1, 4)) == 8
    assert longest_cycle_length(construct_g3(3, 2, 2, 5)) == 10


def test_construct_g3_validation():
    with pytest.raises(InputError):
        construct_g3(1, 2, 1, 3)  # parts must be nonincreasing
    with pytest.raises(InputError):
        construct_g3(1, 1, 0, 3)
    with pytest.raises(InputError):
        construct_g3(1, 1, 1, 2)  # delta too small
    with pytest.raises(InputError):
        construct_g3(30, 20, 15, 4)  # 65 X-vertices


def test_enumeration_matches_orbit_oracle_exactly():
    for nx, ny in [(2, 2), (3, 1), (3, 2)]:
        got = [g for g in enumerate_bigraphs(nx, ny) if g.y_count == ny]
        want = orbit_representatives(nx, ny)
        # same count, pairwise inequivalent, and every class is hit
        assert len(got) == len(want)
        canon = {orbit_canonical(nx, bigraph_to_columns(g)) for g in got}
        assert canon == {orbit_canonical(nx, c) for c in want}


def test_enumeration_strata_counts():
    strata = Counter(g.y_count for g in enumerate_bigraphs(2, 2))
    assert strata == {0: 1, 1: 3, 2: 7}
    for nx, ny_max in [(3, 3), (5, 4), (6, 3)]:
        strata = Counter(g.y_count for g in enumerate_bigraphs(nx, ny_max))
        assert strata == {k: burnside_class_count(nx, k)
                          for k in range(ny_max + 1)}


def test_enumeration_totals_by_burnside(corpus_3_5, corpus_4_5, corpus_4_6):
    assert len(corpus_3_5) == sum(burnside_class_count(3, k)
                                  for k in range(6))
    assert len(corpus_4_5) == sum(burnside_class_count(4, k)
                                  for k in range(6))
    assert len(corpus_4_6) == sum(burnside_class_count(4, k)
                                  for k in range(7))


@pytest.mark.parametrize("nx, top", [(0, 5), (1, 5), (2, 5), (3, 5),
                                     (4, 5), (5, 3), (6, 2)])
def test_enumeration_stream_matches_sorting_oracle(nx, top):
    # same predicate, same order: so every checkpoint prefix is unchanged;
    # minimum X-degree 0 cuts nothing
    for ny_max in range(top + 1):
        want = orderly_columns(nx, ny_max)
        for stream in (enumerate_bigraphs(nx, ny_max),
                       enumerate_bigraphs(nx, ny_max, 0)):
            assert [bigraph_to_columns(g) for g in stream] == want


def _columns(g):
    return tuple(c >> 1 for c in g.y_adj[1:])


@pytest.mark.parametrize("nx, top", [(0, 6), (1, 6), (2, 6), (3, 6),
                                     (4, 6), (5, 6), (6, 4)])
def test_degree_cut_stream_is_the_full_stream_filtered(nx, top):
    # a node survives iff no x is short yet: degree + columns left >= d
    for ny_max in range(top + 1):
        full = [_columns(g) for g in enumerate_bigraphs(nx, ny_max)]
        for d in range(ny_max + 2):
            want = [cols for cols in full if all(
                sum(c >> x & 1 for c in cols) + ny_max - len(cols) >= d
                for x in range(nx))]
            got = [_columns(g) for g in cut_stream(nx, ny_max, d)]
            assert got == want, (ny_max, d)


@pytest.mark.parametrize("nx, top", [(0, 6), (1, 6), (2, 6), (3, 6),
                                     (4, 6), (5, 6), (6, 5)])
def test_condition_cut_stream_is_the_full_stream_filtered(nx, top):
    # a node survives iff every slack field, computed from its columns by
    # the oracle's formulas, is still non-negative; every class the cut
    # drops fails the condition; at (6, <=5) the cut walks nothing
    dropped = set()
    for ny_max in range(top + 1):
        full = list(enumerate_bigraphs(nx, ny_max))
        keep = [all(s >= 0 for s in condition_slacks(nx, ny_max, _columns(g)))
                for g in full]
        dropped.update(g for g, kept in zip(full, keep) if not kept)
        want = [_columns(g) for g, kept in zip(full, keep) if kept]
        got = [_columns(g) for g in cut_stream(nx, ny_max, condition=True)]
        assert got == want, ny_max
    if nx < 6:
        assert not any(map(condition_bruteforce, dropped))
    else:
        # the cut drops every class, as |Y| <= 5 < |X|, so each one fails
        # the size clause at A = X; that is checked by brute force, where
        # condition_bruteforce would first test every triple of all 32,270
        # classes for 2-connectivity by vertex deletion
        assert not want and len(dropped) == expected_class_count(6, 5)
        assert all(len(super_neighborhood_naive(g, tuple(range(1, 7)))) < 6
                   for g in dropped)


def test_condition_cut_with_a_degree_cut_keeps_both_fields(nx=4, ny_max=5):
    full = list(enumerate_bigraphs(nx, ny_max))
    for d in range(ny_max + 2):
        want = [_columns(g) for g in full
                if all(s >= 0 for s in condition_slacks(nx, ny_max,
                                                        _columns(g)))
                and min(m.bit_count() for m in g.x_adj[1:]) + ny_max
                - g.y_count >= d]
        got = [_columns(g) for g in cut_stream(nx, ny_max, d, True)]
        assert got == want, d


@pytest.mark.parametrize("nx, top", [(0, 5), (1, 5), (2, 5), (3, 5),
                                     (4, 5), (5, 4), (6, 3)])
def test_enumeration_emits_exactly_the_classes_that_meet_its_tests(nx, top):
    # the walk decides the floor and the condition at each node, so no
    # caller filters again; an empty X has min_x_degree 0, below any floor
    for ny_max in range(top + 1):
        full = list(enumerate_bigraphs(nx, ny_max))
        passed = [check_condition(g).passed for g in full]
        for d in range(ny_max + 2):
            for condition in (False, True):
                want = [_columns(g) for g, ok in zip(full, passed)
                        if g.min_x_degree >= d and (ok or not condition)]
                got = [_columns(g) for g in
                       enumerate_bigraphs(nx, ny_max, d, condition)]
                assert got == want, (ny_max, d, condition)


def test_degree_cut_returns_before_building_the_table(monkeypatch):
    # the thresholds alone decide that the cuts cut the root: neither the
    # canonicity table nor the slack pack's serving sets are built
    def no_table(*args):
        raise AssertionError("walk table built")

    generators._tree.cache_clear()
    monkeypatch.setattr(generators, "_canonicity_steps", no_table)
    monkeypatch.setattr(generators, "_Tree", no_table)
    assert list(enumerate_bigraphs(6, 3, 6)) == []
    assert list(enumerate_bigraphs(6, 3, 6, True)) == []
    assert list(enumerate_bigraphs(1, 0, 1)) == []


def test_expected_class_count_matches_burnside_oracle():
    # every (nx, ny_max) whose strata the oracle sums in well under a second
    for nx, top in [(0, 8), (1, 8), (2, 8), (3, 8), (4, 7), (5, 6), (6, 5)]:
        strata = [burnside_class_count(nx, k) for k in range(top + 1)]
        for ny_max in range(top + 1):
            assert expected_class_count(nx, ny_max) == \
                sum(strata[:ny_max + 1]), (nx, ny_max)


def test_expected_class_count_at_the_caps():
    assert expected_class_count(6, 6) == 283_880
    assert expected_class_count(6, 7) == 2_425_613
    assert expected_class_count(6, 8) == 19_682_444
    with pytest.raises(CapacityError):
        expected_class_count(7, 2)
    with pytest.raises(InputError):
        expected_class_count(3, -1)


def test_canonicity_steps_match_bytewise_build():
    for nx in range(7):
        for ny_max in range(9):
            assert _canonicity_steps(nx, ny_max) == \
                canonicity_steps_bytewise(nx, ny_max)


@pytest.mark.parametrize("nx, ny_max", [(0, 5), (1, 5), (2, 5), (3, 5),
                                        (4, 5), (5, 5), (6, 3)])
def test_enumerated_graphs_equal_edge_list_builds(nx, ny_max):
    # the enumerator builds from masks; __eq__ and hash read only x_adj
    for g in enumerate_bigraphs(nx, ny_max):
        cols = bigraph_to_columns(g)
        want = Bigraph(nx, len(cols), [(i + 1, j) for j, c in enumerate(cols, 1)
                                       for i in range(nx) if c >> i & 1])
        assert (g.x_count, g.y_count, g.x_adj, g.y_adj) == \
            (want.x_count, want.y_count, want.x_adj, want.y_adj)
        assert type(g.x_adj) is tuple and type(g.y_adj) is tuple
        assert hash(g) == hash(want)


def test_enumeration_is_deterministic(corpus_3_5):
    assert corpus_3_5 == list(enumerate_bigraphs(3, 5))


def test_enumeration_caps_and_validation():
    with pytest.raises(CapacityError):
        list(enumerate_bigraphs(7, 2))
    with pytest.raises(CapacityError):
        list(enumerate_bigraphs(3, 9))
    with pytest.raises(InputError):
        list(enumerate_bigraphs(-1, 2))
    # a negative degree floor is refused, not read as no floor
    for condition in (False, True):
        with pytest.raises(InputError, match="min_x_degree"):
            list(enumerate_bigraphs(3, 2, -1, condition))


def test_random_bigraph_deterministic():
    a = random_bigraph(5, 6, 2, seed=99)
    b = random_bigraph(5, 6, 2, seed=99)
    assert a == b
    assert a != random_bigraph(5, 6, 2, seed=100)
    assert a.min_x_degree >= 2


def test_random_bigraph_digest_frozen():
    # the seeded hunts' reports depend on these getrandbits / randrange
    # draws: 1,000 seeded graphs over |X| <= 8, |Y| <= 10 and every padding
    rng = random.Random(20)
    text = []
    for _ in range(1000):
        nx, ny = rng.randint(0, 8), rng.randint(0, 10)
        g = random_bigraph(nx, ny, rng.randint(0, ny), rng.randrange(1 << 30))
        text.append(serialize_bigraph(g))
    assert sha256("".join(text).encode()).hexdigest()[:16] == "8a501221884c6f75"


def test_random_bigraph_degree_padding():
    g = random_bigraph(4, 4, 4, seed=0)
    assert g == complete_bipartite(4, 4)
    with pytest.raises(InputError):
        random_bigraph(3, 2, 3, seed=0)
    with pytest.raises(InputError):
        random_bigraph(3, 3, -2, seed=0)
    assert random_bigraph(0, 5, 0, seed=1) == Bigraph(0, 5, [])
