import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

import supercyclic.bigraph
from supercyclic import condition
from supercyclic.bigraph import _cover
from supercyclic.bitset import mask_of
from supercyclic.cycles import _triple_cycle

from supercyclic import (
    Bigraph,
    ConditionReport,
    InputError,
    check_condition,
    complete_bipartite,
    construct_g3,
    degree_hypothesis,
    is_super_cyclic,
    min_deficiency,
    random_bigraph,
)

from oracles import (condition_bruteforce, first_condition_failure,
                     is_two_connected_bruteforce, min_deficiency_bruteforce,
                     super_neighborhood_naive)
from strategies import bigraphs

C6 = Bigraph(3, 3, [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (1, 3)])
K33 = complete_bipartite(3, 3)

# x1 sees everything, x2 and x3 live in separate 4-rings through x1;
# the size clause holds but x1 is a cut vertex of G[A union N^(A)]
HINGE = Bigraph(3, 4, [(1, 1), (2, 1), (1, 2), (2, 2),
                       (1, 3), (3, 3), (1, 4), (3, 4)])


def test_condition_frozen_pass():
    assert check_condition(K33).passed
    assert check_condition(C6).passed
    assert check_condition(complete_bipartite(4, 4)).passed
    assert check_condition(Bigraph(2, 2, [])).passed  # vacuous below size 3


def test_condition_size_witness():
    rep = check_condition(construct_g3(1, 1, 1, 3))
    assert not rep.passed
    assert str(rep.size_witness) == "X{1,2,3}"
    assert rep.connectivity_witness is None
    assert "|N^(X{1,2,3})| < 3" in rep.describe()


def test_condition_connectivity_witness():
    for mode in ("full", "kim"):
        rep = check_condition(HINGE, mode=mode)
        assert not rep.passed
        assert rep.size_witness is None
        assert str(rep.connectivity_witness) == "X{1,2,3}"
        assert "not 2-connected" in rep.describe()


def test_condition_mode_validation():
    with pytest.raises(InputError):
        check_condition(K33, mode="strict")


def test_condition_report_consistency():
    from supercyclic import VertexSet
    with pytest.raises(InputError):
        ConditionReport(True, "full", size_witness=VertexSet.of("X", [1, 2, 3]))
    with pytest.raises(InputError):
        ConditionReport(False, "full")


@given(bigraphs(max_x=4, max_y=5))
@settings(max_examples=200)
def test_condition_matches_bruteforce_and_kim(g):
    full = check_condition(g, mode="full")
    kim = check_condition(g, mode="kim")
    assert full.passed == condition_bruteforce(g)
    # both modes run the same scan: the reports differ only in their label
    assert (full.mode, kim.mode) == ("full", "kim")
    assert kim.passed == full.passed
    assert kim.size_witness == full.size_witness
    assert kim.connectivity_witness == full.connectivity_witness


@given(bigraphs(max_x=5, max_y=6))
@settings(max_examples=200)
def test_condition_witness_is_first_failure_in_walk_order(g):
    for mode in ("full", "kim"):
        rep = check_condition(g, mode=mode)
        want = first_condition_failure(g, mode)
        if want is None:
            assert rep.passed
            continue
        clause, a = want
        witness = rep.size_witness if clause == "size" \
            else rep.connectivity_witness
        assert witness is not None and witness.members == a


@given(bigraphs(min_x=4, max_x=7, max_y=7))
@settings(max_examples=300)
def test_triples_passing_make_every_larger_subset_two_connected(g):
    # the lemma that lets check_condition test 2-connectivity on triples only
    good = {t for t in combinations(g.x_indices(), 3)
            if is_two_connected_bruteforce(g, t,
                                           super_neighborhood_naive(g, t))}
    for size in range(4, g.x_count + 1):
        for a in combinations(g.x_indices(), size):
            if all(t in good for t in combinations(a, 3)):
                nh = super_neighborhood_naive(g, a)
                assert is_two_connected_bruteforce(g, a, nh), a


def test_witness_is_first_failure_at_larger_x():
    # the literal every-A scan of the oracle, past the |X| <= 5 of the
    # hypothesis test above
    rng = random.Random(2006)
    outcomes = Counter()
    for _ in range(40):
        nx, ny = rng.randint(6, 8), rng.randint(6, 12)
        p = rng.uniform(0.4, 0.95)
        g = Bigraph(nx, ny, [(x, y) for x in range(1, nx + 1)
                             for y in range(1, ny + 1) if rng.random() < p])
        rep = check_condition(g, "full")
        want = first_condition_failure(g, "full")
        if want is None:
            assert rep.passed
            outcomes["pass"] += 1
            continue
        clause, a = want
        witness = rep.size_witness if clause == "size" \
            else rep.connectivity_witness
        assert witness is not None and witness.members == a
        outcomes[clause] += 1
    assert outcomes["pass"] and outcomes["conn"] and outcomes["size"]


def _fields_by_combinations(g, size):
    # the level's fields from the definition: |N^(A)| for each A; for a
    # triple also each member's degree in H_T and each pair's common ys
    fields = []
    for a in combinations(g.x_indices(), size):
        twice = _cover(g.x_adj, a)[1]
        fields.append(twice.bit_count())
        if size == 3:
            fields += [(g.x_adj[x] & twice).bit_count() for x in a]
            fields += [(g.x_adj[x] & g.x_adj[z]).bit_count()
                       for x, z in combinations(a, 2)]
    return bytes(fields)


def _pack_fields(level, counts):
    return counts.to_bytes(len(level.masks) * level.stride, "little")


def _assert_pack_counts_match_covers(g):
    for size in range(3, g.x_count + 1):
        level = condition._level(g.x_count, size)
        assert level.masks == tuple(
            mask_of(a) for a in combinations(g.x_indices(), size))
        assert _pack_fields(level, level.tally(g.y_adj)) == \
            _fields_by_combinations(g, size)


@given(bigraphs(max_x=9, max_y=8))
@settings(max_examples=150)
def test_pack_counts_match_covers(g):
    _assert_pack_counts_match_covers(g)


def test_pack_counts_match_covers_on_every_4_x_class(corpus_4_5):
    for g in corpus_4_5:
        _assert_pack_counts_match_covers(g)


def _assert_kept_counts_match_counts_from_scratch(g, toggles):
    # the hunt's repair: the levels scanned so far are kept and retallied
    # per toggled edge; more levels join as later scans reach them
    nx = g.x_count
    cols = list(g.y_adj)
    tallies = []
    condition._first_failure(nx, cols, tallies)
    for x, y in toggles:
        old = cols[y]
        cols[y] ^= 1 << x
        condition._retally(tallies, old, cols[y])
        got = condition._first_failure(nx, cols, tallies)
        assert got == condition._first_failure(nx, cols, [])
        for level, counts in tallies:
            assert counts == level.tally(cols)


@given(bigraphs(min_x=3, max_x=9, min_y=1, max_y=8), st.data())
@settings(max_examples=150, deadline=None)
def test_kept_counts_match_counts_from_scratch(g, data):
    edges = st.tuples(st.integers(1, g.x_count), st.integers(1, g.y_count))
    toggles = data.draw(st.lists(edges, min_size=1, max_size=12))
    _assert_kept_counts_match_counts_from_scratch(g, toggles)


def test_kept_counts_match_counts_from_scratch_on_every_4_x_class(
        corpus_4_5):
    rng = random.Random(45)
    for g in corpus_4_5:
        if g.y_count:
            toggles = [(rng.randint(1, 4), rng.randint(1, g.y_count))
                       for _ in range(6)]
            _assert_kept_counts_match_counts_from_scratch(g, toggles)


def _assert_triple_verdicts_are_based_cycles(g):
    level = condition._level(g.x_count, 3)
    fields = _pack_fields(level, level.tally(g.y_adj))
    floor = bytes((3, 2, 2, 2, 1, 1, 1))
    for t, (i, j, k) in enumerate(combinations(g.x_indices(), 3)):
        passes = all(map(int.__ge__, fields[7 * t:7 * t + 7], floor))
        assert passes == (_triple_cycle(g.x_adj, i, j, k) is not None)


@given(bigraphs(min_x=3, max_x=9, max_y=8))
@settings(max_examples=150)
def test_pack_triple_verdict_is_a_based_cycle(g):
    _assert_triple_verdicts_are_based_cycles(g)


def test_pack_triple_verdict_is_a_based_cycle_on_every_4_x_class(corpus_4_5):
    for g in corpus_4_5:
        _assert_triple_verdicts_are_based_cycles(g)


def test_condition_at_large_x_builds_only_the_triple_order(monkeypatch):
    # the first triple of a |X| = 40 graph fails: the scan must stop there,
    # having built only the level of triples and nothing of size 2^|X|
    monkeypatch.setattr(condition, "_LEVELS", {})
    g = Bigraph(40, HINGE.y_count, list(HINGE.edges()))
    rep = check_condition(g, "kim")
    assert str(rep.connectivity_witness) == "X{1,2,3}"
    assert list(condition._LEVELS) == [(40, 3)]


def test_order_cache_stays_under_its_row_bound(monkeypatch):
    # the pack's levels are held under their row bound
    monkeypatch.setattr(condition, "_LEVELS", {})
    monkeypatch.setattr(condition, "_LEVEL_ROWS", 60)
    assert check_condition(complete_bipartite(8, 8)).passed
    # (8, 3) has 56 rows and is held; (8, 4) has 70, more than the bound, so
    # it is built for the one scan and never held; (8, 5) and (8, 6) would
    # each pass the bound, so each empties the cache before it is held
    assert sorted(condition._LEVELS) == [(8, 6), (8, 7), (8, 8)]
    assert sum(len(level.masks)
               for level in condition._LEVELS.values()) <= 60


def test_order_cache_keeps_small_orders_across_x_sizes(monkeypatch):
    # a Y-minimality scan checks induced subgraphs whose |X| changes from
    # one subset to the next; their levels stay held, not rebuilt per switch
    monkeypatch.setattr(condition, "_LEVELS", {})
    for n in (6, 4, 5, 6):
        assert check_condition(complete_bipartite(n, n)).passed
    assert sorted(condition._LEVELS) == \
        [(n, size) for n in (4, 5, 6) for size in range(3, n + 1)]


def test_walk_is_the_same_whether_orders_are_held_or_generated(monkeypatch):
    rng = random.Random(1414)
    graphs = [random_bigraph(nx, rng.randint(nx - 1, nx + 2), 2,
                             rng.randrange(1 << 30))
              for nx in (6, 7, 8) for _ in range(10)]

    def outcomes():
        return [(check_condition(g).describe(), min_deficiency(g),
                 is_super_cyclic(g)) for g in graphs]

    held = outcomes()
    monkeypatch.setattr(condition, "_LEVELS", {})
    monkeypatch.setattr(condition, "_LEVEL_ROWS", 0)
    assert outcomes() == held
    assert condition._LEVELS == {}


def test_level_memo_stays_under_its_byte_bound(monkeypatch):
    # a level empties its memo of served columns once it holds more than
    # _MEMO_BYTES of fields, and its counts do not change
    monkeypatch.setattr(condition, "_LEVELS", {})
    monkeypatch.setattr(condition, "_MEMO_BYTES", 7 * 35 * 4)
    g = random_bigraph(7, 12, 2, 77)
    # room for 4, then the one column that finds the memo full
    bound = 4 + 1
    assert len(set(g.y_adj)) > bound
    level = condition._level(7, 3)
    want = _fields_by_combinations(g, 3)
    for _ in range(3):
        assert _pack_fields(level, level.tally(g.y_adj)) == want
        assert len(level) <= bound


def test_condition_runs_no_block_search(monkeypatch, corpus_4_5):
    def refuse(adj):
        raise AssertionError("check_condition reached bigraph._blocks")

    monkeypatch.setattr(supercyclic.bigraph, "_blocks", refuse)
    for g in corpus_4_5:
        check_condition(g, "full")


def test_condition_necessary_for_super_cyclicity(corpus_3_5):
    # over every isomorphism class with |X| = 3, |Y| <= 5
    for g in corpus_3_5:
        if is_super_cyclic(g).passed and g.x_count >= 3:
            assert check_condition(g).passed


def test_min_deficiency_frozen():
    assert min_deficiency(K33) == (0, K33.x_full)
    d, a = min_deficiency(construct_g3(1, 1, 1, 3))
    assert d == -1 and str(a) == "X{1,2,3}"
    d, a = min_deficiency(complete_bipartite(3, 7))
    assert d == 4 and str(a) == "X{1,2,3}"
    # taking all of X beats every triple here: |N^(X)| - 4 = -1
    d, a = min_deficiency(complete_bipartite(4, 3))
    assert d == -1 and str(a) == "X{1,2,3,4}"
    # two disjoint 4-rings: every mixed triple attains -1, ties break
    # to the smallest subset and then lexicographically
    rings = Bigraph(4, 4, [(1, 1), (2, 1), (1, 2), (2, 2),
                           (3, 3), (4, 3), (3, 4), (4, 4)])
    d, a = min_deficiency(rings)
    assert d == -1 and str(a) == "X{1,2,3}"


def test_min_deficiency_requires_three_xs():
    with pytest.raises(InputError):
        min_deficiency(complete_bipartite(2, 5))


@given(bigraphs(min_x=3, max_x=5, max_y=5))
def test_min_deficiency_brackets_condition(g):
    d, a = min_deficiency(g)
    rep = check_condition(g)
    if d < 0:
        assert not rep.passed
    if rep.passed:
        assert d >= 0
    # the witness really attains the reported deficiency
    from oracles import super_neighborhood_naive
    assert len(super_neighborhood_naive(g, a.members)) - len(a) == d


@given(bigraphs(min_x=3, max_x=6, max_y=6))
def test_min_deficiency_is_first_minimum_in_walk_order(g):
    d, a = min_deficiency(g)
    assert (d, a.members) == min_deficiency_bruteforce(g)


@given(bigraphs(min_x=3, max_x=6, max_y=6), st.data())
@settings(max_examples=300, deadline=None)
def test_an_added_edge_never_moves_the_first_failure_earlier(g, data):
    # on the literal every-A scan: each N^(A) only grows, and an edge or a
    # y with two neighbors in A keeps G[A + N^(A)] 2-connected
    missing = [(x, y) for x in g.x_indices() for y in g.y_indices()
               if not g.has_edge(x, y)]
    assume(missing)
    x, y = data.draw(st.sampled_from(missing))
    h = g.with_edge(x, y)
    before = first_condition_failure(g, "full")
    after = first_condition_failure(h, "full")
    if before is None:
        assert after is None
    elif after is not None:
        assert (len(after[1]), after[1]) >= (len(before[1]), before[1])
    # g's kept counts, retallied for the edge, name h's first failure
    tallies = []
    condition._first_failure(g.x_count, g.y_adj, tallies)
    condition._retally(tallies, g.y_adj[y], h.y_adj[y])
    kind, amask = condition._first_failure(h.x_count, h.y_adj, tallies)
    if after is None:
        assert not kind
    else:
        assert (kind == "size", amask) == \
            (after[0] == "size", mask_of(after[1]))


def test_degree_hypothesis_frozen():
    t = degree_hypothesis(complete_bipartite(4, 6))
    assert (t.meets_half_bound, t.meets_third_bound, t.meets_quarter_bound) == \
        (True, True, True)
    # delta 4 with m = 7: the quarter bound is 4*4 >= 17, off by one
    t = degree_hypothesis(Bigraph(4, 7, [(x, y) for x in range(1, 5)
                                         for y in range(1, 5)]))
    assert t.min_x_degree == 4
    assert not t.meets_quarter_bound
    t = degree_hypothesis(complete_bipartite(3, 4))
    assert t.min_x_degree == 4
    assert t.meets_half_bound and t.meets_third_bound and t.meets_quarter_bound
    t = degree_hypothesis(Bigraph(3, 4, [(1, 1)]))
    assert not (t.meets_half_bound or t.meets_third_bound or
                t.meets_quarter_bound)


def test_degree_hypothesis_integer_boundaries():
    # delta = n = 4, m = 6: 2*4 >= 8 exactly
    g = Bigraph(4, 6, [(x, y) for x in range(1, 5) for y in range(1, 5)])
    assert degree_hypothesis(g).meets_half_bound
    # delta 4, m 7: 2*4 >= 9 fails by one
    g2 = g.with_edge(1, 5).with_edge(2, 5).with_edge(3, 5).with_edge(4, 5)
    g2 = Bigraph(4, 7, list(g2.edges()))
    assert degree_hypothesis(g2).min_x_degree == 5
    assert degree_hypothesis(g2).meets_half_bound  # 10 >= 9
