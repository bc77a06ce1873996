import random
from hashlib import sha256
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from supercyclic import (
    BaseCycle,
    Bigraph,
    CapacityError,
    Hypergraph,
    InputError,
    VertexSet,
    complete_bipartite,
    construct_g3,
    enumerate_bigraphs,
    find_based_cycle,
    is_k_cyclic,
    is_super_cyclic,
    is_super_pancyclic,
    longest_cycle_length,
    random_bigraph,
)
from supercyclic import cycles
from supercyclic.bigraph import SIDE_X
from supercyclic.bitset import indices_of
from supercyclic.verifier import _repair_to_boundary

from oracles import (cycle_survey, insertion_exists,
                     is_two_connected_bruteforce, least_based_cycle,
                     longest_cycle_bruteforce, random_cycle_instance,
                     super_neighborhood_naive)
from strategies import bigraphs

C6 = Bigraph(3, 3, [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (1, 3)])
K33 = complete_bipartite(3, 3)


def xset(*xs):
    return VertexSet.of(SIDE_X, xs)


def test_base_cycle_shape():
    c = BaseCycle((1, 2, 3), (1, 2, 3))
    assert c.half_length == 3 and c.length == 6
    assert str(c) == "x1 y1 x2 y2 x3 y3"
    assert c.sequence()[0] == (SIDE_X, 1) and c.sequence()[-1] == ("Y", 3)
    assert str(c.base) == "X{1,2,3}" and str(c.y_set) == "Y{1,2,3}"


def test_base_cycle_validation():
    with pytest.raises(InputError):
        BaseCycle((1, 2), (1,))
    with pytest.raises(InputError):
        BaseCycle((1,), (1,))
    with pytest.raises(InputError):
        BaseCycle((1, 2, 2), (1, 2, 3))
    with pytest.raises(InputError):
        BaseCycle((1, 2, 3), (1, 2, 2))


def test_base_cycle_reverse():
    c = BaseCycle((1, 2, 3), (4, 5, 6))
    r = c.reverse()
    # same anchor, opposite orientation: x1 y6 x3 y5 x2 y4
    assert r == BaseCycle((1, 3, 2), (6, 5, 4))
    assert r.reverse() == c
    ring = Bigraph(3, 6, [(1, 4), (2, 4), (2, 5), (3, 5), (3, 6), (1, 6)])
    c.validate_in(ring)
    r.validate_in(ring)


def test_validate_in_rejects_missing_edge():
    with pytest.raises(InputError):
        BaseCycle((1, 2, 3), (1, 2, 3)).validate_in(C6.without_edge(2, 2))


def test_find_based_cycle_frozen():
    assert find_based_cycle(C6, xset(1, 2, 3)) == BaseCycle((1, 2, 3), (1, 2, 3))
    assert find_based_cycle(K33, xset(1, 2, 3)) == BaseCycle((1, 2, 3), (1, 2, 3))
    assert find_based_cycle(construct_g3(1, 1, 1, 3), xset(1, 2, 3)) is None


def test_find_based_cycle_backtracks():
    # choosing y1 between x1 and x2 dead-ends; the search must recover
    g = Bigraph(3, 3, [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 3)])
    assert find_based_cycle(g, xset(1, 2, 3)) == BaseCycle((1, 2, 3), (2, 3, 1))


def test_find_based_cycle_input_errors():
    with pytest.raises(InputError):
        find_based_cycle(C6, xset(1, 2))
    with pytest.raises(InputError):
        find_based_cycle(C6, xset(1, 2, 4))
    with pytest.raises(InputError):
        find_based_cycle(C6, VertexSet.of("Y", [1, 2, 3]))


def test_is_k_cyclic_frozen():
    assert is_k_cyclic(K33, 3).passed
    rep = is_k_cyclic(construct_g3(2, 1, 1, 3), 3)
    assert not rep.passed
    assert str(rep.witness) == "X{1,3,4}"  # first failing 3-subset in lex order
    with pytest.raises(InputError):
        is_k_cyclic(K33, 2)
    with pytest.raises(InputError):
        is_k_cyclic(K33, 4)


def test_is_super_cyclic_frozen():
    assert is_super_cyclic(K33).passed
    assert is_super_cyclic(C6).passed
    rep = is_super_cyclic(construct_g3(2, 1, 1, 3))
    assert not rep.passed and str(rep.witness) == "X{1,3,4}"
    trivial = is_super_cyclic(complete_bipartite(2, 2))
    assert trivial.passed and "trivial" in trivial.detail


def test_is_super_pancyclic():
    triangle = Hypergraph(3, [{1, 2}, {2, 3}, {1, 3}])
    assert is_super_pancyclic(triangle).passed
    doubled = Hypergraph(3, [{1, 2, 3}, {1, 2, 3}])
    rep = is_super_pancyclic(doubled)
    assert not rep.passed
    assert str(rep.witness) == "X{1,2,3}"
    assert "Berge cycle with base" in rep.detail


def test_longest_cycle_frozen():
    assert longest_cycle_length(C6) == 6
    assert longest_cycle_length(K33) == 6
    assert longest_cycle_length(complete_bipartite(4, 4)) == 8
    assert longest_cycle_length(complete_bipartite(12, 12)) == 24
    # unbalanced: a cycle alternates sides, so the smaller side bounds it
    assert longest_cycle_length(complete_bipartite(6, 8)) == 12
    assert longest_cycle_length(complete_bipartite(7, 8)) == 14
    assert longest_cycle_length(complete_bipartite(7, 9)) == 14
    assert longest_cycle_length(complete_bipartite(5, 12)) == 10
    assert longest_cycle_length(Bigraph(1, 3, [(1, 1), (1, 2), (1, 3)])) == 0
    assert longest_cycle_length(Bigraph(0, 0, [])) == 0
    assert longest_cycle_length(construct_g3(2, 1, 1, 3)) == 6
    assert longest_cycle_length(construct_g3(2, 2, 1, 4)) == 8
    # two 4-rings sharing the cut vertex x1: blocks are searched separately
    hinged = Bigraph(3, 4, [(1, 1), (2, 1), (1, 2), (2, 2),
                            (1, 3), (3, 3), (1, 4), (3, 4)])
    assert longest_cycle_length(hinged) == 4


def test_longest_cycle_frozen_class_digest():
    # the lengths over every class of (4, <=6) and (5, <=4), taken before
    # the block search moved onto whole-graph masks
    lengths = bytes(longest_cycle_length(g)
                    for nx, ny_max in ((4, 6), (5, 4))
                    for g in enumerate_bigraphs(nx, ny_max))
    assert len(lengths) == 6019
    assert sha256(lengths).hexdigest() == (
        "a056cb06ec665435390a67c540104ca30805bd0bf1f86dbf14814dc8383054b9")


def test_longest_cycle_capacity():
    with pytest.raises(CapacityError):
        longest_cycle_length(complete_bipartite(13, 13))
    # degree-one vertices are not eligible, so a big star is still fine
    many_leaves = Bigraph(2, 40, [(1, 1), (2, 1)] +
                          [(1, y) for y in range(2, 41)])
    assert longest_cycle_length(many_leaves) == 0


@given(bigraphs(max_x=4, max_y=4))
@settings(max_examples=150)
def test_longest_cycle_matches_bruteforce(g):
    assert longest_cycle_length(g) == longest_cycle_bruteforce(g)


def test_longest_cycle_matches_bruteforce_on_every_class_of_5_5():
    for g in enumerate_bigraphs(5, 5):
        assert longest_cycle_length(g) == longest_cycle_bruteforce(g), g


def _theta(paths):
    """``paths`` internally disjoint paths x1 y_i x_i y1 of length 3,
    i = 2..paths + 1, between x1 and y1: every cycle uses two of them."""
    ends = range(2, paths + 2)
    return Bigraph(paths + 1, paths + 1,
                   [(1, i) for i in ends] + [(i, i) for i in ends] +
                   [(i, 1) for i in ends])


def test_longest_cycle_frozen_slow_families():
    # frozen from the anchored block DFS, which took several seconds on
    # each random graph; the theta has 12 X-vertices in one block, and
    # every cycle is based on x1 and two others
    assert longest_cycle_length(_theta(11)) == 6
    for seed in (37, 52, 94):
        assert longest_cycle_length(random_bigraph(12, 12, 3, seed)) == 24


def test_based_cycle_core_matches_the_survey():
    # every X-subset of size >= 2 carries a cycle iff the all-cycle survey
    # saw one based on it; on a pair, a 4-cycle through two shared ys
    for nx, ny_max in ((4, 4), (3, 5)):
        for g in enumerate_bigraphs(nx, ny_max):
            survey = cycle_survey(g)[0]
            for size in range(2, nx + 1):
                for a in combinations(range(1, nx + 1), size):
                    found = cycles._based_cycle(g.x_adj, _mask(a))
                    assert (found is not None) == (frozenset(a) in survey)
                    if found is None:
                        continue
                    xs, ys = found
                    BaseCycle(xs, ys).validate_in(g)
                    assert xs[0] == a[0] and sorted(xs) == list(a)
                    if size == 2:  # the two least shared ys
                        shared = g.x_adj[a[0]] & g.x_adj[a[1]]
                        assert ys == indices_of(shared)[:2]


@given(bigraphs(min_x=3, max_x=5, max_y=5))
@settings(max_examples=150)
def test_found_cycles_are_real(g):
    xsets, _ = cycle_survey(g)
    for size in range(3, g.x_count + 1):
        for combo in combinations(range(1, g.x_count + 1), size):
            a = VertexSet.of(SIDE_X, combo)
            c = find_based_cycle(g, a)
            if c is None:
                assert frozenset(combo) not in xsets
            else:
                c.validate_in(g)
                assert c.base == a
                assert frozenset(combo) in xsets
                c.reverse().validate_in(g)


@given(bigraphs(min_x=3, max_x=5, max_y=5))
@settings(max_examples=100)
def test_found_cycle_is_least_interleaved(g):
    for size in range(3, g.x_count + 1):
        for combo in combinations(range(1, g.x_count + 1), size):
            c = find_based_cycle(g, VertexSet.of(SIDE_X, combo))
            got = None if c is None else (c.xs, c.ys)
            assert got == least_based_cycle(g, combo)


def test_found_cycle_is_least_interleaved_at_six_x():
    # classify runs |X| = 8; the hypothesis runs above stop at |X| = 5
    rng = random.Random(606)
    long_found = 0
    for _ in range(10):
        g = random_bigraph(6, rng.randint(4, 6), rng.randint(2, 4),
                           rng.randrange(1 << 30))
        for size in range(3, 7):
            for combo in combinations(range(1, 7), size):
                c = find_based_cycle(g, VertexSet.of(SIDE_X, combo))
                got = None if c is None else (c.xs, c.ys)
                assert got == least_based_cycle(g, combo)
                long_found += size >= 5 and c is not None
    assert long_found > 0


def _triple_results(g):
    """find_based_cycle, the closed form ``_triple_cycle`` and the oracle
    on every triple of ``g``."""
    for t in combinations(g.x_indices(), 3):
        c = find_based_cycle(g, VertexSet.of(SIDE_X, t))
        closed = cycles._triple_cycle(g.x_adj, *t)
        yield (t, None if c is None else (c.xs, c.ys),
               None if closed is None else closed[:2], least_based_cycle(g, t))


def _check_triples(graphs):
    found = missing = 0
    for g in graphs:
        for t, got, closed, want in _triple_results(g):
            assert got == closed == want, (str(g), t)
            found += got is not None
            missing += got is None
    assert found and missing


def test_triple_cycles_match_oracle_on_every_4_x_class(corpus_4_5):
    # the DFS of find_based_cycle and the closed form of _check_bases
    _check_triples(corpus_4_5)


def test_triple_cycles_match_oracle_on_seeded_graphs():
    rng = random.Random(312)
    graphs = []
    for _ in range(24):
        nx = rng.randint(6, 8)
        graphs.append(random_bigraph(nx, rng.randint(3, 8), rng.randint(1, 3),
                                     rng.randrange(1 << 30)))
    _check_triples(graphs)


@given(bigraphs(min_x=3, max_x=6, max_y=6))
@settings(max_examples=200)
def test_triple_lemma(g):
    # T carries a based cycle iff |N^(T)| >= 3 and G[T + N^(T)] is
    # 2-connected (proof in the cycles module docstring)
    for t, got, closed, want in _triple_results(g):
        nh = super_neighborhood_naive(g, t)
        lemma = len(nh) >= 3 and is_two_connected_bruteforce(g, t, nh)
        assert got == closed == want
        assert (got is not None) == lemma, t


@given(bigraphs(min_x=3, max_x=5, max_y=5))
@settings(max_examples=100)
def test_k_cyclic_witness_is_first_missing_k_subset(g):
    xsets, _ = cycle_survey(g)
    for k in range(3, g.x_count + 1):
        missing = [c for c in combinations(range(1, g.x_count + 1), k)
                   if frozenset(c) not in xsets]
        rep = is_k_cyclic(g, k)
        if missing:
            assert not rep.passed and rep.witness.members == missing[0]
        else:
            assert rep.passed and rep.witness is None


def test_seeded_sweep_against_oracle():
    # a denser deterministic sweep than the hypothesis run above
    rng = random.Random(2024)
    for _ in range(120):
        nx = rng.randint(3, 5)
        ny = rng.randint(0, 6)
        g = random_bigraph(nx, ny, 0, rng.randrange(1 << 30))
        xsets, _ = cycle_survey(g)
        sc = is_super_cyclic(g)
        missing = [c for size in range(3, nx + 1)
                   for c in combinations(range(1, nx + 1), size)
                   if frozenset(c) not in xsets]
        if missing:
            assert not sc.passed
            assert sc.witness.members == min(missing, key=lambda c: (len(c), c))
        else:
            assert sc.passed
            # super-cyclic is inherited by every uniform size
            for k in range(3, nx + 1):
                assert is_k_cyclic(g, k).passed


def _mask(vs):
    return sum(1 << v for v in vs)


def _check_cert(g, cert):
    """A held certificate is a real cycle based on exactly its base, with
    ``used`` the mask of its ys."""
    amask, xs, ys, used = cert
    BaseCycle(xs, ys).validate_in(g)
    assert _mask(xs) == amask and _mask(ys) == used


def _check_insert(g, xs, ys, x):
    """Offer ``x`` to the cycle (xs, ys) of ``g`` through ``cycles._grow``.

    The walk runs on a copy of ``g`` relabelled so that the cycle's xs come
    first, then x, then one isolated X-vertex: x is then the one extension
    whose certificate the walk builds, and the isolated vertex, which no
    cycle takes, ends the walk.  The insertion was refused iff the walk sent
    the base with x to the DFS.
    """
    l = len(xs)
    label = {v: i for i, v in enumerate(sorted(xs), 1)}
    label[x] = l + 1
    h = Bigraph(l + 2, g.y_count,
                [(label[v], y) for v, y in g.edges() if v in label])
    back = {i: v for v, i in label.items()}
    base, top = (1 << l + 1) - 2, 1 << l + 1
    held = [(base, tuple(label[v] for v in xs), ys, _mask(ys))]
    _check_cert(h, held[0])
    searched, grown = [], []
    dfs = cycles.find_based_cycle

    def counted(g, a):
        searched.append(a.mask)
        return dfs(g, a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cycles, "find_based_cycle", counted)
        missing = cycles._grow(h, held, grown)
    inserted = base | top not in searched
    assert inserted == insertion_exists(g, xs, ys, x)
    assert missing == base | (top << 1 if grown else top)
    if grown:
        (cert,) = grown
        assert cert[0] == base | top
        _check_cert(h, cert)
        BaseCycle(tuple(back[v] for v in cert[1]), cert[2]).validate_in(g)
    return inserted


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((0.15, 0.35, 0.6)))
@settings(max_examples=300)
def test_insert_matches_bruteforce_on_planted_cycles(seed, p):
    g, c, x = random_cycle_instance(random.Random(seed), max_l=5,
                                    max_extra_x=3, max_extra_y=4, p=p)
    _check_insert(g, c.xs, c.ys, x)


def test_insert_matches_bruteforce_on_found_cycles():
    # found cycles run in any order over any ys, unlike the planted ones
    rng = random.Random(909)
    inserted = refused = 0
    for _ in range(30):
        nx = rng.randint(4, 6)
        g = random_bigraph(nx, rng.randint(3, 7), rng.randint(2, 3),
                           rng.randrange(1 << 30))
        for size in range(3, nx):
            for combo in combinations(range(1, nx + 1), size):
                c = find_based_cycle(g, VertexSet.of(SIDE_X, combo))
                if c is None:
                    continue
                for x in set(range(1, nx + 1)) - set(combo):
                    if _check_insert(g, c.xs, c.ys, x):
                        inserted += 1
                    else:
                        refused += 1
    assert inserted and refused


def _survey_report(g):
    """is_super_cyclic's verdict, witness and detail from the all-cycle
    survey: the first missing base by size, then lex order."""
    xsets, _ = cycle_survey(g)
    nx = g.x_count
    missing = next((c for size in range(3, nx + 1)
                    for c in combinations(range(1, nx + 1), size)
                    if frozenset(c) not in xsets), None)
    if missing is None:
        return True, None, "trivial: |X| <= 2" if nx <= 2 else ""
    a = VertexSet.of(SIDE_X, missing)
    return False, a, f"no cycle based on {a}"


def _report(g):
    rep = is_super_cyclic(g)
    return rep.passed, rep.witness, rep.detail


def test_super_cyclic_matches_survey_on_every_4_x_class(corpus_4_5):
    verdicts = set()
    for g in corpus_4_5:
        want = _survey_report(g)
        assert _report(g) == want, str(g)
        verdicts.add(want[1] and len(want[1]))
    assert verdicts == {None, 3, 4}


def test_super_cyclic_matches_survey_on_seeded_graphs():
    for g in (construct_g3(2, 1, 1, 3), construct_g3(2, 2, 2, 3)):
        assert _report(g) == _survey_report(g)
    assert str(_report(construct_g3(2, 1, 1, 3))[1]) == "X{1,3,4}"
    rng = random.Random(68)
    sizes = set()
    for _ in range(16):
        nx = rng.randint(6, 8)
        ny = rng.randint(nx - 2, nx - 1) if nx == 8 else rng.randint(nx - 1, nx)
        g = random_bigraph(nx, ny, rng.randint(3, 4), rng.randrange(1 << 30))
        want = _survey_report(g)
        assert _report(g) == want, str(g)
        sizes.add(want[1] and len(want[1]))
    # passes, triple witnesses, and witnesses above certified sizes
    assert None in sizes and 3 in sizes and max(s or 0 for s in sizes) >= 6


def _count_dfs(monkeypatch):
    """Count the calls made through the module-global name
    ``cycles.find_based_cycle``, which the benchmark's tracer wraps."""
    calls = []
    dfs = cycles.find_based_cycle

    def counted(g, a):
        calls.append(a.mask)
        return dfs(g, a)

    monkeypatch.setattr(cycles, "find_based_cycle", counted)
    return calls


def test_super_cyclic_runs_no_dfs_on_complete_graphs(monkeypatch):
    # triples are closed-form and every larger base takes an insertion
    calls = _count_dfs(monkeypatch)
    for nx, ny in ((6, 8), (8, 12)):
        assert is_super_cyclic(complete_bipartite(nx, ny)).passed
        assert calls == []
    # one size above triples: is_k_cyclic runs the DFS once per base
    assert is_k_cyclic(complete_bipartite(6, 8), 4).passed
    assert calls == list(map(_mask, combinations(range(1, 7), 4)))
    assert len(calls) == 15


#: x4 goes into no gap of x1 y1 x2 y4 x3 y3, the cycle held for X{1,2,3};
#: the DFS finds x1 y2 x2 y4 x3 y3 x4 y1 for X{1,2,3,4}, and x5 goes into
#: that cycle
REFUSED = Bigraph(5, 5, [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2),
                         (2, 4), (3, 3), (3, 4), (3, 5), (4, 1), (4, 3),
                         (5, 1), (5, 3), (5, 4), (5, 5)])


def test_tracer_reaches_find_based_cycle_by_its_module_name(monkeypatch):
    # the benchmark traces find_based_cycle by this name (README, Tests):
    # it must see the DFS of a refused insertion and of every k-base, k >= 4
    calls = _count_dfs(monkeypatch)
    assert is_super_cyclic(REFUSED).passed
    assert calls == [0b11110]
    calls.clear()
    g = complete_bipartite(5, 5).without_edge(1, 1)
    assert is_k_cyclic(g, 4).passed
    assert calls == list(map(_mask, combinations(range(1, 6), 4)))
    calls.clear()
    assert is_k_cyclic(g, 3).passed and calls == []


def test_dfs_cycle_of_a_refused_base_certifies_its_extension(monkeypatch):
    held = []
    grow = cycles._grow

    def kept(g, certs, grown):
        held.append(list(certs))
        return grow(g, certs, grown)

    monkeypatch.setattr(cycles, "_grow", kept)
    calls = _count_dfs(monkeypatch)
    g = REFUSED
    assert is_super_cyclic(g).passed and calls == [0b11110]
    triple = find_based_cycle(g, xset(1, 2, 3))
    assert held[0][0] == (0b1110, triple.xs, triple.ys, _mask(triple.ys))
    assert not insertion_exists(g, triple.xs, triple.ys, 4)
    found = find_based_cycle(g, xset(1, 2, 3, 4))
    assert (found.xs, found.ys) == ((1, 2, 3, 4), (2, 4, 3, 1))
    # the size-5 walk is offered the DFS cycle, and takes x5 into it
    assert held[1] == [(0b11110, found.xs, found.ys, _mask(found.ys))]
    assert insertion_exists(g, found.xs, found.ys, 5)


def test_first_failing_base_at_the_last_x_is_tested_not_built(monkeypatch):
    # the witness X{1,3,4,5} has max(A) = |X| below the last size; its walk
    # builds a certificate for X{1,2,3,4} only: X{1,2,3,5} and X{1,2,4,5}
    # are inserted and tested, and no larger base extends them
    g = Bigraph(5, 5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3),
                       (2, 4), (2, 5), (3, 3), (3, 4), (4, 3), (4, 5),
                       (5, 4), (5, 5)])
    grown_lists = []
    grow = cycles._grow

    def kept(g, held, grown):
        missing = grow(g, held, grown)
        grown_lists.append(grown)
        return missing

    monkeypatch.setattr(cycles, "_grow", kept)
    calls = _count_dfs(monkeypatch)
    rep = is_super_cyclic(g)
    assert calls == [0b111010]
    ((cert,),) = grown_lists
    assert cert[0] == 0b11110
    _check_cert(g, cert)
    assert (rep.passed, str(rep.witness)) == (False, "X{1,3,4,5}")
    assert _report(g) == _survey_report(g)


@pytest.mark.parametrize("nx", [0, 1, 2])
def test_super_cyclic_is_trivial_below_three_x(nx):
    for g in (Bigraph(nx, 0), complete_bipartite(nx, 3)):
        rep = is_super_cyclic(g)
        assert (rep.passed, rep.witness, rep.detail) == (
            True, None, "trivial: |X| <= 2")


def test_k_cyclic_at_large_x_stops_at_its_first_base(monkeypatch):
    # x4..x40 are isolated, so the first 10-base has no cycle: the walk must
    # answer there, making one mask of the C(40, 10) ~ 8.5e8 of that size
    made = []
    masks = cycles.subset_masks

    def counted(mask, size):
        for amask in masks(mask, size):
            made.append(amask)
            assert len(made) < 100, "the walk made masks past its first base"
            yield amask

    monkeypatch.setattr(cycles, "subset_masks", counted)
    g = Bigraph(40, 3, [(x, y) for x in (1, 2, 3) for y in (1, 2, 3)])
    rep = is_k_cyclic(g, 10)
    assert not rep.passed and rep.witness.mask == (1 << 11) - 2
    assert made == [(1 << 11) - 2]


class _PrefixReferee:
    """``is_super_cyclic`` with its certificates refereed.

    Each size's certificates, from the triples' closed form, an insertion
    or the DFS, are real cycles based on exactly their bases, each with the
    mask of its ys, and they list the bases A with max(A) < |X| in lex
    order.  The walk one size up reaches its bases in lex order, up to the
    first without a cycle, and sends to the DFS exactly those whose max(A)
    no insertion into the certificate of A - max(A) takes.
    """

    def __init__(self, monkeypatch):
        self.g = None
        self.size = 3
        self.refused = 0   # bases above the triples the DFS had to decide
        grow = cycles._grow
        searched = _count_dfs(monkeypatch)

        def refereed(g, held, grown):
            assert g is self.g
            nx = g.x_count
            self._check_held(held, self.size)
            certs = {cert[0]: cert for cert in held}
            searched.clear()
            missing = grow(g, held, grown)
            self.size += 1
            reached = list(map(_mask, combinations(range(1, nx + 1),
                                                   self.size)))
            if missing:
                # the DFS, refereed in the tests above, found no cycle
                reached = reached[:reached.index(missing) + 1]
                assert searched[-1] == missing
            refused = []
            for amask in reached:
                x = amask.bit_length() - 1
                _, xs, ys, _ = certs[amask ^ 1 << x]
                if not insertion_exists(g, xs, ys, x):
                    refused.append(amask)
            assert searched == refused, str(g)
            self.refused += len(refused)
            if grown is not None:
                assert [c[0] for c in grown] == [
                    m for m in reached if m != missing and m.bit_length() <= nx]
                for cert in grown:
                    _check_cert(g, cert)
            return missing

        monkeypatch.setattr(cycles, "_grow", refereed)

    def _check_held(self, held, size):
        nx = self.g.x_count
        assert [c[0] for c in held] == list(map(
            _mask, combinations(range(1, nx), size)))
        for cert in held:
            _check_cert(self.g, cert)

    def report(self, g):
        self.g = g
        self.size = 3
        return is_super_cyclic(g)


def test_prefix_certificates_on_every_4_x_class(monkeypatch, corpus_4_5):
    referee = _PrefixReferee(monkeypatch)
    for g in corpus_4_5:
        referee.report(g)
    assert referee.refused


def test_prefix_certificates_on_seeded_graphs(monkeypatch):
    referee = _PrefixReferee(monkeypatch)
    rng = random.Random(4068)
    for _ in range(40):
        nx = rng.randint(6, 8)
        g = random_bigraph(nx, rng.randint(nx - 1, nx + 2), rng.randint(2, 4),
                           rng.randrange(1 << 30))
        referee.report(g)
    assert referee.refused


def test_prefix_certificates_on_hunt_boundary_graphs(monkeypatch):
    # the hunt's repair leaves graphs of deficiency 0, on which inserting
    # max(A) into the prefix's cycle fails most often
    referee = _PrefixReferee(monkeypatch)
    boundary = 0
    for seed in range(1, 200):
        rng = random.Random(seed)
        ny = rng.randint(3, 8)
        g = _repair_to_boundary(random_bigraph(6, ny, min(2, ny),
                                               rng.randrange(1 << 30)), rng)
        if g is None:
            continue
        referee.report(g)
        boundary += 1
        if boundary == 30:
            break
    assert boundary == 30 and referee.refused
