import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from supercyclic import (
    Bigraph,
    CapacityError,
    InputError,
    PreconditionError,
    VertexSet,
    complete_bipartite,
    construct_g3,
    find_based_cycle,
    find_critical_core,
    is_critical,
    is_saturated,
    is_super_cyclic,
    is_y_minimal,
    random_bigraph,
)
from supercyclic import classify
from supercyclic.bigraph import SIDE_X

from strategies import bigraphs

K33 = complete_bipartite(3, 3)
G3_SMALL = construct_g3(1, 1, 1, 3)


def test_is_critical_rejects_super_cyclic():
    rep = is_critical(K33)
    assert not rep.passed
    assert "super-cyclic" in rep.detail


def test_is_critical_rejects_condition_failure():
    rep = is_critical(G3_SMALL)
    assert not rep.passed
    assert "|N^(X{1,2,3})| < 3" in rep.detail


def test_no_critical_graph_in_the_x3_corpus(corpus_3_5):
    assert not any(is_critical(g).passed for g in corpus_3_5)


@given(bigraphs(min_x=3, max_x=5, max_y=6))
@settings(max_examples=150)
def test_no_critical_graph_found_at_random(g):
    assert not is_critical(g).passed


@given(bigraphs(min_x=3, max_x=4, max_y=4))
@settings(max_examples=150)
def test_proper_restriction_clause_equals_witness_account(g):
    # "every proper restriction has all its based cycles" computed literally,
    # against the shortcut through the minimal super-cyclicity witness
    literal = all(
        find_based_cycle(g, VertexSet.of(SIDE_X, combo)) is not None
        for size in range(3, g.x_count)
        for combo in combinations(range(1, g.x_count + 1), size))
    sc = is_super_cyclic(g)
    shortcut = sc.passed or sc.witness.members == \
        tuple(range(1, g.x_count + 1))
    assert literal == shortcut


def test_saturated_requires_criticality():
    with pytest.raises(PreconditionError) as exc:
        is_saturated(K33)
    assert exc.value.report is not None
    assert exc.value.report.check == "critical"
    with pytest.raises(PreconditionError):
        is_saturated(G3_SMALL)


def test_y_minimal_requires_criticality_and_valid_mode():
    with pytest.raises(InputError):
        is_y_minimal(K33, mode="strict")
    with pytest.raises(PreconditionError):
        is_y_minimal(K33)
    # the edge cap is checked before criticality
    with pytest.raises(CapacityError):
        is_y_minimal(complete_bipartite(5, 5), mode="exhaustive")


def test_deletion_walkers_pass_on_k33():
    # white box: the gate to these walkers never opens for real graphs,
    # so exercise them directly
    one = classify._y_minimal_one_deletion(K33)
    assert one.passed and one.approximate
    exh = classify._y_minimal_exhaustive(K33)
    assert exh.passed and not exh.approximate
    assert "X-vertex deletions included" in exh.detail


def test_one_deletion_walker_reports_first_hit(monkeypatch):
    calls = []

    def fake(sub):
        calls.append(sub)
        return len(calls) >= 3  # third deletion "succeeds"

    monkeypatch.setattr(classify, "_counterexample_like", fake)
    rep = classify._y_minimal_one_deletion(K33)
    assert not rep.passed and rep.approximate
    assert "deleting edge (x1, y3)" in rep.detail  # edges scanned in order


def test_exhaustive_walker_skips_tiny_bases(monkeypatch):
    seen = []

    def fake(sub):
        seen.append(sub)
        return False

    monkeypatch.setattr(classify, "_counterexample_like", fake)
    rep = classify._y_minimal_exhaustive(K33)
    assert rep.passed
    # every candidate it probes keeps at least three X-vertices
    assert seen and all(sub.x_count >= 3 for sub in seen)
    # proper subsets only: the full 9-edge graph is never probed
    assert all(sub.edge_count < 9 for sub in seen)


def test_exhaustive_walker_probes_remapped_subgraphs(monkeypatch):
    seen = []

    def fake(sub):
        seen.append(sub)
        return False

    monkeypatch.setattr(classify, "_counterexample_like", fake)
    assert classify._y_minimal_exhaustive(K33).passed
    # reference: each proper edge subset on >= 3 xs, its covered vertices
    # renumbered 1..k in ascending order on both sides
    edge_list = sorted(K33.edges())
    want = []
    for emask in range((1 << len(edge_list)) - 1):
        chosen = [e for i, e in enumerate(edge_list) if emask >> i & 1]
        xs = sorted({x for x, _ in chosen})
        ys = sorted({y for _, y in chosen})
        if len(xs) < 3:
            continue
        x_new = {old: i for i, old in enumerate(xs, start=1)}
        y_new = {old: i for i, old in enumerate(ys, start=1)}
        want.append(Bigraph(len(xs), len(ys),
                            [(x_new[x], y_new[y]) for x, y in chosen]))
    assert seen == want


def test_find_critical_core_reachable_branches():
    assert find_critical_core(K33) is None
    with pytest.raises(PreconditionError):
        find_critical_core(G3_SMALL)


def test_find_critical_core_on_random_condition_satisfiers():
    rng = random.Random(7)
    hits = 0
    for _ in range(200):
        g = random_bigraph(rng.randint(3, 5), rng.randint(3, 6), 2,
                           rng.randrange(1 << 30))
        from supercyclic import check_condition
        if check_condition(g).passed:
            hits += 1
            assert find_critical_core(g) is None  # theorem: super-cyclic
    assert hits > 20  # the sweep actually exercised the interesting branch
