"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; each
test also asserts, so plain ``pytest`` enforces the same gates.
"""

import random
import time
from itertools import combinations

from supercyclic import (
    HuntConfig,
    VertexSet,
    check_condition,
    construct_g3,
    crossing_bound_holds,
    enumerate_bigraphs,
    expected_class_count,
    find_based_cycle,
    hunt_counterexample,
    longest_cycle_length,
    max_fan,
    random_bigraph,
    super_neighborhood,
    verify_degree_theorem,
    verify_k_cyclic,
)
from supercyclic.bigraph import SIDE_X, SIDE_Y

from oracles import (
    burnside_class_count,
    bigraph_to_columns,
    condition_bruteforce,
    cycle_survey,
    min_vertex_cut_bruteforce,
    orbit_canonical,
    orbit_representatives,
    random_cycle_instance,
)


def record(num: int, ok: bool, desc: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_three_part_longest_cycles():
    t0 = time.perf_counter()
    a = longest_cycle_length(construct_g3(2, 1, 1, 3))
    b = longest_cycle_length(construct_g3(2, 2, 1, 4))
    dt = time.perf_counter() - t0
    ok = a == 6 and b == 8 and dt < 1.0
    record(1, ok, f"longest cycles 2(n1+n2): got {a} and {b} "
                  f"(want 6, 8) in {dt:.3f}s")


def test_criterion_02_three_part_condition_failure():
    t0 = time.perf_counter()
    g = construct_g3(1, 1, 1, 3)
    rep = check_condition(g)
    full_x = VertexSet.of(SIDE_X, [1, 2, 3])
    nh = len(super_neighborhood(g, full_x))
    dt = time.perf_counter() - t0
    ok = (not rep.passed and rep.size_witness == full_x and nh == 2
          and dt < 1.0)
    record(2, ok, f"size witness {rep.size_witness} with |N^(A)| = {nh} "
                  f"(want X{{1,2,3}} with 2) in {dt:.3f}s")


def test_criterion_03_k_cyclic_at_three():
    t0 = time.perf_counter()
    rep = verify_k_cyclic(3, 5, 3)
    dt = time.perf_counter() - t0
    want = sum(burnside_class_count(3, k) for k in range(6))
    ok = (rep.confirmed and rep.graphs_examined == want and dt < 60.0)
    record(3, ok, f"{rep.graphs_examined} classes examined "
                  f"(independent count {want}), "
                  f"{len(rep.violations)} violations in {dt:.1f}s")


def test_criterion_04_k_cyclic_at_four():
    t0 = time.perf_counter()
    rep4 = verify_k_cyclic(4, 5, 4)
    rep3 = verify_k_cyclic(4, 5, 3)
    dt = time.perf_counter() - t0
    want = sum(burnside_class_count(4, k) for k in range(6))
    ok = (rep4.confirmed and rep3.confirmed
          and rep4.graphs_examined == want
          and rep3.graphs_examined == want and dt < 600.0)
    record(4, ok, f"k=4 and k=3 over {rep4.graphs_examined} classes, "
                  f"{len(rep4.violations) + len(rep3.violations)} violations "
                  f"in {dt:.1f}s combined")


def test_criterion_05_degree_theorem():
    t0 = time.perf_counter()
    rep = verify_degree_theorem(4, 6)
    dt = time.perf_counter() - t0
    want = sum(burnside_class_count(4, k) for k in range(7))
    ok = (rep.confirmed and rep.graphs_examined == want
          and rep.graphs_checked >= 1 and dt < 1800.0)
    record(5, ok, f"{rep.graphs_examined} classes examined "
                  f"({rep.graphs_checked} met both hypotheses), "
                  f"{len(rep.violations)} violations in {dt:.1f}s")


def test_criterion_06_kim_equivalence():
    # both modes run the triples-only scan, so the referee is the literal
    # every-A condition of the oracle
    disagreements = 0
    seen = 0
    for nx, ny_max in [(3, 5), (4, 5), (4, 6)]:
        for g in enumerate_bigraphs(nx, ny_max):
            seen += 1
            if check_condition(g, "kim").passed != condition_bruteforce(g):
                disagreements += 1
    rng = random.Random(1006)
    for _ in range(10_000):
        g = random_bigraph(rng.randint(0, 6), rng.randint(0, 8), 0,
                           rng.randrange(1 << 30))
        seen += 1
        if check_condition(g, "kim").passed != condition_bruteforce(g):
            disagreements += 1
    ok = disagreements == 0
    record(6, ok, f"kim mode and the brute-force condition agree on {seen} "
                  f"graphs ({disagreements} disagreements)")


def test_criterion_07_based_cycle_oracle():
    rng = random.Random(1007)
    bad = 0
    subsets = 0
    for _ in range(1_000):
        nx = rng.randint(3, 5)
        g = random_bigraph(nx, rng.randint(0, 6), 0, rng.randrange(1 << 30))
        xsets, _ = cycle_survey(g)
        for size in range(3, nx + 1):
            for combo in combinations(range(1, nx + 1), size):
                subsets += 1
                found = find_based_cycle(
                    g, VertexSet.of(SIDE_X, combo)) is not None
                if found != (frozenset(combo) in xsets):
                    bad += 1
    ok = bad == 0
    record(7, ok, f"existence agreed with the all-cycle oracle on "
                  f"{subsets} subsets across 1000 graphs ({bad} mismatches)")


def test_criterion_08_menger_agreement():
    rng = random.Random(1008)
    bad = 0
    for _ in range(500):
        g, c, root = random_cycle_instance(rng, max_l=4, max_extra_x=2,
                                           max_extra_y=2)
        assert g.x_count + g.y_count <= 12
        cyc = {(SIDE_X, w) for w in c.xs} | {(SIDE_Y, w) for w in c.ys}
        if max_fan(g, root, c).size != \
                min_vertex_cut_bruteforce(g, root, cyc):
            bad += 1
    ok = bad == 0
    record(8, ok, f"fan size equaled the brute-force vertex cut on 500 "
                  f"instances ({bad} mismatches)")


def test_criterion_09_crossing_bound_fuzz():
    rng = random.Random(1009)
    bad = 0
    for _ in range(10_000):
        g, c, _root = random_cycle_instance(rng)
        u = rng.choice(c.xs)
        v = rng.choice([x for x in c.xs if x != u])
        if not crossing_bound_holds(g, c, u, v):
            bad += 1
    ok = bad == 0
    record(9, ok, f"degree-sum bound held on 10000 random "
                  f"(graph, cycle, pair) instances ({bad} failures)")


def test_criterion_10_hunts_come_back_empty():
    reports = [hunt_counterexample(HuntConfig(3, 5)) for _ in range(2)]
    reports += [hunt_counterexample(HuntConfig(4, 5)) for _ in range(2)]
    ok = (all(r.confirmed for r in reports)
          and reports[0].to_machine() == reports[1].to_machine()
          and reports[2].to_machine() == reports[3].to_machine()
          and reports[0].graphs_examined == 331
          and reports[2].graphs_examined == 1485)
    record(10, ok, f"exhaustive hunts at (3,5) and (4,5) found nothing "
                   f"({reports[0].graphs_examined} and "
                   f"{reports[2].graphs_examined} classes), reruns "
                   f"byte-identical")


def test_criterion_11_enumeration_vs_orbit_oracle():
    two_two = [g for g in enumerate_bigraphs(2, 2) if g.y_count == 2]
    want22 = orbit_representatives(2, 2)
    canon22 = {orbit_canonical(2, bigraph_to_columns(g)) for g in two_two}
    three_one = list(enumerate_bigraphs(3, 1))
    by_stratum = {0: [g for g in three_one if g.y_count == 0],
                  1: [g for g in three_one if g.y_count == 1]}
    want30 = orbit_representatives(3, 0)
    want31 = orbit_representatives(3, 1)
    canon31 = {orbit_canonical(3, bigraph_to_columns(g))
               for g in by_stratum[1]}
    ok = (len(two_two) == len(want22) == 7
          and canon22 == {orbit_canonical(2, c) for c in want22}
          and len(by_stratum[0]) == len(want30) == 1
          and len(by_stratum[1]) == len(want31) == 4
          and canon31 == {orbit_canonical(3, c) for c in want31})
    record(11, ok, f"(2,2) stratum has {len(two_two)} classes (want 7); "
                   f"(3,1) strata sizes "
                   f"{[len(by_stratum[0]), len(by_stratum[1])]} match the "
                   f"orbit oracle exactly")


def test_criterion_12_degree_theorem_at_the_cap():
    # the walk cuts every class with an X-degree below 6, which the quarter
    # bound rules out at |X| = 6; the report still counts every class
    t0 = time.perf_counter()
    rep = verify_degree_theorem(6, 8)
    dt = time.perf_counter() - t0
    want = expected_class_count(6, 8)
    ok = (rep.confirmed and rep.graphs_examined == want == 19_682_444
          and rep.graphs_checked == 1_387 and dt < 10.0)
    record(12, ok, f"(6, <=8): {rep.graphs_examined} classes covered "
                   f"(Burnside count {want}), {rep.graphs_checked} met both "
                   f"hypotheses, {len(rep.violations)} violations "
                   f"in {dt:.1f}s")


def test_criterion_13_k_cyclic_at_the_cap():
    # the walk cuts every subtree whose classes all fail the condition;
    # the report still counts every class, and checks the same 7,460
    t0 = time.perf_counter()
    rep = verify_k_cyclic(6, 6, 3)
    dt = time.perf_counter() - t0
    want = expected_class_count(6, 6)
    ok = (rep.confirmed and rep.graphs_examined == want == 283_880
          and rep.graphs_checked == 7_460 and dt < 10.0)
    record(13, ok, f"(6, <=6), k=3: {rep.graphs_examined} classes covered "
                   f"(Burnside count {want}), {rep.graphs_checked} met the "
                   f"condition, {len(rep.violations)} violations "
                   f"in {dt:.1f}s")
