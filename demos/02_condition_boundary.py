"""The neighborhood condition and its boundary.

For every A subset of X with |A| >= 3 the condition asks two things: the
super-neighborhood N^(A) (ys with two neighbors inside A) is at least as
big as A, and the graph induced on A union N^(A) is 2-connected.  Every
super-cyclic graph satisfies it; the interesting direction is how sharp
that is.
"""

import argparse

from supercyclic import (Bigraph, check_condition, complete_bipartite,
                         construct_g3, degree_hypothesis, enumerate_bigraphs,
                         is_super_cyclic, min_deficiency, random_bigraph)


def report(g, label):
    rep = check_condition(g)
    print(f"{label}: {rep.describe()}")
    if g.x_count >= 3:
        d, a = min_deficiency(g)
        print(f"   deficiency min |N^(A)|-|A| = {d} at {a}")
    print(f"   {degree_hypothesis(g).describe()}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    report(complete_bipartite(3, 3), "K(3,3)")
    report(construct_g3(1, 1, 1, 3), "three parts, delta=3")

    # x1 is a cut vertex of the induced graph: size clause alone is not enough
    hinge = Bigraph(3, 4, [(1, 1), (2, 1), (1, 2), (2, 2),
                           (1, 3), (3, 3), (1, 4), (3, 4)])
    report(hinge, "two rings hinged at x1")

    # the condition is necessary: no super-cyclic class may fail it
    print("\nscanning every class with |X|=4, |Y|<=5:")
    classes = passing = cyclic = cyclic_failing = 0
    for g in enumerate_bigraphs(4, 5):
        cond = check_condition(g).passed
        sc = is_super_cyclic(g).passed
        classes += 1
        passing += cond
        cyclic += sc
        cyclic_failing += sc and not cond
    print(f"   {classes} classes, {passing} pass the condition, "
          f"{cyclic} are super-cyclic")
    print(f"   super-cyclic yet failing the condition: {cyclic_failing}")

    print("\nrandom graphs living exactly on the boundary (deficiency 0):")
    found = 0
    seed = args.seed
    while found < 3:
        g = random_bigraph(4, 5, 2, seed)
        seed += 1
        if not check_condition(g).passed:
            continue
        d, a = min_deficiency(g)
        if d == 0:
            found += 1
            print(f"   seed {seed - 1}: deficiency 0 at {a}, "
                  f"{g.edge_count} edges")


if __name__ == "__main__":
    main()
