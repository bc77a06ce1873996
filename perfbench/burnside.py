"""Isomorphism-class counts for the exhaustive workloads, by Burnside's lemma.

A bigraph with |X| = nx and |Y| = k, up to isomorphism on both sides, is a
multiset of k column codes (subsets of X) up to the action of Sym(X) on the
codes.  A permutation sigma fixes a multiset exactly when the multiplicity
is constant on each cycle of sigma acting on the 2^nx codes, so the number
of fixed multisets of size k is the coefficient of t^k in
prod over code-cycles c of 1 / (1 - t^len(c)).  Averaging over Sym(X)
gives the class count.  This is independent of the enumerator it checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations


def _code_cycle_lengths(sigma: tuple[int, ...]) -> list[int]:
    nx = len(sigma)
    image = [0] * (1 << nx)
    for code in range(1 << nx):
        out = 0
        for i in range(nx):
            if code >> i & 1:
                out |= 1 << sigma[i]
        image[code] = out
    seen = [False] * (1 << nx)
    lengths = []
    for start in range(1 << nx):
        if seen[start]:
            continue
        n = 0
        code = start
        while not seen[code]:
            seen[code] = True
            code = image[code]
            n += 1
        lengths.append(n)
    return lengths


def class_counts(nx: int, ny_max: int) -> list[int]:
    """Entry k is the number of classes with |X| = nx and |Y| = k."""
    totals = [Fraction(0)] * (ny_max + 1)
    perms = list(permutations(range(nx)))
    for sigma in perms:
        series = [1] + [0] * ny_max  # power series, truncated at t^ny_max
        for ln in _code_cycle_lengths(sigma):
            # multiply by 1 / (1 - t^ln)
            for k in range(ln, ny_max + 1):
                series[k] += series[k - ln]
        for k in range(ny_max + 1):
            totals[k] += series[k]
    counts = [t / len(perms) for t in totals]
    if any(c.denominator != 1 for c in counts):
        raise ArithmeticError("Burnside average is not an integer")
    return [int(c) for c in counts]


def total_classes(nx: int, ny_max: int) -> int:
    """Classes with |X| = nx and 0 <= |Y| <= ny_max."""
    return sum(class_counts(nx, ny_max))
