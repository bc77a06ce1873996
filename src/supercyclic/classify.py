"""Classification of condition-satisfying graphs that are not super-cyclic.

A graph is *critical* when it satisfies the neighborhood condition, is not
super-cyclic, every Y-vertex has a super-neighborhood certificate
(N^(X) = Y), and every proper X-restriction is super-cyclic.  On top of
criticality sit two refinements:

* saturated: adding any missing edge makes the graph super-cyclic;
* Y-minimal: every proper subgraph satisfying the condition is super-cyclic.

No critical graph is known (exhaustive searches below come up empty), so in
practice these functions classify negatively or raise precondition errors;
they exist so that any future hunt hit gets dissected automatically.
"""

from __future__ import annotations

from .bigraph import (Bigraph, VertexSet, SIDE_Y,
                      induced_with_superneighborhood, super_neighborhood)
from .bitset import full_mask, iter_bits
from .condition import check_condition
from .cycles import find_based_cycle, is_super_cyclic
from .errors import CapacityError, InputError, PreconditionError, SupercyclicError
from .reports import CheckReport

#: exhaustive Y-minimality walks every proper edge subset, 2^|E| of them
YMIN_EDGE_CAP = 20

YMIN_MODES = ("one_deletion", "exhaustive")


def is_critical(g: Bigraph) -> CheckReport:
    """Decide criticality; the detail says which clause broke first."""
    cond = check_condition(g, "full")
    if not cond.passed:
        return CheckReport("critical", False,
                           detail=cond.describe())
    sc = is_super_cyclic(g)
    if sc.passed:
        return CheckReport("critical", False,
                           detail="graph is super-cyclic, no failing subset")
    uncovered = full_mask(g.y_count) & ~super_neighborhood(g, g.x_full).mask
    if uncovered:
        return CheckReport("critical", False,
                           witness=VertexSet(SIDE_Y, uncovered),
                           detail="N^(X) misses the witness ys (degree < 2)")
    # the super-cyclicity witness is minimal, so it is proper exactly when
    # some proper restriction already fails
    assert sc.witness is not None
    if sc.witness.mask != full_mask(g.x_count):
        return CheckReport("critical", False, witness=sc.witness,
                           detail="a proper X-restriction already has no "
                                  "based cycle")
    return CheckReport("critical", True,
                       detail="condition holds, exactly the full base X "
                              "has no cycle, and N^(X) = Y")


def is_saturated(g: Bigraph) -> CheckReport:
    """Does every single missing edge repair super-cyclicity?

    Adding an edge cannot destroy existing cycles, and proper restrictions
    of a critical graph are already super-cyclic, so only the full base X
    needs rechecking per candidate edge.
    """
    crit = is_critical(g)
    if not crit.passed:
        raise PreconditionError(
            "saturation is defined only for critical graphs", report=crit)
    base = g.x_full
    for x in g.x_indices():
        for y in iter_bits(full_mask(g.y_count) & ~g.x_adj[x]):
            if find_based_cycle(g.with_edge(x, y), base) is None:
                return CheckReport(
                    "saturated", False,
                    detail=f"adding edge (x{x}, y{y}) still leaves no "
                           f"cycle based on X")
    return CheckReport("saturated", True)


def is_y_minimal(g: Bigraph, mode: str = "one_deletion") -> CheckReport:
    """Is every proper subgraph satisfying the condition super-cyclic?

    ``one_deletion`` checks only single-edge and single-Y-vertex deletions:
    a failure there is conclusive, a pass is approximate (flagged).
    ``exhaustive`` walks every proper edge subset, taking each induced
    subgraph on the covered vertices; vertex deletions on either side arise
    as uncovered vertices, so X-deletions are included.  Capped at
    2^YMIN_EDGE_CAP subsets.
    """
    if mode not in YMIN_MODES:
        raise InputError(f"mode must be one of {YMIN_MODES}, got {mode!r}")
    if mode == "exhaustive" and g.edge_count > YMIN_EDGE_CAP:
        raise CapacityError(
            f"{g.edge_count} edges exceed the exhaustive cap of "
            f"{YMIN_EDGE_CAP} (2^|E| subgraphs)")
    crit = is_critical(g)
    if not crit.passed:
        raise PreconditionError(
            "Y-minimality is defined only for critical graphs", report=crit)
    if mode == "one_deletion":
        return _y_minimal_one_deletion(g)
    return _y_minimal_exhaustive(g)


def _counterexample_like(sub: Bigraph) -> bool:
    """Does ``sub`` satisfy the condition yet fail super-cyclicity?"""
    return check_condition(sub, "kim").passed and \
        not is_super_cyclic(sub).passed


def _y_minimal_one_deletion(g: Bigraph) -> CheckReport:
    for x, y in sorted(g.edges()):
        if _counterexample_like(g.without_edge(x, y)):
            return CheckReport(
                "y_minimal", False, approximate=True,
                detail=f"deleting edge (x{x}, y{y}) leaves a "
                       f"condition-satisfying non-super-cyclic subgraph")
    full_x = full_mask(g.x_count)
    for j in g.y_indices():
        sub = g.induced(full_x, full_mask(g.y_count) & ~(1 << j)).graph
        if _counterexample_like(sub):
            return CheckReport(
                "y_minimal", False, approximate=True,
                detail=f"deleting y{j} leaves a condition-satisfying "
                       f"non-super-cyclic subgraph")
    return CheckReport("y_minimal", True, approximate=True,
                       detail="one-deletion scan only; deeper subgraphs "
                              "unchecked")


def _y_minimal_exhaustive(g: Bigraph) -> CheckReport:
    edge_list = sorted(g.edges())
    m = len(edge_list)
    for emask in range((1 << m) - 1):
        chosen = [edge_list[i] for i in iter_bits(emask)]
        # hold the subgraph on its covered vertices: uncovered vertices on
        # either side are deletions, which the definition allows
        xm = 0
        ym = 0
        for x, y in chosen:
            xm |= 1 << x
            ym |= 1 << y
        if xm.bit_count() < 3:
            continue  # trivially super-cyclic, never a violation
        sub = Bigraph(g.x_count, g.y_count, chosen).induced(xm, ym).graph
        if _counterexample_like(sub):
            pretty = ",".join(f"(x{x},y{y})" for x, y in chosen)
            return CheckReport(
                "y_minimal", False,
                detail=f"proper edge subset {{{pretty}}} spans a "
                       f"condition-satisfying non-super-cyclic subgraph")
    return CheckReport("y_minimal", True,
                       detail="all proper edge subsets scanned "
                              "(X-vertex deletions included)")


def find_critical_core(g: Bigraph) -> Bigraph | None:
    """Extract a critical subgraph from a condition-satisfying graph.

    Returns None when ``g`` is super-cyclic.  Otherwise takes the minimal
    base A without a cycle and returns the induced graph on A plus N^(A),
    which must come out critical; if it does not, something fundamental is
    wrong and we refuse to return it.
    """
    cond = check_condition(g, "full")
    if not cond.passed:
        raise PreconditionError(
            "core extraction expects the neighborhood condition to hold",
            report=cond)
    sc = is_super_cyclic(g)
    if sc.passed:
        return None
    assert sc.witness is not None
    core = induced_with_superneighborhood(g, sc.witness).graph
    crit = is_critical(core)
    if not crit.passed:
        raise SupercyclicError(
            f"extracted core fails criticality ({crit.detail}); this "
            f"contradicts the minimal-witness argument, investigate")
    return core
