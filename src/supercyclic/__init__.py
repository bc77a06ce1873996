"""Cycle spectra of bipartite graphs with an ordered bipartition.

The X side plays the role of hypergraph vertices and the Y side the role of
hyperedges; a cycle "based on" an X-subset A visits exactly A on the X side.
The library decides based-cycle existence, the super-cyclicity hierarchy and
its necessary neighborhood condition, classifies would-be minimal
counterexamples, and reruns the supporting theorems exhaustively at desk
scale.

Every name in ``__all__`` is loaded on first use (PEP 562): importing the
package imports none of its modules, and ``supercyclic.name`` or
``from supercyclic import name`` imports only the module that defines
``name``, then keeps the value here.  So a CLI call, and each ``--jobs``
worker, compiles and imports only the modules its command runs.
"""

from importlib import import_module

__version__ = "0.1.0"

__all__ = [
    "BaseCycle", "Bigraph", "CapacityError", "CheckReport",
    "CheckpointConfig", "ConditionReport", "CrossingReport",
    "DegreeThresholds", "Fan", "FormatError", "HuntConfig", "Hypergraph",
    "InducedSubgraph", "InputError", "PreconditionError", "SuccessorMaps",
    "SupercyclicError", "VerificationReport", "VertexSet", "Violation",
    "audit_critical_properties", "check_condition", "complete_bipartite",
    "construct_g3", "crossing_bound_holds", "crossings", "degree_hypothesis",
    "enumerate_bigraphs", "expected_class_count", "find_based_cycle",
    "find_critical_core", "hunt_counterexample", "hypergraph_of",
    "incidence_graph", "induced_with_superneighborhood", "is_critical",
    "is_k_cyclic", "is_saturated", "is_super_cyclic", "is_super_pancyclic",
    "is_two_connected", "is_y_minimal", "iter_records",
    "longest_cycle_length", "max_fan", "min_deficiency", "parse_bigraph",
    "parse_graph", "parse_hypergraph", "random_bigraph",
    "reduce_to_superneighborhood", "serialize", "successor_maps",
    "super_neighborhood", "verify_degree_theorem", "verify_k_cyclic",
    "write_stream",
]

#: the module that defines each public name
_EXPORTS = {name: module for module, names in (
    ("bigraph", "Bigraph Hypergraph InducedSubgraph VertexSet hypergraph_of "
                "incidence_graph induced_with_superneighborhood "
                "is_two_connected reduce_to_superneighborhood "
                "super_neighborhood"),
    ("classify", "find_critical_core is_critical is_saturated is_y_minimal"),
    ("condition", "ConditionReport DegreeThresholds check_condition "
                  "degree_hypothesis min_deficiency"),
    ("cycles", "BaseCycle find_based_cycle is_k_cyclic is_super_cyclic "
               "is_super_pancyclic longest_cycle_length"),
    ("errors", "CapacityError FormatError InputError PreconditionError "
               "SupercyclicError"),
    ("formats", "iter_records parse_bigraph parse_graph parse_hypergraph "
                "serialize write_stream"),
    ("generators", "complete_bipartite construct_g3 enumerate_bigraphs "
                   "expected_class_count random_bigraph"),
    ("reports", "CheckReport"),
    ("structure", "CrossingReport Fan SuccessorMaps crossing_bound_holds "
                  "crossings max_fan successor_maps"),
    ("verifier", "HuntConfig VerificationReport Violation "
                 "audit_critical_properties hunt_counterexample "
                 "verify_degree_theorem verify_k_cyclic"),
    ("verifier_checkpoint", "CheckpointConfig"),
) for name in names.split()}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
