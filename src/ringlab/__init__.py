"""Finite-ring algebra engine: constructions, radicals, ring-class predicates.

Quick start::

    from ringlab import zmod, matrix_ring, check_property
    R = matrix_ring(zmod(2), 2)
    check_property(R, "nj_symmetric").holds   # False, with a witness triple
"""

from .core import (MAX_ORDER, AxiomReport, FiniteRing, RingError, RingHom,
                   SizeError, StructureError, canonical_fingerprint,
                   mask_from_indices, mask_indices, parse_ring,
                   serialize_ring, verify_axioms)
from .constructions import (Bimodule, DorrohExtension, constant_diagonal,
                            corner, direct_product, dorroh,
                            example_weak_symmetric_component,
                            formal_triangular, hom_bimodule, ideal_bimodule,
                            matrix_ring, matrix_unit, parse_bimodule, quotient,
                            ring_bimodule, serialize_bimodule,
                            subring_generated, trivial_morita,
                            truncated_skew_poly, upper_triangular,
                            zero_bimodule, zmod)
from .invariants import (IdealLattice, NotAnIdealError, RadicalReport,
                         all_left_ideals, all_right_ideals,
                         all_two_sided_ideals, center, idempotents,
                         jacobson_radical, lower_nilradical,
                         maximal_left_ideals, nilpotents, radical_report,
                         units, upper_nilradical)
from .properties import (PROPERTY_CHECKS, InternalCheckError, PropertyVerdict,
                         UnknownPropertyError, all_verdicts, check_property,
                         reverify_witness)
from .harness import (Corpus, Rule, RuleReport, analyze, default_corpus,
                      random_corpus, rule_catalog, run_rules,
                      search_counterexample)
from .cache import ReportCache
from .exprs import ExprError, build, parse

__version__ = "0.1.0"

__all__ = [
    "AxiomReport", "Bimodule", "Corpus", "DorrohExtension", "ExprError",
    "FiniteRing", "IdealLattice", "InternalCheckError", "MAX_ORDER",
    "NotAnIdealError",
    "PROPERTY_CHECKS", "PropertyVerdict", "RadicalReport", "ReportCache",
    "RingError", "RingHom", "Rule", "RuleReport", "SizeError",
    "StructureError", "UnknownPropertyError", "all_left_ideals",
    "all_right_ideals", "all_two_sided_ideals", "all_verdicts", "analyze",
    "build", "canonical_fingerprint", "center", "check_property",
    "constant_diagonal", "corner", "default_corpus", "direct_product",
    "dorroh", "example_weak_symmetric_component", "formal_triangular",
    "hom_bimodule", "ideal_bimodule", "idempotents", "jacobson_radical",
    "lower_nilradical", "mask_from_indices", "mask_indices", "matrix_ring",
    "matrix_unit", "maximal_left_ideals", "nilpotents", "parse",
    "parse_bimodule", "parse_ring", "quotient", "radical_report",
    "random_corpus", "reverify_witness", "ring_bimodule", "rule_catalog",
    "run_rules", "search_counterexample", "serialize_bimodule",
    "serialize_ring", "subring_generated", "trivial_morita",
    "truncated_skew_poly", "units", "upper_nilradical", "upper_triangular",
    "verify_axioms", "zero_bimodule", "zmod",
]
