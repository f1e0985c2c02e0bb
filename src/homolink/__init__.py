"""Invariants, classification and monodromy data of homogeneous braid closures.

A braid word in which every generator keeps one sign closes to a fibred
link whose main invariants can be read off, or recursed out of, the word
itself. This package computes them along independent routes (skein
recursion, Seifert matrices, Kauffman bracket, Burau determinants) and
cross-checks the routes against each other, then uses the invariants to
enumerate and classify all homogeneous links of small degree or genus.
"""

from .errors import (BraidSyntaxError, CapExceededError,
                     DisconnectedWordError, InhomogeneousWordError,
                     TableDefectError)
from .polynomials import (ConwayPolynomial, LaurentPolynomial,
                          conway_to_laurent, equal_up_to_unit,
                          polynomial_from_json)
from .words import (BraidWord, component_count, is_homogeneous,
                    normalize_nonweak, parse_word, permutation, shift,
                    split_factors, weak_indices, word_from_json, word_to_json)
from .skein import (SkeinStep, complexity, conway_skein, degree_and_leading,
                    reduction_step)
from .seifert import (BraidedSurface, SeifertMatrix, alexander_from_seifert,
                      build_surface, conway_from_seifert, decompose_murasugi,
                      knot_genus, seifert_matrix)
from .jones import JONES_LENGTH_CAP, jones_kauffman, jones_polynomial
from .burau import alexander_via_burau, unreduced_burau
from .monodromy import (HomologyAction, action_of_word, char_poly,
                        homology_action, matrix_order, monodromy_from_seifert,
                        monodromy_order_bound, twist_sequence)
from .enumeration import (ClassificationReport, LinkClass, LinkSignature,
                          SearchSpace, bound_n, bound_p, class_key, classify,
                          enumerate_words, link_signature, orbit_canonical,
                          report_to_csv, report_to_json, symmetry_reduce,
                          words_with_counts)
from .reference import (ReferenceEntry, entry_signature, load_reference_table,
                        verify_entry, verify_table, write_table)

__version__ = "0.1.0"

__all__ = [
    "BraidSyntaxError", "CapExceededError", "DisconnectedWordError",
    "InhomogeneousWordError", "TableDefectError",
    "ConwayPolynomial", "LaurentPolynomial", "conway_to_laurent",
    "equal_up_to_unit", "polynomial_from_json",
    "BraidWord", "component_count", "is_homogeneous", "normalize_nonweak",
    "parse_word", "permutation", "shift", "split_factors", "weak_indices",
    "word_from_json", "word_to_json",
    "SkeinStep", "complexity", "conway_skein", "degree_and_leading",
    "reduction_step",
    "BraidedSurface", "SeifertMatrix", "alexander_from_seifert",
    "build_surface", "conway_from_seifert", "decompose_murasugi",
    "knot_genus", "seifert_matrix",
    "JONES_LENGTH_CAP", "jones_kauffman", "jones_polynomial",
    "alexander_via_burau", "unreduced_burau",
    "HomologyAction", "action_of_word", "char_poly", "homology_action",
    "matrix_order", "monodromy_from_seifert", "monodromy_order_bound",
    "twist_sequence",
    "ClassificationReport", "LinkClass", "LinkSignature", "SearchSpace",
    "bound_n", "bound_p", "class_key", "classify", "enumerate_words",
    "link_signature", "orbit_canonical", "report_to_csv", "report_to_json",
    "symmetry_reduce", "words_with_counts",
    "ReferenceEntry", "entry_signature", "load_reference_table",
    "verify_entry", "verify_table", "write_table",
    "__version__",
]
