"""Exact-arithmetic invariants and maximum-length gradations of nilpotent Leibniz algebras."""

from .core import (
    MAX_DIM,
    Algebra,
    LeibnizReport,
    algebra_from_dict,
    algebra_from_json,
    algebra_to_json,
    bracket,
    change_of_basis,
    check_leibniz,
    is_lie,
    square_ideal,
)
from .catalog import FamilySpec, generator_roles, list_families, make, known_witness
from .errors import (
    DegenerateSampleError,
    InvalidInputError,
    NilalgError,
    NotNilpotentError,
)
from .gradations import (
    DegreeAssignment,
    GeneratorRoles,
    GradationReport,
    MAXIMUM_LENGTH,
    NO_GRADATION_FOUND,
    NOT_MAXIMUM_LENGTH,
    NaturalGradation,
    diagonal_search,
    graded_fingerprint,
    natural_gradation,
    two_generator_search,
    verify_gradation,
)
from .invariants import (
    CentralSeries,
    DEFAULT_SEED,
    char_seq_at,
    characteristic_sequence,
    is_p_filiform,
    lower_central_series,
    nilindex,
    nilpotent_block_profile,
    right_mult_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra", "LeibnizReport", "FamilySpec", "DegreeAssignment",
    "GeneratorRoles", "GradationReport", "NaturalGradation", "CentralSeries",
    "NilalgError", "InvalidInputError", "NotNilpotentError",
    "DegenerateSampleError", "MAXIMUM_LENGTH", "NOT_MAXIMUM_LENGTH",
    "NO_GRADATION_FOUND", "DEFAULT_SEED", "MAX_DIM",
    "algebra_from_dict", "algebra_from_json", "algebra_to_json", "bracket",
    "change_of_basis", "check_leibniz", "is_lie", "square_ideal",
    "generator_roles", "list_families", "make", "known_witness",
    "diagonal_search", "graded_fingerprint",
    "natural_gradation", "two_generator_search", "verify_gradation",
    "char_seq_at", "characteristic_sequence", "is_p_filiform",
    "lower_central_series", "nilindex", "nilpotent_block_profile",
    "right_mult_matrix",
]
