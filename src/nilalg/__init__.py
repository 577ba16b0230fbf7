"""Exact-arithmetic invariants and maximum-length gradations of nilpotent Leibniz algebras."""

from .core import (
    Algebra,
    LeibnizReport,
    Subspace,
    abelian_algebra,
    algebra_from_dict,
    algebra_from_json,
    algebra_to_dict,
    algebra_to_json,
    bracket,
    chain_algebra,
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
    Fingerprint,
    GeneratorRoles,
    GradationReport,
    MAXIMUM_LENGTH,
    NO_GRADATION_FOUND,
    NOT_MAXIMUM_LENGTH,
    NaturalGradation,
    diagonal_search,
    graded_fingerprint,
    m4_1_witness,
    natural_gradation,
    two_generator_search,
    verify_gradation,
)
from .invariants import (
    CentralSeries,
    CharacteristicSequence,
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
    "Algebra", "LeibnizReport", "Subspace", "FamilySpec", "DegreeAssignment",
    "Fingerprint", "GeneratorRoles", "GradationReport", "NaturalGradation",
    "CentralSeries", "CharacteristicSequence",
    "NilalgError", "InvalidInputError", "NotNilpotentError",
    "DegenerateSampleError", "MAXIMUM_LENGTH", "NOT_MAXIMUM_LENGTH",
    "NO_GRADATION_FOUND", "DEFAULT_SEED",
    "abelian_algebra", "algebra_from_dict", "algebra_from_json",
    "algebra_to_dict", "algebra_to_json", "bracket", "chain_algebra",
    "change_of_basis", "check_leibniz", "is_lie", "square_ideal",
    "generator_roles", "list_families", "make", "known_witness",
    "diagonal_search", "graded_fingerprint", "m4_1_witness",
    "natural_gradation", "two_generator_search", "verify_gradation",
    "char_seq_at", "characteristic_sequence", "is_p_filiform",
    "lower_central_series", "nilindex", "nilpotent_block_profile",
    "right_mult_matrix",
]
