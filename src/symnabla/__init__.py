"""Symmetric-difference set ring: powers, chain structure, recurrences.

The package computes, three independent ways, the cardinality of the
n-th symmetric power of {1, ..., k} under the symmetric product (pairwise
integer products with even-multiplicity cancellation): by building the
sets (``brute_card``), by structural recurrences on the binary expansion
of n (``fast_term`` / ``matrix_term`` / ``reduce_term``, with
``term_range``, ``matrix_term_range`` and ``reduce_term_range`` sweeping
whole prefixes), and by chain censuses stepped with fixed transfer
matrices (``verify_transfer``).
For k in 1..4 the resulting sequences are catalogued in the OEIS and can
be cross-checked against b-files (``symnabla.oeis``).
"""

from .chains import (
    Chain,
    StructVec,
    TransferFailure,
    TransferMatrix,
    TransferReport,
    cardinality_functional,
    census,
    chain_as_dict,
    chains_to_text,
    decompose,
    format_chain,
    initial_vector,
    squaring_matrix,
    structural_vector,
    transfer_matrix,
    verify_transfer,
)
from .core import (
    DEFAULT_ELEMENT_CAP,
    MAX_K,
    ElementVec,
    SymSet,
    brute_card,
    make_base_set,
    power_card_sequence,
    sym_diff,
    sym_power,
    sym_prod,
    sym_square,
)
from .errors import (
    BFileFormatError,
    BFileParseError,
    CoverageError,
    DomainError,
    SizeLimitError,
    SymnablaError,
    TransportError,
)
from .oeis import (
    SEQUENCE_IDS,
    BFile,
    CrosscheckReport,
    cache_dir_path,
    crosscheck,
    fetch_bfile,
    parse_bfile,
    serialize_bfile,
)
from .recurrence import (
    CORE_RULES,
    OPTIONAL_RULES,
    IdentityReport,
    ReductionTrace,
    annihilation_check,
    fast_term,
    gap_split_check,
    matrix_identity_suite,
    matrix_state,
    matrix_term,
    matrix_term_range,
    reduce_term,
    reduce_term_range,
    sparse_term,
    term,
    term_range,
)

__version__ = "0.1.0"

__all__ = [
    "BFile",
    "BFileFormatError",
    "BFileParseError",
    "Chain",
    "CORE_RULES",
    "CoverageError",
    "CrosscheckReport",
    "DEFAULT_ELEMENT_CAP",
    "DomainError",
    "ElementVec",
    "IdentityReport",
    "MAX_K",
    "OPTIONAL_RULES",
    "ReductionTrace",
    "SEQUENCE_IDS",
    "SizeLimitError",
    "StructVec",
    "SymSet",
    "SymnablaError",
    "TransferFailure",
    "TransferMatrix",
    "TransferReport",
    "TransportError",
    "annihilation_check",
    "brute_card",
    "cache_dir_path",
    "cardinality_functional",
    "census",
    "chain_as_dict",
    "chains_to_text",
    "crosscheck",
    "decompose",
    "fast_term",
    "fetch_bfile",
    "format_chain",
    "gap_split_check",
    "initial_vector",
    "make_base_set",
    "matrix_identity_suite",
    "matrix_state",
    "matrix_term",
    "matrix_term_range",
    "parse_bfile",
    "power_card_sequence",
    "reduce_term",
    "reduce_term_range",
    "serialize_bfile",
    "sparse_term",
    "sym_diff",
    "sym_power",
    "sym_prod",
    "sym_square",
    "squaring_matrix",
    "structural_vector",
    "term",
    "term_range",
    "transfer_matrix",
    "verify_transfer",
]
