"""Exact certificates around quadratic monomial ideals: regular sequences of
variable-times-form products, powers-plus-lex Hilbert function realizations,
and balanced Cohen-Macaulay companions of flag complexes."""

from .balance import BalanceReport, balance
from .covers import minimal_primes
from .errors import (
    BudgetExceededError,
    InputError,
    NotCohenMacaulayError,
    RegularSequenceNotFoundError,
    UnattainableTargetError,
)
from .fields import GF, QQ, parse_field_spec
from .hilbert import series_numerator
from .homology import (
    CMCertificate,
    depth_and_pd,
    is_cohen_macaulay,
)
from .jsonio import canonical_json
from .lpp import (
    LppResult,
    construct_lex_plus_powers,
    egh_for_quadratic,
)
from .monomials import (
    MonomialIdeal,
    format_monomial,
    parse_monomial,
    polarize,
)
from .regseq import (
    RegularSequenceCertificate,
    certify_transversal_ranks,
    decompose_degree_two,
    find_regular_sequence,
    sample_forms,
)
from .reports import (
    analyze_report,
    balance_report,
    egh_report,
    regseq_report,
    verify_report,
)
from .simplicial import (
    SimplicialComplex,
    check_balanced,
    complex_of_ideal,
    f_vector,
    h_vector,
    independence_complex,
    is_flag,
    minimal_non_faces,
    stanley_reisner,
)

__version__ = "0.1.0"

__all__ = [
    "BalanceReport",
    "BudgetExceededError",
    "CMCertificate",
    "GF",
    "InputError",
    "LppResult",
    "MonomialIdeal",
    "NotCohenMacaulayError",
    "QQ",
    "RegularSequenceCertificate",
    "RegularSequenceNotFoundError",
    "SimplicialComplex",
    "UnattainableTargetError",
    "analyze_report",
    "balance",
    "balance_report",
    "canonical_json",
    "certify_transversal_ranks",
    "check_balanced",
    "complex_of_ideal",
    "construct_lex_plus_powers",
    "decompose_degree_two",
    "depth_and_pd",
    "egh_for_quadratic",
    "egh_report",
    "f_vector",
    "find_regular_sequence",
    "format_monomial",
    "h_vector",
    "independence_complex",
    "is_cohen_macaulay",
    "is_flag",
    "minimal_non_faces",
    "minimal_primes",
    "parse_field_spec",
    "parse_monomial",
    "polarize",
    "regseq_report",
    "sample_forms",
    "series_numerator",
    "stanley_reisner",
    "verify_report",
]
