"""Certified filtered-square engine for mod p syntomic cohomology.

Exact truncated models of the weight-graded squares for the p-adic integers
and their quotients Z/p^n, with elimination that only certifies ranks forced
for every value of the unknown entries, telescoping vanishing certificates,
and even K-group tables derived from them.
"""

from .arith import Monomial, f_degree
from .ktheory import (
    bound_comparison,
    h2_basis,
    k_even_table,
    v1_nilpotence_order,
)
from .linalg import (
    CERTIFIED,
    INDETERMINATE,
    CohomologyReport,
    EliminationResult,
    SquareComplex,
    certified_eliminate,
    euler_characteristic,
    square_cohomology,
    verify_truncation,
)
from .verifier import sample_certificate, verify_certificate
from .zp import (
    NamedClass,
    build_zp_square,
    mod_v1_cohomology,
    mod_v1_square,
    named_basis,
    zp_cohomology,
)
from .zpn import (
    StepWitness,
    VanishingCertificate,
    certify_vanishing,
    nygaard_truncation_bound,
    telescoping_step,
)

__version__ = "0.1.0"

__all__ = [
    "CERTIFIED",
    "CohomologyReport",
    "EliminationResult",
    "INDETERMINATE",
    "Monomial",
    "NamedClass",
    "SquareComplex",
    "StepWitness",
    "VanishingCertificate",
    "bound_comparison",
    "build_zp_square",
    "certified_eliminate",
    "certify_vanishing",
    "euler_characteristic",
    "f_degree",
    "h2_basis",
    "k_even_table",
    "mod_v1_cohomology",
    "mod_v1_square",
    "named_basis",
    "nygaard_truncation_bound",
    "sample_certificate",
    "square_cohomology",
    "telescoping_step",
    "v1_nilpotence_order",
    "verify_certificate",
    "verify_truncation",
    "zp_cohomology",
]
