"""Exact q-arithmetic construction and verification of 3D R and K operators.

Everything in this package computes over Z[q, q^-1] with arbitrary
precision integer coefficients; no floating point exists anywhere, so all
verifications are exact identities.
"""

from .exactq import (
    DomainError,
    ExactDivisionError,
    LaurentQ,
    euler_product,
    gaussian_binomial,
    q_pochhammer,
    qq_pochhammer,
)
from .multipoly import VARS3, VARS4, MultiPolyQ
from .report import Failure, VerificationError, VerificationReport

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "ExactDivisionError",
    "Failure",
    "LaurentQ",
    "MultiPolyQ",
    "VARS3",
    "VARS4",
    "VerificationError",
    "VerificationReport",
    "euler_product",
    "gaussian_binomial",
    "q_pochhammer",
    "qq_pochhammer",
    "__version__",
]
