"""Certification engine: interval arithmetic, bisection certification of
the inequality corpus, grid verification of the global minimum, the
randomized majorization check, and the proof-chain witness."""

from .certify import EPS_CERT, CertifiedInequality, CertifyResult, certify
from .corpus import THRESHOLD, corpus, quartic_coefficient_margin
from .engine import (
    ANTISYM_TOL,
    GRID_TOL,
    GlobalMinReport,
    MajorizationReport,
    ProofChainWitness,
    majorization_property,
    proof_chain,
    verify_global_min,
)
from .interval import EnclosureError, Interval, dsinc_iv, intersect, sinc_iv
from .suite import CheckResult, SuiteConfig, run_suite

__all__ = [
    "ANTISYM_TOL",
    "EPS_CERT",
    "GRID_TOL",
    "THRESHOLD",
    "CertifiedInequality",
    "CertifyResult",
    "CheckResult",
    "EnclosureError",
    "GlobalMinReport",
    "Interval",
    "MajorizationReport",
    "ProofChainWitness",
    "SuiteConfig",
    "certify",
    "corpus",
    "dsinc_iv",
    "intersect",
    "majorization_property",
    "proof_chain",
    "quartic_coefficient_margin",
    "run_suite",
    "sinc_iv",
    "verify_global_min",
]
