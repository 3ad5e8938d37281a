"""Exact p-adic computation toolkit for congruences of representation families."""

from loccon.padic import (
    DomainError,
    InconclusiveError,
    PadicContext,
    PadicElement,
    PadicNumber,
    PrecisionError,
    Valuation,
    congruence_equiv_audit,
    embed,
    gamma_exponent,
    gamma_injectivity_exhaustive,
    is_extension,
    relative_ramification,
)
from loccon.series import AdicSeries, AlgebraModel, ModelPoint
from loccon.domains import ResidueDomain, describe
from loccon.families import RepFamily
from loccon.lattice import IntegralRep, ResidueRep, iso_mod, stable_lattice

__all__ = [
    "AdicSeries",
    "AlgebraModel",
    "DomainError",
    "InconclusiveError",
    "IntegralRep",
    "ModelPoint",
    "PadicContext",
    "PadicElement",
    "PadicNumber",
    "PrecisionError",
    "RepFamily",
    "ResidueDomain",
    "ResidueRep",
    "Valuation",
    "congruence_equiv_audit",
    "describe",
    "embed",
    "gamma_exponent",
    "gamma_injectivity_exhaustive",
    "is_extension",
    "iso_mod",
    "relative_ramification",
    "stable_lattice",
]
