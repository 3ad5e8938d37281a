"""Exact p-adic computation toolkit for congruences of representation families."""

from loccon.padic import (
    DomainError,
    InconclusiveError,
    PadicContext,
    PadicElement,
    PadicNumber,
    PrecisionError,
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
from loccon.specfile import print_spec

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
    "congruence_equiv_audit",
    "describe",
    "embed",
    "gamma_exponent",
    "gamma_injectivity_exhaustive",
    "is_extension",
    "iso_mod",
    "print_spec",
    "relative_ramification",
    "stable_lattice",
]
