"""Exact-arithmetic workbench for q-series identities and partition bijections.

The public names are loaded on first use (PEP 562): ``import qident`` runs
no submodule, and ``qident.verify`` or ``from qident import verify``
imports ``qident.identities`` and what it needs, then nothing more.  The
submodules are reachable the same way (``qident.dsl``, ``from qident
import bijections``).  Each subcommand of the command line loads only the
modules it runs; ``qident.cli`` says which.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "BadParams",
        "DivisionInexact",
        "DomainViolation",
        "DslError",
        "MissingParam",
        "NonConvergent",
        "NonIntegerExponent",
        "NonUnitConstantTerm",
        "NotSelfConjugate",
        "ParseError",
        "QidentError",
        "TruncationRequired",
        "UnboundVariable",
        "UnknownBijection",
        "UnknownDomain",
        "UnknownIdentity",
    ),
    "series": (
        "MultiSeries",
        "QSeries",
        "poch_finite",
        "poch_infinite",
        "qbinom",
        "qq_factorial",
    ),
    "partitions": (
        "DistinctPartition",
        "Partition",
        "PartitionPair",
        "SignedDistinctSet",
        "conjugate",
        "distinct_odd_to_selfconj",
        "domain_validator",
        "durfee_size",
        "enumerate_domain",
        "enumerate_partitions",
        "selfconj_to_distinct_odd",
    ),
    "bijections": (
        "BijectionReport",
        "check_bijection",
        "durfee_join",
        "durfee_split",
        "nu3_forward",
        "nu3_inverse",
        "phi",
        "phi_inv",
        "psi",
        "psi_inv",
        "rho",
        "rho_inv",
        "tau",
    ),
    "identities": (
        "IDENTITY_IDS",
        "IdentityCase",
        "VerifyReport",
        "build_side",
        "p_nu",
        "p_omega",
        "q1_limit_check",
        "s_sum",
        "verify",
    ),
    "dsl": ("evaluate", "parse", "unparse"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
