"""Approximate subrings of computable rings.

Approximation-constant certificates, covering numbers by additive
translates, growth sequences, constructive cover bounds and desk-scale
classification checks, over modular / polynomial / matrix / product /
table ring backends plus lazy integers and F_p[t].

``import apxring`` loads no submodule: each exported name loads its
module on first use, so a caller pays only for the modules it reaches.
"""

import importlib

_EXPORTS = {name: module for module, names in {
    "classify": (
        "ClassificationReport", "GalleryItem", "ModelCheckReport",
        "SubringSearchResult", "core_set", "finite_model_check", "gallery",
        "is_subring", "nzd_classify", "pos_char_search"),
    "constructive": (
        "ConstructiveCoverReport", "bound_table", "claim2_cover",
        "k11_cover", "msum_cover"),
    "cover": (
        "ApproxCertificate", "CommensurabilityResult", "CoverWitness",
        "approx_constant", "commensurability", "cover_brute_force",
        "cover_exact", "cover_greedy", "verify_witness"),
    "errors": (
        "ApxError", "BudgetExceededError", "CrossRingError",
        "InfiniteRingError", "InvalidParamsError", "NotAnIdealError",
        "NotSymmetricError", "ParseError", "RingConstructionError",
        "UncoverableError", "VerificationFailedError", "ZeroDivisorError"),
    "rings": (
        "modular", "parse_ring", "quotient_ring", "subring_table",
        "zero_multiplication_ring"),
    "sets": (
        "ClosureResult", "FiniteSet", "GrowthProfile", "closure",
        "difference_set", "growth_sequence", "growth_step", "iterated_sum",
        "msum", "negate", "parse_set", "power_products", "prodset", "sumset"),
    "sweep": ("SweepReport", "SweepSpec", "run_sweep"),
}.items() for name in names}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
