"""Leakage-region toolkit for two-layer refinement coding with rate-limited keys.

Submodules:

* ``probcore``: distributions, divergences, type utilities.
* ``rdsolver``: rate-distortion and two-layer sum-rate programs.
* ``exponents``: KL-ball leakage exponents, thresholds and region queries.
* ``typecodec``: exact finite-blocklength covering/binning/XOR scheme.
* ``adversary``: key-and-sequence guessing attacks and their lower bounds.
* ``cli``: command-line front end.
"""

from .adversary import (
    CONSTANT_TARGET,
    FIRST_SYMBOL_TARGET,
    IDENTITY_TARGET,
    GuessScheme,
    end_to_end_guess_probability,
    end_to_end_lower_bound,
    g1_success_probability,
    g2_success_probability,
)
from .errors import (
    CapExceededError,
    CodebookError,
    DimensionError,
    RateConditionError,
    SrleakError,
)
from .exponents import (
    RateModel,
    RegionBoundary,
    RegionPoint,
    SystemSpec,
    binary_plateau_alpha,
    criterion_radius,
    jep_floors,
    key_rate_thresholds,
    kl_ball_maximize,
    kl_ball_minimize,
    leakage_exponent_m1,
    leakage_floors,
    leakage_plateau_thresholds,
    partial_secrecy_holds,
    region_boundary,
    region_check,
)
from .probcore import (
    Distribution,
    DistortionMeasure,
    TypeClass,
    binary_entropy,
    binary_kl,
    entropy,
    enumerate_types,
    expected_distortion,
    kl_divergence,
    type_class_probability,
)
from .rdsolver import (
    RdSolution,
    SumRateSolution,
    min_sum_rate,
    min_sum_rate_oracle,
    rd_function,
)
from .typecodec import (
    CoverCodebook,
    KeyPair,
    Layer1Message,
    Layer2Message,
    build_codebook,
    decode,
    encode,
    jep_exact,
    leakage_exact,
    leakage_oracle,
    load_codebook,
    sample_keys,
    save_codebook,
)

__all__ = [
    "CONSTANT_TARGET",
    "FIRST_SYMBOL_TARGET",
    "IDENTITY_TARGET",
    "GuessScheme",
    "end_to_end_guess_probability",
    "end_to_end_lower_bound",
    "g1_success_probability",
    "g2_success_probability",
    "CapExceededError",
    "CodebookError",
    "DimensionError",
    "RateConditionError",
    "SrleakError",
    "RateModel",
    "RegionBoundary",
    "RegionPoint",
    "SystemSpec",
    "binary_plateau_alpha",
    "criterion_radius",
    "jep_floors",
    "key_rate_thresholds",
    "kl_ball_maximize",
    "kl_ball_minimize",
    "leakage_exponent_m1",
    "leakage_floors",
    "leakage_plateau_thresholds",
    "partial_secrecy_holds",
    "region_boundary",
    "region_check",
    "Distribution",
    "DistortionMeasure",
    "TypeClass",
    "binary_entropy",
    "binary_kl",
    "entropy",
    "enumerate_types",
    "expected_distortion",
    "kl_divergence",
    "type_class_probability",
    "RdSolution",
    "SumRateSolution",
    "min_sum_rate",
    "min_sum_rate_oracle",
    "rd_function",
    "CoverCodebook",
    "KeyPair",
    "Layer1Message",
    "Layer2Message",
    "build_codebook",
    "decode",
    "encode",
    "jep_exact",
    "leakage_exact",
    "leakage_oracle",
    "load_codebook",
    "sample_keys",
    "save_codebook",
]

__version__ = "0.1.0"
