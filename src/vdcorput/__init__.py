"""Exponential sums, the van der Corput transform, and its error budget."""

__version__ = "0.1.0"

from .numutil import (NearestIntDecomp, csum, modified_sawtooth, nearest_decomp,
                      sawtooth_psi)
from .phase import (ConditionMProfile, FamilyError, InversionRangeError,
                    PhaseAmplitudeModel, builtin_family, family_model, invert_fprime)
from .expsum import CurveSample, curve_samples, direct_starred_sum
from .quad import QuadResult, oscillatory_integral
from .transform import (EndpointTerm, TransformOptions, TransformResult,
                        endpoint_term, full_transform, rhs_main_sum)
from .errbudget import (AssumptionPartition, ConditionMReport, Endpoint, ErrorBudget,
                        WRFunctions, check_condition_M, compute_budget, endpoint,
                        partition_assumptions)

__all__ = [
    "NearestIntDecomp", "csum", "modified_sawtooth", "nearest_decomp",
    "sawtooth_psi",
    "ConditionMProfile", "FamilyError", "InversionRangeError",
    "PhaseAmplitudeModel", "builtin_family", "family_model", "invert_fprime",
    "CurveSample", "curve_samples", "direct_starred_sum",
    "QuadResult", "oscillatory_integral",
    "EndpointTerm", "TransformOptions", "TransformResult", "endpoint_term",
    "full_transform", "rhs_main_sum",
    "AssumptionPartition", "ConditionMReport", "Endpoint", "ErrorBudget", "WRFunctions",
    "check_condition_M", "compute_budget", "endpoint", "partition_assumptions",
]
