"""Exponential sums, the van der Corput transform, and its error budget."""

__version__ = "0.1.0"

from .numutil import (NearestIntDecomp, csum, modified_sawtooth, nearest_decomp,
                      sawtooth_psi)
from .phase import (ConditionMProfile, FamilyError, InversionRangeError,
                    PhaseAmplitudeModel, builtin_family, family_model, invert_fprime)
from .expsum import CurveSample, curve_samples, direct_starred_sum
from .quad import (QuadResult, derivative_test_bounds, fresnel_modified,
                   oscillatory_integral, stationary_phase_estimate)
from .transform import (EndpointTerm, TransformOptions, TransformResult,
                        endpoint_term, full_transform, refined_endpoint_term,
                        rhs_main_sum)
from .errbudget import (AssumptionPartition, ConditionMReport, ErrorBudget,
                        WRFunctions, check_condition_M, compute_budget,
                        m_count, partition_assumptions, toinfinity_deltas)

__all__ = [
    "NearestIntDecomp", "csum", "modified_sawtooth", "nearest_decomp",
    "sawtooth_psi",
    "ConditionMProfile", "FamilyError", "InversionRangeError",
    "PhaseAmplitudeModel", "builtin_family", "family_model", "invert_fprime",
    "CurveSample", "curve_samples", "direct_starred_sum",
    "QuadResult", "derivative_test_bounds", "fresnel_modified",
    "oscillatory_integral", "stationary_phase_estimate",
    "EndpointTerm", "TransformOptions", "TransformResult", "endpoint_term",
    "full_transform", "refined_endpoint_term", "rhs_main_sum",
    "AssumptionPartition", "ConditionMReport", "ErrorBudget", "WRFunctions",
    "check_condition_M", "compute_budget", "m_count", "partition_assumptions",
    "toinfinity_deltas",
]
