"""Exact-arithmetic divisor calculus and positivity certification for moduli
of weighted pointed rational curves."""

from .divisors import (
    BoundaryKey,
    DivisorClass,
    LogCanonicalForm,
    WeightVector,
    alpha_to_c,
    c_to_alpha,
    canonical_boundary_key,
    class_combine,
    class_from_record,
    class_to_record,
    dk_class,
    log_canonical_class,
    make_weights,
    zero_class,
)
from .families import (
    BlowdownStep,
    FamilyModel,
    IntersectionReport,
    combination_value,
    evaluate_class,
    f_values,
    family_from_json,
    family_to_json,
    intersection_numbers,
    level_matrix,
    stratified_evaluate,
    validate_family,
)
from .morphisms import (
    MorphismSpec,
    derive_pullback_constant,
    derive_pushforward_constants,
    pullback_reduction,
    pullback_replacement,
    pushforward_reduction,
    pullback_test_curve,
    pullback_test_numbers,
    pushforward_test_families,
)
from .positivity import (
    Certificate,
    CoefficientVector,
    DropEvaluation,
    Threshold,
    TraceEntry,
    ab_substitution,
    admissible_pairs,
    ample_interval,
    c0_lower,
    canonical_eps,
    certify_generic,
    certify_interval,
    drop_value,
    g_series,
    min_drop,
    perturbed_certify,
    positivity_case,
    reachable_strata,
    threshold_c,
)

__version__ = "0.1.0"
