"""Exact continued-fraction engine.

Continued fractions with exact rational terms, the alternating-series
transform in both directions, double-exponential quadrature and Beta-function
oracles, a verified catalog of classical identity families, and the Riccati
equation correspondence.
"""

from .core import (
    ContinuedFraction,
    ContinuedFractionError,
    ContractionError,
    Convergent,
    EvalReport,
    EvalStatus,
    EvalStop,
    PartialTerm,
    PositivityClass,
    TermUnderflowError,
    ZeroContinuantError,
    as_fraction,
    convergent_iter,
    convergent_sequence,
    equivalence_transform,
    euler_series_expansion,
    eval_float,
    even_contraction,
    positivity_class,
)
from .series import GaussLemmaParams, SeriesSpec, ZeroPivotError, gauss_sum_check, series_to_cf
from .quadrature import (
    PowerBinomialIntegrand,
    QuadratureError,
    QuadratureResult,
    beta,
    contiguous_relation_check,
    de_integral,
    gaussian_tail_integral,
    log_gamma,
    reciprocal_kernel_integral,
    sqrt_kernel_integral,
)
from .catalog import (
    ConstraintViolation,
    IdentityCase,
    IdentityFamily,
    UnknownFamilyError,
    VerificationReport,
    VerifyStatus,
    builtin_suite,
    chain_alpha,
    family_ids,
    get_family,
    make_cf,
    permutation_theorem_check,
    product_identity_check,
    reference_value,
    verify,
)
from .riccati import (
    ODEResult,
    RiccatiDomainError,
    RiccatiProblem,
    RiccatiReport,
    cf_from_riccati,
    riccati_letters,
    solve_riccati,
    termination_depth,
    verify_riccati,
)

__version__ = "0.1.0"
