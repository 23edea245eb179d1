"""Bilateral estimates between entire-function growth and coefficient decay.

Core pieces: a discrete/adaptive Young-Fenchel conjugation engine, Taylor
coefficient models with maximal-function evaluation, the K/U/Y reverse-bound
machinery with Tauberian ratio diagnostics, regularly varying growth scales,
a several-variables extension, and probability generating functions.
"""

from .entire import (
    ZERO,
    CoefficientSequence,
    coefficients_from_csv,
    derivative_coeffs,
    exp_coefficients,
    gamma_order_coefficients,
    gaussian_coefficients,
    log_max_function,
    order_estimate,
    polynomial_coefficients,
    power_decay_coefficients,
    table_coefficients,
    type_estimate,
)
from .legendre import (
    ConjugateTable,
    SampledFunction1D,
    SampledFunctionND,
    biconjugate_1d,
    conjugate_1d,
    conjugate_1d_bruteforce,
    conjugate_nd,
    conjugate_of_callable,
    conjugate_point,
    young_gap,
)
from .bounds import (
    EpsilonReport,
    GammaReport,
    GrowthFunction,
    TauberianReport,
    coeff_upper_bound,
    coeff_upper_bound_many,
    exp_of_exp,
    gamma_condition,
    k_sum,
    max_function_upper_bound,
    power_log,
    power_of_exp,
    quadratic_decay,
    r_sum,
    stirling_decay,
    tauberian_report,
    u_sum,
)
from .scales import (
    RegVarScale,
    conjugate_asymptotic,
    conjugate_numeric,
    conjugate_ratio,
    example_31_check,
    example_33_check,
    phi_scale,
    psi_scale,
    refined_decay_profile,
)
from .multivar import (
    MultiGrowthFunction,
    factorizable_demo,
    growth_of,
    multi_coeff_bound,
    multi_max_bound,
)
from .probgen import (
    DiscreteDistribution,
    degenerate,
    distribution_from_csv,
    generating_function_log,
    geometric,
    poisson,
    poisson_growth,
    prob_tauberian_report,
)

__version__ = "0.1.0"
