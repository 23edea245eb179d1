"""Bilateral estimates between entire-function growth and coefficient decay.

Core pieces: a discrete/adaptive Young-Fenchel conjugation engine, Taylor
coefficient models with maximal-function evaluation, the K/U/Y reverse-bound
machinery with Tauberian ratio diagnostics, the paper's worked examples, a
separable several-variables extension, and probability generating
functions.
"""

from .entire import (
    ZERO,
    CoefficientSequence,
    coefficients_from_csv,
    exp_coefficients,
    gamma_order_coefficients,
    log_max_function,
    order_estimate,
    polynomial_coefficients,
    table_coefficients,
    type_estimate,
)
from .legendre import (
    ConjugateTable,
    SampledFunction1D,
    biconjugate_1d,
    conjugate_1d,
    conjugate_1d_bruteforce,
    conjugate_of_callable,
    conjugate_point,
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
    max_function_upper_bounds,
    power_log,
    power_of_exp,
    quadratic_decay,
    r_sum,
    stirling_decay,
    tauberian_report,
    u_sum,
)
from .scales import example_31_check, example_33_check
from .multivar import (
    MultiGrowthFunction,
    factorizable_demo,
    growth_of,
    multi_coeff_bound,
    multi_max_bound,
)
from .probgen import (
    DiscreteDistribution,
    generating_function_log,
    poisson,
    poisson_growth,
    prob_tauberian_report,
)

__version__ = "0.1.0"
