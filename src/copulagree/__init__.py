"""Agreement measurement with a Gaussian copula model.

Scores on any level of measurement (nominal, ordinal, interval, ratio) are
tied together by a block-diagonal latent correlation matrix whose named
parameters quantify intra-coder, inter-coder, gold-standard, and
inter-method agreement.  Inference routes: exact maximum likelihood for
continuous marginals, the distributional-transform approximation or pairwise
composite likelihood for categorical scores, a two-stage semiparametric path,
and random-walk Metropolis-Hastings posterior sampling.
"""

__version__ = "0.1.0"

from .bayes import (
    PosteriorResult,
    SamplerControl,
    fixed_width_check,
    mcse,
    sample_posterior,
)
from .diagnostics import (
    AlphaResult,
    InfluenceReport,
    aic_bic,
    influence,
    information_criteria,
    krippendorff_alpha,
    model_probability,
    simulate_scores,
)
from .errors import (
    AgreementError,
    ConfigError,
    DataError,
    DegenerateDataError,
    IntervalError,
    LevelError,
    NumericalError,
    StructureError,
)
from .fit import (
    FitResult,
    asymptotic_interval,
    fit_agreement,
    full_bootstrap,
    optimize_objective,
    sandwich_score_cov,
    select_method,
    simulate_flat,
)
from .marginals import (
    empirical_cdf,
    initial_params,
    make_family,
    median_unbiased_quantile,
)
from .objectives import (
    CopulaModel,
    Objective,
    bivariate_normal_cdf,
    gradient,
    hessian,
    loglik_cml,
    loglik_dt,
    loglik_ml,
    loglik_smp,
)
from .scores import (
    ColumnLabel,
    ScoreMatrix,
    embed_original,
    parse_labels,
    prepare,
    read_score_csv,
)
from .structure import (
    AgreementStructure,
    block_logdet_quadform,
    build_structure,
    pair_list,
)

__all__ = [
    "AgreementError",
    "AgreementStructure",
    "AlphaResult",
    "ColumnLabel",
    "ConfigError",
    "CopulaModel",
    "DataError",
    "DegenerateDataError",
    "FitResult",
    "InfluenceReport",
    "IntervalError",
    "LevelError",
    "NumericalError",
    "Objective",
    "PosteriorResult",
    "SamplerControl",
    "ScoreMatrix",
    "StructureError",
    "aic_bic",
    "asymptotic_interval",
    "bivariate_normal_cdf",
    "block_logdet_quadform",
    "build_structure",
    "embed_original",
    "empirical_cdf",
    "fit_agreement",
    "fixed_width_check",
    "full_bootstrap",
    "gradient",
    "hessian",
    "influence",
    "information_criteria",
    "initial_params",
    "krippendorff_alpha",
    "loglik_cml",
    "loglik_dt",
    "loglik_ml",
    "loglik_smp",
    "make_family",
    "mcse",
    "median_unbiased_quantile",
    "model_probability",
    "optimize_objective",
    "pair_list",
    "parse_labels",
    "prepare",
    "read_score_csv",
    "sample_posterior",
    "sandwich_score_cov",
    "select_method",
    "simulate_flat",
    "simulate_scores",
]
