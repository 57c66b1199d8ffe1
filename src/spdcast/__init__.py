"""Geometry-aware forecasting of realized covariance matrices.

Forecast time series of symmetric positive definite matrices with a
manifold-respecting neural network or reference models, score the forecasts
with matrix distances and the model confidence set, and translate them into
minimum-variance portfolios.
"""

from .baselines import (
    FavarModel,
    chol_reconstruct,
    chol_vectorize,
    default_factor_count,
    favar_fit,
    favar_forecast,
    forecast_rw,
)
from .data import (
    FORMAT_CSVLONG,
    FORMAT_MATBIN,
    CovSeries,
    ReturnPanel,
    SupervisedSet,
    blockdiag_spd,
    build_geohar_inputs,
    build_lagged_inputs,
    load_intraday_csv,
    load_series,
    log_returns,
    realized_cov,
    realized_series,
    rolling_windows,
    save_series,
    simulate_market,
)
from .evaluation import (
    METRICS,
    LossPanel,
    McsResult,
    block_bootstrap_indices,
    default_block_len,
    loss_panel,
    mcs,
    regime_split,
)
from .exceptions import (
    ConfigError,
    ConvergenceError,
    DataFileError,
    DecompositionError,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    SeriesFormatError,
    SpdcastError,
    TrainingDivergedError,
)
from .frechet import (
    METRIC_LOG_EUCLIDEAN,
    METRIC_PROCRUSTES,
    FrechetConfig,
    GpaResult,
    frechet_mean,
    frechet_mean_log_euclidean,
    frechet_mean_procrustes,
)
from .network import Network, NetworkSpec
from .optim import (
    LOSS_LOG_EUCLIDEAN,
    LOSS_MSE,
    TrainConfig,
    TrainResult,
    backward,
    loss_log_euclidean,
    loss_mse,
    train,
)
from .portfolio import (
    PortfolioReport,
    WeightPath,
    annualized_std,
    avg_turnover,
    evaluate_portfolio,
    gmv_long_only,
    gmv_weights,
    naive_weights,
    portfolio_returns,
)
from .spd import (
    EigPair,
    SpdMatrix,
    dist_euclidean,
    dist_frobenius,
    dist_log_euclidean,
    dist_procrustes,
    expm,
    logm,
    procrustes_rotation,
    project_to_spd,
    sqrtm_psd,
    vech,
)
from .stiefel import (
    StiefelParam,
    random_stiefel,
    stiefel_error,
    stiefel_project,
    stiefel_retract,
)

__version__ = "0.1.0"

from .pipeline import (  # noqa: E402  (pipeline imports the version above)
    ModelSpec,
    RunConfig,
    load_config,
    resolve_series,
    run_model,
)
