"""Geometry-aware forecasting of realized covariance matrices.

Forecast time series of symmetric positive definite matrices with a
manifold-respecting neural network or reference models, score the forecasts
with matrix distances and the model confidence set, and translate them into
minimum-variance portfolios.

The names below are imported from their modules on first use (PEP 562), so
importing the package, or a command that needs no NumPy, loads none of them.
"""

import importlib

__version__ = "0.1.0"

# module: the public names it exports through the package.
_EXPORTS = {
    "baselines": ("FavarModel", "chol_reconstruct", "chol_vectorize", "default_factor_count",
                  "favar_fit", "favar_forecast", "forecast_rw"),
    "config": ("ModelSpec", "RunConfig", "load_config"),
    "data": ("FORMAT_CSVLONG", "FORMAT_MATBIN", "CovSeries", "ReturnPanel", "SupervisedSet",
             "blockdiag_spd", "build_geohar_inputs", "build_lagged_inputs", "load_intraday_csv",
             "load_series", "log_returns", "realized_series", "rolling_windows", "save_series",
             "simulate_market"),
    "evaluation": ("METRICS", "LossPanel", "McsResult", "block_bootstrap_indices",
                   "default_block_len", "loss_panel", "mcs", "regime_split"),
    "exceptions": ("ConfigError", "ConvergenceError", "DataFileError", "DecompositionError",
                   "DimensionMismatchError", "NotPositiveDefiniteError", "SeriesFormatError",
                   "SpdcastError", "TrainingDivergedError"),
    "frechet": ("METRIC_LOG_EUCLIDEAN", "METRIC_PROCRUSTES", "FrechetConfig", "BarycenterResult",
                "frechet_mean_log_euclidean", "frechet_mean_procrustes"),
    "network": ("Network", "NetworkSpec"),
    "optim": ("LOSS_LOG_EUCLIDEAN", "LOSS_MSE", "TrainConfig", "TrainResult", "backward",
              "loss_log_euclidean", "loss_mse", "train"),
    "pipeline": ("resolve_series", "run_model"),
    "portfolio": ("PortfolioReport", "WeightPath", "annualized_std", "avg_turnover",
                  "evaluate_portfolio", "gmv_long_only", "gmv_weights", "naive_weights",
                  "portfolio_returns"),
    "spd": ("EigPair", "SpdMatrix", "dist_euclidean", "dist_frobenius", "dist_log_euclidean",
            "dist_procrustes", "expm", "logm", "procrustes_rotation", "project_to_spd",
            "sqrtm_psd", "vech"),
    "stiefel": ("StiefelParam", "random_stiefel", "stiefel_error", "stiefel_project",
                "stiefel_retract"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
