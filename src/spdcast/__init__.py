"""Geometry-aware forecasting of realized covariance matrices.

Forecast time series of symmetric positive definite matrices with a
manifold-respecting neural network or reference models, score the forecasts
with matrix distances and the model confidence set, and translate them into
minimum-variance portfolios.

The package exports each module's ``__all__``, imported from the module on
first use (PEP 562), so importing the package, or a command that needs no
NumPy, loads none of them.
"""

import importlib

__version__ = "0.1.0"

# Searched in this order; the NumPy-free modules come first, so their names load no NumPy.
_MODULES = ("exceptions", "config", "baselines", "data", "evaluation", "frechet", "network",
            "optim", "pipeline", "portfolio", "spd", "stiefel")


def _modules():
    return (importlib.import_module(f".{module}", __name__) for module in _MODULES)


def __getattr__(name: str):
    if name == "__all__":
        return ["__version__", *(n for module in _modules() for n in module.__all__)]
    # ``from spdcast import <module>`` probes for the module's name first: no
    # __all__ holds it, or a private name, so none is imported to look.
    if name not in _MODULES and not name.startswith("_"):
        for module in _modules():
            if name in module.__all__:
                globals()[name] = value = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
