"""Quadratic hedging of claims on non-traded assets.

Claims g(X_T, S_T) on a non-traded asset X are hedged with a correlated
traded asset S by locally risk-minimising strategies.  Payoffs are
encoded as mixtures of complex power claims (payoffs), the price pair as
an exponential additive model (models), and the hedging value/ratio
surfaces come from contour quadrature (engine), cross-checked by a
finite-difference route for diffusions (pde) and a Monte Carlo harness
(simulation).
"""

from .engine import HedgeDecomposition, decompose
from .errors import (
    AssumptionError,
    BasisHedgeError,
    CheckFailure,
    ConfigError,
    ConvergenceError,
    DomainError,
    MismatchError,
    RegimeError,
    StructureConditionError,
)
from .models import AdditiveModel, PiecewiseAdditiveModel, vols_to_covariance
from .payoffs import (
    PayoffMeasure,
    call_claim,
    call_measure,
    combine,
    power_claim,
    put_claim,
    put_measure,
)
from .pde import DiffusionSpec, GridConfig, solve

__version__ = "0.1.0"

__all__ = [
    "AdditiveModel",
    "PiecewiseAdditiveModel",
    "vols_to_covariance",
    "PayoffMeasure",
    "call_claim",
    "call_measure",
    "put_claim",
    "put_measure",
    "power_claim",
    "combine",
    "HedgeDecomposition",
    "decompose",
    "DiffusionSpec",
    "GridConfig",
    "solve",
    "BasisHedgeError",
    "DomainError",
    "ConvergenceError",
    "AssumptionError",
    "StructureConditionError",
    "RegimeError",
    "MismatchError",
    "ConfigError",
    "CheckFailure",
    "__version__",
]
