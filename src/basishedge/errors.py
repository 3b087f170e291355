"""Exception types shared across the package."""

from __future__ import annotations


class BasisHedgeError(Exception):
    """Base class for all package errors."""


class DomainError(BasisHedgeError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(BasisHedgeError, RuntimeError):
    """Quadrature or iteration failed to reach the requested tolerance.

    Attributes
    ----------
    residual : float
        Best available estimate of the remaining error.
    """

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class AssumptionError(BasisHedgeError, RuntimeError):
    """A model/claim pair violates one of the standing assumptions.

    The message names the violated item so callers can report it.
    """


class StructureConditionError(AssumptionError):
    """The traded asset's martingale part has a degenerate bracket."""


class RegimeError(BasisHedgeError, ValueError):
    """A coefficient family falls outside the supported solver regimes."""


class MismatchError(BasisHedgeError, ValueError):
    """Inputs produced under different models/claims were combined."""


class ConfigError(BasisHedgeError, ValueError):
    """An experiment configuration is malformed; message cites the key."""


class CheckFailure(BasisHedgeError, RuntimeError):
    """A validation check ran to completion and failed its threshold.

    `report` carries the full report of the run, which is still written.
    """

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report
