"""Semantic exceptions shared across the package."""


class AgreementError(Exception):
    """Base class for all copulagree errors."""


class ConfigError(AgreementError):
    """Invalid configuration: bad option values, incompatible method/level."""


class DataError(AgreementError):
    """Malformed or unusable score data."""


class LevelError(DataError):
    """Values incompatible with the declared level of measurement."""


class DegenerateDataError(DataError):
    """Data carry no information for the requested operation (e.g. zero variance)."""


class StructureError(DataError):
    """Column labels describe an inconsistent correlation structure."""


class NumericalError(AgreementError):
    """A numerical procedure failed (non-finite objective, failed refit, ...)."""


class IntervalError(NumericalError):
    """Interval estimation failed (singular information matrix, ...)."""
