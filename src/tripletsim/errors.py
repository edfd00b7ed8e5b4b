"""Exception types shared across the package."""


class TripletSimError(Exception):
    """Base class for all package-specific errors."""


class ValidityError(TripletSimError, ValueError):
    """A wavelength or temperature lies outside a model's declared validity range."""


class NoRootError(TripletSimError, RuntimeError):
    """A root finder found no sign change inside the requested bracket."""


class FitError(TripletSimError, RuntimeError):
    """A fit or a half-maximum width failed."""


class PeakNotFoundError(TripletSimError, RuntimeError):
    """The peak search region contained no counts."""


class InsufficientStatisticsError(TripletSimError, RuntimeError):
    """Too few sampled bins to form a meaningful estimate."""


class TtagFormatError(TripletSimError, ValueError):
    """A time-tag file is malformed; message names the failing byte offset."""

    def __init__(self, message, byte_offset=None):
        super().__init__(message)
        self.byte_offset = byte_offset


class ConfigError(TripletSimError, ValueError):
    """A run configuration is invalid; message names the offending key path."""
