"""Exception types shared across the package."""


class EseError(Exception):
    """Base class for all package errors."""


class NonPositiveField(EseError):
    """A field that must be strictly positive has a value <= 0.

    Raised instead of clipping: losing positivity means the discretization
    left the regime where the Harnack theory applies.
    """


class NonPositiveTime(EseError):
    """An operation requiring t > 0 was called with t <= 0."""


class BetaZero(EseError):
    """Localized Harnack quantity requested with beta = 0.

    The localizer lower bound on b diverges as beta -> 0, so the localized
    check is unavailable there (the unlocalized H0 still allows beta = 0).
    """


class WindowTooSmall(EseError):
    """Not enough trace samples inside the requested time window."""


class InvalidC(EseError):
    """Blowup-threshold constant c outside the valid range [n(p-1), 2)."""


class PastBlowup(EseError):
    """ODE oracle evaluated at or beyond its blowup time."""


class InsufficientSamples(EseError):
    """Tail fit with no use: under three samples, rank-deficient or no root ahead."""


class ThresholdNeverMet(EseError):
    """No sampled space-time point reaches the blowup threshold."""


class NonMonotoneTime(EseError):
    """Path times are not strictly increasing."""


class OutOfWindow(EseError):
    """A space-time query point lies outside the trace's sampled window."""


class UnknownPreset(EseError):
    """Constant-preset name not in the catalog."""


class ConfigError(EseError):
    """Malformed or inconsistent run configuration."""


class CapBelowInitial(ConfigError, ValueError):
    """[step] f_cap at or below the initial maximum, so the run would be
    declared a blowup before its first step.  Also a ValueError, so callers
    of `solve` that catch ValueError for a bad step config still catch it."""
