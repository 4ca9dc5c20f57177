"""Exception types shared across the package.

Every error raised on purpose derives from VisnavError so callers (and the
CLI) can separate expected failures from bugs.
"""


class VisnavError(Exception):
    """Base class for all errors raised by this package."""


class NotAntisymmetricError(VisnavError):
    """A matrix expected to be antisymmetric was not, beyond tolerance."""


class NotUnitError(VisnavError):
    """A vector expected to have unit norm did not, beyond tolerance."""


class LandmarkAtCameraError(VisnavError):
    """A bearing was requested for a landmark at (or numerically on top of)
    the camera's optical center."""


class UnknownLandmarkError(VisnavError):
    """A measurement references a landmark id that is not in the map."""


class NonFiniteStateError(VisnavError):
    """Integration produced NaN or Inf in the estimator state."""


class SingularInnovationError(VisnavError):
    """The innovation covariance is numerically singular at a jump."""


class ScheduleViolationError(VisnavError):
    """A vision frame of a hybrid run lies outside the span of its IMU grid,
    or two frames have the same time."""


class UnsupportedSpectrumError(VisnavError):
    """The constant system matrix is neither nilpotent nor diagonalizable
    with real eigenvalues, so the reduced observability test does not apply."""


class InsufficientHistoryError(VisnavError):
    """Not enough bearing history to evaluate the camera-motion condition."""


class CameraOnLandmarkError(VisnavError):
    """The camera position coincides with a landmark, which makes the static
    observability matrix ill-defined."""


class TooFewLandmarksError(VisnavError):
    """The degeneracy classifier needs at least five landmarks."""


class IoError(VisnavError):
    """A file could not be read or written."""


class ParseError(VisnavError):
    """A data or config file could not be parsed; message carries file/line."""


class ValidationError(VisnavError):
    """Structurally valid input violated a documented invariant."""
