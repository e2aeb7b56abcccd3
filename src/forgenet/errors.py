"""Exception types shared across the package.

Every error raised on purpose derives from ForgenetError so callers can
catch the package's failures without swallowing stdlib exceptions.
"""


class ForgenetError(Exception):
    pass


class ShapeError(ForgenetError, ValueError):
    """Array shape does not satisfy an operation's requirements."""


class ContractError(ForgenetError, ValueError):
    """An operation was called in a way its contract forbids (empty input,
    mixed video ids, stale cache, ...)."""


class ConfigError(ForgenetError, ValueError):
    """Invalid network or training configuration."""


class DegenerateBatchError(ForgenetError, ValueError):
    """Batch statistics cannot be formed: a channel has fewer than 2 values."""


class NonFiniteGradientError(ForgenetError, FloatingPointError):
    """A gradient contains NaN or Inf; the optimizer refuses the update."""


class ManifestError(ForgenetError, ValueError):
    """Dataset manifest CSV is malformed; message carries the line number."""


class DecodeError(ForgenetError, ValueError):
    """Image file is not a decodable binary PPM."""


class WeightsFormatError(ForgenetError, ValueError):
    """Weights file is corrupt or does not match the expected schema;
    message names the offending field or tensor."""
