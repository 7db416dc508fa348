"""Exception taxonomy for ballspec.

Wire format for the CLI: usage problems exit 1, numerical failures exit 2.
Every numerical failure derives from NumericalError so the CLI can map them
uniformly while still naming the concrete condition in the message.
"""

from __future__ import annotations


class BallspecError(Exception):
    """Base class for all package-specific errors."""


class RangeError(BallspecError):
    """Arguments fall outside the supported domain.

    The evaluation kernel supports 1e-18 <= x <= 200 (bessel.X_MIN and
    bessel.X_MAX) and orders 0 <= nu <= 120 (stored as 2*nu, an integer in
    [0, 240]).
    """


class NumericalError(BallspecError):
    """Base class for runtime numerical failures (CLI exit code 2)."""


class LossOfPrecision(NumericalError):
    """The internal error estimate exceeds the accuracy contract.

    Raised for example when the requested value underflows double precision,
    so no meaningful relative accuracy can be carried by the return type.
    """


class BracketFailure(NumericalError):
    """A sign scan failed to isolate the requested number of zeros."""


class DegenerateOrdering(NumericalError):
    """Two enumerated eigenvalues are too close to order reliably.

    Distinctness of the eigenvalues across angular orders is a theorem;
    a violation at working precision signals a kernel accuracy bug, so it is
    reported rather than merged.
    """


class CertificateFailure(NumericalError):
    """A certified inequality failed to hold strictly."""
