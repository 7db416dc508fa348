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

    The evaluation kernel supports bessel.X_MIN <= x <= bessel.X_MAX and
    orders nu stored as 2*nu, an integer in [0, bessel.TWICE_NU_MAX];
    bessel checks that box. The zero census has no order cap: a zero
    request is refused only where its zero lies past X_MAX, and Courant
    and Pleijel name their request in the refusals of its zeros. A
    spectrum's cutoff lies inside the argument box, so no cutoff is
    refused. pleijel.D_MAX is the largest d with a gamma(d).
    Integer parameters are checked by bessel._check_int.
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
    """Two modes' certified zeros (or their squares) are the same float.

    Zeros are certified nearest floats and rounding is monotone, so distinct
    floats order the eigenvalues. A tie asks for more precision, not a
    merge: J_n, J_{n+k} share no positive zero (Bourget; Siegel, 1929).
    """


class CertificateFailure(NumericalError):
    """A certified inequality failed to hold strictly."""
