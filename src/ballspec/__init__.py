"""Laplacian spectra on d-dimensional unit balls.

Dirichlet/Neumann eigenvalues of the ball are squares of zeros of the scaled
radial functions Xi_l(r) = r^((2-d)/2) * J_{l+d/2-1}(r) (Dirichlet) and of
their derivatives (Neumann). This package evaluates the Bessel kernel to a
stated accuracy contract, locates and labels the zeros, enumerates spectra
with exact multiplicities, decides which eigenvalues are Courant sharp, and
computes/certifies the Pleijel constant gamma(d) and its monotonicity.

Compute modules load on first access (PEP 562), as a CLI job needs them.
"""

from __future__ import annotations

import importlib

from ballspec.errors import (
    BallspecError,
    BracketFailure,
    CertificateFailure,
    DegenerateOrdering,
    LossOfPrecision,
    NumericalError,
    RangeError,
)

__version__ = "0.1.0"

_SUBMODULES = ("bessel", "zeros", "spectrum", "courant", "pleijel")

__all__ = [
    *_SUBMODULES,
    "BallspecError",
    "NumericalError",
    "RangeError",
    "LossOfPrecision",
    "BracketFailure",
    "DegenerateOrdering",
    "CertificateFailure",
    "__version__",
]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"ballspec.{name}")
    raise AttributeError(f"module 'ballspec' has no attribute {name!r}")
