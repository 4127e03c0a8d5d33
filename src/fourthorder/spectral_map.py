"""Change of variables between the spectral parameter and the momentum variable.

The symbol of Delta^2 - Delta is |xi|^4 + |xi|^2, so the natural radial
momentum variable eta satisfies lambda = eta^4 + eta^2.  Everything
downstream (kernel evaluation, Stone-formula quadrature, low-energy
expansions) is parameterised by eta rather than lambda, and the Stone
measure d(lambda) picks up the Jacobian 4 eta^3 + 2 eta.
"""
from __future__ import annotations

import numpy as np


def _checked(x, name: str):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if np.any(arr < 0.0):
        raise ValueError(f"{name} must be nonnegative")
    return arr


def lambda_of_eta(eta):
    """Spectral parameter eta^4 + eta^2 for momentum eta >= 0."""
    eta = _checked(eta, "eta")
    return eta * eta * (eta * eta + 1.0)


def eta_of_lambda(lam):
    """Inverse map of ``lambda_of_eta``.

    Uses eta^2 = lambda / (sqrt(1/4 + lambda) + 1/2), which is exact and
    avoids the cancellation the textbook form sqrt(1/4+lambda) - 1/2
    suffers for small lambda.
    """
    lam = _checked(lam, "lambda")
    return np.sqrt(lam / (np.sqrt(0.25 + lam) + 0.5))


def stone_jacobian(eta):
    """d(lambda)/d(eta) = 4 eta^3 + 2 eta."""
    eta = _checked(eta, "eta")
    return eta * (4.0 * eta * eta + 2.0)
