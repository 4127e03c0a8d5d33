"""Radial kernels of the free resolvent of Delta^2 - Delta and their expansions.

The free resolvent along the continuous spectrum splits into two second-order
pieces and has the closed radial form

    R0(sign; eta, r) = (e^{sign*i*eta*r} - e^{-sqrt(1+eta^2) r})
                       / (4 pi r (1 + 2 eta^2)),

together with its boundary-value difference across the spectrum, the
derivative in eta, and the small-eta expansion kernels G0..G4 with remainder
O(eta^5 r^4).  All evaluators are vectorised over r (and broadcast over eta)
and take their exact finite limits at r = 0.
"""
from __future__ import annotations

import numpy as np

FOUR_PI = 4.0 * np.pi

# Small-r limits of the expansion kernels with a 1/r structure, frozen from
# the offline Taylor expansion of the closed forms.
G0_AT_ZERO = 1.0 / FOUR_PI
G2_AT_ZERO = -3.0 / (8.0 * np.pi)
G4_AT_ZERO = 23.0 / (32.0 * np.pi)

PLUS = 1
MINUS = -1


def _sign_factor(sign) -> float:
    if sign in (PLUS, "+", "plus"):
        return 1.0
    if sign in (MINUS, "-", "minus"):
        return -1.0
    raise ValueError(f"sign must be +1 or -1, got {sign!r}")


def _broadcast(eta, r):
    eta = np.asarray(eta, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(eta < 0.0) or not np.all(np.isfinite(eta)):
        raise ValueError("eta must be finite and >= 0")
    if np.any(r < 0.0) or not np.all(np.isfinite(r)):
        raise ValueError("r must be finite and >= 0")
    return np.broadcast_arrays(eta, r)


def free_resolvent(sign, eta, r):
    """Boundary value of the free resolvent kernel at momentum eta.

    The numerator is evaluated as (e^{i s eta r} - 1) - (e^{-kappa r} - 1)
    through sin^2 and expm1, which is exact to machine precision for every
    r, so no series switch is needed near the diagonal.
    """
    s = _sign_factor(sign)
    eta, r = _broadcast(eta, r)
    kappa = np.sqrt(1.0 + eta * eta)
    pref = 1.0 / (FOUR_PI * (1.0 + 2.0 * eta * eta))

    rs = np.where(r > 0.0, r, 1.0)
    half = np.sin(eta * rs / 2.0)
    num = (-2.0 * half * half - np.expm1(-kappa * rs)) + 1j * (s * np.sin(eta * rs))
    off_diag = pref * num / rs
    diag = pref * (kappa + 1j * s * eta)
    return np.where(r > 0.0, off_diag, diag)


def free_resolvent_diff(eta, r):
    """Jump of the free resolvent across the spectrum, R0(+) - R0(-).

    Equals i sin(eta r) / (2 pi r (1 + 2 eta^2)); the sinc form below is
    finite at r = 0 and eta = 0.
    """
    eta, r = _broadcast(eta, r)
    return 1j * eta * np.sinc(eta * r / np.pi) / (2.0 * np.pi * (1.0 + 2.0 * eta * eta))


def expansion_G(j: int, r):
    """Closed form of the j-th small-eta expansion kernel, j in 0..4.

    The expansion reads R0(+/-) = G0 +/- i eta G1 + eta^2 G2 +/- i eta^3 G3
    + eta^4 G4 + O(eta^5 r^4); each G_j is real.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0) or not np.all(np.isfinite(r)):
        raise ValueError("r must be finite and >= 0")
    rs = np.where(r > 0.0, r, 1.0)
    if j == 0:
        return np.where(r > 0.0, -np.expm1(-rs) / (FOUR_PI * rs), G0_AT_ZERO)
    if j == 1:
        return np.full_like(r, 1.0 / FOUR_PI)
    if j == 2:
        val = (np.exp(-rs) - rs) / (8.0 * np.pi) + np.expm1(-rs) / (2.0 * np.pi * rs)
        return np.where(r > 0.0, val, G2_AT_ZERO)
    if j == 3:
        return -1.0 / (2.0 * np.pi) - r * r / (24.0 * np.pi)
    if j == 4:
        val = (
            -np.expm1(-rs) / (np.pi * rs)
            + (rs - np.exp(-rs)) / FOUR_PI
            + rs**3 / (96.0 * np.pi)
            - (1.0 + rs) * np.exp(-rs) / (32.0 * np.pi)
        )
        return np.where(r > 0.0, val, G4_AT_ZERO)
    raise ValueError(f"expansion order j must be in 0..4, got {j}")


def expansion_partial_sum(sign, eta, r, order: int):
    """Partial sum of the small-eta expansion through eta^order.

    Even orders enter with coefficient 1, odd orders with sign*i.
    """
    s = _sign_factor(sign)
    if order < 0 or order > 4:
        raise ValueError("order must be in 0..4")
    eta, r = _broadcast(eta, r)
    total = np.zeros(np.broadcast_shapes(eta.shape, r.shape), dtype=complex)
    for j in range(order + 1):
        coef = 1.0 if j % 2 == 0 else 1j * s
        total = total + coef * eta**j * expansion_G(j, r)
    return total
