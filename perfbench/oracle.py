"""Reference computations the benchmark checks the program against.

Nothing here imports fourthorder: the decay exponents are fitted with a
plain least-squares line in log-log coordinates, and free-kernel values
are recomputed by scipy quadrature on a rotated contour.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

# the ray eta = e^{-i theta} s; any 0 < theta < pi/4 keeps e^{-it eta^4} decaying
THETA = math.pi / 16.0


def slope(ts, values) -> float:
    """Exponent p of the least-squares fit values ~ C t^p."""
    return float(np.polyfit(np.log(np.asarray(ts, dtype=float)), np.log(np.asarray(values, dtype=float)), 1)[0])


def free_kernel(t: float, r: float) -> complex:
    """Free propagator kernel e^{-itH0}(r) of H0 = Delta^2 - Delta on R^3.

    Stone's formula in eta (lambda = eta^4 + eta^2) gives
        K(t, r) = (2 pi i)^{-1} Int_0^inf e^{-it lambda} J(eta, r) (4 eta^3 + 2 eta) d eta,
    with the resolvent jump J = i sin(eta r) / (2 pi r (1 + 2 eta^2)).
    The integrand is entire and decays in the sector -pi/4 < arg eta < 0
    for t > 0, so the contour is turned onto a ray where adaptive
    quadrature converges without tracking the oscillation.
    """
    # imported here, not at module level: the program never loads
    # scipy.integrate, and the worker imports this module inside set-up
    from scipy.integrate import quad

    rot = cmath.exp(-1j * THETA)

    def integrand(s: float) -> complex:
        eta = rot * s
        phase = -1j * t * (eta**4 + eta**2)
        # i sin(eta r) e^{phase}, with the exponents summed before exp so
        # large s underflows to 0 instead of overflowing sin
        if r > 0.0:
            osc = (cmath.exp(phase + 1j * eta * r) - cmath.exp(phase - 1j * eta * r)) / (2.0 * r)
        else:
            osc = 1j * eta * cmath.exp(phase)
        jump = osc / (2.0 * math.pi * (1.0 + 2.0 * eta * eta))
        return jump * (4.0 * eta**3 + 2.0 * eta) * rot / (2j * math.pi)

    opts = dict(epsabs=1e-13, epsrel=1e-12, limit=400)
    re = quad(lambda s: integrand(s).real, 0.0, math.inf, **opts)[0]
    im = quad(lambda s: integrand(s).imag, 0.0, math.inf, **opts)[0]
    return complex(re, im)
