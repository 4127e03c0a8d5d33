"""Angular-momentum reduction of radial 3D kernels.

A translation-invariant kernel K(|x-y|) acts on each angular-momentum
sector independently; this module produces the per-sector Nystrom
matrices that the rest of the package does its operator algebra on.

Conventions.  For a radial quadrature grid {r_i, w_i}, a function f is
represented by the coefficient vector c_i = sqrt(w_i) * r_i * f(r_i), so
Euclidean inner products of coefficients equal discretized inner products
in L^2(r^2 dr).  The sector kernel is

    K_l(r, r') = 2*pi * Int_{-1}^{1} K(sep(mu)) P_l(mu) d mu,

with sep(mu) = sqrt(r^2 + r'^2 - 2 r r' mu), and the full kernel is
recovered as Sum_l (2l+1)/(4*pi) * K_l(r, r') * P_l(cos gamma).  The mu
integral is evaluated after substituting the separation s for mu, which
turns the |r - r'| endpoint singularity of Coulomb-type kernels into a
smooth integrand (the s ds jacobian supplies the vanishing factor).

The free resolvent needs no mu-quadrature.  Each of its two pieces,
e^{+-i eta s} / (4 pi s) and e^{-kappa s} / (4 pi s), has a separable
addition-theorem expansion (DLMF 10.60.1-2), so with r< = min(r, r') and
r> = max(r, r')

    R0_l(r, r') = [+-i eta j_l(eta r<) h^{(1,2)}_l(eta r>)
                   - (2/pi) kappa i_l(kappa r<) k_l(kappa r>)] / (1 + 2 eta^2),

kappa = sqrt(1 + eta^2).  free_sector_resolvent evaluates it from
cylinder functions of order l + 1/2, the modified ones exponentially
scaled so that kappa * r_max ~ 1e4 stays finite; at eta = 0 the
oscillatory term is r<^l / ((2l+1) r>^(l+1)).  Where kappa * r> is small
the two terms cancel to a value of relative size (kappa r>)^2, so there
the kernel is summed instead as a divided difference in k^2 of the
addition-theorem series, which is free of that cancellation.
build_sector_operator remains the quadrature for other kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import iv, ive, jv, kve, rgamma, yv

from .kernels import FOUR_PI, _sign_factor, free_resolvent

__all__ = [
    "RadialGrid",
    "SectorOperator",
    "build_grid",
    "build_sector_operator",
    "default_r_max",
    "free_sector_resolvent",
    "legendre_project",
    "resum_sectors",
]

# Classification probes sectors 0..2.
ELL_MAX_CLASSIFY = 2

# free_sector_resolvent sums the series where kappa * r> is at most this;
# the terms there shrink like (kappa r / 2)^(2m) / (m! Gamma(m - l + 1/2)),
# so _SERIES_TERMS of them reach rounding for every l
_SERIES_RADIUS = 2.0
_SERIES_TERMS = 16


def default_r_max(beta: float, floor: float = 1e-8) -> float:
    """Radius beyond which the half-potential weight (1+r)^(-beta/2) < floor."""
    if not (beta > 0.0):
        raise ValueError("decay exponent must be positive")
    return float(floor ** (-2.0 / beta) - 1.0)


@dataclass(frozen=True)
class RadialGrid:
    nodes: np.ndarray
    weights: np.ndarray
    r_max: float
    count: int

    def __post_init__(self):
        if not (np.all(np.diff(self.nodes) > 0.0) and self.nodes[0] > 0.0):
            raise ValueError("nodes must be strictly increasing and positive")
        if not np.all(self.weights > 0.0):
            raise ValueError("weights must be positive")
        moment = float(np.sum(self.weights * self.nodes**2))
        exact = self.r_max**3 / 3.0
        if abs(moment - exact) > 1e-10 * exact:
            raise ValueError("weights fail the r^2 moment check")

    def coefficients(self, f) -> np.ndarray:
        """Coefficient vector of a radial function (callable or samples)."""
        vals = f(self.nodes) if callable(f) else np.asarray(f)
        return np.sqrt(self.weights) * self.nodes * vals

    def values(self, coeffs: np.ndarray) -> np.ndarray:
        """Point values at the nodes from a coefficient vector."""
        return np.asarray(coeffs) / (np.sqrt(self.weights) * self.nodes)

    def norm(self, coeffs: np.ndarray) -> float:
        return float(np.linalg.norm(coeffs))


def build_grid(count: int, r_max: float | None = None, beta: float | None = None) -> RadialGrid:
    """Gauss-Legendre grid on (0, r_max].

    r_max defaults to the radius where the asserted potential tail
    (1+r)^(-beta/2) drops below 1e-8.
    """
    if count < 8:
        raise ValueError(f"need at least 8 nodes, got {count}")
    if r_max is None:
        if beta is None:
            raise ValueError("need r_max or a decay exponent to choose it")
        r_max = default_r_max(beta)
    if not (r_max > 0.0 and np.isfinite(r_max)):
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    x, w = np.polynomial.legendre.leggauss(count)
    nodes = 0.5 * r_max * (x + 1.0)
    weights = 0.5 * r_max * w
    return RadialGrid(nodes=nodes, weights=weights, r_max=float(r_max), count=count)


@dataclass(frozen=True)
class SectorOperator:
    ell: int
    grid: RadialGrid
    matrix: np.ndarray


def _legendre_rows(ell_max: int, mu: np.ndarray) -> np.ndarray:
    """P_0..P_ell_max at mu by upward recurrence; shape (ell_max+1, *mu.shape)."""
    out = np.empty((ell_max + 1,) + mu.shape)
    out[0] = 1.0
    if ell_max >= 1:
        out[1] = mu
    for ell in range(1, ell_max):
        out[ell + 1] = ((2 * ell + 1) * mu * out[ell] - ell * out[ell - 1]) / (ell + 1)
    return out


def _n_mu_default(ell: int, oscillation: float = 0.0) -> int:
    # GL resolves ~0.55 nodes per unit of half-range phase; oscillation is
    # the kernel's max |d phase / d separation|, the half-range is r+r'
    return int(2 * ell + 24 + np.ceil(0.6 * oscillation))


@lru_cache(maxsize=256)
def _gauss_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def legendre_project(kernel, ell: int, r: float, r_prime: float, n_mu: int | None = None):
    """Sector component K_l(r, r') of a radial kernel.

    kernel must accept numpy arrays of separations, including the
    removable-singularity limit at separation zero when r = r'.
    """
    if ell < 0:
        raise ValueError("sector index must be nonnegative")
    if n_mu is None:
        n_mu = _n_mu_default(ell)
    if n_mu < 2 * ell + 16:
        raise ValueError(f"n_mu={n_mu} cannot resolve P_{ell} (need >= {2 * ell + 16})")
    lo, hi = min(r, r_prime), max(r, r_prime)
    if lo < 1e-300:
        val = 4.0 * np.pi * np.asarray(kernel(np.array([hi])))[0]
        return val if ell == 0 else 0.0 * val
    x, w = _gauss_rule(n_mu)
    a, b = hi - lo, hi + lo
    s = 0.5 * (b - a) * x + 0.5 * (b + a)
    mu = np.clip((r**2 + r_prime**2 - s**2) / (2.0 * r * r_prime), -1.0, 1.0)
    vals = np.asarray(kernel(s))
    if not np.all(np.isfinite(vals)):
        raise ValueError("kernel produced non-finite samples on the separation range")
    pl = _legendre_rows(ell, mu)[ell]
    return (2.0 * np.pi / (r * r_prime)) * 0.5 * (b - a) * np.sum(w * vals * s * pl)


def _pair_projection(kernel, ell: int, r: np.ndarray, r_prime: np.ndarray, n_mu: int) -> np.ndarray:
    """K_l(r_k, r'_k) for each pair of positive radii, vectorised over pairs."""
    x, w = _gauss_rule(n_mu)
    a, b = np.abs(r - r_prime), r + r_prime
    half = 0.5 * (b - a)
    s = half[:, None] * x[None, :] + 0.5 * (a + b)[:, None]
    mu = (r[:, None] ** 2 + r_prime[:, None] ** 2 - s**2) / (2.0 * r * r_prime)[:, None]
    np.clip(mu, -1.0, 1.0, out=mu)
    vals = np.asarray(kernel(s.ravel())).reshape(s.shape)
    if not np.all(np.isfinite(vals)):
        raise ValueError("kernel produced non-finite samples on the separation range")
    pl = _legendre_rows(ell, mu)[ell]
    return (2.0 * np.pi / (r * r_prime)) * half * ((vals * s * pl) @ w)


@lru_cache(maxsize=64)
def _series_coefficients(order: float) -> np.ndarray:
    """c_m with j_order(z) = z^order * Sum_m c_m z^(2m), for half-odd 2*order."""
    m = np.arange(_SERIES_TERMS)
    fact = np.cumprod(np.maximum(m, 1))
    coef = 0.5 * np.sqrt(np.pi) * 2.0**-order * (-0.25) ** m / fact * rgamma(order + m + 1.5)
    coef.setflags(write=False)
    return coef


def _series_even_part(eta: float, ell: int, r: np.ndarray, r_prime: np.ndarray) -> np.ndarray:
    """The part of (1 + 2 eta^2) R0_l(r, r') even in k, for kappa * r <= _SERIES_RADIUS.

    With F(k) = i k j_l(k r<) h_l(k r>), the kernel is the divided
    difference (F(eta) - F(i kappa)) / (eta^2 - (i kappa)^2).  The even
    part -k j_l y_l of F is a power series in k^2 whose divided
    difference D_p = (x^p - y^p) / (x - y), x = eta^2, y = -kappa^2, is
    summed term by term, so its leading r<^l / r>^(l+1) cancels exactly.
    """
    kappa2 = 1.0 + eta * eta
    kappa = np.sqrt(kappa2)
    # d_p = D_p / kappa^(2(p-1)) from D_(p+1) = (x + y) D_p - x y D_(p-1)
    d = np.zeros(2 * _SERIES_TERMS)
    d[1] = 1.0
    for p in range(1, d.size - 1):
        d[p + 1] = (-d[p] + eta * eta * d[p - 1]) / kappa2
    p = np.arange(_SERIES_TERMS)
    dmat = d[p[:, None] + p[None, :]]
    regular = lambda x: _series_coefficients(ell) * (kappa * x[:, None]) ** (ell + 2 * p)
    irregular = lambda x: (
        (-1.0) ** ell * _series_coefficients(-ell - 1.0) * (kappa * x[:, None]) ** (2 * p - ell - 1.0)
    )
    even = np.where(
        r[:, None] <= r_prime[None, :],
        regular(r) @ dmat @ irregular(r_prime).T,
        irregular(r) @ dmat @ regular(r_prime).T,
    )
    return (1.0 + 2.0 * eta * eta) / kappa * even


def free_sector_resolvent(sign, eta: float, ell: int, r, r_prime) -> np.ndarray:
    """Sector kernel R0_l(sign; eta; r_i, r'_j) of the free resolvent, in closed form.

    Returns the len(r) x len(r') matrix of the addition-theorem form in
    the module docstring.  The cylinder functions are evaluated once per
    distinct radius and the matrix is formed from outer products under
    the r <= r' mask; radius 0 takes the exact limit, nonzero only for
    l = 0.
    """
    s = _sign_factor(sign)
    eta = float(eta)
    if not (eta >= 0.0 and np.isfinite(eta)):
        raise ValueError("eta must be finite and >= 0")
    if ell < 0:
        raise ValueError("sector index must be nonnegative")
    r = np.atleast_1d(np.asarray(r, dtype=float))
    r_prime = np.atleast_1d(np.asarray(r_prime, dtype=float))
    for x in (r, r_prime):
        if np.any(x < 0.0) or not np.all(np.isfinite(x)):
            raise ValueError("radii must be finite and >= 0")
    kappa = np.sqrt(1.0 + eta * eta)
    nu = ell + 0.5

    # radial factors on the distinct radii, each divided by sqrt(radius):
    # regular and outgoing oscillatory ones, exponentially scaled modified ones
    x, index = np.unique(np.concatenate([r, r_prime]), return_inverse=True)
    x = np.where(x > 0.0, x, 1.0)  # radius 0 takes its limit at the end
    root = np.sqrt(x)
    i_scaled, k_scaled = ive(nu, kappa * x) / root, kve(nu, kappa * x) / root
    if eta == 0.0:
        reg, out = x**ell / (2 * ell + 1), x ** (-ell - 1.0)
    else:
        j_reg = jv(nu, eta * x) / root
        reg, out = 0.5j * np.pi * s * j_reg, j_reg + 1j * s * yv(nu, eta * x) / root
    a, b = index[: r.size], index[r.size :]
    ra, rb = x[a], x[b]
    lower = ra[:, None] <= rb[None, :]
    oscillatory = np.where(lower, np.outer(reg[a], out[b]), np.outer(out[a], reg[b]))
    decaying = np.where(lower, np.outer(i_scaled[a], k_scaled[b]), np.outer(k_scaled[a], i_scaled[b]))
    kern = (oscillatory - decaying * np.exp(-kappa * np.abs(ra[:, None] - rb[None, :]))).astype(complex)

    near_a, near_b = kappa * ra <= _SERIES_RADIUS, kappa * rb <= _SERIES_RADIUS
    if near_a.any() and near_b.any():
        # the odd part i k j_l j_l of F at k = i kappa, and at k = eta
        i_reg = i_scaled * np.exp(kappa * x)
        odd = (-1.0) ** ell * np.outer(i_reg[a][near_a], i_reg[b][near_b]).astype(complex)
        if eta > 0.0:
            odd += 1j * s * np.outer(j_reg[a][near_a], j_reg[b][near_b])
        even = _series_even_part(eta, ell, ra[near_a], rb[near_b])
        kern[np.ix_(near_a, near_b)] = even + 0.5 * np.pi * odd
    kern /= 1.0 + 2.0 * eta * eta
    at_zero = (r[:, None] == 0.0) | (r_prime[None, :] == 0.0)
    if at_zero.any():
        edge = FOUR_PI * free_resolvent(s, eta, np.maximum(r[:, None], r_prime[None, :]))
        kern = np.where(at_zero, edge if ell == 0 else 0.0, kern)
    if not np.all(np.isfinite(kern)):
        raise ValueError("kernel produced non-finite samples on the separation range")
    return kern


def build_sector_operator(
    kernel, ell: int, grid: RadialGrid, oscillation: float = 0.0
) -> SectorOperator:
    """Symmetrized Nystrom matrix of a radial kernel in one sector.

    oscillation hints the kernel's phase rate in the separation variable
    (eta for the limiting resolvents) so enough mu-nodes are used.
    """
    n_mu = _n_mu_default(ell, oscillation * 2.0 * grid.r_max)
    r = grid.nodes
    n = grid.count
    iu, ju = np.triu_indices(n)
    proj = _pair_projection(kernel, ell, r[iu], r[ju], n_mu)
    sw = np.sqrt(grid.weights)
    scale_i = sw[iu] * r[iu]
    scale_j = sw[ju] * r[ju]
    mat = np.zeros((n, n), dtype=proj.dtype)
    mat[iu, ju] = scale_i * proj * scale_j
    mat[ju, iu] = mat[iu, ju]
    return SectorOperator(ell=ell, grid=grid, matrix=mat)


def resum_sectors(sector_values, cos_gamma: float):
    """Sum_l (2l+1)/(4*pi) K_l P_l(cos gamma) over the supplied sectors."""
    vals = np.asarray(sector_values)
    if not -1.0 <= cos_gamma <= 1.0:
        raise ValueError("cos_gamma must lie in [-1, 1]")
    ell = np.arange(vals.shape[0])
    pl = _legendre_rows(ell[-1], np.array([float(cos_gamma)]))[:, 0]
    return np.tensordot((2.0 * ell + 1.0) / FOUR_PI * pl, vals, axes=(0, 0))
