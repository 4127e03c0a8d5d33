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
recovered as Sum_l (2l+1)/(4*pi) * K_l(r, r') * P_l(cos gamma).

The kernels the package computes with need no mu-quadrature.  Each of
the two pieces of the free resolvent, e^{+-i eta s} / (4 pi s) and
e^{-kappa s} / (4 pi s), has a separable addition-theorem expansion
(DLMF 10.60.1-2), so with r< = min(r, r') and r> = max(r, r')

    R0_l(r, r') = [+-i eta j_l(eta r<) h^{(1,2)}_l(eta r>)
                   - (2/pi) kappa i_l(kappa r<) k_l(kappa r>)] / (1 + 2 eta^2),

kappa = sqrt(1 + eta^2).  free_sector_resolvent evaluates it, for one
eta or stacked over an array of them, from cylinder functions of order
l + 1/2, the modified ones exponentially scaled so that kappa * r_max ~
1e4 stays finite; at eta = 0 the oscillatory term is r<^l / ((2l+1)
r>^(l+1)).  At order l + 1/2 these functions are elementary (DLMF 10.47,
10.49), and this module evaluates them itself:

    K e^z    the finite sum sqrt(pi/2z) Sum_{k<=l} (l+k)!/(k!(l-k)!) (2z)^-k;
    I e^-z   the power series, all terms positive, for z <= l + 8 + l^2/16,
             above it the same finite sum at -1/(2z) with an e^{-2z} term;
    Y        upward recurrence from orders -1/2 and 1/2, which is stable;
    J        the power series for z <= l, above it the recurrence of Y,
             both run together as the Hankel function J + iY.

The power series share one coefficient table with the divided-difference
sum below.  Where kappa * r> is small
the two terms cancel to a value of relative size (kappa r>)^2, so there
the kernel is summed instead as a divided difference in k^2 of the
addition-theorem series, which is free of that cancellation.
g2_sector_kernel does the same for the static kernel G2, the eta^2
coefficient of R0: its far form differentiates the decaying term in
kappa, its near form differentiates the series in eta^2.

legendre_project is the one mu-quadrature, for any other kernel.  It
integrates in the separation s instead of mu, which turns the |r - r'|
endpoint singularity of Coulomb-type kernels into a smooth integrand
(the s ds jacobian supplies the vanishing factor); build_sector_operator
is its Nystrom matrix on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .kernels import FOUR_PI, _sign_factor, expansion_G, free_resolvent

__all__ = [
    "RadialGrid",
    "SectorOperator",
    "build_grid",
    "build_sector_operator",
    "default_r_max",
    "free_sector_resolvent",
    "g2_sector_kernel",
    "legendre_project",
    "resum_sectors",
]

# Classification probes sectors 0..2.
ELL_MAX_CLASSIFY = 2

# free_sector_resolvent, and g2_sector_kernel for l <= 2, sum the series where kappa r> <=
# _SERIES_RADIUS; terms shrink like (kappa r / 2)^(2m) / (m! Gamma(m - l + 1/2)), so
# _SERIES_TERMS reach rounding for every l.  From l = 3 on, g2's far form cancels further out:
# its series runs to r> = min(1 + l/2, _G2_SERIES_RADIUS_CAP) with _G2_SERIES_TERMS terms
_SERIES_RADIUS = 2.0
_SERIES_TERMS = 16
_G2_SERIES_RADIUS_CAP = 4.0
_G2_SERIES_TERMS = 20


def _i_series_reach(ell: int) -> float:
    # the closed form of I_(l+1/2)(z) e^-z loses about exp((l + 1/2)^2 / 2z) to cancellation:
    # from here on under 3e-14 for l <= 20; from z = l + 8 on, 1.7e-14 at l = 11, 1.7e-11 at l = 20
    return ell + 8.0 + ell * ell / 16.0


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
    x, w = leggauss(count)
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
    x, w = leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def legendre_project(kernel, ell: int, r, r_prime, n_mu: int | None = None):
    """Sector component K_l(r, r') of a radial kernel, elementwise over broadcast radii.

    kernel must accept numpy arrays of separations, including the
    removable-singularity limit at separation zero when r = r'.  A pair
    with a zero radius takes the exact limit 4 pi K(r>), nonzero only
    for l = 0.
    """
    if ell < 0:
        raise ValueError("sector index must be nonnegative")
    if n_mu is None:
        n_mu = _n_mu_default(ell)
    if n_mu < 2 * ell + 16:
        raise ValueError(f"n_mu={n_mu} cannot resolve P_{ell} (need >= {2 * ell + 16})")
    r, r_prime = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(r_prime, dtype=float))
    edge, hi = np.minimum(r, r_prime) < 1e-300, np.maximum(r, r_prime)
    r, r_prime = np.where(edge, 1.0, r), np.where(edge, 1.0, r_prime)  # limits taken below
    x, w = _gauss_rule(n_mu)
    a, b = np.abs(r - r_prime), r + r_prime
    half = 0.5 * (b - a)
    s = half[..., None] * x + 0.5 * (a + b)[..., None]
    mu = (r[..., None] ** 2 + r_prime[..., None] ** 2 - s**2) / (2.0 * r * r_prime)[..., None]
    np.clip(mu, -1.0, 1.0, out=mu)
    vals = np.asarray(kernel(s.ravel())).reshape(s.shape)
    if not np.all(np.isfinite(vals)):
        raise ValueError("kernel produced non-finite samples on the separation range")
    pl = _legendre_rows(ell, mu)[ell]
    out = np.asarray((2.0 * np.pi / (r * r_prime)) * half * ((vals * s * pl) @ w))
    if edge.any():
        out[edge] = FOUR_PI * np.asarray(kernel(hi[edge])) * (ell == 0)
    return out[()]


@lru_cache(maxsize=64)
def _series_coefficients(order: float, terms: int) -> np.ndarray:
    """The first terms c_m with j_order(z) = z^order * Sum_m c_m z^(2m), for whole-number order.

    c_m = sqrt(pi) 2^(-order-1) (-1/4)^m / (m! Gamma(order + m + 3/2)); |c_m| serve i_order.
    """
    coef = np.empty(terms)
    coef[0] = 0.5 * math.sqrt(math.pi) * 2.0**-order / math.gamma(order + 1.5)
    for m in range(1, terms):
        coef[m] = coef[m - 1] * -0.25 / (m * (order + m + 0.5))
    coef.setflags(write=False)
    return coef


@lru_cache(maxsize=64)
def _closed_form_coefficients(ell: int) -> np.ndarray:
    """(l + k)! / (k! (l - k)!) for k = 0..l: K_(l+1/2)(z) = sqrt(pi/2z) e^-z Sum_k b_k (2z)^-k."""
    coef = np.ones(ell + 1)
    for k in range(ell):
        coef[k + 1] = coef[k] * (ell + k + 1) * (ell - k) / (k + 1)
    coef.setflags(write=False)
    return coef


def _horner(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sum_k coef[k] x^k, in place on one array."""
    out = np.full_like(x, coef[-1])
    for c in coef[-2::-1].tolist():
        out *= x
        out += c
    return out


def _power_series(ell: int, z: np.ndarray, modified: bool) -> np.ndarray:
    """sqrt(2z/pi) z^l Sum_m c_m z^(2m): I_(l+1/2)(z) if modified, with |c_m|, else J_(l+1/2)(z).

    2 l + 22 terms reach rounding out to _i_series_reach(l), l + 12 out to l.
    """
    coef = np.abs(_series_coefficients(ell, 2 * ell + 22)) if modified else _series_coefficients(ell, ell + 12)
    return np.sqrt(2.0 * z / np.pi) * z**ell * _horner(coef, z * z)


def _modified_bessel(ell: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """I_(l+1/2)(z) e^-z and K_(l+1/2)(z) e^z for z > 0, by the forms in the module docstring."""
    z = np.asarray(z, dtype=float)
    b, u = _closed_form_coefficients(ell), 0.5 / z
    k_scaled = np.sqrt(np.pi * u) * _horner(b, u)
    i_scaled = np.empty_like(z)
    near = z <= _i_series_reach(ell)
    i_scaled[near] = _power_series(ell, z[near], modified=True) * np.exp(-z[near])
    u = u[~near]
    i_scaled[~near] = (_horner(b, -u) - (-1) ** ell * np.exp(-1.0 / u) * _horner(b, u)) * np.sqrt(u / np.pi)
    return i_scaled, k_scaled


def _bessel(ell: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_(l+1/2)(z) and Y_(l+1/2)(z) for z > 0, by the forms in the module docstring."""
    z = np.asarray(z, dtype=float)
    below = np.sqrt(2.0 / (np.pi * z)) * np.exp(1j * z)  # H^(1) of order -1/2
    hankel = -1j * below
    for n in range(ell):
        below, hankel = hankel, (2 * n + 1) / z * hankel - below
    j = hankel.real.copy()
    # to z = l both forms keep J within 5e-15 of itself for l <= 11; past it the series
    # cancels (4e-14 by z = l + 2 at l = 11), below it the recurrence's error grows as |Y/J|
    near = z <= ell
    j[near] = _power_series(ell, z[near], modified=False)
    return j, hankel.imag.copy()


@lru_cache(maxsize=64)
def _difference_weights(eta2: tuple) -> np.ndarray:
    """The weights d_n of free_sector_resolvent's series, one row per eta^2 in eta2.

    d_(n+1) = (eta^2 d_(n-1) - d_n) / (1 + eta^2) from d_0 = 0, d_1 = 1.
    They depend on the energies alone, so the sectors of one eta chunk,
    and every T0 at eta = 0, share them.
    """
    x2 = np.array(eta2)
    denominator = 1.0 + x2
    d = np.zeros((2 * _SERIES_TERMS, x2.size))
    d[1] = 1.0
    terms = list(d)  # each step in place on the rows of d
    for prev, cur, nxt in zip(terms, terms[1:], terms[2:]):
        np.multiply(x2, prev, out=nxt)
        np.subtract(nxt, cur, out=nxt)
        np.divide(nxt, denominator, out=nxt)
    d = d.T
    d.setflags(write=False)
    return d


def _series_sum(d: np.ndarray, ell: int, r: np.ndarray, r_prime: np.ndarray) -> np.ndarray:
    """Sum_{p,q} d_(p+q) u_p(r<) w_q(r>), from -k j_l(k r<) y_l(k r>) = Sum u_p w_q k^(2(p+q)).

    Weights d_n that difference or differentiate k^(2n) do so to the
    series term by term, so its leading r<^l / r>^(l+1) cancels exactly.
    Leading axes of d, r and r_prime broadcast, one matrix per entry; d
    holds two weights per series term.
    """
    p = np.arange(d.shape[-1] // 2)
    dmat = d[..., p[:, None] + p[None, :]]
    coefficient = lambda order: _series_coefficients(order, p.size)
    regular = lambda x: coefficient(ell) * x[..., None] ** (ell + 2 * p)
    irregular = lambda x: (-1.0) ** ell * coefficient(-ell - 1.0) * x[..., None] ** (2 * p - ell - 1.0)
    contract = lambda lo, hi: lo @ dmat @ np.swapaxes(hi, -1, -2)
    return np.where(
        r[..., :, None] <= r_prime[..., None, :],
        contract(regular(r), irregular(r_prime)),
        contract(irregular(r), regular(r_prime)),
    )


def _pairing(ell: int, r, r_prime):
    """Validated radii and what the closed-form sector kernels are built from.

    Returns r, r_prime, their distinct radii x (0 -> 1, see _at_zero), the
    indices a, b of r and r_prime into x, and ordered(lo, hi), the matrix
    lo(r<) hi(r>) from factors given on x, one matrix per leading index.
    """
    if ell < 0:
        raise ValueError("sector index must be nonnegative")
    r, r_prime = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (r, r_prime))
    for x in (r, r_prime):
        if np.any(x < 0.0) or not np.all(np.isfinite(x)):
            raise ValueError("radii must be finite and >= 0")
    x, index = np.unique(np.concatenate([r, r_prime]), return_inverse=True)
    x = np.where(x > 0.0, x, 1.0)
    a, b = index[: r.size], index[r.size :]
    lower = x[a][:, None] <= x[b][None, :]
    ordered = lambda lo, hi: np.where(lower, lo[..., a, None] * hi[..., None, b], hi[..., a, None] * lo[..., None, b])
    return r, r_prime, x, a, b, ordered


def _at_zero(kern: np.ndarray, ell: int, r, r_prime, kernel) -> np.ndarray:
    """kern with the exact limit 4 pi K(r>) (l = 0 only) where a radius is 0, checked finite."""
    at_zero = (r[:, None] == 0.0) | (r_prime[None, :] == 0.0)
    if at_zero.any():
        edge = FOUR_PI * kernel(np.maximum(r[:, None], r_prime[None, :]))
        kern = np.where(at_zero, edge if ell == 0 else 0.0, kern)
    if not np.all(np.isfinite(kern)):
        raise ValueError("kernel produced non-finite samples on the separation range")
    return kern


def free_sector_resolvent(sign, eta, ell: int, r, r_prime) -> np.ndarray:
    """Sector kernel R0_l(sign; eta; r_i, r'_j) of the free resolvent, in closed form.

    Returns the len(r) x len(r') matrix of the addition-theorem form in
    the module docstring for a scalar eta, and a stack of them, one per
    entry, for a 1-D array of eta.  The cylinder functions are evaluated
    once per (eta, distinct radius) and each matrix is formed from outer
    products under the r <= r' mask; radius 0 takes the exact limit,
    nonzero only for l = 0.
    """
    s = _sign_factor(sign)
    etas = np.asarray(eta, dtype=float)
    if etas.ndim > 1:
        raise ValueError("eta must be a scalar or a 1-D array")
    if not (np.isfinite(etas).all() and (etas >= 0.0).all()):
        raise ValueError("eta must be finite and >= 0")
    r, r_prime, x, a, b, ordered = _pairing(ell, r, r_prime)
    eta = np.atleast_1d(etas)[:, None]  # one row per energy, against x
    e2 = eta * eta
    kappa = np.sqrt(1.0 + e2)

    # radial factors on the distinct radii, each divided by sqrt(radius):
    # regular and outgoing oscillatory ones, exponentially scaled modified
    # ones; eta = 0 rows take the static r<^l / ((2l+1) r>^(l+1))
    root = np.sqrt(x)
    i_scaled, k_scaled = (f / root for f in _modified_bessel(ell, kappa * x))
    j_reg = np.zeros(kappa.shape[:1] + x.shape)
    reg, out = np.empty_like(j_reg, dtype=complex), np.empty_like(j_reg, dtype=complex)
    live = eta[:, 0] > 0.0
    if live.any():
        j_live, y_live = (f / root for f in _bessel(ell, eta[live] * x))
        j_reg[live] = j_live
        reg[live], out[live] = 0.5j * np.pi * s * j_live, j_live + 1j * s * y_live
    reg[~live], out[~live] = x**ell / (2 * ell + 1), x ** (-ell - 1.0)
    ra, rb = x[a], x[b]
    decaying = ordered(i_scaled, k_scaled) * np.exp(-kappa[:, :, None] * np.abs(ra[:, None] - rb[None, :]))
    kern = ordered(reg, out) - decaying

    # the series region kappa r> <= _SERIES_RADIUS of every eta lies in the
    # block of radii within it at the smallest kappa; the block is summed
    # there for every eta and kept where that eta's kappa * r> is in range
    reach = _SERIES_RADIUS / kappa.min()
    rows, cols = np.flatnonzero(ra <= reach), np.flatnonzero(rb <= reach)
    if rows.size and cols.size:
        # with F(k) = i k j_l(k r<) h_l(k r>), R0_l is the divided difference
        # (F(eta) - F(i kappa)) / (eta^2 + kappa^2).  The part of F even in k,
        # -k j_l y_l, is summed at kappa r with weights d_n = D_n / kappa^(2(n-1)),
        # D_n = (x^n - y^n) / (x - y) for x = eta^2, y = -kappa^2, by D_(n+1) =
        # (x + y) D_n - x y D_(n-1); the odd part i k j_l j_l is taken at i kappa and eta
        d = _difference_weights(tuple(e2[:, 0].tolist()))
        near_r, near_c = kappa * ra[rows], kappa * rb[cols]
        even = ((1.0 + 2.0 * e2) / kappa)[:, :, None] * _series_sum(d, ell, near_r, near_c)
        # the clamp only keeps exp finite where the block is not kept
        i_reg = i_scaled * np.exp(np.minimum(kappa * x, _SERIES_RADIUS))
        odd = (-1.0) ** ell * i_reg[:, a[rows], None] * i_reg[:, None, b[cols]]
        odd = odd + 1j * s * j_reg[:, a[rows], None] * j_reg[:, None, b[cols]]
        near = (near_r[:, :, None] <= _SERIES_RADIUS) & (near_c[:, None, :] <= _SERIES_RADIUS)
        block = (slice(None), rows[:, None], cols)
        kern[block] = np.where(near, even + 0.5 * np.pi * odd, kern[block])
    kern /= (1.0 + 2.0 * e2)[:, :, None]
    kern = _at_zero(kern, ell, r, r_prime, lambda sep: free_resolvent(s, eta[:, :, None], sep))
    return kern if etas.ndim else kern[0]


def g2_sector_kernel(ell: int, r, r_prime) -> np.ndarray:
    """Sector kernel of the static kernel G2 = -2 G0 + (e^{-s} - s)/(8 pi), in closed form.

    With a = r<, b = r>, nu = l + 1/2: -2 G0 gives -2 Re R0_l(eta = 0);
    e^{-s}/(8 pi), -(1/2) d/dkappa of e^{-kappa s}/(4 pi s) at kappa = 1,
    gives -[2 nu I_nu(a) K_nu(b) + a I_nu+1(a) K_nu(b) - b I_nu(a) K_nu+1(b)]
    / (2 sqrt(ab)); s/(8 pi) gives the biharmonic [a^(l+2) / ((2l+3) b^(l+1))
    - a^l / ((2l-1) b^(l-1))] / (2 (2l+1)).  Where b <= _SERIES_RADIUS these
    cancel, and the kernel is the eta^2 derivative at eta = 0 of the series
    form of free_sector_resolvent, whose layout and radius-0 limit it shares (l >= 3: _G2_SERIES_TERMS).
    """
    r, r_prime, x, a, b, ordered = _pairing(ell, r, r_prime)
    nu = ell + 0.5
    root = np.sqrt(x)
    i0, k0 = (f / root for f in _modified_bessel(ell, x))
    i1, k1 = (root * f for f in _modified_bessel(ell + 1, x))
    ra, rb = x[a], x[b]
    c = 2.0 * ell + 1.0
    bessel = (2.0 - nu) * ordered(i0, k0) - 0.5 * ordered(i1, k0) + 0.5 * ordered(i0, k1)
    kern = bessel * np.exp(-np.abs(ra[:, None] - rb[None, :]))
    kern += ordered(x**ell, x ** (-ell - 1.0) * (x * x / (2.0 * c * (2 * ell - 1)) - 2.0 / c))
    kern -= ordered(x ** (ell + 2.0), x ** (-ell - 1.0)) / (2.0 * c * (2 * ell + 3))

    far = (min(1.0 + 0.5 * ell, _G2_SERIES_RADIUS_CAP), _G2_SERIES_TERMS)
    radius, terms = far if ell >= 3 else (_SERIES_RADIUS, _SERIES_TERMS)
    near_a, near_b = ra <= radius, rb <= radius
    if near_a.any() and near_b.any():
        rows, cols = a[near_a], b[near_b]
        # d/d(eta^2) of D_n(eta^2, -1 - eta^2) at eta = 0, and of the odd
        # part (pi/2) (-1)^l I_nu(kappa a) I_nu(kappa b) / (sqrt(ab) (1 + 2 eta^2));
        # the clamp only keeps exp finite on radii the block never reads
        n = np.arange(2 * terms)
        d = np.where(n >= 2, (2.0 - n) * (-1.0) ** n, 0.0)
        grow = np.exp(np.minimum(x, radius))
        u0, u1 = i0 * grow, i1 * grow
        odd = 0.5 * (np.outer(u1[rows], u0[cols]) + np.outer(u0[rows], u1[cols]))
        odd += (nu - 2.0) * np.outer(u0[rows], u0[cols])
        series = _series_sum(d, ell, ra[near_a], rb[near_b])
        kern[np.ix_(near_a, near_b)] = series + 0.5 * np.pi * (-1.0) ** ell * odd
    return _at_zero(kern, ell, r, r_prime, lambda sep: expansion_G(2, sep))


def build_sector_operator(kernel, ell: int, grid: RadialGrid, oscillation: float = 0.0) -> SectorOperator:
    """Symmetrized Nystrom matrix of a radial kernel in one sector, by legendre_project.

    oscillation hints the kernel's phase rate in the separation variable
    (eta for the limiting resolvents) so enough mu-nodes are used.
    """
    n_mu = _n_mu_default(ell, oscillation * 2.0 * grid.r_max)
    iu, ju = np.triu_indices(grid.count)
    scale = np.sqrt(grid.weights) * grid.nodes
    upper = scale[iu] * legendre_project(kernel, ell, grid.nodes[iu], grid.nodes[ju], n_mu) * scale[ju]
    mat = np.zeros((grid.count, grid.count), dtype=upper.dtype)
    mat[iu, ju] = mat[ju, iu] = upper
    return SectorOperator(ell=ell, grid=grid, matrix=mat)


def resum_sectors(sector_values, cos_gamma: float):
    """Sum_l (2l+1)/(4*pi) K_l P_l(cos gamma) over the supplied sectors."""
    vals = np.asarray(sector_values)
    if not -1.0 <= cos_gamma <= 1.0:
        raise ValueError("cos_gamma must lie in [-1, 1]")
    ell = np.arange(vals.shape[0])
    pl = _legendre_rows(ell[-1], np.array([float(cos_gamma)]))[:, 0]
    return np.tensordot((2.0 * ell + 1.0) / FOUR_PI * pl, vals, axes=(0, 0))
