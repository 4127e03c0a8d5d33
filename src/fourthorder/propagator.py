"""Time evolution and resolvent synthesis for the perturbed operator.

The evolution kernel is the Stone integral of the boundary difference of
perturbed resolvents.  The free part has an entire closed-form
integrand: for |t| > 1 a fixed Gauss rule on a rotated ray integrates it
at a cost independent of t (contour rotation, Huybrechs & Vandewalle,
SIAM J. Numer. Anal. 44, 2006), and for |t| <= 1, or where the ray's own
estimate misses the tolerance, real-axis panels with a certified
improper tail do.  The potential's correction enters through
per-sector sandwiches (R0 v) M^{-1} (v R0).  Both R0 v rows and the R0
block of M come from the closed-form sector kernel
R0_l(r, r') = [i eta j_l(eta r<) h_l(eta r>) - (2/pi) kappa i_l(kappa r<)
k_l(kappa r>)] / (1 + 2 eta^2) of partial_waves.free_sector_resolvent
(the addition theorems of DLMF 10.60), with no mu-quadrature.  A
sandwich still needs M(eta) inverted at every energy, so a
CorrectionCache samples the sector-resummed difference once per geometry
on an eta grid, splines it, and every time sample integrates the cheap
spline.  The cache, and G's second-kernel display, evaluate the kernel
and invert M for a whole chunk of eta nodes per sector in one stacked
call each.  Only the + boundary is ever assembled: for real data the -
boundary is its complex conjugate.

Threshold corrections: at a zero-energy resonance or eigenvalue the
sandwich difference carries a 1/eta pole whose Stone integral decays only
like t^{-1/2}.  The pole must be removed over the full energy range: a
correction truncated at eta = t^{-1/2} leaves a Fresnel-sized t^{-1/2}
residue from the pole's tail beyond the cut.  build_threshold_data derives
the zero-energy pole blocks once; F_kernel and G_kernel sandwich them as
separable finite-rank operators times the full-range Stone weight
integral (on the same rotated ray as the free kernel), and the cache
reads its pole coefficient from the same blocks, so the evolution's
subtract="auto" mode performs the equivalent subtraction.  G additionally carries the second-kernel boundary-difference
display, which is itself of t^{-3/2} size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .birman_schwinger import (
    Potential,
    _free_sector_matrix,
    _m_from_r0,
    _projection,
    _resonance_block,
    _second_kernel_block,
    build_M,
    build_P,
    jn_invert,
)
from .kernels import FOUR_PI, MINUS, PLUS, _sign_factor, free_resolvent, free_resolvent_diff
from .oscillatory import (
    DEFAULT_MAX_PANELS,
    IntegrationPlan,
    QuadResult,
    _integrate,
    improper_tail,
)
from .partial_waves import (
    ELL_MAX_CLASSIFY,
    RadialGrid,
    _gauss_rule,
    free_sector_resolvent,
    resum_sectors,
)
from .spectral_map import eta_of_lambda, lambda_of_eta, stone_jacobian

__all__ = [
    "CorrectionCache",
    "Geometry",
    "PropagatorSample",
    "ThresholdData",
    "F_kernel",
    "G_kernel",
    "build_threshold_data",
    "evolution_kernel",
    "free_kernel",
    "perturbed_resolvent",
    "weighted_norm",
    "weighted_operator",
]

_STONE_PREFACTOR = 1.0 / (2.0j * math.pi)

# eta grid for correction caches: logarithmic through the threshold region,
# then fine enough linear steps to keep the e^{i eta (r+r')} structure of
# the sandwiches inside cubic-spline accuracy.  The log top is where the
# geometric spacing has shrunk to the linear step.
_CACHE_ETA_LOG_TOP = 0.05
_CACHE_ETA_LOG_COUNT = 28
_CACHE_ETA_STEP = 0.025
DEFAULT_CACHE_ETA_TOP = 8.0

# measured cubic-spline bias of the cached difference, relative to the
# correction body, at the step sizes above
_SPLINE_REL = 1e-4

# where the first-order pole blocks are read off.  A bisection-tuned
# potential is critical only to ~1e-11, which caps the singular growth of
# M^{-1} below a crossover eta (sqrt of the detuning for a second-order
# pole), so the limit of -eta Im M^{-1} must be taken on the plateau above
# the crossover, not at eta -> 0.  B(eta) = -eta Im M^{-1}(eta) is even in
# eta to leading order, so the blocks are the quadratic Richardson step
# (4 B(h) - B(2h)) / 3 on that plateau, which cancels its eta^2 term.
_POLE_FIT_ETA = 1e-3

# stacked sector kernels and inverses run on eta chunks of at most this many
# elements per stacked matrix, which bounds their temporaries to ~1 MB each
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class Geometry:
    """Spatial sample point pair: radii and the angle cosine between them."""

    r: float
    r_prime: float
    cos_gamma: float

    def __post_init__(self):
        if not (self.r >= 0.0 and self.r_prime >= 0.0):
            raise ValueError("radii must be nonnegative")
        if not -1.0 <= self.cos_gamma <= 1.0:
            raise ValueError("cos_gamma must lie in [-1, 1]")

    @property
    def separation(self) -> float:
        sq = self.r**2 + self.r_prime**2 - 2.0 * self.r * self.r_prime * self.cos_gamma
        return math.sqrt(max(sq, 0.0))


@dataclass(frozen=True)
class PropagatorSample:
    """One evolution-kernel value with its error and correction accounting."""

    t: float
    geometry: Geometry
    value: complex
    correction_subtracted: str
    correction: complex
    est_error: float


def _sandwich_rows(eta, ell: int, radii, potential: Potential, grid: RadialGrid) -> np.ndarray:
    """Coefficients of v R0+(eta; r, .) for each off-grid radius r, one row each.

    A 1-D eta array gives a stack of such row sets, one per entry.
    """
    rows = free_sector_resolvent(PLUS, eta, ell, radii, grid.nodes)
    return rows * (np.sqrt(grid.weights) * grid.nodes * potential.half(grid.nodes))


def _eta_chunks(count: int, per_eta: int):
    """Slices of an eta array holding at most _BLOCK_ELEMENTS stacked matrix elements each."""
    step = max(1, _BLOCK_ELEMENTS // per_eta)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


# the rotated ray eta = e^{-i pi/8} y / sqrt(t): the quartic phase turns
# into the decay e^{-y^4/t - y^2/sqrt2}, below 1e-24 past y = 9, so a
# fixed Gauss rule on [0, 9] converges for t > 1
_RAY_ROTATION = np.exp(-1j * np.pi / 8.0)
_RAY_Y_MAX = 9.0
_RAY_ORDERS = (96, 128)


def _ray_integral(t: float, amplitude, frequency: float = 0.0) -> QuadResult:
    """int_0^inf amplitude(eta) e^{-it(eta^4 + eta^2)} d eta for |t| > 1, on the rotated ray.

    amplitude must be entire, vectorised over complex eta, real on the
    real axis and bounded by a quadratic in |eta| times e^{frequency
    |Im eta|}, as eta sin(eta s) / s is for s <= frequency.  The
    integrand then decays in the sector between the real axis and the
    ray, so the ray gives the same integral, and the value at -t is the
    conjugate of the one at t.  The error adds three parts: the
    difference of the two rule orders; rounding, eps * sum w |f| with
    each term weighted by the size of its exponents, since the amplitude
    may grow along the ray and its terms cancel; and the truncation at
    y = 9, the endpoint integrand over its log-slope there.
    """
    if not abs(t) > 1.0:
        raise ValueError("the rotated ray needs |t| > 1")
    if t < 0.0:
        mirror = _ray_integral(-t, amplitude, frequency)
        return QuadResult(value=mirror.value.conjugate(), error=mirror.error, panels=0)
    root, w2 = math.sqrt(t), _RAY_ROTATION**2

    def integrand(y):
        # d eta = e^{-i pi/8} dy / sqrt(t)
        decay = np.exp(-(y**4) / t - 1j * w2 * y**2)
        return amplitude(_RAY_ROTATION * y / root) * decay * (_RAY_ROTATION / root)

    half = 0.5 * _RAY_Y_MAX
    values = []
    # e^{+-i eta s} overflows on the ray once s |eta| sin(pi/8) passes ~710;
    # such a sum has no estimate to trust and reports an infinite error
    with np.errstate(over="ignore", invalid="ignore"):
        for order in _RAY_ORDERS:
            x, w = _gauss_rule(order)
            y = half * (x + 1.0)
            f = integrand(y)
            values.append(half * (w @ f))
        exponents = 1.0 + y**2 + y**4 / t + frequency * y / root
        rounding = np.finfo(float).eps * half * (w @ (np.abs(f) * exponents))
        # log-slope of the decay less that of the amplitude, e^{s |eta| sin(pi/8)} |eta|^2
        y_max = _RAY_Y_MAX
        slope = 4.0 * y_max**3 / t + math.sqrt(2.0) * y_max
        slope -= frequency * math.sin(math.pi / 8.0) / root + 2.0 / y_max
        truncation = abs(integrand(np.array([y_max]))[0]) / slope if slope > 0.0 else math.inf
        error = abs(values[-1] - values[0]) + rounding + truncation
    if not math.isfinite(error):
        error = math.inf
    return QuadResult(value=complex(values[-1]), error=float(error), panels=0)


def _free_kernel_result(t: float, separation: float, tol: float) -> QuadResult:
    """Free kernel with its error: the rotated ray for |t| > 1, else panels.

    For |t| > 1 the ray of _ray_integral is taken when its own estimate
    meets tol; otherwise, and for |t| <= 1, the real-axis panels of
    improper_tail with the certified tail run instead.
    """
    if not (t != 0.0 and np.isfinite(t)):
        raise ValueError("time must be finite and nonzero")
    if separation < 0.0:
        raise ValueError("separation must be nonnegative")
    if abs(t) > 1.0:
        # (4 eta^3 + 2 eta) / (1 + 2 eta^2) = 2 eta turns the Stone integrand
        # into eta sin(eta s) / (2 pi^2 s), entire in eta
        amplitude = lambda eta: eta**2 * np.sinc(eta * separation / np.pi) / (2.0 * np.pi**2)
        ray = _ray_integral(t, amplitude, frequency=separation)
        if ray.error <= tol * (1.0 + abs(ray.value)):
            return ray
    f = lambda eta: _STONE_PREFACTOR * free_resolvent_diff(eta, separation)
    # |R0+ - R0-| <= 1/(2 pi (1+2 eta^2)) * eta <= eta^{-1}/(4 pi^2): decays like 1/eta
    return improper_tail(f, t, 0.0, tol=tol, min_eta=2.0 * separation)


def free_kernel(t: float, separation: float, tol: float = 1e-9) -> complex:
    """Evolution kernel of the unperturbed operator at separation |x - y|.

    For |t| > 1 it is a fixed Gauss rule on a rotated ray, at a cost
    independent of t, whenever that rule's estimate meets tol; for
    |t| <= 1, or where the ray cancels too badly (separation large
    against t), it falls back to real-axis panels, which raise
    ConvergenceError when they cannot meet tol either.
    """
    return _free_kernel_result(t, separation, tol).value


def perturbed_resolvent(
    sign,
    eta: float,
    geometry: Geometry,
    potential: Potential,
    grid: RadialGrid,
    ell_max: int = ELL_MAX_CLASSIFY,
    classification=None,
) -> complex:
    """R_V(x, y) at one boundary energy by the symmetric resolvent identity.

    The correction is resummed over sectors 0..ell_max; pass the
    classification to stabilize near-threshold inversions.
    """
    if eta < 0.0:
        raise ValueError("eta must be nonnegative")
    if ell_max < 0:
        raise ValueError(f"ell_max must be >= 0, got {ell_max}")
    sign = PLUS if _sign_factor(sign) > 0.0 else MINUS
    s1 = {} if classification is None else classification.s1_basis
    sands = []
    for ell in range(ell_max + 1):
        m_op = build_M(sign, eta, potential, grid, ell)
        minv = jn_invert(m_op, _projection(s1.get(ell), grid.count)).matrix
        left, right = _sandwich_rows(eta, ell, [geometry.r, geometry.r_prime], potential, grid)
        if sign == MINUS:
            left, right = left.conj(), right.conj()
        sands.append(left @ minv @ right)
    total = resum_sectors(sands, geometry.cos_gamma)
    return complex(free_resolvent(sign, eta, geometry.separation) - total)


@dataclass(frozen=True)
class ThresholdData:
    """Zero-energy blocks, the one derivation of the threshold pole.

    x_block is the resonance inverse on the first null space; pole_blocks
    are the second-kernel inverses for the slow eta^-2 sector blocks; and
    pole_matrices hold, per sector, the full first-order pole of the
    sandwiched inverse read off the plateau of -eta Im M^{-1}(eta).  The
    correction cache, F_kernel and G_kernel all read these blocks.
    """

    potential: Potential
    grid: RadialGrid
    classification: object
    x_block: np.ndarray | None
    pole_blocks: dict
    pole_matrices: dict
    l1_norm: float


def build_threshold_data(potential: Potential, grid: RadialGrid, classification) -> ThresholdData:
    """Assemble the null-space blocks the threshold corrections contract against."""
    x_block = None
    if 0 in classification.s1_basis and classification.verdict in (
        "resonance",
        "resonance_and_eigenvalue",
    ):
        p = build_P(potential, grid).matrix
        x_block = _resonance_block(classification.s1_basis[0], p, classification.tol)
    pole_blocks = {
        ell: _second_kernel_block(potential, grid, ell, q2)
        for ell, q2 in classification.s2_basis.items()
    }

    pole_matrices = {}
    steps = np.array([_POLE_FIT_ETA, 2.0 * _POLE_FIT_ETA])
    for ell, q1 in classification.s1_basis.items():
        m_op = build_M(PLUS, steps, potential, grid, ell)
        near, far = -steps[:, None, None] * jn_invert(m_op, _projection(q1, grid.count)).matrix.imag
        pole_matrices[ell] = (4.0 * near - far) / 3.0
    return ThresholdData(
        potential=potential,
        grid=grid,
        classification=classification,
        x_block=x_block,
        pole_blocks=pole_blocks,
        pole_matrices=pole_matrices,
        l1_norm=potential.l1_norm(grid),
    )


def _fresnel_weight(t: float) -> QuadResult:
    """Full-range Stone weight of a first-order pole, int_0^inf (4 eta^2 + 2) e^{-it lambda}."""
    return _ray_integral(t, lambda eta: 4.0 * eta**2 + 2.0)


def _pole_sandwich(geometry: Geometry, data: ThresholdData, blocks: dict) -> complex:
    """Pole coefficient of the boundary difference at one geometry.

    Zero-energy boundary rows sandwich the given first-order pole blocks
    of the inverse; the -2i carries the (+)/(-) pairing of the residue.
    """
    sectors = np.zeros(max(blocks) + 1)
    radii = [geometry.r, geometry.r_prime]
    for ell, block in blocks.items():
        left, right = _sandwich_rows(0.0, ell, radii, data.potential, data.grid)
        sectors[ell] = (left @ block @ right).real
    return -2j * resum_sectors(sectors, geometry.cos_gamma)


def _difference_display(t: float, geometry: Geometry, data: ThresholdData) -> complex:
    """Second-kernel display over [0, t^(-1/2)], resummed over the pole-block sectors.

    The (+) minus (-) sandwich pairing vanishes linearly at eta = 0,
    taming the 2/eta weight; the Stone prefactor signs the term so that
    subtracting it removes the matching piece of the evolution kernel.
    """
    plan = IntegrationPlan(t=t, interval=(0.0, t**-0.5), tol=1e-10)
    pot, grid = data.potential, data.grid
    radii = [geometry.r, geometry.r_prime]
    sectors = np.zeros(max(data.pole_blocks) + 1, dtype=complex)
    for ell, block in data.pole_blocks.items():

        def integrand(etas):
            out = np.empty(etas.size, dtype=complex)
            for chunk in _eta_chunks(etas.size, len(radii) * grid.count):
                left, right = np.moveaxis(_sandwich_rows(etas[chunk], ell, radii, pot, grid), 1, 0)
                out[chunk] = 2j * np.sum((left @ block) * right, axis=1).imag
            return (4.0 * etas + 2.0 / etas) * out

        sectors[ell] = _integrate(integrand, plan).value
    return -_STONE_PREFACTOR * resum_sectors(sectors, geometry.cos_gamma)


def F_kernel(t: float, geometry: Geometry, data: ThresholdData) -> complex:
    """Finite-rank resonance correction at time t.

    Separable form: the frozen zero-energy resonance block of the inverse,
    sandwiched between boundary rows, times the full-range Stone weight of
    a first-order pole.  Subtracting it from the perturbed evolution kernel
    removes the t^{-1/2} term.
    """
    if data.classification.verdict not in ("resonance", "resonance_and_eigenvalue"):
        raise ValueError("F correction requires a resonance verdict")
    if not t > 1.0:
        raise ValueError("threshold corrections apply for t > 1")
    shift = _pole_sandwich(geometry, data, {0: (FOUR_PI / data.l1_norm) * data.x_block})
    return complex(-_STONE_PREFACTOR * shift * _fresnel_weight(t).value)


def G_kernel(t: float, geometry: Geometry, data: ThresholdData) -> complex:
    """Finite-rank eigenvalue correction at time t.

    Two pieces, both signed to subtract from the evolution kernel: the
    full per-sector first-order pole blocks, resonance part included,
    times the full Stone weight, and the second-kernel boundary-difference
    display truncated at eta = t^{-1/2}.
    """
    if data.classification.verdict not in ("eigenvalue", "resonance_and_eigenvalue"):
        raise ValueError("G correction requires an eigenvalue verdict")
    if not t > 1.0:
        raise ValueError("threshold corrections apply for t > 1")
    shift = _pole_sandwich(geometry, data, data.pole_matrices)
    value = -_STONE_PREFACTOR * shift * _fresnel_weight(t).value
    return complex(value + _difference_display(t, geometry, data))


class CorrectionCache:
    """Splined sector-resummed sandwich differences over the eta grid.

    For each geometry the cache holds W_raw(eta) = eta * [resummed
    (+)-minus-(-) sandwich difference], which is bounded through the
    threshold in every verdict, together with its limit W_raw(0+), the
    pole coefficient, sandwiched from build_threshold_data's zero-energy
    blocks; those blocks are kept as threshold_data, for F_kernel and
    G_kernel.  Per sector, each chunk of eta nodes (at most
    _BLOCK_ELEMENTS stacked matrix elements) takes one kernel evaluation,
    which serves M's R0 block and the sandwich rows alike, and one stacked
    jn_invert.  Built once, read concurrently.
    """

    def __init__(
        self,
        potential: Potential,
        grid: RadialGrid,
        classification,
        geometries,
        ell_max: int = ELL_MAX_CLASSIFY,
        eta_top: float = DEFAULT_CACHE_ETA_TOP,
    ):
        if ell_max < 0:
            raise ValueError(f"ell_max must be >= 0, got {ell_max}")
        self.potential = potential
        self.grid = grid
        self.classification = classification
        self.ell_max = ell_max
        self.geometries = tuple(geometries)
        log_part = np.geomspace(1e-6, _CACHE_ETA_LOG_TOP, _CACHE_ETA_LOG_COUNT)
        lin_part = np.arange(
            _CACHE_ETA_LOG_TOP + _CACHE_ETA_STEP, eta_top + 1e-12, _CACHE_ETA_STEP
        )
        self.eta_nodes = np.concatenate([log_part, lin_part])
        self._splines = {}
        self._profile = {}
        self._build()
        self.threshold_data = build_threshold_data(potential, grid, classification)
        # a sector left out of the cache has no pole in its splines either
        blocks = {ell: b for ell, b in self.threshold_data.pole_matrices.items() if ell <= ell_max}
        self._pole = {
            g: _pole_sandwich(g, self.threshold_data, blocks) if blocks else 0.0 + 0.0j
            for g in self.geometries
        }

    def _build(self):
        pot, grid = self.potential, self.grid
        s1 = self.classification.s1_basis
        radii = sorted({g.r for g in self.geometries} | {g.r_prime for g in self.geometries})
        left = [radii.index(g.r) for g in self.geometries]
        right = [radii.index(g.r_prime) for g in self.geometries]
        n = grid.count
        scale = np.sqrt(grid.weights) * grid.nodes
        weight = scale * pot.half(grid.nodes)
        # one stacked kernel evaluation per (eta chunk, l) serves M's R0 block
        # (the grid rows) and the sandwich rows of every geometry radius (the rest)
        rows_from = np.concatenate([grid.nodes, radii])
        # Im of each sector's sandwich at every eta node, per geometry
        sand_im = np.empty((len(self.geometries), self.ell_max + 1, self.eta_nodes.size))
        for ell in range(self.ell_max + 1):
            projection = _projection(s1.get(ell), n)
            for chunk in _eta_chunks(self.eta_nodes.size, rows_from.size * n):
                kern = free_sector_resolvent(PLUS, self.eta_nodes[chunk], ell, rows_from, grid.nodes)
                m_op = _m_from_r0(scale[:, None] * kern[:, :n] * scale, pot, grid, ell)
                minv = jn_invert(m_op, projection).matrix
                rows = kern[:, n:] * weight
                sand = rows @ minv @ np.swapaxes(rows, 1, 2)
                sand_im[:, ell, chunk] = sand[:, left, right].imag.T
        for g, sand in zip(self.geometries, sand_im):
            vals = 2j * self.eta_nodes * resum_sectors(sand, g.cos_gamma)
            self._splines[g] = CubicSpline(self.eta_nodes, vals)
            self._profile[g] = np.abs(vals)

    def pole_coefficient(self, geometry: Geometry) -> complex:
        """W_raw(0+) from the zero-energy pole blocks; exactly 0 without them."""
        return self._pole[geometry]

    def scaled_difference(self, geometry: Geometry):
        """Spline of W_raw = eta * (sandwich difference), callable on arrays."""
        return self._splines[geometry]

    def tail_cut(self, geometry: Geometry, t: float, target: float) -> float:
        """Smallest cached eta beyond which the neglected tail fits target.

        Only the cached difference is ever neglected past the cut; the
        pole part has its own closed tail, so the profile is unshifted.
        """
        bound = 2.0 * self._profile[geometry] / (self.eta_nodes * abs(t))
        eligible = (self.eta_nodes >= 1.0) & (bound <= target)
        if eligible.any():
            return float(self.eta_nodes[np.argmax(eligible)])
        return float(self.eta_nodes[-1])

    def tail_bound(self, geometry: Geometry, t: float, eta_cut: float) -> float:
        g_end = abs(self._splines[geometry](eta_cut)) / eta_cut
        return 2.0 * g_end / abs(t)


def _pole_tail(t: float, a: float) -> QuadResult:
    """Stone integral of the pole 1/eta from a to infinity, in closed form.

    In the spectral variable the integrand is e^{-itu} / eta(u), whose
    integration-by-parts series truncates after two boundary terms with
    remainder at most |g'(u_a)| / t^2 because g' is monotone.
    """
    u_a = lambda_of_eta(a)
    g = 1.0 / a
    dg = -1.0 / (a * a * stone_jacobian(a))
    it = 1j * t
    value = complex(np.exp(-it * u_a) * (g / it + dg / it**2))
    bound = abs(dg) / t**2
    return QuadResult(value=value, error=bound, panels=0, truncation_bound=bound, eta_max=a)


def evolution_kernel(
    t: float,
    geometry: Geometry,
    cache: CorrectionCache,
    subtract: str = "auto",
    tol: float = 1e-8,
    eta_cut: float | None = None,
    max_panels: int = DEFAULT_MAX_PANELS,
) -> PropagatorSample:
    """Evolution kernel sample, optionally with the threshold pole removed.

    subtract="auto" removes, for t > 1 and a singular verdict, the full
    Stone integral of the pole part pole(eta) = W_raw(0+) / eta, with
    W_raw(0+) the cache's pole coefficient from the zero-energy blocks of
    build_threshold_data; the remaining integrand is regular at eta = 0
    and the removed amount is reported as the sample's correction.
    """
    if subtract not in ("none", "auto"):
        raise ValueError(f"subtract must be 'none' or 'auto', got {subtract!r}")
    if not t > 0.0:
        raise ValueError("time must be positive")
    if geometry not in cache.geometries:
        raise ValueError(f"{geometry} is not in the correction cache")
    verdict = cache.classification.verdict
    do_subtract = subtract == "auto" and verdict != "regular" and t > 1.0

    free = _free_kernel_result(t, geometry.separation, tol)
    spline = cache.scaled_difference(geometry)
    pole = cache.pole_coefficient(geometry)
    shift = pole if do_subtract else 0.0 + 0.0j

    scale = abs(free.value) + abs(pole - shift) / math.sqrt(max(t, 1.0))
    target = 1e-4 * scale + 0.1 * tol
    if eta_cut is None:
        eta_cut = cache.tail_cut(geometry, t, 2.0 * math.pi * target)

    def body_integrand(etas):
        return (spline(etas) - shift) * (4.0 * etas**2 + 2.0)

    plan = IntegrationPlan(t=t, interval=(0.0, float(eta_cut)), tol=tol, max_panels=max_panels)
    body = _integrate(body_integrand, plan)
    tail_bound = cache.tail_bound(geometry, t, eta_cut)

    value = free.value - _STONE_PREFACTOR * body.value
    est_error = free.error + abs(_STONE_PREFACTOR) * (
        body.error + tail_bound + _SPLINE_REL * abs(body.value)
    )

    correction = 0.0 + 0.0j
    label = "none"
    if do_subtract:
        # the pole's own tail is kept in closed form, so the shifted body
        # plus this term subtracts the pole over the full energy range
        pole_tail = _pole_tail(t, float(eta_cut))
        weight = _fresnel_weight(t)
        value += _STONE_PREFACTOR * shift * pole_tail.value
        correction = -_STONE_PREFACTOR * shift * weight.value
        est_error += abs(_STONE_PREFACTOR) * abs(shift) * weight.error
        label = "G" if cache.classification.s2_basis else "F"
    return PropagatorSample(
        t=t,
        geometry=geometry,
        value=complex(value),
        correction_subtracted=label,
        correction=complex(correction),
        est_error=float(est_error),
    )


def weighted_operator(
    sign,
    eta: float,
    potential: Potential | None,
    grid: RadialGrid,
    s: float,
    s_prime: float,
    ell: int,
    classification=None,
) -> np.ndarray:
    """Weighted sector matrix diag((1+r)^-s') R_V diag((1+r)^-s)."""
    if not (s > 0.5 and s_prime > 0.5):
        raise ValueError("weights need s, s' > 1/2")
    r0 = _free_sector_matrix(sign, eta, grid, ell)
    if potential is None:
        body = r0
    else:
        m_op = _m_from_r0(r0, potential, grid, ell)
        s1 = {} if classification is None else classification.s1_basis
        minv = jn_invert(m_op, _projection(s1.get(ell), grid.count)).matrix
        v = potential.half(grid.nodes)
        body = r0 - r0 @ (v[:, None] * minv * v[None, :]) @ r0
    left = (1.0 + grid.nodes) ** (-s_prime)
    right = (1.0 + grid.nodes) ** (-s)
    return left[:, None] * body * right[None, :]


def weighted_norm(
    sign,
    energy: float,
    potential: Potential | None,
    grid: RadialGrid,
    s: float = 2.0,
    s_prime: float = 2.0,
    ell_max: int = ELL_MAX_CLASSIFY,
    variable: str = "eta",
    classification=None,
) -> float:
    """Discretized B(s, -s') resolvent norm, maximized over sectors."""
    if ell_max < 0:
        raise ValueError(f"ell_max must be >= 0, got {ell_max}")
    if variable == "lambda":
        eta = eta_of_lambda(energy)
    elif variable == "eta":
        eta = float(energy)
    else:
        raise ValueError(f"variable must be 'eta' or 'lambda', got {variable!r}")
    best = 0.0
    for ell in range(ell_max + 1):
        mat = weighted_operator(sign, eta, potential, grid, s, s_prime, ell, classification)
        best = max(best, float(np.linalg.norm(mat, 2)))
    return best
