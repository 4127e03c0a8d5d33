import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from fourthorder.birman_schwinger import _projection
from fourthorder.birman_schwinger import (
    build_M,
    classify,
    jn_invert,
    leading_coefficients,
    make_potential,
    resonance_tune,
)
from fourthorder.decayfit import fit_decay
from fourthorder.errors import ConvergenceError, TruncationError
from fourthorder.kernels import FOUR_PI, MINUS, PLUS, free_resolvent
from fourthorder.oscillatory import IntegrationPlan, _integrate, stone_integral
from fourthorder.partial_waves import build_grid, build_sector_operator, legendre_project, resum_sectors
from fourthorder.propagator import (
    CorrectionCache,
    F_kernel,
    G_kernel,
    Geometry,
    evolution_kernel,
    free_kernel,
    perturbed_resolvent,
    weighted_norm,
    weighted_operator,
)
from fourthorder.propagator import (
    _free_kernel_result,
    _cubic,
    _fresnel_weight,
    _difference_display,
    _levin_integral,
    _lobatto,
    _not_a_knot,
    _pole_sandwich,
    _pole_tail,
    _ray_integral,
    _sandwich_rows,
)

from conftest import attractive_gaussian

STONE_PREFACTOR = 1.0 / (2.0j * math.pi)


def rotated_quadrature(f, t, theta=math.pi / 16.0):
    """Independent oracle: scipy quadrature on the ray eta = e^{-i theta} s.

    The quartic phase damps the rotated integrand, so an ordinary adaptive
    rule converges; integrands must accept complex eta.  Against mpmath
    it drifts to 9.5e-8 relative for the free kernel at t = 1e4 (5e-12 at
    t = 1e3), so late-time checks use mpmath_free_kernel instead.
    """
    rot = np.exp(-1j * theta)

    def g(s, part):
        eta = rot * s
        val = f(eta) * np.exp(-1j * t * (eta**4 + eta**2)) * rot
        return val.real if part == 0 else val.imag

    re = quad(lambda s: g(s, 0), 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)[0]
    im = quad(lambda s: g(s, 1), 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)[0]
    return re + 1j * im


def mpmath_free_kernel(mp, t, s):
    """30-digit free kernel (1/(2 pi^2 s)) int_0^inf eta sin(eta s) e^{-it(eta^4+eta^2)} d eta.

    Tanh-sinh quadrature on the ray eta = e^{-i pi/12} r, a shallower ray
    than the program's, in pieces of ratio 1.5 from r = t^(-1/2) to where
    the integrand has fallen below e^(-150).
    """
    with mp.workdps(30):
        t, s = mp.mpf(t), mp.mpf(s)
        theta = mp.pi / 12
        rot = mp.exp(-1j * theta)

        def f(r):
            eta = rot * r
            amp = eta * eta if s == 0 else eta * mp.sin(eta * s) / s
            return amp * mp.exp(-1j * t * (eta**4 + eta**2)) * rot

        def log_decay(r):
            return t * r**4 * mp.sin(4 * theta) + t * r**2 * mp.sin(2 * theta) - s * r * mp.sin(theta)

        points = [mp.mpf(0), 1 / mp.sqrt(t)]
        while log_decay(points[-1]) < 150:
            points.append(1.5 * points[-1])
        return complex(mp.quad(f, points) / (2 * mp.pi**2))


def boundary_diff_times_jacobian(eta, r):
    # complex-eta restatement of the closed boundary difference
    osc = 1j * np.sin(eta * r) / r if r > 0 else 1j * eta
    return osc / (2.0 * np.pi * (1.0 + 2.0 * eta**2)) * (4.0 * eta**3 + 2.0 * eta)


class TestGeometry:
    def test_validation(self):
        with pytest.raises(ValueError):
            Geometry(-0.1, 1.0, 0.0)
        with pytest.raises(ValueError):
            Geometry(1.0, 1.0, 1.2)

    def test_separation_law_of_cosines(self):
        g = Geometry(2.0, 3.0, 0.25)
        want = math.sqrt(4.0 + 9.0 - 2.0 * 2.0 * 3.0 * 0.25)
        assert g.separation == pytest.approx(want, rel=1e-15)
        assert Geometry(1.7, 1.7, 1.0).separation == 0.0
        assert Geometry(0.0, 2.4, -0.3).separation == pytest.approx(2.4)


class TestFreeKernel:
    def test_rotated_quadrature_oracle(self):
        for t, r in ((5.0, 1.3), (0.05, 0.4), (40.0, 0.0)):
            want = STONE_PREFACTOR * rotated_quadrature(
                lambda e: boundary_diff_times_jacobian(e, r), t
            )
            assert free_kernel(t, r) == pytest.approx(want, rel=5e-8)

    def test_separation_validation(self):
        with pytest.raises(ValueError):
            free_kernel(1.0, -0.5)
        with pytest.raises(ValueError):
            free_kernel(0.0, 1.0)

    def test_rotated_ray_against_mpmath(self):
        # t > 1 takes the rotated ray where its estimate meets tol and the
        # panels otherwise; whichever runs, its estimate must bound the error
        mp = pytest.importorskip("mpmath")
        for t in (1.01, 1.5, 10.0, 1e2, 1e3, 1e4, 1e5):
            for s in (0.0, 0.3, 3.0, 12.0, 20.0, 40.0):
                if (t, s) == (1.01, 40.0):
                    # sin(eta s) cancels to 0.8 relative on the ray, and the
                    # panel cut eta >= 80 spans 6.6e6 periods: neither path
                    # may return a value
                    with pytest.raises(ConvergenceError):
                        _free_kernel_result(t, s, 1e-9)
                    continue
                try:
                    got = _free_kernel_result(t, s, 1e-9)
                except ConvergenceError:
                    # the ray missed tol and the panel cut 2 s exceeds its budget
                    assert t < 2.0 and s == 40.0, (t, s)
                    continue
                want = mpmath_free_kernel(mp, t, s)
                assert abs(got.value - want) <= got.error, (t, s)
                if t >= 10.0:
                    assert got.panels == 0 and got.error <= 1e-11 * abs(want), (t, s)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_ray_falls_back_quietly(self):
        # sin(eta s) overflows on the ray past s |eta| sin(pi/8) ~ 710: the
        # ray reports an infinite error, and the panel tail, whose cut
        # 2 s lies beyond its limit eta = 512, raises without a warning
        ray = _ray_integral(2.0, lambda eta: eta**2 * np.sinc(eta * 300.0 / np.pi), frequency=300.0)
        assert ray.error == math.inf
        with pytest.raises(TruncationError):
            free_kernel(2.0, 300.0)

    def test_fallback_to_panels(self):
        # at t = 1.01, s = 22 the ray's rounding estimate (1.7e-9) misses
        # tol, so real-axis panels with their certified tail take over
        mp = pytest.importorskip("mpmath")
        got = _free_kernel_result(1.01, 22.0, 1e-9)
        assert got.panels > 0
        assert abs(got.value - mpmath_free_kernel(mp, 1.01, 22.0)) <= got.error <= 1e-9

    def test_late_time_large_separation(self):
        # beyond the panels' reach: their cut eta >= 2 s spans more periods
        # than the panel budget
        mp = pytest.importorskip("mpmath")
        want = mpmath_free_kernel(mp, 1e3, 5.0)
        assert free_kernel(1e3, 5.0, tol=1e-9) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_negative_time_is_the_conjugate(self):
        # panels for |t| <= 1, the ray beyond
        for t, s in ((0.5, 1.3), (50.0, 0.0), (50.0, 1.3)):
            got = free_kernel(-t, s)
            assert got == pytest.approx(free_kernel(t, s).conjugate(), rel=1e-12, abs=1e-15)


class TestSectorRow:
    def test_matches_projection_oracle(self, grid64, subcritical_potential):
        # an off-grid radius against every node, as the sandwich rows use it
        nodes = grid64.nodes
        weight = np.sqrt(grid64.weights) * nodes * subcritical_potential.half(nodes)
        for eta in (0.0, 0.7):
            kernel = lambda s: free_resolvent(PLUS, eta, s)
            for ell in (0, 1, 2):
                (row,) = _sandwich_rows(eta, ell, [1.9], subcritical_potential, grid64)
                want = weight * [legendre_project(kernel, ell, 1.9, b, n_mu=40) for b in nodes]
                assert np.max(np.abs(row - want)) <= 1e-12 * np.max(np.abs(want))

    def test_degenerate_radius(self, grid64, subcritical_potential):
        # radius 0 is the exact limit, 4 pi R0 in sector 0 and nothing above
        nodes = grid64.nodes
        weight = np.sqrt(grid64.weights) * nodes * subcritical_potential.half(nodes)
        kernel = lambda s: free_resolvent(PLUS, 0.3, s)
        (row0,) = _sandwich_rows(0.3, 0, [0.0], subcritical_potential, grid64)
        want = weight * [legendre_project(kernel, 0, 0.0, b) for b in nodes]
        assert np.max(np.abs(row0 - want)) <= 1e-15 * np.max(np.abs(want))
        assert not _sandwich_rows(0.3, 1, [0.0], subcritical_potential, grid64).any()


class TestPerturbedResolvent:
    def test_zero_potential_reduces_to_free(self, grid64):
        zero = make_potential("gaussian", 0.0)
        rng = np.random.default_rng(11)
        for _ in range(20):
            eta = rng.uniform(0.05, 2.0)
            g = Geometry(rng.uniform(0.0, 4.0), rng.uniform(0.1, 4.0), rng.uniform(-1, 1))
            got = perturbed_resolvent(PLUS, eta, g, zero, grid64)
            want = free_resolvent(PLUS, eta, g.separation)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_minus_boundary_is_conjugate(self, grid64, subcritical_potential):
        g = Geometry(1.2, 2.6, -0.4)
        plus = perturbed_resolvent(PLUS, 0.8, g, subcritical_potential, grid64)
        minus = perturbed_resolvent(MINUS, 0.8, g, subcritical_potential, grid64)
        assert minus == pytest.approx(np.conj(plus), rel=1e-13)

    def test_negative_ell_max_rejected(self, grid64, subcritical_potential):
        with pytest.raises(ValueError, match="ell_max"):
            perturbed_resolvent(PLUS, 0.7, Geometry(1.0, 0.5, 0.2), subcritical_potential, grid64, ell_max=-1)

    def test_sign_aliases(self):
        grid = build_grid(32, 9.0)
        pot = make_potential("gaussian", -1.0)
        g = Geometry(1.0, 0.5, 0.2)
        plus = perturbed_resolvent(PLUS, 0.7, g, pot, grid)
        minus = perturbed_resolvent(MINUS, 0.7, g, pot, grid)
        assert perturbed_resolvent("-", 0.7, g, pot, grid) == minus
        assert perturbed_resolvent("minus", 0.7, g, pot, grid) == minus
        assert minus == pytest.approx(np.conj(plus), rel=1e-13)

    def test_first_born_against_volume_quadrature(self, grid64):
        # small-coupling limit vs a direct 3d integral of R0 V R0
        eps = 1e-4
        pot = make_potential("gaussian", eps)
        eta, geom = 0.5, Geometry(1.5, 2.2, 0.4)
        want = _volume_born(eta, geom)
        free_val = free_resolvent(PLUS, eta, geom.separation)
        pert = perturbed_resolvent(PLUS, eta, geom, pot, grid64, ell_max=4)
        assert (free_val - pert) / eps == pytest.approx(want, rel=1e-4)


def _volume_born(eta, geom, n_s=64, n_th=48, n_ph=48):
    xs, ws = np.polynomial.legendre.leggauss(n_s)
    s = 4.5 * (xs + 1.0)
    xt, wt = np.polynomial.legendre.leggauss(n_th)
    xp, wp = np.polynomial.legendre.leggauss(n_ph)
    ph = np.pi * (xp + 1.0)
    r, rp, cg = geom.r, geom.r_prime, geom.cos_gamma
    sg = math.sqrt(1.0 - cg**2)
    S, C, P = np.meshgrid(s, xt, ph, indexing="ij")
    sth = np.sqrt(1.0 - C**2)
    d1 = np.sqrt(np.maximum(r**2 + S**2 - 2.0 * r * S * C, 0.0))
    d2 = np.sqrt(np.maximum(rp**2 + S**2 - 2.0 * rp * S * (sg * sth * np.cos(P) + cg * C), 0.0))
    vals = free_resolvent(PLUS, eta, d1) * np.exp(-(S**2)) * free_resolvent(PLUS, eta, d2) * S**2
    w3 = (4.5 * ws)[:, None, None] * wt[None, :, None] * (np.pi * wp)[None, None, :]
    return np.sum(vals * w3)


class TestThresholdData:
    def test_resonance_block_matches_closed_form(self, resonance_data):
        # at a pure resonance the numerically extracted first-order block is
        # the projected-overlap closed form, with nothing else in sector 0
        x_part = (FOUR_PI / resonance_data.l1_norm) * resonance_data.x_block
        assert set(resonance_data.pole_matrices) == {0}
        rel = np.linalg.norm(resonance_data.pole_matrices[0] - x_part) / np.linalg.norm(x_part)
        assert rel < 1e-9

    def test_pole_coefficient_consistency(self, geometries, resonance_cache, eigenvalue_cache):
        # the block pole against the small-eta limit of the cache's own
        # spline of W_raw, by a quadratic Richardson step at h = 1e-3
        h = 1e-3
        for cache in (resonance_cache, eigenvalue_cache):
            for g in geometries:
                spline = cache.scaled_difference(g)
                want = complex((4.0 * spline(h) - spline(2.0 * h)) / 3.0)
                assert cache.pole_coefficient(g) == pytest.approx(want, rel=1e-4)

    def test_cache_pole_is_the_block_sandwich(
        self, grid64, geometries, eigenvalue_cache, eigenvalue_data, eigenvalue_classification
    ):
        for g in geometries:
            want = _pole_sandwich(g, eigenvalue_data, eigenvalue_data.pole_matrices)
            assert eigenvalue_cache.pole_coefficient(g) == pytest.approx(want, rel=1e-12)
        # the sector-1 pole lies outside a sector-0 cache, so it adds nothing there
        radial = CorrectionCache(
            eigenvalue_data.potential, grid64, eigenvalue_classification, geometries[:1],
            ell_max=0, eta_top=0.5,
        )
        assert radial.pole_coefficient(geometries[0]) == 0

    def test_expansion_reads_the_same_closed_form_blocks(
        self,
        grid64,
        resonance_potential,
        resonance_classification,
        resonance_data,
        eigenvalue_potential,
        eigenvalue_classification,
        eigenvalue_data,
    ):
        # leading_coefficients and build_threshold_data take X and A_{-2}
        # from the same closed forms, so their blocks agree to rounding
        res = leading_coefficients(resonance_classification, resonance_potential, grid64)
        x_part = (FOUR_PI / resonance_data.l1_norm) * resonance_data.x_block
        rel = np.linalg.norm(res.blocks["M_minus1_minus"] - 1j * x_part) / np.linalg.norm(x_part)
        assert rel < 1e-14
        eig = leading_coefficients(eigenvalue_classification, eigenvalue_potential, grid64)
        a2 = eigenvalue_data.pole_blocks[eig.ell]
        assert np.linalg.norm(eig.blocks["A_minus2"] - a2) / np.linalg.norm(a2) < 1e-14

    def test_second_kernel_block_matches_inverse(
        self, grid64, eigenvalue_potential, eigenvalue_classification, eigenvalue_data
    ):
        # eta^2 Re M^{-1} approaches the second-kernel block as eta -> 0
        eta = 1e-3
        q = eigenvalue_classification.s1_basis[1]
        m = build_M(PLUS, eta, eigenvalue_potential, grid64, 1).matrix
        minv = jn_invert(m, q @ q.T)
        block = eigenvalue_data.pole_blocks[1]
        rel = np.linalg.norm(eta**2 * minv.real - block) / np.linalg.norm(block)
        assert rel < 1e-3


def per_node_difference(cache, etas):
    """W_raw(eta) = 2i eta Im(resummed sandwich) per cache geometry, one jn_invert per (eta, l)."""
    pot, grid = cache.potential, cache.grid
    s1 = cache.classification.s1_basis
    sectors = np.empty((len(cache.geometries), cache.ell_max + 1, len(etas)))
    for k, eta in enumerate(etas):
        for ell in range(cache.ell_max + 1):
            minv = jn_invert(build_M(PLUS, eta, pot, grid, ell), _projection(s1.get(ell), grid.count)).matrix
            for i, g in enumerate(cache.geometries):
                left, right = _sandwich_rows(eta, ell, [g.r, g.r_prime], pot, grid)
                sectors[i, ell, k] = (left @ minv @ right).imag
    return {g: 2j * etas * resum_sectors(sand, g.cos_gamma) for g, sand in zip(cache.geometries, sectors)}


def oracle_nodes(cache):
    """Every logarithmic node of the eta grid and every tenth linear one."""
    log_part = cache.eta_nodes <= 0.05
    return np.concatenate([cache.eta_nodes[log_part], cache.eta_nodes[~log_part][::10]])


class TestStackedCache:
    def test_regular_and_resonance_against_per_node_oracle(
        self, geometries, subcritical_cache, resonance_cache
    ):
        for cache in (subcritical_cache, resonance_cache):
            etas = oracle_nodes(cache)
            oracle = per_node_difference(cache, etas)
            for g in geometries:
                got, want = cache.scaled_difference(g)(etas), oracle[g]
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_eigenvalue_against_per_node_oracle(self, geometries, eigenvalue_cache):
        # below eta ~ 1e-3 the sandwich's Im cancels and a 1-ulp change of
        # M alone moves W by ~6e-4 of max|W| on an n=32 well, so only the
        # band above is held to rounding
        etas = oracle_nodes(eigenvalue_cache)
        oracle = per_node_difference(eigenvalue_cache, etas)
        for g in geometries:
            got, want = eigenvalue_cache.scaled_difference(g)(etas), oracle[g]
            err = np.abs(got - want) / np.max(np.abs(want))
            assert np.max(err[etas >= 1e-3]) <= 1e-9
            assert np.max(err) <= 1e-3

    def test_geometry_at_the_origin(self, grid64, subcritical_potential, subcritical_classification):
        geoms = [Geometry(0.0, 1.3, 0.2), Geometry(0.8, 0.0, -0.4)]
        cache = CorrectionCache(subcritical_potential, grid64, subcritical_classification, geoms, eta_top=0.5)
        etas = oracle_nodes(cache)
        oracle = per_node_difference(cache, etas)
        for g in geoms:
            got, want = cache.scaled_difference(g)(etas), oracle[g]
            assert np.all(np.isfinite(got)) and np.max(np.abs(want)) > 0.0
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_display_against_per_node_integrand(self, geometries, eigenvalue_data):
        # the second-kernel display integrates the same sandwich one node at a time
        pot, grid = eigenvalue_data.potential, eigenvalue_data.grid
        t, g = 50.0, geometries[1]
        plan = IntegrationPlan(t=t, interval=(0.0, t**-0.5), tol=1e-10)
        sectors = np.zeros(max(eigenvalue_data.pole_blocks) + 1, dtype=complex)
        for ell, block in eigenvalue_data.pole_blocks.items():

            def integrand(etas):
                vals = []
                for eta in etas:
                    left, right = _sandwich_rows(eta, ell, [g.r, g.r_prime], pot, grid)
                    vals.append(2j * (left @ block @ right).imag)
                return (4.0 * etas + 2.0 / etas) * np.array(vals)

            sectors[ell] = _integrate(integrand, plan).value
        want = -STONE_PREFACTOR * resum_sectors(sectors, g.cos_gamma)
        assert _difference_display(t, g, eigenvalue_data) == pytest.approx(want, rel=1e-13)


class TestNotAKnotCubic:
    @staticmethod
    def probes(x):
        """Below the first knot, on and between knots, and less than a step above the last.

        Farther out the extrapolated cubic term, set by slope differences
        over one step, magnifies rounding like (distance / step)^3.
        """
        mids = 0.5 * (x[1:] + x[:-1])
        return np.concatenate([[0.0, 0.5 * x[0]], x, mids, x[-1] + [0.005, 0.02]])

    def test_reproduces_a_cubic(self, subcritical_cache):
        # not-a-knot end conditions hold every cubic exactly, so only rounding remains
        x = subcritical_cache.eta_nodes
        cubic = lambda e: 0.7 - 1.3 * e + 0.45 * e**2 - 0.06 * e**3
        coefficients = _not_a_knot(x, cubic(x)[:, None])[..., 0]
        etas = self.probes(x)
        want = cubic(etas)
        assert np.max(np.abs(_cubic(x, coefficients, etas) - want)) <= 1e-14 * np.max(np.abs(want))

    def test_matches_scipy_cubic_spline(self, geometries, subcritical_cache, eigenvalue_cache):
        # scipy's not-a-knot CubicSpline is the oracle, on the same knots and
        # values; the dense sweep spans more than two evaluation blocks
        for cache in (subcritical_cache, eigenvalue_cache):
            x = cache.eta_nodes
            etas = np.concatenate([self.probes(x), np.linspace(0.0, x[-1], 70001)])
            for g in geometries:
                w = cache.scaled_difference(g)
                want = CubicSpline(x, w(x))(etas)
                assert np.max(np.abs(w(etas) - want)) <= 1e-14 * np.max(np.abs(w(x)))

    def test_scalar_input(self, geometries, subcritical_cache):
        w = subcritical_cache.scaled_difference(geometries[0])
        value = w(0.7)
        assert np.ndim(value) == 0 and np.iscomplexobj(value)
        assert complex(value) == w(np.array([0.7]))[0]
        assert complex(value).real == 0.0


def knot_gauss(t, edges, amplitude, order=64, phase=96.0):
    """Independent oracle for int amplitude(eta) e^{-it lambda(eta)} d eta over the edges' span.

    Gauss-Legendre of the given order on equal sub-panels of each
    interval [edges[i], edges[i + 1]], each spanning at most `phase`
    radians of t lambda; 64 nodes resolve 96 radians to rounding.  Each
    node's phase is the knot's t lambda(a), plus the sub-panel edge's
    offset t (lambda(e) - lambda(a)), both reduced mod 2 pi, plus the
    local t (lambda(eta) - lambda(e)), the differences in factored form,
    so the rounding of a large phase is shared by a sub-panel instead of
    falling on each node.  Returns the value and a first-order rounding
    bound: eps times each phase part weighted by the sum it multiplies.
    """
    lam = lambda e: e * e * (e * e + 1.0)
    dlam = lambda u, v: (u - v) * (u + v) * (u * u + v * v + 1.0)
    x, w = np.polynomial.legendre.leggauss(order)
    eps = np.finfo(float).eps
    total, bound = 0.0 + 0.0j, 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        count = max(1, math.ceil(t * b * (4.0 * b * b + 2.0) * (b - a) / phase))
        e = a + (b - a) * np.arange(count + 1) / count
        e[-1] = b
        lo, half = e[:-1, None], 0.5 * np.diff(e)[:, None]
        d = half * (x + 1.0)
        eta = lo + d
        knot, offset = t * lam(a), t * dlam(lo, a)
        local = t * d * (eta + lo) * (eta * eta + lo * lo + 1.0)
        base = np.fmod(knot, 2.0 * math.pi) + np.fmod(offset, 2.0 * math.pi)
        terms = half * w * amplitude(eta.ravel()).reshape(eta.shape) * np.exp(-1j * (base + local))
        sub = terms.sum(axis=1)
        total += sub.sum()
        bound += eps * (
            4.0 * abs(sub.sum()) * knot
            + 6.0 * np.sum(np.abs(sub) * offset[:, 0])
            + np.sum(np.abs(terms) * (32.0 + 4.0 * local))
        )
    return total, bound


def body_edges(cache, cut):
    """The knot intervals evolution_kernel integrates the body over, up to cut."""
    knots = cache.eta_nodes
    return np.concatenate([[0.0], knots[knots < cut], [cut]])


def shifted_body(cache, geometry):
    """The body integrand Im(W_raw - shift) (4 eta^2 + 2) of evolution_kernel, shifted by the pole."""
    pole = cache.pole_coefficient(geometry).imag
    return lambda eta: (cache.imag_difference(geometry, eta) - pole) * (4.0 * eta**2 + 2.0)


def shift_rounding(cache, geometry, cut):
    """How far two rules may differ on the shifted body through its own rounding.

    Near eta = 0, Im W_raw - shift cancels to a few eps |shift|, so rules
    sampling it at different nodes may differ by that much times
    int_0^cut (4 eta^2 + 2) d eta.
    """
    pole = abs(cache.pole_coefficient(geometry))
    return 4.0 * np.finfo(float).eps * pole * (4.0 * cut**3 / 3.0 + 2.0 * cut)


@pytest.fixture(scope="module")
def regular16():
    """The regular n=16 well and geometry of the regular-late workload, on the default cache."""
    grid = build_grid(16, r_max=9.0)
    well = make_potential("gaussian", -1.0)
    geometry = Geometry(1.0, 0.5, 0.2)
    return CorrectionCache(well, grid, classify(well, grid), [geometry]), geometry


@pytest.fixture(scope="module")
def threshold32():
    """The tuned n=32 resonance and eigenvalue wells on eta <= 3, as in the threshold workload."""
    grid = build_grid(32, r_max=9.0)
    geometries = (Geometry(1.5, 2.5, 0.3), Geometry(2.2, 1.1, 0.9))
    caches = []
    for ell, bracket in ((0, (3.0, 6.0)), (1, (35.0, 55.0))):
        well = attractive_gaussian(resonance_tune(attractive_gaussian, ell, grid, bracket).coupling)
        caches.append(CorrectionCache(well, grid, classify(well, grid), geometries, eta_top=3.0))
    return caches, geometries


class TestLevinBody:
    def test_lobatto_differentiates_polynomials(self):
        x, d = _lobatto(14)
        assert x[0] == -1.0 and x[-1] == 1.0 and np.all(np.diff(x) > 0.0)
        for k in range(14):
            want = k * x ** max(k - 1, 0)
            assert np.max(np.abs(d @ x**k - want)) <= 1e-12 * max(1.0, k * k)

    @pytest.mark.parametrize("t", [2.0, 10.0, 1e2, 1e3, 3e3, 1e4, 3e4, 1e5])
    def test_regular_well_against_oracle(self, regular16, t):
        # the whole cache up to t = 1e4; past it the oracle would need over
        # 1e8 nodes there, so both integrate up to eta = 2, where the Levin
        # pieces are the same kind at larger t Delta lambda
        cache, geometry = regular16
        cut = cache.eta_nodes[-1] if t <= 1e4 else 2.0
        edges, f = body_edges(cache, cut), shifted_body(cache, geometry)
        rule = _levin_integral(t, edges, f, 1e-8)
        want, rounding = knot_gauss(t, edges, f)
        assert abs(rule.value - want) <= rule.error + rounding
        assert rule.error + rounding <= 1e-6 * abs(rule.value)

    def test_threshold_wells_against_oracle(self, threshold32):
        # the eigenvalue well's cubic piece on [0, 1e-6] carries the rounding
        # of W there; panels wider than it missed it by 2.3e-8 at t = 10
        caches, geometries = threshold32
        for cache in caches:
            for g in geometries:
                cut = cache.eta_nodes[-1]
                edges, f = body_edges(cache, cut), shifted_body(cache, g)
                for t in (10.0, 1e2, 1e3, 1e4):
                    rule = _levin_integral(t, edges, f, 1e-8)
                    want, rounding = knot_gauss(t, edges, f)
                    allowance = rule.error + rounding + shift_rounding(cache, g, cut)
                    assert abs(rule.value - want) <= allowance
                    assert allowance <= 1e-6 * abs(rule.value)

    def test_stationary_point_at_late_times(self, regular16, threshold32):
        # past t ~ 1e12 the first knot interval [0, 1e-6] spans t lambda > 1
        # and is split from eta_1, where t lambda = 1; the answer is within its
        # estimate or raises, never silently wrong.  The oracle runs up to
        # t lambda = 1e5 (1e-4 at t = 1e13); at 1e17 the split spans 3.5 decades.
        cache, geometry = regular16
        cases = [(cache, geometry)] + [(c, g) for c in threshold32[0] for g in threshold32[1]]
        for (cache, g), (t, cut) in itertools.product(cases, ((1e13, 1e-4), (1e17, 1e-6))):
            edges, f = body_edges(cache, cut), shifted_body(cache, g)
            try:
                rule = _levin_integral(t, edges, f, 1e-8)
            except ConvergenceError:
                continue
            want, rounding = knot_gauss(t, edges, f)
            assert abs(rule.value - want) <= rule.error + rounding + shift_rounding(cache, g, cut)
            assert rule.error + rounding <= 1e-3 * abs(rule.value)
        sample = evolution_kernel(1e13, geometry, regular16[0])
        assert np.isfinite(sample.value) and np.isfinite(sample.est_error)

    def test_body_cost_independent_of_t(self, regular16, monkeypatch):
        # count the eta values the body's cubic is evaluated at, instead of timing
        cache, geometry = regular16
        evaluate, counts = cache.imag_difference, []

        def counted(g, eta):
            counts[-1] += np.size(eta)
            return evaluate(g, eta)

        monkeypatch.setattr(cache, "imag_difference", counted)
        for t in (1e2, 1e5):
            counts.append(0)
            evolution_kernel(t, geometry, cache)
        assert counts[0] == counts[1] > 0



class TestPoleTail:
    def test_closed_form_against_panels(self):
        # telescoping identity: tail(a) = panels over (a, b) + tail(b)
        for t, a, b in ((30.0, 4.0, 8.0), (300.0, 1.5, 4.0)):
            got = _pole_tail(t, a)
            ref = stone_integral(lambda e: 1.0 / e, t, (a, b), tol=1e-10).value
            ref += _pole_tail(t, b).value
            assert abs(got.value - ref) < got.error
            assert abs(got.value - ref) < 1e-7


class TestEvolution:
    def test_zero_potential_equals_free(self, grid64):
        zero = make_potential("gaussian", 0.0)
        cls = classify(zero, grid64)
        rng = np.random.default_rng(7)
        geoms = [
            Geometry(rng.uniform(0, 3.0), rng.uniform(0.1, 3.0), rng.uniform(-1, 1))
            for _ in range(5)
        ]
        cache = CorrectionCache(zero, grid64, cls, geoms)
        for g in geoms:
            t = float(rng.uniform(0.5, 50.0))
            sample = evolution_kernel(t, g, cache)
            assert sample.value == pytest.approx(free_kernel(t, g.separation, tol=1e-8), rel=1e-8)
            assert sample.correction == 0.0
            assert sample.correction_subtracted == "none"

    def test_raw_equals_subtracted_plus_correction(self, geometries, resonance_cache):
        g = geometries[0]
        raw = evolution_kernel(25.0, g, resonance_cache, subtract="none")
        sub = evolution_kernel(25.0, g, resonance_cache, subtract="auto")
        assert sub.correction_subtracted == "F"
        assert abs(raw.value - (sub.value + sub.correction)) < raw.est_error + sub.est_error

    def test_eigenvalue_label(self, geometries, eigenvalue_cache):
        sub = evolution_kernel(30.0, geometries[1], eigenvalue_cache)
        assert sub.correction_subtracted == "G"
        assert sub.correction != 0.0

    def test_regular_needs_no_correction(self, geometries, subcritical_cache):
        sample = evolution_kernel(30.0, geometries[0], subcritical_cache)
        assert sample.correction_subtracted == "none"
        assert sample.correction == 0.0
        assert subcritical_cache.pole_coefficient(geometries[0]) == 0

    def test_splitting_consistency(self, geometries, resonance_cache):
        g = geometries[1]
        near = evolution_kernel(15.0, g, resonance_cache, eta_cut=2.0)
        far = evolution_kernel(15.0, g, resonance_cache, eta_cut=4.0)
        assert abs(near.value - far.value) <= near.est_error + far.est_error

    def test_late_time_on_a_coarse_grid(self):
        # t = 1e4 at separation 2.5 on the n=32 resonance well: on (0, 5)
        # the free part needs more real-axis panels than the budget allows
        grid = build_grid(32, r_max=9.0)
        tuned = resonance_tune(attractive_gaussian, 0, grid, (3.0, 6.0))
        well = attractive_gaussian(tuned.coupling)
        geometry = Geometry(1.5, 2.5, 0.3)
        cache = CorrectionCache(well, grid, classify(well, grid), [geometry], eta_top=3.0)
        raw = evolution_kernel(1e4, geometry, cache, subtract="none")
        sub = evolution_kernel(1e4, geometry, cache)
        assert sub.correction_subtracted == "F"
        assert np.isfinite(sub.value) and sub.est_error < abs(sub.value)
        assert abs(raw.value - (sub.value + sub.correction)) < raw.est_error + sub.est_error

    def test_negative_ell_max_rejected(self, grid64, subcritical_potential, subcritical_classification):
        with pytest.raises(ValueError, match="ell_max"):
            CorrectionCache(
                subcritical_potential, grid64, subcritical_classification, [Geometry(1.0, 0.5, 0.2)], ell_max=-1
            )

    def test_validation(self, geometries, resonance_cache):
        with pytest.raises(ValueError):
            evolution_kernel(0.0, geometries[0], resonance_cache)
        with pytest.raises(ValueError):
            evolution_kernel(10.0, geometries[0], resonance_cache, subtract="half")
        with pytest.raises(ValueError, match="not in the correction cache"):
            evolution_kernel(10.0, Geometry(0.9, 0.9, 0.0), resonance_cache)


class TestCorrections:
    def test_fresnel_weight_rotated_oracle(self):
        for t in (10.0, 200.0):
            want = rotated_quadrature(lambda e: 4.0 * e**2 + 2.0, t)
            assert _fresnel_weight(t).value == pytest.approx(want, rel=1e-7)

    def test_fresnel_weight_against_panels(self):
        # panels on the real axis up to eta = 4, then the pole's closed tail
        for t in (10.0, 1e3):
            plan = IntegrationPlan(t=t, interval=(0.0, 4.0), tol=1e-10)
            want = _integrate(lambda e: 4.0 * e**2 + 2.0, plan).value + _pole_tail(t, 4.0).value
            assert _fresnel_weight(t).value == pytest.approx(want, rel=1e-8)

    def test_fresnel_weight_late_times(self):
        # past t ~ 2e4 the real-axis panels exceeded their budget; the weight
        # tends to 2 int_0^inf e^{-it eta^2} d eta = sqrt(pi / (i t))
        for t in (3e4, 1e5):
            weight = _fresnel_weight(t)
            assert weight.value * math.sqrt(t) == pytest.approx(np.sqrt(np.pi / 1j), rel=10.0 / t)
            assert weight.error < 1e-12 * abs(weight.value)

    def test_F_matches_evolution_correction(self, geometries, resonance_cache, resonance_data):
        g = geometries[0]
        sub = evolution_kernel(40.0, g, resonance_cache)
        assert F_kernel(40.0, g, resonance_data) == pytest.approx(sub.correction, rel=1e-4)

    def test_resonance_decay_triple(self, geometries, resonance_cache, resonance_data):
        g = geometries[0]
        ts = np.geomspace(10.0, 1000.0, 8)
        raw = np.array(
            [evolution_kernel(float(t), g, resonance_cache, subtract="none").value for t in ts]
        )
        f = np.array([F_kernel(float(t), g, resonance_data) for t in ts])
        assert fit_decay(np.column_stack([ts, np.abs(raw)])).exponent == pytest.approx(-0.5, abs=0.15)
        assert fit_decay(np.column_stack([ts, np.abs(raw - f)])).exponent == pytest.approx(-1.5, abs=0.25)
        assert fit_decay(np.column_stack([ts, np.abs(f)])).exponent == pytest.approx(-0.5, abs=0.1)

    def test_eigenvalue_decay_triple(self, geometries, eigenvalue_cache, eigenvalue_data):
        g = geometries[0]
        ts = np.geomspace(10.0, 1000.0, 8)
        raw = np.array(
            [evolution_kernel(float(t), g, eigenvalue_cache, subtract="none").value for t in ts]
        )
        gk = np.array([G_kernel(float(t), g, eigenvalue_data) for t in ts])
        assert fit_decay(np.column_stack([ts, np.abs(raw)])).exponent == pytest.approx(-0.5, abs=0.15)
        assert fit_decay(np.column_stack([ts, np.abs(raw - gk)])).exponent == pytest.approx(-1.5, abs=0.25)
        assert fit_decay(np.column_stack([ts, np.abs(gk)])).exponent == pytest.approx(-0.5, abs=0.12)

    def test_F_is_rank_one(self, resonance_data):
        radii = np.linspace(0.4, 3.2, 6)
        m = np.array(
            [[F_kernel(30.0, Geometry(a, b, 0.3), resonance_data) for b in radii] for a in radii]
        )
        s = np.linalg.svd(m, compute_uv=False)
        assert s[1] / s[0] < 1e-12

    def test_G_is_low_rank(self, eigenvalue_data):
        radii = np.linspace(0.4, 3.2, 6)
        m = np.array(
            [[G_kernel(30.0, Geometry(a, b, 0.3), eigenvalue_data) for b in radii] for a in radii]
        )
        s = np.linalg.svd(m, compute_uv=False)
        assert s[1] / s[0] < 1e-2
        assert s[3] / s[0] < 1e-9

    def test_verdict_preconditions(self, geometries, resonance_data, eigenvalue_data):
        with pytest.raises(ValueError):
            F_kernel(10.0, geometries[0], eigenvalue_data)
        with pytest.raises(ValueError):
            G_kernel(10.0, geometries[0], resonance_data)
        with pytest.raises(ValueError):
            F_kernel(0.5, geometries[0], resonance_data)
        with pytest.raises(ValueError):
            G_kernel(1.0, geometries[0], eigenvalue_data)


class TestWeightedNorm:
    def test_free_high_energy_decay(self, grid64):
        lo = weighted_norm(PLUS, 100.0, None, grid64, variable="lambda")
        hi = weighted_norm(PLUS, 10000.0, None, grid64, variable="lambda")
        # slope -3/4 in lambda: two decades -> factor ~ 10^{-1.5}
        assert hi < lo * 10**-1.2

    def test_weight_validation(self, grid64):
        with pytest.raises(ValueError):
            weighted_norm(PLUS, 100.0, None, grid64, s=0.4, variable="lambda")

    def test_negative_ell_max_rejected(self, grid64):
        # an empty sector range would give a norm of 0.0
        with pytest.raises(ValueError, match="ell_max"):
            weighted_norm(PLUS, 100.0, None, grid64, ell_max=-1, variable="lambda")

    def test_operator_is_the_resolvent_identity(self, grid64, subcritical_potential):
        # R_V = R0 - R0 v M^{-1} v R0 with M from build_M, weighted both sides
        pot, eta = subcritical_potential, 3.0
        v = pot.half(grid64.nodes)
        w = (1.0 + grid64.nodes) ** -2.0
        for ell in (0, 1):
            r0 = build_sector_operator(
                lambda s: free_resolvent(PLUS, eta, s), ell, grid64, oscillation=eta
            ).matrix
            minv = np.linalg.inv(build_M(PLUS, eta, pot, grid64, ell).matrix)
            want = w[:, None] * (r0 - r0 @ (v[:, None] * minv * v[None, :]) @ r0) * w[None, :]
            got = weighted_operator(PLUS, eta, pot, grid64, 2.0, 2.0, ell)
            assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-10
