import math

import numpy as np
import pytest
from scipy.integrate import quad

from fourthorder.birman_schwinger import (
    build_M,
    classify,
    jn_invert,
    leading_coefficients,
    make_potential,
)
from fourthorder.decayfit import fit_decay
from fourthorder.kernels import FOUR_PI, MINUS, PLUS, free_resolvent
from fourthorder.oscillatory import IntegrationPlan, _integrate, stone_integral
from fourthorder.partial_waves import build_grid, build_sector_operator, legendre_project
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
from fourthorder.propagator import _fresnel_weight, _pole_sandwich, _pole_tail, _sandwich_rows

STONE_PREFACTOR = 1.0 / (2.0j * math.pi)


def rotated_quadrature(f, t, theta=math.pi / 16.0):
    """Independent oracle: scipy quadrature on the ray eta = e^{-i theta} s.

    The quartic phase damps the rotated integrand, so an ordinary adaptive
    rule converges; integrands must accept complex eta.
    """
    rot = np.exp(-1j * theta)

    def g(s, part):
        eta = rot * s
        val = f(eta) * np.exp(-1j * t * (eta**4 + eta**2)) * rot
        return val.real if part == 0 else val.imag

    re = quad(lambda s: g(s, 0), 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)[0]
    im = quad(lambda s: g(s, 1), 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)[0]
    return re + 1j * im


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
