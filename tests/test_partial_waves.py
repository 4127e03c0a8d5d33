import itertools

import numpy as np
import pytest
from scipy.integrate import quad

from fourthorder.kernels import MINUS, PLUS, expansion_G, free_resolvent
from fourthorder.partial_waves import (
    RadialGrid,
    _bessel,
    _i_series_reach,
    _modified_bessel,
    build_grid,
    build_sector_operator,
    default_r_max,
    free_sector_resolvent,
    g2_sector_kernel,
    legendre_project,
    resum_sectors,
)


@pytest.fixture(scope="module")
def grid64():
    return build_grid(64, r_max=30.0)


def newton(sep):
    return 1.0 / (4.0 * np.pi * sep)


class TestGrid:
    def test_gauss_exactness(self, grid64):
        r, w = grid64.nodes, grid64.weights
        for k in (0, 1, 2, 5, 20, 127):
            assert np.sum(w * r**k) == pytest.approx(30.0 ** (k + 1) / (k + 1), rel=1e-12)

    def test_exponential_moment(self, grid64):
        # int_0^30 e^-r r^2 dr = 2 - (30^2 + 60 + 2) e^-30
        got = np.sum(grid64.weights * np.exp(-grid64.nodes) * grid64.nodes**2)
        want = 2.0 - 962.0 * np.exp(-30.0)
        assert got == pytest.approx(want, rel=1e-10)

    def test_refinement_stability(self, grid64):
        f = lambda r: np.exp(-0.5 * r) * (1.0 + r)
        coarse = grid64.norm(grid64.coefficients(f))
        fine_grid = build_grid(128, r_max=30.0)
        fine = fine_grid.norm(fine_grid.coefficients(f))
        assert abs(fine - coarse) < 1e-9

    def test_default_r_max_from_decay(self):
        assert default_r_max(4.0) == pytest.approx(9999.0, rel=1e-12)
        assert default_r_max(16.0) == pytest.approx(9.0, rel=1e-12)
        grid = build_grid(16, beta=16.0)
        assert grid.r_max == pytest.approx(9.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_grid(4, r_max=10.0)
        with pytest.raises(ValueError):
            build_grid(16, r_max=-1.0)
        with pytest.raises(ValueError):
            build_grid(16)
        with pytest.raises(ValueError):
            RadialGrid(
                nodes=np.array([1.0, 2.0]),
                weights=np.array([1.0, -1.0]),
                r_max=2.0,
                count=2,
            )

    def test_coefficient_round_trip(self, grid64):
        f = lambda r: np.exp(-r) * r
        c = grid64.coefficients(f)
        assert np.allclose(grid64.values(c), f(grid64.nodes), rtol=1e-14)
        # Euclidean product of coefficients = L^2(r^2 dr) pairing
        g = lambda r: 1.0 / (1.0 + r**2)
        d = grid64.coefficients(g)
        direct = np.sum(grid64.weights * grid64.nodes**2 * f(grid64.nodes) * g(grid64.nodes))
        assert float(c @ d) == pytest.approx(direct, rel=1e-14)


class TestLegendreProject:
    def test_newton_kernel_monopole(self):
        for r, rp in [(1.0, 2.0), (3.5, 0.4), (2.0, 2.0)]:
            got = legendre_project(newton, 0, r, rp)
            assert got == pytest.approx(1.0 / max(r, rp), rel=1e-12)

    def test_newton_kernel_multipoles(self):
        r, rp = 0.8, 2.5
        for ell in range(7):
            want = (min(r, rp) ** ell) / ((2 * ell + 1) * max(r, rp) ** (ell + 1))
            got = legendre_project(newton, ell, r, rp)
            assert got == pytest.approx(want, rel=1e-8)

    def test_constant_kernel(self):
        c = 0.37
        assert legendre_project(lambda s: np.full_like(s, c), 0, 1.2, 3.4) == pytest.approx(
            4.0 * np.pi * c, rel=1e-13
        )
        for ell in (1, 2, 5):
            got = legendre_project(lambda s: np.full_like(s, c), ell, 1.2, 3.4)
            assert abs(got) < 1e-12

    def test_sector_orthogonality(self):
        r, rp = 1.3, 2.1

        def pure_l3(sep):
            mu = (r**2 + rp**2 - sep**2) / (2.0 * r * rp)
            mu = np.clip(mu, -1.0, 1.0)
            return 0.5 * (5.0 * mu**3 - 3.0 * mu)

        for ell in range(7):
            got = legendre_project(pure_l3, ell, r, rp)
            if ell == 3:
                assert got == pytest.approx(4.0 * np.pi / 7.0, rel=1e-12)
            else:
                assert abs(got) < 1e-10

    def test_vectorised_over_radius_arrays(self):
        # broadcast pairs agree with one call per pair to rounding (the sums
        # run through different BLAS calls), the r = 0 limit included
        r = np.array([0.0, 0.3, 1.2, 2.0])
        rp = np.array([[1.5], [2.0], [0.0]])
        g2 = lambda s: expansion_G(2, s)
        for ell in (0, 2):
            got = legendre_project(g2, ell, r, rp)
            assert got.shape == (3, 4)
            for i, j in np.ndindex(got.shape):
                want = legendre_project(g2, ell, r[j], rp[i, 0])
                assert got[i, j] == pytest.approx(want, rel=1e-12, abs=1e-300)
        assert legendre_project(g2, 0, 0.0, 1.5) == pytest.approx(4.0 * np.pi * g2(1.5), rel=1e-15)
        assert legendre_project(g2, 1, 0.0, 0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            legendre_project(newton, -1, 1.0, 2.0)
        with pytest.raises(ValueError):
            legendre_project(newton, 4, 1.0, 2.0, n_mu=10)
        with pytest.raises(ValueError):
            legendre_project(lambda s: np.full_like(s, np.nan), 0, 1.0, 2.0)


class TestHalfIntegerBessel:
    """The sector kernels' own I e^-z, K e^z, J and Y of order l + 1/2."""

    @staticmethod
    def _switches(ell):
        # 1e-9 on either side of the I and J series/closed-form switches, and
        # every 1/8 within 2 of them, where each form is least accurate
        near = [np.linspace(x - 2.0, x + 2.0, 33) for x in (_i_series_reach(ell), ell)]
        z = np.concatenate(near + [[x + d for x in (_i_series_reach(ell), ell) for d in (-1e-9, 1e-9)]])
        return z[z > 0.0]

    def test_matches_mpmath(self):
        # 30-digit values on a log grid, 12 points a decade; J and Y are
        # measured against their envelope sqrt(J^2 + Y^2), and J below
        # l + 2, short of its first zero, against itself as well
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            for ell in range(12):
                nu = mp.mpf(ell) + 0.5
                z = np.sort(np.concatenate([np.geomspace(1e-6, 1e4, 121), self._switches(ell)]))
                i_scaled, k_scaled = _modified_bessel(ell, z)
                want_i = np.array([float(mp.besseli(nu, x) * mp.exp(-x)) for x in map(mp.mpf, z)])
                want_k = np.array([float(mp.besselk(nu, x) * mp.exp(x)) for x in map(mp.mpf, z)])
                assert np.max(np.abs(i_scaled / want_i - 1.0)) <= 2e-14, ell
                assert np.max(np.abs(k_scaled / want_k - 1.0)) <= 2e-14, ell
                z = z[z <= 500.0]
                j, y = _bessel(ell, z)
                want_j = np.array([float(mp.besselj(nu, x)) for x in map(mp.mpf, z)])
                want_y = np.array([float(mp.bessely(nu, x)) for x in map(mp.mpf, z)])
                envelope = np.hypot(want_j, want_y)
                assert np.max(np.abs(j - want_j) / envelope) <= 2e-14, ell
                assert np.max(np.abs(y - want_y) / envelope) <= 2e-14, ell
                below = z <= ell + 2.0
                assert np.max(np.abs(j[below] / want_j[below] - 1.0)) <= 2e-14, ell

    def test_matches_scipy(self):
        # about 1e5 points; scipy's own ive and jv are off by up to 4e-14
        # against mpmath (ive at z = 20 for l = 0, jv at z = 14)
        special = pytest.importorskip("scipy.special")
        for ell in range(12):
            nu = ell + 0.5
            z = np.sort(np.concatenate([np.geomspace(1e-6, 1e4, 8000), self._switches(ell)]))
            i_scaled, k_scaled = _modified_bessel(ell, z)
            assert np.max(np.abs(i_scaled / special.ive(nu, z) - 1.0)) <= 1e-13, ell
            assert np.max(np.abs(k_scaled / special.kve(nu, z) - 1.0)) <= 1e-13, ell
            z = z[z <= 500.0]
            j, y = _bessel(ell, z)
            want_j, want_y = special.jv(nu, z), special.yv(nu, z)
            envelope = np.hypot(want_j, want_y)
            assert np.max(np.abs(j - want_j) / envelope) <= 1e-13, ell
            assert np.max(np.abs(y - want_y) / envelope) <= 1e-13, ell


class TestFreeSectorResolvent:
    @pytest.mark.parametrize("count", [16, 32, 64])
    def test_matches_projection_oracle(self, count):
        # compared as Nystrom matrices, sqrt(w) r K r' sqrt(w'): the oracle
        # computes mu from the separation and so loses about eps r>/r< of
        # the kernel's size at the smallest nodes, where the matrix weights
        # shrink like r^2
        grid = build_grid(count, r_max=9.0)
        nodes = grid.nodes
        scale = np.sqrt(grid.weights) * nodes
        rows = [0, count // 4, count // 2, count - 1]
        for eta in (0.0, 1e-6, 0.01, 0.7, 3.0, 8.0):
            kernel = lambda s: free_resolvent(PLUS, eta, s)
            n_mu = 80 + int(np.ceil(1.2 * eta * grid.r_max))
            for ell in (0, 1, 2, 5):
                got = free_sector_resolvent(PLUS, eta, ell, nodes[rows], nodes)
                want = np.array(
                    [[legendre_project(kernel, ell, nodes[i], b, n_mu=n_mu) for b in nodes] for i in rows]
                )
                weights = scale[rows, None] * scale[None, :]
                err = np.max(np.abs(weights * (got - want)))
                assert err <= 1e-12 * np.max(np.abs(weights * want)), (eta, ell)

    def test_small_radii_do_not_cancel(self):
        # for kappa r << 1 the oscillatory and decaying terms each reach
        # 1/((2l+1) r) while the kernel is O(r), so differencing the two
        # Bessel products loses up to 4e-7 here; at r = r' the oracle's
        # own error is at most 5e-10
        for r in (1e-3, 3e-3):
            for eta in (0.0, 0.01):
                kernel = lambda s: free_resolvent(PLUS, eta, s)
                for ell in (1, 2, 5):
                    want = legendre_project(kernel, ell, r, r, n_mu=64)
                    got = free_sector_resolvent(PLUS, eta, ell, r, r)[0, 0]
                    assert abs(got - want) <= 2e-9 * abs(want), (r, eta, ell)

    def test_minus_boundary_is_conjugate(self, grid64):
        for eta in (0.0, 0.01, 3.0):
            for ell in (0, 2):
                plus = free_sector_resolvent(PLUS, eta, ell, grid64.nodes, grid64.nodes)
                minus = free_sector_resolvent(MINUS, eta, ell, grid64.nodes, grid64.nodes)
                assert np.array_equal(minus, plus.conj())

    def test_eta_array_stacks_the_scalar_kernels(self):
        # rows at radius 0 and at 1.9 and 2.1, where kappa r crosses the
        # series radius 2 between eta = 0 and eta = 0.7 inside the stack
        grid = build_grid(32, r_max=9.0)
        rows = np.concatenate([[0.0, 0.3, 1.9, 2.1], grid.nodes])
        etas = np.array([0.0, 1e-6, 0.01, 0.7, 3.0, 8.0])
        for sign in (PLUS, MINUS):
            for ell in (0, 1, 2, 5):
                stack = free_sector_resolvent(sign, etas, ell, rows, grid.nodes)
                assert stack.shape == (etas.size, rows.size, grid.count)
                for k, eta in enumerate(etas):
                    want = free_sector_resolvent(sign, eta, ell, rows, grid.nodes)
                    assert want.shape == (rows.size, grid.count)
                    assert np.max(np.abs(stack[k] - want)) <= 1e-15 * np.max(np.abs(want)), (eta, ell)

    def test_eta_array_validation(self, grid64):
        with pytest.raises(ValueError, match="eta"):
            free_sector_resolvent(PLUS, [0.5, -0.5], 0, grid64.nodes, grid64.nodes)
        with pytest.raises(ValueError, match="eta"):
            free_sector_resolvent(PLUS, [0.5, np.inf], 0, grid64.nodes, grid64.nodes)
        with pytest.raises(ValueError, match="1-D"):
            free_sector_resolvent(PLUS, np.ones((2, 2)), 0, grid64.nodes, grid64.nodes)

    def test_validation(self, grid64):
        with pytest.raises(ValueError, match="eta"):
            free_sector_resolvent(PLUS, -0.5, 0, grid64.nodes, grid64.nodes)
        with pytest.raises(ValueError, match="sector"):
            free_sector_resolvent(PLUS, 0.5, -1, grid64.nodes, grid64.nodes)
        with pytest.raises(ValueError, match="radii"):
            free_sector_resolvent(PLUS, 0.5, 0, [-1.0], grid64.nodes)


def _g2_reference(mp, ell, r, rp):
    """G2_l(r, r') by 40-digit quadrature in the separation s, where the integrand is smooth."""
    def integrand(s):
        g2 = (mp.exp(-s) - s) / (8 * mp.pi) + mp.expm1(-s) / (2 * mp.pi * s)
        return g2 * mp.legendre(ell, (r * r + rp * rp - s * s) / (2 * r * rp)) * s

    with mp.workdps(40):
        r, rp = mp.mpf(r), mp.mpf(rp)
        return float(2 * mp.pi * mp.quad(integrand, [abs(r - rp), r + rp]) / (r * rp))


class TestG2SectorKernel:
    g2 = staticmethod(lambda s: expansion_G(2, s))

    @pytest.mark.parametrize("count", [16, 32, 64])
    def test_matches_projection_oracle(self, count):
        # full Nystrom matrices sqrt(w) r K r' sqrt(w'), for the reason
        # given in TestFreeSectorResolvent
        grid = build_grid(count, r_max=9.0)
        nodes = grid.nodes
        weights = np.outer(np.sqrt(grid.weights) * nodes, np.sqrt(grid.weights) * nodes)
        for ell in (0, 1, 2):
            got = g2_sector_kernel(ell, nodes, nodes)
            want = legendre_project(self.g2, ell, nodes[:, None], nodes[None, :], n_mu=80)
            err = np.max(np.abs(weights * (got - want)))
            assert err <= 1e-12 * np.max(np.abs(weights * want)), ell

    def test_matches_mpmath(self):
        # entrywise, at the smallest n=64 nodes, on both sides of r> = 2 (the
        # series switch for l <= 2), at every node with r> in (2, 3), where
        # from l = 3 on the far form cancels (3.4e-12 for l = 5 at r> = 2.01)
        # and the series runs further out, and at the far end
        mp = pytest.importorskip("mpmath")
        nodes = build_grid(64, r_max=9.0).nodes
        k, k3 = (int(np.searchsorted(nodes, r)) for r in (2.0, 3.0))
        rows, cols = [0, 1, 2, k - 1, k], [0, 1, 2, *range(k - 1, k3), nodes.size - 1]
        for ell in range(7):
            got = g2_sector_kernel(ell, nodes[rows], nodes[cols])
            for (i, a), (j, b) in itertools.product(enumerate(nodes[rows]), enumerate(nodes[cols])):
                want = _g2_reference(mp, ell, a, b)
                bound = 3e-13 if ell >= 3 and 2.0 < max(a, b) < 3.0 else 1e-13
                assert abs(got[i, j] - want) <= bound * abs(want), (ell, a, b)

    def test_small_radii_do_not_cancel(self):
        # where r> << 1 the far form sums terms of size 1/((2l+1) r>) to a
        # kernel of size r>^(2l+1): at r = r' = 3e-3 it is off by 7e-7
        # relative for l = 1 and by 6e5 for l = 5.  The quadrature oracle
        # holds 4e-9 there at l = 1 but loses every digit for l >= 2
        want = legendre_project(self.g2, 1, 3e-3, 3e-3, n_mu=64)
        assert abs(g2_sector_kernel(1, 3e-3, 3e-3)[0, 0] - want) <= 5e-8 * abs(want)
        mp = pytest.importorskip("mpmath")
        for r in (1e-3, 3e-3):
            for ell in range(6):
                want = _g2_reference(mp, ell, r, r)
                assert abs(g2_sector_kernel(ell, r, r)[0, 0] - want) <= 1e-13 * abs(want), (r, ell)

    def test_radius_zero_and_validation(self, grid64):
        row = g2_sector_kernel(0, 0.0, grid64.nodes)[0]
        assert np.allclose(row, 4.0 * np.pi * self.g2(grid64.nodes), rtol=1e-15, atol=0.0)
        assert np.all(g2_sector_kernel(1, grid64.nodes, 0.0) == 0.0)
        with pytest.raises(ValueError, match="sector"):
            g2_sector_kernel(-1, grid64.nodes, grid64.nodes)
        with pytest.raises(ValueError, match="radii"):
            g2_sector_kernel(0, [-1.0], grid64.nodes)


class TestSectorOperator:
    def test_zero_kernel(self, grid64):
        op = build_sector_operator(lambda s: np.zeros_like(s), 0, grid64)
        assert np.all(op.matrix == 0.0)

    def test_static_kernel_against_dense_quadrature(self):
        # the sector kernel has a C^2 kink at coincident radii, so the
        # radial rule converges at order ~4; 128 nodes clear 1e-6
        grid = build_grid(128, r_max=30.0)
        op = build_sector_operator(lambda s: expansion_G(0, s), 0, grid)
        f = lambda r: np.exp(-r)
        out = grid.values(op.matrix @ grid.coefficients(f))

        def oracle(r):
            def inner(rp):
                val, _ = quad(
                    lambda mu: (
                        lambda sep: (1.0 - np.exp(-sep)) / (4.0 * np.pi * sep)
                        if sep > 1e-12
                        else 1.0 / (4.0 * np.pi)
                    )(np.sqrt(r**2 + rp**2 - 2.0 * r * rp * mu)),
                    -1.0,
                    1.0,
                    limit=200,
                )
                return val * np.exp(-rp) * rp**2

            val, _ = quad(inner, 0.0, 30.0, limit=200, points=[r])
            return 2.0 * np.pi * val

        for i in (10, 40, 80):
            assert out[i] == pytest.approx(oracle(grid.nodes[i]), rel=1e-6)

    def test_symmetry_for_real_kernels(self, grid64):
        for j in (0, 2):
            op = build_sector_operator(lambda s: expansion_G(j, s), 1, grid64)
            assert np.max(np.abs(op.matrix - op.matrix.T)) < 1e-12

    def test_resolvent_conjugation(self, grid64):
        plus = build_sector_operator(
            lambda s: free_resolvent(PLUS, 0.7, s), 0, grid64, oscillation=0.7
        )
        minus = build_sector_operator(
            lambda s: free_resolvent(MINUS, 0.7, s), 0, grid64, oscillation=0.7
        )
        assert np.max(np.abs(minus.matrix - np.conj(plus.matrix).T)) < 1e-12

    def test_bilinear_form_matches_double_quadrature(self, grid64):
        op = build_sector_operator(lambda s: expansion_G(0, s), 0, grid64)
        f = lambda r: np.exp(-r)
        g = lambda r: np.exp(-0.3 * r**2)
        cf, cg = grid64.coefficients(f), grid64.coefficients(g)
        form = float(np.real(cf @ op.matrix @ cg))
        r, w = grid64.nodes, grid64.weights
        kmat = np.array(
            [[legendre_project(lambda s: expansion_G(0, s), 0, ri, rj) for rj in r] for ri in r]
        )
        direct = float((w * r**2 * f(r)) @ kmat @ (w * r**2 * g(r)))
        assert form == pytest.approx(direct, rel=1e-12)


class TestResummation:
    def test_newton_reconstruction(self):
        r, rp, gamma = 1.0, 2.0, np.pi / 3.0
        sectors = [legendre_project(newton, ell, r, rp) for ell in range(41)]
        got = resum_sectors(sectors, np.cos(gamma))
        sep = np.sqrt(r**2 + rp**2 - 2.0 * r * rp * np.cos(gamma))
        assert got == pytest.approx(1.0 / (4.0 * np.pi * sep), rel=1e-6)

    def test_single_sector_isotropy(self):
        vals = [2.0 + 1.0j]
        a = resum_sectors(vals, 0.9)
        b = resum_sectors(vals, -0.4)
        assert a == b

    def test_resolvent_reconstruction(self):
        eta = 0.5
        kern = lambda s: free_resolvent(PLUS, eta, s)
        # separated radii: at r = r' the multipole decay is only algebraic
        ell_max = 40
        for r, rp, gamma in [(1.0, 2.0, np.pi / 3.0), (3.0, 1.5, 2.0), (4.0, 2.5, 0.4)]:
            n_mu = 2 * ell_max + 24 + int(np.ceil(0.6 * eta * (r + rp)))
            sectors = [
                legendre_project(kern, ell, r, rp, n_mu=n_mu) for ell in range(ell_max + 1)
            ]
            got = resum_sectors(sectors, np.cos(gamma))
            sep = np.sqrt(r**2 + rp**2 - 2.0 * r * rp * np.cos(gamma))
            assert got == pytest.approx(free_resolvent(PLUS, eta, sep), rel=1e-5)

    def test_truncation_error_shrinks(self):
        r, rp, gamma = 1.0, 2.0, 1.1
        sep = np.sqrt(r**2 + rp**2 - 2.0 * r * rp * np.cos(gamma))
        target = 1.0 / (4.0 * np.pi * sep)
        errs = []
        sectors = [legendre_project(newton, ell, r, rp) for ell in range(31)]
        for ell_max in (5, 10, 20, 30):
            errs.append(abs(resum_sectors(sectors[: ell_max + 1], np.cos(gamma)) - target))
        assert errs[0] > errs[1] > errs[2] > errs[3]

    def test_cos_gamma_domain(self):
        with pytest.raises(ValueError):
            resum_sectors([1.0], 1.5)
