"""Threshold classification, projection-split inversion, expansions.

The tuned couplings come from bisection against the grid itself, so the
"resonance" and "eigenvalue" fixtures are exact null configurations of
the discretized operators; closed-form oracles below are independent of
the module (direct LU solves, hand-built rank-one matrices, the gaussian
L1 norm pi^{3/2} |c|).
"""

import numpy as np
import pytest

from fourthorder.birman_schwinger import (
    Potential,
    build_M,
    build_P,
    build_T0,
    classify,
    jn_invert,
    leading_coefficients,
    make_potential,
    resonance_tune,
)
from fourthorder.birman_schwinger import _resonance_block
from fourthorder.decayfit import fit_decay
from fourthorder.errors import (
    BracketError,
    ExpansionMismatchError,
    IndeterminateClassification,
    SingularFactorError,
)
from fourthorder.kernels import FOUR_PI, MINUS, PLUS, expansion_G, free_resolvent
from fourthorder.partial_waves import SectorOperator, build_grid, build_sector_operator


def attractive_gaussian(coupling):
    return make_potential("gaussian", -coupling)


def null_dims(cls):
    """Dimensions of S1 and S2, summed over sectors."""
    return tuple(sum(b.shape[1] for b in basis.values()) for basis in (cls.s1_basis, cls.s2_basis))


def random_projection(rng, n, rank):
    q, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    return q @ q.T


class TestPotential:
    def test_gaussian_l1_norm_closed_form(self, grid64):
        # 4*pi * Int e^{-r^2} r^2 dr = pi^{3/2}
        pot = attractive_gaussian(2.0)
        assert pot.l1_norm(grid64) == pytest.approx(2.0 * np.pi**1.5, rel=1e-12)

    def test_half_and_sign(self, grid64):
        pot = attractive_gaussian(3.0)
        r = grid64.nodes
        assert np.allclose(pot.half(r) ** 2, 3.0 * np.exp(-(r**2)), rtol=1e-14)
        assert np.all(pot.sign(r) == -1.0)
        assert np.all(make_potential("gaussian", 1.5).sign(r) == 1.0)

    def test_factory_validation(self):
        with pytest.raises(ValueError, match="unknown profile"):
            make_potential("yukawa", 1.0)
        with pytest.raises(ValueError, match="decay exponent"):
            make_potential("polynomial", 1.0)
        with pytest.raises(ValueError):
            Potential(profile=np.exp, beta=-1.0)


class TestOperatorAssembly:
    def test_static_limit_of_m(self, grid64, subcritical_potential):
        t0 = build_T0(subcritical_potential, grid64, 0)
        m0 = build_M(PLUS, 0.0, subcritical_potential, grid64, 0)
        assert np.array_equal(m0.matrix.imag, np.zeros_like(m0.matrix.imag))
        assert np.allclose(m0.matrix.real, t0.matrix, rtol=0.0, atol=1e-15)

    def test_boundary_conjugation(self, grid64, subcritical_potential):
        m_plus = build_M(PLUS, 0.7, subcritical_potential, grid64, 1)
        m_minus = build_M(MINUS, 0.7, subcritical_potential, grid64, 1)
        assert np.allclose(m_minus.matrix, m_plus.matrix.conj(), rtol=1e-14, atol=1e-16)

    def test_repulsive_static_operator_positive(self, grid64):
        # for V >= 0 the static kernel is positive definite, so T0 >= 1
        pot = make_potential("gaussian", 2.0)
        vals = np.linalg.eigvalsh(build_T0(pot, grid64, 0).matrix)
        assert vals.min() >= 1.0 - 1e-12

    def test_projection_identities(self, grid64, subcritical_potential):
        p = build_P(subcritical_potential, grid64).matrix
        assert np.trace(p) == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(p @ p, p, atol=1e-14)
        c_v = grid64.coefficients(subcritical_potential.half)
        c_v = c_v / np.linalg.norm(c_v)
        assert np.allclose(p @ c_v, c_v, atol=1e-13)

    def test_projection_needs_mass(self, grid64):
        with pytest.raises(ValueError, match="vanishes"):
            build_P(attractive_gaussian(0.0), grid64)

    def test_polynomial_tail_stays_finite(self):
        # the default r_max of a beta = 4 tail is ~1e4, so kappa r reaches
        # ~1e4 (and ~8e4 at eta = 8) where unscaled i_l overflows
        pot = make_potential("polynomial", -1.0, beta=4.0)
        grid = build_grid(32, beta=4.0)
        assert grid.r_max > 9e3
        for eta in (0.0, 0.7, 8.0):
            for ell in (0, 2):
                assert np.all(np.isfinite(build_M(PLUS, eta, pot, grid, ell).matrix))

    def test_negative_eta_rejected(self, grid64, subcritical_potential):
        with pytest.raises(ValueError, match="nonnegative"):
            build_M(PLUS, -0.1, subcritical_potential, grid64)

    def test_compactness_proxy(self, grid64, subcritical_potential):
        # the sandwiched resolvent is numerically finite rank: over half the
        # singular values sit below 1e-8 of the largest
        v = subcritical_potential.half(grid64.nodes)
        op = build_sector_operator(
            lambda s: free_resolvent(PLUS, 0.5, s), 0, grid64, oscillation=0.5
        )
        sv = np.linalg.svd(v[:, None] * op.matrix * v[None, :], compute_uv=False)
        assert np.sum(sv < 1e-8 * sv[0]) > grid64.count // 2


class TestClassify:
    def test_zero_potential_regular(self, grid64):
        assert classify(attractive_gaussian(0.0), grid64).verdict == "regular"

    def test_subcritical_regular(self, grid64, subcritical_potential):
        cls = classify(subcritical_potential, grid64)
        assert cls.verdict == "regular"
        assert null_dims(cls) == (0, 0)

    def test_tuned_radial_resonance(self, resonance_classification):
        cls = resonance_classification
        assert cls.verdict == "resonance"
        assert null_dims(cls) == (1, 0)
        assert cls.gap_ratios[0] > 1e3
        assert cls.v_overlaps[0][0] > 0.5

    def test_tuned_sector_one_eigenvalue(self, eigenvalue_classification):
        cls = eigenvalue_classification
        assert cls.verdict == "eigenvalue"
        assert null_dims(cls) == (1, 1)
        assert 1 in cls.s1_basis
        assert cls.v_overlaps[1][0] < 1e-7
        assert cls.gap_ratios[1] > 1e3
        # second-chain operator is safely nonsingular
        assert cls.singular_values["T2"][1][-1] > 0.1

    def test_near_critical_is_indeterminate(self, grid64, resonance_potential):
        coupling = -resonance_potential.coupling * (1.0 + 1e-7)
        with pytest.raises(IndeterminateClassification) as info:
            classify(attractive_gaussian(coupling), grid64)
        assert info.value.singular_values is not None

    def test_eigenfunction_correspondence(self, grid64, eigenvalue_potential, eigenvalue_classification):
        # a null vector phi of T0 lifts to psi = -G0 v phi with U v psi = phi,
        # and the lift decays like 1/r^2, the square-integrable tail
        phi = eigenvalue_classification.s1_basis[1][:, 0]
        v = eigenvalue_potential.half(grid64.nodes)
        u = eigenvalue_potential.sign(grid64.nodes)
        a_g0 = build_sector_operator(lambda s: expansion_G(0, s), 1, grid64).matrix
        psi = -a_g0 @ (v * phi)
        assert np.linalg.norm(u * v * psi - phi) < 1e-10
        tail = np.abs(grid64.values(psi))[-20:] * grid64.nodes[-20:] ** 2
        assert tail.max() / tail.min() < 1.5

    def test_tol_validation(self, grid64, subcritical_potential):
        with pytest.raises(ValueError, match="tol"):
            classify(subcritical_potential, grid64, tol=2.0)


class TestResonanceTune:
    def test_tuned_eigenvalue_is_zero(self, grid64, resonance_potential):
        t0 = build_T0(resonance_potential, grid64, 0).matrix
        vals = np.linalg.eigvalsh(t0)
        assert np.min(np.abs(vals)) < 1e-10

    def test_magnitude_decreases_toward_critical(self, grid64, resonance_potential):
        critical = -resonance_potential.coupling
        couplings = np.linspace(3.0, critical, 10)
        mags = []
        for c in couplings:
            vals = np.linalg.eigvalsh(build_T0(attractive_gaussian(c), grid64, 0).matrix)
            mags.append(np.min(np.abs(vals)))
        assert np.all(np.diff(mags) < 0.0)

    def test_no_crossing_raises(self, grid64):
        with pytest.raises(BracketError, match="no sign change"):
            resonance_tune(attractive_gaussian, 0, grid64, (1.0, 2.0))

    def test_empty_bracket_raises(self, grid64):
        with pytest.raises(BracketError, match="empty"):
            resonance_tune(attractive_gaussian, 0, grid64, (5.0, 3.0))


class TestProjectionSplitInversion:
    def test_random_systems_against_lu(self):
        rng = np.random.default_rng(20240811)
        for _ in range(25):
            n = 20
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            s = random_projection(rng, n, 2)
            direct = np.linalg.inv(m)
            split = jn_invert(m, s)
            assert np.linalg.norm(split - direct) / np.linalg.norm(direct) < 1e-9

    def test_zero_projection_plain_inverse(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((8, 8)) + 0.5j * rng.standard_normal((8, 8))
        assert np.allclose(jn_invert(m, np.zeros((8, 8))), np.linalg.inv(m))

    def test_near_singular_operator_stays_accurate(self, grid64, resonance_potential, resonance_classification):
        # the whole point: at eta = 1e-6 the operator has condition ~1e12 but
        # every split factor is tame, so the product check stays tight
        q = resonance_classification.s1_basis[0]
        s = q @ q.T
        m = build_M(PLUS, 1e-6, resonance_potential, grid64, 0)
        inv = jn_invert(m, s)
        assert isinstance(inv, SectorOperator) and inv.ell == 0
        residual = inv.matrix @ m.matrix - np.eye(grid64.count)
        assert np.linalg.norm(residual) < 1e-7

    def test_singular_sum_is_named(self):
        m = np.diag([1.0, 1.0, -1.0])
        s = np.zeros((3, 3))
        s[2, 2] = 1.0  # M + S singular by construction
        with pytest.raises(SingularFactorError, match="M \\+ S"):
            jn_invert(m, s)

    def test_singular_core_is_named(self):
        m = np.diag([0.0, 1.0, 2.0])
        s = np.zeros((3, 3))
        s[0, 0] = 1.0  # M + S fine, but M1 = 0 on range(S)
        with pytest.raises(SingularFactorError, match="M1"):
            jn_invert(m, s)

    def test_plain_inverse_names_the_sector(self, grid64):
        # a zero S inverts M itself, so the diagnostic names M and, for a
        # sector operator, its sector rather than a nonexistent M + S
        zero = np.zeros((grid64.count, grid64.count))
        with pytest.raises(SingularFactorError) as info:
            jn_invert(zero, zero)
        assert info.value.factor == "M"
        with pytest.raises(SingularFactorError) as info:
            jn_invert(SectorOperator(ell=3, grid=grid64, matrix=zero), zero)
        assert info.value.factor == "sector 3 M"

    def test_rejects_non_projection(self):
        m = np.eye(3)
        with pytest.raises(ValueError, match="projection"):
            jn_invert(m, 0.5 * np.eye(3))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            jn_invert(np.eye(3), np.zeros((4, 4)))


class TestLeadingCoefficients:
    def test_regular_blocks(self, grid64, subcritical_potential):
        cls = classify(subcritical_potential, grid64)
        exp = leading_coefficients(cls, subcritical_potential, grid64)
        assert exp.case == "i" and exp.ell == 0
        t0 = build_T0(subcritical_potential, grid64, 0).matrix
        assert np.allclose(exp.blocks["T0_inv"] @ t0, np.eye(grid64.count), atol=1e-11)
        assert np.allclose(
            exp.blocks["first_order_plus"], -exp.blocks["first_order_minus"], atol=1e-15
        )

    def test_regular_remainder_quadratic(self, grid64, subcritical_potential):
        cls = classify(subcritical_potential, grid64)
        exp = leading_coefficients(cls, subcritical_potential, grid64)
        samples = []
        for eta in np.logspace(-3, -1, 7):
            minv = np.linalg.inv(build_M(PLUS, eta, subcritical_potential, grid64, 0).matrix)
            rem = minv - exp.blocks["T0_inv"] - eta * exp.blocks["first_order_plus"]
            samples.append((eta, np.linalg.norm(rem, 2)))
        fit = fit_decay(np.array(samples))
        assert fit.exponent == pytest.approx(2.0, abs=0.2)

    def test_resonance_pole_block_is_rank_one(self, grid64, resonance_potential, resonance_classification):
        exp = leading_coefficients(resonance_classification, resonance_potential, grid64)
        assert exp.case == "ii"
        pole = exp.blocks["M_minus1_plus"]
        sv = np.linalg.svd(pole, compute_uv=False)
        assert sv[1] < 1e-12 * sv[0]
        # closed form through the single null vector
        phi = resonance_classification.s1_basis[0][:, 0]
        b = np.sqrt(FOUR_PI) * grid64.coefficients(resonance_potential.half)
        norm = resonance_potential.l1_norm(grid64)
        x = np.outer(phi, phi) * norm / (b @ phi) ** 2
        assert np.allclose(pole, -1j * (FOUR_PI / norm) * x, atol=1e-10)
        assert np.allclose(exp.blocks["M_minus1_minus"], pole.conj(), atol=1e-15)
        assert 0.0 < exp.rho < 10.0

    def test_resonance_remainder_linear(self, grid64, resonance_potential, resonance_classification):
        exp = leading_coefficients(resonance_classification, resonance_potential, grid64)
        q = resonance_classification.s1_basis[0]
        s = q @ q.T
        samples = []
        for eta in np.logspace(-3, -1, 7):
            minv = jn_invert(build_M(PLUS, eta, resonance_potential, grid64, 0), s).matrix
            rem = minv - exp.blocks["M_minus1_plus"] / eta - exp.blocks["M0"]
            samples.append((eta, np.linalg.norm(rem, 2)))
        fit = fit_decay(np.array(samples))
        assert fit.exponent == pytest.approx(1.0, abs=0.2)

    def test_eigenvalue_blocks(self, grid64, eigenvalue_potential, eigenvalue_classification):
        exp = leading_coefficients(eigenvalue_classification, eigenvalue_potential, grid64)
        assert exp.case == "iii" and exp.ell == 1
        a2 = exp.blocks["A_minus2"]
        # closed form against the small-eta limit
        q = eigenvalue_classification.s1_basis[1]
        s = q @ q.T
        eta = 1e-4
        minv = jn_invert(build_M(PLUS, eta, eigenvalue_potential, grid64, 1), s).matrix
        assert np.linalg.norm(eta**2 * minv - a2) / np.linalg.norm(a2) < 1e-3
        # odd block flips with the boundary, even block is its conjugate
        assert np.linalg.norm(
            exp.blocks["A_minus1_plus"] + exp.blocks["A_minus1_minus"]
        ) < 1e-3 * np.linalg.norm(exp.blocks["A_minus1_plus"])
        assert np.allclose(exp.blocks["A0_minus"], exp.blocks["A0_plus"].conj(), atol=1e-9)

    def test_eigenvalue_pole_terms_dominate(self, grid64, eigenvalue_potential, eigenvalue_classification):
        exp = leading_coefficients(eigenvalue_classification, eigenvalue_potential, grid64)
        q = eigenvalue_classification.s1_basis[1]
        s = q @ q.T
        samples = []
        for eta in np.logspace(-3, -2, 5):
            minv = jn_invert(build_M(PLUS, eta, eigenvalue_potential, grid64, 1), s).matrix
            rem = minv - exp.blocks["A_minus2"] / eta**2 - exp.blocks["A_minus1_plus"] / eta
            samples.append((eta, np.linalg.norm(rem, 2)))
        # after removing both pole blocks only a bounded part remains
        values = np.array([v for _, v in samples])
        assert values.max() < 3.0 * np.linalg.norm(exp.blocks["A0_plus"], 2)

    def test_resonance_block_on_a_singular_overlap(self):
        # with a resonance and an eigenvalue at once Q^T P Q is singular; X is
        # its pseudo-inverse on span(Q): Q a a^T Q^T / |a|^4 for rank-one
        # P = w w^T, with a = Q^T w
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((10, 3)))
        w = rng.standard_normal(10)
        p = np.outer(w, w)
        a = q.T @ w
        x = _resonance_block(q, p, 1e-10)
        want = np.outer(q @ a, q @ a) / (a @ a) ** 2
        assert np.allclose(x, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
        assert np.allclose(x @ p @ x, x, rtol=0.0, atol=1e-12 * np.abs(x).max())

    def test_misclassified_expansion_raises(self, grid64, eigenvalue_classification):
        with pytest.raises(ExpansionMismatchError):
            leading_coefficients(eigenvalue_classification, attractive_gaussian(2.0), grid64)
