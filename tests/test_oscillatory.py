import numpy as np
import pytest

from fourthorder.errors import ConvergenceError, TruncationError
from fourthorder.oscillatory import (
    _GK_NODES,
    _GK_WEIGHTS,
    IntegrationPlan,
    _boundary_derivative,
    _integrate,
    improper_tail,
    panel_edges,
    stone_integral,
)
from fourthorder.spectral_map import lambda_of_eta

# Frozen reference values.  ANTIDERIV is (1 - e^{-60i})/(3i) for the
# constant amplitude on [0, 2] at t = 3.  RESOLVENT_DIFF is a Richardson-
# extrapolated Simpson value (4e6/8e6/16e6 nodes) for the boundary-
# difference amplitude at r = 1, t = 50 on [0, 10].  FRESNEL_TAIL is the
# closed-form tail of (1+4u)^{-1/2} from u = 2 at t = 10, cross-checked
# against 30-digit oscillatory quadrature.  The PROBE values are Simpson
# sums over the amplitude support.
ANTIDERIV = -0.10160354036740557 - 0.6508043268050521j
RESOLVENT_DIFF = 3.0074750375e-04 - 2.6555918579e-04j
FRESNEL_TAIL = -0.030087059819808364 - 0.014254308349203124j
PROBE_GAUSS_T100 = 0.06341190776691036 - 0.06185085243680338j
PROBE_BUMP_T100 = -3.961637044792138e-07 + 1.5367468678857505e-07j


def resolvent_difference_r1(eta):
    eta = np.asarray(eta, dtype=float)
    w = 1.0 + 2.0 * eta**2
    return 1j * np.sinc(eta / np.pi) * eta / (2.0 * np.pi * w)


def smoothed_indicator(eta, lo=1.0, hi=2.0, ramp=0.25):
    eta = np.asarray(eta, dtype=float)
    out = np.zeros_like(eta)
    up = (eta >= lo) & (eta < lo + ramp)
    out[up] = np.sin(0.5 * np.pi * (eta[up] - lo) / ramp) ** 2
    out[(eta >= lo + ramp) & (eta <= hi - ramp)] = 1.0
    dn = (eta > hi - ramp) & (eta <= hi)
    out[dn] = np.sin(0.5 * np.pi * (hi - eta[dn]) / ramp) ** 2
    return out


class TestPlan:
    def test_edges_monotone_in_u_and_period_bounded(self):
        plan = IntegrationPlan(t=37.0, interval=(0.2, 3.1), tol=1e-9)
        edges = panel_edges(plan)
        u = lambda_of_eta(edges)
        assert np.all(np.diff(u) > 0.0)
        period = 2.0 * np.pi / 37.0
        assert np.max(np.diff(u)) <= period * (1.0 + 1e-9)
        assert edges[0] == 0.2 and edges[-1] == 3.1

    def test_validation(self):
        with pytest.raises(ValueError):
            IntegrationPlan(t=0.0, interval=(0.0, 1.0), tol=1e-9)
        with pytest.raises(ValueError):
            IntegrationPlan(t=1.0, interval=(-0.1, 1.0), tol=1e-9)
        with pytest.raises(ValueError):
            IntegrationPlan(t=1.0, interval=(1.0, 1.0), tol=1e-9)
        with pytest.raises(ValueError):
            IntegrationPlan(t=1.0, interval=(0.0, np.inf), tol=1e-9)
        with pytest.raises(ValueError):
            IntegrationPlan(t=1.0, interval=(0.0, 1.0), tol=0.0)


class TestKronrodRule:
    def moments(self, weights, kmax):
        k = np.arange(kmax + 1)
        exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        return np.abs(_GK_NODES[None, :] ** k[:, None] @ weights - exact)

    def test_kronrod_exact_through_degree_31(self):
        assert _GK_NODES.size == 21
        assert np.max(self.moments(_GK_WEIGHTS[:, 0], 31)) < 1e-15
        assert self.moments(_GK_WEIGHTS[:, 0], 32)[-1] > 1e-13

    def test_embedded_gauss_exact_through_degree_19(self):
        assert np.max(self.moments(_GK_WEIGHTS[:, 1], 19)) < 1e-15
        assert self.moments(_GK_WEIGHTS[:, 1], 20)[-1] > 1e-7

    def test_embedded_gauss_is_legendre_10(self):
        used = _GK_WEIGHTS[:, 1] != 0.0
        order = np.argsort(_GK_NODES[used])
        nodes, weights = np.polynomial.legendre.leggauss(10)
        assert np.allclose(_GK_NODES[used][order], nodes, rtol=0.0, atol=1e-15)
        assert np.allclose(_GK_WEIGHTS[used, 1][order], weights, rtol=0.0, atol=1e-15)


class TestStoneIntegral:
    def test_zero_amplitude(self):
        res = stone_integral(lambda eta: np.zeros_like(eta), 5.0, (0.0, 2.0))
        assert res.value == 0.0 + 0.0j
        assert res.error == 0.0

    def test_exact_antiderivative(self):
        res = stone_integral(lambda eta: np.ones_like(eta), 3.0, (0.0, 2.0), tol=1e-12)
        assert res.value == pytest.approx(ANTIDERIV, abs=1e-10)
        assert res.error <= 1e-12 * (1.0 + abs(res.value))

    def test_resolvent_difference_against_riemann_oracle(self):
        res = stone_integral(resolvent_difference_r1, 50.0, (0.0, 10.0), tol=1e-9)
        assert res.value == pytest.approx(RESOLVENT_DIFF, rel=1e-6)
        # a plain 1e6-node trapezoid sum agrees at its own (coarser) accuracy
        eta = np.linspace(0.0, 10.0, 1_000_001)
        integrand = (
            np.exp(-1j * 50.0 * lambda_of_eta(eta))
            * resolvent_difference_r1(eta)
            * (4.0 * eta**3 + 2.0 * eta)
        )
        brute = np.trapezoid(integrand, eta)
        assert abs(brute - res.value) / abs(res.value) < 2e-2

    def test_linearity(self):
        f1 = lambda eta: np.exp(-(eta**2))
        f2 = lambda eta: 1.0 / (1.0 + eta**2)
        a, b = 2.0 - 1.0j, 0.3 + 0.7j
        combo = stone_integral(lambda eta: a * f1(eta) + b * f2(eta), 7.0, (0.0, 3.0))
        parts = a * stone_integral(f1, 7.0, (0.0, 3.0)).value + b * stone_integral(
            f2, 7.0, (0.0, 3.0)
        ).value
        assert combo.value == pytest.approx(parts, rel=1e-9)

    def test_interval_additivity(self):
        f = lambda eta: np.exp(-(eta**2))
        whole = stone_integral(f, 11.0, (0.0, 2.0), tol=1e-11)
        left = stone_integral(f, 11.0, (0.0, 1.0), tol=1e-11)
        right = stone_integral(f, 11.0, (1.0, 2.0), tol=1e-11)
        assert whole.value == pytest.approx(left.value + right.value, rel=1e-9)

    def test_time_reversal_conjugates(self):
        f = lambda eta: np.exp(-(eta**2)) * (1.0 + eta)
        fwd = stone_integral(f, 13.0, (0.0, 2.5))
        bwd = stone_integral(f, -13.0, (0.0, 2.5))
        assert bwd.value == pytest.approx(np.conj(fwd.value), rel=1e-13)

    def test_panel_count_scales_linearly(self):
        f = lambda eta: np.exp(-(eta**2))
        du = lambda_of_eta(2.0)
        counts = {}
        for t in (10.0, 100.0, 1000.0):
            res = stone_integral(f, t, (0.0, 2.0), tol=1e-9)
            counts[t] = res.panels
            assert res.panels <= 2.0 * (t * du / (2.0 * np.pi)) + 2.0 * (2.0 / 0.5) + 10.0
        assert 5.0 < counts[1000.0] / counts[100.0] < 20.0

    def test_budget_exhaustion(self):
        with pytest.raises(ConvergenceError) as info:
            stone_integral(lambda eta: np.ones_like(eta), 100.0, (0.0, 2.0), max_panels=3)
        assert info.value.best_estimate is None
        with pytest.raises(ConvergenceError) as info:
            stone_integral(np.cos, 3.0, (0.0, 2.0), tol=1e-13, max_panels=16)
        assert isinstance(info.value.best_estimate, complex)


    def test_accepted_panels_are_evaluated_once(self):
        calls = []

        def h(eta):
            calls.append(eta.size)
            return np.exp(-(eta**2))

        plan = IntegrationPlan(t=7.0, interval=(0.0, 3.0), tol=1e-9)
        res = _integrate(h, plan)
        assert res.panels == panel_edges(plan).size - 1
        assert sum(calls) == 21 * res.panels

    def test_only_missing_panels_are_split(self):
        # one panel near eta = 0 misses its share; halving every panel
        # would double the base plan
        plan = IntegrationPlan(t=100.0, interval=(0.0, 2.0), tol=1e-9)
        base = panel_edges(plan).size - 1
        res = stone_integral(lambda eta: np.exp(-(eta**2)), 100.0, (0.0, 2.0), tol=1e-9)
        assert base == 322
        assert base < res.panels <= base + 8


class TestImproperTail:
    def test_compact_support_reduces_to_finite_integral(self):
        f = lambda eta: smoothed_indicator(eta, lo=1.5, hi=3.0, ramp=0.3)
        tail = improper_tail(f, 7.0, 1.0, tol=1e-9)
        finite = stone_integral(f, 7.0, (1.0, 3.0), tol=1e-11)
        assert tail.value == pytest.approx(finite.value, rel=1e-7)
        assert tail.truncation_bound <= 1e-9 * (1.0 + abs(tail.value))
        assert tail.eta_max >= 3.0

    def test_fresnel_oracle(self):
        f = lambda eta: 1.0 / (1.0 + 2.0 * eta**2)
        res = improper_tail(f, 10.0, 1.0, tol=1e-8)
        assert res.value == pytest.approx(FRESNEL_TAIL, rel=1e-6)

    def test_doubling_cut_stays_within_reported_bound(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            amp = rng.uniform(0.5, 2.0)
            shift = rng.uniform(0.5, 3.0)
            p = rng.integers(1, 4)
            t = rng.uniform(5.0, 40.0)
            a = rng.uniform(0.3, 1.5)
            f = lambda eta: amp / (shift + 2.0 * eta**2) ** (p / 2.0)
            first = improper_tail(f, t, a, tol=1e-6)
            doubled = improper_tail(f, t, a, tol=1e-6, min_eta=2.0 * first.eta_max)
            change = abs(first.value - doubled.value)
            assert change <= first.truncation_bound + first.error + doubled.error

    def test_extensions_evaluate_each_eta_once(self):
        seen = []

        def f(eta):
            seen.append(np.array(eta, copy=True))
            return 1.0 / (1.0 + 2.0 * eta**2)

        tail = improper_tail(f, 0.5, 0.0, tol=1e-8)
        assert tail.eta_max > 4.0 * 1.5**3  # several extensions ran
        etas = np.concatenate(seen)
        assert np.unique(etas).size == etas.size

        one_shot = stone_integral(f, 0.5, (0.0, tail.eta_max), tol=1e-8)
        u_max = lambda_of_eta(tail.eta_max)
        it = 0.5j
        ends = np.exp(-it * u_max) * (
            f(np.array([tail.eta_max]))[0] / it + _boundary_derivative(f, u_max) / it**2
        )
        assert abs(tail.value - (one_shot.value + ends)) <= tail.error + one_shot.error

    def test_truncation_error(self):
        f = lambda eta: 1.0 / np.sqrt(1.0 + 2.0 * eta**2)
        with pytest.raises(TruncationError):
            improper_tail(f, 5.0, 1.0, tol=1e-9, max_eta=5.0)


class TestEngineSamples:
    def test_gaussian_amplitude_engine_sample(self):
        plan = IntegrationPlan(t=100.0, interval=(0.0, 8.0), tol=1e-9)
        res = _integrate(lambda eta: np.exp(-(eta**2)), plan)
        assert res.value == pytest.approx(PROBE_GAUSS_T100, rel=1e-7)

    def test_shoulder_bump_engine_sample(self):
        # the shoulders are only C^1, so compare absolutely: the kink
        # error inside panels sits near 1e-12 at this tolerance
        plan = IntegrationPlan(t=100.0, interval=(0.0, 4.0), tol=1e-12)
        res = _integrate(smoothed_indicator, plan)
        assert res.value == pytest.approx(PROBE_BUMP_T100, abs=5e-12)
