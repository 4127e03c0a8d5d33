import numpy as np
import pytest

from fourthorder.spectral_map import eta_of_lambda, lambda_of_eta, stone_jacobian


def test_frozen_values():
    assert lambda_of_eta(1.0) == pytest.approx(2.0, abs=1e-15)
    assert eta_of_lambda(2.0) == pytest.approx(1.0, abs=1e-15)
    assert stone_jacobian(1.0) == pytest.approx(6.0, abs=1e-15)


def test_round_trip_wide_range():
    lam = np.logspace(-12, 8, 400)
    back = lambda_of_eta(eta_of_lambda(lam))
    assert np.max(np.abs(back - lam) / lam) < 1e-14
    eta = np.logspace(-8, 2, 400)
    back = eta_of_lambda(lambda_of_eta(eta))
    assert np.max(np.abs(back - eta) / eta) < 1e-14


def test_small_lambda_asymptotics():
    # eta ~ sqrt(lambda) as lambda -> 0, with relative error O(lambda)
    lam = np.array([1e-16, 1e-14, 1e-12, 1e-10])
    eta = eta_of_lambda(lam)
    assert np.max(np.abs(eta / np.sqrt(lam) - 1.0)) < 1e-9


def test_jacobian_matches_finite_difference():
    rng = np.random.default_rng(7)
    eta = rng.uniform(0.01, 30.0, size=50)
    h = 1e-6 * np.maximum(eta, 1.0)
    fd = (lambda_of_eta(eta + h) - lambda_of_eta(eta - h)) / (2.0 * h)
    assert np.max(np.abs(fd - stone_jacobian(eta)) / np.abs(fd)) < 1e-8


def test_monotone():
    eta = np.linspace(0.0, 50.0, 2001)
    lam = lambda_of_eta(eta)
    assert np.all(np.diff(lam) > 0.0)


def test_domain_errors():
    with pytest.raises(ValueError):
        eta_of_lambda(-1.0)
    with pytest.raises(ValueError):
        lambda_of_eta(-0.5)
    with pytest.raises(ValueError):
        stone_jacobian(np.nan)
