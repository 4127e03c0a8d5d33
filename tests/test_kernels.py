import numpy as np
import pytest

from fourthorder.kernels import (
    G2_AT_ZERO,
    G4_AT_ZERO,
    MINUS,
    PLUS,
    expansion_G,
    expansion_partial_sum,
    free_resolvent,
    free_resolvent_diff,
)

# Reference values evaluated from the closed forms at 40-digit precision.
ORACLE = {
    ("R0+", 0.8, 1.3): 0.008510657149794480764 + 0.023153828560918268680j,
    ("R0+", 2.5, 0.0): 0.015871770341110546492 + 0.014736568804805123682j,
    ("R0+", 0.0, 2.0): 0.034403915947511676496 + 0.0j,
    ("G", 0, 1.5): 0.041214225050462164606,
    ("G", 2, 1.5): -0.133233486775257869638,
    ("G", 3, 1.5): -0.188996494921625711226,
    ("G", 4, 1.5): 0.272108763620960123518,
}


def test_free_resolvent_frozen_values():
    for (tag, eta, r), want in ORACLE.items():
        if tag != "R0+":
            continue
        got = free_resolvent(PLUS, eta, r)
        assert got == pytest.approx(want, rel=1e-13)
        assert free_resolvent(MINUS, eta, r) == pytest.approx(np.conj(want), rel=1e-13)


def test_sign_aliases():
    a = free_resolvent(PLUS, 0.8, 1.3)
    for alias in ("+", "plus", 1, 1.0):
        assert free_resolvent(alias, 0.8, 1.3) == a
    b = free_resolvent(MINUS, 0.8, 1.3)
    for alias in ("-", "minus", -1):
        assert free_resolvent(alias, 0.8, 1.3) == b
    with pytest.raises(ValueError):
        free_resolvent("up", 0.8, 1.3)


def test_diagonal_is_continuous_limit():
    eta = 1.7
    r = np.array([1e-8, 1e-10, 0.0])
    vals = free_resolvent(PLUS, eta, r)
    assert vals[0] == pytest.approx(vals[2], rel=1e-7)
    assert vals[1] == pytest.approx(vals[2], rel=1e-9)


def test_small_eta_r_product_stability():
    # tiny eta*r must not lose the oscillatory part to cancellation
    eta, r = 1e-8, 1e-6
    got = free_resolvent(PLUS, eta, r)
    # leading behaviour: G0(r) + i*eta/(4*pi)
    want_im = eta / (4.0 * np.pi)
    assert got.imag == pytest.approx(want_im, rel=1e-9)
    assert got.real == pytest.approx(expansion_G(0, r), rel=1e-9)


def test_boundary_difference():
    eta = np.linspace(0.01, 4.0, 37)
    r = 2.2
    direct = free_resolvent(PLUS, eta, r) - free_resolvent(MINUS, eta, r)
    assert np.allclose(free_resolvent_diff(eta, r), direct, rtol=1e-12, atol=1e-18)
    # diagonal: difference tends to i*eta/(2*pi*(1+2*eta^2))
    d0 = free_resolvent_diff(1.3, 0.0)
    assert d0 == pytest.approx(1j * 1.3 / (2.0 * np.pi * (1.0 + 2.0 * 1.3**2)), rel=1e-14)


def test_expansion_kernels_frozen_values():
    for (tag, j, r), want in ORACLE.items():
        if tag != "G":
            continue
        assert expansion_G(j, r) == pytest.approx(want, rel=1e-13)
    assert expansion_G(2, 0.0) == pytest.approx(G2_AT_ZERO, abs=0.0)
    assert expansion_G(4, 0.0) == pytest.approx(G4_AT_ZERO, abs=0.0)


def test_expansion_kernels_small_r_stable():
    # naive forms cancel catastrophically below r ~ 1e-4
    for j in (0, 2, 4):
        at0 = expansion_G(j, 0.0)
        near = expansion_G(j, np.array([1e-9, 1e-6, 1e-4]))
        assert np.max(np.abs(near - at0) / np.abs(at0)) < 1e-3
        assert abs(expansion_G(j, 1e-7) - at0) / abs(at0) < 1e-6


def test_partial_sum_remainder_order():
    # remainder after order k must scale like eta^(k+1) at fixed r;
    # eta large enough that the order-5 remainder clears roundoff
    r = 1.7
    etas = np.array([0.05, 0.025, 0.0125])
    for order in (0, 1, 2, 3, 4):
        rem = np.array(
            [
                abs(free_resolvent(PLUS, e, r) - expansion_partial_sum(PLUS, e, r, order))
                for e in etas
            ]
        )
        slope = np.polyfit(np.log(etas), np.log(rem), 1)[0]
        assert slope > order + 0.9, (order, slope)


def test_partial_sum_order4_r_weight():
    # fourth-order remainder grows no faster than r^4 in the sampled range
    eta = 1e-3
    rs = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    rem = np.array(
        [abs(free_resolvent(PLUS, eta, r) - expansion_partial_sum(PLUS, eta, r, 4)) for r in rs]
    )
    ratio = rem / (eta**5 * (1.0 + rs**4))
    assert np.max(ratio) < 5.0


def test_expansion_G_rejects_bad_order():
    with pytest.raises(ValueError):
        expansion_G(5, 1.0)
    with pytest.raises(ValueError):
        expansion_partial_sum(PLUS, 0.1, 1.0, 7)
