"""Microbenchmark: the correction cache's cubic against scipy's CubicSpline.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/bench_spline_eval.py

Not collected by pytest (no test_ prefix).  It builds the regular n=16
cache of the regular-late workload, lays out the Gauss-Kronrod nodes of
the body panels at t = 1e3 on [0, 3.9] (about 8.2e5 nodes, each panel's
nodes in descending order), and prints the median of 15 interleaved
timings each of: CubicSpline on the same complex data; that spline
inside the integrand (spline - shift) (4 eta^2 + 2); the cache's own
cubic of Im W_raw; and the body integrand that evolution_kernel hands
to the quadrature, Im(W_raw - shift) (4 eta^2 + 2), taken to the
complex array the panel sums convert it to.
"""
import statistics
import time

import numpy as np
from scipy.interpolate import CubicSpline

from fourthorder import oscillatory, propagator
from fourthorder.birman_schwinger import classify, make_potential
from fourthorder.partial_waves import build_grid
from fourthorder.propagator import CorrectionCache, Geometry, evolution_kernel


def body_integrand(cache, geometry, t):
    """The integrand evolution_kernel passes to the panel quadrature, captured in one call."""
    captured = []
    integrate = propagator._integrate
    propagator._integrate = lambda h, plan: captured.append(h) or integrate(h, plan)
    try:
        evolution_kernel(t, geometry, cache)
    finally:
        propagator._integrate = integrate
    return captured[0]


def median_ms(cases, repeats=15):
    """Median time of each case in ms, the cases taking turns so that machine drift hits all alike."""
    times = {name: [] for name in cases}
    for _ in range(repeats):
        for name, f in cases.items():
            start = time.perf_counter()
            f()
            times[name].append(time.perf_counter() - start)
    return {name: 1e3 * statistics.median(ts) for name, ts in times.items()}


def main():
    grid = build_grid(16, r_max=9.0)
    potential = make_potential("gaussian", -1.0)
    geometry = Geometry(1.0, 0.5, 0.2)
    cache = CorrectionCache(potential, grid, classify(potential, grid), [geometry])
    x = cache.eta_nodes
    spline = CubicSpline(x, cache.scaled_difference(geometry)(x))
    shift = 0.0 + 0.0j  # the regular verdict subtracts nothing
    integrand = body_integrand(cache, geometry, 1e2)

    edges = oscillatory.panel_edges(oscillatory.IntegrationPlan(t=1e3, interval=(0.0, 3.9), tol=1e-8))
    mids, halves = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    eta = (mids[:, None] + halves[:, None] * oscillatory._GK_NODES).ravel()

    worst = np.max(np.abs(spline(eta) - 1j * cache.imag_difference(geometry, eta)))
    print(f"{eta.size} nodes, {x.size} knots; max |CubicSpline - own cubic| / max|W| = "
          f"{worst / np.max(np.abs(spline(x))):.1e}")
    cases = {
        "CubicSpline(eta)": lambda: spline(eta),
        "(CubicSpline(eta) - shift) (4 eta^2 + 2)": lambda: (spline(eta) - shift) * (4.0 * eta**2 + 2.0),
        "own cubic (real)": lambda: cache.imag_difference(geometry, eta),
        "body integrand with the own cubic": lambda: np.asarray(integrand(eta), dtype=complex),
    }
    for name, ms in median_ms(cases).items():
        print(f"{name:42s} {ms:6.1f} ms")


if __name__ == "__main__":
    main()
