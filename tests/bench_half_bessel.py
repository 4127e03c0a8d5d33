"""Microbenchmark: the sector kernels' half-integer Bessel functions against scipy.special.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/bench_half_bessel.py

Not collected by pytest (no test_ prefix).  It lays out one correction-cache
chunk, K = 64 energies against the 64 nodes of the n=64, r_max=9 grid, with
eta from 0.01 to 8, and evaluates for each l = 0..6 what free_sector_resolvent
needs: I_(l+1/2) e^-z and K_(l+1/2) e^z at kappa r, J_(l+1/2) and Y_(l+1/2) at
eta r.  It prints, per pair, the median of 15 interleaved timings in ns per
value for partial_waves' own functions and for scipy's ive/kve and jv/yv,
and the largest difference: relative for the modified pair, relative to the
envelope sqrt(J^2 + Y^2) for the other.
"""
import statistics
import time

import numpy as np
from scipy.special import ive, jv, kve, yv

from fourthorder.partial_waves import _bessel, _modified_bessel, build_grid


def median_ns(cases, values, repeats=15):
    """Median time per value of each case in ns, the cases taking turns so that machine drift hits all alike."""
    times = {name: [] for name in cases}
    for _ in range(repeats):
        for name, f in cases.items():
            start = time.perf_counter()
            f()
            times[name].append(time.perf_counter() - start)
    return {name: 1e9 * statistics.median(ts) / values for name, ts in times.items()}


def main():
    nodes = build_grid(64, r_max=9.0).nodes
    eta = np.linspace(0.01, 8.0, 64)[:, None]
    z_mod, z_osc = np.sqrt(1.0 + eta * eta) * nodes, eta * nodes
    print(f"{z_mod.size} values per call, ns per value (median of 15)")
    print(f"{'l':>2} {'own I,K':>9} {'ive,kve':>9} {'own J,Y':>9} {'jv,yv':>9}   max rel. diff I, K; J, Y")
    for ell in range(7):
        nu = ell + 0.5
        cases = {
            "own I,K": lambda: _modified_bessel(ell, z_mod),
            "ive,kve": lambda: (ive(nu, z_mod), kve(nu, z_mod)),
            "own J,Y": lambda: _bessel(ell, z_osc),
            "jv,yv": lambda: (jv(nu, z_osc), yv(nu, z_osc)),
        }
        ns = median_ns(cases, z_mod.size)
        i, k = _modified_bessel(ell, z_mod)
        j, y = _bessel(ell, z_osc)
        envelope = np.hypot(jv(nu, z_osc), yv(nu, z_osc))
        diffs = (
            np.max(np.abs(i / ive(nu, z_mod) - 1.0)),
            np.max(np.abs(k / kve(nu, z_mod) - 1.0)),
            np.max(np.abs(j - jv(nu, z_osc)) / envelope),
            np.max(np.abs(y - yv(nu, z_osc)) / envelope),
        )
        print(f"{ell:2d} " + " ".join(f"{t:9.1f}" for t in ns.values()) + "   " + ", ".join(f"{d:.1e}" for d in diffs))


if __name__ == "__main__":
    main()
