"""Fixed-size probes of each layer's public functions, timed on their own.

The traced mode runs these after its rounds, on every workload, so each
per-layer metric is measured on the same inputs whichever workload ran.
Sizes follow the workloads: the threshold grid (n=32, eta_top=3) for the
inversion and cache layers, the free-decay tolerance for the free
kernel, and the regular-late times for evolution_kernel.  Probes are
repeated and reported as a median, except the cache build, the
t = 1e4 sample and the F/G sweeps, which run once (the last two would
hit the program's t-keyed Stone weight cache on a repeat); every call is
a span.
"""
from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from fourthorder import (
    PLUS,
    CorrectionCache,
    F_kernel,
    G_kernel,
    Geometry,
    build_grid,
    build_threshold_data,
    classify,
    evolution_kernel,
    free_kernel,
    free_resolvent,
    jn_invert,
    resonance_tune,
)
from fourthorder.birman_schwinger import build_M
from fourthorder.kernels import free_resolvent_diff
from fourthorder.oscillatory import stone_integral
from fourthorder.partial_waves import build_sector_operator

from workloads import ThresholdDispersion, attractive_gaussian, render_config, run_cli

REPEATS = 5
# separation 1 keeps the free part of evolution_kernel at the regular-late
# geometry's cost (its eta cut is the floor of 4, not 2 * separation)
GEOMETRY = Geometry(1.0, 0.5, 0.2)
CORRECTION_TIMES = (10.0, 31.6, 100.0, 316.0, 1000.0)


def run_probes(tracer, workdir: Path) -> dict:
    """Time every layer probe; returns metric name -> (value, unit)."""
    out: dict = {}

    def timed(name: str, fn, repeats: int = 1):
        times, result = [], None
        for _ in range(repeats):
            with tracer.span(f"probe.{name}"):
                start = time.perf_counter()
                result = fn()
                times.append(time.perf_counter() - start)
        return statistics.median(times), result

    seps = np.linspace(0.0, 10.0, 1_000_000)
    dt, _ = timed("kernels.free_resolvent", lambda: free_resolvent(PLUS, 0.7, seps), REPEATS)
    out["kernels.free_resolvent_ns"] = (dt / seps.size * 1e9, "ns")

    grid64 = build_grid(64, r_max=9.0)
    for eta in (0.0, 8.0):
        kernel = lambda s, eta=eta: free_resolvent(PLUS, eta, s)
        dt, _ = timed(
            f"partial_waves.build_sector_operator_eta{eta:g}",
            lambda: build_sector_operator(kernel, 0, grid64, oscillation=eta),
            REPEATS,
        )
        out[f"partial_waves.build_sector_operator_eta{eta:g}_s"] = (dt, "s")

    td = ThresholdDispersion
    grid = build_grid(td.GRID_COUNT, r_max=td.R_MAX)
    wells = {}
    for label, ell, bracket, _, _ in td.CASES:
        dt, tuned = timed(
            f"birman_schwinger.resonance_tune.{label}",
            lambda: resonance_tune(attractive_gaussian, ell, grid, bracket),
            REPEATS,
        )
        if label == "resonance":
            out["birman_schwinger.resonance_tune_s"] = (dt, "s")
            out["birman_schwinger.resonance_tune_iterations"] = (tuned.iterations, "count")
        well = attractive_gaussian(tuned.coupling)
        dt, cls = timed(f"birman_schwinger.classify.{label}", lambda: classify(well, grid), REPEATS)
        if label == "resonance":
            out["birman_schwinger.classify_s"] = (dt, "s")
        wells[label] = (well, cls)

    res_well, res_cls = wells["resonance"]
    dt, _ = timed("birman_schwinger.build_M_eta8", lambda: build_M(PLUS, 8.0, res_well, grid, 0), REPEATS)
    out["birman_schwinger.build_M_eta8_s"] = (dt, "s")
    near = build_M(PLUS, 1e-3, res_well, grid, 0).matrix
    q = res_cls.s1_basis[0]
    dt, _ = timed("birman_schwinger.jn_invert", lambda: jn_invert(near, q @ q.T), REPEATS)
    out["birman_schwinger.jn_invert_s"] = (dt, "s")

    dt, cache = timed(
        "propagator.CorrectionCache",
        lambda: CorrectionCache(res_well, grid, res_cls, [GEOMETRY], eta_top=td.ETA_TOP),
    )
    out["propagator.CorrectionCache_s"] = (dt, "s")
    out["propagator.CorrectionCache_node_ms"] = (1e3 * dt / (cache.eta_nodes.size * (cache.ell_max + 1)), "ms")

    data = {}
    for label, (well, cls) in wells.items():
        dt, data[label] = timed(
            f"propagator.build_threshold_data.{label}", lambda: build_threshold_data(well, grid, cls), REPEATS
        )
        if label == "eigenvalue":
            out["propagator.build_threshold_data_s"] = (dt, "s")
    # the probes run in a fresh process, so the t-keyed Stone weight cache
    # starts cold as in a workload round
    for kernel, label in ((F_kernel, "resonance"), (G_kernel, "eigenvalue")):
        dt, _ = timed(
            f"propagator.{kernel.__name__}",
            lambda: [kernel(t, GEOMETRY, data[label]) for t in CORRECTION_TIMES],
        )
        out[f"propagator.{kernel.__name__}_s"] = (dt, "s")

    total = 0.0
    # the t=1e4 sample takes seconds, so it runs once
    for tag, t, repeats in (("t1e2", 1e2, REPEATS), ("t1e3", 1e3, REPEATS), ("t1e4", 1e4, 1)):
        dt, _ = timed(
            f"propagator.evolution_kernel_{tag}",
            lambda: evolution_kernel(t, GEOMETRY, cache, subtract="none"),
            repeats,
        )
        out[f"propagator.evolution_kernel_{tag}_s"] = (dt, "s")
        total += dt
    out["propagator.evolution_kernel_s"] = (total, "s")

    for tag, t in (("t1e-3", 1e-3), ("t1e3", 1e3)):
        dt, _ = timed(f"propagator.free_kernel_{tag}", lambda: free_kernel(t, GEOMETRY.separation, tol=1e-6), REPEATS)
        out[f"propagator.free_kernel_{tag}_s"] = (dt, "s")

    amplitude = lambda eta: free_resolvent_diff(eta, 1.0) / (2j * np.pi)
    dt, quad = timed("oscillatory.stone_integral_t1e3", lambda: stone_integral(amplitude, 1e3, (0.0, 4.0), tol=1e-8), REPEATS)
    out["oscillatory.stone_integral_t1e3_s"] = (dt, "s")
    out["oscillatory.stone_integral_t1e3_panels"] = (quad.panels, "count")

    config = workdir / "probe-free.cfg"
    config.write_text(
        render_config(
            {
                "experiment.name": "free-decay",
                "window.t_lo": 1e-3,
                "window.t_hi": 0.1,
                "window.samples": 5,
                "rgrid.count": 4,
                "rgrid.r_max": 3.0,
            }
        )
    )
    dt, code = timed("cli.main", lambda: run_cli("free-decay", config, workdir / "probe-free"), REPEATS)
    if code != 0:
        raise RuntimeError(f"cli.main probe exited {code}")
    out["cli.main_s"] = (dt, "s")
    return out
