"""Oscillation-aware quadrature for spectral integrals.

All time evolution in this package is synthesized from integrals of the form

    I(t) = ∫ e^{-it(eta^4+eta^2)} f(eta) (4 eta^3 + 2 eta) d eta.

The substitution u = eta^4 + eta^2 makes the phase exactly linear in u, so
there is no stationary-phase machinery here: panels are chosen to span at
most one oscillation period in u (plus a cap on their eta-width so the
amplitude stays resolved) and fixed-order Gauss-Legendre does the rest.
Panel sums are reduced pairwise in a fixed order, which keeps results
bit-reproducible no matter how the evaluation is chunked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, TruncationError
from .spectral_map import eta_of_lambda, lambda_of_eta, stone_jacobian

__all__ = [
    "IntegrationPlan",
    "QuadResult",
    "improper_tail",
    "panel_edges",
    "stone_integral",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)

# Panels never exceed one period in u, but the amplitude must be resolved
# too; this caps the eta-width of any panel.
ETA_STEP_CAP = 0.5

DEFAULT_MAX_PANELS = 2_000_000

# Evaluation proceeds in blocks of at most this many panels so huge plans
# never materialize a node array larger than ~32 MB.
_BLOCK_PANELS = 1 << 16


@dataclass(frozen=True)
class QuadResult:
    """Value of an oscillatory integral with its accounting."""

    value: complex
    error: float
    panels: int
    truncation_bound: float = 0.0
    eta_max: float | None = None


@dataclass(frozen=True)
class IntegrationPlan:
    """Finite-interval plan: where to put panel edges for a given time."""

    t: float
    interval: tuple[float, float]
    tol: float
    max_panels: int = DEFAULT_MAX_PANELS

    def __post_init__(self):
        t = self.t
        a, b = self.interval
        if not (np.isfinite(t) and t != 0.0):
            raise ValueError("time must be finite and nonzero")
        if not (0.0 <= a < b and np.isfinite(b)):
            raise ValueError(f"need 0 <= a < b < inf, got [{a}, {b}]")
        if not (self.tol > 0.0):
            raise ValueError("tolerance must be positive")
        if self.max_panels < 1:
            raise ValueError("max_panels must be positive")


def panel_edges(plan: IntegrationPlan) -> np.ndarray:
    """Panel edges in eta for the plan.

    The edges are the union of a uniform grid in u = eta^4 + eta^2 with
    spacing one period 2*pi/|t| and a uniform eta grid at ETA_STEP_CAP, so
    every panel spans at most one period in u and stays narrow in eta.
    """
    a, b = plan.interval
    u_a, u_b = lambda_of_eta(a), lambda_of_eta(b)
    period = 2.0 * math.pi / abs(plan.t)
    n_per = int(math.ceil((u_b - u_a) / period))
    if n_per > plan.max_panels:
        raise ConvergenceError(
            f"interval spans {n_per} oscillation periods, above the panel "
            f"budget {plan.max_panels}",
            best_estimate=None,
            achieved_error=math.inf,
        )
    from_u = eta_of_lambda(u_a + period * np.arange(1, n_per))
    n_cap = int(math.ceil((b - a) / ETA_STEP_CAP))
    from_cap = a + (b - a) * np.arange(1, n_cap) / n_cap
    edges = np.concatenate([[a, b], from_u, from_cap])
    edges.sort()
    # drop near-duplicates from the union, keeping both endpoints exact
    keep = np.empty(edges.size, dtype=bool)
    keep[0] = True
    keep[1:] = np.diff(edges) > 1e-12 * (1.0 + b)
    keep[-1] = True
    edges = edges[keep]
    if edges.size < 2 or edges[-1] != b:
        edges = np.append(edges[edges < b], b)
    return edges


def _refine(edges: np.ndarray, splits: int) -> np.ndarray:
    if splits == 1:
        return edges
    frac = np.arange(splits) / splits
    fine = edges[:-1, None] + np.diff(edges)[:, None] * frac[None, :]
    return np.append(fine.ravel(), edges[-1])


def _panel_sums(h, t: float, edges: np.ndarray) -> np.ndarray:
    """Per-panel Gauss-Legendre sums of e^{-it*lambda(eta)} h(eta)."""
    mids = 0.5 * (edges[1:] + edges[:-1])
    halves = 0.5 * np.diff(edges)
    n = mids.size
    out = np.empty(n, dtype=complex)
    for lo in range(0, n, _BLOCK_PANELS):
        hi = min(lo + _BLOCK_PANELS, n)
        x = mids[lo:hi, None] + halves[lo:hi, None] * _GL_NODES[None, :]
        flat = x.ravel()
        vals = np.asarray(h(flat), dtype=complex) * np.exp(-1j * t * lambda_of_eta(flat))
        out[lo:hi] = halves[lo:hi] * (vals.reshape(x.shape) @ _GL_WEIGHTS)
    return out


def _integrate(h, plan: IntegrationPlan) -> QuadResult:
    """Adaptive driver: h-refine until the coarse/fine difference is small."""
    base = panel_edges(plan)
    n_base = base.size - 1
    splits = 1
    coarse = complex(np.add.reduce(_panel_sums(h, plan.t, base)))
    best, best_err = coarse, math.inf
    for _ in range(20):
        if 2 * splits * n_base > plan.max_panels:
            raise ConvergenceError(
                f"needed more than {plan.max_panels} panels on {plan.interval}",
                best_estimate=best,
                achieved_error=best_err,
            )
        fine_edges = _refine(base, 2 * splits)
        fine = complex(np.add.reduce(_panel_sums(h, plan.t, fine_edges)))
        err = abs(fine - coarse)
        if err <= plan.tol * (1.0 + abs(fine)):
            return QuadResult(value=fine, error=err, panels=fine_edges.size - 1)
        best, best_err = fine, err
        coarse = fine
        splits *= 2
    raise ConvergenceError(
        f"no convergence after 20 refinement passes on {plan.interval}",
        best_estimate=best,
        achieved_error=best_err,
    )


def stone_integral(
    f,
    t: float,
    interval: tuple[float, float],
    tol: float = 1e-9,
    max_panels: int = DEFAULT_MAX_PANELS,
) -> QuadResult:
    """∫ e^{-it(eta^4+eta^2)} f(eta) (4 eta^3 + 2 eta) d eta over [a, b].

    f must accept numpy arrays of eta values and be bounded on the
    interval.  The reported error satisfies error <= tol * (1 + |value|)
    on success; otherwise a ConvergenceError carries the best estimate.
    """
    plan = IntegrationPlan(t=float(t), interval=(float(interval[0]), float(interval[1])), tol=tol, max_panels=max_panels)
    return _integrate(lambda eta: np.asarray(f(eta)) * stone_jacobian(eta), plan)


def _boundary_derivative(f, u: float) -> complex:
    """d/du of f(eta(u)) by central difference, for tail certificates."""
    h = 1e-5 * max(u, 1.0)
    us = np.array([u - h, u + h])
    g = np.asarray(f(eta_of_lambda(us)), dtype=complex)
    return complex((g[1] - g[0]) / (2.0 * h))


def improper_tail(
    f,
    t: float,
    a: float,
    tol: float = 1e-9,
    min_eta: float = 0.0,
    max_eta: float = 512.0,
    max_panels: int = DEFAULT_MAX_PANELS,
) -> QuadResult:
    """Tail integral ∫_a^∞ of the Stone integrand, certified by truncation.

    Precondition: |f(eta)| decays at least like 1/eta for eta >= a; the
    truncation certificate rests on it.  The integral is cut at eta_max
    and closed with the two boundary terms of integration by parts in u;
    the reported truncation_bound is the magnitude of the first neglected
    boundary term, |g'(u_max)| / t^2, which dominates the remainder once
    f'(eta(u)) decays monotonically.  min_eta forces the cut beyond any
    known oscillation scale of f.
    """
    if not (t != 0.0 and np.isfinite(t)):
        raise ValueError("time must be finite and nonzero")
    if a < 0.0:
        raise ValueError("lower endpoint must be nonnegative")

    eta_max = max(2.0 * (a + 1.0), 4.0, min_eta)
    bound = math.inf
    for _ in range(64):
        if eta_max > max_eta:
            raise TruncationError(
                f"could not certify the tail below tol={tol} by eta_max={max_eta}; "
                f"achieved bound {bound:.3e}"
            )
        body = stone_integral(f, t, (a, eta_max), tol=tol, max_panels=max_panels)
        u_max = lambda_of_eta(eta_max)
        g_end = complex(np.asarray(f(np.array([eta_max])), dtype=complex)[0])
        dg_end = _boundary_derivative(f, u_max)
        it = 1j * t
        correction = np.exp(-it * u_max) * (g_end / it + dg_end / it**2)
        value = body.value + correction
        bound = abs(dg_end) / t**2
        if bound <= tol * (1.0 + abs(value)):
            return QuadResult(
                value=value,
                error=body.error + bound,
                panels=body.panels,
                truncation_bound=bound,
                eta_max=eta_max,
            )
        eta_max *= 1.5
    raise TruncationError(f"tail certificate stalled above tol={tol} (bound {bound:.3e})")
