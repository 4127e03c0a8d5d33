"""Oscillation-aware panel quadrature for spectral integrals.

Real-axis panels for Stone integrals of the form

    I(t) = ∫ e^{-it(eta^4+eta^2)} f(eta) (4 eta^3 + 2 eta) d eta.

They serve the free kernel for |t| <= 1, or where its rotated ray
misses the tolerance (with its certified tail), the
eigenvalue correction's second-kernel display and the tests' oracles.
Their cost grows with t, so the evolution kernel's cubic body and the
free kernel for |t| > 1 use fixed rules in propagator instead.  The
substitution u = eta^4 + eta^2 makes the phase exactly linear in u, so
there is no stationary-phase machinery here: panels are chosen to span at
most one oscillation period in u (plus a cap on their eta-width so the
amplitude stays resolved) and the Gauss-Kronrod (10, 21) pair does the
rest.  Every panel is evaluated once: its 21 Kronrod nodes give the value
and, through the embedded 10-point Gauss rule, the error estimate.  Only
panels that miss their share of the tolerance are halved, and only the
halves are evaluated.  The improper tail grows its cut by integrating the
new segment alone, so no eta is evaluated twice.  Panel sums are reduced
pairwise in a fixed order, which keeps results bit-reproducible no matter
how the evaluation is chunked.
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

# QUADPACK's qk21 table (Piessens et al., QUADPACK, Springer 1983): the
# nonnegative Kronrod abscissae of [-1, 1], the 10-point Gauss ones at odd
# positions, the Kronrod weights, and the Gauss weights of those abscissae.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

# the 21 nodes on [-1, 1] and a (21, 2) weight matrix whose columns are the
# Kronrod rule and the embedded Gauss rule (zero at Kronrod-only nodes)
_GK_NODES = np.concatenate([_XGK, np.negative(_XGK[-2::-1])])
_GK_WEIGHTS = np.zeros((21, 2))
_GK_WEIGHTS[:, 0] = np.concatenate([_WGK, _WGK[-2::-1]])
_GK_WEIGHTS[1:10:2, 1] = _WG
_GK_WEIGHTS[11::2, 1] = _WG[::-1]

# Panels never exceed one period in u, but the amplitude must be resolved
# too; this caps the eta-width of any panel.
ETA_STEP_CAP = 0.5

DEFAULT_MAX_PANELS = 2_000_000

# Evaluation proceeds in blocks of at most 15 * 2^16 nodes so huge plans
# never materialize a complex value array larger than ~16 MB.
_BLOCK_PANELS = (15 << 16) // _GK_NODES.size


@dataclass(frozen=True)
class QuadResult:
    """Value of an oscillatory integral with its accounting.

    panels is the size of the accepted panel set: every panel there was
    evaluated once, and the halves of a split panel replace it.  Fixed
    rules that use no panels report 0.
    """

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


def _panel_sums(h, t: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per-panel (Kronrod-21, Gauss-10) sums of e^{-it*lambda(eta)} h(eta), shape (n, 2)."""
    mids = 0.5 * (hi + lo)
    halves = 0.5 * (hi - lo)
    n = mids.size
    out = np.empty((n, 2), dtype=complex)
    for start in range(0, n, _BLOCK_PANELS):
        stop = min(start + _BLOCK_PANELS, n)
        x = mids[start:stop, None] + halves[start:stop, None] * _GK_NODES[None, :]
        flat = x.ravel()
        vals = np.asarray(h(flat), dtype=complex) * np.exp(-1j * t * lambda_of_eta(flat))
        out[start:stop] = halves[start:stop, None] * (vals.reshape(x.shape) @ _GK_WEIGHTS)
    return out


def _integrate(h, plan: IntegrationPlan) -> QuadResult:
    """Adaptive driver: one Gauss-Kronrod pass, then halve only the panels that miss.

    The sum over panels is accepted when |sum(K - G)| <= tol * (1 + |sum K|),
    and sum K is returned with that error.  Otherwise the panels whose own
    |K - G| exceeds their share tol * (1 + |sum K|) / n are halved (all of
    them when none does); only the halves are evaluated, the other panels
    keep their sums, and the test repeats.  The panel budget applies to the
    total after each split.
    """
    edges = panel_edges(plan)
    sums = _panel_sums(h, plan.t, edges[:-1], edges[1:])
    for _ in range(20):
        value = complex(np.add.reduce(sums[:, 0]))
        miss = sums[:, 0] - sums[:, 1]
        err = abs(complex(np.add.reduce(miss)))
        allowance = plan.tol * (1.0 + abs(value))
        if err <= allowance:
            return QuadResult(value=value, error=err, panels=sums.shape[0])
        idx = np.flatnonzero(np.abs(miss) > allowance / sums.shape[0])
        if idx.size == 0:
            idx = np.arange(sums.shape[0])
        if sums.shape[0] + idx.size > plan.max_panels:
            raise ConvergenceError(
                f"needed more than {plan.max_panels} panels on {plan.interval}",
                best_estimate=value,
                achieved_error=err,
            )
        lo, hi = edges[idx], edges[idx + 1]
        mid = 0.5 * (lo + hi)
        halves = _panel_sums(h, plan.t, np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        sums[idx] = halves[: idx.size]
        sums = np.insert(sums, idx + 1, halves[idx.size :], axis=0)
        edges = np.insert(edges, idx + 1, mid)
    raise ConvergenceError(
        f"no convergence after 20 refinement passes on {plan.interval}",
        best_estimate=value,
        achieved_error=err,
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
    known oscillation scale of f.  Each time the cut grows by 1.5x only the
    new segment [previous eta_max, eta_max] is integrated; its value, error
    and panels add to the body's, and max_panels bounds their total.
    """
    if not (t != 0.0 and np.isfinite(t)):
        raise ValueError("time must be finite and nonzero")
    if a < 0.0:
        raise ValueError("lower endpoint must be nonnegative")

    eta_max = max(2.0 * (a + 1.0), 4.0, min_eta)
    lo, body, body_error, panels = a, 0.0 + 0.0j, 0.0, 0
    bound = math.inf
    for _ in range(64):
        if eta_max > max_eta:
            raise TruncationError(
                f"could not certify the tail below tol={tol} by eta_max={max_eta}; "
                f"achieved bound {bound:.3e}"
            )
        if panels >= max_panels:
            raise ConvergenceError(
                f"needed more than {max_panels} panels on [{a}, {eta_max}]",
                best_estimate=None,
                achieved_error=math.inf,
            )
        segment = stone_integral(f, t, (lo, eta_max), tol=tol, max_panels=max_panels - panels)
        body += segment.value
        body_error += segment.error
        panels += segment.panels
        lo = eta_max
        u_max = lambda_of_eta(eta_max)
        g_end = complex(np.asarray(f(np.array([eta_max])), dtype=complex)[0])
        dg_end = _boundary_derivative(f, u_max)
        it = 1j * t
        correction = np.exp(-it * u_max) * (g_end / it + dg_end / it**2)
        value = body + correction
        bound = abs(dg_end) / t**2
        if bound <= tol * (1.0 + abs(value)):
            return QuadResult(
                value=value,
                error=body_error + bound,
                panels=panels,
                truncation_bound=bound,
                eta_max=eta_max,
            )
        eta_max *= 1.5
    raise TruncationError(f"tail certificate stalled above tol={tol} (bound {bound:.3e})")
