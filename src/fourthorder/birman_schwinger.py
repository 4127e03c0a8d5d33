"""Threshold spectral analysis of the sandwiched resolvent.

The operator M(eta) = U + v R0(eta) v decides everything about the zero-
energy behaviour of the perturbed evolution: whether its small-eta inverse
stays bounded (regular), blows up like 1/eta (resonance) or 1/eta^2
(eigenvalue), and with which leading operators.  This module assembles M
and its static pieces on the radial grid, classifies the threshold by a
null-space chain T0 -> T1 -> T2, inverts near-singular M by projection
splitting, and extracts the leading expansion blocks in each case.

All matrices live in the symmetrized sector convention of partial_waves,
so adjoints are literal matrix conjugate-transposes.  Every sector kernel
comes in closed form from partial_waves: the R0 block of M, and of T0 at
eta = 0 where R0 = G0, from free_sector_resolvent, and the v G2 v
sandwich of T2, A_{-2} and the resonance's constant block from
g2_sector_kernel; no mu-quadrature runs here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketError,
    ExpansionMismatchError,
    IndeterminateClassification,
    SingularFactorError,
)
from .kernels import FOUR_PI, MINUS, PLUS
from .partial_waves import (
    ELL_MAX_CLASSIFY,
    RadialGrid,
    SectorOperator,
    free_sector_resolvent,
    g2_sector_kernel,
)

__all__ = [
    "Classification",
    "ExpansionCoefficients",
    "Potential",
    "TuneResult",
    "build_M",
    "build_P",
    "build_T0",
    "classify",
    "jn_invert",
    "leading_coefficients",
    "make_potential",
    "resonance_tune",
]

COND_LIMIT = 1e12
NULL_TOL = 1e-7

_PROFILES = {
    "gaussian": (lambda r: np.exp(-(r**2)), 16.0),
    "exponential": (lambda r: np.exp(-r), 8.0),
    "polynomial": (None, None),
}


@dataclass(frozen=True)
class Potential:
    """Radial potential coupling * profile(r) with an asserted decay rate."""

    profile: object
    beta: float
    coupling: float = 1.0
    name: str = "custom"

    def __post_init__(self):
        if not (self.beta > 0.0 and np.isfinite(self.beta)):
            raise ValueError("decay exponent must be positive and finite")

    def values(self, r) -> np.ndarray:
        return self.coupling * np.asarray(self.profile(np.asarray(r, dtype=float)))

    def half(self, r) -> np.ndarray:
        """v(r) = sqrt|V(r)|."""
        return np.sqrt(np.abs(self.values(r)))

    def sign(self, r) -> np.ndarray:
        """U(r) = +1 where V >= 0, -1 where V < 0."""
        return np.where(self.values(r) >= 0.0, 1.0, -1.0)

    def l1_norm(self, grid: RadialGrid) -> float:
        """||V||_1 = 4*pi Int |V| r^2 dr on the grid."""
        return float(FOUR_PI * np.sum(grid.weights * grid.nodes**2 * np.abs(self.values(grid.nodes))))


def make_potential(name: str, coupling: float, beta: float | None = None) -> Potential:
    """Built-in profiles: gaussian e^{-r^2}, exponential e^{-r}, polynomial (1+r)^{-beta}."""
    if name not in _PROFILES:
        raise ValueError(f"unknown profile {name!r}; have {sorted(_PROFILES)}")
    if name == "polynomial":
        if beta is None:
            raise ValueError("polynomial profile needs an explicit decay exponent")
        b = float(beta)
        return Potential(profile=lambda r: (1.0 + r) ** (-b), beta=b, coupling=coupling, name=name)
    profile, default_beta = _PROFILES[name]
    return Potential(
        profile=profile, beta=default_beta if beta is None else beta, coupling=coupling, name=name
    )


def _check_inputs(potential: Potential, grid: RadialGrid) -> None:
    vals = potential.values(grid.nodes)
    if vals.shape != grid.nodes.shape or not np.all(np.isfinite(vals)):
        raise ValueError("potential is not finite on the grid")


def _g2_sandwich(potential: Potential, grid: RadialGrid, ell: int) -> np.ndarray:
    """v G2 v in one sector, as a matrix in the symmetrized convention."""
    scale = np.sqrt(grid.weights) * grid.nodes * potential.half(grid.nodes)
    return scale[:, None] * g2_sector_kernel(ell, grid.nodes, grid.nodes) * scale[None, :]


def _free_sector_matrix(sign, eta, grid: RadialGrid, ell: int) -> np.ndarray:
    """The closed-form sector matrix of R0 in the symmetrized convention, stacked over an eta array."""
    scale = np.sqrt(grid.weights) * grid.nodes
    kern = free_sector_resolvent(sign, eta, ell, grid.nodes, grid.nodes)
    return scale[:, None] * kern * scale[None, :]


def _m_from_r0(r0: np.ndarray, potential: Potential, grid: RadialGrid, ell: int) -> SectorOperator:
    """M = U + v R0 v from an assembled sector matrix of R0, or from a stack of them."""
    _check_inputs(potential, grid)
    v = potential.half(grid.nodes)
    body = v[:, None] * r0 * v[None, :]
    mat = np.diag(potential.sign(grid.nodes)).astype(body.dtype) + body
    return SectorOperator(ell=ell, grid=grid, matrix=mat)


def build_M(sign, eta, potential: Potential, grid: RadialGrid, ell: int = 0) -> SectorOperator:
    """M(eta) = U + v R0(eta) v in one sector (T0 at eta = 0); a 1-D eta array gives a stack."""
    if np.any(np.asarray(eta) < 0.0):
        raise ValueError("eta must be nonnegative")
    return _m_from_r0(_free_sector_matrix(sign, eta, grid, ell), potential, grid, ell)


def build_T0(potential: Potential, grid: RadialGrid, ell: int = 0) -> SectorOperator:
    """U + v G0 v with the static kernel G0 = R0(eta = 0) (real symmetric)."""
    return _m_from_r0(_free_sector_matrix(PLUS, 0.0, grid, ell).real, potential, grid, ell)


def build_P(potential: Potential, grid: RadialGrid) -> SectorOperator:
    """Rank-one projection onto v, nonzero only in the radial sector."""
    _check_inputs(potential, grid)
    norm = potential.l1_norm(grid)
    if norm <= 0.0:
        raise ValueError("potential vanishes; projection onto v undefined")
    b = np.sqrt(FOUR_PI) * grid.coefficients(potential.half)
    return SectorOperator(ell=0, grid=grid, matrix=np.outer(b, b) / norm)


@dataclass(frozen=True)
class Classification:
    """Outcome of the zero-energy null-space chain."""

    verdict: str
    s1_basis: dict
    s2_basis: dict
    singular_values: dict
    gap_ratios: dict
    v_overlaps: dict
    tol: float


def _null_split(matrix: np.ndarray, tol: float, scale: float | None = None):
    """Singular values plus the null basis under the threshold tol * scale.

    scale defaults to the largest singular value (a relative threshold);
    unit-scale operators pass scale = 1 for an absolute one.
    """
    u, s, vt = np.linalg.svd(matrix)
    if scale is None:
        scale = s[0] if s[0] > 0.0 else 1.0
    thr = tol * scale
    ambiguous = (s > thr / 3.0) & (s < thr * 3.0)
    if np.any(ambiguous):
        raise IndeterminateClassification(
            f"singular values {s[ambiguous]} sit within 3x of the null threshold {thr:.3e}",
            singular_values=s,
        )
    null = s < thr
    return s, vt[null].conj().T, thr


def classify(
    potential: Potential,
    grid: RadialGrid,
    ell_max: int = ELL_MAX_CLASSIFY,
    tol: float = NULL_TOL,
) -> Classification:
    """Zero-energy verdict from the chain T0 -> T1 = S1 P S1 -> T2.

    Per sector, null vectors of T0 span S1.  The rank-one projection P
    acts only in the radial sector, so S2 (the part of S1 invisible to P,
    i.e. the genuine eigenfunctions) is everything except the possible
    radial vector with nonzero overlap against v.  Verdicts: no S1 is
    regular; S2 = 0 < S1 a resonance; 0 != S2 = S1 an eigenvalue;
    0 != S2 < S1 both at once.
    """
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must sit in (0, 1)")
    if ell_max < 0:
        raise ValueError(f"ell_max must be >= 0, got {ell_max}")
    _check_inputs(potential, grid)
    s1_basis, s2_basis = {}, {}
    singular = {"T0": {}, "T1": {}, "T2": {}}
    gaps, overlaps = {}, {}

    for ell in range(ell_max + 1):
        t0 = build_T0(potential, grid, ell).matrix
        s, null_vecs, thr = _null_split(t0, tol)
        singular["T0"][ell] = s[::-1][: max(4, null_vecs.shape[1] + 1)]
        kept, dropped = s[s >= thr], s[s < thr]
        gaps[ell] = float(kept[-1] / dropped[0]) if dropped.size else float("inf")
        if null_vecs.shape[1]:
            s1_basis[ell] = null_vecs

    b = np.sqrt(FOUR_PI) * grid.coefficients(potential.half)
    for ell, q in s1_basis.items():
        if ell == 0:
            p = build_P(potential, grid).matrix
            t1 = q.T @ p @ q
            s1v, null1, _ = _null_split(t1, tol, scale=1.0)
            singular["T1"][ell] = s1v[::-1]
            if null1.shape[1]:
                s2_basis[ell] = q @ null1
            overlaps[ell] = np.abs(b @ q) / (np.linalg.norm(b) * 1.0)
        else:
            # v is radial: these sectors never see P
            singular["T1"][ell] = np.zeros(q.shape[1])
            s2_basis[ell] = q
            overlaps[ell] = np.zeros(q.shape[1])

    n1 = sum(v.shape[1] for v in s1_basis.values())
    n2 = sum(v.shape[1] for v in s2_basis.values())
    if n1 == 0:
        verdict = "regular"
    elif n2 == 0:
        verdict = "resonance"
    elif n2 == n1:
        verdict = "eigenvalue"
    else:
        verdict = "resonance_and_eigenvalue"

    for ell, q2 in s2_basis.items():
        t2 = q2.T @ _g2_sandwich(potential, grid, ell) @ q2
        s2v = np.linalg.svd(t2, compute_uv=False)
        singular["T2"][ell] = s2v[::-1]
        if s2v[-1] <= tol * max(1.0, s2v[0]):
            raise IndeterminateClassification(
                f"second-chain operator nearly singular in sector {ell}",
                singular_values=s2v,
            )

    return Classification(
        verdict=verdict,
        s1_basis=s1_basis,
        s2_basis=s2_basis,
        singular_values=singular,
        gap_ratios=gaps,
        v_overlaps=overlaps,
        tol=tol,
    )


def _as_matrix(op):
    return op.matrix if isinstance(op, SectorOperator) else np.asarray(op)


def _guarded_inverse(matrix: np.ndarray, factor: str) -> np.ndarray:
    """Inverse of a matrix or of each one in a stack, or SingularFactorError past cond COND_LIMIT.

    The condition number is the exact 1-norm one, ||A||_1 ||A^{-1}||_1,
    from the inverse itself, worst over the stack; an exactly singular
    member, which np.linalg.inv refuses, counts as infinite.
    """
    try:
        inv = np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        raise SingularFactorError(factor, np.inf) from None
    with np.errstate(over="ignore", invalid="ignore"):
        cond = np.linalg.norm(matrix, 1, axis=(-2, -1)) * np.linalg.norm(inv, 1, axis=(-2, -1))
    worst = float(np.max(np.where(np.isnan(cond), np.inf, cond)))
    if not np.isfinite(worst) or worst > COND_LIMIT:
        raise SingularFactorError(factor, worst)
    # column-major per matrix, the layout of a LAPACK solve's output: the
    # products downstream round by layout, and this one keeps them equal
    # to those on an inverse from scipy.linalg.lu_solve
    return np.swapaxes(np.ascontiguousarray(np.swapaxes(inv, -1, -2)), -1, -2)


def jn_invert(M, S):
    """Invert M, or each matrix of a (K, n, n) stack, through the projection-split identity.

    With S a finite-rank orthogonal projection commuting with nothing in
    particular, M is invertible iff M + S is and M1 = S - S(M+S)^{-1}S is
    on range(S); then M^{-1} = (M+S)^{-1} + (M+S)^{-1} S M1^{-1} S (M+S)^{-1}.
    A zero S gives the plain inverse.  One n x n projection serves the
    whole stack and is checked once.  Each factor is inverted as a stack,
    and the exact 1-norm condition of every member is guarded:
    SingularFactorError names "M + S", or "M" for a zero S, or "M1" past
    cond 1e12, prefixed with the sector when M is a SectorOperator.
    """
    mat = _as_matrix(M)
    s = _as_matrix(S)
    if mat.ndim not in (2, 3) or s.shape != mat.shape[-2:]:
        raise ValueError("projection shape does not match the operator")
    split = np.linalg.norm(s) > 0.0
    if split:
        if not np.allclose(s @ s, s, atol=1e-8) or not np.allclose(s, s.conj().T, atol=1e-8):
            raise ValueError("S must be an orthogonal projection")
    where = f"sector {M.ell} " if isinstance(M, SectorOperator) else ""
    mps = mat + s.astype(mat.dtype, copy=False)
    mps_inv = _guarded_inverse(mps, where + ("M + S" if split else "M"))
    rank = int(round(np.real(np.trace(s))))
    if rank == 0:
        inv = mps_inv
    else:
        sv, svecs = np.linalg.eigh((s + s.conj().T) / 2.0)
        q = svecs[:, sv > 0.5]
        m1 = np.eye(q.shape[1], dtype=mps_inv.dtype) - q.conj().T @ mps_inv @ q
        m1_inv = _guarded_inverse(m1, where + "M1")
        inv = mps_inv + mps_inv @ (q @ m1_inv @ q.conj().T) @ mps_inv
    if isinstance(M, SectorOperator):
        return SectorOperator(ell=M.ell, grid=M.grid, matrix=inv)
    return inv


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Leading blocks of the small-eta inverse in one sector."""

    case: str
    ell: int
    blocks: dict
    rho: float | None = None


def _projection(basis_columns: np.ndarray, n: int) -> np.ndarray:
    if basis_columns is None or basis_columns.size == 0:
        return np.zeros((n, n))
    return basis_columns @ basis_columns.conj().T


def _restricted_inverse(body: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Q (Q^T body Q)^{-1} Q^T, the inverse taken on span(Q)."""
    small = q.conj().T @ body @ q
    return q @ np.linalg.inv(small) @ q.conj().T


def _resonance_block(q1: np.ndarray, p: np.ndarray, tol: float) -> np.ndarray:
    """X = Q (Q^T P Q)^+ Q^T on the radial null space.

    A pseudo-inverse, not _restricted_inverse: with a resonance and an
    eigenvalue at once, Q^T P Q is singular on the eigenvalue directions.
    """
    vals, vecs = np.linalg.eigh(q1.T @ p @ q1)
    keep = np.abs(vals) > tol
    return q1 @ ((vecs[:, keep] / vals[keep]) @ vecs[:, keep].T) @ q1.T


def _second_kernel_block(potential: Potential, grid: RadialGrid, ell: int, q2: np.ndarray) -> np.ndarray:
    """A_{-2} = Q2 (Q2^T v G2 v Q2)^{-1} Q2^T, the eigenvalue's 1/eta^2 block."""
    return _restricted_inverse(_g2_sandwich(potential, grid, ell), q2)


def _radial_resolvent(potential: Potential, grid: RadialGrid, q1: np.ndarray, p: np.ndarray):
    """D0 = (T0 + S1)^{-1} in the radial sector, with rho = tr(P D0 P)."""
    t0 = build_T0(potential, grid, 0).matrix
    d0 = np.linalg.inv(t0 + _projection(q1, grid.count))
    return d0, float(np.real(np.trace(p @ d0 @ p)))


def leading_coefficients(
    classification: Classification,
    potential: Potential,
    grid: RadialGrid,
    fit_etas=None,
) -> ExpansionCoefficients:
    """Expansion blocks for the sector that controls the threshold.

    Regular case: inverse of T0 and the rank-one first-order block.
    Resonance case: the 1/eta block and the constant block assembled from
    D0 = (T0 + S1)^{-1}, T1 restricted to S1, and the v G2 v sandwich.
    Eigenvalue cases: the closed-form 1/eta^2 block, then the 1/eta and
    constant blocks extracted by a least-squares fit in eta (the fitted
    blocks are a numerical surrogate, flagged by key).
    """
    verdict = classification.verdict
    n = grid.count
    norm_v = potential.l1_norm(grid)

    if verdict == "regular":
        t0 = build_T0(potential, grid, 0).matrix
        t0_inv = np.linalg.inv(t0)
        p = build_P(potential, grid).matrix
        first = (norm_v / FOUR_PI) * (t0_inv @ p @ t0_inv)
        blocks = {
            "T0_inv": t0_inv,
            "first_order_plus": -1j * first,
            "first_order_minus": 1j * first,
        }
        return ExpansionCoefficients(case="i", ell=0, blocks=blocks)

    if verdict == "resonance":
        ell = 0
        q1 = classification.s1_basis[0]
        p = build_P(potential, grid).matrix
        d0, rho = _radial_resolvent(potential, grid, q1, p)
        x = _resonance_block(q1, p, classification.tol)
        g2 = _g2_sandwich(potential, grid, ell)
        # P D0 P = rho P because P has rank one, which folds the second-order
        # projection term into rho * X P X
        m0 = (
            d0
            + (FOUR_PI**2 / norm_v**2) * (x @ g2 @ x)
            + rho * (x @ p @ x)
            - d0 @ p @ x
            - x @ p @ d0
        )
        m_minus1 = (FOUR_PI / norm_v) * x
        blocks = {
            "M_minus1_plus": -1j * m_minus1,
            "M_minus1_minus": 1j * m_minus1,
            "M0": m0,
        }
        return ExpansionCoefficients(case="ii", ell=ell, blocks=blocks, rho=rho)

    # eigenvalue or resonance_and_eigenvalue: the 1/eta^2 sector
    ell = min(ell for ell in classification.s2_basis)
    a_minus2 = _second_kernel_block(potential, grid, ell, classification.s2_basis[ell])

    if fit_etas is None:
        fit_etas = np.logspace(-3, -2, 8)
    fit_etas = np.asarray(fit_etas, dtype=float)
    s1 = _projection(classification.s1_basis.get(ell), n)
    samples = {
        sign: fit_etas[:, None, None] ** 2 * jn_invert(build_M(sign, fit_etas, potential, grid, ell), s1).matrix
        for sign in (PLUS, MINUS)
    }

    design = np.vander(fit_etas, 4, increasing=True)  # 1, eta, eta^2, eta^3
    blocks = {"A_minus2": a_minus2}
    rho = None
    if 0 in classification.s1_basis:
        p = build_P(potential, grid).matrix
        _, rho = _radial_resolvent(potential, grid, classification.s1_basis[0], p)
    for sign, tag in ((PLUS, "plus"), (MINUS, "minus")):
        stack = samples[sign].reshape(len(fit_etas), -1)
        coef_cubic, *_ = np.linalg.lstsq(design, stack, rcond=None)
        coef_quad, *_ = np.linalg.lstsq(design[:, :3], stack, rcond=None)
        resid = np.max(
            np.linalg.norm(stack - design[:, :3] @ coef_quad, axis=1).reshape(-1)
        )
        cubic_norm = np.linalg.norm(coef_cubic[3])
        envelope = cubic_norm * fit_etas[-1] ** 3
        if resid > 10.0 * max(envelope, 1e-12):
            raise ExpansionMismatchError(
                f"quadratic fit residual {resid:.3e} above 10x the cubic envelope {envelope:.3e}"
            )
        a_m2_fit = coef_quad[0].reshape(n, n)
        if np.linalg.norm(a_m2_fit - a_minus2) > 10.0 * max(envelope, 1e-9 * np.linalg.norm(a_minus2)):
            raise ExpansionMismatchError(
                "fitted 1/eta^2 block disagrees with its closed form; "
                "classification and expansion are inconsistent"
            )
        blocks[f"A_minus1_{tag}"] = coef_quad[1].reshape(n, n)
        blocks[f"A0_{tag}"] = coef_quad[2].reshape(n, n)
    case = "iii"
    return ExpansionCoefficients(case=case, ell=ell, blocks=blocks, rho=rho)


@dataclass(frozen=True)
class TuneResult:
    coupling: float
    eigenvalue: float
    vector: np.ndarray
    iterations: int


def _nearest_zero_eigenpair(matrix: np.ndarray):
    vals, vecs = np.linalg.eigh(matrix)
    i = int(np.argmin(np.abs(vals)))
    return float(vals[i]), vecs[:, i]


def resonance_tune(
    family,
    ell: int,
    grid: RadialGrid,
    bracket: tuple[float, float],
    tol: float = 1e-12,
) -> TuneResult:
    """Bisect the coupling until T0's near-zero eigenvalue crosses zero.

    family maps a coupling to a Potential; the tracked quantity is the
    eigenvalue of T0 nearest zero, which is monotone through the
    threshold for attractive families.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise BracketError(f"bracket [{lo}, {hi}] is empty")
    f_lo, _ = _nearest_zero_eigenpair(build_T0(family(lo), grid, ell).matrix)
    f_hi, _ = _nearest_zero_eigenpair(build_T0(family(hi), grid, ell).matrix)
    if np.sign(f_lo) == np.sign(f_hi):
        raise BracketError(
            f"no sign change across [{lo}, {hi}]: f(lo)={f_lo:.3e}, f(hi)={f_hi:.3e}"
        )
    iterations = 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid, vec = _nearest_zero_eigenpair(build_T0(family(mid), grid, ell).matrix)
        iterations += 1
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        if hi - lo < tol * max(abs(mid), 1.0):
            break
    mid = 0.5 * (lo + hi)
    f_mid, vec = _nearest_zero_eigenpair(build_T0(family(mid), grid, ell).matrix)
    return TuneResult(coupling=mid, eigenvalue=f_mid, vector=vec, iterations=iterations)
