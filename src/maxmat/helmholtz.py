"""Weighted Helmholtz splitting of vector fields on the periodic box.

For a positive weight k the splitting writes v = (v - grad phi) + grad phi
with div(k (v - grad phi)) = 0; the two parts are orthogonal in the
k-weighted inner product. Constant weights reduce to a pure Fourier
multiplier; variable weights need an elliptic solve, done here by
preconditioned conjugate gradients with the constant-coefficient inverse
Laplacian as preconditioner, to the relative residual ``PCG_RTOL``
within ``PCG_MAX_ITER`` iterations.

Constant fields carry no gradient content on the torus, so the zero mode
always lands in the divergence-free part.
"""

from __future__ import annotations

import numpy as np

from .grid import Coefficients, require_same_grid, weighted_norm
from .spectral import FourierWorkspace, safe_div

# PCG stops once the residual is below PCG_RTOL times the source norm.
PCG_RTOL = 1e-12
PCG_MAX_ITER = 400


class ProjectionSolveError(RuntimeError):
    """The elliptic solve behind the projector did not reach tolerance."""


def _grad(phi_hat: np.ndarray, ws: FourierWorkspace) -> np.ndarray:
    return ws.inverse(np.stack([1j * x * phi_hat for x in ws.xi]))


def _div(v: np.ndarray, ws: FourierWorkspace) -> np.ndarray:
    vhat = ws.forward(v)
    return ws.inverse(1j * (ws.xi[0] * vhat[0] + ws.xi[1] * vhat[1] + ws.xi[2] * vhat[2]))


def _inv_neg_laplacian_hat(rho: np.ndarray, ws: FourierWorkspace) -> np.ndarray:
    """Solve -lap phi = rho spectrally; returns phi_hat, zero mode pinned."""
    return safe_div(ws.forward(rho), ws.xi_sq)


def project_complement(
    v: np.ndarray,
    kappa: np.ndarray,
    ws: FourierWorkspace,
) -> np.ndarray:
    """Gradient (curl-free) part of ``v`` in the kappa-weighted splitting.

    Solves -div(kappa grad phi) = -div(kappa v) with mean-zero gauge and
    returns grad phi. Raises :class:`ProjectionSolveError` if PCG stalls.
    """
    if v.shape != (3,) + ws.grid.shape:
        raise ValueError(f"expected a 3-vector field on {ws.grid.shape}, got {v.shape}")
    require_same_grid(v, kappa)

    if float(np.ptp(kappa)) == 0.0:
        # Constant weight: grad phi = xi (xi . vhat) / |xi|^2 mode by mode.
        return ws.inverse(ws.longitudinal(ws.forward(v)))

    b = -_div(kappa * v, ws)
    b -= b.mean()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(v)

    def apply_A(phi: np.ndarray) -> np.ndarray:
        phi_hat = ws.forward(phi)
        return -_div(kappa * _grad(phi_hat, ws), ws)

    def apply_M(r: np.ndarray) -> np.ndarray:
        return ws.inverse(_inv_neg_laplacian_hat(r, ws))

    phi = np.zeros(ws.grid.shape)
    r = b.copy()
    z = apply_M(r)
    p = z.copy()
    rz = float(np.sum(r * z))
    for _ in range(PCG_MAX_ITER):
        Ap = apply_A(p)
        pAp = float(np.sum(p * Ap))
        if pAp <= 0:
            raise ProjectionSolveError("PCG lost positive definiteness; check the weight field")
        alpha = rz / pAp
        phi += alpha * p
        r -= alpha * Ap
        if float(np.linalg.norm(r)) <= PCG_RTOL * bnorm:
            phi -= phi.mean()
            return _grad(ws.forward(phi), ws)
        z = apply_M(r)
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise ProjectionSolveError(
        f"PCG did not reach rtol={PCG_RTOL} within {PCG_MAX_ITER} iterations "
        f"(residual {float(np.linalg.norm(r)) / bnorm:.3e} of source norm)"
    )


def project_P(
    state: np.ndarray,
    coeffs: Coefficients,
    ws: FourierWorkspace,
) -> np.ndarray:
    """Divergence-free part of an EM state, slot by slot in its own weight."""
    return state - project_complement_state(state, coeffs, ws)


def project_complement_state(
    state: np.ndarray,
    coeffs: Coefficients,
    ws: FourierWorkspace,
) -> np.ndarray:
    """Curl-free part of an EM state, slot by slot in its own weight."""
    if state.shape != (6,) + ws.grid.shape:
        raise ValueError(f"expected an EM state on {ws.grid.shape}, got {state.shape}")
    out = np.empty_like(state)
    out[0:3] = project_complement(state[0:3], coeffs.kappa1, ws)
    out[3:6] = project_complement(state[3:6], coeffs.kappa2, ws)
    return out


def constraint_residual(
    state: np.ndarray,
    matter_shift: np.ndarray,
    coeffs: Coefficients,
    ws: FourierWorkspace,
) -> float:
    """Relative curl-free content of (state - matter_shift).

    ``matter_shift`` is the EM-shaped stack holding the matter
    contribution to the divergence constraints (zero in slots the matter
    does not touch). The weighted norm of the curl-free part is divided
    by the sum of the weighted norms of the two inputs; a zero state has
    residual zero. A compatible initial state keeps this at roundoff for
    all time because the evolution never feeds the curl-free subspace.
    """
    scale = weighted_norm(state, coeffs, ws.grid) + weighted_norm(
        matter_shift, coeffs, ws.grid
    )
    if scale == 0.0:
        return 0.0
    diff = state - matter_shift
    resid = project_complement_state(diff, coeffs, ws)
    return weighted_norm(resid, coeffs, ws.grid) / scale
