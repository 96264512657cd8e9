"""Weighted Helmholtz splitting of vector fields on the periodic box.

For a positive weight k the splitting writes v = (v - grad phi) + grad phi
with div(k (v - grad phi)) = 0; the two parts are orthogonal in the
k-weighted inner product. One solve, :func:`_potential_hat`, returns phi
from the half-spectrum of b = -div(k v): the projector takes grad phi,
and the constraint monitor its squared weighted norm, <b, phi> by parts,
with no gradient field. Only the solve tells the weight classes apart,
except that the projector folds a constant weight into the scale of the
divergence instead of forming k v. A constant weight is the multiplier
b / (k |xi|^2); a variable one needs preconditioned conjugate gradients,
with the constant-coefficient inverse Laplacian as preconditioner, to
the relative residual ``PCG_RTOL`` within ``PCG_MAX_ITER`` iterations.

The CG iterates are half-spectra (rfft layout). The preconditioner is
then the multiplier 1/|xi|^2, inner products and norms are Parseval
sums, and an iteration makes 6 scalar transforms: the gradient of the
search direction back to physical space, where the weight multiplies
it, and forward again for the divergence. A projection of k iterations
makes 6k + 6 in 2k + 2 calls. The kz = 0 and kz = Nyquist planes of the
source and of every operator output are made exactly Hermitian, as they
are for a real field; otherwise the preconditioner and the Parseval sums
would carry the roundoff residue that the inverse transform drops, and a
source at roundoff would make PCG diverge.

Constant fields carry no gradient content on the torus, so the zero mode
always lands in the divergence-free part.
"""

from __future__ import annotations

import numpy as np

from .grid import Coefficients, require_same_grid, weighted_norm
from .spectral import FourierWorkspace

# PCG stops once the residual is below PCG_RTOL times the source norm.
PCG_RTOL = 1e-12
PCG_MAX_ITER = 400


class ProjectionSolveError(RuntimeError):
    """The elliptic solve behind the projector did not reach tolerance."""


def project_complement(v: np.ndarray, kappa: np.ndarray, ws: FourierWorkspace) -> np.ndarray:
    """Gradient (curl-free) part of ``v`` in the kappa-weighted splitting.

    Solves -div(kappa grad phi) = -div(kappa v) with mean-zero gauge and
    returns grad phi. Raises :class:`ProjectionSolveError` if PCG stalls.
    """
    if v.shape != (3,) + ws.grid.shape:
        raise ValueError(f"expected a 3-vector field on {ws.grid.shape}, got {v.shape}")
    require_same_grid(v, kappa)
    # A constant weight is a scale on the divergence: no kappa * v temporary.
    # Neither spectrum is named, so it is freed before the solve runs.
    if float(np.ptp(kappa)) == 0.0:
        b = ws.div_hat(ws.forward(v), -float(kappa.flat[0]))
    else:
        b = ws.div_hat(ws.forward(kappa * v), -1.0)
    ws.hermitian_planes(b)
    return ws.inverse(ws.grad_hat(_potential_hat(b, kappa, ws)))


def _potential_hat(b: np.ndarray, kappa: np.ndarray, ws: FourierWorkspace) -> np.ndarray:
    """Half-spectrum of the mean-zero phi with -div(kappa grad phi) = b.

    ``b`` has exactly Hermitian kz = 0 and Nyquist planes. Raises
    :class:`ProjectionSolveError` if PCG stalls."""
    if float(np.ptp(kappa)) == 0.0:
        return ws.inv_xi_sq * b / float(kappa.flat[0])

    # PCG on half-spectra. xi vanishes at the zero mode, so every iterate
    # has zero mean and the gauge needs no step of its own.
    def neg_div(w: np.ndarray) -> np.ndarray:
        return ws.hermitian_planes(ws.div_hat(ws.forward(kappa * w), -1.0))

    bnorm = np.sqrt(ws.inner_hat(b, b))
    phi = np.zeros_like(b)
    if bnorm == 0.0:
        return phi
    r = b.copy()
    z = ws.inv_xi_sq * r
    p = z.copy()
    rz = ws.inner_hat(r, z)
    for _ in range(PCG_MAX_ITER):
        Ap = neg_div(ws.inverse(ws.grad_hat(p)))
        pAp = ws.inner_hat(p, Ap)
        if pAp <= 0:
            raise ProjectionSolveError("PCG lost positive definiteness; check the weight field")
        alpha = rz / pAp
        phi += alpha * p
        r -= alpha * Ap
        if np.sqrt(ws.inner_hat(r, r)) <= PCG_RTOL * bnorm:
            return phi
        z = ws.inv_xi_sq * r
        rz_new = ws.inner_hat(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise ProjectionSolveError(
        f"PCG did not reach rtol={PCG_RTOL} within {PCG_MAX_ITER} iterations "
        f"(residual {np.sqrt(ws.inner_hat(r, r)) / bnorm:.3e} of source norm)"
    )


def project_P(state: np.ndarray, coeffs: Coefficients, ws: FourierWorkspace) -> np.ndarray:
    """Divergence-free part of an EM state, slot by slot in its own weight."""
    return state - project_complement_state(state, coeffs, ws)


def project_complement_state(
    state: np.ndarray, coeffs: Coefficients, ws: FourierWorkspace
) -> np.ndarray:
    """Curl-free part of an EM state, slot by slot in its own weight."""
    if state.shape != (6,) + ws.grid.shape:
        raise ValueError(f"expected an EM state on {ws.grid.shape}, got {state.shape}")
    out = np.empty_like(state)
    out[0:3] = project_complement(state[0:3], coeffs.kappa1, ws)
    out[3:6] = project_complement(state[3:6], coeffs.kappa2, ws)
    return out


def constraint_residual(
    state: np.ndarray, matter_shift: np.ndarray, coeffs: Coefficients, ws: FourierWorkspace
) -> float:
    """Relative curl-free content of (state - matter_shift).

    ``matter_shift`` is the EM-shaped stack holding the matter
    contribution to the divergence constraints (zero in slots the matter
    does not touch). The weighted norm of the curl-free part is divided
    by the sum of the weighted norms of the two inputs; a zero state has
    residual zero. A compatible initial state keeps this at roundoff for
    all time because the evolution never feeds the curl-free subspace.

    The curl-free part of a slot d is grad phi with -div(k grad phi) =
    b = -div(k d), so its squared weighted norm is <b, phi>: one forward
    transform of the weighted difference (6 scalar transforms), then per
    slot the potential solve and a Parseval sum, and no gradient field.
    """
    scale = weighted_norm(state, coeffs, ws.grid) + weighted_norm(matter_shift, coeffs, ws.grid)
    if scale == 0.0:
        return 0.0
    weighted = state - matter_shift
    slots = ((slice(0, 3), coeffs.kappa1), (slice(3, 6), coeffs.kappa2))
    for s, kappa in slots:
        weighted[s] *= kappa
    w_hat = ws.forward(weighted)
    del weighted
    sq = 0.0
    for s, kappa in slots:
        b = ws.hermitian_planes(ws.div_hat(w_hat[s], -1.0))
        sq += ws.inner_hat(b, _potential_hat(b, kappa, ws))
    return float(np.sqrt(max(ws.grid.cell_volume / ws.grid.n**3 * sq, 0.0))) / scale
