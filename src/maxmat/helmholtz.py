"""Weighted Helmholtz splitting of vector fields on the periodic box.

For a positive weight k the splitting writes v = (v - grad phi) + grad phi
with div(k (v - grad phi)) = 0; the two parts are orthogonal in the
k-weighted inner product. One solve, :func:`_potential_hat`, returns phi
from the half-spectrum of b = -div(k v): the projector takes grad phi,
and the constraint monitor (:func:`_curl_free_norm`) its squared
weighted norm, <b, phi> by parts, with no gradient field. Only the solve
tells the weight classes apart, except that the projector folds a
constant weight into the scale of the divergence instead of forming k v,
and so also takes a constant-weight field as its half-spectrum. A
constant weight is the multiplier b / (k |xi|^2); a variable one needs
preconditioned conjugate gradients, with the constant-coefficient
inverse Laplacian as preconditioner, to the relative residual
``PCG_RTOL`` within ``PCG_MAX_ITER`` iterations.

The CG iterates are half-spectra (rfft layout). The preconditioner is
then the multiplier 1/|xi|^2, inner products and norms are Parseval
sums, and an iteration makes 6 scalar transforms: the gradient of the
search direction back to physical space, where the weight multiplies
it, and forward again for the divergence. A projection of k iterations
makes 6k + 6 in 2k + 2 calls. The kz = 0 and kz = Nyquist planes of the
source and of every operator output are made exactly Hermitian, as they
are for a real field; otherwise the preconditioner and the Parseval sums
would carry the roundoff residue that the inverse transform drops, and a
source at roundoff would make PCG diverge. An iteration allocates only
what the operator's transforms and divergence return: the gradient goes
into one buffer per solve, the weight multiplies the inverse transform's
output in place, and phi, r, z and p are updated in place through one
scratch half-spectrum, each product and sum with the textbook loop's
operands, so the iterates are bit for bit the textbook ones.

Whatever reads both slots of an EM field (the projector of a state, the
constraint monitor, the seeded initial data) runs one task per slot
(:func:`_each_slot`). Each task writes only its own slot, so the result
is the same bytes on one thread or two.

Constant fields carry no gradient content on the torus, so the zero mode
always lands in the divergence-free part.
"""

from __future__ import annotations

import numpy as np

from .cores import _split
from .grid import Coefficients, weighted_norm
from .spectral import FourierWorkspace

# PCG stops once the residual is below PCG_RTOL times the source norm.
PCG_RTOL = 1e-12
PCG_MAX_ITER = 400


class ProjectionSolveError(RuntimeError):
    """The elliptic solve behind the projector did not reach tolerance."""


def project_complement(v: np.ndarray, kappa: np.ndarray, ws: FourierWorkspace) -> np.ndarray:
    """Gradient (curl-free) part of ``v`` in the kappa-weighted splitting, in
    the form given: a physical 3-vector field, or on a constant weight its
    half-spectrum.

    Solves -div(kappa grad phi) = -div(kappa v) with mean-zero gauge and
    returns grad phi. A constant weight scales the divergence, so no
    kappa * v is formed. Raises :class:`ProjectionSolveError` if PCG stalls.
    """
    spectral = np.iscomplexobj(v)
    shape = ws.spectral_shape if spectral else ws.grid.shape
    if v.shape != (3,) + shape or kappa.shape != ws.grid.shape:
        raise ValueError(f"expected a 3-vector field on {ws.grid.shape} or its half-spectrum "
                         f"and a weight on the grid, got {v.shape} and {kappa.shape}")
    if float(np.ptp(kappa)) == 0.0:
        b = ws.div_hat(v if spectral else ws.forward(v), -float(kappa.flat[0]))
    elif spectral:
        raise ValueError("a half-spectrum is projected on a constant weight only")
    else:
        # The spectrum is not named, so it is freed before the solve runs.
        b = ws.div_hat(ws.forward(kappa * v), -1.0)
    g_hat = ws.grad_hat(_potential_hat(ws.hermitian_planes(b), kappa, ws))
    return g_hat if spectral else ws.inverse(g_hat)


def _potential_hat(b: np.ndarray, kappa: np.ndarray, ws: FourierWorkspace) -> np.ndarray:
    """Half-spectrum of the mean-zero phi with -div(kappa grad phi) = b.

    ``b`` has exactly Hermitian kz = 0 and Nyquist planes. Raises
    :class:`ProjectionSolveError` if PCG stalls."""
    if float(np.ptp(kappa)) == 0.0:
        return ws.inv_xi_sq * b / float(kappa.flat[0])

    # PCG on half-spectra. xi vanishes at the zero mode, so every iterate
    # has zero mean and the gauge needs no step of its own. Every in-place
    # product and sum keeps the textbook loop's operands, so its bits.
    bnorm = np.sqrt(ws.inner_hat(b, b))
    phi = np.zeros_like(b)
    if bnorm == 0.0:
        return phi
    grad = np.empty((3,) + b.shape, dtype=complex)
    scratch = np.empty_like(b)
    r = b.copy()
    z = ws.inv_xi_sq * r
    p = z.copy()
    rz = ws.inner_hat(r, z)
    for _ in range(PCG_MAX_ITER):
        w = ws.inverse(ws.grad_hat(p, out=grad))
        Ap = ws.hermitian_planes(ws.div_hat(ws.forward(np.multiply(kappa, w, out=w)), -1.0))
        # released here, not before the divergence: that peaked one field
        # lower but took 3,137 minor faults per 32^3 solve instead of 841
        del w
        pAp = ws.inner_hat(p, Ap)
        if pAp <= 0:
            raise ProjectionSolveError("PCG lost positive definiteness; check the weight field")
        alpha = rz / pAp
        phi += np.multiply(alpha, p, out=scratch)
        r -= np.multiply(alpha, Ap, out=scratch)
        if np.sqrt(ws.inner_hat(r, r)) <= PCG_RTOL * bnorm:
            return phi
        np.multiply(ws.inv_xi_sq, r, out=z)
        rz_new = ws.inner_hat(r, z)
        np.add(z, np.multiply(rz_new / rz, p, out=p), out=p)
        rz = rz_new
    raise ProjectionSolveError(
        f"PCG did not reach rtol={PCG_RTOL} within {PCG_MAX_ITER} iterations "
        f"(residual {np.sqrt(ws.inner_hat(r, r)) / bnorm:.3e} of source norm)"
    )


def project_P(state: np.ndarray, coeffs: Coefficients, ws: FourierWorkspace) -> np.ndarray:
    """Divergence-free part of an EM state, slot by slot in its own weight,
    in the form given (:func:`project_complement`)."""
    q = project_complement_state(state, coeffs, ws)
    return np.subtract(state, q, out=q)


def project_complement_state(
    state: np.ndarray, coeffs: Coefficients, ws: FourierWorkspace
) -> np.ndarray:
    """Curl-free part of an EM state, slot by slot in its own weight
    (:func:`_each_slot`), in the form given (:func:`project_complement`)."""
    shape = ws.spectral_shape if np.iscomplexobj(state) else ws.grid.shape
    if state.shape != (6,) + shape:
        raise ValueError(f"expected an EM state on {ws.grid.shape} or its half-spectrum, "
                         f"got {state.shape}")
    out = np.empty_like(state)

    def project(i: int, s: slice, kappa: np.ndarray) -> None:
        out[s] = project_complement(state[s], kappa, ws)

    _each_slot(project, coeffs)
    return out


def _each_slot(task, coeffs: Coefficients) -> None:
    """task(i, s, kappa) for both EM slots: i = 0, 1, s the slot's slice of
    a (6, ...) stack and kappa its weight.

    When the weights vary, each slot's work is a potential solve, and the
    two run as the two tasks of :func:`cores._split`. On constant weights a
    solve is a multiplier and both run here, one after the other. Split,
    both slots' projector transforms are live at once: seeded 64^3 initial
    data took 40 ms instead of 52, but the peak RSS of a 64^3
    constant-weight Lawson run rose from 191.5-194.1 MB to 212.1-212.5 MB.
    """
    slots = ((0, slice(0, 3), coeffs.kappa1), (1, slice(3, 6), coeffs.kappa2))
    if coeffs.is_constant:
        for slot in slots:
            task(*slot)
    else:
        _split(coeffs.kappa1.size, lambda slot: task(*slot), *slots)


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

    One forward transform of the weighted difference (6 scalar
    transforms), then per slot the potential solve and a Parseval sum
    (:func:`_curl_free_norm`). ``SimSystem.constraint_residual`` reads the
    same quantity from a spectral state.
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
    return _curl_free_norm([ws.div_hat(w_hat[s], -1.0) for s, _ in slots], coeffs, ws) / scale


def _curl_free_norm(sources: list, coeffs: Coefficients, ws: FourierWorkspace) -> float:
    """Weighted norm of the curl-free part of an EM field, given per slot the
    half-spectrum of its potential source b = -div(k w).

    The curl-free part of slot w is grad phi with -div(k grad phi) = b, so
    its squared weighted norm is <b, phi> by parts: per slot the potential
    solve and a Parseval sum, and no gradient field, split over the slots
    as :func:`_each_slot` does. The sum adds slot 1 then slot 2, whichever
    thread ran them. The sources' kz = 0 and Nyquist planes are made
    Hermitian in place.
    """
    parts = [0.0, 0.0]

    def solve(i: int, s: slice, kappa: np.ndarray) -> None:
        b = ws.hermitian_planes(sources[i])
        parts[i] = ws.inner_hat(b, _potential_hat(b, kappa, ws))

    _each_slot(solve, coeffs)
    sq = 0.0
    for part in parts:
        sq += part
    return float(np.sqrt(max(ws.grid.cell_volume / ws.grid.n**3 * sq, 0.0)))
