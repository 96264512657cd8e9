"""Weighted Helmholtz splitting of vector fields on the periodic box.

For a positive weight k the splitting writes v = (v - grad phi) + grad phi
with div(k (v - grad phi)) = 0; the two parts are orthogonal in the
k-weighted inner product. One solve, :func:`_potential_hat`, returns phi
from the half-spectrum of b = -div(k v): the projector takes grad phi,
and the constraint monitor (:func:`_curl_free_norm`) its squared
weighted norm, <b, phi> by parts, with no gradient field. Only the solve
tells the weight classes apart, except that the projector folds a
constant weight into the scale of the divergence instead of forming k v
(:func:`_constant_gradient_hat`, which also serves callers that hold a
spectrum). A constant weight is the multiplier b / (k |xi|^2); a
variable one needs preconditioned conjugate gradients,
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
source at roundoff would make PCG diverge. An iteration allocates only
what the operator's transforms and divergence return: the gradient goes
into one buffer per solve, the weight multiplies the inverse transform's
output in place, and phi, r, z and p are updated in place through one
scratch half-spectrum, each product and sum with the textbook loop's
operands, so the iterates are bit for bit the textbook ones.

Whatever reads both slots of an EM field on variable weights on grids
of 32^3 points and up (the projector of a state, the constraint monitor,
the seeded initial data) runs the two slots' solves as the two tasks of
:func:`cores._split`, the second on the helper thread when it is free
(:func:`_each_slot`); on constant weights and smaller grids both run on
the calling thread. Each task writes only its own slot, so the result is
the same bytes on one thread or two.

Constant fields carry no gradient content on the torus, so the zero mode
always lands in the divergence-free part.
"""

from __future__ import annotations

import numpy as np

from .cores import _split
from .grid import Coefficients, require_same_grid, weighted_norm
from .spectral import FourierWorkspace

# PCG stops once the residual is below PCG_RTOL times the source norm.
PCG_RTOL = 1e-12
PCG_MAX_ITER = 400

# Variable weights on grids of at least this many points split the two
# slots' solves over the helper thread. Medians on a 2-core x86-64 guest
# (scipy 1.17), split against inline: two 8^3 solves 8.6-9.2 / 4.5-6.2 ms,
# a 16^3 constraint sample on smooth weights 11.9-13.5 / 9.7-10.4 ms, a
# 32^3 one 26.5 / 44.1 ms. Below it the split only lost.
_SPLIT_SOLVE_POINTS = 32**3


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
    if float(np.ptp(kappa)) == 0.0:
        return ws.inverse(_constant_gradient_hat(ws.forward(v), kappa, ws))
    # The spectrum is not named, so it is freed before the solve runs.
    b = ws.hermitian_planes(ws.div_hat(ws.forward(kappa * v), -1.0))
    return ws.inverse(ws.grad_hat(_potential_hat(b, kappa, ws)))


def _constant_gradient_hat(
    v_hat: np.ndarray, kappa: np.ndarray, ws: FourierWorkspace
) -> np.ndarray:
    """Half-spectrum of the gradient (curl-free) part of the 3-vector field
    with half-spectrum ``v_hat`` in the constant weight ``kappa``.

    The constant is a scale on the divergence, so no kappa * v is formed.
    """
    b = ws.hermitian_planes(ws.div_hat(v_hat, -float(kappa.flat[0])))
    return ws.grad_hat(_potential_hat(b, kappa, ws))


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
    """Divergence-free part of an EM state, slot by slot in its own weight."""
    return state - project_complement_state(state, coeffs, ws)


def project_complement_state(
    state: np.ndarray, coeffs: Coefficients, ws: FourierWorkspace
) -> np.ndarray:
    """Curl-free part of an EM state, slot by slot in its own weight
    (:func:`_each_slot`)."""
    if state.shape != (6,) + ws.grid.shape:
        raise ValueError(f"expected an EM state on {ws.grid.shape}, got {state.shape}")
    out = np.empty_like(state)

    def project(i: int, s: slice, kappa: np.ndarray) -> None:
        out[s] = project_complement(state[s], kappa, ws)

    _each_slot(project, coeffs)
    return out


def _each_slot(task, coeffs: Coefficients) -> None:
    """task(i, s, kappa) for both EM slots: i = 0, 1, s the slot's slice of
    a (6, ...) stack and kappa its weight.

    When the weights vary, each slot's work is a potential solve and, on
    grids of ``_SPLIT_SOLVE_POINTS`` points and up, the two run as the two
    tasks of :func:`cores._split`, the second on the helper thread when it
    is free. On constant weights a solve is a multiplier, and on smaller
    grids a solve is too short for the hand-off; then both run here, one
    after the other, as the spectral slots of an RK4 step do. A task
    writes only its own slot's results.
    """
    slots = ((0, slice(0, 3), coeffs.kappa1), (1, slice(3, 6), coeffs.kappa2))
    if coeffs.is_constant or coeffs.kappa1.size < _SPLIT_SOLVE_POINTS:
        for slot in slots:
            task(*slot)
    else:
        _split(lambda slot: task(*slot), *slots)


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
