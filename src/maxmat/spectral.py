"""Fourier-side machinery: curl, the skew-adjoint field operator, its
exact free propagator, and the spectral mollifier family.

Everything here uses real-to-complex FFTs (``scipy.fft``) batched over
the leading component axis. Transforms are the only O(n^3 log n)
operation in the package; all multipliers are cached per workspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

from .grid import Coefficients, Grid3, cross, require_same_grid


def safe_div(num, den) -> np.ndarray:
    """num / den where den > 0, zero elsewhere (the zero mode, say)."""
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)


class FourierWorkspace:
    """Cached wavevector tables for one grid.

    Wavevectors follow the numpy fftfreq convention scaled by 2*pi/L, so
    ``ifft(1j * xi * fft(f))`` is the exact spectral derivative of a
    trigonometric polynomial on the box.

    The Nyquist column is zeroed in every odd multiplier. On an even grid
    that frequency is shared between +n/2 and -n/2, so an odd multiplier
    like xi cannot stay Hermitian-symmetric there; keeping it would let
    the inverse transform silently symmetrize the result and break the
    exact operator identities (div curl = 0, adjointness) on fields with
    Nyquist content. Even multipliers are symmetric there, so the radial
    frequency used by scalar filters (``xi_norm_even``) keeps the true
    Nyquist magnitude.
    """

    def __init__(self, grid: Grid3):
        self.grid = grid
        n, d = grid.n, grid.spacing
        kx = 2.0 * np.pi * np.fft.fftfreq(n, d=d)
        kz = 2.0 * np.pi * np.fft.rfftfreq(n, d=d)
        true_sq = (
            kx.reshape(n, 1, 1) ** 2
            + kx.reshape(1, n, 1) ** 2
            + kz.reshape(1, 1, kz.size) ** 2
        )
        self.xi_norm_even = np.sqrt(true_sq)
        kx[n // 2] = 0.0
        kz[-1] = 0.0
        self.xi = (
            kx.reshape(n, 1, 1),
            kx.reshape(1, n, 1),
            kz.reshape(1, 1, kz.size),
        )
        self.xi_sq = self.xi[0] ** 2 + self.xi[1] ** 2 + self.xi[2] ** 2
        self.xi_norm = np.sqrt(self.xi_sq)
        inv = safe_div(1.0, self.xi_norm)
        self.khat = np.stack([np.broadcast_to(x, self.xi_sq.shape) * inv for x in self.xi])
        self.spectral_shape = self.xi_sq.shape
        # Parseval weights for the half-spectrum: planes kz=0 and kz=Nyquist
        # carry no conjugate partner in the rfft layout.
        w = np.full(self.spectral_shape, 2.0)
        w[..., 0] = 1.0
        if n % 2 == 0:
            w[..., -1] = 1.0
        self.mode_weights = w

    @cached_property
    def inv_xi_sq(self) -> np.ndarray:
        """1 / |xi|^2, the inverse of -Laplacian with the zero mode pinned.

        Only the variable-weight projector uses it, so it is built on first
        use and constant-coefficient runs never hold it.
        """
        return safe_div(1.0, self.xi_sq)

    def forward(self, fields: np.ndarray) -> np.ndarray:
        """rfftn over the trailing three axes; leading axes are batched."""
        return scipy.fft.rfftn(fields, axes=(-3, -2, -1))

    def inverse(self, spectra: np.ndarray) -> np.ndarray:
        return scipy.fft.irfftn(spectra, s=self.grid.shape, axes=(-3, -2, -1))

    def hermitian_planes(self, spectra: np.ndarray) -> np.ndarray:
        """Symmetrise the kz = 0 and kz = Nyquist planes in place; returns ``spectra``.

        In those planes the mode at -k is stored too, and a real field has
        a(-k) = conj(a(k)). An rfftn output meets this only to roundoff;
        ``inverse`` silently drops the anti-Hermitian residue, but
        multipliers and Parseval sums keep it. Averaging each mode with the
        conjugate of its partner removes it in O(n^2) work.
        """
        for k in (0, -1):
            plane = spectra[..., k]
            partner = np.roll(np.flip(plane, axis=(-2, -1)), 1, axis=(-2, -1))
            plane += partner.conj()
            plane *= 0.5
        return spectra

    def longitudinal(self, vhat: np.ndarray) -> np.ndarray:
        """khat (khat . vhat) on a (3, ...) spectral stack; the zero mode maps to zero."""
        return self.khat * np.einsum("c...,c...->...", self.khat, vhat)


def curl(v: np.ndarray, ws: FourierWorkspace) -> np.ndarray:
    """Spectral curl of a (3, n, n, n) vector field."""
    if v.shape != (3,) + ws.grid.shape:
        raise ValueError(f"expected a 3-vector field on {ws.grid.shape}, got {v.shape}")
    return ws.inverse(1j * cross(ws.xi, ws.forward(v)))


def apply_B(state: np.ndarray, coeffs: Coefficients, ws: FourierWorkspace) -> np.ndarray:
    """The coupled curl operator B(u1, u2) = (curl u2 / k1, -curl u1 / k2).

    Skew-adjoint in the weighted inner product for any positive, possibly
    space-dependent coefficients.
    """
    require_same_grid(state, coeffs.kappa1)
    out = np.empty_like(state)
    out[0:3] = curl(state[3:6], ws) / coeffs.kappa1
    out[3:6] = -curl(state[0:3], ws) / coeffs.kappa2
    return out


def apply_B_hat(state_hat: np.ndarray, coeffs: Coefficients, ws: FourierWorkspace) -> np.ndarray:
    """:func:`apply_B` on an rfft-layout (6, ...) stack, constant weights only.

    There B is the per-mode multiplier (i xi ^ u2 / k1, -i xi ^ u1 / k2),
    so no transform is needed.
    """
    k1, k2 = coeffs.constant_values()
    out = np.empty_like(state_hat)
    out[0:3] = cross(ws.xi, state_hat[3:6])
    out[0:3] *= 1j / k1
    out[3:6] = cross(ws.xi, state_hat[0:3])
    out[3:6] *= -1j / k2
    return out


# The two EM slots of a (6, ...) stack.
_SLOT1, _SLOT2 = slice(0, 3), slice(3, 6)


class FreePropagator:
    """Exact evolution exp(-t B) for spatially constant coefficients.

    Per Fourier mode the parallel parts (along the wavevector) are frozen
    and the transverse parts rotate with angular frequency
    |xi| / sqrt(k1 k2):

        u1(t) = u1_par + cos(wt) u1_perp - i sin(wt) sqrt(k2/k1) khat ^ u2
        u2(t) = u2_par + cos(wt) u2_perp + i sin(wt) sqrt(k1/k2) khat ^ u1

    The zero mode has w = 0 and is preserved exactly. The map is unitary
    in the weighted norm. The object holds only constants, so copies of a
    system with another eta may share it across threads.
    """

    def __init__(self, coeffs: Coefficients, ws: FourierWorkspace):
        k1, k2 = coeffs.constant_values()
        self.ws = ws
        self.kappa1 = k1
        self.kappa2 = k2
        self.omega = ws.xi_norm / np.sqrt(k1 * k2)
        self.ratio12 = np.sqrt(k2 / k1)
        self.ratio21 = np.sqrt(k1 / k2)

    def phases(self, t: float) -> tuple[np.ndarray, ...]:
        """Per-mode factors of exp(-t B), for :meth:`apply_hat`.

        Returns cos(wt), 1 - cos(wt) and the rotation factors
        -i sin(wt) sqrt(k2/k1) and +i sin(wt) sqrt(k1/k2) of the two
        slots. Compute them once per time and reuse them for every
        application over that time.
        """
        wt = self.omega * t
        c, s = np.cos(wt), np.sin(wt)
        return c, 1.0 - c, (-1j * self.ratio12) * s, (1j * self.ratio21) * s

    def apply_hat(
        self, state_hat: np.ndarray, phases: tuple, slot: slice | None = None
    ) -> np.ndarray:
        """Propagate a spectral state by exp(-t B), given ``phases(t)``.

        One pass per output component: slot a of the (6, ...) result is

            c u_a + (1 - c) khat (khat . u_a) + rot_a khat ^ u_b

        with b the other slot. Without ``slot`` the input is a (6, ...)
        stack. With ``slot`` (``slice(0, 3)`` or ``slice(3, 6)``) it is
        that slot's own (3, ...) spectrum, the other slot being zero, and
        each output slot gets only the terms that read it.
        """
        if slot is None:
            u1, u2 = state_hat[_SLOT1], state_hat[_SLOT2]
        elif slot in (_SLOT1, _SLOT2) and state_hat.shape[0] == 3:
            u1, u2 = (state_hat, None) if slot == _SLOT1 else (None, state_hat)
        else:
            raise ValueError(f"slot {slot}, shape {state_hat.shape}: expected one EM slot's 3-vector")
        c, one_minus_c, rot1, rot2 = phases
        khat = self.ws.khat
        out = np.empty((6,) + state_hat.shape[1:], dtype=state_hat.dtype)
        for o, u, w, rot in ((out[_SLOT1], u1, u2, rot1), (out[_SLOT2], u2, u1, rot2)):
            if u is not None:
                par = khat[0] * u[0]
                par += khat[1] * u[1]
                par += khat[2] * u[2]
                par *= one_minus_c
            for j in range(3):
                a, b = (j + 1) % 3, (j + 2) % 3
                if u is not None:
                    np.multiply(c, u[j], out=o[j])
                    o[j] += khat[j] * par
                if w is not None:
                    x = khat[a] * w[b]
                    x -= khat[b] * w[a]
                    if u is not None:
                        x *= rot
                        o[j] += x
                    else:
                        np.multiply(x, rot, out=o[j])
        return out

    def apply(self, state: np.ndarray, t: float) -> np.ndarray:
        """Propagate a physical (6, n, n, n) state by exp(-t B)."""
        if state.shape != (6,) + self.ws.grid.shape:
            raise ValueError(f"expected an EM state on {self.ws.grid.shape}, got {state.shape}")
        return self.ws.inverse(self.apply_hat(self.ws.forward(state), self.phases(t)))


@dataclass(frozen=True)
class MollifierSpec:
    """Spectral low-pass of index ``n_mol``.

    The symbol depends only on s = |xi| / (n_mol * 2 pi / L): identically
    one for s <= 1, identically zero for s >= 2, and a C-infinity
    partition-of-unity rolloff in between. Larger index keeps more modes;
    once 2 pi n_mol / L exceeds the grid Nyquist radius the operator is
    the identity on representable fields.
    """

    n_mol: int

    def __post_init__(self):
        if self.n_mol < 1:
            raise ValueError(f"mollifier index must be >= 1, got {self.n_mol}")

    def symbol(self, ws: FourierWorkspace) -> np.ndarray:
        s = ws.xi_norm_even / (self.n_mol * 2.0 * np.pi / ws.grid.box_len)
        return _smooth_cutoff(s)


def _bump(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) for t > 0, zero otherwise; C-infinity on the line."""
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def _smooth_cutoff(s: np.ndarray) -> np.ndarray:
    """1 on [0, 1], 0 on [2, inf), smooth monotone transition between."""
    a = _bump(2.0 - s)
    return safe_div(a, a + _bump(s - 1.0))


def mollify(fields: np.ndarray, spec: MollifierSpec, ws: FourierWorkspace) -> np.ndarray:
    """Apply the low-pass multiplier to a (..., n, n, n) field stack."""
    return ws.inverse(spec.symbol(ws) * ws.forward(fields))


def spectral_weighted_norm(
    state_hat: np.ndarray, kappa1: float, kappa2: float, ws: FourierWorkspace
) -> float:
    """Weighted norm of an EM state given its half-spectrum (constant weights).

    Parseval for the rfft layout: cell_volume / n^3 times the
    weight-corrected sum of squared mode amplitudes.
    """
    w = ws.mode_weights
    s1 = float(np.sum(w * (state_hat[0:3].real**2 + state_hat[0:3].imag**2)))
    s2 = float(np.sum(w * (state_hat[3:6].real**2 + state_hat[3:6].imag**2)))
    scale = ws.grid.cell_volume / ws.grid.n**3
    return float(np.sqrt(scale * (kappa1 * s1 + kappa2 * s2)))
