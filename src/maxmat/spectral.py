"""Fourier-side machinery: curl, the skew-adjoint field operator, its
exact free propagator, and the spectral mollifier family.

Everything here uses real-to-complex FFTs (``scipy.fft``) batched over
the leading component axis. Transforms are the only O(n^3 log n)
operation in the package; all multipliers are cached per workspace.
Curl, B, the propagator and the projector are built from the four per-mode
kernels of :class:`FourierWorkspace` (``div_hat``, ``grad_hat``,
``curl_hat``, ``inner_hat``), so only this module knows the rfft layout.

Matter lives on a sub-box of the grid, so the workspace also has a pruned
pair for fields supported on, or read on, a box of three slices:
``forward_box`` transforms a box-sized block as if zero-extended and skips
the lines that are all zero, bit-identical to ``forward``; ``inverse_box``
returns the field on the box only, equal to ``inverse`` to roundoff. Both
make one scalar transform per leading component in the package's
transform counts.

The workspace's four transforms ask :func:`cores.fft_workers` for their
pocketfft worker count, and the free propagator hands its two output
slots to :func:`cores._split`; :mod:`cores` alone decides when a second
thread works. Both are bit-identical to the one-thread result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

from .cores import _split, fft_workers
from .grid import Coefficients, Grid3, require_same_grid


# The two EM slots of a (6, ...) stack.
_SLOT1, _SLOT2 = slice(0, 3), slice(3, 6)


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
        n = grid.n
        self.points = n**3
        kx, kz = self._frequencies()
        kx[n // 2] = 0.0
        kz[-1] = 0.0
        # xi_y and xi_z are (1, n, n/2+1) planes, not 1-D broadcasts: numpy's
        # contiguous loops multiply a 32^3 half-spectrum by them in 0.6x the time.
        self.xi = (
            kx.reshape(n, 1, 1),
            np.repeat(kx.reshape(1, n, 1), kz.size, axis=2),
            np.broadcast_to(kz, (1, n, kz.size)).copy(),
        )
        self.xi_sq = self.xi[0] ** 2 + self.xi[1] ** 2 + self.xi[2] ** 2
        self.spectral_shape = self.xi_sq.shape
        # Parseval weights for the half-spectrum: planes kz=0 and kz=Nyquist
        # carry no conjugate partner in the rfft layout.
        w = np.full(self.spectral_shape, 2.0)
        w[..., 0] = 1.0
        if n % 2 == 0:
            w[..., -1] = 1.0
        self.mode_weights = w

    def _frequencies(self) -> tuple[np.ndarray, np.ndarray]:
        """Angular frequencies of the full x (and y) axis and of the half z axis."""
        n, d = self.grid.n, self.grid.spacing
        return 2.0 * np.pi * np.fft.fftfreq(n, d=d), 2.0 * np.pi * np.fft.rfftfreq(n, d=d)

    @cached_property
    def xi_norm_even(self) -> np.ndarray:
        """|xi| with the true Nyquist magnitude, for radial filters; built on first use."""
        kx, kz = self._frequencies()
        n = kx.size
        return np.sqrt(
            kx.reshape(n, 1, 1) ** 2 + kx.reshape(1, n, 1) ** 2 + kz.reshape(1, 1, kz.size) ** 2
        )

    @cached_property
    def inv_xi_sq(self) -> np.ndarray:
        """1 / |xi|^2, the inverse of -Laplacian with the zero mode pinned; built on first use."""
        return safe_div(1.0, self.xi_sq)

    def band_mask(self, band: int) -> np.ndarray:
        """Boolean half-spectrum of the modes whose integer wavenumbers are
        at most ``band`` in magnitude along every axis."""
        n = self.grid.n
        kx = np.abs(np.fft.fftfreq(n, 1.0 / n))
        kz = np.fft.rfftfreq(n, 1.0 / n)
        return (kx[:, None, None] <= band) & (kx[None, :, None] <= band) & (kz <= band)

    def forward(self, fields: np.ndarray) -> np.ndarray:
        """rfftn over the trailing three axes; leading axes are batched."""
        with fft_workers(self.points) as workers:
            return scipy.fft.rfftn(fields, axes=(-3, -2, -1), workers=workers)

    def inverse(self, spectra: np.ndarray) -> np.ndarray:
        with fft_workers(self.points) as workers:
            return scipy.fft.irfftn(spectra, s=self.grid.shape, axes=(-3, -2, -1),
                                    workers=workers)

    def forward_box(self, block: np.ndarray, box: tuple[slice, slice, slice]) -> np.ndarray:
        """:meth:`forward` of the field equal to ``block`` on ``box`` and zero elsewhere.

        ``box`` is three slices; leading axes of ``block`` are batched. The
        passes run in rfftn's order, z, x, y, and skip the lines that are
        all zero: rfft along z on the box's x-y lines, fft along x on the
        box's y rows, fft along y on all lines. Each line computed is one
        that rfftn computes, so the result is bit-identical to
        ``forward`` of the zero-extended field.
        """
        bx, by, bz = box
        if block.shape[-3:] != tuple(len(range(self.grid.n)[s]) for s in box):
            raise ValueError(f"block shape {block.shape} does not match the box {box}")
        out = np.zeros(block.shape[:-3] + self.spectral_shape, dtype=complex)
        # The zero-padded z lines live in the output's own memory, which their
        # spectra then overwrite: a separate padded array made the largest
        # box (48 of 64 per axis) slower than the whole-grid transform.
        lines = out.view(float)[..., bx, by, : self.grid.n]
        lines[..., bz] = block
        with fft_workers(self.points) as workers:
            out[..., bx, by, :] = scipy.fft.rfft(lines, axis=-1, workers=workers)
            rows = out[..., by, :]
            done = scipy.fft.fft(rows, axis=-3, overwrite_x=True, workers=workers)
            if not np.may_share_memory(done, rows):  # overwrite_x allows, not promises, in place
                rows[...] = done
            return scipy.fft.fft(out, axis=-2, overwrite_x=True, workers=workers)

    def inverse_box(self, spectra: np.ndarray, box: tuple[slice, slice, slice]) -> np.ndarray:
        """:meth:`inverse` on ``box`` only; ``spectra`` is left as it was.

        The passes run y, x, z: ifft along y on all lines, along x on the
        box's y rows, irfft along z on the box's x-y lines. irfftn runs x
        before y, so the two agree to roundoff, not bitwise. Running x
        first would be bit-identical but is slower: at 64^3, 9.5 against
        5.8 ms on a 16^3 box and 13.2 against 9.1 ms on a 48^3 box, for a
        3-vector on a 2-core x86-64 guest with scipy 1.17.
        """
        bx, by, bz = box
        with fft_workers(self.points) as workers:
            rows = scipy.fft.ifft(spectra, axis=-2, workers=workers)[..., by, :]
            lines = scipy.fft.ifft(rows, axis=-3, overwrite_x=True, workers=workers)[..., bx, :, :]
            return scipy.fft.irfft(lines, n=self.grid.n, axis=-1, overwrite_x=True,
                                   workers=workers)[..., bz]

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

    def _scaled_xi(self, scale) -> tuple[np.ndarray, ...]:
        """The three factors of i * scale * xi, broadcastable to a half-spectrum."""
        return tuple((1j * scale) * x for x in self.xi)

    def div_hat(self, vhat: np.ndarray, scale: complex = 1.0) -> np.ndarray:
        """scale * i xi . vhat: the half-spectrum of scale * div v."""
        x0, x1, x2 = self._scaled_xi(scale)
        out = x0 * vhat[0]
        term = x1 * vhat[1]
        out += term
        out += np.multiply(x2, vhat[2], out=term)
        return out

    def grad_hat(self, phat: np.ndarray, out=None) -> np.ndarray:
        """i xi phat: the half-spectrum of grad p, written into ``out`` when given."""
        if out is None:
            out = np.empty((3,) + phat.shape, dtype=complex)
        for x, o in zip(self._scaled_xi(1.0), out):
            np.multiply(x, phat, out=o)
        return out

    def curl_hat(self, vhat: np.ndarray, scale: complex = 1.0, out=None) -> np.ndarray:
        """scale * i xi x vhat: the half-spectrum of scale * curl v."""
        x = self._scaled_xi(scale)
        if out is None:
            out = np.empty(vhat.shape, dtype=complex)
        term = np.empty(vhat.shape[1:], dtype=complex)
        for j in range(3):
            a, b = (j + 1) % 3, (j + 2) % 3
            np.multiply(x[a], vhat[b], out=out[j])
            out[j] -= np.multiply(x[b], vhat[a], out=term)
        return out

    def inner_hat(self, a_hat: np.ndarray, b_hat: np.ndarray) -> float:
        """Parseval: n^3 times the grid sum of a * b over any leading stack, from half-spectra."""
        w = self.mode_weights
        a_hat = a_hat.reshape((-1,) + w.shape)
        b_hat = b_hat.reshape((-1,) + w.shape)
        return float(
            np.einsum("ijk,cijk,cijk->", w, a_hat.real, b_hat.real)
            + np.einsum("ijk,cijk,cijk->", w, a_hat.imag, b_hat.imag)
        )


def curl(v: np.ndarray, ws: FourierWorkspace) -> np.ndarray:
    """Spectral curl of a (3, n, n, n) vector field."""
    if v.shape != (3,) + ws.grid.shape:
        raise ValueError(f"expected a 3-vector field on {ws.grid.shape}, got {v.shape}")
    return ws.inverse(ws.curl_hat(ws.forward(v)))


def apply_B(
    state: np.ndarray,
    coeffs: Coefficients,
    ws: FourierWorkspace,
    out: np.ndarray | None = None,
    sign: float = 1.0,
) -> np.ndarray:
    """The coupled curl operator B(u1, u2) = (curl u2 / k1, -curl u1 / k2).

    Skew-adjoint in the weighted inner product for any positive, possibly
    space-dependent coefficients.

    ``state`` is a physical (6, n, n, n) field or, on constant weights,
    its rfft-layout spectrum; the result has the same form. The two
    output slots are two calls of :func:`apply_B_slot`, written into
    ``out``, a buffer like ``state`` that is written, never read, and
    returned; without it a new one is made. ``sign`` (+1 or -1) returns
    sign * B u, with the sign folded into the curl multiplier, which is
    exact.
    """
    if out is None:
        out = np.empty_like(state)
    # The two slots share one curl buffer: a fresh one per slot left the
    # allocator growing and trimming its heap, a page fault per page. A
    # spectrum needs none.
    curl_buf = None
    if not np.iscomplexobj(state):
        curl_buf = np.empty((3,) + ws.spectral_shape, dtype=complex)
    for dst in (_SLOT1, _SLOT2):
        apply_B_slot(state, coeffs, ws, dst, out, sign, curl_buf)
    return out


def apply_B_slot(
    state: np.ndarray,
    coeffs: Coefficients,
    ws: FourierWorkspace,
    dst: slice,
    out: np.ndarray,
    sign: float = 1.0,
    curl_buf: np.ndarray | None = None,
) -> np.ndarray:
    """Slot ``dst`` (``slice(0, 3)`` or ``slice(3, 6)``) of sign * B u,
    written into ``out[dst]`` and returned.

    It reads only the other slot of ``state``, in the form given. A
    physical (6, n, n, n) field takes one 3-vector forward transform, the
    curl multiplier with the sign folded in, one 3-vector inverse
    transform and the division by slot ``dst``'s coefficient;
    ``curl_buf`` is an optional (3, ...) half-spectrum scratch for the
    curl, made here when not given. A complex (6, ...) rfft-layout
    spectrum, on constant weights only, takes the curl multiplier with
    sign / k folded in, written straight into ``out[dst]``, and no
    transform; ``curl_buf`` is not used. Calls for the two slots touch
    disjoint memory, so they may run at once.
    """
    if dst == _SLOT1:
        src, c, scale = _SLOT2, 0, sign
    elif dst == _SLOT2:
        src, c, scale = _SLOT1, 1, -sign
    else:
        raise ValueError(f"dst {dst}: expected slice(0, 3) or slice(3, 6)")
    if np.iscomplexobj(state):
        if state.shape[-3:] != ws.spectral_shape:
            raise ValueError(
                f"spectrum of shape {state.shape} does not match the workspace's "
                f"{ws.spectral_shape}"
            )
        return ws.curl_hat(state[src], scale / coeffs.constant_values()[c], out=out[dst])
    require_same_grid(state, coeffs.kappa1)
    kappa = (coeffs.kappa1, coeffs.kappa2)[c]
    curl_hat = ws.curl_hat(ws.forward(state[src]), scale, out=curl_buf)
    return np.divide(ws.inverse(curl_hat), kappa, out=out[dst])


class FreePropagator:
    """Exact evolution exp(-t B) for spatially constant coefficients.

    Per Fourier mode the parallel parts (along the wavevector) are frozen
    and the transverse parts rotate with angular frequency
    |xi| / sqrt(k1 k2):

        u1(t) = u1_par + cos(wt) u1_perp - i sin(wt) sqrt(k2/k1) khat ^ u2
        u2(t) = u2_par + cos(wt) u2_perp + i sin(wt) sqrt(k1/k2) khat ^ u1

    with khat = xi / |xi| and u_par = khat (khat . u).

    The zero mode has w = 0 and is preserved exactly. The map is unitary
    in the weighted norm. The object holds constants and the last phases,
    so copies of a system with another eta may share it across threads.
    """

    def __init__(self, coeffs: Coefficients, ws: FourierWorkspace):
        k1, k2 = coeffs.constant_values()
        self.ws = ws
        self.kappa1 = k1
        self.kappa2 = k2
        self.omega = np.sqrt(ws.xi_sq) / np.sqrt(k1 * k2)
        self.ratio12 = np.sqrt(k2 / k1)
        self.ratio21 = np.sqrt(k1 / k2)
        self._last_phases = None

    def phases(self, t: float) -> tuple[np.ndarray, ...]:
        """Per-mode factors of exp(-t B), for :meth:`apply_hat`.

        Returns cos(wt), (1 - cos(wt)) / |xi|^2 and the rotation factors
        -i sin(wt) sqrt(k2/k1) / |xi| and +i sin(wt) sqrt(k1/k2) / |xi| of
        the two slots, all but the first zero at the zero mode. Dividing by
        |xi| here lets :meth:`apply_hat` use xi itself in place of the unit
        wavevector. The factors of the last t asked for are kept, so a run
        at a fixed step computes them once; they are read-only.
        """
        last = self._last_phases  # read once: threads sharing the propagator may replace it
        if last is None or last[0] != t:
            wt, inv_sq = self.omega * t, self.ws.inv_xi_sq
            c, s = np.cos(wt), np.sin(wt) * np.sqrt(inv_sq)
            last = (t, (c, (1.0 - c) * inv_sq, (-1j * self.ratio12) * s, (1j * self.ratio21) * s))
            for f in last[1]:
                f.flags.writeable = False  # every caller at this t shares them
            self._last_phases = last
        return last[1]

    def apply_hat(
        self,
        state_hat: np.ndarray,
        phases: tuple,
        slot: slice | None = None,
        out_slot: slice | None = None,
    ) -> np.ndarray:
        """Propagate a spectral state by exp(-t B), given ``phases(t)``.

        With ``phases = (c, par, rot1, rot2)``, slot a of the (6, ...)
        result is

            c u_a + par xi (xi . u_a) + rot_a xi ^ u_b

        with b the other slot, built by :meth:`_slot_hat` from the
        workspace's div and curl kernels and its xi. Without ``slot`` the
        input is a (6, ...) stack. With ``slot`` (``slice(0, 3)`` or
        ``slice(3, 6)``) it is that slot's own (3, ...) spectrum, the other
        slot being zero, and each output slot gets only the terms that read
        it. With ``out_slot`` only that slot of the result is computed and
        returned as a (3, ...) spectrum.

        When both output slots are computed (without ``out_slot``), they
        run as the two tasks of :func:`cores._split`, each writing its slot
        of the one output. They read the same inputs and write disjoint
        memory, so the result is bit-identical on one thread or two.
        """
        if slot is None:
            u1, u2 = state_hat[_SLOT1], state_hat[_SLOT2]
        elif slot in (_SLOT1, _SLOT2) and state_hat.shape[0] == 3:
            u1, u2 = (state_hat, None) if slot == _SLOT1 else (None, state_hat)
        else:
            raise ValueError(f"slot {slot}, shape {state_hat.shape}: expected one EM slot's 3-vector")
        if out_slot is None:
            outputs = (_SLOT1, _SLOT2)
        elif out_slot in (_SLOT1, _SLOT2):
            outputs = (out_slot,)
        else:
            raise ValueError(f"out_slot {out_slot}: expected slice(0, 3) or slice(3, 6)")
        c, par, rot1, rot2 = phases
        jobs = [(u1, u2, rot1) if s == _SLOT1 else (u2, u1, rot2) for s in outputs]
        out = np.empty((3 * len(jobs),) + state_hat.shape[1:], dtype=state_hat.dtype)

        def slot_task(i: int) -> None:
            u, w, rot = jobs[i]
            self._slot_hat(u, w, c, par, rot, out[3 * i : 3 * i + 3])

        if len(jobs) == 2:
            _split(self.ws.points, slot_task, 0, 1)
        else:
            slot_task(0)
        return out

    def _slot_hat(self, u, w, c, par, rot, out: np.ndarray) -> None:
        """out = c u + par xi (xi . u) + rot xi ^ w for one output slot.

        ``u`` is the slot's own spectrum and ``w`` the other slot's; either
        may be None for a zero slot, and its terms are skipped.
        """
        ws = self.ws
        if w is not None:
            ws.curl_hat(w, -1j, out=out)
            out *= rot
        if u is not None:
            along = ws.div_hat(u, -1j)
            along *= par
            # Added component by component: a scratch 3-vector per call
            # made a loop of 32^3 calls 1.6-2.3x slower (allocator churn).
            for j in range(3):
                if w is None:
                    np.multiply(c, u[j], out=out[j])
                else:
                    out[j] += c * u[j]
                out[j] += ws.xi[j] * along

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

    Parseval: cell_volume / n^3 times the weighted half-spectrum sums.
    """
    u1, u2 = state_hat[_SLOT1], state_hat[_SLOT2]
    s = kappa1 * ws.inner_hat(u1, u1) + kappa2 * ws.inner_hat(u2, u2)
    return float(np.sqrt(ws.grid.cell_volume / ws.grid.n**3 * s))
