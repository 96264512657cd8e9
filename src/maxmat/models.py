"""Matter laws coupled to the field pair.

A matter model owns the pointwise right-hand side F(x, v, u) of the
matter states, the linear map turning matter motion into a field source,
and three structural guarantees the rest of the package leans on:

* F is affine in the field argument,
* v = 0 is a fixed point of the matter law,
* F(x, v, u) . v <= K |v|^2 with a model-declared constant K.

Matter states are (dim, m) arrays over the masked voxels. Field samples
arrive as the full (6, m) restriction; each model picks the slot it
couples to.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse import _sparsetools

from .grid import cross


class MatterModel(ABC):
    """Pointwise matter law and its field coupling."""

    #: matter state dimension per voxel
    dim: int
    #: field slot (1 or 2) whose divergence constraint the matter enters
    em_slot: int
    #: constant K in the one-sided growth bound F . v <= K |v|^2
    growth_bound: float = 0.0

    @abstractmethod
    def eval_F(self, v: np.ndarray, em: np.ndarray) -> np.ndarray:
        """Matter tendency, shape (dim, m); ``em`` is the (6, m) field sample.

        Returns a new array: the Runge-Kutta steps sum their stages into it
        in place.
        """

    @abstractmethod
    def source_from_matter(self, w: np.ndarray, kappa_d: np.ndarray) -> np.ndarray:
        """The 3-vector density (1/kappa) l w on the domain voxels.

        Linear in ``w``. Applied to the matter tendency it yields the
        field source; applied to the state it yields the shift appearing
        in the divergence constraint. ``kappa_d`` holds the coupled
        slot's coefficient on the domain voxels.
        """


@dataclass
class LandauLifschitzModel(MatterModel):
    """Magnetization dynamics M' = gyro M ^ H_T - damping M ^ (M ^ H_T).

    The total field H_T adds uniaxial anisotropy aniso (M.axis) axis and a
    constant applied field to the resolved field sample. Both torque terms
    are orthogonal to M, so |M| is conserved pointwise and the growth
    constant is zero. The field source is -M' (the coupled coefficient
    cancels against the coupling weight).
    """

    gyro: float = 1.0
    damping: float = 0.0
    aniso: float = 0.0
    axis: tuple[float, float, float] = (0.0, 0.0, 1.0)
    h_ext: tuple[float, float, float] = (0.0, 0.0, 0.0)

    dim = 3
    em_slot = 1
    growth_bound = 0.0

    def __post_init__(self):
        if self.damping < 0:
            raise ValueError(f"damping must be nonnegative, got {self.damping}")
        if self.aniso < 0:
            raise ValueError(f"anisotropy must be nonnegative, got {self.aniso}")
        ax = np.asarray(self.axis, dtype=float)
        norm = np.linalg.norm(ax)
        if self.aniso > 0 and norm == 0:
            raise ValueError("anisotropy axis must be a nonzero vector")
        self.axis_unit = ax / norm if norm > 0 else ax
        self.applied_field = np.asarray(self.h_ext, dtype=float)

    def total_field(self, m_state: np.ndarray, h: np.ndarray) -> np.ndarray:
        ht = h + self.applied_field[:, None]
        if self.aniso > 0:
            ht = ht + self.aniso * self.axis_unit[:, None] * np.einsum(
                "c,cm->m", self.axis_unit, m_state
            )
        return ht

    def eval_F(self, v: np.ndarray, em: np.ndarray) -> np.ndarray:
        ht = self.total_field(v, em[0:3])
        torque = cross(v, ht)
        out = self.gyro * torque
        if self.damping > 0:
            out = out - self.damping * cross(v, torque)
        return out

    def source_from_matter(self, w: np.ndarray, kappa_d: np.ndarray) -> np.ndarray:
        return -w


def pack_rho(rho: np.ndarray) -> np.ndarray:
    """Flatten Hermitian (N, N, m) matrices to real (N*N, m) coordinates.

    Layout: N diagonal entries, then sqrt(2) * real and sqrt(2) * imag of
    the strict upper triangle (row-major). The map is an isometry between
    the Frobenius and Euclidean norms.
    """
    n = rho.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    root2 = np.sqrt(2.0)
    parts = [
        rho[np.arange(n), np.arange(n)].real,
        root2 * rho[iu, ju].real,
        root2 * rho[iu, ju].imag,
    ]
    return np.concatenate(parts, axis=0)


def unpack_rho(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_rho`; always returns a Hermitian stack."""
    if v.shape[0] != n * n:
        raise ValueError(f"packed state has {v.shape[0]} rows, expected {n * n}")
    m = v.shape[1]
    iu, ju = np.triu_indices(n, k=1)
    p = iu.size
    rho = np.zeros((n, n, m), dtype=complex)
    rho[np.arange(n), np.arange(n)] = v[:n]
    upper = (v[n : n + p] + 1j * v[n + p :]) / np.sqrt(2.0)
    rho[iu, ju] = upper
    rho[ju, iu] = upper.conj()
    return rho


# Largest set of Bloch generators (four real (N^2, N^2) float64 matrices,
# 32 N^4 bytes) a model may build. Measured on one 2-core x86 KVM guest
# with one BLAS thread: at N = 30 levels the generators take 26 MB and
# build in 1.1 s (78 MB peak); at N = 38, the most this budget admits,
# 67 MB in 2.4-3.2 s, the process peaking 224 MB above its size before
# the build. The build is O(N^6), so larger level counts are rejected
# before anything is built. eval_F costs the nonzeros of L0 plus rank
# times those of a factor per voxel: on a ladder dipole (rank 1), one
# eval_F on 1088 voxels takes 0.13 ms at N = 6 and 16 ms at N = 38,
# where the four dense generators took 0.36 ms and 0.33 s.
LIOUVILLIAN_BUDGET_BYTES = 64 * 2**20


def check_level_count(n: int) -> None:
    """ValueError unless a Bloch model on ``n`` levels can be built."""
    if n < 2:
        raise ValueError(f"need at least two levels, got {n}")
    if 32 * n**4 > LIOUVILLIAN_BUDGET_BYTES:
        raise ValueError(
            f"{n} levels need {32 * n**4 / 2**20:.3g} MiB of generators,"
            f" above the {LIOUVILLIAN_BUDGET_BYTES / 2**20:g} MiB budget"
        )


def _commutator(a: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """[a, rho] for one (N, N) matrix against an (N, N, m) stack."""
    return np.einsum("ik,kjm->ijm", a, rho) - np.einsum("ikm,kj->ijm", rho, a)


@dataclass
class BlochModel(MatterModel):
    """N-level density-matrix dynamics driven by the electric slot.

    rho' = -i [H0 - E . D, rho] - relax * offdiag(rho), with H0 the
    diagonal level Hamiltonian and D a 3-vector of Hermitian dipole
    matrices. States travel in the real packed coordinates of
    :func:`pack_rho`, where the law is real-linear in the state with
    coefficients affine in the field (the coherence-vector form):

        F(v, E) = L0 v + E_1 L_1 v + E_2 L_2 v + E_3 L_3 v

    L0 packs -i [H0, .] - relax * offdiag(.) and L_a packs i [D_a, .].
    The four constant real (N^2, N^2) generators are built once, column
    j being the law applied to the j-th packed basis vector, and kept
    dense as ``generators``, the reference the structure checks read.
    eval_F pays for their rank and nonzeros instead. The field
    generators span ``rank`` r <= 3 dimensions (the rank of their
    (3, N^4) stack under numpy's matrix_rank tolerance), so
    L_a = sum_k coupling[k, a] M_k, and ``stack`` holds L0, M_1 ... M_r
    as one CSR matrix: eval_F is one sparse product and r field-weighted
    sums. A dipole polarization x ladder, the form the scenario parser
    builds, has r = 1, and zero polarization r = 0; at 6 levels L0 holds
    60 and M_1 100 of 1296 entries. Each L_a is skew-symmetric (pack_rho
    is an isometry and a commutator with a Hermitian matrix is
    skew-adjoint), and L0 is skew-symmetric up to -relax on the packed
    off-diagonal coordinates, so the growth constant is zero. The field
    source is -(1/eps) tr(D rho'), the polarization current with the
    sign that keeps the charge constraint transported; tr(D rho) is one
    constant (3, N^2) matrix in packed coordinates.
    """

    levels: tuple[float, ...]
    dipole: np.ndarray  # (3, N, N) complex, each slice Hermitian
    relax: float = 0.0

    em_slot = 2
    growth_bound = 0.0

    def __post_init__(self):
        lv = np.asarray(self.levels, dtype=float)
        n = lv.size
        check_level_count(n)
        d = np.asarray(self.dipole, dtype=complex)
        if d.shape != (3, n, n):
            raise ValueError(f"dipole must have shape (3, {n}, {n}), got {d.shape}")
        herm_err = max(float(np.abs(d[a] - d[a].conj().T).max()) for a in range(3))
        if herm_err > 1e-12:
            raise ValueError(f"dipole slices must be Hermitian (defect {herm_err:.2e})")
        if self.relax < 0:
            raise ValueError(f"relaxation rate must be nonnegative, got {self.relax}")
        self.n_levels = n
        self.dim = n * n
        self._dipole = d
        basis = unpack_rho(np.eye(n * n), n)  # column j: packed basis matrix j
        relaxation = self.relax * basis * ~np.eye(n, dtype=bool)[:, :, None]
        #: L0, L_1, L_2, L_3 as one (4, N^2, N^2) array
        self.generators = np.empty((4, n * n, n * n))
        self.generators[0] = pack_rho(-1j * _commutator(np.diag(lv), basis) - relaxation)
        for a in range(3):
            self.generators[a + 1] = pack_rho(1j * _commutator(d[a], basis))
        self._polarization = np.einsum("aij,jim->am", d, basis).real
        field = self.generators[1:].reshape(3, -1)
        # The field stack's singular values and left vectors are those of
        # its 3 x 3 factor R^T (field = R^T Q^T), which spares a full SVD's
        # (3, N^4) work copies; the rank is numpy's matrix_rank rule on them.
        u, s, _ = np.linalg.svd(np.linalg.qr(field.T, mode="r").T)
        self.rank = int(np.count_nonzero(s > s.max() * field.shape[1] * np.finfo(float).eps))
        #: (rank, 3): the E-coefficient of each factor M_k, so L_a = sum_k coupling[k, a] M_k
        self.coupling = u[:, : self.rank].T
        # M = coupling @ field combines rows of the field generators, so an
        # entry that is zero in all three stays exactly zero
        factors = (self.coupling @ field).reshape(self.rank, self.dim, self.dim)
        #: [L0; M_1 ... M_rank] as one ((1 + rank) N^2, N^2) CSR matrix
        self.stack = scipy.sparse.csr_array(
            np.concatenate([self.generators[:1], factors]).reshape(-1, self.dim)
        )
        self._work = threading.local()

    def eval_F(self, v: np.ndarray, em: np.ndarray) -> np.ndarray:
        terms = self._stack_product(v).reshape(1 + self.rank, self.dim, -1)
        terms[1:] *= (self.coupling @ em[3:6])[:, None, :]
        return terms.sum(axis=0)

    def _stack_product(self, v: np.ndarray) -> np.ndarray:
        """``stack @ v`` for a (N^2, m) ``v``, written into a buffer kept per
        thread while m stays the same.

        The product is the CSR kernel that scipy's ``@`` runs on a zeroed
        result, so it is bit-identical to ``stack @ v``. A fresh product
        at every call (626 KB at 6 levels on 1088 voxels) left glibc
        trimming the freed heap top between calls, so many calls touched
        fresh pages, how many depending on what the caller allocated
        around them: a 100-step 6-level 16^3 run took 13.9 thousand minor
        page faults under one RK4 step and 10.6 or 25.7 thousand, varying
        between processes, under another; with the kept buffer it takes
        1.0-1.1 thousand under either.
        """
        v = np.ascontiguousarray(v, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.dim:
            raise ValueError(f"matter state must have shape ({self.dim}, m), got {v.shape}")
        rows, m = self.stack.shape[0], v.shape[1]
        out = getattr(self._work, "product", None)
        if out is None or out.shape[1] != m:
            out = self._work.product = np.empty((rows, m))
        out.fill(0.0)
        stack = self.stack
        _sparsetools.csr_matvecs(
            rows, self.dim, m, stack.indptr, stack.indices, stack.data, v.ravel(), out.ravel()
        )
        return out

    def polarization(self, v: np.ndarray) -> np.ndarray:
        """tr(D rho) per voxel, shape (3, m); real for Hermitian input."""
        return self._polarization @ v

    def source_from_matter(self, w: np.ndarray, kappa_d: np.ndarray) -> np.ndarray:
        return -self.polarization(w) / kappa_d

