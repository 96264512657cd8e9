"""Periodic computational box, field containers, domain mask, and the
weighted inner product.

Fields are plain numpy arrays:

* scalar field      -- shape ``(n, n, n)``
* 3-vector field    -- shape ``(3, n, n, n)``
* EM state          -- shape ``(6, n, n, n)``; slots ``[0:3]`` and ``[3:6]``
  are the two 3-vector components (H and E in the concrete models)
* matter state      -- shape ``(d, m)`` where ``m`` is the number of
  voxels inside the domain mask

All arrays are float64. The box is periodic in every axis and stands in
for free space; the domain mask must keep a margin from the box faces so
periodic images do not talk to each other over desk-scale horizons.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"MXMT"
SNAPSHOT_VERSION = 1

_HEADER = struct.Struct("<4sIIdI")


@dataclass(frozen=True)
class Grid3:
    """Uniform periodic grid with ``n`` points per axis on a cube of side
    ``box_len``."""

    n: int
    box_len: float = 1.0

    def __post_init__(self):
        if self.n < 8:
            raise ValueError(f"grid needs n >= 8 points per axis, got n={self.n}")
        if self.n & (self.n - 1) != 0:
            raise ValueError(f"n must be a power of two, got n={self.n}")
        if not self.box_len > 0:
            raise ValueError(f"box_len must be positive, got {self.box_len}")

    @property
    def spacing(self) -> float:
        return self.box_len / self.n

    @property
    def cell_volume(self) -> float:
        return self.spacing**3

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n)

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cell-center coordinates along each axis."""
        x = (np.arange(self.n) + 0.5) * self.spacing
        return x, x.copy(), x.copy()

    def meshgrid(self):
        x, y, z = self.axes()
        return np.meshgrid(x, y, z, indexing="ij")


def cross(a, b) -> np.ndarray:
    """Cross product of two leading-axis-3 stacks (arrays or 3-tuples of
    broadcastable arrays); the result is a (3, ...) array."""
    return np.stack(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def require_same_grid(*arrays: np.ndarray) -> None:
    """Raise if the trailing grid shapes of the given fields differ."""
    shapes = {a.shape[-3:] for a in arrays}
    if len(shapes) != 1:
        raise ValueError(f"fields live on different grids: {sorted(shapes)}")


@dataclass(frozen=True)
class Coefficients:
    """Positive scalar fields (kappa1, kappa2) defining the weighted
    geometry, with their common lower bound ``floor`` and whether both are
    spatially constant (``is_constant``)."""

    kappa1: np.ndarray
    kappa2: np.ndarray
    floor: float = field(init=False)
    is_constant: bool = field(init=False)

    def __post_init__(self):
        require_same_grid(self.kappa1, self.kappa2)
        lo = min(float(self.kappa1.min()), float(self.kappa2.min()))
        if not np.isfinite(self.kappa1).all() or not np.isfinite(self.kappa2).all():
            raise ValueError("coefficients must be finite")
        if lo <= 0:
            raise ValueError(f"coefficients must be uniformly positive, min={lo}")
        object.__setattr__(self, "floor", lo)
        constant = float(np.ptp(self.kappa1)) == 0.0 and float(np.ptp(self.kappa2)) == 0.0
        object.__setattr__(self, "is_constant", constant)

    @classmethod
    def constant(cls, grid: Grid3, kappa1: float, kappa2: float) -> "Coefficients":
        return cls(np.full(grid.shape, float(kappa1)), np.full(grid.shape, float(kappa2)))

    def component(self, slot: int) -> np.ndarray:
        """kappa_1 or kappa_2 by slot index (1 or 2)."""
        if slot == 1:
            return self.kappa1
        if slot == 2:
            return self.kappa2
        raise ValueError(f"slot must be 1 or 2, got {slot}")

    def constant_values(self) -> tuple[float, float]:
        if not self.is_constant:
            raise ValueError("coefficients are not spatially constant")
        return float(self.kappa1.flat[0]), float(self.kappa2.flat[0])


class DomainMask:
    """Boolean voxel mask for the matter domain.

    The mask must be nonempty and keep a margin of at least n/8 cells to
    every face of the periodic box, so its bounding box ``box`` (three
    slices) spans at most 3n/4 cells per axis. ``cropped_mask`` is the
    mask cropped to that box; it lists the domain voxels in the same
    order as ``mask``.
    """

    def __init__(self, mask: np.ndarray, grid: Grid3):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != grid.shape:
            raise ValueError(f"mask shape {mask.shape} does not match grid {grid.shape}")
        if not mask.any():
            raise ValueError("domain mask is empty")
        margin = grid.n // 8
        idx = np.argwhere(mask)
        lo, hi = idx.min(axis=0), idx.max(axis=0)
        if (lo < margin).any() or (hi > grid.n - 1 - margin).any():
            raise ValueError(
                f"domain bounding box [{lo}, {hi}] violates the required "
                f"margin of {margin} cells to the periodic boundary"
            )
        self.mask = mask
        self.grid = grid
        self.count = int(mask.sum())
        self.box = tuple(slice(int(a), int(b) + 1) for a, b in zip(lo, hi))
        self.cropped_mask = mask[self.box]

    def coordinates(self) -> np.ndarray:
        """Cell-center coordinates of the masked voxels, shape (3, m)."""
        xx, yy, zz = self.grid.meshgrid()
        return np.stack([xx[self.mask], yy[self.mask], zz[self.mask]])


def box_mask(grid: Grid3, center, half_extent) -> DomainMask:
    """Axis-aligned box of cells whose centers fall within the half extents."""
    xx, yy, zz = grid.meshgrid()
    c = np.asarray(center, dtype=float)
    h = np.asarray(half_extent, dtype=float)
    m = (
        (np.abs(xx - c[0]) <= h[0])
        & (np.abs(yy - c[1]) <= h[1])
        & (np.abs(zz - c[2]) <= h[2])
    )
    return DomainMask(m, grid)


def ball_indicator(grid: Grid3, center, radius: float) -> np.ndarray:
    """Boolean field of the cells whose centers lie within ``radius`` of ``center``."""
    xx, yy, zz = grid.meshgrid()
    c = np.asarray(center, dtype=float)
    return (xx - c[0]) ** 2 + (yy - c[1]) ** 2 + (zz - c[2]) ** 2 <= radius**2


def ball_mask(grid: Grid3, center, radius: float) -> DomainMask:
    return DomainMask(ball_indicator(grid, center, radius), grid)


def extend_by_zero(values: np.ndarray, domain: DomainMask) -> np.ndarray:
    """Extend a (d, m) matter state to a (d, n, n, n) field, zero off the mask."""
    values = np.atleast_2d(values)
    if values.shape[-1] != domain.count:
        raise ValueError(
            f"matter state has {values.shape[-1]} voxels, mask has {domain.count}"
        )
    out = np.zeros((values.shape[0],) + domain.grid.shape)
    out[:, domain.mask] = values
    return out


def restrict_to_domain(field3: np.ndarray, domain: DomainMask) -> np.ndarray:
    """Restrict a (d, n, n, n) field to the masked voxels, giving (d, m)."""
    require_same_grid(field3, domain.mask[None])
    return np.atleast_2d(field3[..., domain.mask])


def weighted_inner(a: np.ndarray, b: np.ndarray, coeffs: Coefficients, grid: Grid3) -> float:
    """Weighted L2 inner product of two EM states.

    Discrete quadrature (cell volume times sum) of
    kappa1 * a1.b1 + kappa2 * a2.b2. Symmetric and positive definite.
    """
    if a.shape != (6,) + grid.shape or b.shape != (6,) + grid.shape:
        raise ValueError(
            f"EM states must have shape {(6,) + grid.shape}, got {a.shape} and {b.shape}"
        )
    require_same_grid(a, b, coeffs.kappa1)
    dot1 = np.einsum("cijk,cijk->ijk", a[0:3], b[0:3])
    dot2 = np.einsum("cijk,cijk->ijk", a[3:6], b[3:6])
    return float(np.sum(coeffs.kappa1 * dot1 + coeffs.kappa2 * dot2)) * grid.cell_volume


def weighted_norm(a: np.ndarray, coeffs: Coefficients, grid: Grid3) -> float:
    return float(np.sqrt(max(weighted_inner(a, a, coeffs, grid), 0.0)))


def matter_l2_norm(values: np.ndarray, grid: Grid3) -> float:
    """L2(Omega) norm of a (d, m) matter state (cell-volume quadrature)."""
    return float(np.sqrt(np.sum(values**2) * grid.cell_volume))


def save_fields(path, fields: np.ndarray, grid: Grid3) -> None:
    """Write a (C, n, n, n) field stack in the binary snapshot format.

    Header: magic 'MXMT', version u32, n u32, box_len f64, component
    count u32; then each component as little-endian f64 in x-fastest order.
    """
    fields = np.asarray(fields, dtype=np.float64)
    if fields.ndim == 3:
        fields = fields[None]
    if fields.shape[1:] != grid.shape:
        raise ValueError(f"field shape {fields.shape} does not match grid {grid.shape}")
    ncomp = fields.shape[0]
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, SNAPSHOT_VERSION, grid.n, grid.box_len, ncomp))
        for c in range(ncomp):
            # the Fortran-order copy is contiguous, so it is written as it is
            fh.write(np.asarray(fields[c], dtype="<f8").ravel(order="F"))


def load_fields(path) -> tuple[np.ndarray, Grid3]:
    """Read a snapshot written by :func:`save_fields`; a bad file is a ValueError naming it."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError(f"{path}: truncated snapshot header ({len(head)} bytes)")
        magic, version, n, box_len, ncomp = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ValueError(f"{path}: not a field snapshot (magic {magic!r})")
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"{path}: unsupported snapshot version {version}")
        try:
            grid = Grid3(n=n, box_len=box_len)
        except ValueError as exc:
            raise ValueError(f"{path}: bad snapshot header: {exc}") from None
        size = 8 * n**3
        have = os.fstat(fh.fileno()).st_size
        if have < _HEADER.size + ncomp * size:
            raise ValueError(
                f"{path}: truncated snapshot body: the header asks for {ncomp} "
                f"components of {n}^3 values, the file has {have} bytes"
            )
        out = np.empty((ncomp,) + grid.shape)
        for c in range(ncomp):
            raw = fh.read(size)
            if len(raw) < size:
                raise ValueError(f"{path}: truncated snapshot body in component {c} of {ncomp}")
            out[c] = np.frombuffer(raw, dtype="<f8").reshape(grid.shape, order="F")
    return out, grid
