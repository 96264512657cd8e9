"""Grid container, domain mask, weighted quadrature, and snapshot I/O."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxmat import (
    Coefficients,
    DomainMask,
    Grid3,
    ball_mask,
    box_mask,
    extend_by_zero,
    load_fields,
    matter_l2_norm,
    restrict_to_domain,
    save_fields,
    weighted_inner,
    weighted_norm,
)

from maxmat.grid import _HEADER, MAGIC, SNAPSHOT_VERSION, cross

from .conftest import random_state, smooth_coefficients


def test_grid_geometry():
    g = Grid3(16, 2.0)
    assert g.spacing == 0.125
    assert g.cell_volume == 0.125**3
    assert g.shape == (16, 16, 16)
    x, y, z = g.axes()
    assert x[0] == pytest.approx(0.0625)
    assert x[-1] == pytest.approx(2.0 - 0.0625)
    assert np.allclose(np.diff(x), g.spacing)


@pytest.mark.parametrize("bad", [4, 12, 7, 0])
def test_grid_rejects_bad_sizes(bad):
    with pytest.raises(ValueError):
        Grid3(bad)


def test_coefficients_positivity_and_floor(grid8):
    co = Coefficients.constant(grid8, 2.0, 0.5)
    assert co.floor == 0.5
    assert co.is_constant
    assert co.constant_values() == (2.0, 0.5)
    with pytest.raises(ValueError):
        Coefficients.constant(grid8, 1.0, 0.0)
    with pytest.raises(ValueError):
        Coefficients.constant(grid8, -1.0, 1.0)


def test_coefficients_constancy_is_stored(grid8):
    # one varying weight makes the pair variable; the flag is a stored
    # field, not a scan of both arrays on every read
    mixed = Coefficients(np.full(grid8.shape, 2.0), smooth_coefficients(grid8).kappa2)
    assert vars(mixed)["is_constant"] is False
    assert vars(Coefficients.constant(grid8, 1.0, 3.0))["is_constant"] is True
    with pytest.raises(ValueError):
        mixed.constant_values()


def test_coefficients_component_slots(grid8):
    co = smooth_coefficients(grid8)
    assert not co.is_constant
    assert co.component(1) is co.kappa1
    assert co.component(2) is co.kappa2
    with pytest.raises(ValueError):
        co.component(3)
    with pytest.raises(ValueError):
        co.constant_values()


def test_domain_mask_margin_enforced(grid16):
    # a box hugging a face violates the periodic-image margin
    with pytest.raises(ValueError):
        box_mask(grid16, (0.05, 0.5, 0.5), (0.05, 0.1, 0.1))
    with pytest.raises(ValueError):
        DomainMask(np.zeros(grid16.shape, dtype=bool), grid16)
    dom = box_mask(grid16, (0.5, 0.5, 0.5), (0.2, 0.2, 0.2))
    assert dom.count == int(dom.mask.sum()) > 0


def test_ball_mask_coordinates(grid16):
    dom = ball_mask(grid16, (0.5, 0.5, 0.5), 0.25)
    xyz = dom.coordinates()
    assert xyz.shape == (3, dom.count)
    r = np.sqrt(((xyz - 0.5) ** 2).sum(axis=0))
    assert r.max() <= 0.25 + 1e-12


@pytest.mark.parametrize("dtype", [float, complex])
def test_cross_matches_numpy(rng, dtype):
    a = rng.standard_normal((3, 5, 4, 3)).astype(dtype)
    b = rng.standard_normal((3, 5, 4, 3)).astype(dtype)
    if dtype is complex:
        b = b + 1j * rng.standard_normal(b.shape)
    np.testing.assert_allclose(cross(a, b), np.cross(a, b, axis=0), rtol=1e-14, atol=1e-14)
    # a 3-tuple of broadcastable factors (wavevector style) gives the same stack
    x = (a[0][:, :1, :1], a[1][:1, :, :1], a[2][:1, :1, :])
    full = np.stack([np.broadcast_to(c, b.shape[1:]) for c in x])
    np.testing.assert_array_equal(cross(x, b), cross(full, b))


def test_extend_restrict_round_trip(grid16, rng):
    dom = box_mask(grid16, (0.5, 0.5, 0.5), (0.2, 0.15, 0.1))
    v = rng.standard_normal((3, dom.count))
    field = extend_by_zero(v, dom)
    assert field.shape == (3,) + grid16.shape
    # off-mask cells are exactly zero
    assert np.all(field[:, ~dom.mask] == 0.0)
    back = restrict_to_domain(field, dom)
    np.testing.assert_array_equal(back, v)


def test_domain_box_is_the_tight_bounding_box(grid16):
    dom = ball_mask(grid16, (0.45, 0.5, 0.55), 0.2)
    np.testing.assert_array_equal(dom.cropped_mask, dom.mask[dom.box])
    outside = dom.mask.copy()
    outside[dom.box] = False
    assert not outside.any()
    # tight: every face of the box touches the domain
    for axis in range(3):
        assert dom.cropped_mask.take(0, axis=axis).any()
        assert dom.cropped_mask.take(-1, axis=axis).any()
    # the cropped mask lists the voxels in the mask's order
    v = np.arange(dom.count, dtype=float)
    block = np.zeros(dom.cropped_mask.shape)
    block[dom.cropped_mask] = v
    np.testing.assert_array_equal(extend_by_zero(v, dom)[0][dom.box], block)
    # the margin rule caps the box at 3n/4 cells per axis
    n, q = grid16.n, grid16.n // 8
    full = np.zeros(grid16.shape, dtype=bool)
    full[q:n - q, q:n - q, q:n - q] = True
    assert DomainMask(full, grid16).box == (slice(q, n - q),) * 3


def test_extend_rejects_wrong_voxel_count(grid16):
    dom = box_mask(grid16, (0.5, 0.5, 0.5), (0.2, 0.2, 0.2))
    with pytest.raises(ValueError):
        extend_by_zero(np.zeros((3, dom.count + 1)), dom)


def test_weighted_inner_matches_quadrature(grid8, rng):
    co = smooth_coefficients(grid8)
    a = random_state(rng, grid8)
    b = random_state(rng, grid8)
    expect = (
        np.sum(co.kappa1 * np.sum(a[0:3] * b[0:3], axis=0))
        + np.sum(co.kappa2 * np.sum(a[3:6] * b[3:6], axis=0))
    ) * grid8.cell_volume
    assert weighted_inner(a, b, co, grid8) == pytest.approx(expect, rel=1e-13)
    # symmetry
    assert weighted_inner(a, b, co, grid8) == pytest.approx(
        weighted_inner(b, a, co, grid8), rel=1e-13
    )


@settings(max_examples=25, deadline=None)
@given(
    k1=st.floats(0.1, 10.0),
    k2=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**31),
)
def test_weighted_norm_positive_definite(k1, k2, seed):
    grid = Grid3(8)
    co = Coefficients.constant(grid, k1, k2)
    a = np.random.default_rng(seed).standard_normal((6,) + grid.shape)
    n = weighted_norm(a, co, grid)
    assert n > 0
    # scales linearly and bounds between the extreme weights
    assert weighted_norm(2.0 * a, co, grid) == pytest.approx(2.0 * n, rel=1e-12)
    plain = np.sqrt(np.sum(a * a) * grid.cell_volume)
    assert np.sqrt(min(k1, k2)) * plain <= n * (1 + 1e-12)
    assert n <= np.sqrt(max(k1, k2)) * plain * (1 + 1e-12)


def test_matter_l2_norm(grid16):
    dom = box_mask(grid16, (0.5, 0.5, 0.5), (0.2, 0.2, 0.2))
    v = np.ones((3, dom.count))
    assert matter_l2_norm(v, grid16) == pytest.approx(
        np.sqrt(3 * dom.count * grid16.cell_volume), rel=1e-13
    )


def test_snapshot_round_trip(tmp_path, grid16, rng):
    fields = random_state(rng, grid16, components=6)
    path = tmp_path / "snap.bin"
    save_fields(path, fields, grid16)
    back, g2 = load_fields(path)
    assert g2 == grid16
    np.testing.assert_array_equal(back, fields)


@pytest.mark.parametrize("layout", ["c", "fortran", "strided"])
def test_snapshot_body_is_x_fastest_component_by_component(tmp_path, grid8, layout):
    # the bytes built value by value, independently of the writer: header,
    # then per component the little-endian f64 values with x fastest
    i, j, k = np.indices(grid8.shape)
    fields = np.stack([c * 1000.0 + i + 10.0 * j + 100.0 * k + 0.25 for c in range(3)])
    expect = struct.pack("<4sIIdI", b"MXMT", 1, grid8.n, grid8.box_len, 3)
    for c in range(3):
        for z in range(grid8.n):
            for y in range(grid8.n):
                for x in range(grid8.n):
                    expect += struct.pack("<d", fields[c, x, y, z])
    given_fields = {
        "c": fields,
        "fortran": np.asfortranarray(fields),
        "strided": np.repeat(fields, 2, axis=0)[::2],
    }[layout]
    path = tmp_path / "snap.bin"
    save_fields(path, given_fields, grid8)
    assert path.read_bytes() == expect


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(ValueError):
        load_fields(path)


@pytest.mark.parametrize("n, match", [(3, "n >= 8"), (2**20, "truncated")])
def test_snapshot_bad_header_names_the_file(tmp_path, n, match):
    # n = 3 is no grid; n = 2**20 asks for 8 EiB per component from a
    # 28-byte file, refused before anything is allocated
    path = tmp_path / f"header_{n}.bin"
    path.write_bytes(_HEADER.pack(MAGIC, SNAPSHOT_VERSION, n, 1.0, 1))
    with pytest.raises(ValueError, match=match) as err:
        load_fields(path)
    assert str(path) in str(err.value)


def test_snapshot_deterministic_bytes(tmp_path, grid8, rng):
    fields = random_state(rng, grid8, components=3)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_fields(p1, fields, grid8)
    save_fields(p2, fields.copy(), grid8)
    assert p1.read_bytes() == p2.read_bytes()
