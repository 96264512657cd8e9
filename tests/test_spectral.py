"""Spectral derivative operators, the free propagator, and the low-pass family.

Oracle strategy: closed-form trigonometric fields with hand-computed curls
check the operator against calculus; an independently written full-complex
FFT derivative cross-checks it on random data; the propagator is checked
against plain RK4 integration of du/dt = -Bu and against its algebraic
invariants (unitarity, group law, commutation with the projector).
"""

import numpy as np
import pytest

from maxmat import (
    Coefficients,
    FourierWorkspace,
    FreePropagator,
    Grid3,
    MollifierSpec,
    apply_B,
    curl,
    mollify,
    project_P,
    weighted_inner,
    weighted_norm,
)
from maxmat.spectral import spectral_weighted_norm

from .conftest import random_state, smooth_coefficients


# ---------------------------------------------------------------- oracles


def fftn_derivative(field, axis, grid):
    """Independent spectral derivative via the full complex FFT.

    Written from scratch as an oracle: full fftn, multiply by i k along
    one axis, inverse, real part. The shared Nyquist frequency carries no
    sign, so an odd multiplier must vanish there.
    """
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)
    k[grid.n // 2] = 0.0
    shape = [1, 1, 1]
    shape[axis] = grid.n
    mult = 1j * k.reshape(shape)
    return np.real(np.fft.ifftn(mult * np.fft.fftn(field)))


def oracle_curl(v, grid):
    d = lambda f, ax: fftn_derivative(f, ax, grid)
    return np.stack(
        [
            d(v[2], 1) - d(v[1], 2),
            d(v[0], 2) - d(v[2], 0),
            d(v[1], 0) - d(v[0], 1),
        ]
    )


def oracle_div(v, grid):
    return sum(fftn_derivative(v[i], i, grid) for i in range(3))


def band_limited(rng, grid, kmax=3, components=6):
    """Random field supported on |k_i| <= kmax (no Nyquist content)."""
    n = grid.n
    spec = np.zeros((components, n, n, n), dtype=complex)
    k = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    keep = np.abs(k) <= kmax
    box = np.ix_(range(components), np.where(keep)[0], np.where(keep)[0], np.where(keep)[0])
    spec[box] = rng.standard_normal(
        (components, keep.sum(), keep.sum(), keep.sum())
    ) + 1j * rng.standard_normal((components, keep.sum(), keep.sum(), keep.sum()))
    out = np.real(np.fft.ifftn(spec, axes=(1, 2, 3)))
    return out / np.abs(out).max()


def reference_propagate(uhat, prop, t):
    """exp(-t B) of a (6, ...) half-spectrum, mode by mode from the
    unit wavevector khat = xi / |xi|, as the FreePropagator docstring
    states it: the parallel part khat (khat . u) is frozen, the rest turns
    by cos(wt), and the rotation term is khat ^ u of the other slot."""
    ws = prop.ws
    xi = np.stack([np.broadcast_to(x, ws.spectral_shape) for x in ws.xi])
    norm = np.sqrt(np.sum(xi**2, axis=0))
    khat = xi / np.where(norm > 0, norm, 1.0)
    wt = norm / np.sqrt(prop.kappa1 * prop.kappa2) * t
    c, s = np.cos(wt), np.sin(wt)

    def par(u):
        return khat * np.sum(khat * u, axis=0)

    def khat_cross(u):
        return np.stack([khat[(j + 1) % 3] * u[(j + 2) % 3] - khat[(j + 2) % 3] * u[(j + 1) % 3]
                         for j in range(3)])

    u1, u2 = uhat[0:3], uhat[3:6]
    r12 = np.sqrt(prop.kappa2 / prop.kappa1)
    r21 = np.sqrt(prop.kappa1 / prop.kappa2)
    return np.concatenate([
        par(u1) + c * (u1 - par(u1)) - 1j * s * r12 * khat_cross(u2),
        par(u2) + c * (u2 - par(u2)) + 1j * s * r21 * khat_cross(u1),
    ])


# ----------------------------------------------------------------- tests


def test_curl_matches_closed_form(grid16, ws16):
    x, y, z = grid16.meshgrid()
    a, b, c = 3, 2, 1
    v = np.stack(
        [
            np.sin(2 * np.pi * b * y),
            np.sin(2 * np.pi * c * z),
            np.sin(2 * np.pi * a * x),
        ]
    )
    expect = np.stack(
        [
            -2 * np.pi * c * np.cos(2 * np.pi * c * z),
            -2 * np.pi * a * np.cos(2 * np.pi * a * x),
            -2 * np.pi * b * np.cos(2 * np.pi * b * y),
        ]
    )
    got = curl(v, ws16)
    assert np.abs(got - expect).max() < 1e-11


def test_curl_matches_fftn_oracle(grid16, ws16, rng):
    v = rng.standard_normal((3,) + grid16.shape)
    got = curl(v, ws16)
    expect = oracle_curl(v, grid16)
    assert np.abs(got - expect).max() < 1e-10


def test_div_of_curl_vanishes(grid16, ws16, rng):
    # white noise includes Nyquist content; the identity must still hold
    v = rng.standard_normal((3,) + grid16.shape)
    dcv = oracle_div(curl(v, ws16), grid16)
    assert np.abs(dcv).max() < 1e-10 * np.abs(curl(v, ws16)).max()


def test_curl_of_gradient_vanishes(grid16, ws16, rng):
    phi = rng.standard_normal(grid16.shape)
    grad = np.stack([fftn_derivative(phi, i, grid16) for i in range(3)])
    cg = curl(grad, ws16)
    assert np.abs(cg).max() < 1e-10 * np.abs(grad).max()


def test_curl_curl_identity(grid16, ws16, rng):
    # curl curl = grad div - laplacian, on a band-limited field
    v = band_limited(rng, grid16, kmax=4, components=3)
    cc = curl(curl(v, ws16), ws16)
    lap = np.stack(
        [
            sum(fftn_derivative(fftn_derivative(v[c], i, grid16), i, grid16) for i in range(3))
            for c in range(3)
        ]
    )
    dv = oracle_div(v, grid16)
    gd = np.stack([fftn_derivative(dv, i, grid16) for i in range(3)])
    assert np.abs(cc - (gd - lap)).max() < 1e-9


def test_curl_is_symmetric_on_the_torus(grid16, ws16, rng):
    a = rng.standard_normal((3,) + grid16.shape)
    b = rng.standard_normal((3,) + grid16.shape)
    lhs = np.sum(a * curl(b, ws16))
    rhs = np.sum(curl(a, ws16) * b)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("variable", [False, True])
def test_apply_B_skew_adjoint(grid16, ws16, rng, variable):
    co = smooth_coefficients(grid16) if variable else Coefficients.constant(grid16, 2.0, 0.5)
    u = random_state(rng, grid16)
    w = random_state(rng, grid16)
    lhs = weighted_inner(apply_B(u, co, ws16), w, co, grid16)
    rhs = weighted_inner(u, apply_B(w, co, ws16), co, grid16)
    scale = weighted_norm(u, co, grid16) * weighted_norm(w, co, grid16)
    assert abs(lhs + rhs) < 1e-12 * scale


def test_apply_B_block_structure(grid16, ws16, rng):
    co = smooth_coefficients(grid16)
    u = random_state(rng, grid16)
    out = apply_B(u, co, ws16)
    np.testing.assert_allclose(out[0:3], curl(u[3:6], ws16) / co.kappa1, atol=1e-14)
    np.testing.assert_allclose(out[3:6], -curl(u[0:3], ws16) / co.kappa2, atol=1e-14)


def test_apply_B_writes_into_out_without_reading_it(grid16, ws16, rng):
    co = smooth_coefficients(grid16)
    u = random_state(rng, grid16)
    expect = apply_B(u, co, ws16)
    buf = np.full_like(u, np.nan)
    assert apply_B(u, co, ws16, out=buf) is buf
    assert np.isfinite(buf).all()
    np.testing.assert_array_equal(buf, expect)
    # the sign goes into the curl multiplier, which negates exactly
    np.testing.assert_array_equal(apply_B(u, co, ws16, sign=-1.0), -expect)


def test_apply_B_on_spectra_is_apply_B_on_fields(grid16, ws16, rng):
    # white noise has Nyquist content, where the odd multiplier must vanish as in curl
    co = Coefficients.constant(grid16, 0.7, 1.9)
    u = random_state(rng, grid16)
    u_hat = ws16.forward(u)
    got_hat = apply_B(u_hat, co, ws16)
    assert got_hat.shape == u_hat.shape and np.iscomplexobj(got_hat)
    got = ws16.inverse(got_hat)
    expect = apply_B(u, co, ws16)
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()
    # the sign is folded into the multiplier there too, which negates exactly
    np.testing.assert_array_equal(apply_B(u_hat, co, ws16, sign=-1.0), -got_hat)
    with pytest.raises(ValueError, match="constant"):
        apply_B(u_hat, smooth_coefficients(grid16), ws16)
    with pytest.raises(ValueError, match="spectrum"):
        apply_B(u_hat[..., :-1], co, ws16)


class TestFreePropagator:
    def test_identity_at_t_zero(self, grid16, rng):
        co = Coefficients.constant(grid16, 1.3, 0.7)
        prop = FreePropagator(co, FourierWorkspace(grid16))
        u = random_state(rng, grid16)
        np.testing.assert_allclose(prop.apply(u, 0.0), u, atol=1e-13)

    def test_unitary_in_weighted_norm(self, grid16, rng):
        co = Coefficients.constant(grid16, 2.0, 0.5)
        prop = FreePropagator(co, FourierWorkspace(grid16))
        u = random_state(rng, grid16)
        n0 = weighted_norm(u, co, grid16)
        for t in (0.01, 0.3, 2.7, -1.4):
            nt = weighted_norm(prop.apply(u, t), co, grid16)
            assert nt == pytest.approx(n0, rel=1e-12)
        # the unweighted norm is genuinely not conserved here, so the
        # weighted check above is not vacuous
        plain0 = float(np.sqrt(np.sum(u * u)))
        plain1 = float(np.sqrt(np.sum(prop.apply(u, 0.3) ** 2)))
        assert abs(plain1 - plain0) > 1e-3 * plain0

    def test_group_law_and_inverse(self, grid16, rng):
        co = Coefficients.constant(grid16, 1.0, 1.0)
        prop = FreePropagator(co, FourierWorkspace(grid16))
        u = random_state(rng, grid16)
        ab = prop.apply(prop.apply(u, 0.17), 0.29)
        once = prop.apply(u, 0.46)
        assert np.abs(ab - once).max() < 1e-11 * np.abs(u).max()
        back = prop.apply(prop.apply(u, 0.37), -0.37)
        assert np.abs(back - u).max() < 1e-11 * np.abs(u).max()

    def test_generator_is_minus_B(self, grid16, ws16, rng):
        co = Coefficients.constant(grid16, 1.5, 0.8)
        prop = FreePropagator(co, ws16)
        u = band_limited(rng, grid16, kmax=4)
        eps = 1e-5
        fd = (prop.apply(u, eps) - prop.apply(u, -eps)) / (2 * eps)
        expect = -apply_B(u, co, ws16)
        assert np.abs(fd - expect).max() < 1e-6 * np.abs(expect).max()

    def test_matches_rk4_integration(self, grid16, ws16, rng):
        co = Coefficients.constant(grid16, 1.0, 2.0)
        prop = FreePropagator(co, ws16)
        u = band_limited(rng, grid16, kmax=4)
        t_end, steps = 0.1, 200
        dt = t_end / steps
        w = u.copy()
        for _ in range(steps):
            k1 = -apply_B(w, co, ws16)
            k2 = -apply_B(w + 0.5 * dt * k1, co, ws16)
            k3 = -apply_B(w + 0.5 * dt * k2, co, ws16)
            k4 = -apply_B(w + dt * k3, co, ws16)
            w = w + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        exact = prop.apply(u, t_end)
        assert np.abs(w - exact).max() < 1e-7 * np.abs(u).max()

    def test_commutes_with_projector(self, grid16, ws16, rng):
        co = Coefficients.constant(grid16, 2.0, 0.5)
        prop = FreePropagator(co, ws16)
        u = random_state(rng, grid16)
        a = project_P(prop.apply(u, 0.4), co, ws16)
        b = prop.apply(project_P(u, co, ws16), 0.4)
        assert np.abs(a - b).max() < 1e-11 * np.abs(u).max()

    def test_preserves_zero_mode(self, grid16, ws16, rng):
        co = Coefficients.constant(grid16, 1.0, 1.0)
        prop = FreePropagator(co, ws16)
        u = random_state(rng, grid16)
        mean0 = u.mean(axis=(1, 2, 3))
        mean1 = prop.apply(u, 1.234).mean(axis=(1, 2, 3))
        np.testing.assert_allclose(mean1, mean0, atol=1e-13)

    @pytest.mark.parametrize("support, other", [(slice(0, 3), slice(3, 6)),
                                                (slice(3, 6), slice(0, 3))])
    def test_zero_slot_skip_matches_general_path(self, grid16, ws16, rng, support, other):
        # A slot's own (3, ...) spectrum propagates exactly as the (6, ...)
        # stack that holds it with the other slot zero.
        co = Coefficients.constant(grid16, 1.3, 0.7)
        prop = FreePropagator(co, ws16)
        u = random_state(rng, grid16)
        u[other] = 0.0
        uhat = ws16.forward(u)
        phases = prop.phases(0.37)
        general = prop.apply_hat(uhat, phases)
        assert np.abs(general[other]).max() > 0.1 * np.abs(general[support]).max()
        np.testing.assert_array_equal(prop.apply_hat(uhat[support], phases, slot=support), general)
        with pytest.raises(ValueError, match="slot"):
            prop.apply_hat(uhat, phases, slot=support)
        with pytest.raises(ValueError, match="slot"):
            prop.apply_hat(uhat[1:4], phases, slot=slice(1, 4))

    def test_apply_hat_matches_khat_reference(self, grid16, ws16, rng):
        # white noise has Nyquist content, where the odd multipliers vanish
        co = Coefficients.constant(grid16, 1.3, 0.7)
        prop = FreePropagator(co, ws16)
        uhat = ws16.forward(random_state(rng, grid16))
        for t in (0.37, -1.9):
            phases = prop.phases(t)
            expect = reference_propagate(uhat, prop, t)
            scale = np.abs(expect).max()
            assert np.abs(prop.apply_hat(uhat, phases) - expect).max() <= 1e-14 * scale
            for slot, other in ((slice(0, 3), slice(3, 6)), (slice(3, 6), slice(0, 3))):
                only = uhat.copy()
                only[other] = 0.0
                expect = reference_propagate(only, prop, t)
                got = prop.apply_hat(uhat[slot], phases, slot=slot)
                assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()

    @pytest.mark.parametrize("t", [0.37, -1.9])
    def test_out_slot_is_that_slot_of_the_full_result(self, grid16, ws16, rng, t):
        co = Coefficients.constant(grid16, 1.3, 0.7)
        prop = FreePropagator(co, ws16)
        uhat = ws16.forward(random_state(rng, grid16))
        phases = prop.phases(t)
        full = prop.apply_hat(uhat, phases)
        for slot in (slice(0, 3), slice(3, 6)):
            got = prop.apply_hat(uhat, phases, out_slot=slot)
            assert got.shape == (3,) + ws16.spectral_shape
            np.testing.assert_array_equal(got, full[slot])
        with pytest.raises(ValueError, match="out_slot"):
            prop.apply_hat(uhat, phases, out_slot=slice(1, 4))

    def test_requires_constant_coefficients(self, grid16, ws16):
        with pytest.raises(ValueError):
            FreePropagator(smooth_coefficients(grid16), ws16)


class TestMollifier:
    def test_symbol_range_and_radial_monotonicity(self, grid16, ws16):
        sym = MollifierSpec(2).symbol(ws16)
        assert sym.min() >= 0.0 and sym.max() <= 1.0
        r = ws16.xi_norm_even.ravel()
        s = sym.ravel()
        order = np.argsort(r)
        # nondecreasing radius must give nonincreasing symbol
        assert np.all(np.diff(s[order]) <= 1e-12)

    def test_radial_table_is_built_on_first_use(self, grid16):
        ws = FourierWorkspace(grid16)
        assert "xi_norm_even" not in vars(ws)
        MollifierSpec(2).symbol(ws)
        r = vars(ws)["xi_norm_even"]
        # the even table keeps the Nyquist magnitude that the odd multipliers drop
        nyquist = np.pi * grid16.n / grid16.box_len
        assert r[0, 0, -1] == pytest.approx(nyquist) and ws.xi_sq[0, 0, -1] == 0.0
        assert r[2, 1, 3] ** 2 == pytest.approx(ws.xi_sq[2, 1, 3], rel=1e-14)

    def test_identity_on_low_band(self, grid16, ws16, rng):
        u = band_limited(rng, grid16, kmax=2, components=3)
        out = mollify(u, MollifierSpec(4), ws16)
        # |xi| <= 2pi * sqrt(3*4) < 4 * 2pi, inside the flat region
        assert np.abs(out - u).max() < 1e-13

    def test_annihilates_high_band(self, grid16, ws16):
        x, _, _ = grid16.meshgrid()
        u = np.stack([np.cos(2 * np.pi * 5 * x)] * 3)
        out = mollify(u, MollifierSpec(2), ws16)
        assert np.abs(out).max() < 1e-13

    def test_norm_nonincreasing(self, grid16, ws16, rng):
        co = Coefficients.constant(grid16, 1.7, 0.4)
        u = random_state(rng, grid16)
        for n_mol in (1, 2, 4, 8):
            out = mollify(u, MollifierSpec(n_mol), ws16)
            assert weighted_norm(out, co, grid16) <= weighted_norm(u, co, grid16) * (1 + 1e-13)

    def test_converges_to_identity(self, grid16, ws16, rng):
        u = random_state(rng, grid16, components=3)
        errs = [
            np.abs(mollify(u, MollifierSpec(n), ws16) - u).max() for n in (2, 4, 8, 14)
        ]
        assert all(a >= b for a, b in zip(errs, errs[1:]))
        # 2 pi * 14 exceeds the largest representable radius on 16^3
        assert errs[-1] < 1e-13

    def test_commutes_with_curl(self, grid16, ws16, rng):
        u = rng.standard_normal((3,) + grid16.shape)
        spec = MollifierSpec(3)
        a = curl(mollify(u, spec, ws16), ws16)
        b = mollify(curl(u, ws16), spec, ws16)
        assert np.abs(a - b).max() < 1e-10


def test_spectral_norm_matches_physical(grid16, ws16, rng):
    u = random_state(rng, grid16)
    co = Coefficients.constant(grid16, 2.2, 0.3)
    k1, k2 = co.constant_values()
    a = spectral_weighted_norm(ws16.forward(u), k1, k2, ws16)
    b = weighted_norm(u, co, grid16)
    assert a == pytest.approx(b, rel=1e-12)


def test_hermitian_planes_keep_what_inverse_keeps(grid16, ws16, rng):
    # an arbitrary half-spectrum stack: the symmetrised one is the spectrum
    # of the real field that inverse makes of it, and exactly Hermitian
    shape = (3,) + ws16.spectral_shape
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    h = ws16.hermitian_planes(a.copy())
    np.testing.assert_allclose(h, ws16.forward(ws16.inverse(a)), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(h[..., 1:-1], a[..., 1:-1])
    neg = -np.arange(grid16.n) % grid16.n
    for k in (0, -1):
        plane = h[..., k]
        np.testing.assert_array_equal(plane, plane[:, neg][:, :, neg].conj())
    assert np.abs(h - a).max() > 0.1


def white_half_spectrum(rng, ws, components):
    shape = (components,) + ws.spectral_shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestKernels:
    def test_div_of_curl_hat_vanishes(self, ws16, rng):
        v = white_half_spectrum(rng, ws16, 3)
        cv = ws16.curl_hat(v)
        xi_max = max(np.abs(x).max() for x in ws16.xi)
        assert np.abs(cv).max() > 1.0
        assert np.abs(ws16.div_hat(cv)).max() <= 1e-14 * xi_max * np.abs(cv).max()

    def test_curl_of_grad_hat_vanishes(self, ws16, rng):
        p = white_half_spectrum(rng, ws16, 1)[0]
        gp = ws16.grad_hat(p)
        xi_max = max(np.abs(x).max() for x in ws16.xi)
        assert np.abs(gp).max() > 1.0
        assert np.abs(ws16.curl_hat(gp)).max() <= 1e-14 * xi_max * np.abs(gp).max()

    @pytest.mark.parametrize("components", [1, 3])
    def test_inner_hat_is_the_grid_sum(self, grid16, ws16, rng, components):
        a = rng.standard_normal((components,) + grid16.shape)
        b = rng.standard_normal((components,) + grid16.shape)
        a_hat, b_hat = ws16.forward(a), ws16.forward(b)
        if components == 1:
            a_hat, b_hat = a_hat[0], b_hat[0]
        expect = grid16.n**3 * float(np.sum(a * b))
        assert ws16.inner_hat(a_hat, b_hat) == pytest.approx(expect, rel=1e-12)

    def test_scale_and_out(self, ws16, rng):
        v = white_half_spectrum(rng, ws16, 3)
        plain = ws16.curl_hat(v)
        out = np.empty_like(plain)
        assert ws16.curl_hat(v, -0.5j, out=out) is out
        np.testing.assert_allclose(out, -0.5j * plain, rtol=1e-15, atol=0)
        scaled = ws16.div_hat(v, -0.5j)
        np.testing.assert_allclose(scaled, -0.5j * ws16.div_hat(v), rtol=1e-15, atol=0)


def _boxes(n):
    """One-voxel, largest-admitted (3n/4 per axis) and unequal off-centre boxes."""
    q = n // 8
    return {
        "one_voxel": (slice(q, q + 1), slice(n // 2, n // 2 + 1), slice(n - q - 1, n - q)),
        "largest": (slice(q, n - q),) * 3,
        "off_centre": (slice(q, n // 2), slice(n // 2 - 1, n // 2 + 2), slice(3 * q, n - q)),
    }


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("case", ["one_voxel", "largest", "off_centre"])
@pytest.mark.parametrize("lead", [3, 6])
def test_box_transforms_match_whole_grid(n, case, lead, rng):
    ws = FourierWorkspace(Grid3(n))
    box = _boxes(n)[case]
    inside = (slice(None),) + box
    # white noise carries Nyquist content along every axis
    block = rng.standard_normal((lead,) + tuple(s.stop - s.start for s in box))
    full = np.zeros((lead,) + ws.grid.shape)
    full[inside] = block
    np.testing.assert_array_equal(ws.forward_box(block, box), ws.forward(full))
    # a real field's spectrum, and an arbitrary half-spectrum whose kz = 0
    # and Nyquist planes are not Hermitian
    for spectra in (ws.forward(rng.standard_normal(full.shape)),
                    white_half_spectrum(rng, ws, lead)):
        kept = spectra.copy()
        whole = ws.inverse(spectra)
        got = ws.inverse_box(spectra, box)
        np.testing.assert_array_equal(spectra, kept)
        assert got.shape == block.shape
        # relative to the field's size: a one-voxel box may hold small values
        assert np.abs(got - whole[inside]).max() <= 1e-15 * np.abs(whole).max()


def test_box_transforms_of_nyquist_modes(ws16, rng):
    # the alternating field (-1)^(i+j+k) is the one corner Nyquist mode
    n = ws16.grid.n
    box = _boxes(n)["off_centre"]
    i, j, k = np.meshgrid(*(np.arange(n)[s] for s in box), indexing="ij")
    block = np.stack([(-1.0) ** (i + j + k), (-1.0) ** i, (-1.0) ** k])
    full = np.zeros((3,) + ws16.grid.shape)
    full[(slice(None),) + box] = block
    np.testing.assert_array_equal(ws16.forward_box(block, box), ws16.forward(full))
    # and back: unit-amplitude Nyquist modes alone
    spectra = np.zeros((3,) + ws16.spectral_shape, dtype=complex)
    spectra[:, n // 2, n // 2, -1] = n**3
    spectra[1, n // 2, 0, 0] = n**3
    np.testing.assert_allclose(
        ws16.inverse_box(spectra, box), ws16.inverse(spectra)[(slice(None),) + box],
        rtol=0, atol=1e-15,
    )


def test_forward_box_rejects_a_block_of_another_shape(ws16):
    box = _boxes(16)["off_centre"]
    with pytest.raises(ValueError, match="does not match the box"):
        ws16.forward_box(np.zeros((3, 2, 3, 4)), box)
