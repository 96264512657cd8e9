"""Weighted Helmholtz splitting: algebra, oracle solves, failure modes.

The variable-coefficient path is checked against a dense direct solve of
the discrete potential problem assembled mode by mode on a small grid, so
the iterative solver is never trusted on its own word.
"""

import sys
import threading

import numpy as np
import pytest

from maxmat import (
    Coefficients,
    FourierWorkspace,
    Grid3,
    SimState,
    SimSystem,
    apply_B,
    curl,
    make_initial,
    weighted_inner,
    weighted_norm,
)
import maxmat.helmholtz as helmholtz
from maxmat import cores
from maxmat.spectral import safe_div
from maxmat.helmholtz import (
    ProjectionSolveError,
    constraint_residual,
    project_P,
    project_complement,
    project_complement_state,
)

from .conftest import (
    count_transforms,
    helper_held,
    random_state,
    smooth_coefficients,
    tilted_magnetization,
)


def oracle_complement_dense(v, kappa, grid):
    """Direct dense solve of div(kappa grad phi) = div(kappa v).

    Assembles the operator column by column through the same spectral
    div/grad stencils, solves with numpy.linalg.lstsq on the mean-zero
    complement, and returns grad phi. O(n^6) memory, 8^3 only.
    """
    ws = FourierWorkspace(grid)

    def grad(phi):
        ph = np.fft.rfftn(phi)
        return np.stack(
            [np.fft.irfftn(1j * ws.xi[i] * ph, s=grid.shape, axes=(0, 1, 2)) for i in range(3)]
        )

    def div(w):
        wh = np.fft.rfftn(w, axes=(-3, -2, -1))
        return np.fft.irfftn(
            sum(1j * ws.xi[i] * wh[i] for i in range(3)), s=grid.shape, axes=(0, 1, 2)
        )

    size = grid.n**3
    cols = np.empty((size, size))
    for j in range(size):
        e = np.zeros(size)
        e[j] = 1.0
        cols[:, j] = div(kappa * grad(e.reshape(grid.shape))).ravel()
    rhs = div(kappa * v).ravel()
    phi, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
    phi -= phi.mean()
    return grad(phi.reshape(grid.shape))


def test_constant_path_idempotent_and_orthogonal(grid16, ws16, rng):
    co = Coefficients.constant(grid16, 2.0, 0.5)
    u = random_state(rng, grid16)
    pu = project_P(u, co, ws16)
    qu = u - pu
    ppu = project_P(pu, co, ws16)
    assert weighted_norm(ppu - pu, co, grid16) < 1e-12 * weighted_norm(u, co, grid16)
    # the two parts are orthogonal in the weighted inner product
    ip = weighted_inner(pu, qu, co, grid16)
    assert abs(ip) < 1e-12 * weighted_norm(u, co, grid16) ** 2


@pytest.mark.parametrize("k", [1.0, 2.5])
def test_constant_weight_folds_into_the_divergence(grid16, ws16, rng, k, monkeypatch):
    # the constant weight scales the divergence instead of multiplying v:
    # the same projection as from the spectrum of k v, to the bit for k = 1
    v = rng.standard_normal((3,) + grid16.shape)
    kappa = np.full(grid16.shape, k)
    b = ws16.hermitian_planes(ws16.div_hat(ws16.forward(kappa * v), -1.0))
    expect = ws16.inverse(ws16.grad_hat(helmholtz._potential_hat(b, kappa, ws16)))
    forwarded = []
    original = FourierWorkspace.forward

    def recording(ws, a):
        forwarded.append(a)
        return original(ws, a)

    monkeypatch.setattr(FourierWorkspace, "forward", recording)
    got = project_complement(v, kappa, ws16)
    assert len(forwarded) == 1 and forwarded[0] is v
    if k == 1.0:
        np.testing.assert_array_equal(got, expect)
    else:
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()


def test_variable_path_idempotent_and_orthogonal(grid16, ws16, rng):
    co = smooth_coefficients(grid16)
    u = random_state(rng, grid16)
    pu = project_P(u, co, ws16)
    qu = u - pu
    ppu = project_P(pu, co, ws16)
    assert weighted_norm(ppu - pu, co, grid16) < 1e-9 * weighted_norm(u, co, grid16)
    ip = weighted_inner(pu, qu, co, grid16)
    assert abs(ip) < 1e-9 * weighted_norm(u, co, grid16) ** 2


@pytest.mark.parametrize("variable", [False, True])
def test_complement_is_curl_free(grid16, ws16, rng, variable):
    co = smooth_coefficients(grid16) if variable else Coefficients.constant(grid16, 1.0, 3.0)
    v = rng.standard_normal((3,) + grid16.shape)
    g = project_complement(v, co.kappa1, ws16)
    assert np.abs(curl(g, ws16)).max() < 1e-10 * max(np.abs(g).max(), 1e-30)


@pytest.mark.parametrize("variable", [False, True])
def test_remainder_is_weighted_div_free(grid16, ws16, rng, variable):
    co = smooth_coefficients(grid16) if variable else Coefficients.constant(grid16, 1.0, 3.0)
    v = rng.standard_normal((3,) + grid16.shape)
    g = project_complement(v, co.kappa1, ws16)
    w = np.fft.rfftn(co.kappa1 * (v - g), axes=(-3, -2, -1))
    div_hat = sum(1j * ws16.xi[i] * w[i] for i in range(3))
    div = np.fft.irfftn(div_hat, s=grid16.shape, axes=(0, 1, 2))
    # compare against the divergence content of the input
    w0 = np.fft.rfftn(co.kappa1 * v, axes=(-3, -2, -1))
    div0 = np.fft.irfftn(sum(1j * ws16.xi[i] * w0[i] for i in range(3)), s=grid16.shape, axes=(0, 1, 2))
    assert np.abs(div).max() < 1e-9 * np.abs(div0).max()


def test_complement_matches_dense_oracle(grid8, rng, monkeypatch):
    monkeypatch.setattr(helmholtz, "PCG_RTOL", 1e-13)
    grid = grid8
    xx, yy, zz = grid.meshgrid()
    kappa = 1.0 + 0.5 * np.exp(-((xx - 0.5) ** 2 + (yy - 0.5) ** 2 + (zz - 0.5) ** 2) / 0.03)
    v = rng.standard_normal((3,) + grid.shape)
    ws = FourierWorkspace(grid)
    got = project_complement(v, kappa, ws)
    expect = oracle_complement_dense(v, kappa, grid)
    assert np.abs(got - expect).max() < 1e-8 * np.abs(expect).max()


def reference_complement_physical(v, kappa, ws):
    """PCG on physical iterates, ten scalar transforms per iteration: the
    solver as it stood before it moved to half-spectra. Returns
    (grad phi, iterations)."""

    def grad(phi_hat):
        return ws.inverse(np.stack([1j * x * phi_hat for x in ws.xi]))

    def div(w):
        wh = ws.forward(w)
        return ws.inverse(1j * (ws.xi[0] * wh[0] + ws.xi[1] * wh[1] + ws.xi[2] * wh[2]))

    def apply_M(r):
        return ws.inverse(safe_div(ws.forward(r), ws.xi_sq))

    b = -div(kappa * v)
    b -= b.mean()
    bnorm = float(np.linalg.norm(b))
    phi = np.zeros(ws.grid.shape)
    r = b.copy()
    z = apply_M(r)
    p = z.copy()
    rz = float(np.sum(r * z))
    for k in range(1, helmholtz.PCG_MAX_ITER + 1):
        Ap = -div(kappa * grad(ws.forward(p)))
        alpha = rz / float(np.sum(p * Ap))
        phi += alpha * p
        r -= alpha * Ap
        if float(np.linalg.norm(r)) <= helmholtz.PCG_RTOL * bnorm:
            phi -= phi.mean()
            return grad(ws.forward(phi)), k
        z = apply_M(r)
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise AssertionError("reference PCG did not converge")


def test_spectral_pcg_matches_physical_reference(grid16, ws16, rng, monkeypatch):
    # same iterations and result as physical-iterate PCG on a full-band
    # input with Nyquist content; 6k + 6 scalar transforms in 2k + 2 calls
    co = smooth_coefficients(grid16)
    v = rng.standard_normal((3,) + grid16.shape)
    expect, k_ref = reference_complement_physical(v, co.kappa1, ws16)
    transforms = count_transforms(monkeypatch)
    got = project_complement(v, co.kappa1, ws16)
    k = (len(transforms) - 2) // 2
    assert k == k_ref > 3
    assert len(transforms) == 2 * k + 2 and sum(transforms) == 6 * k + 6
    assert np.abs(got - expect).max() <= 1e-10 * np.abs(expect).max()


def test_complement_recovers_pure_gradient(grid16, ws16, rng):
    # a curl-free input must be returned unchanged (it is its own complement)
    phi = rng.standard_normal(grid16.shape)
    ph = np.fft.rfftn(phi)
    g = np.stack([np.fft.irfftn(1j * ws16.xi[i] * ph, s=grid16.shape, axes=(0, 1, 2)) for i in range(3)])
    co = smooth_coefficients(grid16)
    out = project_complement(g, co.kappa1, ws16)
    assert np.abs(out - g).max() < 1e-9 * np.abs(g).max()


def test_projector_annihilates_B_range(grid16, ws16, rng):
    # (Id - P) B = 0: the evolution never creates curl-free content
    for co in (Coefficients.constant(grid16, 2.0, 0.5), smooth_coefficients(grid16)):
        u = random_state(rng, grid16)
        bu = apply_B(u, co, ws16)
        qbu = bu - project_P(bu, co, ws16)
        assert weighted_norm(qbu, co, grid16) < 1e-10 * weighted_norm(bu, co, grid16)


def test_projector_keeps_spatial_mean(grid16, ws16, rng):
    co = smooth_coefficients(grid16)
    u = random_state(rng, grid16)
    pu = project_P(u, co, ws16)
    np.testing.assert_allclose(
        pu.mean(axis=(1, 2, 3)), u.mean(axis=(1, 2, 3)), atol=1e-12
    )


def test_constraint_residual_normalization(grid16, ws16, rng):
    co = Coefficients.constant(grid16, 1.0, 1.0)
    zero = np.zeros((6,) + grid16.shape)
    assert constraint_residual(zero, zero, co, ws16) == 0.0
    u = random_state(rng, grid16)
    r1 = constraint_residual(u, zero, co, ws16)
    r2 = constraint_residual(3.0 * u, zero, co, ws16)
    # scale-invariant in the state
    assert r2 == pytest.approx(r1, rel=1e-10)
    # a projected state has no curl-free content at all
    pu = project_P(u, co, ws16)
    assert constraint_residual(pu, zero, co, ws16) < 1e-11


def reference_residual(state, shift, co, ws):
    """The residual by its definition: the weighted norm of the projected
    difference on the grid, over the summed weighted norms of the inputs."""
    resid = project_complement_state(state - shift, co, ws)
    scale = weighted_norm(state, co, ws.grid) + weighted_norm(shift, co, ws.grid)
    return weighted_norm(resid, co, ws.grid) / scale


@pytest.mark.parametrize("variable", [False, True], ids=["constant", "variable"])
def test_constraint_residual_is_the_projection_formula(grid16, ws16, rng, monkeypatch, variable):
    # one formula, <b, phi> per slot, for both weight classes
    co = smooth_coefficients(grid16) if variable else Coefficients.constant(grid16, 2.0, 0.5)
    rel = 1e-10 if variable else 1e-12
    # a compatible pair: the state's curl-free part is that of the shift,
    # which lives in slot 1 only
    shift = np.zeros((6,) + grid16.shape)
    shift[0:3] = rng.standard_normal((3,) + grid16.shape)
    state = project_P(random_state(rng, grid16), co, ws16)
    state[0:3] += project_complement(shift[0:3], co.kappa1, ws16)
    assert constraint_residual(state, shift, co, ws16) < rel
    phi = rng.standard_normal(grid16.shape)
    grad = ws16.inverse(ws16.grad_hat(ws16.forward(phi)))
    for slot in (slice(0, 3), slice(3, 6)):
        broken = state.copy()
        broken[slot] += 0.1 * grad
        got = constraint_residual(broken, shift, co, ws16)
        assert got > 1e-3
        assert got == pytest.approx(reference_residual(broken, shift, co, ws16), rel=rel)
    # white noise carries Nyquist content
    noise = random_state(rng, grid16)
    transforms = count_transforms(monkeypatch)
    got = constraint_residual(noise, shift, co, ws16)
    if not variable:
        assert transforms == [6]
    monkeypatch.undo()
    assert got == pytest.approx(reference_residual(noise, shift, co, ws16), rel=rel)


def test_complement_state_applies_per_slot(grid16, ws16, rng):
    co = smooth_coefficients(grid16)
    u = random_state(rng, grid16)
    out = project_complement_state(u, co, ws16)
    np.testing.assert_allclose(
        out[0:3],
        project_complement(u[0:3], co.kappa1, ws16),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        out[3:6],
        project_complement(u[3:6], co.kappa2, ws16),
        atol=1e-12,
    )


def test_solver_reports_exhaustion(grid16, ws16, rng, monkeypatch):
    monkeypatch.setattr(helmholtz, "PCG_RTOL", 1e-15)
    monkeypatch.setattr(helmholtz, "PCG_MAX_ITER", 2)
    co = smooth_coefficients(grid16)
    v = rng.standard_normal((3,) + grid16.shape)
    with pytest.raises(ProjectionSolveError):
        project_complement(v, co.kappa1, ws16)


def record_solve_threads(monkeypatch) -> list:
    """Record the thread name of every potential solve."""
    names = []
    original = helmholtz._potential_hat

    def recording(b, kappa, ws):
        names.append(threading.current_thread().name)
        return original(b, kappa, ws)

    monkeypatch.setattr(helmholtz, "_potential_hat", recording)
    return names


def on_helper(names) -> int:
    return sum(name.startswith("maxmat-helper") for name in names)


def split_at_16(monkeypatch, grid16):
    """Split the solves of 16^3 variable weights over the helper."""
    monkeypatch.setattr(helmholtz, "_SPLIT_SOLVE_POINTS", grid16.n**3)


def test_split_solves_are_bitwise_the_inline_ones(two_cores, ll_system, grid16, rng, monkeypatch):
    # the monitor, the seeded initial data and the projector, each with its
    # two slots' solves on two threads and then on one, give the same bytes
    split_at_16(monkeypatch, grid16)
    sys_ = SimSystem(grid16, smooth_coefficients(grid16), ll_system.domain, ll_system.model)
    v0 = tilted_magnetization(sys_.domain)
    seed = rng.standard_normal((6,) + grid16.shape)
    field = random_state(rng, grid16)
    names = record_solve_threads(monkeypatch)

    def outputs():
        state = make_initial(sys_, v0, u_free=seed)
        physical = SimState(0.0, field, state.v)
        return (state.u.tobytes(), repr(sys_.constraint_residual(physical)),
                project_complement_state(field, sys_.coeffs, sys_.ws).tobytes())

    split = outputs()
    assert len(names) == 6 and on_helper(names) == 3
    names.clear()
    with helper_held():
        inline = outputs()
    assert len(names) == 6 and on_helper(names) == 0
    assert split == inline


def test_variable_weights_split_from_32_cubed(two_cores, rng, monkeypatch):
    grid = Grid3(32, 1.0)
    u = random_state(rng, grid)
    names = record_solve_threads(monkeypatch)
    project_complement_state(u, smooth_coefficients(grid), FourierWorkspace(grid))
    assert len(names) == 2 and on_helper(names) == 1


def test_helper_side_solve_failure_reaches_the_caller(two_cores, grid16, ws16, rng, monkeypatch):
    # slot 1 is zero, so its solve returns at once on the calling thread;
    # slot 2's PCG stalls on the helper
    split_at_16(monkeypatch, grid16)
    monkeypatch.setattr(helmholtz, "PCG_MAX_ITER", 1)
    co = smooth_coefficients(grid16)
    u = np.zeros((6,) + grid16.shape)
    u[3:6] = rng.standard_normal((3,) + grid16.shape)
    failed = []
    original = helmholtz._potential_hat

    def recording(b, kappa, ws):
        try:
            return original(b, kappa, ws)
        except ProjectionSolveError:
            failed.append(threading.current_thread().name)
            raise

    monkeypatch.setattr(helmholtz, "_potential_hat", recording)
    for call in (lambda: project_complement_state(u, co, ws16),
                 lambda: constraint_residual(u, np.zeros_like(u), co, ws16)):
        failed.clear()
        with pytest.raises(ProjectionSolveError):
            call()
        assert len(failed) == 1 and on_helper(failed) == 1
    assert not cores._helper_lock.locked()


@pytest.mark.parametrize("case", ["constant", "small"])
def test_solves_stay_on_the_calling_thread(case, two_cores, ll_system, grid16, ws16, rng,
                                           monkeypatch):
    # constant weights at any size, and variable ones below the threshold
    if case == "constant":
        split_at_16(monkeypatch, grid16)
        co = Coefficients.constant(grid16, 2.0, 0.5)
    else:
        assert grid16.n**3 < helmholtz._SPLIT_SOLVE_POINTS
        co = smooth_coefficients(grid16)
    sys_ = SimSystem(grid16, co, ll_system.domain, ll_system.model)
    u = random_state(rng, grid16)
    names = record_solve_threads(monkeypatch)
    state = make_initial(sys_, tilted_magnetization(sys_.domain), u_free=u)
    sys_.constraint_residual(state)
    sys_.constraint_residual(SimState(0.0, u, state.v))
    project_complement_state(u, co, ws16)
    assert len(names) == 8
    assert set(names) == {threading.current_thread().name}
    assert cores._helper is None


def test_concurrent_callers_share_the_helper_bitwise(two_cores, grid16, rng, monkeypatch):
    # four threads project and monitor on one fresh workspace at once; the
    # caller that holds the helper's token hands it a solve, the others run
    # both inline, and every result is the inline bytes
    split_at_16(monkeypatch, grid16)
    co = smooth_coefficients(grid16)
    fields = [random_state(rng, grid16) for _ in range(4)]
    zero = np.zeros_like(fields[0])

    def outputs(ws, u):
        return (project_complement_state(u, co, ws).tobytes(),
                repr(constraint_residual(u, zero, co, ws)))

    with helper_held():
        expect = [outputs(FourierWorkspace(grid16), u) for u in fields]
    ws = FourierWorkspace(grid16)
    got = [None] * len(fields)

    def worker(i):
        for _ in range(2):
            got[i] = outputs(ws, fields[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(i,)) for i in range(len(fields))]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert got == expect
    assert not cores._helper_lock.locked()


def test_pcg_updates_its_iterates_in_place(grid16, ws16, rng, monkeypatch):
    # p, r and z keep their buffers, and every gradient is written into one,
    # whatever the number of iterations
    co = smooth_coefficients(grid16)
    v = rng.standard_normal((3,) + grid16.shape)
    b = ws16.hermitian_planes(ws16.div_hat(ws16.forward(co.kappa1 * v), -1.0))
    products, gradients = [], []
    inner, inverse = FourierWorkspace.inner_hat, FourierWorkspace.inverse

    def address(a):
        return a.__array_interface__["data"][0]

    def recording_inner(ws, a, c):
        products.append((address(a), address(c)))
        return inner(ws, a, c)

    def recording_inverse(ws, spectra):
        gradients.append(address(spectra))
        return inverse(ws, spectra)

    monkeypatch.setattr(FourierWorkspace, "inner_hat", recording_inner)
    monkeypatch.setattr(FourierWorkspace, "inverse", recording_inverse)
    helmholtz._potential_hat(b, co.kappa1, ws16)
    # <b, b>, <r, z>, then per iteration <p, Ap>, <r, r> and, but the last, <r, z>
    iters = len(gradients)
    assert iters > 3 and len(products) == 2 + 3 * iters - 1
    loop = products[2:]
    p = {a for a, _ in loop[0::3]}
    r = {a for a, _ in loop[1::3]} | {a for a, _ in loop[2::3]} | {products[1][0]}
    z = {c for _, c in loop[2::3]} | {products[1][1]}
    assert len(p) == len(r) == len(z) == len(set(gradients)) == 1
