"""Coupled time integration: recomposition, exactness limits, oracles.

The two closed-form oracles here are the load-bearing ones: magnetization
precession against the analytic rotating solution, and two-level
density-matrix dynamics against a dense matrix exponential.
"""

import contextlib
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import yaml

from maxmat import (
    BlochModel,
    Coefficients,
    FreePropagator,
    Grid3,
    IntegratorConfig,
    LandauLifschitzModel,
    NumericalAbort,
    SimState,
    SimSystem,
    ball_mask,
    box_mask,
    curl,
    integrate_matter,
    load_scenario,
    make_initial,
    matter_l2_norm,
    pack_rho,
    parse_scenario,
    project_complement,
    restrict_to_domain,
    run,
    run_reduced,
    step,
    unpack_rho,
    weighted_inner,
    weighted_norm,
)
from maxmat import cores, evolution
from maxmat.models import MatterModel
from maxmat.quasistatic import reduced_rhs

from .conftest import (
    count_transforms,
    helper_held,
    record_fft_workers,
    smooth_coefficients,
    tilted_magnetization,
)


def test_rhs_recomposition(ll_system, ll_state):
    # du must be exactly -B u plus the extended matter source; dv exactly F
    sys_ = ll_system
    du, dv = sys_.tendencies(ll_state.u, ll_state.v)
    from maxmat import apply_B, extend_by_zero

    f = sys_.model.eval_F(ll_state.v, restrict_to_domain(ll_state.u, sys_.domain))
    np.testing.assert_allclose(dv, f, atol=1e-15)
    expect = -apply_B(ll_state.u, sys_.coeffs, sys_.ws)
    expect[0:3] += extend_by_zero(
        sys_.model.source_from_matter(f, sys_.kappa_d), sys_.domain
    )
    np.testing.assert_allclose(du, expect, atol=1e-13)


def test_make_initial_satisfies_constraint(ll_system, rng):
    v0 = tilted_magnetization(ll_system.domain)
    state = make_initial(ll_system, v0)
    assert ll_system.constraint_residual(state) < 1e-12
    # adding a divergence-free seed must not disturb the constraint
    seed = rng.standard_normal((6,) + ll_system.grid.shape)
    state2 = make_initial(ll_system, v0, u_free=seed)
    assert ll_system.constraint_residual(state2) < 1e-12
    assert weighted_norm(state2.u - state.u, ll_system.coeffs, ll_system.grid) > 0.1


def test_make_initial_variable_coefficients(grid16, rng):
    co = smooth_coefficients(grid16)
    w = 2 * grid16.spacing
    dom = box_mask(grid16, (0.5, 0.5, 0.5), (w, w, w))
    model = LandauLifschitzModel(gyro=4.0, damping=0.2, h_ext=(0, 0, 1.0))
    sys_ = SimSystem(grid16, co, dom, model)
    state = make_initial(sys_, tilted_magnetization(dom), u_free=rng.standard_normal((6,) + grid16.shape))
    assert sys_.constraint_residual(state) < 1e-10


def test_free_flow_lawson_step_is_exact(ll_system, rng):
    # with the matter tendency frozen at zero the Lawson step must land on
    # the exact propagator image
    sys_ = ll_system
    zero_v = np.zeros((3, sys_.domain.count))
    from maxmat import project_P

    u0 = project_P(rng.standard_normal((6,) + sys_.grid.shape), sys_.coeffs, sys_.ws)
    state = SimState(0.0, u0, zero_v)
    cfg = IntegratorConfig(dt=0.05, t_end=0.05, scheme="lawson_exp")
    out = step(sys_, state, cfg)
    exact = sys_.propagator.apply(u0, 0.05)
    assert (
        weighted_norm(out.u - exact, sys_.coeffs, sys_.grid)
        < 1e-13 * weighted_norm(u0, sys_.coeffs, sys_.grid)
    )
    assert np.all(out.v == 0.0)


@pytest.mark.parametrize("kind", ["ll", "bloch"])
def test_shift_norm_is_the_weighted_norm_of_the_shift(kind, ll_system, grid16, rng):
    if kind == "ll":
        model = ll_system.model
    else:
        d = np.zeros((3, 2, 2), dtype=complex)
        d[0, 0, 1] = d[0, 1, 0] = 1.0
        d[2, 0, 1], d[2, 1, 0] = 0.5j, -0.5j
        model = BlochModel(levels=(0.0, 1.0), dipole=d, relax=0.1)
    co = smooth_coefficients(grid16)
    sys_ = SimSystem(grid16, co, ll_system.domain, model)
    v = rng.standard_normal((model.dim, sys_.domain.count))
    expect = weighted_norm(sys_.matter_to_field(v), co, grid16)
    assert expect > 0.0
    assert sys_.shift_norm(v) == pytest.approx(expect, rel=1e-14)


def test_make_initial_projects_only_the_coupled_slot(ll_system, monkeypatch):
    # the matter shift is zero outside the coupled slot, so one projection suffices
    import maxmat.evolution as evolution

    sources = []
    original = evolution.project_complement

    def counting(v, kappa, ws):
        sources.append(float(np.abs(v).max()))
        return original(v, kappa, ws)

    monkeypatch.setattr(evolution, "project_complement", counting)
    state = make_initial(ll_system, tilted_magnetization(ll_system.domain))
    assert len(sources) == 1 and sources[0] > 0.0
    assert np.all(state.u[3:6] == 0.0)
    assert ll_system.constraint_residual(state) < 1e-12


@pytest.mark.parametrize("coupled", ["ll", "bloch"])
@pytest.mark.parametrize("variable", [False, True], ids=["constant", "variable"])
def test_make_initial_with_seed_is_one_projection_per_slot(grid16, rng, monkeypatch, variable, coupled):
    # u = shift + P(u_free - shift): one projection per slot, and the same
    # state as P(u_free) + (Id - P)(shift) for either coupled slot
    import maxmat.evolution as evolution
    from maxmat import pack_rho, project_P, project_complement_state

    co = smooth_coefficients(grid16) if variable else Coefficients.constant(grid16, 2.0, 0.5)
    w = 2 * grid16.spacing
    dom = box_mask(grid16, (0.5, 0.5, 0.5), (w, w, w))
    if coupled == "ll":
        model = LandauLifschitzModel(gyro=4.0, damping=0.2, h_ext=(0, 0, 1.0))
        v0 = tilted_magnetization(dom)
    else:
        d = np.zeros((3, 2, 2), dtype=complex)
        d[:, 0, 1] = d[:, 1, 0] = 1.0
        model = BlochModel(levels=(0.0, 1.0), dipole=d)
        v0 = pack_rho(np.full((2, 2, dom.count), 0.5, dtype=complex))
    sys_ = SimSystem(grid16, co, dom, model)
    seed = rng.standard_normal((6,) + grid16.shape)
    calls = []
    original = evolution.project_complement

    def counting(v, kappa, ws):
        calls.append(kappa)
        return original(v, kappa, ws)

    monkeypatch.setattr(evolution, "project_complement", counting)
    state = make_initial(sys_, v0, u_free=seed)
    monkeypatch.undo()
    assert len(calls) == 2
    assert calls[0] is co.kappa1 and calls[1] is co.kappa2
    shift = sys_.matter_to_field(v0)
    assert np.abs(shift).max() > 0.1
    expect = project_P(seed, co, sys_.ws) + project_complement_state(shift, co, sys_.ws)
    rel = 1e-10 if variable else 1e-12
    assert np.abs(state.u - expect).max() <= rel * np.abs(expect).max()
    assert sys_.constraint_residual(state) < rel
    with pytest.raises(ValueError, match="u_free"):
        make_initial(sys_, v0, u_free=seed[:, None])


def reference_lawson_step(system, state, h):
    """The Lawson(RK4) step in physical form: each of its six propagator
    applications transforms a whole 6-component state there and back."""
    prop = system.propagator
    half = 0.5 * h / system.eta

    def nonlinear(u, v):
        f = system.matter_tendency(u, v)
        return system.matter_to_field(f), f

    u, v = state.u, state.v
    a = prop.apply(u, half)
    c1u, c1v = nonlinear(u, v)
    e_c1u = prop.apply(c1u, half)
    c2u, c2v = nonlinear(a + 0.5 * h * e_c1u, v + 0.5 * h * c1v)
    c3u, c3v = nonlinear(a + 0.5 * h * c2u, v + 0.5 * h * c2v)
    e_a = prop.apply(a, half)
    e_c3u = prop.apply(c3u, half)
    c4u, c4v = nonlinear(e_a + h * e_c3u, v + h * c3v)
    un = e_a + (h / 6.0) * (
        prop.apply(e_c1u, half) + 2.0 * prop.apply(c2u, half) + 2.0 * e_c3u + c4u
    )
    vn = v + (h / 6.0) * (c1v + 2.0 * c2v + 2.0 * c3v + c4v)
    return SimState(state.t + h, un, vn)


def _bloch_system(grid, eta):
    d = np.zeros((3, 3, 3), dtype=complex)
    d[0, 0, 1] = d[0, 1, 0] = 1.0
    d[1, 1, 2] = 0.5j
    d[1, 2, 1] = -0.5j
    d[2, 0, 2] = d[2, 2, 0] = 0.25
    co = Coefficients.constant(grid, 0.8, 1.3)
    w = 2 * grid.spacing
    dom = box_mask(grid, (0.5, 0.5, 0.5), (w, w, w))
    return SimSystem(grid, co, dom, BlochModel(levels=(0.0, 1.0, 2.5), dipole=d, relax=0.1), eta=eta)


@pytest.mark.parametrize("kind", ["landau_lifschitz", "bloch"])
def test_spectral_lawson_step_matches_physical_reference(kind, ll_system, grid16, rng):
    # the spectral-stage step is the same map as the physical-form step; the
    # Bloch system couples through slot 2 and runs at eta = 0.5
    if kind == "bloch":
        sys_ = _bloch_system(grid16, eta=0.5)
        rho = np.zeros((3, 3, sys_.domain.count), dtype=complex)
        rho[0, 0] = rho[2, 2] = rho[0, 2] = rho[2, 0] = 0.5
        v0 = pack_rho(rho)
    else:
        sys_ = ll_system
        v0 = tilted_magnetization(sys_.domain)
    state0 = make_initial(sys_, v0, u_free=rng.standard_normal((6,) + grid16.shape))
    cfg = IntegratorConfig(dt=5e-3, t_end=5e-3, scheme="lawson_exp")
    # not vacuous: the matter step depends on the field it samples
    unlit = SimState(0.0, np.zeros_like(state0.u), v0)
    assert np.abs(step(sys_, unlit, cfg).v - step(sys_, state0, cfg).v).max() > 1e-6
    state = ref = state0
    for _ in range(3):
        state = step(sys_, state, cfg)
        ref = reference_lawson_step(sys_, ref, cfg.dt)
    assert np.abs(state.u - ref.u).max() <= 1e-12 * np.abs(ref.u).max()
    assert np.abs(state.v - ref.v).max() <= 1e-12 * np.abs(ref.v).max()


def _textbook_lawson_step(sys_, state, h):
    """The Lawson(RK4) step written out in the frame of the half step:
    classical RK4 on y = P u, P = exp(-(h/2) B / eta), with the zero-padded
    6-stack tendencies K_1 = P c_1, K_2 = c_2, K_3 = c_3 and K_4 = c_4, c_k
    the spectrum of stage k's source. Stage 1 samples the state as held."""
    prop, ws, slot = sys_.propagator, sys_.ws, sys_.slot
    phases = prop.phases(0.5 * h / sys_.eta)
    u_hat, v = state.spectrum(ws), state.v

    def P(field_hat):
        return prop.apply_hat(field_hat, phases)

    def rhs(sample, w):
        f = sys_.coupled_tendency(sample, w)
        c = np.zeros_like(u_hat)
        c[slot] = sys_.source_hat(f)
        return c, f

    y = P(u_hat)
    c1, f1 = rhs(sys_.coupled_field(state), v)
    K1 = P(c1)
    K2, f2 = rhs(sys_.sample_hat((y + 0.5 * h * K1)[slot]), v + 0.5 * h * f1)
    K3, f3 = rhs(sys_.sample_hat((y + 0.5 * h * K2)[slot]), v + 0.5 * h * f2)
    K4, f4 = rhs(sys_.sample_hat(P(y + h * K3)[slot]), v + h * f3)
    un = P(y + h / 6 * (K1 + 2 * K2 + 2 * K3)) + h / 6 * K4
    vn = v + h / 6 * (f1 + 2 * f2 + 2 * f3 + f4)
    return SimState.spectral(state.t + h, un, vn, ws)


@pytest.mark.parametrize("start", ["physical", "spectral"])
@pytest.mark.parametrize("eta", [1.0, 0.5])
@pytest.mark.parametrize("kind", ["landau_lifschitz", "bloch"])
def test_lawson_step_is_bitwise_the_textbook_half_step_frame_step(
    kind, eta, start, ll_system, grid16, rng
):
    # every stage argument and both sums are RK4's own in the frame of the
    # half step, so the step is the textbook expression to the bit; the
    # Bloch system couples through slot 2
    if kind == "bloch":
        sys_ = _bloch_system(grid16, eta=eta)
        rho = np.zeros((3, 3, sys_.domain.count), dtype=complex)
        rho[0, 0] = rho[2, 2] = rho[0, 2] = rho[2, 0] = 0.5
        v0 = pack_rho(rho)
    else:
        sys_ = SimSystem(grid16, Coefficients.constant(grid16, 1.2, 0.7), ll_system.domain,
                         ll_system.model, eta=eta)
        v0 = tilted_magnetization(sys_.domain)
    state = make_initial(sys_, v0, u_free=rng.standard_normal((6,) + grid16.shape))
    if start == "spectral":
        state = SimState.spectral(0.0, sys_.ws.forward(state.u), state.v, sys_.ws)
    cfg = IntegratorConfig(dt=5e-3, t_end=5e-3, scheme="lawson_exp")
    ref = state
    for _ in range(3):
        state = step(sys_, state, cfg)
        ref = _textbook_lawson_step(sys_, ref, cfg.dt)
    np.testing.assert_array_equal(state.u_hat, ref.u_hat)
    np.testing.assert_array_equal(state.v, ref.v)
    # not vacuous: the matter moved
    assert np.abs(state.v - v0).max() > 1e-6


def test_lawson_step_peak_memory_is_four_half_spectra(ll_system):
    # a 64^3 run's peak memory is the step's: it builds stage 4's argument
    # in y = P u and releases K_1's stack before the last application; a
    # copy of a stack, or K_1 kept across that application, exceeds the
    # bound. One 6-component half-spectrum is the unit.
    g = Grid3(32, 1.0)
    w = 2 * g.spacing
    sys_ = SimSystem(g, Coefficients.constant(g, 1.0, 1.0),
                     box_mask(g, (0.5, 0.5, 0.5), (w, w, w)), ll_system.model)
    state = make_initial(sys_, tilted_magnetization(sys_.domain))
    state = SimState.spectral(0.0, sys_.ws.forward(state.u), state.v, sys_.ws)
    cfg = IntegratorConfig(dt=1e-3, t_end=1e-3, scheme="lawson_exp")
    state = step(sys_, state, cfg)
    unit = 6 * np.prod(sys_.ws.spectral_shape) * 16
    tracemalloc.start()
    try:
        step(sys_, state, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.25 * unit


def test_lawson_step_makes_27_scalar_transforms(ll_system, ll_state, monkeypatch):
    transforms = count_transforms(monkeypatch)
    step(ll_system, ll_state, IntegratorConfig(dt=1e-3, t_end=1e-3, scheme="lawson_exp"))
    assert len(transforms) == 8
    assert sum(transforms) == 27


@pytest.mark.parametrize("kind", ["landau_lifschitz", "bloch"])
def test_spectral_rk4_step_matches_physical_reference(kind, ll_system, grid16, rng):
    # on constant coefficients the RK4 stages run on spectra; over five steps
    # that is the same map as classical RK4 on the physical tendencies
    if kind == "bloch":
        sys_ = _bloch_system(grid16, eta=0.5)
        rho = np.zeros((3, 3, sys_.domain.count), dtype=complex)
        rho[0, 0] = rho[1, 1] = rho[0, 1] = rho[1, 0] = 0.5
        v0 = pack_rho(rho)
    else:
        sys_ = ll_system
        v0 = tilted_magnetization(sys_.domain)
    state0 = make_initial(sys_, v0, u_free=rng.standard_normal((6,) + grid16.shape))
    cfg = IntegratorConfig(dt=2e-3, t_end=2e-3, scheme="rk4")
    state, (u, v) = state0, (state0.u, state0.v)
    for _ in range(5):
        state = step(sys_, state, cfg)
        u, v = _textbook_rk4(sys_.tendencies, (u, v), cfg.dt)
    assert state.u_hat is not None
    assert np.abs(state.u - u).max() <= 1e-12 * np.abs(u).max()
    assert np.abs(state.v - v).max() <= 1e-12 * np.abs(v).max()
    # not vacuous: the matter moved, and it reads the field
    assert np.abs(v - v0).max() > 1e-6
    unlit = SimState(0.0, np.zeros_like(u), v0)
    assert np.abs(step(sys_, unlit, cfg).v - step(sys_, state0, cfg).v).max() > 1e-9


def _textbook_rk4(rhs, y, dt):
    """The textbook expression of one classical RK4 step of y' = rhs(*y)."""
    k1 = rhs(*y)
    k2 = rhs(*(a + 0.5 * dt * k for a, k in zip(y, k1)))
    k3 = rhs(*(a + 0.5 * dt * k for a, k in zip(y, k2)))
    k4 = rhs(*(a + dt * k for a, k in zip(y, k3)))
    return tuple(
        a + (dt / 6.0) * (p + 2.0 * q + 2.0 * r + s)
        for a, p, q, r, s in zip(y, k1, k2, k3, k4)
    )


def _textbook_rk4_step(sys_, u, v, dt, kappa1, kappa2):
    """Classical RK4 of the whole system with B written out: two curl
    calls divided by the weights, then -1/eta, and the textbook sum."""

    def rhs(u, v):
        f = sys_.matter_tendency(u, v)
        du = np.empty_like(u)
        du[0:3] = curl(u[3:6], sys_.ws) / kappa1
        du[3:6] = -curl(u[0:3], sys_.ws) / kappa2
        du *= -1.0 / sys_.eta
        du[sys_.slot][:, sys_.domain.mask] += sys_.model.source_from_matter(f, sys_.kappa_d)
        return du, f

    return _textbook_rk4(rhs, (u, v), dt)


def _textbook_spectral_rk4_step(sys_, u_hat, v, dt, kappa1, kappa2):
    """Classical RK4 of the whole system on spectra with B written out: a
    curl multiplier per slot scaled by that slot's 1/kappa, then -1/eta,
    the source's spectrum in the coupled slot, and the textbook sum."""
    ws = sys_.ws

    def rhs(u_hat, v):
        f = sys_.coupled_tendency(sys_.sample_hat(u_hat[sys_.slot]), v)
        du = np.empty_like(u_hat)
        du[0:3] = ws.curl_hat(u_hat[3:6], 1.0 / kappa1)
        du[3:6] = ws.curl_hat(u_hat[0:3], -1.0 / kappa2)
        du *= -1.0 / sys_.eta
        du[sys_.slot] += sys_.source_hat(f)
        return du, f

    return _textbook_rk4(rhs, (u_hat, v), dt)


@pytest.mark.parametrize("eta", [1.0, 0.5, 0.3, 0.7])
def test_variable_rk4_step_is_bitwise_the_textbook_step(eta, ll_system, grid16, rng):
    # the step's buffers change where results go, not the arithmetic; 0.3
    # makes 1/eta inexact, and at 0.7 a step that divides by eta instead of
    # multiplying by 1/eta differs in the last bit
    co = smooth_coefficients(grid16)
    sys_ = SimSystem(grid16, co, ll_system.domain, ll_system.model, eta=eta)
    state = make_initial(
        sys_, tilted_magnetization(sys_.domain), u_free=rng.standard_normal((6,) + grid16.shape)
    )
    cfg = IntegratorConfig(dt=2e-3, t_end=2e-3, scheme="rk4")
    ref = swapped = (state.u, state.v)
    for _ in range(3):
        state = step(sys_, state, cfg)
        ref = _textbook_rk4_step(sys_, *ref, cfg.dt, co.kappa1, co.kappa2)
        swapped = _textbook_rk4_step(sys_, *swapped, cfg.dt, co.kappa2, co.kappa1)
    assert state.u_hat is None
    np.testing.assert_array_equal(state.u, ref[0])
    np.testing.assert_array_equal(state.v, ref[1])
    # not vacuous: the reference tells the two weights apart
    assert not np.array_equal(state.u, swapped[0])


@pytest.mark.parametrize("eta", [1.0, 0.5, 0.3])
@pytest.mark.parametrize("kind", ["landau_lifschitz", "bloch"])
def test_constant_rk4_step_is_bitwise_the_textbook_spectral_step(kind, eta, ll_system, grid16, rng):
    # the per-slot multipliers fold -1 into the curl scale and multiply by
    # 1/eta only when eta is not 1; negation is exact, so the step is the
    # textbook one to the bit. The Bloch system couples through slot 2.
    if kind == "bloch":
        sys_ = _bloch_system(grid16, eta=eta)
        rho = np.zeros((3, 3, sys_.domain.count), dtype=complex)
        rho[0, 0] = rho[1, 1] = rho[0, 1] = rho[1, 0] = 0.5
        v0 = pack_rho(rho)
    else:
        co = Coefficients.constant(grid16, 0.7, 1.9)
        sys_ = SimSystem(grid16, co, ll_system.domain, ll_system.model, eta=eta)
        v0 = tilted_magnetization(sys_.domain)
    k1, k2 = sys_.coeffs.constant_values()
    state = make_initial(sys_, v0, u_free=rng.standard_normal((6,) + grid16.shape))
    state = SimState.spectral(0.0, sys_.ws.forward(state.u), state.v, sys_.ws)
    cfg = IntegratorConfig(dt=2e-3, t_end=2e-3, scheme="rk4")
    ref = swapped = (state.u_hat, state.v)
    for _ in range(3):
        state = step(sys_, state, cfg)
        ref = _textbook_spectral_rk4_step(sys_, *ref, cfg.dt, k1, k2)
        swapped = _textbook_spectral_rk4_step(sys_, *swapped, cfg.dt, k2, k1)
    assert state.u_hat is not None
    np.testing.assert_array_equal(state.u_hat, ref[0])
    np.testing.assert_array_equal(state.v, ref[1])
    # not vacuous: the reference tells the two weights apart, and the matter moved
    assert not np.array_equal(state.u_hat, swapped[0])
    assert np.abs(state.v - v0).max() > 1e-6


def test_variable_rk4_step_makes_16_whole_grid_3_vector_transforms(
    ll_system, grid16, monkeypatch
):
    # per stage and slot, one forward and one inverse of a 3-vector; one
    # 6-component pair in place of two 3-component pairs was measured slower
    # at 32^3 (4.0-4.2 ms against 2.5-2.7 ms)
    sys_ = SimSystem(grid16, smooth_coefficients(grid16), ll_system.domain, ll_system.model)
    state = make_initial(sys_, tilted_magnetization(sys_.domain))
    transforms = count_transforms(monkeypatch)
    box = count_transforms(monkeypatch, names=("forward_box", "inverse_box"))
    step(sys_, state, IntegratorConfig(dt=1e-3, t_end=1e-3, scheme="rk4"))
    assert transforms == [3] * 16
    assert box == []


def _held(state):
    return (state.u if state.u_hat is None else state.u_hat, state.v)


@pytest.mark.parametrize("form", ["variable", "constant-physical", "constant-spectral"])
def test_steps_leave_the_states_they_read_and_return_unchanged(form, ll_system, grid16, rng):
    # monitors and snapshots hold the arrays of a step's input and output
    # states, while the steps reuse work buffers of their own
    co = smooth_coefficients(grid16) if form == "variable" else ll_system.coeffs
    sys_ = SimSystem(grid16, co, ll_system.domain, ll_system.model)
    state0 = make_initial(
        sys_, tilted_magnetization(sys_.domain), u_free=rng.standard_normal((6,) + grid16.shape)
    )
    if form == "constant-spectral":
        state0 = SimState.spectral(0.0, sys_.ws.forward(state0.u), state0.v, sys_.ws)
    for scheme in ("rk4",) if form == "variable" else ("rk4", "lawson_exp"):
        cfg = IntegratorConfig(dt=1e-3, t_end=1e-3, scheme=scheme)
        states = [state0]
        copies = [[a.copy() for a in _held(state0)]]
        for _ in range(3):
            states.append(step(sys_, states[-1], cfg))
            copies.append([a.copy() for a in _held(states[-1])])
        for state, before in zip(states, copies):
            for a, b in zip(_held(state), before):
                np.testing.assert_array_equal(a, b)
        assert not np.array_equal(states[-1].v, state0.v)


@pytest.mark.parametrize("weights", ["variable", "constant"])
def test_threads_step_one_system(weights, ll_system, grid16, rng):
    # the work buffers of the RK4 step, physical or spectral, are per
    # thread, so threads may step one system (or its with_eta copies) at once
    import sys
    import threading

    co = smooth_coefficients(grid16) if weights == "variable" else ll_system.coeffs
    sys_ = SimSystem(grid16, co, ll_system.domain, ll_system.model)
    starts = [
        make_initial(sys_, tilted_magnetization(sys_.domain, tilt=t),
                     u_free=rng.standard_normal((6,) + grid16.shape))
        for t in (0.3, 0.5, 0.7, 0.9)
    ]
    cfg = IntegratorConfig(dt=1e-3, t_end=1e-3, scheme="rk4")

    def advance(state):
        for _ in range(3):
            state = step(sys_, state, cfg)
        return state

    expect = [advance(s) for s in starts]
    got = [None] * len(starts)

    def worker(i):
        got[i] = advance(starts[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(i,)) for i in range(len(starts))]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert all((e.u_hat is None) == (weights == "variable") for e in expect)
    for g, e in zip(got, expect):
        for a, b in zip(_held(g), _held(e)):
            np.testing.assert_array_equal(a, b)


def record_slot_threads(monkeypatch) -> list:
    """Record (output slot start, thread name) of every slot tendency."""
    calls = []
    original = SimSystem.slot_tendency

    def recording(self, u, dst, *args):
        calls.append((dst.start, threading.current_thread().name))
        return original(self, u, dst, *args)

    monkeypatch.setattr(SimSystem, "slot_tendency", recording)
    return calls


def helper_ran(calls) -> bool:
    return any(name.startswith("maxmat-helper") for _, name in calls)


@pytest.mark.parametrize("eta", [1.0, 0.5])
def test_variable_rk4_step_is_bitwise_the_same_with_and_without_the_helper(
    eta, ll_system, grid16, rng, monkeypatch
):
    sys_ = SimSystem(grid16, smooth_coefficients(grid16), ll_system.domain, ll_system.model,
                     eta=eta)
    state0 = make_initial(sys_, tilted_magnetization(sys_.domain),
                          u_free=rng.standard_normal((6,) + grid16.shape))
    cfg = IntegratorConfig(dt=1e-3, t_end=1e-3, scheme="rk4")
    calls = record_slot_threads(monkeypatch)

    def advance():
        state = state0
        for _ in range(3):
            state = step(sys_, state, cfg)
        return state

    split = advance()
    assert helper_ran(calls) == (cores._usable_cores() > 1)
    calls.clear()
    with helper_held():
        inline = advance()
    assert not helper_ran(calls) and len(calls) == 3 * 4 * 2
    assert split.u.tobytes() == inline.u.tobytes()
    assert split.v.tobytes() == inline.v.tobytes()


def test_helper_side_overflow_raises_in_the_caller(ll_system, grid16, rng, monkeypatch):
    # slot 2 of B u reads slot 1; a huge slot 1 off the matter domain makes
    # the curl multiplier of slot 2's task overflow, and nothing else
    sys_ = SimSystem(grid16, smooth_coefficients(grid16), ll_system.domain, ll_system.model)
    v = tilted_magnetization(sys_.domain)
    huge = np.zeros((6,) + grid16.shape)
    huge[0:3] = 1e305 * rng.standard_normal((3,) + grid16.shape)
    huge[0:3][:, sys_.domain.mask] = 0.0
    cfg = IntegratorConfig(dt=1e-3, t_end=1e-3, scheme="rk4")
    calls = record_slot_threads(monkeypatch)
    for hold in (contextlib.nullcontext, helper_held):
        calls.clear()
        with hold(), np.errstate(over="raise"):
            with pytest.raises(FloatingPointError) as raised:
                step(sys_, SimState(0.0, huge, v), cfg)
        assert helper_ran(calls) == (hold is contextlib.nullcontext
                                     and cores._usable_cores() > 1)
        tb, raising = raised.tb, []
        while tb is not None:
            if tb.tb_frame.f_code.co_name == "slot_stage":
                raising.append(tb.tb_frame.f_locals["dst"])
            tb = tb.tb_next
        assert raising == [slice(3, 6)]
    assert not cores._helper_lock.locked()
    # the helper was given back: the next step splits again, bit for bit
    normal = make_initial(sys_, v, u_free=rng.standard_normal((6,) + grid16.shape))
    calls.clear()
    with np.errstate(over="raise"):
        split = step(sys_, normal, cfg)
    assert helper_ran(calls) == (cores._usable_cores() > 1)
    with helper_held():
        inline = step(sys_, normal, cfg)
    assert split.u.tobytes() == inline.u.tobytes()
    assert split.v.tobytes() == inline.v.tobytes()


def record_propagator_threads(monkeypatch) -> list:
    """Record the thread name of every propagator output slot computed."""
    calls = []
    original = FreePropagator._slot_hat

    def recording(self, *args):
        calls.append(threading.current_thread().name)
        return original(self, *args)

    monkeypatch.setattr(FreePropagator, "_slot_hat", recording)
    return calls


@pytest.mark.parametrize("eta", [1.0, 0.5])
@pytest.mark.parametrize("kind", ["landau_lifschitz", "bloch"])
def test_lawson_step_is_bitwise_the_same_on_two_cores_and_one(
    kind, eta, ll_system, grid16, rng, monkeypatch
):
    # with the size threshold at 16^3 the propagator splits its output slots
    # over the helper and the transforms take a second worker; held, the
    # helper runs nothing and every transform has one worker
    monkeypatch.setattr(cores, "SPLIT_POINTS", grid16.n**3)
    if kind == "bloch":
        sys_ = _bloch_system(grid16, eta=eta)
        rho = np.zeros((3, 3, sys_.domain.count), dtype=complex)
        rho[0, 0] = rho[2, 2] = rho[0, 2] = rho[2, 0] = 0.5
        v0 = pack_rho(rho)
    else:
        sys_ = SimSystem(grid16, Coefficients.constant(grid16, 1.2, 0.7), ll_system.domain,
                         ll_system.model, eta=eta)
        v0 = tilted_magnetization(sys_.domain)
    state0 = make_initial(sys_, v0, u_free=rng.standard_normal((6,) + grid16.shape))
    cfg = IntegratorConfig(dt=5e-3, t_end=5e-3, scheme="lawson_exp")
    slots = record_propagator_threads(monkeypatch)
    workers = record_fft_workers(monkeypatch)

    def advance():
        state = state0
        for _ in range(3):
            state = step(sys_, state, cfg)
        return state

    two_cores = cores._usable_cores() > 1
    split = advance()
    assert any(name.startswith("maxmat-helper") for name in slots) == two_cores
    assert (2 in workers) == two_cores
    slots.clear()
    workers.clear()
    with helper_held():
        inline = advance()
    assert not any(name.startswith("maxmat-helper") for name in slots)
    assert len(slots) == 3 * (2 + 2 + 2 + 1) and set(workers) == {1}
    assert split.u_hat.tobytes() == inline.u_hat.tobytes()
    assert split.v.tobytes() == inline.v.tobytes()


STEP_SCRIPT = """
import os, threading
{prelude}
from maxmat import Coefficients, LandauLifschitzModel, SimState, SimSystem, Grid3, box_mask
from maxmat import IntegratorConfig, cores, step
import numpy as np
g = Grid3(8, 1.0)
xx, yy, zz = g.meshgrid()
co = Coefficients(1.5 + np.sin(2 * np.pi * xx), 1.5 + np.cos(2 * np.pi * yy))
dom = box_mask(g, (0.5, 0.5, 0.5), (0.25, 0.25, 0.25))
model = LandauLifschitzModel(gyro=6.0, damping=0.5, aniso=1.0, axis=(0, 0, 1), h_ext=(0, 0, 2.0))
sys_ = SimSystem(g, co, dom, model)
v = np.tile([[0.6], [0.0], [0.8]], (1, dom.count))
state = step(sys_, SimState(0.0, np.ones((6,) + g.shape), v), IntegratorConfig(1e-3, 1e-3))
assert np.isfinite(state.u).all()
print(threading.active_count(), cores._helper is not None)
"""


def run_step_script(prelude: str = "", postlude: str = "") -> list:
    """Run STEP_SCRIPT in a fresh interpreter; returns its printed words."""
    src = str(Path(evolution.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    script = STEP_SCRIPT.format(prelude=prelude) + postlude
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_helper_does_not_hold_up_interpreter_exit():
    threads, started = run_step_script()
    assert started == str(cores._usable_cores() > 1)
    assert threads == ("2" if started == "True" else "1")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_forked_child_steps_with_a_helper_of_its_own():
    # the parent's helper thread does not exist in a child; a child that
    # handed it a task would wait for it forever (the alarm ends that)
    # nor do pocketfft's worker threads, which persist after the parent's
    # first two-worker transform (forced here on one usable core too)
    postlude = (
        "from maxmat import FourierWorkspace\n"
        "cores._usable_cores = lambda: 2\n"
        "ws = FourierWorkspace(Grid3(64, 1.0))\n"
        "f = np.random.default_rng(0).standard_normal((3, 64, 64, 64))\n"
        "with cores.fft_workers(ws.points) as w:\n"
        "    assert w == 2\n"
        "parent = ws.forward(f).tobytes()\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    import signal\n"
        "    signal.alarm(20)\n"
        "    state = step(sys_, state, IntegratorConfig(1e-3, 1e-3))\n"
        "    same = ws.forward(f).tobytes() == parent\n"
        "    os._exit(0 if np.isfinite(state.u).all() and same else 1)\n"
        "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
    )
    assert run_step_script(postlude=postlude)[-1] == "0"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_one_usable_core_starts_no_helper():
    assert run_step_script("os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})") == [
        "1", "False"]


@pytest.mark.parametrize("scheme", ["rk4", "lawson_exp"])
def test_step_from_spectral_state_makes_24_scalar_transforms(
    scheme, ll_system, ll_state, monkeypatch
):
    ws = ll_system.ws
    cfg = IntegratorConfig(dt=1e-3, t_end=1e-3, scheme=scheme)
    spectral = SimState.spectral(0.0, ws.forward(ll_state.u), ll_state.v, ws)
    transforms = count_transforms(monkeypatch)
    whole_grid = count_transforms(monkeypatch, names=("forward", "inverse"))
    out = step(ll_system, spectral, cfg)
    assert (len(transforms), sum(transforms)) == (8, 24)
    # every stage transform runs over the domain's bounding box only
    assert whole_grid == []
    assert out.u_hat is not None
    # a physical input adds its 6-component forward transform, and stage 1
    # samples it without the 3-component inverse
    transforms.clear()
    step(ll_system, ll_state, cfg)
    assert (len(transforms), sum(transforms)) == (8, 27)
    assert transforms[0] == 6


@pytest.mark.parametrize("kind", ["landau_lifschitz", "bloch"])
def test_box_sample_and_source_match_whole_grid_transforms(kind, ll_system, grid16, rng):
    # the Bloch system couples through slot 2 on a ball, with a weight that
    # divides its source
    if kind == "bloch":
        sys_ = _bloch_system(grid16, eta=1.0)
        sys_ = SimSystem(grid16, sys_.coeffs, ball_mask(grid16, (0.45, 0.5, 0.55), 0.2),
                         sys_.model)
    else:
        sys_ = ll_system
    ws, dom = sys_.ws, sys_.domain
    field_hat = ws.forward(rng.standard_normal((3,) + grid16.shape))
    whole = ws.inverse(field_hat)
    got = sys_.sample_hat(field_hat)
    assert got.shape == (3, dom.count)
    assert np.abs(got - restrict_to_domain(whole, dom)).max() <= 1e-15 * np.abs(whole).max()
    w = rng.standard_normal((sys_.model.dim, dom.count))
    np.testing.assert_array_equal(sys_.source_hat(w), ws.forward(sys_.source_field(w)))
    on_box = sys_.source_field(w)[(slice(None),) + dom.box]
    np.testing.assert_array_equal(sys_.source_block(w), on_box)


def test_lawson_step_makes_four_propagator_applications(ll_system, ll_state, monkeypatch):
    # two of a whole stack, one of the stage-1 source (slot in), and stage
    # 4's sample of the coupled slot (slot out)
    calls = []
    original = FreePropagator.apply_hat

    def counting(prop, state_hat, phases, slot=None, out_slot=None):
        calls.append((state_hat.shape[0], slot is not None, out_slot is not None))
        return original(prop, state_hat, phases, slot=slot, out_slot=out_slot)

    monkeypatch.setattr(FreePropagator, "apply_hat", counting)
    ws = ll_system.ws
    cfg = IntegratorConfig(dt=1e-3, t_end=1e-3, scheme="lawson_exp")
    spectral = SimState.spectral(0.0, ws.forward(ll_state.u), ll_state.v, ws)
    for state in (ll_state, spectral):
        calls.clear()
        step(ll_system, state, cfg)
        assert sorted(calls) == [(3, True, False), (6, False, False), (6, False, False),
                                 (6, False, True)]


def test_lawson_run_computes_half_step_phases_once(ll_system, ll_state, monkeypatch):
    # dt/(2 eta) is the same at every step: the propagator keeps the last
    # factors, and a new t replaces them
    returned = []
    original = FreePropagator.phases

    def recording(prop, t):
        out = original(prop, t)
        returned.append((t, out))
        return out

    monkeypatch.setattr(FreePropagator, "phases", recording)
    cfg = IntegratorConfig(dt=1e-3, t_end=4e-3, scheme="lawson_exp")
    run(ll_system, ll_state, cfg)
    assert len(returned) == 4
    half, first = returned[0]
    assert half == 0.5e-3 and all(t == half and out is first for t, out in returned)
    prop = ll_system.propagator
    other = prop.phases(0.37)
    assert other is not first
    np.testing.assert_array_equal(other[0], np.cos(prop.omega * 0.37))
    again = prop.phases(half)
    assert again is not first and again is prop.phases(half)
    for a, b in zip(again, first):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError):
        again[2][0, 0, 1] = 0.0


def _held_forms(state):
    return [name for name in ("_u", "u_hat") if getattr(state, name) is not None]


@pytest.mark.parametrize("scheme", ["rk4", "lawson_exp"])
def test_state_holds_one_form(scheme, ll_system, ll_state):
    cfg = IntegratorConfig(dt=1e-3, t_end=3e-3, scheme=scheme)
    assert _held_forms(ll_state) == ["_u"]
    seen = []
    final, _, _ = run(ll_system, ll_state, cfg, monitors={
        "forms": lambda s, st: seen.append(_held_forms(st)) or 0.0})
    # monitors see the form held: the physical start, then the steps' spectra
    assert seen == [["_u"], ["u_hat"], ["u_hat"], ["u_hat"]]
    assert _held_forms(final) == ["u_hat"]
    # reading u neither caches nor converts
    u = final.u
    assert _held_forms(final) == ["u_hat"]
    np.testing.assert_array_equal(final.u, u)
    for state in (ll_state, final):
        dup = state.copy()
        assert _held_forms(dup) == _held_forms(state)
        assert dup.t == state.t and np.array_equal(dup.u, state.u)
        held = getattr(dup, _held_forms(dup)[0])
        held[...] = 0.0
        dup.v[...] = 0.0
        assert np.abs(state.u).max() > 0.0 and np.abs(state.v).max() > 0.0


def test_threads_share_a_spectral_state(ll_system, ll_state):
    # the eta sweep hands one state to every worker; reading u must not write to it
    import sys
    import threading

    ws = ll_system.ws
    shared = SimState.spectral(0.0, ws.forward(ll_state.u), ll_state.v, ws)
    expect = shared.u
    bad = []

    def reader():
        for _ in range(20):
            if not np.array_equal(shared.u, expect) or _held_forms(shared) != ["u_hat"]:
                bad.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=reader) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert bad == []


def test_run_makes_physical_views_only_where_read(ll_system, ll_state, monkeypatch):
    # four Lawson steps sampled every second step: 27 + 3 * 24 transforms in
    # the steps, and one 6-component inverse for each of samples 2 and 4
    cfg = IntegratorConfig(dt=1e-3, t_end=4e-3, scheme="lawson_exp")
    transforms = count_transforms(monkeypatch)
    run(ll_system, ll_state, cfg, monitors={"em": lambda s, st: float(st.u[0, 0, 0, 0])},
        stride=2)
    assert sum(transforms) == 27 + 3 * 24 + 2 * 6
    transforms.clear()
    run(ll_system, ll_state, cfg)
    assert sum(transforms) == 27 + 3 * 24


@pytest.mark.parametrize("scheme", ["rk4", "lawson_exp"])
def test_nan_in_spectral_state_aborts_at_same_step(scheme, grid16):
    co = Coefficients.constant(grid16, 1.0, 1.0)
    w = 2 * grid16.spacing
    dom = box_mask(grid16, (0.5, 0.5, 0.5), (w, w, w))
    sys_ = SimSystem(grid16, co, dom, Quadratic())
    ws = sys_.ws
    cfg = IntegratorConfig(dt=5e-3, t_end=1.0, scheme=scheme)

    def abort_message(state):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalAbort) as err:
            run(sys_, state, cfg)
        return str(err.value)

    # a NaN in one voxel of the field, or in one mode of its spectrum
    u = np.zeros((6,) + grid16.shape)
    u[4, 1, 2, 3] = np.nan
    u_hat = ws.forward(np.zeros_like(u))
    u_hat[4, 1, 2, 3] = np.nan
    v0 = np.full((1, dom.count), 1.0)
    physical = abort_message(SimState(0.0, u, v0))
    assert physical.endswith("(step 1)")
    assert abort_message(SimState.spectral(0.0, u_hat, v0, ws)) == physical
    # matter that blows up near t = 0.02 (v' = v^2 from 50), from either form
    v0 = np.full((1, dom.count), 50.0)
    u = np.zeros((6,) + grid16.shape)
    physical = abort_message(SimState(0.0, u, v0))
    assert not physical.endswith("(step 1)")
    assert abort_message(SimState.spectral(0.0, ws.forward(u), v0, ws)) == physical


def test_variable_projection_transform_counts(monkeypatch):
    # ll_smooth: make_initial is one 11-iteration solve (6k + 6 = 72 scalar
    # transforms in 2k + 2 = 24 calls). The first constraint sample is one
    # forward transform of the weighted 6-component difference and the same
    # solve without the gradient's inverse (6 + 6k in 1 + 2k calls); the
    # still-zero second slot costs no transform.
    scn = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "ll_smooth.yaml")
    sys_ = scn.build_system()
    transforms = count_transforms(monkeypatch)
    state = scn.initial_state(sys_)
    assert (len(transforms), sum(transforms)) == (24, 72)
    transforms.clear()
    assert sys_.constraint_residual(state) < 1e-12
    assert (len(transforms), sum(transforms)) == (23, 72)


def test_propagator_built_once_per_system(ll_system, ll_state, monkeypatch):
    import maxmat.evolution as evolution

    built = []

    class Counting(evolution.FreePropagator):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(evolution, "FreePropagator", Counting)
    cfg = IntegratorConfig(dt=1e-3, t_end=2e-3, scheme="lawson_exp")
    run(ll_system, ll_state, cfg)
    run(ll_system, ll_state, cfg)
    step(ll_system, ll_state, cfg)
    assert len(built) == 1


def test_rk4_and_lawson_agree_at_order_four(ll_system, ll_state):
    cfg_r = IntegratorConfig(dt=1e-3, t_end=0.05, scheme="rk4")
    cfg_l = IntegratorConfig(dt=1e-3, t_end=0.05, scheme="lawson_exp")
    sr, _, _ = run(ll_system, ll_state, cfg_r)
    sl, _, _ = run(ll_system, ll_state, cfg_l)
    du = weighted_norm(sr.u - sl.u, ll_system.coeffs, ll_system.grid)
    dv = matter_l2_norm(sr.v - sl.v, ll_system.grid)
    assert du + dv < 1e-8


def test_constraint_transported_over_run(ll_system, ll_state):
    cfg = IntegratorConfig(dt=2e-3, t_end=0.2, scheme="rk4")
    monitors = {"constraint": lambda s, st: s.constraint_residual(st)}
    _, records, _ = run(ll_system, ll_state, cfg, monitors=monitors, stride=20)
    res = [r["constraint"] for r in records]
    assert res[0] < 1e-12
    assert max(res) - res[0] < 1e-10


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _harmonic_basis(system) -> list:
    """Per slot the weighted-harmonic fields h_c = e_c - project_complement(e_c, kappa),
    c = 1, 2, 3, each as a (6, n, n, n) stack whose other slot is zero."""
    basis = []
    for s, kappa in ((slice(0, 3), system.coeffs.kappa1), (slice(3, 6), system.coeffs.kappa2)):
        for c in range(3):
            h = np.zeros((6,) + system.grid.shape)
            h[s][c] = 1.0
            h[s] -= project_complement(h[s], kappa, system.ws)
            basis.append(h)
    return basis


@pytest.mark.parametrize(
    "weights, scheme", [("constant", "rk4"), ("constant", "lawson_exp"), ("smooth", "rk4")]
)
def test_harmonic_content_of_u_minus_shift_is_transported(weights, scheme):
    # <h, B u>_kappa = -<B h, u>_kappa = 0, so the field moves its
    # weighted-harmonic content only through the source: <h_c, u - shift(v)>
    # is a linear invariant of the system, which any Runge-Kutta stage and
    # the exact propagator keep to roundoff, while <h_c, shift(v)> moves
    # with the matter (winding 0 leaves a net transverse moment)
    raw = yaml.safe_load((SCENARIOS / "ll_etastudy.yaml").read_text())
    raw["grid"]["n"] = 16
    raw["initial"]["winding"] = 0
    raw["eta"] = 0.1
    del raw["quasistatic"]  # the sweep's settings; it rejects variable weights
    if weights == "smooth":
        raw["coefficients"] = yaml.safe_load((SCENARIOS / "ll_smooth.yaml").read_text())[
            "coefficients"
        ]
    scn = parse_scenario(raw)
    sys_ = scn.build_system()
    assert sys_.coeffs.is_constant == (weights == "constant")
    basis = _harmonic_basis(sys_)
    invariant, shift = [], []

    def record(system, state):
        shifted = system.matter_to_field(state.v)
        u = state.u
        invariant.append([weighted_inner(h, u - shifted, system.coeffs, system.grid) for h in basis])
        shift.append([weighted_inner(h, shifted, system.coeffs, system.grid) for h in basis])
        return 0.0

    cfg = IntegratorConfig(dt=2e-3, t_end=0.2, scheme=scheme)
    run(sys_, scn.initial_state(sys_), cfg, channels={"harmonic": record})
    drift = np.abs(np.array(invariant) - invariant[0]).max()
    moved = np.abs(np.array(shift) - shift[0]).max()
    assert len(invariant) == cfg.n_steps + 1
    assert moved >= 1e-3
    assert drift <= 1e-12 * moved, (drift, moved)


def test_rk4_cfl_guard(grid16):
    co = Coefficients.constant(grid16, 1.0, 1.0)
    w = 2 * grid16.spacing
    dom = box_mask(grid16, (0.5, 0.5, 0.5), (w, w, w))
    model = LandauLifschitzModel(gyro=1.0)
    stiff = SimSystem(grid16, co, dom, model, eta=0.01)
    state = make_initial(stiff, tilted_magnetization(dom))
    cfg = IntegratorConfig(dt=2e-3, t_end=0.1, scheme="rk4")
    with pytest.raises(ValueError, match="lawson"):
        run(stiff, state, cfg)
    # the same dt is fine for the exponential scheme
    cfg_l = IntegratorConfig(dt=2e-3, t_end=0.01, scheme="lawson_exp")
    run(stiff, state, cfg_l)


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=1e-3, t_end=1.0, scheme="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(dt=3e-3, t_end=1.0).n_steps and None
    with pytest.raises(ValueError):
        IntegratorConfig(dt=1e-300, t_end=1e10)  # more steps than a float counts


class Quadratic(MatterModel):
    """Blowup toy for the abort path: v' = v^2, no coupling."""

    dim = 1
    em_slot = 1
    growth_bound = 0.0

    def eval_F(self, v, em):
        return v * v

    def source_from_matter(self, w, kappa_d):
        return np.zeros((3, w.shape[-1]))


def test_run_aborts_on_blowup(grid16):
    co = Coefficients.constant(grid16, 1.0, 1.0)
    w = 2 * grid16.spacing
    dom = box_mask(grid16, (0.5, 0.5, 0.5), (w, w, w))
    sys_ = SimSystem(grid16, co, dom, Quadratic())
    v0 = np.full((1, dom.count), 50.0)  # blows up near t = 0.02
    state = SimState(0.0, np.zeros((6,) + grid16.shape), v0)
    cfg = IntegratorConfig(dt=5e-3, t_end=1.0, scheme="rk4")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalAbort):
        run(sys_, state, cfg)


def test_integrate_matter_aborts_on_blowup():
    v0 = np.full((1, 4), 50.0)  # v' = v^2 blows up at t = 0.02
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalAbort):
        integrate_matter(Quadratic(), v0, np.zeros((6, 4)), 1.0, 5e-3)


def test_run_monitor_and_channel_sampling(ll_system, ll_state):
    cfg = IntegratorConfig(dt=1e-2, t_end=0.1, scheme="rk4")
    mon = {"v_l2": lambda s, st: matter_l2_norm(st.v, s.grid)}
    chan = {"t_now": lambda s, st: st.t}
    final, records, series = run(ll_system, ll_state, cfg, monitors=mon, stride=4, channels=chan)
    assert [r["step"] for r in records] == [0, 4, 8, 10]
    assert all("v_l2" in r for r in records)
    # channels sample every step boundary including t=0
    assert series["t_now"].shape == (11,)
    np.testing.assert_allclose(series["t_now"], np.arange(11) * 1e-2, atol=1e-12)
    assert final.t == pytest.approx(0.1)


def test_run_rejects_negative_snapshot_stride(ll_system, ll_state):
    cfg = IntegratorConfig(dt=1e-2, t_end=0.02, scheme="rk4")
    never = run(ll_system, ll_state, cfg, snapshot_cb=lambda *a: pytest.fail("called"))
    assert never[0].t == pytest.approx(0.02)
    with pytest.raises(ValueError, match="stride"):
        run(ll_system, ll_state, cfg, snapshot_cb=lambda *a: None, snapshot_stride=-1)


def test_matter_paths_reject_zero_sample_stride(ll_system, ll_state):
    model = ll_system.model
    em = np.zeros((6, ll_state.v.shape[1]))
    with pytest.raises(ValueError, match="stride"):
        integrate_matter(model, ll_state.v, em, 0.01, 1e-3, sample_stride=0)
    cfg = IntegratorConfig(dt=1e-3, t_end=0.01)
    with pytest.raises(ValueError, match="stride"):
        run_reduced(ll_system, ll_state.v, cfg, sample_stride=0)


@pytest.mark.parametrize("path", ["landau_lifschitz", "bloch", "reduced"])
def test_matter_paths_are_bitwise_the_textbook_rk4(path, ll_system, grid16, rng):
    # integrate_matter and run_reduced step through _rk4_update with one
    # stage-argument buffer per path; every sample is the textbook step's
    dt, n_steps, stride = 2e-3, 50, 7
    if path == "bloch":
        sys_ = _bloch_system(grid16, eta=1.0)
        rho = np.zeros((3, 3, sys_.domain.count), dtype=complex)
        rho[0, 0] = rho[1, 1] = rho[0, 1] = rho[1, 0] = 0.5
        v0 = pack_rho(rho)
    else:
        sys_ = ll_system
        v0 = tilted_magnetization(sys_.domain)
    if path == "reduced":
        got = run_reduced(sys_, v0, IntegratorConfig(dt, n_steps * dt), sample_stride=stride)
        times, values = got.times, got.v_samples
        rhs = lambda w: (reduced_rhs(sys_, w),)
    else:
        em = rng.standard_normal((6, sys_.domain.count))
        times, values = integrate_matter(sys_.model, v0, em, n_steps * dt, dt, stride)
        rhs = lambda w: (sys_.model.eval_F(w, em),)
    ref, expect = v0, [v0]
    for i in range(1, n_steps + 1):
        (ref,) = _textbook_rk4(rhs, (ref,), dt)
        if i % stride == 0 or i == n_steps:
            expect.append(ref)
    np.testing.assert_array_equal(times, dt * np.array([0, 7, 14, 21, 28, 35, 42, 49, 50]))
    assert len(values) == len(expect)
    for got_v, want in zip(values, expect):
        np.testing.assert_array_equal(got_v, want)
    # not vacuous: the matter moved
    assert np.abs(values[-1] - v0).max() > 1e-3


# ------------------------------------------------------ closed-form oracles


def test_precession_matches_rotation():
    # undamped magnetization about a constant axis: closed-form rotation
    gyro, hz = 4.0, 1.5
    model = LandauLifschitzModel(gyro=gyro, damping=0.0, h_ext=(0.0, 0.0, hz))
    m0 = np.array([[0.6], [0.0], [0.8]])
    t_end = 2.0
    times, values = integrate_matter(model, m0, np.zeros((6, 1)), t_end, 1e-3, sample_stride=50)
    omega = gyro * hz
    # exact solution: transverse part rotates clockwise at omega, z frozen
    phase = np.angle(values[:, 0, 0] + 1j * values[:, 1, 0])
    fitted = np.polyfit(times, np.unwrap(phase), 1)[0]
    assert fitted == pytest.approx(-omega, rel=1e-7)
    np.testing.assert_allclose(values[:, 2, 0], 0.8, atol=1e-9)
    mx_exact = 0.6 * np.cos(omega * times)
    np.testing.assert_allclose(values[:, 0, 0], mx_exact, atol=1e-8)


def test_two_level_dynamics_match_matrix_exponential():
    # constant drive: rho(t) = e^{-iHt} rho0 e^{iHt}, H dense and frozen
    d = np.zeros((3, 2, 2), dtype=complex)
    d[0, 0, 1] = d[0, 1, 0] = 1.0
    model = BlochModel(levels=(0.0, 1.0), dipole=d, relax=0.0)
    e_field = np.array([0.3, 0.0, 0.0])
    em = np.concatenate([np.zeros(3), e_field]).reshape(6, 1)
    rho0 = np.zeros((2, 2, 1), dtype=complex)
    rho0[0, 0, 0] = 1.0
    h = np.diag([0.0, 1.0]) - e_field[0] * d[0]
    t_end = 3.0
    _, values = integrate_matter(model, pack_rho(rho0), em, t_end, 5e-4, sample_stride=6000)
    got = unpack_rho(values[-1].reshape(4, 1), 2)[:, :, 0]
    u = scipy.linalg.expm(-1j * h * t_end)
    expect = u @ rho0[:, :, 0] @ u.conj().T
    assert np.abs(got - expect).max() < 1e-9
    assert np.trace(got).real == pytest.approx(1.0, abs=1e-12)


def test_damped_relaxation_toward_axis():
    # with damping only (gyro = 0), M relaxes toward the applied field
    model = LandauLifschitzModel(gyro=0.0, damping=1.0, h_ext=(0.0, 0.0, 2.0))
    m0 = np.array([[0.8], [0.0], [0.6]])
    _, values = integrate_matter(model, m0, np.zeros((6, 1)), 6.0, 1e-3, sample_stride=6000)
    m_final = values[-1][:, 0]
    assert np.linalg.norm(m_final) == pytest.approx(1.0, abs=1e-6)
    assert m_final[2] > 0.9999
