"""Scaled system, limit model, and the decay-rate sweep.

The slaved field is validated against its defining properties (curl-free,
mean-zero, weighted-divergence matching) through raw FFT checks rather
than through the projector that produced it.
"""

import numpy as np
import pytest

from maxmat import (
    Coefficients,
    EtaStudyConfig,
    IntegratorConfig,
    LandauLifschitzModel,
    SimState,
    SimSystem,
    apply_B,
    box_mask,
    eta_convergence_study,
    extend_by_zero,
    make_initial,
    matter_l2_norm,
    project_P,
    reduced_rhs,
    restrict_to_domain,
    run_reduced,
    slaved_field,
    with_eta,
)
from maxmat.grid import ball_indicator
from maxmat.quasistatic import _pu_local_norm

from .conftest import count_transforms, random_state, smooth_coefficients, tilted_magnetization


@pytest.fixture()
def qs_system(grid16):
    co = Coefficients.constant(grid16, 1.0, 1.0)
    w = 2 * grid16.spacing
    dom = box_mask(grid16, (0.5, 0.5, 0.5), (w, w, w))
    model = LandauLifschitzModel(
        gyro=10.0, damping=0.05, aniso=1.0, axis=(0, 0, 1), h_ext=(0, 0, 2.0)
    )
    return SimSystem(grid16, co, dom, model)


def test_with_eta_overrides_only_eta(qs_system):
    fast = with_eta(qs_system, 0.05)
    assert fast.eta == 0.05
    assert qs_system.eta == 1.0
    assert fast.ws is qs_system.ws
    assert fast.grid is qs_system.grid


def test_rhs_eta_identity(qs_system, rng):
    state = make_initial(qs_system, tilted_magnetization(qs_system.domain))
    du1, dv1 = with_eta(qs_system, 1.0).tendencies(state.u, state.v)
    du0, dv0 = qs_system.tendencies(state.u, state.v)
    np.testing.assert_allclose(du1, du0, atol=1e-14)
    np.testing.assert_allclose(dv1, dv0, atol=1e-14)
    # defining relation: eta du + B u = eta * (matter source term)
    eta = 0.05
    du, dv = with_eta(qs_system, eta).tendencies(state.u, state.v)
    f = qs_system.model.eval_F(state.v, restrict_to_domain(state.u, qs_system.domain))
    src = np.zeros_like(state.u)
    src[0:3] = extend_by_zero(
        qs_system.model.source_from_matter(f, qs_system.kappa_d), qs_system.domain
    )
    resid = eta * du + apply_B(state.u, qs_system.coeffs, qs_system.ws) - eta * src
    assert np.abs(resid).max() < 1e-12 * np.abs(du).max() * eta
    np.testing.assert_allclose(dv, f, atol=1e-14)


def test_slaved_field_defining_properties(qs_system):
    v = tilted_magnetization(qs_system.domain)
    g = slaved_field(qs_system, v)
    ws = qs_system.ws
    ghat = np.fft.rfftn(g, axes=(-3, -2, -1))
    curl_hat = np.stack(
        [
            1j * (ws.xi[1] * ghat[2] - ws.xi[2] * ghat[1]),
            1j * (ws.xi[2] * ghat[0] - ws.xi[0] * ghat[2]),
            1j * (ws.xi[0] * ghat[1] - ws.xi[1] * ghat[0]),
        ]
    )
    assert np.abs(curl_hat).max() < 1e-9 * np.abs(ghat).max()
    # mean-zero
    assert np.abs(g.mean(axis=(1, 2, 3))).max() < 1e-13
    # div(kappa g) matches div(kappa shift): the residual field is
    # weighted-divergence-free
    shift = qs_system.matter_to_field(v)[0:3]
    resid = qs_system.coeffs.kappa1 * (g - shift)
    rhat = np.fft.rfftn(resid, axes=(-3, -2, -1))
    div_hat = sum(1j * ws.xi[i] * rhat[i] for i in range(3))
    shat = np.fft.rfftn(qs_system.coeffs.kappa1 * shift, axes=(-3, -2, -1))
    div0 = sum(1j * ws.xi[i] * shat[i] for i in range(3))
    assert np.abs(div_hat).max() < 1e-10 * np.abs(div0).max()


def test_reduced_rhs_recomposition(qs_system):
    v = tilted_magnetization(qs_system.domain)
    g = slaved_field(qs_system, v)
    em = np.zeros((6, qs_system.domain.count))
    em[0:3] = g[:, qs_system.domain.mask]
    expect = qs_system.model.eval_F(v, em)
    np.testing.assert_allclose(reduced_rhs(qs_system, v), expect, atol=1e-14)


@pytest.mark.parametrize("variable", [False, True])
def test_reduced_rhs_is_the_slaved_field_on_the_domain(grid16, qs_system, variable, monkeypatch):
    # the box transforms give the whole-grid path's field to roundoff, on
    # constant weights (a multiplier) and on variable ones (PCG); b is the
    # same to the bit, so the solve is the same solve
    co = smooth_coefficients(grid16) if variable else Coefficients.constant(grid16, 2.5, 0.5)
    system = SimSystem(grid16, co, qs_system.domain, qs_system.model)
    v = tilted_magnetization(system.domain)
    em = np.zeros((6, system.domain.count))
    g = slaved_field(system, v)
    em[0:3] = restrict_to_domain(g, system.domain)
    expect = system.model.eval_F(v, em)
    transforms = count_transforms(monkeypatch)
    whole_grid = count_transforms(monkeypatch, names=("forward", "inverse"))
    got = reduced_rhs(system, v)
    assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()
    if not variable:
        assert (transforms, whole_grid) == ([3, 3], [])


def test_run_reduced_fourth_order(qs_system):
    v0 = tilted_magnetization(qs_system.domain)
    ref = run_reduced(qs_system, v0, IntegratorConfig(dt=2.5e-4, t_end=0.1)).v_final
    errs = []
    for dt in (4e-3, 2e-3):
        got = run_reduced(qs_system, v0, IntegratorConfig(dt=dt, t_end=0.1)).v_final
        errs.append(matter_l2_norm(got - ref, qs_system.grid))
    assert errs[0] / errs[1] > 12.0  # fourth order gives ~16


def test_run_reduced_emits_consistent_state(qs_system):
    v0 = tilted_magnetization(qs_system.domain)
    res = run_reduced(qs_system, v0, IntegratorConfig(dt=1e-3, t_end=0.05), sample_stride=10)
    assert res.times.shape == (6,)
    assert res.v_samples.shape == (6,) + v0.shape
    np.testing.assert_array_equal(res.v_samples[-1], res.v_final)
    # the emitted field is the slaved field of the final matter state, and
    # its constraint residual vanishes by construction
    np.testing.assert_allclose(
        res.state.u[0:3], slaved_field(qs_system, res.v_final), atol=1e-13
    )
    assert np.all(res.state.u[3:6] == 0.0)
    assert qs_system.constraint_residual(res.state) < 1e-11
    # the slaved field carries no divergence-free content at all
    ball = np.ones(qs_system.grid.shape, dtype=bool)
    assert _pu_local_norm(qs_system, res.state, ball) < 1e-12


def reference_pu_local_norm(system, u, ball):
    """Ball L2 norm of the transverse part of each slot, zero mode zeroed,
    written mode by mode from the raw wavevectors."""
    ws = system.ws
    uhat = np.fft.rfftn(u, axes=(1, 2, 3))
    xi = [np.broadcast_to(x, ws.spectral_shape) for x in ws.xi]
    xi_sq = xi[0] ** 2 + xi[1] ** 2 + xi[2] ** 2
    inv = np.where(xi_sq > 0, 1.0 / np.where(xi_sq > 0, xi_sq, 1.0), 0.0)
    for sl in (slice(0, 3), slice(3, 6)):
        along = sum(x * c for x, c in zip(xi, uhat[sl])) * inv
        for i in range(3):
            uhat[sl][i] -= xi[i] * along
        uhat[sl][..., 0, 0, 0] = 0.0
    pu = np.fft.irfftn(uhat, s=system.grid.shape, axes=(1, 2, 3))
    return float(np.sqrt(np.sum((pu**2).sum(axis=0)[ball]) * system.grid.cell_volume))


def test_pu_local_norm_matches_transverse_reference(grid16, qs_system, rng, monkeypatch):
    system = SimSystem(grid16, Coefficients.constant(grid16, 2.0, 0.5),
                       qs_system.domain, qs_system.model)
    u = random_state(rng, grid16) + np.arange(1.0, 7.0).reshape(6, 1, 1, 1)
    ball = ball_indicator(grid16, (0.5, 0.5, 0.5), 0.3)
    expect = reference_pu_local_norm(system, u, ball)
    # the mean is large against the rest, so a kept zero mode would show
    kept = project_P(u, system.coeffs, system.ws)
    assert np.sqrt(np.sum((kept**2).sum(axis=0)[ball]) * grid16.cell_volume) > 1.5 * expect
    transforms = count_transforms(monkeypatch)
    got = _pu_local_norm(system, SimState(0.0, u, None), ball)
    assert got == pytest.approx(expect, rel=1e-13)
    assert sum(transforms) == 12
    # from the held spectrum: the projection is a multiplier, one inverse follows
    spectral = SimState.spectral(0.0, system.ws.forward(u), None, system.ws)
    transforms.clear()
    assert _pu_local_norm(system, spectral, ball) == pytest.approx(expect, rel=1e-13)
    assert transforms == [6]


def test_eta_study_small(qs_system):
    state0 = make_initial(qs_system, tilted_magnetization(qs_system.domain))
    cfg = EtaStudyConfig(
        eta_list=(0.4, 0.2, 0.1), radius=0.3, t_obs=0.2, dt=2e-3,
        sample_dt=0.02, stiff_dt_factor=0.025,
    )
    res = eta_convergence_study(qs_system, state0, cfg)
    assert [r["eta"] for r in res.rows] == [0.4, 0.2, 0.1]
    assert all(not r["failed"] for r in res.rows)
    pu = [r["pu_norm"] for r in res.rows]
    assert pu[0] > pu[1] > pu[2] > 0
    assert res.slope is not None and res.slope > 0.4
    assert res.times.shape == (11,)
    for eta in (0.4, 0.2, 0.1):
        assert res.v_deviation_curves[eta].shape == (11,)


def test_eta_study_rk4_matches_lawson(qs_system):
    state0 = make_initial(qs_system, tilted_magnetization(qs_system.domain))
    kw = dict(eta_list=(0.4, 0.2, 0.1, 0.05), radius=0.3, t_obs=0.2, dt=2e-3,
              sample_dt=0.02, stiff_dt_factor=0.025)
    rk4 = eta_convergence_study(qs_system, state0, EtaStudyConfig(scheme="rk4", **kw))
    lawson = eta_convergence_study(qs_system, state0, EtaStudyConfig(**kw))
    assert not any(r["failed"] for r in rk4.rows + lawson.rows)
    # at eta = 0.05 the rk4 stability limit 1.5625e-3 is below dt, so the
    # sample interval 0.02 is cut into 13 sub-steps
    assert with_eta(qs_system, 0.05).cfl_limit() < kw["dt"]
    assert rk4.rows[-1]["dt"] == 0.02 / 13
    for a, b in zip(rk4.rows, lawson.rows):
        assert a["pu_norm"] == pytest.approx(b["pu_norm"], rel=5e-2)
        assert a["v_deviation"] == pytest.approx(b["v_deviation"], rel=1e-2)


# sub-steps per sample interval 10, 10, 16 and 32: the pool reorders the runs
SCHEDULE_KW = dict(eta_list=(0.4, 0.1, 0.05, 0.025), radius=0.3, t_obs=0.04, dt=2e-3,
                   sample_dt=0.02, stiff_dt_factor=0.025)


def test_eta_study_thread_determinism(qs_system):
    state0 = make_initial(qs_system, tilted_magnetization(qs_system.domain))
    small = dict(eta_list=(0.4, 0.2), radius=0.3, t_obs=0.1, dt=2e-3,
                 sample_dt=0.02, stiff_dt_factor=0.025)
    for kw in (small, SCHEDULE_KW):
        r1 = eta_convergence_study(qs_system, state0, EtaStudyConfig(threads=1, **kw))
        for threads in (2, 4):
            rk = eta_convergence_study(qs_system, state0, EtaStudyConfig(threads=threads, **kw))
            assert r1.rows == rk.rows  # bitwise equality of every float
            assert r1.slope == rk.slope
            for eta, curve in r1.v_deviation_curves.items():
                assert np.array_equal(rk.v_deviation_curves[eta], curve)


def test_eta_study_runs_costliest_first_and_the_limit_model_last(qs_system, monkeypatch):
    # with one thread the runs go in increasing eta, then the limit model,
    # also on the pool's thread and under the caller's numpy error state
    import threading

    import maxmat.quasistatic as qs

    state0 = make_initial(qs_system, tilted_magnetization(qs_system.domain))
    calls = []
    real_run, real_reduced = qs._eta_run, qs.run_reduced

    def eta_run(system, state, eta, cfg, ball):
        calls.append(eta)
        return real_run(system, state, eta, cfg, ball)

    def run_reduced(*args):
        calls.append((threading.current_thread() is threading.main_thread(), np.geterr()["divide"]))
        return real_reduced(*args)

    monkeypatch.setattr(qs, "_eta_run", eta_run)
    monkeypatch.setattr(qs, "run_reduced", run_reduced)
    with np.errstate(divide="ignore"):
        res = eta_convergence_study(qs_system, state0, EtaStudyConfig(threads=1, **SCHEDULE_KW))
    assert calls == [0.025, 0.05, 0.1, 0.4, (False, "ignore")]
    assert [r["eta"] for r in res.rows] == [0.4, 0.1, 0.05, 0.025]
    assert [r["dt"] for r in res.rows] == [2e-3, 2e-3, 0.02 / 16, 0.02 / 32]


@pytest.mark.parametrize("threads", [1, 2])
def test_eta_study_pool_with_a_thread_per_core_keeps_the_step_helper_off(
    threads, qs_system, grid16, two_cores, monkeypatch
):
    # _eta_run rejects variable weights, so a stand-in takes one
    # variable-weight step in each task and records the threads of its
    # slots; with the slot threshold at 16^3 the step splits where allowed
    import threading

    import maxmat.quasistatic as qs
    from maxmat import NumericalAbort, cores, step

    monkeypatch.setattr(cores, "SPLIT_POINTS", grid16.n**3)
    state0 = make_initial(qs_system, tilted_magnetization(qs_system.domain))
    var_sys = SimSystem(grid16, smooth_coefficients(grid16), qs_system.domain, qs_system.model)
    var_state = make_initial(var_sys, tilted_magnetization(var_sys.domain))
    names = []
    real = SimSystem.slot_tendency

    def recording(self, *args):
        names.append(threading.current_thread().name)
        return real(self, *args)

    def eta_run(system, state, eta, cfg, ball):
        step(var_sys, var_state, IntegratorConfig(dt=1e-3, t_end=1e-3, scheme="rk4"))
        raise NumericalAbort("stand-in")

    monkeypatch.setattr(SimSystem, "slot_tendency", recording)
    monkeypatch.setattr(qs, "_eta_run", eta_run)
    res = eta_convergence_study(qs_system, state0, EtaStudyConfig(threads=threads, **SCHEDULE_KW))
    assert all(r["failed"] for r in res.rows)
    assert len(names) == 4 * 4 * 2  # 4 runs, 4 stages, 2 slots
    assert any(n.startswith("maxmat-helper") for n in names) == (threads == 1)


def test_eta_run_makes_no_physical_view(qs_system, monkeypatch):
    import maxmat.quasistatic as qs

    state0 = make_initial(qs_system, tilted_magnetization(qs_system.domain))
    monkeypatch.setattr(SimState, "physical", lambda self: pytest.fail("physical view"))
    ball = ball_indicator(qs_system.grid, (0.5, 0.5, 0.5), 0.3)
    cfg = EtaStudyConfig(**SCHEDULE_KW)
    pu, v_samples, _ = qs._eta_run(qs_system, state0, 0.05, cfg, ball)
    assert pu.shape == (3,) and v_samples.shape == (3,) + state0.v.shape
    np.testing.assert_array_equal(v_samples[0], state0.v)


def test_eta_study_baseline_failure_propagates(grid16):
    # if the limit path itself blows up there is nothing to compare
    # against; the study must abort rather than emit rows
    from maxmat import NumericalAbort

    from .test_evolution import Quadratic

    co = Coefficients.constant(grid16, 1.0, 1.0)
    w = 2 * grid16.spacing
    dom = box_mask(grid16, (0.5, 0.5, 0.5), (w, w, w))
    sys_ = SimSystem(grid16, co, dom, Quadratic())
    v0 = np.full((1, dom.count), 50.0)
    state0 = SimState(0.0, np.zeros((6,) + grid16.shape), v0)
    cfg = EtaStudyConfig(eta_list=(0.2, 0.1), radius=0.3, t_obs=0.2,
                         dt=2e-3, sample_dt=0.02)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalAbort):
        eta_convergence_study(sys_, state0, cfg)


def test_eta_study_records_per_run_failures(qs_system, monkeypatch):
    import maxmat.quasistatic as qs
    from maxmat import NumericalAbort

    state0 = make_initial(qs_system, tilted_magnetization(qs_system.domain))
    real = qs._eta_run

    def flaky(system, state, eta, cfg, ball):
        if eta < 0.15:
            raise NumericalAbort(f"injected failure at eta={eta}")
        return real(system, state, eta, cfg, ball)

    monkeypatch.setattr(qs, "_eta_run", flaky)
    cfg = EtaStudyConfig(eta_list=(0.4, 0.2, 0.1), radius=0.3, t_obs=0.1,
                         dt=2e-3, sample_dt=0.02)
    res = eta_convergence_study(qs_system, state0, cfg)
    flags = [r["failed"] for r in res.rows]
    assert flags == [False, False, True]
    assert "injected" in res.rows[2]["error"]
    # the fit still happens on the surviving rows
    assert res.slope is not None
    assert 0.1 not in res.v_deviation_curves


def test_eta_study_config_validation():
    with pytest.raises(ValueError):
        EtaStudyConfig(eta_list=())
    with pytest.raises(ValueError):
        EtaStudyConfig(eta_list=(0.1, 0.2))  # increasing
    with pytest.raises(ValueError, match="strictly decreasing"):
        EtaStudyConfig(eta_list=(0.1, 0.1), t_obs=0.02)  # repeated
    with pytest.raises(ValueError):
        EtaStudyConfig(eta_list=(1.5, 0.2))
    with pytest.raises(ValueError):
        EtaStudyConfig(t_obs=0.013, sample_dt=0.02)
    with pytest.raises(ValueError):
        EtaStudyConfig(threads=0)
    with pytest.raises(ValueError):
        EtaStudyConfig(scheme="verlet")
    for bad in ({"dt": 0.0}, {"dt": -1.0}, {"sample_dt": 0.0}, {"stiff_dt_factor": 0.0}):
        with pytest.raises(ValueError, match="must be positive"):
            EtaStudyConfig(**bad)
