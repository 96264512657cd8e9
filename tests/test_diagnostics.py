"""Monitors, the energy balance, envelope scoring, and CSV rendering."""

import numpy as np
import pytest

from maxmat import (
    IntegratorConfig,
    MonitorRecord,
    bound_monitor,
    dissipation_integral,
    fit_loglog,
    ll_energy,
    run,
    standard_monitors,
    to_monitor_records,
    weighted_norm,
    write_csv,
)
from maxmat.diagnostics import CSV_SCHEMA_VERSION

from .conftest import count_transforms


def test_monitor_record_rejects_non_finite():
    MonitorRecord(t=0.0, step=0, values={"a": 1.0})
    with pytest.raises(ValueError, match="a"):
        MonitorRecord(t=0.0, step=0, values={"a": float("nan")})
    with pytest.raises(ValueError):
        MonitorRecord(t=float("inf"), step=0, values={})


def test_to_monitor_records_round_trip():
    raw = [{"t": 0.0, "step": 0, "x": 1.5}, {"t": 0.1, "step": 5, "x": 2.5}]
    recs = to_monitor_records(raw)
    assert [r.row() for r in recs] == raw


def test_ll_energy_manual_value(ll_system, ll_state):
    sys_ = ll_system
    model = sys_.model
    u, v = ll_state.u, ll_state.v
    em_part = 0.5 * weighted_norm(u, sys_.coeffs, sys_.grid) ** 2
    mu = sys_.kappa_d
    h_app = np.array([0.0, 0.0, 2.0])[:, None]
    m_perp = v[0] ** 2 + v[1] ** 2  # axis is z
    density = 0.5 * model.aniso * m_perp + 0.5 * np.sum((h_app - v) ** 2, axis=0)
    expect = em_part + float(np.sum(mu * density)) * sys_.grid.cell_volume
    energy, rate = ll_energy(sys_, ll_state)
    assert energy == pytest.approx(expect, rel=1e-13)
    f = sys_.matter_tendency(u, v)
    expect_rate = (
        model.damping
        / (model.damping**2 + model.gyro**2)
        * float(np.sum(mu * np.sum(f * f, axis=0)))
        * sys_.grid.cell_volume
    )
    assert rate == pytest.approx(expect_rate, rel=1e-13)


def test_ll_energy_rejects_other_models(grid16, rng):
    from maxmat import BlochModel, Coefficients, SimState, SimSystem, box_mask, pack_rho

    d = np.zeros((3, 2, 2), dtype=complex)
    d[0, 0, 1] = d[0, 1, 0] = 1.0
    co = Coefficients.constant(grid16, 1.0, 1.0)
    w = 2 * grid16.spacing
    dom = box_mask(grid16, (0.5, 0.5, 0.5), (w, w, w))
    sys_ = SimSystem(grid16, co, dom, BlochModel(levels=(0.0, 1.0), dipole=d))
    rho = np.zeros((2, 2, dom.count), dtype=complex)
    rho[0, 0] = 1.0
    state = SimState(0.0, np.zeros((6,) + grid16.shape), pack_rho(rho))
    with pytest.raises(TypeError):
        ll_energy(sys_, state)


def test_energy_balance_over_run(ll_system, ll_state):
    # discrete balance: energy(T) + integral of the rate = energy(0)
    cfg = IntegratorConfig(dt=2e-3, t_end=0.3, scheme="rk4")
    chan = {"rate": lambda s, st: ll_energy(s, st)[1]}
    e0 = ll_energy(ll_system, ll_state)[0]
    final, _, series = run(ll_system, ll_state, cfg, channels=chan)
    e1 = ll_energy(ll_system, final)[0]
    dissipated = dissipation_integral(series["rate"], cfg.dt)
    assert abs(e1 + dissipated - e0) < 1e-7 * e0


def test_dissipation_integral_matches_simpson():
    from scipy.integrate import simpson

    rate = np.sin(np.linspace(0.0, 2.0, 101)) ** 2 + 1.0
    assert dissipation_integral(rate, 0.02) == pytest.approx(
        float(simpson(rate, dx=0.02)), rel=1e-14
    )


def make_records(ts, sups):
    return [
        MonitorRecord(t=t, step=i, values={"v_sup": s})
        for i, (t, s) in enumerate(zip(ts, sups))
    ]


class TestBoundMonitor:
    def test_flat_trajectory_scores_one(self):
        recs = make_records([0.0, 0.5, 1.0], [2.0, 2.0, 2.0])
        assert bound_monitor(recs, 0.0) == pytest.approx(1.0)

    def test_decay_scores_below_one(self):
        recs = make_records([0.0, 1.0], [2.0, 1.0])
        assert bound_monitor(recs, 0.0) == pytest.approx(1.0)  # includes t=0
        recs2 = make_records([0.0, 1.0], [2.0, 2.5])
        assert bound_monitor(recs2, 0.0) == pytest.approx(1.25)

    def test_growth_inside_envelope(self):
        k = 0.7
        ts = [0.0, 0.4, 1.1]
        sups = [1.0 * np.exp(k * t) for t in ts]
        assert bound_monitor(make_records(ts, sups), k) == pytest.approx(1.0, rel=1e-12)
        # the same trajectory violates a smaller envelope
        assert bound_monitor(make_records(ts, sups), 0.5 * k) > 1.1

    def test_zero_start(self):
        assert bound_monitor(make_records([0.0, 1.0], [0.0, 0.0]), 1.0) == 0.0
        assert bound_monitor(make_records([0.0, 1.0], [0.0, 0.1]), 1.0) == float("inf")


def test_standard_monitors_ll(ll_system, ll_state):
    mons = standard_monitors(ll_system, ll_state.v)
    expected = {
        "em_norm", "v_l2", "v_sup", "constraint",
        "m_modulus_dev", "energy", "dissipation_rate",
    }
    assert set(mons) == expected
    vals = {k: fn(ll_system, ll_state) for k, fn in mons.items()}
    assert all(np.isfinite(list(vals.values())))
    assert vals["m_modulus_dev"] == 0.0
    assert vals["v_sup"] == pytest.approx(1.0, rel=1e-12)


def test_ll_monitor_sample_makes_one_eval_F(ll_system, ll_state, monkeypatch):
    # the energy and dissipation_rate columns each compute only their own
    # quantity, and the bytes of ll_energy's pair
    from maxmat import LandauLifschitzModel

    calls = []
    original = LandauLifschitzModel.eval_F

    def counting(model, v, em):
        calls.append(v.shape)
        return original(model, v, em)

    monkeypatch.setattr(LandauLifschitzModel, "eval_F", counting)
    mons = standard_monitors(ll_system, ll_state.v)
    row = {k: float(fn(ll_system, ll_state)) for k, fn in mons.items()}
    assert len(calls) == 1
    energy, rate = ll_energy(ll_system, ll_state)
    assert rate > 0.0
    assert row["energy"].hex() == energy.hex()
    assert row["dissipation_rate"].hex() == rate.hex()


@pytest.mark.parametrize("k", [(1.0, 1.0), (2.0, 0.5)])
def test_monitors_agree_on_either_form(ll_system, ll_state, k):
    from maxmat import Coefficients, SimState, SimSystem

    grid = ll_system.grid
    sys_ = SimSystem(grid, Coefficients.constant(grid, *k), ll_system.domain, ll_system.model)
    ws = sys_.ws
    # a compatible state, and one with curl-free content in both slots
    xx, yy, _ = grid.meshgrid()
    gradient = np.zeros((6,) + grid.shape)
    gradient[0] = 0.3 * np.cos(2 * np.pi * xx)
    gradient[4] = 0.2 * np.sin(4 * np.pi * yy)
    mons = standard_monitors(sys_, ll_state.v)
    for u in (ll_state.u, ll_state.u + gradient):
        physical = SimState(0.0, u, ll_state.v)
        spectral = SimState.spectral(0.0, ws.forward(u), ll_state.v, ws)
        for name in ("em_norm", "constraint", "energy", "dissipation_rate"):
            a, b = mons[name](sys_, physical), mons[name](sys_, spectral)
            if name == "constraint" and u is ll_state.u:
                assert a < 1e-12 and b < 1e-12
            else:
                assert b == pytest.approx(a, rel=1e-12), name
    assert mons["constraint"](sys_, spectral) > 1e-2


def test_spectral_monitors_and_rate_channel_make_no_whole_grid_transform(
    ll_system, ll_state, monkeypatch
):
    from maxmat import SimState

    ws = ll_system.ws
    state = SimState.spectral(0.0, ws.forward(ll_state.u), ll_state.v, ws)
    boxes = count_transforms(monkeypatch, names=("forward_box", "inverse_box"))
    whole = count_transforms(monkeypatch, names=("forward", "inverse"))
    # one monitor sample: the constraint's shift source and the rate's field sample
    mons = standard_monitors(ll_system, state.v)
    for fn in mons.values():
        fn(ll_system, state)
    assert (sum(boxes), whole) == (3 + 3, [])
    boxes.clear()
    # four RK4 steps, 24 box transforms each, and 3 per sample of the rate
    cfg = IntegratorConfig(dt=1e-3, t_end=4e-3, scheme="rk4")
    _, _, series = run(ll_system, state, cfg, channels={"rate": lambda s, st: ll_energy(s, st)[1]})
    assert series["rate"].shape == (5,)
    assert (sum(boxes), whole) == (4 * 24 + 5 * 3, [])


def test_standard_monitors_bloch(grid16):
    from maxmat import BlochModel, Coefficients, SimState, SimSystem, box_mask, pack_rho

    d = np.zeros((3, 2, 2), dtype=complex)
    d[0, 0, 1] = d[0, 1, 0] = 1.0
    co = Coefficients.constant(grid16, 1.0, 1.0)
    w = 2 * grid16.spacing
    dom = box_mask(grid16, (0.5, 0.5, 0.5), (w, w, w))
    sys_ = SimSystem(grid16, co, dom, BlochModel(levels=(0.0, 1.0), dipole=d, relax=0.1))
    rho = np.zeros((2, 2, dom.count), dtype=complex)
    rho[0, 0] = 0.25
    rho[1, 1] = 0.75
    v0 = pack_rho(rho)
    state = SimState(0.0, np.zeros((6,) + grid16.shape), v0)
    mons = standard_monitors(sys_, v0)
    assert {"trace_dev", "rho_frobenius"} <= set(mons)
    assert mons["trace_dev"](sys_, state) == 0.0
    expect = np.sqrt(0.25**2 + 0.75**2)
    assert mons["rho_frobenius"](sys_, state) == pytest.approx(expect, rel=1e-13)


def test_fit_loglog_recovers_power_law():
    x = np.array([0.2, 0.1, 0.05, 0.025])
    y = 3.0 * x**0.5
    slope, intercept = fit_loglog(x, y)
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert np.exp(intercept) == pytest.approx(3.0, rel=1e-12)


class TestCsv:
    def test_header_and_rendering(self, tmp_path):
        rows = [
            {"t": 0.1, "step": 1, "flag": True, "x": 1.0 / 3.0},
            {"t": 0.2, "step": 2, "flag": False, "x": 2.0 / 3.0},
        ]
        path = tmp_path / "out.csv"
        write_csv(path, rows, schema="run")
        lines = path.read_text().splitlines()
        assert lines[0] == f"# schema: run-{CSV_SCHEMA_VERSION}"
        assert lines[1] == "t,step,flag,x"
        assert lines[2].split(",")[2] == "true"
        # repr rendering round-trips exactly
        assert float(lines[2].split(",")[3]) == 1.0 / 3.0

    def test_deterministic_bytes(self, tmp_path):
        rows = [{"a": 0.1 + 0.2, "b": 7}]
        p1, p2 = tmp_path / "x.csv", tmp_path / "y.csv"
        write_csv(p1, rows, schema="s")
        write_csv(p2, [dict(r) for r in rows], schema="s")
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_ragged_and_empty(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "e.csv", [], schema="s")
        with pytest.raises(ValueError):
            write_csv(
                tmp_path / "r.csv",
                [{"a": 1.0}, {"b": 2.0}],
                schema="s",
            )
