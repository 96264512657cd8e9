"""Acceptance gate: nine numbered criteria at reference scale.

Reference scale is a 32^3 grid with the matter on an 8^3-cell box,
horizon T=2 at dt=2e-3. Each criterion prints one PASS/FAIL line with
the measured numbers next to the tolerance it is held to. The heavy
runs are shared through module-scoped fixtures, so the whole gate stays
within a few minutes.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.linalg import expm

from maxmat import (
    Coefficients,
    FixedPointConfig,
    FourierWorkspace,
    Grid3,
    IntegratorConfig,
    LandauLifschitzModel,
    MatterModel,
    SimSystem,
    apply_B,
    box_mask,
    curl,
    dissipation_integral,
    bound_monitor,
    integrate_matter,
    ll_energy,
    load_scenario,
    make_initial,
    matter_l2_norm,
    modulated_magnetization,
    mollified_fixed_point,
    pack_rho,
    parse_scenario,
    project_P,
    run,
    to_monitor_records,
    unpack_rho,
    weighted_inner,
    weighted_norm,
)
from maxmat.cli import main as cli_main
from maxmat.quasistatic import eta_convergence_study, run_reduced

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def reference_system(gyro=6.0, damping=0.5):
    grid = Grid3(32, 1.0)
    coeffs = Coefficients.constant(grid, 1.0, 1.0)
    domain = box_mask(grid, (0.5, 0.5, 0.5), (0.125, 0.125, 0.125))
    model = LandauLifschitzModel(
        gyro=gyro, damping=damping, aniso=1.0,
        axis=(0.0, 0.0, 1.0), h_ext=(0.0, 0.0, 2.0),
    )
    return SimSystem(grid, coeffs, domain, model)


# --- criterion 1: operator algebra ---------------------------------------


def _algebra_worst(grid, coeffs, ws, rng, n_fields=20):
    worst = {"skew": 0.0, "idem": 0.0, "orth": 0.0, "pb": 0.0, "curlgrad": 0.0}
    for _ in range(n_fields):
        u = rng.standard_normal((6,) + grid.shape)
        w = rng.standard_normal((6,) + grid.shape)
        bu = apply_B(u, coeffs, ws)
        lhs = weighted_inner(bu, w, coeffs, grid)
        rhs = weighted_inner(u, apply_B(w, coeffs, ws), coeffs, grid)
        scale = weighted_norm(bu, coeffs, grid) * weighted_norm(w, coeffs, grid)
        worst["skew"] = max(worst["skew"], abs(lhs + rhs) / scale)

        pu = project_P(u, coeffs, ws)
        nrm = weighted_norm(u, coeffs, grid)
        worst["idem"] = max(
            worst["idem"],
            weighted_norm(project_P(pu, coeffs, ws) - pu, coeffs, grid) / nrm,
        )
        worst["orth"] = max(
            worst["orth"], abs(weighted_inner(pu, u - pu, coeffs, grid)) / nrm**2
        )
        worst["pb"] = max(
            worst["pb"],
            weighted_norm(bu - project_P(bu, coeffs, ws), coeffs, grid)
            / weighted_norm(bu, coeffs, grid),
        )

        phi_hat = ws.forward(rng.standard_normal(grid.shape))
        grad = ws.inverse(np.stack([1j * x * phi_hat for x in ws.xi]))
        worst["curlgrad"] = max(
            worst["curlgrad"],
            np.abs(curl(grad, ws)).max() / max(np.abs(grad).max(), 1e-30),
        )
    return worst


def test_criterion_1_operator_algebra(capsys):
    grid = Grid3(32, 1.0)
    ws = FourierWorkspace(grid)
    rng = np.random.default_rng(101)

    const = _algebra_worst(grid, Coefficients.constant(grid, 1.3, 0.8), ws, rng)
    xx, yy, zz = grid.meshgrid()
    k1 = 1.0 + 0.35 * np.sin(2 * np.pi * xx) * np.cos(2 * np.pi * yy)
    k2 = 1.0 + 0.25 * np.cos(2 * np.pi * zz) * np.sin(2 * np.pi * xx)
    variable = _algebra_worst(grid, Coefficients(k1, k2), ws, rng)

    wc, wv = max(const.values()), max(variable.values())
    ok = wc <= 1e-12 and wv <= 1e-9
    report(
        capsys, 1, ok,
        f"20 random fields at 32^3: worst residual constant {wc:.2e} (tol 1e-12), "
        f"variable {wv:.2e} (tol 1e-9)",
    )


# --- criteria 2 and 3a share the full variable-coefficient run -----------


@pytest.fixture(scope="module")
def variable_run():
    scn = load_scenario(SCENARIOS / "ll_smooth.yaml")
    system = scn.build_system()
    state = scn.initial_state(system)
    initial = system.constraint_residual(state)
    monitors = {
        "constraint": lambda s, st: s.constraint_residual(st),
        "v_sup": lambda s, st: float(np.sqrt((st.v**2).sum(axis=0)).max()),
    }
    final, records, _ = run(system, state, scn.integrator, monitors=monitors, stride=50)
    return initial, records


def test_criterion_2_constraint_propagation(variable_run, capsys):
    initial, records = variable_run
    worst = max(r["constraint"] for r in records)
    drift = worst - initial
    ok = initial <= 1e-10 and drift <= 1e-8
    report(
        capsys, 2, ok,
        f"variable smooth coefficients, T=2, dt=2e-3: initial residual {initial:.2e} "
        f"(tol 1e-10), drift {drift:.2e} (tol 1e-8)",
    )


class GrowingModel(MatterModel):
    """Torque plus linear growth: F = K v + v ^ field. The torque keeps
    |v| pointwise on the growth envelope, so |v(t)| = e^{Kt}|v(0)| exactly."""

    dim = 3
    em_slot = 1

    def __init__(self, k):
        self.growth_bound = float(k)

    def eval_F(self, v, em):
        return self.growth_bound * v + np.cross(v, em[0:3], axis=0)

    def source_from_matter(self, w, kappa_d):
        return np.zeros((3, w.shape[1]))


def test_criterion_3_pointwise_bound(variable_run, capsys):
    tol = 1e-6
    _, records = variable_run
    ll_ratio = bound_monitor(to_monitor_records(records), 0.0)

    scn = load_scenario(SCENARIOS / "bloch_demo.yaml")
    system = scn.build_system()
    state = scn.initial_state(system)
    monitors = {"v_sup": lambda s, st: float(np.sqrt((st.v**2).sum(axis=0)).max())}
    _, brecords, _ = run(system, state, scn.integrator, monitors=monitors, stride=25)
    bloch_ratio = bound_monitor(to_monitor_records(brecords), 0.0)

    k = 0.8
    model = GrowingModel(k)
    m = 9
    rng = np.random.default_rng(33)
    v0 = rng.standard_normal((3, m))
    em = np.zeros((6, m))
    em[2] = 1.5
    times, values = integrate_matter(model, v0, em, 2.0, 1e-3, sample_stride=100)
    recs = [
        {"t": float(t), "step": i, "v_sup": float(np.sqrt((v**2).sum(axis=0)).max())}
        for i, (t, v) in enumerate(zip(times, values))
    ]
    grow_ratio = bound_monitor(to_monitor_records(recs), k)

    ok = ll_ratio <= 1 + tol and bloch_ratio <= 1 + tol and abs(grow_ratio - 1.0) <= 1e-4
    report(
        capsys, 3, ok,
        f"sup ratios: LL {ll_ratio:.9f}, Bloch {bloch_ratio:.9f} (tol 1+1e-6); "
        f"K={k} envelope ratio {grow_ratio:.7f} (tol 1e-4)",
    )


# --- criterion 4: energy law and its convergence order -------------------


def _energy_defect(scn, dt):
    cfg = dataclasses.replace(scn.integrator, dt=dt)
    system = scn.build_system()
    state = scn.initial_state(system)
    e0 = ll_energy(system, state)[0]
    final, _, series = run(
        system, state, cfg, channels={"rate": lambda s, st: ll_energy(s, st)[1]}
    )
    e1 = ll_energy(system, final)[0]
    return abs(e1 + dissipation_integral(series["rate"], dt) - e0), e0


def _energy_law(scn) -> tuple[float, float]:
    """Relative balance defect at dt = 2e-3 and its order under halving."""
    defect, e0 = _energy_defect(scn, 2e-3)
    defect_half, _ = _energy_defect(scn, 1e-3)
    order = math.log2(defect / defect_half) if defect_half > 0 else float("inf")
    return defect / e0, order


def test_criterion_4_energy_law(capsys):
    rel, order = _energy_law(load_scenario(SCENARIOS / "ll_energy.yaml"))
    ok = rel <= 1e-3 and order >= 3.5
    report(
        capsys, 4, ok,
        f"balance defect {rel:.2e} relative at T=2, dt=2e-3 (tol 1e-3); "
        f"order {order:.2f} under halving (tol 3.5)",
    )


def test_criterion_4_companion_energy_law_on_smooth_weights():
    # Criterion 4 runs on a constant weight; the paper's subject is variable
    # ones. The same bounds on the ll_smooth weights at 16^3, to T=2 (at
    # T=0.5 the defect sits near roundoff and the order reads low).
    raw = yaml.safe_load((SCENARIOS / "ll_smooth.yaml").read_text())
    raw["grid"]["n"] = 16
    scn = parse_scenario(raw, name="ll_smooth")
    assert not scn.coeffs.is_constant and scn.integrator.t_end == 2.0
    rel, order = _energy_law(scn)
    assert rel <= 1e-3 and order >= 3.5, (rel, order)


# --- criterion 5: closed-form oracles -------------------------------------


def test_criterion_5_closed_form_oracles(capsys):
    # undamped precession about a constant applied field
    gyro, hz = 4.0, 1.5
    model = LandauLifschitzModel(gyro=gyro, h_ext=(0.0, 0.0, hz))
    m0 = np.array([[0.6], [0.0], [0.8]])
    times, values = integrate_matter(model, m0, np.zeros((6, 1)), 6.0, 1e-3, sample_stride=20)
    phase = np.unwrap(np.arctan2(values[:, 1, 0], values[:, 0, 0]))
    freq = abs(np.polyfit(times, phase, 1)[0])
    freq_err = abs(freq - gyro * hz) / (gyro * hz)

    # two-level dynamics against the dense matrix exponential
    from maxmat import BlochModel

    d = np.zeros((3, 2, 2), dtype=complex)
    d[0, 0, 1] = d[0, 1, 0] = 1.0
    bmodel = BlochModel(levels=(0.0, 1.0), dipole=d)
    e_amp = 0.3
    h = np.diag([0.0, 1.0]) - e_amp * d[0]
    gap = float(np.diff(np.linalg.eigvalsh(h))[0])
    t_end = 5 * 2 * np.pi / gap
    dt = 5e-4
    n_steps = int(round(t_end / dt))
    t_end = n_steps * dt
    rho0 = np.zeros((2, 2, 1), dtype=complex)
    rho0[0, 0] = 1.0
    em = np.zeros((6, 1))
    em[3] = e_amp
    _, vals = integrate_matter(bmodel, pack_rho(rho0), em, t_end, dt, sample_stride=n_steps)
    rho_num = unpack_rho(vals[-1], 2)[:, :, 0]
    u_t = expm(-1j * t_end * h)
    rho_exact = u_t @ rho0[:, :, 0] @ u_t.conj().T
    frob = float(np.linalg.norm(rho_num - rho_exact))

    ok = freq_err <= 1e-4 and frob <= 1e-6
    report(
        capsys, 5, ok,
        f"precession frequency error {freq_err:.2e} (tol 1e-4); two-level state vs "
        f"matrix exponential {frob:.2e} Frobenius at T=5 beat periods (tol 1e-6)",
    )


# --- criterion 6: mollified construction ----------------------------------


def test_criterion_6_mollified_construction(capsys):
    system = reference_system()
    v0 = modulated_magnetization(system.domain, 0.8, 1)
    state = make_initial(system, v0)
    base = FixedPointConfig(n_mol=4, window=0.02, n_steps=40)
    n_identity = math.ceil(math.sqrt(3.0) * system.grid.n / 2.0)

    ref = mollified_fixed_point(
        system, state, dataclasses.replace(base, n_mol=n_identity)
    )
    ref_fine = mollified_fixed_point(
        system, state, dataclasses.replace(base, n_mol=n_identity, n_steps=80)
    )
    err_time = (
        weighted_norm(ref.state.u - ref_fine.state.u, system.coeffs, system.grid)
        + matter_l2_norm(ref.state.v - ref_fine.state.v, system.grid)
    )

    ratios, dists = {}, {}
    for n in (4, 8, 16, 32):
        res = mollified_fixed_point(system, state, dataclasses.replace(base, n_mol=n))
        ratios[n] = max(res.contraction_ratios) if res.contraction_ratios else 0.0
        dists[n] = (
            weighted_norm(res.state.u - ref.state.u, system.coeffs, system.grid)
            + matter_l2_norm(res.state.v - ref.state.v, system.grid)
        )

    seq = [dists[n] for n in (4, 8, 16, 32)]
    contracting = all(r < 1.0 for r in ratios.values())
    monotone = all(b <= a * (1 + 1e-9) + 1e-15 for a, b in zip(seq, seq[1:]))
    largest_ok = dists[32] <= 10.0 * err_time
    ok = contracting and monotone and largest_ok
    report(
        capsys, 6, ok,
        f"contraction ratios {max(ratios.values()):.3f} worst (<1); distances "
        f"{', '.join(f'{d:.2e}' for d in seq)} non-increasing; largest-n distance "
        f"{dists[32]:.2e} vs 10x time error {10 * err_time:.2e}",
    )


def test_criterion_6_companion_ladder_below_identity_index():
    # Criterion 6's largest index sits at or above the identity index, so
    # its distance is zero by construction. Below the identity index (14
    # at 16^3) the distance must shrink strictly and fast, yet stay > 0.
    scn = load_scenario(SCENARIOS / "ll_mollified.yaml")
    system = scn.build_system()
    state = scn.initial_state(system)
    n_identity = math.ceil(math.sqrt(3.0) * scn.grid.n / 2.0)
    assert n_identity == 14
    ref = mollified_fixed_point(
        system, state, dataclasses.replace(scn.fixed_point, n_mol=n_identity)
    )
    dists = []
    for n in (2, 4, 8, 12):
        res = mollified_fixed_point(system, state, dataclasses.replace(scn.fixed_point, n_mol=n))
        dists.append(
            weighted_norm(res.state.u - ref.state.u, system.coeffs, system.grid)
            + matter_l2_norm(res.state.v - ref.state.v, system.grid)
        )
    assert all(b < a for a, b in zip(dists, dists[1:])), dists
    assert 0.0 < dists[-1] <= 1e-4 * dists[0], dists


# --- criterion 7: quasi-stationary decay ----------------------------------


def test_criterion_7_quasistatic_decay(capsys):
    scn = load_scenario(SCENARIOS / "ll_etastudy.yaml")
    system = scn.build_system()
    state = scn.initial_state(system)
    cfg = dataclasses.replace(scn.study, threads=4)
    result = eta_convergence_study(system, state, cfg)
    assert all(not r["failed"] for r in result.rows)
    devs = [r["v_deviation"] for r in result.rows]
    monotone = all(b < a for a, b in zip(devs, devs[1:]))
    ok = result.slope is not None and result.slope >= 0.4 and monotone
    report(
        capsys, 7, ok,
        f"field-decay slope {result.slope:.3f} over eta {cfg.eta_list} (tol 0.4); "
        f"matter deviations {', '.join(f'{d:.2e}' for d in devs)} strictly decreasing",
    )


# --- criterion 8: reduced-model stability ---------------------------------


def test_criterion_8_reduced_stability(capsys):
    scn = load_scenario(SCENARIOS / "ll_reduced.yaml")
    system = scn.build_system()
    v0 = scn.initial_matter()
    rng = np.random.default_rng(8)
    delta = rng.standard_normal(v0.shape)
    delta *= 1e-8 / matter_l2_norm(delta, system.grid)
    r1 = run_reduced(system, v0, scn.integrator, sample_stride=10)
    r2 = run_reduced(system, v0 + delta, scn.integrator, sample_stride=10)
    gap = max(
        matter_l2_norm(a - b, system.grid)
        for a, b in zip(r1.v_samples, r2.v_samples)
    )
    ok = gap <= 1e-6
    report(
        capsys, 8, ok,
        f"two limit-model runs seeded 1e-8 apart stay within {gap:.2e} to T=2 (tol 1e-6)",
    )


# --- criterion 9: determinism ----------------------------------------------


def test_criterion_9_determinism(tmp_path, capsys):
    with capsys.disabled():
        validate_code = cli_main(["validate"])

    scenario = {
        "name": "det",
        "grid": {"n": 16, "box_len": 1.0},
        "coefficients": {"profile": "constant", "kappa1": 1.0, "kappa2": 1.0},
        "domain": {
            "shape": "box",
            "center": [0.5, 0.5, 0.5],
            "half_extent": [0.13, 0.13, 0.13],
        },
        "model": {
            "kind": "landau_lifschitz",
            "gyro": 10.0,
            "damping": 0.05,
            "aniso": 1.0,
            "axis": [0.0, 0.0, 1.0],
            "h_ext": [0.0, 0.0, 2.0],
        },
        "initial": {"matter": "modulated", "tilt": 0.8, "winding": 1, "u_seed": "zero"},
        "integrator": {"dt": 2.0e-3, "t_end": 0.1, "scheme": "rk4"},
        "quasistatic": {
            "eta_list": [0.2, 0.1, 0.05],
            "radius": 0.25,
            "t_obs": 0.2,
            "dt": 2.0e-3,
            "sample_dt": 0.02,
            "stiff_dt_factor": 0.025,
            "scheme": "lawson_exp",
        },
    }
    path = tmp_path / "det.yaml"
    path.write_text(yaml.safe_dump(scenario))
    blobs = {}
    for threads in (1, 4, 4):
        out = tmp_path / f"out_{threads}_{len(blobs)}"
        code = cli_main([
            "quasistatic-study", str(path), "--out-dir", str(out),
            "--threads", str(threads),
        ])
        assert code == 0
        blobs[out] = (out / "det_etastudy.csv").read_bytes()
    unique = {b for b in blobs.values()}
    ok = validate_code == 0 and len(unique) == 1
    report(
        capsys, 9, ok,
        f"validate exit {validate_code}; study CSVs bit-identical across threads "
        f"{{1,4}} and across repeats ({len(blobs)} runs, {len(unique)} distinct byte string)",
    )
