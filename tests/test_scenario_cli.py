"""Scenario parsing, the CLI surface, and its exit-code contract."""

import contextlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from maxmat import (
    BlochModel,
    ConfigError,
    LandauLifschitzModel,
    band_limited_field,
    load_fields,
    load_scenario,
    modulated_magnetization,
    parse_scenario,
)
from maxmat.cli import main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def base_mapping(**overrides):
    m = {
        "grid": {"n": 16, "box_len": 1.0},
        "coefficients": {"profile": "constant", "kappa1": 1.0, "kappa2": 1.0},
        "domain": {
            "shape": "box",
            "center": [0.5, 0.5, 0.5],
            "half_extent": [0.13, 0.13, 0.13],
        },
        "model": {
            "kind": "landau_lifschitz",
            "gyro": 6.0,
            "damping": 0.5,
            "aniso": 1.0,
            "axis": [0.0, 0.0, 1.0],
            "h_ext": [0.0, 0.0, 2.0],
        },
        "initial": {"matter": "modulated", "tilt": 0.8, "winding": 1, "u_seed": "zero"},
        "integrator": {"dt": 2.0e-3, "t_end": 0.01, "scheme": "rk4", "monitor_stride": 5},
    }
    m.update(overrides)
    return m


def write_yaml(tmp_path, mapping, name="scn.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping))
    return path


class TestParsing:
    def test_full_round_trip(self, tmp_path):
        scn = load_scenario(write_yaml(tmp_path, base_mapping()))
        assert scn.name == "scn"
        assert isinstance(scn.model, LandauLifschitzModel)
        assert scn.grid.n == 16
        assert scn.integrator.dt == 2.0e-3
        assert scn.monitor_stride == 5
        system = scn.build_system()
        state = scn.initial_state(system)
        assert state.v.shape == (3, scn.domain.count)
        assert np.abs(np.sqrt((state.v**2).sum(axis=0)) - 1.0).max() < 1e-12

    def test_unknown_key_names_path(self, tmp_path):
        m = base_mapping()
        m["model"]["gyr"] = 1.0
        with pytest.raises(ConfigError, match="model.gyr"):
            load_scenario(write_yaml(tmp_path, m))

    def test_missing_key_names_path(self, tmp_path):
        m = base_mapping()
        del m["integrator"]["dt"]
        with pytest.raises(ConfigError, match="integrator.dt"):
            load_scenario(write_yaml(tmp_path, m))

    def test_missing_section(self, tmp_path):
        m = base_mapping()
        del m["domain"]
        with pytest.raises(ConfigError, match="domain"):
            load_scenario(write_yaml(tmp_path, m))

    def test_bad_value_type(self, tmp_path):
        m = base_mapping()
        m["model"]["gyro"] = "fast"
        with pytest.raises(ConfigError, match="model.gyro"):
            load_scenario(write_yaml(tmp_path, m))

    def test_coefficient_amplitude_guard(self, tmp_path):
        m = base_mapping(
            coefficients={
                "profile": "smooth_bump",
                "radius": 0.2,
                "width": 0.1,
                "amplitude1": -0.99,
            }
        )
        with pytest.raises(ConfigError, match="amplitude1"):
            load_scenario(write_yaml(tmp_path, m))

    def test_smooth_bump_profile(self, tmp_path):
        m = base_mapping(
            coefficients={
                "profile": "smooth_bump",
                "radius": 0.2,
                "width": 0.1,
                "amplitude1": 0.4,
                "amplitude2": -0.3,
            }
        )
        scn = load_scenario(write_yaml(tmp_path, m))
        k1, k2 = scn.coeffs.kappa1, scn.coeffs.kappa2
        assert not scn.coeffs.is_constant
        assert 1.0 - 1e-12 <= k1.min() and k1.max() <= 1.4 + 1e-12
        assert 0.7 - 1e-12 <= k2.min() and k2.max() <= 1.0 + 1e-12
        # far corner is untouched by a bump of radius+width < 0.5
        assert k1[0, 0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_cfl_guard_is_config_error(self, tmp_path):
        m = base_mapping()
        m["integrator"]["dt"] = 0.1
        m["integrator"]["t_end"] = 0.2
        scn = load_scenario(write_yaml(tmp_path, m))
        with pytest.raises(ConfigError, match="integrator.dt"):
            scn.build_system()

    def test_lawson_needs_constant_coefficients(self, tmp_path):
        m = base_mapping(
            coefficients={
                "profile": "smooth_bump",
                "radius": 0.2,
                "width": 0.1,
                "amplitude1": 0.3,
            }
        )
        m["integrator"]["scheme"] = "lawson_exp"
        scn = load_scenario(write_yaml(tmp_path, m))
        with pytest.raises(ConfigError, match="integrator.scheme"):
            scn.build_system()

    def test_renormalize_m_needs_landau_lifschitz(self, tmp_path):
        m = base_mapping(
            model={"kind": "bloch", "levels": [0.0, 1.0]},
            initial={"matter": "ground", "u_seed": "zero"},
        )
        m["integrator"]["renormalize_m"] = True
        with pytest.raises(ConfigError, match="integrator.renormalize_m"):
            load_scenario(write_yaml(tmp_path, m))

    def test_domain_margin_violation_is_config_error(self, tmp_path):
        m = base_mapping()
        m["domain"]["half_extent"] = [0.45, 0.45, 0.45]
        with pytest.raises(ConfigError, match="domain"):
            load_scenario(write_yaml(tmp_path, m))

    def test_bloch_scenario(self, tmp_path):
        m = base_mapping(
            model={
                "kind": "bloch",
                "levels": [0.0, 1.0, 1.7],
                "coupling": [1.0, 0.5],
                "polarization": [1.0, 0.0, 0.0],
                "relax": 0.1,
            },
            initial={"matter": "coherent", "pair": [0, 2], "u_seed": "zero"},
        )
        scn = load_scenario(write_yaml(tmp_path, m))
        assert isinstance(scn.model, BlochModel)
        v0 = scn.initial_matter()
        assert v0.shape == (9, scn.domain.count)
        # populations read off the packed layout: levels 0 and 2 half each
        assert v0[0, 0] == pytest.approx(0.5)
        assert v0[1, 0] == pytest.approx(0.0)
        assert v0[2, 0] == pytest.approx(0.5)

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError):
            parse_scenario([1, 2, 3])

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="file"):
            load_scenario("/nonexistent/path.yaml")

    def test_shipped_scenarios_parse_and_build(self):
        paths = sorted(SCENARIO_DIR.glob("*.yaml"))
        assert len(paths) >= 5
        for path in paths:
            scn = load_scenario(path)
            system = scn.build_system()
            state = scn.initial_state(system)
            assert np.isfinite(state.u).all() and np.isfinite(state.v).all()

    @pytest.mark.parametrize("initial, key", [
        ({"matter": "modulated", "direction": [1.0, 0.0, 0.0]}, "initial.direction"),
        ({"matter": "uniform", "tilt": 0.3}, "initial.tilt"),
        ({"matter": "uniform", "winding": 2}, "initial.winding"),
        ({"matter": "modulated", "seed": 3}, "initial.seed"),
        ({"matter": "modulated", "u_seed": "zero", "band": 2}, "initial.band"),
        ({"matter": "modulated", "amplitude": 0.1}, "initial.amplitude"),
        ({"matter": "modulated", "pair": [0, 1]}, "initial.pair"),
    ])
    def test_initial_keys_of_another_variant_rejected(self, initial, key):
        with pytest.raises(ConfigError, match=key):
            parse_scenario(base_mapping(initial=initial))

    def test_initial_pair_only_for_coherent(self):
        bloch = {"kind": "bloch", "levels": [0.0, 1.0]}
        with pytest.raises(ConfigError, match="initial.pair"):
            parse_scenario(base_mapping(model=bloch, initial={"matter": "ground", "pair": [0, 1]}))
        scn = parse_scenario(base_mapping(model=bloch, initial={"matter": "coherent", "pair": [1, 0]}))
        assert scn.initial.pair == (1, 0)

    @pytest.mark.parametrize("n", [4096, 2**40])
    def test_grid_over_memory_budget_rejected(self, n):
        # Rejected before any array is built: the parse allocates almost nothing.
        m = base_mapping()
        m["grid"]["n"] = n
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as exc:
                parse_scenario(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.key == "grid.n"
        assert "budget" in str(exc.value)
        assert peak < 2**20

    def test_grid_over_memory_budget_exit_two(self, tmp_path, capsys):
        m = base_mapping()
        m["grid"]["n"] = 4096
        assert main(["run", str(write_yaml(tmp_path, m))]) == 2
        assert "grid.n" in capsys.readouterr().err

    def test_bloch_levels_over_generator_budget_rejected(self):
        # 1000 levels would need 3.2e13 bytes of generators; the parse
        # rejects the count before converting or building anything.
        m = base_mapping(model={"kind": "bloch", "levels": [float(k) for k in range(1000)]},
                         initial={"matter": "ground"})
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as exc:
                parse_scenario(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.key == "model.levels"
        assert "budget" in str(exc.value)
        assert peak < 2**20

    def test_bloch_levels_over_generator_budget_exit_two(self, tmp_path, capsys):
        m = base_mapping(model={"kind": "bloch", "levels": [float(k) for k in range(200)]},
                         initial={"matter": "ground"})
        assert main(["run", str(write_yaml(tmp_path, m))]) == 2
        assert "model.levels" in capsys.readouterr().err

    def test_fixed_point_steps_over_memory_budget_rejected(self):
        # 10^6 nodes of 16^3 spectra would need about 550 GiB; the parse
        # rejects the count before anything is built.
        m = base_mapping(fixed_point={"n_mol": 4, "window": 0.02, "n_steps": 10**6})
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as exc:
                parse_scenario(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.key == "fixed_point.n_steps"
        assert "budget" in str(exc.value)
        assert peak < 2**20

    def test_fixed_point_steps_over_memory_budget_exit_two(self, tmp_path, capsys):
        # ``run`` parses the whole file but never starts the construction.
        m = base_mapping(fixed_point={"n_mol": 4, "window": 0.02, "n_steps": 10**6})
        assert main(["run", str(write_yaml(tmp_path, m)), "--out-dir", str(tmp_path / "o")]) == 2
        assert "config error: fixed_point.n_steps: " in capsys.readouterr().err

    def test_grid_constructor_error_names_grid(self):
        m = base_mapping()
        m["grid"]["box_len"] = -1
        with pytest.raises(ConfigError) as exc:
            parse_scenario(m)
        assert exc.value.key == "grid"


def _with_key(mapping, dotted, value):
    node = mapping
    *parents, leaf = dotted.split(".")
    for key in parents:
        node = node[key]
    node[leaf] = value
    return mapping


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("key, value, initial", [
    ("coefficients.kappa1", INF, None),
    ("coefficients.kappa1", NAN, None),
    ("integrator.t_end", INF, None),
    ("quasistatic.t_obs", INF, None),
    ("eta", NAN, None),
    ("model.gyro", NAN, None),
    ("model.damping", NAN, None),
    ("initial.direction", [NAN, 0.0, 1.0], {"matter": "uniform"}),
    ("initial.amplitude", NAN, {"matter": "modulated", "u_seed": "random_band"}),
    ("quasistatic.radius", NAN, None),
    ("fixed_point.window", INF, None),
    ("quasistatic.dt", 0.0, None),
    ("quasistatic.sample_dt", 0.0, None),
    ("quasistatic.stiff_dt_factor", 0.0, None),
    ("initial.winding", 10**400, {"matter": "modulated"}),
])
def test_bad_number_exit_two(tiny_yaml, tmp_path, capsys, key, value, initial):
    m = yaml.safe_load(tiny_yaml.read_text())
    if initial is not None:
        m["initial"] = initial
    path = write_yaml(tmp_path, _with_key(m, key, value), name="bad.yaml")
    assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert f"config error: {key}: " in capsys.readouterr().err


class TestInitialData:
    def test_modulated_transverse_mean_cancels(self, tmp_path):
        scn = load_scenario(write_yaml(tmp_path, base_mapping()))
        v = modulated_magnetization(scn.domain, 0.8, 1)
        assert np.abs(np.sqrt((v**2).sum(axis=0)) - 1.0).max() < 1e-12
        assert abs(v[0].mean()) < 1e-13
        assert abs(v[1].mean()) < 1e-13

    def test_band_limited_field(self, grid16):
        f = band_limited_field(grid16, seed=7, band=3, amplitude=0.25)
        assert f.shape == (6,) + grid16.shape
        assert np.abs(f).max() == pytest.approx(0.25)
        fhat = np.fft.rfftn(f, axes=(-3, -2, -1))
        kx = np.fft.fftfreq(16, 1.0 / 16)
        kz = np.fft.rfftfreq(16, 1.0 / 16)
        high = (
            (np.abs(kx)[:, None, None] > 3)
            | (np.abs(kx)[None, :, None] > 3)
            | (kz[None, None, :] > 3)
        )
        assert np.abs(fhat[:, high]).max() < 1e-12 * np.abs(fhat).max()
        again = band_limited_field(grid16, seed=7, band=3, amplitude=0.25)
        assert np.array_equal(f, again)


@pytest.fixture()
def tiny_yaml(tmp_path):
    m = base_mapping()
    m["integrator"]["t_end"] = 0.02
    m["quasistatic"] = {
        "eta_list": [0.4, 0.2],
        "radius": 0.25,
        "t_obs": 0.1,
        "dt": 2.0e-3,
        "sample_dt": 0.02,
        "stiff_dt_factor": 0.025,
        "scheme": "lawson_exp",
    }
    m["fixed_point"] = {"n_mol": 4, "window": 0.02, "n_steps": 20}
    return write_yaml(tmp_path, m, name="tiny.yaml")


class TestCli:
    def test_run_writes_monitor_csv_and_snapshots(self, tiny_yaml, tmp_path):
        out = tmp_path / "out"
        code = main(["run", str(tiny_yaml), "--out-dir", str(out), "--snapshots", "5"])
        assert code == 0
        csv = out / "tiny_monitor.csv"
        lines = csv.read_text().splitlines()
        assert lines[0] == "# schema: monitor-v1"
        assert lines[1].startswith("t,step,em_norm")
        snaps = sorted(out.glob("tiny_snap_*.bin"))
        assert [p.name for p in snaps] == [
            "tiny_snap_000000.bin", "tiny_snap_000005.bin", "tiny_snap_000010.bin",
        ]
        fields, grid = load_fields(snaps[-1])
        assert fields.shape == (9, 16, 16, 16)
        assert grid.n == 16

    def test_variable_weight_run_is_byte_identical_without_the_step_helper(self, tmp_path):
        # the variable-weight RK4 step splits each stage's two slots over a
        # helper thread when it can take it; held, both run inline
        from maxmat import evolution

        m = base_mapping()
        m["coefficients"] = {"profile": "smooth_bump", "center": [0.5, 0.5, 0.5],
                             "radius": 0.22, "amplitude1": 0.35, "amplitude2": 0.25,
                             "width": 0.09}
        m["initial"].update(u_seed="random_band", seed=7, band=3, amplitude=0.2)
        m["integrator"].update(t_end=0.02, monitor_stride=5)
        path = write_yaml(tmp_path, m, name="var.yaml")
        blobs = []
        for held in (False, True):
            out = tmp_path / f"out_{held}"
            with evolution._helper_lock if held else contextlib.nullcontext():
                assert main(["run", str(path), "--out-dir", str(out)]) == 0
            blobs.append((out / "var_monitor.csv").read_bytes())
        assert blobs[0] == blobs[1]
        assert len(blobs[0].decode().splitlines()) == 2 + 3  # schema, header, steps 0, 5, 10

    def test_reduced_exit_zero(self, tiny_yaml, tmp_path):
        out = tmp_path / "outr"
        code = main(["reduced", str(tiny_yaml), "--out-dir", str(out)])
        assert code == 0
        assert (out / "tiny_reduced.csv").exists()

    def test_malformed_scenario_exit_two(self, tmp_path, capsys):
        m = base_mapping()
        m["model"]["dampin"] = 0.1
        path = write_yaml(tmp_path, m)
        code = main(["run", str(path)])
        assert code == 2
        assert "model.dampin" in capsys.readouterr().err

    def test_missing_file_exit_two(self):
        assert main(["run", "/no/such/file.yaml"]) == 2

    def test_blowup_exit_three(self, tmp_path, capsys):
        m = base_mapping()
        m["model"]["gyro"] = 4000.0
        m["integrator"]["t_end"] = 0.1
        path = write_yaml(tmp_path, m)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["run", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == 3
        assert "abort" in capsys.readouterr().err

    def test_study_outputs_and_thread_determinism(self, tiny_yaml, tmp_path):
        out1, out4 = tmp_path / "t1", tmp_path / "t4"
        assert main([
            "quasistatic-study", str(tiny_yaml), "--out-dir", str(out1), "--threads", "1",
        ]) == 0
        assert main([
            "quasistatic-study", str(tiny_yaml), "--out-dir", str(out4), "--threads", "4",
        ]) == 0
        csv1 = (out1 / "tiny_etastudy.csv").read_bytes()
        csv4 = (out4 / "tiny_etastudy.csv").read_bytes()
        assert csv1 == csv4
        summary1 = (out1 / "tiny_etastudy_summary.json").read_bytes()
        summary4 = (out4 / "tiny_etastudy_summary.json").read_bytes()
        assert summary1 == summary4
        lines = csv1.decode().splitlines()
        assert lines[0] == "# schema: etastudy-v1"
        assert lines[1] == "eta,failed,pu_norm,v_deviation,dt"
        assert len(lines) == 4  # header, columns, one row per eta

    def test_study_without_section_exit_two(self, tmp_path, capsys):
        path = write_yaml(tmp_path, base_mapping())
        code = main(["quasistatic-study", str(path)])
        assert code == 2
        assert "quasistatic" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["rk4", "lawson_exp"])
    def test_study_on_variable_coefficients_exit_two(self, tiny_yaml, tmp_path, scheme, capsys):
        # the eta study measures with the constant-coefficient projector
        m = yaml.safe_load(tiny_yaml.read_text())
        m["coefficients"] = {"profile": "smooth_bump", "radius": 0.2, "width": 0.1,
                             "amplitude1": 0.3}
        m["quasistatic"]["scheme"] = scheme
        path = write_yaml(tmp_path, m, name="smooth.yaml")
        assert main(["quasistatic-study", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert "quasistatic" in capsys.readouterr().err

    def test_study_with_repeated_eta_exit_two(self, tiny_yaml, tmp_path, capsys):
        m = yaml.safe_load(tiny_yaml.read_text())
        m["quasistatic"]["eta_list"] = [0.1, 0.1]
        path = write_yaml(tmp_path, m, name="repeat.yaml")
        assert main(["quasistatic-study", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert "config error: quasistatic: eta_list must be strictly decreasing" in (
            capsys.readouterr().err)

    def test_compare_mollified_on_variable_coefficients_exit_two(self, tmp_path, capsys):
        # the construction propagates with the constant-coefficient free flow
        m = yaml.safe_load((SCENARIO_DIR / "ll_mollified.yaml").read_text())
        m["coefficients"] = {"profile": "smooth_bump", "radius": 0.2, "width": 0.1,
                             "amplitude1": 0.3}
        m["integrator"]["scheme"] = "rk4"
        path = write_yaml(tmp_path, m, name="smooth.yaml")
        assert main(["compare-mollified", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert "config error: fixed_point: " in capsys.readouterr().err

    def test_compare_mollified(self, tiny_yaml, tmp_path):
        out = tmp_path / "cmp"
        code = main([
            "compare-mollified", str(tiny_yaml), "--out-dir", str(out), "--n-list", "2,4",
        ])
        assert code == 0
        lines = (out / "tiny_mollified.csv").read_text().splitlines()
        assert lines[1] == "n_mol,failed,iterations,last_ratio,distance"
        assert len(lines) == 4

    def test_compare_bad_n_list_exit_two(self, tiny_yaml):
        assert main(["compare-mollified", str(tiny_yaml), "--n-list", "a,b"]) == 2

    def test_seed_flag_changes_field(self, tiny_yaml, tmp_path):
        m = yaml.safe_load(tiny_yaml.read_text())
        m["initial"]["u_seed"] = "random_band"
        m["initial"]["seed"] = 1
        m["initial"]["band"] = 2
        m["initial"]["amplitude"] = 0.05
        path = write_yaml(tiny_yaml.parent, m, name="seeded.yaml")
        outs = []
        for seed, tag in ((None, "a"), (99, "b")):
            out = tmp_path / tag
            argv = ["run", str(path), "--out-dir", str(out)]
            if seed is not None:
                argv += ["--seed", str(seed)]
            assert main(argv) == 0
            outs.append((out / "seeded_monitor.csv").read_bytes())
        assert outs[0] != outs[1]

    def test_negative_scenario_seed_exit_two(self, tmp_path, capsys):
        m = base_mapping()
        m["initial"].update(u_seed="random_band", seed=-1)
        path = write_yaml(tmp_path, m)
        assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert "initial.seed" in capsys.readouterr().err

    def test_negative_seed_flag_exit_two(self, tiny_yaml, tmp_path, capsys):
        assert main(["run", str(tiny_yaml), "--out-dir", str(tmp_path), "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_zero_threads_exit_two(self, tiny_yaml, tmp_path, capsys):
        argv = ["quasistatic-study", str(tiny_yaml), "--out-dir", str(tmp_path), "--threads", "0"]
        assert main(argv) == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "reduced"])
    def test_negative_snapshots_exit_two(self, tiny_yaml, tmp_path, capsys, command):
        argv = [command, str(tiny_yaml), "--out-dir", str(tmp_path), "--snapshots", "-1"]
        assert main(argv) == 2
        assert "--snapshots" in capsys.readouterr().err

    def test_negative_ball_radius_exit_two(self, tmp_path, capsys):
        m = base_mapping(domain={"shape": "ball", "center": [0.5, 0.5, 0.5], "radius": -0.15})
        path = write_yaml(tmp_path, m)
        assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert "config error: domain.radius:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "s.yaml", "--threads", "2"],
    ["reduced", "s.yaml", "--seed", "3"],
    ["reduced", "s.yaml", "--threads", "2"],
    ["quasistatic-study", "s.yaml", "--snapshots", "4"],
    ["compare-mollified", "s.yaml", "--snapshots", "4"],
    ["compare-mollified", "s.yaml", "--threads", "2"],
    ["validate", "--out-dir", "x"],
    ["validate", "--snapshots", "4"],
    ["validate", "--seed", "3"],
    ["validate", "--threads", "9"],
])
def test_flag_not_read_by_command_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command, says", [
    ("run", "every STRIDE steps"),
    ("reduced", "final state"),
])
def test_snapshots_help_says_what_the_command_writes(command, says, capsys):
    # reduced writes only the final state, for any positive stride
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert says in help_text
    assert ("every STRIDE" in help_text) == (command == "run")


def test_validate_exit_zero(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok  ") >= 9
    assert "FAIL" not in out
