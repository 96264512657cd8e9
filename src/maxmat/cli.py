"""Command-line driver: scenario runs, the limit model, the eta sweep,
the mollified construction, and a built-in micro-validation suite.

Exit codes: 0 success, 2 bad configuration (message names the offending
key), 3 numerical abort or failed validation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .diagnostics import standard_monitors, sup_norm, to_monitor_records, write_csv
from .evolution import (
    FixedPointError,
    IntegratorConfig,
    NumericalAbort,
    mollified_fixed_point,
    run,
)
from .grid import extend_by_zero, matter_l2_norm, save_fields, weighted_norm
from .helmholtz import ProjectionSolveError
from .quasistatic import eta_convergence_study, run_reduced
from .scenario import ConfigError, Scenario, load_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxmat",
        description="field-matter simulator on a periodic box",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_command(name, help_text, flags):
        """A subcommand on a scenario file, with only the flags it reads."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="path to a scenario config file")
        p.add_argument("--out-dir", default=".", help="directory for CSV and snapshot output")
        if "snapshots" in flags:
            snapshots_help = (
                "write the final state's snapshot when STRIDE > 0 (0 = never)"
                if name == "reduced" else "write field snapshots every STRIDE steps (0 = never)"
            )
            p.add_argument("--snapshots", type=int, default=0, metavar="STRIDE",
                           help=snapshots_help)
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=None, metavar="U64",
                           help="override the field seed in the scenario")
        if "threads" in flags:
            p.add_argument("--threads", type=int, default=1, metavar="K",
                           help="worker threads for independent runs")
        return p

    scenario_command("run", "integrate the full coupled system", ("snapshots", "seed"))
    scenario_command("reduced", "integrate the limit model", ("snapshots",))
    scenario_command("quasistatic-study", "sweep eta and fit the decay rate", ("seed", "threads"))
    cmp_p = scenario_command("compare-mollified", "fixed-point construction vs reference", ("seed",))
    cmp_p.add_argument("--n-list", default="4,8,16,32", metavar="N1,N2,...",
                       help="low-pass indices to construct")
    sub.add_parser("validate", help="run the built-in invariant suite")
    return parser


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _save_snapshot(path: Path, scn: Scenario, u: np.ndarray, v: np.ndarray) -> None:
    """Write the field state and the zero-extended matter state as one stack."""
    save_fields(path, np.concatenate([u, extend_by_zero(v, scn.domain)]), scn.grid)


def _snapshot_writer(scn: Scenario, out: Path):
    def writer(system, state, step):
        _save_snapshot(out / f"{scn.name}_snap_{step:06d}.bin", scn, state.u, state.v)

    return writer


def _cmd_run(args) -> int:
    scn = load_scenario(args.scenario)
    system = scn.build_system()
    state = scn.initial_state(system, seed=args.seed)
    out = _out_dir(args)
    monitors = standard_monitors(system, state.v)
    final, records, _ = run(
        system, state, scn.integrator,
        monitors=monitors, stride=scn.monitor_stride,
        snapshot_cb=_snapshot_writer(scn, out), snapshot_stride=args.snapshots,
    )
    rows = [r.row() for r in to_monitor_records(records)]
    csv_path = out / f"{scn.name}_monitor.csv"
    write_csv(csv_path, rows, schema="monitor")
    print(f"run finished: t={final.t:g}, {len(rows)} monitor rows -> {csv_path}")
    return EXIT_OK


def _cmd_reduced(args) -> int:
    scn = load_scenario(args.scenario)
    system = scn.build_system()
    out = _out_dir(args)
    v0 = scn.initial_matter()
    result = run_reduced(system, v0, scn.integrator, sample_stride=scn.monitor_stride)
    rows = []
    for t, v in zip(result.times, result.v_samples):
        rows.append({
            "t": float(t),
            "v_l2": matter_l2_norm(v, system.grid),
            "v_sup": sup_norm(v),
        })
    csv_path = out / f"{scn.name}_reduced.csv"
    write_csv(csv_path, rows, schema="reduced")
    res = system.constraint_residual(result.state)
    print(f"reduced run finished: t={result.state.t:g}, slaved-field constraint {res:.3e} -> {csv_path}")
    if args.snapshots > 0:
        snap = out / f"{scn.name}_reduced_final.bin"
        _save_snapshot(snap, scn, result.state.u, result.v_final)
        print(f"final snapshot -> {snap}")
    return EXIT_OK


def _cmd_study(args) -> int:
    scn = load_scenario(args.scenario)
    if scn.study is None:
        raise ConfigError("quasistatic", "scenario has no quasistatic section")
    system = scn.build_system()
    state = scn.initial_state(system, seed=args.seed)
    cfg = dataclasses.replace(scn.study, threads=args.threads)
    result = eta_convergence_study(system, state, cfg)
    out = _out_dir(args)
    rows = []
    for r in result.rows:
        rows.append({
            "eta": r["eta"],
            "failed": bool(r["failed"]),
            "pu_norm": r.get("pu_norm", float("nan")),
            "v_deviation": r.get("v_deviation", float("nan")),
            "dt": r.get("dt", float("nan")),
        })
        if r["failed"]:
            print(f"eta={r['eta']:g} failed: {r['error']}", file=sys.stderr)
    csv_path = out / f"{scn.name}_etastudy.csv"
    write_csv(csv_path, rows, schema="etastudy")
    summary = {
        "slope": result.slope,
        "intercept": result.intercept,
        "n_runs": len(rows),
        "n_failed": sum(1 for r in rows if r["failed"]),
    }
    json_path = out / f"{scn.name}_etastudy_summary.json"
    json_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    if result.slope is None:
        print("study could not fit a slope (too few surviving runs)", file=sys.stderr)
        return EXIT_ABORT
    print(f"eta study: slope {result.slope:.4f} over {len(rows)} runs -> {csv_path}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    scn = load_scenario(args.scenario)
    if scn.fixed_point is None:
        raise ConfigError("fixed_point", "scenario has no fixed_point section")
    try:
        n_list = sorted({int(tok) for tok in args.n_list.split(",") if tok.strip()})
    except ValueError as exc:
        raise ConfigError("n-list", f"expected comma-separated integers: {exc}") from exc
    if not n_list or min(n_list) < 1:
        raise ConfigError("n-list", f"need positive indices, got {args.n_list!r}")
    system = scn.build_system()
    state = scn.initial_state(system, seed=args.seed)
    base = scn.fixed_point
    n_identity = math.ceil(math.sqrt(3.0) * scn.grid.n / 2.0)
    ref = mollified_fixed_point(system, state, dataclasses.replace(base, n_mol=n_identity))
    rows = []
    for n in n_list:
        row = {"n_mol": n, "failed": False, "iterations": 0,
               "last_ratio": float("nan"), "distance": float("nan")}
        try:
            res = mollified_fixed_point(system, state, dataclasses.replace(base, n_mol=n))
        except FixedPointError as exc:
            row["failed"] = True
            print(f"n={n} failed: {exc}", file=sys.stderr)
        else:
            ratios = res.contraction_ratios
            row["iterations"] = res.iterations
            row["last_ratio"] = float(ratios[-1]) if ratios else 0.0
            row["distance"] = (
                weighted_norm(res.state.u - ref.state.u, system.coeffs, system.grid)
                + matter_l2_norm(res.state.v - ref.state.v, system.grid)
            )
        rows.append(row)
    out = _out_dir(args)
    csv_path = out / f"{scn.name}_mollified.csv"
    write_csv(csv_path, rows, schema="mollified")
    n_ok = sum(1 for r in rows if not r["failed"])
    print(f"compare-mollified: {n_ok}/{len(rows)} constructions converged "
          f"(reference index {n_identity}) -> {csv_path}")
    return EXIT_ABORT if n_ok == 0 else EXIT_OK


def _validation_checks():
    """Small invariant suite on throwaway grids; yields (name, fn)."""
    from . import (
        Coefficients,
        FourierWorkspace,
        Grid3,
        LandauLifschitzModel,
        MollifierSpec,
        SimSystem,
        apply_B,
        box_mask,
        ll_energy,
        make_initial,
        mollify,
        project_P,
        weighted_inner,
    )
    from .diagnostics import dissipation_integral
    from .scenario import modulated_magnetization

    rng = np.random.default_rng(7)

    def small_system(n=16, gyro=6.0, damping=0.5):
        grid = Grid3(n, 1.0)
        coeffs = Coefficients.constant(grid, 1.0, 1.0)
        w = 2 * grid.spacing
        domain = box_mask(grid, (0.5, 0.5, 0.5), (w, w, w))
        model = LandauLifschitzModel(
            gyro=gyro, damping=damping, aniso=1.0,
            axis=(0.0, 0.0, 1.0), h_ext=(0.0, 0.0, 2.0),
        )
        return SimSystem(grid, coeffs, domain, model)

    def check_skew():
        grid = Grid3(8, 1.0)
        xx, yy, zz = grid.meshgrid()
        k1 = 1.0 + 0.4 * np.sin(2 * np.pi * xx) * np.cos(2 * np.pi * yy)
        k2 = 1.0 + 0.3 * np.cos(2 * np.pi * zz)
        coeffs = Coefficients(k1, k2)
        ws = FourierWorkspace(grid)
        u = rng.standard_normal((6,) + grid.shape)
        w = rng.standard_normal((6,) + grid.shape)
        lhs = weighted_inner(apply_B(u, coeffs, ws), w, coeffs, grid)
        rhs = weighted_inner(u, apply_B(w, coeffs, ws), coeffs, grid)
        scale = max(abs(lhs), abs(rhs), 1.0)
        return abs(lhs + rhs) / scale < 1e-11, f"skew defect {abs(lhs + rhs) / scale:.2e}"

    def check_projector():
        grid = Grid3(8, 1.0)
        xx, _, _ = grid.meshgrid()
        coeffs = Coefficients(1.0 + 0.3 * np.sin(2 * np.pi * xx), np.full(grid.shape, 1.2))
        ws = FourierWorkspace(grid)
        u = rng.standard_normal((6,) + grid.shape)
        pu = project_P(u, coeffs, ws)
        ppu = project_P(pu, coeffs, ws)
        idem = np.abs(ppu - pu).max() / max(np.abs(pu).max(), 1e-30)
        orth = abs(weighted_inner(pu, u - pu, coeffs, grid)) / max(
            weighted_inner(u, u, coeffs, grid), 1e-30
        )
        bp = np.abs(apply_B(u - pu, coeffs, ws)).max() / max(np.abs(u).max(), 1e-30)
        ok = idem < 1e-8 and orth < 1e-8 and bp < 1e-8
        return ok, f"idem {idem:.2e}, orth {orth:.2e}, B(Id-P) {bp:.2e}"

    def check_propagator():
        from .spectral import FreePropagator

        grid = Grid3(16, 1.0)
        coeffs = Coefficients.constant(grid, 1.3, 0.8)
        ws = FourierWorkspace(grid)
        prop = FreePropagator(coeffs, ws)
        u = rng.standard_normal((6,) + grid.shape)
        n0 = weighted_norm(u, coeffs, grid)
        u1 = prop.apply(u, 0.17)
        unit = abs(weighted_norm(u1, coeffs, grid) - n0) / n0
        group = np.abs(prop.apply(u1, 0.05) - prop.apply(u, 0.22)).max() / np.abs(u).max()
        inv = np.abs(prop.apply(u1, -0.17) - u).max() / np.abs(u).max()
        ok = unit < 1e-12 and group < 1e-12 and inv < 1e-12
        return ok, f"unitary {unit:.2e}, group {group:.2e}, inverse {inv:.2e}"

    def check_mollifier():
        grid = Grid3(16, 1.0)
        ws = FourierWorkspace(grid)
        xx, _, _ = grid.meshgrid()
        low = np.broadcast_to(np.cos(2 * np.pi * xx), (6,) + grid.shape).copy()
        spec = MollifierSpec(n_mol=4)
        ident = np.abs(mollify(low, spec, ws) - low).max()
        noise = rng.standard_normal((6,) + grid.shape)
        grow = np.linalg.norm(mollify(noise, spec, ws)) / np.linalg.norm(noise)
        ok = ident < 1e-12 and grow <= 1.0 + 1e-12
        return ok, f"low-band defect {ident:.2e}, gain {grow:.6f}"

    def check_constraint_transport():
        system = small_system()
        v0 = modulated_magnetization(system.domain, 0.6, 1)
        state = make_initial(system, v0)
        cfg = IntegratorConfig(dt=2e-3, t_end=0.04, scheme="rk4")
        _, recs, _ = run(system, state, cfg, monitors={
            "constraint": lambda s, st: s.constraint_residual(st)
        }, stride=10)
        worst = max(r["constraint"] for r in recs)
        return worst < 1e-9, f"worst residual {worst:.2e}"

    def check_modulus_and_energy():
        system = small_system()
        v0 = modulated_magnetization(system.domain, 0.6, 1)
        state = make_initial(system, v0)
        cfg = IntegratorConfig(dt=2e-3, t_end=0.1, scheme="rk4")
        e0 = ll_energy(system, state)[0]
        final, _, series = run(system, state, cfg, channels={
            "rate": lambda s, st: ll_energy(s, st)[1]
        })
        drift = np.abs(np.sqrt((final.v**2).sum(axis=0)) - 1.0).max()
        e1 = ll_energy(system, final)[0]
        bal = abs(e1 + dissipation_integral(series["rate"], cfg.dt) - e0) / e0
        ok = drift < 5e-8 and bal < 1e-6
        return ok, f"modulus drift {drift:.2e}, energy balance {bal:.2e}"

    def check_reduced_consistency():
        system = small_system()
        v0 = modulated_magnetization(system.domain, 0.6, 1)
        cfg = IntegratorConfig(dt=2e-3, t_end=0.05, scheme="rk4")
        result = run_reduced(system, v0, cfg, sample_stride=5)
        res = system.constraint_residual(result.state)
        return res < 1e-9, f"slaved-field residual {res:.2e}"

    def check_bloch_trace():
        from . import BlochModel, pack_rho, unpack_rho
        from .evolution import integrate_matter

        d = np.zeros((3, 2, 2), dtype=complex)
        d[0, 0, 1] = d[0, 1, 0] = 1.0
        model = BlochModel(levels=(0.0, 1.0), dipole=d)
        grid = Grid3(8, 1.0)
        w = 2 * grid.spacing
        domain = box_mask(grid, (0.5, 0.5, 0.5), (w, w, w))
        rho = np.zeros((2, 2, domain.count), dtype=complex)
        rho[0, 0] = 1.0
        em = np.zeros((6, domain.count))
        em[3] = 0.4
        _, vals = integrate_matter(model, pack_rho(rho), em, 0.5, 1e-3)
        rho_t = unpack_rho(vals[-1], 2)
        tr = np.abs(rho_t[0, 0] + rho_t[1, 1] - 1.0).max()
        herm = np.abs(rho_t - rho_t.conj().transpose(1, 0, 2)).max()
        ok = tr < 1e-10 and herm < 1e-10
        return ok, f"trace drift {tr:.2e}, hermiticity {herm:.2e}"

    def check_bloch_ladder():
        from . import BlochModel, pack_rho, unpack_rho
        from .scenario import _ladder_dipole

        levels = (0.0, 1.0, 2.1, 3.3, 4.6, 6.0)
        d = _ladder_dipole(levels, (1.0, 0.8, 0.6, 0.5, 0.4), (0.6, 0.8, 0.0))
        model = BlochModel(levels=levels, dipole=d, relax=0.2)
        a = rng.standard_normal((6, 6, 9)) + 1j * rng.standard_normal((6, 6, 9))
        rho = a + a.conj().transpose(1, 0, 2)
        em = rng.standard_normal((6, 9))
        got = unpack_rho(model.eval_F(pack_rho(rho), em), 6)
        want = np.empty_like(rho)
        for j in range(9):
            ham = np.diag(levels) - np.einsum("a,aij->ij", em[3:6, j], d)
            r = rho[:, :, j]
            want[:, :, j] = -1j * (ham @ r - r @ ham) - 0.2 * (r - np.diag(np.diag(r)))
        defect = np.abs(got - want).max() / np.abs(want).max()
        ok = model.rank == 1 and defect <= 1e-13
        return ok, f"factor rank {model.rank}, relative defect {defect:.2e}"

    def check_csv_bytes():
        import tempfile

        rows = [{"a": 0.1, "b": 2}, {"a": 0.3, "b": 4}]
        with tempfile.TemporaryDirectory() as td:
            p1, p2 = Path(td) / "a.csv", Path(td) / "b.csv"
            write_csv(p1, rows, schema="check")
            write_csv(p2, [dict(r) for r in rows], schema="check")
            ok = p1.read_bytes() == p2.read_bytes()
        return ok, "bytes equal" if ok else "bytes differ"

    return [
        ("skew-adjoint pairing (variable coefficients)", check_skew),
        ("projector idempotent/orthogonal, kills curl pairing", check_projector),
        ("free propagator unitary, group law, inverse", check_propagator),
        ("low-pass identity band and non-expansion", check_mollifier),
        ("constraint transported by the coupled flow", check_constraint_transport),
        ("modulus conservation and energy balance", check_modulus_and_energy),
        ("limit model emits constraint-consistent state", check_reduced_consistency),
        ("density-matrix trace and hermiticity", check_bloch_trace),
        ("6-level ladder law matches the per-voxel commutator", check_bloch_ladder),
        ("CSV output is byte-deterministic", check_csv_bytes),
    ]


def _cmd_validate(args) -> int:
    failures = 0
    for name, fn in _validation_checks():
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"{'ok  ' if ok else 'FAIL'}  {name}  ({detail})")
        failures += 0 if ok else 1
    print(f"validate: {failures} failure(s)")
    return EXIT_OK if failures == 0 else EXIT_ABORT


_COMMANDS = {
    "run": _cmd_run,
    "reduced": _cmd_reduced,
    "quasistatic-study": _cmd_study,
    "compare-mollified": _cmd_compare,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for flag, low in (("seed", 0), ("threads", 1), ("snapshots", 0)):
            if (value := getattr(args, flag, None)) is not None and value < low:
                raise ConfigError(f"--{flag}", f"must be >= {low}, got {value}")
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalAbort, FixedPointError, ProjectionSolveError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
