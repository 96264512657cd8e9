"""The four benchmark workloads: seeded scenario files and the jobs that run them.

A workload turns ``--seed`` into one scenario YAML; the program only ever
sees that file. A job drives it through the same public calls as the
matching CLI command (``maxmat run`` or ``maxmat quasistatic-study``):
``load_scenario`` -> ``build_system`` -> ``initial_state`` is set-up, and
the run or sweep up to the last output file written is the solve.

Every call into maxmat goes through a module attribute looked up at call
time, so a :class:`~spans.Tracer` installed around a job sees it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np
import yaml

import maxmat.diagnostics as diagnostics
import maxmat.evolution as evolution
import maxmat.grid as grid_mod
import maxmat.quasistatic as quasistatic
import maxmat.scenario as scenario_mod

CENTER = [0.5, 0.5, 0.5]
BOX_DOMAIN = {"shape": "box", "center": CENTER, "half_extent": [0.125, 0.125, 0.125]}
CONSTANT = {"profile": "constant", "kappa1": 1.0, "kappa2": 1.0}
# Job sizes: each job takes a few seconds on the reference machine, so a
# run holds several jobs to average over.
LAWSON_STEPS = 4
SMOOTH_STEPS = 60
BLOCH_STEPS = 100
SWEEP_T_OBS = 0.02


def _ll_model(rng: random.Random, gyro: float, damping: float) -> dict:
    return {
        "kind": "landau_lifschitz", "gyro": gyro, "damping": damping, "aniso": 1.0,
        "axis": [0.0, 0.0, 1.0], "h_ext": [0.0, 0.0, round(rng.uniform(1.5, 2.5), 6)],
    }


def _integrator(scheme: str, dt: float, steps: int, stride: int) -> dict:
    return {"dt": dt, "t_end": round(steps * dt, 12), "scheme": scheme,
            "monitor_stride": stride}


def lawson_const_64(rng: random.Random) -> dict:
    return {
        "grid": {"n": 64, "box_len": 1.0},
        "coefficients": CONSTANT,
        "domain": BOX_DOMAIN,
        "model": _ll_model(rng, 6.0, 0.5),
        "initial": {"matter": "modulated", "tilt": round(rng.uniform(0.6, 0.85), 6),
                    "winding": 1, "u_seed": "random_band", "seed": rng.randrange(2**32),
                    "band": 3, "amplitude": 0.2},
        "integrator": _integrator("lawson_exp", 2.0e-3, LAWSON_STEPS, 2),
    }


def smooth_rk4_32(rng: random.Random) -> dict:
    return {
        "grid": {"n": 32, "box_len": 1.0},
        "coefficients": {"profile": "smooth_bump", "center": CENTER, "radius": 0.22,
                         "amplitude1": 0.35, "amplitude2": 0.25, "width": 0.09},
        "domain": BOX_DOMAIN,
        "model": _ll_model(rng, 6.0, 0.5),
        "initial": {"matter": "modulated", "tilt": round(rng.uniform(0.6, 0.85), 6),
                    "winding": 1, "u_seed": "random_band", "seed": rng.randrange(2**32),
                    "band": 3, "amplitude": 0.2},
        "integrator": _integrator("rk4", 2.0e-3, SMOOTH_STEPS, 20),
    }


def eta_sweep_32(rng: random.Random) -> dict:
    return {
        "grid": {"n": 32, "box_len": 1.0},
        "coefficients": CONSTANT,
        "domain": BOX_DOMAIN,
        "model": _ll_model(rng, round(rng.uniform(9.0, 11.0), 6), 0.05),
        "initial": {"matter": "modulated", "tilt": round(rng.uniform(0.7, 0.85), 6),
                    "winding": 1, "u_seed": "zero"},
        "integrator": _integrator("rk4", 2.0e-3, 10, 10),
        "quasistatic": {"eta_list": [0.2, 0.1, 0.05, 0.025], "radius": 0.25,
                        "t_obs": SWEEP_T_OBS, "dt": 2.0e-3, "sample_dt": 0.02,
                        "stiff_dt_factor": 0.025, "scheme": "lawson_exp"},
    }


def bloch_6level_16(rng: random.Random) -> dict:
    levels = [0.0]
    for _ in range(5):
        levels.append(round(levels[-1] + rng.uniform(0.8, 1.2), 6))
    pol = [rng.uniform(-1.0, 1.0) for _ in range(3)]
    norm = sum(p * p for p in pol) ** 0.5
    return {
        "grid": {"n": 16, "box_len": 1.0},
        "coefficients": CONSTANT,
        "domain": {"shape": "ball", "center": CENTER, "radius": 0.4},
        "model": {"kind": "bloch", "levels": levels,
                  "coupling": [round(rng.uniform(0.5, 1.5), 6) for _ in range(5)],
                  "polarization": [round(p / norm, 6) for p in pol],
                  "relax": round(rng.uniform(0.05, 0.2), 6)},
        "initial": {"matter": "coherent", "pair": sorted(rng.sample(range(6), 2)),
                    "u_seed": "random_band", "seed": rng.randrange(2**32), "band": 2,
                    "amplitude": 0.2},
        "integrator": _integrator("rk4", 2.0e-3, BLOCH_STEPS, 25),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                      # the CLI command the job reproduces
    make_scenario: Callable[[random.Random], dict]
    snapshots: int = 0                # snapshot stride, as ``--snapshots``
    seeded: str = ""                  # which inputs the seed changes

    @property
    def threads(self) -> int:
        """Worker threads the job uses: the sweep fills every usable core."""
        return nproc() if self.command == "quasistatic-study" else 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lawson_const_64", "run", lawson_const_64, snapshots=LAWSON_STEPS,
                 seeded="band-limited field seed, magnetization tilt, applied field"),
        Workload("smooth_rk4_32", "run", smooth_rk4_32,
                 seeded="band-limited field seed, magnetization tilt, applied field"),
        Workload("eta_sweep_32", "quasistatic-study", eta_sweep_32,
                 seeded="gyromagnetic ratio, magnetization tilt, applied field"),
        Workload("bloch_6level_16", "run", bloch_6level_16,
                 seeded="level spacings, couplings, polarization, relaxation, "
                        "coherent pair, band-limited field seed"),
    )
}


def write_scenario(workload: Workload, seed: int, out_dir: Path) -> tuple[Path, dict]:
    """Generate the workload's scenario from ``seed`` and write it as YAML."""
    rng = random.Random(f"{workload.name}:{seed}")
    scenario = {"name": workload.name, **workload.make_scenario(rng)}
    path = out_dir / f"{workload.name}.yaml"
    path.write_text(yaml.safe_dump(scenario, sort_keys=False))
    return path, scenario


@dataclass
class JobResult:
    setup_s: float
    solve_s: float
    out_dir: Path
    scenario: object                   # the parsed maxmat Scenario
    final: object = None               # final SimState of a run job
    study_rows: list | None = None
    constraint_max: float = 0.0        # worst monitored constraint residual, from the CSV
    snapshot_bytes: int = 0            # bytes of snapshot files written


def run_job(workload: Workload, scn_path: Path, out: Path, tracer=None) -> JobResult:
    """One closed-loop job: set-up, then solve to the last output file."""
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    t0 = perf_counter()
    with span("job.setup"):
        scn = scenario_mod.load_scenario(scn_path)
        system = scn.build_system()
        state = scn.initial_state(system)
    t1 = perf_counter()
    with span("job.solve"):
        if workload.command == "run":
            result = _solve_run(scn, system, state, out, workload.snapshots, tracer)
        else:
            result = _solve_study(scn, system, state, out, workload.threads)
    t2 = perf_counter()
    return JobResult(setup_s=t1 - t0, solve_s=t2 - t1, out_dir=out, scenario=scn, **result)


def _solve_run(scn, system, state, out: Path, snapshots: int, tracer) -> dict:
    """What ``maxmat run --snapshots <stride>`` does after the initial state."""
    monitors = diagnostics.standard_monitors(system, state.v)
    snap_cb = None
    if snapshots > 0:
        def snap_cb(system, st, step):
            stack = np.concatenate([st.u, grid_mod.extend_by_zero(st.v, scn.domain)])
            grid_mod.save_fields(out / f"{scn.name}_snap_{step:06d}.bin", stack, scn.grid)

    if tracer is not None:
        monitors = tracer.wrap_monitors(monitors)
        if snap_cb is not None:
            snap_cb = tracer.wrap("grid.snapshot", snap_cb)
    final, records, _ = evolution.run(
        system, state, scn.integrator, monitors=monitors, stride=scn.monitor_stride,
        snapshot_cb=snap_cb, snapshot_stride=snapshots,
    )
    rows = [r.row() for r in diagnostics.to_monitor_records(records)]
    diagnostics.write_csv(out / f"{scn.name}_monitor.csv", rows, schema="monitor")
    return {"final": final}


def _solve_study(scn, system, state, out: Path, threads: int) -> dict:
    """What ``maxmat quasistatic-study --threads <threads>`` does after the initial state."""
    cfg = dataclasses.replace(scn.study, threads=threads)
    result = quasistatic.eta_convergence_study(system, state, cfg)
    rows = [{
        "eta": r["eta"],
        "failed": bool(r["failed"]),
        "pu_norm": r.get("pu_norm", float("nan")),
        "v_deviation": r.get("v_deviation", float("nan")),
        "dt": r.get("dt", float("nan")),
    } for r in result.rows]
    diagnostics.write_csv(out / f"{scn.name}_etastudy.csv", rows, schema="etastudy")
    summary = {
        "slope": result.slope,
        "intercept": result.intercept,
        "n_runs": len(rows),
        "n_failed": sum(1 for r in rows if r["failed"]),
    }
    (out / f"{scn.name}_etastudy_summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return {"study_rows": result.rows}


def nproc() -> int:
    return len(os.sched_getaffinity(0))
