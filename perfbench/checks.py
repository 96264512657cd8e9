"""Output checks: read what a job wrote and hold it to the acceptance gate.

A job counts as failed when any check below reports a problem, so a fast
wrong answer is a failure, not a speed-up. The tolerances are those of
``tests/test_acceptance.py``: initial constraint residual at most 1e-10
and drift at most 1e-8 (criterion 2); pointwise modulus and density
matrix norm within 1 + 1e-6 of their start (criterion 3); trace drift of
the density matrix at most 1e-10 (the built-in validation); and for the
sweep, no failed eta, a fitted decay slope of at least 0.4, and matter
deviations strictly decreasing in eta (criterion 7).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

CONSTRAINT_INITIAL_TOL = 1e-10
CONSTRAINT_DRIFT_TOL = 1e-8
SUP_RATIO_TOL = 1e-6
TRACE_TOL = 1e-10
SLOPE_MIN = 0.4
SNAPSHOT_HEADER_BYTES = 24  # magic, version, n, box_len, component count


def read_csv(path: Path, schema: str) -> tuple[list[str], list[dict]]:
    """Parse a maxmat CSV strictly: schema comment, header, equal-length rows."""
    lines = path.read_text().splitlines()
    if len(lines) < 3 or lines[0] != f"# schema: {schema}-v1":
        raise ValueError(f"{path.name}: missing header or '{schema}-v1' schema line")
    columns = lines[1].split(",")
    rows = []
    for k, line in enumerate(lines[2:], start=3):
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"{path.name}:{k}: {len(cells)} cells for {len(columns)} columns")
        rows.append({c: _parse(v) for c, v in zip(columns, cells)})
    return columns, rows


def _parse(cell: str):
    if cell in ("true", "false"):
        return cell == "true"
    return float(cell)


def check_run(result, snapshots: int) -> list[str]:
    """Problems in the monitor CSV and snapshots of a ``run`` job."""
    scn = result.scenario
    out = result.out_dir
    try:
        columns, rows = read_csv(out / f"{scn.name}_monitor.csv", "monitor")
    except (OSError, ValueError) as exc:
        return [f"monitor CSV unreadable: {exc}"]
    problems = []
    n_steps = scn.integrator.n_steps
    stride = scn.monitor_stride
    want_steps = sample_steps(n_steps, stride)
    if [r.get("step") for r in rows] != want_steps:
        problems.append(f"monitor steps {[r.get('step') for r in rows]} != {want_steps}")
    bad = [c for r in rows for c, v in r.items() if not math.isfinite(v)]
    if bad:
        problems.append(f"non-finite monitor values in {sorted(set(bad))}")
    if problems:
        return problems
    if abs(rows[-1]["t"] - scn.integrator.t_end) > 1e-12:
        problems.append(f"last monitor time {rows[-1]['t']} != t_end {scn.integrator.t_end}")

    constraint = [r["constraint"] for r in rows]
    result.constraint_max = max(constraint)
    if constraint[0] > CONSTRAINT_INITIAL_TOL:
        problems.append(f"initial constraint residual {constraint[0]:.3e} > 1e-10")
    if max(constraint) - constraint[0] > CONSTRAINT_DRIFT_TOL:
        problems.append(f"constraint drift {max(constraint) - constraint[0]:.3e} > 1e-8")
    if "m_modulus_dev" in columns:
        dev = max(r["m_modulus_dev"] for r in rows)
        if dev > SUP_RATIO_TOL:
            problems.append(f"magnetization modulus deviation {dev:.3e} > 1e-6")
    if "trace_dev" in columns:
        dev = max(r["trace_dev"] for r in rows)
        if dev > TRACE_TOL:
            problems.append(f"density-matrix trace deviation {dev:.3e} > 1e-10")
        ratio = max(r["rho_frobenius"] for r in rows) / rows[0]["rho_frobenius"]
        if ratio > 1.0 + SUP_RATIO_TOL:
            problems.append(f"density-matrix norm grew by a factor {ratio:.9f}")
    if snapshots > 0:
        problems += check_snapshots(result, sample_steps(n_steps, snapshots))
    return problems


def sample_steps(n_steps: int, stride: int) -> list[int]:
    """Steps at which ``run`` samples: the start, every ``stride``, and the end."""
    return sorted({0, n_steps, *range(stride, n_steps + 1, stride)})


def check_snapshots(result, steps: list[int]) -> list[str]:
    """Every snapshot exists and reads back; the last one is the final state, bit for bit."""
    from maxmat.grid import extend_by_zero, load_fields

    scn = result.scenario
    files = sorted(result.out_dir.glob(f"{scn.name}_snap_*.bin"))
    want = [result.out_dir / f"{scn.name}_snap_{s:06d}.bin" for s in steps]
    if files != want:
        return [f"snapshot files {[f.name for f in files]} != {[f.name for f in want]}"]
    problems = []
    for path in want:
        try:
            fields, grid = load_fields(path)
        except (OSError, ValueError) as exc:
            problems.append(f"{path.name} unreadable: {exc}")
            continue
        extra = path.stat().st_size - (SNAPSHOT_HEADER_BYTES + fields.nbytes)
        if grid != scn.grid or fields.shape[0] != 6 + scn.model.dim or extra:
            problems.append(f"{path.name}: grid {grid}, {fields.shape[0]} components, "
                            f"{extra} stray bytes")
        elif not np.isfinite(fields).all():
            problems.append(f"{path.name}: non-finite values")
    result.snapshot_bytes = sum(path.stat().st_size for path in want)
    if not problems:
        final = result.final
        expect = np.concatenate([final.u, extend_by_zero(final.v, scn.domain)])
        if not np.array_equal(load_fields(want[-1])[0], expect):
            problems.append(f"{want[-1].name} differs from the final state")
    return problems


def check_study(result) -> list[str]:
    """Problems in the eta-sweep CSV and summary of a ``quasistatic-study`` job."""
    scn = result.scenario
    out = result.out_dir
    try:
        _, rows = read_csv(out / f"{scn.name}_etastudy.csv", "etastudy")
        summary = json.loads((out / f"{scn.name}_etastudy_summary.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"study output unreadable: {exc}"]
    problems = []
    etas = [r["eta"] for r in rows]
    if etas != list(scn.study.eta_list):
        return [f"eta column {etas} != {list(scn.study.eta_list)}"]
    failed = [r["eta"] for r in rows if r["failed"]]
    if failed or summary.get("n_failed") != 0 or summary.get("n_runs") != len(rows):
        problems.append(f"failed eta runs {failed}, summary {summary}")
        return problems
    pu = [r["pu_norm"] for r in rows]
    devs = [r["v_deviation"] for r in rows]
    if not all(math.isfinite(x) and x > 0 for x in pu + devs):
        return [f"non-positive or non-finite study values: pu {pu}, deviations {devs}"]
    slope = summary.get("slope")
    if not isinstance(slope, float) or slope < SLOPE_MIN:
        problems.append(f"field-decay slope {slope} < {SLOPE_MIN}")
    else:
        refit = float(np.polyfit(np.log(etas), np.log(pu), 1)[0])
        if abs(refit - slope) > 1e-9 * max(1.0, abs(slope)):
            problems.append(f"summary slope {slope} disagrees with the CSV fit {refit}")
    if not all(b < a for a, b in zip(devs, devs[1:])):
        problems.append(f"matter deviations {devs} not strictly decreasing")
    return problems


def check_job(result, snapshots: int) -> list[str]:
    return check_study(result) if result.study_rows is not None else check_run(result, snapshots)
