"""Self-test of the benchmark's output checks: a corrupted output must count as failed.

    python3 -m pytest perfbench/test_checks.py -q

Runs one short real job of the Bloch workload and checks synthetic sweep
and snapshot outputs written with maxmat's own writers, then corrupts
each kind of output and asserts the checks report it and the summary
counts the job as failed.
"""

import dataclasses
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.bootstrap()

import checks  # noqa: E402
import workloads  # noqa: E402
from maxmat.diagnostics import write_csv  # noqa: E402
from maxmat.evolution import SimState  # noqa: E402
from maxmat.grid import extend_by_zero, save_fields  # noqa: E402


@pytest.fixture
def workdir(request):
    """A fresh directory inside the checkout, under the benchmark's output root."""
    path = run.OUT_ROOT / "selftest" / request.node.name.replace("[", "_").strip("]")
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def _summary_of(result, problems):
    return run.summarize([(False, result, problems)])


@pytest.fixture(scope="module")
def bloch_job():
    out = run.OUT_ROOT / "selftest" / "bloch"
    out.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS["bloch_6level_16"]
    scn_path, _ = workloads.write_scenario(workload, 3, out)
    result, problems = run.execute(workload, scn_path, out / "job")
    return workload, result, problems


def test_clean_job_passes(bloch_job):
    _, result, problems = bloch_job
    assert problems == []
    summary = _summary_of(result, problems)
    assert summary["correct"] and summary["failed"] == 0
    assert summary["metrics"]["pass_frac"]["value"] == 1.0


def _corrupt_monitor_csv(result, edit):
    path = result.out_dir / f"{result.scenario.name}_monitor.csv"
    original = path.read_text()
    try:
        path.write_text(edit(original))
        return checks.check_run(result, 0)
    finally:
        path.write_text(original)


def _set_column(text, column, row, value):
    """Replace one cell; ``row`` counts data rows and may be negative."""
    lines = text.splitlines()
    cols = lines[1].split(",")
    k = 2 + row if row >= 0 else len(lines) + row
    cells = lines[k].split(",")
    cells[cols.index(column)] = value
    lines[k] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("edit", [
    lambda t: _set_column(t, "constraint", 0, "1e-9"),
    lambda t: _set_column(t, "constraint", -1, "1e-7"),
    lambda t: _set_column(t, "trace_dev", 2, "1e-9"),
    lambda t: _set_column(t, "rho_frobenius", -1, "9.0"),
    lambda t: _set_column(t, "em_norm", 1, "nan"),
    lambda t: "\n".join(t.splitlines()[:-1]) + "\n",
    lambda t: t.replace("monitor-v1", "monitor-v0"),
    lambda t: t + "1.0,2\n",
    lambda t: "",
])
def test_corrupted_monitor_csv_counts_as_failed(bloch_job, edit):
    _, result, _ = bloch_job
    problems = _corrupt_monitor_csv(result, edit)
    assert problems
    summary = _summary_of(result, problems)
    assert not summary["correct"] and summary["failed"] == 1
    assert summary["metrics"]["pass_frac"]["value"] == 0.0


def test_missing_output_counts_as_failed(bloch_job):
    _, result, _ = bloch_job
    path = result.out_dir / f"{result.scenario.name}_monitor.csv"
    original = path.read_bytes()
    path.unlink()
    try:
        assert checks.check_run(result, 0)
    finally:
        path.write_bytes(original)


def test_raising_job_counts_as_failed():
    summary = run.summarize([(False, None, ["job raised"]), (False, None, ["job raised"])])
    assert summary == {**summary, "correct": False, "attempted": 2, "failed": 2}


@pytest.fixture
def snapshot_result(bloch_job, workdir):
    _, result, _ = bloch_job
    scn = result.scenario
    rng = np.random.default_rng(0)
    final = SimState(1.0, rng.standard_normal((6,) + scn.grid.shape),
                     rng.standard_normal((scn.model.dim, scn.domain.count)))
    for step in (0, 4):
        stack = np.concatenate([final.u, extend_by_zero(final.v, scn.domain)])
        save_fields(workdir / f"{scn.name}_snap_{step:06d}.bin", stack, scn.grid)
    return dataclasses.replace(result, out_dir=workdir, final=final)


def test_snapshots_pass_then_fail_when_corrupted(snapshot_result):
    res = snapshot_result
    assert checks.check_snapshots(res, [0, 4]) == []
    last = res.out_dir / f"{res.scenario.name}_snap_000004.bin"
    blob = bytearray(last.read_bytes())
    blob[-3] ^= 0x10
    last.write_bytes(bytes(blob))
    assert any("differs from the final state" in p for p in checks.check_snapshots(res, [0, 4]))
    last.write_bytes(bytes(blob[:-8]))
    assert checks.check_snapshots(res, [0, 4])
    last.unlink()
    assert checks.check_snapshots(res, [0, 4])


def _study(out, rows, summary):
    scn = type("Scn", (), {})()
    scn.name = "eta_sweep_32"
    scn.study = type("Study", (), {"eta_list": tuple(r["eta"] for r in rows)})()
    write_csv(out / "eta_sweep_32_etastudy.csv", rows, schema="etastudy")
    (out / "eta_sweep_32_etastudy_summary.json").write_text(json.dumps(summary))
    return workloads.JobResult(0.0, 0.0, out, scn, study_rows=rows)


def _study_rows(pu, devs):
    return [{"eta": eta, "failed": False, "pu_norm": p, "v_deviation": d, "dt": 1e-3}
            for eta, p, d in zip((0.2, 0.1, 0.05, 0.025), pu, devs)]


def _fit(rows):
    lx = np.log([r["eta"] for r in rows])
    ly = np.log([r["pu_norm"] for r in rows])
    return float(np.polyfit(lx, ly, 1)[0])


def test_study_checks(workdir):
    good = _study_rows([0.2 * 2 ** -k for k in range(4)], [1e-2, 3e-3, 8e-4, 3e-4])
    ok = {"slope": _fit(good), "intercept": 0.0, "n_runs": 4, "n_failed": 0}
    assert checks.check_study(_study(workdir, good, ok)) == []

    flat = _study_rows([0.2 * 2 ** (-0.2 * k) for k in range(4)], [1e-2, 3e-3, 8e-4, 3e-4])
    assert checks.check_study(_study(workdir, flat, {**ok, "slope": _fit(flat)}))

    bumpy = _study_rows([r["pu_norm"] for r in good], [1e-2, 3e-3, 3e-3, 3e-4])
    assert checks.check_study(_study(workdir, bumpy, ok))

    failed = [dict(r) for r in good]
    failed[3].update(failed=True, pu_norm=math.nan, v_deviation=math.nan)
    assert checks.check_study(_study(workdir, failed, {**ok, "n_failed": 1}))

    assert checks.check_study(_study(workdir, good, {**ok, "slope": ok["slope"] + 0.1}))
