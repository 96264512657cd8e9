"""maxmat benchmark: time to solution on four seeded scenario workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nowhere else. The workload's scenario is
generated from ``--seed`` and written under ``.perfbench_out/``; jobs
then run back to back (a closed loop, one job at a time) until
``--seconds`` have passed, each job's outputs are checked, and the last
line of standard output is one JSON object with the metrics.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced jobs and reports the per-layer metrics of the traced
ones, including the tracing overhead; the spans are written to
``.perfbench_out/<workload>/spans.jsonl``. See README.md in this
directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"
# BLAS/OpenMP pools stay at one thread: the sweep's own two worker threads
# already fill both cores, and the other workloads run single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_JOBS = 3          # untraced jobs per run, for the means
MIN_TRACED_JOBS = 2   # traced jobs per run, so counts can be compared
REF_NOMINAL_S = 0.040  # nominal speed-probe time, close to the reference machine's (README.md)
REF_POINTS = 491_520   # grid points per probe: 120 transform pairs at 16^3, 15 at 32^3, 2 at 64^3
PROBE_SAMPLES = 4      # probe timings before each job and after the last


class SetupError(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def bootstrap() -> None:
    """Pin thread pools and import maxmat from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "maxmat" / "__init__.py").is_file():
        raise SetupError(f"no maxmat sources under {src}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import maxmat

    if src.resolve() not in Path(maxmat.__file__).resolve().parents:
        raise SetupError(f"maxmat imported from {maxmat.__file__}, not from {src}")


def environment() -> str:
    """Interpreter, library versions, usable cores and pinned thread pools."""
    import numpy
    import scipy
    import workloads

    pools = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, nproc {workloads.nproc()}, {pools}")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def execute(workload, scn_path: Path, out: Path, tracer=None):
    """Run one job and check its outputs; returns (result or None, problems)."""
    import checks
    import workloads

    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    if tracer is not None:
        tracer.install()
    try:
        result = workloads.run_job(workload, scn_path, out, tracer)
    except Exception:  # a job that raises is a failed job, not a crashed benchmark
        traceback.print_exc(file=sys.stderr)
        return None, ["job raised"]
    finally:
        if tracer is not None:
            tracer.uninstall()
    return result, checks.check_job(result, workload.snapshots)


class SpeedProbe:
    """A fixed numpy FFT kernel at the workload's grid size and thread count,
    timed between jobs.

    The reference machine changes speed by up to 2x in phases of seconds
    to tens of seconds (other tenants share its cores), and every wall
    time of a run moves with it. End-to-end times are therefore reported
    at the probe's nominal speed: multiplied by ``REF_NOMINAL_S`` over
    the mean probe time of the same run. Means, not medians, because the
    phases make both distributions bimodal and a median jumps between
    the modes.
    """

    def __init__(self, n: int, threads: int):
        import numpy as np

        self._fft = np.fft
        rng = np.random.default_rng(0)
        self._fields = [rng.standard_normal((3, n, n, n)) for _ in range(threads)]
        self._reps = max(1, round(REF_POINTS / n ** 3))
        self._pool = ThreadPoolExecutor(threads) if threads > 1 else None
        self.times: list[float] = []
        self.sample()  # warm numpy's FFT plan cache and the fields' pages
        self.times.clear()

    def _kernel(self, field) -> None:
        for _ in range(self._reps):
            self._fft.irfftn(self._fft.rfftn(field, axes=(-3, -2, -1)),
                             s=field.shape[1:], axes=(-3, -2, -1))

    def sample(self) -> None:
        """Time the kernel ``PROBE_SAMPLES`` times, once per thread in parallel."""
        for _ in range(PROBE_SAMPLES):
            t0 = perf_counter()
            if self._pool is None:
                self._kernel(self._fields[0])
            else:
                for future in [self._pool.submit(self._kernel, f) for f in self._fields]:
                    future.result()
            self.times.append(perf_counter() - t0)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def factor(self) -> float:
        return REF_NOMINAL_S / statistics.fmean(self.times)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """The closed loop: jobs back to back for ``seconds``, then the summary."""
    import spans as spans_mod
    import workloads

    workload = workloads.WORKLOADS[name]
    out_root = OUT_ROOT / name
    if out_root.exists():
        shutil.rmtree(out_root)
    out_root.mkdir(parents=True)
    scn_path, scenario = workloads.write_scenario(workload, seed, out_root)
    print(f"{name} seed {seed} (sets {workload.seeded}); {environment()}", file=sys.stderr)
    probe = SpeedProbe(scenario["grid"]["n"], workload.threads)
    tracer = spans_mod.Tracer() if trace else None
    jobs = []      # (traced, result, problems)
    start = perf_counter()
    try:
        while True:
            traced = trace and len(jobs) % 2 == 1
            if tracer is not None:
                tracer.job = len(jobs)
            probe.sample()
            result, problems = execute(workload, scn_path, out_root / "job",
                                       tracer if traced else None)
            if result is not None:
                print(f"job {len(jobs)}{' traced' if traced else ''}: "
                      f"set-up {result.setup_s:.4f} s, solve {result.solve_s:.4f} s, "
                      f"probe {statistics.fmean(probe.times[-PROBE_SAMPLES:]):.4f} s",
                      file=sys.stderr)
                result.final = result.scenario = None  # keep timings, not arrays
            for p in problems:
                print(f"job {len(jobs)}: {p}", file=sys.stderr)
            jobs.append((traced, result, problems))
            n_plain = sum(1 for t, *_ in jobs if not t)
            n_traced = len(jobs) - n_plain
            if (perf_counter() - start >= seconds and n_plain >= MIN_JOBS
                    and (not trace or n_traced >= MIN_TRACED_JOBS)):
                break
        probe.sample()
    finally:
        probe.close()
    shutil.rmtree(out_root / "job")
    summary = summarize(jobs, probe.factor())
    if trace:
        summary["metrics"], counts_repeat = _trace_metrics(jobs, tracer, out_root, probe)
        summary["correct"] = summary["correct"] and counts_repeat
    return summary


def summarize(jobs: list, speed: float = 1.0) -> dict:
    """Attempted and failed jobs, and the end-to-end metrics of the untraced ones.

    ``speed`` rescales the wall times to the probe's nominal speed.
    """
    attempted = len(jobs)
    failed = sum(1 for _, result, problems in jobs if result is None or problems)
    plain = [result for traced, result, problems in jobs
             if not traced and result is not None and not problems]

    def mean(values):
        values = list(values)
        return speed * statistics.fmean(values) if values else 0.0

    metrics = {
        "setup_s": _metric(mean(r.setup_s for r in plain), "s"),
        "solve_s": _metric(mean(r.solve_s for r in plain), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_frac": _metric((attempted - failed) / attempted, "frac"),
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


COUNT_UNITS = {
    "evolution.steps": "count",
    "spectral.fft_calls_per_step": "count",
    "spectral.fft_transforms_per_step": "count",
    "spectral.fft_bytes_per_step_computed": "bytes",
    "spectral.propagator_calls_per_step": "count",
    "models.eval_F_calls_per_step": "count",
    "helmholtz.pcg_solves": "count",
    "helmholtz.pcg_iters_per_solve": "count",
    "diagnostics.monitor_samples": "count",
    "grid.snapshot_bytes": "bytes",
    "trace.spans": "count",
}


def _unit(name: str) -> str:
    if name in COUNT_UNITS:
        return COUNT_UNITS[name]
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_gflops_computed"):
        return "GFLOP/s"
    if name in ("helmholtz.constraint_resid_max", "quasistatic.parallel_eff"):
        return "ratio"
    return "share"


def _trace_metrics(jobs, tracer, out_root: Path, probe: SpeedProbe) -> tuple[dict, bool]:
    """Per-layer medians over the traced jobs, and whether the counts repeated exactly."""
    import spans as spans_mod
    import workloads

    threads = workloads.nproc()
    by_job: dict[int, list] = {}
    for s in tracer.spans:
        by_job.setdefault(s[5], []).append(s)
    counts, times = [], []
    for k, (traced, result, problems) in enumerate(jobs):
        if not traced or result is None:
            continue
        c, t = spans_mod.analyse_job(by_job[k], threads)
        c["grid.snapshot_bytes"] = result.snapshot_bytes
        t["helmholtz.constraint_resid_max"] = result.constraint_max
        counts.append(c)
        times.append(t)
    with open(out_root / "spans.jsonl", "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                                 "parent": s[4], "run": s[5], "extra": s[6]}) + "\n")
    differ = any(c != counts[0] for c in counts[1:])
    if differ:
        print(f"counts differ between traced jobs: {counts}", file=sys.stderr)
    plain = [r.solve_s for traced, r, p in jobs if not traced and r is not None]
    metrics = {k: _metric(v, _unit(k)) for k, v in counts[0].items()} if counts else {}
    for key in (times[0] if times else {}):
        metrics[key] = _metric(statistics.median(t[key] for t in times), _unit(key))
    if times and plain:
        metrics["trace.overhead_s"] = _metric(
            metrics["trace.solve_s"]["value"] - statistics.median(plain), "s")
    metrics["trace.probe_ms"] = _metric(1e3 * statistics.fmean(probe.times), "ms")
    return metrics, bool(counts) and not differ


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        bootstrap()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
