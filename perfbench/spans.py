"""Out-of-program tracing: wrap the public entry points of each maxmat layer.

Nothing in ``src/`` knows about this module. :class:`Tracer` replaces
functions and methods with timing wrappers for the duration of one job
and puts the originals back afterwards. A function that another module
bound at import (``from .spectral import apply_B``) is replaced in every
``maxmat.*`` module that holds the same object, so calls through the
import alias are traced too.

Each call becomes a span ``(id, name, start, end, parent, job, extra)``
kept in memory; ``extra`` carries exact work counts where the layer has
one (scalar 3-D transforms and bytes touched for an FFT call). A span's
parent is the innermost open span of its own thread, or, for a pool
worker with nothing open yet, the innermost open span of the main
thread, so the eta runs of the sweep hang under the sweep.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import sys
import threading
from time import perf_counter

# Functions wrapped in a traced job, by the maxmat module (layer) that
# defines them. A dotted name is a method of a class in that module.
TRACED = {
    "scenario": ["load_scenario", "Scenario.build_system", "Scenario.initial_state",
                 "band_limited_field"],
    "evolution": ["run", "step", "_rk4_step", "_lawson_step", "make_initial",
                  "SimSystem.tendencies", "SimSystem.matter_tendency",
                  "SimSystem.matter_to_field", "SimSystem.constraint_residual"],
    "spectral": ["FourierWorkspace.forward", "FourierWorkspace.inverse", "apply_B", "curl",
                 "FreePropagator.apply", "FreePropagator.apply_hat"],
    "helmholtz": ["project_complement", "project_P", "project_complement_state",
                  "constraint_residual"],
    "models": ["LandauLifschitzModel.eval_F", "BlochModel.eval_F",
               "LandauLifschitzModel.source_from_matter", "BlochModel.source_from_matter"],
    "quasistatic": ["eta_convergence_study", "_eta_run", "run_reduced", "reduced_rhs",
                    "slaved_field", "_pu_local_norm"],
    "diagnostics": ["standard_monitors", "to_monitor_records", "ll_energy", "write_csv"],
    "grid": ["extend_by_zero", "restrict_to_domain", "weighted_norm", "weighted_inner",
             "matter_l2_norm", "save_fields"],
}

SOLVE_LAYERS = [layer for layer in TRACED if layer != "scenario"]
FFT_NAMES = ("spectral.FourierWorkspace.forward", "spectral.FourierWorkspace.inverse")
STEP_NAMES = ("evolution._rk4_step", "evolution._lawson_step")


def _fft_work(args, out):
    """Computed work of one workspace FFT call.

    Returns (scalar 3-D transforms, bytes read + written, flops), with a
    real transform of N = n^3 points counted as 2.5 N log2 N flops.
    """
    ws, arr = args[0], args[1]
    real = arr if arr.dtype.kind == "f" else out
    size = ws.grid.n ** 3
    transforms = real.size // size
    return (transforms, arr.nbytes + out.nbytes, 2.5 * size * math.log2(size) * transforms)


class Tracer:
    """Span recorder that patches the traced layers while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.job = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack and stack is not self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of benchmark code."""
        stack, sid, parent = self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self.job, None))

    def wrap(self, name: str, fn, work=None):
        """Timing wrapper for ``fn``; ``work(args, result)`` fills the extra field."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, sid, parent = tracer._open()
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            extra = work(args, out) if work is not None else None
            tracer.spans.append((sid, name, t0, t1, parent, tracer.job, extra))
            return out

        return wrapper

    def wrap_monitors(self, monitors: dict) -> dict:
        """Monitor callables are closures built per run; wrap them one by one."""
        return {k: self.wrap(f"diagnostics.monitor.{k}", fn) for k, fn in monitors.items()}

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: sys.modules[f"maxmat.{name}"] for name in TRACED}
        for layer, attrs in TRACED.items():
            mod = modules[layer]
            for attr in attrs:
                name = f"{layer}.{attr}"
                work = _fft_work if name in FFT_NAMES else None
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._patch(cls, meth, orig, self.wrap(name, orig, work))
                    continue
                orig = getattr(mod, attr)
                wrapped = self.wrap(name, orig, work)
                for other in modules.values():
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            self._patch(other, key, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover.

    Children running concurrently in other threads may overlap; their
    union is what is subtracted.
    """
    children: dict[int, list[tuple]] = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append(s)
    out = {}
    for sid, _, t0, t1, *_ in spans:
        covered = 0.0
        end = t0
        for c in sorted(children.get(sid, ()), key=lambda c: c[2]):
            lo, hi = max(c[2], end), min(c[3], t1)
            if hi > lo:
                covered += hi - lo
                end = hi
        out[sid] = (t1 - t0) - covered
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


PCG_FIXED_TRANSFORMS = 8      # source divergence, first preconditioner, final gradient
PCG_TRANSFORMS_PER_ITER = 10  # operator (8) + preconditioner (2); the last skips the latter
CONST_BRANCH_TRANSFORMS = 6   # forward and inverse of one 3-vector


def analyse_job(spans: list[tuple], threads: int) -> tuple[dict, dict]:
    """Per-layer numbers of one traced job: (exact counts, times and shares).

    ``spans`` are the spans of one job, rooted at ``job.setup`` and
    ``job.solve``. Shares are fractions of the traced solve time.
    """
    by_id = {s[0]: s for s in spans}
    own = self_times(spans)
    roots = {s[1]: s for s in spans if s[4] is None}
    solve = roots["job.solve"]
    solve_s = solve[3] - solve[2]

    def nearest(sid, names):
        """Nearest ancestor (or the span itself) whose name is in ``names``."""
        while sid is not None:
            s = by_id[sid]
            if s[1] in names:
                return s
            sid = s[4]
        return None

    in_solve = [s for s in spans if nearest(s[0], ("job.solve",)) is not None]
    solve_ids = {s[0] for s in in_solve}
    step_of = {s[0]: nearest(s[0], STEP_NAMES) for s in in_solve}
    steps = [s for s in in_solve if s[1] in STEP_NAMES]
    n_steps = len(steps)

    def named(name, pool=in_solve):
        return [s for s in pool if s[1] == name]

    def dur(group):
        return sum(s[3] - s[2] for s in group)

    def self_sum(group):
        return sum(own[s[0]] for s in group)

    ffts = [s for s in in_solve if s[1] in FFT_NAMES]
    step_ffts = [s for s in ffts if step_of[s[0]] is not None]
    step_evals = [s for s in in_solve if s[1].endswith(".eval_F") and step_of[s[0]] is not None]

    # Scalar transforms nested in each projector call give its PCG iterations.
    transforms_under: dict[int, int] = {}
    for s in spans:
        if s[1] in FFT_NAMES:
            proj = nearest(s[0], ("helmholtz.project_complement",))
            if proj is not None:
                transforms_under[proj[0]] = transforms_under.get(proj[0], 0) + s[6][0]
    projections = [s for s in spans if s[1] == "helmholtz.project_complement"]
    # Fewer than 6 transforms is a zero source, returned before any solve.
    pcg = [s for s in projections if transforms_under.get(s[0], 0) > CONST_BRANCH_TRANSFORMS]
    const = [s for s in projections if transforms_under.get(s[0], 0) == CONST_BRANCH_TRANSFORMS]
    pcg_iters = [(transforms_under[s[0]] - PCG_FIXED_TRANSFORMS) / PCG_TRANSFORMS_PER_ITER
                 for s in pcg]

    def per_step(x):
        return x / n_steps if n_steps else 0.0

    counts = {
        "evolution.steps": n_steps,
        "spectral.fft_calls_per_step": per_step(len(step_ffts)),
        "spectral.fft_transforms_per_step": per_step(sum(s[6][0] for s in step_ffts)),
        "spectral.fft_bytes_per_step_computed": per_step(sum(s[6][1] for s in step_ffts)),
        "spectral.propagator_calls_per_step": per_step(
            sum(1 for s in in_solve if s[1] == "spectral.FreePropagator.apply_hat"
                and step_of[s[0]] is not None)),
        "models.eval_F_calls_per_step": per_step(len(step_evals)),
        "helmholtz.pcg_solves": len(pcg),
        "helmholtz.pcg_iters_per_solve": sum(pcg_iters) / len(pcg_iters) if pcg_iters else 0.0,
        "diagnostics.monitor_samples": len(named("diagnostics.monitor.constraint")),
        "trace.spans": len(spans),
    }

    step_ms = sorted(1e3 * (s[3] - s[2]) for s in steps)
    evals = [s for s in in_solve if s[1].endswith(".eval_F")]
    fft_time = dur(ffts)
    times = {
        "scenario.load_ms": 1e3 * dur(named("scenario.load_scenario", spans)),
        "evolution.make_initial_ms": 1e3 * dur(named("evolution.make_initial", spans)),
        "evolution.step_ms_p50": _percentile(step_ms, 50),
        "evolution.step_ms_p90": _percentile(step_ms, 90),
        "evolution.step_self_ms": 1e3 * per_step(
            self_sum(steps) + self_sum(named("evolution.step"))),
        "spectral.fft_ms_per_step": 1e3 * per_step(dur(step_ffts)),
        "spectral.fft_gflops_computed": (
            sum(s[6][2] for s in ffts) / fft_time / 1e9 if fft_time > 0 else 0.0),
        "spectral.propagator_share": self_sum(named("spectral.FreePropagator.apply_hat")) / solve_s,
        "spectral.apply_B_share": (self_sum(named("spectral.apply_B"))
                                   + self_sum(named("spectral.curl"))) / solve_s,
        "helmholtz.pcg_share": dur([s for s in pcg if s[0] in solve_ids]) / solve_s,
        "helmholtz.const_share": dur([s for s in const if s[0] in solve_ids]) / solve_s,
        "models.eval_F_ms_per_call": 1e3 * dur(evals) / len(evals) if evals else 0.0,
        "models.source_ms": 1e3 * dur([s for s in in_solve if s[1].endswith(".source_from_matter")]),
        "diagnostics.monitor_share": dur([s for s in in_solve
                                          if s[1].startswith("diagnostics.monitor.")]) / solve_s,
        "diagnostics.csv_ms": 1e3 * dur(named("diagnostics.write_csv")),
        "grid.restrict_extend_ms": 1e3 * (dur(named("grid.restrict_to_domain"))
                                          + dur(named("grid.extend_by_zero"))),
        "grid.weighted_norm_ms": 1e3 * sum(self_sum(named(f"grid.{f}")) for f in
                                           ("weighted_norm", "weighted_inner", "matter_l2_norm")),
        "grid.snapshot_share": dur(named("grid.snapshot")) / solve_s,
    }
    times.update(_sweep_numbers(named, threads))
    layer_self: dict[str, float] = {}
    for s in in_solve:
        layer_self[layer_of(s[1])] = layer_self.get(layer_of(s[1]), 0.0) + own[s[0]]
    for layer in SOLVE_LAYERS:
        times[f"layer.{layer}_self_share"] = layer_self.get(layer, 0.0) / solve_s
    times["trace.self_sum_share"] = sum(
        v for layer, v in layer_self.items() if layer != "job") / solve_s
    times["trace.solve_s"] = solve_s
    return counts, times


def _sweep_numbers(named, threads: int) -> dict:
    """Critical path, limit-model share, waiting and efficiency of the eta sweep."""
    sweeps = named("quasistatic.eta_convergence_study")
    keys = ("eta_run_max_share", "reduced_share", "pu_norm_share", "pool_wait_share",
            "parallel_eff")
    if not sweeps:
        return {f"quasistatic.{k}": 0.0 for k in keys}
    sweep = sweeps[0]
    wall = sweep[3] - sweep[2]
    runs = [s for s in named("quasistatic._eta_run") if s[4] == sweep[0]]
    reduced = [s for s in named("quasistatic.run_reduced") if s[4] == sweep[0]]
    submitted = max(s[3] for s in reduced) if reduced else sweep[2]
    busy = sum(s[3] - s[2] for s in runs)
    return {
        "quasistatic.eta_run_max_share": max(s[3] - s[2] for s in runs) / wall,
        "quasistatic.reduced_share": sum(s[3] - s[2] for s in reduced) / wall,
        "quasistatic.pu_norm_share": sum(
            s[3] - s[2] for s in named("quasistatic._pu_local_norm")) / wall,
        "quasistatic.pool_wait_share": sum(max(0.0, s[2] - submitted) for s in runs) / wall,
        "quasistatic.parallel_eff": busy / (threads * wall),
    }


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    k = min(len(sorted_values) - 1, max(0, math.ceil(q / 100 * len(sorted_values)) - 1))
    return sorted_values[k]
