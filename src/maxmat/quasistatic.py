"""The eta-scaled system, its slaved-field limit model, and the decay study.

As eta shrinks, the skew part -(1/eta) B u rotates the divergence-free
field content ever faster while the matter source stays slow, so that
content averages away locally and the field is increasingly enslaved to
the matter: u -> (Id - P)(shift of v), with the shift the system's own
coupling ``SimSystem.source_field(v)``. The limit model integrates the
matter law alone with the slaved field closed over it; its final state
is ``make_initial`` of the final matter state.

The study integrates the scaled system for a decreasing list of eta,
measures the surviving divergence-free field content in a fixed
observation ball, and fits the decay rate against eta on log-log axes.
The runs and the limit model share one thread pool, costliest first.

Torus caveat, by design: the spatial mean of the coupled slot drifts
with the matter and cannot propagate away on a periodic box, so the
measured divergence-free content excludes the zero mode. The mean is the
box's stand-in for radiation that would leave any bounded window in free
space.
"""

from __future__ import annotations

import contextvars
import copy
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import ceil

import numpy as np

from .diagnostics import fit_loglog
from .evolution import (
    IntegratorConfig,
    NumericalAbort,
    SimState,
    SimSystem,
    _rk4_path,
    make_initial,
    run,
)
from .grid import ball_indicator, matter_l2_norm
from .helmholtz import _constant_gradient_hat, _potential_hat, project_complement


def with_eta(system: SimSystem, eta: float) -> SimSystem:
    """Shallow copy of a system with a different time-scale split.

    The workspace and the restricted coefficients are shared read-only.
    The propagator is built by each copy on first use: nothing in the
    package builds it on a system before copying it.
    """
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    out = copy.copy(system)
    out.eta = float(eta)
    return out


def slaved_field(system: SimSystem, v: np.ndarray) -> np.ndarray:
    """Curl-free field enslaved to the matter state, coupled slot only.

    Returns the (3, n, n, n) gradient part of the matter shift; the
    other slot of the limit field is identically zero.
    """
    return project_complement(system.source_field(v), system.kappa, system.ws)


def reduced_rhs(system: SimSystem, v: np.ndarray) -> np.ndarray:
    """Matter tendency with the field closed over the matter state.

    The field is :func:`slaved_field` sampled on the domain, with both of
    its transforms over the domain's bounding box: b = -div(kappa shift)
    from the forward transform of the kappa-weighted source block, and the
    gradient of the potential inverse-transformed on the box alone.
    """
    ws, box = system.ws, system.domain.box
    block = system.source_block(v)
    block *= system.kappa[box]
    b = ws.hermitian_planes(ws.div_hat(ws.forward_box(block, box), -1.0))
    field = system.sample_hat(ws.grad_hat(_potential_hat(b, system.kappa, ws)))
    return system.coupled_tendency(field, v)


@dataclass
class ReducedResult:
    times: np.ndarray        # (S,)
    v_samples: np.ndarray    # (S, dim, m)
    state: SimState          # final time, u = slaved field

    @property
    def v_final(self) -> np.ndarray:
        return self.v_samples[-1]


def run_reduced(
    system: SimSystem,
    v_init: np.ndarray,
    cfg: IntegratorConfig,
    sample_stride: int = 1,
) -> ReducedResult:
    """RK4 on the limit model; emits the matter path and the slaved field.

    The scheme field of ``cfg`` is ignored: the limit model has no stiff
    part, classical RK4 is always used.
    """
    times, samples = _rk4_path(
        lambda w: reduced_rhs(system, w), system.matter_state(v_init),
        cfg.n_steps, cfg.dt, sample_stride,
    )
    final = make_initial(system, samples[-1])
    final.t = cfg.t_end
    return ReducedResult(times=times, v_samples=samples, state=final)


@dataclass(frozen=True)
class EtaStudyConfig:
    eta_list: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025)
    radius: float = 0.25
    t_obs: float = 1.0
    dt: float = 2e-3
    sample_dt: float = 0.02
    stiff_dt_factor: float = 0.025
    scheme: str = "lawson_exp"
    threads: int = 1

    def __post_init__(self):
        if not self.eta_list:
            raise ValueError("eta_list is empty")
        for eta in self.eta_list:
            if not 0 < eta <= 1:
                raise ValueError(f"eta values must lie in (0, 1], got {eta}")
        if any(a <= b for a, b in zip(self.eta_list, self.eta_list[1:])):
            raise ValueError("eta_list must be strictly decreasing")
        if self.radius <= 0:
            raise ValueError(f"observation radius must be positive, got {self.radius}")
        for name in ("dt", "sample_dt", "stiff_dt_factor"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.scheme not in ("rk4", "lawson_exp"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        k = self.t_obs / self.sample_dt
        if abs(round(k) - k) > 1e-9 or round(k) < 1:
            raise ValueError(
                f"t_obs={self.t_obs} must be a positive multiple of sample_dt={self.sample_dt}"
            )
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")


@dataclass
class EtaStudyResult:
    rows: list[dict]
    slope: float | None
    intercept: float | None
    times: np.ndarray
    v_deviation_curves: dict[float, np.ndarray]


def _substeps(sample_dt: float, dt_cap: float) -> tuple[int, float]:
    """(count, length) of the fewest equal sub-steps of ``sample_dt`` no longer than ``dt_cap``."""
    n_sub = max(1, ceil(sample_dt / dt_cap - 1e-12))
    return n_sub, sample_dt / n_sub


def _pu_local_norm(system: SimSystem, state: SimState, ball: np.ndarray) -> float:
    """L2 norm over the ball of the divergence-free part of the state's
    field, zero mode removed; constant coefficients only.

    On constant weights the projection is a multiplier, so it acts on the
    held spectrum (a physical field is forward-transformed first): per
    slot, u minus its curl-free part. One 6-component inverse transform
    follows, so a sample makes 6 scalar transforms from a spectral state
    and 12 from a physical one.
    """
    ws = system.ws
    u_hat = state.spectrum(ws)
    pu_hat = np.empty_like(u_hat)
    for s, kappa in zip((slice(0, 3), slice(3, 6)), (system.coeffs.kappa1, system.coeffs.kappa2)):
        np.subtract(u_hat[s], _constant_gradient_hat(u_hat[s], kappa, ws), out=pu_hat[s])
    pu_hat[:, 0, 0, 0] = 0.0
    return matter_l2_norm(ws.inverse(pu_hat)[:, ball], system.grid)


def _eta_run(
    system: SimSystem,
    state0: SimState,
    eta: float,
    cfg: EtaStudyConfig,
    ball: np.ndarray,
):
    """One scaled run; returns (pu_series, v_samples, dt) on the sample grid.

    Its one monitor records the matter sample and reads ``pu`` from the
    state as held, so the run makes no physical view of the field.
    """
    if not system.coeffs.is_constant:
        raise ValueError("eta study needs constant coefficients")
    sys_eta = with_eta(system, eta)
    stiff_cap = cfg.stiff_dt_factor * eta if cfg.scheme == "lawson_exp" else sys_eta.cfl_limit()
    n_sub, dt = _substeps(cfg.sample_dt, min(cfg.dt, stiff_cap))

    v_samples = []

    def pu(s: SimSystem, st: SimState) -> float:
        v_samples.append(st.v.copy())
        return _pu_local_norm(s, st, ball)

    _, records, _ = run(
        sys_eta, state0, IntegratorConfig(dt, t_end=cfg.t_obs, scheme=cfg.scheme),
        monitors={"pu": pu}, stride=n_sub,
    )
    return np.asarray([r["pu"] for r in records]), np.asarray(v_samples), dt


def eta_convergence_study(
    system: SimSystem, state0: SimState, cfg: EtaStudyConfig
) -> EtaStudyResult:
    """Sweep eta, measure field decay and matter convergence, fit the rate.

    All runs start from the same state. The limit path comes from
    :func:`run_reduced` on the shared initial matter state. Failed runs
    (non-finite states) are recorded and excluded from the fit.

    The eta runs and the limit model share one pool of ``cfg.threads``
    threads, each task in a copy of the caller's context (numpy's error
    state included). The runs are queued costliest first, that is in
    increasing eta, and the limit model last, so that the longest run is
    not the one that ends alone. The queue is first in, first out, so
    once the limit model runs no eta run is left queued. An exception
    from the limit model therefore propagates only after every eta run
    has finished; before the limit model shared the pool it stopped the
    study before any eta run began. Rows and deviation curves are built
    after every run has finished, in ``cfg.eta_list`` order, so the
    output is identical for any thread count.
    """
    c = 0.5 * system.grid.box_len
    ball = ball_indicator(system.grid, (c, c, c), cfg.radius)
    n_samples = int(round(cfg.t_obs / cfg.sample_dt))
    times = cfg.sample_dt * np.arange(n_samples + 1)

    n_sub0, dt0 = _substeps(cfg.sample_dt, cfg.dt)
    red_cfg = IntegratorConfig(dt=dt0, t_end=cfg.t_obs, scheme="rk4")
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:

        def submit(fn, *args):
            return pool.submit(contextvars.copy_context().run, fn, *args)

        # eta_list is strictly decreasing and the step cap is linear in eta,
        # so the reversed list is costliest first
        runs = {
            eta: submit(_eta_run, system, state0, eta, cfg, ball) for eta in cfg.eta_list[::-1]
        }
        reduced = submit(run_reduced, system, state0.v, red_cfg, n_sub0).result()

    rows, curves = [], {}
    for eta in cfg.eta_list:
        try:
            pu_series, v_samples, dt = runs[eta].result()
        except NumericalAbort as exc:
            rows.append({"eta": eta, "failed": True, "error": str(exc)})
            continue
        curves[eta] = np.array(
            [
                matter_l2_norm(v_samples[k] - reduced.v_samples[k], system.grid)
                for k in range(n_samples + 1)
            ]
        )
        rows.append({
            "eta": eta,
            "failed": False,
            "pu_norm": float(np.sqrt(np.trapezoid(pu_series**2, dx=cfg.sample_dt))),
            "v_deviation": float(curves[eta].max()),
            "dt": dt,
        })

    good = [r for r in rows if not r["failed"] and r["pu_norm"] > 0]
    slope = intercept = None
    if len(good) >= 2:
        slope, intercept = fit_loglog([r["eta"] for r in good], [r["pu_norm"] for r in good])
    return EtaStudyResult(
        rows=rows, slope=slope, intercept=intercept, times=times,
        v_deviation_curves=curves,
    )
