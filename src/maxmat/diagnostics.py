"""Run monitors, the magnetization energy balance, and CSV output.

Monitors are callables (system, state) -> float, assembled per model so a
run's CSV carries the quantities its theory actually constrains: weighted
field norm, matter norms, constraint residual, and model-specific checks
(magnetization modulus drift, density-matrix trace drift). They read the
field through the form-aware readers of ``SimSystem``, so a sample of a
spectral state makes no whole-grid transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .grid import matter_l2_norm
from .models import BlochModel, LandauLifschitzModel


@dataclass(frozen=True)
class MonitorRecord:
    """One sampled row of run diagnostics; rejects non-finite entries."""

    t: float
    step: int
    values: dict

    def __post_init__(self):
        bad = [k for k, x in self.values.items() if not math.isfinite(x)]
        if not math.isfinite(self.t) or bad:
            raise ValueError(f"non-finite monitor values at t={self.t}: {bad}")

    def row(self) -> dict:
        return {"t": self.t, "step": self.step, **self.values}


def to_monitor_records(records: list[dict]) -> list[MonitorRecord]:
    """Wrap raw run records, enforcing finiteness of every column."""
    out = []
    for r in records:
        vals = {k: v for k, v in r.items() if k not in ("t", "step")}
        out.append(MonitorRecord(t=r["t"], step=r["step"], values=vals))
    return out


def ll_energy(system, state) -> tuple[float, float]:
    """Field-plus-matter energy and its instantaneous dissipation rate.

    Energy: half the weighted field norm squared, plus the domain
    integral of mu times (anisotropy energy + half |H_app - M|^2). The
    rate is damping/(damping^2 + gyro^2) times the weighted square norm
    of the current matter tendency; with unit-modulus magnetization the
    continuous-time balance energy(t) + integral of rate = energy(0) is
    exact.
    """
    if not isinstance(system.model, LandauLifschitzModel):
        raise TypeError("energy balance is defined for the magnetization model only")
    return _ll_energy(system, state), _ll_dissipation_rate(system, state)


def _ll_energy(system, state) -> float:
    model, v = system.model, state.v
    m_perp_sq = np.einsum("cm,cm->m", v, v) - np.einsum("c,cm->m", model.axis_unit, v) ** 2
    mismatch = model.applied_field[:, None] - v
    density = 0.5 * model.aniso * m_perp_sq + 0.5 * np.einsum("cm,cm->m", mismatch, mismatch)
    em_sq = system.em_norm(state) ** 2
    return 0.5 * em_sq + float(np.sum(system.kappa_d * density)) * system.grid.cell_volume


def _ll_dissipation_rate(system, state) -> float:
    model = system.model
    f = system.coupled_tendency(system.coupled_field(state), state.v)
    weight = model.damping / (model.damping**2 + model.gyro**2)
    f_sq = float(np.sum(system.kappa_d * np.einsum("cm,cm->m", f, f)))
    return weight * f_sq * system.grid.cell_volume


def dissipation_integral(rate_series: np.ndarray, dt: float) -> float:
    """Time integral of per-step rate samples (quadrature order matches rk4)."""
    return float(simpson(rate_series, dx=dt))


def bound_monitor(records: list[MonitorRecord], growth_bound: float) -> float:
    """Worst ratio of sup|v| against the growth envelope from the first record.

    Records must carry a ``v_sup`` column. A trajectory that is zero
    throughout scores 0; a zero start with a later nonzero state scores
    infinity.
    """
    v0 = records[0].values["v_sup"]
    t0 = records[0].t
    worst = 0.0
    for rec in records:
        v = rec.values["v_sup"]
        if v0 == 0.0:
            if v > 0.0:
                return float("inf")
            continue
        worst = max(worst, v / (v0 * math.exp(growth_bound * (rec.t - t0))))
    return worst


def sup_norm(v: np.ndarray) -> float:
    """Pointwise sup norm: the largest per-voxel Euclidean norm of a (d, m) array."""
    return float(np.sqrt(np.einsum("dm,dm->m", v, v).max()))


def standard_monitors(system, v_init: np.ndarray) -> dict:
    """Named monitor callables for a run's CSV, chosen per model."""
    mons = {
        "em_norm": lambda sys_, s: sys_.em_norm(s),
        "v_l2": lambda sys_, s: matter_l2_norm(s.v, sys_.grid),
        "v_sup": lambda sys_, s: sup_norm(s.v),
        "constraint": lambda sys_, s: sys_.constraint_residual(s),
    }
    model = system.model
    if isinstance(model, LandauLifschitzModel):
        mod0 = np.sqrt(np.einsum("dm,dm->m", v_init, v_init))
        mons["m_modulus_dev"] = lambda sys_, s: float(
            np.abs(np.sqrt(np.einsum("dm,dm->m", s.v, s.v)) - mod0).max()
        )
        mons["energy"] = _ll_energy
        mons["dissipation_rate"] = _ll_dissipation_rate
    if isinstance(model, BlochModel):
        n = model.n_levels
        trace0 = v_init[:n].sum(axis=0).copy()
        mons["trace_dev"] = lambda sys_, s: float(
            np.abs(s.v[:n].sum(axis=0) - trace0).max()
        )
        mons["rho_frobenius"] = lambda sys_, s: sup_norm(s.v)
    return mons


def fit_loglog(x, y) -> tuple[float, float]:
    """Least-squares slope and intercept of log y against log x."""
    lx, ly = np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(intercept)


CSV_SCHEMA_VERSION = "v1"


def write_csv(path, rows: list[dict], schema: str) -> None:
    """Write rows with a versioned schema comment and a fixed column order.

    Floats are rendered with repr (shortest round-trip), so identical
    inputs give byte-identical files.
    """
    if not rows:
        raise ValueError("refusing to write an empty CSV")
    columns = list(rows[0].keys())
    lines = [f"# schema: {schema}-{CSV_SCHEMA_VERSION}", ",".join(columns)]
    for row in rows:
        if set(row.keys()) != set(columns):
            raise ValueError(f"ragged CSV row: {sorted(row)} vs {sorted(columns)}")
        lines.append(",".join(_render(row[c]) for c in columns))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _render(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)
