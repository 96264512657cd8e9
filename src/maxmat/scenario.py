"""Scenario files: one nested key-value config fully determines a run.

The loader is strict by design. Each section is read by one schema table
of key -> (converter, default). Unknown, missing, mistyped, non-finite or
out-of-range values raise :class:`ConfigError` naming the full key path,
and value errors from the dataclasses built from a section are re-raised
under its name, so a bad file never gets as far as allocating fields.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .evolution import FixedPointConfig, IntegratorConfig, SimState, SimSystem
from .evolution import _check_cfl, make_initial
from .grid import Coefficients, DomainMask, Grid3, ball_indicator, ball_mask, box_mask
from .models import BlochModel, LandauLifschitzModel, MatterModel, check_level_count, pack_rho
from .quasistatic import EtaStudyConfig
from .spectral import FourierWorkspace


class ConfigError(Exception):
    """A scenario file problem; ``key`` is the offending key path."""

    def __init__(self, key: str, reason: str):
        self.key = key
        super().__init__(f"{key}: {reason}")


# Peak memory of one run per grid point, from the growth of the process's
# peak resident size with n on the benchmark jobs: about 500 bytes per
# point for the Lawson run (16^3 to 64^3; the whole 64^3 benchmark process
# peaks near 215 MB) and the smooth-coefficient rk4 run (16^3 to 32^3),
# and 940 for the 2-thread eta sweep (16^3 to 32^3). 1024 bytes is 128
# float64 values.
RUN_BYTES_PER_POINT = 1024
# Largest estimated working set (RUN_BYTES_PER_POINT * n^3) a scenario
# may ask for: 128^3 (2 GiB) passes, 256^3 (16 GiB) does not.
GRID_BUDGET_BYTES = 4 * 2**30
# Peak memory of the mollified construction per Fourier mode n^2 (n/2 + 1)
# per quadrature node (two trajectories of 6-component spectra, one phase
# tuple): tracemalloc on ll_mollified (16^3) peaks at 24.4 MB with 40 steps
# and 46.7 MB with 80, 250-259 bytes each. 256 bytes is 32 float64 values.
FIXED_POINT_BYTES_PER_MODE_NODE = 256


# Schema defaults besides plain values: the key must be present, or an absent
# key is left out so the dataclass built from the section supplies its default.
REQUIRED = object()
OMIT = object()


def _read(sec, path, spec):
    """Read the section ``sec`` by ``spec``: key -> (converter, default).

    Returns the converted values by key; absent keys get their default,
    or are left out when the default is :data:`OMIT`.
    """
    for key in sec:
        if key not in spec:
            raise ConfigError(f"{path}{key}", f"unknown key; expected one of {sorted(spec)}")
    out = {}
    for key, (convert, default) in spec.items():
        if key in sec:
            out[key] = convert(sec[key], f"{path}{key}")
        elif default is REQUIRED:
            raise ConfigError(f"{path}{key}", "missing required key")
        elif default is not OMIT:
            out[key] = default
    return out


def _variant(sec, path, key, variants, default=REQUIRED):
    """The spec for the variant that ``sec[key]`` names (``default`` when
    absent): the variant's keys plus ``key`` itself."""
    tag = sec.get(key, default)
    if tag is REQUIRED:
        raise ConfigError(f"{path}{key}", "missing required key")
    return {key: (_as_str, default), **variants[_as_str(tag, f"{path}{key}", variants)]}


def _within_budget(key: str, what: str, need: int) -> None:
    """ConfigError naming ``key`` when ``what`` needs more than GRID_BUDGET_BYTES."""
    if need > GRID_BUDGET_BYTES:
        raise ConfigError(key, f"{what} needs about {need / 2**30:.3g} GiB,"
                               f" above the {GRID_BUDGET_BYTES / 2**30:g} GiB budget")


@contextmanager
def _under(key):
    """Re-raise a constructor's ValueError as a ConfigError naming ``key``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from exc


def _build(cls, sec, key, spec):
    """``cls`` from the section ``key`` read by ``spec`` (None for an absent section)."""
    if sec is None:
        return None
    with _under(key):
        return cls(**_read(sec, f"{key}.", spec))


def _as_float(val, path):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(path, f"expected a number, got {val!r}")
    if not abs(val) <= sys.float_info.max:
        raise ConfigError(path, f"expected a finite number, got {val!r}")
    return float(val)


def _as_int(val, path):
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(path, f"expected an integer, got {val!r}")
    if abs(val) > 2**53:
        raise ConfigError(path, "integer magnitude exceeds 2**53")
    return int(val)


def _as_str(val, path, choices=None):
    if not isinstance(val, str):
        raise ConfigError(path, f"expected a string, got {val!r}")
    if choices is not None and val not in choices:
        raise ConfigError(path, f"must be one of {sorted(choices)}, got {val!r}")
    return val


def _as_mapping(val, path):
    if not isinstance(val, dict):
        raise ConfigError(path, f"expected a mapping, got {type(val).__name__}")
    return val


def _list_of(convert, length=None):
    """A non-empty list (of exactly ``length`` items if given), as a tuple."""

    def read(val, path):
        if not isinstance(val, (list, tuple)) or not val or len(val) != (length or len(val)):
            count = length or "one or more"
            raise ConfigError(path, f"expected a list of {count} values, got {val!r}")
        return tuple(convert(v, path) for v in val)

    return read


def _checked(convert, ok, what):
    """``convert`` followed by the range check ``ok``, described by ``what``."""

    def read(val, path):
        out = convert(val, path)
        if not ok(out):
            raise ConfigError(path, f"must be {what}, got {out!r}")
        return out

    return read


_vec3 = _list_of(_as_float, 3)
_floats = _list_of(_as_float)
_positive = _checked(_as_float, lambda x: x > 0, "positive")
_positive_int = _checked(_as_int, lambda i: i >= 1, ">= 1")
_amplitude = _checked(_as_float, lambda a: 1.0 + min(a, 0.0) >= 0.05, ">= -0.95")
_direction = _checked(_vec3, lambda d: 0.0 < np.linalg.norm(d) < np.inf, "a nonzero vector")
_pair = _checked(_list_of(_as_int, 2), lambda p: min(p) >= 0 and p[0] != p[1], "distinct and >= 0")


def _levels(val, path):
    """Level energies; the count is checked before anything is converted or built."""
    if isinstance(val, (list, tuple)):
        with _under(path):
            check_level_count(len(val))
    return _floats(val, path)


def _coupling(val, path):
    return (_floats if isinstance(val, (list, tuple)) else _as_float)(val, path)


def _smooth_indicator(grid: Grid3, center, radius: float, width: float) -> np.ndarray:
    """Ball indicator circularly convolved with a normalized compact bump.

    The result lives in [0, 1], equals 1 deep inside the ball and 0 far
    outside, and is as smooth as the sampling allows.
    """
    ind = ball_indicator(grid, center, radius).astype(float)
    xx, yy, zz = grid.meshgrid()
    L = grid.box_len
    dx = np.minimum(xx, L - xx)
    dy = np.minimum(yy, L - yy)
    dz = np.minimum(zz, L - zz)
    s2 = (dx**2 + dy**2 + dz**2) / width**2
    kern = np.zeros(grid.shape)
    inside = s2 < 1.0
    kern[inside] = np.exp(-1.0 / (1.0 - s2[inside]))
    total = kern.sum()
    if total <= 0.0:
        raise ConfigError("coefficients.width", "mollification width narrower than one cell")
    kern /= total
    ws = FourierWorkspace(grid)
    return np.clip(ws.inverse(ws.forward(ind) * ws.forward(kern)), 0.0, 1.0)


def _ladder_dipole(levels, coupling, polarization):
    n = len(levels)
    d = np.zeros((3, n, n), dtype=complex)
    for j, strength in enumerate(coupling):
        for a in range(3):
            d[a, j, j + 1] = polarization[a] * strength
            d[a, j + 1, j] = polarization[a] * strength
    return d


_COEFFICIENT_PROFILES = {
    "constant": {"kappa1": (_positive, 1.0), "kappa2": (_positive, 1.0)},
    "smooth_bump": {
        "center": (_vec3, (0.5, 0.5, 0.5)),
        "radius": (_positive, REQUIRED), "width": (_positive, REQUIRED),
        "amplitude1": (_amplitude, 0.0), "amplitude2": (_amplitude, 0.0),
    },
}


def _build_coefficients(sec, grid: Grid3) -> Coefficients:
    path = "coefficients."
    vals = _read(sec, path, _variant(sec, path, "profile", _COEFFICIENT_PROFILES))
    if vals.pop("profile") == "constant":
        return Coefficients.constant(grid, **vals)
    bump = _smooth_indicator(grid, vals["center"], vals["radius"], vals["width"])
    return Coefficients(1.0 + vals["amplitude1"] * bump, 1.0 + vals["amplitude2"] * bump)


_DOMAIN_SHAPES = {
    "box": {"center": (_vec3, REQUIRED), "half_extent": (_vec3, REQUIRED)},
    "ball": {"center": (_vec3, REQUIRED), "radius": (_positive, REQUIRED)},
}


def _build_domain(sec, grid: Grid3) -> DomainMask:
    vals = _read(sec, "domain.", _variant(sec, "domain.", "shape", _DOMAIN_SHAPES))
    make_mask = box_mask if vals.pop("shape") == "box" else ball_mask
    with _under("domain"):
        return make_mask(grid, **vals)


_MODEL_KINDS = {
    "landau_lifschitz": {
        "gyro": (_as_float, REQUIRED), "damping": (_as_float, REQUIRED),
        "aniso": (_as_float, OMIT), "axis": (_vec3, OMIT), "h_ext": (_vec3, OMIT),
    },
    "bloch": {
        "levels": (_levels, REQUIRED),
        "coupling": (_coupling, 1.0), "polarization": (_vec3, (1.0, 0.0, 0.0)),
        "relax": (_as_float, OMIT),
    },
}


def _build_model(sec) -> MatterModel:
    vals = _read(sec, "model.", _variant(sec, "model.", "kind", _MODEL_KINDS))
    with _under("model"):
        if vals.pop("kind") == "landau_lifschitz":
            return LandauLifschitzModel(**vals)
        levels, coupling = vals.pop("levels"), vals.pop("coupling")
        if not isinstance(coupling, tuple):
            coupling = (coupling,) * (len(levels) - 1)
        elif len(coupling) != len(levels) - 1:
            raise ConfigError("model.coupling", "need one coupling per adjacent level pair")
        dipole = _ladder_dipole(levels, coupling, vals.pop("polarization"))
        return BlochModel(levels=levels, dipole=dipole, **vals)


@dataclass
class InitialSpec:
    """Initial matter profile and field seed; see _MATTER_PROFILES and _FIELD_SEEDS."""

    matter: str
    u_seed: str
    direction: np.ndarray = (0.0, 0.0, 1.0)  # normalized on construction
    tilt: float = 0.5
    winding: int = 1
    pair: tuple[int, int] = (0, 1)
    seed: int = 0
    band: int = 4
    amplitude: float = 0.1

    def __post_init__(self):
        self.direction = np.asarray(self.direction, dtype=float) / np.linalg.norm(self.direction)


# Initial-data keys by variant: ``matter`` (per model kind) and ``u_seed``.
_MATTER_PROFILES = {
    LandauLifschitzModel: {
        "uniform": {"direction": (_direction, OMIT)},
        "modulated": {
            "tilt": (_checked(_as_float, lambda x: 0.0 <= x < 1.0, "in [0, 1)"), OMIT),
            "winding": (_as_int, OMIT),
        },
    },
    BlochModel: {"ground": {}, "coherent": {"pair": (_pair, OMIT)}},
}
_FIELD_SEEDS = {
    "zero": {},
    "random_band": {
        "seed": (_checked(_as_int, lambda i: i >= 0, ">= 0"), OMIT),
        "band": (_positive_int, OMIT), "amplitude": (_as_float, OMIT),
    },
}


def _build_initial(sec, model: MatterModel) -> InitialSpec:
    path = "initial."
    vals = _read(sec, path, {
        **_variant(sec, path, "matter", _MATTER_PROFILES[type(model)]),
        **_variant(sec, path, "u_seed", _FIELD_SEEDS, default="zero"),
    })
    if "pair" in vals and max(vals["pair"]) >= model.n_levels:
        raise ConfigError(f"{path}pair", f"level index out of range for {model.n_levels} levels")
    return InitialSpec(**vals)


_GRID = {"n": (_as_int, REQUIRED), "box_len": (_as_float, OMIT)}
_INTEGRATOR = {
    "dt": (_as_float, REQUIRED), "t_end": (_as_float, REQUIRED), "scheme": (_as_str, OMIT),
    "monitor_stride": (_positive_int, 1),
}
_QUASISTATIC = {
    "eta_list": (_floats, OMIT),
    **{key: (_positive, OMIT) for key in ("radius", "t_obs", "dt", "sample_dt", "stiff_dt_factor")},
    "scheme": (_as_str, OMIT),
}
_FIXED_POINT = {
    "n_mol": (_as_int, REQUIRED), "window": (_as_float, REQUIRED), "n_steps": (_as_int, REQUIRED),
    "tol": (_as_float, OMIT), "max_iter": (_as_int, OMIT),
}


def modulated_magnetization(domain: DomainMask, tilt: float, winding: int) -> np.ndarray:
    """Unit magnetization with a transverse phase winding across the
    domain's x-extent; the whole-number winding makes the transverse
    mean vanish exactly."""
    x = domain.coordinates()[0]
    xmin = float(x.min())
    wx = float(x.max()) - xmin + domain.grid.spacing
    ang = 2.0 * np.pi * winding * (x - xmin) / wx
    mz = np.sqrt(max(1.0 - tilt**2, 0.0))
    return np.stack([tilt * np.cos(ang), tilt * np.sin(ang), np.full(x.shape, mz)])


def band_limited_field(grid: Grid3, seed: int, band: int, amplitude: float) -> np.ndarray:
    """Random two-slot field with integer wavenumbers at most ``band``
    per axis, scaled so the sup norm equals ``amplitude``."""
    rng = np.random.default_rng(int(seed))
    w = rng.standard_normal((6,) + grid.shape)
    ws = FourierWorkspace(grid)
    out = ws.inverse(ws.forward(w) * ws.band_mask(band))
    peak = float(np.abs(out).max())
    return out * (amplitude / peak) if peak > 0 else out


@dataclass
class Scenario:
    """Everything a run needs, parsed and validated."""

    name: str
    grid: Grid3
    coeffs: Coefficients
    domain: DomainMask
    model: MatterModel
    initial: InitialSpec
    integrator: IntegratorConfig
    monitor_stride: int
    eta: float
    study: EtaStudyConfig | None
    fixed_point: FixedPointConfig | None

    def build_system(self) -> SimSystem:
        if self.integrator.scheme == "lawson_exp" and not self.coeffs.is_constant:
            raise ConfigError("integrator.scheme", "only rk4 runs on variable coefficients")
        system = SimSystem(self.grid, self.coeffs, self.domain, self.model, eta=self.eta)
        with _under("integrator.dt"):
            _check_cfl(system, self.integrator)
        return system

    def initial_matter(self) -> np.ndarray:
        spec = self.initial
        m = self.domain.count
        if isinstance(self.model, LandauLifschitzModel):
            if spec.matter == "uniform":
                return np.repeat(spec.direction[:, None], m, axis=1)
            return modulated_magnetization(self.domain, spec.tilt, spec.winding)
        n = len(self.model.levels)
        rho = np.zeros((n, n, m), dtype=complex)
        if spec.matter == "ground":
            rho[0, 0] = 1.0
        else:
            j, k = spec.pair
            rho[j, j] = rho[k, k] = 0.5
            rho[j, k] = rho[k, j] = 0.5
        return pack_rho(rho)

    def initial_state(self, system: SimSystem, seed: int | None = None) -> SimState:
        spec = self.initial
        u_free = None
        if spec.u_seed == "random_band":
            u_free = band_limited_field(
                self.grid,
                spec.seed if seed is None else seed,
                spec.band,
                spec.amplitude,
            )
        return make_initial(system, self.initial_matter(), u_free)


def parse_scenario(mapping, name: str = "scenario") -> Scenario:
    if not isinstance(mapping, dict):
        raise ConfigError("scenario", "top level must be a mapping")
    sections = ("grid", "coefficients", "domain", "model", "initial", "integrator")
    top = _read(mapping, "", {
        "name": (_as_str, name),
        **{key: (_as_mapping, REQUIRED) for key in sections},
        "eta": (_positive, 1.0),
        "quasistatic": (_as_mapping, None),
        "fixed_point": (_as_mapping, None),
    })

    grid = _build(Grid3, top["grid"], "grid", _GRID)
    _within_budget("grid.n", f"a run on {grid.n}^3 points", RUN_BYTES_PER_POINT * grid.n**3)
    coeffs = _build_coefficients(top["coefficients"], grid)
    domain = _build_domain(top["domain"], grid)
    model = _build_model(top["model"])
    initial = _build_initial(top["initial"], model)

    ivals = _read(top["integrator"], "integrator.", _INTEGRATOR)
    stride = ivals.pop("monitor_stride")
    with _under("integrator"):
        integrator = IntegratorConfig(**ivals)
        integrator.n_steps

    for section, what in (("quasistatic", "the eta study"),
                          ("fixed_point", "the mollified construction")):
        if top[section] is not None and not coeffs.is_constant:
            raise ConfigError(section, f"{what} needs constant coefficients")
    study = _build(EtaStudyConfig, top["quasistatic"], "quasistatic", _QUASISTATIC)
    fixed_point = _build(FixedPointConfig, top["fixed_point"], "fixed_point", _FIXED_POINT)
    if fixed_point is not None:
        nodes = fixed_point.n_steps + 1
        _within_budget("fixed_point.n_steps", f"the construction on {nodes} nodes",
                       FIXED_POINT_BYTES_PER_MODE_NODE * nodes * grid.n**2 * (grid.n // 2 + 1))

    return Scenario(
        name=top["name"],
        grid=grid,
        coeffs=coeffs,
        domain=domain,
        model=model,
        initial=initial,
        integrator=integrator,
        monitor_stride=stride,
        eta=top["eta"],
        study=study,
        fixed_point=fixed_point,
    )


def load_scenario(path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ConfigError("file", f"no such scenario file: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError("file", f"unparseable scenario: {exc}") from exc
    return parse_scenario(raw, name=path.stem)
