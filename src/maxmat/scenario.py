"""Scenario files: one nested key-value config fully determines a run.

The loader is strict by design. Every key is checked against the schema,
unknown or missing keys raise :class:`ConfigError` naming the full key
path, and value errors from the underlying dataclasses are re-raised
under the section that supplied them, so a bad file never gets as far as
allocating fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .evolution import FixedPointConfig, IntegratorConfig, SimState, SimSystem, make_initial
from .grid import Coefficients, DomainMask, Grid3, ball_mask, box_mask
from .models import BlochModel, LandauLifschitzModel, MatterModel, pack_rho
from .quasistatic import EtaStudyConfig


class ConfigError(Exception):
    """A scenario file problem; ``key`` is the offending key path."""

    def __init__(self, key: str, reason: str):
        self.key = key
        super().__init__(f"{key}: {reason}")


def _section(mapping, key, path, required=True):
    if key not in mapping:
        if required:
            raise ConfigError(f"{path}{key}", "missing required section")
        return None
    val = mapping[key]
    if not isinstance(val, dict):
        raise ConfigError(f"{path}{key}", f"expected a mapping, got {type(val).__name__}")
    return val


def _check_keys(mapping, allowed, path):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{path}{key}", "unknown key")


_MISSING = object()


def _get(mapping, key, path, default=_MISSING):
    if key in mapping:
        return mapping[key]
    if default is _MISSING:
        raise ConfigError(f"{path}{key}", "missing required key")
    return default


def _as_float(val, path):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(path, f"expected a number, got {val!r}")
    return float(val)


def _as_int(val, path):
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(path, f"expected an integer, got {val!r}")
    return int(val)


def _as_bool(val, path):
    if not isinstance(val, bool):
        raise ConfigError(path, f"expected true/false, got {val!r}")
    return val


def _as_str(val, path, choices=None):
    if not isinstance(val, str):
        raise ConfigError(path, f"expected a string, got {val!r}")
    if choices is not None and val not in choices:
        raise ConfigError(path, f"must be one of {sorted(choices)}, got {val!r}")
    return val


def _as_vec3(val, path):
    if not isinstance(val, (list, tuple)) or len(val) != 3:
        raise ConfigError(path, f"expected a list of 3 numbers, got {val!r}")
    return np.array([_as_float(v, path) for v in val])


def _as_float_list(val, path):
    if not isinstance(val, (list, tuple)) or not val:
        raise ConfigError(path, f"expected a non-empty list of numbers, got {val!r}")
    return [_as_float(v, path) for v in val]


def _smooth_indicator(grid: Grid3, center, radius: float, width: float) -> np.ndarray:
    """Ball indicator circularly convolved with a normalized compact bump.

    The result lives in [0, 1], equals 1 deep inside the ball and 0 far
    outside, and is as smooth as the sampling allows.
    """
    xx, yy, zz = grid.meshgrid()
    c = np.asarray(center, dtype=float)
    ind = ((xx - c[0]) ** 2 + (yy - c[1]) ** 2 + (zz - c[2]) ** 2 <= radius**2).astype(float)
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
    conv = np.fft.irfftn(
        np.fft.rfftn(ind, axes=(0, 1, 2)) * np.fft.rfftn(kern, axes=(0, 1, 2)),
        s=grid.shape,
        axes=(0, 1, 2),
    )
    return np.clip(conv, 0.0, 1.0)


def _build_coefficients(sec, grid: Grid3, path) -> Coefficients:
    profile = _as_str(_get(sec, "profile", path), f"{path}profile", {"constant", "smooth_bump"})
    if profile == "constant":
        _check_keys(sec, {"profile", "kappa1", "kappa2"}, path)
        k1 = _as_float(_get(sec, "kappa1", path, 1.0), f"{path}kappa1")
        k2 = _as_float(_get(sec, "kappa2", path, 1.0), f"{path}kappa2")
        if k1 <= 0 or k2 <= 0:
            raise ConfigError(f"{path}kappa1", "coefficients must be positive")
        return Coefficients.constant(grid, k1, k2)
    _check_keys(sec, {"profile", "center", "radius", "amplitude1", "amplitude2", "width"}, path)
    center = _as_vec3(_get(sec, "center", path, [0.5, 0.5, 0.5]), f"{path}center")
    radius = _as_float(_get(sec, "radius", path), f"{path}radius")
    width = _as_float(_get(sec, "width", path), f"{path}width")
    a1 = _as_float(_get(sec, "amplitude1", path, 0.0), f"{path}amplitude1")
    a2 = _as_float(_get(sec, "amplitude2", path, 0.0), f"{path}amplitude2")
    if radius <= 0 or width <= 0:
        raise ConfigError(f"{path}radius", "radius and width must be positive")
    for name, amp in (("amplitude1", a1), ("amplitude2", a2)):
        if 1.0 + min(amp, 0.0) < 0.05:
            raise ConfigError(f"{path}{name}", f"amplitude {amp} drives the coefficient below 0.05")
    bump = _smooth_indicator(grid, center, radius, width)
    return Coefficients(1.0 + a1 * bump, 1.0 + a2 * bump)


def _build_domain(sec, grid: Grid3, path) -> DomainMask:
    shape = _as_str(_get(sec, "shape", path), f"{path}shape", {"box", "ball"})
    try:
        if shape == "box":
            _check_keys(sec, {"shape", "center", "half_extent"}, path)
            center = _as_vec3(_get(sec, "center", path), f"{path}center")
            half = _as_vec3(_get(sec, "half_extent", path), f"{path}half_extent")
            return box_mask(grid, center, half)
        _check_keys(sec, {"shape", "center", "radius"}, path)
        center = _as_vec3(_get(sec, "center", path), f"{path}center")
        radius = _as_float(_get(sec, "radius", path), f"{path}radius")
        return ball_mask(grid, center, radius)
    except ValueError as exc:
        raise ConfigError(path.rstrip("."), str(exc)) from exc


def _ladder_dipole(levels, coupling, polarization):
    n = len(levels)
    d = np.zeros((3, n, n), dtype=complex)
    for j, strength in enumerate(coupling):
        for a in range(3):
            d[a, j, j + 1] = polarization[a] * strength
            d[a, j + 1, j] = polarization[a] * strength
    return d


def _build_model(sec, path) -> MatterModel:
    kind = _as_str(_get(sec, "kind", path), f"{path}kind", {"landau_lifschitz", "bloch"})
    try:
        if kind == "landau_lifschitz":
            _check_keys(sec, {"kind", "gyro", "damping", "aniso", "axis", "h_ext"}, path)
            return LandauLifschitzModel(
                gyro=_as_float(_get(sec, "gyro", path), f"{path}gyro"),
                damping=_as_float(_get(sec, "damping", path), f"{path}damping"),
                aniso=_as_float(_get(sec, "aniso", path, 0.0), f"{path}aniso"),
                axis=tuple(_as_vec3(_get(sec, "axis", path, [0.0, 0.0, 1.0]), f"{path}axis")),
                h_ext=tuple(_as_vec3(_get(sec, "h_ext", path, [0.0, 0.0, 0.0]), f"{path}h_ext")),
            )
        _check_keys(sec, {"kind", "levels", "coupling", "polarization", "relax"}, path)
        levels = _as_float_list(_get(sec, "levels", path), f"{path}levels")
        if len(levels) < 2:
            raise ConfigError(f"{path}levels", "need at least two levels")
        coupling = _get(sec, "coupling", path, 1.0)
        if isinstance(coupling, (list, tuple)):
            coupling = _as_float_list(coupling, f"{path}coupling")
            if len(coupling) != len(levels) - 1:
                raise ConfigError(
                    f"{path}coupling", f"need {len(levels) - 1} adjacent couplings, got {len(coupling)}"
                )
        else:
            coupling = [_as_float(coupling, f"{path}coupling")] * (len(levels) - 1)
        pol = _as_vec3(_get(sec, "polarization", path, [1.0, 0.0, 0.0]), f"{path}polarization")
        return BlochModel(
            levels=tuple(levels),
            dipole=_ladder_dipole(levels, coupling, pol),
            relax=_as_float(_get(sec, "relax", path, 0.0), f"{path}relax"),
        )
    except ValueError as exc:
        raise ConfigError(path.rstrip("."), str(exc)) from exc


@dataclass
class InitialSpec:
    matter: str
    direction: np.ndarray
    tilt: float
    winding: int
    pair: tuple[int, int]
    u_seed: str
    seed: int
    band: int
    amplitude: float


def _build_initial(sec, model: MatterModel, path) -> InitialSpec:
    allowed = {"matter", "direction", "tilt", "winding", "pair", "u_seed", "seed", "band", "amplitude"}
    _check_keys(sec, allowed, path)
    if isinstance(model, LandauLifschitzModel):
        matter = _as_str(_get(sec, "matter", path), f"{path}matter", {"uniform", "modulated"})
    else:
        matter = _as_str(_get(sec, "matter", path), f"{path}matter", {"ground", "coherent"})
    direction = _as_vec3(_get(sec, "direction", path, [0.0, 0.0, 1.0]), f"{path}direction")
    nrm = float(np.linalg.norm(direction))
    if nrm == 0.0:
        raise ConfigError(f"{path}direction", "zero vector")
    tilt = _as_float(_get(sec, "tilt", path, 0.5), f"{path}tilt")
    if not 0.0 <= tilt < 1.0:
        raise ConfigError(f"{path}tilt", f"tilt must lie in [0, 1), got {tilt}")
    pair_raw = _get(sec, "pair", path, [0, 1])
    if not isinstance(pair_raw, (list, tuple)) or len(pair_raw) != 2:
        raise ConfigError(f"{path}pair", f"expected two level indices, got {pair_raw!r}")
    pair = (_as_int(pair_raw[0], f"{path}pair"), _as_int(pair_raw[1], f"{path}pair"))
    if isinstance(model, BlochModel):
        n = len(model.levels)
        if not (0 <= pair[0] < n and 0 <= pair[1] < n and pair[0] != pair[1]):
            raise ConfigError(f"{path}pair", f"level indices out of range for {n} levels")
    u_seed = _as_str(_get(sec, "u_seed", path, "zero"), f"{path}u_seed", {"zero", "random_band"})
    band = _as_int(_get(sec, "band", path, 4), f"{path}band")
    if band < 1:
        raise ConfigError(f"{path}band", f"band must be >= 1, got {band}")
    return InitialSpec(
        matter=matter,
        direction=direction / nrm,
        tilt=tilt,
        winding=_as_int(_get(sec, "winding", path, 1), f"{path}winding"),
        pair=pair,
        u_seed=u_seed,
        seed=_as_int(_get(sec, "seed", path, 0), f"{path}seed"),
        band=band,
        amplitude=_as_float(_get(sec, "amplitude", path, 0.1), f"{path}amplitude"),
    )


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
    n = grid.n
    kx = np.fft.fftfreq(n, 1.0 / n)
    kz = np.fft.rfftfreq(n, 1.0 / n)
    mask = (
        (np.abs(kx)[:, None, None] <= band)
        & (np.abs(kx)[None, :, None] <= band)
        & (kz[None, None, :] <= band)
    )
    what = np.fft.rfftn(w, axes=(-3, -2, -1)) * mask
    out = np.fft.irfftn(what, s=grid.shape, axes=(-3, -2, -1))
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
        system = SimSystem(self.grid, self.coeffs, self.domain, self.model, eta=self.eta)
        if self.integrator.scheme == "rk4":
            limit = system.cfl_limit(self.integrator.cfl_factor)
            if self.integrator.dt > limit:
                raise ConfigError(
                    "integrator.dt",
                    f"{self.integrator.dt} exceeds the explicit stability limit "
                    f"{limit:.3e}; reduce dt or set scheme: lawson_exp",
                )
        elif not self.coeffs.is_constant:
            raise ConfigError(
                "integrator.scheme",
                "lawson_exp needs spatially constant coefficients; use rk4",
            )
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
    top = {"name", "grid", "coefficients", "domain", "model", "initial",
           "integrator", "eta", "quasistatic", "fixed_point"}
    _check_keys(mapping, top, "")
    if "name" in mapping:
        name = _as_str(mapping["name"], "name")

    gsec = _section(mapping, "grid", "")
    _check_keys(gsec, {"n", "box_len"}, "grid.")
    try:
        grid = Grid3(
            _as_int(_get(gsec, "n", "grid."), "grid.n"),
            _as_float(_get(gsec, "box_len", "grid.", 1.0), "grid.box_len"),
        )
    except ValueError as exc:
        raise ConfigError("grid.n", str(exc)) from exc

    coeffs = _build_coefficients(_section(mapping, "coefficients", ""), grid, "coefficients.")
    domain = _build_domain(_section(mapping, "domain", ""), grid, "domain.")
    model = _build_model(_section(mapping, "model", ""), "model.")
    initial = _build_initial(_section(mapping, "initial", ""), model, "initial.")

    isec = _section(mapping, "integrator", "")
    _check_keys(
        isec, {"dt", "t_end", "scheme", "renormalize_m", "cfl_factor", "monitor_stride"}, "integrator."
    )
    stride = _as_int(_get(isec, "monitor_stride", "integrator.", 1), "integrator.monitor_stride")
    if stride < 1:
        raise ConfigError("integrator.monitor_stride", f"must be >= 1, got {stride}")
    try:
        integrator = IntegratorConfig(
            dt=_as_float(_get(isec, "dt", "integrator."), "integrator.dt"),
            t_end=_as_float(_get(isec, "t_end", "integrator."), "integrator.t_end"),
            scheme=_as_str(_get(isec, "scheme", "integrator.", "rk4"), "integrator.scheme"),
            renormalize_m=_as_bool(
                _get(isec, "renormalize_m", "integrator.", False), "integrator.renormalize_m"
            ),
            cfl_factor=_as_float(_get(isec, "cfl_factor", "integrator.", 0.5), "integrator.cfl_factor"),
        )
        integrator.n_steps
    except ValueError as exc:
        raise ConfigError("integrator", str(exc)) from exc
    if integrator.renormalize_m and not isinstance(model, LandauLifschitzModel):
        raise ConfigError(
            "integrator.renormalize_m", "rescales magnetization moduli; landau_lifschitz only"
        )

    eta = _as_float(_get(mapping, "eta", "", 1.0), "eta")
    if eta <= 0:
        raise ConfigError("eta", f"must be positive, got {eta}")

    study = None
    qsec = _section(mapping, "quasistatic", "", required=False)
    if qsec is not None:
        if not coeffs.is_constant:
            raise ConfigError("quasistatic", "the eta study needs constant coefficients")
        allowed = {"eta_list", "radius", "t_obs", "dt", "sample_dt", "stiff_dt_factor", "scheme", "cfl_factor"}
        _check_keys(qsec, allowed, "quasistatic.")
        kwargs = {}
        if "eta_list" in qsec:
            kwargs["eta_list"] = tuple(_as_float_list(qsec["eta_list"], "quasistatic.eta_list"))
        for key in ("radius", "t_obs", "dt", "sample_dt", "stiff_dt_factor", "cfl_factor"):
            if key in qsec:
                kwargs[key] = _as_float(qsec[key], f"quasistatic.{key}")
        if "scheme" in qsec:
            kwargs["scheme"] = _as_str(qsec["scheme"], "quasistatic.scheme")
        try:
            study = EtaStudyConfig(**kwargs)
        except ValueError as exc:
            raise ConfigError("quasistatic", str(exc)) from exc

    fixed_point = None
    fsec = _section(mapping, "fixed_point", "", required=False)
    if fsec is not None:
        _check_keys(fsec, {"n_mol", "window", "n_steps", "tol", "max_iter"}, "fixed_point.")
        try:
            fixed_point = FixedPointConfig(
                n_mol=_as_int(_get(fsec, "n_mol", "fixed_point."), "fixed_point.n_mol"),
                window=_as_float(_get(fsec, "window", "fixed_point."), "fixed_point.window"),
                n_steps=_as_int(_get(fsec, "n_steps", "fixed_point."), "fixed_point.n_steps"),
                tol=_as_float(_get(fsec, "tol", "fixed_point.", 1e-10), "fixed_point.tol"),
                max_iter=_as_int(_get(fsec, "max_iter", "fixed_point.", 60), "fixed_point.max_iter"),
            )
        except ValueError as exc:
            raise ConfigError("fixed_point", str(exc)) from exc

    return Scenario(
        name=name,
        grid=grid,
        coeffs=coeffs,
        domain=domain,
        model=model,
        initial=initial,
        integrator=integrator,
        monitor_stride=stride,
        eta=eta,
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
