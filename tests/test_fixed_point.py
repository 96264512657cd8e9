"""Windowed iteration for the low-pass-regularized integral formulation.

Checks: exactness on free flow, witnessed contraction, agreement with the
conventional steppers once the low-pass keeps every representable mode,
and the documented failure on windows too long to contract.
"""

import numpy as np
import pytest

from maxmat import (
    Coefficients,
    ContractionError,
    FixedPointConfig,
    IntegratorConfig,
    SimState,
    SimSystem,
    box_mask,
    make_initial,
    matter_l2_norm,
    mollified_fixed_point,
    project_P,
    run,
    weighted_norm,
)
from maxmat.evolution import FixedPointError

from .conftest import count_transforms, smooth_coefficients, tilted_magnetization


@pytest.fixture()
def fp_system(grid16):
    from maxmat import LandauLifschitzModel

    co = Coefficients.constant(grid16, 1.0, 1.0)
    w = 2 * grid16.spacing
    dom = box_mask(grid16, (0.5, 0.5, 0.5), (w, w, w))
    model = LandauLifschitzModel(
        gyro=6.0, damping=0.5, aniso=1.0, axis=(0, 0, 1), h_ext=(0, 0, 2.0)
    )
    return SimSystem(grid16, co, dom, model)


def test_free_flow_converges_immediately(fp_system, rng):
    # zero matter: the seed trajectory is already the fixed point
    sys_ = fp_system
    u0 = project_P(rng.standard_normal((6,) + sys_.grid.shape), sys_.coeffs, sys_.ws)
    state = SimState(0.0, u0, np.zeros((3, sys_.domain.count)))
    res = mollified_fixed_point(sys_, state, FixedPointConfig(n_mol=4, window=0.1, n_steps=20))
    assert res.iterations == 1
    assert res.distances[-1] == 0.0
    exact = sys_.propagator.apply(u0, 0.1)
    assert (
        weighted_norm(res.state.u - exact, sys_.coeffs, sys_.grid)
        < 1e-12 * weighted_norm(u0, sys_.coeffs, sys_.grid)
    )


def test_contraction_witnessed(fp_system):
    state = make_initial(fp_system, tilted_magnetization(fp_system.domain))
    res = mollified_fixed_point(
        fp_system, state, FixedPointConfig(n_mol=8, window=0.02, n_steps=40)
    )
    ratios = res.contraction_ratios
    assert len(ratios) >= 1
    assert max(ratios) < 1.0
    assert res.distances[-1] <= 1e-10 * (
        weighted_norm(state.u, fp_system.coeffs, fp_system.grid)
        + matter_l2_norm(state.v, fp_system.grid)
    )


def test_matches_conventional_integration(fp_system):
    # full-band low-pass on this grid: the fixed point solves the same
    # problem as the steppers, so they must agree to quadrature accuracy
    state = make_initial(fp_system, tilted_magnetization(fp_system.domain))
    window, n_steps = 0.02, 40
    res = mollified_fixed_point(
        fp_system, state, FixedPointConfig(n_mol=14, window=window, n_steps=n_steps)
    )
    ref, _, _ = run(
        fp_system, state, IntegratorConfig(dt=window / n_steps, t_end=window, scheme="lawson_exp")
    )
    du = weighted_norm(res.state.u - ref.u, fp_system.coeffs, fp_system.grid)
    dv = matter_l2_norm(res.state.v - ref.v, fp_system.grid)
    # trapezoid window quadrature is second order; this bound is ~10x above
    # the measured defect and far below the field scale
    assert du + dv < 1e-5


def test_distance_to_reference_shrinks_with_index(fp_system):
    state = make_initial(fp_system, tilted_magnetization(fp_system.domain))
    window, n_steps = 0.02, 40
    ref, _, _ = run(
        fp_system, state, IntegratorConfig(dt=window / n_steps, t_end=window, scheme="lawson_exp")
    )
    dists = []
    for n_mol in (2, 4, 8, 14):
        res = mollified_fixed_point(
            fp_system, state, FixedPointConfig(n_mol=n_mol, window=window, n_steps=n_steps)
        )
        du = weighted_norm(res.state.u - ref.u, fp_system.coeffs, fp_system.grid)
        dv = matter_l2_norm(res.state.v - ref.v, fp_system.grid)
        dists.append(du + dv)
    assert all(a >= b - 1e-14 for a, b in zip(dists, dists[1:]))
    assert dists[-1] < dists[0]


def test_long_window_raises_contraction_error(fp_system):
    state = make_initial(fp_system, tilted_magnetization(fp_system.domain))
    with pytest.raises(ContractionError):
        mollified_fixed_point(
            fp_system, state, FixedPointConfig(n_mol=4, window=0.5, n_steps=100, max_iter=40)
        )


def test_requires_constant_coefficients(grid16):
    from maxmat import LandauLifschitzModel

    co = smooth_coefficients(grid16)
    w = 2 * grid16.spacing
    dom = box_mask(grid16, (0.5, 0.5, 0.5), (w, w, w))
    sys_ = SimSystem(grid16, co, dom, LandauLifschitzModel())
    state = make_initial(sys_, tilted_magnetization(dom))
    with pytest.raises(ValueError):
        mollified_fixed_point(sys_, state, FixedPointConfig(n_mol=4, window=0.01, n_steps=4))


def test_config_validation():
    with pytest.raises(ValueError):
        FixedPointConfig(n_mol=0, window=0.1, n_steps=10)
    with pytest.raises(ValueError):
        FixedPointConfig(n_mol=4, window=-0.1, n_steps=10)
    with pytest.raises(ValueError):
        FixedPointConfig(n_mol=4, window=0.1, n_steps=1)
    assert issubclass(ContractionError, FixedPointError)


def test_node_phases_computed_once_and_only_the_coupled_slot_transformed(monkeypatch):
    # ll_mollified converges in 10 sweeps over 41 nodes. Each node's phases
    # are computed once for all sweeps; each node of a sweep transforms the
    # coupled 3-vector of the source forward, over the domain's box, plus
    # 6 for the initial field.
    from pathlib import Path

    from maxmat import load_scenario
    from maxmat.spectral import FreePropagator

    scn = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "ll_mollified.yaml")
    system = scn.build_system()
    state = scn.initial_state(system)
    phases = []
    original_phases = FreePropagator.phases

    def counting_phases(prop, t):
        phases.append(t)
        return original_phases(prop, t)

    monkeypatch.setattr(FreePropagator, "phases", counting_phases)
    forward = count_transforms(monkeypatch, names=("forward", "forward_box"))
    whole = count_transforms(monkeypatch, names=("forward",))
    res = mollified_fixed_point(system, state, scn.fixed_point)
    assert res.iterations == 10
    assert len(phases) == scn.fixed_point.n_steps + 1 == 41
    assert sum(forward) == 6 + 10 * 41 * 3 == 1236
    assert whole == [6]
