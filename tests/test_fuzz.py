"""Property tests: junk in a scenario or a snapshot fails only with the documented error.

A scenario is either parsed or rejected with :class:`ConfigError` (exit 2);
a parsed one builds its system and initial state without any other
exception. A truncated snapshot is a ValueError naming the file. Grids stay
at 16^3 or below: junk never raises ``grid.n``.
"""

import copy
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from maxmat import ConfigError, Grid3, load_fields, parse_scenario, save_fields

from .test_scenario_cli import base_mapping

JUNK = [None, "junk", "", True, False, math.inf, -math.inf, math.nan,
        -1, -0.5, 0, [], [1.0], {}, {"x": 1}]

BASES = [
    base_mapping(
        eta=0.5,
        quasistatic={"eta_list": [0.4, 0.2], "radius": 0.25, "t_obs": 0.04, "dt": 2.0e-3,
                     "sample_dt": 0.02, "stiff_dt_factor": 0.025, "scheme": "lawson_exp"},
        fixed_point={"n_mol": 4, "window": 0.02, "n_steps": 20, "tol": 1e-10, "max_iter": 30},
    ),
    base_mapping(
        grid={"n": 8, "box_len": 1.0},
        initial={"matter": "uniform", "direction": [0.0, 0.6, 0.8], "u_seed": "random_band",
                 "seed": 3, "band": 2, "amplitude": 0.05},
        integrator={"dt": 2.0e-3, "t_end": 0.01, "scheme": "lawson_exp", "monitor_stride": 5},
    ),
    base_mapping(
        coefficients={"profile": "smooth_bump", "center": [0.5, 0.5, 0.5], "radius": 0.2,
                      "width": 0.1, "amplitude1": 0.3, "amplitude2": -0.2},
        domain={"shape": "ball", "center": [0.5, 0.5, 0.5], "radius": 0.15},
        model={"kind": "bloch", "levels": [0.0, 1.0, 1.7], "coupling": [1.0, 0.5],
               "polarization": [1.0, 0.0, 0.0], "relax": 0.1},
        initial={"matter": "coherent", "pair": [0, 2], "u_seed": "zero"},
    ),
]


def _leaves(node, path=()):
    """Paths to every non-mapping value, lists and their items alike."""
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _leaves(val, path + (key,))
        return
    yield path
    if isinstance(node, list):
        for i, val in enumerate(node):
            yield from _leaves(val, path + (i,))


def _replace(mapping, path, value):
    node = mapping
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_junk_leaves_fail_only_with_config_error(data):
    m = copy.deepcopy(data.draw(st.sampled_from(BASES)))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_leaves(m))))
        _replace(m, path, copy.deepcopy(data.draw(st.sampled_from(JUNK))))
    try:
        scn = parse_scenario(m)
    except ConfigError:
        return
    assert scn.grid.n <= 16
    try:
        scn.initial_state(scn.build_system())
    except ConfigError:
        pass


def test_bases_are_valid():
    for m in BASES:
        scn = parse_scenario(copy.deepcopy(m))
        scn.initial_state(scn.build_system())


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("snap") / "full.bin"
    save_fields(path, np.arange(2 * 8**3, dtype=float).reshape(2, 8, 8, 8), Grid3(8))
    return path


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cut=st.integers(min_value=0))
@example(cut=0)
@example(cut=10)
@example(cut=24 + 8 * 8**3 + 100)
def test_truncated_snapshot_is_value_error_naming_file(snapshot, cut):
    data = snapshot.read_bytes()
    assert load_fields(snapshot)[0].shape == (2, 8, 8, 8)
    short = snapshot.with_name(f"cut_{cut % len(data)}.bin")
    short.write_bytes(data[: cut % len(data)])
    with pytest.raises(ValueError, match=re.escape(str(short))):
        load_fields(short)
