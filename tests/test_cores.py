"""The one extra thread of work: when a transform gets pocketfft's second
worker, that it shares its token with the helper's slot tasks, and that
every caller's slot tasks follow the one size rule."""

import threading

import pytest

import maxmat.helmholtz as helmholtz
from maxmat import (
    Coefficients,
    FreePropagator,
    Grid3,
    IntegratorConfig,
    LandauLifschitzModel,
    SimState,
    SimSystem,
    box_mask,
    cores,
    make_initial,
    step,
)
from maxmat.cores import pool_context

from .conftest import smooth_coefficients, tilted_magnetization


def workers_for(points: int) -> int:
    with cores.fft_workers(points) as workers:
        return workers


def test_thresholds_split_slots_from_32_cubed_and_transforms_from_64_cubed(two_cores):
    assert (cores.SPLIT_POINTS, cores.TWO_WORKER_POINTS) == (32**3, 64**3)
    assert [workers_for(n**3) for n in (32, 64)] == [1, 2]
    for n, helper_ran in ((16, False), (32, True)):
        names = []
        cores._split(n**3, lambda _: names.append(threading.current_thread().name), 0, 1)
        assert len(names) == 2
        assert any(name.startswith("maxmat-helper") for name in names) == helper_ran


def test_transform_rule(two_cores, monkeypatch):
    big = cores.TWO_WORKER_POINTS
    assert workers_for(big) == 2
    # the token is held only while the transform runs
    assert not cores._helper_lock.locked()
    assert workers_for(big - 1) == 1
    # a task of a pool that fills the cores, and one of a pool that does not
    assert pool_context(2).run(workers_for, big) == 1
    assert pool_context(1).run(workers_for, big) == 2
    # the token is held: by another caller, and inside either task of a split
    with cores._helper_lock:
        assert workers_for(big) == 1
    seen = []
    cores._split(big, lambda task: seen.append((task, workers_for(big))), "a", "b")
    assert sorted(seen) == [("a", 1), ("b", 1)]
    assert not cores._helper_lock.locked()
    monkeypatch.setattr(cores, "_usable_cores", lambda: 1)
    assert workers_for(big) == 1


def test_transform_rule_follows_the_usable_cores():
    # on one usable core (CI's taskset step) the one-worker branch runs
    want = 2 if cores._usable_cores() > 1 else 1
    assert workers_for(64**3) == want


def test_a_transform_holding_the_token_keeps_a_split_inline(two_cores):
    # while a two-worker transform runs, a split on another thread runs
    # both of its tasks itself
    names = []
    with cores.fft_workers(cores.TWO_WORKER_POINTS) as workers:
        assert workers == 2
        worker = threading.Thread(target=cores._split, args=(
            cores.SPLIT_POINTS, lambda _: names.append(threading.current_thread().name), 0, 1))
        worker.start()
        worker.join(timeout=30)
    assert not worker.is_alive()
    assert names == [worker.name, worker.name]


def record_threads(monkeypatch, owner, name) -> list:
    """Record the thread name of every call of ``owner.name``."""
    names = []
    original = getattr(owner, name)

    def recording(*args):
        names.append(threading.current_thread().name)
        return original(*args)

    monkeypatch.setattr(owner, name, recording)
    return names


def rk4_step(sys_, state):
    return step(sys_, state, IntegratorConfig(dt=1e-3, t_end=1e-3, scheme="rk4"))


def propagate(sys_, state):
    return sys_.propagator.apply_hat(sys_.ws.forward(state.u), sys_.propagator.phases(1e-3))


# caller: its weights, the function that runs one slot's task, the call,
# and whether it hands a slot task to the helper on large grids
CALLERS = {
    "constant_rk4": ("constant", (SimSystem, "slot_tendency"), rk4_step, True),
    "variable_rk4": ("variable", (SimSystem, "slot_tendency"), rk4_step, True),
    "propagator": ("constant", (FreePropagator, "_slot_hat"), propagate, True),
    "variable_constraint_sample": (
        "variable", (helmholtz, "_potential_hat"), SimSystem.constraint_residual, True),
    "constant_constraint_sample": (
        "constant", (helmholtz, "_potential_hat"), SimSystem.constraint_residual, False),
    "constant_seeded_make_initial": (
        "constant", (helmholtz, "_potential_hat"),
        lambda sys_, state: make_initial(sys_, state.v, u_free=state.u), False),
}


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("caller", CALLERS)
def test_slot_tasks_go_to_the_helper_from_the_one_threshold(caller, n, two_cores, rng,
                                                            monkeypatch):
    # every caller hands its two slot tasks to cores._split, which splits
    # them from 32^3 points on; constant-weight solves never leave
    weights, (owner, name), call, splits = CALLERS[caller]
    grid = Grid3(n, 1.0)
    if weights == "constant":
        co = Coefficients.constant(grid, 0.7, 1.9)
    else:
        co = smooth_coefficients(grid)
    w = 2 * grid.spacing
    model = LandauLifschitzModel(gyro=6.0, damping=0.5, aniso=1.0, axis=(0, 0, 1),
                                 h_ext=(0, 0, 2.0))
    sys_ = SimSystem(grid, co, box_mask(grid, (0.5, 0.5, 0.5), (w, w, w)), model)
    state = SimState(0.0, rng.standard_normal((6,) + grid.shape),
                     tilted_magnetization(sys_.domain))
    names = record_threads(monkeypatch, owner, name)
    call(sys_, state)
    assert len(names) >= 2
    on_helper = any(name.startswith("maxmat-helper") for name in names)
    assert on_helper == (splits and n >= 32)
