"""The one extra thread of work: when a transform gets pocketfft's second
worker, and that it shares its token with the helper's slot tasks."""

import threading

from maxmat import cores
from maxmat.cores import pool_context


def workers_for(points: int) -> int:
    with cores.fft_workers(points) as workers:
        return workers


def test_threshold_splits_64_cubed_grids_and_not_32_cubed():
    assert cores.splits(64**3)
    assert not cores.splits(32**3)


def test_transform_rule(two_cores, monkeypatch):
    big = cores.SPLIT_POINTS
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
    cores._split(lambda task: seen.append((task, workers_for(big))), "a", "b")
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
    with cores.fft_workers(cores.SPLIT_POINTS) as workers:
        assert workers == 2
        worker = threading.Thread(target=cores._split, args=(
            lambda _: names.append(threading.current_thread().name), 0, 1))
        worker.start()
        worker.join(timeout=30)
    assert not worker.is_alive()
    assert names == [worker.name, worker.name]
