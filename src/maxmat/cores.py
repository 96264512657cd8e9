"""The one extra thread of work the package may use, and when it may.

Every extra thread the package asks for is governed by one rule: the
helper's slot tasks (:func:`_split`, which the variable-weight RK4 step
and the free propagator hand their second output slot to) and
pocketfft's second worker in the workspace's transforms
(:func:`fft_workers`). Either takes the helper's token, one process-wide
lock, without waiting and holds it while the extra thread works, and
only where the calling context allows it (not in a task of a pool that
already gives every usable core a thread, :func:`pool_context`) and the
process has two or more usable cores. A caller that cannot take the
token runs all of its work itself, so a process never runs more than one
extra thread of work at a time, nested or concurrent callers cannot
deadlock, and a transform inside a helper task or a full pool keeps to
one worker.

The propagator's slot tasks and the two-worker transforms are worth it
only on large grids (:func:`splits`). pocketfft keeps its worker threads
after the first two-worker call; a forked child gets neither those nor
the helper, and both start afresh there on first use.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor

# Grids of at least this many points split their transforms over two
# pocketfft workers and the free propagator's two output slots over the
# helper thread. Medians on a 2-core x86-64 guest (scipy 1.17), one
# against two threads: the 3-vector rfftn/irfftn pair took 0.32 / 0.51 ms
# at 16^3, 2.5 / 2.7 ms at 32^3, 13 / 8 ms at 48^3 and 21 / 11 ms at 64^3;
# a box pair at 64^3 (17^3 box) 8.9 / 5.3 ms; the propagator on a 6-stack
# 0.38 / 0.74 ms at 16^3, 1.38 / 1.07 ms at 32^3 and 19.6 / 10.0 ms at
# 64^3. Grids are powers of two, so this one threshold is the first at
# which both gain.
SPLIT_POINTS = 64**3

# The helper thread of :func:`_split`, made on first use, the lock whose
# holder may put a second thread to work, and whether the current context
# may do so at all (:func:`pool_context`).
_helper: ThreadPoolExecutor | None = None
_helper_lock = threading.Lock()
_helper_allowed = contextvars.ContextVar("maxmat_step_helper", default=True)


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_context(threads: int) -> contextvars.Context:
    """A copy of the caller's context for one task of a pool of
    ``threads`` threads.

    When the pool alone gives every usable core a thread, the copy keeps
    every task to its own thread (:func:`_split`, :func:`fft_workers`): a
    second one would only put one thread more than there are cores to
    work. A variable-weight eta sweep at 32^3 on a 2-thread pool of a
    2-core x86-64 guest was slower with the helper in 4 of 4 alternating
    pairs (median 19.3 s against 16.7 s without).
    """
    ctx = contextvars.copy_context()
    if threads >= _usable_cores():
        ctx.run(_helper_allowed.set, False)
    return ctx


def _forget_helper() -> None:
    """A forked child has no helper thread; it starts its own on first use."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def splits(points: int) -> bool:
    """Whether a grid of ``points`` points splits its transforms and
    propagator slots (``SPLIT_POINTS``)."""
    return points >= SPLIT_POINTS


@contextlib.contextmanager
def fft_workers(points: int):
    """The pocketfft workers for a transform on a grid of ``points`` points.

    Yields 2, holding the helper's token until the block ends, when the
    grid :func:`splits`, the context allows a second thread, the process
    has two or more usable cores and the token is free; otherwise 1. So a
    transform inside a :func:`_split` task, or in a task of a pool that
    fills the cores, runs on one worker. pocketfft computes each line
    alike on either count, so the result is bit-identical.
    """
    if (
        splits(points)
        and _helper_allowed.get()
        and _usable_cores() > 1
        and _helper_lock.acquire(blocking=False)
    ):
        try:
            yield 2
        finally:
            _helper_lock.release()
    else:
        yield 1


def _split(task, a, b) -> None:
    """task(a) and task(b), the second on the helper thread when it is free.

    The helper is one process-wide thread, started on first use and only
    when the process has two or more usable cores. A caller takes it only
    if it can take the token without waiting and its context allows it
    (not in a task of a pool that fills the cores, :func:`pool_context`);
    otherwise both tasks run here, one after the other. The token is held
    until both tasks are done, so a transform in either task runs on one
    worker (:func:`fft_workers`). So a process runs at most one extra
    thread, nested or concurrent callers cannot deadlock, and a pool with
    a thread per core gets none. The helper's task runs in a copy of the
    caller's context, numpy's error state included, and an exception of
    either task is raised here once both have finished.
    """
    global _helper
    if _helper_allowed.get() and _helper_lock.acquire(blocking=False):
        try:
            if _helper is None and _usable_cores() > 1:
                _helper = ThreadPoolExecutor(1, thread_name_prefix="maxmat-helper")
            if _helper is not None:
                future = _helper.submit(contextvars.copy_context().run, task, b)
                try:
                    task(a)
                finally:
                    error = future.exception()
                if error is not None:
                    raise error
                return
        finally:
            _helper_lock.release()
    task(a)
    task(b)
