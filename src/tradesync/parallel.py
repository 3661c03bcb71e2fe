"""Worker-count resolution, a process pool for each parallel call that is
large enough to pay for one, and deterministic per-task RNG streams.

Every randomized step in the package derives its generator from a root seed
plus integer task coordinates, never from execution order, so results are
identical for any worker count.
"""

from __future__ import annotations

import functools
import os

import numpy as np

from .errors import ConfigError

WORKERS_ENV = "TRADESYNC_WORKERS"

# A parallel call whose caller estimates less serial CPU than this, in
# seconds, runs in the calling process: below it, the executor import and
# starting the workers cost more than the workers save.
POOL_MIN_CPU_S = 0.5


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument wins, then the TRADESYNC_WORKERS env var, then all
    CPUs this process may run on."""
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return workers
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            n = int(env)
        except ValueError:
            n = 0
        if n < 1:
            raise ConfigError(f"{WORKERS_ENV} must be an integer >= 1, got {env!r}")
        return n
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def task_rng(root_seed: int, *coords: int) -> np.random.Generator:
    """Generator for the task at integer coordinates (pair indices, replica index...)."""
    return np.random.default_rng(np.random.SeedSequence([int(root_seed), *map(int, coords)]))


# Worker side: the payload of the call this worker serves, set once when the
# worker starts.
_PAYLOAD = None


def _set_payload(payload) -> None:
    global _PAYLOAD
    _PAYLOAD = payload


def _run_task(fn, task):
    return fn(_PAYLOAD, task)


def map_tasks(fn, payload, tasks: list, workers: int, *, cpu_s: float) -> list:
    """[fn(payload, task) for task in tasks], in task order.

    `cpu_s` is the caller's estimate of the call's serial CPU in seconds.
    With one worker, fewer than two tasks or an estimate below POOL_MIN_CPU_S
    this runs in the calling process. Otherwise it opens a pool of
    min(workers, len(tasks)) processes for this call alone. Each worker gets
    the payload once, when it starts: inherited under fork, pickled once per
    worker under any other start method. The pool is shut down, its pending
    tasks cancelled and its workers joined before the call returns, also when
    a task raises. `fn` must be a module-level function. A run that never
    pools never imports the executor, nor multiprocessing with it.
    """
    if workers <= 1 or len(tasks) < 2 or cpu_s < POOL_MIN_CPU_S:
        return [fn(payload, task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(min(workers, len(tasks)), initializer=_set_payload,
                               initargs=(payload,))
    try:
        return list(pool.map(functools.partial(_run_task, fn), tasks))
    finally:
        pool.shutdown(cancel_futures=True)
