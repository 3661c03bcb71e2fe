"""Worker-count resolution, the process-pool runner and deterministic
per-task RNG streams.

Every randomized step in the package derives its generator from a root seed
plus integer task coordinates, never from execution order, so results are
identical for any worker count.
"""

import functools
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor

import numpy as np

WORKERS_ENV = "TRADESYNC_WORKERS"


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument wins, then the TRADESYNC_WORKERS env var, then all cores."""
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return workers
    env = os.environ.get(WORKERS_ENV)
    if env:
        n = int(env)
        if n < 1:
            raise ValueError(f"{WORKERS_ENV} must be >= 1, got {env}")
        return n
    return os.cpu_count() or 1


def task_rng(root_seed: int, *coords: int) -> np.random.Generator:
    """Generator for the task at integer coordinates (pair indices, replica index...)."""
    return np.random.default_rng(np.random.SeedSequence([int(root_seed), *map(int, coords)]))


def chunked(items: Sequence, n_chunks: int) -> list[Sequence]:
    """Split a list or range into at most n_chunks contiguous, near-equal chunks."""
    n = len(items)
    n_chunks = max(1, min(n_chunks, n))
    size, extra = divmod(n, n_chunks)
    out = []
    start = 0
    for c in range(n_chunks):
        stop = start + size + (1 if c < extra else 0)
        out.append(items[start:stop])
        start = stop
    return out


_PAYLOAD = None


def _set_payload(payload) -> None:
    global _PAYLOAD
    _PAYLOAD = payload


def _run_task(fn, task):
    return fn(_PAYLOAD, task)


def map_tasks(fn, payload, tasks: list, workers: int) -> list:
    """[fn(payload, task) for task in tasks], in task order.

    With one worker or fewer than two tasks this runs in the calling process.
    Otherwise it runs on a process pool of at most `workers` processes; the
    payload reaches each worker once through the pool initializer (inherited
    on fork), so only the tasks and their results are pickled. `fn` must be a
    module-level function.
    """
    if workers <= 1 or len(tasks) < 2:
        return [fn(payload, task) for task in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks)),
                             initializer=_set_payload, initargs=(payload,)) as pool:
        return list(pool.map(functools.partial(_run_task, fn), tasks))
