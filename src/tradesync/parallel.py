"""Worker-count resolution, the process pool that every parallel stage shares
and deterministic per-task RNG streams.

Every randomized step in the package derives its generator from a root seed
plus integer task coordinates, never from execution order, so results are
identical for any worker count.
"""

import functools
import itertools
import os
import pickle
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


# The pool of this process: (owner pid, worker count, executor). A forked
# child inherits the parent's entry and must not use it, so it opens its own.
_POOL: tuple[int, int, ProcessPoolExecutor] | None = None
_CALLS = itertools.count()

# Worker side: the token of the call whose payload this worker holds, and the
# payload itself. Only the latest call's payload is kept.
_PAYLOAD_TOKEN = None
_PAYLOAD = None


def _run_task(fn, token, blob: bytes, task):
    global _PAYLOAD_TOKEN, _PAYLOAD
    if token != _PAYLOAD_TOKEN:
        _PAYLOAD_TOKEN = _PAYLOAD = None  # drop the last call's payload first
        _PAYLOAD = pickle.loads(blob)
        _PAYLOAD_TOKEN = token
    return fn(_PAYLOAD, task)


def _pool(workers: int) -> ProcessPoolExecutor:
    """This process's pool of `workers` processes, opened on first use and
    reopened when the worker count changes."""
    global _POOL
    if _POOL is not None and _POOL[:2] != (os.getpid(), workers):
        shutdown()
    if _POOL is None:
        _POOL = (os.getpid(), workers, ProcessPoolExecutor(max_workers=workers))
    return _POOL[2]


def shutdown() -> None:
    """Close this process's pool, cancel the tasks it has not started and
    join its workers. An entry inherited from a parent process is dropped
    without touching the parent's pool."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None and pool[0] == os.getpid():
        pool[2].shutdown(cancel_futures=True)


def map_tasks(fn, payload, tasks: list, workers: int) -> list:
    """[fn(payload, task) for task in tasks], in task order.

    With one worker or fewer than two tasks this runs in the calling process.
    Otherwise it runs on the process's long-lived pool of `workers`
    processes. The payload is pickled once per call and sent with every task,
    tagged with the call's token; a worker unpickles it on its first task of
    the call. `fn` must be a module-level function.
    """
    if workers <= 1 or len(tasks) < 2:
        return [fn(payload, task) for task in tasks]
    run = functools.partial(_run_task, fn, next(_CALLS), pickle.dumps(payload, -1))
    return list(_pool(workers).map(run, tasks))
