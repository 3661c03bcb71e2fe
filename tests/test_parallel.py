import functools
import math
import multiprocessing
import os

import pytest

from tradesync import parallel
from tradesync.parallel import map_tasks

GATE = parallel.POOL_MIN_CPU_S


@pytest.fixture(autouse=True)
def _no_gate(monkeypatch):
    """Pool every call with two workers and two tasks, whatever its estimate."""
    monkeypatch.setattr(parallel, "POOL_MIN_CPU_S", 0.0)


def _square_plus(payload, task):
    return payload + task * task, os.getpid()


def _payload_seen(payload, task):
    return payload["tag"], id(payload), os.getpid()


def _fails_on_three(payload, task):
    if task == 3:
        raise ValueError(f"task {task} failed")
    return task


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n_tasks", [0, 1, 2, 7])
def test_map_tasks_keeps_task_order(workers, n_tasks, pools):
    tasks = list(range(n_tasks))
    out = map_tasks(_square_plus, 10, tasks, workers, cpu_s=0.0)
    assert [v for v, _ in out] == [10 + t * t for t in tasks]
    # one worker or fewer than two tasks run in this process, else in a pool
    in_process = workers == 1 or n_tasks < 2
    assert all((pid == os.getpid()) == in_process for _, pid in out)
    assert pools == ([] if in_process else [2])


@pytest.mark.parametrize("cpu_s,pooled", [(math.nextafter(GATE, 0), False),
                                          (GATE, True), (10 * GATE, True)])
def test_map_tasks_pools_exactly_when_the_estimate_reaches_the_gate(
        monkeypatch, pools, cpu_s, pooled):
    monkeypatch.setattr(parallel, "POOL_MIN_CPU_S", GATE)
    out = map_tasks(_square_plus, 1, [3, 1, 2], 2, cpu_s=cpu_s)
    assert [v for v, _ in out] == [10, 2, 5]
    assert all((pid == os.getpid()) != pooled for _, pid in out)
    assert pools == ([2] if pooled else [])


def test_map_tasks_with_more_workers_than_tasks(pools):
    out = map_tasks(_square_plus, 0, [3, 1, 2], workers=4, cpu_s=0.0)
    assert [v for v, _ in out] == [9, 1, 4]
    assert os.getpid() not in {pid for _, pid in out}
    assert pools == [3]  # one process per task, no idle fourth


def _one_payload_per_worker(out):
    """Whether each worker saw one payload object across its tasks."""
    return len({(pid, obj) for _, obj, pid in out}) == len({pid for _, _, pid in out})


def test_calls_in_a_row_each_see_their_own_payload(pools):
    first = map_tasks(_payload_seen, {"tag": "a"}, list(range(8)), 2, cpu_s=0.0)
    second = map_tasks(_payload_seen, {"tag": "b"}, list(range(8)), 2, cpu_s=0.0)
    assert [tag for tag, _, _ in first] == ["a"] * 8
    assert [tag for tag, _, _ in second] == ["b"] * 8
    assert _one_payload_per_worker(first) and _one_payload_per_worker(second)
    assert pools == [2, 2]  # each call has a pool of its own


def test_a_spawned_worker_gets_the_payload_once(monkeypatch):
    # under spawn nothing is inherited: the payload reaches each worker pickled
    from concurrent import futures
    monkeypatch.setattr(futures, "ProcessPoolExecutor", functools.partial(
        futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")))
    out = map_tasks(_payload_seen, {"tag": "s"}, list(range(6)), 2, cpu_s=0.0)
    assert [tag for tag, _, _ in out] == ["s"] * 6
    assert os.getpid() not in {pid for *_, pid in out}
    assert _one_payload_per_worker(out)


def test_a_failing_task_raises_and_leaves_no_worker():
    with pytest.raises(ValueError, match="task 3 failed"):
        map_tasks(_fails_on_three, None, list(range(6)), 2, cpu_s=0.0)
    assert multiprocessing.active_children() == []
    assert map_tasks(_fails_on_three, None, [0, 1, 2], 2, cpu_s=0.0) == [0, 1, 2]

