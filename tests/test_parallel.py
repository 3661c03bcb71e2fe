import math
import multiprocessing
import os

import pytest

from tradesync import parallel
from tradesync.parallel import chunked, map_tasks

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


def _parent_pid(payload, task):
    return os.getppid()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n_tasks", [0, 1, 2, 7])
def test_map_tasks_keeps_task_order(workers, n_tasks):
    tasks = list(range(n_tasks))
    out = map_tasks(_square_plus, 10, tasks, workers, cpu_s=0.0)
    assert [v for v, _ in out] == [10 + t * t for t in tasks]
    # one worker or fewer than two tasks run in this process, else in the pool
    in_process = workers == 1 or n_tasks < 2
    assert all((pid == os.getpid()) == in_process for _, pid in out)


@pytest.mark.parametrize("cpu_s,pooled", [(math.nextafter(GATE, 0), False),
                                          (GATE, True), (10 * GATE, True)])
def test_map_tasks_pools_exactly_when_the_estimate_reaches_the_gate(
        monkeypatch, cpu_s, pooled):
    monkeypatch.setattr(parallel, "POOL_MIN_CPU_S", GATE)
    out = map_tasks(_square_plus, 1, [3, 1, 2], 2, cpu_s=cpu_s)
    assert [v for v, _ in out] == [10, 2, 5]
    assert all((pid == os.getpid()) != pooled for _, pid in out)
    assert (parallel._POOL is not None) == pooled


def test_map_tasks_with_more_workers_than_tasks():
    out = map_tasks(_square_plus, 0, [3, 1, 2], workers=4, cpu_s=0.0)
    assert [v for v, _ in out] == [9, 1, 4]
    assert os.getpid() not in {pid for _, pid in out}


def test_calls_in_a_row_each_see_their_own_payload():
    first = map_tasks(_payload_seen, {"tag": "a"}, list(range(8)), 2, cpu_s=0.0)
    pool = parallel._pool(2)
    second = map_tasks(_payload_seen, {"tag": "b"}, list(range(8)), 2, cpu_s=0.0)
    assert parallel._pool(2) is pool
    assert [tag for tag, _, _ in first] == ["a"] * 8
    assert [tag for tag, _, _ in second] == ["b"] * 8
    # within one call, each worker unpickles the payload once
    for out in (first, second):
        objects = {(pid, obj) for _, obj, pid in out}
        assert len(objects) == len({pid for _, _, pid in out})


def test_a_changed_worker_count_reopens_the_pool():
    map_tasks(_square_plus, 0, [1, 2], 2, cpu_s=0.0)
    two = parallel._pool(2)
    again = {pid for _, pid in map_tasks(_square_plus, 0, list(range(6)), 2,
                                         cpu_s=0.0)}
    assert parallel._pool(2) is two and len(again) <= 2
    out = map_tasks(_square_plus, 0, list(range(12)), 3, cpu_s=0.0)
    assert [v for v, _ in out] == [t * t for t in range(12)]
    three = parallel._pool(3)
    assert three is not two and three._max_workers == 3


def test_a_failing_task_raises_and_the_pool_stays_usable():
    with pytest.raises(ValueError, match="task 3 failed"):
        map_tasks(_fails_on_three, None, list(range(6)), 2, cpu_s=0.0)
    pool = parallel._pool(2)
    assert map_tasks(_fails_on_three, None, [0, 1, 2], 2, cpu_s=0.0) == [0, 1, 2]
    assert parallel._pool(2) is pool


def _child_run(conn):
    try:
        conn.send(map_tasks(_parent_pid, None, list(range(4)), 2, cpu_s=0.0))
    finally:
        parallel.shutdown()
        conn.close()


def test_a_forked_child_opens_its_own_pool():
    map_tasks(_parent_pid, None, [0, 1], 2, cpu_s=0.0)
    parent_pool = parallel._pool(2)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_run, args=(send,))
    child.start()
    send.close()
    assert recv.poll(60), "the child's pool gave no answer"
    parents = recv.recv()
    child.join(60)
    assert child.exitcode == 0
    # the child's tasks ran on workers of its own, not on this process's
    assert set(parents) == {child.pid}
    assert parallel._pool(2) is parent_pool
    assert map_tasks(_parent_pid, None, [0, 1], 2, cpu_s=0.0) == [os.getpid()] * 2


def test_shutdown_joins_the_workers():
    map_tasks(_square_plus, 0, [1, 2], 2, cpu_s=0.0)
    assert multiprocessing.active_children()
    parallel.shutdown()
    assert multiprocessing.active_children() == []
    parallel.shutdown()  # closing twice is harmless


def test_chunked_splits_lists_and_ranges_in_order():
    assert chunked(list(range(7)), 3) == [[0, 1, 2], [3, 4], [5, 6]]
    assert [list(c) for c in chunked(range(7), 3)] == [[0, 1, 2], [3, 4], [5, 6]]
    assert [list(c) for c in chunked(range(0), 4)] == [[]]
    assert chunked([1, 2], 5) == [[1], [2]]
