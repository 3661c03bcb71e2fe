import os

import pytest

from tradesync.parallel import chunked, map_tasks


def _square_plus(payload, task):
    return payload + task * task, os.getpid()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n_tasks", [0, 1, 2, 7])
def test_map_tasks_keeps_task_order(workers, n_tasks):
    tasks = list(range(n_tasks))
    out = map_tasks(_square_plus, 10, tasks, workers)
    assert [v for v, _ in out] == [10 + t * t for t in tasks]
    # one worker or fewer than two tasks run in this process, else in the pool
    in_process = workers == 1 or n_tasks < 2
    assert all((pid == os.getpid()) == in_process for _, pid in out)


def test_map_tasks_with_more_workers_than_tasks():
    out = map_tasks(_square_plus, 0, [3, 1, 2], workers=4)
    assert [v for v, _ in out] == [9, 1, 4]
    assert os.getpid() not in {pid for _, pid in out}


def test_chunked_splits_lists_and_ranges_in_order():
    assert chunked(list(range(7)), 3) == [[0, 1, 2], [3, 4], [5, 6]]
    assert [list(c) for c in chunked(range(7), 3)] == [[0, 1, 2], [3, 4], [5, 6]]
    assert [list(c) for c in chunked(range(0), 4)] == [[]]
    assert chunked([1, 2], 5) == [[1], [2]]
