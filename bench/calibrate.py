"""A fixed calibration kernel that tells how fast the machine runs right now.

    python3 bench/calibrate.py

The process reads one line from standard input per measurement, runs the
kernel once and answers with one line: its wall and CPU seconds. It exits at
the end of its input. The kernel does nothing with the program under test.
It mixes the kinds of work `tradesync report` does: permuting and
multiplying blocks of 999 shuffled 500-day windows (the pair kernel), a
pure-Python arithmetic loop (the rewire null) and splitting CSV-like rows
(ingest). `bench/run.py` keeps two of these processes, one per pool worker,
and runs them together next to every `report` round, so a slow phase of a
shared host shows in both.
"""

from __future__ import annotations

import sys
import time

import numpy as np

ITERATIONS = 20


def kernel() -> float:
    rng = np.random.default_rng(12345)
    x, y = rng.random(500), rng.random(500)
    rows = [f"A{k:05d},2000-01-{k % 28 + 1:02d},SYN,{k % 900 + 1},10.5,buy"
            for k in range(2000)]
    acc = 0.0
    for _ in range(ITERATIONS):
        # one pair at 999 shuffles of a 500-day window, as syncnet tests it
        xs = np.tile(x, (999, 1))
        rng.permuted(xs, axis=1, out=xs)
        ys = np.tile(y, (999, 1))
        rng.permuted(ys, axis=1, out=ys)
        acc += float(np.einsum("ij,ij->i", xs, ys).sum())
        total = 0
        for k in range(50000):
            total += k * k % 7
        acc += total
        for _ in range(5):
            acc += sum(int(r.split(",")[3]) for r in rows)
    return acc


def main() -> int:
    for _ in sys.stdin:
        start, cpu = time.perf_counter(), time.process_time()
        kernel()
        print(f"{time.perf_counter() - start!r} {time.process_time() - cpu!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
