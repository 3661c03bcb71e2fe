"""What each entry point loads, checked in a fresh interpreter so that the
modules this test session has already imported do not hide it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import tradesync

SRC = str(Path(tradesync.__file__).resolve().parents[1])
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _run(code: str, cwd=None, env=os.environ) -> subprocess.CompletedProcess:
    env = {**env, "PYTHONPATH": SRC, "TRADESYNC_WORKERS": "1"}
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def _tracer_targets() -> tuple:
    """The TARGETS tuple of the benchmark's tracer, read from its source."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "TARGETS":
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TARGETS")


def test_reader_import_is_light():
    done = _run("import sys, tradesync.ingest\n"
                "print(' '.join(sorted(sys.modules)))")
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "tradesync.ingest" in loaded
    heavy = {"tradesync.report", "tradesync.netmetrics", "tradesync.syncnet",
             "tradesync.synth", "jsonschema"}
    assert not heavy & loaded


def test_report_runs_without_jsonschema(tmp_path):
    done = _run(
        "import sys\n"
        "sys.modules['jsonschema'] = None  # any import of it now fails\n"
        "from tradesync.cli import main\n"
        "assert main(['synth', '--agents', '60', '--days', '120', '--beta-mean',\n"
        "             '0.4', '--community', '8:1.0', '--base-rate-scale', '0.1',\n"
        "             '--seed', '3', '--out-dir', 'data']) == 0\n"
        "sys.exit(main(['report', '--trades', 'data/trades.csv', '--quotes',\n"
        "               'data/quotes.csv', '--ticker', 'SYN', '--shuffles', '199',\n"
        "               '--replicas', '20', '--seed', '5', '--out-dir', 'out']))",
        cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "report.json").exists()


def test_cli_import_loads_every_traced_module():
    # the tracer reads each target's module from sys.modules right after
    # `import tradesync.cli`, so the CLI must load them all at import
    modules = sorted({f"tradesync.{module}" for module, _, _ in _tracer_targets()})
    done = _run("import sys, tradesync.cli\n"
                f"print(' '.join(m for m in {modules!r} if m not in sys.modules))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_cli_import_leaves_the_process_pool_unloaded():
    # the pool's module, and multiprocessing with it, is imported when a
    # pool first opens, so one-worker runs and the light views never load it
    done = _run("import sys, tradesync.cli\n"
                "print('concurrent.futures.process' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_a_small_report_with_two_workers_opens_no_pool(tmp_path):
    # every parallel call of a default report on this market estimates far
    # less CPU than the pool's gate, so it all runs in the calling process
    done = _run(
        "import os, sys\n"
        "from tradesync.cli import main\n"
        "assert main(['synth', '--agents', '60', '--days', '120', '--beta-mean',\n"
        "             '0.4', '--community', '8:1.0', '--base-rate-scale', '0.1',\n"
        "             '--seed', '3', '--out-dir', 'data']) == 0\n"
        "os.environ['TRADESYNC_WORKERS'] = '2'\n"
        "assert main(['report', '--trades', 'data/trades.csv', '--quotes',\n"
        "             'data/quotes.csv', '--ticker', 'SYN', '--out-dir', 'out']) == 0\n"
        "print('concurrent.futures.process' in sys.modules)",
        cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-1] == "False"


def test_cli_import_sets_one_blas_thread_unless_the_user_sets_more():
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    done = _run("import os, tradesync.cli\n"
                f"print(' '.join(os.environ.get(v, '-') for v in {BLAS_THREAD_VARS!r}))",
                env={**env, "OPENBLAS_NUM_THREADS": "3"})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "3", "1", "1", "1"]


def test_report_never_loads_numpy_ma(tmp_path):
    # a plain np.unique or np.percentile imports numpy.ma, 8-15 ms per run
    done = _run(
        "import sys\n"
        "from tradesync.cli import main\n"
        "assert main(['synth', '--agents', '60', '--days', '120', '--beta-mean',\n"
        "             '0.4', '--community', '8:1.0', '--base-rate-scale', '0.1',\n"
        "             '--seed', '3', '--out-dir', 'data']) == 0\n"
        "assert main(['report', '--trades', 'data/trades.csv', '--quotes',\n"
        "             'data/quotes.csv', '--ticker', 'SYN', '--shuffles', '199',\n"
        "             '--replicas', '20', '--seed', '5', '--out-dir', 'out']) == 0\n"
        "print('numpy.ma' in sys.modules)",
        cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-1] == "False"
