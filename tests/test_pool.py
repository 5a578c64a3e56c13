"""The forked cell map's edges: dead workers, unpicklable failures, long maps, failed forks."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import mzbayes
from mzbayes import _pool


class NeedsTwoArguments(Exception):
    """Pickles, but cannot be unpickled: pickle rebuilds it from its one message."""

    def __init__(self, first, second):
        super().__init__(f"{first} {second}")


def _local_exception():
    class Local(Exception):  # pickle cannot find it by name
        pass

    return Local("local")


@pytest.mark.parametrize("death", ["exit", "kill"])
def test_worker_that_dies_without_reporting_raises(on_workers, death):
    def task(cell):
        if cell == 3:
            if death == "exit":
                os._exit(0)
            os.kill(os.getpid(), signal.SIGKILL)
        return cell

    with pytest.raises(RuntimeError, match="without reporting its cells"):
        with on_workers(2):
            _pool.map_cells(task, 8, 0)


@pytest.mark.parametrize("make", [lambda: NeedsTwoArguments(1, 2), _local_exception],
                         ids=["unpickled", "pickled"])
def test_unpicklable_exception_is_its_cells_failure(on_workers, make):
    # cell 1's exception cannot cross the pipe; cell 2's could, but comes later
    def task(cell):
        if cell == 1:
            raise make()
        if cell == 2:
            raise ValueError("cell 2")
        return cell

    with pytest.raises(RuntimeError, match="cell 1 raised (NeedsTwoArguments|Local)"):
        with on_workers(2):
            _pool.map_cells(task, 4, 0)


def test_more_cells_than_a_pipe_holds_come_back_in_order(on_workers):
    # 20 000 four-byte indices overfill a 64 KiB pipe
    with on_workers(2):
        assert _pool.map_cells(lambda cell: cell, 20_000, 0) == list(range(20_000))


def test_failed_fork_reaps_the_forked_worker(on_workers, monkeypatch):
    forks, fork = [], os.fork

    def fork_once():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError("no second worker")
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    with pytest.raises(BlockingIOError, match="no second worker"):
        with on_workers(2):
            _pool.map_cells(lambda cell: cell, 4, 0)
    assert len(forks) == 2


def test_forked_map_imports_no_executor():
    # in a fresh interpreter, as the command line runs
    script = (
        "import sys, threading\n"
        "from mzbayes import _pool\n"
        "_pool.workers = lambda cells, pulses: 2\n"
        "assert _pool.map_cells(lambda cell: cell * cell, 5, 0) == [0, 1, 4, 9, 16]\n"
        "assert threading.active_count() == 1\n"
        "print(sorted(name for name in sys.modules\n"
        "             if name.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(mzbayes.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout == "[]\n"
