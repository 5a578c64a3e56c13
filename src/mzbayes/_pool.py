"""Independent cells mapped in order, in-process or on forked worker processes.

Calibration's phases and the scan's θ cells are such cells: each draws
from its own seeded streams, so no result depends on the worker count.
"""

from __future__ import annotations

import os
from typing import Callable

# On a shared 2-vCPU x86-64 host (Intel Xeon, numpy 2.4) a pulse of an
# ideal Bayes and classical scan cost 85-100 ns, and a forked pool of two
# workers 7-10 ms to start and stop. Over such a scan two workers lost to
# one process at 2**18 pulses in all, broke about even at 2**19 and won at
# 2**20 (69-77 against 90-99 ms), so a worker pays for itself from about
# 2**18 pulses of its own.
_PULSES_PER_WORKER = 2**18


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def workers(cells: int, pulses: int) -> int:
    """Worker processes for ``cells`` cells that draw ``pulses`` pulses in all.

    One per usable CPU, at most one per cell, and each with at least
    ``_PULSES_PER_WORKER`` pulses to draw; below 2 the cells run
    in-process. Workers are forked, so a platform without ``fork`` gets
    none.
    """
    if not hasattr(os, "fork"):
        return 1
    return min(_cpus(), cells, pulses // _PULSES_PER_WORKER)


# A worker process's task and the pool's first failed cell (the cell count
# while none has failed), set by the pool's initializer in the worker; the
# process that maps the cells never sets them.
_task = _failed = None


def _start_worker(task: Callable, failed) -> None:
    global _task, _failed
    _task, _failed = task, failed


def _run_cell(cell: int):
    # Only a cell after a failed one is skipped, so a cell taken late still
    # runs if it comes first, and pool.map raises at a failed cell before it
    # reaches a skipped cell's None.
    if cell > _failed.value:
        return None
    try:
        return _task(cell)
    except BaseException:
        with _failed.get_lock():
            _failed.value = min(_failed.value, cell)
        raise


def map_cells(task: Callable, cells: int, pulses: int) -> list:
    """``task`` of each cell index ``0 .. cells - 1``, in cell order.

    The cells run in-process, or on ``workers(cells, pulses)`` forked
    processes. Fork hands each worker ``task``, with everything it
    was built from, without pickling it, where spawn would import numpy
    and mzbayes again in each worker; a call carries only its cell's
    index. Fork is safe while the calling process runs no other thread,
    and mzbayes starts none. Once a cell raises, no cell after it starts,
    and the first cell in order that raised has its exception re-raised
    with its own type, even if a later one raised first; no worker
    outlives the call.
    """
    n = workers(cells, pulses)
    if n < 2:
        return [task(cell) for cell in range(cells)]
    # Imported here: at module level they would add about 17 ms to every command.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(n, context, initializer=_start_worker,
                               initargs=(task, context.Value("q", cells)))
    try:
        return list(pool.map(_run_cell, range(cells)))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
