"""Independent cells mapped in order, in-process or on forked worker processes.

Calibration's phases and the scan's θ cells are such cells: each draws
from its own seeded streams, so no result depends on the worker count.
"""

from __future__ import annotations

import mmap
import os
import pickle
import signal
from typing import Callable

# On a shared 2-vCPU x86-64 host (Intel Xeon, numpy 2.4) a pulse of an
# ideal Bayes and classical scan cost 85-110 ns, and a map of 19 trivial
# cells on two forked workers 3-5 ms (medians of 60). Over such a scan of
# 4 cells, two workers lost to one process at 2**17 pulses in all (21.6
# against 17.7 ms, medians of 15), broke about even from 2**17.5 to 2**18
# and won at 2**18.5 (40.7 against 42.9 ms, 17 of 21 runs) and at 2**19
# (36.2 against 53.5 ms). So a worker pays for itself from about 2**17
# pulses of its own; the rule asks for 2**18, which no shipped map is near.
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


def _outcome(task: Callable, cell: int) -> tuple[bool, bytes]:
    """Whether ``task(cell)`` returned, and its result, or its exception and
    traceback, pickled."""
    try:
        return True, pickle.dumps(task(cell), pickle.HIGHEST_PROTOCOL)
    except BaseException as exc:  # sent to the caller, which re-raises it
        import traceback  # only a failed cell imports it

        trace = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
        try:
            sent = pickle.dumps((exc, trace), pickle.HIGHEST_PROTOCOL)
            pickle.loads(sent)
        except Exception:
            exc = RuntimeError(f"cell {cell} raised {type(exc).__name__}, "
                               f"which cannot be pickled: {exc}")
            sent = pickle.dumps((exc, trace), pickle.HIGHEST_PROTOCOL)
        return False, sent


def _work(task: Callable, cells_fd: int, failed) -> list:
    """A worker's ``(cell, returned, payload)`` of each cell it ran (see ``_outcome``).

    It reads 4-byte cell indices from ``cells_fd`` until end of file and
    skips a cell after ``failed[0]``, the first cell known to have
    failed, which it lowers when one of its own cells fails. Only a cell
    after a failed one is skipped, so a cell taken late still runs if it
    comes first, and the caller meets a failed cell before any skipped one.
    """
    done = []
    # Every write to the pipe is whole indices, so no read takes part of one.
    while index := os.read(cells_fd, 4):
        cell = int.from_bytes(index, "little")
        if cell > failed[0]:
            continue
        returned, payload = _outcome(task, cell)
        if not returned:
            # A lost update leaves a later failed cell here: still no cell
            # before the first failed one is skipped.
            failed[0] = min(failed[0], cell)
        done.append((cell, returned, payload))
    return done


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def map_cells(task: Callable, cells: int, pulses: int) -> list:
    """``task`` of each cell index ``0 .. cells - 1``, in cell order.

    The cells run in-process, or on ``workers(cells, pulses)`` forked
    child processes. Fork hands each worker ``task``, with everything it
    was built from, without pickling it, where spawn would import numpy
    and mzbayes again in each worker. Fork is safe while the calling
    process runs no other thread; mzbayes starts none, and this map uses
    no thread, queue or executor.

    Once every worker is forked, the cell indices go into one pipe, from
    which each worker takes the next cell as it finishes one. A worker
    pickles its cells' results or exceptions into a pipe of its own and
    exits; the caller reads every pipe and reaps every worker. Once a cell
    raises, no cell after it starts: the first failed cell is shared
    through an anonymous shared mapping. The first cell in order that
    raised has its exception re-raised with its own type, even if a later
    one raised first, with the worker's traceback as its cause; an
    exception that cannot be pickled reaches the caller as a
    ``RuntimeError`` that names it. A worker that ends without reporting
    raises ``RuntimeError``. No worker outlives the call.
    """
    n = workers(cells, pulses)
    if n < 2:
        return [task(cell) for cell in range(cells)]
    failed = memoryview(mmap.mmap(-1, 8)).cast("q")  # shared with the workers
    failed[0] = cells
    cells_r, cells_w = os.pipe()
    fds = {cells_r, cells_w}  # this process's open pipe ends
    reports = {}  # each worker not yet reaped: its pid, and its result pipe
    try:
        for _ in range(n):
            report_r, report_w = os.pipe()
            fds |= {report_r, report_w}
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for fd in fds - {cells_r, report_w}:
                        os.close(fd)
                    done = _work(task, cells_r, failed)
                    _write(report_w, pickle.dumps(done, pickle.HIGHEST_PROTOCOL))
                    code = 0
                finally:
                    os._exit(code)
            reports[pid] = report_r
            os.close(report_w)
            fds.remove(report_w)
        # Written once every worker is forked, so a full pipe has a reader.
        os.close(cells_r)
        fds.remove(cells_r)
        try:
            _write(cells_w, b"".join(cell.to_bytes(4, "little") for cell in range(cells)))
        except BrokenPipeError:  # no worker is left to read; reported below
            pass
        os.close(cells_w)
        fds.remove(cells_w)
        outcomes = {}
        for pid in list(reports):
            done = _read(reports[pid])
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del reports[pid]
            if code != 0 or not done:
                raise RuntimeError(f"worker process {pid} ended with exit status {code} "
                                   "without reporting its cells")
            outcomes.update((cell, rest) for cell, *rest in pickle.loads(done))
    finally:
        for pid in reports:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)
    results = []
    for cell in range(cells):
        returned, payload = outcomes[cell]
        if not returned:
            exc, trace = pickle.loads(payload)
            raise exc from RuntimeError(f"cell {cell}, in its worker process:\n{trace}")
        results.append(pickle.loads(payload))
    return results
