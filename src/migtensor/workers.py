"""Shares of one computation run in forked worker processes: the blocks
of restarts of ``solver.fit``, and the byte ranges of an input file that
``events.read_events`` parses.

:func:`count` says how many processes may share the work: the CPUs in
this process's affinity mask (``os.sched_getaffinity``) where a fork is
safe, else 1. A fork is safe on Linux in a process with a single OS
thread, since a child holds only the thread that forked it; where
``/proc/self/task`` cannot be read, the threads cannot be counted and no
fork is made. numpy's OpenBLAS starts a thread pool at import unless
``OPENBLAS_NUM_THREADS=1``, which importing :mod:`migtensor` sets where
it is unset. :func:`run`
calls a function on each share: share 0 in this process, each other one
in a child made by ``os.fork``, which pickles its result back over a pipe.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys


def count() -> int:
    """Processes that may share work: the usable CPUs where a fork is
    safe, else 1."""
    if sys.platform != "linux":
        return 1
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:  # no /proc: the threads cannot be counted
        return 1
    return len(os.sched_getaffinity(0)) if threads == 1 else 1


def _child(write_end: int, fn, args: tuple) -> None:
    """In a forked child: send ``fn(*args)`` or its exception pickled
    through ``write_end`` and leave without the parent's cleanup."""
    status = 1
    try:
        try:
            payload = (fn(*args), None)
        except BaseException as exc:  # sent to the parent, which raises it
            payload = (None, exc)
        with open(write_end, "wb") as fh:  # an exception that cannot be pickled sends nothing
            fh.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _received(pid: int, data: bytes):
    """A child's result from the bytes it sent; its exception is raised."""
    if not data:
        raise ChildProcessError(f"worker {pid} exited without a result")
    result, exc = pickle.loads(data)
    if exc is not None:
        raise exc
    return result


def run(fn, shares: list) -> list:
    """``[fn(*args) for args in shares]``: share 0 runs here, each other one
    in a forked child, all at once. A child's exception is raised here. If
    any share fails, the children are killed, and they are always reaped."""
    children = []  # (pid, read end of its pipe), in share order
    try:
        for args in shares[1:]:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _child(write_end, fn, args)
            os.close(write_end)
            children.append((pid, open(read_end, "rb", buffering=0)))
        results = [fn(*shares[0])]
        for pid, pipe in children:
            results.append(_received(pid, pipe.read()))
        return results
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
