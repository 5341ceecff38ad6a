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
A fork refused for want of processes or memory (``EAGAIN``, ``ENOMEM``)
leaves that share and the later ones to this process.
"""

from __future__ import annotations

import errno
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


def _ended(status: int) -> str:
    """How a child with wait status ``status`` ended, in words."""
    code = os.waitstatus_to_exitcode(status)
    if code >= 0:
        return f"exited with code {code}"
    try:
        return f"was killed by {signal.Signals(-code).name}"
    except ValueError:  # a signal with no name, such as a real-time one
        return f"was killed by signal {-code}"


def _received(pid: int, data: bytes, status: int):
    """A child's result from the bytes it sent before it ended with wait
    status ``status``; its exception is raised."""
    if not data:
        raise ChildProcessError(f"worker {pid} {_ended(status)} without a result")
    result, exc = pickle.loads(data)
    if exc is not None:
        raise exc
    return result


def run(fn, shares: list) -> list:
    """``[fn(*args) for args in shares]``: share 0 runs here, each other one
    in a forked child, all at once. Where ``os.fork`` fails for want of
    processes or memory, that share and the later ones run here after share
    0, in share order, and no further child is forked. A child's exception
    is raised here. If any share fails, the children are killed, and they
    are always reaped."""
    children = []  # (pid, read end of its pipe) of each child not yet reaped, in share order
    try:
        for args in shares[1:]:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except BaseException as exc:
                os.close(read_end)
                os.close(write_end)
                if isinstance(exc, OSError) and exc.errno in (errno.EAGAIN, errno.ENOMEM):
                    break
                raise
            if pid == 0:
                _child(write_end, fn, args)
            os.close(write_end)
            children.append((pid, open(read_end, "rb", buffering=0)))
        here = [fn(*args) for args in (shares[0], *shares[1 + len(children):])]
        results = here[:1]
        while children:
            pid, pipe = children[0]
            data = pipe.read()
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            results.append(_received(pid, data, status))
        return results + here[1:]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
