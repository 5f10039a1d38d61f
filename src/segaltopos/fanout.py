"""Independent calls on the CPUs the process may use, where that pays.

``fan_out(fn, order, seconds)`` returns ``[fn(0), ..., fn(n - 1)]``;
``seconds[i]`` is the predicted time of ``fn(i)``.  ``worker_count``
weighs those predictions against the measured cost of a fork.  With one
worker the calls run in a plain loop, and nothing is forked or loaded.

With more, the indices wait in a pipe as 4-byte tokens, in ``order``, a
permutation of ``range(n)``.  The calling process and the workers it
forks each read a token, compute ``fn`` on it and read the next, until
the pipe is closed and empty.  A thread in the caller writes the tokens,
``CHUNK`` bytes at a time.  Each such write is atomic, so the pipe only
ever holds whole tokens, and a write that finds the pipe full waits for
the caller's own reads, so any number of indices fits through.  The thread
starts after the last fork and ends before ``fan_out`` returns: no fork
happens while it runs.  Each forked worker sends its results, or the
exceptions ``fn`` raised, back on its own pipe once the queue is empty,
and leaves by ``os._exit``: it never returns into the caller's stack.  The
caller reaps every worker on every exit path, killing those still running
when it raises or is interrupted.
"""

from __future__ import annotations

import os
import threading

from .topos import InternalCheckError

TOKEN = 4  # bytes per index in the queue
CHUNK = 512  # bytes per write: POSIX makes a write of up to PIPE_BUF >= 512 bytes atomic

# What one more worker costs the caller: the fork, the copy-on-write
# faults and the result pipe, and loading pickle and signal the first time.
# On a 2-core x86_64 VM under Python 3.11, fan_out of two 3 ms verdicts
# took 8.5 ms with a fork against 6 ms without, and loading the two
# modules takes about 4.6 ms.
FORK_S = 0.010


def worker_count(seconds) -> int:
    """How many processes, the caller included, finish calls of the
    predicted ``seconds`` soonest: w of them take about the longer of the
    longest call and an even share of the total, plus a fork for each
    worker after the first.  At most one per CPU in the affinity set and
    one per call; one where the platform cannot tell the set or cannot
    fork."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or not hasattr(os, "fork"):
        return 1
    total, longest = sum(seconds), max(seconds, default=0.0)

    def finish(w):
        return max(longest, total / w) + (w - 1) * FORK_S

    most = max(1, min(len(affinity(0)), len(seconds)))
    return min(range(1, most + 1), key=finish)


def fan_out(fn, order, seconds) -> list:
    """``[fn(i) for i in range(n)]``, on ``worker_count(seconds)``
    processes, with the indices handed out in ``order``, a permutation of
    ``range(n)``.

    When some calls raise, this raises the exception of the smallest index
    that raised, which is the one a serial loop would meet first.  A worker
    that ends without reporting raises ``InternalCheckError``; so does one
    whose results or exceptions do not pickle, since they cross back by
    pickle."""
    n = len(order)
    workers = worker_count(seconds)
    if workers == 1:
        return [fn(i) for i in range(n)]
    import pickle
    import signal

    tokens = b"".join(i.to_bytes(TOKEN, "little") for i in order)
    queue_r, queue_w = os.pipe()
    children = {}  # pid -> read end of its result pipe
    feeder = None
    try:
        for _ in range(workers - 1):
            out_r, out_w = os.pipe()
            # Signals wait until the child is inside _work and the caller
            # has recorded it: a handler that raised in between would send
            # the child back up the caller's stack, or leave it unreaped.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
            try:
                pid = os.fork()
            except OSError:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                os.close(out_r)
                os.close(out_w)
                raise
            if pid == 0:
                _work(fn, queue_r, out_w, [queue_w, out_r, *children.values()], mask)
            children[pid] = out_r
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            os.close(out_w)
        feeder = threading.Thread(target=_feed, args=(queue_w, tokens))
        feeder.start()
        queue_w = None  # the feeder closes it
        done = _drain(fn, queue_r)
        for pid, out_r in list(children.items()):
            data = _read_all(out_r)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            os.close(out_r)
            if code != 0:
                raise InternalCheckError(f"a worker exited with code {code} before it reported")
            done.extend(pickle.loads(data))
    finally:
        for pid, out_r in children.items():
            os.kill(pid, signal.SIGKILL)  # an unreaped child exists, even if it has exited
            os.waitpid(pid, 0)
            os.close(out_r)
        os.close(queue_r)  # a feeder still writing now gets EPIPE and stops
        if queue_w is not None:
            os.close(queue_w)
        if feeder is not None:
            feeder.join()
    results = [None] * n
    failed = []
    for i, raised, value in done:
        results[i] = value
        if raised:
            failed.append((i, value))
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return results


def _feed(queue_w: int, tokens: bytes):
    try:
        for start in range(0, len(tokens), CHUNK):
            os.write(queue_w, tokens[start : start + CHUNK])
    except BrokenPipeError:  # every reader is gone: the caller is unwinding
        pass
    finally:
        os.close(queue_w)


def _drain(fn, queue_r: int) -> list:
    """(index, raised, result or exception) for each token read until the
    queue is closed and empty.  After a call raises, larger indices are
    skipped: their outcome cannot change which exception is raised."""
    done = []
    failed = None
    while token := os.read(queue_r, TOKEN):
        i = int.from_bytes(token, "little")
        if failed is not None and i > failed:
            continue
        try:
            done.append((i, False, fn(i)))
        except Exception as exc:
            done.append((i, True, exc))
            failed = i  # smaller than any failure before: larger ones were skipped
    return done


def _work(fn, queue_r: int, out_w: int, inherited: list, mask):
    """A forked worker: drain the queue, send the results, exit."""
    code = 1
    try:
        import pickle  # both loaded by the caller before it forked
        import signal

        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for fd in inherited:
            os.close(fd)
        data = pickle.dumps(_drain(fn, queue_r))
        view = memoryview(data)
        while view:
            view = view[os.write(out_w, view) :]
        code = 0
    finally:
        os._exit(code)


def _read_all(fd: int) -> bytes:
    parts = []
    while part := os.read(fd, 1 << 16):
        parts.append(part)
    return b"".join(parts)
