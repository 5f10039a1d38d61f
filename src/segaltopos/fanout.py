"""Independent calls on every CPU the process may use.

``fan_out(fn, order)`` returns ``[fn(0), ..., fn(n - 1)]`` for a
permutation ``order`` of ``range(n)``.  The indices wait in a pipe as
4-byte tokens, in ``order``.  The calling process and the workers it
forks (one per CPU in its affinity set, at most one per index, in all)
each read a token, compute ``fn`` on it and read the next, until the pipe
is closed and empty.  With one worker nothing is forked and the caller
drains the same pipe alone.

A thread in the caller writes the tokens, ``CHUNK`` bytes at a time.
Each such write is atomic, so the pipe only ever holds whole tokens, and a
write that finds the pipe full waits for the caller's own reads, so any
number of indices fits through.  The thread starts after the last fork
and ends before ``fan_out`` returns: no fork happens while it runs.
Each forked worker sends its results, or the exceptions ``fn`` raised,
back on its own pipe once the queue is empty, and leaves by ``os._exit``:
it never returns into the caller's stack.  The caller reaps every worker
on every exit path, killing those still running when it raises or is
interrupted.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading

from .topos import InternalCheckError

TOKEN = 4  # bytes per index in the queue
CHUNK = 512  # bytes per write: POSIX makes a write of up to PIPE_BUF >= 512 bytes atomic


def worker_count(n: int) -> int:
    """One worker per CPU in the affinity set, at most one per index; one
    where the platform cannot tell the set or cannot fork."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or not hasattr(os, "fork"):
        return 1
    return max(1, min(len(affinity(0)), n))


def fan_out(fn, order) -> list:
    """``[fn(i) for i in range(n)]``, with the indices handed out in
    ``order``, a permutation of ``range(n)``.

    When some calls raise, this raises the exception of the smallest index
    that raised, which is the one a serial loop would meet first.  A worker
    that ends without reporting raises ``InternalCheckError``; so does one
    whose results or exceptions do not pickle, since they cross back by
    pickle."""
    n = len(order)
    tokens = b"".join(i.to_bytes(TOKEN, "little") for i in order)
    queue_r, queue_w = os.pipe()
    children = {}  # pid -> read end of its result pipe
    feeder = None
    try:
        for _ in range(worker_count(n) - 1):
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
