"""The package's one fork path, for the verdict matrix and CSV I/O; loaded on first use.

Not ``multiprocessing``: a pool pickles each share's function and inputs,
starts threads here and needs a semaphore in shared memory.
"""

from __future__ import annotations

import marshal
import os
import signal
import threading
from typing import BinaryIO, Callable, Iterable, Iterator

_HEAD = 9  # a record's tag byte and the 8-byte length of its data


def count(jobs: int) -> int:
    """The CPUs this process may run on, at most one per job; 1 where it must not fork."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):  # a fork beside a thread can deadlock
        return 1
    return min(len(os.sched_getaffinity(0)), jobs)


def interleave(workers: int, share: Callable[..., Iterable], args: tuple) -> Iterator:
    """The items of share(w, workers, *args) for each worker w, round robin.

    A worker drops out when its share ends, so shares of positions w, w +
    workers, ... of one sequence come back in its order. Worker 0, and any
    whose fork fails, runs here, lazily; every other in a forked child that
    sends each item as a record read only when the item is due: the tag
    byte r and the item marshalled (exact, and needing no import), or e and
    the share's exception pickled, after the data's length; then the tag d
    once the share has ended. No child or pipe outlives the generator, even
    one closed early, and a child that the calling program reaped itself
    (its own waitpid, or SIGCHLD ignored) is neither waited for nor signalled.
    """
    children: dict[int, tuple[int, BinaryIO]] = {}  # worker: (pid, read end of its pipe)

    def received(worker: int) -> Iterator:
        pid, reader = children[worker]
        while len(head := reader.read(_HEAD)) == _HEAD:
            size = int.from_bytes(head[1:], "little")
            if len(data := reader.read(size)) < size or head[:1] == b"d":
                break
            if head[:1] == b"e":
                import pickle  # only a child's exception needs it
                raise pickle.loads(data)
            yield (data := marshal.loads(data))  # rebound: the record's bytes are freed
        del children[worker]
        reader.close()
        status = _reap(pid)
        if head[:1] != b"d":
            raise RuntimeError(f"worker {worker} ended without its share ({status})")

    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                continue
            if pid == 0:
                _child(read_fd, write_fd, share, (worker, workers, *args))
            os.close(write_fd)
            children[worker] = (pid, open(read_fd, "rb"))
        shares = [received(worker) if worker in children else iter(share(worker, workers, *args))
                  for worker in range(workers)]
        while shares:
            for items in tuple(shares):
                for item in items:
                    yield item
                    break
                else:
                    shares.remove(items)
    finally:
        for pid, reader in children.values():
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == 0:  # unreaped, so the pid is still ours
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            except (ChildProcessError, ProcessLookupError):  # reaped by the calling program
                pass
            reader.close()


def _reap(pid: int) -> str:
    """Wait for a child; its exit status in words, for the error of a share cut short."""
    try:
        return f"exit status {os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])}"
    except ChildProcessError:
        return "reaped by the calling program, exit status unknown"


def _child(read_fd: int, write_fd: int, share: Callable[..., Iterable], args: tuple) -> None:
    """A forked worker: its share's records through the pipe, then os._exit, never a return.

    os._exit runs none of the parent's exit handlers and flushes none of its
    inherited buffers. The exit status is 0 only once every record is written.
    """
    status = 1
    try:
        os.close(read_fd)
        try:
            for item in share(*args):
                _send(write_fd, b"r", marshal.dumps(item))
            _send(write_fd, b"d", b"")
        except Exception as exc:
            import pickle
            _send(write_fd, b"e", pickle.dumps(exc))
        status = 0
    finally:
        os._exit(status)


def _send(fd: int, tag: bytes, data: bytes) -> None:
    view = memoryview(tag + len(data).to_bytes(_HEAD - 1, "little") + data)
    while view:
        view = view[os.write(fd, view):]
