"""CSV emission through the shared fork helper: the bytes of one worker, and no leftovers.

The run_matrix side of the helper is tested in test_harness.TestForkedMatrix.
"""

import io
import os
import threading

import pytest

from dynindex import Dataset, NumericalError, _workers, dataio, emit_csv, format_csv
from helpers import random_market

pytestmark = pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                                reason="Linux only: CPU affinity")

DATASETS = {
    "churn": lambda: random_market(41, periods=7, items=9, churn=0.3),
    "fewer-periods-than-workers": lambda: random_market(42, periods=2, items=5),
    "int-ids": lambda: Dataset.build({t: {k: (1.0 + t / 3 + k / 7, 2.0 + k) for k in range(1, 6)}
                                      for t in range(5)}),
}


@pytest.fixture
def forked(monkeypatch):
    """Emission forks for any dataset size; returns a setter of the worker count."""
    monkeypatch.setattr(dataio, "_FORK_ROWS", 0)
    return lambda workers: monkeypatch.setattr(_workers, "count", lambda jobs: workers)


def refusing(forks):
    """An os.fork that records its call and refuses."""
    def fork():
        forks.append(1)
        raise BlockingIOError("fork refused")
    return fork


def leaves_nothing(fds):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.listdir("/proc/self/fd") == fds


@pytest.mark.parametrize("value_column", ["price", "expenditure"])
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_every_worker_count_writes_the_same_bytes(forked, tmp_path, name, value_column):
    ds = DATASETS[name]()
    forked(1)
    serial = format_csv(ds, value_column)
    fds = os.listdir("/proc/self/fd")
    for workers in (1, 2, 3, 4):
        forked(workers)
        assert format_csv(ds, value_column) == serial
        out = io.StringIO()
        emit_csv(ds, out, value_column)
        assert out.getvalue() == serial
        path = tmp_path / f"{workers}.csv"
        emit_csv(ds, path, value_column)
        assert path.read_bytes() == serial.encode()
        leaves_nothing(fds)


def test_a_childs_exception_mid_stream_is_raised_with_its_type(forked, monkeypatch):
    chunks = dataio._period_chunks

    def failing(worker, *args):
        for number, chunk in enumerate(chunks(worker, *args)):
            if worker == 1 and number == 1:
                raise NumericalError("worker 1 failed mid-stream")
            yield chunk

    ds = random_market(43, periods=7, items=4)
    # the header and periods 0 to 3 come before worker 1's second period
    written = format_csv(ds).splitlines(keepends=True)[:1 + sum(
        len(pd.items) for pd in ds.periods[:4])]
    monkeypatch.setattr(dataio, "_period_chunks", failing)
    forked(3)
    fds = os.listdir("/proc/self/fd")
    out = io.StringIO()
    with pytest.raises(NumericalError, match="^worker 1 failed mid-stream$"):
        emit_csv(ds, out)
    assert out.getvalue() == "".join(written)
    leaves_nothing(fds)


def test_a_child_ending_without_its_share_names_its_exit_status(forked, monkeypatch):
    chunks = dataio._period_chunks

    def exiting(worker, *args):
        if worker == 2:
            os._exit(7)
        return chunks(worker, *args)

    monkeypatch.setattr(dataio, "_period_chunks", exiting)
    forked(3)
    fds = os.listdir("/proc/self/fd")
    with pytest.raises(RuntimeError, match=r"worker 2 .*\(exit status 7\)$"):
        format_csv(random_market(44, periods=6, items=4))
    leaves_nothing(fds)


def test_a_record_cut_short_names_the_exit_status(forked, monkeypatch):
    def cut_short(fd, tag, data):
        os.write(fd, tag + (len(data) + 1).to_bytes(8, "little") + data[:10])
        os._exit(5)

    monkeypatch.setattr(_workers, "_send", cut_short)  # the children's copy
    forked(2)
    fds = os.listdir("/proc/self/fd")
    with pytest.raises(RuntimeError, match=r"^worker 1 .*\(exit status 5\)$"):
        format_csv(random_market(49, periods=4, items=4))
    leaves_nothing(fds)


def test_a_failed_write_leaves_no_child_and_no_pipe(forked):
    class Target:
        writes = 0

        def write(self, text):
            self.writes += 1
            if self.writes == 3:
                raise OSError("disk full")

    forked(3)
    fds = os.listdir("/proc/self/fd")
    target = Target()
    with pytest.raises(OSError, match="^disk full$") as error:
        emit_csv(random_market(45, periods=9, items=4), target)
    assert target.writes == 3
    # the traceback, which holds emit_csv's frame, is still alive
    assert error.tb is not None
    leaves_nothing(fds)


def test_a_refused_fork_writes_the_same_bytes(forked, monkeypatch):
    ds = random_market(46, periods=7, items=6)
    forked(1)
    serial = format_csv(ds)
    forks = []
    monkeypatch.setattr(os, "fork", refusing(forks))
    forked(3)
    assert format_csv(ds) == serial
    assert forks == [1, 1]


def test_nothing_forks_while_another_thread_is_alive(monkeypatch):
    monkeypatch.setattr(dataio, "_FORK_ROWS", 0)
    ds = random_market(47, periods=7, items=6)
    serial = format_csv(ds)
    forks = []
    monkeypatch.setattr(os, "fork", refusing(forks))
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        text = format_csv(ds)
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    assert text == serial


def test_small_datasets_format_in_this_process(monkeypatch):
    forks = []
    monkeypatch.setattr(os, "fork", refusing(forks))
    monkeypatch.setattr(_workers, "count", lambda jobs: 2)
    format_csv(random_market(48, periods=4, items=6))
    assert forks == []
