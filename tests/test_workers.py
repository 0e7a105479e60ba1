"""CSV I/O through the shared fork helper: the result of one worker, and no leftovers.

The run_matrix side of the helper is tested in test_harness.TestForkedMatrix.
"""

import io
import os
import random
import signal
import threading
import warnings

import pytest

from dynindex import (CsvError, Dataset, NumericalError, _workers, dataio, emit_csv, format_csv,
                      ingest_csv)
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


def numbered(worker, workers, count):
    """The numbers below count at positions worker, worker + workers, ..."""
    yield from range(worker, count, workers)


@pytest.fixture
def sigchld_ignored():
    """SIGCHLD ignored, so the system reaps every child as it ends; restored afterwards."""
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    yield
    signal.signal(signal.SIGCHLD, previous)


def test_children_the_system_reaps_still_deliver_their_shares(forked, sigchld_ignored):
    fds = os.listdir("/proc/self/fd")
    assert list(_workers.interleave(3, numbered, (20,))) == list(range(20))
    early = _workers.interleave(3, numbered, (10_000,))
    assert next(early) == 0
    early.close()
    ds = random_market(50, periods=6, items=5)
    forked(1)
    serial = format_csv(ds)
    forked(3)
    assert format_csv(ds) == serial
    leaves_nothing(fds)


def test_children_the_program_reaps_still_deliver_their_shares(monkeypatch):
    kills, kill = [], os.kill
    monkeypatch.setattr(os, "kill", lambda pid, sig: kills.append(pid) or kill(pid, sig))
    fds = os.listdir("/proc/self/fd")
    for close_early in (False, True):
        items = _workers.interleave(3, numbered, (20,))
        assert next(items) == 0
        for _ in range(2):  # each child's records fit its pipe, so both end unread
            os.waitpid(-1, 0)
        if close_early:
            items.close()
        else:
            assert list(items) == list(range(1, 20))
        assert kills == []  # their pids are no longer the helper's to signal
        leaves_nothing(fds)


def test_a_child_the_system_reaps_without_its_share_is_named(sigchld_ignored):
    def exiting(worker, workers):
        if worker == 2:
            os._exit(7)
        yield worker

    fds = os.listdir("/proc/self/fd")
    unknown = r"\(reaped by the calling program, exit status unknown\)"
    with pytest.raises(RuntimeError, match=f"^worker 2 ended without its share {unknown}$"):
        list(_workers.interleave(3, exiting, ()))
    leaves_nothing(fds)


# ---------------------------------------------------------------------------
# Ingestion: every worker count gives the serial loop's dataset, error and warning.


def _lines(value_column="price", periods=6, items=10):
    """The header and the body lines of a random market's CSV, each ending in \\n."""
    text = format_csv(random_market(51, periods=periods, items=items, churn=0.3), value_column)
    return text.splitlines(keepends=True)


def _replaced(lines, line_no, line):
    """The lines with line number line_no (the header is line 1) replaced by line."""
    return lines[:line_no - 1] + [line] + lines[line_no:]


def _zeroed(line):
    """The line with quantity 0."""
    return line.rsplit(",", 1)[0] + ",0\n"


def _negated(line):
    """The line with its value negated."""
    period, item, rest = line.split(",", 2)
    return f"{period},{item},-{rest}"


def _corpus():
    lines = _lines()
    head, body = lines[:1], lines[1:]
    last = len(lines)
    shuffled = body[:]
    random.Random(3).shuffle(shuffled)
    corpus = {
        "price": lines,
        "expenditure": _lines("expenditure"),
        "two-long-periods": _lines(periods=2, items=30),
        "unsorted": head + shuffled,
        "crlf": [line.replace("\n", "\r\n") for line in lines],
        "bare-cr": [line.replace("\n", "\r") for line in lines],
        "mixed-line-ends": [line[:-1] + ("\n", "\r\n", "\r")[k % 3]
                            for k, line in enumerate(lines)],
        "blank-lines": [line + ("\n" if k % 4 else "\r\n") * (k % 3 == 0)
                        for k, line in enumerate(lines)],
        "no-final-line-end": lines[:-1] + [lines[-1][:-1]],
        "zero-quantities": [_zeroed(line) if k % 7 == 3 else line for k, line in enumerate(lines)],
        "all-zero": head + [_zeroed(line) for line in body],
        "duplicate-across-cuts": lines + [lines[1]],
        "duplicate-of-a-dropped-row": _replaced(lines, 2, _zeroed(lines[1])) + [lines[1]],
        "a-dropped-row-twice": _replaced(lines, 2, _zeroed(lines[1])) + [_zeroed(lines[1])],
        "a-dropped-duplicate": lines + [_zeroed(lines[1])],
        "period-gap": [line for line in lines if not line.startswith("2,")],
        "non-positive-price": _replaced(lines, last - 2, _negated(lines[-3])),
        "header-only": head,
    }
    for k, error in enumerate(["0,a,1\n", "x,a,1,1\n", "0,,1,1\n", "0,a,p,1\n", "0,a,1,inf\n"]):
        for share in range(4):
            at = 2 + (last - 2) * share // 4 + k
            corpus[f"malformed-{k}-in-share-{share}"] = _replaced(lines, at, error)
    # past the first 8 KiB, which the caller decodes to read the header
    corpus["invalid-utf-8-late"] = [line.encode() for line in _lines(periods=12, items=30)]
    corpus["invalid-utf-8-late"][-2] = b"0,\xff\xfe,1,1\n"
    return {name: b"".join(line if isinstance(line, bytes) else line.encode() for line in lines)
            for name, lines in corpus.items()}


CORPUS = _corpus()


def outcome(path):
    """What ingest_csv makes of the file: the dataset as periods, item ids in
    order, observations and totals, or the error's type, text and line; and
    each warning's category, text, file and line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ds = ingest_csv(path)
        except (CsvError, UnicodeDecodeError) as exc:
            result = (type(exc), str(exc), getattr(exc, "line", None))
        else:
            seen = {}
            assert all(seen.setdefault(item, item) is item
                       for pd in ds.periods for item in pd.items), "an item id is not shared"
            result = [(pd.period, list(pd.items.items()), pd.total_expenditure())
                      for pd in ds.periods]
    return result, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


@pytest.fixture
def forked_ingest(monkeypatch):
    """Ingestion forks for any file size; returns a setter of the worker count."""
    monkeypatch.setattr(dataio, "_FORK_BYTES", 1)
    return lambda workers: monkeypatch.setattr(_workers, "count", lambda jobs: workers)


@pytest.fixture
def counted(monkeypatch):
    """The forks made and the row loops run in this process, as lists of 1s."""
    calls = {"fork": [], "_rows": []}
    fork, rows = os.fork, dataio._rows
    monkeypatch.setattr(os, "fork", lambda: calls["fork"].append(1) or fork())
    monkeypatch.setattr(dataio, "_rows", lambda *args: calls["_rows"].append(1) or rows(*args))
    return calls


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_every_worker_count_ingests_like_one(forked_ingest, counted, tmp_path, name):
    path = tmp_path / "in.csv"
    path.write_bytes(CORPUS[name])
    forked_ingest(1)
    serial = outcome(path)
    assert counted == {"fork": [], "_rows": [1]}
    fds = os.listdir("/proc/self/fd")
    for workers in (2, 3, 4):
        forked_ingest(workers)
        for calls in counted.values():
            calls.clear()
        assert outcome(path if workers % 2 else str(path)) == serial
        assert counted["fork"] == [1] * (workers - 1)
        if isinstance(serial[0], list):  # no serial parse after the workers'
            assert counted["_rows"] == [1]
        leaves_nothing(fds)


def test_the_corpus_reaches_every_outcome(forked_ingest, tmp_path):
    """Each kind of input above ingests or fails as its name says."""
    forked_ingest(1)
    results = {}
    for name, data in CORPUS.items():
        (tmp_path / "in.csv").write_bytes(data)
        results[name] = outcome(tmp_path / "in.csv")
    assert results["price"] == results["crlf"] == results["bare-cr"] == results["blank-lines"]
    assert isinstance(results["unsorted"][0], list) and results["price"][1] == []
    zeros = sum(k % 7 == 3 for k in range(1, len(_lines())))
    assert results["zero-quantities"][1][0][1] == f"dropped {zeros} zero-quantity row(s)"
    assert results["zero-quantities"][1][0][2] == __file__
    assert results["all-zero"][0][1] == "no usable rows"
    for name in ("duplicate-across-cuts", "duplicate-of-a-dropped-row", "a-dropped-row-twice",
                 "a-dropped-duplicate"):
        assert results[name][0][1].startswith(f"line {len(_lines()) + 1}: duplicate"), name
    assert results["period-gap"][0][1].startswith("validation failed: period-gap")
    assert results["non-positive-price"][0][1].startswith("validation failed: non-positive-price")
    assert results["invalid-utf-8-late"][0][0] is UnicodeDecodeError
    for share in range(4):
        assert results[f"malformed-0-in-share-{share}"][0][1].endswith("expected 4 fields, got 3")
        assert results[f"malformed-4-in-share-{share}"][0][1].endswith("non-finite quantity 'inf'")


def test_a_refused_fork_ingests_in_this_process(forked_ingest, monkeypatch, tmp_path):
    path = tmp_path / "in.csv"
    path.write_bytes(CORPUS["unsorted"])
    forked_ingest(1)
    serial = outcome(path)
    forks = []
    monkeypatch.setattr(os, "fork", refusing(forks))
    forked_ingest(3)
    assert outcome(path) == serial
    assert forks == [1, 1]


def test_file_objects_and_small_files_ingest_in_this_process(forked_ingest, monkeypatch,
                                                               tmp_path):
    path = tmp_path / "in.csv"
    path.write_bytes(CORPUS["price"])
    forks = []
    monkeypatch.setattr(os, "fork", refusing(forks))
    forked_ingest(4)
    expected = ingest_csv(io.StringIO(CORPUS["price"].decode()))
    with open(path, encoding="utf-8") as handle:
        assert ingest_csv(handle) == expected
    monkeypatch.setattr(dataio, "_FORK_BYTES", len(CORPUS["price"]) + 1)
    assert ingest_csv(path) == expected
    assert forks == []
