"""A large CSV path parsed on every CPU, for ``dataio.ingest_csv``; loaded on first use."""

from __future__ import annotations

import io
from array import array
from contextlib import closing
from pathlib import Path
from typing import Iterator

from . import _workers, dataio
from .core import Observation, _observations


def parse(path: str | Path, size: int, layout: tuple) -> tuple[dict, list] | None:
    """The row loop's result for the file at ``path``, its header read by the
    caller, parsed on every CPU, or None where it is left to one loop over
    the whole stream.

    The file is cut into W ranges, each at least ``dataio._FORK_BYTES``
    long and starting right after a newline byte, and worker w parses range
    w (see ``_share``). Each period keeps line order: worker w's rows of a
    period follow those of workers before it. A CsvError or
    UnicodeDecodeError in any range, or a (period, item) that two ranges
    both hold, kept or dropped, returns None, so that the serial loop
    raises the error with its own message and line.
    """
    if (workers := _workers.count(size // dataio._FORK_BYTES)) == 1:
        return None
    with open(path, "rb") as raw:
        cuts = [0]
        for k in range(1, workers):
            raw.seek(size * k // workers)
            raw.readline()
            cuts.append(raw.tell())
    names: dict[str, str] = {}  # one string per item id, shared by its periods
    parts: list[dict[int, dict[str, Observation]]] = [{} for _ in range(workers)]
    dropped: list[tuple[int, str]] = []
    records = _workers.interleave(workers, _share, (path, cuts + [size], layout, names))
    with closing(records):
        try:
            for worker, t, *data in records:
                if t is None:
                    dropped += data[0]
                elif len(data) == 1:
                    parts[worker][t] = data[0]
                else:
                    ids, prices, quantities = data
                    built = _observations(memoryview(prices).cast("d"),
                                          memoryview(quantities).cast("d"))
                    parts[worker][t] = dict(zip(map(names.setdefault, ids, ids), built))
        except (dataio.CsvError, UnicodeDecodeError):
            return None
    rows: dict[int, dict[str, Observation]] = {}
    for part in parts:
        for t, items in part.items():
            merged = rows.setdefault(t, items)
            if merged is not items:
                held = len(merged)
                merged.update(items)
                if len(merged) < held + len(items):
                    return None
    if len(set(dropped)) < len(dropped) or any(item in rows.get(t, ()) for t, item in dropped):
        return None
    return rows, dropped


def _share(worker: int, workers: int, path: str | Path, cuts: list[int], layout: tuple,
           names: dict[str, str]) -> Iterator[tuple]:
    """Range ``worker`` of the file through the row loop: one item per period,
    then (worker, None, the (period, item) keys of its dropped rows).

    Worker 0, whose range holds the header, runs in the calling process and
    yields (worker, period, map). Any other yields (worker, period, ids,
    prices, quantities), the last two as the bytes of an ``array("d")``, so
    that a forked child sends each period as one marshal record and the
    calling process builds its Observations with no check left to make.
    The range is read as UTF-8 with universal newlines, as a path is.
    """
    raw = io.BufferedReader(_Range(path, cuts[worker], cuts[worker + 1]))
    with io.TextIOWrapper(raw, encoding="utf-8") as lines:
        if worker == 0:
            next(lines)
        rows, dropped = dataio._rows(lines, layout, names)
    for t, items in rows.items():
        if worker == 0:
            yield worker, t, items
        else:
            observations = items.values()
            yield (worker, t, list(items),
                   array("d", [o.price for o in observations]).tobytes(),
                   array("d", [o.quantity for o in observations]).tobytes())
    yield worker, None, list(dropped)


class _Range(io.RawIOBase):
    """The bytes from ``start`` to ``end`` of a file, as a stream of their own."""

    def __init__(self, path: str | Path, start: int, end: int) -> None:
        self._file = open(path, "rb", buffering=0)
        self._file.seek(start)
        self._left = end - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        read = self._file.readinto(memoryview(buffer)[:self._left])
        self._left -= read
        return read

    def close(self) -> None:
        self._file.close()
        super().close()
