"""Scanner-data CSV ingestion, emission, and machine-readable reports.

The CSV schema is deliberately tiny and bit-exact: a header of either
``period,item,price,quantity`` or ``period,item,expenditure,quantity``
(any column order), comma separation with no quoting, UTF-8, decimal
point. Item ids containing commas or newlines are rejected rather than
quoted. One leading byte-order mark, as Excel's "CSV UTF-8" export
writes, is read past; emit writes none. Floats are written with ``repr``
so that a written file parses back to exactly the same dataset.

Both directions stream: ingest reads one line at a time and emit writes
one period at a time, so neither holds the whole text. Ingest parses a
path of 4 MiB or more on every CPU the process may use, each worker a
range of whole lines, and a file object or stdin in this process. Its
rows hold no reference cycle, so it builds them with the cyclic garbage
collector paused and ends with one young collection. Emit formats the
periods on every CPU, ahead of its writes.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import re
import threading
import warnings
from array import array
from contextlib import closing
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Union

from ._version import __version__
from .core import Dataset, Observation, PeriodData, PriceIndexError

Source = Union[str, Path, IO[str]]

_VALUE_COLUMNS = ("price", "expenditure")
_NEEDS_QUOTING = re.compile("[,\r\n]")
# Below this many observations emission formats in this process only: a fork and its
# pipe cost 2-4 ms, formatting 1.2-2.9 us per observation (2-vCPU Xeon, Python 3.11).
_FORK_ROWS = 10_000
# No worker parses fewer bytes of a path (see ``_ingest``), so below twice this many it
# is parsed here: beside a child each process parses about 1.5 times slower than alone,
# and the child's half pays from about 4 MB (2-vCPU Xeon, Python 3.11; W = 2 against
# W = 1, paired medians 0.93-0.97 at 2.4 MB, 0.77 at 4.7 and 24 MB).
_FORK_BYTES = 2 << 20


class CsvError(PriceIndexError):
    """Malformed CSV input or an unrepresentable dataset on output."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class IngestWarning(UserWarning):
    """Non-fatal ingestion note, e.g. dropped zero-quantity rows."""


def ingest_csv(source: Source) -> Dataset:
    """Parse and validate a scanner-data CSV file into a dataset.

    A path is opened as UTF-8 and, from 4 MiB up, parsed on every CPU the
    process may use, each worker a range of whole lines; a file object,
    ``sys.stdin`` included, is iterated line by line in this process and
    never read whole. Either way the dataset, error and warning are those
    of one loop over the lines. Zero-quantity rows are dropped with a
    warning carrying the count. Any substantive violation (duplicate keys,
    malformed numbers, non-positive values, period gaps) raises CsvError
    with the offending line number where one exists.

    The cyclic garbage collector is switched off for the call, forked
    workers included, where it is on and no other thread is alive (no
    other thread may see it switched), and on every exit it is switched on
    again and collects generations 0 and 1 once, so that the ingest's own
    objects are walked in the call, not in the caller's next allocation,
    and the caller's whole heap is not. A collector the caller switched
    off stays off, with nothing collected.
    """
    paused = gc.isenabled() and threading.active_count() == 1
    try:
        if paused:
            gc.disable()
        if isinstance(source, (str, Path)):
            with open(source, encoding="utf-8") as lines:
                layout = _header(lines)
                parsed = None
                if (size := os.fstat(lines.fileno()).st_size) >= 2 * _FORK_BYTES:
                    from ._ingest import parse
                    parsed = parse(source, size, layout)
                rows, dropped = parsed or _rows(lines, layout, {})
        else:
            lines = iter(source)
            rows, dropped = _rows(lines, _header(lines), {})
        return _dataset(rows, len(dropped))
    finally:
        if paused:
            gc.enable()
            gc.collect(1)


def _header(lines: Iterator[str]) -> tuple[int, int, int, int, int, str]:
    """The first line's layout: the width, the positions of period, item, value
    and quantity, and the value column's name."""
    header_line = next(lines, None)
    if header_line is None:
        raise CsvError("empty input")
    # One byte-order mark, as Excel's "CSV UTF-8" export writes, is not part of the header.
    header = header_line.removeprefix("\ufeff").rstrip("\r\n").split(",")
    value_column = _resolve_header(header)
    return (len(header), header.index("period"), header.index("item"),
            header.index(value_column), header.index("quantity"), value_column)


def _rows(lines: Iterable[str], layout: tuple[int, int, int, int, int, str],
          names: dict[str, str]) -> tuple[dict[int, dict[str, Observation]], dict]:
    """The row loop, over the lines after a header: each period's map in line
    order, and the line of each dropped zero-quantity row by (period, item).

    Lines are numbered from 2. Item ids are interned through ``names``.
    """
    width, period_at, item_at, value_at, quantity_at, value_column = layout
    from_expenditure = value_column == "expenditure"
    # Each period's items, and the line of each in insertion order, so a
    # duplicate can name its first line without keeping a key per row.
    rows: dict[int, dict[str, Observation]] = {}
    first_lines: dict[int, array] = {}
    dropped: dict[tuple[int, str], int] = {}
    period_ints: dict[str, int] = {}  # int() once per distinct period string
    period_field = None
    for line_no, line in enumerate(lines, start=2):
        line = line.rstrip("\r\n")
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise CsvError(f"expected {width} fields, got {len(fields)}", line_no)
        item = fields[item_at]
        if not item:
            raise CsvError("empty item id", line_no)
        if fields[period_at] != period_field:
            period_field = fields[period_at]
            t = period_ints.get(period_field)
            if t is None:
                try:
                    t = period_ints[period_field] = int(period_field)
                except ValueError:
                    raise CsvError(f"bad period {period_field!r}", line_no) from None
            if t not in rows:
                rows[t], first_lines[t] = {}, array("I")
            items, item_lines = rows[t], first_lines[t]
        # The Observation (of the unit value, for an expenditure column) is
        # the finiteness check; a column is parsed again only to word the error.
        try:
            value, quantity = float(fields[value_at]), float(fields[quantity_at])
            observation = Observation(
                value / quantity if from_expenditure and quantity else value, quantity)
        except ValueError:
            _parse_float(fields[value_at], value_column, line_no)
            _parse_float(fields[quantity_at], "quantity", line_no)
            raise CsvError(
                f"unit value {value!r}/{quantity!r} is past the float range", line_no
            ) from None
        if item in items or (dropped and (t, item) in dropped):
            first = item_lines[list(items).index(item)] if item in items else dropped[t, item]
            raise CsvError(
                f"duplicate (period, item) ({t}, {item}); first at line {first}", line_no
            )
        if quantity == 0:
            dropped[t, item] = line_no
            continue
        items[names.setdefault(item, item)] = observation
        item_lines.append(line_no)
    return rows, dropped


def _dataset(rows: dict[int, dict[str, Observation]], dropped: int) -> Dataset:
    """The dataset of the row loop's maps, after the warning for dropped rows."""
    if dropped:
        warnings.warn(f"dropped {dropped} zero-quantity row(s)", IngestWarning, stacklevel=3)
    # Each period takes ownership of its map: no copy is made.
    periods = tuple(PeriodData._owning(t, items) for t, items in sorted(rows.items()) if items)
    if not periods:
        raise CsvError("no usable rows")
    dataset = Dataset(periods)
    violations = dataset.validate()
    if violations:
        details = "; ".join(
            f"{v.code} (period {v.period}" + (f", item {v.item})" if v.item is not None else ")")
            for v in violations
        )
        raise CsvError(f"validation failed: {details}")
    return dataset


def _resolve_header(header: list[str]) -> str:
    names = set(header)
    if len(names) != len(header):
        raise CsvError(f"repeated column names in header {header}", 1)
    present = [c for c in _VALUE_COLUMNS if c in names]
    if len(present) == 2:
        raise CsvError("both price and expenditure columns present", 1)
    if len(present) != 1:
        raise CsvError(f"header must name price or expenditure, got {header}", 1)
    expected = {"period", "item", "quantity", present[0]}
    if names != expected:
        raise CsvError(f"unexpected header {header}; want columns {sorted(expected)}", 1)
    return present[0]


def _parse_float(raw: str, column: str, line_no: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise CsvError(f"bad {column} {raw!r}", line_no) from None
    if not math.isfinite(value):
        raise CsvError(f"non-finite {column} {raw!r}", line_no)
    return value


def format_csv(dataset: Dataset, value_column: str = "price") -> str:
    """Render a dataset to the CSV schema on every CPU; exact round-trip via repr floats."""
    return "".join(_csv_chunks(dataset, value_column))


def emit_csv(dataset: Dataset, target: Source, value_column: str = "price") -> None:
    """Write the CSV of ``format_csv`` one period at a time.

    Every check runs before the target is opened or written, so a dataset
    that cannot be written leaves no file and no partial output. The
    periods are formatted on every CPU, but written here, in order.
    """
    chunks = _csv_chunks(dataset, value_column)
    header = next(chunks)
    with closing(chunks):  # a failed write leaves no formatting child behind
        _write(target, itertools.chain((header,), chunks))


def _csv_chunks(dataset: Dataset, value_column: str) -> Iterator[str]:
    """The header line, then each period's lines as one chunk.

    Every check runs before the header is yielded, and before any fork;
    emit_csv relies on it. With W workers, worker w formats the periods
    at positions w, w + W, ... (see ``_workers.interleave``).
    """
    if value_column not in _VALUE_COLUMNS:
        raise CsvError(f"unknown value column {value_column!r}")
    _check_item_ids(dataset)
    yield f"period,item,{value_column},quantity\n"
    from . import _workers
    periods = dataset.periods
    rows = sum(len(pd.items) for pd in periods)
    workers = _workers.count(len(periods)) if rows >= _FORK_ROWS else 1
    yield from _workers.interleave(
        workers, _period_chunks, (periods, value_column == "expenditure"))


def _period_chunks(worker: int, workers: int, periods: tuple[PeriodData, ...],
                   expenditure: bool) -> Iterator[str]:
    """The lines of the periods at positions worker, worker + workers, ..., as one chunk each."""
    for pd in periods[worker::workers]:
        items = pd.items
        order = sorted(items, key=str)
        rows = zip(order, map(items.__getitem__, order))
        prefix = f"{pd.period},"
        if expenditure:
            yield "".join([f"{prefix}{item!s},{o.expenditure!r},{o.quantity!r}\n"
                           for item, o in rows])
        else:
            yield "".join([f"{prefix}{item!s},{o.price!r},{o.quantity!r}\n" for item, o in rows])


def _check_item_ids(dataset: Dataset) -> None:
    """CsvError for an item id that ingest_csv would refuse or read as another.

    That is an id that would need quoting, the empty id, and two ids of
    one period with one text, such as 1 and "1". Each id is checked once,
    and a period's texts only when some id is not a string. Of several,
    the error names the first in written order.
    """
    ids = set().union(*(pd.items for pd in dataset.periods))
    unwritable = {item for item in ids if item == "" or _NEEDS_QUOTING.search(str(item))}
    if unwritable:
        for pd in dataset.periods:
            here = unwritable.intersection(pd.items)
            if here:
                text = str(min(here, key=str))
                raise CsvError(f"item id {text!r} cannot be written unquoted" if text
                               else "an empty item id cannot be written")
    if any(type(item) is not str for item in ids):
        for pd in dataset.periods:
            texts = sorted(map(str, pd.items))
            twice = next((a for a, b in zip(texts, texts[1:]) if a == b), None)
            if twice is not None:
                raise CsvError(f"item ids of period {pd.period} are written alike as {twice!r}")


def _write(target: Source, chunks: Iterable[str]) -> None:
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            _write(handle, chunks)
        return
    for chunk in chunks:
        target.write(chunk)


# ---------------------------------------------------------------------------
# Machine-readable reports


def render_report(payload: Mapping[str, object], timestamp: str | None = None) -> str:
    """One structured JSON document; identical inputs give identical bytes.

    The payload must hold JSON types only: dicts with string keys, lists,
    tuples, strings, ints, floats, bools and None; anything else raises
    TypeError. The timestamp is the only non-reproducible field and is
    left out unless supplied by the caller.
    """
    document = {"tool": {"name": "dynindex", "version": __version__}}
    document.update(payload)
    if timestamp is not None:
        document["generated_at"] = timestamp
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def write_report(
    target: Source, payload: Mapping[str, object], timestamp: str | None = None
) -> None:
    _write(target, (render_report(payload, timestamp),))

