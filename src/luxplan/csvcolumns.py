"""Headed CSV files: inputs read as numpy columns, outputs written as text.

Every CSV luxplan reads (infer's readings, ingest's sample and command logs,
and the contribution matrix) is a header line, then rows of comma-separated
fields; blank lines are skipped. Each format checks its own header, and its
values on the columns; Table.check names the first bad row in file order.
csv_text writes the small CSV reports and logs.
"""
from __future__ import annotations

import csv
import io
from collections.abc import Callable, Iterable, Sequence
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

Rule = tuple[np.ndarray, Callable[[int], str]]
"""A check of each row: the rows that break it, and row i's message."""


class Column(NamedTuple):
    position: int | None  # in the header; None where the header lacks it
    parse: type  # int, float or str
    empty: object = None  # the value of an empty field; None: parse it too


class Table(NamedTuple):
    """A file's rows as columns. values[k] is column k parsed: float64;
    int64, or an object array of Python ints where one does not fit; or,
    for str, the fields. text[k] holds the fields, all "" for an absent
    column. failed[k] is the rule that column k's fields parse, with the
    parser's message; values[k] holds the parser's "0" where one does not.
    line holds each row's 1-based line. A row of the wrong width, or one
    csv.reader rejects, ends the rows, and stop is its error."""

    path: str | Path
    values: list
    text: list[list[str]]
    failed: list[Rule]
    line: np.ndarray
    stop: str | None

    def check(self, rules: list[Rule]) -> None:
        """Raise ValueError naming the file and line of first_problem's row,
        with its message; failing that, the error of the row that ended the
        rows."""
        problem = first_problem(rules)
        if problem is not None:
            i, message = problem
            raise ValueError(f"{self.path}: line {self.line[i]}: {message}")
        if self.stop is not None:
            raise ValueError(self.stop)


def first_problem(rules: list[Rule]) -> tuple[int, str] | None:
    """The first row that breaks a rule and the message of the first rule
    it breaks, a row's rules checked in the order given; None when every
    row keeps every rule."""
    bad = np.logical_or.reduce([mask for mask, _ in rules])
    if not bad.any():
        return None
    i = int(bad.argmax())
    return i, next(message(i) for mask, message in rules if mask[i])


def read_columns(path: str | Path, spec: Callable[[list[str]], list[Column]]) -> Table:
    """The columns spec(header) asks for; spec raises the format's
    ValueError for a header that does not fit. A file split_csv_text splits
    is read without the csv module, any other by csv.reader. Text that is
    not UTF-8, or a header line csv.reader rejects, raises ValueError naming
    the file; a row's errors wait for Table.check."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            content = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    header, fields, line, stop = split_csv_text(content) or _csv_rows(path, content)
    columns = spec(header)
    text = [[""] * len(line) if c.position is None else fields[c.position::len(header)]
            for c in columns]
    values, failed = zip(*(_parse(t, c.parse, c.empty) for t, c in zip(text, columns)))
    return Table(path, list(values), text, list(failed), np.asarray(line, dtype=np.intp), stop)


def split_csv_text(text: str) -> tuple[list[str], list[str], np.ndarray, None] | None:
    """A headed CSV split at line ends and commas: the header's fields, the
    nonblank rows' fields in one flat list, and each row's line. None where
    csv's quoting, limits or messages are needed: the text has a quote or a
    NUL, a line over the field size limit, or a row whose width differs
    from the header's. Lines end at CR LF, CR or LF, as for csv.reader;
    str.splitlines would also split at VT, FF, NEL and more."""
    if '"' in text or "\0" in text:
        return None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    header = lines[0].split(",") if lines[0] else []
    rows = list(filter(None, lines[1:]))
    if list(map(str.count, rows, repeat(","))).count(len(header) - 1) != len(rows):
        return None
    line = np.arange(2, len(rows) + 2)
    if len(rows) + (lines[-1] == "") < len(lines) - 1:  # blank lines among the rows
        line = np.flatnonzero(np.fromiter(map(bool, lines[1:]), bool, len(lines) - 1)) + 2
    return header, ",".join(rows).split(",") if rows else [], line, None


def _csv_rows(path: str | Path, text: str) -> tuple[list[str], list[str], list[int], str | None]:
    """split_csv_text's parts through csv.reader, and the error of a row
    that ends the rows."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header, fields, line, stop = None, [], [], None
    try:
        header = next(reader, [])
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                stop = (f"{path}: line {reader.line_num}: "
                        f"expected {len(header)} fields, got {len(row)}")
                break
            fields += row
            line.append(reader.line_num)
    except csv.Error as exc:
        stop = f"{path}: line {reader.line_num}: {exc}"
        if header is None:
            raise ValueError(stop) from None
    return header, fields, line, stop


def _parse(text: list[str], parse: type, empty: object) -> tuple[np.ndarray | list[str], Rule]:
    """A column's values, and the rule that its fields parse."""
    failed: dict[int, str] = {}
    if parse is str:
        values = text
    else:
        try:
            values = list(map(parse, text)) if empty is None else [
                parse(v) if v else empty for v in text]
        except ValueError:
            values = []
            for i, v in enumerate(text):
                try:
                    values.append(parse(v) if v or empty is None else empty)
                except ValueError as exc:
                    values.append(parse("0"))
                    failed[i] = str(exc)
        try:
            values = np.array(values, dtype=float if parse is float else np.int64)
        except OverflowError:
            values = np.array(values, dtype=object)
    mask = np.zeros(len(text), dtype=bool)
    mask[list(failed)] = True
    return values, (mask, failed.__getitem__)


def csv_text(header: list[str], rows: Iterable[Sequence]) -> str:
    """A header line and the rows as csv.writer quotes them, each line
    ended by LF."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def coded(names: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct names in first-appearance order, and each entry's
    number among them."""
    codes: dict[str, int] = {}
    code = [codes.setdefault(name, len(codes)) for name in names]
    return tuple(codes), np.array(code, dtype=np.intp)
