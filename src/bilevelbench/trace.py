"""Per-iteration trace records and their CSV encoding.

The CSV header, the fields of :class:`TraceRecord` in order, is a stable
external contract:
``t,grad_norm,y_err,z_err,eps_err,phi,calls_gxF,calls_gyF,calls_gyG,calls_hxy,calls_hyy``.
Missing metrics are written as empty fields, never as omitted columns.
Float fields use the shortest round-tripping decimal form, so parsing a
trace and re-emitting it reproduces the file byte for byte.

A row is a :class:`TraceRecord` named tuple.  Its metrics are checked once,
when it enters a :class:`Trace` through :meth:`Trace.append`, the
constructor or :meth:`Trace.extend` (the loop's rows, a block at a time);
a row put into ``Trace.records`` directly is not checked.
:func:`trace_to_csv` encodes a row with one ``",".join`` of its values.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import islice, repeat
from operator import lt
from pathlib import Path
from typing import NamedTuple

import numpy as np


class TraceRecord(NamedTuple):
    """One iteration's metrics; ``None`` marks a metric that was not computed.

    :meth:`Trace.append` rejects a negative ``grad_norm``, ``y_err``,
    ``z_err`` or ``eps_err``.
    """

    t: int
    grad_norm: float | None
    y_err: float | None
    z_err: float | None
    eps_err: float | None
    phi: float | None
    calls_gxF: int
    calls_gyF: int
    calls_gyG: int
    calls_hxy: int
    calls_hyy: int


# the CSV columns are the record's fields, in order
COLUMNS = TraceRecord._fields
CSV_HEADER = ",".join(COLUMNS)
# the metrics that are norms or errors, at positions 1-4 of a row
_NONNEGATIVE = COLUMNS[1:5]


@dataclass
class Trace:
    """An ordered run trace plus run-level events.

    Add rows with :meth:`append`, :meth:`extend` or the constructor.
    """

    records: list[TraceRecord] = field(default_factory=list)
    skipped_steps: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        # rows given to the constructor pass the same checks as appended ones
        rows, self.records = self.records, []
        for rec in rows:
            self.append(rec)

    def append(self, rec: TraceRecord) -> None:
        if self.records and rec.t <= self.records[-1].t:
            raise ValueError("trace iteration indices must be strictly increasing")
        for name, v in zip(_NONNEGATIVE, rec[1:5]):
            if v is not None and v < 0:
                raise ValueError(f"{name} must be non-negative, got {v}")
        self.records.append(rec)

    def extend(self, records: list[TraceRecord]) -> None:
        """Append ``records`` as :meth:`append` would, or keep none of them."""
        # the checks a column at a time; filter(None, .) drops None and zeros
        ts, *metrics = islice(zip(*records), 5) if records else [()]
        seq = (self.records[-1].t, *ts) if self.records else ts
        if not all(map(lt, seq, seq[1:])) or any(
                any(map(lt, filter(None, col), repeat(0))) for col in metrics):
            Trace(self.records[-1:] + records)   # append raises the first failure
        self.records += records

    def __len__(self) -> int:
        return len(self.records)

    def column(self, name: str) -> list[float | int | None]:
        if name not in COLUMNS:
            raise KeyError(name)
        return [getattr(r, name) for r in self.records]


def _fmt(v: float | int | None) -> str:
    """One field: integers of any type as plain digits, other numbers in
    the shortest round-tripping float form, ``None`` as empty."""
    if v is None:
        return ""
    # exact types first: the loop writes Python floats and ints
    cls = type(v)
    if cls is float:
        return repr(v)
    if cls is int:
        return str(v)
    if cls is bool:
        raise TypeError("bool is not a trace value")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    # repr(float(v)): under numpy 2 a numpy scalar's own repr names its type
    return repr(float(v))


def trace_to_csv(trace: Trace) -> str:
    return "\n".join([CSV_HEADER,
                      *(",".join(map(_fmt, r)) for r in trace.records), ""])


def write_atomic(path, text: str) -> None:
    """Replace the file at ``path`` by ``text`` in one step.

    Writes a temporary file next to ``path`` and renames it into place, so
    the path holds either its old bytes or all of the new ones, never a
    partial write.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_trace(path, trace: Trace) -> None:
    write_atomic(path, trace_to_csv(trace))


def _parse_opt_float(s: str) -> float | None:
    return None if s == "" else float(s)


def trace_from_csv(text: str) -> Trace:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"bad trace header; expected {CSV_HEADER!r}")
    trace = Trace()
    for line in lines[1:]:
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(COLUMNS):
            raise ValueError(f"bad trace row: {line!r}")
        # by position: t, the five metrics, the five call counts
        trace.append(TraceRecord(int(parts[0]),
                                 *map(_parse_opt_float, parts[1:6]),
                                 *map(int, parts[6:])))
    return trace


def read_trace(path) -> Trace:
    with open(path, "r", newline="") as fh:
        return trace_from_csv(fh.read())
