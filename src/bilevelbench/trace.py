"""Per-iteration trace records and their CSV encoding.

The CSV header is a stable external contract:
``t,grad_norm,y_err,z_err,eps_err,phi,calls_gxF,calls_gyF,calls_gyG,calls_hxy,calls_hyy``.
Missing metrics are written as empty fields, never as omitted columns.
Float fields use the shortest round-tripping decimal form, so parsing a
trace and re-emitting it reproduces the file byte for byte.

A row is a :class:`TraceRecord` named tuple.  Its metrics are checked once,
when it enters a :class:`Trace` through :meth:`Trace.append` or the
constructor (every loop row and every parsed row passes through append);
a row put into ``Trace.records`` directly is not checked.
:func:`trace_to_csv` encodes a row with one ``",".join`` of its values.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

CSV_HEADER = ("t,grad_norm,y_err,z_err,eps_err,phi,"
              "calls_gxF,calls_gyF,calls_gyG,calls_hxy,calls_hyy")

_METRIC_COLUMNS = ("grad_norm", "y_err", "z_err", "eps_err", "phi")
_CALL_COLUMNS = ("calls_gxF", "calls_gyF", "calls_gyG", "calls_hxy", "calls_hyy")
COLUMNS = ("t",) + _METRIC_COLUMNS + _CALL_COLUMNS


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


# the metrics that are norms or errors, at positions 1-4 of a row
_NONNEGATIVE = _METRIC_COLUMNS[:4]


@dataclass
class Trace:
    """An ordered run trace plus run-level events.

    Add rows with :meth:`append` or the constructor, which check them.
    """

    records: list[TraceRecord] = field(default_factory=list)
    skipped_steps: list[int] = field(default_factory=list)
    aborted_at: int | None = None

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
        trace.append(TraceRecord(
            t=int(parts[0]),
            grad_norm=_parse_opt_float(parts[1]),
            y_err=_parse_opt_float(parts[2]),
            z_err=_parse_opt_float(parts[3]),
            eps_err=_parse_opt_float(parts[4]),
            phi=_parse_opt_float(parts[5]),
            calls_gxF=int(parts[6]), calls_gyF=int(parts[7]),
            calls_gyG=int(parts[8]), calls_hxy=int(parts[9]),
            calls_hyy=int(parts[10]),
        ))
    return trace


def read_trace(path) -> Trace:
    with open(path, "r", newline="") as fh:
        return trace_from_csv(fh.read())
