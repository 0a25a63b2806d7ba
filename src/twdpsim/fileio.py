"""Binary trace persistence and delimited series output.

Trace file layout (little-endian, fixed offsets, declaration order):

    offset  size  field
         0     8  magic "TWDPTRC1"
         8     2  version (u16, currently 1)
        10    32  v1, v2, diffuse_power, omega (4 x f64)
        42    32  aoa1, aoa2, doppler_hz, sample_period_s (4 x f64)
        74     4  n_sinusoids (u32)
        78     4  trial_index (u32)
        82     8  seed (u64)
        90     8  n_samples (u64)
        98     -  payload: n_samples interleaved (re, im) f64 pairs

CSV series carry a header row and numeric rows printed with 17 significant
digits so every float64 round-trips exactly.
"""

from __future__ import annotations

import json
import struct
from contextlib import contextmanager
from os import PathLike

import numpy as np

from .params import (
    ChannelParams,
    InvalidScenarioError,
    ParameterError,
    ScenarioConfig,
    validate_scenario,
)
from .sos import FadingTrace

TRACE_MAGIC = b"TWDPTRC1"
TRACE_VERSION = 1
_HEADER = struct.Struct("<8sH8dIIQQ")


class TraceFormatError(ValueError):
    """Base class for malformed trace files."""


class BadMagicError(TraceFormatError):
    pass


class VersionMismatchError(TraceFormatError):
    pass


class TruncatedPayloadError(TraceFormatError):
    pass


@contextmanager
def _open(target, mode: str):
    """Open a path in ``mode``, or pass an already open file through."""
    if isinstance(target, (str, PathLike)):
        with open(target, mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
    else:
        yield target


def write_trace(trace: FadingTrace, sink) -> None:
    """Write one trace (header + interleaved f64 IQ payload) to a path or file.

    The header carries the scenario's sample period, so a strided trace,
    whose samples are further apart, is refused.
    """
    if trace.stride != 1:
        raise ValueError(
            f"write_trace stores whole traces, not every {trace.stride}th sample"
        )
    scn = trace.scenario
    header = _HEADER.pack(
        TRACE_MAGIC,
        TRACE_VERSION,
        *vars(scn.params).values(),
        scn.aoa1,
        scn.aoa2,
        scn.doppler_hz,
        scn.sample_period_s,
        scn.n_sinusoids,
        trace.trial_index,
        scn.seed,
        trace.samples.size,
    )
    payload = np.ascontiguousarray(trace.samples, dtype="<c16").tobytes()
    with _open(sink, "wb") as handle:
        handle.write(header)
        handle.write(payload)


def read_trace(source) -> FadingTrace:
    """Read a trace written by :func:`write_trace`.

    Raises BadMagicError, VersionMismatchError, or TruncatedPayloadError for
    the corresponding corruptions, and TraceFormatError for trailing bytes or
    header values no valid scenario has.  The returned trace's scenario
    records one trial (the ensemble size is not a per-trace property).
    """
    with _open(source, "rb") as handle:
        raw = handle.read()
    if len(raw) < _HEADER.size:
        raise TruncatedPayloadError(
            f"file holds {len(raw)} bytes, header needs {_HEADER.size}"
        )
    (
        magic,
        version,
        *channel,
        aoa1,
        aoa2,
        doppler_hz,
        sample_period_s,
        n_sinusoids,
        trial_index,
        seed,
        n_samples,
    ) = _HEADER.unpack_from(raw)
    if magic != TRACE_MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != TRACE_VERSION:
        raise VersionMismatchError(f"unsupported trace version {version}")
    expected = _HEADER.size + 16 * n_samples
    if len(raw) < expected:
        raise TruncatedPayloadError(
            f"payload declares {n_samples} samples ({expected} bytes) "
            f"but file holds {len(raw)}"
        )
    if len(raw) > expected:
        raise TraceFormatError(
            f"{len(raw) - expected} trailing bytes after the declared payload"
        )
    samples = np.frombuffer(
        raw, dtype="<c16", count=n_samples, offset=_HEADER.size
    ).astype(np.complex128)
    try:
        scenario = validate_scenario(
            ScenarioConfig(
                ChannelParams(*channel), aoa1, aoa2, doppler_hz, sample_period_s,
                n_sinusoids, n_trials=1, n_samples=n_samples, seed=seed,
            )
        )
    except (ParameterError, InvalidScenarioError) as exc:
        raise TraceFormatError(f"invalid trace header: {exc}") from exc
    return FadingTrace(samples, trial_index, scenario)


def format_float(value: float) -> str:
    return format(float(value), ".17g")


def _series_rows(columns: list[str], rows) -> np.ndarray:
    """Check a table for the series writers; return its rows as 2-D floats."""
    if not columns:
        raise ValueError("a series table needs at least one column")
    if any(c in name for name in columns for c in ",\n\r"):
        raise ValueError(f"a column name in {columns!r} holds a comma or a line break")
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != len(columns):
        raise ValueError(
            f"{len(columns)} columns declared but rows have {rows.shape[1]} fields"
        )
    if not np.all(np.isfinite(rows)):
        raise ValueError("series values must be finite")
    return rows


def write_series_csv(sink, columns: list[str], rows: np.ndarray) -> None:
    """Write a rectangular numeric table with a header row."""
    rows = _series_rows(columns, rows)
    with _open(sink, "w") as handle:
        handle.write(",".join(columns) + "\n")
        for row in rows:
            handle.write(",".join(format_float(v) for v in row) + "\n")


def read_series_csv(source) -> tuple[list[str], np.ndarray]:
    """Parse a table written by :func:`write_series_csv`; rows come back 2-D."""
    with _open(source, "r") as handle:
        text = handle.read()
    if not text:
        raise ValueError("empty series file")
    header, *lines = text.split("\n")  # splitlines() also splits at "\x85"
    columns = header.split(",")
    rows = [[float(field) for field in line.split(",")] for line in lines if line]
    if any(len(row) != len(columns) for row in rows):
        raise ValueError("row width does not match header")
    return columns, np.array(rows, dtype=float).reshape(len(rows), len(columns))


def write_series_json(sink, columns: list[str], rows: np.ndarray) -> None:
    """JSON mirror of the CSV table: {"columns": [...], "rows": [[...], ...]}."""
    rows = _series_rows(columns, rows)
    doc = {"columns": list(columns), "rows": rows.tolist()}
    payload = json.dumps(doc, indent=2, sort_keys=True)
    with _open(sink, "w") as handle:
        handle.write(payload + "\n")
