import io
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twdpsim.fileio import (
    BadMagicError,
    TraceFormatError,
    TruncatedPayloadError,
    VersionMismatchError,
    read_series_csv,
    read_trace,
    write_series_csv,
    write_series_json,
    write_trace,
)
from twdpsim.params import make_scenario, validate_scenario
from twdpsim.sos import generate_trace


def sample_trace(seed=5, n_samples=1000, **kw):
    scn = validate_scenario(
        make_scenario(k=3.0, gamma=0.7, n_trials=2, n_samples=n_samples, seed=seed, **kw)
    )
    return generate_trace(scn, 1)


class TestTraceRoundTrip:
    def test_thousand_sample_round_trip(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "t.twdptrc"
        write_trace(trace, path)
        back = read_trace(path)
        assert np.array_equal(back.samples, trace.samples)
        assert back.sample_period_s == trace.sample_period_s
        assert back.scenario_digest == trace.scenario_digest
        assert back.trial_index == trace.trial_index
        assert back.seed == trace.seed

    def test_strided_trace_refused(self):
        trace = sample_trace()
        strided = generate_trace(trace.scenario, trace.trial_index, 10)
        with pytest.raises(ValueError, match="not every 10th sample"):
            write_trace(strided, io.BytesIO())

    def test_bytes_fixed_point(self):
        # writing what was read reproduces the file bit for bit
        trace = sample_trace(seed=9)
        buf = io.BytesIO()
        write_trace(trace, buf)
        first = buf.getvalue()
        buf2 = io.BytesIO()
        write_trace(read_trace(io.BytesIO(first)), buf2)
        assert buf2.getvalue() == first

    def test_header_layout(self):
        trace = sample_trace()
        buf = io.BytesIO()
        write_trace(trace, buf)
        raw = buf.getvalue()
        assert raw[:8] == b"TWDPTRC1"
        assert struct.unpack_from("<H", raw, 8)[0] == 1
        assert struct.unpack_from("<Q", raw, 90)[0] == trace.samples.size
        assert len(raw) == 98 + 16 * trace.samples.size

    def test_random_traces_round_trip(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            trace = sample_trace(
                seed=int(rng.integers(2 ** 63)),
                n_samples=int(rng.integers(2, 64)),
            )
            buf = io.BytesIO()
            write_trace(trace, buf)
            back = read_trace(io.BytesIO(buf.getvalue()))
            assert np.array_equal(back.samples, trace.samples)
            assert back.scenario_digest == trace.scenario_digest


class TestTraceErrors:
    def _bytes(self):
        buf = io.BytesIO()
        write_trace(sample_trace(n_samples=16), buf)
        return bytearray(buf.getvalue())

    def test_bad_magic(self):
        raw = self._bytes()
        raw[0] = ord(b"X")
        with pytest.raises(BadMagicError):
            read_trace(io.BytesIO(bytes(raw)))

    def test_version_mismatch(self):
        raw = self._bytes()
        raw[8] = 99
        with pytest.raises(VersionMismatchError):
            read_trace(io.BytesIO(bytes(raw)))

    def test_truncated_payload(self):
        raw = self._bytes()
        with pytest.raises(TruncatedPayloadError):
            read_trace(io.BytesIO(bytes(raw[:-8])))

    def test_declared_length_beyond_payload(self):
        raw = self._bytes()
        struct.pack_into("<Q", raw, 90, 17)  # one sample more than stored
        with pytest.raises(TruncatedPayloadError):
            read_trace(io.BytesIO(bytes(raw)))

    def test_short_header(self):
        with pytest.raises(TruncatedPayloadError):
            read_trace(io.BytesIO(b"TWDP"))

    def test_trailing_bytes(self):
        with pytest.raises(TraceFormatError, match="2 trailing bytes"):
            read_trace(io.BytesIO(bytes(self._bytes() + b"\0\0")))

    def test_nan_header_float(self):
        raw = self._bytes()
        struct.pack_into("<d", raw, 58, float("nan"))  # doppler_hz
        with pytest.raises(TraceFormatError, match="doppler") as info:
            read_trace(io.BytesIO(bytes(raw)))
        assert info.value.__cause__ is not None

    def test_negative_tone_amplitude(self):
        raw = self._bytes()
        struct.pack_into("<d", raw, 10, -1.0)  # v1
        with pytest.raises(TraceFormatError, match="v1") as info:
            read_trace(io.BytesIO(bytes(raw)))
        assert info.value.__cause__ is not None


class TestSeriesTables:
    def test_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = np.column_stack(
            [rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, 50),
             rng.standard_normal(50)]
        )
        path = tmp_path / "s.csv"
        write_series_csv(path, ["a", "b"], rows)
        cols, back = read_series_csv(path)
        assert cols == ["a", "b"]
        assert np.array_equal(back, rows)  # 17 significant digits round-trip

    def test_csv_rejects_width_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_series_csv(tmp_path / "x.csv", ["a"], np.ones((3, 2)))

    def test_csv_rejects_nonfinite(self, tmp_path):
        with pytest.raises(ValueError):
            write_series_csv(tmp_path / "x.csv", ["a"], np.array([[np.inf]]))

    def test_json_mirrors_csv(self, tmp_path):
        rows = np.array([[0.0, 1.5], [2.0, -3.25]])
        csv_path = tmp_path / "s.csv"
        json_path = tmp_path / "s.json"
        write_series_csv(csv_path, ["x", "y"], rows)
        write_series_json(json_path, ["x", "y"], rows)
        doc = json.loads(json_path.read_text())
        assert doc["columns"] == ["x", "y"]
        assert np.array_equal(np.array(doc["rows"]), rows)
        cols, csv_rows = read_series_csv(csv_path)
        assert np.array_equal(csv_rows, np.array(doc["rows"]))

    @pytest.mark.parametrize("writer", [write_series_csv, write_series_json])
    @pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb"])
    def test_writers_reject_separators_in_names(self, tmp_path, writer, name):
        with pytest.raises(ValueError, match="column name"):
            writer(tmp_path / "x", [name, "c"], np.ones((2, 2)))
        assert not (tmp_path / "x").exists()

    def test_csv_header_only_table(self, tmp_path):
        path = tmp_path / "s.csv"
        write_series_csv(path, ["a", "b", "c"], np.empty((0, 3)))
        cols, rows = read_series_csv(path)
        assert cols == ["a", "b", "c"]
        assert rows.shape == (0, 3)


_FORBIDDEN = ",\n\r"


@settings(max_examples=200, deadline=None)
@given(
    columns=st.lists(st.text(max_size=6), min_size=1, max_size=4),
    n_rows=st.integers(0, 4),
    data=st.data(),
)
def test_series_tables_round_trip_or_raise(columns, n_rows, data):
    # For finite rows and names free of ',', '\n' and '\r', the CSV table
    # reads back exactly (to the sign of zero) and the JSON document holds the
    # same table; for anything else both writers raise ValueError.
    size = n_rows * len(columns)
    values = data.draw(st.lists(st.floats(), min_size=size, max_size=size))
    rows = np.array(values, dtype=float).reshape(n_rows, len(columns))
    legal = np.all(np.isfinite(rows)) and not any(
        c in name for name in columns for c in _FORBIDDEN
    )
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, json_path = Path(tmp) / "s.csv", Path(tmp) / "s.json"
        if not legal:
            with pytest.raises(ValueError):
                write_series_csv(csv_path, columns, rows)
            with pytest.raises(ValueError):
                write_series_json(json_path, columns, rows)
            return
        write_series_csv(csv_path, columns, rows)
        write_series_json(json_path, columns, rows)
        cols, back = read_series_csv(csv_path)
        doc = json.loads(json_path.read_text(encoding="utf-8"))
    json_rows = np.array(doc["rows"], dtype=float).reshape(-1, len(columns))
    assert cols == doc["columns"] == columns
    for table in (back, json_rows):
        assert table.shape == rows.shape
        assert table.tobytes() == rows.tobytes()


# The 16-sample trace the error tests above corrupt by hand.
_VALID_TRACE = bytes(TestTraceErrors()._bytes())


@settings(max_examples=300, deadline=None)
@given(
    floats=st.lists(st.tuples(st.sampled_from(range(10, 74, 8)), st.floats()), max_size=3),
    edits=st.lists(st.tuples(st.integers(10, 97), st.binary(min_size=1, max_size=8)), max_size=2),
    cut=st.one_of(st.none(), st.integers(0, len(_VALID_TRACE))),
    tail=st.binary(max_size=24),
)
def test_read_trace_mutated_bytes(floats, edits, cut, tail):
    # Any corruption of a valid trace (header fields past magic and version
    # overwritten, the file cut short, bytes appended) either reads or raises
    # TraceFormatError.
    raw = bytearray(_VALID_TRACE)
    for offset, value in floats:
        struct.pack_into("<d", raw, offset, value)
    for offset, chunk in edits:
        raw[offset : offset + len(chunk)] = chunk
    data = bytes(raw[:cut]) + tail
    try:
        trace = read_trace(io.BytesIO(data))
    except TraceFormatError:
        return
    assert len(data) == 98 + 16 * trace.samples.size
