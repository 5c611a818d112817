import os
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ricciflow import ConfigError, FlowConfig, perturb_metric, run_flow, track_branches
from ricciflow.reporting import (
    TRACE_COLUMNS,
    canonical_json,
    format_float,
    read_report_json,
    read_spectrum_csv,
    read_trace_csv,
    write_plot_series,
    write_report_json,
    write_spectrum_csv,
    write_trace_csv,
)


def test_format_float_round_trips():
    rng = np.random.default_rng(0)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, size=200):
        assert float(format_float(x)) == x


def test_trace_csv_round_trip(run1, tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(path, run1["trace"])
    data = read_trace_csv(path)
    steps = run1["trace"].steps
    for name, key in [
        ("t", "t"), ("dt", "dt"), ("area", "area"), ("r", "r"),
        ("R_min", "R_min"), ("R_max", "R_max"), ("max_abs_R_minus_r", "max_dev"),
        ("argmin", "argmin"), ("argmax", "argmax"),
    ]:
        assert np.array_equal(data[name], steps[key]), name


def test_spectrum_csv_round_trip(run1, tmp_path):
    branches = track_branches(run1["trace"].snapshots())
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(path, branches)
    data = read_spectrum_csv(path)
    assert np.array_equal(data["times"], branches.times)
    assert np.array_equal(data["values"], branches.values)
    assert np.array_equal(data["sorted_values"], branches.sorted_values)
    assert np.array_equal(data["flagged"], branches.flagged)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("rows", [1, 40])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_trace_csv_round_trip_exact(rows, data):
    steps = {}
    for key in TRACE_COLUMNS.values():
        if key in ("argmin", "argmax"):
            steps[key] = data.draw(hnp.arrays(np.int64, rows, elements=st.integers(0, 10**9)))
        else:
            steps[key] = data.draw(hnp.arrays(np.float64, rows, elements=FINITE))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        write_trace_csv(path, SimpleNamespace(steps=steps))
        read = read_trace_csv(path)
    assert list(read) == list(TRACE_COLUMNS)
    for name, key in TRACE_COLUMNS.items():
        assert read[name].dtype == steps[key].dtype, name
        assert np.array_equal(read[name], steps[key]), name


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_spectrum_csv_round_trip_exact(data):
    k = data.draw(st.integers(1, 14))
    times = data.draw(hnp.arrays(np.float64, st.integers(1, 20), elements=FINITE))
    shape = (k, times.shape[0])
    branch_set = SimpleNamespace(
        k=k,
        times=times,
        values=data.draw(hnp.arrays(np.float64, shape, elements=FINITE)),
        sorted_values=data.draw(hnp.arrays(np.float64, shape, elements=FINITE)),
        flagged=data.draw(hnp.arrays(np.bool_, shape)),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spectrum.csv")
        write_spectrum_csv(path, branch_set)
        read = read_spectrum_csv(path)
    for name in ("times", "values", "sorted_values", "flagged"):
        expected = getattr(branch_set, name)
        assert read[name].dtype == expected.dtype, name
        assert np.array_equal(read[name], expected), name


@pytest.mark.parametrize("reader", [read_trace_csv, read_spectrum_csv])
@pytest.mark.parametrize(
    "body", ["", "0.5,1\n", "0.5,1,x,0\n"], ids=["header_only", "short_row", "non_numeric"]
)
def test_truncated_csv_raises_config_error(tmp_path, reader, body):
    path = tmp_path / "artifact.csv"
    path.write_text("t,branch_0,sorted_0,flag_0\n" + body)
    with pytest.raises(ConfigError):
        reader(path)


def test_csv_reader_matches_parsing_every_row_at_once(octagon1, tmp_path):
    # the reader parses each line as it reads it; its arrays must equal those
    # of the whole-file parse it replaced, on a real level-1 trace.csv
    metric, _ = perturb_metric(octagon1, 0.02, 11)
    trace = run_flow(metric, FlowConfig(spectrum_every=30, k=8, seed=3))
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    lines = path.read_text(encoding="ascii").splitlines()
    whole = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert whole.shape == (len(trace.steps["t"]), len(TRACE_COLUMNS))
    read = read_trace_csv(path)
    assert list(read) == lines[0].split(",")
    for j, name in enumerate(read):
        expected = whole[:, j].astype(int) if name in ("argmin", "argmax") else whole[:, j]
        assert read[name].dtype == expected.dtype and np.array_equal(read[name], expected), name


def test_canonical_json_deterministic_and_sorted():
    payload = {"b": 1.0 / 3.0, "a": [1, 2.5, None, True], "nested": {"y": "s", "x": 2}}
    text1 = canonical_json(payload)
    text2 = canonical_json(dict(reversed(list(payload.items()))))
    assert text1 == text2
    assert text1.index('"a"') < text1.index('"b"') < text1.index('"nested"')
    assert format_float(1.0 / 3.0) in text1


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_report_json_round_trip(tmp_path):
    payload = {
        "generated_at": "2026-01-01T00:00:00+00:00",
        "values": [0.1, 2e-300, -3.75],
        "flag": False,
    }
    path = tmp_path / "report.json"
    write_report_json(path, payload)
    assert read_report_json(path) == payload
    # the timestamp occupies its own line, so diff tools can drop it
    lines = [ln for ln in path.read_text().splitlines() if "generated_at" in ln]
    assert len(lines) == 1


def test_plot_series(tmp_path):
    path = tmp_path / "plot.txt"
    write_plot_series(path, [0.0, 1.0], [2.0, 3.0])
    rows = path.read_text().splitlines()
    assert rows == ["0 2", "1 3"]


def test_write_report_json_replaces_the_file_whole(tmp_path, monkeypatch):
    # the report goes through a temporary file beside it; a failed write
    # keeps the old report and leaves no temporary file
    import ricciflow.reporting as reporting

    path = tmp_path / "report.json"
    write_report_json(path, {"run": 1})
    assert read_report_json(path) == {"run": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(reporting.os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write_report_json(path, {"run": 2})
    assert read_report_json(path) == {"run": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


@pytest.mark.parametrize("name", ["trace.csv", "spectrum.csv"])
def test_csv_write_that_fails_midway_leaves_no_partial_file(run1, tmp_path, monkeypatch, name):
    # every artifact goes through a temporary file beside it: a CSV write
    # that fails after a few rows keeps the complete CSV already there, or
    # leaves none, and never a temporary file
    import ricciflow.reporting as reporting

    trace = run1["trace"]
    write, artifact = {
        "trace.csv": (write_trace_csv, trace),
        "spectrum.csv": (write_spectrum_csv, track_branches(trace.snapshots())),
    }[name]
    real = reporting.format_float
    calls = []

    def fail_after_a_few_rows(x):
        calls.append(x)
        if len(calls) > 50:
            raise OSError("disk full")
        return real(x)

    path = tmp_path / name
    write(path, artifact)
    complete = path.read_bytes()
    monkeypatch.setattr(reporting, "format_float", fail_after_a_few_rows)
    for target in (path, tmp_path / f"fresh_{name}"):
        calls.clear()
        with pytest.raises(OSError, match="disk full"):
            write(target, artifact)
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]
    assert path.read_bytes() == complete
