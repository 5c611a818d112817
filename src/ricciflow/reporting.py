"""Serialization of traces, spectra, and bound reports.

Time series go to CSV (one row per accepted step), reports to JSON with
nested verdicts. No run writes plot data: ``write_plot_series`` (two-column
text) is kept only because ``perfbench/tracer.py`` patches it. All
floating-point values are printed with 17 significant digits, which
round-trips 64-bit floats exactly, and the JSON writer is canonical (sorted
keys, fixed indentation) so identical runs produce byte-identical files; the
one timestamp lives on its own line and is easy to exclude from comparisons.
"""

from __future__ import annotations

import array
import contextlib
import datetime
import json
import os

import numpy as np

from .errors import ConfigError

# trace.csv column -> key of ``FlowTrace.steps``
TRACE_COLUMNS = {
    "t": "t",
    "dt": "dt",
    "area": "area",
    "r": "r",
    "R_min": "R_min",
    "R_max": "R_max",
    "max_abs_R_minus_r": "max_dev",
    "argmin": "argmin",
    "argmax": "argmax",
}


def format_float(x):
    return format(float(x), ".17g")


@contextlib.contextmanager
def _replacing(path):
    """An ASCII text file that ``os.replace`` moves over ``path`` once it is
    written whole, so that ``path`` never holds part of an artifact; a write
    that fails leaves ``path`` as it was and no temporary file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_trace_csv(path, trace):
    columns = [trace.steps[key] for key in TRACE_COLUMNS.values()]
    with _replacing(path) as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for row in zip(*columns):
            fh.write(",".join(format_float(x) for x in row) + "\n")


def _read_csv(path):
    """Header and float rows of a CSV artifact; ConfigError if truncated,
    malformed or holding a NaN or infinite cell, which no run writes.

    Each line is parsed into floats as it is read, into one flat buffer.
    """
    values = array.array("d")
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        for line in map(str.strip, fh):
            if not line:
                continue
            row = line.split(",")
            if len(row) != len(header):
                raise ConfigError(f"{path} is truncated: a row of the wrong length")
            try:
                values.extend(float(x) for x in row)
            except ValueError as exc:
                raise ConfigError(f"malformed {path}: {exc}") from exc
    if not values:
        raise ConfigError(f"{path} is truncated: no data rows")
    data = np.frombuffer(values, dtype=np.float64).reshape(-1, len(header))
    if not np.isfinite(data).all():
        raise ConfigError(f"malformed {path}: a cell is NaN or infinite")
    return header, data


def _require_header(path, header, expected):
    if header != expected:
        raise ConfigError(f"{path} does not have the columns {','.join(expected)}")


def read_trace_csv(path):
    header, data = _read_csv(path)
    _require_header(path, header, list(TRACE_COLUMNS))
    columns = {name: data[:, j] for j, name in enumerate(header)}
    for name in ("argmin", "argmax"):  # vertex indices, exact in a float below 2**53
        column = columns[name]
        if not (np.all((0.0 <= column) & (column < 2.0**53)) and np.all(column % 1.0 == 0.0)):
            raise ConfigError(f"{path}: a {name} cell is not a vertex index")
        columns[name] = column.astype(int)
    return columns


def _spectrum_header(k):
    return ["t"] + [f"{group}_{b}" for group in ("branch", "sorted", "flag") for b in range(k)]


def write_spectrum_csv(path, branch_set):
    """Branch-ordered and sorted eigenvalues plus crossing flags per time."""
    k = branch_set.k
    with _replacing(path) as fh:
        fh.write(",".join(_spectrum_header(k)) + "\n")
        for j, t in enumerate(branch_set.times):
            row = [format_float(t)]
            row += [format_float(branch_set.values[b, j]) for b in range(k)]
            row += [format_float(branch_set.sorted_values[b, j]) for b in range(k)]
            row += [str(int(branch_set.flagged[b, j])) for b in range(k)]
            fh.write(",".join(row) + "\n")


def read_spectrum_csv(path):
    header, data = _read_csv(path)
    k = sum(1 for name in header if name.startswith("branch_"))
    _require_header(path, header, _spectrum_header(k))
    if not np.isin(data[:, 1 + 2 * k :], (0.0, 1.0)).all():
        raise ConfigError(f"{path}: a flag cell is neither 0 nor 1")
    out = {
        "times": data[:, 0],
        "values": data[:, 1 : 1 + k].T,
        "sorted_values": data[:, 1 + k : 1 + 2 * k].T,
        "flagged": data[:, 1 + 2 * k : 1 + 3 * k].T.astype(bool),
    }
    return out


def write_plot_series(path, x, y):
    with _replacing(path) as fh:
        for xi, yi in zip(x, y):
            fh.write(f"{format_float(xi)} {format_float(yi)}\n")


def canonical_json(obj):
    """Canonical JSON text: sorted keys, 2-space indent, 17-digit floats."""
    return "".join(_emit(obj, 0)) + "\n"


def _emit(obj, depth):
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        yield "{\n"
        keys = sorted(obj)
        for pos, key in enumerate(keys):
            yield f"{inner}{json.dumps(str(key))}: "
            yield from _emit(obj[key], depth + 1)
            yield ",\n" if pos < len(keys) - 1 else "\n"
        yield pad + "}"
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            yield "[]"
            return
        yield "[\n"
        for pos, item in enumerate(seq):
            yield inner
            yield from _emit(item, depth + 1)
            yield ",\n" if pos < len(seq) - 1 else "\n"
        yield pad + "]"
    elif isinstance(obj, bool) or obj is None:
        yield json.dumps(obj)
    elif isinstance(obj, (int, np.integer)):
        yield str(int(obj))
    elif isinstance(obj, (float, np.floating)):
        value = float(obj)
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError("non-finite float in report")
        yield format_float(value)
    elif isinstance(obj, str):
        yield json.dumps(obj)
    elif isinstance(obj, np.ndarray):
        yield from _emit(obj.tolist(), depth)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def write_report_json(path, report_dict):
    """Write ``report_dict`` as canonical JSON."""
    with _replacing(path) as fh:
        fh.write(canonical_json(report_dict))


def timestamp():
    """The current UTC time in ISO 8601, for a report's ``generated_at``."""
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def json_object(value, what, allowed=None):
    """``value`` if it is a JSON object with keys in ``allowed`` (any if None)."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, not {type(value).__name__}")
    unknown = set(value) - set(value if allowed is None else allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {what}: {sorted(unknown)}")
    return value


def read_report_json(path):
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)
