"""Re-run bound checks from artifacts stored on disk.

The trace CSV keeps the per-step curvature extremes and the vertices where
they sit, which are exactly the binding vertices of the envelope
inequalities, and the spectrum CSV keeps branch-ordered and sorted
eigenvalues with crossing flags. Audit reads them, with the report's
inputs, into the series record a live run builds and hands it to
``bounds.surface_checks`` and ``bounds.pair_checks``, so it reproduces the
live check list exactly; only the eigenvector-dependent residual statistics
are not re-audited.
"""

from __future__ import annotations

import os

from . import bounds as bnd
from .errors import ConfigError
from .reporting import (
    json_object,
    read_report_json,
    read_spectrum_csv,
    read_trace_csv,
    timestamp,
    write_report_json,
)


def audit_directory(path):
    stored, surfaces, pair_inputs = _read_records(path)
    checks = []
    for prefix, (steps, spectrum, inputs) in surfaces.items():
        found, _ = bnd.surface_checks(steps, spectrum, inputs)
        checks += [dict(c.as_dict(), name=prefix + c.name) for c in found]
    if pair_inputs is not None:
        spectra = [spectrum["sorted_values"] for _, spectrum, _ in surfaces.values()]
        found, _ = bnd.pair_checks(*spectra, *pair_inputs)
        checks += [c.as_dict() for c in found]

    result = {
        "version": 1,
        "kind": f"audit_{stored['kind']}",
        "generated_at": timestamp(),
        "source_report": stored.get("generated_at"),
        "checks": checks,
        "all_satisfied": all(c["satisfied"] for c in checks),
    }
    try:
        write_report_json(os.path.join(path, "audit_report.json"), result)
    except OSError as exc:
        raise ConfigError(f"cannot write the audit report in {path}: {exc}") from exc
    return result


def _read_records(path):
    """The stored report, the series record of each surface keyed by the
    prefix of its check names, and the pair checks' inputs (None for a flow).

    Every missing or malformed artifact raises ConfigError here, so the
    checks only ever see complete records.
    """
    try:
        stored = json_object(read_report_json(os.path.join(path, "report.json")), "report.json")
        kind = stored.get("kind")
        if kind == "flow":
            return stored, {"": _surface_record(path, stored)}, None
        if kind == "pair":
            surfaces = {
                f"surface_{i}/": _surface_record(
                    os.path.join(path, f"surface_{i}"), stored[f"surface_{i}"]
                )
                for i in (1, 2)
            }
            inputs = json_object(stored["inputs"], "inputs")
            window = (inputs["alpha"], inputs["beta"])
            pair_inputs = (window, inputs["r"], inputs["delta_hat"], inputs["tol_ratio"])
            return stored, surfaces, pair_inputs
    except (OSError, KeyError, ValueError) as exc:
        raise ConfigError(f"cannot audit {path}: {type(exc).__name__}: {exc}") from exc
    raise ConfigError(f"unknown report kind {kind!r}")


def _surface_record(path, stored):
    """The series record of one surface; ``stored`` is the report block
    holding its ``inputs``."""
    stored_inputs = json_object(json_object(stored, "surface block")["inputs"], "inputs")
    trace = read_trace_csv(os.path.join(path, "trace.csv"))
    steps = {name: trace[name] for name in ("t", "R_min", "R_max", "argmin", "argmax")}
    spectrum = read_spectrum_csv(os.path.join(path, "spectrum.csv"))
    inputs = {key: stored_inputs[key] for key in bnd.SURFACE_INPUTS}
    if spectrum["values"].shape[0] != inputs["k"]:
        raise ConfigError(
            f"{path}: spectrum.csv has {spectrum['values'].shape[0]} branches, "
            f"the report says k = {inputs['k']}"
        )
    return steps, spectrum, inputs
