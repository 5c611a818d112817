"""Experiment orchestration: configs, pipelines, and artifact emission.

A flow experiment builds a surface (generated or loaded), normalizes its
area, perturbs it, runs the flow, tracks the spectrum, and evaluates every
applicable bound check. The pair experiment builds the base surface once,
runs this for two perturbations of it concurrently, and adds the two-surface
comparison checks, including the end-to-end spectral comparison with the
measured distortion bound of the two limits.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import bounds as bnd
from .errors import ConfigError, EigensolverError, HypothesisError
from .flow import FlowConfig, integer_at_least, monotonicity_violations, real_number, run_flow
from .geometry import ConformalMetric, normalize_area, perturb_metric
from .mesh import generate_genus2, load_off
from .reporting import (
    json_object,
    timestamp,
    write_plot_series,
    write_report_json,
    write_spectrum_csv,
    write_trace_csv,
)
from .tracking import (
    DEFAULT_GAP_TOL,
    DEFAULT_OVERLAP_MIN,
    dual_area_rate_residuals,
    evolution_residual_median,
    normalization_rate_residuals,
    pde_residual_median,
    track_branches,
)

AREA_MODES = ("unit", "minus_two_pi_chi")


@dataclass(frozen=True)
class PerturbationSpec:
    amplitude: float
    seed: int


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; ``from_dict`` holds the schema and the defaults."""

    generator_level: int | None
    off_path: str | None
    area_normalization: str
    perturbations: tuple
    flow: FlowConfig
    output_dir: str | None
    emit_trace_csv: bool
    emit_spectrum_csv: bool
    emit_report_json: bool
    emit_plot_data: bool
    c_disc: float
    tol_ratio: float

    def __post_init__(self):
        if (self.generator_level is None) == (self.off_path is None):
            raise ConfigError("exactly one mesh source required (generator or OFF path)")
        if self.area_normalization not in AREA_MODES:
            raise ConfigError(f"area_normalization must be one of {AREA_MODES}")
        if not 1 <= len(self.perturbations) <= 2:
            raise ConfigError("need one perturbation spec (two for the pair pipeline)")

    @classmethod
    def from_dict(cls, data):
        """Parse a config dict; a value of the wrong type or range raises ConfigError."""
        try:
            return cls(**_fields(data))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc

    def to_dict(self):
        mesh = (
            {"off": self.off_path}
            if self.off_path is not None
            else {"generator": "genus2", "level": self.generator_level}
        )
        return {
            "version": 1,
            "mesh": mesh,
            "area": self.area_normalization,
            "perturbations": [asdict(p) for p in self.perturbations],
            "flow": asdict(self.flow),
            "emit": {
                "trace_csv": self.emit_trace_csv,
                "spectrum_csv": self.emit_spectrum_csv,
                "report_json": self.emit_report_json,
                "plot_data": self.emit_plot_data,
            },
            "checks": {
                "c_disc": self.c_disc,
                "tol_ratio": self.tol_ratio,
            },
            "output_dir": self.output_dir,
        }


def _fields(data):
    top = {"version", "mesh", "area", "perturbations", "flow", "emit", "checks", "output_dir"}
    json_object(data, "config", top)
    if data.get("version") != 1:
        raise ConfigError("config requires 'version': 1")

    mesh = json_object(data.get("mesh", {}), "mesh", {"generator", "level", "off"})
    level = None
    off_path = None
    if "off" in mesh:
        off_path = mesh["off"]
        if not isinstance(off_path, str):
            raise ConfigError(f"mesh 'off' must be a path string, got {off_path!r}")
        if "generator" in mesh or "level" in mesh:
            raise ConfigError("mesh source must be either a generator or an OFF path")
    else:
        if mesh.get("generator", "genus2") != "genus2":
            raise ConfigError("only the 'genus2' generator is available")
        level = integer_at_least(mesh.get("level", 2), 0, "mesh level")

    specs = []
    for entry in data.get("perturbations", [{}]):
        json_object(entry, "perturbations", {"amplitude", "seed"})
        amplitude = _finite(entry.get("amplitude", 0.0), "perturbation amplitude")
        seed = integer_at_least(entry.get("seed", 0), 0, "perturbation seed")
        specs.append(PerturbationSpec(amplitude, seed))

    flow = json_object(data.get("flow", {}), "flow", FlowConfig.__dataclass_fields__)
    emit_keys = {"trace_csv", "spectrum_csv", "report_json", "plot_data"}
    emit = json_object(data.get("emit", {}), "emit", emit_keys)
    checks = json_object(data.get("checks", {}), "checks", {"c_disc", "tol_ratio"})
    output_dir = data.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError(f"output_dir must be a path string or null, got {output_dir!r}")
    return {
        "generator_level": level,
        "off_path": off_path,
        "area_normalization": data.get("area", "minus_two_pi_chi"),
        "perturbations": tuple(specs),
        "flow": FlowConfig(**flow),
        "output_dir": output_dir,
        "emit_trace_csv": _flag(emit, "trace_csv", True),
        "emit_spectrum_csv": _flag(emit, "spectrum_csv", True),
        "emit_report_json": _flag(emit, "report_json", True),
        "emit_plot_data": _flag(emit, "plot_data", False),
        "c_disc": _finite(checks.get("c_disc", bnd.DEFAULT_C_DISC), "c_disc"),
        "tol_ratio": _finite(checks.get("tol_ratio", bnd.DEFAULT_TOL_RATIO), "tol_ratio"),
    }


def _flag(emit, key, default):
    value = emit.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"emit '{key}' must be true or false, got {value!r}")
    return value


def _finite(value, name):
    # json.load accepts NaN and Infinity, so parsed numbers need this check
    value = float(real_number(value, name))
    if not np.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    return value


@dataclass
class FlowArtifacts:
    config: ExperimentConfig
    initial: ConformalMetric
    window: tuple
    trace: object
    branch_set: object
    report: bnd.BoundReport
    report_dict: dict


@dataclass
class PairArtifacts:
    config: ExperimentConfig
    surfaces: tuple
    delta_hat: float
    bound_factor: float
    report: bnd.BoundReport
    report_dict: dict


def build_base_metric(config):
    """Load or generate the base surface and normalize its area."""
    if config.off_path is not None:
        mesh, base_lengths = load_off(config.off_path)
    else:
        mesh, base_lengths = generate_genus2(config.generator_level)
    # the eigensolver needs k < V/2, and the ratio check a nonzero eigenvalue
    if not 2 <= config.flow.k < mesh.vertex_count / 2:
        raise ConfigError(f"k = {config.flow.k} outside [2, V/2) with V = {mesh.vertex_count}")
    metric = ConformalMetric.flat(mesh, base_lengths)
    if config.area_normalization == "unit":
        target = 1.0
    else:
        target = -2.0 * np.pi * mesh.chi
        if target <= 0.0:
            raise HypothesisError("minus_two_pi_chi normalization needs chi < 0")
    return normalize_area(metric, target)


def _run_one_surface(config, base, spec, progress=None):
    metric, window = perturb_metric(base, spec.amplitude, spec.seed)
    trace = run_flow(metric, config.flow, progress=progress)
    # the ratio and comparison checks read the first and last snapshots as
    # the spectra at the start and at the end of the flow
    for sample in (trace.samples[0], trace.samples[-1]):
        if sample.spectrum is None:
            raise EigensolverError(f"no spectrum at t={sample.t:.6g}, which the checks need")
    return metric, window, trace, track_branches(trace.snapshots())


def _surface_block(config, window, trace, branch_set):
    """One surface's BoundReport and report block (inputs, checks, residual stats, warnings)."""
    mesh = trace.mesh
    inputs = {
        "alpha": float(window[0]),
        "beta": float(window[1]),
        "r": float(trace.r),
        "area": float(trace.samples[0].curvature.total_area),
        "chi": int(mesh.chi),
        "genus": int(mesh.genus),
        "vertices": int(mesh.vertex_count),
        "mean_edge_length": bnd.mean_edge_length(trace),
        "c_disc": config.c_disc,
        "tol_ratio": config.tol_ratio,
        "overlap_min": DEFAULT_OVERLAP_MIN,
        "gap_tol": DEFAULT_GAP_TOL,
        "k": config.flow.k,
        "seed": config.flow.seed,
        "converged": bool(trace.converged),
    }
    checks, bracket = bnd.surface_checks(trace.steps, vars(branch_set), inputs)
    inputs["ratio_bracket"] = list(bracket)
    report = bnd.BoundReport(checks, inputs)

    branches = bnd.checked_branches(config.flow.k)
    stats = {"monotonicity_events": len(monotonicity_violations(trace))}
    try:
        med, count = evolution_residual_median(trace, branch_set, branches)
        stats["evolution_formula_median"] = med
        stats["evolution_formula_samples"] = count
    except ValueError:
        pass
    try:
        stats["volume_form_median"] = float(np.median(dual_area_rate_residuals(trace)))
    except ValueError:
        pass
    try:
        stats["normalization_median"] = float(
            np.median(normalization_rate_residuals(trace, branch_set, branches))
        )
    except ValueError:
        pass
    try:
        stats["pde_residual_median"] = pde_residual_median(trace)
    except ValueError:
        pass
    block = {
        "inputs": inputs,
        "checks": [c.as_dict() for c in checks],
        "residual_stats": stats,
        "warnings": list(trace.warnings),
    }
    return report, block


def run_flow_experiment(config, progress=None):
    """Single-surface pipeline: flow, spectrum tracking, and all audits."""
    if len(config.perturbations) != 1:
        raise ConfigError("flow experiment takes exactly one perturbation spec")
    base = build_base_metric(config)
    metric, window, trace, branch_set = _run_one_surface(
        config, base, config.perturbations[0], progress
    )
    report, block = _surface_block(config, window, trace, branch_set)
    report_dict = {
        "version": 1,
        "kind": "flow",
        "generated_at": timestamp(),
        **block,
        "all_satisfied": report.all_satisfied,
    }
    if config.output_dir:
        _emit(config, report_dict, [("", trace, branch_set)])
    return FlowArtifacts(config, metric, window, trace, branch_set, report, report_dict)


def run_pair_experiment(config, progress=None):
    """Two-surface pipeline behind the spectral comparison theorem.

    Both perturbations start from one base surface, so the two flows share
    its mesh and geometry kernel, which are read-only. The measured
    curvature windows are merged (widest wins), both flows run
    concurrently, and the comparison checks use the distortion upper bound
    of the two limit metrics.
    """
    if len(config.perturbations) != 2:
        raise ConfigError("pair experiment needs exactly two perturbation specs")
    base = build_base_metric(config)
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [
            pool.submit(_run_one_surface, config, base, spec, progress)
            for spec in config.perturbations
        ]
        results = [f.result() for f in futures]

    (m1, w1, tr1, bs1), (m2, w2, tr2, bs2) = results
    # perturbation renormalizes the area, so sharing the mesh does not settle these
    area1 = tr1.samples[0].curvature.total_area
    area2 = tr2.samples[0].curvature.total_area
    if abs(area1 - area2) > 1e-9 * area1:
        raise HypothesisError("surfaces do not share the same area")
    if abs(tr1.r - tr2.r) > 1e-9 * abs(tr1.r):
        raise HypothesisError("surfaces do not share the average curvature")

    window = (min(w1[0], w2[0]), max(w1[1], w2[1]))
    rep1, block1 = _surface_block(config, window, tr1, bs1)
    rep2, block2 = _surface_block(config, window, tr2, bs2)

    q_hat, delta_hat = bnd.distortion_upper_bound(tr1.limit, tr2.limit)
    checks, factor = bnd.pair_checks(
        bs1.sorted_values, bs2.sorted_values, window, tr1.r, delta_hat, config.tol_ratio
    )
    # the merged window makes these inputs equal on both surfaces
    shared = ("alpha", "beta", "r", "area", "chi", "genus", "vertices", "c_disc", "tol_ratio", "k")
    inputs = {key: block1["inputs"][key] for key in shared}
    inputs.update(delta_hat=float(delta_hat), q_hat=float(q_hat), bound_factor=float(factor))
    combined = bnd.BoundReport(rep1.checks + rep2.checks + checks, inputs)
    report_dict = {
        "version": 1,
        "kind": "pair",
        "generated_at": timestamp(),
        "inputs": inputs,
        "surface_1": block1,
        "surface_2": block2,
        "pair_checks": [c.as_dict() for c in checks],
        "all_satisfied": combined.all_satisfied,
    }
    if config.output_dir:
        _emit(config, report_dict, [("surface_1", tr1, bs1), ("surface_2", tr2, bs2)])
    return PairArtifacts(
        config,
        ((m1, window, tr1, bs1), (m2, window, tr2, bs2)),
        delta_hat,
        factor,
        combined,
        report_dict,
    )


def _emit(config, report_dict, surfaces):
    """Write the artifacts; ``surfaces`` lists ``(subdirectory, trace, branch_set)``."""
    out_dir = config.output_dir
    for sub, trace, branch_set in surfaces:
        path = os.path.join(out_dir, sub)
        os.makedirs(path, exist_ok=True)
        if config.emit_trace_csv:
            write_trace_csv(os.path.join(path, "trace.csv"), trace)
        if config.emit_spectrum_csv:
            write_spectrum_csv(os.path.join(path, "spectrum.csv"), branch_set)
        if config.emit_plot_data:
            write_plot_series(
                os.path.join(path, "plot_curvature_deviation.txt"),
                trace.steps["t"],
                trace.steps["max_dev"],
            )
            for b in range(branch_set.k):
                write_plot_series(
                    os.path.join(path, f"plot_eigenvalue_branch_{b}.txt"),
                    branch_set.times,
                    branch_set.values[b],
                )
    write_report_json(os.path.join(out_dir, "config_resolved.json"), config.to_dict())
    if config.emit_report_json:
        write_report_json(os.path.join(out_dir, "report.json"), report_dict)
