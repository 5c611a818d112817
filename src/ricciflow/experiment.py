"""Experiment orchestration: configs, pipelines, and artifact emission.

A flow experiment builds a surface (generated or loaded), normalizes its
area, perturbs it, runs the flow, tracks the spectrum, and evaluates every
applicable bound check. The pair experiment does this for two perturbations
of the same base surface concurrently and adds the two-surface comparison
checks, including the end-to-end spectral comparison with the measured
distortion bound of the two limits.
"""

from __future__ import annotations

import datetime
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bounds as bnd
from .errors import ConfigError, EigensolverError, HypothesisError
from .flow import FlowConfig, curvature_pde_residual, monotonicity_violations, run_flow
from .geometry import ConformalMetric, normalize_area, perturb_metric
from .mesh import generate_genus2, load_off
from .reporting import (
    write_plot_series,
    write_report_json,
    write_spectrum_csv,
    write_trace_csv,
)
from .tracking import (
    BranchSet,
    dual_area_rate_residuals,
    evolution_residual_median,
    normalization_rate_residuals,
    track_branches,
)

AREA_MODES = ("unit", "minus_two_pi_chi")


@dataclass(frozen=True)
class PerturbationSpec:
    amplitude: float = 0.0
    seed: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (see ``from_dict`` for the schema)."""

    generator_level: int | None = 2
    off_path: str | None = None
    area_normalization: str = "minus_two_pi_chi"
    perturbations: tuple = (PerturbationSpec(0.02, 1),)
    flow: FlowConfig = field(default_factory=FlowConfig)
    output_dir: str | None = None
    emit_trace_csv: bool = True
    emit_spectrum_csv: bool = True
    emit_report_json: bool = True
    emit_plot_data: bool = False
    c_disc: float = bnd.DEFAULT_C_DISC
    tol_ratio: float = bnd.DEFAULT_TOL_RATIO
    overlap_min: float = 0.6
    gap_tol: float = 1e-3

    def __post_init__(self):
        if (self.generator_level is None) == (self.off_path is None):
            raise ConfigError("exactly one mesh source required (generator or OFF path)")
        if self.area_normalization not in AREA_MODES:
            raise ConfigError(f"area_normalization must be one of {AREA_MODES}")
        if not 1 <= len(self.perturbations) <= 2:
            raise ConfigError("need one perturbation spec (two for the pair pipeline)")

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        _reject_unknown(data, {"version", "mesh", "area", "perturbations", "flow",
                               "emit", "checks", "output_dir"}, "top level")
        if data.get("version") != 1:
            raise ConfigError("config requires 'version': 1")

        mesh = data.get("mesh", {})
        _reject_unknown(mesh, {"generator", "level", "off"}, "mesh")
        level = None
        off_path = None
        if "off" in mesh:
            off_path = str(mesh["off"])
            if "generator" in mesh or "level" in mesh:
                raise ConfigError("mesh source must be either a generator or an OFF path")
        else:
            if mesh.get("generator", "genus2") != "genus2":
                raise ConfigError("only the 'genus2' generator is available")
            level = int(mesh.get("level", 2))

        perts = data.get("perturbations", [{}])
        specs = []
        for entry in perts:
            _reject_unknown(entry, {"amplitude", "seed"}, "perturbations")
            amplitude = _finite(entry.get("amplitude", 0.0), "perturbation amplitude")
            specs.append(PerturbationSpec(amplitude, int(entry.get("seed", 0))))

        flow_data = dict(data.get("flow", {}))
        valid_flow = set(FlowConfig.__dataclass_fields__)
        _reject_unknown(flow_data, valid_flow, "flow")
        try:
            flow = FlowConfig(**flow_data)
        except ValueError as exc:
            raise ConfigError(f"invalid flow settings: {exc}") from exc

        emit = dict(data.get("emit", {}))
        _reject_unknown(emit, {"trace_csv", "spectrum_csv", "report_json", "plot_data"}, "emit")

        checks = dict(data.get("checks", {}))
        _reject_unknown(checks, {"c_disc", "tol_ratio", "overlap_min", "gap_tol"}, "checks")

        return cls(
            generator_level=level,
            off_path=off_path,
            area_normalization=data.get("area", "minus_two_pi_chi"),
            perturbations=tuple(specs),
            flow=flow,
            output_dir=data.get("output_dir"),
            emit_trace_csv=bool(emit.get("trace_csv", True)),
            emit_spectrum_csv=bool(emit.get("spectrum_csv", True)),
            emit_report_json=bool(emit.get("report_json", True)),
            emit_plot_data=bool(emit.get("plot_data", False)),
            c_disc=_finite(checks.get("c_disc", bnd.DEFAULT_C_DISC), "c_disc"),
            tol_ratio=_finite(checks.get("tol_ratio", bnd.DEFAULT_TOL_RATIO), "tol_ratio"),
            overlap_min=_finite(checks.get("overlap_min", 0.6), "overlap_min"),
            gap_tol=_finite(checks.get("gap_tol", 1e-3), "gap_tol"),
        )

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
                "overlap_min": self.overlap_min,
                "gap_tol": self.gap_tol,
            },
            "output_dir": self.output_dir,
        }


def _finite(value, name):
    # json.load accepts NaN and Infinity, so parsed numbers need this check
    value = float(value)
    if not np.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    return value


def _reject_unknown(mapping, allowed, where):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown config keys in {where}: {sorted(unknown)}")


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
    metric = ConformalMetric.flat(mesh, base_lengths)
    if config.area_normalization == "unit":
        target = 1.0
    else:
        target = -2.0 * np.pi * mesh.chi
        if target <= 0.0:
            raise HypothesisError("minus_two_pi_chi normalization needs chi < 0")
    return normalize_area(metric, target)


def pde_residual_median(trace, active_dev=None):
    """Median pointwise curvature-law residual over active interior samples.

    The residual needs no spectrum, so every stored sample counts, including
    one whose eigensolve failed.
    """
    samples = trace.samples
    if active_dev is None:
        active_dev = 20.0 * samples[-1].curvature.max_deviation()
    pooled = []
    for j in range(1, len(samples) - 1):
        if samples[j].curvature.max_deviation() < active_dev:
            continue
        pooled.append(np.abs(curvature_pde_residual(trace, j)))
    if not pooled:
        raise ValueError("no active interior samples")
    return float(np.median(np.concatenate(pooled)))


def _run_one_surface(config, spec, progress=None):
    base = build_base_metric(config)
    metric, window = perturb_metric(base, spec.amplitude, spec.seed)
    trace = run_flow(metric, config.flow, progress=progress)
    # the ratio and comparison checks read the first and last snapshots as
    # the spectra at the start and at the end of the flow
    for sample in (trace.samples[0], trace.samples[-1]):
        if sample.spectrum is None:
            raise EigensolverError(f"no spectrum at t={sample.t:.6g}, which the checks need")
    snapshots = trace.snapshots()
    if len(snapshots) >= 2:
        branch_set = track_branches(
            snapshots, overlap_min=config.overlap_min, gap_tol=config.gap_tol
        )
    else:
        branch_set = _single_snapshot_branches(snapshots[0], config)
    return metric, window, trace, branch_set


def _single_snapshot_branches(snap, config):
    # converged at the start: one snapshot, nothing to connect
    values = snap.eigenvalues[:, None].copy()
    return BranchSet(
        times=np.array([snap.t]),
        values=values,
        vectors=[snap.eigenvectors],
        masses=[snap.mass],
        flagged=np.zeros((snap.k, 1), dtype=bool),
        sorted_values=np.sort(values, axis=0),
        overlap_min=config.overlap_min,
        gap_tol=config.gap_tol,
    )


def _surface_checks(config, window, trace, branch_set):
    inputs = _surface_inputs(config, window, trace)
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
    return report, stats


def _surface_inputs(config, window, trace):
    alpha, beta = window
    mesh = trace.mesh
    return {
        "alpha": float(alpha),
        "beta": float(beta),
        "r": float(trace.r),
        "area": float(trace.samples[0].curvature.total_area),
        "chi": int(mesh.chi),
        "genus": int(mesh.genus),
        "vertices": int(mesh.vertex_count),
        "mean_edge_length": bnd.mean_edge_length(trace),
        "c_disc": config.c_disc,
        "tol_ratio": config.tol_ratio,
        "overlap_min": config.overlap_min,
        "gap_tol": config.gap_tol,
        "k": config.flow.k,
        "seed": config.flow.seed,
        "converged": bool(trace.converged),
    }


def run_flow_experiment(config, progress=None):
    """Single-surface pipeline: flow, spectrum tracking, and all audits."""
    if len(config.perturbations) != 1:
        raise ConfigError("flow experiment takes exactly one perturbation spec")
    metric, window, trace, branch_set = _run_one_surface(
        config, config.perturbations[0], progress
    )
    report, stats = _surface_checks(config, window, trace, branch_set)

    report_dict = {
        "version": 1,
        "kind": "flow",
        "generated_at": _timestamp(),
        "inputs": report.inputs,
        "checks": [c.as_dict() for c in report.checks],
        "residual_stats": stats,
        "warnings": list(trace.warnings),
        "all_satisfied": report.all_satisfied,
    }
    artifacts = FlowArtifacts(config, metric, window, trace, branch_set, report, report_dict)
    if config.output_dir:
        _emit_flow(config, artifacts, config.output_dir)
    return artifacts


def run_pair_experiment(config, progress=None):
    """Two-surface pipeline behind the spectral comparison theorem.

    Both perturbed surfaces share the base mesh and area; the measured
    curvature windows are merged (widest wins), both flows run
    concurrently, and the comparison checks use the distortion upper bound
    of the two limit metrics.
    """
    if len(config.perturbations) != 2:
        raise ConfigError("pair experiment needs exactly two perturbation specs")
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [
            pool.submit(_run_one_surface, config, spec, progress)
            for spec in config.perturbations
        ]
        results = [f.result() for f in futures]

    (m1, w1, tr1, bs1), (m2, w2, tr2, bs2) = results
    area1 = tr1.samples[0].curvature.total_area
    area2 = tr2.samples[0].curvature.total_area
    if abs(area1 - area2) > 1e-9 * area1:
        raise HypothesisError("surfaces do not share the same area")
    if tr1.mesh.genus != tr2.mesh.genus:
        raise HypothesisError("surfaces do not share the same genus")
    if abs(tr1.r - tr2.r) > 1e-9 * abs(tr1.r):
        raise HypothesisError("surfaces do not share the average curvature")

    alpha = min(w1[0], w2[0])
    beta = max(w1[1], w2[1])
    window = (alpha, beta)

    rep1, stats1 = _surface_checks(config, window, tr1, bs1)
    rep2, stats2 = _surface_checks(config, window, tr2, bs2)

    q_hat, delta_hat = bnd.distortion_upper_bound(tr1.limit, tr2.limit)
    checks, factor = bnd.pair_checks(
        bs1.sorted_values, bs2.sorted_values, window, tr1.r, delta_hat, config.tol_ratio
    )
    pair_report = bnd.BoundReport(checks)

    report_dict = {
        "version": 1,
        "kind": "pair",
        "generated_at": _timestamp(),
        "inputs": {
            "alpha": float(alpha),
            "beta": float(beta),
            "r": float(tr1.r),
            "delta_hat": float(delta_hat),
            "q_hat": float(q_hat),
            "bound_factor": float(factor),
            "area": float(area1),
            "chi": int(tr1.mesh.chi),
            "genus": int(tr1.mesh.genus),
            "vertices": int(tr1.mesh.vertex_count),
            "c_disc": config.c_disc,
            "tol_ratio": config.tol_ratio,
            "k": config.flow.k,
        },
        "surface_1": {
            "inputs": rep1.inputs,
            "checks": [c.as_dict() for c in rep1.checks],
            "residual_stats": stats1,
            "warnings": list(tr1.warnings),
        },
        "surface_2": {
            "inputs": rep2.inputs,
            "checks": [c.as_dict() for c in rep2.checks],
            "residual_stats": stats2,
            "warnings": list(tr2.warnings),
        },
        "pair_checks": [c.as_dict() for c in pair_report.checks],
    }
    all_ok = rep1.all_satisfied and rep2.all_satisfied and pair_report.all_satisfied
    report_dict["all_satisfied"] = all_ok

    combined = bnd.BoundReport(
        checks=rep1.checks + rep2.checks + pair_report.checks,
        inputs=report_dict["inputs"],
    )
    artifacts = PairArtifacts(
        config,
        ((m1, window, tr1, bs1), (m2, window, tr2, bs2)),
        delta_hat,
        factor,
        combined,
        report_dict,
    )
    if config.output_dir:
        _emit_pair(config, artifacts, config.output_dir)
    return artifacts


def _timestamp():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _emit_flow(config, artifacts, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    write_report_json(os.path.join(out_dir, "config_resolved.json"), config.to_dict())
    if config.emit_trace_csv:
        write_trace_csv(os.path.join(out_dir, "trace.csv"), artifacts.trace)
    if config.emit_spectrum_csv:
        write_spectrum_csv(os.path.join(out_dir, "spectrum.csv"), artifacts.branch_set)
    if config.emit_report_json:
        write_report_json(os.path.join(out_dir, "report.json"), artifacts.report_dict)
    if config.emit_plot_data:
        _emit_plots(artifacts.trace, artifacts.branch_set, out_dir)


def _emit_pair(config, artifacts, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    write_report_json(os.path.join(out_dir, "config_resolved.json"), config.to_dict())
    for idx, (metric, window, trace, branch_set) in enumerate(artifacts.surfaces, start=1):
        sub = os.path.join(out_dir, f"surface_{idx}")
        os.makedirs(sub, exist_ok=True)
        if config.emit_trace_csv:
            write_trace_csv(os.path.join(sub, "trace.csv"), trace)
        if config.emit_spectrum_csv:
            write_spectrum_csv(os.path.join(sub, "spectrum.csv"), branch_set)
        if config.emit_plot_data:
            _emit_plots(trace, branch_set, sub)
    if config.emit_report_json:
        write_report_json(os.path.join(out_dir, "report.json"), artifacts.report_dict)


def _emit_plots(trace, branch_set, out_dir):
    write_plot_series(
        os.path.join(out_dir, "plot_curvature_deviation.txt"),
        trace.steps["t"],
        trace.steps["max_dev"],
    )
    for b in range(branch_set.k):
        write_plot_series(
            os.path.join(out_dir, f"plot_eigenvalue_branch_{b}.txt"),
            branch_set.times,
            branch_set.values[b],
        )
