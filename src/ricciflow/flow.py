"""Time integration of the normalized Ricci flow on the conformal factor.

The state is one log-conformal factor per vertex, advanced by classical
four-stage Runge-Kutta on du/dt = (r - R)/2 and renormalized to the initial
area after every step (the renormalization is itself a uniform conformal
scaling, so it stays inside the flow's conformal class). Step control is
adaptive: one ``min`` of an accuracy-based candidate ``SAFETY / max|R - r|``,
a 2x growth factor, ``DT_INIT``, a linear-stability estimate of the stiffest
curvature mode and the time left to ``t_max``; steps that break a triangle
inequality are rejected and retried at half size, and a step size below
``DT_MIN`` aborts the run. ``run_flow`` stores full states without spectra
and hands each one, as it is stored, to ``on_sample``. ``solve_sample``
solves one stored state, or raises; the caller that solves the samples while
the flow runs decides what a failed solve means.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field as _field

import numpy as np

from .errors import FlowAbortError, HypothesisError, TriangleInequalityError
from .geometry import ConformalMetric, CurvatureField
from .spectrum import EIG_TOL, assemble_operators, operator_norm_estimate, smallest_eigenpairs

RK4_STABILITY = 2.785  # extent of the classical RK4 stability interval
CFL_SAFETY = 0.85
NORM_RECHECK_STEPS = 500  # stiffness estimate refresh cadence
DT_INIT = 0.01  # first step, and the largest step a run takes
DT_MIN = 1e-9  # a step size below this aborts the run
SAFETY = 0.2  # accuracy candidate SAFETY / max|R - r|
CONVERGENCE_TOL = 1e-4  # converged once max|R - r| <= CONVERGENCE_TOL * |r|
# Largest t_max / DT_INIT a config may ask for: no accepted step exceeds DT_INIT,
# so a run takes at least that many steps (the level-3 acceptance flow about 2e4).
# A step of DT_MIN advances every t_max it admits: np.spacing(1e6) is 1.2e-10.
STEP_BUDGET = 10**8


@dataclass(frozen=True)
class FlowConfig:
    """What a run sets; step control and ``EIG_TOL`` are module constants."""

    t_max: float = 50.0
    spectrum_every: int = 400
    k: int = 12
    seed: int = 0

    def __post_init__(self):
        if not real_number(self.t_max, "t_max") > 0.0:
            raise ValueError("t_max must be positive")
        if self.t_max / DT_INIT > STEP_BUDGET:
            raise ValueError(
                f"t_max / DT_INIT = {self.t_max / DT_INIT:.3g} exceeds the step budget "
                f"of {STEP_BUDGET:.0e} steps"
            )
        integer_at_least(self.spectrum_every, 1, "spectrum_every")
        integer_at_least(self.k, 1, "k")
        integer_at_least(self.seed, 0, "seed")

    @property
    def eig_tol(self):
        """The certified-residual tolerance of every eigensolve, ``EIG_TOL``."""
        return EIG_TOL


def real_number(value, name):
    """``value`` unchanged if it is a finite real number, else ValueError."""
    # float() would read JSON true as 1.0 and a numeric string as its number
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    # json.load accepts NaN, Infinity and integer literals too large for a
    # float; the comparison rejects all three (NaN compares false)
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def integer_at_least(value, low, name):
    # JSON true and false parse as bools, an int subclass, and must not pass as 1 and 0
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


@dataclass(frozen=True)
class FlowSample:
    """Full state stored at snapshot cadence (plus first and last step);
    ``spectrum`` is None until the caller that solves it stores a copy with
    its spectrum, and stays None where the eigensolve failed."""

    step: int
    t: float
    u: np.ndarray
    curvature: CurvatureField
    spectrum: object | None  # SpectrumSnapshot


@dataclass
class FlowTrace:
    """Result of one flow run.

    Scalar curvature statistics are recorded at every accepted step in the
    columnar ``steps`` arrays; full per-vertex states (with spectra, once a
    caller has solved them) only at snapshot cadence in ``samples``, which
    keeps long runs in memory. ``warnings`` names each failed interior solve.
    """

    mesh: object
    base_lengths: np.ndarray
    config: FlowConfig
    steps: dict
    samples: list
    converged: bool
    warnings: list = _field(default_factory=list)

    @property
    def limit(self):
        """Final metric state."""
        return self.metric_at(-1)

    @property
    def r(self):
        return self.samples[0].curvature.r

    def metric_at(self, sample_index):
        s = self.samples[sample_index]
        return ConformalMetric(self.mesh, self.base_lengths, s.u)

    def snapshots(self):
        """Spectrum snapshots in time order."""
        return [s.spectrum for s in self.samples if s.spectrum is not None]

    def snapshot_samples(self):
        return [s for s in self.samples if s.spectrum is not None]


def _rk4(kernel, base_sq, u, v1, dt, target_area):
    """One RK4 step plus exact area renormalization.

    Returns ``(u_next, field_next, v_next)``: the renormalized state, its
    field, and its velocity (which seeds the next step's first stage).
    """
    v2, _ = kernel.velocity(base_sq, u + (0.5 * dt) * v1)
    v3, _ = kernel.velocity(base_sq, u + (0.5 * dt) * v2)
    v4, _ = kernel.velocity(base_sq, u + dt * v3)
    u_next = u + (dt / 6.0) * (v1 + 2.0 * (v2 + v3) + v4)
    v_raw, f_raw = kernel.velocity(base_sq, u_next)
    c = target_area / f_raw.total_area
    u_next += 0.5 * np.log(c)
    # uniform scaling leaves angles (hence R*area-type products) intact, so
    # the velocity of the renormalized state is the raw one rescaled
    return u_next, kernel.rescaled(f_raw, c, target_area), v_raw / c


def _stability_cap(metric_like, seed):
    stiffness, mass = assemble_operators(metric_like)
    lam_max = operator_norm_estimate(stiffness, mass, seed=seed)
    return CFL_SAFETY * RK4_STABILITY / lam_max


def run_flow(metric, config, progress=None, on_sample=None):
    """Integrate the normalized flow until constant curvature or ``t_max``.

    Parameters
    ----------
    metric : ConformalMetric
        Initial state: genus >= 2 and strictly negative curvature, the
        setting of the comparison theorems, so that ``r < 0``.
    config : FlowConfig
    progress : callable, optional
        Called as ``progress(t, max_dev, dt)`` every few thousand steps.
    on_sample : callable, optional
        Called with each ``FlowSample`` as it is stored, in time order, so a
        caller can solve it while the flow goes on.

    Returns
    -------
    FlowTrace
        Samples at step 0, every ``spectrum_every`` accepted steps and the
        last accepted step, all with ``spectrum=None`` and no warnings
        (``solve_sample`` solves a sample).

    Raises
    ------
    HypothesisError
        If the initial state has genus < 2 or a vertex with ``R >= 0``.
    FlowAbortError
        If the step size, before the clip to ``t_max``, falls below
        ``DT_MIN`` (the partial trace, its last accepted step sampled, is
        attached as ``exc.trace``).
    TriangleInequalityError
        If the initial state has a broken face or a non-finite value.
    """
    mesh = metric.mesh
    kernel, base_sq = mesh.kernel, metric.base_lengths * metric.base_lengths
    vel, fld = kernel.velocity(base_sq, metric.u)
    if mesh.genus < 2 or fld.R_max >= 0.0:
        raise HypothesisError(
            f"initial state outside the admissible class (genus={mesh.genus}, "
            f"R_max={fld.R_max:.4g})"
        )
    trace = FlowTrace(mesh, metric.base_lengths, config, steps={}, samples=[], converged=False)

    target_area = fld.total_area
    conv_threshold = CONVERGENCE_TOL * abs(fld.r)

    def record(t, dt, f):
        row = dict(
            t=t, dt=dt, area=f.total_area, r=f.r, R_min=f.R_min, R_max=f.R_max,
            max_dev=f.max_deviation(), argmin=int(np.argmin(f.R)), argmax=int(np.argmax(f.R)),
        )
        for name, value in row.items():
            trace.steps.setdefault(name, []).append(value)

    def sample(step_idx, t, u, f):
        trace.samples.append(FlowSample(step_idx, t, u.copy(), f, None))
        if on_sample is not None:
            on_sample(trace.samples[-1])

    def finish():
        # the last accepted step is always sampled; the steps become arrays
        if trace.samples[-1].step != accepted:
            sample(accepted, t, u, fld)
        trace.steps = {name: np.asarray(vals) for name, vals in trace.steps.items()}
        return trace

    u = metric.u.copy()
    t = 0.0
    record(t, 0.0, fld)
    sample(0, t, u, fld)

    converged = fld.max_deviation() <= conv_threshold
    cap = _stability_cap(metric.with_u(u), config.seed)
    dt = DT_INIT  # the first step has no growth term
    accepted = 0
    since_cap = 0

    while not converged and t < config.t_max:
        # the one step-size rule; dt has doubled after an accepted step and
        # halved after a rejection, which leaves it below every other term
        dt = min(dt, DT_INIT, SAFETY / max(fld.max_deviation(), 1e-300), cap)
        if dt < DT_MIN:
            exc = FlowAbortError(f"step size underflow at t={t:.6g}", t=t, dt=dt)
            exc.trace = finish()
            raise exc
        dt = min(dt, config.t_max - t)
        try:
            u_next, fld_next, vel_next = _rk4(kernel, base_sq, u, vel, dt, target_area)
        except TriangleInequalityError:
            dt *= 0.5
            since_cap = NORM_RECHECK_STEPS  # re-estimate stiffness after rejections
            continue

        u, fld, vel = u_next, fld_next, vel_next
        t += dt
        accepted += 1
        since_cap += 1
        record(t, dt, fld)

        if accepted % config.spectrum_every == 0:
            sample(accepted, t, u, fld)
        if progress is not None and accepted % 2000 == 0:
            progress(t, fld.max_deviation(), dt)

        converged = fld.max_deviation() <= conv_threshold
        if not converged and since_cap >= NORM_RECHECK_STEPS:
            cap = _stability_cap(metric.with_u(u), config.seed)
            since_cap = 0
        dt *= 2.0

    trace.converged = converged
    return finish()


def solve_sample(mesh, base_lengths, config, t, u):
    """The ``SpectrumSnapshot`` of state ``u`` at time ``t``; a failed solve
    raises, and the caller decides what the failure means."""
    stiffness, mass = assemble_operators(ConformalMetric(mesh, base_lengths, u))
    return smallest_eigenpairs(stiffness, mass, config.k, tol=EIG_TOL, seed=config.seed, t=t)


def rf_nrf_time_map(area0, chi, tau):
    """Map normalized-flow time ``tau`` to unnormalized-flow time ``t``.

    Returns ``(t, area_at_t)`` with ``t = area0/(4 pi chi) (1 - e^{-4 pi chi tau})``
    and ``area_t = area0 - 4 pi chi t``. Only hyperbolic type (chi < 0) is
    accepted; ``t`` is then strictly increasing and unbounded in ``tau``.
    Accepts a finite positive ``area0`` and scalar or array finite
    ``tau >= 0``; a ``tau`` whose area overflows a float raises ValueError.
    """
    if chi >= 0:
        raise ValueError("time map requires negative Euler characteristic")
    if not (np.isfinite(area0) and area0 > 0.0):
        raise ValueError(f"area0 must be finite and positive, got {area0}")
    tau = np.asarray(tau, dtype=float)
    if not np.all(np.isfinite(tau) & (tau >= 0.0)):
        raise ValueError("tau must be finite and non-negative")
    coeff = 4.0 * np.pi * chi
    with np.errstate(over="ignore", invalid="ignore"):
        t = area0 / coeff * (1.0 - np.exp(-coeff * tau)) + 0.0  # +0.0 avoids -0.0 at tau=0
        area = area0 - coeff * t
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(area))):
        raise ValueError("tau too large: the flow's area overflows a float")
    if tau.ndim == 0:
        return float(t), float(area)
    return t, area


def curvature_pde_residual(trace, sample_index):
    """Pointwise residual of the curvature reaction-diffusion law.

    Central-differences dR/dt across the stored full samples and subtracts
    ``Delta R + R (R - r)``, with the analyst-sign discrete Laplacian
    ``(Delta R)_i = -(M^{-1} L R)_i``. Shrinks under mesh and time
    refinement; exactly zero fields stay zero.
    """
    samples = trace.samples
    if not 0 < sample_index < len(samples) - 1:
        raise IndexError("sample_index needs both time neighbors")
    trio = samples[sample_index - 1 : sample_index + 2]
    dr_dt = central_difference([s.t for s in trio], [s.curvature.R for s in trio])
    fld = trio[1].curvature
    metric = trace.metric_at(sample_index)
    stiffness, mass = assemble_operators(metric)
    lap_R = -(stiffness @ fld.R) / mass
    reaction = fld.R * (fld.R - fld.r)
    return dr_dt - lap_R - reaction


def central_difference(t, f):
    """Second-order derivative at ``t[1]`` from values ``f`` at nonuniform times ``t``.

    The ``f[i]`` may be scalars or arrays of one shape.
    """
    h1 = t[1] - t[0]
    h2 = t[2] - t[1]
    return (h1 * h1 * f[2] - h2 * h2 * f[0] + (h2 * h2 - h1 * h1) * f[1]) / (h1 * h2 * (h1 + h2))


def monotonicity_violations(trace):
    """Envelope-contraction diagnostic on the per-step extremes.

    From accepted step 5 on, past the initial transient, ``R_max`` should
    not increase nor ``R_min`` decrease; events beyond ``1e-6 |r|`` are
    reported as ``(step, which, size)`` tuples.
    """
    threshold = 1e-6 * abs(trace.r)
    r_max = trace.steps["R_max"]
    r_min = trace.steps["R_min"]
    events = []
    for i in range(5, len(r_max)):
        up = r_max[i] - r_max[i - 1]
        down = r_min[i - 1] - r_min[i]
        if up > threshold:
            events.append((i, "R_max", float(up)))
        if down > threshold:
            events.append((i, "R_min", float(down)))
    return events
