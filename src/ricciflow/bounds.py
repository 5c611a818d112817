"""Inequality audits over flow traces and spectra.

Every check returns margins in the natural units of its inequality
(curvature units for the envelopes, dimensionless for ratio checks), with
``worst_margin >= 0`` meaning satisfied including the stated tolerance and a
negative margin pinpointing the violation. Checkers are total: fabricated
traces are legitimate inputs, so the checkers themselves can be tested
against known violations.

Tolerances budget only discretization and solver error; the inequalities
themselves are theorems for the smooth objects. The envelope slack is
``c_disc * h^2 * |r|`` with ``h`` the mean edge length (h^2 being the
leading consistency error of the discrete curvature), ``c_disc``
overridable; ratio checks take an absolute slack ``tol_ratio`` on the
eigenvalue ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisError
from .flow import central_difference
from .geometry import current_lengths

DEFAULT_C_DISC = 10.0
DEFAULT_TOL_RATIO = 0.02


@dataclass(frozen=True)
class BoundCheck:
    name: str
    satisfied: bool
    worst_margin: float
    witness: dict
    tolerance_used: float

    def as_dict(self):
        return {
            "name": self.name,
            "satisfied": bool(self.satisfied),
            "worst_margin": float(self.worst_margin),
            "witness": dict(self.witness),
            "tolerance_used": float(self.tolerance_used),
        }


@dataclass
class BoundReport:
    checks: list = field(default_factory=list)
    inputs: dict = field(default_factory=dict)

    def add(self, checks):
        if isinstance(checks, BoundCheck):
            checks = [checks]
        self.checks.extend(checks)

    @property
    def all_satisfied(self):
        return all(c.satisfied for c in self.checks)

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _mk_check(name, margins, witnesses, tol):
    worst = int(np.argmin(margins))
    margin = float(margins[worst])
    return BoundCheck(
        name=name,
        satisfied=margin >= 0.0,
        worst_margin=margin,
        witness=witnesses(worst),
        tolerance_used=float(tol),
    )


def mean_edge_length(trace):
    metric = trace.metric_at(0)
    return float(np.mean(current_lengths(metric)))


def envelope_tolerance(trace, c_disc=DEFAULT_C_DISC):
    h = mean_edge_length(trace)
    return c_disc * h * h * abs(trace.r)


def envelope_check_series(t, r_min, r_max, r, alpha, beta, tol, argmin=None, argmax=None):
    """Series-level envelope margins; shared by live traces and audits.

    The inequalities are per vertex; the per-step extremes are exactly the
    binding vertices at each time, so checking them loses nothing.
    """
    if not alpha < r < beta < 0.0:
        raise HypothesisError(
            f"need alpha < r < beta < 0, got ({alpha:.4g}, {r:.4g}, {beta:.4g})"
        )
    t = np.asarray(t, dtype=float)
    r_min = np.asarray(r_min, dtype=float)
    r_max = np.asarray(r_max, dtype=float)
    lower = (r - r_max) - r * np.exp(beta * t) + tol  # binding at the R-max vertex
    upper = -alpha * np.exp(r * t) - (r - r_min) + tol  # binding at the R-min vertex
    ceiling = beta - r_max + tol

    def witness(indices):
        def build(i):
            vertex = None if indices is None else int(indices[i])
            return {"time": float(t[i]), "index": vertex}

        return build

    return [
        _mk_check("curvature_envelope_lower", lower, witness(argmax), tol),
        _mk_check("curvature_envelope_upper", upper, witness(argmin), tol),
        _mk_check("curvature_stays_below_beta", ceiling, witness(argmax), tol),
    ]


def envelope_check(trace, alpha, beta, c_disc=DEFAULT_C_DISC):
    """Two-sided decay envelopes on r - R, plus the standing upper bound.

    For every step and vertex:

        r * e^{beta t}  <=  r - R  <=  -alpha * e^{r t}     and    R <= beta

    within the discretization allowance ``tol_env = c_disc * h^2 * |r|``.
    """
    return envelope_check_series(
        trace.steps["t"],
        trace.steps["R_min"],
        trace.steps["R_max"],
        trace.r,
        alpha,
        beta,
        envelope_tolerance(trace, c_disc),
        argmin=trace.steps["argmin"],
        argmax=trace.steps["argmax"],
    )


def rmax_ode_series(t, r_max, r, tol, argmax=None):
    t = np.asarray(t, dtype=float)
    r_max = np.asarray(r_max, dtype=float)
    if t.shape[0] < 3:
        raise ValueError("need at least three samples")
    fd = np.diff(r_max) / np.diff(t)
    rhs = r_max[:-1] * (r_max[:-1] - r)
    margins = rhs - fd + tol

    def witness(i):
        vertex = None if argmax is None else int(argmax[i])
        return {"time": float(t[i]), "index": vertex}

    return _mk_check("rmax_comparison_ode", margins, witness, tol)


def rmax_ode_check(trace, c_disc=DEFAULT_C_DISC):
    """Comparison ODE for the curvature maximum.

    Forward differences of R_max (only piecewise smooth, the argmax jumps)
    must not exceed ``R_max (R_max - r)`` beyond the discretization
    allowance.
    """
    h = mean_edge_length(trace)
    r = trace.r
    return rmax_ode_series(
        trace.steps["t"],
        trace.steps["R_max"],
        r,
        c_disc * h * h * r * r,
        argmax=trace.steps["argmax"],
    )


def corridor_check_series(times, values, flagged, r, alpha, beta, h, branches, c_disc):
    """Series-level corridor margins from branch-ordered eigenvalue columns."""
    if not alpha < r < beta < 0.0:
        raise HypothesisError("need alpha < r < beta < 0")
    times = np.asarray(times, dtype=float)
    margins, tols, witnesses = [], [], []
    for b in branches:
        vals = values[b]
        for j in range(1, times.shape[0] - 1):
            if flagged[b, j - 1 : j + 2].any() or np.any(vals[j - 1 : j + 2] <= 0.0):
                continue
            der = central_difference(times[j - 1 : j + 2], np.log(vals[j - 1 : j + 2]))
            dt_loc = max(times[j] - times[j - 1], times[j + 1] - times[j])
            tol = c_disc * h * h * abs(r) + (dt_loc * abs(r)) ** 2 * abs(r)
            lo = alpha * np.exp(r * times[j])
            hi = -r * np.exp(beta * times[j])
            margins.append(min(der - lo, hi - der) + tol)
            tols.append(tol)
            witnesses.append({"time": float(times[j]), "index": int(b)})
    if not margins:
        raise ValueError("no unflagged branch samples to check")
    margins = np.asarray(margins)
    worst = int(np.argmin(margins))
    return BoundCheck(
        name="log_derivative_corridor",
        satisfied=bool(margins[worst] >= 0.0),
        worst_margin=float(margins[worst]),
        witness=witnesses[worst],
        tolerance_used=float(tols[worst]),
    )


def log_derivative_corridor_check(
    trace, branch_set, alpha, beta, branches=None, c_disc=DEFAULT_C_DISC
):
    """Time-decaying corridor for d(log lambda)/dt along nonzero branches.

        alpha e^{r t}  <=  d log(lambda)/dt  <=  -r e^{beta t}

    Checked at every unflagged interior snapshot of the requested branches
    (default: all nonzero ones), within ``tol_corr`` combining the envelope
    discretization allowance with the finite-difference truncation scale.
    """
    if branches is None:
        branches = list(range(1, branch_set.k))
    return corridor_check_series(
        branch_set.times,
        branch_set.values,
        branch_set.flagged,
        trace.r,
        alpha,
        beta,
        mean_edge_length(trace),
        branches,
        c_disc,
    )


def ratio_bound_check(mu_start, mu_end, alpha, beta, r, tol_ratio=DEFAULT_TOL_RATIO):
    """Window for how far each sorted nonzero eigenvalue can travel.

        e^{-alpha/r}  <=  mu_i(end) / mu_i(start)  <=  e^{r/beta}

    Area-independent; indices start at the first nonzero mode.
    """
    mu_start = np.asarray(mu_start, dtype=float)
    mu_end = np.asarray(mu_end, dtype=float)
    if mu_start.shape != mu_end.shape:
        raise HypothesisError("spectra have mismatched lengths")
    if np.any(mu_start <= 0.0) or np.any(mu_end <= 0.0):
        raise ValueError("ratio bound needs strictly positive eigenvalues")
    if not alpha < r < beta < 0.0:
        raise HypothesisError("need alpha < r < beta < 0")
    lo = np.exp(-alpha / r)
    hi = np.exp(r / beta)
    ratios = mu_end / mu_start
    margins = np.minimum(ratios - (lo - tol_ratio), (hi + tol_ratio) - ratios)

    def witness(i):
        return {"time": None, "index": int(i + 1)}

    check = _mk_check("eigenvalue_ratio_window", margins, witness, tol_ratio)
    return check, (float(lo), float(hi))


def distortion_upper_bound(metric1, metric2):
    """Identity-map length distortion between two metrics on one mesh.

    Returns ``(q_hat, delta_hat)``: the worst edge-length ratio either way
    and its log. ``delta_hat`` upper-bounds the distortion of the identity
    in the edge-path metric, hence is a safe stand-in wherever a distortion
    bound enters monotonically. Exactly symmetric in its arguments.
    """
    if metric1.mesh is not metric2.mesh and not np.array_equal(
        metric1.mesh.triangles, metric2.mesh.triangles
    ):
        raise HypothesisError("metrics live on different meshes")
    l1 = current_lengths(metric1)
    l2 = current_lengths(metric2)
    ratio = l2 / l1
    q_hat = float(np.max(np.maximum(ratio, 1.0 / ratio)))
    return q_hat, float(np.log(q_hat))


def buser_comparison_check(spec1, spec2, delta, tol_ratio=DEFAULT_TOL_RATIO):
    """Distortion-controlled spectral comparison of two (limit) surfaces.

        e^{-4 delta} lambda_n(S2)  <=  lambda_n(S1)  <=  e^{4 delta} lambda_n(S2)

    Sound for any upper bound ``delta`` of the distortion distance, since
    both sides widen monotonically in it.
    """
    spec1 = np.asarray(spec1, dtype=float)
    spec2 = np.asarray(spec2, dtype=float)
    if spec1.shape != spec2.shape:
        raise HypothesisError("spectra have mismatched lengths")
    if delta < 0.0:
        raise HypothesisError("delta must be non-negative")
    ratios = spec1 / spec2
    lo, hi = np.exp(-4.0 * delta), np.exp(4.0 * delta)
    margins = np.minimum(ratios - (lo - tol_ratio), (hi + tol_ratio) - ratios)

    def witness(i):
        return {"time": None, "index": int(i + 1)}

    return _mk_check("distortion_spectral_comparison", margins, witness, tol_ratio)


def main_theorem_factor(alpha, beta, r, delta):
    """The two-sided comparison factor e^{alpha/r + r/beta + 4 delta}."""
    if not alpha < r < beta < 0.0:
        raise HypothesisError("need alpha < r < beta < 0")
    if delta < 0.0:
        raise HypothesisError("delta must be non-negative")
    return float(np.exp(alpha / r + r / beta + 4.0 * delta))


def main_theorem_check(spec1, spec2, alpha, beta, r, delta, tol_ratio=DEFAULT_TOL_RATIO):
    """End-to-end spectral comparison of two initial metrics.

    For surfaces sharing genus, area, and the curvature window
    ``alpha < R < beta < 0`` with common average curvature ``r``, and any
    upper bound ``delta`` for the distortion distance of their constant
    curvature limits:

        1/F  <=  lambda_n(M1) / lambda_n(M2)  <=  F,
        F = e^{alpha/r + r/beta + 4 delta}.
    """
    spec1 = np.asarray(spec1, dtype=float)
    spec2 = np.asarray(spec2, dtype=float)
    if spec1.shape != spec2.shape:
        raise HypothesisError("spectra have mismatched lengths")
    if np.any(spec1 <= 0.0) or np.any(spec2 <= 0.0):
        raise ValueError("comparison needs strictly positive eigenvalues")
    factor = main_theorem_factor(alpha, beta, r, delta)
    ratios = spec1 / spec2
    margins = np.minimum(ratios - (1.0 / factor - tol_ratio), (factor + tol_ratio) - ratios)

    def witness(i):
        return {"time": None, "index": int(i + 1)}

    check = _mk_check("spectral_comparison_main", margins, witness, tol_ratio)
    return check, factor
