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
leading consistency error of the discrete curvature); ratio checks take an
absolute slack ``tol_ratio`` on the eigenvalue ratio. Experiments use the
constants ``DEFAULT_C_DISC`` and ``DEFAULT_TOL_RATIO`` and record them in
each report's inputs, which is where ``audit`` reads them.

``surface_checks`` and ``pair_checks`` decide which checks run, on which
branches and eigenvalues, and with which tolerances. They read a series
record that live runs build from memory and ``audit`` from stored artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _mk_check(name, margins, witnesses, tol):
    """The check at the worst margin; ``tol`` is one tolerance or one per margin."""
    worst = int(np.argmin(margins))
    margin = float(margins[worst])
    return BoundCheck(
        name=name,
        satisfied=margin >= 0.0,
        worst_margin=margin,
        witness=witnesses(worst),
        tolerance_used=float(tol[worst] if np.ndim(tol) else tol),
    )


def _ratio_window(name, numerator, denominator, lo, hi, tol):
    """Check ``lo <= numerator_i / denominator_i <= hi`` within ``tol``.

    Both spectra hold nonzero eigenvalues, so witness indices count modes
    from the first nonzero one.
    """
    numerator = np.asarray(numerator, dtype=float)
    denominator = np.asarray(denominator, dtype=float)
    if numerator.shape != denominator.shape:
        raise HypothesisError("spectra have mismatched lengths")
    if np.any(numerator <= 0.0) or np.any(denominator <= 0.0):
        raise ValueError("spectral checks need strictly positive eigenvalues")
    ratios = numerator / denominator
    margins = np.minimum(ratios - (lo - tol), (hi + tol) - ratios)
    return _mk_check(name, margins, lambda i: {"time": None, "index": int(i + 1)}, tol)


def _require_window(alpha, r, beta):
    """The hypothesis of every curvature-window bound; HypothesisError names the values."""
    if not alpha < r < beta < 0.0:
        raise HypothesisError(
            f"need alpha < r < beta < 0, got ({alpha:.4g}, {r:.4g}, {beta:.4g})"
        )


def mean_edge_length(trace):
    metric = trace.metric_at(0)
    return float(np.mean(current_lengths(metric)))


def envelope_check(t, r_min, r_max, r, alpha, beta, tol, argmin=None, argmax=None):
    """Two-sided decay envelopes on r - R, plus the standing upper bound.

    For every step and vertex:

        r * e^{beta t}  <=  r - R  <=  -alpha * e^{r t}     and    R <= beta

    within the discretization allowance ``tol``. The inequalities are per
    vertex; the per-step extremes are exactly the binding vertices at each
    time, so checking them loses nothing. ``argmin``/``argmax`` name those
    vertices for the witnesses; without them a witness has no index.
    """
    _require_window(alpha, r, beta)
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


def rmax_ode_check(t, r_max, r, tol, argmax=None):
    """Comparison ODE for the curvature maximum.

    Forward differences of R_max (only piecewise smooth, the argmax jumps)
    must not exceed ``R_max (R_max - r)`` beyond the discretization
    allowance ``tol``.
    """
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


def log_derivative_corridor_check(times, values, flagged, r, alpha, beta, h, branches, c_disc):
    """Time-decaying corridor for d(log lambda)/dt along nonzero branches.

        alpha e^{r t}  <=  d log(lambda)/dt  <=  -r e^{beta t}

    Checked on the branch-ordered eigenvalue rows ``values[b]`` of the given
    ``branches`` at every unflagged interior snapshot, within an allowance
    that adds the finite-difference truncation scale ``(dt |r|)^2 |r|`` to
    the envelope allowance ``c_disc * h^2 * |r|``.
    """
    _require_window(alpha, r, beta)
    times = np.asarray(times, dtype=float)
    margins, tols, witnesses = [], [], []
    for b, j in _corridor_stencils(values, flagged, branches):
        vals = values[b]
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
    return _mk_check("log_derivative_corridor", np.asarray(margins), witnesses.__getitem__, tols)


def _corridor_stencils(values, flagged, branches):
    """``(branch, snapshot)`` of every interior snapshot whose three-point
    stencil is unflagged and positive, i.e. where the corridor is checked."""
    return [
        (b, j)
        for b in branches
        for j in range(1, np.shape(values)[1] - 1)
        if not (flagged[b, j - 1 : j + 2].any() or np.any(values[b][j - 1 : j + 2] <= 0.0))
    ]


def ratio_bound_check(mu_start, mu_end, alpha, beta, r, tol_ratio=DEFAULT_TOL_RATIO):
    """Window for how far each sorted nonzero eigenvalue can travel.

        e^{-alpha/r}  <=  mu_i(end) / mu_i(start)  <=  e^{r/beta}

    Area-independent; indices start at the first nonzero mode.
    """
    _require_window(alpha, r, beta)
    with np.errstate(over="ignore"):
        lo, hi = float(np.exp(-alpha / r)), float(np.exp(r / beta))
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise HypothesisError(f"ratio bracket [{lo:.6g}, {hi:.6g}] is not finite")
    return _ratio_window("eigenvalue_ratio_window", mu_end, mu_start, lo, hi, tol_ratio), (lo, hi)


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
    if delta < 0.0:
        raise HypothesisError("delta must be non-negative")
    lo, hi = np.exp(-4.0 * delta), np.exp(4.0 * delta)
    return _ratio_window("distortion_spectral_comparison", spec1, spec2, lo, hi, tol_ratio)


def main_theorem_factor(alpha, beta, r, delta):
    """The two-sided comparison factor e^{alpha/r + r/beta + 4 delta}."""
    _require_window(alpha, r, beta)
    if delta < 0.0:
        raise HypothesisError("delta must be non-negative")
    log_factor = alpha / r + r / beta + 4.0 * delta
    with np.errstate(over="ignore"):
        factor = float(np.exp(log_factor))
    if not np.isfinite(factor):
        raise HypothesisError(f"main theorem factor e^{log_factor:.6g} is not finite")
    return factor


def main_theorem_check(spec1, spec2, alpha, beta, r, delta, tol_ratio=DEFAULT_TOL_RATIO):
    """End-to-end spectral comparison of two initial metrics.

    For surfaces sharing genus, area, and the curvature window
    ``alpha < R < beta < 0`` with common average curvature ``r``, and any
    upper bound ``delta`` for the distortion distance of their constant
    curvature limits:

        1/F  <=  lambda_n(M1) / lambda_n(M2)  <=  F,
        F = e^{alpha/r + r/beta + 4 delta}.
    """
    factor = main_theorem_factor(alpha, beta, r, delta)
    check = _ratio_window("spectral_comparison_main", spec1, spec2, 1.0 / factor, factor, tol_ratio)
    return check, factor


# Keys of the report's ``inputs`` block that ``surface_checks`` reads.
SURFACE_INPUTS = ("alpha", "beta", "r", "mean_edge_length", "c_disc", "tol_ratio", "k")


def checked_branches(k):
    """The nonzero branches whose log-derivatives and residuals are checked."""
    return list(range(1, min(6, k)))


def travel(sorted_values):
    """The first ``min(10, k - 1)`` nonzero eigenvalues at the first and the last snapshot."""
    n = min(10, sorted_values.shape[0] - 1)
    return sorted_values[1 : 1 + n, 0], sorted_values[1 : 1 + n, -1]


def surface_checks(steps, spectrum, inputs, warnings=None):
    """Every bound check of one flow, from its series record.

    ``steps`` maps ``t``, ``R_min``, ``R_max`` and, if known, the vertices
    ``argmin``/``argmax`` to per-step arrays. ``spectrum`` maps ``times``,
    ``values``, ``flagged`` and ``sorted_values`` to the branch arrays (one
    row per eigenvalue, one column per snapshot). ``inputs`` holds the
    ``SURFACE_INPUTS``. Live runs and ``audit`` both call this, so they run
    the same checks with the same settings. Returns the checks and the ratio
    bracket. A check that has nothing to check is left out; when that is the
    corridor of a run with three or more snapshots, a message saying so is
    appended to ``warnings`` (a list, if given).
    """
    alpha, beta, r, h, c_disc, tol_ratio, k = (inputs[key] for key in SURFACE_INPUTS)
    t, r_max, argmax = steps["t"], steps["R_max"], steps.get("argmax")
    checks = envelope_check(
        t,
        steps["R_min"],
        r_max,
        r,
        alpha,
        beta,
        c_disc * h * h * abs(r),
        argmin=steps.get("argmin"),
        argmax=argmax,
    )
    if t.shape[0] >= 3:
        checks.append(rmax_ode_check(t, r_max, r, c_disc * h * h * r * r, argmax=argmax))
    branches = checked_branches(k)
    if _corridor_stencils(spectrum["values"], spectrum["flagged"], branches):
        checks.append(
            log_derivative_corridor_check(
                spectrum["times"],
                spectrum["values"],
                spectrum["flagged"],
                r,
                alpha,
                beta,
                h,
                branches,
                c_disc,
            )
        )
    elif spectrum["times"].shape[0] >= 3 and warnings is not None:
        warnings.append(
            "log_derivative_corridor skipped: no stencil of the checked branches is unflagged"
        )
    ratio, bracket = ratio_bound_check(
        *travel(spectrum["sorted_values"]), alpha, beta, r, tol_ratio
    )
    checks.append(ratio)
    return checks, bracket


def pair_checks(sorted1, sorted2, window, r, delta_hat, tol_ratio):
    """The two-surface checks, from each flow's ``sorted_values``.

    Compares the end spectra (distortion comparison) and the start spectra
    (main theorem) and checks that the two compose. Returns the checks and
    the main theorem's factor.
    """
    alpha, beta = window
    s1_start, s1_end = travel(sorted1)
    s2_start, s2_end = travel(sorted2)
    buser = buser_comparison_check(s1_end, s2_end, delta_hat, tol_ratio)
    mt, factor = main_theorem_check(s1_start, s2_start, alpha, beta, r, delta_hat, tol_ratio)
    chain = _consistency_chain(s1_start, s1_end, s2_start, s2_end, alpha, beta, r, delta_hat)
    return [buser, mt, chain], factor


def _consistency_chain(s1_start, s1_end, s2_start, s2_end, alpha, beta, r, delta):
    """If both travel windows hold and the limit comparison holds, the
    end-to-end comparison must hold; the composition is exact, so this is
    checked at (float) zero slack."""
    eps = 1e-12
    ratio1, _ = ratio_bound_check(s1_start, s1_end, alpha, beta, r, tol_ratio=eps)
    ratio2, _ = ratio_bound_check(s2_start, s2_end, alpha, beta, r, tol_ratio=eps)
    buser = buser_comparison_check(s1_end, s2_end, delta, tol_ratio=eps)
    mt, _ = main_theorem_check(s1_start, s2_start, alpha, beta, r, delta, tol_ratio=eps)
    premise = ratio1.satisfied and ratio2.satisfied and buser.satisfied
    holds = (not premise) or mt.satisfied
    return BoundCheck(
        name="consistency_chain",
        satisfied=holds,
        worst_margin=1.0 if holds else -1.0,
        witness={"time": None, "index": None},
        tolerance_used=eps,
    )
