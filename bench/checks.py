"""Output checks computed apart from the program, or from properties the
methods must have.  Each check returns None when it holds and a short
message when it does not.  No golden copies are used.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Every block update of JMAP is an exact block minimizer, so L may rise
# only by floating-point slack.
MONOTONE_SLACK = 1e-10
# A fixed point recomputed from the returned variances lags the returned
# f by at most one sweep; the last sweep moved f by rel_change_f, so the
# gap must stay within a small multiple of it.
SWEEP_FACTOR = 10.0
# Dense solves of the same normal equations by two factorizations.
SOLVE_RTOL = 1e-9


def _rel(a, b):
    return float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(b)), 1e-300)


def _last_change(trace):
    return trace.records[-1].rel_change_f


def monotone_criterion(trace):
    L = trace.criterion_values()
    worst = np.max(L[1:] - L[:-1] - MONOTONE_SLACK * np.abs(L[:-1])) if L.size > 1 else 0.0
    if worst > 0:
        return f"JMAP criterion rose by {worst:.3g} beyond slack"
    return None


def positive_variances(state):
    names = ("v_eps", "v_f", "v_xi", "v_z")
    for name in names:
        v = getattr(state, name)
        if v is not None and not (np.all(np.isfinite(v)) and np.all(v > 0)):
            return f"{name} has a non-finite or non-positive entry"
    for name in ("ig_eps", "ig_f", "ig_xi", "ig_z"):
        fam = getattr(state, name)
        if fam is not None and not (np.all(fam.alpha_hat > 0) and np.all(fam.beta_hat > 0)
                                    and np.all(np.isfinite(fam.beta_hat))):
            return f"{name} has a non-positive or non-finite parameter"
    return None


def _gaussian_mean(problem, p_eps, p_second, z):
    """Mean of the f-block: (H' P_eps H + P_2)^-1 (H' P_eps g + P_2 D z)."""
    H = problem.H
    A = H.T @ (H * p_eps[:, None]) + np.diag(p_second)
    b = H.T @ (p_eps * problem.g)
    if z is not None:
        b = b + p_second * (problem.D @ z)
    return np.linalg.solve(A, b)


def jmap_normal_equations(problem, state, trace):
    """f_hat solves the f-block normal equations of the returned variances.

    The direct model updates f last, so the match is exact up to the two
    factorizations.  The indirect model updates the variances after f, so
    the match holds to within one sweep.
    """
    direct = problem.is_direct
    v_second = state.v_f if direct else state.v_xi
    f = _gaussian_mean(problem, 1.0 / state.v_eps, 1.0 / v_second,
                       None if direct else state.z_hat)
    tol = SOLVE_RTOL if direct else SOLVE_RTOL + SWEEP_FACTOR * _last_change(trace)
    gap = _rel(state.f_hat, f)
    if gap > tol:
        return f"JMAP f_hat is {gap:.3g} from the normal-equation solution (tol {tol:.3g})"
    return None


def vba_partial_mean(problem, state, trace):
    """f_hat is the Gaussian mean of the returned Inverse-Gamma expectations."""
    direct = problem.is_direct
    second = state.ig_f if direct else state.ig_xi
    f = _gaussian_mean(problem, state.ig_eps.inv_expectation(), second.inv_expectation(),
                       None if direct else state.z_hat)
    tol = SOLVE_RTOL + SWEEP_FACTOR * _last_change(trace)
    gap = _rel(state.f_hat, f)
    if gap > tol:
        return f"VBA-partial f_hat is {gap:.3g} from the Gaussian mean (tol {tol:.3g})"
    return None


def vba_full_fixed_point(problem, state, trace):
    """Every coordinate of f_hat solves its own coordinate equation."""
    H, f = problem.H, state.f_hat
    p_eps = state.ig_eps.inv_expectation()
    p_f = state.ig_f.inv_expectation()
    resid = problem.g - H @ f
    col_sq = (H * H * p_eps[:, None]).sum(axis=0)
    numer = H.T @ (p_eps * resid) + col_sq * f
    target = numer / (col_sq + p_f)
    tol = SOLVE_RTOL + SWEEP_FACTOR * _last_change(trace)
    gap = _rel(f, target)
    if gap > tol:
        return f"VBA-full f_hat is {gap:.3g} from its coordinate fixed point (tol {tol:.3g})"
    return None


def beats_baseline(ratios):
    """Over a run's problems, the median rel_l2 is below the damped-LS start's.

    Checked per run, not per problem: on about one seeded problem in a few
    hundred every method ends slightly above the baseline.
    """
    median = float(np.median(ratios))
    if not median < 1.0:
        return (f"median rel_l2 / damped least-squares rel_l2 over {len(ratios)} "
                f"problems is {median:.4f}")
    return None


# -- CLI outputs -------------------------------------------------------

def load_csv(path):
    """Parse a matrix CSV with numpy alone (header line is a comment)."""
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def toeplitz(kernel, rows, cols):
    """Zero-padded convolution matrix, kernel centre on the main diagonal."""
    half = (len(kernel) - 1) // 2
    H = np.zeros((rows, cols))
    for i in range(rows):
        for d in range(-half, half + 1):
            if 0 <= i + d < cols:
                H[i, i + d] = kernel[half - d]
    return H


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def priors_report(report):
    """Tolerances of acceptance criteria 5-9 on a priors_report.json."""
    problems = []
    bessel = report["bessel"]
    if not bessel["half_order_abs_error"] < 1e-8:
        problems.append("Bessel half-order error")
    if not bessel["symmetry_max_rel"] <= 1e-12:
        problems.append("Bessel symmetry")
    if not bessel["recurrence_max_rel"] <= 1e-9:
        problems.append("Bessel recurrence")
    ident = report["identities"]
    if not (ident["hyperbolic_max_abs"] < 1e-10 and ident["nig_max_abs"] < 1e-10):
        problems.append("GH identities")
    for name, limit in report["limits"].items():
        devs = limit["sup_deviation"]
        strictly = all(a > b for a, b in zip(devs, devs[1:]))
        if not (strictly and limit["strictly_decreasing"] and devs[-1] < 1e-2):
            problems.append(f"{name} limit")
    if not report["scale_mixture"]["max_abs_deviation"] < 1e-6:
        problems.append("scale mixture")
    if not report["ig_inverse_expectation"]["max_abs_error"] < 1e-8:
        problems.append("IG inverse expectation")
    return "priors report out of tolerance: " + ", ".join(problems) if problems else None


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def finite_list(values):
    return all(math.isfinite(v) for v in values)
