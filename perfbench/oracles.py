"""Independent correctness oracles for the benchmark's design operations.

Every check recomputes its reference with numpy or scipy (HiGHS), never
with misens's own solvers, and reads a sensor only through its parameters.
scipy is not a misens dependency, so this module is imported after the
timed rounds have ended and never from timed code.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

LSTSQ_TOL = 1e-9        # misens's Householder LS against LAPACK lstsq
CONTINUITY_TOL = 1e-6   # p_r - p_s = w_k and b_r - b_s = b_w,k
OBJECTIVE_TOL = 1e-6    # L1 objectives against LAD / HiGHS
RMSE_TOL = 1e-12


def route(inputs: np.ndarray, sensor) -> np.ndarray:
    """1-based region per row from the sensor's hyperplanes alone.

    The documented rule: plane k of pair (r, s) votes r when w'x + b >= 0,
    else s; the most votes win, ties to the smallest class index.
    """
    logic = sensor.switching
    votes = np.zeros((inputs.shape[0], logic.n_cl), dtype=int)
    for hp, (r, s) in zip(logic.hyperplanes, logic.pairs):
        side = inputs @ np.asarray(hp.w) + hp.b_w >= 0.0
        votes[side, r - 1] += 1
        votes[~side, s - 1] += 1
    return votes.argmax(axis=1) + 1


def predictions(inputs: np.ndarray, sensor) -> np.ndarray:
    if sensor.switching is None:
        regions = np.ones(inputs.shape[0], dtype=int)
    else:
        regions = route(inputs, sensor)
    p = np.stack([np.asarray(m.p) for m in sensor.models])
    b = np.array([m.b_p for m in sensor.models])
    return np.einsum("ij,ij->i", inputs, p[regions - 1]) + b[regions - 1]


def lstsq_model(inputs: np.ndarray, outputs: np.ndarray) -> np.ndarray:
    a = np.hstack([inputs, np.ones((inputs.shape[0], 1))])
    coef, *_ = np.linalg.lstsq(a, outputs, rcond=None)
    return coef


def model_vector(model) -> np.ndarray:
    return np.append(np.asarray(model.p, dtype=float), model.b_p)


def check_train_rmse(report, train) -> list[str]:
    pred = predictions(train.inputs, report.sensor)
    expect = float(np.sqrt(np.mean((train.outputs - pred) ** 2)))
    if abs(expect - report.train_rmse) > RMSE_TOL * max(1.0, expect):
        return [f"train_rmse {report.train_rmse!r} but the sensor's own "
                f"predictions give {expect!r}"]
    return []


def check_sis(report, train) -> list[str]:
    ref = lstsq_model(train.inputs, train.outputs)
    got = model_vector(report.sensor.models[0])
    if np.max(np.abs(got - ref)) > LSTSQ_TOL:
        return [f"SIS model {got} differs from lstsq {ref}"]
    return check_train_rmse(report, train)


def check_mis_std(report, train) -> list[str]:
    """Each region model equals lstsq on the points the sensor routes there;
    a region with fewer than n_p + 1 points holds the global fit."""
    errors = []
    regions = route(train.inputs, report.sensor)
    global_fit = lstsq_model(train.inputs, train.outputs)
    for j, model in enumerate(report.sensor.models, start=1):
        rows = np.nonzero(regions == j)[0]
        if rows.size >= train.n_p + 1:
            ref = lstsq_model(train.inputs[rows], train.outputs[rows])
        else:
            ref = global_fit
        got = model_vector(model)
        if np.max(np.abs(got - ref)) > LSTSQ_TOL:
            errors.append(f"region {j} model {got} differs from lstsq {ref} "
                          f"on its {rows.size} routed points")
    return errors + check_train_rmse(report, train)


def check_continuity(report) -> list[str]:
    """p_r - p_s = w_k and b_r - b_s = b_w,k for every switching pair."""
    errors = []
    models = report.sensor.models
    logic = report.sensor.switching
    for k, (hp, (r, s)) in enumerate(zip(logic.hyperplanes, logic.pairs), start=1):
        slope = np.max(np.abs(np.asarray(models[r - 1].p) - np.asarray(models[s - 1].p)
                              - np.asarray(hp.w)))
        offset = abs(models[r - 1].b_p - models[s - 1].b_p - hp.b_w)
        if max(slope, offset) > CONTINUITY_TOL:
            errors.append(f"pair {k} ({r},{s}) breaks continuity: slope "
                          f"{slope:.3e}, offset {offset:.3e}")
    return errors


def check_routing(report, train) -> list[str]:
    """The trained switching logic sends every training point to its label."""
    regions = route(train.inputs, report.sensor)
    labels = report.labels_used.assignments()
    agree = float(np.mean(regions == labels))
    if agree < 1.0:
        return [f"routing agrees with the training labels on {100 * agree:.1f}% "
                f"of {train.n} points"]
    return []


def check_mis_con(report, train) -> list[str]:
    return (check_continuity(report) + check_routing(report, train)
            + check_train_rmse(report, train))


def lad_l1(inputs: np.ndarray, outputs: np.ndarray, box: float) -> float:
    """min sum |y - X p - b| over |p|, |b| <= box, by linprog (HiGHS)."""
    n, n_p = inputs.shape
    # variables: p (n_p), b, t (n); t_i >= +-(y_i - x_i p - b)
    c = np.concatenate([np.zeros(n_p + 1), np.ones(n)])
    xb = np.hstack([inputs, np.ones((n, 1))])
    a_ub = np.block([[-xb, -np.eye(n)], [xb, -np.eye(n)]])
    b_ub = np.concatenate([-outputs, outputs])
    bounds = [(-box, box)] * (n_p + 1) + [(0.0, None)] * n
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"LAD reference LP failed: {res.message}")
    return float(res.fun)


def labeling_lad_l1(train, assign: np.ndarray, n_cl: int, box: float) -> float:
    return sum(lad_l1(train.inputs[assign == j], train.outputs[assign == j], box)
               for j in range(1, n_cl + 1))


def check_lab_incumbent(report, train, n_cl: int, box: float) -> list[str]:
    """The incumbent L1 is the summed per-class LAD fits of the returned
    labeling and no worse than the hint's."""
    stats = report.solver_stats
    incumbent = stats["l1_objective"]
    ref = labeling_lad_l1(train, report.labels_used.assignments(), n_cl, box)
    errors = []
    if abs(incumbent - ref) > OBJECTIVE_TOL:
        errors.append(f"incumbent L1 {incumbent!r} but the per-class LAD fits of "
                      f"its labeling sum to {ref!r}")
    hint = stats["hint_l1_objective"]
    if hint is not None and incumbent > hint + OBJECTIVE_TOL:
        errors.append(f"incumbent L1 {incumbent!r} above the hint's {hint!r}")
    return errors


def mip_arrays(program):
    """Dense scipy form of a misens MixedIntegerProgram."""
    lp = program.base
    a = np.zeros((lp.n_rows, lp.n_vars))
    lo = np.empty(lp.n_rows)
    hi = np.empty(lp.n_rows)
    for k, con in enumerate(lp.constraints):
        for i, v in con.coeffs:
            a[k, i] += v
        lo[k], hi[k] = {"<=": (-np.inf, con.rhs), ">=": (con.rhs, np.inf),
                        "=": (con.rhs, con.rhs)}[con.sense]
    integrality = np.zeros(lp.n_vars)
    integrality[list(program.binary_vars)] = 1
    return lp.objective, a, lo, hi, lp.lower, lp.upper, integrality


def highs_optimum(program) -> float:
    """Proven optimum of a misens MixedIntegerProgram by HiGHS."""
    c, a, lo, hi, lb, ub, integrality = mip_arrays(program)
    res = milp(c, constraints=LinearConstraint(a, lo, hi), bounds=Bounds(lb, ub),
               integrality=integrality, options={"mip_rel_gap": 0.0})
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not prove an optimum: {res.message}")
    return float(res.fun)


def check(kind: str, report, train, cfg, reference_optimum: float | None) -> list[str]:
    """Failure messages for one design operation; empty when it is correct."""
    if kind == "sis":
        return check_sis(report, train)
    if kind == "mis-std":
        return check_mis_std(report, train)
    if kind == "mis-con":
        return check_mis_con(report, train)
    stats = report.solver_stats
    errors = (check_continuity(report) + check_train_rmse(report, train)
              + check_lab_incumbent(report, train, cfg.n_cl, cfg.param_bound))
    if kind == "lab-capped":
        bound = stats["milp"]["best_bound"]
        if bound > reference_optimum + OBJECTIVE_TOL:
            errors.append(f"best_bound {bound!r} above the HiGHS optimum "
                          f"{reference_optimum!r}")
        return errors
    if kind == "lab-certify":
        from misens.design import build_mis_con_lab_milp

        if stats["milp"]["status"] != "optimal":
            return errors + [f"MILP not certified: {stats['milp']}"]
        ref = highs_optimum(build_mis_con_lab_milp(train, cfg))
        if abs(stats["l1_objective"] - ref) > OBJECTIVE_TOL:
            errors.append(f"certified L1 {stats['l1_objective']!r} differs from "
                          f"HiGHS's {ref!r}")
        return errors
    raise ValueError(f"unknown check {kind!r}")
