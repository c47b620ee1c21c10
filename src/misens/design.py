"""The four sensor-design methods: SIS, MIS-std, MIS-con and MIS-con-lab.

SIS fits one affine model by least squares.  MIS-std is the three-step
pipeline (k-means labels, one-vs-one SVM switching, per-region least
squares).  MIS-con fits the local models by least squares in one convex
QP whose equality rows tie every pair of models to the pair's switching
hyperplane: the slope difference of models r and s equals the hyperplane
normal AND the offset difference equals the hyperplane offset, which
together make the prediction continuous across the switch.  These rows
alone pin the planes; the QP has no margin rows.
MIS-con-lab additionally optimizes the labeling itself: an epigraph/big-M
MILP minimizes the summed absolute errors over labelings, subject to the
same continuity equalities, then the labels are fixed and the final models
come from the MIS-con QP (least squares).  Both programs share one variable
layout, whose head is the hyperplanes (w, b_w) and the models (p, b_p).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .classify import SvmConfig, kmeans, train_binary_svm, train_multiclass_svm
from .core import (
    AffineModel,
    Dataset,
    Hyperplane,
    LabelingMatrix,
    Scaler,
    SensorModel,
    SwitchingLogic,
    assign_regions,
    expected_pairs,
    predict_batch,
    rmse,
)
from .lp import Constraint, LinearProgram, Status, solve_lp
from .milp import MilpLimits, MipStatus, MixedIntegerProgram, solve_milp
from .qp import QpStatus, QuadraticProgram, solve_qp

CONTINUITY_TOL = 1e-6


class NoIncumbentError(RuntimeError):
    """The MILP limits expired before any feasible labeling was found."""


def required_big_m(param_bound: float, n_p: int) -> float:
    """Smallest M that can never cut a feasible labeling given the variable box."""
    return 2.0 * (param_bound * (n_p + 1) + 1.0)


@dataclass
class DesignConfig:
    n_cl: int = 3
    gamma: float = 10.0
    big_m: float | None = None          # None: exactly required_big_m(...)
    param_bound: float = 10.0
    milp_limits: MilpLimits = field(default_factory=MilpLimits)
    seed: int = 0
    milp_log_interval: int = 0

    def __post_init__(self):
        if self.n_cl < 1:
            raise ValueError("n_cl must be at least 1")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not self.param_bound > 0:
            raise ValueError("param_bound must be positive")

    def effective_big_m(self, n_p: int) -> float:
        need = required_big_m(self.param_bound, n_p)
        if self.big_m is None:
            return need
        if self.big_m < need - 1e-12:
            raise ValueError(
                f"big_m={self.big_m} is below {need} and could cut feasible labelings")
        return float(self.big_m)

    def svm_config(self) -> SvmConfig:
        return SvmConfig(gamma=self.gamma)


@dataclass
class DesignReport:
    sensor: SensorModel
    train_rmse: float
    labels_used: LabelingMatrix
    solver_stats: dict

    def to_dict(self, timing: str = "wall") -> dict:
        from .core import sensor_to_dict

        stats = dict(self.solver_stats)
        timings = stats.get("timings", {})
        if timing == "fixed":
            timings = {k: 0.0 for k in timings}
        stats["timings"] = timings
        return {
            "schema": 1,
            "sensor": sensor_to_dict(self.sensor),
            "train_rmse": self.train_rmse,
            "labels_used": [int(a) for a in self.labels_used.assignments()],
            "solver_stats": stats,
        }


class _Stopwatch:
    def __init__(self):
        self.laps: dict[str, float] = {}
        self._t = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.laps[name] = self.laps.get(name, 0.0) + (now - self._t)
        self._t = now


def _fit_affine(inputs: np.ndarray, outputs: np.ndarray) -> AffineModel:
    a = np.hstack([inputs, np.ones((inputs.shape[0], 1))])
    coef = linalg.least_squares(a, outputs)
    return AffineModel(coef[:-1], float(coef[-1]))


def design_sis(train: Dataset, scaler: Scaler | None = None) -> DesignReport:
    """Single-model inferential sensor: one affine least-squares fit."""
    if train.n < train.n_p + 1:
        raise ValueError(f"need at least {train.n_p + 1} points, got {train.n}")
    watch = _Stopwatch()
    model = _fit_affine(train.inputs, train.outputs)
    watch.lap("train")
    sensor = SensorModel((model,), None, scaler, {"method": "sis"})
    train_rmse = rmse(train.outputs, predict_batch(train.inputs, sensor))
    labels = LabelingMatrix.from_assignments(np.ones(train.n, dtype=int), 1)
    return DesignReport(sensor, train_rmse, labels, {"timings": watch.laps})


def design_mis_std(train: Dataset, cfg: DesignConfig,
                   scaler: Scaler | None = None) -> DesignReport:
    """Standard three-step pipeline: k-means, one-vs-one SVM, per-region LS.

    Each region's training subset is the set of points the trained switching
    logic routes to it (not the raw k-means labels), so training data and
    deploy-time routing agree.  Regions left with fewer than n_p + 1 points
    fall back to the global single-model fit.
    """
    if cfg.n_cl == 1:
        return design_sis(train, scaler)
    if train.n < cfg.n_cl * (train.n_p + 1):
        raise ValueError(
            f"need at least {cfg.n_cl * (train.n_p + 1)} points for n_cl={cfg.n_cl}")
    watch = _Stopwatch()
    km = kmeans(train.inputs, cfg.n_cl, seed=cfg.seed)
    watch.lap("label")
    logic = train_multiclass_svm(train.inputs, km.labels, cfg.svm_config())
    watch.lap("classify")
    regions = assign_regions(train.inputs, logic)
    global_model = None
    models = []
    fallbacks = 0
    for j in range(1, cfg.n_cl + 1):
        rows = np.nonzero(regions == j)[0]
        if rows.shape[0] < train.n_p + 1:
            if global_model is None:
                global_model = _fit_affine(train.inputs, train.outputs)
            models.append(global_model)
            fallbacks += 1
        else:
            models.append(_fit_affine(train.inputs[rows], train.outputs[rows]))
    watch.lap("train")
    sensor = SensorModel(tuple(models), logic, scaler, {"method": "mis-std"})
    train_rmse = rmse(train.outputs, predict_batch(train.inputs, sensor))
    labels = LabelingMatrix.from_assignments(regions, cfg.n_cl)
    stats = {"timings": watch.laps, "kmeans_sse": km.sse,
             "kmeans_iterations": km.iterations, "region_fallbacks": fallbacks}
    return DesignReport(sensor, train_rmse, labels, stats)


# ---------------------------------------------------------------------------
# The variable layout shared by the MIS-con QP and the labeling MILP

@dataclass(frozen=True)
class VariableLayout:
    """Deterministic variable order of the MIS-con QP and the labeling MILP.

    Shared head: w (n_sp * n_p), b_w (n_sp), p (n_cl * n_p), b_p (n_cl).
    The MILP continues with t (n), then the binary block z (n * n_cl),
    row-major over (i, j); the QP has the head alone.
    Derivable from (n, n_p, n_cl) alone, so builders and extractors agree
    without passing maps around.
    """

    n: int
    n_p: int
    n_cl: int

    @property
    def n_sp(self) -> int:
        return self.n_cl * (self.n_cl - 1) // 2

    def w(self, k: int, d: int) -> int:
        return (k - 1) * self.n_p + d

    def b_w(self, k: int) -> int:
        return self.n_sp * self.n_p + (k - 1)

    def p(self, j: int, d: int) -> int:
        return self.n_sp * (self.n_p + 1) + (j - 1) * self.n_p + d

    def b_p(self, j: int) -> int:
        return self.n_sp * (self.n_p + 1) + self.n_cl * self.n_p + (j - 1)

    @property
    def n_head(self) -> int:
        return (self.n_sp + self.n_cl) * (self.n_p + 1)

    def t(self, i: int) -> int:
        return self.n_head + i

    def z(self, i: int, j: int) -> int:
        return self.n_continuous + i * self.n_cl + (j - 1)

    @property
    def n_continuous(self) -> int:
        return self.n_head + self.n

    @property
    def n_vars(self) -> int:
        return self.n_continuous + self.n * self.n_cl

    @property
    def binaries(self) -> tuple[int, ...]:
        return tuple(range(self.n_continuous, self.n_vars))


def variable_layout(n: int, n_p: int, n_cl: int) -> VariableLayout:
    return VariableLayout(n, n_p, n_cl)


def _continuity_rows(lay: VariableLayout, k: int, r: int, s: int) -> list[Constraint]:
    """p_r - p_s = w_k and b_p,r - b_p,s = b_w,k for pair k = (r, s)."""
    rows = [Constraint.of({lay.p(r, d): 1.0, lay.p(s, d): -1.0, lay.w(k, d): -1.0}, "=", 0.0)
            for d in range(lay.n_p)]
    rows.append(Constraint.of({lay.b_p(r): 1.0, lay.b_p(s): -1.0, lay.b_w(k): -1.0}, "=", 0.0))
    return rows


# ---------------------------------------------------------------------------
# MIS-con: continuity-coupled joint training (one convex QP)

def _build_mis_con_qp(train: Dataset, labels: LabelingMatrix):
    """Per-class least squares over the layout head, every variable free,
    subject to the continuity rows of each pair."""
    n_p, n_cl = train.n_p, labels.n_cl
    lay = variable_layout(train.n, n_p, n_cl)
    assign = labels.assignments()
    q = np.zeros((lay.n_head, lay.n_head))
    c = np.zeros(lay.n_head)
    constant = 0.0
    x, y = train.inputs, train.outputs
    for j in range(1, n_cl + 1):
        rows = np.nonzero(assign == j)[0]
        if rows.shape[0] == 0:
            raise ValueError(f"class {j} is empty")
        a = np.hstack([x[rows], np.ones((rows.shape[0], 1))])
        idx = [lay.p(j, d) for d in range(n_p)] + [lay.b_p(j)]
        q[np.ix_(idx, idx)] += 2.0 * (a.T @ a)
        c[idx] += -2.0 * (a.T @ y[rows])
        constant += float(y[rows] @ y[rows])
    cons = [row for k, (r, s) in enumerate(expected_pairs(n_cl), start=1)
            for row in _continuity_rows(lay, k, r, s)]
    free = np.full(lay.n_head, np.inf)
    return QuadraticProgram(q, c, cons, -free, free, constant), lay


def _extract_sensor(values: np.ndarray, lay: VariableLayout, scaler, method: str) -> SensorModel:
    models = tuple(
        AffineModel(np.array([values[lay.p(j, d)] for d in range(lay.n_p)]),
                    float(values[lay.b_p(j)]))
        for j in range(1, lay.n_cl + 1))
    if lay.n_cl == 1:
        return SensorModel(models, None, scaler, {"method": method})
    hyperplanes = []
    for k in range(1, lay.n_sp + 1):
        w = np.array([values[lay.w(k, d)] for d in range(lay.n_p)])
        b_w = float(values[lay.b_w(k)])
        if np.sqrt(w @ w) <= 1e-12:
            # identical local models make routing irrelevant; Hyperplane
            # forbids a zero normal, so pick a harmless placeholder
            w = np.zeros(lay.n_p)
            w[0] = 1e-9
        hyperplanes.append(Hyperplane(w, b_w))
    logic = SwitchingLogic(tuple(hyperplanes), expected_pairs(lay.n_cl), lay.n_cl)
    return SensorModel(models, logic, scaler, {"method": method})


def continuity_violation(sensor: SensorModel, n_samples: int = 1000,
                         seed: int = 0, box_scale: float = 2.0) -> float:
    """Max |model_r(x) - model_s(x)| over sampled points of each switching plane."""
    if sensor.switching is None:
        return 0.0
    rng = np.random.default_rng(seed)
    worst = 0.0
    for hp, (r, s) in zip(sensor.switching.hyperplanes, sensor.switching.pairs):
        w = hp.w
        x0 = -hp.b_w * w / float(w @ w)
        if sensor.n_p == 1:
            pts = x0[None, :]
        else:
            qmat, _ = linalg.householder_qr(w[:, None])
            null = qmat[:, 1:]  # orthonormal basis of the plane's directions
            coefs = rng.uniform(-box_scale, box_scale, size=(n_samples, sensor.n_p - 1))
            pts = x0[None, :] + coefs @ null.T
        mr, ms = sensor.models[r - 1], sensor.models[s - 1]
        diff = np.abs(pts @ (mr.p - ms.p) + (mr.b_p - ms.b_p))
        worst = max(worst, float(diff.max()))
    return worst


def _normal_dependency_notes(n_cl: int) -> list[str]:
    pairs = expected_pairs(n_cl)
    index = {pair: k for k, pair in enumerate(pairs, start=1)}
    notes = []
    for r in range(1, n_cl + 1):
        for s in range(r + 1, n_cl + 1):
            for u in range(s + 1, n_cl + 1):
                notes.append(
                    f"w[{index[(r, u)]}] = w[{index[(r, s)]}] + w[{index[(s, u)]}]"
                    f" (pairs {(r, u)}, {(r, s)}, {(s, u)})")
    return notes


def design_mis_con(train: Dataset, labels: LabelingMatrix, cfg: DesignConfig,
                   scaler: Scaler | None = None) -> DesignReport:
    """Continuity-coupled least-squares training (one convex QP)."""
    if labels.n != train.n:
        raise ValueError("labels and dataset disagree on the number of rows")
    watch = _Stopwatch()
    prob, lay = _build_mis_con_qp(train, labels)
    sol = solve_qp(prob)
    watch.lap("train")
    if sol.status != QpStatus.OPTIMAL:
        raise RuntimeError(
            "MIS-con QP reported infeasible: its continuity rows always admit "
            "w_k = p_r - p_s, b_w,k = b_p,r - b_p,s, so the feasibility LP "
            "failed numerically")
    sensor = _extract_sensor(sol.values, lay, scaler, "mis-con")
    cont = continuity_violation(sensor, seed=cfg.seed)
    if cont > CONTINUITY_TOL:
        raise RuntimeError(f"continuity violation {cont:.3e} above {CONTINUITY_TOL}")
    watch.lap("verify")
    train_rmse = rmse(train.outputs, predict_batch(train.inputs, sensor))
    stats = {"timings": watch.laps, "qp_iterations": sol.iterations,
             "qp_adds": sol.adds, "qp_drops": sol.drops,
             "kkt_residual": sol.kkt_residual, "continuity_max": cont,
             "objective_value": sol.objective_value}
    if labels.n_cl >= 3:
        stats["normal_dependencies"] = _normal_dependency_notes(labels.n_cl)
    return DesignReport(sensor, train_rmse, labels, stats)


# ---------------------------------------------------------------------------
# MIS-con-lab: optimal labeling MILP (epigraph + big-M), then fix Z and refit

def build_mis_con_lab_milp(train: Dataset, cfg: DesignConfig) -> MixedIntegerProgram:
    """Big-M linearization of the optimal-labeling problem (L1 objective).

    Rows, in order: one labeling row-sum equality per point; two epigraph
    rows per (point, class); n_p + 1 continuity equalities per pair;
    offset-ordering symmetry breaking; and a minimum class size of n_p + 1
    points.  The objective prices fit error only, so the program has no
    margin rows: with free slacks they would cut nothing.  w and b_w stay,
    boxed by param_bound, so the continuity rows also bound the differences
    between the models of each pair.  Raises ValueError when big-M is below
    |y_i| + param_bound * (||x_i||_1 + 1) for some point i (data outside the
    unit box that `required_big_m` assumes).
    """
    n, n_p, n_cl = train.n, train.n_p, cfg.n_cl
    if n < n_cl * (n_p + 1):
        raise ValueError(f"need at least {n_cl * (n_p + 1)} points for n_cl={n_cl}")
    big_m = cfg.effective_big_m(n_p)
    lay = variable_layout(n, n_p, n_cl)
    x, y = train.inputs, train.outputs
    # a row with z_ij = 0 cuts nothing only if M >= |y_i| + B (||x_i||_1 + 1)
    need = np.abs(y) + cfg.param_bound * (np.abs(x).sum(axis=1) + 1.0)
    worst = int(np.argmax(need))
    if big_m < need[worst]:
        raise ValueError(
            f"big-M {big_m} could cut feasible labelings: point {worst} needs "
            f"M >= {need[worst]:.6g} (required_big_m assumes inputs and outputs "
            f"in [0, 1]; normalize the data)")
    cons = []
    # (a) unique labeling
    for i in range(n):
        cons.append(Constraint.of({lay.z(i, j): 1.0 for j in range(1, n_cl + 1)}, "=", 1.0))
    # (b) epigraph rows with big-M deactivation
    for i in range(n):
        for j in range(1, n_cl + 1):
            base = {lay.t(i): 1.0, lay.z(i, j): -big_m}
            plus = dict(base)
            minus = dict(base)
            for d in range(n_p):
                plus[lay.p(j, d)] = float(x[i, d])
                minus[lay.p(j, d)] = float(-x[i, d])
            plus[lay.b_p(j)] = 1.0
            minus[lay.b_p(j)] = -1.0
            cons.append(Constraint.of(plus, ">=", float(y[i]) - big_m))
            cons.append(Constraint.of(minus, ">=", float(-y[i]) - big_m))
    # (c) continuity couplings
    for k, (r, s) in enumerate(expected_pairs(n_cl), start=1):
        cons.extend(_continuity_rows(lay, k, r, s))
    # (d) symmetry breaking: offsets in nondecreasing class order
    for j in range(1, n_cl):
        cons.append(Constraint.of({lay.b_p(j): 1.0, lay.b_p(j + 1): -1.0}, "<=", 0.0))
    # (e) minimum class size
    for j in range(1, n_cl + 1):
        cons.append(Constraint.of({lay.z(i, j): 1.0 for i in range(n)}, ">=", float(n_p + 1)))
    objective = np.zeros(lay.n_vars)
    for i in range(n):
        objective[lay.t(i)] = 1.0
    lo = np.full(lay.n_vars, -cfg.param_bound)
    hi = np.full(lay.n_vars, cfg.param_bound)
    for i in range(n):
        lo[lay.t(i)], hi[lay.t(i)] = 0.0, np.inf
    for j in lay.binaries:
        lo[j], hi[j] = 0.0, 1.0
    base = LinearProgram(objective, cons, lo, hi)
    return MixedIntegerProgram(base, lay.binaries)


def labeling_l1_objective(program: MixedIntegerProgram, lay: VariableLayout,
                          labels: LabelingMatrix) -> tuple[float | None, np.ndarray | None]:
    """Score a fixed labeling as a feasible point of the MILP (LP with Z pinned).

    Returns (objective, full variable vector), or (None, None) when the
    labeling is infeasible in the program (e.g. a class below minimum size).
    """
    lo = program.base.lower.copy()
    hi = program.base.upper.copy()
    assign = labels.assignments()
    for i in range(lay.n):
        for j in range(1, lay.n_cl + 1):
            v = 1.0 if assign[i] == j else 0.0
            lo[lay.z(i, j)] = hi[lay.z(i, j)] = v
    sol = solve_lp(LinearProgram(program.base.objective, program.base.constraints, lo, hi))
    if sol.status != Status.OPTIMAL:
        return None, None
    return sol.objective_value, sol.values


def design_mis_con_lab(train: Dataset, cfg: DesignConfig,
                       scaler: Scaler | None = None) -> DesignReport:
    """Optimal-labeling design: MILP for Z, then the MIS-con refit."""
    watch = _Stopwatch()
    program = build_mis_con_lab_milp(train, cfg)
    lay = variable_layout(train.n, train.n_p, cfg.n_cl)
    watch.lap("build")
    hint = None
    hint_objective = None
    kmeans_objective = None
    if cfg.n_cl > 1:
        km = kmeans(train.inputs, cfg.n_cl, seed=cfg.seed)
        # class indices are reordered so the symmetry-breaking rows do not
        # penalize the hint's objective
        kmeans_objective, hint = labeling_l1_objective(
            program, lay, _order_labels(train, km.labels))
        hint_objective = kmeans_objective
        improved = improve_labeling(train, km.labels, seed=cfg.seed)
        if improved is not None:
            better_obj, better = labeling_l1_objective(
                program, lay, _order_labels(train, improved))
            if better is not None and (hint_objective is None
                                       or better_obj < hint_objective - 1e-12):
                hint_objective, hint = better_obj, better
    watch.lap("hint")
    result = solve_milp(program, cfg.milp_limits, incumbent_hint=hint,
                        log_interval=cfg.milp_log_interval)
    watch.lap("milp")
    if result.values is None:
        raise NoIncumbentError("no feasible labeling found within the MILP limits")
    z_block = result.values[list(lay.binaries)].reshape(lay.n, lay.n_cl)
    labels = LabelingMatrix.from_assignments(z_block.argmax(axis=1) + 1, lay.n_cl)
    refit = design_mis_con(train, labels, cfg, scaler)
    watch.lap("refit")
    sensor = SensorModel(refit.sensor.models, refit.sensor.switching, scaler,
                         {"method": "mis-con-lab"})
    train_rmse = rmse(train.outputs, predict_batch(train.inputs, sensor))
    stats = {
        "timings": watch.laps,
        "milp": result.summary(),
        "milp_timed_out": result.status == MipStatus.TIMED_OUT,
        "l1_objective": result.objective_value,
        "kmeans_labeling_l1_objective": kmeans_objective,
        "hint_l1_objective": hint_objective,
        "continuity_max": refit.solver_stats["continuity_max"],
        "kkt_residual": refit.solver_stats["kkt_residual"],
    }
    if cfg.n_cl >= 3:
        stats["normal_dependencies"] = _normal_dependency_notes(cfg.n_cl)
    return DesignReport(sensor, train_rmse, labels, stats)


def _order_labels(train: Dataset, labels: LabelingMatrix) -> LabelingMatrix:
    """Permute class indices so per-class LS offsets are nondecreasing.

    Aligns a heuristic labeling with the MILP's symmetry-breaking rows so it
    can serve as a feasible incumbent hint.
    """
    offsets = []
    for j in range(1, labels.n_cl + 1):
        rows = labels.members(j)
        if rows.shape[0] >= train.n_p + 1:
            try:
                model = _fit_affine(train.inputs[rows], train.outputs[rows])
                offsets.append(model.b_p)
            except linalg.LinAlgError:
                offsets.append(float(train.outputs[rows].mean()))
        else:
            offsets.append(np.inf)
    order = np.argsort(np.asarray(offsets), kind="stable")  # old index per new slot
    rename = np.empty(labels.n_cl, dtype=int)
    rename[order] = np.arange(1, labels.n_cl + 1)
    return LabelingMatrix.from_assignments(rename[labels.assignments() - 1], labels.n_cl)


def _lad_fit(inputs: np.ndarray, outputs: np.ndarray) -> AffineModel:
    """Least-absolute-deviations affine fit via the LP dual of its epigraph
    form: max y'u s.t. [X 1]'u = 0, -1 <= u <= 1, with n_p + 1 rows.  The
    fit's parameters are minus the row duals.  Raises RuntimeError when the
    LP cannot be solved."""
    n, d = inputs.shape
    cons = [Constraint(tuple(enumerate(column.tolist())), "=", 0.0)
            for column in np.column_stack([inputs, np.ones(n)]).T]
    prob = LinearProgram(-np.asarray(outputs, dtype=float), cons,
                         np.full(n, -1.0), np.ones(n))
    try:
        sol = solve_lp(prob)
    except linalg.LinAlgError as exc:
        raise RuntimeError("LAD fit LP is numerically singular") from exc
    if sol.status != Status.OPTIMAL:
        raise RuntimeError("LAD fit LP unexpectedly not optimal")
    return AffineModel(-sol.dual_values[:d], float(-sol.dual_values[d]))


def _class_models(train: Dataset, assign: np.ndarray, n_cl: int,
                  memo: dict[bytes, AffineModel]) -> list[AffineModel]:
    """Per-class LAD models; `memo` holds the model of every row set fit so far."""
    models = []
    for j in range(1, n_cl + 1):
        rows = np.nonzero(assign == j)[0]
        key = rows.tobytes()
        if key not in memo:
            memo[key] = _class_model(train, rows)
        models.append(memo[key])
    return models


def _class_model(train: Dataset, rows: np.ndarray) -> AffineModel:
    """The LAD fit of the rows, or their mean when they cannot identify one."""
    if rows.shape[0] >= train.n_p + 1:
        try:
            return _lad_fit(train.inputs[rows], train.outputs[rows])
        except RuntimeError:
            pass
    mean = float(train.outputs[rows].mean()) if rows.size else float(train.outputs.mean())
    return AffineModel(np.zeros(train.n_p), mean)


def _l1_descent(train: Dataset, assign: np.ndarray, n_cl: int,
                memo: dict[bytes, AffineModel], max_rounds: int = 30) -> np.ndarray:
    """Reassign-and-refit descent on the summed absolute errors.

    Alternates per-class LAD fits with reassigning every point to its
    best-fitting model, keeping each class at the minimum identifiable size
    (n_p + 1).  Deterministic coordinate descent on the labeling objective.
    """
    n, n_p = train.n, train.n_p
    min_size = n_p + 1
    assign = assign.copy()
    for _ in range(max_rounds):
        models = _class_models(train, assign, n_cl, memo)
        resid = np.abs(np.stack(
            [train.inputs @ m.p + m.b_p - train.outputs for m in models], axis=1))
        new_assign = resid.argmin(axis=1) + 1
        # repair classes that fell below the minimum size: pull in the
        # points that lose the least by switching, never draining a donor
        sizes = np.bincount(new_assign, minlength=n_cl + 1)
        repaired = True
        for j in range(1, n_cl + 1):
            while sizes[j] < min_size and repaired:
                penalty = resid[:, j - 1] - resid[np.arange(n), new_assign - 1]
                repaired = False
                for i in np.argsort(penalty, kind="stable"):
                    src = new_assign[i]
                    if src != j and sizes[src] > min_size:
                        new_assign[i] = j
                        sizes[src] -= 1
                        sizes[j] += 1
                        repaired = True
                        break
        if not repaired or np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return assign


def _split_merge_starts(train: Dataset, labels: LabelingMatrix) -> list[np.ndarray]:
    """Structured proposals: split one class in two, merge the two closest others.

    A piecewise-affine optimum often spends two models on the most curved
    region; plain descent from a clustering rarely crosses into that
    structure on its own.
    """
    n_cl = labels.n_cl
    if n_cl < 3:
        return []
    assign = labels.assignments()
    centroids = np.stack([train.inputs[labels.members(j)].mean(axis=0)
                          for j in range(1, n_cl + 1)])
    proposals = []
    for j in range(1, n_cl + 1):
        rows = labels.members(j)
        if rows.shape[0] < 2 * (train.n_p + 1):
            continue  # both halves must stay identifiable
        sub = train.inputs[rows]
        dim = int(np.argmax(sub.var(axis=0)))
        median = np.median(sub[:, dim])
        others = [k for k in range(1, n_cl + 1) if k != j]
        dists = {(a, b): float(np.sum((centroids[a - 1] - centroids[b - 1]) ** 2))
                 for ai, a in enumerate(others) for b in others[ai + 1:]}
        (ma, mb) = min(dists, key=dists.get)
        new = np.empty(train.n, dtype=int)
        # classes: 1 and 2 are the split halves, 3 is the merged pair, and
        # the remaining classes fill 4 and up in order
        remap = {ma: 3, mb: 3}
        next_free = 4
        for k in others:
            if k not in (ma, mb):
                remap[k] = next_free
                next_free += 1
        for i in range(train.n):
            if assign[i] == j:
                new[i] = 1 if train.inputs[i, dim] <= median else 2
            else:
                new[i] = remap[assign[i]]
        proposals.append(new)
    return proposals


def improve_labeling(train: Dataset, labels: LabelingMatrix, seed: int = 0,
                     extra_starts: int = 6) -> LabelingMatrix | None:
    """Multi-start L1 descent used to seed the labeling MILP.

    Starts from the given labeling, structured split-and-merge variants of
    it, and seeded random perturbations; every start is polished by
    `_l1_descent` and the best per-class LAD objective wins.  Returns None
    when the instance is too small to keep every class identifiable.  Only
    a hint source: the MILP still owns optimality.
    """
    n, n_p, n_cl = train.n, train.n_p, labels.n_cl
    if n_cl * (n_p + 1) > n:
        return None
    starts = [labels.assignments()]
    starts.extend(_split_merge_starts(train, labels))
    rng = np.random.default_rng([seed, 7])
    for _ in range(extra_starts):
        pert = starts[0].copy()
        flip = rng.choice(n, size=max(2, n // 5), replace=False)
        pert[flip] = rng.integers(1, n_cl + 1, size=flip.size)
        starts.append(pert)
    best_assign = None
    best_obj = np.inf
    memo: dict[bytes, AffineModel] = {}  # starts often reach the same classes
    for start in starts:
        assign = _l1_descent(train, np.asarray(start, dtype=int), n_cl, memo)
        sizes = np.bincount(assign, minlength=n_cl + 1)[1:]
        if sizes.min() < n_p + 1:
            continue
        models = _class_models(train, assign, n_cl, memo)
        resid = np.abs(np.stack(
            [train.inputs @ m.p + m.b_p - train.outputs for m in models], axis=1))
        obj = float(resid[np.arange(n), assign - 1].sum())
        if obj < best_obj - 1e-12:
            best_obj, best_assign = obj, assign
    if best_assign is None:
        return None
    return LabelingMatrix.from_assignments(best_assign, n_cl)
