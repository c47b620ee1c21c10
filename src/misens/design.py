"""The four sensor-design methods: SIS, MIS-std, MIS-con and MIS-con-lab.

SIS fits one affine model by least squares.  MIS-std is the three-step
pipeline (k-means labels, one-vs-one SVM switching, per-region least
squares).  MIS-con fits each class's local model by least squares, then
takes the switching hyperplane of each pair (r, s) as the difference of
its models: normal p_r - p_s, offset b_p,r - b_p,s.  Both models agree
wherever that plane routes between them, so the prediction is continuous
across every switch by construction; the parameters show it exactly, and
the design samples no points to re-check it.  Where two models share a
slope the plane gets a tiny placeholder normal (a Hyperplane cannot have a
zero one), so on normalized data its offset routes to the larger model.
MIS-con-lab additionally optimizes the labeling itself: an epigraph/big-M
MILP over the boxed model variables minimizes the summed absolute errors
over labelings (point i may only join classes 1..i+1, which keeps each
partition's first-occurrence numbering and, at two classes, no other one);
then the labels are fixed and the final models come from the MIS-con
refit, whose planes are again the models' differences.
All four share one least-squares kernel, `linalg.least_squares`."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .classify import kmeans, train_multiclass_svm
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
from .milp import MilpLimits, MixedIntegerProgram, solve_milp

DESCENT_ROUNDS = 30      # reassign-and-refit rounds of one L1 descent
RANDOM_STARTS = 6        # seeded random perturbations tried by improve_labeling


class NoIncumbentError(RuntimeError):
    """The MILP limits expired before any feasible labeling was found."""


def required_big_m(param_bound: float, n_p: int) -> float:
    """Smallest M that can never cut a feasible labeling given the variable box."""
    return 2.0 * (param_bound * (n_p + 1) + 1.0)


@dataclass
class DesignConfig:
    n_cl: int = 3
    gamma: float = 10.0
    param_bound: float = 10.0
    milp_limits: MilpLimits = field(default_factory=MilpLimits)
    seed: int = 0

    def __post_init__(self):
        if self.n_cl < 1:
            raise ValueError("n_cl must be at least 1")
        if not (self.gamma > 0 and np.isfinite(self.gamma)):
            raise ValueError("gamma must be positive and finite")
        if not (self.param_bound > 0 and np.isfinite(self.param_bound)):
            raise ValueError("param_bound must be positive and finite")


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


def design_mis_std(train: Dataset, cfg: DesignConfig, scaler: Scaler | None = None,
                   labels: LabelingMatrix | None = None) -> DesignReport:
    """Standard three-step pipeline: k-means, one-vs-one SVM, per-region LS.

    `labels` is the k-means labeling of `train` under `cfg`, computed here
    when not given.  Each region's training subset is the set of points the
    trained switching logic routes to it (not the raw k-means labels), so
    training data and deploy-time routing agree.  Regions left with fewer
    than n_p + 1 points fall back to the global single-model fit.
    """
    if cfg.n_cl == 1:
        return design_sis(train, scaler)
    if train.n < cfg.n_cl * (train.n_p + 1):
        raise ValueError(
            f"need at least {cfg.n_cl * (train.n_p + 1)} points for n_cl={cfg.n_cl}")
    watch = _Stopwatch()
    if labels is None:
        labels = kmeans(train.inputs, cfg.n_cl, seed=cfg.seed).labels
    watch.lap("label")
    logic, kkt = train_multiclass_svm(train.inputs, labels, cfg.gamma)
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
    used = LabelingMatrix.from_assignments(regions, cfg.n_cl)
    stats = {"timings": watch.laps, "region_fallbacks": fallbacks, "kkt_residual": kkt}
    return DesignReport(sensor, train_rmse, used, stats)


# ---------------------------------------------------------------------------
# The variable layout of the labeling MILP

@dataclass(frozen=True)
class VariableLayout:
    """Deterministic variable order of the labeling MILP.

    Head: the model block p (n_cl * n_p), b_p (n_cl); then t (n), then the
    binary block z (n * n_cl), row-major over (i, j).  Derivable from
    (n, n_p, n_cl) alone, so builders and extractors agree without passing
    maps around.
    """

    n: int
    n_p: int
    n_cl: int

    def p(self, j: int, d: int) -> int:
        return (j - 1) * self.n_p + d

    def b_p(self, j: int) -> int:
        return self.n_cl * self.n_p + (j - 1)

    @property
    def n_head(self) -> int:
        return self.n_cl * (self.n_p + 1)

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


# ---------------------------------------------------------------------------
# MIS-con: per-class least squares, planes the differences of the models

def _extract_sensor(models: tuple[AffineModel, ...], scaler, method: str) -> SensorModel:
    """The models, and as the plane of each pair (r, s) model r minus model
    s, so both models agree wherever that plane switches."""
    n_cl = len(models)
    if n_cl == 1:
        return SensorModel(models, None, scaler, {"method": method})
    hyperplanes = []
    for r, s in expected_pairs(n_cl):
        mr, ms = models[r - 1], models[s - 1]
        w, b_w = mr.p - ms.p, mr.b_p - ms.b_p
        if np.sqrt(w @ w) <= 1e-12:
            # identical local models make routing irrelevant; Hyperplane
            # forbids a zero normal, so pick a harmless placeholder
            w = np.zeros(w.shape[0])
            w[0] = 1e-9
        hyperplanes.append(Hyperplane(w, b_w))
    logic = SwitchingLogic(tuple(hyperplanes), n_cl)
    return SensorModel(models, logic, scaler, {"method": method})


def design_mis_con(train: Dataset, labels: LabelingMatrix,
                   scaler: Scaler | None = None) -> DesignReport:
    """Continuity-coupled least-squares training.

    Each class gets the least-squares affine fit of its points, the
    minimum-norm one when it has fewer than n_p + 1 of them; the planes are
    the models' differences.  An empty class raises ValueError, and a class
    whose rows [x_i, 1] are rank-deficient (collinear points, or a repeated
    one) raises LinAlgError naming it.
    """
    if labels.n != train.n:
        raise ValueError("labels and dataset disagree on the number of rows")
    watch = _Stopwatch()
    models = []
    kkt = sse = 0.0
    for j in range(1, labels.n_cl + 1):
        rows = labels.members(j)
        if rows.shape[0] == 0:
            raise ValueError(f"class {j} is empty")
        x, y = train.inputs[rows], train.outputs[rows]
        try:
            model = _fit_affine(x, y)
        except linalg.LinAlgError as exc:
            raise linalg.LinAlgError(f"class {j}: {exc}") from None
        resid = x @ model.p + model.b_p - y
        # the gradient 2 A'(A theta - y) of the class's squared error
        grad = 2.0 * np.append(resid @ x, resid.sum())
        kkt = max(kkt, float(np.abs(grad).max()))
        sse += float(resid @ resid)
        models.append(model)
    watch.lap("train")
    sensor = _extract_sensor(tuple(models), scaler, "mis-con")
    train_rmse = rmse(train.outputs, predict_batch(train.inputs, sensor))
    stats = {"timings": watch.laps, "kkt_residual": kkt, "objective_value": sse}
    return DesignReport(sensor, train_rmse, labels, stats)


# ---------------------------------------------------------------------------
# MIS-con-lab: optimal labeling MILP (epigraph + big-M), then fix Z and refit

def build_mis_con_lab_milp(train: Dataset, cfg: DesignConfig) -> MixedIntegerProgram:
    """Big-M linearization of the optimal-labeling problem (L1 objective).

    Rows, in order: one labeling row-sum equality per point; two epigraph
    rows per (point, class); and a minimum class size of n_p + 1 points.
    Classes are interchangeable, so the z box breaks the symmetry: z_ij has
    upper bound 0 for j > i + 1 (0-based point i).  Every partition keeps
    its numbering by first occurrence; at n_cl = 2 that is the only one
    left, and at n_cl >= 3 some others remain (Kaibel & Pfetsch, "Packing
    and partitioning orbitopes", 2008).  The variables are the models
    (each parameter boxed by param_bound), the epigraph t (boxed by big-M,
    at least what any epigraph row asks) and the labeling z: the sensor's
    planes are the models' differences, so the program needs no plane
    variables and no rows tying them to the models.  Raises
    ValueError when big-M is below |y_i| + param_bound * (||x_i||_1 + 1) for
    some point i (data outside the unit box that `required_big_m` assumes).
    """
    n, n_p, n_cl = train.n, train.n_p, cfg.n_cl
    if n < n_cl * (n_p + 1):
        raise ValueError(f"need at least {n_cl * (n_p + 1)} points for n_cl={n_cl}")
    big_m = required_big_m(cfg.param_bound, n_p)
    lay = VariableLayout(n, n_p, n_cl)
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
    # (c) minimum class size
    for j in range(1, n_cl + 1):
        cons.append(Constraint.of({lay.z(i, j): 1.0 for i in range(n)}, ">=", float(n_p + 1)))
    objective = np.zeros(lay.n_vars)
    for i in range(n):
        objective[lay.t(i)] = 1.0
    lo = np.full(lay.n_vars, -cfg.param_bound)
    hi = np.full(lay.n_vars, cfg.param_bound)
    for i in range(n):
        lo[lay.t(i)], hi[lay.t(i)] = 0.0, big_m
    for j in lay.binaries:
        lo[j], hi[j] = 0.0, 1.0
    for i in range(n_cl - 1):
        for j in range(i + 2, n_cl + 1):
            hi[lay.z(i, j)] = 0.0  # point i is in one of classes 1..i+1
    base = LinearProgram(objective, cons, lo, hi)
    return MixedIntegerProgram(base, lay.binaries)


def labeling_l1_objective(program: MixedIntegerProgram, lay: VariableLayout,
                          labels: LabelingMatrix) -> tuple[float | None, np.ndarray | None]:
    """Score a fixed labeling as a feasible point of the MILP (LP with Z pinned).

    The classes are first renumbered by first occurrence, a numbering the
    program's z box always admits, so every numbering of a partition scores
    the same.  Returns (objective, full variable vector), or (None, None) when
    the labeling is infeasible in the program (e.g. a class below minimum
    size).
    """
    lo = program.base.lower.copy()
    hi = program.base.upper.copy()
    one_hot = labels.entries
    first = np.where(one_hot.any(axis=0), one_hot.argmax(axis=0), lay.n)
    one_hot = one_hot[:, np.argsort(first, kind="stable")]
    z = slice(lay.n_continuous, lay.n_vars)  # the binaries, row-major over (i, j)
    lo[z] = hi[z] = one_hot.ravel()
    sol = solve_lp(LinearProgram(program.base.objective, program.base.constraints, lo, hi))
    if sol.status != Status.OPTIMAL:
        return None, None
    return sol.objective_value, sol.values


def design_mis_con_lab(train: Dataset, cfg: DesignConfig, scaler: Scaler | None = None,
                       labels: LabelingMatrix | None = None) -> DesignReport:
    """Optimal-labeling design: MILP for Z, then the MIS-con refit.

    `labels`, the k-means labeling of `train` under `cfg` (computed here
    when not given), and its improvement seed the MILP as its incumbent
    hint.  `hint_l1_objective` is the objective of the hint the MILP took,
    None when it took none.
    """
    watch = _Stopwatch()
    program = build_mis_con_lab_milp(train, cfg)
    lay = VariableLayout(train.n, train.n_p, cfg.n_cl)
    watch.lap("build")
    hint = None
    hint_objective = None
    kmeans_objective = None
    if cfg.n_cl > 1:
        if labels is None:
            labels = kmeans(train.inputs, cfg.n_cl, seed=cfg.seed).labels
        kmeans_objective, hint = labeling_l1_objective(program, lay, labels)
        hint_objective = kmeans_objective
        improved = improve_labeling(train, labels, seed=cfg.seed)
        if improved is not None:
            better_obj, better = labeling_l1_objective(program, lay, improved)
            if better is not None and (hint_objective is None
                                       or better_obj < hint_objective - 1e-12):
                hint_objective, hint = better_obj, better
    watch.lap("hint")
    result = solve_milp(program, cfg.milp_limits, incumbent_hint=hint)
    watch.lap("milp")
    if result.values is None:
        raise NoIncumbentError("no feasible labeling found within the MILP limits")
    z_block = result.values[list(lay.binaries)].reshape(lay.n, lay.n_cl)
    milp_labels = LabelingMatrix.from_assignments(z_block.argmax(axis=1) + 1, lay.n_cl)
    refit = design_mis_con(train, milp_labels, scaler)
    watch.lap("refit")
    sensor = SensorModel(refit.sensor.models, refit.sensor.switching, scaler,
                         {"method": "mis-con-lab"})
    stats = {
        "timings": watch.laps,
        "milp": result.summary(),
        "l1_objective": result.objective_value,
        "kmeans_labeling_l1_objective": kmeans_objective,
        "hint_l1_objective": hint_objective if result.hint_used else None,
        "kkt_residual": refit.solver_stats["kkt_residual"],
    }
    return DesignReport(sensor, refit.train_rmse, milp_labels, stats)


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
                memo: dict[bytes, AffineModel]) -> np.ndarray:
    """Reassign-and-refit descent on the summed absolute errors.

    Alternates per-class LAD fits with reassigning every point to its
    best-fitting model, keeping each class at the minimum identifiable size
    (n_p + 1).  Deterministic coordinate descent on the labeling objective.
    """
    n, n_p = train.n, train.n_p
    min_size = n_p + 1
    assign = assign.copy()
    for _ in range(DESCENT_ROUNDS):
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
        # classes: 1 and 2 are the split halves, 3 is the merged pair, and
        # the remaining classes fill 4 and up in order
        remap = np.zeros(n_cl + 1, dtype=int)
        remap[[ma, mb]] = 3
        rest = [k for k in others if k not in (ma, mb)]
        remap[rest] = np.arange(4, 4 + len(rest))
        new = remap[assign]
        new[rows] = np.where(sub[:, dim] <= median, 1, 2)
        proposals.append(new)
    return proposals


def improve_labeling(train: Dataset, labels: LabelingMatrix,
                     seed: int = 0) -> LabelingMatrix | None:
    """Multi-start L1 descent used to seed the labeling MILP.

    Starts from structured split-and-merge variants of the given labeling
    and from seeded random perturbations of it; every start is polished by
    `_l1_descent` and the best per-class LAD objective wins.  The labeling
    itself is no start: polished, it won none of the benchmark draws.
    Returns None when the instance is too small to keep every class
    identifiable.  Only a hint source: the MILP still owns optimality.
    """
    n, n_p, n_cl = train.n, train.n_p, labels.n_cl
    if n_cl * (n_p + 1) > n:
        return None
    base = labels.assignments()
    starts = _split_merge_starts(train, labels)
    rng = np.random.default_rng([seed, 7])
    for _ in range(RANDOM_STARTS):
        pert = base.copy()
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
