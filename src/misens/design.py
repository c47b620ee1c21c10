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
MILP over the boxed model variables, its M the least the data needs,
minimizes the summed absolute errors over labelings (point i may only join
classes 1..i+1, which keeps each partition's first-occurrence numbering
and, at two classes, no other one); then the labels are fixed and the
final models come from the MIS-con refit, whose planes are again the
models' differences.
All four share one least-squares kernel, `linalg.least_squares`, and
return a sensor without a scaler, in the units of their training data."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .classify import kmeans, train_multiclass_svm
from .core import (
    AffineModel,
    Dataset,
    Hyperplane,
    LabelingMatrix,
    SensorModel,
    SwitchingLogic,
    assign_regions,
    expected_pairs,
    predict_batch,
    rmse,
)
from .lp import LinearProgram, Status, solve_lp
from .milp import MilpLimits, MixedIntegerProgram, solve_milp

DESCENT_ROUNDS = 30      # reassign-and-refit rounds of one L1 descent
RANDOM_STARTS = 6        # seeded random perturbations tried by improve_labeling


class NoIncumbentError(RuntimeError):
    """The MILP limits expired before any feasible labeling was found."""


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


def design_sis(train: Dataset) -> DesignReport:
    """Single-model inferential sensor: one affine least-squares fit."""
    if train.n < train.n_p + 1:
        raise ValueError(f"need at least {train.n_p + 1} points, got {train.n}")
    watch = _Stopwatch()
    model = _fit_affine(train.inputs, train.outputs)
    watch.lap("train")
    sensor = SensorModel((model,), metadata={"method": "sis"})
    train_rmse = rmse(train.outputs, predict_batch(train.inputs, sensor))
    labels = LabelingMatrix.from_assignments(np.ones(train.n, dtype=int), 1)
    return DesignReport(sensor, train_rmse, labels, {"timings": watch.laps})


def _check_labels(labels: LabelingMatrix | None, train: Dataset, cfg: DesignConfig) -> None:
    """Refuse a labeling of other rows than train's or of other than cfg.n_cl classes."""
    if labels is not None and (labels.n, labels.n_cl) != (train.n, cfg.n_cl):
        raise ValueError(f"labels have {labels.n} rows and {labels.n_cl} classes, but "
                         f"train has {train.n} rows and cfg.n_cl is {cfg.n_cl}")


def design_mis_std(train: Dataset, cfg: DesignConfig,
                   labels: LabelingMatrix | None = None) -> DesignReport:
    """Standard three-step pipeline: k-means, one-vs-one SVM, per-region LS.

    `labels` is the k-means labeling of `train` under `cfg`, computed here
    when not given.  Each region's training subset is the set of points the
    trained switching logic routes to it (not the raw k-means labels), so
    training data and deploy-time routing agree.  Regions left with fewer
    than n_p + 1 points fall back to the global single-model fit.
    """
    _check_labels(labels, train, cfg)
    if cfg.n_cl == 1:
        return design_sis(train)
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
    sensor = SensorModel(tuple(models), logic, metadata={"method": "mis-std"})
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

def _extract_sensor(models: tuple[AffineModel, ...], method: str) -> SensorModel:
    """The models, and as the plane of each pair (r, s) model r minus model
    s, so both models agree wherever that plane switches."""
    n_cl = len(models)
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
    logic = SwitchingLogic(tuple(hyperplanes), n_cl) if n_cl > 1 else None
    return SensorModel(models, logic, metadata={"method": method})


def design_mis_con(train: Dataset, labels: LabelingMatrix) -> DesignReport:
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
    sensor = _extract_sensor(tuple(models), "mis-con")
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
    (each parameter boxed by B = param_bound), the epigraph t and the
    labeling z: the sensor's planes are the models' differences, so the
    program needs no plane variables and no rows tying them to the models.
    M is read from the data, as in Roll, Bemporad & Ljung (Automatica 40,
    2004): max_i |y_i| + B (||x_i||_1 + 1), the most |y_i - f_j(x_i)| can be
    in the box, which also boxes t.  So with z_ij = 0 a row asks t_i >=
    +-(y_i - f_j(x_i)) - M, which is <= 0, and with z_ij = 1 M cancels: the
    feasible labelings and the optimum are those without M, in any units.
    """
    n, n_p, n_cl = train.n, train.n_p, cfg.n_cl
    if n < n_cl * (n_p + 1):
        raise ValueError(f"need at least {n_cl * (n_p + 1)} points for n_cl={n_cl}")
    lay = VariableLayout(n, n_p, n_cl)
    x, y = train.inputs, train.outputs
    big_m = float(np.max(np.abs(y) + cfg.param_bound * (np.abs(x).sum(axis=1) + 1.0)))
    i = np.arange(n)[:, None]  # points down, classes across
    j = np.arange(1, n_cl + 1)
    z = lay.z(i, j)  # the column of z_ij
    # (a) unique labeling, sum_j z_ij = 1, and (c) minimum class size
    unique, sizes = np.zeros((n, lay.n_vars)), np.zeros((n_cl, lay.n_vars))
    unique[i, z] = sizes[j - 1, z] = 1.0
    # (b) epigraph rows with big-M deactivation, for each (i, j) the plus row
    # then the minus row: t_i - M z_ij +- (x_i p_j + b_p,j) >= +-y_i - M
    params = np.column_stack([lay.p(j[:, None], np.arange(n_p)), lay.b_p(j)])
    model = np.zeros((n, n_cl, lay.n_vars))
    model[:, j[:, None] - 1, params] = np.column_stack([x, np.ones(n)])[:, None, :]
    base = np.zeros((n, n_cl, lay.n_vars))
    base[i, :, lay.t(i)] = 1.0
    base[i, j - 1, z] = -big_m
    epigraph = np.stack([base + model, base - model], axis=2).reshape(-1, lay.n_vars)
    epigraph_lo = np.repeat(np.column_stack([y - big_m, -y - big_m]), n_cl, axis=0).ravel()
    a = np.vstack([unique, epigraph, sizes])
    row_lo = np.concatenate([np.ones(n), epigraph_lo, np.full(n_cl, n_p + 1.0)])
    row_hi = np.concatenate([np.ones(n), np.full(a.shape[0] - n, np.inf)])
    objective = np.zeros(lay.n_vars)
    objective[lay.t(i)] = 1.0
    lo = np.full(lay.n_vars, -cfg.param_bound)
    hi = np.full(lay.n_vars, cfg.param_bound)
    lo[lay.t(i)], hi[lay.t(i)] = 0.0, big_m
    lo[z], hi[z] = 0.0, 1.0
    hi[z[j - 1 > i]] = 0.0  # point i is in one of classes 1..i+1
    return MixedIntegerProgram(LinearProgram(objective, a, row_lo, row_hi, lo, hi), lay.binaries)


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
    sol = solve_lp(replace(program.base, lower=lo, upper=hi))
    if sol.status != Status.OPTIMAL:
        return None, None
    return sol.objective_value, sol.values


def design_mis_con_lab(train: Dataset, cfg: DesignConfig,
                       labels: LabelingMatrix | None = None) -> DesignReport:
    """Optimal-labeling design: MILP for Z, then the MIS-con refit.

    `labels`, the k-means labeling of `train` under `cfg` (computed here
    when not given), and its improvement seed the MILP as its incumbent
    hint.  `hint_l1_objective` is the objective of the hint the MILP took,
    None when it took none.
    """
    _check_labels(labels, train, cfg)
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
    refit = design_mis_con(train, milp_labels)
    watch.lap("refit")
    sensor = replace(refit.sensor, metadata={"method": "mis-con-lab"})
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
    rows, zeros = np.column_stack([inputs, np.ones(n)]).T, np.zeros(d + 1)  # [X 1]'u = 0
    prob = LinearProgram(-np.asarray(outputs, dtype=float), rows, zeros, zeros,
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
    assign = assign.copy()
    for _ in range(DESCENT_ROUNDS):
        models = _class_models(train, assign, n_cl, memo)
        resid = np.abs(np.stack(
            [train.inputs @ m.p + m.b_p - train.outputs for m in models], axis=1))
        new_assign = resid.argmin(axis=1) + 1
        filled = _fill_classes(resid, new_assign, train.n_p + 1)
        if not filled or np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return assign


def _fill_classes(resid: np.ndarray, assign: np.ndarray, min_size: int) -> bool:
    """Fill each class of `assign` (resid is points x classes) below min_size,
    in place, never draining a donor: one pass over the points by what the
    switch costs them, as a move changes only the moved point's cost and puts
    it in the class.  False at once when a class cannot be filled."""
    sizes = np.bincount(assign, minlength=resid.shape[1] + 1)
    for j in 1 + np.flatnonzero(sizes[1:] < min_size):
        penalty = resid[:, j - 1] - resid[np.arange(assign.size), assign - 1]
        for i in np.argsort(penalty, kind="stable"):
            if assign[i] != j and sizes[assign[i]] > min_size:
                sizes[assign[i]] -= 1
                sizes[j] += 1
                assign[i] = j
                if sizes[j] == min_size:
                    break
        else:
            return False
    return True


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
    Returns None, drawing no start, when the instance is too small to keep
    every class identifiable (one point cannot be perturbed, and an empty
    class has no centroid).  Only a hint source: the MILP owns optimality.
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
