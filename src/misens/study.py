"""Pressure-compensated-temperature (PCT) case-study harness.

Ground truth combines the Antoine and Clausius-Clapeyron relations:
1/PCT = (R/H_v) * ln(P/P_ref) + 1/T.  Scenario generation samples (P, T)
either in three linearly separable clusters or uniformly over the operating
box, computes PCT, min-max normalizes everything to [0, 1], splits 50/50
and corrupts the training outputs (only) with seeded Gaussian noise.

RNG streams are split by name from the scenario seed:
``default_rng([seed, k])`` with k = 0 for sampling, 1 for the split and
2 for the noise, so every artifact is bit-reproducible from the seed.
"""

from __future__ import annotations

import csv
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .classify import kmeans
from .core import (
    Dataset,
    LabelingMatrix,
    Scaler,
    SensorModel,
    assign_regions,
    normalize,
    predict_batch,
    rmse,
    write_json,
)
from .design import (
    DesignConfig,
    DesignReport,
    design_mis_con,
    design_mis_con_lab,
    design_mis_std,
    design_sis,
)

METHODS = ("sis", "mis-std", "mis-con", "mis-con-lab")

P_RANGE = (2000.0, 20000.0)
T_RANGE = (523.15, 573.15)


# the ground truth's constants
R = 8.314            # J/mol/K
H_V = 55940.550      # J/mol
P_REF = 145325.0     # Pa

# Three separable clusters along the anti-diagonal of the operating box:
# centres as fractions of the (P, T) ranges, spreads 8 % of each range.
# Placing the low-pressure cluster at high temperature (and vice versa)
# spans the full PCT range and puts one cluster in the most curved part of
# the surface.
CLUSTER_CENTRES = ((0.12, 0.88), (0.50, 0.50), (0.88, 0.12))
CLUSTER_SPREAD = 0.08


def pct(p: float, t: float) -> float:
    """PCT in kelvin for absolute pressure p [Pa] and temperature t [K]."""
    if p <= 0 or t <= 0:
        raise ValueError("pressure and temperature must be positive")
    denom = (R / H_V) * np.log(p / P_REF) + 1.0 / t
    if denom <= 0:
        raise ValueError(f"PCT undefined at P={p}, T={t}: nonpositive denominator")
    return float(1.0 / denom)


@dataclass
class ScenarioConfig:
    kind: str = "clustered"            # "clustered" | "uniform"
    n_total: int = 90
    noise_sigma: float = 0.005         # std of Gaussian noise on normalized PCT
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("clustered", "uniform"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.n_total < 2:
            raise ValueError("n_total must be at least 2")
        if not 0.0 <= self.noise_sigma < np.inf:
            raise ValueError(f"noise_sigma must be nonnegative and finite, "
                             f"found {self.noise_sigma}")


def generate_scenario(cfg: ScenarioConfig) -> tuple[Dataset, Dataset, Scaler]:
    """Sample a scenario; returns (train, test, scaler) in normalized units.

    Test outputs stay noise-free ground truth; training outputs carry the
    additive noise, so they can leave [0, 1].
    """
    rng_sample = np.random.default_rng([cfg.seed, 0])
    rng_split = np.random.default_rng([cfg.seed, 1])
    rng_noise = np.random.default_rng([cfg.seed, 2])
    if cfg.kind == "uniform":
        p = rng_sample.uniform(P_RANGE[0], P_RANGE[1], size=cfg.n_total)
        t = rng_sample.uniform(T_RANGE[0], T_RANGE[1], size=cfg.n_total)
    else:
        (p0, p1), (t0, t1) = P_RANGE, T_RANGE
        pw, tw = p1 - p0, t1 - t0
        sp, st = CLUSTER_SPREAD * pw, CLUSTER_SPREAD * tw
        k = len(CLUSTER_CENTRES)
        counts = [cfg.n_total // k + (i < cfg.n_total % k) for i in range(k)]
        p_parts, t_parts = [], []
        for (fp, ft), m in zip(CLUSTER_CENTRES, counts):
            cp, ct = p0 + fp * pw, t0 + ft * tw
            p_parts.append(rng_sample.uniform(cp - sp, cp + sp, size=m))
            t_parts.append(rng_sample.uniform(ct - st, ct + st, size=m))
        p = np.concatenate(p_parts)
        t = np.concatenate(t_parts)
    y = np.array([pct(pi, ti) for pi, ti in zip(p, t)])
    raw = Dataset(np.column_stack([p, t]), y)
    norm, scaler = normalize(raw)
    n_train = round(cfg.n_total / 2)  # 1 .. n_total - 1, as n_total >= 2
    perm = rng_split.permutation(cfg.n_total)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    noise = rng_noise.normal(0.0, 1.0, size=n_train) * cfg.noise_sigma
    train = Dataset(norm.inputs[train_idx], norm.outputs[train_idx] + noise)
    test = Dataset(norm.inputs[test_idx], norm.outputs[test_idx])
    return train, test, scaler


# ---------------------------------------------------------------------------
# method dispatch and comparison tables

def run_method(method: str, train: Dataset, cfg: DesignConfig,
               labels: LabelingMatrix | None = None) -> DesignReport:
    """Train one method.  `labels` is the k-means labeling of `train` under
    `cfg` that every method but SIS starts from; it is computed (once) when
    not given."""
    if method == "sis":
        return design_sis(train)
    if method == "mis-std":
        return design_mis_std(train, cfg, labels)
    if method == "mis-con":
        if labels is None:
            labels = kmeans(train.inputs, cfg.n_cl, seed=cfg.seed).labels
        return design_mis_con(train, labels)
    if method == "mis-con-lab":
        return design_mis_con_lab(train, cfg, labels)
    raise ValueError(f"unknown method {method!r}; valid: {', '.join(METHODS)}")


@dataclass
class MethodRow:
    method: str
    status: str = "ok"
    train_rmse: float | None = None
    test_rmse: float | None = None
    t_comp_s: float | None = None
    milp_gap: float | None = None
    milp_nodes: int | None = None


COMPARISON_COLUMNS = tuple(f.name for f in fields(MethodRow))


@dataclass
class ComparisonReport:
    rows: list[MethodRow]
    sensors: dict[str, SensorModel]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(COMPARISON_COLUMNS)
            for row in self.rows:
                wr.writerow([_cell(v) for v in asdict(row).values()])

    def write_json(self, path) -> None:
        write_json(path, {"schema": 1, "rows": [asdict(r) for r in self.rows]})


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def check_methods(methods) -> None:
    """Refuse an empty method list, an unknown method or a repeated one."""
    if not methods:
        raise ValueError(f"methods: expected at least one of {', '.join(METHODS)}")
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise ValueError(f"methods: unknown method {m!r}; valid: {', '.join(METHODS)}")
        if m in methods[:i]:
            raise ValueError(f"methods: {m!r} is listed twice")


def run_comparison(scenario: ScenarioConfig, methods: list[str],
                   cfg: DesignConfig, timing: str = "wall") -> ComparisonReport:
    """Train every method on one scenario draw and tabulate both splits.

    The k-means labeling is computed once and shared by the methods that
    start from it; its time counts in each of their `t_comp_s`.  The
    sensors, without a scaler, predict in normalized units.  A method
    failure is recorded in its row; the remaining methods still run.  With
    timing="fixed" the wall-clock column is written as 0.0 so repeated runs
    are byte-identical.
    """
    check_methods(methods)
    train, test, _ = generate_scenario(scenario)
    labels, labels_s = None, 0.0
    if set(methods) - {"sis"}:
        t0 = time.perf_counter()
        try:
            labels = kmeans(train.inputs, cfg.n_cl, seed=cfg.seed).labels
        except ValueError:
            pass  # run_method raises it again, into each labeled method's row
        labels_s = time.perf_counter() - t0
    rows = []
    sensors = {}
    for method in methods:
        t0 = time.perf_counter()
        try:
            report = run_method(method, train, cfg, labels)
        except Exception as exc:  # failure stays in the table
            rows.append(MethodRow(method, status=f"error: {exc}"))
            continue
        elapsed = time.perf_counter() - t0 + (labels_s if method != "sis" else 0.0)
        sensors[method] = report.sensor
        stats = report.solver_stats
        milp = stats.get("milp", {})
        rows.append(MethodRow(
            method,
            train_rmse=report.train_rmse,
            test_rmse=rmse(test.outputs, predict_batch(test.inputs, report.sensor)),
            t_comp_s=0.0 if timing == "fixed" else elapsed,
            milp_gap=milp.get("gap"),
            milp_nodes=milp.get("nodes_explored"),
        ))
    return ComparisonReport(rows, sensors)


def export_surface(sensors: dict[str, SensorModel], path) -> None:
    """Prediction surface on a 41 x 41 grid of the normalized unit square
    (two-input sensors)."""
    grid = np.linspace(0.0, 1.0, 41)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["method", "x1", "x2", "region", "prediction"])
        for method in sorted(sensors):
            sensor = sensors[method]
            if sensor.n_p != 2:
                continue
            xs = np.array([[a, b] for a in grid for b in grid])
            preds = predict_batch(xs, sensor)
            if sensor.switching is None:
                regions = np.ones(len(xs), dtype=int)
            else:
                regions = assign_regions(xs, sensor.switching)
            for (a, b), r, v in zip(xs, regions, preds):
                wr.writerow([method, repr(float(a)), repr(float(b)), int(r), repr(float(v))])


# ---------------------------------------------------------------------------
# Monte Carlo

@dataclass
class BoxplotRow:
    method: str
    split: str
    q1: float
    median: float
    q3: float
    outliers: tuple[float, ...]
    n_runs: int


@dataclass
class MonteCarloReport:
    rows: list[tuple[int, MethodRow]]   # (run, comparison row), in run order
    boxplot: list[BoxplotRow]

    @property
    def failures(self) -> list[tuple[int, str, str]]:
        """(run, method, message) of each failed method-run."""
        return [(run, r.method, r.status) for run, r in self.rows if r.status != "ok"]

    def write_csv(self, path) -> None:
        """One line per ok row and split: its train line, then its test line."""
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["run", "method", "split", "rmse", "t_comp_s"])
            for run, r in self.rows:
                if r.status == "ok":
                    wr.writerow([run, r.method, "train", repr(r.train_rmse), repr(r.t_comp_s)])
                    wr.writerow([run, r.method, "test", repr(r.test_rmse), repr(r.t_comp_s)])

    def write_boxplot_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["method", "split", "q1", "median", "q3", "n_outliers",
                         "outliers", "n_runs"])
            for b in self.boxplot:
                wr.writerow([b.method, b.split, repr(b.q1), repr(b.median), repr(b.q3),
                             len(b.outliers), ";".join(repr(v) for v in b.outliers),
                             b.n_runs])


def _montecarlo_one(args) -> list[tuple[int, MethodRow]]:
    scenario, cfg, methods, run, timing = args
    per_run = replace(scenario, seed=scenario.seed + run)
    return [(run, row) for row in run_comparison(per_run, methods, cfg, timing=timing).rows]


def run_montecarlo(scenario: ScenarioConfig, runs: int, methods: list[str],
                   cfg: DesignConfig, jobs: int = 1,
                   timing: str = "wall") -> MonteCarloReport:
    """Repeat run_comparison over seeds scenario.seed + 0..runs-1.

    Runs are independent (each owns its RNG streams).  `map`, serial or
    over the worker pool, returns them in run order, so worker scheduling
    cannot change the output and nothing is sorted.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    check_methods(methods)
    tasks = [(scenario, cfg, methods, run, timing) for run in range(runs)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~20 ms to import

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_montecarlo_one, tasks))
    else:
        outcomes = map(_montecarlo_one, tasks)
    rows = [pair for pairs in outcomes for pair in pairs]
    boxplot = []
    for method in methods:
        for split in ("train", "test"):
            vals = np.array([getattr(r, f"{split}_rmse") for _, r in rows
                             if r.method == method and r.status == "ok"])
            if vals.size == 0:
                continue
            q1, med, q3 = np.percentile(vals, [25.0, 50.0, 75.0])
            iqr = q3 - q1
            lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
            outliers = tuple(sorted(float(v) for v in vals if v < lo or v > hi))
            boxplot.append(BoxplotRow(method, split, float(q1), float(med), float(q3),
                                      outliers, int(vals.size)))
    return MonteCarloReport(rows, boxplot)
