"""Command-line front end: generate / train / evaluate / compare / montecarlo.

Configuration comes from an optional JSON manifest plus flag overrides
(flags win).  Every command echoes the fully resolved manifest into the
output directory so an experiment can be reproduced from its artifacts;
a manifest key that the echo does not hold is a validation error.

Exit codes: 0 success, 2 validation error, 3 solver limit or no incumbent,
4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import core
from .design import DesignConfig, NoIncumbentError
from .lp import SimplexStalledError
from .milp import MilpLimits
from .study import (
    METHODS,
    ScenarioConfig,
    export_surface,
    generate_scenario,
    run_comparison,
    run_method,
    run_montecarlo,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_IO = 4

MANIFEST_SCHEMA = 1


class ConfigError(ValueError):
    """Invalid manifest or flag value; message names the offending field."""


@dataclass
class RunConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    design: DesignConfig = field(default_factory=DesignConfig)
    output_dir: str = "out"
    timing: str = "wall"            # "wall" | "fixed" (fixed writes 0.0 seconds)
    verbosity: int = 0
    jobs: int = 1
    runs: int = 10
    methods: tuple[str, ...] = METHODS

    def to_manifest(self) -> dict:
        return {
            "schema": MANIFEST_SCHEMA,
            "scenario": {
                "kind": self.scenario.kind,
                "n_total": self.scenario.n_total,
                "noise_sigma": self.scenario.noise_sigma,
                "train_fraction": self.scenario.train_fraction,
                "p_range": list(self.scenario.p_range),
                "t_range": list(self.scenario.t_range),
                "seed": self.scenario.seed,
            },
            "design": {
                "n_cl": self.design.n_cl,
                "gamma": self.design.gamma,
                "big_m": self.design.big_m,
                "param_bound": self.design.param_bound,
                "milp": {
                    "time_limit_s": self.design.milp_limits.time_limit_s,
                    "gap_target": self.design.milp_limits.gap_target,
                    "node_cap": self.design.milp_limits.node_cap,
                },
                "seed": self.design.seed,
                "milp_log_interval": self.design.milp_log_interval,
            },
            "output_dir": self.output_dir,
            "timing": self.timing,
            "verbosity": self.verbosity,
            "jobs": self.jobs,
            "runs": self.runs,
            "methods": list(self.methods),
        }


def _set(obj_kwargs: dict, doc: dict, key: str, path: str, caster):
    if key in doc and doc[key] is not None:
        try:
            obj_kwargs[key] = caster(doc[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}.{key}: {exc}") from None


def _reject_unknown(doc: dict, known: dict, path: str = "") -> None:
    """Raise ConfigError naming the dotted path of the first key of `doc`
    that `known` lacks, or of a section of `known` that `doc` gives as
    something other than an object or null."""
    for key, value in doc.items():
        where = f"{path}.{key}" if path else key
        if key not in known:
            raise ConfigError(f"{where}: unknown key; valid: {', '.join(sorted(known))}")
        if isinstance(known[key], dict) and value is not None:
            if not isinstance(value, dict):
                raise ConfigError(f"{where}: expected a JSON object")
            _reject_unknown(value, known[key], where)


def _config_from_doc(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("manifest root must be a JSON object")
    schema = doc.get("schema", MANIFEST_SCHEMA)
    if schema != MANIFEST_SCHEMA:
        raise ConfigError(f"schema: expected {MANIFEST_SCHEMA}, found {schema}")
    _reject_unknown(doc, RunConfig().to_manifest())
    sc = doc.get("scenario", {}) or {}
    sk = {}
    _set(sk, sc, "kind", "scenario", str)
    _set(sk, sc, "n_total", "scenario", int)
    _set(sk, sc, "noise_sigma", "scenario", float)
    _set(sk, sc, "train_fraction", "scenario", float)
    _set(sk, sc, "p_range", "scenario", lambda v: (float(v[0]), float(v[1])))
    _set(sk, sc, "t_range", "scenario", lambda v: (float(v[0]), float(v[1])))
    _set(sk, sc, "seed", "scenario", int)
    de = doc.get("design", {}) or {}
    dk = {}
    _set(dk, de, "n_cl", "design", int)
    _set(dk, de, "gamma", "design", float)
    _set(dk, de, "big_m", "design", float)
    _set(dk, de, "param_bound", "design", float)
    _set(dk, de, "seed", "design", int)
    _set(dk, de, "milp_log_interval", "design", int)
    milp = de.get("milp", {}) or {}
    mk = {}
    _set(mk, milp, "time_limit_s", "design.milp",
         lambda v: None if v is None else float(v))
    _set(mk, milp, "gap_target", "design.milp", float)
    _set(mk, milp, "node_cap", "design.milp", int)
    rk = {}
    _set(rk, doc, "output_dir", "manifest", str)
    _set(rk, doc, "timing", "manifest", str)
    _set(rk, doc, "verbosity", "manifest", int)
    _set(rk, doc, "jobs", "manifest", int)
    _set(rk, doc, "runs", "manifest", int)
    _set(rk, doc, "methods", "manifest", lambda v: tuple(str(m) for m in v))
    try:
        scenario = ScenarioConfig(**sk)
        design = DesignConfig(milp_limits=MilpLimits(**mk), **dk)
        cfg = RunConfig(scenario=scenario, design=design, **rk)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    return cfg


_FLAG_MAP_SCENARIO = {
    "kind": "kind", "n_total": "n_total", "noise_sigma": "noise_sigma",
    "train_fraction": "train_fraction", "seed": "seed",
}
_FLAG_MAP_DESIGN = {
    "n_cl": "n_cl", "gamma": "gamma", "big_m": "big_m",
    "param_bound": "param_bound", "seed": "seed",
    "milp_log_every": "milp_log_interval",
}
_FLAG_MAP_LIMITS = {
    "time_limit": "time_limit_s", "gap": "gap_target", "node_cap": "node_cap",
}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Manifest file (when given) overlaid with any explicitly passed flags."""
    doc = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    cfg = _config_from_doc(doc)
    sc_over = {}
    for flag, fieldname in _FLAG_MAP_SCENARIO.items():
        v = getattr(args, flag, None)
        if v is not None:
            sc_over[fieldname] = v
    de_over = {}
    for flag, fieldname in _FLAG_MAP_DESIGN.items():
        v = getattr(args, flag, None)
        if v is not None:
            de_over[fieldname] = v
    lim_over = {}
    for flag, fieldname in _FLAG_MAP_LIMITS.items():
        v = getattr(args, flag, None)
        if v is not None:
            lim_over[fieldname] = v
    try:
        scenario = replace(cfg.scenario, **sc_over) if sc_over else cfg.scenario
        limits = replace(cfg.design.milp_limits, **lim_over) if lim_over \
            else cfg.design.milp_limits
        design = replace(cfg.design, milp_limits=limits, **de_over)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    top = {}
    for flag in ("output_dir", "timing", "verbosity", "jobs", "runs"):
        v = getattr(args, flag, None)
        if v is not None:
            top[flag] = v
    methods = getattr(args, "methods", None)
    if methods is not None:
        top["methods"] = tuple(m.strip() for m in methods.split(",") if m.strip())
    cfg = replace(cfg, scenario=scenario, design=design, **top)
    if cfg.timing not in ("wall", "fixed"):
        raise ConfigError(f"timing: expected 'wall' or 'fixed', found {cfg.timing!r}")
    for m in cfg.methods:
        if m not in METHODS:
            raise ConfigError(
                f"methods: unknown method {m!r}; valid: {', '.join(METHODS)}")
    cfg.scenario.validate()
    return cfg


def _prepare_out(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "manifest.json", "w") as fh:
        json.dump(cfg.to_manifest(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_generate(args) -> int:
    cfg = resolve_config(args)
    out = _prepare_out(cfg)
    train, test, scaler = generate_scenario(cfg.scenario)
    core.save_dataset(train, out / "train.csv")
    core.save_dataset(test, out / "test.csv")
    _write_json(out / "scaler.json", {"schema": 1, **scaler.to_dict()})
    print(f"wrote {train.n} training and {test.n} testing rows to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    out = _prepare_out(cfg)
    method = args.method
    if method not in METHODS:
        print(f"error: unknown method {method!r}; valid: {', '.join(METHODS)}",
              file=sys.stderr)
        return EXIT_VALIDATION
    data_path = Path(args.data) if args.data else out / "train.csv"
    train, _ = core.load_dataset(data_path)
    scaler = None
    scaler_path = Path(args.scaler) if args.scaler else out / "scaler.json"
    if scaler_path.exists():
        doc = json.loads(scaler_path.read_text())
        scaler = core.Scaler.from_dict(doc)
    report = run_method(method, train, cfg.design, scaler)
    core.save_sensor(report.sensor, out / "sensor.json")
    doc = report.to_dict(timing=cfg.timing)
    doc["method"] = method
    _write_json(out / "report.json", doc)
    print(f"trained {method}: train RMSE {report.train_rmse:.6g}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = resolve_config(args)
    out = _prepare_out(cfg)
    sensor = core.load_sensor(args.sensor)
    data, _ = core.load_dataset(args.data)
    preds = core.predict_batch(data.inputs, sensor)
    value = core.rmse(data.outputs, preds)
    _write_json(out / "metrics.json", {
        "schema": 1, "rmse": value, "n": data.n,
        "method": sensor.metadata.get("method"),
    })
    print(f"rmse {value:.6g} over {data.n} rows")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = resolve_config(args)
    out = _prepare_out(cfg)
    report = run_comparison(cfg.scenario, list(cfg.methods), cfg.design,
                            timing=cfg.timing)
    report.write_csv(out / "comparison.csv")
    report.write_json(out / "comparison.json")
    export_surface(report.sensors, out / "surface.csv")
    failed = [r.method for r in report.rows if r.status != "ok"]
    for row in report.rows:
        tr = "-" if row.train_rmse is None else f"{row.train_rmse:.6g}"
        te = "-" if row.test_rmse is None else f"{row.test_rmse:.6g}"
        print(f"{row.method:12s} train {tr:>10s}  test {te:>10s}  [{row.status}]")
    if failed:
        print(f"methods failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    cfg = resolve_config(args)
    out = _prepare_out(cfg)
    jobs = cfg.jobs if cfg.jobs > 0 else (os.cpu_count() or 1)
    report = run_montecarlo(cfg.scenario, cfg.runs, list(cfg.methods), cfg.design,
                            jobs=jobs, timing=cfg.timing)
    report.write_csv(out / "montecarlo.csv")
    report.write_boxplot_csv(out / "boxplot.csv")
    for row in report.boxplot:
        print(f"{row.method:12s} {row.split:5s} median {row.median:.6g} "
              f"IQR [{row.q1:.6g}, {row.q3:.6g}] ({row.n_runs} runs)")
    if report.failures:
        print(f"{len(report.failures)} method-runs failed", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="misens",
        description="Design piecewise-affine multi-model inferential sensors "
                    "and reproduce the pressure-compensated-temperature study.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON manifest; flags override its fields")
        p.add_argument("--out-dir", dest="output_dir", help="output directory")
        p.add_argument("--timing", choices=["wall", "fixed"],
                       help="wall-clock or fixed (0.0) timing fields in outputs")
        p.add_argument("-v", "--verbose", dest="verbosity", action="count",
                       default=None, help="increase log verbosity")
        p.add_argument("--seed", type=int, help="scenario and design seed")

    def scenario_flags(p):
        p.add_argument("--kind", choices=["clustered", "uniform"])
        p.add_argument("--n-total", dest="n_total", type=int)
        p.add_argument("--noise-sigma", dest="noise_sigma", type=float)
        p.add_argument("--train-fraction", dest="train_fraction", type=float)

    def design_flags(p):
        p.add_argument("--n-cl", dest="n_cl", type=int)
        p.add_argument("--gamma", type=float)
        p.add_argument("--big-m", dest="big_m", type=float)
        p.add_argument("--param-bound", dest="param_bound", type=float)
        p.add_argument("--time-limit", dest="time_limit", type=float,
                       help="MILP time limit in seconds")
        p.add_argument("--gap", type=float, help="MILP relative gap target")
        p.add_argument("--node-cap", dest="node_cap", type=int)
        p.add_argument("--milp-log-every", dest="milp_log_every", type=int)

    p = sub.add_parser("generate", help="sample a scenario into train/test CSVs")
    common(p)
    scenario_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one sensor design method")
    common(p)
    design_flags(p)
    p.add_argument("--method", required=True, help=f"one of: {', '.join(METHODS)}")
    p.add_argument("--data", help="training CSV (default: <out-dir>/train.csv)")
    p.add_argument("--scaler", help="scaler JSON (default: <out-dir>/scaler.json)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a sensor JSON on a dataset CSV")
    common(p)
    p.add_argument("--sensor", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="train several methods on one scenario")
    common(p)
    scenario_flags(p)
    design_flags(p)
    p.add_argument("--methods", help="comma-separated method list")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("montecarlo", help="repeat compare over many seeds")
    common(p)
    scenario_flags(p)
    design_flags(p)
    p.add_argument("--methods", help="comma-separated method list")
    p.add_argument("--runs", type=int)
    p.add_argument("--jobs", type=int, help="worker processes (0 = all cores)")
    p.set_defaults(func=cmd_montecarlo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING
    if args.verbosity:
        level = logging.INFO if args.verbosity == 1 else logging.DEBUG
    logging.basicConfig(level=level, format="%(name)s: %(message)s")
    try:
        return args.func(args)
    except (ConfigError, core.SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NoIncumbentError, SimplexStalledError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"i/o error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
