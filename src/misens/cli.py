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
    check_methods,
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
SCALER_SCHEMA = 1


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

    def __post_init__(self):
        if self.timing not in ("wall", "fixed"):
            raise ValueError(f"timing: expected 'wall' or 'fixed', found {self.timing!r}")
        if self.verbosity < 0:
            raise ValueError(f"verbosity: expected 0 or more, found {self.verbosity}")
        if self.jobs < 0:
            raise ValueError(f"jobs: expected 0 (all cores) or a positive count, "
                             f"found {self.jobs}")
        if self.runs < 1:
            raise ValueError(f"runs: expected at least 1, found {self.runs}")
        check_methods(self.methods)

    def to_manifest(self) -> dict:
        doc = {"schema": MANIFEST_SCHEMA}
        for path, _, _ in FIELDS:
            *sections, key = path.split(".")
            obj, node = self, doc
            for section in sections:
                obj = getattr(obj, "milp_limits" if section == "milp" else section)
                node = node.setdefault(section, {})
            value = getattr(obj, key)
            node[key] = list(value) if isinstance(value, tuple) else value
        return doc


# The manifest casts take only the JSON type that the echo writes, so a
# wrong type is refused instead of converted (JSON true is not an integer).

def _int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, found {json.dumps(value)}")
    return value


def _float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, found {json.dumps(value)}")
    return float(value)


def _str(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, found {json.dumps(value)}")
    return value


def _strings(value) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"expected a list of strings, found {json.dumps(value)}")
    return tuple(value)


# One entry per configuration field: its dotted manifest path, the argparse
# dest of the flag that overrides it and the cast of its manifest value.
# `--seed` sets both seeds.
FIELDS: tuple[tuple[str, str, object], ...] = (
    ("scenario.kind", "kind", _str),
    ("scenario.n_total", "n_total", _int),
    ("scenario.noise_sigma", "noise_sigma", _float),
    ("scenario.seed", "seed", _int),
    ("design.n_cl", "n_cl", _int),
    ("design.gamma", "gamma", _float),
    ("design.param_bound", "param_bound", _float),
    ("design.milp.time_limit_s", "time_limit", _float),
    ("design.milp.gap_target", "gap", _float),
    ("design.milp.node_cap", "node_cap", _int),
    ("design.seed", "seed", _int),
    ("output_dir", "output_dir", _str),
    ("timing", "timing", _str),
    ("verbosity", "verbosity", _int),
    ("jobs", "jobs", _int),
    ("runs", "runs", _int),
    ("methods", "methods", _strings),
)


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


def _build(values: dict) -> RunConfig:
    """RunConfig from {dotted path: value}, defaults elsewhere; ConfigError
    when a value is out of range."""
    kwargs = {"scenario": {}, "design": {}, "design.milp": {}, "": {}}
    for path, value in values.items():
        section, _, key = path.rpartition(".")
        kwargs[section][key] = value
    try:
        design = DesignConfig(milp_limits=MilpLimits(**kwargs["design.milp"]),
                              **kwargs["design"])
        return RunConfig(scenario=ScenarioConfig(**kwargs["scenario"]), design=design,
                         **kwargs[""])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Manifest file (when given) overlaid with any explicitly passed flags.
    The manifest's values are checked on their own, then with the flags."""
    doc = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("manifest root must be a JSON object")
    schema = doc.get("schema", MANIFEST_SCHEMA)
    if schema != MANIFEST_SCHEMA:
        raise ConfigError(f"schema: expected {MANIFEST_SCHEMA}, found {schema}")
    _reject_unknown(doc, RunConfig().to_manifest())
    values = {}
    for path, _, cast in FIELDS:
        *sections, key = path.split(".")
        node = doc
        for section in sections:
            node = node.get(section) or {}
        if node.get(key) is not None:
            try:
                values[path] = cast(node[key])
            except TypeError as exc:
                raise ConfigError(f"{path}: {exc}") from None
    _build(values)
    flags = {path: getattr(args, dest) for path, dest, _ in FIELDS
             if getattr(args, dest, None) is not None}
    if "methods" in flags:
        flags["methods"] = tuple(m.strip() for m in flags["methods"].split(",") if m.strip())
    return _build({**values, **flags})


def _prepare_out(cfg: RunConfig) -> Path:
    """The output directory, made, with the resolved manifest echoed into it.
    Each command calls it once its inputs have been read, so that an input
    error leaves no manifest behind."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    core.write_json(out / "manifest.json", cfg.to_manifest())
    return out


def cmd_generate(args, cfg: RunConfig) -> int:
    out = _prepare_out(cfg)
    train, test, scaler = generate_scenario(cfg.scenario)
    core.save_dataset(train, out / "train.csv")
    core.save_dataset(test, out / "test.csv")
    core.write_json(out / "scaler.json", {"schema": SCALER_SCHEMA, **scaler.to_dict()})
    print(f"wrote {train.n} training and {test.n} testing rows to {out}")
    return EXIT_OK


def _load_scaler(path: Path) -> core.Scaler:
    """A scaler document that `generate` writes; SchemaError unless its
    schema is SCALER_SCHEMA."""
    doc = json.loads(path.read_text())
    found = doc.get("schema") if isinstance(doc, dict) else None
    if found != SCALER_SCHEMA:
        raise core.SchemaError(f"{path}: scaler document schema mismatch: "
                               f"expected {SCALER_SCHEMA}, found {found}")
    return core.Scaler.from_dict(doc)


def cmd_train(args, cfg: RunConfig) -> int:
    method = args.method
    out = Path(cfg.output_dir)
    data_path = Path(args.data) if args.data else out / "train.csv"
    train = core.load_dataset(data_path)
    # an explicit --scaler must exist; the default one is optional
    scaler_path = Path(args.scaler) if args.scaler else out / "scaler.json"
    scaler = _load_scaler(scaler_path) if args.scaler or scaler_path.exists() else None
    if scaler is not None and scaler.input_min.shape[0] != train.n_p:
        raise ValueError(f"{scaler_path}: scaler has {scaler.input_min.shape[0]} inputs, "
                         f"the data {train.n_p}")
    _prepare_out(cfg)
    report = run_method(method, train, cfg.design)
    report.sensor = replace(report.sensor, scaler=scaler)
    core.save_sensor(report.sensor, out / "sensor.json")
    doc = report.to_dict(timing=cfg.timing)
    doc["method"] = method
    core.write_json(out / "report.json", doc)
    print(f"trained {method}: train RMSE {report.train_rmse:.6g}")
    return EXIT_OK


def cmd_evaluate(args, cfg: RunConfig) -> int:
    sensor = core.load_sensor(args.sensor)
    data = core.load_dataset(args.data)
    if data.n_p != sensor.n_p:
        raise ValueError(f"{args.data}: the data has {data.n_p} inputs, the sensor {sensor.n_p}")
    out = _prepare_out(cfg)
    preds = core.predict_batch(data.inputs, sensor)
    value = core.rmse(data.outputs, preds)
    core.write_json(out / "metrics.json", {
        "schema": 1, "rmse": value, "n": data.n,
        "method": sensor.metadata.get("method"),
    })
    print(f"rmse {value:.6g} over {data.n} rows")
    return EXIT_OK


def cmd_compare(args, cfg: RunConfig) -> int:
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


def cmd_montecarlo(args, cfg: RunConfig) -> int:
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

    def design_flags(p):
        p.add_argument("--n-cl", dest="n_cl", type=int)
        p.add_argument("--gamma", type=float)
        p.add_argument("--param-bound", dest="param_bound", type=float)
        p.add_argument("--time-limit", dest="time_limit", type=float,
                       help="MILP time limit in seconds")
        p.add_argument("--gap", type=float, help="MILP relative gap target")
        p.add_argument("--node-cap", dest="node_cap", type=int)

    p = sub.add_parser("generate", help="sample a scenario into train/test CSVs")
    common(p)
    scenario_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one sensor design method")
    common(p)
    design_flags(p)
    p.add_argument("--method", required=True, choices=METHODS)
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
    try:
        cfg = resolve_config(args)
        level = logging.WARNING
        if cfg.verbosity:
            level = logging.INFO if cfg.verbosity == 1 else logging.DEBUG
        logging.basicConfig(level=level, format="%(name)s: %(message)s")
        return args.func(args, cfg)
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
