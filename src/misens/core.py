"""Domain types for multi-model inferential sensors, plus prediction and metrics.

Class indices are 1-based throughout the public surface (class 1..n_cl),
matching the usual presentation of one-vs-one switching logic.  All types
are immutable after construction and safe to share across tasks.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

SENSOR_SCHEMA = 1


class SchemaError(ValueError):
    """Version field of a serialized document does not match."""


# the JSON type a serialized value may take, by the name a message gives it
_KINDS = {"a number": (int, float), "a list": (list,), "a JSON object": (dict,)}


def _field(doc, key: str, what: str, kind: str | None = None):
    """doc[key] of a serialized document; ValueError naming `what` and the
    key when doc is not a JSON object, lacks the key or, given a `kind` of
    _KINDS, holds a value of another JSON type (true is not a number)."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what}: expected a JSON object")
    if key not in doc:
        raise ValueError(f"{what}: missing key {key!r}")
    value = doc[key]
    if kind is not None and (isinstance(value, bool) or not isinstance(value, _KINDS[kind])):
        raise ValueError(f"{what}: key {key!r}: expected {kind}, found {json.dumps(value)}")
    return value


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Dataset:
    """Tabular training/testing data: inputs (n x n_p), outputs (n,)."""

    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        inputs = _freeze(np.atleast_2d(np.asarray(self.inputs, dtype=float)))
        outputs = _freeze(np.asarray(self.outputs, dtype=float))
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        n, n_p = inputs.shape
        if n < 1 or n_p < 1:
            raise ValueError(f"dataset needs n >= 1 and n_p >= 1, got {n}x{n_p}")
        if outputs.shape != (n,):
            raise ValueError("inputs and outputs disagree on the number of rows")
        if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(outputs))):
            raise ValueError("dataset contains non-finite entries")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_p(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class LabelingMatrix:
    """Binary n x n_cl assignment of points to classes; each row sums to 1."""

    entries: np.ndarray

    def __post_init__(self):
        z = np.atleast_2d(np.asarray(self.entries, dtype=int))
        object.__setattr__(self, "entries", _freeze(z))
        if z.shape[0] < 1 or z.shape[1] < 1:
            raise ValueError(f"labeling matrix must be at least 1x1, got {z.shape}")
        if not ((z == 0) | (z == 1)).all():
            raise ValueError("labeling matrix entries must be 0 or 1")
        if not (z.sum(axis=1) == 1).all():
            raise ValueError("every labeling matrix row must sum to exactly 1")

    @classmethod
    def from_assignments(cls, assignments, n_cl: int) -> "LabelingMatrix":
        """Build from a vector of 1-based class indices."""
        a = np.asarray(assignments, dtype=int)
        if a.min() < 1 or a.max() > n_cl:
            raise ValueError(f"class indices must lie in 1..{n_cl}")
        z = np.zeros((a.shape[0], n_cl), dtype=int)
        z[np.arange(a.shape[0]), a - 1] = 1
        return cls(z)

    def assignments(self) -> np.ndarray:
        """1-based class index per row."""
        return self.entries.argmax(axis=1) + 1

    def members(self, class_index: int) -> np.ndarray:
        """Row indices assigned to the given 1-based class."""
        return np.nonzero(self.entries[:, class_index - 1] == 1)[0]

    def class_sizes(self) -> np.ndarray:
        return self.entries.sum(axis=0)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cl(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class Hyperplane:
    """Separating hyperplane w^T x + b_w = 0."""

    w: np.ndarray
    b_w: float

    def __post_init__(self):
        w = _freeze(np.asarray(self.w, dtype=float))
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b_w", float(self.b_w))
        if w.ndim != 1:
            raise ValueError("hyperplane normal must be a vector")
        if not np.all(np.isfinite(w)) or not np.isfinite(self.b_w):
            raise ValueError("hyperplane has non-finite entries")
        if np.sqrt(w @ w) <= 1e-12:
            raise ValueError("hyperplane normal is (numerically) zero")


def expected_pairs(n_cl: int) -> tuple[tuple[int, int], ...]:
    """Lexicographic 2-combinations of {1..n_cl}."""
    return tuple(combinations(range(1, n_cl + 1), 2))


@dataclass(frozen=True)
class SwitchingLogic:
    """One hyperplane per class pair plus the pairwise-vote assignment rule."""

    hyperplanes: tuple[Hyperplane, ...]
    n_cl: int

    def __post_init__(self):
        object.__setattr__(self, "hyperplanes", tuple(self.hyperplanes))
        n_sp = self.n_cl * (self.n_cl - 1) // 2
        if len(self.hyperplanes) != n_sp:
            raise ValueError(f"expected {n_sp} hyperplanes for n_cl={self.n_cl}, got {len(self.hyperplanes)}")
        dims = {h.w.shape[0] for h in self.hyperplanes}
        if len(dims) > 1:
            raise ValueError("hyperplanes disagree on input dimension")

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The class pair (r, s) of each hyperplane, in lexicographic order."""
        return expected_pairs(self.n_cl)

    @property
    def n_sp(self) -> int:
        return len(self.hyperplanes)


@dataclass(frozen=True)
class AffineModel:
    """One local model: prediction p^T x + b_p."""

    p: np.ndarray
    b_p: float

    def __post_init__(self):
        p = _freeze(np.asarray(self.p, dtype=float))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "b_p", float(self.b_p))
        if p.ndim != 1 or not np.all(np.isfinite(p)) or not np.isfinite(self.b_p):
            raise ValueError("affine model parameters must be finite vectors/scalars")


@dataclass(frozen=True)
class Scaler:
    """Per-column min/max record mapping raw units to [0,1] and back."""

    input_min: np.ndarray
    input_max: np.ndarray
    output_min: float
    output_max: float

    def __post_init__(self):
        lo = _freeze(np.asarray(self.input_min, dtype=float))
        hi = _freeze(np.asarray(self.input_max, dtype=float))
        object.__setattr__(self, "input_min", lo)
        object.__setattr__(self, "input_max", hi)
        object.__setattr__(self, "output_min", float(self.output_min))
        object.__setattr__(self, "output_max", float(self.output_max))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("scaler column records are inconsistent")
        if not np.isfinite([*lo, *hi, self.output_min, self.output_max]).all():
            raise ValueError("scaler has non-finite entries")
        bad = np.nonzero(hi <= lo)[0]
        if bad.size:
            raise ValueError(f"degenerate scaler range in input column {int(bad[0])}")
        if self.output_max <= self.output_min:
            raise ValueError("degenerate scaler range in output column")

    def normalize_inputs(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.input_min) / (self.input_max - self.input_min)

    def normalize_output(self, y):
        return (np.asarray(y, dtype=float) - self.output_min) / (self.output_max - self.output_min)

    def denormalize_output(self, y):
        return np.asarray(y, dtype=float) * (self.output_max - self.output_min) + self.output_min

    def to_dict(self) -> dict:
        return {
            "input_min": [float(v) for v in self.input_min],
            "input_max": [float(v) for v in self.input_max],
            "output_min": self.output_min,
            "output_max": self.output_max,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scaler":
        return cls(_field(d, "input_min", "scaler", "a list"),
                   _field(d, "input_max", "scaler", "a list"),
                   _field(d, "output_min", "scaler", "a number"),
                   _field(d, "output_max", "scaler", "a number"))


@dataclass(frozen=True)
class SensorModel:
    """Deployable piecewise-affine sensor: local models + switching logic.

    Predictions via `predict` live in the sensor's native (normalized)
    input/output space; `predict_raw` accepts raw engineering units when a
    scaler is attached.
    """

    models: tuple[AffineModel, ...]
    switching: SwitchingLogic | None = None
    scaler: Scaler | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(self.models))
        if not self.models:
            raise ValueError("sensor needs at least one affine model")
        if self.switching is not None and len(self.models) != self.switching.n_cl:
            raise ValueError("number of models must equal switching.n_cl")
        if self.switching is None and len(self.models) != 1:
            raise ValueError("multi-model sensor requires switching logic")
        n_p = self.n_p
        for k, m in enumerate(self.models[1:], 2):
            if m.p.shape[0] != n_p:
                raise ValueError(f"model {k} has {m.p.shape[0]} inputs, model 1 has {n_p}")
        for h in self.switching.hyperplanes if self.switching is not None else ():
            if h.w.shape[0] != n_p:
                raise ValueError(f"hyperplanes have {h.w.shape[0]} inputs, the models {n_p}")
        if self.scaler is not None and self.scaler.input_min.shape[0] != n_p:
            raise ValueError(f"scaler has {self.scaler.input_min.shape[0]} inputs, "
                             f"the models {n_p}")

    @property
    def n_cl(self) -> int:
        return len(self.models)

    @property
    def n_p(self) -> int:
        return self.models[0].p.shape[0]

    def predict_raw(self, x_raw) -> float:
        if self.scaler is None:
            return predict(np.asarray(x_raw, dtype=float), self)
        x = self.scaler.normalize_inputs(x_raw)
        return float(self.scaler.denormalize_output(predict(x, self)))


def assign_regions(inputs, switching: SwitchingLogic) -> np.ndarray:
    """The 1-based class of each row of `inputs` by pairwise vote: hyperplane
    k with pair (r, s) votes r when w_k^T x + b_w >= 0 and s otherwise; ties
    break to the smallest class index."""
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    votes = np.zeros((x.shape[0], switching.n_cl), dtype=int)
    for h, (r, s) in zip(switching.hyperplanes, switching.pairs):
        side = x @ h.w + h.b_w >= 0.0
        votes[side, r - 1] += 1
        votes[~side, s - 1] += 1
    return votes.argmax(axis=1) + 1


def predict(x, sensor: SensorModel) -> float:
    """Evaluate the piecewise-affine sensor at one point (normalized space)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (sensor.n_p,):
        raise ValueError(f"input has shape {x.shape}, sensor expects ({sensor.n_p},)")
    return float(predict_batch(x[None, :], sensor)[0])


def predict_batch(inputs, sensor: SensorModel) -> np.ndarray:
    """Evaluate the sensor over the rows of `inputs` (normalized space)."""
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    if x.shape[1] != sensor.n_p:
        raise ValueError(f"input has {x.shape[1]} columns, sensor expects {sensor.n_p}")
    if sensor.switching is None:
        m = sensor.models[0]
        return x @ m.p + m.b_p
    regions = assign_regions(x, sensor.switching)
    out = np.empty(x.shape[0])
    for j, m in enumerate(sensor.models, start=1):
        mask = regions == j
        out[mask] = x[mask] @ m.p + m.b_p
    return out


def rmse(y_true, y_pred) -> float:
    """Root-mean-square error."""
    a = np.asarray(y_true, dtype=float)
    b = np.asarray(y_pred, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.shape[0] < 1:
        raise ValueError(f"rmse needs equal-length vectors, got {a.shape} and {b.shape}")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def normalize(raw: Dataset) -> tuple[Dataset, Scaler]:
    """Min-max map every input column and the output onto [0, 1]."""
    xmin = raw.inputs.min(axis=0)
    xmax = raw.inputs.max(axis=0)
    scaler = Scaler(xmin, xmax, raw.outputs.min(), raw.outputs.max())
    ds = Dataset(scaler.normalize_inputs(raw.inputs), scaler.normalize_output(raw.outputs))
    return ds, scaler


# ---------------------------------------------------------------------------
# serialization

def _fmt(v: float) -> str:
    return repr(float(v))


def write_json(path, doc) -> None:
    """The JSON document at path: indented, keys sorted, a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_dataset(ds: Dataset, path) -> None:
    """CSV with a header row; columns: x1..x{n_p}, y."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow([f"x{j + 1}" for j in range(ds.n_p)] + ["y"])
        for i in range(ds.n):
            wr.writerow([_fmt(v) for v in ds.inputs[i]] + [_fmt(ds.outputs[i])])


def load_dataset(path) -> Dataset:
    """Read a dataset CSV with columns x1..x{n_p}, y; a trailing `label`
    column is refused.  A row of the wrong width or a cell that is not a
    number raises ValueError naming the path, the 1-based line and, for a
    cell, its column."""
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        try:
            header = next(rd)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        rows = [(rd.line_num, r) for r in rd if r]
    if header and header[-1].strip().lower() == "label":
        raise ValueError(f"{path}: a label column is not accepted; expected columns x1..xN, y")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(header)
    data = np.empty((len(rows), width))
    for k, (line, row) in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: line {line}: {len(row)} cells, the header has {width}")
        for col, cell in enumerate(row):
            try:
                data[k, col] = float(cell)
            except ValueError:
                raise ValueError(f"{path}: line {line}, column {col + 1} ({header[col]}): "
                                 f"expected a number, found {cell!r}") from None
    if width < 2:
        raise ValueError(f"{path}: expected at least one input column")
    return Dataset(data[:, :-1], data[:, -1])


def sensor_to_dict(sensor: SensorModel) -> dict:
    doc = {
        "schema": SENSOR_SCHEMA,
        "n_cl": sensor.n_cl,
        "n_p": sensor.n_p,
        "models": [{"p": [float(v) for v in m.p], "b_p": m.b_p} for m in sensor.models],
        "hyperplanes": [{"w": [float(v) for v in h.w], "b_w": h.b_w}
                        for h in (sensor.switching.hyperplanes if sensor.switching else ())],
        "pairs": [[r, s] for r, s in (sensor.switching.pairs if sensor.switching else ())],
        "scaler": sensor.scaler.to_dict() if sensor.scaler else None,
        "metadata": sensor.metadata,
    }
    return doc


def sensor_from_dict(doc: dict) -> SensorModel:
    found = _field(doc, "schema", "sensor")
    if found != SENSOR_SCHEMA:
        raise SchemaError(f"sensor document schema mismatch: expected {SENSOR_SCHEMA}, found {found}")
    models = tuple(AffineModel(np.array(_field(m, "p", "model")),
                               _field(m, "b_p", "model", "a number"))
                   for m in _field(doc, "models", "sensor", "a list"))
    hps = tuple(Hyperplane(np.array(_field(h, "w", "hyperplane")),
                           _field(h, "b_w", "hyperplane", "a number"))
                for h in _field(doc, "hyperplanes", "sensor", "a list"))
    pairs = _field(doc, "pairs", "sensor", "a list")
    expected = expected_pairs(len(models))
    if pairs != [list(pair) for pair in expected]:
        raise ValueError(f"pairs: expected the lexicographic 2-combinations of "
                         f"1..{len(models)}, found {json.dumps(pairs)}")
    if len(hps) != len(expected):
        raise ValueError(f"sensor: key 'hyperplanes': expected {len(expected)}, one per "
                         f"pair of models, found {len(hps)}")
    switching = SwitchingLogic(hps, len(models)) if len(models) > 1 else None
    scaler = None if doc.get("scaler") is None else Scaler.from_dict(doc["scaler"])
    metadata = {}
    if "metadata" in doc:
        metadata = _field(doc, "metadata", "sensor", "a JSON object")
    sensor = SensorModel(models, switching, scaler, dict(metadata))
    for key in ("n_cl", "n_p"):
        found = _field(doc, key, "sensor", "a number")
        if found != getattr(sensor, key):
            raise ValueError(f"sensor: key {key!r}: the models give {getattr(sensor, key)}, "
                             f"found {json.dumps(found)}")
    return sensor


def save_sensor(sensor: SensorModel, path) -> None:
    write_json(path, sensor_to_dict(sensor))


def load_sensor(path) -> SensorModel:
    with open(path) as fh:
        return sensor_from_dict(json.load(fh))
