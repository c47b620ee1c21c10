"""Spans around misens's public functions, and the per-layer metrics they give.

`Tracer.install` wraps each function in TARGETS and puts the wrapper in
place of the original under every name that refers to it, in every loaded
misens module: the library imports these names directly
(`from .lp import solve_lp`), so patching only the defining module would
miss most calls.  Spans are kept in memory, tagged with the round that
caused them, and written out once the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# (module, function) -> span name; the prefix before the first dot is the layer
TARGETS = {
    ("misens.linalg", "householder_qr"): "linalg.householder_qr",
    ("misens.linalg", "cholesky_solve"): "linalg.cholesky_solve",
    ("misens.linalg", "invert"): "linalg.invert",
    ("misens.lp", "solve_lp"): "lp.solve_lp",
    ("misens.lp", "solve_compiled"): "lp.solve_compiled",
    ("misens.qp", "solve_qp"): "qp.solve_qp",
    ("misens.milp", "solve_milp"): "milp.solve_milp",
    ("misens.design", "design_mis_std"): "design.mis_std",
    ("misens.design", "design_mis_con"): "design.mis_con",
    ("misens.design", "design_mis_con_lab"): "design.mis_con_lab",
    ("misens.design", "build_mis_con_lab_milp"): "design.build",
    ("misens.design", "improve_labeling"): "design.improve_labeling",
    ("misens.design", "labeling_l1_objective"): "design.labeling_l1_objective",
    ("misens.classify", "kmeans"): "classify.kmeans",
    ("misens.classify", "train_multiclass_svm"): "classify.svm",
    ("misens.study", "generate_scenario"): "study.generate_scenario",
    ("misens.core", "predict_batch"): "core.predict_batch",
}


def _arg(args, kwargs, index, name):
    """A call's argument by keyword or position, None when left to its default."""
    return kwargs[name] if name in kwargs else args[index] if len(args) > index else None


def _lp_attrs(args, kwargs, result):
    # solve_compiled(comp, lower, upper, warm=None, max_iter=None, bland_after=1000, hot=None)
    warm, hot = _arg(args, kwargs, 3, "warm"), _arg(args, kwargs, 6, "hot")
    return {"started": warm is not None or hot is not None,
            "hot": hot is not None, "iterations": result.iterations}


def _qp_attrs(args, kwargs, result):
    return {"iterations": result.iterations, "kkt": float(result.kkt_residual)}


def _milp_attrs(args, kwargs, result):
    # solve_milp(prob, limits=None, incumbent_hint=None, log_interval=0)
    base = _arg(args, kwargs, 0, "prob").base
    return {"rows": base.n_rows, "vars": base.n_vars, "nodes": result.nodes_explored,
            "incumbent": result.objective_value, "bound": float(result.best_bound)}


ATTRS = {"lp.solve_compiled": _lp_attrs, "qp.solve_qp": _qp_attrs,
         "milp.solve_milp": _milp_attrs}


class Span:
    __slots__ = ("id", "name", "parent", "round", "start", "end", "attrs")

    def __init__(self, sid, name, parent, rnd, start):
        self.id, self.name, self.parent, self.round = sid, name, parent, rnd
        self.start, self.end, self.attrs = start, start, None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "round": self.round, "start": self.start, "end": self.end,
                "attrs": self.attrs}


class Tracer:
    """Records one span per wrapped call; `round` tags the spans of a round."""

    def __init__(self):
        self.spans: list[Span] = []
        self.round: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for (module, func), name in TARGETS.items():
            original = getattr(sys.modules[module], func)
            wrapper = self._wrap(original, name)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "misens":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                        self.round, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([s.to_dict() for s in self.spans], fh)

    def metrics(self, round_walls: list[float]) -> dict[str, float]:
        """Per-layer metrics: the mean over rounds of each round's value."""
        by_round: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.round is not None:
                by_round.setdefault(s.round, []).append(s)
        per_round = [round_metrics(by_round.get(r, []), self.spans)
                     for r in range(len(round_walls))]
        out = {name: statistics.fmean(m[name] for m in per_round)
               for name in per_round[0]}
        out["study.generate_s"] = sum(s.end - s.start for s in self.spans
                                      if s.name == "study.generate_scenario")
        out["traced.wall_s"] = statistics.fmean(round_walls)
        return out


def round_metrics(spans: list[Span], all_spans: list[Span]) -> dict[str, float]:
    """Counts and times of one round's spans.

    A layer's time covers its outermost spans only (a span nested in another
    of the same layer is not counted twice); self time is a span's duration
    minus its direct children's.
    """
    def dur(s):
        return s.end - s.start

    def parent(s):
        return all_spans[s.parent] if s.parent is not None else None

    def ancestors(s):
        p = parent(s)
        while p is not None:
            yield p
            p = parent(p)

    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + dur(s)

    def self_time(layer):
        return sum(dur(s) - child_time.get(s.id, 0.0) for s in spans if s.layer == layer)

    def layer_time(layer):
        return sum(dur(s) for s in spans if s.layer == layer
                   and not any(a.layer == layer for a in ancestors(s)))

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(dur(s) for s in named(name))

    lps = named("lp.solve_compiled")
    node_lps = [s for s in lps if parent(s) is not None and parent(s).layer == "milp"]
    qps = named("qp.solve_qp")
    milps = named("milp.solve_milp")
    milp_s = layer_time("milp")
    nodes = sum(s.attrs["nodes"] for s in milps)
    m = {}
    for fn in ("householder_qr", "cholesky_solve", "invert"):
        m[f"linalg.{fn}.calls"] = len(named(f"linalg.{fn}"))
        m[f"linalg.{fn}.s"] = total(f"linalg.{fn}")
    m["lp.solves.cold"] = sum(not s.attrs["started"] for s in lps)
    m["lp.solves.warm"] = sum(s.attrs["started"] for s in lps)
    m["lp.iterations"] = sum(s.attrs["iterations"] for s in lps)
    m["lp.refactorizations"] = sum(
        1 for s in named("linalg.invert") if any(a.layer == "lp" for a in ancestors(s)))
    m["lp.s"] = layer_time("lp")
    m["lp.self_s"] = self_time("lp")
    m["qp.solves"] = len(qps)
    m["qp.iterations"] = sum(s.attrs["iterations"] for s in qps)
    m["qp.s"] = layer_time("qp")
    m["qp.self_s"] = self_time("qp")
    m["qp.feasible_start_s"] = sum(dur(s) for s in spans if s.layer == "lp"
                                   and parent(s) is not None and parent(s).layer == "qp")
    m["qp.kkt_residual_max"] = max((s.attrs["kkt"] for s in qps), default=0.0)
    m["milp.nodes"] = nodes
    m["milp.node_lps"] = len(node_lps)
    m["milp.nodes_per_s"] = nodes / milp_s if milp_s > 0 else 0.0
    m["milp.s"] = milp_s
    m["milp.node_lp_s"] = sum(dur(s) for s in node_lps)
    m["milp.self_s"] = self_time("milp")
    m["milp.hot_offered_ratio"] = (sum(s.attrs["hot"] for s in node_lps) / len(node_lps)
                                   if node_lps else 0.0)
    m["milp.rows"] = max((s.attrs["rows"] for s in milps), default=0)
    m["milp.vars"] = max((s.attrs["vars"] for s in milps), default=0)
    m["milp.incumbent_l1"] = sum(s.attrs["incumbent"] or 0.0 for s in milps)
    m["milp.best_bound"] = sum(s.attrs["bound"] for s in milps)
    m["design.build_s"] = total("design.build")
    m["design.hint_s"] = total("design.improve_labeling") + total(
        "design.labeling_l1_objective")
    m["design.refit_s"] = sum(
        dur(s) for s in named("design.mis_con")
        if any(a.name == "design.mis_con_lab" for a in ancestors(s)))
    m["design.mis_std.s"] = total("design.mis_std")
    m["design.mis_con.s"] = sum(
        dur(s) for s in named("design.mis_con")
        if not any(a.name == "design.mis_con_lab" for a in ancestors(s)))
    m["design.mis_con_lab.s"] = total("design.mis_con_lab")
    m["classify.kmeans.s"] = total("classify.kmeans")
    m["classify.svm.s"] = total("classify.svm")
    m["core.predict_s"] = layer_time("core")
    return m
