"""Tests of the benchmark itself: its oracles, its tracing and its contract.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from misens import design, study  # noqa: E402
from misens.design import DesignConfig, build_mis_con_lab_milp  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def small_draw():
    """Eight training points, so all 2^8 two-class labelings can be listed."""
    train, _, _ = study.generate_scenario(
        study.ScenarioConfig(kind="uniform", n_total=16, seed=1))
    return train, DesignConfig(n_cl=2, seed=1)


def brute_force_l1(train, cfg) -> float:
    """min over labelings with every class >= n_p + 1 points of the summed
    per-class LAD fits."""
    best = np.inf
    for bits in itertools.product((1, 2), repeat=train.n):
        assign = np.array(bits)
        if min(np.sum(assign == 1), np.sum(assign == 2)) < train.n_p + 1:
            continue
        best = min(best, oracles.labeling_lad_l1(train, assign, 2, cfg.param_bound))
    return best


def test_highs_oracle_matches_brute_force(small_draw):
    train, cfg = small_draw
    highs = oracles.highs_optimum(build_mis_con_lab_milp(train, cfg))
    assert highs == pytest.approx(brute_force_l1(train, cfg), abs=oracles.OBJECTIVE_TOL)


def test_lab_checks_pass_on_a_certified_design(small_draw):
    train, cfg = small_draw
    report = design.design_mis_con_lab(train, cfg)
    assert report.solver_stats["milp"]["status"] == "optimal"
    assert oracles.check("lab-certify", report, train, cfg, None) == []


def test_tracer_sees_calls_made_through_imported_names(small_draw):
    train, cfg = small_draw
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.round = 0
        report = design.design_mis_con_lab(train, cfg)
        tracer.round = None
    finally:
        tracer.uninstall()
    m = tracer.metrics([1.0])
    assert m["milp.nodes"] == report.solver_stats["milp"]["nodes_explored"]
    assert m["milp.node_lps"] == m["milp.nodes"]
    assert m["qp.solves"] == 1 and m["design.refit_s"] > 0
    assert m["lp.refactorizations"] <= m["linalg.invert.calls"]
    assert m["lp.self_s"] <= m["lp.s"] and m["milp.self_s"] <= m["milp.s"]
    assert set(m) == {p["name"] for p in BENCHMARK["per_layer"]}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def run_one_operation(monkeypatch, capsys, name):
    """run.main on a single operation of `continuous`: one round, untraced."""
    (op,) = [o for o in workloads.operations("continuous") if o.name == name]
    monkeypatch.setattr(workloads, "operations", lambda workload: [op])
    code = run.main(["--workload", "continuous", "--seed", "1", "--seconds", "0",
                     "--trace", "0"])
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(doc["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    return code, doc


def test_known_fault_is_counted_and_exits_zero(monkeypatch, capsys):
    code, doc = run_one_operation(monkeypatch, capsys, "mis-con/uniform-30")
    assert code == 0
    assert doc["correct"] is True and doc["failed"] == doc["attempted"] == 1


def test_unexpected_failure_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(oracles, "check", lambda *args: ["wrong on purpose"])
    code, doc = run_one_operation(monkeypatch, capsys, "sis/uniform-30")
    assert code == 1
    assert doc["correct"] is False and doc["failed"] == doc["attempted"] == 1


def test_fails_without_the_misens_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(BENCHMARK["command"] + ["--workload", "continuous", "--seed", "1",
                                                  "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
