import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import misens
from misens.cli import FIELDS, RunConfig, build_parser, main, resolve_config
from misens.design import DesignConfig
from misens.milp import MilpLimits
from misens.study import ScenarioConfig


def run(args):
    return main(args)


class TestGenerate:
    def test_clustered_counts(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["generate", "--kind", "clustered", "--seed", "1",
                    "--out-dir", str(out)]) == 0
        train = (out / "train.csv").read_text().splitlines()
        test = (out / "test.csv").read_text().splitlines()
        assert len(train) == 46 and len(test) == 46  # header + 45 rows each
        assert (out / "scaler.json").exists()
        assert (out / "manifest.json").exists()

    def test_uniform_thirty(self, tmp_path):
        out = tmp_path / "out"
        assert run(["generate", "--kind", "uniform", "--n-total", "30",
                    "--out-dir", str(out)]) == 0
        assert len((out / "train.csv").read_text().splitlines()) == 16

    def test_invalid_range_names_field(self, tmp_path, capsys):
        cfgfile = tmp_path / "m.json"
        cfgfile.write_text(json.dumps(
            {"scenario": {"kind": "uniform", "p_range": [5000.0, 2000.0]}}))
        code = run(["generate", "--config", str(cfgfile),
                    "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "p_range" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_noise_is_refused_before_the_manifest(self, tmp_path, capsys, value):
        out = tmp_path / "o"
        assert run(["generate", "--noise-sigma", value, "--out-dir", str(out)]) == 2
        assert "noise_sigma must be nonnegative and finite" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("p_range, message", [
        ("[-5000.0, 20000.0]", "p_range: expected 0 < minimum < maximum < inf"),
        ("[2000.0, 1e400]", "p_range: expected 0 < minimum < maximum < inf"),
        ("[0.5, 20000.0]", "p_range, t_range: PCT undefined at P=0.5"),
    ], ids=["negative", "overflow", "pct-undefined"])
    def test_range_that_fails_the_scenario_is_refused_before_the_manifest(
            self, tmp_path, capsys, p_range, message):
        cfgfile = tmp_path / "m.json"
        cfgfile.write_text(f'{{"scenario": {{"p_range": {p_range}}}}}')
        out = tmp_path / "o"
        assert run(["generate", "--config", str(cfgfile), "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_missing_config_file_is_io_error(self, tmp_path):
        code = run(["generate", "--config", str(tmp_path / "nope.json"),
                    "--out-dir", str(tmp_path / "o")])
        assert code == 4

    @pytest.mark.parametrize("doc,path", [
        ({"design": {"n_cls": 4}}, "design.n_cls"),
        ({"design": {"regularization_weight": 0.0}}, "design.regularization_weight"),
        ({"design": {"milp": {"node_limit": 5}}}, "design.milp.node_limit"),
        ({"scenario": {"seeds": 3}}, "scenario.seeds"),
        ({"out_dir": "x"}, "out_dir"),
        ({"design": {"milp_log_interval": 50}}, "design.milp_log_interval"),
    ])
    def test_unknown_manifest_key_names_its_path(self, tmp_path, capsys, doc, path):
        cfgfile = tmp_path / "m.json"
        cfgfile.write_text(json.dumps(doc))
        code = run(["generate", "--config", str(cfgfile),
                    "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert f"{path}: unknown key" in capsys.readouterr().err

    def test_removed_big_m_key_names_its_path(self, tmp_path, capsys):
        cfgfile = tmp_path / "m.json"
        cfgfile.write_text(json.dumps({"design": {"big_m": 62.0}}))
        code = run(["generate", "--config", str(cfgfile),
                    "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "design.big_m: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("doc,path,expected", [
        ({"scenario": {"n_total": 30.7}}, "scenario.n_total", "an integer"),
        ({"design": {"n_cl": True}}, "design.n_cl", "an integer"),
        ({"scenario": {"kind": 5}}, "scenario.kind", "a string"),
        ({"methods": "sis"}, "methods", "a list of strings"),
    ], ids=["float-for-int", "bool-for-int", "int-for-string", "string-for-list"])
    def test_manifest_value_of_the_wrong_type_names_its_path(self, tmp_path, capsys,
                                                             doc, path, expected):
        cfgfile = tmp_path / "m.json"
        cfgfile.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run(["generate", "--config", str(cfgfile), "--out-dir", str(out)]) == 2
        assert f"{path}: expected {expected}, found" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_section_that_is_not_an_object_names_its_path(self, tmp_path, capsys):
        cfgfile = tmp_path / "m.json"
        cfgfile.write_text(json.dumps({"design": {"milp": 5}}))
        code = run(["generate", "--config", str(cfgfile),
                    "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "design.milp: expected a JSON object" in capsys.readouterr().err

    def test_echoed_manifest_loads_again(self, tmp_path):
        first = tmp_path / "first"
        assert run(["generate", "--kind", "uniform", "--n-total", "30",
                    "--out-dir", str(first)]) == 0
        second = tmp_path / "second"
        assert run(["generate", "--config", str(first / "manifest.json"),
                    "--out-dir", str(second)]) == 0
        assert (second / "train.csv").read_text() == (first / "train.csv").read_text()


class TestTrainEvaluate:
    def _generated(self, tmp_path, n_total=36):
        out = tmp_path / "exp"
        assert run(["generate", "--kind", "clustered", "--seed", "2",
                    "--n-total", str(n_total), "--out-dir", str(out)]) == 0
        return out

    def test_train_then_evaluate_matches_report(self, tmp_path):
        out = self._generated(tmp_path)
        assert run(["train", "--method", "sis", "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert run(["evaluate", "--sensor", str(out / "sensor.json"),
                    "--data", str(out / "train.csv"),
                    "--out-dir", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["rmse"] == pytest.approx(report["train_rmse"], rel=1e-12)
        assert metrics["method"] == "sis"

    def test_train_mis_std(self, tmp_path):
        out = self._generated(tmp_path)
        assert run(["train", "--method", "mis-std", "--n-cl", "3", "--seed", "2",
                    "--out-dir", str(out)]) == 0
        sensor = json.loads((out / "sensor.json").read_text())
        assert sensor["n_cl"] == 3
        assert len(sensor["hyperplanes"]) == 3

    def test_unknown_method_lists_valid(self, tmp_path, capsys):
        # refused by the argument parser, before the manifest is written
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run(["train", "--method", "banana", "--out-dir", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "sis" in err and "mis-con-lab" in err
        assert not out.exists()

    def test_schema_mismatch_names_versions(self, tmp_path, capsys):
        out = self._generated(tmp_path)
        assert run(["train", "--method", "sis", "--out-dir", str(out)]) == 0
        doc = json.loads((out / "sensor.json").read_text())
        doc["schema"] = 7
        (out / "sensor.json").write_text(json.dumps(doc))
        code = run(["evaluate", "--sensor", str(out / "sensor.json"),
                    "--data", str(out / "train.csv"), "--out-dir", str(out)])
        assert code == 2
        assert "expected 1, found 7" in capsys.readouterr().err

    @pytest.mark.parametrize("malformed, message", [
        (lambda doc: {k: v for k, v in doc.items() if k != "hyperplanes"},
         "sensor: missing key 'hyperplanes'"),
        (lambda doc: [doc], "sensor: expected a JSON object"),
    ], ids=["missing-key", "not-an-object"])
    def test_malformed_sensor_is_a_validation_error(self, tmp_path, capsys, malformed,
                                                    message):
        out = self._generated(tmp_path)
        assert run(["train", "--method", "mis-std", "--out-dir", str(out)]) == 0
        doc = json.loads((out / "sensor.json").read_text())
        (out / "sensor.json").write_text(json.dumps(malformed(doc)))
        code = run(["evaluate", "--sensor", str(out / "sensor.json"),
                    "--data", str(out / "train.csv"), "--out-dir", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_sensor_whose_models_disagree_on_inputs_is_refused(self, tmp_path, capsys):
        out = self._generated(tmp_path)
        assert run(["train", "--method", "mis-std", "--out-dir", str(out)]) == 0
        doc = json.loads((out / "sensor.json").read_text())
        doc["models"][1]["p"].append(0.5)
        (out / "sensor.json").write_text(json.dumps(doc))
        code = run(["evaluate", "--sensor", str(out / "sensor.json"),
                    "--data", str(out / "train.csv"), "--out-dir", str(out)])
        assert code == 2
        assert "model 2 has 3 inputs, model 1 has 2" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(metadata=None),
         "sensor: key 'metadata': expected a JSON object, found null"),
        (lambda d: d["models"][0].update(b_p=None),
         "model: key 'b_p': expected a number, found null"),
        (lambda d: d.update(hyperplanes=None),
         "sensor: key 'hyperplanes': expected a list, found null"),
        (lambda d: d.update(pairs=None), "sensor: key 'pairs': expected a list, found null"),
        (lambda d: d.update(models=5), "sensor: key 'models': expected a list, found 5"),
        (lambda d: (d["scaler"]["input_min"].append(0.0), d["scaler"]["input_max"].append(1.0)),
         "scaler has 3 inputs, the models 2"),
        (lambda d: d.update(n_cl=2), "sensor: key 'n_cl': the models give 3, found 2"),
        (lambda d: d.update(n_p=7), "sensor: key 'n_p': the models give 2, found 7"),
    ], ids=["metadata-null", "b_p-null", "hyperplanes-null", "pairs-null", "models-number",
            "scaler-width", "n_cl-edited", "n_p-edited"])
    def test_wrong_typed_or_wrong_width_sensor_is_refused(self, tmp_path, capsys, edit,
                                                          message):
        out = self._generated(tmp_path)
        assert run(["train", "--method", "mis-std", "--out-dir", str(out)]) == 0
        doc = json.loads((out / "sensor.json").read_text())
        edit(doc)
        (out / "sensor.json").write_text(json.dumps(doc))
        fresh = tmp_path / "fresh"
        code = run(["evaluate", "--sensor", str(out / "sensor.json"),
                    "--data", str(out / "test.csv"), "--out-dir", str(fresh)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (fresh / "manifest.json").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(output_min=None),
         "scaler: key 'output_min': expected a number, found null"),
        (lambda d: d.update(output_min=[1]),
         "scaler: key 'output_min': expected a number, found [1]"),
        (lambda d: (d["input_min"].append(0.0), d["input_max"].append(1.0)),
         "scaler.json: scaler has 3 inputs, the data 2"),
    ], ids=["output_min-null", "output_min-list", "width"])
    def test_wrong_typed_or_wrong_width_scaler_is_refused(self, tmp_path, capsys, edit,
                                                          message):
        src = self._generated(tmp_path)
        doc = json.loads((src / "scaler.json").read_text())
        edit(doc)
        (tmp_path / "scaler.json").write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = run(["train", "--method", "sis", "--data", str(src / "train.csv"),
                    "--scaler", str(tmp_path / "scaler.json"), "--out-dir", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_scaler_schema_mismatch_names_versions(self, tmp_path, capsys):
        out = self._generated(tmp_path)
        doc = json.loads((out / "scaler.json").read_text())
        (out / "scaler.json").write_text(json.dumps({**doc, "schema": 2}))
        assert run(["train", "--method", "sis", "--out-dir", str(out)]) == 2
        assert "scaler document schema mismatch: expected 1, found 2" in capsys.readouterr().err

    def test_malformed_scaler_is_a_validation_error(self, tmp_path, capsys):
        out = self._generated(tmp_path)
        doc = json.loads((out / "scaler.json").read_text())
        del doc["output_max"]
        (out / "scaler.json").write_text(json.dumps(doc))
        assert run(["train", "--method", "sis", "--out-dir", str(out)]) == 2
        assert "scaler: missing key 'output_max'" in capsys.readouterr().err

    def test_label_column_is_refused(self, tmp_path, capsys):
        # a labeled CSV would otherwise train on x1..xN, y and drop the labels
        out = tmp_path / "o"
        data = tmp_path / "labeled.csv"
        data.write_text("x1,x2,y,label\n0.1,0.2,0.3,1\n0.4,0.5,0.6,2\n"
                        "0.7,0.8,0.9,1\n0.2,0.9,0.5,2\n")
        code = run(["train", "--method", "sis", "--data", str(data),
                    "--out-dir", str(out)])
        assert code == 2
        assert f"{data}: a label column is not accepted" in capsys.readouterr().err
        assert not (out / "report.json").exists()
        # the inputs are read before the manifest is echoed
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("row,message", [
        ("0.4,0.5", "line 3: 2 cells, the header has 3"),
        ("0.4,abc,0.6", "line 3, column 2 (x2): expected a number, found 'abc'"),
        ("0.4,,0.6", "line 3, column 2 (x2): expected a number, found ''"),
    ], ids=["short-row", "text-cell", "empty-cell"])
    def test_bad_csv_row_names_its_line(self, tmp_path, capsys, row, message):
        out = tmp_path / "o"
        data = tmp_path / "bad.csv"
        data.write_text(f"x1,x2,y\n0.1,0.2,0.3\n{row}\n0.7,0.8,0.9\n")
        code = run(["train", "--method", "sis", "--data", str(data),
                    "--out-dir", str(out)])
        assert code == 2
        assert f"{data}: {message}" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_data_of_another_width_leaves_no_manifest(self, tmp_path, capsys):
        src = self._generated(tmp_path)
        assert run(["train", "--method", "sis", "--out-dir", str(src)]) == 0
        data = tmp_path / "wide.csv"
        data.write_text("x1,x2,x3,y\n0.1,0.2,0.3,0.4\n0.5,0.6,0.7,0.8\n")
        out = tmp_path / "fresh"
        code = run(["evaluate", "--sensor", str(src / "sensor.json"), "--data", str(data),
                    "--out-dir", str(out)])
        assert code == 2
        assert f"{data}: the data has 3 inputs, the sensor 2" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_missing_data_file(self, tmp_path):
        src = self._generated(tmp_path)
        assert run(["train", "--method", "sis", "--out-dir", str(src)]) == 0
        out = tmp_path / "fresh"
        code = run(["evaluate", "--sensor", str(src / "sensor.json"),
                    "--data", str(src / "absent.csv"), "--out-dir", str(out)])
        assert code == 4
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command, expected", [
        (["train", "--method", "sis", "--data", "{src}/absent.csv"], 4),
        (["train", "--method", "sis", "--data", "{src}/train.csv",
          "--scaler", "{src}/bad_scaler.json"], 2),
        (["train", "--method", "sis", "--data", "{src}/train.csv",
          "--scaler", "{src}/absent.json"], 4),
        (["train", "--method", "sis", "--data", "{src}/train.csv",
          "--scaler", "{src}/scaler_schema_2.json"], 2),
        (["train", "--method", "sis", "--data", "{src}/train.csv",
          "--scaler", "{src}/scaler_no_schema.json"], 2),
        (["evaluate", "--sensor", "{src}/absent.json", "--data", "{src}/test.csv"], 4),
    ], ids=["train-data", "train-scaler", "train-absent-scaler", "train-scaler-schema-2",
            "train-scaler-without-schema", "evaluate-sensor"])
    def test_refused_input_leaves_no_manifest(self, tmp_path, command, expected):
        src = self._generated(tmp_path)
        assert run(["train", "--method", "sis", "--out-dir", str(src)]) == 0
        (src / "bad_scaler.json").write_text('{"schema": 1}')
        # a well-formed scaler under another schema, or under none
        doc = json.loads((src / "scaler.json").read_text())
        (src / "scaler_schema_2.json").write_text(json.dumps({**doc, "schema": 2}))
        del doc["schema"]
        (src / "scaler_no_schema.json").write_text(json.dumps(doc))
        out = tmp_path / "fresh"
        code = run([arg.format(src=src) for arg in command] + ["--out-dir", str(out)])
        assert code == expected
        assert not (out / "manifest.json").exists()

    def test_train_respects_milp_flags(self, tmp_path):
        out = self._generated(tmp_path)
        code = run(["train", "--method", "mis-con-lab", "--n-cl", "2",
                    "--seed", "2", "--time-limit", "10", "--node-cap", "3000",
                    "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["solver_stats"]["milp"]["nodes_explored"] <= 3000
        assert report["solver_stats"]["milp"]["node_lps_cut_off"] >= 0

    def test_manifest_verbosity_sets_the_log_level(self, tmp_path):
        # a fresh interpreter: pytest's own root handlers would make the
        # CLI's logging.basicConfig a no-op in this process
        out = self._generated(tmp_path, n_total=30)
        cfgfile = tmp_path / "m.json"
        cfgfile.write_text(json.dumps({
            "verbosity": 1, "output_dir": str(out),
            "design": {"n_cl": 2, "seed": 1, "milp": {"node_cap": 20}}}))
        src = str(Path(misens.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "misens.cli", "train", "--method", "mis-con-lab",
             "--config", str(cfgfile)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "misens.milp:" in proc.stderr
        assert json.loads((out / "manifest.json").read_text())["verbosity"] == 1


    @pytest.mark.parametrize("flag,value,field", [
        ("--gap", "-1", "gap_target"), ("--node-cap", "0", "node_cap"),
        ("--node-cap", "-3", "node_cap"), ("--time-limit", "inf", "time_limit_s"),
        ("--gamma", "inf", "gamma"), ("--param-bound", "inf", "param_bound")])
    def test_out_of_range_flag_names_its_field(self, tmp_path, capsys, flag, value, field):
        code = run(["train", "--method", "mis-con-lab", "--n-cl", "2", flag, value,
                    "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert field in capsys.readouterr().err


class TestCompare:
    def test_full_table(self, tmp_path):
        out = tmp_path / "cmp"
        code = run(["compare", "--methods", "sis,mis-std,mis-con",
                    "--kind", "clustered", "--n-total", "30", "--seed", "3",
                    "--n-cl", "3", "--out-dir", str(out)])
        assert code == 0
        rows = (out / "comparison.csv").read_text().splitlines()
        assert len(rows) == 4
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["schema"] == 1
        assert [r["method"] for r in doc["rows"]] == ["sis", "mis-std", "mis-con"]
        assert (out / "surface.csv").exists()

    def test_idempotent_bytes_with_fixed_timing(self, tmp_path):
        args = ["compare", "--methods", "sis,mis-std", "--kind", "clustered",
                "--n-total", "30", "--seed", "4", "--n-cl", "3",
                "--timing", "fixed"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out-dir", str(out1)]) == 0
        assert run(args + ["--out-dir", str(out2)]) == 0
        for name in ("comparison.csv", "comparison.json", "surface.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestMonteCarlo:
    def test_boxplot_rows(self, tmp_path):
        out = tmp_path / "mc"
        code = run(["montecarlo", "--runs", "2", "--kind", "uniform",
                    "--n-total", "20", "--methods", "sis,mis-std",
                    "--n-cl", "2", "--seed", "5", "--out-dir", str(out)])
        assert code == 0
        box = (out / "boxplot.csv").read_text().splitlines()
        assert box[0].startswith("method,split,q1,median,q3")
        assert len(box) == 1 + 2 * 2  # two methods x two splits
        mc = (out / "montecarlo.csv").read_text().splitlines()
        assert len(mc) == 1 + 2 * 2 * 2

    def test_manifest_echoed_and_flags_override(self, tmp_path):
        cfgfile = tmp_path / "m.json"
        cfgfile.write_text(json.dumps({
            "scenario": {"kind": "uniform", "n_total": 20, "seed": 6},
            "design": {"n_cl": 2},
            "runs": 2,
            "methods": ["sis"],
        }))
        out = tmp_path / "mc2"
        code = run(["montecarlo", "--config", str(cfgfile), "--runs", "1",
                    "--out-dir", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["runs"] == 1          # flag beat the config file
        assert manifest["scenario"]["n_total"] == 20
        assert manifest["methods"] == ["sis"]

    @pytest.mark.parametrize("source", ["flag", "manifest"])
    def test_negative_jobs_refused(self, tmp_path, capsys, source):
        out = tmp_path / "o"
        args = ["montecarlo", "--runs", "1", "--methods", "sis", "--out-dir", str(out)]
        if source == "flag":
            args += ["--jobs", "-1"]
        else:
            cfgfile = tmp_path / "m.json"
            cfgfile.write_text(json.dumps({"jobs": -1}))
            args += ["--config", str(cfgfile)]
        assert run(args) == 2
        assert "jobs" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


class TestRunSettingRefusals:
    """Out-of-range run settings exit 2, name the field and write nothing."""

    def _refused(self, args, field, out, capsys):
        assert run(args) == 2
        assert field in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_runs_below_one(self, tmp_path, capsys):
        out = tmp_path / "o"
        self._refused(["montecarlo", "--runs", "-2", "--out-dir", str(out)],
                      "runs", out, capsys)

    def test_negative_verbosity(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfgfile = tmp_path / "m.json"
        cfgfile.write_text(json.dumps({"verbosity": -1}))
        self._refused(["generate", "--config", str(cfgfile), "--out-dir", str(out)],
                      "verbosity", out, capsys)

    @pytest.mark.parametrize("command,methods", [
        ("compare", ","), ("montecarlo", ","), ("compare", []), ("compare", "sis,sis")],
        ids=["compare-flag", "montecarlo-flag", "manifest", "repeated"])
    def test_empty_or_repeated_methods(self, tmp_path, capsys, command, methods):
        out = tmp_path / "o"
        args = [command, "--runs", "1"] if command == "montecarlo" else [command]
        if isinstance(methods, str):
            args += ["--methods", methods]
        else:
            cfgfile = tmp_path / "m.json"
            cfgfile.write_text(json.dumps({"methods": methods}))
            args += ["--config", str(cfgfile)]
        self._refused(args + ["--out-dir", str(out)], "methods", out, capsys)


# a non-default manifest value and a different flag value (None: the field
# has no flag) for every field of FIELDS
SAMPLES = {
    "scenario.kind": ("uniform", "clustered"),
    "scenario.n_total": (24, 40),
    "scenario.noise_sigma": (0.01, 0.02),
    "scenario.train_fraction": (0.6, 0.4),
    "scenario.p_range": ([2100.0, 4900.0], None),
    "scenario.t_range": ([310.0, 390.0], None),
    "scenario.seed": (7, 9),
    "design.n_cl": (2, 4),
    "design.gamma": (5.0, 2.5),
    "design.param_bound": (8.0, 6.0),
    "design.milp.time_limit_s": (12.5, 7.0),
    "design.milp.gap_target": (0.001, 0.01),
    "design.milp.node_cap": (500, 40),
    "design.seed": (4, 9),
    "output_dir": ("from-manifest", "from-flag"),
    "timing": ("fixed", "wall"),
    "verbosity": (1, 2),
    "jobs": (2, 3),
    "runs": (3, 5),
    "methods": (["sis", "mis-std"], ["mis-con"]),
}


def _at(doc, path):
    for key in path.split("."):
        doc = doc[key]
    return doc


def _sample_manifest(output_dir):
    doc = {"schema": 1}
    for path, (value, _) in SAMPLES.items():
        *sections, key = path.split(".")
        node = doc
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = value
    doc["output_dir"] = output_dir
    return doc


def _flag_action(dest):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices["montecarlo"]._actions if a.dest == dest)


class TestFields:
    def test_every_config_field_has_exactly_one_entry(self):
        declared = [path for path, _, _ in FIELDS]
        assert len(declared) == len(set(declared))
        expected = set()
        for prefix, cls in (("scenario.", ScenarioConfig), ("design.", DesignConfig),
                            ("design.milp.", MilpLimits), ("", RunConfig)):
            expected |= {prefix + f.name for f in dataclasses.fields(cls)}
        expected -= {"scenario", "design", "design.milp_limits"}  # sections
        assert set(declared) == expected == set(SAMPLES)

    def test_manifest_setting_every_field_is_echoed_back_equal(self, tmp_path):
        doc = _sample_manifest(str(tmp_path / "echo"))
        defaults = RunConfig().to_manifest()
        for path, _, _ in FIELDS:
            assert _at(doc, path) != _at(defaults, path), path
        cfgfile = tmp_path / "m.json"
        cfgfile.write_text(json.dumps(doc))
        assert run(["generate", "--config", str(cfgfile)]) == 0
        assert json.loads((tmp_path / "echo" / "manifest.json").read_text()) == doc

    @pytest.mark.parametrize("path,dest", [(p, d) for p, d, _ in FIELDS if d])
    def test_flag_overrides_the_manifest(self, tmp_path, path, dest):
        cfgfile = tmp_path / "m.json"
        cfgfile.write_text(json.dumps(_sample_manifest("from-manifest")))
        value = SAMPLES[path][1]
        action = _flag_action(dest)
        if isinstance(action, argparse._CountAction):
            flag = [action.option_strings[0]] * value
        elif isinstance(value, list):
            flag = [action.option_strings[0], ",".join(value)]
        else:
            flag = [action.option_strings[0], str(value)]
        args = build_parser().parse_args(["montecarlo", "--config", str(cfgfile)] + flag)
        assert _at(resolve_config(args).to_manifest(), path) == value
