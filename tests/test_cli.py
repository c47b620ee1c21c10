import json

import numpy as np
import pytest

from misens.cli import main


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
    ])
    def test_unknown_manifest_key_names_its_path(self, tmp_path, capsys, doc, path):
        cfgfile = tmp_path / "m.json"
        cfgfile.write_text(json.dumps(doc))
        code = run(["generate", "--config", str(cfgfile),
                    "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert f"{path}: unknown key" in capsys.readouterr().err

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
        out = self._generated(tmp_path)
        assert run(["train", "--method", "banana", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "sis" in err and "mis-con-lab" in err

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

    def test_missing_data_file(self, tmp_path):
        out = self._generated(tmp_path)
        code = run(["evaluate", "--sensor", str(out / "sensor.json"),
                    "--data", str(out / "absent.csv"), "--out-dir", str(out)])
        assert code == 4

    def test_train_respects_milp_flags(self, tmp_path):
        out = self._generated(tmp_path)
        code = run(["train", "--method", "mis-con-lab", "--n-cl", "2",
                    "--seed", "2", "--time-limit", "10", "--node-cap", "3000",
                    "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["solver_stats"]["milp"]["nodes_explored"] <= 3000


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
