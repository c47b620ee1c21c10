import dataclasses
import math

import numpy as np
import pytest

from misens import design, study
from misens.classify import kmeans
from misens.design import DesignConfig
from misens.milp import MilpLimits
from misens.study import (
    CLUSTER_CENTRES,
    CLUSTER_SPREAD,
    H_V,
    METHODS,
    P_RANGE,
    P_REF,
    R,
    T_RANGE,
    ScenarioConfig,
    export_surface,
    generate_scenario,
    pct,
    run_comparison,
    run_method,
    run_montecarlo,
)


class TestPct:
    def test_reference_pressure_returns_temperature(self):
        assert pct(145325.0, 550.0) == pytest.approx(550.0, abs=1e-9)

    def test_low_pressure_corner(self):
        # direct evaluation with the published constants:
        # denom = (8.314/55940.550)*ln(2000/145325) + 1/523.15
        assert (R, H_V, P_REF) == (8.314, 55940.550, 145325.0)
        denom = (R / H_V) * math.log(2000.0 / 145325.0) + 1.0 / 523.15
        assert pct(2000.0, 523.15) == pytest.approx(1.0 / denom, rel=1e-12)
        assert pct(2000.0, 523.15) == pytest.approx(784.6, abs=0.1)

    def test_monotone_decreasing_in_pressure(self):
        # R/H_v > 0 and ln increasing, so the denominator grows with P
        ps = np.linspace(2000.0, 20000.0, 25)
        vals = [pct(p, 548.15) for p in ps]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            pct(-1.0, 550.0)
        # near-vacuum pressure drives the denominator negative
        with pytest.raises(ValueError, match="denominator"):
            pct(0.1, 550.0)


class TestScenario:
    def test_clustered_default_counts(self):
        cfg = ScenarioConfig(kind="clustered", seed=1)
        train, test, scaler = generate_scenario(cfg)
        assert train.n == 45 and test.n == 45
        # the split is a partition: no point is in both halves
        points = np.vstack([train.inputs, test.inputs])
        assert np.unique(points, axis=0).shape[0] == 90

    def test_normalized_columns_span_unit_interval(self):
        cfg = ScenarioConfig(kind="uniform", n_total=60, seed=2, noise_sigma=0.0)
        train, test, _ = generate_scenario(cfg)
        allx = np.vstack([train.inputs, test.inputs])
        ally = np.concatenate([train.outputs, test.outputs])
        assert np.allclose(allx.min(axis=0), 0.0, atol=1e-12)
        assert np.allclose(allx.max(axis=0), 1.0, atol=1e-12)
        assert ally.min() == pytest.approx(0.0, abs=1e-12)
        assert ally.max() == pytest.approx(1.0, abs=1e-12)

    def test_noise_only_on_training_outputs(self):
        base = ScenarioConfig(kind="uniform", n_total=40, seed=3, noise_sigma=0.0)
        noisy = ScenarioConfig(kind="uniform", n_total=40, seed=3, noise_sigma=0.01)
        tr0, te0, _ = generate_scenario(base)
        tr1, te1, _ = generate_scenario(noisy)
        assert np.array_equal(te0.outputs, te1.outputs)
        assert np.array_equal(tr0.inputs, tr1.inputs)
        assert not np.array_equal(tr0.outputs, tr1.outputs)

    def test_bit_reproducible(self):
        cfg = ScenarioConfig(kind="clustered", seed=9)
        a = generate_scenario(cfg)
        b = generate_scenario(cfg)
        assert np.array_equal(a[0].outputs, b[0].outputs)
        assert np.array_equal(a[1].inputs, b[1].inputs)

    def test_uniform_thirty_split(self):
        cfg = ScenarioConfig(kind="uniform", n_total=30, seed=0)
        train, test, _ = generate_scenario(cfg)
        assert train.n == 15 and test.n == 15

    def test_clustered_points_lie_in_their_cluster_boxes(self):
        # the clusters follow the operating box: centre fraction +/- 8 % of
        # each range, in order, n_total split as evenly as it goes
        cfg = ScenarioConfig(kind="clustered", n_total=31, noise_sigma=0.0, seed=4)
        train, test, scaler = generate_scenario(cfg)
        x = np.vstack([train.inputs, test.inputs])
        raw = x * (scaler.input_max - scaler.input_min) + scaler.input_min
        assert CLUSTER_SPREAD == 0.08
        assert CLUSTER_CENTRES == ((0.12, 0.88), (0.50, 0.50), (0.88, 0.12))
        # the PCT denominator is smallest at the lowest pressure and the
        # highest temperature, so that corner decides the whole box
        assert pct(P_RANGE[0], T_RANGE[1]) > 0.0
        # the boxes are disjoint: each point lies in exactly one, 11/10/10
        in_box = np.ones((len(CLUSTER_CENTRES), raw.shape[0]), dtype=bool)
        for k, (fp, ft) in enumerate(CLUSTER_CENTRES):
            for col, (lo, hi), f in ((0, P_RANGE, fp), (1, T_RANGE, ft)):
                width = hi - lo
                centre = lo + f * width
                # 1e-12: roundoff of the scaler round trip
                in_box[k] &= np.abs(raw[:, col] - centre) <= 0.08 * width * (1 + 1e-12)
                assert np.all((raw[:, col] >= lo) & (raw[:, col] <= hi))
        assert np.all(in_box.sum(axis=0) == 1)
        assert in_box.sum(axis=1).tolist() == [11, 10, 10]

    @pytest.mark.parametrize("noise_sigma", [np.inf, np.nan, -0.1])
    def test_noise_sigma_must_be_finite_and_nonnegative(self, noise_sigma):
        with pytest.raises(ValueError, match="noise_sigma must be nonnegative and finite"):
            ScenarioConfig(noise_sigma=noise_sigma)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ScenarioConfig(kind="banana")


class TestComparison:
    def test_sis_single_row(self):
        scenario = ScenarioConfig(kind="uniform", n_total=24, seed=4)
        report = run_comparison(scenario, ["sis"], DesignConfig(n_cl=2))
        assert len(report.rows) == 1
        assert report.rows[0].status == "ok"
        assert report.rows[0].train_rmse >= 0.0

    def test_sis_worse_than_mis_std_on_clustered(self):
        scenario = ScenarioConfig(kind="clustered", n_total=45, seed=5)
        report = run_comparison(scenario, ["sis", "mis-std"],
                                DesignConfig(n_cl=3, seed=5))
        by = {r.method: r for r in report.rows}
        assert by["sis"].train_rmse > by["mis-std"].train_rmse
        assert by["sis"].test_rmse > by["mis-std"].test_rmse

    def test_mis_con_planes_are_model_differences(self):
        scenario = ScenarioConfig(kind="clustered", n_total=30, seed=6)
        report = run_comparison(scenario, ["mis-con"], DesignConfig(n_cl=3, seed=6))
        assert report.rows[0].status == "ok"
        sensor = report.sensors["mis-con"]
        for hp, (r, s) in zip(sensor.switching.hyperplanes, sensor.switching.pairs):
            mr, ms = sensor.models[r - 1], sensor.models[s - 1]
            assert np.array_equal(hp.w, mr.p - ms.p)
            assert hp.b_w == mr.b_p - ms.b_p

    def test_the_kmeans_labeling_is_computed_once_per_draw(self, monkeypatch):
        # mis-std, mis-con and mis-con-lab share one k-means labeling, and
        # each reports what it reports when run alone
        calls = []

        def counting_kmeans(*args, **kwargs):
            calls.append(args)
            return kmeans(*args, **kwargs)

        for module in (study, design):
            monkeypatch.setattr(module, "kmeans", counting_kmeans)
        scenario = ScenarioConfig(kind="uniform", n_total=24, seed=4)
        cfg = DesignConfig(n_cl=2, seed=4, milp_limits=MilpLimits(node_cap=50))
        report = run_comparison(scenario, list(METHODS), cfg, timing="fixed")
        assert len(calls) == 1
        assert [r.status for r in report.rows] == ["ok"] * 4
        train, _, _ = generate_scenario(scenario)
        for row in report.rows:
            alone = run_method(row.method, train, cfg)
            assert row.train_rmse == alone.train_rmse
        assert len(calls) == 4  # run alone, each labeled method runs k-means once

    def test_method_failure_recorded_others_run(self):
        # n_total=12 -> 6 training points cannot host 3 classes of 3 for the
        # labeling MILP, so mis-con-lab fails while sis still reports
        scenario = ScenarioConfig(kind="uniform", n_total=12, seed=7)
        report = run_comparison(scenario, ["mis-con-lab", "sis"],
                                DesignConfig(n_cl=3))
        by = {r.method: r for r in report.rows}
        assert by["mis-con-lab"].status.startswith("error")
        assert by["sis"].status == "ok"

    def test_csv_json_and_surface_outputs(self, tmp_path):
        scenario = ScenarioConfig(kind="clustered", n_total=30, seed=8)
        report = run_comparison(scenario, ["sis", "mis-std"],
                                DesignConfig(n_cl=3, seed=8), timing="fixed")
        report.write_csv(tmp_path / "comparison.csv")
        report.write_json(tmp_path / "comparison.json")
        export_surface(report.sensors, tmp_path / "surface.csv")
        csv_text = (tmp_path / "comparison.csv").read_text()
        assert csv_text.splitlines()[0] == ("method,status,train_rmse,test_rmse,t_comp_s,"
                                            "milp_gap,milp_nodes")
        assert ",0.0," in csv_text  # fixed timing writes literal zero
        surface = (tmp_path / "surface.csv").read_text().splitlines()
        assert surface[0] == "method,x1,x2,region,prediction"
        assert len(surface) == 1 + 2 * 41 * 41
        assert surface[1].startswith("mis-std,0.0,0.0,") and ",0.025," in surface[2]


class TestMonteCarlo:
    @pytest.mark.parametrize("methods,why", [
        ([], "at least one"), (["sis", "sis"], "listed twice"), (["sis", "bogus"], "unknown")])
    def test_refuses_an_empty_repeated_or_unknown_method_list(self, monkeypatch, methods, why):
        # as the CLI does, and before any run is dispatched
        dispatched = []
        monkeypatch.setattr(study, "_montecarlo_one", lambda task: dispatched.append(task))
        scenario = ScenarioConfig(kind="uniform", n_total=20, seed=10)
        with pytest.raises(ValueError, match=f"methods: .*{why}"):
            run_montecarlo(scenario, 2, methods, DesignConfig(n_cl=2))
        with pytest.raises(ValueError, match=f"methods: .*{why}"):
            run_comparison(scenario, methods, DesignConfig(n_cl=2))
        assert not dispatched

    def test_single_run_quartiles_collapse(self):
        scenario = ScenarioConfig(kind="uniform", n_total=20, seed=10)
        report = run_montecarlo(scenario, 1, ["sis"], DesignConfig(n_cl=2))
        for row in report.boxplot:
            assert row.q1 == row.median == row.q3
            assert row.outliers == ()

    def test_records_long_format_and_failures_counted(self):
        scenario = ScenarioConfig(kind="uniform", n_total=20, seed=11)
        report = run_montecarlo(scenario, 3, ["sis", "mis-std"],
                                DesignConfig(n_cl=2, seed=11))
        assert [(run, r.method) for run, r in report.rows] == \
               [(run, m) for run in range(3) for m in ("sis", "mis-std")]
        ok = [r for _, r in report.rows if r.status == "ok"]
        assert len(ok) == 3 * 2 - len(report.failures)
        assert report.failures == [(run, r.method, r.status) for run, r in report.rows
                                   if r.status != "ok"]

    @pytest.mark.parametrize("n_cl", [2, 5], ids=["all-ok", "mis-std-fails"])
    def test_csv_lists_each_ok_comparison_row_train_then_test(self, tmp_path, n_cl):
        # n_total 20 leaves 10 training points, too few for MIS-std at n_cl 5
        # (15 needed): every MIS-std row fails there and only SIS is written
        scenario = ScenarioConfig(kind="uniform", n_total=20, seed=15)
        cfg = DesignConfig(n_cl=n_cl, seed=15)
        methods = ["mis-std", "sis"]
        report = run_montecarlo(scenario, 2, methods, cfg, timing="fixed")
        report.write_csv(tmp_path / "mc.csv")
        want = ["run,method,split,rmse,t_comp_s"]
        for run in range(2):
            per_run = dataclasses.replace(scenario, seed=scenario.seed + run)
            for r in run_comparison(per_run, methods, cfg, timing="fixed").rows:
                if r.status == "ok":
                    want += [f"{run},{r.method},train,{r.train_rmse!r},0.0",
                             f"{run},{r.method},test,{r.test_rmse!r},0.0"]
        assert (tmp_path / "mc.csv").read_text().splitlines() == want
        assert len(report.failures) == (0 if n_cl == 2 else 2)

    def test_deterministic_bytes(self, tmp_path):
        scenario = ScenarioConfig(kind="uniform", n_total=20, seed=12)
        cfg = DesignConfig(n_cl=2, seed=12, milp_limits=MilpLimits(node_cap=3000))
        a = run_montecarlo(scenario, 2, ["sis", "mis-std"], cfg, timing="fixed")
        b = run_montecarlo(scenario, 2, ["sis", "mis-std"], cfg, timing="fixed")
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_csv(pa)
        b.write_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()
        ba, bb = tmp_path / "ba.csv", tmp_path / "bb.csv"
        a.write_boxplot_csv(ba)
        b.write_boxplot_csv(bb)
        assert ba.read_bytes() == bb.read_bytes()

    def test_parallel_matches_serial(self):
        scenario = ScenarioConfig(kind="uniform", n_total=20, seed=13)
        cfg = DesignConfig(n_cl=2, seed=13)
        serial = run_montecarlo(scenario, 3, ["sis"], cfg, jobs=1, timing="fixed")
        parallel = run_montecarlo(scenario, 3, ["sis"], cfg, jobs=2, timing="fixed")
        assert [(run, r.method, r.train_rmse, r.test_rmse) for run, r in serial.rows] == \
               [(run, r.method, r.train_rmse, r.test_rmse) for run, r in parallel.rows]

    def test_sis_is_least_accurate_on_uniform(self):
        scenario = ScenarioConfig(kind="uniform", n_total=30, seed=14)
        cfg = DesignConfig(n_cl=3, seed=14)
        report = run_montecarlo(scenario, 3, ["sis", "mis-std"], cfg)
        med = {(b.method, b.split): b.median for b in report.boxplot}
        assert med[("sis", "test")] > med[("mis-std", "test")]
