import json

import numpy as np
import pytest

from misens import core
from misens.core import (
    AffineModel,
    Dataset,
    Hyperplane,
    LabelingMatrix,
    Scaler,
    SensorModel,
    SwitchingLogic,
    assign_regions,
    normalize,
    predict,
    predict_batch,
    rmse,
)


def two_class_logic(w, b_w):
    return SwitchingLogic((Hyperplane(np.array(w, dtype=float), b_w),), 2)


def region(x, logic) -> int:
    """The class assign_regions gives the one point x."""
    (r,) = assign_regions(x, logic)
    return int(r)


def make_sensor(models, switching=None, scaler=None):
    return SensorModel(tuple(AffineModel(np.array(p), b) for p, b in models), switching, scaler)


class TestAssignRegion:
    def test_binary_sign_convention(self):
        logic = two_class_logic([1.0], -1.0)
        assert region([2.0], logic) == 1
        assert region([0.0], logic) == 2

    def test_boundary_point_votes_lower_class(self):
        logic = two_class_logic([1.0], -1.0)
        assert region([1.0], logic) == 1  # w.x + b == 0 counts as class 1

    def test_unanimous_three_class_vote(self):
        # planes chosen so every pair votes for class 2 at the origin
        hps = (
            Hyperplane(np.array([1.0, 0.0]), -1.0),  # (1,2): -1 < 0 -> votes 2
            Hyperplane(np.array([1.0, 0.0]), 1.0),   # (1,3): +1 >= 0 -> votes 1
            Hyperplane(np.array([1.0, 0.0]), 1.0),   # (2,3): +1 >= 0 -> votes 2
        )
        logic = SwitchingLogic(hps, 3)
        assert region([0.0, 0.0], logic) == 2

    def test_circular_vote_tie_returns_class_one(self):
        # constructed (by searching over sign patterns) so the three pairwise
        # votes split 1-1-1 at the origin: (1,2)->1, (1,3)->3, (2,3)->2
        hps = (
            Hyperplane(np.array([1.0, 0.0]), 1.0),
            Hyperplane(np.array([0.0, 1.0]), -1.0),
            Hyperplane(np.array([1.0, 1.0]), 1.0),
        )
        logic = SwitchingLogic(hps, 3)
        x = np.zeros(2)
        votes = {1: 0, 2: 0, 3: 0}
        for h, (r, s) in zip(hps, logic.pairs):
            votes[r if h.w @ x + h.b_w >= 0 else s] += 1
        assert votes == {1: 1, 2: 1, 3: 1}
        assert region(x, logic) == 1

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        hps = tuple(Hyperplane(rng.normal(size=2), rng.normal()) for _ in range(3))
        logic = SwitchingLogic(hps, 3)
        xs = rng.normal(size=(40, 2))
        batch = assign_regions(xs, logic)
        assert [region(x, logic) for x in xs] == list(batch)


class TestPredict:
    def test_constant_model(self):
        sensor = make_sensor([([0.0, 0.0], 0.5)])
        assert predict([3.0, -1.0], sensor) == pytest.approx(0.5)

    def test_identical_models_region_independent(self):
        logic = two_class_logic([1.0, 0.0], 0.0)
        sensor = make_sensor([([1.0, 2.0], 0.25), ([1.0, 2.0], 0.25)], logic)
        for x in ([1.0, 1.0], [-1.0, 1.0]):
            assert predict(np.array(x), sensor) == pytest.approx(1.0 * x[0] + 2.0 * x[1] + 0.25)

    def test_dimension_mismatch(self):
        sensor = make_sensor([([1.0, 1.0], 0.0)])
        with pytest.raises(ValueError, match="shape"):
            predict([1.0], sensor)

    def test_affine_within_fixed_region(self):
        rng = np.random.default_rng(2)
        logic = two_class_logic([1.0, -1.0], 0.05)
        sensor = make_sensor([(rng.normal(size=2), 0.3), (rng.normal(size=2), -0.2)], logic)
        for _ in range(50):
            x1, x2 = rng.normal(size=(2, 2))
            alpha = rng.uniform()
            xm = alpha * x1 + (1 - alpha) * x2
            rs = {region(x, logic) for x in (x1, x2, xm)}
            if len(rs) == 1:
                lhs = predict(xm, sensor)
                rhs = alpha * predict(x1, sensor) + (1 - alpha) * predict(x2, sensor)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        logic = two_class_logic([0.3, 0.7], -0.4)
        sensor = make_sensor([(rng.normal(size=2), 0.1), (rng.normal(size=2), -0.6)], logic)
        xs = rng.normal(size=(25, 2))
        assert np.allclose(predict_batch(xs, sensor), [predict(x, sensor) for x in xs])


class TestRmse:
    def test_perfect_fit(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_error(self):
        assert rmse([0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0)

    def test_single_miss(self):
        assert rmse([0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(2, 30))
        perm = rng.permutation(30)
        assert rmse(a, b) == pytest.approx(rmse(a[perm], b[perm]), abs=1e-15)


class TestNormalize:
    def test_minmax_endpoints(self):
        ds = Dataset(np.array([[2000.0], [11000.0], [20000.0]]), [0.0, 1.0, 2.0])
        norm, scaler = normalize(ds)
        assert np.allclose(norm.inputs[:, 0], [0.0, 0.5, 1.0])
        assert np.allclose(norm.outputs, [0.0, 0.5, 1.0])

    def test_unit_column_unchanged(self):
        ds = Dataset(np.array([[0.0], [0.25], [1.0]]), [0.0, 0.5, 1.0])
        norm, _ = normalize(ds)
        assert np.allclose(norm.inputs[:, 0], [0.0, 0.25, 1.0])

    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.uniform(-3, 9, size=(20, 3)), rng.uniform(100, 200, size=20))
        norm, scaler = normalize(ds)
        # invert with the recorded min and max
        inputs = norm.inputs * (scaler.input_max - scaler.input_min) + scaler.input_min
        outputs = norm.outputs * (scaler.output_max - scaler.output_min) + scaler.output_min
        assert np.max(np.abs(inputs - ds.inputs)) <= 1e-12 * 12.0
        assert np.max(np.abs(outputs - ds.outputs)) <= 1e-12 * 200.0

    def test_degenerate_column_rejected(self):
        ds = Dataset(np.array([[1.0, 2.0], [1.0, 3.0]]), [0.0, 1.0])
        with pytest.raises(ValueError, match="column 0"):
            normalize(ds)


class TestTypes:
    def test_labeling_row_sums_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            LabelingMatrix(np.array([[1, 1], [0, 1]]))
        with pytest.raises(ValueError, match="0 or 1"):
            LabelingMatrix(np.array([[2, -1], [1, 0]]))

    def test_labeling_roundtrip(self):
        z = LabelingMatrix.from_assignments([1, 3, 2, 3], 3)
        assert list(z.assignments()) == [1, 3, 2, 3]
        assert list(z.class_sizes()) == [1, 1, 2]
        assert list(z.members(3)) == [1, 3]

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            Hyperplane(np.array([0.0, 1e-14]), 1.0)

    def test_sensor_input_dimensions_must_agree(self):
        with pytest.raises(ValueError, match="model 2 has 3 inputs, model 1 has 2"):
            make_sensor([([1.0, 2.0], 0.0), ([1.0, 2.0, 3.0], 0.0)],
                        two_class_logic([1.0, 0.0], 0.0))
        with pytest.raises(ValueError, match="hyperplanes have 3 inputs, the models 2"):
            make_sensor([([1.0, 2.0], 0.0), ([0.0, 1.0], 0.0)],
                        two_class_logic([1.0, 0.0, 1.0], 0.0))

    def test_scaler_width_must_match_the_models(self):
        scaler = Scaler(np.zeros(3), np.ones(3), 0.0, 1.0)
        with pytest.raises(ValueError, match="scaler has 3 inputs, the models 2"):
            make_sensor([([1.0, 2.0], 0.0)], scaler=scaler)
        with pytest.raises(ValueError, match="scaler has 3 inputs, the models 2"):
            make_sensor([([1.0, 2.0], 0.0), ([0.0, 1.0], 0.0)],
                        two_class_logic([1.0, 0.0], 0.0), scaler)

    def test_switching_pair_count(self):
        h = Hyperplane(np.array([1.0]), 0.0)
        with pytest.raises(ValueError, match="hyperplanes"):
            SwitchingLogic((h,), 3)

    def test_vote_order_independent_of_hyperplane_storage(self):
        # aggregation is per class, so the stored order cannot matter; verify
        # by comparing against a manual tally on random logic
        rng = np.random.default_rng(6)
        hps = tuple(Hyperplane(rng.normal(size=2), rng.normal()) for _ in range(6))
        logic = SwitchingLogic(hps, 4)
        for _ in range(20):
            x = rng.normal(size=2)
            votes = np.zeros(4, dtype=int)
            for h, (r, s) in zip(hps, logic.pairs):
                votes[(r if h.w @ x + h.b_w >= 0 else s) - 1] += 1
            assert region(x, logic) == int(votes.argmax()) + 1


class TestSerialization:
    def test_dataset_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        ds = Dataset(rng.uniform(size=(12, 2)), rng.uniform(size=12))
        path = tmp_path / "data.csv"
        core.save_dataset(ds, path)
        back = core.load_dataset(path)
        assert np.array_equal(back.inputs, ds.inputs)
        assert np.array_equal(back.outputs, ds.outputs)
        # a second write must be byte-identical
        path2 = tmp_path / "data2.csv"
        core.save_dataset(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_sensor_json_roundtrip(self, tmp_path):
        logic = two_class_logic([0.5, -1.5], 0.25)
        scaler = Scaler(np.array([0.0, 10.0]), np.array([1.0, 20.0]), -5.0, 5.0)
        sensor = make_sensor([([1.0, 2.0], 0.5), ([0.0, -1.0], 1.5)], logic, scaler)
        path = tmp_path / "sensor.json"
        core.save_sensor(sensor, path)
        back = core.load_sensor(path)
        assert back.n_cl == 2
        x = np.array([0.3, 0.8])
        assert predict(x, back) == pytest.approx(predict(x, sensor))
        path2 = tmp_path / "sensor2.json"
        core.save_sensor(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_sensor_schema_mismatch(self, tmp_path):
        path = tmp_path / "sensor.json"
        sensor = make_sensor([([1.0], 0.0)])
        core.save_sensor(sensor, path)
        doc = json.loads(path.read_text())
        doc["schema"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(core.SchemaError, match="expected 1, found 99"):
            core.load_sensor(path)

    def test_sensor_pairs_out_of_order_refused(self):
        hps = tuple(Hyperplane(np.array([1.0, float(k)]), 0.0) for k in range(1, 4))
        sensor = make_sensor([([1.0, 0.0], 0.0), ([0.0, 1.0], 0.0), ([1.0, 1.0], 0.0)],
                             SwitchingLogic(hps, 3))
        doc = core.sensor_to_dict(sensor)
        assert doc["pairs"] == [[1, 2], [1, 3], [2, 3]]
        doc["pairs"] = [[1, 3], [1, 2], [2, 3]]
        with pytest.raises(ValueError, match=r"pairs: .*found \[\[1, 3\], \[1, 2\], \[2, 3\]\]"):
            core.sensor_from_dict(doc)

    @pytest.mark.parametrize("key", ["models", "hyperplanes", "pairs", "schema", "n_cl", "n_p"])
    def test_sensor_missing_key_is_named(self, key):
        hps = tuple(Hyperplane(np.array([1.0, float(k)]), 0.0) for k in range(1, 4))
        sensor = make_sensor([([1.0, 0.0], 0.0), ([0.0, 1.0], 0.0), ([1.0, 1.0], 0.0)],
                             SwitchingLogic(hps, 3))
        doc = core.sensor_to_dict(sensor)
        del doc[key]
        with pytest.raises(ValueError, match=f"sensor: missing key '{key}'"):
            core.sensor_from_dict(doc)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(n_cl=2), "sensor: key 'n_cl': the models give 1, found 2"),
        (lambda d: d.update(n_p=7), "sensor: key 'n_p': the models give 2, found 7"),
        (lambda d: d.update(n_cl=True), "sensor: key 'n_cl': expected a number, found true"),
        (lambda d: d.update(hyperplanes=[{"w": [1.0, 0.0], "b_w": 0.0}]),
         "sensor: key 'hyperplanes': expected 0, one per pair of models, found 1"),
        (lambda d: d.update(pairs=[[1, 2]]), r"pairs: .*found \[\[1, 2\]\]"),
        (lambda d: d.update(n_cl=2, n_p=7, hyperplanes=[{"w": [1.0, 0.0], "b_w": 0.0}],
                            pairs=[[1, 2]]), r"pairs: .*found \[\[1, 2\]\]"),
    ], ids=["n_cl", "n_p", "n_cl-bool", "hyperplane", "pair", "two-class-claim"])
    def test_one_model_document_must_agree_with_its_model(self, edit, message):
        doc = core.sensor_to_dict(make_sensor([([1.0, 2.0], 0.5)]))
        assert (doc["n_cl"], doc["n_p"], doc["hyperplanes"], doc["pairs"]) == (1, 2, [], [])
        core.sensor_from_dict(doc)
        edit(doc)
        with pytest.raises(ValueError, match=message):
            core.sensor_from_dict(doc)

    @pytest.mark.parametrize("doc", [[], "sensor", None])
    def test_sensor_root_that_is_not_an_object_refused(self, doc):
        with pytest.raises(ValueError, match="sensor: expected a JSON object"):
            core.sensor_from_dict(doc)

    def test_sensor_model_missing_key_is_named(self):
        doc = core.sensor_to_dict(make_sensor([([1.0], 0.0)]))
        del doc["models"][0]["b_p"]
        with pytest.raises(ValueError, match="model: missing key 'b_p'"):
            core.sensor_from_dict(doc)

    @pytest.mark.parametrize("key", ["input_min", "input_max", "output_min", "output_max"])
    def test_scaler_missing_key_is_named(self, key):
        doc = Scaler(np.array([0.0]), np.array([10.0]), 100.0, 200.0).to_dict()
        del doc[key]
        with pytest.raises(ValueError, match=f"scaler: missing key '{key}'"):
            Scaler.from_dict(doc)
        with pytest.raises(ValueError, match="scaler: expected a JSON object"):
            Scaler.from_dict([doc])

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(metadata=None),
         "sensor: key 'metadata': expected a JSON object, found null"),
        (lambda d: d.update(models=5), "sensor: key 'models': expected a list, found 5"),
        (lambda d: d["models"][1].update(b_p=None),
         "model: key 'b_p': expected a number, found null"),
        (lambda d: d["models"][0].update(b_p="0.5"),
         "model: key 'b_p': expected a number, found \"0.5\""),
        (lambda d: d.update(hyperplanes=None),
         "sensor: key 'hyperplanes': expected a list, found null"),
        (lambda d: d["hyperplanes"][0].update(b_w=True),
         "hyperplane: key 'b_w': expected a number, found true"),
        (lambda d: d.update(pairs=None), "sensor: key 'pairs': expected a list, found null"),
        (lambda d: d.update(pairs=[[None, 2]]), r"pairs: .*found \[\[null, 2\]\]"),
        (lambda d: d.update(scaler=0), "scaler: expected a JSON object"),
        (lambda d: d.update(scaler=[]), "scaler: expected a JSON object"),
    ], ids=["metadata-null", "models-number", "b_p-null", "b_p-string", "hyperplanes-null",
            "b_w-bool", "pairs-null", "pair-null", "scaler-number", "scaler-empty-list"])
    def test_sensor_value_of_the_wrong_type_is_named(self, edit, message):
        doc = core.sensor_to_dict(make_sensor([([1.0, 2.0], 0.5), ([0.0, -1.0], 1.5)],
                                              two_class_logic([0.5, -1.5], 0.25)))
        edit(doc)
        with pytest.raises(ValueError, match=message):
            core.sensor_from_dict(doc)

    @pytest.mark.parametrize("key, value, message", [
        ("output_min", None, "expected a number, found null"),
        ("output_max", [1], "expected a number, found \\[1\\]"),
        ("input_min", 0.0, "expected a list, found 0.0"),
        ("input_max", None, "expected a list, found null"),
    ], ids=["output_min-null", "output_max-list", "input_min-number", "input_max-null"])
    def test_scaler_value_of_the_wrong_type_is_named(self, key, value, message):
        doc = Scaler(np.array([0.0]), np.array([10.0]), 100.0, 200.0).to_dict()
        doc[key] = value
        with pytest.raises(ValueError, match=f"scaler: key '{key}': {message}"):
            Scaler.from_dict(doc)

    @pytest.mark.parametrize("key, value", [("input_min", [None]), ("output_max", np.inf)],
                             ids=["input_min-null-entry", "output_max-inf"])
    def test_scaler_with_a_non_finite_entry_is_refused(self, key, value):
        doc = Scaler(np.array([0.0]), np.array([10.0]), 100.0, 200.0).to_dict()
        doc[key] = value
        with pytest.raises(ValueError, match="scaler has non-finite entries"):
            Scaler.from_dict(doc)

    def test_predict_raw_uses_scaler(self):
        scaler = Scaler(np.array([0.0]), np.array([10.0]), 100.0, 200.0)
        sensor = make_sensor([([1.0], 0.0)], scaler=scaler)  # y_norm = x_norm
        assert sensor.predict_raw([5.0]) == pytest.approx(150.0)
