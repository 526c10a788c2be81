import json
from types import SimpleNamespace

import numpy as np
import pytest

from superklust import (
    Dataset,
    Generator,
    KMeansConfig,
    MalformedModelError,
    Model,
    ModelFormatError,
    ModelVersionError,
    NonFiniteModelError,
    assemble,
    correct,
    evaluate,
    fit,
    load_model,
    make_gaussian_blobs,
    make_moons,
    predict,
    predict_oracle,
    save_model,
    to_discriminants,
)
from conftest import random_labeled_model


def two_sided_model():
    """x < 0 -> class 0, x > 0 -> class 1, ties -> class 0 (index 0)."""
    return Model(
        generators=[
            Generator(point=np.array([-1.0, 0.0]), label=0, source_class=0),
            Generator(point=np.array([1.0, 0.0]), label=1, source_class=1),
        ],
        n_classes=2,
        d=2,
        k=1,
    )


class TestAssemble:
    def test_two_singleton_classes(self):
        model = assemble([np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]])])
        assert len(model.generators) == 2
        assert [g.label for g in model.generators] == [0, 1]
        assert [g.source_class for g in model.generators] == [0, 1]
        np.testing.assert_array_equal(model.points, [[0.0, 0.0], [1.0, 1.0]])
        assert model.correction_iterations == 0

    def test_concatenation_order_and_k_default(self):
        rng = np.random.default_rng(0)
        c0, c1 = rng.normal(size=(3, 2)), rng.normal(size=(5, 2))
        model = assemble([c0, c1])
        assert len(model.generators) == 8
        assert [g.label for g in model.generators] == [0, 0, 0, 1, 1, 1, 1, 1]
        np.testing.assert_array_equal(model.points, np.concatenate([c0, c1]))
        assert model.k == 5

    def test_empty_class_contributes_nothing(self):
        model = assemble([np.empty((0, 2)), np.array([[4.0, 5.0]])])
        assert len(model.generators) == 1
        assert model.generators[0].label == 1
        assert model.n_classes == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            assemble([np.zeros((1, 2)), np.zeros((1, 3))])

    def test_zero_total_generators(self):
        with pytest.raises(ValueError, match="zero total generators"):
            assemble([np.empty((0, 2)), np.empty((0, 2))])


class TestModelValidation:
    def test_budget_enforced(self):
        gens = [
            Generator(point=np.array([float(i)]), label=0, source_class=0) for i in range(3)
        ]
        with pytest.raises(ValueError, match="budget"):
            Model(generators=gens, n_classes=1, d=1, k=2)

    def test_label_range_enforced(self):
        g = Generator(point=np.array([0.0]), label=2, source_class=0)
        with pytest.raises(ValueError, match="label"):
            Model(generators=[g], n_classes=2, d=1, k=1)

    def test_dimension_enforced(self):
        g = Generator(point=np.array([0.0, 0.0]), label=0, source_class=0)
        with pytest.raises(ValueError, match="dimension"):
            Model(generators=[g], n_classes=1, d=3, k=1)

    def test_non_finite_point_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Generator(point=np.array([np.nan]), label=0, source_class=0)


class TestDiscriminants:
    def test_zero_generator(self):
        bank = to_discriminants(
            Model(
                generators=[Generator(point=np.array([0.0, 0.0]), label=0, source_class=0)],
                n_classes=1,
                d=2,
                k=1,
            )
        )
        np.testing.assert_array_equal(bank.weights, [[0.0, 0.0]])
        assert bank.biases[0] == 0.0

    def test_three_four_generator(self):
        bank = to_discriminants(
            Model(
                generators=[Generator(point=np.array([3.0, 4.0]), label=0, source_class=0)],
                n_classes=1,
                d=2,
                k=1,
            )
        )
        np.testing.assert_array_equal(bank.weights, [[6.0, 8.0]])
        assert bank.biases[0] == -25.0

    def test_three_dim_generator(self):
        bank = to_discriminants(
            Model(
                generators=[
                    Generator(point=np.array([1.0, -1.0, 2.0]), label=0, source_class=0)
                ],
                n_classes=1,
                d=3,
                k=1,
            )
        )
        np.testing.assert_array_equal(bank.weights, [[2.0, -2.0, 4.0]])
        assert bank.biases[0] == -6.0

    def test_labels_copied_in_order(self):
        rng = np.random.default_rng(1)
        model = random_labeled_model(rng, d=4)
        bank = to_discriminants(model)
        np.testing.assert_array_equal(bank.labels, model.labels)
        assert bank.weights.shape == (len(model.generators), 4)


class TestPredict:
    def test_nearer_generator_wins(self):
        model = Model(
            generators=[
                Generator(point=np.array([0.0, 0.0]), label=0, source_class=0),
                Generator(point=np.array([10.0, 0.0]), label=1, source_class=1),
            ],
            n_classes=2,
            d=2,
            k=1,
        )
        bank = to_discriminants(model)
        np.testing.assert_array_equal(predict(bank, [[1.0, 0.0]]), [0])
        np.testing.assert_array_equal(predict(bank, [[9.0, 0.0]]), [1])

    def test_exact_tie_goes_to_lowest_index(self):
        # index 0 carries label 1 so the tie rule is observable
        model = Model(
            generators=[
                Generator(point=np.array([-1.0, 0.0]), label=1, source_class=1),
                Generator(point=np.array([1.0, 0.0]), label=0, source_class=0),
            ],
            n_classes=2,
            d=2,
            k=1,
        )
        bank = to_discriminants(model)
        queries = np.column_stack([np.zeros(5), np.linspace(-2, 2, 5)])
        np.testing.assert_array_equal(predict(bank, queries), np.ones(5, dtype=np.int64))
        np.testing.assert_array_equal(predict_oracle(model, queries), np.ones(5, dtype=np.int64))

    def test_agrees_with_oracle_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = int(rng.integers(1, 8))
            model = random_labeled_model(rng, d=d)
            X = rng.normal(0.0, 3.0, (100, d))
            bank = to_discriminants(model)
            np.testing.assert_array_equal(predict(bank, X), predict_oracle(model, X))

    def test_predicted_labels_are_model_labels(self):
        rng = np.random.default_rng(3)
        model = random_labeled_model(rng, d=3)
        preds = predict(to_discriminants(model), rng.normal(size=(200, 3)))
        assert set(preds.tolist()) <= set(model.labels.tolist())

    def test_dimension_mismatch(self):
        bank = to_discriminants(two_sided_model())
        with pytest.raises(ValueError, match="dimension mismatch"):
            predict(bank, np.zeros((1, 3)))

    def test_non_finite_row_identified(self):
        bank = to_discriminants(two_sided_model())
        X = np.zeros((4, 2))
        X[2, 1] = np.nan
        with pytest.raises(ValueError, match="row 2"):
            predict(bank, X)

    def test_float32_bank(self):
        train = make_gaussian_blobs(
            50, centers=[[0.0, 0.0], [40.0, 40.0], [-40.0, 40.0]], sigma=1.0, seed=4
        )
        model = fit(train, KMeansConfig(k=2, seed=0))
        bank32 = to_discriminants(model, dtype=np.float32)
        assert bank32.weights.dtype == np.float32
        assert bank32.biases.dtype == np.float32
        bank64 = to_discriminants(model)
        queries = np.random.default_rng(5).normal(0.0, 30.0, (500, 2))
        np.testing.assert_array_equal(predict(bank32, queries), predict(bank64, queries))


class TestCorrect:
    def blob_train(self):
        # tight clusters at (0,0) class 0 and (10,10) class 1
        rng = np.random.default_rng(6)
        X = np.concatenate(
            [rng.normal(0.0, 0.2, (20, 2)), rng.normal(10.0, 0.2, (20, 2))]
        )
        return Dataset(X=X, y=np.repeat([0, 1], 20), n_classes=2)

    def test_majority_relabel(self):
        train = self.blob_train()
        swapped = Model(
            generators=[
                Generator(point=np.array([0.0, 0.0]), label=1, source_class=1),
                Generator(point=np.array([10.0, 10.0]), label=0, source_class=0),
            ],
            n_classes=2,
            d=2,
            k=1,
        )
        fixed = correct(swapped, train)
        assert [g.label for g in fixed.generators] == [0, 1]
        assert [g.source_class for g in fixed.generators] == [1, 0]
        assert fixed.correction_iterations == 2
        assert evaluate(fixed, train) == 1.0

    def test_unoccupied_generator_removed(self):
        train = self.blob_train()
        model = Model(
            generators=[
                Generator(point=np.array([0.0, 0.0]), label=0, source_class=0),
                Generator(point=np.array([10.0, 10.0]), label=1, source_class=1),
                Generator(point=np.array([500.0, 500.0]), label=0, source_class=0),
            ],
            n_classes=2,
            d=2,
            k=2,
        )
        fixed = correct(model, train)
        assert len(fixed.generators) == 2
        np.testing.assert_array_equal(fixed.points, model.points[:2])

    def test_already_consistent_increments_by_one(self):
        train = self.blob_train()
        model = Model(
            generators=[
                Generator(point=np.array([0.0, 0.0]), label=0, source_class=0),
                Generator(point=np.array([10.0, 10.0]), label=1, source_class=1),
            ],
            n_classes=2,
            d=2,
            k=1,
        )
        once = correct(model, train)
        assert once.generators == model.generators
        assert once.correction_iterations == 1
        twice = correct(once, train)
        assert twice.generators == once.generators
        assert twice.correction_iterations == 2

    def test_majority_tie_keeps_current_label(self):
        train = Dataset(
            X=np.array([[-1.0, 0.0], [-0.5, 0.0], [0.5, 0.0], [1.0, 0.0]]),
            y=np.array([0, 0, 1, 1]),
            n_classes=2,
        )
        model = Model(
            generators=[Generator(point=np.array([0.0, 0.0]), label=1, source_class=1)],
            n_classes=2,
            d=2,
            k=1,
        )
        fixed = correct(model, train)
        assert fixed.generators[0].label == 1
        assert fixed.correction_iterations == 1

    def test_majority_tie_without_current_takes_lowest_class(self):
        train = Dataset(
            X=np.array([[-1.0, 0.0], [-0.5, 0.0], [0.5, 0.0], [1.0, 0.0]]),
            y=np.array([1, 1, 0, 0]),
            n_classes=3,
        )
        model = Model(
            generators=[Generator(point=np.array([0.0, 0.0]), label=2, source_class=2)],
            n_classes=3,
            d=2,
            k=1,
        )
        fixed = correct(model, train)
        assert fixed.generators[0].label == 0

    def test_single_pass_chain_reaches_multi_pass_endpoint(self):
        rng = np.random.default_rng(7)
        model = random_labeled_model(rng, d=2)
        train = Dataset(
            X=rng.normal(0.0, 3.0, (120, 2)),
            y=rng.integers(model.n_classes, size=120),
            n_classes=model.n_classes,
        )
        full = correct(model, train)
        step = model
        for _ in range(full.correction_iterations):
            step = correct(step, train, max_passes=1)
        assert step.generators == full.generators

    def test_training_accuracy_non_decreasing(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            d = int(rng.integers(1, 5))
            model = random_labeled_model(rng, d=d)
            n = int(rng.integers(20, 150))
            train = Dataset(
                X=rng.normal(0.0, 3.0, (n, d)),
                y=rng.integers(model.n_classes, size=n),
                n_classes=model.n_classes,
            )
            before = evaluate(model, train)
            stage = model
            for _ in range(3):
                stage = correct(stage, train, max_passes=1)
                after = evaluate(stage, train)
                assert after >= before
                before = after

    def test_empty_training_set_rejected(self):
        empty = SimpleNamespace(X=np.empty((0, 2)), y=np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError, match="empty"):
            correct(two_sided_model(), empty)

    def test_dimension_mismatch(self):
        train = Dataset(X=np.zeros((2, 3)), y=np.array([0, 1]), n_classes=2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            correct(two_sided_model(), train)

    def test_bad_max_passes(self):
        with pytest.raises(ValueError, match="max_passes"):
            correct(two_sided_model(), self.blob_train(), max_passes=0)

    def test_one_pass_matches_per_generator_loop(self):
        # reference: the nearest-generator scan and the per-generator
        # majority vote written as plain loops
        rng = np.random.default_rng(70)
        for _ in range(20):
            model = random_labeled_model(rng, d=2, n_gen=int(rng.integers(2, 30)))
            n = int(rng.integers(5, 60))
            train = Dataset(
                X=rng.normal(0.0, 3.0, (n, 2)),
                y=rng.integers(model.n_classes, size=n),
                n_classes=model.n_classes,
            )
            points, labels = model.points, model.labels
            assign = np.array([((points - x) ** 2).sum(axis=1).argmin() for x in train.X])
            want_points, want_labels = [], []
            for g in range(len(points)):
                votes = np.bincount(train.y[assign == g], minlength=model.n_classes)
                if votes.sum() == 0:
                    continue
                tied = np.flatnonzero(votes == votes.max())
                want_points.append(points[g])
                want_labels.append(labels[g] if labels[g] in tied else tied[0])
            got = correct(model, train, max_passes=1)
            np.testing.assert_array_equal(got.points, np.array(want_points))
            np.testing.assert_array_equal(got.labels, want_labels)

    def test_labels_outside_model_classes(self):
        train = Dataset(X=np.zeros((3, 2)), y=np.array([0, 1, 2]), n_classes=3)
        with pytest.raises(ValueError, match="training labels"):
            correct(two_sided_model(), train)


class TestFit:
    def test_separated_blobs_perfect_accuracy(self):
        centers = [[0.0, 0.0], [100.0, 100.0]]
        train = make_gaussian_blobs(200, centers=centers, sigma=1.0, seed=9)
        test = make_gaussian_blobs(200, centers=centers, sigma=1.0, seed=10)
        model = fit(train, KMeansConfig(k=2, seed=0))
        assert evaluate(model, test) == 1.0
        assert len(model.generators) <= 2 * 2

    def test_moons_generator_budget(self):
        train = make_moons(400, noise=0.1, seed=11)
        for k in (3, 10, 17):
            model = fit(train, KMeansConfig(k=k, seed=0))
            for c in (0, 1):
                per_class = sum(1 for g in model.generators if g.source_class == c)
                assert 1 <= per_class <= k

    def test_moons_accuracy(self):
        train = make_moons(400, noise=0.1, seed=12)
        model = fit(train, KMeansConfig(k=10, seed=0))
        assert evaluate(model, train) >= 0.95

    def test_single_class_dataset(self):
        rng = np.random.default_rng(13)
        train = Dataset(
            X=rng.normal(size=(30, 2)), y=np.zeros(30, dtype=np.int64), n_classes=1
        )
        model = fit(train, KMeansConfig(k=3, seed=0))
        assert len(model.generators) <= 3
        assert all(g.label == 0 for g in model.generators)
        preds = predict(to_discriminants(model), rng.normal(size=(50, 2)))
        assert (preds == 0).all()

    def test_missing_class_rejected(self):
        train = Dataset(
            X=np.zeros((4, 2)), y=np.array([0, 0, 1, 1]), n_classes=3
        )
        with pytest.raises(ValueError, match="class 2"):
            fit(train, KMeansConfig(k=1, seed=0))

    def test_deterministic(self):
        train = make_moons(200, noise=0.2, seed=14)
        config = KMeansConfig(k=5, seed=3, n_restarts=3)
        assert fit(train, config) == fit(train, config)


class TestEvaluate:
    def test_all_correct(self):
        train = self_train = make_gaussian_blobs(
            50, centers=[[0.0, 0.0], [50.0, 0.0]], sigma=0.5, seed=15
        )
        model = fit(train, KMeansConfig(k=1, seed=0))
        assert evaluate(model, self_train) == 1.0

    def test_constant_predictor_on_balanced_set(self):
        model = Model(
            generators=[Generator(point=np.array([0.0, 0.0]), label=0, source_class=0)],
            n_classes=2,
            d=2,
            k=1,
        )
        test = Dataset(
            X=np.random.default_rng(16).normal(size=(40, 2)),
            y=np.repeat([0, 1], 20),
            n_classes=2,
        )
        assert evaluate(model, test) == 0.5

    def test_hand_counted_fraction(self):
        model = two_sided_model()
        X = np.column_stack([np.array([-2, -2, -2, -2, 2, 2, 2, -2, 2, 2], dtype=float),
                             np.zeros(10)])
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1, 0, 0])
        assert evaluate(model, Dataset(X=X, y=y, n_classes=2)) == 0.7

    def test_accepts_bank(self):
        model = two_sided_model()
        ds = Dataset(X=np.array([[-3.0, 0.0]]), y=np.array([0]), n_classes=2)
        assert evaluate(to_discriminants(model), ds) == 1.0

    def test_empty_test_set(self):
        empty = SimpleNamespace(X=np.empty((0, 2)), y=np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError, match="empty test set"):
            evaluate(two_sided_model(), empty)


class TestSerialization:
    def fitted_model(self):
        train = make_moons(200, noise=0.15, seed=17)
        return correct(
            fit(train, KMeansConfig(k=4, seed=1)), train
        )

    def test_round_trip_is_bit_exact(self):
        model = self.fitted_model()
        blob = save_model(model)
        loaded = load_model(blob)
        assert loaded == model
        assert save_model(loaded) == blob

    def test_round_trip_from_str(self):
        model = self.fitted_model()
        assert load_model(save_model(model).decode("utf-8")) == model

    def test_document_shape(self):
        model = self.fitted_model()
        doc = json.loads(save_model(model))
        assert doc["version"] == 1
        assert doc["d"] == 2 and doc["n_classes"] == 2 and doc["k"] == 4
        assert len(doc["generators"]) == len(model.generators)
        first = doc["generators"][0]
        assert set(first) == {"point", "label", "source_class"}

    def test_minimal_document_accepted(self):
        doc = {
            "version": 1,
            "d": 2,
            "n_classes": 2,
            "k": 1,
            "generators": [{"point": [1.0, 2.0], "label": 1}],
        }
        model = load_model(json.dumps(doc))
        g = model.generators[0]
        assert g.label == 1 and g.source_class == 1
        assert model.correction_iterations == 0

    @pytest.mark.parametrize(
        "text",
        [
            "not json at all",
            "[1,2,3]",
            '{"d":1,"n_classes":1,"k":1,"generators":[{"point":[0.0],"label":0}]}',
            '{"version":1,"d":0,"n_classes":1,"k":1,"generators":[]}',
            '{"version":1,"d":1,"n_classes":1,"k":1,"generators":[]}',
            '{"version":1,"d":1,"n_classes":1,"k":1,"generators":[{"point":[0.0,1.0],"label":0}]}',
            '{"version":1,"d":1,"n_classes":1,"k":1,"generators":[{"point":[true],"label":0}]}',
            '{"version":1,"d":1,"n_classes":1,"k":1,"generators":[{"point":[0.0],"label":3}]}',
            '{"version":1,"d":1,"n_classes":1,"k":1,"generators":[{"point":["x"],"label":0}]}',
        ],
    )
    def test_malformed_documents(self, text):
        with pytest.raises(MalformedModelError) as info:
            load_model(text)
        assert info.value.code == "malformed"

    def test_version_error(self):
        text = '{"version":2,"d":1,"n_classes":1,"k":1,"generators":[{"point":[0.0],"label":0}]}'
        with pytest.raises(ModelVersionError) as info:
            load_model(text)
        assert info.value.code == "version"

    @pytest.mark.parametrize("bad", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_error(self, bad):
        text = (
            '{"version":1,"d":1,"n_classes":1,"k":1,'
            f'"generators":[{{"point":[{bad}],"label":0}}]}}'
        )
        with pytest.raises(NonFiniteModelError) as info:
            load_model(text)
        assert info.value.code == "non-finite"

    def test_invalid_utf8_bytes(self):
        with pytest.raises(MalformedModelError):
            load_model(b"\xff\xfe{}")

    def test_errors_share_a_catchable_base(self):
        for exc_type in (MalformedModelError, ModelVersionError, NonFiniteModelError):
            assert issubclass(exc_type, ModelFormatError)
            assert issubclass(exc_type, ValueError)
