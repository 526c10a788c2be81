import base64
import json
from dataclasses import replace
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
    ScalerParams,
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
from superklust import _nearest, tessellation
from conftest import random_labeled_model


def multi_pass_correct(model, train, max_passes=100):
    """The correction loop that correct() once ran: passes repeat until
    one changes nothing, or max_passes. correct() makes one pass and
    must return the same model, correction_iterations included."""
    y = np.asarray(train.y)
    X = tessellation._scaled(model, train.X)
    points, labels, sources = model.points, model.labels, model.source_classes
    x_norms = np.sqrt(_nearest.sq_norms(X))
    passes = 0
    while passes < max_passes:
        passes += 1
        assign = _nearest.nearest(X, points, x_norms)
        G, C = points.shape[0], model.n_classes
        counts = np.bincount(assign * C + y, minlength=G * C).reshape(G, C)
        tied = counts == counts.max(axis=1, keepdims=True)
        new_labels = np.where(tied[np.arange(G), labels], labels, tied.argmax(axis=1))
        occupied = counts.any(axis=1)
        changed = bool((new_labels != labels).any() or not occupied.all())
        points, labels, sources = points[occupied], new_labels[occupied], sources[occupied]
        if not changed:
            break
    return replace(model, points=points, labels=labels, source_classes=sources,
                   correction_iterations=model.correction_iterations + passes)


def two_sided_model():
    """x < 0 -> class 0, x > 0 -> class 1, ties -> class 0 (index 0)."""
    return Model(
        points=[[-1.0, 0.0], [1.0, 0.0]], labels=[0, 1], source_classes=[0, 1], n_classes=2, k=1
    )


class TestAssemble:
    def test_two_singleton_classes(self):
        model = assemble([np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]])])
        assert len(model.labels) == 2
        assert model.labels.tolist() == [0, 1]
        assert model.source_classes.tolist() == [0, 1]
        np.testing.assert_array_equal(model.points, [[0.0, 0.0], [1.0, 1.0]])
        assert model.correction_iterations == 0

    def test_concatenation_order_and_k_default(self):
        rng = np.random.default_rng(0)
        c0, c1 = rng.normal(size=(3, 2)), rng.normal(size=(5, 2))
        model = assemble([c0, c1])
        assert len(model.labels) == 8
        assert model.labels.tolist() == [0, 0, 0, 1, 1, 1, 1, 1]
        np.testing.assert_array_equal(model.points, np.concatenate([c0, c1]))
        assert model.k == 5

    def test_empty_class_contributes_nothing(self):
        model = assemble([np.empty((0, 2)), np.array([[4.0, 5.0]])])
        assert len(model.labels) == 1
        assert model.labels[0] == 1
        assert model.n_classes == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            assemble([np.zeros((1, 2)), np.zeros((1, 3))])

    def test_zero_total_generators(self):
        with pytest.raises(ValueError, match="zero total generators"):
            assemble([np.empty((0, 2)), np.empty((0, 2))])


class TestModelValidation:
    def test_budget_enforced(self):
        with pytest.raises(ValueError, match="budget"):
            Model(points=[[0.0], [1.0], [2.0]], labels=[0, 0, 0], source_classes=[0, 0, 0],
                  n_classes=1, k=2)

    def test_label_range_enforced(self):
        with pytest.raises(ValueError, match="label"):
            Model(points=[[0.0]], labels=[2], source_classes=[0], n_classes=2, k=1)

    @pytest.mark.parametrize("source", [5, -1])
    def test_source_class_range_enforced(self, source):
        with pytest.raises(ValueError, match="source_classes entry"):
            Model(points=[[0.0]], labels=[0], source_classes=[source], n_classes=1, k=1)

    @pytest.mark.parametrize(
        "labels", [[0.0], [True], [0, 0], [[0]]], ids=["float", "bool", "too-many", "matrix"]
    )
    def test_labels_must_be_one_integer_per_generator(self, labels):
        with pytest.raises(ValueError, match="integer class ids"):
            Model(points=[[0.0]], labels=labels, source_classes=[0], n_classes=1, k=2)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_classes", 0), ("n_classes", True), ("n_classes", 2.0),
            ("k", 0), ("k", 1.5), ("k", True), ("k", "1"),
            ("correction_iterations", -1), ("correction_iterations", True),
            ("correction_iterations", 1.0), ("correction_iterations", None),
        ],
    )
    def test_scalar_fields_enforced(self, field, value):
        # each value here used to build a Model whose saved bytes load_model
        # rejected, or (a bool) reloaded as the integer
        scalars = {"n_classes": 2, "k": 2, "correction_iterations": 0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be a (positive|nonnegative) integer$"):
            Model(points=[[0.0]], labels=[0], source_classes=[0], **scalars)

    def test_numpy_integer_fields_stored_as_int(self):
        model = Model(points=[[0.0]], labels=[0], source_classes=[0], n_classes=np.int64(2),
                      k=np.int32(1), correction_iterations=np.uint8(2))
        assert (model.n_classes, model.k, model.correction_iterations) == (2, 1, 2)
        assert {type(model.n_classes), type(model.k), type(model.correction_iterations)} == {int}
        assert load_model(save_model(model)) == model

    def test_dimension_enforced(self):
        # the points form one (G, d) matrix, and a scaler has d entries
        with pytest.raises(ValueError, match=r"\(G, d\) matrix"):
            Model(points=[0.0, 0.0], labels=[0], source_classes=[0], n_classes=1, k=1)
        scaler = ScalerParams(mean=np.zeros(3), scale=np.ones(3))
        with pytest.raises(ValueError, match="dimension"):
            Model(points=[[0.0, 0.0]], labels=[0], source_classes=[0], n_classes=1, k=1,
                  scaler=scaler)

    def test_non_finite_point_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Model(points=[[np.nan]], labels=[0], source_classes=[0], n_classes=1, k=1)

    def test_arrays_are_read_only_copies(self):
        points, labels = np.array([[1.0, 2.0]]), np.array([0])
        model = Model(points=points, labels=labels, source_classes=labels, n_classes=1, k=1)
        points[0, 0] = labels[0] = 9
        assert model.points.tolist() == [[1.0, 2.0]] and model.labels.tolist() == [0]
        assert model.points.dtype == np.float64 and model.labels.dtype == np.int64
        for array in (model.points, model.labels, model.source_classes):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        assert model.d == 2

    def test_generators_view(self):
        model = Model(points=[[0.0, 1.0], [2.0, 3.0]], labels=[1, 0], source_classes=[0, 0],
                      n_classes=2, k=1)
        gens = model.generators
        assert all(isinstance(g, Generator) for g in gens)
        assert [(g.point.tolist(), g.label, g.source_class) for g in gens] == [
            ([0.0, 1.0], 1, 0), ([2.0, 3.0], 0, 0)
        ]
        assert np.shares_memory(gens[1].point, model.points)


class TestDiscriminants:
    def test_zero_generator(self):
        bank = to_discriminants(
            Model(points=[[0.0, 0.0]], labels=[0], source_classes=[0], n_classes=1, k=1)
        )
        np.testing.assert_array_equal(bank.weights, [[0.0, 0.0]])
        assert bank.biases[0] == 0.0

    def test_three_four_generator(self):
        bank = to_discriminants(
            Model(points=[[3.0, 4.0]], labels=[0], source_classes=[0], n_classes=1, k=1)
        )
        np.testing.assert_array_equal(bank.weights, [[6.0, 8.0]])
        assert bank.biases[0] == -25.0

    def test_three_dim_generator(self):
        bank = to_discriminants(
            Model(points=[[1.0, -1.0, 2.0]], labels=[0], source_classes=[0], n_classes=1, k=1)
        )
        np.testing.assert_array_equal(bank.weights, [[2.0, -2.0, 4.0]])
        assert bank.biases[0] == -6.0

    def test_labels_copied_in_order(self):
        rng = np.random.default_rng(1)
        model = random_labeled_model(rng, d=4)
        bank = to_discriminants(model)
        np.testing.assert_array_equal(bank.labels, model.labels)
        assert bank.weights.shape == (len(model.labels), 4)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_one_copy_of_the_forms(self, dtype):
        rng = np.random.default_rng(1)
        model = random_labeled_model(rng, d=4)
        bank = to_discriminants(model, dtype=dtype)
        G = len(model.labels)
        # weights and biases are views into the G * (d + 1) floats of forms
        assert bank.forms.shape == (5, G) and bank.forms.dtype == dtype
        assert bank.forms.flags.owndata
        assert np.shares_memory(bank.weights, bank.forms)
        assert np.shares_memory(bank.biases, bank.forms)
        assert bank.weights.shape == (G, 4) and bank.biases.shape == (G,)


class TestPredict:
    def test_nearer_generator_wins(self):
        model = Model(
            points=[[0.0, 0.0], [10.0, 0.0]], labels=[0, 1], source_classes=[0, 1],
            n_classes=2, k=1,
        )
        bank = to_discriminants(model)
        np.testing.assert_array_equal(predict(bank, [[1.0, 0.0]]), [0])
        np.testing.assert_array_equal(predict(bank, [[9.0, 0.0]]), [1])

    def test_exact_tie_goes_to_lowest_index(self):
        # index 0 carries label 1 so the tie rule is observable
        model = Model(
            points=[[-1.0, 0.0], [1.0, 0.0]], labels=[1, 0], source_classes=[1, 0],
            n_classes=2, k=1,
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

    def test_first_non_finite_row_named(self):
        bank = to_discriminants(two_sided_model())
        X = np.zeros((8, 2))
        X[3, 0] = np.inf
        X[5, 1] = np.nan
        with pytest.raises(ValueError, match="^non-finite feature in query row 3$"):
            predict(bank, X)

    @pytest.mark.parametrize("block_entries", [64, 1 << 20], ids=["blocks", "one-block"])
    def test_scaler_applied_like_scaled_rows(self, monkeypatch, block_entries):
        # the bank's in-place scaling equals scaling the rows first, bit for bit
        monkeypatch.setattr(_nearest, "BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(31)
        model = random_labeled_model(rng, d=3, n_gen=12)
        scaler = ScalerParams(mean=rng.normal(50.0, 9.0, 3), scale=rng.uniform(0.5, 40.0, 3))
        X = rng.normal(50.0, 30.0, (300, 3))
        raw = X.copy()
        scaled = (X - scaler.mean) / scaler.scale
        bank = to_discriminants(replace(model, scaler=scaler))
        assert bank.scaler is not None
        want = predict(to_discriminants(model), scaled)
        np.testing.assert_array_equal(predict(bank, X), want)
        np.testing.assert_array_equal(predict_oracle(replace(model, scaler=scaler), X), want)
        np.testing.assert_array_equal(X, raw)  # the caller's rows are not scaled

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

    def test_float32_bank_matches_separate_bias_pass(self):
        # the same data as test_float32_bank; the reference scores with a
        # GEMM of the weights, then adds the biases in a second pass
        train = make_gaussian_blobs(
            50, centers=[[0.0, 0.0], [40.0, 40.0], [-40.0, 40.0]], sigma=1.0, seed=4
        )
        bank32 = to_discriminants(fit(train, KMeansConfig(k=2, seed=0)), dtype=np.float32)
        queries = np.random.default_rng(5).normal(0.0, 30.0, (500, 2))
        scores = queries.astype(np.float32) @ bank32.weights.T
        scores += bank32.biases
        np.testing.assert_array_equal(predict(bank32, queries), bank32.labels[scores.argmax(axis=1)])


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
            points=[[0.0, 0.0], [10.0, 10.0]], labels=[1, 0], source_classes=[1, 0],
            n_classes=2, k=1,
        )
        fixed = correct(swapped, train)
        assert fixed.labels.tolist() == [0, 1]
        assert fixed.source_classes.tolist() == [1, 0]
        assert fixed.correction_iterations == 2
        assert evaluate(fixed, train) == 1.0

    def test_unoccupied_generator_removed(self):
        train = self.blob_train()
        model = Model(
            points=[[0.0, 0.0], [10.0, 10.0], [500.0, 500.0]], labels=[0, 1, 0],
            source_classes=[0, 1, 0], n_classes=2, k=2,
        )
        fixed = correct(model, train)
        assert len(fixed.labels) == 2
        np.testing.assert_array_equal(fixed.points, model.points[:2])

    def test_already_consistent_increments_by_one(self):
        train = self.blob_train()
        model = Model(
            points=[[0.0, 0.0], [10.0, 10.0]], labels=[0, 1], source_classes=[0, 1],
            n_classes=2, k=1,
        )
        once = correct(model, train)
        assert once == replace(model, correction_iterations=1)
        twice = correct(once, train)
        assert twice == replace(once, correction_iterations=2)
        assert twice.correction_iterations == 2

    def test_majority_tie_keeps_current_label(self):
        train = Dataset(
            X=np.array([[-1.0, 0.0], [-0.5, 0.0], [0.5, 0.0], [1.0, 0.0]]),
            y=np.array([0, 0, 1, 1]),
            n_classes=2,
        )
        model = Model(points=[[0.0, 0.0]], labels=[1], source_classes=[1], n_classes=2, k=1)
        fixed = correct(model, train)
        assert fixed.labels[0] == 1
        assert fixed.correction_iterations == 1

    def test_majority_tie_without_current_takes_lowest_class(self):
        train = Dataset(
            X=np.array([[-1.0, 0.0], [-0.5, 0.0], [0.5, 0.0], [1.0, 0.0]]),
            y=np.array([1, 1, 0, 0]),
            n_classes=3,
        )
        model = Model(points=[[0.0, 0.0]], labels=[2], source_classes=[2], n_classes=3, k=1)
        fixed = correct(model, train)
        assert fixed.labels[0] == 0

    def test_single_pass_chain_reaches_multi_pass_endpoint(self):
        rng = np.random.default_rng(7)
        model = random_labeled_model(rng, d=2)
        train = Dataset(
            X=rng.normal(0.0, 3.0, (120, 2)),
            y=rng.integers(model.n_classes, size=120),
            n_classes=model.n_classes,
        )
        full = correct(model, train)
        assert full.correction_iterations == 2
        step = model
        for _ in range(full.correction_iterations):
            step = multi_pass_correct(step, train, max_passes=1)
        assert step == full
        # full is a fixed point: another pass changes nothing but the count
        assert correct(full, train) == replace(full, correction_iterations=3)

    def test_matches_multi_pass_reference(self):
        # random rows, and rows and points rounded to integers, which have
        # distance ties and duplicate generators; then a second correct
        rng = np.random.default_rng(71)
        for trial in range(60):
            d = int(rng.integers(1, 4))
            model = random_labeled_model(rng, d=d)
            n = int(rng.integers(5, 120))
            X = rng.normal(0.0, 3.0, (n, d))
            if trial % 2:
                X = X.round()
                model = replace(model, points=model.points.round())
            train = Dataset(
                X=X, y=rng.integers(model.n_classes, size=n), n_classes=model.n_classes
            )
            once = correct(model, train)
            assert once == multi_pass_correct(model, train)
            twice = correct(once, train)
            assert twice == multi_pass_correct(once, train)
            assert twice == replace(once, correction_iterations=once.correction_iterations + 1)

    def test_one_nearest_scan_per_call(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return _nearest.nearest(*args)

        monkeypatch.setattr(tessellation, "nearest", counting)
        train = self.blob_train()
        # a relabel and a prune: the rule counts two passes, correct scans once
        model = Model(
            points=[[0.0, 0.0], [10.0, 10.0], [500.0, 500.0]], labels=[1, 1, 0],
            source_classes=[0, 1, 0], n_classes=2, k=2,
        )
        fixed = correct(model, train)
        assert fixed.correction_iterations == 2 and len(calls) == 1
        assert correct(fixed, train).correction_iterations == 3 and len(calls) == 2

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
                stage = correct(stage, train)
                after = evaluate(stage, train)
                assert after >= before
                before = after

    def test_scaled_model_takes_raw_rows(self):
        train = self.blob_train()
        scaler = ScalerParams(mean=[5.0, 5.0], scale=[2.0, 4.0])
        raw = Dataset(X=train.X * scaler.scale + scaler.mean, y=train.y, n_classes=2)
        model = Model(points=[[0.0, 0.0], [10.0, 10.0]], labels=[1, 0], source_classes=[1, 0],
                      n_classes=2, k=1)
        fixed = correct(replace(model, scaler=scaler), raw)
        assert fixed == replace(correct(model, Dataset(
            X=(raw.X - scaler.mean) / scaler.scale, y=train.y, n_classes=2)), scaler=scaler)

    def test_empty_training_set_rejected(self):
        empty = SimpleNamespace(X=np.empty((0, 2)), y=np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError, match="empty"):
            correct(two_sided_model(), empty)

    def test_dimension_mismatch(self):
        train = Dataset(X=np.zeros((2, 3)), y=np.array([0, 1]), n_classes=2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            correct(two_sided_model(), train)

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
            got = correct(model, train)
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
        assert len(model.labels) <= 2 * 2

    def test_moons_generator_budget(self):
        train = make_moons(400, noise=0.1, seed=11)
        for k in (3, 10, 17):
            model = fit(train, KMeansConfig(k=k, seed=0))
            for c in (0, 1):
                per_class = int((model.source_classes == c).sum())
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
        assert len(model.labels) <= 3
        assert (model.labels == 0).all()
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

    def test_keeps_label_names(self):
        train = make_moons(100, noise=0.2, seed=14)
        config = KMeansConfig(k=2, seed=3)
        unnamed = fit(train, config)
        train.label_names = ("upper", "lower")
        named = fit(train, config)
        assert named.label_names == ("upper", "lower") and unnamed.label_names is None
        assert named == replace(unnamed, label_names=("upper", "lower"))


class TestEvaluate:
    def test_all_correct(self):
        train = self_train = make_gaussian_blobs(
            50, centers=[[0.0, 0.0], [50.0, 0.0]], sigma=0.5, seed=15
        )
        model = fit(train, KMeansConfig(k=1, seed=0))
        assert evaluate(model, self_train) == 1.0

    def test_constant_predictor_on_balanced_set(self):
        model = Model(points=[[0.0, 0.0]], labels=[0], source_classes=[0], n_classes=2, k=1)
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

    def test_float_bytes_pinned(self):
        point = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 0.30000000000000004]
        model = Model(points=[point], labels=[0], source_classes=[0], n_classes=1, k=1)
        assert save_model(model) == (
            b'{"version":2,"d":5,"n_classes":1,"k":1,"correction_iterations":0,"labels":[0],'
            b'"source_classes":[0],"points":"AAAAAAAAAIABAAAAAAAAAP///////+9/mpmZmZmZuT80MzMzMzPTPw=="}\n'
        )
        loaded = load_model(save_model(model))
        assert loaded == model
        assert loaded.points.tobytes() == model.points.tobytes()  # -0.0 included
        v1 = (
            b'{"version":1,"d":5,"n_classes":1,"k":1,"correction_iterations":0,"generators":'
            b'[{"point":[-0.0,5e-324,1.7976931348623157e+308,0.1,0.30000000000000004],'
            b'"label":0,"source_class":0}]}\n'
        )
        assert load_model(v1) == model
        assert load_model(v1).points.tobytes() == model.points.tobytes()

    def test_round_trip_from_str(self):
        model = self.fitted_model()
        assert load_model(save_model(model).decode("utf-8")) == model

    def test_document_shape(self):
        model = self.fitted_model()
        doc = json.loads(save_model(model))
        assert list(doc) == [
            "version", "d", "n_classes", "k", "correction_iterations",
            "labels", "source_classes", "points",
        ]
        assert doc["version"] == 2
        assert doc["d"] == 2 and doc["n_classes"] == 2 and doc["k"] == 4
        assert doc["labels"] == model.labels.tolist()
        assert doc["source_classes"] == model.source_classes.tolist()
        assert base64.b64decode(doc["points"]) == model.points.astype("<f8").tobytes()

    def test_minimal_document_accepted(self):
        doc = {
            "version": 1,
            "d": 2,
            "n_classes": 2,
            "k": 1,
            "generators": [{"point": [1.0, 2.0], "label": 1}],
        }
        model = load_model(json.dumps(doc))
        assert model.labels.tolist() == [1] and model.source_classes.tolist() == [1]
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

    @pytest.mark.parametrize(
        "change,error",
        [
            ({"points": "AAAAAAAAAA!="}, MalformedModelError),
            ({"points": "AAAAAAAAAA\u00e9="}, MalformedModelError),
            ({"points": "AAAAAAAA"}, MalformedModelError),
            ({"points": ["AAAAAAAAAAA="]}, MalformedModelError),
            ({"points": None}, MalformedModelError),
            ({"labels": [True]}, MalformedModelError),
            ({"labels": [1.5]}, MalformedModelError),
            ({"labels": [1]}, MalformedModelError),
            ({"labels": [-1]}, MalformedModelError),
            ({"labels": []}, MalformedModelError),
            ({"source_classes": [2]}, MalformedModelError),
            ({"labels": [0, 0], "points": "AAAAAAAAAAAAAAAAAAAAAA=="}, MalformedModelError),
            (
                {"k": 1, "labels": [0, 0], "source_classes": [0, 0],
                 "points": "AAAAAAAAAAAAAAAAAAAAAA=="},
                MalformedModelError,
            ),
            ({"label_names": "a"}, MalformedModelError),
            ({"label_names": ["a", "b"]}, MalformedModelError),
            ({"n_classes": 2, "label_names": ["a", "a"]}, MalformedModelError),
            ({"n_classes": 2, "label_names": ["a", 1]}, MalformedModelError),
            ({"scaler": [0.0, 1.0]}, MalformedModelError),
            ({"scaler": "AAAAAAAAAA!="}, MalformedModelError),
            ({"scaler": base64.b64encode(b"\0" * 24).decode()}, MalformedModelError),
            ({"scaler": base64.b64encode(np.array([0.0, np.nan]).tobytes()).decode()},
             NonFiniteModelError),
            ({"scaler": base64.b64encode(np.array([0.0, 0.0]).tobytes()).decode()},
             MalformedModelError),
            ({"scaler": base64.b64encode(np.array([0.0, -1.0]).tobytes()).decode()},
             MalformedModelError),
            ({"d": True}, MalformedModelError),
            ({"n_classes": None}, MalformedModelError),
            ({"n_classes": 0}, MalformedModelError),
            ({"k": True}, MalformedModelError),
            ({"k": 1.5}, MalformedModelError),
            ({"correction_iterations": -1}, MalformedModelError),
            ({"correction_iterations": 1.0}, MalformedModelError),
        ],
        ids=[
            "non-base64", "non-ascii", "truncated", "points-array", "points-missing",
            "label-true", "label-float", "label-range", "label-negative", "no-labels",
            "source-range", "lengths-differ", "over-budget", "names-string", "names-count",
            "names-repeated", "names-number", "scaler-array", "scaler-non-base64",
            "scaler-length", "scaler-non-finite", "scaler-zero-scale", "scaler-negative-scale",
            "d-true", "n-classes-missing", "n-classes-zero", "k-true", "k-float",
            "iterations-negative", "iterations-float",
        ],
    )
    def test_malformed_v2_documents(self, change, error):
        # a None value in change removes the key; the valid document has
        # no scaler, whose valid form is checked by the scaler round trip
        doc = {
            "version": 2, "d": 1, "n_classes": 1, "k": 2, "correction_iterations": 0,
            "labels": [0], "source_classes": [0], "points": "AAAAAAAAAAA=",
        }
        load_model(json.dumps(doc))
        load_model(json.dumps({**doc, "scaler": base64.b64encode(
            np.array([0.0, 1.0]).tobytes()).decode()}))
        doc = {key: v for key, v in {**doc, **change}.items() if v is not None}
        with pytest.raises(error) as info:
            load_model(json.dumps(doc))
        assert info.value.code == error.code

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_v2_non_finite_error(self, bad):
        points = base64.b64encode(np.array([[0.0], [bad]]).astype("<f8").tobytes()).decode()
        text = (
            '{"version":2,"d":1,"n_classes":1,"k":2,"labels":[0,0],"source_classes":[0,0],'
            f'"points":"{points}"}}'
        )
        with pytest.raises(NonFiniteModelError, match="generator 1") as info:
            load_model(text)
        assert info.value.code == "non-finite"

    def test_label_names_round_trip(self):
        model = self.fitted_model()
        named = replace(model, label_names=["b", 'a,"x'])
        assert named.label_names == ("b", 'a,"x')
        blob = save_model(named)
        assert list(json.loads(blob))[-2:] == ["label_names", "points"]
        loaded = load_model(blob)
        assert loaded == named and loaded.label_names == ("b", 'a,"x')
        assert loaded != model and save_model(loaded) == blob

    def test_scaler_round_trip_is_bit_exact(self):
        model = self.fitted_model()
        scaler = ScalerParams(mean=[-0.0, 1e300], scale=[5e-324, 0.1])
        scaled = replace(model, scaler=scaler)
        blob = save_model(scaled)
        doc = json.loads(blob)
        assert list(doc)[-2:] == ["scaler", "points"]
        stored = np.stack([scaler.mean, scaler.scale]).astype("<f8").tobytes()
        assert base64.b64decode(doc["scaler"]) == stored
        loaded = load_model(blob)
        assert loaded == scaled and loaded != model and save_model(loaded) == blob
        assert loaded.scaler.mean.tobytes() == scaler.mean.tobytes()  # -0.0 included
        assert loaded.scaler.scale.tobytes() == scaler.scale.tobytes()
        # without a scaler the document has no scaler key: the same bytes as before
        assert save_model(replace(loaded, scaler=None)) == save_model(model)

    def test_id_names_stored_as_none(self):
        model = self.fitted_model()
        named = replace(model, label_names=("0", "1"))
        assert named.label_names is None and named == model
        assert save_model(named) == save_model(model)

    def test_version_error(self):
        text = '{"version":3,"d":1,"n_classes":1,"k":1,"generators":[{"point":[0.0],"label":0}]}'
        with pytest.raises(ModelVersionError) as info:
            load_model(text)
        assert info.value.code == "version"

    @pytest.mark.parametrize(
        "bad", ["Infinity", "-Infinity", "NaN", pytest.param("1" + "0" * 400, id="401-digits")]
    )
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
