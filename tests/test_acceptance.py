"""End-to-end acceptance gate.

One test per criterion; each emits a single PASS/FAIL/SKIP line in the
terminal summary (see conftest.criterion). Criteria that need the
downloaded benchmark datasets skip with an explanation when the data
directory is empty.
"""

import csv
import io
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from superklust import (
    KMeansConfig,
    assemble,
    evaluate,
    correct,
    fit,
    fit_kmeans,
    load_benchmark_dataset,
    load_model,
    make_gaussian_blobs,
    make_moons,
    predict,
    predict_oracle,
    save_model,
    standardize_apply,
    standardize_fit,
    to_discriminants,
)
from superklust.bench import knn_fit, knn_predict, time_op
from superklust.fetch import dataset_present

from conftest import benchmark_data_dir, criterion, random_labeled_model

LARGE_OPT_IN = os.environ.get("SUPERKLUST_LARGE") == "1"


def available_datasets(names):
    data_dir = benchmark_data_dir()
    return [n for n in names if dataset_present(n, data_dir)]


def test_criterion_1_pwl_equivalence():
    with criterion(1, "linear-form inference equals distance oracle") as info:
        start = time.perf_counter()
        mismatches = 0
        pairs = 0
        for d in (2, 16, 64):
            rng = np.random.default_rng(1000 + d)
            for _ in range(100):
                model = random_labeled_model(rng, d=d)
                X = rng.normal(0.0, 3.0, (100, d))
                diff = predict(to_discriminants(model), X) != predict_oracle(model, X)
                mismatches += int(diff.sum())
                pairs += X.shape[0]
        elapsed = time.perf_counter() - start
        assert pairs == 3 * 10_000
        assert mismatches == 0
        assert elapsed < 10.0
        info["detail"] = f"{pairs} pairs, 0 mismatches, {elapsed:.1f}s"


def test_criterion_2_lloyd_monotone_fixed_point():
    with criterion(2, "k-means monotonicity and fixed point") as info:
        start = time.perf_counter()
        rng = np.random.default_rng(2000)
        for _ in range(100):
            n = int(rng.integers(20, 200))
            d = int(rng.integers(1, 9))
            k = int(rng.integers(1, 9))
            data = rng.normal(0.0, float(rng.uniform(0.5, 4.0)), (n, d))
            cfg = KMeansConfig(
                k=k, n_restarts=int(rng.integers(1, 4)), seed=int(rng.integers(1 << 48))
            )
            result = fit_kmeans(data, cfg)

            hist = np.array(result.inertia_history)
            assert (np.diff(hist) <= 0.0).all()

            # recompute oracle: assignments nearest (ties lowest index),
            # centers are member means, inertia matches at rel 1e-9
            d2 = ((data[:, None, :] - result.centers[None, :, :]) ** 2).sum(axis=2)
            assert np.array_equal(d2.argmin(axis=1), result.assignments)
            inertia = 0.0
            for j in range(result.centers.shape[0]):
                members = data[result.assignments == j]
                assert members.shape[0] > 0
                mean = members.mean(axis=0)
                np.testing.assert_allclose(result.centers[j], mean, rtol=1e-9, atol=1e-9)
                inertia += float(((members - mean) ** 2).sum())
            assert result.inertia == pytest.approx(inertia, rel=1e-9, abs=1e-12)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        info["detail"] = f"100 instances, {elapsed:.1f}s"


def test_criterion_3_correction_monotone():
    with criterion(3, "correction passes never lower training accuracy") as info:
        start = time.perf_counter()
        for seed in range(20):
            train = make_moons(1000, noise=0.2, seed=seed)
            per_class = []
            for c in range(train.n_classes):
                cfg = KMeansConfig(k=10, n_restarts=1, seed=seed * 100 + c)
                per_class.append(fit_kmeans(train.X[train.y == c], cfg).centers)
            model = assemble(per_class, k=10)

            accuracies = [evaluate(model, train)]
            current = model
            terminated = False
            for _ in range(2):  # correct's output is a fixed point: the second call ends it
                step = correct(current, train)
                accuracies.append(evaluate(step, train))
                # the same generators, one pass later
                if replace(step, correction_iterations=current.correction_iterations) == current:
                    terminated = True
                    current = step
                    break
                current = step
            assert terminated
            for before, after in zip(accuracies, accuracies[1:]):
                assert after >= before
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        info["detail"] = f"20 seeds, {elapsed:.1f}s"


def test_criterion_4_separated_blobs():
    with criterion(4, "well-separated blobs classify perfectly") as info:
        start = time.perf_counter()
        centers = [[0.0, 0.0], [100.0, 0.0]]  # distance 100 x sigma
        train = make_gaussian_blobs(200, centers=centers, sigma=1.0, seed=4001)
        test = make_gaussian_blobs(200, centers=centers, sigma=1.0, seed=4002)
        model = fit(train, KMeansConfig(k=2, seed=0))
        accuracy = evaluate(model, test)
        elapsed = time.perf_counter() - start
        assert accuracy == 1.0
        assert elapsed < 1.0
        info["detail"] = f"accuracy 1.0, {elapsed:.2f}s"


REFERENCE_ACCURACY = {
    "optdigits": 0.968,
    "satimage": 0.909,
    "letter": 0.950,
    "usps": 0.938,
    "isolet": 0.938,
}


def best_grid_accuracy(name):
    train, test = load_benchmark_dataset(name, benchmark_data_dir())
    params = standardize_fit(train)
    train = standardize_apply(params, train)
    test = standardize_apply(params, test)
    best = 0.0
    for k in (5, 10, 20, 30, 40):
        for seed in (0, 1, 2):
            model = fit(train, KMeansConfig(k=k, n_restarts=4, seed=seed))
            best = max(best, evaluate(model, test))
    return best


def test_criterion_5_reference_accuracies():
    with criterion(5, "benchmark accuracies match reference values") as info:
        wanted = ["optdigits", "satimage", "letter"]
        if LARGE_OPT_IN:
            wanted += ["usps", "isolet"]
        present = available_datasets(wanted)
        if not present:
            pytest.skip(
                "no benchmark datasets fetched; this environment has no network "
                "access, run `superklust fetch` elsewhere and set DATA_DIR"
            )
        results = []
        for name in present:
            best = best_grid_accuracy(name)
            expected = REFERENCE_ACCURACY[name]
            assert abs(best - expected) <= 0.02, (
                f"{name}: best accuracy {best:.3f} outside {expected}+-0.02"
            )
            results.append(f"{name}={best:.3f}")
        missing = sorted(set(wanted) - set(present))
        detail = ", ".join(results)
        if missing:
            detail += f"; not fetched: {','.join(missing)}"
        info["detail"] = detail


def test_criterion_6_inference_speedup():
    with criterion(6, "inference at least 5x faster than brute-force knn") as info:
        if not available_datasets(["letter"]):
            pytest.skip(
                "letter dataset not fetched; this environment has no network "
                "access, run `superklust fetch letter` elsewhere and set DATA_DIR"
            )
        train, test = load_benchmark_dataset("letter", benchmark_data_dir())
        params = standardize_fit(train)
        train = standardize_apply(params, train)
        test = standardize_apply(params, test)
        bank = to_discriminants(fit(train, KMeansConfig(k=20, n_restarts=4, seed=0)))
        knn = knn_fit(train, n_neighbors=3)
        pwl = time_op(lambda: predict(bank, test.X), repetitions=10, warmup=2)
        brute = time_op(lambda: knn_predict(knn, test.X), repetitions=10, warmup=2)
        ratio = brute.mean_ms / pwl.mean_ms
        assert ratio >= 5.0
        info["detail"] = f"{pwl.mean_ms:.1f}ms vs {brute.mean_ms:.1f}ms, {ratio:.0f}x"


TABLE_SHAPES = {
    "optdigits": (3823, 1797, 64),
    "usps": (7291, 2007, 256),
    "satimage": (5144, 1286, 36),
    "letter": (16000, 4000, 16),
    "isolet": (6240, 1557, 617),
}


def test_criterion_7_loader_shapes():
    with criterion(7, "fetched datasets load with the documented shapes") as info:
        present = available_datasets(list(TABLE_SHAPES))
        if not present:
            pytest.skip(
                "no benchmark datasets fetched; this environment has no network "
                "access, run `superklust fetch --all` elsewhere and set DATA_DIR"
            )
        for name in present:
            n_train, n_test, d = TABLE_SHAPES[name]
            train, test = load_benchmark_dataset(name, benchmark_data_dir())
            assert (train.n, train.d) == (n_train, d), f"{name} train shape"
            assert (test.n, test.d) == (n_test, d), f"{name} test shape"
            assert train.n_classes == test.n_classes
        missing = sorted(set(TABLE_SHAPES) - set(present))
        detail = ",".join(present)
        if missing:
            detail += f"; not fetched: {','.join(missing)}"
        info["detail"] = detail


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "superklust", *argv], capture_output=True, text=True
    )


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "fit and benchmark runs are reproducible") as info:
        data = tmp_path / "train.csv"
        proc = run_cli("synth", "moons", "--n", "200", "--seed", "7", "--out", str(data))
        assert proc.returncode == 0, proc.stderr
        models = []
        for tag in ("a", "b"):
            out = tmp_path / f"model_{tag}.json"
            proc = run_cli(
                "fit", "--data", str(data), "--k", "5", "--seed", "3", "--out", str(out)
            )
            assert proc.returncode == 0, proc.stderr
            models.append(out.read_bytes())
        assert models[0] == models[1]

        def bench_accuracies():
            proc = run_cli(
                "bench",
                "--datasets",
                "blobs,moons",
                "--algos",
                "superklust,knn",
                "--k",
                "3",
                "--repetitions",
                "1",
                "--warmup",
                "0",
                "--format",
                "csv",
            )
            assert proc.returncode == 0, proc.stderr
            return {
                (row["dataset"], row["algorithm"]): row["accuracy"]
                for row in csv.DictReader(io.StringIO(proc.stdout))
            }

        first = bench_accuracies()
        second = bench_accuracies()
        assert first == second
        assert len(first) == 4
        info["detail"] = "byte-identical models, identical accuracies"


def test_criterion_9_model_round_trip():
    with criterion(9, "serialized models reload exactly") as info:
        rng = np.random.default_rng(9000)
        for _ in range(100):
            d = int(rng.integers(1, 20))
            model = random_labeled_model(rng, d=d)
            loaded = load_model(save_model(model))
            assert loaded == model
            X = rng.normal(0.0, 3.0, (50, d))
            np.testing.assert_array_equal(
                predict(to_discriminants(loaded), X),
                predict(to_discriminants(model), X),
            )
            assert save_model(loaded) == save_model(model)
        info["detail"] = "100 models"
