import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from superklust import (
    Dataset,
    KMeansConfig,
    fit_kmeans,
    knn_fit,
    knn_predict,
    lloyd,
    predict,
    predict_oracle,
    to_discriminants,
)
from superklust import _nearest
from superklust._nearest import k_nearest_sets, nearest, sq_norms
from conftest import random_labeled_model

ROOT = Path(__file__).resolve().parent.parent


def explicit_argmin(X, P):
    """Per-query explicit-difference scan, ties to the lowest index."""
    return np.array([int(((P - x) ** 2).sum(axis=1).argmin()) for x in X], dtype=np.intp)


def explicit_k_sets(X, P, k):
    """Per query, the first k sites by (explicit distance, index)."""
    out = []
    for x in X:
        d2 = ((P - x) ** 2).sum(axis=1)
        out.append(sorted(np.lexsort((np.arange(len(P)), d2))[:k]))
    return out


def check_nearest(X, P):
    X = np.asarray(X, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    got = nearest(X, P, np.sqrt(sq_norms(X)))
    np.testing.assert_array_equal(got, explicit_argmin(X, P))
    return got


class TestNearest:
    def test_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(1, 40))
            check_nearest(rng.normal(size=(int(rng.integers(1, 300)), d)),
                          rng.normal(size=(int(rng.integers(1, 30)), d)))

    def test_queries_on_bisectors(self):
        # the midpoint of two sites is equidistant from both
        rng = np.random.default_rng(1)
        P = rng.normal(size=(12, 5))
        i, j = np.triu_indices(12, 1)
        got = check_nearest((P[i] + P[j]) / 2, P)
        assert got.shape == (i.size,)

    def test_grid_ties_go_to_lowest_index(self):
        P = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        got = check_nearest([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [2.0, 1.0]], P)
        np.testing.assert_array_equal(got, [0, 0, 0, 1])

    def test_duplicate_sites_lowest_index_wins(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(6, 3))
        P = np.concatenate([base[3:], base, base[:3]])
        X = np.concatenate([base, rng.normal(size=(40, 3))])
        got = check_nearest(X, P)
        np.testing.assert_array_equal(got[:6], [3, 4, 5, 0, 1, 2])

    def test_near_ties_below_rounding_force_the_exact_path(self):
        # sites an ulp apart: the screen cannot tell them apart
        rng = np.random.default_rng(3)
        P = rng.normal(size=(4, 8))
        P = np.concatenate([P, np.nextafter(P, np.inf)])
        check_nearest(P + rng.normal(scale=1e-12, size=P.shape), P)
        check_nearest(np.concatenate([P, P[::-1]]), P)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e6, 1e150, 1e153, 1e200])
    def test_huge_norms(self, scale):
        rng = np.random.default_rng(4)
        P = rng.normal(size=(10, 6)) * scale
        X = np.concatenate([rng.normal(size=(30, 6)) * scale, P, (P[:5] + P[5:]) / 2])
        check_nearest(X, P)

    def test_huge_offset_small_spread(self):
        # large common offset: distances are tiny against the norms
        rng = np.random.default_rng(5)
        P = 1e6 + rng.normal(size=(10, 4))
        check_nearest(1e6 + rng.normal(size=(100, 4)), P)

    def test_single_site(self):
        rng = np.random.default_rng(6)
        got = check_nearest(rng.normal(size=(7, 3)), rng.normal(size=(1, 3)))
        np.testing.assert_array_equal(got, np.zeros(7))

    def test_single_query(self):
        rng = np.random.default_rng(7)
        check_nearest(rng.normal(size=(1, 9)), rng.normal(size=(20, 9)))

    def test_many_blocks(self):
        rng = np.random.default_rng(8)
        P = rng.integers(-2, 3, size=(600, 2)).astype(float)
        X = rng.integers(-3, 4, size=(3000, 2)) / 2.0
        check_nearest(X, P)


class TestKNearestSets:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_matches_explicit_order(self, k):
        rng = np.random.default_rng(9)
        P = rng.integers(-2, 3, size=(80, 3)).astype(float)  # many exact ties
        X = np.concatenate([rng.integers(-2, 3, size=(50, 3)) / 2.0, rng.normal(size=(50, 3))])
        got = k_nearest_sets(X, P, k, np.sqrt(sq_norms(X)))
        assert [sorted(row) for row in got] == explicit_k_sets(X, P, k)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_huge_norms_take_every_site(self):
        rng = np.random.default_rng(10)
        P = rng.normal(size=(30, 4)) * 1e200
        X = rng.normal(size=(10, 4)) * 1e200
        got = k_nearest_sets(X, P, 3, np.sqrt(sq_norms(X)))
        assert [sorted(row) for row in got] == explicit_k_sets(X, P, 3)


class TestSmallBlocks:
    """Every search split into many blocks agrees with the references."""

    @pytest.fixture(autouse=True)
    def tiny_blocks(self, monkeypatch):
        monkeypatch.setattr(_nearest, "BLOCK_ENTRIES", 64)

    def test_nearest(self):
        rng = np.random.default_rng(12)
        P = rng.integers(-2, 3, size=(30, 2)).astype(float)
        check_nearest(rng.integers(-3, 4, size=(500, 2)) / 2.0, P)

    def test_k_nearest_sets(self):
        rng = np.random.default_rng(13)
        P = rng.integers(-2, 3, size=(40, 3)).astype(float)
        X = rng.integers(-3, 4, size=(200, 3)) / 2.0
        got = k_nearest_sets(X, P, 4, np.sqrt(sq_norms(X)))
        assert [sorted(row) for row in got] == explicit_k_sets(X, P, 4)

    def test_predict(self):
        rng = np.random.default_rng(14)
        model = random_labeled_model(rng, d=4, n_gen=25)
        X = rng.normal(0.0, 3.0, size=(300, 4))
        np.testing.assert_array_equal(predict(to_discriminants(model), X), predict_oracle(model, X))


class TestKnnTies:
    def test_equal_distances_keep_training_order(self):
        # four training points at distance 1 from the query; the first
        # three by index are the neighbors, classes 2, 2, 1 -> class 2
        train = Dataset(
            X=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
            y=np.array([2, 2, 1, 0]),
            n_classes=3,
        )
        model = knn_fit(train, n_neighbors=3)
        np.testing.assert_array_equal(knn_predict(model, [[0.0, 0.0]]), [2])

    def test_duplicate_training_rows(self):
        # duplicates tie exactly; the earlier copies are the neighbors
        train = Dataset(X=np.zeros((5, 2)), y=np.array([3, 1, 1, 0, 0]), n_classes=4)
        model = knn_fit(train, n_neighbors=3)
        np.testing.assert_array_equal(knn_predict(model, [[0.5, 0.5]]), [1])
        model = knn_fit(train, n_neighbors=1)
        np.testing.assert_array_equal(knn_predict(model, [[0.5, 0.5]]), [3])


class TestLloydCenters:
    def test_centers_bit_equal_member_means(self):
        rng = np.random.default_rng(11)
        for d in (1, 3, 16):
            data = rng.normal(size=(200, d)) * 10.0 + rng.integers(-50, 50, size=(200, 1))
            result = fit_kmeans(data, KMeansConfig(k=6, seed=d))
            assert result.centers.shape[0] > 1
            for j, center in enumerate(result.centers):
                np.testing.assert_array_equal(
                    center, data[result.assignments == j].mean(axis=0)
                )

    def test_empty_cluster_dropped_means_exact(self):
        data = np.array([[0.0, 0.1], [0.2, 0.0], [10.0, 10.3], [10.1, 9.9]])
        init = np.array([[0.0, 0.0], [100.0, 100.0], [10.0, 10.0]])
        result = lloyd(data, init)
        assert result.centers.shape == (2, 2)
        np.testing.assert_array_equal(result.centers[0], data[:2].mean(axis=0))
        np.testing.assert_array_equal(result.centers[1], data[2:].mean(axis=0))


class TestNoScipy:
    def test_import_loads_no_scipy(self):
        code = (
            "import sys, superklust; "
            "bad = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]; "
            "print(bad); sys.exit(1 if bad else 0)"
        )
        env_path = str(ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": env_path, "PATH": ""},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_not_a_dependency(self):
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as f:
            deps = tomllib.load(f)["project"]["dependencies"]
        assert not [dep for dep in deps if dep.lower().startswith("scipy")]
