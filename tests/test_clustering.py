import sys

import numpy as np
import pytest

from superklust import (
    Dataset,
    KMeansConfig,
    UsageError,
    clustering,
    fit,
    fit_kmeans,
    kmeans_pp_init,
    lloyd,
)
from conftest import kmeans_oracle, kmeans_pp_oracle, lloyd_oracle, run_capped


def nearest_assignment(data, centers):
    """Independent per-sample nearest-center scan (ties to lowest index)."""
    out = np.empty(len(data), dtype=np.intp)
    for i, x in enumerate(data):
        d2 = ((centers - x) ** 2).sum(axis=1)
        out[i] = int(d2.argmin())
    return out


def check_fixed_point(data, result, max_iter=100):
    """Recompute assignments and per-cluster means from scratch: a run
    that stopped before max_iter returns them bit for bit."""
    assert result.iterations < max_iter
    assign = nearest_assignment(data, result.centers)
    assert np.array_equal(assign, result.assignments)
    means = np.array([data[assign == j].mean(axis=0) for j in range(result.centers.shape[0])])
    np.testing.assert_array_equal(result.centers, means)
    assert result.inertia == float(np.square(data - means[assign]).sum())


def inertia_steps(data, init, steps):
    """Inertia after 0, 1, ..., steps Lloyd updates from init: step 0
    from init's own nearest assignment, step t from lloyd(max_iter=t)."""
    first = float(np.square(data - init[nearest_assignment(data, init)]).sum())
    return np.array([first] + [lloyd(data, init, max_iter=t).inertia for t in range(1, steps + 1)])


class TestKMeansPlusPlusInit:
    def test_single_row(self):
        centers = kmeans_pp_init(np.array([[2.0, 3.0]]), k=1, seed=0)
        np.testing.assert_array_equal(centers, [[2.0, 3.0]])

    def test_k_equals_n_returns_every_row(self):
        # chosen rows get zero selection weight, so k=n distinct rows
        # forces the center set to equal the data set
        rng = np.random.default_rng(5)
        data = rng.normal(size=(12, 3))
        centers = kmeans_pp_init(data, k=12, seed=99)
        assert centers.shape == (12, 3)
        got = {tuple(row) for row in centers}
        want = {tuple(row) for row in data}
        assert got == want

    def test_deterministic_and_members_of_data(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(20, 2))
        a = kmeans_pp_init(data, k=3, seed=42)
        b = kmeans_pp_init(data, k=3, seed=42)
        np.testing.assert_array_equal(a, b)
        rows = {tuple(r) for r in data}
        for center in a:
            assert tuple(center) in rows

    def test_k_larger_than_n(self):
        data = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert kmeans_pp_init(data, k=5, seed=0).shape == (2, 2)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty input"):
            kmeans_pp_init(np.empty((0, 2)), k=1, seed=0)

    def test_non_finite(self):
        with pytest.raises(ValueError, match="non-finite feature"):
            kmeans_pp_init(np.array([[1.0, np.nan]]), k=1, seed=0)

    def test_bad_k(self):
        with pytest.raises(ValueError, match="k must be"):
            kmeans_pp_init(np.array([[1.0]]), k=0, seed=0)

    def test_draw_never_passes_the_last_row(self, monkeypatch):
        # The weights are 1e16 and 998 ones. Added in sequence, each one rounds
        # away; the pairwise sum keeps most of them. A draw of u just below 1
        # against that larger sum would aim past the last cumulative weight.
        class EdgeStream:
            def integers(self, n):
                return 0

            def random(self):
                return np.nextafter(1.0, 0.0)

        data = np.zeros((1000, 3))
        data[1:, 0] = 1.0
        data[1, 0] = 1e8
        monkeypatch.setattr(np.random, "default_rng", lambda seed: EdgeStream())
        np.testing.assert_array_equal(kmeans_pp_init(data, k=2, seed=0), data[[0, 1]])
        for centers in kmeans_pp_init(data, k=2, seed=[0, 1]):
            np.testing.assert_array_equal(centers, data[[0, 1]])
        np.testing.assert_array_equal(kmeans_pp_oracle(data, 2, 0), data[[0, 1]])

    @pytest.mark.parametrize("seed", range(3))
    def test_overflowing_distances(self, seed):
        # finite rows whose squared distances exceed float64: no weight
        # can be drawn, whichever row comes first
        data = np.array([[1e160, 0.0], [0.0, 1.0], [1.0, 1.0]])
        message = r"^k-means\+\+: squared distances between rows overflow float64$"
        with pytest.raises(ValueError, match=message):
            kmeans_pp_init(data, k=2, seed=seed)


class TestLloyd:
    def test_separated_colocated_clusters(self):
        data = np.concatenate([np.zeros((10, 2)), np.full((10, 2), 10.0)])
        result = lloyd(data, np.array([[1.0, 1.0], [9.0, 9.0]]))
        np.testing.assert_array_equal(result.centers, [[0.0, 0.0], [10.0, 10.0]])
        assert result.inertia == 0.0

    def test_fixed_point_init_is_returned_unchanged(self):
        data = np.concatenate([np.zeros((5, 2)), np.full((5, 2), 10.0)])
        init = np.array([[0.0, 0.0], [10.0, 10.0]])
        result = lloyd(data, init)
        np.testing.assert_array_equal(result.centers, init)
        assert result.iterations <= 1

    def test_random_instance_reaches_fixed_point(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(30, 2))
        result = lloyd(data, kmeans_pp_init(data, 3, seed=1))
        check_fixed_point(data, result)

    def test_inertia_never_rises(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(50, 4))
        init = kmeans_pp_init(data, 5, seed=2)
        result = lloyd(data, init)
        steps = inertia_steps(data, init, result.iterations + 1)
        assert (np.diff(steps) <= 0).all()
        assert steps[-2] == steps[-1] == result.inertia  # the fixed point stays put

    def test_max_iter_stops_early(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(50, 4))
        init = kmeans_pp_init(data, 5, seed=2)
        assert lloyd(data, init).iterations > 2
        result = lloyd(data, init, max_iter=2)
        assert result.iterations == 2
        # the assignments and inertia are those of the returned centers
        np.testing.assert_array_equal(result.assignments, nearest_assignment(data, result.centers))
        assert result.inertia == float(np.square(data - result.centers[result.assignments]).sum())

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            lloyd(np.zeros((4, 2)), np.zeros((1, 3)))

    def test_non_finite_data(self):
        with pytest.raises(ValueError, match="non-finite feature"):
            lloyd(np.array([[np.inf, 0.0]]), np.zeros((1, 2)))


class TestFitKmeans:
    def test_two_blobs_exact_centers(self):
        data = np.concatenate([np.zeros((10, 2)), np.full((10, 2), 10.0)])
        result = fit_kmeans(data, KMeansConfig(k=2, seed=0))
        got = {tuple(row) for row in result.centers}
        assert got == {(0.0, 0.0), (10.0, 10.0)}
        assert result.inertia == 0.0

    def test_k_one_returns_column_mean(self):
        rng = np.random.default_rng(21)
        data = rng.normal(size=(17, 3))
        result = fit_kmeans(data, KMeansConfig(k=1, seed=4))
        np.testing.assert_array_equal(result.centers, data.mean(axis=0)[None, :])

    def test_fewer_distinct_points_than_k(self):
        data = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        result = fit_kmeans(data, KMeansConfig(k=4, seed=7))
        assert result.centers.shape[0] == 3

    def test_duplicate_rows_drop_to_distinct_count(self):
        data = np.array([[0.0, 0.0]] * 3 + [[5.0, 0.0]] * 2 + [[0.0, 5.0]])
        result = fit_kmeans(data, KMeansConfig(k=5, seed=7))
        assert result.centers.shape[0] == 3
        assert result.inertia == 0.0

    def test_bit_identical_across_runs(self):
        rng = np.random.default_rng(30)
        data = rng.normal(size=(40, 3))
        config = KMeansConfig(k=4, seed=12)
        a = fit_kmeans(data, config)
        b = fit_kmeans(data, config)
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        assert a.inertia == b.inertia
        assert a.iterations == b.iterations

    def test_translation_equivariance(self):
        rng = np.random.default_rng(31)
        data = rng.normal(size=(60, 2))
        shift = np.array([100.5, -40.25])
        config = KMeansConfig(k=3, seed=9)
        base = fit_kmeans(data, config)
        shifted = fit_kmeans(data + shift, config)
        tol = 1e-9 * (1.0 + float(np.linalg.norm(shift)))
        np.testing.assert_allclose(shifted.centers, base.centers + shift, atol=tol, rtol=0)
        np.testing.assert_array_equal(shifted.assignments, base.assignments)

    def test_restart_dominance(self):
        rng = np.random.default_rng(32)
        data = rng.normal(size=(80, 2)) + np.repeat(
            rng.uniform(-5, 5, (4, 2)), 20, axis=0
        )
        single = fit_kmeans(data, KMeansConfig(k=4, n_restarts=1, seed=17))
        multi = fit_kmeans(data, KMeansConfig(k=4, n_restarts=5, seed=17))
        assert multi.inertia <= single.inertia

    def test_fixed_point_over_random_instances(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            n = int(rng.integers(10, 80))
            d = int(rng.integers(1, 6))
            k = int(rng.integers(1, 7))
            data = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
            config = KMeansConfig(k=k, seed=int(rng.integers(1 << 32)))
            result = fit_kmeans(data, config)
            check_fixed_point(data, result)
            inertias = []
            for r in range(config.n_restarts):
                init = kmeans_pp_init(data, k, config.seed + r)
                run = lloyd(data, init)
                steps = inertia_steps(data, init, run.iterations)
                assert (np.diff(steps) <= 0).all()
                assert steps[-1] == run.inertia
                inertias.append(run.inertia)
            assert result.inertia == min(inertias)


def assert_same_run(got, want):
    np.testing.assert_array_equal(got.centers, want.centers)
    np.testing.assert_array_equal(got.assignments, want.assignments)
    assert got.inertia == want.inertia
    assert got.iterations == want.iterations


def random_instance(rng):
    """Rows in dimension 1, 2, 16 or 617: on a coarse grid (with ties
    and duplicates) or Gaussian, sometimes resampled into duplicates."""
    d = int(rng.choice([1, 2, 16, 617]))
    n = int(rng.integers(1, 40 if d == 617 else 150))
    data = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
    if rng.random() < 0.5:
        data = np.round(data)
    if rng.random() < 0.3:
        data = data[rng.integers(n, size=n)]
    return data


class TestAgainstOracle:
    """The incremental Lloyd and the k-means++ draws made together equal
    the full-recompute, one-seed-at-a-time algorithm bit for bit."""

    def test_random_instances(self):
        rng = np.random.default_rng(40)
        for _ in range(300):
            data = random_instance(rng)
            config = KMeansConfig(
                k=int(rng.integers(1, min(2 * data.shape[0] + 2, 25))),  # k > n too
                max_iter=int(rng.choice([1, 2, 100])),
                n_restarts=int(rng.integers(1, 5)),
                seed=int(rng.integers(1 << 32)),
            )
            assert_same_run(fit_kmeans(data, config), kmeans_oracle(data, config))

    def test_seed_sequence_equals_per_seed_calls(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            data = random_instance(rng)
            k, seeds = int(rng.integers(1, 25)), rng.integers(1 << 32, size=int(rng.integers(1, 5)))
            together = kmeans_pp_init(data, k, seeds.tolist())
            assert len(together) == seeds.size
            for seed, centers in zip(seeds.tolist(), together):
                np.testing.assert_array_equal(centers, kmeans_pp_init(data, k, seed))
                np.testing.assert_array_equal(centers, kmeans_pp_oracle(data, k, seed))

    def test_cluster_empties_mid_run(self):
        # after the first update the centers are 1, 5, 3; then rows 2 and 4
        # tie and go to the lower index, and cluster 2 empties
        data = np.array([[1.0], [2.0], [4.0], [5.0]])
        init = np.array([[0.0], [6.0], [3.0]])
        assert lloyd(data, init, max_iter=1).centers.shape == (3, 1)
        result = lloyd(data, init)
        np.testing.assert_array_equal(result.centers, [[1.5], [4.5]])
        assert_same_run(result, lloyd_oracle(data, init, 100))
        for max_iter in (1, 2, 3):
            assert_same_run(lloyd(data, init, max_iter), lloyd_oracle(data, init, max_iter))
        # small grids from grid centers, a few of which empty a cluster mid-run
        rng = np.random.default_rng(42)
        emptied = 0
        for _ in range(400):
            d = int(rng.choice([1, 2]))
            data = rng.integers(0, 10, size=(int(rng.integers(4, 12)), d)).astype(float)
            init = rng.integers(0, 10, size=(int(rng.integers(2, 6)), d)).astype(float)
            result = lloyd(data, init)
            assert_same_run(result, lloyd_oracle(data, init, 100))
            emptied += result.centers.shape[0] < lloyd(data, init, 1).centers.shape[0]
        assert emptied > 0

    def test_center_sums_keep_data_order(self):
        # Two clusters, far apart in feature 0, whose rows interleave in data
        # order. Feature 1 holds 1e16, 1 and -1e16, so its float sums depend on
        # the order of the rows: only data order gives the oracle's means.
        rng = np.random.default_rng(43)
        for _ in range(50):
            n = int(rng.integers(20, 60))
            data = np.stack(
                [rng.choice([-1e18, 1e18], n), rng.choice([1e16, 1.0, -1e16, 3.0], n)], axis=1
            )
            init = np.array([[-1e18, 0.0], [1e18, 0.0]])
            for max_iter in (1, 100):
                assert_same_run(lloyd(data, init, max_iter), lloyd_oracle(data, init, max_iter))

    def test_restarts_drawn_together_on_heavy_duplicates(self):
        # Few distinct rows, many copies of each: the weights near zero are
        # recomputed for every restart at once, and some restarts run out of
        # positive weight and draw uniformly.
        rng = np.random.default_rng(44)
        for _ in range(40):
            shape = (int(rng.integers(1, 6)), int(rng.choice([1, 2, 16])))
            distinct = rng.integers(-3, 4, size=shape).astype(float)
            data = distinct[rng.integers(shape[0], size=int(rng.integers(5, 120)))]
            k, seeds = int(rng.integers(1, 10)), rng.integers(1 << 32, size=int(rng.integers(2, 6)))
            together = kmeans_pp_init(data, k, seeds.tolist())
            for seed, centers in zip(seeds.tolist(), together):
                np.testing.assert_array_equal(centers, kmeans_pp_init(data, k, seed))
                np.testing.assert_array_equal(centers, kmeans_pp_oracle(data, k, seed))


class TestKMeansConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"k": 1, "max_iter": 0},
            {"k": 1, "n_restarts": 0},
            {"k": 2.5},
            {"k": "3"},
            {"k": True},
            {"k": np.float64(2.0)},
            {"k": 1, "max_iter": 10.0},
            {"k": 1, "n_restarts": 1.5},
            {"k": 1, "n_restarts": False},
            {"k": 1, "seed": 0.5},
            {"k": 1, "seed": -1},
            {"k": 1, "seed": None},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError, match=r"^\w+ must be an integer >= [01], got "):
            KMeansConfig(**kwargs)

    def test_accepts_python_and_numpy_integers(self):
        config = KMeansConfig(k=np.int32(3), max_iter=np.int64(5), n_restarts=2, seed=np.uint8(250))
        assert config == KMeansConfig(k=3, max_iter=5, n_restarts=2, seed=250)
        assert all(type(v) is int for v in (config.k, config.max_iter, config.seed))
        data = np.arange(12.0).reshape(6, 2)
        want = fit_kmeans(data, KMeansConfig(k=3, max_iter=5, n_restarts=2, seed=250))
        assert_same_run(fit_kmeans(data, config), want)


# Each fitting entry on a request over the 2^26-value budget, and the
# request its UsageError names: 10^8 restarts of 40 moons rows (20 a
# class), or Lloyd's screen of 9000 centers on 9000 rows.
BUDGET_CASES = {
    "fit": ("fit(moons, KMeansConfig(k=2, n_restarts=10**8))", "n_restarts 100000000 x 20 rows"),
    "fit_kmeans": ("fit_kmeans(moons.X, KMeansConfig(k=2, n_restarts=10**8))",
                   "n_restarts 100000000 x 40 rows"),
    "kmeans_pp_init": ("kmeans_pp_init(moons.X, 2, range(10**8))",
                       "n_restarts 100000000 x 40 rows"),
    "lloyd": ("lloyd(tall, tall)", "9000 centers x 9000 rows"),
}


class TestBudget:
    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
    @pytest.mark.parametrize("call, refused", BUDGET_CASES.values(), ids=BUDGET_CASES)
    def test_refused_before_allocating(self, call, refused):
        code = (
            "import time\n"
            "import numpy as np\n"
            "from superklust import (KMeansConfig, UsageError, fit, fit_kmeans, kmeans_pp_init,\n"
            "                        lloyd, make_moons)\n"
            "moons, tall = make_moons(40, 0.1, 0), np.arange(9000.0)[:, None]\n"
            "start = time.perf_counter()\n"
            "try:\n"
            f"    {call}\n"
            "except UsageError as exc:\n"
            "    print(time.perf_counter() - start, exc, sep='\\n')\n"
        )
        proc = run_capped(code)
        assert proc.returncode == 0, proc.stderr
        seconds, message = proc.stdout.splitlines()
        assert float(seconds) < 5.0
        assert message.startswith(refused + " would take ")
        assert message.endswith(" float64 values, over 2^26 (512 MiB)")

    def test_limit_is_inclusive(self, monkeypatch):
        # with a budget of 100 values, 10 x 10 of either array is allowed and 11 x 10 is not
        monkeypatch.setattr(clustering, "MAX_VALUES", 100)
        data = np.arange(10.0)[:, None]
        assert len(kmeans_pp_init(data, 1, range(10))) == 10
        with pytest.raises(UsageError, match="^n_restarts 11 x 10 rows would take 110 "):
            kmeans_pp_init(data, 1, range(11))
        assert lloyd(data, data).centers.shape == (10, 1)
        with pytest.raises(UsageError, match="^11 centers x 10 rows would take 110 "):
            lloyd(data, np.arange(11.0)[:, None])

    def test_fit_counts_its_largest_class(self, monkeypatch):
        # 10 restarts of two 10-row classes: 100 weights per class, though 200 rows in all
        monkeypatch.setattr(clustering, "MAX_VALUES", 100)
        train = Dataset(X=np.arange(20.0)[:, None], y=np.repeat([0, 1], 10), n_classes=2)
        assert fit(train, KMeansConfig(k=10, n_restarts=10)).n_classes == 2
        with pytest.raises(UsageError, match="^n_restarts 11 x 10 rows would take 110 "):
            fit(train, KMeansConfig(k=10, n_restarts=11))
