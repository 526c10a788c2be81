import csv
import io
import re
import sys
import time

import numpy as np
import pytest

from superklust import Dataset, _nearest, make_gaussian_blobs, predict, to_discriminants
from superklust.bench import (
    BenchConfig,
    emit_report,
    knn_fit,
    knn_predict,
    run_benchmark,
    synthetic_benchmark_data,
    time_op,
)
from conftest import random_labeled_model, run_capped


class TestTimeOp:
    def test_sleep_measured_in_ms(self):
        stat = time_op(lambda: time.sleep(0.05), repetitions=2)
        assert 45.0 <= stat.mean_ms <= 250.0
        assert stat.repetitions == 2

    def test_single_repetition_has_zero_std(self):
        stat = time_op(lambda: None, repetitions=1)
        assert stat.std_ms == 0.0

    def test_warmup_runs_are_untimed_but_executed(self):
        calls = []
        stat = time_op(lambda: calls.append(1), repetitions=3, warmup=2)
        assert len(calls) == 5
        assert stat.repetitions == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="repetitions"):
            time_op(lambda: None, repetitions=0)
        with pytest.raises(ValueError, match="warmup"):
            time_op(lambda: None, repetitions=1, warmup=-1)


def knn_oracle(model, X):
    """Per-query quadratic scan with the documented tie rules: neighbors
    by (distance, training index), votes to the lowest class id."""
    out = np.empty(len(X), dtype=np.int64)
    for i, x in enumerate(np.asarray(X, dtype=np.float64)):
        d2 = ((model.X - x) ** 2).sum(axis=1)
        order = np.lexsort((np.arange(len(d2)), d2))
        votes = model.y[order[: model.n_neighbors]]
        out[i] = np.bincount(votes, minlength=model.n_classes).argmax()
    return out


class TestKnn:
    def test_memorized_point(self):
        train = Dataset(
            X=np.array([[0.0, 0.0], [5.0, 5.0]]), y=np.array([1, 0]), n_classes=2
        )
        model = knn_fit(train, n_neighbors=1)
        np.testing.assert_array_equal(knn_predict(model, train.X), train.y)

    def test_vote_tie_goes_to_lowest_class(self):
        train = Dataset(
            X=np.array([[0.0, 0.0], [2.0, 0.0]]), y=np.array([1, 0]), n_classes=2
        )
        model = knn_fit(train, n_neighbors=2)
        np.testing.assert_array_equal(knn_predict(model, [[1.0, 0.0]]), [0])

    def test_class_ids_whose_pair_key_passes_int64(self):
        # query 2 x n_classes 4e18 passes int64: the votes sort as pairs
        C = 4 * 10**18
        train = Dataset(X=[[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]], y=[C - 1, 2, C - 1], n_classes=C)
        model = knn_fit(train, n_neighbors=1)
        np.testing.assert_array_equal(knn_predict(model, train.X), train.y)

    def test_distance_tie_goes_to_lowest_training_index(self):
        train = Dataset(
            X=np.array([[-1.0, 0.0], [1.0, 0.0]]), y=np.array([1, 0]), n_classes=2
        )
        model = knn_fit(train, n_neighbors=1)
        np.testing.assert_array_equal(knn_predict(model, [[0.0, 0.0]]), [1])

    def test_agrees_with_quadratic_oracle(self):
        rng = np.random.default_rng(40)
        train = Dataset(
            X=rng.normal(size=(60, 3)),
            y=rng.integers(4, size=60),
            n_classes=4,
        )
        for k in (1, 3, 5):
            model = knn_fit(train, n_neighbors=k)
            queries = rng.normal(size=(50, 3))
            np.testing.assert_array_equal(
                knn_predict(model, queries), knn_oracle(model, queries)
            )

    def test_agrees_with_quadratic_oracle_on_vote_ties(self):
        # grid rows (distance ties), few neighbors among many classes (vote ties)
        rng = np.random.default_rng(42)
        for _ in range(40):
            n, C = int(rng.integers(1, 40)), int(rng.integers(1, 60))
            train = Dataset(X=rng.integers(-3, 4, size=(n, 2)).astype(float),
                            y=rng.integers(C, size=n), n_classes=C)
            model = knn_fit(train, n_neighbors=int(rng.integers(1, n + 1)))
            queries = rng.integers(-4, 5, size=(int(rng.integers(0, 30)), 2)) * 0.5
            np.testing.assert_array_equal(
                knn_predict(model, queries), knn_oracle(model, queries)
            )

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
    def test_huge_class_count_votes_in_its_input(self):
        # the vote costs queries x n_neighbors, not queries x n_classes
        code = (
            "import numpy as np\n"
            "from superklust import Dataset\n"
            "from superklust.bench import knn_fit, knn_predict\n"
            "train = Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]]), "
            "[999_999_999, 7, 7], n_classes=10**9)\n"
            "print(knn_predict(knn_fit(train, 2), [[0.4, 0.0], [4.0, 0.0]]).tolist())\n"
        )
        proc = run_capped(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[7, 7]\n"

    def test_training_row_beyond_float32_reach(self, monkeypatch):
        # a training row past 2^63, the float32 screen's safe reach, sends
        # every query to the exact path, without a warning
        rng = np.random.default_rng(41)
        X = rng.normal(size=(30, 3))
        X[7] = [2.0**64, 0.0, 0.0]
        train = Dataset(X=X, y=rng.integers(3, size=30), n_classes=3)
        queries = np.concatenate([rng.normal(size=(20, 3)), [[2.0**64, 1.0, 0.0]]])
        exact, exact_rows = _nearest.nearest_among, []

        def counting(Q, P, cand, k=1):
            exact_rows.append(Q.shape[0])
            return exact(Q, P, cand, k)

        monkeypatch.setattr(_nearest, "nearest_among", counting)
        for k in (1, 3):
            model = knn_fit(train, n_neighbors=k)
            exact_rows.clear()
            np.testing.assert_array_equal(
                knn_predict(model, queries), knn_oracle(model, queries)
            )
            assert sum(exact_rows) == len(queries)

    def test_training_data_is_copied(self):
        train = Dataset(X=np.array([[1.0, 1.0]]), y=np.array([0]), n_classes=1)
        model = knn_fit(train, n_neighbors=1)
        train.X[0, 0] = 99.0
        assert model.X[0, 0] == 1.0
        # the bank searches that copy itself, not one of its own
        assert model.bank.points is model.X and model.bank.labels is model.y

    def test_neighbor_count_validation(self):
        train = Dataset(X=np.zeros((3, 2)), y=np.zeros(3, dtype=np.int64), n_classes=1)
        for bad in (0, 4):
            with pytest.raises(ValueError, match="n_neighbors"):
                knn_fit(train, n_neighbors=bad)

    def test_dimension_mismatch(self):
        train = Dataset(X=np.zeros((3, 2)), y=np.zeros(3, dtype=np.int64), n_classes=1)
        model = knn_fit(train, n_neighbors=1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            knn_predict(model, np.zeros((1, 3)))

    def test_non_finite_query_row_named(self):
        train = Dataset(X=np.eye(3), y=np.array([0, 1, 1]), n_classes=2)
        model = knn_fit(train, n_neighbors=1)
        for X, row in (([[np.nan, 0, 0], [np.inf, 0, 0], [0, 0, 0]], 0),
                       ([[0, 0, 0], [0, 0, 0], [0, -np.inf, np.nan]], 2)):
            with pytest.raises(ValueError, match=f"^non-finite feature in query row {row}$"):
                knn_predict(model, X)


class TestSyntheticBenchmarkData:
    @pytest.mark.parametrize(
        "name,train_n,test_n",
        [("moons", 2000, 1000), ("circles", 2000, 1000), ("blobs", 2000, 500)],
    )
    def test_shapes(self, name, train_n, test_n):
        train, test = synthetic_benchmark_data(name, seed=0)
        assert train.n == train_n and test.n == test_n
        assert train.d == test.d == 2
        assert train.n_classes == test.n_classes

    def test_deterministic_and_split_independent(self):
        a_train, a_test = synthetic_benchmark_data("moons", seed=3)
        b_train, b_test = synthetic_benchmark_data("moons", seed=3)
        np.testing.assert_array_equal(a_train.X, b_train.X)
        np.testing.assert_array_equal(a_test.X, b_test.X)
        assert not np.array_equal(a_train.X[:1000], a_test.X)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown synthetic dataset"):
            synthetic_benchmark_data("spirals")


def tiny_entry(seed=50):
    centers = [[0.0, 0.0], [8.0, 8.0]]
    train = make_gaussian_blobs(40, centers=centers, sigma=1.0, seed=seed)
    test = make_gaussian_blobs(20, centers=centers, sigma=1.0, seed=seed + 1)
    return ("tiny", train, test)


def quick_config(**overrides):
    base = dict(k=2, seed=0, n_restarts=1, repetitions=1, warmup=0, knn_neighbors=3)
    base.update(overrides)
    return BenchConfig(**base)


class TestRunBenchmark:
    def test_cell_structure(self):
        report = run_benchmark([tiny_entry()], ["superklust", "knn"], quick_config())
        assert report.datasets == ["tiny"]
        assert report.algos == ["superklust", "knn"]
        for algo in report.algos:
            cell = report.cells[("tiny", algo)]
            assert cell.error is None
            assert 0.0 <= cell.accuracy <= 1.0
            assert cell.train.mean_ms > 0.0
            assert cell.infer.mean_ms > 0.0
        assert report.config["datasets"] == ["tiny"]
        assert report.config["k"] == 2

    def test_environment_recorded(self):
        env = run_benchmark([tiny_entry()], ["superklust"], quick_config()).config["env"]
        assert set(env) == {"threads", "numpy", "cpu_count"}
        assert env["threads"] is None or (isinstance(env["threads"], int) and env["threads"] >= 1)
        assert env["numpy"] == np.__version__
        assert env["cpu_count"] is None or isinstance(env["cpu_count"], int)

    def test_rerun_reproduces_accuracies(self):
        first = run_benchmark([tiny_entry()], ["superklust", "knn"], quick_config())
        second = run_benchmark([tiny_entry()], ["superklust", "knn"], quick_config())
        for algo in ("superklust", "knn"):
            assert (
                first.cells[("tiny", algo)].accuracy
                == second.cells[("tiny", algo)].accuracy
            )

    def test_missing_dataset_recorded_not_raised(self, tmp_path):
        report = run_benchmark(
            ["letter", tiny_entry()],
            ["superklust"],
            quick_config(data_dir=str(tmp_path)),
        )
        failed = report.cells[("letter", "superklust")]
        assert failed.error is not None and "FileNotFoundError" in failed.error
        ok = report.cells[("tiny", "superklust")]
        assert ok.error is None and ok.accuracy == 1.0

    def test_overflowing_standardization_recorded_per_cell(self):
        # finite rows whose standard deviation overflows float64
        X = np.array([[1e308, 0.0], [-1e308, 1.0]])
        spread = ("spread", Dataset(X=X, y=np.array([0, 1]), n_classes=2),
                  Dataset(X=X, y=np.array([0, 1]), n_classes=2))
        report = run_benchmark([spread, tiny_entry()], ["superklust", "knn"], quick_config())
        assert report.datasets == ["spread", "tiny"]
        for algo in ("superklust", "knn"):
            assert report.cells[("spread", algo)].error == (
                "ValueError: feature column 0: standard deviation overflows float64"
            )
            ok = report.cells[("tiny", algo)]
            assert ok.error is None and ok.accuracy == 1.0

    def test_empty_message_recorded_as_type_name(self, monkeypatch):
        from superklust import bench

        def out_of_memory(*args):
            raise MemoryError()

        monkeypatch.setattr(bench, "_run_cell", out_of_memory)
        report = run_benchmark([tiny_entry()], ["superklust"], quick_config())
        assert report.cells[("tiny", "superklust")].error == "MemoryError"

    def test_unknown_algorithm_recorded_per_cell(self):
        report = run_benchmark([tiny_entry()], ["nope"], quick_config())
        cell = report.cells[("tiny", "nope")]
        assert cell.error is not None and "unknown algorithm" in cell.error

    def test_repeated_name_raises_before_any_cell(self):
        with pytest.raises(ValueError, match=r"^repeated dataset name\(s\): tiny$"):
            run_benchmark([tiny_entry(), tiny_entry(51)], ["knn"], quick_config())
        with pytest.raises(ValueError, match=r"^repeated algorithm name\(s\): knn$"):
            run_benchmark(["blobs"], ["knn", "superklust", "knn"], quick_config())

    def test_synthetic_by_name(self):
        report = run_benchmark(["blobs"], ["superklust"], quick_config(k=3))
        cell = report.cells[("blobs", "superklust")]
        assert cell.error is None
        assert cell.accuracy >= 0.8


class TestEmitReport:
    def make_report(self):
        return run_benchmark([tiny_entry()], ["superklust", "knn"], quick_config())

    def test_markdown_structure(self):
        text = emit_report(self.make_report(), format="markdown")
        assert text.count("## ") == 3
        assert "## Test accuracy" in text
        assert "## Training time (ms), mean(std)" in text
        assert "## Inference time (ms), mean(std)" in text
        header_lines = [l for l in text.splitlines() if l.startswith("| algorithm")]
        assert header_lines == ["| algorithm | tiny |"] * 3
        assert re.search(r"\| superklust \| \d\.\d{3} \|", text)
        assert re.search(r"\| knn \| \d+\.\d\(\d+\.\d\) \|", text)

    def test_markdown_error_cell(self, tmp_path):
        report = run_benchmark(
            ["letter"], ["superklust"], quick_config(data_dir=str(tmp_path))
        )
        text = emit_report(report, format="markdown")
        assert "| superklust | error |" in text

    def test_csv_round_trips_floats(self):
        report = self.make_report()
        text = emit_report(report, format="csv")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        for row in rows:
            cell = report.cells[(row["dataset"], row["algorithm"])]
            assert float(row["accuracy"]) == cell.accuracy
            assert float(row["train_mean_ms"]) == cell.train.mean_ms
            assert float(row["infer_std_ms"]) == cell.infer.std_ms
            assert int(row["repetitions"]) == 1
            assert row["error"] == ""

    def test_csv_error_row(self, tmp_path):
        report = run_benchmark(
            ["letter"], ["knn"], quick_config(data_dir=str(tmp_path))
        )
        text = emit_report(report, format="csv")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[0]["accuracy"] == ""
        assert "FileNotFoundError" in rows[0]["error"]

    def test_markdown_escapes_pipes(self, tmp_path):
        report = run_benchmark(["a|b"], ["knn"], quick_config(data_dir=str(tmp_path)))
        text = emit_report(report, format="markdown")
        header, separator = [l for l in text.splitlines() if l.startswith("|")][:2]
        assert header == r"| algorithm | a\|b |"
        cells = [re.split(r"(?<!\\)\|", line) for line in (header, separator)]
        assert len(cells[0]) == len(cells[1]) == 4

    @pytest.mark.parametrize("name, shown", [("a\nb", r"a\nb"), ("a\rb", r"a\rb")],
                             ids=["newline", "carriage-return"])
    def test_markdown_escapes_line_breaks(self, tmp_path, name, shown):
        report = run_benchmark([name], ["knn"], quick_config(data_dir=str(tmp_path)))
        text = emit_report(report, format="markdown")
        assert "\r" not in text
        for table in text.split("## ")[1:]:
            _, header, separator, *rows = [l for l in table.splitlines() if l]
            assert header == f"| algorithm | {shown} |"
            assert rows == ["| knn | error |"]
            assert all(line.startswith("|") and line.endswith("|")
                       for line in [header, separator, *rows])
            count = len(separator.split("|"))
            assert all(len(line.split("|")) == count for line in [header, *rows])

    def test_csv_error_and_name_read_back_unaltered(self, tmp_path):
        # every error holds '"' and ','; the names hold them, '\r' and '\n'
        names = ["it's", 'a,"b', "it's\rb", "it's\nb"]
        report = run_benchmark(names, ["knn"], quick_config(data_dir=str(tmp_path)))
        text = emit_report(report, format="csv")
        rows = list(csv.DictReader(io.StringIO(text, newline="")))
        assert [(row["dataset"], row["algorithm"]) for row in rows] == [
            (name, "knn") for name in names
        ]
        for row in rows:
            error = report.cells[(row["dataset"], "knn")].error
            assert '"' in error and "," in error
            assert row["error"] == error

    def test_empty_report(self):
        from superklust.bench import BenchReport

        empty = BenchReport(datasets=[], algos=[], cells={})
        md = emit_report(empty, format="markdown")
        assert md.count("## ") == 3
        csv_text = emit_report(empty, format="csv")
        assert csv_text.splitlines() == [
            "dataset,algorithm,accuracy,train_mean_ms,train_std_ms,"
            "infer_mean_ms,infer_std_ms,repetitions,error"
        ]

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format"):
            emit_report(self.make_report(), format="yaml")


class TestInferenceSpeed:
    def test_linear_form_inference_beats_brute_force_knn(self):
        # letter-recognition shape: 16 features, 26 classes, large
        # training set; the discriminant path is one small matmul while
        # KNN scans every training point per query
        rng = np.random.default_rng(60)
        n_train, n_test, d, n_classes = 8000, 2000, 16, 26
        train = Dataset(
            X=rng.normal(size=(n_train, d)),
            y=rng.integers(n_classes, size=n_train),
            n_classes=n_classes,
        )
        queries = rng.normal(size=(n_test, d))

        model = random_labeled_model(rng, d=d, n_gen=20 * n_classes, n_classes=n_classes)
        bank = to_discriminants(model)
        knn = knn_fit(train, n_neighbors=3)

        pwl = time_op(lambda: predict(bank, queries), repetitions=3, warmup=1)
        brute = time_op(lambda: knn_predict(knn, queries), repetitions=3, warmup=1)
        assert brute.mean_ms >= 5.0 * pwl.mean_ms
