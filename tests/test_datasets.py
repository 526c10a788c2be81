import csv
import io

import numpy as np
import pytest

from superklust import (
    Dataset,
    ScalerParams,
    decision_grid,
    load_benchmark_dataset,
    load_csv,
    load_svmlight,
    make_circles,
    make_gaussian_blobs,
    make_moons,
    standardize_apply,
    standardize_fit,
    to_discriminants,
    write_dataset_csv,
    write_grid_csv,
)
from superklust.datasets import load_csv_features
from conftest import predict_oracle, random_labeled_model


def float_per_cell(text: str, label_column: int, skip: int = 0):
    """Reference reader: csv rows, float() on every feature cell, the
    label cell stripped."""
    rows = list(csv.reader(io.StringIO(text, newline="")))[skip:]
    label_idx = label_column % len(rows[0])
    X = [[float(c) for j, c in enumerate(row) if j != label_idx] for row in rows]
    return np.array(X, dtype=np.float64), [row[label_idx].strip() for row in rows]


def adversarial_values_csv() -> str:
    rng = np.random.default_rng(31)
    values = rng.uniform(-1.0, 1.0, 60) * 10.0 ** rng.integers(-300, 301, 60)
    cells = [repr(float(v)) for v in values]
    cells += ["-0.0", "5e-324", "2.2250738585072014e-309", "+1.5", "+2e-300", " 3.25 ", "\t-4e+300 "]
    cells += ["1e-320", "0.1", "0.30000000000000004", "123456789.12345678", "-1.7976931348623157e308"]
    rows = [cells[i : i + 6] for i in range(0, 72, 6)]
    return "".join(",".join(row) + f",c{i % 3}\n" for i, row in enumerate(rows))


class TestDatasetType:
    def test_basic_properties(self):
        ds = Dataset(X=np.zeros((3, 2)), y=np.array([0, 1, 0]), n_classes=2)
        assert ds.n == 3 and ds.d == 2
        assert ds.X.dtype == np.float64 and ds.y.dtype == np.int64

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            Dataset(X=np.empty((0, 2)), y=np.empty(0), n_classes=1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one label per row"):
            Dataset(X=np.zeros((3, 2)), y=np.array([0, 1]), n_classes=2)

    @pytest.mark.parametrize(
        "X", [np.array([[1 + 2j, 0.0]]), [[1 + 2j, 0.0]], [[None, 0.0]], [["1", "2"]]],
        ids=["complex", "complex-list", "object", "strings"],
    )
    def test_features_must_be_real(self, X):
        # refused, not truncated to their real part ([[1, 0]]), nor a TypeError
        with pytest.raises(ValueError, match="^X must hold real numbers, not "):
            Dataset(X=X, y=[0], n_classes=1)

    def test_integer_and_bool_features_become_float(self):
        for X in ([[1, 0]], np.array([[True, False]])):
            ds = Dataset(X=X, y=[0], n_classes=1)
            assert ds.X.dtype == np.float64 and ds.X.tolist() == [[1.0, 0.0]]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(X=np.array([[np.inf, 0.0]]), y=np.array([0]), n_classes=1)

    def test_label_range_rejected(self):
        with pytest.raises(ValueError, match="labels must lie"):
            Dataset(X=np.zeros((2, 1)), y=np.array([0, 2]), n_classes=2)

    @pytest.mark.parametrize(
        "y", [[0.5, 1.7], [-0.5, 1.0], [0.0, np.nan], [0.0, np.inf], [-np.inf, 1.0], [1e30, 0.0]],
        ids=["fractions", "negative-half", "nan", "inf", "-inf", "beyond-int64"],
    )
    def test_non_integer_labels_rejected(self, y):
        # not truncated to a class id; nan, inf and 1e30 without a cast warning
        with pytest.raises(ValueError, match="^labels must be integer class ids$"):
            Dataset(X=np.zeros((2, 1)), y=y, n_classes=2)

    @pytest.mark.parametrize(
        "n_classes", [2.5, 2.0, True, 0], ids=["fraction", "float", "bool", "zero"]
    )
    def test_n_classes_must_be_an_integer(self, n_classes):
        with pytest.raises(ValueError, match="^n_classes must be an integer >= 1, got "):
            Dataset(X=np.zeros((2, 1)), y=[0, 1], n_classes=n_classes)

    def test_numpy_integer_n_classes_stored_as_int(self):
        ds = Dataset(X=np.zeros((2, 1)), y=[0, 1], n_classes=np.int64(2))
        assert ds.n_classes == 2 and type(ds.n_classes) is int

    def test_integral_float_labels_accepted(self):
        ds = Dataset(X=np.zeros((3, 1)), y=[1.0, 0.0, -0.0], n_classes=2)
        assert ds.y.dtype == np.int64 and ds.y.tolist() == [1, 0, 0]

    @pytest.mark.parametrize(
        "names", [("a",), ("a", "a"), ["a", 1]], ids=["too-few", "repeated", "not-a-string"]
    )
    def test_label_names_checked_at_construction(self, names):
        with pytest.raises(ValueError, match="^label_names must be 2 distinct strings$"):
            Dataset(X=np.zeros((2, 1)), y=[0, 1], n_classes=2, label_names=names)

    def test_label_names_stored_as_a_tuple(self):
        ds = Dataset(X=np.zeros((2, 1)), y=[0, 1], n_classes=2, label_names=["b", "a"])
        assert ds.label_names == ("b", "a")
        assert Dataset(X=np.zeros((2, 1)), y=[0, 1], n_classes=2).label_names == ("0", "1")


class TestMoons:
    def test_noise_free_parametrization(self):
        n = 40
        ds = make_moons(n, noise=0.0, seed=0)
        half = n // 2
        t = np.linspace(0.0, np.pi, half)
        np.testing.assert_allclose(
            ds.X[:half], np.column_stack([np.cos(t), np.sin(t)]), atol=1e-12
        )
        np.testing.assert_allclose(
            ds.X[half:],
            np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)]),
            atol=1e-12,
        )
        np.testing.assert_array_equal(ds.y, np.repeat([0, 1], half))
        assert ds.n_classes == 2

    def test_endpoints_inclusive(self):
        ds = make_moons(10, noise=0.0, seed=0)
        np.testing.assert_allclose(ds.X[0], [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(ds.X[4], [-1.0, 0.0], atol=1e-12)

    def test_noise_statistics(self):
        n, noise, seed = 20000, 0.15, 42
        clean = make_moons(n, 0.0, seed).X
        noisy = make_moons(n, noise, seed).X
        delta = noisy - clean
        count = delta.size
        assert abs(delta.mean()) < 5 * noise / np.sqrt(count)
        assert abs(delta.std() - noise) < 5 * noise / np.sqrt(2 * count)

    def test_deterministic(self):
        a, b = make_moons(100, 0.2, 7), make_moons(100, 0.2, 7)
        np.testing.assert_array_equal(a.X, b.X)
        assert not np.array_equal(a.X, make_moons(100, 0.2, 8).X)

    @pytest.mark.parametrize("bad_n", [0, 1, 3, -2])
    def test_bad_n(self, bad_n):
        with pytest.raises(ValueError, match="even integer"):
            make_moons(bad_n, 0.1, 0)

    def test_negative_noise(self):
        with pytest.raises(ValueError, match="noise"):
            make_moons(10, -0.1, 0)

    @pytest.mark.parametrize("make", [
        lambda noise: make_moons(10, noise, 0),
        lambda noise: make_circles(10, 0.5, noise, 0),
    ], ids=["moons", "circles"])
    @pytest.mark.parametrize("noise", [np.nan, np.inf])
    def test_non_finite_noise(self, make, noise):
        with pytest.raises(ValueError, match="^noise must be nonnegative and finite, got"):
            make(noise)


class TestCircles:
    def test_noise_free_radii(self):
        ds = make_circles(200, factor=0.5, noise=0.0, seed=0)
        norms = np.linalg.norm(ds.X, axis=1)
        np.testing.assert_allclose(norms[:100], 1.0, atol=1e-12)
        np.testing.assert_allclose(norms[100:], 0.5, atol=1e-12)
        np.testing.assert_array_equal(ds.y, np.repeat([0, 1], 100))

    def test_angles_exclusive_of_full_turn(self):
        ds = make_circles(8, factor=0.5, noise=0.0, seed=0)
        # 4 angles per ring: 0, pi/2, pi, 3pi/2; no repeat of angle 0
        expected = np.column_stack(
            [np.cos([0, np.pi / 2, np.pi, 3 * np.pi / 2]),
             np.sin([0, np.pi / 2, np.pi, 3 * np.pi / 2])]
        )
        np.testing.assert_allclose(ds.X[:4], expected, atol=1e-12)
        angles = np.arctan2(ds.X[:4, 1], ds.X[:4, 0])
        assert len(np.unique(np.round(angles, 9))) == 4

    def test_factor_validation(self):
        for factor in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="factor"):
                make_circles(10, factor=factor, noise=0.0, seed=0)


class TestGaussianBlobs:
    def test_shapes_and_labels(self):
        centers = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]])
        ds = make_gaussian_blobs(30, centers=centers, sigma=1.0, seed=3)
        assert ds.X.shape == (60, 3)
        np.testing.assert_array_equal(ds.y, np.repeat([0, 1], 30))
        assert ds.n_classes == 2

    def test_sample_means_near_centers(self):
        n, sigma = 10000, 2.0
        centers = np.array([[0.0, 0.0], [10.0, -10.0], [-10.0, 10.0]])
        ds = make_gaussian_blobs(n, centers=centers, sigma=sigma, seed=4)
        bound = 5 * sigma / np.sqrt(n)
        for c in range(3):
            sample_mean = ds.X[ds.y == c].mean(axis=0)
            assert np.abs(sample_mean - centers[c]).max() < bound

    def test_sample_spread_near_sigma(self):
        n, sigma = 10000, 2.0
        ds = make_gaussian_blobs(n, centers=[[0.0, 0.0]], sigma=sigma, seed=5)
        spread = ds.X.std(axis=0)
        assert np.abs(spread - sigma).max() < 5 * sigma / np.sqrt(2 * n)

    def test_validation(self):
        with pytest.raises(ValueError, match="centers"):
            make_gaussian_blobs(10, centers=np.zeros((2,)), sigma=1.0, seed=0)
        with pytest.raises(ValueError, match="non-finite"):
            make_gaussian_blobs(10, centers=[[np.nan, 0.0]], sigma=1.0, seed=0)
        with pytest.raises(ValueError, match="n_per_class"):
            make_gaussian_blobs(0, centers=[[0.0]], sigma=1.0, seed=0)
        with pytest.raises(ValueError, match="sigma"):
            make_gaussian_blobs(10, centers=[[0.0]], sigma=0.0, seed=0)
        for sigma in (np.nan, np.inf):
            with pytest.raises(ValueError, match="^sigma must be positive and finite, got"):
                make_gaussian_blobs(10, centers=[[0.0]], sigma=sigma, seed=0)


class TestLoadCsv:
    def test_numeric_labels_sort_numerically(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("0.5,1.5,10\n0.1,0.2,2\n0.3,0.4,2\n")
        ds = load_csv(p, label_column=2)
        # numeric order: 2 before 10
        assert ds.label_names == ("2", "10")
        np.testing.assert_array_equal(ds.y, [1, 0, 0])
        np.testing.assert_allclose(ds.X, [[0.5, 1.5], [0.1, 0.2], [0.3, 0.4]])

    def test_string_labels_sort_lexicographically(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1,2,A\n3,4,B\n")
        ds = load_csv(p, label_column=2)
        assert ds.label_names == ("A", "B")
        np.testing.assert_array_equal(ds.y, [0, 1])
        np.testing.assert_allclose(ds.X, [[1.0, 2.0], [3.0, 4.0]])

    def test_label_column_zero(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("A,1,2\nB,3,4\n")
        ds = load_csv(p, label_column=0)
        np.testing.assert_allclose(ds.X, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ds.y, [0, 1])

    def test_negative_label_column(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1,2,A\n3,4,B\n")
        ds = load_csv(p, label_column=-1)
        assert ds.label_names == ("A", "B")
        np.testing.assert_allclose(ds.X, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_and_named_column(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("f0,f1,cls\n1,2,x\n3,4,y\n")
        ds = load_csv(p, label_column="cls", has_header=True)
        assert ds.label_names == ("x", "y")
        np.testing.assert_allclose(ds.X, [[1.0, 2.0], [3.0, 4.0]])

    def test_bad_number_reports_line_and_column(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1,2,A\n3,oops,B\n")
        with pytest.raises(ValueError, match=r"line 2, column 1"):
            load_csv(p, label_column=2)

    def test_header_shifts_line_numbers(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("a,b,c\n1,2,A\n3,oops,B\n")
        with pytest.raises(ValueError, match=r"line 3"):
            load_csv(p, label_column=2, has_header=True)

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1,2,A\n3,4\n")
        with pytest.raises(ValueError, match=r"line 2.*ragged|ragged.*line 2"):
            load_csv(p, label_column=2)

    def test_label_column_out_of_range(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1,2,A\n")
        with pytest.raises(ValueError, match="label column 5"):
            load_csv(p, label_column=5)

    def test_missing_named_column(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="no column named"):
            load_csv(p, label_column="cls", has_header=True)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="no data rows|empty"):
            load_csv(p, label_column=0)

    def test_label_map_applied(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1,2,B\n3,4,B\n")
        ds = load_csv(p, label_column=2, label_names=("A", "B"))
        np.testing.assert_array_equal(ds.y, [1, 1])
        assert ds.label_names == ("A", "B")
        assert ds.n_classes == 2

    def test_label_map_unknown_token(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1,2,C\n")
        with pytest.raises(ValueError, match="unknown label 'C'"):
            load_csv(p, label_column=2, label_names=("A", "B"))

    def test_default_names_map_the_file_tokens(self, tmp_path):
        # the ids "0", "1", ... of a model, looked up one token at a time
        names = Dataset(X=np.zeros((1, 1)), y=[0], n_classes=1000).label_names
        p = tmp_path / "data.csv"
        p.write_text("1,999\n2,0\n")
        ds = load_csv(p, label_column=1, label_names=names)
        np.testing.assert_array_equal(ds.y, [999, 0])
        assert ds.n_classes == 1000 and ds.label_names == tuple(map(str, range(1000)))
        p.write_text("1,0\n2,01\n")
        with pytest.raises(ValueError, match="^data.csv: unknown label '01'$"):
            load_csv(p, label_column=1, label_names=names)

    def test_repeated_label_name_refused(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1,2,A\n")
        with pytest.raises(ValueError, match="^label_names must not repeat a token$"):
            load_csv(p, label_column=2, label_names=("A", "B", "A"))

    @pytest.mark.parametrize(
        "text,label_column",
        [
            (adversarial_values_csv(), -1),
            ("1.5,2,A\r\n-3,4e-5,B\r\n", 2),
            ('"1.5","-2e300",A\n3,"4",B\n', 2),
            ('1,2,"A,1"\n3,4,"B""2"\n', -1),
            ("1,2,a#b\n3,4,#c\n", 2),
            ("1,2, A \n3,4,A\n5,6,  B\n", 2),
            ("x,1,2\ny,3,4\n", 0),
        ],
        ids=["adversarial-values", "crlf", "quoted-cells", "quoted-label", "hash-in-label",
             "label-spaces", "label-first"],
    )
    def test_matches_float_per_cell(self, tmp_path, text, label_column):
        p = tmp_path / "data.csv"
        p.write_bytes(text.encode())
        ds = load_csv(p, label_column=label_column)
        X, tokens = float_per_cell(text, label_column)
        assert ds.X.tobytes() == X.tobytes()
        assert [ds.label_names[i] for i in ds.y] == tokens

    def test_header_named_column_matches_float_per_cell(self, tmp_path):
        text = "f0,cls,f1\n1e300,b,-0.0\n+2.5, a ,5e-324\n"
        p = tmp_path / "data.csv"
        p.write_text(text)
        ds = load_csv(p, label_column="cls", has_header=True)
        X, tokens = float_per_cell(text, 1, skip=1)
        assert ds.X.tobytes() == X.tobytes()
        assert ds.label_names == ("a", "b")
        assert [ds.label_names[i] for i in ds.y] == tokens

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("\n1,2,A\n\n\r\n3,4,B\n\n")
        ds = load_csv(p, label_column=2)
        np.testing.assert_array_equal(ds.X, [[1.0, 2.0], [3.0, 4.0]])
        assert ds.label_names == ("A", "B")

    @pytest.mark.parametrize(
        "text,has_header,where",
        [
            ("a,b,c\n1,2,A\n\n3,oops,B\n", True, "data.csv line 4, column 1: could not parse 'oops'"),
            ("1,2,A\n\n\n3,4\n", False, "data.csv line 4: ragged row with 2 columns, expected 3"),
            ('1,2,"A\nB"\n3,4,C,5\n', False, "data.csv line 3: ragged row with 4 columns"),
            ("a,b,c\n\n1,2,A\n3,nan,B\n", True, "data.csv line 4, column 1: non-finite value 'nan'"),
        ],
        ids=["bad-cell", "ragged", "ragged-after-quoted-newline", "non-finite"],
    )
    def test_error_lines_count_physical_lines(self, tmp_path, text, has_header, where):
        p = tmp_path / "data.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=where):
            load_csv(p, label_column=2, has_header=has_header)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        p = tmp_path / "data.csv"
        p.write_text(f"A,1,2\nB,3,{cell}\n")
        with pytest.raises(ValueError, match=rf"data.csv line 2, column 2: non-finite value '{cell}'"):
            load_csv(p, label_column=0)

    def test_python_only_number_spelling_rejected(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1,2,A\n1_000,2,B\n")
        with pytest.raises(ValueError, match=r"data.csv line 2, column 0: could not parse '1_000'"):
            load_csv(p, label_column=2)

    def test_features_reader_shares_dialect_and_errors(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text('x0,x1\n1.5,"-2"\n\n3,4\n')
        np.testing.assert_array_equal(load_csv_features(p, has_header=True), [[1.5, -2.0], [3.0, 4.0]])
        p.write_text("1,2\n3,4,5\n")
        with pytest.raises(ValueError, match="data.csv line 2: ragged row with 3 columns, expected 2"):
            load_csv_features(p)


class TestLoadSvmlight:
    def test_sparse_row_densified(self, tmp_path):
        p = tmp_path / "data.svm"
        p.write_text("1 1:0.5 3:2.0\n")
        ds = load_svmlight(p, n_features=3)
        np.testing.assert_allclose(ds.X, [[0.5, 0.0, 2.0]])
        assert ds.label_names == ("1",)

    def test_multiclass_and_blank_lines(self, tmp_path):
        p = tmp_path / "data.svm"
        p.write_text("# comment\n2 1:1.0\n\n1 2:3.0\n10 1:0.5 2:0.5\n")
        ds = load_svmlight(p, n_features=2)
        assert ds.label_names == ("1", "2", "10")
        np.testing.assert_array_equal(ds.y, [1, 0, 2])
        np.testing.assert_allclose(ds.X, [[1.0, 0.0], [0.0, 3.0], [0.5, 0.5]])

    def test_bad_value_reports_line(self, tmp_path):
        p = tmp_path / "data.svm"
        p.write_text("1 1:0.5\n1 3:abc\n")
        with pytest.raises(ValueError, match=r"line 2"):
            load_svmlight(p, n_features=3)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        p = tmp_path / "data.svm"
        p.write_text(f"1 1:0.5\n2 1:{value}\n")
        with pytest.raises(
            ValueError, match=f"^data.svm line 2: non-finite value in token '1:{value}'$"
        ):
            load_svmlight(p, n_features=3)

    def test_index_out_of_range(self, tmp_path):
        p = tmp_path / "data.svm"
        p.write_text("1 4:1.0\n")
        with pytest.raises(ValueError, match=r"index 4 outside \[1, 3\]"):
            load_svmlight(p, n_features=3)

    def test_malformed_token(self, tmp_path):
        p = tmp_path / "data.svm"
        p.write_text("1 nocolon\n")
        with pytest.raises(ValueError, match="malformed token"):
            load_svmlight(p, n_features=3)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "data.svm"
        p.write_text("# only comments\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_svmlight(p, n_features=3)


class TestStandardize:
    def test_transforms_to_zero_mean_unit_spread(self):
        rng = np.random.default_rng(20)
        ds = Dataset(
            X=rng.normal(5.0, 3.0, (200, 4)), y=np.zeros(200, dtype=np.int64), n_classes=1
        )
        params = standardize_fit(ds)
        out = standardize_apply(params, ds)
        np.testing.assert_allclose(out.X.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.X.std(axis=0), 1.0, atol=1e-12)

    def test_round_trip_inverse(self):
        rng = np.random.default_rng(21)
        ds = Dataset(
            X=rng.normal(-2.0, 7.0, (50, 3)), y=np.zeros(50, dtype=np.int64), n_classes=1
        )
        params = standardize_fit(ds)
        out = standardize_apply(params, ds)
        back = out.X * params.scale + params.mean
        np.testing.assert_allclose(back, ds.X, atol=1e-12)

    def test_constant_feature_centered_only(self):
        X = np.column_stack([np.full(10, 3.0), np.arange(10, dtype=float)])
        ds = Dataset(X=X, y=np.zeros(10, dtype=np.int64), n_classes=1)
        params = standardize_fit(ds)
        assert params.scale[0] == 1.0
        out = standardize_apply(params, ds)
        np.testing.assert_allclose(out.X[:, 0], 0.0, atol=1e-12)

    def test_dimension_mismatch(self):
        params = ScalerParams(mean=np.zeros(3), scale=np.ones(3))
        ds = Dataset(X=np.zeros((2, 2)), y=np.zeros(2, dtype=np.int64), n_classes=1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            standardize_apply(params, ds)

    def test_overflowing_spread_names_the_column(self):
        # finite entries whose squared deviations exceed float64, in the
        # second column only; under the suite's warnings-as-errors, no warning
        X = np.array([[0.0, 1e160], [1.0, 0.0], [2.0, 1e160]])
        ds = Dataset(X=X, y=np.zeros(3, dtype=np.int64), n_classes=1)
        message = "^feature column 1: standard deviation overflows float64$"
        with pytest.raises(ValueError, match=message):
            standardize_fit(ds)
        # a spread just inside the range keeps its scale, bit for bit
        ok = Dataset(X=X / 1e10, y=ds.y, n_classes=1)
        np.testing.assert_array_equal(standardize_fit(ok).scale, ok.X.std(axis=0))

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ScalerParams(mean=np.zeros(2), scale=np.array([1.0, 0.0]))


class TestDecisionGrid:
    def test_shape_and_corner_order(self):
        rng = np.random.default_rng(22)
        bank = to_discriminants(random_labeled_model(rng, d=2))
        res = 5
        xy, labels = decision_grid(bank, (-2.0, 2.0), (-1.0, 3.0), res)
        assert xy.shape == (res * res, 2) and labels.shape == (res * res,)
        np.testing.assert_allclose(xy[0], [-2.0, -1.0])
        np.testing.assert_allclose(xy[res - 1], [-2.0, 3.0])
        np.testing.assert_allclose(xy[res * (res - 1)], [2.0, -1.0])
        np.testing.assert_allclose(xy[-1], [2.0, 3.0])

    def test_x_is_outer_axis(self):
        rng = np.random.default_rng(23)
        bank = to_discriminants(random_labeled_model(rng, d=2))
        res = 4
        xy, _ = decision_grid(bank, (0.0, 3.0), (10.0, 13.0), res)
        xs = np.linspace(0.0, 3.0, res)
        ys = np.linspace(10.0, 13.0, res)
        for i in range(res):
            block = xy[i * res : (i + 1) * res]
            np.testing.assert_allclose(block[:, 0], xs[i])
            np.testing.assert_allclose(block[:, 1], ys)

    def test_labels_match_oracle(self):
        rng = np.random.default_rng(24)
        model = random_labeled_model(rng, d=2)
        xy, labels = decision_grid(to_discriminants(model), (-4.0, 4.0), (-4.0, 4.0), 20)
        np.testing.assert_array_equal(labels, predict_oracle(model, xy))

    def test_requires_2d_model(self):
        rng = np.random.default_rng(25)
        bank = to_discriminants(random_labeled_model(rng, d=3))
        with pytest.raises(ValueError, match="grid export requires 2-D models"):
            decision_grid(bank, (0.0, 1.0), (0.0, 1.0), 10)

    def test_range_validation(self):
        rng = np.random.default_rng(26)
        bank = to_discriminants(random_labeled_model(rng, d=2))
        with pytest.raises(ValueError, match="lo < hi"):
            decision_grid(bank, (1.0, 1.0), (0.0, 1.0), 10)
        with pytest.raises(ValueError, match="resolution"):
            decision_grid(bank, (0.0, 1.0), (0.0, 1.0), 1)


class TestCsvWriters:
    def test_grid_csv_header_and_rows(self, tmp_path):
        out = tmp_path / "grid.csv"
        xy = np.array([[0.0, 0.5], [1.25, -2.0]])
        labels = np.array([0, 1])
        write_grid_csv(out, xy, labels)
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,label"
        assert lines[1] == "0.0,0.5,0"
        assert lines[2] == "1.25,-2.0,1"

    def test_grid_csv_quotes_label_tokens(self):
        out = io.StringIO()
        xy = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        write_grid_csv(out, xy, ["a,b", 'say "hi"', "", "a,b"])
        assert out.getvalue() == (
            'x,y,label\n0.0,0.0,"a,b"\n1.0,0.0,"say ""hi"""\n2.0,0.0,\n3.0,0.0,"a,b"\n'
        )
        rows = list(csv.reader(io.StringIO(out.getvalue(), newline="")))
        assert [row[2] for row in rows[1:]] == ["a,b", 'say "hi"', "", "a,b"]

    def test_dataset_csv_round_trip(self, tmp_path):
        ds = make_moons(40, noise=0.3, seed=30)
        first = tmp_path / "a.csv"
        write_dataset_csv(first, ds, header=True)
        loaded = load_csv(first, label_column="label", has_header=True)
        np.testing.assert_array_equal(loaded.X, ds.X)
        np.testing.assert_array_equal(loaded.y, ds.y)
        second = tmp_path / "b.csv"
        write_dataset_csv(second, loaded, header=True)
        assert first.read_bytes() == second.read_bytes()

    def test_dataset_csv_headerless(self, tmp_path):
        ds = Dataset(X=np.array([[1.5, 2.5]]), y=np.array([0]), n_classes=1)
        out = tmp_path / "c.csv"
        write_dataset_csv(out, ds, header=False)
        assert out.read_text() == "1.5,2.5,0\n"


class TestBenchmarkLoader:
    def test_unknown_name(self, tmp_path):
        with pytest.raises(ValueError, match="unknown dataset"):
            load_benchmark_dataset("nope", tmp_path)

    def test_missing_files_point_at_fetch(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="fetch"):
            load_benchmark_dataset("letter", tmp_path)

    def test_shared_label_map_across_split(self, tmp_path):
        base = tmp_path / "letter"
        base.mkdir()
        (base / "train.csv").write_text("A,1,2\nB,3,4\nC,5,6\n")
        (base / "test.csv").write_text("C,7,8\n")
        train, test = load_benchmark_dataset("letter", tmp_path)
        assert train.label_names == ("A", "B", "C")
        np.testing.assert_array_equal(test.y, [2])
        assert test.n_classes == 3 and test.label_names == ("A", "B", "C")

    def test_svmlight_files_share_the_label_map(self, tmp_path):
        base = tmp_path / "usps"
        base.mkdir()
        (base / "train.svm").write_text("# usps\n3 1:0.5\n\n1 256:-0.25\n2 7:1\n")
        (base / "test.svm").write_text("3 256:0.75 2:1\n")  # misses classes 1 and 2
        train, test = load_benchmark_dataset("usps", tmp_path)
        assert train.X.shape == (3, 256) and test.X.shape == (1, 256)
        assert train.label_names == test.label_names == ("1", "2", "3")
        np.testing.assert_array_equal(train.y, [2, 0, 1])
        np.testing.assert_array_equal(test.y, [2])
        assert train.X[1, 255] == -0.25 and test.X[0, 255] == 0.75
        assert test.X[0, 1] == 1.0 and np.count_nonzero(test.X) == 2
