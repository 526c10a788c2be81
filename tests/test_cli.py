import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from superklust import (
    KMeansConfig,
    cli,
    decision_grid,
    evaluate,
    fit,
    load_csv,
    load_model,
    make_gaussian_blobs,
    predict,
    save_model,
    standardize_apply,
    standardize_fit,
    to_discriminants,
    write_dataset_csv,
    write_grid_csv,
)
from conftest import HUGE_CLASS_COUNT_DOC


def run_cli(*argv, cwd=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "superklust", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def synth(tmp_path, *argv):
    out = tmp_path / "data.csv"
    proc = run_cli("synth", *argv, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return out


def scaled_blobs(tmp_path):
    """Three blob classes in 3-D whose middle feature is shifted by 5e4
    and stretched 1000-fold, so that only a standardized fit separates
    them."""
    ds = make_gaussian_blobs(60, [[0.0, 0.0, 0.0], [4.0, 1.0, 3.0], [1.0, 5.0, -2.0]], 1.0, seed=3)
    ds.X[:, 1] = ds.X[:, 1] * 1000.0 + 5e4
    out = tmp_path / "data.csv"
    write_dataset_csv(out, ds, header=False)
    return out


class TestSynth:
    def test_moons_shape_and_message(self, tmp_path):
        out = synth(tmp_path, "moons", "--n", "400", "--noise", "0.1")
        lines = out.read_text().splitlines()
        assert len(lines) == 400
        assert all(len(line.split(",")) == 3 for line in lines[:5])
        proc = run_cli("synth", "moons", "--out", str(tmp_path / "again.csv"))
        assert "wrote 400 rows x 3 columns" in proc.stdout

    def test_headerless_by_default_header_opt_in(self, tmp_path):
        plain = synth(tmp_path, "moons", "--n", "10")
        assert not plain.read_text().startswith("x0")
        out2 = tmp_path / "with_header.csv"
        proc = run_cli("synth", "moons", "--n", "10", "--header", "--out", str(out2))
        assert proc.returncode == 0
        assert out2.read_text().splitlines()[0] == "x0,x1,label"

    def test_deterministic_output(self, tmp_path):
        a = synth(tmp_path, "circles", "--n", "60", "--seed", "5")
        b_path = tmp_path / "b.csv"
        proc = run_cli(
            "synth", "circles", "--n", "60", "--seed", "5", "--out", str(b_path)
        )
        assert proc.returncode == 0
        assert a.read_bytes() == b_path.read_bytes()

    def test_blobs_row_count_and_dim(self, tmp_path):
        out = synth(tmp_path, "blobs", "--n", "300", "--classes", "3", "--dim", "4")
        lines = out.read_text().splitlines()
        assert len(lines) == 300
        assert len(lines[0].split(",")) == 5

    @pytest.mark.parametrize(
        "argv,fragment",
        [
            (("moons", "--n", "401"), "--n must be an even integer"),
            (("moons", "--noise", "-1"), "--noise must be nonnegative"),
            (("circles", "--factor", "1.5"), "--factor must be in (0, 1)"),
            (("blobs", "--n", "100", "--classes", "3"), "multiple of --classes"),
            (("blobs", "--sigma", "0"), "--sigma must be positive"),
            (("moons", "--noise", "nan"), "--noise must be nonnegative and finite"),
            (("circles", "--noise", "inf"), "--noise must be nonnegative and finite"),
            (("blobs", "--sigma", "nan"), "--sigma must be positive and finite"),
            (("blobs", "--sigma", "inf"), "--sigma must be positive and finite"),
        ],
    )
    def test_validation_exits_2(self, tmp_path, argv, fragment):
        proc = run_cli("synth", *argv, "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert fragment in proc.stderr


class TestFit:
    def test_fit_blobs(self, tmp_path):
        data = synth(tmp_path, "blobs", "--n", "200", "--classes", "2", "--sigma", "0.5")
        model_path = tmp_path / "model.json"
        proc = run_cli(
            "fit", "--data", str(data), "--k", "2", "--out", str(model_path)
        )
        assert proc.returncode == 0, proc.stderr
        assert "generators: " in proc.stdout
        assert "training accuracy: " in proc.stdout
        model = load_model(model_path.read_bytes())
        assert len(model.labels) <= 2 * 2
        assert model.d == 2 and model.n_classes == 2

    def test_missing_file_exits_1(self, tmp_path):
        proc = run_cli(
            "fit", "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "m.json")
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")

    def test_non_finite_cell_names_file_and_line(self, tmp_path):
        data = tmp_path / "train.csv"
        data.write_text("0.5,1.0,0\n1.5,2.0,1\n0.25,nan,0\n")
        proc = run_cli("fit", "--data", str(data), "--k", "1", "--out", str(tmp_path / "m.json"))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: train.csv line 3, column 1: non-finite value 'nan'"
        ]

    def test_integer_labels_write_the_library_bytes(self, tmp_path):
        ds = make_gaussian_blobs(40, [[0.0, 0.0], [3.0, 3.0], [0.0, 4.0]], 0.8, seed=2)
        data = tmp_path / "train.csv"
        write_dataset_csv(data, ds, header=False)
        model_path = tmp_path / "model.json"
        proc = run_cli(
            "fit", "--data", str(data), "--k", "3", "--seed", "5", "--out", str(model_path)
        )
        assert proc.returncode == 0, proc.stderr
        assert model_path.read_bytes() == save_model(fit(ds, KMeansConfig(k=3, seed=5)))

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--k", "0"), "error: --k must be >= 1"),
            (("--restarts", "0"), "error: --restarts must be >= 1"),
            (("--max-iter", "0"), "error: --max-iter must be >= 1"),
            (("--seed", "-1"), "error: --seed must be >= 0"),
            (("--tol", "1e-6"), "error: unrecognized arguments: --tol 1e-6"),
        ],
        ids=["k", "restarts", "max-iter", "seed", "tol"],
    )
    def test_bad_k_exits_2(self, tmp_path, flags, message):
        data = synth(tmp_path, "moons", "--n", "20")
        proc = run_cli("fit", "--data", str(data), *flags, "--out", str(tmp_path / "m.json"))
        assert proc.returncode == 2
        assert proc.stderr.splitlines()[-1] == message
        assert not (tmp_path / "m.json").exists()

    def test_overflowing_distances_exit_1(self, tmp_path):
        # finite rows, but k-means++ cannot weigh distances beyond float64
        data = tmp_path / "train.csv"
        data.write_text("1e160,0,a\n0,1,a\n1,1,a\n2,2,b\n3,1,b\n1e160,1,b\n")
        proc = run_cli("fit", "--data", str(data), "--k", "2", "--out", str(tmp_path / "m.json"))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: k-means++: squared distances between rows overflow float64"
        ]

    def test_standardize_overflowing_spread_exit_1(self, tmp_path):
        # the same rows: their first column's spread overflows float64
        data = tmp_path / "train.csv"
        data.write_text("1e160,0,a\n0,1,a\n1,1,a\n2,2,b\n3,1,b\n1e160,1,b\n")
        out = tmp_path / "m.json"
        for flags in ((), ("-W", "error")):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "superklust", "fit", "--data", str(data),
                 "--k", "2", "--standardize", "--out", str(out)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 1
            assert proc.stderr.splitlines() == [
                "error: feature column 0: standard deviation overflows float64"
            ]
            assert not out.exists()

    def test_standardize_keeps_scaler_in_model(self, tmp_path):
        data = scaled_blobs(tmp_path)
        model_path = tmp_path / "model.json"
        proc = run_cli(
            "fit", "--data", str(data), "--k", "2", "--standardize", "--out", str(model_path)
        )
        assert proc.returncode == 0, proc.stderr
        assert sorted(path.name for path in tmp_path.iterdir()) == ["data.csv", "model.json"]
        model = load_model(model_path.read_bytes())
        ds = load_csv(data, label_column=-1)
        assert model.scaler == standardize_fit(ds)
        # the library fit of the standardized rows, with the scaler attached
        config = KMeansConfig(k=2, seed=0)
        assert model == replace(fit(standardize_apply(model.scaler, ds), config),
                                scaler=model.scaler)
        assert proc.stdout.splitlines() == [
            f"generators: {len(model.labels)}",
            f"training accuracy: {evaluate(model, ds):.4f}",
        ]
        assert evaluate(model, ds) == 1.0

    def test_parse_error_is_one_line(self, tmp_path):
        data = synth(tmp_path, "moons", "--n", "20")
        proc = run_cli("fit", "--data", str(data), "--k", "x", "--out", str(tmp_path / "m.json"))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: argument --k: invalid int value: 'x'"]
        assert proc.stdout == ""

    def test_defaults_are_the_config_defaults(self):
        args = cli.build_parser().parse_args(["fit", "--data", "d.csv", "--out", "m.json"])
        config = KMeansConfig(k=args.k)
        assert (args.seed, args.restarts, args.max_iter) == (
            config.seed, config.n_restarts, config.max_iter
        )

    def test_scaler_out_exits_2(self, tmp_path):
        # removed flags: the scaler sidecar, and the correction pass limit
        data = scaled_blobs(tmp_path)
        for flag, value in (("--scaler-out", "s.json"), ("--correction-passes", "3")):
            proc = run_cli(
                "fit", "--data", str(data), "--standardize", flag, value,
                "--out", str(tmp_path / "m.json"),
            )
            assert proc.returncode == 2
            assert f"unrecognized arguments: {flag} {value}" in proc.stderr
        assert not (tmp_path / "m.json").exists()


class TestPredict:
    def fitted(self, tmp_path, **kw):
        data = synth(tmp_path, "blobs", "--n", "200", "--classes", "2", "--sigma", "0.5")
        model_path = tmp_path / "model.json"
        proc = run_cli("fit", "--data", str(data), "--k", "2", "--out", str(model_path))
        assert proc.returncode == 0, proc.stderr
        return data, model_path

    def test_accuracy_matches_library_evaluation(self, tmp_path):
        data, model_path = self.fitted(tmp_path)
        out = tmp_path / "preds.csv"
        proc = run_cli(
            "predict",
            "--model",
            str(model_path),
            "--data",
            str(data),
            "--label-col",
            "-1",
            "--out",
            str(out),
        )
        assert proc.returncode == 0, proc.stderr
        ds = load_csv(data, label_column=-1)
        offline = evaluate(load_model(model_path.read_bytes()), ds)
        assert f"accuracy: {offline:.4f}" in proc.stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "label"
        assert len(lines) == ds.n + 1
        preds = np.array([int(v) for v in lines[1:]])
        assert ((preds == 0) | (preds == 1)).all()

    def named_labels(self, tmp_path, test_rows):
        train = tmp_path / "train.csv"
        train.write_text("0,0,a\n0.1,0,a\n5,5,b\n5.1,5,b\n10,0,c\n10.1,0,c\n")
        model_path = tmp_path / "model.json"
        proc = run_cli("fit", "--data", str(train), "--k", "1", "--out", str(model_path))
        assert proc.returncode == 0, proc.stderr
        test = tmp_path / "test.csv"
        test.write_text(test_rows)
        out = tmp_path / "preds.csv"
        proc = run_cli(
            "predict", "--model", str(model_path), "--data", str(test),
            "--label-col", "-1", "--out", str(out),
        )
        return proc, out

    def test_test_labels_map_through_the_model(self, tmp_path):
        # the test file holds two of the three training labels
        proc, out = self.named_labels(tmp_path, "5,5.1,b\n10,0.2,c\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["accuracy: 1.0000"]
        assert out.read_text() == "label\nb\nc\n"

    def test_tokens_are_quoted_as_csv_cells(self, tmp_path):
        train = tmp_path / "train.csv"
        train.write_text('0,0,"x,y"\n0.1,0,"x,y"\n5,5,"say ""hi"""\n5.1,5,"say ""hi"""\n')
        model_path = tmp_path / "model.json"
        proc = run_cli("fit", "--data", str(train), "--k", "1", "--out", str(model_path))
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("predict", "--model", str(model_path), "--data", str(train),
                       "--label-col", "-1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "label", '"x,y"', '"x,y"', '"say ""hi"""', '"say ""hi"""'
        ]
        assert proc.stderr.splitlines() == ["accuracy: 1.0000"]

    def test_empty_token_keeps_its_row(self, tmp_path):
        # an empty label token is written "", not as a blank line
        train = tmp_path / "train.csv"
        train.write_text("0,0,\n0.1,0,\n5,5,b\n5.1,5,b\n")
        model_path = tmp_path / "model.json"
        proc = run_cli("fit", "--data", str(train), "--k", "1", "--out", str(model_path))
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / "pred.csv"
        proc = run_cli("predict", "--model", str(model_path), "--data", str(train),
                       "--label-col", "-1", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["accuracy: 1.0000"]
        assert out.read_text() == 'label\n""\n""\nb\nb\n'
        with out.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["label"], [""], [""], ["b"], ["b"]]

    def test_version_1_model_exits_1(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(
            '{"version":1,"d":2,"n_classes":1,"k":1,'
            '"generators":[{"point":[0.0,0.0],"label":0}]}\n'
        )
        data = tmp_path / "test.csv"
        data.write_text("0,0,0\n")
        out = tmp_path / "out.csv"
        for argv in (("predict", "--data", str(data)), ("grid",)):
            proc = run_cli(*argv, "--model", str(model_path), "--out", str(out))
            assert proc.returncode == 1
            assert proc.stderr.splitlines() == [
                "error: unsupported model version 1, expected 2; "
                "refit the model with this version of superklust"
            ]
            assert proc.stdout == "" and not out.exists()

    def test_unknown_test_label_exits_1(self, tmp_path):
        proc, out = self.named_labels(tmp_path, "5,5.1,b\n10,0.2,z\n")
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: test.csv: unknown label 'z'"]
        assert not out.exists()

    def test_features_only_input(self, tmp_path):
        data, model_path = self.fitted(tmp_path)
        rows = [line.rsplit(",", 1)[0] for line in data.read_text().splitlines()]
        features = tmp_path / "features.csv"
        features.write_text("\n".join(rows) + "\n")
        proc = run_cli("predict", "--model", str(model_path), "--data", str(features))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "label"
        assert "accuracy" not in proc.stdout

    @pytest.mark.parametrize(
        "bad_row,message",
        [
            ("0.3,oops", "features.csv line 3, column 1: could not parse 'oops' as a number"),
            ("0.3,0.4,0.5", "features.csv line 3: ragged row with 3 columns, expected 2"),
            ("-inf,0.4", "features.csv line 3, column 0: non-finite value '-inf'"),
        ],
        ids=["bad-cell", "ragged", "non-finite"],
    )
    def test_features_only_bad_row_exits_1(self, tmp_path, bad_row, message):
        _, model_path = self.fitted(tmp_path)
        features = tmp_path / "features.csv"
        features.write_text(f"x0,x1\n0.1,0.2\n{bad_row}\n")
        proc = run_cli(
            "predict", "--model", str(model_path), "--data", str(features), "--has-header"
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"error: {message}"]

    def test_standardized_model_predicts_raw_rows(self, tmp_path):
        data = scaled_blobs(tmp_path)
        model_path = tmp_path / "model.json"
        proc = run_cli(
            "fit", "--data", str(data), "--k", "2", "--standardize", "--out", str(model_path)
        )
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / "p.csv"
        proc = run_cli(
            "predict", "--model", str(model_path), "--data", str(data), "--label-col", "-1",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        model = load_model(model_path.read_bytes())
        ds = load_csv(data, label_column=-1)
        mean, scale = model.scaler.mean, model.scaler.scale
        want = predict(to_discriminants(replace(model, scaler=None)), (ds.X - mean) / scale)
        assert out.read_text() == "label\n" + "".join(f"{lab}\n" for lab in want.tolist())
        assert proc.stdout.splitlines() == [f"accuracy: {float((want == ds.y).mean()):.4f}"]
        assert (want == ds.y).all()

    def test_scaler_flag_exits_2(self, tmp_path):
        data, model_path = self.fitted(tmp_path)
        proc = run_cli("predict", "--model", str(model_path), "--data", str(data), "--scaler", "x")
        assert proc.returncode == 2
        assert "unrecognized arguments: --scaler x" in proc.stderr


class TestGrid:
    def model_2d(self, tmp_path):
        data = synth(tmp_path, "moons", "--n", "100")
        model_path = tmp_path / "model.json"
        proc = run_cli("fit", "--data", str(data), "--k", "3", "--out", str(model_path))
        assert proc.returncode == 0, proc.stderr
        return model_path

    def test_grid_writes_label_tokens(self, tmp_path):
        train = tmp_path / "train.csv"
        train.write_text("0,0,a\n0.1,0,a\n5,5,b\n5.1,5,b\n10,0,c\n10.1,0,c\n")
        model_path = tmp_path / "model.json"
        proc = run_cli("fit", "--data", str(train), "--k", "1", "--out", str(model_path))
        assert proc.returncode == 0, proc.stderr
        proc = run_cli(
            "grid", "--model", str(model_path), "--resolution", "2",
            "--x-min", "0", "--x-max", "10", "--y-min", "0", "--y-max", "5",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "x,y,label\n0.0,0.0,a\n0.0,5.0,a\n10.0,0.0,c\n10.0,5.0,b\n"

    def test_id_named_grid_writes_class_ids(self, tmp_path):
        model_path = self.model_2d(tmp_path)
        proc = run_cli("grid", "--model", str(model_path), "--resolution", "15")
        assert proc.returncode == 0, proc.stderr
        bank = to_discriminants(load_model(model_path.read_bytes()))
        xy, labels = decision_grid(bank, (-3.0, 3.0), (-3.0, 3.0), 15)
        want = io.StringIO()
        write_grid_csv(want, xy, labels)
        assert proc.stdout == want.getvalue()

    def test_standardized_grid_in_raw_coordinates(self, tmp_path):
        data = tmp_path / "train.csv"
        ds = make_gaussian_blobs(30, [[1000.0, 0.0], [1010.0, 0.0]], 1.0, seed=3)
        write_dataset_csv(data, ds, header=False)
        model_path = tmp_path / "model.json"
        proc = run_cli(
            "fit", "--data", str(data), "--k", "2", "--standardize", "--out", str(model_path)
        )
        assert proc.returncode == 0, proc.stderr
        proc = run_cli(
            "grid", "--model", str(model_path), "--resolution", "6",
            "--x-min", "995", "--x-max", "1015", "--y-min", "-3", "--y-max", "3",
        )
        assert proc.returncode == 0, proc.stderr
        rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
        xy = np.array([[float(x), float(y)] for x, y, _ in rows])
        model = load_model(model_path.read_bytes())
        scaler = model.scaler
        want = predict(to_discriminants(replace(model, scaler=None)),
                       (xy - scaler.mean) / scaler.scale)
        assert [int(lab) for _, _, lab in rows] == want.tolist()
        assert xy[0].tolist() == [995.0, -3.0] and set(want.tolist()) == {0, 1}

    def test_grid_row_count(self, tmp_path):
        model_path = self.model_2d(tmp_path)
        out = tmp_path / "grid.csv"
        proc = run_cli(
            "grid", "--model", str(model_path), "--resolution", "20", "--out", str(out)
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,label"
        assert len(lines) == 1 + 20 * 20

    def test_default_resolution_of_200(self, tmp_path):
        model_path = self.model_2d(tmp_path)
        out = tmp_path / "grid.csv"
        proc = run_cli("grid", "--model", str(model_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 1 + 200 * 200

    def test_non_2d_model_exits_1(self, tmp_path):
        data = synth(tmp_path, "blobs", "--n", "100", "--classes", "2", "--dim", "3")
        model_path = tmp_path / "model3d.json"
        proc = run_cli("fit", "--data", str(data), "--k", "2", "--out", str(model_path))
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("grid", "--model", str(model_path), "--out", str(tmp_path / "g.csv"))
        assert proc.returncode == 1
        assert "grid export requires 2-D models" in proc.stderr

    def test_bad_range_exits_2(self, tmp_path):
        model_path = self.model_2d(tmp_path)
        proc = run_cli(
            "grid", "--model", str(model_path), "--x-min", "5", "--x-max", "-5"
        )
        assert proc.returncode == 2

    def test_bad_resolution_exits_2(self, tmp_path):
        model_path = self.model_2d(tmp_path)
        proc = run_cli("grid", "--model", str(model_path), "--resolution", "1")
        assert proc.returncode == 2


class TestBench:
    def test_synthetic_markdown(self, tmp_path):
        out = tmp_path / "report.md"
        proc = run_cli(
            "bench",
            "--datasets",
            "blobs",
            "--algos",
            "superklust,knn",
            "--k",
            "2",
            "--repetitions",
            "1",
            "--warmup",
            "0",
            "--out",
            str(out),
        )
        assert proc.returncode == 0, proc.stderr
        text = out.read_text()
        assert "## Test accuracy" in text
        assert "| superklust |" in text and "| knn |" in text

    def test_csv_format(self, tmp_path):
        proc = run_cli(
            "bench",
            "--datasets",
            "blobs",
            "--algos",
            "superklust",
            "--k",
            "2",
            "--repetitions",
            "1",
            "--warmup",
            "0",
            "--format",
            "csv",
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("dataset,algorithm,accuracy")
        assert lines[1].startswith("blobs,superklust,")

    def test_missing_real_dataset_exits_1(self, tmp_path):
        proc = run_cli(
            "bench",
            "--datasets",
            "letter",
            "--algos",
            "superklust",
            "--repetitions",
            "1",
            "--warmup",
            "0",
            "--data-dir",
            str(tmp_path),
        )
        assert proc.returncode == 1
        assert "letter" in proc.stderr and "failed" in proc.stderr

    def test_defaults_are_the_config_defaults(self, monkeypatch, capsys):
        from superklust import bench

        seen = []

        def record(names, algos, config):
            seen.append(config)
            return bench.BenchReport(datasets=[], algos=[], cells={})

        monkeypatch.setattr(bench, "run_benchmark", record)
        assert cli.main(["bench", "--data-dir", "d"]) == 0
        assert cli.main(["bench", "--data-dir", "d", "--k", "3", "--restarts", "2"]) == 0
        capsys.readouterr()
        assert seen == [
            bench.BenchConfig(data_dir="d"), bench.BenchConfig(k=3, n_restarts=2, data_dir="d")
        ]

    def test_overflowing_standardization_still_writes_report(self, tmp_path, capsys):
        letter = tmp_path / "letter"
        letter.mkdir()
        (letter / "train.csv").write_text("a,1e308,0\nb,-1e308,1\n")
        (letter / "test.csv").write_text("a,1e308,2\nb,-1e308,3\n")
        out = tmp_path / "rep.md"
        argv = ["bench", "--datasets", "blobs,letter", "--repetitions", "1", "--warmup", "0",
                "--k", "2", "--restarts", "1", "--data-dir", str(tmp_path), "--out", str(out)]
        assert cli.main(argv) == 1
        [line] = capsys.readouterr().err.splitlines()
        overflow = "ValueError: feature column 0: standard deviation overflows float64"
        assert line == (
            f"error: cell (letter, superklust) failed: {overflow}; "
            f"cell (letter, knn) failed: {overflow}"
        )
        table = out.read_text().split("\n\n")[1].splitlines()
        assert table[0] == "| algorithm | blobs | letter |"
        for row in table[2:]:
            assert re.fullmatch(r"\| (superklust|knn) \| \d\.\d{3} \| error \|", row), row

    def test_empty_lists_exit_2(self):
        proc = run_cli("bench", "--datasets", "", "--algos", "superklust")
        assert proc.returncode == 2

    @pytest.mark.parametrize("flag", ["--k", "--restarts", "--knn-neighbors"])
    def test_counts_below_one_exit_2_before_any_cell(self, flag):
        proc = run_cli(
            "bench", "--datasets", "blobs", "--repetitions", "1", "--warmup", "0", flag, "0"
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [f"error: {flag} must be >= 1"]

    @pytest.mark.parametrize("flag", ["--seed", "--warmup"])
    def test_negative_seed_or_warmup_exits_2_before_any_cell(self, flag):
        proc = run_cli("bench", "--datasets", "blobs", "--repetitions", "1", flag, "-1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [f"error: {flag} must be >= 0"]


class TestFetch:
    def test_unknown_dataset_exits_2(self, tmp_path):
        proc = run_cli("fetch", "nosuch", "--data-dir", str(tmp_path))
        assert proc.returncode == 2
        assert "unknown dataset" in proc.stderr

    def test_names_and_all_conflict(self, tmp_path):
        proc = run_cli("fetch", "letter", "--all", "--data-dir", str(tmp_path))
        assert proc.returncode == 2
        assert "not both" in proc.stderr

    def test_verify_with_no_manifest(self, tmp_path):
        proc = run_cli("fetch", "--verify", "--data-dir", str(tmp_path))
        assert proc.returncode == 0
        assert "all checksums match" in proc.stdout

    def test_verify_reports_mismatch(self, tmp_path):
        (tmp_path / "checksums.json").write_text(json.dumps({"f.txt": "0" * 64}))
        (tmp_path / "f.txt").write_text("contents")
        proc = run_cli("fetch", "--verify", "--data-dir", str(tmp_path))
        assert proc.returncode == 1
        assert "checksum mismatch: f.txt" in proc.stderr


class TestReadme:
    def test_documented_commands_parse(self):
        # every superklust line of README's sh blocks parses with today's flags
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        lines = [
            line
            for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M)
            for line in block.splitlines()
            if line.startswith("superklust ")
        ]
        assert len(lines) >= 6
        parser = cli.build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line)[1:])
            except cli.UsageError:
                pytest.fail(f"README command does not parse: {line}")


class TestHelpAndDispatch:
    def test_no_subcommand_exits_2(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_top_level_help(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        for name in ("synth", "fit", "predict", "grid", "bench", "fetch"):
            assert name in proc.stdout

    def test_help_exits_0_in_process(self, capsys):
        for argv in (["--help"], ["fit", "--help"]):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(argv)
            assert exit_info.value.code == 0
            out = capsys.readouterr()
            assert out.out.startswith("usage: superklust") and out.err == ""

    def test_subcommand_help_shows_defaults(self):
        proc = run_cli("fit", "--help")
        assert proc.returncode == 0
        assert "(default: 10)" in proc.stdout
        proc = run_cli("bench", "--help")
        assert "(default: superklust,knn)" in proc.stdout


# The bad inputs of the error contract, by path under one directory.
BAD_FILES = {
    "empty.csv": b"",
    "header.csv": b"x0,x1,label\n",
    "ragged.csv": b"0,0,a\n1,1,b\n2,b\n",
    "latin1.csv": b"0,0,a\n1,0,caf\xe9\n",
    "nan.csv": b"0,0,a\nnan,1,b\n",
    "inf.csv": b"0,0,a\n1,-inf,b\n",
    # finite rows whose squared distances overflow float64
    "squares.csv": b"1e160,0,a\n0,1,a\n1,1,a\n2,2,b\n3,1,b\n1e160,1,b\n",
    # finite rows whose standard deviation overflows float64
    "spread.csv": b"1e308,0,a\n-1e308,1,a\n5,5,b\n6,5,b\n",
    "digits.csv": b"1" + b"0" * 300 + b",0,a\n0,1,a\n5,5,b\n6,5,b\n",
    "digits_features.csv": b"1" + b"0" * 300 + b",0\n",
    "far_features.csv": b"1e200,0\n",
    "unknown_label.csv": b"0,0,a\n5,5,z\n",
    "three_features.csv": b"0,0,0,a\n5,5,5,b\n",
    "text.json": b"not a model\n",
    "list.json": b"[2]\n",
    "latin1.json": b"\xe9\n",
    "manifest_text/checksums.json": b"not json",
    "manifest_list/checksums.json": b"[]",
    "manifest_latin1/checksums.json": b"\xe9",
    "manifest_dir/checksums.json/f": b"",
    "mismatch/checksums.json": json.dumps({"f": "0" * 64, "g": "0" * 64}).encode(),
    "mismatch/f": b"f",
    "mismatch/g": b"g",
    "latin1_data/letter/train.csv": b"caf\xe9,0\n",
    "latin1_data/letter/test.csv": b"a,0\n",
}

# (id, exit code, argv); {d} is the directory of BAD_FILES, {model} a 2-D
# model of labels a and b, {scaled} one whose first feature's scale is
# about 5e-151, {model3} a 3-D one.
CONTRACT_CASES = [
    ("fit-empty", 1, "fit --data {d}/empty.csv --out {d}/m.json"),
    ("fit-header-only", 1, "fit --data {d}/header.csv --has-header --out {d}/m.json"),
    ("fit-ragged", 1, "fit --data {d}/ragged.csv --out {d}/m.json"),
    ("fit-non-utf8", 1, "fit --data {d}/latin1.csv --out {d}/m.json"),
    ("fit-nan", 1, "fit --data {d}/nan.csv --out {d}/m.json"),
    ("fit-inf", 1, "fit --data {d}/inf.csv --out {d}/m.json"),
    ("fit-squares-overflow", 1, "fit --data {d}/squares.csv --k 2 --out {d}/m.json"),
    ("fit-spread-overflow", 1, "fit --data {d}/spread.csv --standardize --out {d}/m.json"),
    ("fit-300-digits", 1, "fit --data {d}/digits.csv --k 2 --out {d}/m.json"),
    ("fit-data-dir", 1, "fit --data {d} --out {d}/m.json"),
    ("fit-data-no-parent", 1, "fit --data {d}/absent/x.csv --out {d}/m.json"),
    ("fit-out-dir", 1, "fit --data {d}/train.csv --k 1 --out {d}"),
    ("fit-out-no-parent", 1, "fit --data {d}/train.csv --k 1 --out {d}/absent/m.json"),
    ("fit-k-0", 2, "fit --data {d}/train.csv --k 0 --out {d}/m.json"),
    ("predict-empty", 1, "predict --model {model} --data {d}/empty.csv"),
    ("predict-header-only", 1, "predict --model {model} --data {d}/header.csv --has-header"),
    ("predict-ragged", 1, "predict --model {model} --data {d}/ragged.csv --label-col -1"),
    ("predict-non-utf8", 1, "predict --model {model} --data {d}/latin1.csv --label-col -1"),
    ("predict-nan", 1, "predict --model {model} --data {d}/nan.csv --label-col -1"),
    ("predict-inf", 1, "predict --model {model} --data {d}/inf.csv --label-col -1"),
    ("predict-scale-overflow", 1, "predict --model {scaled} --data {d}/far_features.csv"),
    ("predict-300-digits", 1, "predict --model {scaled} --data {d}/digits_features.csv"),
    ("predict-unknown-label", 1,
     "predict --model {model} --data {d}/unknown_label.csv --label-col -1"),
    ("predict-dimension", 1,
     "predict --model {model} --data {d}/three_features.csv --label-col -1"),
    ("predict-model-text", 1, "predict --model {d}/text.json --data {d}/train.csv"),
    ("predict-model-list", 1, "predict --model {d}/list.json --data {d}/train.csv"),
    ("predict-model-non-utf8", 1, "predict --model {d}/latin1.json --data {d}/train.csv"),
    ("predict-model-dir", 1, "predict --model {d} --data {d}/train.csv"),
    ("predict-data-dir", 1, "predict --model {model} --data {d}"),
    ("predict-data-no-parent", 1, "predict --model {model} --data {d}/absent/x.csv"),
    ("predict-out-dir", 1,
     "predict --model {model} --data {d}/train.csv --label-col -1 --out {d}"),
    ("predict-out-no-parent", 1,
     "predict --model {model} --data {d}/train.csv --label-col -1 --out {d}/absent/p.csv"),
    ("grid-model-text", 1, "grid --model {d}/text.json"),
    ("grid-model-list", 1, "grid --model {d}/list.json"),
    ("grid-model-non-utf8", 1, "grid --model {d}/latin1.json"),
    ("grid-model-dir", 1, "grid --model {d}"),
    ("grid-model-3d", 1, "grid --model {model3}"),
    ("grid-out-dir", 1, "grid --model {model} --out {d}"),
    ("grid-out-no-parent", 1, "grid --model {model} --out {d}/absent/g.csv"),
    ("grid-nan", 2, "grid --model {model} --x-min nan"),
    ("grid-inf", 2, "grid --model {model} --y-max inf"),
    ("grid-width-overflow", 2, "grid --model {model} --x-min=-1e308 --x-max=1e308"),
    ("grid-exponent-negative", 2, "grid --model {model} --x-min -1e308 --x-max 1e308"),
    ("grid-scale-overflow", 1, "grid --model {scaled} --x-max 1e300 --resolution 2"),
    ("grid-resolution-1", 2, "grid --model {model} --resolution 1"),
    ("synth-noise-nan", 2, "synth moons --noise nan --out {d}/s.csv"),
    ("synth-noise-inf", 2, "synth circles --noise inf --out {d}/s.csv"),
    ("synth-noise-overflow", 1, "synth moons --noise 1e308 --out {d}/s.csv"),
    ("synth-sigma-inf", 2, "synth blobs --n 30 --sigma inf --out {d}/s.csv"),
    ("synth-sigma-nan", 2, "synth blobs --n 30 --sigma nan --out {d}/s.csv"),
    ("synth-n-odd", 2, "synth moons --n 7 --out {d}/s.csv"),
    ("synth-out-dir", 1, "synth moons --out {d}"),
    ("synth-out-no-parent", 1, "synth moons --out {d}/absent/s.csv"),
    ("synth-seed-negative", 2, "synth moons --seed -1 --out {d}/s.csv"),
    ("bench-unknown-algorithm", 2, "bench --datasets blobs --algos superklust,foo"),
    ("bench-unknown-dataset", 1, "bench --datasets nosuch --repetitions 1 --warmup 0"),
    ("bench-missing-dataset", 1,
     "bench --datasets letter --data-dir {d} --repetitions 1 --warmup 0"),
    ("bench-non-utf8", 1,
     "bench --datasets letter --data-dir {d}/latin1_data --repetitions 1 --warmup 0"),
    ("bench-out-dir", 1, "bench --datasets nosuch --repetitions 1 --warmup 0 --out {d}"),
    ("bench-k-0", 2, "bench --datasets blobs --k 0"),
    ("bench-repeated-dataset", 2, "bench --datasets blobs,blobs --repetitions 1 --warmup 0"),
    ("bench-repeated-algorithm", 2, "bench --datasets blobs --algos knn,superklust,knn"),
    ("fetch-unknown", 2, "fetch nosuch --data-dir {d}"),
    ("fetch-names-and-all", 2, "fetch letter --all --data-dir {d}"),
    ("fetch-manifest-text", 1, "fetch --verify --data-dir {d}/manifest_text"),
    ("fetch-manifest-list", 1, "fetch --verify --data-dir {d}/manifest_list"),
    ("fetch-manifest-non-utf8", 1, "fetch --verify --data-dir {d}/manifest_latin1"),
    ("fetch-manifest-dir", 1, "fetch --verify --data-dir {d}/manifest_dir"),
    ("fetch-two-mismatches", 1, "fetch --verify --data-dir {d}/mismatch"),
    ("parse-unknown-flag", 2, "fit --data {d}/train.csv --tol 1e-6 --out {d}/m.json"),
    ("parse-bad-int", 2, "fit --data {d}/train.csv --k x --out {d}/m.json"),
    ("parse-missing-required", 2, "predict --data {d}/train.csv"),
    ("parse-no-subcommand", 2, ""),
    ("parse-bad-choice", 2, "synth nope --out {d}/s.csv"),
]

# Requests beyond clustering.MAX_VALUES; big.csv is 4096 rows of one class,
# tall.csv 9000, whose Lloyd screen at --k 9000 holds 9000^2 values.
OVERSIZED_CASES = [
    ("grid-resolution", "grid --model {model} --resolution 100000"),
    ("grid-resolution-300-digits", "grid --model {model} --resolution 1" + "0" * 300),
    ("synth-moons-n", "synth moons --n 1000000000000 --out {d}/s.csv"),
    ("synth-circles-n-300-digits", "synth circles --n 1" + "0" * 300 + " --out {d}/s.csv"),
    ("synth-blobs-dim", "synth blobs --n 3 --classes 3 --dim 1000000000 --out {d}/s.csv"),
    ("synth-blobs-classes", "synth blobs --n 100000000 --classes 100000000 --out {d}/s.csv"),
    ("fit-restarts", "fit --data {d}/big.csv --k 2 --restarts 65536 --out {d}/m.json"),
    ("fit-k", "fit --data {d}/tall.csv --k 9000 --restarts 1 --out {d}/m.json"),
]

OUTPUT_COMMANDS = {
    "synth": ["synth", "moons", "--n", "20"],
    "fit": ["fit", "--data", "train.csv", "--k", "2"],
    "predict": ["predict", "--model", "model.json", "--data", "train.csv", "--label-col", "-1"],
    "grid": ["grid", "--model", "model.json", "--resolution", "3"],
    "bench": [
        "bench", "--datasets", "blobs", "--algos", "knn", "--repetitions", "1", "--warmup", "0",
        "--format", "csv",
    ],
}


class TestOneWayOut:
    """Every --out takes `-` for stdout; the summary lines then go to
    stderr, and stdout holds the data alone."""

    @pytest.mark.parametrize("command", list(OUTPUT_COMMANDS))
    def test_data_and_summary_streams(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        train = make_gaussian_blobs(20, [[0.0, 0.0], [3.0, 3.0]], 1.0, seed=5)
        write_dataset_csv("train.csv", train, header=False)
        model = fit(train, KMeansConfig(k=2))
        Path("model.json").write_bytes(save_model(model))
        summary = {
            "synth": "wrote 20 rows x 3 columns to {out}\n",
            "fit": f"generators: {len(model.labels)}\n"
            f"training accuracy: {evaluate(model, train):.4f}\n",
            "predict": f"accuracy: {evaluate(model, train):.4f}\n",
        }.get(command, "")
        argv = OUTPUT_COMMANDS[command]

        assert cli.main([*argv, "--out", "-"]) == 0
        piped = capsys.readouterr()
        assert piped.err == summary.format(out="-")
        assert cli.main([*argv, "--out", "data.out"]) == 0
        filed = capsys.readouterr()
        assert filed.out == summary.format(out="data.out") and filed.err == ""
        assert not Path("-").exists()

        written = Path("data.out").read_bytes()
        if command == "fit":
            assert load_model(piped.out) == load_model(written) == model
            assert piped.out.encode() == written
            return
        rows = list(csv.reader(io.StringIO(piped.out, newline="")))
        assert rows and len({len(row) for row in rows}) == 1
        if command == "bench":  # timings differ between the two runs
            assert rows[0][0] == "dataset" and [r[:3] for r in rows] == [
                r[:3] for r in csv.reader(io.StringIO(written.decode(), newline=""))
            ]
        else:
            assert piped.out.encode() == written


# Runs cli.main with the address space capped at 1 GiB, so that a
# request the budget misses fails at once instead of allocating.
LIMITED_MAIN = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "from superklust.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


class TestClassCountCost:
    """predict and grid on a model of 10^9 classes cost what its file
    costs, under the same 1 GiB cap."""

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
    def test_predict_and_grid(self, tmp_path):
        (tmp_path / "big.json").write_text(HUGE_CLASS_COUNT_DOC)
        (tmp_path / "x.csv").write_text("0,0,999999999\n1,1,999999999\n")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        summaries = {}
        for argv in ("predict --model {d}/big.json --data {d}/x.csv --label-col -1 --out {d}/p.csv",
                     "grid --model {d}/big.json --resolution 2 --out {d}/g.csv"):
            proc = subprocess.run(
                [sys.executable, "-c", LIMITED_MAIN, *argv.format(d=tmp_path).split()],
                capture_output=True, text=True, env=env, timeout=20,
            )
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
            summaries[argv.split()[0]] = proc.stdout
        assert summaries == {"predict": "accuracy: 1.0000\n", "grid": ""}
        assert (tmp_path / "p.csv").read_text() == "label\n999999999\n999999999\n"
        grid = (tmp_path / "g.csv").read_text().splitlines()
        assert [row.split(",")[2] for row in grid] == ["label"] + ["999999999"] * 4


class TestErrorContract:
    """Every bad input ends in exit code 1 or 2 and exactly one stderr
    line, which starts with `error:`: no traceback, no warning."""

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("contract")
        for rel, data in BAD_FILES.items():
            (d / rel).parent.mkdir(parents=True, exist_ok=True)
            (d / rel).write_bytes(data)
        (d / "train.csv").write_text("0,0,a\n0.1,0,a\n5,5,b\n5.1,5,b\n")
        (d / "tiny_scale.csv").write_text("0,0,a\n1e-150,1,a\n0,5,b\n1e-150,6,b\n")
        (d / "big.csv").write_text("".join(f"{i},{i % 7},a\n" for i in range(4096)))
        (d / "tall.csv").write_text("".join(f"{i},{i % 7},a\n" for i in range(9000)))
        models = {"model": "train.csv", "scaled": "tiny_scale.csv"}
        for name, data in models.items():
            ds = load_csv(d / data, label_column=-1)
            scaler = standardize_fit(ds) if name == "scaled" else None
            train = ds if scaler is None else standardize_apply(scaler, ds)
            model = replace(fit(train, KMeansConfig(k=1)), scaler=scaler)
            (d / f"{name}.json").write_bytes(save_model(model))
        ds = make_gaussian_blobs(5, [[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]], 1.0, seed=0)
        (d / "model3.json").write_bytes(save_model(fit(ds, KMeansConfig(k=1))))
        return {"d": str(d), **{m: str(d / f"{m}.json") for m in ("model", "scaled", "model3")}}

    @staticmethod
    def argv(template, paths):
        return [token.format(**paths) for token in template.split()]

    @pytest.mark.parametrize("code, template", [c[1:] for c in CONTRACT_CASES],
                             ids=[c[0] for c in CONTRACT_CASES])
    def test_one_error_line(self, paths, capsys, code, template):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                assert cli.main(self.argv(template, paths)) == code
            except SystemExit as exc:
                pytest.fail(f"cli.main raised SystemExit({exc.code})")
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert [str(w.message) for w in caught] == []

    def test_failures_share_the_line(self, paths, capsys):
        assert cli.main(self.argv("fetch --verify --data-dir {d}/mismatch", paths)) == 1
        assert capsys.readouterr().err == "error: checksum mismatch: f, g\n"
        argv = self.argv("bench --datasets nosuch,letter --data-dir {d} --warmup 0", paths)
        assert cli.main(argv) == 1
        line = capsys.readouterr().err
        assert line.count("\n") == 1
        for cell in ("(nosuch, superklust)", "(nosuch, knn)", "(letter, superklust)",
                     "(letter, knn)"):
            assert f"cell {cell} failed: " in line

    @pytest.mark.parametrize("d", [2**62, 10**30], ids=["2^62", "10^30"])
    def test_huge_d_without_generators_is_malformed(self, paths, capsys, tmp_path, d):
        model = tmp_path / "huge.json"
        model.write_text(json.dumps({"version": 2, "d": d, "n_classes": 1, "k": 1, "labels": [],
                                     "source_classes": [], "points": ""}))
        for argv in (["predict", "--model", str(model), "--data", f"{paths['d']}/train.csv"],
                     ["grid", "--model", str(model)]):
            assert cli.main(argv) == 1
            assert capsys.readouterr().err == (
                "error: malformed model document: points must be a nonempty (G, d) matrix, "
                f"not shape (0, {d})\n"
            )

    def test_exponent_negative_parses_in_the_equals_form(self, paths, capsys):
        too_wide = "error: the grid's width and height must be finite\n"
        argv = self.argv("grid --model {model} --x-min=-1e308 --x-max=1e308", paths)
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == too_wide
        # argparse of Python 3.11 reads a separate -1e308 as a flag
        argv = self.argv("grid --model {model} --x-min -1e308 --x-max 1e308", paths)
        assert cli.main(argv) == 2
        assert capsys.readouterr().err in (
            "error: argument --x-min: expected one argument\n", too_wide
        )

    @pytest.mark.parametrize("name, shown", [("a\nb", r"a\nb"), ("a\rb", r"a\rb")],
                             ids=["newline", "carriage-return"])
    def test_line_break_in_dataset_name_is_escaped(self, capsys, name, shown):
        argv = ["bench", "--datasets", name, "--algos", "knn", "--repetitions", "1"]
        assert cli.main(argv) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: cell ({shown}, knn) failed: ")

    def test_every_line_break_is_escaped(self, monkeypatch, capsys):
        text = "".join(map(chr, range(0x110000)))
        breaks = [piece[-1] for piece in text.splitlines(keepends=True)][:-1]
        assert "\n" in breaks and "\u2028" in breaks

        def handler(args):
            raise ValueError("x" + "y".join(breaks) + "\tz\\é")

        monkeypatch.setattr(cli, "cmd_synth", handler)
        assert cli.main(["synth", "moons", "--out", "unused.csv"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: x" + "y".join(repr(c)[1:-1] for c in breaks) + "\tz\\é"
        ]

    @pytest.mark.parametrize("flags, line", [
        (["--datasets", "blobs,moons,blobs"], "error: repeated dataset name(s): blobs\n"),
        (["--datasets", "blobs", "--algos", "knn,knn"],
         "error: repeated algorithm name(s): knn\n"),
    ], ids=["datasets", "algos"])
    def test_repeated_name_runs_no_cell(self, monkeypatch, capsys, flags, line):
        from superklust import bench

        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(bench, "_run_cell", no_cell)
        assert cli.main(["bench", *flags]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == line

    def test_unknown_algorithm_runs_no_cell(self, monkeypatch, capsys):
        from superklust import bench

        def no_cells(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(bench, "run_benchmark", no_cells)
        assert cli.main(["bench", "--datasets", "blobs", "--algos", "superklust,foo,bar"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: unknown algorithm(s): bar, foo\n"

    @pytest.mark.parametrize(
        "exc, line",
        [(MemoryError(), "error: MemoryError"),
         (MemoryError("Unable to allocate 8.00 EiB"), "error: Unable to allocate 8.00 EiB")],
        ids=["bare", "numpy"],
    )
    def test_memory_error_exits_1(self, monkeypatch, capsys, exc, line):
        def handler(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_synth", handler)
        assert cli.main(["synth", "moons", "--out", "unused.csv"]) == 1
        assert capsys.readouterr().err.splitlines() == [line]

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
    @pytest.mark.parametrize("template", [c[1] for c in OVERSIZED_CASES],
                             ids=[c[0] for c in OVERSIZED_CASES])
    def test_oversized_request_refused_before_allocating(self, paths, template):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", LIMITED_MAIN, *self.argv(template, paths)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2, proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: ") and line.endswith(" float64 values, over 2^26 (512 MiB)")
        assert proc.stdout == ""

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
    def test_bench_restarts_refused_before_fitting(self):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        argv = ("bench --datasets blobs --algos superklust --restarts 100000000"
                " --repetitions 1 --warmup 0").split()
        proc = subprocess.run(
            [sys.executable, "-c", LIMITED_MAIN, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: cell (blobs, superklust) failed: UsageError: n_restarts ")
        assert line.endswith(" float64 values, over 2^26 (512 MiB)")
        assert "| superklust | error |" in proc.stdout

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
    def test_bench_k_refused_before_fitting(self, tmp_path):
        # one class of 9000 rows: Lloyd's screen at --k 9000 would hold 9000^2 values
        (tmp_path / "letter").mkdir()
        (tmp_path / "letter" / "train.csv").write_text(
            "".join(f"a,{i},{i % 7}\n" for i in range(9000))
        )
        (tmp_path / "letter" / "test.csv").write_text("a,0,0\na,1,1\n")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        argv = (f"bench --datasets letter --data-dir {tmp_path} --algos superklust --k 9000"
                " --restarts 1 --repetitions 1 --warmup 0").split()
        proc = subprocess.run(
            [sys.executable, "-c", LIMITED_MAIN, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        [line] = proc.stderr.splitlines()
        assert line == (
            "error: cell (letter, superklust) failed: UsageError: 9000 centers x 9000 rows"
            " would take 81000000 float64 values, over 2^26 (512 MiB)"
        )
        assert "| superklust | error |" in proc.stdout

    @pytest.mark.parametrize(
        "rows, accuracy",
        [("0,0,a\n1,1,a\n", "1.0000"), ("1,1,a\n1,1,a\n1,1,b\n1,1,b\n", "0.5000")],
        ids=["one-class", "duplicate-rows"],
    )
    def test_degenerate_training_sets_fit(self, tmp_path, capsys, rows, accuracy):
        # valid inputs, if degenerate: fit and predict succeed, with nothing on stderr
        data, model = str(tmp_path / "t.csv"), str(tmp_path / "m.json")
        (tmp_path / "t.csv").write_text(rows)
        pred = str(tmp_path / "p.csv")
        assert cli.main(["fit", "--data", data, "--k", "2", "--out", model]) == 0
        assert cli.main(
            ["predict", "--model", model, "--data", data, "--label-col", "-1", "--out", pred]
        ) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert out.out.splitlines()[-1] == f"accuracy: {accuracy}"
