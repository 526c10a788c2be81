import io
import json
import re
import shlex
import subprocess
import sys
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

    def test_bad_k_exits_2(self, tmp_path):
        data = synth(tmp_path, "moons", "--n", "20")
        proc = run_cli(
            "fit", "--data", str(data), "--k", "0", "--out", str(tmp_path / "m.json")
        )
        assert proc.returncode == 2
        assert "--k must be >= 1" in proc.stderr

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
            "label", '"x,y"', '"x,y"', '"say ""hi"""', '"say ""hi"""', "accuracy: 1.0000"
        ]

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

    def test_empty_lists_exit_2(self):
        proc = run_cli("bench", "--datasets", "", "--algos", "superklust")
        assert proc.returncode == 2


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
            except SystemExit:
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

    def test_subcommand_help_shows_defaults(self):
        proc = run_cli("fit", "--help")
        assert proc.returncode == 0
        assert "(default: 10)" in proc.stdout
        proc = run_cli("bench", "--help")
        assert "(default: superklust,knn)" in proc.stdout
