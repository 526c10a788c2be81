import json
import subprocess
import sys

import numpy as np
import pytest

from superklust import (
    KMeansConfig,
    evaluate,
    fit,
    load_csv,
    load_model,
    make_gaussian_blobs,
    save_model,
    write_dataset_csv,
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
        assert len(model.generators) <= 2 * 2
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

    def test_standardize_writes_scaler_sidecar(self, tmp_path):
        data = synth(tmp_path, "blobs", "--n", "100", "--classes", "2")
        model_path = tmp_path / "model.json"
        proc = run_cli(
            "fit",
            "--data",
            str(data),
            "--k",
            "2",
            "--standardize",
            "--out",
            str(model_path),
        )
        assert proc.returncode == 0, proc.stderr
        sidecar = tmp_path / "model.json.scaler.json"
        assert sidecar.exists()
        doc = json.loads(sidecar.read_text())
        assert len(doc["mean"]) == 2 and len(doc["scale"]) == 2


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

    def test_scaler_round_trip(self, tmp_path):
        data = synth(tmp_path, "blobs", "--n", "200", "--classes", "2", "--sigma", "0.5")
        model_path = tmp_path / "model.json"
        proc = run_cli(
            "fit", "--data", str(data), "--k", "2", "--standardize", "--out", str(model_path)
        )
        assert proc.returncode == 0, proc.stderr
        proc = run_cli(
            "predict",
            "--model",
            str(model_path),
            "--data",
            str(data),
            "--label-col",
            "-1",
            "--scaler",
            str(tmp_path / "model.json.scaler.json"),
            "--out",
            str(tmp_path / "p.csv"),
        )
        assert proc.returncode == 0, proc.stderr
        accuracy = float(proc.stdout.split("accuracy: ")[1].split()[0])
        assert accuracy >= 0.95

    @pytest.mark.parametrize(
        "sidecar",
        [{"mean": [0.0, 0.0]}, {"mean": [0.0, 0.0, 0.0], "scale": [1.0, 1.0, 1.0]}],
        ids=["missing-scale", "wrong-length"],
    )
    def test_bad_scaler_sidecar_exits_1(self, tmp_path, sidecar):
        data, model_path = self.fitted(tmp_path)
        scaler = tmp_path / "bad.scaler.json"
        scaler.write_text(json.dumps(sidecar))
        proc = run_cli(
            "predict", "--model", str(model_path), "--data", str(data),
            "--label-col", "-1", "--scaler", str(scaler),
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert str(scaler) in lines[0]


class TestGrid:
    def model_2d(self, tmp_path):
        data = synth(tmp_path, "moons", "--n", "100")
        model_path = tmp_path / "model.json"
        proc = run_cli("fit", "--data", str(data), "--k", "3", "--out", str(model_path))
        assert proc.returncode == 0, proc.stderr
        return model_path

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
