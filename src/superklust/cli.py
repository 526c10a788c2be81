"""Command-line front end: synthesize data, fit/save models, predict,
export decision grids, benchmark, fetch datasets.

Exit codes: 0 success, 1 runtime/IO failure, 2 usage error. The
benchmark harness and the fetcher are imported inside their handlers,
so fit, predict, grid and synth never load them.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import datasets, tessellation
from .clustering import KMeansConfig


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _data_dir(args) -> str:
    if args.data_dir is not None:
        return args.data_dir
    return os.environ.get("DATA_DIR", "data")


def _write_out(path: str, text: str) -> None:
    """Write text to path, or to stdout for '-'."""
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, newline="")


def _parse_label_col(value: str):
    try:
        return int(value)
    except ValueError:
        return value


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentDefaultsHelpFormatter
    parser = argparse.ArgumentParser(
        prog="superklust",
        description="Piecewise-linear classification with labeled Voronoi generator points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic dataset CSV", formatter_class=fmt)
    p.add_argument("kind", choices=["moons", "circles", "blobs"])
    p.add_argument("--n", type=int, default=400, help="total sample count")
    p.add_argument("--noise", type=float, default=0.1, help="noise sigma (moons/circles)")
    p.add_argument("--factor", type=float, default=0.5, help="inner radius ratio (circles)")
    p.add_argument("--sigma", type=float, default=1.0, help="class spread (blobs)")
    p.add_argument("--classes", type=int, default=3, help="class count (blobs)")
    p.add_argument("--dim", type=int, default=2, help="feature count (blobs)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--header", action="store_true", help="write a header row")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("fit", help="fit a model and save it as JSON", formatter_class=fmt)
    p.add_argument("--data", required=True, help="training CSV path")
    p.add_argument(
        "--label-col",
        default="-1",
        help="label column: index (negative counts from the end) or name",
    )
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--k", type=int, default=10, help="clusters per class")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument(
        "--standardize", action="store_true", help="train-fit standardization, kept in the model"
    )
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("predict", help="classify rows of a CSV", formatter_class=fmt)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument(
        "--label-col",
        default=None,
        help="optional truth column (index or name); enables accuracy output",
    )
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("grid", help="export a decision grid CSV", formatter_class=fmt)
    p.add_argument("--model", required=True)
    p.add_argument("--x-min", type=float, default=-3.0)
    p.add_argument("--x-max", type=float, default=3.0)
    p.add_argument("--y-min", type=float, default=-3.0)
    p.add_argument("--y-max", type=float, default=3.0)
    p.add_argument("--resolution", type=int, default=200)
    p.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
    p.set_defaults(handler=cmd_grid)

    p = sub.add_parser("bench", help="run the accuracy/timing benchmark", formatter_class=fmt)
    p.add_argument(
        "--datasets",
        default="optdigits,satimage,letter",
        help="comma list; real names need fetched data, synthetic "
        "(moons,circles,blobs) run anywhere",
    )
    p.add_argument("--algos", default="superklust,knn", help="comma list")
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--repetitions", type=int, default=10)
    p.add_argument("--warmup", type=int, default=2)
    p.add_argument("--knn-neighbors", type=int, default=3)
    p.add_argument("--no-standardize", action="store_true")
    p.add_argument("--data-dir", default=None, help="defaults to $DATA_DIR or ./data")
    p.add_argument("--format", choices=["markdown", "csv"], default="markdown")
    p.add_argument("--out", default="-", help="report path ('-' = stdout)")
    p.set_defaults(handler=cmd_bench)

    p = sub.add_parser("fetch", help="download benchmark datasets", formatter_class=fmt)
    p.add_argument("names", nargs="*", help="dataset names (default: optdigits satimage letter)")
    p.add_argument("--all", action="store_true", help="fetch all five, including usps/isolet")
    p.add_argument("--data-dir", default=None, help="defaults to $DATA_DIR or ./data")
    p.add_argument("--force", action="store_true", help="re-fetch even if present")
    p.add_argument("--verify", action="store_true", help="only re-verify checksums")
    p.set_defaults(handler=cmd_fetch)

    return parser


def cmd_synth(args) -> int:
    if args.kind in ("moons", "circles"):
        if args.n < 2 or args.n % 2 != 0:
            _err("--n must be an even integer >= 2")
            return 2
        if args.noise < 0:
            _err("--noise must be nonnegative")
            return 2
        if args.kind == "circles" and not 0.0 < args.factor < 1.0:
            _err("--factor must be in (0, 1)")
            return 2
    else:
        if args.sigma <= 0:
            _err("--sigma must be positive")
            return 2
        if args.classes < 1 or args.dim < 1:
            _err("--classes and --dim must be positive")
            return 2
        if args.n < 1 or args.n % args.classes != 0:
            _err("--n must be a positive multiple of --classes")
            return 2

    if args.kind == "moons":
        ds = datasets.make_moons(args.n, args.noise, args.seed)
    elif args.kind == "circles":
        ds = datasets.make_circles(args.n, args.factor, args.noise, args.seed)
    else:
        centers = np.random.default_rng(args.seed).uniform(-10.0, 10.0, (args.classes, args.dim))
        ds = datasets.make_gaussian_blobs(args.n // args.classes, centers, args.sigma, args.seed + 1)
    datasets.write_dataset_csv(args.out, ds, header=args.header)
    print(f"wrote {ds.n} rows x {ds.d + 1} columns to {args.out}")
    return 0


def cmd_fit(args) -> int:
    if args.k < 1:
        _err("--k must be >= 1")
        return 2
    ds = datasets.load_csv(
        args.data, label_column=_parse_label_col(args.label_col), has_header=args.has_header
    )
    scaler = datasets.standardize_fit(ds) if args.standardize else None
    train = ds if scaler is None else datasets.standardize_apply(scaler, ds)
    config = KMeansConfig(
        k=args.k,
        max_iter=args.max_iter,
        tol=args.tol,
        n_restarts=args.restarts,
        seed=args.seed,
    )
    model = replace(tessellation.fit(train, config), scaler=scaler)
    Path(args.out).write_bytes(tessellation.save_model(model))
    accuracy = tessellation.evaluate(model, ds)  # the model scales the raw rows itself
    print(f"generators: {len(model.labels)}")
    print(f"training accuracy: {accuracy:.4f}")
    return 0


def _csv_cell(token: str) -> str:
    """token as one CSV cell, quoted when it holds a delimiter, a quote or a line break."""
    if any(c in token for c in ',"\r\n'):
        return '"' + token.replace('"', '""') + '"'
    return token


def _label_names(model) -> tuple[str, ...]:
    """The label token of each class id of model."""
    return model.label_names or tuple(map(str, range(model.n_classes)))


def cmd_predict(args) -> int:
    model = tessellation.load_model(Path(args.model).read_bytes())
    names = _label_names(model)
    truth = None
    if args.label_col is not None:
        ds = datasets.load_csv(
            args.data,
            label_column=_parse_label_col(args.label_col),
            has_header=args.has_header,
            label_map={tok: i for i, tok in enumerate(names)},
        )
        X, truth = ds.X, ds.y
    else:
        X = datasets.load_csv_features(args.data, has_header=args.has_header)
    bank = tessellation.to_discriminants(model)
    labels = tessellation.predict(bank, X)
    cells = [_csv_cell(name) + "\n" for name in names]
    _write_out(args.out, "label\n" + "".join(cells[lab] for lab in labels.tolist()))
    if truth is not None:
        print(f"accuracy: {float((labels == truth).mean()):.4f}")
    return 0


def cmd_grid(args) -> int:
    if not (args.x_min < args.x_max and args.y_min < args.y_max):
        _err("--x-min/--y-min must be less than --x-max/--y-max")
        return 2
    if args.resolution < 2:
        _err("--resolution must be >= 2")
        return 2
    model = tessellation.load_model(Path(args.model).read_bytes())
    bank = tessellation.to_discriminants(model)
    xy, labels = datasets.decision_grid(
        bank, (args.x_min, args.x_max), (args.y_min, args.y_max), args.resolution
    )
    cells = [_csv_cell(name) for name in _label_names(model)]
    datasets.write_grid_csv(
        sys.stdout if args.out == "-" else args.out, xy, [cells[lab] for lab in labels.tolist()]
    )
    return 0


def cmd_bench(args) -> int:
    if args.repetitions < 1:
        _err("--repetitions must be >= 1")
        return 2
    if args.warmup < 0:
        _err("--warmup must be >= 0")
        return 2
    from .bench import BenchConfig, emit_report, run_benchmark

    config = BenchConfig(
        k=args.k,
        seed=args.seed,
        n_restarts=args.restarts,
        standardize=not args.no_standardize,
        repetitions=args.repetitions,
        warmup=args.warmup,
        knn_neighbors=args.knn_neighbors,
        data_dir=_data_dir(args),
    )
    names = [s for s in args.datasets.split(",") if s]
    algos = [s for s in args.algos.split(",") if s]
    if not names or not algos:
        _err("--datasets and --algos must be nonempty")
        return 2
    report = run_benchmark(names, algos, config)
    _write_out(args.out, emit_report(report, format=args.format))
    failures = [key for key, cell in report.cells.items() if cell.error is not None]
    for name, algo in failures:
        _err(f"cell ({name}, {algo}) failed: {report.cells[(name, algo)].error}")
    return 1 if failures else 0


def cmd_fetch(args) -> int:
    from . import fetch

    data_dir = _data_dir(args)
    if args.verify:
        bad = fetch.verify_checksums(data_dir)
        if bad:
            for rel in bad:
                _err(f"checksum mismatch: {rel}")
            return 1
        print("all checksums match")
        return 0
    if args.names and args.all:
        _err("give dataset names or --all, not both")
        return 2
    names = list(fetch.ALL_DATASETS) if args.all else (args.names or list(fetch.DEFAULT_DATASETS))
    unknown = sorted(set(names) - set(fetch.ALL_DATASETS))
    if unknown:
        _err(f"unknown dataset(s): {', '.join(unknown)}")
        return 2
    fetched = fetch.fetch_datasets(names, data_dir, force=args.force, progress=print)
    print(f"fetched: {', '.join(fetched) if fetched else 'nothing (all present)'}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, RuntimeError) as exc:
        _err(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
