"""Command-line front end: synthesize data, fit/save models, predict,
export decision grids, benchmark, fetch datasets.

Exit codes: 0 success, 1 runtime/IO failure, 2 usage error. The parser
and the handlers raise clustering's UsageError for a command line that
does not parse or a bad flag value (exit 2), as the library's fitting
entries do for a fit over clustering.MAX_VALUES float64 values; handlers
raise ValueError, OSError, RuntimeError or MemoryError for any other
failure (exit 1); main alone
prints the one stderr line `error: ...`, line breaks escaped, which for
bench and fetch --verify lists every failure, and returns the exit code
(only --help exits). Handlers print nothing but fetch's progress: main
prints the summary one returns, on stdout, or on stderr when --out is
`-`. The benchmark harness and the fetcher load only in their handlers.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import datasets, tessellation
from .clustering import KMeansConfig, UsageError, _within_budget
from .datasets import _ONE_LINE


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the class of its subparsers, that raises
    UsageError where argparse would print usage and exit."""

    def error(self, message):
        raise UsageError(message)


def _require(ok, message: str) -> None:
    if not ok:
        raise UsageError(message)


def _at_least(args, least: int, *flags: str) -> None:
    """Refuse the first of these integer flags that is given and below least."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        _require(value is None or value >= least, f"{flag} must be >= {least}")


def _data_dir(args) -> str:
    if args.data_dir is not None:
        return args.data_dir
    return os.environ.get("DATA_DIR", "data")


def _parse_label_col(value: str):
    try:
        return int(value)
    except ValueError:
        return value


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentDefaultsHelpFormatter
    parser = _Parser(
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
    p.add_argument("--out", required=True, help="output CSV path ('-' = stdout)")
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
    p.add_argument("--seed", type=int, default=KMeansConfig.seed)
    p.add_argument("--restarts", type=int, default=KMeansConfig.n_restarts)
    p.add_argument("--max-iter", type=int, default=KMeansConfig.max_iter)
    p.add_argument(
        "--standardize", action="store_true", help="train-fit standardization, kept in the model"
    )
    p.add_argument("--out", required=True, help="model JSON path ('-' = stdout)")
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
    # None takes BenchConfig's default; the harness loads only when bench runs
    for flag in ("--k", "--seed", "--restarts", "--repetitions", "--warmup", "--knn-neighbors"):
        p.add_argument(flag, type=int)
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


def cmd_synth(args) -> str:
    _at_least(args, 0, "--seed")
    if args.kind in ("moons", "circles"):
        _require(args.n >= 2 and args.n % 2 == 0, "--n must be an even integer >= 2")
        _require(0 <= args.noise < np.inf, "--noise must be nonnegative and finite")
        _require(args.kind == "moons" or 0.0 < args.factor < 1.0, "--factor must be in (0, 1)")
        dim = 2
    else:
        _require(0 < args.sigma < np.inf, "--sigma must be positive and finite")
        _require(args.classes >= 1 and args.dim >= 1, "--classes and --dim must be positive")
        _require(
            args.n >= 1 and args.n % args.classes == 0,
            "--n must be a positive multiple of --classes",
        )
        _within_budget(args.classes * args.dim, f"{args.classes} x {args.dim} blob centers")
        dim = args.dim
    _within_budget(args.n * (dim + 1), f"--n {args.n} rows of {dim + 1} columns")

    if args.kind == "moons":
        ds = datasets.make_moons(args.n, args.noise, args.seed)
    elif args.kind == "circles":
        ds = datasets.make_circles(args.n, args.factor, args.noise, args.seed)
    else:
        centers = np.random.default_rng(args.seed).uniform(-10.0, 10.0, (args.classes, args.dim))
        ds = datasets.make_gaussian_blobs(args.n // args.classes, centers, args.sigma, args.seed + 1)
    datasets.write_dataset_csv(args.out, ds, header=args.header)
    return f"wrote {ds.n} rows x {ds.d + 1} columns to {args.out}"


def cmd_fit(args) -> str:
    _at_least(args, 1, "--k", "--restarts", "--max-iter")
    _at_least(args, 0, "--seed")
    ds = datasets.load_csv(
        args.data, label_column=_parse_label_col(args.label_col), has_header=args.has_header
    )
    scaler = datasets.standardize_fit(ds) if args.standardize else None
    train = ds if scaler is None else datasets.standardize_apply(scaler, ds)
    config = KMeansConfig(
        k=args.k, max_iter=args.max_iter, n_restarts=args.restarts, seed=args.seed
    )
    model = replace(tessellation.fit(train, config), scaler=scaler)
    with datasets._text_out(args.out) as fh:
        fh.write(tessellation.save_model(model).decode("ascii"))
    accuracy = tessellation.evaluate(model, ds)  # the model scales the raw rows itself
    return f"generators: {len(model.labels)}\ntraining accuracy: {accuracy:.4f}"


def cmd_predict(args) -> str | None:
    model = tessellation.load_model(Path(args.model).read_bytes())
    truth = None
    if args.label_col is not None:
        ds = datasets.load_csv(
            args.data,
            label_column=_parse_label_col(args.label_col),
            has_header=args.has_header,
            label_names=model.label_names,
        )
        X, truth = ds.X, ds.y
    else:
        X = datasets.load_csv_features(args.data, has_header=args.has_header)
    bank = tessellation.to_discriminants(model)
    labels = tessellation.predict(bank, X)
    names = model.label_names  # one row per class the bank can answer, not per class
    rows = {lab: datasets._csv_row([names[lab]]) for lab in set(bank.labels.tolist())}
    with datasets._text_out(args.out) as fh:
        fh.write("label\n" + "".join(rows[lab] for lab in labels.tolist()))
    if truth is not None:
        return f"accuracy: {float((labels == truth).mean()):.4f}"


def cmd_grid(args) -> None:
    widths = (args.x_max - args.x_min, args.y_max - args.y_min)
    _require(all(w > 0 for w in widths), "--x-min/--y-min must be less than --x-max/--y-max")
    _require(all(w < np.inf for w in widths), "the grid's width and height must be finite")
    _require(args.resolution >= 2, "--resolution must be >= 2")
    _within_budget(2 * args.resolution**2, f"--resolution {args.resolution}")
    model = tessellation.load_model(Path(args.model).read_bytes())
    bank = tessellation.to_discriminants(model)
    xy, labels = datasets.decision_grid(
        bank, (args.x_min, args.x_max), (args.y_min, args.y_max), args.resolution
    )
    datasets.write_grid_csv(args.out, xy, [model.label_names[lab] for lab in labels.tolist()])


def cmd_bench(args) -> None:
    _at_least(args, 1, "--k", "--restarts", "--knn-neighbors", "--repetitions")
    _at_least(args, 0, "--seed", "--warmup")
    from .bench import ALGORITHMS, BenchConfig, emit_report, run_benchmark

    names = [s for s in args.datasets.split(",") if s]
    algos = [s for s in args.algos.split(",") if s]
    _require(names and algos, "--datasets and --algos must be nonempty")
    unknown = sorted(set(algos) - set(ALGORITHMS))
    _require(not unknown, f"unknown algorithm(s): {', '.join(unknown)}")
    given = dict(
        k=args.k, seed=args.seed, n_restarts=args.restarts,
        repetitions=args.repetitions, warmup=args.warmup, knn_neighbors=args.knn_neighbors,
    )
    config = BenchConfig(
        **{name: value for name, value in given.items() if value is not None},
        standardize=not args.no_standardize,
        data_dir=_data_dir(args),
    )
    report = run_benchmark(names, algos, config)
    with datasets._text_out(args.out) as fh:
        fh.write(emit_report(report, format=args.format))
    failed = [f"cell ({n}, {a}) failed: {c.error}" for (n, a), c in report.cells.items() if c.error]
    if failed:
        raise RuntimeError("; ".join(failed))


def cmd_fetch(args) -> str:
    from . import fetch

    data_dir = _data_dir(args)
    if args.verify:
        bad = fetch.verify_checksums(data_dir)
        if bad:
            raise fetch.ChecksumMismatch(f"checksum mismatch: {', '.join(bad)}")
        return "all checksums match"
    _require(not (args.names and args.all), "give dataset names or --all, not both")
    names = list(fetch.ALL_DATASETS) if args.all else (args.names or list(fetch.DEFAULT_DATASETS))
    unknown = sorted(set(names) - set(fetch.ALL_DATASETS))
    _require(not unknown, f"unknown dataset(s): {', '.join(unknown)}")
    fetched = fetch.fetch_datasets(names, data_dir, force=args.force, progress=print)
    return f"fetched: {', '.join(fetched) if fetched else 'nothing (all present)'}"


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if (summary := args.handler(args)) is not None:  # on stderr when the data is on stdout
            print(summary, file=sys.stderr if getattr(args, "out", None) == "-" else sys.stdout)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {(str(exc) or type(exc).__name__).translate(_ONE_LINE)}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
