"""Benchmark runner for superklust.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload letter --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Each workload runs in its own process with the BLAS thread cap exported
before numpy loads. The process sets its inputs up, then repeats rounds
of the workload's session until --seconds have passed (at least two
rounds), setting up again after each of the first rounds (setup_s is
the median of SETUP_REPS set-ups), and checks every output against the
benchmark's own references. It prints each metric by name
and unit, an environment line, and as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics (from a separate traced run) with
--trace 1. It exits 2 without a result when the package source is
missing. The package is imported from src/ of the checkout; nothing is
installed.
"""

from __future__ import annotations

import argparse
import os
import sys

BLAS_THREAD_CAP = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREAD_CAP)

import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("letter", "isolet-fit")
SETUP_REPS = 3
MIN_ROUNDS = 2

# name -> unit, in BENCHMARK.json order; measured with tracing off.
END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "test_accuracy": "fraction",
    "predict_row_us": "us",
    "predict_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "cli_fit_s": "s",
    "cli_predict_s": "s",
    "import_s": "s",
}


def import_package():
    """Import superklust from this checkout's src/, or exit 2."""
    if not (SRC / "superklust" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'superklust'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import superklust

    if Path(superklust.__file__).resolve().parent != SRC / "superklust":
        print(f"error: imported superklust from {superklust.__file__}", file=sys.stderr)
        sys.exit(2)


def environment(blas_threads) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": blas_threads,
        "blas_thread_cap": BLAS_THREAD_CAP,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> int:
    import_package()
    import workloads as wl

    workdir = ROOT / ".perfbench" / f"{name}-s{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        session = wl.Session(name, seed, workdir, SRC, tiny)
        env = environment(wl.blas_threads())
        session.ops.check(
            "blas threads",
            env["blas_threads"] is None or env["blas_threads"] <= BLAS_THREAD_CAP,
            f"{env['blas_threads']} threads in effect, cap {BLAS_THREAD_CAP}",
        )
        if trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()

        def timed_setup():
            start = time.perf_counter()
            session.setup()
            return time.perf_counter() - start

        setup_times = [timed_setup()]
        print(f"inputs {wl.digest(session.train.X, session.train.y, session.queries)}")
        session.run_cli("warm-up import", ["-c", "import superklust"])

        # The repeated set-ups go between rounds, so that their samples
        # spread over the run like all others: the machine's speed drifts.
        start = time.perf_counter()
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
            session.round()
            rounds += 1
            if len(setup_times) < SETUP_REPS:
                setup_times.append(timed_setup())
        while len(setup_times) < SETUP_REPS:
            setup_times.append(timed_setup())
        accuracy = session.final_checks()

        if trace:
            probe = tracing.probes(session, tracer)
            tracer.uninstall()
            metrics = tracing.per_layer(tracer, probe, session)
            units = tracing.PER_LAYER
            tracer.write(ROOT / ".perfbench" / f"spans-{name}-s{seed}.json")
        else:
            metrics = session.end_to_end(setup_times, accuracy)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = session.ops
    print(f"workload {name}: seed {seed}, {rounds} rounds, trace {int(trace)}")
    for key, unit in units.items():
        print(f"  {key} = {metrics[key]:.6g} {unit}")
    print(f"  ops attempted = {ops.attempted}, ops failed = {ops.failed}")
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in a fresh process; exit 1 if any fails."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines() or ["{}"]
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not json.loads(lines[-1]).get("correct"):
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOAD_NAMES, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1, help="workload seed: draws the inputs")
    parser.add_argument("--seconds", type=float, default=45, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for self-tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)


if __name__ == "__main__":
    sys.exit(main())
