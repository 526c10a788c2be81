"""Download and normalize the real-world benchmark datasets.

Each dataset lands under DATA_DIR/<name>/ in the layout that
load_benchmark_dataset expects (see datasets.BENCHMARK_DATASETS); raw
downloads are kept under DATA_DIR/_raw/. Sources:

  optdigits  UCI optdigits.tra/.tes, used as-is (3823/1797 x 64)
  letter     UCI letter-recognition.data, customary first-16000/last-4000
             split (16000/4000 x 16)
  usps       LIBSVM usps.bz2/usps.t.bz2, decompressed (7291/2007 x 256)
  satimage   OpenML "satimage" (6430 rows), seeded shuffle split
             5144/1286 x 36
  isolet     OpenML "isolet" (7797 rows), seeded shuffle split
             6240/1557 x 617

The two OpenML pulls go through scikit-learn's fetch_openml (install
the "fetch" extra). Splits use a fixed internal seed so every fetch
produces identical files. A checksums.json manifest records the sha256
of every written file on first fetch and is verified against on later
fetches; loaders themselves never touch the network.
"""

from __future__ import annotations

import bz2
import hashlib
import json
import shutil
import urllib.request
from pathlib import Path

import numpy as np

from .datasets import BENCHMARK_DATASETS

# Seed for the satimage/isolet shuffled splits; changing it changes the
# normalized files, so it is a constant, not a flag.
_SPLIT_SEED = 0

DEFAULT_DATASETS = ("optdigits", "satimage", "letter")
LARGE_DATASETS = ("usps", "isolet")
ALL_DATASETS = DEFAULT_DATASETS + LARGE_DATASETS

_UCI = "https://archive.ics.uci.edu/ml/machine-learning-databases"
_LIBSVM = "https://www.csie.ntu.edu.tw/~cjlin/libsvmtools/datasets/multiclass"

_URLS = {
    "optdigits.tra": f"{_UCI}/optdigits/optdigits.tra",
    "optdigits.tes": f"{_UCI}/optdigits/optdigits.tes",
    "letter-recognition.data": f"{_UCI}/letter-recognition/letter-recognition.data",
    "usps.bz2": f"{_LIBSVM}/usps.bz2",
    "usps.t.bz2": f"{_LIBSVM}/usps.t.bz2",
}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class ChecksumMismatch(RuntimeError):
    pass


class _Manifest:
    """sha256 manifest with trust-on-first-use semantics: unknown files
    are recorded, known files must match."""

    def __init__(self, data_dir: Path):
        self.path = data_dir / "checksums.json"
        self.entries = {}
        if self.path.exists():
            self.entries = json.loads(self.path.read_text())
            if not isinstance(self.entries, dict):
                raise ValueError(f"{self.path}: not a checksum manifest (a JSON object)")

    def check(self, data_dir: Path, path: Path):
        rel = str(path.relative_to(data_dir))
        digest = _sha256(path)
        known = self.entries.get(rel)
        if known is None:
            self.entries[rel] = digest
        elif known != digest:
            raise ChecksumMismatch(
                f"{rel}: sha256 {digest} does not match recorded {known}"
            )

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.entries, indent=2, sort_keys=True) + "\n")


def _download(url: str, dest: Path, progress=None):
    dest.parent.mkdir(parents=True, exist_ok=True)
    if progress:
        progress(f"downloading {url}")
    req = urllib.request.Request(url, headers={"User-Agent": "superklust-fetch/0.1"})
    with urllib.request.urlopen(req, timeout=120) as resp, open(dest, "wb") as out:
        shutil.copyfileobj(resp, out)


def _raw(data_dir: Path, filename: str, manifest: _Manifest, progress=None) -> Path:
    path = data_dir / "_raw" / filename
    if not path.exists():
        _download(_URLS[filename], path, progress)
    manifest.check(data_dir, path)
    return path


def _write_rows(path: Path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        for row in rows:
            fh.write(",".join(row) + "\n")


def _openml_rows(name: str):
    """Fetch an OpenML dataset by name; rows come back as CSV token
    lists with the label token last, in OpenML row order."""
    try:
        from sklearn.datasets import fetch_openml
    except ImportError as exc:
        raise RuntimeError(
            f"fetching {name!r} needs scikit-learn; install the 'fetch' extra"
        ) from exc
    bunch = fetch_openml(name=name, version=1, as_frame=False, parser="liac-arff")
    X = np.asarray(bunch.data, dtype=np.float64)
    y = [str(v) for v in bunch.target]
    return [[repr(float(v)) for v in row] + [lab] for row, lab in zip(X, y)]


def _split_rows(rows: list, n_train: int):
    perm = np.random.default_rng(_SPLIT_SEED).permutation(len(rows))
    return [rows[i] for i in perm[:n_train]], [rows[i] for i in perm[n_train:]]


def _fetch_optdigits(data_dir: Path, manifest: _Manifest, progress=None):
    out = data_dir / "optdigits"
    out.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(_raw(data_dir, "optdigits.tra", manifest, progress), out / "train.csv")
    shutil.copyfile(_raw(data_dir, "optdigits.tes", manifest, progress), out / "test.csv")


def _fetch_letter(data_dir: Path, manifest: _Manifest, progress=None):
    raw = _raw(data_dir, "letter-recognition.data", manifest, progress)
    lines = [ln for ln in raw.read_text().splitlines() if ln.strip()]
    if len(lines) != 20000:
        raise RuntimeError(f"letter source has {len(lines)} rows, expected 20000")
    out = data_dir / "letter"
    out.mkdir(parents=True, exist_ok=True)
    (out / "train.csv").write_text("\n".join(lines[:16000]) + "\n")
    (out / "test.csv").write_text("\n".join(lines[16000:]) + "\n")


def _fetch_usps(data_dir: Path, manifest: _Manifest, progress=None):
    out = data_dir / "usps"
    out.mkdir(parents=True, exist_ok=True)
    for raw_name, norm_name in (("usps.bz2", "train.svm"), ("usps.t.bz2", "test.svm")):
        raw = _raw(data_dir, raw_name, manifest, progress)
        (out / norm_name).write_bytes(bz2.decompress(raw.read_bytes()))


def _fetch_openml_split(name: str, n_train: int, data_dir: Path, progress=None):
    if progress:
        progress(f"fetching {name!r} from OpenML")
    rows = _openml_rows(name)
    train, test = _split_rows(rows, n_train)
    out = data_dir / name
    _write_rows(out / "train.csv", train)
    _write_rows(out / "test.csv", test)


_FETCHERS = {
    "optdigits": _fetch_optdigits,
    "letter": _fetch_letter,
    "usps": _fetch_usps,
    "satimage": lambda d, m, progress=None: _fetch_openml_split("satimage", 5144, d, progress),
    "isolet": lambda d, m, progress=None: _fetch_openml_split("isolet", 6240, d, progress),
}


def dataset_present(name: str, data_dir) -> bool:
    info = BENCHMARK_DATASETS[name]
    base = Path(data_dir) / name
    return (base / info["train"]).exists() and (base / info["test"]).exists()


def fetch_datasets(names, data_dir, force: bool = False, progress=None) -> list[str]:
    """Fetch (download + normalize) the named datasets into data_dir.

    Present datasets are skipped unless force is set. Returns the names
    actually fetched. Raises ChecksumMismatch when a re-downloaded file
    differs from the manifest.
    """
    data_dir = Path(data_dir)
    unknown = sorted(set(names) - set(ALL_DATASETS))
    if unknown:
        raise ValueError(f"unknown dataset(s) {unknown}; expected among {sorted(ALL_DATASETS)}")
    manifest = _Manifest(data_dir)
    fetched = []
    for name in names:
        if not force and dataset_present(name, data_dir):
            if progress:
                progress(f"{name}: already present, skipping")
            continue
        _FETCHERS[name](data_dir, manifest, progress)
        for split in ("train", "test"):
            manifest.check(data_dir, data_dir / name / BENCHMARK_DATASETS[name][split])
        fetched.append(name)
    manifest.save()
    return fetched


def verify_checksums(data_dir) -> list[str]:
    """Re-hash every manifest entry that exists on disk; returns the
    list of mismatching relative paths (empty means all good)."""
    data_dir = Path(data_dir)
    manifest = _Manifest(data_dir)
    bad = []
    for rel, digest in manifest.entries.items():
        path = data_dir / rel
        if path.exists() and _sha256(path) != digest:
            bad.append(rel)
    return bad
