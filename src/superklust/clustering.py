"""k-means with k-means++ seeding and Lloyd iterations.

Run once per class to turn that class's samples into a small set of
cluster means; those means later serve as labeled Voronoi generator
points. Everything here is deterministic given the seed and safe to call
concurrently on different inputs (no shared state).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._nearest import exact_sq_dists, rounding_bound, select, sq_norms

__all__ = ["UsageError", "KMeansConfig", "KMeansResult", "kmeans_pp_init", "lloyd", "fit_kmeans"]

# The most float64 values, 512 MiB, that one request may need: the k-means++
# weights of every restart, Lloyd's screen, a grid or a synthetic dataset.
MAX_VALUES = 1 << 26


class UsageError(ValueError):
    """A request refused as given, as one over MAX_VALUES is: exit code 2 in the CLI."""


def _within_budget(values: int, request: str) -> None:
    """Refuse a request for more than MAX_VALUES float64 values."""
    if values > MAX_VALUES:
        raise UsageError(f"{request} would take {values} float64 values, over 2^26 (512 MiB)")


def _within_fit_budget(n_restarts: int, centers: int, rows: int) -> None:
    """Refuse clustering rows whose k-means++ weights (n_restarts x rows) or Lloyd
    screen (centers x rows, min(k, rows) for k clusters) pass MAX_VALUES values."""
    _within_budget(n_restarts * rows, f"n_restarts {n_restarts} x {rows} rows")
    _within_budget(centers * rows, f"{centers} centers x {rows} rows")


@dataclass(frozen=True)
class KMeansConfig:
    """Parameters for one clustering run.

    k is the number of clusters requested per class; the fit may return
    fewer centers when clusters empty out or the data has fewer distinct
    rows than k. Restart r of a run uses seed + r, so results are fully
    reproducible and restart 0 reproduces the single-restart run. k,
    max_iter and n_restarts are integers >= 1 and seed one >= 0; numpy
    integers are stored as int, bools refused.
    """

    k: int
    max_iter: int = 100
    n_restarts: int = 4
    seed: int = 0

    def __post_init__(self):
        for name, least in (("k", 1), ("max_iter", 1), ("n_restarts", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
            object.__setattr__(self, name, int(value))  # frozen; numpy integers wrap


@dataclass
class KMeansResult:
    """Final state of one k-means run (see lloyd for when it stops).

    centers has shape (m, d) with m <= k; assignments[i] is the index of
    the nearest center for sample i (ties to the lowest index); inertia
    is the sum of squared sample-to-assigned-center distances;
    iterations counts the center updates. When the run stopped at a
    fixed point, each center is exactly the mean of its samples.
    """

    centers: np.ndarray
    assignments: np.ndarray
    inertia: float
    iterations: int


def _as_matrix(data, name: str) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.size == 0:
        raise ValueError(f"empty input: {name} must be a nonempty 2-D matrix")
    if not np.isfinite(data).all():
        raise ValueError(f"non-finite feature in {name}")
    return data


def kmeans_pp_init(data, k: int, seed) -> np.ndarray | list[np.ndarray]:
    """Pick min(k, n) initial centers from the rows of data via k-means++.

    The first center is drawn uniformly; each later center is a data row
    drawn with probability proportional to its squared distance to the
    nearest already-chosen center, so already-chosen rows have zero
    selection weight. A draw aims at u times the last cumulative weight,
    so it lands on a row of positive weight. Deterministic given seed.
    Given a sequence of R seeds, returns one matrix per seed, drawn
    together from one (R, n) array of weights: per step one (n x d) .
    (d x R) GEMM, rounding bound, exact recompute of the weights near
    zero and cumulative sum. Only each seed's random stream and
    inverse-CDF draw stay its own. The GEMM's weights can differ from a
    lone seed's GEMV in their last bits, which changes a draw only if
    its target lies that close to an interval's edge. Raises ValueError
    when the squared distances overflow float64, as no draw is defined;
    see _within_fit_budget for the UsageError raised before any draw.
    """
    data = _as_matrix(data, "data")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = data.shape[0]
    single = isinstance(seed, (int, np.integer))
    seeds = [seed] if single else seed  # a range of seeds stays lazy
    _within_fit_budget(len(seeds), min(k, n), n)
    rngs = [np.random.default_rng(s) for s in seeds]
    x_sq = sq_norms(data)
    x_norms = np.sqrt(x_sq)

    def sq_dists_to(idx: np.ndarray) -> np.ndarray:
        # ||x||^2 - 2 x.c + ||c||^2, one row per draw; values within the rounding
        # bound of 0 are recomputed, so the chosen row and its duplicates weigh 0.
        with np.errstate(over="ignore", invalid="ignore"):  # the draw checks for inf
            d2 = x_sq - 2.0 * np.ascontiguousarray((data @ data[idx].T).T) + x_sq[idx, None]
            r, j = np.nonzero(~(d2 > rounding_bound(x_norms, x_norms[idx, None], data.shape[1])))
            d2[r, j] = exact_sq_dists(data[idx[r]], data[j])
        return d2

    chosen = np.empty((len(rngs), min(k, n)), dtype=np.intp)
    chosen[:, 0] = [rng.integers(n) for rng in rngs]
    closest = sq_dists_to(chosen[:, 0])
    for i in range(1, chosen.shape[1]):
        cum = np.cumsum(closest, axis=1)
        if not np.isfinite(cum[:, -1]).all():
            raise ValueError("k-means++: squared distances between rows overflow float64")
        for r, rng in enumerate(rngs):
            if cum[r, -1] > 0:
                # Inverse-CDF draw; side="right" skips zero-weight rows whose
                # cumulative value ties the one before them.
                chosen[r, i] = np.searchsorted(cum[r], rng.random() * cum[r, -1], side="right")
            else:
                # Every remaining row coincides with a chosen center; any row
                # will do, duplicates get dropped as empty clusters in lloyd().
                chosen[r, i] = rng.integers(n)
        np.minimum(closest, sq_dists_to(chosen[:, i]), out=closest)
    return data[chosen[0]] if single else [data[c] for c in chosen]


def lloyd(data, init_centers, max_iter: int = 100) -> KMeansResult:
    """Run Lloyd iterations from the given centers to a fixed point.

    Each iteration assigns every sample to its nearest center (ties to
    the lowest index), drops centers that received no samples, then
    moves each remaining center to the mean of its samples. Stops when
    an assignment repeats the one before it, an exact fixed point, or
    after max_iter update steps. The returned assignments are always
    those of the returned centers, and the inertia is computed once,
    for that final state.

    Each step is incremental and exact. The float64 discriminants 2 c .
    x - ||c||^2, 8 bytes per center and sample, are kept across steps,
    one row per center so that a row is updated in place; select takes
    their transposed view. Only a cluster that a sample left or joined
    gets a new mean and new score rows: the others would sum the same
    rows in the same order, so their centers stay bit for bit. Their
    rows are gathered once, grouped by a stable sort on the cluster, and
    each group is summed row by row in data order. select certifies each
    assignment, so it is the one a full recompute gives; its bound is
    remade only when the largest center norm outgrows the one it was
    made for, as the bound grows with that norm. A screen of more than
    MAX_VALUES discriminants raises UsageError before it is made.
    """
    data = _as_matrix(data, "data")
    centers = _as_matrix(init_centers, "init_centers").copy()  # updated in place
    if centers.shape[1] != data.shape[1]:
        raise ValueError(
            f"dimension mismatch: data has {data.shape[1]} features, "
            f"init_centers has {centers.shape[1]}"
        )
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    _within_fit_budget(1, centers.shape[0], data.shape[0])

    x_norms = np.sqrt(sq_norms(data))
    prev_assign = np.full(data.shape[0], -1)  # before the first step, no sample has a cluster
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing rows get inf bounds
        p_sq = sq_norms(centers)
        scores = 2.0 * centers @ data.T - p_sq[:, None]
        bound_norm = -np.inf  # the largest center norm the bound was made for
        while True:
            p_max = float(np.sqrt(p_sq.max()))
            if p_max > bound_norm:
                bound_norm, bound = p_max, rounding_bound(x_norms, p_max, data.shape[1])
            assign = select(scores.T, bound, data, centers)
            if np.array_equal(assign, prev_assign) or iterations >= max_iter:
                break  # a repeat is an exact fixed point: centers are its means
            # The clusters a sample left or joined; a spare last slot takes the -1s.
            moved = assign != prev_assign
            touched = np.zeros(centers.shape[0] + 1, dtype=bool)
            touched[assign[moved]] = touched[prev_assign[moved]] = True
            counts = np.bincount(assign, minlength=centers.shape[0])
            if not (keep := counts > 0).all():
                assign = (np.cumsum(keep) - 1)[assign]
                centers, p_sq, scores, counts = (a[keep] for a in (centers, p_sq, scores, counts))
            touched = touched[:-1][keep]
            rows = np.flatnonzero(touched[assign])  # touched clusters' rows, grouped below
            grouped = data[rows[np.argsort(assign[rows], kind="stable")]]
            ids = np.flatnonzero(touched)
            ends = np.cumsum(counts[ids])
            for j, start, stop in zip(ids, ends - counts[ids], ends):
                centers[j] = np.add.reduce(grouped[start:stop], axis=0)  # in data order, as mean()
            centers[ids] /= counts[ids, None]
            p_sq[ids] = sq_norms(centers[ids])
            scores[ids] = 2.0 * centers[ids] @ data.T - p_sq[ids, None]
            prev_assign = assign
            iterations += 1

    inertia = float(np.square(data - centers[assign]).sum())
    return KMeansResult(centers, assign, inertia, iterations)


def fit_kmeans(data, config: KMeansConfig) -> KMeansResult:
    """Cluster data with n_restarts independent runs; keep the best inertia.

    Restart r seeds its k-means++ draw with config.seed + r; the draws of
    all restarts are made together. Ties go to the earliest restart, so
    the result is deterministic given (data, config). A request over
    MAX_VALUES raises UsageError from kmeans_pp_init, before any draw.
    """
    best = None
    for init in kmeans_pp_init(data, config.k, range(config.seed, config.seed + config.n_restarts)):
        result = lloyd(data, init, max_iter=config.max_iter)
        if best is None or result.inertia < best.inertia:
            best = result
    return best
