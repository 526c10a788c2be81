"""k-means with k-means++ seeding and Lloyd iterations.

Run once per class to turn that class's samples into a small set of
cluster means; those means later serve as labeled Voronoi generator
points. Everything here is deterministic given the seed and safe to call
concurrently on different inputs (no shared state).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._nearest import exact_sq_dists, nearest, rounding_bound, sq_norms

__all__ = ["KMeansConfig", "KMeansResult", "kmeans_pp_init", "lloyd", "fit_kmeans"]


@dataclass(frozen=True)
class KMeansConfig:
    """Parameters for one clustering run.

    k is the number of clusters requested per class; the fit may return
    fewer centers when clusters empty out or the data has fewer distinct
    rows than k. Restart r of a run uses seed + r, so results are fully
    reproducible and restart 0 reproduces the single-restart run.
    """

    k: int
    max_iter: int = 100
    n_restarts: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.n_restarts < 1:
            raise ValueError(f"n_restarts must be >= 1, got {self.n_restarts}")


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


def kmeans_pp_init(data, k: int, seed: int) -> np.ndarray:
    """Pick min(k, n) initial centers from the rows of data via k-means++.

    The first center is drawn uniformly; each later center is a data row
    drawn with probability proportional to its squared distance to the
    nearest already-chosen center, so already-chosen rows have zero
    selection weight. Deterministic given seed. Raises ValueError when
    the squared distances overflow float64, as no draw is defined then.
    """
    data = _as_matrix(data, "data")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = data.shape[0]
    rng = np.random.default_rng(seed)
    x_sq = sq_norms(data)
    x_norms = np.sqrt(x_sq)

    def sq_dists_to(idx: int) -> np.ndarray:
        # The identity ||x||^2 - 2 x.c + ||c||^2; rows it puts within the
        # rounding bound of zero are recomputed explicitly, so the chosen
        # row and its duplicates get a weight of exactly 0.
        c = data[idx]
        with np.errstate(over="ignore", invalid="ignore"):  # the draw checks for inf
            d2 = x_sq - 2.0 * (data @ c) + x_sq[idx]
            near = ~(d2 > rounding_bound(x_norms, x_norms[idx], data.shape[1]))
            d2[near] = exact_sq_dists(c, data[near])
        return d2

    n_centers = min(k, n)
    chosen = np.empty(n_centers, dtype=np.intp)
    chosen[0] = rng.integers(n)
    closest = sq_dists_to(chosen[0])
    for i in range(1, n_centers):
        total = closest.sum()
        if not np.isfinite(total):
            raise ValueError("k-means++: squared distances between rows overflow float64")
        if total > 0:
            # Inverse-CDF draw; side="right" skips zero-weight rows whose
            # cumulative value ties the one before them.
            cum = np.cumsum(closest)
            idx = int(np.searchsorted(cum, rng.random() * total, side="right"))
        else:
            # Every remaining row coincides with a chosen center; any row
            # will do, duplicates get dropped as empty clusters in lloyd().
            idx = int(rng.integers(n))
        chosen[i] = idx
        np.minimum(closest, sq_dists_to(idx), out=closest)
    return data[chosen].copy()


def lloyd(data, init_centers, max_iter: int = 100) -> KMeansResult:
    """Run Lloyd iterations from the given centers to a fixed point.

    Each iteration assigns every sample to its nearest center (ties to
    the lowest index), drops centers that received no samples, then
    moves each remaining center to the mean of its samples. Stops when
    an assignment repeats the one before it, an exact fixed point, or
    after max_iter update steps. The returned assignments are always
    those of the returned centers, and the inertia is computed once,
    for that final state.
    """
    data = _as_matrix(data, "data")
    centers = _as_matrix(init_centers, "init_centers")
    if centers.shape[1] != data.shape[1]:
        raise ValueError(
            f"dimension mismatch: data has {data.shape[1]} features, "
            f"init_centers has {centers.shape[1]}"
        )
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")

    x_norms = np.sqrt(sq_norms(data))
    prev_assign = None
    iterations = 0

    while True:
        assign = nearest(data, centers, x_norms)
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break  # exact fixed point: centers are already the means of assign
        if iterations >= max_iter:
            break

        counts = np.bincount(assign, minlength=centers.shape[0])
        if (counts == 0).any():
            keep = np.flatnonzero(counts)
            remap = np.empty(counts.size, dtype=np.intp)
            remap[keep] = np.arange(keep.size)
            assign = remap[assign]
            counts = counts[keep]

        # Each cluster's rows, in data order, summed as mean(axis=0) sums
        # them; np.add.reduceat would use a different order.
        grouped = data[np.argsort(assign, kind="stable")]
        ends = np.cumsum(counts)
        centers = np.empty((counts.size, data.shape[1]))
        for j, (start, stop) in enumerate(zip(ends - counts, ends)):
            np.add.reduce(grouped[start:stop], axis=0, out=centers[j])
        centers /= counts[:, None]
        prev_assign = assign
        iterations += 1

    inertia = float(np.square(data - centers[assign]).sum())
    return KMeansResult(centers, assign, inertia, iterations)


def fit_kmeans(data, config: KMeansConfig) -> KMeansResult:
    """Cluster data with n_restarts independent runs; keep the best inertia.

    Restart r seeds its k-means++ draw with config.seed + r. Ties go to
    the earliest restart, so the result is deterministic given (data,
    config).
    """
    best = None
    for r in range(config.n_restarts):
        init = kmeans_pp_init(data, config.k, config.seed + r)
        result = lloyd(data, init, max_iter=config.max_iter)
        if best is None or result.inertia < best.inertia:
            best = result
    return best
