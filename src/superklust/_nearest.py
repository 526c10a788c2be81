"""Exact nearest-site search by one matrix product.

By the identity ||x - p||^2 = ||x||^2 - (2 p . x - ||p||^2), the sites
nearest to x are those with the largest discriminant 2 p . x - ||p||^2
(the linear forms of the paper), so a block of queries is scored
against all sites by one GEMM, higher meaning nearer. Rounding can
reorder sites whose scores are close; every answer is therefore checked
against a rigorous bound (Higham, Accuracy and Stability of Numerical
Algorithms, ch. 3) and re-scored with explicit differences
((p - x)**2).sum() where the screen cannot decide. The results equal
those of the explicit-difference computation, ties going to the lowest
site index. Negating a score and doubling p are exact, so the bound
below holds for the discriminants as for ||p||^2 - 2 p . x.

Lloyd's assignment and the k-means++ weights screen in float64. predict,
correct and the KNN baseline (k_nearest_sets) share one float32 scan.

Why the bound holds. Write u for the unit roundoff of a format (2^-53
in float64, 2^-24 in float32), gamma_n = n u / (1 - n u), r = ||x|| +
||p||, and tau for the smallest normal number of the screen's format.

- A float64 screen scores x and 2 p as they are. Each screen value is
  within gamma_{d+1} r^2 + 4d tau of 2 p . x - ||p||^2, for any order
  of summation the BLAS takes: each of the at most 4d - 1 products and
  sums of 2 p . x, of ||p||^2 and of their difference that underflows
  adds at most tau.
- A float32 screen (scan) first casts x, 2 p and -||p||^2 to float32;
  the last is computed in float64, with relative error gamma_d below
  the float32 u for d < 2^29. A cast errs by at most u |v| + tau; tau
  covers gradual underflow, and also a BLAS that flushes subnormal
  numbers to zero. Each of the d + 1 terms of the
  inner product so carries two more roundings, gamma_{d+3} in all, and
  the bias one more u. The tau parts of the casts enter multiplied by
  the other factor, 2 tau sqrt(d) r at most, and by AM-GM
  2 tau sqrt(d) r <= u r^2 + d tau^2 / u: one more u r^2 and an
  absolute term far below tau. Each operation of the GEMM that
  underflows adds at most tau. A float32 screen value is thus within
  gamma_{d+5} r^2 + (2d + 3) tau of the exact one.
- The reference, the explicit float64 distance ((p - x)**2).sum(), is
  within gamma_{d+2} r^2 (plus 3d float64 tau) of the exact distance.
- When two screen values differ by more than twice the sum of the
  screen's and the reference's errors, the exact distances differ by
  more than twice the reference's error. The explicit distances then
  order the two sites the same way, without a tie.

rounding_bound is 2 (gamma_screen + gamma_{d+2}) r^2 + 64 (d + 2) tau,
with gamma_screen = gamma_{d+2} in float64 and gamma_{d+5} in float32.
Its gammas take machine epsilon (2u) for u, which leaves room for the
rounding of the norms, of the bound and of the gap; the absolute term
covers twice the tau terms above, and leaves room for the underflow of
the norms. Beyond the safe reach an intermediate value of the screen,
or a gap between two, could overflow, so the bound is inf there and
such rows always take the exact path. The reach is 2^511 in float64,
where r^2 stays below a quarter of the largest double. It is 2^63 in
float32: there |2 p . x| + ||p||^2 <= r^2 <= 2^126, so no partial sum
and no gap reaches the largest float32, about 2^128. A norm that is inf
or nan gets inf too.
"""

from __future__ import annotations

import numpy as np

# Entries of one block of scores, 8 MB in float64. It bounds the memory
# of every search and keeps batches of a few thousand rows to one BLAS
# call: on a busy host, each call of a multi-threaded BLAS can wait a
# scheduler time slice for its worker threads.
BLOCK_ENTRIES = 1 << 20
# The reach r = ||x|| + ||p|| up to which a screen cannot overflow, in
# float64 and in float32; see the module docstring.
SAFE_REACH = 2.0**511
SAFE_REACH_32 = 2.0**63
# Per screen dtype: machine epsilon, smallest normal number, safe reach.
_FORMATS = {
    t: (float(np.finfo(t).eps), float(np.finfo(t).smallest_normal), reach)
    for t, reach in ((np.float64, SAFE_REACH), (np.float32, SAFE_REACH_32))
}
_EPS64 = _FORMATS[np.float64][0]


def block_rows(width: int) -> int:
    """Rows of a block of scores that is width entries wide."""
    return max(1, BLOCK_ENTRIES // max(1, width))


def sq_norms(A: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row."""
    return np.einsum("ij,ij->i", A, A)


def _gamma(n: int, eps: float) -> float:
    return n * eps / (1.0 - n * eps)


def rounding_bound(x_norms, p_max, d: int, screen=np.float64) -> np.ndarray:
    """Per query norm (an array of them, or one float), the gap between
    two screen values computed in the screen dtype (np.float64 or
    np.float32) above which their order is the order of the sites'
    explicit float64 distances; inf where the screen can overflow or a
    norm is not finite. p_max, the largest site norm, may be a column
    of them, for one row of bounds each."""
    eps, tiny, safe_reach = _FORMATS[screen]
    explicit = _gamma(d + 2, _EPS64)
    screened = explicit if screen is np.float64 else _gamma(d + 5, eps)
    reach = x_norms + p_max
    bound = 2.0 * (screened + explicit) * reach * reach + 64.0 * (d + 2) * tiny
    if isinstance(reach, float):
        return bound if reach <= safe_reach else np.inf
    bound[~(reach <= safe_reach)] = np.inf
    return bound


def exact_sq_dists(x: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Explicit-difference squared distances from one query x to each
    row of P, or from each row of x to the paired row of P: the
    reference the screen is certified against."""
    return np.square(P - x).sum(axis=1)


def select(scores: np.ndarray, bound: np.ndarray, X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Exact nearest row of P per row of X, from their (queries, sites)
    scores 2 p . x - ||p||^2 (float64 or float32, any layout; left as
    they were) and a rounding bound per query. A query whose top score
    leads its runner-up by more than the bound is certified; each other
    goes to nearest_among with the sites within the bound of its top.
    Scores that overflowed to inf can make it warn: Lloyd calls it under
    np.errstate, and the float32 screen zeroes rows beyond its reach."""
    rows = np.arange(scores.shape[0])
    best = scores.argmax(axis=1)
    top = scores[rows, best]
    scores[rows, best] = -np.inf
    gap = top - scores.max(axis=1)
    scores[rows, best] = top
    fail = np.flatnonzero(~(gap > bound))
    if fail.size:
        cand = ~(scores[fail] < (top[fail] - bound[fail])[:, None])  # all, where bound is inf
        best[fail] = nearest_among(X[fail], P, cand)[:, 0]
    return best


def nearest_among(X: np.ndarray, P: np.ndarray, cand: np.ndarray, k: int = 1) -> np.ndarray:
    """Per row of X, its k nearest rows of P by (exact_sq_dists, index)
    among those its row of the boolean (queries, sites) cand marks."""
    with np.errstate(over="ignore"):  # explicit distances may overflow to inf
        rows, sites = np.nonzero(cand)
        d2 = np.empty(rows.size)
        step = block_rows(P.shape[1])
        for start in range(0, rows.size, step):
            part = slice(start, start + step)
            d2[part] = exact_sq_dists(X[rows[part]], P[sites[part]])
    first = np.searchsorted(rows, np.arange(X.shape[0]))
    # by row, then distance; the stable sort keeps tied sites in index order
    return sites[np.lexsort((d2, rows))[first[:, None] + np.arange(k)]]


def linear_forms(points: np.ndarray) -> np.ndarray:
    """The (d+1, G) float32 matrix whose column j is the linear form
    [2 p_j; -||p_j||^2] of row j of points, rounded from float64; a form
    beyond the float32 range saturates at its largest finite value."""
    forms = np.empty((points.shape[1] + 1, points.shape[0]), dtype=np.float32)
    with np.errstate(over="ignore"):  # saturated below
        forms[:-1] = (2.0 * points).T
        forms[-1] = -sq_norms(points)
    np.nan_to_num(forms, copy=False)
    return forms


def check_finite(x: np.ndarray, raw: np.ndarray, start: int, what: str = "query") -> None:
    """Raise ValueError naming the first of the float64 rows x (rows
    start, start + 1, ... of the raw input raw, scaled) that is not
    finite, if any, as a what row."""
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        i = start + int(finite.argmin())
        if np.isfinite(raw[i]).all():
            raise ValueError(f"{what} row {i} overflows float64 when scaled")
        raise ValueError(f"non-finite feature in {what} row {i}")


def scan(X, forms: np.ndarray, points: np.ndarray, p_max: float, scaler=None,
         k: int | None = None, what: str = "query") -> np.ndarray:
    """Per raw row of the 2-D X, the index of its nearest site, or with
    k the indices of its k nearest, shape (n, k), in no particular order:
    sites are the rows of points (forms their linear_forms, p_max their
    largest norm), ordered by (exact_sq_dists, index). A scaler maps raw
    rows to the sites' coordinates. A row that is not finite, or a finite
    one that overflows when scaled, raises ValueError naming a what row.

    Each block of rows, as float64 (scaled into a reused block), is cast
    to a float32 [x, 1] that one GEMM scores against forms. Without k,
    select decides the block. With k, sites within the rounding bound of
    the k-th largest score are the candidates: the answer when there are
    exactly k, else ordered by nearest_among. A call holds one block of
    scores and its query blocks, each of at most BLOCK_ENTRIES entries.
    """
    d1, G = forms.shape
    n = X.shape[0]
    step = max(1, min(n, block_rows(max(G, d1))))
    rows = None if scaler is None else np.empty((step, d1 - 1))
    queries = np.empty((step, d1), dtype=np.float32)
    queries[:, -1] = 1.0
    scores = np.empty((step, G), dtype=np.float32)
    best = np.empty(n if k is None else (n, k), dtype=np.intp)
    # Rows beyond this norm could overflow the float32 screen or the
    # cast into it; they are screened as zeros, and never certified.
    x_reach = SAFE_REACH_32 - p_max
    for start in range(0, n, step):
        stop = min(start + step, n)
        m = stop - start
        q, s, raw = queries[:m], scores[:m], X[start:stop]
        x = raw.astype(np.float64, copy=False) if scaler is None else scaler.apply(raw, rows[:m])
        x_norms = np.sqrt(sq_norms(x))
        if x_norms.max() <= x_reach:
            q[:, :-1] = x
        else:  # a norm beyond reach, or not finite
            check_finite(x, X, start, what)
            q[:, :-1] = np.where((x_norms <= x_reach)[:, None], x, 0.0)
        np.matmul(q, forms, out=s)
        bound = rounding_bound(x_norms, p_max, d1 - 1, np.float32)
        if k is None:
            best[start:stop] = select(s, bound, x, points)
            continue
        kth = np.partition(s, G - k, axis=1)[:, G - k]
        cand = ~(s < (kth - bound)[:, None])  # all, where bound is inf
        counts = cand.sum(axis=1)
        sure = np.flatnonzero(counts == k)
        best[start + sure] = np.nonzero(cand[sure])[1].reshape(-1, k)
        rest = np.flatnonzero(counts != k)
        best[start + rest] = nearest_among(x[rest], points, cand[rest], k)
    return best


def k_nearest_sets(X: np.ndarray, P: np.ndarray, k: int) -> np.ndarray:
    """For each row of X, the indices of its k nearest rows of P, where
    rows are ordered by (exact_sq_dists, index); shape (n, k), each row
    in no particular order: scan of X against the sites P, in one call."""
    return scan(X, linear_forms(P), P, float(np.sqrt(sq_norms(P).max())), k=k)
