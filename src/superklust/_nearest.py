"""Exact nearest-site search by one matrix product.

By the identity ||x - p||^2 = ||x||^2 + (||p||^2 - 2 p . x), the sites
nearest to x are those with the smallest screen value ||p||^2 - 2 p . x,
so a block of queries is scored against all sites by one GEMM. Rounding
can reorder sites whose screen values are close; every answer is
therefore checked against a rigorous bound (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 3) and re-scored with explicit
differences ((p - x)**2).sum() where the screen cannot decide. The
results equal those of the explicit-difference computation, ties going
to the lowest site index.

Why the bound holds, with u the unit roundoff and gamma_n = n u / (1 - n u):
for r = ||x|| + ||p||, the computed screen value of a site is within
gamma_{d+1} r^2 of its exact value, and the explicit distance within
gamma_{d+2} r^2 of the exact distance. Two sites whose screen values
differ by more than twice the sum of those errors, 4 gamma_{d+2} r^2
with r taken at the largest site norm, are ordered the same way by the
explicit distances, without a tie. rounding_bound uses machine epsilon
(2u) for gamma, which leaves room for the rounding of the norms, the
bound and the gap themselves. Beyond SAFE_REACH an intermediate value
of the screen could overflow, so such rows always take the exact path.
"""

from __future__ import annotations

import numpy as np

# Entries of one block of scores, 8 MB in float64. It bounds the memory
# of every search and keeps batches of a few thousand rows to one BLAS
# call: on a busy host, each call of a multi-threaded BLAS can wait a
# scheduler time slice for its worker threads.
BLOCK_ENTRIES = 1 << 20
# r^2 stays below a quarter of the largest double for r up to 2**511.
SAFE_REACH = 2.0**511


def block_rows(width: int) -> int:
    """Rows of a block of scores that is width entries wide."""
    return max(1, BLOCK_ENTRIES // max(1, width))


def sq_norms(A: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row."""
    return np.einsum("ij,ij->i", A, A)


def rounding_bound(x_norms: np.ndarray, p_max: float, d: int) -> np.ndarray:
    """Per query, the screen gap above which the screen's order of two
    sites is the order of their explicit distances; inf where the screen
    can overflow."""
    eps = np.finfo(np.float64).eps
    gamma = (d + 2) * eps / (1.0 - (d + 2) * eps)
    reach = x_norms + p_max
    bound = 4.0 * gamma * reach * reach
    bound[~(reach <= SAFE_REACH)] = np.inf
    return bound


def exact_sq_dists(x: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Explicit-difference squared distances from one query to each row
    of P: the reference the screen is certified against."""
    return np.square(P - x).sum(axis=1)


def nearest(X: np.ndarray, P: np.ndarray, x_norms: np.ndarray) -> np.ndarray:
    """Index of the nearest row of P for each row of X, ties to the
    lowest index; equal to the argmin of exact_sq_dists per row.

    x_norms holds the Euclidean norms of the rows of X. Scores are
    computed in (sites, queries) blocks so that the reductions run over
    contiguous rows.
    """
    n, G = X.shape[0], P.shape[0]
    out = np.zeros(n, dtype=np.intp)
    if G == 1:
        return out
    p_sq = sq_norms(P)
    bound = rounding_bound(x_norms, float(np.sqrt(p_sq.max())), P.shape[1])
    neg2p = -2.0 * P
    step = block_rows(G)
    for start in range(0, n, step):
        stop = min(start + step, n)
        scores = neg2p @ X[start:stop].T
        scores += p_sq[:, None]
        cols = np.arange(stop - start)
        best = scores.argmin(axis=0)
        first = scores[best, cols]
        scores[best, cols] = np.inf
        gap = scores.min(axis=0) - first
        out[start:stop] = best
        for i in np.flatnonzero(~(gap > bound[start:stop])) + start:
            out[i] = exact_sq_dists(X[i], P).argmin()
    return out


def k_nearest_sets(X: np.ndarray, P: np.ndarray, k: int, x_norms: np.ndarray) -> np.ndarray:
    """For each row of X, the indices of its k nearest rows of P, where
    rows are ordered by (exact_sq_dists, index); shape (n, k), each row
    in no particular order.

    The k-th smallest screen value is found by partition. Sites within
    the rounding bound of it are the candidates; when there are exactly
    k they are the answer, otherwise they are ordered explicitly.
    """
    n, G = X.shape[0], P.shape[0]
    out = np.empty((n, k), dtype=np.intp)
    p_sq = sq_norms(P)
    bound = rounding_bound(x_norms, float(np.sqrt(p_sq.max())), P.shape[1])
    neg2pt = -2.0 * P.T
    step = block_rows(G)
    for start in range(0, n, step):
        stop = min(start + step, n)
        scores = X[start:stop] @ neg2pt
        scores += p_sq
        kth = np.partition(scores, k - 1, axis=1)[:, k - 1]
        cand = scores <= (kth + bound[start:stop])[:, None]
        cand[~np.isfinite(bound[start:stop])] = True
        counts = cand.sum(axis=1)
        sure = np.flatnonzero(counts == k)
        out[start + sure] = np.nonzero(cand[sure])[1].reshape(-1, k)
        for i in np.flatnonzero(counts != k):
            sites = np.flatnonzero(cand[i])
            d2 = exact_sq_dists(X[start + i], P[sites])
            out[start + i] = sites[np.argsort(d2, kind="stable")[:k]]
    return out
