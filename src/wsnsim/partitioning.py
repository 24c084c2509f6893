"""Point clustering on arrays: hard k-means and soft fuzzy c-means.

Points and centroids are float arrays of shape (n, 2) and (k, 2), and fuzzy
memberships are an (n, k) array whose rows sum to 1. Callers build the point
array once per formation; every step below takes and returns arrays.

Both runners report how many iterations they took to converge, because the
simulator compares the two algorithms on exactly that number. One k-means
iteration is one assign+update pair; one fuzzy iteration is one
centroids+memberships pair, so the counts compare like with like.

All tie-breaks (nearest centroid, argmax membership) go to the lowest index,
which keeps every run deterministic for a given seed.

Each step repeats, bit for bit, the arithmetic of the per-cluster loops kept
in the tests as oracles: sums run over points in index order and distances
are sqrt(dx*dx + dy*dy). ``w.T @ points`` and ``np.hypot`` round differently
and would move the simulator's outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import check_range, squared_distances


@dataclass
class HardPartition:
    """Result of a k-means run over a fixed point set."""

    assignment: np.ndarray  # (n,) cluster index per point
    centroids: np.ndarray  # (k, 2)
    iterations: int


class FcmUnderflow(ValueError):
    """Fuzzy memberships came out NaN or all zero: d ** (-2 / (m - 1)) left
    the float range for a point. It underflows to 0 for every centroid when
    the fuzzifier m is too close to 1, and it or its sum over the centroids
    overflows to inf when the point lies within about 1e-154 m of a centroid
    (for m = 2)."""


@dataclass(frozen=True)
class FcmParams:
    """Fuzzy c-means knobs. The fuzzifier m must be strictly > 1."""

    k: int
    m: float = 2.0
    tol: float = 1e-4
    max_iter: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        check_range("fuzzifier m", self.m, 1.0, strict=True)
        if not self.tol > 0:  # an infinite tol stops after the first pair
            raise ValueError("tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


def _dist_matrix(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d = squared_distances(points, centroids)
    return np.sqrt(d, out=d)


# --- k-means -----------------------------------------------------------------


def kmeans_init(points: np.ndarray, energy: np.ndarray, k: int) -> np.ndarray:
    """Initial centroids: the points of the k nodes with the most energy.

    Energy ties go to the lower index, which is the lower node id when the
    rows are in id order.
    """
    if k > len(points):
        raise ValueError(f"k={k} exceeds alive node count {len(points)}")
    return points[np.argsort(-energy, kind="stable")[:k]]


def kmeans_assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Map each point to its nearest centroid (ties: lowest centroid index)."""
    if len(centroids) == 0:
        raise ValueError("at least one centroid required")
    return _dist_matrix(points, centroids).argmin(axis=1)


def kmeans_update(
    points: np.ndarray, assignment: np.ndarray, previous: np.ndarray
) -> np.ndarray:
    """Recompute centroids as cluster means; an empty cluster keeps its previous centroid."""
    k = len(previous)
    counts = np.bincount(assignment, minlength=k)
    sums = np.stack(
        [np.bincount(assignment, weights=points[:, c], minlength=k) for c in (0, 1)], axis=1
    )
    centroids = previous.copy()
    filled = counts > 0
    centroids[filled] = sums[filled] / counts[filled, None]
    return centroids


def kmeans_run(points: np.ndarray, init: np.ndarray, max_iter: int = 100) -> HardPartition:
    """Lloyd iteration from the k centroids in ``init`` until the assignment
    stops changing (or max_iter)."""
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    centroids = init
    prev_assignment = None
    iterations = 0
    while iterations < max_iter:
        assignment = kmeans_assign(points, centroids)
        if prev_assignment is not None and np.array_equal(assignment, prev_assignment):
            break
        centroids = kmeans_update(points, assignment, centroids)
        prev_assignment = assignment
        iterations += 1
    return HardPartition(assignment=prev_assignment, centroids=centroids,
                         iterations=iterations)


# --- fuzzy c-means ------------------------------------------------------------


def fcm_init(n: int, k: int, seed: int) -> np.ndarray:
    """Random row-normalized memberships from a seeded generator."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.random((n, k))
    sums = u.sum(axis=1, keepdims=True)
    # a row of all-zero draws is essentially impossible, but keep it total
    degenerate = sums[:, 0] == 0.0
    if degenerate.any():
        u[degenerate] = 1.0
        sums = u.sum(axis=1, keepdims=True)
    return u / sums


def fcm_centroids(points: np.ndarray, u: np.ndarray, m: float) -> np.ndarray:
    """Membership-weighted centroids; an all-zero column falls back to the global mean."""
    w = u**m
    totals = w.sum(axis=0)  # (k,)
    sums = (w[:, :, None] * points[:, None, :]).sum(axis=0)  # (k, 2)
    filled = totals > 0
    centroids = sums / np.where(filled, totals, 1.0)[:, None]
    if not filled.all():
        centroids[~filled] = points.mean(axis=0)
    return centroids


def _inverse_distance(d: np.ndarray, m: float) -> np.ndarray:
    w = d ** (-2.0 / (m - 1.0))
    return w / w.sum(axis=1, keepdims=True)


def fcm_memberships(points: np.ndarray, centroids: np.ndarray, m: float) -> np.ndarray:
    """Inverse-distance memberships with exponent 2/(m-1).

    A point sitting exactly on one or more centroids splits its membership
    equally among the coincident centroids (the limit of the update rule).
    """
    if not m > 1.0:
        raise ValueError("fuzzifier m must be > 1")
    if len(centroids) == 0:
        raise ValueError("at least one centroid required")
    d = _dist_matrix(points, centroids)
    if d.all():  # no point sits on a centroid
        return _inverse_distance(d, m)
    coincident = d == 0.0
    singular = coincident.any(axis=1)
    u = np.empty_like(d)
    hits = coincident[singular]
    u[singular] = hits / hits.sum(axis=1, keepdims=True)
    u[~singular] = _inverse_distance(d[~singular], m)
    return u


def fcm_run(points: np.ndarray, params: FcmParams) -> tuple[np.ndarray, np.ndarray, int]:
    """Alternate centroid and membership updates until the memberships settle.

    Convergence is max |u_new - u_old| < params.tol; iteration count is the
    number of centroids+memberships pairs performed. Returns the memberships,
    the centroids and that count; raises FcmUnderflow if a membership row
    ends as NaN or all zeros.
    """
    if len(points) == 0:
        raise ValueError("at least one point required")
    u = fcm_init(len(points), params.k, params.seed)
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        for _ in range(params.max_iter):
            centroids = fcm_centroids(points, u, params.m)
            u_new = fcm_memberships(points, centroids, params.m)
            iterations += 1
            delta = np.abs(u_new - u).max()
            u = u_new
            if delta < params.tol:
                break
    # a NaN row is 0/0 or inf/inf; a row of zeros is finite weights over a
    # sum that overflowed. Either way its max is not above 0
    bad_rows = ~(u.max(axis=1) > 0)
    if bad_rows.any():
        # the centroids stay finite (a NaN column falls back to the mean), so
        # the last pair's weight sums show which way they left the float range
        d = _dist_matrix(points[bad_rows], centroids)
        with np.errstate(over="ignore", divide="ignore"):
            overflow = np.isinf((d ** (-2.0 / (params.m - 1.0))).sum(axis=1)).any()
        if overflow:
            raise FcmUnderflow(
                f"a point lies {d.min():.3g} m from a centroid: the sum of "
                f"d ** (-2/(m-1)) overflows with m={params.m!r}, so the "
                "memberships are divided by inf")
        raise FcmUnderflow(f"fuzzifier m={params.m!r} is too close to 1: "
                           "the memberships underflow to 0/0")
    return u, centroids, iterations


def defuzzify(u: np.ndarray) -> np.ndarray:
    """Hard assignment by row argmax (ties: lowest cluster index)."""
    return u.argmax(axis=1)
