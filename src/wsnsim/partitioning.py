"""Point clustering on arrays: hard k-means and soft fuzzy c-means.

The runners take points (n, 2) and return centroids (k, 2) and, for FCM,
memberships (n, k) whose rows sum to 1. Both run on one kernel,
``_Workspace``: points transposed once to (2, 1, n), centroids (2, k), and
distances, weights and memberships indexed (k, n), allocated once per run, so
a step is a fixed sequence of ``out=`` ufunc calls. Below k = 8 the buffers lie
along the points, so each inner loop runs over all n; from 8 they lie along the
centroids, where argmin and the row sums want them. There a Lloyd step
recomputes only the distance rows of the centroids that the last update moved
(when at most half did; an empty cluster's centroid never moves), in plane 1's
memory, and keeps the rest: each entry is one elementwise sequence over one
(centroid, point) pair, so a kept row holds the bits a new one would. Below
k = 8 every step computes the whole block, which there costs less than a
partial one.

Both runners report how many iterations they took to converge, because the
simulator compares the two algorithms on exactly that number. One k-means
iteration is one assign+update pair; one fuzzy iteration is one
centroids+memberships pair, so the counts compare like with like. All
tie-breaks (nearest centroid, argmax membership) go to the lowest index, which
keeps every run deterministic for a given seed.

Each step repeats, bit for bit, the per-cluster loops kept in the tests as
oracles. Distances are sqrt(dx*dx + dy*dy), not ``np.hypot``. Sums over points
run in point order, not as ``w.T @ points``: by ``np.bincount`` for k-means and
for FCM by ``np.add.accumulate`` along the points, plus 0.0 as a reduce starts
from +0.0 (numpy reduces an (n, 1) column pairwise, which FCM repeats at k = 1).
A membership row's sum over the centroids is a reduce over them: in order for
k < 8 and pairwise from 8, as ``(n, k).sum(axis=1)`` adds.
"""

from __future__ import annotations

import numpy as np


class FcmUnderflow(ValueError):
    """Fuzzy memberships came out NaN or all zero: d ** (-2 / (m - 1)) left
    the float range for a point. It underflows to 0 for every centroid when
    the fuzzifier m is too close to 1, and it or its sum over the centroids
    overflows to inf when the point lies within about 1e-154 m of a centroid
    (for m = 2)."""


class _Workspace:
    """The kernel: centroid-major buffers for one point set and k centroids."""

    def __init__(self, points: np.ndarray, k: int, centroids: np.ndarray | None = None,
                 memberships: int = 0):
        if k < 1:
            raise ValueError("at least one centroid required")
        n, planes = len(points), 3 + memberships
        self.points = points
        self.pt = np.array(points.T, dtype=float).reshape(2, 1, n)  # x and y rows
        self.c = np.empty((2, k)) if centroids is None else np.array(centroids.T, dtype=float)
        # planes 0-2: dx, dy, distances (in 0) or FCM's w, w*x, w*y; then memberships
        if k < 8:
            buf, self.spare = np.empty((planes, k, n)), None
        else:  # plane 1's memory, flat, takes the rows of the centroids that moved
            base = np.empty((planes, n, k))
            buf, self.spare = base.transpose(0, 2, 1), base[1].reshape(-1)
        self.work, self.u = buf[:3], buf[3:]
        self.sums, self.tot, self.prev = np.empty((3, k)), np.empty(n), np.empty((2, k))

    def distances(self, moved: np.ndarray | None = None) -> np.ndarray:
        """sqrt(dx*dx + dy*dy) from each centroid (row) to each point.

        Given the centroids that ``moved`` since the last call, at most half of
        them, only their rows are computed, in plane 1's memory, and the other
        rows are kept: the same elementwise sequence gives the same bits."""
        d = self.work[0]
        partial = moved is not None and 2 * len(moved) <= len(d)
        if partial:
            dxy = self.spare[:2 * len(moved) * d.shape[1]].reshape(2, len(moved), d.shape[1])
        else:
            dxy, moved = self.work[:2], slice(None)
        np.subtract(self.pt, self.c[:, moved, None], out=dxy)
        np.multiply(dxy, dxy, out=dxy)
        np.add(dxy[0], dxy[1], out=dxy[0])
        np.sqrt(dxy[0], out=dxy[0])
        if partial:
            d[moved] = dxy[0]
        return d

    def kmeans_update(self, assignment: np.ndarray) -> np.ndarray | None:
        """Cluster means into the centroids; an empty cluster keeps its centroid.

        From k = 8 returns the indices of the centroids whose value changed;
        below it, None: every row is recomputed there."""
        if self.spare is not None:
            np.copyto(self.prev, self.c)
        counts = np.bincount(assignment, minlength=self.c.shape[1])
        filled = counts > 0
        for row, x in zip(self.c, self.pt[:, 0]):
            row[filled] = np.bincount(assignment, x, len(counts))[filled] / counts[filled]
        if self.spare is None:
            return None
        changed = self.c != self.prev  # -0.0 == 0.0, and both square to 0
        return np.flatnonzero(changed[0] | changed[1])

    def fcm_centroids(self, u: np.ndarray, m: float) -> np.ndarray:
        """Membership-weighted centroids; an all-zero weight column takes the mean."""
        work, sums, w, totals = self.work, self.sums, self.work[0], self.sums[0]
        w[...] = u
        w **= m  # as ``u ** m``, which numpy computes as a square for m = 2
        column = np.add.reduce(w[0]) if len(w) == 1 else None  # numpy sums (n, 1) pairwise
        np.multiply(w, self.pt, out=work[1:])
        np.add(np.add.accumulate(work, axis=2, out=work)[:, :, -1], 0.0, out=sums)
        if column is not None:
            sums[0] = column
        if np.minimum.reduce(totals) > 0:
            return np.divide(sums[1:], totals, out=self.c)
        filled = totals > 0  # not a zero or NaN total
        np.divide(sums[1:], np.where(filled, totals, 1.0), out=self.c)
        self.c[:, ~filled] = self.points.mean(axis=0)[:, None]
        return self.c

    def fcm_memberships(self, p: float, out: np.ndarray) -> np.ndarray:
        """Memberships d ** p over their sum across the centroids, into out."""
        w = self.distances()
        if coincident := np.count_nonzero(w) < w.size:  # a point on a centroid
            cols = np.flatnonzero((w == 0.0).any(axis=0))
            hits = w[:, cols] == 0.0
            w[:, cols] = 1.0  # any finite weight: the equal split replaces the column
        w **= p
        np.divide(w, np.add.reduce(w, axis=0, out=self.tot), out=out)
        if coincident:
            out[:, cols] = hits / hits.sum(axis=0)
        return out


# --- k-means -----------------------------------------------------------------


def kmeans_init(points: np.ndarray, energy: np.ndarray, k: int) -> np.ndarray:
    """Initial centroids: the points of the k nodes with the most energy.

    Energy ties go to the lower index, which is the lower node id when the
    rows are in id order.
    """
    if k > len(points):
        raise ValueError(f"k={k} exceeds alive node count {len(points)}")
    return points[np.argsort(-energy, kind="stable")[:k]]


def kmeans_run(points: np.ndarray, init: np.ndarray,
               max_iter: int = 100) -> tuple[np.ndarray, np.ndarray, int]:
    """Lloyd iteration from the k centroids in ``init`` until the assignment
    stops changing (or max_iter). Returns the last assignment (a centroid
    index per point), the centroids updated from it and the update steps taken."""
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    ws = _Workspace(points, len(init), init)
    prev_assignment, iterations, moved = None, 0, None
    while iterations < max_iter:
        assignment = ws.distances(moved).argmin(axis=0)
        if prev_assignment is not None and np.array_equal(assignment, prev_assignment):
            break
        moved = ws.kmeans_update(assignment)
        prev_assignment = assignment
        iterations += 1
    return prev_assignment, ws.c.T.copy(), iterations


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


def fcm_run(points: np.ndarray, k: int, seed: int, m: float = 2.0, tol: float = 1e-4,
            max_iter: int = 100) -> tuple[np.ndarray, np.ndarray, int]:
    """Alternate centroid and membership updates, from ``fcm_init``'s
    memberships for ``seed``, until the memberships settle.

    Convergence is max |u_new - u_old| < tol; iteration count is the number of
    centroids+memberships pairs performed. Returns the memberships, the
    centroids and that count; raises FcmUnderflow if a membership row ends as
    NaN or all zeros. ``FuzzyFormation`` checks m, tol and max_iter.
    """
    if len(points) == 0:
        raise ValueError("at least one point required")
    ws = _Workspace(points, k, memberships=2)
    u, u_new = ws.u
    u[...] = fcm_init(len(points), k, seed).T
    p = -2.0 / (m - 1.0)
    change = ws.work[1]  # free once the distances are taken
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        for iterations in range(1, max_iter + 1):
            ws.fcm_centroids(u, m)
            ws.fcm_memberships(p, u_new)
            np.subtract(u_new, u, out=change)
            delta = np.maximum.reduce(np.abs(change, out=change), axis=None)
            u, u_new = u_new, u
            if delta < tol:
                break
    # a NaN row is 0/0 or inf/inf; a row of zeros is finite weights over a
    # sum that overflowed. Either way its max is not above 0
    bad = ~(np.maximum.reduce(u, axis=0) > 0)
    if bad.any():
        # the last pair's weight sums show which way they left the float range
        if np.isinf(ws.tot[bad]).any():
            raise FcmUnderflow(
                f"a point lies {ws.distances()[:, bad].min():.3g} m from a centroid: "
                f"the sum of d ** (-2/(m-1)) overflows with m={m!r}, so the "
                "memberships are divided by inf")
        raise FcmUnderflow(f"fuzzifier m={m!r} is too close to 1: "
                           "the memberships underflow to 0/0")
    return u.T.copy(), ws.c.T.copy(), iterations


def defuzzify(u: np.ndarray) -> np.ndarray:
    """Hard assignment by row argmax (ties: lowest cluster index)."""
    return u.argmax(axis=1)
