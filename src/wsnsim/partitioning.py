"""Point clustering on arrays: hard k-means and soft fuzzy c-means.

The runners take points (n, 2) and return centroids (k, 2) and, for FCM,
memberships (n, k) whose rows sum to 1. Both run on one kernel,
``_Workspace``: points transposed once to (2, 1, 1, n), centroids
(2, runs, k), and planes indexed (runs, k, n), allocated once per call, so a
step is a fixed sequence of ``out=`` ufunc calls. k-means has two planes, dx
and dy, and takes its distances in dx's; FCM puts its two membership planes
on either side of them, and its weight sums use the three planes that do not
hold the current memberships. Below k = 8 each run's buffers lie along the
points, so each inner loop runs over all n; from 8 they lie along the
centroids, where argmin and the row sums want them. There a Lloyd step
recomputes only the distance rows of the centroids that the last update
moved (when at most half did; an empty cluster's centroid never moves), in
dy's plane, and keeps the rest: each entry is one elementwise sequence over
one (centroid, point) pair, so a kept row holds the bits a new one would.
Below k = 8 every step computes the whole block, which there costs less than
a partial one.

The run axis serves FCM. ``fcm_run`` takes a sequence of seeds and runs them
side by side, one run per seed over the same points and k: a pair costs about
18 numpy calls, whatever the number of runs. A run leaves when it converges or
reaches max_iter, and the runs still going move to the front; a single run is
a batch of one. k-means always runs one. The simulator feeds the batch from
the coming rounds (``Geometry.fcm``): a round's FCM result depends only on the
alive rows, k and its seed, and the seeds are the run's next draws, so a round
that finds no kept result runs its own seed plus the next B - 1, read from a
copy of the generator. B doubles each time the kept results are used up, up
to the element budget, and restarts at 1 when a death, a new k or another
draw from the generator makes a round miss.

Both runners report how many iterations they took to converge, because the
simulator compares the two algorithms on exactly that number. One k-means
iteration is one assign+update pair; one fuzzy iteration is one
centroids+memberships pair, so the counts compare like with like. All
tie-breaks (nearest centroid, argmax membership) go to the lowest index, which
keeps every run deterministic for a given seed.

Each step repeats, bit for bit, the per-cluster loops kept in the tests as
oracles, and a run in a batch repeats the same run alone. Distances are
sqrt(dx*dx + dy*dy), not ``np.hypot``. Sums over points run in point order,
not as ``w.T @ points``: by ``np.bincount`` for k-means, and for FCM in
three planes' memory, each (runs * k, n) and summed by ``np.add.accumulate``
plus 0.0 while runs * k < 8, and from there (n, runs * k), points outermost,
and summed by one reduce over the points, whose inner loops then run over
runs * k; below 8 those loops are so short that the accumulate costs less.
Both add from +0.0 in point order, as the oracle's ``(n, 2).sum(axis=0)``
does (numpy reduces an (n, 1) column pairwise, which FCM repeats at k = 1).
A membership row's sum over the centroids is a reduce over them: in order
for k < 8 and pairwise from 8, as ``(n, k).sum(axis=1)`` adds.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


class FcmUnderflow(ValueError):
    """Fuzzy memberships came out NaN or all zero: d ** (-2 / (m - 1)) left
    the float range for a point. It underflows to 0 for every centroid when
    the fuzzifier m is too close to 1, and it or its sum over the centroids
    overflows to inf when the point lies within about 1e-154 m of a centroid
    (for m = 2)."""


_ALONG_POINTS = 8  # FCM's weight sums lie along the points below this runs * k


class _Workspace:
    """The kernel: centroid-major buffers for one point set, k centroids and
    ``runs`` runs side by side; run b's planes are ``[:, b]``."""

    def __init__(self, points: np.ndarray, k: int, centroids: np.ndarray | None = None,
                 fuzzy: bool = False, runs: int = 1):
        if k < 1:
            raise ValueError("at least one centroid required")
        n, planes = len(points), 4 if fuzzy else 2
        self.points = points
        self.pt = np.array(points.T, dtype=float).reshape(2, 1, 1, n)  # x and y rows
        self.pt_row, self.pt_col = self.pt.reshape(2, 1, n), self.pt.reshape(2, n, 1)
        self.c = np.empty((2, runs, k))
        if centroids is not None:
            self.c[:, 0] = centroids.T
        # work planes dx and dy, then distances in dx's; FCM's two membership
        # planes lie either side of them: [u, dx, dy, u]
        self.plane_size = runs * k * n
        self.mem = np.empty(planes * self.plane_size)
        if k < 8:
            buf, self.spare = self.mem.reshape(planes, runs, k, n), None
        else:  # dy's memory, flat, takes the rows of the centroids that moved
            base = self.mem.reshape(planes, runs, n, k)
            buf, self.spare = base.transpose(0, 1, 3, 2), base[planes // 2].reshape(-1)
        self.work, self.u = (buf[1:3], buf[::3]) if fuzzy else (buf, buf[2:])
        self.sums, self.tot = np.empty((3, runs * k)), np.empty((runs, n))
        self.prev = np.empty((2, k))
        self._columns(runs)

    def _columns(self, runs: int) -> None:
        """Lay out FCM's w, w*x and w*y in the three planes that do not hold
        the current memberships: while u is in membership plane i,
        ``cols[i]`` lies in the other three, which do not overlap, so numpy
        copies none of them when it reads one and writes the others. Each is
        (runs * k, n) and summed by ``np.add.accumulate`` along the points
        while runs * k < _ALONG_POINTS; from there (n, runs * k), points
        outermost, and summed by one reduce over them, whose inner loops then
        run over runs * k. Both add in point order."""
        n, k = self.pt.shape[3], self.c.shape[2]
        rk = runs * k
        self.along_points = rk < _ALONG_POINTS

        def at(start: int) -> tuple[np.ndarray, np.ndarray]:
            cols = self.mem[start:start + 3 * n * rk]
            if self.along_points:
                cols = cols.reshape(3, rk, n)
                return cols, cols[0].reshape(runs, k, n)
            cols = cols.reshape(3, n, rk)
            return cols, cols[0].reshape(n, runs, k).transpose(1, 2, 0)  # w as (runs, k, n)

        self.cols = [at(self.plane_size), at(0)] if len(self.u) else []
        sums = self.sums.reshape(3, runs, k)
        self.totals, self.weighted = sums[0], sums[1:]

    def keep(self, runs: np.ndarray, plane: int) -> None:
        """Keep only the ``runs`` (ascending indices), moved to the front in
        order; membership ``plane`` is the only one a run carries to the next pair."""
        a, u = len(runs), self.u[plane]
        for to, run in enumerate(runs.tolist()):
            if to < run:  # a slot is written only after its run has moved
                u[to] = u[run]
        self.work, self.u, self.c = self.work[:, :a], self.u[:, :a], self.c[:, :a]
        self.sums, self.tot = self.sums[:, :a * self.c.shape[2]], self.tot[:a]
        self._columns(a)

    def distances(self, moved: np.ndarray | None = None) -> np.ndarray:
        """sqrt(dx*dx + dy*dy) from each centroid (row) to each point, per run.

        Given the centroids that ``moved`` since the last call (one run only),
        at most half of them, only their rows are computed, in dy's plane,
        and the other rows are kept: the same elementwise sequence gives the
        same bits."""
        d = self.work[0]
        k, n = d.shape[1:]
        partial = moved is not None and 2 * len(moved) <= k
        if partial:
            dxy = self.spare[:2 * len(moved) * n].reshape(2, 1, len(moved), n)
        else:
            dxy, moved = self.work[:2], slice(None)
        np.subtract(self.pt, self.c[:, :, moved, None], out=dxy)
        np.multiply(dxy, dxy, out=dxy)
        np.add(dxy[0], dxy[1], out=dxy[0])
        np.sqrt(dxy[0], out=dxy[0])
        if partial:
            d[:, moved] = dxy[0]
        return d

    def kmeans_update(self, assignment: np.ndarray) -> np.ndarray | None:
        """Cluster means into run 0's centroids; an empty cluster keeps its centroid.

        From k = 8 returns the indices of the centroids whose value changed;
        below it, None: every row is recomputed there."""
        c = self.c[:, 0]
        if self.spare is not None:
            np.copyto(self.prev, c)
        counts = np.bincount(assignment, minlength=c.shape[1])
        filled = counts > 0
        for row, x in zip(c, self.pt[:, 0, 0]):
            row[filled] = np.bincount(assignment, x, len(counts))[filled] / counts[filled]
        if self.spare is None:
            return None
        changed = c != self.prev  # -0.0 == 0.0, and both square to 0
        return np.flatnonzero(changed[0] | changed[1])

    def fcm_centroids(self, plane: int, m: float) -> np.ndarray:
        """Membership-weighted centroids per run from membership ``plane``;
        an all-zero weight column takes the mean."""
        u, (cols, w) = self.u[plane], self.cols[plane]
        np.power(u, m, out=w)  # a square for m = 2
        if self.along_points:  # + 0.0, as a reduce starts from +0.0
            np.multiply(cols[0], self.pt_row, out=cols[1:])
            np.add(np.add.accumulate(cols, axis=2, out=cols)[:, :, -1], 0.0, out=self.sums)
        else:
            np.multiply(cols[0], self.pt_col, out=cols[1:])
            np.add.reduce(cols, axis=1, out=self.sums)
        totals = self.totals
        if self.c.shape[2] == 1:  # numpy sums an (n, 1) column pairwise
            totals[:, 0] = np.add.reduce(np.power(u[:, 0], m, out=self.tot), axis=1)
        if np.minimum.reduce(totals, axis=None) > 0:
            return np.divide(self.weighted, totals, out=self.c)
        filled = totals > 0  # not a zero or NaN total
        np.divide(self.weighted, np.where(filled, totals, 1.0), out=self.c)
        self.c[:, ~filled] = self.points.mean(axis=0)[:, None]
        return self.c

    def fcm_memberships(self, p: float, out: np.ndarray) -> np.ndarray:
        """Memberships d ** p over their sum across the centroids, per run, into out."""
        w = self.distances()
        if coincident := np.count_nonzero(w) < w.size:  # a point on a centroid
            zero = w == 0.0
            runs, at = np.nonzero(zero.any(axis=1))  # each such point's run and column
            hits = zero[runs, :, at]
            w[runs, :, at] = 1.0  # any finite weight: the equal split replaces the column
        w **= p
        np.divide(w, np.add.reduce(w, axis=1, out=self.tot)[:, None], out=out)
        if coincident:
            out[runs, :, at] = hits / hits.sum(axis=1, keepdims=True)
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
        assignment = ws.distances(moved)[0].argmin(axis=0)
        if prev_assignment is not None and np.array_equal(assignment, prev_assignment):
            break
        moved = ws.kmeans_update(assignment)
        prev_assignment = assignment
        iterations += 1
    return prev_assignment, ws.c[:, 0].T.copy(), iterations


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


def fcm_run(points: np.ndarray, k: int, seeds: Sequence[int], m: float = 2.0,
            tol: float = 1e-4, max_iter: int = 100) -> list[tuple | None]:
    """One FCM run per seed, side by side: alternate centroid and membership
    updates, from ``fcm_init``'s memberships for the seed, until the
    memberships settle.

    Convergence is max |u_new - u_old| < tol; iteration count is the number of
    centroids+memberships pairs performed. A run leaves the batch when it
    converges or reaches max_iter, and the runs still going move to the front.
    Returns (memberships, centroids, count) per seed, in order, each as
    ``fcm_run(points, k, [seed])`` would. A run that ends with a membership
    row of NaN or all zeros raises FcmUnderflow for the first seed and comes
    back as None for any other. ``FuzzyFormation`` checks m, tol and max_iter.
    """
    if len(points) == 0:
        raise ValueError("at least one point required")
    ws = _Workspace(points, k, fuzzy=True, runs=len(seeds))
    for u0, seed in zip(ws.u[0], seeds):
        u0[...] = fcm_init(len(points), k, seed).T
    p = -2.0 / (m - 1.0)
    results: list[tuple | None] = [None] * len(seeds)
    going, cur = np.arange(len(seeds)), 0  # each run's seed index; the plane of u
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        for iterations in range(1, max_iter + 1):
            u, u_new = ws.u[cur], ws.u[1 - cur]
            ws.fcm_centroids(cur, m)
            ws.fcm_memberships(p, u_new)
            change = ws.work[1]  # free once the distances are taken
            np.subtract(u_new, u, out=change)
            delta = np.maximum.reduce(np.abs(change, out=change), axis=(1, 2))
            cur = 1 - cur
            done = [d < tol for d in delta.tolist()]  # a NaN delta never converges
            if True not in done and iterations < max_iter:
                continue
            done = np.array(done) | (iterations == max_iter)
            for j in np.flatnonzero(done).tolist():
                results[going[j]] = _fcm_result(ws, j, u_new[j], going[j] == 0, m, iterations)
            going = going[~done]
            if not len(going):
                break
            ws.keep(np.flatnonzero(~done), cur)
    return results


def _fcm_result(ws: _Workspace, j: int, u: np.ndarray, first: bool, m: float,
                iterations: int) -> tuple | None:
    """Run j's (memberships, centroids, count), copied out of the batch;
    None, or FcmUnderflow for the ``first`` seed, if a membership row failed."""
    # a NaN row is 0/0 or inf/inf; a row of zeros is finite weights over a
    # sum that overflowed. Either way its max is not above 0
    bad = ~(np.maximum.reduce(u, axis=0) > 0)
    if not bad.any():
        return u.T.copy(), ws.c[:, j].T.copy(), iterations
    if not first:
        return None
    # the last pair's weight sums show which way they left the float range
    if np.isinf(ws.tot[j, bad]).any():
        raise FcmUnderflow(
            f"a point lies {ws.distances()[j][:, bad].min():.3g} m from a centroid: "
            f"the sum of d ** (-2/(m-1)) overflows with m={m!r}, so the "
            "memberships are divided by inf")
    raise FcmUnderflow(f"fuzzifier m={m!r} is too close to 1: "
                       "the memberships underflow to 0/0")


def defuzzify(u: np.ndarray) -> np.ndarray:
    """Hard assignment by row argmax (ties: lowest cluster index)."""
    return u.argmax(axis=1)
