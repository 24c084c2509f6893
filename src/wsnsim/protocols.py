"""Cluster formation strategies.

Each strategy maps the current alive-node set (plus its parameters and the
round's randomness) to a ClusterSet: who heads a cluster, who belongs to it,
and who is left to transmit straight to the base station. Strategies read
positions and distances from a ``Geometry``, built once per deployment since
nodes never move, and name each node by its row there: its deployment index.
Five strategies are implemented:

* probabilistic rotation election with nearest-head clustering (LEACH style)
* iterative residual-energy election with cost-based attachment (HEED style)
* candidate suppression with sink-distance-aware cluster sizing (EECS style)
* k-means over node positions, heads picked per cluster by residual energy
* fuzzy c-means over node positions, heads picked the same way

Everything is deterministic given the node set, the parameters and the
generator state; ties always resolve to the lowest row or index.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .model import NEVER_CLUSTER_HEAD, check_range, hypot, squared_distances
from .partitioning import defuzzify, fcm_run, kmeans_init, kmeans_run


@dataclass
class Cluster:
    head: int
    members: list[int] = field(default_factory=list)


@dataclass
class ClusterSet:
    """One round's partition of the alive nodes."""

    clusters: list[Cluster] = field(default_factory=list)
    orphans: list[int] = field(default_factory=list)  # transmit directly to the BS

    @property
    def heads(self) -> list[int]:
        return [c.head for c in self.clusters]

    def validate(self, alive_rows: set[int]) -> None:
        """Check the exactly-once partition invariant over the alive nodes."""
        seen: list[int] = []
        for c in self.clusters:
            if c.head in c.members:
                raise ValueError(f"head {c.head} listed among its own members")
            seen.append(c.head)
            seen.extend(c.members)
        seen.extend(self.orphans)
        if len(seen) != len(set(seen)):
            raise ValueError("a node appears more than once in the cluster set")
        if set(seen) != alive_rows:
            raise ValueError("cluster set does not cover the alive nodes exactly")


@dataclass(frozen=True)
class LeachParams:
    name: ClassVar[str] = "leach"
    p: float = 0.05  # desired cluster-head fraction
    ch_separation: float = 0.0  # optional minimum head spacing, 0 disables

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise ValueError("p must be in (0, 1]")
        check_range("1/p", 1.0 / self.p)  # the rotation period
        check_range("ch_separation", self.ch_separation, 0.0)


@dataclass(frozen=True)
class HeedParams:
    name: ClassVar[str] = "heed"
    c_prob: float = 0.05  # initial probability scale
    p_min: float = 1e-4  # probability floor
    cluster_radius: float = 20.0  # neighborhood radius, meters
    announce_waves: int = 2  # announcement passes before candidates settle
    ch_separation: float = 0.0

    def __post_init__(self):
        if not 0 < self.p_min <= self.c_prob <= 1:
            raise ValueError("require 0 < p_min <= c_prob <= 1")
        check_range("1/p_min", 1.0 / self.p_min)  # in iteration_bound
        check_range("cluster_radius", self.cluster_radius, 0.0, strict=True)
        check_range("cluster_radius**2", self.cluster_radius * self.cluster_radius)
        if self.announce_waves < 1:
            raise ValueError("announce_waves must be >= 1")
        check_range("ch_separation", self.ch_separation, 0.0)

    @property
    def iteration_bound(self) -> int:
        """Hard cap on election iterations, ceil(log2(1/p_min)) + 1."""
        return math.ceil(math.log2(1.0 / self.p_min)) + 1


@dataclass(frozen=True)
class EecsParams:
    name: ClassVar[str] = "eecs"
    p: float = 0.5  # candidate fraction (suppression thins the surplus)
    w: float = 0.5  # member-distance weight vs head-to-BS distance
    suppress_radius: float = 30.0  # earshot within which weaker candidates yield
    join_radius: float = 50.0  # heads a plain node weighs against each other
    head_fraction: float = 0.06  # target head count as a share of alive nodes
    ch_separation: float = 0.0

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise ValueError("p must be in (0, 1]")
        if not 0 <= self.w <= 1:
            raise ValueError("w must be in [0, 1]")
        check_range("suppress_radius", self.suppress_radius, 0.0)
        check_range("join_radius", self.join_radius, 0.0, strict=True)
        if not 0 < self.head_fraction <= 1:
            raise ValueError("head_fraction must be in (0, 1]")
        check_range("ch_separation", self.ch_separation, 0.0)


@dataclass(frozen=True)
class KmeansFormation:
    """Centroid formation with k-means; k=None means 5% of the alive count."""

    name: ClassVar[str] = "kmeans"
    k: int | None = None
    max_iter: int = 100

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class FuzzyFormation:
    """Centroid formation with fuzzy c-means; k=None means 5% of the alive
    count. The fuzzifier m must be strictly > 1."""

    name: ClassVar[str] = "fuzzy"
    k: int | None = None
    m: float = 2.0
    tol: float = 1e-4
    max_iter: int = 100

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")
        check_range("fuzzifier m", self.m, 1.0, strict=True)
        if not self.tol > 0:  # an infinite tol stops after the first pair
            raise ValueError("tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


_BLOCK = 2**16  # the one element budget: heed_geometry's row blocks, EECS's store, FCM's batch


class Geometry:
    """A run's node state, one row per node; a node's row is its deployment index.

    ``pos`` is the (n, 2) position array and ``bs_dist`` each row's
    ``euclidean_distance`` to the (x, y) base station; nodes never move.
    ``energy`` (a scalar or one value per row) and ``rounds_since_ch`` (from
    ``NEVER_CLUSTER_HEAD``) change as the run goes; a row is alive exactly
    while its energy is > 0. HEED's neighbor mask and costs depend on the
    alive set as well, so ``heed`` keeps them for the set it last saw.
    ``head_distances`` keeps each EECS head's exact distances to every row,
    and ``fcm`` the coming rounds' FCM runs for the alive set it last saw.
    """

    def __init__(self, pos, bs: tuple[float, float], energy):
        self.pos = np.array(pos, dtype=float).reshape(-1, 2)
        self.bs_dist = hypot(self.pos[:, 0] - bs[0], self.pos[:, 1] - bs[1])
        # for the scalar ledger: the positions and sink distances as Python floats
        self.xy = self.pos.tolist()
        self.bs_d = self.bs_dist.tolist()
        self.energy = np.full(len(self.pos), energy, dtype=float)
        self.rounds_since_ch = np.full(len(self.pos), NEVER_CLUSTER_HEAD, dtype=np.int64)
        self._heed_key: tuple | None = None
        self._heed: tuple = ()
        n = len(self.pos)
        self._near = np.empty((min(n, _BLOCK // max(n, 1)), n))  # one row per stored head
        self._slot = np.full(n, -1)  # each head's row in _near, -1 if not stored
        self._stored = 0
        self._fcm_key: tuple | None = None
        self._fcm_ahead: dict = {}  # seed -> fcm_run's result for it, under _fcm_key
        self._fcm_batch = 1

    def alive(self) -> np.ndarray:
        """The rows of the alive nodes, ascending; ValueError if there are none."""
        rows = np.flatnonzero(self.energy > 0)
        if not len(rows):
            raise ValueError("no alive nodes")
        return rows

    def by_energy(self, rows: np.ndarray) -> np.ndarray:
        """The ascending ``rows``, most energy first; ties keep the lowest row first."""
        return rows[np.argsort(-self.energy[rows], kind="stable")]

    def distances(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """(len(rows), len(cols)) block of ``euclidean_distance`` values."""
        a, b = self.pos[rows], self.pos[cols]
        return hypot(a[:, 0, None] - b[:, 0], a[:, 1, None] - b[:, 1])

    def head_distances(self, rows: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """``distances(rows, heads)``, bit for bit. Heads not yet stored take
        one ``distances`` block over all n rows, kept for the run while
        ``_BLOCK`` elements last; a head past them gets only ``rows``, again in
        each round it heads. Nodes never move, so no death makes a stored row stale."""
        slot = self._slot[heads]
        old, new = np.flatnonzero(slot >= 0), np.flatnonzero(slot < 0)
        room = len(self._near) - self._stored
        fit, spill = new[:room], new[room:]
        out = np.empty((len(heads), len(rows)))
        out[old] = self._near[slot[old, None], rows]
        if len(fit):
            block = self.distances(np.arange(len(self.pos)), heads[fit]).T
            out[fit] = block[:, rows]
            end = self._stored + len(fit)
            self._near[self._stored:end] = block
            self._slot[heads[fit]] = np.arange(self._stored, end)
            self._stored = end
        if len(spill):
            out[spill] = self.distances(rows, heads[spill]).T
        return out.T

    def fcm(self, rows: np.ndarray, params: FuzzyFormation, k: int, seed: int,
            rng: np.random.Generator) -> tuple:
        """``fcm_run(pos[rows], k, [seed], ...)[0]``, bit for bit.

        ``rng`` is the generator ``seed`` was drawn from; its next draws are
        the coming fuzzy rounds' seeds as long as nothing else draws from it.
        A round with no kept run for its seed runs it beside the next B - 1
        seeds, read from a copy of ``rng``, and keeps their results under
        (rows, k, params). B doubles each time the kept runs are used up,
        capped so that fcm_run's four planes and the memberships it returns,
        five k x n arrays per run, hold at most ``_BLOCK`` elements. It
        restarts at 1 on a miss: a changed alive set or k (a death), or a
        seed the batch did not foresee."""
        key = (rows.tobytes(), k, params)
        if key == self._fcm_key and seed in self._fcm_ahead:
            return self._fcm_ahead.pop(seed)
        if key == self._fcm_key and not self._fcm_ahead:  # every kept run was used
            cap = max(1, _BLOCK // (5 * k * len(rows)))
            self._fcm_batch = min(2 * self._fcm_batch, cap)
        else:  # the kept runs belong to the old key
            self._fcm_key, self._fcm_ahead, self._fcm_batch = key, {}, 1
        seeds = [seed]
        if self._fcm_batch > 1:
            seeds += copy.deepcopy(rng).integers(0, 2**63, size=self._fcm_batch - 1).tolist()
        runs = fcm_run(self.pos[rows], k, seeds, params.m, params.tol, params.max_iter)
        # a look-ahead run that failed is left out, to fail again in its own round
        self._fcm_ahead = {s: run for s, run in zip(seeds[1:], runs[1:]) if run is not None}
        return runs[0]

    def nearest(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """``distances(rows, cols).argmin(axis=1)``, bit for bit, mostly without
        computing the exact distances.

        The argmin runs on d2 = dx*dx + dy*dy. A row's answer stands only when
        its second-smallest d2 exceeds the smallest by a relative 1e-12, the
        smallest is above 1e-290 and the second is finite. fl(d2) and
        ``hypot`` each lie within a few ulps of the true values, so a gap
        that wide can neither reorder them nor make a rounding tie. Any other
        row (a tie, a coincident or underflowing pair) takes the argmin of the
        exact distances.
        """
        d2 = squared_distances(self.pos[rows], self.pos[cols])
        best = d2.argmin(axis=1)
        if d2.shape[1] < 2:
            return best
        at = np.arange(len(best))
        first = d2[at, best]
        d2[at, best] = np.inf
        second = d2.min(axis=1)
        unsure = ~((second > first * (1.0 + 1e-12)) & (first > 1e-290) & np.isfinite(second))
        if unsure.any():
            best[unsure] = self.distances(rows[unsure], cols).argmin(axis=1)
        return best

    def heed(self, rows: np.ndarray, radius: float) -> tuple:
        """``heed_geometry`` over ``rows`` plus each row's rank in (cost, row)
        order, rebuilt only when the alive rows or the radius change. The
        arrays are shared between calls and read-only."""
        key = (radius, rows.tobytes())
        if key != self._heed_key:
            in_range, cost = heed_geometry(self.pos[rows], radius)
            rank = np.empty(len(rows), dtype=int)
            rank[np.lexsort((rows, cost))] = np.arange(len(rows))
            for a in (in_range, cost, rank):
                a.flags.writeable = False
            self._heed_key, self._heed = key, (in_range, cost, rank)
        return self._heed


# --- rotation election (LEACH) -------------------------------------------------


def rotation_period(p: float) -> int:
    return math.ceil(1.0 / p)


def leach_threshold(p: float, r: int) -> float:
    """Election threshold p / (1 - p * (r mod ceil(1/p))), clamped to [0, 1].

    The clamp makes the end-of-period value exactly 1.0, where every
    still-eligible node must elect itself.
    """
    rm = r % rotation_period(p)
    denom = 1.0 - p * rm
    if denom <= 0.0:
        return 1.0
    return min(1.0, p / denom)


def leach_elect(geom: Geometry, params: LeachParams, r: int, rng) -> set[int]:
    """Per-node threshold election; guarantees at least one head via fallback.

    A node is in the election set iff it has not served since the current
    rotation period began. Periods are aligned to multiples of ceil(1/p):
    when ``r mod ceil(1/p)`` wraps to 0 every node becomes eligible again,
    which is what keeps the threshold formula's expected head count constant
    over the period. Every alive node draws once (in row order) so the random
    stream does not depend on eligibility. If nobody self-elects, the alive
    node with the most energy (ties: lowest row) stands in as head for the
    round. Returns the heads' rows.
    """
    rows = geom.alive()
    t = leach_threshold(params.p, r)
    period_pos = r % rotation_period(params.p)
    draws = rng.random(len(rows))
    heads = rows[(draws < t) & (geom.rounds_since_ch[rows] >= period_pos)]
    if not len(heads):
        heads = geom.by_energy(rows)[:1]
    return set(heads.tolist())


def _head_mask(rows: np.ndarray, heads: set[int]) -> np.ndarray:
    """Mask over the ascending alive ``rows`` that marks ``heads``; a head
    missing from ``rows`` raises ValueError, naming the lowest such head."""
    want = np.array(sorted(heads), dtype=rows.dtype)
    at = np.searchsorted(rows, want)
    hit = at < len(rows)
    hit[hit] = rows[at[hit]] == want[hit]
    if not hit.all():
        raise ValueError(f"cluster head {want[~hit][0]} is not an alive node")
    mask = np.zeros(len(rows), dtype=bool)
    mask[at] = True
    return mask


def _join(heads: np.ndarray, members: np.ndarray, choice: np.ndarray) -> ClusterSet:
    """One cluster per row of ``heads``; each row of ``members`` joins
    ``heads[choice[i]]``, so a cluster keeps its members in ``members``' order."""
    clusters = [Cluster(head=h) for h in heads.tolist()]
    for row, j in zip(members.tolist(), choice.tolist()):
        clusters[j].members.append(row)
    return ClusterSet(clusters=clusters)


def form_clusters_nearest(geom: Geometry, ch_rows: set[int]) -> ClusterSet:
    """Attach every non-head alive node to its nearest head (ties: lowest head row)."""
    if not ch_rows:
        raise ValueError("ch_rows must not be empty")
    rows = geom.alive()
    is_head = _head_mask(rows, ch_rows)
    # rows are ascending, so argmin's first minimum is the lowest head row
    heads, members = rows[is_head], rows[~is_head]
    return _join(heads, members, geom.nearest(members, heads))


def enforce_ch_separation(geom: Geometry, ch_rows: set[int], min_dist: float) -> set[int]:
    """Greedy thinning: keep heads in descending-energy order (ties: lowest
    row), drop any within min_dist of an already kept head. Always keeps at
    least one."""
    if not ch_rows:
        raise ValueError("ch_rows must not be empty")
    rows = geom.by_energy(np.array(sorted(ch_rows), dtype=int))
    kept: list[tuple[float, float]] = []  # the kept heads' positions
    heads: set[int] = set()
    for (x, y), head in zip(geom.pos[rows].tolist(), rows.tolist()):
        # euclidean_distance, inlined
        if all(math.hypot(x - kx, y - ky) >= min_dist for kx, ky in kept):
            kept.append((x, y))
            heads.add(head)
    return heads


# --- iterative residual-energy election (HEED) ---------------------------------


def heed_announce_prob(params: HeedParams, energy, reference: float):
    """Per-wave announcement probability from residual energy.

    Energy is taken relative to the best-charged alive node and squared,
    which concentrates head duty on well-charged nodes; the p_min floor
    keeps every node electable and caps the doubling loop's length.
    """
    if reference <= 0:
        raise ValueError("reference energy must be > 0")
    ratio = np.asarray(energy, dtype=float) / reference
    return np.minimum(np.maximum(params.c_prob * ratio**2, params.p_min), 1.0)


def heed_geometry(pos: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """The within-``radius`` neighbor mask and each candidate's attachment
    cost, for the (n, 2) positions ``pos``.

    The cost is the mean squared distance to the candidate's neighbors, or
    radius^2 without neighbors. Lower is better; ties go to the lower row.
    Built a block of rows at a time, with no n × n float array; each cost row
    is still summed over its whole row, in numpy's pairwise order.
    """
    n = len(pos)
    in_range = np.empty((n, n), dtype=bool)
    total = np.empty(n)
    step = max(1, _BLOCK // max(n, 1))
    for s in range(0, n, step):
        d = np.sqrt(squared_distances(pos[s:s + step], pos))
        block = np.less_equal(d, radius, out=in_range[s:s + step])
        np.fill_diagonal(block[:, s:], False)  # no node is its own neighbor
        sq = np.where(block, d, 0.0)
        sq *= sq
        sq.sum(axis=1, out=total[s:s + step])
    neighbor_counts = in_range.sum(axis=1)
    cost = np.where(neighbor_counts > 0, total / np.maximum(neighbor_counts, 1), radius**2)
    return in_range, cost


def heed_form_clusters(geom: Geometry, params: HeedParams, rng) -> tuple[ClusterSet, int]:
    """Iterative election: a node with no candidate in earshot announces with
    a residual-energy probability that doubles each pass; an announced
    candidate settles as final head iff no cheaper candidate is in its
    earshot. Plain nodes join the lowest-cost final head within the cluster
    radius, and nodes left uncovered attach to the nearest final head.

    Returns the cluster set and the number of iterations the election took,
    which never exceeds ceil(log2(1/p_min)) + 1.
    """
    rows = geom.alive()
    n = len(rows)
    # rank encodes the (cost, row) order so a plain argmin resolves ties by row;
    # in_range is symmetric, so its rows are read in place of its columns
    in_range, _, rank = geom.heed(rows, params.cluster_radius)

    energy = geom.energy[rows]
    prob = heed_announce_prob(params, energy, float(energy.max()))

    announced = np.zeros(n, dtype=bool)
    bound = params.iteration_bound
    waves = min(params.announce_waves, bound)
    iterations = 0
    while iterations < waves:
        iterations += 1
        # only nodes with no candidate in earshot roll an announcement;
        # everyone else defers, which is what thins the candidate set
        covered = announced | in_range[announced].any(axis=0)
        if covered.all():
            break
        # draws lie in [0, 1), so a probability of 1 always announces
        announced |= ~covered & (rng.random(n) < prob)
        prob = np.minimum(prob * 2.0, 1.0)
    if not announced.any():
        announced[rows.searchsorted(geom.by_energy(rows)[0])] = True  # the richest stands in

    # a candidate settles iff its rank is below that of every candidate it hears
    cand = np.flatnonzero(announced)
    rival = np.where(in_range[cand] & announced, rank, n).min(axis=1)
    head_idx = cand[rank[cand] < rival]
    heads = set(rows[head_idx].tolist())
    if params.ch_separation > 0:
        heads = enforce_ch_separation(geom, heads, params.ch_separation)
        head_idx = np.searchsorted(rows, sorted(heads))

    # the lowest-rank head in range, else the nearest head (ties: lowest row,
    # as head_idx is ascending)
    reach = in_range[head_idx]  # (heads, n)
    best = np.where(reach, rank[head_idx, None], n).argmin(axis=0)
    far = np.flatnonzero(~reach.any(axis=0))
    d = squared_distances(geom.pos[rows[far]], geom.pos[rows[head_idx]])
    best[far] = np.sqrt(d, out=d).argmin(axis=1)
    plain = np.ones(n, dtype=bool)
    plain[head_idx] = False
    return _join(rows[head_idx], rows[plain], best[plain]), iterations


# --- candidate suppression with sink-aware sizing (EECS) ------------------------


def head_quota(alive_count: int, head_fraction: float) -> int:
    """Target head count: head_fraction of the alive nodes, at least one."""
    return max(1, math.ceil(head_fraction * alive_count))


def eecs_form_clusters(geom: Geometry, params: EecsParams, rng) -> ClusterSet:
    """Probability-p candidacy, energy-ranked suppression, cost-based joins.

    Candidates are scanned from highest residual energy down (ties: lower
    row); each survivor suppresses every weaker candidate in its earshot, and
    the scan stops at the head_fraction-of-alive quota. This keeps head duty
    with the locally best-charged nodes while holding the head count at the
    level that balances member uplinks against per-head base-station traffic.

    Plain nodes then weigh their distance to a head against that head's
    distance to the base station, so heads far from the sink attract fewer
    members and spend less on receiving and aggregation to offset their
    longer uplink.
    """
    rows = geom.alive()
    candidates = geom.by_energy(rows[rng.random(len(rows)) < params.p])
    if not len(candidates):
        candidates = geom.by_energy(rows)[:1]

    quota = head_quota(len(rows), params.head_fraction)
    radius = params.suppress_radius
    heads: set[int] = set()
    kept: list[tuple[float, float]] = []  # the heads' positions
    for (x, y), cand in zip(geom.pos[candidates].tolist(), candidates.tolist()):
        if len(kept) >= quota:
            break
        for kx, ky in kept:  # euclidean_distance, inlined
            if math.hypot(x - kx, y - ky) <= radius:
                break
        else:
            kept.append((x, y))
            heads.add(cand)
    if params.ch_separation > 0:
        heads = enforce_ch_separation(geom, heads, params.ch_separation)
    # rows are ascending, so every argmin below breaks ties on the lowest head row
    is_head = _head_mask(rows, heads)
    head_rows, members = rows[is_head], rows[~is_head]

    bs_dist = geom.bs_dist[head_rows]
    d_bs_min = bs_dist.min()
    bs_span = bs_dist.max() - d_bs_min
    bs_term = (bs_dist - d_bs_min) / bs_span if bs_span > 0 else np.zeros(len(head_rows))

    dists = geom.head_distances(members, head_rows)
    # heads compete for a node only within its join radius; a node with no
    # head that close simply attaches to the nearest one
    reach = dists <= params.join_radius
    d_max = np.where(reach, dists, -np.inf).max(axis=1, keepdims=True)
    member_term = np.divide(dists, d_max, out=np.zeros_like(dists), where=d_max > 0)
    cost = params.w * member_term + (1.0 - params.w) * bs_term
    best = np.where(reach.any(axis=1), np.where(reach, cost, np.inf).argmin(axis=1),
                    dists.argmin(axis=1))
    return _join(head_rows, members, best)


# --- centroid-based formation (k-means / fuzzy c-means) -------------------------


def _centroid_cluster_set(
    geom: Geometry, rows: np.ndarray, assignment: np.ndarray, centroids: np.ndarray
) -> ClusterSet:
    """Group ``rows`` by ``assignment``; each group's head has the most
    energy, ties going to the nearest to its centroid, then the lowest row."""
    row, energy = rows.tolist(), geom.energy[rows].tolist()
    pos = geom.pos[rows].tolist()
    groups: list[list[int]] = [[] for _ in centroids]
    for i, j in enumerate(assignment.tolist()):
        groups[j].append(i)
    clusters: list[Cluster] = []
    for group, (cx, cy) in zip(groups, centroids.tolist()):
        if not group:
            continue
        top = max(energy[i] for i in group)  # only its ties need the distance
        head = min((i for i in group if energy[i] == top),
                   key=lambda i: (math.hypot(pos[i][0] - cx, pos[i][1] - cy), i))
        clusters.append(Cluster(head=row[head], members=[row[i] for i in group if i != head]))
    return ClusterSet(clusters=clusters)


def kmeans_form_clusters(geom: Geometry, k: int, max_iter: int = 100) -> tuple[ClusterSet, int]:
    """Cluster alive nodes by position with k-means; head each cluster by energy."""
    rows = geom.alive()
    pts = geom.pos[rows]
    init = kmeans_init(pts, geom.energy[rows], k)
    assignment, centroids, iterations = kmeans_run(pts, init, max_iter=max_iter)
    return _centroid_cluster_set(geom, rows, assignment, centroids), iterations


def fuzzy_form_clusters(geom: Geometry, params: FuzzyFormation, k: int, seed: int,
                        rng: np.random.Generator) -> tuple[ClusterSet, int]:
    """Cluster alive nodes into k with fuzzy c-means seeded by ``seed``, the
    last draw from ``rng``, defuzzify, head each cluster by energy;
    ``params.k`` is not read. ``Geometry.fcm`` looks ahead in ``rng``."""
    rows = geom.alive()
    if k > len(rows):
        raise ValueError(f"k={k} exceeds alive node count {len(rows)}")
    u, centroids, iterations = geom.fcm(rows, params, k, seed, rng)
    return _centroid_cluster_set(geom, rows, defuzzify(u), centroids), iterations
