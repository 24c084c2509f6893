"""Cluster formation strategies.

Each strategy maps the current alive-node set (plus its parameters and the
round's randomness) to a ClusterSet: who heads a cluster, who belongs to it,
and who is left to transmit straight to the base station. Strategies read
positions and distances from a ``Geometry``, built once per deployment since
nodes never move. Five strategies are implemented:

* probabilistic rotation election with nearest-head clustering (LEACH style)
* iterative residual-energy election with cost-based attachment (HEED style)
* candidate suppression with sink-distance-aware cluster sizing (EECS style)
* k-means over node positions, heads picked per cluster by residual energy
* fuzzy c-means over node positions, heads picked the same way

Everything is deterministic given the node set, the parameters and the
generator state; ties always resolve to the lowest id or index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .model import Node, Position, check_range, hypot, squared_distances
from .partitioning import FcmParams, defuzzify, fcm_run, kmeans_init, kmeans_run


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
    def head_ids(self) -> list[int]:
        return [c.head for c in self.clusters]

    def validate(self, alive_ids: set[int]) -> None:
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
        if set(seen) != alive_ids:
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
    max_iterations: int | None = None  # None = ceil(log2(1/p_min)) + 1
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
        """Hard cap on election iterations, ceil(log2(1/p_min)) + 1 at most."""
        bound = math.ceil(math.log2(1.0 / self.p_min)) + 1
        return bound if self.max_iterations is None else min(self.max_iterations, bound)


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


class Geometry:
    """A run's node state, one row per node in ascending id order.

    ``pos`` is the (n, 2) position array and ``bs_dist`` each node's
    ``euclidean_distance`` to the base station; nodes never move. ``energy``
    and ``rounds_since_ch`` are copied from the node records once and change
    as the run goes; a row is alive exactly while its energy is > 0. HEED's
    pairwise arrays depend on the alive set as well, so ``heed`` keeps them
    for the set it last saw.
    """

    def __init__(self, nodes: list[Node], bs: Position):
        nodes = sorted(nodes, key=lambda n: n.id)
        self.ids = np.array([n.id for n in nodes], dtype=int)
        self.pos = np.array([(n.pos.x, n.pos.y) for n in nodes], dtype=float).reshape(-1, 2)
        self.bs_dist = hypot(self.pos[:, 0] - bs.x, self.pos[:, 1] - bs.y)
        # for the scalar ledger: each id's row, and the positions as Python floats
        self.row_of = {node_id: row for row, node_id in enumerate(self.ids.tolist())}
        self.xy = self.pos.tolist()
        self.energy = np.array([n.energy for n in nodes], dtype=float)
        self.rounds_since_ch = np.array([n.rounds_since_ch for n in nodes], dtype=np.int64)
        self._heed_key: tuple | None = None
        self._heed: tuple = ()

    def alive(self) -> np.ndarray:
        """The rows of the alive nodes, ascending; ValueError if there are none."""
        rows = np.flatnonzero(self.energy > 0)
        if not len(rows):
            raise ValueError("no alive nodes")
        return rows

    def by_energy(self, rows: np.ndarray) -> np.ndarray:
        """The ascending ``rows``, most energy first; ties keep the lowest id first."""
        return rows[np.argsort(-self.energy[rows], kind="stable")]

    def distances(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """(len(rows), len(cols)) block of ``euclidean_distance`` values."""
        a, b = self.pos[rows], self.pos[cols]
        return hypot(a[:, 0, None] - b[:, 0], a[:, 1, None] - b[:, 1])

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
        """``heed_geometry`` over ``rows`` plus each row's rank in (cost, id)
        order, rebuilt only when the alive ids or the radius change. The
        arrays are shared between calls and read-only."""
        ids = self.ids[rows]
        key = (radius, ids.tobytes())
        if key != self._heed_key:
            dist, in_range, cost = heed_geometry(self.pos[rows], radius)
            rank = np.empty(len(rows), dtype=int)
            rank[np.lexsort((ids, cost))] = np.arange(len(rows))
            for a in (dist, in_range, cost, rank):
                a.flags.writeable = False
            self._heed_key, self._heed = key, (dist, in_range, cost, rank)
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
    over the period. Every alive node draws once (in id order) so the random
    stream does not depend on eligibility. If nobody self-elects, the alive
    node with the most energy (ties: lowest id) stands in as head for the
    round.
    """
    rows = geom.alive()
    t = leach_threshold(params.p, r)
    period_pos = r % rotation_period(params.p)
    draws = rng.random(len(rows))
    heads = rows[(draws < t) & (geom.rounds_since_ch[rows] >= period_pos)]
    if not len(heads):
        heads = geom.by_energy(rows)[:1]
    return set(geom.ids[heads].tolist())


def _head_mask(ids: np.ndarray, heads: set[int]) -> np.ndarray:
    """Mask over the ascending ``ids`` that marks ``heads``; a head missing
    from ``ids`` raises ValueError, naming the lowest such head."""
    want = np.array(sorted(heads), dtype=ids.dtype)
    at = np.searchsorted(ids, want)
    hit = at < len(ids)
    hit[hit] = ids[at[hit]] == want[hit]
    if not hit.all():
        raise ValueError(f"cluster head {want[~hit][0]} is not an alive node")
    mask = np.zeros(len(ids), dtype=bool)
    mask[at] = True
    return mask


def form_clusters_nearest(geom: Geometry, ch_ids: set[int]) -> ClusterSet:
    """Attach every non-head alive node to its nearest head (ties: lowest head id)."""
    if not ch_ids:
        raise ValueError("ch_ids must not be empty")
    rows = geom.alive()
    ids = geom.ids[rows]
    is_head = _head_mask(ids, ch_ids)
    # rows are in id order, so argmin's first minimum is the lowest head id
    clusters = [Cluster(head=h) for h in ids[is_head].tolist()]
    nearest = geom.nearest(rows[~is_head], rows[is_head])
    for node_id, j in zip(ids[~is_head].tolist(), nearest.tolist()):
        clusters[j].members.append(node_id)
    return ClusterSet(clusters=clusters)


def enforce_ch_separation(geom: Geometry, ch_ids: set[int], min_dist: float) -> set[int]:
    """Greedy thinning: keep heads in descending-energy order (ties: lowest
    id), drop any within min_dist of an already kept head. Always keeps at
    least one."""
    if not ch_ids:
        raise ValueError("ch_ids must not be empty")
    rows = geom.by_energy(geom.ids.searchsorted(sorted(ch_ids)))
    kept: list[tuple[float, float]] = []  # the kept heads' positions
    heads: set[int] = set()
    for (x, y), head in zip(geom.pos[rows].tolist(), geom.ids[rows].tolist()):
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
    return np.clip(np.maximum(params.c_prob * ratio**2, params.p_min), None, 1.0)


def heed_geometry(pos: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairwise distances, the within-``radius`` neighbor mask and each
    candidate's attachment cost, for the (n, 2) positions ``pos``.

    The cost is the mean squared distance to the candidate's neighbors, or
    radius^2 without neighbors. Lower is better; ties go to the lower id.
    """
    dist = squared_distances(pos, pos)  # no (n, n, 2) temporary
    np.sqrt(dist, out=dist)
    in_range = dist <= radius
    np.fill_diagonal(in_range, False)
    neighbor_counts = in_range.sum(axis=1)
    sq = np.where(in_range, dist, 0.0)
    sq *= sq
    cost = np.where(neighbor_counts > 0,
                    sq.sum(axis=1) / np.maximum(neighbor_counts, 1), radius**2)
    return dist, in_range, cost


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
    ids = geom.ids[rows]
    # rank encodes the (cost, id) order so a plain argmin resolves ties by id
    dist, in_range, _, rank = geom.heed(rows, params.cluster_radius)

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
        covered = announced | in_range[:, announced].any(axis=1)
        if covered.all():
            break
        draws = rng.random(n)
        announced |= ~covered & ((prob >= 1.0) | (draws < prob))
        prob = np.minimum(prob * 2.0, 1.0)
    if not announced.any():
        announced[rows.searchsorted(geom.by_energy(rows)[0])] = True  # the richest stands in

    # a candidate settles iff it has the lowest rank among the candidates it
    # hears, itself included
    cand = np.flatnonzero(announced)
    heard = in_range[cand] & announced
    heard[np.arange(len(cand)), cand] = True
    head_idx = cand[np.where(heard, rank, n).argmin(axis=1) == cand]
    heads = {int(ids[i]) for i in head_idx}
    if params.ch_separation > 0:
        heads = enforce_ch_separation(geom, heads, params.ch_separation)
        head_idx = np.searchsorted(ids, sorted(heads))

    # the lowest-rank head in range, else the nearest head (ties: lowest id,
    # as head_idx is in id order)
    reach = in_range[:, head_idx]
    best = np.where(reach.any(axis=1), np.where(reach, rank[head_idx], n).argmin(axis=1),
                    dist[:, head_idx].argmin(axis=1))
    clusters = [Cluster(head=int(ids[i])) for i in head_idx]
    for node_id, j in zip(ids.tolist(), best.tolist()):
        if node_id not in heads:
            clusters[j].members.append(node_id)
    return ClusterSet(clusters=clusters), iterations


# --- candidate suppression with sink-aware sizing (EECS) ------------------------


def eecs_head_quota(alive_count: int, head_fraction: float) -> int:
    """Target head count: head_fraction of the alive nodes, at least one."""
    return max(1, math.ceil(head_fraction * alive_count))


def eecs_form_clusters(geom: Geometry, params: EecsParams, rng) -> ClusterSet:
    """Probability-p candidacy, energy-ranked suppression, cost-based joins.

    Candidates are scanned from highest residual energy down (ties: lower
    id); each survivor suppresses every weaker candidate in its earshot, and
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

    quota = eecs_head_quota(len(rows), params.head_fraction)
    radius = params.suppress_radius
    heads: set[int] = set()
    kept: list[tuple[float, float]] = []  # the heads' positions
    for (x, y), cand in zip(geom.pos[candidates].tolist(), geom.ids[candidates].tolist()):
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
    # rows are in id order, so every argmin below breaks ties on the lowest head id
    ids = geom.ids[rows]
    is_head = _head_mask(ids, heads)
    head_rows = rows[is_head]
    clusters = [Cluster(head=h) for h in ids[is_head].tolist()]

    bs_dist = geom.bs_dist[head_rows]
    d_bs_min = bs_dist.min()
    bs_span = bs_dist.max() - d_bs_min
    bs_term = (bs_dist - d_bs_min) / bs_span if bs_span > 0 else np.zeros(len(head_rows))

    dists = geom.distances(rows[~is_head], head_rows)
    # heads compete for a node only within its join radius; a node with no
    # head that close simply attaches to the nearest one
    reach = dists <= params.join_radius
    d_max = np.where(reach, dists, -np.inf).max(axis=1, keepdims=True)
    member_term = np.divide(dists, d_max, out=np.zeros_like(dists), where=d_max > 0)
    cost = params.w * member_term + (1.0 - params.w) * bs_term
    best = np.where(reach.any(axis=1), np.where(reach, cost, np.inf).argmin(axis=1),
                    dists.argmin(axis=1))
    for node_id, j in zip(ids[~is_head].tolist(), best.tolist()):
        clusters[j].members.append(node_id)
    return ClusterSet(clusters=clusters)


# --- centroid-based formation (k-means / fuzzy c-means) -------------------------


def _centroid_cluster_set(
    geom: Geometry, rows: np.ndarray, assignment: np.ndarray, centroids: np.ndarray
) -> ClusterSet:
    """Group ``rows`` by ``assignment``; each group's head has the most
    energy, ties going to the nearest to its centroid, then the lowest id."""
    ids, energy = geom.ids[rows].tolist(), geom.energy[rows].tolist()
    pos = geom.pos[rows].tolist()
    groups: list[list[int]] = [[] for _ in centroids]
    for i, j in enumerate(assignment.tolist()):
        groups[j].append(i)
    clusters: list[Cluster] = []
    for group, (cx, cy) in zip(groups, centroids.tolist()):
        if not group:
            continue
        head = min(group, key=lambda i: (-energy[i], math.hypot(pos[i][0] - cx, pos[i][1] - cy),
                                         ids[i]))
        clusters.append(Cluster(head=ids[head], members=[ids[i] for i in group if i != head]))
    return ClusterSet(clusters=clusters)


def kmeans_form_clusters(geom: Geometry, k: int, max_iter: int = 100) -> tuple[ClusterSet, int]:
    """Cluster alive nodes by position with k-means; head each cluster by energy."""
    rows = geom.alive()
    pts = geom.pos[rows]
    init = kmeans_init(pts, geom.energy[rows], k)
    part = kmeans_run(pts, init, max_iter=max_iter)
    return _centroid_cluster_set(geom, rows, part.assignment, part.centroids), part.iterations


def fuzzy_form_clusters(geom: Geometry, fcm: FcmParams) -> tuple[ClusterSet, int]:
    """Cluster alive nodes with fuzzy c-means, defuzzify, head each cluster by energy."""
    rows = geom.alive()
    if fcm.k > len(rows):
        raise ValueError(f"k={fcm.k} exceeds alive node count {len(rows)}")
    u, centroids, iterations = fcm_run(geom.pos[rows], fcm)
    return _centroid_cluster_set(geom, rows, defuzzify(u), centroids), iterations
