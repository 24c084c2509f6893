"""Cluster formation strategies.

Each strategy maps the current alive-node set (plus its parameters and the
round's randomness) to a ClusterSet: who heads a cluster and who belongs to
it, every alive node being one or the other. Strategies read positions and
distances from a ``Geometry``, built once per deployment since nodes never
move, and name each node by its row there: its deployment index.
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

from .model import NEVER_CLUSTER_HEAD, check_range, squared_distances
from .partitioning import defuzzify, fcm_run, kmeans_init, kmeans_run


@dataclass
class Cluster:
    head: int
    members: list[int] = field(default_factory=list)


@dataclass
class ClusterSet:
    """One round's partition of the alive nodes: each is a head or a member
    of exactly one cluster. Each cluster's members are in ascending row
    order, the order in which ``engine.run_round`` charges them."""

    clusters: list[Cluster] = field(default_factory=list)

    @property
    def heads(self) -> list[int]:
        return [c.head for c in self.clusters]


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


_BLOCK = 2**16  # the one element budget: heed_geometry's row blocks, the distance
# table and the join block (each built, n x n, only when it fits), FCM's batch


class Geometry:
    """A run's node state, one row per node; a node's row is its deployment index.

    ``pos`` is the (n, 2) position array and ``bs_dist`` each row's
    ``euclidean_distance`` to the (x, y) base station; nodes never move.
    ``energy`` (a scalar or one value per row) and ``rounds_since_ch`` (from
    ``NEVER_CLUSTER_HEAD``) change as the run goes; a row is alive exactly
    while its energy is > 0. HEED's neighbor mask and ranks depend on the
    alive set as well, so ``heed`` keeps them for the set it last saw.
    ``fcm`` keeps the coming rounds' FCM runs for the alive set it last saw.

    Two distances serve two purposes. Every join (LEACH's, HEED's and EECS's)
    compares ``block``'s ``np.sqrt(dx*dx + dy*dy)``. Every charge, and the
    greedy thinning of EECS's suppression and of head separation, takes the
    ledger's ``math.hypot``: ``bs_dist`` (and ``bs_d``, its Python floats)
    and the table. When n * n <= ``_BLOCK`` (n <= 256, ``whole``) each is
    built whole, once, on first use: the first read of ``table`` lists every
    pair's ``math.hypot``, row by row, and the first ``block`` builds the
    n x n join distances. ``table[h][m]`` is ``math.hypot(hx - mx, hy - my)``,
    bit-equal to the ledger's ``math.hypot(mx - hx, my - hy)``: fl(a - b) is
    -fl(b - a) and hypot is even in each argument. ``_thin`` and
    ``engine.run_round``'s ledger read it instead of computing distances. A
    deployment that reads neither, as in ``engine.sweep_iterations``, builds
    neither. Above that size ``table`` is None and each computes its distances.
    """

    def __init__(self, pos, bs: tuple[float, float], energy):
        self.pos = np.array(pos, dtype=float).reshape(-1, 2)
        self.whole = len(self.pos) ** 2 <= _BLOCK
        # for the scalar ledger: the positions and sink distances as Python floats
        self.xy = self.pos.tolist()
        bx, by = bs
        self.bs_d = [math.hypot(x - bx, y - by) for x, y in self.xy]
        self.bs_dist = np.array(self.bs_d)
        self.energy = np.full(len(self.pos), energy, dtype=float)
        self.rounds_since_ch = np.full(len(self.pos), NEVER_CLUSTER_HEAD, dtype=np.int64)
        self._heed_key: tuple | None = None
        self._heed: tuple = ()
        self._block: np.ndarray | None = None
        self._table: list[list[float]] | None = None
        self._fcm_key: tuple | None = None
        self._fcm_ahead: dict = {}  # seed -> fcm_run's result for it, under _fcm_key
        self._fcm_batch = 1

    @property
    def table(self) -> list[list[float]] | None:
        """The distance table when n <= 256, built on first read; else None.
        Row h holds ``math.hypot(hx - x, hy - y)`` for every row's (x, y)."""
        if self._table is None and self.whole:
            xy = self.xy
            self._table = [[math.hypot(hx - x, hy - y) for x, y in xy] for hx, hy in xy]
        return self._table

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """(len(rows), len(cols)) block of the join distance
        ``np.sqrt(dx*dx + dy*dy)``, the square root of ``squared_distances``:
        gathered from the n x n block when n <= 256, else computed. Each
        element is the same arithmetic on the same two positions, so both give
        the same bits, and ``block(cols, rows)`` is its transpose (fl(a - b)**2
        is fl(b - a)**2)."""
        if not self.whole:
            return np.sqrt(squared_distances(self.pos[rows], self.pos[cols]))
        if self._block is None:
            self._block = np.sqrt(squared_distances(self.pos, self.pos))
        return self._block[rows[:, None], cols]

    def alive(self) -> np.ndarray:
        """The rows of the alive nodes, ascending; ValueError if there are none."""
        rows = np.flatnonzero(self.energy > 0)
        if not len(rows):
            raise ValueError("no alive nodes")
        return rows

    def by_energy(self, rows: np.ndarray) -> np.ndarray:
        """The ascending ``rows``, most energy first; ties keep the lowest row first."""
        return rows[np.argsort(-self.energy[rows], kind="stable")]

    def fcm(self, rows: np.ndarray, params: FuzzyFormation, k: int,
            rng: np.random.Generator) -> tuple:
        """``fcm_run(pos[rows], k, [seed], ...)[0]``, bit for bit, where
        ``seed`` is the one draw this makes from ``rng``.

        The next draws from ``rng`` are the coming fuzzy rounds' seeds as long
        as nothing else draws from it. A round with no kept run for its seed
        runs it beside the next B - 1 seeds, read from a copy of ``rng``, and
        keeps their results under (rows, k, params). B doubles each time the
        kept runs are used up, capped so that fcm_run's four planes and the
        memberships it returns, five k x n arrays per run, hold at most
        ``_BLOCK`` elements. It restarts at 1 on a miss: a changed alive set
        or k (a death), or a seed the batch did not foresee."""
        seed = int(rng.integers(0, 2**63))
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

    def heed(self, rows: np.ndarray, radius: float) -> tuple:
        """``heed_geometry``'s mask over ``rows`` and each row's rank, its place
        in (cost, row) order, as (in_range, rank), rebuilt only when the alive
        rows or the radius change. The arrays are shared between calls and
        read-only."""
        key = (radius, rows.tobytes())
        if key != self._heed_key:
            in_range, cost = heed_geometry(self.pos[rows], radius)
            rank = np.empty(len(rows), dtype=int)
            rank[np.lexsort((rows, cost))] = np.arange(len(rows))
            in_range.flags.writeable = rank.flags.writeable = False
            self._heed_key, self._heed = key, (in_range, rank)
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


def leach_elect(geom: Geometry, params: LeachParams, r: int, rng, rows=None) -> set[int]:
    """Per-node threshold election; guarantees at least one head via fallback.

    A node is in the election set iff it has not served since the current
    rotation period began. Periods are aligned to multiples of ceil(1/p):
    when ``r mod ceil(1/p)`` wraps to 0 every node becomes eligible again,
    which is what keeps the threshold formula's expected head count constant
    over the period. Every alive node draws once (in row order) so the random
    stream does not depend on eligibility. If nobody self-elects, the alive
    node with the most energy (ties: lowest row) stands in as head for the
    round. Returns the heads' rows. ``rows``, if given, are ``geom.alive()``.
    """
    rows = geom.alive() if rows is None else rows
    t = leach_threshold(params.p, r)
    period_pos = r % rotation_period(params.p)
    draws = rng.random(len(rows))
    heads = rows[(draws < t) & (geom.rounds_since_ch[rows] >= period_pos)]
    if not len(heads):
        heads = geom.by_energy(rows)[:1]
    return set(heads.tolist())


def _head_mask(n: int, rows: np.ndarray, heads: set[int]) -> np.ndarray:
    """Mask over ``rows``, some of the n rows, that marks ``heads``; a head
    missing from ``rows`` (dead, negative or >= n) raises ValueError, naming
    the lowest such head."""
    mark = np.zeros(n, dtype=bool)
    if heads and 0 <= min(heads) and max(heads) < n:
        mark[np.fromiter(heads, np.intp, len(heads))] = True
    mask = mark[rows]
    if np.count_nonzero(mask) != len(heads):
        listed = set(rows.tolist())
        raise ValueError(f"cluster head {min(h for h in heads if h not in listed)} "
                         "is not an alive node")
    return mask


def _join(heads: np.ndarray, members: np.ndarray, choice: np.ndarray) -> ClusterSet:
    """One cluster per row of ``heads``; each row of ``members`` joins
    ``heads[choice[i]]``, so a cluster keeps its members in ``members``' order."""
    lists: list[list[int]] = [[] for _ in range(len(heads))]
    for row, j in zip(members.tolist(), choice.tolist()):
        lists[j].append(row)
    return ClusterSet(clusters=[Cluster(h, m) for h, m in zip(heads.tolist(), lists)])


def form_clusters_nearest(geom: Geometry, ch_rows: set[int], rows=None) -> ClusterSet:
    """Join each non-head alive node (of ``rows`` if given) to its nearest head, lowest on ties."""
    if not ch_rows:
        raise ValueError("ch_rows must not be empty")
    rows = geom.alive() if rows is None else rows
    is_head = _head_mask(len(geom.pos), rows, ch_rows)
    # rows are ascending, so argmin's first minimum is the lowest head row
    heads, members = rows[is_head], rows[~is_head]
    return _join(heads, members, geom.block(heads, members).argmin(axis=0))


def _thin(geom: Geometry, order: np.ndarray, radius: float, quota: int) -> set[int]:
    """Greedy thinning: take the rows of ``order`` in turn, drop any closer
    than ``radius`` to a row already kept, and stop once ``quota`` are kept.
    The distances come from ``geom.table`` when it exists, else from
    ``math.hypot`` (``euclidean_distance``, inlined), the expression that
    built the table's row of ``row``."""
    table, xy = geom.table, geom.xy
    kept: list[int] = []
    kept_xy: list[list[float]] = []  # their positions, when there is no table
    for row in order.tolist():
        if len(kept) >= quota:
            break
        if table is not None:
            d = table[row]
            for k in kept:
                if d[k] < radius:
                    break
            else:
                kept.append(row)
            continue
        x, y = xy[row]
        for kx, ky in kept_xy:
            if math.hypot(x - kx, y - ky) < radius:
                break
        else:
            kept.append(row)
            kept_xy.append(xy[row])
    return set(kept)


def enforce_ch_separation(geom: Geometry, ch_rows: set[int], min_dist: float) -> set[int]:
    """Greedy thinning: keep heads in descending-energy order (ties: lowest
    row), drop any within min_dist of an already kept head. Always keeps at
    least one."""
    if not ch_rows:
        raise ValueError("ch_rows must not be empty")
    return _thin(geom, geom.by_energy(np.array(sorted(ch_rows), dtype=int)), min_dist,
                 len(ch_rows))


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


def heed_geometry(pos: np.ndarray, radius: float) -> tuple:
    """The within-``radius`` neighbor mask and each candidate's attachment
    cost, for the (n, 2) positions ``pos``.

    The cost is the mean squared distance to the candidate's neighbors, or
    radius^2 without neighbors. Lower is better; ties go to the lower row.
    Built a block of ``_BLOCK`` distances' rows at a time from
    ``squared_distances``, with no square root: a pair is in range where
    d2 <= radius * radius, and each cost row is still summed over its whole
    row, in numpy's pairwise order, of d2 times the mask (the +0.0 or d2 of
    an ``np.where``).
    """
    n = len(pos)
    in_range = np.empty((n, n), dtype=bool)
    total = np.empty(n)
    step, r2 = max(1, _BLOCK // max(n, 1)), radius * radius
    for s in range(0, n, step):
        sq = squared_distances(pos[s:s + step], pos)
        block = np.less_equal(sq, r2, out=in_range[s:s + step])
        np.fill_diagonal(block[:, s:], False)  # no node is its own neighbor
        np.multiply(sq, block, out=sq)
        sq.sum(axis=1, out=total[s:s + step])
    neighbor_counts = in_range.sum(axis=1)
    cost = np.where(neighbor_counts > 0, total / np.maximum(neighbor_counts, 1), r2)
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
    in_range, rank = geom.heed(rows, params.cluster_radius)

    energy = geom.energy[rows]
    prob = heed_announce_prob(params, energy, float(energy.max()))

    waves = min(params.announce_waves, params.iteration_bound)
    # draws lie in [0, 1), so a probability of 1 always announces; in the
    # first wave no candidate is in anyone's earshot yet
    announced = rng.random(n) < prob
    iterations = 1
    while iterations < waves:
        iterations += 1
        # only nodes with no candidate in earshot roll an announcement;
        # everyone else defers, which is what thins the candidate set
        covered = announced | in_range[announced].any(axis=0)
        if covered.all():
            break
        prob = np.minimum(prob * 2.0, 1.0)
        announced |= ~covered & (rng.random(n) < prob)
    if not announced.any():
        announced[rows.searchsorted(geom.by_energy(rows)[0])] = True  # the richest stands in

    # a candidate settles iff its rank is below that of every candidate it hears
    cand = np.flatnonzero(announced)
    rival = np.where(in_range[cand] & announced, rank, n).min(axis=1)
    head_idx = cand[rank[cand] < rival]
    if params.ch_separation > 0:
        heads = enforce_ch_separation(geom, set(rows[head_idx].tolist()), params.ch_separation)
        head_idx = np.searchsorted(rows, sorted(heads))

    # the lowest-rank head in range, else the nearest head (ties: lowest row,
    # as head_idx is ascending); only the uncovered nodes need distances
    reach = in_range[head_idx]  # (heads, n)
    best = np.where(reach, rank[head_idx, None], n).argmin(axis=0)
    far = np.flatnonzero(~reach.any(axis=0))
    best[far] = geom.block(rows[head_idx], rows[far]).argmin(axis=0)
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
    longer uplink. The join compares ``Geometry.block``'s distances; the
    suppression scan, like the ledger, takes ``math.hypot``'s.
    """
    rows = geom.alive()
    candidates = geom.by_energy(rows[rng.random(len(rows)) < params.p])
    if not len(candidates):
        candidates = geom.by_energy(rows)[:1]

    # a weaker candidate at exactly suppress_radius yields as well, so the
    # scan drops those closer than the next float above it
    heads = _thin(geom, candidates, math.nextafter(params.suppress_radius, math.inf),
                  head_quota(len(rows), params.head_fraction))
    if params.ch_separation > 0:
        heads = enforce_ch_separation(geom, heads, params.ch_separation)
    # rows are ascending, so every argmin below breaks ties on the lowest head row
    is_head = _head_mask(len(geom.pos), rows, heads)
    head_rows, members = rows[is_head], rows[~is_head]

    bs_dist = geom.bs_dist[head_rows]
    listed = bs_dist.tolist()  # a short list, where Python's min and max are cheaper
    d_bs_min = min(listed)
    bs_span = max(listed) - d_bs_min
    bs_term = (bs_dist - d_bs_min) / bs_span if bs_span > 0 else np.zeros(len(head_rows))

    dists = geom.block(head_rows, members)
    # heads compete for a node only within its join radius; a node with no
    # head that close simply attaches to the nearest one
    reach = dists <= params.join_radius
    # the largest distance in reach, 0 with none (fmax skips the NaN of inf * 0)
    d_max = np.fmax.reduce(np.multiply(dists, reach), axis=0)
    # rare: no head in reach, or every one at distance 0, whose member term
    # is 0; dividing by 1 leaves those 0s as they are
    rare = np.flatnonzero(~(d_max > 0))
    d_max[rare] = 1.0
    keys = params.w * (dists / d_max) + (1.0 - params.w) * bs_term[:, None]
    # a cost in reach is at most 1, so no head out of reach, at 2 or more, wins
    keys += ~reach * 2.0
    best = keys.argmin(axis=0)
    if len(rare):
        lost = rare[~reach[:, rare].any(axis=0)]
        best[lost] = dists[:, lost].argmin(axis=0)
    return _join(head_rows, members, best)


# --- centroid-based formation (k-means / fuzzy c-means) -------------------------


def _centroid_cluster_set(
    geom: Geometry, rows: np.ndarray, assignment: np.ndarray, centroids: np.ndarray
) -> ClusterSet:
    """Group ``rows`` by ``assignment``; each group's head has the most
    energy, ties going to the nearest to its centroid, then the lowest row."""
    energy = geom.energy[rows]
    # indices by group, the richest and then the lowest first; rows by group
    order = np.lexsort((-energy, assignment)).tolist()
    grouped = rows[np.argsort(assignment, kind="stable")].tolist()
    ends = np.bincount(assignment, minlength=len(centroids)).cumsum().tolist()
    row, energy, xy = rows.tolist(), energy.tolist(), geom.xy
    clusters: list[Cluster] = []
    for start, end, (cx, cy) in zip([0, *ends], ends, centroids.tolist()):
        if start == end:
            continue
        head = order[start]
        if end - start > 1 and energy[order[start + 1]] == (top := energy[head]):  # a tie
            head = min((math.hypot(xy[row[i]][0] - cx, xy[row[i]][1] - cy), i)
                       for i in order[start:end] if energy[i] == top)[1]
        members = grouped[start:end]
        members.remove(row[head])
        clusters.append(Cluster(head=row[head], members=members))
    return ClusterSet(clusters=clusters)


def kmeans_form_clusters(geom: Geometry, k: int, max_iter: int = 100) -> tuple[ClusterSet, int]:
    """Cluster alive nodes by position with k-means; head each cluster by energy."""
    rows = geom.alive()
    pts = geom.pos[rows]
    init = kmeans_init(pts, geom.energy[rows], k)
    assignment, centroids, iterations = kmeans_run(pts, init, max_iter=max_iter)
    return _centroid_cluster_set(geom, rows, assignment, centroids), iterations


def fuzzy_form_clusters(geom: Geometry, params: FuzzyFormation, k: int,
                        rng: np.random.Generator) -> tuple[ClusterSet, int]:
    """Cluster alive nodes into k with fuzzy c-means seeded by one draw from
    ``rng``, defuzzify, head each cluster by energy; ``params.k`` is not
    read. ``Geometry.fcm`` draws the seed and looks ahead in ``rng``."""
    rows = geom.alive()
    if k > len(rows):
        raise ValueError(f"k={k} exceeds alive node count {len(rows)}")
    u, centroids, iterations = geom.fcm(rows, params, k, rng)
    return _centroid_cluster_set(geom, rows, defuzzify(u), centroids), iterations
