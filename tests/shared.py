"""What the test modules share, in one place that pytest does not collect.

The scalar oracles are the nearest-head join, the LEACH election, the EECS
and HEED formations and the per-charge ledger as they were written before
they moved to arrays. The array code must give the same ClusterSet, the same
random stream and the same floating-point values, compared with ``==``.

The oracles name nodes by ids that are gapped and shuffled (``OracleNode``).
A test builds the ``Geometry`` from the nodes in id order and maps the rows
of the results back to ids through that order (``geometry_of``, ``ids_of``),
so the oracles' lowest-id tie-breaks check the formations' lowest-row ones.
"""

import collections
import math
import sys
import types
from dataclasses import dataclass

import numpy as np

import wsnsim.engine
from wsnsim import protocols
from wsnsim.engine import RoundReport, SimulationComplete, _form_clusters
from wsnsim.model import (
    NEVER_CLUSTER_HEAD,
    NetworkConfig,
    RadioModel,
    aggregate_energy,
    euclidean_distance,
    rx_energy,
    tx_energy,
)
from wsnsim.protocols import (
    Cluster,
    ClusterSet,
    Geometry,
    head_quota,
    heed_announce_prob,
    leach_threshold,
    rotation_period,
)

BS = (50.0, 175.0)

# --- nodes as the oracles see them -----------------------------------------------


@dataclass
class OracleNode:
    """A node as the oracles see it: an id of its own and an (x, y) position."""

    id: int
    pos: tuple[float, float]
    energy: float
    rounds_since_ch: int = NEVER_CLUSTER_HEAD


def geometry_of(nodes, bs=BS):
    """The ``Geometry`` of ``nodes``, one row per node in id order, and the
    ids in that order: row r holds the node whose id is ``ids[r]``."""
    nodes = sorted(nodes, key=lambda n: n.id)
    geom = Geometry([n.pos for n in nodes], bs, [n.energy for n in nodes])
    geom.rounds_since_ch[:] = [n.rounds_since_ch for n in nodes]
    return geom, [n.id for n in nodes]


def ids_of(result, ids):
    """A formation's ``result`` with every row replaced by its node's id: a
    ClusterSet, HEED's (ClusterSet, iterations) or a set of head rows."""
    if isinstance(result, tuple):
        return ids_of(result[0], ids), result[1]
    if not isinstance(result, ClusterSet):
        return {ids[r] for r in result}
    return ClusterSet([Cluster(ids[c.head], [ids[m] for m in c.members]) for c in result.clusters])


def alive_of(nodes):
    return [n for n in nodes if n.energy > 0]


def in_step(seed, ids, formation, oracle):
    """Runs ``formation`` and its scalar ``oracle``, each given its own
    generator seeded with ``seed``; asserts that the formation's result, read
    in ``ids``, is the oracle's, and that the two streams stay in step.
    Returns the formation's result."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = formation(a)
    assert ids_of(got, ids) == oracle(b)
    assert a.random() == b.random()
    return got


# --- the formation oracles -------------------------------------------------------


def oracle_leach_elect(nodes, params, r, rng):
    alive = alive_of(nodes)
    heads = set()
    for node in sorted(alive, key=lambda n: n.id):
        draw = float(rng.random())
        # eligible iff the node has not served since the period began
        eligible = node.rounds_since_ch >= r % rotation_period(params.p)
        if eligible and draw < leach_threshold(params.p, r):
            heads.add(node.id)
    if not heads:
        heads.add(min(alive, key=lambda n: (-n.energy, n.id)).id)
    return heads


def join_d2(a, b):
    """What the joins compare between two (x, y) points: the squared distance
    ``dx*dx + dy*dy``, whose ``math.sqrt`` only EECS's cost takes. The
    suppression and separation scans compare it too; only the charges take
    ``euclidean_distance``."""
    dx, dy = a[0] - b[0], a[1] - b[1]
    return dx * dx + dy * dy


def oracle_form_clusters_nearest(nodes, ch_ids):
    alive = alive_of(nodes)
    by_id = {n.id: n for n in alive}
    heads = sorted(ch_ids)
    clusters = {h: Cluster(head=h) for h in heads}
    # members in id order, as every formation lists them
    for node in sorted(alive, key=lambda n: n.id):
        if node.id in ch_ids:
            continue
        best = min(heads, key=lambda h: (join_d2(node.pos, by_id[h].pos), h))
        clusters[best].members.append(node.id)
    return ClusterSet(clusters=[clusters[h] for h in heads])


def heed_cost(candidate, nodes, radius):
    """Mean squared distance from ``candidate`` to its alive neighbors, those
    whose ``dx*dx + dy*dy`` is within ``radius * radius``, as in the array
    code; radius^2 for a candidate without neighbors."""
    others = [join_d2(candidate.pos, other.pos) for other in nodes
              if other.energy > 0 and other.id != candidate.id]
    sq = [d2 for d2 in others if d2 <= radius * radius]
    return sum(sq) / len(sq) if sq else radius * radius


def oracle_enforce_ch_separation(ch_ids, nodes, min_dist):
    by_id = {n.id: n for n in nodes}
    order = sorted(ch_ids, key=lambda i: (-by_id[i].energy, i))
    kept = []
    for cand in order:
        if all(join_d2(by_id[cand].pos, by_id[k].pos) >= min_dist * min_dist for k in kept):
            kept.append(cand)
    return set(kept)


def oracle_heed_geometry(pos, radius):
    """HEED's squared distances, neighbor mask and costs from whole n x n
    arrays; the squared distances order the fallback's nearest heads."""
    diff = pos[:, None, :] - pos[None, :, :]
    sq = (diff * diff).sum(axis=2)
    r2 = radius * radius
    in_range = sq <= r2
    np.fill_diagonal(in_range, False)
    neighbor_counts = in_range.sum(axis=1)
    cost = np.where(
        neighbor_counts > 0,
        (sq * in_range).sum(axis=1) / np.maximum(neighbor_counts, 1),
        r2,
    )
    return sq, in_range, cost


def oracle_heed_form_clusters(nodes, params, rng):
    alive = sorted(alive_of(nodes), key=lambda n: n.id)
    n = len(alive)
    pos = np.array([a.pos for a in alive], dtype=float)
    ids = np.array([a.id for a in alive])
    energy = np.array([a.energy for a in alive])
    d2, in_range, cost = oracle_heed_geometry(pos, params.cluster_radius)
    prob = heed_announce_prob(params, energy, float(energy.max()))
    announced = np.zeros(n, dtype=bool)
    rank = np.empty(n, dtype=int)
    rank[np.lexsort((ids, cost))] = np.arange(n)
    waves = min(params.announce_waves, params.iteration_bound)
    iterations = 0
    while iterations < waves:
        iterations += 1
        covered = announced | (in_range & announced[None, :]).any(axis=1)
        if covered.all():
            break
        draws = rng.random(n)
        announced |= ~covered & ((prob >= 1.0) | (draws < prob))
        prob = np.minimum(prob * 2.0, 1.0)
    if not announced.any():
        announced[int(np.lexsort((ids, -energy))[0])] = True

    heard = in_range & announced[None, :]
    heard |= np.diag(announced)
    final = np.zeros(n, dtype=bool)
    for i in np.flatnonzero(announced):
        keys = np.where(heard[i], rank, n)
        if int(keys.argmin()) == i:
            final[i] = True
    head_idx = np.flatnonzero(final)
    heads = {int(ids[i]) for i in head_idx}
    if params.ch_separation > 0:
        heads = oracle_enforce_ch_separation(heads, alive, params.ch_separation)
        head_idx = np.flatnonzero(np.isin(ids, sorted(heads)))

    clusters = {int(ids[i]): Cluster(head=int(ids[i])) for i in head_idx}
    for i in range(n):
        if int(ids[i]) in heads:
            continue
        choices = [j for j in head_idx if in_range[i, j]]
        if choices:
            best = min(choices, key=lambda j: (cost[j], ids[j]))
        else:
            best = min(head_idx, key=lambda j: (d2[i, j], ids[j]))
        clusters[int(ids[best])].members.append(int(ids[i]))
    return ClusterSet(clusters=[clusters[h] for h in sorted(clusters)]), iterations


def oracle_eecs_form_clusters(nodes, bs, params, rng):
    alive = sorted(alive_of(nodes), key=lambda n: n.id)
    draws = {n.id: float(rng.random()) for n in alive}
    candidates = [n for n in alive if draws[n.id] < params.p]
    if not candidates:
        candidates = [min(alive, key=lambda n: (-n.energy, n.id))]
    quota = head_quota(len(alive), params.head_fraction)
    kept, r = [], params.suppress_radius
    for cand in sorted(candidates, key=lambda n: (-n.energy, n.id)):
        if len(kept) >= quota:
            break
        if all(join_d2(cand.pos, o.pos) > r * r for o in kept):
            kept.append(cand)
    heads = {n.id for n in kept}
    if params.ch_separation > 0:
        heads = oracle_enforce_ch_separation(heads, alive, params.ch_separation)
        kept = [n for n in kept if n.id in heads]

    bs_dist = {n.id: euclidean_distance(n.pos, bs) for n in kept}
    d_bs_min = min(bs_dist.values())
    bs_span = max(bs_dist.values()) - d_bs_min
    clusters = {h: Cluster(head=h) for h in sorted(heads)}
    for node in alive:
        if node.id in heads:
            continue
        d2 = {h.id: join_d2(node.pos, h.pos) for h in kept}
        reachable = [h for h in kept if d2[h.id] <= params.join_radius * params.join_radius]
        if not reachable:
            best = min(kept, key=lambda h: (d2[h.id], h.id))
        else:
            dists = {i: math.sqrt(v) for i, v in d2.items()}
            d_max = max(dists[h.id] for h in reachable)

            def cost(h):
                member_term = dists[h.id] / d_max if d_max > 0 else 0.0
                bs_term = (bs_dist[h.id] - d_bs_min) / bs_span if bs_span > 0 else 0.0
                return params.w * member_term + (1.0 - params.w) * bs_term

            best = min(reachable, key=lambda h: (cost(h), h.id))
        clusters[best.id].members.append(node.id)
    return ClusterSet(clusters=[clusters[h] for h in sorted(clusters)])


# --- the per-charge ledger oracle ------------------------------------------------


class Ledger:
    def __init__(self, deaths):
        self.charged = 0.0
        self.clamped = 0.0
        self.deaths = deaths  # the phase of each fatal charge

    def charge(self, node, cost, phase):
        self.charged += cost
        shortfall = cost - node.energy
        if shortfall > 0:
            self.clamped += shortfall
        remaining = node.energy - cost  # clamped at 0, where the node dies
        node.energy = remaining if remaining > 0 else 0.0
        if node.energy == 0.0:  # only alive nodes are charged
            self.deaths.append(phase)


def oracle_run_round(state, nodes, protocol, deaths):
    """One round charged to ``nodes``, whose ids are the rows of ``state``'s
    geometry, one charge at a time; ``state`` only forms the clusters, from their energies
    and counters. The phase of each charge that kills is appended to
    ``deaths``."""
    alive_before = len(alive_of(nodes))
    if alive_before == 0:
        raise SimulationComplete(f"no alive nodes at round {state.round}")
    cfg = state.config
    radio = cfg.radio
    by_id = {n.id: n for n in nodes}
    state.geometry.energy[:] = [n.energy for n in nodes]
    state.geometry.rounds_since_ch[:] = [n.rounds_since_ch for n in nodes]
    cluster_set, clustering_iterations = _form_clusters(state, protocol, alive_before)
    head_ids = set(cluster_set.heads)
    ledger = Ledger(deaths)

    advert_cost = tx_energy(radio, radio.header_bits, cfg.diagonal)
    delivered_adverts = set()
    for head_id in sorted(head_ids):
        head = by_id[head_id]
        ledger.charge(head, advert_cost, "advert")
        if head.energy > 0:
            delivered_adverts.add(head_id)
    n_adverts = len(delivered_adverts)
    for node in sorted(nodes, key=lambda n: n.id):
        if node.energy <= 0:
            continue
        heard = n_adverts - (1 if node.id in delivered_adverts else 0)
        if heard > 0:
            ledger.charge(node, heard * rx_energy(radio, radio.header_bits), "advert receive")

    for cluster in cluster_set.clusters:
        head = by_id[cluster.head]
        for member_id in sorted(cluster.members):
            member = by_id[member_id]
            if member.energy <= 0:
                continue
            ledger.charge(member, tx_energy(
                radio, radio.header_bits, euclidean_distance(member.pos, head.pos)), "join send")
            if member.energy > 0 and head.energy > 0:
                ledger.charge(head, rx_energy(radio, radio.header_bits), "join receive")

    delivered = 0
    for cluster in cluster_set.clusters:
        head = by_id[cluster.head]
        received = 0
        for member_id in sorted(cluster.members):
            member = by_id[member_id]
            if member.energy <= 0:
                continue
            ledger.charge(member, tx_energy(
                radio, radio.data_bits, euclidean_distance(member.pos, head.pos)), "data send")
            if member.energy > 0 and head.energy > 0:
                ledger.charge(head, rx_energy(radio, radio.data_bits), "data receive")
                if head.energy > 0:
                    received += 1
        if head.energy > 0:
            ledger.charge(head, aggregate_energy(radio, radio.data_bits, received + 1),
                          "aggregation")
        if head.energy > 0:
            ledger.charge(head, tx_energy(
                radio, radio.data_bits, euclidean_distance(head.pos, cfg.bs_pos)), "uplink")
            if head.energy > 0:
                delivered += 1

    for node in nodes:
        node.rounds_since_ch = 0 if node.id in head_ids else node.rounds_since_ch + 1
    state.bs_messages += delivered
    report = RoundReport(
        round=state.round, alive_before=alive_before, alive_after=len(alive_of(nodes)),
        ch_count=len(head_ids), bs_messages_delivered=delivered,
        clustering_iterations=clustering_iterations,
        energy_charged=ledger.charged, energy_clamped=ledger.clamped,
    )
    state.round += 1
    return state, report


# --- networks where rounding decides ---------------------------------------------

TIE_NETWORKS = [(seed, kind) for seed in range(15)
                for kind in ("grid", "coincident", "bisector", "tiny")]


def tie_network(rng, kind, n_low, n_high, drawn_energy=False):
    """``n_low`` to ``n_high`` alive nodes whose join distances tie or nearly
    tie: exact ties on an integer grid, coincident nodes, nodes on the
    bisectors of node pairs (the ends come first; rounding decides the nearer
    one), or a 1e-160 m arena where every d2 is subnormal or 0 (one that
    ``NetworkConfig`` refuses). The energies are 1.0, or drawn from [0.01, 1).
    Returns the nodes and the arena's span."""
    n = int(rng.integers(n_low, n_high))
    if kind == "grid":
        xy = rng.integers(0, 6, (n, 2)) * 1.0
    elif kind == "coincident":
        xy = rng.uniform(0, 100, (max(1, n // 4), 2))[rng.integers(0, max(1, n // 4), n)]
    elif kind == "bisector":
        ends = rng.uniform(0, 100, (max(2, n // 4), 2))
        a, b = ends[rng.integers(0, len(ends), (2, n - len(ends)))]
        mid, normal = (a + b) / 2, (b - a)[:, ::-1] * [-1.0, 1.0]
        xy = np.vstack([ends, mid + rng.uniform(-2, 2, (len(mid), 1)) * normal])
    else:
        xy = rng.uniform(0, 1e-160, (n, 2))
    ids = rng.permutation(3 * n)[:n]
    energy = rng.uniform(0.01, 1.0, n).tolist() if drawn_energy else [1.0] * n
    nodes = [OracleNode(id=int(i), pos=tuple(p), energy=e)
             for i, p, e in zip(ids, xy.tolist(), energy)]
    return nodes, {"grid": 5.0, "tiny": 1e-160}.get(kind, 100.0)


# --- counting shims --------------------------------------------------------------


def count_hypot(monkeypatch):
    """Make ``math.hypot``, as ``protocols`` and ``engine`` call it, count its
    calls by the function that makes them (a comprehension's by the function
    around it): ``__init__`` for the sink distances, ``table`` and
    ``run_round``'s ledger past the table."""
    calls = collections.Counter()

    def hypot(*args):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):
            frame = frame.f_back
        calls[frame.f_code.co_name] += 1
        return math.hypot(*args)

    shim = types.SimpleNamespace(**{**vars(math), "hypot": hypot})
    monkeypatch.setattr(wsnsim.engine, "math", shim)
    monkeypatch.setattr(protocols, "math", shim)
    return calls


def count_calls(monkeypatch, module, name):
    """Make ``module.name`` count its calls."""
    counted = [0]
    fn = getattr(module, name)

    def counting(*args):
        counted[0] += 1
        return fn(*args)

    monkeypatch.setattr(module, name, counting)
    return counted


# --- cluster sets, lone-node rounds and 2-partitions -----------------------------


def validate(cluster_set, alive_rows: set[int]) -> None:
    """Check the exactly-once partition invariant over the alive nodes."""
    seen: list[int] = []
    for c in cluster_set.clusters:
        if c.head in c.members:
            raise ValueError(f"head {c.head} listed among its own members")
        seen.append(c.head)
        seen.extend(c.members)
    if len(seen) != len(set(seen)):
        raise ValueError("a node appears more than once in the cluster set")
    if set(seen) != alive_rows:
        raise ValueError("cluster set does not cover the alive nodes exactly")


# powers of two make every charge and subtraction exact in binary floating
# point, so the death-at-exactly-zero boundary is deterministic
EXACT_RADIO = RadioModel(e_elec=2.0**-20, e_amp=2.0**-34, e_da=2.0**-22,
                         data_bits=4096, header_bits=256)


def one_node_config(energy, radio=EXACT_RADIO):
    # arena diagonal hypot(60, 80) = 100; the BS is 100 m from the node at the origin
    return NetworkConfig(n_nodes=1, arena=(60.0, 80.0), bs_pos=(0.0, 100.0),
                         initial_energy=energy, radio=radio, seed=0)


def one_node_round_cost(radio=EXACT_RADIO):
    """A lone node's round: it advertises at the arena diagonal, aggregates
    its own signal and uplinks it to the BS, both 100 m away."""
    return (tx_energy(radio, radio.header_bits, 100.0)
            + aggregate_energy(radio, radio.data_bits, 1)
            + tx_energy(radio, radio.data_bits, 100.0))


def hard_objective(points: np.ndarray, assignment: np.ndarray) -> float:
    obj = 0.0
    for j in np.unique(assignment):
        part = points[assignment == j]
        obj += ((part - part.mean(axis=0)) ** 2).sum()
    return float(obj)


def best_split(points: np.ndarray):
    """The best 2-partition of ``points`` (n <= 12) by enumeration: its
    objective and the mask of one half. Each split is counted once: the last
    point is never in the masked half."""
    n = len(points)
    masks = ((np.arange(1, 2 ** (n - 1))[:, None] >> np.arange(n)) & 1).astype(bool)
    obj = np.zeros(len(masks))
    for half in (masks, ~masks):
        weight = half[:, :, None]
        centroid = (weight * points).sum(axis=1) / half.sum(axis=1)[:, None]
        obj += (weight * (points - centroid[:, None]) ** 2).sum(axis=(1, 2))
    best = int(obj.argmin())
    return float(obj[best]), masks[best]


# --- the golden CLI cases --------------------------------------------------------

ALL = ["--protocol", "leach", "--protocol", "heed", "--protocol", "eecs",
       "--protocol", "kmeans", "--protocol", "fuzzy"]
SEPARATED = ["--protocol", "leach", "--protocol", "heed", "--protocol", "eecs",
             "--ch-separation", "35"]

# case id -> wsnsim argv (the output directory is appended)
CASES = {
    # full lifetimes on the default scenario, one per protocol
    "run-leach-seed2": ["run", "--protocol", "leach", "--seed", "2"],
    "run-heed-seed2": ["run", "--protocol", "heed", "--seed", "2"],
    "run-eecs-seed2": ["run", "--protocol", "eecs", "--seed", "2"],
    "run-kmeans-seed2": ["run", "--protocol", "kmeans", "--seed", "2"],
    "run-fuzzy-seed2": ["run", "--protocol", "fuzzy", "--seed", "2"],
    # fixed k, another fuzzifier, two seeds and thinned series
    "run-centroid-k7": ["run", "--protocol", "kmeans", "--protocol", "fuzzy",
                        "--seed", "4", "--seed", "9", "--k", "7", "--fcm-m", "1.5",
                        "--rounds", "150", "--thin", "10"],
    # full lifetimes at k = 8: FCM and k-means lay their buffers along the
    # centroids, until fewer than 8 nodes are alive and k falls to 2
    "run-centroid-k8": ["run", "--protocol", "kmeans", "--protocol", "fuzzy",
                        "--k", "8", "--seed", "5"],
    # full lifetimes at n = 300, past the size rule of Geometry's distance
    # table and join block (n * n <= _BLOCK): each round's joins computing
    # their Geometry.block over heads and members, the ledger's math.hypot
    # and HEED's geometry in two row blocks, through deaths; recorded from
    # the code before the table
    "run-leach-n300": ["run", "--protocol", "leach", "--nodes", "300", "--seed", "1"],
    "run-heed-n300": ["run", "--protocol", "heed", "--nodes", "300", "--seed", "1"],
    "run-eecs-n300": ["run", "--protocol", "eecs", "--nodes", "300", "--seed", "1"],
    # k-means at k = 15 over a full lifetime at n = 300, its moved-centroid
    # updates and k falling as nodes die; recorded before the orphan ledger
    # and EECS's head store were deleted
    "run-kmeans-n300": ["run", "--protocol", "kmeans", "--nodes", "300", "--seed", "1"],
    # head separation at 35 m, which thins the heads in most rounds, over
    # full lifetimes at n = 100 and at n = 300; recorded from the code
    # before the thinning compared squared distances
    "run-separation-seed2": ["run", *SEPARATED, "--seed", "2"],
    "run-separation-n300": ["run", *SEPARATED, "--nodes", "300", "--seed", "1"],
    "run-table1-seed3": ["run", "--preset", "table1", *ALL, "--seed", "3"],
    "compare-trio": ["compare", "--protocol", "leach", "--protocol", "heed",
                     "--protocol", "eecs", "--seed", "1", "--seed", "3",
                     "--rounds", "500"],
}
