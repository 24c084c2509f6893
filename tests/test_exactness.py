"""Bit-for-bit equality of the array code with the scalar code it replaced.

The scalar versions below are the oracles: the nearest-head join, the LEACH
election, the EECS and HEED formations and the per-charge ledger as they
were written before they moved to arrays. Each new version must give the
same ClusterSet, the same random stream and the same floating-point values,
compared with ``==``.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wsnsim.engine import (
    EecsParams,
    FuzzyFormation,
    HeedParams,
    KmeansFormation,
    LeachParams,
    RoundReport,
    SimState,
    SimulationComplete,
    _form_clusters,
    run_round,
)
from wsnsim.model import (
    NetworkConfig,
    Node,
    Position,
    aggregate_energy,
    euclidean_distance,
    hypot,
    rx_energy,
    tx_energy,
)
from wsnsim.protocols import (
    Cluster,
    ClusterSet,
    Geometry,
    eecs_form_clusters,
    eecs_head_quota,
    enforce_ch_separation,
    form_clusters_nearest,
    heed_announce_prob,
    heed_form_clusters,
    heed_geometry,
    leach_elect,
    leach_threshold,
    rotation_period,
)

# --- math.hypot ----------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                           1e-310, 3.0, 4.0, 1e308, -1.7976931348623157e308])
coordinate = finite | special | st.floats(-1e-300, 1e-300) | st.floats(-200.0, 200.0)


def math_hypot(dx, dy):
    with np.errstate(over="ignore"):  # math.hypot overflows to inf silently
        return np.vectorize(math.hypot, otypes=[float])(dx, dy)


class TestHypot:
    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_equals_math_hypot_on_broadcast_arrays(self, data):
        shapes = data.draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3,
                                                              max_side=4))
        dx = data.draw(hnp.arrays(float, shapes.input_shapes[0], elements=coordinate))
        dy = data.draw(hnp.arrays(float, shapes.input_shapes[1], elements=coordinate))
        with np.errstate(over="ignore"):
            got = hypot(dx, dy)
        expected = math_hypot(dx, dy)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    @settings(max_examples=500, deadline=None)
    @given(coordinate, coordinate)
    def test_equals_math_hypot_on_scalars(self, dx, dy):
        with np.errstate(over="ignore"):
            assert float(hypot(dx, dy)) == math.hypot(dx, dy)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 100.0, 1e5])
    def test_random_pairs_at_every_scale(self, scale):
        rng = np.random.default_rng(int(scale * 1000))
        dx = rng.uniform(-scale, scale, 100_000)
        dy = rng.uniform(-scale, scale, 100_000)
        dx[:100] = 0.0
        assert np.array_equal(hypot(dx, dy), math_hypot(dx, dy))

    def test_subnormal_and_zero_pairs(self):
        rng = np.random.default_rng(5)
        # whole multiples of the smallest subnormal, zeros among them
        dx = rng.integers(-10**6, 10**6, 20_000) * 5e-324
        dy = rng.integers(-10**6, 10**6, 20_000) * 5e-324
        assert np.array_equal(hypot(dx, dy), math_hypot(dx, dy))
        # below 2**-1023 CPython divides by the larger magnitude; just under
        # 2**-1024 the subnormals keep enough bits for that branch's rounding
        dx = rng.uniform(-1, 1, 20_000) * 2.0**-1024
        dy = rng.uniform(-1, 1, 20_000) * dx
        assert np.array_equal(hypot(dx, dy), math_hypot(dx, dy))

    def test_np_hypot_is_not_exact(self):
        # the reason for the helper: numpy's own hypot rounds differently
        rng = np.random.default_rng(0)
        dx, dy = rng.uniform(-100, 100, (2, 100_000))
        assert not np.array_equal(np.hypot(dx, dy), math_hypot(dx, dy))


# --- scalar formation oracles ---------------------------------------------------


BS = Position(50.0, 175.0)


def alive_of(nodes):
    return [n for n in nodes if n.energy > 0]


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


def oracle_form_clusters_nearest(nodes, ch_ids):
    alive = alive_of(nodes)
    by_id = {n.id: n for n in alive}
    heads = sorted(ch_ids)
    clusters = {h: Cluster(head=h) for h in heads}
    # members in id order, as every formation lists them
    for node in sorted(alive, key=lambda n: n.id):
        if node.id in ch_ids:
            continue
        best = min(heads, key=lambda h: (euclidean_distance(node.pos, by_id[h].pos), h))
        clusters[best].members.append(node.id)
    return ClusterSet(clusters=[clusters[h] for h in heads])


def heed_cost(candidate, nodes, radius):
    """Mean squared distance from ``candidate`` to its alive neighbors within
    ``radius``; radius^2 for a candidate without neighbors."""
    sq = [
        euclidean_distance(candidate.pos, other.pos) ** 2
        for other in nodes
        if other.energy > 0 and other.id != candidate.id
        and euclidean_distance(candidate.pos, other.pos) <= radius
    ]
    return sum(sq) / len(sq) if sq else radius * radius


def oracle_enforce_ch_separation(ch_ids, nodes, min_dist):
    by_id = {n.id: n for n in nodes}
    order = sorted(ch_ids, key=lambda i: (-by_id[i].energy, i))
    kept = []
    for cand in order:
        if all(euclidean_distance(by_id[cand].pos, by_id[k].pos) >= min_dist for k in kept):
            kept.append(cand)
    return set(kept)


def oracle_heed_form_clusters(nodes, params, rng):
    alive = sorted(alive_of(nodes), key=lambda n: n.id)
    n = len(alive)
    pos = np.array([(a.pos.x, a.pos.y) for a in alive], dtype=float)
    ids = np.array([a.id for a in alive])
    energy = np.array([a.energy for a in alive])
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    in_range = dist <= params.cluster_radius
    np.fill_diagonal(in_range, False)
    sq = dist * dist
    neighbor_counts = in_range.sum(axis=1)
    cost = np.where(
        neighbor_counts > 0,
        (sq * in_range).sum(axis=1) / np.maximum(neighbor_counts, 1),
        params.cluster_radius**2,
    )
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
            best = min(head_idx, key=lambda j: (dist[i, j], ids[j]))
        clusters[int(ids[best])].members.append(int(ids[i]))
    return ClusterSet(clusters=[clusters[h] for h in sorted(clusters)]), iterations


def oracle_eecs_form_clusters(nodes, bs, params, rng):
    alive = sorted(alive_of(nodes), key=lambda n: n.id)
    draws = {n.id: float(rng.random()) for n in alive}
    candidates = [n for n in alive if draws[n.id] < params.p]
    if not candidates:
        candidates = [min(alive, key=lambda n: (-n.energy, n.id))]
    quota = eecs_head_quota(len(alive), params.head_fraction)
    kept = []
    for cand in sorted(candidates, key=lambda n: (-n.energy, n.id)):
        if len(kept) >= quota:
            break
        if all(euclidean_distance(cand.pos, o.pos) > params.suppress_radius for o in kept):
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
        dists = {h.id: euclidean_distance(node.pos, h.pos) for h in kept}
        reachable = [h for h in kept if dists[h.id] <= params.join_radius]
        if not reachable:
            best = min(kept, key=lambda h: (dists[h.id], h.id))
        else:
            d_max = max(dists[h.id] for h in reachable)

            def cost(h):
                member_term = dists[h.id] / d_max if d_max > 0 else 0.0
                bs_term = (bs_dist[h.id] - d_bs_min) / bs_span if bs_span > 0 else 0.0
                return params.w * member_term + (1.0 - params.w) * bs_term

            best = min(reachable, key=lambda h: (cost(h), h.id))
        clusters[best.id].members.append(node.id)
    return ClusterSet(clusters=[clusters[h] for h in sorted(clusters)])


def random_network(rng, n, grid=False):
    """Nodes with shuffled, gapped ids, some dead; ``grid`` puts them on
    integer points so that equal distances (ties) are common."""
    ids = rng.permutation(3 * n)[:n]
    nodes = []
    for i in ids.tolist():
        xy = rng.integers(0, 12, 2) * 5.0 if grid else rng.uniform(0, 100, 2)
        energy = float(rng.uniform(0.01, 1.0))
        alive = rng.random() > 0.15
        nodes.append(Node(id=i, pos=Position(*xy.tolist()), energy=energy if alive else 0.0))
    if not alive_of(nodes):
        nodes[0].energy = 0.5
    return nodes


def shape(cluster_set):
    return [(c.head, c.members) for c in cluster_set.clusters], cluster_set.orphans


NETWORKS = [(seed, grid, sep) for seed in range(40) for grid in (False, True)
            for sep in (0.0, 15.0)]


class TestFormationsMatchScalarOracles:
    @pytest.mark.parametrize("seed,grid,sep", NETWORKS)
    def test_leach(self, seed, grid, sep):
        rng = np.random.default_rng(seed)
        nodes = random_network(rng, int(rng.integers(1, 90)), grid)
        for node in nodes:
            node.rounds_since_ch = int(rng.integers(0, 25))
        params = LeachParams(p=float(rng.uniform(0.02, 0.5)))
        r = int(rng.integers(0, 60))
        a, b = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        heads = leach_elect(Geometry(nodes, BS), params, r, a)
        assert heads == oracle_leach_elect(nodes, params, r, b)
        assert a.random() == b.random()  # the streams stay in step
        if sep:
            expected = oracle_enforce_ch_separation(heads, alive_of(nodes), sep)
            heads = enforce_ch_separation(Geometry(nodes, BS), heads, sep)
            assert heads == expected
        assert shape(form_clusters_nearest(Geometry(nodes, BS), heads)) == shape(
            oracle_form_clusters_nearest(nodes, heads))

    @pytest.mark.parametrize("seed,grid,sep", NETWORKS)
    def test_heed(self, seed, grid, sep):
        rng = np.random.default_rng(seed)
        nodes = random_network(rng, int(rng.integers(1, 90)), grid)
        params = HeedParams(cluster_radius=float(rng.uniform(5, 40)),
                            announce_waves=int(rng.integers(1, 5)), ch_separation=sep)
        a, b = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        got, it_got = heed_form_clusters(Geometry(nodes, BS), params, a)
        expected, it_expected = oracle_heed_form_clusters(nodes, params, b)
        assert it_got == it_expected
        assert shape(got) == shape(expected)
        assert a.random() == b.random()

    @pytest.mark.parametrize("seed,grid,sep", NETWORKS)
    def test_eecs(self, seed, grid, sep):
        rng = np.random.default_rng(seed)
        nodes = random_network(rng, int(rng.integers(1, 90)), grid)
        params = EecsParams(p=float(rng.uniform(0.05, 1.0)), w=float(rng.choice([0.0, 0.5, 1.0])),
                            suppress_radius=float(rng.uniform(0, 40)),
                            join_radius=float(rng.uniform(5, 60)),
                            head_fraction=float(rng.uniform(0.02, 0.3)), ch_separation=sep)
        bs = Position(50.0, float(rng.choice([50.0, 175.0])))
        a, b = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        got = eecs_form_clusters(Geometry(nodes, bs), params, a)
        assert shape(got) == shape(oracle_eecs_form_clusters(nodes, bs, params, b))
        assert a.random() == b.random()

    @pytest.mark.parametrize("seed,grid", [(s, g) for s in range(20) for g in (False, True)])
    def test_heed_cost(self, seed, grid):
        # the scalar cost was never bit-equal to the array one (math.hypot and
        # sequential sums against sqrt(dx*dx + dy*dy) and pairwise sums)
        rng = np.random.default_rng(seed)
        nodes = alive_of(random_network(rng, int(rng.integers(1, 60)), grid))
        radius = float(rng.uniform(5, 40))
        pos = np.array([(n.pos.x, n.pos.y) for n in nodes])
        _, _, cost = heed_geometry(pos, radius)
        assert cost.tolist() == pytest.approx(
            [heed_cost(c, nodes, radius) for c in nodes], rel=1e-12)


# --- the certified nearest-head join ---------------------------------------------


def tie_network(rng, n, kind):
    """Alive nodes whose distances defeat the d2 certificate: exact ties on an
    integer grid, coincident nodes, nodes on the bisectors of node pairs
    (where rounding decides the nearer end), or a 1e-160 m arena where every
    d2 underflows to 0 while the exact distances still differ."""
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
    return [Node(id=int(i), pos=Position(*p), energy=1.0) for i, p in zip(ids, xy.tolist())]


def count_exact_rows(monkeypatch, geom):
    """Make ``geom.distances`` count the rows it is asked for."""
    counted = [0]

    def distances(rows, cols):
        counted[0] += len(rows)
        return Geometry.distances(geom, rows, cols)

    monkeypatch.setattr(geom, "distances", distances)
    return counted


TIE_NETWORKS = [(seed, kind) for seed in range(15)
                for kind in ("grid", "coincident", "bisector", "tiny")]


class TestCertifiedJoin:
    @pytest.mark.parametrize("seed,kind", TIE_NETWORKS)
    def test_tie_networks_match_oracle_through_the_exact_path(self, monkeypatch, seed, kind):
        rng = np.random.default_rng(seed)
        nodes = tie_network(rng, int(rng.integers(20, 120)), kind)
        heads = {n.id for n in nodes[:len(nodes) // 4]} if kind == "bisector" else (
            {n.id for n in nodes if rng.random() < 0.2} or {nodes[0].id})
        geom = Geometry(nodes, BS)
        exact = count_exact_rows(monkeypatch, geom)
        got = form_clusters_nearest(geom, heads)
        assert shape(got) == shape(oracle_form_clusters_nearest(nodes, heads))
        if len(heads) > 1:
            assert exact[0] > 0

    @pytest.mark.parametrize("seed", range(10))
    def test_random_blocks_need_no_exact_rows(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        geom = Geometry([Node(id=i, pos=Position(*p), energy=1.0)
                         for i, p in enumerate(rng.uniform(0, 100, (1000, 2)).tolist())], BS)
        rows, cols = np.arange(950), np.arange(950, 1000)
        exact = count_exact_rows(monkeypatch, geom)
        got = geom.nearest(rows, cols)
        assert exact[0] == 0
        assert np.array_equal(got, Geometry.distances(geom, rows, cols).argmin(axis=1))


# --- the per-charge ledger ------------------------------------------------------


class Ledger:
    def __init__(self):
        self.charged = 0.0
        self.clamped = 0.0

    def charge(self, node, cost):
        self.charged += cost
        shortfall = cost - node.energy
        if shortfall > 0:
            self.clamped += shortfall
        remaining = node.energy - cost  # clamped at 0, where the node dies
        node.energy = remaining if remaining > 0 else 0.0


def oracle_run_round(state, nodes, protocol):
    """One round charged to the Node records ``nodes`` (in id order) one
    charge at a time; ``state`` only forms the clusters, from their energies
    and counters."""
    alive_before = len(alive_of(nodes))
    if alive_before == 0:
        raise SimulationComplete(f"no alive nodes at round {state.round}")
    cfg = state.config
    radio = cfg.radio
    by_id = {n.id: n for n in nodes}
    state.geometry.energy[:] = [n.energy for n in nodes]
    state.geometry.rounds_since_ch[:] = [n.rounds_since_ch for n in nodes]
    cluster_set, clustering_iterations = _form_clusters(state, protocol)
    head_ids = set(cluster_set.head_ids)
    ledger = Ledger()

    advert_cost = tx_energy(radio, radio.header_bits, cfg.diagonal)
    delivered_adverts = set()
    for head_id in sorted(head_ids):
        head = by_id[head_id]
        ledger.charge(head, advert_cost)
        if head.energy > 0:
            delivered_adverts.add(head_id)
    n_adverts = len(delivered_adverts)
    for node in sorted(nodes, key=lambda n: n.id):
        if node.energy <= 0:
            continue
        heard = n_adverts - (1 if node.id in delivered_adverts else 0)
        if heard > 0:
            ledger.charge(node, heard * rx_energy(radio, radio.header_bits))

    for cluster in cluster_set.clusters:
        head = by_id[cluster.head]
        for member_id in sorted(cluster.members):
            member = by_id[member_id]
            if member.energy <= 0:
                continue
            ledger.charge(member, tx_energy(
                radio, radio.header_bits, euclidean_distance(member.pos, head.pos)))
            if member.energy > 0 and head.energy > 0:
                ledger.charge(head, rx_energy(radio, radio.header_bits))

    delivered = 0
    for cluster in cluster_set.clusters:
        head = by_id[cluster.head]
        received = 0
        for member_id in sorted(cluster.members):
            member = by_id[member_id]
            if member.energy <= 0:
                continue
            ledger.charge(member, tx_energy(
                radio, radio.data_bits, euclidean_distance(member.pos, head.pos)))
            if member.energy > 0 and head.energy > 0:
                ledger.charge(head, rx_energy(radio, radio.data_bits))
                if head.energy > 0:
                    received += 1
        if head.energy > 0:
            ledger.charge(head, aggregate_energy(radio, radio.data_bits, received + 1))
        if head.energy > 0:
            ledger.charge(head, tx_energy(
                radio, radio.data_bits, euclidean_distance(head.pos, cfg.bs_pos)))
            if head.energy > 0:
                delivered += 1

    for orphan_id in sorted(cluster_set.orphans):
        orphan = by_id[orphan_id]
        if orphan.energy <= 0:
            continue
        ledger.charge(orphan, tx_energy(
            radio, radio.data_bits, euclidean_distance(orphan.pos, cfg.bs_pos)))
        if orphan.energy > 0:
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


def node_state(state):
    geom = state.geometry
    return list(zip(geom.ids.tolist(), geom.energy.tolist(), geom.rounds_since_ch.tolist()))


PROTOCOLS = [LeachParams(), HeedParams(), EecsParams(), KmeansFormation(k=3),
             FuzzyFormation(k=3), LeachParams(ch_separation=20.0)]


class TestLedgerMatchesPerChargeOracle:
    @pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: type(p).__name__)
    @pytest.mark.parametrize("seed", range(6))
    def test_low_energy_rounds(self, protocol, seed):
        # energies of a few rounds' worth, spread so that heads and members
        # die part-way through a round
        rng = np.random.default_rng(seed)
        config = NetworkConfig(n_nodes=40, seed=seed,
                               bs_pos=Position(50.0, float(rng.choice([50.0, 175.0]))))
        nodes = [Node(id=i, pos=Position(*rng.uniform(0, 100, 2).tolist()),
                      energy=float(rng.uniform(1e-5, 3e-3))) for i in range(40)]
        new = SimState(nodes=nodes, config=config, rng=np.random.default_rng(seed))
        old = SimState(nodes=nodes, config=config, rng=np.random.default_rng(seed))
        old_nodes = copy.deepcopy(nodes)
        clamped_rounds = 0
        while new.alive_count() > 0 and new.round < 60:
            new, got = run_round(new, protocol)
            old, expected = oracle_run_round(old, old_nodes, protocol)
            assert got == expected
            assert node_state(new) == [(n.id, n.energy, n.rounds_since_ch) for n in old_nodes]
            assert new.bs_messages == old.bs_messages
            clamped_rounds += got.energy_clamped > 0
        assert clamped_rounds > 0  # the dying paths were taken
