import collections
import copy

import numpy as np
import pytest

from wsnsim.engine import SimState, run_round
from wsnsim.model import NetworkConfig, Node, Position, deploy_nodes, euclidean_distance
from wsnsim.partitioning import FcmParams
from wsnsim.protocols import (
    EecsParams,
    Geometry,
    HeedParams,
    LeachParams,
    eecs_form_clusters,
    eecs_head_quota,
    enforce_ch_separation,
    form_clusters_nearest,
    fuzzy_form_clusters,
    heed_announce_prob,
    heed_form_clusters,
    heed_geometry,
    kmeans_form_clusters,
    leach_elect,
    leach_threshold,
)


class ZeroRng:
    """Degenerate generator: every draw is 0, so any positive threshold elects."""

    def random(self, size=None):
        return 0.0 if size is None else np.zeros(size)

    def integers(self, *args, **kwargs):
        return 0


class HighRng:
    """Every draw is just below 1, so only threshold-1 elections fire."""

    def random(self, size=None):
        value = 1.0 - 1e-12
        return value if size is None else np.full(size, value)


def nodes_at(coords, energies=None):
    energies = energies or [1.0] * len(coords)
    return [
        Node(id=i, pos=Position(*xy), energy=e)
        for i, (xy, e) in enumerate(zip(coords, energies))
    ]


def geom(nodes, bs=Position(50, 175)):
    return Geometry(nodes, bs)


def check_partition(cluster_set, nodes):
    cluster_set.validate({n.id for n in nodes if n.energy > 0})


class TestLeachThreshold:
    def test_round_zero(self):
        assert leach_threshold(0.05, 0) == pytest.approx(0.05)

    def test_period_end_is_exactly_one(self):
        assert leach_threshold(0.05, 19) == 1.0

    def test_ineligible_is_zero(self):
        # node 0 served in the round before: every draw is 0, below any
        # positive threshold, yet it elects only when a new period begins
        for r in range(25):
            nodes = [Node(id=0, pos=Position(0, 0), energy=1.0, rounds_since_ch=0),
                     Node(id=1, pos=Position(1, 0), energy=0.5)]
            heads = leach_elect(geom(nodes), LeachParams(p=0.05), r, ZeroRng())
            assert heads == ({1} if r % 20 else {0, 1})

    def test_wraps_at_period(self):
        assert leach_threshold(0.05, 20) == pytest.approx(0.05)

    def test_always_within_unit_interval(self):
        for p in (0.01, 0.05, 0.3, 1.0):
            for r in range(60):
                assert 0.0 <= leach_threshold(p, r) <= 1.0


class TestLeachElect:
    def test_fallback_elects_max_energy(self):
        nodes = nodes_at([(0, 0), (1, 0), (2, 0)], energies=[0.3, 0.9, 0.5])
        heads = leach_elect(geom(nodes), LeachParams(p=0.05), 0, HighRng())
        assert heads == {1}

    def test_fallback_tie_breaks_low_id(self):
        nodes = nodes_at([(0, 0), (1, 0)], energies=[0.5, 0.5])
        assert leach_elect(geom(nodes), LeachParams(p=0.05), 5, HighRng()) == {0}

    def test_period_end_elects_everyone_eligible(self):
        nodes = nodes_at([(i, 0) for i in range(5)])
        heads = leach_elect(geom(nodes), LeachParams(p=0.05), 19, HighRng())
        assert heads == {0, 1, 2, 3, 4}

    def test_recent_head_is_ineligible_next_round(self):
        # the richer node 0 headed round 5; a 0 draw elects only node 1
        nodes = [Node(id=0, pos=Position(0, 0), energy=1.0, rounds_since_ch=0),
                 Node(id=1, pos=Position(1, 0), energy=0.5)]
        assert leach_elect(geom(nodes), LeachParams(p=0.05), 6, ZeroRng()) == {1}

    def test_eligibility_resets_each_period(self):
        nodes = [Node(id=0, pos=Position(0, 0), energy=1.0, rounds_since_ch=0),
                 Node(id=1, pos=Position(1, 0), energy=0.5)]
        assert leach_elect(geom(nodes), LeachParams(p=0.05), 20, ZeroRng()) == {0, 1}

    def test_rotation_exactly_once_per_window(self):
        # With forced-zero draws every eligible node elects, so threshold
        # elections must cover each node exactly once per 20-round window;
        # electionless rounds appoint a stand-in, which is not a rotation
        # election. A head that already served in the window can only be
        # that stand-in: alone, once every node has served.
        params = LeachParams(p=0.05)
        nodes = nodes_at([(i % 10, i // 10) for i in range(40)])
        rng = ZeroRng()
        for window in range(3):
            elected = collections.Counter()
            for step in range(20):
                r = window * 20 + step
                heads = leach_elect(geom(nodes), params, r, rng)
                if heads & set(elected):
                    assert len(heads) == 1 and len(elected) == len(nodes)
                else:
                    elected.update(heads)
                for n in nodes:  # engine bookkeeping
                    n.rounds_since_ch = 0 if n.id in heads else n.rounds_since_ch + 1
            assert all(elected[n.id] == 1 for n in nodes)

    def test_every_node_serves_at_least_once_per_window(self):
        params = LeachParams(p=0.05)
        nodes = nodes_at([(i, i) for i in range(30)])
        rng = ZeroRng()
        served = collections.Counter()
        for r in range(20):
            heads = leach_elect(geom(nodes), params, r, rng)
            served.update(heads)
            for n in nodes:
                n.rounds_since_ch = 0 if n.id in heads else n.rounds_since_ch + 1
        assert all(served[n.id] >= 1 for n in nodes)


class TestFormClustersNearest:
    def test_single_head_takes_all(self):
        nodes = nodes_at([(0, 0), (5, 0), (9, 9)])
        cs = form_clusters_nearest(geom(nodes), {1})
        assert cs.clusters[0].head == 1
        assert sorted(cs.clusters[0].members) == [0, 2]
        assert cs.orphans == []
        check_partition(cs, nodes)

    def test_tie_goes_to_lower_head_id(self):
        nodes = nodes_at([(0, 0), (10, 0), (5, 0)])
        cs = form_clusters_nearest(geom(nodes), {0, 1})
        by_head = {c.head: c.members for c in cs.clusters}
        assert by_head[0] == [2]
        assert by_head[1] == []

    def test_nearest_by_inspection(self):
        nodes = nodes_at([(0, 0), (10, 0), (2, 0)])
        cs = form_clusters_nearest(geom(nodes), {0, 1})
        by_head = {c.head: c.members for c in cs.clusters}
        assert by_head[0] == [2]

    def test_empty_heads_rejected(self):
        with pytest.raises(ValueError):
            form_clusters_nearest(geom(nodes_at([(0, 0)])), set())


class TestEnforceChSeparation:
    def test_zero_distance_is_identity(self):
        nodes = nodes_at([(0, 0), (1, 0)])
        assert enforce_ch_separation(geom(nodes), {0, 1}, 0.0) == {0, 1}

    def test_close_pair_keeps_higher_energy(self):
        nodes = nodes_at([(0, 0), (10, 0)], energies=[0.4, 0.9])
        assert enforce_ch_separation(geom(nodes), {0, 1}, 50.0) == {1}

    def test_far_apart_unchanged(self):
        nodes = nodes_at([(0, 0), (80, 0), (0, 80)])
        assert enforce_ch_separation(geom(nodes), {0, 1, 2}, 50.0) == {0, 1, 2}

    def test_always_keeps_at_least_one(self):
        nodes = nodes_at([(0, 0), (1, 0), (2, 0)])
        assert len(enforce_ch_separation(geom(nodes), {0, 1, 2}, 1000.0)) == 1


def heed_costs(coords, radius):
    return heed_geometry(np.array(coords, dtype=float), radius)[2]


class TestHeedCost:
    def test_single_neighbor(self):
        assert heed_costs([(0, 0), (3, 0)], radius=25.0)[0] == pytest.approx(9.0)

    def test_isolated_candidate_costs_radius_squared(self):
        assert heed_costs([(0, 0), (90, 90)], radius=25.0)[0] == 625.0

    def test_mean_over_neighbors(self):
        cost = heed_costs([(0, 0), (3, 0), (4, 0)], radius=25.0)[0]
        assert cost == pytest.approx((9 + 16) / 2)

    def test_announce_prob_full_energy_equals_c_prob(self):
        params = HeedParams()
        assert heed_announce_prob(params, 0.5, 0.5) == pytest.approx(0.05)

    def test_announce_prob_floor(self):
        params = HeedParams()
        assert heed_announce_prob(params, 1e-8, 0.5) == pytest.approx(params.p_min)

    def test_iteration_bound_value(self):
        # ceil(log2(1/1e-4)) + 1 = 14 + 1
        assert HeedParams(p_min=1e-4, max_iterations=None).iteration_bound == 15


def shape(cluster_set):
    return [(c.head, c.members) for c in cluster_set.clusters], cluster_set.orphans


class TestGeometry:
    def test_rows_in_id_order(self):
        rng = np.random.default_rng(5)
        nodes = [Node(id=int(i), pos=Position(*rng.uniform(0, 100, 2).tolist()),
                      energy=float(rng.uniform(0, 1)), rounds_since_ch=int(rng.integers(9)))
                 for i in rng.permutation(40)]
        bs = Position(50.0, 175.0)
        g = Geometry(nodes, bs)
        assert g.ids.tolist() == list(range(40))
        by_id = {n.id: n for n in nodes}
        assert g.pos.tolist() == [[by_id[i].pos.x, by_id[i].pos.y] for i in range(40)]
        assert g.energy.tolist() == [by_id[i].energy for i in range(40)]
        assert g.rounds_since_ch.tolist() == [by_id[i].rounds_since_ch for i in range(40)]
        # the sink distances equal euclidean_distance bit for bit
        assert g.bs_dist.tolist() == [euclidean_distance(by_id[i].pos, bs) for i in range(40)]

    def test_alive_rows(self):
        g = geom(nodes_at([(0, 0), (1, 0), (2, 0), (3, 0)]))
        g.energy[[1, 3]] = 0.0
        assert g.alive().tolist() == [0, 2]
        g.energy[:] = 0.0
        with pytest.raises(ValueError, match="no alive nodes"):
            g.alive()

    def test_heed_arrays_are_read_only(self):
        g = geom(nodes_at([(0, 0), (3, 0), (40, 0)]))
        for a in g.heed(np.arange(3), 20.0):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_heed_rebuilds_for_other_ids_or_radius(self):
        # the key is the alive ids and the radius: a set of the same size, or
        # the same set at another radius, gets its own arrays
        rng = np.random.default_rng(9)
        g = geom(nodes_at([tuple(xy) for xy in rng.uniform(0, 100, (30, 2)).tolist()]))
        for rows, radius in [(np.arange(20), 20.0), (np.arange(10, 30), 20.0),
                             (np.arange(10, 30), 35.0), (np.arange(10, 30), 35.0)]:
            dist, in_range, cost = heed_geometry(g.pos[rows], radius)
            got = g.heed(rows, radius)
            assert np.array_equal(got[0], dist)
            assert np.array_equal(got[1], in_range)
            assert np.array_equal(got[2], cost)
            assert got[3].tolist() == np.argsort(np.lexsort((rows, cost))).tolist()

    @pytest.mark.parametrize("sep", [0.0, 15.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_heed_memo_matches_fresh_geometry_as_nodes_die(self, seed, sep):
        # the run's geometry keeps HEED's arrays across rounds; a fresh one
        # built from the same nodes each round must give the same formation
        rng = np.random.default_rng(seed)
        config = NetworkConfig(n_nodes=60, seed=seed)
        nodes = [Node(id=i, pos=Position(*rng.uniform(0, 100, 2).tolist()),
                      energy=float(rng.uniform(1e-3, 2e-2))) for i in range(60)]
        state = SimState(nodes=nodes, config=config)
        params = HeedParams(ch_separation=sep)
        alive_sets = set()
        while state.alive_count() > 0:
            alive_sets.add(tuple(state.geometry.alive().tolist()))
            a, b = copy.deepcopy(state.rng), copy.deepcopy(state.rng)
            got, it_got = heed_form_clusters(state.geometry, params, a)
            fresh = Geometry(nodes, config.bs_pos)
            fresh.energy[:] = state.geometry.energy
            expected, it_expected = heed_form_clusters(fresh, params, b)
            assert shape(got) == shape(expected)
            assert it_got == it_expected
            assert a.bit_generator.state == b.bit_generator.state
            state, _ = run_round(state, params)
        assert len(alive_sets) > 5  # the alive set changed many times


class TestHeedFormClusters:
    def test_single_node_heads_itself(self):
        nodes = nodes_at([(5, 5)])
        cs, iterations = heed_form_clusters(
            geom(nodes), HeedParams(), np.random.default_rng(0)
        )
        assert cs.clusters[0].head == 0
        assert cs.clusters[0].members == []
        assert cs.orphans == []
        assert 1 <= iterations <= 15

    def test_partition_and_bound_randomized(self):
        rng = np.random.default_rng(31)
        params = HeedParams()
        bound = params.iteration_bound
        for _ in range(50):
            n = int(rng.integers(1, 60))
            nodes = nodes_at(
                [tuple(rng.uniform(0, 100, 2)) for _ in range(n)],
                energies=list(rng.uniform(0.01, 1.0, n)),
            )
            cs, iterations = heed_form_clusters(
                geom(nodes), params, np.random.default_rng(int(rng.integers(2**32)))
            )
            assert iterations <= bound
            check_partition(cs, nodes)

    def test_deterministic_given_seed(self):
        nodes1 = nodes_at([(i * 7 % 50, i * 13 % 50) for i in range(30)])
        nodes2 = nodes_at([(i * 7 % 50, i * 13 % 50) for i in range(30)])
        cs1, it1 = heed_form_clusters(
            geom(nodes1), HeedParams(), np.random.default_rng(5)
        )
        cs2, it2 = heed_form_clusters(
            geom(nodes2), HeedParams(), np.random.default_rng(5)
        )
        assert it1 == it2
        assert [(c.head, c.members) for c in cs1.clusters] == [
            (c.head, c.members) for c in cs2.clusters
        ]


class TestEecsFormClusters:
    def test_w1_reduces_to_nearest(self):
        rng_points = np.random.default_rng(37)
        for trial in range(20):
            n = int(rng_points.integers(3, 40))
            nodes = nodes_at(
                [tuple(rng_points.uniform(0, 100, 2)) for _ in range(n)],
                energies=list(rng_points.uniform(0.1, 1.0, n)),
            )
            cs = eecs_form_clusters(
                geom(nodes, Position(50, 175)), EecsParams(w=1.0),
                np.random.default_rng(trial),
            )
            heads = {c.head for c in cs.clusters}
            expected = form_clusters_nearest(geom(nodes), heads)
            assert [(c.head, sorted(c.members)) for c in cs.clusters] == [
                (c.head, sorted(c.members)) for c in expected.clusters
            ]

    def test_single_candidate_takes_all(self):
        nodes = nodes_at([(0, 0), (50, 50), (99, 99)], energies=[0.9, 0.5, 0.4])
        cs = eecs_form_clusters(
            geom(nodes, Position(50, 175)), EecsParams(p=1.0, head_fraction=1e-9),
            np.random.default_rng(0),
        )
        assert len(cs.clusters) == 1
        check_partition(cs, nodes)

    def test_bs_closer_candidate_wins_at_half_weight(self):
        # node 2 sits equidistant from both heads; head 1 is nearer the BS
        nodes = nodes_at([(0, 0), (10, 0), (5, 8)], energies=[1.0, 1.0, 0.1])
        cs = eecs_form_clusters(
            geom(nodes, Position(10, 100)),
            EecsParams(p=1.0, w=0.5, suppress_radius=5.0, head_fraction=0.5),
            np.random.default_rng(0),
        )
        by_head = {c.head: c.members for c in cs.clusters}
        assert set(by_head) == {0, 1}
        assert by_head[1] == [2]

    def test_partition_randomized(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            nodes = nodes_at(
                [tuple(rng.uniform(0, 100, 2)) for _ in range(n)],
                energies=list(rng.uniform(0.01, 1.0, n)),
            )
            cs = eecs_form_clusters(
                geom(nodes, Position(50, 175)), EecsParams(),
                np.random.default_rng(int(rng.integers(2**32))),
            )
            check_partition(cs, nodes)
            assert cs.orphans == []

    def test_head_quota(self):
        assert eecs_head_quota(100, 0.06) == 6
        assert eecs_head_quota(1, 0.06) == 1
        nodes = nodes_at(
            [(i % 10 * 11, i // 10 * 11) for i in range(100)],
            energies=[1.0] * 100,
        )
        cs = eecs_form_clusters(
            geom(nodes, Position(50, 175)), EecsParams(p=1.0), np.random.default_rng(0)
        )
        assert len(cs.clusters) == 6


class TestCentroidFormations:
    def test_kmeans_k1_max_energy_head(self):
        nodes = nodes_at([(0, 0), (5, 5), (9, 0)], energies=[0.2, 0.9, 0.4])
        cs, _ = kmeans_form_clusters(geom(nodes), 1)
        assert cs.clusters[0].head == 1
        check_partition(cs, nodes)

    def test_kmeans_k_equals_n_singletons(self):
        nodes = nodes_at([(0, 0), (10, 0), (0, 10), (10, 10)])
        cs, _ = kmeans_form_clusters(geom(nodes), 4)
        assert sorted(c.head for c in cs.clusters) == [0, 1, 2, 3]
        assert all(c.members == [] for c in cs.clusters)

    def test_kmeans_iterations_passthrough(self):
        from wsnsim.partitioning import kmeans_init, kmeans_run

        coords = [(i * 3 % 40, i * 7 % 40) for i in range(20)]
        nodes = nodes_at(coords)
        cs, iterations = kmeans_form_clusters(geom(nodes), 3)
        points = np.array(coords, dtype=float)
        assert iterations == kmeans_run(points, kmeans_init(points, np.ones(20), 3)).iterations

    def test_fuzzy_k1_max_energy_head(self):
        nodes = nodes_at([(0, 0), (5, 5), (9, 0)], energies=[0.2, 0.9, 0.4])
        cs, iterations = fuzzy_form_clusters(geom(nodes), FcmParams(k=1, seed=0))
        assert cs.clusters[0].head == 1
        assert iterations == 1

    def test_fuzzy_two_blobs_head_is_blob_max_energy(self):
        rng = np.random.default_rng(43)
        blob1 = [(float(x), float(y)) for x, y in rng.normal(0, 1.0, (6, 2))]
        blob2 = [(float(x) + 50, float(y)) for x, y in rng.normal(0, 1.0, (6, 2))]
        energies = [0.1, 0.9, 0.2, 0.3, 0.4, 0.5, 0.6, 0.2, 0.95, 0.3, 0.1, 0.2]
        nodes = nodes_at(blob1 + blob2, energies=energies)
        cs, _ = fuzzy_form_clusters(geom(nodes), FcmParams(k=2, seed=1))
        heads = {c.head for c in cs.clusters}
        assert heads == {1, 8}  # max energy within each blob
        check_partition(cs, nodes)

    def test_fuzzy_equal_energy_tie_break(self):
        # equal energies: head is the member nearest its cluster centroid
        nodes = nodes_at([(0, 0), (2, 0), (1, 0)])
        cs, _ = fuzzy_form_clusters(geom(nodes), FcmParams(k=1, seed=0))
        assert cs.clusters[0].head == 2  # centroid (1,0) is node 2's position

    def test_k_above_alive_count_rejected(self):
        nodes = nodes_at([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            kmeans_form_clusters(geom(nodes), 3)
        with pytest.raises(ValueError):
            fuzzy_form_clusters(geom(nodes), FcmParams(k=3, seed=0))

    def test_partitions_randomized(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(1, min(n, 6) + 1))
            nodes = nodes_at(
                [tuple(rng.uniform(0, 100, 2)) for _ in range(n)],
                energies=list(rng.uniform(0.01, 1.0, n)),
            )
            cs1, _ = kmeans_form_clusters(geom(nodes), k)
            check_partition(cs1, nodes)
            cs2, _ = fuzzy_form_clusters(
                geom(nodes), FcmParams(k=k, seed=int(rng.integers(2**32)))
            )
            check_partition(cs2, nodes)


class TestDeterminism:
    def test_all_protocols_deterministic(self):
        cfg = NetworkConfig(seed=77)
        for make_rng in (lambda: np.random.default_rng(3),):
            nodes_a = deploy_nodes(cfg)
            nodes_b = deploy_nodes(cfg)
            la = leach_elect(geom(nodes_a), LeachParams(), 4, make_rng())
            lb = leach_elect(geom(nodes_b), LeachParams(), 4, make_rng())
            assert la == lb
            ea = eecs_form_clusters(geom(nodes_a, cfg.bs_pos), EecsParams(), make_rng())
            eb = eecs_form_clusters(geom(nodes_b, cfg.bs_pos), EecsParams(), make_rng())
            assert [(c.head, c.members) for c in ea.clusters] == [
                (c.head, c.members) for c in eb.clusters
            ]
