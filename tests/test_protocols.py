import collections
import copy
import tracemalloc

import numpy as np
import pytest

from wsnsim.engine import SimState, run_round, run_simulation
from wsnsim.model import NEVER_CLUSTER_HEAD, NetworkConfig, deploy_nodes, euclidean_distance
from wsnsim.cli import main
from wsnsim.protocols import (
    EecsParams,
    FuzzyFormation,
    Geometry,
    HeedParams,
    KmeansFormation,
    LeachParams,
    eecs_form_clusters,
    enforce_ch_separation,
    form_clusters_nearest,
    fuzzy_form_clusters,
    heed_announce_prob,
    heed_form_clusters,
    heed_geometry,
    head_quota,
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


def geom(coords, energies=1.0, bs=(50, 175)):
    """A geometry whose row i sits at ``coords[i]``."""
    return Geometry(coords, bs, energies)


def served_last_round(coords, energies, rows):
    """``geom(coords, energies)`` after a round that ``rows`` headed."""
    g = geom(coords, energies)
    g.rounds_since_ch[list(rows)] = 0
    return g


def after_round(g, heads):
    """The engine's rotation bookkeeping for one round ``heads`` headed."""
    g.rounds_since_ch += 1
    g.rounds_since_ch[list(heads)] = 0


def check_partition(cluster_set, g):
    cluster_set.validate(set(np.flatnonzero(g.energy > 0).tolist()))


class TestLeachThreshold:
    def test_round_zero(self):
        assert leach_threshold(0.05, 0) == pytest.approx(0.05)

    def test_period_end_is_exactly_one(self):
        assert leach_threshold(0.05, 19) == 1.0

    def test_ineligible_is_zero(self):
        # node 0 served in the round before: every draw is 0, below any
        # positive threshold, yet it elects only when a new period begins
        for r in range(25):
            g = served_last_round([(0, 0), (1, 0)], [1.0, 0.5], {0})
            heads = leach_elect(g, LeachParams(p=0.05), r, ZeroRng())
            assert heads == ({1} if r % 20 else {0, 1})

    def test_wraps_at_period(self):
        assert leach_threshold(0.05, 20) == pytest.approx(0.05)

    def test_always_within_unit_interval(self):
        for p in (0.01, 0.05, 0.3, 1.0):
            for r in range(60):
                assert 0.0 <= leach_threshold(p, r) <= 1.0


class TestLeachElect:
    def test_fallback_elects_max_energy(self):
        g = geom([(0, 0), (1, 0), (2, 0)], [0.3, 0.9, 0.5])
        heads = leach_elect(g, LeachParams(p=0.05), 0, HighRng())
        assert heads == {1}

    def test_fallback_tie_breaks_low_id(self):
        g = geom([(0, 0), (1, 0)], [0.5, 0.5])
        assert leach_elect(g, LeachParams(p=0.05), 5, HighRng()) == {0}

    def test_period_end_elects_everyone_eligible(self):
        heads = leach_elect(geom([(i, 0) for i in range(5)]), LeachParams(p=0.05), 19, HighRng())
        assert heads == {0, 1, 2, 3, 4}

    def test_recent_head_is_ineligible_next_round(self):
        # the richer node 0 headed round 5; a 0 draw elects only node 1
        g = served_last_round([(0, 0), (1, 0)], [1.0, 0.5], {0})
        assert leach_elect(g, LeachParams(p=0.05), 6, ZeroRng()) == {1}

    def test_eligibility_resets_each_period(self):
        g = served_last_round([(0, 0), (1, 0)], [1.0, 0.5], {0})
        assert leach_elect(g, LeachParams(p=0.05), 20, ZeroRng()) == {0, 1}

    def test_rotation_exactly_once_per_window(self):
        # With forced-zero draws every eligible node elects, so threshold
        # elections must cover each node exactly once per 20-round window;
        # electionless rounds appoint a stand-in, which is not a rotation
        # election. A head that already served in the window can only be
        # that stand-in: alone, once every node has served.
        params = LeachParams(p=0.05)
        g = geom([(i % 10, i // 10) for i in range(40)])
        rng = ZeroRng()
        for window in range(3):
            elected = collections.Counter()
            for step in range(20):
                r = window * 20 + step
                heads = leach_elect(g, params, r, rng)
                if heads & set(elected):
                    assert len(heads) == 1 and len(elected) == 40
                else:
                    elected.update(heads)
                after_round(g, heads)
            assert all(elected[row] == 1 for row in range(40))

    def test_every_node_serves_at_least_once_per_window(self):
        params = LeachParams(p=0.05)
        g = geom([(i, i) for i in range(30)])
        rng = ZeroRng()
        served = collections.Counter()
        for r in range(20):
            heads = leach_elect(g, params, r, rng)
            served.update(heads)
            after_round(g, heads)
        assert all(served[row] >= 1 for row in range(30))


class TestFormClustersNearest:
    def test_single_head_takes_all(self):
        g = geom([(0, 0), (5, 0), (9, 9)])
        cs = form_clusters_nearest(g, {1})
        assert cs.clusters[0].head == 1
        assert sorted(cs.clusters[0].members) == [0, 2]
        assert cs.orphans == []
        check_partition(cs, g)

    def test_tie_goes_to_lower_head_id(self):
        cs = form_clusters_nearest(geom([(0, 0), (10, 0), (5, 0)]), {0, 1})
        by_head = {c.head: c.members for c in cs.clusters}
        assert by_head[0] == [2]
        assert by_head[1] == []

    def test_nearest_by_inspection(self):
        cs = form_clusters_nearest(geom([(0, 0), (10, 0), (2, 0)]), {0, 1})
        by_head = {c.head: c.members for c in cs.clusters}
        assert by_head[0] == [2]

    def test_empty_heads_rejected(self):
        with pytest.raises(ValueError):
            form_clusters_nearest(geom([(0, 0)]), set())

    def test_dead_or_missing_head_rejected(self):
        g = geom([(0, 0), (5, 0), (9, 9)])
        g.energy[1] = 0.0
        with pytest.raises(ValueError, match="cluster head 1 is not an alive node"):
            form_clusters_nearest(g, {0, 1})
        with pytest.raises(ValueError, match="cluster head 3 is not an alive node"):
            form_clusters_nearest(g, {0, 3})  # past the last row


class TestEnforceChSeparation:
    def test_zero_distance_is_identity(self):
        assert enforce_ch_separation(geom([(0, 0), (1, 0)]), {0, 1}, 0.0) == {0, 1}

    def test_close_pair_keeps_higher_energy(self):
        g = geom([(0, 0), (10, 0)], [0.4, 0.9])
        assert enforce_ch_separation(g, {0, 1}, 50.0) == {1}

    def test_far_apart_unchanged(self):
        g = geom([(0, 0), (80, 0), (0, 80)])
        assert enforce_ch_separation(g, {0, 1, 2}, 50.0) == {0, 1, 2}

    def test_always_keeps_at_least_one(self):
        g = geom([(0, 0), (1, 0), (2, 0)])
        assert len(enforce_ch_separation(g, {0, 1, 2}, 1000.0)) == 1


def heed_costs(coords, radius):
    return heed_geometry(np.array(coords, dtype=float), radius)[1]


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
        assert HeedParams(p_min=1e-4).iteration_bound == 15


def shape(cluster_set):
    return [(c.head, c.members) for c in cluster_set.clusters], cluster_set.orphans


class TestGeometry:
    def test_row_arrays_and_sink_distances(self):
        rng = np.random.default_rng(5)
        pos, energy = rng.uniform(0, 100, (40, 2)), rng.uniform(0, 1, 40)
        bs = (50.0, 175.0)
        g = Geometry(pos, bs, energy)
        assert g.pos.tolist() == g.xy == pos.tolist()
        assert g.energy.tolist() == energy.tolist()
        assert g.rounds_since_ch.tolist() == [NEVER_CLUSTER_HEAD] * 40
        energy[0] = pos[0, 0] = -1.0
        assert g.pos[0, 0] != -1.0 and g.energy[0] != -1.0  # the geometry holds copies
        assert Geometry(pos, bs, 0.25).energy.tolist() == [0.25] * 40
        # the sink distances equal euclidean_distance bit for bit
        assert g.bs_dist.tolist() == g.bs_d == [euclidean_distance(xy, bs) for xy in g.xy]

    def test_alive_rows(self):
        g = geom([(0, 0), (1, 0), (2, 0), (3, 0)])
        g.energy[[1, 3]] = 0.0
        assert g.alive().tolist() == [0, 2]
        g.energy[:] = 0.0
        with pytest.raises(ValueError, match="no alive nodes"):
            g.alive()

    def test_heed_arrays_are_read_only(self):
        g = geom([(0, 0), (3, 0), (40, 0)])
        for a in g.heed(np.arange(3), 20.0):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_heed_rebuilds_for_other_ids_or_radius(self):
        # the key is the alive ids and the radius: a set of the same size, or
        # the same set at another radius, gets its own arrays
        rng = np.random.default_rng(9)
        g = geom(rng.uniform(0, 100, (30, 2)))
        for rows, radius in [(np.arange(20), 20.0), (np.arange(10, 30), 20.0),
                             (np.arange(10, 30), 35.0), (np.arange(10, 30), 35.0)]:
            in_range, cost = heed_geometry(g.pos[rows], radius)
            got = g.heed(rows, radius)
            assert np.array_equal(got[0], in_range)
            assert np.array_equal(got[1], cost)
            assert got[2].tolist() == np.argsort(np.lexsort((rows, cost))).tolist()

    @pytest.mark.parametrize("sep", [0.0, 15.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_heed_memo_matches_fresh_geometry_as_nodes_die(self, seed, sep):
        # the run's geometry keeps HEED's arrays across rounds; a fresh one
        # built from the same nodes each round must give the same formation
        rng = np.random.default_rng(seed)
        config = NetworkConfig(n_nodes=60, seed=seed)
        nodes = [(rng.uniform(0, 100, 2), float(rng.uniform(1e-3, 2e-2))) for _ in range(60)]
        pos = [xy for xy, _ in nodes]
        state = SimState(geometry=Geometry(pos, config.bs_pos, [e for _, e in nodes]),
                         config=config)
        params = HeedParams(ch_separation=sep)
        alive_sets = set()
        while state.alive_count() > 0:
            alive_sets.add(tuple(state.geometry.alive().tolist()))
            a, b = copy.deepcopy(state.rng), copy.deepcopy(state.rng)
            got, it_got = heed_form_clusters(state.geometry, params, a)
            fresh = Geometry(pos, config.bs_pos, state.geometry.energy)
            expected, it_expected = heed_form_clusters(fresh, params, b)
            assert shape(got) == shape(expected)
            assert it_got == it_expected
            assert a.bit_generator.state == b.bit_generator.state
            state, _ = run_round(state, params)
        assert len(alive_sets) > 5  # the alive set changed many times


class TestHeedFormClusters:
    def test_single_node_heads_itself(self):
        cs, iterations = heed_form_clusters(
            geom([(5, 5)]), HeedParams(), np.random.default_rng(0)
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
            g = geom([tuple(rng.uniform(0, 100, 2)) for _ in range(n)],
                     list(rng.uniform(0.01, 1.0, n)))
            cs, iterations = heed_form_clusters(
                g, params, np.random.default_rng(int(rng.integers(2**32)))
            )
            assert iterations <= bound
            check_partition(cs, g)

    def test_deterministic_given_seed(self):
        coords = [(i * 7 % 50, i * 13 % 50) for i in range(30)]
        cs1, it1 = heed_form_clusters(
            geom(coords), HeedParams(), np.random.default_rng(5)
        )
        cs2, it2 = heed_form_clusters(
            geom(coords), HeedParams(), np.random.default_rng(5)
        )
        assert it1 == it2
        assert [(c.head, c.members) for c in cs1.clusters] == [
            (c.head, c.members) for c in cs2.clusters
        ]

    def test_peak_memory_at_n_1000(self):
        # the n x n neighbor mask takes 1 MB; the float distances exist only a
        # row block at a time (a whole n x n float64 array would take 8 MB)
        config = NetworkConfig(n_nodes=1000, seed=1)
        g = Geometry(deploy_nodes(config), config.bs_pos, config.initial_energy)
        tracemalloc.start()
        try:
            heed_form_clusters(g, HeedParams(), np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestEecsFormClusters:
    def test_w1_reduces_to_nearest(self):
        rng_points = np.random.default_rng(37)
        for trial in range(20):
            n = int(rng_points.integers(3, 40))
            g = geom([tuple(rng_points.uniform(0, 100, 2)) for _ in range(n)],
                     list(rng_points.uniform(0.1, 1.0, n)))
            cs = eecs_form_clusters(g, EecsParams(w=1.0), np.random.default_rng(trial))
            heads = {c.head for c in cs.clusters}
            expected = form_clusters_nearest(g, heads)
            assert [(c.head, sorted(c.members)) for c in cs.clusters] == [
                (c.head, sorted(c.members)) for c in expected.clusters
            ]

    def test_single_candidate_takes_all(self):
        g = geom([(0, 0), (50, 50), (99, 99)], [0.9, 0.5, 0.4])
        cs = eecs_form_clusters(
            g, EecsParams(p=1.0, head_fraction=1e-9), np.random.default_rng(0),
        )
        assert len(cs.clusters) == 1
        check_partition(cs, g)

    def test_bs_closer_candidate_wins_at_half_weight(self):
        # node 2 sits equidistant from both heads; head 1 is nearer the BS
        cs = eecs_form_clusters(
            geom([(0, 0), (10, 0), (5, 8)], [1.0, 1.0, 0.1], bs=(10, 100)),
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
            g = geom([tuple(rng.uniform(0, 100, 2)) for _ in range(n)],
                     list(rng.uniform(0.01, 1.0, n)))
            cs = eecs_form_clusters(
                g, EecsParams(), np.random.default_rng(int(rng.integers(2**32))),
            )
            check_partition(cs, g)
            assert cs.orphans == []

    def test_head_quota(self):
        # one helper sizes EECS's head set (head_fraction) and the centroid
        # formations' default k (5%)
        for alive, fraction, quota in [(100, 0.06, 6), (1, 0.06, 1),
                                       (100, 0.05, 5), (1, 0.05, 1), (101, 0.05, 6)]:
            assert head_quota(alive, fraction) == quota
        cs = eecs_form_clusters(
            geom([(i % 10 * 11, i // 10 * 11) for i in range(100)]), EecsParams(p=1.0),
            np.random.default_rng(0)
        )
        assert len(cs.clusters) == 6

    def test_exact_distances_once_per_head(self, monkeypatch):
        # a paper lifetime draws its 2 708 head terms from the 100 nodes; each
        # head's distances to all n rows are computed once, not every round
        # (250 652 distances when the join computed its block every round)
        counted, exact = [0], Geometry.distances

        def distances(self, rows, cols):
            counted[0] += len(rows) * len(cols)
            return exact(self, rows, cols)

        monkeypatch.setattr(Geometry, "distances", distances)
        run_simulation(NetworkConfig(seed=1), EecsParams(), 3000)
        assert 0 < counted[0] <= 100 * 100

    def test_exact_distances_past_the_store_at_n_1000(self, monkeypatch):
        # 20 rounds at n = 1000 draw 192 head terms from 184 distinct heads, and
        # the store holds 65; a head that does not fit takes only the rows of
        # the nodes that are not heads (185 000 distances over all 1000 rows)
        counted, exact = [0], Geometry.distances

        def distances(self, rows, cols):
            counted[0] += len(rows) * len(cols)
            return exact(self, rows, cols)

        monkeypatch.setattr(Geometry, "distances", distances)
        run_simulation(NetworkConfig(n_nodes=1000, seed=1), EecsParams(), 20)
        assert counted[0] == 183_835

    def test_peak_memory_at_n_1000(self):
        # the store of head rows holds at most 2**16 distances (0.5 MB, 65
        # heads at n = 1000); every head's row kept would take 8 MB
        config = NetworkConfig(n_nodes=1000, seed=1)
        pos, rng = deploy_nodes(config), np.random.default_rng(1)
        tracemalloc.start()
        try:
            g = Geometry(pos, config.bs_pos, config.initial_energy)
            heads = []
            for _ in range(20):
                round_heads = eecs_form_clusters(g, EecsParams(), rng).heads
                g.energy[round_heads] *= 0.5
                heads += round_heads
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(set(heads)) > 65  # more heads than the store holds
        assert peak < 4 * 2**20


class TestCentroidFormations:
    def test_kmeans_k1_max_energy_head(self):
        g = geom([(0, 0), (5, 5), (9, 0)], [0.2, 0.9, 0.4])
        cs, _ = kmeans_form_clusters(g, 1)
        assert cs.clusters[0].head == 1
        check_partition(cs, g)

    def test_kmeans_k_equals_n_singletons(self):
        cs, _ = kmeans_form_clusters(geom([(0, 0), (10, 0), (0, 10), (10, 10)]), 4)
        assert sorted(c.head for c in cs.clusters) == [0, 1, 2, 3]
        assert all(c.members == [] for c in cs.clusters)

    def test_kmeans_iterations_passthrough(self):
        from wsnsim.partitioning import kmeans_init, kmeans_run

        coords = [(i * 3 % 40, i * 7 % 40) for i in range(20)]
        cs, iterations = kmeans_form_clusters(geom(coords), 3)
        points = np.array(coords, dtype=float)
        assert iterations == kmeans_run(points, kmeans_init(points, np.ones(20), 3))[2]

    def test_fuzzy_k1_max_energy_head(self):
        g = geom([(0, 0), (5, 5), (9, 0)], [0.2, 0.9, 0.4])
        cs, iterations = fuzzy_form_clusters(g, FuzzyFormation(), 1, 0, np.random.default_rng(0))
        assert cs.clusters[0].head == 1
        assert iterations == 1

    def test_fuzzy_two_blobs_head_is_blob_max_energy(self):
        rng = np.random.default_rng(43)
        blob1 = [(float(x), float(y)) for x, y in rng.normal(0, 1.0, (6, 2))]
        blob2 = [(float(x) + 50, float(y)) for x, y in rng.normal(0, 1.0, (6, 2))]
        energies = [0.1, 0.9, 0.2, 0.3, 0.4, 0.5, 0.6, 0.2, 0.95, 0.3, 0.1, 0.2]
        g = geom(blob1 + blob2, energies)
        cs, _ = fuzzy_form_clusters(g, FuzzyFormation(), 2, 1, rng)
        heads = {c.head for c in cs.clusters}
        assert heads == {1, 8}  # max energy within each blob
        check_partition(cs, g)

    def test_fuzzy_equal_energy_tie_break(self):
        # equal energies: head is the member nearest its cluster centroid
        cs, _ = fuzzy_form_clusters(geom([(0, 0), (2, 0), (1, 0)]), FuzzyFormation(), 1, 0,
                                    np.random.default_rng(0))
        assert cs.clusters[0].head == 2  # centroid (1,0) is row 2's position
        # the distance only breaks ties on the most energy: row 2 is the
        # nearest to the centroid (1.125, 0), row 3 the nearest of the richest
        g = geom([(0, 0), (2, 0), (1, 0), (1.5, 0)], [0.5, 0.5, 0.4, 0.5])
        cs, _ = fuzzy_form_clusters(g, FuzzyFormation(), 1, 0, np.random.default_rng(0))
        assert cs.clusters[0].head == 3

    def test_k_above_alive_count_rejected(self):
        g = geom([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            kmeans_form_clusters(g, 3)
        with pytest.raises(ValueError):
            fuzzy_form_clusters(g, FuzzyFormation(), 3, 0, np.random.default_rng(0))

    # the CLI prints each message after "error: ", except for k = 0, which
    # its own range check refuses first ("k=0 outside 1..n_nodes=100 (k)")
    @pytest.mark.parametrize("cls, values, message, flags", [
        (FuzzyFormation, dict(k=0), "k must be >= 1", None),
        (FuzzyFormation, dict(m=1.0), "fuzzifier m must be finite and > 1, got 1.0",
         ["--fcm-m", "1.0"]),
        (FuzzyFormation, dict(m=float("inf")), "fuzzifier m must be finite and > 1, got inf",
         ["--fcm-m", "inf"]),
        (FuzzyFormation, dict(tol=0.0), "tol must be > 0", ["--fcm-tol", "0"]),
        (FuzzyFormation, dict(max_iter=0), "max_iter must be >= 1", ["--fcm-max-iter", "0"]),
        (KmeansFormation, dict(k=0), "k must be >= 1", None),
        (KmeansFormation, dict(max_iter=0), "max_iter must be >= 1", ["--fcm-max-iter", "0"]),
    ])
    def test_bad_params_rejected(self, cls, values, message, flags, tmp_path, capsys):
        with pytest.raises(ValueError) as exc:
            cls(**values)
        assert str(exc.value) == message
        if flags:
            argv = ["run", "--protocol", cls.name, *flags, "--out", str(tmp_path / "o")]
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_partitions_randomized(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(1, min(n, 6) + 1))
            g = geom([tuple(rng.uniform(0, 100, 2)) for _ in range(n)],
                     list(rng.uniform(0.01, 1.0, n)))
            cs1, _ = kmeans_form_clusters(g, k)
            check_partition(cs1, g)
            cs2, _ = fuzzy_form_clusters(g, FuzzyFormation(), k, int(rng.integers(2**32)), rng)
            check_partition(cs2, g)


class TestDeterminism:
    def test_all_protocols_deterministic(self):
        cfg = NetworkConfig(seed=77)
        for make_rng in (lambda: np.random.default_rng(3),):
            pos_a = deploy_nodes(cfg)
            pos_b = deploy_nodes(cfg)
            energy = cfg.initial_energy
            la = leach_elect(geom(pos_a, energy), LeachParams(), 4, make_rng())
            lb = leach_elect(geom(pos_b, energy), LeachParams(), 4, make_rng())
            assert la == lb
            ea = eecs_form_clusters(geom(pos_a, energy, cfg.bs_pos), EecsParams(), make_rng())
            eb = eecs_form_clusters(geom(pos_b, energy, cfg.bs_pos), EecsParams(), make_rng())
            assert [(c.head, c.members) for c in ea.clusters] == [
                (c.head, c.members) for c in eb.clusters
            ]
