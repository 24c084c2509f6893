import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wsnsim import model, partitioning, protocols
from wsnsim.engine import FORMATIONS, PROTOCOLS, KmeansFormation, SimState, run_simulation
from wsnsim.model import NetworkConfig, deploy_nodes
from wsnsim.partitioning import (
    FcmUnderflow,
    defuzzify,
    fcm_init,
    fcm_run,
    kmeans_init,
    kmeans_run,
    _Workspace,
)
from wsnsim.protocols import FuzzyFormation, Geometry, fuzzy_form_clusters, kmeans_form_clusters

from shared import best_split, count_calls, count_hypot, hard_objective


def pts(*coords):
    """An (n, 2) float array of the given (x, y) pairs."""
    return np.array(coords, dtype=float).reshape(-1, 2)


def memberships(points, centroids, p):
    """The kernel's membership step with exponent p for one run, indexed (n, k)."""
    k, n = len(centroids), len(points)
    return _Workspace(points, k, centroids).fcm_memberships(p, np.empty((1, k, n)))[0].T


def weighted_centroids(points, u, m):
    """The kernel's centroid step for one run from memberships u (n, k), as (k, 2)."""
    ws = _Workspace(points, u.shape[1], fuzzy=True)
    ws.u[0, 0] = u.T
    return ws.fcm_centroids(0, m)[:, 0].T


def kmeans_from_energy(points, energy, k, max_iter=100):
    """k-means from the energy-ranked init, as the k-means formation runs it."""
    return kmeans_run(points, kmeans_init(points, np.asarray(energy, dtype=float), k), max_iter)


def assert_memberships(u, tol=1e-9):
    """Membership rows lie in [0, 1] and sum to 1."""
    assert u.ndim == 2
    assert not np.any(u < -tol) and not np.any(u > 1 + tol), "membership outside [0, 1]"
    assert not np.any(np.abs(u.sum(axis=1) - 1.0) > tol), "membership row does not sum to 1"


# --- oracles: per-cluster loops the array steps must match bit for bit -------


def squared_distances_loop(points, centroids):
    return np.array([
        [(px - cx) * (px - cx) + (py - cy) * (py - cy)
         for cx, cy in centroids.tolist()]
        for px, py in points.tolist()
    ]).reshape(len(points), len(centroids))


def kmeans_update_loop(points, assignment, previous):
    centroids = previous.copy()
    for j in range(len(previous)):
        mask = assignment == j
        if mask.any():
            centroids[j] = points[mask].mean(axis=0)
    return centroids


def fcm_centroids_loop(points, u, m):
    w = u**m
    totals = w.sum(axis=0)
    centroids = np.empty((u.shape[1], 2))
    for j in range(u.shape[1]):
        if totals[j] > 0:
            centroids[j] = (w[:, j, None] * points).sum(axis=0) / totals[j]
        else:
            centroids[j] = points.mean(axis=0)
    return centroids


def fcm_memberships_loop(points, centroids, m):
    u = np.empty((len(points), len(centroids)))
    for i, d2 in enumerate(squared_distances_loop(points, centroids)):
        hits = d2 == 0.0
        if hits.any():
            u[i] = hits / hits.sum()
        else:
            w = d2 ** (-1.0 / (m - 1.0))
            u[i] = w / w.sum()
    return u


# small integers make coincident points and centroids likely
coordinates = st.one_of(
    st.integers(0, 6).map(float), st.floats(0, 100, allow_nan=False, allow_infinity=False)
)
fuzzifiers = st.sampled_from([1.5, 2.0, 3.0])


# k reaches 20: numpy sums a membership row in order below k = 8 and
# pairwise from 8, and the kernels repeat both
@st.composite
def points_and_centroids(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 20))
    points = draw(arrays(np.float64, (n, 2), elements=coordinates))
    centroids = draw(arrays(np.float64, (k, 2), elements=coordinates))
    for j in range(k):  # some centroids sit exactly on a point
        if draw(st.booleans()):
            centroids[j] = points[draw(st.integers(0, n - 1))]
    return points, centroids


@st.composite
def points_and_memberships(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 20))
    points = draw(arrays(np.float64, (n, 2), elements=coordinates))
    u = draw(arrays(np.float64, (n, k), elements=st.floats(0, 1)))
    for j in range(k):  # all-zero columns take the global-mean fallback
        if draw(st.booleans()):
            u[:, j] = 0.0
    return points, u


@st.composite
def points_and_assignment(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 20))  # k above the used labels leaves clusters empty
    points = draw(arrays(np.float64, (n, 2), elements=coordinates))
    assignment = draw(arrays(np.intp, n, elements=st.integers(0, k - 1)))
    previous = draw(arrays(np.float64, (k, 2), elements=coordinates))
    return points, assignment, previous


class TestArrayStepsMatchLoops:
    @settings(max_examples=300, deadline=None)
    @given(points_and_assignment())
    def test_kmeans_update(self, case):
        points, assignment, previous = case
        ws = _Workspace(points, len(previous), previous)
        moved = ws.kmeans_update(assignment)
        expected = kmeans_update_loop(points, assignment, previous)
        assert np.array_equal(ws.c[:, 0].T, expected)
        if moved is not None:  # from k = 8: the centroids whose value changed
            assert moved.tolist() == np.flatnonzero((expected != previous).any(axis=1)).tolist()

    @settings(max_examples=300, deadline=None)
    @given(points_and_centroids())
    def test_kmeans_assign(self, case):
        points, centroids = case
        expected = squared_distances_loop(points, centroids).argmin(axis=1)
        got = _Workspace(points, len(centroids), centroids).distances()[0].argmin(axis=0)
        assert np.array_equal(got, expected)

    @settings(max_examples=300, deadline=None)
    @given(points_and_memberships(), fuzzifiers)
    # numpy sums a weight column of (n, 1) pairwise: the four 2**-54 weights
    # summed as a group survive against 1.0, where added one by one they vanish
    @example((pts(*[(1.0, 2.0)] * 12), np.array([[1.0]] + [[2.0**-27]] * 11)), 2.0)
    def test_fcm_centroids(self, case, m):
        points, u = case
        got = weighted_centroids(points, u, m)
        assert np.array_equal(got, fcm_centroids_loop(points, u, m))

    @settings(max_examples=300, deadline=None)
    @given(points_and_centroids(), fuzzifiers)
    def test_fcm_memberships(self, case, m):
        points, centroids = case
        # a distance of ~1e-160 overflows d2**-1 on both sides alike
        with np.errstate(over="ignore", invalid="ignore"):
            got = memberships(points, centroids, -1.0 / (m - 1.0))
            expected = fcm_memberships_loop(points, centroids, m)
        assert np.array_equal(got, expected, equal_nan=True)

    # below k = 8 every centroid is recomputed; from 8 the step also returns
    # the ones that moved. With every cluster filled the means take one divide
    @pytest.mark.parametrize("k", [3, 8, 12])
    @pytest.mark.parametrize("empty", [True, False])
    def test_kmeans_update_with_an_empty_cluster(self, k, empty):
        rng = np.random.default_rng(k)
        points = rng.uniform(0, 100, (40, 2))
        labels = k - 1 if empty else k  # cluster k - 1 gets no point when empty
        assignment = rng.permutation(np.arange(40) % labels)
        previous = rng.uniform(0, 100, (k, 2))
        previous[0] = points[assignment == 0].mean(axis=0)  # a centroid that stays
        ws = _Workspace(points, k, previous)
        moved = ws.kmeans_update(assignment)
        expected = kmeans_update_loop(points, assignment, previous)
        assert ws.c[:, 0].T.tobytes() == expected.tobytes()
        if k < 8:
            assert moved is None
        else:
            assert moved.tolist() == list(range(1, labels))

    def test_previous_centroids_are_not_modified(self):
        previous = pts((9, 9), (7, 7))
        _Workspace(pts((3, 4)), 2, previous).kmeans_update(np.array([0]))
        assert previous.tolist() == [[9, 9], [7, 7]]


# acceptance criterion 4's sweep: deployments of the default scenario at
# seeds 0-9, cluster counts 10..100, FCM with m=2, tol=1e-4, max_iter=100
CRITERION4_SEEDS = range(10)
CRITERION4_GRID = range(10, 101, 10)


def criterion4_cell(seed):
    """Positions and energies of one criterion-4 deployment, and the
    generator that placed them."""
    rng = np.random.default_rng(seed)
    config = NetworkConfig(seed=seed)
    points = deploy_nodes(config, rng)
    return points, np.full(len(points), config.initial_energy), rng


def fcm_pairs(points, u, params):
    """Centroids+memberships pairs of the loop oracles from memberships ``u``
    until the first pair that moves no membership by tol or more, or until
    max_iter pairs.

    Returns (pairs performed, final memberships, final centroids).
    """
    for pair in range(1, params.max_iter + 1):
        centroids = fcm_centroids_loop(points, u, params.m)
        u_new = fcm_memberships_loop(points, centroids, params.m)
        if np.abs(u_new - u).max() < params.tol:
            return pair, u_new, centroids
        u = u_new
    return params.max_iter, u, centroids


def kmeans_updates(points, energy, k, max_iter):
    """Assign+update pairs of the loop oracles from the energy-ranked init
    until the assignment repeats, or until max_iter pairs.

    Returns the assignment of each update step performed, and the centroids.
    """
    centroids = kmeans_init(points, energy, k)
    assignments = []
    while len(assignments) < max_iter:
        assignment = squared_distances_loop(points, centroids).argmin(axis=1)
        if assignments and np.array_equal(assignment, assignments[-1]):
            break
        centroids = kmeans_update_loop(points, assignment, centroids)
        assignments.append(assignment)
    return assignments, centroids


class TestKmeansInit:
    def test_picks_highest_energy(self):
        cents = kmeans_init(pts((0, 0), (1, 0), (2, 0), (3, 0)), np.array([5, 3, 9, 1.0]), 2)
        assert cents.tolist() == [[2, 0], [0, 0]]  # energy 9, then 5

    def test_ties_break_to_lower_id(self):
        # rows are in id order, so the lower index is the lower id
        cents = kmeans_init(pts((0, 0), (1, 0), (2, 0)), np.ones(3), 2)
        assert cents.tolist() == [[0, 0], [1, 0]]

    def test_k_equals_alive_count(self):
        cents = kmeans_init(pts((0, 0), (1, 1)), np.ones(2), 2)
        assert {tuple(c) for c in cents.tolist()} == {(0, 0), (1, 1)}

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            kmeans_init(pts((0, 0)), np.ones(1), 2)

    def test_dead_nodes_excluded(self):
        # the formation seeds from alive nodes only: (1,0) and (10,0) stay
        # apart, where a seed at the dead node (0,0) would have left both
        # alive nodes with the seed at (1,0)
        geom = Geometry([(0, 0), (1, 0), (10, 0)], (50, 175), [0.0, 1.0, 0.5])
        cs, _ = kmeans_form_clusters(geom, 2)
        assert [(c.head, c.members) for c in cs.clusters] == [(1, []), (2, [])]


# one Lloyd step: kmeans_run capped at one step returns the assignment to the
# initial centroids and the centroids updated from it
class TestKmeansAssign:
    def test_tie_goes_to_lower_index(self):
        assert kmeans_run(pts((0.5, 0)), pts((0, 0), (1, 0)), 1)[0].tolist() == [0]

    def test_single_centroid(self):
        assert kmeans_run(pts((0, 0), (9, 9)), pts((4, 4)), 1)[0].tolist() == [0, 0]

    def test_nearest_by_inspection(self):
        assignment, _, _ = kmeans_run(pts((0, 0), (10, 0)), pts((1, 0), (9, 0)), 1)
        assert assignment.tolist() == [0, 1]

    def test_empty_centroids(self):
        with pytest.raises(ValueError, match="at least one centroid"):
            kmeans_run(pts((0, 0)), pts())


class TestKmeansUpdate:
    def test_mean(self):
        _, cents, _ = kmeans_run(pts((0, 0), (2, 0)), pts((9, 9)), 1)
        assert cents.tolist() == [[1, 0]]

    # (3, 4) lies 5 from both centroids, so it joins centroid 0 and 1 is empty
    def test_singleton(self):
        _, cents, _ = kmeans_run(pts((3, 4)), pts((0, 0), (7, 7)), 1)
        assert cents[0].tolist() == [3, 4]

    def test_empty_cluster_keeps_previous(self):
        _, cents, _ = kmeans_run(pts((3, 4)), pts((0, 0), (7, 7)), 1)
        assert cents[1].tolist() == [7, 7]


class TestKmeansRun:
    def test_unit_square_from_bottom_corners(self):
        # energies steer the max-energy init onto the two bottom corners
        points = pts((0, 0), (1, 0), (0, 1), (1, 1))
        assignment, centroids, iterations = kmeans_from_energy(points, [4, 3, 2, 1], 2)
        assert iterations <= 2
        assert {tuple(c) for c in centroids.tolist()} == {(0.0, 0.5), (1.0, 0.5)}
        best, _ = best_split(points)
        assert hard_objective(points, assignment) == pytest.approx(best, rel=1e-12)

    def test_k1_single_iteration_global_mean(self):
        _, centroids, iterations = kmeans_from_energy(pts((0, 0), (2, 0), (4, 6)), [1, 1, 1], 1)
        assert iterations == 1
        assert centroids.tolist() == [[2.0, 2.0]]

    def test_k_equals_n_zero_objective(self):
        points = pts((0, 0), (5, 0), (0, 5), (7, 7))
        assignment, _, _ = kmeans_from_energy(points, [1] * 4, 4)
        assert hard_objective(points, assignment) == pytest.approx(0.0, abs=1e-12)
        # each point owns its own centroid per the brute-force argument
        assert sorted(assignment.tolist()) == [0, 1, 2, 3]

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(5, 30))
            k = int(rng.integers(1, min(n, 6)))
            points = pts(*[tuple(rng.uniform(0, 100, 2)) for _ in range(n)])
            energy = rng.uniform(0.1, 1.0, n)
            assignment, _, _ = kmeans_from_energy(points, energy, k)
            assignments, _ = kmeans_updates(points, energy, k, max_iter=100)
            assert np.array_equal(assignments[-1], assignment)
            history = [hard_objective(points, a) for a in assignments]
            for a, b in zip(history, history[1:]):
                assert b <= a + 1e-9

    def test_explicit_init_override(self):
        _, centroids, _ = kmeans_run(pts((0, 0), (1, 0), (0, 1), (1, 1)), pts((0, 0), (1, 0)))
        assert {tuple(c) for c in centroids.tolist()} == {(0.0, 0.5), (1.0, 0.5)}

    def test_rejects_zero_iteration_cap(self):
        with pytest.raises(ValueError, match="max_iter"):
            kmeans_run(pts((0, 0), (1, 0)), pts((0, 0)), max_iter=0)

    # at k=30 four update steps move a single node before the assignment repeats
    @pytest.mark.parametrize("k, max_iter", [(10, 100), (30, 100), (50, 100), (10, 3)])
    def test_count_is_update_steps_until_assignment_repeats(self, k, max_iter):
        points, energy, _ = criterion4_cell(0)
        assignments, centroids = kmeans_updates(points, energy, k, max_iter)
        steps, assignment = len(assignments), assignments[-1]
        got_assignment, got_centroids, iterations = kmeans_from_energy(points, energy, k,
                                                                       max_iter=max_iter)
        assert iterations == steps
        assert np.array_equal(got_assignment, assignment)
        assert np.array_equal(got_centroids, centroids)
        if steps < max_iter:
            # stopped by the rule: the final centroids reproduce the assignment
            assert np.array_equal(kmeans_run(points, centroids, 1)[0], assignment)

    def test_oracle_equivalence_small_instances(self):
        # from the optimal partition's centroids, the run must attain the
        # brute-force optimal objective
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 13))
            points = pts(*[tuple(rng.uniform(0, 100, 2)) for _ in range(n)])
            best, mask = best_split(points)
            init = np.array([points[mask].mean(axis=0), points[~mask].mean(axis=0)])
            assignment, _, _ = kmeans_run(points, init)
            assert hard_objective(points, assignment) <= best * (1 + 1e-6) + 1e-9


# seeds whose 4k random points (see reuse_network) empty a cluster that had
# points at the step before, found by search
EMPTYING_SEED = {8: 468, 13: 321, 50: 14}


def reuse_network(kind, k):
    """Points and energies of one network for the moved-centroid reuse tests."""
    if kind == "ties":
        # each point of a 9 x 9 grid twice in a row: the richest rows are the
        # even grid points, so the init puts two centroids on each (the second
        # never gets a point), and the odd ones lie equidistant from two or four
        grid = np.array([(x, y) for y in range(0, 90, 10) for x in range(0, 90, 10)], dtype=float)
        even = (grid[:, 0] % 20 == 0) & (grid[:, 1] % 20 == 0)
        return np.repeat(grid, 2, axis=0), np.repeat(np.where(even, 1.0, 0.5), 2)
    rng = np.random.default_rng(EMPTYING_SEED[k] if kind == "emptying" else k)
    # singletons: k = n, so each centroid starts on its point and none moves
    n = {"emptying": 4 * k, "singletons": k}.get(kind, 200)
    return rng.uniform(0, 100, (n, 2)), rng.uniform(0.1, 1.0, n)


class TestMovedCentroidReuse:
    """From k = 8 a Lloyd step recomputes only the distance rows of the
    centroids that moved; every output must match the loop oracles."""

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 100])
    @pytest.mark.parametrize("kind", ["random", "ties", "emptying", "singletons"])
    @pytest.mark.parametrize("k", [8, 13, 50])
    def test_matches_full_recompute(self, monkeypatch, k, kind, max_iter):
        points, energy = reuse_network(kind, k)
        assignments, centroids = kmeans_updates(points, energy, k, max_iter)
        calls, exact = [], _Workspace.distances

        def distances(self, moved=None):
            calls.append(moved)
            return exact(self, moved)

        monkeypatch.setattr(_Workspace, "distances", distances)
        assignment, got_centroids, iterations = kmeans_from_energy(points, energy, k,
                                                                   max_iter=max_iter)
        assert iterations == len(assignments)
        assert np.array_equal(assignment, assignments[-1])
        assert got_centroids.tobytes() == centroids.tobytes()
        if max_iter < 100:
            return
        # the networks hold what they are meant to, and the partial rows ran
        if kind == "singletons":
            assert [len(m) for m in calls[1:]] == [0]
            return
        assert any(m is not None and 0 < 2 * len(m) <= k for m in calls)
        counts = [np.bincount(a, minlength=k) for a in assignments]
        if kind == "emptying":
            assert any(((a > 0) & (b == 0)).any() for a, b in zip(counts, counts[1:]))
        if kind == "ties":
            init = kmeans_init(points, energy, k)
            d2 = squared_distances_loop(points, init)
            nearest = [{tuple(c) for c in init[row == row.min()].tolist()} for row in d2]
            assert any(len(s) > 1 for s in nearest)  # equidistant from two places
            assert (counts[0] == 0).any()  # a centroid on a duplicate stays empty

    def test_distance_rows_on_dense_1000(self, monkeypatch):
        # the 20 rounds of dense-1000 (n = 1000, k = 50, seed 1) take 425 Lloyd
        # steps and 445 distance blocks: 22 250 rows when each block computes
        # all 50; about 42% of the centroids move in a step, and 11 439 rows
        # are computed when only theirs are
        rows = [0]

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def add(self, x, *args, **kwargs):  # dx*dx + dy*dy, once per distance block
                if x.dtype.kind == "f":  # not the update's integer bins
                    rows[0] += x.size // x.shape[-1]
                return np.add(x, *args, **kwargs)

        monkeypatch.setattr(partitioning, "np", CountingNumpy())
        run_simulation(NetworkConfig(n_nodes=1000, seed=1), KmeansFormation(), 20)
        assert 0 < rows[0] <= 11_500

    def test_peak_memory_at_n_1000(self):
        # the (3, k, n) work planes take 1.2 MB at k = 50 and numpy's ufunc
        # buffers about 130 kB more; the moved rows reuse plane 1's memory, where
        # a fresh (2, m, n) block would add 16 kB per moved centroid
        points = deploy_nodes(NetworkConfig(n_nodes=1000, seed=1))
        init = kmeans_init(points, np.ones(len(points)), 50)
        plane = 50 * len(points) * 8
        tracemalloc.start()
        try:
            _, _, iterations = kmeans_run(points, init)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert iterations > 2
        assert peak < 3.5 * plane


class TestNoSquareRoot:
    """k-means, fuzzy c-means, HEED's geometry and every formation but EECS,
    whose cost alone takes a root, read squared distances only: no call of
    theirs reaches np.sqrt. No formation, and no greedy thinning (EECS's
    suppression, head separation), calls math.hypot."""

    @pytest.fixture(autouse=True)
    def no_sqrt(self, monkeypatch):
        class NoSqrtNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def sqrt(self, *args, **kwargs):
                raise AssertionError("np.sqrt called")

        for module in (partitioning, protocols, model):
            monkeypatch.setattr(module, "np", NoSqrtNumpy())

    @pytest.mark.parametrize("k", [5, 50])  # whole blocks; moved rows only
    def test_kmeans_run(self, k):
        points = deploy_nodes(NetworkConfig(n_nodes=1000, seed=1))
        _, _, iterations = kmeans_from_energy(points, np.ones(len(points)), k)
        assert iterations > 2

    def test_fcm_run(self):
        points, _, rng = criterion4_cell(0)
        seeds = [int(s) for s in rng.integers(0, 2**63, size=4)]
        assert None not in fcm_run(points, 10, seeds)
        # seed 2's centroids land on their points, which takes the guarded pair
        assert None not in fcm_run(pts((0, 0), (100, 0), (0, 100)), 3, [0, 2], tol=1e-300)

    def test_heed_geometry(self):
        pos = np.random.default_rng(3).uniform(0, 100, (300, 2))  # several row blocks
        in_range, _ = protocols.heed_geometry(pos, 20.0)
        assert in_range.any()

    @pytest.mark.parametrize("n", [100, 300])  # the gathered d2 block; computed ones
    @pytest.mark.parametrize("formation", ["nearest", "heed", "kmeans", "fuzzy"])
    def test_formation(self, monkeypatch, formation, n):
        # LEACH's join and HEED's fallback read Geometry.block (HEED's 5 m
        # radius leaves nodes no head reaches); at equal energies every
        # centroid head is a tie on dx*dx + dy*dy. None calls math.hypot
        geom = Geometry(deploy_nodes(NetworkConfig(n_nodes=n, seed=1)), (50.0, 175.0), 1.0)
        rng = np.random.default_rng(n)
        hypots = count_hypot(monkeypatch)
        blocks = count_calls(monkeypatch, Geometry, "block")
        if formation == "nearest":
            cs = protocols.form_clusters_nearest(geom, set(range(0, n, 20)))
        elif formation == "heed":
            cs, _ = protocols.heed_form_clusters(geom, protocols.HeedParams(cluster_radius=5.0),
                                                 rng)
        elif formation == "kmeans":
            cs, _ = kmeans_form_clusters(geom, 5)
        else:
            cs, _ = fuzzy_form_clusters(geom, FuzzyFormation(), 5, rng)
        assert blocks[0] == (formation in ("nearest", "heed"))
        assert sum(1 + len(c.members) for c in cs.clusters) == n
        assert not hypots

    @pytest.mark.parametrize("n", [100, 300])  # below and past the table's size rule
    @pytest.mark.parametrize("protocol,sep", [("leach", 35.0), ("heed", 35.0),
                                              ("eecs", 0.0), ("eecs", 35.0)])
    def test_thinning_formation(self, monkeypatch, protocol, sep, n):
        # EECS's suppression and head separation compare dx*dx + dy*dy, as the
        # engine forms them over five rounds: no math.hypot, and no root but
        # the one EECS's cost takes per formation
        config = NetworkConfig(n_nodes=n, seed=1)
        state = SimState(geometry=Geometry(deploy_nodes(config), config.bs_pos, 1.0),
                         config=config)
        params = PROTOCOLS[protocol](ch_separation=sep)
        monkeypatch.setattr(protocols.np, "sqrt", np.sqrt)
        roots = count_calls(monkeypatch, protocols.np, "sqrt")
        hypots = count_hypot(monkeypatch)
        for r in range(5):
            state.round = r
            cs, _ = FORMATIONS[type(params)](state, params, n)
            assert sum(1 + len(c.members) for c in cs.clusters) == n
        assert roots[0] == 5 * (protocol == "eecs")
        assert not hypots

    @pytest.mark.parametrize("n", [100, 300])
    def test_enforce_ch_separation(self, monkeypatch, n):
        geom = Geometry(deploy_nodes(NetworkConfig(n_nodes=n, seed=1)), (50.0, 175.0), 1.0)
        hypots = count_hypot(monkeypatch)
        heads = set(range(0, n, 5))
        assert len(protocols.enforce_ch_separation(geom, heads, 35.0)) < len(heads)
        assert not hypots


class TestFcmInit:
    def test_rows_sum_to_one(self):
        assert_memberships(fcm_init(17, 4, seed=3))

    def test_deterministic(self):
        assert np.array_equal(fcm_init(8, 3, seed=5), fcm_init(8, 3, seed=5))

    def test_k1_all_ones(self):
        assert np.all(fcm_init(6, 1, seed=0) == 1.0)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            fcm_init(0, 2, seed=0)

    def test_all_zero_row_takes_equal_memberships(self, monkeypatch):
        # no seed is known to draw a row of zeros, so the generator is shimmed
        # to zero row 2 of the seed's draws
        expected = fcm_init(5, 4, seed=3)
        keep = np.array([[1.0], [1.0], [0.0], [1.0], [1.0]])

        def zero_row_rng(seed):
            draws = np.random.default_rng(seed).random
            return types.SimpleNamespace(random=lambda size: draws(size) * keep)

        class ZeroRowNumpy:
            random = types.SimpleNamespace(default_rng=zero_row_rng)

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(partitioning, "np", ZeroRowNumpy())
        got = fcm_init(5, 4, seed=3)
        assert got[2].tolist() == [0.25] * 4
        assert got[[0, 1, 3, 4]].tobytes() == expected[[0, 1, 3, 4]].tobytes()


# the kernel's FCM steps: memberships and weights indexed (k, n), and at
# m = 2 a membership step takes the squared distances' exponent -1/(m-1) = -1
class TestFcmCentroids:
    def test_equal_memberships_give_global_mean(self):
        cents = weighted_centroids(pts((0, 0), (2, 0), (4, 6)), np.full((3, 2), 0.5), 2.0)
        assert cents.tolist() == [[2.0, 2.0], [2.0, 2.0]]

    def test_one_hot_recovers_point(self):
        cents = weighted_centroids(pts((3, 4), (8, 8)), np.eye(2), 2.0)
        assert cents.tolist() == [[3, 4], [8, 8]]

    def test_hand_evaluated_weighted_mean(self):
        # 1-D points {0, 2}, memberships to cluster j {0.9, 0.1}, m=2:
        # (0.81*0 + 0.01*2) / 0.82 = 0.024390...
        u = np.array([[0.9, 0.1], [0.1, 0.9]])
        cents = weighted_centroids(pts((0, 0), (2, 0)), u, 2.0)
        assert cents[0, 0] == pytest.approx(0.02 / 0.82, rel=1e-12)
        assert cents[0, 1] == 0.0

    def test_zero_column_falls_back_to_mean(self):
        u = np.array([[1.0, 0.0], [1.0, 0.0]])
        cents = weighted_centroids(pts((0, 0), (4, 0)), u, 2.0)
        assert cents[1].tolist() == [2.0, 0.0]


class TestFcmMemberships:
    def test_coincident_point_gets_full_membership(self):
        u = memberships(pts((1, 3)), pts((1, 3), (9, 9)), -1.0)
        assert u.tolist() == [[1.0, 0.0]]

    def test_coincident_with_two_centroids_splits(self):
        u = memberships(pts((1, 3)), pts((1, 3), (1, 3), (9, 9)), -1.0)
        assert u.tolist() == [[0.5, 0.5, 0.0]]

    def test_equidistant_splits_evenly(self):
        u = memberships(pts((0.5, 0)), pts((0, 0), (1, 0)), -1.0)
        assert u[0] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_hand_evaluated_inverse_square(self):
        # x=0 with centroids at 1 and 3, m=2: u = (0.9, 0.1)
        u = memberships(pts((0, 0)), pts((1, 0), (3, 0)), -1.0)
        assert u[0] == pytest.approx([0.9, 0.1], rel=1e-12)

    def test_rows_sum_to_one_randomized(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            k = int(rng.integers(1, 6))
            points = pts(*[rng.uniform(0, 100, 2) for _ in range(n)])
            cents = pts(*[rng.uniform(0, 100, 2) for _ in range(k)])
            u = memberships(points, cents, -1.0)
            assert_memberships(u)

    def test_nearest_centroid_gets_strict_row_max(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            points = pts(rng.uniform(0, 100, 2))
            cents = pts(*[rng.uniform(0, 100, 2) for _ in range(4)])
            d = [math.hypot(*(points[0] - c)) for c in cents]
            order = sorted(range(4), key=lambda j: d[j])
            if math.isclose(d[order[0]], d[order[1]]):
                continue
            u = memberships(points, cents, -1.0)
            assert u[0].argmax() == order[0]
            assert u[0][order[0]] > max(v for j, v in enumerate(u[0]) if j != order[0])

    def test_invalid_fuzzifier(self):
        # the exponent -1/(m-1) needs m > 1; FuzzyFormation checks it
        with pytest.raises(ValueError, match="fuzzifier m"):
            FuzzyFormation(m=1.0)


class TestFcmRun:
    def test_k1_converges_immediately(self):
        u, cents, iterations = fcm_run(pts((0, 0), (2, 0), (4, 6)), 1, [0])[0]
        assert iterations == 1
        assert cents.tolist() == [[2.0, 2.0]]
        assert np.all(u == 1.0)

    def test_no_points_rejected(self):
        with pytest.raises(ValueError, match="^at least one point required$"):
            fcm_run(np.empty((0, 2)), 2, [1])

    def test_infinite_tol_single_iteration(self):
        points = pts((0, 0), (5, 5), (9, 0))
        _, _, iterations = fcm_run(points, 2, [1], tol=math.inf)[0]
        assert iterations == 1

    def test_fuzzifier_near_one_raises(self):
        # d2 ** -1000 underflows to 0 for every distance above about 1.4, so
        # each row is 0/0; m = 1.5 (exponent -2) is fine on the same points
        points = pts((0, 0), (30, 5), (60, 60), (90, 10))
        with pytest.raises(FcmUnderflow, match="fuzzifier m=1.001"):
            fcm_run(points, 2, [0], m=1.001)
        u, _, _ = fcm_run(points, 2, [0], m=1.5)[0]
        assert not np.isnan(u).any()

    def test_point_next_to_a_centroid_overflows(self):
        # at this scale d2 ** -1 overflows for any m = 2 distance, so each row
        # is inf/inf; the message names the distance, not the fuzzifier
        points = pts((0, 0), (3, 1), (1, 4), (4, 4)) * 1e-160
        with pytest.raises(FcmUnderflow, match="from a centroid.*overflows with m=2.0"):
            fcm_run(points, 2, [0])

    def test_all_zero_membership_row_raises(self):
        # finite weights whose sum overflows make a row of x/inf = 0, not
        # NaN; of these 800 small sets, 31 once came back with such a row
        for seed in range(800):
            points = np.random.default_rng(seed).uniform(0, 3e-154, (6, 2))
            try:
                u, _, _ = fcm_run(points, 2, [seed], max_iter=5)[0]
            except FcmUnderflow:
                continue
            assert (u.max(axis=1) > 0).all()

    def test_overflow_is_told_from_the_weight_sum(self, monkeypatch):
        # one row's weights d2 ** -1 are both about 1.2e308, finite, and only
        # their sum overflows: the message names the distance, not the fuzzifier
        points = np.random.default_rng(12).uniform(0, 3e-154, (6, 2))
        blocks, exact = [], _Workspace.distances

        def distances(self, moved=None):
            d = exact(self, moved)
            blocks.append(d[0].copy())  # one run: its (k, n) block, before the weights
            return d

        monkeypatch.setattr(_Workspace, "distances", distances)
        with pytest.raises(FcmUnderflow, match="from a centroid: the sum .* overflows with m=2.0") as e:
            fcm_run(points, 2, [12], max_iter=5)
        # the distance named is in metres, the root of the least d2 between a
        # centroid and a point whose weight sum overflowed, not that d2
        d2 = blocks[-1]
        with np.errstate(over="ignore"):
            bad = np.isinf((d2 ** -1.0).sum(axis=0))
        told = str(e.value).split()[3]
        assert told == f"{math.sqrt(d2[:, bad].min()):.3g}" != f"{d2[:, bad].min():.3g}"

    def test_deterministic_per_seed(self):
        points = pts(*[(float(i), float(i % 3)) for i in range(9)])
        r1 = fcm_run(points, 3, [21])[0]
        r2 = fcm_run(points, 3, [21])[0]
        assert np.array_equal(r1[0], r2[0])
        assert r1[2] == r2[2]

    def test_two_blobs_match_brute_force(self):
        rng = np.random.default_rng(23)
        for trial in range(10):
            n1 = int(rng.integers(2, 7))
            n2 = int(rng.integers(2, 7))
            blob1 = [rng.normal(0, 1.5, 2) for _ in range(n1)]
            blob2 = [rng.normal(40, 1.5, 2) for _ in range(n2)]
            points = pts(*blob1, *blob2)
            u, _, _ = fcm_run(points, 2, [trial])[0]
            best, _ = best_split(points)
            assert hard_objective(points, defuzzify(u)) == pytest.approx(best, rel=1e-6)

    @pytest.mark.parametrize("k, max_iter", [(10, 100), (50, 100), (10, 5)])
    def test_count_is_first_pair_below_tol(self, k, max_iter):
        points, _, rng = criterion4_cell(0)
        params, seed = FuzzyFormation(max_iter=max_iter), int(rng.integers(0, 2**63))
        pairs, u, centroids = fcm_pairs(points, fcm_init(len(points), k, seed), params)
        got_u, got_centroids, iterations = fcm_run(points, k, [seed], max_iter=max_iter)[0]
        assert iterations == pairs
        assert np.array_equal(got_u, u)
        assert np.array_equal(got_centroids, centroids)

    def test_point_becomes_coincident_partway(self):
        # with the points 100 m apart, each pair takes a centroid's gap to its
        # point to about the fourth power (in units of 100 m): within a few
        # pairs the gap underflows and the centroid lands exactly on its
        # point, whose memberships then take the equal-split rule
        points = pts((0, 0), (100, 0), (0, 100))
        params = FuzzyFormation(tol=1e-300)
        u0 = fcm_init(3, 3, 0)
        assert squared_distances_loop(points, fcm_centroids_loop(points, u0, params.m)).all()
        pairs, u, centroids = fcm_pairs(points, u0, params)
        assert not squared_distances_loop(points, centroids).all()
        got_u, got_centroids, iterations = fcm_run(points, 3, [0], tol=1e-300)[0]
        assert (iterations, got_u.tobytes(), got_centroids.tobytes()) == (
            pairs, u.tobytes(), centroids.tobytes())

    def test_negative_and_negative_zero_coordinates(self):
        # every x is -0.0 and the y's are at or below 0: the centroids' x sums
        # of -0.0 terms start from +0.0 as the oracle's reduce does, so the
        # bytes match, sign of zero included
        points = pts((-0.0, -3.0), (-0.0, -0.0), (-0.0, -12.5), (-0.0, -1.0), (-0.0, -7.0))
        for k, m in ((1, 2.0), (2, 2.0), (3, 3.0)):
            pairs, u, centroids = fcm_pairs(points, fcm_init(5, k, k), FuzzyFormation(m=m))
            got_u, got_centroids, iterations = fcm_run(points, k, [k], m=m)[0]
            assert (iterations, got_u.tobytes(), got_centroids.tobytes()) == (
                pairs, u.tobytes(), centroids.tobytes())
            assert not np.signbit(got_centroids[:, 0]).any()

    def test_membership_rows_stay_normalized(self):
        rng = np.random.default_rng(29)
        points = pts(*[rng.uniform(0, 50, 2) for _ in range(30)])
        u, _, _ = fcm_run(points, 4, [3])[0]
        assert_memberships(u)


class TestFcmBatch:
    """Runs side by side in one batch give, bit for bit, what each gives alone
    and what the loop oracles give: memberships, centroids and pair counts."""

    @staticmethod
    def assert_batch_is_its_runs(points, k, seeds, params):
        batch = fcm_run(points, k, seeds, params.m, params.tol, params.max_iter)
        counts = []
        for seed, got in zip(seeds, batch):
            pairs, u, centroids = fcm_pairs(points, fcm_init(len(points), k, seed), params)
            alone = fcm_run(points, k, [seed], params.m, params.tol, params.max_iter)[0]
            for run in (got, alone):
                assert (run[2], run[0].tobytes(), run[1].tobytes()) == (
                    pairs, u.tobytes(), centroids.tobytes()), seed
            counts.append(pairs)
        return counts

    # k = 1 sums its weight column pairwise; k = 8 and 12 lie along the centroids;
    # at k = 1 and 3 the weight sums move from the reduce over the points to
    # the accumulate along them once fewer than 8 // k runs are left
    @pytest.mark.parametrize("k, max_iter", [(1, 100), (3, 59), (8, 90), (12, 55)])
    def test_runs_leave_at_different_pairs(self, k, max_iter):
        points, _, rng = criterion4_cell(0)
        seeds = [int(s) for s in rng.integers(0, 2**63, size=8)]
        counts = self.assert_batch_is_its_runs(points[:40], k, seeds,
                                               FuzzyFormation(max_iter=max_iter))
        if k > 1:  # the batch shrank several times, and a run stopped at the cap
            assert len(set(counts)) > 3 and max_iter in counts, counts

    def test_coincident_point_in_one_run(self):
        # with tol=1e-300 seed 2's centroids land on their points by pair 6,
        # whose memberships then take the equal-split rule, while seed 0's
        # stay off every point
        points = pts((0, 0), (100, 0), (0, 100))
        params = FuzzyFormation(tol=1e-300, max_iter=6)
        assert self.assert_batch_is_its_runs(points, 3, [0, 2], params) == [6, 6]
        (_, apart, _), (_, landed, _) = fcm_run(points, 3, [0, 2], tol=1e-300, max_iter=6)
        assert sorted(landed.tolist()) == sorted(points.tolist())
        assert squared_distances_loop(points, apart).all()

    def test_guarded_pairs_beside_ordinary_runs(self, monkeypatch):
        # seed 1 starts with column 0 on point 0 alone, so centroid 0 lands on
        # that point in the first pair (inf/inf); seed 2 starts with column 2
        # all zero, so its weight total is 0 (0/0). Each leaves a NaN in its
        # run's delta, and that pair is redone guarded for the whole batch
        points, k = criterion4_cell(0)[0][:30], 3
        inits = {seed: fcm_init(30, k, seed) for seed in (5, 6, 7)}
        on_point, zero_column = fcm_init(30, k, 1), fcm_init(30, k, 2)
        on_point[:, 0], on_point[0], zero_column[:, 2] = 0.0, (1.0, 0.0, 0.0), 0.0
        for seed, u in ((1, on_point), (2, zero_column)):
            inits[seed] = u / u.sum(axis=1, keepdims=True)
        monkeypatch.setattr(partitioning, "fcm_init", lambda n, k, seed: inits[seed])
        guards, pair = [], _Workspace.fcm_pair

        def recording(self, plane, m, p, guard):
            guards.append(guard)
            return pair(self, plane, m, p, guard)

        monkeypatch.setattr(_Workspace, "fcm_pair", recording)
        seeds, params = [5, 1, 6, 2, 7], FuzzyFormation()
        batch = fcm_run(points, k, seeds)
        assert guards[:2] == [False, True] and guards.count(True) < guards.count(False)
        for seed, got in zip(seeds, batch):
            pairs, u, centroids = fcm_pairs(points, inits[seed], params)
            alone = fcm_run(points, k, [seed])[0]
            for run in (got, alone):
                assert (run[2], run[0].tobytes(), run[1].tobytes()) == (
                    pairs, u.tobytes(), centroids.tobytes()), seed

    def test_failed_look_ahead_run_is_none(self):
        # seed 12's run overflows (see TestFcmRun) and seed 30's does not: a
        # failed run behind the first seed comes back as None, and the first
        # seed's raises as it does alone
        points = np.random.default_rng(12).uniform(0, 3e-154, (6, 2))
        with pytest.raises(FcmUnderflow, match="from a centroid: the sum .* overflows"):
            fcm_run(points, 2, [12, 30], max_iter=5)
        runs = fcm_run(points, 2, [30, 12], max_iter=5)
        assert runs[1] is None
        alone = fcm_run(points, 2, [30], max_iter=5)[0]
        assert [a.tobytes() for a in runs[0][:2]] == [a.tobytes() for a in alone[:2]]

    def test_full_batch_memory_at_n_100(self, monkeypatch):
        # a full batch's four (runs, k, n) planes and the memberships it
        # returns take 26 * 5 * 500 * 8 = 520 kB at n = 100, k = 5; the batch
        # grows 1, 2, 4, 8, 16 and then holds _BLOCK // (5 * k * n) = 26 runs
        batches, run = [], fcm_run

        def traced(points, k, seeds, *args):
            tracemalloc.start()
            try:
                out = run(points, k, seeds, *args)
                batches.append((len(seeds), tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()
            return out

        monkeypatch.setattr(protocols, "fcm_run", traced)
        points, energy, rng = criterion4_cell(1)
        geom = Geometry(points, (50.0, 175.0), energy)
        for _ in range(40):
            fuzzy_form_clusters(geom, FuzzyFormation(), 5, rng)
        assert [size for size, _ in batches] == [1, 2, 4, 8, 16, 26]
        assert batches[-1][1] < 2**20

    def test_batch_holds_one_run_at_n_1000(self, monkeypatch):
        # one run's five k x n arrays at k = 50 already exceed _BLOCK
        sizes = []

        def stub(points, k, seeds, *args):
            sizes.append(len(seeds))
            return [(np.full((len(points), k), 1.0 / k), np.zeros((k, 2)), 1)] * len(seeds)

        monkeypatch.setattr(protocols, "fcm_run", stub)
        points = deploy_nodes(NetworkConfig(n_nodes=1000, seed=1))
        geom, rng = Geometry(points, (50.0, 175.0), 0.5), np.random.default_rng(1)
        for _ in range(6):
            fuzzy_form_clusters(geom, FuzzyFormation(), 50, rng)
        assert sizes == [1] * 6


class TestCriterion4Unreachable:
    def test_fcm_from_converged_kmeans_needs_more_pairs(self):
        # The most favourable start a like-for-like comparison allows: FCM
        # begins at the memberships of k-means' converged centroids. It still
        # needs more pairs than k-means took in every cell with k < n; at
        # k = n every point is its own centroid and both stop after one pair.
        params = FuzzyFormation(m=2.0, tol=1e-4, max_iter=100)
        not_slower = []
        for seed in CRITERION4_SEEDS:
            points, energy, _ = criterion4_cell(seed)
            for k in CRITERION4_GRID:
                _, centroids, steps = kmeans_from_energy(points, energy, k,
                                                         max_iter=params.max_iter)
                # the kernel's membership step, exponent -1/(m-1) on d2
                u0 = memberships(points, centroids, -1.0 / (params.m - 1.0))
                pairs, _, _ = fcm_pairs(points, u0, params)
                if k == len(points):
                    assert (pairs, steps) == (1, 1), seed
                elif pairs <= steps:
                    not_slower.append((seed, k, pairs, steps))
        assert not not_slower, f"(seed, k, fcm pairs, kmeans iterations): {not_slower}"


class TestDefuzzify:
    def test_argmax(self):
        assert defuzzify(np.array([[0.2, 0.8]])).tolist() == [1]

    def test_tie_breaks_low(self):
        assert defuzzify(np.array([[0.5, 0.5]])).tolist() == [0]

    def test_k1(self):
        assert defuzzify(np.ones((4, 1))).tolist() == [0, 0, 0, 0]
