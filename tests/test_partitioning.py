import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wsnsim.model import NetworkConfig, Node, Position, deploy_nodes
from wsnsim.partitioning import (
    FcmParams,
    FcmUnderflow,
    defuzzify,
    fcm_centroids,
    fcm_init,
    fcm_memberships,
    fcm_run,
    kmeans_assign,
    kmeans_init,
    kmeans_run,
    kmeans_update,
)
from wsnsim.protocols import Geometry, kmeans_form_clusters


def pts(*coords):
    """An (n, 2) float array of the given (x, y) pairs."""
    return np.array(coords, dtype=float).reshape(-1, 2)


def kmeans_from_energy(points, energy, k, max_iter=100):
    """k-means from the energy-ranked init, as the k-means formation runs it."""
    return kmeans_run(points, kmeans_init(points, np.asarray(energy, dtype=float), k), max_iter)


def assert_memberships(u, tol=1e-9):
    """Membership rows lie in [0, 1] and sum to 1."""
    assert u.ndim == 2
    assert not np.any(u < -tol) and not np.any(u > 1 + tol), "membership outside [0, 1]"
    assert not np.any(np.abs(u.sum(axis=1) - 1.0) > tol), "membership row does not sum to 1"


def brute_force_two_partition(points):
    """Best 2-partition objective by exhaustive enumeration (n <= 12)."""
    n = len(points)
    best = math.inf
    best_mask = None
    for bits in range(1, 2 ** (n - 1)):  # nonempty, label-symmetric halves
        mask = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        if mask.all():
            continue
        obj = 0.0
        for part in (points[mask], points[~mask]):
            centroid = part.mean(axis=0)
            obj += ((part - centroid) ** 2).sum()
        if obj < best:
            best = obj
            best_mask = mask
    return best, best_mask


def hard_objective(points: np.ndarray, assignment: np.ndarray) -> float:
    obj = 0.0
    for j in np.unique(assignment):
        part = points[assignment == j]
        obj += ((part - part.mean(axis=0)) ** 2).sum()
    return float(obj)


# --- oracles: per-cluster loops the array steps must match bit for bit -------


def distances_loop(points, centroids):
    return np.array([
        [math.sqrt((px - cx) * (px - cx) + (py - cy) * (py - cy))
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
    for i, d in enumerate(distances_loop(points, centroids)):
        hits = d == 0.0
        if hits.any():
            u[i] = hits / hits.sum()
        else:
            w = d ** (-2.0 / (m - 1.0))
            u[i] = w / w.sum()
    return u


# small integers make coincident points and centroids likely
coordinates = st.one_of(
    st.integers(0, 6).map(float), st.floats(0, 100, allow_nan=False, allow_infinity=False)
)
fuzzifiers = st.sampled_from([1.5, 2.0, 3.0])


@st.composite
def points_and_centroids(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 6))
    points = draw(arrays(np.float64, (n, 2), elements=coordinates))
    centroids = draw(arrays(np.float64, (k, 2), elements=coordinates))
    for j in range(k):  # some centroids sit exactly on a point
        if draw(st.booleans()):
            centroids[j] = points[draw(st.integers(0, n - 1))]
    return points, centroids


@st.composite
def points_and_memberships(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 6))
    points = draw(arrays(np.float64, (n, 2), elements=coordinates))
    u = draw(arrays(np.float64, (n, k), elements=st.floats(0, 1)))
    for j in range(k):  # all-zero columns take the global-mean fallback
        if draw(st.booleans()):
            u[:, j] = 0.0
    return points, u


@st.composite
def points_and_assignment(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 8))  # k above the used labels leaves clusters empty
    points = draw(arrays(np.float64, (n, 2), elements=coordinates))
    assignment = draw(arrays(np.intp, n, elements=st.integers(0, k - 1)))
    previous = draw(arrays(np.float64, (k, 2), elements=coordinates))
    return points, assignment, previous


class TestArrayStepsMatchLoops:
    @settings(max_examples=300, deadline=None)
    @given(points_and_assignment())
    def test_kmeans_update(self, case):
        points, assignment, previous = case
        got = kmeans_update(points, assignment, previous)
        assert np.array_equal(got, kmeans_update_loop(points, assignment, previous))

    @settings(max_examples=300, deadline=None)
    @given(points_and_centroids())
    def test_kmeans_assign(self, case):
        points, centroids = case
        expected = distances_loop(points, centroids).argmin(axis=1)
        assert np.array_equal(kmeans_assign(points, centroids), expected)

    @settings(max_examples=300, deadline=None)
    @given(points_and_memberships(), fuzzifiers)
    def test_fcm_centroids(self, case, m):
        points, u = case
        got = fcm_centroids(points, u, m)
        assert np.array_equal(got, fcm_centroids_loop(points, u, m))

    @settings(max_examples=300, deadline=None)
    @given(points_and_centroids(), fuzzifiers)
    def test_fcm_memberships(self, case, m):
        points, centroids = case
        # a distance of ~1e-160 overflows d**-2 on both sides alike
        with np.errstate(over="ignore", invalid="ignore"):
            got = fcm_memberships(points, centroids, m)
            expected = fcm_memberships_loop(points, centroids, m)
        assert np.array_equal(got, expected, equal_nan=True)

    def test_previous_centroids_are_not_modified(self):
        previous = pts((9, 9), (7, 7))
        kmeans_update(pts((3, 4)), np.array([0]), previous)
        assert previous.tolist() == [[9, 9], [7, 7]]


# acceptance criterion 4's sweep: deployments of the default scenario at
# seeds 0-9, cluster counts 10..100, FCM with m=2, tol=1e-4, max_iter=100
CRITERION4_SEEDS = range(10)
CRITERION4_GRID = range(10, 101, 10)


def criterion4_cell(seed):
    """Positions and energies of one criterion-4 deployment, and the
    generator that placed them."""
    rng = np.random.default_rng(seed)
    nodes = deploy_nodes(NetworkConfig(seed=seed), rng)
    points = pts(*[(n.pos.x, n.pos.y) for n in nodes])
    return points, np.array([n.energy for n in nodes]), rng


def fcm_pairs(points, u, params):
    """Centroids+memberships pairs from memberships ``u`` until the first pair
    that moves no membership by tol or more, or until max_iter pairs.

    Returns (pairs performed, final memberships).
    """
    for pair in range(1, params.max_iter + 1):
        centroids = fcm_centroids(points, u, params.m)
        u_new = fcm_memberships(points, centroids, params.m)
        if np.abs(u_new - u).max() < params.tol:
            return pair, u_new
        u = u_new
    return params.max_iter, u


def kmeans_updates(points, energy, k, max_iter):
    """Assign+update pairs from the energy-ranked init until the assignment
    repeats, or until max_iter pairs.

    Returns the assignment of each update step performed, and the centroids.
    """
    centroids = kmeans_init(points, energy, k)
    assignments = []
    while len(assignments) < max_iter:
        assignment = kmeans_assign(points, centroids)
        if assignments and np.array_equal(assignment, assignments[-1]):
            break
        centroids = kmeans_update(points, assignment, centroids)
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
        nodes = [Node(id=0, pos=Position(0, 0), energy=0.0),
                 Node(id=1, pos=Position(1, 0), energy=1.0),
                 Node(id=2, pos=Position(10, 0), energy=0.5)]
        cs, _ = kmeans_form_clusters(Geometry(nodes, Position(50, 175)), 2)
        assert [(c.head, c.members) for c in cs.clusters] == [(1, []), (2, [])]


class TestKmeansAssign:
    def test_tie_goes_to_lower_index(self):
        assert kmeans_assign(pts((0.5, 0)), pts((0, 0), (1, 0))).tolist() == [0]

    def test_single_centroid(self):
        assert kmeans_assign(pts((0, 0), (9, 9)), pts((4, 4))).tolist() == [0, 0]

    def test_nearest_by_inspection(self):
        a = kmeans_assign(pts((0, 0), (10, 0)), pts((1, 0), (9, 0)))
        assert a.tolist() == [0, 1]

    def test_empty_centroids(self):
        with pytest.raises(ValueError):
            kmeans_assign(pts((0, 0)), pts())


class TestKmeansUpdate:
    def test_mean(self):
        cents = kmeans_update(pts((0, 0), (2, 0)), np.array([0, 0]), pts((9, 9)))
        assert cents.tolist() == [[1, 0]]

    def test_singleton(self):
        cents = kmeans_update(pts((3, 4)), np.array([0]), pts((0, 0), (7, 7)))
        assert cents[0].tolist() == [3, 4]

    def test_empty_cluster_keeps_previous(self):
        cents = kmeans_update(pts((3, 4)), np.array([0]), pts((0, 0), (7, 7)))
        assert cents[1].tolist() == [7, 7]


class TestKmeansRun:
    def test_unit_square_from_bottom_corners(self):
        # energies steer the max-energy init onto the two bottom corners
        points = pts((0, 0), (1, 0), (0, 1), (1, 1))
        part = kmeans_from_energy(points, [4, 3, 2, 1], 2)
        assert part.iterations <= 2
        assert {tuple(c) for c in part.centroids.tolist()} == {(0.0, 0.5), (1.0, 0.5)}
        best, _ = brute_force_two_partition(points)
        assert hard_objective(points, part.assignment) == pytest.approx(best, rel=1e-12)

    def test_k1_single_iteration_global_mean(self):
        part = kmeans_from_energy(pts((0, 0), (2, 0), (4, 6)), [1, 1, 1], 1)
        assert part.iterations == 1
        assert part.centroids.tolist() == [[2.0, 2.0]]

    def test_k_equals_n_zero_objective(self):
        points = pts((0, 0), (5, 0), (0, 5), (7, 7))
        part = kmeans_from_energy(points, [1] * 4, 4)
        assert hard_objective(points, part.assignment) == pytest.approx(0.0, abs=1e-12)
        # each point owns its own centroid per the brute-force argument
        assert sorted(part.assignment.tolist()) == [0, 1, 2, 3]

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(5, 30))
            k = int(rng.integers(1, min(n, 6)))
            points = pts(*[tuple(rng.uniform(0, 100, 2)) for _ in range(n)])
            energy = rng.uniform(0.1, 1.0, n)
            part = kmeans_from_energy(points, energy, k)
            assignments, _ = kmeans_updates(points, energy, k, max_iter=100)
            assert np.array_equal(assignments[-1], part.assignment)
            history = [hard_objective(points, a) for a in assignments]
            for a, b in zip(history, history[1:]):
                assert b <= a + 1e-9

    def test_explicit_init_override(self):
        part = kmeans_run(pts((0, 0), (1, 0), (0, 1), (1, 1)), pts((0, 0), (1, 0)))
        assert {tuple(c) for c in part.centroids.tolist()} == {(0.0, 0.5), (1.0, 0.5)}

    def test_rejects_zero_iteration_cap(self):
        with pytest.raises(ValueError, match="max_iter"):
            kmeans_run(pts((0, 0), (1, 0)), pts((0, 0)), max_iter=0)

    # at k=30 four update steps move a single node before the assignment repeats
    @pytest.mark.parametrize("k, max_iter", [(10, 100), (30, 100), (50, 100), (10, 3)])
    def test_count_is_update_steps_until_assignment_repeats(self, k, max_iter):
        points, energy, _ = criterion4_cell(0)
        assignments, centroids = kmeans_updates(points, energy, k, max_iter)
        steps, assignment = len(assignments), assignments[-1]
        part = kmeans_from_energy(points, energy, k, max_iter=max_iter)
        assert part.iterations == steps
        assert np.array_equal(part.assignment, assignment)
        assert np.array_equal(part.centroids, centroids)
        if steps < max_iter:
            # stopped by the rule: the final centroids reproduce the assignment
            assert np.array_equal(kmeans_assign(points, part.centroids), part.assignment)

    def test_oracle_equivalence_small_instances(self):
        # from the optimal partition's centroids, the run must attain the
        # brute-force optimal objective
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 13))
            points = pts(*[tuple(rng.uniform(0, 100, 2)) for _ in range(n)])
            best, mask = brute_force_two_partition(points)
            init = np.array([points[mask].mean(axis=0), points[~mask].mean(axis=0)])
            part = kmeans_run(points, init)
            assert hard_objective(points, part.assignment) <= best * (1 + 1e-6) + 1e-9


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


class TestFcmCentroids:
    def test_equal_memberships_give_global_mean(self):
        cents = fcm_centroids(pts((0, 0), (2, 0), (4, 6)), np.full((3, 2), 0.5), m=2.0)
        assert cents.tolist() == [[2.0, 2.0], [2.0, 2.0]]

    def test_one_hot_recovers_point(self):
        cents = fcm_centroids(pts((3, 4), (8, 8)), np.array([[1.0, 0.0], [0.0, 1.0]]), m=2.0)
        assert cents.tolist() == [[3, 4], [8, 8]]

    def test_hand_evaluated_weighted_mean(self):
        # 1-D points {0, 2}, memberships to cluster j {0.9, 0.1}, m=2:
        # (0.81*0 + 0.01*2) / 0.82 = 0.024390...
        u = np.array([[0.9, 0.1], [0.1, 0.9]])
        cents = fcm_centroids(pts((0, 0), (2, 0)), u, m=2.0)
        assert cents[0, 0] == pytest.approx(0.02 / 0.82, rel=1e-12)
        assert cents[0, 1] == 0.0

    def test_zero_column_falls_back_to_mean(self):
        u = np.array([[1.0, 0.0], [1.0, 0.0]])
        cents = fcm_centroids(pts((0, 0), (4, 0)), u, m=2.0)
        assert cents[1].tolist() == [2.0, 0.0]


class TestFcmMemberships:
    def test_coincident_point_gets_full_membership(self):
        u = fcm_memberships(pts((1, 3)), pts((1, 3), (9, 9)), m=2.0)
        assert u.tolist() == [[1.0, 0.0]]

    def test_coincident_with_two_centroids_splits(self):
        u = fcm_memberships(pts((1, 3)), pts((1, 3), (1, 3), (9, 9)), m=2.0)
        assert u.tolist() == [[0.5, 0.5, 0.0]]

    def test_equidistant_splits_evenly(self):
        u = fcm_memberships(pts((0.5, 0)), pts((0, 0), (1, 0)), m=2.0)
        assert u[0] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_hand_evaluated_inverse_square(self):
        # x=0 with centroids at 1 and 3, m=2: u = (0.9, 0.1)
        u = fcm_memberships(pts((0, 0)), pts((1, 0), (3, 0)), m=2.0)
        assert u[0] == pytest.approx([0.9, 0.1], rel=1e-12)

    def test_rows_sum_to_one_randomized(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            k = int(rng.integers(1, 6))
            points = pts(*[rng.uniform(0, 100, 2) for _ in range(n)])
            cents = pts(*[rng.uniform(0, 100, 2) for _ in range(k)])
            assert_memberships(fcm_memberships(points, cents, m=2.0))

    def test_nearest_centroid_gets_strict_row_max(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            points = pts(rng.uniform(0, 100, 2))
            cents = pts(*[rng.uniform(0, 100, 2) for _ in range(4)])
            d = [math.hypot(*(points[0] - c)) for c in cents]
            order = sorted(range(4), key=lambda j: d[j])
            if math.isclose(d[order[0]], d[order[1]]):
                continue
            u = fcm_memberships(points, cents, m=2.0)
            assert u[0].argmax() == order[0]
            assert u[0][order[0]] > max(v for j, v in enumerate(u[0]) if j != order[0])

    def test_invalid_fuzzifier(self):
        with pytest.raises(ValueError):
            fcm_memberships(pts((0, 0)), pts((1, 1)), m=1.0)


class TestFcmRun:
    def test_k1_converges_immediately(self):
        u, cents, iterations = fcm_run(pts((0, 0), (2, 0), (4, 6)), FcmParams(k=1, seed=0))
        assert iterations == 1
        assert cents.tolist() == [[2.0, 2.0]]
        assert np.all(u == 1.0)

    def test_infinite_tol_single_iteration(self):
        points = pts((0, 0), (5, 5), (9, 0))
        _, _, iterations = fcm_run(points, FcmParams(k=2, tol=math.inf, seed=1))
        assert iterations == 1

    def test_fuzzifier_near_one_raises(self):
        # d ** -2000 underflows to 0 for every distance above about 1.4, so
        # each row is 0/0; m = 1.5 (exponent -4) is fine on the same points
        points = pts((0, 0), (30, 5), (60, 60), (90, 10))
        with pytest.raises(FcmUnderflow, match="fuzzifier m=1.001"):
            fcm_run(points, FcmParams(k=2, m=1.001, seed=0))
        u, _, _ = fcm_run(points, FcmParams(k=2, m=1.5, seed=0))
        assert not np.isnan(u).any()

    def test_point_next_to_a_centroid_overflows(self):
        # at this scale d ** -2 overflows for any m = 2 distance, so each row
        # is inf/inf; the message names the distance, not the fuzzifier
        points = pts((0, 0), (3, 1), (1, 4), (4, 4)) * 1e-160
        with pytest.raises(FcmUnderflow, match="from a centroid.*overflows with m=2.0"):
            fcm_run(points, FcmParams(k=2, seed=0))

    def test_all_zero_membership_row_raises(self):
        # finite weights whose sum overflows make a row of x/inf = 0, not
        # NaN; of these 800 small sets, 31 once came back with such a row
        for seed in range(800):
            points = np.random.default_rng(seed).uniform(0, 3e-154, (6, 2))
            try:
                u, _, _ = fcm_run(points, FcmParams(k=2, seed=seed, max_iter=5))
            except FcmUnderflow:
                continue
            assert (u.max(axis=1) > 0).all()

    def test_overflow_is_told_from_the_weight_sum(self):
        # one row's weights d ** -2 are both about 1.2e308, finite, and only
        # their sum overflows: the message names the distance, not the fuzzifier
        points = np.random.default_rng(12).uniform(0, 3e-154, (6, 2))
        with pytest.raises(FcmUnderflow, match="from a centroid: the sum .* overflows with m=2.0"):
            fcm_run(points, FcmParams(k=2, seed=12, max_iter=5))

    def test_deterministic_per_seed(self):
        points = pts(*[(float(i), float(i % 3)) for i in range(9)])
        r1 = fcm_run(points, FcmParams(k=3, seed=21))
        r2 = fcm_run(points, FcmParams(k=3, seed=21))
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
            u, _, _ = fcm_run(points, FcmParams(k=2, seed=trial))
            best, _ = brute_force_two_partition(points)
            assert hard_objective(points, defuzzify(u)) == pytest.approx(best, rel=1e-6)

    @pytest.mark.parametrize("k, max_iter", [(10, 100), (50, 100), (10, 5)])
    def test_count_is_first_pair_below_tol(self, k, max_iter):
        points, _, rng = criterion4_cell(0)
        params = FcmParams(k=k, max_iter=max_iter, seed=int(rng.integers(0, 2**63)))
        pairs, u = fcm_pairs(points, fcm_init(len(points), k, params.seed), params)
        got_u, _, iterations = fcm_run(points, params)
        assert iterations == pairs
        assert np.array_equal(got_u, u)

    def test_membership_rows_stay_normalized(self):
        rng = np.random.default_rng(29)
        points = pts(*[rng.uniform(0, 50, 2) for _ in range(30)])
        u, _, _ = fcm_run(points, FcmParams(k=4, seed=3))
        assert_memberships(u)


class TestCriterion4Unreachable:
    def test_fcm_from_converged_kmeans_needs_more_pairs(self):
        # The most favourable start a like-for-like comparison allows: FCM
        # begins at the memberships of k-means' converged centroids. It still
        # needs more pairs than k-means took in every cell with k < n; at
        # k = n every point is its own centroid and both stop after one pair.
        params = FcmParams(k=1, m=2.0, tol=1e-4, max_iter=100)  # k is unused here
        not_slower = []
        for seed in CRITERION4_SEEDS:
            points, energy, _ = criterion4_cell(seed)
            for k in CRITERION4_GRID:
                part = kmeans_from_energy(points, energy, k, max_iter=params.max_iter)
                u0 = fcm_memberships(points, part.centroids, params.m)
                pairs, _ = fcm_pairs(points, u0, params)
                if k == len(points):
                    assert (pairs, part.iterations) == (1, 1), seed
                elif pairs <= part.iterations:
                    not_slower.append((seed, k, pairs, part.iterations))
        assert not not_slower, f"(seed, k, fcm pairs, kmeans iterations): {not_slower}"


class TestDefuzzify:
    def test_argmax(self):
        assert defuzzify(np.array([[0.2, 0.8]])).tolist() == [1]

    def test_tie_breaks_low(self):
        assert defuzzify(np.array([[0.5, 0.5]])).tolist() == [0]

    def test_k1(self):
        assert defuzzify(np.ones((4, 1))).tolist() == [0, 0, 0, 0]
