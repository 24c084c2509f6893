"""Bit-for-bit equality of the array code with the scalar code it replaced,
in the order of the contracts it pins: the exact distances, the joins
against ``Geometry.block`` on tie networks, the formations, and the ledger.
The oracles, the tie-network builder and the counting shims are in
``shared``. Some classes keep the names of code that was since deleted, and
with them their test ids; each docstring says what the class pins now.
"""

import copy
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wsnsim import protocols
from wsnsim.engine import (
    EecsParams,
    FuzzyFormation,
    HeedParams,
    KmeansFormation,
    LeachParams,
    SimState,
    run_round,
    run_simulation,
    sweep_iterations,
)
from wsnsim.model import NetworkConfig, euclidean_distance, squared_distances
from wsnsim.protocols import (
    Geometry,
    eecs_form_clusters,
    enforce_ch_separation,
    form_clusters_nearest,
    heed_form_clusters,
    heed_geometry,
    leach_elect,
)

from shared import (
    BS,
    TIE_NETWORKS,
    OracleNode,
    alive_of,
    count_calls,
    count_hypot,
    geometry_of,
    heed_cost,
    ids_of,
    in_step,
    oracle_eecs_form_clusters,
    oracle_enforce_ch_separation,
    oracle_form_clusters_nearest,
    oracle_heed_form_clusters,
    oracle_heed_geometry,
    oracle_leach_elect,
    oracle_run_round,
    tie_network,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                           1e-310, 3.0, 4.0, 1e308, -1.7976931348623157e308])
coordinate = finite | special | st.floats(-1e-300, 1e-300) | st.floats(-200.0, 200.0)


def math_hypot(dx, dy):
    with np.errstate(over="ignore"):  # math.hypot overflows to inf silently
        return np.vectorize(math.hypot, otypes=[float])(dx, dy)


def random_network(rng, n, grid=False):
    """Nodes with shuffled, gapped ids, some dead; ``grid`` puts them on
    integer points so that equal distances (ties) are common."""
    ids = rng.permutation(3 * n)[:n]
    nodes = []
    for i in ids.tolist():
        xy = rng.integers(0, 12, 2) * 5.0 if grid else rng.uniform(0, 100, 2)
        energy = float(rng.uniform(0.01, 1.0))
        alive = rng.random() > 0.15
        nodes.append(OracleNode(id=i, pos=tuple(xy.tolist()), energy=energy if alive else 0.0))
    if not alive_of(nodes):
        nodes[0].energy = 0.5
    return nodes


NETWORKS = [(seed, grid, sep) for seed in range(40) for grid in (False, True)
            for sep in (0.0, 15.0)]
# from seed 100 on, the networks have 350 to 600 nodes: past Geometry's
# distance table (n > 256), and enough alive ones for heed_geometry to build
# them in two row blocks or more
LARGE_NETWORKS = NETWORKS + [(seed, grid, sep) for seed in range(100, 103)
                             for grid in (False, True) for sep in (0.0, 15.0)]


def sized_network(rng, seed, grid, n_max):
    if seed < 100:
        return random_network(rng, int(rng.integers(1, n_max)), grid)
    nodes = random_network(rng, int(rng.integers(350, 600)), grid)
    alive = len(alive_of(nodes))
    assert alive > protocols._BLOCK // alive  # two row blocks or more
    return nodes


def eecs_params(rng, sep):
    return EecsParams(p=float(rng.uniform(0.05, 1.0)), w=float(rng.choice([0.0, 0.5, 1.0])),
                      suppress_radius=float(rng.uniform(0, 40)),
                      join_radius=float(rng.uniform(5, 60)),
                      head_fraction=float(rng.uniform(0.02, 0.3)), ch_separation=sep)


# --- the exact distances: math.hypot, and block as np.sqrt of d2 -----------------


class TestGeometryDistances:
    """``Geometry``'s exact distances, the table and ``bs_d``, are the ledger's
    ``math.hypot`` of the coordinate differences; its join distance,
    ``block``, is ``np.sqrt(squared_distances)``, gathered or computed."""

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_every_exact_distance_is_math_hypot(self, data):
        # nodes and a base station on drawn spots: zeros, subnormal offsets
        # between them, magnitudes whose differences overflow, the 1e-160 m
        # arena, and coincident nodes where a spot repeats
        tiny = st.floats(0.0, 1e-160)
        spot = st.tuples(coordinate, coordinate) | st.tuples(tiny, tiny)
        spots = data.draw(st.lists(spot, min_size=1, max_size=5))
        pos = data.draw(st.lists(st.sampled_from(spots), min_size=1, max_size=8))
        bs = data.draw(spot)
        geom = Geometry(pos, bs, 1.0)
        sink = np.array([euclidean_distance(p, bs) for p in pos])
        assert np.array(geom.bs_d).tobytes() == geom.bs_dist.tobytes() == sink.tobytes()

        # reading the table builds no join block, whose numpy arithmetic
        # would warn on these magnitudes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = geom.table
        assert geom._block is None
        index = st.lists(st.integers(0, len(pos) - 1), max_size=8)
        rows, cols = (data.draw(index) for _ in range(2))
        got = np.array([[table[h][m] for m in cols] for h in rows]).reshape(len(rows), len(cols))
        # the ledger's order: rows as heads, columns as members
        ledger = np.array([[math.hypot(pos[m][0] - pos[h][0], pos[m][1] - pos[h][1])
                            for m in cols] for h in rows]).reshape(len(rows), len(cols))
        assert got.tobytes() == ledger.tobytes()
        mirror = np.array([[table[m][h] for h in rows] for m in cols]).reshape(len(cols), len(rows))
        assert got.tobytes() == mirror.T.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [256, 257])
    def test_join_block_is_sqrt_of_d2(self, n, seed):
        # gathered from the n x n block at n = 256, computed at 257: the same
        # bits, np.sqrt of squared_distances, and each block is the transpose
        # of its mirror, on alive subsets and on drawn rows and columns
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 100, (n, 2))
        geom = Geometry(pos, BS, 1.0)
        geom.energy[rng.choice(n, 20, replace=False)] = 0.0
        alive = geom.alive()
        for r, c in [(alive, alive), (rng.choice(alive, 30), rng.choice(n, 90)),
                     (alive[:1], alive), (alive, alive[:0])]:
            got = geom.block(r, c)
            assert got.tobytes() == np.sqrt(squared_distances(pos[r], pos[c])).tobytes()
            assert got.tobytes() == geom.block(c, r).T.tobytes()
        assert (geom._block is not None) == (n <= 256)


class TestExactDistancesAtExtremes:
    """The table and the sink distances are ``math.hypot`` on the values a
    numpy path could round differently: zeros, subnormals and magnitudes
    whose squares overflow."""

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_equals_math_hypot_on_broadcast_arrays(self, data):
        n = data.draw(st.integers(1, 6))
        xs, ys = (data.draw(hnp.arrays(float, n, elements=coordinate)) for _ in range(2))
        bs = (data.draw(coordinate), data.draw(coordinate))
        geom = Geometry(np.column_stack([xs, ys]), bs, 1.0)
        with np.errstate(over="ignore"):  # as in Geometry, huge differences overflow to inf
            # the ledger's order: rows as heads, columns as members
            dx, dy = xs[None, :] - xs[:, None], ys[None, :] - ys[:, None]
        expected = math_hypot(dx, dy)
        assert np.array(geom.table).tobytes() == expected.tobytes()
        with np.errstate(over="ignore"):
            sink = math_hypot(xs - bs[0], ys - bs[1])
        assert geom.bs_dist.tobytes() == sink.tobytes()

    @settings(max_examples=500, deadline=None)
    @given(coordinate, coordinate)
    def test_equals_math_hypot_on_scalars(self, dx, dy):
        # a node at (dx, dy), one at the origin, and the base station there too
        geom = Geometry([(dx, dy), (0.0, 0.0)], (0.0, 0.0), 1.0)
        assert geom.table[1][0] == geom.table[0][1] == math.hypot(dx, dy)
        assert geom.bs_d[0] == math.hypot(dx, dy)

    def test_subnormal_and_zero_pairs(self):
        rng = np.random.default_rng(5)
        # whole multiples of the smallest subnormal, zeros among them
        dx = rng.integers(-10**6, 10**6, 20_000) * 5e-324
        dy = rng.integers(-10**6, 10**6, 20_000) * 5e-324
        # below 2**-1023 CPython divides by the larger magnitude; just under
        # 2**-1024 the subnormals keep enough bits for that branch's rounding
        ex = rng.uniform(-1, 1, 20_000) * 2.0**-1024
        ey = rng.uniform(-1, 1, 20_000) * ex
        for xs, ys in ((dx, dy), (ex, ey)):
            geom = Geometry(np.column_stack([xs, ys]), (0.0, 0.0), 1.0)
            assert geom.bs_dist.tobytes() == math_hypot(xs, ys).tobytes()
            # the table exists at n <= 256: the origin's row, 255 nodes at a time
            got = []
            for s in range(0, len(xs), 255):
                part = np.column_stack([xs[s:s + 255], ys[s:s + 255]])
                got += Geometry(np.vstack([part, [0.0, 0.0]]), (0.0, 0.0), 1.0).table[-1][:-1]
            assert np.array(got).tobytes() == math_hypot(xs, ys).tobytes()


class TestDistanceTable:
    """The table's rows are ``math.hypot`` on tie networks; the work counts of
    a lifetime and of a sweep (``math.hypot`` calls and ``squared_distances``
    blocks); and the memory bound of the table's build."""

    @pytest.mark.parametrize("seed,kind", TIE_NETWORKS)
    def test_rows_equal_math_hypot(self, seed, kind):
        # table[h][m] is the ledger's math.hypot(mx - hx, my - hy), bit for bit
        nodes, _ = tie_network(np.random.default_rng(seed), kind, 20, 120)
        geom, _ = geometry_of(nodes)
        xy = geom.pos.tolist()
        expected = [[math.hypot(mx - hx, my - hy) for mx, my in xy] for hx, hy in xy]
        assert np.array(geom.table).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("protocol", [LeachParams(), EecsParams()], ids=["leach", "eecs"])
    @pytest.mark.parametrize("n", [100, 300])
    def test_rounds_compute_no_distance_at_paper_scale(self, monkeypatch, protocol, n):
        # seed 1's lifetime at n = 100 calls math.hypot only for the sink
        # distances and the table, built once, and then reads every distance
        # from the table: none in the formations or the ledger. LEACH's or
        # EECS's join builds one d2 block, the n x n join distances, in its
        # first round. At n = 300 (20 rounds) there is no table and both are
        # called, the ledger's math.hypot beyond the sink distances and each
        # join building one d2 block per round
        config = NetworkConfig(n_nodes=n, seed=1)
        hypots = count_hypot(monkeypatch)
        d2 = count_calls(monkeypatch, protocols, "squared_distances")
        result = run_simulation(config, protocol, 10**6 if n == 100 else 20)
        if n == 100:
            assert result.last_death_round is not None  # the whole lifetime
            assert hypots.total() == n + n * n
            assert d2[0] == 1
        else:
            assert hypots.total() > n
            assert d2[0] == 20

    def test_build_peak_memory(self):
        # the first read lists math.hypot's rows straight, with no n x n
        # array in between, so the build adds little to what the Geometry
        # keeps (1.000x at n = 256; 1.244x when it filled an array first)
        pos = np.random.default_rng(1).uniform(0, 100, (256, 2))
        tracemalloc.start()
        try:
            geom = Geometry(pos, BS, 1.0)
            table = geom.table
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table is not None
        assert peak <= 1.05 * kept

    def test_a_sweep_builds_no_table(self, monkeypatch):
        # sweep_iterations deploys a Geometry per seed and runs k-means and
        # fuzzy c-means on it, which read no distance table
        exact = count_hypot(monkeypatch)
        sweep_iterations(NetworkConfig(), [2, 5], [1, 2, 3])
        # the sink distances and the centroid formations' energy tie-breaks
        assert set(exact) == {"__init__", "_centroid_cluster_set"}


# --- the joins against Geometry.block on tie networks ----------------------------


def leach_tie_join(monkeypatch, seed, kind, n_low, n_high):
    """LEACH's join on a tie network of ``n_low`` to ``n_high`` nodes, checked
    against the oracle: the argmin over heads, built in one d2 call and with
    no exact distance. Returns the Geometry."""
    rng = np.random.default_rng(seed)
    nodes, _ = tie_network(rng, kind, n_low, n_high)
    heads = {n.id for n in nodes[:len(nodes) // 4]} if kind == "bisector" else (
        {n.id for n in nodes if rng.random() < 0.2} or {nodes[0].id})
    geom, ids = geometry_of(nodes)
    exact = count_hypot(monkeypatch)
    d2 = count_calls(monkeypatch, protocols, "squared_distances")
    got = form_clusters_nearest(geom, {ids.index(h) for h in heads})
    assert ids_of(got, ids) == oracle_form_clusters_nearest(nodes, heads)
    assert d2[0] == 1
    assert exact.total() == 0
    return geom


class TestCertifiedJoin:
    """LEACH's join: the argmin over heads of ``Geometry.block``, checked
    against the oracle's ``math.sqrt(dx*dx + dy*dy)`` where rounding decides,
    through the gathered block and the computed one. (The class keeps the
    name of the certified join it replaced, and with it its test ids.)"""

    @pytest.mark.parametrize("seed,kind", TIE_NETWORKS)
    def test_tie_networks_match_oracle_through_the_table(self, monkeypatch, seed, kind):
        # at n <= 256 the join gathers from the n x n block; it reads no
        # exact distance, so builds no table
        assert leach_tie_join(monkeypatch, seed, kind, 20, 120).whole

    @pytest.mark.parametrize("seed,kind", TIE_NETWORKS)
    def test_tie_networks_match_oracle_through_the_exact_path(self, monkeypatch, seed, kind):
        # past the table the join computes its heads x members block
        assert leach_tie_join(monkeypatch, seed, kind, 257, 401).table is None

    @pytest.mark.parametrize("seed", range(10))
    def test_random_blocks_need_no_exact_rows(self, monkeypatch, seed):
        # on random positions no two heads lie within ulps of a member, so the
        # join chooses the heads math.hypot would
        rng = np.random.default_rng(seed)
        geom = Geometry(rng.uniform(0, 100, (1000, 2)), BS, 1.0)
        rows, cols = np.arange(950), np.arange(950, 1000)
        exact = count_hypot(monkeypatch)
        got = form_clusters_nearest(geom, set(cols.tolist()))
        assert not exact
        # the ledger's math.hypot, members as rows and heads as columns
        pos = geom.pos
        nearest = math_hypot(pos[rows, 0, None] - pos[cols, 0],
                             pos[rows, 1, None] - pos[cols, 1]).argmin(axis=1)
        assert [c.members for c in got.clusters] == [rows[nearest == j].tolist()
                                                     for j in range(len(cols))]


def eecs_past_the_table(monkeypatch, nodes, params, bs, seed):
    """EECS on ``nodes``, past the table, checked against the oracle, with no
    exact distance computed but the suppression scan's; returns the result,
    in ids, the Geometry and the ids in row order."""
    geom, ids = geometry_of(nodes, bs)
    calls = count_hypot(monkeypatch)
    got = in_step(seed, ids, lambda rng: eecs_form_clusters(geom, params, rng),
                  lambda rng: oracle_eecs_form_clusters(nodes, bs, params, rng))
    assert geom.table is None
    assert set(calls) <= {"_thin"}  # the suppression scan's, and no other
    return ids_of(got, ids), geom, ids


def hand_network(rng, *cases):
    """Heads 0 (at (100, 100)) and 1 (at (160, 100)) elect, the richest
    nodes; the ``cases`` are members at given points, and 300 more lie
    within 45 m of one head. The base station lies on the heads'
    bisector, so their sink terms are equal."""
    angle, radius = rng.uniform(0, 2 * math.pi, 300), rng.uniform(1.0, 45.0, 300)
    near = np.column_stack((100.0 + 60.0 * rng.integers(0, 2, 300) + radius * np.cos(angle),
                            100.0 + radius * np.sin(angle)))
    points = [(100.0, 100.0), (160.0, 100.0), *cases, *near.tolist()]
    nodes = [OracleNode(id=i, pos=tuple(p), energy=0.5) for i, p in enumerate(points)]
    nodes[0].energy, nodes[1].energy = 1.0, 0.9
    params = EecsParams(p=1.0, w=1.0, suppress_radius=30.0, join_radius=50.0,
                        head_fraction=1.5 / len(nodes))
    return nodes, params, (130.0, 1000.0)


class TestCertifiedEecsJoin:
    """EECS's join past the table: its costs over ``Geometry.block``, checked
    against the oracle's ``math.sqrt(dx*dx + dy*dy)`` where rounding or an
    exact tie decides. (The class keeps the name of the certified join it
    replaced, and with it its test ids.)"""

    @pytest.mark.parametrize("sep", [0.0, 0.2])
    @pytest.mark.parametrize("seed,kind", TIE_NETWORKS)
    def test_tie_networks_match_oracle(self, monkeypatch, seed, kind, sep):
        # 257 to 600 nodes, past the table, and a base station above the
        # arena. On bisector networks the ends are the heads, every node is in
        # reach of all of them and w = 1, so the costs order the heads as the
        # distances do, and rounding decides the nearer end
        rng = np.random.default_rng(seed)
        nodes, span = tie_network(rng, kind, 257, 601, drawn_energy=True)
        w = float(rng.choice([0.0, 0.5, 1.0]))
        if kind == "bisector":  # the ends come first; they elect, in full
            ends = max(2, len(nodes) // 4)
            for node in nodes[:ends]:
                node.energy += 1.0
            params = EecsParams(p=1.0, w=1.0, suppress_radius=0.0, join_radius=3 * span,
                                head_fraction=(ends - 0.5) / len(nodes), ch_separation=span * sep)
        else:
            params = EecsParams(p=float(rng.uniform(0.05, 1.0)), w=w,
                                suppress_radius=span * float(rng.uniform(0, 0.4)),
                                join_radius=span * float(rng.uniform(0.05, 0.6)),
                                head_fraction=float(rng.uniform(0.02, 0.15)),
                                ch_separation=span * sep)
        bs = (span / 2, span * 1.75)
        got, geom, ids = eecs_past_the_table(monkeypatch, nodes, params, bs, seed + 1)
        if kind == "tiny":  # every d2 is subnormal or 0, below what NetworkConfig allows
            pos = geom.pos[[ids.index(m) for c in got.clusters for m in (c.head, *c.members)]]
            assert (squared_distances(pos, pos) < sys.float_info.min).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_hand_cases_take_the_exact_distances(self, monkeypatch, seed):
        # member 2 lies exactly join_radius from head 0 (offset (-30, -40));
        # member 3 at the same distance from both heads; member 4 on head 0;
        # member 5 in no head's reach
        cases = [(70.0, 60.0), (130.0, 110.0), (100.0, 100.0), (400.0, 400.0)]
        nodes, params, bs = hand_network(np.random.default_rng(seed), *cases)
        got, geom, _ = eecs_past_the_table(monkeypatch, nodes, params, bs, seed)
        assert sorted(got.heads) == [0, 1]
        by_head = {c.head: c.members for c in got.clusters}
        assert {2, 3, 4} <= set(by_head[0])  # in reach, the tie to the lower row
        assert 5 in by_head[1]  # nearer to head 1, out of reach of both
        # the block holds the exact distances of the first three: the radius,
        # a tie and 0
        d = geom.block(np.array([0, 1]), np.array([2, 3, 4]))
        assert d[0, 0] == params.join_radius and d[0, 1] == d[1, 1] and d[0, 2] == 0.0

    @pytest.mark.parametrize("offset", [(30.0, 40.0), (-30.0, 40.0), (40.0, -30.0), (0.0, -50.0)])
    def test_member_exactly_at_join_radius(self, monkeypatch, offset):
        # d2 = 2500 = join_radius**2 exactly, whose sqrt is exactly 50: the
        # member is in head 0's reach
        nodes, params, bs = hand_network(np.random.default_rng(7),
                                         (100.0 + offset[0], 100.0 + offset[1]))
        _, geom, _ = eecs_past_the_table(monkeypatch, nodes, params, bs, 7)
        assert geom.block(np.array([0]), np.array([2]))[0, 0] == params.join_radius


class TestHeedKeptBlock:
    """HEED keeps its mask and ranks and no float block: its nearest-head
    fallback reads ``Geometry.block``, checked against the oracle, and a
    rebuild's memory is bounded. (The class keeps the name of the float block
    HEED used to keep, and with it its test ids.)"""

    @pytest.mark.parametrize("seed", range(6))
    def test_block_equals_sqrt_of_d2(self, seed):
        # HEED keeps its mask and ranks, no float block: its join reads
        # Geometry.block, at n <= 256 the n x n np.sqrt(dx*dx + dy*dy) built
        # by the first formation and kept by the Geometry across formations
        # and deaths, above it none
        rng = np.random.default_rng(seed)
        for n in (int(rng.integers(21, 257)), 256, 257, int(rng.integers(258, 400))):
            pos = rng.uniform(0, 100, (n, 2))
            geom = Geometry(pos, BS, 1.0)
            blocks = []
            for _ in range(2):
                geom.energy[rng.choice(n, 10, replace=False)] = 0.0
                rows = geom.alive()
                assert [a.dtype.kind for a in geom.heed(rows, 20.0)] == ["b", "i"]
                heed_form_clusters(geom, HeedParams(), rng)
                blocks.append(geom._block)
            if n <= 256:
                assert blocks[0] is blocks[1]
                assert blocks[0].tobytes() == np.sqrt(squared_distances(pos, pos)).tobytes()
            else:
                assert blocks == [None, None]

    @pytest.mark.parametrize("n_low,n_high", [(20, 257), (257, 401)], ids=["block", "rows"])
    @pytest.mark.parametrize("sep", [0.0, 0.15])
    @pytest.mark.parametrize("seed,kind", TIE_NETWORKS)
    def test_tie_networks_match_oracle(self, monkeypatch, seed, kind, sep, n_low, n_high):
        # the uncovered nodes' nearest head comes from Geometry.block, the
        # n x n block at n <= 256 and one over their rows above; with a
        # cluster radius this small rounding decides many of those ties
        rng = np.random.default_rng(seed)
        nodes, span = tie_network(rng, kind, n_low, n_high, drawn_energy=True)
        params = HeedParams(cluster_radius=span * float(rng.uniform(0.03, 0.2)),
                            announce_waves=int(rng.integers(1, 5)), ch_separation=span * sep)
        geom, ids = geometry_of(nodes)
        d2 = count_calls(monkeypatch, protocols, "squared_distances")
        got, _ = in_step(seed + 1, ids, lambda rng: heed_form_clusters(geom, params, rng),
                         lambda rng: oracle_heed_form_clusters(nodes, params, rng))
        n = len(nodes)
        # the geometry's row blocks, plus the join's block: the n x n one at
        # n <= 256, the uncovered rows' above
        blocks = len(range(0, n, max(1, protocols._BLOCK // n)))
        assert d2[0] == blocks + 1
        # each of the cases that read the block leaves members uncovered
        in_range = geom.heed(geom.alive(), params.cluster_radius)[0]
        heads = sorted(got.heads)
        uncovered = [m for c in got.clusters for m in c.members if not in_range[m, heads].any()]
        assert uncovered or n > 256

    def test_rebuild_peak_memory(self):
        # a HEED rebuild at n = 256 keeps the bool mask and the ranks (71 352
        # bytes); it peaks while one row block's d2 and dy planes, the two n x n
        # float arrays of squared_distances, exist beside the mask: 1 192 502
        # bytes, the bound
        pos = np.random.default_rng(1).uniform(0, 100, (256, 2))
        geom = Geometry(pos, BS, 1.0)
        rows = geom.alive()
        tracemalloc.start()
        try:
            kept_arrays = geom.heed(rows, 20.0)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(kept_arrays) == 2
        assert kept < 2 * 256 * 256
        assert peak <= 1_192_502


# --- the formations against the scalar oracles ----------------------------------


def eecs_formations(rng, seed, nodes, sep):
    """Build the Geometry of ``nodes``, then run 30 EECS formations on it with
    parameters drawn from ``rng``, each checked against the oracle, and yield
    each formation's ClusterSet with the Geometry and the parameters. Between
    formations heads drain faster than members, and a few nodes die outright."""
    params = eecs_params(rng, sep)
    bs = (50.0, float(rng.choice([50.0, 175.0])))
    a, b = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    geom, ids = geometry_of(nodes, bs)

    def formations():
        for _ in range(30):
            got = eecs_form_clusters(geom, params, a)
            assert ids_of(got, ids) == oracle_eecs_form_clusters(nodes, bs, params, b)
            yield got, geom, params
            for row, node in enumerate(nodes):
                node.energy *= float(rng.uniform(0.5, 0.8) if row in got.heads
                                     else rng.uniform(0.9, 1.0)) * (rng.random() > 0.03)
            assert alive_of(nodes)
            geom.energy[:] = [n.energy for n in nodes]

    return formations()


class TestFormationsMatchScalarOracles:
    """Each formation gives the oracle's cluster set from the same stream,
    with EECS's suppression and head separation read from the ledger's
    distances; EECS's work counts over 30 formations on one Geometry; and
    HEED's costs and mask against the scalar and whole-array ones."""

    @pytest.mark.parametrize("seed,grid,sep", NETWORKS)
    def test_leach(self, seed, grid, sep):
        rng = np.random.default_rng(seed)
        nodes = random_network(rng, int(rng.integers(1, 90)), grid)
        for node in nodes:
            node.rounds_since_ch = int(rng.integers(0, 25))
        params = LeachParams(p=float(rng.uniform(0.02, 0.5)))
        r = int(rng.integers(0, 60))
        geom, ids = geometry_of(nodes)
        heads = in_step(seed + 1, ids, lambda rng: leach_elect(geom, params, r, rng),
                        lambda rng: oracle_leach_elect(nodes, params, r, rng))
        if sep:
            expected = oracle_enforce_ch_separation(ids_of(heads, ids), alive_of(nodes), sep)
            heads = enforce_ch_separation(geom, heads, sep)
            assert ids_of(heads, ids) == expected
        assert ids_of(form_clusters_nearest(geom, heads), ids) == oracle_form_clusters_nearest(
            nodes, ids_of(heads, ids))

    @pytest.mark.parametrize("seed,grid,sep", LARGE_NETWORKS)
    def test_heed(self, seed, grid, sep):
        rng = np.random.default_rng(seed)
        nodes = sized_network(rng, seed, grid, 90)
        params = HeedParams(cluster_radius=float(rng.uniform(5, 40)),
                            announce_waves=int(rng.integers(1, 5)), ch_separation=sep)
        geom, ids = geometry_of(nodes)
        in_step(seed + 1, ids, lambda rng: heed_form_clusters(geom, params, rng),
                lambda rng: oracle_heed_form_clusters(nodes, params, rng))

    @pytest.mark.parametrize("seed,grid,sep", LARGE_NETWORKS)
    def test_eecs(self, seed, grid, sep):
        # the suppression and separation scans read the distance table, and
        # from seed 100 on compute their distances
        rng = np.random.default_rng(seed)
        nodes = sized_network(rng, seed, grid, 90)
        params = eecs_params(rng, sep)
        bs = (50.0, float(rng.choice([50.0, 175.0])))
        geom, ids = geometry_of(nodes, bs)
        in_step(seed + 1, ids, lambda rng: eecs_form_clusters(geom, params, rng),
                lambda rng: oracle_eecs_form_clusters(nodes, bs, params, rng))

    @pytest.mark.parametrize("seed,n", [(s, n) for s in range(10) for n in (90, 400)])
    def test_eecs_suppression_at_exactly_the_radius(self, seed, n):
        # on the 5 m grid many candidates lie exactly suppress_radius from a
        # stronger one, and yield to it: through the table at n <= 256, through
        # math.hypot above
        rng = np.random.default_rng(seed)
        nodes = random_network(rng, int(rng.integers(n // 3, n)), grid=True)
        params = EecsParams(p=float(rng.uniform(0.3, 1.0)),
                            suppress_radius=5.0 * float(rng.integers(1, 5)),
                            head_fraction=float(rng.uniform(0.1, 0.3)))
        geom, ids = geometry_of(nodes)
        in_step(seed + 1, ids, lambda rng: eecs_form_clusters(geom, params, rng),
                lambda rng: oracle_eecs_form_clusters(nodes, BS, params, rng))
        assert (geom.table is None) == (len(nodes) > 256)

    @pytest.mark.parametrize("seed,grid,sep", [c for c in NETWORKS if c[0] < 8])
    def test_eecs_warm_store(self, monkeypatch, seed, grid, sep):
        # one Geometry through 30 formations: at n <= 256 every distance is
        # computed when the first formation reads the table, before later
        # deaths, and only read after. (The test keeps the name of the store
        # of head distances EECS used to keep, and with it its ids.)
        rng = np.random.default_rng(seed)
        nodes = sorted(random_network(rng, int(rng.integers(20, 90)), grid), key=lambda n: n.id)
        exact = count_hypot(monkeypatch)
        formations = eecs_formations(rng, seed, nodes, sep)
        assert exact.total() == len(nodes)  # the sink distances
        assert len(list(formations)) == 30
        assert exact.total() == len(nodes) + len(nodes) ** 2

    @pytest.mark.parametrize("seed,grid,sep", [c for c in NETWORKS if c[0] < 2 and not c[1]])
    def test_eecs_exact_rows_past_the_table(self, monkeypatch, seed, grid, sep):
        # at n > 256 there is no table and nothing is kept between rounds:
        # each formation computes one d2 block, its join's, over its heads and
        # members, and no exact distance but the suppression scan's
        rng = np.random.default_rng(seed)
        nodes = sorted(random_network(rng, int(rng.integers(500, 600)), grid), key=lambda n: n.id)
        formations = eecs_formations(rng, seed, nodes, sep)
        calls = count_hypot(monkeypatch)
        d2 = count_calls(monkeypatch, protocols, "squared_distances")
        for i, (_, geom, _) in enumerate(formations, 1):
            assert geom.table is None and set(calls) <= {"_thin"}
            assert d2[0] == i

    @pytest.mark.parametrize("seed,grid", [(s, g) for s in [*range(20), 100, 101]
                                           for g in (False, True)])
    def test_heed_cost(self, seed, grid):
        # the scalar cost was never bit-equal to the array one (math.hypot and
        # sequential sums against sqrt(dx*dx + dy*dy) and pairwise sums)
        rng = np.random.default_rng(seed)
        nodes = alive_of(sized_network(rng, seed, grid, 60))
        radius = float(rng.uniform(5, 40))
        pos = np.array([n.pos for n in nodes])
        _, cost = heed_geometry(pos, radius)
        assert cost.tolist() == pytest.approx(
            [heed_cost(c, nodes, radius) for c in nodes], rel=1e-12)

    def test_heed_cost_of_a_lone_node_is_r_times_r(self):
        # r * r and r**2 differ in the last bit at this r: a node without
        # neighbours costs r * r, as a pair exactly r apart does, so the three
        # tie and rank by row
        r = 10.142426998871324
        in_range, cost = heed_geometry(np.array([[0.0, 0.0], [r, 0.0], [500.0, 500.0]]), r)
        assert in_range.sum(axis=1).tolist() == [1, 1, 0]
        assert cost.tolist() == [r * r] * 3 == [102.86882542743398] * 3
        geom = Geometry([(0.0, 0.0), (r, 0.0), (500.0, 500.0)], BS, 1.0)
        assert geom.heed(geom.alive(), r)[1].tolist() == [0, 1, 2]

    @pytest.mark.parametrize("seed,grid", [(s, g) for s in [*range(10), *range(100, 106)]
                                           for g in (False, True)])
    def test_heed_geometry_in_row_blocks(self, seed, grid):
        # built a row block at a time, the mask and the costs equal those of
        # the whole n x n arrays bit for bit: each cost row is still summed
        # over its whole row, in numpy's pairwise order
        rng = np.random.default_rng(seed)
        nodes = alive_of(sized_network(rng, seed, grid, 90))
        pos = np.array([n.pos for n in nodes])
        radius = float(rng.integers(1, 31)) if grid else float(rng.uniform(1, 30))
        _, in_range, cost = oracle_heed_geometry(pos, radius)
        got_in_range, got_cost = heed_geometry(pos, radius)
        assert np.array_equal(got_in_range, in_range)
        assert got_cost.tobytes() == cost.tobytes()


# --- the ledger against the per-charge oracle ------------------------------------


def node_state(state):
    geom = state.geometry
    return list(zip(range(len(geom.energy)), geom.energy.tolist(), geom.rounds_since_ch.tolist()))


def low_energy_lifetime(protocol, seed, n_nodes):
    """Runs the engine and the oracle side by side over one lifetime of
    ``n_nodes`` nodes on energies of a few rounds' worth, spread so that heads
    and members die part-way through a round; asserts every round equal and
    returns the phases of the oracle's deaths."""
    rng = np.random.default_rng(seed)
    config = NetworkConfig(n_nodes=n_nodes, seed=seed,
                           bs_pos=(50.0, float(rng.choice([50.0, 175.0]))))
    nodes = [OracleNode(id=i, pos=tuple(rng.uniform(0, 100, 2).tolist()),
                        energy=float(rng.uniform(1e-5, 3e-3))) for i in range(n_nodes)]
    new, old = (SimState(geometry=geometry_of(nodes, config.bs_pos)[0], config=config,
                         rng=np.random.default_rng(seed)) for _ in range(2))
    old_nodes = copy.deepcopy(nodes)
    deaths = []
    clamped_rounds = 0
    while new.alive_count() > 0 and new.round < 60:
        new, got = run_round(new, protocol)
        old, expected = oracle_run_round(old, old_nodes, protocol, deaths)
        assert got == expected
        assert node_state(new) == [(n.id, n.energy, n.rounds_since_ch) for n in old_nodes]
        assert new.bs_messages == old.bs_messages
        clamped_rounds += got.energy_clamped > 0
    assert clamped_rounds > 0  # the dying paths were taken
    return deaths


def phases_killed(cases, seeds, n_nodes):
    return {phase for protocol in cases for seed in seeds
            for phase in low_energy_lifetime(protocol, seed, n_nodes)}


PROTOCOLS = [LeachParams(), HeedParams(), EecsParams(), KmeansFormation(k=3),
             FuzzyFormation(k=3), LeachParams(ch_separation=20.0)]
# a head dies receiving a join only from seed 7 on (LEACH's seeds 8 and 9)
SEEDS = range(10)
PAST_THE_TABLE = [LeachParams(), HeedParams(), EecsParams(), KmeansFormation()]
PHASES = {"advert", "advert receive", "join send", "join receive", "data send",
          "data receive", "aggregation", "uplink"}


class TestLedgerMatchesPerChargeOracle:
    """At n = 40, with the distance table, the ledger charges what the oracle
    charges, one cost per call with ``euclidean_distance`` over sorted
    members, and kills whom it kills."""

    @pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: type(p).__name__)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_low_energy_rounds(self, protocol, seed):
        low_energy_lifetime(protocol, seed, 40)

    def test_every_phase_kills(self):
        # across the cases above, each phase's charge kills a node at least once
        assert phases_killed(PROTOCOLS, SEEDS, 40) == PHASES


class TestLedgerPastTheTable:
    """As ``TestLedgerMatchesPerChargeOracle``, at n = 300: there is no
    distance table, so the ledger computes each member's distance with
    ``math.hypot``."""

    def test_no_table(self):
        assert Geometry(np.zeros((300, 2)), BS, 1.0).table is None

    @pytest.mark.parametrize("protocol", PAST_THE_TABLE, ids=lambda p: type(p).__name__)
    @pytest.mark.parametrize("seed", range(5))
    def test_low_energy_rounds(self, protocol, seed):
        low_energy_lifetime(protocol, seed, 300)

    def test_every_phase_kills(self):
        assert phases_killed(PAST_THE_TABLE, range(5), 300) == PHASES
