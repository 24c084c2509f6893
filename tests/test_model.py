import math

import numpy as np
import pytest

from wsnsim.engine import HeedParams, LeachParams, SimState, run_round, run_simulation
from wsnsim.model import (
    NetworkConfig,
    Node,
    Position,
    RadioModel,
    aggregate_energy,
    deploy_nodes,
    euclidean_distance,
    rx_energy,
    tx_energy,
)

RADIO = RadioModel(e_elec=50e-9, e_amp=100e-12, e_da=5e-9)
# powers of two make every charge and subtraction exact
EXACT_RADIO = RadioModel(e_elec=2.0**-20, e_amp=2.0**-34, e_da=2.0**-22,
                         data_bits=4096, header_bits=256)


def make_node(energy=0.5, x=0.0, y=0.0, node_id=0):
    return Node(id=node_id, pos=Position(x, y), energy=energy)


def one_node_config(energy, radio=RADIO):
    # arena diagonal hypot(60, 80) = 100; the BS is 100 m from the node at the origin
    return NetworkConfig(n_nodes=1, arena=(60.0, 80.0), bs_pos=Position(0.0, 100.0),
                         initial_energy=energy, radio=radio, seed=0)


def one_node_round_cost(radio):
    """A lone node's round: it advertises at the arena diagonal, aggregates
    its own signal and uplinks it to the BS, both 100 m away."""
    return (tx_energy(radio, radio.header_bits, 100.0)
            + aggregate_energy(radio, radio.data_bits, 1)
            + tx_energy(radio, radio.data_bits, 100.0))


def one_node_round(energy, radio=RADIO):
    state = SimState(nodes=[make_node(energy)], config=one_node_config(energy, radio))
    return run_round(state, LeachParams())


class TestEuclideanDistance:
    def test_three_four_five(self):
        assert euclidean_distance(Position(0, 0), Position(3, 4)) == 5.0

    def test_identity(self):
        assert euclidean_distance(Position(7, 2), Position(7, 2)) == 0.0

    def test_axis_aligned(self):
        assert euclidean_distance(Position(50, 175), Position(50, 75)) == 100.0

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            pts = [Position(*rng.uniform(-50, 50, 2)) for _ in range(3)]
            a, b, c = pts
            dab = euclidean_distance(a, b)
            assert dab == euclidean_distance(b, a)
            assert dab >= 0
            assert dab <= euclidean_distance(a, c) + euclidean_distance(c, b) + 1e-12


class TestRadioEnergy:
    def test_tx_zero_bits(self):
        assert tx_energy(RADIO, 0, 123.0) == 0.0

    def test_tx_zero_distance(self):
        assert tx_energy(RADIO, 4000, 0.0) == pytest.approx(2.0e-4, rel=1e-12)

    def test_tx_hundred_meters(self):
        assert tx_energy(RADIO, 4000, 100.0) == pytest.approx(4.2e-3, rel=1e-12)

    def test_rx(self):
        assert rx_energy(RADIO, 0) == 0.0
        assert rx_energy(RADIO, 4000) == pytest.approx(2.0e-4, rel=1e-12)

    def test_rx_equals_tx_at_zero_distance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            bits = int(rng.integers(0, 10000))
            assert rx_energy(RADIO, bits) == tx_energy(RADIO, bits, 0.0)

    def test_aggregate(self):
        assert aggregate_energy(RADIO, 4000, 0) == 0.0
        assert aggregate_energy(RADIO, 4000, 1) == pytest.approx(2.0e-5, rel=1e-12)
        assert aggregate_energy(RADIO, 4000, 10) == pytest.approx(2.0e-4, rel=1e-12)

    def test_tx_monotone_in_bits_and_distance(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            b1, b2 = sorted(rng.integers(0, 10000, 2))
            d1, d2 = sorted(rng.uniform(0, 200, 2))
            assert tx_energy(RADIO, int(b1), d1) <= tx_energy(RADIO, int(b2), d1)
            assert tx_energy(RADIO, int(b1), d1) <= tx_energy(RADIO, int(b1), d2)

    def test_radio_validation(self):
        with pytest.raises(ValueError):
            RadioModel(e_elec=-1e-9)
        with pytest.raises(ValueError):
            RadioModel(data_bits=100, header_bits=200)


class TestConsume:
    """How a round consumes a node's energy, read from ``run_round``: each
    charge is paid in full, or the node's energy clamps at 0 and it dies."""

    def test_partial(self):
        state, report = one_node_round(1.0)
        assert state.geometry.energy[0] == pytest.approx(1.0 - one_node_round_cost(RADIO))
        assert state.alive_count() == 1
        assert report.energy_clamped == 0.0

    def test_exact_boundary_kills(self):
        state, report = one_node_round(one_node_round_cost(EXACT_RADIO), radio=EXACT_RADIO)
        assert state.geometry.energy[0] == 0.0
        assert state.alive_count() == 0
        assert report.energy_clamped == 0.0

    def test_clamps_at_zero(self):
        # the advert alone costs 2.1e-4 J; what the node cannot pay is clamped
        state, report = one_node_round(1e-6)
        assert state.geometry.energy[0] == 0.0
        assert state.alive_count() == 0
        assert report.energy_charged - report.energy_clamped == pytest.approx(1e-6)

    def test_alive_tracks_energy(self):
        rng = np.random.default_rng(3)
        nodes = [make_node(float(rng.uniform(0, 2e-3)), *rng.uniform(0, 100, 2), node_id=i)
                 for i in range(30)]
        state = SimState(nodes=nodes, config=NetworkConfig(n_nodes=30, seed=3))
        while state.alive_count() > 0:
            state, report = run_round(state, LeachParams())
            assert (state.geometry.energy >= 0.0).all()
            assert report.alive_after == np.count_nonzero(state.geometry.energy > 0)

    def test_negative_cost_rejected(self):
        # every charge is built from these constants, so none can be negative
        for field in ("e_elec", "e_amp", "e_da"):
            with pytest.raises(ValueError, match=field):
                RadioModel(**{field: -1e-12})


class TestDeploy:
    def test_same_seed_bit_identical(self):
        cfg = NetworkConfig(seed=99)
        a = deploy_nodes(cfg)
        b = deploy_nodes(cfg)
        assert [(n.pos.x, n.pos.y) for n in a] == [(n.pos.x, n.pos.y) for n in b]

    def test_different_seeds_differ(self):
        a = deploy_nodes(NetworkConfig(seed=1))
        b = deploy_nodes(NetworkConfig(seed=2))
        assert any(
            (x.pos.x, x.pos.y) != (y.pos.x, y.pos.y) for x, y in zip(a, b)
        )

    def test_single_node(self):
        cfg = NetworkConfig(n_nodes=1, initial_energy=0.25, seed=4)
        (node,) = deploy_nodes(cfg)
        assert 0 <= node.pos.x <= 100 and 0 <= node.pos.y <= 100
        assert node.energy == 0.25

    def test_hundred_nodes_inside_arena(self):
        nodes = deploy_nodes(NetworkConfig(seed=5))
        assert len(nodes) == 100
        for n in nodes:
            assert 0 <= n.pos.x <= 100
            assert 0 <= n.pos.y <= 100
        assert sorted(n.id for n in nodes) == list(range(100))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(n_nodes=0)
        with pytest.raises(ValueError):
            NetworkConfig(arena=(0.0, 100.0))
        with pytest.raises(ValueError):
            NetworkConfig(initial_energy=0.0)

    @pytest.mark.parametrize("kwargs", [
        dict(initial_energy=math.nan), dict(initial_energy=math.inf),
        dict(arena=(math.nan, 100.0)), dict(arena=(100.0, math.inf)),
        dict(bs_pos=Position(math.nan, 175.0)), dict(bs_pos=Position(50.0, -math.inf)),
        dict(seed=-1),
    ])
    def test_config_rejects_non_finite_and_out_of_range(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs)).replace("arena", "width|height")
                           .replace("bs_pos", "bs_x|bs_y")):
            NetworkConfig(**kwargs)

    # the CLI tests refuse a far base station, a huge arena and a huge e_amp;
    # these overflow only through the node count
    @pytest.mark.parametrize("kwargs,match", [
        (dict(arena=(1e153, 1e153), n_nodes=10**4), "squared range"),
        (dict(radio=RadioModel(e_elec=1e303)), "a round can charge"),
    ])
    def test_config_rejects_overflowing_distances_and_charges(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            NetworkConfig(**kwargs)

    def test_far_but_finite_scenario_charges_finite_energy(self):
        config = NetworkConfig(n_nodes=30, bs_pos=Position(50.0, 1e150), seed=2)
        reports = run_simulation(config, HeedParams(), 3).reports
        assert all(math.isfinite(r.energy_charged) for r in reports)

    @pytest.mark.parametrize("field", ["e_elec", "e_amp", "e_da"])
    def test_radio_rejects_non_finite(self, field):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=field):
                RadioModel(**{field: value})

    def test_diagonal(self):
        assert NetworkConfig(arena=(60.0, 80.0)).diagonal == 100.0
        assert NetworkConfig().diagonal == pytest.approx(math.hypot(100, 100))
