import math

import numpy as np
import pytest

from wsnsim.model import (
    NetworkConfig,
    Node,
    Position,
    RadioModel,
    aggregate_energy,
    consume,
    deploy_nodes,
    euclidean_distance,
    rx_energy,
    tx_energy,
)

RADIO = RadioModel(e_elec=50e-9, e_amp=100e-12, e_da=5e-9)


def make_node(energy=0.5, x=0.0, y=0.0, node_id=0):
    return Node(id=node_id, pos=Position(x, y), energy=energy)


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
    def test_partial(self):
        node = make_node(energy=1.0)
        consume(node, 0.3)
        assert node.energy == pytest.approx(0.7)
        assert node.alive

    def test_exact_boundary_kills(self):
        node = make_node(energy=0.2)
        consume(node, 0.2)
        assert node.energy == 0.0
        assert not node.alive

    def test_clamps_at_zero(self):
        node = make_node(energy=0.1)
        consume(node, 5.0)
        assert node.energy == 0.0
        assert not node.alive

    def test_alive_tracks_energy(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            node = make_node(energy=float(rng.uniform(0, 1)))
            consume(node, float(rng.uniform(0, 1)))
            assert node.energy >= 0.0
            assert node.alive == (node.energy > 0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            consume(make_node(), -0.1)


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
        assert node.alive

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

    @pytest.mark.parametrize("field", ["e_elec", "e_amp", "e_da"])
    def test_radio_rejects_non_finite(self, field):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=field):
                RadioModel(**{field: value})

    def test_diagonal(self):
        assert NetworkConfig(arena=(60.0, 80.0)).diagonal == 100.0
        assert NetworkConfig().diagonal == pytest.approx(math.hypot(100, 100))
