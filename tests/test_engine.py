import copy
import dataclasses

import numpy as np
import pytest

import wsnsim.engine
import wsnsim.protocols
from wsnsim.engine import (
    PROTOCOLS,
    EecsParams,
    FuzzyFormation,
    HeedParams,
    KmeansFormation,
    LeachParams,
    SimState,
    SimulationComplete,
    run_round,
    run_simulation,
    sweep_iterations,
)
from wsnsim.metrics import result_to_dict
from wsnsim.model import NetworkConfig, deploy_nodes
from wsnsim.partitioning import FcmUnderflow, defuzzify, fcm_run
from wsnsim.protocols import Geometry, _centroid_cluster_set, fuzzy_form_clusters

from shared import one_node_config, one_node_round_cost, validate


def fresh_state(config: NetworkConfig, pos=(0.0, 0.0)) -> SimState:
    return SimState(geometry=Geometry([pos], config.bs_pos, config.initial_energy), config=config)


def deployed_state(config: NetworkConfig) -> SimState:
    geom = Geometry(deploy_nodes(config), config.bs_pos, config.initial_energy)
    return SimState(geometry=geom, config=config)


def record_cluster_sets(monkeypatch) -> list:
    """Make the engine append each round's (cluster set, iterations) to the
    returned list."""
    formed = []
    form = wsnsim.engine._form_clusters

    def recording(state, protocol, alive):
        formed.append(form(state, protocol, alive))
        return formed[-1]

    monkeypatch.setattr(wsnsim.engine, "_form_clusters", recording)
    return formed


def assert_heads_reset(geom, cluster_set, before):
    """The rotation counter is 0 exactly for the round's heads; every other
    row's counter grew by one."""
    is_head = np.isin(np.arange(len(geom.energy)), cluster_set.heads)
    assert (geom.rounds_since_ch == 0).tolist() == is_head.tolist()
    assert (geom.rounds_since_ch[~is_head] == before[~is_head] + 1).all()


class TestRunRoundSingleNode:
    def test_exact_energy_dies_and_message_not_counted(self):
        cost = one_node_round_cost()
        state = fresh_state(one_node_config(cost))
        state, report = run_round(state, LeachParams())
        assert state.geometry.energy[0] == 0.0
        assert state.alive_count() == 0
        assert report.alive_after == 0
        assert report.bs_messages_delivered == 0
        assert state.bs_messages == 0

    def test_ten_times_energy_survives_and_delivers(self):
        cost = one_node_round_cost()
        state = fresh_state(one_node_config(10 * cost))
        state, report = run_round(state, LeachParams())
        assert state.alive_count() == 1
        assert report.bs_messages_delivered == 1
        assert state.bs_messages == 1
        assert state.geometry.energy[0] == pytest.approx(9 * cost, rel=1e-12)


class TestRunRound:
    def test_head_with_three_members_delivers_one_message(self):
        config = NetworkConfig(n_nodes=4, seed=3)
        geom = Geometry([(50, 50), (40, 50), (60, 50), (50, 40)], config.bs_pos,
                        [0.5, 0.4, 0.4, 0.4])
        state = SimState(geometry=geom, config=config)
        # k=1 puts everyone in one cluster headed by the max-energy node
        state, report = run_round(state, KmeansFormation(k=1))
        assert report.ch_count == 1
        assert report.bs_messages_delivered == 1

    def test_round_report_bookkeeping(self):
        config = NetworkConfig(seed=11)
        state = deployed_state(config)
        state, report = run_round(state, LeachParams())
        assert report.round == 0
        assert report.alive_before == 100
        assert report.alive_after <= report.alive_before
        assert report.clustering_iterations == 0
        assert state.round == 1

    def test_rounds_since_ch_updates(self, monkeypatch):
        config = NetworkConfig(seed=13)
        state = deployed_state(config)
        geom = state.geometry
        formed = record_cluster_sets(monkeypatch)
        for r in range(25):
            if r == 7:  # round 6's heads die between the rounds
                geom.energy[geom.rounds_since_ch == 0] = 0.0
            alive_rows = set(np.flatnonzero(geom.energy > 0).tolist())
            before = geom.rounds_since_ch.copy()
            state, report = run_round(state, LeachParams())
            cluster_set = formed[-1][0]
            assert cluster_set.heads  # at least the fallback head
            validate(cluster_set, alive_rows)  # the dead rows take no part
            assert_heads_reset(geom, cluster_set, before)
            assert report.alive_after == state.alive_count()
            if r == 0:
                assert (geom.rounds_since_ch[geom.rounds_since_ch != 0] > 10**6).all()

    def test_raises_when_all_dead(self):
        config = NetworkConfig(n_nodes=1, seed=0)
        state = fresh_state(config)
        state.geometry.energy[0] = 0.0
        with pytest.raises(SimulationComplete):
            run_round(state, LeachParams())

    @pytest.mark.parametrize(
        "protocol",
        [LeachParams(), HeedParams(), EecsParams(), KmeansFormation(), FuzzyFormation()],
    )
    def test_energy_conservation_every_protocol(self, protocol):
        config = NetworkConfig(n_nodes=30, seed=17)
        state = deployed_state(config)
        for _ in range(5):
            before = sum(state.geometry.energy.tolist())
            state, report = run_round(state, protocol)
            after = sum(state.geometry.energy.tolist())
            drop = before - after
            booked = report.energy_charged - report.energy_clamped
            assert drop == pytest.approx(booked, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize(
        "protocol",
        [LeachParams(), HeedParams(), EecsParams(), KmeansFormation(k=3), FuzzyFormation(k=3)],
        ids=lambda p: type(p).__name__,
    )
    def test_alive_after_equals_a_recount(self, monkeypatch, protocol):
        # the report carries alive_before minus the deaths the ledger counted; energies
        # of a few rounds' worth make nodes die part-way through rounds
        rng = np.random.default_rng(29)
        config = NetworkConfig(n_nodes=40, seed=29)
        nodes = [(rng.uniform(0, 100, 2), float(rng.uniform(1e-5, 3e-3))) for _ in range(40)]
        geom = Geometry([xy for xy, _ in nodes], config.bs_pos, [e for _, e in nodes])
        state = SimState(geometry=geom, config=config)
        geom = state.geometry
        formed = record_cluster_sets(monkeypatch)
        clamped_rounds = killed = 0
        while state.alive_count() > 0:
            if state.round % 3 == 2:  # the richest row dies between rounds
                geom.energy[geom.by_energy(geom.alive())[0]] = 0.0
                killed += 1
            if state.alive_count() == 0:
                break
            alive_rows = set(np.flatnonzero(geom.energy > 0).tolist())
            before = geom.rounds_since_ch.copy()
            state, report = run_round(state, protocol)
            # only the rows alive at the round's start take part in it
            validate(formed[-1][0], alive_rows)
            assert report.alive_before == len(alive_rows)
            assert report.alive_after == state.alive_count()
            assert_heads_reset(geom, formed[-1][0], before)
            clamped_rounds += report.energy_clamped > 0
        assert clamped_rounds > 0 and killed > 0

    def test_centroid_protocols_report_iterations(self):
        config = NetworkConfig(n_nodes=25, seed=19)
        state = deployed_state(config)
        _, report = run_round(state, KmeansFormation())
        assert report.clustering_iterations >= 1


class TestRunSimulation:
    def test_bit_identical_repeat(self):
        config = NetworkConfig(n_nodes=40, seed=23)
        a = run_simulation(config, LeachParams(), max_rounds=400)
        b = run_simulation(config, LeachParams(), max_rounds=400)
        assert result_to_dict(a) == result_to_dict(b)

    def test_huge_energy_no_deaths(self):
        config = NetworkConfig(n_nodes=20, initial_energy=1e6, seed=29)
        res = run_simulation(config, LeachParams(), max_rounds=5)
        assert len(res.reports) == 5
        assert res.first_death_round is None
        assert res.last_death_round is None
        assert all(r.alive_after == 20 for r in res.reports)

    def test_tiny_energy_all_die_round_zero(self):
        config = NetworkConfig(n_nodes=20, initial_energy=1e-9, seed=31)
        res = run_simulation(config, LeachParams(), max_rounds=100)
        assert res.first_death_round == 0
        assert res.last_death_round == 0
        assert len(res.reports) == 1
        assert res.total_bs_messages == 0

    def test_alive_monotone_bs_monotone(self):
        config = NetworkConfig(n_nodes=50, initial_energy=0.05, seed=37)
        res = run_simulation(config, EecsParams(), max_rounds=2000)
        alive = [r.alive_after for r in res.reports]
        assert all(b <= a for a, b in zip(alive, alive[1:]))
        cumulative = np.cumsum([r.bs_messages_delivered for r in res.reports])
        assert all(b >= a for a, b in zip(cumulative, cumulative[1:]))
        assert res.total_bs_messages == cumulative[-1]

    def test_first_death_not_after_last_death(self):
        config = NetworkConfig(n_nodes=30, initial_energy=0.02, seed=41)
        res = run_simulation(config, HeedParams(), max_rounds=2000)
        assert res.first_death_round is not None
        assert res.last_death_round is not None
        assert res.first_death_round <= res.last_death_round

    def test_protocol_names(self):
        classes = [LeachParams, HeedParams, EecsParams, KmeansFormation, FuzzyFormation]
        assert PROTOCOLS == dict(zip(["leach", "heed", "eecs", "kmeans", "fuzzy"], classes))
        config = NetworkConfig(n_nodes=10, seed=1)
        for name, cls in PROTOCOLS.items():
            assert run_simulation(config, cls(), max_rounds=1).protocol == name
        # a class attribute, not a field: the params' dict and outputs omit it
        assert "name" not in dataclasses.asdict(HeedParams())


class TestHelpers:
    def test_default_cluster_count(self):
        # with k=None the centroid formations ask for 5% of the alive nodes, at least one
        for alive, k in [(100, 5), (1, 1), (101, 6)]:
            assert wsnsim.engine._cluster_count(alive, None) == k

    def test_sweep_iterations_shape(self):
        rows = sweep_iterations(
            NetworkConfig(n_nodes=30, seed=1), grid=[3, 6], seeds=[1, 2]
        )
        assert [r[0] for r in rows] == [3, 6]
        for _, km, fz, capped in rows:
            assert km >= 1 and fz >= 1
            assert 0 <= capped <= 2

    def test_sweep_iterations_rejects_repeated_grid_value(self):
        # a repeated k would pool both cells' runs and divide by the seed count once
        with pytest.raises(ValueError, match="repeats"):
            sweep_iterations(NetworkConfig(n_nodes=30, seed=1), grid=[5, 5], seeds=[1])

    def test_sweep_iterations_rejects_no_seeds(self):
        # the means would divide by a seed count of 0
        with pytest.raises(ValueError, match="seeds"):
            sweep_iterations(NetworkConfig(n_nodes=20), grid=[3], seeds=[])

    @pytest.mark.parametrize("protocol", [KmeansFormation(), FuzzyFormation()],
                             ids=["kmeans", "fuzzy"])
    def test_centroid_round_reads_the_alive_rows_once(self, monkeypatch, protocol):
        # k comes from the alive count run_round took, so only the formation
        # itself asks the geometry for the alive rows
        calls, alive = [], Geometry.alive

        def counted(geom):
            calls.append(1)
            return alive(geom)

        monkeypatch.setattr(Geometry, "alive", counted)
        state = look_ahead_state()
        state.geometry.energy[::7] = 0.0
        for expected in range(1, 6):
            run_round(state, protocol)
            assert len(calls) == expected

    @pytest.mark.parametrize("sep", [0.0, 15.0])
    def test_leach_round_reads_the_alive_rows_once(self, monkeypatch, sep):
        # the election and the join share the rows _leach took, with head
        # separation between them or not
        calls, alive = [], Geometry.alive

        def counted(geom):
            calls.append(1)
            return alive(geom)

        monkeypatch.setattr(Geometry, "alive", counted)
        state = look_ahead_state()
        state.geometry.energy[::7] = 0.0
        for expected in range(1, 6):
            state, _ = run_round(state, LeachParams(ch_separation=sep))
            assert len(calls) == expected

    def test_kmeans_k_clamped_as_network_dies(self):
        # a shrinking network must not raise once alive < k
        config = NetworkConfig(n_nodes=12, initial_energy=0.01, seed=43)
        res = run_simulation(config, KmeansFormation(k=10), max_rounds=2000)
        assert res.last_death_round is not None


def look_ahead_state(seed: int = 3) -> SimState:
    """A paper-scenario state whose generator deployed the nodes, as in
    ``run_simulation``."""
    config = NetworkConfig(seed=seed)
    rng = np.random.default_rng(config.seed)
    geom = Geometry(deploy_nodes(config, rng), config.bs_pos, config.initial_energy)
    return SimState(geometry=geom, config=config, rng=rng)


def record_fcm_batches(monkeypatch) -> list:
    """Make every fcm_run call append its seeds to the returned list."""
    batches, run = [], wsnsim.protocols.fcm_run

    def recording(points, k, seeds, *args):
        batches.append(list(seeds))
        return run(points, k, seeds, *args)

    monkeypatch.setattr(wsnsim.protocols, "fcm_run", recording)
    return batches


def next_seed(state: SimState) -> int:
    return int(copy.deepcopy(state.rng).integers(0, 2**63))


def fresh_fuzzy_round(state: SimState, params: FuzzyFormation) -> tuple:
    """The coming fuzzy round's (clusters, iterations) from one fresh fcm_run
    over the alive set, with no kept runs."""
    geom = state.geometry
    rows = geom.alive()
    k = wsnsim.engine._cluster_count(len(rows), params.k)
    u, centroids, iterations = fcm_run(geom.pos[rows], k, [next_seed(state)], params.m,
                                       params.tol, params.max_iter)[0]
    return _centroid_cluster_set(geom, rows, defuzzify(u), centroids), iterations


class TestFuzzyLookAhead:
    """A fuzzy round may run the coming rounds' seeds in one batch; its
    clusters, and the generator, are what one run per round gives."""

    def test_generator_draws_one_seed_per_round(self, monkeypatch):
        batches = record_fcm_batches(monkeypatch)
        state = look_ahead_state()
        reference = np.random.default_rng(state.config.seed)
        deploy_nodes(state.config, reference)
        for _ in range(12):
            run_round(state, FuzzyFormation())
            reference.integers(0, 2**63)
            assert state.rng.bit_generator.state == reference.bit_generator.state
        assert [len(b) for b in batches] == [1, 2, 4, 8]  # rounds 0, 1, 3 and 7

    def test_formation_draws_its_own_seed(self, monkeypatch):
        # the library contract under the engine: each call takes one seed
        # from the generator it is given, whoever made that generator
        batches = record_fcm_batches(monkeypatch)
        geom, params = look_ahead_state().geometry, FuzzyFormation()
        rows = geom.alive()
        rng, reference = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(12):
            got = fuzzy_form_clusters(geom, params, 5, rng)
            seed = int(reference.integers(0, 2**63))
            assert rng.bit_generator.state == reference.bit_generator.state
            u, centroids, iterations = fcm_run(geom.pos[rows], 5, [seed], params.m,
                                               params.tol, params.max_iter)[0]
            assert got == (_centroid_cluster_set(geom, rows, defuzzify(u), centroids), iterations)
        assert [len(b) for b in batches] == [1, 2, 4, 8]

    def test_node_killed_between_rounds(self, monkeypatch):
        batches = record_fcm_batches(monkeypatch)
        formed = record_cluster_sets(monkeypatch)
        state, params = look_ahead_state(), FuzzyFormation()
        for _ in range(4):  # round 3 runs rounds 4-6 too
            run_round(state, params)
        seed, calls = next_seed(state), len(batches)
        assert seed in batches[-1][1:]
        state.geometry.energy[int(state.geometry.alive()[7])] = 0.0
        for _ in range(3):
            expected = fresh_fuzzy_round(state, params)
            run_round(state, params)
            assert formed[-1] == expected
        assert batches[calls][0] == seed  # the kept run for the old alive set was not used

    def test_other_protocol_round_only_misses(self, monkeypatch):
        batches = record_fcm_batches(monkeypatch)
        formed = record_cluster_sets(monkeypatch)
        state, fuzzy = look_ahead_state(), FuzzyFormation()
        for protocol in [fuzzy] * 5 + [LeachParams()] + [fuzzy] * 4:
            if protocol is fuzzy:
                expected, seed = fresh_fuzzy_round(state, fuzzy), next_seed(state)
                foreseen = seed in batches[-1][1:] if batches else False
            run_round(state, protocol)
            if protocol is fuzzy:
                assert formed[-1] == expected
                assert foreseen != (batches[-1][0] == seed)
        # round 3 ran rounds 4-6, but LEACH drew from the generator in round 5:
        # round 6 misses and runs alone, round 7 runs rounds 7-8 and round 9 runs 9-12
        assert [len(b) for b in batches] == [1, 2, 4, 1, 2, 4]

    def test_failed_miss_keeps_no_stale_run(self, monkeypatch):
        state, params = look_ahead_state(), FuzzyFormation()
        for _ in range(2):  # round 1 runs round 2 too
            run_round(state, params)
        geom, seed = state.geometry, next_seed(state)
        k = wsnsim.engine._cluster_count(len(geom.alive()), params.k)
        geom.energy[int(geom.alive()[7])] = 0.0
        rows, run = geom.alive(), wsnsim.protocols.fcm_run

        def underflow(*args):
            raise FcmUnderflow("the memberships underflow to 0/0")

        monkeypatch.setattr(wsnsim.protocols, "fcm_run", underflow)
        with pytest.raises(FcmUnderflow):  # a miss on the new alive set, failed
            geom.fcm(rows, params, k, copy.deepcopy(state.rng))
        monkeypatch.setattr(wsnsim.protocols, "fcm_run", run)
        # the run kept for the old alive set is not read as the new set's
        expected = fcm_run(geom.pos[rows], k, [seed], params.m, params.tol, params.max_iter)[0]
        got = geom.fcm(rows, params, k, state.rng)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
