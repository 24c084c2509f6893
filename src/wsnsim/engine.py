"""Round-based simulation driver.

A round has two phases. Setup: the protocol forms clusters, heads advertise
at full (arena-diagonal) range, everyone pays to receive the adverts, members
pay to send join messages and heads pay to receive them. Steady state: each
member sends one data message to its head, the head receives, aggregates and
forwards a single message to the base station; orphans send their data
straight to the base station.

A message counts at the base station only if its sender is still alive after
paying the full transmission cost. Nodes that die mid-round take no further
part in that round. All per-node processing runs in ascending row order (a
node's row in the run's ``Geometry`` is its deployment index), so a run is
a pure function of (config, protocol).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import NetworkConfig, aggregate_energy, deploy_nodes, rx_energy, tx_energy
from .protocols import (
    ClusterSet,
    EecsParams,
    FuzzyFormation,
    Geometry,
    HeedParams,
    KmeansFormation,
    LeachParams,
    eecs_form_clusters,
    form_clusters_nearest,
    fuzzy_form_clusters,
    heed_form_clusters,
    kmeans_form_clusters,
    leach_elect,
    enforce_ch_separation,
    head_quota,
)


class SimulationComplete(Exception):
    """Raised when a round is requested but no node is alive."""


@dataclass
class SimState:
    geometry: Geometry  # the run's node state
    config: NetworkConfig
    round: int = 0
    bs_messages: int = 0
    rng: np.random.Generator = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.rng is None:
            self.rng = np.random.default_rng(self.config.seed)

    def alive_count(self) -> int:
        return int(np.count_nonzero(self.geometry.energy > 0))


@dataclass
class RoundReport:
    round: int
    alive_before: int
    alive_after: int
    ch_count: int
    bs_messages_delivered: int
    clustering_iterations: int  # 0 for leach/heed/eecs
    energy_charged: float  # total cost levied this round
    energy_clamped: float  # portion of charges that dying nodes could not pay


@dataclass
class ExperimentResult:
    protocol: str
    config: NetworkConfig
    reports: list[RoundReport]
    first_death_round: int | None
    last_death_round: int | None
    total_bs_messages: int


def _cluster_count(geom: Geometry, k: int | None) -> int:
    alive = len(geom.alive())
    k = k if k is not None else head_quota(alive, 0.05)
    return min(k, alive)  # never more clusters than alive nodes as the network dies


def _leach(state: SimState, protocol: LeachParams) -> tuple[ClusterSet, int]:
    geom = state.geometry
    heads = leach_elect(geom, protocol, state.round, state.rng)
    if protocol.ch_separation > 0:
        heads = enforce_ch_separation(geom, heads, protocol.ch_separation)
    return form_clusters_nearest(geom, heads), 0


def _heed(state: SimState, protocol: HeedParams) -> tuple[ClusterSet, int]:
    return heed_form_clusters(state.geometry, protocol, state.rng)[0], 0


def _eecs(state: SimState, protocol: EecsParams) -> tuple[ClusterSet, int]:
    return eecs_form_clusters(state.geometry, protocol, state.rng), 0


def _kmeans(state: SimState, protocol: KmeansFormation) -> tuple[ClusterSet, int]:
    k = _cluster_count(state.geometry, protocol.k)
    return kmeans_form_clusters(state.geometry, k, max_iter=protocol.max_iter)


def _fuzzy(state: SimState, protocol: FuzzyFormation) -> tuple[ClusterSet, int]:
    k = _cluster_count(state.geometry, protocol.k)
    seed = int(state.rng.integers(0, 2**63))
    return fuzzy_form_clusters(state.geometry, protocol, k, seed, state.rng)


# params type -> its round's formation. The formations call the protocols'
# functions through this module's globals, where a wrapper installed as
# ``wsnsim.engine.leach_elect`` (or any other) intercepts every call.
FORMATIONS = {LeachParams: _leach, HeedParams: _heed, EecsParams: _eecs,
              KmeansFormation: _kmeans, FuzzyFormation: _fuzzy}
PROTOCOLS = {cls.name: cls for cls in FORMATIONS}


def _form_clusters(state: SimState, protocol) -> tuple[ClusterSet, int]:
    return FORMATIONS[type(protocol)](state, protocol)


def run_round(state: SimState, protocol) -> tuple[SimState, RoundReport]:
    """Advance the simulation by one setup + steady-state cycle."""
    alive_before = state.alive_count()
    if alive_before == 0:
        raise SimulationComplete(f"no alive nodes at round {state.round}")

    cfg = state.config
    radio = cfg.radio
    geom = state.geometry
    cluster_set, clustering_iterations = _form_clusters(state, protocol)
    # the ledger charges rows of Python lists
    head_rows, xy, bs_dist = cluster_set.heads, geom.xy, geom.bs_d
    energy = geom.energy.tolist()
    # the per-bit products hoisted, in tx_energy's association;
    # aggregate_energy(radio, b, n) is (e_da * b) * n
    elec_header = rx_energy(radio, radio.header_bits)
    amp_header = radio.e_amp * radio.header_bits
    elec_data = rx_energy(radio, radio.data_bits)
    amp_data = radio.e_amp * radio.data_bits
    da_data = aggregate_energy(radio, radio.data_bits, 1)
    charged = clamped = 0.0
    deaths = 0

    # Every charge, in pay or written out in the per-node loops below, has
    # pay's body and is made in pay's order: it is levied in full, a node
    # left with nothing keeps 0 and dies, and the unpaid part counts as
    # clamped. Only alive nodes are charged, so each death is counted once.
    def pay(row: int, cost: float) -> bool:
        """Charge ``cost`` to ``row``; True iff the node survives."""
        nonlocal charged, clamped, deaths
        charged += cost
        left = energy[row]
        if left > cost:
            energy[row] = left - cost
            return True
        clamped += cost - left
        energy[row] = 0.0
        deaths += 1
        return False

    # -- setup: head advertisements, heard network-wide; a head that
    # delivered one hears only the others' (a charge of 0 changes nothing)
    advert_cost = tx_energy(radio, radio.header_bits, cfg.diagonal)
    delivered_adverts = {h for h in sorted(head_rows) if pay(h, advert_cost)}
    hear_all = len(delivered_adverts) * elec_header
    hear_others = (len(delivered_adverts) - 1) * elec_header
    for row, left in enumerate(energy):  # in row order
        if left > 0.0:
            cost = hear_others if row in delivered_adverts else hear_all
            charged += cost
            if left > cost:
                energy[row] = left - cost
            else:
                clamped += cost - left
                energy[row] = 0.0
                deaths += 1

    # -- each cluster's alive members and their distances to its head, for
    # the join and the data message; a member's energy changes only through
    # its own charges, so the members alive now are the ones that join
    joined = []
    for head, cluster in zip(head_rows, cluster_set.clusters):
        hx, hy = xy[head]
        links = []
        for member in sorted(cluster.members):
            if energy[member] > 0.0:
                mx, my = xy[member]
                links.append((member, math.hypot(mx - hx, my - hy)))
        joined.append((head, links))

    # -- setup: join messages to the head, then steady state: member data,
    # head aggregation and uplink. In each exchange an alive member sends at
    # elec + amp*d*d and, if it survives while its head is alive, the head
    # pays elec to receive; only the cluster's head and members are charged
    # in its exchange, so the head's energy is held in ``left_head``
    delivered = 0
    for elec, amp, steady in ((elec_header, amp_header, False), (elec_data, amp_data, True)):
        for head, links in joined:
            left_head = energy[head]
            received = 0
            for member, d in links:
                left = energy[member]
                if left > 0.0:
                    cost = elec + amp * d * d
                    charged += cost
                    if left > cost:
                        energy[member] = left - cost
                        if left_head > 0.0:
                            charged += elec
                            if left_head > elec:
                                left_head -= elec
                                received += 1
                            else:
                                clamped += elec - left_head
                                left_head = 0.0
                                deaths += 1
                    else:
                        clamped += cost - left
                        energy[member] = 0.0
                        deaths += 1
            energy[head] = left_head
            if steady and left_head > 0.0 and pay(head, da_data * (received + 1)):
                d = bs_dist[head]
                delivered += pay(head, elec_data + amp_data * d * d)

    for orphan in sorted(cluster_set.orphans):
        if energy[orphan] > 0.0:
            d = bs_dist[orphan]
            delivered += pay(orphan, elec_data + amp_data * d * d)

    geom.energy[:] = energy
    geom.rounds_since_ch += 1
    geom.rounds_since_ch[head_rows] = 0

    state.bs_messages += delivered
    report = RoundReport(
        round=state.round,
        alive_before=alive_before,
        alive_after=alive_before - deaths,
        ch_count=len(head_rows),
        bs_messages_delivered=delivered,
        clustering_iterations=clustering_iterations,
        energy_charged=charged,
        energy_clamped=clamped,
    )
    state.round += 1
    return state, report


def sweep_iterations(
    base_config: NetworkConfig,
    grid: list[int],
    seeds: list[int],
    fuzzy: FuzzyFormation = FuzzyFormation(),
) -> list[tuple[int, float, float, int]]:
    """Convergence-iteration comparison of the two centroid formations.

    For each seed, nodes are deployed once and both formations run over every
    cluster count in the grid. Rows are (k, mean kmeans iterations, mean
    fuzzy iterations, fuzzy runs at the cap), with means taken across seeds.
    The last field counts the seeds whose fuzzy run used all max_iter pairs;
    such a run may have stopped short of tol, which makes the fuzzy mean a
    lower bound. ``fuzzy`` gives m, tol and max_iter, which caps k-means
    too; the grid gives k.

    As in ``run_simulation``, each fuzzy run draws its FCM seed from the
    generator that deployed the nodes, after deployment. Seeding FCM with the
    deployment seed itself would make its initial memberships replay the
    node coordinates.
    """
    if len(set(grid)) != len(grid):
        raise ValueError(f"grid repeats a cluster count: {grid}")
    if not seeds:
        raise ValueError("at least one seed required (seeds)")
    per_cell: dict[int, tuple[list[int], list[int]]] = {k: ([], []) for k in grid}
    for seed in seeds:
        config = replace(base_config, seed=seed)
        rng = np.random.default_rng(config.seed)
        geom = Geometry(deploy_nodes(config, rng), config.bs_pos, config.initial_energy)
        for k in grid:
            _, km_iters = kmeans_form_clusters(geom, k, max_iter=fuzzy.max_iter)
            _, fz_iters = fuzzy_form_clusters(geom, fuzzy, k, int(rng.integers(0, 2**63)), rng)
            per_cell[k][0].append(km_iters)
            per_cell[k][1].append(fz_iters)
    return [
        (k, sum(per_cell[k][0]) / len(seeds), sum(per_cell[k][1]) / len(seeds),
         per_cell[k][1].count(fuzzy.max_iter))
        for k in grid
    ]


def run_simulation(config: NetworkConfig, protocol, max_rounds: int) -> ExperimentResult:
    """Deploy, then run rounds until every node is dead or max_rounds is hit."""
    rng = np.random.default_rng(config.seed)
    geom = Geometry(deploy_nodes(config, rng), config.bs_pos, config.initial_energy)
    state = SimState(geometry=geom, config=config, rng=rng)
    reports: list[RoundReport] = []
    first_death: int | None = None
    last_death: int | None = None
    alive = state.alive_count()
    while state.round < max_rounds and alive > 0:
        state, report = run_round(state, protocol)
        reports.append(report)
        alive = report.alive_after
        if first_death is None and report.alive_after < config.n_nodes:
            first_death = report.round
        if last_death is None and report.alive_after == 0:
            last_death = report.round
    return ExperimentResult(
        protocol=protocol.name,
        config=config,
        reports=reports,
        first_death_round=first_death,
        last_death_round=last_death,
        total_bs_messages=state.bs_messages,
    )
