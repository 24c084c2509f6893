"""Round-based simulation driver.

A round has two phases. Setup: the protocol forms clusters, heads advertise
at full (arena-diagonal) range, everyone pays to receive the adverts, members
pay to send join messages and heads pay to receive them. Steady state: each
member sends one data message to its head, the head receives, aggregates and
forwards a single message to the base station; orphans send their data
straight to the base station.

A message counts at the base station only if its sender is still alive after
paying the full transmission cost. Nodes that die mid-round take no further
part in that round. All per-node processing runs in ascending id order, so a
run is a pure function of (config, protocol).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field, replace
from typing import ClassVar

import numpy as np

from .model import NetworkConfig, Node, aggregate_energy, deploy_nodes, rx_energy, tx_energy
from .partitioning import FcmParams
from .protocols import (
    ClusterSet,
    EecsParams,
    Geometry,
    HeedParams,
    LeachParams,
    eecs_form_clusters,
    form_clusters_nearest,
    fuzzy_form_clusters,
    heed_form_clusters,
    kmeans_form_clusters,
    leach_elect,
    enforce_ch_separation,
)


@dataclass(frozen=True)
class KmeansFormation:
    """Centroid formation with k-means; k=None means 5% of the alive count."""

    name: ClassVar[str] = "kmeans"
    k: int | None = None
    max_iter: int = 100

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class FuzzyFormation:
    """Centroid formation with fuzzy c-means; k=None means 5% of the alive count."""

    name: ClassVar[str] = "fuzzy"
    k: int | None = None
    m: float = 2.0
    tol: float = 1e-4
    max_iter: int = 100

    def __post_init__(self):
        # FcmParams' own checks, made here so a bad value fails before round 0
        FcmParams(k=1 if self.k is None else self.k, m=self.m, tol=self.tol,
                  max_iter=self.max_iter)


class SimulationComplete(Exception):
    """Raised when a round is requested but no node is alive."""


@dataclass
class SimState:
    nodes: InitVar[list[Node]]  # copied into ``geometry``, which holds the run's state
    config: NetworkConfig
    round: int = 0
    bs_messages: int = 0
    rng: np.random.Generator = None  # type: ignore[assignment]
    geometry: Geometry = field(init=False)

    def __post_init__(self, nodes: list[Node]):
        if self.rng is None:
            self.rng = np.random.default_rng(self.config.seed)
        self.geometry = Geometry(nodes, self.config.bs_pos)

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


def default_cluster_count(alive: int) -> int:
    """The 5%-of-nodes heuristic for centroid formations."""
    return max(1, math.ceil(0.05 * alive))


def _cluster_count(geom: Geometry, k: int | None) -> int:
    alive = len(geom.alive())
    k = k if k is not None else default_cluster_count(alive)
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
    params = FcmParams(k=k, m=protocol.m, tol=protocol.tol,
                       max_iter=protocol.max_iter, seed=seed)
    return fuzzy_form_clusters(state.geometry, params)


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
    # the cluster set names node ids; the ledger charges rows of Python lists
    row_of, xy = geom.row_of, geom.xy
    head_rows = [row_of[h] for h in cluster_set.head_ids]
    energy = geom.energy.tolist()
    bs_dist = geom.bs_dist.tolist()
    # the per-bit products hoisted, in tx_energy's association;
    # aggregate_energy(radio, b, n) is (e_da * b) * n
    elec_header = rx_energy(radio, radio.header_bits)
    amp_header = radio.e_amp * radio.header_bits
    elec_data = rx_energy(radio, radio.data_bits)
    amp_data = radio.e_amp * radio.data_bits
    da_data = aggregate_energy(radio, radio.data_bits, 1)
    charged = clamped = 0.0
    deaths = 0

    def pay(row: int, cost: float) -> bool:
        """Charge ``cost`` to ``row``, clamping its energy at 0 and counting
        the unpaid part as clamped; True iff the node survives. Only alive
        nodes are charged, so each False is one death."""
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

    # -- setup: head advertisements, heard network-wide
    advert_cost = tx_energy(radio, radio.header_bits, cfg.diagonal)
    delivered_adverts = {h for h in sorted(head_rows) if pay(h, advert_cost)}
    for row, left in enumerate(energy):  # in id order
        heard = len(delivered_adverts) - (1 if row in delivered_adverts else 0)
        if left > 0.0 and heard > 0:
            pay(row, heard * elec_header)

    # -- setup: join messages back to the chosen head; each member's distance
    # to its head is computed once, for the join and for the data message
    joined: list[tuple[int, list[tuple[int, float]]]] = []
    for head, cluster in zip(head_rows, cluster_set.clusters):
        hx, hy = xy[head]
        links = []
        for member in sorted([row_of[m] for m in cluster.members]):
            if energy[member] > 0.0:
                mx, my = xy[member]
                d = math.hypot(mx - hx, my - hy)
                links.append((member, d))
                if pay(member, elec_header + amp_header * d * d) and energy[head] > 0.0:
                    pay(head, elec_header)
        joined.append((head, links))

    # -- steady state: member data, head aggregation and uplink
    delivered = 0
    for head, links in joined:
        received = 0
        for member, d in links:
            if (energy[member] > 0.0 and pay(member, elec_data + amp_data * d * d)
                    and energy[head] > 0.0 and pay(head, elec_data)):
                received += 1
        if energy[head] > 0.0 and pay(head, da_data * (received + 1)):
            d = bs_dist[head]
            delivered += pay(head, elec_data + amp_data * d * d)

    for orphan in sorted([row_of[o] for o in cluster_set.orphans]):
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
    fcm_m: float = 2.0,
    fcm_tol: float = 1e-4,
    max_iter: int = 100,
) -> list[tuple[int, float, float, int]]:
    """Convergence-iteration comparison of the two centroid formations.

    For each seed, nodes are deployed once and both formations run over every
    cluster count in the grid. Rows are (k, mean kmeans iterations, mean
    fuzzy iterations, fuzzy runs at the cap), with means taken across seeds.
    The last field counts the seeds whose fuzzy run used all max_iter pairs;
    such a run may have stopped short of tol, which makes the fuzzy mean a
    lower bound.

    As in ``run_simulation``, each fuzzy run draws its FCM seed from the
    generator that deployed the nodes, after deployment. Seeding FCM with the
    deployment seed itself would make its initial memberships replay the
    node coordinates.
    """
    if len(set(grid)) != len(grid):
        raise ValueError(f"grid repeats a cluster count: {grid}")
    per_cell: dict[int, tuple[list[int], list[int]]] = {k: ([], []) for k in grid}
    for seed in seeds:
        config = replace(base_config, seed=seed)
        rng = np.random.default_rng(config.seed)
        geom = Geometry(deploy_nodes(config, rng), config.bs_pos)
        for k in grid:
            _, km_iters = kmeans_form_clusters(geom, k, max_iter=max_iter)
            params = FcmParams(k=k, m=fcm_m, tol=fcm_tol, max_iter=max_iter,
                               seed=int(rng.integers(0, 2**63)))
            _, fz_iters = fuzzy_form_clusters(geom, params)
            per_cell[k][0].append(km_iters)
            per_cell[k][1].append(fz_iters)
    return [
        (k, sum(per_cell[k][0]) / len(seeds), sum(per_cell[k][1]) / len(seeds),
         per_cell[k][1].count(max_iter))
        for k in grid
    ]


def run_simulation(config: NetworkConfig, protocol, max_rounds: int) -> ExperimentResult:
    """Deploy, then run rounds until every node is dead or max_rounds is hit."""
    rng = np.random.default_rng(config.seed)
    state = SimState(nodes=deploy_nodes(config, rng), config=config, rng=rng)
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
