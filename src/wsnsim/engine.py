"""Round-based simulation driver.

A round has two phases. Setup: the protocol forms clusters, heads advertise
at full (arena-diagonal) range, everyone pays to receive the adverts, members
pay to send join messages and heads pay to receive them. Steady state: each
member sends one data message to its head, the head receives, aggregates and
forwards a single message to the base station.

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

from .model import NetworkConfig, deploy_nodes
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


def _cluster_count(alive: int, k: int | None) -> int:
    k = k if k is not None else head_quota(alive, 0.05)
    return min(k, alive)  # never more clusters than alive nodes as the network dies


def _leach(state: SimState, protocol: LeachParams, alive: int) -> tuple[ClusterSet, int]:
    geom = state.geometry
    rows = geom.alive()  # once for the election and the join
    heads = leach_elect(geom, protocol, state.round, state.rng, rows)
    if protocol.ch_separation > 0:
        heads = enforce_ch_separation(geom, heads, protocol.ch_separation)
    return form_clusters_nearest(geom, heads, rows), 0


def _heed(state: SimState, protocol: HeedParams, alive: int) -> tuple[ClusterSet, int]:
    return heed_form_clusters(state.geometry, protocol, state.rng)[0], 0


def _eecs(state: SimState, protocol: EecsParams, alive: int) -> tuple[ClusterSet, int]:
    return eecs_form_clusters(state.geometry, protocol, state.rng), 0


def _kmeans(state: SimState, protocol: KmeansFormation, alive: int) -> tuple[ClusterSet, int]:
    k = _cluster_count(alive, protocol.k)
    return kmeans_form_clusters(state.geometry, k, max_iter=protocol.max_iter)


def _fuzzy(state: SimState, protocol: FuzzyFormation, alive: int) -> tuple[ClusterSet, int]:
    k = _cluster_count(alive, protocol.k)
    return fuzzy_form_clusters(state.geometry, protocol, k, state.rng)


# params type -> its round's formation, given the state, the params and the
# alive count run_round took. The formations call the protocols' functions
# through this module's globals, where a wrapper installed as
# ``wsnsim.engine.leach_elect`` (or any other) intercepts every call.
FORMATIONS = {LeachParams: _leach, HeedParams: _heed, EecsParams: _eecs,
              KmeansFormation: _kmeans, FuzzyFormation: _fuzzy}
PROTOCOLS = {cls.name: cls for cls in FORMATIONS}


def _form_clusters(state: SimState, protocol, alive: int) -> tuple[ClusterSet, int]:
    return FORMATIONS[type(protocol)](state, protocol, alive)


def run_round(state: SimState, protocol) -> tuple[SimState, RoundReport]:
    """Advance the simulation by one setup + steady-state cycle."""
    alive_before = state.alive_count()
    if alive_before == 0:
        raise SimulationComplete(f"no alive nodes at round {state.round}")

    geom = state.geometry
    cluster_set, clustering_iterations = _form_clusters(state, protocol, alive_before)
    # the ledger charges rows of Python lists
    head_rows, xy, bs_dist = cluster_set.heads, geom.xy, geom.bs_d
    energy = geom.energy.tolist()
    elec_header, amp_header, elec_data, amp_data, da_data, advert_cost = (
        state.config.message_costs)
    charged, clamped, deaths = 0.0, 0.0, 0

    # Every charge below has one body, and the charges come in the order of
    # one call per charge: a charge is levied in full, a node left with
    # nothing keeps 0 and dies, and the unpaid part counts as clamped. Only
    # alive nodes are charged, so each death is counted once.

    # -- setup: head advertisements in row order, delivered if the head survives
    delivered_adverts = []
    for head in sorted(head_rows):
        left = energy[head]
        charged += advert_cost
        if left > advert_cost:
            energy[head] = left - advert_cost
            delivered_adverts.append(head)
        else:
            clamped += advert_cost - left
            energy[head] = 0.0
            deaths += 1

    # -- setup: every alive node hears the delivered adverts, in row order; a
    # head that delivered one hears only the others' (a charge of 0 changes
    # nothing). Each cost is its own product: a difference would round apart
    hear = [len(delivered_adverts) * elec_header] * len(energy)
    for head in delivered_adverts:
        hear[head] = (len(delivered_adverts) - 1) * elec_header
    for row, cost in enumerate(hear):
        left = energy[row]
        if left > 0.0:
            charged += cost
            if left > cost:
                energy[row] = left - cost
            else:
                clamped += cost - left
                energy[row] = 0.0
                deaths += 1

    # -- setup: join messages to the head, over each cluster's members in
    # row order (ClusterSet keeps them ascending). An alive member sends at
    # elec + amp*d*d and, if it survives while its head is alive, the head
    # pays elec to receive; only the cluster's head and members are charged
    # in its exchange, so the head's energy is held in ``left_head``. The
    # distance d is read from the head's row of the geometry's table, or
    # computed where there is none (n > 256). A member that survives keeps
    # its d in ``links``: its energy changes only through its own charges,
    # so it is still alive when its data message is due
    table = geom.table
    joined = []
    for head, cluster in zip(head_rows, cluster_set.clusters):
        if table is None:
            hx, hy = xy[head]
        else:
            dist = table[head]
        left_head = energy[head]
        links = []
        for member in cluster.members:
            left = energy[member]
            if left > 0.0:
                if table is None:
                    mx, my = xy[member]
                    d = math.hypot(mx - hx, my - hy)
                else:
                    d = dist[member]
                cost = elec_header + amp_header * d * d
                charged += cost
                if left > cost:
                    energy[member] = left - cost
                    links.append((member, d))
                    if left_head > 0.0:
                        charged += elec_header
                        if left_head > elec_header:
                            left_head -= elec_header
                        else:
                            clamped += elec_header - left_head
                            left_head = 0.0
                            deaths += 1
                else:
                    clamped += cost - left
                    energy[member] = 0.0
                    deaths += 1
        energy[head] = left_head
        joined.append((head, links))

    # -- steady state: each member in ``links`` sends its data as it sent its
    # join; then an alive head aggregates its signals and its own and, if it
    # survives that, uplinks to the base station
    delivered = 0
    for head, links in joined:
        left_head = energy[head]
        received = 0
        for member, d in links:
            left = energy[member]
            cost = elec_data + amp_data * d * d
            charged += cost
            if left > cost:
                energy[member] = left - cost
                if left_head > 0.0:
                    charged += elec_data
                    if left_head > elec_data:
                        left_head -= elec_data
                        received += 1
                    else:
                        clamped += elec_data - left_head
                        left_head = 0.0
                        deaths += 1
            else:
                clamped += cost - left
                energy[member] = 0.0
                deaths += 1
        if left_head > 0.0:
            cost = da_data * (received + 1)
            charged += cost
            if left_head > cost:
                left_head -= cost
                d = bs_dist[head]
                cost = elec_data + amp_data * d * d
                charged += cost
                if left_head > cost:
                    left_head -= cost
                    delivered += 1
                else:
                    clamped += cost - left_head
                    left_head = 0.0
                    deaths += 1
            else:
                clamped += cost - left_head
                left_head = 0.0
                deaths += 1
        energy[head] = left_head

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

    As in ``run_simulation``, each fuzzy formation is given the generator
    that deployed the nodes and draws its FCM seed from it, after deployment.
    Seeding FCM with the deployment seed itself would make its initial
    memberships replay the node coordinates.
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
            _, fz_iters = fuzzy_form_clusters(geom, fuzzy, k, rng)
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
