import io

import pytest

from wsnsim.engine import (
    EecsParams,
    ExperimentResult,
    LeachParams,
    RoundReport,
    run_simulation,
)
from wsnsim.metrics import (
    SummaryStats,
    alive_series,
    bs_series,
    export_csv,
    export_json,
    load_result_json,
    result_to_dict,
    summarize,
)
from wsnsim.model import NetworkConfig


def make_result(protocol="leach", deliveries=(5, 5, 3, 0), alive=(10, 8, 4, 0),
                first=1, last=3, config=None):
    reports = []
    prior = 10
    for i, (d, a) in enumerate(zip(deliveries, alive)):
        reports.append(
            RoundReport(
                round=i,
                alive_before=prior,
                alive_after=a,
                ch_count=1,
                bs_messages_delivered=d,
                clustering_iterations=0,
                energy_charged=1.0,
                energy_clamped=0.0,
            )
        )
        prior = a
    return ExperimentResult(
        protocol=protocol,
        config=config or NetworkConfig(n_nodes=10, seed=1),
        reports=reports,
        first_death_round=first,
        last_death_round=last,
        total_bs_messages=sum(deliveries),
    )


class TestAliveSeries:
    def test_round_zero_full_population(self):
        table = alive_series({"leach": make_result()}, [0])
        assert table.columns["leach"] == [10.0]

    def test_after_last_death_reads_zero(self):
        table = alive_series({"leach": make_result()}, [0, 3, 50])
        assert table.columns["leach"][-1] == 0.0

    def test_columns_non_increasing(self):
        table = alive_series({"leach": make_result()}, list(range(6)))
        col = table.columns["leach"]
        assert all(b <= a for a, b in zip(col, col[1:]))

    def test_protocol_columns_sorted(self):
        results = {"leach": make_result("leach"), "eecs": make_result("eecs")}
        table = alive_series(results, [0, 1])
        assert list(table.columns) == ["eecs", "leach"]


class TestBsSeries:
    def test_round_zero_first_deliveries_only(self):
        table = bs_series({"leach": make_result()}, [0])
        assert table.columns["leach"] == [5.0]

    def test_plateau_after_network_death(self):
        table = bs_series({"leach": make_result()}, [2, 3, 10, 20])
        col = table.columns["leach"]
        assert col[-1] == col[-2] == 13.0

    def test_single_protocol_column(self):
        table = bs_series({"eecs": make_result("eecs")}, [0, 1, 2])
        assert list(table.columns) == ["eecs"]
        assert table.columns["eecs"] == [5.0, 10.0, 13.0]

    def test_non_decreasing_and_total(self):
        res = make_result()
        table = bs_series({"leach": res}, list(range(8)))
        col = table.columns["leach"]
        assert all(b >= a for a, b in zip(col, col[1:]))
        assert col[-1] == float(res.total_bs_messages)

    def test_run_without_rounds_reads_zero(self):
        empty = make_result(deliveries=(), alive=())
        assert bs_series({"leach": empty}, [0, 5]).columns["leach"] == [0.0, 0.0]
        assert alive_series({"leach": empty}, [0, 5]).columns["leach"] == [0.0, 0.0]

    def test_past_end_of_a_run_cut_short(self):
        # a run that stopped with nodes alive: the delivery total plateaus,
        # while the alive count past its end reads 0 as for a dead network
        short = make_result(deliveries=(5, 4), alive=(10, 9))
        assert bs_series({"leach": short}, [0, 1, 2]).columns["leach"] == [5.0, 9.0, 9.0]
        assert alive_series({"leach": short}, [0, 1, 2]).columns["leach"] == [10.0, 9.0, 0.0]


class TestSummarize:
    def test_single_seed_std_zero(self):
        stats = summarize({("leach", 1): make_result(first=10, last=20)})
        (agg,) = stats.per_protocol
        assert agg.mean_first_death == 10.0
        assert agg.std_first_death == 0.0
        assert agg.runs == 1

    def test_identical_results_std_zero(self):
        stats = summarize(
            {("leach", s): make_result(first=10, last=20) for s in (1, 2, 3)}
        )
        (agg,) = stats.per_protocol
        assert agg.std_first_death == 0.0
        assert agg.std_total_bs_messages == 0.0

    def test_hand_built_mean(self):
        stats = summarize(
            {
                ("leach", 1): make_result(first=10),
                ("leach", 2): make_result(first=20),
            }
        )
        (agg,) = stats.per_protocol
        assert agg.mean_first_death == 15.0

    def test_permutation_invariant_over_seed_order(self):
        a = summarize(
            {("leach", 1): make_result(first=10), ("leach", 2): make_result(first=30)}
        )
        b = summarize(
            {("leach", 2): make_result(first=30), ("leach", 1): make_result(first=10)}
        )
        assert a == b

    def test_iterations_only_for_centroid_protocols(self):
        stats = summarize(
            {
                ("leach", 1): make_result("leach"),
                ("kmeans", 1): make_result("kmeans"),
            }
        )
        by_protocol = {a.protocol: a for a in stats.per_protocol}
        assert by_protocol["leach"].mean_clustering_iterations is None
        assert by_protocol["kmeans"].mean_clustering_iterations is not None


class TestExports:
    def test_csv_deterministic(self, tmp_path):
        table = alive_series({"leach": make_result()}, [0, 1, 2])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(table, p1)
        export_csv(table, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_header_and_lf_endings(self, tmp_path):
        table = alive_series({"leach": make_result()}, [0])
        path = tmp_path / "t.csv"
        export_csv(table, path)
        raw = path.read_bytes()
        assert raw.startswith(b"round,leach\n")
        assert b"\r" not in raw

    def test_empty_table_header_only(self, tmp_path):
        table = alive_series({"leach": make_result()}, [])
        path = tmp_path / "t.csv"
        export_csv(table, path)
        assert path.read_text() == "round,leach\n"

    def test_csv_values_round_trip_exactly(self, tmp_path):
        import csv

        table = bs_series({"leach": make_result(deliveries=(7, 11, 0, 2))}, [0, 1, 3])
        path = tmp_path / "t.csv"
        export_csv(table, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        values = [float(r[1]) for r in rows[1:]]
        assert values == table.columns["leach"]

    def test_summary_csv(self, tmp_path):
        stats = summarize({("leach", 1): make_result()})
        path = tmp_path / "s.csv"
        export_csv(stats, path)
        text = path.read_text()
        assert text.startswith("protocol,seed,")
        assert "leach" in text

    def test_unsupported_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            export_csv(42, tmp_path / "x.csv")
        with pytest.raises(TypeError):
            export_json(42, tmp_path / "x.json")

    def test_json_refuses_non_finite_values(self, tmp_path):
        res = make_result()
        res.reports[0].energy_charged = float("inf")
        with pytest.raises(ValueError):
            export_json(res, tmp_path / "r.json")

    def test_json_round_trip_equality(self, tmp_path):
        res = run_simulation(NetworkConfig(n_nodes=15, seed=3), LeachParams(), 40)
        path = tmp_path / "r.json"
        export_json(res, path)
        loaded = load_result_json(path)
        assert result_to_dict(loaded) == result_to_dict(res)

    def test_json_config_echo(self, tmp_path):
        config = NetworkConfig(n_nodes=12, initial_energy=0.25, seed=9)
        res = run_simulation(config, EecsParams(), 10)
        buf = io.StringIO()
        export_json(res, buf)
        assert '"n_nodes": 12' in buf.getvalue()
        assert '"initial_energy": 0.25' in buf.getvalue()
        assert '"seed": 9' in buf.getvalue()

    def test_json_byte_identical(self, tmp_path):
        res = run_simulation(NetworkConfig(n_nodes=10, seed=5), LeachParams(), 20)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        export_json(res, p1)
        export_json(res, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_summary_json(self, tmp_path):
        stats = summarize({("leach", 1): make_result()})
        assert isinstance(stats, SummaryStats)
        path = tmp_path / "s.json"
        export_json(stats, path)
        assert path.read_text().startswith("{")
