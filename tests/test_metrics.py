import contextlib
import dataclasses
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnsim.cli import main
from wsnsim.engine import (
    PROTOCOLS,
    EecsParams,
    ExperimentResult,
    FuzzyFormation,
    LeachParams,
    RoundReport,
    run_simulation,
    sweep_iterations,
)
from wsnsim.metrics import (
    ProtocolSummary,
    RunSummary,
    SeriesTable,
    SummaryStats,
    alive_series,
    bs_series,
    export_csv,
    export_json,
    load_result_json,
    result_to_dict,
    summarize,
)
from wsnsim.model import NetworkConfig, RadioModel

from shared import CASES


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

    def test_json_loads_from_an_open_file(self, tmp_path):
        res = run_simulation(NetworkConfig(n_nodes=12, seed=6), EecsParams(), 15)
        path = tmp_path / "r.json"
        export_json(res, path)
        with open(path, encoding="utf-8") as fh:
            loaded = load_result_json(fh)
        assert result_to_dict(loaded) == result_to_dict(res)

    def test_json_round_trip_every_config_field(self, tmp_path):
        radio = RadioModel(e_elec=40e-9, e_amp=120e-12, e_da=4e-9, data_bits=3000,
                           header_bits=150)
        config = NetworkConfig(n_nodes=12, arena=(80.0, 60.0), bs_pos=(40.0, 130.0),
                               initial_energy=0.3, radio=radio, seed=7)
        for value, default in ((config, NetworkConfig()), (radio, RadioModel())):
            for f in dataclasses.fields(value):
                assert getattr(value, f.name) != getattr(default, f.name), f.name
        res = run_simulation(config, LeachParams(), 15)
        path = tmp_path / "r.json"
        export_json(res, path)
        assert json.loads(path.read_text())["config"] == {
            "n_nodes": 12, "arena": [80.0, 60.0], "bs_pos": [40.0, 130.0],
            "initial_energy": 0.3, "seed": 7,
            "radio": {"e_elec": 40e-9, "e_amp": 120e-12, "e_da": 4e-9, "data_bits": 3000,
                      "header_bits": 150}}
        loaded = load_result_json(path)
        assert result_to_dict(loaded) == result_to_dict(res)
        assert loaded.config == config
        assert type(loaded.config.arena) is tuple and type(loaded.config.bs_pos) is tuple
        assert type(loaded.config.radio) is RadioModel

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


def json_reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def csv_reference(table) -> str:
    """The CSV of a SeriesTable or SummaryStats by the contract the metrics
    docstring states, without csv: cells joined by "," and rows ended by LF;
    an int by str, a float by repr, None as an empty cell. A summary is its
    per-run section, a blank line, then its per-protocol section, each a
    header of field names over one row per record. No cell here needs quoting."""
    def cell(value) -> str:
        if value is None:
            return ""
        return repr(value) if isinstance(value, float) else str(value)

    def section(cls, records):
        return [[f.name for f in dataclasses.fields(cls)], *map(dataclasses.astuple, records)]

    if isinstance(table, SeriesTable):
        rows = [[table.index_label, *table.columns], *table.rows()]
    else:
        rows = [*section(RunSummary, table.per_run), [],
                *section(ProtocolSummary, table.per_protocol)]
    return "".join(",".join(map(cell, row)) + "\n" for row in rows)


def exported(export, payload) -> str:
    buf = io.StringIO()
    export(payload, buf)
    return buf.getvalue()


INT_FIELDS = [f.name for f in dataclasses.fields(RoundReport) if f.type == "int"]
FLOAT_FIELDS = [f.name for f in dataclasses.fields(RoundReport) if f.type == "float"]
counts = st.integers(0, 2**62)
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7976931348623157e308])
reports = st.builds(RoundReport, **{name: counts for name in INT_FIELDS},
                    **{name: finite_floats for name in FLOAT_FIELDS})
# a summary record's cells, by the annotation of their field: a protocol name,
# a count, a finite float or the largest one, and None where the field allows it
SUMMARY_CELLS = {"str": st.sampled_from(list(PROTOCOLS)), "int": counts,
                 "float": finite_floats | st.just(1.7976931348623157e308)}


def summary_records(cls):
    return st.builds(cls, **{f.name: SUMMARY_CELLS[f.type.removesuffix(" | None")]
                             | (st.none() if f.type.endswith(" | None") else st.nothing())
                             for f in dataclasses.fields(cls)})


class TestFormatter:
    """export_json writes each report through one format string, and must
    equal what json writes; export_csv must equal csv_reference."""

    @pytest.mark.parametrize("case", sorted(c for c in CASES if CASES[c][0] in ("run", "compare")))
    def test_golden_result_files_equal_json_dumps(self, case, tmp_path):
        out = tmp_path / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*CASES[case], "--out", str(out)]) == 0
        files = sorted(out.glob("*.json"))
        assert files
        for path in files:
            text = path.read_text(encoding="utf-8")
            assert text == json_reference(json.loads(text))

    def test_empty_report_list(self):
        res = make_result(deliveries=(), alive=(), first=None, last=None)
        assert exported(export_json, res) == json_reference(result_to_dict(res))
        assert '"reports": [],' in exported(export_json, res)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(reports, max_size=6))
    def test_reports_equal_json_dumps(self, drawn):
        res = make_result()
        res.reports = drawn
        assert exported(export_json, res) == json_reference(result_to_dict(res))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(reports, min_size=1, max_size=6), st.data(),
           st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_floats_raise_as_json_does(self, drawn, data, bad):
        res = make_result()
        res.reports = drawn
        at = data.draw(st.integers(0, len(drawn) - 1))
        setattr(drawn[at], data.draw(st.sampled_from(FLOAT_FIELDS)), bad)
        with pytest.raises(ValueError) as expected:
            json_reference(result_to_dict(res))
        with pytest.raises(ValueError) as got:
            exported(export_json, res)
        assert str(got.value) == str(expected.value)

    def test_sweep_table_equals_csv_writer(self):
        rows = sweep_iterations(NetworkConfig(n_nodes=20, seed=2), [2, 3, 5], [1, 2],
                                FuzzyFormation(max_iter=30))
        ks, kmeans_iters, fuzzy_iters, at_cap = zip(*rows)
        table = SeriesTable("cluster_count", list(ks), {
            "kmeans_iterations": kmeans_iters, "fuzzy_iterations": fuzzy_iters,
            "fuzzy_at_cap": at_cap})
        assert {type(v) for row in table.rows() for v in row} == {int, float}
        assert exported(export_csv, table) == csv_reference(table)

    def test_series_equal_csv_writer(self):
        results = {name: run_simulation(NetworkConfig(n_nodes=20, seed=4), params, 10**6)
                   for name, params in (("leach", LeachParams()), ("eecs", EecsParams()))}
        rounds = max(len(r.reports) for r in results.values())
        for series in (alive_series, bs_series):
            table = series(results, range(0, rounds + 5, 3))
            assert exported(export_csv, table) == csv_reference(table)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(summary_records(RunSummary), max_size=4),
           st.lists(summary_records(ProtocolSummary), max_size=4))
    def test_summary_equals_the_contract(self, per_run, per_protocol):
        stats = SummaryStats(per_run, per_protocol)
        assert exported(export_csv, stats) == csv_reference(stats)
