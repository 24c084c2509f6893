import argparse
import json

import pytest

from wsnsim.cli import _NUMBER_KEYS, PROTOCOL_KEYS, _spec_from_args, build_parser, main
from wsnsim.engine import PROTOCOLS


def run_cli(args):
    return main([str(a) for a in args])


class TestRun:
    def test_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["run", "--protocol", "leach", "--seed", "7",
                        "--rounds", "30", "--out", out])
        assert code == 0
        assert (out / "leach_seed7.json").exists()
        assert (out / "alive_series.csv").exists()
        assert (out / "bs_series.csv").exists()
        assert (out / "summary.csv").exists()
        printed = capsys.readouterr().out
        assert "leach seed=7" in printed

    def test_k_exceeding_nodes_names_field(self, tmp_path, capsys):
        code = run_cli(["run", "--protocol", "kmeans", "--k", "200",
                        "--seed", "1", "--out", tmp_path / "o"])
        assert code != 0
        assert "k" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        args = ["run", "--protocol", "eecs", "--seed", "3", "--rounds", "40"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out", out1]) == 0
        assert run_cli(args + ["--out", out2]) == 0
        for name in ("eecs_seed3.json", "alive_series.csv", "bs_series.csv",
                     "summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_json_document_structure(self, tmp_path):
        out = tmp_path / "o"
        run_cli(["run", "--protocol", "heed", "--seed", "2", "--rounds", "10",
                 "--out", out])
        doc = json.loads((out / "heed_seed2.json").read_text())
        assert doc["protocol"] == "heed"
        assert doc["config"]["seed"] == 2
        assert len(doc["reports"]) == 10


class TestIterationCaps:
    @pytest.mark.parametrize("args", [
        ["run", "--protocol", "kmeans", "--fcm-max-iter", "0"],
        ["run", "--protocol", "fuzzy", "--fcm-max-iter", "0"],
        ["run", "--protocol", "fuzzy", "--fcm-tol", "0"],
        ["run", "--protocol", "fuzzy", "--fcm-m", "1"],
        ["sweep", "--grid", "3", "--nodes", "20", "--fcm-max-iter", "0"],
    ])
    def test_invalid_cap_is_a_one_line_error(self, args, tmp_path, capsys):
        code = run_cli(args + ["--seed", "1", "--rounds", "5", "--out", tmp_path / "o"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()


class TestRejectedInputs:
    """Each input ends in one `error:` line naming the field, and exit 2."""

    @pytest.mark.parametrize("args,field", [
        (["run", "--protocol", "leach", "--initial-energy", "nan"], "initial_energy"),
        (["run", "--protocol", "leach", "--initial-energy", "inf"], "initial_energy"),
        (["run", "--protocol", "leach", "--seed", "-1"], "seed"),
        (["run", "--protocol", "leach", "--seed", "1", "--seed", "-1"], "seed"),
        (["run", "--protocol", "leach", "--width", "nan"], "width"),
        (["run", "--protocol", "leach", "--bs-y", "inf"], "bs_y"),
        (["run", "--protocol", "heed", "--heed-radius", "nan"], "cluster_radius"),
        (["run", "--protocol", "eecs", "--ch-separation", "nan"], "ch_separation"),
        (["run", "--protocol", "fuzzy", "--fcm-m", "inf"], "fuzzifier m"),
        (["sweep", "--grid", "1:x:2", "--nodes", "20"], "grid"),
        (["sweep", "--grid", "5,5", "--nodes", "30"], "grid"),
        (["run", "--protocol", "fuzzy", "--fcm-m", "1.001", "--seed", "1"], "fuzzifier m"),
        (["sweep", "--grid", "5", "--fcm-m", "1.001", "--nodes", "30"], "fuzzifier m"),
        # nodes within about 1e-154 m of a centroid overflow d ** -2 instead
        (["run", "--protocol", "fuzzy", "--width", "1e-160", "--height", "1e-160",
          "--bs-x", "0", "--bs-y", "0", "--seed", "1"], "from a centroid"),
        # an int no float can hold
        (["run", "--protocol", "leach", "--seed", "1" + "0" * 400], "seed"),
        # squared distances that overflow: to the base station, across the
        # arena, and HEED's radius
        (["run", "--protocol", "leach", "--bs-x", "1e300"], "squared range"),
        (["run", "--protocol", "kmeans", "--width", "1e200", "--height", "1e200"],
         "squared range"),
        (["run", "--protocol", "heed", "--heed-radius", "1e200"], "cluster_radius**2"),
        # probabilities whose reciprocal overflows
        (["run", "--protocol", "leach", "--leach-p", "1e-310"], "1/p"),
        (["run", "--protocol", "heed", "--heed-p-min", "5e-324", "--heed-c-prob", "1e-300"],
         "1/p_min"),
    ])
    def test_flag(self, args, field, tmp_path, capsys):
        code = run_cli(args + ["--rounds", "3", "--out", tmp_path / "o"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and field in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,text,field", [
        ("run", "seeds = 1, x\n", "seeds"),
        ("run", "initial_energy = nan\n", "initial_energy"),
        ("sweep", "grid = 5, 5\n", "grid"),
        ("run", "formats = xml\n", "formats"),
        ("run", "formats = csv, xml\n", "formats"),
        ("run", "formats =\n", "formats"),
        # an int no float can hold
        pytest.param("run", "data_bits = 1" + "0" * 400 + "\n", "data_bits",
                     id="run-huge-data_bits"),
        # charges that overflow, and an arena whose squared distances do
        # even when the amplifier costs nothing
        pytest.param("run", "e_amp = 1e305\n", "most energy a round can charge",
                     id="run-huge-e_amp"),
        pytest.param("run", "e_amp = 0\nwidth = 1e200\nheight = 1e200\n", "squared range",
                     id="run-huge-arena"),
    ])
    def test_config_file(self, command, text, field, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        code = run_cli([command, "--config", cfg, "--protocol", "leach", "--nodes", "20",
                        "--rounds", "3", "--out", tmp_path / "o"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and field in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()


# each protocol key: the protocols whose params it sets, the field, and a
# valid value other than the default
KEYS = {
    "leach_p": ({"leach"}, "p", 0.25),
    "heed_c_prob": ({"heed"}, "c_prob", 0.5),
    "heed_p_min": ({"heed"}, "p_min", 0.01),
    "heed_radius": ({"heed"}, "cluster_radius", 12.5),
    "eecs_p": ({"eecs"}, "p", 0.25),
    "eecs_w": ({"eecs"}, "w", 0.75),
    "k": ({"kmeans", "fuzzy"}, "k", 3),
    "fcm_m": ({"fuzzy"}, "m", 1.5),
    "fcm_tol": ({"fuzzy"}, "tol", 1e-3),
    "fcm_max_iter": ({"kmeans", "fuzzy"}, "max_iter", 7),
    "ch_separation": ({"leach", "heed", "eecs"}, "ch_separation", 4.0),
}


class TestProtocolKeys:
    """PROTOCOL_KEYS is the contract between the CLI and the params classes."""

    def test_table(self):
        assert {key: ({cls.name for cls in owners}, attr)
                for key, (owners, attr) in PROTOCOL_KEYS.items()} == {
            key: (names, attr) for key, (names, attr, _) in KEYS.items()}

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key", sorted(KEYS))
    def test_sets_its_field_on_its_owners_only(self, key, source, tmp_path):
        names, attr, value = KEYS[key]
        if source == "flag":
            argv = ["run", "--" + key.replace("_", "-"), str(value)]
        else:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(f"{key} = {value}\n")
            argv = ["run", "--config", str(cfg)]
        spec = _spec_from_args(build_parser().parse_args(argv))
        for name, cls in PROTOCOLS.items():
            got = spec.protocol(name)
            if name in names:
                assert getattr(cls(), attr) != value
                assert got == cls(**{attr: value})
                assert type(getattr(got, attr)) is type(value)
            else:
                assert got == cls()

    @staticmethod
    def commands() -> dict[str, argparse.ArgumentParser]:
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        return sub.choices

    def test_protocol_choices_are_the_protocols(self):
        for parser in self.commands().values():
            action = next(a for a in parser._actions if a.dest == "protocol")
            assert list(action.choices) == list(PROTOCOLS)

    def test_flag_names_are_kept(self):
        # the golden argv and users' scripts name these flags
        flags = {command: {s for a in parser._actions for s in a.option_strings}
                 for command, parser in self.commands().items()}
        common = {"-h", "--help", "--config", "--preset", "--protocol", "--seed", "--nodes",
                  "--width", "--height", "--bs-x", "--bs-y", "--initial-energy", "--rounds",
                  "--thin", "--out", "--format", "--leach-p", "--heed-c-prob",
                  "--heed-p-min", "--heed-radius", "--eecs-p", "--eecs-w", "--k", "--fcm-m",
                  "--fcm-tol", "--fcm-max-iter", "--ch-separation"}
        assert flags == {"run": common, "compare": common, "sweep": common | {"--grid"}}

    def test_config_number_keys_are_kept(self):
        ints = {"n_nodes", "data_bits", "header_bits", "max_rounds", "thin", "k",
                "fcm_max_iter"}
        floats = {"width", "height", "bs_x", "bs_y", "initial_energy", "e_elec", "e_amp",
                  "e_da", "leach_p", "heed_c_prob", "heed_p_min", "heed_radius", "eecs_p",
                  "eecs_w", "fcm_m", "fcm_tol", "ch_separation"}
        assert _NUMBER_KEYS == {**dict.fromkeys(ints, int), **dict.fromkeys(floats, float)}


class TestCompare:
    def test_requires_two_protocols(self, tmp_path, capsys):
        code = run_cli(["compare", "--protocol", "leach", "--seed", "1",
                        "--out", tmp_path / "o"])
        assert code != 0
        assert "two protocols" in capsys.readouterr().err

    def test_emits_multi_column_series(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli(["compare", "--protocol", "leach", "--protocol", "eecs",
                        "--protocol", "heed", "--seed", "1", "--seed", "2",
                        "--rounds", "25", "--out", out])
        assert code == 0
        header = (out / "alive_series.csv").read_text().splitlines()[0]
        assert header == "round,eecs,heed,leach"

    def test_identical_seed_lists_reproduce_summary(self, tmp_path):
        args = ["compare", "--protocol", "leach", "--protocol", "eecs",
                "--seed", "1", "--seed", "2", "--rounds", "30"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli(args + ["--out", out1])
        run_cli(args + ["--out", out2])
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_prints_first_death_ordering(self, tmp_path, capsys):
        run_cli(["compare", "--protocol", "leach", "--protocol", "eecs",
                 "--seed", "1", "--rounds", "800", "--initial-energy", "0.05",
                 "--out", tmp_path / "o"])
        assert "mean first-death ordering:" in capsys.readouterr().out


class TestSweep:
    def test_grid_csv_shape(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli(["sweep", "--grid", "5,10", "--seed", "1",
                        "--nodes", "40", "--out", out])
        assert code == 0
        lines = (out / "iteration_sweep.csv").read_text().splitlines()
        assert lines[0] == "cluster_count,kmeans_iterations,fuzzy_iterations,fuzzy_at_cap"
        assert len(lines) == 3

    def test_counts_fuzzy_runs_at_the_cap(self, tmp_path, capsys):
        # at tol=1e-300 no fuzzy run settles before its 7th pair
        out = tmp_path / "o"
        code = run_cli(["sweep", "--grid", "3,6", "--seed", "1", "--seed", "2",
                        "--nodes", "30", "--fcm-max-iter", "7", "--fcm-tol", "1e-300",
                        "--out", out])
        assert code == 0
        rows = [l.split(",") for l in (out / "iteration_sweep.csv").read_text().splitlines()[1:]]
        assert [(r[2], r[3]) for r in rows] == [("7.0", "2"), ("7.0", "2")]
        printed = capsys.readouterr().out.splitlines()
        assert all(line.endswith(" fuzzy_at_cap=2") for line in printed)

    def test_range_syntax(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli(["sweep", "--grid", "5:15:5", "--seed", "1",
                        "--nodes", "30", "--out", out])
        assert code == 0
        lines = (out / "iteration_sweep.csv").read_text().splitlines()
        assert [l.split(",")[0] for l in lines[1:]] == ["5", "10", "15"]

    def test_empty_grid_rejected(self, tmp_path, capsys):
        code = run_cli(["sweep", "--seed", "1", "--out", tmp_path / "o"])
        assert code != 0
        assert "grid" in capsys.readouterr().err

    def test_single_value_grid(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli(["sweep", "--grid", "5", "--seed", "1", "--nodes", "25",
                        "--out", out])
        assert code == 0
        lines = (out / "iteration_sweep.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_grid_value_beyond_nodes_rejected(self, tmp_path, capsys):
        code = run_cli(["sweep", "--grid", "50", "--seed", "1", "--nodes", "10",
                        "--out", tmp_path / "o"])
        assert code != 0
        assert "grid" in capsys.readouterr().err


class TestConfigFile:
    def test_config_file_values(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "protocols = leach\n"
            "seeds = 4\n"
            "n_nodes = 20   # small network\n"
            "max_rounds = 15\n"
        )
        out = tmp_path / "o"
        code = run_cli(["run", "--config", cfg, "--out", out])
        assert code == 0
        doc = json.loads((out / "leach_seed4.json").read_text())
        assert doc["config"]["n_nodes"] == 20
        assert len(doc["reports"]) == 15

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("protocols = leach\nseeds = 4\nn_nodes = 20\nmax_rounds = 15\n")
        out = tmp_path / "o"
        run_cli(["run", "--config", cfg, "--nodes", "10", "--out", out])
        doc = json.loads((out / "leach_seed4.json").read_text())
        assert doc["config"]["n_nodes"] == 10

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("nonsense = 3\n")
        code = run_cli(["run", "--config", cfg, "--protocol", "leach",
                        "--out", tmp_path / "o"])
        assert code != 0
        assert "nonsense" in capsys.readouterr().err

    def test_preset_table1(self, tmp_path):
        out = tmp_path / "o"
        run_cli(["run", "--preset", "table1", "--protocol", "leach", "--seed", "1",
                 "--rounds", "5", "--out", out])
        doc = json.loads((out / "leach_seed1.json").read_text())
        assert doc["config"]["arena"] == [1000.0, 1000.0]
        assert doc["config"]["bs_pos"] == [500.0, 200.0]
