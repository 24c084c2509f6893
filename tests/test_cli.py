import argparse
import json
from pathlib import Path

import pytest

from wsnsim import cli
from wsnsim.cli import _NUMBER_KEYS, PROTOCOL_KEYS, RunSpec, _spec_from_args, build_parser, main
from wsnsim.engine import PROTOCOLS
from wsnsim.model import NetworkConfig, RadioModel


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

    @pytest.mark.parametrize("argv", [["-h"], ["run", "-h"], ["sweep", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        # usage errors end in one error: line (TestRejectedInputs); help does not
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: wsnsim")

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

    @pytest.mark.parametrize("name", ["leach_seed1.json", "summary.csv"])
    def test_unwritable_result_file_is_a_one_line_error(self, name, tmp_path, capsys):
        # a directory where a result file goes: open raises IsADirectoryError
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        code = run_cli(["run", "--protocol", "leach", "--nodes", "10", "--rounds", "2",
                        "--out", out])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot write {out / name}: ") and err.count("\n") == 1


    def test_failed_export_removes_the_files_it_wrote(self, tmp_path, capsys):
        # summary.csv is written last: the result file and the two series
        # written before it go, and a file the run did not write stays
        out = tmp_path / "o"
        (out / "summary.csv").mkdir(parents=True)
        (out / "notes.txt").write_text("kept\n")
        code = run_cli(["run", "--protocol", "leach", "--nodes", "10", "--rounds", "2",
                        "--out", out])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "summary.csv"]

    @pytest.mark.parametrize("message", [
        "Unable to allocate 745. GiB for an array with shape (100000000000,) and data type "
        "float64", ""], ids=["numpy", "bare"])
    def test_refused_allocation_is_a_one_line_error(self, message, monkeypatch, tmp_path,
                                                    capsys):
        # numpy raises MemoryError for an array it cannot allocate, such as a
        # deployment of 10**11 nodes; the error line names the array when the
        # exception does
        def refuse(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "run_simulation", refuse)
        code = run_cli(["run", "--protocol", "leach", "--nodes", "10", "--out", tmp_path / "o"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {message or 'out of memory'}\n"


class TestParserOncePerProcess:
    # main builds its parser on the first call and reuses it: a call must
    # write and print what it does with a parser of its own
    ARGVS = (["run", "--protocol", "kmeans", "--k", "3", "--nodes", "20", "--rounds", "5",
              "--seed", "2", "--seed", "4"],
             ["run", "--protocol", "leach", "--nodes", "15", "--rounds", "4", "--format", "json"])

    def outputs(self, out, capsys, fresh):
        got = []
        for i, argv in enumerate(self.ARGVS):
            if fresh:
                cli._parser.cache_clear()
            code = main([*argv, "--out", str(out / str(i))])
            files = {p.name: p.read_bytes() for p in sorted((out / str(i)).iterdir())}
            got.append((code, capsys.readouterr(), files))
        return got

    def test_reused_parser_gives_the_bytes_of_fresh_ones(self, tmp_path, capsys):
        cli._parser.cache_clear()
        reused = self.outputs(tmp_path / "a", capsys, fresh=False)
        assert cli._parser.cache_info().misses == 1
        assert reused == self.outputs(tmp_path / "b", capsys, fresh=True)
        assert build_parser() is not build_parser()


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
        # an arena whose squared distances leave the normal range (FCM's
        # overflow at this scale is tested in test_partitioning.py)
        (["run", "--protocol", "fuzzy", "--width", "1e-160", "--height", "1e-160",
          "--bs-x", "0", "--bs-y", "0", "--seed", "1"], "squared diagonal"),
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
        # a repeated run would be simulated twice and written once, and a
        # compare of one protocol given twice would rank that one alone
        (["run", "--protocol", "leach", "--protocol", "leach"], "protocols"),
        (["run", "--protocol", "leach", "--seed", "1", "--seed", "2", "--seed", "1"], "seeds"),
        (["compare", "--protocol", "leach", "--protocol", "leach"], "protocols"),
        (["sweep", "--grid", "5", "--nodes", "30", "--seed", "1", "--seed", "1"], "seeds"),
        # an empty field is not a separator to skip
        (["sweep", "--grid", "2,,3", "--nodes", "30"], "empty field in grid"),
        (["sweep", "--grid", ",2", "--nodes", "30"], "empty field in grid"),
        (["sweep", "--grid", "2,", "--nodes", "30"], "empty field in grid"),
        (["sweep", "--grid", "2, ,3", "--nodes", "30"], "empty field in grid"),
        (["sweep", "--grid", "2:6::2", "--nodes", "30"], "empty field in grid"),
        (["sweep", "--grid", ":2:6:2", "--nodes", "30"], "empty field in grid"),
        # a range without its step, or with a step that never advances
        (["sweep", "--grid", "1:5", "--nodes", "30"], "grid range must be start:stop:step"),
        (["sweep", "--grid", "1:5:0", "--nodes", "30"], "grid step must be > 0"),
        # argparse's own refusals: a value of the wrong type or outside the
        # choices, an unknown flag, and no command at all
        (["run", "--protocol", "leach", "--nodes", "x"], "argument --nodes: invalid int"),
        (["run", "--protocol", "leach", "--format", "xml"], "argument --format: invalid choice"),
        (["run", "--protocol", "nope"], "argument --protocol: invalid choice"),
        (["compare", "--protocol", "leach", "--no-such-flag"],
         "unrecognized arguments: --no-such-flag"),
        ([], "the following arguments are required: command"),
        # probabilities outside their ranges
        (["run", "--protocol", "leach", "--leach-p", "0"], "p must be in (0, 1]"),
        (["run", "--protocol", "leach", "--leach-p", "1.5"], "p must be in (0, 1]"),
        (["run", "--protocol", "heed", "--heed-p-min", "0.5", "--heed-c-prob", "0.1"],
         "require 0 < p_min <= c_prob <= 1"),
    ])
    def test_flag(self, args, field, tmp_path, capsys):
        if args:  # a sweep takes no rounds, and no command takes no flags
            args = args + ([] if args[0] == "sweep" else ["--rounds", "3"])
            args += ["--out", tmp_path / "o"]
        code = run_cli(args)
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
        ("run", "seeds = 1, 1\n", "seeds"),
        ("run", "seeds = 1,,2\n", "empty field in seeds"),
        ("run", "seeds = ,1\n", "empty field in seeds"),
        ("run", "seeds = 1,\n", "empty field in seeds"),
        ("run", "seeds =\n", "empty field in seeds"),
        ("sweep", "grid = 2,,3\n", "empty field in grid"),
        ("sweep", "grid = 2:6::2\n", "empty field in grid"),
        # an int no float can hold
        pytest.param("run", "data_bits = 1" + "0" * 400 + "\n", "data_bits",
                     id="run-huge-data_bits"),
        # charges that overflow, and an arena whose squared distances do
        # even when the amplifier costs nothing
        pytest.param("run", "e_amp = 1e305\n", "most energy a round can charge",
                     id="run-huge-e_amp"),
        pytest.param("run", "e_amp = 0\nwidth = 1e200\nheight = 1e200\n", "squared range",
                     id="run-huge-arena"),
        # a repeated key would keep only its last value
        pytest.param("run", "n_nodes = 10\nseeds = 1\nn_nodes = 20\n",
                     ":3: n_nodes repeats line 1", id="run-repeated-key"),
        ("run", "n_nodes = x\n", "invalid integer for n_nodes: 'x'"),
        ("run", "k = none\n", "invalid integer for k: 'none'"),
        ("run", "fcm_tol = small\n", "invalid number for fcm_tol: 'small'"),
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

    @pytest.mark.parametrize("command,text", [
        ("run", "protocols = leach, leach\n"),
        ("compare", "protocols = leach, eecs, leach\n"),
        ("sweep", "protocols = kmeans, fuzzy, kmeans\ngrid = 3\n"),
    ])
    def test_config_file_repeated_protocol(self, command, text, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        code = run_cli([command, "--config", cfg, "--nodes", "20", "--out", tmp_path / "o"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "protocols" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,text", [
        ("run", "protocols = nope\n"),
        ("compare", "protocols = leach, nope\n"),
        ("sweep", "protocols = kmeans, nope\ngrid = 3\n"),
    ])
    def test_config_file_unknown_protocol(self, command, text, tmp_path, capsys):
        # the --protocol flag has choices; a config file's names are checked
        # by RunSpec.protocol
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        code = run_cli([command, "--config", cfg, "--nodes", "20", "--out", tmp_path / "o"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: unknown protocol 'nope' (protocols)\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args", [
        ["run", "--protocol", "leach", "--rounds", "2"],
        ["sweep", "--grid", "3"],
    ])
    def test_out_below_a_regular_file(self, args, tmp_path, capsys):
        (tmp_path / "f").write_text("")
        out = tmp_path / "f" / "o"
        code = run_cli([*args, "--nodes", "10", "--out", out])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot create output directory {out}: ")
        assert len(err.splitlines()) == 1


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
            action = next(a for a in parser._actions if "--protocol" in a.option_strings)
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


# each scenario key: its flag (None: config file only), a valid value other
# than the default, and the NetworkConfig that value gives
SCENARIO = {
    "n_nodes": ("--nodes", 20, NetworkConfig(n_nodes=20)),
    "width": ("--width", 80.0, NetworkConfig(arena=(80.0, 100.0))),
    "height": ("--height", 90.0, NetworkConfig(arena=(100.0, 90.0))),
    "bs_x": ("--bs-x", 10.0, NetworkConfig(bs_pos=(10.0, 175.0))),
    "bs_y": ("--bs-y", 120.0, NetworkConfig(bs_pos=(50.0, 120.0))),
    "initial_energy": ("--initial-energy", 0.25, NetworkConfig(initial_energy=0.25)),
    "e_elec": (None, 4e-8, NetworkConfig(radio=RadioModel(e_elec=4e-8))),
    "e_amp": (None, 2e-10, NetworkConfig(radio=RadioModel(e_amp=2e-10))),
    "e_da": (None, 1e-9, NetworkConfig(radio=RadioModel(e_da=1e-9))),
    "data_bits": (None, 3000, NetworkConfig(radio=RadioModel(data_bits=3000))),
    "header_bits": (None, 150, NetworkConfig(radio=RadioModel(header_bits=150))),
}


class TestScenarioKeys:
    """NetworkConfig holds the scenario defaults; each key sets one value."""

    @pytest.mark.parametrize("seed", [1, 7])
    def test_no_key_given_is_the_network_config_default(self, seed):
        assert RunSpec(protocols=[], seeds=[]).network_config(seed) == NetworkConfig(seed=seed)

    @pytest.mark.parametrize("key,source", [
        (key, source) for key in sorted(SCENARIO) for source in ("flag", "config")
        if source == "config" or SCENARIO[key][0]])
    def test_lands_in_its_field(self, key, source, tmp_path):
        flag, value, expected = SCENARIO[key]
        if source == "flag":
            argv = ["run", flag, str(value)]
        else:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(f"{key} = {value}\n")
            argv = ["run", "--config", str(cfg)]
        assert _spec_from_args(build_parser().parse_args(argv)).network_config(1) == expected

    # each non-number key, once by flag and once by config file: the same
    # RunSpec, with the key given and set to the value
    @pytest.mark.parametrize("command,flags,text,key,value", [
        ("run", ["--protocol", "leach", "--protocol", "heed"], "protocols = leach, heed",
         "protocols", ["leach", "heed"]),
        ("run", ["--seed", "1", "--seed", "2"], "seeds = 1, 2", "seeds", [1, 2]),
        ("sweep", ["--grid", "10,20,30"], "grid = 10, 20, 30", "grid", [10, 20, 30]),
        ("sweep", ["--grid", "10:100:10"], "grid = 10:100:10", "grid", list(range(10, 101, 10))),
        ("run", ["--out", "results/a"], "out_dir = results/a", "out_dir", Path("results/a")),
        ("run", ["--format", "both"], "formats = csv, json", "formats", ("csv", "json")),
        ("run", ["--format", "json"], "formats = json", "formats", ("json",)),
    ], ids=["protocols", "seeds", "grid-list", "grid-range", "out_dir", "formats-both",
            "formats-json"])
    def test_flag_and_file_give_one_spec(self, command, flags, text, key, value, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text + "\n")
        from_flags = _spec_from_args(build_parser().parse_args([command, *flags]))
        from_file = _spec_from_args(build_parser().parse_args([command, "--config", str(cfg)]))
        assert from_flags == from_file
        assert getattr(from_file, key) == value
        assert from_file.given == {key}

    def test_values_checked_together(self, tmp_path):
        # data_bits = 150 would fail against the default header_bits of 200
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("data_bits = 150\nheader_bits = 100\n")
        spec = _spec_from_args(build_parser().parse_args(["run", "--config", str(cfg)]))
        assert spec.network_config(1).radio == RadioModel(data_bits=150, header_bits=100)

    # every key a command reads, at a valid value, still runs
    @pytest.mark.parametrize("command,flags,text", [
        ("run", ["--protocol", "leach", "--nodes", "12", "--width", "80", "--height", "90",
                 "--bs-x", "10", "--bs-y", "120", "--initial-energy", "0.4", "--leach-p", "0.1",
                 "--ch-separation", "1", "--thin", "2", "--format", "csv"], ""),
        ("run", ["--protocol", "heed", "--heed-c-prob", "0.1", "--heed-p-min", "1e-3",
                 "--heed-radius", "30"],
         "e_elec = 4e-8\ne_amp = 2e-10\ne_da = 1e-9\ndata_bits = 3000\nheader_bits = 150\n"),
        ("compare", ["--protocol", "eecs", "--protocol", "kmeans", "--eecs-p", "0.1",
                     "--eecs-w", "0.5", "--k", "3", "--fcm-max-iter", "20"], "thin = 1\n"),
        ("run", ["--protocol", "fuzzy", "--fcm-m", "1.5", "--fcm-tol", "1e-3"],
         "formats = csv, json\nk = 4\n"),
        ("sweep", ["--grid", "3", "--nodes", "12", "--width", "80", "--height", "90",
                   "--bs-x", "10", "--bs-y", "120", "--fcm-m", "1.5", "--fcm-tol", "1e-3",
                   "--fcm-max-iter", "20"], "seeds = 1, 2\n"),
    ])
    def test_read_keys_accepted(self, command, flags, text, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        rounds = [] if command == "sweep" else ["--rounds", "2"]
        assert run_cli([command, "--config", cfg, *flags, *rounds,
                        "--out", tmp_path / "o"]) == 0


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

    def test_unwritable_csv_is_a_one_line_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "iteration_sweep.csv").mkdir(parents=True)
        code = run_cli(["sweep", "--grid", "2,3", "--seed", "1", "--nodes", "10",
                        "--out", out])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot write {out / 'iteration_sweep.csv'}: ")
        assert err.count("\n") == 1

    def test_grid_value_beyond_nodes_rejected(self, tmp_path, capsys):
        code = run_cli(["sweep", "--grid", "50", "--seed", "1", "--nodes", "10",
                        "--out", tmp_path / "o"])
        assert code != 0
        assert "grid" in capsys.readouterr().err

    # each command refuses a key it would silently ignore: a sweep forms
    # k-means and fuzzy clusters once per seed for each k of its grid and
    # writes one CSV; a run or compare has no grid, reads a protocol key only
    # when one of its owners runs, and thin only when it writes CSV
    BASE = {"run": ["--nodes", "10", "--rounds", "2"],
            "compare": ["--nodes", "10", "--rounds", "2"],
            "sweep": ["--grid", "3", "--nodes", "10", "--seed", "1"]}

    @pytest.mark.parametrize("command,flags,field", [
        ("sweep", ["--protocol", "leach", "--rounds", "5", "--thin", "3", "--format", "json"],
         "protocols"),
        ("sweep", ["--protocol", "kmeans", "--protocol", "heed"], "protocols"),
        ("sweep", ["--rounds", "5"], "max_rounds"),
        ("sweep", ["--rounds", "3000"], "max_rounds"),  # the default, given explicitly
        ("sweep", ["--thin", "3"], "thin"),
        ("sweep", ["--format", "both"], "formats"),
        ("run", ["--protocol", "leach", "--format", "json", "--thin", "3"], "thin"),
        ("compare", ["--protocol", "leach", "--protocol", "eecs", "--format", "json",
                     "--thin", "1"], "thin"),
        ("run", ["--protocol", "leach", "--k", "4"], "k"),
        ("run", ["--protocol", "kmeans", "--fcm-m", "3"], "fcm_m"),
        ("compare", ["--protocol", "kmeans", "--protocol", "fuzzy", "--leach-p", "0.1"],
         "leach_p"),
        ("sweep", ["--k", "5"], "k"),
        ("sweep", ["--initial-energy", "0.5"], "initial_energy"),
        ("sweep", ["--heed-radius", "30"], "heed_radius"),
        ("sweep", ["--ch-separation", "0"], "ch_separation"),
        ("sweep", ["--protocol", "kmeans"], "protocols"),  # it would still run fuzzy
    ], ids=["leach-and-more", "heed", "rounds", "default-rounds", "thin", "format",
            "run-thin-json", "compare-thin-json", "run-k", "run-fcm_m", "compare-leach_p",
            "sweep-k", "sweep-initial_energy", "sweep-heed_radius", "sweep-ch_separation",
            "kmeans-alone"])
    def test_ignored_flag_rejected(self, command, flags, field, tmp_path, capsys):
        code = run_cli([command, *self.BASE[command], *flags, "--out", tmp_path / "o"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and field in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,text,field", [
        ("sweep", "protocols = kmeans, leach\n", "protocols"),
        ("sweep", "max_rounds = 5\n", "max_rounds"),
        ("sweep", "thin = 3\n", "thin"),
        ("sweep", "formats = json\n", "formats"),
        ("run", "protocols = leach\ngrid = 3\n", "grid"),
        ("compare", "protocols = leach, heed\ngrid = 3\n", "grid"),
        ("run", "protocols = leach\nformats = json\nthin = 2\n", "thin"),
        ("run", "protocols = leach, heed\nfcm_tol = 0.001\n", "fcm_tol"),
        ("compare", "protocols = kmeans, fuzzy\neecs_w = 0.5\n", "eecs_w"),
        ("sweep", "k = 5\n", "k"),
        ("sweep", "initial_energy = 0.5\n", "initial_energy"),
        ("sweep", "e_amp = 1e-10\n", "e_amp"),
        ("sweep", "data_bits = 4000\n", "data_bits"),  # the default, given explicitly
        ("sweep", "leach_p = 0.1\n", "leach_p"),
    ], ids=["protocols", "max_rounds", "thin", "formats", "run-grid", "compare-grid",
            "run-thin-json", "run-fcm_tol", "compare-eecs_w", "sweep-k",
            "sweep-initial_energy", "sweep-e_amp", "sweep-data_bits", "sweep-leach_p"])
    def test_ignored_config_key_rejected(self, command, text, field, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        code = run_cli([command, "--config", cfg, *self.BASE[command], "--out", tmp_path / "o"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and field in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_kmeans_and_fuzzy_protocols_accepted(self, tmp_path):
        code = run_cli(["sweep", "--grid", "3", "--nodes", "10", "--seed", "1",
                        "--protocol", "fuzzy", "--protocol", "kmeans", "--out", tmp_path / "o"])
        assert code == 0


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

    def test_out_dir_from_file(self, tmp_path):
        out = tmp_path / "from-file"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"protocols = leach\nn_nodes = 10\nmax_rounds = 2\nout_dir = {out}\n")
        assert run_cli(["run", "--config", cfg]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "alive_series.csv", "bs_series.csv", "leach_seed1.json", "summary.csv"]

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

    def test_non_utf8_config_is_a_one_line_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"nodes\xff = 3\n")
        code = run_cli(["run", "--config", cfg, "--out", tmp_path / "o"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot read config file {cfg}: ") and err.count("\n") == 1

    def test_preset_table1(self, tmp_path):
        out = tmp_path / "o"
        run_cli(["run", "--preset", "table1", "--protocol", "leach", "--seed", "1",
                 "--rounds", "5", "--out", out])
        doc = json.loads((out / "leach_seed1.json").read_text())
        assert doc["config"]["arena"] == [1000.0, 1000.0]
        assert doc["config"]["bs_pos"] == [500.0, 200.0]

    # a preset sets the arena and BS position only, over the config file
    @pytest.mark.parametrize("preset,text,n_nodes,arena,bs_pos", [
        ("table1", "n_nodes = 20\n", 20, [1000.0, 1000.0], [500.0, 200.0]),
        ("default", "bs_y = 300\n", 100, [100.0, 100.0], [50.0, 175.0]),
    ], ids=["table1-n_nodes", "default-bs_y"])
    def test_preset_over_config_file(self, preset, text, n_nodes, arena, bs_pos, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert run_cli(["run", "--config", cfg, "--preset", preset, "--protocol", "leach",
                        "--rounds", "2", "--out", out]) == 0
        config = json.loads((out / "leach_seed1.json").read_text())["config"]
        assert (config["n_nodes"], config["arena"], config["bs_pos"]) == (n_nodes, arena, bs_pos)
