"""Command-line front end: run, compare and sweep experiments.

All randomness flows from the --seed list, so repeated invocations with the
same arguments write byte-identical outputs. Configuration can also come
from a flat key=value file (--config); explicit flags win over file values.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_type_hints

from .engine import (
    PROTOCOLS,
    EecsParams,
    FuzzyFormation,
    HeedParams,
    KmeansFormation,
    LeachParams,
    run_simulation,
    sweep_iterations,
)
from .metrics import (
    SeriesTable,
    alive_series,
    bs_series,
    export_csv,
    export_json,
    summarize,
)
from .model import NetworkConfig, RadioModel
from .partitioning import FcmUnderflow

# The protocol parameters the CLI sets: key -> (owner classes, field). The
# flag is --key with dashes, the config-file key is the key itself, and
# either one sets the field, with its annotated type, on every owner class.
PROTOCOL_KEYS = {
    "leach_p": ((LeachParams,), "p"),
    "heed_c_prob": ((HeedParams,), "c_prob"),
    "heed_p_min": ((HeedParams,), "p_min"),
    "heed_radius": ((HeedParams,), "cluster_radius"),
    "eecs_p": ((EecsParams,), "p"),
    "eecs_w": ((EecsParams,), "w"),
    "k": ((KmeansFormation, FuzzyFormation), "k"),
    "fcm_m": ((FuzzyFormation,), "m"),
    "fcm_tol": ((FuzzyFormation,), "tol"),
    "fcm_max_iter": ((KmeansFormation, FuzzyFormation), "max_iter"),
    "ch_separation": ((LeachParams, HeedParams, EecsParams), "ch_separation"),
}

RUNS, ALL = ("run", "compare"), ("run", "compare", "sweep")
# The scenario keys: key -> (flag, NetworkConfig field, commands that read
# it). A flag of None marks a config-only key. The keys of a field fill it in
# this order: arena = (width, height), bs_pos = (bs_x, bs_y) and
# radio = RadioModel(e_elec, ...); a key not given keeps NetworkConfig's
# default. A sweep charges no energy, so it reads no energy key.
SCENARIO_KEYS = {
    "n_nodes": ("--nodes", "n_nodes", ALL),
    "width": ("--width", "arena", ALL),
    "height": ("--height", "arena", ALL),
    "bs_x": ("--bs-x", "bs_pos", ALL),
    "bs_y": ("--bs-y", "bs_pos", ALL),
    "initial_energy": ("--initial-energy", "initial_energy", RUNS),
    **{f.name: (None, "radio", RUNS) for f in fields(RadioModel)},
}
# NetworkConfig field -> its scenario keys, and the fields built of several
_FIELDS = {target: [key for key, (_, t, _) in SCENARIO_KEYS.items() if t == target]
           for _, target, _ in SCENARIO_KEYS.values()}
_BUILD = {"arena": lambda width, height: (width, height),
          "bs_pos": lambda bs_x, bs_y: (bs_x, bs_y), "radio": RadioModel}
# NetworkConfig's default of each scenario key, the one source of the defaults
DEFAULTS: dict[str, int | float] = {}
for _field, _value in zip((f.name for f in fields(NetworkConfig)), astuple(NetworkConfig())):
    DEFAULTS.update(zip(_FIELDS.get(_field, ()), _value if _field in _BUILD else (_value,)))

# The commands that read a key, where not all of them do: the scenario keys'
# readers, and those of the keys a sweep has no use for (its grid gives k; it
# simulates no rounds and writes one CSV). Beyond this, a protocol key is read
# only where one of its owners runs, and thin only where CSV is written.
READERS = {**{key: readers for key, (_, _, readers) in SCENARIO_KEYS.items()},
           "grid": ("sweep",), "k": RUNS, "max_rounds": RUNS, "thin": RUNS, "formats": RUNS}

# geometry presets, which set the arena and BS position only; the alternate
# geometry is the larger arena with the base station just outside the top edge
PRESETS = {
    "default": {key: DEFAULTS[key] for key in (*_FIELDS["arena"], *_FIELDS["bs_pos"])},
    "table1": dict(width=1000.0, height=1000.0, bs_x=500.0, bs_y=200.0),
}


class CliError(Exception):
    """Invalid configuration; the message names the offending field."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise CliError, so that they end
    in one ``error:`` line like every other refusal; -h still prints help."""

    def error(self, message):
        raise CliError(message)


@dataclass
class RunSpec:
    protocols: list[str] = field(default_factory=list)
    seeds: list[int] = field(default_factory=lambda: [1])
    max_rounds: int = 3000
    thin: int = 1
    out_dir: Path = field(default_factory=lambda: Path("out"))
    formats: tuple[str, ...] = ("csv", "json")
    grid: list[int] = field(default_factory=list)
    # the SCENARIO_KEYS and PROTOCOL_KEYS given; NetworkConfig and the params
    # classes default the rest
    values: dict[str, int | float] = field(default_factory=dict)
    given: set[str] = field(default_factory=set)  # the keys set_value was given

    def set_value(self, key: str, value) -> None:
        self.given.add(key)
        if key in SCENARIO_KEYS or key in PROTOCOL_KEYS:
            self.values[key] = value
        else:
            setattr(self, key, value)

    def network_config(self, seed: int) -> NetworkConfig:
        # each class is built once from all its values: a check that sees
        # some given values with the defaults of others may fail
        values = {**DEFAULTS, **self.values}
        try:
            return NetworkConfig(seed=seed, **{
                target: _BUILD[target](*(values[key] for key in keys)) if target in _BUILD
                else values[target] for target, keys in _FIELDS.items()})
        except ValueError as exc:
            raise CliError(str(exc)) from exc

    def protocol(self, name: str):
        if name not in PROTOCOLS:
            raise CliError(f"unknown protocol {name!r} (protocols)")
        cls = PROTOCOLS[name]
        values = {attr: self.values[key]
                  for key, (owners, attr) in PROTOCOL_KEYS.items()
                  if cls in owners and key in self.values}
        try:
            return cls(**values)
        except ValueError as exc:
            raise CliError(str(exc)) from exc

    def validate(self) -> None:
        if not self.protocols:
            raise CliError("at least one protocol required (protocols)")
        for key in ("protocols", "seeds", "grid"):  # a repeat would run or weigh twice
            values = getattr(self, key)
            if len(set(values)) != len(values):
                raise CliError(f"{key} must not repeat a value: {values} ({key})")
        for key in ("max_rounds", "thin"):
            if getattr(self, key) < 1:
                raise CliError(f"{key} must be >= 1")
        if not self.formats or not set(self.formats) <= {"csv", "json"}:
            raise CliError(f"formats must be csv, json or both, got {self.formats} (formats)")
        k, n_nodes = self.values.get("k"), self.values.get("n_nodes", DEFAULTS["n_nodes"])
        if k is not None and not 1 <= k <= n_nodes:
            raise CliError(f"k={k} outside 1..n_nodes={n_nodes} (k)")
        for name in self.protocols:
            self.protocol(name)  # an unknown name or bad parameters raise CliError
        for seed in self.seeds:
            self.network_config(seed)  # likewise for the scenario and each seed

    def refuse_unread(self, command: str, running) -> None:
        """Refuse a given key that ``command`` would not read (see READERS)
        when it runs the protocols named in ``running``."""
        for key in sorted(self.given):
            if command not in READERS.get(key, ALL):
                raise CliError(f"{command} does not read {key} (read by {'/'.join(READERS[key])})")
            if key in PROTOCOL_KEYS:
                owners = [cls.name for cls in PROTOCOL_KEYS[key][0]]
                if not set(owners) & set(running):
                    raise CliError(f"{command} does not read {key}: no {'/'.join(owners)} runs")
            if key == "thin" and "csv" not in self.formats:
                raise CliError(f"{command} does not read thin: it writes no CSV")


def _read_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise CliError(f"{path}:{lineno}: {key} repeats line {first_line[key]}")
        first_line[key] = lineno
        values[key] = value
    return values


def _field_type(cls, name: str) -> type:
    """The annotated type of field ``name`` of ``cls``; ``int | None`` gives int."""
    hint = get_type_hints(cls)[name]
    return (get_args(hint) or (hint,))[0]


# config keys of one number: RunSpec's int and float fields, the scenario keys
# with the types of their defaults, the protocol keys
_NUMBER_KEYS = {
    **{key: t for key, t in get_type_hints(RunSpec).items() if t in (int, float)},
    **{key: type(value) for key, value in DEFAULTS.items()},
    **{key: _field_type(owners[0], attr) for key, (owners, attr) in PROTOCOL_KEYS.items()},
}


def _parse_ints(text: str, key: str, sep: str = ",") -> list[int]:
    fields = text.split(sep)
    if any(not v.strip() for v in fields):  # 2,,3 or ,2 or 2:6::2
        raise CliError(f"empty field in {key}: {text!r}")
    try:
        return [int(v) for v in fields]
    except ValueError as exc:
        raise CliError(f"invalid integer in {key}: {text!r}") from exc


def _parse_grid(text: str) -> list[int]:
    if ":" in text:
        bounds = _parse_ints(text, "grid", sep=":")
        if len(bounds) != 3:
            raise CliError("grid range must be start:stop:step")
        start, stop, step = bounds
        if step <= 0:
            raise CliError("grid step must be > 0 (grid)")
        return list(range(start, stop + 1, step))
    return _parse_ints(text, "grid")


def _names(text: str) -> list[str]:
    return [name.strip() for name in text.split(",") if name.strip()]


# config keys of another kind -> the reader of a value, which gives what the
# key's flag gives
_TEXT_KEYS = {"protocols": _names, "seeds": lambda text: _parse_ints(text, "seeds"),
              "grid": _parse_grid, "out_dir": Path, "formats": lambda text: tuple(_names(text))}
# --format's choices -> formats
_FORMATS = {"csv": ("csv",), "json": ("json",), "both": ("csv", "json")}


def _config_value(key: str, raw: str):
    """The value of config-file key ``key`` given as ``raw``, as its flag gives it."""
    if key in _TEXT_KEYS:
        return _TEXT_KEYS[key](raw)
    if key not in _NUMBER_KEYS:
        raise CliError(f"unknown config key {key!r}")
    kind = _NUMBER_KEYS[key]
    try:
        return kind(raw)
    except ValueError as exc:
        noun = "integer" if kind is int else "number"
        raise CliError(f"invalid {noun} for {key}: {raw!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wsnsim",
        description="Round-based clustered sensor-network lifetime simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in (("run", "simulate selected protocols and export results"),
                          ("compare", "run >=2 protocols and emit comparison tables"),
                          ("sweep", "cluster-count sweep of kmeans vs fuzzy formation")):
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", type=Path, help="flat key=value config file")
        p.add_argument("--preset", choices=sorted(PRESETS),
                       help="geometry preset overriding arena and BS position")
        p.add_argument("--protocol", action="append", choices=PROTOCOLS, dest="protocols",
                       help="protocol to run (repeatable)")
        p.add_argument("--seed", action="append", type=int, dest="seeds", metavar="SEED",
                       help="RNG seed (repeatable)")
        for key, (flag, _, _) in SCENARIO_KEYS.items():
            if flag:
                p.add_argument(flag, dest=key, type=_NUMBER_KEYS[key])
        p.add_argument("--rounds", type=int, dest="max_rounds")
        p.add_argument("--thin", type=int, help="sample every Nth round in series output")
        p.add_argument("--out", type=Path, dest="out_dir", help="output directory")
        p.add_argument("--format", choices=_FORMATS, dest="formats")
        for key, (owners, attr) in PROTOCOL_KEYS.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=_NUMBER_KEYS[key],
                           help=f"{attr} of {'/'.join(cls.name for cls in owners)}")
    sub.choices["sweep"].add_argument("--grid", type=_parse_grid,
                                      help="cluster counts, e.g. 10,20,30 or 10:100:10")
    return parser


def _spec_from_args(args) -> RunSpec:
    spec = RunSpec()
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            spec.set_value(key, _config_value(key, raw))
    if args.preset:
        spec.values.update(PRESETS[args.preset])
    for key in (*_NUMBER_KEYS, *_TEXT_KEYS):
        value = getattr(args, key, None)  # None: no such flag, or not given
        if value is not None:
            spec.set_value(key, _FORMATS[value] if key == "formats" else value)
    return spec


def _make_out_dir(spec: RunSpec) -> Path:
    try:
        spec.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output directory {spec.out_dir}: {exc}") from exc
    return spec.out_dir


def _export(export, payload, path: Path, written: list[Path]) -> None:
    """``export(payload, path)``, then ``path`` joins ``written``. An OSError
    removes the ``written`` files and becomes a CliError naming the path: a
    partial result set would pass for a whole one."""
    try:
        export(payload, path)
    except OSError as exc:
        for done in written:
            done.unlink(missing_ok=True)
        raise CliError(f"cannot write {path}: {exc}") from exc
    written.append(path)


def cmd_run(spec: RunSpec, command: str = "run") -> dict:
    spec.validate()
    spec.refuse_unread(command, spec.protocols)
    results = {(name, seed): run_simulation(spec.network_config(seed), spec.protocol(name),
                                            spec.max_rounds)
               for name in spec.protocols for seed in spec.seeds}
    out, written = _make_out_dir(spec), []
    if "json" in spec.formats:
        for (name, seed), res in sorted(results.items()):
            _export(export_json, res, out / f"{name}_seed{seed}.json", written)
    if "csv" in spec.formats:
        horizon = max((len(r.reports) for r in results.values()), default=0)
        sample = list(range(0, horizon, spec.thin))
        # series averaged per protocol would hide seed variance; emit the
        # first seed's series plus the cross-seed summary
        per_protocol = {name: results[(name, spec.seeds[0])] for name in spec.protocols}
        _export(export_csv, alive_series(per_protocol, sample), out / "alive_series.csv", written)
        _export(export_csv, bs_series(per_protocol, sample), out / "bs_series.csv", written)
        _export(export_csv, summarize(results), out / "summary.csv", written)
    for (name, seed), res in sorted(results.items()):
        first = res.first_death_round if res.first_death_round is not None else "-"
        print(f"{name} seed={seed} first_death={first} "
              f"bs_messages={res.total_bs_messages}")
    return results


def cmd_compare(spec: RunSpec) -> None:
    if len(spec.protocols) < 2:
        raise CliError("compare needs at least two protocols (protocols)")
    stats = summarize(cmd_run(spec, "compare"))
    ranked = sorted(
        (p for p in stats.per_protocol if p.mean_first_death is not None),
        key=lambda p: -(p.mean_first_death or 0),
    )
    order = " > ".join(p.protocol for p in ranked) or "(no deaths observed)"
    print(f"mean first-death ordering: {order}")


def cmd_sweep(spec: RunSpec) -> None:
    if not spec.grid:
        raise CliError("sweep needs a non-empty cluster-count grid (grid)")
    if not spec.protocols:
        spec.protocols = ["kmeans", "fuzzy"]  # the sweep always compares these two
    spec.validate()
    base_config = spec.network_config(spec.seeds[0])
    for k in spec.grid:
        if not 1 <= k <= base_config.n_nodes:
            raise CliError(f"grid value {k} outside 1..n_nodes (grid)")
    if set(spec.protocols) != {"kmeans", "fuzzy"}:
        raise CliError("sweep compares kmeans with fuzzy: name both or neither, not "
                       f"{', '.join(spec.protocols)} (protocols)")
    spec.refuse_unread("sweep", ("kmeans", "fuzzy"))  # it always compares these two
    # the fuzzy parameters; their max_iter caps k-means too (fcm_max_iter)
    rows = sweep_iterations(base_config, spec.grid, spec.seeds, spec.protocol("fuzzy"))
    ks, kmeans_iters, fuzzy_iters, at_cap = zip(*rows)
    _export(export_csv, SeriesTable("cluster_count", list(ks), {
        "kmeans_iterations": kmeans_iters, "fuzzy_iterations": fuzzy_iters,
        "fuzzy_at_cap": at_cap}), _make_out_dir(spec) / "iteration_sweep.csv", [])
    for k, km, fz, capped in rows:
        print(f"k={k} kmeans_mean_iters={km:.2f} fuzzy_mean_iters={fz:.2f} "
              f"fuzzy_at_cap={capped}")


COMMANDS = {"run": cmd_run, "compare": cmd_compare, "sweep": cmd_sweep}
_parser = functools.cache(build_parser)  # built on the first call, not on every one


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        COMMANDS[args.command](_spec_from_args(args))
    except (CliError, FcmUnderflow, MemoryError) as exc:  # numpy's MemoryError names the array
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
