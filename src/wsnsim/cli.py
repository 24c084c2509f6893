"""Command-line front end: run, compare and sweep experiments.

All randomness flows from the --seed list, so repeated invocations with the
same arguments write byte-identical outputs. Configuration can also come
from a flat key=value file (--config); explicit flags win over file values.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import dataclass, field, fields
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
)
from .metrics import (
    alive_series,
    bs_series,
    export_csv,
    export_json,
    summarize,
)
from .model import NetworkConfig, Position, RadioModel
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

# NetworkConfig presets; the alternate geometry uses the larger arena with
# the base station just outside the top edge
PRESETS = {
    "default": dict(n_nodes=100, width=100.0, height=100.0, bs_x=50.0, bs_y=175.0),
    "table1": dict(n_nodes=100, width=1000.0, height=1000.0, bs_x=500.0, bs_y=200.0),
}


class CliError(Exception):
    """Invalid configuration; the message names the offending field."""


@dataclass
class RunSpec:
    protocols: list[str]
    seeds: list[int]
    n_nodes: int = 100
    width: float = 100.0
    height: float = 100.0
    bs_x: float = 50.0
    bs_y: float = 175.0
    initial_energy: float = 0.5
    e_elec: float = 50e-9
    e_amp: float = 100e-12
    e_da: float = 5e-9
    data_bits: int = 4000
    header_bits: int = 200
    max_rounds: int = 3000
    thin: int = 1
    out_dir: Path = field(default_factory=lambda: Path("out"))
    formats: tuple[str, ...] = ("csv", "json")
    grid: list[int] = field(default_factory=list)
    # the PROTOCOL_KEYS that were set; the params classes default the rest
    protocol_values: dict[str, int | float] = field(default_factory=dict)
    given: set[str] = field(default_factory=set)  # the keys set_value was given

    def set_value(self, key: str, value) -> None:
        self.given.add(key)
        if key in PROTOCOL_KEYS:
            self.protocol_values[key] = value
        else:
            setattr(self, key, value)

    def network_config(self, seed: int) -> NetworkConfig:
        try:
            return NetworkConfig(
                n_nodes=self.n_nodes,
                arena=(self.width, self.height),
                bs_pos=Position(self.bs_x, self.bs_y),
                initial_energy=self.initial_energy,
                radio=RadioModel(**{f.name: getattr(self, f.name) for f in fields(RadioModel)}),
                seed=seed,
            )
        except ValueError as exc:
            raise CliError(str(exc)) from exc

    def protocol(self, name: str):
        if name not in PROTOCOLS:
            raise CliError(f"unknown protocol {name!r} (protocols)")
        cls = PROTOCOLS[name]
        values = {attr: self.protocol_values[key]
                  for key, (owners, attr) in PROTOCOL_KEYS.items()
                  if cls in owners and key in self.protocol_values}
        try:
            return cls(**values)
        except ValueError as exc:
            raise CliError(str(exc)) from exc

    def validate(self) -> None:
        if not self.protocols:
            raise CliError("at least one protocol required (protocols)")
        if not self.seeds:
            raise CliError("at least one seed required (seeds)")
        for key in ("protocols", "seeds", "grid"):  # a repeat would run or weigh twice
            values = getattr(self, key)
            if len(set(values)) != len(values):
                raise CliError(f"{key} must not repeat a value: {values} ({key})")
        if self.max_rounds < 1:
            raise CliError("max_rounds must be >= 1")
        if self.thin < 1:
            raise CliError("thin must be >= 1")
        if not self.formats or not set(self.formats) <= {"csv", "json"}:
            raise CliError(f"formats must be csv, json or both, got {self.formats} (formats)")
        k = self.protocol_values.get("k")
        if k is not None and not 1 <= k <= self.n_nodes:
            raise CliError(f"k={k} outside 1..n_nodes={self.n_nodes} (k)")
        for name in self.protocols:
            self.protocol(name)  # an unknown name or bad parameters raise CliError
        for seed in self.seeds:
            self.network_config(seed)  # likewise for the scenario and each seed


def _read_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _field_type(cls, name: str) -> type:
    """The annotated type of field ``name`` of ``cls``; ``int | None`` gives int."""
    hint = get_type_hints(cls)[name]
    return (get_args(hint) or (hint,))[0]


# config keys of one number: RunSpec's int and float fields, the protocol keys
_NUMBER_KEYS = {
    **{key: t for key, t in get_type_hints(RunSpec).items() if t in (int, float)},
    **{key: _field_type(owners[0], attr) for key, (owners, attr) in PROTOCOL_KEYS.items()},
}


def _apply_config_values(spec: RunSpec, values: dict[str, str]) -> None:
    for key, raw in values.items():
        if key == "protocols":
            spec.protocols = [p.strip() for p in raw.split(",") if p.strip()]
        elif key == "seeds":
            spec.seeds = _parse_ints(raw, "seeds")
        elif key == "grid":
            spec.grid = _parse_grid(raw)
        elif key == "out_dir":
            spec.out_dir = Path(raw)
        elif key == "formats":
            spec.set_value(key, tuple(f.strip() for f in raw.split(",") if f.strip()))
        elif key in _NUMBER_KEYS:
            kind = _NUMBER_KEYS[key]
            try:
                spec.set_value(key, kind(raw))
            except ValueError as exc:
                noun = "integer" if kind is int else "number"
                raise CliError(f"invalid {noun} for {key}: {raw!r}") from exc
        else:
            raise CliError(f"unknown config key {key!r}")


def _parse_ints(text: str, key: str, sep: str = ",") -> list[int]:
    try:
        return [int(v) for v in text.replace(sep, " ").split()]
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsnsim",
        description="Round-based clustered sensor-network lifetime simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, help="flat key=value config file")
        p.add_argument("--preset", choices=sorted(PRESETS),
                       help="geometry preset overriding arena and BS position")
        p.add_argument("--protocol", action="append", choices=PROTOCOLS,
                       help="protocol to run (repeatable)")
        p.add_argument("--seed", action="append", type=int,
                       help="RNG seed (repeatable)")
        p.add_argument("--nodes", type=int, dest="n_nodes")
        p.add_argument("--width", type=float)
        p.add_argument("--height", type=float)
        p.add_argument("--bs-x", type=float, dest="bs_x")
        p.add_argument("--bs-y", type=float, dest="bs_y")
        p.add_argument("--initial-energy", type=float, dest="initial_energy")
        p.add_argument("--rounds", type=int, dest="max_rounds")
        p.add_argument("--thin", type=int, help="sample every Nth round in series output")
        p.add_argument("--out", type=Path, dest="out_dir", help="output directory")
        p.add_argument("--format", choices=("csv", "json", "both"), dest="format")
        for key, (owners, attr) in PROTOCOL_KEYS.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=_NUMBER_KEYS[key],
                           help=f"{attr} of {'/'.join(cls.name for cls in owners)}")

    p_run = sub.add_parser("run", help="simulate selected protocols and export results")
    add_common(p_run)
    p_cmp = sub.add_parser("compare", help="run >=2 protocols and emit comparison tables")
    add_common(p_cmp)
    p_sweep = sub.add_parser("sweep", help="cluster-count sweep of kmeans vs fuzzy formation")
    add_common(p_sweep)
    p_sweep.add_argument("--grid", type=str,
                         help="cluster counts, e.g. 10,20,30 or 10:100:10")
    return parser


def _spec_from_args(args) -> RunSpec:
    spec = RunSpec(protocols=[], seeds=[])
    if args.config:
        _apply_config_values(spec, _read_config_file(args.config))
    if args.preset:
        for key, value in PRESETS[args.preset].items():
            setattr(spec, key, value)
    for key in (*_NUMBER_KEYS, "out_dir"):
        value = getattr(args, key, None)  # None: no such flag, or not given
        if value is not None:
            spec.set_value(key, value)
    if args.protocol:
        spec.protocols = list(args.protocol)
    if args.seed:
        spec.seeds = list(args.seed)
    if not spec.seeds:
        spec.seeds = [1]
    if getattr(args, "format", None):
        spec.set_value("formats", ("csv", "json") if args.format == "both" else (args.format,))
    if getattr(args, "grid", None):
        spec.grid = _parse_grid(args.grid)
    return spec


def _execute(spec: RunSpec) -> dict[tuple[str, int], object]:
    results = {}
    for name in spec.protocols:
        protocol = spec.protocol(name)
        for seed in spec.seeds:
            config = spec.network_config(seed)
            results[(name, seed)] = run_simulation(config, protocol, spec.max_rounds)
    return results


def _sample_rounds(results, thin: int) -> list[int]:
    horizon = max((len(r.reports) for r in results.values()), default=0)
    return list(range(0, horizon, thin))


def _make_out_dir(spec: RunSpec) -> Path:
    try:
        spec.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output directory {spec.out_dir}: {exc}") from exc
    return spec.out_dir


def _write_outputs(spec: RunSpec, results) -> None:
    out = _make_out_dir(spec)
    if "json" in spec.formats:
        for (name, seed), res in sorted(results.items()):
            export_json(res, out / f"{name}_seed{seed}.json")
    if "csv" in spec.formats:
        sample = _sample_rounds(results, spec.thin)
        # series averaged per protocol would hide seed variance; emit the
        # first seed's series plus the cross-seed summary
        first_seed = spec.seeds[0]
        per_protocol = {name: results[(name, first_seed)] for name in spec.protocols}
        export_csv(alive_series(per_protocol, sample), out / "alive_series.csv")
        export_csv(bs_series(per_protocol, sample), out / "bs_series.csv")
        export_csv(summarize(results), out / "summary.csv")


def _print_run_lines(results) -> None:
    for (name, seed), res in sorted(results.items()):
        first = res.first_death_round if res.first_death_round is not None else "-"
        print(f"{name} seed={seed} first_death={first} "
              f"bs_messages={res.total_bs_messages}")


def cmd_run(spec: RunSpec) -> int:
    spec.validate()
    results = _execute(spec)
    _write_outputs(spec, results)
    _print_run_lines(results)
    return 0


def cmd_compare(spec: RunSpec) -> int:
    if len(spec.protocols) < 2:
        raise CliError("compare needs at least two protocols (protocols)")
    spec.validate()
    results = _execute(spec)
    _write_outputs(spec, results)
    _print_run_lines(results)
    stats = summarize(results)
    ranked = sorted(
        (p for p in stats.per_protocol if p.mean_first_death is not None),
        key=lambda p: -(p.mean_first_death or 0),
    )
    if ranked:
        order = " > ".join(p.protocol for p in ranked)
        print(f"mean first-death ordering: {order}")
    else:
        print("mean first-death ordering: (no deaths observed)")
    return 0


# keys of run and compare that a sweep has no use for -> their flags
SWEEP_IGNORES = {"max_rounds": "--rounds", "thin": "--thin", "formats": "--format"}


def cmd_sweep(spec: RunSpec) -> int:
    if not spec.grid:
        raise CliError("sweep needs a non-empty cluster-count grid (grid)")
    if not spec.protocols:
        spec.protocols = ["kmeans", "fuzzy"]  # the sweep always compares these two
    spec.validate()
    for k in spec.grid:
        if not 1 <= k <= spec.n_nodes:
            raise CliError(f"grid value {k} outside 1..n_nodes (grid)")
    others = [name for name in spec.protocols if name not in ("kmeans", "fuzzy")]
    if others:
        raise CliError(f"sweep compares kmeans and fuzzy only, not {', '.join(others)} "
                       "(protocols)")
    for key, flag in SWEEP_IGNORES.items():
        if key in spec.given:
            raise CliError(f"sweep takes no {flag} ({key}): it simulates no rounds and "
                           "writes only iteration_sweep.csv")
    from .engine import sweep_iterations

    fuzzy = spec.protocol("fuzzy")  # its max_iter caps k-means too (fcm_max_iter)
    rows = sweep_iterations(
        base_config=spec.network_config(spec.seeds[0]),
        grid=spec.grid,
        seeds=spec.seeds,
        fcm_m=fuzzy.m,
        fcm_tol=fuzzy.tol,
        max_iter=fuzzy.max_iter,
    )
    out = _make_out_dir(spec)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["cluster_count", "kmeans_iterations", "fuzzy_iterations",
                     "fuzzy_at_cap"])
    for k, km, fz, capped in rows:
        writer.writerow([k, repr(km), repr(fz), capped])
    (out / "iteration_sweep.csv").write_text(buf.getvalue(), encoding="utf-8")
    for k, km, fz, capped in rows:
        print(f"k={k} kmeans_mean_iters={km:.2f} fuzzy_mean_iters={fz:.2f} "
              f"fuzzy_at_cap={capped}")
    return 0


COMMANDS = {"run": cmd_run, "compare": cmd_compare, "sweep": cmd_sweep}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](_spec_from_args(args))
    except (CliError, FcmUnderflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
