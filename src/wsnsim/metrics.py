"""Evaluation products: alive/delivery series, summary stats, CSV/JSON export.

Exports are deterministic byte streams: protocol columns are sorted, floats
are rendered with repr (full round-trip precision), and JSON keys are sorted.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import asdict, astuple, dataclass, fields

from .engine import ExperimentResult, RoundReport
from .model import NetworkConfig, Position, RadioModel


@dataclass
class SeriesTable:
    """One value column per protocol over a shared round grid."""

    index_label: str
    index: list[float]
    columns: dict[str, list[float]]  # insertion order = sorted protocol names

    def rows(self):
        names = list(self.columns)
        for i, t in enumerate(self.index):
            yield [t] + [self.columns[name][i] for name in names]


@dataclass
class RunSummary:
    protocol: str
    seed: int
    first_death_round: int | None
    last_death_round: int | None
    total_bs_messages: int
    mean_clustering_iterations: float | None


@dataclass
class ProtocolSummary:
    protocol: str
    runs: int
    mean_first_death: float | None
    std_first_death: float | None
    mean_last_death: float | None
    std_last_death: float | None
    mean_total_bs_messages: float
    std_total_bs_messages: float
    mean_clustering_iterations: float | None


@dataclass
class SummaryStats:
    per_run: list[RunSummary]
    per_protocol: list[ProtocolSummary]


def _column(results: dict[str, ExperimentResult], sample_rounds, per_round,
            past_end: float | None) -> SeriesTable:
    """Sample ``per_round(res)``, one value per round, for each protocol.

    A sampled round past a run's end reads ``past_end``, or the run's last
    value when that is None (0.0 for a run without rounds).
    """
    columns: dict[str, list[float]] = {}
    for name in sorted(results):
        values = per_round(results[name])
        tail = past_end if past_end is not None else (values[-1] if values else 0.0)
        columns[name] = [values[r] if r < len(values) else tail for r in sample_rounds]
    return SeriesTable(index_label="round", index=[float(r) for r in sample_rounds],
                       columns=columns)


def alive_series(results: dict[str, ExperimentResult], sample_rounds) -> SeriesTable:
    """Alive count after each sampled round, per protocol.

    Rounds past a run's end (the network died earlier) read as 0 alive.
    """
    return _column(results, sample_rounds,
                   lambda res: [float(rep.alive_after) for rep in res.reports], 0.0)


def bs_series(results: dict[str, ExperimentResult], sample_rounds) -> SeriesTable:
    """Cumulative base-station messages at each sampled round, per protocol.

    Columns are non-decreasing and plateau at the run's total once the
    network is dead.
    """
    return _column(results, sample_rounds, lambda res: [
        float(total) for total in
        itertools.accumulate(rep.bs_messages_delivered for rep in res.reports)], None)


def _mean_std(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    mean = sum(values) / len(values)
    if len(values) == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var)


CENTROID_PROTOCOLS = ("kmeans", "fuzzy")


def summarize(results: dict[tuple[str, int], ExperimentResult]) -> SummaryStats:
    """Per-run rows plus per-protocol mean/std aggregates over seeds.

    Clustering-iteration means are reported only for the centroid-based
    protocols; runs that saw no death contribute nothing to death-round
    aggregates.
    """
    per_run: list[RunSummary] = []
    for (protocol, seed) in sorted(results):
        res = results[(protocol, seed)]
        iters = None
        if protocol in CENTROID_PROTOCOLS and res.reports:
            iters = sum(r.clustering_iterations for r in res.reports) / len(res.reports)
        per_run.append(
            RunSummary(
                protocol=protocol,
                seed=seed,
                first_death_round=res.first_death_round,
                last_death_round=res.last_death_round,
                total_bs_messages=res.total_bs_messages,
                mean_clustering_iterations=iters,
            )
        )

    per_protocol: list[ProtocolSummary] = []
    for protocol in sorted({p for p, _ in results}):
        rows = [r for r in per_run if r.protocol == protocol]
        firsts = [float(r.first_death_round) for r in rows if r.first_death_round is not None]
        lasts = [float(r.last_death_round) for r in rows if r.last_death_round is not None]
        msgs = [float(r.total_bs_messages) for r in rows]
        iters = [r.mean_clustering_iterations for r in rows
                 if r.mean_clustering_iterations is not None]
        mean_first, std_first = _mean_std(firsts)
        mean_last, std_last = _mean_std(lasts)
        mean_msgs, std_msgs = _mean_std(msgs)
        per_protocol.append(
            ProtocolSummary(
                protocol=protocol,
                runs=len(rows),
                mean_first_death=mean_first,
                std_first_death=std_first,
                mean_last_death=mean_last,
                std_last_death=std_last,
                mean_total_bs_messages=mean_msgs if mean_msgs is not None else 0.0,
                std_total_bs_messages=std_msgs if std_msgs is not None else 0.0,
                mean_clustering_iterations=_mean_std(iters)[0],
            )
        )
    return SummaryStats(per_run=per_run, per_protocol=per_protocol)


def _render(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def export_csv(table, destination) -> None:
    """Write a SeriesTable or SummaryStats as RFC-4180 CSV (LF endings)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if isinstance(table, SeriesTable):
        writer.writerow([table.index_label] + list(table.columns))
        for row in table.rows():
            writer.writerow([_render(v) for v in row])
    elif isinstance(table, SummaryStats):
        def section(cls, rows):
            writer.writerow([f.name for f in fields(cls)])
            writer.writerows([_render(v) for v in astuple(row)] for row in rows)

        section(RunSummary, table.per_run)
        writer.writerow([])
        section(ProtocolSummary, table.per_protocol)
    else:
        raise TypeError(f"cannot export {type(table).__name__} as CSV")
    _write_text(destination, buf.getvalue())


def _config_dict(config: NetworkConfig) -> dict:
    return {
        "n_nodes": config.n_nodes,
        "arena": list(config.arena),
        "bs_pos": [config.bs_pos.x, config.bs_pos.y],
        "initial_energy": config.initial_energy,
        "radio": asdict(config.radio),
        "seed": config.seed,
    }


def result_to_dict(result: ExperimentResult) -> dict:
    return {
        "protocol": result.protocol,
        "config": _config_dict(result.config),
        "first_death_round": result.first_death_round,
        "last_death_round": result.last_death_round,
        "total_bs_messages": result.total_bs_messages,
        "reports": [asdict(r) for r in result.reports],
    }


def result_from_dict(doc: dict) -> ExperimentResult:
    cfg = doc["config"]
    config = NetworkConfig(
        n_nodes=cfg["n_nodes"],
        arena=tuple(cfg["arena"]),
        bs_pos=Position(*cfg["bs_pos"]),
        initial_energy=cfg["initial_energy"],
        radio=RadioModel(**cfg["radio"]),
        seed=cfg["seed"],
    )
    return ExperimentResult(
        protocol=doc["protocol"],
        config=config,
        reports=[RoundReport(**r) for r in doc["reports"]],
        first_death_round=doc["first_death_round"],
        last_death_round=doc["last_death_round"],
        total_bs_messages=doc["total_bs_messages"],
    )


def export_json(payload, destination) -> None:
    """Write an ExperimentResult or SummaryStats as a stable-key JSON document."""
    if isinstance(payload, ExperimentResult):
        doc = result_to_dict(payload)
    elif isinstance(payload, SummaryStats):
        doc = {
            "per_run": [asdict(r) for r in payload.per_run],
            "per_protocol": [asdict(p) for p in payload.per_protocol],
        }
    else:
        raise TypeError(f"cannot export {type(payload).__name__} as JSON")
    _write_text(destination, json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")


def load_result_json(source) -> ExperimentResult:
    """Inverse of export_json for ExperimentResult documents."""
    if hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source, encoding="utf-8") as fh:
            doc = json.load(fh)
    return result_from_dict(doc)


def _write_text(destination, text: str) -> None:
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
