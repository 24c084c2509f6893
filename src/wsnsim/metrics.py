"""Evaluation products: alive/delivery series, summary stats, CSV/JSON export.

Exports are deterministic byte streams: protocol columns are sorted, JSON keys
are sorted, and floats are rendered with repr (full round-trip precision). A
CSV cell is csv.writer's own: an int by str, a float by repr, None as empty.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import asdict, astuple, dataclass, fields

from .engine import ExperimentResult, RoundReport
from .model import NetworkConfig, RadioModel


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
                mean_total_bs_messages=mean_msgs,
                std_total_bs_messages=std_msgs,
                mean_clustering_iterations=_mean_std(iters)[0],
            )
        )
    return SummaryStats(per_run=per_run, per_protocol=per_protocol)


def export_csv(table, destination) -> None:
    """Write a SeriesTable or SummaryStats as RFC-4180 CSV (LF endings)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if isinstance(table, SeriesTable):
        writer.writerow([table.index_label] + list(table.columns))
        writer.writerows(table.rows())
    elif isinstance(table, SummaryStats):
        def section(cls, rows):
            writer.writerow([f.name for f in fields(cls)])
            writer.writerows(map(astuple, rows))  # None as an empty cell

        section(RunSummary, table.per_run)
        writer.writerow([])
        section(ProtocolSummary, table.per_protocol)
    else:
        raise TypeError(f"cannot export {type(table).__name__} as CSV")
    _write_text(destination, buf.getvalue())


def result_to_dict(result: ExperimentResult) -> dict:
    return {
        "protocol": result.protocol,
        "config": asdict(result.config),  # JSON writes its tuples as lists
        "first_death_round": result.first_death_round,
        "last_death_round": result.last_death_round,
        "total_bs_messages": result.total_bs_messages,
        # RoundReport holds only numbers, so a shallow copy equals asdict's deep one
        "reports": [dict(vars(r)) for r in result.reports],
    }


def result_from_dict(doc: dict) -> ExperimentResult:
    # asdict's tuples come back from JSON as lists, and the radio as a dict
    config = NetworkConfig(**{key: RadioModel(**value) if key == "radio" else
                              tuple(value) if isinstance(value, list) else value
                              for key, value in doc["config"].items()})
    return ExperimentResult(
        protocol=doc["protocol"],
        config=config,
        reports=[RoundReport(**r) for r in doc["reports"]],
        first_death_round=doc["first_death_round"],
        last_death_round=doc["last_death_round"],
        total_bs_messages=doc["total_bs_messages"],
    )


_JSON = {"sort_keys": True, "indent": 2, "allow_nan": False}
# one report as json.dumps(doc, **_JSON) writes it in a result's "reports"
# list: the fields in sorted order, each value by repr, as json writes ints
# and finite floats
_REPORT = "    {\n" + ",\n".join(
    f"      {json.dumps(name)}: %({name})r" for name in sorted(f.name for f in fields(RoundReport))
) + "\n    }"


def _result_json(doc: dict) -> str:
    """``json.dumps(doc, **_JSON)`` of a ``result_to_dict`` document, bit for
    bit. ``indent`` keeps json on its pure-Python encoder, so the reports,
    most of the document, each go through ``_REPORT`` instead; the other
    values go through json."""
    reports = doc["reports"]
    if not all(map(math.isfinite, itertools.chain.from_iterable(map(dict.values, reports)))):
        return json.dumps(doc, **_JSON)  # which raises json's ValueError
    parts = []
    for key in sorted(doc):
        if key == "reports":
            text = "[\n" + ",\n".join(_REPORT % r for r in reports) + "\n  ]" if reports else "[]"
        else:
            text = json.dumps(doc[key], **_JSON).replace("\n", "\n  ")
        parts.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(parts) + "\n}"


def export_json(payload, destination) -> None:
    """Write an ExperimentResult or SummaryStats as a stable-key JSON document."""
    if isinstance(payload, ExperimentResult):
        text = _result_json(result_to_dict(payload))
    elif isinstance(payload, SummaryStats):
        text = json.dumps({
            "per_run": [asdict(r) for r in payload.per_run],
            "per_protocol": [asdict(p) for p in payload.per_protocol],
        }, **_JSON)
    else:
        raise TypeError(f"cannot export {type(payload).__name__} as JSON")
    _write_text(destination, text + "\n")


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
