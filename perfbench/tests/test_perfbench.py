"""Tests of the benchmark itself, on its seconds-long ``smoke`` workload.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import wsnsim.cli  # noqa: E402
import wsnsim.engine  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _result(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _run_in_process(*argv: str) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(list(argv)) == 0
    return _result(buf.getvalue())


@pytest.mark.parametrize("trace, declared", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_emits_every_declared_metric_with_its_unit(trace, declared):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= len(run.PROTOCOLS)
    expected = {m["name"]: m["unit"] for m in DECLARED[declared]}
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    for name, m in metrics.items():
        assert isinstance(m["value"], (int, float)), name
        assert f"{name} = " in proc.stdout
    if trace == "1":
        # layer self times add up to the traced run_round time
        parts = ["engine.ledger_s", "partitioning.fcm_s", "partitioning.kmeans_s",
                 *(f"protocols.form_s.{p}" for p in run.PROTOCOLS)]
        assert math.isclose(sum(metrics[n]["value"] for n in parts),
                            metrics["engine.run_round_s"]["value"], rel_tol=1e-9)
        for p in run.PROTOCOLS:  # smoke runs every protocol
            assert metrics[f"node_rounds_per_s.{p}"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in metrics.values())


def test_one_perturbed_energy_charged_counts_as_failed(monkeypatch):
    original = wsnsim.cli.export_json
    calls = []

    def export_perturbed(result, destination):
        if not calls:
            report = result.reports[3]
            result.reports[3] = dataclasses.replace(
                report, energy_charged=math.nextafter(report.energy_charged, math.inf))
        calls.append(result.protocol)
        original(result, destination)

    monkeypatch.setattr(wsnsim.cli, "export_json", export_perturbed)
    result = _run_in_process("--workload", "smoke", "--seconds", "0")
    assert result["attempted"] == len(run.PROTOCOLS)
    assert result["failed"] == 1
    assert result["correct"] is False


def test_a_name_the_package_no_longer_has_is_unmeasured_not_zero(monkeypatch):
    # as if a refactor had removed partitioning.fcm_run from wsnsim.protocols
    targets = tuple(("wsnsim.protocols", "fcm_run_removed", name) if name == "partitioning.fcm_run"
                    else (module, attr, name) for module, attr, name in spans.TARGETS)
    monkeypatch.setattr(spans, "TARGETS", targets)
    result = _run_in_process("--workload", "smoke", "--seconds", "0", "--trace", "1")
    metrics = result["metrics"]
    assert result["correct"] is True
    for name in ("partitioning.fcm_s", "partitioning.fcm_us_per_iter",
                 "protocols.form_s.fuzzy", "engine.ledger_s"):
        assert metrics[name]["value"] is None, name
    assert metrics["partitioning.kmeans_s"]["value"] > 0
    assert metrics["partitioning.fcm_iters"]["value"] > 0  # counted from the outputs


def test_digest_covers_todays_statistics_and_ignores_new_fields():
    doc = {"first_death_round": None, "last_death_round": None, "total_bs_messages": 7,
           "reports": [dict.fromkeys(run.REPORT_FIELDS, 1)]}
    digest = run.stats_digest(doc)
    doc["reports"][0]["energy_by_phase"] = {"advert_tx": 0.5}
    doc["wsnsim_version"] = "0.2.0"
    assert run.stats_digest(doc) == digest
    doc["reports"][0]["alive_after"] = 0
    assert run.stats_digest(doc) != digest


def test_fails_without_the_package_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "spans.py", "first_round.py", "digests.json"):
        (bench / name).write_bytes((BENCH / name).read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_refuses_to_run_without_engine_run_round(monkeypatch, capsys):
    # every round time is taken around engine.run_round, so there is no fallback
    monkeypatch.delattr(wsnsim.engine, "run_round")
    assert run.main(["--workload", "smoke", "--seconds", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no run_round" in captured.err
