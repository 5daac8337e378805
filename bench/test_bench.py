"""Tests of the benchmark itself.

    python3 -m pytest bench -q

They run real queerlab jobs, the short ones only: `verify determinantal`
(about 0.1 s) and `verify cauchy --degree 5 --vars 5` (about 0.5 s).
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer

DETERMINANTAL = ("verify", "determinantal")
CAUCHY = ("verify", "cauchy", "--degree", "5", "--vars", "5")


def reference():
    return json.loads(run.REFERENCE.read_text())


def run_main(monkeypatch, capsys, ref):
    """run.main on a one-job workload against `ref`; (detail, result)."""
    ref_path = run.ROOT / ".bench_run" / "test_reference.json"
    ref_path.parent.mkdir(exist_ok=True)
    ref_path.write_text(json.dumps(ref))
    monkeypatch.setattr(run, "REFERENCE", ref_path)
    monkeypatch.setitem(run.WORKLOADS, "ideals", {"jobs": (DETERMINANTAL,), "cache": False})
    try:
        code = run.main(["--workload", "ideals", "--seed", "0", "--seconds", "0", "--trace", "0"])
    finally:
        ref_path.unlink()
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_matching_reference_counts_no_failure(monkeypatch, capsys):
    detail, result = run_main(monkeypatch, capsys, reference())
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] == run.MIN_PASSES
    assert detail["failed_share"] == 0.0
    assert set(result["metrics"]) == {"verdict_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("field, wrong", [("cases", 11), ("digest", "0" * 64), ("exit", 1)])
def test_wrong_reference_counts_in_failed_share(monkeypatch, capsys, field, wrong):
    ref = reference()
    key = run.job_key(DETERMINANTAL)
    ref[key] = dict(ref[key], **{field: wrong})
    detail, result = run_main(monkeypatch, capsys, ref)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == run.MIN_PASSES
    assert detail["failed_share"] == 1.0
    assert detail["failures"][0]["job"] == "verify determinantal"


def test_case_digest_ignores_order_inside_lists_only():
    base = [{"lambda": "2", "observed_support": ["3", "2,1"], "pass": True}]
    swapped = [{"lambda": "2", "observed_support": ["2,1", "3"], "pass": True}]
    changed = [{"lambda": "2", "observed_support": ["3"], "pass": True}]
    assert run.case_digest(base) == run.case_digest(swapped)
    assert run.case_digest(base) != run.case_digest(changed)
    assert run.case_digest(base + changed) != run.case_digest(changed + base)


def test_job_key_drops_only_the_seed():
    assert run.job_key(("verify", "phi-psi", "--seed", "7")) == "verify phi-psi"
    assert run.job_key(CAUCHY) == " ".join(CAUCHY)


def test_checkout_without_sources_fails_without_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gamma", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert res.returncode != 0
    assert res.stdout == ""


def traced(bench, argv):
    stats, err = bench.spawn(argv, trace=True)
    assert stats is not None, err
    summary = tracer.merge([stats["trace"]])
    metrics = {name: fn(summary) for name, (_, fn) in tracer.LAYER_METRICS.items()}
    return stats, summary, metrics


def test_layer_self_times_account_for_verdict(tmp_path):
    bench = run.Bench("ideals", 0, tmp_path, reference())
    stats, summary, metrics = traced(bench, DETERMINANTAL)
    assert stats["exit"] == 0
    assert abs(stats["verdict_s"] - sum(summary["self_s"].values())) < 0.05 * stats["verdict_s"]
    assert metrics["amodule.self_s"] > 0 and metrics["linalg.insert_calls"] > 0
    assert 0 < metrics["linalg.insert_useful_ratio"] <= 1
    assert metrics["scalars.mul_calls"] > 0
    assert metrics["cli.cache_load_entries"] == 0


def test_cache_entries_load_only_with_a_filled_cache(tmp_path):
    bench = run.Bench("gamma-cached", 0, tmp_path, reference())
    _, _, first = traced(bench, CAUCHY)
    _, _, second = traced(bench, CAUCHY)
    assert first["cli.cache_load_entries"] == 0
    assert second["cli.cache_load_entries"] == bench.cache_state()["entries"] > 0
    assert first["scalars.mul_calls"] == second["scalars.mul_calls"] == 0
    assert first["symfunc.q_poly_s"] > 0 and first["symfunc.cauchy_s"] > 0
