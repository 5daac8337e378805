"""Every job of the benchmark, run in process, matches `bench/reference.json`.

The benchmark checks each job's exit code, case count and case digest
against that file and counts a mismatch as a wrong output. These tests run
the same jobs through `cli.main` at seed 0 and check them with the
benchmark's own `check_report`, so a change that alters a benchmark report
fails here first. They only read `bench/`.
"""

import json
import sys
from pathlib import Path

import pytest

from queerlab.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
try:
    import run
finally:
    sys.path.remove(str(BENCH))

JOBS = [
    (workload, [a.replace(run.SEED, "0") for a in argv])
    for workload, spec in run.WORKLOADS.items()
    for argv in spec["jobs"]
]


@pytest.mark.parametrize("workload,argv", JOBS, ids=["%s: %s" % (w, " ".join(a)) for w, a in JOBS])
def test_bench_job_matches_its_reference(workload, argv, tmp_path, capsys):
    ref = json.loads(run.REFERENCE.read_text())[run.job_key(argv)]
    report = tmp_path / "report.json"
    flags = ["--format", "json", "--out", str(report)]
    if run.WORKLOADS[workload]["cache"]:
        flags += ["--cache-dir", str(tmp_path / "cache")]
    code = main(argv + flags)
    capsys.readouterr()
    assert run.check_report(ref, code, report) is None
