"""Record bench/reference.json: exit code, case count and case digest per job.

    python3 bench/record_reference.py

Each job runs once at every seed in SEEDS. A job whose exit code, case count
or digest differs between seeds is an error, because the reference must hold
for any workload seed. Record again only when a change is meant to alter a
report, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

SEEDS = (0, 1)


def main() -> int:
    reference = {}
    for seed in SEEDS:
        for workload in run.WORKLOADS:
            with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
                bench = run.Bench(workload, seed, Path(tmp), reference=None)
                for argv in bench.jobs:
                    stats, err = bench.spawn(argv, trace=False)
                    if stats is None:
                        print("error: %s wrote no stats: %s" % (" ".join(argv), err), file=sys.stderr)
                        return 1
                    cases = json.loads(bench.report.read_text())["cases"]
                    entry = {"exit": stats["exit"], "cases": len(cases), "digest": run.case_digest(cases)}
                    key = run.job_key(argv)
                    if reference.setdefault(key, entry) != entry:
                        print("error: %s differs between seeds" % key, file=sys.stderr)
                        return 1
    run.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(run.REFERENCE.read_text(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
