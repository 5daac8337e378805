"""queerlab benchmark: time to verdict, set-up time and memory of CLI jobs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A job is one `queerlab.cli.main(argv)` call in a fresh Python process, since
every CLI user starts cold and the in-process memo tables would otherwise
turn repetitions into cache hits. Jobs run one at a time, each with
`--jobs 1 --format json --out FILE`. A pass runs every job of the workload
once; passes repeat until the next one would end after S seconds, and at
least MIN_PASSES run. Each job's report is checked against
`reference.json`.

With --trace 0 the metrics are the medians over passes of the per-pass sums
of `verdict_s` and `setup_s`, and the largest peak RSS of any job. Both times
are rescaled to a reference CPU speed measured inside each job (`job.py`);
the wall times are in the detail line. With --trace 1 untraced and traced
passes alternate; the per-layer metrics come from the traced pass with the
median `verdict_s`, and `trace.overhead_s` is the median traced minus the
median untraced `verdict_s`.

The last line of standard output is the result object; the line before it
holds the samples, the machine stamp and any failures. README.md says why
each workload exists and which layer each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"

MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
# No pass starts after RUN_LIMIT_S, and a job still running at DEADLINE_S is
# killed and counted as failed, so a run ends inside three minutes.
RUN_LIMIT_S = 100.0
DEADLINE_S = 160.0

SEED = "{seed}"  # replaced by the workload seed
GAMMA_JOBS = (
    ("pieri", "--bound", "7"),
    ("verify", "cauchy", "--degree", "5", "--vars", "5"),
)
WORKLOADS = {
    "gamma": {"jobs": GAMMA_JOBS, "cache": False},
    "gamma-cached": {"jobs": GAMMA_JOBS, "cache": True},
    "hecke": {"jobs": (("verify", "hecke-ideals", "--nmax", "4", "--seed", SEED),), "cache": False},
    "ideals": {
        "jobs": (
            ("verify", "main-theorem"),
            ("verify", "determinantal"),
            ("verify", "prop-dim"),
            ("verify", "phi-psi", "--seed", SEED),
        ),
        "cache": False,
    },
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program, broken reference)."""


def job_key(argv) -> str:
    """The reference key of a job: its argv without the seed."""
    out = list(argv)
    if "--seed" in out:
        i = out.index("--seed")
        del out[i : i + 2]
    return " ".join(out)


def case_digest(cases) -> str:
    """Digest of a report's cases, blind to the order inside list fields.

    The order of a support list in `hecke-ideals` depends on which central
    idempotent the seeded splitting finds first; the set does not.
    """
    canon = []
    for case in cases:
        canon.append(
            {
                k: sorted(v, key=json.dumps) if isinstance(v, list) else v
                for k, v in case.items()
            }
        )
    return hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()


def check_report(ref: dict, code: int, report_path: Path) -> str | None:
    """None if the job matches its reference, else why it does not."""
    if code != ref["exit"]:
        return "exit %s, expected %s" % (code, ref["exit"])
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        return "unreadable report: %s" % exc
    if report.get("status") is not True:
        return "status %r" % report.get("status")
    cases = report.get("cases", [])
    if len(cases) != ref["cases"]:
        return "%d cases, expected %d" % (len(cases), ref["cases"])
    if case_digest(cases) != ref["digest"]:
        return "case digest differs from the reference"
    return None


class Bench:
    """Runs and checks the jobs of one workload inside a temporary directory."""

    def __init__(self, workload: str, seed: int, workdir: Path, reference: dict | None):
        spec = WORKLOADS[workload]
        self.jobs = [tuple(a.replace(SEED, str(seed)) for a in argv) for argv in spec["jobs"]]
        self.report = workdir / "report.json"
        self.stats = workdir / "stats.json"
        self.workdir = workdir
        self.cache_dir = workdir / "cache" if spec["cache"] else None
        self.reference = reference
        self.attempted = 0
        self.failures: list = []
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        missing = [job_key(a) for a in self.jobs if reference is not None and job_key(a) not in reference]
        if missing:
            raise SetupError("no reference for %s" % ", ".join(missing))

    def spawn(self, argv, trace: bool) -> tuple[dict | None, str]:
        """Run one job in a fresh process; return its stats and stderr.

        The stats are None when the process wrote none. The job's report is
        left in `self.report`.
        """
        for p in (self.report, self.stats):
            if p.exists():
                p.unlink()
        cli_argv = list(argv) + ["--jobs", "1", "--format", "json", "--out", str(self.report)]
        if self.cache_dir is not None:
            cli_argv += ["--cache-dir", str(self.cache_dir)]
        cmd = [sys.executable, str(BENCH / "job.py"), str(self.stats), "1" if trace else "0", "--"] + cli_argv
        env = dict(self.env, BENCH_SPAWNED_AT=repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, cwd=self.workdir)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            err = b"killed at the run deadline"
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.communicate()
        try:
            stats = json.loads(self.stats.read_text())
        except (OSError, ValueError):
            return None, err.decode(errors="replace")
        if not Path(stats["queerlab_file"]).resolve().is_relative_to(SRC):
            raise SetupError("job imported queerlab from %s, not from %s" % (stats["queerlab_file"], SRC))
        return stats, err.decode(errors="replace")

    def run_job(self, argv, trace: bool) -> dict:
        """Run one job, check its report and return its stats."""
        stats, err = self.spawn(argv, trace)
        self.attempted += 1
        if stats is None:
            problem = "no stats; stderr: %s" % err[-300:]
        else:
            problem = check_report(self.reference[job_key(argv)], stats["exit"], self.report)
        if problem is not None:
            self.failures.append({"job": " ".join(argv), "problem": problem})
        return stats or {}

    def run_pass(self, trace: bool = False) -> list:
        return [self.run_job(argv, trace) for argv in self.jobs]

    def cache_state(self) -> dict:
        """Header and entry count of the Q-polynomial cache file."""
        lines = (self.cache_dir / "qpoly.cache").read_text().splitlines()
        return {"header": lines[0] if lines else "", "entries": sum(1 for ln in lines[1:] if ln.strip())}


def pass_sum(stats: list, key: str) -> float:
    return sum(s.get(key, 0.0) for s in stats)


def repeat(run_once, seconds: float, min_runs: int) -> list:
    """Call run_once until the next call would end after `seconds`."""
    start = time.monotonic()
    results = []
    while True:
        t0 = time.monotonic()
        results.append(run_once())
        now = time.monotonic()
        elapsed = now - start
        if len(results) >= min_runs and (elapsed + (now - t0) > seconds or elapsed > RUN_LIMIT_S):
            return results


def stamp() -> dict:
    """Python version, cores, CPU model and source revision of this run."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        rev = res.stdout.strip() or rev
    src = hashlib.sha256()
    for path in sorted((SRC / "queerlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_rev": rev,
        "src_sha256": src.hexdigest(),
    }


def median_index(values: list) -> int:
    """Index of the median value (the lower one of an even count)."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(values) - 1) // 2]


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run the passes of one benchmark run; return (metrics, detail)."""
    detail: dict = {}
    if bench.cache_dir is not None:
        bench.run_pass()  # untimed: fills the cache the timed passes read
        detail["cache_after_fill"] = bench.cache_state()
    if not trace:
        passes = repeat(bench.run_pass, seconds, MIN_PASSES)
        verdict = [pass_sum(p, "verdict_s") for p in passes]
        setup = [pass_sum(p, "setup_s") for p in passes]
        rss_mib = max(s.get("maxrss_kib", 0) for p in passes for s in p) / 1024.0
        metrics = {
            "verdict_s": {"value": statistics.median(verdict), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": rss_mib, "unit": "MiB"},
        }
        detail["samples"] = {
            "verdict_s": verdict,
            "setup_s": setup,
            "wall_verdict_s": [pass_sum(p, "wall_verdict_s") for p in passes],
            "wall_setup_s": [pass_sum(p, "wall_setup_s") for p in passes],
            "cpu_s": [pass_sum(p, "cpu_s") for p in passes],
            "speed_scale": [[s.get("speed_scale") for s in p] for p in passes],
        }
    else:
        pairs = repeat(lambda: (bench.run_pass(), bench.run_pass(trace=True)), seconds, MIN_TRACED_PAIRS)
        plain = [pass_sum(p, "verdict_s") for p, _ in pairs]
        traced = [pass_sum(t, "verdict_s") for _, t in pairs]
        chosen = pairs[median_index(traced)][1]
        summary = tracer.merge(s["trace"] for s in chosen if "trace" in s)
        metrics = {name: {"value": fn(summary), "unit": unit} for name, (unit, fn) in tracer.LAYER_METRICS.items()}
        verdict = pass_sum(chosen, "verdict_s")
        metrics["trace.verdict_s"] = {"value": verdict, "unit": "s"}
        metrics["trace.remainder_s"] = {"value": verdict - sum(summary["self_s"].values()), "unit": "s"}
        metrics["trace.overhead_s"] = {"value": statistics.median(traced) - statistics.median(plain), "unit": "s"}
        detail["samples"] = {"verdict_s": plain, "traced_verdict_s": traced}
        detail["spans"] = summary["spans"]
    if bench.cache_dir is not None:
        detail["cache_after_run"] = bench.cache_state()
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "queerlab" / "cli.py").is_file():
        print("error: no queerlab sources under %s" % SRC, file=sys.stderr)
        return 2
    rundir = ROOT / ".bench_run"
    rundir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=rundir))
    try:
        reference = json.loads(REFERENCE.read_text())
        bench = Bench(args.workload, args.seed, workdir, reference)
        # compile the sources once, so no timed job pays for the bytecode
        subprocess.run([sys.executable, "-c", "import queerlab.cli"], env=bench.env, check=True)
        metrics, detail = measure(bench, args.seconds, bool(args.trace))
    except (SetupError, OSError, ValueError, subprocess.CalledProcessError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(bench.failures)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        jobs=[" ".join(a) for a in bench.jobs],
        failed_share=failed / bench.attempted,
        failures=bench.failures[:10],
        stamp=stamp(),
    )
    print(json.dumps(detail))
    result = {"correct": failed == 0, "attempted": bench.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
