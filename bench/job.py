"""Run one queerlab CLI job in this fresh process and write its measurements.

    python3 bench/job.py STATS_JSON TRACE -- CLI_ARGV...

The parent spawns this script with `src/` on PYTHONPATH and passes its own
CLOCK_MONOTONIC reading of the spawn time in BENCH_SPAWNED_AT. The stats file
gets the set-up time (spawn until `queerlab.cli` is imported), the wall and
CPU time of `cli.main(argv)`, its exit code, the peak RSS of this process,
the CPU speed the job ran at and, with TRACE = 1, the per-layer summary of
`tracer.Tracer`.

The CPU speed of a shared host can change by half within seconds, with the
load of its other tenants. A probe thread therefore times a fixed loop every
PROBE_INTERVAL_S on the job's own CPU (the process is pinned to one), and
the times are also reported rescaled to the probe's reference speed:
`time * PROBE_REFERENCE_S / mean probe time`.
"""

import json
import os
import resource
import statistics
import sys
import threading
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.05
# About one probe on an unloaded Intel Xeon vCPU with Python 3.11.7. It only
# sets the scale of the rescaled times: they read as seconds on a CPU at
# that speed.
PROBE_REFERENCE_S = 4.5e-4


def probe_once() -> float:
    """Time a fixed mix of the interpreter work queerlab does: int
    arithmetic, dict updates on tuple keys and `Fraction` arithmetic. This
    mix tracked the host's speed changes better than any one of its parts."""
    t0 = time.perf_counter()
    s = 0
    for i in range(1500):
        s += i * i % 7
    d = {}
    for i in range(400):
        k = ((i * 7919) & 1023, i & 7)
        d[k] = d.get(k, 0) + i
    f = Fraction(0)
    for i in range(1, 60):
        f += Fraction(i % 13 + 1, i % 7 + 1) * Fraction(3, i)
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the speed of this process's CPU until `stop()`."""

    def __init__(self):
        self.samples = [probe_once()]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while not self._stop.wait(PROBE_INTERVAL_S):
            self.samples.append(probe_once())

    def stop(self) -> float:
        """Stop sampling; return reference speed / mean speed during the job."""
        self._stop.set()
        self._thread.join()
        self.samples.append(probe_once())
        return PROBE_REFERENCE_S / statistics.fmean(self.samples)


# Both threads on one CPU, so the probe measures the CPU the job runs on.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
PROBE = SpeedProbe()

import queerlab.cli as cli  # noqa: E402  (timed: the end of set-up)

# CLOCK_MONOTONIC is one clock for every process on the machine, so the
# parent's spawn reading and this one can be subtracted.
IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv):
    stats_path, trace = argv[0], argv[1] == "1"
    cli_argv = argv[argv.index("--") + 1 :]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if tracer is None:
        code = cli.main(cli_argv)
    else:
        code = tracer.run(cli.main, cli_argv)
    wall_verdict_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    scale = PROBE.stop()
    wall_setup_s = IMPORTED_AT - float(os.environ["BENCH_SPAWNED_AT"])
    stats = {
        "verdict_s": wall_verdict_s * scale,
        "setup_s": wall_setup_s * scale,
        "wall_verdict_s": wall_verdict_s,
        "wall_setup_s": wall_setup_s,
        "cpu_s": cpu_s,
        "speed_scale": scale,
        "probe_samples": len(PROBE.samples),
        "exit": code,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "queerlab_file": cli.__file__,
    }
    if tracer is not None:
        stats["trace"] = tracer.summary(scale)
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
