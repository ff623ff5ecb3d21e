"""Time-to-verdict benchmark for rclkit.

    python3 perfbench/run.py --workload tri-qq|tri-gfp|additive
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each job does what the `rclkit` CLI does
after import: `workspace.parse` -> `cli.run_command` -> `Certificate.render`,
in this one process, on `.rcl` text generated from the seed (see gen.py and
key.py).  Every verdict is checked against the answer key in key.py, and the
certificate of every job is compared byte for byte across its runs.

--trace 0 runs whole passes over the job list until S seconds have passed
(at least two, so every certificate is produced twice) and reports the
end-to-end metrics.  --trace 1 runs one untraced pass, then one pass with
tracing.py's wrappers installed, and reports the per-layer metrics; it writes
the spans to perfbench/out/.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_PASSES = 2
SETUP_REPEATS = 15

# Fresh-interpreter set-up: import the CLI, then parse and resolve every
# input; the texts arrive on stdin before the clock starts.
SETUP_CHILD = """
import json, sys, time
texts = json.loads(sys.stdin.read())
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import rclkit.cli
from rclkit.workspace import parse
for text in texts:
    parse(text)
print(repr(time.perf_counter() - t0))
"""


def _load_package():
    """Put the checkout's own rclkit on the path, or exit 2 if it has none."""
    if not os.path.isfile(os.path.join(SRC, "rclkit", "cli.py")):
        print("perfbench: no rclkit sources under %s" % SRC, file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


def setup_seconds(texts):
    """Median of SETUP_REPEATS fresh-interpreter set-ups, after one unmeasured
    run that lets the interpreter write its bytecode cache."""
    payload = json.dumps(texts)
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CHILD, SRC],
                              input=payload, capture_output=True, text=True,
                              cwd=ROOT, timeout=120, check=True)
        if i:
            times.append(float(proc.stdout.strip()))
    return statistics.median(times)


class Checker:
    """Compares every job run against the answer key and against the
    certificate bytes of the job's earlier runs."""

    def __init__(self, key):
        self.key = key
        self.certs = {}
        self.attempted = 0
        self.failures = []

    def check(self, job, outcome, body):
        self.attempted += 1
        want = self.key.expected(job)[0]
        problem = None
        if outcome != want:
            problem = "outcome %s, answer key says %s" % (outcome, want)
        elif self.certs.setdefault(job, body) != body:
            problem = "certificate bytes differ between runs"
        if problem:
            self.failures.append("%s: %s" % (self.key.job_id(job), problem))


def run_job(job, text):
    """(seconds, outcome, certificate text) of one CLI job.  The outcome is
    the verdict, or how the CLI would have ended without one."""
    from rclkit import cli, workspace
    from rclkit.errors import InconsistentDataError, InputError

    t0 = time.perf_counter()
    body = None
    try:
        ws = workspace.parse(text)
        cert = cli.run_command(job.command, ws, dict(job.options))
        body = cert.render()
        outcome = "pass" if cert.passed else "fail"
    except InputError as exc:
        outcome = "exit 2 (%s)" % "; ".join(exc.diagnostics)
    except InconsistentDataError as exc:
        outcome = "exit 3 (%s)" % exc
    except Exception as exc:  # a crash is a failed job, not a failed run
        outcome = "raised %s: %s" % (type(exc).__name__, exc)
    return time.perf_counter() - t0, outcome, body


def run_pass(jobs, texts, checker, tracer=None):
    """Run every job once; returns (pass seconds, per-job seconds)."""
    times = []
    t0 = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.begin_job(checker.key.job_id(job))
        dt, outcome, body = run_job(job, texts[job.input])
        checker.check(job, outcome, body)
        times.append((job, dt))
    return time.perf_counter() - t0, times


def print_rows(key, by_job):
    """One row per distinct job: runs, median seconds, expected verdict."""
    print("%-72s %4s %10s  %s" % ("job", "runs", "median_s", "key (source)"))
    for job in sorted(by_job, key=key.job_id):
        verdict, source = key.expected(job)
        print("%-72s %4d %10.4f  %s (%s)" % (key.job_id(job), len(by_job[job]),
                                             statistics.median(by_job[job]),
                                             verdict, source))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _load_package()
    import gen
    import key

    if args.workload not in key.WORKLOADS:
        ap.error("unknown workload %r; choose from %s"
                 % (args.workload, ", ".join(key.WORKLOADS)))
    p, jobs = key.draw(args.workload, args.seed)
    texts = {name: gen.workspace_text(name, p)
             for name in sorted({j.input for j in jobs})}
    for name, text in texts.items():
        gen.check_round_trip(name, text)
    print("# workload %s, seed %d, field %s, %d jobs per pass, python %s, nproc %d"
          % (args.workload, args.seed, "GF(%d)" % p if p else "QQ", len(jobs),
             sys.version.split()[0], os.cpu_count() or 0))

    checker = Checker(key)
    if args.trace:
        metrics = traced_run(args, jobs, texts, checker)
    else:
        metrics = untraced_run(args, jobs, texts, checker)

    for msg in checker.failures:
        print("FAILED %s" % msg, file=sys.stderr)
    failed = len(checker.failures)
    print(json.dumps({"correct": failed == 0, "attempted": checker.attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


def untraced_run(args, jobs, texts, checker):
    setup_s = setup_seconds(list(texts.values()))
    walls, by_job = [], {}
    deadline = time.perf_counter() + args.seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        wall, times = run_pass(jobs, texts, checker)
        walls.append(wall)
        for job, dt in times:
            by_job.setdefault(job, []).append(dt)
    print_rows(checker.key, by_job)
    # Each job's time to verdict is the median of its runs, which filters
    # bursts of host contention that single runs of short jobs pick up; the
    # quantiles are then taken over the job list.
    per_job = [statistics.median(by_job[job]) for job in jobs]
    beyond_p90 = len(per_job) - int(0.9 * len(per_job))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed_share = len(checker.failures) / checker.attempted
    print("# passes %d, jobs %d (%d beyond p90%s)"
          % (len(walls), len(per_job), beyond_p90,
             "" if beyond_p90 >= 10 else "; p90 is informational below 10"))
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "verdict_s.p50": (statistics.median(per_job), "s"),
        "verdict_s.p90": (statistics.quantiles(per_job, n=10, method="inclusive")[8], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print("%-16s %.6f %s" % (name, value, unit))
    print("%-16s %.6f %s" % ("failed_share", failed_share, "ratio"))
    return metrics


def traced_run(args, jobs, texts, checker):
    import tracing

    untraced_wall, _ = run_pass(jobs, texts, checker)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_wall, _ = run_pass(jobs, texts, checker, tracer)
    finally:
        tracer.uninstall()
    values = tracer.metrics(traced_wall - untraced_wall)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, "spans-%s-seed%d.csv.gz"
                                    % (args.workload, args.seed)))
    units = dict(tracing.PER_LAYER)
    for name, value in values.items():
        print("%-52s %s %s" % (name, value, units[name]))
    return {name: (value, units[name]) for name, value in values.items()}


if __name__ == "__main__":
    raise SystemExit(main())
