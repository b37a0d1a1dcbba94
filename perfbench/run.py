"""nilcones benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload conj_q --seed 1 --seconds 25 --trace 0

Set-up imports the library from ``src/`` of this checkout, generates the
workload's inputs from ``--seed`` and makes one untimed warm call per
public entry and size.  One untimed, checked pass over the job follows;
the peak RSS is read after it.  The run then repeats the workload's fixed
job, one caller and one call at a time, for ``--seconds`` (at least three
rounds), and checks every answer against the generator's reference.

Every time is reported in baseline seconds.  On a shared host the speed of
identical work swings by up to 2x within seconds, as other tenants come
and go, so a time in plain seconds says mostly how busy the host was.  The
benchmark therefore carries a pinned copy of the library,
``baseline/nilcones_baseline`` (``src/nilcones`` as of commit 38efd28),
and runs every call of the job on it as well, right beside the same call
on the library under test, the two in alternating order.  A slowdown of
the host hits both alike.  A call's latency is the median of its rounds.
Each timing metric is the library's figure over the baseline's figure
from the same run, times the baseline's nominal figure in ``NOMINAL``
(about its value on a quiet host).  For set-up, the run sets up the
library and the baseline from cold several times, in turn, and takes the
median ratio of the two.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds one traced
round and prints the per-layer metrics instead.  The last line of standard
output is the result object; the lines before it are a readable summary
and the run metadata.
"""

from __future__ import annotations

import argparse
import collections
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")
# (package name, the directory it is imported from)
LIVE = ("nilcones", os.path.join(ROOT, "src"))
BASELINE = ("nilcones_baseline", os.path.join(HERE, "baseline"))
WORKLOADS = ("conj_q", "identify_cli", "certify_fp")
# The baseline's figure for each metric, rounded, as measured on the 2-core
# x86-64 VM the bounds were set on while it was quiet.  They fix the unit
# of every reported time; any fixed values would do.
NOMINAL = {
    "conj_q": {"wall_s": 1.3, "call_p50_ms": 4.7, "call_p95_ms": 11.5, "setup_s": 0.27},
    "identify_cli": {"wall_s": 1.9, "call_p50_ms": 4.9, "call_p95_ms": 38.0, "setup_s": 0.47},
    "certify_fp": {"wall_s": 2.15, "call_p50_ms": 0.13, "call_p95_ms": 0.35, "setup_s": 1.15},
}
MIN_ROUNDS = 3
# pairs of cold set-ups, one of the library and one of the baseline: at
# least MIN, and more while the pairs so far took less than BUDGET_S
SETUP_PAIRS_MIN, SETUP_PAIRS_MAX, SETUP_BUDGET_S = 3, 10, 5.0
# imported before any set-up is timed, so neither library pays for them
SHARED_MODULES = ("argparse", "contextlib", "dataclasses", "fractions", "functools", "io",
                  "itertools", "json", "math", "random", "re", "time")


def package_modules(name):
    """The modules of package ``name`` that are loaded, by module name."""
    return {key: module for key, module in sys.modules.items()
            if key == name or key.startswith(name + ".")}


def import_library(which):
    """Import the package ``which`` = (name, directory), and its cli, from
    cold: modules of it loaded before are dropped first."""
    name, where = which
    if not os.path.isfile(os.path.join(where, name, "__init__.py")):
        sys.exit(f"perfbench: no library at {where}/{name}; run from a full checkout")
    if where not in sys.path:
        sys.path.insert(0, where)
    for key in package_modules(name):
        del sys.modules[key]
    lib = importlib.import_module(name)
    importlib.import_module(f"{name}.cli")
    if not os.path.abspath(lib.__file__).startswith(where + os.sep):
        sys.exit(f"perfbench: imported {name} from {lib.__file__}, not {where}")
    return lib


def set_up(which, workload, seed, small):
    """Import, generate and warm; (lib, calls, seconds, workdir)."""
    for module in SHARED_MODULES:
        importlib.import_module(module)
    workdir = os.path.join(WORKDIR, f"{workload}-{seed}-{os.getpid()}-{which[0]}")
    start = time.perf_counter()
    lib = import_library(which)
    calls, warm = workloads.build(workload, seed, workdir, lib, small)
    for call in warm:
        call.bind(lib)()
    return lib, calls, time.perf_counter() - start, workdir


def cold_setup_seconds(which, workload, seed, small):
    """The seconds of one more set-up of ``which`` from cold, which is then
    thrown away: the modules loaded before it are put back."""
    kept = package_modules(which[0])
    try:
        _, _, seconds, workdir = set_up(which, workload, seed, small)
        shutil.rmtree(workdir, ignore_errors=True)
    finally:
        for key in package_modules(which[0]):
            del sys.modules[key]
        sys.modules.update(kept)
    gc.collect()
    return seconds


def setup_ratio(workload, seed, small):
    """The median, over pairs of cold set-ups, of the library's set-up time
    over the baseline's, and the baseline's median set-up seconds.  The
    pairs alternate which goes first."""
    ratios, base = [], []
    start = time.perf_counter()
    for k in range(SETUP_PAIRS_MAX):
        if k >= SETUP_PAIRS_MIN and time.perf_counter() - start > SETUP_BUDGET_S:
            break
        seconds = {}
        for which in ((BASELINE, LIVE) if k % 2 else (LIVE, BASELINE)):
            seconds[which] = cold_setup_seconds(which, workload, seed, small)
        ratios.append(seconds[LIVE] / seconds[BASELINE])
        base.append(seconds[BASELINE])
    return statistics.median(ratios), statistics.median(base)


def check(run, expect):
    """Run one call; (seconds, answer is right).  An exception is a miss."""
    start = time.perf_counter()
    try:
        ok = run() == expect
    except Exception:  # counted in error_rate, not fatal to the run
        traceback.print_exc(file=sys.stderr)
        ok = False
    return time.perf_counter() - start, ok


def timed(run):
    """Run one baseline call; its seconds."""
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def paired_pass(runs, base_runs, expects, flip, wrap=None):
    """Run every call on the library and on the baseline, one right after
    the other; which goes first alternates from call to call.  ``wrap(i,
    fn)`` runs the library's side.  Returns (seconds, ok, baseline
    seconds) per call."""
    out = []
    for i, (run, base, expect) in enumerate(zip(runs, base_runs, expects)):
        live = (lambda: check(run, expect)) if wrap is None else \
            (lambda: wrap(i, lambda: check(run, expect)))
        if (i + flip) % 2:
            base_s = timed(base)
            dt, ok = live()
        else:
            dt, ok = live()
            base_s = timed(base)
        out.append((dt, ok, base_s))
    return out


def measure(runs, base_runs, expects, seconds, min_rounds=MIN_ROUNDS):
    """Repeat the job, paired with the baseline, for ``seconds`` (at least
    ``min_rounds`` times).

    Returns, per call, the median seconds of its rounds on the library and
    on the baseline, the round count, and the attempted and failed counts.
    """
    live = [[] for _ in runs]
    base = [[] for _ in runs]
    rounds = attempted = failed = 0
    start = time.perf_counter()
    while True:
        gc.collect()
        for i, (dt, ok, base_s) in enumerate(paired_pass(runs, base_runs, expects, rounds)):
            live[i].append(dt)
            base[i].append(base_s)
            attempted += 1
            failed += not ok
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            break
    return {"live": [statistics.median(s) for s in live],
            "base": [statistics.median(s) for s in base],
            "rounds": rounds, "attempted": attempted, "failed": failed}


def percentile(values, q):
    """The q-th percentile (q in 1..99), smoothed: the mean of the values
    whose nearest rank lies between the (q - 1)-th and (q + 1)-th
    percentiles, so one call's noise cannot move it alone."""
    ordered = sorted(values)
    lo, hi = (max(1, -(-k * len(ordered) // 100)) for k in (q - 1, q + 1))
    return statistics.fmean(ordered[lo - 1:hi])


def traced_round(lib, calls, runs, base_runs, workload, seed):
    """One traced pass over the job, paired with the baseline; (tracer,
    library seconds over baseline seconds, failed, coverage error)."""
    tracer = spans.Tracer(lib)
    gc.collect()
    tracer.install()
    try:
        results = paired_pass(runs, base_runs, [c.expect for c in calls], 0,
                              wrap=lambda i, fn: tracer.call(i, calls[i].kind, fn))
    finally:
        tracer.uninstall()
    ratio = sum(dt for dt, _, _ in results) / sum(b for _, _, b in results)
    failed = sum(not ok for _, ok, _ in results)
    want = dict(collections.Counter(c.kind for c in calls))
    got = tracer.root_counts()
    coverage_error = None if got == want else f"traced calls {got} != untraced {want}"
    os.makedirs(WORKDIR, exist_ok=True)
    tracer.write(os.path.join(WORKDIR, f"trace-{workload}-{seed}.jsonl"))
    return tracer, ratio, failed, coverage_error


def git_sha():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return "unknown"


def metadata(workload, seed, seconds, trace, result):
    """The run's settings and host.  ``host_job_s`` and ``baseline_job_s``
    are one job's time on this host in plain seconds, on the library and on
    the baseline, and ``baseline_setup_s`` the baseline's set-up; they show
    how busy the host was."""
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "rounds": result["rounds"], "host_job_s": sum(result["live"]),
            "baseline_job_s": sum(result["base"]),
            "baseline_setup_s": result.get("baseline_setup_s"),
            "git_sha": git_sha(), "python": platform.python_version(),
            "platform": platform.platform(), "nproc": os.cpu_count()}


def run(workload, seed, seconds, trace, small=False):
    """Set up, measure and check one workload.  Returns the lines to print
    before the result, and the result object."""
    lib, calls, _, workdir = set_up(LIVE, workload, seed, small)
    base_workdir = None
    try:
        runs = [c.bind(lib) for c in calls]
        expects = [c.expect for c in calls]
        # the checked first pass: the library's peak RSS is read before the
        # baseline is loaded
        first = [check(r, e)[1] for r, e in zip(runs, expects)]
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        base, _, _, base_workdir = set_up(BASELINE, workload, seed, small)
        base_runs = [c.bind(base) for c in calls]
        for r in base_runs:
            r()
        result = measure(runs, base_runs, expects, seconds)
        live, base_s = result["live"], result["base"]
        attempted = result["attempted"] + len(calls)
        failed = result["failed"] + first.count(False)
        coverage_error = None
        if trace:
            tracer, traced_ratio, traced_failed, coverage_error = traced_round(
                lib, calls, runs, base_runs, workload, seed)
            attempted += len(calls)
            failed += traced_failed
            stats, counters = tracer.per_layer()
            metrics = {f"{key}.calls": (count, "count") for key, count in counters.items()}
            for stem in spans.span_names():
                count, self_s = stats[stem]
                metrics[f"{stem}.calls"] = (count, "count")
                metrics[f"{stem}.self_s"] = (self_s, "s")
            metrics["trace.overhead_ratio"] = (traced_ratio / (sum(live) / sum(base_s)),
                                               "ratio")
        else:
            setup, result["baseline_setup_s"] = setup_ratio(workload, seed, small)
            ratios = {"wall_s": (sum(live) / sum(base_s), "s"),
                      "call_p50_ms": (percentile(live, 50) / percentile(base_s, 50), "ms"),
                      "call_p95_ms": (percentile(live, 95) / percentile(base_s, 95), "ms"),
                      "setup_s": (setup, "s")}
            metrics = {name: (NOMINAL[workload][name] * ratio, unit)
                       for name, (ratio, unit) in ratios.items()}
            metrics["peak_rss_mib"] = (peak_rss_mib, "MiB")
    finally:
        for path in (workdir, base_workdir):
            if path:
                shutil.rmtree(path, ignore_errors=True)
    shown = ["trace.overhead_ratio"] if trace else list(metrics)
    lines = [f"{workload} seed={seed}: {len(calls)} calls x {result['rounds']} rounds, "
             + ", ".join(f"{k} {metrics[k][0]:.6g} {metrics[k][1]}" for k in shown)
             + f", error_rate {failed / attempted:.6g} ({failed}/{attempted})"]
    if coverage_error:
        lines.append(f"coverage check failed: {coverage_error}")
    lines.append(json.dumps({"meta": metadata(workload, seed, seconds, trace, result)}))
    return lines, {
        "correct": failed == 0 and coverage_error is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="nilcones benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the smallest job of each workload, for the self-test
    parser.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    lines, result = run(args.workload, args.seed, args.seconds, args.trace, args.small)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
