"""vebflow benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload roundtrip --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ./src.  The
workloads are described in bench/NOTES.md and bench/workloads.py.

--trace 0 reports the end-to-end metrics: set-up time, items per
second, median and 95th-percentile item cost, the share of items that
passed their checks, and peak RSS.  Times are scaled to a nominal host
speed by a reference loop timed between items (bench/NOTES.md, "Host
speed"); the report prints the measured times as well.

--trace 1 runs the same items with a span around every public function
of each layer and reports per-layer calls and self time, set-size
counters, the tracing overhead and a size sweep.  The last line of standard output is one JSON object; the lines
before it are a readable report.  The exit code is 0 whenever a result
was printed, including when some item failed its check.
"""

import argparse
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOAD_NAMES = ("roundtrip", "wide-sets", "maps", "documents")

# Each run keeps timing past --seconds until it has this many items, so
# that at least ten samples lie beyond the 95th percentile.
MIN_ITEMS = 200
# A run stops after this long even if it has fewer items.
HARD_STOP_S = 120.0
# An item that runs longer fails; it counts with this cost.
ITEM_BUDGET_S = 10.0
# Items generated during set-up (and hashed); later items are generated
# between timed items.
POOL = 60
# Warm-up items per set-up: one full cycle of the wide-sets exponents.
WARMUP = 5
# Set-up runs this many times; setup_s is the median.
SETUPS = 5
# The traced phase also ends once it holds this many spans (48 bytes each).
MAX_SPANS = 1_000_000
# Host speed: see "Host speed" in bench/NOTES.md.  Every REF_PERIOD_S of
# items is followed by one timing of reference_loop; times are reported
# at the speed where that loop takes REF_NOMINAL_S.
REF_PERIOD_S = 0.25
REF_NOMINAL_S = 0.0008


class Overrun(Exception):
    """The interval timer fired while a budgeted call was running."""


class Budget:
    """Runs one call at a time under a single ITIMER_REAL interval timer."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise Overrun()

    def call(self, fn, seconds):
        """Returns (seconds taken, fn's result, None or why it failed)."""
        result = error = None
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)
        start = time.perf_counter()
        try:
            try:
                result = fn()
            finally:
                self.armed = False
                took = time.perf_counter() - start
        except Overrun:
            error = "over budget"
        except Exception as e:  # the item failed; the run goes on
            error = "raised %s: %s" % (type(e).__name__, str(e)[:200])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return took, result, error


def log(text):
    print(text, flush=True)


def reference_loop():
    """Fixed pure-Python work that uses no vebflow code."""
    s = 0
    for i in range(10000):
        s += i * i % 7
    return s


def time_reference():
    """Median of three timings of reference_loop, in seconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Result(NamedTuple):
    cost: float  # scaled wall time if passed, else the item budget
    wall: float  # measured wall time
    scale: float  # REF_NOMINAL_S / the reference time around the item
    why: str | None  # None if every check passed


def stream(workload, rng, pool):
    """Items 0, 1, ...: the set-up pool, then freshly made ones."""
    i = 0
    while True:
        yield i, pool[i] if i < len(pool) else workload.make(rng, i)[0]
        i += 1


def measure(workload, items, budget, seconds, min_items, tracer=None, limit=None):
    """Run items until `seconds` have passed and `min_items` ran (or
    `limit` items ran).  Returns a Result per item."""
    raw = []  # (wall, why, index of the reference timing that follows)
    refs = [time_reference()]
    began = last_ref = time.perf_counter()
    for i, item in items:
        if tracer is not None:
            tracer.begin(i)
        wall, why, error = budget.call(lambda: workload.run(item), ITEM_BUDGET_S)
        if tracer is not None:
            tracer.end()
        why = error or why
        raw.append((wall, why, len(refs)))
        if why and sum(1 for r in raw if r[1]) <= 3:
            log("item %d failed: %s" % (i, why))
        now = time.perf_counter()
        if now - last_ref >= REF_PERIOD_S:
            refs.append(time_reference())
            last_ref = time.perf_counter()
        if limit is not None:
            if len(raw) >= limit:
                break
            continue
        elapsed = now - began
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and len(raw) >= min_items):
            break
        if tracer is not None and tracer.spans >= MAX_SPANS:
            break
    refs.append(time_reference())
    out = []
    for wall, why, k in raw:
        # The five reference timings nearest the item, about 1.25 s.
        scale = REF_NOMINAL_S / statistics.median(refs[max(0, k - 2) : k + 3])
        out.append(Result(ITEM_BUDGET_S if why else wall * scale, wall, scale, why))
    return out


def set_up(name, seed, workdir, budget):
    """Import vebflow afresh, make the pool, hash it, and warm up.
    Returns (workloads module, workload, rng, pool, digest, warm-up
    failures)."""
    for module in [m for m in sys.modules if m.split(".")[0] in ("vebflow", "workloads")]:
        del sys.modules[module]
    workloads = importlib.import_module("workloads")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random("%s:%d" % (name, seed))
    workload = workloads.WORKLOADS[name](rng, workdir)
    digest = hashlib.sha256()
    pool = []
    for i in range(POOL):
        item, blob = workload.make(rng, i)
        digest.update(blob)
        pool.append(item)
    warm_rng = random.Random("%s:%d:warm" % (name, seed))
    warm = [workload.make(warm_rng, 10**6 + j)[0] for j in range(WARMUP)]
    failures = measure(workload, enumerate(warm), budget, 0, 0, limit=WARMUP)
    return workloads, workload, rng, pool, digest.hexdigest(), [r.why for r in failures if r.why]


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "vebflow", "__init__.py")):
        print("error: no vebflow sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import vebflow

    if os.path.dirname(os.path.abspath(vebflow.__file__)) != os.path.join(SRC, "vebflow"):
        print("error: imported vebflow from %s, not from %s" % (vebflow.__file__, SRC), file=sys.stderr)
        return 2

    name = args.workload
    workdir = os.path.join(WORK, name)
    budget = Budget()
    setup_times, setup_walls, digests, warm_failures = [], [], set(), []
    for _ in range(SETUPS):
        before = time_reference()
        t0 = time.perf_counter()
        workloads, workload, rng, pool, digest, warm = set_up(name, args.seed, workdir, budget)
        wall = time.perf_counter() - t0
        scale = REF_NOMINAL_S / statistics.median([before, time_reference()])
        setup_walls.append(wall)
        setup_times.append(wall * scale)
        digests.add(digest)
        warm_failures += warm
    setup_s = statistics.median(setup_times)
    log("workload %s, seed %d, %s" % (name, args.seed, "traced" if args.trace else "untraced"))
    log("inputs sha256 %s (the %d set-up items)" % (" ".join(sorted(digests)), POOL))
    for why in warm_failures[:3]:
        log("warm-up item failed: %s" % why)

    if args.trace:
        return traced_run(args, workloads, workload, rng, pool, budget, workdir, warm_failures or len(digests) != 1)

    results = measure(workload, stream(workload, rng, pool), budget, args.seconds, MIN_ITEMS)
    costs = [r.cost for r in results]
    walls = [r.wall for r in results]
    failed = sum(1 for r in results if r.why)
    passed = len(results) - failed
    n = len(costs)
    p50, p95 = quantile(costs, 50) * 1e3, quantile(costs, 95) * 1e3
    beyond = sum(1 for c in costs if c * 1e3 > p95)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (passed / sum(costs), "1/s"),
        "item_ms_p50": (p50, "ms"),
        "item_ms_p95": (p95, "ms"),
        "pass_frac": (passed / n, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    log("time scale   %10.3f     nominal / measured reference loop time (median over items)"
        % statistics.median(r.scale for r in results))
    log("times below are at nominal host speed; measured wall times in brackets")
    log("setup_s      %10.4f s    median of %d set-ups (measured %s s)"
        % (setup_s, SETUPS, " ".join("%.3f" % t for t in setup_walls)))
    log("items_per_s  %10.2f 1/s  %d passed in %.2f s of item cost (measured %.2f s)"
        % (metrics["items_per_s"][0], passed, sum(costs), sum(walls)))
    log("item_ms_p50  %10.3f ms   n=%d (measured %.3f ms)" % (p50, n, quantile(walls, 50) * 1e3))
    log("item_ms_p95  %10.3f ms   n=%d, %d beyond (measured %.3f ms)" % (p95, n, beyond, quantile(walls, 95) * 1e3))
    log("fail_frac    %10.4f      %d/%d failed" % (failed / n, failed, n))
    log("pass_frac    %10.4f" % (passed / n))
    log("peak_rss_mb  %10.1f MB" % rss_mb)
    correct = failed == 0 and not warm_failures and len(digests) == 1
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_run(args, workloads, workload, rng, pool, budget, workdir, setup_failed):
    import sweep
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = measure(workload, stream(workload, rng, pool), budget, args.seconds, 1, tracer=tracer)
    finally:
        tracer.uninstall()
    n = len(traced)
    # The same items again, untraced, regenerated from the seed.
    name = args.workload
    replay_rng = random.Random("%s:%d" % (name, args.seed))
    replay_workload = workloads.WORKLOADS[name](replay_rng, workdir)
    replay = measure(replay_workload, stream(replay_workload, replay_rng, []), budget, 0, 0, limit=n)
    traced_wall = sum(r.wall for r in traced)
    # Both phases at nominal host speed, so host drift between them cancels.
    overhead = sum(r.wall * r.scale for r in traced) / sum(r.wall * r.scale for r in replay)
    failed = sum(1 for r in traced if r.why)
    replay_failed = sum(1 for r in replay if r.why)
    log("traced %d items in %.2f s of item time, %d spans; overhead %.2fx over the untraced replay"
        % (n, traced_wall, tracer.spans, overhead))
    log("fail_frac    %10.4f      %d/%d failed (untraced replay: %d failed)" % (failed / n, failed, n, replay_failed))

    metrics = tracer.metrics(traced_wall, overhead)
    log("layer        self_s   share")
    for layer in tracing.TRACED:
        log("%-12s %7.3f  %5.1f%%" % (layer, metrics[layer + ".self_s"], 100 * metrics[layer + ".self_share"]))
    metrics.update(sweep.run(budget, workdir, log))
    stem = os.path.join(WORK, "trace-%s" % name)
    tracer.dump(stem)
    log("spans written to %s.{json,ids,times}" % os.path.relpath(stem, ROOT))

    units = {m: u for m, u, _ in tracing.metric_names() + sweep.metric_names()}
    print(json.dumps({
        "correct": failed == 0 and replay_failed == 0 and not setup_failed,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
