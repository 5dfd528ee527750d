"""One benchmark process; ``run.py`` starts a fresh one for each job.

    python3 perfbench/worker.py setup --workload W --seed N
    python3 perfbench/worker.py run   --workload W --seed N --seconds S
    python3 perfbench/worker.py trace --workload W --seed N --seconds S [--spans PATH]

``setup`` imports the package and its CLI, generates the first pass and
reports when it finished; its parent times it from the spawn.  ``run``
executes whole passes until S seconds have elapsed and prints the item
latencies, each pass bracketed by ``speed.loop_times()``.  ``trace`` runs
pass 0 untraced and traced, in pairs, and prints the per-layer metrics.
Each job prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import padic_orbits  # noqa: E402
import padic_orbits.cli  # noqa: E402,F401

if Path(padic_orbits.__file__).resolve().parent.parent != SRC:
    sys.exit(f"padic_orbits was imported from {padic_orbits.__file__}, not {SRC}")

import speed  # noqa: E402
import workloads  # noqa: E402


def _run_pass(items, tracer=None):
    """Run one pass; return (latencies in seconds, ok flags, digests, messages)."""
    state: dict = {}
    latencies, oks, digests, messages = [], [], [], []
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.begin_item(i)
        t0 = time.perf_counter()
        ok, digest, message = workloads.run_item(state, item)
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_item()
        oks.append(ok)
        digests.append(digest)
        if message:
            messages.append(message)
    return latencies, oks, digests, messages


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _versions() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return {"python": platform.python_version(), "numpy": numpy}


def cmd_run(args) -> dict:
    """Whole passes until args.seconds; each pass is bracketed by calibrations."""
    passes, messages, elapsed = [], [], 0.0
    calibration = speed.loop_times()
    while elapsed < args.seconds:
        items = workloads.make_pass(args.workload, args.seed, len(passes))
        t0 = time.perf_counter()
        latencies, oks, _, msg = _run_pass(items)
        wall = time.perf_counter() - t0
        before, calibration = calibration, speed.loop_times()
        passes.append({"wall_s": wall, "scale": speed.scale(before + calibration),
                       "latencies": latencies, "ok": oks})
        messages += msg
        elapsed += wall
    return {"passes": passes, "peak_rss_mb": _peak_rss_mb(), "messages": messages[:20],
            "versions": _versions()}


def cmd_trace(args) -> dict:
    """Pairs of untraced and traced runs of pass 0 for S/2 seconds (at least one).

    The first traced run gives the per-layer metrics and the spans; the
    overhead is the median over pairs, so both sides of a ratio share a
    stretch of machine speed.
    """
    from tracer import Tracer

    items = workloads.make_pass(args.workload, args.seed, 0)
    first, ratios, elapsed = None, [], 0.0
    messages, failed, mismatched = [], set(), set()
    while first is None or elapsed < args.seconds / 2:
        t0 = time.perf_counter()
        _, oks, untraced, msg = _run_pass(items)
        untraced_s = time.perf_counter() - t0
        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            _, traced_oks, traced, traced_msg = _run_pass(items, tracer)
            traced_s = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        first = first or tracer
        elapsed += untraced_s + traced_s
        ratios.append(untraced_s / traced_s)    # traced / untraced items per second
        messages += msg + traced_msg
        failed.update(i for i, ok in enumerate(zip(oks, traced_oks)) if not all(ok))
        mismatched.update(i for i, pair in enumerate(zip(untraced, traced)) if pair[0] != pair[1])
    messages += [f"traced result differs from untraced at {items[i]}" for i in sorted(mismatched)]
    metrics = first.metrics()
    metrics["trace.overhead_frac"] = 1.0 - statistics.median(ratios)
    if args.spans:
        first.write(args.spans)
    return {"metrics": metrics, "items": len(items), "failed": len(failed),
            "traced_equals_untraced": not mismatched, "pairs": len(ratios),
            "spans": len(first.start), "messages": messages[:20], "versions": _versions()}


def cmd_setup(args) -> dict:
    items = workloads.make_pass(args.workload, args.seed, 0)
    # perf_counter is system-wide monotonic, so the parent can subtract its
    # own start time; the calibration follows, outside the timed part.
    done = time.perf_counter()
    return {"items": len(items), "done": done, "loops": speed.loop_times()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PASS_BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", default="")
    args = parser.parse_args()
    result = {"setup": cmd_setup, "run": cmd_run, "trace": cmd_trace}[args.mode](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
