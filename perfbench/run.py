"""Benchmark runner for padic-orbits: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Every job runs in a fresh interpreter (``worker.py``) with
``PADIC_ORBITS_THREADS`` removed from its environment, one at a time.

``--trace 0`` times ``setup_s`` as the median of several fresh interpreters
that import ``padic_orbits`` and ``padic_orbits.cli`` and generate the
inputs, then runs whole passes of the workload for ``--seconds`` seconds in
one more and reports the ``end_to_end`` metrics of BENCHMARK.json.
``--trace 1`` runs pass 0 untraced and traced, in pairs for half of
``--seconds``, in one fresh process and once more in a second, checks that
the counters repeat exactly, and reports the ``per_layer`` metrics; the
spans go to perfbench/out/.  Timings of ``--trace 0`` are scaled by the
calibration in ``speed.py``.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Exit status is non-zero, with no result line, when the
checkout has no package source or a job fails to finish.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
SETUP_REPEATS = 9       # fresh interpreters timed for setup_s, after one warm-up
DEADLINE_S = 170.0      # every job of one invocation ends within this


def _child_env() -> dict:
    env = dict(os.environ)
    # The knob only re-partitions serial loops; keep it out of the measurement.
    env.pop("PADIC_ORBITS_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    # Set-up is timed with bytecode caches, as for an installed package; the
    # warm-up writes them under src/ and perfbench/.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # One core: a second BLAS thread doubles CPU time in dirichlet_L1's dot
    # product for no wall-clock gain, and competes with other processes.
    for knob in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[knob] = "1"
    return env


def _worker(args: list[str], started: float) -> dict:
    """Run one worker job and return its JSON result."""
    timeout = DEADLINE_S - (time.monotonic() - started)
    if timeout <= 0:
        sys.exit("benchmark deadline exceeded before a job could start")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"worker {args[0]} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"worker {args[0]} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _declared(section: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[section]


class Outcome(NamedTuple):
    values: dict          # metric name -> value
    attempted: int
    failed: int
    consistent: bool      # traced == untraced and counters repeat (trace runs)
    versions: dict
    messages: list


def _setup_times(job: list[str], started: float) -> tuple[list[float], list[float]]:
    """Raw and scaled set-up times of SETUP_REPEATS fresh interpreters."""
    _worker(["setup", *job], started)   # warm-up: bytecode caches are written once
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        result = _worker(["setup", *job], started)
        raw.append(result["done"] - t0)
        scaled.append(raw[-1] * speed.scale(result["loops"]))
    return raw, scaled


def end_to_end(args, started: float) -> Outcome:
    job = ["--workload", args.workload, "--seed", str(args.seed)]
    raw_setup, setup = _setup_times(job, started)
    result = _worker(["run", *job, "--seconds", str(args.seconds)], started)
    passes = result["passes"]
    raw = [x for p in passes for x in p["latencies"]]
    latencies = [x * p["scale"] for p in passes for x in p["latencies"]]
    attempted = len(latencies)
    failed = sum(not ok for p in passes for ok in p["ok"])
    p90 = statistics.quantiles(latencies, n=10)[8]
    # Totals over whole passes: on a host whose speed drifts, a mean moves
    # smoothly with the mix of fast and slow stretches where a median jumps.
    values = {
        "setup_s": statistics.median(setup),
        "items_per_s": attempted / sum(p["wall_s"] * p["scale"] for p in passes),
        "item_p50_ms": 1000 * statistics.median(latencies),
        "item_p90_ms": 1000 * p90,
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": (attempted - failed) / attempted,
    }
    beyond = sum(x > p90 for x in latencies)
    print(f"samples: {attempted} items in {len(passes)} passes, {beyond} beyond p90; "
          f"{len(setup)} setups")
    print(f"unscaled: setup_s {statistics.median(raw_setup):.4f}, items_per_s "
          f"{attempted / sum(p['wall_s'] for p in passes):.4f}, item_p50_ms "
          f"{1000 * statistics.median(raw):.4f}, item_p90_ms "
          f"{1000 * statistics.quantiles(raw, n=10)[8]:.4f}; median scale "
          f"{statistics.median(p['scale'] for p in passes):.4f}")
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond p90; raise --seconds", file=sys.stderr)
    return Outcome(values, attempted, failed, True, result["versions"], result["messages"])


def per_layer(args, started: float) -> Outcome:
    from tracer import COUNT_METRICS

    OUT.mkdir(exist_ok=True)
    job = ["--workload", args.workload, "--seed", str(args.seed)]
    spans = OUT / f"spans-{args.workload}.tsv.gz"
    first = _worker(["trace", *job, "--seconds", str(args.seconds), "--spans", str(spans)],
                    started)
    second = _worker(["trace", *job], started)   # one pair, for the counters
    messages = list(first["messages"])
    differing = [m for m in COUNT_METRICS if first["metrics"][m] != second["metrics"][m]]
    if differing:
        messages.append(f"counters differ between two traced runs of one seed: {differing}")
    consistent = not differing and first["traced_equals_untraced"]
    print(f"samples: {first['items']} items traced in {first['pairs']} untraced/traced "
          f"pairs, {first['spans']} spans in the first -> "
          f"{spans.relative_to(ROOT)}; counters repeat: {not differing}; traced results "
          f"equal untraced: {first['traced_equals_untraced']}")
    return Outcome(first["metrics"], first["items"], first["failed"], consistent,
                   first["versions"], messages)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in _declared("workloads")])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(f"terminated by signal {signum}"))
    if not (ROOT / "src" / "padic_orbits" / "__init__.py").is_file():
        sys.exit(f"no package source at {ROOT / 'src' / 'padic_orbits'}: "
                 "run from a padic-orbits checkout")
    started = time.monotonic()
    out = (per_layer if args.trace else end_to_end)(args, started)
    for message in out.messages:
        print(f"failed: {message}", file=sys.stderr)
    print(f"env: python {out.versions['python']}, numpy {out.versions['numpy']}, "
          f"commit {_commit()}, nproc {len(os.sched_getaffinity(0))}, "
          f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
          f"trace {args.trace}")
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": out.values[m["name"]], "unit": m["unit"]}
               for m in _declared(section)}
    print(json.dumps({"correct": out.failed == 0 and out.consistent,
                      "attempted": out.attempted, "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
