"""Layered wall-clock benchmark of the Basker reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload cold_solve --seed 1 --seconds 25 --trace 0

Workloads: ``cold_solve``, ``transient_replay``, ``serve_mixed`` (see
``perfbench/README.md`` for what each exercises and which per-layer
metric should move which end-to-end metric).  The program is imported
from ``src/`` of the checkout this script sits in; nothing is
installed.  One process, one client, no worker threads: Basker runs
with simulated threads only, and OpenBLAS is pinned to one thread
before numpy loads.  An interval timer samples the machine's speed
throughout, and every end-to-end time is reported in reference
seconds (``speed.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half
the operations untraced and half under a wall-clock
:class:`~repro.obs.Tracer` and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only
when every answer verified and every structural check held.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere: a multithreaded OpenBLAS (up to 64
# threads) would otherwise add worker threads to a one-process benchmark
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("cold_solve", "transient_replay", "serve_mixed")
SETUP_REPEATS = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measurement budget; sizes the fixed operation count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _declared(kind: str) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def _mismatched(metrics: dict, declared: dict) -> list:
    """Mismatches between the metrics a run produced and the declared set."""
    got = {name: m["unit"] for name, m in metrics.items()}
    return [f"metric {name!r}: produced {got.get(name)!r}, declared {declared.get(name)!r}"
            for name in sorted(set(got) | set(declared)) if got.get(name) != declared.get(name)]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _untraced(wl, args, harness, probe):
    setups = []
    for _ in range(SETUP_REPEATS):
        ctx = None   # let the previous inputs go before building new ones
        t0 = time.perf_counter()
        ctx = wl.setup(args.seed, args.seconds)
        setups.append((t0, time.perf_counter() - t0))
    setup_s = statistics.median(probe.reference_seconds(t0, s) for t0, s in setups)
    run = wl.run_pass(ctx)
    mismatches = wl.check(ctx, run)
    metrics, lines = harness.end_to_end(run, probe, setup_s, _peak_rss_mb())
    return metrics, lines, run, mismatches, _mismatched(metrics, _declared("end_to_end"))


def _traced(wl, args, harness, probe):
    from repro.obs import Tracer, tracing

    def tracer():
        return Tracer(wall_clock=time.perf_counter)

    setup_tracer = tracer()
    with tracing(setup_tracer):
        ctx = wl.setup(args.seed, args.seconds)
    tracers = {s: tracer() for s in harness.SOLVERS}
    run = wl.run_pass(ctx, tracers)
    mismatches = wl.check(ctx, run)

    layers = harness.common_layers(run, probe)
    extra_tracer = tracer()
    with tracing(extra_tracer):
        layers.update(wl.layers(ctx, run))
    seq_s, _ = harness.bench_span_wall(setup_tracer, "bench.matrix_sequence")
    layers["xyce.sequence_s_per_matrix"] = harness.ratio(
        seq_s, getattr(wl, "SEQUENCE_LENGTH", 0))

    problems = wl.claims(tracers)
    for name, tr in [("setup", setup_tracer), ("layers", extra_tracer),
                     *tracers.items()]:
        problems += [f"{name}: {p}" for p in harness.trace_problems(tr)]

    # a layer the workload does not exercise reads 0
    declared = _declared("per_layer")
    problems += [f"undeclared per-layer metric {name!r}" for name in layers
                 if name not in declared]
    metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
               for name, unit in declared.items()}
    lines = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"traced ops per solver {run.traced['klu'].attempted}, "
                 f"untraced {run.plain['klu'].attempted}")
    return metrics, lines, run, mismatches, problems


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    harness = importlib.import_module("harness")
    speed = importlib.import_module("speed")
    wl = importlib.import_module(args.workload)

    measure = _traced if args.trace else _untraced
    with speed.SpeedProbe() as probe:
        metrics, lines, run, mismatches, problems = measure(wl, args, harness, probe)
    attempted = sum(r.attempted for r in run.results)
    failed = sum(r.failed for r in run.results) + mismatches
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in lines:
        print("  " + line)
    print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations; "
          f"{mismatches} SciPy mismatches among them)")
    for p in problems:
        print("  CHECK FAILED: " + p)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
