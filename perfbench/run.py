#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it builds `hpa` and the per-layer
probe from that checkout's sources first. `--trace 0` drives the `hpa`
CLI and the daemon's HTTP API and prints the end-to-end metrics; `--trace
1` times calls into each layer crate and prints the per-layer metrics.
The last line of standard output is one JSON object; the lines before it
give every metric by name with its unit, the workload-specific figures,
the noise spread and each failure's error text. See perfbench/README.md.
"""

import argparse
import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hpabench import common, figures, sampled_long, serve_mixed  # noqa: E402

WORKLOADS = {"figures": figures, "sampled-long": sampled_long, "serve-mixed": serve_mixed}

# The per-layer metrics every traced run prints, whatever the workload
# (README.md says which workload measures each; the others print 0).
PER_LAYER = (
    ("workloads.build_ms", "ms"),
    ("sim.ns_per_cycle", "ns"),
    *((f"sim.ns_per_cycle.{s}", "ns") for s in common.SCHEMES),
    ("sim.cycles", "count"),
    ("sim.committed", "count"),
    ("obs.counters_ratio", "ratio"),
    ("cache.dl1_miss_rate", "ratio"),
    ("bpred.mispredict_rate", "ratio"),
    ("emu.minst_per_s", "Minst/s"),
    *((f"emu.snapshot_ms.{k}", "ms") for k in common.KERNELS),
    ("sim.window_ms", "ms"),
    ("sampled.windows", "count"),
    ("sampled.share.ff", "ratio"),
    ("sampled.share.snapshot", "ratio"),
    ("sampled.share.window", "ratio"),
    ("serve.submit_ms.small", "ms"),
    ("serve.submit_ms.long", "ms"),
    ("serve.cell_key_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("rv.translate_us", "us"),
    ("sdk.calls_per_job", "count"),
    ("serve.health.cache_hits", "count"),
    ("serve.health.cache_misses", "count"),
    ("serve.health.journal_rehydrated", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.accounted_pct", "%"),
    ("noise.spread", "ratio"),
)
# Layer times must account for the workload's total within this share.
ACCOUNTING_TOLERANCE = 0.05


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def show(name, value):
    if isinstance(value, tuple):
        v, unit = value
        text = "n/a" if v is None else (f"{v:.6g}" if isinstance(v, float) else str(v))
        print(f"  {name:34} {text} {unit}")
    else:
        print(f"  {name:34} {json.dumps(value)}")


def main(argv):
    args = parse_args(argv)
    # Unwind on SIGTERM too, so a daemon the run started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("error: terminated"))
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("error: --seed must be >= 0 and --seconds > 0")
    try:
        common.build()
        module = WORKLOADS[args.workload]
        clock = time.perf_counter
        if args.trace:
            report, layer, correct, tally, tracer = module.traced(args.seed, args.seconds, clock)
            out = common.ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            tracer.write(out / f"spans-{args.workload}-{args.seed}.json")
            metrics = {name: layer.get(name, (0.0, unit)) for name, unit in PER_LAYER}
            accounted = metrics["trace.accounted_pct"][0] / 100
            if abs(1 - accounted) > ACCOUNTING_TOLERANCE:
                correct = False
                report["accounting"] = f"layer times cover {accounted:.1%} of the total"
        else:
            report, metrics, correct, tally = module.run(args.seed, args.seconds, clock)
    except common.BenchError as e:
        sys.exit(f"error: {e}")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("metrics:")
    for name, value in metrics.items():
        show(name, value)
    print("report:")
    for name, value in report.items():
        show(name, value)
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed "
          f"({tally.share():.1%})")
    for text, n in sorted(tally.errors.items()):
        print(f"  failed x{n}: {text}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
