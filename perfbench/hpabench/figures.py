"""`figures`: the 192 distinct (kernel, scheme, width) cells a paper-figure
regeneration needs, at tiny scale, each through the `hpa` CLI.

The 96 cells of the four CPI-stack schemes run with counters on (`hpa
counters`); the rest run through `hpa bench`. Each cell is its own
process, so it starts with cold modelled caches, and the CLI verifies the
kernel's checksum before it exits 0. Cells take 10-400 ms, so the run
repeats them: every cell once, then more passes in seeded orders until the
time is up. Host time is measured against a calibration operation run
between every two cells (see `stats.Bracketed`).
"""

import json
import random

from . import common, stats, trace
from .common import CALIBRATION_S, CPI_SCHEMES, KERNELS, SCHEMES, WIDTHS

COUNTS = ("cycles", "committed", "dl1_accesses", "dl1_hits", "branches", "mispredicts")


def cells():
    return [(k, s, w) for k in KERNELS for s in SCHEMES for w in WIDTHS]


def cell_argv(kernel, scheme, width):
    verb = ["counters", "--json"] if scheme in CPI_SCHEMES else ["bench"]
    return [verb[0], kernel, "--scheme", scheme, "--scale", "tiny", "--width", width, *verb[1:]]


def check_cell(cell, out):
    """A cell's committed instructions (None for a counters cell, whose
    report lacks them); raises ValueError or KeyError on malformed output."""
    if cell[1] in CPI_SCHEMES:
        doc = json.loads(out)
        if not doc.get("enabled") or doc.get("cpi_total_slots", 0) <= 0:
            raise ValueError("counters report is empty")
        return None
    return int(common.parse_stats(out)["committed"])


SETUP_REPS = 21


def bracketed_setup(bracket):
    """CLI cold start, `SETUP_REPS` times: `hpa list` starts the binary and
    builds every registered workload. Each start is bracketed by a run of
    the calibration; returns the last one's time."""
    before = bracket.burst(common.calibration_times(1))
    for _ in range(SETUP_REPS):
        r = common.hpa("list")
        if not r.ok:
            raise common.BenchError(f"`hpa list` failed: {r.error_text()}")
        after = bracket.burst(common.calibration_times(1))
        bracket.add("setup", r.seconds, before, after)
        before = after
    return before


def run(seed, seconds, clock):
    """The untraced run: returns (report, metrics, correct, tally)."""
    rng = random.Random(seed)
    reps, bracket, tally = stats.Reps(), stats.Bracketed(CALIBRATION_S), stats.Tally()
    before = bracketed_setup(bracket)
    outputs, fields, peak_rss = {}, {}, 0.0
    correct = True
    deadline = clock() + seconds
    order = cells()
    passes = 0
    while passes == 0 or clock() < deadline:
        rng.shuffle(order)
        for cell in order:
            if passes > 0 and clock() >= deadline:
                break
            r = common.hpa(*cell_argv(*cell))
            after = bracket.burst(common.calibration_times(1))
            before, local = after, (before, after)
            peak_rss = max(peak_rss, r.maxrss_mb)
            if not r.ok:
                tally.fail("/".join(cell), r.error_text())
                continue
            try:
                fields[cell] = check_cell(cell, r.stdout)
            except (ValueError, KeyError) as e:
                correct = False
                tally.fail("/".join(cell), f"malformed output: {e}")
                continue
            # A cell is deterministic: every repetition prints the same.
            if outputs.setdefault(cell, r.stdout) != r.stdout:
                correct = False
            tally.ok()
            reps.add(cell, r.seconds)
            bracket.add(cell, r.seconds, *local)
        passes += 1

    # Committed instructions are architectural: the same for every scheme
    # and width of a kernel. CPI cells take the count from the kernel's
    # `hpa bench` cells.
    committed = {}
    for (k, _, _), n in fields.items():
        if n is not None and committed.setdefault(k, n) != n:
            correct = False
    done = [c for c in reps.keys() if c[0] in committed]
    quiet = bracket.total(done)
    insts = sum(committed[c[0]] for c in done)
    metrics = {
        "minst_per_s": (insts / quiet / 1e6, "Minst/s"),
        "ops_per_s": (len(done) / quiet, "1/s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "setup_s": (bracket.quiet_median("setup"), "s"),
    }
    report = {
        "wall_s": (quiet, "s (quiet host)"),
        "fastest_wall_s": (reps.total_fastest(done), "s (sum of fastest repetitions)"),
        "calibration_fastest_ms": (1e3 * bracket.floor(), "ms"),
        "calibration_p50_ms": (1e3 * stats.median(bracket.reference), "ms"),
        "cells": (len(done), "count"),
        "cell_p50_ms": (1e3 * stats.median([reps.fastest(c) for c in done]), "ms"),
        "passes": (passes, "count"),
        "repetitions": (reps.count(), "count"),
        "spread": reps.spread(),
    }
    return report, metrics, correct, tally


def traced(seed, seconds, clock):
    """The traced run: every cell in process through the layer probe, with
    a span around each layer call. Returns (report, per_layer, correct,
    tally, tracer)."""
    doc = common.layers("figures", seconds, seed)
    tracer = trace.Tracer.load(doc["spans"])
    durations = tracer.durations_by_job()
    tally, correct = stats.Tally(), True
    exact, build, sim, cell_time = {}, stats.Reps(), stats.Reps(), stats.Reps()
    pairs = {}  # (pass, cell) -> {mode: (cell seconds, sim seconds)}
    for r in doc["records"]:
        cell = (r["kernel"], r["scheme"], str(r["width"]))
        if r["error"]:
            tally.fail("/".join(cell), r["error"])
            continue
        tally.ok()
        counts = tuple(r[k] for k in COUNTS)
        # Counters and spans observe the model; they must not change it.
        if exact.setdefault(cell, counts) != counts:
            correct = False
        d = durations[r["job"]]
        if r["mode"] == "untraced":
            pairs.setdefault((r["pass"], cell), {})["untraced"] = (d["cell.untraced"], None)
            continue
        sim_s = d["sim.new"] + d["sim.run"]
        pairs.setdefault((r["pass"], cell), {})[r["mode"]] = (d["cell"], sim_s)
        if r["mode"] == "traced":
            sim.add(cell, sim_s)
            build.add(cell, d["workloads.build"])
            cell_time.add(cell, d["cell"])

    done = sim.keys()
    total = {k: sum(exact[c][i] for c in done) for i, k in enumerate(COUNTS)}
    per_layer = {
        "workloads.build_ms": (1e3 * build.total_fastest() / len(done), "ms"),
        "sim.ns_per_cycle": (1e9 * sim.total_fastest() / total["cycles"], "ns"),
        "sim.cycles": (total["cycles"], "count"),
        "sim.committed": (total["committed"], "count"),
        "cache.dl1_miss_rate": (1 - total["dl1_hits"] / total["dl1_accesses"], "ratio"),
        "bpred.mispredict_rate": (total["mispredicts"] / total["branches"], "ratio"),
        "trace.accounted_pct": (100 * tracer.accounted(("cell",)), "%"),
        "noise.spread": (cell_time.spread()["median"] or 0.0, "ratio"),
    }
    for scheme in SCHEMES:
        mine = [c for c in done if c[1] == scheme]
        per_layer[f"sim.ns_per_cycle.{scheme}"] = (
            1e9 * sim.total_fastest(mine) / sum(exact[c][0] for c in mine), "ns")
    # Overheads from adjacent repetitions of the same cell.
    traced_pairs = [p for p in pairs.values() if "traced" in p and "untraced" in p]
    counter_pairs = [p for p in pairs.values() if "traced" in p and "counters_off" in p]
    per_layer["trace.overhead_pct"] = (
        100 * (sum(p["traced"][0] for p in traced_pairs)
               / sum(p["untraced"][0] for p in traced_pairs) - 1) if traced_pairs else 0.0, "%")
    per_layer["obs.counters_ratio"] = (
        sum(p["traced"][1] for p in counter_pairs)
        / sum(p["counters_off"][1] for p in counter_pairs) if counter_pairs else 0.0, "ratio")
    report = {
        "cells": (len(done), "count"),
        "traced_wall_s": (cell_time.total_fastest(), "s (sum of fastest traced repetitions)"),
        "overhead_pairs": (len(traced_pairs), "count"),
        "counters_pairs": (len(counter_pairs), "count"),
    }
    return report, per_layer, correct, tally, tracer
