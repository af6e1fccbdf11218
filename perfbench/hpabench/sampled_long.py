"""`sampled-long`: all twelve kernels at `--scale long` on the 4-wide base
machine, sampled at `2000:10000:488000` with the run's seed, through
`hpa bench --sampled`.

Data footprints run from 0 KiB (gap) to 28 MiB (mcf), so functional
fast-forward and snapshot copying dominate, and a snapshot change shows on
mcf but not on gap. Known defects fail here and are counted as failed
operations, never skipped: gzip and parser fault in the emulator within
their first 100 instructions, and vortex ends with a checksum mismatch.
Throughput is a rate over the kernels that complete, so fixing them will
not read as a slowdown.
"""

import json
import random
import re

from . import common, stats, trace
from .common import CALIBRATION_S, KERNELS, SAMPLE_UNITS
from .figures import bracketed_setup

IPC_REFERENCE = common.BENCH_DIR / "reference" / "long_ipc.json"
_EXECUTED = re.compile(r"of (\d+) executed")
_MEAN = re.compile(r"([0-9.]+) ± ([0-9.]+|inf)")


def kernel_argv(kernel, seed):
    return ["bench", kernel, "--scale", "long", "--width", "4", "--scheme", "base",
            "--sampled", SAMPLE_UNITS, "--seed", str(seed)]


def parse_estimate(out):
    """(samples, mean IPC, CI half-width, executed instructions)."""
    s = common.parse_stats(out)
    mean = _MEAN.search(s["mean IPC"])
    return (int(s["samples"]), float(mean.group(1)), float(mean.group(2)),
            int(_EXECUTED.search(s["detailed insts"]).group(1)))


def load_reference():
    """The pinned full-detail IPCs, or None with the reason they are
    unusable: the pinned cell's digest no longer matches, so the timing
    model has changed since they were generated."""
    ref = json.loads(IPC_REFERENCE.read_text())
    pinned = ref["pinned"]
    r = common.hpa("bench", pinned["kernel"], "--scale", "long", "--width", "4", "--scheme", "base")
    if not r.ok:
        return None, f"pinned cell {pinned['kernel']} failed: {r.error_text()}"
    digest = common.parse_stats(r.stdout).get("stats digest")
    if digest != pinned["digest"]:
        return None, (f"stale: {pinned['kernel']} long digest {digest} != pinned "
                      f"{pinned['digest']}; run perfbench/regen_reference.py")
    return {k: v["ipc"] for k, v in ref["kernels"].items() if "ipc" in v}, "fresh"


# Calibration runs between every two kernels (see `stats.Bracketed`).
CALIBRATION_BURST = 16


def run(seed, seconds, clock):
    reference, ref_state = load_reference()
    # One operation per kernel, so a run's attempted and failed counts do
    # not depend on how many repetitions the host's speed left room for.
    reps, bracket, tally = stats.Reps(), stats.Bracketed(CALIBRATION_S), stats.KeyedTally()
    bracketed_setup(bracket)
    before = bracket.burst(common.calibration_times(CALIBRATION_BURST))
    estimates, outputs, peak_rss = {}, {}, 0.0
    correct = True
    deadline = clock() + seconds
    order = list(KERNELS)
    random.Random(seed).shuffle(order)

    def attempt(kernel):
        nonlocal before, peak_rss, correct
        r = common.hpa(*kernel_argv(kernel, seed))
        after = bracket.burst(common.calibration_times(CALIBRATION_BURST))
        before, local = after, (before, after)
        peak_rss = max(peak_rss, r.maxrss_mb)
        if not r.ok:
            tally.attempt(kernel, r.error_text())
            return
        try:
            est = parse_estimate(r.stdout)
        except (KeyError, AttributeError, ValueError) as e:
            correct = False
            tally.attempt(kernel, f"malformed output: {e}")
            return
        if est[0] == 0 or outputs.setdefault(kernel, r.stdout) != r.stdout:
            correct = False
        estimates[kernel] = est
        tally.attempt(kernel)
        reps.add(kernel, r.seconds)
        bracket.add(kernel, r.seconds, *local)

    # Every kernel once; then repeat the completed ones, cheapest first,
    # while the next repetition fits in the time left.
    for kernel in order:
        attempt(kernel)
    def completed():
        return [k for k in reps.keys() if k not in tally.failed_keys()]

    while completed():
        fits = sorted((reps.fastest(k), k) for k in completed()
                      if reps.fastest(k) < deadline - clock())
        if not fits:
            break
        for _, kernel in fits:
            if reps.fastest(kernel) < deadline - clock():
                attempt(kernel)

    tally.close()
    done = completed()
    quiet = bracket.total(done)
    insts = sum(estimates[k][3] for k in done)
    errs = [abs(estimates[k][1] - reference[k]) / reference[k] for k in done
            if reference and k in reference]
    cis = [estimates[k][2] / estimates[k][1] for k in done if estimates[k][1] > 0]
    metrics = {
        "minst_per_s": (insts / quiet / 1e6 if done else 0.0, "Minst/s"),
        "ops_per_s": (len(done) / quiet if done else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "setup_s": (bracket.quiet_median("setup"), "s"),
    }
    report = {
        "host_s": (quiet if done else 0.0, "s (quiet host)"),
        "fastest_host_s": (reps.total_fastest(done), "s (sum of fastest repetitions)"),
        "calibration_fastest_ms": (1e3 * bracket.floor(), "ms"),
        "calibration_p50_ms": (1e3 * stats.median(bracket.reference), "ms"),
        "kernels_completed": (len(done), "count"),
        "kernels_failed": (len(KERNELS) - len(done), "count"),
        "ipc_err_pct": (100 * sum(errs) / len(errs), "%") if errs else (None, "%"),
        "ci_pct": (100 * sum(cis) / len(cis), "%") if cis else (None, "%"),
        "reference": ref_state,
        "repetitions": (reps.count(), "count"),
        "spread": reps.spread(),
    }
    for k in done:
        report[f"kernel_s.{k}"] = (bracket.total([k]), "s (quiet host)")
    return report, metrics, correct, tally


def traced(seed, seconds, clock):
    """The traced run: every kernel in process through the layer probe,
    which mirrors `SampledRunner::run` with a span around each stretch,
    then the library's runner untraced for the overhead. Returns (report,
    per_layer, correct, tally, tracer)."""
    doc = common.layers("sampled", seconds, seed, SAMPLE_UNITS)
    tracer = trace.Tracer.load(doc["spans"])
    durations = tracer.durations_by_job()
    tally, correct = stats.Tally(), True
    traced_s, pair_s = {}, {}
    layer = {k: 0.0 for k in ("kernel", "workloads.build", "emu.ff", "emu.catchup",
                              "emu.snapshot", "sim.window")}
    functional = windows = window_cycles = 0
    snapshot_ms, mirror = {}, {}
    for r in doc["records"]:
        d = durations[r["job"]]
        if "pair" in r:
            # An adjacent (traced mirror, untraced runner) repetition.
            ok = r["ok"] if r.get("untraced") else not r["error"]
            side = "untraced" if r.get("untraced") else "traced"
            pair_s.setdefault(r["pair"], {})[side] = d.get("kernel.untraced", d.get("kernel"))
            if not ok:
                correct = False
            continue
        for k in layer:
            layer[k] += d.get(k, 0.0)
        functional += r["functional_insts"]
        windows += r["windows"]
        window_cycles += r["window_cycles"]
        snapshot_ms[r["kernel"]] = 1e3 * d.get("emu.snapshot", 0.0)
        if r["error"]:
            tally.fail(r["kernel"], r["error"])
            continue
        tally.ok()
        traced_s[r["kernel"]] = d["kernel"]
        mirror[r["kernel"]] = (r["windows"], r["mean_ipc"])
    # The mirror must agree with the CLI's sampled run; check the cheapest
    # completed kernel.
    if mirror:
        kernel = min(traced_s, key=traced_s.get)
        r = common.hpa(*kernel_argv(kernel, seed))
        est = parse_estimate(r.stdout) if r.ok else None
        windows_, ipc = mirror[kernel]
        if est is None or (est[0], f"{est[1]:.3f}") != (windows_, f"{ipc:.3f}"):
            correct = False
    total = layer["kernel"]
    per_layer = {
        "workloads.build_ms": (1e3 * layer["workloads.build"] / len(snapshot_ms), "ms"),
        "sim.ns_per_cycle": (1e9 * layer["sim.window"] / window_cycles, "ns"),
        "emu.minst_per_s": (functional / (layer["emu.ff"] + layer["emu.catchup"]) / 1e6,
                            "Minst/s"),
        "sim.window_ms": (1e3 * layer["sim.window"] / windows, "ms"),
        "sampled.windows": (windows, "count"),
        "sampled.share.ff": ((layer["emu.ff"] + layer["emu.catchup"]) / total, "ratio"),
        "sampled.share.snapshot": (layer["emu.snapshot"] / total, "ratio"),
        "sampled.share.window": (layer["sim.window"] / total, "ratio"),
        "trace.accounted_pct": (100 * tracer.accounted(("kernel",)), "%"),
    }
    for k in KERNELS:
        per_layer[f"emu.snapshot_ms.{k}"] = (snapshot_ms.get(k, 0.0), "ms")
    pairs = [p for p in pair_s.values() if len(p) == 2]
    per_layer["trace.overhead_pct"] = (
        100 * (sum(p["traced"] for p in pairs) / sum(p["untraced"] for p in pairs) - 1)
        if pairs else 0.0, "%")
    report = {
        "kernels_completed": (len(traced_s), "count"),
        "overhead_pairs": (len(pairs), "count"),
    }
    return report, per_layer, correct, tally, tracer
