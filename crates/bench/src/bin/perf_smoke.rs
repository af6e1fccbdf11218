//! Offline performance smoke test: simulated Mcycles/sec per scheme and
//! serial-vs-parallel experiment-matrix wall time, written as JSON so the
//! perf trajectory is tracked from PR to PR (`BENCH_1.json` onward).
//!
//! ```text
//! cargo run --release -p hpa-bench --bin perf_smoke
//! ```
//!
//! By default every scale in [`DEFAULT_SCALES`] is measured (tiny then
//! default); the headline `aggregate_mcycles_per_sec` and the matrix
//! comparison come from the first scale, so successive `BENCH_*.json`
//! artifacts stay comparable.
//!
//! Since v4 the artifact also carries a `phase_timings` section: the same
//! headline workloads run once with per-phase stopwatches on (counters off
//! and counters on), so a throughput regression is attributable to a
//! pipeline phase — wakeup, select, events, commit, fetch, insert, obs —
//! from the JSON alone. The timed runs are separate from the headline
//! throughput runs; stopwatch reads never touch the headline numbers.
//!
//! Since v5 it also carries the functional emulator's throughput
//! (`emu_minsts_per_sec`, the fast-forward engine of the sampled mode)
//! and a `sampled` section: two long-running workloads measured full
//! detailed vs SMARTS-style sampled, with wall-clock speedup, mean IPC ±
//! 95% CI, and the relative IPC error. The sampled section always runs at
//! `--scale long` so successive artifacts stay comparable.
//!
//! Options:
//!
//! * `--scale tiny|default|large|long` — restrict to one workload size;
//! * `--jobs N` — worker threads for the parallel matrix (default: host
//!   parallelism);
//! * `--out FILE` — JSON output path (default `BENCH_5.json`);
//! * `--baseline FILE` — a previous `perf_smoke` JSON to embed verbatim
//!   under `"baseline"`, for before/after comparisons in one artifact.
//!
//! No external dependencies: wall time via [`std::time::Instant`], JSON
//! emitted by hand.

use hpa_core::emu::Emulator;
use hpa_core::sim::{PhaseTimes, SampleUnits, SampledEstimate};
use hpa_core::workloads::{workload, Scale, Workload};
use hpa_core::{
    default_jobs, run, run_matrix, MachineWidth, Observe, RunMode, RunResult, RunSpec, Scheme,
};
use std::fmt::Write as _;
use std::time::Instant;

/// Workloads for the per-scheme cycle-loop throughput measurement: one
/// compute-bound, one memory-bound, one branchy.
const THROUGHPUT_WORKLOADS: [&str; 3] = ["gap", "mcf", "perl"];

/// Schemes timed in the serial-vs-parallel matrix comparison.
const MATRIX_SCHEMES: [Scheme; 2] = [Scheme::Base, Scheme::Combined];

/// Long-running workloads for the sampled-vs-full comparison: one
/// compute-bound, one memory-bound.
const SAMPLED_WORKLOADS: [&str; 2] = ["gap", "mcf"];

/// Sampling units for the comparison: 2k warmup, 10k measured detail,
/// 488k fast-forward (period 500k — a few dozen samples per long run).
const SAMPLED_UNITS: (u64, u64, u64) = (2_000, 10_000, 488_000);

/// Fixed seed for the sampled comparison, so the artifact reproduces.
const SAMPLED_SEED: u64 = 42;

/// Scales measured when `--scale` is not given. The first entry is the
/// headline scale (aggregate throughput and matrix comparison).
const DEFAULT_SCALES: [(Scale, &str); 2] = [(Scale::Tiny, "tiny"), (Scale::Default, "default")];

struct Args {
    scales: Vec<(Scale, &'static str)>,
    jobs: usize,
    out: String,
    baseline: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scales: DEFAULT_SCALES.to_vec(),
        jobs: default_jobs(),
        out: "BENCH_5.json".to_string(),
        baseline: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter().map(String::as_str);
    while let Some(a) = it.next() {
        match a {
            "--scale" => {
                args.scales = match it.next() {
                    Some("tiny") => vec![(Scale::Tiny, "tiny")],
                    Some("default") => vec![(Scale::Default, "default")],
                    Some("large") => vec![(Scale::Large, "large")],
                    Some("long") => vec![(Scale::Long, "long")],
                    other => usage(&format!("bad --scale {other:?}")),
                }
            }
            "--jobs" => {
                args.jobs =
                    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage("bad --jobs"));
            }
            "--out" => args.out = it.next().unwrap_or_else(|| usage("bad --out")).to_string(),
            "--baseline" => {
                args.baseline =
                    Some(it.next().unwrap_or_else(|| usage("bad --baseline")).to_string());
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown option `{other}`")),
        }
    }
    args
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: perf_smoke [--scale tiny|default|large|long] [--jobs N] [--out FILE] [--baseline FILE]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Per-scheme throughput of the cycle loop itself, measured over full
/// workload runs (checksum-verified, so nothing is optimized away).
struct SchemeRate {
    scheme: &'static str,
    mcycles: f64,
    minsts: f64,
    wall_s: f64,
}

impl SchemeRate {
    fn mcycles_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.mcycles / self.wall_s
        } else {
            0.0
        }
    }
}

/// One scale's measurements: per-scheme rates and their aggregate.
struct ScaleRun {
    scale_name: &'static str,
    rates: Vec<SchemeRate>,
}

impl ScaleRun {
    fn aggregate_mcycles_per_sec(&self) -> f64 {
        let mcycles: f64 = self.rates.iter().map(|r| r.mcycles).sum();
        let wall: f64 = self.rates.iter().map(|r| r.wall_s).sum();
        if wall > 0.0 {
            mcycles / wall
        } else {
            0.0
        }
    }
}

/// One full-detail, checksum-verified run on the 4-wide machine.
fn run_observed(w: &Workload, scheme: Scheme, observe: Observe) -> RunResult {
    let spec = RunSpec {
        mode: RunMode::Full(observe),
        ..RunSpec::workload(w, scheme, MachineWidth::Four)
    };
    run(&spec).unwrap_or_else(|e| panic!("{e}"))
}

fn scheme_throughput(ws: &[Workload], scale: Scale) -> Vec<SchemeRate> {
    Scheme::ALL
        .into_iter()
        .map(|scheme| {
            let t0 = Instant::now();
            let mut cycles = 0u64;
            let mut insts = 0u64;
            for w in ws {
                let r = run_observed(w, scheme, Observe::default());
                cycles += r.stats.cycles;
                insts += r.stats.committed;
            }
            let wall_s = t0.elapsed().as_secs_f64();
            let rate = SchemeRate {
                scheme: scheme.label(),
                mcycles: cycles as f64 / 1e6,
                minsts: insts as f64 / 1e6,
                wall_s,
            };
            eprintln!(
                "  {:22} {:8.2} Mcycles in {:6.2}s = {:6.2} Mcycles/s ({scale:?})",
                rate.scheme,
                rate.mcycles,
                wall_s,
                rate.mcycles_per_sec(),
                scale = scale
            );
            rate
        })
        .collect()
}

/// Functional-emulator throughput over full (checksum-verified) runs —
/// the fast-forward engine the sampled mode spends most of its time in.
fn emu_throughput(ws: &[Workload]) -> f64 {
    let t0 = Instant::now();
    let mut insts = 0u64;
    for w in ws {
        let mut emu = Emulator::new(&w.program);
        match emu.run(w.budget) {
            Ok(hpa_core::emu::RunOutcome::Halted { .. }) => {}
            other => panic!("emu run of `{}` did not halt cleanly: {other:?}", w.name),
        }
        assert_eq!(
            emu.reg(hpa_core::workloads::CHECKSUM_REG),
            w.expected_checksum,
            "`{}` checksum",
            w.name
        );
        insts += emu.executed();
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let minsts_per_sec = if wall_s > 0.0 { insts as f64 / 1e6 / wall_s } else { 0.0 };
    eprintln!(
        "  emulator: {:.2} Minsts in {wall_s:.2}s = {minsts_per_sec:.2} Minsts/s",
        insts as f64 / 1e6
    );
    minsts_per_sec
}

/// One workload measured both ways: full detailed simulation vs the
/// sampled runner, same program, same machine (4-wide base).
struct SampledCompare {
    name: &'static str,
    full_ipc: f64,
    full_wall_s: f64,
    sampled_wall_s: f64,
    est: SampledEstimate,
}

impl SampledCompare {
    fn speedup(&self) -> f64 {
        if self.sampled_wall_s > 0.0 {
            self.full_wall_s / self.sampled_wall_s
        } else {
            0.0
        }
    }
}

fn sampled_vs_full() -> Vec<SampledCompare> {
    let (w, d, f) = SAMPLED_UNITS;
    let units = SampleUnits::new(w, d, f).expect("valid units");
    let width = MachineWidth::Four;
    SAMPLED_WORKLOADS
        .iter()
        .map(|&name| {
            let w = workload(name, Scale::Long).expect("known workload");
            let spec = RunSpec::workload(&w, Scheme::Base, width);
            let t0 = Instant::now();
            let full = run(&spec).unwrap_or_else(|e| panic!("{e}"));
            let full_wall_s = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let sampled =
                run(&RunSpec { mode: RunMode::Sampled { units, seed: SAMPLED_SEED }, ..spec })
                    .unwrap_or_else(|e| panic!("{e}"));
            let sampled_wall_s = t0.elapsed().as_secs_f64();
            let c = SampledCompare {
                name,
                full_ipc: full.stats.ipc(),
                full_wall_s,
                sampled_wall_s,
                est: sampled.sampled.expect("sampled run records an estimate"),
            };
            eprintln!(
                "  {name:8} full {:.3} IPC in {:6.2}s; sampled {:.3} ± {:.3} in {:5.2}s \
                 ({:.1}x, {:.2}% error)",
                c.full_ipc,
                c.full_wall_s,
                c.est.mean_ipc,
                c.est.ci_half_width,
                c.sampled_wall_s,
                c.speedup(),
                c.est.rel_error(c.full_ipc) * 100.0,
            );
            c
        })
        .collect()
}

/// Wall-time cost of the observability layer: the same workloads run with
/// `Counters::disabled()` (the headline path, compiled out of the hot loop)
/// and again with counters enabled. The stats must be bit-identical either
/// way; only wall time may move.
struct ObsOverhead {
    off_wall_s: f64,
    on_wall_s: f64,
}

impl ObsOverhead {
    fn ratio(&self) -> f64 {
        if self.off_wall_s > 0.0 {
            self.on_wall_s / self.off_wall_s
        } else {
            0.0
        }
    }
}

fn counters_overhead(ws: &[Workload]) -> ObsOverhead {
    let scheme = Scheme::Combined;
    let run = |observe: bool| -> (f64, u64) {
        let t0 = Instant::now();
        let mut digest = 0u64;
        for w in ws {
            let r = run_observed(w, scheme, Observe { counters: observe, ..Observe::default() });
            digest = digest.wrapping_mul(0x100_0000_01b3).wrapping_add(r.stats.cycles);
        }
        (t0.elapsed().as_secs_f64(), digest)
    };
    let (off_wall_s, off_digest) = run(false);
    let (on_wall_s, on_digest) = run(true);
    assert_eq!(off_digest, on_digest, "enabling counters must not perturb timing");
    let o = ObsOverhead { off_wall_s, on_wall_s };
    eprintln!(
        "  counters off {:6.2}s, on {:6.2}s = {:.3}x (bit-identical cycles)",
        o.off_wall_s,
        o.on_wall_s,
        o.ratio()
    );
    o
}

/// One per-phase-timed sweep over the headline workloads: the combined
/// scheme with stopwatches between phases, counters off or on. The `obs`
/// phase is only nonzero with counters on, so the off/on pair attributes
/// the observability overhead to a phase as well.
struct PhaseProfile {
    times: PhaseTimes,
    wall_s: f64,
}

fn phase_profile(ws: &[Workload], observe: bool) -> PhaseProfile {
    let scheme = Scheme::Combined;
    let t0 = Instant::now();
    let mut times = PhaseTimes::default();
    for w in ws {
        let observe = Observe { counters: observe, phase_timing: true, ..Observe::default() };
        times.accumulate(&run_observed(w, scheme, observe).phase_times.expect("phase-timed"));
    }
    let p = PhaseProfile { times, wall_s: t0.elapsed().as_secs_f64() };
    let state = if observe { "on " } else { "off" };
    let shares: Vec<String> = p
        .times
        .entries()
        .iter()
        .map(|(name, ns)| format!("{name} {:.1}%", 100.0 * p.times.share(*ns)))
        .collect();
    eprintln!("  counters {state}: {}", shares.join(", "));
    p
}

/// Emits one phase profile as a JSON object with flat, grep-able keys
/// (`phase_<name>_ns`, `phase_<name>_ns_per_cycle`, `phase_<name>_share`)
/// so check.sh can compare phases across artifacts with no JSON parser.
fn write_phase_profile(json: &mut String, key: &str, p: &PhaseProfile, last: bool) {
    let t = &p.times;
    let cyc = t.cycles.max(1) as f64;
    let _ = writeln!(json, "    \"{key}\": {{");
    let _ = writeln!(json, "      \"cycles\": {},", t.cycles);
    let _ = writeln!(json, "      \"wall_s\": {:.4},", p.wall_s);
    let _ = writeln!(json, "      \"total_ns\": {},", t.total_ns());
    let _ = writeln!(json, "      \"ns_per_cycle\": {:.2},", t.total_ns() as f64 / cyc);
    for (name, ns) in t.entries() {
        let _ = writeln!(json, "      \"phase_{name}_ns\": {ns},");
        let _ = writeln!(json, "      \"phase_{name}_ns_per_cycle\": {:.3},", ns as f64 / cyc);
        let _ = writeln!(json, "      \"phase_{name}_share\": {:.4},", t.share(ns));
    }
    let _ = writeln!(json, "      \"scheme\": \"combined\"");
    let _ = writeln!(json, "    }}{}", if last { "" } else { "," });
}

fn main() {
    let args = parse_args();
    let names: Vec<&str> = hpa_core::workloads::WORKLOAD_NAMES.to_vec();

    let mut runs: Vec<ScaleRun> = Vec::new();
    for &(scale, scale_name) in &args.scales {
        eprintln!(
            "== cycle-loop throughput per scheme ({} workloads, {scale_name}) ==",
            THROUGHPUT_WORKLOADS.len()
        );
        let ws: Vec<Workload> = THROUGHPUT_WORKLOADS
            .iter()
            .map(|n| workload(n, scale).expect("known workload"))
            .collect();
        runs.push(ScaleRun { scale_name, rates: scheme_throughput(&ws, scale) });
    }

    // The matrix comparison runs on the first (headline) scale only.
    let (matrix_scale, matrix_scale_name) = args.scales[0];
    eprintln!(
        "== matrix wall time: serial vs parallel (jobs={}, {matrix_scale_name}) ==",
        args.jobs
    );
    let t0 = Instant::now();
    let matrix = |jobs| {
        let width = MachineWidth::Four;
        run_matrix(&names, matrix_scale, width, &MATRIX_SCHEMES, jobs, Observe::default(), |_| {})
            .unwrap_or_else(|e| panic!("{e}"))
    };
    let serial = matrix(1);
    let serial_s = t0.elapsed().as_secs_f64();
    eprintln!("  serial:   {serial_s:.2}s");
    let t0 = Instant::now();
    let parallel = matrix(args.jobs);
    let parallel_s = t0.elapsed().as_secs_f64();
    let speedup = if parallel_s > 0.0 { serial_s / parallel_s } else { 0.0 };
    eprintln!(
        "  parallel: {parallel_s:.2}s ({speedup:.2}x, bit-identical: {})",
        serial == parallel
    );
    assert_eq!(serial, parallel, "parallel matrix must be bit-identical to serial");

    // Observability overhead: pins the `Counters::disabled()` fast path.
    // Measured on the headline scale's throughput workloads, combined scheme.
    eprintln!("== observability overhead: counters off vs on ({matrix_scale_name}) ==");
    let obs_ws: Vec<Workload> = THROUGHPUT_WORKLOADS
        .iter()
        .map(|n| workload(n, matrix_scale).expect("known workload"))
        .collect();
    let obs = counters_overhead(&obs_ws);

    // Per-phase attribution: where the cycle loop's wall time actually
    // goes, counters off and on. Timed separately so the stopwatch reads
    // never contaminate the headline throughput above.
    eprintln!("== per-phase wall time (combined scheme, {matrix_scale_name}) ==");
    let phases_off = phase_profile(&obs_ws, false);
    let phases_on = phase_profile(&obs_ws, true);

    // Functional-emulator throughput: the fast-forward engine of the
    // sampled mode, measured over the same headline workloads.
    eprintln!("== functional emulator throughput ({matrix_scale_name}) ==");
    let emu_minsts = emu_throughput(&obs_ws);

    // Sampled vs full detailed, always at the long scale so the speedup
    // number means the same thing in every artifact.
    eprintln!("== sampled vs full detailed (long scale, 4-wide base) ==");
    let sampled = sampled_vs_full();
    let min_speedup = sampled.iter().map(SampledCompare::speedup).fold(f64::INFINITY, f64::min);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"hpa-perf-smoke-v5\",");
    let scale_names: Vec<String> = args.scales.iter().map(|(_, n)| format!("\"{n}\"")).collect();
    let _ = writeln!(json, "  \"scales\": [{}],", scale_names.join(", "));
    let _ = writeln!(json, "  \"host_parallelism\": {},", default_jobs());
    // Headline aggregate (first scale), before the per-scale sections so a
    // `grep -m1 aggregate_mcycles_per_sec` picks it up.
    let _ = writeln!(
        json,
        "  \"aggregate_mcycles_per_sec\": {:.3},",
        runs[0].aggregate_mcycles_per_sec()
    );
    let _ = writeln!(json, "  \"emu_minsts_per_sec\": {emu_minsts:.3},");
    let _ = writeln!(json, "  \"sampled_min_speedup\": {min_speedup:.3},");
    let _ = writeln!(json, "  \"runs\": [");
    for (j, run) in runs.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"scale\": \"{}\",", run.scale_name);
        let _ = writeln!(
            json,
            "      \"aggregate_mcycles_per_sec\": {:.3},",
            run.aggregate_mcycles_per_sec()
        );
        let _ = writeln!(json, "      \"scheme_throughput\": [");
        for (k, r) in run.rates.iter().enumerate() {
            let comma = if k + 1 == run.rates.len() { "" } else { "," };
            let _ = writeln!(
                json,
                "        {{\"scheme\": \"{}\", \"mcycles\": {:.3}, \"minsts\": {:.3}, \
                 \"wall_s\": {:.4}, \"mcycles_per_sec\": {:.3}}}{comma}",
                r.scheme,
                r.mcycles,
                r.minsts,
                r.wall_s,
                r.mcycles_per_sec()
            );
        }
        let _ = writeln!(json, "      ]");
        let _ = writeln!(json, "    }}{}", if j + 1 == runs.len() { "" } else { "," });
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"matrix\": {{");
    let _ = writeln!(json, "    \"scale\": \"{matrix_scale_name}\",");
    let _ = writeln!(json, "    \"workloads\": {},", names.len());
    let _ = writeln!(json, "    \"schemes\": {},", MATRIX_SCHEMES.len());
    let _ = writeln!(json, "    \"jobs\": {},", args.jobs);
    let _ = writeln!(json, "    \"serial_wall_s\": {serial_s:.3},");
    let _ = writeln!(json, "    \"parallel_wall_s\": {parallel_s:.3},");
    let _ = writeln!(json, "    \"speedup\": {speedup:.3},");
    let _ = writeln!(json, "    \"bit_identical\": true");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"observability\": {{");
    let _ = writeln!(json, "    \"scale\": \"{matrix_scale_name}\",");
    let _ = writeln!(json, "    \"counters_off_wall_s\": {:.4},", obs.off_wall_s);
    let _ = writeln!(json, "    \"counters_on_wall_s\": {:.4},", obs.on_wall_s);
    let _ = writeln!(json, "    \"overhead_ratio\": {:.4},", obs.ratio());
    let _ = writeln!(json, "    \"bit_identical\": true");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"phase_timings\": {{");
    let _ = writeln!(json, "    \"scale\": \"{matrix_scale_name}\",");
    write_phase_profile(&mut json, "counters_off", &phases_off, false);
    write_phase_profile(&mut json, "counters_on", &phases_on, true);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"sampled\": {{");
    let _ = writeln!(json, "    \"scale\": \"long\",");
    let (uw, ud, uf) = SAMPLED_UNITS;
    let _ = writeln!(json, "    \"units\": \"{uw}:{ud}:{uf}\",");
    let _ = writeln!(json, "    \"seed\": {SAMPLED_SEED},");
    let _ = writeln!(json, "    \"min_speedup\": {min_speedup:.3},");
    let _ = writeln!(json, "    \"workloads\": [");
    for (k, c) in sampled.iter().enumerate() {
        let comma = if k + 1 == sampled.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "      {{\"name\": \"{}\", \"full_ipc\": {:.4}, \"full_wall_s\": {:.3}, \
             \"sampled_mean_ipc\": {:.4}, \"ci_half_width\": {:.4}, \
             \"sampled_wall_s\": {:.3}, \"speedup\": {:.3}, \"rel_error\": {:.5}, \
             \"within_ci\": {}, \"samples\": {}, \"detail_fraction\": {:.5}}}{comma}",
            c.name,
            c.full_ipc,
            c.full_wall_s,
            c.est.mean_ipc,
            c.est.ci_half_width,
            c.sampled_wall_s,
            c.speedup(),
            c.est.rel_error(c.full_ipc),
            c.est.within_ci(c.full_ipc),
            c.est.samples.len(),
            c.est.detail_fraction()
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = write!(json, "  }}");
    if let Some(path) = &args.baseline {
        let base = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: reading baseline {path}: {e}");
            std::process::exit(2);
        });
        let _ = writeln!(json, ",");
        let _ = write!(json, "  \"baseline\": {}", indent_json(base.trim()));
    }
    let _ = writeln!(json);
    let _ = writeln!(json, "}}");

    std::fs::write(&args.out, &json).unwrap_or_else(|e| panic!("writing {}: {e}", args.out));
    eprintln!("wrote {}", args.out);
}

/// Re-indents an embedded JSON document two spaces so the merged artifact
/// stays readable.
fn indent_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for (k, line) in s.lines().enumerate() {
        if k > 0 {
            out.push('\n');
            out.push_str("  ");
        }
        out.push_str(line);
    }
    out
}
