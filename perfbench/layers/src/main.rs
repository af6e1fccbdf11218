//! Per-layer probe for the benchmark in `perfbench/`.
//!
//! Times calls into each layer crate's public functions and prints one
//! JSON object of raw records on stdout; `perfbench/hpabench` turns them
//! into metrics. Spans are taken around calls only (never inside a layer),
//! so the probe measures the layers as the `hpa` binary runs them.
//!
//! ```text
//! hpa-perfbench-layers figures <seconds> <seed>
//! hpa-perfbench-layers sampled <seconds> <seed> <W:D:F>
//! hpa-perfbench-layers serve-probe <seconds> <seed> <W:D:F>
//! ```

use hpa_core::emu::Emulator;
use hpa_core::rv::{fixtures, load_elf, translate};
use hpa_core::sim::{BranchWarmth, SampleUnits, SampledRunner, Simulator};
use hpa_core::workloads::{workload, Scale, SplitMix64, CHECKSUM_REG, WORKLOAD_NAMES};
use hpa_core::{MachineWidth, Scheme};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The schemes whose cells run with counters on, as in the CPI-stack
/// figures.
const CPI_SCHEMES: [Scheme; 4] =
    [Scheme::Base, Scheme::SeqWakeupPredictor, Scheme::SeqRegAccess, Scheme::Combined];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage =
        "usage: hpa-perfbench-layers <figures|sampled|serve-probe> <seconds> <seed> [W:D:F]";
    if args.len() < 3 {
        fail(usage);
    }
    let seconds: f64 = args[1].parse().unwrap_or_else(|_| fail("bad <seconds>"));
    let seed: u64 = args[2].parse().unwrap_or_else(|_| fail("bad <seed>"));
    let deadline = Instant::now() + Duration::from_secs_f64(seconds.max(0.0));
    let units =
        || SampleUnits::parse(args.get(3).map_or("", String::as_str)).unwrap_or_else(|e| fail(&e));
    let out = match args[0].as_str() {
        "figures" => figures(deadline, seed),
        "sampled" => sampled(deadline, seed, units()),
        "serve-probe" => serve_probe(deadline, seed, units()),
        _ => fail(usage),
    };
    println!("{out}");
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn secs(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64()
}

/// A seeded Fisher-Yates shuffle, so every pass visits operations in an
/// order the run's seed fixes.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Spans kept in memory and printed with the records when the probe ends:
/// name, start and end in seconds since the probe started, the parent
/// span's index, and the job (one operation repetition) it belongs to.
struct Spans {
    t0: Instant,
    list: Vec<(&'static str, f64, f64, Option<usize>, usize)>,
}

impl Spans {
    fn new() -> Spans {
        Spans { t0: Instant::now(), list: Vec::new() }
    }

    fn add(
        &mut self,
        name: &'static str,
        a: Instant,
        b: Instant,
        parent: Option<usize>,
        job: usize,
    ) -> usize {
        self.list.push((name, secs(self.t0, a), secs(self.t0, b), parent, job));
        self.list.len() - 1
    }

    /// Re-parents spans recorded before their parent was known.
    fn adopt(&mut self, children: std::ops::Range<usize>, parent: usize) {
        for c in children {
            self.list[c].3 = Some(parent);
        }
    }

    fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, (name, a, b, parent, job)) in self.list.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(out, "[\"{name}\",{a:.9},{b:.9},{parent},{job}]");
        }
        out.push(']');
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------- figures

#[derive(Clone, Copy)]
struct Cell {
    kernel: &'static str,
    scheme: Scheme,
    width: MachineWidth,
}

impl Cell {
    fn counters(self) -> bool {
        CPI_SCHEMES.contains(&self.scheme)
    }

    fn width_key(self) -> u32 {
        match self.width {
            MachineWidth::Four => 4,
            MachineWidth::Eight => 8,
        }
    }
}

/// How a cell repetition is timed.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// A span around each layer call.
    Traced,
    /// One span around the whole cell; the figure the traced one is
    /// compared with to give the tracing overhead.
    Untraced,
    /// Traced, with counters off on a cell that normally has them on.
    CountersOff,
}

impl Mode {
    fn key(self) -> &'static str {
        match self {
            Mode::Traced => "traced",
            Mode::Untraced => "untraced",
            Mode::CountersOff => "counters_off",
        }
    }
}

/// One figures cell the way `hpa bench` / `hpa counters` runs it: build
/// the workload, simulate it from cold modelled caches, verify the
/// checksum. Returns the repetition's JSON record.
fn run_cell(cell: Cell, mode: Mode, job: usize, spans: &mut Spans) -> String {
    let counters = cell.counters() && mode != Mode::CountersOff;
    let t0 = Instant::now();
    let w = workload(cell.kernel, Scale::Tiny).expect("figures kernels are registered");
    let t1 = Instant::now();
    let mut sim = Simulator::new(&w.program, cell.scheme.configure(cell.width));
    if counters {
        sim.enable_counters();
    }
    let t2 = Instant::now();
    let run = sim.try_run();
    let t3 = Instant::now();
    let checksum_ok = sim.emulator().reg(CHECKSUM_REG) == w.expected_checksum;
    let s = black_box(sim.stats());
    let t4 = Instant::now();
    let name = if mode == Mode::Untraced { "cell.untraced" } else { "cell" };
    let root = spans.add(name, t0, t4, None, job);
    if mode != Mode::Untraced {
        spans.add("workloads.build", t0, t1, Some(root), job);
        spans.add("sim.new", t1, t2, Some(root), job);
        spans.add("sim.run", t2, t3, Some(root), job);
        spans.add("verify", t3, t4, Some(root), job);
    }
    let error = match run {
        Err(fault) => Some(fault.to_string()),
        Ok(()) if !checksum_ok => Some("checksum mismatch".to_string()),
        Ok(()) => None,
    };
    format!(
        "{{\"job\":{job},\"kernel\":\"{}\",\"scheme\":\"{}\",\"width\":{},\"mode\":\"{}\",\
         \"counters\":{counters},\"cycles\":{},\"committed\":{},\"dl1_accesses\":{},\
         \"dl1_hits\":{},\"branches\":{},\"mispredicts\":{},\"error\":{}}}",
        cell.kernel,
        cell.scheme.key(),
        cell.width_key(),
        mode.key(),
        s.cycles,
        s.committed,
        s.hierarchy.dl1.accesses,
        s.hierarchy.dl1.hits,
        s.branches,
        s.branch_mispredicts,
        error.as_deref().map_or_else(|| "null".to_string(), json_str)
    )
}

/// Every (kernel, scheme, width) cell once, traced; then, while time
/// remains, each cell traced and untraced back to back (in a seeded
/// order), plus counters off right after for the CPI cells, so the
/// tracing overhead and the counters' cost come from adjacent pairs.
fn figures(deadline: Instant, seed: u64) -> String {
    let mut cells = Vec::new();
    for kernel in WORKLOAD_NAMES {
        for scheme in Scheme::ALL {
            for width in [MachineWidth::Four, MachineWidth::Eight] {
                cells.push(Cell { kernel, scheme, width });
            }
        }
    }
    let mut rng = SplitMix64::new(seed);
    let mut spans = Spans::new();
    let mut records = Vec::new();
    for pass in 0.. {
        shuffle(&mut cells, &mut rng);
        for &cell in &cells {
            if pass > 0 && Instant::now() >= deadline {
                break;
            }
            let modes: &[Mode] = match (pass, rng.below(2)) {
                (0, _) => &[Mode::Traced],
                (_, 0) => &[Mode::Traced, Mode::Untraced, Mode::CountersOff],
                _ => &[Mode::Untraced, Mode::Traced, Mode::CountersOff],
            };
            for &mode in modes {
                if mode == Mode::CountersOff && !cell.counters() {
                    continue;
                }
                let rec = run_cell(cell, mode, records.len(), &mut spans);
                records.push(format!("{{\"pass\":{pass},{}", &rec[1..]));
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    format!("{{\"records\":[{}],\"spans\":{}}}", records.join(","), spans.to_json())
}

// ---------------------------------------------------------------- sampled

/// One kernel's sampled run, mirroring `SampledRunner::run` step for
/// step with a span around each stretch: workload build, functional
/// fast-forward, snapshot, detailed window, catch-up, checksum.
fn sampled_kernel(
    name: &str,
    seed: u64,
    units: SampleUnits,
    job: usize,
    spans: &mut Spans,
) -> String {
    let SampleUnits { warmup, detail, ff } = units;
    let first = spans.list.len();
    let t_start = Instant::now();
    let w = workload(name, Scale::Long).expect("sampled kernels are registered");
    spans.add("workloads.build", t_start, Instant::now(), None, job);
    let config = Scheme::Base.configure(MachineWidth::Four);
    let mut emu = Emulator::new(&w.program);
    let mut warmth = BranchWarmth::cold();
    let (mut ff_insts, mut window_cycles) = (0u64, 0u64);
    let mut cpis = Vec::new();
    // The first unit's offset, derived from the seed as the runner does.
    let mut ff_budget = SplitMix64::new(seed).next_u64() % ff;
    let error = 'run: loop {
        // Fast-forward, then (after a window) catch-up: functional steps
        // that warm the branch tables.
        for (stretch, budget) in [("emu.ff", ff_budget), ("emu.catchup", warmup + detail)] {
            let t = Instant::now();
            let mut remaining = budget;
            let mut fault = None;
            while remaining > 0 {
                match emu.step() {
                    Ok(Some(step)) => warmth.observe(&step),
                    Ok(None) => break,
                    Err(e) => {
                        fault = Some(format!("emulator fault: {e}"));
                        break;
                    }
                }
                ff_insts += 1;
                remaining -= 1;
            }
            spans.add(stretch, t, Instant::now(), None, job);
            if fault.is_some() {
                break 'run fault;
            }
            if emu.halted() {
                break 'run None;
            }
            if stretch == "emu.ff" {
                let t = Instant::now();
                let snap = emu.snapshot();
                let t_snap = Instant::now();
                let window_config =
                    config.clone().with_warmup(warmup).with_max_insts(warmup + detail);
                let mut sim =
                    Simulator::from_snapshot(&w.program, window_config, &snap, warmth.clone());
                let run = sim.try_run().map(|()| (sim.stats().cycles, sim.stats().committed));
                drop(sim);
                let t_window = Instant::now();
                drop(snap);
                let t_freed = Instant::now();
                spans.add("emu.snapshot", t, t_snap, None, job);
                spans.add("sim.window", t_snap, t_window, None, job);
                spans.add("emu.snapshot", t_window, t_freed, None, job);
                match run {
                    Err(fault) => break 'run Some(fault.to_string()),
                    Ok((cycles, committed)) => {
                        window_cycles += cycles;
                        if committed > 0 {
                            cpis.push(cycles as f64 / committed as f64);
                        }
                    }
                }
            }
        }
        ff_budget = ff;
    };
    let t = Instant::now();
    let error = error.or_else(|| {
        let actual = emu.reg(CHECKSUM_REG);
        (actual != w.expected_checksum)
            .then(|| format!("checksum {actual:#x} != reference {:#x}", w.expected_checksum))
    });
    let t_end = Instant::now();
    spans.add("verify", t, t_end, None, job);
    let root = spans.add("kernel", t_start, t_end, None, job);
    spans.adopt(first..root, root);
    // The runner's estimate: the reciprocal of the mean per-window CPI.
    let mean_ipc =
        if cpis.is_empty() { 0.0 } else { 1.0 / (cpis.iter().sum::<f64>() / cpis.len() as f64) };
    format!(
        "{{\"job\":{job},\"kernel\":\"{name}\",\"executed\":{},\"functional_insts\":{ff_insts},\
         \"windows\":{},\"window_cycles\":{window_cycles},\"mean_ipc\":{mean_ipc:.9},\"error\":{}}}",
        emu.executed(),
        cpis.len(),
        error.as_deref().map_or_else(|| "null".to_string(), json_str)
    )
}

/// Every kernel once, traced; then, while time remains (at least one
/// pair), the cheapest kernels again as adjacent pairs: the library's own
/// `SampledRunner::run` (untraced) and the traced mirror, in a seeded
/// order, for the tracing overhead.
fn sampled(deadline: Instant, seed: u64, units: SampleUnits) -> String {
    let mut rng = SplitMix64::new(seed);
    let mut names = WORKLOAD_NAMES.to_vec();
    shuffle(&mut names, &mut rng);
    let mut spans = Spans::new();
    let mut records = Vec::new();
    let mut cost = Vec::new();
    for name in &names {
        let t = Instant::now();
        let rec = sampled_kernel(name, seed, units, records.len(), &mut spans);
        if rec.contains("\"error\":null") {
            cost.push((t.elapsed(), *name));
        }
        records.push(rec);
    }
    cost.sort();
    let runner =
        SampledRunner::new(Scheme::Base.configure(MachineWidth::Four), units).with_seed(seed);
    for (k, &(_, name)) in cost.iter().enumerate() {
        if k > 0 && Instant::now() >= deadline {
            break;
        }
        let untraced_first = rng.below(2) == 0;
        for traced in [!untraced_first, untraced_first] {
            let job = records.len();
            let rec = if traced {
                sampled_kernel(name, seed, units, job, &mut spans)
            } else {
                let t = Instant::now();
                let w = workload(name, Scale::Long).expect("sampled kernels are registered");
                let ok = runner
                    .run(&w.program)
                    .is_ok_and(|o| o.emulator.reg(CHECKSUM_REG) == w.expected_checksum);
                spans.add("kernel.untraced", t, Instant::now(), None, job);
                format!("{{\"job\":{job},\"kernel\":\"{name}\",\"untraced\":true,\"ok\":{ok}}}")
            };
            records.push(format!("{{\"pair\":{k},{}", &rec[1..]));
        }
    }
    format!("{{\"records\":[{}],\"spans\":{}}}", records.join(","), spans.to_json())
}

// ---------------------------------------------------------------- serve

/// Direct calls behind a daemon submit: the workload rebuild and
/// `cell_key` for the Long sampled programs, and ELF load + translate for
/// the RISC-V fixtures. Fastest of the repetitions that fit the budget.
fn serve_probe(deadline: Instant, seed: u64, units: SampleUnits) -> String {
    let config = Scheme::Base.configure(MachineWidth::Four);
    let mut long = Vec::new();
    for name in ["mcf", "crafty", "eon"] {
        let (mut build, mut key) = (f64::INFINITY, f64::INFINITY);
        for rep in 0..5 {
            if rep > 0 && Instant::now() >= deadline {
                break;
            }
            let t0 = Instant::now();
            let w = workload(name, Scale::Long).expect("registered");
            let t1 = Instant::now();
            black_box(hpa_serve::cell_key(&w.program, &config, Scheme::Base, seed, Some(units)));
            let t2 = Instant::now();
            build = build.min(secs(t0, t1));
            key = key.min(secs(t1, t2));
        }
        long.push(format!(
            "{{\"kernel\":\"{name}\",\"build_s\":{build:.9},\"cell_key_s\":{key:.9}}}"
        ));
    }
    let mut rv = Vec::new();
    for f in fixtures::all() {
        let mut best = f64::INFINITY;
        for _ in 0..200 {
            let t = Instant::now();
            let image = load_elf(black_box(&f.elf)).expect("fixture ELFs load");
            black_box(translate(&image).expect("fixture ELFs translate"));
            best = best.min(secs(t, Instant::now()));
        }
        rv.push(format!("{{\"fixture\":\"{}\",\"translate_s\":{best:.9}}}", f.name));
    }
    format!("{{\"long\":[{}],\"rv\":[{}]}}", long.join(","), rv.join(","))
}
