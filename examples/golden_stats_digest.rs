//! Prints the stats digest table consumed by `tests/stats_golden.rs`.
//!
//! The digest is an FNV-1a hash of the full `SimStats` debug formatting, so
//! any counter change — IPC, histograms, predictor accuracy — changes the
//! digest. Run after an intentional behavior change and paste the output
//! over the `GOLDEN` table in the test:
//!
//! ```text
//! cargo run --release --example golden_stats_digest
//! ```

use half_price::obs::digest::debug_digest as digest;
use half_price::sim::SampleUnits;
use half_price::workloads::{workload, Scale};
use half_price::{run, MachineWidth, Observe, RunMode, RunResult, RunSpec, Scheme};

/// Schemes whose observability registry is pinned (kept in sync with
/// `COUNTER_GOLDEN` in `tests/stats_golden.rs`).
const COUNTER_SCHEMES: [Scheme; 4] =
    [Scheme::Base, Scheme::SeqWakeupPredictor, Scheme::SeqRegAccess, Scheme::Combined];

/// Runs a built-in tiny workload on the 4-wide machine, checksum-verified.
fn run_tiny(name: &str, scheme: Scheme, mode: RunMode) -> RunResult {
    let w = workload(name, Scale::Tiny).expect("built-in workload");
    run(&RunSpec { mode, ..RunSpec::workload(&w, scheme, MachineWidth::Four) })
        .unwrap_or_else(|e| panic!("{e}"))
}

fn main() {
    println!("const GOLDEN: [(&str, Scheme, u64); 24] = [");
    for name in ["gap", "mcf", "perl"] {
        for scheme in Scheme::ALL {
            let r = run_tiny(name, scheme, RunMode::Full(Observe::default()));
            println!("    (\"{name}\", Scheme::{scheme:?}, {:#018x}),", digest(&r.stats));
        }
    }
    println!("];\n");
    println!("const COUNTER_GOLDEN: [(&str, Scheme, u64); 12] = [");
    for name in ["gap", "mcf", "perl"] {
        for scheme in COUNTER_SCHEMES {
            let observe = Observe { counters: true, ..Observe::default() };
            let r = run_tiny(name, scheme, RunMode::Full(observe));
            let c = r.counters.expect("observed run records counters");
            println!("    (\"{name}\", Scheme::{scheme:?}, {:#018x}),", digest(&c));
        }
    }
    println!("];\n");
    println!("const RISCV_GOLDEN: [(&str, Scheme, u64); 12] = [");
    for name in half_price::workloads::RISCV_WORKLOAD_NAMES {
        for scheme in COUNTER_SCHEMES {
            let r = run_tiny(name, scheme, RunMode::Full(Observe::default()));
            println!("    (\"{name}\", Scheme::{scheme:?}, {:#018x}),", digest(&r.stats));
        }
    }
    println!("];\n");
    let units = SampleUnits::parse("500:2000:7500").expect("valid units");
    let r = run_tiny("gcc", Scheme::Base, RunMode::Sampled { units, seed: 42 });
    let est = r.sampled.expect("sampled run records an estimate");
    println!("const SAMPLED_GOLDEN: u64 = {:#018x};", digest(&est));
}
