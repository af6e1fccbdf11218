//! Quickstart: simulate one benchmark on the base machine and under the
//! combined half-price architecture, and print the comparison.
//!
//! ```text
//! cargo run --release --example quickstart [bench]
//! ```

use half_price::workloads::{workload, Scale};
use half_price::{run, MachineWidth, RunError, RunSpec, Scheme};

fn main() -> Result<(), RunError> {
    let bench = std::env::args().nth(1).unwrap_or_else(|| "bzip".to_string());

    println!("simulating `{bench}` on the paper's 4-wide machine (Table 1)...\n");
    let w = workload(&bench, Scale::Default)
        .ok_or(RunError::UnknownWorkload { name: bench.clone() })?;
    let base = run(&RunSpec::workload(&w, Scheme::Base, MachineWidth::Four))?;
    let half = run(&RunSpec::workload(&w, Scheme::Combined, MachineWidth::Four))?;

    let b = &base.stats;
    let h = &half.stats;
    println!("committed instructions : {}", b.committed);
    println!("base machine           : {} cycles, IPC {:.3}", b.cycles, b.ipc());
    println!(
        "half-price architecture: {} cycles, IPC {:.3}  (sequential wakeup + sequential RF)",
        h.cycles,
        h.ipc()
    );
    println!(
        "IPC cost of halving the wakeup bus load and the register read ports: {:.2}%",
        (1.0 - h.ipc() / b.ipc()) * 100.0
    );
    println!();
    println!("half-price event counts:");
    println!("  sequential register accesses : {}", h.seq_rf_accesses);
    println!("  slow-side last arrivals      : {}", h.seq_wakeup_slow_last);
    println!("  simultaneous dual wakeups    : {}", h.simultaneous_wakeups);
    println!();
    println!("what the paper buys with that:");
    let w = half_price::circuits::WakeupDelayModel::calibrated_018um();
    let r = half_price::circuits::RegFileDelayModel::calibrated_018um();
    println!(
        "  wakeup logic  {:.0} ps -> {:.0} ps ({:.1}% faster clock path)",
        w.conventional(64, 4),
        w.sequential_wakeup(64, 4),
        w.speedup(64, 4) * 100.0
    );
    println!(
        "  register file {:.2} ns -> {:.2} ns ({:.1}% faster access)",
        r.conventional(160, 8) / 1000.0,
        r.sequential_access(160, 8) / 1000.0,
        r.reduction(160, 8) * 100.0
    );
    Ok(())
}
