//! Full operand-level characterization of one benchmark — everything the
//! paper's Figures 2–10 measure, from a single base-machine run.
//!
//! ```text
//! cargo run --release --example characterize [bench]
//! ```

use half_price::workloads::{workload, Scale};
use half_price::{run, MachineWidth, RunError, RunSpec, Scheme};

fn main() -> Result<(), RunError> {
    let bench = std::env::args().nth(1).unwrap_or_else(|| "parser".to_string());
    let w = workload(&bench, Scale::Default)
        .ok_or(RunError::UnknownWorkload { name: bench.clone() })?;
    let r = run(&RunSpec::workload(&w, Scheme::Base, MachineWidth::Four))?;
    let s = &r.stats;
    let f = &s.format;
    let total = f.total() as f64;
    let pc = |n: u64| n as f64 / total * 100.0;

    println!(
        "`{bench}` on the 4-wide base machine: {} insts, {} cycles, IPC {:.3}\n",
        s.committed,
        s.cycles,
        s.ipc()
    );

    println!("instruction format mix (Figures 2-3):");
    println!("  0-source format        {:5.1}%", pc(f.zero_src));
    println!("  1-source format        {:5.1}%", pc(f.one_src));
    println!("  2-source format        {:5.1}%", pc(f.two_src));
    println!(
        "    with 2 unique sources{:5.1}%   <- the 2-source instructions",
        pc(f.two_src_two_unique)
    );
    println!("    zero-reg/duplicate   {:5.1}%", pc(f.two_src_one_unique));
    println!("  stores                 {:5.1}%", pc(f.stores));
    println!("  alignment nops         {:5.1}%  (eliminated at decode)", pc(f.nops));

    let rt: u64 = s.ready_at_insert.iter().sum();
    println!("\noperand readiness at scheduler insert (Figure 4, of 2-source insts):");
    for (k, n) in s.ready_at_insert.iter().enumerate() {
        println!("  {k} ready: {:5.1}%", *n as f64 / rt.max(1) as f64 * 100.0);
    }

    let wt: u64 = s.wakeup_slack.iter().sum();
    println!("\nwakeup slack of 2-pending-source insts (Figure 6):");
    for (k, n) in s.wakeup_slack.iter().enumerate() {
        let label = if k == 3 { "3+".to_string() } else { k.to_string() };
        println!("  {label:>2} cycles: {:5.1}%", *n as f64 / wt.max(1) as f64 * 100.0);
    }

    println!("\nlast-arriving operand predictability (Table 3 / Figure 7):");
    let o = &s.wakeup_order;
    let hist = (o.same_as_last + o.diff_from_last).max(1);
    println!(
        "  wakeup order same as last instance: {:5.1}%",
        o.same_as_last as f64 / hist as f64 * 100.0
    );
    for (entries, la) in &s.last_arrival {
        println!("  {entries:>5}-entry predictor accuracy: {:5.1}%", la.accuracy() * 100.0);
    }

    println!("\nregister-read demand (Figure 10, % of committed insts):");
    let c = s.committed.max(1) as f64;
    println!("  back-to-back issue (bypass)  {:5.1}%", s.rf_back_to_back as f64 / c * 100.0);
    println!("  2 ready at insert            {:5.1}%", s.rf_two_ready as f64 / c * 100.0);
    println!("  non-back-to-back             {:5.1}%", s.rf_non_back_to_back as f64 / c * 100.0);
    println!("  => need two read ports       {:5.1}%", s.two_port_fraction() * 100.0);

    println!("\nmemory & control:");
    println!("  DL1 miss rate    {:5.2}%", s.hierarchy.dl1.miss_rate() * 100.0);
    println!("  L2 miss rate     {:5.2}%", s.hierarchy.l2.miss_rate() * 100.0);
    println!("  branch mispredict{:5.2}%", s.mispredict_rate() * 100.0);
    println!("  load-miss replays{:>7}", s.load_miss_replays);

    println!("\npipeline utilization:");
    println!("  avg RUU occupancy {:.1} / 64", s.avg_window_occupancy());
    println!("  idle issue cycles {:.1}%", s.idle_issue_fraction() * 100.0);
    for (k, n) in s.issue_histogram.iter().enumerate() {
        println!("    issued {k}: {:5.1}%", *n as f64 / s.cycles.max(1) as f64 * 100.0);
    }
    Ok(())
}
