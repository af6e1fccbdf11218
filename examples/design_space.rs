//! Design-space exploration: where does the half-price trade pay off?
//!
//! The paper argues the techniques trade a few percent of IPC for a faster
//! clock on the wakeup and register-file paths. This example combines the
//! measured IPC cost with the analytic circuit models to estimate the
//! *net* performance (IPC × frequency) of the half-price machine across
//! scheduler window sizes, assuming the wakeup loop sets the cycle time.
//!
//! ```text
//! cargo run --release --example design_space [bench]
//! ```

use half_price::circuits::WakeupDelayModel;
use half_price::sim::{SimConfig, WakeupScheme};
use half_price::workloads::{workload, Scale, Workload};
use half_price::{run, MachineWidth, RunSpec, Scheme};

fn ipc_of(config: SimConfig, w: &Workload) -> f64 {
    let spec = RunSpec { config, ..RunSpec::workload(w, Scheme::Base, MachineWidth::Four) };
    run(&spec).unwrap_or_else(|e| panic!("{e}")).stats.ipc()
}

fn main() {
    let bench = std::env::args().nth(1).unwrap_or_else(|| "parser".to_string());
    let w = workload(&bench, Scale::Default).expect("known benchmark");
    let model = WakeupDelayModel::calibrated_018um();

    println!("`{bench}`: net performance if the wakeup loop sets the clock\n");
    println!(
        "{:>7} {:>10} {:>10} {:>11} {:>11} {:>9}",
        "window", "IPC base", "IPC seq", "clk base", "clk seq", "net gain"
    );
    for window in [32usize, 64, 128] {
        let mut base_cfg = SimConfig::four_wide();
        base_cfg.ruu_size = window;
        base_cfg.lsq_size = window / 2;
        let seq_cfg = base_cfg
            .clone()
            .with_wakeup(WakeupScheme::SequentialWakeup { predictor_entries: Some(1024) });

        let ipc_base = ipc_of(base_cfg, &w);
        let ipc_seq = ipc_of(seq_cfg, &w);
        // Frequency in GHz implied by the wakeup delay (1e3/ps).
        let f_base = 1000.0 / model.conventional(window as u32, 4);
        let f_seq = 1000.0 / model.sequential_wakeup(window as u32, 4);
        let net = (ipc_seq * f_seq) / (ipc_base * f_base) - 1.0;
        println!(
            "{:>7} {:>10.3} {:>10.3} {:>8.2}GHz {:>8.2}GHz {:>+8.1}%",
            window,
            ipc_base,
            ipc_seq,
            f_base,
            f_seq,
            net * 100.0
        );
    }
    println!(
        "\nThe IPC cost of sequential wakeup stays flat while the circuit\n\
         benefit grows with window size — the paper's core trade."
    );
}
