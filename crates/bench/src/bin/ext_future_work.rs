//! Extension experiment (paper §6 future work): half-price **register
//! renaming** and half-price **bypass logic**, the two directions the
//! paper names for its "operand-centric" end goal, evaluated with the
//! same methodology as Figures 14–16.
use hpa_bench::{run_config, HarnessArgs};
use hpa_core::report::Table;
use hpa_core::sim::{BypassScheme, RenameScheme};
use hpa_core::workloads::workload;

fn main() {
    let args = HarnessArgs::parse();
    for &width in &args.widths {
        let mut t = Table::new(
            format!("Future-work extensions: half-price rename & bypass [{}]", width.label()),
            &[
                "bench",
                "base IPC",
                "half rename",
                "half bypass",
                "all half-price",
                "rename stalls",
                "bypass defers",
            ],
        );
        for name in &args.benches {
            let w = workload(name, args.scale).expect("known name");
            let run = |cfg| run_config(&w, width, cfg);
            let base = run(width.base_config());
            let rename = run(width.base_config().with_rename(RenameScheme::HalfPorts));
            let bypass = run(width.base_config().with_bypass(BypassScheme::HalfPaths));
            // The full "operand-centric" machine: every 2-operand structure
            // halved at once (scheduling + RF + rename + bypass).
            let all = run(hpa_core::Scheme::Combined
                .configure(width)
                .with_rename(RenameScheme::HalfPorts)
                .with_bypass(BypassScheme::HalfPaths));
            t.push_row(vec![
                (*name).to_string(),
                format!("{:.3}", base.ipc()),
                format!("{:.3}", rename.ipc() / base.ipc()),
                format!("{:.3}", bypass.ipc() / base.ipc()),
                format!("{:.3}", all.ipc() / base.ipc()),
                rename.rename_port_stalls.to_string(),
                bypass.bypass_deferrals.to_string(),
            ]);
            eprintln!("  {name} done");
        }
        println!("{t}");
    }
}
