//! Regenerates Figure 15: IPC of sequential register access, an extra RF
//! stage, and a half-ported crossbar register file, normalized to base.
use hpa_bench::HarnessArgs;
use hpa_core::{report, run_matrix, Observe, Scheme};

const SCHEMES: [Scheme; 4] =
    [Scheme::Base, Scheme::SeqRegAccess, Scheme::ExtraRfStage, Scheme::HalfPortsCrossbar];

fn main() {
    let args = HarnessArgs::parse();
    for &width in &args.widths {
        let m = run_matrix(
            &args.benches,
            args.scale,
            width,
            &SCHEMES,
            args.jobs,
            Observe::default(),
            |r| {
                eprintln!("  {} / {} : ipc {:.3}", r.workload, r.scheme.label(), r.stats.ipc());
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let title = format!("Figure 15: register file schemes [{}]", width.label());
        println!("{}", report::normalized_ipc_figure(&title, &m, &SCHEMES[1..]));
    }
}
