//! Regenerates Figure 14: IPC of sequential wakeup (with and without the
//! last-arriving predictor) and tag elimination, normalized to base.
use hpa_bench::HarnessArgs;
use hpa_core::{report, run_matrix, Observe, Scheme};

const SCHEMES: [Scheme; 4] =
    [Scheme::Base, Scheme::SeqWakeupPredictor, Scheme::TagElimination, Scheme::SeqWakeupStatic];

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
        let title = format!("Figure 14: sequential wakeup vs tag elimination [{}]", width.label());
        println!("{}", report::normalized_ipc_figure(&title, &m, &SCHEMES[1..]));
    }
}
