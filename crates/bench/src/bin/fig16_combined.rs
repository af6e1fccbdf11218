//! Regenerates Figure 16: the combined half-price architecture
//! (sequential wakeup + sequential register access), normalized to base.
use hpa_bench::HarnessArgs;
use hpa_core::{report, run_matrix, Observe, Scheme};

const SCHEMES: [Scheme; 2] = [Scheme::Base, Scheme::Combined];

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
        let title = format!("Figure 16: combined half-price architecture [{}]", width.label());
        println!("{}", report::normalized_ipc_figure(&title, &m, &SCHEMES[1..]));
        println!(
            "average degradation {:.1}%, worst {} {:.1}%\n",
            m.average_degradation(Scheme::Combined) * 100.0,
            m.worst_degradation(Scheme::Combined).map(|(n, _)| n).unwrap_or("-"),
            m.worst_degradation(Scheme::Combined).map(|(_, d)| d * 100.0).unwrap_or(0.0),
        );
    }
}
