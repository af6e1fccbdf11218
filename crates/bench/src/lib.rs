//! # hpa-bench — shared plumbing for the experiment harness binaries
//!
//! Each `src/bin/*` binary regenerates one table or figure of the paper
//! (see `DESIGN.md` §4 for the index). All binaries accept:
//!
//! ```text
//! --scale tiny|default|large|long   simulation length per benchmark
//! --width 4|8|both             machine width(s) to simulate
//! --bench <name>...            subset of benchmarks (default: all 12)
//! --jobs N                     worker threads for matrix sweeps
//!                              (default: host parallelism)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hpa_core::sim::{SimConfig, SimStats};
use hpa_core::workloads::{workload, Scale, Workload, WORKLOAD_NAMES};
use hpa_core::{run, MachineWidth, RunSpec, Scheme};

pub mod microbench;

/// Parsed command-line options shared by every harness binary.
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    /// Simulation scale.
    pub scale: Scale,
    /// Widths to simulate.
    pub widths: Vec<MachineWidth>,
    /// Benchmarks to run.
    pub benches: Vec<&'static str>,
    /// Worker threads for `benchmarks × schemes` sweeps.
    pub jobs: usize,
}

impl HarnessArgs {
    /// Parses `std::env::args`, exiting with a usage message on errors.
    #[must_use]
    pub fn parse() -> HarnessArgs {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        HarnessArgs::parse_from(&argv)
    }

    /// Parses an explicit argument list (see [`HarnessArgs::parse`]).
    #[must_use]
    pub fn parse_from(argv: &[String]) -> HarnessArgs {
        let mut args = HarnessArgs {
            scale: Scale::Default,
            widths: vec![MachineWidth::Four, MachineWidth::Eight],
            benches: WORKLOAD_NAMES.to_vec(),
            jobs: hpa_core::default_jobs(),
        };
        let mut it = argv.iter().map(String::as_str);
        let mut benches: Vec<&'static str> = Vec::new();
        while let Some(a) = it.next() {
            match a {
                "--scale" => {
                    args.scale = match it.next() {
                        Some("tiny") => Scale::Tiny,
                        Some("default") => Scale::Default,
                        Some("large") => Scale::Large,
                        Some("long") => Scale::Long,
                        other => usage(&format!("bad --scale {other:?}")),
                    }
                }
                "--width" => {
                    args.widths = match it.next() {
                        Some("4") => vec![MachineWidth::Four],
                        Some("8") => vec![MachineWidth::Eight],
                        Some("both") => vec![MachineWidth::Four, MachineWidth::Eight],
                        other => usage(&format!("bad --width {other:?}")),
                    }
                }
                "--bench" => {
                    let name = it.next().unwrap_or_default();
                    match WORKLOAD_NAMES.iter().find(|n| **n == name) {
                        Some(n) => benches.push(n),
                        None => usage(&format!("unknown benchmark `{name}`")),
                    }
                }
                "--jobs" => {
                    args.jobs = match it.next().and_then(|v| v.parse().ok()) {
                        Some(n) if n >= 1 => n,
                        _ => usage("bad --jobs (want an integer >= 1)"),
                    }
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown option `{other}`")),
            }
        }
        if !benches.is_empty() {
            args.benches = benches;
        }
        args
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: <bin> [--scale tiny|default|large|long] [--width 4|8|both] [--bench NAME]... [--jobs N]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Runs the base machine over the selected benchmarks at one width,
/// returning `(name, stats)` pairs for the characterization figures.
#[must_use]
pub fn base_runs(args: &HarnessArgs, width: MachineWidth) -> Vec<(&'static str, SimStats)> {
    args.benches
        .iter()
        .map(|name| {
            eprint!("  {name} ({})...", width.label());
            let w = workload(name, args.scale).expect("HarnessArgs holds known names only");
            let stats = run_config(&w, width, Scheme::Base.configure(width));
            eprintln!(" ipc {:.3}", stats.ipc());
            (*name, stats)
        })
        .collect()
}

/// Runs one workload under an explicit configuration (the base machine or
/// an ablation's design point), checksum-verified, panicking on a fault
/// or checksum mismatch since those are not recoverable mid-experiment.
#[must_use]
pub fn run_config(w: &Workload, width: MachineWidth, config: SimConfig) -> SimStats {
    let spec = RunSpec { config, ..RunSpec::workload(w, Scheme::Base, width) };
    run(&spec).unwrap_or_else(|e| panic!("{e}")).stats
}

/// Borrows `(name, stats)` pairs in the form the report functions take.
#[must_use]
pub fn as_refs<'a>(runs: &'a [(&'a str, SimStats)]) -> Vec<(&'a str, &'a SimStats)> {
    runs.iter().map(|(n, s)| (*n, s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn defaults_cover_everything() {
        let a = HarnessArgs::parse_from(&[]);
        assert_eq!(a.scale, Scale::Default);
        assert_eq!(a.widths, vec![MachineWidth::Four, MachineWidth::Eight]);
        assert_eq!(a.benches.len(), 12);
    }

    #[test]
    fn scale_width_and_bench_filters() {
        let a = HarnessArgs::parse_from(&sv(&[
            "--scale", "tiny", "--width", "8", "--bench", "mcf", "--bench", "gcc",
        ]));
        assert_eq!(a.scale, Scale::Tiny);
        assert_eq!(a.widths, vec![MachineWidth::Eight]);
        assert_eq!(a.benches, vec!["mcf", "gcc"]);
        let b = HarnessArgs::parse_from(&sv(&["--width", "both", "--scale", "large"]));
        assert_eq!(b.widths.len(), 2);
        assert_eq!(b.scale, Scale::Large);
    }

    #[test]
    fn jobs_flag_overrides_host_parallelism() {
        let a = HarnessArgs::parse_from(&sv(&["--jobs", "3"]));
        assert_eq!(a.jobs, 3);
        assert!(HarnessArgs::parse_from(&[]).jobs >= 1);
    }

    #[test]
    fn as_refs_preserves_order() {
        use hpa_core::sim::SimStats;
        let runs = vec![("a", SimStats::default()), ("b", SimStats::default())];
        let refs = as_refs(&runs);
        assert_eq!(refs.len(), 2);
        assert_eq!(refs[0].0, "a");
        assert_eq!(refs[1].0, "b");
    }
}
