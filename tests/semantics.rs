//! The cardinal invariant: no scheduling or register-file scheme ever
//! changes what a program computes — timing models only move cycles.
//! Every workload runs under every scheme and must produce the reference
//! checksum and the same committed-instruction count.

use half_price::sim::SimConfig;
use half_price::workloads::{workload, Scale, WORKLOAD_NAMES};
use half_price::{run, MachineWidth, RunResult, RunSpec, Scheme};

/// Runs a built-in tiny workload; `run` returns Err on a checksum
/// mismatch, which fails the test naming the cell.
fn run_tiny(name: &str, scheme: Scheme, width: MachineWidth, config: SimConfig) -> RunResult {
    let w = workload(name, Scale::Tiny).expect("built-in workload");
    run(&RunSpec { config, ..RunSpec::workload(&w, scheme, width) })
        .unwrap_or_else(|e| panic!("{name}/{scheme:?}: {e}"))
}

#[test]
fn every_scheme_preserves_semantics_on_every_workload() {
    for name in WORKLOAD_NAMES {
        let mut committed = None;
        for scheme in Scheme::ALL {
            let r =
                run_tiny(name, scheme, MachineWidth::Four, scheme.configure(MachineWidth::Four));
            match committed {
                None => committed = Some(r.stats.committed),
                Some(c) => {
                    assert_eq!(r.stats.committed, c, "{name}/{scheme:?}: committed count diverged")
                }
            }
            assert!(r.stats.ipc() > 0.0, "{name}/{scheme:?}");
        }
    }
}

#[test]
fn eight_wide_machine_preserves_semantics() {
    for name in WORKLOAD_NAMES {
        for scheme in [Scheme::Base, Scheme::Combined] {
            let _ =
                run_tiny(name, scheme, MachineWidth::Eight, scheme.configure(MachineWidth::Eight));
        }
    }
}

#[test]
fn selective_recovery_preserves_semantics() {
    use half_price::sim::RecoveryKind;
    for name in ["mcf", "gap", "vpr"] {
        let cfg = MachineWidth::Four.base_config().with_recovery(RecoveryKind::Selective);
        let _ = run_tiny(name, Scheme::Base, MachineWidth::Four, cfg);
    }
}
