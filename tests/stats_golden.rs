//! Before/after stats equivalence for scheduler-core rewrites.
//!
//! The `GOLDEN` table pins an FNV-1a digest of the full `SimStats` debug
//! formatting — every counter, histogram and predictor-accuracy field —
//! for three workloads under every scheme, captured from the pre-
//! event-driven scheduler (PR 1). Any rewrite of wakeup/select, the LSQ
//! walk or the PC-indexed tables must keep all of them bit-identical.
//!
//! Regenerate (only after an *intentional* timing change) with
//! `cargo run --release --example golden_stats_digest`.

use half_price::obs::digest::debug_digest as digest;
use half_price::sim::SampleUnits;
use half_price::workloads::workload;
use half_price::workloads::Scale;
use half_price::{run, MachineWidth, Observe, RunMode, RunResult, RunSpec, Scheme};

const GOLDEN: [(&str, Scheme, u64); 24] = [
    ("gap", Scheme::Base, 0xb63cdac63665bc31),
    ("gap", Scheme::SeqWakeupPredictor, 0xa56ef9aff220785f),
    ("gap", Scheme::SeqWakeupStatic, 0x22c87c0d608e2cd9),
    ("gap", Scheme::TagElimination, 0xca541eb69d1c3a3e),
    ("gap", Scheme::SeqRegAccess, 0x143765ed2cc76e15),
    ("gap", Scheme::ExtraRfStage, 0x3a7d317aa9cbe9b9),
    ("gap", Scheme::HalfPortsCrossbar, 0x5d554b5313a83fb3),
    ("gap", Scheme::Combined, 0x4d92144ef73e7df4),
    ("mcf", Scheme::Base, 0xa1026ee4190746b9),
    ("mcf", Scheme::SeqWakeupPredictor, 0xd951a37132153a4c),
    ("mcf", Scheme::SeqWakeupStatic, 0xda51d899da435981),
    ("mcf", Scheme::TagElimination, 0x14da699664f99aaa),
    ("mcf", Scheme::SeqRegAccess, 0xede5532b5c5b9996),
    ("mcf", Scheme::ExtraRfStage, 0x9a766e7d024059f8),
    ("mcf", Scheme::HalfPortsCrossbar, 0x42a2e0ae47cd0f9d),
    ("mcf", Scheme::Combined, 0x688767037a51ccf6),
    ("perl", Scheme::Base, 0xb2f91c3806326787),
    ("perl", Scheme::SeqWakeupPredictor, 0xaf3e24033872033d),
    ("perl", Scheme::SeqWakeupStatic, 0xb447f36a9104338b),
    ("perl", Scheme::TagElimination, 0x3b7714d59e8a8acf),
    ("perl", Scheme::SeqRegAccess, 0x25d17ec6c5ab440b),
    ("perl", Scheme::ExtraRfStage, 0x7982a9eaf7a15ba2),
    ("perl", Scheme::HalfPortsCrossbar, 0xb2f91c3806326787),
    ("perl", Scheme::Combined, 0x47b7840ad890c063),
];

/// Digests of the observability registry (`Counters` debug formatting:
/// CPI stack, delay/occupancy histograms, re-read counter) for the
/// schemes the CPI-stack evaluation reports. Captured when the
/// observability layer landed; regenerate with the same example.
const COUNTER_GOLDEN: [(&str, Scheme, u64); 12] = [
    ("gap", Scheme::Base, 0x1ac7b4abd9090148),
    ("gap", Scheme::SeqWakeupPredictor, 0x0b796c71d57a0945),
    ("gap", Scheme::SeqRegAccess, 0xc618fa6f5d013963),
    ("gap", Scheme::Combined, 0x5c700ff87f8d582f),
    ("mcf", Scheme::Base, 0x9d3554d8abe9af5b),
    ("mcf", Scheme::SeqWakeupPredictor, 0x6fb236d48962e52c),
    ("mcf", Scheme::SeqRegAccess, 0xe28ea24fe4e95e4f),
    ("mcf", Scheme::Combined, 0xf8bfd0dca905b07d),
    ("perl", Scheme::Base, 0x5b59ca3999032589),
    ("perl", Scheme::SeqWakeupPredictor, 0xdbda8882a38d0fed),
    ("perl", Scheme::SeqRegAccess, 0x8348ddce3a7e6045),
    ("perl", Scheme::Combined, 0x612147d326218a57),
];

/// Digests for the real-binary RISC-V workloads (checked-in fixture ELFs
/// translated by the `hpa-rv` frontend) under the base machine and the
/// paper's three headline half-price configurations. Pins the whole
/// frontend: a decode, translation or ABI-shim change moves these.
const RISCV_GOLDEN: [(&str, Scheme, u64); 12] = [
    ("rv-quicksort", Scheme::Base, 0x29306637d1764c41),
    ("rv-quicksort", Scheme::SeqWakeupPredictor, 0x2cb304d78713b717),
    ("rv-quicksort", Scheme::SeqRegAccess, 0xa429ab8a0446aeb0),
    ("rv-quicksort", Scheme::Combined, 0x6f3362dcb471f73f),
    ("rv-matmul", Scheme::Base, 0x4f3c4aba62bea02e),
    ("rv-matmul", Scheme::SeqWakeupPredictor, 0xa7ef0370d16be4d8),
    ("rv-matmul", Scheme::SeqRegAccess, 0x24844db3ddea91a6),
    ("rv-matmul", Scheme::Combined, 0xbcbf62fb1c83c145),
    ("rv-sieve", Scheme::Base, 0x726c8560d23f8b3e),
    ("rv-sieve", Scheme::SeqWakeupPredictor, 0xa7efadf75172edd6),
    ("rv-sieve", Scheme::SeqRegAccess, 0xc0199a50f89ff629),
    ("rv-sieve", Scheme::Combined, 0x470404a40abf7387),
];

/// Digest of one fixed sampled run (`gcc` tiny, 4-wide base, units
/// 500:2000:7500, seed 42) over the full `SampledEstimate` debug
/// formatting — window placement, every per-sample (committed, cycles)
/// pair, the mean and the confidence interval. Pins the sampling walk
/// itself: a change to snapshot placement, warmup accounting or the
/// estimator moves this digest even when full-detail digests hold.
const SAMPLED_GOLDEN: u64 = 0xe055df6842f1f446;

/// Runs a built-in tiny workload on the 4-wide machine, checksum-verified.
fn run_tiny(name: &str, scheme: Scheme, mode: RunMode) -> RunResult {
    let w = workload(name, Scale::Tiny).expect("built-in workload");
    run(&RunSpec { mode, ..RunSpec::workload(&w, scheme, MachineWidth::Four) })
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Every scheme's full statistics stay bit-identical to the pre-rewrite
/// scheduler, for a compute-bound, a memory-bound and a branchy workload.
#[test]
fn stats_match_pre_rewrite_golden_digests() {
    let mut failures = Vec::new();
    for &(name, scheme, expected) in &GOLDEN {
        let r = run_tiny(name, scheme, RunMode::Full(Observe::default()));
        let got = digest(&r.stats);
        if got != expected {
            failures.push(format!("{name}/{scheme:?}: {got:#018x} != {expected:#018x}"));
        }
    }
    assert!(failures.is_empty(), "stats diverged from golden:\n{}", failures.join("\n"));
}

/// The translated real-binary workloads are as pinned as the hand-written
/// kernels: every fixture × scheme cell must stay bit-identical (and
/// `run` itself verifies the architectural checksum against the
/// host-side reference model on every run).
#[test]
fn riscv_stats_match_golden_digests() {
    let mut failures = Vec::new();
    for &(name, scheme, expected) in &RISCV_GOLDEN {
        let r = run_tiny(name, scheme, RunMode::Full(Observe::default()));
        let got = digest(&r.stats);
        if got != expected {
            failures.push(format!("{name}/{scheme:?}: {got:#018x} != {expected:#018x}"));
        }
    }
    assert!(failures.is_empty(), "riscv stats diverged from golden:\n{}", failures.join("\n"));
}

/// Enabling the observability registry changes no stats digest — the
/// counters are pure observation — and the registry's own contents are
/// pinned, so attribution changes are as visible as timing changes.
#[test]
fn observed_runs_keep_stats_digests_and_pin_counter_digests() {
    let mut failures = Vec::new();
    for &(name, scheme, expected) in &COUNTER_GOLDEN {
        let r =
            run_tiny(name, scheme, RunMode::Full(Observe { counters: true, ..Observe::default() }));
        let stats_expected = GOLDEN
            .iter()
            .find(|&&(n, s, _)| n == name && s == scheme)
            .map(|&(_, _, d)| d)
            .expect("counter cells are a subset of the stats cells");
        let got_stats = digest(&r.stats);
        if got_stats != stats_expected {
            failures.push(format!(
                "{name}/{scheme:?}: stats with counters on {got_stats:#018x} != \
                 {stats_expected:#018x}"
            ));
        }
        let c = r.counters.expect("observed run records counters");
        let got = digest(&c);
        if got != expected {
            failures.push(format!("{name}/{scheme:?}: counters {got:#018x} != {expected:#018x}"));
        }
    }
    assert!(failures.is_empty(), "observability diverged from golden:\n{}", failures.join("\n"));
}

/// The sampled-mode walk is deterministic and pinned: same program, units
/// and seed always place the same windows and measure the same cycles.
#[test]
fn sampled_run_matches_golden_digest() {
    let units = SampleUnits::parse("500:2000:7500").expect("valid units");
    let r = run_tiny("gcc", Scheme::Base, RunMode::Sampled { units, seed: 42 });
    let est = r.sampled.expect("sampled run records an estimate");
    let got = digest(&est);
    assert_eq!(
        got,
        SAMPLED_GOLDEN,
        "sampled estimate diverged from golden: {got:#018x} != {SAMPLED_GOLDEN:#018x} \
         ({} samples, mean IPC {:.4} ± {:.4})",
        est.samples.len(),
        est.mean_ipc,
        est.ci_half_width
    );
}
