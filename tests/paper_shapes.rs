//! Shape-level regression tests against the paper's headline results,
//! run at Tiny scale so the suite stays fast. The bands are deliberately
//! loose — `EXPERIMENTS.md` records the precise Default-scale numbers —
//! but they pin the *orderings* the paper's conclusions rest on.

use half_price::workloads::{Scale, WORKLOAD_NAMES};
use half_price::{run_matrix, MachineWidth, MatrixResult, Observe, Scheme};

fn matrix(schemes: &[Scheme]) -> MatrixResult {
    run_matrix(
        &WORKLOAD_NAMES,
        Scale::Tiny,
        MachineWidth::Four,
        schemes,
        1,
        Observe::default(),
        |_| {},
    )
    .expect("matrix runs")
}

#[test]
fn combined_half_price_costs_only_a_few_percent() {
    let m = matrix(&[Scheme::Base, Scheme::Combined]);
    let avg = m.average_degradation(Scheme::Combined);
    // Paper: 2.2% average, worst 4.8%. Allow slack for the stand-in
    // workloads, but the conclusion must hold: the cost is "a few percent".
    assert!(avg < 0.05, "average combined degradation {:.1}% too large", avg * 100.0);
    assert!(avg > -0.005, "combined must not beat the base machine");
    let (worst_name, worst) = m.worst_degradation(Scheme::Combined).expect("nonempty");
    assert!(worst < 0.10, "worst-case {worst_name} {:.1}% too large", worst * 100.0);
}

#[test]
fn predictor_beats_static_placement_which_stays_cheap() {
    let m = matrix(&[Scheme::Base, Scheme::SeqWakeupPredictor, Scheme::SeqWakeupStatic]);
    let with_pred = m.average_degradation(Scheme::SeqWakeupPredictor);
    let without = m.average_degradation(Scheme::SeqWakeupStatic);
    // Paper: 0.4% with the predictor, 1.6% without (4-wide).
    assert!(with_pred <= without + 0.002, "{with_pred} vs {without}");
    assert!(with_pred < 0.02, "predictor version loses {:.1}%", with_pred * 100.0);
    assert!(without < 0.04, "static version loses {:.1}%", without * 100.0);
}

#[test]
fn sequential_wakeup_never_misschedules_but_tag_elimination_does() {
    let m = matrix(&[Scheme::Base, Scheme::SeqWakeupPredictor, Scheme::TagElimination]);
    let mut te_misfires = 0;
    for row in &m.rows {
        for r in row {
            match r.scheme {
                Scheme::SeqWakeupPredictor => assert_eq!(
                    r.stats.te_misfires, 0,
                    "{}: sequential wakeup requires no scheduling recovery",
                    r.workload
                ),
                Scheme::TagElimination => te_misfires += r.stats.te_misfires,
                _ => {}
            }
        }
    }
    assert!(te_misfires > 0, "tag elimination must pay verification misfires somewhere");
}

#[test]
fn rf_schemes_keep_most_of_base_performance() {
    let m = matrix(&[
        Scheme::Base,
        Scheme::SeqRegAccess,
        Scheme::HalfPortsCrossbar,
        Scheme::ExtraRfStage,
    ]);
    // Paper: seq RF 1.1% average (4-wide); crossbar close to base.
    assert!(m.average_degradation(Scheme::SeqRegAccess) < 0.03);
    assert!(m.average_degradation(Scheme::HalfPortsCrossbar) < 0.01);
    // The crossbar keeps more IPC than sequential access (it spends
    // hardware on a global arbiter instead).
    assert!(
        m.average_degradation(Scheme::HalfPortsCrossbar)
            <= m.average_degradation(Scheme::SeqRegAccess) + 0.001
    );
}

#[test]
fn characterization_claims_hold_in_aggregate() {
    let m = matrix(&[Scheme::Base]);
    let mut two_pending = 0u64;
    let mut simultaneous = 0u64;
    let mut two_port = 0u64;
    let mut committed = 0u64;
    for row in &m.rows {
        let s = &row[0].stats;
        two_pending += s.wakeup_slack.iter().sum::<u64>();
        simultaneous += s.wakeup_slack[0];
        two_port += s.rf_two_ready + s.rf_non_back_to_back;
        committed += s.committed;
    }
    // Paper: <3% simultaneous, <4% need two ports. The stand-in kernels
    // run denser than compiled SPEC code; hold the aggregate under looser
    // but still "small fraction" bounds.
    // Paper: <3% on SPEC. Hand-written kernels cluster producers more
    // tightly (see EXPERIMENTS.md divergence notes); hold the aggregate
    // under a still-minority bound so regressions are caught.
    let sim_frac = simultaneous as f64 / two_pending as f64;
    assert!(sim_frac < 0.20, "simultaneous fraction {:.1}%", sim_frac * 100.0);
    let port_frac = two_port as f64 / committed as f64;
    assert!(port_frac < 0.10, "two-port fraction {:.1}%", port_frac * 100.0);
}

#[test]
fn last_arrival_predictor_accuracy_is_high_and_grows_with_size() {
    let m = matrix(&[Scheme::Base]);
    let mut acc: std::collections::BTreeMap<usize, (f64, u32)> = Default::default();
    for row in &m.rows {
        for (entries, la) in &row[0].stats.last_arrival {
            if la.correct + la.incorrect < 100 {
                continue; // too few 2-pending pairs to be meaningful
            }
            let e = acc.entry(*entries).or_default();
            e.0 += la.accuracy();
            e.1 += 1;
        }
    }
    let avg: Vec<(usize, f64)> = acc.into_iter().map(|(k, (s, n))| (k, s / f64::from(n))).collect();
    // Paper Figure 7: ~90% accuracy at 1k entries.
    let at_1k = avg.iter().find(|(k, _)| *k == 1024).expect("1k predictor present").1;
    assert!(at_1k > 0.75, "1k-entry accuracy {:.1}%", at_1k * 100.0);
    // Bigger tables never hurt on average.
    let at_128 = avg.iter().find(|(k, _)| *k == 128).expect("128 present").1;
    let at_4k = avg.iter().find(|(k, _)| *k == 4096).expect("4k present").1;
    assert!(at_4k >= at_128 - 0.02, "{at_4k} vs {at_128}");
}
