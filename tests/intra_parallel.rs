//! Warm-admission suite for the dirty-cell worklist of the fixed point.
//!
//! A warm start seeds the Jacobi worklist from the standing fixed point
//! instead of starting full: only the candidate's dirty closure is
//! re-solved, and a component holding no seeded row is skipped whole.
//! Admitting, releasing and re-admitting a flow must land every time on
//! the fixed point a cold analysis of the then-current set reaches,
//! bit for bit. The sets here have more than 16 flows, so warm starts
//! run Jacobi rounds whatever the pool width.
//!
//! The forced-parallel vs serial and Jacobi vs Gauss–Seidel identity
//! checks need an explicit run plan, which is crate-private; they live
//! in the `traj-analysis` unit tests (`components::tests`), against the
//! reference oracle, on cold and warm seeds.

use fifo_trajectory::analysis::{analyze_ef, AnalysisConfig, ConvergedState};
use fifo_trajectory::diffserv::{AdmissionController, AdmissionDecision, ReleaseOutcome};
use fifo_trajectory::model::gen::{fat_tree, FatTreeParams};
use fifo_trajectory::model::SporadicFlow;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn warm_admission_matches_cold_on_fat_trees(seed in 0u64..1_000_000) {
        let p = FatTreeParams {
            pods: 3,
            flows: 24,
            locality: 1.0,
            ..Default::default()
        };
        let set = fat_tree(seed, &p).unwrap();
        let cfg = AnalysisConfig::default();
        let Ok(standing) = ConvergedState::build_ef(&set, &cfg) else {
            return Ok(());
        };
        let proto = &set.flows()[0];
        let cand = SporadicFlow::uniform(
            90_000,
            proto.path.clone(),
            2 * proto.period,
            proto.costs()[0],
            0,
            i64::MAX / 4,
        )
        .unwrap();
        let Ok(extended) = set.extended_with(cand.clone()) else {
            return Ok(());
        };
        let warm = standing.extend(cand).unwrap();
        let cold = analyze_ef(&extended, &cfg);
        for (a, b) in warm.report.per_flow().iter().zip(cold.per_flow()) {
            prop_assert_eq!(&a.wcrt, &b.wcrt, "warm admission wcrt diverged");
            prop_assert_eq!(&a.jitter, &b.jitter, "warm admission jitter diverged");
        }
    }
}

/// Regression: the dirty-row worklist carried across warm solves must
/// not leak state between an admit, the matching release, and a
/// re-admit of the same flow. Each step's warm bounds are pinned
/// against a cold analysis of the then-current set.
#[test]
fn worklist_state_survives_admit_release_readmit_cycles() {
    let p = FatTreeParams {
        pods: 3,
        flows: 24,
        locality: 1.0,
        ..Default::default()
    };
    let set = fat_tree(0xAD417, &p).unwrap();
    let cfg = AnalysisConfig::default();
    let mut ac = AdmissionController::new(set.clone(), cfg.clone());

    let proto = &set.flows()[0];
    let cand = SporadicFlow::uniform(
        90_000,
        proto.path.clone(),
        2 * proto.period,
        proto.costs()[0],
        0,
        i64::MAX / 4,
    )
    .unwrap();
    let extended = set.extended_with(cand.clone()).unwrap();
    let cold_base = analyze_ef(&set, &cfg);
    let cold_extended = analyze_ef(&extended, &cfg);

    let pin = |state: &ConvergedState, oracle: &fifo_trajectory::analysis::SetReport, tag: &str| {
        let report = state.report();
        assert_eq!(report.per_flow().len(), oracle.per_flow().len(), "{tag}");
        for (a, b) in report.per_flow().iter().zip(oracle.per_flow()) {
            assert_eq!(a.wcrt, b.wcrt, "{tag}: wcrt diverged for {}", a.name);
            assert_eq!(a.jitter, b.jitter, "{tag}: jitter diverged for {}", a.name);
        }
    };

    for round in 0..3 {
        let d = ac.try_admit(cand.clone());
        assert!(
            matches!(d, AdmissionDecision::Admitted { .. }),
            "round {round}: candidate must admit, got {d:?}"
        );
        pin(
            ac.converged_state().expect("standing state after admit"),
            &cold_extended,
            &format!("round {round} after admit"),
        );
        assert_eq!(
            ac.release(cand.id),
            ReleaseOutcome::Released,
            "round {round}: release must succeed"
        );
        pin(
            ac.converged_state().expect("standing state after release"),
            &cold_base,
            &format!("round {round} after release"),
        );
    }
}
