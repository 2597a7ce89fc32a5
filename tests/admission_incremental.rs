//! Differential suite for incremental warm-start admission analysis.
//!
//! [`ConvergedState::extend`] / `remove` (thin callers of the one warm
//! delta, `ConvergedState::apply`) must produce EF bounds bit-identical to a cold [`analyze_ef`] of the
//! same set — not just for one extension, but across whole
//! admit/release/re-admit *sequences*, where the standing state has
//! itself been produced incrementally. Verified on random meshes under
//! both `SmaxMode`s and all three `MinConvention`s, and on the paper
//! example across the full configuration grid.

use fifo_trajectory::analysis::{
    analyze_ef, config_grid, AnalysisConfig, ConvergedState, SetReport, SmaxMode,
};
use fifo_trajectory::model::examples::paper_example;
use fifo_trajectory::model::gen::{fat_tree, random_mesh, FatTreeParams, MeshParams};
use fifo_trajectory::model::{FlowId, FlowSet, MinConvention, Path, SporadicFlow};
use proptest::prelude::*;

/// Both `SmaxMode`s crossed with all three `MinConvention`s, defaults
/// elsewhere — the knobs the incremental path actually branches on.
fn admission_configs() -> Vec<AnalysisConfig> {
    let mut out = Vec::new();
    for smax_mode in [SmaxMode::RecursivePrefix, SmaxMode::TransitOnly] {
        for min_convention in [
            MinConvention::Visiting,
            MinConvention::ZeroConvention,
            MinConvention::EdgeTraversing,
        ] {
            out.push(AnalysisConfig {
                smax_mode,
                min_convention,
                ..Default::default()
            });
        }
    }
    out
}

/// A short EF candidate over two adjacent mesh nodes — localised
/// interference, the shape the warm path is optimised for.
fn candidate(id: u32, first_node: u32) -> SporadicFlow {
    SporadicFlow::uniform(
        id,
        Path::from_ids([first_node, first_node + 1]).expect("adjacent mesh nodes"),
        400,
        2,
        0,
        i64::MAX / 4,
    )
    .expect("valid candidate")
}

fn assert_reports_identical(
    warm: &SetReport,
    cold: &SetReport,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        warm.per_flow().len(),
        cold.per_flow().len(),
        "flow count diverged: {}",
        context
    );
    for (a, b) in warm.per_flow().iter().zip(cold.per_flow()) {
        prop_assert_eq!(&a.wcrt, &b.wcrt, "wcrt diverged: {}", context);
        prop_assert_eq!(&a.jitter, &b.jitter, "jitter diverged: {}", context);
    }
    Ok(())
}

/// One admit → admit → release → re-admit sequence under one config,
/// every step compared bit-for-bit against a cold analysis of the set
/// the incremental state claims to represent.
fn run_sequence(set: &FlowSet, cfg: &AnalysisConfig, start: u32) -> Result<(), TestCaseError> {
    let Ok(standing) = ConvergedState::build_ef(set, cfg) else {
        // No standing fixed point to warm-start from.
        return Ok(());
    };

    // Admit A.
    let a = candidate(901, start);
    let whatif_a = standing.extend(a.clone()).expect("structurally valid");
    let ext_a = set.extended_with(a).expect("valid extension");
    assert_reports_identical(&whatif_a.report, &analyze_ef(&ext_a, cfg), "admit A")?;
    let Some(state_a) = whatif_a.into_state() else {
        return Ok(());
    };

    // Admit B on top of the incrementally-built state.
    let b = candidate(902, start + 1);
    let whatif_b = state_a.extend(b.clone()).expect("structurally valid");
    let ext_ab = ext_a.extended_with(b).expect("valid extension");
    assert_reports_identical(&whatif_b.report, &analyze_ef(&ext_ab, cfg), "admit B")?;
    let Some(state_ab) = whatif_b.into_state() else {
        return Ok(());
    };

    // Release A: the shrunk state must match a cold analysis of the
    // shrunk set.
    let Some(state_b) = state_ab.remove(FlowId(901)) else {
        return Ok(());
    };
    let set_b = ext_ab.without_flow(FlowId(901)).expect("valid removal");
    assert_reports_identical(state_b.report(), &analyze_ef(&set_b, cfg), "release A")?;

    // Re-admit a twin of A into the freed slot: the state under test
    // has now been through extend → extend → remove.
    let a2 = candidate(903, start);
    let whatif_a2 = state_b.extend(a2.clone()).expect("structurally valid");
    let ext_re = set_b.extended_with(a2).expect("valid extension");
    assert_reports_identical(&whatif_a2.report, &analyze_ef(&ext_re, cfg), "re-admit A")?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn admit_release_readmit_matches_cold_on_random_meshes(
        seed in 0u64..1_000_000,
        start in 1u32..6,
    ) {
        let p = MeshParams {
            nodes: 8,
            flows: 6,
            max_utilisation: 0.65,
            ..Default::default()
        };
        let set = random_mesh(seed, &p).unwrap();
        for cfg in admission_configs() {
            run_sequence(&set, &cfg, start)?;
        }
    }

    #[test]
    fn dirty_closure_never_understates_recomputation(
        seed in 0u64..1_000_000,
        start in 1u32..6,
    ) {
        // Every flow outside the reported dirty closure must hold its
        // standing verdict verbatim — the reuse the closure licenses.
        let p = MeshParams {
            nodes: 8,
            flows: 6,
            max_utilisation: 0.65,
            ..Default::default()
        };
        let set = random_mesh(seed, &p).unwrap();
        let cfg = AnalysisConfig::default();
        let Ok(standing) = ConvergedState::build_ef(&set, &cfg) else {
            return Ok(());
        };
        let whatif = standing
            .extend(candidate(901, start))
            .expect("structurally valid");
        prop_assert_eq!(whatif.stale.len(), set.len() + 1);
        prop_assert!(whatif.stale[set.len()], "the candidate is always stale");
        prop_assert_eq!(whatif.recomputed() + whatif.reused(), set.len() + 1);
        for (i, stale) in whatif.stale.iter().enumerate().take(set.len()) {
            if !*stale {
                let a = &standing.report().per_flow()[i];
                let b = &whatif.report.per_flow()[i];
                prop_assert_eq!(&a.wcrt, &b.wcrt, "reused flow moved");
                prop_assert_eq!(&a.jitter, &b.jitter, "reused flow moved");
            }
        }
    }
}

#[test]
fn paper_example_sequence_matches_cold_everywhere() {
    let set = paper_example();
    for cfg in config_grid() {
        run_sequence(&set, &cfg, 1).unwrap();
    }
}

#[test]
fn warm_extend_matches_cold_at_a_thousand_fat_tree_flows() {
    // A pod-local candidate on a 1000-flow, 40-pod fat tree: the warm
    // path re-solves only the candidate's component and reuses every
    // other one; the result must still be the cold fixed point.
    let cfg = AnalysisConfig::default();
    let set = fat_tree(
        0xF1F0 + 1000,
        &FatTreeParams {
            pods: 40,
            flows: 1000,
            locality: 1.0,
            ..Default::default()
        },
    )
    .unwrap();
    let standing = ConvergedState::build_ef(&set, &cfg).unwrap();
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
    let warm = standing.extend(cand).unwrap();
    assert!(
        warm.report.per_flow().iter().all(|r| r.wcrt.is_bounded()),
        "the candidate must keep the set bounded"
    );
    assert_reports_identical(
        &warm.report,
        &analyze_ef(&extended, &cfg),
        "1000-flow extend",
    )
    .unwrap();
}
