//! Differential equivalence suite for the production fixed-point engine
//! and the incremental fault re-analysis.
//!
//! The production analyzer (`analyze_all`: interference skeletons,
//! crossing-graph components, arena solver) must produce `Smax` tables
//! and bounds bit-identical to the independent oracle
//! (`ReferenceAnalyzer`, the pre-cache implementation that reassembles
//! every bound function from scratch in one monolithic Gauss–Seidel
//! sweep) — on the paper example, random meshes, fat trees and a
//! backbone, in every `SmaxMode` × `MinConvention` × `SminMode` ×
//! `ReverseCounting` configuration corner. The round schedule and the
//! fan-out the engine picks per run are checked against the same oracle
//! plan by plan in the engine's own unit tests.
//!
//! The same contract covers faults: the surviving set applied to a
//! converged healthy state as one warm delta (dropped ids removed,
//! rerouted flows replaced, closure-pruned) must agree bit-for-bit, per
//! flow id, with a cold `ConvergedState::build_ef` of the surviving set
//! for arbitrary link/node failures, in every configuration corner.

use fifo_trajectory::analysis::{
    analyze_all, analyze_all_reference, analyze_degraded, analyze_ef, config_grid, AnalysisConfig,
    Analyzer, ConvergedState, FlowDelta, ReferenceAnalyzer, SetReport, Verdict,
};
use fifo_trajectory::model::examples::paper_example;
use fifo_trajectory::model::gen::{
    backbone_mesh, fat_tree, random_mesh, BackboneParams, FatTreeParams, MeshParams,
};
use fifo_trajectory::model::{DegradedSet, FaultScenario, FlowFate, FlowId, FlowSet, SporadicFlow};
use proptest::prelude::*;

/// Bounds of the production engine and the oracle on one set under one
/// configuration.
fn assert_all_engines_agree(set: &FlowSet, base: &AnalysisConfig) -> Result<(), TestCaseError> {
    let reference = analyze_all_reference(set, base);
    let engine = analyze_all(set, base);
    prop_assert_eq!(&reference.bounds(), &engine.bounds(), "engine vs reference");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cached_bounds_match_reference_on_random_meshes(seed in 0u64..1_000_000) {
        let p = MeshParams {
            nodes: 8,
            flows: 6,
            max_utilisation: 0.7,
            ..Default::default()
        };
        let set = random_mesh(seed, &p).unwrap();
        for base in config_grid() {
            assert_all_engines_agree(&set, &base)?;
        }
    }

    #[test]
    fn incremental_fault_reanalysis_matches_cold_start(
        seed in 0u64..1_000_000,
        fault_pick in 0usize..64,
    ) {
        let kill_node = fault_pick % 2 == 0;
        let p = MeshParams {
            nodes: 8,
            flows: 6,
            max_utilisation: 0.7,
            ..Default::default()
        };
        let set = random_mesh(seed, &p).unwrap();
        let scenario = if kill_node {
            let nodes = set.network().nodes().to_vec();
            FaultScenario::node_down(nodes[fault_pick % nodes.len()])
        } else {
            let links: Vec<_> = set
                .flows()
                .iter()
                .flat_map(|f| f.path.links())
                .collect();
            let (a, b) = links[fault_pick % links.len()];
            FaultScenario::link_down(a, b)
        };
        let Ok(degraded) = scenario.apply(&set) else {
            // The fault killed everything: nothing to compare.
            return Ok(());
        };
        for cfg in config_grid() {
            let Ok(healthy) = ConvergedState::build_ef(&set, &cfg) else {
                // No healthy fixed point to warm-start from.
                continue;
            };
            assert_fault_delta_matches_cold(&healthy, &degraded, &cfg)?;
        }
    }

    #[test]
    fn cached_bounds_match_reference_on_loaded_meshes(seed in 0u64..1_000_000) {
        // Higher utilisation exercises longer busy periods, more fixed
        // point rounds, and the occasional overload verdict; bounded
        // verdicts must still agree everywhere (default config corner).
        let p = MeshParams {
            nodes: 6,
            flows: 8,
            max_utilisation: 0.95,
            ..Default::default()
        };
        let set = random_mesh(seed, &p).unwrap();
        assert_all_engines_agree(&set, &AnalysisConfig::default())?;
    }
}

#[test]
fn cached_bounds_match_reference_on_paper_example_everywhere() {
    let set = paper_example();
    for base in config_grid() {
        assert_all_engines_agree(&set, &base).unwrap();
    }
}

#[test]
fn near_i64_max_parameters_yield_overflow_verdicts_not_wraparound() {
    // Three flows on one node, each with cost ~ i64::MAX/4 and combined
    // utilisation 1.5: the busy-period iteration grows until `k * C`
    // leaves i64. Pre-hardening this wrapped silently (debug: abort;
    // release: negative bounds); now it must surface as a typed verdict.
    use fifo_trajectory::model::examples::line_topology;
    let cost = i64::MAX / 4;
    let set = line_topology(3, 1, 2 * cost, cost, 1, 1).unwrap();
    let cfg = AnalysisConfig {
        max_busy_period: i64::MAX,
        ..Default::default()
    };
    let report = analyze_all(&set, &cfg);
    for r in report.per_flow() {
        assert!(
            matches!(r.wcrt, Verdict::Overflow { .. } | Verdict::Unbounded { .. }),
            "expected a typed failure verdict, got {:?}",
            r.wcrt
        );
        assert!(
            r.wcrt.value().is_none(),
            "no numeric bound may escape an overflowing instance"
        );
    }
    assert!(
        report
            .per_flow()
            .iter()
            .any(|r| matches!(r.wcrt, Verdict::Overflow { .. })),
        "at least one flow must report the overflow itself"
    );
}

/// The component-sharded engine vs the monolithic oracle on the same
/// set: identical `Smax` tables and per-flow verdicts, or identical
/// failure verdicts.
fn assert_sharded_matches_monolithic(
    set: &FlowSet,
    base: &AnalysisConfig,
) -> Result<(), TestCaseError> {
    match (Analyzer::new(set, base), ReferenceAnalyzer::new(set, base)) {
        (Ok(s), Ok(m)) => {
            prop_assert_eq!(s.smax().values(), m.smax().values(), "Smax tables diverged");
            for i in 0..set.len() {
                prop_assert_eq!(s.wcrt(i), m.wcrt(i), "wcrt diverged for flow {}", i);
            }
        }
        (Err(sv), Err(mv)) => {
            prop_assert_eq!(sv, mv, "failure verdicts diverged");
        }
        (s, m) => {
            return Err(TestCaseError::fail(format!(
                "engines disagree on success: sharded {:?}, monolithic {:?}",
                s.map(|_| ()),
                m.map(|_| ())
            )));
        }
    }
    Ok(())
}

/// The surviving set of `degraded` as a delta on the healthy set:
/// dropped ids removed, rerouted flows replaced.
fn fault_delta(degraded: &DegradedSet) -> (Vec<FlowId>, Vec<SporadicFlow>) {
    let mut remove = Vec::new();
    let mut replace = Vec::new();
    for (f, fate) in degraded.set.flows().iter().zip(&degraded.fates) {
        match fate {
            FlowFate::Untouched => {}
            FlowFate::Rerouted { .. } => replace.push(f.clone()),
            FlowFate::Dropped { .. } => remove.push(f.id),
        }
    }
    (remove, replace)
}

/// The warm fault delta on `healthy` against a cold build of the
/// surviving set: the same outcome, and per flow id the same verdicts.
fn assert_fault_delta_matches_cold(
    healthy: &ConvergedState,
    degraded: &DegradedSet,
    cfg: &AnalysisConfig,
) -> Result<(), TestCaseError> {
    let (remove, replace) = fault_delta(degraded);
    let warm = healthy
        .apply(FlowDelta {
            remove: &remove,
            replace: &replace,
            ..FlowDelta::default()
        })
        .unwrap();
    let survivors = degraded.surviving_set().unwrap();
    match ConvergedState::build_ef(&survivors, cfg) {
        Ok(cold) => {
            prop_assert!(
                warm.state().is_some(),
                "warm diverged, cold bounded, cfg {:?}",
                cfg
            );
            prop_assert_eq!(warm.report.per_flow().len(), survivors.len());
            for want in cold.report().per_flow() {
                let got = warm.report.for_flow(want.flow).unwrap();
                prop_assert_eq!(&got.wcrt, &want.wcrt, "wcrt diverged, cfg {:?}", cfg);
                prop_assert_eq!(&got.jitter, &want.jitter, "jitter diverged, cfg {:?}", cfg);
            }
        }
        Err(_) => prop_assert!(
            warm.state().is_none(),
            "warm bounded, cold diverged, cfg {:?}",
            cfg
        ),
    }
    Ok(())
}

/// The oracle's verdicts for a degraded set: its surviving flows
/// analysed as a set of their own (the oracle has no universe mask),
/// scattered back to the degraded set's indices; dropped flows map to
/// `None`.
fn oracle_for_degraded(
    degraded: &DegradedSet,
    cfg: &AnalysisConfig,
) -> Vec<Option<fifo_trajectory::analysis::FlowReport>> {
    let alive: Vec<usize> = (0..degraded.set.len())
        .filter(|&i| degraded.is_alive(i))
        .collect();
    let mut out = vec![None; degraded.set.len()];
    if alive.is_empty() {
        return out;
    }
    let survivors = FlowSet::new(
        degraded.set.network().clone(),
        alive
            .iter()
            .map(|&i| degraded.set.flows()[i].clone())
            .collect(),
    )
    .unwrap();
    let report = analyze_all_reference(&survivors, cfg);
    for (&i, r) in alive.iter().zip(report.per_flow()) {
        out[i] = Some(r.clone());
    }
    out
}

/// Every surviving flow of `report` carries the oracle's verdict.
fn assert_matches_degraded_oracle(
    report: &SetReport,
    oracle: &[Option<fifo_trajectory::analysis::FlowReport>],
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(report.per_flow().len(), oracle.len());
    for (a, b) in report.per_flow().iter().zip(oracle) {
        if let Some(b) = b {
            prop_assert_eq!(&a.wcrt, &b.wcrt, "{} wcrt diverged", what);
            prop_assert_eq!(&a.jitter, &b.jitter, "{} jitter diverged", what);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_matches_monolithic_on_random_meshes(seed in 0u64..1_000_000) {
        let p = MeshParams {
            nodes: 10,
            flows: 12,
            max_utilisation: 0.8,
            ..Default::default()
        };
        let set = random_mesh(seed, &p).unwrap();
        for base in config_grid() {
            assert_sharded_matches_monolithic(&set, &base)?;
        }
    }

    #[test]
    fn sharded_matches_monolithic_on_fat_trees(
        seed in 0u64..1_000_000,
        locality_pick in 0usize..3,
    ) {
        // locality 1.0 keeps traffic pod-local (many components), 0.0
        // spreads it across the core (one giant component): both sides of
        // the delegation threshold are exercised.
        let p = FatTreeParams {
            pods: 3,
            flows: 24,
            locality: [1.0, 0.5, 0.0][locality_pick],
            ..Default::default()
        };
        let set = fat_tree(seed, &p).unwrap();
        let base = AnalysisConfig::default();
        assert_sharded_matches_monolithic(&set, &base)?;
        // The EF pipeline (Property 3's universe and delta provider) runs
        // the same engine. Generated flows are all EF with no lower
        // class, so delta is 0 and the oracle's Property 2 bounds apply.
        let ef = analyze_ef(&set, &base);
        let oracle = analyze_all_reference(&set, &base);
        for (a, b) in ef.per_flow().iter().zip(oracle.per_flow()) {
            prop_assert_eq!(&a.wcrt, &b.wcrt, "EF wcrt diverged");
            prop_assert_eq!(&a.jitter, &b.jitter, "EF jitter diverged");
        }
    }

    #[test]
    fn sharded_matches_monolithic_after_faults(
        seed in 0u64..1_000_000,
        fault_pick in 0usize..32,
    ) {
        let p = FatTreeParams {
            pods: 3,
            flows: 18,
            locality: 0.8,
            ..Default::default()
        };
        let set = fat_tree(seed, &p).unwrap();
        let nodes = set.network().nodes().to_vec();
        let scenario = FaultScenario::node_down(nodes[fault_pick % nodes.len()]);
        let Ok(degraded) = scenario.apply(&set) else {
            return Ok(());
        };
        let cfg = AnalysisConfig::default();
        let oracle = oracle_for_degraded(&degraded, &cfg);
        // Cold degraded analysis: sharded vs the monolithic oracle.
        let cold = analyze_degraded(&degraded, &cfg);
        assert_matches_degraded_oracle(&cold, &oracle, "degraded")?;
        // The warm fault delta vs the oracle: the seeded-component skip
        // must not change a single bound.
        if let Ok(healthy) = ConvergedState::build_ef(&set, &cfg) {
            let (remove, replace) = fault_delta(&degraded);
            let warm = healthy
                .apply(FlowDelta { remove: &remove, replace: &replace, ..FlowDelta::default() })
                .unwrap();
            for (f, want) in degraded.set.flows().iter().zip(&oracle) {
                if let Some(want) = want {
                    let got = warm.report.for_flow(f.id).unwrap();
                    prop_assert_eq!(&got.wcrt, &want.wcrt, "warm delta wcrt diverged");
                    prop_assert_eq!(&got.jitter, &want.jitter, "warm delta jitter diverged");
                }
            }
        }
    }
}

#[test]
fn fat_tree_pods_shard_and_report_component_telemetry() {
    // Fully pod-local traffic on a 4-pod fat tree decomposes into one
    // component per occupied pod; the sharded solver must report them.
    let p = FatTreeParams {
        pods: 4,
        flows: 32,
        locality: 1.0,
        ..Default::default()
    };
    let set = fat_tree(7, &p).unwrap();
    let report = analyze_all(&set, &AnalysisConfig::default());
    let t = report.telemetry().expect("cached engine records telemetry");
    assert!(
        t.components >= 2,
        "pod-local fat tree must decompose, got {} component(s)",
        t.components
    );
    assert!(
        !t.shards.is_empty(),
        "sharded solve must record per-shard telemetry"
    );
    assert_eq!(
        t.shards.iter().map(|s| s.flows).sum::<usize>(),
        set.len(),
        "every flow belongs to exactly one solved shard"
    );
    assert!(t.largest_component >= 1 && t.largest_component <= set.len());

    // Backbone meshes are denser; whatever the component structure,
    // the sharded engine and the monolithic oracle agree.
    let bb = backbone_mesh(11, &BackboneParams::default()).unwrap();
    let sharded = analyze_all(&bb, &AnalysisConfig::default());
    let mono = analyze_all_reference(&bb, &AnalysisConfig::default());
    assert_eq!(sharded.bounds(), mono.bounds());
}

/// The engine against the oracle on one bounded instance: component
/// count, `Smax` table and every verdict.
fn assert_engine_matches_oracle_at_scale(set: &FlowSet, components: usize) {
    let cfg = AnalysisConfig::default();
    let an = Analyzer::new(set, &cfg).unwrap();
    assert_eq!(an.telemetry().components, components);
    let oracle = ReferenceAnalyzer::new(set, &cfg).unwrap();
    assert_eq!(an.smax().values(), oracle.smax().values());
    for i in 0..set.len() {
        assert!(an.wcrt(i).is_bounded(), "flow {i}: {:?}", an.wcrt(i));
        assert_eq!(an.wcrt(i), oracle.wcrt(i), "flow {i}");
    }
}

#[test]
fn engine_matches_oracle_on_a_multi_component_fat_tree() {
    // Pod-local traffic: one component per pod, solved largest-cost
    // first across the pool.
    let set = fat_tree(
        0xF1F0 + 500,
        &FatTreeParams {
            pods: 20,
            flows: 500,
            locality: 1.0,
            ..Default::default()
        },
    )
    .unwrap();
    assert_engine_matches_oracle_at_scale(&set, 20);
}

#[test]
fn engine_matches_oracle_on_a_one_component_backbone() {
    // A dense 192-flow backbone: one component, one arena.
    let set = backbone_mesh(
        17,
        &BackboneParams {
            flows: 192,
            core: 24,
            chords: 8,
            // Denser instances overload the shared ring (busy-period
            // guard verdicts); this stays schedulable yet one-component.
            max_utilisation: 0.6,
            ..Default::default()
        },
    )
    .unwrap();
    assert_engine_matches_oracle_at_scale(&set, 1);
}

#[test]
fn cached_bounds_match_reference_on_a_midsize_mesh() {
    // One deterministic mid-size instance (beyond proptest's small
    // meshes) through every configuration corner.
    let p = MeshParams {
        nodes: 12,
        flows: 16,
        max_utilisation: 0.7,
        ..Default::default()
    };
    let set = random_mesh(42, &p).unwrap();
    for base in config_grid() {
        assert_all_engines_agree(&set, &base).unwrap();
    }
}

/// Eight disjoint clusters of five crossing flows each (nodes `8k+1 ..=
/// 8k+8`). Within a cluster the trunk `b+1 → b+2 → b+3 → b+4` carries
/// most flows and the side path via `b+7` is the detour when a trunk
/// link dies, so faults produce reroutes and drops inside one cluster.
fn clustered_instance() -> FlowSet {
    use fifo_trajectory::model::{Network, Path};
    let network = Network::uniform(64, 1, 1).unwrap();
    let mut flows = Vec::new();
    for k in 0..8u32 {
        let b = k * 8;
        let paths = [
            vec![b + 1, b + 2, b + 3, b + 4],
            vec![b + 5, b + 2, b + 3, b + 6],
            vec![b + 7, b + 3, b + 4],
            vec![b + 2, b + 3, b + 4, b + 8],
            vec![b + 2, b + 7, b + 3],
        ];
        for nodes in paths {
            let id = flows.len() as u32 + 1;
            let path = Path::from_ids(nodes).unwrap();
            flows.push(SporadicFlow::uniform(id, path, 200, 3, 0, i64::MAX / 4).unwrap());
        }
    }
    FlowSet::new(network, flows).unwrap()
}

#[test]
fn single_link_fault_recomputes_only_the_cluster_it_hit() {
    let set = clustered_instance();
    let cfg = AnalysisConfig::default();
    let healthy = ConvergedState::build_ef(&set, &cfg).unwrap();
    let cluster = |f: &SporadicFlow| (f.id.0 - 1) / 5;
    let mut faults = 0;
    for f in set.flows() {
        for (a, b) in f.path.links() {
            let Ok(degraded) = FaultScenario::link_down(a, b).apply(&set) else {
                continue;
            };
            faults += 1;
            assert_fault_delta_matches_cold(&healthy, &degraded, &cfg).unwrap();
            let (remove, replace) = fault_delta(&degraded);
            let warm = healthy
                .apply(FlowDelta {
                    remove: &remove,
                    replace: &replace,
                    ..FlowDelta::default()
                })
                .unwrap();
            let survivors = warm.state().unwrap().set();
            for (g, stale) in survivors.flows().iter().zip(&warm.stale) {
                assert!(
                    !stale || cluster(g) == cluster(f),
                    "link {a}->{b} of cluster {} recomputed flow {} of cluster {}",
                    cluster(f),
                    g.id,
                    cluster(g)
                );
            }
            assert!(warm.reused() >= survivors.len() - 5, "link {a}->{b}");
        }
    }
    assert!(
        faults >= 8 * 5,
        "every cluster link is a fault case, got {faults}"
    );
}
