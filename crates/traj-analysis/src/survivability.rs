//! Degraded-topology analysis: Property 2 bounds of a flow set after a
//! [`FaultScenario`](traj_model::FaultScenario), on the index-stable
//! [`DegradedSet`] with the dropped flows masked out of the FIFO
//! universe.
//!
//! [`analyze_degraded`] is the cold reference for degraded sets; the
//! fault-injecting simulator adversary checks survivors against it. The
//! warm path for a fault is not here: the admission controller applies
//! the surviving set to its converged state as one
//! [`FlowDelta`](crate::FlowDelta) (dropped ids removed, rerouted flows
//! replaced), and the result is bit-identical to a cold
//! [`ConvergedState::build_ef`](crate::ConvergedState::build_ef) of the
//! surviving set.

use rayon::prelude::*;
use traj_model::{DegradedSet, FlowFate};

use crate::config::AnalysisConfig;
use crate::report::{FlowReport, SetReport, Verdict};
use crate::wcrt::{Analyzer, NoDelta};

/// Canonical from-scratch analysis of a degraded set: all surviving
/// flows form the FIFO universe, dropped flows are masked out and
/// reported as dropped.
pub fn analyze_degraded(degraded: &DegradedSet, cfg: &AnalysisConfig) -> SetReport {
    let universe = degraded.universe();
    let res = Analyzer::with_universe_and_delta(&degraded.set, cfg, universe, NoDelta);
    assemble(degraded, res)
}

/// Builds the per-flow report, overriding dropped flows' verdicts with
/// their drop reason (a bound over a path the flow no longer has would
/// be meaningless).
fn assemble(degraded: &DegradedSet, res: Result<Analyzer<'_, NoDelta>, Verdict>) -> SetReport {
    let set = &degraded.set;
    let drop_verdict = |i: usize| -> Option<Verdict> {
        match &degraded.fates[i] {
            FlowFate::Dropped { reason } => Some(Verdict::Unbounded {
                reason: format!("dropped by fault scenario: {reason}"),
            }),
            _ => None,
        }
    };
    match res {
        Ok(an) => {
            let reports: Vec<FlowReport> = (0..set.len())
                .into_par_iter()
                .map(|i| {
                    let base = an.report(i);
                    match drop_verdict(i) {
                        Some(v) => FlowReport {
                            wcrt: v,
                            jitter: None,
                            ..base
                        },
                        None => base,
                    }
                })
                .collect();
            SetReport::new(reports).with_telemetry(an.telemetry().clone())
        }
        Err(v) => SetReport::new(
            set.flows()
                .iter()
                .enumerate()
                .map(|(i, f)| FlowReport {
                    flow: f.id,
                    name: f.name.clone(),
                    wcrt: drop_verdict(i).unwrap_or_else(|| v.clone()),
                    jitter: None,
                    deadline: f.deadline,
                })
                .collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConvergedState, FlowDelta};
    use traj_model::examples::paper_example;
    use traj_model::{FaultScenario, FlowId, FlowSet, NodeId, SporadicFlow};

    /// The surviving set of `degraded` as a delta: dropped ids removed,
    /// rerouted flows replaced.
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

    fn healthy_and_degraded(scenario: FaultScenario) -> (FlowSet, DegradedSet) {
        let set = paper_example();
        let degraded = scenario.apply(&set).unwrap();
        (set, degraded)
    }

    #[test]
    fn no_fault_reuses_everything_and_matches_healthy() {
        let (set, degraded) = healthy_and_degraded(FaultScenario::new(Vec::new()));
        let standing = ConvergedState::build_ef(&set, &AnalysisConfig::default()).unwrap();
        let (remove, replace) = fault_delta(&degraded);
        let warm = standing
            .apply(FlowDelta {
                remove: &remove,
                replace: &replace,
                ..FlowDelta::default()
            })
            .unwrap();
        assert_eq!(warm.reused(), set.len());
        assert_eq!(warm.rounds, 0);
        assert_eq!(warm.report.bounds(), standing.report().bounds());
    }

    #[test]
    fn fault_delta_matches_cold_on_node_failure() {
        // Node 9 kills flow 2 ([9,10,7,6]) entirely; the rest reroute or
        // stay. The warm delta and a cold build of the surviving set
        // must agree bit-for-bit, flow by flow.
        let (set, degraded) = healthy_and_degraded(FaultScenario::node_down(NodeId(9)));
        let (remove, replace) = fault_delta(&degraded);
        let survivors = degraded.surviving_set().unwrap();
        for cfg in crate::config_grid() {
            let standing = ConvergedState::build_ef(&set, &cfg).unwrap();
            let warm = standing
                .apply(FlowDelta {
                    remove: &remove,
                    replace: &replace,
                    ..FlowDelta::default()
                })
                .unwrap();
            let cold = ConvergedState::build_ef(&survivors, &cfg).unwrap();
            assert_eq!(warm.report.per_flow().len(), survivors.len());
            for r in cold.report().per_flow() {
                let w = warm.report.for_flow(r.flow).unwrap();
                assert_eq!(w.wcrt, r.wcrt, "cfg {cfg:?}");
                assert_eq!(w.jitter, r.jitter, "cfg {cfg:?}");
            }
            let state = warm.state().unwrap();
            assert!(state.verify_bit_identity().passed(), "cfg {cfg:?}");
        }
    }

    #[test]
    fn dropped_flows_report_their_drop_reason() {
        let (_, degraded) = healthy_and_degraded(FaultScenario::node_down(NodeId(9)));
        let report = analyze_degraded(&degraded, &AnalysisConfig::default());
        let r = report.for_flow(FlowId(2)).unwrap();
        assert!(!r.wcrt.is_bounded());
        match &r.wcrt {
            Verdict::Unbounded { reason } => {
                assert!(reason.contains("dropped by fault scenario"), "{reason}")
            }
            other => unreachable!("expected a drop verdict, got {other:?}"),
        }
    }

    #[test]
    fn closure_contains_every_rerouted_flow_and_its_crossers() {
        let (set, degraded) = healthy_and_degraded(FaultScenario::node_down(NodeId(9)));
        let (remove, replace) = fault_delta(&degraded);
        let standing = ConvergedState::build_ef(&set, &AnalysisConfig::default()).unwrap();
        let warm = standing
            .apply(FlowDelta {
                remove: &remove,
                replace: &replace,
                ..FlowDelta::default()
            })
            .unwrap();
        let state = warm.state().unwrap();
        let survivors = state.set();
        for r in &replace {
            let i = survivors.index_of(r.id).unwrap();
            assert!(warm.stale[i], "rerouted flow {} must be stale", r.id);
        }
        // Every survivor that shared a node with the dropped flow's path
        // was re-solved.
        let dropped = &set.flows()[set.index_of(FlowId(2)).unwrap()];
        for (i, f) in survivors.flows().iter().enumerate() {
            if survivors.crosses(f, &dropped.path) {
                assert!(warm.stale[i], "crosser {} of the dropped flow", f.id);
            }
        }
    }
}
