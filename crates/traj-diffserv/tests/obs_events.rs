//! Tests that install a `traj-obs` sink.
//!
//! The sink, the enable flag and the counters are process-global, so a
//! test that installs a `RingSink` sees every event and counter from
//! anything running in its process. These tests live in their own test
//! binary, where every test holds `traj_obs::test_guard()`: nothing else
//! in the process emits while one of them records.

use traj_analysis::AnalysisConfig;
use traj_diffserv::AdmissionController;
use traj_model::examples::paper_example;
use traj_model::{FaultScenario, Path, SporadicFlow};

fn candidate(id: u32, period: i64, deadline: i64) -> SporadicFlow {
    SporadicFlow::uniform(
        id,
        Path::from_ids([2, 3, 4]).unwrap(),
        period,
        4,
        0,
        deadline,
    )
    .unwrap()
}

#[test]
fn admission_emits_events_when_sink_installed() {
    let _g = traj_obs::test_guard();
    let ring = std::sync::Arc::new(traj_obs::RingSink::new(64));
    traj_obs::set_sink(ring.clone());
    traj_obs::reset_metrics();
    let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
    ac.try_admit(candidate(10, 360, 200));
    ac.on_fault(&FaultScenario::node_down(traj_model::NodeId(9)), 0)
        .unwrap();
    let due = ac.retry_queue()[0].next_attempt;
    ac.tick(due);
    traj_obs::disable();
    let events = ring.drain();
    assert!(events.iter().any(|e| e.name == "admission.decision"));
    assert!(events.iter().any(|e| e.name == "admission.fault"));
    assert!(events.iter().any(|e| e.name == "admission.tick"));
    assert!(events.iter().any(|e| e.name == "span"
        && e.get("name") == Some(&traj_obs::Value::Str("admission.tick".into()))));
    traj_obs::reset_metrics();
}

#[test]
fn decision_events_carry_warm_flag_and_closure_size() {
    let _g = traj_obs::test_guard();
    let ring = std::sync::Arc::new(traj_obs::RingSink::new(64));
    traj_obs::set_sink(ring.clone());
    traj_obs::reset_metrics();
    let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
    ac.try_admit(candidate(10, 360, 200));
    ac.try_admit_batch(vec![candidate(11, 144, 150), candidate(12, 360, 5)]);
    let metrics = traj_obs::metrics_snapshot();
    traj_obs::disable();
    let events = ring.drain();
    let decision = events
        .iter()
        .find(|e| e.name == "admission.decision")
        .expect("decision event");
    assert_eq!(decision.get("warm"), Some(&traj_obs::Value::Bool(true)));
    assert!(decision.get("closure").is_some());
    assert!(events.iter().any(|e| e.name == "admission.batch"));
    let counter = |name: &str| {
        metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert!(counter("admission.warm_hits") >= 1);
    assert_eq!(counter("admission.batch_size"), 2);
    traj_obs::reset_metrics();
}

#[test]
fn clock_regressions_are_counted() {
    let _g = traj_obs::test_guard();
    let ring = std::sync::Arc::new(traj_obs::RingSink::new(16));
    traj_obs::set_sink(ring.clone());
    traj_obs::reset_metrics();
    let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
    ac.tick(100);
    ac.tick(40);
    let metrics = traj_obs::metrics_snapshot();
    traj_obs::disable();
    let events = ring.drain();
    assert!(events
        .iter()
        .any(|e| e.name == "admission.clock_regression"));
    let regressions = metrics
        .iter()
        .find(|(k, _)| k == "admission.clock_regressions")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert_eq!(regressions, 1);
    traj_obs::reset_metrics();
}
