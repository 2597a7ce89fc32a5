//! Tests that install a `traj-obs` sink.
//!
//! The sink, the enable flag and the counters are process-global, so a
//! test that installs a `RingSink` sees every event emitted anywhere in
//! its process. These tests live in their own test binary, where every
//! test holds `traj_obs::test_guard()`: nothing else in the process
//! emits while one of them records.

use traj_analysis::{AnalysisConfig, Analyzer};
use traj_model::examples::paper_example;

#[test]
fn fixpoint_emits_round_and_convergence_events_when_sink_installed() {
    let _g = traj_obs::test_guard();
    let ring = std::sync::Arc::new(traj_obs::RingSink::new(256));
    traj_obs::set_sink(ring.clone());
    let set = paper_example();
    let cfg = AnalysisConfig::default();
    let an = Analyzer::new(&set, &cfg).unwrap();
    traj_obs::disable();
    let events = ring.drain();
    let rounds = events.iter().filter(|e| e.name == "fixpoint.round").count();
    assert_eq!(rounds, an.smax_rounds());
    let conv: Vec<_> = events
        .iter()
        .filter(|e| e.name == "fixpoint.converged")
        .collect();
    assert_eq!(conv.len(), 1);
    assert_eq!(
        conv[0].get("strategy"),
        Some(&traj_obs::Value::Str("gauss_seidel".into()))
    );
    assert!(
        events.iter().any(|e| e.name == "span"
            && e.get("name") == Some(&traj_obs::Value::Str("analysis.fixpoint".into()))),
        "fixpoint span missing"
    );
}
