//! Tests that install a `traj-obs` sink.
//!
//! The sink, the enable flag and the counters are process-global, so a
//! test that installs a `RingSink` sees every event and counter from
//! anything running in its process. These tests live in their own test
//! binary, where every test holds `traj_obs::test_guard()`: nothing else
//! in the process emits while one of them records.

use traj_model::examples::line_topology;
use traj_sim::{SimConfig, Simulator};

#[test]
fn sim_emits_span_and_completion_when_sink_installed() {
    let _g = traj_obs::test_guard();
    let ring = std::sync::Arc::new(traj_obs::RingSink::new(16));
    traj_obs::set_sink(ring.clone());
    traj_obs::reset_metrics();
    let set = line_topology(1, 2, 100, 5, 1, 1).unwrap();
    let out = Simulator::new(&set, SimConfig::default()).run_periodic(&[0]);
    traj_obs::disable();
    let events = ring.drain();
    let done = events
        .iter()
        .find(|e| e.name == "sim.complete")
        .expect("completion event");
    assert_eq!(
        done.get("delivered"),
        Some(&traj_obs::Value::U64(out.delivered))
    );
    assert!(events.iter().any(
        |e| e.name == "span" && e.get("name") == Some(&traj_obs::Value::Str("sim.run".into()))
    ));
    let snap = traj_obs::metrics_snapshot();
    assert!(snap.iter().any(|(k, v)| k == "sim.delivered" && *v > 0));
    traj_obs::reset_metrics();
}
