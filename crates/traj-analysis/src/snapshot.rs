//! Durable serialization of a converged EF analysis.
//!
//! A [`ConvergedState`] owns large derived structures — interference
//! skeletons, the `Smax` fixed-point table, per-flow verdicts — that are
//! all pure functions of `(set, cfg)`. Persisting them would bloat the
//! snapshot and create a second source of truth that could drift from
//! the code that derives them. [`ConvergedSnapshot`] therefore stores
//! only the inputs plus the *verdict record*: on restore the state is
//! rebuilt cold with [`ConvergedState::build_ef`] — which the warm ≡
//! cold bit-identity contract (DESIGN.md §10) guarantees reproduces the
//! live state integer-for-integer — and the rebuilt verdicts are
//! checked against the recorded ones. A mismatch means the snapshot was
//! produced by a different code version (or corrupted) and restoring it
//! silently would hand out stale guarantees; it is a typed error, never
//! a best-effort acceptance.

use serde::{Deserialize, Serialize};
use traj_model::{FlowId, FlowSet};

use crate::config::AnalysisConfig;
use crate::incremental::ConvergedState;
use crate::report::{SetReport, Verdict};

/// Serializable image of a [`ConvergedState`]: the analysis inputs and
/// the per-flow verdict record they converged to.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConvergedSnapshot {
    set: FlowSet,
    cfg: AnalysisConfig,
    report: SetReport,
}

/// Why [`ConvergedSnapshot::restore`] rejected a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The snapshot's flow set does not validate as a model (duplicate
    /// ids, broken paths, …): the file is corrupt or hand-edited.
    InvalidSet(String),
    /// The rebuild could not bound the set — a snapshot can only have
    /// been captured from a bounded analysis, so the inputs and the
    /// record disagree.
    Unbounded(Verdict),
    /// The rebuilt verdicts differ from the recorded ones for these
    /// flows: the snapshot comes from a different analysis version (or
    /// was tampered with) and must not be trusted.
    Diverged(Vec<FlowId>),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::InvalidSet(e) => {
                write!(f, "snapshot flow set does not validate: {e}")
            }
            SnapshotError::Unbounded(v) => {
                write!(f, "snapshot set no longer bounds: {v:?}")
            }
            SnapshotError::Diverged(ids) => {
                write!(f, "rebuilt verdicts diverge from the record for {ids:?}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl ConvergedSnapshot {
    /// Captures the state's inputs and verdict record.
    pub fn capture(state: &ConvergedState) -> Self {
        ConvergedSnapshot {
            set: state.set().clone(),
            cfg: state.cfg().clone(),
            report: state.report().clone(),
        }
    }

    /// The captured flow set.
    pub fn set(&self) -> &FlowSet {
        &self.set
    }

    /// The captured analysis configuration.
    pub fn cfg(&self) -> &AnalysisConfig {
        &self.cfg
    }

    /// The captured verdict record.
    pub fn report(&self) -> &SetReport {
        &self.report
    }

    /// Rebuilds the converged state and verifies it against the record.
    ///
    /// The flow set is re-validated through [`FlowSet::new`] first (a
    /// deserialized set bypasses the model constructor, so a corrupt
    /// snapshot could otherwise smuggle duplicate ids or broken paths
    /// into the analysis), then rebuilt cold; per-flow `wcrt` and
    /// jitter must match the record exactly. Fixed-point telemetry is
    /// deliberately *not* compared — a warm-maintained live state
    /// legitimately converges in a different number of rounds than the
    /// cold rebuild; only the verdicts carry the guarantee.
    pub fn restore(&self) -> Result<ConvergedState, SnapshotError> {
        let set = FlowSet::new(self.set.network().clone(), self.set.flows().to_vec())
            .map_err(|e| SnapshotError::InvalidSet(format!("{e:?}")))?;
        let rebuilt =
            ConvergedState::build_ef(&set, &self.cfg).map_err(SnapshotError::Unbounded)?;
        let recorded = self.report.per_flow();
        let got = rebuilt.report().per_flow();
        if recorded.len() != got.len() {
            return Err(SnapshotError::Diverged(
                recorded.iter().map(|r| r.flow).collect(),
            ));
        }
        let diverged: Vec<FlowId> = recorded
            .iter()
            .zip(got)
            .filter(|(r, g)| r.flow != g.flow || r.wcrt != g.wcrt || r.jitter != g.jitter)
            .map(|(r, _)| r.flow)
            .collect();
        if !diverged.is_empty() {
            return Err(SnapshotError::Diverged(diverged));
        }
        Ok(rebuilt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_model::examples::paper_example;

    #[test]
    fn capture_restore_round_trip_is_bit_identical() {
        let set = paper_example();
        let cfg = AnalysisConfig::default();
        let live = ConvergedState::build_ef(&set, &cfg).unwrap();
        let snap = ConvergedSnapshot::capture(&live);
        let restored = snap.restore().unwrap();
        for (a, b) in live
            .report()
            .per_flow()
            .iter()
            .zip(restored.report().per_flow())
        {
            assert_eq!(a.flow, b.flow);
            assert_eq!(a.wcrt, b.wcrt);
            assert_eq!(a.jitter, b.jitter);
        }
        assert!(restored.verify_bit_identity().passed());
    }

    #[test]
    fn snapshots_carrying_retired_engine_keys_still_restore() {
        // Snapshots written while the configuration had its fixed-point
        // strategy, sharding and intra-round parallelism keys, and the
        // telemetry its requested-strategy fields, must keep loading.
        let set = paper_example();
        let cfg = AnalysisConfig::default();
        let live = ConvergedState::build_ef(&set, &cfg).unwrap();
        let json = serde_json::to_string(&ConvergedSnapshot::capture(&live)).unwrap();
        let (rounds, chosen) = ("\"max_smax_rounds\":256", "\"chosen\":");
        assert_eq!(json.matches(rounds).count(), 1, "{json}");
        assert_eq!(json.matches(chosen).count(), 1, "{json}");
        let old = json
            .replace(
                rounds,
                "\"max_smax_rounds\":256,\"fixpoint\":\"Auto\",\
                 \"shard_mode\":\"Components\",\"intra_parallel\":\"Auto\"",
            )
            .replace(
                chosen,
                "\"requested\":\"Auto\",\"auto_selected\":true,\"chosen\":",
            );
        let snap: ConvergedSnapshot = serde_json::from_str(&old).unwrap();
        let restored = snap.restore().unwrap();
        for (a, b) in live
            .report()
            .per_flow()
            .iter()
            .zip(restored.report().per_flow())
        {
            assert_eq!((a.flow, &a.wcrt, &a.jitter), (b.flow, &b.wcrt, &b.jitter));
        }
    }

    #[test]
    fn tampered_record_is_rejected() {
        let set = paper_example();
        let cfg = AnalysisConfig::default();
        let live = ConvergedState::build_ef(&set, &cfg).unwrap();
        let snap = ConvergedSnapshot::capture(&live);
        // Forge a record claiming a different bound for the first flow.
        let mut forged_flows = snap.report().per_flow().to_vec();
        forged_flows[0].wcrt = Verdict::Bounded(1);
        let forged = ConvergedSnapshot {
            set: snap.set().clone(),
            cfg: snap.cfg().clone(),
            report: SetReport::new(forged_flows),
        };
        match forged.restore() {
            Err(SnapshotError::Diverged(ids)) => assert_eq!(ids.len(), 1),
            other => panic!("expected divergence, got {other:?}"),
        }
    }
}
