//! Convergence telemetry of the `Smax` fixed point.
//!
//! The [`crate::Analyzer`] records, for every run, which round schedule
//! ([`RunShape`]) the engine picked, plus one [`RoundTelemetry`] entry
//! per round: how many cells were recomputed
//! versus skipped by the dirty-read analysis, how many changed, and the
//! largest per-cell delta. The aggregate travels on the
//! [`crate::SetReport`] so batch pipelines can diagnose convergence
//! behaviour offline; when a [`traj_obs`] sink is installed the same
//! numbers are also emitted live as `fixpoint.round` /
//! `fixpoint.converged` events.
//!
//! Collection is unconditional: the per-round numbers fall out of work
//! the fixed point does anyway (the counters are increments on existing
//! branches), so the no-sink overhead is a few adds per round — measured
//! by the `metrics_export` benchmark (E14).

use serde::{Deserialize, Serialize};

/// Round schedule of one fixed-point run. Both schedules iterate the
/// same monotone operator from the same seed and reach the same least
/// fixed point; they differ only in evaluation order (see DESIGN.md,
/// "Jacobi vs Gauss–Seidel"). The engine picks one per run from the set
/// size, whether the run is cold, and the pool width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunShape {
    /// Each round reads the previous round's table and applies its
    /// updates afterwards; only cells reading a changed value are
    /// re-evaluated, and large rounds fan out across the pool.
    Jacobi,
    /// Each update is applied in place and seen by the next one; every
    /// cell is re-evaluated every round, serially.
    GaussSeidel,
}

impl RunShape {
    /// Stable lower-case label for telemetry and benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            RunShape::Jacobi => "jacobi",
            RunShape::GaussSeidel => "gauss_seidel",
        }
    }
}

/// One round of the fixed point.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundTelemetry {
    /// 1-based round number.
    pub round: usize,
    /// Cells whose update was actually evaluated this round.
    pub recomputed: usize,
    /// Cells skipped because their skeleton read no entry the previous
    /// round changed (Jacobi only; Gauss–Seidel recomputes everything).
    pub skipped: usize,
    /// Cells whose value changed this round.
    pub changed: usize,
    /// Largest single-cell increase this round, in ticks (0 on the
    /// convergence-check round). The fixed point is monotone from a
    /// below-fixed-point seed, so deltas are non-negative.
    pub max_delta: i64,
}

/// Whole-run convergence record, surfaced on [`crate::SetReport`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FixpointTelemetry {
    /// Round schedule the run used.
    pub chosen: RunShape,
    /// Flows in the analysed set.
    pub flows: usize,
    /// `Smax` cells subject to iteration: in-universe flows' non-ingress
    /// path positions.
    pub cells: usize,
    /// Rounds executed (0 under
    /// [`crate::SmaxMode::TransitOnly`], which skips the fixed
    /// point).
    pub rounds: usize,
    /// Whether the run converged (a non-converged run surfaces as a
    /// [`crate::Verdict::Diverged`] and this record rides along on the
    /// error path's report only when assembled by the caller).
    pub converged: bool,
    /// Per-round detail, oldest first.
    #[serde(default)]
    pub per_round: Vec<RoundTelemetry>,
    /// Connected components of the crossing graph over the analysis
    /// universe (0 when the decomposition was not computed — under
    /// `TransitOnly`, which skips the fixed point).
    #[serde(default)]
    pub components: usize,
    /// Flow count of the largest component (0 when not decomposed).
    #[serde(default)]
    pub largest_component: usize,
    /// Per-shard solve record, one entry per component the sharded
    /// solver actually ran (empty when a warm start skipped every
    /// component; a single-component graph records one shard). Ordered by
    /// first member flow index regardless of the cost-based schedule the
    /// solver executed them in.
    #[serde(default)]
    pub shards: Vec<ShardTelemetry>,
}

/// One component's solve inside the sharded fixed point.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardTelemetry {
    /// Flows in the component.
    pub flows: usize,
    /// `Smax` cells the component iterates (non-ingress positions).
    pub cells: usize,
    /// Rounds this component took to converge (components terminate
    /// independently; the run's `rounds` is the maximum over shards).
    pub rounds: usize,
    /// Cells this shard actually evaluated across all rounds — the
    /// dirty-cell worklist's total work.
    #[serde(default)]
    pub recomputed: usize,
    /// Cells the worklist skipped across all rounds (none of their
    /// read values changed in the previous round).
    #[serde(default)]
    pub skipped: usize,
    /// Jacobi rounds whose evaluation fanned out across the rayon pool
    /// (large worklists on a pool with more than one thread).
    #[serde(default)]
    pub parallel_rounds: usize,
    /// Wall-clock of this component's solve, in microseconds (integral
    /// so the record stays `Eq`-comparable).
    pub solve_micros: u64,
}

impl FixpointTelemetry {
    /// Total cells recomputed across all rounds.
    pub fn total_recomputed(&self) -> usize {
        self.per_round.iter().map(|r| r.recomputed).sum()
    }

    /// Total cells skipped across all rounds.
    pub fn total_skipped(&self) -> usize {
        self.per_round.iter().map(|r| r.skipped).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serde_roundtrip_preserves_rounds() {
        let t = FixpointTelemetry {
            chosen: RunShape::GaussSeidel,
            flows: 5,
            cells: 17,
            rounds: 2,
            converged: true,
            per_round: vec![
                RoundTelemetry {
                    round: 1,
                    recomputed: 17,
                    skipped: 0,
                    changed: 12,
                    max_delta: 9,
                },
                RoundTelemetry {
                    round: 2,
                    recomputed: 17,
                    skipped: 0,
                    changed: 0,
                    max_delta: 0,
                },
            ],
            components: 2,
            largest_component: 3,
            shards: vec![ShardTelemetry {
                flows: 3,
                cells: 11,
                rounds: 2,
                recomputed: 18,
                skipped: 4,
                parallel_rounds: 1,
                solve_micros: 40,
            }],
        };
        let json = serde_json::to_string(&t).unwrap();
        let back: FixpointTelemetry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.total_recomputed(), 34);
        assert_eq!(back.total_skipped(), 0);
    }
}
