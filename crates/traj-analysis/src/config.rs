//! Analysis configuration: the knobs covering the paper's under-specified
//! choices, plus divergence guards.

use serde::{Deserialize, Serialize};
use traj_model::{Duration, MinConvention, SminMode};

/// How `Smaxᵢʰ` (maximum source-to-node traversal time) is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SmaxMode {
    /// Global fixed point over path prefixes:
    /// `Smaxᵢʰ = R(prefix through preᵢ(h)) + Lmax`, iterated to
    /// convergence from transit-only seeds. Sound and self-consistent
    /// (default).
    #[default]
    RecursivePrefix,
    /// Transit-only `Σ (Cᵢ + Lmax)`: ignores queueing, *optimistic* —
    /// provided for ablation only; the resulting bound is not sound in
    /// loaded networks.
    TransitOnly,
}

/// How reverse-direction crossing flows are counted in the interference
/// term of Property 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ReverseCounting {
    /// One interference window per crossing flow, anchored at
    /// `first_{j,i}` / `first_{i,j}` — the literal Property 2 (default).
    #[default]
    PerFlow,
    /// One window per shared node: a reverse-direction flow contributes
    /// `C_j^{slow_{j,i}}` once per node where it crosses `Pᵢ`. More
    /// pessimistic; this is the accounting the paper's published Table 2
    /// appears to use (see EXPERIMENTS.md).
    PerCrossingNode,
}

/// Full analysis configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// `Smax` computation mode.
    pub smax_mode: SmaxMode,
    /// Candidate set for the `min` in `Mᵢʰ`.
    pub min_convention: MinConvention,
    /// What `Smin` accumulates per upstream hop.
    pub smin_mode: SminMode,
    /// Counting of reverse-direction flows.
    pub reverse_counting: ReverseCounting,
    /// Divergence guard: busy periods (`Bᵢ^{slow}`) above this value make
    /// the analysis return [`crate::Verdict::Unbounded`] instead of
    /// iterating forever on overloaded nodes.
    pub max_busy_period: Duration,
    /// Maximum rounds of the global `Smax` fixed point before giving up
    /// (each round is monotone; non-convergence indicates an unschedulable
    /// or overloaded set).
    pub max_smax_rounds: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            smax_mode: SmaxMode::RecursivePrefix,
            min_convention: MinConvention::Visiting,
            smin_mode: SminMode::ProcessingAndLink,
            reverse_counting: ReverseCounting::PerFlow,
            max_busy_period: 10_000_000,
            max_smax_rounds: 256,
        }
    }
}

impl AnalysisConfig {
    /// The configuration closest to the accounting behind the paper's
    /// published Table 2 (more pessimistic than the default; see
    /// EXPERIMENTS.md for the calibration discussion).
    pub fn paper_calibrated() -> Self {
        AnalysisConfig {
            reverse_counting: ReverseCounting::PerCrossingNode,
            min_convention: MinConvention::ZeroConvention,
            ..Default::default()
        }
    }
}

/// Every combination of the discrete analysis knobs (`SmaxMode` ×
/// `MinConvention` × `SminMode` × `ReverseCounting`), with default
/// guards. Used by the differential test suites to sweep configuration
/// corners.
pub fn config_grid() -> Vec<AnalysisConfig> {
    let mut out = Vec::new();
    for smax_mode in [SmaxMode::RecursivePrefix, SmaxMode::TransitOnly] {
        for min_convention in [
            MinConvention::Visiting,
            MinConvention::ZeroConvention,
            MinConvention::EdgeTraversing,
        ] {
            for smin_mode in [SminMode::ProcessingAndLink, SminMode::LinkOnly] {
                for reverse_counting in [ReverseCounting::PerFlow, ReverseCounting::PerCrossingNode]
                {
                    out.push(AnalysisConfig {
                        smax_mode,
                        min_convention,
                        smin_mode,
                        reverse_counting,
                        ..Default::default()
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_all_knob_combinations() {
        assert_eq!(config_grid().len(), 2 * 3 * 2 * 2);
    }

    #[test]
    fn default_is_literal_property_2() {
        let c = AnalysisConfig::default();
        assert_eq!(c.smax_mode, SmaxMode::RecursivePrefix);
        assert_eq!(c.reverse_counting, ReverseCounting::PerFlow);
        assert_eq!(c.min_convention, MinConvention::Visiting);
    }

    #[test]
    fn paper_calibrated_differs() {
        let c = AnalysisConfig::paper_calibrated();
        assert_eq!(c.reverse_counting, ReverseCounting::PerCrossingNode);
        assert_eq!(c.min_convention, MinConvention::ZeroConvention);
    }

    #[test]
    fn serde_roundtrip() {
        let c = AnalysisConfig::paper_calibrated();
        let json = serde_json::to_string(&c).unwrap();
        let back: AnalysisConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.reverse_counting, c.reverse_counting);
        assert_eq!(back.min_convention, c.min_convention);
        assert_eq!(back.max_busy_period, c.max_busy_period);
    }

    #[test]
    fn configs_carrying_retired_engine_keys_still_load() {
        // Configs serialised while the fixed point still had its
        // strategy, sharding and intra-round parallelism keys must keep
        // deserialising: unknown fields are ignored.
        let json = r#"{"smax_mode":"RecursivePrefix","min_convention":"ZeroConvention","smin_mode":"ProcessingAndLink","reverse_counting":"PerCrossingNode","max_busy_period":10000000,"max_smax_rounds":256,"fixpoint":"Reference","shard_mode":"Monolithic","intra_parallel":"Always"}"#;
        let back: AnalysisConfig = serde_json::from_str(json).unwrap();
        assert_eq!(back.reverse_counting, ReverseCounting::PerCrossingNode);
        assert_eq!(back.min_convention, MinConvention::ZeroConvention);
        assert_eq!(back.max_smax_rounds, 256);
    }
}
