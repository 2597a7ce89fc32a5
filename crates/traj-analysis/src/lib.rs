//! Trajectory-approach schedulability analysis of FIFO-scheduled flows.
//!
//! Implements the analysis of Martin & Minet (IPDPS 2006):
//!
//! * **Property 1** — bound on the latest starting time `W_{i,t}^{lastᵢ}`
//!   of the packet of `τᵢ` generated at time `t` on its last node;
//! * **Lemma 3 / Property 2** — the worst-case end-to-end response time
//!   `Rᵢ = max_{-Jᵢ ≤ t < -Jᵢ + Bᵢ^{slow}} ( W_{i,t}^{lastᵢ} + Cᵢ^{lastᵢ} - t )`;
//! * **Definition 2** — the end-to-end jitter bound;
//! * **Lemma 4 / Property 3** — the Expedited Forwarding variant with the
//!   non-preemption term `δᵢ`.
//!
//! The paper leaves `Smaxᵢʰ` (maximum source-to-`h` traversal time)
//! unspecified; [`smax::SmaxTable`] computes it as a global fixed point
//! over path prefixes, which is the sound, self-consistent reading (see
//! DESIGN.md §2 for the full discussion and the ablation modes).
//!
//! Entry points: [`analyze_all`], [`analyze_flow`], [`ef::analyze_ef`],
//! and [`explain::explain_flow`] for a Figure-2-style breakdown.

pub mod backend;
mod cache;
mod components;
pub mod config;
pub mod ef;
pub mod explain;
pub mod incremental;
pub mod jitter;
pub mod reference;
pub mod report;
pub mod sensitivity;
pub mod smax;
pub mod snapshot;
pub mod survivability;
pub mod telemetry;
pub mod terms;
pub mod wcrt;

pub use backend::TrajectoryAnalyzer;
pub use config::{config_grid, AnalysisConfig, ReverseCounting, SmaxMode};
pub use ef::{analyze_ef, nonpreemption_delta};
pub use explain::{explain_flow, provenance_all, provenance_flow, BoundBreakdown, BoundProvenance};
pub use incremental::{BitIdentityAudit, ConvergedState, EfWhatIf, FlowDelta};
pub use jitter::jitter_bound;
pub use reference::{analyze_all_reference, ReferenceAnalyzer};
pub use report::{FlowReport, SetReport, Verdict};
pub use sensitivity::{critical_flow, deadline_margin, max_admissible_cost, slacks};
pub use snapshot::{ConvergedSnapshot, SnapshotError};
pub use survivability::analyze_degraded;
pub use telemetry::{FixpointTelemetry, RoundTelemetry, RunShape, ShardTelemetry};
pub use wcrt::{analyze_all, analyze_flow, Analyzer};
