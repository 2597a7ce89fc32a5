//! Deterministic admission control for the EF class.
//!
//! The paper (§6.2, discussing [12]) argues that deterministic guarantees
//! require admission control based on *worst-case* response times and
//! jitters, not measurements. [`AdmissionController`] implements exactly
//! that: a candidate EF flow is admitted iff, after adding it, **every**
//! EF flow (existing and new) still meets its deadline under the
//! Property 3 bound.
//!
//! # Warm-start evaluation
//!
//! The controller holds the standing set's converged analysis
//! ([`ConvergedState`]) across `try_admit`, `release` and `on_fault`
//! calls, and every change to the admitted set is one warm delta on it
//! ([`ConvergedState::apply`]): an admission appends the candidate, a
//! release removes a flow, and a fault removes the dropped flows and
//! replaces the rerouted ones. Only the delta's transitive closure over
//! the crossing graph is re-solved; everything else — interference
//! skeletons, `Smax` fixed-point rows, full-path verdicts — is reused,
//! and the resulting bounds are bit-identical to a cold analysis
//! (DESIGN.md §10). The state is rebuilt cold only when there is none
//! (after a restore, or when a fixed point diverged); a decision taken
//! by a cold `analyze_ef` run is counted in
//! [`AdmissionMetrics::cold_fallbacks`].
//!
//! [`AdmissionController::try_admit_batch`] evaluates K independent
//! what-ifs against the standing state in parallel (rayon; serially
//! below [`SERIAL_BATCH_MAX_CANDIDATES`]), then commits
//! winners sequentially: because Property 3 bounds are monotone in the
//! flow set, a candidate rejected against the standing set alone is
//! rejected against any superset, so provisional rejections are final;
//! provisional winners after the first commit are re-evaluated against
//! the evolving state.
//!
//! # Graceful degradation
//!
//! [`AdmissionController::on_fault`] re-evaluates the admitted flows on
//! the degraded topology: flows whose route died are dropped, rerouted
//! flows keep their guarantee only if the warm re-analysis still bounds
//! them under their deadline, and when the degraded set is
//! unschedulable the controller *evicts* flows — ordered by
//! [`EvictionPolicy`], as warm removals — until the survivors are
//! guaranteed again. An eviction is solved only when it could relieve
//! every known deadline miss; victims that cannot (they share no
//! crossing-graph component with a miss) leave with the next solved
//! one. Every displaced flow lands in a retry queue with
//! exponential backoff; [`AdmissionController::tick`] drains the queue,
//! re-running full admission control for each entry once the fault is
//! (assumed) repaired.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

use traj_analysis::{analyze_ef, AnalysisConfig, ConvergedState, EfWhatIf, FlowDelta, SetReport};
use traj_model::flow::TrafficClass;
use traj_model::{FaultScenario, FlowFate, FlowId, FlowSet, ModelError, SporadicFlow};
use traj_netcalc::{AggregateCache, ScreenOutcome};

/// Batches at or below this size evaluate their what-ifs serially.
///
/// Fanning two or three closure-pruned what-ifs across rayon costs more
/// in task dispatch than the evaluations themselves: `BENCH_admission.json`
/// measured `speedup_batch` 0.96 (a regression) at 10 standing flows with
/// batches of 2. The threshold keeps small batches on the caller's
/// thread; the decision sequence is identical either way.
const SERIAL_BATCH_MAX_CANDIDATES: usize = 4;

/// Why a flow was rejected, or the bounds it was admitted with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AdmissionDecision {
    /// Admitted; the bound computed for the new flow.
    Admitted {
        /// Property 3 bound of the new flow.
        wcrt: i64,
    },
    /// Rejected: some flow (possibly the candidate) would miss its
    /// deadline.
    Rejected {
        /// The first flow that would miss, with its bound (`None` when
        /// the analysis diverged).
        victim: FlowId,
        /// The offending bound.
        wcrt: Option<i64>,
    },
    /// Rejected: the candidate is malformed for this network.
    Invalid(String),
}

/// Outcome of [`AdmissionController::release`].
///
/// The seed API returned `bool`, which conflated "no such flow" with
/// the structural last-flow case: a [`FlowSet`] cannot be empty, so the
/// final admitted flow is *retained* rather than released, and callers
/// that treated `false` as "already gone" leaked guaranteed capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReleaseOutcome {
    /// The flow existed and was removed.
    Released,
    /// No admitted flow has this id.
    NotFound,
    /// The flow exists but is the last one standing; it stays admitted
    /// because the flow set cannot be empty.
    LastFlowRetained,
}

impl ReleaseOutcome {
    /// `true` iff the flow was actually removed.
    pub fn released(&self) -> bool {
        matches!(self, ReleaseOutcome::Released)
    }
}

/// How a decision was evaluated, for metrics and the decision event.
#[derive(Debug, Clone, Copy)]
struct AdmitMeta {
    /// Served by the warm-start path (standing converged state).
    warm: bool,
    /// Size of the dirty closure the warm path re-solved.
    closure: Option<usize>,
    /// Decided by the O(path) network-calculus screen — no fixed point
    /// ran at all (see [`TieredPolicy::Screened`]).
    screened: bool,
}

impl AdmitMeta {
    fn warm(closure: Option<usize>) -> Self {
        AdmitMeta {
            warm: true,
            closure,
            screened: false,
        }
    }

    fn cold() -> Self {
        AdmitMeta {
            warm: false,
            closure: None,
            screened: false,
        }
    }

    fn screened() -> Self {
        AdmitMeta {
            warm: true,
            closure: None,
            screened: true,
        }
    }
}

/// Which evaluation tiers an [`AdmissionController`] runs per decision.
///
/// [`TieredPolicy::Screened`] puts the O(path-length) network-calculus
/// screen ([`traj_netcalc::AggregateCache`]) in front of the trajectory
/// fixed point: when the (sound, looser) Charny-style closed-form bound
/// already meets every affected flow's deadline the admit commits
/// immediately, and the standing converged state is *settled* lazily —
/// pending screen-admitted flows are folded in with **one** warm fixed
/// point the next time an exact answer is needed (a screen miss, a
/// release, an audit). The decision *kind* is identical to
/// [`TieredPolicy::TrajectoryOnly`] by construction on misses (same
/// code path) and by bound domination on hits (a screen pass implies
/// the trajectory analysis would also admit — enforced by the
/// differential proptest suites and the soak screening audit); the
/// reported `wcrt` of a screen-hit admit carries the netcalc bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TieredPolicy {
    /// Every decision runs the exact trajectory what-if (seed behaviour).
    #[default]
    TrajectoryOnly,
    /// Screen first; fall back to the exact what-if when the screen
    /// cannot vouch (above the Charny threshold, deadline not covered,
    /// non-EF candidate, or checked-arithmetic overflow).
    Screened,
}

/// Which admitted flow to sacrifice first when a fault leaves the
/// degraded set unschedulable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EvictionPolicy {
    /// Evict the lowest scheduling class first (best effort, then AF in
    /// ascending class order, EF last); ties broken latest-admitted-first.
    #[default]
    LowestPriorityFirst,
    /// Evict in reverse admission order regardless of class: the flows
    /// admitted most recently lose their guarantee first.
    LatestAdmittedFirst,
}

/// A displaced flow waiting to be re-admitted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetryEntry {
    /// The flow, exactly as it was admitted.
    pub flow: SporadicFlow,
    /// Earliest tick at which the next admission attempt may run.
    pub next_attempt: u64,
    /// Current backoff interval; doubles after every failed attempt,
    /// saturating at the configured [`RetryPolicy`] cap.
    pub backoff: u64,
    /// Failed re-admission attempts so far.
    pub attempts: u32,
    /// Why the flow was displaced.
    pub reason: String,
}

/// What [`AdmissionController::on_fault`] did to the admitted set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultResponse {
    /// Flows whose route died with the fault (queued for retry).
    pub dropped: Vec<(FlowId, String)>,
    /// Flows rerouted around the fault that kept their guarantee.
    pub rerouted: Vec<FlowId>,
    /// Flows evicted to make the degraded set schedulable again
    /// (queued for retry).
    pub evicted: Vec<FlowId>,
    /// Eviction stopped at the last standing flow while it (or the set)
    /// was still unschedulable: the flow is retained — a [`FlowSet`]
    /// cannot be empty — but its guarantee is void until re-admission
    /// succeeds. Mirrors [`ReleaseOutcome::LastFlowRetained`].
    pub last_flow_retained: bool,
}

/// Retry-queue backoff schedule: exponential doubling from `base`,
/// saturating at `cap`.
///
/// The cap used to be a hard-wired constant; making it configurable lets
/// deployments trade re-admission latency (small cap: repaired capacity
/// is noticed quickly) against analysis load (large cap: fewer futile
/// re-analyses while the fault persists). A cap below `base` is treated
/// as `base` — the first backoff interval is the floor of the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// First backoff interval (ticks) after a displacement or a failed
    /// re-admission attempt.
    pub base: u64,
    /// Backoff saturation point (ticks).
    pub cap: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: 8,
            cap: 1 << 16,
        }
    }
}

impl RetryPolicy {
    /// The effective saturation point (`cap`, floored at `base`).
    pub fn effective_cap(&self) -> u64 {
        self.cap.max(self.base)
    }

    /// The interval following `current`: doubled (saturating in u64,
    /// so a huge cap cannot wrap the arithmetic), clamped to the cap.
    pub fn next_backoff(&self, current: u64) -> u64 {
        current.saturating_mul(2).min(self.effective_cap())
    }
}

/// Monotone counters of everything the controller decided, plus the
/// retry-queue high-water mark. Cheap to keep (a few integer adds per
/// operation), exposed for dashboards and asserted on by the CI
/// observability job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionMetrics {
    /// Successful admissions, including re-admissions from the retry
    /// queue.
    pub admitted: u64,
    /// Rejections (some flow would miss its deadline).
    pub rejected: u64,
    /// Malformed candidates.
    pub invalid: u64,
    /// Flows whose route a fault killed.
    pub dropped: u64,
    /// Flows evicted to restore schedulability after a fault.
    pub evicted: u64,
    /// Retry-queue entries that made it back in.
    pub readmitted: u64,
    /// Re-admission attempts run by [`AdmissionController::tick`].
    pub retry_attempts: u64,
    /// Largest retry-queue depth ever observed.
    pub retry_depth_peak: u64,
    /// Decisions served by the incremental warm-start path.
    #[serde(default)]
    pub warm_hits: u64,
    /// Decisions that fell back to a cold `analyze_ef` run (no standing
    /// converged state, or its rebuild failed).
    #[serde(default)]
    pub cold_fallbacks: u64,
    /// Batched what-if evaluations run.
    #[serde(default)]
    pub batches: u64,
    /// Largest batch ever evaluated.
    #[serde(default)]
    pub batch_peak: u64,
    /// Decisions served by the O(path) network-calculus screen without
    /// running any trajectory fixed point.
    #[serde(default)]
    pub screen_hits: u64,
    /// Screen evaluations that could not vouch and fell back to the
    /// exact trajectory path.
    #[serde(default)]
    pub screen_fallbacks: u64,
    /// Settlements run: pending screen-admitted flows folded into the
    /// standing converged state with one warm fixed point.
    #[serde(default)]
    pub screen_settles: u64,
}

/// Serializable image of an [`AdmissionController`]: the admitted set,
/// configuration, retry queue, metrics and bookkeeping — everything
/// *except* the standing converged analysis, which
/// [`AdmissionController::restore`] rebuilds cold on first use (the
/// warm ≡ cold bit-identity contract makes the rebuild equivalent to
/// having serialized it).
///
/// Taken by [`AdmissionController::snapshot`]; a daemon persists it
/// across restarts so displaced flows keep their backoff schedule and
/// metrics stay monotone over the process boundary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ControllerSnapshot {
    /// The admitted flow set (network + flows).
    pub flows: FlowSet,
    /// Analysis configuration in force.
    pub cfg: AnalysisConfig,
    /// Eviction policy in force.
    pub policy: EvictionPolicy,
    /// Retry backoff schedule in force.
    pub retry_policy: RetryPolicy,
    /// Pending retry queue, verbatim (backoffs and due times included).
    pub retry: Vec<RetryEntry>,
    /// Decision counters at snapshot time.
    pub metrics: AdmissionMetrics,
    /// Admission-order bookkeeping (flow id, sequence number).
    pub order: Vec<(FlowId, u64)>,
    /// Next admission sequence number.
    pub next_seq: u64,
    /// Monotone clock high-water mark (see [`AdmissionController::clock`]).
    pub last_tick: u64,
    /// Tiered-evaluation policy in force (absent in pre-tiering
    /// snapshots, defaulting to [`TieredPolicy::TrajectoryOnly`]).
    #[serde(default)]
    pub tiered: TieredPolicy,
}

/// Why [`AdmissionController::restore`] rejected a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The snapshot's flow set does not validate as a model (duplicate
    /// ids, broken paths, …) — the file is corrupt or hand-edited.
    InvalidFlowSet(String),
    /// The snapshot's bookkeeping violates the controller invariants
    /// (see [`AdmissionController::check_invariants`]); each violation
    /// is listed.
    Inconsistent(Vec<String>),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::InvalidFlowSet(e) => {
                write!(f, "snapshot flow set does not validate: {e}")
            }
            RestoreError::Inconsistent(v) => {
                write!(
                    f,
                    "snapshot violates controller invariants: {}",
                    v.join("; ")
                )
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// Stateful admission controller for a DiffServ domain.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    current: FlowSet,
    cfg: AnalysisConfig,
    /// The standing set's converged analysis, carried across
    /// admissions, releases and faults by warm deltas. `None` before
    /// first use, after a restore, or when a fixed point diverged;
    /// rebuilt lazily (cold) on the next what-if.
    /// Under [`TieredPolicy::Screened`] it may cover only a settled
    /// *prefix* of `current` — screen-hit admits are appended to
    /// `current` without touching it, and [`Self::settle`] folds the
    /// pending suffix in with one warm fixed point.
    state: Option<ConvergedState>,
    /// Incrementally maintained aggregates behind the admission screen;
    /// `None` until first use (or after a fault) and rebuilt lazily.
    /// Tracks `current` exactly whenever present.
    screen: Option<AggregateCache>,
    tiered: TieredPolicy,
    policy: EvictionPolicy,
    retry_policy: RetryPolicy,
    retry: Vec<RetryEntry>,
    metrics: AdmissionMetrics,
    /// Admission sequence numbers; flows present at construction get the
    /// lowest ones in set order.
    order: Vec<(FlowId, u64)>,
    next_seq: u64,
    /// High-water mark of every caller-supplied clock value (`tick`,
    /// `tick_gated`, `on_fault`). The controller's retry schedule runs
    /// on this *monotone* clock: a caller clock that steps backwards —
    /// an NTP correction on a daemon feeding wall-derived ticks — is
    /// clamped to the mark instead of rescheduling entries into the
    /// past (premature fire) or leaving entries scheduled far beyond
    /// the real clock (stranding).
    last_tick: u64,
}

impl AdmissionController {
    /// Starts from an existing (already guaranteed) flow set.
    pub fn new(current: FlowSet, cfg: AnalysisConfig) -> Self {
        Self::with_policy(current, cfg, EvictionPolicy::default())
    }

    /// Starts from an existing flow set with an explicit eviction policy.
    pub fn with_policy(current: FlowSet, cfg: AnalysisConfig, policy: EvictionPolicy) -> Self {
        let order: Vec<(FlowId, u64)> = current
            .flows()
            .iter()
            .enumerate()
            .map(|(i, f)| (f.id, i as u64))
            .collect();
        let next_seq = order.len() as u64;
        AdmissionController {
            current,
            cfg,
            state: None,
            screen: None,
            tiered: TieredPolicy::default(),
            policy,
            retry_policy: RetryPolicy::default(),
            retry: Vec::new(),
            metrics: AdmissionMetrics::default(),
            order,
            next_seq,
            last_tick: 0,
        }
    }

    /// Replaces the retry backoff schedule (builder style).
    pub fn with_retry_policy(mut self, retry_policy: RetryPolicy) -> Self {
        self.retry_policy = retry_policy;
        self
    }

    /// Selects the tiered-evaluation policy (builder style). Under
    /// [`TieredPolicy::Screened`] the aggregate cache is built eagerly
    /// so read-side consumers (the serve view) can screen what-ifs
    /// before the first admit.
    pub fn with_tiered(mut self, tiered: TieredPolicy) -> Self {
        self.tiered = tiered;
        if self.tiered == TieredPolicy::Screened && self.screen.is_none() {
            self.screen = Some(AggregateCache::build(&self.current));
        }
        self
    }

    /// The active tiered-evaluation policy.
    pub fn tiered(&self) -> TieredPolicy {
        self.tiered
    }

    /// Screen-admitted flows not yet folded into the standing converged
    /// state (always 0 under [`TieredPolicy::TrajectoryOnly`]).
    pub fn pending_settlement(&self) -> usize {
        match &self.state {
            Some(st) => self.current.len().saturating_sub(st.set().len()),
            None => 0,
        }
    }

    /// The screen's aggregate cache, if one has been built. Serving
    /// layers publish a clone next to the converged-state snapshot so
    /// read-only what-ifs can screen too; audits compare it against a
    /// cold rebuild via [`AggregateCache::verify_against`].
    pub fn screen_cache(&self) -> Option<&AggregateCache> {
        self.screen.as_ref()
    }

    /// The active eviction policy.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// The active retry backoff schedule.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry_policy
    }

    /// Decision counters accumulated since construction.
    pub fn metrics(&self) -> &AdmissionMetrics {
        &self.metrics
    }

    /// Flows displaced by a fault and still waiting for re-admission.
    pub fn retry_queue(&self) -> &[RetryEntry] {
        &self.retry
    }

    /// The controller's monotone clock: the largest `now` any
    /// [`Self::tick`], [`Self::tick_gated`] or [`Self::on_fault`] call
    /// has supplied so far.
    ///
    /// # Clock contract
    ///
    /// The controller never reads a wall clock; callers drive time by
    /// passing `now`. The retry schedule, however, is interpreted on
    /// the *monotone envelope* of those values: a `now` below a
    /// previously seen one is treated as the previous high-water mark.
    /// Without the clamp a backwards step has two failure modes, both
    /// observed under a daemon feeding wall-derived ticks across an NTP
    /// correction:
    ///
    /// * **premature fire** — a failed re-admission at a bogus small
    ///   `now` reschedules `next_attempt = now + backoff`, so the entry
    ///   fires long before its backoff really elapsed;
    /// * **stranding** — entries scheduled off a bogus *large* `now`
    ///   stay dormant for the difference even after the clock recovers,
    ///   because nothing re-anchors them.
    ///
    /// Clamping keeps `next_attempt` within
    /// `clock() + effective_cap` at all times (checked by
    /// [`Self::check_invariants`]), so no entry can be deferred further
    /// than one full backoff cap past the clock, and no entry fires
    /// before its scheduled distance on the monotone clock.
    pub fn clock(&self) -> u64 {
        self.last_tick
    }

    /// Advances the monotone clock to `now` (or keeps the mark if `now`
    /// runs backwards) and returns the effective time.
    fn advance_clock(&mut self, now: u64) -> u64 {
        if now < self.last_tick && traj_obs::enabled() {
            traj_obs::counter_add("admission.clock_regressions", 1);
            traj_obs::emit(
                traj_obs::Event::new("admission.clock_regression")
                    .field("now", now)
                    .field("clock", self.last_tick),
            );
        }
        self.last_tick = self.last_tick.max(now);
        self.last_tick
    }

    /// The current flow set.
    pub fn flows(&self) -> &FlowSet {
        &self.current
    }

    /// The standing converged analysis of the admitted set, building it
    /// cold first if none is held (nothing warmed it yet, a restore, or
    /// a diverged fixed point). `None` when the standing set itself
    /// cannot be bounded.
    ///
    /// This is the audit surface: the soak harness calls
    /// [`traj_analysis::ConvergedState::verify_bit_identity`] on the
    /// result to spot-check the warm state against a cold re-analysis.
    pub fn converged_state(&mut self) -> Option<&ConvergedState> {
        // Fold any screen-admitted pending flows in first, so the
        // returned state always covers the full admitted set.
        self.settle();
        self.ensure_state()
    }

    /// The converged analysis the controller holds right now, without
    /// building one (see [`Self::converged_state`]). Right after
    /// [`Self::on_fault`] this is the warm result of the fault delta.
    pub fn warm_state(&self) -> Option<&ConvergedState> {
        self.state.as_ref()
    }

    /// Checks the controller's internal bookkeeping invariants and
    /// returns a human-readable description of every violation (empty =
    /// healthy). Run by the soak harness after every fault storm.
    ///
    /// Invariants: retry entries are unique per flow and disjoint from
    /// the admitted set; every backoff lies within the configured
    /// policy's `[base, effective_cap]` band; the admission-order
    /// bookkeeping covers exactly the admitted flows; a standing
    /// converged state, if present, describes exactly the admitted set.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let policy = self.retry_policy;
        let mut seen = HashSet::new();
        for e in &self.retry {
            if !seen.insert(e.flow.id) {
                violations.push(format!("retry queue holds flow {} twice", e.flow.id));
            }
            if self.current.index_of(e.flow.id).is_some() {
                violations.push(format!(
                    "flow {} is both admitted and queued for retry",
                    e.flow.id
                ));
            }
            if e.backoff < policy.base || e.backoff > policy.effective_cap() {
                violations.push(format!(
                    "flow {} backoff {} outside [{}, {}]",
                    e.flow.id,
                    e.backoff,
                    policy.base,
                    policy.effective_cap()
                ));
            }
            // Monotone-clock consequence: every entry is anchored at an
            // effective time ≤ clock(), so its next attempt can sit at
            // most one full backoff cap past the clock. A violation
            // means some path bypassed `advance_clock`.
            if e.next_attempt > self.last_tick.saturating_add(policy.effective_cap()) {
                violations.push(format!(
                    "flow {} next_attempt {} beyond clock {} + cap {}",
                    e.flow.id,
                    e.next_attempt,
                    self.last_tick,
                    policy.effective_cap()
                ));
            }
        }
        let order_ids: HashSet<FlowId> = self.order.iter().map(|(f, _)| *f).collect();
        if order_ids.len() != self.order.len() {
            violations.push("admission order holds duplicate flow ids".to_string());
        }
        if self.order.len() != self.current.len() {
            violations.push(format!(
                "admission order tracks {} flows but {} are admitted",
                self.order.len(),
                self.current.len()
            ));
        }
        for f in self.current.flows() {
            if !order_ids.contains(&f.id) {
                violations.push(format!(
                    "admitted flow {} missing from admission order",
                    f.id
                ));
            }
        }
        if let Some(st) = &self.state {
            let state_ids: Vec<FlowId> = st.set().flows().iter().map(|f| f.id).collect();
            let current_ids: Vec<FlowId> = self.current.flows().iter().map(|f| f.id).collect();
            // Under the screened policy the state may lag behind by the
            // pending (screen-admitted, unsettled) suffix; it must still
            // describe a prefix of the admitted set in admission order.
            let settled_prefix =
                self.tiered == TieredPolicy::Screened && current_ids.starts_with(&state_ids);
            if state_ids != current_ids && !settled_prefix {
                violations
                    .push("standing converged state diverged from the admitted set".to_string());
            }
        }
        if let Some(sc) = &self.screen {
            if sc.len() != self.current.len() {
                violations.push(format!(
                    "screen cache tracks {} flows but {} are admitted",
                    sc.len(),
                    self.current.len()
                ));
            }
        }
        violations
    }

    /// Captures a serializable image of the controller (admitted set,
    /// retry queue, metrics, clock). The standing converged analysis is
    /// deliberately not part of it — [`Self::restore`] rebuilds it cold,
    /// which the bit-identity contract guarantees is equivalent.
    pub fn snapshot(&self) -> ControllerSnapshot {
        ControllerSnapshot {
            flows: self.current.clone(),
            cfg: self.cfg.clone(),
            policy: self.policy,
            retry_policy: self.retry_policy,
            retry: self.retry.clone(),
            metrics: self.metrics,
            order: self.order.clone(),
            next_seq: self.next_seq,
            last_tick: self.last_tick,
            tiered: self.tiered,
        }
    }

    /// Reconstructs a controller from a [`ControllerSnapshot`],
    /// re-validating everything a deserializer cannot: the flow set is
    /// rebuilt through [`FlowSet::new`] (so a corrupt snapshot cannot
    /// smuggle duplicate ids or broken paths past the model layer) and
    /// the bookkeeping must pass [`Self::check_invariants`]. The
    /// converged analysis state is rebuilt lazily on the first what-if.
    pub fn restore(snap: ControllerSnapshot) -> Result<AdmissionController, RestoreError> {
        let flows = FlowSet::new(snap.flows.network().clone(), snap.flows.flows().to_vec())
            .map_err(|e| RestoreError::InvalidFlowSet(format!("{e:?}")))?;
        let ac = AdmissionController {
            screen: (snap.tiered == TieredPolicy::Screened).then(|| AggregateCache::build(&flows)),
            current: flows,
            cfg: snap.cfg,
            state: None,
            tiered: snap.tiered,
            policy: snap.policy,
            retry_policy: snap.retry_policy,
            retry: snap.retry,
            metrics: snap.metrics,
            order: snap.order,
            next_seq: snap.next_seq,
            last_tick: snap.last_tick,
        };
        let violations = ac.check_invariants();
        if !violations.is_empty() {
            return Err(RestoreError::Inconsistent(violations));
        }
        // Sequence numbers must stay ahead of every recorded admission,
        // or the next admission would reuse an order slot.
        if let Some(max_seq) = ac.order.iter().map(|&(_, s)| s).max() {
            if ac.next_seq <= max_seq {
                return Err(RestoreError::Inconsistent(vec![format!(
                    "next_seq {} not beyond the largest recorded sequence {}",
                    ac.next_seq, max_seq
                )]));
            }
        }
        Ok(ac)
    }

    /// Tries to admit `candidate`; on success the controller's state is
    /// updated.
    pub fn try_admit(&mut self, candidate: SporadicFlow) -> AdmissionDecision {
        let (decision, meta) = self.admit_inner(candidate);
        self.record_decision(&decision, meta);
        decision
    }

    /// Evaluates `candidates` as independent what-ifs against the
    /// standing converged state **in parallel** (serially at or below
    /// [`SERIAL_BATCH_MAX_CANDIDATES`], where dispatch would dominate),
    /// then commits winners sequentially. Returns one decision per
    /// candidate, input order.
    ///
    /// Bounds are monotone in the flow set, so a candidate that misses
    /// against the standing set alone misses against any superset:
    /// provisional rejections (and structural invalids) are final.
    /// Provisional winners after the first commit are re-evaluated
    /// against the evolving state — only the first winner's parallel
    /// result is committed as-is.
    ///
    /// The rejected/admitted/invalid *outcome* of every candidate is
    /// identical to sequential [`Self::try_admit`] calls in the same
    /// order; the diagnostic `victim`/`wcrt` of a provisional rejection
    /// is reported against the standing set at fan-out time, which may
    /// differ from what a sequential evaluation (standing set plus
    /// already-committed winners) would have named.
    pub fn try_admit_batch(
        &mut self,
        candidates: Vec<SporadicFlow>,
    ) -> Vec<(FlowId, AdmissionDecision)> {
        if candidates.is_empty() {
            return Vec::new();
        }
        if candidates.len() == 1 {
            return candidates
                .into_iter()
                .map(|c| (c.id, self.try_admit(c)))
                .collect();
        }
        self.metrics.batches += 1;
        self.metrics.batch_peak = self.metrics.batch_peak.max(candidates.len() as u64);
        if traj_obs::enabled() {
            traj_obs::counter_add("admission.batch_size", candidates.len() as u64);
            traj_obs::emit(
                traj_obs::Event::new("admission.batch")
                    .field("candidates", candidates.len())
                    .field("flows", self.current.len()),
            );
        }
        if self.tiered == TieredPolicy::Screened {
            // Screen-first sequential drain: hits commit in O(path)
            // without touching the fixed point, so there is no warm
            // fan-out to amortise; misses settle once, then take the
            // exact path. Decision kinds match the pure batch (itself
            // sequential-equivalent by monotonicity).
            return candidates
                .into_iter()
                .map(|c| (c.id, self.try_admit(c)))
                .collect();
        }
        if self.ensure_state().is_none() {
            // No warm state to fan out against: sequential cold path.
            return candidates
                .into_iter()
                .map(|c| (c.id, self.try_admit(c)))
                .collect();
        }
        let Some(standing) = self.state.take() else {
            // ensure_state just filled it; unreachable, kept total.
            return candidates
                .into_iter()
                .map(|c| (c.id, self.try_admit(c)))
                .collect();
        };
        let whatifs: Vec<Result<EfWhatIf, ModelError>> =
            if candidates.len() <= SERIAL_BATCH_MAX_CANDIDATES {
                // Too few what-ifs to amortise the fork-join dispatch.
                candidates
                    .iter()
                    .map(|c| standing.extend(c.clone()))
                    .collect()
            } else {
                candidates
                    .par_iter()
                    .map(|c| standing.extend(c.clone()))
                    .collect()
            };
        // Put the standing state back before the sequential commits;
        // the first committed winner replaces it.
        self.state = Some(standing);

        let mut committed = false;
        let mut out = Vec::with_capacity(candidates.len());
        for (cand, res) in candidates.into_iter().zip(whatifs) {
            let id = cand.id;
            let decision = if !committed {
                // Nothing changed since the parallel evaluation: the
                // provisional result is exact. Commit on admission.
                let (d, meta) = self.finish_warm(&cand, res);
                committed = matches!(d, AdmissionDecision::Admitted { .. });
                self.record_decision(&d, meta);
                d
            } else {
                match &res {
                    // Structural invalidity against the standing set is
                    // final (duplicate ids vs committed winners surface
                    // through the re-evaluation branch below).
                    Err(e) => {
                        let d = AdmissionDecision::Invalid(e.to_string());
                        self.record_decision(&d, AdmitMeta::warm(None));
                        d
                    }
                    // Provisional miss: final by monotonicity.
                    Ok(w) if Self::first_miss(&w.report).is_some() => {
                        let (victim, wcrt) = Self::first_miss(&w.report).unwrap_or((id, None));
                        let d = AdmissionDecision::Rejected { victim, wcrt };
                        self.record_decision(&d, AdmitMeta::warm(Some(w.recomputed())));
                        d
                    }
                    // Provisional winner: the standing set grew since
                    // the parallel evaluation — re-run against it.
                    Ok(_) => self.try_admit(cand),
                }
            };
            out.push((id, decision));
        }
        out
    }

    /// Lazily (re)builds the standing converged state. `None` when the
    /// cold build itself fails (the standing set cannot be bounded).
    fn ensure_state(&mut self) -> Option<&ConvergedState> {
        if self.state.is_none() {
            self.state = ConvergedState::build_ef(&self.current, &self.cfg).ok();
        }
        self.state.as_ref()
    }

    /// Lazily (re)builds the screen's aggregate cache from the admitted
    /// set. O(flows · path), amortised across every later O(path) screen.
    fn ensure_screen(&mut self) -> &AggregateCache {
        self.screen
            .get_or_insert_with(|| AggregateCache::build(&self.current))
    }

    /// Folds screen-admitted pending flows into the standing converged
    /// state with **one** warm fixed point ([`ConvergedState::extend_many`],
    /// bit-identical to chained single extends and to a cold rebuild).
    /// No-op when nothing is pending; a failed fold drops the state for
    /// a lazy cold rebuild, never losing admitted flows.
    fn settle(&mut self) {
        let Some(st) = self.state.take() else {
            // No standing state: the next `ensure_state` builds cold
            // from `current`, which already contains every admit.
            return;
        };
        let n = st.set().len();
        if n >= self.current.len() {
            self.state = Some(st);
            return;
        }
        let _span =
            traj_obs::ScopedTimer::new("admission.settle").field("pending", self.current.len() - n);
        self.metrics.screen_settles += 1;
        let pending: Vec<SporadicFlow> = self.current.flows()[n..].to_vec();
        self.state = match st.extend_many(&pending) {
            Ok(whatif) => whatif.into_state(),
            Err(_) => None,
        };
        if traj_obs::enabled() {
            traj_obs::counter_add("admission.screen_settles", 1);
        }
    }

    /// The O(path) screened fast path. `Some` when the screen could
    /// decide on its own (a pass commits the admit immediately, deferring
    /// settlement); `None` when it cannot vouch and the exact trajectory
    /// path must run.
    fn screened_admit(
        &mut self,
        candidate: &SporadicFlow,
    ) -> Option<(AdmissionDecision, AdmitMeta)> {
        self.ensure_screen();
        let outcome = self
            .screen
            .as_ref()
            .map(|sc| sc.screen_admit(candidate))
            .unwrap_or(ScreenOutcome::Overflow);
        match outcome {
            ScreenOutcome::Pass { bound } => {
                // Structural validation identical to the exact path —
                // same `ModelError` strings on duplicates and unknown
                // nodes, so Invalid decisions stay bit-identical.
                let tentative = match self.current.extended_with(candidate.clone()) {
                    Ok(s) => s,
                    Err(e) => {
                        return Some((
                            AdmissionDecision::Invalid(e.to_string()),
                            AdmitMeta::screened(),
                        ))
                    }
                };
                self.current = tentative;
                if let Some(sc) = self.screen.as_mut() {
                    sc.admit(candidate);
                }
                self.order.push((candidate.id, self.next_seq));
                self.next_seq += 1;
                // Mirror the warm/cold commits: a successful admission
                // settles any pending retry for this flow.
                self.retry.retain(|e| e.flow.id != candidate.id);
                Some((
                    AdmissionDecision::Admitted { wcrt: bound },
                    AdmitMeta::screened(),
                ))
            }
            ScreenOutcome::Fail { why } => {
                self.metrics.screen_fallbacks += 1;
                if traj_obs::enabled() {
                    traj_obs::counter_add("admission.screen_fallbacks", 1);
                    traj_obs::emit(
                        traj_obs::Event::new("admission.screen_fallback").field("why", why),
                    );
                }
                None
            }
            ScreenOutcome::Overflow => {
                self.metrics.screen_fallbacks += 1;
                if traj_obs::enabled() {
                    traj_obs::counter_add("admission.screen_fallbacks", 1);
                    traj_obs::emit(
                        traj_obs::Event::new("admission.screen_fallback").field("why", "overflow"),
                    );
                }
                None
            }
        }
    }

    fn admit_inner(&mut self, candidate: SporadicFlow) -> (AdmissionDecision, AdmitMeta) {
        if self.tiered == TieredPolicy::Screened {
            if let Some(decided) = self.screened_admit(&candidate) {
                return decided;
            }
            // The screen could not vouch: fold pending screen admits in
            // (one warm fixed point) and take the exact path below.
            self.settle();
        }
        // Warm path: extend the standing converged state; only the
        // candidate's dirty closure is re-solved and the bounds are
        // bit-identical to the cold analysis below.
        let res = self.ensure_state().map(|st| st.extend(candidate.clone()));
        match res {
            Some(res) => self.finish_warm(&candidate, res),
            None => (self.cold_admit(candidate), AdmitMeta::cold()),
        }
    }

    /// The first flow of `report` that would miss its deadline (or has
    /// no bound), if any.
    fn first_miss(report: &SetReport) -> Option<(FlowId, Option<i64>)> {
        report
            .per_flow()
            .iter()
            .find(|r| r.meets_deadline() != Some(true))
            .map(|r| (r.flow, r.wcrt.value()))
    }

    /// The decision implied by a what-if report: the first deadline
    /// miss rejects, a candidate without a verdict is not EF, anything
    /// else is admitted with the candidate's Property 3 bound. Shared
    /// by the warm commit path, the cold fallback and the read-only
    /// [`evaluate_whatif`], so all three decide identically by
    /// construction.
    fn decision_for(report: &SetReport, cand_id: FlowId) -> AdmissionDecision {
        if let Some((victim, wcrt)) = Self::first_miss(report) {
            return AdmissionDecision::Rejected { victim, wcrt };
        }
        match report.for_flow(cand_id).and_then(|r| r.wcrt.value()) {
            Some(wcrt) => AdmissionDecision::Admitted { wcrt },
            None => AdmissionDecision::Invalid(format!(
                "flow {cand_id} is not in the EF class; deterministic admission \
                 covers EF flows only"
            )),
        }
    }

    /// Turns a warm what-if result into a decision, committing the
    /// extended state on admission.
    fn finish_warm(
        &mut self,
        candidate: &SporadicFlow,
        res: Result<EfWhatIf, ModelError>,
    ) -> (AdmissionDecision, AdmitMeta) {
        let cand_id = candidate.id;
        let whatif = match res {
            Ok(w) => w,
            Err(e) => {
                return (
                    AdmissionDecision::Invalid(e.to_string()),
                    AdmitMeta::warm(None),
                )
            }
        };
        let meta = AdmitMeta::warm(Some(whatif.recomputed()));
        let decision = Self::decision_for(&whatif.report, cand_id);
        let AdmissionDecision::Admitted { wcrt } = decision else {
            return (decision, meta);
        };
        match whatif.into_state() {
            Some(st) => {
                self.current = st.set().clone();
                self.state = Some(st);
                if let Some(sc) = self.screen.as_mut() {
                    sc.admit(candidate);
                }
                self.order.push((cand_id, self.next_seq));
                self.next_seq += 1;
                // A successful admission settles any pending retry for
                // this flow: without the purge, a flow re-admitted
                // outside `tick` (operator action, detour restoration)
                // leaves a zombie entry whose backoff keeps doubling on
                // duplicate-id failures — and a later fault's dedup
                // then inherits that inflated backoff instead of
                // restarting at base.
                self.retry.retain(|e| e.flow.id != cand_id);
                (AdmissionDecision::Admitted { wcrt }, meta)
            }
            // Unreachable in practice (an all-bounded report implies a
            // converged state); degrade to the cold path, never panic.
            None => {
                self.state = None;
                (self.cold_admit(candidate.clone()), AdmitMeta::cold())
            }
        }
    }

    /// The seed's from-scratch admission check, kept as the fallback
    /// when no standing converged state exists.
    fn cold_admit(&mut self, candidate: SporadicFlow) -> AdmissionDecision {
        let cand_id = candidate.id;
        // `extended_with` shares the current set's crossing-segment memo
        // with the tentative set: only pairs involving the candidate's
        // path are computed afresh, the standing flows' crossing
        // structure is reused across admission attempts.
        let tentative = match self.current.extended_with(candidate) {
            Ok(s) => s,
            Err(e) => return AdmissionDecision::Invalid(e.to_string()),
        };
        let report = analyze_ef(&tentative, &self.cfg);
        let decision = Self::decision_for(&report, cand_id);
        let AdmissionDecision::Admitted { wcrt } = decision else {
            return decision;
        };
        self.current = tentative;
        if let (Some(sc), Some(f)) = (self.screen.as_mut(), self.current.flows().last()) {
            sc.admit(f);
        }
        self.order.push((cand_id, self.next_seq));
        self.next_seq += 1;
        // Mirror the warm commit: a successful admission settles any
        // pending retry for this flow (see `finish_warm`).
        self.retry.retain(|e| e.flow.id != cand_id);
        AdmissionDecision::Admitted { wcrt }
    }

    /// Counts a decision in the metrics and emits the decision event.
    fn record_decision(&mut self, decision: &AdmissionDecision, meta: AdmitMeta) {
        match decision {
            AdmissionDecision::Admitted { .. } => self.metrics.admitted += 1,
            AdmissionDecision::Rejected { .. } => self.metrics.rejected += 1,
            AdmissionDecision::Invalid(_) => self.metrics.invalid += 1,
        }
        if meta.screened {
            self.metrics.screen_hits += 1;
        } else if meta.warm {
            self.metrics.warm_hits += 1;
        } else {
            self.metrics.cold_fallbacks += 1;
        }
        if traj_obs::enabled() {
            let outcome = match decision {
                AdmissionDecision::Admitted { .. } => "admitted",
                AdmissionDecision::Rejected { .. } => "rejected",
                AdmissionDecision::Invalid(_) => "invalid",
            };
            traj_obs::counter_add("admission.decisions", 1);
            if meta.screened {
                traj_obs::counter_add("admission.screen_hits", 1);
            } else if meta.warm {
                traj_obs::counter_add("admission.warm_hits", 1);
            } else {
                traj_obs::counter_add("admission.cold_fallbacks", 1);
            }
            let mut ev = traj_obs::Event::new("admission.decision")
                .field("outcome", outcome)
                .field("flows", self.current.len())
                .field("warm", meta.warm)
                .field("screened", meta.screened);
            if let Some(closure) = meta.closure {
                ev = ev.field("closure", closure);
            }
            traj_obs::emit(ev);
        }
    }

    /// Removes a flow (session teardown). The relation memo is carried
    /// over, so a later re-admission over the same paths costs no
    /// segment recomputation, and the standing converged state is
    /// shrunk in place (only the flows that crossed the departing one
    /// are re-solved) so the next admission stays warm.
    pub fn release(&mut self, id: FlowId) -> ReleaseOutcome {
        if self.current.index_of(id).is_none() {
            return ReleaseOutcome::NotFound;
        }
        if self.current.len() == 1 {
            // FlowSet cannot be empty: the final flow stays admitted.
            return ReleaseOutcome::LastFlowRetained;
        }
        // The warm shrink removes by id from the converged state, so any
        // screen-admitted pending flows must be folded in first.
        self.settle();
        // Warm maintenance: the shrunk state's set becomes the admitted
        // set. Without a state (or when the shrink fails) the set is
        // shrunk on its own and the next what-if rebuilds cold.
        match self.state.take().and_then(|s| s.remove(id)) {
            Some(st) => {
                self.current = st.set().clone();
                self.state = Some(st);
            }
            None => match self.current.without_flow(id) {
                Ok(rest) => self.current = rest,
                Err(_) => return ReleaseOutcome::NotFound,
            },
        }
        if let Some(sc) = self.screen.as_mut() {
            sc.release(id);
        }
        self.order.retain(|(f, _)| *f != id);
        ReleaseOutcome::Released
    }

    /// Re-evaluates the admitted flows on the topology degraded by
    /// `scenario`, evicting flows (per the configured [`EvictionPolicy`])
    /// until every surviving EF flow meets its deadline again. Displaced
    /// flows — both route casualties and evictees — join the retry queue
    /// with exponential backoff starting at `now`.
    ///
    /// The surviving set is one warm delta on the standing converged
    /// state (dropped ids removed, rerouted flows replaced), and the
    /// evictions are warm removals; the state stays published. Without a
    /// state, or after a fixed point diverged, the next state comes from
    /// the cold build of [`Self::ensure_state`].
    ///
    /// On error (e.g. the fault kills every admitted flow) the controller
    /// state is unchanged.
    pub fn on_fault(
        &mut self,
        scenario: &FaultScenario,
        now: u64,
    ) -> Result<FaultResponse, ModelError> {
        // Same monotone-clock clamp as `tick_gated`: retry entries are
        // anchored at the effective time, never at a backwards wall
        // reading (see `clock()`).
        let now = self.advance_clock(now);
        // The delta applies to the whole admitted set: fold pending
        // screen admits into the state first, as `release` does.
        self.settle();
        let degraded = scenario.apply(&self.current)?;
        if !degraded.fates.iter().any(FlowFate::is_alive) {
            return Err(ModelError::AllFlowsDropped);
        }
        let mut response = FaultResponse::default();
        let mut remove = Vec::new();
        let mut replace = Vec::new();
        // Displaced flows re-enter with their healthy path (the degraded
        // set is index-stable with the admitted one).
        let mut route_lost = Vec::new();
        let mut healthy_of_rerouted: HashMap<FlowId, SporadicFlow> = HashMap::new();
        for ((flow, fate), healthy) in degraded
            .set
            .flows()
            .iter()
            .zip(&degraded.fates)
            .zip(self.current.flows())
        {
            match fate {
                FlowFate::Untouched => {}
                FlowFate::Rerouted { .. } => {
                    response.rerouted.push(flow.id);
                    replace.push(flow.clone());
                    healthy_of_rerouted.insert(flow.id, healthy.clone());
                }
                FlowFate::Dropped { reason } => {
                    response.dropped.push((flow.id, reason.to_string()));
                    remove.push(flow.id);
                    route_lost.push((healthy.clone(), format!("route lost: {reason}")));
                }
            }
        }
        let mut schedulable = self.commit_delta(FlowDelta {
            remove: &remove,
            replace: &replace,
            ..FlowDelta::default()
        })?;
        for (healthy, reason) in route_lost {
            self.enqueue_retry(healthy, now, reason);
        }

        // Evict until the degraded set is schedulable (or nothing is left
        // to sacrifice: FlowSet cannot be empty). The policy picks victims
        // whatever the reports say, so an eviction needs no solve while a
        // flow still misses its deadline in a crossing-graph component no
        // pending victim touches: that flow's verdict cannot move, so the
        // set is still unschedulable. Pending victims leave in one warm
        // delta once every known miss could have been relieved.
        let seq: HashMap<FlowId, u64> = self.order.iter().copied().collect();
        let mut misses = self.misses_by_component();
        let mut pending: HashSet<FlowId> = HashSet::new();
        while !schedulable {
            if self.admitted().len() - pending.len() == 1 {
                response.last_flow_retained = true;
                break;
            }
            let Some(victim) = self.pick_victim(&seq, &pending).cloned() else {
                break;
            };
            response.evicted.push(victim.id);
            pending.insert(victim.id);
            let healthy = healthy_of_rerouted.remove(&victim.id).unwrap_or(victim);
            self.enqueue_retry(
                healthy,
                now,
                "evicted: unschedulable after fault".to_string(),
            );
            if misses.as_ref().is_some_and(|m| m.outlive(&pending)) {
                continue;
            }
            schedulable = self.commit_removal(&mut pending)?;
            misses = self.misses_by_component();
        }
        if !pending.is_empty() {
            self.commit_removal(&mut pending)?;
        }
        if let Some(st) = &self.state {
            self.current = st.set().clone();
        }

        let keep: HashSet<FlowId> = self.current.flows().iter().map(|f| f.id).collect();
        self.order.retain(|(f, _)| keep.contains(f));
        // The screen is rebuilt eagerly under `Screened` so published
        // views never go dark.
        self.screen =
            (self.tiered == TieredPolicy::Screened).then(|| AggregateCache::build(&self.current));
        self.metrics.dropped += response.dropped.len() as u64;
        self.metrics.evicted += response.evicted.len() as u64;
        if traj_obs::enabled() {
            traj_obs::emit(
                traj_obs::Event::new("admission.fault")
                    .field("dropped", response.dropped.len())
                    .field("evicted", response.evicted.len())
                    .field("rerouted", response.rerouted.len())
                    .field("retry_depth", self.retry.len()),
            );
            traj_obs::gauge_set("admission.retry_depth", self.retry.len() as i64);
        }
        Ok(response)
    }

    /// The admitted set while a fault is handled: the standing state's
    /// set when there is one (`current` follows it at the end).
    fn admitted(&self) -> &FlowSet {
        self.state
            .as_ref()
            .map_or(&self.current, ConvergedState::set)
    }

    /// Applies `delta` to the admitted set during a fault: warm on the
    /// standing state when there is one; otherwise `current` changes on
    /// its own and [`Self::ensure_state`] builds the next state cold. A
    /// diverged fixed point leaves no state. Returns whether every flow
    /// now meets its deadline.
    fn commit_delta(&mut self, delta: FlowDelta<'_>) -> Result<bool, ModelError> {
        let meets = |report: &SetReport| Self::first_miss(report).is_none();
        if let Some(st) = self.state.take() {
            let whatif = match st.apply(delta) {
                Ok(w) => w,
                Err(e) => {
                    self.current = st.set().clone();
                    self.state = Some(st);
                    return Err(e);
                }
            };
            let schedulable = meets(&whatif.report);
            match whatif.into_state() {
                // `current` catches up with the state's set once the
                // fault is handled.
                Some(next) => self.state = Some(next),
                None => {
                    self.current = st
                        .set()
                        .with_delta(delta.remove, delta.replace, delta.append)?
                        .0;
                }
            }
            return Ok(schedulable);
        }
        self.current = self
            .current
            .with_delta(delta.remove, delta.replace, delta.append)?
            .0;
        Ok(self.ensure_state().is_some_and(|st| meets(st.report())))
    }

    /// Evicts the `pending` victims in one delta, emptying `pending`;
    /// see [`Self::commit_delta`].
    fn commit_removal(&mut self, pending: &mut HashSet<FlowId>) -> Result<bool, ModelError> {
        let remove: Vec<FlowId> = pending.drain().collect();
        self.commit_delta(FlowDelta {
            remove: &remove,
            ..FlowDelta::default()
        })
    }

    /// Where the standing state's deadline misses lie in its crossing
    /// graph; `None` when nothing misses, or without a state (a diverged
    /// set reports every flow as missing, so no miss can be placed).
    fn misses_by_component(&self) -> Option<Misses> {
        let st = self.state.as_ref()?;
        Self::first_miss(st.report())?;
        let set = st.set();
        // Label the components of "shares a node" by BFS over the
        // inverted node index, as the warm delta's closure walks them.
        let node_index = set.node_flow_index();
        let mut component = vec![usize::MAX; set.len()];
        for start in 0..set.len() {
            if component[start] != usize::MAX {
                continue;
            }
            component[start] = start;
            let mut frontier = vec![start];
            while let Some(j) = frontier.pop() {
                for n in set.flows()[j].path.nodes() {
                    for &i in node_index.get(n).into_iter().flatten() {
                        if component[i] == usize::MAX {
                            component[i] = start;
                            frontier.push(i);
                        }
                    }
                }
            }
        }
        let of: HashMap<FlowId, usize> = set.flows().iter().map(|f| f.id).zip(component).collect();
        let missing = st
            .report()
            .per_flow()
            .iter()
            .filter(|r| r.meets_deadline() != Some(true))
            .filter_map(|r| of.get(&r.flow).copied())
            .collect();
        Some(Misses { of, missing })
    }

    /// Drains due retry-queue entries: each gets one full admission
    /// attempt. Success removes the entry; failure doubles its backoff
    /// (saturating at the configured [`RetryPolicy`] cap). Returns the
    /// decisions taken this tick, in queue order.
    ///
    /// `now` is interpreted on the controller's monotone clock (see
    /// [`Self::clock`]): a value below an earlier tick is clamped, so a
    /// caller feeding wall-derived times through a clock step cannot
    /// fire or strand backoff entries.
    pub fn tick(&mut self, now: u64) -> Vec<(FlowId, AdmissionDecision)> {
        self.tick_gated(now, |_| true)
    }

    /// [`Self::tick`] with an admissibility gate: only due entries whose
    /// flow passes `admissible` are attempted. Gated-out entries are
    /// left untouched — no attempt is counted and their backoff does not
    /// grow, because the flow never got a chance to fail. The soak
    /// driver gates on "the flow's path is clear of every active fault"
    /// so a flow displaced by an unrepaired fault does not burn backoff
    /// doublings on attempts that are known to be futile.
    ///
    /// Entries are tracked by flow id, not queue index: a successful
    /// re-admission purges its own entry inside the commit (see
    /// `finish_warm`), shifting the queue under this loop.
    pub fn tick_gated(
        &mut self,
        now: u64,
        admissible: impl Fn(&SporadicFlow) -> bool,
    ) -> Vec<(FlowId, AdmissionDecision)> {
        // See `clock()` for the monotonicity contract: a backwards
        // caller clock is clamped to the high-water mark so backoff
        // entries neither fire early nor strand.
        let now = self.advance_clock(now);
        let _span = traj_obs::ScopedTimer::new("admission.tick").field("now", now);
        let flows: Vec<SporadicFlow> = self
            .retry
            .iter()
            .filter(|e| e.next_attempt <= now && admissible(&e.flow))
            .map(|e| e.flow.clone())
            .collect();
        self.metrics.retry_attempts += flows.len() as u64;
        // Batched drain: the due entries' what-ifs run in parallel
        // against the standing state; winners commit in queue order.
        let decisions = self.try_admit_batch(flows);
        let policy = self.retry_policy;
        for (id, decision) in &decisions {
            match decision {
                // The commit already purged this flow's entry.
                AdmissionDecision::Admitted { .. } => self.metrics.readmitted += 1,
                _ => {
                    if let Some(e) = self.retry.iter_mut().find(|e| e.flow.id == *id) {
                        e.attempts += 1;
                        e.backoff = policy.next_backoff(e.backoff);
                        e.next_attempt = now.saturating_add(e.backoff);
                    }
                }
            }
        }
        if traj_obs::enabled() && !decisions.is_empty() {
            traj_obs::emit(
                traj_obs::Event::new("admission.tick")
                    .field("attempted", decisions.len())
                    .field("retry_depth", self.retry.len()),
            );
            traj_obs::gauge_set("admission.retry_depth", self.retry.len() as i64);
        }
        decisions
    }

    fn enqueue_retry(&mut self, flow: SporadicFlow, now: u64, reason: String) {
        if self.retry.iter().any(|e| e.flow.id == flow.id) {
            return;
        }
        let base = self.retry_policy.base;
        self.retry.push(RetryEntry {
            flow,
            next_attempt: now.saturating_add(base),
            backoff: base,
            attempts: 0,
            reason,
        });
        self.metrics.retry_depth_peak = self.metrics.retry_depth_peak.max(self.retry.len() as u64);
    }

    /// Picks the next eviction victim per the policy among the admitted
    /// flows not in `pending`; `seq` maps flow ids to admission sequence
    /// numbers.
    fn pick_victim(
        &self,
        seq: &HashMap<FlowId, u64>,
        pending: &HashSet<FlowId>,
    ) -> Option<&SporadicFlow> {
        let seq = |id: FlowId| seq.get(&id).copied().unwrap_or(0);
        let class_rank = |c: &TrafficClass| -> u8 {
            match c {
                TrafficClass::BestEffort => 0,
                TrafficClass::Af(k) => *k,
                TrafficClass::Ef => u8::MAX,
            }
        };
        self.admitted()
            .flows()
            .iter()
            .filter(|f| !pending.contains(&f.id))
            .max_by_key(|f| match self.policy {
                // Lowest class first; ties latest-admitted-first.
                EvictionPolicy::LowestPriorityFirst => (u8::MAX - class_rank(&f.class), seq(f.id)),
                EvictionPolicy::LatestAdmittedFirst => (0, seq(f.id)),
            })
    }
}

/// The crossing-graph components of a solved set that hold a flow
/// missing its deadline (see [`AdmissionController::on_fault`]).
struct Misses {
    /// Component label per flow id.
    of: HashMap<FlowId, usize>,
    /// Labels of the components holding a miss.
    missing: Vec<usize>,
}

impl Misses {
    /// Whether some miss survives removing `victims`: it lies in a
    /// component none of them belongs to, so its verdict cannot change.
    fn outlive(&self, victims: &HashSet<FlowId>) -> bool {
        let hit: Vec<usize> = victims
            .iter()
            .filter_map(|v| self.of.get(v).copied())
            .collect();
        self.missing.iter().any(|c| !hit.contains(c))
    }
}

/// Read-only what-if: the decision an [`AdmissionController`] holding
/// `state` would take for `candidate`, computed without committing
/// anything. Evaluation runs entirely against `&ConvergedState`, so
/// many what-ifs can run concurrently on the same snapshot — this is
/// the serving primitive behind the admission daemon's `whatif`
/// endpoint, and it decides through the exact code path `try_admit`
/// uses ([`AdmissionController::decision_for`]), so a concurrent
/// read is bit-identical to the sequential library answer.
pub fn evaluate_whatif(state: &ConvergedState, candidate: SporadicFlow) -> AdmissionDecision {
    let cand_id = candidate.id;
    match state.extend(candidate) {
        Err(e) => AdmissionDecision::Invalid(e.to_string()),
        Ok(whatif) => AdmissionController::decision_for(&whatif.report, cand_id),
    }
}

/// Tiered read-only what-if: screens `candidate` against the published
/// aggregate cache first and only falls back to the exact
/// [`evaluate_whatif`] when the screen cannot vouch. Returns the
/// decision plus whether the screen served it (for hit/fallback
/// counters). `screen` and `state` must describe the same standing set.
///
/// On a screen pass the candidate is still validated structurally
/// (duplicate id, unknown path nodes) with the same [`ModelError`]
/// strings the exact path would produce — without cloning the flow set,
/// so a screened what-if stays O(path).
pub fn evaluate_whatif_screened(
    screen: &AggregateCache,
    state: &ConvergedState,
    candidate: SporadicFlow,
) -> (AdmissionDecision, bool) {
    if let ScreenOutcome::Pass { bound } = screen.screen_admit(&candidate) {
        let set = state.set();
        if set.index_of(candidate.id).is_some() {
            return (
                AdmissionDecision::Invalid(
                    ModelError::DuplicateFlowId { id: candidate.id }.to_string(),
                ),
                true,
            );
        }
        for &n in candidate.path.nodes() {
            if !set.network().contains(n) {
                return (
                    AdmissionDecision::Invalid(
                        ModelError::UnknownNode {
                            flow: candidate.id,
                            node: n,
                        }
                        .to_string(),
                    ),
                    true,
                );
            }
        }
        return (AdmissionDecision::Admitted { wcrt: bound }, true);
    }
    (evaluate_whatif(state, candidate), false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_model::examples::paper_example;
    use traj_model::Path;

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
    fn admits_light_flow() {
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        match ac.try_admit(candidate(10, 360, 200)) {
            AdmissionDecision::Admitted { wcrt } => assert!(wcrt <= 200),
            other => panic!("expected admission, got {other:?}"),
        }
        assert_eq!(ac.flows().len(), 6);
    }

    #[test]
    fn rejects_when_existing_flow_would_miss() {
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        // A heavy flow on the shared trunk pushes someone past a deadline.
        let heavy =
            SporadicFlow::uniform(11, Path::from_ids([2, 3, 4, 7]).unwrap(), 36, 12, 0, 10_000)
                .unwrap();
        match ac.try_admit(heavy) {
            AdmissionDecision::Rejected { .. } => {}
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(ac.flows().len(), 5, "state unchanged on rejection");
    }

    #[test]
    fn rejects_candidate_missing_its_own_deadline() {
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        match ac.try_admit(candidate(12, 360, 5)) {
            AdmissionDecision::Rejected { victim, .. } => assert_eq!(victim, FlowId(12)),
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_id_is_invalid() {
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        match ac.try_admit(candidate(1, 360, 200)) {
            AdmissionDecision::Invalid(msg) => assert!(msg.contains("duplicate")),
            other => panic!("expected invalid, got {other:?}"),
        }
    }

    #[test]
    fn release_frees_capacity() {
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        assert!(matches!(
            ac.try_admit(candidate(10, 360, 200)),
            AdmissionDecision::Admitted { .. }
        ));
        assert_eq!(ac.release(FlowId(10)), ReleaseOutcome::Released);
        assert_eq!(ac.release(FlowId(10)), ReleaseOutcome::NotFound);
        assert_eq!(ac.flows().len(), 5);
    }

    #[test]
    fn last_flow_is_retained_not_silently_dropped() {
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        for id in [1u32, 2, 3, 4] {
            assert_eq!(ac.release(FlowId(id)), ReleaseOutcome::Released);
        }
        let last = ac.flows().flows()[0].id;
        assert_eq!(ac.release(last), ReleaseOutcome::LastFlowRetained);
        assert_eq!(ac.flows().len(), 1, "the final flow stays admitted");
        assert!(!ac.release(last).released());
    }

    #[test]
    fn admission_reuses_the_relation_memo() {
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        assert!(matches!(
            ac.try_admit(candidate(10, 360, 200)),
            AdmissionDecision::Admitted { .. }
        ));
        let warm = ac.flows().relation_cache().len();
        assert!(warm > 0, "first admission warms the memo");
        // Release and re-admit over the same path: the memo survives both
        // transitions (entries are keyed by path values, which recur).
        assert!(ac.release(FlowId(10)).released());
        assert_eq!(ac.flows().relation_cache().len(), warm);
        assert!(matches!(
            ac.try_admit(candidate(10, 360, 200)),
            AdmissionDecision::Admitted { .. }
        ));
        assert_eq!(ac.flows().relation_cache().len(), warm);
    }

    #[test]
    fn fault_drops_route_casualties_and_queues_them() {
        use traj_model::NodeId;
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        // Node 9 is the source of flow 2: it cannot be rerouted.
        let resp = ac
            .on_fault(&FaultScenario::node_down(NodeId(9)), 0)
            .unwrap();
        assert!(resp.dropped.iter().any(|(id, _)| *id == FlowId(2)));
        assert!(ac.flows().index_of(FlowId(2)).is_none());
        assert!(ac.retry_queue().iter().any(|e| e.flow.id == FlowId(2)));
    }

    #[test]
    fn unschedulable_degradation_evicts_until_guaranteed() {
        // Load the trunk close to capacity, then kill a link so the
        // reroutes concentrate load and someone misses: eviction must
        // restore the guarantee for everyone left.
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        let mut id = 100;
        while let AdmissionDecision::Admitted { .. } = ac.try_admit(candidate(id, 72, 60)) {
            id += 1;
        }
        let before = ac.flows().len();
        let resp = ac
            .on_fault(
                &FaultScenario::link_down(traj_model::NodeId(3), traj_model::NodeId(4)),
                0,
            )
            .unwrap();
        let report = analyze_ef(ac.flows(), &AnalysisConfig::default());
        assert!(
            report
                .per_flow()
                .iter()
                .all(|r| r.meets_deadline() == Some(true))
                || ac.flows().len() == 1,
            "survivors must be guaranteed"
        );
        assert_eq!(
            ac.flows().len() + resp.evicted.len() + resp.dropped.len(),
            before,
            "every displaced flow is accounted for"
        );
    }

    #[test]
    fn eviction_policies_pick_different_victims() {
        use traj_model::flow::TrafficClass;
        let set = paper_example();
        let cfg = AnalysisConfig::default();
        // A BE flow admitted *before* an EF flow: LowestPriorityFirst
        // must pick the BE flow, LatestAdmittedFirst the EF flow.
        let be = SporadicFlow::uniform(50, Path::from_ids([2, 3, 4]).unwrap(), 360, 4, 0, 10_000)
            .unwrap()
            .with_class(TrafficClass::BestEffort);
        let ef = candidate(51, 360, 200);
        let mut extended = set.clone();
        for f in [be, ef] {
            extended = extended.extended_with(f).unwrap();
        }
        let low = AdmissionController::with_policy(
            extended.clone(),
            cfg.clone(),
            EvictionPolicy::LowestPriorityFirst,
        );
        let late = AdmissionController::with_policy(
            extended.clone(),
            cfg.clone(),
            EvictionPolicy::LatestAdmittedFirst,
        );
        let victim = |ac: &AdmissionController| {
            let seq: HashMap<FlowId, u64> = ac.order.iter().copied().collect();
            ac.pick_victim(&seq, &HashSet::new()).map(|f| f.id)
        };
        assert_eq!(victim(&low), Some(FlowId(50)));
        assert_eq!(victim(&late), Some(FlowId(51)));
    }

    #[test]
    fn retry_backoff_doubles_until_capacity_returns() {
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        // Fill to rejection so a retried flow cannot come back.
        let mut id = 100;
        while let AdmissionDecision::Admitted { .. } = ac.try_admit(candidate(id, 72, 60)) {
            id += 1;
        }
        // Displace one admitted flow by hand through a fault on its path:
        // use the eviction path via an impossible candidate instead —
        // simpler: drop flow 2's source.
        let resp = ac
            .on_fault(&FaultScenario::node_down(traj_model::NodeId(9)), 0)
            .unwrap();
        assert!(!resp.dropped.is_empty());
        let n_queued = ac.retry_queue().len();
        assert!(n_queued > 0);
        let first_attempt = ac.retry_queue()[0].next_attempt;
        // Nothing due before the backoff expires.
        assert!(ac.tick(first_attempt - 1).is_empty());
        let decisions = ac.tick(first_attempt);
        assert_eq!(decisions.len(), 1);
        if !matches!(decisions[0].1, AdmissionDecision::Admitted { .. }) {
            let e = &ac.retry_queue()[0];
            assert_eq!(e.attempts, 1);
            assert_eq!(e.backoff, 2 * RetryPolicy::default().base);
            assert_eq!(e.next_attempt, first_attempt + e.backoff);
        }
    }

    #[test]
    fn retry_backoff_saturates_at_the_configured_cap() {
        // Fill to rejection so the displaced flow keeps failing
        // re-admission, then watch its backoff double into the cap.
        let cap = 20;
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default())
            .with_retry_policy(RetryPolicy { base: 8, cap });
        let mut id = 100;
        while let AdmissionDecision::Admitted { .. } = ac.try_admit(candidate(id, 72, 60)) {
            id += 1;
        }
        ac.on_fault(&FaultScenario::node_down(traj_model::NodeId(9)), 0)
            .unwrap();
        let queued: Vec<FlowId> = ac.retry_queue().iter().map(|e| e.flow.id).collect();
        assert!(!queued.is_empty());
        let mut saturated = false;
        for _ in 0..6 {
            let Some(e) = ac.retry_queue().iter().find(|e| e.flow.id == queued[0]) else {
                break; // readmitted — nothing left to saturate
            };
            let due = e.next_attempt;
            ac.tick(due);
            if let Some(e) = ac.retry_queue().iter().find(|e| e.flow.id == queued[0]) {
                assert!(e.backoff <= cap, "backoff {} exceeds cap {cap}", e.backoff);
                saturated |= e.backoff == cap;
            }
        }
        if ac.retry_queue().iter().any(|e| e.flow.id == queued[0]) {
            assert!(saturated, "six failed attempts must reach the 20-tick cap");
        }
    }

    #[test]
    fn retry_policy_cap_below_base_clamps_to_base() {
        let p = RetryPolicy { base: 10, cap: 1 };
        assert_eq!(p.effective_cap(), 10);
        assert_eq!(p.next_backoff(10), 10);
        // Saturating doubling: no u64 wrap even at extreme values.
        let huge = RetryPolicy {
            base: 1,
            cap: u64::MAX,
        };
        assert_eq!(huge.next_backoff(u64::MAX / 2 + 1), u64::MAX);
    }

    #[test]
    fn metrics_count_decisions_and_displacements() {
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        assert!(matches!(
            ac.try_admit(candidate(10, 360, 200)),
            AdmissionDecision::Admitted { .. }
        ));
        assert!(matches!(
            ac.try_admit(candidate(10, 360, 200)),
            AdmissionDecision::Invalid(_)
        ));
        assert!(matches!(
            ac.try_admit(candidate(12, 360, 5)),
            AdmissionDecision::Rejected { .. }
        ));
        let m = ac.metrics();
        assert_eq!((m.admitted, m.rejected, m.invalid), (1, 1, 1));
        ac.on_fault(&FaultScenario::node_down(traj_model::NodeId(9)), 0)
            .unwrap();
        let m = ac.metrics();
        assert!(m.dropped >= 1);
        assert!(m.retry_depth_peak >= 1);
        let due = ac.retry_queue()[0].next_attempt;
        ac.tick(due);
        let m = ac.metrics();
        assert!(m.retry_attempts >= 1);
        assert_eq!(
            m.readmitted, 1,
            "the repaired topology takes flow 2 back on the first due tick"
        );
    }

    #[test]
    fn readmission_after_release_clears_the_queue() {
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        let resp = ac
            .on_fault(&FaultScenario::node_down(traj_model::NodeId(9)), 0)
            .unwrap();
        assert!(resp.dropped.iter().any(|(id, _)| *id == FlowId(2)));
        // The topology is "repaired" (the controller re-checks against
        // the full network); the queued flow comes back on the next due
        // tick.
        let due = ac.retry_queue()[0].next_attempt;
        let decisions = ac.tick(due);
        assert!(matches!(
            decisions[0],
            (FlowId(2), AdmissionDecision::Admitted { .. })
        ));
        assert!(ac.retry_queue().is_empty());
        assert!(ac.flows().index_of(FlowId(2)).is_some());
    }

    #[test]
    fn admission_fills_up_then_rejects() {
        // Keep admitting identical light flows until rejection: the
        // controller must reject in finite time (capacity is finite).
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        let mut admitted = 0;
        for id in 100..200 {
            match ac.try_admit(candidate(id, 72, 60)) {
                AdmissionDecision::Admitted { .. } => admitted += 1,
                AdmissionDecision::Rejected { .. } => break,
                AdmissionDecision::Invalid(m) => panic!("unexpected invalid: {m}"),
            }
        }
        assert!(admitted >= 1, "at least one light flow fits");
        assert!(admitted < 100, "capacity is finite");
    }

    #[test]
    fn warm_admissions_decide_exactly_like_a_cold_controller() {
        // Two controllers, same operation sequence; `warm` keeps its
        // converged state hot, `cold` has it knocked out before every
        // decision. Decisions and final sets must agree exactly.
        let mut warm = AdmissionController::new(paper_example(), AnalysisConfig::default());
        let mut cold = AdmissionController::new(paper_example(), AnalysisConfig::default());
        let script: Vec<(u32, i64, i64)> = vec![
            (10, 360, 200),
            (11, 72, 60),
            (12, 360, 5),
            (13, 36, 10_000),
            (14, 144, 150),
        ];
        for (id, period, deadline) in script {
            cold.state = None;
            let dw = warm.try_admit(candidate(id, period, deadline));
            let dc = cold.try_admit(candidate(id, period, deadline));
            assert_eq!(dw, dc, "flow {id}");
        }
        assert!(warm.release(FlowId(10)).released());
        cold.state = None;
        assert!(cold.release(FlowId(10)).released());
        let dw = warm.try_admit(candidate(20, 144, 150));
        cold.state = None;
        let dc = cold.try_admit(candidate(20, 144, 150));
        assert_eq!(dw, dc);
        assert_eq!(
            warm.flows()
                .flows()
                .iter()
                .map(|f| f.id)
                .collect::<Vec<_>>(),
            cold.flows()
                .flows()
                .iter()
                .map(|f| f.id)
                .collect::<Vec<_>>(),
        );
        assert!(warm.metrics().warm_hits >= 5, "warm path actually ran");
    }

    #[test]
    fn batch_matches_sequential_admission_order() {
        // A batch must produce exactly the decisions sequential
        // try_admit calls produce in the same order.
        let cands: Vec<SporadicFlow> = vec![
            candidate(10, 360, 200),
            candidate(11, 360, 5),   // misses its own deadline
            candidate(10, 360, 200), // duplicate of the first winner
            candidate(12, 144, 150),
        ];
        let mut batch = AdmissionController::new(paper_example(), AnalysisConfig::default());
        let mut seq = AdmissionController::new(paper_example(), AnalysisConfig::default());
        let got = batch.try_admit_batch(cands.clone());
        let want: Vec<(FlowId, AdmissionDecision)> = cands
            .into_iter()
            .map(|c| (c.id, seq.try_admit(c)))
            .collect();
        // Outcomes match sequential evaluation exactly; a provisional
        // rejection's diagnostic victim is allowed to differ (it is
        // named against the standing set at fan-out time).
        for ((gid, g), (wid, w)) in got.iter().zip(&want) {
            assert_eq!(gid, wid);
            match (g, w) {
                (AdmissionDecision::Rejected { .. }, AdmissionDecision::Rejected { .. }) => {}
                _ => assert_eq!(g, w),
            }
        }
        assert_eq!(batch.metrics().batches, 1);
        assert_eq!(batch.metrics().batch_peak, 4);
        assert_eq!(
            batch
                .flows()
                .flows()
                .iter()
                .map(|f| f.id)
                .collect::<Vec<_>>(),
            seq.flows().flows().iter().map(|f| f.id).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn empty_and_singleton_batches_take_the_direct_path() {
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        assert!(ac.try_admit_batch(Vec::new()).is_empty());
        let got = ac.try_admit_batch(vec![candidate(10, 360, 200)]);
        assert!(matches!(got[0].1, AdmissionDecision::Admitted { .. }));
        assert_eq!(ac.metrics().batches, 0, "singletons are not batches");
    }

    #[test]
    fn a_fault_keeps_the_warm_state_bit_identical_to_cold() {
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        assert!(matches!(
            ac.try_admit(candidate(10, 360, 200)),
            AdmissionDecision::Admitted { .. }
        ));
        assert!(ac.state.is_some(), "admission leaves a standing state");
        ac.on_fault(&FaultScenario::node_down(traj_model::NodeId(9)), 0)
            .unwrap();
        let st = ac.warm_state().expect("a fault keeps the state published");
        let cold = ConvergedState::build_ef(ac.flows(), &AnalysisConfig::default()).unwrap();
        assert_eq!(st.set().len(), ac.flows().len());
        for r in cold.report().per_flow() {
            let w = st.report().for_flow(r.flow).unwrap();
            assert_eq!((&w.wcrt, w.jitter), (&r.wcrt, r.jitter), "flow {}", r.flow);
        }
        assert!(ac.check_invariants().is_empty());
        // The next admission extends the kept state: warm, no cold
        // fallback.
        let (warm, cold_before) = (ac.metrics().warm_hits, ac.metrics().cold_fallbacks);
        assert!(matches!(
            ac.try_admit(candidate(30, 360, 200)),
            AdmissionDecision::Admitted { .. }
        ));
        assert_eq!(ac.metrics().warm_hits, warm + 1);
        assert_eq!(ac.metrics().cold_fallbacks, cold_before);
    }

    #[test]
    fn backoff_resets_on_successful_readmission_not_on_fault() {
        // Regression: a flow re-admitted outside `tick` (operator
        // action, detour restoration) used to leave a zombie retry
        // entry; later due attempts failed as duplicate ids, doubling
        // the backoff, and the *next* fault's dedup inherited that
        // inflated schedule. A successful admission must settle the
        // retry entry so a fresh displacement restarts at base.
        let base = RetryPolicy::default().base;
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        let orig = paper_example()
            .flows()
            .iter()
            .find(|f| f.id == FlowId(2))
            .cloned()
            .unwrap();
        ac.on_fault(&FaultScenario::node_down(traj_model::NodeId(9)), 0)
            .unwrap();
        assert!(ac.retry_queue().iter().any(|e| e.flow.id == FlowId(2)));
        // The route is repaired out of band and the flow re-admitted
        // directly, not via the retry queue.
        assert!(matches!(
            ac.try_admit(orig),
            AdmissionDecision::Admitted { .. }
        ));
        assert!(
            ac.retry_queue().iter().all(|e| e.flow.id != FlowId(2)),
            "successful admission must purge the retry entry"
        );
        // A later tick has nothing to attempt for flow 2 (no zombie
        // duplicate-id failures inflating the backoff). Probed at 50 —
        // past the purged entry's original due time — rather than a
        // huge value, so the monotone clock clamp (see `clock()`) does
        // not pin the second fault's schedule below.
        assert!(ac.tick(50).is_empty());
        // A second displacement starts a *fresh* schedule at base.
        ac.on_fault(&FaultScenario::node_down(traj_model::NodeId(9)), 100)
            .unwrap();
        let e = ac
            .retry_queue()
            .iter()
            .find(|e| e.flow.id == FlowId(2))
            .unwrap();
        assert_eq!(e.backoff, base);
        assert_eq!(e.attempts, 0);
        assert_eq!(e.next_attempt, 100 + base);
        assert!(ac.check_invariants().is_empty());
    }

    #[test]
    fn gated_tick_leaves_blocked_entries_untouched() {
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        ac.on_fault(&FaultScenario::node_down(traj_model::NodeId(9)), 0)
            .unwrap();
        let due = ac.retry_queue()[0].next_attempt;
        let attempts_before = ac.metrics().retry_attempts;
        // Gate every flow out (the fault is "still active"): no attempt
        // runs, no backoff grows.
        assert!(ac.tick_gated(due, |_| false).is_empty());
        let e = &ac.retry_queue()[0];
        assert_eq!(e.attempts, 0);
        assert_eq!(e.backoff, RetryPolicy::default().base);
        assert_eq!(ac.metrics().retry_attempts, attempts_before);
        // Lift the gate: the flow comes back and its entry is purged.
        let decisions = ac.tick_gated(due, |_| true);
        assert!(matches!(
            decisions[0],
            (FlowId(2), AdmissionDecision::Admitted { .. })
        ));
        assert!(ac.retry_queue().is_empty());
        assert!(ac.check_invariants().is_empty());
    }

    #[test]
    fn converged_state_accessor_builds_lazily_and_audits_clean() {
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        assert!(ac.state.is_none());
        let audit = ac.converged_state().map(|st| st.verify_bit_identity());
        assert!(audit.map(|a| a.passed()).unwrap_or(false));
        assert!(ac.state.is_some(), "the accessor leaves the state warm");
    }

    #[test]
    fn clock_is_a_monotone_envelope() {
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        assert_eq!(ac.clock(), 0);
        assert!(ac.tick(100).is_empty());
        assert_eq!(ac.clock(), 100);
        // A backwards tick (an NTP step on a daemon feeding wall-derived
        // times) is clamped to the high-water mark…
        assert!(ac.tick(40).is_empty());
        assert_eq!(ac.clock(), 100);
        // …and a fault at a bogus small `now` anchors its retry entries
        // on the envelope, not the bogus clock: no premature fire.
        let base = RetryPolicy::default().base;
        ac.on_fault(&FaultScenario::node_down(traj_model::NodeId(9)), 50)
            .unwrap();
        let e = ac
            .retry_queue()
            .iter()
            .find(|e| e.flow.id == FlowId(2))
            .unwrap();
        assert_eq!(e.next_attempt, 100 + base);
        assert!(ac.check_invariants().is_empty());
    }

    #[test]
    fn snapshots_carrying_retired_engine_keys_restore_with_identical_verdicts() {
        // Snapshots written while the analysis configuration still had
        // its fixed-point strategy, sharding and intra-round parallelism
        // keys must keep loading: the keys are ignored, and the one
        // engine reproduces the recorded verdicts.
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        assert!(matches!(
            ac.try_admit(candidate(10, 360, 200)),
            AdmissionDecision::Admitted { .. }
        ));
        let json = serde_json::to_string(&ac.snapshot()).unwrap();
        let rounds = "\"max_smax_rounds\":256";
        assert_eq!(json.matches(rounds).count(), 1, "{json}");
        let old = json.replace(
            rounds,
            "\"max_smax_rounds\":256,\"fixpoint\":\"Reference\",\
             \"shard_mode\":\"Monolithic\",\"intra_parallel\":\"Always\"",
        );
        let snap: ControllerSnapshot = serde_json::from_str(&old).unwrap();
        let mut restored = AdmissionController::restore(snap).unwrap();
        let verdicts = |a: &mut AdmissionController| {
            a.converged_state()
                .map(|st| st.report().clone())
                .expect("a bounded standing set")
        };
        let (before, after) = (verdicts(&mut ac), verdicts(&mut restored));
        assert_eq!(before.per_flow().len(), 6);
        for (a, b) in before.per_flow().iter().zip(after.per_flow()) {
            assert_eq!(a.flow, b.flow);
            assert_eq!(a.wcrt, b.wcrt);
            assert_eq!(a.jitter, b.jitter);
        }
    }

    #[test]
    fn snapshot_restore_round_trip_preserves_everything() {
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        assert!(matches!(
            ac.try_admit(candidate(10, 360, 200)),
            AdmissionDecision::Admitted { .. }
        ));
        ac.on_fault(&FaultScenario::node_down(traj_model::NodeId(9)), 100)
            .unwrap();
        assert!(ac.tick(105).is_empty()); // advance the clock mid-backoff
        let snap = ac.snapshot();
        let mut restored = AdmissionController::restore(snap).unwrap();
        assert_eq!(restored.clock(), ac.clock());
        assert_eq!(restored.metrics(), ac.metrics());
        assert_eq!(restored.retry_queue(), ac.retry_queue());
        assert_eq!(restored.policy(), ac.policy());
        assert_eq!(restored.retry_policy(), ac.retry_policy());
        let ids =
            |a: &AdmissionController| a.flows().flows().iter().map(|f| f.id).collect::<Vec<_>>();
        assert_eq!(ids(&restored), ids(&ac));
        assert!(restored.check_invariants().is_empty());
        // The restored controller behaves identically from here on:
        // drain both retry queues at the entry's due time.
        let due = ac.retry_queue()[0].next_attempt;
        assert_eq!(ac.tick(due), restored.tick(due));
        assert_eq!(restored.metrics(), ac.metrics());
    }

    #[test]
    fn restore_rejects_inconsistent_snapshots() {
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        ac.on_fault(&FaultScenario::node_down(traj_model::NodeId(9)), 0)
            .unwrap();
        // A duplicated retry entry.
        let mut snap = ac.snapshot();
        let dup = snap.retry[0].clone();
        snap.retry.push(dup);
        assert!(matches!(
            AdmissionController::restore(snap),
            Err(RestoreError::Inconsistent(_))
        ));
        // A sequence counter behind a recorded admission.
        let mut snap = ac.snapshot();
        snap.next_seq = 0;
        assert!(matches!(
            AdmissionController::restore(snap),
            Err(RestoreError::Inconsistent(_))
        ));
        // An entry stranded beyond the monotone-clock bound.
        let mut snap = ac.snapshot();
        snap.retry[0].next_attempt = u64::MAX;
        assert!(matches!(
            AdmissionController::restore(snap),
            Err(RestoreError::Inconsistent(_))
        ));
    }

    /// A light standing set the screen can vouch for: low utilisation,
    /// generous deadlines, well below the Charny threshold.
    fn light_controller(tiered: TieredPolicy) -> AdmissionController {
        let set = traj_model::examples::line_topology(2, 3, 4000, 4, 0, 1).unwrap();
        AdmissionController::new(set, AnalysisConfig::default()).with_tiered(tiered)
    }

    fn light_candidate(id: u32, deadline: i64) -> SporadicFlow {
        SporadicFlow::uniform(id, Path::from_ids([1, 2, 3]).unwrap(), 4000, 4, 0, deadline)
            .unwrap()
            .with_class(traj_model::flow::TrafficClass::Ef)
    }

    #[test]
    fn screened_admits_without_running_the_fixed_point() {
        let mut ac = light_controller(TieredPolicy::Screened);
        for id in 100..110 {
            assert!(matches!(
                ac.try_admit(light_candidate(id, 50_000)),
                AdmissionDecision::Admitted { .. }
            ));
        }
        assert_eq!(ac.metrics().screen_hits, 10);
        assert_eq!(ac.metrics().warm_hits, 0);
        assert_eq!(ac.metrics().cold_fallbacks, 0);
        assert_eq!(ac.pending_settlement(), 0, "no state was ever built");
        assert!(ac.check_invariants().is_empty());
        // The settled state covers everyone and every deadline holds.
        let st = ac.converged_state().unwrap();
        assert_eq!(st.set().len(), 12);
        assert!(st
            .report()
            .per_flow()
            .iter()
            .all(|r| r.meets_deadline() == Some(true)));
    }

    #[test]
    fn screened_decisions_match_the_pure_controller() {
        let mut pure = light_controller(TieredPolicy::TrajectoryOnly);
        let mut tiered = light_controller(TieredPolicy::Screened);
        // Feasible admits, an infeasible deadline, a duplicate id, a
        // release, then more admits: kinds (and victims) must agree.
        let script: Vec<SporadicFlow> = vec![
            light_candidate(100, 50_000),
            light_candidate(101, 50_000),
            light_candidate(102, 5),      // misses its own deadline
            light_candidate(100, 50_000), // duplicate
            light_candidate(103, 50_000),
        ];
        for cand in script {
            let p = pure.try_admit(cand.clone());
            let t = tiered.try_admit(cand);
            match (&p, &t) {
                (AdmissionDecision::Admitted { .. }, AdmissionDecision::Admitted { .. }) => {}
                _ => assert_eq!(p, t),
            }
        }
        assert_eq!(pure.release(FlowId(101)), tiered.release(FlowId(101)));
        let p = pure.try_admit(light_candidate(104, 50_000));
        let t = tiered.try_admit(light_candidate(104, 50_000));
        assert!(matches!(p, AdmissionDecision::Admitted { .. }));
        assert!(matches!(t, AdmissionDecision::Admitted { .. }));
        // Settled standing analyses are bit-identical.
        let pb = pure.converged_state().unwrap().report().bounds();
        let tb = tiered.converged_state().unwrap().report().bounds();
        assert_eq!(pb, tb);
        assert!(tiered.metrics().screen_hits > 0, "the screen served admits");
        assert!(tiered.check_invariants().is_empty());
    }

    #[test]
    fn screen_fallback_still_decides_exactly() {
        // paper_example sits above the Charny threshold: every screened
        // decision must fall back and agree with the pure path exactly.
        let cfg = AnalysisConfig::default();
        let mut pure = AdmissionController::new(paper_example(), cfg.clone());
        let mut tiered =
            AdmissionController::new(paper_example(), cfg).with_tiered(TieredPolicy::Screened);
        for (id, deadline) in [(10u32, 200i64), (11, 5), (12, 200)] {
            let p = pure.try_admit(candidate(id, 360, deadline));
            let t = tiered.try_admit(candidate(id, 360, deadline));
            assert_eq!(p, t, "fallback decisions are bit-identical");
        }
        assert_eq!(tiered.metrics().screen_hits, 0);
        assert!(tiered.metrics().screen_fallbacks >= 3);
    }

    #[test]
    fn snapshot_round_trips_the_tiered_policy() {
        let mut ac = light_controller(TieredPolicy::Screened);
        assert!(matches!(
            ac.try_admit(light_candidate(100, 50_000)),
            AdmissionDecision::Admitted { .. }
        ));
        let snap = ac.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: ControllerSnapshot = serde_json::from_str(&json).unwrap();
        let restored = AdmissionController::restore(back).unwrap();
        assert_eq!(restored.tiered(), TieredPolicy::Screened);
        assert_eq!(restored.flows().len(), ac.flows().len());
        // Pre-tiering snapshots (no field) default to TrajectoryOnly.
        let stripped = json.replace(",\"tiered\":\"Screened\"", "");
        assert_ne!(stripped, json, "the field must actually be stripped");
        let old: ControllerSnapshot = serde_json::from_str(&stripped).unwrap();
        assert_eq!(
            AdmissionController::restore(old).unwrap().tiered(),
            TieredPolicy::TrajectoryOnly
        );
    }

    #[test]
    fn screened_whatif_matches_controller_outcomes() {
        let mut ac = light_controller(TieredPolicy::Screened);
        ac.try_admit(light_candidate(100, 50_000));
        let screen = ac.screen_cache().cloned().unwrap();
        let state = ac.converged_state().unwrap().clone();
        let (d, hit) = evaluate_whatif_screened(&screen, &state, light_candidate(101, 50_000));
        assert!(hit);
        assert!(matches!(d, AdmissionDecision::Admitted { .. }));
        // Duplicate id: same Invalid string as the exact path.
        let (d, hit) = evaluate_whatif_screened(&screen, &state, light_candidate(100, 50_000));
        assert!(hit);
        let exact = evaluate_whatif(&state, light_candidate(100, 50_000));
        assert_eq!(d, exact);
        // Tight deadline: screen falls back, exact rejection.
        let (d, hit) = evaluate_whatif_screened(&screen, &state, light_candidate(102, 5));
        assert!(!hit);
        assert_eq!(d, evaluate_whatif(&state, light_candidate(102, 5)));
    }

    /// The cold eviction loop `on_fault` ran before faults went warm: a
    /// cold `analyze_ef` per eviction over the surviving set, victims
    /// picked from that set, and the state dropped at the end. Kept as
    /// the oracle of the differential tests below.
    fn on_fault_cold(
        ac: &mut AdmissionController,
        scenario: &FaultScenario,
        now: u64,
    ) -> Result<FaultResponse, ModelError> {
        let now = ac.advance_clock(now);
        ac.settle();
        let degraded = scenario.apply(&ac.current)?;
        let mut response = FaultResponse::default();
        let mut set = degraded.surviving_set()?;
        for (idx, fate) in degraded.fates.iter().enumerate() {
            let flow = &degraded.set.flows()[idx];
            match fate {
                FlowFate::Untouched => {}
                FlowFate::Rerouted { .. } => response.rerouted.push(flow.id),
                FlowFate::Dropped { reason } => {
                    response.dropped.push((flow.id, reason.to_string()));
                    if let Some(orig) = ac.current.flows().iter().find(|f| f.id == flow.id) {
                        ac.enqueue_retry(orig.clone(), now, format!("route lost: {reason}"));
                    }
                }
            }
        }
        let seq = |ac: &AdmissionController, id: FlowId| -> u64 {
            ac.order
                .iter()
                .find(|(f, _)| *f == id)
                .map(|(_, s)| *s)
                .unwrap_or(0)
        };
        loop {
            let report = analyze_ef(&set, &ac.cfg);
            if report
                .per_flow()
                .iter()
                .all(|r| r.meets_deadline() == Some(true))
            {
                break;
            }
            if set.len() == 1 {
                response.last_flow_retained = true;
                break;
            }
            let rank = |c: &TrafficClass| match c {
                TrafficClass::BestEffort => 0,
                TrafficClass::Af(k) => *k,
                TrafficClass::Ef => u8::MAX,
            };
            let Some(victim) = set
                .flows()
                .iter()
                .max_by_key(|f| match ac.policy {
                    EvictionPolicy::LowestPriorityFirst => {
                        (u8::MAX - rank(&f.class), seq(ac, f.id))
                    }
                    EvictionPolicy::LatestAdmittedFirst => (0, seq(ac, f.id)),
                })
                .map(|f| f.id)
            else {
                break;
            };
            set = set.without_flow(victim)?;
            response.evicted.push(victim);
            if let Some(orig) = ac.current.flows().iter().find(|f| f.id == victim) {
                ac.enqueue_retry(
                    orig.clone(),
                    now,
                    "evicted: unschedulable after fault".to_string(),
                );
            }
        }
        let keep: HashSet<FlowId> = set.flows().iter().map(|f| f.id).collect();
        ac.order.retain(|(f, _)| keep.contains(f));
        ac.current = set;
        ac.state = None;
        ac.screen =
            (ac.tiered == TieredPolicy::Screened).then(|| AggregateCache::build(&ac.current));
        ac.metrics.dropped += response.dropped.len() as u64;
        ac.metrics.evicted += response.evicted.len() as u64;
        Ok(response)
    }

    /// A controller grown by admission from the first flow of `set`:
    /// generated sets are often unschedulable as a whole.
    fn admitted(set: &FlowSet, policy: EvictionPolicy) -> AdmissionController {
        let first = FlowSet::new(set.network().clone(), set.flows()[..1].to_vec()).unwrap();
        let mut ac = AdmissionController::with_policy(first, AnalysisConfig::default(), policy);
        for f in &set.flows()[1..] {
            ac.try_admit(f.clone());
        }
        ac
    }

    /// Runs `scenario` through the warm `on_fault` and the cold oracle on
    /// two copies of `ac` and requires the same response, retry queue,
    /// bookkeeping and, per flow id, the same final report.
    /// Returns the number of evictions.
    fn assert_warm_fault_matches_cold(ac: &AdmissionController, scenario: &FaultScenario) -> usize {
        let mut warm = ac.clone();
        let mut cold = ac.clone();
        let got = warm.on_fault(scenario, 5);
        let want = on_fault_cold(&mut cold, scenario, 5);
        match (&got, &want) {
            (Ok(g), Ok(w)) => assert_eq!(g, w),
            (Err(g), Err(w)) => assert_eq!(g.to_string(), w.to_string()),
            _ => panic!("warm {got:?} vs cold {want:?}"),
        }
        assert_eq!(warm.retry_queue(), cold.retry_queue());
        assert_eq!(warm.order, cold.order);
        assert_eq!(warm.metrics(), cold.metrics());
        let ids = |s: &FlowSet| s.flows().iter().map(|f| f.id).collect::<Vec<_>>();
        assert_eq!(ids(warm.flows()), ids(cold.flows()));
        assert!(warm.check_invariants().is_empty());
        let reference = ConvergedState::build_ef(cold.flows(), &AnalysisConfig::default());
        match (warm.warm_state(), &reference) {
            (Some(st), Ok(cold_state)) => {
                for r in cold_state.report().per_flow() {
                    let w = st.report().for_flow(r.flow).unwrap();
                    assert_eq!((&w.wcrt, w.jitter), (&r.wcrt, r.jitter), "flow {}", r.flow);
                }
            }
            (None, Err(_)) => {}
            (st, _) => panic!(
                "warm state present: {}, cold build bounded: {}",
                st.is_some(),
                reference.is_ok()
            ),
        }
        got.map(|r| r.evicted.len()).unwrap_or(0)
    }

    /// Picks a node (one pick in four) or a used link of `set` to take
    /// down.
    fn pick_fault(set: &FlowSet, pick: usize) -> FaultScenario {
        if pick.is_multiple_of(4) {
            let nodes = set.network().nodes().to_vec();
            FaultScenario::node_down(nodes[pick % nodes.len()])
        } else {
            let links: Vec<_> = set.flows().iter().flat_map(|f| f.path.links()).collect();
            match links.get(pick % links.len().max(1)) {
                Some(&(a, b)) => FaultScenario::link_down(a, b),
                None => FaultScenario::new(Vec::new()),
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        #[test]
        fn warm_fault_matches_the_cold_loop_on_random_meshes(
            seed in 0u64..1_000_000,
            pick in 0usize..64,
            policy_pick in 0u8..2,
        ) {
            let p = traj_model::gen::MeshParams {
                nodes: 6,
                flows: 60,
                path_len: (2, 4),
                cost: (1, 3),
                max_utilisation: 0.95,
                ..Default::default()
            };
            let set = traj_model::gen::random_mesh(seed, &p).unwrap();
            let policy = if policy_pick == 1 {
                EvictionPolicy::LatestAdmittedFirst
            } else {
                EvictionPolicy::LowestPriorityFirst
            };
            let ac = admitted(&set, policy);
            assert_warm_fault_matches_cold(&ac, &pick_fault(ac.flows(), pick));
        }

        #[test]
        fn warm_fault_matches_the_cold_loop_on_fat_trees(
            seed in 0u64..1_000_000,
            pick in 0usize..64,
            locality_pick in 0usize..3,
        ) {
            let ac = loaded_fat_tree(seed, [1.0, 0.8, 0.3][locality_pick]);
            let flows = ac.flows().flows();
            assert_warm_fault_matches_cold(&ac, &edge_link_fault(&flows[pick % flows.len()]));
        }
    }

    /// A two-pod fat tree filled by admission until deadlines bind.
    fn loaded_fat_tree(seed: u64, locality: f64) -> AdmissionController {
        let p = traj_model::gen::FatTreeParams {
            pods: 2,
            flows: 120,
            locality,
            ..Default::default()
        };
        admitted(
            &traj_model::gen::fat_tree(seed, &p).unwrap(),
            EvictionPolicy::default(),
        )
    }

    /// `flow`'s first link, edge to aggregation, taken down: its flows
    /// detour through the pod's other aggregation switch and load it.
    fn edge_link_fault(flow: &SporadicFlow) -> FaultScenario {
        match flow.path.links().next() {
            Some((a, b)) => FaultScenario::link_down(a, b),
            None => FaultScenario::new(Vec::new()),
        }
    }

    #[test]
    fn warm_evictions_match_the_cold_loop_on_loaded_fat_trees() {
        let mut evicted = 0;
        for seed in 0..4 {
            let ac = loaded_fat_tree(seed, 0.8);
            for flow in ac.flows().flows().iter().take(8) {
                evicted += assert_warm_fault_matches_cold(&ac, &edge_link_fault(flow));
            }
        }
        assert!(evicted > 0, "some fault must force evictions");
    }

    #[test]
    fn overloaded_fault_falls_back_through_the_cold_build_and_matches_the_loop() {
        // Flow 1 (1→2→3) loads its path at 0.5 and flow 6 (11→6→12) at
        // 0.6; flows 2–5 are light and only provide the detour links
        // 1→5→6→7→3, none of them crossing both heavy flows. With 2→3
        // down, flow 1 detours through node 6, in the middle of its new
        // path, and its busy period diverges: the fault delta's fixed
        // point fails, and the evictions go on from the cold build.
        let network = traj_model::Network::uniform(12, 1, 1).unwrap();
        let flow = |id: u32, nodes: &[u32], period: i64, cost: i64| {
            let path = Path::from_ids(nodes.iter().copied()).unwrap();
            SporadicFlow::uniform(id, path, period, cost, 0, 100_000).unwrap()
        };
        let set = FlowSet::new(
            network,
            vec![
                flow(1, &[1, 2, 3], 10, 5),
                flow(2, &[1, 5], 1000, 1),
                flow(3, &[5, 6], 1000, 1),
                flow(4, &[6, 7], 1000, 1),
                flow(5, &[7, 3], 1000, 1),
                flow(6, &[11, 6, 12], 10, 6),
            ],
        )
        .unwrap();
        let scenario = FaultScenario::link_down(traj_model::NodeId(2), traj_model::NodeId(3));
        let degraded = scenario.apply(&set).unwrap();
        assert!(matches!(degraded.fates[0], FlowFate::Rerouted { .. }));
        let survivors = degraded.surviving_set().unwrap();
        assert!(
            ConvergedState::build_ef(&survivors, &AnalysisConfig::default()).is_err(),
            "the detour must overload flow 1"
        );
        for policy in [
            EvictionPolicy::LowestPriorityFirst,
            EvictionPolicy::LatestAdmittedFirst,
        ] {
            let ac = admitted(&set, policy);
            assert_eq!(ac.flows().len(), set.len(), "every flow is admissible");
            assert_warm_fault_matches_cold(&ac, &scenario);
            let mut warm = ac.clone();
            let resp = warm.on_fault(&scenario, 5).unwrap();
            assert_eq!(resp.evicted, vec![FlowId(6)]);
            assert!(
                warm.warm_state().is_some(),
                "the cold build republishes a state"
            );
        }
    }
}
