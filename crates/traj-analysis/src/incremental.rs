//! Incremental warm-start analysis: a converged EF solution carried
//! across changes to its flow set, redoing only the work a change
//! actually perturbs.
//!
//! # One delta
//!
//! Every change goes through [`ConvergedState::apply`] with a
//! [`FlowDelta`]: remove these ids, replace these flows (same id, new
//! path), append these flows. Admission is a pure append
//! ([`ConvergedState::extend`], [`ConvergedState::extend_many`]),
//! teardown a removal ([`ConvergedState::remove`]), and a fault removes
//! the dropped flows and replaces the rerouted ones in one delta.
//!
//! The delta's closure has two grades over the new set:
//!
//! * **rebuilt** — the appended and replaced flows plus every flow
//!   sharing a node with an appended or replaced flow's new path, or
//!   with a removed or replaced flow's old path. Only these have new
//!   interference structure (windows, `M` terms, busy periods, Lemma
//!   4's `δ`); every other skeleton row is carried over
//!   ([`InterferenceCache::delta_for`]).
//! * **stale** — the transitive closure of *rebuilt* over the new
//!   set's crossing graph. Only these can have a different `Smax` row
//!   or full-path verdict; everything outside is reused as it stands,
//!   because a clean flow's crossing-graph component is the same in
//!   the old and new sets.
//!
//! The warm seed is derived from the delta's content. A pure append
//! only adds interference, which is monotone: the standing table is
//! pointwise ≤ the extended least fixed point, so every standing row
//! starts at its standing value (a pre-fixpoint) and only the rebuilt
//! rows are forced through the first round. A delta that removes or
//! replaces flows can move values *down*, so stale rows restart at their
//! transit floor, below the least fixed point, and all of them are
//! forced. Either way Kleene iteration converges to the same least fixed
//! point a cold start reaches, and the bounds are **bit-identical** to
//! [`ConvergedState::build_ef`] of the new set (asserted by
//! `tests/admission_incremental.rs` and `tests/equivalence.rs`).
//!
//! Structural invalidation (a delta the model rejects, a transit seed
//! overflow, a diverging fixed point) degrades to the typed error or to
//! an error report with no state; nothing panics.

use std::collections::HashMap;

use traj_model::{FlowId, FlowSet, ModelError, NodeId, SporadicFlow};

use crate::cache::InterferenceCache;
use crate::config::AnalysisConfig;
use crate::ef::{ef_error_report, ef_report, EfDelta};
use crate::report::{SetReport, Verdict};
use crate::smax::SmaxTable;
use crate::telemetry::FixpointTelemetry;
use crate::wcrt::Analyzer;

/// A converged EF analysis that owns everything needed to warm-start
/// the next one: the set, the interference skeletons, the `Smax` fixed
/// point, and the per-flow full-path verdicts.
///
/// This is the self-owned counterpart of a borrowed
/// [`Analyzer`]: the admission controller holds one across
/// `try_admit`/`release`/`on_fault` calls and applies each change to it
/// instead of re-analysing from scratch.
#[derive(Debug, Clone)]
pub struct ConvergedState {
    set: FlowSet,
    cfg: AnalysisConfig,
    cache: InterferenceCache,
    smax: SmaxTable,
    rounds: usize,
    telemetry: FixpointTelemetry,
    full: Vec<Verdict>,
    report: SetReport,
}

/// One change to a converged set: the flows to remove by id, the flows
/// to replace (same id, new path; they keep their position), and the
/// flows to append. See [`ConvergedState::apply`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowDelta<'a> {
    /// Ids of the flows to take out.
    pub remove: &'a [FlowId],
    /// New versions of standing flows, matched by id.
    pub replace: &'a [SporadicFlow],
    /// Flows to add at the end of the set.
    pub append: &'a [SporadicFlow],
}

/// Outcome of a warm delta: the EF report on the new set, the closure
/// bookkeeping, and — when the analysis bounded — the new converged
/// state ready to commit.
#[derive(Debug, Clone)]
pub struct EfWhatIf {
    /// Property 3 report over the new set, bit-identical to
    /// [`crate::analyze_ef`] on the same set and configuration.
    pub report: SetReport,
    /// The stale closure over the new index space: flows whose `Smax`
    /// row and verdict were recomputed (appended and replaced flows are
    /// always stale). Everything else was reused from the standing
    /// solution.
    pub stale: Vec<bool>,
    /// Rounds the warm-started fixed point took.
    pub rounds: usize,
    /// The new converged state, `Some` whenever the fixed point bounded
    /// (even if some flow misses its deadline — admission policy is the
    /// caller's call). `None` on structural invalidation.
    state: Option<ConvergedState>,
}

impl EfWhatIf {
    /// Number of flows recomputed (the stale closure size).
    pub fn recomputed(&self) -> usize {
        self.stale.iter().filter(|s| **s).count()
    }

    /// Number of standing flows whose solution was reused untouched.
    pub fn reused(&self) -> usize {
        self.stale.iter().filter(|s| !**s).count()
    }

    /// The new converged state, when the analysis bounded.
    pub fn state(&self) -> Option<&ConvergedState> {
        self.state.as_ref()
    }

    /// Consumes the what-if into its committable state.
    pub fn into_state(self) -> Option<ConvergedState> {
        self.state
    }
}

/// Outcome of a warm-vs-cold bit-identity audit
/// ([`ConvergedState::verify_bit_identity`]).
///
/// The incremental engine's contract is that a warm-maintained state is
/// *bit-identical* to a cold [`crate::analyze_ef`] of the same set —
/// not approximately equal, the same integers. This audit recomputes
/// the cold reference and diffs every per-flow verdict; the soak engine
/// runs it as a periodic spot check over hours of churn and after every
/// fault storm.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitIdentityAudit {
    /// Flows compared.
    pub flows: usize,
    /// Flows whose warm `wcrt` or jitter differs from the cold
    /// reference (empty = the audit passed).
    pub mismatches: Vec<FlowId>,
}

impl BitIdentityAudit {
    /// Whether every flow's warm verdict matched the cold reference.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }
}

impl ConvergedState {
    /// Cold build: runs the full EF analysis ([`crate::analyze_ef`]
    /// semantics) and captures the converged solution. `Err` carries
    /// the typed verdict when the set cannot be bounded.
    pub fn build_ef(set: &FlowSet, cfg: &AnalysisConfig) -> Result<Self, Verdict> {
        let universe: Vec<bool> = set.flows().iter().map(|f| f.class.is_ef()).collect();
        let an = Analyzer::with_universe_and_delta(set, cfg, universe, EfDelta)?;
        let report = ef_report(set, &an);
        Ok(Self::from_parts(
            set.clone(),
            cfg.clone(),
            report,
            an.into_state_parts(),
        ))
    }

    fn from_parts(
        set: FlowSet,
        cfg: AnalysisConfig,
        report: SetReport,
        parts: crate::wcrt::AnalyzerParts,
    ) -> Self {
        ConvergedState {
            set,
            cfg,
            cache: parts.cache,
            smax: parts.smax,
            rounds: parts.rounds,
            telemetry: parts.telemetry,
            full: parts.full,
            report,
        }
    }

    /// The standing flow set.
    pub fn set(&self) -> &FlowSet {
        &self.set
    }

    /// The configuration the state converged under.
    pub fn cfg(&self) -> &AnalysisConfig {
        &self.cfg
    }

    /// The standing EF report (what [`crate::analyze_ef`] returned for
    /// the standing set).
    pub fn report(&self) -> &SetReport {
        &self.report
    }

    /// Rounds the standing fixed point took.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Telemetry of the standing fixed point.
    pub fn telemetry(&self) -> &FixpointTelemetry {
        &self.telemetry
    }

    /// Audit the warm state against a fresh cold analysis.
    ///
    /// Recomputes [`crate::analyze_ef`] for the standing set from
    /// scratch and compares every flow's `wcrt` verdict and jitter
    /// bound with the standing warm report. The incremental engine
    /// guarantees bit-identity, so any mismatch is a bug; the soak
    /// harness treats a non-empty mismatch list as a hard failure.
    pub fn verify_bit_identity(&self) -> BitIdentityAudit {
        let cold = crate::analyze_ef(&self.set, &self.cfg);
        let mismatches = self
            .report
            .per_flow()
            .iter()
            .zip(cold.per_flow())
            .filter(|(warm, cold)| warm.wcrt != cold.wcrt || warm.jitter != cold.jitter)
            .map(|(warm, _)| warm.flow)
            .collect();
        BitIdentityAudit {
            flows: self.set.len(),
            mismatches,
        }
    }

    /// Warm what-if: analyse the standing set extended with `candidate`
    /// without committing anything. `Err` means the extension is
    /// structurally invalid (duplicate id, unknown node, …) — the
    /// candidate can never be admitted as modelled.
    pub fn extend(&self, candidate: SporadicFlow) -> Result<EfWhatIf, ModelError> {
        self.extend_many(std::slice::from_ref(&candidate))
    }

    /// Warm what-if over a *batch* of candidates appended at once,
    /// solved with **one** warm fixed point instead of one per
    /// candidate; bit-identical both to a cold analysis of the extended
    /// set and to chaining single `extend` commits. An empty batch
    /// returns the standing state unchanged. `Err` when any candidate
    /// makes the extension structurally invalid; the whole batch is
    /// rejected.
    pub fn extend_many(&self, candidates: &[SporadicFlow]) -> Result<EfWhatIf, ModelError> {
        self.apply(FlowDelta {
            append: candidates,
            ..FlowDelta::default()
        })
    }

    /// Warm teardown: the standing state with flow `id` removed.
    ///
    /// `None` when `id` is not in the set, removing it would empty the
    /// set, or the shrunk fixed point failed — the caller then rebuilds
    /// cold (or drops the state).
    pub fn remove(&self, id: FlowId) -> Option<ConvergedState> {
        self.apply(FlowDelta {
            remove: &[id],
            ..FlowDelta::default()
        })
        .ok()?
        .into_state()
    }

    /// Applies `delta` warm: only the delta's stale closure is re-solved
    /// (see the module docs), and the report is bit-identical to a cold
    /// analysis of the new set. An empty delta returns the standing
    /// state unchanged. `Err` when the model rejects the new set
    /// ([`FlowSet::with_delta`]).
    pub fn apply(&self, delta: FlowDelta<'_>) -> Result<EfWhatIf, ModelError> {
        if delta.remove.is_empty() && delta.replace.is_empty() && delta.append.is_empty() {
            return Ok(EfWhatIf {
                report: self.report.clone(),
                stale: vec![false; self.set.len()],
                rounds: 0,
                state: Some(self.clone()),
            });
        }
        let (set, moved) = self
            .set
            .with_delta(delta.remove, delta.replace, delta.append)?;
        let node_index = set.node_flow_index();
        let (rebuilt, stale) = self.delta_closure(&set, &moved, delta, &node_index);
        let universe: Vec<bool> = set.flows().iter().map(|f| f.class.is_ef()).collect();
        // A pure append is monotone: every standing row is a valid seed.
        // Otherwise stale rows restart at the transit floor. Overflow in
        // the new transit sums aborts with the typed verdict before any
        // unchecked cache arithmetic.
        let append_only = delta.remove.is_empty() && delta.replace.is_empty();
        let mut seed = match SmaxTable::transit(&set) {
            Ok(seed) => seed,
            Err(v) => {
                return Ok(EfWhatIf {
                    report: ef_error_report(&set, &v),
                    stale,
                    rounds: 0,
                    state: None,
                })
            }
        };
        let mut full_prev: Vec<Option<Verdict>> = vec![None; set.len()];
        for (old, new) in moved.iter().enumerate() {
            let Some(k) = *new else { continue };
            if append_only || !stale[k] {
                seed.set_row(k, self.smax.row(old));
            }
            if !stale[k] {
                full_prev[k] = Some(self.full[old].clone());
            }
        }
        let cache = InterferenceCache::delta_for(
            &self.cache,
            &set,
            &self.cfg,
            &universe,
            &EfDelta,
            &rebuilt,
            &moved,
            &node_index,
        );
        let forced = if append_only { &rebuilt } else { &stale };
        let res = Analyzer::with_parts(
            &set,
            &self.cfg,
            universe,
            EfDelta,
            cache,
            seed,
            forced,
            Some(full_prev),
        );
        Ok(match res {
            Ok(an) => {
                let report = ef_report(&set, &an);
                let rounds = an.smax_rounds();
                let parts = an.into_state_parts();
                let state = Self::from_parts(set, self.cfg.clone(), report.clone(), parts);
                EfWhatIf {
                    report,
                    stale,
                    rounds,
                    state: Some(state),
                }
            }
            Err(v) => EfWhatIf {
                report: ef_error_report(&set, &v),
                stale,
                rounds: 0,
                state: None,
            },
        })
    }

    /// The closure of `delta` over the new set `set`, as
    /// `(rebuilt, stale)` (see the module docs). `moved` maps standing
    /// indices to new ones, as returned by [`FlowSet::with_delta`];
    /// `node_index` is the new set's [`FlowSet::node_flow_index`]:
    /// "crosses" is "shares a node", so it yields the flows sharing a
    /// node with a touched path without a pairwise scan.
    fn delta_closure(
        &self,
        set: &FlowSet,
        moved: &[Option<usize>],
        delta: FlowDelta<'_>,
        node_index: &HashMap<NodeId, Vec<usize>>,
    ) -> (Vec<bool>, Vec<bool>) {
        let flows = set.flows();
        let appended_from = flows.len() - delta.append.len();
        let mut rebuilt: Vec<bool> = (0..flows.len()).map(|i| i >= appended_from).collect();
        let touch = |path: &traj_model::Path, rebuilt: &mut Vec<bool>| {
            for n in path.nodes() {
                for &i in node_index.get(n).into_iter().flatten() {
                    rebuilt[i] = true;
                }
            }
        };
        for f in &flows[appended_from..] {
            touch(&f.path, &mut rebuilt);
        }
        if !(delta.remove.is_empty() && delta.replace.is_empty()) {
            for (old, new) in self.set.flows().iter().zip(moved) {
                let replaced = delta.replace.iter().find(|r| r.id == old.id);
                if new.is_some() && replaced.is_none() {
                    continue;
                }
                touch(&old.path, &mut rebuilt);
                if let (Some(k), Some(r)) = (*new, replaced) {
                    rebuilt[k] = true;
                    touch(&r.path, &mut rebuilt);
                }
            }
        }
        // Spread transitively: BFS over the same index, because "crosses"
        // is symmetric.
        let mut stale = rebuilt.clone();
        let mut frontier: Vec<usize> = (0..flows.len()).filter(|&i| stale[i]).collect();
        while let Some(j) = frontier.pop() {
            for n in flows[j].path.nodes() {
                for &i in node_index.get(n).into_iter().flatten() {
                    if !stale[i] {
                        stale[i] = true;
                        frontier.push(i);
                    }
                }
            }
        }
        (rebuilt, stale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_ef;
    use traj_model::examples::{paper_example, paper_example_with_best_effort};
    use traj_model::flow::TrafficClass;
    use traj_model::FlowId;

    fn candidate(id: u32, path: Vec<u32>) -> SporadicFlow {
        SporadicFlow::uniform(
            id,
            traj_model::Path::from_ids(path).unwrap(),
            50,
            2,
            0,
            i64::MAX / 4,
        )
        .unwrap()
        .with_class(TrafficClass::Ef)
    }

    #[test]
    fn extension_matches_cold_analysis_bit_for_bit() {
        let set = paper_example_with_best_effort(5).unwrap();
        for cfg in crate::config_grid() {
            let standing = ConvergedState::build_ef(&set, &cfg).unwrap();
            let cand = candidate(900, vec![1, 3, 4]);
            let whatif = standing.extend(cand.clone()).unwrap();
            let extended = set.extended_with(cand).unwrap();
            let cold = analyze_ef(&extended, &cfg);
            assert_eq!(whatif.report.bounds(), cold.bounds(), "cfg {cfg:?}");
            for (a, b) in whatif.report.per_flow().iter().zip(cold.per_flow()) {
                assert_eq!(a.wcrt, b.wcrt, "cfg {cfg:?}");
                assert_eq!(a.jitter, b.jitter, "cfg {cfg:?}");
            }
            assert!(whatif.state().is_some());
        }
    }

    #[test]
    fn committed_state_equals_cold_built_state_reports() {
        let set = paper_example();
        let cfg = AnalysisConfig::default();
        let standing = ConvergedState::build_ef(&set, &cfg).unwrap();
        let cand = candidate(100, vec![5, 4, 3]);
        let committed = standing.extend(cand.clone()).unwrap().into_state().unwrap();
        let extended = set.extended_with(cand).unwrap();
        let cold = ConvergedState::build_ef(&extended, &cfg).unwrap();
        assert_eq!(committed.report().bounds(), cold.report().bounds());
        // A further extension from the committed state still matches cold.
        let cand2 = candidate(101, vec![9, 10, 7]);
        let w2 = committed.extend(cand2.clone()).unwrap();
        let ext2 = extended.extended_with(cand2).unwrap();
        assert_eq!(w2.report.bounds(), analyze_ef(&ext2, &cfg).bounds());
    }

    #[test]
    fn removal_matches_cold_analysis_bit_for_bit() {
        let set = paper_example_with_best_effort(5).unwrap();
        let cand = candidate(900, vec![1, 3, 4]);
        let extended = set.extended_with(cand).unwrap();
        for cfg in crate::config_grid() {
            let standing = ConvergedState::build_ef(&extended, &cfg).unwrap();
            let shrunk_state = standing.remove(FlowId(900)).unwrap();
            let cold = analyze_ef(&set, &cfg);
            for (a, b) in shrunk_state.report().per_flow().iter().zip(cold.per_flow()) {
                assert_eq!(a.wcrt, b.wcrt, "cfg {cfg:?}");
                assert_eq!(a.jitter, b.jitter, "cfg {cfg:?}");
            }
        }
    }

    #[test]
    fn disjoint_candidate_reuses_every_standing_flow() {
        // Paper example lives on nodes 1..=10; node 64 network not
        // available here, so use a candidate on a node subset disjoint
        // from most flows: nodes [2, 3] cross P1/P3/P4/P5 at node 3 —
        // instead exercise `reused()` accounting on a crossing one.
        let set = paper_example();
        let cfg = AnalysisConfig::default();
        let standing = ConvergedState::build_ef(&set, &cfg).unwrap();
        let whatif = standing.extend(candidate(100, vec![1, 3])).unwrap();
        assert_eq!(whatif.recomputed() + whatif.reused(), set.len() + 1);
        assert!(whatif.stale[set.len()], "candidate itself is always stale");
    }

    #[test]
    fn duplicate_id_is_a_model_error() {
        let set = paper_example();
        let cfg = AnalysisConfig::default();
        let standing = ConvergedState::build_ef(&set, &cfg).unwrap();
        assert!(standing.extend(candidate(1, vec![1, 3])).is_err());
    }

    #[test]
    fn bit_identity_audit_passes_after_churn() {
        let set = paper_example();
        let cfg = AnalysisConfig::default();
        let mut state = ConvergedState::build_ef(&set, &cfg).unwrap();
        assert!(state.verify_bit_identity().passed());
        // Extend, then remove a different flow: the audit must still
        // match a cold analysis of the churned set.
        state = state
            .extend(candidate(100, vec![5, 4, 3]))
            .unwrap()
            .into_state()
            .unwrap();
        state = state.remove(FlowId(2)).unwrap();
        let audit = state.verify_bit_identity();
        assert_eq!(audit.flows, state.set().len());
        assert!(audit.passed(), "mismatches: {:?}", audit.mismatches);
    }

    #[test]
    fn unknown_or_last_flow_removal_yields_none() {
        let set = paper_example();
        let cfg = AnalysisConfig::default();
        let standing = ConvergedState::build_ef(&set, &cfg).unwrap();
        assert!(standing.remove(FlowId(999)).is_none());
        let mut state = standing;
        for id in [1u32, 2, 3, 4] {
            state = state.remove(FlowId(id)).unwrap();
        }
        assert_eq!(state.set().len(), 1);
        assert!(state.remove(state.set().flows()[0].id).is_none());
    }

    #[test]
    fn one_delta_removing_replacing_and_appending_matches_cold() {
        let set = paper_example_with_best_effort(5).unwrap();
        let replaced = {
            let f = &set.flows()[set.index_of(FlowId(3)).unwrap()];
            SporadicFlow::uniform(
                3,
                traj_model::Path::from_ids([1, 3, 4]).unwrap(),
                f.period,
                2,
                0,
                f.deadline,
            )
            .unwrap()
            .with_class(f.class)
        };
        let appended = candidate(900, vec![9, 10, 7]);
        let (want, _) = set
            .with_delta(
                &[FlowId(2)],
                std::slice::from_ref(&replaced),
                std::slice::from_ref(&appended),
            )
            .unwrap();
        for cfg in crate::config_grid() {
            let standing = ConvergedState::build_ef(&set, &cfg).unwrap();
            let warm = standing
                .apply(FlowDelta {
                    remove: &[FlowId(2)],
                    replace: std::slice::from_ref(&replaced),
                    append: std::slice::from_ref(&appended),
                })
                .unwrap();
            let state = warm.state().unwrap();
            let ids = |s: &FlowSet| s.flows().iter().map(|f| f.id).collect::<Vec<_>>();
            assert_eq!(ids(state.set()), ids(&want));
            let cold = analyze_ef(&want, &cfg);
            for (a, b) in warm.report.per_flow().iter().zip(cold.per_flow()) {
                assert_eq!((&a.wcrt, a.jitter), (&b.wcrt, b.jitter), "cfg {cfg:?}");
            }
            assert!(state.verify_bit_identity().passed(), "cfg {cfg:?}");
        }
    }

    #[test]
    fn removing_the_last_flow_keeps_rows_shared_and_matches_cold() {
        // Nothing moves when the tail goes, so carried rows need no
        // renumbering; the result must still equal a cold build.
        let set = paper_example();
        let cfg = AnalysisConfig::default();
        let standing = ConvergedState::build_ef(&set, &cfg).unwrap();
        let last = set.flows()[set.len() - 1].id;
        let shrunk = standing.remove(last).unwrap();
        assert!(shrunk.verify_bit_identity().passed());
        assert_eq!(shrunk.set().len(), set.len() - 1);
    }

    #[test]
    fn unknown_ids_in_a_delta_are_model_errors() {
        let set = paper_example();
        let standing = ConvergedState::build_ef(&set, &AnalysisConfig::default()).unwrap();
        let ghost = candidate(999, vec![1, 3]);
        let err = standing
            .apply(FlowDelta {
                replace: std::slice::from_ref(&ghost),
                ..FlowDelta::default()
            })
            .unwrap_err();
        assert_eq!(err, ModelError::UnknownFlowId { id: FlowId(999) });
    }
}
