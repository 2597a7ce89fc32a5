//! The continuous audit passes the driver interleaves with churn.
//!
//! Four independent families, each checking a different contract of
//! the warm incremental machinery while it is being churned:
//!
//! * **bit identity** — the standing
//!   [`traj_analysis::ConvergedState`] must equal a cold `analyze_ef`
//!   of the same set, integer for integer, plus the controller's
//!   bookkeeping invariants
//!   ([`AdmissionController::check_invariants`]);
//! * **fault reanalysis** — per storm, the controller's warm state
//!   right after [`AdmissionController::on_fault`] (the surviving set
//!   applied as one warm delta, then one warm removal per eviction)
//!   must equal a cold `ConvergedState::build_ef` of its surviving set;
//! * **bound domination** — observed simulated tail latency must stay
//!   at or below the analytic bound for every surviving flow
//!   ([`traj_sim::window_validate`]);
//! * **screening consistency** — on tiered scenarios, screen-served
//!   admits are re-checked against the cold trajectory engine (every
//!   settled flow must still meet its deadline) and the screen's
//!   incremental aggregates against a cold rebuild; zero mismatches
//!   tolerated.
//!
//! Every failure increments a counter in
//! [`crate::report::AuditCounters`] and (capped) pushes a readable
//! message; the report's gates tolerate zero.

use traj_analysis::{analyze_ef, AnalysisConfig, ConvergedState};
use traj_diffserv::{AdmissionController, TieredPolicy};
use traj_sim::{window_validate, SimConfig, WindowParams};

use crate::report::AuditCounters;
use crate::scenario::AuditSpec;

/// Keep only the first few failure messages — enough to debug, bounded
/// so a systematically failing run cannot balloon the report.
const MAX_MESSAGES: usize = 16;

fn push_message(messages: &mut Vec<String>, msg: String) {
    if messages.len() < MAX_MESSAGES {
        messages.push(msg);
    }
}

/// Warm-vs-cold spot check of the controller's standing state, plus the
/// bookkeeping invariant sweep. `now` only labels the messages.
pub fn bit_identity(
    controller: &mut AdmissionController,
    now: u64,
    counters: &mut AuditCounters,
    messages: &mut Vec<String>,
) {
    let _t = traj_obs::ScopedTimer::new("soak.audit.bit_identity").field("now", now);
    counters.bit_identity_checks += 1;
    if let Some(state) = controller.converged_state() {
        let audit = state.verify_bit_identity();
        if !audit.passed() {
            counters.bit_identity_failures += 1;
            push_message(
                messages,
                format!(
                    "t={now}: warm state diverged from cold analysis for flows {:?}",
                    audit.mismatches
                ),
            );
        }
    }
    invariants(controller, now, counters, messages);
}

/// The controller bookkeeping sweep on its own (run after every storm).
pub fn invariants(
    controller: &AdmissionController,
    now: u64,
    counters: &mut AuditCounters,
    messages: &mut Vec<String>,
) {
    counters.invariant_checks += 1;
    let violations = controller.check_invariants();
    if !violations.is_empty() {
        counters.invariant_failures += 1;
        for v in violations {
            push_message(messages, format!("t={now}: invariant: {v}"));
        }
    }
}

/// Per-storm audit of the warm fault path, run right after
/// [`AdmissionController::on_fault`]: the state the controller kept
/// must equal a cold build of its surviving set, flow by flow. A
/// controller left without a state passes only when the cold build
/// cannot bound the set either.
pub fn storm_reanalysis(
    controller: &AdmissionController,
    now: u64,
    counters: &mut AuditCounters,
    messages: &mut Vec<String>,
) {
    let _t = traj_obs::ScopedTimer::new("soak.audit.reanalysis").field("now", now);
    counters.reanalysis_checks += 1;
    let cold = ConvergedState::build_ef(controller.flows(), &AnalysisConfig::default());
    let failure = match (controller.warm_state(), &cold) {
        (Some(warm), Ok(cold)) => {
            let mismatches: Vec<_> = cold
                .report()
                .per_flow()
                .iter()
                .filter(|c| {
                    warm.report()
                        .for_flow(c.flow)
                        .is_none_or(|w| w.wcrt != c.wcrt || w.jitter != c.jitter)
                })
                .map(|c| c.flow)
                .collect();
            (!mismatches.is_empty() || warm.set().len() != controller.flows().len()).then(|| {
                format!("t={now}: warm fault state diverged from cold for flows {mismatches:?}")
            })
        }
        (None, Err(_)) => None,
        (warm, _) => Some(format!(
            "t={now}: after the fault the controller {} a state but the cold build {}",
            if warm.is_some() { "kept" } else { "dropped" },
            if cold.is_ok() {
                "bounds the set"
            } else {
                "diverges"
            }
        )),
    };
    if let Some(msg) = failure {
        counters.reanalysis_failures += 1;
        push_message(messages, msg);
    }
}

/// Screening-consistency audit for tiered controllers: settles any
/// screen-admitted suffix, then re-checks the whole standing set with
/// the *exact* trajectory engine — a screen admit the cold engine would
/// have refused shows up as a deadline miss (or a divergent set). The
/// screen's incremental aggregates must also equal a cold rebuild.
///
/// The single-flow case is exempt from the deadline re-check: the
/// controller deliberately retains an unguaranteed last flow
/// (`LastFlowRetained`), which is not the screen's doing.
pub fn screening_consistency(
    controller: &mut AdmissionController,
    now: u64,
    counters: &mut AuditCounters,
    messages: &mut Vec<String>,
) {
    if controller.tiered() != TieredPolicy::Screened {
        return;
    }
    let _t = traj_obs::ScopedTimer::new("soak.audit.screening").field("now", now);
    counters.screening_checks += 1;
    let standing = controller.flows().len();
    match controller.converged_state() {
        Some(state) => {
            for r in state.report().per_flow() {
                if standing > 1 && r.meets_deadline() != Some(true) {
                    counters.screening_failures += 1;
                    push_message(
                        messages,
                        format!(
                            "t={now}: screened-set re-check: flow {} wcrt {:?} vs deadline {}",
                            r.flow,
                            r.wcrt.value(),
                            r.deadline
                        ),
                    );
                }
            }
        }
        None => {
            if standing > 1 {
                counters.screening_failures += 1;
                push_message(
                    messages,
                    format!("t={now}: screened-set re-check: standing analysis diverged"),
                );
            }
        }
    }
    if let Some(cache) = controller.screen_cache() {
        if !cache.verify_against(controller.flows()) {
            counters.screening_failures += 1;
            push_message(
                messages,
                format!("t={now}: screen aggregate cache drifted from a cold rebuild"),
            );
        }
    }
}

/// Windowed bound-domination sweep: simulate the standing set for a few
/// windows and require every observation at or below its analytic
/// bound. Uses the warm state's report when available (itself audited
/// by [`bit_identity`]), falling back to a cold analysis.
pub fn bound_domination(
    controller: &mut AdmissionController,
    spec: &AuditSpec,
    seed: u64,
    now: u64,
    counters: &mut AuditCounters,
    messages: &mut Vec<String>,
) {
    let _t = traj_obs::ScopedTimer::new("soak.audit.window").field("now", now);
    let (set, bounds) = match controller.converged_state() {
        Some(state) => (state.set().clone(), state.report().bounds()),
        None => {
            let set = controller.flows().clone();
            let bounds = analyze_ef(&set, &AnalysisConfig::default()).bounds();
            (set, bounds)
        }
    };
    counters.window_checks += 1;
    let params = WindowParams {
        windows: spec.windows.max(1),
        seed: seed ^ now,
        sim: SimConfig {
            packets_per_flow: spec.window_packets.max(1),
            ..SimConfig::default()
        },
    };
    let rows = window_validate(&set, &bounds, &params);
    counters.window_flows_checked += rows.len() as u64;
    for row in rows.iter().filter(|r| !r.sound) {
        counters.bound_violations += 1;
        push_message(
            messages,
            format!(
                "t={now}: flow {} observed {} above its bound {:?}",
                row.flow, row.observed, row.bound
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_model::examples::paper_example;

    #[test]
    fn clean_controller_audits_clean() {
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        let mut counters = AuditCounters::default();
        let mut messages = Vec::new();
        bit_identity(&mut ac, 0, &mut counters, &mut messages);
        assert_eq!(counters.bit_identity_checks, 1);
        assert_eq!(counters.bit_identity_failures, 0);
        assert_eq!(counters.invariant_failures, 0);
        let spec = crate::scenario::SoakScenario::smoke(1).audits;
        bound_domination(&mut ac, &spec, 42, 0, &mut counters, &mut messages);
        assert_eq!(counters.window_checks, 1);
        assert_eq!(counters.bound_violations, 0, "{messages:?}");
        assert!(counters.window_flows_checked >= 5);
        assert!(messages.is_empty());
    }

    #[test]
    fn screening_audit_is_clean_on_a_screened_controller() {
        let set = traj_model::examples::line_topology(2, 3, 4000, 4, 0, 1).unwrap();
        let mut ac = AdmissionController::new(set, AnalysisConfig::default())
            .with_tiered(TieredPolicy::Screened);
        for id in 100..106 {
            let f = traj_model::SporadicFlow::uniform(
                id,
                traj_model::Path::from_ids([1, 2, 3]).unwrap(),
                4000,
                4,
                0,
                50_000,
            )
            .unwrap();
            ac.try_admit(f);
        }
        assert!(ac.metrics().screen_hits > 0);
        let mut counters = AuditCounters::default();
        let mut messages = Vec::new();
        screening_consistency(&mut ac, 5, &mut counters, &mut messages);
        assert_eq!(counters.screening_checks, 1);
        assert_eq!(counters.screening_failures, 0, "{messages:?}");
        // Everything pending was settled by the re-check itself.
        assert_eq!(ac.pending_settlement(), 0);
    }

    #[test]
    fn screening_audit_skips_untiered_controllers() {
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        let mut counters = AuditCounters::default();
        let mut messages = Vec::new();
        screening_consistency(&mut ac, 0, &mut counters, &mut messages);
        assert_eq!(counters.screening_checks, 0);
    }

    #[test]
    fn storm_reanalysis_matches_cold_on_the_paper_example() {
        let mut ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        // Warm the state first, so the fault delta has one to apply to.
        assert!(ac.converged_state().is_some());
        ac.on_fault(
            &traj_model::FaultScenario::node_down(traj_model::NodeId(9)),
            7,
        )
        .unwrap();
        let mut counters = AuditCounters::default();
        let mut messages = Vec::new();
        storm_reanalysis(&ac, 7, &mut counters, &mut messages);
        assert_eq!(counters.reanalysis_checks, 1);
        assert_eq!(counters.reanalysis_failures, 0, "{messages:?}");
    }

    #[test]
    fn message_list_is_capped() {
        let mut messages = Vec::new();
        for i in 0..100 {
            push_message(&mut messages, format!("m{i}"));
        }
        assert_eq!(messages.len(), MAX_MESSAGES);
    }
}
