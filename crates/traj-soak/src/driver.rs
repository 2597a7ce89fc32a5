//! The soak engine: a deterministic event loop interleaving churn,
//! correlated fault storms, staged recovery and continuous audits
//! against one warm [`AdmissionController`].
//!
//! The whole run derives from the scenario's seed: the event schedule
//! is laid out up front (churn instants, storm instants, repair stages,
//! audit ticks, retry drains), sorted by tick, and executed in order.
//! Same scenario JSON → same decisions, same report — which is what
//! makes a soak failure replayable.
//!
//! Phase behaviour:
//!
//! * **churn** — arrivals sample a fresh route from the scenario's
//!   topology sampler (the *same* sampler the generator used, so churn
//!   traffic is statistically indistinguishable from the initial load);
//!   arrivals whose route crosses an active fault are counted and
//!   skipped, everything else runs warm admission. Departures release a
//!   random admitted flow.
//! * **storms** — [`FaultScenario::correlated_storm`] on the admitted
//!   set, handed to [`AdmissionController::on_fault`]; dropped and
//!   evicted flows join the retry queue, rerouted flows are recorded as
//!   *detours* with their original route.
//! * **recovery** — each storm's faults are partitioned into repair
//!   stages ([`RepairSchedule`]); when a stage repairs, detoured flows
//!   whose original route is clear again are moved back (release +
//!   re-admit; on failure the detour is re-admitted, which monotonicity
//!   guarantees to succeed), and queued flows become eligible for the
//!   gated retry drain.
//! * **audits** — see [`crate::audit`].

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traj_analysis::AnalysisConfig;
use traj_diffserv::{AdmissionController, AdmissionDecision, ReleaseOutcome};
use traj_model::gen::{
    backbone_core_adjacency, backbone_mesh, backbone_path, fat_tree, fat_tree_path, BackboneParams,
    FatTreeParams,
};
use traj_model::{Fault, FaultScenario, FlowId, FlowSet, Path, RepairSchedule, SporadicFlow};
use traj_obs::Histogram;

use crate::audit;
use crate::report::{AuditCounters, ChurnCounters, LatencySummary, SoakReport, StormCounters};
use crate::scenario::SoakScenario;

/// The topology handle: generator parameters plus whatever layout state
/// the route sampler needs.
enum Topo {
    FatTree(FatTreeParams),
    Backbone(BackboneParams, Vec<Vec<usize>>),
}

impl Topo {
    fn sample_route(&self, rng: &mut StdRng) -> Vec<u32> {
        match self {
            Topo::FatTree(p) => fat_tree_path(rng, p),
            Topo::Backbone(p, adj) => backbone_path(rng, p, adj),
        }
    }

    fn lmax(&self) -> i64 {
        match self {
            Topo::FatTree(p) => p.lmax,
            Topo::Backbone(p, _) => p.lmax,
        }
    }
}

/// One scheduled event. Variant order is the same-tick execution order:
/// storms hit before repairs and repairs before churn/audits at the
/// same instant, so an audit never observes a half-applied storm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Storm(u32),
    Repair(u32, u32),
    RetryDrain,
    Churn(u64),
    BitIdentity,
    Window,
}

/// Does `path` avoid every active fault?
fn path_clear(path: &Path, faults: &[Fault]) -> bool {
    for f in faults {
        match f {
            Fault::NodeDown { node } => {
                if path.visits(*node) {
                    return false;
                }
            }
            Fault::LinkDown { from, to } => {
                if path.links().any(|(a, b)| a == *from && b == *to) {
                    return false;
                }
            }
        }
    }
    true
}

/// Builds the sorted event schedule for `s`.
fn schedule(s: &SoakScenario) -> Vec<(u64, Ev)> {
    let mut events: Vec<(u64, Ev)> = Vec::new();
    let dur = s.duration_ticks;

    let churn_events = dur / 1000 * s.churn.events_per_kilotick as u64;
    let epk = s.churn.events_per_kilotick.max(1) as u64;
    for k in 0..churn_events {
        let tick = ((k + 1) * 1000) / epk;
        events.push((tick.min(dur), Ev::Churn(k)));
    }

    for i in 0..s.storms.count {
        let storm_tick = (i as u64 + 1) * dur / (s.storms.count as u64 + 1);
        events.push((storm_tick, Ev::Storm(i)));
        for stage in 0..s.storms.recovery.stages.max(1) {
            let repair_tick =
                storm_tick + (stage as u64 + 1) * s.storms.recovery.stage_gap_ticks.max(1);
            events.push((repair_tick.min(dur), Ev::Repair(i, stage)));
        }
    }

    let mut periodic = |every: u64, ev: Ev| {
        if every == 0 {
            return;
        }
        let mut t = every;
        while t <= dur {
            events.push((t, ev));
            t += every;
        }
    };
    periodic(s.audits.retry_every_ticks, Ev::RetryDrain);
    periodic(s.audits.bit_identity_every_ticks, Ev::BitIdentity);
    periodic(s.audits.window_every_ticks, Ev::Window);

    events.sort();
    events
}

/// Runs `scenario` to completion and returns the fully-accounted
/// report. `Err` only for structural problems (the topology cannot be
/// generated) — audit failures are *reported*, not errors, so the
/// binary can still emit the JSON for forensics.
pub fn run_scenario(scenario: &SoakScenario) -> Result<SoakReport, String> {
    let wall_start = Instant::now();
    let cfg = AnalysisConfig::default();

    // Topology + initial admitted set, from the same seed and sampler.
    let (topo, initial) = match (scenario.fat_tree_params(), scenario.backbone_params()) {
        (Some(p), _) => {
            let set = fat_tree(scenario.seed, &p).map_err(|e| format!("fat-tree: {e}"))?;
            (Topo::FatTree(p), set)
        }
        (_, Some(p)) => {
            let set = backbone_mesh(scenario.seed, &p).map_err(|e| format!("backbone: {e}"))?;
            let mut layout_rng = StdRng::seed_from_u64(scenario.seed);
            let adj = backbone_core_adjacency(&mut layout_rng, &p);
            (Topo::Backbone(p, adj), set)
        }
        _ => return Err("scenario names no topology".to_string()),
    };
    if initial.is_empty() {
        return Err("topology generated no initial flows".to_string());
    }
    // Honour the template's deadline factor on the initial set too (the
    // generators hard-code factor 5, the template default — a no-op
    // there): churn arrivals and the initial load share one deadline
    // shape, so a feasible-heavy scenario is feasible-heavy throughout.
    let initial = {
        let t = &scenario.template;
        let network = initial.network().clone();
        let flows: Vec<SporadicFlow> = initial
            .flows()
            .iter()
            .cloned()
            .map(|mut f| {
                f.deadline = t.deadline_factor * (f.max_cost() + topo.lmax()) * f.path.len() as i64;
                f
            })
            .collect();
        FlowSet::new(network, flows).map_err(|e| format!("deadline reshape: {e}"))?
    };
    let mut next_id = initial.flows().iter().map(|f| f.id.0).max().unwrap_or(0) + 1000;
    let mut controller =
        AdmissionController::new(initial, cfg.clone()).with_tiered(scenario.tiered);

    let mut churn = ChurnCounters::default();
    let mut storms = StormCounters::default();
    let mut audits = AuditCounters::default();
    let mut messages: Vec<String> = Vec::new();
    let mut latency = Histogram::new();
    let mut flows_peak = controller.flows().len();

    // Candidate stream: separate from the generator's seed so churn
    // does not replay the initial flows.
    let mut cand_rng = StdRng::seed_from_u64(scenario.seed.wrapping_add(1));
    let mut active_faults: Vec<Fault> = Vec::new();
    let mut repair_plans: HashMap<u32, RepairSchedule> = HashMap::new();
    // Rerouted flows and the original they should return to. Ordered:
    // restoration walks this map, and each release + re-admit below
    // mutates the controller, so the walk order is observable — a
    // hash map's per-instance random order here made two same-seed
    // runs admit different flows (caught by the determinism test).
    let mut detours: BTreeMap<FlowId, SporadicFlow> = BTreeMap::new();

    let events = schedule(scenario);
    let total_events = events.len() as u64;
    traj_obs::gauge_set("soak.scheduled_events", total_events as i64);

    for (now, ev) in events {
        match ev {
            Ev::Churn(_) => {
                let arrival =
                    cand_rng.gen_range(0.0..1.0) < scenario.churn.arrival_fraction.clamp(0.0, 1.0);
                if arrival {
                    churn.arrivals += 1;
                    let t = &scenario.template;
                    let route = topo.sample_route(&mut cand_rng);
                    let period = cand_rng.gen_range(t.period.0..=t.period.1.max(t.period.0));
                    let cost = cand_rng.gen_range(t.cost.0..=t.cost.1.max(t.cost.0));
                    let jitter = cand_rng.gen_range(t.jitter.0..=t.jitter.1.max(t.jitter.0));
                    let deadline = t.deadline_factor * (cost + topo.lmax()) * route.len() as i64;
                    let Ok(path) = Path::from_ids(route) else {
                        churn.invalid += 1;
                        continue;
                    };
                    if !path_clear(&path, &active_faults) {
                        churn.blocked_by_fault += 1;
                        continue;
                    }
                    let Ok(flow) =
                        SporadicFlow::uniform(next_id, path, period, cost, jitter, deadline)
                    else {
                        churn.invalid += 1;
                        continue;
                    };
                    next_id += 1;
                    let t0 = Instant::now();
                    let decision = controller.try_admit(flow);
                    latency.record(t0.elapsed().as_micros() as u64);
                    match decision {
                        AdmissionDecision::Admitted { .. } => churn.admitted += 1,
                        AdmissionDecision::Rejected { .. } => churn.rejected += 1,
                        AdmissionDecision::Invalid(_) => churn.invalid += 1,
                    }
                    traj_obs::counter_add("soak.churn.arrivals", 1);
                } else {
                    churn.departures += 1;
                    let n = controller.flows().len();
                    let idx = cand_rng.gen_range(0..n);
                    let id = controller.flows().flows()[idx].id;
                    match controller.release(id) {
                        ReleaseOutcome::Released => {
                            detours.remove(&id);
                        }
                        ReleaseOutcome::LastFlowRetained => churn.departures_retained += 1,
                        ReleaseOutcome::NotFound => {}
                    }
                    traj_obs::counter_add("soak.churn.departures", 1);
                }
                flows_peak = flows_peak.max(controller.flows().len());
            }

            Ev::Storm(i) => {
                let _t = traj_obs::ScopedTimer::new("soak.storm").field("now", now);
                let storm_seed = scenario.seed.wrapping_add(storm_salt(i));
                let storm = FaultScenario::correlated_storm(
                    controller.flows(),
                    storm_seed,
                    scenario.storms.link_faults,
                    scenario.storms.node_faults,
                    scenario.storms.radius,
                );
                if storm.faults.is_empty() {
                    storms.storms_skipped += 1;
                    continue;
                }
                // Snapshot originals so rerouted flows can return.
                let originals: HashMap<FlowId, SporadicFlow> = controller
                    .flows()
                    .flows()
                    .iter()
                    .map(|f| (f.id, f.clone()))
                    .collect();
                match controller.on_fault(&storm, now) {
                    Ok(resp) => {
                        storms.storms += 1;
                        storms.faults_injected += storm.faults.len() as u64;
                        storms.dropped += resp.dropped.len() as u64;
                        storms.evicted += resp.evicted.len() as u64;
                        storms.rerouted += resp.rerouted.len() as u64;
                        if resp.last_flow_retained {
                            storms.last_flow_retained += 1;
                        }
                        for id in &resp.rerouted {
                            if let Some(orig) = originals.get(id) {
                                detours.entry(*id).or_insert_with(|| orig.clone());
                            }
                        }
                        repair_plans.insert(
                            i,
                            RepairSchedule::staged(&storm, scenario.storms.recovery.stages),
                        );
                        active_faults.extend(storm.faults.iter().copied());
                        traj_obs::counter_add("soak.storms", 1);
                        // Audit the warm fault path before anything
                        // else touches the controller's state.
                        audit::storm_reanalysis(&controller, now, &mut audits, &mut messages);
                    }
                    Err(_) => {
                        // e.g. the storm would kill every flow: the
                        // controller state is untouched, skip it.
                        storms.storms_skipped += 1;
                    }
                }
                audit::invariants(&controller, now, &mut audits, &mut messages);
            }

            Ev::Repair(storm_idx, stage) => {
                let Some(plan) = repair_plans.get(&storm_idx) else {
                    continue; // the storm was skipped
                };
                let Some(stage_faults) = plan.stages.get(stage as usize).map(|s| s.faults.clone())
                else {
                    continue; // fewer stages than requested (few faults)
                };
                storms.repair_stages += 1;
                for f in &stage_faults {
                    if let Some(pos) = active_faults.iter().position(|a| a == f) {
                        active_faults.remove(pos);
                    }
                }
                traj_obs::counter_add("soak.repair_stages", 1);
                // Move detoured flows back onto repaired routes.
                let candidates: Vec<(FlowId, SporadicFlow)> = detours
                    .iter()
                    .filter(|(_, orig)| path_clear(&orig.path, &active_faults))
                    .map(|(id, orig)| (*id, orig.clone()))
                    .collect();
                for (id, orig) in candidates {
                    let Some(current) = controller.flows().flow(id).cloned() else {
                        // Departed or evicted since: nothing to restore.
                        detours.remove(&id);
                        continue;
                    };
                    if current.path == orig.path {
                        detours.remove(&id);
                        continue;
                    }
                    match controller.release(id) {
                        ReleaseOutcome::Released => {
                            if matches!(
                                controller.try_admit(orig),
                                AdmissionDecision::Admitted { .. }
                            ) {
                                storms.detours_restored += 1;
                                detours.remove(&id);
                            } else if matches!(
                                controller.try_admit(current),
                                AdmissionDecision::Admitted { .. }
                            ) {
                                // The original route no longer fits;
                                // keep the detour (guaranteed to go
                                // back in: we just released it).
                                storms.detour_fallbacks += 1;
                            } else {
                                storms.detour_fallback_failures += 1;
                                if messages.len() < 16 {
                                    messages.push(format!(
                                        "t={now}: detour fallback re-admission failed for {id}"
                                    ));
                                }
                            }
                        }
                        // Last flow standing: leave it on the detour.
                        ReleaseOutcome::LastFlowRetained => {}
                        ReleaseOutcome::NotFound => {
                            detours.remove(&id);
                        }
                    }
                }
            }

            Ev::RetryDrain => {
                let faults = active_faults.clone();
                controller.tick_gated(now, |f| path_clear(&f.path, &faults));
                flows_peak = flows_peak.max(controller.flows().len());
            }

            Ev::BitIdentity => {
                audit::bit_identity(&mut controller, now, &mut audits, &mut messages);
                audit::screening_consistency(&mut controller, now, &mut audits, &mut messages);
            }

            Ev::Window => {
                audit::bound_domination(
                    &mut controller,
                    &scenario.audits,
                    scenario.seed,
                    now,
                    &mut audits,
                    &mut messages,
                );
            }
        }
    }

    let wall = wall_start.elapsed().as_secs_f64();
    let metrics = *controller.metrics();
    let screen_attempts = metrics.screen_hits + metrics.screen_fallbacks;
    let screen_hit_rate = if screen_attempts > 0 {
        metrics.screen_hits as f64 / screen_attempts as f64
    } else {
        0.0
    };
    Ok(SoakReport {
        scenario: scenario.clone(),
        sim_seconds: scenario.duration_ticks as f64 / 1000.0,
        churn,
        storms,
        audits,
        admit_latency: LatencySummary {
            samples: latency.count(),
            p50_us: latency.percentile(0.5),
            p99_us: latency.percentile(0.99),
            max_us: latency.max(),
        },
        flows_final: controller.flows().len(),
        flows_peak,
        wall_seconds: wall,
        events_per_sec_wall: if wall > 0.0 {
            total_events as f64 / wall
        } else {
            0.0
        },
        admission: metrics,
        screen_hit_rate,
        obs_metrics: traj_obs::metrics_snapshot(),
        failure_messages: messages,
    })
}

/// Per-storm seed salt: SplitMix64-style spread so consecutive storm
/// indices land far apart in seed space.
fn storm_salt(i: u32) -> u64 {
    (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TopologySpec;

    fn tiny() -> SoakScenario {
        let mut s = SoakScenario::smoke(11);
        s.duration_ticks = 20_000;
        s.storms.count = 2;
        s.storms.recovery.stage_gap_ticks = 1_000;
        s.audits.bit_identity_every_ticks = 5_000;
        s.audits.window_every_ticks = 10_000;
        s.gates.min_churn_events = 300;
        s.gates.min_storms = 1;
        s
    }

    #[test]
    fn tiny_run_passes_every_gate() {
        let report = run_scenario(&tiny()).unwrap();
        assert_eq!(report.audit_failures(), 0, "{:?}", report.failure_messages);
        assert!(
            report.gate_violations().is_empty(),
            "{:?}",
            report.gate_violations()
        );
        assert!(report.churn.admitted > 0);
        assert!(report.storms.storms >= 1);
        assert!(report.audits.bit_identity_checks >= 3);
        assert!(report.admit_latency.samples > 0);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = run_scenario(&tiny()).unwrap();
        let b = run_scenario(&tiny()).unwrap();
        assert_eq!(a.churn, b.churn);
        assert_eq!(a.storms, b.storms);
        assert_eq!(a.audits, b.audits);
        assert_eq!(a.flows_final, b.flows_final);
        let mut c = tiny();
        c.seed = 12;
        let d = run_scenario(&c).unwrap();
        assert!(
            d.churn != a.churn || d.storms != a.storms,
            "different seeds should diverge"
        );
    }

    #[test]
    fn backbone_topology_runs_too() {
        let mut s = tiny();
        s.topology = TopologySpec::Backbone {
            core: 8,
            chords: 3,
            access_per_core: 2,
        };
        s.duration_ticks = 10_000;
        s.gates.min_churn_events = 150;
        let report = run_scenario(&s).unwrap();
        assert_eq!(report.audit_failures(), 0, "{:?}", report.failure_messages);
        assert!(report.churn.admitted > 0);
    }

    #[test]
    fn schedule_orders_storms_before_audits_at_the_same_tick() {
        let s = tiny();
        let evs = schedule(&s);
        assert!(evs.windows(2).all(|w| w[0].0 <= w[1].0), "sorted by tick");
        let churn: usize = evs
            .iter()
            .filter(|(_, e)| matches!(e, Ev::Churn(_)))
            .count();
        assert_eq!(
            churn as u64,
            s.duration_ticks / 1000 * s.churn.events_per_kilotick as u64
        );
    }

    #[test]
    fn path_clear_sees_both_fault_kinds() {
        let p = Path::from_ids([1, 2, 3]).unwrap();
        assert!(path_clear(&p, &[]));
        assert!(!path_clear(
            &p,
            &[Fault::NodeDown {
                node: traj_model::NodeId(2)
            }]
        ));
        assert!(!path_clear(
            &p,
            &[Fault::LinkDown {
                from: traj_model::NodeId(1),
                to: traj_model::NodeId(2)
            }]
        ));
        // Reverse direction of a directed link fault does not block.
        assert!(path_clear(
            &p,
            &[Fault::LinkDown {
                from: traj_model::NodeId(2),
                to: traj_model::NodeId(1)
            }]
        ));
    }
}
