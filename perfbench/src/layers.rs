//! In-process calls into each crate's public functions, timed with spans.
//!
//! [`Replayer`] applies a write stream to an in-process
//! [`AdmissionController`] the way the daemon's writer does: the
//! decision, then a publication of the standing state when it changed.
//! It is the oracle of the `fattree-churn` write stream and, in a traced
//! run, the source of the admission-layer spans of every workload.
//! [`probe`] times the remaining layers on a workload's inputs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use traj_analysis::backend::Analyzer as _;
use traj_analysis::{AnalysisConfig, ConvergedState};
use traj_diffserv::{evaluate_whatif, AdmissionController, AdmissionDecision, ReleaseOutcome};
use traj_model::{FlowId, FlowSet, SporadicFlow};
use traj_netcalc::{AggregateCache, NetcalcAnalyzer};
use traj_serve::protocol::{decision_to_value, parse_request, Response};
use traj_serve::{Engine, EngineConfig};

use crate::trace::Tracer;

/// An in-process controller fed the same writes as the daemon.
pub struct Replayer {
    ac: AdmissionController,
    pub admits: u64,
    pub admitted: u64,
}

impl Replayer {
    pub fn new(set: FlowSet) -> Replayer {
        Replayer {
            ac: AdmissionController::new(set, AnalysisConfig::default()),
            admits: 0,
            admitted: 0,
        }
    }

    pub fn flows(&self) -> &FlowSet {
        self.ac.flows()
    }

    pub fn admit(&mut self, tr: &mut Tracer, flow: SporadicFlow, req: u64) -> AdmissionDecision {
        let ac = &mut self.ac;
        let d = tr.time("admission.try_admit", None, Some(req), || {
            ac.try_admit(flow)
        });
        self.admits += 1;
        if matches!(d, AdmissionDecision::Admitted { .. }) {
            self.admitted += 1;
            self.publish(tr, req);
        }
        d
    }

    pub fn release(&mut self, tr: &mut Tracer, id: FlowId, req: u64) -> ReleaseOutcome {
        let ac = &mut self.ac;
        let out = tr.time("admission.release", None, Some(req), || ac.release(id));
        if out.released() {
            self.publish(tr, req);
        }
        out
    }

    /// What the daemon's writer pays to publish a changed standing state.
    fn publish(&mut self, tr: &mut Tracer, req: u64) {
        let ac = &mut self.ac;
        tr.time("admission.publish", None, Some(req), || {
            ac.converged_state().cloned().map(Arc::new)
        });
    }
}

/// The `whatif` request line for `flow`.
pub fn whatif_line(flow_json: &str, id: u64) -> String {
    format!("{{\"id\":{id},\"op\":\"whatif\",\"flow\":{flow_json}}}")
}

/// Counters gathered by [`probe`].
#[derive(Default)]
pub struct Probe {
    pub rounds: usize,
    pub components: usize,
    pub recomputed: usize,
    pub reused: usize,
    pub screen_hits: usize,
    pub screens: usize,
    pub mismatches: usize,
}

/// Runs `f` at least once and then again while `budget` lasts, up to
/// `max` times.
fn repeat<T>(max: usize, budget: Duration, mut f: impl FnMut() -> T) -> T {
    let t0 = Instant::now();
    let mut out = f();
    for _ in 1..max {
        if t0.elapsed() > budget {
            break;
        }
        out = f();
    }
    out
}

/// Times the model, analysis, netcalc and serve layers on the standing
/// set `set` (installed by `init_line`) and on `candidates`, each call
/// in its own span. Every what-if's in-process answers must agree with
/// each other; disagreements are counted in `mismatches`.
pub fn probe(
    tr: &mut Tracer,
    set: &FlowSet,
    init_line: &str,
    candidates: &[SporadicFlow],
    budget: Duration,
) -> Probe {
    let cfg = AnalysisConfig::default();
    let mut p = Probe::default();
    let step = budget / 8;

    repeat(20, step, || {
        tr.time("serve.parse_init", None, None, || {
            parse_request(init_line).is_ok()
        })
    });
    repeat(20, step, || {
        let (network, flows) = (set.network().clone(), set.flows().to_vec());
        tr.time("model.flowset_new", None, None, || {
            FlowSet::new(network, flows).is_ok()
        })
    });
    let Some(standing) = repeat(20, step, || {
        tr.time("analysis.build_ef", None, None, || {
            ConvergedState::build_ef(set, &cfg).ok()
        })
    }) else {
        p.mismatches += 1;
        return p;
    };
    p.rounds = standing.telemetry().rounds;
    p.components = standing.telemetry().components;
    repeat(20, step, || {
        tr.time("netcalc.analyze", None, None, || {
            NetcalcAnalyzer.analyze(set, &cfg)
        })
    });

    let screen = AggregateCache::build(set);
    let engine = Engine::start(
        Some(AdmissionController::new(set.clone(), cfg.clone())),
        EngineConfig::default(),
    );
    let t0 = Instant::now();
    for (i, c) in candidates.iter().enumerate() {
        if i > 0 && t0.elapsed() > budget / 2 {
            break;
        }
        let req = Some(i as u64);
        let line = whatif_line(
            &serde_json::to_string(c).expect("flow serialises"),
            i as u64,
        );
        let root = tr.open("probe.whatif", None, req);
        tr.time("serve.parse", Some(root), req, || {
            parse_request(&line).is_ok()
        });
        tr.time("model.extended_with", Some(root), req, || {
            set.extended_with(c.clone()).is_ok()
        });
        if let Ok(w) = tr.time("analysis.extend", Some(root), req, || {
            standing.extend(c.clone())
        }) {
            p.recomputed += w.recomputed();
            p.reused += w.reused();
        }
        let decision = tr.time("admission.whatif", Some(root), req, || {
            evaluate_whatif(&standing, c.clone())
        });
        p.screens += 1;
        if tr
            .time("netcalc.screen", Some(root), req, || screen.screen_admit(c))
            .passed()
        {
            p.screen_hits += 1;
        }
        let rendered = tr.time("serve.render", Some(root), req, || {
            Response::ok(req.map(i128::from), decision_to_value(&decision)).to_line()
        });
        let dispatched = tr.time("serve.dispatch", Some(root), req, || {
            engine.dispatch_line(&line)
        });
        tr.close(root);
        if rendered != dispatched {
            p.mismatches += 1;
        }
    }
    engine.dispatch_line("{\"op\":\"shutdown\"}");
    engine.join();

    let t0 = Instant::now();
    for (i, f) in set
        .flows()
        .iter()
        .enumerate()
        .step_by(set.len().div_ceil(64))
    {
        if i > 0 && t0.elapsed() > step {
            break;
        }
        tr.time("analysis.remove", None, Some(i as u64), || {
            standing.remove(f.id)
        });
    }
    p
}
