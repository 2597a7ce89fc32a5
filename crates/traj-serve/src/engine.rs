//! The serving engine: one writer, many readers.
//!
//! # Architecture
//!
//! Every mutation (`admit`, `release`, `tick`, `fault`, `init`, `save`)
//! flows through a **bounded queue** into a single writer thread that
//! owns the [`AdmissionController`]. After each commit the writer
//! publishes an immutable [`View`] — an `Arc` of the standing
//! [`ConvergedState`] plus the bookkeeping a read needs — under an
//! `RwLock` held only for the pointer swap.
//!
//! Reads (`whatif`, `report`, `metrics`, `ping`) never touch the
//! writer: a `whatif` grabs the current view and runs
//! [`traj_diffserv::evaluate_whatif`] against the shared
//! `&ConvergedState`, so any number of what-ifs proceed concurrently
//! with each other *and* with an in-flight commit (they see the state
//! as of their snapshot — exactly the library's sequential semantics,
//! since bounds are a pure function of the set). The what-if path is
//! the same `extend` + decision code `try_admit` runs, so a concurrent
//! read is bit-identical to the sequential answer on the same set.
//!
//! Under [`TieredPolicy::Screened`] the view additionally carries the
//! controller's aggregate-curve screen: a `whatif` whose candidate the
//! (sound, looser) network-calculus bound already covers is answered in
//! O(path length) without touching the warm fixed point, and the writer
//! settles a burst of screen-admitted flows with **one** warm solve at
//! publication time. Decisions stay identical to the pure trajectory
//! controller — the screen only ever short-circuits clear admits.
//!
//! # Backpressure
//!
//! The write queue is a `sync_channel` of configurable depth submitted
//! to with `try_send`: when the writer falls behind, submissions fail
//! *immediately* with a typed [`ErrorKind::Overloaded`] response
//! instead of queueing unboundedly or blocking the connection thread.
//! The rejected request was never executed; clients retry with their
//! own policy. Reads are never shed — they don't consume writer
//! capacity.
//!
//! # Burst drain
//!
//! When several mutations are already queued, the writer drains them
//! into one **burst** (capped at the queue depth): every op in the
//! burst is applied in arrival order, the view is published **once**
//! for the whole burst, and only then are the replies delivered. A
//! client therefore still reads its own writes — its reply arrives
//! strictly after the view reflecting its op — but a pile-up of N
//! admits costs one `RwLock` swap and one snapshot rebuild instead of
//! N. The `metrics` endpoint reports `write_ops` / `write_batches` so
//! the amortisation is observable.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use serde::{Serialize, Value};
use traj_analysis::backend::Analyzer as _;
use traj_analysis::{AnalysisConfig, ConvergedState};
use traj_diffserv::{
    evaluate_whatif, evaluate_whatif_screened, AdmissionController, AdmissionMetrics, TieredPolicy,
};
use traj_model::{FaultScenario, FlowId, FlowSet, Network, SporadicFlow};
use traj_netcalc::{
    charny_le_boudec_bound, tightest_bounds, AggregateCache, BoundSource, CharnyParams,
    NetcalcAnalyzer,
};
use traj_obs::Histogram;

use crate::persist::{save_atomic, DaemonSnapshot};
use crate::protocol::{
    decision_to_value, obj, Envelope, ErrorKind, Request, Response, WireError, PROTOCOL_VERSION,
};

/// Engine tunables.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Write-queue depth: mutations beyond this many pending are
    /// rejected with `overloaded` instead of queueing further.
    pub queue_depth: usize,
    /// Snapshot file for `save`, autosave and shutdown persistence.
    pub snapshot_path: Option<PathBuf>,
    /// Autosave after every N commits (0 = only explicit `save` /
    /// shutdown).
    pub autosave_every: u64,
    /// Analysis configuration used when `init` installs a fresh set.
    pub analysis: AnalysisConfig,
    /// Admission tier used when `init` installs a fresh set:
    /// [`TieredPolicy::Screened`] puts the O(path) network-calculus
    /// screen in front of the trajectory fixed point.
    pub tiered: TieredPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            queue_depth: 64,
            snapshot_path: None,
            autosave_every: 0,
            analysis: AnalysisConfig::default(),
            tiered: TieredPolicy::default(),
        }
    }
}

/// Endpoint names, in metrics order.
pub const ENDPOINTS: [&str; 11] = [
    "ping", "init", "admit", "whatif", "release", "report", "metrics", "tick", "fault", "save",
    "shutdown",
];

fn endpoint_index(name: &str) -> usize {
    ENDPOINTS.iter().position(|e| *e == name).unwrap_or(0)
}

/// Per-endpoint request counters and a log2 latency histogram (µs).
struct EpStat {
    requests: u64,
    errors: u64,
    latency_us: Histogram,
}

impl EpStat {
    fn new() -> Self {
        EpStat {
            requests: 0,
            errors: 0,
            latency_us: Histogram::new(),
        }
    }
}

/// The immutable read snapshot the writer publishes after each commit.
struct View {
    /// Standing converged analysis; `None` before `init` or when the
    /// standing set cannot be bounded.
    state: Option<Arc<ConvergedState>>,
    /// Aggregate-curve screen tracking the standing set; present only
    /// under [`TieredPolicy::Screened`]. Lets a `whatif` answer a
    /// clearly-feasible candidate in O(path) without the warm solve.
    screen: Option<Arc<AggregateCache>>,
    /// Admitted flow count (0 before `init`).
    flows: usize,
    metrics: AdmissionMetrics,
    /// Retry queue digest: (flow id, next attempt, attempts).
    retry: Vec<(u32, u64, u32)>,
    clock: u64,
}

impl View {
    fn empty() -> Self {
        View {
            state: None,
            screen: None,
            flows: 0,
            metrics: AdmissionMetrics::default(),
            retry: Vec::new(),
            clock: 0,
        }
    }
}

/// State shared between the writer thread and every reader.
struct Shared {
    view: RwLock<Arc<View>>,
    eps: Mutex<Vec<EpStat>>,
    protocol_errors: AtomicU64,
    overloaded: AtomicU64,
    /// Mutations the writer has applied.
    write_ops: AtomicU64,
    /// Bursts the writer has drained; `write_ops / write_batches` is
    /// the view-publication amortisation factor under load.
    write_batches: AtomicU64,
    /// `whatif` requests answered by the network-calculus screen alone.
    whatif_screen_hits: AtomicU64,
    /// `whatif` requests where the screen was present but could not
    /// vouch, falling back to the exact warm what-if.
    whatif_screen_fallbacks: AtomicU64,
    stopping: AtomicBool,
}

fn read_lock<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

enum WriteOp {
    Init(Network, Vec<SporadicFlow>),
    Admit(SporadicFlow),
    Release(FlowId),
    Tick(u64),
    Fault(FaultScenario, u64),
    Save,
    Shutdown,
}

struct Cmd {
    op: WriteOp,
    reply: SyncSender<Result<Value, WireError>>,
}

/// The daemon engine: call [`Engine::handle`] (or
/// [`Engine::dispatch_line`]) from any number of threads.
pub struct Engine {
    shared: Arc<Shared>,
    tx: SyncSender<Cmd>,
    writer: Mutex<Option<JoinHandle<()>>>,
    queue_depth: usize,
    /// Copy of the analysis config for read-side netcalc reports.
    analysis: AnalysisConfig,
}

impl Engine {
    /// Starts the writer thread around an optional initial controller
    /// (restored from a snapshot, or `None` to await `init`).
    pub fn start(initial: Option<AdmissionController>, cfg: EngineConfig) -> Engine {
        let shared = Arc::new(Shared {
            view: RwLock::new(Arc::new(View::empty())),
            eps: Mutex::new((0..ENDPOINTS.len()).map(|_| EpStat::new()).collect()),
            protocol_errors: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            write_ops: AtomicU64::new(0),
            write_batches: AtomicU64::new(0),
            whatif_screen_hits: AtomicU64::new(0),
            whatif_screen_fallbacks: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
        });
        // Publish the restored state before accepting any request:
        // reads must never observe the empty bootstrap view when the
        // daemon came up from a snapshot.
        let mut initial = initial;
        publish(&shared, &mut initial, true);
        let queue_depth = cfg.queue_depth.max(1);
        let analysis = cfg.analysis.clone();
        let (tx, rx) = sync_channel(queue_depth);
        let sh = shared.clone();
        let writer = std::thread::spawn(move || writer_loop(initial, rx, sh, cfg));
        Engine {
            shared,
            tx,
            writer: Mutex::new(Some(writer)),
            queue_depth,
            analysis,
        }
    }

    /// Whether a shutdown request has been processed.
    pub fn is_stopping(&self) -> bool {
        self.shared.stopping.load(Ordering::SeqCst)
    }

    /// Waits for the writer thread to exit (after shutdown).
    pub fn join(&self) {
        if let Some(h) = lock(&self.writer).take() {
            let _ = h.join();
        }
    }

    /// Parses and serves one request line, returning the response line
    /// (without trailing newline). Protocol errors are counted and
    /// answered in-band; the connection stays usable.
    pub fn dispatch_line(&self, line: &str) -> String {
        match crate::protocol::parse_request(line) {
            Ok(env) => self.handle(env).to_line(),
            Err((id, msg)) => self.protocol_error(id, msg),
        }
    }

    /// Counts a request the protocol layer rejected and renders its
    /// typed `protocol` error line (no trailing newline).
    pub(crate) fn protocol_error(&self, id: Option<i128>, message: impl Into<String>) -> String {
        self.shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
        Response::err(id, ErrorKind::Protocol, message).to_line()
    }

    /// Serves one parsed request.
    pub fn handle(&self, env: Envelope) -> Response {
        let start = Instant::now();
        let ep = env.req.endpoint();
        let body = self.dispatch(env.req);
        let elapsed_us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        {
            let mut eps = lock(&self.shared.eps);
            let stat = &mut eps[endpoint_index(ep)];
            stat.requests += 1;
            if body.is_err() {
                stat.errors += 1;
            }
            stat.latency_us.record(elapsed_us);
        }
        if traj_obs::enabled() {
            traj_obs::counter_add("serve.requests", 1);
        }
        Response { id: env.id, body }
    }

    fn dispatch(&self, req: Request) -> Result<Value, WireError> {
        match req {
            Request::Ping => Ok(obj(vec![
                ("pong", Value::Bool(true)),
                ("version", Value::Int(PROTOCOL_VERSION as i128)),
            ])),
            Request::WhatIf { flow } => self.whatif(flow),
            Request::Report => self.report(),
            Request::Metrics => Ok(self.metrics_value()),
            Request::Init { network, flows } => self.write(WriteOp::Init(network, flows)),
            Request::Admit { flow } => self.write(WriteOp::Admit(flow)),
            Request::Release { flow_id } => self.write(WriteOp::Release(flow_id)),
            Request::Tick { now } => self.write(WriteOp::Tick(now)),
            Request::Fault { scenario, now } => self.write(WriteOp::Fault(scenario, now)),
            Request::Save => self.write(WriteOp::Save),
            // The writer raises `stopping` before it replies: the
            // response still goes out, then connections and acceptor
            // close.
            Request::Shutdown => self.write(WriteOp::Shutdown),
        }
    }

    /// Submits a mutation to the writer, applying backpressure.
    fn write(&self, op: WriteOp) -> Result<Value, WireError> {
        let (rtx, rrx) = sync_channel(1);
        match self.tx.try_send(Cmd { op, reply: rtx }) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                self.shared.overloaded.fetch_add(1, Ordering::Relaxed);
                if traj_obs::enabled() {
                    traj_obs::counter_add("serve.overloaded", 1);
                }
                return Err(WireError::new(
                    ErrorKind::Overloaded,
                    format!(
                        "write queue full ({} pending); request not executed, retry later",
                        self.queue_depth
                    ),
                ));
            }
            Err(TrySendError::Disconnected(_)) => {
                return Err(WireError::new(ErrorKind::Engine, "daemon is stopping"))
            }
        }
        rrx.recv()
            .map_err(|_| WireError::new(ErrorKind::Engine, "writer exited before replying"))?
    }

    fn view(&self) -> Arc<View> {
        read_lock(&self.shared.view).clone()
    }

    fn whatif(&self, flow: SporadicFlow) -> Result<Value, WireError> {
        let view = self.view();
        let Some(state) = view.state.as_ref() else {
            return Err(WireError::new(
                ErrorKind::Unavailable,
                "no standing converged state (init a flow set first)",
            ));
        };
        let decision = match view.screen.as_ref() {
            Some(screen) => {
                let (decision, screened) = evaluate_whatif_screened(screen, state, flow);
                let counter = if screened {
                    &self.shared.whatif_screen_hits
                } else {
                    &self.shared.whatif_screen_fallbacks
                };
                counter.fetch_add(1, Ordering::Relaxed);
                decision
            }
            None => evaluate_whatif(state, flow),
        };
        Ok(decision_to_value(&decision))
    }

    fn report(&self) -> Result<Value, WireError> {
        let view = self.view();
        let Some(state) = view.state.as_ref() else {
            return Err(WireError::new(
                ErrorKind::Unavailable,
                "no standing converged state (init a flow set first)",
            ));
        };
        let report = state.report();
        // Tightest-per-flow selection across engines: the closed-form
        // netcalc bound occasionally beats the trajectory bound (and
        // covers flows the trajectory pass left unbounded); `source`
        // records which engine the published `bound` came from.
        let netcalc = NetcalcAnalyzer.analyze(state.set(), &self.analysis);
        let selections = tightest_bounds(report, &netcalc);
        let flows: Vec<Value> = report
            .per_flow()
            .iter()
            .zip(selections.iter())
            .map(|(r, sel)| {
                obj(vec![
                    ("id", Value::Int(r.flow.0 as i128)),
                    ("name", Value::Str(r.name.clone())),
                    (
                        "wcrt",
                        r.wcrt
                            .value()
                            .map(|w| Value::Int(w as i128))
                            .unwrap_or(Value::Null),
                    ),
                    (
                        "jitter",
                        r.jitter
                            .map(|j| Value::Int(j as i128))
                            .unwrap_or(Value::Null),
                    ),
                    ("deadline", Value::Int(r.deadline as i128)),
                    (
                        "meets",
                        r.meets_deadline().map(Value::Bool).unwrap_or(Value::Null),
                    ),
                    (
                        "bound",
                        sel.tightest
                            .map(|b| Value::Int(b as i128))
                            .unwrap_or(Value::Null),
                    ),
                    (
                        "source",
                        match sel.source {
                            Some(BoundSource::Trajectory) => Value::Str("trajectory".into()),
                            Some(BoundSource::Netcalc) => Value::Str("netcalc".into()),
                            None => Value::Null,
                        },
                    ),
                ])
            })
            .collect();
        let retry: Vec<Value> = view
            .retry
            .iter()
            .map(|(id, next, attempts)| {
                obj(vec![
                    ("flow", Value::Int(*id as i128)),
                    ("next_attempt", Value::Int(*next as i128)),
                    ("attempts", Value::Int(*attempts as i128)),
                ])
            })
            .collect();
        Ok(obj(vec![
            ("flows", Value::Seq(flows)),
            ("all_schedulable", Value::Bool(report.all_schedulable())),
            ("charny", charny_screening(state.set())),
            ("retry", Value::Seq(retry)),
            ("clock", Value::Int(view.clock as i128)),
        ]))
    }

    fn metrics_value(&self) -> Value {
        let view = self.view();
        let endpoints: Vec<(String, Value)> = {
            let eps = lock(&self.shared.eps);
            ENDPOINTS
                .iter()
                .zip(eps.iter())
                .map(|(name, s)| {
                    (
                        (*name).to_string(),
                        obj(vec![
                            ("requests", Value::Int(s.requests as i128)),
                            ("errors", Value::Int(s.errors as i128)),
                            ("p50_us", Value::Int(s.latency_us.percentile(0.50) as i128)),
                            ("p99_us", Value::Int(s.latency_us.percentile(0.99) as i128)),
                            ("max_us", Value::Int(s.latency_us.max() as i128)),
                        ]),
                    )
                })
                .collect()
        };
        obj(vec![
            ("endpoints", Value::Map(endpoints)),
            (
                "protocol_errors",
                Value::Int(self.shared.protocol_errors.load(Ordering::Relaxed) as i128),
            ),
            (
                "overloaded",
                Value::Int(self.shared.overloaded.load(Ordering::Relaxed) as i128),
            ),
            (
                "write_ops",
                Value::Int(self.shared.write_ops.load(Ordering::Relaxed) as i128),
            ),
            (
                "write_batches",
                Value::Int(self.shared.write_batches.load(Ordering::Relaxed) as i128),
            ),
            (
                "whatif_screen_hits",
                Value::Int(self.shared.whatif_screen_hits.load(Ordering::Relaxed) as i128),
            ),
            (
                "whatif_screen_fallbacks",
                Value::Int(self.shared.whatif_screen_fallbacks.load(Ordering::Relaxed) as i128),
            ),
            ("admission", serde_value(&view.metrics)),
            ("flows", Value::Int(view.flows as i128)),
            ("retry_depth", Value::Int(view.retry.len() as i128)),
            ("clock", Value::Int(view.clock as i128)),
        ])
    }
}

fn serde_value<T: Serialize>(t: &T) -> Value {
    t.to_value()
}

/// The Charny–Le Boudec screening bound of the standing EF aggregate:
/// `null` when the aggregate is vacuous (no EF flows — the typed empty
/// case, not a fabricated bound), otherwise the parameters with the
/// bound (`null` bound above the `ν < 1/(H−1)` validity threshold).
fn charny_screening(set: &FlowSet) -> Value {
    let ef: Vec<SporadicFlow> = set
        .flows()
        .iter()
        .filter(|f| f.class.is_ef())
        .cloned()
        .collect();
    match CharnyParams::from_flows(set.network(), &ef) {
        None => Value::Null,
        Some(p) => obj(vec![
            ("hops", Value::Int(p.hops as i128)),
            (
                "bound",
                charny_le_boudec_bound(&p)
                    .map(|b| Value::Int(b as i128))
                    .unwrap_or(Value::Null),
            ),
        ]),
    }
}

fn publish(shared: &Shared, ac: &mut Option<AdmissionController>, remake_state: bool) {
    let next = match ac.as_mut() {
        None => View::empty(),
        Some(ac) => {
            // `converged_state` settles any screen-admitted suffix in
            // one warm solve before the state is published — the
            // per-burst settlement that amortises an admit storm.
            let (state, screen) = if remake_state {
                let state = ac.converged_state().cloned().map(Arc::new);
                (state, ac.screen_cache().cloned().map(Arc::new))
            } else {
                let prev = read_lock(&shared.view);
                (prev.state.clone(), prev.screen.clone())
            };
            View {
                state,
                screen,
                flows: ac.flows().len(),
                metrics: *ac.metrics(),
                retry: ac
                    .retry_queue()
                    .iter()
                    .map(|e| (e.flow.id.0, e.next_attempt, e.attempts))
                    .collect(),
                clock: ac.clock(),
            }
        }
    };
    *write_lock(&shared.view) = Arc::new(next);
}

fn save_now(ac: &mut Option<AdmissionController>, cfg: &EngineConfig) -> Result<Value, WireError> {
    let Some(path) = cfg.snapshot_path.as_ref() else {
        return Err(WireError::new(
            ErrorKind::Engine,
            "no snapshot path configured (start with --snapshot)",
        ));
    };
    let Some(ac) = ac.as_mut() else {
        return Err(WireError::new(
            ErrorKind::Unavailable,
            "nothing to save (no flow set installed)",
        ));
    };
    let snap = DaemonSnapshot::capture(ac);
    save_atomic(path, &snap).map_err(|e| WireError::new(ErrorKind::Engine, e.to_string()))?;
    Ok(obj(vec![
        ("saved", Value::Bool(true)),
        ("flows", Value::Int(snap.controller.flows.len() as i128)),
        ("path", Value::Str(path.display().to_string())),
    ]))
}

/// Applies one mutation to the controller. Sets `mutated` when the
/// standing state changed (the caller republishes the view) and
/// `stopping` on shutdown — before the reply goes out and the writer
/// exits, so a joined writer implies [`Engine::is_stopping`].
fn apply_op(
    op: WriteOp,
    ac: &mut Option<AdmissionController>,
    cfg: &EngineConfig,
    mutated: &mut bool,
    stopping: &AtomicBool,
) -> Result<Value, WireError> {
    match op {
        WriteOp::Init(network, flows) => match FlowSet::new(network, flows) {
            Ok(set) => {
                let n = set.len();
                *ac = Some(
                    AdmissionController::new(set, cfg.analysis.clone()).with_tiered(cfg.tiered),
                );
                *mutated = true;
                Ok(obj(vec![("flows", Value::Int(n as i128))]))
            }
            Err(e) => Err(WireError::new(ErrorKind::Engine, e.to_string())),
        },
        WriteOp::Admit(flow) => match ac.as_mut() {
            None => Err(unavailable()),
            Some(ac) => {
                let d = ac.try_admit(flow);
                *mutated = matches!(d, traj_diffserv::AdmissionDecision::Admitted { .. });
                Ok(decision_to_value(&d))
            }
        },
        WriteOp::Release(id) => match ac.as_mut() {
            None => Err(unavailable()),
            Some(ac) => {
                let outcome = ac.release(id);
                *mutated = outcome.released();
                let tag = match outcome {
                    traj_diffserv::ReleaseOutcome::Released => "released",
                    traj_diffserv::ReleaseOutcome::NotFound => "not_found",
                    traj_diffserv::ReleaseOutcome::LastFlowRetained => "last_flow_retained",
                };
                Ok(obj(vec![("outcome", Value::Str(tag.into()))]))
            }
        },
        WriteOp::Tick(now) => match ac.as_mut() {
            None => Err(unavailable()),
            Some(ac) => {
                let decisions = ac.tick(now);
                *mutated = true; // the clock advanced even if nothing fired
                let ds: Vec<Value> = decisions
                    .iter()
                    .map(|(id, d)| {
                        obj(vec![
                            ("flow", Value::Int(id.0 as i128)),
                            ("decision", decision_to_value(d)),
                        ])
                    })
                    .collect();
                Ok(obj(vec![
                    ("decisions", Value::Seq(ds)),
                    ("clock", Value::Int(ac.clock() as i128)),
                ]))
            }
        },
        WriteOp::Fault(scenario, now) => match ac.as_mut() {
            None => Err(unavailable()),
            Some(ac) => match ac.on_fault(&scenario, now) {
                Ok(resp) => {
                    *mutated = true;
                    let ids = |v: &[FlowId]| {
                        Value::Seq(v.iter().map(|f| Value::Int(f.0 as i128)).collect())
                    };
                    let dropped: Vec<Value> = resp
                        .dropped
                        .iter()
                        .map(|(id, reason)| {
                            obj(vec![
                                ("flow", Value::Int(id.0 as i128)),
                                ("reason", Value::Str(reason.clone())),
                            ])
                        })
                        .collect();
                    Ok(obj(vec![
                        ("dropped", Value::Seq(dropped)),
                        ("rerouted", ids(&resp.rerouted)),
                        ("evicted", ids(&resp.evicted)),
                        ("last_flow_retained", Value::Bool(resp.last_flow_retained)),
                    ]))
                }
                Err(e) => Err(WireError::new(ErrorKind::Engine, e.to_string())),
            },
        },
        WriteOp::Save => save_now(ac, cfg),
        WriteOp::Shutdown => {
            stopping.store(true, Ordering::SeqCst);
            let saved = if cfg.snapshot_path.is_some() && ac.is_some() {
                save_now(ac, cfg).is_ok()
            } else {
                false
            };
            Ok(obj(vec![
                ("stopping", Value::Bool(true)),
                ("saved", Value::Bool(saved)),
            ]))
        }
    }
}

fn writer_loop(
    mut ac: Option<AdmissionController>,
    rx: Receiver<Cmd>,
    shared: Arc<Shared>,
    cfg: EngineConfig,
) {
    let mut commits: u64 = 0;
    let max_burst = cfg.queue_depth.max(1);
    while let Ok(first) = rx.recv() {
        // Drain whatever is already queued into one burst so a pile-up
        // of mutations costs one view publication, not one each. The
        // cap keeps reply latency bounded when producers refill the
        // queue as fast as it drains; draining stops at a shutdown so
        // nothing is applied past it.
        let mut burst = vec![first];
        while burst.len() < max_burst && !matches!(burst[burst.len() - 1].op, WriteOp::Shutdown) {
            match rx.try_recv() {
                Ok(cmd) => burst.push(cmd),
                Err(_) => break,
            }
        }
        let mut burst_mutated = false;
        let commits_before = commits;
        let mut replies = Vec::with_capacity(burst.len());
        for cmd in burst {
            let mut mutated = false;
            let result = apply_op(cmd.op, &mut ac, &cfg, &mut mutated, &shared.stopping);
            if mutated {
                commits += 1;
                burst_mutated = true;
            }
            replies.push((cmd.reply, result));
            if shared.stopping.load(Ordering::SeqCst) {
                break;
            }
        }
        // One publication for the whole burst. When nothing mutated the
        // metrics / retry digest may still have moved (rejections count
        // too): refresh the cheap fields, keep the state Arc.
        publish(&shared, &mut ac, burst_mutated);
        if cfg.autosave_every > 0
            && commits / cfg.autosave_every > commits_before / cfg.autosave_every
            && cfg.snapshot_path.is_some()
            && save_now(&mut ac, &cfg).is_err()
        {
            // Autosave failures must not take the daemon down; they
            // are counted and the next save retries.
            if traj_obs::enabled() {
                traj_obs::counter_add("serve.autosave_failures", 1);
            }
        }
        shared
            .write_ops
            .fetch_add(replies.len() as u64, Ordering::Relaxed);
        shared.write_batches.fetch_add(1, Ordering::Relaxed);
        if traj_obs::enabled() {
            traj_obs::counter_add("serve.write_batches", 1);
        }
        // Replies go out only after the view covering the burst is
        // live: a client that has its ack in hand reads its own write.
        for (reply, result) in replies {
            let _ = reply.send(result);
        }
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
    }
}

fn unavailable() -> WireError {
    WireError::new(
        ErrorKind::Unavailable,
        "no flow set installed (send `init` first)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_model::examples::paper_example;
    use traj_model::Path;

    fn engine_with_example() -> Engine {
        let ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        Engine::start(Some(ac), EngineConfig::default())
    }

    fn flow_json(id: u32, period: i64, deadline: i64) -> String {
        let f = SporadicFlow::uniform(
            id,
            Path::from_ids([2, 3, 4]).unwrap(),
            period,
            4,
            0,
            deadline,
        )
        .unwrap();
        serde_json::to_string(&f).unwrap()
    }

    #[test]
    fn lifecycle_over_the_line_protocol() {
        let engine = engine_with_example();
        let pong = engine.dispatch_line("{\"id\":1,\"op\":\"ping\"}");
        assert!(pong.contains("\"pong\":true"), "{pong}");

        // What-if, then admit the same flow: identical decisions.
        let flow = flow_json(10, 360, 200);
        let wi = engine.dispatch_line(&format!("{{\"id\":2,\"op\":\"whatif\",\"flow\":{flow}}}"));
        let ad = engine.dispatch_line(&format!("{{\"id\":3,\"op\":\"admit\",\"flow\":{flow}}}"));
        assert!(wi.contains("\"decision\":\"admitted\""), "{wi}");
        assert!(ad.contains("\"decision\":\"admitted\""), "{ad}");

        // The published view moved: a duplicate-id what-if now fails.
        let wi2 = engine.dispatch_line(&format!("{{\"id\":4,\"op\":\"whatif\",\"flow\":{flow}}}"));
        assert!(wi2.contains("\"decision\":\"invalid\""), "{wi2}");

        let rep = engine.dispatch_line("{\"id\":5,\"op\":\"report\"}");
        assert!(rep.contains("\"all_schedulable\":true"), "{rep}");

        let rel = engine.dispatch_line("{\"id\":6,\"op\":\"release\",\"flow_id\":10}");
        assert!(rel.contains("\"outcome\":\"released\""), "{rel}");

        let met = engine.dispatch_line("{\"id\":7,\"op\":\"metrics\"}");
        assert!(met.contains("\"protocol_errors\":0"), "{met}");

        let bye = engine.dispatch_line("{\"id\":8,\"op\":\"shutdown\"}");
        assert!(bye.contains("\"stopping\":true"), "{bye}");
        assert!(engine.is_stopping());
        engine.join();
    }

    #[test]
    fn joined_writer_implies_stopping() {
        for round in 0..200 {
            let engine = Arc::new(engine_with_example());
            let client = engine.clone();
            let sender = std::thread::spawn(move || client.dispatch_line("{\"op\":\"shutdown\"}"));
            engine.join();
            assert!(
                engine.is_stopping(),
                "round {round}: writer gone, flag down"
            );
            let bye = sender.join().unwrap();
            assert!(bye.contains("\"stopping\":true"), "{bye}");
        }
    }

    #[test]
    fn uninitialised_engine_is_unavailable_until_init() {
        let engine = Engine::start(None, EngineConfig::default());
        let flow = flow_json(10, 360, 200);
        let wi = engine.dispatch_line(&format!("{{\"op\":\"whatif\",\"flow\":{flow}}}"));
        assert!(wi.contains("\"kind\":\"unavailable\""), "{wi}");
        let ad = engine.dispatch_line(&format!("{{\"op\":\"admit\",\"flow\":{flow}}}"));
        assert!(ad.contains("\"kind\":\"unavailable\""), "{ad}");

        // Install the paper set over the wire.
        let set = paper_example();
        let network = serde_json::to_string(set.network()).unwrap();
        let flows = serde_json::to_string(&set.flows().to_vec()).unwrap();
        let init = engine.dispatch_line(&format!(
            "{{\"op\":\"init\",\"network\":{network},\"flows\":{flows}}}"
        ));
        assert!(init.contains("\"flows\":5"), "{init}");
        let wi = engine.dispatch_line(&format!("{{\"op\":\"whatif\",\"flow\":{flow}}}"));
        assert!(wi.contains("\"decision\":\"admitted\""), "{wi}");
        engine.dispatch_line("{\"op\":\"shutdown\"}");
        engine.join();
    }

    #[test]
    fn protocol_errors_answer_in_band_and_count() {
        let engine = engine_with_example();
        let r = engine.dispatch_line("this is not json");
        assert!(r.contains("\"kind\":\"protocol\""), "{r}");
        let r = engine.dispatch_line("{\"id\":2,\"op\":\"nope\"}");
        assert!(r.contains("\"id\":2"), "{r}");
        let met = engine.dispatch_line("{\"op\":\"metrics\"}");
        assert!(met.contains("\"protocol_errors\":2"), "{met}");
        engine.dispatch_line("{\"op\":\"shutdown\"}");
        engine.join();
    }

    #[test]
    fn concurrent_whatifs_match_sequential_library_answers() {
        let engine = Arc::new(engine_with_example());
        let set = paper_example();
        let cfg = AnalysisConfig::default();
        // Sequential library answers on the same standing set.
        let state = ConvergedState::build_ef(&set, &cfg).unwrap();
        let candidates: Vec<SporadicFlow> = (0..16)
            .map(|i| {
                SporadicFlow::uniform(
                    100 + i,
                    Path::from_ids([2, 3, 4]).unwrap(),
                    360 + (i as i64) * 36,
                    4,
                    0,
                    150 + (i as i64) * 10,
                )
                .unwrap()
            })
            .collect();
        let expected: Vec<Value> = candidates
            .iter()
            .map(|c| decision_to_value(&evaluate_whatif(&state, c.clone())))
            .collect();
        // Concurrent daemon answers.
        let mut handles = Vec::new();
        for c in candidates.clone() {
            let eng = engine.clone();
            handles.push(std::thread::spawn(move || {
                let flow = serde_json::to_string(&c).unwrap();
                eng.dispatch_line(&format!("{{\"op\":\"whatif\",\"flow\":{flow}}}"))
            }));
        }
        let got: Vec<String> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect();
        for (g, e) in got.iter().zip(&expected) {
            let expected_line = Response::ok(None, e.clone()).to_line();
            assert_eq!(g, &expected_line);
        }
        engine.dispatch_line("{\"op\":\"shutdown\"}");
        engine.join();
    }

    #[test]
    fn bursts_amortise_view_publication_and_keep_read_your_writes() {
        let engine = Arc::new(engine_with_example());
        // Flood the writer from many threads so bursts actually form;
        // every tick must succeed (or be shed as typed overload — the
        // default depth of 64 admits all 48 here).
        let mut handles = Vec::new();
        for i in 0..48u32 {
            let eng = engine.clone();
            handles.push(std::thread::spawn(move || {
                eng.dispatch_line(&format!("{{\"op\":\"tick\",\"now\":{i}}}"))
            }));
        }
        for h in handles {
            let r = h.join().unwrap_or_default();
            assert!(r.contains("\"ok\":true"), "{r}");
        }
        // An acked admit is immediately visible to a read on the same
        // thread: the duplicate-id what-if must see the committed flow.
        let flow = flow_json(11, 360, 200);
        let ad = engine.dispatch_line(&format!("{{\"op\":\"admit\",\"flow\":{flow}}}"));
        assert!(ad.contains("\"decision\":\"admitted\""), "{ad}");
        let wi = engine.dispatch_line(&format!("{{\"op\":\"whatif\",\"flow\":{flow}}}"));
        assert!(wi.contains("\"decision\":\"invalid\""), "{wi}");

        let met = engine.dispatch_line("{\"op\":\"metrics\"}");
        let v: Value = serde_json::from_str(&met).unwrap();
        let result = serde::value::field(v.as_map().unwrap(), "result")
            .and_then(Value::as_map)
            .unwrap();
        let counter = |name| {
            serde::value::field(result, name)
                .and_then(Value::as_int)
                .unwrap()
        };
        let (ops, batches) = (counter("write_ops"), counter("write_batches"));
        assert_eq!(ops, 49, "{met}");
        assert!(
            (1..=ops).contains(&batches),
            "batches {batches} out of range for {ops} ops"
        );
        engine.dispatch_line("{\"op\":\"shutdown\"}");
        engine.join();
    }

    #[test]
    fn tiered_engine_screens_whatifs_admits_and_reports_bound_sources() {
        // A lightly-loaded line: the screen's Charny bound covers every
        // generous deadline, so both read-side what-ifs and writer-side
        // admits are served without the trajectory fixed point.
        let set = traj_model::examples::line_topology(2, 3, 4000, 4, 0, 1).unwrap();
        let ac = AdmissionController::new(set, AnalysisConfig::default())
            .with_tiered(TieredPolicy::Screened);
        let engine = Engine::start(
            Some(ac),
            EngineConfig {
                tiered: TieredPolicy::Screened,
                ..EngineConfig::default()
            },
        );
        let mk = |id: u32| {
            let f =
                SporadicFlow::uniform(id, Path::from_ids([1, 2, 3]).unwrap(), 4000, 4, 0, 50_000)
                    .unwrap()
                    .with_class(traj_model::flow::TrafficClass::Ef);
            serde_json::to_string(&f).unwrap()
        };

        // Read-side what-if: answered by the published screen.
        let wi = engine.dispatch_line(&format!("{{\"op\":\"whatif\",\"flow\":{}}}", mk(100)));
        assert!(wi.contains("\"decision\":\"admitted\""), "{wi}");

        // Writer-side admits: screened, settled once per burst.
        for id in 100..108 {
            let ad = engine.dispatch_line(&format!("{{\"op\":\"admit\",\"flow\":{}}}", mk(id)));
            assert!(ad.contains("\"decision\":\"admitted\""), "{ad}");
        }
        // A duplicate-id what-if after the publishes: identical invalid
        // decision whether screened or exact.
        let dup = engine.dispatch_line(&format!("{{\"op\":\"whatif\",\"flow\":{}}}", mk(100)));
        assert!(dup.contains("\"decision\":\"invalid\""), "{dup}");

        let met = engine.dispatch_line("{\"op\":\"metrics\"}");
        assert!(met.contains("\"whatif_screen_hits\":2"), "{met}");
        assert!(met.contains("\"whatif_screen_fallbacks\":0"), "{met}");
        // Controller counters ride along in the admission sub-object.
        assert!(met.contains("\"screen_hits\":8"), "{met}");

        // The report renders the tightest bound with engine provenance.
        let rep = engine.dispatch_line("{\"op\":\"report\"}");
        assert!(rep.contains("\"all_schedulable\":true"), "{rep}");
        assert!(
            rep.contains("\"source\":\"trajectory\"") || rep.contains("\"source\":\"netcalc\""),
            "{rep}"
        );
        assert!(rep.contains("\"bound\":"), "{rep}");
        engine.dispatch_line("{\"op\":\"shutdown\"}");
        engine.join();
    }

    #[test]
    fn untiered_engine_reports_no_screen_activity() {
        let engine = engine_with_example();
        let flow = flow_json(10, 360, 200);
        let wi = engine.dispatch_line(&format!("{{\"op\":\"whatif\",\"flow\":{flow}}}"));
        assert!(wi.contains("\"decision\":\"admitted\""), "{wi}");
        let met = engine.dispatch_line("{\"op\":\"metrics\"}");
        assert!(met.contains("\"whatif_screen_hits\":0"), "{met}");
        assert!(met.contains("\"whatif_screen_fallbacks\":0"), "{met}");
        // The bound/source provenance columns render regardless of tier.
        let rep = engine.dispatch_line("{\"op\":\"report\"}");
        assert!(rep.contains("\"source\":"), "{rep}");
        engine.dispatch_line("{\"op\":\"shutdown\"}");
        engine.join();
    }

    #[test]
    fn overload_is_a_typed_rejection() {
        // Depth-1 queue + a slow fault op in front: the next write is
        // rejected as overloaded, not queued or blocked.
        let ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        let engine = Arc::new(Engine::start(
            Some(ac),
            EngineConfig {
                queue_depth: 1,
                ..EngineConfig::default()
            },
        ));
        // Saturate the queue from many threads; at least one rejection
        // must be typed `overloaded` and the rest must all succeed.
        let mut handles = Vec::new();
        for i in 0..12u32 {
            let eng = engine.clone();
            handles.push(std::thread::spawn(move || {
                eng.dispatch_line(&format!("{{\"op\":\"tick\",\"now\":{i}}}"))
            }));
        }
        let results: Vec<String> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect();
        let ok = results.iter().filter(|r| r.contains("\"ok\":true")).count();
        let shed = results
            .iter()
            .filter(|r| r.contains("\"kind\":\"overloaded\""))
            .count();
        assert_eq!(ok + shed, 12, "{results:?}");
        assert!(ok >= 1, "at least the queued ticks must run: {results:?}");
        engine.dispatch_line("{\"op\":\"shutdown\"}");
        engine.join();
    }

    #[test]
    fn a_fault_keeps_the_published_state_warm_and_equal_to_cold() {
        use serde::value::field;
        let engine = engine_with_example();
        let ad = engine.dispatch_line(&format!(
            "{{\"id\":1,\"op\":\"admit\",\"flow\":{}}}",
            flow_json(10, 360, 200)
        ));
        assert!(ad.contains("\"decision\":\"admitted\""), "{ad}");
        let scenario =
            serde_json::to_string(&traj_model::FaultScenario::node_down(traj_model::NodeId(9)))
                .unwrap();
        let f = engine.dispatch_line(&format!(
            "{{\"id\":2,\"op\":\"fault\",\"scenario\":{scenario},\"now\":0}}"
        ));
        assert!(f.contains("\"dropped\":[{\"flow\":2"), "{f}");
        let result = |line: &str| -> Value {
            let v: Value = serde_json::from_str(line).unwrap();
            field(v.as_map().unwrap(), "result").unwrap().clone()
        };
        let ints = |v: &Value, key: &str| -> Vec<Option<i128>> {
            let flows = field(v.as_map().unwrap(), "flows")
                .and_then(Value::as_seq)
                .unwrap();
            flows
                .iter()
                .map(|f| field(f.as_map().unwrap(), key).and_then(Value::as_int))
                .collect()
        };

        // `report` serves the warm state the fault kept, equal to a cold
        // build of the surviving set.
        let rep = result(&engine.dispatch_line("{\"id\":3,\"op\":\"report\"}"));
        let view = engine.view();
        let state = view.state.as_ref().expect("the fault publishes a state");
        let cold = ConvergedState::build_ef(state.set(), &AnalysisConfig::default()).unwrap();
        let want = |pick: fn(&traj_analysis::FlowReport) -> Option<i128>| {
            cold.report()
                .per_flow()
                .iter()
                .map(pick)
                .collect::<Vec<_>>()
        };
        assert_eq!(ints(&rep, "id"), want(|r| Some(r.flow.0 as i128)));
        assert_eq!(ints(&rep, "wcrt"), want(|r| r.wcrt.value().map(i128::from)));
        assert_eq!(ints(&rep, "jitter"), want(|r| r.jitter.map(i128::from)));

        // The next what-if reads that state: no cold fallback.
        let cold_fallbacks = || {
            let m = result(&engine.dispatch_line("{\"id\":4,\"op\":\"metrics\"}"));
            let admission = field(m.as_map().unwrap(), "admission").unwrap().clone();
            field(admission.as_map().unwrap(), "cold_fallbacks")
                .and_then(Value::as_int)
                .unwrap()
        };
        let before = cold_fallbacks();
        let wi = engine.dispatch_line(&format!(
            "{{\"id\":5,\"op\":\"whatif\",\"flow\":{}}}",
            flow_json(11, 360, 200)
        ));
        assert!(wi.contains("\"decision\":\"admitted\""), "{wi}");
        assert_eq!(cold_fallbacks(), before);
        assert_eq!(before, 0);
    }
}
