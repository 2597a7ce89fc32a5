//! perfbench: drives a spawned `traj-serve --listen 127.0.0.1:0` over
//! loopback TCP and reports end-to-end metrics (untraced run) or
//! per-layer metrics (traced run), checking every answer on the way.
//!
//! ```text
//! perfbench --workload tiny-cycle --seed 1 --seconds 10 --trace 0 \
//!           --daemon target/release/traj-serve
//! ```
//!
//! The load generator is one process with a closed loop of at most
//! `nproc` (capped at 2) connections, one thread each: an admission
//! client waits for each decision before sending the next request.
//! The last line of standard output is the result object
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`; a result
//! file with provenance, and in a traced run the spans as JSONL, go to
//! the `--out` directory.

mod daemon;
mod layers;
mod stats;
mod trace;
mod workload;

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use serde::value::field;
use serde::Value;
use traj_analysis::{AnalysisConfig, ConvergedState};
use traj_diffserv::{evaluate_whatif, AdmissionDecision};
use traj_model::{FlowId, FlowSet, SporadicFlow};
use traj_serve::decision_from_value;

use daemon::{counter, result_of, Conn, Daemon, DAEMON_ARGS};
use layers::{whatif_line, Replayer};
use stats::{median, Latency};
use trace::Tracer;
use workload::{ChurnStream, Kind, TinyStream, Workload, WriteOp, TINY_KEEP};

/// Daemons started per run; `setup_s` is the median of their set-ups.
const SETUP_REPS: usize = 3;
/// Share of an `islands-whatif` run spent on reads; the rest admits and
/// releases, so the write path is measured at 1000 flows too.
const ISLANDS_READ_SHARE: f64 = 0.2;
/// Wall-clock budget of each in-process phase of a traced run.
const PROBE_BUDGET: Duration = Duration::from_secs(2);
const REPLAY_BUDGET: Duration = Duration::from_millis(1500);

const REPORT: &str = "{\"op\":\"report\"}";
const METRICS: &str = "{\"op\":\"metrics\"}";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv: HashMap<&str, &str> = HashMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(name, value.as_str());
    }
    let need = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let kind = Kind::parse(need("workload")?)
        .ok_or("--workload must be tiny-cycle, islands-whatif or fattree-churn")?;
    let seed = need("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match need("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
        daemon: need("daemon")?.into(),
        out: kv.get("out").copied().unwrap_or("perfbench/out").into(),
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    WhatIf,
    Admit,
    Release,
}

impl Op {
    fn span(self) -> &'static str {
        match self {
            Op::WhatIf => "wire.whatif",
            Op::Admit => "wire.admit",
            Op::Release => "wire.release",
        }
    }
}

/// One request as the client saw it.
struct Sample {
    op: Op,
    start: Instant,
    end: Instant,
    req: u64,
    resp: String,
    /// The workload's index of the request's input (pool entry, write
    /// log entry or candidate).
    key: usize,
}

impl Sample {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Everything one connection sent and received.
#[derive(Default)]
struct ConnLog {
    samples: Vec<Sample>,
    transport_errors: Vec<String>,
    /// `tiny-cycle`: the flows the connection still holds at the end.
    kept: Vec<SporadicFlow>,
    /// `fattree-churn` writer: its writes, in order (`Sample::key`).
    writes: Vec<WriteOp>,
}

/// Request ids, unique across the run's connections and phases.
static NEXT_REQ: AtomicU64 = AtomicU64::new(1);

impl ConnLog {
    /// Sends one request, timing it; returns the response on success.
    fn call(
        &mut self,
        conn: &mut Conn,
        op: Op,
        line: impl FnOnce(u64) -> String,
        key: usize,
    ) -> Option<&str> {
        let req = NEXT_REQ.fetch_add(1, Ordering::Relaxed);
        let line = line(req);
        let start = Instant::now();
        match conn.call(&line) {
            Ok(resp) => {
                let end = Instant::now();
                self.samples.push(Sample {
                    op,
                    start,
                    end,
                    req,
                    resp,
                    key,
                });
                self.samples.last().map(|s| s.resp.as_str())
            }
            Err(e) => {
                self.transport_errors.push(e);
                None
            }
        }
    }
}

fn admit_line(flow_json: &str, id: u64) -> String {
    format!("{{\"id\":{id},\"op\":\"admit\",\"flow\":{flow_json}}}")
}

fn release_line(flow: FlowId, id: u64) -> String {
    format!("{{\"id\":{id},\"op\":\"release\",\"flow_id\":{}}}", flow.0)
}

fn to_json(flow: &SporadicFlow) -> String {
    serde_json::to_string(flow).expect("flow serialises")
}

/// Connection threads of the load generator.
fn connections() -> usize {
    host_nproc().min(2)
}

fn host_nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `body(conn_index, connection, log)` on every connection in its
/// own thread until `deadline`; returns the logs and the phase's wall.
fn phase<F>(d: &Daemon, conns: usize, body: F) -> (Vec<ConnLog>, f64)
where
    F: Fn(usize, &mut Conn, &mut ConnLog) + Sync,
{
    let t0 = Instant::now();
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let body = &body;
                s.spawn(move || {
                    let mut log = ConnLog::default();
                    match d.connect() {
                        Ok(mut conn) => body(c, &mut conn, &mut log),
                        Err(e) => log.transport_errors.push(e),
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    (logs, t0.elapsed().as_secs_f64())
}

/// The measured phase: connection logs plus the wall time over which
/// reads and writes were counted.
struct WireRun {
    logs: Vec<ConnLog>,
    read_wall: f64,
    write_wall: f64,
}

fn run_tiny(d: &Daemon, w: &Workload, secs: f64) -> WireRun {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let (logs, wall) = phase(d, connections(), |c, conn, log| {
        let mut cands = TinyStream::new(w.seed, c as u32);
        let mut own: VecDeque<SporadicFlow> = VecDeque::new();
        let mut k = 0;
        while Instant::now() < deadline {
            let f = cands.next_flow();
            let json = to_json(&f);
            if log
                .call(conn, Op::WhatIf, |id| whatif_line(&json, id), k)
                .is_none()
            {
                return;
            }
            let admitted = match log.call(conn, Op::Admit, |id| admit_line(&json, id), k) {
                None => return,
                Some(r) => r.contains("\"decision\":\"admitted\""),
            };
            if admitted {
                own.push_back(f);
            }
            // A rejection releases too, so a set that has filled up
            // drains instead of rejecting every later candidate.
            if own.len() >= TINY_KEEP || (!admitted && !own.is_empty()) {
                let gone = own.pop_front().expect("own is non-empty");
                if log
                    .call(conn, Op::Release, |id| release_line(gone.id, id), k)
                    .is_none()
                {
                    return;
                }
            }
            k += 1;
        }
        log.kept = own.into();
    });
    WireRun {
        logs,
        read_wall: wall,
        write_wall: wall,
    }
}

fn run_islands(d: &Daemon, w: &Workload, secs: f64) -> WireRun {
    let pool: Vec<String> = w.pool.iter().map(to_json).collect();
    let conns = connections();
    let read_until = Instant::now() + Duration::from_secs_f64(secs * ISLANDS_READ_SHARE);
    let (mut logs, read_wall) = phase(d, conns, |c, conn, log| {
        let mut i = c;
        while Instant::now() < read_until {
            let k = i % pool.len();
            if log
                .call(conn, Op::WhatIf, |id| whatif_line(&pool[k], id), k)
                .is_none()
            {
                return;
            }
            i += conns;
        }
    });
    let write_until = Instant::now() + Duration::from_secs_f64(secs * (1.0 - ISLANDS_READ_SHARE));
    // One writer connection: the daemon applies writes one at a time, so
    // a second writer adds only queueing behind the first to each
    // latency. Each admit is released before the next, so every admit
    // meets its island in its standing state.
    let (writes, write_wall) = phase(d, 1, |_, conn, log| {
        let mut k = 0;
        while Instant::now() < write_until {
            if log
                .call(conn, Op::Admit, |id| admit_line(&pool[k], id), k)
                .is_none()
                || log
                    .call(conn, Op::Release, |id| release_line(w.pool[k].id, id), k)
                    .is_none()
            {
                return;
            }
            k = (k + 1) % pool.len();
        }
    });
    logs.extend(writes);
    WireRun {
        logs,
        read_wall,
        write_wall,
    }
}

fn run_fattree(d: &Daemon, w: &Workload, secs: f64) -> WireRun {
    let pool: Vec<String> = w.pool.iter().map(to_json).collect();
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    // Connection 0 writes, the other reads; on one core the single
    // connection alternates between the two roles.
    let conns = connections();
    let (logs, wall) = phase(d, conns, |c, conn, log| {
        let mut churn = ChurnStream::new(w.seed, &w.init);
        let mut i = 0;
        while Instant::now() < deadline {
            if c == 0 {
                let op = churn.next_op();
                let k = log.writes.len();
                let took = match &op {
                    WriteOp::Admit(f) => {
                        let json = to_json(f);
                        log.call(conn, Op::Admit, |id| admit_line(&json, id), k)
                            .map(|r| r.contains("\"decision\":\"admitted\""))
                    }
                    WriteOp::Release(f) => log
                        .call(conn, Op::Release, |id| release_line(*f, id), k)
                        .map(|r| r.contains("\"outcome\":\"released\"")),
                };
                let Some(took) = took else { return };
                churn.applied(&op, took);
                log.writes.push(op);
            }
            if c == 1 || conns == 1 {
                let k = i % pool.len();
                if log
                    .call(conn, Op::WhatIf, |id| whatif_line(&pool[k], id), k)
                    .is_none()
                {
                    return;
                }
                i += 1;
            }
        }
    });
    WireRun {
        logs,
        read_wall: wall,
        write_wall: wall,
    }
}

/// Failures found while checking outputs, one per failed operation.
#[derive(Default)]
struct Failures(Vec<String>);

impl Failures {
    fn add(&mut self, msg: String) {
        if self.0.len() < 20 {
            eprintln!("perfbench: FAIL {msg}");
        }
        self.0.push(msg);
    }
}

/// A flow id with its reported `wcrt` and `jitter`.
type FlowBounds = (u32, Option<i128>, Option<i128>);

/// Per-flow bounds of a `report` result, in report order.
fn report_bounds(report: &Value) -> Result<Vec<FlowBounds>, String> {
    let flows = report
        .as_map()
        .and_then(|m| field(m, "flows"))
        .and_then(Value::as_seq)
        .ok_or("report without flows")?;
    flows
        .iter()
        .map(|f| {
            let m = f.as_map().ok_or("report flow is not an object")?;
            let id = field(m, "id")
                .and_then(Value::as_int)
                .ok_or("report flow without id")?;
            let int = |k| field(m, k).and_then(Value::as_int);
            Ok((id as u32, int("wcrt"), int("jitter")))
        })
        .collect()
}

/// Checks a daemon `report` against a cold [`ConvergedState::build_ef`]
/// of `flows` taken in the report's order.
fn check_report(
    report: &Value,
    set: &FlowSet,
    flows: &[SporadicFlow],
    what: &str,
    fails: &mut Failures,
) {
    let got = match report_bounds(report) {
        Ok(g) => g,
        Err(e) => return fails.add(format!("{what}: {e}")),
    };
    let by_id: HashMap<u32, &SporadicFlow> = flows.iter().map(|f| (f.id.0, f)).collect();
    let ordered: Option<Vec<SporadicFlow>> = got
        .iter()
        .map(|(id, _, _)| by_id.get(id).map(|f| (*f).clone()))
        .collect();
    let (Some(ordered), true) = (ordered, got.len() == flows.len()) else {
        return fails.add(format!(
            "{what}: daemon reports {} flows, expected {}",
            got.len(),
            flows.len()
        ));
    };
    let cold = FlowSet::new(set.network().clone(), ordered)
        .map_err(|e| e.to_string())
        .and_then(|s| {
            ConvergedState::build_ef(&s, &AnalysisConfig::default()).map_err(|v| format!("{v:?}"))
        });
    let cold = match cold {
        Ok(c) => c,
        Err(e) => return fails.add(format!("{what}: cold analysis failed: {e}")),
    };
    for ((id, wcrt, jitter), r) in got.iter().zip(cold.report().per_flow()) {
        let want = (r.wcrt.value().map(i128::from), r.jitter.map(i128::from));
        if (*wcrt, *jitter) != want {
            fails.add(format!(
                "{what}: flow {id} bounds {:?} differ from cold {want:?}",
                (wcrt, jitter)
            ));
        }
    }
}

/// Decision carried by a whatif/admit response line.
fn decision_of(resp: &str) -> Result<AdmissionDecision, String> {
    decision_from_value(&result_of(resp)?)
}

/// Checks every response of the run; returns the `fattree-churn`
/// replay (the write oracle), when there is one.
fn check_wire(
    w: &Workload,
    run: &WireRun,
    standing: &ConvergedState,
    tr: &mut Tracer,
    fails: &mut Failures,
) -> Option<Replayer> {
    for log in &run.logs {
        for e in &log.transport_errors {
            fails.add(format!("transport: {e}"));
        }
    }
    let mut expected: HashMap<usize, AdmissionDecision> = HashMap::new();
    let mut replay = (w.kind == Kind::FattreeChurn).then(|| Replayer::new(w.init.clone()));
    for log in &run.logs {
        for s in &log.samples {
            let decision = match s.op {
                Op::WhatIf | Op::Admit => match decision_of(&s.resp) {
                    Ok(AdmissionDecision::Invalid(m)) => {
                        fails.add(format!("req {}: invalid candidate: {m}", s.req));
                        continue;
                    }
                    Ok(d) => Some(d),
                    Err(e) => {
                        fails.add(format!("req {}: {e}", s.req));
                        continue;
                    }
                },
                Op::Release => {
                    let released = result_of(&s.resp).ok().and_then(|r| {
                        r.as_map()
                            .and_then(|m| field(m, "outcome"))
                            .and_then(Value::as_str)
                            .map(|o| o == "released")
                    });
                    if released != Some(true) {
                        fails.add(format!("req {}: release failed: {}", s.req, s.resp));
                    }
                    None
                }
            };
            // islands-whatif: every read, and every admit (its island
            // is in its standing state), must equal the in-process
            // what-if on the standing set.
            if w.kind == Kind::IslandsWhatif {
                if let Some(d) = &decision {
                    let want = expected
                        .entry(s.key)
                        .or_insert_with(|| evaluate_whatif(standing, w.pool[s.key].clone()));
                    if d != want {
                        fails.add(format!("req {}: wire {d:?} != in-process {want:?}", s.req));
                    }
                }
            }
            // fattree-churn: the write stream replayed in order on an
            // in-process controller must decide identically.
            let write = (s.op != Op::WhatIf)
                .then(|| log.writes.get(s.key))
                .flatten();
            if let (Some(rp), Some(op)) = (replay.as_mut(), write) {
                match op {
                    WriteOp::Admit(f) => {
                        let want = rp.admit(tr, f.clone(), s.req);
                        if decision.as_ref() != Some(&want) {
                            fails.add(format!(
                                "req {}: wire {decision:?} != replay {want:?}",
                                s.req
                            ));
                        }
                    }
                    WriteOp::Release(id) => {
                        if !rp.release(tr, *id, s.req).released() {
                            fails.add(format!("req {}: replay could not release {id}", s.req));
                        }
                    }
                }
            }
        }
    }
    replay
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn num(v: f64) -> Value {
    Value::Float(v)
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A reported metric with the number of samples behind it.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

fn run(args: &Args) -> Result<(Vec<Metric>, usize, Failures), String> {
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch);
    let mut fails = Failures::default();
    let w = Workload::generate(args.kind, args.seed);
    let cfg = AnalysisConfig::default();
    let standing = ConvergedState::build_ef(&w.init, &cfg)
        .map_err(|v| format!("standing set does not converge: {v:?}"))?;
    eprintln!(
        "perfbench: {} seed {}: {} standing flows, init line {} bytes, generated in {:.2} s",
        w.kind.name(),
        w.seed,
        w.init.len(),
        w.init_line.len(),
        epoch.elapsed().as_secs_f64()
    );

    // Set-up: spawn, init, verifying report; the last daemon serves the run.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let d = Daemon::spawn(&args.daemon)?;
        let mut c = d.connect()?;
        c.call_ok(&w.init_line)?;
        let report = c.call_ok(REPORT)?;
        setups.push(t0.elapsed().as_secs_f64());
        drop(c);
        check_report(
            &report,
            &w.init,
            w.init.flows(),
            "set-up report",
            &mut fails,
        );
        if rep + 1 < SETUP_REPS {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let d = daemon.ok_or("no daemon")?;

    let cpu0 = d.cpu_ms()?;
    let run = match w.kind {
        Kind::TinyCycle => run_tiny(&d, &w, args.seconds),
        Kind::IslandsWhatif => run_islands(&d, &w, args.seconds),
        Kind::FattreeChurn => run_fattree(&d, &w, args.seconds),
    };
    let cpu_ms = d.cpu_ms()? - cpu0;
    let rss_mb = d.peak_rss_mb()?;
    let mut c = d.connect()?;
    let metrics = c.call_ok(METRICS)?;
    let final_report = c.call_ok(REPORT)?;
    drop(c);
    d.shutdown()?;

    let replay = check_wire(&w, &run, &standing, &mut tr, &mut fails);
    let final_flows: Vec<SporadicFlow> = match (&replay, w.kind) {
        (Some(rp), _) => rp.flows().flows().to_vec(),
        (None, Kind::TinyCycle) => {
            let mut f = w.init.flows().to_vec();
            f.extend(run.logs.iter().flat_map(|l| l.kept.iter().cloned()));
            f
        }
        (None, _) => w.init.flows().to_vec(),
    };
    check_report(
        &final_report,
        &w.init,
        &final_flows,
        "final report",
        &mut fails,
    );

    let lat = |op: Op| {
        Latency::new(
            run.logs
                .iter()
                .flat_map(|l| &l.samples)
                .filter(|s| s.op == op)
                .map(Sample::ms)
                .collect(),
        )
    };
    let (whatif, admit, release) = (lat(Op::WhatIf), lat(Op::Admit), lat(Op::Release));
    let ops: usize = run.logs.iter().map(|l| l.samples.len()).sum();
    let writes = admit.count() + release.count();
    let write_ops = counter(&metrics, "write_ops");
    let write_batches = counter(&metrics, "write_batches");

    let mut out = if args.trace {
        for s in run.logs.iter().flat_map(|l| &l.samples) {
            tr.record(s.op.span(), s.start, s.end, s.req);
        }
        layer_metrics(
            &w,
            &mut tr,
            &mut fails,
            replay,
            &whatif,
            write_ops,
            write_batches,
        )
    } else {
        let mut m = vec![metric("setup_s", median(&setups), "s", setups.len())];
        m.push(metric(
            "reads_per_s",
            whatif.count() as f64 / run.read_wall,
            "1/s",
            whatif.count(),
        ));
        m.push(metric(
            "writes_per_s",
            writes as f64 / run.write_wall,
            "1/s",
            writes,
        ));
        for (p50, p99, l) in [
            ("whatif_p50_ms", "whatif_p99_ms", &whatif),
            ("admit_p50_ms", "admit_p99_ms", &admit),
            ("release_p50_ms", "release_p99_ms", &release),
        ] {
            m.push(metric(p50, l.p50(), "ms", l.count()));
            m.push(metric(p99, l.p99(), "ms", l.count()));
            if l.beyond_p99() < 10 {
                eprintln!(
                    "perfbench: warning: {p99} has {} samples beyond it ({} in all)",
                    l.beyond_p99(),
                    l.count()
                );
            }
        }
        m.push(metric("daemon_peak_rss_mb", rss_mb, "MiB", 1));
        m.push(metric(
            "daemon_cpu_ms_per_op",
            cpu_ms / ops.max(1) as f64,
            "ms",
            ops,
        ));
        m
    };
    if let Some(bad) = out.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} has no value", bad.name));
    }

    // Provenance and the full result, next to the spans.
    std::fs::create_dir_all(&args.out).map_err(|e| format!("create {:?}: {e}", args.out))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        w.kind.name(),
        w.seed,
        u8::from(args.trace)
    );
    if args.trace {
        let path = args.out.join(format!("{stem}.spans.jsonl"));
        tr.write_jsonl(&path)
            .map_err(|e| format!("write {path:?}: {e}"))?;
        print_layer_table(&tr);
    }
    let admission = metrics
        .as_map()
        .and_then(|m| field(m, "admission"))
        .cloned()
        .unwrap_or(Value::Null);
    let result = obj(vec![
        ("workload", Value::Str(w.kind.name().into())),
        ("seed", Value::Int(i128::from(w.seed))),
        ("seconds", num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("nproc", Value::Int(host_nproc() as i128)),
        ("connections", Value::Int(connections() as i128)),
        ("git_revision", Value::Str(git_revision())),
        (
            "build_profile",
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        (
            "daemon_argv",
            Value::Seq(
                std::iter::once(args.daemon.display().to_string())
                    .chain(DAEMON_ARGS.iter().map(|a| a.to_string()))
                    .map(Value::Str)
                    .collect(),
            ),
        ),
        ("standing_flows", Value::Int(w.init.len() as i128)),
        (
            "setup_s_samples",
            Value::Seq(setups.iter().map(|&s| num(s)).collect()),
        ),
        (
            "daemon_counters",
            obj(vec![
                ("write_ops", Value::Int(i128::from(write_ops))),
                ("write_batches", Value::Int(i128::from(write_batches))),
                (
                    "overloaded",
                    Value::Int(i128::from(counter(&metrics, "overloaded"))),
                ),
                (
                    "protocol_errors",
                    Value::Int(i128::from(counter(&metrics, "protocol_errors"))),
                ),
                ("admission", admission),
            ]),
        ),
        (
            "metrics",
            Value::Seq(
                out.iter()
                    .map(|m| {
                        obj(vec![
                            ("name", Value::Str(m.name.into())),
                            ("value", num(m.value)),
                            ("unit", Value::Str(m.unit.into())),
                            ("samples", Value::Int(m.samples as i128)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("attempted", Value::Int(ops as i128)),
        ("failed", Value::Int(fails.0.len() as i128)),
        (
            "failures",
            Value::Seq(
                fails
                    .0
                    .iter()
                    .take(20)
                    .map(|f| Value::Str(f.clone()))
                    .collect(),
            ),
        ),
    ]);
    let path = args.out.join(format!("{stem}.json"));
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&result).map_err(|e| format!("{e:?}"))?,
    )
    .map_err(|e| format!("write {path:?}: {e}"))?;
    out.sort_by_key(|m| m.name);
    Ok((out, ops, fails))
}

/// The traced run's per-layer metrics (see the crate README for which
/// end-to-end metric each one should move).
fn layer_metrics(
    w: &Workload,
    tr: &mut Tracer,
    fails: &mut Failures,
    replay: Option<Replayer>,
    whatif: &Latency,
    write_ops: i64,
    write_batches: i64,
) -> Vec<Metric> {
    // Admission-layer spans: the fattree oracle replay already made
    // them; the other workloads replay their own write pattern here.
    let replay = replay.unwrap_or_else(|| {
        let mut rp = Replayer::new(w.init.clone());
        let t0 = Instant::now();
        match w.kind {
            Kind::IslandsWhatif => {
                for (k, f) in w.pool.iter().enumerate() {
                    if t0.elapsed() > REPLAY_BUDGET {
                        break;
                    }
                    rp.admit(tr, f.clone(), k as u64);
                    rp.release(tr, f.id, k as u64);
                }
            }
            _ => {
                let mut streams = [TinyStream::new(w.seed, 0), TinyStream::new(w.seed, 1)];
                let mut own: [VecDeque<FlowId>; 2] = Default::default();
                let mut k = 0u64;
                while t0.elapsed() < REPLAY_BUDGET {
                    let c = (k % 2) as usize;
                    let f = streams[c].next_flow();
                    let id = f.id;
                    let admitted = matches!(rp.admit(tr, f, k), AdmissionDecision::Admitted { .. });
                    if admitted {
                        own[c].push_back(id);
                    }
                    if own[c].len() >= TINY_KEEP || (!admitted && !own[c].is_empty()) {
                        let gone = own[c].pop_front().expect("own is non-empty");
                        rp.release(tr, gone, k);
                    }
                    k += 1;
                }
            }
        }
        rp
    });
    let candidates: Vec<SporadicFlow> = match w.kind {
        Kind::TinyCycle => {
            let mut s = TinyStream::new(w.seed, 0);
            (0..500).map(|_| s.next_flow()).collect()
        }
        _ => w.pool.clone(),
    };
    let probe = layers::probe(tr, &w.init, &w.init_line, &candidates, PROBE_BUDGET);
    for _ in 0..probe.mismatches {
        fails.add("in-process probe: standing set did not converge, or dispatch differs from the rendered decision".into());
    }
    let count = |name: &str| tr.spans.iter().filter(|s| s.name == name).count();
    let us = |name: &'static str| tr.p50_us(name).unwrap_or(f64::NAN);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { f64::NAN };
    let mut m = Vec::new();
    let mut add = |name: &'static str, value: f64, unit: &'static str, span: &str| {
        m.push(metric(name, value, unit, count(span)));
    };
    add("serve.parse_us", us("serve.parse"), "us", "serve.parse");
    add("serve.render_us", us("serve.render"), "us", "serve.render");
    add(
        "serve.dispatch_us",
        us("serve.dispatch"),
        "us",
        "serve.dispatch",
    );
    add(
        "serve.wire_residual_us",
        whatif.p50() * 1e3 - us("serve.dispatch"),
        "us",
        "wire.whatif",
    );
    add(
        "serve.parse_init_ms",
        us("serve.parse_init") / 1e3,
        "ms",
        "serve.parse_init",
    );
    add(
        "serve.batch_ratio",
        ratio(write_ops as f64, write_batches as f64),
        "ratio",
        "wire.admit",
    );
    add(
        "admission.whatif_us",
        us("admission.whatif"),
        "us",
        "admission.whatif",
    );
    add(
        "admission.try_admit_us",
        us("admission.try_admit"),
        "us",
        "admission.try_admit",
    );
    add(
        "admission.release_us",
        us("admission.release"),
        "us",
        "admission.release",
    );
    add(
        "admission.accept_ratio",
        ratio(replay.admitted as f64, replay.admits as f64),
        "ratio",
        "admission.try_admit",
    );
    add(
        "admission.publish_us",
        us("admission.publish"),
        "us",
        "admission.publish",
    );
    add(
        "analysis.extend_us",
        us("analysis.extend"),
        "us",
        "analysis.extend",
    );
    add(
        "analysis.recomputed_share",
        ratio(
            probe.recomputed as f64,
            (probe.recomputed + probe.reused) as f64,
        ),
        "ratio",
        "analysis.extend",
    );
    add(
        "analysis.remove_us",
        us("analysis.remove"),
        "us",
        "analysis.remove",
    );
    add(
        "analysis.build_ef_ms",
        us("analysis.build_ef") / 1e3,
        "ms",
        "analysis.build_ef",
    );
    add(
        "analysis.rounds",
        probe.rounds as f64,
        "count",
        "analysis.build_ef",
    );
    add(
        "analysis.components",
        probe.components as f64,
        "count",
        "analysis.build_ef",
    );
    add(
        "netcalc.screen_us",
        us("netcalc.screen"),
        "us",
        "netcalc.screen",
    );
    add(
        "netcalc.screen_hit_ratio",
        ratio(probe.screen_hits as f64, probe.screens as f64),
        "ratio",
        "netcalc.screen",
    );
    add(
        "netcalc.analyze_ms",
        us("netcalc.analyze") / 1e3,
        "ms",
        "netcalc.analyze",
    );
    add(
        "model.flowset_new_ms",
        us("model.flowset_new") / 1e3,
        "ms",
        "model.flowset_new",
    );
    add(
        "model.extended_with_us",
        us("model.extended_with"),
        "us",
        "model.extended_with",
    );
    add("trace.whatif_p50_ms", whatif.p50(), "ms", "wire.whatif");
    m
}

fn print_layer_table(tr: &Tracer) {
    println!(
        "{:<22} {:>8} {:>12} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms", "p50_us"
    );
    for r in tr.table() {
        println!(
            "{:<22} {:>8} {:>12.3} {:>12.3} {:>12.2}",
            r.name, r.count, r.total_ms, r.self_ms, r.p50_us
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (metrics, attempted, fails) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{:<28} {:>14} {:<6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in &metrics {
        println!(
            "{:<28} {:>14.6} {:<6} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    let correct = fails.0.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        attempted.max(1),
        fails.0.len(),
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
