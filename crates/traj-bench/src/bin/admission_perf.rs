//! E15 — Admission throughput: cold vs warm-start vs batched what-ifs.
//!
//! On clustered instances of 10–200 standing flows (independent
//! interference islands of five flows each — the realistic shape for
//! incrementality), evaluates EF admission candidates three ways:
//!
//! * **cold** — `analyze_ef` on the extended set, what the seed
//!   controller ran for every `try_admit`;
//! * **warm** — [`ConvergedState::extend`]: the standing converged
//!   solution is extended, only the candidate's dirty closure is
//!   re-solved;
//! * **batched** — [`AdmissionController::try_admit_batch`] on a
//!   prewarmed controller: all candidates fan out in parallel, winners
//!   commit sequentially.
//!
//! Each candidate's warm report is checked bit-identical to the cold
//! one, and the measurements (admissions/sec, p99 decision latency,
//! mean dirty-closure size) go to `BENCH_admission.json`.
//!
//! Run: `cargo run --release -p traj-bench --bin admission_perf`

use std::time::Instant;

use serde::Serialize;
use traj_analysis::{analyze_ef, AnalysisConfig, ConvergedState};
use traj_bench::render_table;
use traj_diffserv::{AdmissionController, AdmissionDecision};
use traj_model::{FlowSet, Network, Path, SporadicFlow};

const NODES_PER_CLUSTER: u32 = 10;
const FLOWS_PER_CLUSTER: u32 = 5;
const FLOW_COUNTS: [u32; 6] = [10, 20, 40, 80, 120, 200];
const REPS: usize = 5;
/// Candidates per standing size (capped by the cluster count).
const BATCH: usize = 8;

/// Disjoint clusters of five chained flows each on a shared uniform
/// network — flow `k` runs `[b+k .. b+k+4]`, so neighbours overlap
/// heavily and every pair shares the cluster's middle node. Admission
/// candidates land at a cluster's head: they directly cross two flows,
/// while the transitive dirty closure spans the whole cluster — the
/// two-grade invalidation the warm path exploits.
fn clustered_instance(flows: u32) -> FlowSet {
    let clusters = flows / FLOWS_PER_CLUSTER;
    let network =
        Network::uniform(clusters * NODES_PER_CLUSTER, 1, 1).expect("valid uniform network");
    let mut out = Vec::new();
    let mut id = 0u32;
    for k in 0..clusters {
        let b = k * NODES_PER_CLUSTER;
        let paths: Vec<Vec<u32>> = (1..=FLOWS_PER_CLUSTER)
            .map(|s| (b + s..=b + s + 4).collect())
            .collect();
        for nodes in paths {
            id += 1;
            out.push(
                SporadicFlow::uniform(
                    id,
                    Path::from_ids(nodes).expect("valid cluster path"),
                    200,
                    3,
                    0,
                    i64::MAX / 4,
                )
                .expect("valid cluster flow"),
            );
        }
    }
    FlowSet::new(network, out).expect("valid clustered instance")
}

/// One EF candidate per cluster, cycling: a short flow at the cluster
/// head, crossing that cluster's first two flows directly (and the
/// rest only transitively) and nothing outside the cluster.
fn candidates(flows: u32, count: usize) -> Vec<SporadicFlow> {
    let clusters = flows / FLOWS_PER_CLUSTER;
    (0..count)
        .map(|i| {
            let b = (i as u32 % clusters) * NODES_PER_CLUSTER;
            SporadicFlow::uniform(
                10_000 + i as u32,
                Path::from_ids([b + 1, b + 2]).expect("valid candidate path"),
                400,
                2,
                0,
                i64::MAX / 4,
            )
            .expect("valid candidate")
        })
        .collect()
}

#[derive(Serialize)]
struct Entry {
    flows: u32,
    batch: usize,
    /// Mean dirty-closure size across candidates (warm path).
    closure_mean: f64,
    p99_ms_cold: f64,
    p99_ms_warm: f64,
    adm_per_sec_cold: f64,
    adm_per_sec_warm: f64,
    adm_per_sec_batch: f64,
    /// Total cold wall over total warm wall for the same decisions.
    speedup_warm: f64,
    /// Total cold wall over the batched wall (fan-out + commits).
    speedup_batch: f64,
    /// All candidates admitted by the batched controller path.
    batch_admitted: bool,
    /// Warm and cold per-flow verdicts agreed bit-for-bit.
    identical: bool,
}

#[derive(Serialize)]
struct Output {
    experiment: String,
    reps: usize,
    entries: Vec<Entry>,
}

fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, Option<R>) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(r);
    }
    (best, last)
}

fn p99(samples: &[f64]) -> f64 {
    traj_bench::percentile(samples, 0.99)
}

fn main() {
    let cfg = AnalysisConfig::default();
    let mut entries = Vec::new();

    for &flows in &FLOW_COUNTS {
        let set = clustered_instance(flows);
        let clusters = (flows / FLOWS_PER_CLUSTER) as usize;
        let cands = candidates(flows, BATCH.min(clusters));
        let k = cands.len();

        let Ok(standing) = ConvergedState::build_ef(&set, &cfg) else {
            eprintln!("standing instance at {flows} flows did not converge");
            continue;
        };

        // Per-decision latencies, candidate by candidate.
        let mut cold_ms = Vec::with_capacity(k);
        let mut warm_ms = Vec::with_capacity(k);
        let mut closures = Vec::with_capacity(k);
        let mut identical = true;
        for cand in &cands {
            let extended = set
                .extended_with(cand.clone())
                .expect("candidate extends the standing set");
            let (ms_cold, cold) = time_best(REPS, || analyze_ef(&extended, &cfg));
            let (ms_warm, warm) = time_best(REPS, || {
                standing
                    .extend(cand.clone())
                    .expect("candidate extends the standing state")
            });
            let (Some(cold), Some(warm)) = (cold, warm) else {
                continue;
            };
            identical &= cold
                .per_flow()
                .iter()
                .zip(warm.report.per_flow())
                .all(|(a, b)| a.wcrt == b.wcrt && a.jitter == b.jitter)
                && cold.per_flow().len() == warm.report.per_flow().len();
            closures.push(warm.recomputed() as f64);
            cold_ms.push(ms_cold);
            warm_ms.push(ms_warm);
        }
        let total_cold: f64 = cold_ms.iter().sum();
        let total_warm: f64 = warm_ms.iter().sum();

        // Batched controller path: prewarm the standing state through a
        // throwaway admit/release cycle, then time the batch on a fresh
        // clone per rep (winners commit, so each rep needs its own).
        let mut proto = AdmissionController::new(set.clone(), cfg.clone());
        let prewarm = candidates(flows, BATCH.min(clusters) + 1)
            .pop()
            .expect("prewarm candidate");
        let prewarm_id = prewarm.id;
        if matches!(proto.try_admit(prewarm), AdmissionDecision::Admitted { .. }) {
            proto.release(prewarm_id);
        }
        let (wall_ms_batch, batch_out) = time_best(REPS, || {
            let mut ac = proto.clone();
            ac.try_admit_batch(cands.clone())
        });
        let batch_admitted = batch_out
            .map(|ds| {
                ds.iter()
                    .all(|(_, d)| matches!(d, AdmissionDecision::Admitted { .. }))
            })
            .unwrap_or(false);

        entries.push(Entry {
            flows,
            batch: k,
            closure_mean: closures.iter().sum::<f64>() / (closures.len().max(1) as f64),
            p99_ms_cold: p99(&cold_ms),
            p99_ms_warm: p99(&warm_ms),
            adm_per_sec_cold: (k as f64) / (total_cold / 1e3).max(1e-9),
            adm_per_sec_warm: (k as f64) / (total_warm / 1e3).max(1e-9),
            adm_per_sec_batch: (k as f64) / (wall_ms_batch / 1e3).max(1e-9),
            speedup_warm: total_cold / total_warm.max(1e-9),
            speedup_batch: total_cold / wall_ms_batch.max(1e-9),
            batch_admitted,
            identical,
        });
    }

    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| {
            vec![
                e.flows.to_string(),
                format!("{:.1}", e.closure_mean),
                format!("{:.2}", e.p99_ms_cold),
                format!("{:.2}", e.p99_ms_warm),
                format!("{:.0}", e.adm_per_sec_cold),
                format!("{:.0}", e.adm_per_sec_warm),
                format!("{:.0}", e.adm_per_sec_batch),
                format!("{:.1}x", e.speedup_warm),
                if e.identical { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!("E15 - admission throughput (batch of {BATCH}, best of {REPS})"),
            &[
                "flows",
                "closure",
                "p99 cold",
                "p99 warm",
                "adm/s cold",
                "adm/s warm",
                "adm/s batch",
                "speedup",
                "match",
            ],
            &rows,
        )
    );

    let out = Output {
        experiment: "admission_perf".to_string(),
        reps: REPS,
        entries,
    };
    let json = serde_json::to_string_pretty(&out).expect("serialisable");
    std::fs::write("BENCH_admission.json", &json).expect("write BENCH_admission.json");
    println!("wrote BENCH_admission.json");

    assert!(
        out.entries.iter().all(|e| e.identical),
        "warm and cold admission verdicts diverged"
    );
    assert!(
        out.entries.iter().all(|e| e.batch_admitted),
        "batched admission rejected a feasible candidate"
    );
    // Component sharding (DESIGN.md §11) cut the cold baseline itself
    // ~2x on these clustered instances, so the 5x ratio now needs a
    // larger standing set.
    for e in &out.entries {
        if e.flows >= 200 {
            assert!(
                e.speedup_warm >= 5.0,
                "warm admission must reach 5x over cold at {} standing flows, got {:.1}x",
                e.flows,
                e.speedup_warm
            );
        }
    }
    let best = out
        .entries
        .iter()
        .map(|e| e.speedup_warm)
        .fold(0.0, f64::max);
    println!("best warm-vs-cold speedup: {best:.1}x (bit-identical bounds verified)");
}
