//! The event-driven simulator core.
//!
//! Realises exactly the paper's model:
//!
//! * each node is one non-preemptive server: a packet of `τᵢ` occupies it
//!   for `Cᵢʰ` ticks;
//! * links are FIFO with delays in `[Lmin, Lmax]` chosen by a
//!   [`DelayPolicy`];
//! * packets are released by [`crate::ReleasePattern`]s, enter their
//!   flow's ingress queue, and traverse the fixed path;
//! * simultaneous arrivals are ordered by an explicit [`TieBreak`] so
//!   adversarial tie-breaking is reproducible.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use traj_model::{FlowSet, NodeId, Tick};

use crate::scheduler::{NodeQueue, QueuedPacket, SchedulerKind};
use crate::source::ReleasePattern;
use crate::stats::{FlowStats, SimOutcome};
use crate::trace::{Trace, TraceEvent, TraceEventKind, TraceRecorder};

/// Link delay selection within `[Lmin, Lmax]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DelayPolicy {
    /// Always `Lmax` (the adversarial corner used for bound validation).
    #[default]
    AlwaysMax,
    /// Always `Lmin`.
    AlwaysMin,
    /// Uniform in `[Lmin, Lmax]`, seeded.
    Random {
        /// RNG seed.
        seed: u64,
    },
}

/// Ordering of simultaneous arrivals into a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TieBreak {
    /// Lower flow index first.
    #[default]
    ByFlowId,
    /// Higher flow index first.
    ReverseFlowId,
    /// The given flow (by index) loses every tie — the adversarial choice
    /// when measuring that flow.
    VictimLast(usize),
    /// Pseudo-random, seeded per (flow, seq, node).
    Seeded(u64),
}

impl TieBreak {
    fn key(&self, flow_idx: usize, seq: u64, node: NodeId, n_flows: usize) -> u64 {
        match self {
            TieBreak::ByFlowId => flow_idx as u64,
            TieBreak::ReverseFlowId => (n_flows - flow_idx) as u64,
            TieBreak::VictimLast(victim) => {
                if flow_idx == *victim {
                    u64::MAX
                } else {
                    flow_idx as u64
                }
            }
            TieBreak::Seeded(seed) => {
                // SplitMix64-style hash for a deterministic pseudo-random
                // total order.
                let mut z = seed
                    .wrapping_add(flow_idx as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(seq)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                    .wrapping_add(node.0 as u64);
                z ^= z >> 31;
                z
            }
        }
    }
}

/// Simulation parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Packets released per flow.
    pub packets_per_flow: usize,
    /// Queue discipline on every node.
    pub scheduler: SchedulerKind,
    /// Link delay policy.
    pub delay_policy: DelayPolicy,
    /// Tie-break for simultaneous arrivals.
    pub tie_break: TieBreak,
    /// Hard stop (ticks) to bound runaway scenarios; generous default.
    pub horizon: Tick,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            packets_per_flow: 32,
            scheduler: SchedulerKind::Fifo,
            delay_policy: DelayPolicy::AlwaysMax,
            tie_break: TieBreak::ByFlowId,
            horizon: 10_000_000,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Packet becomes available in a node's queue.
    Arrival { node: NodeId, pkt: QueuedPacket },
    /// The server of `node` completes its current packet.
    Completion { node: NodeId },
}

/// The simulator: immutable set + config, consumed by [`Simulator::run`].
pub struct Simulator<'a> {
    set: &'a FlowSet,
    cfg: SimConfig,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator over a flow set.
    pub fn new(set: &'a FlowSet, cfg: SimConfig) -> Self {
        Simulator { set, cfg }
    }

    /// Runs one simulation with the given release pattern per flow
    /// (aligned with the flow-set order).
    pub fn run(&self, patterns: &[ReleasePattern]) -> SimOutcome {
        self.run_inner(patterns, None)
    }

    /// Like [`Simulator::run`], also recording a full per-packet event
    /// [`Trace`] (Figure-2-style busy-period reconstruction).
    pub fn run_traced(&self, patterns: &[ReleasePattern]) -> (SimOutcome, Trace) {
        let mut rec = TraceRecorder::new();
        let out = self.run_inner(patterns, Some(&mut rec));
        (out, rec.finish())
    }

    fn run_inner(
        &self,
        patterns: &[ReleasePattern],
        mut trace: Option<&mut TraceRecorder>,
    ) -> SimOutcome {
        assert_eq!(patterns.len(), self.set.len(), "one pattern per flow");
        let _span = traj_obs::ScopedTimer::new("sim.run")
            .field("flows", self.set.len())
            .field("packets_per_flow", self.cfg.packets_per_flow);
        let mut processed_events: u64 = 0;
        let n_flows = self.set.len();
        let mut rng = match self.cfg.delay_policy {
            DelayPolicy::Random { seed } => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        };

        // Release table: (time, flow_idx, seq).
        let mut heap: BinaryHeap<Reverse<(Tick, u64, usize)>> = BinaryHeap::new();
        let mut events: Vec<Event> = Vec::new();
        let push = |heap: &mut BinaryHeap<Reverse<(Tick, u64, usize)>>,
                    events: &mut Vec<Event>,
                    t: Tick,
                    e: Event| {
            let idx = events.len();
            events.push(e);
            // Second key: completions before arrivals at the same tick so
            // a packet arriving exactly at a completion sees a free server
            // only after queue insertion order is resolved; we use event
            // insertion order as the final tiebreaker for determinism.
            let kind = match e {
                Event::Completion { .. } => 0u64,
                Event::Arrival { .. } => 1u64,
            };
            heap.push(Reverse((t, kind << 32 | idx as u64, idx)));
        };

        let mut releases: HashMap<(usize, u64), Tick> = HashMap::new();
        for (fi, (f, pat)) in self.set.flows().iter().zip(patterns).enumerate() {
            for (seq, t) in pat
                .releases(f, self.cfg.packets_per_flow)
                .into_iter()
                .enumerate()
            {
                let seq = seq as u64;
                releases.insert((fi, seq), t);
                let ingress = f.path.first();
                let pkt = QueuedPacket {
                    flow_idx: fi,
                    seq,
                    arrival: t,
                    tie_key: self.cfg.tie_break.key(fi, seq, ingress, n_flows),
                    hop: 0,
                    cost: f.cost_at_index(0),
                    band: if f.class.is_ef() { 0 } else { 1 },
                    weight: class_weight(f),
                };
                push(
                    &mut heap,
                    &mut events,
                    t,
                    Event::Arrival { node: ingress, pkt },
                );
            }
        }

        let mut queues: HashMap<NodeId, NodeQueue> = self
            .set
            .network()
            .nodes()
            .iter()
            .map(|&n| (n, NodeQueue::new(self.cfg.scheduler)))
            .collect();
        let mut in_service: HashMap<NodeId, Option<QueuedPacket>> = self
            .set
            .network()
            .nodes()
            .iter()
            .map(|&n| (n, None))
            .collect();

        let mut stats: Vec<FlowStats> = self
            .set
            .flows()
            .iter()
            .map(|f| FlowStats::empty(f.id))
            .collect();
        let mut delivered = 0u64;
        let mut last_t = 0;
        // Work backlog per node: queued service demand plus the residual
        // of the packet in service (tracked coarsely at event boundaries).
        let mut backlog: HashMap<NodeId, i64> = HashMap::new();
        let mut max_backlog: HashMap<u32, i64> = HashMap::new();

        // Two-phase processing per tick: drain *all* events at time `t`
        // (completions free servers, arrivals enqueue), then start
        // services on idle nodes. This makes simultaneous arrivals
        // compete purely on their tie-break key, independent of event
        // insertion order.
        let mut touched: Vec<NodeId> = Vec::new();
        while let Some(&Reverse((t, _, _))) = heap.peek() {
            if t > self.cfg.horizon {
                break;
            }
            last_t = t;
            touched.clear();
            while let Some(&Reverse((tt, _, _))) = heap.peek() {
                if tt != t {
                    break;
                }
                let Reverse((_, _, idx)) = heap.pop().expect("peeked");
                processed_events += 1;
                match events[idx] {
                    Event::Arrival { node, pkt } => {
                        if let Some(rec) = trace.as_deref_mut() {
                            rec.record(TraceEvent {
                                time: t,
                                node,
                                flow: self.set.flows()[pkt.flow_idx].id,
                                seq: pkt.seq,
                                kind: TraceEventKind::Enqueued,
                            });
                        }
                        queues.get_mut(&node).expect("node exists").push(pkt);
                        let b = backlog.entry(node).or_insert(0);
                        *b += pkt.cost;
                        let m = max_backlog.entry(node.0).or_insert(0);
                        *m = (*m).max(*b);
                        touched.push(node);
                    }
                    Event::Completion { node } => {
                        let done = in_service
                            .get_mut(&node)
                            .expect("node")
                            .take()
                            .expect("completion implies service");
                        *backlog.entry(node).or_insert(0) -= done.cost;
                        touched.push(node);
                        let f = &self.set.flows()[done.flow_idx];
                        if let Some(rec) = trace.as_deref_mut() {
                            rec.record(TraceEvent {
                                time: t,
                                node,
                                flow: f.id,
                                seq: done.seq,
                                kind: TraceEventKind::ServiceEnd,
                            });
                        }
                        if done.hop + 1 == f.path.len() {
                            let release = releases[&(done.flow_idx, done.seq)];
                            stats[done.flow_idx].record(t - release);
                            delivered += 1;
                        } else {
                            let here = f.path.nodes()[done.hop];
                            let next = f.path.nodes()[done.hop + 1];
                            let ld = self.set.network().link_delay(here, next);
                            let delay = match self.cfg.delay_policy {
                                DelayPolicy::AlwaysMax => ld.lmax,
                                DelayPolicy::AlwaysMin => ld.lmin,
                                DelayPolicy::Random { .. } => {
                                    let r = rng.as_mut().expect("random policy has rng");
                                    if ld.lmin == ld.lmax {
                                        ld.lmin
                                    } else {
                                        r.gen_range(ld.lmin..=ld.lmax)
                                    }
                                }
                            };
                            let arrival = t + delay;
                            let pkt = QueuedPacket {
                                arrival,
                                tie_key: self.cfg.tie_break.key(
                                    done.flow_idx,
                                    done.seq,
                                    next,
                                    n_flows,
                                ),
                                hop: done.hop + 1,
                                cost: f.cost_at_index(done.hop + 1),
                                ..done
                            };
                            push(
                                &mut heap,
                                &mut events,
                                arrival,
                                Event::Arrival { node: next, pkt },
                            );
                        }
                    }
                }
            }
            // Phase 2: dispatch idle servers.
            for &node in &touched {
                if in_service[&node].is_none() {
                    if let Some(next) = queues.get_mut(&node).expect("node").pop() {
                        if let Some(rec) = trace.as_deref_mut() {
                            rec.record(TraceEvent {
                                time: t,
                                node,
                                flow: self.set.flows()[next.flow_idx].id,
                                seq: next.seq,
                                kind: TraceEventKind::ServiceStart,
                            });
                        }
                        *in_service.get_mut(&node).expect("node") = Some(next);
                        push(
                            &mut heap,
                            &mut events,
                            t + next.cost,
                            Event::Completion { node },
                        );
                    }
                }
            }
        }

        if traj_obs::enabled() {
            traj_obs::counter_add("sim.events", processed_events);
            traj_obs::counter_add("sim.delivered", delivered);
            traj_obs::emit(
                traj_obs::Event::new("sim.complete")
                    .field("events", processed_events)
                    .field("delivered", delivered)
                    .field("horizon", last_t),
            );
        }
        SimOutcome {
            flows: stats,
            horizon: last_t,
            delivered,
            max_backlog,
        }
    }

    /// Convenience: all flows strictly periodic with the given offsets.
    pub fn run_periodic(&self, offsets: &[Tick]) -> SimOutcome {
        let patterns: Vec<ReleasePattern> = offsets
            .iter()
            .map(|&offset| ReleasePattern::Periodic { offset })
            .collect();
        self.run(&patterns)
    }
}

fn class_weight(f: &traj_model::SporadicFlow) -> u32 {
    match f.class {
        traj_model::flow::TrafficClass::Ef => 1,
        traj_model::flow::TrafficClass::Af(k) => 10 + (4 - k.min(4)) as u32 * 5,
        traj_model::flow::TrafficClass::BestEffort => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_model::examples::{line_topology, paper_example};

    #[test]
    fn lone_flow_sees_pure_transit() {
        let set = line_topology(1, 4, 100, 5, 1, 2).unwrap();
        let sim = Simulator::new(&set, SimConfig::default());
        let out = sim.run_periodic(&[0]);
        let s = &out.flows[0];
        assert_eq!(s.delivered, 32);
        // 4 nodes * 5 + 3 links * 2 (AlwaysMax)
        assert_eq!(s.max_response, 26);
        assert_eq!(s.min_response, 26);
        assert_eq!(s.observed_jitter(), 0);
    }

    #[test]
    fn min_delay_policy_gives_floor() {
        let set = line_topology(1, 4, 100, 5, 1, 2).unwrap();
        let sim = Simulator::new(
            &set,
            SimConfig {
                delay_policy: DelayPolicy::AlwaysMin,
                ..Default::default()
            },
        );
        let out = sim.run_periodic(&[0]);
        assert_eq!(out.flows[0].max_response, 23);
    }

    #[test]
    fn contention_delays_the_victim() {
        // Three flows share one node; simultaneous release, victim last.
        let set = line_topology(3, 1, 100, 7, 1, 1).unwrap();
        let sim = Simulator::new(
            &set,
            SimConfig {
                tie_break: TieBreak::VictimLast(0),
                ..Default::default()
            },
        );
        let out = sim.run_periodic(&[0, 0, 0]);
        // Victim waits for both rivals: 3 * 7.
        assert_eq!(out.flows[0].max_response, 21);
    }

    #[test]
    fn paper_example_observed_within_analytic_bounds() {
        let set = paper_example();
        let sim = Simulator::new(
            &set,
            SimConfig {
                tie_break: TieBreak::ReverseFlowId,
                ..Default::default()
            },
        );
        let out = sim.run_periodic(&[0, 0, 0, 0, 0]);
        let bounds = [31, 37, 47, 47, 40]; // default trajectory bounds
        for (s, b) in out.flows.iter().zip(bounds) {
            assert!(s.delivered > 0);
            assert!(
                s.max_response <= b,
                "flow {}: observed {} > bound {}",
                s.flow,
                s.max_response,
                b
            );
        }
    }

    #[test]
    fn deterministic_given_config() {
        let set = paper_example();
        let sim = Simulator::new(&set, SimConfig::default());
        let a = sim.run_periodic(&[0, 5, 10, 15, 20]);
        let b = sim.run_periodic(&[0, 5, 10, 15, 20]);
        for (x, y) in a.flows.iter().zip(&b.flows) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn random_link_delays_stay_between_bounds() {
        let set = line_topology(1, 6, 50, 2, 1, 4).unwrap();
        let sim = Simulator::new(
            &set,
            SimConfig {
                delay_policy: DelayPolicy::Random { seed: 42 },
                ..Default::default()
            },
        );
        let out = sim.run_periodic(&[0]);
        let lo = 6 * 2 + 5;
        let hi = 6 * 2 + 5 * 4;
        assert!(out.flows[0].min_response >= lo);
        assert!(out.flows[0].max_response <= hi);
    }

    #[test]
    fn backlog_tracks_queued_work() {
        // 3 flows, C = 7, synchronous release on one node: peak backlog
        // is all three packets' work.
        let set = line_topology(3, 1, 100, 7, 1, 1).unwrap();
        let sim = Simulator::new(&set, SimConfig::default());
        let out = sim.run_periodic(&[0, 0, 0]);
        assert_eq!(out.max_backlog.get(&1).copied(), Some(21));
        // A lone flow never accumulates more than one packet.
        let solo = line_topology(1, 2, 100, 5, 1, 1).unwrap();
        let out = Simulator::new(&solo, SimConfig::default()).run_periodic(&[0]);
        assert_eq!(out.max_backlog.get(&1).copied(), Some(5));
    }

    #[test]
    fn traced_run_matches_stats() {
        let set = paper_example();
        let sim = Simulator::new(&set, SimConfig::default());
        let patterns: Vec<crate::source::ReleasePattern> = (0..5)
            .map(|i| crate::source::ReleasePattern::Periodic {
                offset: i as i64 * 3,
            })
            .collect();
        let (out, trace) = sim.run_traced(&patterns);
        // Every delivered packet's trace reconstructs its response time;
        // the per-flow max over traces equals the recorded statistic.
        for (fi, f) in set.flows().iter().enumerate() {
            let mut max_resp = 0;
            for seq in 0..out.flows[fi].delivered {
                let hops = trace.trajectory(f.id, seq);
                assert_eq!(hops.len(), f.path.len(), "packet crosses every hop");
                let release = patterns[fi].releases(f, seq as usize + 1)[seq as usize];
                max_resp = max_resp.max(hops.last().unwrap().end - release);
                // hop order follows the path
                for (h, &n) in hops.iter().zip(f.path.nodes()) {
                    assert_eq!(h.node, n);
                    assert!(h.start >= h.arrival);
                    assert!(h.end - h.start == f.cost_at(n));
                }
            }
            assert_eq!(max_resp, out.flows[fi].max_response, "flow {}", f.id);
        }
        // Busy periods on the hot node 3 contain packets from several flows.
        let bps = trace.busy_periods(traj_model::NodeId(3));
        assert!(!bps.is_empty());
        assert!(bps.iter().any(|bp| bp.packets.len() > 1));
    }

    #[test]
    fn diffserv_ef_unaffected_by_be_backlog_except_blocking() {
        use traj_model::examples::paper_example_with_best_effort;
        let set = paper_example_with_best_effort(9).unwrap();
        let sim = Simulator::new(
            &set,
            SimConfig {
                scheduler: SchedulerKind::DiffServ,
                ..Default::default()
            },
        );
        let offsets: Vec<i64> = vec![0; set.len()];
        let out = sim.run_periodic(&offsets);
        // EF flows must still be delivered and meet the Property 3 bounds
        // (checked precisely in the integration tests); here: sanity.
        for s in &out.flows[..5] {
            assert!(s.delivered > 0);
        }
    }
}
