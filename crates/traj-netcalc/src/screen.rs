//! The O(path-length) admission screen: incrementally maintained
//! aggregate-curve sums powering a Charny-style feasibility check.
//!
//! [`crate::analyze_netcalc`] and the trajectory fixed point both walk
//! the whole flow set; re-running either per admission makes every
//! decision O(flows) or worse. [`AggregateCache`] keeps the handful of
//! aggregates the closed-form Charny–Le Boudec bound needs — per-node
//! arrival-curve sums, the hop-count/packet-size maxima, the
//! non-preemption blocking term, and each standing flow's deadline
//! slack — as multisets maintained across admit/release (mirroring the
//! trajectory engine's warm deltas on its converged state). A what-if
//! then touches only the candidate's own
//! path: the screen is O(path · log flows).
//!
//! # The screen bound
//!
//! With `ν` the maximum per-node EF utilisation, `σ̂` the maximum
//! per-node aggregate EF burst, `H` the maximum EF hop count, and
//! `e = max packet + Lmax + b` the per-hop latency (where
//! `b = (max non-EF cost − 1)⁺` bounds non-preemption blocking by lower
//! classes at every hop, dominating Lemma 4's per-prefix `δ`), the
//! uniform per-hop delay satisfies the Charny–Le Boudec fixed point
//! `D₁ = e + σ̂ + (H−1) ν D₁` — a node's delay is its latency plus the
//! entry burst plus the burstiness the aggregate accumulated over up to
//! `H−1` upstream hops — giving `D₁ = (e + σ̂) / (1 − (H−1) ν)`
//! provided `ν < 1/(H−1)`. Flow `j` crossing `h_j` nodes is then
//! end-to-end bounded by `h_j · D₁ + J_j` (link propagation is inside
//! `e`; release jitter `J_j` is added explicitly since the closed form
//! does not see it). The screen admits a candidate iff this bound meets
//! **every** EF flow's deadline, candidate included — one comparison
//! against the maintained minimum of `(D_j − J_j)/h_j` instead of a
//! per-flow scan.
//!
//! The bound is deliberately looser than the trajectory fixed point
//! (it pays bursts at every hop); what matters for the tiered
//! controller is that it *dominates* the trajectory bound, so a screen
//! pass implies the trajectory analysis would also admit — enforced by
//! the cross-validation and decision-identity differential suites.
//!
//! Every screen computation runs on `checked_*` rational arithmetic: an
//! overflow yields [`ScreenOutcome::Overflow`] (callers fall back to
//! the exact path) instead of a silently saturated comparison.

use std::collections::{BTreeMap, HashMap};

use serde::Serialize;
use traj_model::{FlowId, FlowSet, NodeId, SporadicFlow};

use crate::curves::ArrivalCurve;
use crate::rational::Ratio;

/// Verdict of an O(path) screen evaluation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum ScreenOutcome {
    /// The closed-form bound covers every EF flow's deadline with the
    /// candidate added: admission is sound without the fixed point.
    Pass {
        /// The candidate's own screen bound (`⌈h·D₁⌉ + J`, ticks).
        bound: i64,
    },
    /// The screen cannot vouch for the extended set — the bound does
    /// not exist at this utilisation, or some deadline is not covered.
    /// The caller falls back to the exact trajectory what-if.
    Fail {
        /// Which test failed, for counters and debugging.
        why: &'static str,
    },
    /// Checked rational arithmetic overflowed; fall back.
    Overflow,
}

impl ScreenOutcome {
    /// True on [`ScreenOutcome::Pass`].
    pub fn passed(&self) -> bool {
        matches!(self, ScreenOutcome::Pass { .. })
    }
}

/// One member's cached contributions, kept so release can subtract
/// exactly what admit added.
#[derive(Debug, Clone)]
struct MemberAgg {
    ef: bool,
    /// EF: hop count entered in the hops multiset.
    hops: i64,
    /// EF: max packet cost; non-EF: the blocking cost entered in the
    /// blocking multiset.
    packet: i64,
    /// EF: deadline slack rate `(D − J)/h` entered in the slack multiset.
    slack: Option<Ratio>,
    /// EF: per-node arrival-curve contribution `(σ, ρ)` at each path
    /// node (a node can repeat on segment-crossing paths; contributions
    /// are listed per visit and summed on application).
    per_node: Vec<(NodeId, ArrivalCurve)>,
}

/// Incrementally maintained aggregates for the admission screen.
///
/// Holds, for the standing admitted set: per-node EF arrival-curve sums
/// (`σ`/`ρ` totals), the multiset of per-node utilisations (max = `ν`),
/// EF hop counts (max = `H`), EF packet costs, non-EF blocking costs,
/// and per-flow deadline slack rates (min = the binding deadline).
/// `admit`/`release` are O(path · log flows); `screen_admit` is
/// O(path · log flows) and read-only.
#[derive(Debug, Clone, Default)]
pub struct AggregateCache {
    lmax: i64,
    /// Per-node EF aggregate curve (`σ`, `ρ` sums of quantized
    /// contributions — exact on the `1/QUANT_DEN` grid).
    node_agg: HashMap<NodeId, ArrivalCurve>,
    /// Multiset of nonzero per-node EF utilisations.
    util_ms: BTreeMap<Ratio, usize>,
    /// Multiset of nonzero per-node aggregate EF bursts (`σ` sums).
    sigma_ms: BTreeMap<Ratio, usize>,
    /// Multiset of EF hop counts.
    hops_ms: BTreeMap<i64, usize>,
    /// Multiset of EF max packet costs.
    packet_ms: BTreeMap<i64, usize>,
    /// Multiset of non-EF max costs (non-preemption blocking sources).
    block_ms: BTreeMap<i64, usize>,
    /// Multiset of EF deadline slack rates `(D − J)/h`.
    slack_ms: BTreeMap<Ratio, usize>,
    members: HashMap<FlowId, MemberAgg>,
}

/// Fixed denominator for per-node aggregate sums. Raw sporadic rates
/// `c/T` have pairwise-coprime denominators, so exact sums over many
/// flows overflow `i128`; quantizing every contribution **up** onto
/// this grid keeps sums single-denominator (numerators add, the
/// denominator never grows) while only loosening the screen bound —
/// still sound, and release can subtract the exact value admit added.
const QUANT_DEN: i128 = 1 << 20;

/// Rounds `r ≥ 0` up to the next multiple of `1/QUANT_DEN`.
fn quantize_up(r: Ratio) -> Ratio {
    if r <= Ratio::ZERO {
        return Ratio::ZERO;
    }
    let num = (r.num() * QUANT_DEN + r.den() - 1) / r.den();
    Ratio::new(num, QUANT_DEN)
}

/// The flow's per-node arrival-curve contribution on the quantized grid.
fn quantized_contrib(cost: i64, period: i64, jitter: i64) -> ArrivalCurve {
    let raw = ArrivalCurve::sporadic(cost, period, jitter);
    ArrivalCurve {
        sigma: quantize_up(raw.sigma),
        rho: quantize_up(raw.rho),
    }
}

fn ms_add<K: Ord + Copy>(ms: &mut BTreeMap<K, usize>, k: K) {
    *ms.entry(k).or_insert(0) += 1;
}

fn ms_remove<K: Ord + Copy>(ms: &mut BTreeMap<K, usize>, k: K) {
    if let Some(n) = ms.get_mut(&k) {
        *n -= 1;
        if *n == 0 {
            ms.remove(&k);
        }
    }
}

fn ms_max<K: Ord + Copy>(ms: &BTreeMap<K, usize>) -> Option<K> {
    ms.keys().next_back().copied()
}

fn ms_min<K: Ord + Copy>(ms: &BTreeMap<K, usize>) -> Option<K> {
    ms.keys().next().copied()
}

impl AggregateCache {
    /// Builds the aggregates for a standing set (O(flows · path)).
    pub fn build(set: &FlowSet) -> AggregateCache {
        let mut cache = AggregateCache {
            lmax: set.network().lmax(),
            ..AggregateCache::default()
        };
        for f in set.flows() {
            cache.admit(f);
        }
        cache
    }

    /// Number of flows tracked.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no flow is tracked.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `id` is tracked.
    pub fn contains(&self, id: FlowId) -> bool {
        self.members.contains_key(&id)
    }

    /// The standing EF aggregate arrival curve at `node` (zero curve
    /// when no EF flow crosses it).
    pub fn node_aggregate(&self, node: NodeId) -> ArrivalCurve {
        self.node_agg.get(&node).copied().unwrap_or(ArrivalCurve {
            sigma: Ratio::ZERO,
            rho: Ratio::ZERO,
        })
    }

    /// The standing maximum per-node EF utilisation `ν`.
    pub fn max_utilisation(&self) -> Ratio {
        ms_max(&self.util_ms).unwrap_or(Ratio::ZERO)
    }

    /// Folds `flow` into the aggregates. Call after the flow is
    /// committed to the standing set; a duplicate id is ignored (the
    /// model layer rejects duplicates before any commit).
    pub fn admit(&mut self, flow: &SporadicFlow) {
        if self.members.contains_key(&flow.id) {
            return;
        }
        let ef = flow.class.is_ef();
        let mut member = MemberAgg {
            ef,
            hops: flow.path.len() as i64,
            packet: flow.max_cost(),
            slack: None,
            per_node: Vec::new(),
        };
        if ef {
            for (&n, &c) in flow.path.nodes().iter().zip(flow.costs()) {
                if c <= 0 {
                    continue;
                }
                let contrib = quantized_contrib(c, flow.period, flow.jitter);
                member.per_node.push((n, contrib));
                self.apply_node(n, contrib, true);
            }
            ms_add(&mut self.hops_ms, member.hops);
            ms_add(&mut self.packet_ms, member.packet);
            let slack = slack_rate(flow);
            ms_add(&mut self.slack_ms, slack);
            member.slack = Some(slack);
        } else {
            ms_add(&mut self.block_ms, member.packet);
        }
        self.members.insert(flow.id, member);
    }

    /// Removes `id`'s contributions. Unknown ids are a no-op.
    pub fn release(&mut self, id: FlowId) {
        let Some(member) = self.members.remove(&id) else {
            return;
        };
        if member.ef {
            for &(n, contrib) in &member.per_node {
                self.apply_node(n, contrib, false);
            }
            ms_remove(&mut self.hops_ms, member.hops);
            ms_remove(&mut self.packet_ms, member.packet);
            if let Some(slack) = member.slack {
                ms_remove(&mut self.slack_ms, slack);
            }
        } else {
            ms_remove(&mut self.block_ms, member.packet);
        }
    }

    fn apply_node(&mut self, n: NodeId, contrib: ArrivalCurve, add: bool) {
        let old = self.node_aggregate(n);
        // Contributions live on the fixed `1/QUANT_DEN` grid, so sums
        // are exact and add-then-subtract returns the original
        // normalised value — multiset keys always match on release.
        let new = if add {
            ArrivalCurve {
                sigma: old.sigma + contrib.sigma,
                rho: old.rho + contrib.rho,
            }
        } else {
            ArrivalCurve {
                sigma: old.sigma - contrib.sigma,
                rho: old.rho - contrib.rho,
            }
        };
        if old.rho > Ratio::ZERO {
            ms_remove(&mut self.util_ms, old.rho);
            ms_remove(&mut self.sigma_ms, old.sigma);
        }
        if new.rho > Ratio::ZERO {
            ms_add(&mut self.util_ms, new.rho);
            ms_add(&mut self.sigma_ms, new.sigma);
            self.node_agg.insert(n, new);
        } else {
            self.node_agg.remove(&n);
        }
    }

    /// O(path) what-if: can `candidate` be admitted on the closed-form
    /// bound alone? Read-only — commit via [`Self::admit`] separately.
    ///
    /// Returns [`ScreenOutcome::Fail`] for non-EF candidates (the exact
    /// path owns the class verdict), when the Charny bound does not
    /// exist at the extended utilisation, or when some flow's deadline
    /// is not covered; [`ScreenOutcome::Overflow`] when the checked
    /// arithmetic overflows.
    pub fn screen_admit(&self, candidate: &SporadicFlow) -> ScreenOutcome {
        if !candidate.class.is_ef() {
            return ScreenOutcome::Fail { why: "not-ef" };
        }
        match self.screen_checked(candidate) {
            Some(outcome) => outcome,
            None => ScreenOutcome::Overflow,
        }
    }

    /// The screen arithmetic with every operation checked; `None` means
    /// overflow (mapped to [`ScreenOutcome::Overflow`] by the caller).
    fn screen_checked(&self, candidate: &SporadicFlow) -> Option<ScreenOutcome> {
        let cand_hops = candidate.path.len() as i64;

        // ν', σ̂': the standing per-node maxima can only be raised by
        // the candidate's own path nodes — O(path) updates, one global
        // max each (maxima may land on different nodes; taking them
        // independently only loosens the bound).
        let mut util = self.max_utilisation();
        let mut burst = ms_max(&self.sigma_ms).unwrap_or(Ratio::ZERO);
        for (&n, &c) in candidate.path.nodes().iter().zip(candidate.costs()) {
            if c <= 0 {
                continue;
            }
            let contrib = quantized_contrib(c, candidate.period, candidate.jitter);
            let agg = self.node_aggregate(n);
            util = util.max(agg.rho.checked_add(contrib.rho)?);
            burst = burst.max(agg.sigma.checked_add(contrib.sigma)?);
        }

        // H', e': maxima against the standing multisets.
        let hops = ms_max(&self.hops_ms).unwrap_or(0).max(cand_hops);
        let packet = ms_max(&self.packet_ms)
            .unwrap_or(0)
            .max(candidate.max_cost());
        let block = (ms_max(&self.block_ms).unwrap_or(0) - 1).max(0);
        let e = Ratio::int(packet.checked_add(self.lmax)?.checked_add(block)?);
        let numer = e.checked_add(burst)?;

        // D₁ = (e + σ̂) / (1 − (H−1) ν), valid below the Charny
        // threshold only.
        let d1 = if hops <= 1 {
            if util >= Ratio::ONE {
                return Some(ScreenOutcome::Fail { why: "overload" });
            }
            numer
        } else {
            let hm1 = Ratio::int(hops - 1);
            let denom = Ratio::ONE.checked_sub(hm1.checked_mul(util)?)?;
            if denom <= Ratio::ZERO {
                return Some(ScreenOutcome::Fail {
                    why: "above-charny-threshold",
                });
            }
            numer.checked_div(denom)?
        };

        // Every standing EF flow j needs h_j · D₁ + J_j ≤ D_j, i.e.
        // D₁ ≤ min_j (D_j − J_j)/h_j — one comparison via the slack
        // multiset; the candidate contributes its own slack rate.
        let cand_slack = checked_slack_rate(candidate)?;
        let min_slack = match ms_min(&self.slack_ms) {
            Some(s) => s.min(cand_slack),
            None => cand_slack,
        };
        if d1 > min_slack {
            return Some(ScreenOutcome::Fail {
                why: "deadline-not-covered",
            });
        }

        // The candidate's own bound: ⌈h·D₁⌉ + J, finite by construction.
        let bound = Ratio::int(cand_hops)
            .checked_mul(d1)?
            .ceil()
            .checked_add(candidate.jitter)?;
        Some(ScreenOutcome::Pass { bound })
    }

    /// Audit hook: rebuilds the aggregates from `set` cold and compares
    /// every multiset and per-node sum. The incremental maintenance is
    /// exact (rational sums, no rounding), so any difference is a bug.
    pub fn verify_against(&self, set: &FlowSet) -> bool {
        let cold = AggregateCache::build(set);
        self.lmax == cold.lmax
            && self.node_agg == cold.node_agg
            && self.util_ms == cold.util_ms
            && self.sigma_ms == cold.sigma_ms
            && self.hops_ms == cold.hops_ms
            && self.packet_ms == cold.packet_ms
            && self.block_ms == cold.block_ms
            && self.slack_ms == cold.slack_ms
            && self.members.len() == cold.members.len()
    }
}

/// `(D − J)/h` for an EF flow (unchecked variant used on committed
/// flows, whose parameters already passed the checked screen).
fn slack_rate(flow: &SporadicFlow) -> Ratio {
    checked_slack_rate(flow).unwrap_or(Ratio::MIN)
}

fn checked_slack_rate(flow: &SporadicFlow) -> Option<Ratio> {
    let headroom = flow.deadline.checked_sub(flow.jitter)?;
    Ratio::checked_new(headroom as i128, flow.path.len() as i128)
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_model::examples::{line_topology, paper_example};
    use traj_model::flow::TrafficClass;
    use traj_model::Path;

    fn light_set() -> FlowSet {
        // 2 flows over 3 shared hops at utilisation 2·4/400 = 1/50,
        // comfortably below the Charny threshold 1/2.
        line_topology(2, 3, 400, 4, 0, 1).unwrap()
    }

    fn candidate(id: u32, period: i64, deadline: i64) -> SporadicFlow {
        SporadicFlow::uniform(
            id,
            Path::from_ids([1, 2, 3]).unwrap(),
            period,
            4,
            0,
            deadline,
        )
        .unwrap()
        .with_class(TrafficClass::Ef)
    }

    #[test]
    fn feasible_candidate_passes_and_bound_is_finite() {
        let set = light_set();
        let cache = AggregateCache::build(&set);
        match cache.screen_admit(&candidate(100, 400, 10_000)) {
            ScreenOutcome::Pass { bound } => {
                assert!(bound > 0);
                assert!(bound <= 10_000);
            }
            other => panic!("expected pass, got {other:?}"),
        }
    }

    #[test]
    fn screen_pass_bound_dominates_trajectory_bound() {
        let set = light_set();
        let cache = AggregateCache::build(&set);
        let cand = candidate(100, 400, 10_000);
        let ScreenOutcome::Pass { bound } = cache.screen_admit(&cand) else {
            panic!("light set must screen");
        };
        let extended = set.extended_with(cand.clone()).unwrap();
        let report =
            traj_analysis::analyze_ef(&extended, &traj_analysis::AnalysisConfig::default());
        let traj = report.for_flow(cand.id).unwrap().wcrt.value().unwrap();
        assert!(bound >= traj, "screen {bound} < trajectory {traj}");
    }

    #[test]
    fn paper_example_fails_above_the_charny_threshold() {
        // ν = 4/9 > 1/(H−1) = 1/5: the closed form does not exist, the
        // screen must hand the decision to the exact path.
        let cache = AggregateCache::build(&paper_example());
        let cand =
            SporadicFlow::uniform(100, Path::from_ids([2, 3, 4]).unwrap(), 360, 4, 0, 10_000)
                .unwrap();
        assert_eq!(
            cache.screen_admit(&cand),
            ScreenOutcome::Fail {
                why: "above-charny-threshold"
            }
        );
    }

    #[test]
    fn tight_deadline_fails_the_slack_test() {
        let set = light_set();
        let cache = AggregateCache::build(&set);
        assert_eq!(
            cache.screen_admit(&candidate(100, 400, 5)),
            ScreenOutcome::Fail {
                why: "deadline-not-covered"
            }
        );
    }

    #[test]
    fn non_ef_candidate_is_not_screened() {
        let set = light_set();
        let cache = AggregateCache::build(&set);
        let be = candidate(100, 400, 10_000).with_class(TrafficClass::BestEffort);
        assert_eq!(
            cache.screen_admit(&be),
            ScreenOutcome::Fail { why: "not-ef" }
        );
    }

    #[test]
    fn non_ef_members_contribute_blocking_not_utilisation() {
        let set = light_set();
        let mut cache = AggregateCache::build(&set);
        let util_before = cache.max_utilisation();
        let be = SporadicFlow::uniform(77, Path::from_ids([1, 2, 3]).unwrap(), 50, 9, 0, 10_000)
            .unwrap()
            .with_class(TrafficClass::BestEffort);
        cache.admit(&be);
        assert_eq!(cache.max_utilisation(), util_before);
        assert_eq!(ms_max(&cache.block_ms), Some(9));
        // Blocking inflates e, hence the candidate's bound.
        let ScreenOutcome::Pass { bound: with_be } =
            cache.screen_admit(&candidate(100, 400, 10_000))
        else {
            panic!("still below threshold");
        };
        cache.release(FlowId(77));
        let ScreenOutcome::Pass { bound: without } =
            cache.screen_admit(&candidate(100, 400, 10_000))
        else {
            panic!("still below threshold");
        };
        assert!(with_be > without);
    }

    #[test]
    fn admit_release_round_trips_exactly() {
        let set = light_set();
        let mut cache = AggregateCache::build(&set);
        let reference = AggregateCache::build(&set);
        for id in 200..230u32 {
            cache.admit(&candidate(id, 360 + id as i64, 10_000));
        }
        assert_eq!(cache.len(), reference.len() + 30);
        for id in 200..230u32 {
            cache.release(FlowId(id));
        }
        let cold = AggregateCache::build(&set);
        assert_eq!(cache.node_agg, cold.node_agg);
        assert_eq!(cache.util_ms, cold.util_ms);
        assert_eq!(cache.sigma_ms, cold.sigma_ms);
        assert_eq!(cache.hops_ms, cold.hops_ms);
        assert_eq!(cache.packet_ms, cold.packet_ms);
        assert_eq!(cache.block_ms, cold.block_ms);
        assert_eq!(cache.slack_ms, cold.slack_ms);
        assert!(cache.verify_against(&set));
        assert_eq!(cache.max_utilisation(), reference.max_utilisation());
        // Screens agree with the never-churned cache bit for bit.
        let cand = candidate(500, 400, 10_000);
        assert_eq!(cache.screen_admit(&cand), reference.screen_admit(&cand));
    }

    #[test]
    fn jitter_beyond_deadline_fails_instead_of_wrapping() {
        let set = light_set();
        let cache = AggregateCache::build(&set);
        // Release jitter exceeding the deadline leaves negative
        // headroom: the slack rate goes negative and the screen must
        // refuse (the exact path owns the verdict), never pass on a
        // wrapped comparison.
        let c = SporadicFlow::uniform(100, Path::from_ids([1, 2, 3]).unwrap(), 400, 4, 500, 30)
            .unwrap()
            .with_class(TrafficClass::Ef);
        assert_eq!(
            cache.screen_admit(&c),
            ScreenOutcome::Fail {
                why: "deadline-not-covered"
            }
        );
    }
}
