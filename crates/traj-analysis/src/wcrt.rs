//! Property 2: the worst-case end-to-end response-time bound.
//!
//! [`Analyzer`] assembles, for one flow over one (possibly truncated)
//! path, the [`BoundFunction`] of Property 1 — interference windows,
//! same-direction extra-packet terms, link delays, optional non-preemption
//! `δᵢ` — and maximises it over `t ∈ [-Jᵢ, -Jᵢ + Bᵢ^{slow})` per Lemma 3.
//!
//! The same engine serves the plain FIFO analysis (universe = all flows,
//! `δ = 0`) and the EF analysis of Property 3 (universe = EF flows,
//! `δ` = Lemma 4), and is reused node-prefix by node-prefix by the `Smax`
//! fixed point.

use rayon::prelude::*;
use traj_model::{CrossDirection, Duration, FlowId, FlowSet, Path, SporadicFlow};

use crate::cache::InterferenceCache;
use crate::components::RunPlan;
use crate::config::{AnalysisConfig, ReverseCounting, SmaxMode};
use crate::jitter::jitter_bound;
use crate::report::{FlowReport, SetReport, Verdict};
use crate::smax::SmaxTable;
use crate::telemetry::FixpointTelemetry;
use crate::terms::{BoundFunction, Window};
use traj_obs::{Event, ScopedTimer};

/// Supplies the non-preemption term `δᵢ` added to `W` (Lemma 4). The plain
/// FIFO analysis uses [`NoDelta`].
pub trait DeltaProvider: Sync {
    /// `δ` for the flow at `flow_idx` restricted to `prefix`.
    fn delta(&self, set: &FlowSet, flow_idx: usize, prefix: &Path) -> Duration;
}

/// `δ = 0`: no lower-priority traffic (paper §4).
pub struct NoDelta;

impl DeltaProvider for NoDelta {
    fn delta(&self, _set: &FlowSet, _flow_idx: usize, _prefix: &Path) -> Duration {
        0
    }
}

/// Owned remains of a converged [`Analyzer`], decoupled from the
/// borrowed set/configuration (see [`Analyzer::into_state_parts`]).
pub(crate) struct AnalyzerParts {
    pub(crate) smax: SmaxTable,
    pub(crate) cache: InterferenceCache,
    pub(crate) rounds: usize,
    pub(crate) telemetry: FixpointTelemetry,
    pub(crate) full: Vec<Verdict>,
}

/// Reusable analysis engine for one flow set and configuration.
///
/// Construction does all the heavy lifting once: it freezes the
/// `Smax`-independent interference structure into an
/// [`InterferenceCache`], iterates the `Smax` fixed point over it
/// (component by component, see [`crate::components`]), and stores the
/// converged full-path bounds; [`Self::wcrt`] and [`Self::report`]
/// afterwards are cheap lookups.
pub struct Analyzer<'a, D: DeltaProvider = NoDelta> {
    set: &'a FlowSet,
    cfg: &'a AnalysisConfig,
    /// Flow-index membership of the FIFO universe under analysis.
    universe: Vec<bool>,
    delta: D,
    smax: SmaxTable,
    /// Frozen bound-function skeletons, one per (flow, prefix length).
    cache: InterferenceCache,
    /// Rounds the `Smax` fixed point took (0 under `TransitOnly`).
    rounds: usize,
    /// Convergence record of the fixed point (round schedule, per-round
    /// recompute/skip/change counts); attached to [`SetReport`]s built
    /// from this analyzer.
    telemetry: FixpointTelemetry,
    /// Converged full-path bounds, one per flow.
    full: Vec<Verdict>,
}

impl<'a> Analyzer<'a, NoDelta> {
    /// Builds the engine for a plain FIFO analysis of all flows.
    ///
    /// Computes the `Smax` fixed point up front; an overloaded set yields
    /// `Err` with the divergence reason.
    pub fn new(set: &'a FlowSet, cfg: &'a AnalysisConfig) -> Result<Self, Verdict> {
        Self::with_universe_and_delta(set, cfg, vec![true; set.len()], NoDelta)
    }
}

impl<'a, D: DeltaProvider> Analyzer<'a, D> {
    /// Builds the engine over an explicit flow universe and `δ` provider
    /// (the EF analysis restricts the universe to EF flows and supplies
    /// Lemma 4's `δᵢ`).
    pub fn with_universe_and_delta(
        set: &'a FlowSet,
        cfg: &'a AnalysisConfig,
        universe: Vec<bool>,
        delta: D,
    ) -> Result<Self, Verdict> {
        if universe.len() != set.len() {
            return Err(Verdict::unbounded(
                "universe mask length does not match the flow set",
            ));
        }
        // Seed first: the transit sums are overflow-checked, so a set
        // whose time values cannot even be represented fails here with a
        // typed verdict before any heavier (unchecked) cache arithmetic
        // runs.
        let seed = SmaxTable::transit(set)?;
        let cache = {
            let _span = ScopedTimer::new("analysis.cache_build").field("flows", set.len());
            InterferenceCache::build(set, cfg, &universe, &delta)
        };
        let seed_rows = vec![true; set.len()];
        Self::with_parts(set, cfg, universe, delta, cache, seed, &seed_rows, None)
    }

    /// Core constructor behind the cold path, the survivability warm
    /// start, and the admission warm start: runs the fixed point from an
    /// arbitrary seed table, forcing recomputation only of the flows
    /// flagged in `seed_rows`.
    ///
    /// Sound warm starts must seed every flagged flow at (or below) its
    /// least-fixed-point value — e.g. at its transit floor — and every
    /// unflagged flow at a value the new equations already satisfy
    /// (its prior fixed-point row, under the dirty-closure invariant);
    /// Kleene iteration then converges to the same least fixed point a
    /// cold start reaches.
    ///
    /// `full_prev`, when given, supplies already-converged full-path
    /// verdicts to reuse instead of re-maximising: entry `i` may be
    /// `Some` only for flows whose skeleton and every `Smax` cell it
    /// reads are unchanged from the run that produced the verdict (the
    /// same clean-flow invariant as the row reuse above).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn with_parts(
        set: &'a FlowSet,
        cfg: &'a AnalysisConfig,
        universe: Vec<bool>,
        delta: D,
        cache: InterferenceCache,
        seed: SmaxTable,
        seed_rows: &[bool],
        full_prev: Option<Vec<Option<Verdict>>>,
    ) -> Result<Self, Verdict> {
        let cold = seed_rows.iter().all(|&s| s);
        let plan = RunPlan::pick(set.len(), cold);
        let cells = set
            .flows()
            .iter()
            .enumerate()
            .filter(|(i, _)| universe[*i])
            .map(|(_, f)| f.path.len().saturating_sub(1))
            .sum();
        let mut an = Analyzer {
            set,
            cfg,
            universe,
            delta,
            smax: seed,
            cache,
            rounds: 0,
            telemetry: FixpointTelemetry {
                chosen: plan.shape,
                flows: set.len(),
                cells,
                rounds: 0,
                // TransitOnly skips the fixed point: trivially converged.
                converged: cfg.smax_mode != SmaxMode::RecursivePrefix,
                per_round: Vec::new(),
                components: 0,
                largest_component: 0,
                shards: Vec::new(),
            },
            full: Vec::new(),
        };
        if cfg.smax_mode == SmaxMode::RecursivePrefix {
            let _span = ScopedTimer::new("analysis.fixpoint").field("flows", set.len());
            an.fixpoint_smax(seed_rows, plan)?;
        }
        // The table is converged (or transit-only): compute every flow's
        // full-path bound once, so report/wcrt calls are lookups. Flows
        // with a reusable prior verdict skip the maximisation.
        let _span = ScopedTimer::new("analysis.full_bounds").field("flows", set.len());
        let full: Vec<Verdict> = (0..set.len())
            .into_par_iter()
            .map(
                |i| match full_prev.as_ref().and_then(|prev| prev[i].clone()) {
                    Some(v) => v,
                    None => an.wcrt_prefix(i, set.flows()[i].path.len()),
                },
            )
            .collect();
        an.full = full;
        Ok(an)
    }

    /// Decomposes a converged analyzer into its owned parts (for
    /// [`crate::incremental::ConvergedState`], which outlives the
    /// borrowed set and configuration).
    pub(crate) fn into_state_parts(self) -> AnalyzerParts {
        AnalyzerParts {
            smax: self.smax,
            cache: self.cache,
            rounds: self.rounds,
            telemetry: self.telemetry,
            full: self.full,
        }
    }

    /// The flow set under analysis.
    pub fn set(&self) -> &FlowSet {
        self.set
    }

    /// The converged `Smax` table.
    pub fn smax(&self) -> &SmaxTable {
        &self.smax
    }

    /// Rounds the `Smax` fixed point took to converge (0 under
    /// [`SmaxMode::TransitOnly`]).
    pub fn smax_rounds(&self) -> usize {
        self.rounds
    }

    /// Convergence record of this run's fixed point: round schedule,
    /// per-round recompute/skip/change counts and deltas.
    pub fn telemetry(&self) -> &FixpointTelemetry {
        &self.telemetry
    }

    /// The frozen interference structure (inspected by the cache test
    /// suite).
    #[cfg(test)]
    pub(crate) fn cache(&self) -> &InterferenceCache {
        &self.cache
    }

    /// Cache-assembled bound function over the prefix of length `k`
    /// (for the cache test suite; must coincide with
    /// [`Self::bound_function`]).
    #[cfg(test)]
    pub(crate) fn cached_bound_function(&self, flow_idx: usize, k: usize) -> BoundFunction {
        self.cache
            .prefix(flow_idx, k)
            .bound_function(flow_idx, &self.smax)
    }

    /// Worst-case end-to-end response-time bound for the flow at
    /// `flow_idx` (Property 2, or Property 3 when `δ` is the EF
    /// provider). Precomputed at construction.
    pub fn wcrt(&self, flow_idx: usize) -> Verdict {
        self.full[flow_idx].clone()
    }

    /// Bound over the prefix made of the first `k` visited nodes,
    /// evaluated from the frozen skeleton and the current `Smax` table.
    pub fn wcrt_prefix(&self, flow_idx: usize, k: usize) -> Verdict {
        match self
            .cache
            .prefix(flow_idx, k)
            .maximise(flow_idx, &self.smax)
        {
            Ok(Some(m)) => Verdict::Bounded(m.value),
            Ok(None) => Verdict::unbounded(format!(
                "busy period of flow {} exceeds the {}-tick guard (overload)",
                self.set.flows()[flow_idx].id,
                self.cfg.max_busy_period
            )),
            Err(o) => Verdict::from(o),
        }
    }

    /// Assembles Property 1's bound function for one flow over `prefix`
    /// (public for the explanation module and tests).
    ///
    /// This is the *direct* assembly, recomputing every term; the `Smax`
    /// fixed point goes through the structurally-identical cached path
    /// instead (see [`InterferenceCache`]).
    pub fn bound_function(&self, flow_idx: usize, prefix: &Path) -> BoundFunction {
        let set = self.set;
        let fi = &set.flows()[flow_idx];
        let keep = |f: &SporadicFlow| {
            set.index_of(f.id)
                .map(|k| self.universe[k])
                .unwrap_or(false)
        };

        let mut windows = Vec::new();
        for (j_idx, fj) in set.flows().iter().enumerate() {
            if j_idx == flow_idx || !self.universe[j_idx] || !set.crosses(fj, prefix) {
                continue;
            }
            // One virtual interfering flow per contiguous crossing
            // segment: a route that leaves the path and meets it again is
            // "a new flow" at each re-entry (the paper's Assumption 1
            // reduction), so each segment carries its own window(s) and
            // its own C^{slow} restricted to the segment's nodes.
            for segment in set.crossing_segments_shared(fj, prefix).iter() {
                let cost = segment
                    .nodes
                    .iter()
                    .map(|&h| fj.cost_at(h))
                    .max()
                    .unwrap_or(0);
                for (fji, fij) in segment_points(self.cfg, segment, prefix) {
                    let a = self.smax.get(set, flow_idx, fji).unwrap_or(0)
                        - set.smin(fj, fji, self.cfg.smin_mode).unwrap_or(0)
                        - set
                            .m_term_filtered(prefix, fij, self.cfg.min_convention, keep)
                            .unwrap_or(0)
                        + self.smax.get(set, j_idx, fij).unwrap_or(0)
                        + fj.jitter;
                    windows.push(Window {
                        flow: fj.id,
                        a,
                        period: fj.period,
                        cost,
                    });
                }
            }
        }
        // Self term: (1 + ⌊(t + Jᵢ)/Tᵢ⌋) · Cᵢ^{slowᵢ}.
        let trunc = fi.truncated(prefix.len()).unwrap_or_else(|| fi.clone());
        windows.push(Window {
            flow: fi.id,
            a: fi.jitter,
            period: fi.period,
            cost: trunc.max_cost(),
        });

        // Constant part: Σ_{h ≠ slowᵢ} max same-direction cost, plus link
        // delays; the -Cᵢ^{last} of W and the +Cᵢ^{last} of the response
        // cancel. δᵢ covers non-preemption (0 for plain FIFO).
        let slow = trunc.slow_node();
        let mut constant = self.delta.delta(set, flow_idx, prefix);
        for &h in prefix.nodes() {
            if h != slow {
                constant += set.max_samedir_cost_filtered(prefix, h, keep);
            }
        }
        for (a, b) in prefix.links() {
            constant += set.network().link_delay(a, b).lmax;
        }
        BoundFunction {
            windows,
            constant,
            t_lo: -fi.jitter,
        }
    }

    /// Iterates the recursive-prefix `Smax` fixed point to convergence:
    /// the crossing-graph components make the equation system
    /// block-diagonal, and the arena solver runs each block with the
    /// run's plan (see [`crate::components`]). An empty universe has no
    /// component and converges without a round.
    fn fixpoint_smax(&mut self, seed_rows: &[bool], plan: RunPlan) -> Result<(), Verdict> {
        let comps = crate::components::partition(self.set, &self.universe, &self.cache);
        self.telemetry.components = comps.len();
        self.telemetry.largest_component = comps.iter().map(Vec::len).max().unwrap_or(0);
        if traj_obs::enabled() {
            traj_obs::emit(
                Event::new("fixpoint.components")
                    .field("components", comps.len())
                    .field("largest", self.telemetry.largest_component)
                    .field("flows", self.set.len()),
            );
        }
        let run = crate::components::solve_sharded(
            self.set,
            self.cfg,
            &self.cache,
            &mut self.smax,
            seed_rows,
            plan,
            &comps,
        )?;
        self.rounds = run.rounds;
        self.telemetry.rounds = run.rounds;
        self.telemetry.converged = true;
        if traj_obs::enabled() {
            for rt in &run.per_round {
                traj_obs::emit(
                    Event::new("fixpoint.round")
                        .field("round", rt.round)
                        .field("recomputed", rt.recomputed)
                        .field("skipped", rt.skipped)
                        .field("changed", rt.changed)
                        .field("max_delta", rt.max_delta),
                );
            }
        }
        self.telemetry.per_round = run.per_round;
        if traj_obs::enabled() {
            for s in &run.shards {
                traj_obs::emit(
                    Event::new("fixpoint.shard")
                        .field("flows", s.flows)
                        .field("cells", s.cells)
                        .field("rounds", s.rounds)
                        .field("recomputed", s.recomputed)
                        .field("skipped", s.skipped)
                        .field("parallel_rounds", s.parallel_rounds)
                        .field("solve_micros", s.solve_micros),
                );
            }
        }
        self.telemetry.shards = run.shards;
        if traj_obs::enabled() {
            traj_obs::emit(
                Event::new("fixpoint.converged")
                    .field("rounds", self.rounds)
                    .field("strategy", plan.shape.name())
                    .field("cells", self.telemetry.cells)
                    .field("recomputed_total", self.telemetry.total_recomputed())
                    .field("skipped_total", self.telemetry.total_skipped()),
            );
        }
        Ok(())
    }

    /// Full report for the flow at `flow_idx`.
    pub fn report(&self, flow_idx: usize) -> FlowReport {
        let f = &self.set.flows()[flow_idx];
        let wcrt = self.wcrt(flow_idx);
        let jitter = wcrt.value().map(|r| jitter_bound(self.set, f, r));
        FlowReport {
            flow: f.id,
            name: f.name.clone(),
            wcrt,
            jitter,
            deadline: f.deadline,
        }
    }
}

/// The `(first_{j,i}, first_{i,j})` anchor pairs for one crossing
/// segment: a single pair per segment under
/// [`ReverseCounting::PerFlow`]; one pair per shared node for
/// reverse-direction segments under [`ReverseCounting::PerCrossingNode`].
/// Shared by the direct assembly above and the skeleton build in
/// [`crate::cache`].
pub(crate) fn segment_points(
    cfg: &AnalysisConfig,
    segment: &traj_model::CrossingSegment,
    prefix: &Path,
) -> Vec<(traj_model::NodeId, traj_model::NodeId)> {
    let reverse = segment.direction == CrossDirection::Reverse;
    if reverse && cfg.reverse_counting == ReverseCounting::PerCrossingNode {
        segment.nodes.iter().map(|&h| (h, h)).collect()
    } else {
        vec![(
            segment.first_in_crosser_order(),
            segment.entry_in_path_order(prefix),
        )]
    }
}

/// Analyses every flow of the set with Property 2 (plain FIFO).
///
/// Flows are analysed in parallel once the shared `Smax` fixed point has
/// converged.
pub fn analyze_all(set: &FlowSet, cfg: &AnalysisConfig) -> SetReport {
    match Analyzer::new(set, cfg) {
        Ok(an) => {
            let reports: Vec<FlowReport> = (0..set.len())
                .into_par_iter()
                .map(|i| an.report(i))
                .collect();
            SetReport::new(reports).with_telemetry(an.telemetry().clone())
        }
        Err(verdict) => SetReport::new(
            set.flows()
                .iter()
                .map(|f| FlowReport {
                    flow: f.id,
                    name: f.name.clone(),
                    wcrt: verdict.clone(),
                    jitter: None,
                    deadline: f.deadline,
                })
                .collect(),
        ),
    }
}

/// Analyses a single flow; `None` when the id is unknown.
pub fn analyze_flow(set: &FlowSet, cfg: &AnalysisConfig, id: FlowId) -> Option<FlowReport> {
    let idx = set.index_of(id)?;
    match Analyzer::new(set, cfg) {
        Ok(an) => Some(an.report(idx)),
        Err(verdict) => {
            let f = set.flow(id)?;
            Some(FlowReport {
                flow: f.id,
                name: f.name.clone(),
                wcrt: verdict,
                jitter: None,
                deadline: f.deadline,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_model::examples::{line_topology, paper_example};
    use traj_model::{Network, Path};

    #[test]
    fn paper_example_default_bounds() {
        // Faithful Property 2 with the sound recursive Smax (see
        // EXPERIMENTS.md: the published Table 2 used a cruder accounting;
        // our bounds are tighter and simulation-validated).
        let set = paper_example();
        let report = analyze_all(&set, &AnalysisConfig::default());
        assert_eq!(
            report.bounds(),
            vec![Some(31), Some(37), Some(47), Some(47), Some(40)]
        );
        assert!(report.all_schedulable());
    }

    #[test]
    fn paper_calibrated_bounds_bracket_table2() {
        let set = paper_example();
        let report = analyze_all(&set, &AnalysisConfig::paper_calibrated());
        let bounds: Vec<i64> = report.bounds().into_iter().map(|b| b.unwrap()).collect();
        // Still schedulable, never tighter than the default mode.
        let def = analyze_all(&set, &AnalysisConfig::default());
        for (b, d) in bounds.iter().zip(def.bounds()) {
            assert!(*b >= d.unwrap());
        }
        assert!(report.all_schedulable());
        // tau_1 matches the paper exactly in every mode.
        assert_eq!(bounds[0], 31);
    }

    #[test]
    fn single_flow_has_transit_bound() {
        // One flow alone: R = Σ C + (q-1) Lmax + J.
        let set = line_topology(1, 4, 100, 5, 1, 2).unwrap();
        let report = analyze_all(&set, &AnalysisConfig::default());
        assert_eq!(report.bounds(), vec![Some(4 * 5 + 3 * 2)]);
    }

    #[test]
    fn single_node_flows_reduce_to_busy_period_analysis() {
        // n flows sharing one node: FIFO worst case for the packet under
        // study is all other flows' packets ahead of it plus its own.
        let set = line_topology(3, 1, 100, 7, 1, 1).unwrap();
        let report = analyze_all(&set, &AnalysisConfig::default());
        for b in report.bounds() {
            assert_eq!(b, Some(21));
        }
    }

    #[test]
    fn overload_is_reported_not_looped() {
        // Utilisation 3 * 50/100 = 1.5 on every node.
        let set = line_topology(3, 3, 100, 50, 1, 1).unwrap();
        let report = analyze_all(&set, &AnalysisConfig::default());
        assert_eq!(report.misses(), 3);
        for r in report.per_flow() {
            assert!(!r.wcrt.is_bounded());
        }
    }

    #[test]
    fn jitter_shifts_the_domain_and_the_bound() {
        let net = Network::uniform(2, 1, 1).unwrap();
        let mk = |jit| {
            let f = traj_model::SporadicFlow::uniform(
                1,
                Path::from_ids([1, 2]).unwrap(),
                100,
                5,
                jit,
                1000,
            )
            .unwrap();
            FlowSet::new(net.clone(), vec![f]).unwrap()
        };
        let r0 = analyze_all(&mk(0), &AnalysisConfig::default());
        let r9 = analyze_all(&mk(9), &AnalysisConfig::default());
        // Alone, the jittered flow still completes within transit time of
        // its *latest* release, measured from generation: +J.
        assert_eq!(r0.bounds()[0], Some(11));
        assert_eq!(r9.bounds()[0], Some(20));
    }

    #[test]
    fn monotone_in_interference_cost() {
        // Adding a crossing flow can only increase the bound of tau_1.
        let base = line_topology(2, 3, 100, 4, 1, 1).unwrap();
        let more = line_topology(3, 3, 100, 4, 1, 1).unwrap();
        let cfg = AnalysisConfig::default();
        let b0 = analyze_all(&base, &cfg).bounds()[0].unwrap();
        let b1 = analyze_all(&more, &cfg).bounds()[0].unwrap();
        assert!(b1 > b0);
    }

    #[test]
    fn transit_only_mode_is_never_tighter_checked_elsewhere() {
        // TransitOnly skips the fixed point: it must at least produce a
        // bound on the paper example without panicking.
        let set = paper_example();
        let cfg = AnalysisConfig {
            smax_mode: SmaxMode::TransitOnly,
            ..Default::default()
        };
        let report = analyze_all(&set, &cfg);
        assert!(report.per_flow().iter().all(|r| r.wcrt.is_bounded()));
    }

    #[test]
    fn smax_rounds_are_reported() {
        let set = paper_example();
        let cfg = AnalysisConfig::default();
        let an = Analyzer::new(&set, &cfg).unwrap();
        assert!(an.smax_rounds() >= 1);
        let transit = AnalysisConfig {
            smax_mode: SmaxMode::TransitOnly,
            ..Default::default()
        };
        assert_eq!(Analyzer::new(&set, &transit).unwrap().smax_rounds(), 0);
    }

    #[test]
    fn small_sets_run_gauss_seidel_and_record_the_choice() {
        // The 5-flow paper example sits below the Jacobi threshold: the
        // run must use Gauss–Seidel rounds and say so.
        let set = paper_example();
        let cfg = AnalysisConfig::default();
        let an = Analyzer::new(&set, &cfg).unwrap();
        let t = an.telemetry();
        assert_eq!(t.chosen, crate::telemetry::RunShape::GaussSeidel);
        assert!(t.converged);
        assert_eq!(t.flows, 5);
        assert_eq!(t.rounds, an.smax_rounds());
        assert_eq!(t.per_round.len(), t.rounds);
        // Every flow's non-ingress positions are iterated.
        let cells: usize = set.flows().iter().map(|f| f.path.len() - 1).sum();
        assert_eq!(t.cells, cells);
        // The convergence-check round changes nothing.
        let last = t.per_round.last().unwrap();
        assert_eq!(last.changed, 0);
        assert_eq!(last.max_delta, 0);
        // Gauss–Seidel recomputes everything every round.
        assert_eq!(t.total_skipped(), 0);
        assert_eq!(t.total_recomputed(), t.rounds * t.cells);
    }

    #[test]
    fn telemetry_rides_on_the_set_report_and_roundtrips() {
        let set = paper_example();
        let report = analyze_all(&set, &AnalysisConfig::default());
        let t = report.telemetry().expect("analyze_all attaches telemetry");
        assert!(t.converged);
        let json = serde_json::to_string(&report).unwrap();
        let back: SetReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.telemetry(), Some(t));
        assert_eq!(back.bounds(), report.bounds());
    }

    #[test]
    fn analyze_flow_single() {
        let set = paper_example();
        let r = analyze_flow(&set, &AnalysisConfig::default(), FlowId(1)).unwrap();
        assert_eq!(r.wcrt, Verdict::Bounded(31));
        assert!(analyze_flow(&set, &AnalysisConfig::default(), FlowId(99)).is_none());
    }
}
