//! The independent test oracle: the pre-cache implementation of the
//! plain FIFO analysis (Property 2). Every `Smax` round reassembles each
//! bound function from scratch — crossing segments recomputed per call,
//! `M` and `Smin` terms re-derived, busy periods re-iterated — in one
//! Gauss–Seidel sweep over the whole set, with none of the production
//! engine's skeletons, components, arenas or worklists.
//!
//! The differential suites (`tests/equivalence.rs`, proptests, the
//! engine's own unit tests) assert the production analyzer's `Smax`
//! tables and verdicts are bit-identical to this one on every input and
//! configuration.
//!
//! Only the all-flows FIFO universe with `δ = 0` is reproduced here —
//! that is what the seed's `analyze_all` did; the EF variant goes
//! through the cached engine in both implementations.

use traj_model::{Duration, FlowSet, Path, SporadicFlow};

use crate::config::{AnalysisConfig, SmaxMode};
use crate::jitter::jitter_bound;
use crate::report::{FlowReport, SetReport, Verdict};
use crate::smax::SmaxTable;
use crate::terms::{BoundFunction, Window};
use crate::wcrt::segment_points;

/// The pre-cache analysis engine: sequential Gauss–Seidel `Smax` fixed
/// point, no interference-structure reuse, memo-bypassing path
/// relations.
pub struct ReferenceAnalyzer<'a> {
    set: &'a FlowSet,
    cfg: &'a AnalysisConfig,
    smax: SmaxTable,
    rounds: usize,
}

impl<'a> ReferenceAnalyzer<'a> {
    /// Builds the engine and iterates the fixed point (when the mode
    /// asks for it), like the historical `Analyzer::new`.
    pub fn new(set: &'a FlowSet, cfg: &'a AnalysisConfig) -> Result<Self, Verdict> {
        let mut an = ReferenceAnalyzer {
            set,
            cfg,
            smax: SmaxTable::transit(set)?,
            rounds: 0,
        };
        if cfg.smax_mode == SmaxMode::RecursivePrefix {
            an.fixpoint_smax()?;
        }
        Ok(an)
    }

    /// Rounds the fixed point took (0 under `TransitOnly`).
    pub fn smax_rounds(&self) -> usize {
        self.rounds
    }

    /// The converged `Smax` table.
    pub fn smax(&self) -> &SmaxTable {
        &self.smax
    }

    /// Worst-case end-to-end response-time bound of one flow.
    pub fn wcrt(&self, flow_idx: usize) -> Verdict {
        self.wcrt_prefix(flow_idx, self.set.flows()[flow_idx].path.len())
    }

    fn wcrt_prefix(&self, flow_idx: usize, k: usize) -> Verdict {
        let f = &self.set.flows()[flow_idx];
        // `k` ranges over 1..=len by construction; the fallback is inert.
        let prefix = f.path.prefix_len(k).unwrap_or_else(|| f.path.clone());
        let bf = self.bound_function(flow_idx, &prefix);
        match bf.maximise(self.cfg.max_busy_period) {
            Ok(Some(m)) => Verdict::Bounded(m.value),
            Ok(None) => Verdict::unbounded(format!(
                "busy period of flow {} exceeds the {}-tick guard (overload)",
                f.id, self.cfg.max_busy_period
            )),
            Err(o) => Verdict::from(o),
        }
    }

    /// Property 1's bound function, assembled from scratch on every call
    /// with the memo-bypassing path relations.
    fn bound_function(&self, flow_idx: usize, prefix: &Path) -> BoundFunction {
        let set = self.set;
        let fi = &set.flows()[flow_idx];

        let mut windows = Vec::new();
        for (j_idx, fj) in set.flows().iter().enumerate() {
            if j_idx == flow_idx || !set.crosses(fj, prefix) {
                continue;
            }
            for segment in set.crossing_segments_uncached(fj, prefix) {
                let cost = segment
                    .nodes
                    .iter()
                    .map(|&h| fj.cost_at(h))
                    .max()
                    .unwrap_or(0);
                for (fji, fij) in segment_points(self.cfg, &segment, prefix) {
                    let a = self.smax.get(set, flow_idx, fji).unwrap_or(0)
                        - set.smin(fj, fji, self.cfg.smin_mode).unwrap_or(0)
                        - self.m_term_uncached(prefix, fij).unwrap_or(0)
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
        let trunc = fi.truncated(prefix.len()).unwrap_or_else(|| fi.clone());
        windows.push(Window {
            flow: fi.id,
            a: fi.jitter,
            period: fi.period,
            cost: trunc.max_cost(),
        });

        let slow = trunc.slow_node();
        let mut constant = 0;
        for &h in prefix.nodes() {
            if h != slow {
                constant += self.max_samedir_cost_uncached(prefix, h);
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

    /// `Mᵢʰ` recomputed with memo-bypassing segment lookups (the
    /// historical cost profile of `FlowSet::m_term_filtered`).
    fn m_term_uncached(&self, path: &Path, node: traj_model::NodeId) -> Option<Duration> {
        use traj_model::{CrossDirection, MinConvention};
        let set = self.set;
        let idx = path.index_of(node)?;
        let samedir_here = |j: &&SporadicFlow, here: traj_model::NodeId| {
            set.segment_direction_at_uncached(j, path, here) == Some(CrossDirection::Same)
        };
        let mut s = 0;
        for k in 0..idx {
            let here = path.nodes()[k];
            let next = path.nodes()[k + 1];
            let min_cost = match self.cfg.min_convention {
                MinConvention::Visiting => set
                    .flows()
                    .iter()
                    .filter(|j| samedir_here(j, here))
                    .map(|j| j.cost_at(here))
                    .min()
                    .unwrap_or(0),
                MinConvention::ZeroConvention => set
                    .flows()
                    .iter()
                    .filter(|j| set.crosses(j, path) && set.same_direction(j, path))
                    .map(|j| j.cost_at(here))
                    .min()
                    .unwrap_or(0),
                MinConvention::EdgeTraversing => set
                    .flows()
                    .iter()
                    .filter(|j| samedir_here(j, here) && j.path.suc(here) == Some(next))
                    .map(|j| j.cost_at(here))
                    .min()
                    .unwrap_or(0),
            };
            s += min_cost + set.network().link_delay(here, next).lmin;
        }
        Some(s)
    }

    /// `max C` over same-direction flows at `node`, memo-bypassing.
    fn max_samedir_cost_uncached(&self, path: &Path, node: traj_model::NodeId) -> Duration {
        use traj_model::CrossDirection;
        self.set
            .flows()
            .iter()
            .filter(|j| {
                self.set.segment_direction_at_uncached(j, path, node) == Some(CrossDirection::Same)
            })
            .map(|j| j.cost_at(node))
            .max()
            .unwrap_or(0)
    }

    /// The historical sequential in-place (Gauss–Seidel) fixed point.
    fn fixpoint_smax(&mut self) -> Result<(), Verdict> {
        let mut last_changed: Option<(usize, usize)> = None;
        for round in 0..self.cfg.max_smax_rounds {
            self.rounds = round + 1;
            let mut changed = false;
            for fi in 0..self.set.len() {
                let path = self.set.flows()[fi].path.clone();
                for pos in 1..path.len() {
                    let r = match self.wcrt_prefix(fi, pos) {
                        Verdict::Bounded(r) => r,
                        u => return Err(u),
                    };
                    let from = path.nodes()[pos - 1];
                    let to = path.nodes()[pos];
                    let val = r + self.set.network().link_delay(from, to).lmax;
                    if val > self.cfg.max_busy_period {
                        return Err(Verdict::unbounded(format!(
                            "Smax of flow {} at node {} exceeds the guard",
                            self.set.flows()[fi].id,
                            to
                        )));
                    }
                    if self.smax.set(fi, pos, val) {
                        changed = true;
                        last_changed = Some((fi, pos));
                    }
                }
            }
            if !changed {
                return Ok(());
            }
        }
        let (fi, pos) = last_changed.unwrap_or((0, 0));
        Err(Verdict::Diverged {
            rounds: self.rounds,
            worst_cell: (
                self.set.flows()[fi].id,
                self.set.flows()[fi].path.nodes()[pos],
            ),
        })
    }
}

/// The seed's `analyze_all`, sequential flavour: the pre-cache plain
/// FIFO analysis of every flow.
pub fn analyze_all_reference(set: &FlowSet, cfg: &AnalysisConfig) -> SetReport {
    match ReferenceAnalyzer::new(set, cfg) {
        Ok(an) => SetReport::new(
            (0..set.len())
                .map(|i| {
                    let f = &set.flows()[i];
                    let wcrt = an.wcrt(i);
                    let jitter = wcrt.value().map(|r| jitter_bound(set, f, r));
                    FlowReport {
                        flow: f.id,
                        name: f.name.clone(),
                        wcrt,
                        jitter,
                        deadline: f.deadline,
                    }
                })
                .collect(),
        ),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_all;
    use traj_model::examples::paper_example;

    #[test]
    fn reference_reproduces_paper_example_bounds() {
        let set = paper_example();
        let r = analyze_all_reference(&set, &AnalysisConfig::default());
        assert_eq!(
            r.bounds(),
            vec![Some(31), Some(37), Some(47), Some(47), Some(40)]
        );
    }

    #[test]
    fn reference_and_cached_agree_on_every_config_corner() {
        let set = paper_example();
        for cfg in crate::config_grid() {
            let naive = analyze_all_reference(&set, &cfg);
            let cached = analyze_all(&set, &cfg);
            assert_eq!(naive.bounds(), cached.bounds(), "cfg {cfg:?}");
        }
    }
}
