//! Interference-structure cache: the `Smax`-independent skeleton of
//! Property 1's bound function, computed once per (flow, prefix length).
//!
//! Between two rounds of the `Smax` fixed point, everything in
//! `bound_function` except the two `Smax` reads per window is unchanged:
//! the crossing segments and their anchor pairs, the per-window `Smin`
//! and `M` terms, the window periods and costs, the same-direction
//! per-node maxima, the link-delay sums, and the non-preemption `δ`.
//! Recomputing them every round made each round
//! `O(flows² · hops³)`-ish; this module hoists all of it into a
//! [`PrefixSkeleton`] built once, so a round only
//!
//! 1. reads two [`SmaxTable`] entries per window (by precomputed path
//!    position, no node-id lookups), and
//! 2. re-runs the jump-point maximisation — with the busy period `B`
//!    *also* precomputed, since `B` depends only on the windows'
//!    `(period, cost)` pairs and not on their alignments.
//!
//! The build itself amortises across prefixes: the crossing structure
//! against the *full* path is resolved once per flow pair into
//! positional arrays, and each prefix's segments fall out by clipping
//! (see [`SegMeta`]) — no per-(pair, prefix) allocation or `index_of`
//! scan. The per-hop front minima and per-node same-direction maxima
//! are likewise prefix-independent away from the prefix's last node
//! (proof at [`Hoisted`]), so they too are computed once per flow.
//!
//! Soundness of the hoisting: with the flow set, configuration, and
//! universe fixed, every hoisted quantity is a pure function of path
//! values and static flow parameters. Only the alignment
//! `A = Smaxᵢ(f_{j,i}) + Smaxⱼ(f_{i,j}) + base` varies across rounds,
//! and it is reassembled from live table reads on every evaluation, so
//! cached and direct assembly produce identical [`BoundFunction`]s —
//! asserted term-by-term by `skeletons_match_direct_assembly` below and
//! end-to-end by the differential suite in `tests/equivalence.rs`.

use std::collections::HashMap;
use std::sync::Arc;

use rayon::prelude::*;
use traj_model::{CrossDirection, Duration, FlowSet, MinConvention, NodeId, SporadicFlow, Tick};

use crate::config::{AnalysisConfig, ReverseCounting};
use crate::smax::SmaxTable;
use crate::terms::{BoundFunction, MaxPoint, Overflowed, Window};
use crate::wcrt::DeltaProvider;

/// Below this many freshly-built rows a delta construction runs
/// serially — reused rows are refcount bumps, and the rayon dispatch
/// costs more than building a warm start's handful of stale rows
/// inline.
const SERIAL_REBUILD_MAX_ROWS: usize = 32;

/// One interference window of Property 1 with its `Smax` reads left
/// symbolic: the alignment is `smax[owner][pos_i] + smax[j_idx][pos_j] +
/// base`, everything else is frozen.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowSkeleton {
    /// Flow contributing the packets (for reporting in [`Window`]).
    pub(crate) flow: traj_model::FlowId,
    /// Period `Tⱼ`.
    pub(crate) period: Duration,
    /// Cost per counted packet, `C_j` maximised over the segment.
    pub(crate) cost: Duration,
    /// Index of the anchor `f_{j,i}` in the *owner's* path (the owner's
    /// `Smax` read).
    pub(crate) pos_i: usize,
    /// Index of the interfering flow in the set.
    pub(crate) j_idx: usize,
    /// Index of the anchor `f_{i,j}` in the *crosser's* path (the
    /// crosser's `Smax` read).
    pub(crate) pos_j: usize,
    /// `− Sminⱼ(f_{j,i}) − M(prefix, f_{i,j}) + Jⱼ`: the `Smax`-free part
    /// of the alignment.
    pub(crate) base: Duration,
}

/// The frozen bound-function structure for one flow over one prefix.
#[derive(Debug, Clone)]
pub(crate) struct PrefixSkeleton {
    /// Interference windows with symbolic alignments.
    pub(crate) windows: Vec<WindowSkeleton>,
    /// The self term `(1 + ⌊(t + Jᵢ)/Tᵢ⌋) · Cᵢ^{slow}` — fully constant.
    pub(crate) self_window: Window,
    /// `δᵢ + Σ_{h≠slow} max C + Σ Lmax`.
    pub(crate) constant: Duration,
    /// `−Jᵢ`.
    pub(crate) t_lo: Tick,
    /// Lemma 3's busy period `Bᵢ^{slow}`: alignment-independent, so
    /// computed once at build time. `Ok(None)` means it exceeded the
    /// configured guard — every evaluation reports overload; `Err` means
    /// the recurrence overflowed i64 — every evaluation reports overflow.
    pub(crate) busy: Result<Option<Duration>, Overflowed>,
}

impl PrefixSkeleton {
    /// Materialises the bound function under the given `Smax` table.
    ///
    /// Window order matches the direct assembly in
    /// `Analyzer::bound_function` (interference windows in flow/segment
    /// order, then the self term) so the two are comparable term by term.
    pub(crate) fn bound_function(&self, flow_idx: usize, smax: &SmaxTable) -> BoundFunction {
        let mut windows: Vec<Window> = Vec::with_capacity(self.windows.len() + 1);
        for w in &self.windows {
            windows.push(Window {
                flow: w.flow,
                a: smax.at(flow_idx, w.pos_i) + smax.at(w.j_idx, w.pos_j) + w.base,
                period: w.period,
                cost: w.cost,
            });
        }
        windows.push(self.self_window);
        BoundFunction {
            windows,
            constant: self.constant,
            t_lo: self.t_lo,
        }
    }

    /// Maximises the materialised bound under the given `Smax` table,
    /// reusing the precomputed busy period; `Ok(None)` on overload,
    /// `Err` when the busy period or the maximisation overflowed.
    pub(crate) fn maximise(
        &self,
        flow_idx: usize,
        smax: &SmaxTable,
    ) -> Result<Option<MaxPoint>, Overflowed> {
        match self.busy? {
            Some(busy) => self
                .bound_function(flow_idx, smax)
                .maximise_given_busy(busy)
                .map(Some),
            None => Ok(None),
        }
    }
}

/// One full-path crossing segment by its span of *owner-path indices*.
///
/// Within a segment the path indices are consecutive and monotone
/// (extension requires a step of exactly ±1 with a consistent sign), so
/// `[lo, hi]` determines the node set, and the segments of the prefix of
/// the first `k` nodes fall out by clipping: the piece is
/// `[lo, min(hi, k−1)]` when `lo < k` (else the segment misses the
/// prefix). Dropping nodes with index `≥ k` removes a run's head or tail
/// in the crosser's order, which also breaks index-consecutiveness
/// against any dropped node — pieces can shrink but never merge or
/// split. A piece keeps its direction unless reduced to a single node,
/// which the decomposition classifies as a degenerate same-direction
/// crossing.
#[derive(Debug, Clone, Copy)]
struct SegMeta {
    lo: usize,
    hi: usize,
    direction: CrossDirection,
}

/// Per-owner-path-node view of one crosser (see [`FullCrosser`]): the
/// former six parallel `by_idx` vectors fused into one record so a
/// crosser resolution is a single allocation — the per-pair allocation
/// count dominated dense-set cache builds.
#[derive(Clone, Copy)]
struct NodeView {
    /// Crosser's cost at this owner-path node (0 where it does not
    /// visit — the value `cost_at` reports there, which
    /// `ZeroConvention` needs).
    cost: Duration,
    /// Crosser's own successor of this shared node
    /// (`EdgeTraversing`'s criterion).
    suc: Option<NodeId>,
    /// Position of this shared node in the *crosser's* path (its `Smin`
    /// and `Smax` reads).
    jpos: Option<usize>,
    /// Direction of the full-path segment covering this node, if any.
    dir: Option<CrossDirection>,
    /// `lo` of the covering segment (valid where `dir` is `Some`).
    lo: usize,
    /// Max crosser cost over `[lo..=idx]` of the covering segment — the
    /// clipped piece's `C^{slow}` by one lookup.
    cum_cost: Duration,
}

impl NodeView {
    const EMPTY: NodeView = NodeView {
        cost: 0,
        suc: None,
        jpos: None,
        dir: None,
        lo: 0,
        cum_cost: 0,
    };
}

/// One universe flow crossing a flow's *full* path, resolved once per
/// flow pair into per-path-index arrays so the per-prefix clipping in
/// [`InterferenceCache::build_prefix`] never allocates or rescans a
/// path.
struct FullCrosser<'s> {
    j_idx: usize,
    flow: &'s SporadicFlow,
    /// Segment spans in the crosser's visiting order (the decomposition
    /// order, which the window order must follow).
    segs: Vec<SegMeta>,
    /// Owner-path indices of all shared nodes in the *crosser's*
    /// visiting order (`ZeroConvention`'s whole-path direction test).
    pis_crosser_order: Vec<usize>,
    /// One [`NodeView`] per owner-path index.
    by_idx: Vec<NodeView>,
}

/// Per-owner-flow quantities that are the same for every prefix length.
///
/// The key fact: for a hop or node index `idx ≤ k − 2`, the direction of
/// the prefix-`k` segment piece covering `idx` equals the full-path
/// segment's direction. Proof: the piece covering `idx` is
/// `[lo, min(hi, k−1)]`; it degenerates to a single node only when
/// `lo = min(hi, k−1)`, which with `lo ≤ idx ≤ k−2` forces `lo = hi` —
/// a segment that was already a degenerate same-direction crossing.
/// Hence the front minima `M` (which only look at hops strictly before
/// the prefix's last node) and the per-node same-direction maxima at all
/// but the last node can be computed once against the full path. The
/// last node and `ZeroConvention`'s whole-path direction test remain
/// prefix-specific and are handled per `k`.
struct Hoisted {
    /// `m_cum_full[idx]` = `M(prefix, nodes[idx])` for any prefix
    /// containing the hop, per `min_front_cost` of the configured
    /// convention (unused — empty sums — under `ZeroConvention`).
    m_cum_full: Vec<Duration>,
    /// Per-node same-direction cost maxima against the full path (valid
    /// at `idx` for every prefix with `k ≥ idx + 2`).
    node_max_full: Vec<Duration>,
    /// `sum_node_max[m]` = `Σ_{idx<m} node_max_full[idx]`.
    sum_node_max: Vec<Duration>,
    /// `lmax_cum[h]` = Σ `Lmax` over the first `h` hops.
    lmax_cum: Vec<Duration>,
    /// `Lmin` per hop.
    hop_lmin: Vec<Duration>,
    /// `slow_idx[k−1]` = index of the first cost maximum among the first
    /// `k` costs (the prefix's slow node).
    slow_idx: Vec<usize>,
    /// `max_cost[k−1]` = `Cᵢ^{slow}` of the length-`k` prefix.
    max_cost: Vec<Duration>,
}

/// All prefix skeletons of a flow set under one configuration and
/// universe: `skeletons[flow][k-1]` covers the prefix of the first `k`
/// nodes of that flow's path, `k ∈ 1..=path.len()`.
///
/// Rows are `Arc`-shared so the delta constructor
/// ([`InterferenceCache::delta_for`]) reuses a clean flow's row by
/// bumping a refcount instead of deep-cloning its skeleton vectors
/// (unless a removal renumbers it) — the warm-start admission path
/// touches O(closure) rows, not O(flows). Rows are never mutated after
/// construction, so sharing is safe.
#[derive(Debug, Clone)]
pub(crate) struct InterferenceCache {
    prefixes: Vec<Arc<Vec<PrefixSkeleton>>>,
    /// `Smin` per (flow, path position) — a pure function of the flow's
    /// own path and the network, kept so the delta constructor can
    /// reuse a clean flow's row instead of recomputing the whole table.
    smin: Vec<Arc<Vec<Duration>>>,
}

impl InterferenceCache {
    /// Builds every skeleton, in parallel across flows.
    pub(crate) fn build<D: DeltaProvider>(
        set: &FlowSet,
        cfg: &AnalysisConfig,
        universe: &[bool],
        delta: &D,
    ) -> Self {
        let smin = Self::smin_table(set, cfg);
        let node_index = set.node_flow_index();
        let prefixes: Vec<Arc<Vec<PrefixSkeleton>>> = (0..set.len())
            .into_par_iter()
            .map(|flow_idx| {
                Arc::new(Self::build_row(
                    set,
                    cfg,
                    universe,
                    delta,
                    &smin,
                    &node_index,
                    flow_idx,
                ))
            })
            .collect();
        InterferenceCache { prefixes, smin }
    }

    /// Every prefix skeleton of one flow, built fresh.
    #[allow(clippy::too_many_arguments)]
    fn build_row<D: DeltaProvider>(
        set: &FlowSet,
        cfg: &AnalysisConfig,
        universe: &[bool],
        delta: &D,
        smin: &[Arc<Vec<Duration>>],
        node_index: &HashMap<NodeId, Vec<usize>>,
        flow_idx: usize,
    ) -> Vec<PrefixSkeleton> {
        let fi = &set.flows()[flow_idx];
        let full = Self::resolve_crossers(set, fi, universe, node_index);
        let hoist = Self::hoist(set, cfg, fi, &full);
        // Each prefix's converged busy period seeds the next one's
        // Lemma-3 iteration (see `busy_period_of_pairs_seeded` for the
        // monotonicity argument); overloaded or overflowed prefixes
        // reset the chain.
        let mut prev_busy: Option<Duration> = None;
        (1..=fi.path.len())
            .map(|k| {
                let sk = Self::build_prefix(
                    set, cfg, delta, flow_idx, k, &full, smin, &hoist, prev_busy,
                );
                prev_busy = match sk.busy {
                    Ok(Some(b)) => Some(b),
                    _ => None,
                };
                sk
            })
            .collect()
    }

    /// The skeleton of `flow_idx`'s prefix of length `k`.
    pub(crate) fn prefix(&self, flow_idx: usize, k: usize) -> &PrefixSkeleton {
        &self.prefixes[flow_idx][k - 1]
    }

    /// Estimated per-round evaluation cost of the row: total skeleton
    /// windows across its iterated prefixes (positions `1..len`), plus
    /// one per cell for the self term and sweep overhead. The sharded
    /// solver schedules components largest-estimate-first so a dominant
    /// component no longer serialises the tail behind it.
    pub(crate) fn row_cost_estimate(&self, flow_idx: usize) -> usize {
        let row = &self.prefixes[flow_idx];
        row[..row.len() - 1]
            .iter()
            .map(|sk| sk.windows.len() + 1)
            .sum()
    }

    /// The cache of a changed set, built from `standing`'s. `moved[i]`
    /// is the index in `set` of standing flow `i` (`None` when it was
    /// removed); `rebuilt` flags, over `set`, the rows to build fresh.
    /// Every other row is carried over from `standing`.
    ///
    /// Sound when no carried flow's skeleton inputs changed: its own
    /// path, the paths and parameters of the flows crossing it and
    /// their universe membership. The delta closure guarantees it by
    /// flagging every flow that shares a node with a removed, replaced
    /// or appended path. A carried row's windows name their crossers by
    /// standing index; when no standing flow changed index (nothing
    /// removed, or only a tail) the row is shared as is, otherwise its
    /// windows are renumbered through `moved`. A window on a flow that
    /// did not survive cannot occur in a carried row; should one
    /// appear, the row is built fresh instead.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn delta_for<D: DeltaProvider>(
        standing: &InterferenceCache,
        set: &FlowSet,
        cfg: &AnalysisConfig,
        universe: &[bool],
        delta: &D,
        rebuilt: &[bool],
        moved: &[Option<usize>],
        node_index: &HashMap<NodeId, Vec<usize>>,
    ) -> Self {
        let mut old_of: Vec<Option<usize>> = vec![None; set.len()];
        for (old, new) in moved.iter().enumerate() {
            if let Some(slot) = new.and_then(|k| old_of.get_mut(k)) {
                *slot = Some(old);
            }
        }
        let renumber = moved
            .iter()
            .enumerate()
            .any(|(old, new)| new.is_some_and(|k| k != old));
        let carried = |flow_idx: usize| match old_of[flow_idx] {
            Some(old) if !rebuilt[flow_idx] => Some(old),
            _ => None,
        };
        let smin: Vec<Arc<Vec<Duration>>> = set
            .flows()
            .iter()
            .enumerate()
            .map(|(i, fj)| match carried(i) {
                Some(old) => Arc::clone(&standing.smin[old]),
                None => Arc::new(Self::smin_row(set, cfg, fj)),
            })
            .collect();
        let build = |flow_idx: usize| {
            if let Some(old) = carried(flow_idx) {
                let row = &standing.prefixes[old];
                if !renumber {
                    return Arc::clone(row);
                }
                if let Some(row) = Self::renumbered(row, moved) {
                    return Arc::new(row);
                }
            }
            Arc::new(Self::build_row(
                set, cfg, universe, delta, &smin, node_index, flow_idx,
            ))
        };
        let prefixes = Self::rows_for(set.len(), rebuilt, build);
        InterferenceCache { prefixes, smin }
    }

    /// A carried row with every window's crosser renumbered through
    /// `moved`; `None` when a window names a flow that did not survive.
    fn renumbered(row: &[PrefixSkeleton], moved: &[Option<usize>]) -> Option<Vec<PrefixSkeleton>> {
        row.iter()
            .map(|sk| {
                let mut sk = sk.clone();
                for w in &mut sk.windows {
                    w.j_idx = moved.get(w.j_idx).copied().flatten()?;
                }
                Some(sk)
            })
            .collect()
    }

    /// `Smin` per (flow, path position), shared by every window's
    /// alignment base instead of an O(hops) recomputation per window.
    fn smin_table(set: &FlowSet, cfg: &AnalysisConfig) -> Vec<Arc<Vec<Duration>>> {
        set.flows()
            .iter()
            .map(|fj| Arc::new(Self::smin_row(set, cfg, fj)))
            .collect()
    }

    fn smin_row(set: &FlowSet, cfg: &AnalysisConfig, fj: &SporadicFlow) -> Vec<Duration> {
        fj.path
            .nodes()
            .iter()
            .map(|&h| set.smin(fj, h, cfg.smin_mode).unwrap_or(0))
            .collect()
    }

    /// Maps `build` over all row indices — in parallel when enough rows
    /// are flagged fresh to pay for the dispatch, serially otherwise
    /// (the warm-start path rebuilds a handful of rows; the rest are
    /// refcount bumps or copies that need no thread pool).
    fn rows_for(
        n: usize,
        fresh: &[bool],
        build: impl Fn(usize) -> Arc<Vec<PrefixSkeleton>> + Sync,
    ) -> Vec<Arc<Vec<PrefixSkeleton>>> {
        if fresh.iter().filter(|&&f| f).count() <= SERIAL_REBUILD_MAX_ROWS {
            (0..n).map(build).collect()
        } else {
            (0..n).into_par_iter().map(build).collect()
        }
    }

    /// Resolves every universe flow crossing `fi`'s full path into a
    /// [`FullCrosser`] — one memo lookup and one positional pass per
    /// flow pair. The owner is included: it participates in the `M`
    /// minima and the same-direction maxima.
    ///
    /// Candidates come from the inverted node index instead of a scan of
    /// the whole set: only flows sharing a node with `fi`'s path can
    /// cross it, and the index yields exactly those. The candidate list
    /// is sorted ascending, so the crosser order (and hence the window
    /// order of every skeleton) is identical to the full scan's.
    fn resolve_crossers<'s>(
        set: &'s FlowSet,
        fi: &SporadicFlow,
        universe: &[bool],
        node_index: &HashMap<NodeId, Vec<usize>>,
    ) -> Vec<FullCrosser<'s>> {
        let path_len = fi.path.len();
        let mut candidates: Vec<usize> = fi
            .path
            .nodes()
            .iter()
            .filter_map(|n| node_index.get(n))
            .flatten()
            .copied()
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        candidates
            .into_iter()
            .map(|j_idx| (j_idx, &set.flows()[j_idx]))
            .filter(|(j_idx, _)| universe[*j_idx])
            .filter_map(|(j_idx, fj)| {
                let segments = set.crossing_segments_shared(fj, &fi.path);
                if segments.is_empty() {
                    return None;
                }
                let mut segs = Vec::with_capacity(segments.len());
                let mut pis_crosser_order = Vec::new();
                let mut by_idx = vec![NodeView::EMPTY; path_len];
                for s in segments.iter() {
                    let (mut lo, mut hi) = (usize::MAX, 0);
                    for &n in &s.nodes {
                        let (Some(pi), Some(jpos)) = (fi.path.index_of(n), fj.path.index_of(n))
                        else {
                            continue; // segment nodes lie on both paths
                        };
                        by_idx[pi].cost = fj.costs()[jpos];
                        by_idx[pi].suc = fj.path.nodes().get(jpos + 1).copied();
                        by_idx[pi].jpos = Some(jpos);
                        by_idx[pi].dir = Some(s.direction);
                        pis_crosser_order.push(pi);
                        lo = lo.min(pi);
                        hi = hi.max(pi);
                    }
                    let mut cum = 0;
                    for view in &mut by_idx[lo..=hi] {
                        cum = cum.max(view.cost);
                        view.cum_cost = cum;
                        view.lo = lo;
                    }
                    segs.push(SegMeta {
                        lo,
                        hi,
                        direction: s.direction,
                    });
                }
                Some(FullCrosser {
                    j_idx,
                    flow: fj,
                    segs,
                    pis_crosser_order,
                    by_idx,
                })
            })
            .collect()
    }

    /// Computes the prefix-independent per-flow arrays (see [`Hoisted`]).
    fn hoist(
        set: &FlowSet,
        cfg: &AnalysisConfig,
        fi: &SporadicFlow,
        full: &[FullCrosser<'_>],
    ) -> Hoisted {
        let len = fi.path.len();
        let nodes = fi.path.nodes();
        let net = set.network();

        let mut hop_lmin = Vec::with_capacity(len.saturating_sub(1));
        let mut lmax_cum = vec![0; len];
        for idx in 0..len - 1 {
            let d = net.link_delay(nodes[idx], nodes[idx + 1]);
            hop_lmin.push(d.lmin);
            lmax_cum[idx + 1] = lmax_cum[idx] + d.lmax;
        }

        // Front minima per hop, exactly as `min_front_cost`; the
        // direction at a hop index is prefix-independent (see
        // [`Hoisted`]), so one pass serves every prefix.
        let mut m_cum_full = vec![0; len];
        if cfg.min_convention != MinConvention::ZeroConvention {
            let edge = cfg.min_convention == MinConvention::EdgeTraversing;
            let mut acc = 0;
            for idx in 0..len - 1 {
                let next = nodes[idx + 1];
                let min_cost = full
                    .iter()
                    .filter(|fc| {
                        fc.by_idx[idx].dir == Some(CrossDirection::Same)
                            && (!edge || fc.by_idx[idx].suc == Some(next))
                    })
                    .map(|fc| fc.by_idx[idx].cost)
                    .min()
                    .unwrap_or(0);
                acc += min_cost + hop_lmin[idx];
                m_cum_full[idx + 1] = acc;
            }
        }

        let mut node_max_full = vec![0; len];
        for (idx, nm) in node_max_full.iter_mut().enumerate() {
            *nm = full
                .iter()
                .filter(|fc| fc.by_idx[idx].dir == Some(CrossDirection::Same))
                .map(|fc| fc.by_idx[idx].cost)
                .max()
                .unwrap_or(0);
        }
        let mut sum_node_max = vec![0; len];
        for m in 1..len {
            sum_node_max[m] = sum_node_max[m - 1] + node_max_full[m - 1];
        }

        let costs = fi.costs();
        let mut slow_idx = vec![0; len];
        let mut max_cost = vec![0; len];
        let mut best = 0;
        for (k1, &c) in costs.iter().enumerate() {
            if c > costs[best] {
                best = k1;
            }
            slow_idx[k1] = best;
            max_cost[k1] = costs[best];
        }

        Hoisted {
            m_cum_full,
            node_max_full,
            sum_node_max,
            lmax_cum,
            hop_lmin,
            slow_idx,
            max_cost,
        }
    }

    /// Mirrors `Analyzer::bound_function` with the `Smax` reads replaced
    /// by `(position, base)` records; any structural change there must be
    /// replicated here (guarded by `skeletons_match_direct_assembly`).
    ///
    /// Unlike the direct assembly — which calls `m_term_filtered` once
    /// per window anchor and `max_samedir_cost_filtered` once per node,
    /// each call rescanning every flow's segments — this build clips the
    /// precomputed [`FullCrosser`] spans against the prefix and reads
    /// the [`Hoisted`] arrays. Same arithmetic, O(segments) work and no
    /// allocation beyond the window vector itself.
    #[allow(clippy::too_many_arguments)]
    fn build_prefix<D: DeltaProvider>(
        set: &FlowSet,
        cfg: &AnalysisConfig,
        delta: &D,
        flow_idx: usize,
        k: usize,
        full: &[FullCrosser<'_>],
        smin: &[Arc<Vec<Duration>>],
        hoist: &Hoisted,
        busy_seed: Option<Duration>,
    ) -> PrefixSkeleton {
        let fi = &set.flows()[flow_idx];
        // `k` ranges over 1..=len by construction; the fallback is inert.
        let prefix = fi.path.prefix_len(k).unwrap_or_else(|| fi.path.clone());

        // `M` as a cumulative array over the prefix hops. Under
        // `ZeroConvention` the front minimum ranges over flows crossing
        // the *prefix* in the same whole-path direction — a per-`k`
        // criterion (the crosser-order-first and path-order-first kept
        // shared nodes must coincide) — so it is rebuilt here; the other
        // conventions read the hoisted array.
        let m_cum_local: Vec<Duration>;
        let m_cum: &[Duration] = if cfg.min_convention == MinConvention::ZeroConvention {
            let ws: Vec<&FullCrosser<'_>> = full
                .iter()
                .filter(|fc| {
                    let (mut first, mut entry) = (None, usize::MAX);
                    for &pi in &fc.pis_crosser_order {
                        if pi < k {
                            if first.is_none() {
                                first = Some(pi);
                            }
                            entry = entry.min(pi);
                        }
                    }
                    matches!(first, Some(f) if f == entry)
                })
                .collect();
            let mut v = vec![0; k];
            let mut acc = 0;
            for idx in 0..k - 1 {
                let min_cost = ws.iter().map(|fc| fc.by_idx[idx].cost).min().unwrap_or(0);
                acc += min_cost + hoist.hop_lmin[idx];
                v[idx + 1] = acc;
            }
            m_cum_local = v;
            &m_cum_local
        } else {
            &hoist.m_cum_full[..k]
        };

        // Interference windows, by clipping each full-path segment span
        // to the prefix. Anchor pairs per `segment_points`: one
        // (crosser-order-first, path-order-first) pair per piece, or one
        // pair per node — in crosser order, i.e. descending path index —
        // for reverse pieces under `PerCrossingNode`.
        let mut windows = Vec::new();
        for fc in full {
            if fc.j_idx == flow_idx {
                continue;
            }
            let fj = fc.flow;
            for sm in &fc.segs {
                if sm.lo >= k {
                    continue;
                }
                let piece_hi = sm.hi.min(k - 1);
                let pdir = if piece_hi == sm.lo {
                    CrossDirection::Same
                } else {
                    sm.direction
                };
                let cost = fc.by_idx[piece_hi].cum_cost;
                let mut push = |fji_idx: usize, fij_idx: usize| {
                    windows.push(WindowSkeleton {
                        flow: fj.id,
                        period: fj.period,
                        cost,
                        pos_i: fji_idx,
                        j_idx: fc.j_idx,
                        pos_j: fc.by_idx[fij_idx].jpos.unwrap_or(0),
                        base: fj.jitter
                            - smin[fc.j_idx][fc.by_idx[fji_idx].jpos.unwrap_or(0)]
                            - m_cum[fij_idx],
                    });
                };
                if pdir == CrossDirection::Reverse
                    && cfg.reverse_counting == ReverseCounting::PerCrossingNode
                {
                    for idx in (sm.lo..=piece_hi).rev() {
                        push(idx, idx);
                    }
                } else {
                    let fji_idx = if pdir == CrossDirection::Same {
                        sm.lo
                    } else {
                        piece_hi
                    };
                    push(fji_idx, sm.lo);
                }
            }
        }

        // Self term: (1 + ⌊(t + Jᵢ)/Tᵢ⌋) · Cᵢ^{slow}.
        let self_window = Window {
            flow: fi.id,
            a: fi.jitter,
            period: fi.period,
            cost: hoist.max_cost[k - 1],
        };

        // Constant part: δᵢ + Σ_{idx<k, idx≠slow} same-direction max +
        // Σ Lmax. All nodes but the last read the hoisted maxima; the
        // last node's piece may have degraded to a single-node
        // (same-direction) crossing, so its maximum is prefix-specific.
        let last = k - 1;
        let slow_idx = hoist.slow_idx[last];
        let mut constant =
            delta.delta(set, flow_idx, &prefix) + hoist.sum_node_max[last] + hoist.lmax_cum[last];
        if slow_idx < last {
            constant -= hoist.node_max_full[slow_idx];
        }
        if slow_idx != last {
            let mut last_max = 0;
            for fc in full {
                if let Some(d) = fc.by_idx[last].dir {
                    let single = fc.by_idx[last].lo == last;
                    if single || d == CrossDirection::Same {
                        last_max = last_max.max(fc.by_idx[last].cost);
                    }
                }
            }
            constant += last_max;
        }

        // The busy period ignores alignments, so it only sees the
        // windows' (period, cost) pairs; merge equal periods first.
        let mut pairs: Vec<(Duration, Duration)> = Vec::new();
        for (t, c) in windows
            .iter()
            .map(|w| (w.period, w.cost))
            .chain(std::iter::once((self_window.period, self_window.cost)))
        {
            match pairs.iter_mut().find(|(pt, _)| *pt == t) {
                Some((_, pc)) => *pc += c,
                None => pairs.push((t, c)),
            }
        }
        let busy =
            crate::terms::busy_period_of_pairs_seeded(&pairs, cfg.max_busy_period, busy_seed);

        PrefixSkeleton {
            windows,
            self_window,
            constant,
            t_lo: -fi.jitter,
            busy,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::wcrt::Analyzer;
    use traj_model::examples::paper_example;

    /// The cached skeletons must materialise to exactly the bound
    /// function the direct assembly produces, for every flow and every
    /// prefix length, in every configuration corner.
    #[test]
    fn skeletons_match_direct_assembly() {
        let set = paper_example();
        for cfg in crate::config_grid() {
            let an = Analyzer::new(&set, &cfg).unwrap();
            for (i, f) in set.flows().iter().enumerate() {
                for k in 1..=f.path.len() {
                    let prefix = f.path.prefix_len(k).unwrap();
                    let direct = an.bound_function(i, &prefix);
                    let cached = an.cached_bound_function(i, k);
                    assert_eq!(direct.windows, cached.windows, "flow {i} k {k}");
                    assert_eq!(direct.constant, cached.constant, "flow {i} k {k}");
                    assert_eq!(direct.t_lo, cached.t_lo, "flow {i} k {k}");
                    assert_eq!(
                        direct.busy_period(cfg.max_busy_period),
                        an.cache().prefix(i, k).busy,
                        "flow {i} k {k}"
                    );
                }
            }
        }
    }
}
