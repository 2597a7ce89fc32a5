//! A validated set of flows plus all the path relations of the paper.
//!
//! The trajectory analysis constantly asks questions such as "which node of
//! `Pᵢ` does `τⱼ` visit first?" (`first_{j,i}`), "is `τⱼ` crossing `Pᵢ` in
//! the same direction?" (the `first_{j,i} = first_{i,j}` criterion), "what
//! is `τⱼ`'s largest cost on `Pᵢ`?" (`C_j^{slow_{j,i}}`), and needs the
//! quantities `Sminⱼʰ` and `Mᵢʰ`. All of them are answered here, against an
//! arbitrary *reference path* so the same machinery serves full paths and
//! the prefixes used by the recursive `Smax` computation.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::flow::{FlowId, SporadicFlow};
use crate::network::{Network, NodeId};
use crate::path::Path;
use crate::time::Duration;

/// Direction in which a flow crosses a reference path (paper Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrossDirection {
    /// `first_{j,i} = first_{i,j}`: the crossing flow traverses the shared
    /// segment in the same direction as the path owner. A flow crossing at
    /// a single node is a degenerate same-direction crossing.
    Same,
    /// The crossing flow traverses the shared segment against the path
    /// owner's direction.
    Reverse,
}

/// A maximal contiguous crossing of a reference path by another flow.
///
/// Within a segment, consecutive shared nodes are adjacent in **both**
/// paths and walked in a consistent direction on the reference path. A
/// flow that leaves the path (via an off-path node or an off-path link)
/// and meets it again later crosses in **several** segments; the paper's
/// Assumption 1 handles that case by treating each re-entry "as a new
/// flow" — the analysis implements exactly that by accounting
/// interference per segment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrossingSegment {
    /// Shared nodes in the *crossing flow's* visiting order.
    pub nodes: Vec<NodeId>,
    /// Direction relative to the reference path (single-node segments are
    /// degenerate same-direction crossings).
    pub direction: CrossDirection,
}

impl CrossingSegment {
    /// The segment's first node in the crossing flow's order
    /// (`first_{j,i}` of the virtual flow).
    pub fn first_in_crosser_order(&self) -> NodeId {
        self.nodes[0]
    }

    /// The segment's entry node in the reference path's order
    /// (`first_{i,j}` of the virtual flow).
    pub fn entry_in_path_order(&self, path: &Path) -> NodeId {
        // Segment nodes lie on the path by construction; nodes off the
        // path (impossible) simply lose the min, and the first node is a
        // correct answer for the degenerate single-node segment.
        self.nodes
            .iter()
            .copied()
            .filter_map(|n| path.index_of(n).map(|i| (i, n)))
            .min_by_key(|&(i, _)| i)
            .map(|(_, n)| n)
            .unwrap_or(self.nodes[0])
    }

    /// Whether the segment contains `node`.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }
}

/// How the `min` inside `Mᵢʰ` selects candidate costs.
///
/// `Mᵢʰ = Σ_{h'=firstᵢ}^{preᵢ(h)} ( min_j C_j^{h'} + Lmin )` is a lower
/// bound on the arrival time, at node `h`, of the first packet of the busy
/// period that started on `firstᵢ` at time 0: the busy-period front must be
/// relayed hop by hop, paying at least one minimal packet processing plus
/// one minimal link delay per hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum MinConvention {
    /// Minimum over same-direction flows that actually visit `h'`
    /// (default; semantically justified: only a packet processed at `h'`
    /// can relay the front).
    #[default]
    Visiting,
    /// Literal reading of the paper with the `C_j^h = 0` convention: any
    /// same-direction flow that skips `h'` drives the minimum to zero.
    /// More pessimistic (smaller `M` ⇒ larger `A_{i,j}`), trivially sound.
    ZeroConvention,
    /// Minimum over same-direction flows that traverse the *link*
    /// `h' → suc(h')` of the reference path; tightest variant.
    EdgeTraversing,
}

/// What `Sminⱼʰ` accounts for on each upstream hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SminMode {
    /// `Σ (Cⱼ + Lmin)` per upstream hop: a packet must be fully processed
    /// on each node before being forwarded (default, the store-and-forward
    /// reading).
    #[default]
    ProcessingAndLink,
    /// `Σ Lmin` only: cut-through reading, more pessimistic
    /// (smaller `Smin` ⇒ larger interference window).
    LinkOnly,
}

/// Shared memo of crossing-segment decompositions.
///
/// The decomposition of a crossing depends *only* on the two path values
/// (crosser path, reference path) — not on costs, periods, or on which
/// other flows belong to the set — so entries stay valid across clones,
/// [`FlowSet::with_flows`] rebuilds, and the admission controller's
/// add/remove cycles, and the memo can be shared freely between them.
///
/// Cloning shares the underlying table; deserialisation starts empty
/// (the memo is a pure cache and is never serialised).
#[derive(Clone, Default)]
pub struct RelationCache {
    /// `crosser path -> reference path -> segments`. Nested maps let the
    /// hot path look entries up from two `&Path` borrows without
    /// materialising a tuple key.
    segments: Arc<RwLock<SegmentMemo>>,
}

/// Inner table of [`RelationCache`].
type SegmentMemo = HashMap<Path, HashMap<Path, Arc<Vec<CrossingSegment>>>>;

impl RelationCache {
    fn get(&self, crosser: &Path, reference: &Path) -> Option<Arc<Vec<CrossingSegment>>> {
        let map = self.segments.read().unwrap_or_else(|e| e.into_inner());
        map.get(crosser)
            .and_then(|inner| inner.get(reference))
            .cloned()
    }

    fn insert(&self, crosser: &Path, reference: &Path, segments: Arc<Vec<CrossingSegment>>) {
        let mut map = self.segments.write().unwrap_or_else(|e| e.into_inner());
        map.entry(crosser.clone())
            .or_default()
            .entry(reference.clone())
            .or_insert(segments);
    }

    /// Number of memoised (crosser, reference) pairs.
    pub fn len(&self) -> usize {
        let map = self.segments.read().unwrap_or_else(|e| e.into_inner());
        map.values().map(|inner| inner.len()).sum()
    }

    /// Whether the memo holds no entry yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for RelationCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelationCache")
            .field("entries", &self.len())
            .finish()
    }
}

/// A validated set of sporadic flows over a network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowSet {
    network: Network,
    flows: Vec<SporadicFlow>,
    /// Memo for [`Self::crossing_segments`]; shared across clones and
    /// derived sets, rebuilt lazily after deserialisation.
    #[serde(skip)]
    relations: RelationCache,
}

impl FlowSet {
    /// Validates and builds a flow set.
    pub fn new(network: Network, flows: Vec<SporadicFlow>) -> Result<Self, ModelError> {
        if flows.is_empty() {
            return Err(ModelError::EmptyFlowSet);
        }
        let mut ids = std::collections::HashSet::new();
        for f in &flows {
            if !ids.insert(f.id) {
                return Err(ModelError::DuplicateFlowId { id: f.id });
            }
            for &n in f.path.nodes() {
                if !network.contains(n) {
                    return Err(ModelError::UnknownNode {
                        flow: f.id,
                        node: n,
                    });
                }
            }
        }
        Ok(FlowSet {
            network,
            flows,
            relations: RelationCache::default(),
        })
    }

    /// Like [`Self::new`], but seeding the crossing-segment memo from an
    /// existing cache. Sound because the memo is keyed by path values
    /// only; use this to re-analyse variations of a set (added/removed
    /// flows) without recomputing the shared crossing structure.
    pub fn new_with_cache(
        network: Network,
        flows: Vec<SporadicFlow>,
        cache: RelationCache,
    ) -> Result<Self, ModelError> {
        let mut set = Self::new(network, flows)?;
        set.relations = cache;
        Ok(set)
    }

    /// The crossing-segment memo, for sharing with derived sets.
    pub fn relation_cache(&self) -> &RelationCache {
        &self.relations
    }

    /// A new set over the same network with `extra` appended, sharing
    /// this set's relation memo (admission "what-if" analysis).
    pub fn extended_with(&self, extra: SporadicFlow) -> Result<Self, ModelError> {
        self.with_delta(&[], &[], std::slice::from_ref(&extra))
            .map(|(set, _)| set)
    }

    /// A new set with the flows named in `remove` taken out, each flow
    /// of `replace` put in the place of the flow with its id, and
    /// `append` added at the end, sharing this set's relation memo.
    ///
    /// Only the replaced and appended flows are validated (the standing
    /// ones were when `self` was built): a removed or replaced id the set
    /// does not hold is [`ModelError::UnknownFlowId`], each appended flow
    /// in turn is checked for a duplicate id and then for nodes outside
    /// the network, and a change that leaves no flow is
    /// [`ModelError::EmptyFlowSet`]. Also returns
    /// where each standing flow went: entry `i` is the new index of
    /// flow `i`, `None` when it was removed.
    pub fn with_delta(
        &self,
        remove: &[FlowId],
        replace: &[SporadicFlow],
        append: &[SporadicFlow],
    ) -> Result<(Self, Vec<Option<usize>>), ModelError> {
        let unknown_node = |f: &SporadicFlow| {
            f.path
                .nodes()
                .iter()
                .find(|n| !self.network.contains(**n))
                .map(|&node| ModelError::UnknownNode { flow: f.id, node })
        };
        for &id in remove.iter().chain(replace.iter().map(|f| &f.id)) {
            if self.index_of(id).is_none() {
                return Err(ModelError::UnknownFlowId { id });
            }
        }
        if let Some(e) = replace.iter().find_map(unknown_node) {
            return Err(e);
        }
        let mut flows: Vec<SporadicFlow> = Vec::with_capacity(self.flows.len() + append.len());
        let mut moved = Vec::with_capacity(self.flows.len());
        for f in &self.flows {
            if remove.contains(&f.id) {
                moved.push(None);
                continue;
            }
            moved.push(Some(flows.len()));
            flows.push(replace.iter().find(|r| r.id == f.id).unwrap_or(f).clone());
        }
        for extra in append {
            if flows.iter().any(|f| f.id == extra.id) {
                return Err(ModelError::DuplicateFlowId { id: extra.id });
            }
            if let Some(e) = unknown_node(extra) {
                return Err(e);
            }
            flows.push(extra.clone());
        }
        if flows.is_empty() {
            return Err(ModelError::EmptyFlowSet);
        }
        let set = FlowSet {
            network: self.network.clone(),
            flows,
            relations: self.relations.clone(),
        };
        Ok((set, moved))
    }

    /// A new set with flow `id` removed, sharing this set's relation
    /// memo. Errors when removing `id` would empty the set.
    pub fn without_flow(&self, id: FlowId) -> Result<Self, ModelError> {
        let flows: Vec<SporadicFlow> = self.flows.iter().filter(|f| f.id != id).cloned().collect();
        if flows.is_empty() {
            return Err(ModelError::EmptyFlowSet);
        }
        // A subset of a validated set needs no re-validation.
        Ok(FlowSet {
            network: self.network.clone(),
            flows,
            relations: self.relations.clone(),
        })
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// All flows, in insertion order.
    pub fn flows(&self) -> &[SporadicFlow] {
        &self.flows
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Flow sets are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Looks a flow up by id.
    pub fn flow(&self, id: FlowId) -> Option<&SporadicFlow> {
        self.flows.iter().find(|f| f.id == id)
    }

    /// Index of a flow in [`Self::flows`].
    pub fn index_of(&self, id: FlowId) -> Option<usize> {
        self.flows.iter().position(|f| f.id == id)
    }

    /// Flows of the EF class.
    pub fn ef_flows(&self) -> impl Iterator<Item = &SporadicFlow> {
        self.flows.iter().filter(|f| f.class.is_ef())
    }

    /// Flows outside the EF class.
    pub fn non_ef_flows(&self) -> impl Iterator<Item = &SporadicFlow> {
        self.flows.iter().filter(|f| !f.class.is_ef())
    }

    /// Inverted index `node -> flows visiting it` (indices into
    /// [`Self::flows`], ascending). One linear pass over all paths; lets
    /// crossing queries visit only candidates sharing a node instead of
    /// scanning the whole set (classes are deliberately *not* filtered —
    /// callers prune, exactly like the `crosses` scans this replaces).
    pub fn node_flow_index(&self) -> HashMap<NodeId, Vec<usize>> {
        let mut index: HashMap<NodeId, Vec<usize>> = HashMap::new();
        for (i, f) in self.flows.iter().enumerate() {
            for &n in f.path.nodes() {
                index.entry(n).or_default().push(i);
            }
        }
        // Each flow's path is loop-free, so every per-node list is already
        // strictly ascending and duplicate-free.
        index
    }

    // ------------------------------------------------------------------
    // Path relations (paper §2.2, Figure 1)
    // ------------------------------------------------------------------

    /// Whether `τⱼ` crosses the reference path (`P_j ∩ path ≠ ∅`).
    pub fn crosses(&self, j: &SporadicFlow, path: &Path) -> bool {
        j.path.nodes().iter().any(|n| path.visits(*n))
    }

    /// `first_{j,path}`: first node of `path` visited by `τⱼ`, in `τⱼ`'s
    /// own visiting order.
    pub fn first_on(&self, j: &SporadicFlow, path: &Path) -> Option<NodeId> {
        j.path.nodes().iter().copied().find(|n| path.visits(*n))
    }

    /// `last_{j,path}`: last node of `path` visited by `τⱼ`, in `τⱼ`'s own
    /// visiting order.
    pub fn last_on(&self, j: &SporadicFlow, path: &Path) -> Option<NodeId> {
        j.path
            .nodes()
            .iter()
            .rev()
            .copied()
            .find(|n| path.visits(*n))
    }

    /// The node of `path` (in *path order*) where the crossing with `τⱼ`
    /// begins: `first_{owner,j}` when the owner follows `path`.
    pub fn entry_on_path(&self, j: &SporadicFlow, path: &Path) -> Option<NodeId> {
        path.nodes().iter().copied().find(|n| j.path.visits(*n))
    }

    /// Crossing direction of `τⱼ` over the reference path, `None` when the
    /// paths are disjoint. Implements the `first_{j,i} = first_{i,j}`
    /// criterion of the paper.
    pub fn direction(&self, j: &SporadicFlow, path: &Path) -> Option<CrossDirection> {
        let fji = self.first_on(j, path)?;
        let fij = self.entry_on_path(j, path)?;
        Some(if fji == fij {
            CrossDirection::Same
        } else {
            CrossDirection::Reverse
        })
    }

    /// Whether `τⱼ` satisfies the same-direction criterion over `path`.
    pub fn same_direction(&self, j: &SporadicFlow, path: &Path) -> bool {
        self.direction(j, path) == Some(CrossDirection::Same)
    }

    /// Shared nodes between `τⱼ` and the path, in `τⱼ`'s visiting order.
    pub fn shared_nodes(&self, j: &SporadicFlow, path: &Path) -> Vec<NodeId> {
        j.path.shared_with(path)
    }

    /// Decomposes `τⱼ`'s crossing of the reference path into maximal
    /// contiguous [`CrossingSegment`]s (empty when the paths are
    /// disjoint). A compliant (Assumption 1) crossing yields exactly one
    /// segment; leave-and-rejoin routes yield several.
    ///
    /// Memoised per (crosser path, reference path); see
    /// [`Self::crossing_segments_shared`] for the allocation-free variant.
    pub fn crossing_segments(&self, j: &SporadicFlow, path: &Path) -> Vec<CrossingSegment> {
        (*self.crossing_segments_shared(j, path)).clone()
    }

    /// Memoised crossing-segment decomposition, returned as a shared
    /// handle so hot loops avoid re-cloning the segment vector.
    pub fn crossing_segments_shared(
        &self,
        j: &SporadicFlow,
        path: &Path,
    ) -> Arc<Vec<CrossingSegment>> {
        if let Some(hit) = self.relations.get(&j.path, path) {
            return hit;
        }
        let computed = Arc::new(self.crossing_segments_uncached(j, path));
        self.relations.insert(&j.path, path, Arc::clone(&computed));
        computed
    }

    /// The direct (memo-bypassing) decomposition. Kept public as the
    /// reference implementation for differential tests and benchmarks.
    pub fn crossing_segments_uncached(
        &self,
        j: &SporadicFlow,
        path: &Path,
    ) -> Vec<CrossingSegment> {
        // (index in j's path, index in reference path) of shared nodes.
        let shared: Vec<(usize, usize)> = j
            .path
            .nodes()
            .iter()
            .enumerate()
            .filter_map(|(ci, n)| path.index_of(*n).map(|pi| (ci, pi)))
            .collect();
        let mut segments = Vec::new();
        let mut cur: Vec<(usize, usize)> = Vec::new();
        let mut dir: i64 = 0; // 0 unknown, +1 ascending, -1 descending
        for &(ci, pi) in &shared {
            let extend = match cur.last() {
                None => true,
                Some(&(pci, ppi)) => {
                    let step = pi as i64 - ppi as i64;
                    ci == pci + 1 && step.abs() == 1 && (dir == 0 || step == dir)
                }
            };
            if extend {
                if let Some(&(_, ppi)) = cur.last() {
                    dir = pi as i64 - ppi as i64;
                }
                cur.push((ci, pi));
            } else {
                segments.push(Self::finish_segment(j, &cur, dir));
                cur = vec![(ci, pi)];
                dir = 0;
            }
        }
        if !cur.is_empty() {
            segments.push(Self::finish_segment(j, &cur, dir));
        }
        segments
    }

    fn finish_segment(j: &SporadicFlow, items: &[(usize, usize)], dir: i64) -> CrossingSegment {
        CrossingSegment {
            nodes: items.iter().map(|&(ci, _)| j.path.nodes()[ci]).collect(),
            direction: if dir < 0 {
                CrossDirection::Reverse
            } else {
                CrossDirection::Same
            },
        }
    }

    /// Direction of the crossing segment of `τⱼ` containing `node`, if
    /// any. This is the segment-aware refinement of [`Self::direction`]:
    /// the two agree on Assumption-1-compliant crossings.
    pub fn segment_direction_at(
        &self,
        j: &SporadicFlow,
        path: &Path,
        node: NodeId,
    ) -> Option<CrossDirection> {
        self.crossing_segments_shared(j, path)
            .iter()
            .find(|s| s.contains(node))
            .map(|s| s.direction)
    }

    /// Memo-bypassing variant of [`Self::segment_direction_at`], matching
    /// the pre-cache cost profile (reference implementation).
    pub fn segment_direction_at_uncached(
        &self,
        j: &SporadicFlow,
        path: &Path,
        node: NodeId,
    ) -> Option<CrossDirection> {
        self.crossing_segments_uncached(j, path)
            .into_iter()
            .find(|s| s.contains(node))
            .map(|s| s.direction)
    }

    /// `C_j^{slow_{j,path}}`: largest processing time of `τⱼ` on the nodes
    /// it shares with the path (0 when disjoint).
    pub fn slow_cost_on(&self, j: &SporadicFlow, path: &Path) -> Duration {
        j.path
            .nodes()
            .iter()
            .filter(|n| path.visits(**n))
            .map(|n| j.cost_at(*n))
            .max()
            .unwrap_or(0)
    }

    /// `max_{j same-direction} C_j^h` over flows visiting `h`: the cost of
    /// the extra packet counted once per non-slow node in `W`. The path
    /// owner always participates, so the max is positive whenever the owner
    /// visits `h`.
    pub fn max_samedir_cost(&self, path: &Path, node: NodeId) -> Duration {
        self.max_samedir_cost_filtered(path, node, |_| true)
    }

    /// Like [`Self::max_samedir_cost`], restricted to a flow subset
    /// selected by `keep` (used by the EF analysis which partitions flows).
    pub fn max_samedir_cost_filtered(
        &self,
        path: &Path,
        node: NodeId,
        keep: impl Fn(&SporadicFlow) -> bool,
    ) -> Duration {
        self.flows
            .iter()
            .filter(|j| {
                keep(j) && self.segment_direction_at(j, path, node) == Some(CrossDirection::Same)
            })
            .map(|j| j.cost_at(node))
            .max()
            .unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Smin and M
    // ------------------------------------------------------------------

    /// `Sminⱼʰ`: minimum time for a packet of `τⱼ` to go from its source
    /// node to (arrival at) node `h ∈ Pⱼ`.
    pub fn smin(&self, j: &SporadicFlow, node: NodeId, mode: SminMode) -> Option<Duration> {
        let idx = j.path.index_of(node)?;
        let mut s = 0;
        for k in 0..idx {
            let here = j.path.nodes()[k];
            let next = j.path.nodes()[k + 1];
            if mode == SminMode::ProcessingAndLink {
                s += j.cost_at_index(k);
            }
            s += self.network.link_delay(here, next).lmin;
        }
        Some(s)
    }

    /// Transit-only upper bound on the traversal time to `h ∈ Pⱼ`
    /// (`Σ (Cⱼ + Lmax)` upstream). This is *not* a sound `Smax` in loaded
    /// networks (it ignores queueing); the analysis crate computes the
    /// sound recursive variant. Exposed for seeding and for the
    /// `TransitOnly` ablation mode.
    ///
    /// `None` when the flow does not visit `node` **or** the sum
    /// overflows i64 — a wrapped (or zero-substituted) seed would be an
    /// *optimistic* under-approximation, capable of declaring an
    /// unschedulable set schedulable, so callers must treat `None` on a
    /// visited node as an overflow verdict, never as 0.
    pub fn transit_smax(&self, j: &SporadicFlow, node: NodeId) -> Option<Duration> {
        let idx = j.path.index_of(node)?;
        let mut s: Duration = 0;
        for k in 0..idx {
            let here = j.path.nodes()[k];
            let next = j.path.nodes()[k + 1];
            s = s
                .checked_add(j.cost_at_index(k))?
                .checked_add(self.network.link_delay(here, next).lmax)?;
        }
        Some(s)
    }

    /// `Mᵢʰ` along the reference path: minimum propagation time of a
    /// busy-period front from the path's first node up to (arrival at)
    /// `h ∈ path`.
    pub fn m_term(&self, path: &Path, node: NodeId, convention: MinConvention) -> Option<Duration> {
        self.m_term_filtered(path, node, convention, |_| true)
    }

    /// [`Self::m_term`] restricted to a flow subset selected by `keep`
    /// (the EF analysis only lets EF packets relay EF busy-period fronts).
    pub fn m_term_filtered(
        &self,
        path: &Path,
        node: NodeId,
        convention: MinConvention,
        keep: impl Fn(&SporadicFlow) -> bool + Copy,
    ) -> Option<Duration> {
        let idx = path.index_of(node)?;
        let mut s = 0;
        for k in 0..idx {
            let here = path.nodes()[k];
            let next = path.nodes()[k + 1];
            let min_cost = self.min_front_cost(path, here, next, convention, keep);
            s += min_cost + self.network.link_delay(here, next).lmin;
        }
        Some(s)
    }

    fn min_front_cost(
        &self,
        path: &Path,
        here: NodeId,
        next: NodeId,
        convention: MinConvention,
        keep: impl Fn(&SporadicFlow) -> bool + Copy,
    ) -> Duration {
        let samedir_here = |j: &&SporadicFlow| {
            self.segment_direction_at(j, path, here) == Some(CrossDirection::Same)
        };
        match convention {
            MinConvention::Visiting => self
                .flows
                .iter()
                .filter(|j| keep(j) && samedir_here(j))
                .map(|j| j.cost_at(here))
                .min()
                .unwrap_or(0),
            MinConvention::ZeroConvention => self
                .flows
                .iter()
                .filter(|j| keep(j) && self.crosses(j, path) && self.same_direction(j, path))
                .map(|j| j.cost_at(here))
                .min()
                .unwrap_or(0),
            MinConvention::EdgeTraversing => self
                .flows
                .iter()
                .filter(|j| keep(j) && samedir_here(j) && j.path.suc(here) == Some(next))
                .map(|j| j.cost_at(here))
                .min()
                .unwrap_or(0),
        }
    }

    // ------------------------------------------------------------------
    // Load metrics
    // ------------------------------------------------------------------

    /// Total utilisation at a node: `Σᵢ Cᵢʰ / Tᵢ`.
    pub fn utilisation_at(&self, node: NodeId) -> f64 {
        self.flows.iter().map(|f| f.utilisation_at(node)).sum()
    }

    /// The most loaded node's utilisation; `>= 1.0` means the analysis
    /// busy periods may diverge.
    pub fn max_utilisation(&self) -> f64 {
        self.network
            .nodes()
            .iter()
            .map(|&n| self.utilisation_at(n))
            .fold(0.0, f64::max)
    }

    /// Replaces the flow list (used by Assumption 1 splitting), keeping
    /// the relation memo: segment decompositions depend on path values
    /// only, so they remain valid for any flow list over this network.
    pub(crate) fn with_flows(&self, flows: Vec<SporadicFlow>) -> Result<Self, ModelError> {
        FlowSet::new_with_cache(self.network.clone(), flows, self.relations.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::paper_example;

    fn set() -> FlowSet {
        paper_example()
    }

    fn flow(s: &FlowSet, id: u32) -> &SporadicFlow {
        s.flow(FlowId(id)).unwrap()
    }

    #[test]
    fn crossing_and_direction_on_paper_example() {
        let s = set();
        let p1 = &flow(&s, 1).path.clone();
        let p2 = &flow(&s, 2).path.clone();
        let p3 = &flow(&s, 3).path.clone();

        // tau_2 and tau_1 are disjoint
        assert!(!s.crosses(flow(&s, 2), p1));
        assert_eq!(s.direction(flow(&s, 2), p1), None);

        // tau_3 crosses P1 at nodes {3,4} in the same direction
        assert!(s.crosses(flow(&s, 3), p1));
        assert_eq!(s.first_on(flow(&s, 3), p1), Some(NodeId(3)));
        assert_eq!(s.last_on(flow(&s, 3), p1), Some(NodeId(4)));
        assert_eq!(s.direction(flow(&s, 3), p1), Some(CrossDirection::Same));

        // tau_3 crosses P2 = [9,10,7,6] in reverse: it visits 7 before 10
        assert_eq!(s.first_on(flow(&s, 3), p2), Some(NodeId(7)));
        assert_eq!(s.entry_on_path(flow(&s, 3), p2), Some(NodeId(10)));
        assert_eq!(s.direction(flow(&s, 3), p2), Some(CrossDirection::Reverse));

        // and symmetrically tau_2 crosses P3 in reverse
        assert_eq!(s.direction(flow(&s, 2), p3), Some(CrossDirection::Reverse));

        // tau_5 shares the single node 7 with P2: degenerate same direction
        assert_eq!(s.direction(flow(&s, 5), p2), Some(CrossDirection::Same));

        // a flow is same-direction with its own path
        assert_eq!(s.direction(flow(&s, 1), p1), Some(CrossDirection::Same));
    }

    #[test]
    fn slow_cost_is_restricted_to_shared_nodes() {
        let s = set();
        let p1 = flow(&s, 1).path.clone();
        assert_eq!(s.slow_cost_on(flow(&s, 3), &p1), 4);
        assert_eq!(s.slow_cost_on(flow(&s, 2), &p1), 0);
    }

    #[test]
    fn smin_accumulates_processing_and_links() {
        let s = set();
        let f3 = flow(&s, 3);
        // nodes 2,3,4 before 7: 3 * (4 + 1)
        assert_eq!(s.smin(f3, NodeId(7), SminMode::ProcessingAndLink), Some(15));
        assert_eq!(s.smin(f3, NodeId(7), SminMode::LinkOnly), Some(3));
        assert_eq!(s.smin(f3, NodeId(2), SminMode::ProcessingAndLink), Some(0));
        assert_eq!(s.smin(f3, NodeId(1), SminMode::ProcessingAndLink), None);
    }

    #[test]
    fn transit_smax_overflow_reports_none_instead_of_wrapping() {
        use crate::examples::line_topology;
        // Two upstream hops of ~ i64::MAX/2 each: the running sum leaves
        // i64 at the third node and must surface as None (the analysis
        // maps it to a typed overflow verdict), never as a wrapped value.
        let s = line_topology(1, 3, i64::MAX / 2, i64::MAX / 2, 1, 1).unwrap();
        let f = &s.flows()[0];
        assert_eq!(s.transit_smax(f, NodeId(1)), Some(0));
        assert_eq!(s.transit_smax(f, NodeId(3)), None);
    }

    #[test]
    fn transit_smax_uses_lmax() {
        let s = set();
        let f3 = flow(&s, 3);
        assert_eq!(s.transit_smax(f3, NodeId(10)), Some(20));
        assert_eq!(s.transit_smax(f3, NodeId(2)), Some(0));
    }

    #[test]
    fn m_term_conventions_differ_as_documented() {
        let s = set();
        let p2 = flow(&s, 2).path.clone();
        // Visiting: on nodes 9 and 10, the only same-direction flows
        // visiting them is tau_2 itself (tau_5's crossing is degenerate at
        // node 7, tau_3/tau_4 are reverse): min C = 4, so M = 2*(4+1).
        assert_eq!(s.m_term(&p2, NodeId(7), MinConvention::Visiting), Some(10));
        // ZeroConvention: tau_5 is same-direction but does not visit 9/10,
        // its conventional cost 0 drives the min down: M = 2*(0+1).
        assert_eq!(
            s.m_term(&p2, NodeId(7), MinConvention::ZeroConvention),
            Some(2)
        );
        // EdgeTraversing: only tau_2 traverses links 9->10 and 10->7.
        assert_eq!(
            s.m_term(&p2, NodeId(7), MinConvention::EdgeTraversing),
            Some(10)
        );
        assert_eq!(s.m_term(&p2, NodeId(9), MinConvention::Visiting), Some(0));
    }

    #[test]
    fn crossing_segments_on_compliant_flows() {
        let s = set();
        let p1 = flow(&s, 1).path.clone();
        // tau_3 crosses P1 contiguously at [3,4]: one same-direction
        // segment.
        let segs = s.crossing_segments(flow(&s, 3), &p1);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].nodes, vec![NodeId(3), NodeId(4)]);
        assert_eq!(segs[0].direction, CrossDirection::Same);
        assert_eq!(segs[0].first_in_crosser_order(), NodeId(3));
        assert_eq!(segs[0].entry_in_path_order(&p1), NodeId(3));
        // tau_3 over P2 = [9,10,7,6]: one reverse segment [7,10].
        let p2 = flow(&s, 2).path.clone();
        let segs = s.crossing_segments(flow(&s, 3), &p2);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].direction, CrossDirection::Reverse);
        assert_eq!(segs[0].first_in_crosser_order(), NodeId(7));
        assert_eq!(segs[0].entry_in_path_order(&p2), NodeId(10));
        // disjoint flows have no segment
        assert!(s.crossing_segments(flow(&s, 2), &p1).is_empty());
    }

    #[test]
    fn crossing_segments_split_on_leave_and_rejoin() {
        // The soundness-regression topology: tau_b = [3,8,2] leaves
        // tau_a's path [3,2,7,6] after node 3 and re-enters at node 2.
        let net = Network::uniform(8, 1, 1).unwrap();
        let a =
            SporadicFlow::uniform(1, Path::from_ids([3, 2, 7, 6]).unwrap(), 92, 6, 0, 500).unwrap();
        let b =
            SporadicFlow::uniform(2, Path::from_ids([3, 8, 2]).unwrap(), 54, 8, 0, 500).unwrap();
        let s = FlowSet::new(net, vec![a, b]).unwrap();
        let pa = s.flows()[0].path.clone();
        let segs = s.crossing_segments(&s.flows()[1], &pa);
        assert_eq!(segs.len(), 2, "leave-and-rejoin must split");
        assert_eq!(segs[0].nodes, vec![NodeId(3)]);
        assert_eq!(segs[1].nodes, vec![NodeId(2)]);
        // Both single-node segments are degenerate same-direction.
        assert!(segs.iter().all(|x| x.direction == CrossDirection::Same));
        assert_eq!(
            s.segment_direction_at(&s.flows()[1], &pa, NodeId(2)),
            Some(CrossDirection::Same)
        );
        assert_eq!(s.segment_direction_at(&s.flows()[1], &pa, NodeId(7)), None);
    }

    #[test]
    fn crossing_segments_split_on_skipped_node() {
        // Crosser hops 1 -> 3 directly while the path goes 1 -> 2 -> 3:
        // adjacent in the crosser's path but not on the reference path.
        let net = Network::uniform(8, 1, 1).unwrap();
        let a =
            SporadicFlow::uniform(1, Path::from_ids([1, 2, 3]).unwrap(), 50, 2, 0, 500).unwrap();
        let b =
            SporadicFlow::uniform(2, Path::from_ids([1, 3, 8]).unwrap(), 50, 2, 0, 500).unwrap();
        let s = FlowSet::new(net, vec![a, b]).unwrap();
        let pa = s.flows()[0].path.clone();
        let segs = s.crossing_segments(&s.flows()[1], &pa);
        assert_eq!(segs.len(), 2);
    }

    #[test]
    fn max_samedir_cost_excludes_reverse_flows() {
        let s = set();
        let p2 = flow(&s, 2).path.clone();
        // At node 10, tau_3/tau_4 cross P2 in reverse; only tau_2 counts.
        assert_eq!(s.max_samedir_cost(&p2, NodeId(10)), 4);
        // At node 7, tau_5's degenerate crossing counts.
        assert_eq!(s.max_samedir_cost(&p2, NodeId(7)), 4);
        // Filtered variant can exclude the owner's class entirely.
        assert_eq!(
            s.max_samedir_cost_filtered(&p2, NodeId(7), |f| f.id.0 > 90),
            0
        );
    }

    #[test]
    fn utilisation_metrics() {
        let s = set();
        // node 3 carries tau_1, tau_3, tau_4, tau_5: 4 * 4/36
        let u = s.utilisation_at(NodeId(3));
        assert!((u - 4.0 * 4.0 / 36.0).abs() < 1e-12);
        assert!(s.max_utilisation() < 1.0);
    }

    #[test]
    fn memoised_segments_match_uncached() {
        let s = set();
        for i in s.flows() {
            for j in s.flows() {
                assert_eq!(
                    s.crossing_segments(j, &i.path),
                    s.crossing_segments_uncached(j, &i.path),
                );
                for &n in i.path.nodes() {
                    assert_eq!(
                        s.segment_direction_at(j, &i.path, n),
                        s.segment_direction_at_uncached(j, &i.path, n),
                    );
                }
            }
        }
        assert!(!s.relation_cache().is_empty());
    }

    #[test]
    fn relation_cache_is_shared_with_derived_sets() {
        let s = set();
        // Warm the memo on the base set.
        for i in s.flows() {
            for j in s.flows() {
                s.crossing_segments_shared(j, &i.path);
            }
        }
        let warm = s.relation_cache().len();
        assert!(warm > 0);

        let extra = SporadicFlow::uniform(99, Path::from_ids([1, 2, 3, 4]).unwrap(), 50, 2, 0, 500)
            .unwrap();
        let bigger = s.extended_with(extra).unwrap();
        assert_eq!(bigger.len(), s.len() + 1);
        // The derived set sees the warm entries and adds its own to the
        // same shared table.
        assert_eq!(bigger.relation_cache().len(), warm);
        let p1 = bigger.flow(FlowId(1)).unwrap().path.clone();
        let f99 = bigger.flow(FlowId(99)).unwrap().clone();
        bigger.crossing_segments_shared(&f99, &p1);
        assert!(bigger.relation_cache().len() > warm);
        assert_eq!(s.relation_cache().len(), bigger.relation_cache().len());

        let smaller = bigger.without_flow(FlowId(99)).unwrap();
        assert_eq!(smaller.len(), s.len());
        assert_eq!(smaller.relation_cache().len(), s.relation_cache().len());
        assert!(bigger.without_flow(FlowId(42)).is_ok());
    }

    #[test]
    fn validation_rejects_bad_sets() {
        let net = Network::uniform(3, 1, 1).unwrap();
        let f = SporadicFlow::uniform(1, Path::from_ids([1, 9]).unwrap(), 10, 1, 0, 20).unwrap();
        assert!(matches!(
            FlowSet::new(net.clone(), vec![f]).unwrap_err(),
            ModelError::UnknownNode { .. }
        ));
        let f1 = SporadicFlow::uniform(1, Path::from_ids([1, 2]).unwrap(), 10, 1, 0, 20).unwrap();
        let f2 = SporadicFlow::uniform(1, Path::from_ids([2, 3]).unwrap(), 10, 1, 0, 20).unwrap();
        assert!(matches!(
            FlowSet::new(net.clone(), vec![f1, f2]).unwrap_err(),
            ModelError::DuplicateFlowId { .. }
        ));
        assert!(matches!(
            FlowSet::new(net, vec![]).unwrap_err(),
            ModelError::EmptyFlowSet
        ));
    }

    #[test]
    fn with_delta_keeps_order_and_maps_standing_indices() {
        let s = set();
        let ids = |s: &FlowSet| s.flows().iter().map(|f| f.id.0).collect::<Vec<_>>();
        let moved_flow =
            SporadicFlow::uniform(3, Path::from_ids([1, 3, 4]).unwrap(), 50, 2, 0, 500).unwrap();
        let extra =
            SporadicFlow::uniform(99, Path::from_ids([1, 2]).unwrap(), 50, 2, 0, 500).unwrap();
        let (next, moved) = s
            .with_delta(
                &[FlowId(2)],
                std::slice::from_ref(&moved_flow),
                std::slice::from_ref(&extra),
            )
            .unwrap();
        assert_eq!(ids(&next), vec![1, 3, 4, 5, 99]);
        assert_eq!(moved, vec![Some(0), None, Some(1), Some(2), Some(3)]);
        assert_eq!(next.flow(FlowId(3)).unwrap().path, moved_flow.path);
        assert_eq!(
            s.with_delta(&[FlowId(42)], &[], &[]).unwrap_err(),
            ModelError::UnknownFlowId { id: FlowId(42) }
        );
        assert_eq!(
            s.with_delta(&[], &[], std::slice::from_ref(&s.flows()[0]))
                .unwrap_err(),
            ModelError::DuplicateFlowId { id: FlowId(1) }
        );
        let all: Vec<FlowId> = s.flows().iter().map(|f| f.id).collect();
        assert_eq!(
            s.with_delta(&all, &[], &[]).unwrap_err(),
            ModelError::EmptyFlowSet
        );
    }
}
