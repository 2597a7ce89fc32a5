//! The `Smax` fixed point: component-sharded, over a struct-of-arrays
//! arena. This is the one production engine; [`crate::reference`] is
//! its independent test oracle.
//!
//! # Why sharding is exact
//!
//! Crossing is the only coupling between rows of the fixed point: every
//! window of a flow's skeleton reads `Smax` of the flow itself (`pos_i`)
//! and of one flow crossing its path (`j_idx`/`pos_j`) — nothing else.
//! Over the connected components of the crossing graph the equation
//! system is therefore block-diagonal, and iterating the whole universe
//! is *exactly* iterating each component side by side: a global round
//! restricted to a component's rows reads only that component's cells,
//! so a per-component round with the same schedule (Jacobi's
//! frozen-table apply-after-round, Gauss–Seidel's in-place ascending
//! sweep) produces the same values in the same round. Each component
//! converges to its block of the unique least fixed point
//! independently, and converged components stop doing any work while
//! others keep iterating.
//!
//! [`partition`] unions over the *full-prefix* (`k = len`) skeletons:
//! prefix windows arise by clipping full-path crossing segments, so the
//! full prefix's crosser set contains every shorter prefix's — the edge
//! set is a superset of all dependencies any cell can read.
//!
//! # The arena
//!
//! [`ComponentArena`] flattens a component into contiguous arrays —
//! values, windows with *precomputed flat read indices*, per-cell
//! metadata — plus a CSR **reverse adjacency** (value index → cells
//! reading it) built once at arena time, so a cell evaluation allocates
//! nothing and reads no per-flow `Vec`. [`solve`] carries a dirty-cell
//! worklist across Jacobi rounds: applying a changed value pushes
//! exactly its dependent cells for the next round, so a steady-state
//! round costs O(dirty work), not O(cells) scan + O(windows) dirty
//! probes. Evaluation scratch lives in a per-worker thread-local pool
//! reused across cells, rounds, and shards, so a round allocates
//! nothing. Arithmetic, window order, coalescing semantics
//! (first-occurrence merge by `(a, period)`), and the checked-overflow
//! error labels are replicated from [`crate::terms`] verbatim; the
//! differential suites assert bit-identity against the reference
//! oracle.
//!
//! # Run plan
//!
//! [`RunPlan::pick`] fixes two choices per run, from the set size,
//! whether the run is cold, and the pool width — never from the
//! configuration:
//!
//! * the round schedule ([`RunShape`]): Gauss–Seidel on small sets and
//!   on cold runs over a one-thread pool, Jacobi otherwise;
//! * the fan-out: a Jacobi round whose worklist holds at least
//!   [`INTRA_PARALLEL_MIN_CELLS`] cells spreads its evaluations across
//!   the pool (when the pool has more than one thread). Its evaluations
//!   all read the frozen previous table, so the parallel round writes
//!   results into a buffer indexed by worklist position and applies
//!   them in ascending arena order — the exact serial sequence,
//!   bit-identical by construction.
//!
//! [`solve_sharded`] additionally schedules components
//! largest-estimated-cost first so a dominant component does not
//! serialise the tail of the shard queue behind it.
//!
//! # Error determinism
//!
//! A global iteration surfaces the first error in (round, flow index,
//! position) order. Shards run independently to completion or error;
//! [`solve_sharded`] then replays that order: the minimum (round, flow
//! index) error wins, and a divergence reports the highest-indexed cell
//! still changing in the final round. Inside a shard the worklist is
//! sorted ascending before each round, so errors surface in (flow,
//! position) order whether the round ran serially or fanned out.

use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

use rayon::prelude::*;
use traj_model::{Duration, FlowId, FlowSet, NodeId, Tick};

use crate::cache::InterferenceCache;
use crate::config::AnalysisConfig;
use crate::report::Verdict;
use crate::smax::SmaxTable;
use crate::telemetry::{RoundTelemetry, RunShape, ShardTelemetry};
use crate::terms::{sweep_merged, Overflowed, SweepScratch, Window};

/// Below this flow count a run uses Gauss–Seidel rounds: E12 measured
/// Jacobi *3.6× slower* than the pre-cache reference at 5 flows — the
/// parallel round's fork/join and double-buffering overhead dwarfs the
/// work when the table is small. At and above it Jacobi wins on scaling,
/// and its dirty-cell worklist is what makes warm starts incremental.
const AUTO_JACOBI_MIN_FLOWS: usize = 16;

/// Minimum worklist size (cells due for evaluation this round) for which
/// a Jacobi round fans out across the rayon pool. Below it the per-round
/// fork/join costs more than the evaluations it spreads — the same
/// economics as [`AUTO_JACOBI_MIN_FLOWS`], one level down.
const INTRA_PARALLEL_MIN_CELLS: usize = 512;

/// The round schedule for a run over `n_flows` flows. Jacobi's two
/// structural advantages are its parallelisable rounds (worthless on a
/// one-thread pool) and its dirty-cell worklist (worthless on a cold
/// start, where round 1 touches everything and later rounds shrink for
/// Gauss–Seidel too — in-place propagation converges in roughly half the
/// rounds, E19). So a large set runs Gauss–Seidel exactly when both are
/// absent: a cold run on a one-thread pool. Warm starts keep Jacobi
/// whatever the pool width — the seeded-skip worklist is what makes
/// re-analysis incremental.
fn run_shape(n_flows: usize, cold: bool, pool_threads: usize) -> RunShape {
    if n_flows < AUTO_JACOBI_MIN_FLOWS || (cold && pool_threads <= 1) {
        RunShape::GaussSeidel
    } else {
        RunShape::Jacobi
    }
}

/// How one run iterates the fixed point: its round schedule and the
/// worklist size from which a Jacobi round fans out across the pool.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RunPlan {
    pub(crate) shape: RunShape,
    /// Smallest worklist that fans out; `None` keeps every round serial.
    fan_out_min: Option<usize>,
}

impl RunPlan {
    /// The plan for a run over `n_flows` flows, `cold` when every row is
    /// seeded, on the current rayon pool.
    pub(crate) fn pick(n_flows: usize, cold: bool) -> RunPlan {
        let threads = rayon::current_num_threads();
        RunPlan {
            shape: run_shape(n_flows, cold, threads),
            // A one-thread pool would pay the fork/join for zero overlap.
            fan_out_min: (threads > 1).then_some(INTRA_PARALLEL_MIN_CELLS),
        }
    }

    #[inline]
    fn fan_out(&self, worklist: usize) -> bool {
        self.fan_out_min.map(|m| worklist >= m).unwrap_or(false) && worklist > 1
    }
}

/// Connected components of the crossing graph restricted to `universe`,
/// as ascending member lists ordered by first member — a deterministic
/// partition of the in-universe flow indices.
pub(crate) fn partition(
    set: &FlowSet,
    universe: &[bool],
    cache: &InterferenceCache,
) -> Vec<Vec<usize>> {
    let n = set.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    for (i, _) in universe.iter().enumerate().filter(|(_, in_u)| **in_u) {
        // The full prefix's windows cover every crosser any prefix of
        // this row can read (clipping only drops segments).
        let len = set.flows()[i].path.len();
        for w in &cache.prefix(i, len).windows {
            let (a, b) = (find(&mut parent, i), find(&mut parent, w.j_idx));
            if a != b {
                parent[a.max(b)] = a.min(b);
            }
        }
    }
    let mut comp_of_root: HashMap<usize, usize> = HashMap::new();
    let mut out: Vec<Vec<usize>> = Vec::new();
    for (i, _) in universe.iter().enumerate().filter(|(_, in_u)| **in_u) {
        let r = find(&mut parent, i);
        let ci = *comp_of_root.entry(r).or_insert_with(|| {
            out.push(Vec::new());
            out.len() - 1
        });
        out[ci].push(i);
    }
    out
}

/// One interference window, flattened: the symbolic `Smax` reads of
/// [`crate::cache::WindowSkeleton`] resolved to flat value indices at
/// arena build time, so an evaluation is two array loads and two adds.
struct ArenaWindow {
    base: Duration,
    period: Duration,
    cost: Duration,
    /// Flat index of the owner's `Smax` cell (`pos_i`).
    read_i: usize,
    /// Flat index of the crosser's `Smax` cell (`pos_j`).
    read_j: usize,
}

/// Frozen per-cell structure: everything [`crate::cache::PrefixSkeleton`]
/// holds, plus the incoming link's `Lmax` and the node id for the guard
/// verdict, so an update never touches the flow set.
struct ArenaCell {
    win_lo: usize,
    win_hi: usize,
    busy: Result<Option<Duration>, Overflowed>,
    constant: Duration,
    t_lo: Tick,
    self_window: Window,
    link_lmax: Duration,
    to_node: NodeId,
}

/// One component's rows in struct-of-arrays layout. `vals` mirrors the
/// component's slice of the [`SmaxTable`]; cell `(l, pos)` lives at
/// `vals[row_off[l] + pos]` and its update metadata at
/// `cells[cell_off[l] + pos - 1]` (positions `1..len`).
struct ComponentArena {
    members: Vec<usize>,
    flow_ids: Vec<FlowId>,
    row_off: Vec<usize>,
    path_len: Vec<usize>,
    seeded: Vec<bool>,
    vals: Vec<Duration>,
    windows: Vec<ArenaWindow>,
    cells: Vec<ArenaCell>,
    cell_off: Vec<usize>,
    /// Local row owning each cell (cells are laid out row-major).
    row_of_cell: Vec<u32>,
    /// Flat value index each cell writes: `row_off[row] + pos`.
    write_idx: Vec<u32>,
    /// CSR reverse adjacency: `rev[rev_off[v]..rev_off[v+1]]` lists the
    /// cells holding a window that reads value `v`, deduplicated and
    /// ascending — the worklist propagation edge set.
    rev_off: Vec<u32>,
    rev: Vec<u32>,
}

impl ComponentArena {
    /// `local_of` maps global flow index → local row for *this*
    /// component's members; built once per sharded run (components are
    /// disjoint, so one flat vector serves every arena). `need_rev`
    /// gates the CSR reverse-adjacency construction: only the Jacobi
    /// worklist consults it, and on small components its build cost
    /// rivals the solve itself, so Gauss–Seidel arenas skip it.
    fn build(
        set: &FlowSet,
        cache: &InterferenceCache,
        smax: &SmaxTable,
        seed_rows: &[bool],
        members: &[usize],
        local_of: &[u32],
        need_rev: bool,
    ) -> ComponentArena {
        let rows = members.len();
        let mut row_off = Vec::with_capacity(rows + 1);
        let mut path_len = Vec::with_capacity(rows);
        let mut cell_off = Vec::with_capacity(rows);
        let mut flow_ids = Vec::with_capacity(rows);
        row_off.push(0);
        let mut vals = Vec::new();
        let mut cells_total = 0;
        for &g in members {
            let f = &set.flows()[g];
            flow_ids.push(f.id);
            path_len.push(f.path.len());
            cell_off.push(cells_total);
            cells_total += f.path.len() - 1;
            vals.extend_from_slice(smax.row(g));
            row_off.push(vals.len());
        }
        let mut windows = Vec::new();
        let mut cells = Vec::with_capacity(cells_total);
        let mut row_of_cell = Vec::with_capacity(cells_total);
        let mut write_idx = Vec::with_capacity(cells_total);
        for (l, &g) in members.iter().enumerate() {
            let nodes = set.flows()[g].path.nodes();
            for pos in 1..path_len[l] {
                let sk = cache.prefix(g, pos);
                let win_lo = windows.len();
                for w in &sk.windows {
                    // Every `j_idx` a skeleton reads was unioned into
                    // this component by `partition` (full-prefix
                    // superset), so the local index always resolves.
                    let lj = local_of[w.j_idx] as usize;
                    windows.push(ArenaWindow {
                        base: w.base,
                        period: w.period,
                        cost: w.cost,
                        read_i: row_off[l] + w.pos_i,
                        read_j: row_off[lj] + w.pos_j,
                    });
                }
                cells.push(ArenaCell {
                    win_lo,
                    win_hi: windows.len(),
                    busy: sk.busy,
                    constant: sk.constant,
                    t_lo: sk.t_lo,
                    self_window: sk.self_window,
                    link_lmax: set.network().link_delay(nodes[pos - 1], nodes[pos]).lmax,
                    to_node: nodes[pos],
                });
                row_of_cell.push(l as u32);
                write_idx.push((row_off[l] + pos) as u32);
            }
        }
        // Reverse adjacency, deduplicated per cell with an epoch stamp
        // (a cell typically reads the same value through many windows).
        let nvals = vals.len();
        let (rev_off, rev) = if need_rev {
            let mut deg = vec![0u32; nvals];
            let mut stamp = vec![u32::MAX; nvals];
            for (c, cell) in cells.iter().enumerate() {
                for w in &windows[cell.win_lo..cell.win_hi] {
                    for v in [w.read_i, w.read_j] {
                        if stamp[v] != c as u32 {
                            stamp[v] = c as u32;
                            deg[v] += 1;
                        }
                    }
                }
            }
            let mut rev_off = Vec::with_capacity(nvals + 1);
            rev_off.push(0u32);
            let mut total = 0u32;
            for &d in &deg {
                total += d;
                rev_off.push(total);
            }
            let mut cursor: Vec<u32> = rev_off[..nvals].to_vec();
            let mut rev = vec![0u32; total as usize];
            stamp.fill(u32::MAX);
            for (c, cell) in cells.iter().enumerate() {
                for w in &windows[cell.win_lo..cell.win_hi] {
                    for v in [w.read_i, w.read_j] {
                        if stamp[v] != c as u32 {
                            stamp[v] = c as u32;
                            rev[cursor[v] as usize] = c as u32;
                            cursor[v] += 1;
                        }
                    }
                }
            }
            (rev_off, rev)
        } else {
            // Gauss–Seidel never walks dependents: empty CSR, every
            // `deps_of` slice is empty by construction.
            (vec![0u32; nvals + 1], Vec::new())
        };
        ComponentArena {
            seeded: members.iter().map(|&g| seed_rows[g]).collect(),
            members: members.to_vec(),
            flow_ids,
            row_off,
            path_len,
            vals,
            windows,
            cells,
            cell_off,
            row_of_cell,
            write_idx,
            rev_off,
            rev,
        }
    }

    /// Cells holding a window that reads value `v`.
    #[inline]
    fn deps_of(&self, v: usize) -> &[u32] {
        &self.rev[self.rev_off[v] as usize..self.rev_off[v + 1] as usize]
    }
}

/// Reusable per-worker evaluation scratch: cleared, never reallocated.
#[derive(Default)]
struct Scratch {
    /// Jump-stream buffers of the k-way merge sweep.
    sweep: SweepScratch,
}

thread_local! {
    /// Per-worker scratch pool: one `Scratch` per thread, reused across
    /// cells, rounds, and shards, so steady-state rounds allocate
    /// nothing regardless of which worker evaluates which cell.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// One cell update: materialise alignments from the flat values, sweep,
/// add the link `Lmax`, check the guard. Arithmetic and error order
/// replicate `Analyzer::wcrt_prefix` plus the `Lmax` step exactly.
/// Unlike `wcrt_prefix`, the windows are *not* coalesced first: coalescing
/// merges equal-`(a, period)` windows, which is value-preserving (same
/// jump instants, tied events' costs are summed before each evaluation
/// either way), so skipping the hash pass changes nothing but time.
fn eval_cell(
    arena: &ComponentArena,
    cell: &ArenaCell,
    l: usize,
    cfg: &AnalysisConfig,
    scratch: &mut Scratch,
) -> Result<Duration, Verdict> {
    let busy = match cell.busy {
        Ok(Some(b)) => b,
        Ok(None) => {
            return Err(Verdict::unbounded(format!(
                "busy period of flow {} exceeds the {}-tick guard (overload)",
                arena.flow_ids[l], cfg.max_busy_period
            )))
        }
        Err(o) => return Err(Verdict::from(o)),
    };
    // The flow id is reporting-only; the sweep ignores it.
    let flow = arena.flow_ids[l];
    let materialised = arena.windows[cell.win_lo..cell.win_hi]
        .iter()
        .map(|w| Window {
            flow,
            a: arena.vals[w.read_i] + arena.vals[w.read_j] + w.base,
            period: w.period,
            cost: w.cost,
        })
        .chain(std::iter::once(cell.self_window));
    let m = sweep_merged(
        materialised,
        cell.constant,
        cell.t_lo,
        busy,
        &mut scratch.sweep,
    )
    .map_err(Verdict::from)?;
    let val = m.value + cell.link_lmax;
    if val > cfg.max_busy_period {
        return Err(Verdict::unbounded(format!(
            "Smax of flow {} at node {} exceeds the guard",
            arena.flow_ids[l], cell.to_node
        )));
    }
    Ok(val)
}

/// How one shard's solve ended.
enum ShardEnd {
    Converged,
    /// Still changing at the final round; `last` is the last (global
    /// flow index, position) changed in that round's apply order.
    Diverged {
        last: (usize, usize),
    },
    /// First error this shard hit, with the round it surfaced in and the
    /// global flow index of the erroring row.
    Failed {
        round: usize,
        flow_idx: usize,
        verdict: Verdict,
    },
}

struct SolveOut {
    arena: ComponentArena,
    rounds: usize,
    per_round: Vec<RoundTelemetry>,
    parallel_rounds: usize,
    micros: u64,
    end: ShardEnd,
}

/// Iterates one component to its least fixed point with the plan's
/// round schedule.
///
/// Jacobi rounds run a dirty-cell worklist: round 0 holds the seeded
/// rows' cells plus every cell reading a seeded row's value, and
/// applying a changed value pushes its reverse-adjacency dependents for
/// the next round (a cell none of whose reads changed would reproduce
/// its value). The worklist is sorted ascending before evaluation, so
/// values, telemetry counts, and error order do not depend on whether
/// the round fanned out — warm starts (few seeded rows) and cold starts
/// (all rows) are the same code path, differing only in the initial
/// list.
fn solve(mut arena: ComponentArena, cfg: &AnalysisConfig, plan: RunPlan) -> SolveOut {
    let start = Instant::now();
    let cells_total = arena.cells.len();
    let jacobi = plan.shape == RunShape::Jacobi;
    let mut dirty_cell = vec![false; cells_total];
    let mut cur: Vec<u32> = Vec::new();
    let mut next: Vec<u32> = Vec::new();
    if jacobi {
        for l in 0..arena.members.len() {
            if !arena.seeded[l] {
                continue;
            }
            let cells = arena.cell_off[l]..arena.cell_off[l] + (arena.path_len[l] - 1);
            for (dirty, c) in dirty_cell[cells.clone()].iter_mut().zip(cells) {
                if !*dirty {
                    *dirty = true;
                    cur.push(c as u32);
                }
            }
            for v in arena.row_off[l]..arena.row_off[l + 1] {
                for &d in arena.deps_of(v) {
                    if !dirty_cell[d as usize] {
                        dirty_cell[d as usize] = true;
                        cur.push(d);
                    }
                }
            }
        }
    }
    let mut updates: Vec<(u32, Duration)> = Vec::new();
    let mut par_results: Vec<Result<Duration, Verdict>> = Vec::new();
    let mut per_round = Vec::new();
    let mut rounds = 0;
    let mut parallel_rounds = 0;
    let mut last_changed: Option<(usize, usize)> = None;
    for round in 0..cfg.max_smax_rounds {
        rounds = round + 1;
        let mut rt = RoundTelemetry {
            round: rounds,
            recomputed: 0,
            skipped: 0,
            changed: 0,
            max_delta: 0,
        };
        let mut round_changed: Option<(usize, usize)> = None;
        let mut err: Option<(usize, Verdict)> = None;
        if jacobi {
            // Frozen-table round over the worklist, ascending arena
            // order, errors surfacing in (flow, position) order. Values
            // are applied only after every evaluation.
            cur.sort_unstable();
            rt.skipped = cells_total - cur.len();
            updates.clear();
            if plan.fan_out(cur.len()) {
                parallel_rounds += 1;
                let arena_ref = &arena;
                cur.par_iter()
                    .map(|&c| {
                        SCRATCH.with(|s| {
                            let scratch = &mut *s.borrow_mut();
                            eval_cell(
                                arena_ref,
                                &arena_ref.cells[c as usize],
                                arena_ref.row_of_cell[c as usize] as usize,
                                cfg,
                                scratch,
                            )
                        })
                    })
                    .collect_into_vec(&mut par_results);
                for (i, r) in par_results.iter().enumerate() {
                    match r {
                        Ok(v) => {
                            updates.push((cur[i], *v));
                            rt.recomputed += 1;
                        }
                        Err(v) => {
                            // First erroring cell in arena order — the
                            // serial sweep's break point; later results
                            // are discarded.
                            err = Some((arena.row_of_cell[cur[i] as usize] as usize, v.clone()));
                            break;
                        }
                    }
                }
            } else {
                SCRATCH.with(|s| {
                    let scratch = &mut *s.borrow_mut();
                    for &c in &cur {
                        let l = arena.row_of_cell[c as usize] as usize;
                        match eval_cell(&arena, &arena.cells[c as usize], l, cfg, scratch) {
                            Ok(v) => {
                                updates.push((c, v));
                                rt.recomputed += 1;
                            }
                            Err(v) => {
                                err = Some((l, v));
                                break;
                            }
                        }
                    }
                });
            }
            if err.is_none() {
                // Consume this round's marks, then push each changed
                // value's dependents as the next round's worklist.
                for &c in &cur {
                    dirty_cell[c as usize] = false;
                }
                next.clear();
                for &(c, val) in &updates {
                    let idx = arena.write_idx[c as usize] as usize;
                    let old = arena.vals[idx];
                    if old != val {
                        arena.vals[idx] = val;
                        rt.changed += 1;
                        rt.max_delta = rt.max_delta.max(val.saturating_sub(old));
                        let l = arena.row_of_cell[c as usize] as usize;
                        round_changed = Some((l, idx - arena.row_off[l]));
                        for &d in arena.deps_of(idx) {
                            if !dirty_cell[d as usize] {
                                dirty_cell[d as usize] = true;
                                next.push(d);
                            }
                        }
                    }
                }
                std::mem::swap(&mut cur, &mut next);
            }
        } else {
            // Gauss–Seidel: in-place ascending sweep over every cell,
            // each update immediately visible to the next.
            SCRATCH.with(|s| {
                let scratch = &mut *s.borrow_mut();
                for c in 0..cells_total {
                    let l = arena.row_of_cell[c] as usize;
                    match eval_cell(&arena, &arena.cells[c], l, cfg, scratch) {
                        Ok(val) => {
                            rt.recomputed += 1;
                            let idx = arena.write_idx[c] as usize;
                            let old = arena.vals[idx];
                            if old != val {
                                arena.vals[idx] = val;
                                round_changed = Some((l, idx - arena.row_off[l]));
                                rt.changed += 1;
                                rt.max_delta = rt.max_delta.max(val.saturating_sub(old));
                            }
                        }
                        Err(v) => {
                            err = Some((l, v));
                            break;
                        }
                    }
                }
            });
        }
        if let Some((l, verdict)) = err {
            return SolveOut {
                end: ShardEnd::Failed {
                    round: rounds,
                    flow_idx: arena.members[l],
                    verdict,
                },
                arena,
                rounds,
                per_round,
                parallel_rounds,
                micros: start.elapsed().as_micros() as u64,
            };
        }
        per_round.push(rt);
        match round_changed {
            None => {
                return SolveOut {
                    end: ShardEnd::Converged,
                    arena,
                    rounds,
                    per_round,
                    parallel_rounds,
                    micros: start.elapsed().as_micros() as u64,
                };
            }
            Some((l, pos)) => last_changed = Some((arena.members[l], pos)),
        }
    }
    let last = last_changed.unwrap_or((0, 0));
    SolveOut {
        end: ShardEnd::Diverged { last },
        arena,
        rounds,
        per_round,
        parallel_rounds,
        micros: start.elapsed().as_micros() as u64,
    }
}

/// Result of a successful sharded solve, for the caller's telemetry.
pub(crate) struct ShardedRun {
    /// Maximum rounds over the shards (the round count of the global
    /// iteration).
    pub(crate) rounds: usize,
    /// Whole-run per-round record: shard rounds merged index-wise
    /// (counts summed, deltas maxed).
    pub(crate) per_round: Vec<RoundTelemetry>,
    /// One record per component actually solved, ordered by first
    /// member flow index.
    pub(crate) shards: Vec<ShardTelemetry>,
}

/// Solves every component holding a seeded row (components without one
/// already sit at their block of the standing fixed point — recomputing
/// them would reproduce every value), largest estimated cost first
/// across the rayon pool, then writes the converged values back into
/// `smax`.
pub(crate) fn solve_sharded(
    set: &FlowSet,
    cfg: &AnalysisConfig,
    cache: &InterferenceCache,
    smax: &mut SmaxTable,
    seed_rows: &[bool],
    plan: RunPlan,
    components: &[Vec<usize>],
) -> Result<ShardedRun, Verdict> {
    struct WorkItem<'m> {
        members: &'m [usize],
        cost: usize,
    }
    let mut work: Vec<WorkItem> = components
        .iter()
        .filter(|m| m.iter().any(|&g| seed_rows[g]))
        .map(|m| WorkItem {
            members: m,
            cost: m.iter().map(|&g| cache.row_cost_estimate(g)).sum(),
        })
        .collect();
    // Largest-estimated-cost first: a dominant component starts
    // immediately instead of serialising the tail of the queue behind
    // it. Ties (and the final telemetry) stay in first-member order.
    work.sort_by(|a, b| {
        b.cost
            .cmp(&a.cost)
            .then_with(|| a.members[0].cmp(&b.members[0]))
    });
    // Shared global→local row index: components partition the universe,
    // so one flat vector serves every arena build (the per-component
    // hash map this replaces dominated small-shard build time).
    let mut local_of = vec![0u32; set.len()];
    for item in &work {
        for (l, &g) in item.members.iter().enumerate() {
            local_of[g] = l as u32;
        }
    }
    let snapshot: &SmaxTable = smax;
    let local_ref: &[u32] = &local_of;
    let mut outs: Vec<SolveOut> = work
        .par_iter()
        .map(|item| {
            solve(
                ComponentArena::build(
                    set,
                    cache,
                    snapshot,
                    seed_rows,
                    item.members,
                    local_ref,
                    plan.shape == RunShape::Jacobi,
                ),
                cfg,
                plan,
            )
        })
        .collect();

    // Errors first, in the global (round, flow index) surfacing order;
    // they pre-empt any other shard's later error or divergence.
    let mut first_err: Option<(usize, usize, Verdict)> = None;
    for o in &outs {
        if let ShardEnd::Failed {
            round,
            flow_idx,
            verdict,
        } = &o.end
        {
            let better = match &first_err {
                None => true,
                Some((r, f, _)) => (*round, *flow_idx) < (*r, *f),
            };
            if better {
                first_err = Some((*round, *flow_idx, verdict.clone()));
            }
        }
    }
    if let Some((_, _, v)) = first_err {
        return Err(v);
    }
    // Divergence: report the highest-indexed cell applied in the final
    // round, i.e. the maximum over the still-changing shards.
    let mut worst: Option<(usize, usize)> = None;
    for o in &outs {
        if let ShardEnd::Diverged { last } = o.end {
            worst = Some(match worst {
                None => last,
                Some(w) => w.max(last),
            });
        }
    }
    if let Some((fi, pos)) = worst {
        return Err(Verdict::Diverged {
            rounds: cfg.max_smax_rounds,
            worst_cell: (set.flows()[fi].id, set.flows()[fi].path.nodes()[pos]),
        });
    }

    // Telemetry is surfaced in first-member order whatever schedule the
    // cost sort executed.
    outs.sort_by_key(|o| o.arena.members.first().copied().unwrap_or(0));
    let mut run = ShardedRun {
        rounds: 0,
        per_round: Vec::new(),
        shards: Vec::with_capacity(outs.len()),
    };
    for o in outs {
        run.rounds = run.rounds.max(o.rounds);
        for rt in &o.per_round {
            let i = rt.round - 1;
            if run.per_round.len() <= i {
                run.per_round.push(RoundTelemetry {
                    round: i + 1,
                    recomputed: 0,
                    skipped: 0,
                    changed: 0,
                    max_delta: 0,
                });
            }
            let m = &mut run.per_round[i];
            m.recomputed += rt.recomputed;
            m.skipped += rt.skipped;
            m.changed += rt.changed;
            m.max_delta = m.max_delta.max(rt.max_delta);
        }
        run.shards.push(ShardTelemetry {
            flows: o.arena.members.len(),
            cells: o.arena.cells.len(),
            rounds: o.rounds,
            recomputed: o.per_round.iter().map(|r| r.recomputed).sum(),
            skipped: o.per_round.iter().map(|r| r.skipped).sum(),
            parallel_rounds: o.parallel_rounds,
            solve_micros: o.micros,
        });
        for (l, &g) in o.arena.members.iter().enumerate() {
            smax.set_row(g, &o.arena.vals[o.arena.row_off[l]..o.arena.row_off[l + 1]]);
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{config_grid, AnalysisConfig, SmaxMode};
    use crate::reference::ReferenceAnalyzer;
    use crate::wcrt::NoDelta;
    use proptest::prelude::*;
    use traj_model::examples::{line_topology, paper_example};
    use traj_model::gen::{fat_tree, random_mesh, FatTreeParams, MeshParams};
    use traj_model::FaultScenario;

    fn parts_of(set: &FlowSet) -> Vec<Vec<usize>> {
        let cfg = AnalysisConfig::default();
        let universe = vec![true; set.len()];
        let cache = InterferenceCache::build(set, &cfg, &universe, &NoDelta);
        partition(set, &universe, &cache)
    }

    #[test]
    fn paper_example_is_one_component() {
        let set = paper_example();
        let comps = parts_of(&set);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0], (0..set.len()).collect::<Vec<_>>());
    }

    #[test]
    fn chained_line_flows_form_one_component() {
        // line_topology flows overlap pairwise along the line: one
        // component even though the first and last flows never meet.
        let set = line_topology(6, 4, 120, 3, 1, 2).unwrap();
        assert_eq!(parts_of(&set).len(), 1);
    }

    #[test]
    fn masked_universe_rows_stay_out_of_every_component() {
        let set = paper_example();
        let cfg = AnalysisConfig::default();
        let mut universe = vec![true; set.len()];
        universe[0] = false;
        let cache = InterferenceCache::build(&set, &cfg, &universe, &NoDelta);
        let comps = partition(&set, &universe, &cache);
        assert!(comps.iter().all(|m| !m.contains(&0)));
        assert_eq!(comps.iter().map(Vec::len).sum::<usize>(), set.len() - 1);
    }

    #[test]
    fn components_are_ordered_with_ascending_members() {
        let set = paper_example();
        let comps = parts_of(&set);
        let firsts: Vec<usize> = comps.iter().map(|m| m[0]).collect();
        assert!(firsts.windows(2).all(|w| w[0] < w[1]));
        for m in &comps {
            assert!(m.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn arena_reverse_adjacency_is_deduplicated_and_complete() {
        // Every (window read → owning cell) edge must appear exactly
        // once in the CSR lists, whatever the duplication in windows.
        let set = paper_example();
        let cfg = AnalysisConfig::default();
        let universe = vec![true; set.len()];
        let cache = InterferenceCache::build(&set, &cfg, &universe, &NoDelta);
        let comps = partition(&set, &universe, &cache);
        let seed = crate::smax::SmaxTable::transit(&set).unwrap();
        let seeded = vec![true; set.len()];
        let mut local_of = vec![0u32; set.len()];
        for m in &comps {
            for (l, &g) in m.iter().enumerate() {
                local_of[g] = l as u32;
            }
        }
        for m in &comps {
            let arena = ComponentArena::build(&set, &cache, &seed, &seeded, m, &local_of, true);
            for (c, cell) in arena.cells.iter().enumerate() {
                let mut reads: Vec<usize> = arena.windows[cell.win_lo..cell.win_hi]
                    .iter()
                    .flat_map(|w| [w.read_i, w.read_j])
                    .collect();
                reads.sort_unstable();
                reads.dedup();
                for v in reads {
                    let hits = arena
                        .deps_of(v)
                        .iter()
                        .filter(|&&d| d as usize == c)
                        .count();
                    assert_eq!(hits, 1, "cell {c} listed {hits} times for value {v}");
                }
            }
            // No spurious edges: every listed dependent really reads v.
            for v in 0..arena.vals.len() {
                for &d in arena.deps_of(v) {
                    let cell = &arena.cells[d as usize];
                    assert!(
                        arena.windows[cell.win_lo..cell.win_hi]
                            .iter()
                            .any(|w| w.read_i == v || w.read_j == v),
                        "cell {d} listed for value {v} it never reads"
                    );
                }
            }
        }
    }

    #[test]
    fn run_shape_follows_size_coldness_and_pool_width() {
        use RunShape::*;
        for threads in [1, 2, 8] {
            for cold in [true, false] {
                assert_eq!(run_shape(0, cold, threads), GaussSeidel);
                assert_eq!(
                    run_shape(AUTO_JACOBI_MIN_FLOWS - 1, cold, threads),
                    GaussSeidel
                );
            }
            // Warm starts keep Jacobi's worklist whatever the pool width.
            assert_eq!(run_shape(AUTO_JACOBI_MIN_FLOWS, false, threads), Jacobi);
            assert_eq!(run_shape(1000, false, threads), Jacobi);
        }
        // A cold run has no use for the worklist; without a second thread
        // it has no use for parallel rounds either.
        assert_eq!(run_shape(1000, true, 1), GaussSeidel);
        assert_eq!(run_shape(1000, true, 2), Jacobi);
    }

    #[test]
    fn fan_out_needs_a_plan_threshold_and_two_cells() {
        let serial = RunPlan {
            shape: RunShape::Jacobi,
            fan_out_min: None,
        };
        let always = RunPlan {
            fan_out_min: Some(0),
            ..serial
        };
        let auto = RunPlan {
            fan_out_min: Some(INTRA_PARALLEL_MIN_CELLS),
            ..serial
        };
        assert!(!serial.fan_out(100_000));
        assert!(always.fan_out(2) && !always.fan_out(1));
        assert!(!auto.fan_out(INTRA_PARALLEL_MIN_CELLS - 1));
        assert!(auto.fan_out(INTRA_PARALLEL_MIN_CELLS));
    }

    /// Every plan the engine can run: Gauss–Seidel, and Jacobi with its
    /// rounds serial or fanned out on every worklist (the fan-out path
    /// runs even on a one-thread pool, inline).
    const PLANS: [RunPlan; 3] = [
        RunPlan {
            shape: RunShape::GaussSeidel,
            fan_out_min: None,
        },
        RunPlan {
            shape: RunShape::Jacobi,
            fan_out_min: None,
        },
        RunPlan {
            shape: RunShape::Jacobi,
            fan_out_min: Some(0),
        },
    ];

    /// Solves the fixed point over `universe` from `seed`, re-evaluating
    /// the rows flagged in `seed_rows`, with an explicit plan.
    fn solve_with(
        set: &FlowSet,
        cfg: &AnalysisConfig,
        universe: &[bool],
        seed: &SmaxTable,
        seed_rows: &[bool],
        plan: RunPlan,
    ) -> Result<(SmaxTable, ShardedRun), Verdict> {
        let cache = InterferenceCache::build(set, cfg, universe, &NoDelta);
        let comps = partition(set, universe, &cache);
        let mut smax = seed.clone();
        let run = solve_sharded(set, cfg, &cache, &mut smax, seed_rows, plan, &comps)?;
        Ok((smax, run))
    }

    /// The in-universe flows as a set of their own (the oracle has no
    /// universe mask), with the original index of each.
    fn survivors(set: &FlowSet, universe: &[bool]) -> (FlowSet, Vec<usize>) {
        let idx: Vec<usize> = (0..set.len()).filter(|&i| universe[i]).collect();
        let flows = idx.iter().map(|&i| set.flows()[i].clone()).collect();
        (FlowSet::new(set.network().clone(), flows).unwrap(), idx)
    }

    /// Cold and warm solves under every plan against the reference
    /// oracle: identical in-universe `Smax` rows, or the identical
    /// failure verdict. The warm seed is the converged table with one
    /// crossing component reset to its transit floor and re-seeded —
    /// the shape of an admission or fault warm start, whose dirty
    /// closure never reaches past the candidate's component. Serial and
    /// fanned-out Jacobi must also agree on every per-round count.
    fn assert_plans_match_oracle(
        set: &FlowSet,
        cfg: &AnalysisConfig,
        universe: &[bool],
    ) -> Result<(), TestCaseError> {
        let (alive, idx) = survivors(set, universe);
        let oracle = ReferenceAnalyzer::new(&alive, cfg);
        let transit = SmaxTable::transit(set).unwrap();
        let all_rows = vec![true; set.len()];
        let mut cold_rounds = Vec::new();
        for plan in PLANS {
            let cold = solve_with(set, cfg, universe, &transit, &all_rows, plan);
            match (&cold, &oracle) {
                (Ok((smax, run)), Ok(o)) => {
                    for (l, &g) in idx.iter().enumerate() {
                        prop_assert_eq!(
                            smax.row(g),
                            o.smax().row(l),
                            "cold {:?}, flow {}",
                            plan,
                            g
                        );
                    }
                    if plan.shape == RunShape::Jacobi {
                        cold_rounds.push(run.per_round.clone());
                    }
                }
                (Err(e), Err(o)) => prop_assert_eq!(e, o, "cold failure, {:?}", plan),
                _ => {
                    return Err(TestCaseError::fail(format!(
                        "cold {plan:?} and the oracle disagree on success: {:?} vs {:?}",
                        cold.as_ref().map(|_| ()),
                        oracle.as_ref().map(|_| ())
                    )))
                }
            }
        }
        if let [serial, fanned] = &cold_rounds[..] {
            prop_assert_eq!(serial, fanned, "serial vs fanned-out Jacobi round counts");
        }
        let Ok(o) = &oracle else { return Ok(()) };
        let mut converged = transit.clone();
        for (l, &g) in idx.iter().enumerate() {
            converged.set_row(g, o.smax().row(l));
        }
        let cache = InterferenceCache::build(set, cfg, universe, &NoDelta);
        for comp in partition(set, universe, &cache) {
            let mut seed = converged.clone();
            let mut seed_rows = vec![false; set.len()];
            for &g in &comp {
                seed.set_row(g, transit.row(g));
                seed_rows[g] = true;
            }
            let mut warm_rounds = Vec::new();
            for plan in PLANS {
                let warm = solve_with(set, cfg, universe, &seed, &seed_rows, plan);
                let Ok((smax, run)) = warm else {
                    return Err(TestCaseError::fail(format!(
                        "warm {plan:?} failed where the cold solve converged: {warm:?}",
                        warm = warm.map(|_| ())
                    )));
                };
                prop_assert_eq!(smax.values(), converged.values(), "warm {:?}", plan);
                if plan.shape == RunShape::Jacobi {
                    warm_rounds.push(run.per_round);
                }
            }
            if let [serial, fanned] = &warm_rounds[..] {
                prop_assert_eq!(serial, fanned, "warm serial vs fanned-out Jacobi");
            }
        }
        Ok(())
    }

    fn iterated(cfg: &AnalysisConfig) -> bool {
        cfg.smax_mode == SmaxMode::RecursivePrefix
    }

    #[test]
    fn every_plan_matches_the_oracle_on_the_paper_example_everywhere() {
        let set = paper_example();
        let universe = vec![true; set.len()];
        for cfg in config_grid().iter().filter(|c| iterated(c)) {
            assert_plans_match_oracle(&set, cfg, &universe).unwrap();
        }
    }

    #[test]
    fn every_plan_reports_the_oracle_overload_verdict() {
        // Utilisation 1.5 on every node: the busy-period guard trips.
        let set = line_topology(3, 3, 100, 50, 1, 1).unwrap();
        let universe = vec![true; set.len()];
        assert_plans_match_oracle(&set, &AnalysisConfig::default(), &universe).unwrap();
    }

    #[test]
    fn jacobi_skips_settled_cells_and_gauss_seidel_recomputes_all() {
        let set = paper_example();
        let cfg = AnalysisConfig::default();
        let universe = vec![true; set.len()];
        let transit = SmaxTable::transit(&set).unwrap();
        let rows = vec![true; set.len()];
        let (_, gs) = solve_with(&set, &cfg, &universe, &transit, &rows, PLANS[0]).unwrap();
        let (_, jac) = solve_with(&set, &cfg, &universe, &transit, &rows, PLANS[1]).unwrap();
        let cells: usize = set.flows().iter().map(|f| f.path.len() - 1).sum();
        assert!(gs.per_round.iter().all(|r| r.skipped == 0));
        assert_eq!(
            gs.per_round.iter().map(|r| r.recomputed).sum::<usize>(),
            gs.rounds * cells
        );
        assert!(jac.per_round.iter().map(|r| r.skipped).sum::<usize>() > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn every_plan_matches_the_oracle_on_random_meshes(seed in 0u64..1_000_000) {
            let p = MeshParams {
                nodes: 10,
                flows: 12,
                max_utilisation: 0.8,
                ..Default::default()
            };
            let set = random_mesh(seed, &p).unwrap();
            let universe = vec![true; set.len()];
            for cfg in config_grid().iter().filter(|c| iterated(c)) {
                assert_plans_match_oracle(&set, cfg, &universe)?;
            }
        }

        #[test]
        fn every_plan_matches_the_oracle_on_fat_trees_across_localities(
            seed in 0u64..1_000_000,
            locality_pick in 0usize..3,
        ) {
            // locality 1.0: many pod-local components (many small shards);
            // 0.0: one giant component (a single arena doing all the work).
            let p = FatTreeParams {
                pods: 3,
                flows: 24,
                locality: [1.0, 0.5, 0.0][locality_pick],
                ..Default::default()
            };
            let set = fat_tree(seed, &p).unwrap();
            let universe = vec![true; set.len()];
            assert_plans_match_oracle(&set, &AnalysisConfig::default(), &universe)?;
        }

        #[test]
        fn every_plan_matches_the_oracle_on_degraded_topologies(
            seed in 0u64..1_000_000,
            fault_pick in 0usize..32,
        ) {
            // Rerouted paths, and dropped flows masked out of the universe.
            let p = FatTreeParams {
                pods: 3,
                flows: 18,
                locality: 0.8,
                ..Default::default()
            };
            let set = fat_tree(seed, &p).unwrap();
            let nodes = set.network().nodes().to_vec();
            let scenario = FaultScenario::node_down(nodes[fault_pick % nodes.len()]);
            let Ok(degraded) = scenario.apply(&set) else {
                return Ok(());
            };
            let universe = degraded.universe();
            if universe.iter().any(|&alive| alive) {
                assert_plans_match_oracle(&degraded.set, &AnalysisConfig::default(), &universe)?;
            }
        }
    }
}
