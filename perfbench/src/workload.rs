//! Seeded inputs of the three workloads.
//!
//! Everything the daemon receives is generated here from `--seed`: the
//! standing set installed by `init` and the candidate flows of every
//! connection. The same seed gives the same inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traj_analysis::AnalysisConfig;
use traj_diffserv::AdmissionController;
use traj_model::examples::paper_example;
use traj_model::gen::{fat_tree, fat_tree_path, FatTreeParams};
use traj_model::{FlowId, FlowSet, Network, Path, SporadicFlow};

/// Flows each `tiny-cycle` connection keeps admitted at most; it
/// releases its oldest when it reaches this many, or when an admit is
/// rejected.
pub const TINY_KEEP: usize = 3;

const ISLANDS: u32 = 200;
const FLOWS_PER_ISLAND: u32 = 5;
const NODES_PER_ISLAND: u32 = 10;
/// Distinct `islands-whatif` candidates, two per island.
const ISLAND_POOL: u32 = 2 * ISLANDS;
/// Deadline far above any island bound: every candidate is admissible.
const ISLAND_DEADLINE: i64 = 10_000;

/// Standing size `fattree-churn` grows to before `init`; the writer
/// churns around the size actually reached.
const FATTREE_TARGET: usize = 160;
/// Deadline factor of the soak smoke preset's flow template.
const FATTREE_DEADLINE_FACTOR: i64 = 25;
/// Distinct `fattree-churn` what-if candidates the read connection cycles.
const FATTREE_POOL: usize = 512;

/// Flow ids at or above this are read candidates, never committed
/// (except by the `islands-whatif` write phase, which releases each one
/// right after admitting it).
pub const CANDIDATE_ID_BASE: u32 = 1_000_000;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's 5-flow example under whatif → admit → release cycles.
    TinyCycle,
    /// 1000 flows in 200 disjoint islands; read-only what-ifs, then a
    /// short admit/release phase.
    IslandsWhatif,
    /// Soak smoke fat-tree traffic at ~160 standing flows; one writer
    /// connection churning, one reader streaming what-ifs.
    FattreeChurn,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "tiny-cycle" => Some(Kind::TinyCycle),
            "islands-whatif" => Some(Kind::IslandsWhatif),
            "fattree-churn" => Some(Kind::FattreeChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::TinyCycle => "tiny-cycle",
            Kind::IslandsWhatif => "islands-whatif",
            Kind::FattreeChurn => "fattree-churn",
        }
    }
}

/// One workload's generated inputs.
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    /// The standing set installed by `init`.
    pub init: FlowSet,
    /// The `init` request line.
    pub init_line: String,
    /// Read candidates the connections cycle through (`tiny-cycle`
    /// draws fresh candidates per cycle instead and leaves this empty).
    pub pool: Vec<SporadicFlow>,
}

impl Workload {
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        let (init, pool) = match kind {
            Kind::TinyCycle => (paper_example(), Vec::new()),
            Kind::IslandsWhatif => islands(seed),
            Kind::FattreeChurn => {
                let init = grow_fattree(seed);
                let mut reads = FattreeSampler::new(seed, 3, CANDIDATE_ID_BASE);
                let pool = (0..FATTREE_POOL).map(|_| reads.next_flow()).collect();
                (init, pool)
            }
        };
        let init_line = format!(
            "{{\"id\":0,\"op\":\"init\",\"network\":{},\"flows\":{}}}",
            serde_json::to_string(init.network()).expect("network serialises"),
            serde_json::to_string(&init.flows().to_vec()).expect("flows serialise"),
        );
        Workload {
            kind,
            seed,
            init,
            init_line,
            pool,
        }
    }
}

/// An independent random stream of the run, derived from the seed.
fn stream(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Candidates of one `tiny-cycle` connection: short sub-paths of the
/// paper's routes, so they cross the standing flows.
pub struct TinyStream {
    rng: StdRng,
    next_id: u32,
}

impl TinyStream {
    pub fn new(seed: u64, conn: u32) -> TinyStream {
        TinyStream {
            rng: stream(seed, 10 + u64::from(conn)),
            next_id: 1_000 + conn * 100_000,
        }
    }

    pub fn next_flow(&mut self) -> SporadicFlow {
        const ROUTES: [&[u32]; 4] = [
            &[1, 3, 4, 5],
            &[9, 10, 7, 6],
            &[2, 3, 4, 7, 10, 11],
            &[2, 3, 4, 7, 8],
        ];
        let route = ROUTES[self.rng.gen_range(0..ROUTES.len())];
        let len = self.rng.gen_range(2..=4usize.min(route.len()));
        let start = self.rng.gen_range(0..=route.len() - len);
        let hops = &route[start..start + len];
        let period = self.rng.gen_range(72..=216i64);
        let cost = self.rng.gen_range(1..=2i64);
        let jitter = self.rng.gen_range(0..=2i64);
        let deadline = 30 + 15 * len as i64 + self.rng.gen_range(0..=40i64);
        let id = self.next_id;
        self.next_id += 1;
        SporadicFlow::uniform(
            id,
            Path::from_ids(hops.iter().copied()).expect("paper sub-route is a path"),
            period,
            cost,
            jitter,
            deadline,
        )
        .expect("tiny candidate parameters are valid")
    }
}

/// 200 disjoint 5-flow islands plus the 2-hop head candidates.
fn islands(seed: u64) -> (FlowSet, Vec<SporadicFlow>) {
    let mut rng = stream(seed, 20);
    let network = Network::uniform(ISLANDS * NODES_PER_ISLAND, 1, 1).expect("valid network");
    let mut flows = Vec::with_capacity((ISLANDS * FLOWS_PER_ISLAND) as usize);
    for k in 0..ISLANDS {
        let b = k * NODES_PER_ISLAND;
        for s in 1..=FLOWS_PER_ISLAND {
            flows.push(
                SporadicFlow::uniform(
                    k * FLOWS_PER_ISLAND + s,
                    Path::from_ids(b + s..=b + s + 4).expect("island path"),
                    rng.gen_range(150..=300i64),
                    rng.gen_range(1..=3i64),
                    rng.gen_range(0..=2i64),
                    ISLAND_DEADLINE,
                )
                .expect("island flow parameters are valid"),
            );
        }
    }
    let set = FlowSet::new(network, flows).expect("islands form a valid flow set");
    let pool = (0..ISLAND_POOL)
        .map(|i| {
            let b = (i % ISLANDS) * NODES_PER_ISLAND;
            SporadicFlow::uniform(
                CANDIDATE_ID_BASE + i,
                Path::from_ids([b + 1, b + 2]).expect("head path"),
                rng.gen_range(300..=600i64),
                rng.gen_range(1..=2i64),
                0,
                ISLAND_DEADLINE,
            )
            .expect("island candidate parameters are valid")
        })
        .collect();
    (set, pool)
}

/// The soak smoke preset's fat tree: 4 pods of 4 edge and 2 aggregation
/// switches, 2 core switches, locality 0.7, 48 seeded flows.
fn fattree_params() -> FatTreeParams {
    FatTreeParams {
        pods: 4,
        edge_per_pod: 4,
        agg_per_pod: 2,
        core: 2,
        flows: 48,
        locality: 0.7,
        period: (200, 800),
        cost: (1, 4),
        jitter: (0, 4),
        ..FatTreeParams::default()
    }
}

/// The soak arrival sampler: a fresh route from the topology sampler and
/// flow parameters from the smoke template (deadline factor 25).
pub struct FattreeSampler {
    p: FatTreeParams,
    rng: StdRng,
    next_id: u32,
}

impl FattreeSampler {
    pub fn new(seed: u64, salt: u64, first_id: u32) -> FattreeSampler {
        FattreeSampler {
            p: fattree_params(),
            rng: stream(seed, 30 + salt),
            next_id: first_id,
        }
    }

    pub fn next_flow(&mut self) -> SporadicFlow {
        loop {
            let route = fat_tree_path(&mut self.rng, &self.p);
            let period = self.rng.gen_range(self.p.period.0..=self.p.period.1);
            let cost = self.rng.gen_range(self.p.cost.0..=self.p.cost.1);
            let jitter = self.rng.gen_range(self.p.jitter.0..=self.p.jitter.1);
            let deadline = FATTREE_DEADLINE_FACTOR * (cost + self.p.lmax) * route.len() as i64;
            let Ok(path) = Path::from_ids(route) else {
                continue;
            };
            if let Ok(flow) =
                SporadicFlow::uniform(self.next_id, path, period, cost, jitter, deadline)
            {
                self.next_id += 1;
                return flow;
            }
        }
    }
}

/// One mutation of the standing set.
#[derive(Debug, Clone)]
pub enum WriteOp {
    Admit(SporadicFlow),
    Release(FlowId),
}

/// The `fattree-churn` writer: admits sampled arrivals while the
/// standing set is at or below its initial size and releases a random
/// standing flow above it, so the set size, and with it the cost of an
/// operation, stays put however long the run lasts.
pub struct ChurnStream {
    arrivals: FattreeSampler,
    rng: StdRng,
    standing: Vec<FlowId>,
    target: usize,
}

impl ChurnStream {
    pub fn new(seed: u64, init: &FlowSet) -> ChurnStream {
        ChurnStream {
            arrivals: FattreeSampler::new(seed, 2, 20_000),
            rng: stream(seed, 40),
            standing: init.flows().iter().map(|f| f.id).collect(),
            target: init.len(),
        }
    }

    pub fn next_op(&mut self) -> WriteOp {
        if self.standing.len() <= self.target {
            WriteOp::Admit(self.arrivals.next_flow())
        } else {
            WriteOp::Release(self.standing[self.rng.gen_range(0..self.standing.len())])
        }
    }

    /// Records whether `op` changed the standing set.
    pub fn applied(&mut self, op: &WriteOp, took_effect: bool) {
        match op {
            WriteOp::Admit(f) if took_effect => self.standing.push(f.id),
            WriteOp::Release(id) if took_effect => self.standing.retain(|s| s != id),
            _ => {}
        }
    }
}

/// The seeded 48-flow fat tree with the template's deadlines, grown by
/// in-process admission of sampled arrivals to [`FATTREE_TARGET`] flows.
fn grow_fattree(seed: u64) -> FlowSet {
    let p = fattree_params();
    let base = fat_tree(seed, &p).expect("fat tree generates");
    let flows = base
        .flows()
        .iter()
        .cloned()
        .map(|mut f| {
            f.deadline = FATTREE_DEADLINE_FACTOR * (f.max_cost() + p.lmax) * f.path.len() as i64;
            f
        })
        .collect();
    let base = FlowSet::new(base.network().clone(), flows).expect("deadline reshape");
    let mut ac = AdmissionController::new(base, AnalysisConfig::default());
    let mut arrivals = FattreeSampler::new(seed, 1, 2_000);
    let mut attempts = 0;
    while ac.flows().len() < FATTREE_TARGET && attempts < 4 * FATTREE_TARGET {
        attempts += 1;
        ac.try_admit(arrivals.next_flow());
    }
    ac.flows().clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for kind in [Kind::TinyCycle, Kind::IslandsWhatif] {
            let a = Workload::generate(kind, 7);
            let b = Workload::generate(kind, 7);
            assert_eq!(a.init_line, b.init_line);
            assert_eq!(a.pool, b.pool);
        }
        let mut a = TinyStream::new(7, 1);
        let mut b = TinyStream::new(7, 1);
        assert_eq!(a.next_flow(), b.next_flow());
    }
}
