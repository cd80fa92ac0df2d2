//! **Algorithm 1** — the paper's novel load balancing algorithm (§7).
//!
//! The pipeline per balancing iteration:
//!
//! 1. read the per-node `busy_time` performance counters;
//! 2. compute node *power* `Power(N_i) = SD̄(N_i)/Busy(N_i)` (eq. 8),
//!    *expected* SD counts `E(N_i) = total·Power_i/ΣPower` (eq. 10) and the
//!    *load imbalance* `E(N_i) − SD̄(N_i)` (eq. 9) — [`power`];
//! 3. build the data-dependency tree over node adjacency, rooted at the
//!    node of minimum imbalance, and order nodes topologically
//!    (BFS preorder, Fig. 7) — [`tree`];
//! 4. in that order, each node borrows/lends SDs from its not-yet-visited
//!    adjacent nodes, `LoadImbalance/L` per neighbour, realized by uniform
//!    ring growth along the shared frontier to preserve the contiguity the
//!    mesh partitioner established (Fig. 6) — [`transfer`];
//! 5. emit the migration plan and reset the busy-time counters
//!    (Algorithm 1 line 35) — [`algorithm`].
//!
//! The stack is **communication-aware** end to end: every step can weigh
//! *where* bytes would go, not just how many SDs move. A
//! [`CostParams`] (λ plus a [`nlheat_netmodel::CommCost`] derived from the
//! active `NetSpec`) makes the dependency forest prefer cheap links, the
//! remainder distribution favour cheap neighbours, and the frontier
//! selection gate transfers whose busy-time relief does not cover
//! `λ · migration bytes × link cost`. With `λ = 0` the whole stack
//! degenerates — byte-identically — to the paper's count-based planner.
//!
//! It is also **ghost-traffic-aware**: migration bytes are paid once, but
//! an ownership's edge cut over the SD adjacency / halo-volume graph
//! ([`SdGraph`], built from the same halo plans the runtimes execute) is
//! paid *every timestep*. A second weight μ prices each candidate move's
//! cut delta ([`ghost_delta_seconds`]) so the balancer can refuse — or
//! favour — moves by the recurring traffic they leave behind (cf.
//! Lifflander et al., arXiv:2404.16793). `μ = 0` is pinned
//! byte-identical to the ghost-blind planner, and every realized epoch is
//! recorded as an [`EpochTrace`] (plan size, migration bytes, cut
//! before/after) by both substrates.
//!
//! The tree planner is one strategy behind the pluggable [`policy`] layer:
//! both substrates select an [`policy::LbPolicy`] via
//! [`policy::LbSpec`]/[`policy::LbSchedule`] (tree, diffusion,
//! greedy-steal, the hierarchical memory-aware planner of [`hier`], or
//! the adaptive-λ/μ decorators), and every policy emits the same
//! single-hop [`MigrationPlan`] contract.
//!
//! Incremental policies only ever nudge ownership; [`repart`] adds the
//! global escape hatch: a cut-drift monitor that re-invokes the
//! multilevel partitioner on the live [`SdGraph`] when the live cut
//! decays past a threshold (or the cluster membership changes) and
//! stages the old→new diff as budgeted single-hop plans.

pub mod algorithm;
pub mod epoch;
pub mod hier;
pub mod policy;
pub mod power;
pub mod repart;
pub mod trace;
pub mod transfer;
pub mod tree;

pub use algorithm::{
    ghost_delta_seconds, iterate_rebalance, plan_rebalance, plan_rebalance_ghost_aware,
    plan_rebalance_with_cost, CostParams, MigrationPlan, Move, PlanComm, SdBytes,
};
pub use epoch::{EpochController, EpochInput, EpochPlan, EpochRecords, EpochSetup};
pub use hier::{hierarchy_is_degenerate, plan_hierarchical, HierPolicy};
pub use nlheat_partition::SdGraph;
pub use policy::{
    AdaptiveLambdaPolicy, AdaptiveMuPolicy, DiffusionPolicy, GreedyStealPolicy, LbNetwork,
    LbPolicy, LbSchedule, LbSpec, TreePolicy,
};
pub use power::{compute_metrics, LoadMetrics};
pub use repart::{DriftInfo, RepartitionPolicy};
pub use trace::EpochTrace;
pub use transfer::{select_transfer, select_transfer_scored};
pub use tree::{build_forest, build_forest_weighted, DependencyTree};
