//! The discrete-event engine: per-step task graphs, asynchronous per-node
//! clocks (no global barrier between steps, like the real solver), and
//! load-balancing epochs.

use crate::cost::CostModel;
pub use nlheat_core::balance::LbSpec;
use nlheat_core::balance::{compute_metrics, EpochTrace, LbNetwork, LbPolicy, LbSchedule, Move};
use nlheat_core::ownership::Ownership;
use nlheat_core::scenario::{
    active_at, failed_at, modeled_busy, ClusterEvent, LbInput, PartitionSpec,
};
use nlheat_core::workload::WorkModel;
use nlheat_mesh::{case_areas, fill_halo_patches, Grid, PatchSource, SdGrid, Stencil};
use nlheat_netmodel::{LinkClass, Msg, NetSpec};
use nlheat_partition::{patch_wire_bytes, SdGraph};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

// The declared node shape lives with `ClusterSpec` in `nlheat-core`: one
// source of truth both the virtual cluster and the real localities are
// built from.
pub use nlheat_core::scenario::VirtualNode;

/// Full simulation configuration — the low-level execution config of the
/// discrete-event simulator. Prefer describing experiments with
/// [`nlheat_core::scenario::Scenario`] (which compiles into this via
/// `SimConfig::from(&scenario)`); `SimConfig` remains the compatibility
/// layer for code that drives the engine directly.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Mesh cells per side.
    pub mesh_n: usize,
    /// Horizon multiplier (ε = m·h; the paper uses 8).
    pub eps_mult: f64,
    /// SD side length in cells.
    pub sd_size: usize,
    /// Timesteps to simulate.
    pub n_steps: usize,
    /// The virtual cluster.
    pub nodes: Vec<VirtualNode>,
    /// Network model (shared with the real fabric via `nlheat-netmodel`).
    pub net: NetSpec,
    /// Compute-cost model.
    pub cost: CostModel,
    /// Initial distribution (shared with the real runtime).
    pub partition: PartitionSpec,
    /// Case-1/case-2 overlap on/off (ablation A2).
    pub overlap: bool,
    /// Per-SD work factors.
    pub work: WorkModel,
    /// Time-varying workload: `(from_step, model)` switch points, sorted by
    /// step. At step `s` the last entry with `from_step ≤ s` overrides
    /// `work` — this models a *propagating* crack (the paper's §9 outlook
    /// toward nonlocal fracture), where the cheap band migrates through the
    /// domain and the balancer must keep chasing it. The real runtime
    /// executes the same schedule.
    pub work_schedule: Vec<(usize, WorkModel)>,
    /// Elastic cluster-membership timeline (`(from_step, event)`, sorted
    /// by step; see [`ClusterEvent`]). Applied exactly like the real
    /// runtime: events set the planner's active-rank mask and the failure
    /// mask the ghost counters honour; nodes keep executing the SDs they
    /// own until a replan evacuates them.
    pub cluster_events: Vec<(usize, ClusterEvent)>,
    /// Optional load balancing.
    pub lb: Option<LbSchedule>,
    /// What the balancing policies plan from: simulated busy windows (the
    /// default) or deterministic modeled busy times ([`LbInput::Modeled`],
    /// the cross-substrate parity mode).
    pub lb_input: LbInput,
}

impl SimConfig {
    /// The workload in effect at `step`.
    fn work_at(&self, step: usize) -> &WorkModel {
        nlheat_core::scenario::work_at(&self.work, &self.work_schedule, step)
    }
}

impl SimConfig {
    /// Paper-style configuration over `nodes`.
    pub fn paper(mesh_n: usize, sd_size: usize, n_steps: usize, nodes: Vec<VirtualNode>) -> Self {
        let grid = Grid::square(mesh_n, 8.0);
        let stencil = Stencil::build(grid.h, grid.eps);
        SimConfig {
            mesh_n,
            eps_mult: 8.0,
            sd_size,
            n_steps,
            nodes,
            net: NetSpec::cluster(),
            cost: CostModel::calibrated(stencil.len()),
            partition: PartitionSpec::Metis { seed: 1 },
            overlap: true,
            work: WorkModel::Uniform,
            work_schedule: Vec::new(),
            cluster_events: Vec::new(),
            lb: None,
            lb_input: LbInput::Measured,
        }
    }
}

/// Simulation outcome.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// Virtual seconds from step 0 to the last node finishing.
    pub total_time: f64,
    /// Per-node total busy seconds.
    pub busy: Vec<f64>,
    /// Per-node busy fraction: busy / (cores · total_time).
    pub busy_fraction: Vec<f64>,
    /// Bytes crossing node boundaries.
    pub cross_bytes: u64,
    /// Messages crossing node boundaries.
    pub messages: u64,
    /// SD counts per node after each LB epoch.
    pub lb_history: Vec<Vec<usize>>,
    /// Total SDs migrated.
    pub migrations: usize,
    /// Total migration payload bytes (a subset of `cross_bytes`).
    pub migration_bytes: u64,
    /// Migration payload bytes that crossed a rack boundary (per the
    /// configured [`NetSpec`]'s link classes; 0 for rack-less models).
    pub inter_rack_migration_bytes: u64,
    /// Ghost-exchange payload bytes between nodes over the whole run
    /// (`cross_bytes` minus the migration traffic).
    pub ghost_bytes: u64,
    /// Ghost-exchange bytes that crossed a rack boundary — the recurring
    /// traffic μ-weighted (ghost-aware) balancing exists to shrink.
    pub inter_rack_ghost_bytes: u64,
    /// One [`EpochTrace`] per realized balancing epoch: plan size,
    /// migration bytes, and the ghost-traffic cut before/after.
    pub epoch_traces: Vec<EpochTrace>,
    /// The realized migration plan of each epoch, in epoch order (empty
    /// plans are skipped, matching `lb_history`).
    pub lb_plans: Vec<Vec<Move>>,
    /// Final ownership.
    pub final_ownership: Ownership,
}

/// Run-constant geometry. Only the grid and the halo width are kept: an
/// SD's halo patches are a pure function of them, regenerated on demand
/// into a reused buffer, so the simulator holds no per-SD halo plan.
struct Geometry {
    sds: SdGrid,
    halo: i64,
}

impl Geometry {
    fn build(cfg: &SimConfig) -> Self {
        let grid = Grid::square(cfg.mesh_n, cfg.eps_mult);
        Geometry {
            sds: SdGrid::tile_mesh(cfg.mesh_n, cfg.mesh_n, cfg.sd_size),
            halo: grid.halo,
        }
    }
}

/// One cross-node ghost transfer, precomputed in exact arrival-call order
/// (destination SDs ascending, patches in halo order) so replaying the
/// list hits the stateful [`nlheat_netmodel::NetModel`] with the identical
/// call sequence the per-step scan used to produce. 20 bytes: the wire
/// bytes are re-derived from `area` at replay.
struct GhostSend {
    src: u32,
    dst: u32,
    /// Destination SD the payload feeds.
    sd: u32,
    /// Patch area in cells: prices the sender-side pack delay and, through
    /// [`patch_wire_bytes`], the payload on the link.
    area: u32,
    /// Whether the link crosses a rack boundary under the run's topology.
    inter_rack: bool,
}

/// Everything the event loop derives from ownership alone, in O(1) words
/// per SD plus one entry per cross-node patch. Ownership only changes at
/// realized balancing epochs, so the view is built once and rebuilt on
/// migration, in a single pass that regenerates each SD's halo patches
/// into one reused buffer.
struct OwnershipView {
    owners: Vec<u32>,
    /// Per-node owned SDs, ascending id (the order `owned_by` yields).
    owned: Vec<Vec<u32>>,
    /// Cross-node ghost sends in arrival-call order.
    sends: Vec<GhostSend>,
    /// Per-node cells copied for node-local halo patches each step.
    local_copy_cells: Vec<i64>,
    /// Per-SD (case-1 area, case-2 area) under this ownership.
    splits: Vec<(i64, i64)>,
    /// Per-SD ghost cells drawn from neighbouring SDs, whatever their
    /// owner (prices the unpack once the SD's ghosts arrive).
    ghost_cells: Vec<f64>,
}

impl OwnershipView {
    fn build(
        geo: &Geometry,
        ownership: &Ownership,
        nn: usize,
        comm: &nlheat_netmodel::CommCost,
    ) -> Self {
        let owners = ownership.owners().to_vec();
        let n_sds = geo.sds.count();
        let mut owned: Vec<Vec<u32>> = vec![Vec::new(); nn];
        let mut sends = Vec::new();
        let mut local_copy_cells = vec![0i64; nn];
        let mut splits = Vec::with_capacity(n_sds);
        let mut ghost_cells = Vec::with_capacity(n_sds);
        let mut patches = Vec::new();
        for sd in geo.sds.ids() {
            let dst_node = owners[sd as usize] as usize;
            owned[dst_node].push(sd);
            fill_halo_patches(&geo.sds, geo.halo, sd, &mut patches);
            let mut cells = 0i64;
            for patch in &patches {
                if let PatchSource::Sd(src) = patch.source {
                    let area = patch.dst_rect.area();
                    cells += area;
                    let src_node = owners[src as usize] as usize;
                    if src_node == dst_node {
                        local_copy_cells[dst_node] += area;
                        continue;
                    }
                    sends.push(GhostSend {
                        src: src_node as u32,
                        dst: dst_node as u32,
                        sd,
                        area: u32::try_from(area).expect("halo patch area fits in u32"),
                        inter_rack: comm.link_class(src_node as u32, dst_node as u32)
                            == LinkClass::InterRack,
                    });
                }
            }
            ghost_cells.push(cells as f64);
            splits.push(case_areas(geo.sds.sd, geo.halo, &patches, |n| {
                owners[n as usize] as usize != dst_node
            }));
        }
        OwnershipView {
            owners,
            owned,
            sends,
            local_copy_cells,
            splits,
            ghost_cells,
        }
    }
}

/// Per-step scratch buffers reused across the whole run: the event loop
/// proper performs no heap allocation once these reach steady-state size.
struct StepScratch {
    /// Latest ghost arrival per destination SD this step
    /// (`NEG_INFINITY`: none). Only the maximum matters, and `f64::max` is
    /// exact and order-independent over the loop's non-NaN times.
    latest_arrival: Vec<f64>,
    /// (ready, duration) task list for the node being scheduled.
    tasks: Vec<(f64, f64)>,
    /// Core-free-time heap for the list scheduler.
    free: BinaryHeap<Reverse<Ordered>>,
}

impl StepScratch {
    fn new(sd_count: usize, max_cores: usize) -> Self {
        StepScratch {
            latest_arrival: vec![f64::NEG_INFINITY; sd_count],
            tasks: Vec::new(),
            free: BinaryHeap::with_capacity(max_cores.max(1)),
        }
    }
}

/// List-schedule `tasks` (ready, duration) onto `cores` cores that are
/// free from `t0`, reusing the caller's `free` heap (cleared on entry) so
/// the per-step hot path never allocates. Returns (finish time, busy
/// seconds).
///
/// `total_cmp` orders every value the simulator produces exactly like the
/// previous `partial_cmp` sort (virtual times are finite and
/// non-negative), and equal (ready, duration) pairs are interchangeable
/// under list scheduling, so the unstable sort leaves results bit-identical.
fn list_schedule(
    tasks: &mut [(f64, f64)],
    cores: usize,
    t0: f64,
    free: &mut BinaryHeap<Reverse<Ordered>>,
) -> (f64, f64) {
    if tasks.is_empty() {
        return (t0, 0.0);
    }
    tasks.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.total_cmp(&b.1)));
    free.clear();
    free.extend((0..cores.max(1)).map(|_| Reverse(Ordered(t0))));
    let mut finish = t0;
    let mut busy = 0.0;
    for &(ready, dur) in tasks.iter() {
        let Reverse(Ordered(core_free)) = free.pop().unwrap();
        let start = ready.max(core_free);
        let end = start + dur;
        busy += dur;
        finish = finish.max(end);
        free.push(Reverse(Ordered(end)));
    }
    (finish, busy)
}

/// Total-ordered f64 wrapper for the scheduler heap.
#[derive(PartialEq)]
struct Ordered(f64);
impl Eq for Ordered {}
impl PartialOrd for Ordered {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ordered {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Run the simulation.
pub fn simulate(cfg: &SimConfig) -> SimRun {
    let geo = Geometry::build(cfg);
    let n_nodes = cfg.nodes.len() as u32;
    // Reject unpriceable work models at configuration time, mirroring the
    // real runtime's up-front validation.
    cfg.work.validate(&geo.sds);
    for (_, model) in &cfg.work_schedule {
        model.validate(&geo.sds);
    }
    let owners0 = cfg.partition.initial_owners(&geo.sds, n_nodes);
    let mut ownership = Ownership::new(geo.sds, owners0, n_nodes);

    let nn = cfg.nodes.len();
    let mut node_time = vec![0.0f64; nn];
    let mut busy_total = vec![0.0f64; nn];
    let mut busy_window = vec![0.0f64; nn]; // since last LB counter reset
    let mut net = cfg.net.build(nn);
    let mut cross_bytes = 0u64;
    let mut messages = 0u64;
    let mut lb_history: Vec<Vec<usize>> = Vec::new();
    let mut migrations = 0usize;
    let mut migration_bytes = 0u64;
    let mut inter_rack_migration_bytes = 0u64;
    let mut ghost_bytes = 0u64;
    let mut inter_rack_ghost_bytes = 0u64;
    let mut epoch_traces: Vec<EpochTrace> = Vec::new();
    let mut lb_plans: Vec<Vec<Move>> = Vec::new();
    // Worst ghost-arrival delay per node per step, accumulated per
    // balancing window — the adaptive-μ feedback signal (virtual-time
    // analogue of the real driver's wall-clock measurement).
    let mut ghost_wait_window = vec![0.0f64; nn];
    let speeds: Vec<f64> = cfg.nodes.iter().map(|n| n.speed).collect();
    // Planner-facing cost estimate of the same network the event loop
    // simulates — the simulator mirrors `core::dist`'s wiring exactly:
    // one policy instance lives across epochs (stateful policies learn
    // from the simulated migration stalls), and the SD adjacency /
    // halo-volume graph it prices μ against is built from the very halo
    // patches whose messages the loop below charges. Only planners read the
    // graph and the footprints derived from it, so a run without a
    // balancer builds neither.
    let mut lb_net = LbNetwork::for_sd_tiles(&cfg.net, geo.sds.cells_per_sd());
    if cfg.lb.is_some() {
        let sd_graph = Arc::new(SdGraph::build(&geo.sds, geo.halo));
        if cfg.nodes.iter().any(|n| n.memory_bytes.is_some()) {
            let caps: Vec<u64> = cfg
                .nodes
                .iter()
                .map(|n| n.memory_bytes.unwrap_or(u64::MAX))
                .collect();
            lb_net = lb_net.with_memory(Arc::new(caps), Arc::new(sd_graph.footprints()));
        }
        lb_net = lb_net.with_sd_graph(sd_graph);
    }
    let sd_tile_bytes = lb_net.sd_bytes.clone();
    // Link classes for the virtual-time ghost accounting: the very
    // CommCost the planner prices moves with, so counter and μ term can
    // never disagree on what crosses a rack.
    let comm = lb_net.comm;
    let mut policy: Option<Box<dyn LbPolicy>> = cfg.lb.as_ref().map(|lb| {
        lb.validate();
        lb.spec.build()
    });
    let mut last_barrier = 0.0f64;
    let max_cores = cfg.nodes.iter().map(|n| n.cores).max().unwrap_or(1);
    let mut scratch = StepScratch::new(geo.sds.count(), max_cores);
    let mut view = OwnershipView::build(&geo, &ownership, nn, &comm);

    for step in 0..cfg.n_steps {
        // --- ghost messages: (dst node, dst sd) -> arrival time ---
        // replay the precomputed send list (destination SDs in id order,
        // the order sender NICs serialize in).
        scratch.latest_arrival.fill(f64::NEG_INFINITY);
        // Failure mask of this step: transfers to or from a fail-stopped
        // rank still happen (the nodes keep executing until evacuated, so
        // virtual time is unchanged) but stop counting toward the
        // planner-grade counters — mirroring the real runtime, and
        // keeping `cross_bytes == ghost_bytes + migration_bytes` intact.
        let failed_now =
            (!cfg.cluster_events.is_empty()).then(|| failed_at(nn, &cfg.cluster_events, step));
        for s in &view.sends {
            // pack cost delays the send readiness a little
            let ready = node_time[s.src as usize] + cfg.cost.copy_sec_per_cell * f64::from(s.area);
            let bytes = patch_wire_bytes(i64::from(s.area));
            let arr = net.arrival(
                ready,
                &Msg {
                    src: s.src,
                    dst: s.dst,
                    bytes,
                },
            );
            let latest = &mut scratch.latest_arrival[s.sd as usize];
            *latest = latest.max(arr);
            let counted = failed_now
                .as_ref()
                .is_none_or(|f| !f[s.src as usize] && !f[s.dst as usize]);
            if counted {
                cross_bytes += bytes;
                ghost_bytes += bytes;
                if s.inter_rack {
                    inter_rack_ghost_bytes += bytes;
                }
                messages += 1;
            }
        }

        // --- per-node task graphs and scheduling ---
        let work = cfg.work_at(step);
        for node in 0..nn {
            let spec = cfg.nodes[node];
            let owned = &view.owned[node];
            // serial driver phase: local halo copies + task spawns
            let n_tasks_approx = owned.len().max(1);
            let serial = cfg.cost.copy_sec_per_cell * view.local_copy_cells[node] as f64
                + cfg.cost.spawn_sec * n_tasks_approx as f64;
            let t0 = node_time[node] + serial;

            scratch.tasks.clear();
            let mut step_ghost_delay = 0.0f64;
            for &sd in owned {
                let factor = work.factor(&geo.sds, sd);
                let (case1_area, case2_area) = view.splits[sd as usize];
                let latest = scratch.latest_arrival[sd as usize];
                let ghosts_in = if latest == f64::NEG_INFINITY {
                    t0
                } else {
                    let unpack = cfg.cost.copy_sec_per_cell * view.ghost_cells[sd as usize];
                    let ready = t0.max(latest) + unpack;
                    step_ghost_delay = step_ghost_delay.max(ready - t0);
                    ready
                };
                if cfg.overlap {
                    if case2_area > 0 {
                        scratch
                            .tasks
                            .push((t0, cfg.cost.task_sec(case2_area, factor, spec.speed)));
                    }
                    if case1_area > 0 {
                        scratch
                            .tasks
                            .push((ghosts_in, cfg.cost.task_sec(case1_area, factor, spec.speed)));
                    }
                } else {
                    scratch.tasks.push((
                        ghosts_in,
                        cfg.cost
                            .task_sec(geo.sds.cells_per_sd() as i64, factor, spec.speed),
                    ));
                }
            }
            let (finish, busy) =
                list_schedule(&mut scratch.tasks, spec.cores, t0, &mut scratch.free);
            node_time[node] = finish;
            busy_total[node] += busy;
            busy_window[node] += busy;
            ghost_wait_window[node] += step_ghost_delay;
        }

        // --- load-balancing epoch (the configured LbSpec policy) ---
        let do_lb = cfg
            .lb
            .as_ref()
            .is_some_and(|lb| (step + 1) % lb.period == 0 && step + 1 < cfg.n_steps);
        if do_lb {
            // collective: everyone synchronizes for the gather/plan
            let barrier = node_time.iter().cloned().fold(0.0, f64::max) + cfg.cost.lb_plan_sec;
            for t in node_time.iter_mut() {
                *t = barrier;
            }
            let window = (barrier - last_barrier).max(1e-12);
            let policy = policy.as_mut().expect("lb configured");
            if cfg.lb_input == LbInput::Measured {
                // Pre-plan feedback: this window's worst ghost stall, so
                // an adaptive-μ decorator steers *this* epoch's plan
                // (modeled planning disables runtime feedback).
                let worst_ghost = ghost_wait_window.iter().cloned().fold(0.0, f64::max);
                policy.observe_ghost_stall(worst_ghost / window);
            }
            let busy_vec: Vec<f64> = match cfg.lb_input {
                LbInput::Measured => busy_window.iter().map(|&b| b.max(1e-12)).collect(),
                // Deterministic planner input derived from the declared
                // work model — byte-identical to what the real runtime
                // computes for the same scenario.
                LbInput::Modeled => modeled_busy(
                    &geo.sds,
                    &view.owners,
                    n_nodes,
                    cfg.work_at(step),
                    &speeds,
                    cfg.cost.sec_per_dp,
                ),
            };
            // Under an elastic timeline the planner sees the membership
            // mask in effect at this epoch (shared `active_at`, so both
            // substrates see the same mask for the same scenario).
            if !cfg.cluster_events.is_empty() {
                lb_net.active = Some(Arc::new(active_at(nn, &cfg.cluster_events, step + 1)));
            }
            let metrics = compute_metrics(&ownership.counts(), &busy_vec);
            let plan = policy.plan(&ownership, &metrics, &lb_net);
            // An empty plan pays the planning barrier but emits no
            // metrics: idle epochs must not skew migration accounting or
            // record no-op history entries.
            if !plan.moves.is_empty() {
                epoch_traces.push(
                    EpochTrace::record(step + 1, policy.name(), &plan, &ownership, &lb_net)
                        .with_drift(policy.drift_info()),
                );
                // migration costs: tile payloads over the network
                net.reset(barrier);
                for mv in &plan.moves {
                    let bytes = sd_tile_bytes.get(mv.sd);
                    let arr = net.arrival(
                        node_time[mv.from as usize],
                        &Msg {
                            src: mv.from,
                            dst: mv.to,
                            bytes,
                        },
                    );
                    let dst = mv.to as usize;
                    node_time[dst] = node_time[dst].max(arr);
                    cross_bytes += bytes;
                    messages += 1;
                }
                migrations += plan.moves.len();
                migration_bytes += plan.comm.total_bytes;
                inter_rack_migration_bytes += plan.comm.inter_rack_bytes();
                // take ownership of the plan instead of cloning the full
                // owner map and move list out of it
                ownership = plan.new_ownership;
                lb_plans.push(plan.moves);
                lb_history.push(ownership.counts());
                view = OwnershipView::build(&geo, &ownership, nn, &comm);
            }
            // Feedback for adaptive policies: how much of the balancing
            // window the epoch's migrations stalled the cluster.
            if cfg.lb_input == LbInput::Measured {
                let after = node_time.iter().cloned().fold(0.0, f64::max);
                policy.observe_stall((after - barrier) / window);
            }
            last_barrier = barrier;
            // Algorithm 1 line 35: reset the busy and ghost-stall windows
            for b in busy_window.iter_mut() {
                *b = 0.0;
            }
            for g in ghost_wait_window.iter_mut() {
                *g = 0.0;
            }
        }
    }

    let total_time = node_time.iter().cloned().fold(0.0, f64::max);
    let busy_fraction = busy_total
        .iter()
        .zip(&cfg.nodes)
        .map(|(&b, n)| {
            if total_time > 0.0 {
                b / (n.cores as f64 * total_time)
            } else {
                0.0
            }
        })
        .collect();
    SimRun {
        total_time,
        busy: busy_total,
        busy_fraction,
        cross_bytes,
        messages,
        lb_history,
        migrations,
        migration_bytes,
        inter_rack_migration_bytes,
        ghost_bytes,
        inter_rack_ghost_bytes,
        epoch_traces,
        lb_plans,
        final_ownership: ownership,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_cfg(n_sds_side: usize, cores: usize) -> SimConfig {
        // 400x400 paper mesh decomposed into n x n SDs, one node.
        let sd = 400 / n_sds_side;
        SimConfig::paper(400, sd, 5, vec![VirtualNode::with_cores(cores)])
    }

    #[test]
    fn deterministic() {
        let cfg = shared_cfg(4, 2);
        let a = simulate(&cfg);
        let b = simulate(&cfg);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.busy, b.busy);
    }

    #[test]
    fn single_sd_cannot_use_extra_cores() {
        // Fig. 9's 1-SD data point: speedup stays 1.
        let t1 = simulate(&shared_cfg(1, 1)).total_time;
        let t4 = simulate(&shared_cfg(1, 4)).total_time;
        assert!((t1 / t4) < 1.05, "one task cannot speed up: {}", t1 / t4);
    }

    #[test]
    fn many_sds_scale_with_cores() {
        // Fig. 9's 64-SD point: 4 cores approach 4x.
        let t1 = simulate(&shared_cfg(8, 1)).total_time;
        let t4 = simulate(&shared_cfg(8, 4)).total_time;
        let speedup = t1 / t4;
        assert!(
            (3.0..=4.2).contains(&speedup),
            "64 SDs on 4 cores: speedup {speedup}"
        );
    }

    #[test]
    fn distributed_nodes_scale() {
        // Fig. 13 shape: 1 vs 4 single-core nodes on a fixed mesh.
        let mk = |n: usize| {
            SimConfig::paper(
                400,
                50,
                5,
                (0..n).map(|_| VirtualNode::with_cores(1)).collect(),
            )
        };
        let t1 = simulate(&mk(1)).total_time;
        let t4 = simulate(&mk(4)).total_time;
        let speedup = t1 / t4;
        assert!((3.0..=4.2).contains(&speedup), "4-node speedup {speedup}");
    }

    #[test]
    fn communication_counted_only_across_nodes() {
        let single = simulate(&shared_cfg(8, 4));
        assert_eq!(single.cross_bytes, 0, "one node never crosses");
        let mk = SimConfig::paper(
            400,
            50,
            5,
            vec![VirtualNode::with_cores(1), VirtualNode::with_cores(1)],
        );
        let two = simulate(&mk);
        assert!(two.cross_bytes > 0);
        assert!(two.messages > 0);
    }

    #[test]
    fn metis_beats_strip_on_cross_traffic() {
        // Ablation A1 at test scale: block-ish multilevel partitions move
        // fewer ghost bytes than strips for 4 nodes.
        let mut metis = SimConfig::paper(
            400,
            25,
            3,
            (0..4).map(|_| VirtualNode::with_cores(1)).collect(),
        );
        metis.partition = PartitionSpec::Metis { seed: 1 };
        let mut strip = metis.clone();
        strip.partition = PartitionSpec::Strip;
        let mb = simulate(&metis).cross_bytes;
        let sb = simulate(&strip).cross_bytes;
        assert!(mb < sb, "metis {mb} bytes should undercut strip {sb} bytes");
    }

    #[test]
    fn overlap_helps_on_slow_network() {
        // Every SD borders foreign territory (4 SDs per node, quadrants)
        // and the latency is comparable to one SD's compute time, so the
        // case-2 work is exactly what hides the wait.
        let mut cfg = SimConfig::paper(
            200,
            50,
            5,
            (0..4).map(|_| VirtualNode::with_cores(1)).collect(),
        );
        cfg.net = NetSpec::shared(5e-3, 1e9);
        cfg.overlap = true;
        let with = simulate(&cfg).total_time;
        cfg.overlap = false;
        let without = simulate(&cfg).total_time;
        assert!(
            with < without * 0.95,
            "overlap {with} must clearly beat no-overlap {without} on a slow net"
        );
    }

    #[test]
    fn lb_balances_heterogeneous_nodes() {
        let mut cfg = SimConfig::paper(
            400,
            25,
            24,
            vec![
                VirtualNode {
                    cores: 1,
                    speed: 2.0,
                    memory_bytes: None,
                },
                VirtualNode {
                    cores: 1,
                    speed: 1.0,
                    memory_bytes: None,
                },
                VirtualNode {
                    cores: 1,
                    speed: 1.0,
                    memory_bytes: None,
                },
                VirtualNode {
                    cores: 1,
                    speed: 1.0,
                    memory_bytes: None,
                },
            ],
        );
        cfg.lb = Some(LbSchedule::every(4));
        let run = simulate(&cfg);
        assert!(run.migrations > 0);
        let counts = run.final_ownership.counts();
        // fast node should end up with roughly 2/5 of 256 SDs ≈ 102
        assert!(
            counts[0] > counts[1],
            "fast node must hold more SDs: {counts:?}"
        );
        // and total preserved
        assert_eq!(counts.iter().sum::<usize>(), 256);
    }

    #[test]
    fn lb_reduces_makespan_under_heterogeneity() {
        let nodes = vec![
            VirtualNode {
                cores: 1,
                speed: 2.0,
                memory_bytes: None,
            },
            VirtualNode {
                cores: 1,
                speed: 1.0,
                memory_bytes: None,
            },
            VirtualNode {
                cores: 1,
                speed: 1.0,
                memory_bytes: None,
            },
            VirtualNode {
                cores: 1,
                speed: 1.0,
                memory_bytes: None,
            },
        ];
        let mut base = SimConfig::paper(400, 25, 24, nodes);
        base.lb = None;
        let without = simulate(&base).total_time;
        base.lb = Some(LbSchedule::every(4));
        let with = simulate(&base).total_time;
        assert!(
            with < without,
            "LB {with} must beat no-LB {without} on a 2x-fast node"
        );
    }

    /// A schedule that never fires attaches the SD graph and footprints
    /// to the planner's view but must leave the run exactly as without a
    /// balancer.
    #[test]
    fn idle_lb_schedule_matches_no_lb_bitwise() {
        let nodes = (0..4)
            .map(|i| VirtualNode {
                cores: 1 + i % 2,
                speed: 1.0 + 0.5 * i as f64,
                memory_bytes: Some(1 << 30),
            })
            .collect();
        let mut cfg = SimConfig::paper(200, 25, 6, nodes);
        cfg.net = NetSpec::shared(1e-4, 1e9);
        let without = simulate(&cfg);
        cfg.lb = Some(LbSchedule::every(7));
        let idle = simulate(&cfg);
        assert_eq!(idle.total_time.to_bits(), without.total_time.to_bits());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&idle.busy), bits(&without.busy));
        assert_eq!(idle.cross_bytes, without.cross_bytes);
        assert_eq!(idle.ghost_bytes, without.ghost_bytes);
        assert_eq!(idle.messages, without.messages);
        assert_eq!(idle.migrations, 0);
        assert!(idle.lb_plans.is_empty() && idle.epoch_traces.is_empty());
        assert_eq!(
            idle.final_ownership.owners(),
            without.final_ownership.owners()
        );
    }

    #[test]
    #[should_panic(expected = "lambda must be finite")]
    fn degenerate_lambda_rejected_at_configuration() {
        let _ = LbSchedule::every(4).with_spec(LbSpec::Tree {
            lambda: f64::NAN,
            mu: 0.0,
        });
    }

    #[test]
    fn noop_epochs_emit_no_metrics() {
        // One node: every plan is a no-op. The balancer must not record
        // history entries or migration traffic for idle epochs (it still
        // pays the planning barrier).
        let mut cfg = shared_cfg(4, 2);
        cfg.lb = Some(LbSchedule::every(2));
        let run = simulate(&cfg);
        assert_eq!(run.migrations, 0);
        assert_eq!(run.migration_bytes, 0);
        assert!(
            run.lb_history.is_empty(),
            "no-op epochs must not emit metrics: {:?}",
            run.lb_history
        );
        assert!(
            run.epoch_traces.is_empty(),
            "no-op epochs must not emit traces: {:?}",
            run.epoch_traces
        );
    }

    #[test]
    fn ghost_bytes_split_out_of_cross_traffic() {
        // Two uniform nodes, no LB: all cross traffic is ghost traffic
        // and a rack-less model never crosses racks.
        let cfg = SimConfig::paper(
            400,
            50,
            5,
            vec![VirtualNode::with_cores(1), VirtualNode::with_cores(1)],
        );
        let run = simulate(&cfg);
        assert!(run.ghost_bytes > 0);
        assert_eq!(run.ghost_bytes, run.cross_bytes);
        assert_eq!(run.inter_rack_ghost_bytes, 0, "uniform model has no racks");
        // 2 racks x 1 node: every cross message is inter-rack
        let mut racked = SimConfig::paper(
            400,
            50,
            5,
            vec![VirtualNode::with_cores(1), VirtualNode::with_cores(1)],
        );
        racked.net = NetSpec::Topology(nlheat_netmodel::TopologySpec::two_tier(1));
        let rr = simulate(&racked);
        assert_eq!(rr.inter_rack_ghost_bytes, rr.ghost_bytes);
        // and with LB on, migration bytes stay separate from ghost bytes
        let mut lb = SimConfig::paper(
            400,
            25,
            12,
            vec![
                VirtualNode {
                    cores: 1,
                    speed: 2.0,
                    memory_bytes: None,
                },
                VirtualNode {
                    cores: 1,
                    speed: 1.0,
                    memory_bytes: None,
                },
            ],
        );
        lb.lb = Some(LbSchedule::every(4));
        let lr = simulate(&lb);
        assert!(lr.migrations > 0);
        assert_eq!(lr.cross_bytes, lr.ghost_bytes + lr.migration_bytes);
    }

    #[test]
    fn epoch_traces_record_the_cut_from_the_sim_graph() {
        let mut cfg = SimConfig::paper(
            400,
            25,
            24,
            vec![
                VirtualNode {
                    cores: 1,
                    speed: 2.0,
                    memory_bytes: None,
                },
                VirtualNode {
                    cores: 1,
                    speed: 1.0,
                    memory_bytes: None,
                },
                VirtualNode {
                    cores: 1,
                    speed: 1.0,
                    memory_bytes: None,
                },
                VirtualNode {
                    cores: 1,
                    speed: 1.0,
                    memory_bytes: None,
                },
            ],
        );
        cfg.lb = Some(LbSchedule::every(4));
        let run = simulate(&cfg);
        assert!(run.migrations > 0);
        assert_eq!(run.epoch_traces.len(), run.lb_history.len());
        let moves: usize = run.epoch_traces.iter().map(|t| t.moves).sum();
        assert_eq!(moves, run.migrations, "traces cover every migration");
        for t in &run.epoch_traces {
            assert_eq!(t.policy, "tree");
            assert!(t.ghost_bytes_before > 0, "sim always attaches its graph");
            assert!(t.migration_bytes > 0);
        }
    }

    #[test]
    fn mu_reduces_steady_state_ghost_cut() {
        // Ghost-aware balancing end to end in the simulator: a Fig.-14
        // lopsided start on a 2-rack cluster forces a mass
        // redistribution, and μ shapes *where* the cross-rack territories
        // grow. The shaped plan must leave strictly less recurring
        // inter-rack ghost traffic (the recorded cut and the counted
        // virtual-time bytes both say so) at unchanged makespan.
        let nodes: Vec<VirtualNode> = (0..4).map(|_| VirtualNode::with_cores(1)).collect();
        let sds = SdGrid::tile_mesh(400, 400, 25);
        let mut owners = vec![0u32; 256];
        owners[sds.id(15, 0) as usize] = 1;
        owners[sds.id(0, 15) as usize] = 2;
        owners[sds.id(15, 15) as usize] = 3;
        let mut cfg = SimConfig::paper(400, 25, 24, nodes);
        cfg.partition = PartitionSpec::Explicit(owners);
        cfg.net = NetSpec::Topology(nlheat_netmodel::TopologySpec {
            ranks_per_node: 1,
            nodes_per_rack: 2,
            intra_node: nlheat_netmodel::LinkSpec::new(1e-7, 5e9),
            intra_rack: nlheat_netmodel::LinkSpec::new(1e-4, 1e8),
            inter_rack: nlheat_netmodel::LinkSpec::new(4e-4, 2.5e7),
        });
        cfg.lb = Some(LbSchedule::every(4).with_spec(LbSpec::tree(0.0)));
        let blind = simulate(&cfg);
        cfg.lb = Some(LbSchedule::every(4).with_spec(LbSpec::tree(0.0).with_mu(0.25)));
        let aware = simulate(&cfg);
        assert!(blind.migrations > 0 && aware.migrations > 0);
        let last_cut = |run: &SimRun| {
            run.epoch_traces
                .last()
                .unwrap()
                .inter_rack_ghost_bytes_after
        };
        assert!(
            last_cut(&aware) < last_cut(&blind),
            "μ must leave a better inter-rack cut: {} vs {}",
            last_cut(&aware),
            last_cut(&blind)
        );
        assert!(
            aware.inter_rack_ghost_bytes < blind.inter_rack_ghost_bytes,
            "recurring inter-rack traffic must shrink: {} vs {}",
            aware.inter_rack_ghost_bytes,
            blind.inter_rack_ghost_bytes
        );
        assert!(
            aware.total_time <= blind.total_time * 1.05,
            "makespan must stay within noise: {} vs {}",
            aware.total_time,
            blind.total_time
        );
    }

    #[test]
    fn diffusion_and_greedy_balance_heterogeneous_nodes() {
        // The policy seam end to end in the simulator: both alternative
        // policies must migrate work toward the 2x-fast node, like the
        // tree planner does in `lb_balances_heterogeneous_nodes`.
        for spec in [
            LbSpec::diffusion(1.0, 8),
            LbSpec::greedy_steal(1),
            LbSpec::adaptive(LbSpec::tree(0.0), 0.2),
        ] {
            let mut cfg = SimConfig::paper(
                400,
                25,
                24,
                vec![
                    VirtualNode {
                        cores: 1,
                        speed: 2.0,
                        memory_bytes: None,
                    },
                    VirtualNode {
                        cores: 1,
                        speed: 1.0,
                        memory_bytes: None,
                    },
                    VirtualNode {
                        cores: 1,
                        speed: 1.0,
                        memory_bytes: None,
                    },
                    VirtualNode {
                        cores: 1,
                        speed: 1.0,
                        memory_bytes: None,
                    },
                ],
            );
            cfg.lb = Some(LbSchedule::every(4).with_spec(spec.clone()));
            let run = simulate(&cfg);
            assert!(run.migrations > 0, "{} must migrate", spec.name());
            let counts = run.final_ownership.counts();
            assert!(
                counts[0] > counts[1],
                "{}: fast node must hold more SDs: {counts:?}",
                spec.name()
            );
            assert_eq!(counts.iter().sum::<usize>(), 256, "{}", spec.name());
        }
    }

    fn repart_lb(period: usize) -> LbSchedule {
        LbSchedule::every(period).with_spec(LbSpec::repartition(
            LbSpec::greedy_steal(1),
            f64::INFINITY,
            1,
            u64::MAX,
        ))
    }

    #[test]
    fn join_event_spreads_load_onto_the_new_rank() {
        // Rank 2 is declared but only joins at step 3; its first replan
        // after the join must spread SDs onto it.
        let mut cfg = SimConfig::paper(
            400,
            50,
            12,
            (0..3).map(|_| VirtualNode::with_cores(1)).collect(),
        );
        let sds = SdGrid::tile_mesh(400, 400, 50);
        let owners: Vec<u32> = (0..sds.count()).map(|sd| (sd % 2) as u32).collect();
        cfg.partition = PartitionSpec::Explicit(owners);
        cfg.lb = Some(repart_lb(2));
        cfg.cluster_events = vec![(3, ClusterEvent::Join { rank: 2 })];
        cfg.lb_input = LbInput::Modeled;
        let run = simulate(&cfg);
        let counts = run.final_ownership.counts();
        assert!(counts[2] > 0, "joined rank must receive work: {counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 64);
        assert!(run.epoch_traces.iter().any(|t| t.replan));
    }

    #[test]
    fn fail_drops_ghost_contributions_drain_does_not() {
        // Fail vs Drain on the same timeline: both zero the rank's
        // capacity at the same step, so the membership masks — and under
        // modeled planning the plan sequences — are identical. The Fail
        // leg additionally drops the failed rank's in-flight ghost
        // contributions from the planner-grade counters for the steps it
        // spends failed, so it must count strictly fewer ghost bytes
        // while the sim's cross-traffic partition invariant holds on
        // both.
        let mk = |ev: ClusterEvent| {
            let mut cfg = SimConfig::paper(
                400,
                50,
                10,
                vec![VirtualNode::with_cores(1), VirtualNode::with_cores(1)],
            );
            cfg.lb = Some(repart_lb(2));
            cfg.cluster_events = vec![(3, ev)];
            cfg.lb_input = LbInput::Modeled;
            simulate(&cfg)
        };
        let fail = mk(ClusterEvent::Fail { rank: 1 });
        let drain = mk(ClusterEvent::Drain { rank: 1 });
        assert_eq!(fail.lb_plans, drain.lb_plans, "same masks, same plans");
        assert_eq!(fail.final_ownership.counts()[1], 0);
        assert_eq!(drain.final_ownership.counts()[1], 0);
        assert!(
            fail.ghost_bytes < drain.ghost_bytes,
            "fail must drop in-flight contributions: {} vs {}",
            fail.ghost_bytes,
            drain.ghost_bytes
        );
        for run in [&fail, &drain] {
            assert_eq!(
                run.cross_bytes,
                run.ghost_bytes + run.migration_bytes,
                "the cross-traffic partition must survive the event"
            );
        }
    }

    #[test]
    fn work_schedule_switches_models() {
        let mut cfg = SimConfig::paper(100, 25, 4, vec![VirtualNode::with_cores(1)]);
        cfg.work = WorkModel::Uniform;
        cfg.work_schedule = vec![(2, WorkModel::PerSd(vec![0.5; 16]))];
        assert_eq!(cfg.work_at(0), &WorkModel::Uniform);
        assert_eq!(cfg.work_at(1), &WorkModel::Uniform);
        assert_eq!(cfg.work_at(2), &WorkModel::PerSd(vec![0.5; 16]));
        assert_eq!(cfg.work_at(3), &WorkModel::PerSd(vec![0.5; 16]));
        // half-work from step 2 must shorten the run vs uniform
        let scheduled = simulate(&cfg).total_time;
        cfg.work_schedule.clear();
        let uniform = simulate(&cfg).total_time;
        assert!(scheduled < uniform);
    }

    #[test]
    fn moving_crack_keeps_lb_busy() {
        // A crack band marching upward; with LB the balancer re-migrates
        // as the cheap region moves, beating the static assignment.
        let nodes: Vec<VirtualNode> = (0..4).map(|_| VirtualNode::with_cores(1)).collect();
        let mut cfg = SimConfig::paper(400, 25, 32, nodes);
        cfg.partition = PartitionSpec::Strip;
        // one jump at mid-run: the dwell time (16 steps) must exceed the
        // balancer's adaptation time (period + one stale window) for LB to
        // amortize the migrations — faster cracks are a genuinely
        // adversarial regime, reported by ablation A5b.
        // Bands straddle strip boundaries: eq. 8 estimates power per
        // node, so a band hiding entirely inside one node's strip makes
        // that node's power estimate unsound (see ablation A5b notes).
        cfg.work_schedule = (0..2)
            .map(|seg| {
                (
                    seg * 16,
                    WorkModel::Crack {
                        y_cell: 200 + 100 * seg as i64,
                        half_width: 30,
                        factor: 0.25,
                    },
                )
            })
            .collect();
        cfg.lb = None;
        let off = simulate(&cfg);
        cfg.lb = Some(LbSchedule::every(4));
        let on = simulate(&cfg);
        assert!(
            on.total_time < off.total_time,
            "LB must track the moving crack: on {} off {}",
            on.total_time,
            off.total_time
        );
        assert!(on.migrations > 0);
    }

    #[test]
    fn weak_scaling_holds_time_roughly_constant() {
        // Fig. 10/12 shape: problem grows with node count.
        let t1 = simulate(&SimConfig::paper(
            100,
            50,
            5,
            vec![VirtualNode::with_cores(1)],
        ))
        .total_time;
        let t4 = simulate(&SimConfig::paper(
            200,
            50,
            5,
            (0..4).map(|_| VirtualNode::with_cores(1)).collect(),
        ))
        .total_time;
        let efficiency = t1 / t4;
        assert!(
            efficiency > 0.8,
            "weak-scaling efficiency {efficiency} too low"
        );
    }

    /// The view as it was built from one resident [`HaloPlan`] per SD and
    /// an allocating [`split_cases`], kept as the reference the
    /// single-pass [`OwnershipView::build`] must reproduce.
    struct ReferenceView {
        owned: Vec<Vec<u32>>,
        sends: Vec<(u32, u32, u32, i64, u64, bool)>,
        local_copy_cells: Vec<i64>,
        splits: Vec<(i64, i64)>,
        ghost_cells: Vec<f64>,
    }

    fn reference_view(
        sds: &SdGrid,
        halo: i64,
        owners: &[u32],
        nn: usize,
        comm: &nlheat_netmodel::CommCost,
    ) -> ReferenceView {
        use nlheat_mesh::{build_halo_plan, split_cases, HaloPlan};
        let plans: Vec<HaloPlan> = sds.ids().map(|id| build_halo_plan(sds, halo, id)).collect();
        let mut r = ReferenceView {
            owned: vec![Vec::new(); nn],
            sends: Vec::new(),
            local_copy_cells: vec![0; nn],
            splits: Vec::new(),
            ghost_cells: plans
                .iter()
                .map(|p| p.ghost_cells_from_sds() as f64)
                .collect(),
        };
        for sd in sds.ids() {
            let dst = owners[sd as usize];
            r.owned[dst as usize].push(sd);
            for (_, src_sd, patch) in plans[sd as usize].sd_patches() {
                let src = owners[src_sd as usize];
                let area = patch.dst_rect.area();
                if src == dst {
                    r.local_copy_cells[dst as usize] += area;
                } else {
                    let inter = comm.link_class(src, dst) == LinkClass::InterRack;
                    r.sends
                        .push((src, dst, sd, area, patch_wire_bytes(area), inter));
                }
            }
            let split = split_cases(sds.sd, halo, &plans[sd as usize], |n| {
                owners[n as usize] != dst
            });
            r.splits.push((split.case1_area(), split.case2_area()));
        }
        r
    }

    #[test]
    fn ownership_view_matches_per_sd_plan_reference() {
        // Seeded random and blocky ownerships over single- and multi-ring
        // halos (halo 8 over 4- and 3-cell SDs), on a two-rack topology
        // so the inter-rack flag is exercised.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let nn = 4usize;
        let comm = LbNetwork::for_sd_tiles(
            &NetSpec::Topology(nlheat_netmodel::TopologySpec::two_tier(2)),
            1,
        )
        .comm;
        // (mesh, SD side, SD rings the ε = 8h halo reaches)
        for (mesh_n, sd_size, rings) in [(48usize, 4usize, 2i64), (40, 10, 1), (36, 3, 3)] {
            let cfg = SimConfig::paper(mesh_n, sd_size, 1, vec![VirtualNode::with_cores(1); nn]);
            let geo = Geometry::build(&cfg);
            assert_eq!((geo.halo + geo.sds.sd - 1) / geo.sds.sd, rings);
            let n = geo.sds.count();
            for pattern in 0..4 {
                let owners: Vec<u32> = (0..n)
                    .map(|sd| match pattern {
                        0 => (next() % nn as u64) as u32,
                        1 => (sd * nn / n) as u32,
                        2 => (next() % 2) as u32 * 3,
                        _ => 0,
                    })
                    .collect();
                let ownership = Ownership::new(geo.sds, owners.clone(), nn as u32);
                let view = OwnershipView::build(&geo, &ownership, nn, &comm);
                let want = reference_view(&geo.sds, geo.halo, &owners, nn, &comm);
                let case = format!("mesh {mesh_n} sd {sd_size} pattern {pattern}");
                let sends: Vec<_> = view
                    .sends
                    .iter()
                    .map(|s| {
                        let area = i64::from(s.area);
                        (
                            s.src,
                            s.dst,
                            s.sd,
                            area,
                            patch_wire_bytes(area),
                            s.inter_rack,
                        )
                    })
                    .collect();
                assert_eq!(sends, want.sends, "{case}");
                assert_eq!(view.owners, owners, "{case}");
                assert_eq!(view.owned, want.owned, "{case}");
                assert_eq!(view.local_copy_cells, want.local_copy_cells, "{case}");
                assert_eq!(view.splits, want.splits, "{case}");
                assert_eq!(view.ghost_cells, want.ghost_cells, "{case}");
                if pattern < 3 {
                    assert!(!view.sends.is_empty(), "{case}");
                }
            }
        }
    }
}
