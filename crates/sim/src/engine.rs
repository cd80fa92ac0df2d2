//! The discrete-event engine: per-step task graphs, asynchronous per-node
//! clocks (no global barrier between steps, like the real solver), and
//! load-balancing epochs.

use crate::cost::CostModel;
use nlheat_core::balance::{EpochController, EpochInput, EpochPlan};
use nlheat_core::ownership::Ownership;
use nlheat_core::scenario::{failed_at, RunExtras, RunReport, Scenario, SimExtras};
use nlheat_mesh::{case_areas, fill_halo_patches, Grid, PatchSource, SdGrid, Stencil};
use nlheat_netmodel::{LinkClass, Msg};
use nlheat_partition::patch_wire_bytes;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Run-constant geometry. Only the grid and the halo width are kept: an
/// SD's halo patches are a pure function of them, regenerated on demand
/// into a reused buffer, so the simulator holds no per-SD halo plan.
struct Geometry {
    sds: SdGrid,
    halo: i64,
}

impl Geometry {
    fn build(sc: &Scenario) -> Self {
        Geometry {
            sds: sc.sd_grid(),
            halo: Grid::square(sc.problem.n, sc.problem.eps_mult).halo,
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
        let owners = ownership.owners();
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

/// The run's balancer, mirroring `core::dist`'s wiring: one controller
/// lives across epochs, pricing μ against the SD graph of the very halo
/// patches whose messages the event loop charges. Only planners read the
/// graph and the footprints derived from it, so a run without a balancer
/// builds neither.
fn epoch_controller(sc: &Scenario) -> Option<EpochController> {
    let lb = sc.lb.as_ref()?;
    Some(EpochController::new(lb, sc.epoch_setup(sc.lb_input)))
}

/// Run `sc` on the simulator: the one entry behind
/// [`crate::SimSubstrate`] and [`crate::RunSim`].
///
/// # Panics
/// Panics on an invalid scenario — see [`Scenario::validate`].
pub(crate) fn simulate(sc: &Scenario) -> RunReport {
    sc.validate();
    let geo = Geometry::build(sc);
    let grid = Grid::square(sc.problem.n, sc.problem.eps_mult);
    let cost = CostModel::calibrated(Stencil::build(grid.h, grid.eps).len());
    let nodes = &sc.cluster.nodes;
    let n_nodes = nodes.len() as u32;
    let owners0 = sc.partition.initial_owners(&geo.sds, n_nodes);
    let mut ownership = Ownership::new(geo.sds, owners0, n_nodes);
    let mut epochs = epoch_controller(sc);

    let nn = nodes.len();
    let mut node_time = vec![0.0f64; nn];
    let mut busy_total = vec![0.0f64; nn];
    let mut busy_window = vec![0.0f64; nn]; // since last LB counter reset
    let mut net = sc.net.build(nn);
    let mut cross_bytes = 0u64;
    let mut messages = 0u64;
    let mut ghost_bytes = 0u64;
    let mut inter_rack_ghost_bytes = 0u64;
    // Link classes for the virtual-time ghost accounting: the very
    // CommCost the planner prices moves with, so counter and μ term can
    // never disagree on what crosses a rack.
    let comm = sc.net.comm_cost();
    let max_cores = nodes.iter().map(|n| n.cores).max().unwrap_or(1);
    let mut scratch = StepScratch::new(geo.sds.count(), max_cores);
    let mut view = OwnershipView::build(&geo, &ownership, nn, &comm);

    for step in 0..sc.steps {
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
            (!sc.cluster_events.is_empty()).then(|| failed_at(nn, &sc.cluster_events, step));
        for s in &view.sends {
            // pack cost delays the send readiness a little
            let ready = node_time[s.src as usize] + cost.copy_sec_per_cell * f64::from(s.area);
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
        let work = sc.work_at(step);
        for node in 0..nn {
            let spec = nodes[node];
            let owned = &view.owned[node];
            // serial driver phase: local halo copies + task spawns
            let n_tasks_approx = owned.len().max(1);
            let serial = cost.copy_sec_per_cell * view.local_copy_cells[node] as f64
                + cost.spawn_sec * n_tasks_approx as f64;
            let t0 = node_time[node] + serial;

            scratch.tasks.clear();
            for &sd in owned {
                let factor = work.factor(&geo.sds, sd);
                let (case1_area, case2_area) = view.splits[sd as usize];
                let latest = scratch.latest_arrival[sd as usize];
                let ghosts_in = if latest == f64::NEG_INFINITY {
                    t0
                } else {
                    let unpack = cost.copy_sec_per_cell * view.ghost_cells[sd as usize];
                    t0.max(latest) + unpack
                };
                if sc.overlap {
                    if case2_area > 0 {
                        scratch
                            .tasks
                            .push((t0, cost.task_sec(case2_area, factor, spec.speed)));
                    }
                    if case1_area > 0 {
                        scratch
                            .tasks
                            .push((ghosts_in, cost.task_sec(case1_area, factor, spec.speed)));
                    }
                } else {
                    scratch.tasks.push((
                        ghosts_in,
                        cost.task_sec(geo.sds.cells_per_sd() as i64, factor, spec.speed),
                    ));
                }
            }
            let (finish, busy) =
                list_schedule(&mut scratch.tasks, spec.cores, t0, &mut scratch.free);
            node_time[node] = finish;
            busy_total[node] += busy;
            busy_window[node] += busy;
        }

        // --- load-balancing epoch (the configured LbSpec policy) ---
        if let Some(ctl) = epochs.as_mut().filter(|c| c.due(step)) {
            // collective: everyone synchronizes for the gather/plan
            let barrier = node_time.iter().cloned().fold(0.0, f64::max) + cost.lb_plan_sec;
            node_time.fill(barrier);
            let EpochPlan { plan, .. } = ctl.epoch(EpochInput {
                step,
                ownership: &ownership,
                busy: &busy_window,
                work: sc.work_at(step),
            });
            // An empty plan pays the planning barrier and nothing else.
            if !plan.moves.is_empty() {
                // migration costs: tile payloads over the network
                net.reset(barrier);
                for mv in &plan.moves {
                    let bytes = ctl.net().sd_bytes.get(mv.sd);
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
                ownership = plan.new_ownership;
                view = OwnershipView::build(&geo, &ownership, nn, &comm);
            }
            // Algorithm 1 line 35: reset the busy window
            busy_window.fill(0.0);
        }
    }

    let makespan = node_time.iter().cloned().fold(0.0, f64::max);
    let busy_fraction = busy_total
        .iter()
        .zip(nodes)
        .map(|(&b, n)| {
            if makespan > 0.0 {
                b / (n.cores as f64 * makespan)
            } else {
                0.0
            }
        })
        .collect();
    let lb = epochs.map(EpochController::finish).unwrap_or_default();
    RunReport {
        substrate: "sim",
        makespan,
        busy: busy_total,
        migrations: lb.migrations(),
        migration_bytes: lb.migration_bytes(),
        inter_rack_migration_bytes: lb.inter_rack_migration_bytes(),
        ghost_bytes,
        inter_rack_ghost_bytes,
        lb_history: lb.lb_history,
        lb_plans: lb.lb_plans,
        epoch_traces: lb.epoch_traces,
        final_ownership: ownership,
        field: None,
        error: None,
        memory_bytes: None,
        sd_footprint: None,
        extras: RunExtras::Sim(SimExtras {
            busy_fraction,
            cross_bytes,
            messages,
        }),
    }
    .with_scenario_memory(sc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlheat_core::balance::{LbSchedule, LbSpec};
    use nlheat_core::scenario::{ClusterEvent, ClusterSpec, LbInput, PartitionSpec, VirtualNode};
    use nlheat_core::workload::WorkModel;
    use nlheat_netmodel::{NetSpec, TopologySpec};

    /// The paper problem (ε = 8h) over `cluster`.
    fn paper(mesh_n: usize, sd_size: usize, steps: usize, cluster: ClusterSpec) -> Scenario {
        Scenario::square(mesh_n, 8.0, sd_size, steps).on(cluster)
    }

    /// Four single-core nodes, the first twice as fast.
    fn het4() -> ClusterSpec {
        ClusterSpec::speeds(&[2.0, 1.0, 1.0, 1.0])
    }

    fn extras(run: &RunReport) -> &SimExtras {
        run.sim_extras().expect("a simulator report")
    }

    fn shared_cfg(n_sds_side: usize, cores: usize) -> Scenario {
        // 400x400 paper mesh decomposed into n x n SDs, one node.
        paper(400, 400 / n_sds_side, 5, ClusterSpec::uniform(1, cores))
    }

    #[test]
    fn deterministic() {
        let sc = shared_cfg(4, 2);
        let a = simulate(&sc);
        let b = simulate(&sc);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.busy, b.busy);
    }

    #[test]
    fn single_sd_cannot_use_extra_cores() {
        // Fig. 9's 1-SD data point: speedup stays 1.
        let t1 = simulate(&shared_cfg(1, 1)).makespan;
        let t4 = simulate(&shared_cfg(1, 4)).makespan;
        assert!((t1 / t4) < 1.05, "one task cannot speed up: {}", t1 / t4);
    }

    #[test]
    fn many_sds_scale_with_cores() {
        // Fig. 9's 64-SD point: 4 cores approach 4x.
        let t1 = simulate(&shared_cfg(8, 1)).makespan;
        let t4 = simulate(&shared_cfg(8, 4)).makespan;
        let speedup = t1 / t4;
        assert!(
            (3.0..=4.2).contains(&speedup),
            "64 SDs on 4 cores: speedup {speedup}"
        );
    }

    #[test]
    fn distributed_nodes_scale() {
        // Fig. 13 shape: 1 vs 4 single-core nodes on a fixed mesh.
        let mk = |n: usize| paper(400, 50, 5, ClusterSpec::uniform(n, 1));
        let t1 = simulate(&mk(1)).makespan;
        let t4 = simulate(&mk(4)).makespan;
        let speedup = t1 / t4;
        assert!((3.0..=4.2).contains(&speedup), "4-node speedup {speedup}");
    }

    #[test]
    fn communication_counted_only_across_nodes() {
        let single = simulate(&shared_cfg(8, 4));
        assert_eq!(extras(&single).cross_bytes, 0, "one node never crosses");
        let two = simulate(&paper(400, 50, 5, ClusterSpec::uniform(2, 1)));
        assert!(extras(&two).cross_bytes > 0);
        assert!(extras(&two).messages > 0);
    }

    #[test]
    fn metis_beats_strip_on_cross_traffic() {
        // Ablation A1 at test scale: block-ish multilevel partitions move
        // fewer ghost bytes than strips for 4 nodes.
        let metis = paper(400, 25, 3, ClusterSpec::uniform(4, 1))
            .with_partition(PartitionSpec::Metis { seed: 1 });
        let strip = metis.clone().with_partition(PartitionSpec::Strip);
        let mb = extras(&simulate(&metis)).cross_bytes;
        let sb = extras(&simulate(&strip)).cross_bytes;
        assert!(mb < sb, "metis {mb} bytes should undercut strip {sb} bytes");
    }

    #[test]
    fn overlap_helps_on_slow_network() {
        // Every SD borders foreign territory (4 SDs per node, quadrants)
        // and the latency is comparable to one SD's compute time, so the
        // case-2 work is exactly what hides the wait.
        let sc = paper(200, 50, 5, ClusterSpec::uniform(4, 1)).with_net(NetSpec::shared(5e-3, 1e9));
        let with = simulate(&sc.clone().with_overlap(true)).makespan;
        let without = simulate(&sc.with_overlap(false)).makespan;
        assert!(
            with < without * 0.95,
            "overlap {with} must clearly beat no-overlap {without} on a slow net"
        );
    }

    #[test]
    fn lb_balances_heterogeneous_nodes() {
        let run = simulate(&paper(400, 25, 24, het4()).with_lb(LbSchedule::every(4)));
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
        let base = paper(400, 25, 24, het4());
        let without = simulate(&base).makespan;
        let with = simulate(&base.with_lb(LbSchedule::every(4))).makespan;
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
        let sc = paper(200, 25, 6, ClusterSpec { nodes }).with_net(NetSpec::shared(1e-4, 1e9));
        let without = simulate(&sc);
        let idle = simulate(&sc.with_lb(LbSchedule::every(7)));
        assert_eq!(idle.makespan.to_bits(), without.makespan.to_bits());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&idle.busy), bits(&without.busy));
        assert_eq!(extras(&idle).cross_bytes, extras(&without).cross_bytes);
        assert_eq!(idle.ghost_bytes, without.ghost_bytes);
        assert_eq!(extras(&idle).messages, extras(&without).messages);
        assert_eq!(idle.migrations, 0);
        assert!(idle.lb_plans.is_empty() && idle.epoch_traces.is_empty());
        assert_eq!(
            idle.final_ownership.owners(),
            without.final_ownership.owners()
        );
    }

    #[test]
    fn no_schedule_builds_no_graph() {
        let sc = paper(40, 10, 4, ClusterSpec::uniform(2, 1));
        assert!(epoch_controller(&sc).is_none());
        let ctl = epoch_controller(&sc.with_lb(LbSchedule::every(2)))
            .expect("a schedule builds a controller");
        assert!(ctl.net().sd_graph.is_some());
        assert!(ctl.net().memory_bytes.is_none(), "no node declared a cap");
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
        let run = simulate(&shared_cfg(4, 2).with_lb(LbSchedule::every(2)));
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
        let sc = paper(400, 50, 5, ClusterSpec::uniform(2, 1));
        let run = simulate(&sc);
        assert!(run.ghost_bytes > 0);
        assert_eq!(run.ghost_bytes, extras(&run).cross_bytes);
        assert_eq!(run.inter_rack_ghost_bytes, 0, "uniform model has no racks");
        // 2 racks x 1 node: every cross message is inter-rack
        let rr = simulate(&sc.with_net(NetSpec::Topology(TopologySpec::two_tier(1))));
        assert_eq!(rr.inter_rack_ghost_bytes, rr.ghost_bytes);
        // and with LB on, migration bytes stay separate from ghost bytes
        let lb = paper(400, 25, 12, ClusterSpec::speeds(&[2.0, 1.0])).with_lb(LbSchedule::every(4));
        let lr = simulate(&lb);
        assert!(lr.migrations > 0);
        assert_eq!(extras(&lr).cross_bytes, lr.ghost_bytes + lr.migration_bytes);
    }

    #[test]
    fn epoch_traces_record_the_cut_from_the_sim_graph() {
        let run = simulate(&paper(400, 25, 24, het4()).with_lb(LbSchedule::every(4)));
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
        let sds = SdGrid::tile_mesh(400, 400, 25);
        let mut owners = vec![0u32; 256];
        owners[sds.id(15, 0) as usize] = 1;
        owners[sds.id(0, 15) as usize] = 2;
        owners[sds.id(15, 15) as usize] = 3;
        let sc = paper(400, 25, 24, ClusterSpec::uniform(4, 1))
            .with_partition(PartitionSpec::Explicit(owners))
            .with_net(NetSpec::Topology(TopologySpec {
                ranks_per_node: 1,
                nodes_per_rack: 2,
                intra_node: nlheat_netmodel::LinkSpec::new(1e-7, 5e9),
                intra_rack: nlheat_netmodel::LinkSpec::new(1e-4, 1e8),
                inter_rack: nlheat_netmodel::LinkSpec::new(4e-4, 2.5e7),
            }));
        let blind = simulate(
            &sc.clone()
                .with_lb(LbSchedule::every(4).with_spec(LbSpec::tree(0.0))),
        );
        let aware =
            simulate(&sc.with_lb(LbSchedule::every(4).with_spec(LbSpec::tree(0.0).with_mu(0.25))));
        assert!(blind.migrations > 0 && aware.migrations > 0);
        let last_cut = |run: &RunReport| {
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
            aware.makespan <= blind.makespan * 1.05,
            "makespan must stay within noise: {} vs {}",
            aware.makespan,
            blind.makespan
        );
    }

    #[test]
    fn diffusion_and_greedy_balance_heterogeneous_nodes() {
        // The policy seam end to end in the simulator: both alternative
        // policies must migrate work toward the 2x-fast node, like the
        // tree planner does in `lb_balances_heterogeneous_nodes`.
        for spec in [LbSpec::diffusion(1.0, 8), LbSpec::greedy_steal(1)] {
            let sc =
                paper(400, 25, 24, het4()).with_lb(LbSchedule::every(4).with_spec(spec.clone()));
            let run = simulate(&sc);
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
        let sds = SdGrid::tile_mesh(400, 400, 50);
        let owners: Vec<u32> = (0..sds.count()).map(|sd| (sd % 2) as u32).collect();
        let sc = paper(400, 50, 12, ClusterSpec::uniform(3, 1))
            .with_partition(PartitionSpec::Explicit(owners))
            .with_lb(repart_lb(2))
            .with_cluster_events(vec![(3, ClusterEvent::Join { rank: 2 })])
            .with_lb_input(LbInput::Modeled);
        let run = simulate(&sc);
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
            simulate(
                &paper(400, 50, 10, ClusterSpec::uniform(2, 1))
                    .with_lb(repart_lb(2))
                    .with_cluster_events(vec![(3, ev)])
                    .with_lb_input(LbInput::Modeled),
            )
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
                extras(run).cross_bytes,
                run.ghost_bytes + run.migration_bytes,
                "the cross-traffic partition must survive the event"
            );
        }
    }

    #[test]
    fn work_schedule_switches_models() {
        let uniform = paper(100, 25, 4, ClusterSpec::uniform(1, 1));
        let sc = uniform
            .clone()
            .with_work_schedule(vec![(2, WorkModel::PerSd(vec![0.5; 16]))]);
        assert_eq!(sc.work_at(0), &WorkModel::Uniform);
        assert_eq!(sc.work_at(1), &WorkModel::Uniform);
        assert_eq!(sc.work_at(2), &WorkModel::PerSd(vec![0.5; 16]));
        assert_eq!(sc.work_at(3), &WorkModel::PerSd(vec![0.5; 16]));
        // half-work from step 2 must shorten the run vs uniform
        assert!(simulate(&sc).makespan < simulate(&uniform).makespan);
    }

    #[test]
    fn moving_crack_keeps_lb_busy() {
        // A crack band marching upward; with LB the balancer re-migrates
        // as the cheap region moves, beating the static assignment.
        // One jump at mid-run: the dwell time (16 steps) must exceed the
        // balancer's adaptation time (period + one stale window) for LB to
        // amortize the migrations — faster cracks are a genuinely
        // adversarial regime, reported by ablation A5b.
        // Bands straddle strip boundaries: eq. 8 estimates power per
        // node, so a band hiding entirely inside one node's strip makes
        // that node's power estimate unsound (see ablation A5b notes).
        let sc = paper(400, 25, 32, ClusterSpec::uniform(4, 1))
            .with_partition(PartitionSpec::Strip)
            .with_work_schedule(
                (0..2)
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
                    .collect(),
            );
        let off = simulate(&sc);
        let on = simulate(&sc.with_lb(LbSchedule::every(4)));
        assert!(
            on.makespan < off.makespan,
            "LB must track the moving crack: on {} off {}",
            on.makespan,
            off.makespan
        );
        assert!(on.migrations > 0);
    }

    #[test]
    fn weak_scaling_holds_time_roughly_constant() {
        // Fig. 10/12 shape: problem grows with node count.
        let t1 = simulate(&paper(100, 50, 5, ClusterSpec::uniform(1, 1))).makespan;
        let t4 = simulate(&paper(200, 50, 5, ClusterSpec::uniform(4, 1))).makespan;
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
        let comm = NetSpec::Topology(TopologySpec::two_tier(2)).comm_cost();
        // (mesh, SD side, SD rings the ε = 8h halo reaches)
        for (mesh_n, sd_size, rings) in [(48usize, 4usize, 2i64), (40, 10, 1), (36, 3, 3)] {
            let geo = Geometry::build(&paper(mesh_n, sd_size, 1, ClusterSpec::uniform(nn, 1)));
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
