//! The workloads' scenarios, the planner inputs every workload times its
//! planners on, and the set-up measurement.

use crate::{timed, Size, Workload};
use nlheat_core::balance::{compute_metrics, LbNetwork, LbSchedule, LbSpec, LoadMetrics};
use nlheat_core::scenario::{modeled_busy, work_at, ClusterSpec, LbInput, PartitionSpec, Scenario};
use nlheat_core::scenarios;
use nlheat_core::workload::WorkModel;
use nlheat_core::Ownership;
use nlheat_netmodel::NetSpec;
use std::sync::Arc;

/// The scenario workload `w` runs at `size`, with inputs drawn from
/// `seed`: the seed picks the initial METIS partition of `hetero_dist`
/// and the link latencies of the other two (see [`stretched`]). Each
/// keeps the work of a run within a few percent across seeds.
pub fn scenario(w: Workload, size: Size, seed: u64) -> Scenario {
    let toy = size == Size::Toy;
    let metis = PartitionSpec::Metis { seed };
    match w {
        // The paper's experiment: a half-speed node balanced by migration.
        Workload::HeteroDist => {
            let (base, period) = if toy {
                (Scenario::square(32, 4.0, 8, 8), 2)
            } else {
                (Scenario::square(200, 8.0, 25, 40), 4)
            };
            base.on(ClusterSpec::speeds(&[1.0, 0.5]))
                .with_partition(metis)
                .with_lb(LbSchedule::every(period).with_spec(LbSpec::tree(0.0)))
                .with_lb_input(LbInput::Modeled)
        }
        // 16 nodes over two-node racks; a quarter-work crack band jumps
        // from a quarter to three quarters of the mesh height mid-run.
        Workload::SimScale16 => {
            let (base, n, half_width, jump, period) = if toy {
                (Scenario::square(64, 2.0, 4, 8), 64i64, 4i64, 4usize, 2)
            } else {
                (Scenario::square(800, 8.0, 25, 40), 800, 30, 20, 4)
            };
            let speeds: Vec<f64> = (0..16).map(|i| [1.0, 0.5, 1.5, 1.0][i % 4]).collect();
            let crack = |y_cell| WorkModel::Crack {
                y_cell,
                half_width,
                factor: 0.25,
            };
            base.on(ClusterSpec::speeds(&speeds))
                .with_net(stretched(scenarios::two_rack_net(), seed))
                .with_partition(PartitionSpec::Metis { seed: 1 })
                .with_work_schedule(vec![(0, crack(n / 4)), (jump, crack(3 * n / 4))])
                .with_lb(LbSchedule::every(period).with_spec(LbSpec::tree(0.0)))
                .with_lb_input(LbInput::Modeled)
        }
        // The planning-scale harness of the `plan/*_10k` benches.
        Workload::Plan10k => {
            let sc = scenarios::plan_scale(if toy { 100 } else { 10_000 });
            let net = stretched(sc.net, seed);
            sc.with_net(net)
        }
    }
}

/// `net` with its link latencies stretched by up to 6% as the seed
/// picks. The planners here run at λ=0, so the stretch leaves
/// `sim_scale16`'s plans unchanged and moves about 1% of `plan_10k`'s
/// hierarchical moves, and the simulated makespan moves well under 1%; a
/// seeded partition or node speed would instead send the tree balancer
/// down different plan sequences and move the makespan by up to a fifth.
pub fn stretched(net: NetSpec, seed: u64) -> NetSpec {
    let NetSpec::Topology(mut t) = net else {
        return net;
    };
    let stretch = 1.0 + 0.01 * (seed % 7) as f64;
    for link in [&mut t.intra_node, &mut t.intra_rack, &mut t.inter_rack] {
        link.latency_s *= stretch;
    }
    NetSpec::Topology(t)
}

/// The hierarchical planner as `plan/hier_10k` configures it.
pub fn hier_spec() -> LbSpec {
    LbSpec::hierarchical(LbSpec::tree(0.0), 0.0)
}

/// The drift-triggered replanner as `plan/repart_10k` configures it: the
/// 0.5 threshold makes every epoch replan, and λ=1e9 keeps the inner tree
/// policy cheap should an epoch not replan.
pub fn repart_spec() -> LbSpec {
    LbSpec::repartition(LbSpec::tree(1e9), 0.5, 1, u64::MAX)
}

/// What a balancing policy plans from at a scenario's first epoch: the
/// initial partition, the modeled busy times, and the network view with
/// the SD graph — the inputs `PlanSubstrate` builds.
pub struct PlannerInputs {
    pub n_ranks: u32,
    pub ownership: Ownership,
    pub metrics: LoadMetrics,
    pub net: LbNetwork,
}

impl PlannerInputs {
    pub fn build(sc: &Scenario) -> Self {
        sc.validate();
        let sds = sc.sd_grid();
        let n_ranks = sc.cluster.len() as u32;
        let owners = sc.partition.initial_owners(&sds, n_ranks);
        let (ownership, metrics) = modeled_epoch(sc, owners, 0);
        let net = LbNetwork::for_sd_tiles(&sc.net, sds.cells_per_sd())
            .with_sd_graph(Arc::new(sc.sd_graph()));
        PlannerInputs {
            n_ranks,
            ownership,
            metrics,
            net,
        }
    }
}

/// The ownership and load metrics a modeled-input epoch at `step` sees.
pub fn modeled_epoch(sc: &Scenario, owners: Vec<u32>, step: usize) -> (Ownership, LoadMetrics) {
    let sds = sc.sd_grid();
    let n = sc.cluster.len() as u32;
    let busy = modeled_busy(
        &sds,
        &owners,
        n,
        work_at(&sc.work, &sc.work_schedule, step),
        &sc.cluster.speed_factors(),
        sc.sec_per_dp(),
    );
    let ownership = Ownership::new(sds, owners, n);
    let metrics = compute_metrics(&ownership.counts(), &busy);
    (ownership, metrics)
}

/// One timed set-up: everything a timed unit consumes but does not
/// itself produce — the validated scenario, the planner inputs (initial
/// partition, SD graph, modeled busy) and, for the real runtime, a
/// cluster. Returns the inputs and the seconds the build took.
pub fn setup(sc: &Scenario, with_cluster: bool) -> (PlannerInputs, f64) {
    let ((inputs, cluster), secs) = timed(|| {
        let inputs = PlannerInputs::build(sc);
        let cluster = with_cluster.then(|| sc.build_cluster());
        (inputs, cluster)
    });
    drop(cluster);
    (inputs, secs)
}
