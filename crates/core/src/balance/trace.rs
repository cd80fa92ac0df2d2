//! Per-epoch policy traces — the recorded data A8/A9-style plots are
//! drawn from, instead of run-level aggregates.
//!
//! Both execution substrates record one [`EpochTrace`] per *realized*
//! balancing epoch (no-op plans emit nothing, matching the `lb_history`
//! convention): what the policy moved, what shipping it cost, and how the
//! recurring ghost traffic — the ownership edge cut over the
//! [`SdGraph`](nlheat_partition::SdGraph) — changed. The ghost columns are
//! zero when the substrate planned without a graph.

use crate::balance::algorithm::MigrationPlan;
use crate::balance::policy::LbNetwork;
use crate::balance::repart::DriftInfo;
use crate::ownership::Ownership;
use nlheat_netmodel::LinkClass;

/// What one balancing epoch did, in recorded (not re-derived) numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochTrace {
    /// Timestep after which the epoch ran (1-based, like the LB schedule).
    pub step: usize,
    /// The planning policy's ablation label.
    pub policy: &'static str,
    /// Moves in the realized (single-hop) plan.
    pub moves: usize,
    /// One-off migration payload bytes of the plan.
    pub migration_bytes: u64,
    /// Migration bytes that crossed a rack boundary.
    pub inter_rack_migration_bytes: u64,
    /// Recurring ghost bytes per timestep before the plan (ownership edge
    /// cut over the SD graph; 0 when no graph was attached).
    pub ghost_bytes_before: u64,
    /// Recurring ghost bytes per timestep after the plan.
    pub ghost_bytes_after: u64,
    /// The inter-rack share of `ghost_bytes_before`.
    pub inter_rack_ghost_bytes_before: u64,
    /// The inter-rack share of `ghost_bytes_after`.
    pub inter_rack_ghost_bytes_after: u64,
    /// Ratio of the live ghost cut to a freshly repartitioned cut, as
    /// last measured by the [`Repartition`](crate::balance::LbSpec::Repartition)
    /// drift monitor (0 for policies without one, or before the first
    /// cadence check).
    pub cut_drift: f64,
    /// True when this epoch's plan came from a global replan (or a staged
    /// chunk of one) rather than the incremental policy.
    pub replan: bool,
}

impl EpochTrace {
    /// Record a realized plan: `before` is the pre-epoch ownership, `net`
    /// the planning view the policy saw (its [`SdGraph`] and link classes
    /// price the ghost columns).
    ///
    /// [`SdGraph`]: nlheat_partition::SdGraph
    pub fn record(
        step: usize,
        policy: &'static str,
        plan: &MigrationPlan,
        before: &Ownership,
        net: &LbNetwork,
    ) -> Self {
        let (ghost_before, ghost_after, inter_before, inter_after) = match &net.sd_graph {
            Some(g) => {
                let inter = |owners: &[u32]| {
                    g.cut_bytes_where(owners, |a, b| {
                        net.comm.link_class(a, b) == LinkClass::InterRack
                    })
                };
                (
                    g.cut_bytes(before.owners()),
                    g.cut_bytes(plan.new_ownership.owners()),
                    inter(before.owners()),
                    inter(plan.new_ownership.owners()),
                )
            }
            None => (0, 0, 0, 0),
        };
        EpochTrace {
            step,
            policy,
            moves: plan.moves.len(),
            migration_bytes: plan.comm.total_bytes,
            inter_rack_migration_bytes: plan.comm.inter_rack_bytes(),
            ghost_bytes_before: ghost_before,
            ghost_bytes_after: ghost_after,
            inter_rack_ghost_bytes_before: inter_before,
            inter_rack_ghost_bytes_after: inter_after,
            cut_drift: 0.0,
            replan: false,
        }
    }

    /// Attach what the policy's drift monitor reported for this epoch
    /// ([`LbPolicy::drift_info`](crate::balance::LbPolicy::drift_info));
    /// `None` leaves the columns at their policy-without-a-monitor zeros.
    pub fn with_drift(mut self, info: Option<DriftInfo>) -> Self {
        if let Some(info) = info {
            self.cut_drift = info.cut_drift;
            self.replan = info.replan;
        }
        self
    }

    /// Signed change of recurring ghost bytes per timestep this epoch
    /// caused (negative: the plan healed the partition).
    pub fn ghost_delta_bytes(&self) -> i64 {
        self.ghost_bytes_after as i64 - self.ghost_bytes_before as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::algorithm::{plan_rebalance_ghost_aware, CostParams};
    use crate::balance::power::compute_metrics;
    use nlheat_mesh::SdGrid;
    use nlheat_netmodel::{LinkSpec, NetSpec, TopologySpec};
    use nlheat_partition::SdGraph;
    use std::sync::Arc;

    fn two_rack() -> NetSpec {
        NetSpec::Topology(TopologySpec {
            ranks_per_node: 1,
            nodes_per_rack: 2,
            intra_node: LinkSpec::new(0.0, f64::INFINITY),
            intra_rack: LinkSpec::new(1e-6, f64::INFINITY),
            inter_rack: LinkSpec::new(1e-3, 1e8),
        })
    }

    #[test]
    fn record_prices_cut_change_consistently() {
        let sds = SdGrid::new(6, 1, 4);
        let own = Ownership::new(sds, vec![0, 0, 0, 0, 0, 1], 2);
        let metrics = compute_metrics(&own.counts(), &[5.0, 1.0]);
        let graph = Arc::new(SdGraph::build(&sds, 1));
        let net =
            LbNetwork::for_sd_tiles(&two_rack(), sds.cells_per_sd()).with_sd_graph(graph.clone());
        let plan = plan_rebalance_ghost_aware(
            &own,
            metrics,
            &CostParams::new(net.comm, 0.0, net.sd_bytes.clone()),
            None,
        );
        assert!(!plan.is_noop());
        let trace = EpochTrace::record(4, "tree", &plan, &own, &net);
        assert_eq!(trace.step, 4);
        assert_eq!(trace.moves, plan.moves.len());
        assert_eq!(trace.migration_bytes, plan.comm.total_bytes);
        assert_eq!(trace.ghost_bytes_before, graph.cut_bytes(own.owners()));
        assert_eq!(
            trace.ghost_bytes_after,
            graph.cut_bytes(plan.new_ownership.owners())
        );
        assert_eq!(
            trace.ghost_delta_bytes(),
            trace.ghost_bytes_after as i64 - trace.ghost_bytes_before as i64
        );
        // both nodes sit in one rack here: no inter-rack ghost share
        assert_eq!(trace.inter_rack_ghost_bytes_before, 0);
        assert_eq!(trace.inter_rack_ghost_bytes_after, 0);

        // without a graph the ghost columns are zero, not garbage
        let blind = LbNetwork::for_sd_tiles(&two_rack(), sds.cells_per_sd());
        let t2 = EpochTrace::record(4, "tree", &plan, &own, &blind);
        assert_eq!(t2.ghost_bytes_before, 0);
        assert_eq!(t2.ghost_bytes_after, 0);
    }

    #[test]
    fn inter_rack_share_counts_only_cross_rack_pairs() {
        // 4 SDs in a row over 4 nodes (2 racks): cuts (1,2) is the only
        // inter-rack *adjacent* pair, but corner reach doesn't exist in
        // 1-d, so shares split cleanly.
        let sds = SdGrid::new(4, 1, 4);
        let own = Ownership::new(sds, vec![0, 1, 2, 3], 4);
        let graph = Arc::new(SdGraph::build(&sds, 1));
        let net =
            LbNetwork::for_sd_tiles(&two_rack(), sds.cells_per_sd()).with_sd_graph(graph.clone());
        let inter = graph.cut_bytes_where(own.owners(), |a, b| {
            net.comm.link_class(a, b) == nlheat_netmodel::LinkClass::InterRack
        });
        let total = graph.cut_bytes(own.owners());
        assert!(inter > 0 && inter < total, "inter {inter} of {total}");
    }
}
