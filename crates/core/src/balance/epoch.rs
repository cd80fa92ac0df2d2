//! The load-balancing epoch — Algorithm 1's outer loop (§7), written once
//! for every substrate.
//!
//! Every `period` steps the balancer gathers busy times, plans on one
//! node, broadcasts the plan, migrates, and resets the counters. The
//! substrates differ only in how they *measure* (wall-clock counters on
//! the real runtime, virtual time in the simulator, nothing in the
//! plan-only substrate) and how they *migrate*; everything in between is
//! the [`EpochController`]:
//!
//! * the epoch gate ([`LbSchedule::due`]);
//! * the planning view ([`LbNetwork`] with the [`SdGraph`] and, when any
//!   rank declares a cap, the memory tables), built once per run;
//! * the planner input: measured busy seconds or, under
//!   [`LbInput::Modeled`], [`modeled_busy`], plus the elastic-membership
//!   mask ([`active_at`]). Busy time is the only thing a substrate
//!   measures for the balancer: busy seconds in, plan out;
//! * the records of every realized (non-empty) epoch: [`EpochTrace`],
//!   the move list and the post-plan SD counts.
//!
//! Because both execution substrates run this one controller, identical
//! planner inputs give identical plan sequences by construction.

use crate::balance::{
    compute_metrics, EpochTrace, LbNetwork, LbPolicy, LbSchedule, MigrationPlan, Move, SdGraph,
};
use crate::ownership::Ownership;
use crate::scenario::{active_at, modeled_busy, ClusterEvent, LbInput};
use crate::workload::WorkModel;
use nlheat_mesh::SdGrid;
use nlheat_netmodel::NetSpec;
use std::sync::Arc;
use std::time::Instant;

impl LbSchedule {
    /// Whether a balancing epoch closes `step` of an `n_steps` run: every
    /// `period` steps, never after the last step (there is nothing left
    /// to balance).
    pub fn due(&self, step: usize, n_steps: usize) -> bool {
        (step + 1).is_multiple_of(self.period) && step + 1 < n_steps
    }
}

/// The run-constant inputs of a balancer, as a substrate declares them.
pub struct EpochSetup {
    /// Timesteps of the run (the epoch gate skips the last one).
    pub n_steps: usize,
    /// Measured or modeled planner input.
    pub input: LbInput,
    /// The SD decomposition.
    pub sds: SdGrid,
    /// Halo width in cells (prices the [`SdGraph`] edges).
    pub halo: i64,
    /// The network the plans are priced against.
    pub net: NetSpec,
    /// Per-rank speed factors (modeled input).
    pub speeds: Vec<f64>,
    /// Per-DP seconds of the stencil (modeled input).
    pub sec_per_dp: f64,
    /// Per-rank memory capacities (`u64::MAX` = unbounded); `None` =
    /// memory-blind planning.
    pub memory_bytes: Option<Vec<u64>>,
    /// The elastic-membership timeline.
    pub cluster_events: Vec<(usize, ClusterEvent)>,
}

/// What a substrate measured over the window an epoch closes.
pub struct EpochInput<'a> {
    /// The step the epoch closes (0-based; traces record `step + 1`).
    pub step: usize,
    /// Ownership before the epoch.
    pub ownership: &'a Ownership,
    /// Per-rank busy seconds over the window (read under measured input).
    pub busy: &'a [f64],
    /// The workload in effect (read under modeled input).
    pub work: &'a WorkModel,
}

/// What one epoch planned.
pub struct EpochPlan {
    /// The policy's plan; no moves means nothing to migrate.
    pub plan: MigrationPlan,
    /// Wall seconds of the `plan` call alone.
    pub plan_seconds: f64,
}

/// The records of every realized epoch, in epoch order.
#[derive(Debug, Clone, Default)]
pub struct EpochRecords {
    /// Per-rank SD counts after each plan.
    pub lb_history: Vec<Vec<usize>>,
    /// Each plan's moves.
    pub lb_plans: Vec<Vec<Move>>,
    /// Each plan's [`EpochTrace`].
    pub epoch_traces: Vec<EpochTrace>,
}

impl EpochRecords {
    /// SDs migrated over the run.
    pub fn migrations(&self) -> usize {
        self.lb_plans.iter().map(Vec::len).sum()
    }

    /// Planner-grade migration bytes over the run.
    pub fn migration_bytes(&self) -> u64 {
        self.epoch_traces.iter().map(|t| t.migration_bytes).sum()
    }

    /// The inter-rack share of [`EpochRecords::migration_bytes`].
    pub fn inter_rack_migration_bytes(&self) -> u64 {
        self.epoch_traces
            .iter()
            .map(|t| t.inter_rack_migration_bytes)
            .sum()
    }
}

/// One policy instance and its planning view, alive across a whole run
/// so stateful policies (the drift monitor) see every epoch.
pub struct EpochController {
    schedule: LbSchedule,
    setup: EpochSetup,
    policy: Box<dyn LbPolicy>,
    net: LbNetwork,
    records: EpochRecords,
}

impl EpochController {
    /// Build the policy and the planning view for `schedule`.
    ///
    /// # Panics
    /// Panics on an invalid schedule, or memory capacities that do not
    /// name every rank.
    pub fn new(schedule: &LbSchedule, setup: EpochSetup) -> Self {
        schedule.validate();
        let graph = Arc::new(SdGraph::build(&setup.sds, setup.halo));
        let mut net = LbNetwork::for_sd_tiles(&setup.net, setup.sds.cells_per_sd());
        if let Some(caps) = &setup.memory_bytes {
            assert_eq!(
                caps.len(),
                setup.speeds.len(),
                "memory capacities must name every rank"
            );
            net = net.with_memory(Arc::new(caps.clone()), Arc::new(graph.footprints()));
        }
        EpochController {
            schedule: schedule.clone(),
            policy: schedule.spec.build(),
            net: net.with_sd_graph(graph),
            setup,
            records: EpochRecords::default(),
        }
    }

    /// Whether an epoch closes `step`.
    pub fn due(&self, step: usize) -> bool {
        self.schedule.due(step, self.setup.n_steps)
    }

    /// The planning view the policy sees.
    pub fn net(&self) -> &LbNetwork {
        &self.net
    }

    /// Run one epoch: plan, record. The caller migrates.
    pub fn epoch(&mut self, input: EpochInput<'_>) -> EpochPlan {
        let own = input.ownership;
        let busy = match self.setup.input {
            LbInput::Measured => input.busy.iter().map(|&b| b.max(1e-12)).collect(),
            LbInput::Modeled => modeled_busy(
                &self.setup.sds,
                own.owners(),
                own.n_nodes(),
                input.work,
                &self.setup.speeds,
                self.setup.sec_per_dp,
            ),
        };
        if !self.setup.cluster_events.is_empty() {
            let n = own.n_nodes() as usize;
            let mask = active_at(n, &self.setup.cluster_events, input.step + 1);
            self.net.active = Some(Arc::new(mask));
        }
        let metrics = compute_metrics(&own.counts(), &busy);
        let t0 = Instant::now();
        let plan = self.policy.plan(own, &metrics, &self.net);
        let plan_seconds = t0.elapsed().as_secs_f64();
        if !plan.moves.is_empty() {
            let trace =
                EpochTrace::record(input.step + 1, self.policy.name(), &plan, own, &self.net);
            self.records
                .epoch_traces
                .push(trace.with_drift(self.policy.drift_info()));
            self.records.lb_plans.push(plan.moves.clone());
            self.records.lb_history.push(plan.new_ownership.counts());
        }
        EpochPlan { plan, plan_seconds }
    }

    /// The records of every realized epoch.
    pub fn finish(self) -> EpochRecords {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n_steps: usize, input: LbInput) -> EpochSetup {
        EpochSetup {
            n_steps,
            input,
            sds: SdGrid::new(4, 4, 4),
            halo: 1,
            net: NetSpec::Instant,
            speeds: vec![1.0, 1.0],
            sec_per_dp: 1e-9,
            memory_bytes: None,
            cluster_events: Vec::new(),
        }
    }

    fn input<'a>(own: &'a Ownership, busy: &'a [f64]) -> EpochInput<'a> {
        EpochInput {
            step: 1,
            ownership: own,
            busy,
            work: &WorkModel::Uniform,
        }
    }

    #[test]
    fn no_epoch_on_the_last_step() {
        let ctl = EpochController::new(&LbSchedule::every(2), setup(4, LbInput::Measured));
        let due: Vec<bool> = (0..4).map(|step| ctl.due(step)).collect();
        assert_eq!(due, [false, true, false, false]);
        assert!(LbSchedule::every(1).due(2, 4));
        assert!(!LbSchedule::every(1).due(3, 4));
    }

    #[test]
    fn only_realized_epochs_are_recorded() {
        let mut ctl = EpochController::new(&LbSchedule::every(2), setup(8, LbInput::Measured));
        let sds = SdGrid::new(4, 4, 4);
        let even = Ownership::new(sds, (0..16).map(|sd| sd / 8).collect(), 2);
        let out = ctl.epoch(input(&even, &[1.0, 1.0]));
        assert!(out.plan.moves.is_empty());
        assert!(out.plan_seconds >= 0.0);
        let mut owners = vec![0u32; 16];
        owners[15] = 1;
        let lopsided = Ownership::new(sds, owners, 2);
        let out = ctl.epoch(input(&lopsided, &[15.0, 1.0]));
        assert!(!out.plan.moves.is_empty());
        let records = ctl.finish();
        assert_eq!(records.lb_plans, vec![out.plan.moves.clone()]);
        assert_eq!(records.lb_history, vec![out.plan.new_ownership.counts()]);
        assert_eq!(records.epoch_traces.len(), 1);
        assert_eq!(records.epoch_traces[0].step, 2);
        assert_eq!(records.migrations(), out.plan.moves.len());
        assert_eq!(records.migration_bytes(), out.plan.comm.total_bytes);
    }

    #[test]
    fn the_planning_view_carries_the_graph_and_memory() {
        let mut with_caps = setup(4, LbInput::Measured);
        with_caps.memory_bytes = Some(vec![u64::MAX, 1 << 20]);
        let ctl = EpochController::new(&LbSchedule::every(2), with_caps);
        let graph = ctl.net().sd_graph.as_ref().expect("graph attached");
        assert_eq!(**graph, SdGraph::build(&SdGrid::new(4, 4, 4), 1));
        assert_eq!(ctl.net().sd_footprint.as_deref(), Some(&graph.footprints()));
        assert!(ctl.net().memory_bytes.is_some());
    }
}
