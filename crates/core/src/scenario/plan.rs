//! Plan-only execution: measure *planning*, not the run it would steer.
//!
//! The hierarchical planner's claim is about plan **time** at cluster
//! scale — 10k ranks over a million SDs — where actually timestepping the
//! mesh (on either substrate) would swamp the measurement and the memory
//! of a CI box. [`PlanSubstrate`] realizes a [`Scenario`] as exactly one
//! load-balancing epoch of the same [`EpochController`] both real
//! substrates run, under the deterministic modeled busy times of the
//! [`LbInput::Modeled`] parity mode: the same planning view (SD graph,
//! memory capacities, per-SD footprints), the configured policy's `plan`
//! called once under a wall clock, and the plan itself reported — through
//! the same [`RunReport`] shape, so [`super::sweep::ScenarioSweep`] can
//! sweep plan time over rank counts like any other measurement.
//!
//! `makespan` is the planning wall time in seconds (the quantity the
//! near-linearity benches regress); `lb_plans`/`epoch_traces` carry the
//! single emitted plan, so [`RunReport::check_invariants`] replays it
//! against the scenario's memory capacities exactly as it does for full
//! runs.

use super::{LbInput, RunExtras, RunReport, Scenario, Substrate};
use crate::balance::{EpochController, EpochInput, EpochPlan, EpochSetup};
use crate::ownership::Ownership;
use nlheat_mesh::Grid;

/// What only a plan-only run can measure.
#[derive(Debug, Clone)]
pub struct PlanExtras {
    /// Wall seconds of the single `plan` call (same value as `makespan`).
    pub plan_seconds: f64,
    /// Ranks planned over.
    pub n_ranks: usize,
    /// SDs planned over.
    pub n_sds: usize,
}

/// The planning phase as a [`Substrate`]: one policy invocation, timed.
pub struct PlanSubstrate;

impl Substrate for PlanSubstrate {
    fn name(&self) -> &'static str {
        "plan"
    }

    fn run(&self, scenario: &Scenario) -> RunReport {
        scenario.validate();
        let lb = scenario
            .lb
            .as_ref()
            .expect("PlanSubstrate needs an LB schedule: there is nothing to time without one");
        let sds = scenario.sd_grid();
        let n_nodes = scenario.cluster.len() as u32;
        let cluster = &scenario.cluster;
        let setup = EpochSetup {
            n_steps: scenario.steps,
            // there is no run to measure: plan from the modeled busy times
            input: LbInput::Modeled,
            sds,
            halo: Grid::square(scenario.problem.n, scenario.problem.eps_mult).halo,
            net: scenario.net,
            speeds: cluster.speed_factors(),
            sec_per_dp: scenario.sec_per_dp(),
            memory_bytes: cluster
                .has_memory_caps()
                .then(|| cluster.memory_capacities()),
            cluster_events: scenario.cluster_events.clone(),
        };
        let mut epochs = EpochController::new(lb, setup);
        let ownership = Ownership::new(
            sds,
            scenario.partition.initial_owners(&sds, n_nodes),
            n_nodes,
        );
        // The first balancing step. Everything above is setup either real
        // substrate would amortize over a whole run; the measured quantity
        // is the planning call the controller times.
        let step = lb.period - 1;
        let EpochPlan { plan, plan_seconds } = epochs.epoch(EpochInput {
            step,
            ownership: &ownership,
            busy: &[],
            ghost_stall: 0.0,
            migration_stall: 0.0,
            barrier: 0.0,
            work: scenario.work_at(step),
        });
        let records = epochs.finish();
        RunReport {
            substrate: "plan",
            makespan: plan_seconds,
            busy: plan.metrics.busy,
            migrations: records.migrations(),
            migration_bytes: records.migration_bytes(),
            inter_rack_migration_bytes: records.inter_rack_migration_bytes(),
            ghost_bytes: 0,
            inter_rack_ghost_bytes: 0,
            lb_history: records.lb_history,
            lb_plans: records.lb_plans,
            epoch_traces: records.epoch_traces,
            final_ownership: plan.new_ownership,
            field: None,
            error: None,
            memory_bytes: None,
            sd_footprint: None,
            extras: RunExtras::Plan(PlanExtras {
                plan_seconds,
                n_ranks: n_nodes as usize,
                n_sds: sds.count(),
            }),
        }
        .with_scenario_memory(scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::LbSchedule;
    use crate::scenario::library;
    use crate::scenario::{ClusterSpec, PartitionSpec};

    #[test]
    fn plan_substrate_reports_one_epoch() {
        let sds_owners = {
            let mut o = vec![0u32; 16];
            o[15] = 1;
            o
        };
        let sc = Scenario::square(16, 2.0, 4, 4)
            .on(ClusterSpec::uniform(2, 1))
            .with_partition(PartitionSpec::Explicit(sds_owners))
            .with_lb(LbSchedule::every(2));
        let report = PlanSubstrate.run(&sc);
        report.check_invariants();
        assert_eq!(report.substrate, "plan");
        assert!(report.migrations > 0, "the 15/1 start must plan moves");
        assert_eq!(report.lb_plans.len(), 1, "exactly one epoch");
        assert!(report.field.is_none());
        let extras = report.plan_extras().expect("plan extras");
        assert_eq!(extras.n_ranks, 2);
        assert_eq!(extras.n_sds, 16);
        assert!(extras.plan_seconds >= 0.0);
        assert_eq!(report.makespan, extras.plan_seconds);
        // the plan moved SDs off the overloaded rank
        let counts = report.final_ownership.counts();
        assert!(counts[0] < 15 && counts[1] > 1, "counts {counts:?}");
    }

    #[test]
    fn balanced_start_plans_nothing() {
        let sc = Scenario::square(16, 2.0, 4, 4)
            .on(ClusterSpec::uniform(2, 1))
            .with_partition(PartitionSpec::Strip)
            .with_lb(LbSchedule::every(2));
        let report = PlanSubstrate.run(&sc);
        report.check_invariants();
        assert_eq!(report.migrations, 0);
        assert!(report.lb_plans.is_empty(), "no realized epoch");
        assert!(report.epoch_traces.is_empty());
    }

    #[test]
    fn memory_tables_ride_along_and_replay() {
        let sc = library::memory_pressure(true);
        let report = PlanSubstrate.run(&sc);
        assert!(
            report.memory_bytes.is_some() && report.sd_footprint.is_some(),
            "memory scenario must attach its tables"
        );
        // replays the emitted plan against the declared capacities
        report.check_invariants();
    }

    #[test]
    #[should_panic(expected = "needs an LB schedule")]
    fn missing_lb_schedule_rejected() {
        let sc = Scenario::square(16, 2.0, 4, 4).on(ClusterSpec::uniform(2, 1));
        let _ = PlanSubstrate.run(&sc);
    }

    #[test]
    fn hierarchical_scale_scenario_plans_under_a_budget() {
        // tiny instance of the plan-scale harness: exercises the
        // hierarchical policy through the plan-only substrate end to end
        let sc = library::plan_scale(100);
        let report = PlanSubstrate.run(&sc);
        report.check_invariants();
        assert_eq!(report.plan_extras().unwrap().n_ranks, 100);
        assert!(
            report.migrations > 0,
            "the skewed speed profile must imbalance the strip start"
        );
    }
}
