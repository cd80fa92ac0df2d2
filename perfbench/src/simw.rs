//! The simulator: the `sim_scale16` workload, and the simulator twin the
//! real-runtime workloads compare their plans and time against.

use crate::gate::{no_panic, same_plans, Gate};
use crate::{inputs, median, plan, replay, timed, Metrics, Opts};
use nlheat_core::scenario::{RunReport, Scenario};
use nlheat_sim::RunSim;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest a batch of simulator runs may overrun its budget.
const SIM_GRACE: Duration = Duration::from_secs(60);

/// Run the simulator on `sc` for `budget` seconds (at least `min_reps`
/// runs) in one deadline-guarded batch. Every run must pass the report
/// invariants and repeat `reference` — else the batch's first run —
/// exactly (makespan bits and plans). Returns the batch's reference
/// report and the wall seconds of every run.
pub fn reps(
    sc: &Arc<Scenario>,
    gate: &mut Gate,
    idx: usize,
    budget: f64,
    min_reps: usize,
    reference: Option<&RunReport>,
) -> (Option<RunReport>, Vec<f64>) {
    let s = sc.clone();
    let limit = Duration::from_secs_f64(budget) + SIM_GRACE;
    let mut first = reference.cloned();
    let batch = gate.deadline("sim", idx, limit, move || {
        let t0 = Instant::now();
        let (mut walls, mut errors, mut failed) = (Vec::new(), Vec::new(), 0);
        while walls.len() < min_reps || t0.elapsed().as_secs_f64() < budget {
            let (report, wall) = timed(|| s.run_sim());
            walls.push(wall);
            let mut bad = no_panic(|| report.check_invariants()).err();
            match &first {
                None => first = Some(report),
                Some(f) => {
                    let f: &RunReport = f;
                    if f.makespan.to_bits() != report.makespan.to_bits() {
                        bad = Some(format!("makespan {} then {}", f.makespan, report.makespan));
                    } else if let Err(e) = same_plans(&report.lb_plans, &f.lb_plans) {
                        bad = Some(e);
                    }
                }
            }
            if let Some(e) = bad {
                failed += 1;
                errors.push(e);
            }
        }
        (first, walls, errors, failed)
    });
    match batch {
        Ok((first, walls, errors, failed)) => {
            let result = errors.into_iter().next().map_or(Ok(()), Err);
            gate.batch(
                "sim",
                idx,
                walls.len() as u64,
                failed,
                vec![("invariants+deterministic", result)],
            );
            (first, walls)
        }
        Err(e) => {
            gate.unit("sim", idx, vec![("completes", Err(e))]);
            (None, Vec::new())
        }
    }
}

/// Σ busy / (Σ cores × makespan) of a simulator report.
pub fn busy_frac(sc: &Scenario, report: &RunReport) -> f64 {
    let cores: usize = sc.cluster.nodes.iter().map(|n| n.cores).sum();
    report.busy.iter().sum::<f64>() / (cores as f64 * report.makespan)
}

/// Simulator layer counts, and the share of its wall time the replayed
/// plans account for.
pub fn sim_layer(report: &RunReport, wall: f64, plan_s: f64, m: &mut Metrics) {
    if let Some(x) = report.sim_extras() {
        m.insert("sim.messages", x.messages as f64);
        m.insert("sim.cross_bytes", x.cross_bytes as f64);
    }
    m.insert("sim.plan_share", plan_s / wall);
}

pub fn run(opts: &Opts, gate: &mut Gate) -> Metrics {
    let sc = Arc::new(inputs::scenario(opts.workload, opts.size, opts.seed));
    let mut m = Metrics::new();
    let (planner, secs) = inputs::setup(&sc, false);
    let mut setups = vec![secs];
    let planner = Arc::new(planner);
    // Simulator runs, planner calls and set-ups alternate in short
    // slices, so every median samples the whole run window.
    let t0 = Instant::now();
    let (mut first, mut walls, mut hier, mut repart) = (None, Vec::new(), Vec::new(), Vec::new());
    let mut round = 0;
    while round < 2 || t0.elapsed().as_secs_f64() < 0.9 * opts.seconds {
        let (report, w) = reps(&sc, gate, round, 0.03 * opts.seconds, 1, first.as_ref());
        walls.extend(w);
        first = first.or(report);
        if !opts.trace {
            setups.extend((0..3).map(|_| inputs::setup(&sc, false).1));
            let (h, r) = plan::planner_samples(&planner, gate, round, 0.01 * opts.seconds);
            hier.extend(h);
            repart.extend(r);
        }
        round += 1;
    }
    let Some(report) = first else { return m };
    let wall = median(&walls);
    if !opts.trace {
        m.insert("setup_s", median(&setups));
        m.insert("solve_s", wall);
        m.insert("sim_wall_s", wall);
        m.insert("sim_makespan_s", report.makespan);
        m.insert("busy_frac", busy_frac(&sc, &report));
        m.insert("plan_hier_s", median(&hier));
        m.insert("plan_repart_s", median(&repart));
        return m;
    }
    let replayed = replay::lb(&sc, &report.lb_plans, &mut m);
    gate.unit("trace", 0, vec![("replay matches the run", replayed)]);
    m.insert("migrate.sds", report.migrations as f64);
    m.insert("migrate.bytes", report.migration_bytes as f64);
    replay::partition(&sc, report.final_ownership.owners(), opts.seed, &mut m);
    sim_layer(&report, wall, m["lb.plan_s"], &mut m);
    // each simulator run partitions the mesh, builds the SD graph and
    // plans every epoch itself
    let attributed = m["lb.plan_s"] + m["partition.initial_s"] + m["partition.sdgraph_build_s"];
    m.insert("trace.solve_s", wall);
    m.insert("trace.attributed_s", attributed);
    m.insert("trace.unattributed_s", wall - attributed);
    m
}
