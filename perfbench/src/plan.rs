//! Planner timing: the `plan_10k` workload, and the planner latencies
//! every other workload reports on its own planner inputs.

use crate::gate::{no_panic, single_hop, Check, Gate};
use crate::inputs::{self, hier_spec, repart_spec, PlannerInputs};
use crate::{median, replay, simw, timed, Metrics, Opts, Size};
use nlheat_core::balance::EpochTrace;
use nlheat_core::scenario::{PartitionSpec, Scenario};
use nlheat_core::Move;
use nlheat_sim::RunSim;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest one planning call (or batch of calls) may overrun its budget.
const PLAN_GRACE: Duration = Duration::from_secs(120);

/// One plan from each planner on the same inputs.
struct Planned {
    /// Wall seconds of building and running both planners.
    wall: f64,
    hier: Vec<Move>,
    hier_s: f64,
    hier_bytes: u64,
    repart: Vec<Move>,
    repart_s: f64,
    repart_bytes: u64,
    /// Whether the drift monitor triggered the replan.
    replanned: bool,
}

/// Plan once with fresh instances of both planners.
fn plan_both(p: &PlannerInputs) -> Planned {
    let t0 = Instant::now();
    let mut hier = hier_spec().build();
    let (h, hier_s) = timed(|| hier.plan(&p.ownership, &p.metrics, &p.net));
    let mut repart = repart_spec().build();
    let (r, repart_s) = timed(|| repart.plan(&p.ownership, &p.metrics, &p.net));
    let wall = t0.elapsed().as_secs_f64();
    let bytes =
        |plan, name| EpochTrace::record(0, name, plan, &p.ownership, &p.net).migration_bytes;
    Planned {
        wall,
        hier_bytes: bytes(&h, hier.name()),
        repart_bytes: bytes(&r, repart.name()),
        replanned: repart.drift_info().is_some_and(|d| d.replan),
        hier: h.moves,
        hier_s,
        repart: r.moves,
        repart_s,
    }
}

/// The checks of one planning iteration: the single-hop contract of both
/// plans, exact repetition of the first iteration's plans and, where the
/// workload promises one (`plan_10k`), the drift trigger of the replan.
fn checks(
    p: &PlannerInputs,
    got: &Planned,
    first: Option<&Planned>,
    drift_triggered: bool,
) -> Vec<Check> {
    let hop = |moves: &[Move]| single_hop(&mut p.ownership.owners().to_vec(), p.n_ranks, moves);
    let same = first.map_or(Ok(()), |f| {
        if f.hier == got.hier && f.repart == got.repart {
            Ok(())
        } else {
            Err("plans differ between iterations on identical inputs".into())
        }
    });
    let mut checks = vec![
        ("hier single-hop", hop(&got.hier)),
        ("repart single-hop", hop(&got.repart)),
        ("deterministic", same),
    ];
    if drift_triggered {
        let replan = if got.replanned {
            Ok(())
        } else {
            Err("the drift monitor did not replan".into())
        };
        checks.push(("repart drift-triggered", replan));
    }
    checks
}

/// Latency samples of both planners on `p`, taken for `budget` seconds
/// (at least one plan each) in one deadline-guarded batch; every plan is
/// gated. Returns the hierarchical and the replan seconds per plan.
pub fn planner_samples(
    p: &Arc<PlannerInputs>,
    gate: &mut Gate,
    idx: usize,
    budget: f64,
) -> (Vec<f64>, Vec<f64>) {
    let inputs = p.clone();
    let limit = Duration::from_secs_f64(budget) + PLAN_GRACE;
    let batch = gate.deadline("plans", idx, limit, move || {
        let t0 = Instant::now();
        let (mut first, mut hier, mut repart, mut error, mut failed) =
            (None, Vec::new(), Vec::new(), None, 0);
        while hier.is_empty() || t0.elapsed().as_secs_f64() < budget {
            let got = plan_both(&inputs);
            hier.push(got.hier_s);
            repart.push(got.repart_s);
            if let Some(e) = checks(&inputs, &got, first.as_ref(), false)
                .into_iter()
                .find_map(|(n, r)| r.err().map(|e| format!("{n}: {e}")))
            {
                failed += 1;
                error.get_or_insert(e);
            }
            first.get_or_insert(got);
        }
        (hier, repart, failed, error)
    });
    match batch {
        Ok((hier, repart, failed, error)) => {
            let result = error.map_or(Ok(()), Err);
            let runs = 2 * hier.len() as u64;
            gate.batch(
                "plans",
                idx,
                runs,
                failed,
                vec![("single-hop+deterministic", result)],
            );
            (hier, repart)
        }
        Err(e) => {
            gate.unit("plans", idx, vec![("completes", Err(e))]);
            (Vec::new(), Vec::new())
        }
    }
}

/// `plan_10k`: hierarchical plan plus drift-triggered replan per
/// iteration on inputs built once per set-up, then one simulated step of
/// the hierarchical plan's ownership as its load-balance quality.
pub fn run(opts: &Opts, gate: &mut Gate) -> Metrics {
    let sc = inputs::scenario(opts.workload, opts.size, opts.seed);
    let mut m = Metrics::new();
    // three set-ups of over a second each; only one set of inputs is
    // alive at a time
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..3 {
        drop(built.take());
        let (inputs, secs) = inputs::setup(&sc, false);
        setups.push(secs);
        built = Some(inputs);
    }
    m.insert("setup_s", median(&setups));
    let planner = Arc::new(built.expect("three set-ups ran"));

    // One untimed (but gated) warm-up iteration: the first plans after a
    // set-up pay first-touch page faults a planner running every epoch
    // does not.
    let (mut iters, mut hier_s, mut repart_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Planned> = None;
    let t0 = Instant::now();
    let mut idx = 0;
    while idx < 4 || t0.elapsed().as_secs_f64() < 0.5 * opts.seconds {
        let p = planner.clone();
        match gate.deadline("plan", idx, PLAN_GRACE, move || plan_both(&p)) {
            Ok(got) => {
                gate.batch(
                    "plan",
                    idx,
                    2,
                    0,
                    checks(&planner, &got, first.as_ref(), true),
                );
                if idx > 0 {
                    iters.push(got.wall);
                    hier_s.push(got.hier_s);
                    repart_s.push(got.repart_s);
                }
                first.get_or_insert(got);
            }
            Err(e) => {
                gate.batch("plan", idx, 2, 2, vec![("completes", Err(e))]);
            }
        }
        idx += 1;
    }
    let Some(first) = first else { return m };

    // Load-balance quality of the hierarchical plan: one simulated step
    // from the ownership it produces, simulated twice.
    let mut owners = planner.ownership.owners().to_vec();
    for mv in &first.hier {
        owners[mv.sd as usize] = mv.to;
    }
    // the planner inputs are done with; free them before the simulator
    // allocates its own view of the million SDs
    drop(planner);
    let planned_sc: Arc<Scenario> = Arc::new(
        sc.clone()
            .without_lb()
            .with_partition(PartitionSpec::Explicit(owners.clone())),
    );
    let (mut sim, mut sim_walls) = (None::<nlheat_core::scenario::RunReport>, Vec::new());
    for rep in 0..2 {
        let s = planned_sc.clone();
        match gate.deadline("sim", rep, PLAN_GRACE, move || timed(|| s.run_sim())) {
            Ok((report, wall)) => {
                let same = sim.as_ref().map_or(Ok(()), |f| {
                    if f.makespan.to_bits() == report.makespan.to_bits() {
                        Ok(())
                    } else {
                        Err(format!("makespan {} then {}", f.makespan, report.makespan))
                    }
                });
                let invariants = no_panic(|| report.check_invariants());
                gate.unit(
                    "sim",
                    rep,
                    vec![("invariants", invariants), ("deterministic", same)],
                );
                sim_walls.push(wall);
                sim.get_or_insert(report);
            }
            Err(e) => {
                gate.unit("sim", rep, vec![("completes", Err(e))]);
            }
        }
    }
    let sim_wall = median(&sim_walls);

    let iter_s = median(&iters);
    if !opts.trace {
        m.insert("solve_s", iter_s);
        m.insert("plan_hier_s", median(&hier_s));
        m.insert("plan_repart_s", median(&repart_s));
        if let Some(report) = &sim {
            m.insert("sim_wall_s", sim_wall);
            m.insert("sim_makespan_s", report.makespan);
            m.insert("busy_frac", simw::busy_frac(&planned_sc, report));
        }
        return m;
    }
    let moves = first.hier.len() + first.repart.len();
    let realized = usize::from(!first.hier.is_empty()) + usize::from(!first.repart.is_empty());
    let plan_s = median(&hier_s) + median(&repart_s);
    m.insert("lb.epochs_attempted", 2.0);
    m.insert("lb.epochs_realized", realized as f64);
    m.insert("lb.realized_ratio", realized as f64 / 2.0);
    m.insert("lb.moves", moves as f64);
    m.insert("lb.plan_s", plan_s);
    m.insert("migrate.sds", moves as f64);
    m.insert(
        "migrate.bytes",
        (first.hier_bytes + first.repart_bytes) as f64,
    );
    replay::partition(&sc, &owners, opts.seed, &mut m);
    if let Some(report) = &sim {
        // the simulated step runs without balancing
        simw::sim_layer(report, sim_wall, 0.0, &mut m);
    }
    m.insert("trace.solve_s", iter_s);
    m.insert("trace.attributed_s", plan_s);
    m.insert("trace.unattributed_s", iter_s - plan_s);
    if opts.size == Size::Full {
        println!(
            "# plan_10k: hier {:.4} s, repart {:.4} s, {} + {} moves",
            median(&hier_s),
            median(&repart_s),
            first.hier.len(),
            first.repart.len()
        );
    }
    m
}
