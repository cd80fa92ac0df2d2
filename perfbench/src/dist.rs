//! The real-runtime workload (`hetero_dist`).
//!
//! Each timed solve builds its own cluster with `Scenario::build_cluster`
//! and runs `run_distributed` on it, so busy time comes from the
//! cluster's `ThreadPool::busy_ns_total` over the whole solve. (The
//! report's own `busy` covers only the window since the last balancing
//! epoch, because the driver resets the busy counter at every epoch.)

use crate::gate::{bit_identical, no_panic, same_plans, single_hop, Check, Gate};
use crate::inputs;
use crate::replay::{self, NetCounters, PoolCounters};
use crate::{median, plan, simw, timed, Metrics, Opts, Size};
use nlheat_core::dist::run_distributed;
use nlheat_core::scenario::{RunReport, Scenario};
use nlheat_model::SerialSolver;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest a single solve may take before the run is declared hung.
const SOLVE_DEADLINE: Duration = Duration::from_secs(60);
/// Solves every run makes, however short its budget.
const MIN_SOLVES: usize = 3;

/// One gated real-runtime solve.
pub struct Solve {
    pub wall: f64,
    /// Per-locality pool counter growth over the solve.
    pub pools: Vec<PoolCounters>,
    pub net: NetCounters,
    pub report: RunReport,
}

impl Solve {
    /// Σ pool busy / (workers × wall).
    pub fn busy_frac(&self) -> f64 {
        let busy: u64 = self.pools.iter().map(|p| p.busy_ns).sum();
        let workers: usize = self.pools.iter().map(|p| p.workers).sum();
        busy as f64 * 1e-9 / (workers.max(1) as f64 * self.wall)
    }
}

/// Build a cluster, solve on it, and read its counters (the pool
/// counters only when `counted`).
pub fn solve(sc: &Scenario, counted: bool) -> Solve {
    let cluster = sc.build_cluster();
    let cfg = sc.dist_config();
    let before: Vec<PoolCounters> = cluster
        .localities()
        .iter()
        .map(|l| PoolCounters::read(l.pool()))
        .collect();
    let (report, wall) = timed(|| run_distributed(&cluster, &cfg));
    let pools = cluster
        .localities()
        .iter()
        .zip(before)
        .filter(|_| counted)
        .map(|(l, b)| {
            // busy time is booked when a task retires, just after its
            // future resolves
            l.wait_idle();
            PoolCounters::read(l.pool()).since(b)
        })
        .collect();
    let stats = cluster.net_stats();
    let net = NetCounters {
        messages: stats.messages(),
        bytes: stats.bytes(),
        cross_bytes: stats.cross_bytes(),
    };
    let report =
        RunReport::from_dist(report, net.messages, net.cross_bytes).with_scenario_memory(sc);
    Solve {
        wall,
        pools,
        net,
        report,
    }
}

/// The serial reference field every solve must match bit for bit.
pub fn serial_reference(sc: &Scenario) -> Vec<f64> {
    let mut solver = SerialSolver::manufactured(&sc.problem.build());
    solver.run(sc.steps);
    solver.field()
}

/// The checks of one solve: bit identity with the serial field, the
/// report invariants, the single-hop contract of every realized plan
/// (replayed from the initial partition onto the final ownership), and
/// plan parity with the simulator under modeled planning input.
pub fn checks(
    report: &RunReport,
    reference: &[f64],
    initial: &[u32],
    sim_plans: Option<&[Vec<nlheat_core::Move>]>,
) -> Vec<Check> {
    let field = report.field.as_deref().unwrap_or_default();
    let n = report.final_ownership.counts().len() as u32;
    let hops = (|| {
        let mut owners = initial.to_vec();
        for plan in &report.lb_plans {
            single_hop(&mut owners, n, plan)?;
        }
        if owners != report.final_ownership.owners() {
            return Err("the plans do not lead to the final ownership".to_string());
        }
        Ok(())
    })();
    vec![
        ("field==serial", bit_identical(field, reference)),
        ("invariants", no_panic(|| report.check_invariants())),
        ("single-hop", hops),
        (
            "plans==sim",
            sim_plans.map_or(Err("no simulator twin".into()), |p| {
                same_plans(&report.lb_plans, p)
            }),
        ),
    ]
}

pub fn run(opts: &Opts, gate: &mut Gate) -> Metrics {
    let sc = Arc::new(inputs::scenario(opts.workload, opts.size, opts.seed));
    let mut m = Metrics::new();
    let (planner, secs) = inputs::setup(&sc, true);
    let mut setups = vec![secs];
    let planner = Arc::new(planner);
    let initial = planner.ownership.owners().to_vec();
    let reference = serial_reference(&sc);
    let (twin, mut sim_walls) = simw::reps(&sc, gate, 0, 0.01 * opts.seconds, 5, None);
    let sim_plans = twin.as_ref().map(|r| r.lb_plans.clone());

    // Timed solves. Untraced runs interleave set-ups and a short slice of
    // simulator runs and planner calls after every solve, so all medians
    // sample the whole run window. The traced run alternates solves whose pool
    // counters are read with solves that only take the wall time.
    let share = if opts.trace { 0.5 } else { 0.9 };
    let t0 = Instant::now();
    let (mut walls, mut fracs, mut bare_walls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut hier, mut repart) = (Vec::new(), Vec::new());
    let mut last: Option<Solve> = None;
    let mut idx = 0;
    while idx < MIN_SOLVES || t0.elapsed().as_secs_f64() < share * opts.seconds {
        let s = sc.clone();
        let counted = !opts.trace || idx % 2 == 0;
        match gate.deadline("solve", idx, SOLVE_DEADLINE, move || solve(&s, counted)) {
            Ok(solve) => {
                let checks = checks(&solve.report, &reference, &initial, sim_plans.as_deref());
                gate.unit("solve", idx, checks);
                if counted {
                    walls.push(solve.wall);
                    fracs.push(solve.busy_frac());
                    last = Some(solve);
                } else {
                    bare_walls.push(solve.wall);
                }
            }
            Err(e) => {
                gate.unit("solve", idx, vec![("completes", Err(e))]);
            }
        }
        idx += 1;
        if !opts.trace {
            // sub-millisecond set-ups: a few per round for a steady median
            setups.extend((0..3).map(|_| inputs::setup(&sc, true).1));
            let slice = 0.01 * opts.seconds;
            sim_walls.extend(simw::reps(&sc, gate, idx, slice, 1, twin.as_ref()).1);
            let (h, r) = plan::planner_samples(&planner, gate, idx, slice);
            hier.extend(h);
            repart.extend(r);
        }
    }
    if let Some(s) = &last {
        let reported: f64 = s.report.busy.iter().sum();
        let pools: u64 = s.pools.iter().map(|p| p.busy_ns).sum();
        println!(
            "# note: RunReport.busy sums to {reported:.4} s but the pool counters to {:.4} s over the same solve (the driver resets busy_time every LB epoch)",
            pools as f64 * 1e-9
        );
    }

    if !opts.trace {
        m.insert("setup_s", median(&setups));
        m.insert("solve_s", median(&walls));
        m.insert("busy_frac", median(&fracs));
        m.insert("sim_wall_s", median(&sim_walls));
        m.insert("sim_makespan_s", twin.map_or(0.0, |r| r.makespan));
        m.insert("plan_hier_s", median(&hier));
        m.insert("plan_repart_s", median(&repart));
        return m;
    }

    let Some(solve) = last else { return m };
    let traced = median(&walls);
    m.insert("trace.solve_s", traced);
    m.insert("trace.overhead_frac", traced / median(&bare_walls) - 1.0);
    let layers = trace_layers(&sc, &solve, opts, &mut m);
    gate.unit("trace", 0, vec![("replay matches the run", layers)]);
    let n = solve.pools.len() as f64;
    let get = |k: &str| m.get(k).copied().unwrap_or(0.0);
    // The locality-parallel layers count once per locality; locality 0
    // plans while the others wait, so the plan counts in full.
    let attributed = (get("kernel.busy_s")
        + get("halo.pack_s")
        + get("halo.unpack_s")
        + get("fabric.send_recv_s")
        + get("pool.spawn_s"))
        / n
        + get("lb.plan_s");
    let plan_s = get("lb.plan_s");
    m.insert("trace.attributed_s", attributed);
    m.insert("trace.unattributed_s", traced - attributed);
    if let Some(twin) = twin {
        simw::sim_layer(&twin, median(&sim_walls), plan_s, &mut m);
    }
    if opts.size == Size::Full {
        print_breakdown(&m);
    }
    m
}

/// Replay every layer of `solve` and check the replays against the run.
fn trace_layers(sc: &Scenario, solve: &Solve, opts: &Opts, m: &mut Metrics) -> Result<(), String> {
    let shape = replay::shape(sc, &solve.report)?;
    let mut tiles = replay::Tiles::new(sc);
    replay::kernel(sc, &shape, &mut tiles, m);
    let mix = replay::codec(&shape, &mut tiles, m)?;
    replay::fabric(sc, &mix, solve.net, m)?;
    replay::pool(&solve.pools, m);
    replay::lb(sc, &solve.report.lb_plans, m)?;
    if shape.epochs_attempted as f64 != m["lb.epochs_attempted"] {
        return Err("epoch count of the replay differs from the reconstruction".into());
    }
    m.insert("migrate.sds", solve.report.migrations as f64);
    m.insert("migrate.bytes", solve.report.migration_bytes as f64);
    replay::partition(sc, solve.report.final_ownership.owners(), opts.seed, m);
    Ok(())
}

fn print_breakdown(m: &Metrics) {
    let keys = [
        "kernel.busy_s",
        "halo.pack_s",
        "halo.unpack_s",
        "fabric.send_recv_s",
        "pool.spawn_s",
        "lb.plan_s",
        "trace.attributed_s",
        "trace.unattributed_s",
        "trace.solve_s",
    ];
    let parts: Vec<String> = keys
        .iter()
        .map(|k| format!("{k}={:.6}", m.get(k).copied().unwrap_or(0.0)))
        .collect();
    println!("# breakdown: {}", parts.join(" "));
}
