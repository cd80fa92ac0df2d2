//! End-to-end and per-layer benchmark of the nonlocal heat solver.
//!
//! One run measures one named workload for a fixed wall-clock budget and
//! checks every timed unit (a solve, a simulation or a plan) for
//! correctness. Untraced runs report the end-to-end metrics; traced runs
//! replay each layer's public functions over the run's own shapes and
//! report the per-layer metrics. `README.md` in this directory maps every
//! per-layer metric to the end-to-end metric and workload it should move.

pub mod dist;
pub mod gate;
pub mod host;
pub mod inputs;
pub mod plan;
pub mod replay;
pub mod simw;

use std::collections::BTreeMap;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Real runtime, unequal node speeds balanced by migration.
    HeteroDist,
    /// Simulator at 16 nodes with a jumping crack.
    SimScale16,
    /// Plan-only at 10k ranks over 1M SDs.
    Plan10k,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::HeteroDist,
        Workload::SimScale16,
        Workload::Plan10k,
    ];

    /// The name the command line takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HeteroDist => "hetero_dist",
            Workload::SimScale16 => "sim_scale16",
            Workload::Plan10k => "plan_10k",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem size: `Full` is what the benchmark measures, `Toy` keeps the
/// same shapes at a size the smoke test runs in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Toy,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// Wall-clock seconds the timed loop may use.
    pub seconds: f64,
    /// Report per-layer metrics (replayed) instead of end-to-end ones.
    pub trace: bool,
    pub size: Size,
}

/// End-to-end metrics and their units, as `BENCHMARK.json` declares them.
pub const END_TO_END: [(&str, &str); 9] = [
    ("solve_s", "s"),
    ("busy_frac", "ratio"),
    ("sim_wall_s", "s"),
    ("sim_makespan_s", "s"),
    ("plan_hier_s", "s"),
    ("plan_repart_s", "s"),
    ("setup_s", "s"),
    ("pass_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units. A layer that does not run on a
/// workload reports 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("kernel.calls", "count"),
    ("kernel.interactions", "count"),
    ("kernel.busy_s", "s"),
    ("kernel.ns_per_interaction", "ns"),
    ("halo.patches", "count"),
    ("halo.bytes", "B"),
    ("halo.pack_s", "s"),
    ("halo.unpack_s", "s"),
    ("fabric.messages", "count"),
    ("fabric.bytes", "B"),
    ("fabric.cross_bytes", "B"),
    ("fabric.send_recv_s", "s"),
    ("pool.tasks", "count"),
    ("pool.busy_s", "s"),
    ("pool.parks", "count"),
    ("pool.steals", "count"),
    ("pool.steal_fails", "count"),
    ("pool.steal_hit_ratio", "ratio"),
    ("pool.spawn_s", "s"),
    ("lb.epochs_attempted", "count"),
    ("lb.epochs_realized", "count"),
    ("lb.realized_ratio", "ratio"),
    ("lb.moves", "count"),
    ("lb.plan_s", "s"),
    ("migrate.sds", "count"),
    ("migrate.bytes", "B"),
    ("partition.initial_s", "s"),
    ("partition.sdgraph_build_s", "s"),
    ("partition.cut_bytes_final", "B"),
    ("partition.repart_s", "s"),
    ("sim.messages", "count"),
    ("sim.cross_bytes", "B"),
    ("sim.plan_share", "ratio"),
    ("trace.solve_s", "s"),
    ("trace.attributed_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// Metric values a workload measured, by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// One named, unit-tagged value of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Timed units (solves, simulations, plans) run through the gate.
    pub attempted: u64,
    /// Units that failed a correctness check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run one workload and assemble its result.
///
/// A metric a failed unit left unmeasured reads 0.
///
/// # Panics
/// Panics when a workload whose units all passed omits an end-to-end
/// metric (a bug in this benchmark, not in the program measured).
pub fn run(opts: &Opts) -> Outcome {
    let mut gate = gate::Gate::new(opts);
    let mut metrics = match opts.workload {
        Workload::HeteroDist => dist::run(opts, &mut gate),
        Workload::SimScale16 => simw::run(opts, &mut gate),
        Workload::Plan10k => plan::run(opts, &mut gate),
    };
    let table: &[(&'static str, &'static str)] = if opts.trace {
        &PER_LAYER
    } else {
        metrics.insert("peak_rss_mb", host::peak_rss_mb());
        metrics.insert(
            "pass_frac",
            (gate.attempted - gate.failed) as f64 / gate.attempted.max(1) as f64,
        );
        &END_TO_END
    };
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let value = match metrics.get(name) {
                Some(&v) => v,
                None if opts.trace || gate.failed > 0 => 0.0,
                None => panic!("{} did not measure {name}", opts.workload.name()),
            };
            // a non-finite value would make the line invalid JSON
            let value = if value.is_finite() { value } else { 0.0 };
            Metric { name, value, unit }
        })
        .collect();
    Outcome {
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
    }
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// Run `f` and return its result with its wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}
