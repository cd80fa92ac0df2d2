//! Lightweight stand-in for the `criterion` benchmark harness.
//!
//! Keeps the macro/entry-point shape (`criterion_group!`, `criterion_main!`,
//! `Criterion::benchmark_group`, `Bencher::iter`) so the workspace's benches
//! compile and run offline. Instead of criterion's statistical machinery it
//! runs a warm-up plus an adaptively-sized measurement loop and prints the
//! mean per-iteration time.
//!
//! Machine-readable output: every completed benchmark is also recorded in a
//! process-global registry, and when the `NLHEAT_BENCH_JSON` environment
//! variable names a file path, `criterion_main!` writes all results there as
//! JSON on exit — the format `nlheat-bench`'s `bench_gate` regression gate
//! consumes (real criterion exposes the same data via
//! `target/criterion/*/estimates.json`; the env-var seam keeps the shim's
//! public API identical to the real crate).

pub use std::hint::black_box;

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One completed benchmark: label plus measured mean time per iteration.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// `group/name` label.
    pub name: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub mean_ns: f64,
    /// Iterations measured (after warm-up).
    pub iters: u64,
}

static RESULTS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

/// Snapshot of every benchmark recorded so far in this process.
pub fn recorded_results() -> Vec<BenchRecord> {
    RESULTS.lock().unwrap().clone()
}

/// Serialize `results` as the JSON document `bench_gate` reads.
pub fn results_to_json(results: &[BenchRecord]) -> String {
    let mut out = String::from("{\n  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"mean_ns\": {:.3}, \"iters\": {}}}{}\n",
            r.name.replace('"', "\\\""),
            r.mean_ns,
            r.iters,
            comma
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Write the recorded results to `$NLHEAT_BENCH_JSON` if set. Called by the
/// `criterion_main!` expansion after all groups ran; harmless to call twice.
pub fn write_json_if_requested() {
    if let Some(path) = std::env::var_os("NLHEAT_BENCH_JSON") {
        let results = recorded_results();
        let json = results_to_json(&results);
        // Cargo runs bench binaries from the package directory, not the
        // workspace root — create missing parents so a relative path
        // doesn't silently drop the results.
        if let Some(parent) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("criterion shim: failed to write {path:?}: {e}");
        } else {
            println!("wrote {} bench results to {path:?}", results.len());
        }
    }
}

/// Top-level benchmark context.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group: {name}");
        BenchmarkGroup {
            _parent: self,
            name: name.to_string(),
        }
    }

    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        run_bench(name, &mut f);
        self
    }
}

/// A named group of benchmarks.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim's adaptive loop ignores it.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility; the shim's adaptive loop ignores it.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        run_bench(&format!("{}/{}", self.name, name), &mut f);
        self
    }

    pub fn finish(self) {}
}

fn run_bench(label: &str, f: &mut impl FnMut(&mut Bencher)) {
    let mut b = Bencher {
        iters: 0,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    if b.iters > 0 {
        let per_iter = b.elapsed.as_secs_f64() / b.iters as f64;
        println!(
            "bench {label}: {:.3} ms/iter ({} iters)",
            per_iter * 1e3,
            b.iters
        );
        RESULTS.lock().unwrap().push(BenchRecord {
            name: label.to_string(),
            mean_ns: per_iter * 1e9,
            iters: b.iters,
        });
    } else {
        println!("bench {label}: no iterations recorded");
    }
}

/// Target measurement time per benchmark, overridable for smoke runs via
/// `NLHEAT_BENCH_TARGET_MS`.
fn target_measurement() -> Duration {
    let ms = std::env::var("NLHEAT_BENCH_TARGET_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(300);
    Duration::from_millis(ms.max(1))
}

/// Timing harness passed to each benchmark closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Run the routine adaptively: one untimed warm-up, a timed probe to
    /// size the loop, then a measurement loop targeting
    /// `target_measurement` total wall time (min 3 iterations so short
    /// routines still average over noise).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        black_box(routine()); // warm-up, untimed
        let probe_t0 = Instant::now();
        black_box(routine());
        let probe = probe_t0.elapsed().max(Duration::from_nanos(1));
        let target = target_measurement();
        let n = (target.as_nanos() / probe.as_nanos()).clamp(3, 100_000) as u64;
        let t0 = Instant::now();
        for _ in 0..n {
            black_box(routine());
        }
        self.elapsed += t0.elapsed();
        self.iters += n;
    }
}

/// Collect benchmark functions into a runnable group, mirroring criterion's
/// plain `criterion_group!(name, target, ...)` form.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Generate `main` running the listed groups, then flushing the JSON
/// results if `NLHEAT_BENCH_JSON` requests them.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::write_json_if_requested();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_routine() {
        let mut c = Criterion::default();
        let mut runs = 0u32;
        c.bench_function("smoke", |b| b.iter(|| runs += 1));
        assert!(runs > 0);
    }

    #[test]
    fn group_api_chains() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(10)
            .bench_function("noop", |b| b.iter(|| 1 + 1));
        g.finish();
    }

    #[test]
    fn results_are_recorded_and_serializable() {
        let mut c = Criterion::default();
        c.bench_function("recorded_smoke", |b| b.iter(|| black_box(2 + 2)));
        let all = recorded_results();
        let rec = all
            .iter()
            .find(|r| r.name == "recorded_smoke")
            .expect("bench recorded");
        assert!(rec.mean_ns > 0.0);
        assert!(rec.iters >= 3);
        let json = results_to_json(std::slice::from_ref(rec));
        assert!(json.contains("\"name\": \"recorded_smoke\""));
        assert!(json.contains("\"mean_ns\""));
    }
}
