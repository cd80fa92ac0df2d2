//! The correctness gate every timed unit passes through, and the deadline
//! that keeps a hung unit from hanging the benchmark.

use crate::Opts;
use nlheat_core::Move;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

/// Exit code of a run whose unit missed its deadline.
pub const DEADLINE_EXIT: i32 = 3;

type Job = Box<dyn FnOnce() + Send>;

/// Counts gated units and prints one line per unit, so the run output
/// shows the gate firing on every timed solve and plan. Units run on one
/// long-lived worker thread, so every unit allocates from the same
/// allocator arena instead of a fresh thread's.
pub struct Gate {
    workload: &'static str,
    seed: u64,
    pub attempted: u64,
    pub failed: u64,
    jobs: Option<mpsc::Sender<Job>>,
    worker: Option<std::thread::JoinHandle<()>>,
}

/// One named check of a unit.
pub type Check = (&'static str, Result<(), String>);

impl Gate {
    pub fn new(opts: &Opts) -> Self {
        let (jobs, rx) = mpsc::channel::<Job>();
        let worker = std::thread::Builder::new()
            .name("unit".into())
            .spawn(move || {
                for job in rx {
                    job();
                }
            })
            .expect("failed to spawn the unit thread");
        Gate {
            workload: opts.workload.name(),
            seed: opts.seed,
            attempted: 0,
            failed: 0,
            jobs: Some(jobs),
            worker: Some(worker),
        }
    }

    /// Record unit `idx` of kind `what` with its checks.
    pub fn unit(&mut self, what: &str, idx: usize, checks: Vec<Check>) {
        self.batch(what, idx, 1, 0, checks);
    }

    /// Record a batch of `runs` units checked together, `failed_runs` of
    /// which are known to have failed (at least one counts as failed when
    /// any check fails).
    pub fn batch(
        &mut self,
        what: &str,
        idx: usize,
        runs: u64,
        failed_runs: u64,
        checks: Vec<Check>,
    ) {
        self.attempted += runs;
        let names: Vec<&str> = checks.iter().map(|(n, _)| *n).collect();
        let errors: Vec<String> = checks
            .into_iter()
            .filter_map(|(n, r)| r.err().map(|e| format!("{n}: {e}")))
            .collect();
        if errors.is_empty() {
            println!(
                "# gate {} seed={} {what}={idx} runs={runs} ok [{}]",
                self.workload,
                self.seed,
                names.join(", ")
            );
        } else {
            self.failed += failed_runs.clamp(1, runs);
            println!(
                "# gate {} seed={} {what}={idx} runs={runs} FAILED: {}",
                self.workload,
                self.seed,
                errors.join("; ")
            );
        }
    }

    /// Run `f` on the unit thread with a deadline of `limit`. A panic
    /// comes back as `Err`; a missed deadline prints a failure record
    /// naming the workload, seed and unit and exits the process, since
    /// the parked threads of a hung cluster cannot be recovered.
    pub fn deadline<T: Send + 'static>(
        &self,
        what: &str,
        idx: usize,
        limit: Duration,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> Result<T, String> {
        let (tx, rx) = mpsc::channel();
        self.jobs
            .as_ref()
            .expect("the unit thread runs until the gate drops")
            .send(Box::new(move || {
                let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
            }))
            .expect("the unit thread outlives every job");
        match rx.recv_timeout(limit) {
            Ok(result) => result.map_err(|p| panic_message(&*p)),
            Err(_) => {
                let record = format!(
                    "{{\"deadline_expired\": {{\"workload\": \"{}\", \"seed\": {}, \"unit\": \"{what}\", \"index\": {idx}, \"limit_s\": {}}}}}",
                    self.workload,
                    self.seed,
                    limit.as_secs_f64()
                );
                println!("# {record}");
                eprintln!("{record}");
                std::process::exit(DEADLINE_EXIT);
            }
        }
    }
}

impl Drop for Gate {
    fn drop(&mut self) {
        // closing the queue ends the worker's loop
        drop(self.jobs.take());
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Run a panicking assertion (such as `RunReport::check_invariants`) as a
/// check.
pub fn no_panic(f: impl FnOnce()) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_message(&*p))
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Bit identity of two fields (NaN-safe, unlike `==` on `f64`).
pub fn bit_identical(got: &[f64], reference: &[f64]) -> Result<(), String> {
    if got.len() != reference.len() {
        return Err(format!(
            "field has {} cells, the serial reference {}",
            got.len(),
            reference.len()
        ));
    }
    match got
        .iter()
        .zip(reference)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "cell {i} is {} but the serial reference has {}",
            got[i], reference[i]
        )),
    }
}

/// The single-hop plan contract: every SD moves at most once, from its
/// current owner, to another existing rank. Applies the plan to `owners`.
pub fn single_hop(owners: &mut [u32], n_ranks: u32, moves: &[Move]) -> Result<(), String> {
    let mut moved = vec![false; owners.len()];
    for m in moves {
        let sd = m.sd as usize;
        if sd >= owners.len() {
            return Err(format!("move names SD {sd} of {}", owners.len()));
        }
        if std::mem::replace(&mut moved[sd], true) {
            return Err(format!("SD {sd} moves twice in one plan"));
        }
        if owners[sd] != m.from {
            return Err(format!(
                "SD {sd} moves from rank {} but rank {} owns it",
                m.from, owners[sd]
            ));
        }
        if m.to == m.from || m.to >= n_ranks {
            return Err(format!("SD {sd} moves to rank {} of {n_ranks}", m.to));
        }
        owners[sd] = m.to;
    }
    Ok(())
}

/// Equality of two plan sequences (cross-substrate parity and replay).
pub fn same_plans(got: &[Vec<Move>], want: &[Vec<Move>]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{} realized epochs, expected {}",
            got.len(),
            want.len()
        ));
    }
    match got.iter().zip(want).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(e) => Err(format!("realized epoch {e} planned differently")),
    }
}
