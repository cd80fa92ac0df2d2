//! Performance-counter registry.
//!
//! HPX exposes globally named performance counters registered in AGAS and
//! polled at run time; the load balancer of the paper reads
//! `hpx::performance_counters::busy_time` and *resets* it between balancing
//! iterations so every epoch measures the same time span (§7).
//!
//! [`CounterRegistry`] reproduces that contract: counters are addressed by
//! string names (we keep HPX's `/threads{locality#N/total}/time/busy`
//! convention), can be backed either by a raw atomic or by a *gauge* closure
//! reading live runtime state, and support baseline-resets so a read after
//! [`Counter::reset`] reports only the delta accumulated since.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

enum Source {
    /// A plain atomic owned by the counter.
    Raw(Arc<AtomicU64>),
    /// A closure sampling some live value (e.g. a pool's busy nanoseconds).
    Gauge(Arc<dyn Fn() -> u64 + Send + Sync>),
}

/// A named counter. Cloning shares the underlying state.
#[derive(Clone)]
pub struct Counter {
    source: Arc<Source>,
    baseline: Arc<AtomicU64>,
}

impl Counter {
    fn from_source(source: Source) -> Self {
        Counter {
            source: Arc::new(source),
            baseline: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A counter backed by its own atomic, starting at zero.
    pub fn raw() -> Self {
        Counter::from_source(Source::Raw(Arc::new(AtomicU64::new(0))))
    }

    /// A counter sampling `f` on every read.
    pub fn gauge(f: impl Fn() -> u64 + Send + Sync + 'static) -> Self {
        Counter::from_source(Source::Gauge(Arc::new(f)))
    }

    fn absolute(&self) -> u64 {
        match &*self.source {
            Source::Raw(a) => a.load(Ordering::Relaxed),
            Source::Gauge(f) => f(),
        }
    }

    /// Current value relative to the last [`reset`](Counter::reset).
    pub fn read(&self) -> u64 {
        self.absolute()
            .saturating_sub(self.baseline.load(Ordering::Relaxed))
    }

    /// Add to a raw counter.
    ///
    /// # Panics
    /// Panics when called on a gauge counter.
    pub fn add(&self, delta: u64) {
        match &*self.source {
            Source::Raw(a) => {
                a.fetch_add(delta, Ordering::Relaxed);
            }
            Source::Gauge(_) => panic!("cannot add to a gauge counter"),
        }
    }

    /// Re-baseline so subsequent reads report only the delta from now on —
    /// the `reset_all(busy_time)` step at the end of a load-balancing
    /// iteration (Algorithm 1, line 35). Returns the value the counter
    /// read at the reset, i.e. the window it closes, so callers can keep
    /// a whole-run total without losing what accrues between a separate
    /// read and the reset.
    pub fn reset(&self) -> u64 {
        let now = self.absolute();
        now.saturating_sub(self.baseline.swap(now, Ordering::Relaxed))
    }
}

/// String-addressed counter registry shared across a cluster.
#[derive(Default)]
pub struct CounterRegistry {
    counters: RwLock<HashMap<String, Counter>>,
}

impl CounterRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a counter under `name` and return it.
    pub fn register(&self, name: impl Into<String>, counter: Counter) -> Counter {
        let name = name.into();
        self.counters.write().insert(name, counter.clone());
        counter
    }

    /// Look up a counter by exact name.
    pub fn get(&self, name: &str) -> Option<Counter> {
        self.counters.read().get(name).cloned()
    }

    /// Read a counter by name; `None` if unregistered.
    pub fn read(&self, name: &str) -> Option<u64> {
        self.get(name).map(|c| c.read())
    }

    /// Reset every counter whose name starts with `prefix` (HPX's
    /// `reset_all` over a counter family).
    pub fn reset_prefix(&self, prefix: &str) {
        for (name, c) in self.counters.read().iter() {
            if name.starts_with(prefix) {
                c.reset();
            }
        }
    }

    /// Snapshot of `(name, value)` pairs, sorted by name, for counters whose
    /// name starts with `prefix` (empty prefix = all).
    pub fn snapshot(&self, prefix: &str) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .counters
            .read()
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(n, c)| (n.clone(), c.read()))
            .collect();
        out.sort();
        out
    }

    /// Number of registered counters.
    pub fn len(&self) -> usize {
        self.counters.read().len()
    }

    /// True if the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The canonical busy-time counter name for a locality, matching HPX's
/// `/threads{locality#N/total}/time/busy`.
pub fn busy_time_counter_name(locality: u32) -> String {
    format!("/threads{{locality#{locality}/total}}/time/busy")
}

/// Successful work steals (injector + peer-deque batches) of a locality's
/// pool, in the same HPX-style naming scheme.
pub fn steals_counter_name(locality: u32) -> String {
    format!("/threads{{locality#{locality}/total}}/count/steals")
}

/// Full steal scans that found nothing (the thief's whiffs).
pub fn steal_fails_counter_name(locality: u32) -> String {
    format!("/threads{{locality#{locality}/total}}/count/steal-fails")
}

/// Times a worker parked on the sleep condvar.
pub fn parks_counter_name(locality: u32) -> String {
    format!("/threads{{locality#{locality}/total}}/count/parks")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_counter_add_and_read() {
        let c = Counter::raw();
        c.add(5);
        c.add(7);
        assert_eq!(c.read(), 12);
    }

    #[test]
    fn reset_rebaselines() {
        let c = Counter::raw();
        c.add(100);
        assert_eq!(c.reset(), 100);
        assert_eq!(c.read(), 0);
        c.add(3);
        assert_eq!(c.read(), 3);
    }

    #[test]
    fn gauge_reads_live_value() {
        let v = Arc::new(AtomicU64::new(10));
        let v2 = v.clone();
        let c = Counter::gauge(move || v2.load(Ordering::Relaxed));
        assert_eq!(c.read(), 10);
        v.store(25, Ordering::Relaxed);
        assert_eq!(c.read(), 25);
        c.reset();
        assert_eq!(c.read(), 0);
        v.store(31, Ordering::Relaxed);
        assert_eq!(c.read(), 6);
    }

    #[test]
    #[should_panic(expected = "gauge")]
    fn add_to_gauge_panics() {
        let c = Counter::gauge(|| 0);
        c.add(1);
    }

    #[test]
    fn registry_register_get_reset_prefix() {
        let reg = CounterRegistry::new();
        let a = reg.register("/threads{locality#0/total}/time/busy", Counter::raw());
        let b = reg.register("/threads{locality#1/total}/time/busy", Counter::raw());
        reg.register("/net/bytes", Counter::raw());
        a.add(10);
        b.add(20);
        assert_eq!(reg.read("/threads{locality#0/total}/time/busy"), Some(10));
        reg.reset_prefix("/threads");
        assert_eq!(reg.read("/threads{locality#0/total}/time/busy"), Some(0));
        assert_eq!(reg.read("/threads{locality#1/total}/time/busy"), Some(0));
        assert_eq!(reg.snapshot("/threads").len(), 2);
        assert_eq!(reg.snapshot("").len(), 3);
    }

    #[test]
    fn busy_time_name_matches_hpx_convention() {
        assert_eq!(
            busy_time_counter_name(3),
            "/threads{locality#3/total}/time/busy"
        );
    }
}
