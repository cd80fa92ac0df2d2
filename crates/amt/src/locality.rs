//! Localities: simulated distributed compute nodes.
//!
//! A [`Locality`] bundles what one node of the paper's cluster has: a worker
//! pool for asynchronous tasks, a speed factor (for reproducing heterogeneous
//! compute capacity, §7), a parcel inbox, a
//! rendezvous table for point-to-point message matching, and its busy-time
//! performance counter.

pub use crate::parcel::LocalityId;

use crate::counters::{
    busy_time_counter_name, parks_counter_name, steal_fails_counter_name, steals_counter_name,
    Counter, CounterRegistry,
};
use crate::future::Future;
use crate::network::FabricHandle;
use crate::parcel::{Parcel, Tag};
use crate::pool::{PoolHandle, ThreadPool};
use crate::rendezvous::Rendezvous;
use bytes::Bytes;
use crossbeam::channel::Receiver;
use std::sync::Arc;

/// One simulated compute node.
pub struct Locality {
    id: LocalityId,
    pool: Arc<ThreadPool>,
    speed: f64,
    rendezvous: Arc<Rendezvous>,
    fabric: FabricHandle,
    registry: Arc<CounterRegistry>,
    busy_counter: Counter,
}

impl Locality {
    /// Assembled by [`crate::cluster::ClusterBuilder`]; not constructed
    /// directly by user code.
    pub(crate) fn new(
        id: LocalityId,
        workers: usize,
        speed: f64,
        fabric: FabricHandle,
        registry: Arc<CounterRegistry>,
    ) -> Arc<Self> {
        assert!(speed > 0.0, "locality speed must be positive");
        let pool = Arc::new(ThreadPool::new(workers, &format!("loc{id}")));
        let pool_for_gauge = pool.clone();
        let busy_counter = registry.register(
            busy_time_counter_name(id),
            Counter::gauge(move || pool_for_gauge.busy_ns_total()),
        );
        let p = pool.clone();
        registry.register(
            steals_counter_name(id),
            Counter::gauge(move || p.steals_total()),
        );
        let p = pool.clone();
        registry.register(
            steal_fails_counter_name(id),
            Counter::gauge(move || p.steal_fails_total()),
        );
        let p = pool.clone();
        registry.register(
            parks_counter_name(id),
            Counter::gauge(move || p.parks_total()),
        );
        Arc::new(Locality {
            id,
            pool,
            speed,
            rendezvous: Arc::new(Rendezvous::new()),
            fabric,
            registry,
            busy_counter,
        })
    }

    /// This locality's id.
    pub fn id(&self) -> LocalityId {
        self.id
    }

    /// Worker threads in this locality's pool.
    pub fn n_workers(&self) -> usize {
        self.pool.n_workers()
    }

    /// Relative compute speed (1.0 = nominal). Slower nodes repeat kernel
    /// work [`work_repeats`](Self::work_repeats) times so their busy time
    /// genuinely grows, which is what the load balancer observes.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Number of times a kernel should repeat its work to emulate this
    /// locality's speed (≥ 1; 1 for nominal speed).
    pub fn work_repeats(&self) -> u32 {
        (1.0 / self.speed).round().max(1.0) as u32
    }

    /// The locality's worker pool.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Submission handle onto the pool.
    pub fn spawner(&self) -> PoolHandle {
        self.pool.handle()
    }

    /// `hpx::async` on this locality.
    pub fn async_call<T, F>(&self, f: F) -> Future<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.pool.handle().async_call(f)
    }

    /// Block until all tasks submitted to this locality finished.
    pub fn wait_idle(&self) {
        self.pool.wait_idle();
    }

    /// Send a tagged payload to `dst` (may be `self.id()`).
    pub fn send(&self, dst: LocalityId, tag: Tag, payload: Bytes) {
        self.fabric.send(Parcel::new(self.id, dst, tag, payload));
    }

    /// Future for the payload that will arrive under `tag`.
    pub fn expect(&self, tag: Tag) -> Future<Bytes> {
        self.rendezvous.expect(tag)
    }

    /// Busy time accumulated by this locality's workers (ns), relative to the
    /// last counter reset — the paper's `busy_time` performance counter.
    pub fn busy_time_ns(&self) -> u64 {
        self.busy_counter.read()
    }

    /// The underlying busy-time counter (shared with the registry).
    pub fn busy_counter(&self) -> Counter {
        self.busy_counter.clone()
    }

    /// Cluster-wide counter registry.
    pub fn registry(&self) -> &Arc<CounterRegistry> {
        &self.registry
    }

    /// The rendezvous table (exposed for diagnostics/tests).
    pub fn rendezvous(&self) -> &Arc<Rendezvous> {
        &self.rendezvous
    }

    /// Inbox pump: deliver parcels to the rendezvous table until the
    /// fabric closes. Run on a dedicated thread by the cluster.
    pub(crate) fn pump(rx: Receiver<Parcel>, rendezvous: Arc<Rendezvous>) {
        while let Ok(parcel) = rx.recv() {
            rendezvous.deliver(parcel.tag, parcel.payload);
        }
    }
}

#[cfg(test)]
mod tests {

    #[test]
    fn work_repeats_from_speed() {
        // Construction of Locality requires a fabric; test the arithmetic via
        // a tiny cluster instead.
        let cluster = crate::cluster::ClusterBuilder::new()
            .node(1, 1.0)
            .node(1, 0.5)
            .node(1, 0.25)
            .build();
        assert_eq!(cluster.locality(0).work_repeats(), 1);
        assert_eq!(cluster.locality(1).work_repeats(), 2);
        assert_eq!(cluster.locality(2).work_repeats(), 4);
    }
}
