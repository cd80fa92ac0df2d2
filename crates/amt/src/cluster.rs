//! Cluster assembly: localities + fabric + counter registry.
//!
//! [`ClusterBuilder`] wires up `n` localities (each with its own worker pool,
//! inbox pump and speed factor) over a shared [`crate::network::Fabric`], and
//! [`Cluster::run`] executes a distributed program: one driver closure per
//! locality on its own thread, exactly like an SPMD `main` per node.

use crate::counters::CounterRegistry;
use crate::locality::Locality;
use crate::network::{Fabric, NetStats};
use nlheat_netmodel::NetSpec;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Configuration of one locality.
#[derive(Debug, Clone, Copy)]
pub struct NodeSpec {
    /// Worker threads in the locality's pool.
    pub workers: usize,
    /// Relative compute speed (1.0 = nominal, 0.5 = half speed).
    pub speed: f64,
}

impl Default for NodeSpec {
    fn default() -> Self {
        NodeSpec {
            workers: 1,
            speed: 1.0,
        }
    }
}

/// Builder for a simulated cluster.
#[derive(Default)]
pub struct ClusterBuilder {
    nodes: Vec<NodeSpec>,
    net: NetSpec,
}

impl ClusterBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one locality with `workers` threads and relative `speed`.
    pub fn node(mut self, workers: usize, speed: f64) -> Self {
        self.nodes.push(NodeSpec { workers, speed });
        self
    }

    /// Append `n` identical localities.
    pub fn uniform(mut self, n: usize, workers: usize) -> Self {
        for _ in 0..n {
            self.nodes.push(NodeSpec {
                workers,
                speed: 1.0,
            });
        }
        self
    }

    /// Set the network model (default: instant delivery). The same
    /// [`NetSpec`] drives the simulator, so real and simulated runs of one
    /// configuration see identical communication cost models.
    pub fn net(mut self, spec: NetSpec) -> Self {
        self.net = spec;
        self
    }

    /// Assemble the cluster and start inbox pumps.
    ///
    /// # Panics
    /// Panics if no nodes were configured.
    pub fn build(self) -> Cluster {
        assert!(!self.nodes.is_empty(), "cluster needs at least one node");
        let n = self.nodes.len();
        let registry = Arc::new(CounterRegistry::new());
        let (fabric, receivers) = Fabric::new(n, self.net);
        let net = self.net;
        // Networking counters (the paper lists these as future work, §9):
        // registered alongside the busy-time counters so they can be
        // polled and reset through the same interface.
        {
            use crate::counters::Counter;
            let h = fabric.handle();
            registry.register(
                "/network/total/msg-count",
                Counter::gauge(move || h.stats().messages()),
            );
            let h = fabric.handle();
            registry.register(
                "/network/total/byte-count",
                Counter::gauge(move || h.stats().bytes()),
            );
            let h = fabric.handle();
            registry.register(
                "/network/total/cross-byte-count",
                Counter::gauge(move || h.stats().cross_bytes()),
            );
        }
        let mut localities = Vec::with_capacity(n);
        let mut pumps = Vec::with_capacity(n);
        for (i, (spec, rx)) in self.nodes.iter().zip(receivers).enumerate() {
            let loc = Locality::new(
                i as u32,
                spec.workers,
                spec.speed,
                fabric.handle(),
                registry.clone(),
            );
            let rendezvous = loc.rendezvous().clone();
            pumps.push(
                std::thread::Builder::new()
                    .name(format!("loc{i}-pump"))
                    .spawn(move || Locality::pump(rx, rendezvous))
                    .expect("failed to spawn inbox pump"),
            );
            localities.push(loc);
        }
        Cluster {
            localities,
            fabric,
            pumps,
            registry,
            net,
        }
    }
}

/// A running simulated cluster.
pub struct Cluster {
    localities: Vec<Arc<Locality>>,
    fabric: Fabric,
    pumps: Vec<JoinHandle<()>>,
    registry: Arc<CounterRegistry>,
    net: NetSpec,
}

impl Cluster {
    /// Number of localities.
    pub fn len(&self) -> usize {
        self.localities.len()
    }

    /// True for a cluster of zero localities (never constructed via the
    /// builder, which rejects it).
    pub fn is_empty(&self) -> bool {
        self.localities.is_empty()
    }

    /// Locality `i`.
    pub fn locality(&self, i: usize) -> &Arc<Locality> {
        &self.localities[i]
    }

    /// All localities.
    pub fn localities(&self) -> &[Arc<Locality>] {
        &self.localities
    }

    /// Cluster-wide counter registry.
    pub fn registry(&self) -> &Arc<CounterRegistry> {
        &self.registry
    }

    /// Network traffic statistics.
    pub fn net_stats(&self) -> &NetStats {
        self.fabric.stats()
    }

    /// The network model this cluster's fabric was built with.
    pub fn net_spec(&self) -> &NetSpec {
        &self.net
    }

    /// Run a distributed program: `f` executes once per locality on its own
    /// driver thread (SPMD style); returns per-locality results in id order.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Arc<Locality>) -> R + Send + Sync,
    {
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .localities
                .iter()
                .map(|loc| {
                    let loc = loc.clone();
                    let f = &f;
                    scope.spawn(move || f(loc))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("locality driver panicked"))
                .collect()
        })
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.fabric.shutdown();
        for p in self.pumps.drain(..) {
            let _ = p.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::busy_time_counter_name;
    use crate::parcel::tag;
    use bytes::Bytes;

    #[test]
    fn build_and_teardown() {
        let cluster = ClusterBuilder::new().uniform(3, 1).build();
        assert_eq!(cluster.len(), 3);
        drop(cluster);
    }

    #[test]
    fn parcel_roundtrip_between_localities() {
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let t = tag(1, 0, 0, 0);
        let fut = cluster.locality(1).expect(t);
        cluster.locality(0).send(1, t, Bytes::from_static(b"ghost"));
        assert_eq!(fut.get().as_ref(), b"ghost");
    }

    #[test]
    fn run_executes_on_every_locality() {
        let cluster = ClusterBuilder::new().uniform(4, 1).build();
        let ids = cluster.run(|loc| loc.id());
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn spmd_neighbor_exchange() {
        // Every locality sends its id to the next one (mod n) and waits for
        // the one from the previous; checks the full fabric + pump path under
        // concurrent drivers.
        let n = 4u32;
        let cluster = ClusterBuilder::new().uniform(n as usize, 1).build();
        let received = cluster.run(|loc| {
            let me = loc.id();
            let from = (me + n - 1) % n;
            let to = (me + 1) % n;
            let fut = loc.expect(tag(2, 0, from as u64, 0));
            loc.send(to, tag(2, 0, me as u64, 0), Bytes::from(vec![me as u8]));
            fut.get()[0] as u32
        });
        assert_eq!(received, vec![3, 0, 1, 2]);
    }

    #[test]
    fn busy_time_counters_registered() {
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let name = busy_time_counter_name(0);
        assert!(cluster.registry().get(&name).is_some());
        // Run some work and observe the counter move.
        let f = cluster.locality(0).async_call(|| {
            let t0 = std::time::Instant::now();
            while t0.elapsed() < std::time::Duration::from_millis(3) {
                std::hint::spin_loop();
            }
            1u32
        });
        assert_eq!(f.get(), 1);
        // busy time is accounted when the pool retires the task, slightly
        // after the future resolves — drain first
        cluster.locality(0).wait_idle();
        assert!(cluster.registry().read(&name).unwrap() > 0);
    }

    #[test]
    fn network_counters_registered_and_resettable() {
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        assert_eq!(cluster.registry().read("/network/total/msg-count"), Some(0));
        cluster
            .locality(0)
            .send(1, tag(5, 0, 0, 0), Bytes::from_static(&[0; 10]));
        assert_eq!(cluster.registry().read("/network/total/msg-count"), Some(1));
        assert_eq!(
            cluster.registry().read("/network/total/byte-count"),
            Some(34)
        );
        assert_eq!(
            cluster.registry().read("/network/total/cross-byte-count"),
            Some(34)
        );
        // reset works like the busy-time counters
        cluster.registry().reset_prefix("/network");
        assert_eq!(cluster.registry().read("/network/total/msg-count"), Some(0));
        cluster.locality(0).send(0, tag(5, 0, 0, 1), Bytes::new());
        assert_eq!(cluster.registry().read("/network/total/msg-count"), Some(1));
        assert_eq!(
            cluster.registry().read("/network/total/cross-byte-count"),
            Some(0),
            "self-send is not cross traffic"
        );
    }
}
