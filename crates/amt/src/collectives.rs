//! Cluster-wide collective operations built on parcels.
//!
//! HPX ships collectives (`hpx::collectives::{gather, broadcast, ...}`)
//! on top of its parcel transport; the load-balancing epoch of the solver
//! is exactly a gather → plan → broadcast round. This module provides
//! those two primitives for localities, using a dedicated tag class and an
//! epoch counter so successive collectives never collide.
//!
//! All collectives are **symmetric calls**: every locality of the cluster
//! must call the same operation with the same epoch, like an MPI
//! communicator-wide call. Root is always locality 0.

use crate::codec::{Wire, WireError};
use crate::future::Future;
use crate::locality::Locality;
use crate::parcel::tag;
use bytes::Bytes;

/// Tag class reserved for collective traffic (solver classes are 1–4).
pub const CLASS_COLLECTIVE: u8 = 0xC0;

/// Sub-operations within the collective class (encoded in the tag's `c`
/// field so gather/broadcast phases of the same epoch stay distinct).
const OP_GATHER: u64 = 1;
const OP_BCAST: u64 = 2;

fn coll_tag(epoch: u64, node: u64, op: u64) -> u64 {
    tag(CLASS_COLLECTIVE, epoch, node, op)
}

/// Gather every locality's `value` on locality 0.
///
/// Returns `Some(values)` (indexed by locality id) on locality 0, `None`
/// elsewhere. `n` is the cluster size.
pub fn gather<T: Wire>(
    loc: &Locality,
    n: u32,
    epoch: u64,
    value: &T,
) -> Result<Option<Vec<T>>, WireError> {
    let me = loc.id();
    loc.send(0, coll_tag(epoch, me as u64, OP_GATHER), value.to_bytes());
    if me != 0 {
        return Ok(None);
    }
    let futures: Vec<Future<Bytes>> = (0..n)
        .map(|node| loc.expect(coll_tag(epoch, node as u64, OP_GATHER)))
        .collect();
    let mut out = Vec::with_capacity(n as usize);
    for fut in futures {
        out.push(T::from_bytes(fut.get())?);
    }
    Ok(Some(out))
}

/// Broadcast `value` (significant on locality 0 only) to every locality;
/// returns the received value everywhere.
pub fn broadcast<T: Wire>(
    loc: &Locality,
    n: u32,
    epoch: u64,
    value: Option<&T>,
) -> Result<T, WireError> {
    let me = loc.id();
    if me == 0 {
        let payload = value
            .expect("root must supply the broadcast value")
            .to_bytes();
        for node in 0..n {
            loc.send(
                node,
                coll_tag(epoch, node as u64, OP_BCAST),
                payload.clone(),
            );
        }
    }
    let fut = loc.expect(coll_tag(epoch, me as u64, OP_BCAST));
    T::from_bytes(fut.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterBuilder;

    #[test]
    fn gather_collects_all_values() {
        let cluster = ClusterBuilder::new().uniform(4, 1).build();
        let n = cluster.len() as u32;
        let results = cluster.run(|loc| {
            let v = (loc.id() as u64) * 10;
            gather(&loc, n, 0, &v).unwrap()
        });
        assert_eq!(results[0], Some(vec![0, 10, 20, 30]));
        assert!(results[1..].iter().all(Option::is_none));
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let cluster = ClusterBuilder::new().uniform(3, 1).build();
        let n = cluster.len() as u32;
        let results = cluster.run(|loc| {
            let value = (loc.id() == 0).then_some(42u64);
            broadcast(&loc, n, 0, value.as_ref()).unwrap()
        });
        assert_eq!(results, vec![42, 42, 42]);
    }

    #[test]
    fn successive_epochs_do_not_collide() {
        // One gather → broadcast round per epoch, the load-balancing
        // epoch's shape: the root reduces the gathered values and every
        // locality must see its own epoch's result.
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let n = cluster.len() as u32;
        let results = cluster.run(|loc| {
            let mut out = Vec::new();
            for epoch in 0..5u64 {
                let v = epoch * 100 + loc.id() as u64;
                let max = gather(&loc, n, epoch, &v)
                    .unwrap()
                    .map(|all| all.into_iter().max().unwrap());
                out.push(broadcast(&loc, n, epoch, max.as_ref()).unwrap());
            }
            out
        });
        for r in &results {
            assert_eq!(r, &vec![1, 101, 201, 301, 401]);
        }
    }

    #[test]
    fn single_locality_collectives_are_trivial() {
        let cluster = ClusterBuilder::new().uniform(1, 1).build();
        let results = cluster.run(|loc| {
            let all = gather(&loc, 1, 0, &5u64).unwrap();
            broadcast(&loc, 1, 0, all.as_ref()).unwrap()
        });
        assert_eq!(results, vec![vec![5]]);
    }
}
