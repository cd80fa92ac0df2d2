//! # nlheat-sim — discrete-event simulation of the distributed solver
//!
//! The paper's evaluation ran on a cluster of 40-core Skylake nodes. Its
//! scaling figures are regenerated here with a deterministic
//! discrete-event simulator rather than by timing the real runtime on
//! whatever host runs the reproduction. The simulator executes the *same
//! decomposition, dependency structure and communication volumes* as the
//! real solver in `nlheat-core` — per-SD case-1/case-2 tasks, ghost
//! messages with latency + bandwidth + NIC serialization, per-node core
//! counts and speed factors, and Algorithm-1 load-balancing epochs driven
//! by the simulated busy times.
//!
//! The real runtime remains the source of truth for *numerics* (its output
//! is tested bit-for-bit against the serial solver); the simulator is the
//! source of *timing shape*: strong-scaling saturation, weak-scaling
//! flatness, partition-quality effects, and load-balancer convergence.
//!
//! It runs a [`Scenario`](nlheat_core::scenario::Scenario) through
//! [`RunSim::run_sim`] or [`SimSubstrate`] and returns the same
//! [`RunReport`](nlheat_core::scenario::RunReport) as the real runtime.
//! No wall-clock enters the simulation: it is fully deterministic.

#![forbid(unsafe_code)]

pub mod cost;
mod engine;
mod scenario;

pub use cost::CostModel;
pub use scenario::{RunSim, SimSubstrate};
