//! # distme-sim — virtual-time resource simulation core
//!
//! The DistME paper evaluates on a 9-node Spark cluster with 80 GB-scale
//! matrices. Reproducing those experiments requires *simulating* the cluster:
//! this crate provides the deterministic virtual-time machinery that
//! `distme-cluster` (nodes, NICs, disks) and `distme-gpu` (PCI-E bus, kernel
//! engine, streams) are built from.
//!
//! The model is **timeline-based discrete-event simulation**: each contended
//! resource keeps a timeline of when it is free, and work items *request*
//! service with a ready-time, receiving back their completion time:
//!
//! * [`FifoServer`] — a fixed-rate server (a 10 GbE NIC, a PCI-E copy engine,
//!   a GPU's SM array) that serves requests in request order;
//! * [`SlotPool`] — `k` parallel servers (Spark's `Tc` task slots per node,
//!   CUDA's concurrent-stream limit);
//! * [`Gauge`] — a capacity counter (task heap memory, GPU device memory,
//!   cluster disk) used to detect the paper's O.O.M. and E.D.C. failure
//!   modes.
//!
//! All state is plain and deterministic: simulating the same plan twice gives
//! identical times, which the test suite relies on.

#![forbid(unsafe_code)]

pub mod resource;
pub mod time;

pub use resource::{FifoServer, Gauge, GaugeError, SlotPool};
pub use time::SimTime;
