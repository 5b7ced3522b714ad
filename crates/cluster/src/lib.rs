//! # distme-cluster — distributed data-parallel substrate
//!
//! DistME is built on Apache Spark: RDDs of `(BlockId, Block)` records,
//! shuffle-based repartitioning, torrent broadcast, `Tc` concurrent task
//! slots per node, and per-task memory budgets θt (§5, §6.1). No Spark
//! cluster exists in this environment, so this crate *is* the substitute
//! substrate — the pieces of a distributed data-parallel framework that the
//! paper's method interacts with:
//!
//! * [`ClusterConfig`] — cluster topology and the calibration constants of
//!   the paper's testbed (9 slaves, 10 tasks/node, 10 GbE, θt = 6 GB,
//!   one GTX 1080 Ti per node);
//! * two executors sharing one task model:
//!   * [`executor::real::LocalCluster`] runs stages on real threads with
//!     real serialized blocks, counting every byte that crosses a (virtual)
//!     node boundary — the correctness path and the source of measured
//!     communication volumes at laptop scale;
//!   * [`executor::sim::SimCluster`] replays the same stage structure in
//!     virtual time against NIC / disk / CPU / GPU resource models — the
//!     paper-scale path, including the O.O.M. / T.O. / E.D.C. failure modes
//!     annotated in Figs. 6–8;
//! * [`JobStats`] — per-phase elapsed/communication breakdowns backing
//!   Figs. 6(d–f), 7(e–f) and Table 5: every byte a job moves is written
//!   once, into the stats of the operation that moved it.

//! * [`chaos::FaultPlan`] — seeded, deterministic fault injection (dropped
//!   and corrupted deliveries, task crashes, node blackouts) driving the
//!   retry/redelivery recovery machinery in [`transport`] and
//!   [`executor::real`];
//! * [`membership`] + [`rebalance`] — the *elastic* half of the title:
//!   epoch-tracked node commissioning/decommissioning with deterministic
//!   block re-homing onto the resized grid ([`Phase::Rebalance`] traffic),
//!   lineage recovery from surviving replicas, and a utilization-band
//!   autoscaler ([`ElasticPolicy`]);
//! * [`coding`] — coded replication ([`ReplicationPolicy`]): one XOR
//!   parity block per group, materialized at placement time so
//!   recovery reconstructs a lost block from any k-of-n group survivors
//!   instead of requiring the producer copy (recovery precedence: parity
//!   decode → lineage → typed failure).

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod chaos;
pub mod coding;
pub mod config;
pub mod executor;
pub mod failure;
pub mod membership;
pub mod rebalance;
pub mod scheduler;
pub mod stats;
pub mod store;
pub mod transport;

pub use chaos::{Blackout, FaultPlan, FaultSpec};
pub use coding::{CodingError, ParityMember, ParityPayload, ReplicationPolicy};
pub use config::{ClusterConfig, RetryPolicy, SchedulerConfig};
pub use executor::real::{LocalCluster, TaskCtx};
pub use executor::sim::{ComputeWork, SimCluster, SimTask, StageOutcome};
pub use failure::{JobError, TaskError};
pub use membership::{ElasticPolicy, Membership, MembershipEvent};
pub use rebalance::{RebalancePlan, RebalanceReport, RebalanceUnit};
pub use scheduler::{AdmissionTicket, QueueWaitStats, Scheduler, SchedulerLoad, StageGate};
pub use stats::{JobStats, Phase, PhaseStats, TenantId};
pub use store::{BlockSource, BlockView, ClusterStores, NodeStore, StoreKey, StoreKind};
pub use transport::{MoveOutcome, Transport, TransportStats, WireMove};
