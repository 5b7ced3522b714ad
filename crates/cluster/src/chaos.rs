//! Seeded, deterministic fault injection for the real executor.
//!
//! Distributed engines earn their elasticity claims under failure: Spark
//! re-executes lost tasks from lineage and re-fetches lost shuffle blocks
//! from their producers. This module injects exactly those faults —
//! dropped deliveries, bit-flipped frames, transient task crashes, and
//! whole-node blackouts — so the recovery machinery in `transport` and
//! `executor::real` can be proven correct by tests instead of trusted.
//!
//! # Determinism contract
//!
//! Every injection decision is a pure function of the [`FaultSpec`] seed
//! and the *plan identity* of the event: the job's ordinal since the plan
//! was armed, the planned [`Phase`], and then either the plan's task index
//! (crashes) or the move's block position, producer copy and route
//! (deliveries), plus the attempt indices — never wall-clock time, thread
//! interleaving, how many stages the executor happens to run, or a shared
//! sequential RNG. Two runs with the same seed and the same plan fault the
//! same deliveries in the same way no matter how the job's workers are
//! scheduled, which is what lets the chaos suite assert bit-identical
//! recovery. Matrix uids are deliberately excluded from the hash: they
//! come from a global counter and vary with test ordering.

use crate::failure::TaskError;
use crate::stats::Phase;
use crate::store::StoreKey;
use crate::transport::WireMove;
use rand::{Rng, SeedableRng, StdRng};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinct salts per fault kind so a delivery that is spared by the drop
/// roll is not automatically spared (or doomed) by the corruption roll.
const SALT_DROP: u64 = 0xD0;
const SALT_CORRUPT: u64 = 0xC0;
const SALT_CRASH: u64 = 0xCA;

/// A node outage spanning a window of the `(job ordinal, phase)` axis,
/// bounds inclusive: a move is dark while *its* phase is inside the window,
/// a task while *its* phase is. Jobs count from 0 at
/// [`FaultPlan::begin_job`]; phases order as in [`Phase::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blackout {
    /// The node that is unreachable.
    pub node: usize,
    /// First `(job, phase)` of the outage.
    pub from: (u64, Phase),
    /// Last `(job, phase)` of the outage, inclusive.
    pub until: (u64, Phase),
}

/// What faults to inject, and from which seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed all injection decisions derive from.
    pub seed: u64,
    /// Probability a transport delivery is dropped in flight.
    pub drop_rate: f64,
    /// Probability a transport delivery has one bit flipped in its encoded
    /// frame (caught by the codec's CRC-32 trailer).
    pub corrupt_rate: f64,
    /// Probability a task attempt crashes before producing output.
    pub crash_rate: f64,
    /// Whole-node outages by `(job, phase)` window.
    pub blackouts: Vec<Blackout>,
}

impl FaultSpec {
    /// A spec that injects nothing (useful as a baseline).
    pub fn quiet(seed: u64) -> Self {
        FaultSpec {
            seed,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            crash_rate: 0.0,
            blackouts: Vec::new(),
        }
    }

    /// Panics on rates outside `[0, 1]` (test-harness programmer input).
    pub fn assert_valid(&self) {
        for (rate, what) in [
            (self.drop_rate, "drop_rate"),
            (self.corrupt_rate, "corrupt_rate"),
            (self.crash_rate, "crash_rate"),
        ] {
            assert!((0.0..=1.0).contains(&rate), "{what} must be in [0, 1]");
        }
        for b in &self.blackouts {
            assert!(b.from <= b.until, "inverted blackout window");
        }
    }
}

/// Live fault-injection state: the spec plus a job counter and counters
/// of what was actually injected (so tests can assert the run exercised
/// recovery rather than passing vacuously).
#[derive(Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    jobs: AtomicU64,
    dropped: AtomicU64,
    corrupted: AtomicU64,
    crashed: AtomicU64,
}

impl FaultPlan {
    /// Builds a plan from a validated spec.
    pub fn new(spec: FaultSpec) -> Self {
        spec.assert_valid();
        FaultPlan {
            spec,
            jobs: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            corrupted: AtomicU64::new(0),
            crashed: AtomicU64::new(0),
        }
    }

    /// Starts the next job's identity window and returns its ordinal;
    /// called once per job by the executor's prologue, so decision keys and
    /// blackout windows do not depend on how many stages a job runs.
    pub fn begin_job(&self) -> u64 {
        self.jobs.fetch_add(1, Ordering::Relaxed)
    }

    /// Ordinal of the job in flight (0 before any job began).
    fn current_job(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed).saturating_sub(1)
    }

    /// Whether `node` is blacked out for `phase` of the current job.
    pub fn node_down(&self, node: usize, phase: Phase) -> bool {
        let job = self.current_job();
        self.spec
            .blackouts
            .iter()
            .any(|b| b.node == node && (b.from..=b.until).contains(&(job, phase)))
    }

    /// Whether this delivery attempt of `mv` is dropped in flight. A
    /// delivery into or out of a node blacked out for the move's phase is
    /// always dropped.
    pub fn drop_delivery(&self, mv: &WireMove, task_attempt: u32, delivery: u32) -> bool {
        if self.node_down(mv.from_node, mv.phase) || self.node_down(mv.to_node, mv.phase) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        if self.roll(SALT_DROP, self.move_identity(mv, task_attempt, delivery))
            < self.spec.drop_rate
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Possibly flips one bit of the encoded frame for this delivery
    /// attempt; returns whether corruption was injected. The flipped bit
    /// position is itself seed-derived, so a given delivery always
    /// corrupts the same way.
    pub fn corrupt_payload(
        &self,
        mv: &WireMove,
        task_attempt: u32,
        delivery: u32,
        frame: &mut [u8],
    ) -> bool {
        if frame.is_empty() {
            return false;
        }
        let identity = self.move_identity(mv, task_attempt, delivery);
        if self.roll(SALT_CORRUPT, identity) >= self.spec.corrupt_rate {
            return false;
        }
        let mut rng = StdRng::seed_from_u64(mix(self.spec.seed ^ SALT_CORRUPT, identity));
        let bit = rng.gen_range(0u64..frame.len() as u64 * 8);
        frame[(bit / 8) as usize] ^= 1 << (bit % 8);
        self.corrupted.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Whether attempt `attempt` of the plan's task `task` of `phase`,
    /// placed on `node`, crashes in the current job.
    fn crash_task(&self, phase: Phase, task: usize, node: usize, attempt: u32) -> bool {
        let identity = mix(
            mix(task as u64, self.stage_identity(phase)),
            (attempt as u64) << 32 | node as u64,
        );
        if self.roll(SALT_CRASH, identity) < self.spec.crash_rate {
            self.crashed.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Deliveries dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Frames corrupted so far.
    pub fn corrupted(&self) -> u64 {
        self.corrupted.load(Ordering::Relaxed)
    }

    /// Task attempts crashed so far.
    pub fn crashed(&self) -> u64 {
        self.crashed.load(Ordering::Relaxed)
    }

    /// The `(job, phase)` word every decision of that planned phase mixes in.
    fn stage_identity(&self, phase: Phase) -> u64 {
        mix(self.current_job(), phase.index() as u64)
    }

    /// Stable identity of one delivery attempt of one move. Uses the block
    /// grid position / producer copy / route / job / phase / attempt
    /// indices — NOT the matrix uid, which comes from a process-global
    /// counter.
    fn move_identity(&self, mv: &WireMove, task_attempt: u32, delivery: u32) -> u64 {
        let key_bits = |k: &StoreKey| {
            mix(
                (k.id.row as u64) << 32 | k.id.col as u64,
                k.copy as u64 | 0x1000_0000_0000,
            )
        };
        let route = (mv.from_node as u64) << 32 | mv.to_node as u64;
        let attempts = (task_attempt as u64) << 32 | delivery as u64;
        mix(
            mix(key_bits(&mv.dst), route),
            mix(self.stage_identity(mv.phase), attempts),
        )
    }

    /// Uniform `[0, 1)` draw keyed by (seed, salt, event identity).
    fn roll(&self, salt: u64, identity: u64) -> f64 {
        StdRng::seed_from_u64(mix(self.spec.seed ^ salt, identity)).gen::<f64>()
    }
}

/// Runs one attempt of the plan's task `task` of `phase`, placed on `node`,
/// under `faults` if a plan is armed. A task on a node that is dark for its
/// phase never starts. An injected crash strikes at *completion*: the
/// attempt's shuffle reads already hit the transport (so first-transmission
/// payload accounting stays bit-identical to a fault-free run) and its
/// installs stay behind, but its result dies with the executor — so `body`
/// must signal nothing to other tasks; the caller does that once this
/// returns `Ok`. The caller is whoever knows the task's plan identity: the
/// executor's item closure, not the stage runner.
///
/// # Errors
/// [`TaskError::NodeLost`], [`TaskError::Crashed`] (both transient), or
/// whatever `body` fails with.
pub fn run_task<O>(
    faults: Option<&FaultPlan>,
    phase: Phase,
    task: usize,
    node: usize,
    attempt: u32,
    body: impl FnOnce() -> Result<O, TaskError>,
) -> Result<O, TaskError> {
    let Some(faults) = faults else {
        return body();
    };
    if faults.node_down(node, phase) {
        return Err(TaskError::NodeLost { node });
    }
    let out = body()?;
    if faults.crash_task(phase, task, node, attempt) {
        return Err(TaskError::Crashed { node });
    }
    Ok(out)
}

/// splitmix64-style mixer for combining identity words into one seed.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distme_matrix::BlockId;

    fn mv(row: u32, col: u32, from: usize, to: usize) -> WireMove {
        let key = StoreKey::replica(999, BlockId::new(row, col), 1);
        WireMove {
            phase: Phase::Repartition,
            from_node: from,
            to_node: to,
            wire_bytes: 64,
            src: key,
            dst: key,
        }
    }

    fn spec(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            drop_rate: 0.3,
            corrupt_rate: 0.3,
            crash_rate: 0.3,
            blackouts: Vec::new(),
        }
    }

    #[test]
    fn decisions_are_reproducible_and_identity_keyed() {
        let a = FaultPlan::new(spec(42));
        let b = FaultPlan::new(spec(42));
        let mut hit = false;
        let mut miss = false;
        for row in 0..32 {
            let m = mv(row, 0, 0, 1);
            let d = a.drop_delivery(&m, 0, 0);
            assert_eq!(d, b.drop_delivery(&m, 0, 0), "same seed, same decision");
            hit |= d;
            miss |= !d;
        }
        assert!(hit && miss, "a 30% rate over 32 moves should mix outcomes");
    }

    #[test]
    fn decisions_ignore_matrix_uid() {
        // Two plans fault the "same" move identically even when the store
        // keys carry different (globally-counted) matrix uids.
        let plan = FaultPlan::new(spec(7));
        for row in 0..16 {
            let mut a = mv(row, 2, 1, 3);
            let mut b = a;
            a.src.matrix = 10;
            a.dst.matrix = 10;
            b.src.matrix = 99;
            b.dst.matrix = 99;
            assert_eq!(plan.drop_delivery(&a, 0, 0), plan.drop_delivery(&b, 0, 0));
        }
    }

    #[test]
    fn redelivery_attempts_reroll() {
        // A dropped delivery must not be doomed forever: the delivery
        // index is part of the identity, so some retry succeeds.
        let plan = FaultPlan::new(FaultSpec {
            drop_rate: 0.5,
            ..spec(3)
        });
        let m = mv(1, 1, 0, 2);
        let outcomes: Vec<bool> = (0..16).map(|d| plan.drop_delivery(&m, 0, d)).collect();
        assert!(outcomes.iter().any(|&d| d));
        assert!(outcomes.iter().any(|&d| !d));
    }

    #[test]
    fn corruption_flips_exactly_one_bit_deterministically() {
        let plan = FaultPlan::new(FaultSpec {
            corrupt_rate: 1.0,
            ..spec(11)
        });
        let m = mv(0, 0, 0, 1);
        let clean = vec![0u8; 64];
        let mut once = clean.clone();
        assert!(plan.corrupt_payload(&m, 0, 0, &mut once));
        let mut twice = clean.clone();
        assert!(plan.corrupt_payload(&m, 0, 0, &mut twice));
        assert_eq!(once, twice, "same delivery corrupts the same way");
        let flipped: u32 = once
            .iter()
            .zip(&clean)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
        assert_eq!(plan.corrupted(), 2);
    }

    #[test]
    fn blackout_windows_gate_nodes_by_job_and_phase() {
        let plan = FaultPlan::new(FaultSpec {
            blackouts: vec![Blackout {
                node: 1,
                from: (0, Phase::LocalMult),
                until: (1, Phase::Repartition),
            }],
            ..FaultSpec::quiet(5)
        });
        assert_eq!(plan.begin_job(), 0);
        assert!(!plan.node_down(1, Phase::Repartition));
        assert!(plan.node_down(1, Phase::LocalMult));
        assert!(plan.node_down(1, Phase::Aggregation));
        assert!(!plan.node_down(0, Phase::LocalMult));
        // A move is dark by *its* phase, whatever else the job is doing.
        let mut m = mv(0, 0, 1, 2);
        assert!(
            !plan.drop_delivery(&m, 0, 0),
            "repartition precedes the window"
        );
        m.phase = Phase::Aggregation;
        assert!(plan.drop_delivery(&m, 0, 0), "down node drops");
        assert_eq!(plan.begin_job(), 1);
        assert!(plan.node_down(1, Phase::Repartition));
        assert!(!plan.node_down(1, Phase::LocalMult));
        assert_eq!(plan.begin_job(), 2);
        assert!(!plan.node_down(1, Phase::Repartition));
    }

    #[test]
    fn decisions_reroll_per_job_and_per_phase() {
        let plan = FaultPlan::new(spec(21));
        let crashes =
            |phase| -> Vec<bool> { (0..64).map(|t| plan.crash_task(phase, t, 0, 0)).collect() };
        let (mult0, agg0) = (crashes(Phase::LocalMult), crashes(Phase::Aggregation));
        assert_eq!(mult0, crashes(Phase::LocalMult), "same identity, same roll");
        assert_ne!(mult0, agg0, "task 3 of two phases is two identities");
        plan.begin_job(); // job 0: the ordinal before any job began
        assert_eq!(mult0, crashes(Phase::LocalMult));
        plan.begin_job();
        assert_ne!(mult0, crashes(Phase::LocalMult), "the next job rerolls");
    }

    #[test]
    fn quiet_spec_injects_nothing() {
        let plan = FaultPlan::new(FaultSpec::quiet(9));
        for row in 0..64 {
            let m = mv(row, row, 0, 1);
            assert!(!plan.drop_delivery(&m, 0, 0));
            let mut frame = vec![0xAB; 32];
            assert!(!plan.corrupt_payload(&m, 0, 0, &mut frame));
            assert!(frame.iter().all(|&b| b == 0xAB));
            assert!(!plan.crash_task(Phase::LocalMult, row as usize, 0, 0));
        }
        assert_eq!(plan.dropped() + plan.corrupted() + plan.crashed(), 0);
    }

    #[test]
    #[should_panic(expected = "drop_rate")]
    fn out_of_range_rate_rejected() {
        FaultPlan::new(FaultSpec {
            drop_rate: 1.5,
            ..FaultSpec::quiet(0)
        });
    }
}
