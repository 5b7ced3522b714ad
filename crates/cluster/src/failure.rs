//! Failure modes of distributed jobs.
//!
//! The paper's figures annotate three failure classes: **O.O.M.** (task
//! memory exceeds θt — how BMM and CPMM die on large matrices), **T.O.**
//! (elapsed time beyond 4 000 s — how RMM dies on Fig. 6(c)), and
//! **E.D.C.** (intermediate data exceeding the 36 TB cluster disk — how
//! SystemML/MatFast die on Figs. 7(b,c)). These are first-class errors here
//! so the benchmark harness can print the same annotations.

use std::fmt;

/// An error local to a single task.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskError {
    /// The task's working set exceeded the per-task budget θt (or θg on
    /// the GPU).
    OutOfMemory {
        /// Bytes the task needed.
        needed: u64,
        /// The budget it had.
        budget: u64,
    },
    /// A matrix kernel failed (dimension mismatch, corrupt block, ...).
    Compute(String),
    /// The task tried to read a block that is not resident in its node's
    /// store — a locality violation (the plan never routed the block
    /// there), never a silent fallthrough to shared memory.
    MissingBlock {
        /// The node whose store was consulted.
        node: usize,
        /// The block the task asked for.
        id: distme_matrix::BlockId,
    },
    /// A shuffled block arrived with a bad frame checksum and redelivery
    /// from the producer's store was exhausted — transient, retryable.
    CorruptBlock {
        /// Destination node that rejected the frame.
        node: usize,
        /// The block whose frame was corrupt.
        id: distme_matrix::BlockId,
    },
    /// A shuffled block was dropped in flight and redelivery from the
    /// producer's store was exhausted — transient, retryable.
    LostBlock {
        /// Destination node that never received the block.
        node: usize,
        /// The block that was lost.
        id: distme_matrix::BlockId,
    },
    /// The task's executor process crashed mid-attempt — transient,
    /// retryable (the chaos layer's injected crash).
    Crashed {
        /// Node the attempt ran on.
        node: usize,
    },
    /// The task's node is blacked out for the current stage window —
    /// transient at the job level (the node may come back).
    NodeLost {
        /// The unreachable node.
        node: usize,
    },
}

impl TaskError {
    /// Whether a retry of the same task can plausibly succeed. Determinism
    /// violations (O.O.M. — the same inputs need the same memory),
    /// compute errors, and locality violations re-fail identically, so
    /// only fault-injection classes are worth re-attempting.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            TaskError::CorruptBlock { .. }
                | TaskError::LostBlock { .. }
                | TaskError::Crashed { .. }
                | TaskError::NodeLost { .. }
        )
    }
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::OutOfMemory { needed, budget } => {
                write!(f, "O.O.M.: task needs {needed} B, budget is {budget} B")
            }
            TaskError::Compute(msg) => write!(f, "compute error: {msg}"),
            TaskError::MissingBlock { node, id } => {
                write!(
                    f,
                    "block ({}, {}) not resident on node {node}",
                    id.row, id.col
                )
            }
            TaskError::CorruptBlock { node, id } => {
                write!(
                    f,
                    "block ({}, {}) arrived corrupt on node {node} (checksum mismatch)",
                    id.row, id.col
                )
            }
            TaskError::LostBlock { node, id } => {
                write!(
                    f,
                    "block ({}, {}) lost in transit to node {node}",
                    id.row, id.col
                )
            }
            TaskError::Crashed { node } => {
                write!(f, "executor crashed on node {node}")
            }
            TaskError::NodeLost { node } => {
                write!(f, "node {node} is unreachable")
            }
        }
    }
}

impl std::error::Error for TaskError {}

impl From<distme_matrix::MatrixError> for TaskError {
    fn from(e: distme_matrix::MatrixError) -> Self {
        TaskError::Compute(e.to_string())
    }
}

/// A shape the engine refuses before any task runs.
impl From<distme_matrix::MatrixError> for JobError {
    fn from(e: distme_matrix::MatrixError) -> Self {
        JobError::from_task(0, e.into())
    }
}

/// A job-level failure, matching the paper's figure annotations.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// O.O.M. — some task exceeded its memory budget.
    OutOfMemory {
        /// Index of the first failing task.
        task: usize,
        /// Bytes it needed.
        needed: u64,
        /// Its budget.
        budget: u64,
    },
    /// T.O. — the job exceeded the configured time-out.
    Timeout {
        /// Virtual seconds elapsed when the job was cut off.
        elapsed_secs: f64,
        /// The limit.
        limit_secs: f64,
    },
    /// E.D.C. — intermediate data exceeded the cluster disk capacity.
    ExceededDiskCapacity {
        /// Bytes of intermediate data the job required.
        needed: u64,
        /// The cluster's capacity.
        capacity: u64,
    },
    /// The stage needs more tasks than the scheduler supports (§6.2:
    /// "T = I·J·K for RMM incurs some errors due to too many tasks").
    TooManyTasks {
        /// Tasks requested.
        requested: usize,
        /// Scheduler limit.
        limit: usize,
    },
    /// A task failed with a non-memory error.
    TaskFailed {
        /// Index of the failing task.
        task: usize,
        /// Its error message.
        message: String,
    },
    /// A permanently decommissioned node held the only copy of resident
    /// blocks — no surviving replica (lineage) to reconstruct them from.
    /// The affected matrices are evicted; re-running their producing jobs
    /// re-materializes them.
    NodeDecommissioned {
        /// The decommissioned node.
        node: usize,
        /// Resident blocks whose sole copy lived there.
        lost_blocks: usize,
    },
    /// The job service's submission queue was full — the job was rejected
    /// at `submit` time, before admission. (Jobs queued for *memory* are
    /// never rejected; only queue depth overflow is.)
    QueueFull {
        /// Jobs already waiting for admission.
        queued: usize,
        /// The configured `SchedulerConfig::queue_depth`.
        depth: usize,
    },
    /// The submission itself was malformed (e.g. a priority outside the
    /// configured `priority_levels` range) and was rejected before queueing.
    InvalidSubmission {
        /// Human-readable reason.
        reason: String,
    },
    /// The plan was built at a membership epoch the cluster has since left:
    /// its routing assumed a grid that no longer exists. Rejected before
    /// any task runs.
    StaleEpoch {
        /// Epoch the plan was built at.
        plan: u64,
        /// The cluster's current epoch.
        cluster: u64,
    },
    /// The plan was routed for a different node count than the cluster
    /// has. Rejected before any task runs.
    NodeCountMismatch {
        /// Nodes the plan was routed for.
        plan: usize,
        /// Nodes the cluster has.
        cluster: usize,
    },
    /// A job's closure or one of its tasks panicked. Only that job fails;
    /// its admission and cluster hold are released.
    Panicked {
        /// The panic payload, when it was a string; `task N: ` first when
        /// task `N` panicked.
        message: String,
    },
    /// An algorithm was handed a matrix of a shape it is not defined on (a
    /// non-square Gram, a target that is not a column). Rejected by the
    /// driver before any job runs.
    ShapeMismatch {
        /// What was needed and what arrived.
        message: String,
    },
    /// The numbers, not the shapes, are degenerate: a singular system, an
    /// iterate that collapsed to the zero vector. No task failed.
    Singular {
        /// Where the computation lost rank.
        message: String,
    },
}

impl JobError {
    /// The short annotation the paper prints on failed bars.
    pub fn annotation(&self) -> &'static str {
        match self {
            JobError::OutOfMemory { .. } => "O.O.M.",
            JobError::Timeout { .. } => "T.O.",
            JobError::ExceededDiskCapacity { .. } => "E.D.C.",
            JobError::TooManyTasks { .. } => "T.M.T.",
            JobError::TaskFailed { .. }
            | JobError::StaleEpoch { .. }
            | JobError::NodeCountMismatch { .. }
            | JobError::ShapeMismatch { .. }
            | JobError::Singular { .. } => "FAIL",
            JobError::NodeDecommissioned { .. } => "N.D.",
            JobError::QueueFull { .. } => "Q.F.",
            JobError::InvalidSubmission { .. } => "INV",
            JobError::Panicked { .. } => "PANIC",
        }
    }

    /// A driver-side shape rejection.
    pub fn shape_mismatch(message: impl Into<String>) -> Self {
        JobError::ShapeMismatch {
            message: message.into(),
        }
    }

    /// A driver-side rejection of degenerate values.
    pub fn singular(message: impl Into<String>) -> Self {
        JobError::Singular {
            message: message.into(),
        }
    }

    /// A panic caught at a job or task boundary: `payload` is what
    /// [`std::panic::catch_unwind`] returned, `context` prefixes it.
    pub fn panicked(context: String, payload: &(dyn std::any::Any + Send)) -> Self {
        let what = (payload.downcast_ref::<&str>().copied())
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        let message = context + what.unwrap_or("non-string panic payload");
        JobError::Panicked { message }
    }

    /// Promotes a task error at `task` to a job error.
    pub fn from_task(task: usize, e: TaskError) -> Self {
        Self::from_task_attempts(task, e, 1)
    }

    /// Promotes a task error to a job error, recording how many attempts
    /// the retry policy spent before giving up. O.O.M. keeps its dedicated
    /// annotation; everything else becomes `TaskFailed` with the attempt
    /// count in the message when recovery was actually tried.
    pub fn from_task_attempts(task: usize, e: TaskError, attempts: u32) -> Self {
        match e {
            TaskError::OutOfMemory { needed, budget } => JobError::OutOfMemory {
                task,
                needed,
                budget,
            },
            TaskError::Compute(message) if attempts <= 1 => JobError::TaskFailed { task, message },
            e => JobError::TaskFailed {
                task,
                message: if attempts > 1 {
                    format!("failed after {attempts} attempts: {e}")
                } else {
                    e.to_string()
                },
            },
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::OutOfMemory {
                task,
                needed,
                budget,
            } => write!(
                f,
                "O.O.M.: task {task} needs {needed} B, budget is {budget} B"
            ),
            JobError::Timeout {
                elapsed_secs,
                limit_secs,
            } => write!(f, "T.O.: {elapsed_secs:.0}s exceeds limit {limit_secs:.0}s"),
            JobError::ExceededDiskCapacity { needed, capacity } => write!(
                f,
                "E.D.C.: {needed} B of intermediate data exceeds {capacity} B of disk"
            ),
            JobError::TooManyTasks { requested, limit } => {
                write!(f, "too many tasks: {requested} > scheduler limit {limit}")
            }
            JobError::TaskFailed { task, message } => {
                write!(f, "task {task} failed: {message}")
            }
            JobError::NodeDecommissioned { node, lost_blocks } => write!(
                f,
                "node {node} decommissioned with {lost_blocks} unreplicated block(s) and no lineage to rebuild them"
            ),
            JobError::QueueFull { queued, depth } => write!(
                f,
                "Q.F.: submission queue full ({queued} job(s) waiting, depth {depth})"
            ),
            JobError::InvalidSubmission { reason } => {
                write!(f, "invalid submission: {reason}")
            }
            JobError::StaleEpoch { plan, cluster } => write!(
                f,
                "plan built at membership epoch {plan} is stale: the cluster is now at epoch {cluster}"
            ),
            JobError::NodeCountMismatch { plan, cluster } => write!(
                f,
                "plan routed for {plan} nodes cannot run on a {cluster}-node cluster"
            ),
            JobError::Panicked { message } => write!(f, "job panicked: {message}"),
            JobError::ShapeMismatch { message } => write!(f, "shape mismatch: {message}"),
            JobError::Singular { message } => write!(f, "singular: {message}"),
        }
    }
}

impl std::error::Error for JobError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotations_match_paper() {
        assert_eq!(
            JobError::OutOfMemory {
                task: 0,
                needed: 1,
                budget: 1
            }
            .annotation(),
            "O.O.M."
        );
        assert_eq!(
            JobError::Timeout {
                elapsed_secs: 5000.0,
                limit_secs: 4000.0
            }
            .annotation(),
            "T.O."
        );
        assert_eq!(
            JobError::ExceededDiskCapacity {
                needed: 1,
                capacity: 1
            }
            .annotation(),
            "E.D.C."
        );
    }

    #[test]
    fn node_decommissioned_is_typed_and_informative() {
        let e = JobError::NodeDecommissioned {
            node: 3,
            lost_blocks: 2,
        };
        assert_eq!(e.annotation(), "N.D.");
        let msg = e.to_string();
        assert!(msg.contains("node 3"), "{msg}");
        assert!(msg.contains("2 unreplicated"), "{msg}");
        assert!(msg.contains("lineage"), "{msg}");
    }

    #[test]
    fn driver_side_rejections_name_no_task() {
        let shape = JobError::shape_mismatch("operand shapes 64x48 and 32x16 do not chain");
        let rank = JobError::singular("singular regularized Gram at column 3");
        assert!(matches!(shape, JobError::ShapeMismatch { .. }));
        assert!(matches!(rank, JobError::Singular { .. }));
        for (e, words) in [(shape, "64x48 and 32x16"), (rank, "Gram at column 3")] {
            assert_eq!(e.annotation(), "FAIL");
            let msg = e.to_string();
            assert!(msg.contains(words) && !msg.contains("task"), "{msg}");
        }
    }

    #[test]
    fn task_error_promotes_to_job_error() {
        let e = JobError::from_task(
            7,
            TaskError::OutOfMemory {
                needed: 10,
                budget: 5,
            },
        );
        assert_eq!(
            e,
            JobError::OutOfMemory {
                task: 7,
                needed: 10,
                budget: 5
            }
        );
        let e = JobError::from_task(3, TaskError::Compute("bad".into()));
        assert!(matches!(e, JobError::TaskFailed { task: 3, .. }));
    }

    #[test]
    fn displays_are_informative() {
        let e = JobError::Timeout {
            elapsed_secs: 4500.0,
            limit_secs: 4000.0,
        };
        assert!(e.to_string().contains("4500"));
        let t = TaskError::OutOfMemory {
            needed: 9,
            budget: 4,
        };
        assert!(t.to_string().starts_with("O.O.M."));
    }

    #[test]
    fn missing_block_promotes_to_task_failed() {
        let e = TaskError::MissingBlock {
            node: 2,
            id: distme_matrix::BlockId::new(4, 1),
        };
        assert!(e.to_string().contains("not resident"));
        let j = JobError::from_task(5, e);
        match j {
            JobError::TaskFailed { task, message } => {
                assert_eq!(task, 5);
                assert!(message.contains("node 2"));
            }
            other => panic!("unexpected promotion: {other:?}"),
        }
    }

    #[test]
    fn matrix_error_converts() {
        let me = distme_matrix::MatrixError::Codec("x".into());
        let te: TaskError = me.into();
        assert!(matches!(te, TaskError::Compute(_)));
    }

    #[test]
    fn transience_classification() {
        let id = distme_matrix::BlockId::new(0, 0);
        assert!(TaskError::CorruptBlock { node: 0, id }.is_transient());
        assert!(TaskError::LostBlock { node: 0, id }.is_transient());
        assert!(TaskError::Crashed { node: 1 }.is_transient());
        assert!(TaskError::NodeLost { node: 1 }.is_transient());
        assert!(!TaskError::Compute("x".into()).is_transient());
        assert!(!TaskError::MissingBlock { node: 0, id }.is_transient());
        assert!(!TaskError::OutOfMemory {
            needed: 2,
            budget: 1
        }
        .is_transient());
    }

    #[test]
    fn exhausted_retries_carry_attempt_count() {
        let e = JobError::from_task_attempts(3, TaskError::Crashed { node: 2 }, 4);
        match e {
            JobError::TaskFailed { task, message } => {
                assert_eq!(task, 3);
                assert!(message.contains("4 attempts"), "{message}");
                assert!(message.contains("crashed"), "{message}");
            }
            other => panic!("unexpected promotion: {other:?}"),
        }
        // O.O.M. keeps its annotation even after retries (it never retries
        // in practice, but the promotion must not lose the class).
        let e = JobError::from_task_attempts(
            0,
            TaskError::OutOfMemory {
                needed: 2,
                budget: 1,
            },
            2,
        );
        assert_eq!(e.annotation(), "O.O.M.");
        // Single-attempt promotion is unchanged from the pre-retry format.
        let e = JobError::from_task_attempts(1, TaskError::Compute("bad".into()), 1);
        assert_eq!(e, JobError::from_task(1, TaskError::Compute("bad".into())));
    }
}
