//! Simulator models of the non-multiply operators: transpose and
//! element-wise (§5 lists element-wise, matrix multiplication, and
//! transpose as DistME's operator set). The real bodies are
//! [`TenantSession`](crate::session::TenantSession)'s.

use distme_cluster::{ComputeWork, JobError, JobStats, Phase, PhaseStats, SimCluster, SimTask};
use distme_matrix::{MatrixError, MatrixMeta};

/// Simulates a distributed transpose: every block is shuffled to its
/// transposed grid position (one full pass over the matrix), unless the
/// engine reuses partitioning (DMac/DistME dependency-aware planning), in
/// which case the transpose is a metadata operation.
pub fn sim_transpose(
    cluster: &mut SimCluster,
    x: &MatrixMeta,
    reuse_partitioning: bool,
) -> Result<(MatrixMeta, JobStats), JobError> {
    let out = x.transposed();
    if reuse_partitioning {
        return Ok((out, JobStats::default()));
    }
    cluster.start_job();
    let cfg = *cluster.config();
    let total = x.total_bytes();
    let t = (cfg.total_slots() as u64).min(x.num_blocks()).max(1);
    let tasks: Vec<SimTask> = (0..t)
        .map(|i| {
            let share = split(total, t, i);
            SimTask {
                shuffle_in_bytes: share,
                local_read_bytes: 0,
                compute: ComputeWork::Cpu {
                    // One element move per element.
                    flops: split(x.elements(), t, i) as f64,
                },
                shuffle_out_bytes: share,
                local_write_bytes: 0,
                mem_bytes: 2 * x.block_bytes(),
            }
        })
        .collect();
    let s = cluster.run_stage(&tasks, 0)?;
    let mut stats = JobStats {
        elapsed_secs: cluster.job_elapsed_secs(),
        peak_task_mem_bytes: s.peak_task_mem_bytes,
        intermediate_bytes: s.shuffle_write_bytes,
        ..Default::default()
    };
    *stats.phase_mut(Phase::Repartition) = PhaseStats {
        secs: s.secs,
        shuffle_bytes: s.shuffle_read_bytes,
        cross_node_bytes: s.cross_node_bytes,
        broadcast_bytes: 0,
        tasks: s.tasks,
    };
    Ok((out, stats))
}

/// Simulates an element-wise combination of two co-partitioned matrices
/// (the `∗` and `/` of the GNMF update). Cached operands zip locally; the
/// cost is one pass of arithmetic.
pub fn sim_elementwise(
    cluster: &mut SimCluster,
    x: &MatrixMeta,
    y: &MatrixMeta,
) -> Result<(MatrixMeta, JobStats), JobError> {
    if x.rows != y.rows || x.cols != y.cols {
        return Err(MatrixError::DimensionMismatch {
            op: "elementwise",
            lhs: (x.rows, x.cols),
            rhs: (y.rows, y.cols),
        }
        .into());
    }
    cluster.start_job();
    let cfg = *cluster.config();
    let t = (cfg.total_slots() as u64).min(x.num_blocks()).max(1);
    let tasks: Vec<SimTask> = (0..t)
        .map(|i| SimTask {
            shuffle_in_bytes: 0,
            local_read_bytes: 0,
            compute: ComputeWork::Cpu {
                flops: split(x.elements(), t, i) as f64,
            },
            shuffle_out_bytes: 0,
            local_write_bytes: 0,
            mem_bytes: 3 * x.block_bytes(),
        })
        .collect();
    let s = cluster.run_stage(&tasks, 0)?;
    let mut stats = JobStats {
        elapsed_secs: cluster.job_elapsed_secs(),
        peak_task_mem_bytes: s.peak_task_mem_bytes,
        ..Default::default()
    };
    stats.phase_mut(Phase::LocalMult).secs = s.secs;
    stats.phase_mut(Phase::LocalMult).tasks = s.tasks;
    // The result keeps the left operand's sparsity for Mul/Div semantics.
    Ok((*x, stats))
}

fn split(total: u64, parts: u64, idx: u64) -> u64 {
    let base = total / parts;
    base + u64::from(idx < total % parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distme_cluster::ClusterConfig;

    fn sim() -> SimCluster {
        SimCluster::new(ClusterConfig::paper_cluster())
    }

    #[test]
    fn sim_transpose_costs_one_pass() {
        let x = MatrixMeta::dense(50_000, 20_000);
        let (out, stats) = sim_transpose(&mut sim(), &x, false).unwrap();
        assert_eq!((out.rows, out.cols), (20_000, 50_000));
        assert_eq!(
            stats.phase(Phase::Repartition).shuffle_bytes,
            x.total_bytes()
        );
        assert!(stats.elapsed_secs > 0.0);
    }

    #[test]
    fn sim_transpose_free_with_partition_reuse() {
        let x = MatrixMeta::dense(50_000, 20_000);
        let (_, stats) = sim_transpose(&mut sim(), &x, true).unwrap();
        assert_eq!(stats.elapsed_secs, 0.0);
        assert_eq!(stats.total_shuffle_bytes(), 0);
    }

    #[test]
    fn sim_elementwise_validates_shapes() {
        let x = MatrixMeta::dense(100, 100);
        let y = MatrixMeta::dense(100, 200);
        assert!(sim_elementwise(&mut sim(), &x, &y).is_err());
        let y = MatrixMeta::dense(100, 100);
        let (out, stats) = sim_elementwise(&mut sim(), &x, &y).unwrap();
        assert_eq!(out.rows, 100);
        assert!(stats.elapsed_secs > 0.0);
        assert_eq!(stats.total_shuffle_bytes(), 0);
    }
}
