//! The simulated backend: lowers a [`JobPlan`] onto [`SimCluster`].
//!
//! All plan construction — grid enumeration, the BMM broadcast special
//! case, the `R > 1` aggregation stage, θt/θg admission — lives in
//! [`crate::plan`]. This module only walks the plan's stages, hands each
//! stage's task *summaries* to the simulated cluster's resource models,
//! and assembles [`JobStats`]. Communication bytes are read back from the
//! plan's stored per-phase totals ([`JobPlan::report_comm`]), the same
//! field the real executor charges its shuffle ledger from.
//!
//! Nothing is materialized: each task is a byte/FLOP summary, which is
//! what lets the harness replay the paper's 80 GB-to-multi-TB workloads.

use crate::methods::{MulMethod, ResolvedMethod};
use crate::plan::JobPlan;
use crate::problem::MatmulProblem;
use distme_cluster::{JobError, JobStats, Phase, SimCluster, SimTask};

pub use crate::plan::RESIDENT_OUTPUT_FRACTION;

/// Simulates `problem` with `method` on `cluster` (GPU is used when the
/// cluster has one), returning per-phase statistics.
///
/// # Errors
/// Propagates the cluster's failure modes — the O.O.M. / T.O. / E.D.C. /
/// too-many-tasks annotations of Figs. 6–8.
pub fn simulate(
    cluster: &mut SimCluster,
    problem: &MatmulProblem,
    method: MulMethod,
) -> Result<JobStats, JobError> {
    let plan = JobPlan::build(problem, method, cluster.config()).at_epoch(cluster.epoch());
    simulate_plan(cluster, &plan)
}

/// [`simulate`] with a pre-resolved method (used by the parameter-sweep
/// benches of Fig. 9).
pub fn simulate_resolved(
    cluster: &mut SimCluster,
    problem: &MatmulProblem,
    resolved: &ResolvedMethod,
) -> Result<JobStats, JobError> {
    let plan =
        JobPlan::from_resolved(problem, resolved, cluster.config()).at_epoch(cluster.epoch());
    simulate_plan(cluster, &plan)
}

/// Lowers each stage of `plan` onto the cluster's resource models.
///
/// # Errors
/// Propagates the cluster's failure modes (O.O.M., T.O., E.D.C., ...).
pub fn simulate_plan(cluster: &mut SimCluster, plan: &JobPlan) -> Result<JobStats, JobError> {
    if plan.epoch != cluster.epoch() {
        return Err(JobError::StaleEpoch {
            plan: plan.epoch,
            cluster: cluster.epoch(),
        });
    }
    cluster.start_job();
    let mut stats = JobStats::default();
    for stage in &plan.stages {
        let summaries: Vec<SimTask> = stage.tasks.iter().map(|t| t.summary).collect();
        // The broadcast rides on the local-mult stage: the time model uses
        // torrent semantics (one wire copy per node, checked against node
        // memory), while the byte accounting below follows Table 2.
        let broadcast = if stage.phase == Phase::LocalMult {
            plan.broadcast.map_or(0, |b| b.bytes_per_copy)
        } else {
            0
        };
        let outcome = cluster.run_stage(&summaries, broadcast)?;
        stats.peak_task_mem_bytes = stats.peak_task_mem_bytes.max(outcome.peak_task_mem_bytes);
        if stage.phase != Phase::Aggregation {
            stats.intermediate_bytes += outcome.shuffle_write_bytes;
        }
        if stage.phase == Phase::LocalMult {
            stats.gpu_utilization = outcome.gpu_utilization;
        }
        let ps = stats.phase_mut(stage.phase);
        ps.secs = outcome.secs;
        ps.tasks = outcome.tasks;
    }
    // Communication is read from the plan's routing, not the resource
    // models — the same numbers the real executor charges to its ledger.
    plan.report_comm(&mut stats);
    stats.elapsed_secs = cluster.job_elapsed_secs();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distme_cluster::ClusterConfig;

    fn paper_sim() -> SimCluster {
        SimCluster::new(ClusterConfig::paper_cluster())
    }

    fn paper_sim_gpu() -> SimCluster {
        SimCluster::new(ClusterConfig::paper_cluster_gpu())
    }

    #[test]
    fn cuboidmm_beats_all_baselines_at_70k() {
        // Fig. 6(a)/(d) at N = 70K: CuboidMM wins on elapsed time and
        // communication; BMM/CPMM/RMM all succeed at this size.
        let p = MatmulProblem::dense(70_000, 70_000, 70_000);
        let mut results = Vec::new();
        for m in [
            MulMethod::Bmm,
            MulMethod::Cpmm,
            MulMethod::Rmm,
            MulMethod::CuboidAuto,
        ] {
            let mut sim = paper_sim_gpu();
            let stats = simulate(&mut sim, &p, m).unwrap_or_else(|e| {
                panic!("{} failed at 70K: {e}", m.name());
            });
            results.push((m.name(), stats));
        }
        let cuboid = &results[3].1;
        for (name, stats) in &results[..3] {
            assert!(
                cuboid.elapsed_secs < stats.elapsed_secs,
                "CuboidMM ({:.0}s) not faster than {name} ({:.0}s)",
                cuboid.elapsed_secs,
                stats.elapsed_secs
            );
            assert!(
                cuboid.communication_bytes() < stats.communication_bytes(),
                "CuboidMM comm not lower than {name}"
            );
        }
    }

    #[test]
    fn bmm_ooms_on_large_general_matrices() {
        // Fig. 6(a): BMM fails with O.O.M. when N > 80K (|B| no longer fits
        // beside a task's A share).
        let p = MatmulProblem::dense(100_000, 100_000, 100_000);
        let err = simulate(&mut paper_sim(), &p, MulMethod::Bmm).unwrap_err();
        assert_eq!(err.annotation(), "O.O.M.");
    }

    #[test]
    fn cpmm_ooms_on_two_large_dimensions() {
        // Fig. 6(c): CPMM fails for N x 1K x N at N = 500K (|C| per task).
        let p = MatmulProblem::dense(500_000, 1_000, 500_000);
        let err = simulate(&mut paper_sim(), &p, MulMethod::Cpmm).unwrap_err();
        assert_eq!(err.annotation(), "O.O.M.");
    }

    #[test]
    fn rmm_never_ooms_but_is_slow() {
        let p = MatmulProblem::dense(100_000, 100_000, 100_000);
        let mut rmm_sim =
            SimCluster::new(ClusterConfig::paper_cluster_gpu().with_timeout(f64::MAX));
        let rmm = simulate(&mut rmm_sim, &p, MulMethod::Rmm).unwrap();
        let cuboid = simulate(&mut paper_sim_gpu(), &p, MulMethod::CuboidAuto).unwrap();
        assert!(rmm.elapsed_secs > 2.0 * cuboid.elapsed_secs);
        assert!(rmm.communication_bytes() > 5 * cuboid.communication_bytes());
    }

    #[test]
    fn cuboidmm_runs_where_everything_else_fails() {
        // Fig. 6(c) at 750K x 1K x 750K: BMM/CPMM O.O.M., RMM T.O.,
        // CuboidMM succeeds.
        let p = MatmulProblem::dense(750_000, 1_000, 750_000);
        assert_eq!(
            simulate(&mut paper_sim_gpu(), &p, MulMethod::Bmm)
                .unwrap_err()
                .annotation(),
            "O.O.M."
        );
        assert_eq!(
            simulate(&mut paper_sim_gpu(), &p, MulMethod::Cpmm)
                .unwrap_err()
                .annotation(),
            "O.O.M."
        );
        let rmm = simulate(&mut paper_sim_gpu(), &p, MulMethod::Rmm);
        assert!(rmm.is_err(), "RMM should T.O. at 750K: {rmm:?}");
        let ok = simulate(&mut paper_sim_gpu(), &p, MulMethod::CuboidAuto);
        assert!(ok.is_ok(), "CuboidMM must survive 750K: {ok:?}");
    }

    #[test]
    fn aggregation_skipped_when_r_is_one() {
        let p = MatmulProblem::dense(500_000, 1_000, 500_000);
        let mut sim = SimCluster::new(ClusterConfig::paper_cluster().with_timeout(f64::MAX));
        let stats = simulate(&mut sim, &p, MulMethod::CuboidAuto).unwrap();
        assert_eq!(stats.phase(Phase::Aggregation).secs, 0.0);
        assert_eq!(stats.phase(Phase::Aggregation).shuffle_bytes, 0);
    }

    #[test]
    fn bmm_has_no_aggregation_and_broadcast_bytes() {
        let p = MatmulProblem::dense(30_000, 30_000, 30_000);
        let stats = simulate(&mut paper_sim(), &p, MulMethod::Bmm).unwrap();
        assert_eq!(stats.phase(Phase::Aggregation).shuffle_bytes, 0);
        // Table 2 accounting: T·|B| with T = I = 30 tasks.
        assert_eq!(stats.total_broadcast_bytes(), 30 * p.b.total_bytes());
    }

    #[test]
    fn gpu_strictly_helps_compute_bound_jobs() {
        let p = MatmulProblem::dense(40_000, 40_000, 40_000);
        let cpu = simulate(&mut paper_sim(), &p, MulMethod::CuboidAuto).unwrap();
        let gpu = simulate(&mut paper_sim_gpu(), &p, MulMethod::CuboidAuto).unwrap();
        assert!(
            gpu.elapsed_secs < cpu.elapsed_secs,
            "GPU {:.0}s vs CPU {:.0}s",
            gpu.elapsed_secs,
            cpu.elapsed_secs
        );
        assert!(gpu.gpu_utilization.is_some());
        assert!(cpu.gpu_utilization.is_none());
    }

    #[test]
    fn communication_matches_cost_model_shape() {
        // Measured repartition bytes must equal Q|A| + P|B| exactly for a
        // shuffled cuboid method.
        let p = MatmulProblem::dense(70_000, 70_000, 70_000);
        let spec = crate::cuboid::CuboidSpec::new(4, 7, 4);
        let mut sim = SimCluster::new(ClusterConfig::paper_cluster_gpu().with_timeout(f64::MAX));
        let stats = simulate(&mut sim, &p, MulMethod::Cuboid(spec)).unwrap();
        let expect_rep = 7 * p.a.total_bytes() + 4 * p.b.total_bytes();
        assert_eq!(stats.phase(Phase::Repartition).shuffle_bytes, expect_rep);
        let expect_agg = 4 * p.c.total_bytes();
        assert_eq!(stats.phase(Phase::Aggregation).shuffle_bytes, expect_agg);
    }

    #[test]
    fn crmm_pays_reblocking_but_beats_rmm() {
        let p = MatmulProblem::dense(70_000, 70_000, 70_000);
        let crmm = simulate(&mut paper_sim_gpu(), &p, MulMethod::Crmm).unwrap();
        let rmm = simulate(&mut paper_sim_gpu(), &p, MulMethod::Rmm).unwrap();
        let cuboid = simulate(&mut paper_sim_gpu(), &p, MulMethod::CuboidAuto).unwrap();
        assert!(crmm.communication_bytes() < rmm.communication_bytes());
        assert!(cuboid.communication_bytes() < crmm.communication_bytes());
    }

    #[test]
    fn stale_epoch_plans_are_rejected() {
        let p = MatmulProblem::dense(20_000, 20_000, 20_000);
        let mut sim = paper_sim();
        let plan = JobPlan::build(&p, MulMethod::CuboidAuto, sim.config()); // epoch 0
        assert!(simulate_plan(&mut sim, &plan).is_ok());
        sim.scale_to(12);
        let err = simulate_plan(&mut sim, &plan).unwrap_err();
        assert!(err.to_string().contains("stale"), "got: {err}");
    }

    #[test]
    fn deterministic_simulation() {
        let p = MatmulProblem::dense(50_000, 50_000, 50_000);
        let a = simulate(&mut paper_sim_gpu(), &p, MulMethod::CuboidAuto).unwrap();
        let b = simulate(&mut paper_sim_gpu(), &p, MulMethod::CuboidAuto).unwrap();
        assert_eq!(a, b);
    }
}
