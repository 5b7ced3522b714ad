//! Multi-tenant jobs: several callers sharing one cluster.
//!
//! Submits a mix of jobs from three tenants — bulk multiplies at low
//! priority, an interactive chained expression at high priority, and a
//! short GNMF factorization — through the [`JobService`]. All of them
//! interleave on the same worker pool under the scheduler's
//! priority/fair-share policy, admission control bounds how much declared
//! memory is resident at once, and every finished job's statistics are
//! merged into its tenant's, so each byte is attributed to the tenant
//! that caused it.
//!
//! Run with: `cargo run --release --example multi_tenant`

use distme::prelude::*;
use distme_matrix::codec;
use std::sync::Arc;

fn main() {
    let svc = JobService::new(ClusterConfig::laptop(), SystemProfile::DistMe);
    let cfg = svc.config();
    println!(
        "cluster: {} nodes x {} tasks; admission budget {} MB, {} priority levels\n",
        cfg.nodes,
        cfg.tasks_per_node,
        cfg.scheduler.admission_budget_bytes / 1_000_000,
        cfg.scheduler.priority_levels
    );

    let a = Arc::new(gen(320, 256, 1));
    let b = Arc::new(gen(256, 192, 2));
    let v = Arc::new(
        MatrixGenerator::with_seed(3)
            .value_range(1.0, 5.0)
            .generate(&MatrixMeta::sparse(192, 128, 0.2).with_block_size(32))
            .unwrap(),
    );
    let demand: u64 = a
        .blocks()
        .chain(b.blocks())
        .map(|(_, blk)| codec::encoded_len(blk))
        .sum();

    // Tenant 1: a batch of bulk multiplies at the lowest priority.
    let bulk: Vec<_> = (0..3)
        .map(|i| {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            svc.submit(JobSpec::new(TenantId(1)).demand_bytes(demand), move |s| {
                let c = s.matmul(&a, &b)?;
                Ok((i, c.meta().rows, c.meta().cols))
            })
        })
        .collect();

    // Tenant 2: an interactive chained expression at top priority — it
    // wins freed task slots ahead of the bulk work.
    let interactive = {
        let a = Arc::clone(&a);
        svc.submit(
            JobSpec::new(TenantId(2)).priority(3).demand_bytes(demand),
            move |s| {
                let at = s.transpose(&a)?;
                let gram = s.matmul(&at, &a)?;
                s.elementwise(&gram, EwOp::Mul, &gram)
            },
        )
    };

    // Tenant 3: a short GNMF factorization.
    let factorize = {
        let v = Arc::clone(&v);
        svc.submit(JobSpec::new(TenantId(3)).priority(1), move |s| {
            let cfg = GnmfConfig {
                factor_dim: 32,
                iterations: 3,
            };
            gnmf::run_real(s, &v, &cfg, 99)
        })
    };

    // What the jobs themselves reported moving, summed as they finish.
    let mut jobs_total = 0u64;
    let out = interactive.wait().expect("interactive job");
    jobs_total += out.stats.communication_bytes();
    println!(
        "tenant-2 interactive: {}x{} result, {} ops",
        out.value.meta().rows,
        out.value.meta().cols,
        out.ops_run
    );
    for h in bulk {
        let out = h.wait().expect("bulk job");
        jobs_total += out.stats.communication_bytes();
        let (i, rows, cols) = out.value;
        println!(
            "tenant-1 bulk #{i}: {rows}x{cols} result, waited {:.1} ms in queue",
            out.queue_wait_secs * 1e3
        );
    }
    let out = factorize.wait().expect("gnmf job");
    jobs_total += out.stats.communication_bytes();
    println!(
        "tenant-3 GNMF: objective {:.3} -> {:.3} over {} ops\n",
        out.value.objective.first().unwrap(),
        out.value.objective.last().unwrap(),
        out.ops_run
    );

    println!("per-tenant communication (merged job statistics):");
    let mut summed = 0u64;
    for t in svc.tenants() {
        let bytes = svc.tenant_stats(t).communication_bytes();
        summed += bytes;
        println!("  {t}: {bytes} bytes moved");
    }
    println!("  all jobs: {jobs_total} bytes (tenant sum {summed})");
    assert_eq!(summed, jobs_total, "attribution accounts for every byte");

    let waits = svc.queue_wait_stats();
    println!(
        "\nadmissions: {} total, queue wait p50 {:.1} ms / p95 {:.1} ms",
        waits.submissions,
        waits.p50_secs * 1e3,
        waits.p95_secs * 1e3
    );
}

fn gen(rows: u64, cols: u64, seed: u64) -> BlockMatrix {
    MatrixGenerator::with_seed(seed)
        .value_range(-1.0, 1.0)
        .generate(&MatrixMeta::dense(rows, cols).with_block_size(32))
        .unwrap()
}
