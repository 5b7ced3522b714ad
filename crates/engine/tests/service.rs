//! The job service's multi-tenancy contract:
//!
//! * **Bit-parity** — a job submitted through the service, racing other
//!   tenants' jobs on the shared worker pool, produces result bytes and
//!   per-job byte statistics identical to the same job run solo — on an
//!   idle service, or directly on a `RealSession`;
//! * **Attribution** — a tenant's stats are exactly the sum of its
//!   finished jobs' stats, and a resize is the anonymous tenant's;
//! * **Admission** — a submission whose declared demand would overshoot
//!   the cluster memory budget *queues* (bounding concurrent resident
//!   memory) instead of failing or OOMing, and runs once capacity frees;
//!   a full queue and an out-of-range priority are the only rejections;
//! * **Isolation** — a panic in one tenant's job closure fails that job's
//!   handle with a typed error and releases what the job held; nobody
//!   else's job notices.

use distme_cluster::{ClusterConfig, JobError, JobStats, Phase, TenantId};
use distme_engine::service::{JobService, JobSpec, JobStatus};
use distme_engine::session::Ops;
use distme_engine::systems::SystemProfile;
use distme_engine::{gnmf, GnmfConfig, RealSession};
use distme_matrix::elementwise::EwOp;
use distme_matrix::{codec, BlockMatrix, MatrixGenerator, MatrixMeta};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn service() -> JobService {
    JobService::new(ClusterConfig::laptop(), SystemProfile::DistMe)
}

fn dense(rows: u64, cols: u64, seed: u64) -> BlockMatrix {
    MatrixGenerator::with_seed(seed)
        .generate(&MatrixMeta::dense(rows, cols).with_block_size(16))
        .unwrap()
}

/// Exact bytes of a matrix: block ids plus their codec encodings, in
/// deterministic id order.
fn fingerprint(m: &BlockMatrix) -> Vec<u8> {
    let mut out = Vec::new();
    for (id, blk) in m.blocks() {
        out.extend_from_slice(&id.row.to_le_bytes());
        out.extend_from_slice(&id.col.to_le_bytes());
        out.extend_from_slice(&codec::encode(blk));
    }
    out
}

/// Every deterministic byte/count field of a job's stats (timings are
/// wall-clock and excluded). Payload counts shipped plus elided bytes: a
/// job racing others may find a neighbour's copy of a block resident and
/// ship less, but every move it made is counted one way or the other.
fn comm_signature(s: &JobStats) -> Vec<u64> {
    let mut v = vec![
        s.intermediate_bytes,
        s.transport_payload_bytes + s.elided_payload_bytes,
        s.redelivered_moves,
        s.retransmitted_payload_bytes,
        s.retries,
        s.peak_task_mem_bytes,
    ];
    for &p in Phase::ALL.iter() {
        let ph = s.phase(p);
        v.extend([
            ph.shuffle_bytes,
            ph.cross_node_bytes,
            ph.broadcast_bytes,
            ph.tasks as u64,
        ]);
    }
    v
}

/// Per-phase (shuffle, cross-node, broadcast) bytes — the integers of a
/// stats value, which sum exactly however jobs are merged (the f64 times
/// do not).
fn phase_bytes(s: &JobStats) -> Vec<[u64; 3]> {
    Phase::ALL
        .iter()
        .map(|&p| {
            let ph = s.phase(p);
            [ph.shuffle_bytes, ph.cross_node_bytes, ph.broadcast_bytes]
        })
        .collect()
}

fn spin_until(deadline: Duration, mut pred: impl FnMut() -> bool) {
    let start = Instant::now();
    while !pred() {
        assert!(start.elapsed() < deadline, "condition not reached in time");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn concurrent_jobs_match_their_solo_runs_bit_for_bit() {
    // Three job shapes: a plain multiply, a chained
    // transpose→matmul→elementwise expression, and a short GNMF run.
    let a = Arc::new(dense(80, 64, 5));
    let b = Arc::new(dense(64, 48, 6));
    let x = Arc::new(dense(48, 48, 7));
    let v = Arc::new(
        MatrixGenerator::with_seed(3)
            .value_range(1.0, 5.0)
            .generate(&MatrixMeta::sparse(96, 64, 0.2).with_block_size(16))
            .unwrap(),
    );
    let gnmf_cfg = GnmfConfig {
        factor_dim: 16,
        iterations: 2,
    };

    let multiply_job = {
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        move |s: &mut distme_engine::TenantSession<'_>| s.matmul(&a, &b)
    };
    let chain_job = {
        let x = Arc::clone(&x);
        move |s: &mut distme_engine::TenantSession<'_>| {
            let xt = s.transpose(&x)?;
            let sym = s.matmul(&xt, &x)?;
            s.elementwise(&sym, EwOp::Mul, &sym)
        }
    };
    let gnmf_job = {
        let v = Arc::clone(&v);
        move |s: &mut distme_engine::TenantSession<'_>| {
            let res = gnmf::run_real(s, &v, &gnmf_cfg, 99)?;
            Ok(res.w)
        }
    };

    // Solo baselines: each job alone on a fresh, idle service.
    let solo_mul = service()
        .submit(JobSpec::new(TenantId(1)), multiply_job.clone())
        .wait()
        .unwrap();
    let solo_chain = service()
        .submit(JobSpec::new(TenantId(2)), chain_job.clone())
        .wait()
        .unwrap();
    let solo_gnmf = service()
        .submit(JobSpec::new(TenantId(3)), gnmf_job.clone())
        .wait()
        .unwrap();

    // The same three jobs racing on one shared cluster, twice over with
    // mixed priorities, so stages genuinely interleave.
    let svc = service();
    let handles = vec![
        svc.submit(JobSpec::new(TenantId(1)), multiply_job.clone()),
        svc.submit(JobSpec::new(TenantId(2)).priority(1), chain_job.clone()),
        svc.submit(JobSpec::new(TenantId(3)).priority(2), gnmf_job.clone()),
        svc.submit(JobSpec::new(TenantId(1)).priority(3), multiply_job.clone()),
        svc.submit(JobSpec::new(TenantId(2)), chain_job.clone()),
    ];
    let solos = [&solo_mul, &solo_chain, &solo_gnmf, &solo_mul, &solo_chain];
    for (h, solo) in handles.into_iter().zip(solos) {
        let out = h.wait().unwrap();
        assert_eq!(
            fingerprint(&out.value),
            fingerprint(&solo.value),
            "a job racing other tenants must produce its solo result bytes"
        );
        assert_eq!(
            comm_signature(&out.stats),
            comm_signature(&solo.stats),
            "a job racing other tenants must report its solo byte stats"
        );
        assert_eq!(out.ops_run, solo.ops_run);
    }
}

/// The sparse family under multi-tenancy: an ALS run — SpMM and SDDMM
/// jobs interleaved with dense Grams and transposes — racing other
/// tenants' jobs must produce factors, objective series, and per-job byte
/// stats bit-identical to its solo run.
#[test]
fn concurrent_als_matches_its_solo_run_bit_for_bit() {
    use distme_engine::{als, AlsConfig};
    let a = Arc::new(dense(80, 64, 5));
    let b = Arc::new(dense(64, 48, 6));
    let v = Arc::new(
        MatrixGenerator::with_seed(3)
            .value_range(1.0, 5.0)
            .generate(&MatrixMeta::sparse(96, 64, 0.2).with_block_size(16))
            .unwrap(),
    );
    let als_cfg = AlsConfig {
        factor_dim: 16,
        iterations: 2,
        lambda: 0.1,
    };
    let als_job = {
        let v = Arc::clone(&v);
        move |s: &mut distme_engine::TenantSession<'_>| {
            let res = als::run_real(s, &v, &als_cfg, 99)?;
            Ok((res.w, res.h, res.objective))
        }
    };
    let multiply_job = {
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        move |s: &mut distme_engine::TenantSession<'_>| s.matmul(&a, &b)
    };

    let solo = service()
        .submit(JobSpec::new(TenantId(1)), als_job.clone())
        .wait()
        .unwrap();

    // Two ALS runs race each other and a stream of dense multiplies.
    let svc = service();
    let h_als_a = svc.submit(JobSpec::new(TenantId(1)), als_job.clone());
    let h_mul_a = svc.submit(JobSpec::new(TenantId(2)).priority(1), multiply_job.clone());
    let h_als_b = svc.submit(JobSpec::new(TenantId(3)).priority(2), als_job.clone());
    let h_mul_b = svc.submit(JobSpec::new(TenantId(2)).priority(3), multiply_job);
    let als_a = h_als_a.wait().unwrap();
    h_mul_a.wait().unwrap();
    let als_b = h_als_b.wait().unwrap();
    h_mul_b.wait().unwrap();
    for out in [&als_a, &als_b] {
        let (w, h, objective) = &out.value;
        assert_eq!(
            fingerprint(w),
            fingerprint(&solo.value.0),
            "racing ALS must produce its solo W bytes"
        );
        assert_eq!(
            fingerprint(h),
            fingerprint(&solo.value.1),
            "racing ALS must produce its solo H bytes"
        );
        let bits = |o: &[f64]| o.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(objective), bits(&solo.value.2));
        assert_eq!(
            comm_signature(&out.stats),
            comm_signature(&solo.stats),
            "racing ALS must report its solo byte stats"
        );
        assert_eq!(out.ops_run, solo.ops_run);
    }
}

/// Four steps of `r ← links · r + teleport`: each a distributed multiply
/// followed by a distributed element-wise add.
fn rank_steps<S: Ops>(
    s: &mut S,
    links: &BlockMatrix,
    teleport: &BlockMatrix,
) -> Result<BlockMatrix, JobError> {
    let mut r = teleport.clone();
    for _ in 0..4 {
        let walked = s.matmul(links, &r)?;
        r = s.elementwise(&walked, EwOp::Add, teleport)?;
    }
    Ok(r)
}

/// `(XᵀX) + (XᵀX)`: transpose, multiply and element-wise in one job.
fn gram_plus<S: Ops>(s: &mut S, x: &BlockMatrix) -> Result<BlockMatrix, JobError> {
    let gram = |s: &mut S| {
        let xt = s.transpose(x)?;
        s.matmul(&xt, x)
    };
    let (a, b) = (gram(s)?, gram(s)?);
    s.elementwise(&a, EwOp::Add, &b)
}

/// Anything written against `Ops` runs under the service: an iterative
/// sparse multiply and a transpose–multiply–add sequence submitted as jobs
/// produce the bytes and byte stats of the same calls on a solo
/// `RealSession`.
#[test]
fn ops_sequences_match_a_solo_real_session() {
    let links = Arc::new(
        MatrixGenerator::with_seed(8)
            .value_range(0.0, 0.05)
            .generate(&MatrixMeta::sparse(64, 64, 0.3).with_block_size(16))
            .unwrap(),
    );
    let teleport = Arc::new(dense(64, 1, 10));
    let x = Arc::new(dense(48, 64, 9));

    let mut solo = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
    let solo_rank = rank_steps(&mut solo, &links, &teleport).unwrap();
    let (solo_rank_stats, solo_rank_ops) = (*solo.stats(), solo.ops_run());
    solo.reset_stats();
    let solo_gram = gram_plus(&mut solo, &x).unwrap();

    let svc = service();
    let rank_job = svc.submit(JobSpec::new(TenantId(1)).priority(1), move |s| {
        rank_steps(s, &links, &teleport)
    });
    let gram_job = svc.submit(JobSpec::new(TenantId(2)), move |s| gram_plus(s, &x));
    let rank = rank_job.wait().unwrap();
    let gram = gram_job.wait().unwrap();
    assert_eq!(fingerprint(&rank.value), fingerprint(&solo_rank));
    assert_eq!(
        comm_signature(&rank.stats),
        comm_signature(&solo_rank_stats)
    );
    assert_eq!(rank.ops_run, solo_rank_ops);
    assert_eq!(fingerprint(&gram.value), fingerprint(&solo_gram));
    assert_eq!(comm_signature(&gram.stats), comm_signature(solo.stats()));
    assert_eq!(gram.ops_run, solo.ops_run());
}

#[test]
fn per_tenant_ledger_deltas_sum_to_the_cluster_total() {
    // The cluster's total is every finished job's stats; the tenants'
    // entries partition it — each job lands in exactly one.
    let a = Arc::new(dense(80, 64, 11));
    let b = Arc::new(dense(64, 48, 12));
    let svc = service();
    let handles: Vec<_> = (0..6u32)
        .map(|i| {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            svc.submit(
                JobSpec::new(TenantId(1 + i % 3)).priority(i as u8 % 4),
                move |s| s.matmul(&a, &b),
            )
        })
        .collect();
    let mut total = JobStats::default();
    for h in handles {
        total.merge(&h.wait().unwrap().stats);
    }
    let tenants = svc.tenants();
    assert_eq!(tenants, vec![TenantId(1), TenantId(2), TenantId(3)]);
    let summed = tenants.iter().fold(JobStats::default(), |mut acc, &t| {
        acc.merge(&svc.tenant_stats(t));
        acc
    });
    assert_eq!(
        phase_bytes(&summed),
        phase_bytes(&total),
        "per-tenant attribution must account for every job's bytes"
    );
    for t in tenants {
        assert!(svc.tenant_stats(t).phase(Phase::Repartition).shuffle_bytes > 0);
    }
}

#[test]
fn tenant_stats_are_the_sum_of_that_tenants_jobs() {
    // Three tenants, each with jobs of its own shapes, all in flight at
    // once: a tenant's entry is exactly what its jobs returned, whatever
    // order they finished in. A resize then lands under ANONYMOUS alone.
    let svc = service();
    let mut handles = Vec::new();
    for (tenant, (m, k, n)) in [(1, (80, 64, 48)), (2, (48, 96, 32)), (3, (64, 32, 80))] {
        let a = Arc::new(dense(m, k, 20 + tenant));
        let b = Arc::new(dense(k, n, 30 + tenant));
        for round in 0..3 {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            let spec = JobSpec::new(TenantId(tenant as u32)).priority(round);
            handles.push(svc.submit(spec, move |s| {
                let c = s.matmul(&a, &b)?;
                if round == 2 {
                    let bt = s.transpose(&b)?;
                    s.matmul(&c, &bt)?;
                }
                Ok(())
            }));
        }
    }
    let mut by_tenant: BTreeMap<TenantId, JobStats> = BTreeMap::new();
    for h in handles {
        let out = h.wait().unwrap();
        by_tenant.entry(out.tenant).or_default().merge(&out.stats);
    }
    assert_eq!(svc.tenants(), by_tenant.keys().copied().collect::<Vec<_>>());
    for (&t, jobs) in &by_tenant {
        assert!(jobs.communication_bytes() > 0, "{t}");
        assert_eq!(phase_bytes(&svc.tenant_stats(t)), phase_bytes(jobs), "{t}");
    }

    let report = svc.scale_to(6).expect("grow");
    assert!(report.payload_bytes > 0, "resident results migrate");
    assert_eq!(
        phase_bytes(&svc.tenant_stats(TenantId::ANONYMOUS)),
        phase_bytes(&report.stats)
    );
    for (&t, jobs) in &by_tenant {
        assert_eq!(phase_bytes(&svc.tenant_stats(t)), phase_bytes(jobs), "{t}");
    }
}

#[test]
fn a_tenants_transpose_is_charged_to_that_tenant() {
    // MatFast does not reuse partitioning, so its transpose is a shuffle:
    // one pass over the matrix, and the tenant's like any job's bytes.
    let svc = JobService::new(ClusterConfig::laptop(), SystemProfile::MatFast);
    let x = Arc::new(dense(80, 48, 13));
    let one_pass: u64 = x.blocks().map(|(_, blk)| codec::encoded_len(blk)).sum();
    let tenant = TenantId(7);
    let job = svc.submit(JobSpec::new(tenant), {
        let x = Arc::clone(&x);
        move |s| s.transpose(&x)
    });
    let out = job.wait().unwrap();
    assert_eq!(fingerprint(&out.value), fingerprint(&x.transpose()));
    let charged = svc.tenant_stats(tenant);
    assert_eq!(charged.phase(Phase::Repartition).shuffle_bytes, one_pass);
    assert_eq!(phase_bytes(&charged), phase_bytes(&out.stats));
    assert_eq!(svc.tenants(), vec![tenant], "nothing under ANONYMOUS");
}

fn tight_budget_config(budget: u64, queue_depth: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::laptop();
    cfg.scheduler.admission_budget_bytes = budget;
    cfg.scheduler.queue_depth = queue_depth;
    cfg
}

/// A job that parks holding its admission until `gate` flips, then
/// returns — the tool for freezing the admission controller mid-state.
fn gated_job(
    gate: Arc<AtomicBool>,
) -> impl FnOnce(&mut distme_engine::TenantSession<'_>) -> Result<u32, JobError> + Send + 'static {
    move |_s| {
        while !gate.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(7)
    }
}

#[test]
fn over_budget_submission_queues_and_memory_stays_bounded() {
    let budget = 100;
    let svc = JobService::new(tight_budget_config(budget, 8), SystemProfile::DistMe);
    let gate = Arc::new(AtomicBool::new(false));

    let first = svc.submit(
        JobSpec::new(TenantId(1)).demand_bytes(80),
        gated_job(Arc::clone(&gate)),
    );
    spin_until(Duration::from_secs(10), || {
        first.status() == JobStatus::Running
    });

    // 80 + 80 > 100: the second submission must queue, not fail — and the
    // admitted resident demand must stay under the budget while it waits.
    let second = svc.submit(
        JobSpec::new(TenantId(2)).demand_bytes(80),
        gated_job(Arc::clone(&gate)),
    );
    spin_until(Duration::from_secs(10), || svc.load().queued_jobs == 1);
    assert_eq!(second.status(), JobStatus::Queued);
    let load = svc.load();
    assert_eq!(load.admitted_jobs, 1);
    assert!(
        load.admitted_mem_bytes <= budget,
        "admission control must bound concurrent resident memory: {} > {budget}",
        load.admitted_mem_bytes
    );

    // Capacity frees → the queued job is admitted and completes.
    gate.store(true, Ordering::SeqCst);
    assert_eq!(first.wait().unwrap().value, 7);
    let out = second.wait().unwrap();
    assert_eq!(out.value, 7);
    assert!(
        out.queue_wait_secs > 0.0,
        "the queued job must report its admission wait"
    );
    assert_eq!(svc.load().admitted_jobs, 0);
    assert_eq!(svc.queue_wait_stats().submissions, 2);
}

#[test]
fn a_full_submission_queue_rejects_with_queue_full() {
    // Depth 1: one job running (holding the whole budget), one queued —
    // the third submission must be rejected, annotated Q.F.
    let svc = JobService::new(tight_budget_config(100, 1), SystemProfile::DistMe);
    let gate = Arc::new(AtomicBool::new(false));
    let first = svc.submit(
        JobSpec::new(TenantId(1)).demand_bytes(100),
        gated_job(Arc::clone(&gate)),
    );
    spin_until(Duration::from_secs(10), || {
        first.status() == JobStatus::Running
    });
    let second = svc.submit(
        JobSpec::new(TenantId(2)).demand_bytes(100),
        gated_job(Arc::clone(&gate)),
    );
    spin_until(Duration::from_secs(10), || svc.load().queued_jobs == 1);
    let third = svc.submit(
        JobSpec::new(TenantId(3)).demand_bytes(100),
        gated_job(Arc::clone(&gate)),
    );
    spin_until(Duration::from_secs(10), || {
        third.status() == JobStatus::Failed
    });
    let err = third.wait().unwrap_err();
    assert_eq!(err.annotation(), "Q.F.");

    gate.store(true, Ordering::SeqCst);
    first.wait().unwrap();
    second.wait().unwrap();
}

#[test]
fn a_panicking_job_fails_only_its_own_handle() {
    let a = Arc::new(dense(80, 64, 5));
    let b = Arc::new(dense(64, 48, 6));
    let multiply = |a: Arc<BlockMatrix>, b: Arc<BlockMatrix>| {
        move |s: &mut distme_engine::TenantSession<'_>| s.matmul(&a, &b)
    };
    let solo = service()
        .submit(
            JobSpec::new(TenantId(2)),
            multiply(Arc::clone(&a), Arc::clone(&b)),
        )
        .wait()
        .unwrap();

    // The doomed job holds 80 of the budget's 100 bytes, runs an operator,
    // then parks until its neighbour is mid-job — so the panic strikes
    // while another tenant's stages share the pool.
    let svc = JobService::new(tight_budget_config(100, 8), SystemProfile::DistMe);
    let neighbour_running = Arc::new(AtomicBool::new(false));
    let doomed = svc.submit(JobSpec::new(TenantId(1)).demand_bytes(80), {
        let (a, b, go) = (
            Arc::clone(&a),
            Arc::clone(&b),
            Arc::clone(&neighbour_running),
        );
        move |s: &mut distme_engine::TenantSession<'_>| -> Result<(), JobError> {
            s.matmul(&a, &b)?;
            while !go.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            panic!("tenant bug")
        }
    });
    spin_until(Duration::from_secs(10), || {
        doomed.status() == JobStatus::Running
    });
    let neighbour = svc.submit(JobSpec::new(TenantId(2)), {
        let (go, job) = (
            Arc::clone(&neighbour_running),
            multiply(Arc::clone(&a), Arc::clone(&b)),
        );
        move |s: &mut distme_engine::TenantSession<'_>| {
            go.store(true, Ordering::SeqCst);
            job(s)
        }
    });

    // The handle fails instead of blocking forever on a dead driver thread.
    spin_until(Duration::from_secs(10), || {
        doomed.status() == JobStatus::Failed
    });
    let err = doomed.wait().unwrap_err();
    assert!(
        matches!(&err, JobError::Panicked { message } if message == "tenant bug"),
        "got: {err:?}"
    );

    let out = neighbour.wait().unwrap();
    assert_eq!(fingerprint(&out.value), fingerprint(&solo.value));
    assert_eq!(comm_signature(&out.stats), comm_signature(&solo.stats));

    // The admission ticket came back: 80 more bytes fit only if the
    // panicked job's 80 were released.
    let next = svc.submit(
        JobSpec::new(TenantId(3)).demand_bytes(80),
        multiply(Arc::clone(&a), Arc::clone(&b)),
    );
    spin_until(Duration::from_secs(10), || {
        next.status() == JobStatus::Finished
    });
    assert_eq!(
        fingerprint(&next.wait().unwrap().value),
        fingerprint(&solo.value)
    );
    assert_eq!(svc.load().admitted_mem_bytes, 0);
}

/// A panic inside one job's *task* — on whichever pool thread ran it —
/// fails that job with a typed error naming the task; a neighbour's
/// multiplies, running beside it and after it on the same threads, keep
/// their solo bytes.
#[test]
fn a_panicking_task_fails_only_its_own_job() {
    let a = Arc::new(dense(80, 64, 5));
    let b = Arc::new(dense(64, 48, 6));
    let solo = {
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        service()
            .submit(JobSpec::new(TenantId(2)), move |s| s.matmul(&a, &b))
            .wait()
            .unwrap()
    };

    let svc = service();
    let neighbour_started = Arc::new(AtomicBool::new(false));
    let doomed_done = Arc::new(AtomicBool::new(false));
    let doomed = svc.submit(JobSpec::new(TenantId(1)), {
        let (started, done) = (Arc::clone(&neighbour_started), Arc::clone(&doomed_done));
        move |s: &mut distme_engine::TenantSession<'_>| -> Result<(), JobError> {
            while !started.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let run = s
                .cluster()
                .run_stage(s.tenant(), 0, 16, (0..16).collect(), |ctx, _| {
                    if ctx.task == 3 {
                        panic!("tenant task bug");
                    }
                    Ok(ctx.task)
                });
            done.store(true, Ordering::SeqCst);
            run.map(drop)
        }
    });
    let neighbour = svc.submit(JobSpec::new(TenantId(2)), {
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        let (started, done) = (Arc::clone(&neighbour_started), Arc::clone(&doomed_done));
        move |s: &mut distme_engine::TenantSession<'_>| {
            started.store(true, Ordering::SeqCst);
            let mut products = Vec::new();
            // Until the panic is over, and once more after it.
            loop {
                let finished = done.load(Ordering::SeqCst);
                products.push(fingerprint(&s.matmul(&a, &b)?));
                if finished {
                    return Ok(products);
                }
            }
        }
    });

    let err = doomed.wait().unwrap_err();
    assert!(
        matches!(&err, JobError::Panicked { message } if message == "task 3: tenant task bug"),
        "got: {err:?}"
    );
    for product in neighbour.wait().unwrap().value {
        assert_eq!(product, fingerprint(&solo.value));
    }
}

/// Residency follows the handle under concurrency: while one tenant's job
/// holds its operands and a first product, other tenants' jobs start —
/// each sweeping dropped matrices out of the shared stores — and drop
/// their results. The long job's matrices stay, its products keep their
/// solo bytes, and the others' dropped results leave.
#[test]
fn a_long_jobs_matrices_stay_resident_while_other_tenants_drop_results() {
    let a = Arc::new(dense(80, 64, 5));
    let b = Arc::new(dense(64, 48, 6));
    let solo = service()
        .submit(JobSpec::new(TenantId(1)), {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            move |s| s.matmul(&a, &b)
        })
        .wait()
        .unwrap();

    let svc = service();
    let (first_done, others_done) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let long = svc.submit(JobSpec::new(TenantId(1)), {
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        let (first_done, others_done) = (Arc::clone(&first_done), Arc::clone(&others_done));
        move |s: &mut distme_engine::TenantSession<'_>| {
            let resident_keys = |s: &distme_engine::TenantSession<'_>, uids: &[u64]| {
                let all = s.cluster().stores().resident_keys();
                all.into_keys()
                    .filter(|k| uids.contains(&k.matrix))
                    .collect::<Vec<_>>()
            };
            let first = s.matmul(&a, &b)?;
            let mine = [a.uid(), b.uid(), first.uid()];
            let before = resident_keys(s, &mine);
            first_done.store(true, Ordering::SeqCst);
            while !others_done.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let during = resident_keys(s, &mine);
            let second = s.matmul(&a, &b)?;
            let resident = s.cluster().stores().resident_keys();
            Ok((before, during, first, second, resident))
        }
    });
    spin_until(Duration::from_secs(10), || {
        first_done.load(Ordering::SeqCst)
    });

    let others: Vec<_> = (2..5u32)
        .map(|t| {
            let (x, y) = (
                dense(64, 48, 30 + u64::from(t)),
                dense(48, 32, 40 + u64::from(t)),
            );
            svc.submit(JobSpec::new(TenantId(t)), move |s| {
                let mut dropped = Vec::new();
                for _ in 0..2 {
                    dropped.push(s.matmul(&x, &y)?.uid());
                }
                Ok(dropped)
            })
        })
        .collect();
    let dropped: Vec<u64> = others
        .into_iter()
        .flat_map(|h| h.wait().unwrap().value)
        .collect();
    others_done.store(true, Ordering::SeqCst);

    let (before, during, first, second, resident) = long.wait().unwrap().value;
    assert!(!before.is_empty());
    assert_eq!(
        during, before,
        "other tenants' jobs evicted a live job's matrices"
    );
    assert_eq!(fingerprint(&first), fingerprint(&solo.value));
    assert_eq!(fingerprint(&second), fingerprint(&solo.value));
    assert!(
        resident.keys().all(|k| !dropped.contains(&k.matrix)),
        "a dropped result outlived the next job's prologue"
    );
}

#[test]
fn scaling_the_service_to_zero_nodes_is_refused_with_nothing_changed() {
    let svc = service();
    let err = svc.scale_to(0).unwrap_err();
    assert_eq!(err.annotation(), "INV");
    assert_eq!((svc.epoch(), svc.config().nodes), (0, 4));
    assert!(svc.tenants().is_empty(), "no resize was attributed");
    // The cluster still runs jobs.
    let a = Arc::new(dense(32, 32, 1));
    let h = svc.submit(JobSpec::new(TenantId(1)), move |s| s.matmul(&a, &a));
    h.wait().unwrap();
}

#[test]
fn an_out_of_range_priority_fails_the_handle() {
    let svc = service();
    let levels = svc.config().scheduler.priority_levels;
    let h = svc.submit(
        JobSpec::new(TenantId(1)).priority(levels),
        |_s: &mut distme_engine::TenantSession<'_>| Ok(0u8),
    );
    let err = h.wait().unwrap_err();
    assert_eq!(err.annotation(), "INV");
}

#[test]
fn the_shared_plan_cache_plans_identical_jobs_once() {
    let a = Arc::new(dense(80, 64, 21));
    let b = Arc::new(dense(64, 48, 22));
    let svc = service();
    let handles: Vec<_> = (0..4u32)
        .map(|i| {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            svc.submit(JobSpec::new(TenantId(1 + i)), move |s| s.matmul(&a, &b))
        })
        .collect();
    for h in handles {
        h.wait().unwrap();
    }
    let st = svc.plan_cache_stats();
    assert_eq!(
        st.misses, 1,
        "four identical jobs across tenants must share one plan"
    );
    assert_eq!(st.hits, 3);
}
