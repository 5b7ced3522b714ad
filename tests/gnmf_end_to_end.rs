//! GNMF end-to-end: the real factorization's numeric guarantees and the
//! engine's behaviour across profiles and execution modes.

use distme::prelude::*;
use proptest::prelude::*;

fn rating_matrix(users: u64, items: u64, density: f64, seed: u64) -> BlockMatrix {
    let meta = MatrixMeta::sparse(users, items, density).with_block_size(16);
    MatrixGenerator::with_seed(seed)
        .value_range(1.0, 5.0)
        .generate(&meta)
        .expect("generation succeeds")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The multiplicative-update objective never increases, for arbitrary
    /// rating matrices, ranks, and seeds (Lee & Seung's guarantee, which
    /// the engine's distributed operators must preserve).
    #[test]
    fn objective_monotone_for_arbitrary_inputs(
        users in 2u64..5,
        items in 2u64..5,
        density in 0.1f64..0.6,
        rank in 4u64..16,
        seed in 0u64..500,
    ) {
        let v = rating_matrix(users * 16, items * 16, density, seed);
        let mut s = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        let res = gnmf::run_real(
            &mut s,
            &v,
            &GnmfConfig { factor_dim: rank, iterations: 5 },
            seed,
        ).expect("gnmf runs");
        for w in res.objective.windows(2) {
            prop_assert!(w[1] <= w[0] * (1.0 + 1e-9), "objective rose: {:?}", res.objective);
        }
    }

    /// Every system profile computes the same factorization (they differ
    /// only in planning, never in results).
    #[test]
    fn profiles_agree_on_the_factorization(seed in 0u64..200) {
        let v = rating_matrix(64, 48, 0.3, seed);
        let cfg = GnmfConfig { factor_dim: 8, iterations: 3 };
        let mut reference: Option<Vec<f64>> = None;
        for profile in SystemProfile::ALL {
            let mut s = RealSession::new(ClusterConfig::laptop(), profile);
            let res = gnmf::run_real(&mut s, &v, &cfg, seed).expect("gnmf runs");
            match &reference {
                None => reference = Some(res.objective.clone()),
                Some(expect) => {
                    for (a, b) in expect.iter().zip(res.objective.iter()) {
                        prop_assert!(
                            (a - b).abs() < 1e-6 * a.max(1.0),
                            "{} diverged: {a} vs {b}",
                            profile.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn simulated_gnmf_scales_with_dataset_size() {
    // Larger Table 3 datasets take longer per iteration, in order.
    let mut totals = Vec::new();
    for dataset in &RatingDataset::ALL {
        let mut cfg = ClusterConfig::paper_cluster_gpu().with_timeout(f64::MAX);
        cfg.wire_compression_ratio = 0.5;
        let report = gnmf::simulate(
            cfg,
            SystemProfile::DistMe,
            dataset,
            &GnmfConfig {
                factor_dim: 200,
                iterations: 2,
            },
        )
        .expect("runs");
        totals.push((dataset.name, report.total_secs()));
    }
    assert!(
        totals[0].1 < totals[2].1,
        "MovieLens must be faster than YahooMusic: {totals:?}"
    );
}

#[test]
fn expression_api_builds_one_gnmf_numerator() {
    // The Wᵀ V piece of the H update through the expression API — two
    // `Ops` calls, transpose then multiply — evaluated in both modes.
    fn numerator<M, S: Ops<M>>(s: &mut S, w: &M, v: &M) -> Result<M, JobError> {
        let wt = s.transpose(w)?;
        s.matmul(&wt, v)
    }
    let v = rating_matrix(64, 48, 0.3, 3);
    let w_meta = MatrixMeta::dense(64, 16).with_block_size(16);
    let w = MatrixGenerator::with_seed(9)
        .value_range(0.1, 1.0)
        .generate(&w_meta)
        .expect("gen W");

    // Real evaluation.
    let expect = w.transpose().multiply(&v).expect("reference");
    let mut real = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
    let got = numerator(&mut real, &w, &v).expect("evaluates");
    assert!(got.max_abs_diff(&expect).expect("same shape") < 1e-9);

    // Simulated evaluation at paper scale.
    let mut sim = SimSession::new(
        ClusterConfig::paper_cluster_gpu().with_timeout(f64::MAX),
        SystemProfile::DistMe,
    );
    let out = numerator(
        &mut sim,
        &MatrixMeta::dense(1_823_179, 200),
        &RatingDataset::YAHOO_MUSIC.meta(),
    )
    .expect("simulates");
    assert_eq!((out.rows, out.cols), (200, 136_736));
    assert!(sim.stats().elapsed_secs > 0.0);
}

#[test]
fn gnmf_recovers_bit_identically_under_transport_faults() {
    // A whole multi-operator algorithm under a lossy transport: every
    // matmul of every iteration runs with ~1% of deliveries dropped and
    // occasional task crashes. Lineage redelivery and task retry must
    // reproduce the fault-free factors to the last bit.
    use distme::cluster::FaultSpec;
    let v = rating_matrix(64, 48, 0.3, 7);
    let cfg = GnmfConfig {
        factor_dim: 8,
        iterations: 3,
    };

    let mut clean = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
    let clean_res = gnmf::run_real(&mut clean, &v, &cfg, 7).expect("clean gnmf");

    let mut faulted = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
    let plan = faulted.inject_faults(FaultSpec {
        seed: 5,
        drop_rate: 0.01,
        corrupt_rate: 0.005,
        crash_rate: 0.01,
        blackouts: Vec::new(),
    });
    let faulted_res = gnmf::run_real(&mut faulted, &v, &cfg, 7).expect("faulted gnmf recovers");

    assert!(
        plan.dropped() > 0,
        "the schedule must drop at least one delivery"
    );
    assert!(faulted.stats().retries > 0, "tasks must have been re-run");
    assert!(faulted.stats().redelivered_moves > 0);
    assert_eq!(
        faulted_res.w.max_abs_diff(&clean_res.w).unwrap(),
        0.0,
        "W diverged under faults"
    );
    assert_eq!(
        faulted_res.h.max_abs_diff(&clean_res.h).unwrap(),
        0.0,
        "H diverged under faults"
    );
    assert_eq!(clean.stats().retries, 0);
}

#[test]
fn gnmf_handles_empty_rows_and_columns() {
    // Users with no ratings / items nobody rated must not break the
    // updates (their factor rows simply stay put or go to zero).
    let meta = MatrixMeta::sparse(48, 48, 0.0).with_block_size(16);
    let mut v = BlockMatrix::new(meta);
    // One lonely rating.
    v.put(0, 0, {
        let mut d = DenseBlock::zeros(16, 16);
        d.set(3, 5, 4.0);
        Block::Dense(d).normalize()
    })
    .expect("in grid");
    let mut s = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
    let res = gnmf::run_real(
        &mut s,
        &v,
        &GnmfConfig {
            factor_dim: 4,
            iterations: 3,
        },
        1,
    )
    .expect("gnmf runs");
    assert!(res.objective.iter().all(|o| o.is_finite()));
}

#[test]
fn a_session_on_a_gpu_cluster_returns_the_cpu_clusters_bits() {
    // θg comes from the cluster config, so Algorithm 1's subcuboid walk is
    // reachable from the engine's front door. A budget of four blocks
    // admits single-voxel subcuboids only (A + B + C block = 3), so every
    // cuboid with more than one voxel is split — and no bit may move.
    let bs = 16u64;
    let generate = |rows, cols, seed| {
        MatrixGenerator::with_seed(seed)
            .generate(&MatrixMeta::dense(rows * bs, cols * bs).with_block_size(bs))
            .expect("generation succeeds")
    };
    let (a, b) = (generate(6, 5, 1), generate(5, 4, 2));
    let v = rating_matrix(64, 48, 0.3, 7);
    let gnmf_cfg = GnmfConfig {
        factor_dim: 8,
        iterations: 2,
    };
    let bits = |m: &BlockMatrix| -> Vec<_> {
        m.blocks()
            .map(|(id, blk)| {
                let dense = blk.to_dense();
                let bits: Vec<u64> = dense.data().iter().map(|x| x.to_bits()).collect();
                (id, bits)
            })
            .collect()
    };
    let run = |cfg: ClusterConfig| {
        let mut s = RealSession::new(cfg, SystemProfile::DistMe);
        let prod = s.matmul(&a, &b).expect("matmul");
        let res = gnmf::run_real(&mut s, &v, &gnmf_cfg, 7).expect("gnmf runs");
        (bits(&prod), bits(&res.w), bits(&res.h))
    };
    let with_theta_g = |blocks: u64| ClusterConfig {
        gpu: Some(distme::gpu::GpuConfig::tiny(blocks * 8 * bs * bs)),
        ..ClusterConfig::laptop()
    };
    let on_cpu = run(ClusterConfig::laptop());
    assert!(
        run(with_theta_g(4)) == on_cpu,
        "matmul / W / H bits moved under θg"
    );
    // The budget really reaches the loop: below one voxel nothing fits.
    let starved = RealSession::new(with_theta_g(2), SystemProfile::DistMe)
        .matmul(&a, &b)
        .unwrap_err();
    assert_eq!(starved.annotation(), "O.O.M.");
}
