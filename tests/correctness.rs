//! Cross-crate correctness: every distributed method must compute exactly
//! the product the single-node reference computes, for arbitrary shapes,
//! block sizes, sparsities, and cuboid parameters — the invariant that
//! makes the simulated results meaningful.

use distme::prelude::*;
use proptest::prelude::*;

fn generate(rows: u64, cols: u64, bs: u64, sparsity: f64, seed: u64) -> BlockMatrix {
    let meta = MatrixMeta::sparse(rows, cols, sparsity).with_block_size(bs);
    MatrixGenerator::with_seed(seed)
        .generate(&meta)
        .expect("generation succeeds")
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// For any problem and any *explicit* (P, Q, R), CuboidMM equals the
    /// reference product (§3.1's central soundness requirement).
    #[test]
    fn cuboid_partitioning_never_changes_the_product(
        i in 1u64..6,
        j in 1u64..6,
        k in 1u64..6,
        p in 1u32..4,
        q in 1u32..4,
        r in 1u32..4,
        sparsity in prop_oneof![Just(1.0f64), 0.05f64..0.9],
        seed in 0u64..1000,
    ) {
        let bs = 16u64;
        let a = generate(i * bs, k * bs, bs, sparsity, seed);
        let b = generate(k * bs, j * bs, bs, sparsity, seed ^ 0xFFFF);
        let reference = a.multiply(&b).expect("reference");
        let cluster = LocalCluster::new(ClusterConfig::laptop());
        let spec = CuboidSpec::new(p.min(i as u32), q.min(j as u32), r.min(k as u32));
        let (c, _) = real_exec::multiply(&cluster, &a, &b, MulMethod::Cuboid(spec))
            .expect("multiply succeeds");
        let diff = c.max_abs_diff(&reference).expect("same shape");
        prop_assert!(diff < 1e-9, "spec {spec}: diff {diff}");
    }

    /// BMM, CPMM, RMM, CRMM, and the auto-optimized CuboidMM all agree.
    #[test]
    fn all_methods_agree(
        i in 1u64..5,
        j in 1u64..5,
        k in 1u64..5,
        sparsity in prop_oneof![Just(1.0f64), 0.1f64..0.8],
        seed in 0u64..1000,
    ) {
        let bs = 16u64;
        let a = generate(i * bs + 3, k * bs + 5, bs, sparsity, seed);
        let b = generate(k * bs + 5, j * bs + 1, bs, sparsity, seed ^ 0xABC);
        let reference = a.multiply(&b).expect("reference");
        let cluster = LocalCluster::new(ClusterConfig::laptop());
        for method in [
            MulMethod::Bmm,
            MulMethod::Cpmm,
            MulMethod::Rmm,
            MulMethod::Crmm,
            MulMethod::CuboidAuto,
        ] {
            let (c, _) = real_exec::multiply(&cluster, &a, &b, method)
                .expect("multiply succeeds");
            let diff = c.max_abs_diff(&reference).expect("same shape");
            prop_assert!(diff < 1e-9, "{}: diff {diff}", method.name());
        }
    }

    /// Algorithm 1's GPU schedule is θg-invariant: any feasible device
    /// budget yields the same product.
    #[test]
    fn gpu_schedule_is_theta_g_invariant(
        budget_blocks in 4u64..40,
        seed in 0u64..1000,
    ) {
        let bs = 16u64;
        let a = generate(4 * bs, 6 * bs, bs, 1.0, seed);
        let b = generate(6 * bs, 3 * bs, bs, 1.0, seed ^ 0x5A5A);
        let reference = a.multiply(&b).expect("reference");
        let theta_g = budget_blocks * 8 * bs * bs;
        let cluster = LocalCluster::new(ClusterConfig {
            gpu: Some(distme::gpu::GpuConfig::tiny(theta_g)),
            ..ClusterConfig::laptop()
        });
        let (c, _) = real_exec::multiply(&cluster, &a, &b, MulMethod::CuboidAuto)
            .expect("multiply succeeds");
        let diff = c.max_abs_diff(&reference).expect("same shape");
        prop_assert!(diff < 1e-9, "θg = {theta_g}: diff {diff}");
    }

    /// Engine laws: (A·B)ᵀ = Bᵀ·Aᵀ and A ∗ B / B = A on B's support,
    /// through the distributed engine.
    #[test]
    fn engine_algebraic_laws(
        n in 2u64..5,
        seed in 0u64..1000,
    ) {
        let bs = 16u64;
        let a = generate(n * bs, n * bs, bs, 1.0, seed);
        let b = generate(n * bs, n * bs, bs, 1.0, seed ^ 0x77);
        let mut s = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        let ab = s.matmul(&a, &b).expect("A x B");
        let ab_t = s.transpose(&ab).expect("(AB)t");
        let bt_at = {
            let bt = s.transpose(&b).expect("Bt");
            let at = s.transpose(&a).expect("At");
            s.matmul(&bt, &at).expect("Bt x At")
        };
        prop_assert!(ab_t.max_abs_diff(&bt_at).expect("same shape") < 1e-9);

        let prod = s.elementwise(&a, EwOp::Mul, &b).expect("hadamard");
        let back = s.elementwise(&prod, EwOp::Div, &b).expect("divide");
        // a*b/b == a wherever b != 0 (sparse-safe division yields 0 there).
        for i in 0..n * bs {
            for j in 0..n * bs {
                let expect = if b.get_element(i, j) == 0.0 { 0.0 } else { a.get_element(i, j) };
                prop_assert!((back.get_element(i, j) - expect).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn identity_multiplication_through_every_method() {
    let bs = 16u64;
    let n = 4 * bs;
    let a = generate(n, n, bs, 0.5, 42);
    // Block-diagonal identity.
    let mut id = BlockMatrix::new(MatrixMeta::dense(n, n).with_block_size(bs));
    for bi in 0..(n / bs) as u32 {
        id.put(bi, bi, Block::Dense(DenseBlock::identity(bs as usize)))
            .expect("in grid");
    }
    let cluster = LocalCluster::new(ClusterConfig::laptop());
    for method in [
        MulMethod::Bmm,
        MulMethod::Cpmm,
        MulMethod::Rmm,
        MulMethod::CuboidAuto,
    ] {
        let (c, _) = real_exec::multiply(&cluster, &a, &id, method).expect("multiply");
        assert!(
            c.max_abs_diff(&a).expect("same shape") < 1e-12,
            "{} broke identity",
            method.name()
        );
    }
}
