//! Property-based tests over the matrix substrate: structural invariants
//! and algebraic laws that must hold for arbitrary inputs.

use distme_matrix::elementwise::{ew, EwOp};
use distme_matrix::kernels;
use distme_matrix::kernels::gemm::{gemm, gemm_tn};
use distme_matrix::kernels::{spgemm, spmm};
use distme_matrix::{codec, Block, CsrBlock, DenseBlock, MatrixGenerator, MatrixMeta};
use proptest::prelude::*;

/// Strategy: an arbitrary dense block up to 24 x 24.
fn dense_block() -> impl Strategy<Value = DenseBlock> {
    (1usize..24, 1usize..24, any::<u64>()).prop_map(|(r, c, seed)| {
        let mut state = seed | 1;
        DenseBlock::from_fn(r, c, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 2000) as f64 / 100.0 - 10.0
        })
    })
}

/// Strategy: an arbitrary sparse block up to 24 x 24.
fn sparse_block() -> impl Strategy<Value = CsrBlock> {
    (1usize..24, 1usize..24, any::<u64>(), 1usize..6).prop_map(|(r, c, seed, every)| {
        let mut state = seed | 1;
        let mut trips = Vec::new();
        for i in 0..r {
            for j in 0..c {
                state = state
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493);
                if ((state >> 33) as usize).is_multiple_of(every) {
                    trips.push((i, j, ((state >> 40) % 19) as f64 - 9.0));
                }
            }
        }
        CsrBlock::from_triplets(r, c, trips).expect("valid triplets")
    })
}

/// Seeded dense block of an exact shape (for dimension-matched operands).
fn seeded_dense(rows: usize, cols: usize, seed: u64) -> DenseBlock {
    let mut state = seed | 1;
    DenseBlock::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((state >> 33) % 2000) as f64 / 100.0 - 10.0
    })
}

/// Seeded sparse block of an exact shape; `every == 0` yields an empty
/// (all-implicit-zero) block.
fn seeded_sparse(rows: usize, cols: usize, every: usize, seed: u64) -> CsrBlock {
    if every == 0 {
        return CsrBlock::empty(rows, cols);
    }
    let mut state = seed | 1;
    let mut trips = Vec::new();
    for i in 0..rows {
        for j in 0..cols {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            if ((state >> 33) as usize).is_multiple_of(every) {
                trips.push((i, j, ((state >> 40) % 19) as f64 - 9.0));
            }
        }
    }
    CsrBlock::from_triplets(rows, cols, trips).expect("valid triplets")
}

/// Strategy: GEMM shapes that stress the packed kernel's blocking edges —
/// dot products (1 × k × 1), tall/skinny and short/wide panels crossing the
/// MC = 128 cache block, deep k crossing the KC = 256 panel depth, general
/// small shapes, and ragged ones up to 70 × 300 × 70: two or three panels
/// plus a remainder along m and n for every register tile the dispatching
/// entry point may pick (8 × 24, 6 × 8, 8 × 4), across the KC edge.
fn gemm_shapes() -> impl Strategy<Value = (usize, usize, usize)> {
    prop_oneof![
        (Just(1usize), 1usize..500, Just(1usize)),
        (90usize..300, 1usize..6, 1usize..6),
        (1usize..6, 1usize..6, 90usize..300),
        (1usize..10, 200usize..300, 1usize..10),
        (1usize..40, 1usize..40, 1usize..40),
        (1usize..71, 1usize..301, 1usize..71),
    ]
}

/// Strategy: alpha/beta including the identity and annihilator special
/// cases alongside arbitrary scalars.
fn scalar() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1.0), Just(-1.0), -2.5f64..2.5]
}

/// Triple-loop reference for `alpha * a * b + beta * c0`.
fn naive_gemm(
    alpha: f64,
    a: &DenseBlock,
    b: &DenseBlock,
    beta: f64,
    c0: &DenseBlock,
) -> DenseBlock {
    DenseBlock::from_fn(c0.rows(), c0.cols(), |i, j| {
        let mut acc = 0.0;
        for p in 0..a.cols() {
            acc += a.get(i, p) * b.get(p, j);
        }
        alpha * acc + beta * c0.get(i, j)
    })
}

proptest! {
    #[test]
    fn packed_gemm_matches_naive(
        shape in gemm_shapes(),
        alpha in scalar(),
        beta in scalar(),
        seed in any::<u64>(),
    ) {
        let (m, k, n) = shape;
        let a = seeded_dense(m, k, seed);
        let b = seeded_dense(k, n, seed ^ 0xb10c);
        let c0 = seeded_dense(m, n, seed ^ 0xacc);
        let mut c = c0.clone();
        gemm(alpha, &a, &b, beta, &mut c).expect("shapes match");
        let expect = naive_gemm(alpha, &a, &b, beta, &c0);
        // |values| <= 10, so a k-deep dot is <= 100k; 1e-6 absolute leaves
        // ample room for reassociation error at k = 500.
        prop_assert!(c.max_abs_diff(&expect).expect("same shape") < 1e-6);
    }

    #[test]
    fn packed_gemm_tn_matches_naive(
        shape in gemm_shapes(),
        alpha in scalar(),
        beta in scalar(),
        seed in any::<u64>(),
    ) {
        let (m, k, n) = shape;
        // `a` is stored k × m; gemm_tn multiplies by its transpose.
        let a = seeded_dense(k, m, seed);
        let b = seeded_dense(k, n, seed ^ 0xb10c);
        let c0 = seeded_dense(m, n, seed ^ 0xacc);
        let mut c = c0.clone();
        gemm_tn(alpha, &a, &b, beta, &mut c).expect("shapes match");
        let at = a.transpose();
        let expect = naive_gemm(alpha, &at, &b, beta, &c0);
        prop_assert!(c.max_abs_diff(&expect).expect("same shape") < 1e-6);
    }

    #[test]
    fn decode_never_panics_on_arbitrary_bytes(len in 0usize..512, seed in any::<u64>()) {
        let mut state = seed | 1;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
                (state >> 33) as u8
            })
            .collect();
        // Arbitrary garbage must produce Ok or Err, never a panic.
        let _ = codec::decode_slice(&bytes);
    }

    #[test]
    fn decode_never_panics_on_corrupted_encodings(
        s in sparse_block(),
        pos in any::<usize>(),
        bit in 0u32..8,
    ) {
        let bytes = codec::encode(&Block::Sparse(s));
        let mut v = bytes.to_vec();
        let i = pos % v.len();
        v[i] ^= 1 << bit;
        // A single flipped bit may still decode (value bytes) or must
        // error cleanly (structure bytes) — never panic.
        let _ = codec::decode_slice(&v);
    }

    #[test]
    fn spmm_matches_dense_reference(
        dims in (1usize..24, 1usize..24, 1usize..17),
        every in 0usize..6,
        zero_dense in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (m, k, n) = dims;
        let a = seeded_sparse(m, k, every, seed);
        let b = if zero_dense {
            DenseBlock::zeros(k, n)
        } else {
            seeded_dense(k, n, seed ^ 0xd)
        };
        let expect = naive_gemm(1.0, &a.to_dense(), &b, 0.0, &DenseBlock::zeros(m, n));
        let csr_d = spmm::csr_dense(&a, &b).expect("shapes match");
        prop_assert!(csr_d.max_abs_diff(&expect).expect("same shape") < 1e-9);
        // dense · csr with the same operands, transposed roles.
        let d = if zero_dense {
            DenseBlock::zeros(n, m)
        } else {
            seeded_dense(n, m, seed ^ 0xe)
        };
        let expect2 = naive_gemm(1.0, &d, &a.to_dense(), 0.0, &DenseBlock::zeros(n, k));
        let d_csr = spmm::dense_csr(&d, &a).expect("shapes match");
        prop_assert!(d_csr.max_abs_diff(&expect2).expect("same shape") < 1e-9);
    }

    #[test]
    fn spgemm_matches_dense_reference(
        dims in (1usize..24, 1usize..24, 1usize..24),
        density in (0usize..6, 0usize..6),
        seed in any::<u64>(),
    ) {
        let (m, k, n) = dims;
        let a = seeded_sparse(m, k, density.0, seed);
        let b = seeded_sparse(k, n, density.1, seed ^ 0x5e);
        let c = spgemm::csr_csr(&a, &b).expect("shapes match");
        c.validate().expect("valid CSR output");
        let expect = naive_gemm(
            1.0,
            &a.to_dense(),
            &b.to_dense(),
            0.0,
            &DenseBlock::zeros(m, n),
        );
        prop_assert!(c.to_dense().max_abs_diff(&expect).expect("same shape") < 1e-9);
    }
}

proptest! {
    #[test]
    fn codec_roundtrips_dense(b in dense_block()) {
        let block = Block::Dense(b);
        let bytes = codec::encode(&block);
        prop_assert_eq!(bytes.len() as u64, codec::encoded_len(&block));
        let back = codec::decode(bytes).expect("decodes");
        prop_assert_eq!(block, back);
    }

    #[test]
    fn codec_roundtrips_sparse(s in sparse_block()) {
        let block = Block::Sparse(s);
        let bytes = codec::encode(&block);
        prop_assert_eq!(bytes.len() as u64, codec::encoded_len(&block));
        let back = codec::decode(bytes).expect("decodes");
        prop_assert_eq!(block, back);
    }

    #[test]
    fn codec_never_panics_on_truncation(s in sparse_block(), cut in 0usize..64) {
        let bytes = codec::encode(&Block::Sparse(s));
        let cut = cut.min(bytes.len().saturating_sub(1));
        // Truncated input must error, never panic.
        prop_assert!(codec::decode(bytes.slice(0..cut)).is_err());
    }

    #[test]
    fn every_crc_tier_agrees_on_random_large_buffers(len in 0usize..65536, seed in any::<u64>()) {
        // The dispatch tiers (bytewise / PCLMUL folding)
        // must compute the identical IEEE CRC-32 on arbitrary inputs well
        // past every fold threshold — a SIMD divergence here would make
        // wire frames machine-dependent.
        let mut state = seed | 1;
        let data: Vec<u8> = (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 56) as u8
            })
            .collect();
        let reference = codec::crc32_with_tier(codec::CrcTier::Bytewise, &data).expect("bytewise");
        prop_assert_eq!(codec::crc32(&data), reference);
        for tier in codec::CrcTier::ALL {
            match codec::crc32_with_tier(tier, &data) {
                Some(crc) => prop_assert_eq!(crc, reference, "{} diverged", tier.name()),
                None => prop_assert!(!tier.available()),
            }
        }
    }

    #[test]
    fn decode_view_agrees_with_decode_slice(b in dense_block(), shift in 0usize..8) {
        // However the frame lands in memory, the zero-copy view decode and
        // the materializing decode must produce equal blocks.
        let block = Block::Dense(b);
        let plain = codec::encode(&block);
        let mut host = vec![0u8; shift];
        host.extend_from_slice(plain.as_ref());
        let wire = bytes::Bytes::from(host);
        let frame = wire.slice(shift..wire.len());
        let viewed = codec::decode_view(&frame).expect("view decodes");
        let copied = codec::decode_slice(frame.as_ref()).expect("slice decodes");
        prop_assert_eq!(&viewed, &copied);
        prop_assert_eq!(viewed, block);
    }

    #[test]
    fn a_resident_frame_is_the_encoding(
        b in dense_block(),
        s in sparse_block(),
        shift in 0usize..8,
        write in 0usize..4,
    ) {
        let owned = Block::Dense(b.clone());
        let canonical = codec::encode(&owned);
        prop_assert!(codec::resident_frame(&owned).is_none(), "owned storage has no frame");

        // One hop over the wire: the view keeps the frame it arrived in,
        // and that frame is what serializing the owned block produces.
        let hop = |block: &Block| {
            let mut buf = bytes::BytesMut::default();
            let pad = codec::encode_aligned(block, &mut buf);
            let wire = buf.freeze();
            (codec::decode_view(&wire.slice(pad..wire.len())).expect("decodes"), wire, pad)
        };
        let (view, wire, pad) = hop(&owned);
        let frame = codec::resident_frame(&view).expect("an aligned dense decode is a view");
        prop_assert_eq!(frame.as_ref(), canonical.as_ref());
        prop_assert_eq!(frame.as_ref().as_ptr(), wire.as_ref()[pad..].as_ptr(), "the frame, not a copy");
        // Every way of serializing the view re-sends those bytes, and the
        // next hop's view holds them again.
        prop_assert_eq!(codec::encode(&view).as_ref(), canonical.as_ref());
        let (second, _, _) = hop(&view);
        prop_assert_eq!(codec::resident_frame(&second).expect("a view again").as_ref(), canonical.as_ref());
        prop_assert_eq!(&second, &owned);

        // Any write materializes owned storage and drops the frame; the
        // written block serializes like its owned twin, and the view it
        // was cloned from still holds the original frame.
        let other = seeded_dense(b.rows(), b.cols(), 99);
        let apply = |d: &mut DenseBlock| match write {
            0 => d.data_mut()[0] = 4.25,
            1 => d.set(b.rows() - 1, b.cols() - 1, -1.5),
            2 => d.add_assign(&other).expect("same shape"),
            _ => d.scale(0.5),
        };
        let (Block::Dense(mut written), mut twin) = (view.clone(), b.clone()) else {
            panic!("dense frame decoded as sparse")
        };
        apply(&mut written);
        apply(&mut twin);
        let written = Block::Dense(written);
        prop_assert!(codec::resident_frame(&written).is_none(), "write {write} kept the frame");
        prop_assert_eq!(codec::encode(&written).as_ref(), codec::encode(&Block::Dense(twin)).as_ref());
        prop_assert_eq!(codec::resident_frame(&view).expect("untouched").as_ref(), canonical.as_ref());

        // Blocks decoded by copy have no frame: sparse, empty, and a dense
        // frame whose payload landed off an 8-byte boundary.
        let (sparse, _, _) = hop(&Block::Sparse(s));
        prop_assert!(codec::resident_frame(&sparse).is_none());
        let (empty, _, _) = hop(&Block::Dense(DenseBlock::zeros(0, b.cols())));
        prop_assert!(codec::resident_frame(&empty).is_none());
        let mut host = vec![0u8; shift];
        host.extend_from_slice(canonical.as_ref());
        let rehosted = bytes::Bytes::from(host);
        let rehosted = rehosted.slice(shift..rehosted.len());
        let aligned = (rehosted.as_ref()[codec::DENSE_PAYLOAD_OFFSET..].as_ptr() as usize).is_multiple_of(8);
        let back = codec::decode_view(&rehosted).expect("decodes");
        prop_assert_eq!(codec::resident_frame(&back).is_some(), aligned, "shift {shift}");
        prop_assert_eq!(back, owned);
    }

    #[test]
    fn crc_valid_but_malformed_frames_are_refused_or_stay_within_their_bytes(
        d in dense_block(),
        s in sparse_block(),
        sparse in any::<bool>(),
        field in 0usize..4,
        value in any::<u32>(),
        nearby in any::<bool>(),
    ) {
        // A frame whose header lies and whose checksum agrees with the lie
        // — what the checksum gate cannot catch. Offsets: tag 1, rows 2,
        // cols 6, nnz 10 (in a dense frame that is the first payload word).
        let block = if sparse { Block::Sparse(s) } else { Block::Dense(d) };
        let mut buf = bytes::BytesMut::default();
        let pad = codec::encode_aligned(&block, &mut buf);
        if field == 0 {
            buf[pad + 1] = value as u8;
        } else {
            let at = pad + 2 + 4 * (field - 1);
            let old = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
            // Off by a little keeps the lie plausible (one row short, one
            // entry over); anything at all covers the overflow checks.
            let new = if nearby { old.wrapping_add(value % 5).wrapping_sub(2) } else { value };
            buf[at..at + 4].copy_from_slice(&new.to_le_bytes());
        }
        let body_end = buf.len() - 4;
        let crc = codec::crc32(&buf[pad..body_end]);
        buf[body_end..].copy_from_slice(&crc.to_le_bytes());
        let wire = buf.freeze();
        let frame = wire.slice(pad..wire.len());

        // Typed error, or a block no larger than the bytes that carried
        // it: no header field sizes an allocation unchecked. The view
        // decode and the copying decode agree on which.
        let copied = codec::decode_slice(frame.as_ref());
        let viewed = codec::decode_view(&frame);
        prop_assert_eq!(copied.is_ok(), viewed.is_ok());
        if let (Ok(copied), Ok(viewed)) = (copied, viewed) {
            prop_assert!(copied.mem_bytes() <= frame.len() as u64);
            prop_assert!(viewed.mem_bytes() <= frame.len() as u64);
            prop_assert_eq!(&copied, &viewed);
            // A frame accepted as a view is, exactly, its block's encoding.
            if let Some(resident) = codec::resident_frame(&viewed) {
                prop_assert_eq!(resident.as_ref(), codec::encode(&copied).as_ref());
            }
        }
    }

    #[test]
    fn csr_dense_csr_roundtrip(s in sparse_block()) {
        let back = CsrBlock::from_dense(&s.to_dense());
        prop_assert_eq!(s, back);
    }

    #[test]
    fn transpose_is_an_involution(s in sparse_block(), d in dense_block()) {
        prop_assert_eq!(s.transpose().transpose(), s);
        prop_assert_eq!(d.transpose().transpose(), d);
    }

    #[test]
    fn sparse_and_dense_kernels_agree(a in sparse_block(), d in dense_block()) {
        // Make shapes compatible: use a x a_dense where inner dims match.
        let b = DenseBlock::from_fn(a.cols(), d.rows().min(8), |i, j| {
            ((i * 7 + j * 3) % 11) as f64 - 5.0
        });
        let via_sparse = kernels::multiply(&Block::Sparse(a.clone()), &Block::Dense(b.clone()))
            .expect("multiplies");
        let via_dense = kernels::multiply(
            &Block::Dense(a.to_dense()),
            &Block::Dense(b),
        ).expect("multiplies");
        let diff = via_sparse.max_abs_diff(&via_dense).expect("same shape");
        prop_assert!(diff < 1e-9);
    }

    #[test]
    fn elementwise_mul_commutes_on_values(a in dense_block()) {
        let b = DenseBlock::from_fn(a.rows(), a.cols(), |i, j| ((i + 2 * j) % 7) as f64 - 3.0);
        let ab = ew(EwOp::Mul, &Block::Dense(a.clone()), &Block::Dense(b.clone())).expect("ew");
        let ba = ew(EwOp::Mul, &Block::Dense(b), &Block::Dense(a)).expect("ew");
        prop_assert!(ab.max_abs_diff(&ba).expect("same shape") < 1e-12);
    }

    #[test]
    fn matmul_is_associative(
        dims in (1u64..4, 1u64..4, 1u64..4, 1u64..4),
        seed in 0u64..10_000,
    ) {
        let bs = 8u64;
        let (i, k, l, j) = dims;
        let gen = |rows: u64, cols: u64, s: u64| {
            MatrixGenerator::with_seed(s)
                .value_range(-1.0, 1.0)
                .generate(&MatrixMeta::dense(rows * bs, cols * bs).with_block_size(bs))
                .expect("generates")
        };
        let a = gen(i, k, seed);
        let b = gen(k, l, seed ^ 1);
        let c = gen(l, j, seed ^ 2);
        let left = a.multiply(&b).expect("ab").multiply(&c).expect("(ab)c");
        let right = a.multiply(&b.multiply(&c).expect("bc")).expect("a(bc)");
        prop_assert!(left.max_abs_diff(&right).expect("same shape") < 1e-7);
    }

    #[test]
    fn distribution_law_holds(seed in 0u64..10_000) {
        // A (B + C) == A B + A C over block matrices.
        let bs = 8u64;
        let meta_a = MatrixMeta::dense(2 * bs, 3 * bs).with_block_size(bs);
        let meta_bc = MatrixMeta::dense(3 * bs, 2 * bs).with_block_size(bs);
        let a = MatrixGenerator::with_seed(seed).generate(&meta_a).expect("a");
        let b = MatrixGenerator::with_seed(seed ^ 5).generate(&meta_bc).expect("b");
        let c = MatrixGenerator::with_seed(seed ^ 9).generate(&meta_bc).expect("c");
        let lhs = a
            .multiply(&b.elementwise(EwOp::Add, &c).expect("b+c"))
            .expect("a(b+c)");
        let rhs = a
            .multiply(&b)
            .expect("ab")
            .elementwise(EwOp::Add, &a.multiply(&c).expect("ac"))
            .expect("ab+ac");
        prop_assert!(lhs.max_abs_diff(&rhs).expect("same shape") < 1e-8);
    }
}
