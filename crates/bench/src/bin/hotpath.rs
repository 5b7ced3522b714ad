//! Hot-path microbenchmarks: the compute/serialization floor under every
//! distributed run.
//!
//! Measures, on this machine:
//!
//! * packed GEMM / GEMM-TN throughput (GFLOP/s) across shapes that stress
//!   the blocking edges;
//! * standalone CRC-32 throughput (GB/s) per dispatch tier (bytewise,
//!   PCLMUL folding where available) plus the active tier,
//!   so codec regressions are attributable to checksum vs copy vs framing;
//! * codec throughput (GB/s) for dense and sparse blocks — the hot path
//!   exactly as the transport ships each kind (dense: aligned fused
//!   encode and zero-copy `decode_view`; sparse: `encode_into` a reused
//!   buffer and `decode_slice`) against an in-binary replica of the
//!   original per-element loop, so the speedup is tracked against a
//!   fixed reference, not a moving one;
//! * transport round-trip throughput through the wire path;
//! * block-migration throughput of an elastic resize cycle (grow 4→9,
//!   shrink 9→4) over a resident working set;
//! * wall time of one fixed CuboidMM job on the real executor;
//! * sparse ML kernel throughput — SDDMM and SpMM GFLOP/s over the
//!   entries the kernels actually visit — plus end-to-end ALS
//!   iterations/s on the real backend;
//! * job-service throughput (jobs/s) at 1/4/16 concurrent submissions,
//!   with the admission queue-wait p50/p95.
//!
//! Writes the results as JSON (default `BENCH_hotpath.json`, `--out` to
//! override) and self-checks that the emitted document parses. `--smoke`
//! shrinks every workload to a few milliseconds for CI; `--codec-only`
//! emits just the crc + codec sections, and `--check-codec` exits nonzero
//! unless both dense and sparse `roundtrip_speedup` are ≥ 1.0 (the
//! `make codec-smoke` CI gate).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use distme_cluster::stats::Phase;
use distme_cluster::{
    ClusterConfig, ClusterStores, LocalCluster, RetryPolicy, StoreKey, Transport, TransportStats,
    WireMove,
};
use distme_core::real_exec::multiply;
use distme_core::MulMethod;
use distme_matrix::kernels::gemm::{gemm, gemm_tn};
use distme_matrix::{codec, Block, BlockId, CsrBlock, DenseBlock, MatrixGenerator, MatrixMeta};
use std::time::Instant;

fn main() {
    let mut smoke = false;
    let mut codec_only = false;
    let mut check_codec = false;
    let mut coded = false;
    let mut out = String::from("BENCH_hotpath.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--codec-only" => codec_only = true,
            "--check-codec" => check_codec = true,
            "--coded" => coded = true,
            "--out" => out = args.next().expect("--out needs a path"),
            other => panic!(
                "unknown argument: {other} \
                 (expected --smoke / --codec-only / --check-codec / --coded / --out PATH)"
            ),
        }
    }

    let mut doc = String::from("{\n");
    doc.push_str("  \"bench\": \"hotpath\",\n");
    doc.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    if !codec_only {
        doc.push_str(&format!("  \"gemm\": {},\n", bench_gemm(smoke)));
    }
    doc.push_str(&format!("  \"crc\": {},\n", bench_crc(smoke)));
    let codec = bench_codec(smoke);
    if codec_only {
        doc.push_str(&format!("  \"codec\": {}\n", codec.json));
    } else {
        doc.push_str(&format!("  \"codec\": {},\n", codec.json));
        doc.push_str(&format!("  \"transport\": {},\n", bench_transport(smoke)));
        doc.push_str(&format!("  \"rebalance\": {},\n", bench_rebalance(smoke)));
        doc.push_str(&format!("  \"cuboid_job\": {},\n", bench_cuboid_job(smoke)));
        if coded {
            doc.push_str(&format!("  \"coded\": {},\n", bench_coded(smoke)));
        }
        doc.push_str(&format!("  \"sparse\": {},\n", bench_sparse(smoke)));
        doc.push_str(&format!("  \"service\": {}\n", bench_service(smoke)));
    }
    doc.push('}');

    json_check(&doc).expect("emitted benchmark document must be valid JSON");
    std::fs::write(&out, format!("{doc}\n")).expect("write benchmark JSON");
    println!("wrote {out}");

    if check_codec {
        println!(
            "codec check: dense roundtrip_speedup {:.4}, sparse roundtrip_speedup {:.4}",
            codec.dense_speedup, codec.sparse_speedup
        );
        assert!(
            codec.dense_speedup >= 1.0,
            "dense hot path regressed below the seed-style loop: speedup {:.4} < 1.0",
            codec.dense_speedup
        );
        assert!(
            codec.sparse_speedup >= 1.0,
            "sparse hot path regressed below the seed-style loop: speedup {:.4} < 1.0",
            codec.sparse_speedup
        );
        println!("codec check: ok");
    }
}

/// Formats an `f64` as a JSON number (non-finite values become 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "0".into()
    }
}

fn seeded_dense(rows: usize, cols: usize, seed: u64) -> DenseBlock {
    let mut state = seed | 1;
    DenseBlock::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((state >> 33) % 200) as f64 / 100.0 - 1.0
    })
}

fn seeded_sparse(rows: usize, cols: usize, every: usize, seed: u64) -> CsrBlock {
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

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

fn bench_gemm(smoke: bool) -> String {
    let shapes: &[(usize, usize, usize)] = if smoke {
        &[(32, 32, 32), (48, 16, 24)]
    } else {
        &[
            (1000, 1000, 1000),
            (512, 512, 512),
            (256, 256, 256),
            (2000, 64, 2000),
            (64, 2000, 64),
        ]
    };
    let mut rows = Vec::new();
    for &(m, k, n) in shapes {
        rows.push(gemm_row("gemm", m, k, n, smoke, |a, b, c| {
            gemm(1.0, a, b, 0.0, c).expect("shapes match")
        }));
    }
    // gemm_tn at the headline shape (a stored k x m).
    let (m, k, n) = if smoke {
        (32, 32, 32)
    } else {
        (1000, 1000, 1000)
    };
    rows.push(gemm_tn_row(m, k, n, smoke));
    format!("[\n    {}\n  ]", rows.join(",\n    "))
}

fn gemm_row(
    kernel: &str,
    m: usize,
    k: usize,
    n: usize,
    smoke: bool,
    f: impl Fn(&DenseBlock, &DenseBlock, &mut DenseBlock),
) -> String {
    let a = seeded_dense(m, k, 3);
    let b = seeded_dense(k, n, 5);
    let mut c = DenseBlock::zeros(m, n);
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    // Enough repetitions for ~3 GFLOP of work per shape (2 reps in smoke).
    let reps = if smoke {
        2
    } else {
        ((3.0e9 / flops).ceil() as usize).max(3)
    };
    f(&a, &b, &mut c); // warm up (feature detection, page-in)
    let t = Instant::now();
    for _ in 0..reps {
        f(&a, &b, &mut c);
    }
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(&c);
    let gflops = flops * reps as f64 / secs / 1e9;
    format!(
        "{{\"kernel\": \"{kernel}\", \"m\": {m}, \"k\": {k}, \"n\": {n}, \
         \"reps\": {reps}, \"gflops\": {}}}",
        num(gflops)
    )
}

fn gemm_tn_row(m: usize, k: usize, n: usize, smoke: bool) -> String {
    let a = seeded_dense(k, m, 3);
    let b = seeded_dense(k, n, 5);
    let mut c = DenseBlock::zeros(m, n);
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    let reps = if smoke {
        2
    } else {
        ((3.0e9 / flops).ceil() as usize).max(3)
    };
    gemm_tn(1.0, &a, &b, 0.0, &mut c).expect("shapes match");
    let t = Instant::now();
    for _ in 0..reps {
        gemm_tn(1.0, &a, &b, 0.0, &mut c).expect("shapes match");
    }
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(&c);
    let gflops = flops * reps as f64 / secs / 1e9;
    format!(
        "{{\"kernel\": \"gemm_tn\", \"m\": {m}, \"k\": {k}, \"n\": {n}, \
         \"reps\": {reps}, \"gflops\": {}}}",
        num(gflops)
    )
}

// ---------------------------------------------------------------------------
// CRC: standalone checksum throughput per dispatch tier
// ---------------------------------------------------------------------------

/// GB/s of each available CRC tier over a frame-sized buffer, plus the tier
/// the dispatcher actually picks — so a codec regression is attributable to
/// checksum vs copy vs framing at a glance.
fn bench_crc(smoke: bool) -> String {
    use codec::CrcTier;
    let n = if smoke { 64 * 1024 } else { 512 * 1024 };
    let mut state = 0x0123_4567_89ab_cdefu64;
    let data: Vec<u8> = (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 56) as u8
        })
        .collect();
    let mut tiers = Vec::new();
    for tier in CrcTier::ALL {
        if !tier.available() {
            continue;
        }
        // ~1 GB of input per tier in full mode (bytewise gets fewer reps).
        let reps = if smoke {
            4
        } else if tier == CrcTier::Bytewise {
            256
        } else {
            2048
        };
        let mut acc = 0u32;
        let t = Instant::now();
        for _ in 0..reps {
            acc ^= codec::crc32_with_tier(tier, &data).expect("tier available");
        }
        let secs = t.elapsed().as_secs_f64();
        std::hint::black_box(acc);
        tiers.push(format!(
            "{{\"tier\": \"{}\", \"gbps\": {}}}",
            tier.name(),
            num((n * reps) as f64 / secs / 1e9)
        ));
    }
    format!(
        "{{\"bytes\": {n}, \"active\": \"{}\", \"tiers\": [\n    {}\n  ]}}",
        codec::active_crc_tier().name(),
        tiers.join(",\n    ")
    )
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

/// The codec section's JSON plus the speedups `--check-codec` gates on.
struct CodecBench {
    json: String,
    dense_speedup: f64,
    sparse_speedup: f64,
}

fn bench_codec(smoke: bool) -> CodecBench {
    // Distributed jobs ship sub-matrix blocks, not whole operands; 256x256
    // (512 KB dense) matches the block-size regime of the executor's jobs,
    // so this is the traffic the transport actually serializes.
    let side = if smoke { 64 } else { 256 };
    let dense = Block::Dense(seeded_dense(side, side, 7));
    let sparse = Block::Sparse(seeded_sparse(side, side, 20, 9));
    let (dense_json, dense_speedup) = codec_section(&dense, smoke);
    let (sparse_json, sparse_speedup) = codec_section(&sparse, smoke);
    CodecBench {
        json: format!("{{\n    \"dense\": {dense_json},\n    \"sparse\": {sparse_json}\n  }}"),
        dense_speedup,
        sparse_speedup,
    }
}

fn codec_section(block: &Block, smoke: bool) -> (String, f64) {
    let len = codec::encoded_len(block) as usize;
    // ~256 MB of traffic per direction in full mode.
    let reps = if smoke {
        3
    } else {
        (256_000_000 / len.max(1)).clamp(8, 4096)
    };

    // Hot path, exactly as the transport ships a block: fresh exact-size
    // buffer, aligned fused encode, freeze, `decode_view` (aliasing a dense
    // frame, materializing a sparse one).
    let t = Instant::now();
    for _ in 0..reps {
        let mut buf = BytesMut::with_capacity(len + 7);
        codec::encode_aligned(block, &mut buf);
        std::hint::black_box(&buf);
    }
    let hot_enc = t.elapsed().as_secs_f64();
    let mut buf = BytesMut::with_capacity(len + 7);
    let pad = codec::encode_aligned(block, &mut buf);
    let wire = buf.freeze();
    let frame = wire.slice(pad..wire.len());
    let t = Instant::now();
    for _ in 0..reps {
        let b = codec::decode_view(&frame).expect("round-trips");
        std::hint::black_box(&b);
    }
    let hot_dec = t.elapsed().as_secs_f64();

    // Reference path: the original per-element loop into a fresh buffer
    // (frozen into `Bytes`, as the transport used to ship), decoded
    // element by element.
    let t = Instant::now();
    let mut frozen = encode_elementwise(block);
    for _ in 1..reps {
        frozen = encode_elementwise(block);
    }
    let ref_enc = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for _ in 0..reps {
        let b = decode_elementwise(frozen.clone()).expect("round-trips");
        std::hint::black_box(&b);
    }
    let ref_dec = t.elapsed().as_secs_f64();

    let moved = (len * reps) as f64;
    let gbps = |secs: f64| moved / secs / 1e9;
    let hot_rt = gbps(hot_enc + hot_dec);
    let ref_rt = gbps(ref_enc + ref_dec);
    let speedup = hot_rt / ref_rt;
    let json = format!(
        "{{\"bytes\": {len}, \"reps\": {reps}, \
         \"hot\": {{\"encode_gbps\": {}, \"decode_gbps\": {}, \"roundtrip_gbps\": {}}}, \
         \"seed_style\": {{\"encode_gbps\": {}, \"decode_gbps\": {}, \"roundtrip_gbps\": {}}}, \
         \"roundtrip_speedup\": {}}}",
        num(gbps(hot_enc)),
        num(gbps(hot_dec)),
        num(hot_rt),
        num(gbps(ref_enc)),
        num(gbps(ref_dec)),
        num(ref_rt),
        num(speedup)
    );
    (json, speedup)
}

/// The seed codec's encoder: one `put_*` per element, frozen to `Bytes`.
fn encode_elementwise(block: &Block) -> Bytes {
    let mut buf = BytesMut::with_capacity(codec::encoded_len(block) as usize);
    match block {
        Block::Dense(d) => {
            buf.put_u8(1);
            buf.put_u32_le(d.rows() as u32);
            buf.put_u32_le(d.cols() as u32);
            for &v in d.data() {
                buf.put_f64_le(v);
            }
        }
        Block::Sparse(s) => {
            buf.put_u8(2);
            buf.put_u32_le(s.rows() as u32);
            buf.put_u32_le(s.cols() as u32);
            buf.put_u32_le(s.nnz() as u32);
            for &p in s.row_ptr() {
                buf.put_u32_le(p);
            }
            for &j in s.col_idx() {
                buf.put_u32_le(j);
            }
            for &v in s.values() {
                buf.put_f64_le(v);
            }
        }
    }
    buf.freeze()
}

/// The seed codec's decoder: one `get_*` per element out of `Bytes`.
fn decode_elementwise(mut buf: Bytes) -> Result<Block, String> {
    let tag = buf.get_u8();
    let rows = buf.get_u32_le() as usize;
    let cols = buf.get_u32_le() as usize;
    match tag {
        1 => {
            let mut data = Vec::with_capacity(rows * cols);
            for _ in 0..rows * cols {
                data.push(buf.get_f64_le());
            }
            DenseBlock::from_vec(rows, cols, data)
                .map(Block::Dense)
                .map_err(|e| e.to_string())
        }
        2 => {
            let nnz = buf.get_u32_le() as usize;
            let mut row_ptr = Vec::with_capacity(rows + 1);
            for _ in 0..=rows {
                row_ptr.push(buf.get_u32_le());
            }
            let mut col_idx = Vec::with_capacity(nnz);
            for _ in 0..nnz {
                col_idx.push(buf.get_u32_le());
            }
            let mut values = Vec::with_capacity(nnz);
            for _ in 0..nnz {
                values.push(buf.get_f64_le());
            }
            CsrBlock::from_raw_parts(rows, cols, row_ptr, col_idx, values)
                .map(Block::Sparse)
                .map_err(|e| e.to_string())
        }
        t => Err(format!("bad tag {t}")),
    }
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

fn bench_transport(smoke: bool) -> String {
    let side = if smoke { 64 } else { 1000 };
    let moves = if smoke { 3 } else { 64 };
    let stores = ClusterStores::new(2);
    let stats = TransportStats::default();
    let block = Block::Dense(seeded_dense(side, side, 11));
    let key = StoreKey::operand(1, BlockId::new(0, 0));
    stores
        .node(0)
        .install(key, std::sync::Arc::new(block.clone()));
    let transport = Transport::new(&stores, &stats, None, RetryPolicy::no_retry());
    let mv = WireMove {
        phase: Phase::Repartition,
        from_node: 0,
        to_node: 1,
        wire_bytes: codec::encoded_len(&block),
        src: key,
        dst: key,
    };
    transport.execute(&mv, 0).expect("moves"); // warm-up
    let t = Instant::now();
    for _ in 0..moves {
        transport.execute(&mv, 0).expect("moves");
    }
    let secs = t.elapsed().as_secs_f64();
    let payload = codec::encoded_len(&block) as f64 * moves as f64;
    format!(
        "{{\"moves\": {moves}, \"block_bytes\": {}, \"roundtrip_gbps\": {}}}",
        codec::encoded_len(&block),
        num(payload / secs / 1e9)
    )
}

// ---------------------------------------------------------------------------
// Elastic rebalance: migration cost of a grow/shrink cycle
// ---------------------------------------------------------------------------

fn bench_rebalance(smoke: bool) -> String {
    use distme_cluster::rebalance::home_node;
    let side = if smoke { 32 } else { 256 };
    let blocks: u64 = if smoke { 8 } else { 96 };
    let mut cluster = LocalCluster::new(ClusterConfig::laptop()); // 4 nodes
    let block_bytes = codec::encoded_len(&Block::Dense(seeded_dense(side, side, 13)));
    // A dual-homed resident working set, as a finished job leaves it.
    for i in 0..blocks {
        let id = BlockId::new((i % 12) as u32, (i / 12) as u32);
        let key = StoreKey::operand(1, id);
        let blk = std::sync::Arc::new(Block::Dense(seeded_dense(side, side, 13 + i)));
        cluster
            .stores()
            .ingest(home_node(id, 0, 4), key, std::sync::Arc::clone(&blk));
        cluster.stores().ingest(home_node(id, 1, 4), key, blk);
    }
    let t = Instant::now();
    let grow = cluster.scale_to(9).expect("grow");
    let shrink = cluster.scale_to(4).expect("shrink");
    let secs = t.elapsed().as_secs_f64();
    let moves = grow.moves + shrink.moves;
    let payload = grow.payload_bytes + shrink.payload_bytes;
    format!(
        "{{\"blocks\": {blocks}, \"block_bytes\": {block_bytes}, \
         \"grow_moves\": {}, \"shrink_moves\": {}, \"payload_bytes\": {payload}, \
         \"seconds\": {}, \"migration_gbps\": {}, \"moves_per_sec\": {}}}",
        grow.moves,
        shrink.moves,
        num(secs),
        num(payload as f64 / secs / 1e9),
        num(moves as f64 / secs)
    )
}

// ---------------------------------------------------------------------------
// Fixed CuboidMM job on the real executor
// ---------------------------------------------------------------------------

/// One fixed CuboidMM job. Reports the overlap counters from the job's
/// stats alongside the throughput, so the hidden-communication fraction is
/// tracked with it.
fn bench_cuboid_job(smoke: bool) -> String {
    let bs: u64 = if smoke { 16 } else { 128 };
    let (bi, bk, bj) = (6u64, 5u64, 4u64);
    let (m, k, n) = (bi * bs, bk * bs, bj * bs);
    let a = MatrixGenerator::with_seed(11)
        .value_range(-1.0, 1.0)
        .generate(&MatrixMeta::dense(m, k).with_block_size(bs))
        .expect("generates");
    let b = MatrixGenerator::with_seed(22)
        .value_range(-1.0, 1.0)
        .generate(&MatrixMeta::dense(k, n).with_block_size(bs))
        .expect("generates");
    let reps = if smoke { 1 } else { 3 };
    let (wall, stats) = (0..reps)
        .map(|_| {
            let cluster = LocalCluster::new(ClusterConfig::laptop());
            let t = Instant::now();
            let (prod, stats) =
                multiply(&cluster, &a, &b, MulMethod::CuboidAuto).expect("job runs");
            let wall = t.elapsed().as_secs_f64();
            std::hint::black_box(&prod);
            (wall, stats)
        })
        .min_by(|x, y| x.0.total_cmp(&y.0))
        .expect("at least one rep");
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    format!(
        "{{\"m\": {m}, \"k\": {k}, \"n\": {n}, \"block_size\": {bs}, \
         \"method\": \"CuboidAuto\", \"wall_seconds\": {}, \"gflops\": {}, \
         \"overlap_ratio\": {}, \"prefetch_hits\": {}, \"prefetch_stalls\": {}}}",
        num(wall),
        num(flops / wall / 1e9),
        num(stats.overlap_ratio.unwrap_or(0.0)),
        stats.prefetch_hits,
        stats.prefetch_stalls
    )
}

// ---------------------------------------------------------------------------
// Coded replication: parity encode throughput and recovery bytes saved
// ---------------------------------------------------------------------------

/// Three measurements behind `--coded`: XOR parity encode GB/s over a
/// dual-homed working set; a decommission of a node holding sole-copy
/// blocks (typed loss with coding off vs parity-decoded recovery with it
/// on); and a fixed-seed 1%-drop chaos job where coding turns lineage
/// retransmissions of coded blocks into local reconstructions — the
/// `retransmitted_bytes_saved` delta.
fn bench_coded(smoke: bool) -> String {
    use distme_cluster::rebalance::home_node;
    use distme_cluster::{coding, FaultSpec, JobError, ReplicationPolicy};
    use std::sync::Arc;

    let side = if smoke { 32 } else { 256 };
    let blocks: u64 = if smoke { 8 } else { 96 };
    // A dual-homed resident working set, as a finished job leaves it.
    let build = |policy: ReplicationPolicy| {
        let cluster = LocalCluster::new(ClusterConfig::laptop().with_replication(policy));
        for i in 0..blocks {
            let id = BlockId::new((i % 12) as u32, (i / 12) as u32);
            let key = StoreKey::operand(1, id);
            let blk = Arc::new(Block::Dense(seeded_dense(side, side, 17 + i)));
            cluster
                .stores()
                .ingest(home_node(id, 0, 4), key, Arc::clone(&blk));
            cluster.stores().ingest(home_node(id, 1, 4), key, blk);
        }
        cluster
    };

    // Parity encode throughput: GB/s of member payload scanned per pass
    // (each pass re-encodes the full set after an eviction, as a resize
    // does).
    let mut xor_cluster = build(ReplicationPolicy::Xor);
    let block_bytes = codec::encoded_len(&Block::Dense(seeded_dense(side, side, 17)));
    let payload = block_bytes * blocks;
    let reps: u64 = if smoke { 2 } else { 16 };
    let mut parity_blocks = 0;
    let mut secs = 0.0;
    for _ in 0..reps {
        coding::evict_all_parity(xor_cluster.stores());
        let t = Instant::now();
        parity_blocks = xor_cluster.encode_parity(1);
        secs += t.elapsed().as_secs_f64();
    }
    let encode_gbps = (payload * reps) as f64 / secs / 1e9;

    // One decommission of a node holding a sole-copy block: with coding
    // off the loss is typed and the matrix is evicted; with XOR parity
    // the same loss decodes from group survivors.
    let victim = xor_cluster
        .stores()
        .resident_keys()
        .into_iter()
        .find(|(k, holders)| !k.is_parity() && holders.len() == 1)
        .map(|(_, holders)| *holders.iter().next().unwrap());
    let mut off_cluster = build(ReplicationPolicy::Off);
    let (off_lost, xor_reconstructed, xor_reconstruction_bytes) = match victim {
        Some(node) => {
            let off_lost = match off_cluster.decommission_node(node) {
                Err(JobError::NodeDecommissioned { lost_blocks, .. }) => lost_blocks as u64,
                _ => 0,
            };
            match xor_cluster.decommission_node(node) {
                Ok(report) => (
                    off_lost,
                    report.stats.reconstructed_blocks,
                    report.stats.reconstruction_payload_bytes,
                ),
                Err(_) => (off_lost, 0, 0),
            }
        }
        None => (0, 0, 0),
    };

    // Fixed-seed chaos: the same CuboidMM job at a 1% drop rate, coding
    // off vs on. Dropped deliveries of coded (copy-0) blocks decode from
    // group survivors instead of re-riding the wire.
    let bs: u64 = if smoke { 16 } else { 64 };
    let (m, k, n) = (6 * bs, 5 * bs, 4 * bs);
    let a = MatrixGenerator::with_seed(11)
        .value_range(-1.0, 1.0)
        .generate(&MatrixMeta::dense(m, k).with_block_size(bs))
        .expect("generates");
    let b = MatrixGenerator::with_seed(22)
        .value_range(-1.0, 1.0)
        .generate(&MatrixMeta::dense(k, n).with_block_size(bs))
        .expect("generates");
    let chaos = |policy: ReplicationPolicy| {
        let cluster = LocalCluster::new(ClusterConfig::laptop().with_replication(policy));
        cluster.inject_faults(FaultSpec {
            seed: 70,
            drop_rate: 0.01,
            corrupt_rate: 0.0,
            crash_rate: 0.0,
            blackouts: Vec::new(),
        });
        let (prod, stats) =
            multiply(&cluster, &a, &b, MulMethod::CuboidAuto).expect("recovers under faults");
        std::hint::black_box(&prod);
        stats
    };
    let off_stats = chaos(ReplicationPolicy::Off);
    let xor_stats = chaos(ReplicationPolicy::Xor);
    let saved = off_stats
        .retransmitted_payload_bytes
        .saturating_sub(xor_stats.retransmitted_payload_bytes);

    format!(
        "{{\n    \"parity_encode\": {{\"blocks\": {blocks}, \"block_bytes\": {block_bytes}, \
         \"parity_blocks\": {parity_blocks}, \"reps\": {reps}, \"encode_gbps\": {}}},\n    \
         \"decommission\": {{\"off_lost_blocks\": {off_lost}, \
         \"xor_reconstructed_blocks\": {xor_reconstructed}, \
         \"xor_reconstruction_bytes\": {xor_reconstruction_bytes}}},\n    \
         \"chaos_drop\": {{\"drop_rate\": 0.01, \
         \"retransmitted_bytes_off\": {}, \"retransmitted_bytes_xor\": {}, \
         \"reconstructed_blocks_xor\": {}, \"reconstruction_bytes_xor\": {}, \
         \"retransmitted_bytes_saved\": {saved}}}\n  }}",
        num(encode_gbps),
        off_stats.retransmitted_payload_bytes,
        xor_stats.retransmitted_payload_bytes,
        xor_stats.reconstructed_blocks,
        xor_stats.reconstruction_payload_bytes,
    )
}

// ---------------------------------------------------------------------------
// Sparse ML kernels: SDDMM / SpMM throughput and the ALS iteration rate
// ---------------------------------------------------------------------------

/// Local sparse-kernel throughput in GFLOP/s — flops counted over the
/// entries the kernels actually visit (`2·k` per sampled SDDMM entry,
/// `2·n` per stored SpMM entry) — plus end-to-end ALS iterations/s on the
/// real backend, where each iteration runs two SpMM jobs, two dense
/// Grams, two driver-side `f × f` ridge solves, and an SDDMM-sampled
/// objective.
fn bench_sparse(smoke: bool) -> String {
    use distme_engine::{als, AlsConfig, RealSession, SystemProfile};
    use distme_matrix::kernels::{sddmm, spmm};

    let (m, k, n) = if smoke { (64, 48, 64) } else { (512, 256, 512) };
    let every = 16; // ~6% density
    let a = seeded_dense(m, k, 3);
    let b = seeded_dense(k, n, 5);
    let reps = if smoke { 2 } else { 20 };

    let mask = seeded_sparse(m, n, every, 9);
    let mask_nnz = mask.nnz();
    let mut sddmm_best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let c = sddmm::sddmm(&a, &b, &mask).expect("dims agree");
        sddmm_best = sddmm_best.min(t.elapsed().as_secs_f64());
        std::hint::black_box(&c);
    }
    let sddmm_gflops = 2.0 * k as f64 * mask_nnz as f64 / sddmm_best / 1e9;

    let sa = seeded_sparse(m, k, every, 13);
    let sa_nnz = sa.nnz();
    let mut spmm_best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let c = spmm::csr_dense(&sa, &b).expect("dims agree");
        spmm_best = spmm_best.min(t.elapsed().as_secs_f64());
        std::hint::black_box(&c);
    }
    let spmm_gflops = 2.0 * sa_nnz as f64 * n as f64 / spmm_best / 1e9;

    // The transpose-aware variant: Aᵀ·B scattered without materializing
    // the transpose (`at` is k-major storage of the same logical operand).
    let at = seeded_sparse(k, m, every, 13);
    let bt = seeded_dense(k, n, 5);
    let mut spmm_t_best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let c = sddmm::csr_t_dense(&at, &bt).expect("dims agree");
        spmm_t_best = spmm_t_best.min(t.elapsed().as_secs_f64());
        std::hint::black_box(&c);
    }
    let spmm_t_gflops = 2.0 * at.nnz() as f64 * n as f64 / spmm_t_best / 1e9;

    // End-to-end ALS on the real backend.
    let (users, items, factor_dim) = (96u64, 64u64, 16u64);
    let v = MatrixGenerator::with_seed(3)
        .value_range(1.0, 5.0)
        .generate(&MatrixMeta::sparse(users, items, 0.2).with_block_size(16))
        .expect("generates");
    let iterations = if smoke { 2 } else { 8 };
    let cfg = AlsConfig {
        factor_dim,
        iterations,
        lambda: 0.1,
    };
    let mut session = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
    let t = Instant::now();
    let res = als::run_real(&mut session, &v, &cfg, 42).expect("ALS runs");
    let als_secs = t.elapsed().as_secs_f64();
    let final_objective = res.objective.last().copied().unwrap_or(0.0);
    std::hint::black_box(&res.w);

    format!(
        "{{\n    \"sddmm\": {{\"m\": {m}, \"k\": {k}, \"n\": {n}, \"nnz\": {mask_nnz}, \
         \"gflops\": {}}},\n    \
         \"spmm\": {{\"m\": {m}, \"k\": {k}, \"n\": {n}, \"nnz\": {sa_nnz}, \
         \"gflops\": {}}},\n    \
         \"spmm_transpose\": {{\"gflops\": {}}},\n    \
         \"als\": {{\"users\": {users}, \"items\": {items}, \"factor_dim\": {factor_dim}, \
         \"iterations\": {iterations}, \"iters_per_sec\": {}, \"final_objective\": {}}}\n  }}",
        num(sddmm_gflops),
        num(spmm_gflops),
        num(spmm_t_gflops),
        num(iterations as f64 / als_secs),
        num(final_objective),
    )
}

// ---------------------------------------------------------------------------
// Job service: multi-tenant submission throughput
// ---------------------------------------------------------------------------

/// Jobs/s of identical multiplies pushed through the job service at 1, 4
/// and 16 concurrent submissions, plus the admission queue-wait tail.
fn bench_service(smoke: bool) -> String {
    use distme_cluster::TenantId;
    use distme_engine::session::RealOps;
    use distme_engine::{JobService, JobSpec, SystemProfile};
    use std::sync::Arc;

    let bs: u64 = if smoke { 16 } else { 32 };
    let dim = 4 * bs;
    let a = Arc::new(
        MatrixGenerator::with_seed(11)
            .value_range(-1.0, 1.0)
            .generate(&MatrixMeta::dense(dim, dim).with_block_size(bs))
            .expect("generates"),
    );
    let b = Arc::new(
        MatrixGenerator::with_seed(22)
            .value_range(-1.0, 1.0)
            .generate(&MatrixMeta::dense(dim, dim).with_block_size(bs))
            .expect("generates"),
    );
    let mut entries = Vec::new();
    for &concurrent in &[1usize, 4, 16] {
        let svc = JobService::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        let jobs = if smoke { concurrent } else { concurrent * 4 };
        let t = Instant::now();
        let mut pending = Vec::new();
        for i in 0..jobs {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            pending.push(svc.submit(
                JobSpec::new(TenantId(i as u32 % 4)).priority(i as u8 % 4),
                move |s| s.matmul(&a, &b),
            ));
            // Keep at most `concurrent` jobs in flight.
            if pending.len() == concurrent {
                pending.remove(0).wait().expect("job runs");
            }
        }
        for h in pending {
            h.wait().expect("job runs");
        }
        let secs = t.elapsed().as_secs_f64();
        let waits = svc.queue_wait_stats();
        entries.push(format!(
            "{{\"concurrent\": {concurrent}, \"jobs\": {jobs}, \"jobs_per_sec\": {}, \
             \"queue_wait_p50_secs\": {}, \"queue_wait_p95_secs\": {}}}",
            num(jobs as f64 / secs),
            num(waits.p50_secs),
            num(waits.p95_secs)
        ));
    }
    format!("[\n    {}\n  ]", entries.join(",\n    "))
}

// ---------------------------------------------------------------------------
// JSON self-check (no serde in the workspace): a strict recursive-descent
// parser over the emitted document.
// ---------------------------------------------------------------------------

fn json_check(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    json_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn json_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                json_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at {pos}"));
                }
                *pos += 1;
                json_value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => {
                        *pos += 1;
                        skip_ws(b, pos);
                    }
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                json_value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at {pos}")),
                }
            }
        }
        Some(b'"') => json_string(b, pos),
        Some(b't') => json_literal(b, pos, "true"),
        Some(b'f') => json_literal(b, pos, "false"),
        Some(b'n') => json_literal(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            Ok(())
        }
        _ => Err(format!("unexpected byte at {pos}")),
    }
}

fn json_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(b, pos);
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at {pos}"));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(()),
            b'\\' => *pos += 1,
            _ => {}
        }
    }
    Err("unterminated string".into())
}

fn json_literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at {pos}"))
    }
}
