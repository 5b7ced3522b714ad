# Development entry points. `make ci` is the gate every change must pass.

CARGO ?= cargo

.PHONY: ci fmt lint test e2e-check codec-smoke build bench-json bench-smoke

ci: fmt lint test e2e-check bench-smoke codec-smoke

fmt:
	$(CARGO) fmt --all --check

lint:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Every contract suite runs here: sim/real byte parity and the serial
# reference (tests/plan_parity.rs), chaos, elastic, coded replication
# (crates/cluster/tests), the job service (crates/engine/tests).
test:
	$(CARGO) test -q --workspace

# CI gate: the repository's benchmark (e2e/, a package outside the
# workspace that sees only the engine's public API) must still compile and
# pass its unit tests — among them the smoke run of every workload, which
# panics if the printed metric names drift from BENCHMARK.json.
e2e-check:
	$(CARGO) test --offline --manifest-path e2e/Cargo.toml

build:
	$(CARGO) build --release

# Regenerates the tracked hot-path baseline (BENCH_hotpath.json at the repo
# root): GEMM GFLOP/s, codec GB/s, transport throughput, one CuboidMM job,
# the coded-replication section (parity encode GB/s, recovery bytes saved
# vs pure redelivery at 1% drop + one decommission), and the sparse section
# (SDDMM/SpMM GFLOP/s, ALS iterations/s).
bench-json:
	$(CARGO) run --release -q -p distme-bench --bin hotpath -- --coded --out BENCH_hotpath.json

# CI gate: the hotpath bench must run end to end and emit valid JSON (the
# binary self-checks the document before writing). Tiny shapes, debug build.
bench-smoke:
	$(CARGO) run -q -p distme-bench --bin hotpath -- --smoke --out target/BENCH_smoke.json

# CI gate: the wire-path hot loop must at least match the seed-style
# per-element loop (`roundtrip_speedup >= 1.0` for dense AND sparse) — the
# binary exits nonzero otherwise. Release build: comparing a CRC-fused bulk
# copy against the element loop is meaningless unoptimized.
codec-smoke:
	$(CARGO) run --release -q -p distme-bench --bin hotpath -- --codec-only --check-codec --out target/BENCH_codec.json
