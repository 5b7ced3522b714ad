# Development entry points. `make ci` is the gate every change must pass.

CARGO ?= cargo

.PHONY: ci fmt lint test codec-smoke build bench bench-json bench-smoke

ci: fmt lint test bench-smoke codec-smoke

fmt:
	$(CARGO) fmt --all --check

lint:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Every contract suite runs here: sim/real byte parity and the serial
# reference (tests/plan_parity.rs), chaos, elastic, coded replication
# (crates/cluster/tests), the job service (crates/engine/tests).
test:
	$(CARGO) test -q --workspace

build:
	$(CARGO) build --release

bench:
	$(CARGO) bench --workspace

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
