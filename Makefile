# Development entry points. `make ci` is the gate every change must pass.

CARGO ?= cargo

.PHONY: ci fmt lint test e2e-check build

ci: fmt lint test e2e-check

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
