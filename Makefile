# Development entry points. `make ci` is the gate every change must pass.

CARGO ?= cargo

.PHONY: ci fmt lint doc test e2e-check results-check build loc

ci: fmt lint doc test e2e-check results-check

fmt:
	$(CARGO) fmt --all --check

lint:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Rustdoc is gated like clippy: a broken intra-doc link, or public docs that
# link a private item, fails CI.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps --workspace

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

# The committed paper-figure outputs under results/ are what the simulator
# prints today: run the seven harnesses and diff each against its file. The
# one measured (not simulated) reading in them — table4's wall-clock search
# time per row — is masked on both sides. The build comes first so that a
# compile error reads as one, not as seven drifted files.
RESULT_BINS = table4 fig6 fig7 fig8 fig9 table5 ablation
MASK_WALL_CLOCK = s/[0-9.]+s search/_s search/

results-check:
	$(CARGO) build --release -p distme-bench
	@out=$$(mktemp); trap 'rm -f $$out' EXIT; for b in $(RESULT_BINS); do \
		$(CARGO) run -q --release -p distme-bench --bin $$b | sed -E '$(MASK_WALL_CLOCK)' > $$out; \
		sed -E '$(MASK_WALL_CLOCK)' results/$$b.txt | diff - $$out \
			|| { echo "results/$$b.txt has drifted from what $$b prints (EXPERIMENTS.md, Re-running everything)"; exit 1; }; \
	done; echo "results/: all $(words $(RESULT_BINS)) outputs match"

build:
	$(CARGO) build --release

# Non-test lines per crate and in total: what sits above each file's
# top-level `#[cfg(test)]` — the count every CHANGES.md entry quotes.
loc:
	@find crates/*/src src -name '*.rs' | xargs awk ' \
		FNR == 1 { tests = 0; crate = FILENAME; sub(/\/?src\/.*/, "", crate); if (crate == "") crate = "(root)" } \
		/^#\[cfg\(test\)\]/ { tests = 1 } \
		!tests { n[crate]++; total++ } \
		END { for (c in n) printf "%6d  %s\n", n[c], c | "sort -k2"; close("sort -k2"); printf "%6d  total\n", total }'
