# Development entry points. `make ci` is the gate every change must pass.

CARGO ?= cargo

.PHONY: ci fmt lint doc test examples e2e-check results-check build loc dead

ci: fmt lint doc test examples e2e-check results-check

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

# Every example runs to completion in release: several assert their own
# results (multi_tenant its per-tenant attribution; quickstart and
# gpu_streaming their products), so a non-zero exit fails.
EXAMPLES = quickstart gpu_streaming elastic_scaling gnmf_recommender multi_tenant

examples:
	$(CARGO) build --release --examples
	@for e in $(EXAMPLES); do \
		$(CARGO) run -q --release --example $$e > /dev/null || { echo "example $$e failed"; exit 1; }; \
	done; echo "examples: all $(words $(EXAMPLES)) ran"

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

# Informational, not part of `ci`: every `pub`/`pub(crate) fn` in the
# non-test part of crates/*/src whose name occurs nowhere else in non-test
# code under crates/*/src, src, examples or e2e/src — candidates for
# deletion (a trait impl or a name shared with another item can hide one).
# Comment lines are not code, so a name that only doc comments mention
# counts as unused. A reference implementation that only tests call (e.g.
# the serial encoder the coding tests compare against) is listed too.
NON_TEST_RS = find crates/*/src src examples e2e/src -name '*.rs' | xargs awk \
	'FNR == 1 { tests = 0 } /^\#\[cfg\(test\)\]/ { tests = 1 } !tests && !/^[[:space:]]*\/\// { print FILENAME ":" $$0 }'

dead:
	@code=$$(mktemp); trap 'rm -f $$code' EXIT; $(NON_TEST_RS) > $$code; \
	sed -nE 's/^(crates\/[^:]*):[[:space:]]*pub(\(crate\))? fn ([A-Za-z0-9_]+).*/\1 \3/p' $$code | sort -u | \
	while read file name; do \
		[ "$$(cut -d: -f2- $$code | grep -ow "$$name" | wc -l)" -le 1 ] && echo "$$file: $$name"; \
	done; true
