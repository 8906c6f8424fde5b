.PHONY: all build test check bench bench-e18 bench-e19 bench-e20 bench-e21 bench-e22 inject-smoke stats-smoke soak-smoke serve-smoke dist-smoke synth-smoke crash-smoke clean

all: build

build:
	dune build

test:
	dune runtest

# Smoke artifacts are scratch output: they land under $(SMOKE_DIR),
# are removed when the smoke passes, and are kept (and archived by CI,
# if: failure()) when it does not.  A green `make check` leaves nothing
# in the repo root.
SMOKE_DIR := _build/smoke

# What CI runs (its only build-and-test step): full build, the whole
# test suite (including the engine parity properties), every smoke, and
# a parallel-engine analyze through the CLI.
check: build test inject-smoke stats-smoke soak-smoke serve-smoke dist-smoke synth-smoke crash-smoke
	dune exec bin/rcn.exe -- analyze test-and-set --cap 3 --jobs 2

# Stats-export smoke: run an instrumented analyze on a gallery type, keep
# the full mixed output for CI to archive on failure, and validate the
# JSON stats block's shape — in particular the cache accounting invariant
# hits + misses + expired = probes — with the dependency-free checker.
# Then pin the kernel counters of a fixed {2,2,2} cap-4 census at one and
# at two jobs: the census reuses one kernel per (domain, process count)
# and steps it from table to table along a chain that starts at the
# first rank of each 32-rank pool chunk (retargeted, as a fresh compile,
# at the chain's first table; afterwards only the entries that read a
# changed cell are refolded), so every count depends on the chunk layout
# alone and must be equal at both job counts.  A seeded 500-table sample
# of {3,2,2} runs the same engine sweep and is pinned the same way.
# The {2,2,2} census runs once more with a --checkpoint ledger: the same
# decide pins, one checkpoint flush per 32-rank chunk (each chunk is one
# run of undecided ranks, merged through Dist_ledger.absorb and appended
# as one Done record), nothing resumed, and histogram lines equal to the
# run without a checkpoint.
# A census decides through Kernel.exists, which walks (initial value,
# sorted op multiset) entries, and counts each entry it visits once:
# decide.kernel_evals if folded, decide.partitions_pruned if answered
# from the memo (this table's folds or the ones a step kept),
# decide.entries_skipped if passed without either.  Each table climbs
# one ladder: the per-n kernel is brought to the table once and serves
# both conditions, rung n >= 3 decides with the n - 1 kernel
# as `below` (an entry is folded only if its sub-multisets leave it
# open; the sub-entries are decided there, lazily, and revisits hit its
# memo), and a recording entry whose discerning entry was refuted is
# skipped.  Recording is decided only up to the discerning level.
# Both censuses then run again on the reference decider (--kernel off,
# every rung of both conditions unpruned), and their histogram lines
# must equal the compiled ones.
stats-smoke: build
	mkdir -p $(SMOKE_DIR)
	./_build/default/bin/rcn.exe analyze x4-witness --cap 4 --jobs 2 --stats json \
	  | tee $(SMOKE_DIR)/stats-smoke.out \
	  | ./_build/default/tools/stats_check.exe --require engine.candidates --require pool.tasks \
	      --require-nonzero decide.trie_nodes --require-nonzero decide.kernel_evals \
	      --require decide.partitions_pruned
	for jobs in 1 2; do \
	  ./_build/default/bin/rcn.exe census --values 2 --rws 2 --responses 2 --cap 4 \
	    --jobs $$jobs --stats json \
	    | tee $(SMOKE_DIR)/stats-smoke-census-$$jobs.out \
	    | ./_build/default/tools/stats_check.exe --require-eq census.tables=256 \
	        --require-eq decide.kernel_evals=1772 \
	        --require-eq decide.partitions_pruned=4830 \
	        --require-eq decide.entries_skipped=4336 || exit 1; \
	  rm -f $(SMOKE_DIR)/stats-smoke-ckpt-$$jobs.ledger; \
	  ./_build/default/bin/rcn.exe census --values 2 --rws 2 --responses 2 --cap 4 \
	    --jobs $$jobs --checkpoint $(SMOKE_DIR)/stats-smoke-ckpt-$$jobs.ledger --stats json \
	    | tee $(SMOKE_DIR)/stats-smoke-ckpt-$$jobs.out \
	    | ./_build/default/tools/stats_check.exe --require-eq census.tables=256 \
	        --require-eq decide.kernel_evals=1772 \
	        --require-eq decide.partitions_pruned=4830 \
	        --require-eq decide.entries_skipped=4336 \
	        --require-eq census.checkpoint_flushes=8 \
	        --require-eq census.resume_skips=0 || exit 1; \
	  grep -v '^{' $(SMOKE_DIR)/stats-smoke-census-$$jobs.out > $(SMOKE_DIR)/stats-smoke-census-$$jobs.hist; \
	  grep -v '^{' $(SMOKE_DIR)/stats-smoke-ckpt-$$jobs.out \
	    | diff $(SMOKE_DIR)/stats-smoke-census-$$jobs.hist - || exit 1; \
	  ./_build/default/bin/rcn.exe census --values 3 --rws 2 --responses 2 --cap 4 \
	    --sample 500 --seed 42 --jobs $$jobs --stats json \
	    | tee $(SMOKE_DIR)/stats-smoke-sample-$$jobs.out \
	    | ./_build/default/tools/stats_check.exe --require-eq census.tables=500 \
	        --require-eq decide.kernel_evals=10503 \
	        --require-eq decide.partitions_pruned=15594 \
	        --require-eq decide.entries_skipped=19236 || exit 1; \
	done
	./_build/default/bin/rcn.exe census --values 2 --rws 2 --responses 2 --cap 4 \
	  --jobs 1 --kernel off > $(SMOKE_DIR)/stats-smoke-census-off.out
	grep -v '^{' $(SMOKE_DIR)/stats-smoke-census-1.out \
	  | diff - $(SMOKE_DIR)/stats-smoke-census-off.out
	./_build/default/bin/rcn.exe census --values 3 --rws 2 --responses 2 --cap 4 \
	  --sample 500 --seed 42 --jobs 1 --kernel off > $(SMOKE_DIR)/stats-smoke-sample-off.out
	grep -v '^{' $(SMOKE_DIR)/stats-smoke-sample-1.out \
	  | diff - $(SMOKE_DIR)/stats-smoke-sample-off.out
	rm -f $(SMOKE_DIR)/stats-smoke.out $(SMOKE_DIR)/stats-smoke-census-*.out \
	  $(SMOKE_DIR)/stats-smoke-census-*.hist $(SMOKE_DIR)/stats-smoke-ckpt-*.out \
	  $(SMOKE_DIR)/stats-smoke-ckpt-*.ledger $(SMOKE_DIR)/stats-smoke-sample-*.out

# Fixed-seed fault-injection campaign over the known-broken protocols
# (register race, test-and-set under crashes, and T_{3,1}'s recoverable
# protocol overloaded by one process).  Seeds 1..40 are enough to reach
# the overloaded protocol's crash window; --require-violation makes the
# run fail if the harness ever stops finding them.  The report is kept
# for CI to archive only when the smoke fails.
inject-smoke: build
	mkdir -p $(SMOKE_DIR)
	dune exec bin/rcn.exe -- inject -n 3 --nprime 1 --seeds 40 \
	  --report $(SMOKE_DIR)/inject-report.txt --require-violation
	rm -f $(SMOKE_DIR)/inject-report.txt

# Crash-recovery smoke: the bounded crashtest sweep over both durable
# artifacts (store log; census ledger, which is also the in-process
# census checkpoint) — a crash / I/O error / torn write / lying fsync
# injected at every operation boundary, recovery re-run and audited
# after each plan.
# Gated twice: the sweep's own exit code, and the stats block showing a
# nonzero plan count with exactly zero invariant violations.  Violating
# plans leave their artifacts under $(SMOKE_DIR)/crashtest for CI to
# archive; a green sweep removes them.
crash-smoke: build
	mkdir -p $(SMOKE_DIR)
	./_build/default/bin/rcn.exe crashtest --dir $(SMOKE_DIR)/crashtest --stats json \
	  | tee $(SMOKE_DIR)/crash-smoke.out \
	  | ./_build/default/tools/stats_check.exe \
	      --require-nonzero crashtest.plans --require-zero crashtest.violations
	rm -f $(SMOKE_DIR)/crash-smoke.out

# Daemon smoke: start `rcn serve` on a Unix socket, talk to it with the
# dependency-free protocol client, and assert the three serve guarantees
# through the shipped binaries — repeat queries served byte-identically
# from the persistent store (gated on nonzero store.hits in the metrics
# reply), SIGKILL mid-workload recovered by a restart on the same store,
# and SIGTERM shutting down cleanly (exit 0, socket unlinked).  The
# daemon's --stats json block and every response land in
# $(SMOKE_DIR)/serve, removed on success.
serve-smoke: build
	SMOKE_DIR=$(SMOKE_DIR) bash tools/serve_smoke.sh

# Distributed-census smoke: a 3-worker census with a SIGKILLed worker
# and a throttled straggler (respawn and work stealing gated by the
# dist.* counters, histogram gated bit-identical to the single-process
# run), the symmetry-reduced census (single and over workers, gated on
# nonzero sym.classes and the bit-identical histogram), then the full
# `rcn soak --dist` — seeded worker kill(-9)s plus a coordinator
# kill+resume over the {3,2,2} cap-4 census.  Artifacts land in
# $(SMOKE_DIR)/dist, removed on success.
dist-smoke: build
	SMOKE_DIR=$(SMOKE_DIR) bash tools/dist_smoke.sh

bench:
	dune exec bench/main.exe

# E18 compiled kernel vs reference (trie vs reference on the E9/E11
# workloads); writes BENCH_e18.json for CI to archive and exits nonzero
# if the modes disagree or the census speedup drops below the 3x floor.
bench-e18: build
	./_build/default/bench/e18.exe

# E19 supervision overhead (unsupervised vs supervised vs 1% chunk
# chaos); writes BENCH_e19.json for CI to archive and exits nonzero if
# the failure-free retry layer costs more than 2%, a histogram diverges,
# or the chaos run heals no retries.
bench-e19: build
	./_build/default/bench/e19.exe

# E20 distributed census (single process vs 2 crash-prone workers vs a
# faulted run with an injected crash and steal); writes BENCH_e20.json
# for CI to archive and exits nonzero if any histogram diverges, or —
# on machines with >= 8 cores — if the clean distributed run is slower
# than 1.5x the single-process trie census.
bench-e20: build
	./_build/default/bench/e20.exe

# E21 symmetry reduction (unreduced vs canonical-labeling census on the
# {3,2,2} cap-4 workload); writes BENCH_e21.json for CI to archive and
# exits nonzero if the reduced histogram is not bit-identical, the
# canonizer fails to shrink the space, or the speedup drops below the
# 3x floor (enforced unconditionally — both runs share one pool size).
bench-e21: build
	./_build/default/bench/e21.exe

# E22 incremental decision kernel (warm-start vs from-scratch synthesis
# on the E6 target-4 workload); writes BENCH_e22.json for CI to archive
# and exits nonzero if the fitness trajectories diverge between the two
# modes (the stepped-kernel exactness contract), if the incremental run
# never exercised the step memo, or if the speedup drops below the 3x
# floor.
bench-e22: build
	./_build/default/bench/e22.exe

# Synthesis smoke: a small climb whose candidate stream must actually
# exercise the incremental machinery — nonzero fitness evaluations,
# symmetry-memo skips, ladder skips, entries dropped by steps and
# surviving (reused) memo entries.  The search legitimately may or may
# not find a witness at this budget.  The climb is deterministic and
# single-domain, so its evaluation and kernel counts are pinned exactly.
# The warm fitness steps each level it consults to the candidate's
# table and decides through Kernel.exists over (initial value, sorted op
# multiset) entries, the two upper levels with the level below as
# `below`, as a census climbs its ladder: decide.kernel_evals counts
# entries folded, so a step that invalidates more memo entries than the
# changed cells require shows up as extra folds;
# decide.partitions_pruned counts entries answered from the memo and
# decide.entries_skipped the ones the ladder passed, so every visit is
# pinned.  kernel.masks_invalidated (entries steps dropped) and
# kernel.masks_reused (memo hits on a stepped scratch) are pinned as
# well: a step must drop exactly the entries its changed cells require,
# however the scratch stores and walks them.
synth-smoke: build
	mkdir -p $(SMOKE_DIR)
	./_build/default/bin/rcn.exe synth --target 4 --values 3 --rws 2 --responses 2 \
	  --iterations 600 --seed 1 --stats json \
	  | tee $(SMOKE_DIR)/synth-smoke.out \
	  | ./_build/default/tools/stats_check.exe \
	      --require-nonzero synth.evals --require-nonzero synth.sym_skips \
	      --require-nonzero decide.entries_skipped --require-nonzero kernel.masks_reused \
	      --require-nonzero kernel.masks_invalidated \
	      --require-eq synth.evals=292 \
	      --require-eq decide.kernel_evals=4308 \
	      --require-eq decide.partitions_pruned=7274 \
	      --require-eq decide.entries_skipped=4831 \
	      --require-eq kernel.masks_invalidated=4257 \
	      --require-eq kernel.masks_reused=7274
	rm -f $(SMOKE_DIR)/synth-smoke.out

# Self-healing smoke, two halves (binaries invoked directly — see the
# stats-smoke note on the _build lock):
#  1. retry injection: a census where half the chunks fail their first
#     attempt must still complete, and the stats checker gates on the
#     retry counter actually moving (the quarantine ledger is kept for
#     CI only on failure);
#  2. the kill(-9) soak: `rcn soak` SIGKILLs a real checkpointing census
#     child at 5 seeded progress points, resumes it to completion, and
#     asserts the recovered histogram is bit-identical to an
#     uninterrupted reference.
soak-smoke: build
	mkdir -p $(SMOKE_DIR)
	./_build/default/bin/rcn.exe census --values 2 --rws 2 --responses 2 --cap 3 \
	  --jobs 2 --retries 3 --chaos-rate 0.5 --chaos-seed 7 \
	  --quarantine-report $(SMOKE_DIR)/retry-quarantine.json --stats json \
	  | tee $(SMOKE_DIR)/soak-smoke.out \
	  | ./_build/default/tools/stats_check.exe --require-nonzero supervise.retries \
	      --require supervise.quarantined --require census.tables
	./_build/default/bin/rcn.exe soak --values 3 --rws 2 --responses 2 --cap 3 \
	  --kills 5 --seed 1 --jobs 2 --checkpoint $(SMOKE_DIR)/soak-census.ckpt
	rm -f $(SMOKE_DIR)/retry-quarantine.json $(SMOKE_DIR)/soak-smoke.out \
	  $(SMOKE_DIR)/soak-census.ckpt

clean:
	dune clean
	rm -f BENCH_e18.json BENCH_e19.json BENCH_e20.json BENCH_e21.json BENCH_e22.json
