#!/usr/bin/env bash
# dist-smoke: the distributed census failure model end to end, through
# the shipped binary (built binaries invoked directly — see the Makefile
# stats-smoke note on the _build lock).
#
# A 3-worker census with deterministic fault injection: slot 1's first
# worker is SIGKILLed after 40 tables (the respawn path) and slot 0 is
# throttled into a straggler (the work-stealing path).  The run must
#
#   1. actually exercise the machinery — gated by nonzero
#      dist.leases_stolen and dist.workers_respawned in the stats block;
#   2. merge a histogram bit-identical to the single-process census,
#      crash schedule and steal order notwithstanding;
#   3. leave a replayable ledger: the final audit of every grant,
#      death, steal and result.
#
# Then the symmetry-reduced census, single-process and over 2 workers:
# both must report the space's 44 classes and largest orbit of 8 (the
# class sweep ran and partitioned {2,2,2} as it always has) and both
# histograms must be bit-identical to the unreduced single-process run.
#
# Then the soak: `rcn soak --dist` runs the {3,2,2} cap-4 census with
# seeded worker SIGKILLs plus a coordinator kill(-9) and --resume from
# the ledger, asserting the recovered histogram byte-identical to an
# in-process reference.
#
# Artifacts land in a scratch directory ($SMOKE_DIR/dist, default
# _build/smoke/dist), removed on success and kept for CI to archive on
# failure — a green run leaves nothing behind.
set -eu

RCN=./_build/default/bin/rcn.exe
CHECK=./_build/default/tools/stats_check.exe

OUT="${SMOKE_DIR:-_build/smoke}/dist"
rm -rf "$OUT"
mkdir -p "$OUT"
cleanup() {
  code=$?
  if [ "$code" -eq 0 ]; then
    rm -rf "$OUT"
  else
    echo "dist-smoke: artifacts kept in $OUT" >&2
  fi
}
trap cleanup EXIT

SPACE="--values 2 --rws 2 --responses 2 --cap 3"

fail() { echo "dist-smoke: FAIL: $*" >&2; exit 1; }

# Reference histogram: one process, no workers.
"$RCN" census $SPACE --jobs 1 > "$OUT/dist-smoke-single.out"

# Distributed: 3 workers, one big lease per half so the idle third
# worker (and the respawned second) must steal the straggler's tail.
"$RCN" census $SPACE --jobs 1 \
  --workers 3 --ledger "$OUT/dist-smoke.ledger" --retries 6 \
  --dist-chunk 128 --dist-stride 16 \
  --dist-crash 1:40 --dist-throttle 0:20000 \
  --stats json > "$OUT/dist-smoke.out"

"$CHECK" --require-nonzero dist.leases_stolen \
  --require-nonzero dist.workers_respawned \
  --require-nonzero dist.workers_spawned \
  --require dist.ranges_quarantined \
  < "$OUT/dist-smoke.out" \
  || fail "stats block did not witness the steal + respawn machinery"

# Bit-identity: the distributed output is the single-process output
# plus the trailing stats line.
diff "$OUT/dist-smoke-single.out" <(grep -v '"rcn_stats"' "$OUT/dist-smoke.out") >/dev/null \
  || fail "distributed histogram diverged from the single-process census"

# Symmetry reduction: one representative per canonical class, verdicts
# weighted by orbit size — the histogram must not move a bit, and the
# sym.classes and sym.orbit_max counters pin the class sweep's partition.
"$RCN" census $SPACE --jobs 1 --sym on --stats json > "$OUT/dist-smoke-sym.out"
"$CHECK" --require-eq sym.classes=44 --require-eq sym.orbit_max=8 \
  < "$OUT/dist-smoke-sym.out" \
  || fail "sym census did not report canonical classes"
diff "$OUT/dist-smoke-single.out" <(grep -v '"rcn_stats"' "$OUT/dist-smoke-sym.out") >/dev/null \
  || fail "symmetry-reduced histogram diverged from the unreduced census"

# ... and the same reduction sharded over worker processes.
"$RCN" census $SPACE --jobs 1 --sym on --workers 2 --stats json \
  > "$OUT/dist-smoke-sym-dist.out"
"$CHECK" --require-eq sym.classes=44 --require-eq sym.orbit_max=8 \
  < "$OUT/dist-smoke-sym-dist.out" \
  || fail "distributed sym census did not report canonical classes"
diff "$OUT/dist-smoke-single.out" <(grep -v '"rcn_stats"' "$OUT/dist-smoke-sym-dist.out") >/dev/null \
  || fail "distributed symmetry-reduced histogram diverged"

# Worker kill(-9) storm + coordinator kill(-9) + resume, vs an
# in-process reference (the acceptance soak: {3,2,2} at cap 4, one
# seeded kill per worker slot per incarnation plus a coordinator kill).
"$RCN" soak --dist --values 3 --rws 2 --responses 2 --cap 4 --jobs 1 \
  --workers 3 --kills 3 --coordinator-kills 1 --seed 1 \
  || fail "dist soak did not recover bit-identically"

echo "dist-smoke: OK"
