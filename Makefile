# Convenience targets; everything is plain dune underneath.

.PHONY: all check test lint check-corpus fuzz-smoke serve-smoke perf-smoke perf-pairs bench bench-json bench-smoke doc clean

all:
	dune build

# Tier-1 verification: full build plus the alcotest/qcheck suite.
check:
	dune build && dune runtest

test: check

# Static diagnostics over the example corpus (docs/LINT.md).  `nestsql
# lint` exits non-zero iff a diagnostic of Error severity is emitted, so
# warnings (the corpus exercises NQ001-NQ003 on purpose) don't fail this.
lint:
	dune build bin/nestsql.exe
	for f in examples/queries/*.sql; do \
	  echo "== $$f"; \
	  dune exec bin/nestsql.exe -- lint --json "$$f" || exit 1; \
	done

# Semantic checker over the whole example corpus (docs/LINT.md): every
# query file and every shrunk regression repro goes through `nestsql
# check` — the bounded counterexample search at k=2 (NQ120-NQ122).  Exits
# non-zero on any Error-severity diagnostic, i.e. on a refuted rewrite.
check-corpus:
	dune build bin/nestsql.exe
	for f in examples/queries/*.sql examples/queries/regressions/*.sql; do \
	  echo "== $$f"; \
	  dune exec bin/nestsql.exe -- check "$$f" || exit 1; \
	done

# Differential oracle smoke run (docs/ORACLE.md): fixed seed, 500 random
# nested queries, each through the full 54-cell candidate matrix (rewrite,
# batched, Auto and index-axis columns, both execution engines) and once
# through the bounded-equivalence checker (--check), plus a replay of the
# shrunk regression corpus.
# Exits non-zero on any discrepancy, and on a refusal-count regression:
# seed 42 x 500 refuses exactly 670 candidate cells today (soundness
# guards + the unbatchable shape, including the indexed-rewrite cells'
# share), so the ratchet pins 671 — a rewrite that starts refusing shapes
# it used to handle trips it.
fuzz-smoke:
	dune build bin/nestsql.exe
	dune exec bin/nestsql.exe -- fuzz --seed 42 --count 500 -q --check --assert-refusals-below 671
	dune exec bin/nestsql.exe -- fuzz --replay examples/queries/regressions -q

# End-to-end server smoke (docs/SERVER.md): start `nestsql serve` on a
# Unix-domain socket, run the paper's Q2/Q5 through `nestsql client`,
# assert the plan cache reports hits and that `load` invalidates it.
serve-smoke:
	dune build bin/nestsql.exe
	sh scripts/serve_smoke.sh

# Benchmark harness smoke (BENCHMARK.json, perfbench/): one traced
# 1-second run of each workload.  Fails unless every run's final JSON line
# reports "correct": true, which includes the traced replay's check that
# each operation takes the same rung and returns the same bag as Core.run.
perf-smoke:
	for w in outofcore_report adhoc_oneshot server_hot; do \
	  echo "== $$w"; \
	  out=$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace 1) || exit 1; \
	  echo "$$out"; \
	  echo "$$out" | tail -n 1 | grep -q '"correct": true' || exit 1; \
	done

# Paired A/B benchmark of the working tree against PARENT (a git ref):
# N alternating pairs of full-length runs of one workload and seed, then
# each side's median and quartiles per end-to-end metric and the change's
# win count (scripts/perf_pairs.sh).  Slow: 2 x N x run_seconds.
PARENT ?= HEAD
WORKLOAD ?= outofcore_report
SEED ?= 1
N ?= 10
perf-pairs:
	sh scripts/perf_pairs.sh $(PARENT) $(WORKLOAD) $(SEED) $(N)

bench:
	dune exec bench/main.exe

# Machine-readable counter grid: writes BENCH_perf.json (schema v6: page
# I/O, rows, planner estimates and per-operator breakdowns over the query
# grids, one run per cell; no timing, which is perfbench's job).
bench-json:
	dune exec bench/main.exe -- --json

# CI gate on the same grid: `bench --check` builds the whole document and
# exits non-zero, one line per differing JSON path, unless it equals the
# committed BENCH_perf.json; before that it fails if batched does not read
# fewer pages than nested iteration on the rewrite-refused skewed type-JA
# cell, indexed nested iteration fails to beat the unindexed enumeration
# on page I/O in the crossover sweep, or no crossover cell picks the
# untransformed indexed strategy.  Then prints every text section (E1-E8,
# ablations, model) and fails if one exits non-zero.
bench-smoke:
	dune exec bench/main.exe -- --check
	dune exec bench/main.exe

# API docs (requires odoc; CI installs it).
doc:
	dune build @doc

clean:
	dune clean
