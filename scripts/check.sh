#!/usr/bin/env bash
# Builds and tests three configurations: the default RelWithDebInfo build, an
# ASAN+UBSan build, and a TSan build running the concurrency tests. Run from
# the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== default build =="
# Warnings fail the default build, so it stays warning-free.
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== perfbench smoke =="
# Every benchmark workload at tiny sizes, untraced and traced. olap and
# olap_par each check their checksums against the suite run at the other
# parallelism, so serial and parallel aggregation must agree on every check.
python3 perfbench/smoke_test.py

echo "== asan+ubsan build =="
cmake -B build-asan -S . -DASAN=ON >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "== examples smoke (asan) =="
# The example programs print the statement record (metrics and the profile's
# estimates). The ASAN build aborts on any sanitizer report
# (-fno-sanitize-recover=all; leaks fail the exit code), so a nonzero exit
# here is either a crash, an error the program reported, or a report.
for example in quickstart optimizer_lab join_methods_tour star_schema_analytics; do
  ./build-asan/examples/"$example" >/dev/null
done
./build-asan/examples/repl >/dev/null <<'SQL'
\demo
EXPLAIN ANALYZE SELECT e.name, d.dname FROM emp e, dept d WHERE e.dept_id = d.id;
\metrics
\quit
SQL

echo "== bench_vectorized smoke (asan) =="
# Tiny row count: exercises the batch pipeline (scan/filter/project/join/
# limit, plus the batch+parallel composition) under ASAN, and the
# RELOPT_BENCH_JSON_DIR dump paths, without benchmark-scale runtime. The
# binary itself asserts identical page reads / result rows across batch
# sizes.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-asan/bench/bench_vectorized 2000

echo "== bench_expr smoke (asan) =="
# Tiny row count: drives the compiled batch expression engine (arithmetic,
# CASE, OR-chains, NULL/string functions, expression sort and group keys)
# under ASAN. The binary itself asserts identical page reads / result rows
# between batch size 1 and larger batches.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-asan/bench/bench_expr 2000

echo "== bench_aggregate smoke (asan) =="
# Tiny row count: exercises the partitioned hash aggregation matrix (grouped
# low/high cardinality + global, batch 1/1024 x parallelism 1/2/4) under ASAN.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-asan/bench/bench_aggregate 2000

echo "== bench_parallel_scan smoke (asan) =="
# 20k rows (152 pages) through a 51-page pool at parallelism 1/2/4/8: morsel
# workers fault, evict and wait on each other's page loads concurrently.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-asan/bench/bench_parallel_scan 20000

echo "== bench_serving smoke (asan) =="
# Tiny query count: drives the multi-session serving harness (1/2/4/8
# sessions, prepared + text modes, plan cache on vs off) under ASAN. The
# binary itself asserts zero errors, nonzero cache hits when enabled, and
# checksum equality between cache-on and cache-off runs.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-asan/bench/bench_serving 20

echo "== metrics smoke (asan) =="
# Corpus attribution check: the global MetricsRegistry page-I/O counters must
# match the per-statement deltas and the summed EXPLAIN ANALYZE attribution
# across the differential corpus, batch 1/1024 x parallelism 1/2/4/8.
./build-asan/tests/relopt_tests \
  --gtest_filter='*IntrospectionMatrixTest*:IntrospectionTest.*'

echo "== feedback smoke (asan) =="
# Cardinality-feedback loop under ASAN: store semantics, harvest/override
# round trips, plan-cache re-optimization, and the feedback-on-vs-off
# differential corpus (results may never change, only plans).
./build-asan/tests/relopt_tests --gtest_filter='*Feedback*'

echo "== bench_feedback smoke (asan) =="
# Tiny row count: drives all four cardinality arms (nostats / estimates /
# feedback x1 / converged) and asserts identical results with the converged
# plan reading no more pages than the estimate-picked one.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-asan/bench/bench_feedback 2000

echo "== bench_join_order smoke (asan) =="
# Shrunk sweeps: DPccp vs DP-bushy cost parity on every topology, the chain
# scaling comparison, and the clique budget-fallback ladder. The binary
# itself asserts cost equality and the expected ladder strategies.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-asan/bench/bench_join_order smoke

echo "== tsan build (concurrency tests) =="
# JoinMethodMatrix runs Gather at parallelism 4 over every join method;
# VectorEval drives the kernels; StatementRobustness raises a hash-join
# residual's overflow inside Gather workers. SessionConcurrency
# includes PlanningRacesIndexSplits: sessions plan against the B+tree height
# and leaf counters while another session's inserts split the tree.
cmake -B build-tsan -S . -DRELOPT_TSAN=ON >/dev/null
cmake --build build-tsan -j "$JOBS"
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'ThreadPool|BufferPoolStress|ParallelDifferential|Vectorized|Aggregate|Metrics|QueryHistory|Introspection|LoggingConcurrency|PlanCache|PreparedStatement|SessionConcurrency|SessionHistory|Feedback|JoinMethodMatrix|VectorEval|StatementRobustness'

echo "== metrics smoke (tsan) =="
# Same attribution check with instrumented atomics: counter updates come from
# Gather worker threads, so the agreement also proves quiesce-before-capture.
./build-tsan/tests/relopt_tests \
  --gtest_filter='*IntrospectionMatrixTest*:*LoggingConcurrencyTest*'

echo "== bench_vectorized smoke (tsan) =="
# The par2 block drives whole batches through Gather worker threads; TSan
# checks the batch hand-off and the PageCursor shared-latch discipline.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-tsan/bench/bench_vectorized 2000

echo "== bench_expr smoke (tsan) =="
# The expression corpus under instrumented atomics: compiled kernels run
# inside Gather workers.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-tsan/bench/bench_expr 2000

echo "== bench_aggregate smoke (tsan) =="
# Parallel rows accumulate into per-worker partitions and merge across the
# barrier; TSan checks the shared-state hand-off and the disjoint merge/emit.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-tsan/bench/bench_aggregate 2000

echo "== bench_parallel_scan smoke (tsan) =="
# Concurrent misses, evictions and load waits through SeqScan workers: TSan checks
# that page bytes copied outside the pool mutex are published by the frame's
# load state before any other pinner reads them.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-tsan/bench/bench_parallel_scan 20000

echo "== bench_serving smoke (tsan) =="
# Up to 8 sessions hammer the shared plan cache, statement lock, and query
# history concurrently; TSan checks every cross-session hand-off.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-tsan/bench/bench_serving 20

echo "== bench_feedback smoke (tsan) =="
# The shared FeedbackStore takes concurrent record/lookup traffic from the
# harvest and optimize paths; TSan checks the store's locking discipline.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-tsan/bench/bench_feedback 2000

echo "== bench_join_order smoke (tsan) =="
# The enumeration is single-threaded; this run covers the metrics-export
# atomics the optimizer feeds after each planned statement.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-tsan/bench/bench_join_order smoke

echo "All checks passed."
