// A1 — Partitioned hash aggregation: batch 1 vs 1024, serial vs morsel-parallel.
//
// Grouped (low- and high-cardinality keys) and global aggregates over a
// ~200k-row table, executed in the full mode matrix: serial batch 1
// (baseline: one row per pull), serial batch 1024, and parallelism 2/4 at
// both batch sizes. Expected shape: batch 1024 amortizes the per-call
// iterator overhead and evaluates group keys
// through the multi-column key kernel, giving >=1.5x on grouped aggregation
// even on one hardware thread; high-cardinality grouping gains less (the hash
// table dominates, not the drive loop). Parallel speedup ON MULTI-CORE
// HARDWARE adds on top of that via per-worker partitions and a disjoint
// merge; on a single hardware thread the parallel rows are flat-to-slightly-
// negative — the partition/barrier machinery costs a few percent with nothing
// to run concurrently — and the printed `hw_threads` column makes that
// context explicit. Page reads and result rows are identical across all
// modes by construction (every mode pins one page at a time through the same
// scan); the run fails otherwise.
// The optional argv[1] overrides the row count (tiny values = sanitizer
// smoke runs).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "workload/generator.h"

using namespace relopt;
using namespace relopt::bench;

namespace {

struct RunPoint {
  std::string query_label;
  std::string mode;  // "batch1", "batch1024"
  size_t parallelism = 1;
  size_t batch_size = 1;
  double ms = 0;
  uint64_t reads = 0;
  uint64_t rows = 0;
  double speedup = 1.0;  // serial_batch1_ms / ms
};

void DumpSummary(const std::vector<RunPoint>& points, size_t table_rows,
                 unsigned hw_threads) {
  const char* dir = std::getenv("RELOPT_BENCH_JSON_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::string path = std::string(dir) + "/aggregate_summary.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"table_rows\":%zu,\"hardware_threads\":%u,\"points\":[", table_rows,
               hw_threads);
  for (size_t i = 0; i < points.size(); ++i) {
    const RunPoint& p = points[i];
    std::fprintf(f,
                 "%s{\"query\":\"%s\",\"mode\":\"%s\",\"parallelism\":%zu,"
                 "\"batch_size\":%zu,\"ms\":%.3f,\"page_reads\":%llu,\"rows\":%llu,"
                 "\"speedup_vs_serial_batch1\":%.3f}",
                 i == 0 ? "" : ",", p.query_label.c_str(), p.mode.c_str(), p.parallelism,
                 p.batch_size, p.ms, static_cast<unsigned long long>(p.reads),
                 static_cast<unsigned long long>(p.rows), p.speedup);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

Measured BestOf3(Database* db, const std::string& sql) {
  Measured best;
  for (int rep = 0; rep < 3; ++rep) {
    Measured m = RunMeasured(db, sql);
    if (rep == 0 || m.millis < best.millis) best = m;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  size_t table_rows = 200000;
  if (argc > 1) table_rows = static_cast<size_t>(std::strtoull(argv[1], nullptr, 10));
  if (table_rows == 0) table_rows = 200000;
  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());

  std::printf(
      "A1: partitioned hash aggregation -- %zu-row table, grouped (low/high\n"
      "cardinality) and global aggregates, serial batch 1 baseline vs batch\n"
      "1024 vs parallelism 2/4 at both batch sizes. hw_threads=%u: parallel\n"
      "rows only beat serial when that is > 1; the batch-size speedup is\n"
      "thread-count independent. Page reads and rows are identical across\n"
      "modes.\n\n",
      table_rows, hw_threads);

  SessionOptions options;
  options.buffer_pool_pages = 512;
  Database db(options);

  // g_low: ~10 groups (fits in cache, drive loop dominates). g_high: ~1/4 of
  // the table distinct (hash-table growth and key encoding dominate). v: the
  // aggregated payload.
  TableSpec big;
  big.name = "big";
  big.num_rows = table_rows;
  big.columns = {ColumnSpec::Serial("id"), ColumnSpec::Uniform("g_low", 0, 9),
                 ColumnSpec::Uniform("g_high", 0, static_cast<int64_t>(table_rows / 4)),
                 ColumnSpec::Uniform("v", 0, 10000)};
  CheckOk(GenerateTable(&db, big));

  struct QuerySpec {
    const char* label;
    const char* sql;
  };
  const QuerySpec kQueries[] = {
      {"group_low", "SELECT g_low, count(*), sum(v), min(v), max(v) FROM big GROUP BY g_low"},
      {"group_high", "SELECT g_high, count(*), sum(v) FROM big GROUP BY g_high"},
      {"group_multi", "SELECT g_low, g_high % 100, count(*), avg(v) FROM big "
                      "GROUP BY g_low, g_high % 100"},
      {"global", "SELECT count(*), sum(v), min(v), max(v), avg(v) FROM big"},
  };
  const size_t kParallelisms[] = {1, 2, 4};

  std::vector<RunPoint> points;
  TablePrinter table(
      {"query", "mode", "par", "ms", "reads", "rows", "speedup_vs_serial_batch1"});
  double headline_speedup = 0;  // group_low @ serial batch 1024

  for (const QuerySpec& q : kQueries) {
    Measured base;  // serial batch 1
    for (size_t par : kParallelisms) {
      db.set_parallelism(par);
      for (size_t bs : {size_t{1}, size_t{1024}}) {
        db.set_batch_size(bs);
        Measured m = BestOf3(&db, q.sql);
        if (par == 1 && bs == 1) base = m;
        if (m.actual_reads != base.actual_reads || m.rows != base.rows) {
          std::fprintf(stderr,
                       "FATAL: %s @ parallelism %zu batch %zu: %llu reads / %llu rows vs "
                       "%llu / %llu at serial batch 1\n",
                       q.label, par, bs, static_cast<unsigned long long>(m.actual_reads),
                       static_cast<unsigned long long>(m.rows),
                       static_cast<unsigned long long>(base.actual_reads),
                       static_cast<unsigned long long>(base.rows));
          return 1;
        }
        double speedup = m.millis > 0 ? base.millis / m.millis : 0;
        const std::string mode = "batch" + std::to_string(bs);
        points.push_back({q.label, mode, par, bs, m.millis, m.actual_reads, m.rows, speedup});
        table.AddRow({q.label, mode, FInt(par), F(m.millis, 2), FInt(m.actual_reads),
                      FInt(m.rows), F(speedup, 2)});
        if (std::string(q.label) == "group_low" && par == 1 && bs == 1024) {
          headline_speedup = speedup;
          MaybeDumpProfile(m, "aggregate_group_low_batch1024");
        }
        if (par == 1 && bs == 1) {
          MaybeDumpProfile(m, std::string("aggregate_") + q.label + "_batch1");
        }
        if (std::string(q.label) == "group_low" && par == 4 && bs == 1024) {
          MaybeDumpProfile(m, "aggregate_group_low_par4_batch1024");
        }
      }
    }
    db.set_parallelism(1);
    db.set_batch_size(TupleBatch::kDefaultCapacity);
  }

  table.Print();
  std::printf(
      "\nheadline: low-cardinality grouped aggregation @ serial batch 1024 is "
      "%.2fx the serial batch 1 baseline (hw_threads=%u)\n",
      headline_speedup, hw_threads);
  DumpSummary(points, table_rows, hw_threads);
  return 0;
}
