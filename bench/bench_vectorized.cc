// V1 — Batch-at-a-time execution: TupleBatch size 1 vs 64/1024.
//
// Full-table scan/filter/project/join/limit queries over a ~200k-row table,
// executed with TupleBatch sizes 1/64/1024. Batch size 1 pulls one row per
// NextBatch call, as a row-at-a-time Volcano loop does, and is the baseline.
// Expected shape: batch 1024 amortizes the per-call overhead (virtual
// NextBatch, timer, I/O-attribution switches) and the per-row deserialize
// allocations, giving >=2x on scan+filter+project pipelines. Page reads and
// result rows are identical across batch sizes by construction (every size
// pins one page at a time), and no row may go through a FallbackNode; the
// run fails otherwise. The optional argv[1] overrides the row count (tiny
// values = sanitizer smoke runs).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"
#include "workload/generator.h"

using namespace relopt;
using namespace relopt::bench;

namespace {

struct RunPoint {
  std::string query_label;
  std::string mode;  // "batch1", "batch64", ...
  size_t batch_size = 1;
  double ms = 0;
  uint64_t reads = 0;
  uint64_t rows = 0;
  double speedup = 1.0;  // batch1_ms / ms
};

uint64_t SumFallback(const OperatorProfile& p) {
  uint64_t total = p.stats.fallback_rows;
  for (const OperatorProfile& c : p.children) total += SumFallback(c);
  return total;
}

/// False (with a message) unless `m` read the same pages and returned the
/// same rows as the batch-1 baseline `base`, with no fallback rows.
bool MatchesBaseline(const std::string& label, size_t batch_size, const Measured& base,
                     const Measured& m) {
  if (m.actual_reads != base.actual_reads || m.rows != base.rows) {
    std::fprintf(stderr,
                 "FATAL: %s @ batch %zu read %llu pages / %llu rows vs %llu / %llu at batch 1\n",
                 label.c_str(), batch_size, static_cast<unsigned long long>(m.actual_reads),
                 static_cast<unsigned long long>(m.rows),
                 static_cast<unsigned long long>(base.actual_reads),
                 static_cast<unsigned long long>(base.rows));
    return false;
  }
  if (m.profile.valid && SumFallback(m.profile.root) != 0) {
    std::fprintf(stderr, "FATAL: %s @ batch %zu evaluated rows through a FallbackNode\n",
                 label.c_str(), batch_size);
    return false;
  }
  return true;
}

void DumpSummary(const std::vector<RunPoint>& points, size_t table_rows) {
  const char* dir = std::getenv("RELOPT_BENCH_JSON_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::string path = std::string(dir) + "/vectorized_summary.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"table_rows\":%zu,\"points\":[", table_rows);
  for (size_t i = 0; i < points.size(); ++i) {
    const RunPoint& p = points[i];
    std::fprintf(f,
                 "%s{\"query\":\"%s\",\"mode\":\"%s\",\"batch_size\":%zu,\"ms\":%.3f,"
                 "\"page_reads\":%llu,\"rows\":%llu,\"speedup_vs_batch1\":%.3f}",
                 i == 0 ? "" : ",", p.query_label.c_str(), p.mode.c_str(), p.batch_size, p.ms,
                 static_cast<unsigned long long>(p.reads),
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

  std::printf(
      "V1: batch execution -- %zu-row table, batch sizes 64/1024 vs batch\n"
      "size 1 (one row per pull). Identical page reads and rows across batch\n"
      "sizes; the speedup is pure per-call-overhead amortization.\n\n",
      table_rows);

  SessionOptions options;
  options.buffer_pool_pages = 512;
  Database db(options);

  TableSpec big;
  big.name = "big";
  big.num_rows = table_rows;
  big.columns = {ColumnSpec::Serial("id"), ColumnSpec::Uniform("k", 0, 999),
                 ColumnSpec::Uniform("pad", 0, 1000000)};
  CheckOk(GenerateTable(&db, big));

  TableSpec dim;
  dim.name = "dim";
  dim.num_rows = std::max<size_t>(1, std::min<size_t>(1000, table_rows / 10));
  dim.columns = {ColumnSpec::Serial("id"), ColumnSpec::Uniform("v", 0, 100)};
  dim.seed = 99;
  CheckOk(GenerateTable(&db, dim));

  struct QuerySpec {
    const char* label;
    std::string sql;
  };
  const QuerySpec kQueries[] = {
      {"scan_project", "SELECT id, k, pad FROM big"},
      {"scan_filter_project", "SELECT id, pad * 2 + 1 FROM big WHERE pad < 500000"},
      {"selective_filter", "SELECT id FROM big WHERE k < 100"},
      {"hash_join", "SELECT big.id, dim.v FROM big, dim WHERE big.k = dim.id"},
      {"limit", "SELECT id FROM big LIMIT " + std::to_string(std::min<size_t>(1000, table_rows))},
      // Expression-heavy section: deep trees through the compiled batch
      // expression engine (CASE, OR-chains, expression group keys). The
      // dedicated bench_expr binary covers the full expression corpus.
      {"expr_case_or",
       "SELECT id, CASE WHEN pad > 750000 THEN 3 WHEN pad > 500000 THEN 2 ELSE 1 END "
       "FROM big WHERE k < 200 OR k > 800 OR pad % 97 = 0"},
      {"expr_group_key", "SELECT k % 16, count(*), sum(pad) FROM big GROUP BY k % 16"},
  };
  const size_t kBatchSizes[] = {1, 64, 1024};  // the first is the baseline

  std::vector<RunPoint> points;
  TablePrinter table({"query", "mode", "ms", "reads", "rows", "speedup_vs_batch1"});
  double headline_speedup = 0;  // scan_filter_project @ 1024

  // Runs `sql` at each batch size against the batch-1 baseline.
  auto sweep = [&](const std::string& label, const std::string& sql,
                   std::initializer_list<size_t> batch_sizes) {
    Measured base;
    for (size_t bs : batch_sizes) {
      db.set_batch_size(bs);
      Measured m = BestOf3(&db, sql);
      if (bs == 1) base = m;
      if (!MatchesBaseline(label, bs, base, m)) std::exit(1);
      double speedup = m.millis > 0 ? base.millis / m.millis : 0;
      std::string mode = "batch" + std::to_string(bs);
      points.push_back({label, mode, bs, m.millis, m.actual_reads, m.rows, speedup});
      table.AddRow({label, mode, F(m.millis, 2), FInt(m.actual_reads), FInt(m.rows),
                    F(speedup, 2)});
      if (bs == 1) MaybeDumpProfile(m, "vectorized_" + label + "_batch1");
      if (label == "scan_filter_project" && bs == 1024) {
        headline_speedup = speedup;
        MaybeDumpProfile(m, "vectorized_scan_filter_project_batch1024");
      }
    }
    db.set_batch_size(TupleBatch::kDefaultCapacity);
  };
  for (const QuerySpec& q : kQueries) {
    sweep(q.label, q.sql, {kBatchSizes[0], kBatchSizes[1], kBatchSizes[2]});
  }

  // Batches + parallel composition: workers push whole batches through the
  // Gather. The point is that the two compose with identical I/O.
  db.set_parallelism(2);
  sweep("scan_filter_project_par2", kQueries[1].sql, {1, 1024});
  db.set_parallelism(1);

  table.Print();
  std::printf("\nheadline: scan+filter+project @ batch 1024 is %.2fx batch 1\n",
              headline_speedup);
  DumpSummary(points, table_rows);
  return 0;
}
