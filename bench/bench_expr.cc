// E1 — Batch expression engine: batch size 1 vs 64/1024.
//
// Expression-heavy queries over a ~200k-row table: nested arithmetic,
// OR-chains, CASE, NULL-handling functions (coalesce/nullif/IS NULL), string
// functions, expression sort keys, and expression group keys. Each query runs
// at batch size 1 (one row per kernel call, the baseline) and at 64/1024.
// Expected shape: compiled column kernels amortize per-call dispatch over the
// batch, so the deeper the expression tree, the bigger the win. Page reads
// and result rows must be identical across batch sizes. The optional argv[1]
// overrides the row count (tiny values = sanitizer smoke runs).
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
  std::string mode;  // "batch1", "batch64", "batch1024"
  size_t batch_size = 1;
  double ms = 0;
  uint64_t reads = 0;
  uint64_t rows = 0;
  double speedup = 1.0;  // batch1_ms / ms
};

void DumpSummary(const std::vector<RunPoint>& points, size_t table_rows) {
  const char* dir = std::getenv("RELOPT_BENCH_JSON_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::string path = std::string(dir) + "/expr_summary.json";
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
      "E1: batch expression engine -- %zu-row table, expression-heavy\n"
      "queries at batch sizes 64/1024 vs batch size 1. Identical page reads\n"
      "and rows.\n\n",
      table_rows);

  SessionOptions options;
  options.buffer_pool_pages = 512;
  Database db(options);

  TableSpec t;
  t.name = "t";
  t.num_rows = table_rows;
  ColumnSpec n = ColumnSpec::Uniform("n", 0, 999);
  n.null_fraction = 0.5;
  ColumnSpec s;
  s.name = "s";
  s.type = TypeId::kString;
  s.dist = ColumnDist::kRandomString;
  s.string_length = 12;
  t.columns = {ColumnSpec::Serial("id"), ColumnSpec::Uniform("a", 0, 1000000),
               ColumnSpec::Uniform("b", 0, 999), n, s};
  CheckOk(GenerateTable(&db, t));

  struct QuerySpec {
    const char* label;
    std::string sql;
  };
  const QuerySpec kQueries[] = {
      {"nested_arith", "SELECT id, (a * 3 + b) * 2 - a / 4 FROM t"},
      {"or_chain", "SELECT id FROM t WHERE b < 50 OR b > 950 OR a % 97 = 0 OR id = 12345"},
      {"case_project",
       "SELECT id, CASE WHEN a > 750000 THEN 3 WHEN a > 500000 THEN 2 "
       "WHEN a > 250000 THEN 1 ELSE 0 END FROM t"},
      {"null_funcs",
       "SELECT count(*), sum(coalesce(n, 0 - 1)) FROM t WHERE n IS NULL OR n > 500"},
      {"string_funcs", "SELECT length(s), upper(s) FROM t WHERE lower(s) < 'm'"},
      {"expr_sort_key", "SELECT id FROM t ORDER BY a % 1000 ASC, id ASC LIMIT 100"},
      {"expr_group_key", "SELECT a % 16, count(*), sum(b) FROM t GROUP BY a % 16"},
  };
  const size_t kBatchSizes[] = {1, 64, 1024};  // the first is the baseline

  std::vector<RunPoint> points;
  TablePrinter table({"query", "mode", "ms", "reads", "rows", "speedup_vs_batch1"});
  double headline_speedup = 0;  // nested_arith @ 1024

  for (const QuerySpec& q : kQueries) {
    Measured base;
    for (size_t bs : kBatchSizes) {
      db.set_batch_size(bs);
      Measured vec = BestOf3(&db, q.sql);
      if (bs == kBatchSizes[0]) base = vec;
      double speedup = vec.millis > 0 ? base.millis / vec.millis : 0;
      std::string mode = "batch" + std::to_string(bs);
      points.push_back({q.label, mode, bs, vec.millis, vec.actual_reads, vec.rows, speedup});
      table.AddRow({q.label, mode, F(vec.millis, 2), FInt(vec.actual_reads), FInt(vec.rows),
                    F(speedup, 2)});
      if (bs == 1) MaybeDumpProfile(vec, std::string("expr_") + q.label + "_batch1");
      if (std::string(q.label) == "nested_arith" && bs == 1024) {
        headline_speedup = speedup;
        MaybeDumpProfile(vec, "expr_nested_arith_batch1024");
      }
      if (vec.actual_reads != base.actual_reads) {
        std::fprintf(stderr,
                     "FATAL: page reads diverged on %s (%llu batch1 vs %llu batch%zu)\n",
                     q.label, static_cast<unsigned long long>(base.actual_reads),
                     static_cast<unsigned long long>(vec.actual_reads), bs);
        return 1;
      }
      if (vec.rows != base.rows) {
        std::fprintf(stderr, "FATAL: result rows diverged on %s\n", q.label);
        return 1;
      }
    }
    db.set_batch_size(TupleBatch::kDefaultCapacity);
  }

  table.Print();
  std::printf("\nheadline: nested arithmetic @ batch 1024 is %.2fx batch 1\n",
              headline_speedup);
  DumpSummary(points, table_rows);
  MaybeDumpMetricsSnapshot();
  return 0;
}
