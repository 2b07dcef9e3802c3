// P1 — Morsel-driven parallel scaling.
//
// A scan-heavy filter and a hash join over a ~200k-row table, executed at
// parallelism 1/2/4/8. Expected shape ON MULTI-CORE HARDWARE: near-linear
// scan speedup to the physical core count, then flat; the join scales less
// (shared build barrier + probe table construction). On a single hardware
// thread the curve is flat-to-slightly-negative — the parallel machinery
// (pool handoffs, queue locking) costs a few percent with nothing to run
// concurrently; the printed `hw_threads` column makes that context explicit.
// The optional argv[1] overrides the row count (tiny values = sanitizer smoke
// runs); the pool scales with it, so every scan faults and evicts pages
// concurrently at any size.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.h"
#include "workload/generator.h"

using namespace relopt;
using namespace relopt::bench;

namespace {

struct RunPoint {
  std::string query_label;
  size_t parallelism = 1;
  double ms = 0;
  uint64_t reads = 0;
  uint64_t rows = 0;
  double speedup = 1.0;
};

void DumpSummary(const std::vector<RunPoint>& points, unsigned hw_threads, size_t table_rows,
                 size_t pool_pages) {
  const char* dir = std::getenv("RELOPT_BENCH_JSON_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::string path = std::string(dir) + "/parallel_scan_summary.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"hardware_threads\":%u,\"table_rows\":%zu,\"pool_pages\":%zu,\"points\":[",
               hw_threads, table_rows, pool_pages);
  for (size_t i = 0; i < points.size(); ++i) {
    const RunPoint& p = points[i];
    std::fprintf(f,
                 "%s{\"query\":\"%s\",\"parallelism\":%zu,\"ms\":%.3f,"
                 "\"page_reads\":%llu,\"rows\":%llu,\"speedup\":%.3f}",
                 i == 0 ? "" : ",", p.query_label.c_str(), p.parallelism, p.ms,
                 static_cast<unsigned long long>(p.reads),
                 static_cast<unsigned long long>(p.rows), p.speedup);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  size_t table_rows = 200000;
  if (argc > 1) table_rows = static_cast<size_t>(std::strtoull(argv[1], nullptr, 10));
  if (table_rows == 0) table_rows = 200000;
  // About a third of `big` (512 of its 1516 pages at 200k rows); at least
  // two frames per worker at parallelism 8.
  const size_t pool_pages = std::max<size_t>(16, table_rows * 512 / 200000);

  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf(
      "P1: morsel-driven parallel scaling -- %zu-row scan + join at "
      "parallelism 1/2/4/8, %zu-page pool.\nhardware threads: %u  (speedup "
      "saturates at the physical core count;\non a 1-thread host the parallel "
      "engine can only break even)\n\n",
      table_rows, pool_pages, hw_threads);

  SessionOptions options;
  options.buffer_pool_pages = pool_pages;
  Database db(options);

  TableSpec big;
  big.name = "big";
  big.num_rows = table_rows;
  big.columns = {ColumnSpec::Serial("id"), ColumnSpec::Uniform("k", 0, 999),
                 ColumnSpec::Uniform("pad", 0, 1000000)};
  CheckOk(GenerateTable(&db, big));

  TableSpec dim;
  dim.name = "dim";
  dim.num_rows = 1000;
  dim.columns = {ColumnSpec::Serial("id"), ColumnSpec::Uniform("v", 0, 100)};
  dim.seed = 99;
  CheckOk(GenerateTable(&db, dim));

  struct QuerySpec {
    const char* label;
    const char* sql;
  };
  const QuerySpec kQueries[] = {
      {"scan_filter", "SELECT count(*) FROM big WHERE pad < 500000"},
      {"hash_join", "SELECT count(*) FROM big, dim WHERE big.k = dim.id"},
  };

  std::vector<RunPoint> points;
  TablePrinter table({"query", "parallelism", "ms", "reads", "rows", "speedup", "hw_threads"});
  for (const QuerySpec& q : kQueries) {
    double serial_ms = 0;
    for (size_t par : {1, 2, 4, 8}) {
      db.set_parallelism(par);
      // Median-ish of 3: the first run also warms allocator state.
      Measured best;
      for (int rep = 0; rep < 3; ++rep) {
        Measured m = RunMeasured(&db, q.sql);
        if (rep == 0 || m.millis < best.millis) best = m;
      }
      if (par == 1) serial_ms = best.millis;
      RunPoint p;
      p.query_label = q.label;
      p.parallelism = par;
      p.ms = best.millis;
      p.reads = best.actual_reads;
      p.rows = best.rows;
      p.speedup = best.millis > 0 ? serial_ms / best.millis : 0;
      points.push_back(p);
      table.AddRow({q.label, FInt(par), F(best.millis, 2), FInt(best.actual_reads),
                    FInt(best.rows), F(p.speedup, 2), FInt(hw_threads)});
      MaybeDumpProfile(best, std::string("parallel_") + q.label + "_p" + std::to_string(par));
    }
  }
  db.set_parallelism(1);
  table.Print();
  DumpSummary(points, hw_threads, table_rows, pool_pages);
  return 0;
}
