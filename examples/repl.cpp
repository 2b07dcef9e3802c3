// Interactive SQL shell over the engine.
//
//   ./build/examples/repl
//
// Meta-commands:
//   \help               this text
//   \tables             list tables (with row/page counts)
//   \stats <table>      show ANALYZE statistics
//   \metrics            counters from the last query
//   \mode <dp|dpccp|leftdeep|greedy|exhaustive|random|worst|simpli2|naive>   optimizer mode
//   \stats_mode <nostats|systemr|histogram>                    estimation mode
//   \feedback <on|off>  cardinality feedback (harvest actuals, reuse next time)
//   \parallel <n>       worker threads for SELECT execution (1 = serial)
//   \demo               load a small demo dataset
//   \quit
//
// Everything else is SQL (multi-statement scripts separated by ';' work).
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "engine/database.h"
#include "util/str_util.h"

using namespace relopt;

namespace {

void PrintHelp() {
  std::cout <<
      "SQL: CREATE TABLE/INDEX, INSERT, DELETE, ANALYZE, SELECT, EXPLAIN [ANALYZE]\n"
      "  \\help  \\tables  \\stats <t>  \\metrics  \\demo  \\quit\n"
      "  \\mode <dp|dpccp|leftdeep|greedy|exhaustive|random|worst|simpli2|naive>\n"
      "  \\stats_mode <nostats|systemr|histogram>\n"
      "  \\feedback <on|off>   cardinality feedback (see relopt_feedback())\n"
      "  \\parallel <n>   worker threads for SELECT execution (1 = serial)\n";
}

void PrintTables(Database* db) {
  for (const std::string& name : db->catalog()->TableNames()) {
    TableInfo* table = *db->catalog()->GetTable(name);
    std::cout << "  " << name << table->schema().ToString() << "  rows=" << table->live_rows()
              << " pages=" << table->heap()->NumPages();
    if (!table->indexes().empty()) {
      std::cout << "  indexes:";
      for (IndexInfo* idx : table->indexes()) {
        std::cout << " " << idx->KeyDescription(table->schema())
                  << (idx->clustered ? " [clustered]" : "");
      }
    }
    std::cout << "\n";
  }
}

void PrintStats(Database* db, const std::string& table_name) {
  Result<TableInfo*> table = db->catalog()->GetTable(table_name);
  if (!table.ok()) {
    std::cout << table.status().ToString() << "\n";
    return;
  }
  if (!(*table)->has_stats()) {
    std::cout << "no statistics; run ANALYZE " << table_name << "\n";
    return;
  }
  std::cout << (*table)->stats().ToString((*table)->schema()) << "\n";
}

void PrintMetrics(const ExecutionMetrics& m, const PlanProfile& profile) {
  const OperatorProfile& root = profile.root;
  std::cout << "rows=" << root.stats.rows_produced << " (est " << root.est_rows
            << ")  page_reads=" << m.io.page_reads << " page_writes=" << m.io.page_writes
            << "  pool hits/misses=" << m.pool.hits << "/" << m.pool.misses
            << "  tuples=" << m.tuples_processed << "  est_cost=" << root.est_cost.Total()
            << " (io=" << root.est_cost.page_ios << " cpu=" << root.est_cost.cpu_tuples << ")\n";
}

bool SetMode(Database* db, const std::string& mode) {
  OptimizerOptions& opt = db->options().optimizer;
  opt.naive = false;
  if (mode == "dp") {
    opt.join.algorithm = JoinEnumAlgorithm::kDpBushy;
  } else if (mode == "dpccp") {
    opt.join.algorithm = JoinEnumAlgorithm::kDpCcp;
  } else if (mode == "leftdeep") {
    opt.join.algorithm = JoinEnumAlgorithm::kDpLeftDeep;
  } else if (mode == "greedy") {
    opt.join.algorithm = JoinEnumAlgorithm::kGreedy;
  } else if (mode == "exhaustive") {
    opt.join.algorithm = JoinEnumAlgorithm::kExhaustive;
  } else if (mode == "random") {
    opt.join.algorithm = JoinEnumAlgorithm::kRandom;
  } else if (mode == "worst") {
    opt.join.algorithm = JoinEnumAlgorithm::kWorst;
  } else if (mode == "simpli2") {
    opt.join.algorithm = JoinEnumAlgorithm::kSimpliSquared;
  } else if (mode == "naive") {
    opt.naive = true;
  } else {
    return false;
  }
  return true;
}

bool SetStatsMode(Database* db, const std::string& mode) {
  if (mode == "nostats") {
    db->options().optimizer.stats_mode = StatsMode::kNoStats;
  } else if (mode == "systemr") {
    db->options().optimizer.stats_mode = StatsMode::kSystemR;
  } else if (mode == "histogram") {
    db->options().optimizer.stats_mode = StatsMode::kHistogram;
  } else {
    return false;
  }
  return true;
}

const char* kDemoScript = R"sql(
CREATE TABLE emp (id INT, name TEXT, dept_id INT, salary INT);
CREATE TABLE dept (id INT, dname TEXT);
INSERT INTO dept VALUES (0,'eng'), (1,'sales'), (2,'ops'), (3,'hr');
INSERT INTO emp VALUES
  (0,'ada',0,9100), (1,'brian',0,8200), (2,'cliff',1,4100), (3,'dana',1,4600),
  (4,'erin',2,5200), (5,'fred',2,5000), (6,'gina',3,3900), (7,'hugo',0,7800),
  (8,'iris',1,4300), (9,'jack',2,5500);
CREATE INDEX idx_emp_dept ON emp (dept_id);
ANALYZE;
)sql";

}  // namespace

int main() {
  Database db;
  std::cout << "relopt SQL shell -- \\help for commands, \\demo for sample data\n";

  std::string line;
  std::string pending;
  while (true) {
    std::cout << (pending.empty() ? "sql> " : "...> ") << std::flush;
    if (!std::getline(std::cin, line)) break;
    std::string trimmed(Trim(line));
    if (trimmed.empty()) continue;

    if (trimmed[0] == '\\') {
      std::istringstream iss(trimmed.substr(1));
      std::string cmd, arg;
      iss >> cmd >> arg;
      if (cmd == "quit" || cmd == "q") break;
      if (cmd == "help") {
        PrintHelp();
      } else if (cmd == "tables") {
        PrintTables(&db);
      } else if (cmd == "stats") {
        PrintStats(&db, arg);
      } else if (cmd == "metrics") {
        PrintMetrics(db.last_metrics(), db.last_profile());
      } else if (cmd == "demo") {
        Result<QueryResult> r = db.Execute(kDemoScript);
        std::cout << (r.ok() ? "demo data loaded (emp, dept)\n" : r.status().ToString() + "\n");
      } else if (cmd == "mode") {
        std::cout << (SetMode(&db, arg) ? "ok\n" : "unknown mode '" + arg + "'\n");
      } else if (cmd == "stats_mode") {
        std::cout << (SetStatsMode(&db, arg) ? "ok\n" : "unknown stats mode '" + arg + "'\n");
      } else if (cmd == "feedback") {
        if (arg == "on" || arg == "off") {
          db.set_cardinality_feedback(arg == "on");
          std::cout << "cardinality feedback " << arg << "\n";
        } else {
          std::cout << "usage: \\feedback <on|off>\n";
        }
      } else if (cmd == "parallel") {
        int n = std::atoi(arg.c_str());
        if (n >= 1) {
          db.set_parallelism(static_cast<size_t>(n));
          std::cout << "parallelism set to " << n << "\n";
        } else {
          std::cout << "usage: \\parallel <n >= 1>\n";
        }
      } else {
        std::cout << "unknown command; \\help\n";
      }
      continue;
    }

    // Accumulate SQL until a terminating semicolon.
    pending += line;
    pending += "\n";
    if (trimmed.back() != ';') continue;
    std::string sql;
    sql.swap(pending);

    Result<QueryResult> result = db.Execute(sql);
    if (!result.ok()) {
      std::cout << result.status().ToString() << "\n";
      continue;
    }
    if (result->schema.NumColumns() > 0 || !result->rows.empty()) {
      std::cout << result->ToString();
    } else {
      std::cout << "ok\n";
    }
  }
  return 0;
}
