// The shared differential query corpus, used by the differential harnesses
// (serial-vs-parallel, batch-size, join-method) so every query is exercised
// across the full execution-mode matrix: parallelism x batch size.
#pragma once

#include <cstdlib>
#include <string>

#include "test_util.h"
#include "workload/queries.h"

namespace relopt {
namespace tu {

/// The spec the differential fixture builds every join-topology workload
/// with. Small tables: the point is plan-shape diversity across execution
/// modes, not data volume. Shared with the drift guard in join_order_test.cc
/// that pins the builder output to the literals below.
inline JoinWorkloadSpec DifferentialJoinSpec(const char* prefix) {
  JoinWorkloadSpec spec;
  spec.num_relations = 4;
  spec.base_rows = 30;
  spec.growth = 1.5;
  spec.dim_rows = 10;
  spec.seed = 7;
  spec.prefix = prefix;
  return spec;
}

/// Builder output for each topology under DifferentialJoinSpec, pinned as
/// literals so the corpus below stays greppable. join_order_test.cc fails if
/// the builders drift from these strings.
inline constexpr const char* kJwChainQuery =
    "SELECT count(*) FROM jw_c0, jw_c1, jw_c2, jw_c3 WHERE jw_c0.fk = jw_c1.id "
    "AND jw_c1.fk = jw_c2.id AND jw_c2.fk = jw_c3.id";
inline constexpr const char* kJwStarQuery =
    "SELECT count(*) FROM jw_s_fact, jw_s_dim0, jw_s_dim1, jw_s_dim2 WHERE "
    "jw_s_fact.d0 = jw_s_dim0.id AND jw_s_fact.d1 = jw_s_dim1.id AND "
    "jw_s_fact.d2 = jw_s_dim2.id";
inline constexpr const char* kJwCycleQuery =
    "SELECT count(*) FROM jw_y0, jw_y1, jw_y2, jw_y3 WHERE jw_y0.fk = jw_y1.id "
    "AND jw_y1.fk = jw_y2.id AND jw_y2.fk = jw_y3.id AND jw_y3.fk = jw_y0.id";
inline constexpr const char* kJwCliqueQuery =
    "SELECT count(*) FROM jw_q0, jw_q1, jw_q2, jw_q3 WHERE jw_q0.k = jw_q1.k "
    "AND jw_q0.k = jw_q2.k AND jw_q0.k = jw_q3.k AND jw_q1.k = jw_q2.k AND "
    "jw_q1.k = jw_q3.k AND jw_q2.k = jw_q3.k";
inline constexpr const char* kJwRandomQuery =
    "SELECT count(*) FROM jw_r0, jw_r1, jw_r2, jw_r3 WHERE jw_r1.fk0 = jw_r0.id "
    "AND jw_r2.fk0 = jw_r0.id AND jw_r3.fk0 = jw_r0.id";

/// Loads the fixture both differential suites run against:
///   emp(id, name, dept_id, salary)  — 300 rows, 10 departments
///   dept(id, dname)                 — 10 rows
///   empty_t(x, y)                   — no rows
///   nulls_t(a, b)                   — 90 rows, two thirds of `b` NULL
/// plus one tiny generated join workload per topology (jw_c* chain, jw_s*
/// star, jw_y* cycle, jw_q* clique, jw_r* random), with stats analyzed.
/// `with_indexes` adds B+trees on emp(id), emp(dept_id), dept(id) and on
/// every jw_* table's id, so index scans and index nested loops can plan.
inline void LoadDifferentialFixture(Database* db, bool with_indexes = false) {
  LoadEmpDept(db, 300, 10);
  if (with_indexes) {
    Sql(db, "CREATE INDEX emp_id ON emp (id)");
    Sql(db, "CREATE INDEX emp_dept_id ON emp (dept_id)");
    Sql(db, "CREATE INDEX dept_id ON dept (id)");
  }
  struct {
    JoinTopology topology;
    const char* prefix;
  } workloads[] = {{JoinTopology::kChain, "jw_c"},
                   {JoinTopology::kStar, "jw_s"},
                   {JoinTopology::kCycle, "jw_y"},
                   {JoinTopology::kClique, "jw_q"},
                   {JoinTopology::kRandom, "jw_r"}};
  for (const auto& w : workloads) {
    JoinWorkloadSpec spec = DifferentialJoinSpec(w.prefix);
    spec.with_indexes = with_indexes;
    Result<std::string> q = BuildJoinWorkload(db, w.topology, spec);
    if (!q.ok()) std::abort();  // fixture bug, not a test condition
  }
  Sql(db, "CREATE TABLE empty_t (x INT, y TEXT)");
  // A NULL-heavy table: two thirds of `b` are NULL, for predicate,
  // selection-vector, and NULL-group edge cases under three-valued logic.
  Sql(db, "CREATE TABLE nulls_t (a INT, b INT)");
  std::string insert = "INSERT INTO nulls_t VALUES ";
  for (int i = 0; i < 90; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", " +
              (i % 3 == 0 ? std::to_string(i * 10) : std::string("NULL")) + ")";
  }
  Sql(db, insert);
  Sql(db, "ANALYZE");
}

/// The e2e query corpus: scans, filters, projections, equi- and non-equi
/// joins, multi-way joins, grouped and global aggregates (NULL groups, empty
/// input, HAVING, expression keys), DISTINCT, ORDER BY, LIMIT, and degenerate
/// inputs. Everything a user-facing SELECT can reach.
const char* const kDifferentialQueries[] = {
    "SELECT * FROM emp",
    "SELECT id, salary FROM emp WHERE salary > 3000",
    "SELECT id, salary * 2 + 1 FROM emp WHERE id < 50",
    "SELECT id FROM emp WHERE salary < 1500 OR salary > 5500 OR id = 100",
    "SELECT count(*) FROM emp WHERE id BETWEEN 10 AND 19",
    "SELECT count(*) FROM emp WHERE dept_id IN (1, 3, 5)",
    "SELECT emp.name, dept.dname FROM emp, dept "
    "WHERE emp.dept_id = dept.id AND emp.salary > 3000",
    "SELECT count(*), sum(emp.salary) FROM emp, dept "
    "WHERE emp.dept_id = dept.id AND dept.id < 7",
    "SELECT e.id FROM emp e, dept d, emp e2 "
    "WHERE e.dept_id = d.id AND e2.dept_id = d.id AND e.id < 20 AND e2.id < 10",
    "SELECT e.id, e2.id FROM emp e, emp e2 "
    "WHERE e.id < 12 AND e2.id < 12 AND e.salary < e2.salary",
    "SELECT dept_id, count(*), sum(salary), min(salary), max(salary) "
    "FROM emp GROUP BY dept_id",
    "SELECT salary FROM emp ORDER BY salary DESC LIMIT 50",
    "SELECT dept_id, salary FROM emp ORDER BY dept_id ASC, salary DESC LIMIT 100",
    "SELECT DISTINCT dept_id FROM emp",
    "SELECT DISTINCT dname FROM emp, dept WHERE emp.dept_id = dept.id AND emp.salary > 3000",
    "SELECT id FROM emp LIMIT 5",
    "SELECT * FROM empty_t",
    "SELECT count(*) FROM empty_t",
    "SELECT e.name, d.dname FROM emp e, dept d WHERE e.dept_id = d.id AND e.name = d.dname",
    "SELECT dept_id, count(*) FROM emp WHERE salary > 2000 GROUP BY dept_id ORDER BY dept_id",
    // --- aggregate-focused additions (parallel partitioned aggregation) ----
    "SELECT dept_id, avg(salary) FROM emp GROUP BY dept_id",
    "SELECT b, count(*), sum(a), avg(a) FROM nulls_t GROUP BY b",
    "SELECT count(*), count(b), min(b), max(b), sum(b) FROM nulls_t",
    "SELECT dept_id, name, count(*) FROM emp GROUP BY dept_id, name",
    "SELECT dept_id FROM emp GROUP BY dept_id HAVING min(id) < 5",
    "SELECT sum(x), avg(x), min(y), count(*) FROM empty_t",
    "SELECT x, count(*) FROM empty_t GROUP BY x",
    "SELECT dept_id % 3, count(*), sum(salary) FROM emp GROUP BY dept_id % 3",
    "SELECT emp.dept_id, count(*), min(dept.dname) FROM emp, dept "
    "WHERE emp.dept_id = dept.id GROUP BY emp.dept_id",
    // --- expression-heavy additions (batch expression engine) --------------
    "SELECT id, (salary + id * 3) * 2 - salary / 4 FROM emp "
    "WHERE (salary - 1000) * 2 > id + 500",
    "SELECT id, salary / (id % 5) FROM emp WHERE id < 40",
    "SELECT id, CASE WHEN salary > 5000 THEN 'high' WHEN salary > 2500 THEN 'mid' "
    "ELSE 'low' END FROM emp",
    "SELECT CASE WHEN b IS NULL THEN 0 - 1 ELSE b / 10 END, count(*) FROM nulls_t "
    "GROUP BY CASE WHEN b IS NULL THEN 0 - 1 ELSE b / 10 END",
    "SELECT id FROM emp WHERE id % 7 = 0 OR salary % 10 = 3 "
    "OR (dept_id = 2 AND salary > 4000) OR name = 'e17'",
    "SELECT a, coalesce(b, a * 100, 7) FROM nulls_t "
    "WHERE nullif(a % 3, 0) IS NULL OR b IS NOT NULL",
    "SELECT upper(name), length(name) + id FROM emp WHERE lower(name) < 'e3'",
    "SELECT e.id, d.dname FROM emp e, dept d "
    "WHERE e.dept_id + 1 = d.id + 1 AND abs(e.salary - 3000) < 1500",
    "SELECT name, salary FROM emp ORDER BY salary % 1000 DESC, length(name) ASC, id ASC "
    "LIMIT 40",
    "SELECT dept_id, sum(CASE WHEN salary > 3000 THEN salary ELSE 0 END) FROM emp "
    "GROUP BY dept_id",
    // --- generated join-order workload, one query per topology -------------
    kJwChainQuery,
    kJwStarQuery,
    kJwCycleQuery,
    kJwCliqueQuery,
    kJwRandomQuery,
};

/// The GROUP BY / global aggregate subset, the target of the exact-profile
/// matrix checks (no LIMIT, fully consumed plans). The last one fails with a
/// SUM overflow, which every mode must report identically.
const char* const kAggregateQueries[] = {
    "SELECT dept_id, count(*), sum(salary), min(salary), max(salary) "
    "FROM emp GROUP BY dept_id",
    "SELECT dept_id, avg(salary) FROM emp GROUP BY dept_id",
    "SELECT b, count(*), sum(a), avg(a) FROM nulls_t GROUP BY b",
    "SELECT count(*), count(b), min(b), max(b), sum(b) FROM nulls_t",
    "SELECT dept_id, name, count(*) FROM emp GROUP BY dept_id, name",
    "SELECT dept_id FROM emp GROUP BY dept_id HAVING min(id) < 5",
    "SELECT sum(x), avg(x), min(y), count(*) FROM empty_t",
    "SELECT x, count(*) FROM empty_t GROUP BY x",
    "SELECT dept_id % 3, count(*), sum(salary) FROM emp GROUP BY dept_id % 3",
    "SELECT emp.dept_id, count(*), min(dept.dname) FROM emp, dept "
    "WHERE emp.dept_id = dept.id GROUP BY emp.dept_id",
    // ~2100 groups from 9000 joined rows: more groups than one batch holds
    // and than the group table starts with, so growth and multi-batch emit run.
    "SELECT e.id, e2.id % 7, count(*), sum(e2.salary), max(e2.name) FROM emp e, emp e2 "
    "WHERE e.dept_id = e2.dept_id GROUP BY e.id, e2.id % 7",
    // A self join that reads every emp column, TEXT included, on both
    // sides: whichever side builds spills, and its partitions outgrow a
    // 10-page pool (the join-method matrix's Grace case).
    "SELECT e.dept_id, count(*), max(e.name), max(e2.name), sum(e.salary + e2.salary), "
    "max(e.id - e2.id) FROM emp e, emp e2 WHERE e.dept_id = e2.dept_id GROUP BY e.dept_id",
    // String group keys with string MIN/MAX extremes.
    "SELECT dname, min(name), max(name), count(name) FROM emp, dept "
    "WHERE emp.dept_id = dept.id GROUP BY dname",
    // Double SUM and AVG (exact binary fractions, so summation order cannot
    // change a result).
    "SELECT dept_id, sum(salary * 0.5), avg(salary / 4.0), min(salary * 0.25) FROM emp "
    "GROUP BY dept_id",
    // A mixed int/double CASE argument to SUM.
    "SELECT dept_id, sum(CASE WHEN id % 2 = 0 THEN salary ELSE salary * 0.5 END) FROM emp "
    "GROUP BY dept_id",
    // Every addend fits in int64; their sum does not.
    "SELECT dept_id, sum(salary + 9223372036854000000) FROM emp GROUP BY dept_id",
};

/// Queries that must fail — and fail identically — in every execution mode.
const char* const kDifferentialFailingQueries[] = {
    "SELECT nope FROM emp",
    "SELECT * FROM missing_table",
    "SELECT id FROM emp ORDER BY",
    "SELECT DISTINCT dept_id FROM emp ORDER BY salary",
    "SELECT count(*) FROM (SELECT 1) sub",
    "SELECT sum(nope) FROM emp",
    "SELECT dept_id, count(*) FROM emp GROUP BY",
};

}  // namespace tu
}  // namespace relopt
