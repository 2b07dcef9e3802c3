// The 20 join shapes of perfbench's adhoc_joins workload, rebuilt for the
// planner tests that pin its costs and its page fetches.
#pragma once

#include <cstdlib>
#include <string>
#include <vector>

#include "workload/queries.h"

namespace relopt {
namespace tu {

/// Loads the adhoc_joins tables into `db` exactly as perfbench does for
/// `seed`: chain, star, cycle and random graphs of 4..8 relations, every
/// other shape indexed (shape 0 is). Returns one SQL prefix per shape; a
/// statement is the prefix followed by an integer literal, e.g. "100".
inline std::vector<std::string> LoadAdhocShapes(Database* db, uint64_t seed = 1) {
  const JoinTopology topologies[] = {JoinTopology::kChain, JoinTopology::kStar,
                                     JoinTopology::kCycle, JoinTopology::kRandom};
  const std::string head = "SELECT count(*)";
  std::vector<std::string> shapes;
  for (JoinTopology topology : topologies) {
    for (int n = 4; n <= 8; ++n) {
      const bool star = topology == JoinTopology::kStar;
      JoinWorkloadSpec spec;
      spec.num_relations = n;
      spec.base_rows = star ? 4000 : 100;
      spec.dim_rows = 50;
      spec.growth = 1.6;
      spec.seed = topology == JoinTopology::kRandom ? 7000 + n : seed * 1000 + shapes.size();
      spec.with_indexes = shapes.size() % 2 == 0;
      spec.prefix = std::string(JoinTopologyToString(topology)).substr(0, 2) +
                    std::to_string(n) + "t";
      Result<std::string> sql = BuildJoinWorkload(db, topology, spec);
      if (!sql.ok() || sql->rfind(head, 0) != 0) std::abort();  // fixture bug
      const std::string first = spec.prefix + (star ? "_fact" : "0");
      shapes.push_back("SELECT count(*), sum(" + first + ".val)" + sql->substr(head.size()) +
                       " AND " + first + ".val < ");
    }
  }
  return shapes;
}

}  // namespace tu
}  // namespace relopt
