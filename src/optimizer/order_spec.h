// Physical ordering property used for interesting orders.
#pragma once

#include <string>
#include <vector>

#include "util/str_util.h"

namespace relopt {

/// One column of a physical ordering, identified by (alias, column).
struct OrderColumn {
  std::string alias;
  std::string column;
  bool desc = false;

  bool operator==(const OrderColumn& other) const {
    return EqualsIgnoreCase(alias, other.alias) && EqualsIgnoreCase(column, other.column) &&
           desc == other.desc;
  }
};

/// A physical ordering: major-to-minor columns.
using OrderSpec = std::vector<OrderColumn>;

/// True if data ordered by `have` is also ordered by `want` (i.e. `want` is a
/// prefix of `have`). The empty `want` is always satisfied.
inline bool OrderSatisfies(const OrderSpec& have, const OrderSpec& want) {
  if (want.size() > have.size()) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    if (!(have[i] == want[i])) return false;
  }
  return true;
}

}  // namespace relopt
