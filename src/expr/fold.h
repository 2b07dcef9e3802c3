// Constant folding and boolean simplification.
#pragma once

#include "expr/expression.h"

namespace relopt {

/// \brief Folds constant subtrees and simplifies trivial boolean structure.
///
/// Rules: any operator whose operands are all literals is evaluated once;
/// `x AND false -> false`, `x AND true -> x`, `x OR true -> true`,
/// `x OR false -> x`, `NOT literal -> literal`. Folding never changes SQL
/// NULL semantics (NULL literals fold like any other value). The input need
/// not be bound, so folding never hides a type error the binder would
/// raise: it drops an operand of AND/OR, leaves one standing alone, or drops
/// a CASE arm's WHEN only if that operand is boolean whatever its inputs
/// (a comparison, AND/OR/NOT, IS [NOT] NULL, or a BOOL or NULL literal).
ExprPtr FoldConstants(ExprPtr expr);

}  // namespace relopt
