// Constant folding and boolean simplification.
#pragma once

#include "expr/expression.h"

namespace relopt {

/// \brief Folds constant subtrees of a bound expression and simplifies
/// trivial boolean structure.
///
/// Rules: any operator whose operands are all literals is evaluated once;
/// `x AND false -> false`, `x AND true -> x`, `x OR true -> true`,
/// `x OR false -> x`; a CASE drops the arms whose WHEN folded to FALSE or
/// NULL and collapses to the THEN of a leading TRUE one. Folding never
/// changes SQL NULL semantics (NULL literals fold like any other value).
/// `expr` must be bound, so every operand folding drops has been
/// type-checked already. Folding decides no type: every node it keeps or
/// makes has the bound type of the node it stands for (`CASE WHEN false
/// THEN 2.5 ELSE a END` over INT `a` stays a DOUBLE CASE), so the result is
/// bound, and it is never bound again (Expression::ResolveColumns).
ExprPtr FoldConstants(ExprPtr expr);

}  // namespace relopt
