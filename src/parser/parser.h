// Recursive-descent parser for the engine's SQL subset.
//
// Supported statements:
//   CREATE TABLE t (a INT, b DOUBLE, c TEXT, d BOOL);
//   CREATE [CLUSTERED] INDEX idx ON t (a [, b ...]);
//   INSERT INTO t [(a, b)] VALUES (1, 'x'), (2, 'y');
//   SELECT [*| expr [AS alias], ...] FROM t [AS] a [, u | JOIN u ON cond]
//     [WHERE cond] [GROUP BY e, ...] [HAVING cond]
//     [ORDER BY e [ASC|DESC], ...] [LIMIT n];
//   EXPLAIN [ANALYZE] SELECT ...;
//   ANALYZE [t];
//   DELETE FROM t [WHERE cond];
//
// Expression grammar (precedence low to high):
//   OR | AND | NOT | comparison / BETWEEN / IN / IS [NOT] NULL
//   | + - | * / % | unary - | literal, column, (expr), agg(...)
//
// Inner JOIN ... ON is normalized into the FROM list plus WHERE conjuncts
// (the optimizer re-derives the join graph; inner-join semantics are
// unchanged).
#pragma once

#include <vector>

#include "parser/ast.h"
#include "parser/lexer.h"
#include "util/result.h"

namespace relopt {

/// \brief Deepest expression the parser accepts. It bounds both the nesting
/// of the recursive descent (parentheses, NOT, unary minus, CASE, calls) and
/// the height of the expression tree being built, which operator chains such
/// as `a+a+...+a` grow without any nesting. A deeper statement fails with a
/// ParseError instead of exhausting the stack in the parser or in a later
/// walk of the tree (binding, folding, compiling, evaluating).
///
/// Each level of parentheses costs about 1.2 KB of parser stack in an
/// optimized build and 6.5 KB under AddressSanitizer, so 500 levels stay
/// well inside a thread's usual 8 MB stack. An IN list adds one level per
/// value, so lists of up to ~500 values parse.
inline constexpr int kMaxExpressionDepth = 500;

/// Parses a semicolon-separated script into statements.
Result<std::vector<StatementPtr>> ParseScript(const std::string& sql);

/// Parses exactly one statement (trailing semicolon optional).
Result<StatementPtr> ParseStatement(const std::string& sql);

}  // namespace relopt
